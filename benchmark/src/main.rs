//! Command line of the benchmark. The driver's form is
//! `--workload W --seed N --seconds S --trace 0|1`; the last line of
//! standard output is then the result object.

use benchmark::driver::{run, RunOpts, RunResult};
use benchmark::{compare, ops, spec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--out DIR] [--smoke]
       benchmark spec
       benchmark compare A.json B.json

run      measures one workload (all four when --workload is absent). --trace 0 prints the
         end-to-end metrics, --trace 1 the per-layer metrics; without --trace both passes
         run, the traced one for a third of --seconds. --json appends each result as one
         line to FILE; the traced pass writes its span file into DIR (default benchmark/out).
         --smoke runs one reference and one short generation per workload with every
         operation and every oracle, ignoring the clock.
spec     prints BENCHMARK.json.
compare  prints ok / worse / unresolved per (end-to-end metric, workload) for two --json files.";

fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.metric.name, m.value, m.metric.unit
            )
        })
        .collect();
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn print_human(opts: &RunOpts, r: &RunResult) {
    println!(
        "== {}  seed {}  {}  {:.0} s: {} operations attempted, {} failed, {}",
        opts.cfg.name,
        opts.seed,
        if opts.trace {
            "traced pass: per-layer metrics"
        } else {
            "untraced pass: end-to-end metrics"
        },
        opts.seconds,
        r.attempted,
        r.failed,
        if r.correct {
            "outputs correct"
        } else {
            "OUTPUTS WRONG"
        },
    );
    for m in &r.metrics {
        let tail = m
            .tail
            .map_or(String::new(), |(p, v)| format!("p{p}={v:.4}"));
        println!(
            "{:<32} {:>14.4} {:<6} n={:<5} {:<16} # {}",
            m.metric.name, m.value, m.metric.unit, m.n, tail, m.metric.what
        );
    }
    for note in &r.notes {
        println!("note: {note}");
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::render());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return fail("compare takes two files");
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            return match read(a)
                .and_then(|a| Ok((a, read(b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b))
            {
                Ok((report, worse)) => {
                    print!("{report}");
                    if worse {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => fail(&e),
            };
        }
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => {
            args.remove(0);
        }
        _ => {}
    }

    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, 1u64, spec::RUN_SECONDS as f64, None);
    let (mut json, mut smoke) = (None, false);
    let mut out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return fail(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = Some(value == "1");
                    true
                }
                _ => false,
            },
            "--json" => {
                json = Some(PathBuf::from(value));
                true
            }
            "--out" => {
                out_dir = PathBuf::from(value);
                true
            }
            _ => return fail(&format!("unknown option {flag}")),
        };
        if !ok {
            return fail(&format!("bad value {value:?} for {flag}"));
        }
    }

    let names: Vec<&str> = match &workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    // Both passes when --trace is absent, the traced one at a third.
    let passes: Vec<(bool, f64)> = match trace {
        Some(t) => vec![(t, seconds)],
        None => vec![(false, seconds), (true, seconds / 3.0)],
    };
    let mut all_correct = true;
    for name in names {
        let Some(cfg) = ops::workload_cfg(name) else {
            return fail(&format!("unknown workload {name:?}"));
        };
        for &(trace, seconds) in &passes {
            let opts = RunOpts {
                cfg,
                seed,
                seconds,
                trace,
                smoke,
                out_dir: out_dir.clone(),
            };
            let r = run(&opts);
            all_correct &= r.correct;
            print_human(&opts, &r);
            let body = result_json(&r);
            if let Some(path) = &json {
                let line = format!(
                    "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"seconds\": {seconds}, {body}}}\n",
                    trace as u8
                );
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| f.write_all(line.as_bytes()));
                if let Err(e) = appended {
                    eprintln!("benchmark: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            println!("{{{body}}}");
        }
    }
    // A smoke run is a test: a wrong output fails it. A measured run
    // reports `correct` in its result and leaves the verdict to the reader.
    if smoke && !all_correct {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
