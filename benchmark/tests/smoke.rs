//! `--smoke`: one reference and one single-cycle, drained generation per
//! workload and pass — every operation once, every oracle on. Checks the
//! driver's contract on the way: the last line of each pass is one result
//! object carrying exactly that pass's metrics.

use benchmark::compare::Json;
use benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

#[test]
fn smoke_runs_every_operation_on_every_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--smoke",
            "--seed",
            "7",
            "--out",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(
        results.len(),
        2 * WORKLOADS.len(),
        "one result per workload and pass"
    );
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "result {i}");
        assert_eq!(r.get("failed").and_then(Json::num), Some(0.0), "result {i}");
        // A primed store and one cycle: 2 + 9 operations.
        assert_eq!(
            r.get("attempted").and_then(Json::num),
            Some(11.0),
            "result {i}"
        );
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            panic!("result {i} has no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = if i % 2 == 0 {
            END_TO_END.iter().map(|m| m.name).collect()
        } else {
            PER_LAYER.iter().map(|m| m.name).collect()
        };
        assert_eq!(names, want, "result {i}");
        if i % 2 == 0 {
            for (name, m) in metrics {
                assert!(
                    m.get("value").and_then(Json::num).is_some_and(|v| v > 0.0),
                    "{name} of result {i} is 0"
                );
            }
        }
    }
    for w in &WORKLOADS {
        let trace = format!(
            "{}/trace-{}-seed7.json",
            env!("CARGO_TARGET_TMPDIR"),
            w.name
        );
        let text = std::fs::read_to_string(&trace).expect("traced pass wrote its span file");
        let Some(Json::Arr(events)) = Json::parse(&text)
            .expect("span file is JSON")
            .get("traceEvents")
            .cloned()
        else {
            panic!("{trace}: no traceEvents")
        };
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::str) == Some("hand.ckpt")),
            "{trace}"
        );
    }
}
