//! Regenerates the paper's figures as text tables.
//!
//! ```sh
//! cargo run --release -p zapc-bench --bin reproduce -- [--quick] [fig5|fig6a|fig6b|fig6c|all]
//! ```
//!
//! `--quick` uses miniature problem sizes (seconds); the default uses the
//! ÷10-of-paper sizes documented in DESIGN.md (minutes on one core).
//! Performance numbers beyond the paper's figures come from `benchmark/`
//! (see `benchmark/README.md`), not from this binary.

use zapc_apps::launch::AppKind;
use zapc_bench::figures::{
    fmt_bytes, node_counts, run_checkpoints, run_completion, run_restart, RunCfg,
    ZAPC_OVERHEAD_NS,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "all".into());
    let cfg = if quick { RunCfg::quick() } else { RunCfg::full() };

    println!("ZapC reproduction — regenerating §6 figures");
    println!(
        "configuration: scale={} work={} trials={} ({})\n",
        cfg.scale,
        cfg.work,
        cfg.trials,
        if quick { "quick" } else { "full (≈ paper ÷ 10 sizes)" }
    );

    match what.as_str() {
        "fig5" => fig5(&cfg),
        "fig6a" => fig6a(&cfg),
        "fig6b" => fig6b(&cfg),
        "fig6c" => fig6c(&cfg),
        "all" => {
            fig5(&cfg);
            fig6a(&cfg);
            fig6b(&cfg);
            fig6c(&cfg);
        }
        other => {
            eprintln!("unknown figure {other:?}; use fig5|fig6a|fig6b|fig6c|all");
            std::process::exit(2);
        }
    }
}

fn fig5(cfg: &RunCfg) {
    println!("== Figure 5: application completion times, vanilla (Base) vs ZapC ==");
    println!("   (wall-clock on this single-core host cannot show N-node speedup;");
    println!("    the virtual-time column carries the speedup shape — see DESIGN.md)\n");
    println!(
        "{:<9} {:>5} | {:>12} {:>12} {:>9} | {:>12} {:>12}",
        "app", "nodes", "Base wall", "ZapC wall", "overhead", "Base vtime", "ZapC vtime"
    );
    for kind in AppKind::ALL {
        for &n in node_counts(kind) {
            let base = run_completion(kind, n, cfg, 0);
            let zapc = run_completion(kind, n, cfg, ZAPC_OVERHEAD_NS);
            let ovh = if base.wall_ms > 0.0 {
                (zapc.wall_ms - base.wall_ms) / base.wall_ms * 100.0
            } else {
                0.0
            };
            println!(
                "{:<9} {:>5} | {:>9.1} ms {:>9.1} ms {:>8.1}% | {:>9.1} ms {:>9.1} ms",
                kind.name(),
                n,
                base.wall_ms,
                zapc.wall_ms,
                ovh,
                base.vtime_ms,
                zapc.vtime_ms
            );
        }
        println!();
    }
}

fn fig6a(cfg: &RunCfg) {
    println!("== Figure 6a: average checkpoint times (10 snapshots per run) ==\n");
    println!(
        "{:<9} {:>5} | {:>12} {:>12} {:>14} {:>9}",
        "app", "nodes", "avg ckpt", "max ckpt", "net-ckpt avg", "net %"
    );
    for kind in AppKind::ALL {
        for &n in node_counts(kind) {
            let s = run_checkpoints(kind, n, cfg, 10);
            if s.count == 0 {
                println!("{:<9} {:>5} | (run too short for snapshots)", kind.name(), n);
                continue;
            }
            println!(
                "{:<9} {:>5} | {:>9.2} ms {:>9.2} ms {:>11.3} ms {:>8.1}%",
                kind.name(),
                n,
                s.ckpt_ms_avg,
                s.ckpt_ms_max,
                s.net_ms_avg,
                s.net_ms_avg / s.ckpt_ms_avg.max(1e-9) * 100.0
            );
        }
        println!();
    }
}

fn fig6b(cfg: &RunCfg) {
    println!("== Figure 6b: restart times (mid-run image, preloaded in memory) ==\n");
    println!("{:<9} {:>5} | {:>12} {:>16}", "app", "nodes", "restart", "net-restore avg");
    for kind in AppKind::ALL {
        for &n in node_counts(kind) {
            let s = run_restart(kind, n, cfg);
            println!(
                "{:<9} {:>5} | {:>9.2} ms {:>13.3} ms",
                kind.name(),
                n,
                s.restart_ms,
                s.net_ms
            );
        }
        println!();
    }
}

fn fig6c(cfg: &RunCfg) {
    println!("== Figure 6c: checkpoint image sizes (largest pod, avg of snapshots) ==\n");
    println!(
        "{:<9} {:>5} | {:>12} {:>14}",
        "app", "nodes", "largest pod", "net-state avg"
    );
    for kind in AppKind::ALL {
        for &n in node_counts(kind) {
            let s = run_checkpoints(kind, n, cfg, 5);
            if s.count == 0 {
                println!("{:<9} {:>5} | (run too short for snapshots)", kind.name(), n);
                continue;
            }
            println!(
                "{:<9} {:>5} | {:>12} {:>14}",
                kind.name(),
                n,
                fmt_bytes(s.image_bytes_max_pod),
                fmt_bytes(s.network_bytes_avg)
            );
        }
        println!();
    }
}
