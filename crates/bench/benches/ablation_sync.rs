//! Ablation: the paper's single-synchronization coordination vs a global
//! barrier (§4).
//!
//! ZapC's Agents overlap their standalone checkpoints with the Manager's
//! meta-data sync and only *unblock* after `continue`; the strawman keeps
//! every pod's network blocked and idle until the barrier. Criterion
//! measures end-to-end checkpoint latency under both policies; the
//! per-pod network-blocked time (the quantity the design minimizes) is
//! printed once per policy.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use zapc::agent::SyncPolicy;
use zapc::manager::{checkpoint_with, CheckpointOptions, CheckpointTarget};
use zapc_apps::launch::{launch_app, AppKind, AppParams};
use zapc_bench::figures::{cluster_for, mean_blocked_ms};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sync");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    for (name, policy) in [
        ("single_sync_paper", SyncPolicy::SingleSync),
        ("global_barrier_strawman", SyncPolicy::GlobalBarrier),
    ] {
        let cluster = cluster_for(4, 150);
        let app = launch_app(
            &cluster,
            "bench",
            &AppParams { kind: AppKind::Bratu, ranks: 4, scale: 0.3, work: 1000.0 },
        );
        std::thread::sleep(Duration::from_millis(50));
        let targets: Vec<CheckpointTarget> =
            app.pods.iter().map(|p| CheckpointTarget::snapshot(p)).collect();

        let opts = CheckpointOptions { policy, ..Default::default() };
        let report = checkpoint_with(&cluster, &targets, &opts).expect("checkpoint");
        eprintln!(
            "[ablation] {name}: mean network-blocked time {:.3} ms (wall {:.3} ms)",
            mean_blocked_ms(&report),
            report.wall_ms
        );

        g.bench_function(name, |b| {
            b.iter(|| checkpoint_with(&cluster, &targets, &opts).expect("checkpoint"))
        });
        app.destroy(&cluster);
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
