//! Ablation: the §5 send-queue merge optimization.
//!
//! Without the merge, a migrated pod's saved send queue is re-sent over
//! the new connection after restart — the data crosses the wire twice.
//! With the merge, it rides inside the peer's checkpoint stream. Criterion
//! measures full migrate latency both ways; the wire-segment savings are
//! printed once.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::Ordering;
use std::time::Duration;
use zapc::{migrate_live_with, MigrateOptions};
use zapc_apps::launch::{launch_app, AppKind, AppParams};
use zapc_bench::figures::cluster_for;

fn migrate_once(sendq_merge: bool) -> u64 {
    let cluster = cluster_for(4, 150);
    let app = launch_app(
        &cluster,
        "bench",
        &AppParams { kind: AppKind::Bt, ranks: 4, scale: 0.2, work: 1000.0 },
    );
    std::thread::sleep(Duration::from_millis(60)); // queues loaded
    let before = cluster.net.stats().delivered.load(Ordering::Relaxed);
    let moves: Vec<(String, usize)> =
        app.pods.iter().enumerate().map(|(i, p)| (p.clone(), (i + 1) % 4)).collect();
    let opts = MigrateOptions { max_rounds: 0, sendq_merge, ..Default::default() };
    migrate_live_with(&cluster, &moves, &opts).expect("migrate");
    let delivered = cluster.net.stats().delivered.load(Ordering::Relaxed) - before;
    app.destroy(&cluster);
    delivered
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sendq_merge");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    let plain = migrate_once(false);
    let merged = migrate_once(true);
    eprintln!(
        "[ablation] wire segments during migrate: {plain} without merge, \
         {merged} with merge"
    );

    g.bench_function("migrate_resend_over_wire", |b| {
        b.iter(|| std::hint::black_box(migrate_once(false)))
    });
    g.bench_function("migrate_sendq_merged", |b| {
        b.iter(|| std::hint::black_box(migrate_once(true)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
