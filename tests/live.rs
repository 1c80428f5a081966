//! Live-migration happy paths: iterative pre-copy moves running
//! applications between nodes with application state intact, bounded
//! rounds, and downtime no worse than stop-and-copy's full outage.

use std::time::Duration;
use zapc::manager::{CheckpointTarget, RestartTarget};
use zapc::{
    checkpoint, migrate, migrate_live, migrate_live_with, restart, Cluster, MigrateOptions,
    ZapcError,
};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};

const WAIT: Duration = Duration::from_secs(60);

fn small(kind: AppKind, ranks: usize) -> AppParams {
    AppParams { kind, ranks, scale: 0.02, work: 1.0 }
}

fn reference_codes(kind: AppKind, name: &str, ranks: usize) -> Vec<i32> {
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let app = launch_app(&c, name, &small(kind, ranks));
    let codes = app.wait(&c, WAIT).unwrap();
    app.destroy(&c);
    codes
}

#[test]
fn live_migration_moves_pods_and_app_completes() {
    let reference = reference_codes(AppKind::Cpi, "live", 2);
    let c = Cluster::builder().nodes(3).registry(full_registry()).build();
    let app = launch_app(&c, "live", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();

    let report = migrate_live(&c, &moves).unwrap();

    for p in &app.pods {
        assert_eq!(c.pod_node(p), Some(2), "{p} must live on the target node");
    }
    // Streamed end to end: nothing staged in the image store.
    assert_eq!(c.store.len(), 0, "live migration must not touch the store");

    assert_eq!(report.pods.len(), 2);
    for pr in &report.pods {
        // The base copy plus at least one delta round before cutover.
        assert!(pr.rounds >= 2, "{}: rounds = {}", pr.pod, pr.rounds);
        assert!(pr.rounds <= MigrateOptions::default().max_rounds);
        assert!(pr.precopy_bytes > 0);
        assert!(pr.cut_bytes > 0);
        assert!(pr.downtime_ms >= 0.0);
        assert!(
            pr.downtime_ms <= report.max_downtime_ms,
            "per-pod downtime cannot exceed the reported max"
        );
    }
    assert!(report.wall_ms >= report.precopy_ms);
    let worst = report.pods.iter().map(|p| p.downtime_ms).fold(0.0, f64::max);
    assert!((report.max_downtime_ms - worst).abs() < f64::EPSILON);

    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference, "application state must survive the live move");
    app.destroy(&c);
}

#[test]
fn live_migration_round_cap_bounds_precopy() {
    // With the round cap at its floor, pre-copy is exactly the base copy
    // and every residual ships in the quiesced cut — degenerating to
    // stop-and-copy over the stream. The protocol must still land the pods.
    let reference = reference_codes(AppKind::Bt, "livecap", 2);
    let c = Cluster::builder().nodes(3).registry(full_registry()).build();
    let app = launch_app(&c, "livecap", &small(AppKind::Bt, 2));
    std::thread::sleep(Duration::from_millis(5));
    let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();

    let opts = MigrateOptions { max_rounds: 1, ..Default::default() };
    let report = migrate_live_with(&c, &moves, &opts).unwrap();

    for pr in &report.pods {
        assert_eq!(pr.rounds, 1, "{}: cap must stop pre-copy after the base copy", pr.pod);
        assert!(!pr.converged, "one round can never satisfy the delta-residual test");
    }
    for p in &app.pods {
        assert_eq!(c.pod_node(p), Some(2));
    }
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    app.destroy(&c);
}

/// Both entry points of the one migration engine, reduced to
/// success/failure: stop-and-copy `migrate` and pre-copying
/// `migrate_live`.
type Entry = fn(&Cluster, &[(String, usize)]) -> Result<(), ZapcError>;
const ENTRIES: [(&str, Entry); 2] = [
    ("migrate", |c, moves| migrate(c, moves).map(drop)),
    ("migrate_live", |c, moves| migrate_live(c, moves).map(drop)),
];

#[test]
fn live_migration_unknown_pod_or_node_is_typed() {
    for (entry, run) in ENTRIES {
        let c = Cluster::builder().nodes(2).registry(full_registry()).build();
        let err = run(&c, &[("ghost-0".into(), 1)]).unwrap_err();
        assert!(matches!(err, ZapcError::NotFound(_)), "{entry}: got {err:?}");

        let app = launch_app(&c, "livebad", &small(AppKind::Cpi, 1));
        std::thread::sleep(Duration::from_millis(5));
        let err = run(&c, &[(app.pods[0].clone(), 9)]).unwrap_err();
        assert!(matches!(err, ZapcError::NotFound(_)), "{entry}: got {err:?}");
        // The failed validation never touched the pod.
        assert!(c.pod(&app.pods[0]).is_some(), "{entry}");
        app.wait(&c, WAIT).unwrap();
        app.destroy(&c);
    }
}

#[test]
fn live_downtime_beats_stop_and_copy_outage() {
    // Same workload, same move, both mechanisms: live migration's
    // downtime (suspend → resume) must come in under stop-and-copy's
    // full outage (its entire wall time is downtime bar the bookkeeping
    // before the cutover, since it pre-copies nothing).
    let params = AppParams { kind: AppKind::Bt, ranks: 2, scale: 0.06, work: 4.0 };

    let c1 = Cluster::builder().nodes(3).registry(full_registry()).build();
    let app1 = launch_app(&c1, "sc", &params);
    std::thread::sleep(Duration::from_millis(30));
    let moves1: Vec<(String, usize)> = app1.pods.iter().map(|p| (p.clone(), 2)).collect();
    let t0 = std::time::Instant::now();
    migrate(&c1, &moves1).unwrap();
    let stop_and_copy_ms = t0.elapsed().as_secs_f64() * 1000.0;
    app1.wait(&c1, WAIT).unwrap();
    app1.destroy(&c1);

    let c2 = Cluster::builder().nodes(3).registry(full_registry()).build();
    let app2 = launch_app(&c2, "lv", &params);
    std::thread::sleep(Duration::from_millis(30));
    let moves2: Vec<(String, usize)> = app2.pods.iter().map(|p| (p.clone(), 2)).collect();
    let report = migrate_live(&c2, &moves2).unwrap();
    app2.wait(&c2, WAIT).unwrap();
    app2.destroy(&c2);

    // Generous slack (2×) keeps the assertion meaningful but immune to
    // scheduler noise on loaded CI machines; the benchmark's
    // `live_downtime_ms_p50` / `migrate_outage_ms_p50` pair measures the
    // real ratio.
    assert!(
        report.max_downtime_ms < stop_and_copy_ms * 2.0,
        "live downtime {:.2}ms must not exceed stop-and-copy outage {:.2}ms (2x slack)",
        report.max_downtime_ms,
        stop_and_copy_ms
    );
}

#[test]
fn live_receiver_failure_past_commit_leaves_no_pod_behind() {
    // No loader is registered, so every receiver fails at reinstatement —
    // past the commit point, after it created its pod. It must destroy
    // what it created: a pod left behind keeps the name and the route of
    // one that no longer runs anywhere.
    for (entry, run) in ENTRIES {
        let c = Cluster::builder().nodes(3).build();
        let params = AppParams { kind: AppKind::Bt, ranks: 2, scale: 0.02, work: 50.0 };
        let app = launch_app(&c, "leak", &params);
        std::thread::sleep(Duration::from_millis(5));
        let snapshot: Vec<CheckpointTarget> =
            app.pods.iter().map(|p| CheckpointTarget::snapshot(p)).collect();
        checkpoint(&c, &snapshot).unwrap();
        let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();

        match run(&c, &moves).unwrap_err() {
            ZapcError::Aborted(why) => {
                assert!(why.contains("no loader registered"), "{entry}: why = {why}")
            }
            other => panic!("{entry}: expected a typed abort, got {other:?}"),
        }
        for p in &app.pods {
            assert!(c.pod(p).is_none(), "{entry}: {p} was left behind on the target node");
        }

        // The names are free again: a restart from the earlier snapshot
        // gets as far as the missing loader, not the "still live" refusal.
        let targets: Vec<RestartTarget> = snapshot
            .iter()
            .map(|t| RestartTarget { pod: t.pod.clone(), uri: t.uri.clone(), node: 1 })
            .collect();
        let err = restart(&c, &targets).unwrap_err().to_string();
        assert!(
            err.contains("no loader registered") && !err.contains("still live"),
            "{entry}: err = {err}"
        );
        for p in &app.pods {
            assert!(c.pod(p).is_none(), "{entry}: {p} survived its failed restart");
        }
    }
}
