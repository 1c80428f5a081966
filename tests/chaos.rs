//! Chaos tests: drive the coordinated checkpoint/restart/migrate protocol
//! through every fault-injection site and assert the §4 failure semantics —
//! every fault either recovers within bounded retries or surfaces as a
//! typed [`ZapcError`], never a wedge, and surviving pods always resume
//! with state intact (their output matches a fault-free run).

use std::time::Duration;
use zapc::agent::Finalize;
use zapc::manager::{
    checkpoint, checkpoint_with, restart, CheckpointOptions, CheckpointTarget, RestartTarget,
};
use zapc::{Cluster, FaultAction, FaultPlan, Uri, ZapcError};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};

const WAIT: Duration = Duration::from_secs(60);

fn small(kind: AppKind, ranks: usize) -> AppParams {
    AppParams { kind, ranks, scale: 0.02, work: 1.0 }
}

/// Exit codes of a fault-free run: the reference output every survivor
/// must reproduce (the codes encode the computed result, so equality
/// means the application state came through the fault intact).
fn reference_codes(kind: AppKind, name: &str, ranks: usize) -> Vec<i32> {
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let app = launch_app(&c, name, &small(kind, ranks));
    let codes = app.wait(&c, WAIT).unwrap();
    app.destroy(&c);
    codes
}

fn snapshots(pods: &[String]) -> Vec<CheckpointTarget> {
    pods.iter().map(|p| CheckpointTarget::snapshot(p)).collect()
}

// ---- checkpoint × agent crash sites -----------------------------------

#[test]
fn agent_crash_sites_abort_typed_and_survivors_resume() {
    let reference = reference_codes(AppKind::Cpi, "chaos", 2);
    for site in ["agent.pre_meta", "agent.post_meta", "agent.pre_continue"] {
        let plan =
            FaultPlan::script().always(site, Some("chaos-0"), FaultAction::Crash).build();
        let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "chaos", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let err = checkpoint(&c, &snapshots(&app.pods)).unwrap_err();
        assert!(matches!(err, ZapcError::Aborted(_)), "{site}: got {err:?}");
        assert!(c.faults.fired() > 0, "{site}: fault must have fired");
        // The abort rolled every pod back; the whole application finishes
        // with the fault-free result.
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference, "{site}: survivors must match fault-free output");
        app.destroy(&c);
    }
}

#[test]
fn transient_agent_crashes_recovered_by_retry() {
    let reference = reference_codes(AppKind::Cpi, "chaos", 2);
    for site in ["agent.pre_meta", "agent.post_meta", "agent.pre_continue"] {
        // Fires only on the first hit: attempt 1 aborts, attempt 2 is clean.
        let plan =
            FaultPlan::script().inject(site, Some("chaos-0"), 0, FaultAction::Crash).build();
        let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "chaos", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let opts = CheckpointOptions { retries: 2, ..Default::default() };
        let report = checkpoint_with(&c, &snapshots(&app.pods), &opts)
            .unwrap_or_else(|e| panic!("{site}: retry must succeed, got {e:?}"));
        assert_eq!(report.pods.len(), 2);
        assert_eq!(c.faults.fired(), 1, "{site}");
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference, "{site}");
        app.destroy(&c);
    }
}

// ---- checkpoint × control channel -------------------------------------

#[test]
fn dropped_continue_times_out_rolls_back_and_app_completes() {
    let reference = reference_codes(AppKind::Cpi, "chaos", 2);
    let plan = FaultPlan::script()
        .always("ctl.continue", Some("chaos-0"), FaultAction::Drop)
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "chaos", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    // The Agent's bounded wait turns the lost `continue` into a rollback
    // instead of a wedge.
    let opts = CheckpointOptions { timeout: Duration::from_millis(750), ..Default::default() };
    let err = checkpoint_with(&c, &snapshots(&app.pods), &opts).unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    app.destroy(&c);
}

#[test]
fn delayed_continue_still_succeeds() {
    let reference = reference_codes(AppKind::Cpi, "chaos", 2);
    let plan = FaultPlan::script()
        .inject("ctl.continue", Some("chaos-1"), 0, FaultAction::Delay { micros: 50_000 })
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "chaos", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    checkpoint(&c, &snapshots(&app.pods)).unwrap();
    assert_eq!(c.faults.fired(), 1);
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    app.destroy(&c);
}

// ---- checkpoint × manager crash sites ---------------------------------

#[test]
fn manager_crash_sites_abort_then_retry_succeeds() {
    let reference = reference_codes(AppKind::Cpi, "chaos", 2);
    for site in ["manager.post_meta", "manager.pre_done"] {
        let plan =
            FaultPlan::script().inject(site, Some("manager"), 0, FaultAction::Crash).build();
        let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "chaos", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        // Without retries the crash surfaces typed.
        let err = checkpoint(&c, &snapshots(&app.pods)).unwrap_err();
        assert!(matches!(err, ZapcError::Aborted(_)), "{site}: got {err:?}");
        // The Agents detected the broken connections and rolled back, so a
        // fresh invocation (the site fired its one shot) goes through.
        let report = checkpoint(&c, &snapshots(&app.pods))
            .unwrap_or_else(|e| panic!("{site}: clean rerun must succeed, got {e:?}"));
        assert_eq!(report.pods.len(), 2);
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference, "{site}");
        app.destroy(&c);
    }
}

// ---- image corruption / truncation ------------------------------------

#[test]
fn mangled_images_fail_restart_with_typed_error() {
    let plan = FaultPlan::script()
        .inject("agent.image", Some("img-0"), 0, FaultAction::Corrupt { byte: 12_345 })
        .inject("agent.image", Some("img-1"), 0, FaultAction::Truncate { keep_permille: 400 })
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "img", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(10));
    let targets: Vec<CheckpointTarget> = app
        .pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("img/{p}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    // The mangling is silent at checkpoint time (a crashed disk lies)…
    checkpoint(&c, &targets).unwrap();
    assert_eq!(c.faults.fired(), 2);
    // …but the checked sections catch it at restart: typed error,
    // never a silent mis-restore.
    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .map(|p| RestartTarget { pod: p.clone(), uri: Uri::mem(format!("img/{p}")), node: 0 })
        .collect();
    let err = restart(&c, &rts).unwrap_err();
    match err {
        ZapcError::Decode(_) | ZapcError::Aborted(_) => {}
        other => panic!("expected decode/abort, got {other:?}"),
    }
}

// ---- migrate ----------------------------------------------------------

/// Stop-and-copy: the one migration engine with no pre-copy rounds.
fn stop_and_copy(retries: u32, timeout: Duration) -> LiveOpts {
    LiveOpts { max_rounds: 0, retries, timeout, ..Default::default() }
}

#[test]
fn migrate_precommit_crash_rolls_back_and_retry_moves_pods() {
    let reference = reference_codes(AppKind::Cpi, "mig", 2);
    let plan = FaultPlan::script()
        .inject("agent.cutover", Some("mig-0"), 0, FaultAction::Crash)
        .build();
    let c = Cluster::builder().nodes(3).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "mig", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
    // Attempt 1 aborts before the commit point — every source pod survives,
    // so the retry is safe and lands the pods on the new node.
    migrate_live_with(&c, &moves, &stop_and_copy(2, Duration::from_secs(30))).unwrap();
    assert_eq!(c.faults.fired(), 1);
    for p in &app.pods {
        assert_eq!(c.pod_node(p), Some(2), "{p} must live on the target node");
    }
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    app.destroy(&c);
}

#[test]
fn migrate_meta_timeout_aborts_resumes_all_and_retry_succeeds() {
    // The timeout path must abort + drain like the checkpoint path,
    // leaving every source pod running. With no pre-copy the first frame
    // on migs-0's stream is its cut, sent while the pod is suspended;
    // holding it past the receiver's stream timeout aborts the attempt.
    let reference = reference_codes(AppKind::Cpi, "migs", 2);
    let plan = FaultPlan::script()
        .inject("net.partition", Some("migs-0"), 0, FaultAction::Delay { micros: 2_000_000 })
        .build();
    let c = Cluster::builder().nodes(3).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "migs", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
    migrate_live_with(&c, &moves, &stop_and_copy(2, Duration::from_millis(400))).unwrap();
    assert_eq!(c.faults.fired(), 1);
    for p in &app.pods {
        assert_eq!(c.pod_node(p), Some(2));
    }
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    app.destroy(&c);
}

#[test]
fn migrate_persistent_fault_exhausts_retries_and_every_source_stays_home() {
    // No source is destroyed before every receiver holds a verified cut,
    // so a fault that strikes one pod on every attempt can never leave a
    // partial commit behind: each attempt rolls back, the retries run out
    // typed, and both applications finish at home with fault-free output.
    let ref_a = reference_codes(AppKind::Cpi, "miga", 1);
    let ref_b = reference_codes(AppKind::Cpi, "migb", 1);
    let plan = FaultPlan::script()
        .always("agent.cutover", Some("miga-0"), FaultAction::Crash)
        .build();
    let c = Cluster::builder().nodes(3).registry(full_registry()).faults(plan).build();
    let app_a = launch_app(&c, "miga", &small(AppKind::Cpi, 1));
    let app_b = launch_app(&c, "migb", &small(AppKind::Cpi, 1));
    std::thread::sleep(Duration::from_millis(5));
    let homes = home_nodes(&c, &["miga-0".to_string(), "migb-0".to_string()]);
    let moves = vec![("miga-0".to_string(), 2), ("migb-0".to_string(), 2)];
    let err = migrate_live_with(&c, &moves, &stop_and_copy(3, Duration::from_millis(750)))
        .unwrap_err();
    match &err {
        ZapcError::Exhausted { attempts: 4, last } => {
            assert!(matches!(**last, ZapcError::Aborted(_)), "last = {last:?}")
        }
        other => panic!("expected Exhausted over Aborted after 4 attempts, got {other:?}"),
    }
    assert_eq!(c.faults.fired(), 4, "one crash per attempt");
    assert_eq!(home_nodes(&c, &["miga-0".to_string(), "migb-0".to_string()]), homes);
    assert_eq!(app_a.wait(&c, WAIT).unwrap(), ref_a, "miga must match the fault-free run");
    assert_eq!(app_b.wait(&c, WAIT).unwrap(), ref_b, "migb must match the fault-free run");
    app_a.destroy(&c);
    app_b.destroy(&c);
}

// ---- restart reconnection under wire faults ---------------------------

#[test]
fn restart_reconnection_survives_segment_drop_and_duplication() {
    // Checkpoint the communication-heavy workload fault-free. The problem
    // size is deliberately larger than `small`: the ranks must still be
    // exchanging boundary data when the checkpoint lands, otherwise a
    // fast host drains all communication before the 10 ms mark and the
    // restarted run has no traffic left for the faulted wire to bite.
    let params = AppParams { kind: AppKind::Bt, ranks: 4, scale: 0.2, work: 1.0 };
    let reference: Vec<i32> = {
        let c = Cluster::builder().nodes(2).registry(full_registry()).build();
        let app = launch_app(&c, "net", &params);
        let codes = app.wait(&c, WAIT).unwrap();
        app.destroy(&c);
        codes
    };

    // One attempt: checkpoint shortly after launch, restart on a faulted
    // wire, and report whether the restored run still had traffic for the
    // faults to bite. The checkpoint instant races the application on
    // purpose — how far the ranks get in 1 ms is host-speed dependent —
    // so the outer loop retries until an attempt catches the ranks
    // mid-communication. Correctness is asserted on *every* attempt.
    let attempt = || {
        let c1 = Cluster::builder().nodes(2).registry(full_registry()).build();
        let app = launch_app(&c1, "net", &params);
        std::thread::sleep(Duration::from_millis(1));
        let targets: Vec<CheckpointTarget> = app
            .pods
            .iter()
            .map(|p| CheckpointTarget {
                pod: p.clone(),
                uri: Uri::mem(format!("img/{p}")),
                finalize: Finalize::Destroy,
            })
            .collect();
        checkpoint(&c1, &targets).unwrap();

        // Restart on a cluster whose wire eats the first two segments of
        // every flow and duplicates the third: the reconnection
        // handshakes and the restored streams must recover by
        // retransmission.
        let plan = FaultPlan::script()
            .inject_range("net.segment", None, 0, 2, FaultAction::Drop)
            .inject("net.segment", None, 2, FaultAction::Duplicate)
            .build();
        let c2 =
            Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        for p in &app.pods {
            let img = c1.store.get(&format!("img/{p}")).unwrap();
            c2.store.put(&format!("img/{p}"), img.as_ref().clone());
        }
        let rts: Vec<RestartTarget> = app
            .pods
            .iter()
            .enumerate()
            .map(|(i, p)| RestartTarget {
                pod: p.clone(),
                uri: Uri::mem(format!("img/{p}")),
                node: i % 2,
            })
            .collect();
        restart(&c2, &rts).unwrap();
        let codes = app.wait(&c2, WAIT).unwrap();
        assert_eq!(codes, reference, "restarted run must produce the fault-free output");
        let fired = c2.faults.fired();
        app.destroy(&c2);
        fired
    };
    let mut hit = false;
    for _ in 0..10 {
        if attempt() > 0 {
            hit = true;
            break;
        }
    }
    assert!(hit, "no attempt caught the ranks mid-communication; the wire faults never fired");
}

// ---- earlier snapshots under faults -----------------------------------

#[test]
fn faulted_checkpoint_aborts_and_previous_snapshot_restores_intact() {
    // Snapshot twice, then crash one Agent during the *third* snapshot.
    // The crashed Agent never delivered, so its `ckpt/<pod>` slot must
    // still hold the second snapshot's very image, and a restart from the
    // slots must reproduce the fault-free output exactly.
    let reference = reference_codes(AppKind::Cpi, "inc", 2);
    let plan = FaultPlan::script()
        .inject("agent.pre_continue", Some("inc-0"), 2, FaultAction::Crash)
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "inc", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));

    let targets = snapshots(&app.pods);
    checkpoint(&c, &targets).unwrap();
    std::thread::sleep(Duration::from_millis(3));
    checkpoint(&c, &targets).unwrap();
    let second = c.store.get("ckpt/inc-0").unwrap();
    std::thread::sleep(Duration::from_millis(3));

    // Third checkpoint: the Agent for inc-0 crashes awaiting `continue`.
    let err = checkpoint(&c, &targets).unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
    assert!(c.faults.fired() > 0);
    assert!(
        std::sync::Arc::ptr_eq(&second, &c.store.get("ckpt/inc-0").unwrap()),
        "the aborted attempt must not touch the crashed pod's slot"
    );

    for p in &app.pods {
        c.destroy_pod(p);
    }
    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .enumerate()
        .map(|(i, p)| RestartTarget { pod: p.clone(), uri: Uri::mem(format!("ckpt/{p}")), node: i % 2 })
        .collect();
    restart(&c, &rts).unwrap();
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference, "restore must match the fault-free output");
    app.destroy(&c);
}

// ---- observability under aborts ---------------------------------------

#[test]
fn aborted_checkpoint_keeps_observer_aggregates_consistent_with_ring() {
    // An aborted checkpoint drains mid-protocol: Agents roll back, spans
    // close on error paths, late replies are discarded. None of that may
    // lose observability — the collector's span and counter totals must
    // agree *exactly* with a replay of the event ring, and a generously
    // sized ring must not have evicted anything.
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use zapc_obs::{EventKind, Observer};

    let (obs, ring) = Observer::ring(65_536);
    let plan = FaultPlan::script()
        .always("agent.pre_continue", Some("oag-0"), FaultAction::Crash)
        .build();
    let c = Cluster::builder()
        .nodes(2)
        .registry(full_registry())
        .faults(plan)
        .observer(obs)
        .build();
    let app = launch_app(&c, "oag", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));

    let err = checkpoint(&c, &snapshots(&app.pods)).unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
    assert!(c.faults.fired() > 0, "fault must have fired");

    // Let the app finish so nothing emits while we compare.
    let _ = app.wait(&c, WAIT).unwrap();
    app.destroy(&c);
    std::thread::sleep(Duration::from_millis(10));

    assert_eq!(ring.dropped(), 0, "ring sized for the whole run must not evict");
    let events = ring.events();
    assert!(
        events.iter().any(|e| matches!(e.kind, EventKind::SpanEnd { .. })),
        "the aborted attempt must still have closed spans"
    );

    // Replay the ring into per-(key, phase) span totals and per-
    // (key, name) counter totals, then compare against the lazily merged
    // aggregate cells.
    let mut spans: BTreeMap<(Arc<str>, &'static str), (u64, u64)> = BTreeMap::new();
    let mut counters: BTreeMap<(Arc<str>, &'static str), u64> = BTreeMap::new();
    for e in &events {
        match e.kind {
            EventKind::SpanEnd { phase, dur_us } => {
                let cell = spans.entry((Arc::clone(&e.key), phase)).or_default();
                cell.0 += 1;
                cell.1 += dur_us;
            }
            EventKind::Counter { name, delta } => {
                *counters.entry((Arc::clone(&e.key), name)).or_default() += delta;
            }
            _ => {}
        }
    }
    let replayed_spans: Vec<_> = spans.into_iter().collect();
    let replayed_counters: Vec<_> = counters.into_iter().collect();
    assert_eq!(
        ring.phase_totals(),
        replayed_spans,
        "span aggregates must replay exactly from the ring after an abort"
    );
    assert_eq!(
        ring.counter_totals(),
        replayed_counters,
        "counter aggregates must replay exactly from the ring after an abort"
    );
}

// ---- seeded soak ------------------------------------------------------

#[test]
fn seeded_soak_every_plan_recovers_or_aborts_typed() {
    let ref_cpi = reference_codes(AppKind::Cpi, "soak", 2);
    let ref_bt = reference_codes(AppKind::Bt, "soak", 4);
    for seed in 0..50u64 {
        let (kind, ranks, reference) = if seed % 2 == 0 {
            (AppKind::Cpi, 2, &ref_cpi)
        } else {
            (AppKind::Bt, 4, &ref_bt)
        };
        let plan = FaultPlan::from_seed(seed);
        let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "soak", &small(kind, ranks));
        std::thread::sleep(Duration::from_millis(3));
        let opts = CheckpointOptions {
            timeout: Duration::from_secs(2),
            retries: 3,
            ..Default::default()
        };
        // Seeded faults are transient (max_fires bounds each site), so the
        // retried checkpoint normally succeeds; when it does not, the
        // failure must be a typed abort or a typed retry exhaustion —
        // never a wedge, never a panic.
        match checkpoint_with(&c, &snapshots(&app.pods), &opts) {
            Ok(_) | Err(ZapcError::Aborted(_)) | Err(ZapcError::Exhausted { .. }) => {}
            Err(other) => panic!("seed {seed}: untyped failure {other:?}"),
        }
        // Snapshot semantics: every pod keeps running either way, and the
        // application result is unperturbed.
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(&codes, reference, "seed {seed} ({kind:?})");
        app.destroy(&c);
    }
}

// ---- durable commit & recovery ----------------------------------------

use zapc::{checkpoint_commit, recover, restart_from_manifest, CommitOptions};

/// Writes the run's injection trace under `target/chaos-traces/` so CI can
/// upload it as an artifact when the suite fails.
fn dump_trace(test: &str, c: &Cluster) {
    let dir = std::path::Path::new("target/chaos-traces");
    let _ = std::fs::create_dir_all(dir);
    let body = c
        .faults
        .trace()
        .into_iter()
        .map(|e| format!("{e:?}\n"))
        .collect::<String>();
    let _ = std::fs::write(dir.join(format!("{test}.trace")), body);
}

fn commit_pods(app_pods: &[String]) -> Vec<&str> {
    app_pods.iter().map(|s| s.as_str()).collect()
}

#[test]
fn stage_crash_aborts_commit_leaves_no_litter_and_app_resumes() {
    let reference = reference_codes(AppKind::Cpi, "dst", 2);
    let plan = FaultPlan::script()
        .inject("agent.stage", Some("dst-0"), 0, FaultAction::Crash)
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "dst", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    let err = checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
        .unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
    // The aborted commit rolled its staging back: nothing durable, nothing
    // orphaned, and the application resumes with state intact.
    assert!(c.istore.manifest_ids().is_empty());
    assert!(c.istore.image_refs().is_empty());
    assert!(c.istore.tmp_files().is_empty());
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    dump_trace("stage_crash", &c);
    app.destroy(&c);
}

#[test]
fn node_death_during_stage_is_caught_by_lease_not_timeout() {
    let plan = FaultPlan::script()
        .inject("agent.node_dead", Some("dnd-1"), 0, FaultAction::Crash)
        .build();
    let c = Cluster::builder()
        .nodes(2)
        .registry(full_registry())
        .faults(plan)
        .lease_ms(100)
        .build();
    let app = launch_app(&c, "dnd", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    // A generous timeout: the abort must come from the lease layer
    // noticing the dead node, far before the timeout would fire.
    let opts = CommitOptions { timeout: Duration::from_secs(30), ..Default::default() };
    let start = std::time::Instant::now();
    let err = checkpoint_commit(&c, &commit_pods(&app.pods), &opts).unwrap_err();
    let elapsed = start.elapsed();
    match &err {
        ZapcError::Aborted(why) => assert!(why.contains("died"), "why = {why}"),
        other => panic!("expected lease-driven abort, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "lease must beat the 30s timeout, took {elapsed:?}"
    );
    assert!(!c.health.is_alive(1), "the dead node is marked dead");
    // Rollback held: no durable residue from the aborted attempt.
    assert!(c.istore.manifest_ids().is_empty());
    assert!(c.istore.image_refs().is_empty());
    dump_trace("node_death_stage", &c);
}

#[test]
fn commit_crash_at_every_phase_boundary_recovers_consistently() {
    // One crash site per commit-phase boundary: during staging, after
    // staging but before the manifest rename, and after the rename. For
    // each, power-fail the store and run recovery: the restarted Manager
    // must land on a committed checkpoint or a clean rollback — never a
    // partial image — with zero orphans left behind.
    let reference = reference_codes(AppKind::Cpi, "dpb", 2);
    for (site, key, committed) in [
        ("agent.stage", Some("dpb-0"), false),
        ("manager.pre_manifest", Some("manager"), false),
        ("manager.post_manifest", Some("manager"), true),
    ] {
        let plan = FaultPlan::script().inject(site, key, 0, FaultAction::Crash).build();
        let c =
            Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "dpb", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let err = checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
            .unwrap_err();
        assert!(matches!(err, ZapcError::Aborted(_)), "{site}: got {err:?}");

        // Power loss, then a fresh Manager takes over.
        c.istore.crash();
        let rec = recover(&c);
        if committed {
            assert_eq!(rec.latest, Some(1), "{site}: rename landed, checkpoint survives");
            // The checkpoint is consumable: tear the app down and restart
            // from the recovered manifest.
            for p in &app.pods {
                c.destroy_pod(p);
            }
            restart_from_manifest(&c, None, WAIT).unwrap();
            let codes = app.wait(&c, WAIT).unwrap();
            assert_eq!(codes, reference, "{site}");
        } else {
            assert_eq!(rec.latest, None, "{site}: no rename, no checkpoint");
            assert!(c.istore.image_refs().is_empty(), "{site}: staged litter survived");
            let codes = app.wait(&c, WAIT).unwrap();
            assert_eq!(codes, reference, "{site}");
        }
        // GC left nothing behind either way.
        assert!(c.istore.tmp_files().is_empty(), "{site}");
        let again = recover(&c);
        assert_eq!(again.orphans_removed, 0, "{site}: recovery must leave zero orphans");
        dump_trace(&format!("phase_boundary_{}", site.replace('.', "_")), &c);
        app.destroy(&c);
    }
}

#[test]
fn torn_manifest_recovery_falls_back_to_previous_checkpoint() {
    // Commit #1 cleanly; commit #2's manifest never reaches the platter
    // (fsync silently dropped) before the power cut. Recovery must roll
    // #2 back and serve #1.
    let reference = reference_codes(AppKind::Cpi, "dtm", 2);
    let plan = FaultPlan::script()
        .inject("store.fsync", Some("2"), 0, FaultAction::Drop)
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "dtm", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default()).unwrap();
    std::thread::sleep(Duration::from_millis(3));
    checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default()).unwrap();

    c.istore.crash();
    let rec = recover(&c);
    assert_eq!(rec.latest, Some(1), "torn #2 falls back to #1");
    assert!(rec.rolled_back.contains(&2));

    for p in &app.pods {
        c.destroy_pod(p);
    }
    restart_from_manifest(&c, None, WAIT).unwrap();
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    dump_trace("torn_manifest", &c);
    app.destroy(&c);
}

#[test]
fn double_recovery_after_crashed_commit_is_idempotent() {
    let plan = FaultPlan::script()
        .inject("manager.pre_manifest", Some("manager"), 0, FaultAction::Crash)
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "didem", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default()).unwrap_err();
    c.istore.crash();

    let first = recover(&c);
    let second = recover(&c);
    assert_eq!(first.rolled_back, vec![1]);
    assert!(second.rolled_back.is_empty(), "second pass must find nothing to undo");
    assert_eq!(second.latest, first.latest);
    assert_eq!(second.orphans_removed, 0);
    assert_eq!(second.epoch, first.epoch + 1, "each pass still bumps the epoch");
    dump_trace("double_recovery", &c);
    let _ = app.wait(&c, WAIT).unwrap();
    app.destroy(&c);
}

#[test]
fn seeded_recovery_soak_never_consumes_partial_state() {
    // Seed-driven sweep over the commit path. CI runs this with several
    // `ZAPC_RECOVERY_SOAK_BASE` values to widen the matrix; locally it
    // covers seeds 0..8. Whatever fires, the contract is the same: the
    // commit either succeeds or aborts typed; after a power cut, recovery
    // lands on a committed checkpoint or a clean rollback; a second
    // recovery pass finds nothing; and the application output always
    // matches the fault-free run.
    let base: u64 = std::env::var("ZAPC_RECOVERY_SOAK_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let reference = reference_codes(AppKind::Cpi, "dsoak", 2);
    for seed in base..base + 8 {
        let plan = FaultPlan::from_seed(seed)
            .scoped(&["agent.stage", "manager.", "store."]);
        let c =
            Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "dsoak", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(3));
        let opts =
            CommitOptions { timeout: Duration::from_secs(2), ..Default::default() };
        match checkpoint_commit(&c, &commit_pods(&app.pods), &opts) {
            Ok(_) | Err(ZapcError::Aborted(_)) => {}
            Err(other) => panic!("seed {seed}: untyped failure {other:?}"),
        }
        c.istore.crash();
        let rec = recover(&c);
        let again = recover(&c);
        assert!(again.rolled_back.is_empty(), "seed {seed}: recovery not idempotent");
        assert_eq!(again.orphans_removed, 0, "seed {seed}: orphans survived recovery");
        assert!(c.istore.tmp_files().is_empty(), "seed {seed}");
        if let Some(latest) = rec.latest {
            // The recovered checkpoint must be consumable end to end.
            for p in &app.pods {
                c.destroy_pod(p);
            }
            restart_from_manifest(&c, Some(latest), WAIT)
                .unwrap_or_else(|e| panic!("seed {seed}: restart failed: {e:?}"));
        }
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference, "seed {seed}");
        dump_trace(&format!("recovery_soak_{seed}"), &c);
        app.destroy(&c);
    }
}

#[test]
fn same_seed_recovery_yields_identical_trace_and_outcome() {
    // Recovery determinism: the same seeded plan, scoped to the commit
    // path, must produce byte-identical injection traces, the same
    // recovery classification, and the same application output on every
    // run.
    let seed = (1..5000u64)
        .find(|s| {
            let probe = FaultPlan::from_seed(*s);
            probe.hit("manager.pre_manifest", "manager").is_some()
                || probe.hit("manager.post_manifest", "manager").is_some()
        })
        .expect("some seed below 5000 fires a manifest-phase site");
    let run = || {
        let plan = FaultPlan::from_seed(seed)
            .scoped(&["manager.pre_manifest", "manager.post_manifest", "store."]);
        let c =
            Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "drec", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let outcome =
            checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
                .map(|r| r.ckpt_id)
                .map_err(|e| matches!(e, ZapcError::Aborted(_)));
        c.istore.crash();
        let rec = recover(&c);
        let codes = app.wait(&c, WAIT).unwrap();
        dump_trace("recovery_determinism", &c);
        app.destroy(&c);
        (c.faults.trace(), outcome, rec.latest, rec.rolled_back, codes)
    };
    let (t1, o1, l1, rb1, c1) = run();
    let (t2, o2, l2, rb2, c2) = run();
    assert!(!t1.is_empty(), "chosen seed must fire");
    assert_eq!(t1, t2, "same seed => same injection trace");
    assert_eq!(o1, o2);
    assert_eq!(l1, l2, "same seed => same recovery classification");
    assert_eq!(rb1, rb2);
    assert_eq!(c1, c2);
}

// ---- determinism ------------------------------------------------------

#[test]
fn same_seed_and_workload_yield_identical_injection_trace() {
    // Pick a seed that provably fires at a site every run reaches
    // (decisions are pure in (seed, site, key, nth), so probing a fresh
    // plan predicts the real run).
    let seed = (1..5000u64)
        .find(|s| {
            let probe = FaultPlan::from_seed(*s);
            probe.hit("agent.pre_meta", "det-0").is_some()
                || probe.hit("agent.pre_meta", "det-1").is_some()
        })
        .expect("some seed below 5000 fires agent.pre_meta");
    let run = || {
        // Protocol scope only: wire and scheduler hit counts depend on
        // timing (retransmissions), so they are excluded from the
        // determinism contract.
        let plan = FaultPlan::from_seed(seed).scoped(&["agent.", "ctl.", "manager."]);
        let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "det", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let opts = CheckpointOptions {
            timeout: Duration::from_secs(2),
            retries: 3,
            ..Default::default()
        };
        let _ = checkpoint_with(&c, &snapshots(&app.pods), &opts);
        let codes = app.wait(&c, WAIT).unwrap();
        app.destroy(&c);
        (c.faults.trace(), codes)
    };
    let (trace1, codes1) = run();
    let (trace2, codes2) = run();
    assert!(!trace1.is_empty(), "chosen seed must fire");
    assert_eq!(trace1, trace2, "same seed + workload => same injection trace");
    assert_eq!(codes1, codes2);
}

// ---- live migration ---------------------------------------------------

use zapc::{migrate_live_with, MigrateOptions as LiveOpts};
use zapc_apps::launch::launch_writers;
use zapc_apps::writer::WriterConfig;

/// Original node of each pod in a fresh `launch_app` placement
/// (round-robin across the cluster).
fn home_nodes(c: &Cluster, pods: &[String]) -> Vec<Option<usize>> {
    pods.iter().map(|p| c.pod_node(p)).collect()
}

#[test]
fn live_precopy_crash_aborts_typed_and_source_keeps_running() {
    // Chaos case 1: the source Agent dies between pre-copy rounds. The
    // pod was never suspended, so the abort must leave it running in
    // place with state intact — and the scripted trace is deterministic.
    let reference = reference_codes(AppKind::Cpi, "lmp", 2);
    let run = || {
        let plan = FaultPlan::script()
            .always("agent.precopy_round", Some("lmp-0"), FaultAction::Crash)
            .build();
        let c = Cluster::builder().nodes(3).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "lmp", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let homes = home_nodes(&c, &app.pods);
        let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
        let err = migrate_live_with(&c, &moves, &LiveOpts::default()).unwrap_err();
        assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
        assert!(c.faults.fired() > 0, "fault must have fired");
        assert_eq!(home_nodes(&c, &app.pods), homes, "sources must stay put");
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference, "source state must be intact after the abort");
        dump_trace("live_precopy_crash", &c);
        app.destroy(&c);
        (c.faults.trace(), codes)
    };
    let (t1, c1) = run();
    let (t2, c2) = run();
    assert_eq!(t1, t2, "scripted plan => identical trace every run");
    assert_eq!(c1, c2);
}

#[test]
fn live_cutover_crash_aborts_typed_and_source_keeps_running() {
    // Chaos case 1b: the Agent dies at the cutover command, after
    // pre-copy but before suspending anything.
    let reference = reference_codes(AppKind::Cpi, "lmc", 2);
    let run = || {
        let plan = FaultPlan::script()
            .always("agent.cutover", Some("lmc-0"), FaultAction::Crash)
            .build();
        let c = Cluster::builder().nodes(3).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "lmc", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let homes = home_nodes(&c, &app.pods);
        let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
        let err = migrate_live_with(&c, &moves, &LiveOpts::default()).unwrap_err();
        assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
        assert_eq!(c.faults.fired(), 1);
        assert_eq!(home_nodes(&c, &app.pods), homes);
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference);
        dump_trace("live_cutover_crash", &c);
        app.destroy(&c);
        (c.faults.trace(), codes)
    };
    let (t1, c1) = run();
    let (t2, c2) = run();
    assert_eq!(t1, t2);
    assert_eq!(c1, c2);
}

#[test]
fn live_receiver_node_death_aborts_via_lease_and_source_survives() {
    // Chaos case 2: the destination node dies during the pipelined
    // restore — the receiver goes silent (no reply, ever). The abort must
    // come through the HealthMonitor lease (or the broken stream), typed,
    // with every source pod untouched — and fast, not timeout-bound.
    let reference = reference_codes(AppKind::Cpi, "lmn", 2);
    let run = || {
        let plan = FaultPlan::script()
            .inject("agent.node_dead", Some("lmn-0"), 0, FaultAction::Crash)
            .build();
        let c = Cluster::builder()
            .nodes(3)
            .registry(full_registry())
            .faults(plan)
            .lease_ms(100)
            .build();
        let app = launch_app(&c, "lmn", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let homes = home_nodes(&c, &app.pods);
        let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
        let start = std::time::Instant::now();
        let err = migrate_live_with(&c, &moves, &LiveOpts::default()).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
        assert!(!c.health.is_alive(2), "the dead destination is marked dead");
        assert!(elapsed < Duration::from_secs(10), "abort must beat the 30s timeout: {elapsed:?}");
        assert_eq!(home_nodes(&c, &app.pods), homes, "no pod may land on the dead node");
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference);
        dump_trace("live_receiver_node_death", &c);
        app.destroy(&c);
        (c.faults.trace(), codes)
    };
    let (t1, c1) = run();
    let (t2, c2) = run();
    assert_eq!(t1, t2);
    assert_eq!(c1, c2);
}

#[test]
fn live_torn_stream_is_typed_decode_error_and_source_survives() {
    // Chaos case 3: a streamed frame is corrupted / truncated on the
    // wire. The record check must surface a typed decode failure — never a
    // misparsed restore — and the source rolls forward untouched.
    let reference = reference_codes(AppKind::Cpi, "lms", 2);
    for action in [FaultAction::Corrupt { byte: 7 }, FaultAction::Truncate { keep_permille: 500 }]
    {
        let run = || {
            let plan =
                FaultPlan::script().inject("net.stream_torn", Some("lms-0"), 0, action).build();
            let c = Cluster::builder().nodes(3).registry(full_registry()).faults(plan).build();
            let app = launch_app(&c, "lms", &small(AppKind::Cpi, 2));
            std::thread::sleep(Duration::from_millis(5));
            let homes = home_nodes(&c, &app.pods);
            let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
            let err = migrate_live_with(&c, &moves, &LiveOpts::default()).unwrap_err();
            match &err {
                ZapcError::Aborted(why) => {
                    assert!(why.contains("torn stream"), "{action:?}: why = {why}")
                }
                other => panic!("{action:?}: expected typed abort, got {other:?}"),
            }
            assert_eq!(home_nodes(&c, &app.pods), homes);
            let codes = app.wait(&c, WAIT).unwrap();
            assert_eq!(codes, reference, "{action:?}");
            dump_trace("live_torn_stream", &c);
            app.destroy(&c);
            (c.faults.trace(), codes)
        };
        let (t1, c1) = run();
        let (t2, c2) = run();
        assert_eq!(t1, t2, "{action:?}");
        assert_eq!(c1, c2, "{action:?}");
    }
}

#[test]
fn live_round_cap_bounds_nonconverging_writer() {
    // Chaos case 4: a writer that re-dirties its entire hot set every
    // step can never converge; the round cap must force cutover after
    // exactly `max_rounds`, with the quiesced cut (and so the downtime)
    // bounded by the hot set, not the rounds.
    let cfg = WriterConfig {
        ballast_bytes: 512 * 1024,
        hot_regions: 8,
        region_bytes: 16 * 1024,
        dirty_rate: 1.0,
        steps: 5_000,
    };
    // Fault-free reference: the writer's exit code is deterministic.
    let reference: Vec<i32> = {
        let c = Cluster::builder().nodes(2).registry(full_registry()).build();
        let pods = launch_writers(&c, "wref", 2, &cfg);
        let codes: Vec<i32> = pods
            .iter()
            .map(|p| c.pod(p).unwrap().wait_all(WAIT).unwrap()[0])
            .collect();
        for p in &pods {
            c.destroy_pod(p);
        }
        codes
    };

    let c = Cluster::builder().nodes(3).registry(full_registry()).build();
    let pods = launch_writers(&c, "lmw", 2, &cfg);
    std::thread::sleep(Duration::from_millis(30));
    let moves: Vec<(String, usize)> = pods.iter().map(|p| (p.clone(), 2)).collect();
    let opts = LiveOpts {
        max_rounds: 4,
        residual_threshold: 0,
        round_delay: Duration::from_millis(3),
        ..Default::default()
    };
    let report = migrate_live_with(&c, &moves, &opts).unwrap();
    for pr in &report.pods {
        // With a threshold of 0 only a delta round that shipped 0 B reads
        // as converged: the host did not schedule the writer inside one
        // `round_delay`. That is host timing, not a cap failure, so the
        // cap is judged on pods whose every delta round shipped something.
        if !(pr.converged && pr.residual_bytes == 0) {
            assert_eq!(pr.rounds, 4, "{}: cap must fire after exactly max_rounds", pr.pod);
            assert!(!pr.converged, "{}: a rate-1.0 writer cannot converge", pr.pod);
            assert!(
                pr.residual_bytes >= (cfg.hot_regions * cfg.region_bytes) as u64,
                "{}: every delta round re-ships the whole hot set (got {})",
                pr.pod,
                pr.residual_bytes
            );
        }
        // Downtime pays for the residual cut only — bounded by the hot
        // set, regardless of how many rounds pre-copy burned.
        assert!(pr.cut_bytes > 0);
    }
    for p in &pods {
        assert_eq!(c.pod_node(p), Some(2), "{p} must land on the target despite no convergence");
    }
    let codes: Vec<i32> = pods
        .iter()
        .map(|p| c.pod(p).unwrap().wait_all(WAIT).unwrap()[0])
        .collect();
    assert_eq!(codes, reference, "writer state must survive the capped cutover");
    for p in &pods {
        c.destroy_pod(p);
    }
}

#[test]
fn same_seed_live_migration_yields_identical_trace_and_outcome() {
    // Live-migration determinism: a seeded plan scoped to the cutover
    // site (consulted exactly once per pod per attempt, so its `nth`
    // sequence does not depend on timing) must reproduce the identical
    // injection trace and outcome on every run.
    let seed = (1..5000u64)
        .find(|s| {
            let probe = FaultPlan::from_seed(*s);
            probe.hit("agent.cutover", "ldet-0").is_some()
                || probe.hit("agent.cutover", "ldet-1").is_some()
        })
        .expect("some seed below 5000 fires agent.cutover");
    let run = || {
        let plan = FaultPlan::from_seed(seed).scoped(&["agent.cutover"]);
        let c = Cluster::builder().nodes(3).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "ldet", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
        let outcome = migrate_live_with(&c, &moves, &LiveOpts::default())
            .map(|r| r.pods.len())
            .map_err(|e| matches!(e, ZapcError::Aborted(_)));
        let codes = app.wait(&c, WAIT).unwrap();
        dump_trace("live_determinism", &c);
        app.destroy(&c);
        (c.faults.trace(), outcome, codes)
    };
    let (t1, o1, c1) = run();
    let (t2, o2, c2) = run();
    assert!(!t1.is_empty(), "chosen seed must fire");
    assert_eq!(t1, t2, "same seed => same injection trace");
    assert_eq!(o1, o2);
    assert_eq!(c1, c2);
}

#[test]
fn seeded_live_migration_soak_never_corrupts_state() {
    // Seed-driven sweep over every migration fault site, for both
    // stop-and-copy and pre-copy. CI widens the matrix with
    // `ZAPC_MIG_SOAK_BASE`; locally seeds 0..10. The
    // contract for every seed: the migration either lands the pods on the
    // destination or aborts typed with every source pod running in place
    // — and in both cases the application finishes with the fault-free
    // result.
    let base: u64 = std::env::var("ZAPC_MIG_SOAK_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let reference = reference_codes(AppKind::Cpi, "lsoak", 2);
    for seed in base..base + 10 {
        let plan = FaultPlan::from_seed(seed).scoped(&[
            "agent.precopy_round",
            "agent.cutover",
            "net.stream_torn",
            "agent.node_dead",
        ]);
        let c = Cluster::builder()
            .nodes(3)
            .registry(full_registry())
            .faults(plan)
            .lease_ms(100)
            .build();
        let app = launch_app(&c, "lsoak", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(3));
        let homes = home_nodes(&c, &app.pods);
        let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
        // Even seeds stop-and-copy, odd seeds pre-copy.
        let max_rounds = if seed % 2 == 0 { 0 } else { LiveOpts::default().max_rounds };
        let opts = LiveOpts { timeout: Duration::from_secs(5), max_rounds, ..Default::default() };
        match migrate_live_with(&c, &moves, &opts) {
            Ok(report) => {
                assert_eq!(report.pods.len(), 2, "seed {seed}");
                for p in &app.pods {
                    assert_eq!(c.pod_node(p), Some(2), "seed {seed}: {p} must be on the target");
                }
            }
            Err(ZapcError::Aborted(_)) => {
                for (p, home) in app.pods.iter().zip(&homes) {
                    assert!(c.pod(p).is_some(), "seed {seed}: {p} must survive the abort");
                    assert_eq!(c.pod_node(p), *home, "seed {seed}: {p} must stay home");
                }
            }
            Err(other) => panic!("seed {seed}: untyped failure {other:?}"),
        }
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference, "seed {seed}: application state must be intact");
        dump_trace(&format!("live_soak_{seed}"), &c);
        app.destroy(&c);
    }
}

// ---- partition tolerance & fencing ------------------------------------

use zapc::{rejoin_node, NodeStatus, StoreError, MANAGER};

#[test]
fn symmetric_split_aborts_typed_then_rejoin_and_retry_succeed() {
    // A symmetric split cuts node 1 off mid-protocol: its replies vanish,
    // the checkpoint aborts typed, and the node's lapsed lease reads
    // *leaseless* — partitioned-but-alive, not dead. After the heal an
    // explicit rejoin re-admits it and the retried checkpoint lands.
    let reference = reference_codes(AppKind::Cpi, "psplit", 2);
    let c = Cluster::builder()
        .nodes(2)
        .registry(full_registry())
        .lease_ms(150)
        .build();
    let app = launch_app(&c, "psplit", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    // A clean durable checkpoint first: staging heartbeats put both nodes
    // under lease tracking, so the partition below is *observable*.
    checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default()).unwrap();

    c.partition.isolate(1);
    let opts =
        CheckpointOptions { timeout: Duration::from_millis(400), ..Default::default() };
    let err = checkpoint_with(&c, &snapshots(&app.pods), &opts).unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
    assert!(c.partition.cuts() > 0, "the cut link must have eaten messages");

    // Partitioned-but-alive, not dead: the lease lapsed without a kill.
    std::thread::sleep(Duration::from_millis(2 * c.health.lease_ms()));
    assert_eq!(c.health.status(1), NodeStatus::Leaseless);
    assert!(!c.health.is_alive(1), "leaseless must not count as alive for progress");

    // Heal, re-admit both sides, retry.
    c.partition.heal_all();
    for n in 0..2u32 {
        rejoin_node(&c, n).unwrap();
        assert_eq!(c.health.status(n), NodeStatus::Alive);
    }
    checkpoint_with(&c, &snapshots(&app.pods), &CheckpointOptions::default()).unwrap();
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    dump_trace("partition_symmetric_split", &c);
    app.destroy(&c);
}

#[test]
fn one_way_partition_eats_replies_and_aborts_meta_collection() {
    // Asymmetric link: node 1 hears the Manager but its replies are
    // silently eaten. The Agent quiesces and reports — into the void —
    // so the Manager's meta collection times out, the abort reaches the
    // Agent over the still-working direction, and the pod resumes.
    let reference = reference_codes(AppKind::Cpi, "poneway", 2);
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let app = launch_app(&c, "poneway", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    checkpoint_with(&c, &snapshots(&app.pods), &CheckpointOptions::default()).unwrap();

    c.partition.one_way(1, MANAGER);
    assert!(c.partition.is_cut(1, MANAGER));
    assert!(!c.partition.is_cut(MANAGER, 1), "the forward direction must stay up");
    let opts =
        CheckpointOptions { timeout: Duration::from_millis(300), ..Default::default() };
    let err = checkpoint_with(&c, &snapshots(&app.pods), &opts).unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)), "got {err:?}");
    assert!(c.partition.cuts() > 0, "the eaten replies must be accounted");

    c.partition.heal_all();
    rejoin_node(&c, 1).unwrap();
    checkpoint_with(&c, &snapshots(&app.pods), &CheckpointOptions::default()).unwrap();
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    dump_trace("partition_one_way", &c);
    app.destroy(&c);
}

#[test]
fn flapping_link_is_ridden_out_by_retries() {
    // A link that flaps (15 ms down in every 30 ms, for 450 ms) fails
    // whatever messages land in a down-window. Retried checkpoints must
    // ride it out — every failure typed, eventual success guaranteed once
    // the schedule expires — and never wedge.
    let reference = reference_codes(AppKind::Cpi, "pflap", 2);
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let app = launch_app(&c, "pflap", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    checkpoint_with(&c, &snapshots(&app.pods), &CheckpointOptions::default()).unwrap();

    c.partition.flap_link(1, MANAGER, 30, 15, 450);
    c.partition.flap_link(MANAGER, 1, 30, 15, 450);
    let opts = CheckpointOptions {
        timeout: Duration::from_millis(300),
        retries: 2,
        ..Default::default()
    };
    let mut ok = false;
    for _ in 0..20 {
        match checkpoint_with(&c, &snapshots(&app.pods), &opts) {
            Ok(_) => {
                ok = true;
                break;
            }
            Err(ZapcError::Aborted(_)) | Err(ZapcError::Exhausted { .. }) => {}
            Err(other) => panic!("untyped failure under a flapping link: {other:?}"),
        }
    }
    assert!(ok, "retries must eventually beat a flapping link");
    assert!(!c.partition.is_active(), "the flap schedule must have expired");
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    dump_trace("partition_flapping_link", &c);
    app.destroy(&c);
}

#[test]
fn split_brain_exactly_one_manifest_commit_survives() {
    // The split-brain acceptance case. Manager A stalls with everything
    // staged but nothing committed (scripted Delay at the pre-manifest
    // site — the paper-protocol equivalent of a Manager wedged behind a
    // partition). Manager B declares A dead, recovers — bumping the epoch
    // and the store's fencing token — and commits its own checkpoint.
    // When A wakes and attempts its rename, it must lose deterministically
    // with the typed fencing error, leaving exactly one committed
    // checkpoint and zero litter, even though B reused A's checkpoint id.
    let reference = reference_codes(AppKind::Cpi, "psb", 2);
    let plan = FaultPlan::script()
        .inject(
            "manager.pre_manifest",
            Some("manager"),
            0,
            FaultAction::Delay { micros: 3_000_000 },
        )
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "psb", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));

    let (a_result, b_id, rec_epoch) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
        });
        // Wait for A to reach the stall: the Delay fires exactly when A
        // enters the pre-manifest window, i.e. fully staged.
        let t0 = std::time::Instant::now();
        while c.faults.fired() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(20), "A never reached pre-manifest");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(c.istore.image_refs().len(), 2, "A must be fully staged");

        // Manager B takes over mid-stall.
        let rec = recover(&c);
        assert!(
            rec.rolled_back.contains(&1),
            "A's staged-but-uncommitted checkpoint must roll back, got {rec:?}"
        );
        let b = checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
            .unwrap();
        (a.join().unwrap(), b.ckpt_id, rec.epoch)
    });

    // A's rename lost at the store fence — typed, with the losing and
    // winning epochs attached.
    match a_result {
        Err(ZapcError::Fenced { have, fence }) => {
            assert!(have < fence, "loser epoch {have} must trail the fence {fence}");
            assert_eq!(fence, rec_epoch);
        }
        other => panic!("stalled Manager must lose with ZapcError::Fenced, got {other:?}"),
    }

    // Exactly one commit survives — B's — and it is intact even though B
    // reused the id A had dirtied (the fenced loser must not roll back).
    assert_eq!(c.istore.manifest_ids(), vec![b_id]);
    let m = c.istore.manifest(b_id).unwrap();
    assert_eq!(m.entries.len(), 2);
    for e in &m.entries {
        c.istore.fetch_verified(&e.image_ref, e.digest).unwrap();
    }
    assert!(c.istore.tmp_files().is_empty());
    let again = recover(&c);
    assert_eq!(again.committed, vec![b_id]);
    assert_eq!(again.orphans_removed, 0, "the split brain must leave zero orphans");

    // The winner's checkpoint is consumable end to end. (Both leases
    // lapsed during A's long stall — re-admit the nodes first, as the
    // partition runbook prescribes.)
    for n in 0..2u32 {
        rejoin_node(&c, n).unwrap();
    }
    for p in &app.pods {
        c.destroy_pod(p);
    }
    restart_from_manifest(&c, Some(b_id), WAIT).unwrap();
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    dump_trace("partition_split_brain", &c);
    app.destroy(&c);
}

#[test]
fn double_takeover_still_fences_the_first_manager() {
    // Two successive takeovers while A is stalled: the fence token is
    // monotonic, so A loses to the *latest* epoch and the second
    // recovery's winner is the only commit.
    let plan = FaultPlan::script()
        .inject(
            "manager.pre_manifest",
            Some("manager"),
            0,
            FaultAction::Delay { micros: 3_000_000 },
        )
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "pdbl", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));

    let (a_result, b_id, e1, e2) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
        });
        let t0 = std::time::Instant::now();
        while c.faults.fired() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(20), "A never reached pre-manifest");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(50));
        let r1 = recover(&c);
        let r2 = recover(&c);
        let b = checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
            .unwrap();
        (a.join().unwrap(), b.ckpt_id, r1.epoch, r2.epoch)
    });

    assert_eq!(e2, e1 + 1, "each takeover bumps the epoch once");
    match a_result {
        Err(ZapcError::Fenced { have, fence }) => {
            assert_eq!(fence, e2, "the fence must be the latest takeover's epoch");
            assert!(have < e1, "A predates both takeovers");
        }
        other => panic!("expected ZapcError::Fenced, got {other:?}"),
    }
    assert_eq!(c.istore.manifest_ids(), vec![b_id]);
    let again = recover(&c);
    assert_eq!(again.orphans_removed, 0);
    let _ = app.wait(&c, WAIT).unwrap();
    dump_trace("partition_double_takeover", &c);
    app.destroy(&c);
}

#[test]
fn stale_late_done_after_takeover_is_fenced_not_applied() {
    // Satellite 2's hard case: a takeover lands while the old Manager's
    // `continue` is in flight (scripted Delay on the ctl channel). The
    // Agents refuse the stale-stamped continue, their late `done` replies
    // carry the old epoch, and the Manager-side hard epoch check must
    // tally them as fenced — never count them as progress or let them
    // mutate durable state.
    let reference = reference_codes(AppKind::Cpi, "plate", 2);
    let plan = FaultPlan::script()
        .inject("ctl.continue", Some("plate-0"), 0, FaultAction::Delay { micros: 600_000 })
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "plate", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));

    let a_result = std::thread::scope(|s| {
        let a = s.spawn(|| {
            checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
        });
        // The Delay fires when the Manager starts sending `continue`:
        // staging is done, the commit is not. Take over inside the window.
        let t0 = std::time::Instant::now();
        while c.faults.fired() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(20), "continue never sent");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(100));
        let _ = recover(&c);
        a.join().unwrap()
    });

    match &a_result {
        Err(ZapcError::Aborted(why)) => {
            assert!(why.contains("fenced"), "abort must name the fencing, got: {why}")
        }
        Err(ZapcError::Fenced { .. }) => {}
        other => panic!("expected a fencing failure, got {other:?}"),
    }
    assert!(
        c.fenced_replies() > 0,
        "the stale late done must be tallied as fenced, not applied"
    );
    // Nothing committed, and recovery finds a clean store afterwards.
    assert!(c.istore.manifest_ids().is_empty());
    let again = recover(&c);
    assert_eq!(again.orphans_removed, 0);
    assert!(c.istore.tmp_files().is_empty());
    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference, "the refused checkpoint must not perturb the app");
    dump_trace("partition_stale_done", &c);
    app.destroy(&c);
}

#[test]
fn partitioned_nodes_pods_restart_elsewhere_then_node_rejoins() {
    // Split during restart: after a commit, node 1 is partitioned away
    // and its lease lapses. A manifest restart must reschedule its pods
    // onto reachable nodes; after the heal the node rejoins (stale, since
    // the takeover bumped the epoch past what it witnessed).
    let reference = reference_codes(AppKind::Cpi, "presched", 2);
    let c = Cluster::builder()
        .nodes(3)
        .registry(full_registry())
        .lease_ms(150)
        .build();
    let app = launch_app(&c, "presched", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    let commit = checkpoint_commit(&c, &commit_pods(&app.pods), &CommitOptions::default())
        .unwrap();

    c.partition.isolate(1);
    std::thread::sleep(Duration::from_millis(2 * c.health.lease_ms()));
    assert_eq!(c.health.status(1), NodeStatus::Leaseless);

    let rec = recover(&c);
    assert_eq!(rec.latest, Some(commit.ckpt_id));
    restart_from_manifest(&c, None, WAIT).unwrap();
    for p in &app.pods {
        let node = c.pod_node(p).unwrap();
        assert_ne!(node, 1, "{p} must not be placed on the unreachable node");
    }

    c.partition.heal_all();
    let rejoined = rejoin_node(&c, 1).unwrap();
    assert!(rejoined.stale, "the node slept through the takeover");
    assert_eq!(rejoined.epoch, c.epoch());
    assert_eq!(c.health.status(1), NodeStatus::Alive);

    let codes = app.wait(&c, WAIT).unwrap();
    assert_eq!(codes, reference);
    dump_trace("partition_restart_reschedule", &c);
    app.destroy(&c);
}

#[test]
fn seeded_partition_soak_loses_no_committed_checkpoints() {
    // Seed-driven partition sweep over the durable path. CI widens the
    // matrix with `ZAPC_PARTITION_SOAK_BASE` (5 bases × 10 seeds = the
    // 50-seed soak); locally seeds 0..10. Under seeded reply/continue
    // loss plus time-driven cuts, the contract is: commits either land or
    // fail typed; committed checkpoints are never lost or duplicated;
    // recovery + GC leave zero orphans; and the application always
    // finishes with the fault-free result.
    let base: u64 = std::env::var("ZAPC_PARTITION_SOAK_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let reference = reference_codes(AppKind::Cpi, "psoak", 2);
    for seed in base..base + 10 {
        let plan = FaultPlan::from_seed_with(seed, 6, 6).scoped(&["ctl.partition"]);
        let c = Cluster::builder()
            .nodes(2)
            .registry(full_registry())
            .faults(plan)
            .lease_ms(150)
            .build();
        let app = launch_app(&c, "psoak", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(3));
        let opts = CommitOptions {
            timeout: Duration::from_millis(500),
            retries: 2,
            keep: 8,
        };
        let mut committed: Vec<u64> = Vec::new();
        for round in 0..2 {
            match checkpoint_commit(&c, &commit_pods(&app.pods), &opts) {
                Ok(r) => committed.push(r.ckpt_id),
                Err(ZapcError::Aborted(_)) | Err(ZapcError::Exhausted { .. }) => {}
                Err(other) => panic!("seed {seed}: untyped failure {other:?}"),
            }
            // Overlay a real time-driven cut on some seeds so the soak
            // also exercises link-level (not just message-level) loss.
            if seed % 3 == round {
                c.partition.isolate_for(1, 40);
            }
        }

        c.partition.heal_all();
        for n in 0..2u32 {
            if c.health.status(n) == NodeStatus::Leaseless {
                rejoin_node(&c, n).unwrap();
            }
        }
        let rec = recover(&c);
        let again = recover(&c);

        for id in &committed {
            assert!(
                rec.committed.contains(id),
                "seed {seed}: committed checkpoint {id} was lost"
            );
        }
        let ids = c.istore.manifest_ids();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup, "seed {seed}: duplicated checkpoint ids");
        assert_eq!(again.orphans_removed, 0, "seed {seed}: orphans leaked past GC");
        assert!(again.rolled_back.is_empty(), "seed {seed}: recovery not idempotent");
        assert!(c.istore.tmp_files().is_empty(), "seed {seed}");

        if let Some(latest) = rec.latest {
            for p in &app.pods {
                c.destroy_pod(p);
            }
            restart_from_manifest(&c, Some(latest), WAIT)
                .unwrap_or_else(|e| panic!("seed {seed}: restart failed: {e:?}"));
        }
        let codes = app.wait(&c, WAIT).unwrap();
        assert_eq!(codes, reference, "seed {seed}");
        dump_trace(&format!("partition_soak_{seed}"), &c);
        app.destroy(&c);
    }
}

#[test]
fn same_seed_partition_run_yields_identical_trace_and_outcome() {
    // Partition determinism: seeded `ctl.partition` decisions are pure in
    // (seed, site, key, nth) and each pod's consult sequence is fixed by
    // the protocol, so the same seed must reproduce the identical
    // injection trace and outcome.
    let seed = (1..5000u64)
        .find(|s| {
            let probe = FaultPlan::from_seed(*s);
            probe.hit("ctl.partition", "pdet-0").is_some()
                || probe.hit("ctl.partition", "pdet-1").is_some()
        })
        .expect("some seed below 5000 fires ctl.partition");
    let run = || {
        let plan = FaultPlan::from_seed(seed).scoped(&["ctl.partition"]);
        let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "pdet", &small(AppKind::Cpi, 2));
        std::thread::sleep(Duration::from_millis(5));
        let opts = CheckpointOptions {
            timeout: Duration::from_millis(500),
            retries: 2,
            ..Default::default()
        };
        let outcome = checkpoint_with(&c, &snapshots(&app.pods), &opts)
            .map(|r| r.pods.len())
            .map_err(|e| matches!(e, ZapcError::Aborted(_) | ZapcError::Exhausted { .. }));
        let codes = app.wait(&c, WAIT).unwrap();
        dump_trace("partition_determinism", &c);
        app.destroy(&c);
        (c.faults.trace(), outcome, codes)
    };
    let (t1, o1, c1) = run();
    let (t2, o2, c2) = run();
    assert!(!t1.is_empty(), "chosen seed must fire");
    assert_eq!(t1, t2, "same seed => same injection trace");
    assert_eq!(o1, o2);
    assert_eq!(c1, c2);
}

#[test]
fn fenced_store_error_is_typed_at_the_store_layer_too() {
    // The fence is enforced at the store, independent of the Manager
    // protocol: a manifest stamped below the token is refused with the
    // typed store error and commits nothing.
    let c = Cluster::builder().nodes(1).build();
    let rec = recover(&c);
    let stale = zapc_proto::Manifest {
        ckpt_id: c.istore.next_ckpt_id(),
        epoch: rec.epoch - 1,
        wall_ms: 0,
        entries: vec![],
    };
    match c.istore.commit_manifest(&stale) {
        Err(StoreError::Fenced { epoch, fence }) => {
            assert_eq!(epoch, rec.epoch - 1);
            assert_eq!(fence, rec.epoch);
        }
        other => panic!("expected StoreError::Fenced, got {other:?}"),
    }
    assert!(c.istore.manifest_ids().is_empty());
}

// ---- checkpoint under fire: congestion/flow-control regimes ------------

use zapc_apps::kv::{launch_kv, KvFleet, KvFleetParams};

/// Collects the fleet's exit codes (server first) and asserts the
/// zero-loss contract: server = ops-served mod 251, every client 0.
fn assert_fleet_zero_loss(c: &Cluster, fleet: &KvFleet, p: &KvFleetParams) {
    let mut codes = Vec::new();
    for name in fleet.all_pods() {
        let pod = c.pod(&name).unwrap_or_else(|| panic!("pod {name} missing"));
        codes.extend(pod.wait_all(WAIT).unwrap_or_else(|e| panic!("{name}: {e:?}")));
    }
    let served = (p.clients as u64) * (p.requests as u64);
    assert_eq!(codes[0], (served % 251) as i32, "server must serve every op exactly once");
    for (i, &code) in codes[1..].iter().enumerate() {
        assert_eq!(code, 0, "client #{i}: loss/duplication/corruption (code {code})");
    }
}

fn kv_ckpt_restart_cycle(c: &Cluster, fleet: &KvFleet) {
    let pods = fleet.all_pods();
    let targets: Vec<CheckpointTarget> = pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("img/{p}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(c, &targets).unwrap();
    let rts: Vec<RestartTarget> = pods
        .iter()
        .enumerate()
        .map(|(i, p)| RestartTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("img/{p}")),
            node: i % 2,
        })
        .collect();
    restart(c, &rts).unwrap();
}

#[test]
fn checkpoint_cut_in_slow_start_restores_exactly_once() {
    // Cut the whole application moments after launch, while every
    // connection's congestion window is still in slow start (cwnd a few
    // segments, ssthresh untouched). The restored fleet resumes from the
    // captured cwnd/ssthresh and must deliver every byte exactly once.
    let p = KvFleetParams {
        clients: 8,
        slow_every: 4,
        halfopen: 1,
        clients_per_pod: 5,
        requests: 40,
        val_len: 256,
        window: 8,
        ..Default::default()
    };
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let fleet = launch_kv(&c, "css", &p);
    std::thread::sleep(Duration::from_millis(2));
    kv_ckpt_restart_cycle(&c, &fleet);
    assert_fleet_zero_loss(&c, &fleet, &p);
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}

#[test]
fn checkpoint_cut_under_loss_driven_fast_recovery_restores_exactly_once() {
    // Drop two mid-stream segments of every flow: the holes generate
    // duplicate acks, fast retransmit fires, and flows sit in NewReno
    // recovery (inflated cwnd, `recover` marker set) when the cut lands.
    // The extract pins `recover` as an offset from `acked`, so the
    // restored connection finishes recovery on fresh sequence numbers —
    // and every byte still arrives exactly once.
    let (obs, ring) = zapc_obs::Observer::ring(1 << 16);
    let plan = FaultPlan::script()
        .inject_range("net.segment", None, 6, 8, FaultAction::Drop)
        .build();
    let p = KvFleetParams {
        clients: 12,
        slow_every: 0,
        halfopen: 0,
        clients_per_pod: 6,
        requests: 60,
        val_len: 700,
        window: 16,
        ..Default::default()
    };
    let c = Cluster::builder()
        .nodes(2)
        .registry(full_registry())
        .faults(plan)
        .observer(obs)
        .build();
    let fleet = launch_kv(&c, "cfr", &p);
    std::thread::sleep(Duration::from_millis(8));
    kv_ckpt_restart_cycle(&c, &fleet);
    assert_fleet_zero_loss(&c, &fleet, &p);
    assert!(c.faults.fired() > 0, "the wire must actually have dropped segments");
    let retransmits: u64 = ring
        .counter_totals()
        .iter()
        .filter(|((_, name), _)| *name == "net.retransmit" || *name == "net.fast_retransmit")
        .map(|(_, v)| *v)
        .sum();
    assert!(retransmits > 0, "dropped segments must have forced retransmissions");
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}

#[test]
fn checkpoint_cut_during_zero_window_stall_restores_exactly_once() {
    // Every client is a dribbling reader whose receive buffer is smaller
    // than one GET response: the server's send side runs into honest zero
    // windows and persist-timer probes. Cut the application while streams
    // are stalled against a closed window — the restored server must come
    // back with the captured zero window, un-stick via probing once the
    // restored receiver drains, and lose nothing.
    //
    // The buffer must be smaller than one response. A slow client sends
    // and reads at the same 7 B per pump, and each PUT request carries as
    // many bytes as the GET response before it, so the client drains one
    // response while it dribbles out the next PUT. Its buffer never holds
    // much more than one response (609 B), and a 700 B buffer never
    // closes. A 256 B buffer is overfilled by every GET response.
    let (obs, ring) = zapc_obs::Observer::ring(1 << 16);
    let p = KvFleetParams {
        clients: 8,
        slow_every: 1, // every client slow
        halfopen: 0,
        clients_per_pod: 4,
        requests: 24,
        val_len: 600,
        window: 8,
        slow_rcv_buf: 256,
        ..Default::default()
    };
    let c = Cluster::builder().nodes(2).registry(full_registry()).observer(obs).build();
    let fleet = launch_kv(&c, "czw", &p);
    // Cut only once at least one flow has provably stalled against a
    // closed window — a fixed pre-checkpoint sleep races host
    // scheduling (the stall is structurally forced by the buffer math,
    // but *when* it first fires depends on thread interleaving). A fleet
    // that exits first can never stall, so stop waiting on it.
    let zero_enters = |ring: &zapc_obs::RingCollector| -> u64 {
        ring.counter_totals()
            .iter()
            .filter(|((_, name), _)| *name == "net.zero_window_enter")
            .map(|(_, v)| *v)
            .sum()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let fleet_exited =
        || fleet.all_pods().iter().all(|n| c.pod(n).map(|p| p.all_exited()).unwrap_or(true));
    while zero_enters(&ring) == 0 {
        assert!(
            std::time::Instant::now() < deadline && !fleet_exited(),
            "tiny receive buffers must have driven flows into zero-window stalls"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    kv_ckpt_restart_cycle(&c, &fleet);
    assert_fleet_zero_loss(&c, &fleet, &p);
    assert!(
        zero_enters(&ring) > 0,
        "tiny receive buffers must have driven flows into zero-window stalls"
    );
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}
