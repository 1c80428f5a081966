//! The observability contract end to end: phase breakdowns on reports
//! tile the Manager's wall time, Agent-side spans and counters flow
//! through the cluster's observer, and the default (disabled) observer
//! changes nothing about the protocol's behavior.

use std::sync::Arc;
use std::time::Duration;
use zapc::agent::Finalize;
use zapc::manager::{CheckpointTarget, RestartTarget};
use zapc::{checkpoint, migrate, migrate_live, restart, Cluster, Uri};
use zapc_obs::{Observer, RingCollector};
use zapc_proto::{RecordReader, RecordWriter};
use zapc_sim::{ProcessCtx, Program, ProgramRegistry, StepOutcome};

/// A process with some initialized memory, spinning on CPU forever.
struct Spinner {
    phase: u8,
    base: u64,
}

impl Program for Spinner {
    fn type_name(&self) -> &'static str {
        "test.spinner"
    }
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        if self.phase == 0 {
            self.base = ctx.mem.map_f64("spin", 4096);
            let v = ctx.mem.f64_mut(self.base).unwrap();
            for (i, x) in v.iter_mut().enumerate() {
                *x = i as f64;
            }
            self.phase = 1;
        }
        ctx.consume_cpu(1_000);
        StepOutcome::Ready
    }
    fn save(&self, w: &mut RecordWriter) {
        w.put_u8(self.phase);
        w.put_u64(self.base);
    }
}

fn load_spinner(r: &mut RecordReader<'_>) -> zapc_proto::DecodeResult<Box<dyn Program>> {
    Ok(Box::new(Spinner { phase: r.get_u8()?, base: r.get_u64()? }))
}

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("test.spinner", load_spinner);
    reg
}

fn observed_cluster(nodes: usize) -> (Cluster, Arc<RingCollector>) {
    let (obs, ring) = Observer::ring(4096);
    let cluster =
        Cluster::builder().nodes(nodes).registry(registry()).observer(obs).build();
    (cluster, ring)
}

fn spawn_pods(cluster: &Cluster, n: usize) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..n {
        let pod = cluster.create_pod(&format!("w{i}"), i % cluster.node_count());
        pod.spawn("spin", Box::new(Spinner { phase: 0, base: 0 }));
        names.push(format!("w{i}"));
    }
    std::thread::sleep(Duration::from_millis(15));
    names
}

#[test]
fn checkpoint_phases_tile_wall_and_spans_flow() {
    let (cluster, ring) = observed_cluster(2);
    let names = spawn_pods(&cluster, 2);
    let targets: Vec<CheckpointTarget> =
        names.iter().map(|p| CheckpointTarget::snapshot(p)).collect();

    let report = checkpoint(&cluster, &targets).expect("checkpoint");

    // The Manager partition tiles the wall time (within 10%, per the
    // acceptance criterion; by construction it is exact up to rounding).
    let sum = report.phases.sum_ms();
    assert!(report.wall_ms > 0.0);
    assert!(
        (sum - report.wall_ms).abs() / report.wall_ms < 0.10,
        "phase sum {sum} vs wall {}",
        report.wall_ms
    );
    let phase_names: Vec<&str> = report.phases.phases.iter().map(|p| p.name).collect();
    assert_eq!(phase_names, ["mgr.meta", "mgr.sync", "mgr.commit"]);
    assert_eq!(report.late_replies, 0, "healthy run discarded replies");

    // Per-pod phase fields are populated and bounded by the pod total.
    for p in &report.pods {
        assert!(
            p.quiesce_ms + p.sync_ms + p.commit_ms + p.resume_ms <= p.total_ms + 1.0,
            "per-pod phases exceed total for {}",
            p.pod
        );
    }

    // Agent-side spans arrived through the ring, one per pod.
    for phase in ["ckpt.quiesce", "ckpt.net_save", "ckpt.sync", "ckpt.dump", "ckpt.resume"] {
        let n: u64 = ring
            .phase_totals()
            .iter()
            .filter(|((_, p), _)| *p == phase)
            .map(|(_, (count, _))| *count)
            .sum();
        assert_eq!(n, 2, "expected one {phase} span per pod");
    }
    // Dump bytes were counted.
    assert!(ring.counter_sum("ckpt.full_bytes") > 0);
    for n in names {
        cluster.destroy_pod(&n);
    }
}

#[test]
fn restart_phases_tile_wall_and_spans_flow() {
    let (cluster, ring) = observed_cluster(2);
    let names = spawn_pods(&cluster, 2);
    let targets: Vec<CheckpointTarget> = names
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("obs/{p}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(&cluster, &targets).expect("checkpoint");
    ring.reset();

    let rts: Vec<RestartTarget> = names
        .iter()
        .enumerate()
        .map(|(i, p)| RestartTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("obs/{p}")),
            node: (i + 1) % cluster.node_count(),
        })
        .collect();
    let report = restart(&cluster, &rts).expect("restart");

    let sum = report.phases.sum_ms();
    assert!(
        (sum - report.wall_ms).abs() / report.wall_ms < 0.10,
        "phase sum {sum} vs wall {}",
        report.wall_ms
    );
    let phase_names: Vec<&str> = report.phases.phases.iter().map(|p| p.name).collect();
    assert_eq!(phase_names, ["mgr.prepare", "mgr.schedule", "mgr.restore"]);

    for phase in ["rst.create", "rst.reconnect", "rst.restore", "rst.resume"] {
        let n: u64 = ring
            .phase_totals()
            .iter()
            .filter(|((_, p), _)| *p == phase)
            .map(|(_, (count, _))| *count)
            .sum();
        assert_eq!(n, 2, "expected one {phase} span per pod");
    }
    assert_eq!(ring.counter_sum("ckpt.restore_procs"), 2);
    for n in names {
        cluster.destroy_pod(&n);
    }
}

#[test]
fn migration_phases_tile_wall_and_receivers_trace_as_migration() {
    let (cluster, ring) = observed_cluster(2);
    let names = spawn_pods(&cluster, 2);
    let moves: Vec<(String, usize)> =
        names.iter().enumerate().map(|(i, p)| (p.clone(), (i + 1) % 2)).collect();

    // Stop-and-copy and pre-copy are one engine: both report its phases.
    let stop_and_copy = migrate(&cluster, &moves).expect("migrate").phases;
    let live = migrate_live(&cluster, &moves).expect("migrate_live");
    assert!((live.phases.sum_ms() - live.wall_ms).abs() / live.wall_ms < 0.10);
    for phases in [&stop_and_copy, &live.phases] {
        let phase_names: Vec<&str> = phases.phases.iter().map(|p| p.name).collect();
        assert_eq!(phase_names, ["mgr.precopy", "mgr.cutover", "mgr.commit"]);
    }
    // Every receiver ran the migration restart tail, none the stored-image one.
    let count = |phase: &str| -> u64 {
        ring.phase_totals().iter().filter(|((_, p), _)| *p == phase).map(|(_, t)| t.0).sum()
    };
    assert_eq!(count("mig.create"), 4, "two pods, two migrations");
    assert_eq!(count("rst.create"), 0);
    for n in names {
        cluster.destroy_pod(&n);
    }
}

#[test]
fn default_observer_is_disabled_and_reports_still_carry_phases() {
    let cluster = Cluster::builder().nodes(1).registry(registry()).build();
    assert!(!cluster.obs.enabled(), "observer must default to disabled");
    let names = spawn_pods(&cluster, 1);
    let targets: Vec<CheckpointTarget> =
        names.iter().map(|p| CheckpointTarget::snapshot(p)).collect();
    let report = checkpoint(&cluster, &targets).expect("checkpoint");
    // The phase partition comes from the Manager's own clocks, so it is
    // present (and still tiles) even with no observer attached.
    assert_eq!(report.phases.phases.len(), 3);
    let sum = report.phases.sum_ms();
    assert!((sum - report.wall_ms).abs() / report.wall_ms < 0.10);
    for n in names {
        cluster.destroy_pod(&n);
    }
}

#[test]
fn pod_reports_carry_agent_phases_without_an_observer() {
    // `PodReport`'s phase fields come from the Agents' own clocks, not from
    // the trace: a cluster built without `.observer(..)` still reports them.
    // `continue` is held back so that every Agent provably waits for it.
    use zapc::{FaultAction, FaultPlan};
    let plan = FaultPlan::script()
        .inject_range("ctl.continue", None, 0, 2, FaultAction::Delay { micros: 5_000 })
        .build();
    let cluster = Cluster::builder().nodes(2).registry(registry()).faults(plan).build();
    let names = spawn_pods(&cluster, 2);
    let targets: Vec<CheckpointTarget> = names
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("noobs/{p}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    let ckpt = checkpoint(&cluster, &targets).expect("checkpoint");
    let rts: Vec<RestartTarget> = names
        .iter()
        .enumerate()
        .map(|(i, p)| RestartTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("noobs/{p}")),
            node: (i + 1) % cluster.node_count(),
        })
        .collect();
    let rst = restart(&cluster, &rts).expect("restart");

    for p in &ckpt.pods {
        assert!(p.sync_ms > 0.0, "{}: no wait for `continue` reported", p.pod);
    }
    for p in ckpt.pods.iter().chain(&rst.pods) {
        let phases = p.quiesce_ms + p.sync_ms + p.commit_ms + p.resume_ms;
        assert!(phases > 0.0, "{}: agent phases all read zero", p.pod);
        assert!(phases <= p.total_ms + 1.0, "per-pod phases exceed total for {}", p.pod);
    }
    for n in names {
        cluster.destroy_pod(&n);
    }
}

#[test]
fn late_replies_are_counted_and_surfaced() {
    use zapc::manager::{checkpoint_with, CheckpointOptions};
    use zapc::{migrate_live_with, FaultAction, FaultPlan, MigrateOptions};

    // First attempt: agent w0 is delayed well past the Manager's timeout,
    // so the Manager aborts and drains the rollback replies; the retry
    // runs clean. The report must surface the drained replies instead of
    // silently discarding them (the bug drain_done's count fixed).
    let plan = FaultPlan::script()
        .inject("agent.slow", Some("w0"), 0, FaultAction::Delay { micros: 150_000 })
        .build();
    let (obs, ring) = Observer::ring(4096);
    let cluster = Cluster::builder()
        .nodes(2)
        .registry(registry())
        .observer(obs)
        .faults(plan)
        .build();
    let names = spawn_pods(&cluster, 2);
    let targets: Vec<CheckpointTarget> =
        names.iter().map(|p| CheckpointTarget::snapshot(p)).collect();
    // Margins matter under a loaded machine: the drain window (= timeout)
    // must comfortably catch w1's quick rollback reply, and the retry must
    // start after w0's delayed Agent has woken and rolled back
    // (timeout + backoff > delay).
    let opts = CheckpointOptions {
        timeout: Duration::from_millis(80),
        retries: 2,
        backoff: Duration::from_millis(120),
        ..Default::default()
    };

    let report = checkpoint_with(&cluster, &targets, &opts).expect("retry succeeds");
    assert!(
        report.late_replies >= 1,
        "aborted first attempt must surface its drained replies"
    );
    assert_eq!(
        ring.counter_sum("mgr.late_reply"),
        report.late_replies,
        "one mgr.late_reply counter per drained reply"
    );
    for n in names {
        cluster.destroy_pod(&n);
    }

    // A migration files its replies in the same book. With no pre-copy
    // the first frame on w0's stream is its cut; holding it past the
    // timeout aborts the first attempt, and the retry runs clean once w0's
    // source has woken, found its receiver gone and rolled back
    // (timeout + backoff > delay).
    let plan = FaultPlan::script()
        .inject("net.partition", Some("w0"), 0, FaultAction::Delay { micros: 400_000 })
        .build();
    let (obs, ring) = Observer::ring(4096);
    let cluster = Cluster::builder()
        .nodes(2)
        .registry(registry())
        .observer(obs)
        .faults(plan)
        .build();
    let names = spawn_pods(&cluster, 2);
    let moves: Vec<(String, usize)> =
        names.iter().enumerate().map(|(i, p)| (p.clone(), (i + 1) % 2)).collect();
    let opts = MigrateOptions {
        max_rounds: 0,
        timeout: Duration::from_millis(200),
        retries: 2,
        backoff: Duration::from_millis(300),
        ..Default::default()
    };

    let report = migrate_live_with(&cluster, &moves, &opts).expect("retry succeeds");
    assert_eq!(cluster.faults.fired(), 1);
    assert!(
        report.late_replies >= 1,
        "aborted first attempt must surface its drained replies"
    );
    assert_eq!(
        ring.counter_sum("mgr.late_reply"),
        report.late_replies,
        "one mgr.late_reply counter per drained reply"
    );
    for (pod, node) in &moves {
        assert_eq!(cluster.pod_node(pod), Some(*node));
        cluster.destroy_pod(pod);
    }
}

#[test]
fn simulated_clock_stamps_event_times() {
    // The cluster wires its simulated clock into the observer: event
    // timestamps are cluster time (µs), not process-relative time.
    let (cluster, ring) = observed_cluster(1);
    let names = spawn_pods(&cluster, 1);
    std::thread::sleep(Duration::from_millis(5));
    let targets: Vec<CheckpointTarget> =
        names.iter().map(|p| CheckpointTarget::snapshot(p)).collect();
    checkpoint(&cluster, &targets).expect("checkpoint");
    let evs = ring.events();
    assert!(!evs.is_empty());
    // Cluster time had advanced past the sleeps before the first event.
    assert!(
        evs[0].t_us >= 15_000,
        "event stamped with process time, not cluster time: {}",
        evs[0].t_us
    );
    for n in names {
        cluster.destroy_pod(&n);
    }
}
