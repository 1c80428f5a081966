//! Coordinated checkpoint-restart of a *running distributed application*:
//! the full ZapC stack end to end.
//!
//! The workload is a token ring (each pod connects to its successor and
//! accepts from its predecessor — the §4 deadlock example) of compute
//! ranks that accumulate a deterministic checksum. The tests compare the
//! checksum of a disturbed run (migrate / abort / refused restart
//! mid-flight) against an undisturbed reference and check the shape of the
//! operations' reports. That a plain snapshot, restart or migration cut is
//! invisible to a real workload is the transparency oracle's check
//! (`tests/oracle.rs` at the repository root).

use std::sync::Arc;
use std::time::Duration;
use zapc::agent::Finalize;
use zapc::manager::{checkpoint_with, CheckpointOptions, CheckpointTarget, RestartTarget};
use zapc::{checkpoint, migrate, migrate_live, restart, Cluster, ClusterBuilder, Uri, ZapcError};
use zapc::{migrate_live_with, MigrateOptions};
use zapc::{FaultAction, FaultPlan};
use zapc_net::RecvFlags;
use zapc_proto::{Endpoint, RecordReader, RecordWriter, Transport};
use zapc_sim::{ProcessCtx, Program, ProgramRegistry, StepOutcome};

const RING_PORT: u16 = 7000;

/// One rank of the token ring.
struct Ring {
    rank: u32,
    rounds: u64,
    next_vip: u32,
    phase: u8,
    listen_fd: u32,
    out_fd: u32,
    in_fd: u32,
    have_in: bool,
    round: u64,
    sent: bool,
    acc: f64,
    rxbuf: Vec<u8>,
}

impl Ring {
    fn new(rank: u32, rounds: u64, next_vip: u32) -> Ring {
        Ring {
            rank,
            rounds,
            next_vip,
            phase: 0,
            listen_fd: 0,
            out_fd: 0,
            in_fd: 0,
            have_in: false,
            round: 0,
            sent: false,
            acc: 0.0,
            rxbuf: Vec::new(),
        }
    }

    fn exit_code(&self) -> i32 {
        ((self.acc * 1000.0) as i64).rem_euclid(251) as i32
    }
}

impl Program for Ring {
    fn type_name(&self) -> &'static str {
        "test.ring"
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.phase {
            0 => {
                self.listen_fd = ctx.socket(Transport::Tcp).unwrap();
                ctx.bind(self.listen_fd, Endpoint { ip: 0, port: RING_PORT }).unwrap();
                ctx.listen(self.listen_fd, 4).unwrap();
                self.out_fd = ctx.socket(Transport::Tcp).unwrap();
                ctx.connect(self.out_fd, Endpoint { ip: self.next_vip, port: RING_PORT }).unwrap();
                self.phase = 1;
                StepOutcome::Ready
            }
            1 => {
                if !self.have_in {
                    if let Ok((fd, _peer)) = ctx.accept(self.listen_fd) {
                        self.in_fd = fd;
                        self.have_in = true;
                    }
                }
                match ctx.is_connected(self.out_fd) {
                    Ok(true) if self.have_in => {
                        self.phase = 2;
                        StepOutcome::Ready
                    }
                    Ok(_) => StepOutcome::Blocked,
                    Err(_) => {
                        // Peer's listener not up yet: retry the connect.
                        let _ = ctx.close(self.out_fd);
                        self.out_fd = ctx.socket(Transport::Tcp).unwrap();
                        ctx.connect(self.out_fd, Endpoint { ip: self.next_vip, port: RING_PORT })
                            .unwrap();
                        StepOutcome::Blocked
                    }
                }
            }
            2 => {
                if self.round >= self.rounds {
                    self.phase = 3;
                    return StepOutcome::Ready;
                }
                if !self.sent {
                    let token = self.acc + self.rank as f64 + self.round as f64 * 0.5;
                    let bytes = token.to_le_bytes();
                    match ctx.send(self.out_fd, &bytes) {
                        Ok(8) => self.sent = true,
                        Ok(_) | Err(zapc_sim::Errno::EAGAIN) => return StepOutcome::Blocked,
                        Err(e) => panic!("rank {} send: {e}", self.rank),
                    }
                }
                // Simulate some computation per round.
                let mut x = self.acc;
                for i in 0..200 {
                    x += ((self.round + i) as f64).sqrt() * 1e-6;
                }
                ctx.consume_cpu(2_000);
                match ctx.recv(self.in_fd, 8 - self.rxbuf.len(), RecvFlags::default()) {
                    Ok(d) if d.is_empty() => StepOutcome::Blocked, // EOF would be a bug
                    Ok(d) => {
                        self.rxbuf.extend(d);
                        if self.rxbuf.len() == 8 {
                            let token =
                                f64::from_le_bytes(self.rxbuf.as_slice().try_into().unwrap());
                            self.acc = x + token * 0.25;
                            self.rxbuf.clear();
                            self.round += 1;
                            self.sent = false;
                        }
                        StepOutcome::Ready
                    }
                    Err(zapc_sim::Errno::EAGAIN) => StepOutcome::Blocked,
                    Err(e) => panic!("rank {} recv: {e}", self.rank),
                }
            }
            _ => StepOutcome::Exited(self.exit_code()),
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u32(self.rank);
        w.put_u64(self.rounds);
        w.put_u32(self.next_vip);
        w.put_u8(self.phase);
        w.put_u32(self.listen_fd);
        w.put_u32(self.out_fd);
        w.put_u32(self.in_fd);
        w.put_bool(self.have_in);
        w.put_u64(self.round);
        w.put_bool(self.sent);
        w.put_f64(self.acc);
        w.put_bytes(&self.rxbuf);
    }
}

fn load_ring(r: &mut RecordReader<'_>) -> zapc_proto::DecodeResult<Box<dyn Program>> {
    Ok(Box::new(Ring {
        rank: r.get_u32()?,
        rounds: r.get_u64()?,
        next_vip: r.get_u32()?,
        phase: r.get_u8()?,
        listen_fd: r.get_u32()?,
        out_fd: r.get_u32()?,
        in_fd: r.get_u32()?,
        have_in: r.get_bool()?,
        round: r.get_u64()?,
        sent: r.get_bool()?,
        acc: r.get_f64()?,
        rxbuf: r.get_bytes_owned()?,
    }))
}

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("test.ring", load_ring);
    reg
}

/// Builds a cluster with `nodes` nodes and launches an `n`-rank ring,
/// one pod per rank, round-robin over the nodes.
fn launch_ring(nodes: usize, n: usize, rounds: u64) -> (Cluster, Vec<String>) {
    launch_ring_on(Cluster::builder(), nodes, n, rounds)
}

/// [`launch_ring`] on a cluster the caller has started configuring (fault
/// plan, lease).
fn launch_ring_on(
    builder: ClusterBuilder,
    nodes: usize,
    n: usize,
    rounds: u64,
) -> (Cluster, Vec<String>) {
    let cluster = builder.nodes(nodes).registry(registry()).build();
    let pods: Vec<Arc<zapc_pod::Pod>> =
        (0..n).map(|i| cluster.create_pod(&format!("ring-{i}"), i % nodes)).collect();
    for (i, pod) in pods.iter().enumerate() {
        let next_vip = pods[(i + 1) % n].vip();
        pod.spawn("ring", Box::new(Ring::new(i as u32, rounds, next_vip)));
    }
    (cluster, (0..n).map(|i| format!("ring-{i}")).collect())
}

fn wait_codes(cluster: &Cluster, names: &[String]) -> Vec<i32> {
    names
        .iter()
        .map(|n| {
            let pod = cluster.pod(n).unwrap_or_else(|| panic!("pod {n} missing"));
            pod.wait_all(Duration::from_secs(60)).unwrap()[0]
        })
        .collect()
}

fn reference_codes(n: usize, rounds: u64) -> Vec<i32> {
    let (cluster, names) = launch_ring(n.clamp(1, 2), n, rounds);
    let codes = wait_codes(&cluster, &names);
    for n in &names {
        cluster.destroy_pod(n);
    }
    codes
}

#[test]
fn direct_migration_streams_without_storage() {
    let expected = reference_codes(4, 250);
    let (cluster, names) = launch_ring(4, 4, 250);
    std::thread::sleep(Duration::from_millis(20));

    let before = cluster.store.len();
    // Migrate all four pods: N=4 nodes → M=2 nodes.
    let moves: Vec<(String, usize)> =
        names.iter().enumerate().map(|(i, n)| (n.clone(), i % 2)).collect();
    migrate(&cluster, &moves).unwrap();
    assert_eq!(cluster.store.len(), before, "no image touched the store");
    assert_eq!(cluster.pod_node("ring-2"), Some(0));
    assert_eq!(wait_codes(&cluster, &names), expected);
}

#[test]
fn agent_failure_aborts_gracefully_and_application_resumes() {
    let expected = reference_codes(2, 400);
    let (cluster, names) = launch_ring(2, 2, 400);
    std::thread::sleep(Duration::from_millis(10));

    // One target names a pod that does not exist: its Agent reports
    // failure before meta-data, and the Manager aborts everyone.
    let mut targets: Vec<CheckpointTarget> =
        names.iter().map(|n| CheckpointTarget::snapshot(n)).collect();
    targets.push(CheckpointTarget::snapshot("no-such-pod"));
    match checkpoint(&cluster, &targets) {
        Err(ZapcError::Aborted(_)) => {}
        other => panic!("expected abort, got {other:?}"),
    }

    // The application was resumed and still completes correctly.
    assert_eq!(wait_codes(&cluster, &names), expected);
    // Filter rules were rolled back.
    for n in &names {
        let pod = cluster.pod(n);
        if let Some(p) = pod {
            assert!(!cluster.filter().is_blocked(p.vip()));
        }
    }
}

#[test]
fn manager_failure_after_meta_data_aborts_gracefully() {
    let expected = reference_codes(2, 400);
    // The Manager dies after collecting meta-data: every control
    // connection drops instead of carrying `continue`.
    let plan = FaultPlan::script()
        .inject("manager.post_meta", Some("manager"), 0, FaultAction::Crash)
        .build();
    let (cluster, names) = launch_ring_on(Cluster::builder().faults(plan), 2, 2, 400);
    std::thread::sleep(Duration::from_millis(10));

    let targets: Vec<CheckpointTarget> =
        names.iter().map(|n| CheckpointTarget::snapshot(n)).collect();
    match checkpoint_with(&cluster, &targets, &CheckpointOptions::default()) {
        Err(ZapcError::Aborted(_)) => {}
        other => panic!("expected abort, got {other:?}"),
    }
    assert_eq!(cluster.faults.fired(), 1, "the Manager crash site must have fired");
    assert_eq!(wait_codes(&cluster, &names), expected);
}

#[test]
fn a_slow_agent_is_not_a_dead_node() {
    // A lease far shorter than any Agent step, and ring-1's Agent sits
    // silent for 100 ms in every checkpoint on top: a lease may only lapse
    // on a killed node or a cut link, never because an Agent is busy.
    // Plain checkpoint, restart, migration and live migration all run to
    // completion.
    let expected = reference_codes(2, 600);
    let plan = FaultPlan::script()
        .always("agent.slow", Some("ring-1"), FaultAction::Delay { micros: 100_000 })
        .build();
    let (cluster, names) =
        launch_ring_on(Cluster::builder().faults(plan).lease_ms(1), 2, 2, 600);
    std::thread::sleep(Duration::from_millis(10));

    let snapshots: Vec<CheckpointTarget> =
        names.iter().map(|n| CheckpointTarget::snapshot(n)).collect();
    checkpoint(&cluster, &snapshots).unwrap();

    let to_images: Vec<CheckpointTarget> = names
        .iter()
        .map(|n| CheckpointTarget {
            pod: n.clone(),
            uri: Uri::mem(format!("img/{n}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(&cluster, &to_images).unwrap();
    let from_images: Vec<RestartTarget> = names
        .iter()
        .enumerate()
        .map(|(i, n)| RestartTarget { pod: n.clone(), uri: Uri::mem(format!("img/{n}")), node: i })
        .collect();
    restart(&cluster, &from_images).unwrap();

    let swapped: Vec<(String, usize)> =
        names.iter().enumerate().map(|(i, n)| (n.clone(), 1 - i)).collect();
    migrate(&cluster, &swapped).unwrap();
    let home: Vec<(String, usize)> =
        names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
    migrate_live(&cluster, &home).unwrap();

    assert_eq!(cluster.pod_node("ring-1"), Some(1));
    assert_eq!(wait_codes(&cluster, &names), expected);
}

#[test]
fn migrate_aborts_within_a_lease_when_a_source_node_dies_in_phase_1() {
    let expected = reference_codes(2, 400);
    // ring-1's source Agent is held at its first frame — with no pre-copy
    // rounds that is the cut, shipped while the pod is suspended — long
    // enough for its node to be declared dead.
    let plan = FaultPlan::script()
        .inject("net.partition", Some("ring-1"), 0, FaultAction::Delay { micros: 150_000 })
        .build();
    let (cluster, names) = launch_ring_on(Cluster::builder().faults(plan), 2, 2, 400);
    std::thread::sleep(Duration::from_millis(10));

    let moves: Vec<(String, usize)> =
        names.iter().enumerate().map(|(i, n)| (n.clone(), 1 - i % 2)).collect();
    let opts =
        MigrateOptions { max_rounds: 0, timeout: Duration::from_secs(5), ..Default::default() };
    let t0 = std::time::Instant::now();
    let err = std::thread::scope(|s| {
        let op = s.spawn(|| migrate_live_with(&cluster, &moves, &opts));
        while cluster.faults.fired() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(20), "phase 1 never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.health.kill(1);
        op.join().unwrap().unwrap_err()
    });
    // The health watch, not the 5 s reply timeout, ended the wait.
    match &err {
        ZapcError::Aborted(why) => assert!(why.contains("died"), "why = {why}"),
        other => panic!("expected a node-death abort, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(1), "abort took {:?}", t0.elapsed());

    // Every source pod was rolled back: still home, network unblocked,
    // and resumed — the ring only completes if all of its ranks run.
    for (i, n) in names.iter().enumerate() {
        assert_eq!(cluster.pod_node(n), Some(i % 2));
        assert!(!cluster.filter().is_blocked(cluster.pod(n).unwrap().vip()));
    }
    assert_eq!(wait_codes(&cluster, &names), expected);
}

#[test]
fn restart_to_a_missing_node_is_refused_before_anything_runs() {
    let expected = reference_codes(2, 400);
    let (cluster, names) = launch_ring(2, 2, 400);
    std::thread::sleep(Duration::from_millis(10));
    let to_images: Vec<CheckpointTarget> = names
        .iter()
        .map(|n| CheckpointTarget {
            pod: n.clone(),
            uri: Uri::mem(format!("img/{n}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(&cluster, &to_images).unwrap();
    for n in &names {
        assert!(cluster.pod(n).is_none(), "{n}: a migration source is destroyed");
    }
    let onto = |nodes: [usize; 2]| -> Vec<RestartTarget> {
        names
            .iter()
            .zip(nodes)
            .map(|(n, node)| RestartTarget {
                pod: n.clone(),
                uri: Uri::mem(format!("img/{n}")),
                node,
            })
            .collect()
    };

    match restart(&cluster, &onto([0, 7])) {
        Err(ZapcError::NotFound(what)) => assert!(what.contains("node 7"), "what = {what}"),
        other => panic!("expected NotFound, got {other:?}"),
    }
    for n in &names {
        assert!(cluster.pod(n).is_none(), "{n} was created by the refused restart");
    }
    // The stored images are untouched: a restart onto real nodes runs.
    let report = restart(&cluster, &onto([1, 0])).unwrap();
    assert_eq!(report.pods.len(), 2);
    for p in &report.pods {
        assert!(p.net_ms <= p.total_ms);
    }
    assert_eq!(wait_codes(&cluster, &names), expected);
}

#[test]
fn network_checkpoint_is_a_small_fraction_of_total() {
    // §6.2: network-state checkpoint < 10 ms and 3–10% of checkpoint time;
    // network data is orders of magnitude smaller than application data.
    let (cluster, names) = launch_ring(2, 2, 100_000);
    // Give the ranks real memory so the standalone phase dominates.
    std::thread::sleep(Duration::from_millis(15));
    let targets: Vec<CheckpointTarget> =
        names.iter().map(|n| CheckpointTarget::snapshot(n)).collect();
    let report = checkpoint(&cluster, &targets).unwrap();
    assert_eq!(report.pods.len(), 2);
    assert_eq!(report.meta.len(), 2);
    for p in &report.pods {
        assert!(p.network_bytes > 0, "ring pods have sockets");
        // (Memory-dominance of the image — §6.2 — is asserted by the
        // scientific workloads in zapc-apps; ring ranks are deliberately
        // tiny.)
        assert!(p.network_bytes < p.image_bytes);
        assert!(p.net_ms <= p.total_ms);
        assert!(p.net_ms < 10.0, "network checkpoint took {} ms", p.net_ms);
        assert!(p.network_bytes < 4096, "network state is {} B", p.network_bytes);
    }
    for n in &names {
        cluster.destroy_pod(n);
    }
}
