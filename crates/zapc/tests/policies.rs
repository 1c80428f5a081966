//! Coordination-policy and miscellaneous manager-level coverage.

use std::time::Duration;
use zapc::agent::SyncPolicy;
use zapc::manager::{checkpoint_with, CheckpointOptions, CheckpointTarget};
use zapc::Cluster;
use zapc_proto::{Endpoint, RecordReader, RecordWriter, Transport};
use zapc_sim::{ProcessCtx, Program, ProgramRegistry, StepOutcome};

fn with_policy(policy: SyncPolicy) -> CheckpointOptions {
    CheckpointOptions { policy, ..Default::default() }
}

/// Minimal two-pod chatter app (serializable).
struct Chatter {
    peer_vip: u32,
    server: bool,
    rounds: u64,
    done: u64,
    phase: u8,
    listen_fd: u32,
    fd: u32,
    acc: u64,
    inflight: bool,
}

impl Chatter {
    fn new(peer_vip: u32, server: bool, rounds: u64) -> Chatter {
        Chatter {
            peer_vip,
            server,
            rounds,
            done: 0,
            phase: 0,
            listen_fd: 0,
            fd: 0,
            acc: 0,
            inflight: false,
        }
    }
}

const PORT: u16 = 7100;

impl Program for Chatter {
    fn type_name(&self) -> &'static str {
        "test.chatter"
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.phase {
            0 => {
                if self.server {
                    self.listen_fd = ctx.socket(Transport::Tcp).unwrap();
                    ctx.bind(self.listen_fd, Endpoint { ip: 0, port: PORT }).unwrap();
                    ctx.listen(self.listen_fd, 2).unwrap();
                } else {
                    self.fd = ctx.socket(Transport::Tcp).unwrap();
                    ctx.connect(self.fd, Endpoint { ip: self.peer_vip, port: PORT }).unwrap();
                }
                self.phase = 1;
                StepOutcome::Ready
            }
            1 => {
                if self.server {
                    match ctx.accept(self.listen_fd) {
                        Ok((fd, _)) => {
                            self.fd = fd;
                            self.phase = 2;
                            StepOutcome::Ready
                        }
                        Err(_) => StepOutcome::Blocked,
                    }
                } else {
                    match ctx.is_connected(self.fd) {
                        Ok(true) => {
                            self.phase = 2;
                            StepOutcome::Ready
                        }
                        Ok(false) => StepOutcome::Blocked,
                        Err(_) => {
                            let _ = ctx.close(self.fd);
                            self.fd = ctx.socket(Transport::Tcp).unwrap();
                            ctx.connect(self.fd, Endpoint { ip: self.peer_vip, port: PORT })
                                .unwrap();
                            StepOutcome::Blocked
                        }
                    }
                }
            }
            2 => {
                if self.done >= self.rounds {
                    return StepOutcome::Exited((self.acc % 251) as i32);
                }
                // Server echoes; client drives one byte at a time.
                if !self.server && !self.inflight
                    && ctx.send(self.fd, &[self.done as u8]) == Ok(1) {
                        self.inflight = true;
                    }
                match ctx.recv(self.fd, 16, zapc_net::RecvFlags::default()) {
                    Ok(d) if !d.is_empty() => {
                        for b in d {
                            self.acc = self.acc.wrapping_mul(31).wrapping_add(b as u64);
                            if self.server {
                                while ctx.send(self.fd, &[b]) != Ok(1) {}
                            } else {
                                self.inflight = false;
                            }
                            self.done += 1;
                        }
                        StepOutcome::Ready
                    }
                    _ => StepOutcome::Blocked,
                }
            }
            _ => unreachable!(),
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u32(self.peer_vip);
        w.put_bool(self.server);
        w.put_u64(self.rounds);
        w.put_u64(self.done);
        w.put_u8(self.phase);
        w.put_u32(self.listen_fd);
        w.put_u32(self.fd);
        w.put_u64(self.acc);
        w.put_bool(self.inflight);
    }
}

fn load_chatter(r: &mut RecordReader<'_>) -> zapc_proto::DecodeResult<Box<dyn Program>> {
    Ok(Box::new(Chatter {
        peer_vip: r.get_u32()?,
        server: r.get_bool()?,
        rounds: r.get_u64()?,
        done: r.get_u64()?,
        phase: r.get_u8()?,
        listen_fd: r.get_u32()?,
        fd: r.get_u32()?,
        acc: r.get_u64()?,
        inflight: r.get_bool()?,
    }))
}

fn launch(rounds: u64) -> (Cluster, [String; 2]) {
    let mut reg = ProgramRegistry::new();
    reg.register("test.chatter", load_chatter);
    let cluster = Cluster::builder().nodes(2).registry(reg).build();
    let a = cluster.create_pod("chat-a", 0);
    let b = cluster.create_pod("chat-b", 1);
    a.spawn("server", Box::new(Chatter::new(b.vip(), true, rounds)));
    b.spawn("client", Box::new(Chatter::new(a.vip(), false, rounds)));
    (cluster, ["chat-a".into(), "chat-b".into()])
}

fn wait_codes(cluster: &Cluster, names: &[String; 2]) -> Vec<i32> {
    names
        .iter()
        .map(|n| cluster.pod(n).unwrap().wait_all(Duration::from_secs(60)).unwrap()[0])
        .collect()
}

#[test]
fn global_barrier_policy_is_still_correct() {
    // The barrier strawman is slower, not wrong: the app must finish with
    // the same result.
    let (ref_cluster, ref_names) = launch(300);
    let expected = wait_codes(&ref_cluster, &ref_names);

    let (cluster, names) = launch(300);
    std::thread::sleep(Duration::from_millis(15));
    let targets: Vec<CheckpointTarget> =
        names.iter().map(|n| CheckpointTarget::snapshot(n)).collect();
    let report =
        checkpoint_with(&cluster, &targets, &with_policy(SyncPolicy::GlobalBarrier)).unwrap();
    assert!(report.pods.iter().any(|p| p.blocked_ms > 0.0));
    assert_eq!(wait_codes(&cluster, &names), expected);
}

#[test]
fn barrier_blocks_network_at_least_as_long_as_single_sync() {
    let (c1, n1) = launch(1_000_000); // effectively endless
    std::thread::sleep(Duration::from_millis(15));
    let t1: Vec<CheckpointTarget> = n1.iter().map(|n| CheckpointTarget::snapshot(n)).collect();
    let single = checkpoint_with(&c1, &t1, &with_policy(SyncPolicy::SingleSync)).unwrap();
    let barrier = checkpoint_with(&c1, &t1, &with_policy(SyncPolicy::GlobalBarrier)).unwrap();
    // The barrier cannot be *shorter*: it contains everything the single
    // sync does plus the idle wait. (Averaged over pods; generous slack
    // for scheduler noise on a loaded host.)
    let [single_ms, barrier_ms] = [&single, &barrier]
        .map(|r| r.pods.iter().map(|p| p.blocked_ms).sum::<f64>() / r.pods.len() as f64);
    assert!(
        barrier_ms + 2.0 >= single_ms,
        "barrier {barrier_ms:.3} ms vs single {single_ms:.3} ms"
    );
    for n in &n1 {
        c1.destroy_pod(n);
    }
}

#[test]
fn fs_snapshot_restores_pod_files() {
    // §3's optional file-system snapshot: when enabled, the image carries
    // the pod's chroot subtree and restart reinstates it — even over later
    // modifications (the fault-recovery semantics for non-shared state).
    let (cluster, names) = launch(1_000_000); // endless; we never finish it
    std::thread::sleep(Duration::from_millis(10));
    cluster.fs.write("/pods/chat-a/state.dat", b"at-checkpoint");

    let targets: Vec<CheckpointTarget> = names
        .iter()
        .map(|n| CheckpointTarget {
            pod: n.clone(),
            uri: zapc::Uri::mem(format!("fss/{n}")),
            finalize: zapc::agent::Finalize::Destroy,
        })
        .collect();
    let opts = zapc::manager::CheckpointOptions { fs_snapshot: true, ..Default::default() };
    zapc::manager::checkpoint_with(&cluster, &targets, &opts).unwrap();

    // The "disk" is clobbered after the checkpoint…
    cluster.fs.write("/pods/chat-a/state.dat", b"CORRUPTED");

    let rts: Vec<zapc::manager::RestartTarget> = names
        .iter()
        .map(|n| zapc::manager::RestartTarget {
            pod: n.clone(),
            uri: zapc::Uri::mem(format!("fss/{n}")),
            node: 0,
        })
        .collect();
    zapc::restart(&cluster, &rts).unwrap();
    // …and the restart put the snapshot back.
    assert_eq!(cluster.fs.read("/pods/chat-a/state.dat").unwrap(), b"at-checkpoint");
    for n in &names {
        cluster.destroy_pod(n);
    }
}

#[test]
fn snapshot_then_live_continue_then_restart_elsewhere() {
    // Snapshot semantics: after a checkpoint the original keeps running;
    // the SAME image restarted later must continue from the snapshot point
    // (NOT the end), so the restarted copy recomputes the tail and agrees.
    let (ref_cluster, ref_names) = launch(400);
    let expected = wait_codes(&ref_cluster, &ref_names);

    let (cluster, names) = launch(400);
    std::thread::sleep(Duration::from_millis(15));
    let targets: Vec<CheckpointTarget> =
        names.iter().map(|n| CheckpointTarget::snapshot(n)).collect();
    zapc::checkpoint(&cluster, &targets).unwrap();
    // Original completes.
    assert_eq!(wait_codes(&cluster, &names), expected);
    for n in &names {
        cluster.destroy_pod(n);
    }

    // Restart the snapshot images on swapped nodes; the copy must agree.
    let rts: Vec<zapc::manager::RestartTarget> = names
        .iter()
        .enumerate()
        .map(|(i, n)| zapc::manager::RestartTarget {
            pod: n.clone(),
            uri: zapc::Uri::mem(format!("ckpt/{n}")),
            node: 1 - i,
        })
        .collect();
    zapc::restart(&cluster, &rts).unwrap();
    assert_eq!(wait_codes(&cluster, &names), expected);
}
