//! Checkpoint under fire: the key-value server fleet keeps live TCP
//! traffic flowing while the whole application is checkpointed, restarted,
//! and live-migrated — and every client proves, by end-to-end stream
//! digests, that not a single application byte was dropped, duplicated,
//! or corrupted.
//!
//! The verification contract (see `zapc_apps::kv`): each client exits with
//! code `0` when its received response stream matches the stream it
//! predicted at request-generation time, and with a distinct negative code
//! for sequence gaps/repeats (loss or duplication), digest mismatches
//! (corruption), connection failure, or premature EOF. The server's exit
//! code encodes how many operations it served — deterministic for a given
//! fleet — so a disturbed run must match the fault-free count exactly.
//! A client reads each key right after writing it and never again, so a
//! write the server dropped after answering would leave every exit code
//! right: the exited server's store must also hold exactly the key-value
//! pairs the clients wrote.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use zapc::agent::Finalize;
use zapc::manager::{checkpoint, migrate, restart, CheckpointTarget, RestartTarget};
use zapc::{migrate_live_with, Cluster, MigrateOptions, Uri};
use zapc_apps::kv::{key_bytes, launch_kv, store_entries, val_bytes, KvFleet, KvFleetParams};
use zapc_apps::launch::full_registry;

const WAIT: Duration = Duration::from_secs(60);

/// Collects every exit code in the fleet: the server pod's first, then
/// each client pod's, in pod order.
fn fleet_codes(c: &Cluster, fleet: &KvFleet) -> Vec<i32> {
    let mut codes = Vec::new();
    for name in fleet.all_pods() {
        let pod = c.pod(&name).unwrap_or_else(|| panic!("pod {name} missing"));
        codes.extend(pod.wait_all(WAIT).unwrap_or_else(|e| panic!("{name}: {e:?}")));
    }
    codes
}

/// Every key and value the fleet's clients write: client `id` PUTs slot
/// `k` on each even sequence number `2k`; half-open clients write nothing.
fn written(p: &KvFleetParams) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let slots = p.requests.div_ceil(2);
    (0..p.clients as u32)
        .flat_map(|id| (0..slots).map(move |k| (id, k)))
        .map(|(id, k)| (key_bytes(id, k), val_bytes(id, k, p.val_len)))
        .collect()
}

/// The key-value pairs the server's store holds, read from its address
/// space: `None` before the server has mapped its store.
fn server_store(c: &Cluster, fleet: &KvFleet) -> Option<BTreeMap<Vec<u8>, Vec<u8>>> {
    let server = c.pod(&fleet.server_pod).expect("server pod missing");
    let &(_, pid) = server.vpid_pids().first().expect("no server process");
    let proc = server.node().process(pid).expect("server process reaped");
    let entries = store_entries(&proc.lock().unwrap().mem);
    entries.ok()
}

/// Waits until the running server's store holds at least `keys` keys.
fn wait_for_writes(c: &Cluster, fleet: &KvFleet, keys: usize) {
    let deadline = Instant::now() + WAIT;
    while server_store(c, fleet).map_or(0, |s| s.len()) < keys {
        assert!(Instant::now() < deadline, "the server never stored {keys} keys");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits for the fleet, then checks the deterministic expected code set
/// (server = ops served mod 251, every client including the half-open
/// ones = 0) and that the server's store holds every write, and nothing
/// else.
fn assert_zero_loss(c: &Cluster, fleet: &KvFleet, p: &KvFleetParams) {
    let codes = fleet_codes(c, fleet);
    let served = (p.clients as u64) * (p.requests as u64);
    assert_eq!(codes[0], (served % 251) as i32, "server must serve every operation");
    for (i, &code) in codes[1..].iter().enumerate() {
        assert!(
            code >= 0,
            "client #{i} reported loss/duplication/corruption (code {code}); \
             -2=sequence -3=digest -4=conn -5=eof"
        );
        assert_eq!(code, 0, "client #{i}: nonzero success code without report_stall");
    }
    let store = server_store(c, fleet).expect("server store unreadable");
    let want = written(p);
    let wrong = want.iter().filter(|&(k, v)| store.get(k) != Some(v)).count();
    assert!(
        wrong == 0 && store.len() == want.len(),
        "the server's store lost or changed {wrong} of {} writes and holds {} keys",
        want.len(),
        store.len()
    );
}

fn small_fleet() -> KvFleetParams {
    KvFleetParams {
        clients: 12,
        slow_every: 4,
        halfopen: 2,
        clients_per_pod: 7,
        requests: 24,
        val_len: 48,
        window: 6,
        idle_timeout_ms: 1_500,
        report_stall: false,
        slow_rcv_buf: 0,
    }
}

/// The "under fire" fleet: ≥200 concurrent connections, one in four
/// clients a dribbling slow writer, plus lingering half-open connections.
fn big_fleet() -> KvFleetParams {
    KvFleetParams {
        clients: 200,
        slow_every: 4,
        halfopen: 8,
        clients_per_pod: 26,
        requests: 24,
        val_len: 48,
        window: 6,
        idle_timeout_ms: 2_000,
        report_stall: false,
        slow_rcv_buf: 0,
    }
}

#[test]
fn kv_fleet_clean_run_is_zero_loss() {
    let p = small_fleet();
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let fleet = launch_kv(&c, "kv", &p);
    assert_zero_loss(&c, &fleet, &p);
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}

#[test]
fn kv_fleet_halfopen_connections_are_reaped_not_waited_out() {
    // The half-open clients linger 10 s (virtual) before giving up on
    // their own; the server's idle reaper must cut them loose long before
    // that, so the whole fleet drains well under the linger bound.
    let p = KvFleetParams { idle_timeout_ms: 200, ..small_fleet() };
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let fleet = launch_kv(&c, "reap", &p);
    let start = std::time::Instant::now();
    assert_zero_loss(&c, &fleet, &p);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(8),
        "half-open clients must be reaped by the server, not ride out their \
         10 s linger (took {elapsed:?})"
    );
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}

#[test]
fn checkpoint_restart_under_load_loses_nothing() {
    // Whole-application coordinated checkpoint (server and all client
    // pods together, §4) while ≥200 connections are mid-flight, then
    // destroy everything and restart from the images. Every byte in
    // flight at the cut — send queues, receive queues, partial frames,
    // congestion and flow-control state — must come back exactly once.
    let p = big_fleet();
    let c = Cluster::builder().nodes(3).registry(full_registry()).build();
    let fleet = launch_kv(&c, "fire", &p);
    // Let the fleet connect and get traffic into flight.
    std::thread::sleep(Duration::from_millis(30));

    let pods = fleet.all_pods();
    let targets: Vec<CheckpointTarget> = pods
        .iter()
        .map(|pod| CheckpointTarget {
            pod: pod.clone(),
            uri: Uri::mem(format!("img/{pod}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(&c, &targets).unwrap();
    for pod in &pods {
        assert!(c.pod(pod).is_none(), "{pod}: Finalize::Destroy must tear down");
    }

    let rts: Vec<RestartTarget> = pods
        .iter()
        .enumerate()
        .map(|(i, pod)| RestartTarget {
            pod: pod.clone(),
            uri: Uri::mem(format!("img/{pod}")),
            node: i % 3,
        })
        .collect();
    restart(&c, &rts).unwrap();

    assert_zero_loss(&c, &fleet, &p);
    for pod in pods {
        c.destroy_pod(&pod);
    }
}

#[test]
fn snapshot_under_load_loses_nothing() {
    // Snapshot semantics: checkpoint the whole fleet and let it keep
    // running (read-and-reinject leaves every socket externally
    // unchanged). The live run must still finish with zero loss.
    let p = big_fleet();
    let c = Cluster::builder().nodes(3).registry(full_registry()).build();
    let fleet = launch_kv(&c, "snap", &p);
    std::thread::sleep(Duration::from_millis(25));
    let targets: Vec<CheckpointTarget> =
        fleet.all_pods().iter().map(|pod| CheckpointTarget::snapshot(pod)).collect();
    checkpoint(&c, &targets).unwrap();
    assert_zero_loss(&c, &fleet, &p);
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}

#[test]
fn live_migrating_the_fleet_under_load_loses_nothing() {
    // Live-migrate the whole application — iterative pre-copy, then a
    // brief suspend at cutover — while every client hammers the server.
    // Connection restore replays both ends of every stream together (the
    // application, not the pod, is the migration unit), the virtual
    // addresses move with the pods (§3), and the streams must stay
    // exactly-once.
    //
    // The migration starts by progress, not after a sleep: once the
    // server holds a quarter of the writes, the clients are still
    // writing. Pre-copy runs the base round and one delta round 100 ms
    // later, which ships the store pages written in between; the
    // quiesced cut ships the pages written after it.
    let p = big_fleet();
    let c = Cluster::builder().nodes(3).registry(full_registry()).build();
    let fleet = launch_kv(&c, "lmig", &p);
    wait_for_writes(&c, &fleet, written(&p).len() / 4);
    let moves: Vec<(String, usize)> =
        fleet.all_pods().into_iter().map(|pod| (pod, 2)).collect();
    let opts = MigrateOptions {
        timeout: Duration::from_secs(30),
        round_delay: Duration::from_millis(100),
        max_rounds: 2,
        ..Default::default()
    };
    let report = migrate_live_with(&c, &moves, &opts).unwrap();
    assert_eq!(c.pod_node(&fleet.server_pod), Some(2), "server must land on node 2");
    let server = report.pods.iter().find(|r| r.pod == fleet.server_pod).expect("server report");
    assert!(
        server.rounds >= 2 && server.residual_bytes > 0,
        "no page delta reached the server: {} rounds, {} residual bytes",
        server.rounds,
        server.residual_bytes
    );
    assert_zero_loss(&c, &fleet, &p);
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}

#[test]
fn stop_and_copy_migrating_the_fleet_under_load_loses_nothing() {
    // The baseline migration arm: suspend, copy, resume on the target.
    // Longer stall than live migration, but the same zero-loss contract.
    let p = small_fleet();
    let c = Cluster::builder().nodes(3).registry(full_registry()).build();
    let fleet = launch_kv(&c, "smig", &p);
    std::thread::sleep(Duration::from_millis(20));
    let moves: Vec<(String, usize)> =
        fleet.all_pods().into_iter().map(|pod| (pod, 2)).collect();
    migrate(&c, &moves).unwrap();
    assert_eq!(c.pod_node(&fleet.server_pod), Some(2));
    assert_zero_loss(&c, &fleet, &p);
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}

#[test]
fn repeated_snapshots_under_load_lose_nothing() {
    // Checkpoints compose: several snapshots in a row while traffic
    // flows (the alternate-receive-queue remainder of one checkpoint is
    // itself captured by the next).
    let p = small_fleet();
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let fleet = launch_kv(&c, "multi", &p);
    std::thread::sleep(Duration::from_millis(10));
    let targets: Vec<CheckpointTarget> =
        fleet.all_pods().iter().map(|pod| CheckpointTarget::snapshot(pod)).collect();
    for _ in 0..3 {
        checkpoint(&c, &targets).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_zero_loss(&c, &fleet, &p);
    for pod in fleet.all_pods() {
        c.destroy_pod(&pod);
    }
}
