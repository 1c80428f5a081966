//! Hostile and corrupt checkpoint images must fail typed, never panic.
//!
//! PR 4 converted the network-restore path from `expect()`/unchecked
//! arithmetic to `SockRecord::validate()` + saturating offset math; these
//! tests drive each converted path with the inputs that used to bring the
//! Agent thread down: PCB sequence numbers near `u64::MAX`, urgent marks
//! outside the saved send queue, listeners carrying connection PCBs, and
//! length prefixes that survive decoding but lie about the payload.

use std::sync::Arc;
use std::time::Duration;
use zapc_net::buf::SendSnapshot;
use zapc_net::{Network, NetworkConfig, Socket};
use zapc_netckpt::records::decode_records;
use zapc_netckpt::{
    assign_roles, checkpoint_network, restore_network, NetCkptError, NetworkRestorePlan,
    SockRecord,
};
use zapc_pod::{pod_vip, Pod, PodConfig};
use zapc_proto::{Endpoint, MetaData, RecordWriter, Transport};
use zapc_sim::{ClusterClock, Node, NodeConfig, SimFs};

const TIMEOUT: Duration = Duration::from_secs(5);

struct Rig {
    net: Network,
    nodes: Vec<Arc<Node>>,
    clock: Arc<ClusterClock>,
}

fn rig(n: u32) -> Rig {
    let net = Network::new(NetworkConfig {
        latency: Duration::from_micros(30),
        jitter: Duration::from_micros(10),
        rto: Duration::from_millis(5),
        ..Default::default()
    });
    let fs = SimFs::new();
    let nodes = (0..n)
        .map(|i| Node::new(NodeConfig { id: i, cpus: 1 }, net.handle(), Arc::clone(&fs)))
        .collect();
    Rig { net, nodes, clock: ClusterClock::new() }
}

fn make_pod(r: &Rig, name: &str, vipn: u16, node: usize) -> Arc<Pod> {
    let pod = Pod::create(PodConfig::new(name, pod_vip(vipn)), &r.nodes[node], &r.clock);
    r.net.set_route(pod.vip(), &r.nodes[node].stack);
    pod
}

/// Checkpoints a connected pair, corrupts pod A's records via `mangle`,
/// and returns the result of restoring A on a fresh pod. Validation runs
/// before any reconnection, so a hostile record must surface as an
/// immediate typed error — this helper would hang (and the test harness
/// time out) if restore got as far as dialing.
fn restore_mangled(
    vips: (u16, u16),
    port: u16,
    mangle: impl FnOnce(&mut Vec<SockRecord>),
) -> Result<Vec<Option<Arc<Socket>>>, NetCkptError> {
    let r = rig(3);
    let a = make_pod(&r, "A", vips.0, 0);
    let b = make_pod(&r, "B", vips.1, 1);

    let listener = b.node().stack.socket(Transport::Tcp, b.vip(), 6);
    listener.bind(Endpoint { ip: b.vip(), port }).unwrap();
    listener.listen(8).unwrap();
    let client = a.node().stack.socket(Transport::Tcp, a.vip(), 6);
    client.connect(Endpoint { ip: b.vip(), port }).unwrap();
    client.connect_wait(TIMEOUT).unwrap();
    let _child = listener.accept_wait(TIMEOUT).unwrap();
    client.write_all_wait(b"some-sendq-bytes", TIMEOUT).unwrap();

    r.net.filter().block_ip(a.vip());
    r.net.filter().block_ip(b.vip());
    let (ma, mut ra) = checkpoint_network(&a);
    let (mb, _rb) = checkpoint_network(&b);
    let cfg = PodConfig::new(a.name(), a.vip());
    a.destroy();
    b.destroy();
    let mut metas: Vec<MetaData> = vec![ma, mb];
    assign_roles(&mut metas);

    mangle(&mut ra);

    let a2 = Pod::create(cfg, &r.nodes[2], &r.clock);
    r.net.set_route(a2.vip(), &r.nodes[2].stack);
    r.net.filter().clear();
    let plan = NetworkRestorePlan {
        my_meta: &metas[0],
        all_meta: &metas,
        records: &ra,
        timeout: TIMEOUT,
        obs: zapc_obs::Observer::disabled(),
    };
    let out = restore_network(&a2, &plan);
    a2.destroy();
    out
}

#[test]
fn pcb_with_sent_behind_acked_fails_typed() {
    let out = restore_mangled((31, 32), 5300, |recs| {
        let pcb = recs[0].pcb.as_mut().unwrap();
        pcb.acked = u64::MAX;
        pcb.sent = 0;
    });
    assert!(
        matches!(out, Err(NetCkptError::Inconsistent(_))),
        "sent < acked must be rejected: {out:?}"
    );
}

#[test]
fn pcb_inflight_span_exceeding_send_queue_fails_typed() {
    // The exact shape that used to overflow in resend arithmetic: a span
    // near u64::MAX over a tiny saved queue.
    let out = restore_mangled((33, 34), 5301, |recs| {
        let pcb = recs[0].pcb.as_mut().unwrap();
        pcb.acked = 1;
        pcb.sent = u64::MAX;
    });
    assert!(
        matches!(out, Err(NetCkptError::Inconsistent(_))),
        "in-flight > send queue must be rejected: {out:?}"
    );
}

#[test]
fn urgent_marks_outside_send_queue_fail_typed() {
    let out = restore_mangled((35, 36), 5302, |recs| {
        recs[0].send_urgent_marks = vec![(u64::MAX - 1, u64::MAX)];
    });
    assert!(
        matches!(out, Err(NetCkptError::Inconsistent(_))),
        "out-of-bounds urgent mark must be rejected: {out:?}"
    );
}

#[test]
fn overlapping_urgent_marks_fail_typed() {
    let out = restore_mangled((37, 38), 5303, |recs| {
        recs[0].send_urgent_marks = vec![(0, 8), (4, 12)];
    });
    assert!(
        matches!(out, Err(NetCkptError::Inconsistent(_))),
        "overlapping urgent marks must be rejected: {out:?}"
    );
}

#[test]
fn listener_carrying_connection_pcb_fails_typed() {
    let out = restore_mangled((39, 40), 5304, |recs| {
        let pcb = recs[0].pcb.take();
        recs[0].listening = true;
        recs[0].backlog = 8;
        recs[0].pcb = pcb;
    });
    assert!(
        matches!(out, Err(NetCkptError::Inconsistent(_))),
        "listener with a PCB must be rejected: {out:?}"
    );
}

#[test]
fn record_count_mismatch_fails_typed() {
    let out = restore_mangled((41, 42), 5305, |recs| {
        recs.pop();
    });
    assert!(
        matches!(out, Err(NetCkptError::Inconsistent(_))),
        "meta/records length mismatch must be rejected: {out:?}"
    );
}

/// A hostile record-count prefix over a near-empty payload: the decode
/// fails typed and the clamp keeps the speculative preallocation bounded
/// (a `SockRecord` is hundreds of bytes in memory — an unclamped
/// `u64::MAX` count used to abort the process inside `Vec::with_capacity`).
#[test]
fn hostile_record_count_fails_typed_without_amplification() {
    for declared in [u64::MAX, u64::MAX / 2, 1 << 40, 1 << 20] {
        let mut w = RecordWriter::new();
        w.put_u64(declared);
        w.put_u8(0xFF);
        let buf = w.into_bytes();
        let out = decode_records(&buf);
        assert!(out.is_err(), "declared {declared} records over 1 byte decoded: {out:?}");
    }
}

/// Hostile sequence numbers straight through the offset math that PR 4
/// rewrote: marks and `una` near `u64::MAX`, inverted marks, marks past
/// the data — the plan degrades byte-exactly, never panics (this test is
/// compiled with debug assertions, where the old absolute-sequence
/// arithmetic aborted on overflow).
#[test]
fn resend_plan_clamps_hostile_marks_byte_exactly() {
    let snap = SendSnapshot {
        una: u64::MAX - 4,
        nxt: u64::MAX - 2,
        data: b"abcdefgh".to_vec(),
        urgent_marks: vec![
            (u64::MAX - 3, u64::MAX),     // valid after rebase: offsets [1, 4)
            (u64::MAX, u64::MAX - 2),     // inverted: vanishes
            (5, u64::MAX),                // start underflows una: clamps to [0, 8) → overlap resolved by runs
            (u64::MAX.wrapping_add(2), 3) // wrapped garbage: vanishes or clamps
        ],
    };
    let plan = snap.resend_plan(0);
    // Every saved byte appears exactly once across the runs, in stream
    // order, and no two adjacent runs share an urgency.
    let all: Vec<u8> = plan.iter().flat_map(|(_, b)| b.iter().copied()).collect();
    assert_eq!(all, b"abcdefgh".to_vec(), "bytes lost, duplicated or reordered: {plan:?}");
    assert!(plan.windows(2).all(|w| w[0].0 != w[1].0), "unmerged runs: {plan:?}");

    // Discard beyond the data: empty plan, no underflow.
    assert!(snap.resend_plan(u64::MAX).is_empty());

    // A clean snapshot for comparison: marks honored byte-exactly.
    let clean = SendSnapshot {
        una: 100,
        nxt: 108,
        data: b"abcdefgh".to_vec(),
        urgent_marks: vec![(102, 104)],
    };
    let plan = clean.resend_plan(0);
    let runs: Vec<(bool, &[u8])> = plan.iter().map(|(u, b)| (*u, &b[..])).collect();
    assert_eq!(runs, [(false, &b"ab"[..]), (true, &b"cd"[..]), (false, &b"efgh"[..])]);
}
