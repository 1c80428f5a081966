//! End-to-end network-state checkpoint/restore between pods (§5).
//!
//! These tests drive sockets directly (no application programs) so each
//! queue configuration is constructed deterministically: overlap between
//! send and receive queues, urgent data, unread data on closed
//! connections, pending (unaccepted) children, and UDP/raw queues.

use std::sync::Arc;
use std::time::Duration;
use zapc_net::{Network, NetworkConfig, RecvFlags, Shutdown, Socket};
use zapc_netckpt::{
    assign_roles, checkpoint_network, restore_network, NetCkptError, NetCkptResult,
    NetworkRestorePlan, SockRecord,
};
use zapc_pod::{pod_vip, Pod, PodConfig};
use zapc_proto::{Endpoint, MetaData, Transport};
use zapc_sim::{ClusterClock, Node, NodeConfig, SimFs};

const TIMEOUT: Duration = Duration::from_secs(10);

struct Rig {
    net: Network,
    nodes: Vec<Arc<Node>>,
    clock: Arc<ClusterClock>,
}

fn rig(n: u32) -> Rig {
    rig_with_rto(n, Duration::from_millis(5))
}

fn rig_with_rto(n: u32, rto: Duration) -> Rig {
    let net = Network::new(NetworkConfig {
        latency: Duration::from_micros(30),
        jitter: Duration::from_micros(10),
        rto,
        ..Default::default()
    });
    let fs = SimFs::new();
    let nodes =
        (0..n).map(|i| Node::new(NodeConfig { id: i, cpus: 1 }, net.handle(), Arc::clone(&fs))).collect();
    Rig { net, nodes, clock: ClusterClock::new() }
}

fn make_pod(r: &Rig, name: &str, vipn: u16, node: usize) -> Arc<Pod> {
    let pod = Pod::create(PodConfig::new(name, pod_vip(vipn)), &r.nodes[node], &r.clock);
    r.net.set_route(pod.vip(), &r.nodes[node].stack);
    pod
}

fn ep(vipn: u16, port: u16) -> Endpoint {
    Endpoint { ip: pod_vip(vipn), port }
}

/// Connects a socket in pod A to a listener in pod B; returns
/// `(client, listener, server_child)`.
fn connect_pods(a: &Pod, b: &Pod, port: u16) -> (Arc<Socket>, Arc<Socket>, Arc<Socket>) {
    let listener = b.node().stack.socket(Transport::Tcp, b.vip(), 6);
    listener.bind(Endpoint { ip: b.vip(), port }).unwrap();
    listener.listen(8).unwrap();
    let client = a.node().stack.socket(Transport::Tcp, a.vip(), 6);
    client.connect(Endpoint { ip: b.vip(), port }).unwrap();
    client.connect_wait(TIMEOUT).unwrap();
    let child = listener.accept_wait(TIMEOUT).unwrap();
    (client, listener, child)
}

/// [`connect_pods`] with `SO_OOBINLINE` set on the accepted child only.
/// The restored listener builds the re-accepted child with the child's
/// own saved options, so it reads urgent bytes inline from its first
/// segment, even when the peer replays its send queue before the accept.
fn connect_oob_inline(a: &Pod, b: &Pod, port: u16) -> (Arc<Socket>, Arc<Socket>, Arc<Socket>) {
    use zapc_net::{OptValue, SockOpt};
    let (client, listener, child) = connect_pods(a, b, port);
    child.setsockopt(SockOpt::OobInline, OptValue::Bool(true)).unwrap();
    (client, listener, child)
}

/// What a checkpoint leaves once its pods are gone: each pod's meta-data
/// (reconnection roles assigned), socket records and configuration.
struct Cut {
    metas: Vec<MetaData>,
    recs: Vec<Vec<SockRecord>>,
    cfgs: Vec<PodConfig>,
}

/// Freezes the pods (netfilter; Agent step 1), checkpoints their network
/// state (step 2), destroys them and drops their routes (the migration
/// case, step 4), and assigns the reconnection schedule (the Manager).
fn cut(r: &Rig, pods: Vec<Arc<Pod>>) -> Cut {
    for p in &pods {
        r.net.filter().block_ip(p.vip());
    }
    let (mut metas, recs): (Vec<MetaData>, Vec<_>) =
        pods.iter().map(|p| checkpoint_network(p)).unzip();
    let cfgs = pods.iter().map(|p| PodConfig::new(p.name(), p.vip())).collect();
    for p in pods {
        p.destroy();
        r.net.clear_route(p.vip());
    }
    assign_roles(&mut metas);
    zapc_netckpt::schedule::validate_schedule(&metas).unwrap();
    Cut { metas, recs, cfgs }
}

/// Creates a pod from `cfg` on node `node` and routes its virtual IP there.
fn recreate(r: &Rig, cfg: PodConfig, node: usize) -> Arc<Pod> {
    let pod = Pod::create(cfg, &r.nodes[node], &r.clock);
    r.net.set_route(pod.vip(), &r.nodes[node].stack);
    pod
}

/// Recreates a cut's pods on `nodes` and thaws the network, including any
/// directional link rules a test added to construct its scenario.
fn rebuild(r: &Rig, cfgs: Vec<PodConfig>, nodes: &[usize]) -> Vec<Arc<Pod>> {
    let pods = cfgs.into_iter().zip(nodes).map(|(cfg, &n)| recreate(r, cfg, n)).collect();
    r.net.filter().clear();
    pods
}

/// Restores pod `me` of a cut within `timeout`.
fn restore(
    pod: &Arc<Pod>,
    metas: &[MetaData],
    me: usize,
    records: &[SockRecord],
    timeout: Duration,
) -> NetCkptResult<Vec<Option<Arc<Socket>>>> {
    let plan = NetworkRestorePlan {
        my_meta: &metas[me],
        all_meta: metas,
        records,
        timeout,
        obs: zapc_obs::Observer::disabled(),
    };
    restore_network(pod, &plan)
}

/// Cuts the pods, rebuilds them on `dst_nodes`, restores concurrently
/// (each Agent runs its own), and returns the restored socket vectors.
#[allow(clippy::type_complexity)]
fn migrate_network(
    r: &Rig,
    pods: Vec<Arc<Pod>>,
    dst_nodes: Vec<usize>,
) -> (Vec<Arc<Pod>>, Vec<Vec<Option<Arc<Socket>>>>) {
    let Cut { metas, recs, cfgs } = cut(r, pods);
    let new_pods = rebuild(r, cfgs, &dst_nodes);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = new_pods
            .iter()
            .zip(&recs)
            .enumerate()
            .map(|(i, (pod, rcs))| {
                let metas = &metas;
                s.spawn(move || restore(pod, metas, i, rcs, TIMEOUT).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (new_pods, results)
}

fn drain(sock: &Arc<Socket>, n: usize) -> Vec<u8> {
    sock.read_exact_wait(n, TIMEOUT).unwrap()
}

#[test]
fn established_connection_with_unread_data_survives_migration() {
    let r = rig(4);
    let a = make_pod(&r, "A", 1, 0);
    let b = make_pod(&r, "B", 2, 1);
    let (client, _listener, server) = connect_pods(&a, &b, 5000);

    // Client → server data that the app has NOT read yet.
    client.write_all_wait(b"queued-before-ckpt", TIMEOUT).unwrap();
    // Wait until delivered (kernel queue, not in flight).
    let dl = std::time::Instant::now() + TIMEOUT;
    while !server.poll().readable {
        assert!(std::time::Instant::now() < dl);
        std::thread::sleep(Duration::from_micros(200));
    }

    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
    // Server pod: find the restored child (ordinal 1: listener was 0).
    let server2 = socks[1][1].clone().expect("restored child");
    assert_eq!(drain(&server2, 18), b"queued-before-ckpt");

    // The connection still works for fresh data in both directions.
    let client2 = socks[0][0].clone().expect("restored client");
    client2.write_all_wait(b"post-restart", TIMEOUT).unwrap();
    assert_eq!(drain(&server2, 12), b"post-restart");
    server2.write_all_wait(b"reply", TIMEOUT).unwrap();
    assert_eq!(drain(&client2, 5), b"reply");
    for p in pods {
        p.destroy();
    }
}

#[test]
fn overlap_between_send_and_receive_queue_discarded() {
    // Construct recv₁ > acked₂ deterministically: block the ack direction
    // so data is delivered but acknowledgments are lost (Figure 4).
    let r = rig(4);
    let a = make_pod(&r, "A", 3, 0);
    let b = make_pod(&r, "B", 4, 1);
    let (client, _listener, server) = connect_pods(&a, &b, 5001);

    r.net.filter().block_link(pod_vip(4), pod_vip(3)); // acks b→a die
    client.write_all_wait(b"overlap-bytes", TIMEOUT).unwrap();
    let dl = std::time::Instant::now() + TIMEOUT;
    loop {
        let delivered = server.with_inner(|i| {
            i.tcb.as_ref().map(|t| t.recv.readable()).unwrap_or(0)
        });
        if delivered == 13 {
            break;
        }
        assert!(std::time::Instant::now() < dl, "data never delivered");
        std::thread::sleep(Duration::from_micros(200));
    }
    // Sender's PCB shows nothing acked; receiver's shows all received.
    let sender_acked = client.with_inner(|i| i.tcb.as_ref().unwrap().pcb_extract().acked);
    let recv_nxt = server.with_inner(|i| i.tcb.as_ref().unwrap().pcb_extract().recv);
    assert!(recv_nxt > sender_acked, "overlap exists: the Figure 4 scenario");
    assert_eq!(recv_nxt - sender_acked, 13);

    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
    let client2 = socks[0][0].clone().unwrap();
    let server2 = socks[1][1].clone().unwrap();
    // Exactly one copy arrives: no duplication (discard) and no loss.
    assert_eq!(drain(&server2, 13), b"overlap-bytes");
    std::thread::sleep(Duration::from_millis(5));
    assert!(!server2.poll().readable, "no duplicate data after restore");
    // Connection remains usable.
    server2.write_all_wait(b"ok", TIMEOUT).unwrap();
    assert_eq!(drain(&client2, 2), b"ok");
    for p in pods {
        p.destroy();
    }
}

#[test]
fn checkpoint_in_fast_recovery_survives_restore_and_a_second_checkpoint() {
    // The Figure 4 overlap again, with the sender in fast recovery: the
    // recovery point sits at the end of a send queue that the restore
    // discards entirely (the peer already holds every byte). The restored
    // connection must not carry a recovery point beyond its — now empty —
    // send queue, or its *next* checkpoint is rejected at restore.
    let r = rig(4);
    let a = make_pod(&r, "A", 3, 0);
    let b = make_pod(&r, "B", 4, 1);
    let (client, _listener, server) = connect_pods(&a, &b, 5002);

    r.net.filter().block_link(pod_vip(4), pod_vip(3)); // acks b→a die
    client.write_all_wait(b"overlap-bytes", TIMEOUT).unwrap();
    let dl = std::time::Instant::now() + TIMEOUT;
    while server.with_inner(|i| i.tcb.as_ref().map_or(0, |t| t.recv.readable())) != 13 {
        assert!(std::time::Instant::now() < dl, "data never delivered");
        std::thread::sleep(Duration::from_micros(200));
    }
    client.with_inner(|i| {
        let t = i.tcb.as_mut().unwrap();
        t.cc.dup_acks = 3;
        t.cc.recover = Some(t.send.nxt());
        assert!(t.cc.in_recovery());
    });

    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
    let client2 = socks[0][0].clone().unwrap();
    assert!(
        !client2.with_inner(|i| i.tcb.as_ref().unwrap().cc.in_recovery()),
        "everything up to the recovery point was already received"
    );

    // Checkpoint → restore once more, straight away.
    let (pods, socks) = migrate_network(&r, pods, vec![0, 1]);
    let server3 = socks[1][1].clone().unwrap();
    assert_eq!(drain(&server3, 13), b"overlap-bytes");
    for p in pods {
        p.destroy();
    }
}

#[test]
fn urgent_data_survives_checkpoint() {
    let r = rig(4);
    let a = make_pod(&r, "A", 5, 0);
    let b = make_pod(&r, "B", 6, 1);
    let (client, _l, server) = connect_pods(&a, &b, 5002);

    client.write_all_wait(b"normal", TIMEOUT).unwrap();
    client.send_oob(b"U").unwrap();
    let dl = std::time::Instant::now() + TIMEOUT;
    while !server.poll().oob {
        assert!(std::time::Instant::now() < dl);
        std::thread::sleep(Duration::from_micros(200));
    }

    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
    let server2 = socks[1][1].clone().unwrap();
    assert_eq!(drain(&server2, 6), b"normal");
    let oob = server2.recv(8, RecvFlags { oob: true, peek: false }).unwrap();
    assert_eq!(oob, b"U", "urgent data restored to the OOB queue");
    for p in pods {
        p.destroy();
    }
}

/// Urgent data across checkpoint-restart under *both* `SO_OOBINLINE`
/// settings, byte-exactly: with inlining off the urgent bytes restore to
/// the OOB queue and the normal stream is seamless around them; with
/// inlining on they restore embedded at their exact position in the
/// stream. The option itself must also survive (§5: "the entire set of
/// socket parameters").
#[test]
fn urgent_data_byte_exact_under_both_oob_inline_settings() {
    use zapc_net::{OptValue, SockOpt};
    for (i, inline) in [false, true].into_iter().enumerate() {
        let r = rig(4);
        let vipn = 21 + 2 * i as u16;
        let a = make_pod(&r, "A", vipn, 0);
        let b = make_pod(&r, "B", vipn + 1, 1);
        let (client, _l, server) = connect_pods(&a, &b, 5400 + i as u16);
        server.setsockopt(SockOpt::OobInline, OptValue::Bool(inline)).unwrap();

        client.write_all_wait(b"pre-", TIMEOUT).unwrap();
        client.send_oob(b"XY").unwrap();
        client.write_all_wait(b"-post", TIMEOUT).unwrap();
        // Wait for full delivery: 11 bytes total, routed by the option.
        let (want_stream, want_oob) = if inline { (11, 0) } else { (9, 2) };
        let dl = std::time::Instant::now() + TIMEOUT;
        loop {
            let (s, o) = server.with_inner(|inner| {
                let t = inner.tcb.as_ref().unwrap();
                (t.recv.readable(), t.recv.urgent_len())
            });
            if s == want_stream && o == want_oob {
                break;
            }
            assert!(std::time::Instant::now() < dl, "delivery stalled at {s}/{o} (inline={inline})");
            std::thread::sleep(Duration::from_micros(200));
        }

        let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
        let server2 = socks[1][1].clone().unwrap();
        // The option survived the restore.
        assert_eq!(
            server2.getsockopt(SockOpt::OobInline),
            OptValue::Bool(inline),
            "SO_OOBINLINE lost across restart"
        );
        if inline {
            assert_eq!(drain(&server2, 11), b"pre-XY-post", "inline urgent bytes misplaced");
        } else {
            assert_eq!(drain(&server2, 9), b"pre--post", "normal stream not seamless");
            let oob = server2.recv(8, RecvFlags { oob: true, peek: false }).unwrap();
            assert_eq!(oob, b"XY", "urgent bytes lost from the OOB queue");
        }
        // Still a live connection either way.
        server2.write_all_wait(b"ack", TIMEOUT).unwrap();
        let client2 = socks[0][0].clone().unwrap();
        assert_eq!(drain(&client2, 3), b"ack");
        for p in pods {
            p.destroy();
        }
    }
}

/// A send queue with urgent data in its middle, none of it acked or
/// delivered at the cut, replays in stream order: a receiver with
/// `SO_OOBINLINE` reads the urgent bytes where they were written, not
/// after every normal byte (`pre--postXY`).
#[test]
fn unacked_urgent_send_queue_replays_in_stream_order() {
    let r = rig(4);
    let a = make_pod(&r, "A", 25, 0);
    let b = make_pod(&r, "B", 26, 1);
    let (client, _l, _server) = connect_oob_inline(&a, &b, 5410);
    r.net.filter().block_ip(a.vip());
    r.net.filter().block_ip(b.vip());
    client.write_all_wait(b"pre-", TIMEOUT).unwrap();
    client.send_oob(b"XY").unwrap();
    client.write_all_wait(b"-post", TIMEOUT).unwrap();

    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
    let server2 = socks[1][1].clone().unwrap();
    let stream = drain(&server2, 11);
    assert_eq!(
        String::from_utf8_lossy(&stream),
        "pre-XY-post",
        "urgent bytes replayed out of order"
    );
    for p in pods {
        p.destroy();
    }
}

#[test]
fn closed_connection_with_unread_data() {
    let r = rig(4);
    let a = make_pod(&r, "A", 9, 0);
    let b = make_pod(&r, "B", 10, 1);
    let (client, _l, server) = connect_pods(&a, &b, 5004);

    client.write_all_wait(b"parting-gift", TIMEOUT).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    // Wait for FIN to land.
    let dl = std::time::Instant::now() + TIMEOUT;
    while !server.with_inner(|i| i.tcb.as_ref().unwrap().recv.fin_reached()) {
        assert!(std::time::Instant::now() < dl);
        std::thread::sleep(Duration::from_micros(200));
    }

    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
    let server2 = socks[1][1].clone().unwrap();
    // The unread data is still there…
    assert_eq!(drain(&server2, 12), b"parting-gift");
    // …followed by EOF (the shutdown was replayed).
    let dl = std::time::Instant::now() + TIMEOUT;
    loop {
        match server2.recv(8, RecvFlags::default()) {
            Ok(d) if d.is_empty() => break,
            Ok(d) => panic!("unexpected data {d:?}"),
            Err(zapc_net::NetError::WouldBlock) => {
                assert!(std::time::Instant::now() < dl, "EOF never arrived");
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("{e}"),
        }
    }
    for p in pods {
        p.destroy();
    }
}

/// Regression: a fully-closed connection whose connect-role side restores
/// *before* the accept-role side has bound its listener. The early dials
/// are refused; the connector must keep retrying rather than handing back
/// a dead socket, or the late acceptor starves into an
/// "inbound connections missing" timeout.
#[test]
fn closed_connection_restore_tolerates_late_acceptor() {
    use zapc_proto::{ConnState, RestartRole};
    let r = rig(4);
    let a = make_pod(&r, "A", 17, 0);
    let b = make_pod(&r, "B", 18, 1);
    let (client, _l, server) = connect_pods(&a, &b, 5007);

    client.write_all_wait(b"last-words", TIMEOUT).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    server.shutdown(Shutdown::Write).unwrap();
    // Wait for both FIN exchanges: the connection must be saved Closed.
    let dl = std::time::Instant::now() + TIMEOUT;
    let closed =
        |s: &Arc<Socket>| s.with_inner(|i| i.conn_state()) == ConnState::Closed;
    while !(closed(&client) && closed(&server)) {
        assert!(std::time::Instant::now() < dl, "close never completed");
        std::thread::sleep(Duration::from_micros(200));
    }

    // Checkpoint + destroy, as migrate_network does, but restore with the
    // accept-role pod starting late.
    let Cut { metas, recs, cfgs } = cut(&r, vec![a, b]);
    let accept_side = metas
        .iter()
        .position(|m| {
            m.entries.iter().any(|e| {
                !e.listening
                    && e.state == ConnState::Closed
                    && e.role == RestartRole::Accept
            })
        })
        .expect("one side must re-accept the closed connection");

    let new_pods = rebuild(&r, cfgs, &[2, 3]);

    let socks: Vec<Vec<Option<Arc<Socket>>>> = std::thread::scope(|s| {
        let handles: Vec<_> = new_pods
            .iter()
            .zip(&recs)
            .enumerate()
            .map(|(i, (pod, rcs))| {
                let metas = &metas;
                s.spawn(move || {
                    if i == accept_side {
                        // Give the connector a head start so its first
                        // dials are refused (no listener yet).
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    restore(pod, metas, i, rcs, TIMEOUT).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The unread data survived on the server half, followed by EOF.
    let server2 = socks[1][1].clone().unwrap();
    assert_eq!(drain(&server2, 10), b"last-words");
    for p in new_pods {
        p.destroy();
    }
}

#[test]
fn restore_connector_does_not_wait_out_the_rto_for_a_late_peer_pod() {
    use zapc_proto::RestartRole;
    // Which Agent creates its pod first is host scheduling. A connector
    // whose SYN finds the peer's address not routed yet gets no answer at
    // all; it must re-send, not sit out the wire's RTO (500 ms here).
    let r = rig_with_rto(4, Duration::from_millis(500));
    let a = make_pod(&r, "A", 19, 0);
    let b = make_pod(&r, "B", 20, 1);
    let (client, _l, _server) = connect_pods(&a, &b, 5008);
    client.write_all_wait(b"in flight", TIMEOUT).unwrap();

    let Cut { metas, recs, cfgs } = cut(&r, vec![a, b]);
    let accept_side = metas
        .iter()
        .position(|m| m.entries.iter().any(|e| !e.listening && e.role == RestartRole::Accept))
        .expect("one side must re-accept the connection");
    r.net.filter().clear();

    let t0 = std::time::Instant::now();
    let pods: Vec<Arc<Pod>> = std::thread::scope(|s| {
        let handles: Vec<_> = cfgs
            .into_iter()
            .zip(&recs)
            .enumerate()
            .map(|(i, (cfg, rcs))| {
                let (r, metas) = (&r, &metas);
                s.spawn(move || {
                    if i == accept_side {
                        // The peer Agent is merely slower: its pod exists,
                        // routed and listening, 5 ms late.
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    let pod = recreate(r, cfg, i + 2);
                    restore(&pod, metas, i, rcs, TIMEOUT).unwrap();
                    pod
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "restore waited out an RTO: {took:?}");
    for p in pods {
        p.destroy();
    }
}

#[test]
fn pending_unaccepted_child_requeued() {
    let r = rig(4);
    let a = make_pod(&r, "A", 11, 0);
    let b = make_pod(&r, "B", 12, 1);
    // B listens; A connects; B never accepts.
    let listener = b.node().stack.socket(Transport::Tcp, b.vip(), 6);
    listener.bind(ep(12, 5005)).unwrap();
    listener.listen(8).unwrap();
    let client = a.node().stack.socket(Transport::Tcp, a.vip(), 6);
    client.connect(ep(12, 5005)).unwrap();
    client.connect_wait(TIMEOUT).unwrap();
    client.write_all_wait(b"early", TIMEOUT).unwrap();
    std::thread::sleep(Duration::from_millis(5)); // let it land in the child

    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
    // The restored listener has the child pending again.
    let listener2 = socks[1][0].clone().unwrap();
    let child = listener2.accept_wait(TIMEOUT).unwrap();
    assert_eq!(child.read_exact_wait(5, TIMEOUT).unwrap(), b"early");
    for p in pods {
        p.destroy();
    }
}

#[test]
fn datagram_queue_and_peek_flag_survive() {
    // UDP and raw IP are one case for the checkpoint; the raw socket
    // captures protocol 89 and its bind keeps the address it was given.
    for (transport, proto) in [(Transport::Udp, 0), (Transport::RawIp, 89)] {
        let r = rig(4);
        let a = make_pod(&r, "A", 13, 0);
        let b = make_pod(&r, "B", 14, 1);
        let rx = b.node().stack.socket(transport, b.vip(), proto);
        rx.bind(ep(14, 9000)).unwrap();
        let tx = a.node().stack.socket(transport, a.vip(), proto);
        tx.bind(ep(13, 9001)).unwrap();
        tx.sendto(ep(14, 9000), b"dgram-a").unwrap();
        tx.sendto(ep(14, 9000), b"dgram-b").unwrap();
        let dl = std::time::Instant::now() + TIMEOUT;
        while rx.with_inner(|i| i.dgram.as_ref().unwrap().queue.len()) < 2 {
            assert!(std::time::Instant::now() < dl, "{transport:?}");
            std::thread::sleep(Duration::from_micros(200));
        }
        // Application peeked: queue must be preserved even for unreliable
        // transports (§5).
        let _ = rx.recvfrom(64, RecvFlags { peek: true, oob: false }).unwrap();

        let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
        let rx2 = socks[1][0].clone().unwrap();
        let (d1, src1) = rx2.read_datagram_wait(TIMEOUT).unwrap();
        assert_eq!(d1, b"dgram-a", "{transport:?}");
        assert_eq!(src1, ep(13, 9001), "{transport:?}: virtual source address preserved");
        let (d2, _) = rx2.read_datagram_wait(TIMEOUT).unwrap();
        assert_eq!(d2, b"dgram-b", "{transport:?}");
        assert!(rx2.with_inner(|i| i.dgram.as_ref().unwrap().queue.was_peeked()));
        // The sender still reaches the receiver at its new home.
        let tx2 = socks[0][0].clone().unwrap();
        tx2.sendto(ep(14, 9000), b"fresh").unwrap();
        assert_eq!(rx2.read_datagram_wait(TIMEOUT).unwrap().0, b"fresh", "{transport:?}");
        if transport == Transport::RawIp {
            // The restored capture still takes only its own protocol.
            let other = pods[0].node().stack.socket(Transport::RawIp, pods[0].vip(), 90);
            other.sendto(ep(14, 9000), b"other-proto").unwrap();
            std::thread::sleep(Duration::from_millis(5));
            assert!(!rx2.poll().readable, "protocol 90 reached a protocol-89 capture");
        }
        for p in pods {
            p.destroy();
        }
    }
}

#[test]
fn n_to_m_restart_both_pods_on_one_node() {
    // N=2 nodes → M=1 node: both pods land on node 2.
    let r = rig(3);
    let a = make_pod(&r, "A", 15, 0);
    let b = make_pod(&r, "B", 16, 1);
    let (client, _l, server) = connect_pods(&a, &b, 5006);
    client.write_all_wait(b"to-one-node", TIMEOUT).unwrap();
    let dl = std::time::Instant::now() + TIMEOUT;
    while !server.poll().readable {
        assert!(std::time::Instant::now() < dl);
        std::thread::sleep(Duration::from_micros(200));
    }

    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 2]);
    let server2 = socks[1][1].clone().unwrap();
    assert_eq!(drain(&server2, 11), b"to-one-node");
    let client2 = socks[0][0].clone().unwrap();
    client2.write_all_wait(b"still-works", TIMEOUT).unwrap();
    assert_eq!(drain(&server2, 11), b"still-works");
    for p in pods {
        p.destroy();
    }
}

#[test]
fn double_checkpoint_saves_alternate_queue() {
    // §5: "the checkpoint procedure must save the state of the alternate
    // queue, if applicable (e.g. if a second checkpoint is taken before
    // the application reads its pending data)."
    let r = rig(6);
    let a = make_pod(&r, "A", 17, 0);
    let b = make_pod(&r, "B", 18, 1);
    let (client, _l, server) = connect_pods(&a, &b, 5007);
    client.write_all_wait(b"first-round", TIMEOUT).unwrap();
    let dl = std::time::Instant::now() + TIMEOUT;
    while !server.poll().readable {
        assert!(std::time::Instant::now() < dl);
        std::thread::sleep(Duration::from_micros(200));
    }

    // First migration: data moves into the alternate queue.
    let (pods, socks) = migrate_network(&r, vec![a, b], vec![2, 3]);
    let server_mid = socks[1][1].clone().unwrap();
    assert!(server_mid.is_interposed(), "alt queue installed after restore");

    // Second migration *without the app reading anything*.
    let (pods2, socks2) = migrate_network(&r, pods, vec![4, 5]);
    let server_final = socks2[1][1].clone().unwrap();
    assert_eq!(drain(&server_final, 11), b"first-round", "data survived two hops");
    let client_final = socks2[0][0].clone().unwrap();
    client_final.write_all_wait(b"after", TIMEOUT).unwrap();
    assert_eq!(drain(&server_final, 5), b"after");
    for p in pods2 {
        p.destroy();
    }
}

/// A hostile image whose saved send queue is one 4 MiB urgent span: more
/// than the sender's buffer plus the window of a peer that reads urgent
/// data inline, and the peer's application resumes only after every
/// restore finishes, so it can never drain. The restore must give up at
/// its deadline with a typed timeout instead of spinning; a watchdog
/// catches a wedged restore.
#[test]
fn hostile_urgent_send_span_times_out_instead_of_wedging_the_restore() {
    const SPAN: usize = 4 << 20;
    let r = rig(4);
    let a = make_pod(&r, "A", 27, 0);
    let b = make_pod(&r, "B", 28, 1);
    let (_client, _l, _server) = connect_oob_inline(&a, &b, 5420);
    let Cut { metas, mut recs, cfgs } = cut(&r, vec![a, b]);
    let client_rec = &mut recs[0][0];
    assert!(client_rec.pcb.is_some(), "the client's connection record");
    client_rec.send_data = vec![b'!'; SPAN];
    client_rec.send_urgent_marks = vec![(0, SPAN as u64)];

    let pods = rebuild(&r, cfgs, &[2, 3]);
    let metas = Arc::new(metas);
    let (tx, rx) = std::sync::mpsc::channel();
    let restores: Vec<_> = pods
        .iter()
        .zip(recs)
        .enumerate()
        .map(|(i, (pod, rcs))| {
            let (pod, metas, tx) = (Arc::clone(pod), Arc::clone(&metas), tx.clone());
            std::thread::spawn(move || {
                let out = restore(&pod, &metas, i, &rcs, Duration::from_secs(2)).map(drop);
                let _ = tx.send(());
                out
            })
        })
        .collect();
    // A wedged restore never returns: the watchdog fails the test rather
    // than join its thread.
    for _ in &restores {
        rx.recv_timeout(Duration::from_secs(30)).expect("watchdog: restore wedged");
    }
    let outs: Vec<NetCkptResult<()>> = restores.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        matches!(outs[0], Err(NetCkptError::Timeout(_))),
        "hostile span restored as {:?}, want a typed timeout",
        outs[0]
    );
    assert!(outs[1].is_ok(), "the peer's restore: {:?}", outs[1]);
    for p in pods {
        p.destroy();
    }
}
