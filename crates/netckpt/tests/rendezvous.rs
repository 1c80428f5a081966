//! The reconnection rendezvous under interleavings a scheduler rarely
//! produces, forced here by hand.

use std::sync::Arc;
use std::time::{Duration, Instant};
use zapc_net::{Network, NetworkConfig, OptValue, SegFlags, Segment, SockOpt, Socket, SocketState};
use zapc_netckpt::{
    assign_roles, checkpoint_network, restore_network, NetworkRestorePlan, SockRecord,
};
use zapc_pod::{pod_vip, Pod, PodConfig};
use zapc_proto::{Endpoint, MetaData, RestartRole, Transport};
use zapc_sim::{ClusterClock, Node, NodeConfig, SimFs};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Two nodes, one pod each: A on node 0 and B on node 1.
struct World {
    net: Network,
    nodes: Vec<Arc<Node>>,
    clock: Arc<ClusterClock>,
}

impl World {
    fn new() -> Self {
        let net = Network::new(NetworkConfig {
            latency: Duration::from_micros(30),
            jitter: Duration::from_micros(10),
            rto: Duration::from_millis(5),
            ..Default::default()
        });
        let fs = SimFs::new();
        let nodes = (0..2)
            .map(|i| Node::new(NodeConfig { id: i, cpus: 1 }, net.handle(), Arc::clone(&fs)))
            .collect();
        World { net, nodes, clock: ClusterClock::new() }
    }

    fn pod(&self, cfg: PodConfig, node: usize) -> Arc<Pod> {
        let pod = Pod::create(cfg, &self.nodes[node], &self.clock);
        self.net.set_route(pod.vip(), &self.nodes[node].stack);
        pod
    }

    /// Checkpoints both pods with their addresses blocked, destroys them
    /// and creates empty, routed, unblocked successors, as a restart does
    /// before it restores the network. Returns the successors with the
    /// role-assigned meta-data and the socket records.
    fn restart(&self, pods: [Arc<Pod>; 2]) -> ([Arc<Pod>; 2], Vec<MetaData>, Vec<Vec<SockRecord>>) {
        for p in &pods {
            self.net.filter().block_ip(p.vip());
        }
        let (mut metas, recs): (Vec<MetaData>, Vec<_>) =
            pods.iter().map(|p| checkpoint_network(p)).unzip();
        let cfgs = pods.each_ref().map(|p| PodConfig::new(p.name(), p.vip()));
        for p in pods {
            p.destroy();
            self.net.clear_route(p.vip());
        }
        assign_roles(&mut metas);
        let [cfg_a, cfg_b] = cfgs;
        let pods = [self.pod(cfg_a, 0), self.pod(cfg_b, 1)];
        self.net.filter().clear();
        (pods, metas, recs)
    }
}

fn restore(
    pod: &Arc<Pod>,
    me: usize,
    metas: &[MetaData],
    recs: &[Vec<SockRecord>],
) -> Vec<Option<Arc<Socket>>> {
    let plan = NetworkRestorePlan {
        my_meta: &metas[me],
        all_meta: metas,
        records: &recs[me],
        timeout: Duration::from_secs(3),
        obs: zapc_obs::Observer::disabled(),
    };
    restore_network(pod, &plan).unwrap_or_else(|e| panic!("restore of pod {me}: {e:?}"))
}

fn listen(pod: &Pod, port: u16) -> Arc<Socket> {
    let l = pod.node().stack.socket(Transport::Tcp, pod.vip(), 6);
    l.bind(Endpoint { ip: pod.vip(), port }).unwrap();
    l.listen(8).unwrap();
    l
}

/// Dials `to:port` from `from`; returns `(client, accepted child)`.
fn dial(from: &Pod, to: &Pod, listener: &Socket, port: u16) -> (Arc<Socket>, Arc<Socket>) {
    let c = from.node().stack.socket(Transport::Tcp, from.vip(), 6);
    c.connect(Endpoint { ip: to.vip(), port }).unwrap();
    c.connect_wait(TIMEOUT).unwrap();
    (c, listener.accept_wait(TIMEOUT).unwrap())
}

/// The restored connected socket of `socks` whose peer is `peer`.
fn conn_to(socks: &[Option<Arc<Socket>>], peer: Endpoint) -> Arc<Socket> {
    let conn = socks.iter().flatten().find(|s| s.peer_addr() == Some(peer));
    Arc::clone(conn.expect("restored connection"))
}

/// The dialing or half-open socket of `pod` whose peer is `peer`, once
/// one exists.
fn connecting(pod: &Pod, peer: Endpoint) -> Arc<Socket> {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let socks = pod.node().stack.sockets_for_ip(pod.vip());
        let found = socks
            .into_iter()
            .find(|s| s.peer_addr() == Some(peer) && s.state() == SocketState::Connecting);
        if let Some(s) = found {
            return s;
        }
        assert!(Instant::now() < deadline, "no handshake from {peer:?}");
        std::thread::sleep(Duration::from_micros(100));
    }
}

fn ping_pong(from: &Arc<Socket>, to: &Arc<Socket>) {
    from.write_all_wait(b"ping", TIMEOUT).unwrap();
    assert_eq!(to.read_exact_wait(4, TIMEOUT).unwrap(), b"ping");
    to.write_all_wait(b"pong", TIMEOUT).unwrap();
    assert_eq!(from.read_exact_wait(4, TIMEOUT).unwrap(), b"pong");
}

/// A segment of the old incarnation still on the wire makes the restored
/// connector answer it with a reset that carries the old connection's
/// sequence number. That number falls inside the window of the peer's new
/// half-open child after the child's SYN-ACK has gone out. The connector
/// then completes its handshake with that SYN-ACK and counts the
/// connection as up, so a child that took the reset would leave the
/// peer's acceptor waiting for a connection that never comes ("inbound
/// connections missing"). The half-open child must ignore a reset that
/// does not name exactly the next sequence number it expects.
#[test]
fn a_stale_reset_in_a_half_open_childs_window_leaves_the_child_alone() {
    let w = World::new();
    let a = w.pod(PodConfig::new("A", pod_vip(31)), 0);
    let b = w.pod(PodConfig::new("B", pod_vip(32)), 1);
    let lb = listen(&b, 5000);
    let (ab, _child) = dial(&a, &b, &lb, 5000);
    let a_ep = ab.local_addr().unwrap();
    let b_ep = Endpoint { ip: b.vip(), port: 5000 };
    drop((ab, _child, lb));

    let ([a, b], metas, recs) = w.restart([a, b]);
    let role = metas[0].entries.iter().find(|e| !e.listening && e.src == a_ep).map(|e| e.role);
    assert_eq!(role, Some(RestartRole::Connect), "A redials B");

    // B's answers to A are held back until the stale reset is in.
    w.net.filter().block_link(b.vip(), a.vip());
    let (socks_a, socks_b) = std::thread::scope(|s| {
        let restore_b = s.spawn(|| restore(&b, 1, &metas, &recs));
        let restore_a = s.spawn(|| restore(&a, 0, &metas, &recs));
        // A's SYN has made B's half-open child, whose SYN-ACK is held.
        // Then nothing more of A's reaches B until the reset is in.
        let child = connecting(&b, a_ep);
        w.net.filter().block_link(a.vip(), b.vip());
        std::thread::sleep(Duration::from_millis(5));
        let (rcv_nxt, child_iss) = child.with_inner(|i| {
            let tcb = i.tcb.as_ref().expect("half-open child");
            (tcb.recv.nxt(), tcb.iss)
        });
        let dialer = connecting(&a, b_ep);
        let a_iss = dialer.with_inner(|i| i.tcb.as_ref().expect("dialing").iss);
        b.node().stack.deliver(Segment::tcp(a_ep, b_ep, SegFlags::rst(), rcv_nxt + 100, 0));
        // The SYN-ACK the child sent before the reset reaches A.
        let mut syn_ack = Segment::tcp(b_ep, a_ep, SegFlags::syn_ack(), child_iss, a_iss + 1);
        syn_ack.window = 1 << 16;
        w.net.filter().unblock_link(a.vip(), b.vip());
        a.node().stack.deliver(syn_ack);
        w.net.filter().unblock_link(b.vip(), a.vip());
        (restore_a.join().unwrap(), restore_b.join().unwrap())
    });

    ping_pong(&conn_to(&socks_a, b_ep), &conn_to(&socks_b, a_ep));
    for p in [a, b] {
        p.destroy();
    }
}

/// How many idle sockets pod B holds after its listener, so that its
/// restore spends a while building sockets after the listener's.
const IDLE_SOCKETS: usize = 4000;

/// A peer's connector dials before the restored listener's pod has built
/// its other sockets, so its SYN can land on the listener at the first
/// moment it listens. The child that SYN spawns must already carry its
/// own saved options, which differ from the listener's.
#[test]
fn a_syn_at_the_first_moment_a_restored_listener_listens_gets_the_childs_options() {
    let w = World::new();
    let a = w.pod(PodConfig::new("A", pod_vip(33)), 0);
    let b = w.pod(PodConfig::new("B", pod_vip(34)), 1);
    let lb = listen(&b, 5000);
    let (ab, child) = dial(&a, &b, &lb, 5000);
    child.setsockopt(SockOpt::OobInline, OptValue::Bool(true)).unwrap();
    child.setsockopt(SockOpt::RcvBuf, OptValue::Int(48 * 1024)).unwrap();
    let idle: Vec<_> =
        (0..IDLE_SOCKETS).map(|_| b.node().stack.socket(Transport::Tcp, b.vip(), 6)).collect();
    let a_ep = ab.local_addr().unwrap();
    let b_ep = Endpoint { ip: b.vip(), port: 5000 };
    drop((ab, child, lb, idle));

    let ([a, b], metas, recs) = w.restart([a, b]);
    assert_eq!(recs[1].len(), IDLE_SOCKETS + 2, "B's idle sockets are in its checkpoint");
    let (socks_a, socks_b) = std::thread::scope(|s| {
        // A's connector is dialing before B's restore starts.
        let restore_a = s.spawn(|| restore(&a, 0, &metas, &recs));
        std::thread::sleep(Duration::from_millis(2));
        let socks_b = restore(&b, 1, &metas, &recs);
        (restore_a.join().unwrap(), socks_b)
    });

    let child = conn_to(&socks_b, a_ep);
    assert_eq!(child.getsockopt(SockOpt::OobInline), OptValue::Bool(true));
    assert_eq!(child.getsockopt(SockOpt::RcvBuf), OptValue::Int(48 * 1024));
    ping_pong(&conn_to(&socks_a, b_ep), &child);
    for p in [a, b] {
        p.destroy();
    }
}

/// A pod frozen for a checkpoint can still emit a segment (a teardown FIN,
/// a retransmission) before it is destroyed. Had that segment entered the
/// wire, the freeze could lift and the destination address move to a new
/// incarnation of the peer while it was in flight, and the delivery check
/// would then let it in. The filter drops a blocked source's segments when
/// they are sent.
#[test]
fn a_segment_sent_while_its_source_is_blocked_never_reaches_a_new_incarnation() {
    // A latency long enough that unblocking and rerouting always come
    // before the pump's delivery.
    let net = Network::new(NetworkConfig {
        latency: Duration::from_millis(50),
        jitter: Duration::ZERO,
        ..Default::default()
    });
    let stacks: Vec<_> = (0..3).map(|n| zapc_net::NetStack::new(n, net.handle())).collect();
    let (src_ip, dst_ip) = (pod_vip(35), pod_vip(36));
    let dst = Endpoint { ip: dst_ip, port: 5000 };
    net.set_route(src_ip, &stacks[0]);
    net.set_route(dst_ip, &stacks[1]);
    let bind = |stack: &Arc<zapc_net::NetStack>, ep: Endpoint| {
        let s = stack.socket(Transport::Udp, ep.ip, 17);
        s.bind(ep).unwrap();
        s
    };
    let src = bind(&stacks[0], Endpoint { ip: src_ip, port: 4000 });
    let _old = bind(&stacks[1], dst);

    net.filter().block_ip(src_ip);
    src.sendto(dst, b"stale").unwrap();
    // The peer's new incarnation takes over its address, and the source's
    // freeze lifts, while the datagram would still be in flight.
    let new = bind(&stacks[2], dst);
    net.set_route(dst_ip, &stacks[2]);
    net.filter().unblock_ip(src_ip);

    let got = new.read_datagram_wait(Duration::from_millis(300));
    assert!(got.is_err(), "a frozen source's datagram reached the new incarnation: {got:?}");
    assert_eq!(net.stats().delivered.load(std::sync::atomic::Ordering::Relaxed), 0);
    // Once unblocked, the source reaches the new incarnation as usual.
    src.sendto(dst, b"fresh").unwrap();
    assert_eq!(new.read_datagram_wait(TIMEOUT).unwrap().0, b"fresh");
}
