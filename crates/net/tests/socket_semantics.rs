//! Socket-semantics coverage: lifecycle, options, shutdown, backlog,
//! reaping — the corners the checkpoint logic depends on.

use std::sync::Arc;
use std::time::Duration;
use zapc_net::{
    NetError, NetStack, Network, NetworkConfig, OptValue, RecvFlags, Shutdown, SockOpt, Socket,
    SocketState,
};
use zapc_proto::{ConnState, Endpoint, Transport};

const TIMEOUT: Duration = Duration::from_secs(5);

fn ep(h: u8, p: u16) -> Endpoint {
    Endpoint::new(10, 10, 0, h, p)
}

struct Rig {
    net: Network,
    s1: Arc<NetStack>,
    s2: Arc<NetStack>,
}

fn rig() -> Rig {
    let net = Network::new(NetworkConfig {
        latency: Duration::from_micros(20),
        jitter: Duration::ZERO,
        rto: Duration::from_millis(5),
        ..Default::default()
    });
    let s1 = NetStack::new(1, net.handle());
    let s2 = NetStack::new(2, net.handle());
    net.set_route(ep(1, 0).ip, &s1);
    net.set_route(ep(2, 0).ip, &s2);
    Rig { net, s1, s2 }
}

fn pair(r: &Rig, port: u16) -> (Arc<Socket>, Arc<Socket>, Arc<Socket>) {
    let l = r.s2.socket(Transport::Tcp, ep(2, 0).ip, 6);
    l.bind(ep(2, port)).unwrap();
    l.listen(2).unwrap();
    let c = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    c.connect(ep(2, port)).unwrap();
    c.connect_wait(TIMEOUT).unwrap();
    let s = l.accept_wait(TIMEOUT).unwrap();
    (c, l, s)
}

#[test]
fn lifecycle_states() {
    let r = rig();
    let s = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    assert_eq!(s.state(), SocketState::Unbound);
    s.bind(ep(1, 5100)).unwrap();
    assert_eq!(s.state(), SocketState::Bound);
    s.listen(1).unwrap();
    assert_eq!(s.state(), SocketState::Listening);

    let c = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    c.connect(ep(2, 9)).unwrap(); // will be refused eventually
    // The refusal RST is delivered by background scheduler threads, so
    // under host load the socket may already have left Connecting by
    // the time we look.
    let st = c.state();
    assert!(
        st == SocketState::Connecting || st == SocketState::Closed,
        "non-blocking connect should be in flight or already refused, got {st:?}"
    );
}

#[test]
fn options_survive_on_live_socket() {
    let r = rig();
    let (c, _l, s) = pair(&r, 5101);
    c.setsockopt(SockOpt::TcpNoDelay, OptValue::Bool(true)).unwrap();
    assert_eq!(c.getsockopt(SockOpt::TcpNoDelay), OptValue::Bool(true));
    // OOB inline switches urgent routing live.
    s.setsockopt(SockOpt::OobInline, OptValue::Bool(true)).unwrap();
    c.send_oob(b"U").unwrap();
    let got = s.read_exact_wait(1, TIMEOUT).unwrap();
    assert_eq!(got, b"U", "inline urgent data arrives in the stream");
}

#[test]
fn shutdown_read_blocks_reads_but_not_writes() {
    let r = rig();
    let (c, _l, s) = pair(&r, 5102);
    s.shutdown(Shutdown::Read).unwrap();
    c.write_all_wait(b"ignored", TIMEOUT).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    // Reads return EOF-like empty immediately.
    assert_eq!(s.recv(16, RecvFlags::default()).unwrap(), b"");
    // The other direction still works.
    s.write_all_wait(b"still-works", TIMEOUT).unwrap();
    assert_eq!(c.read_exact_wait(11, TIMEOUT).unwrap(), b"still-works");
}

#[test]
fn backlog_overflow_aborts_excess_children() {
    let r = rig();
    let l = r.s2.socket(Transport::Tcp, ep(2, 0).ip, 6);
    l.bind(ep(2, 5103)).unwrap();
    l.listen(1).unwrap(); // room for exactly one pending child

    let c1 = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    c1.connect(ep(2, 5103)).unwrap();
    c1.connect_wait(TIMEOUT).unwrap();
    let c2 = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    c2.connect(ep(2, 5103)).unwrap();
    // c2 completes its handshake but the pending queue is full → aborted.
    let _ = c2.connect_wait(Duration::from_millis(200));
    std::thread::sleep(Duration::from_millis(20));
    let ok1 = c1.state() == SocketState::Connected;
    let dead2 = c2.state() == SocketState::Closed || c2.take_error().is_some();
    assert!(ok1, "first connection survives");
    assert!(dead2, "second connection reset by full backlog");
}

#[test]
fn closing_listener_refuses_pending() {
    let r = rig();
    let l = r.s2.socket(Transport::Tcp, ep(2, 0).ip, 6);
    l.bind(ep(2, 5104)).unwrap();
    l.listen(4).unwrap();
    let c = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    c.connect(ep(2, 5104)).unwrap();
    c.connect_wait(TIMEOUT).unwrap();
    // Never accepted; closing the listener aborts the pending child.
    l.close();
    std::thread::sleep(Duration::from_millis(20));
    let err = c.send(b"x").err().or_else(|| c.take_error());
    assert!(err.is_some(), "pending child was reset");
}

#[test]
fn close_reaps_socket_and_frees_port() {
    let r = rig();
    let (c, _l, s) = pair(&r, 5105);
    let before = r.s1.socket_count();
    c.shutdown(Shutdown::Write).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    // Drain EOFs so both sides are fully closed.
    let dl = std::time::Instant::now() + TIMEOUT;
    while c.state() != SocketState::Closed || s.state() != SocketState::Closed {
        assert!(std::time::Instant::now() < dl, "teardown did not finish");
        std::thread::sleep(Duration::from_millis(1));
    }
    c.close();
    std::thread::sleep(Duration::from_millis(10));
    assert!(r.s1.socket_count() < before, "closed socket reaped from the stack");
    assert_eq!(c.with_inner(|i| i.conn_state()), ConnState::Closed);
}

#[test]
fn poll_reports_oob_and_hup() {
    let r = rig();
    let (c, _l, s) = pair(&r, 5106);
    assert!(!s.poll().oob);
    c.send_oob(b"!").unwrap();
    let dl = std::time::Instant::now() + TIMEOUT;
    while !s.poll().oob {
        assert!(std::time::Instant::now() < dl);
        std::thread::sleep(Duration::from_micros(200));
    }
    c.shutdown(Shutdown::Write).unwrap();
    let dl = std::time::Instant::now() + TIMEOUT;
    while !s.poll().hup {
        assert!(std::time::Instant::now() < dl);
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn oob_peek_leaves_the_urgent_bytes_for_the_oob_read() {
    let r = rig();
    let (c, _l, s) = pair(&r, 5108);
    c.write_all_wait(b"stream", TIMEOUT).unwrap();
    c.send_oob(b"!").unwrap();
    let dl = std::time::Instant::now() + TIMEOUT;
    while !s.poll().oob {
        assert!(std::time::Instant::now() < dl);
        std::thread::sleep(Duration::from_micros(200));
    }
    let peek = RecvFlags { peek: true, oob: true };
    assert_eq!(s.recv(16, peek).unwrap(), b"!");
    assert_eq!(s.recv(16, peek).unwrap(), b"!", "a peek consumes nothing");
    assert_eq!(s.recv(16, RecvFlags { peek: false, oob: true }).unwrap(), b"!");
    assert!(matches!(s.recv(16, peek), Err(NetError::WouldBlock)), "the read consumed it");
    assert_eq!(s.read_exact_wait(6, TIMEOUT).unwrap(), b"stream", "the stream is untouched");
}

#[test]
fn double_bind_rejected_and_rebind_after_close() {
    let r = rig();
    let a = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    a.bind(ep(1, 5107)).unwrap();
    assert_eq!(a.bind(ep(1, 5108)).unwrap_err(), NetError::Invalid, "already bound");
    let b = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    assert_eq!(b.bind(ep(1, 5107)).unwrap_err(), NetError::AddrInUse);
    a.close();
    let c = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
    assert!(c.bind(ep(1, 5107)).is_ok(), "port freed by close");
}

#[test]
fn connected_udp_filters_and_sends() {
    let r = rig();
    let server = r.s2.socket(Transport::Udp, ep(2, 0).ip, 0);
    server.bind(ep(2, 5109)).unwrap();
    let friend = r.s1.socket(Transport::Udp, ep(1, 0).ip, 0);
    friend.bind(ep(1, 5110)).unwrap();
    let stranger = r.s1.socket(Transport::Udp, ep(1, 0).ip, 0);
    stranger.bind(ep(1, 5111)).unwrap();

    server.connect(ep(1, 5110)).unwrap(); // only the friend may talk
    friend.sendto(ep(2, 5109), b"hi").unwrap();
    stranger.sendto(ep(2, 5109), b"spam").unwrap();
    let (d, src) = server.read_datagram_wait(TIMEOUT).unwrap();
    assert_eq!((d.as_slice(), src), (&b"hi"[..], ep(1, 5110)));
    std::thread::sleep(Duration::from_millis(5));
    assert!(!server.poll().readable, "stranger datagram filtered");
    // Connected UDP can use plain send().
    server.send(b"yo").unwrap();
    assert_eq!(friend.read_datagram_wait(TIMEOUT).unwrap().0, b"yo");
}

#[test]
fn stats_track_filter_drops() {
    let r = rig();
    let (c, _l, _s) = pair(&r, 5112);
    r.net.filter().block_ip(ep(2, 0).ip);
    let _ = c.send(b"into the void");
    std::thread::sleep(Duration::from_millis(30));
    assert!(r.net.stats().filtered.load(std::sync::atomic::Ordering::Relaxed) > 0);
    r.net.filter().clear();
}

#[test]
fn connect_does_not_deadlock_against_sockets_for_ip() {
    // `connect` takes socket → stack (it binds an ephemeral port while
    // holding the socket lock); a scan that locked sockets *under* the
    // stack lock would wedge both threads. A watchdog bounds the run: a
    // deadlocked thread can never be joined, only timed out.
    use std::sync::atomic::{AtomicBool, Ordering};
    const ROUNDS: usize = 10_000;
    let r = rig();
    let stop = Arc::new(AtomicBool::new(false));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let connectors: Vec<_> = (0..2)
        .map(|_| {
            let (s1, done) = (Arc::clone(&r.s1), done_tx.clone());
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let c = s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
                    c.connect(ep(2, 9)).unwrap(); // nobody listens; refused later
                    c.close();
                }
                let _ = done.send(());
            })
        })
        .collect();
    let scanners: Vec<_> = (0..2)
        .map(|_| {
            let (s1, stop) = (Arc::clone(&r.s1), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::hint::black_box(s1.sockets_for_ip(ep(1, 0).ip));
                }
            })
        })
        .collect();
    for _ in &connectors {
        if done_rx.recv_timeout(Duration::from_secs(60)).is_err() {
            // Tearing the rig down would block on the wedged stack lock.
            std::mem::forget(r);
            panic!("connect wedged against a concurrent sockets_for_ip");
        }
    }
    stop.store(true, Ordering::SeqCst);
    for t in connectors.into_iter().chain(scanners) {
        t.join().unwrap();
    }
}

/// Several threads may block on one socket: each waiter is woken by the
/// socket's events, not only the one that started waiting last.
#[test]
fn two_threads_blocked_in_accept_on_one_listener_both_return() {
    let r = rig();
    let l = r.s2.socket(Transport::Tcp, ep(2, 0).ip, 6);
    l.bind(ep(2, 5200)).unwrap();
    l.listen(4).unwrap();
    std::thread::scope(|s| {
        let waiters: Vec<_> = (0..2).map(|_| s.spawn(|| l.accept_wait(TIMEOUT))).collect();
        // Both waiters are blocked before the first connection queues.
        std::thread::sleep(Duration::from_millis(20));
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let c = r.s1.socket(Transport::Tcp, ep(1, 0).ip, 6);
                c.connect(ep(2, 5200)).unwrap();
                c.connect_wait(TIMEOUT).unwrap();
                c
            })
            .collect();
        let mut peers: Vec<_> =
            waiters.into_iter().map(|w| w.join().unwrap().unwrap().peer_addr()).collect();
        let mut want: Vec<_> = clients.iter().map(|c| c.local_addr()).collect();
        peers.sort();
        want.sort();
        assert_eq!(peers, want);
    });
}
