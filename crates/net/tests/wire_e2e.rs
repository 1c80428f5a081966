//! End-to-end exercises of the full stack: sockets on two nodes talking
//! through the routed wire with its pump thread, latency, loss injection,
//! and the netfilter.

use std::sync::Arc;
use std::time::Duration;
use zapc_net::{
    Netfilter, NetStack, Network, NetworkConfig, RecvFlags, Shutdown, Socket, SocketState,
};
use zapc_proto::{Endpoint, Transport};

const TIMEOUT: Duration = Duration::from_secs(5);

fn ep(host: u8, port: u16) -> Endpoint {
    Endpoint::new(10, 10, 0, host, port)
}

struct Cluster {
    net: Network,
    stacks: Vec<Arc<NetStack>>,
}

/// Two nodes, one virtual IP each (10.10.0.1 and 10.10.0.2).
fn two_nodes(cfg: NetworkConfig) -> Cluster {
    let net = Network::new(cfg);
    let s1 = NetStack::new(1, net.handle());
    let s2 = NetStack::new(2, net.handle());
    net.set_route(ep(1, 0).ip, &s1);
    net.set_route(ep(2, 0).ip, &s2);
    Cluster { net, stacks: vec![s1, s2] }
}

fn fast_cfg() -> NetworkConfig {
    NetworkConfig {
        latency: Duration::from_micros(30),
        jitter: Duration::from_micros(10),
        rto: Duration::from_millis(5),
        ..Default::default()
    }
}

fn connect_pair(c: &Cluster, port: u16) -> (Arc<Socket>, Arc<Socket>) {
    let listener = c.stacks[1].socket(Transport::Tcp, ep(2, 0).ip, 6);
    listener.bind(ep(2, port)).unwrap();
    listener.listen(8).unwrap();
    let client = c.stacks[0].socket(Transport::Tcp, ep(1, 0).ip, 6);
    client.connect(ep(2, port)).unwrap();
    client.connect_wait(TIMEOUT).unwrap();
    let server = listener.accept_wait(TIMEOUT).unwrap();
    (client, server)
}

#[test]
fn tcp_connect_send_recv() {
    let c = two_nodes(fast_cfg());
    let (client, server) = connect_pair(&c, 5000);
    assert_eq!(client.state(), SocketState::Connected);
    assert_eq!(server.peer_addr(), client.local_addr());
    assert_eq!(server.local_addr(), Some(ep(2, 5000)), "child inherits listener port");

    client.write_all_wait(b"hello over the wire", TIMEOUT).unwrap();
    let got = server.read_exact_wait(19, TIMEOUT).unwrap();
    assert_eq!(got, b"hello over the wire");

    // And the other direction.
    server.write_all_wait(b"pong", TIMEOUT).unwrap();
    assert_eq!(client.read_exact_wait(4, TIMEOUT).unwrap(), b"pong");
}

#[test]
fn tcp_connection_refused() {
    let c = two_nodes(fast_cfg());
    let client = c.stacks[0].socket(Transport::Tcp, ep(1, 0).ip, 6);
    client.connect(ep(2, 9999)).unwrap();
    let err = client.connect_wait(TIMEOUT).unwrap_err();
    assert_eq!(err, zapc_net::NetError::ConnRefused);
}

#[test]
fn tcp_urgent_data_separate_channel() {
    let c = two_nodes(fast_cfg());
    let (client, server) = connect_pair(&c, 5001);
    client.write_all_wait(b"normal", TIMEOUT).unwrap();
    client.send_oob(b"!").unwrap();
    assert_eq!(server.read_exact_wait(6, TIMEOUT).unwrap(), b"normal");
    // Poll until the urgent byte lands.
    let deadline = std::time::Instant::now() + TIMEOUT;
    loop {
        if server.poll().oob {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "urgent byte never arrived");
        std::thread::sleep(Duration::from_micros(200));
    }
    let oob = server.recv(16, RecvFlags { oob: true, peek: false }).unwrap();
    assert_eq!(oob, b"!");
}

#[test]
fn tcp_survives_lossy_wire() {
    let c = two_nodes(NetworkConfig {
        latency: Duration::from_micros(20),
        jitter: Duration::from_micros(40),
        loss: 0.20,
        rto: Duration::from_millis(2),
        seed: 7,
        ..Default::default()
    });
    let (client, server) = connect_pair(&c, 5002);
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    client.write_all_wait(&payload, TIMEOUT).unwrap();
    let got = server.read_exact_wait(payload.len(), Duration::from_secs(20)).unwrap();
    assert_eq!(got, payload, "retransmission must mask 20% loss");
    assert!(c.net.stats().lost.load(std::sync::atomic::Ordering::Relaxed) > 0);
}

#[test]
fn netfilter_freeze_and_thaw() {
    let c = two_nodes(fast_cfg());
    let (client, server) = connect_pair(&c, 5003);

    // Freeze the receiver's pod IP, exactly as the checkpoint Agent does.
    let filter: &Netfilter = c.net.filter();
    filter.block_ip(ep(2, 0).ip);

    client.write_all_wait(b"during-freeze", TIMEOUT).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert!(!server.poll().readable, "no data crosses a frozen link");
    assert!(filter.dropped() > 0, "segments were dropped in flight");

    // Thaw: retransmission recovers everything with no loss.
    filter.unblock_ip(ep(2, 0).ip);
    let got = server.read_exact_wait(13, Duration::from_secs(10)).unwrap();
    assert_eq!(got, b"during-freeze");
}

#[test]
fn tcp_fin_gives_clean_eof() {
    let c = two_nodes(fast_cfg());
    let (client, server) = connect_pair(&c, 5004);
    client.write_all_wait(b"last words", TIMEOUT).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    assert_eq!(server.read_exact_wait(10, TIMEOUT).unwrap(), b"last words");
    // Poll for EOF.
    let deadline = std::time::Instant::now() + TIMEOUT;
    loop {
        match server.recv(16, RecvFlags::default()) {
            Ok(d) if d.is_empty() => break, // EOF
            Ok(_) => panic!("unexpected data"),
            Err(zapc_net::NetError::WouldBlock) => {
                assert!(std::time::Instant::now() < deadline, "no EOF");
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
}

#[test]
fn udp_datagrams_and_peek() {
    let c = two_nodes(fast_cfg());
    let rx = c.stacks[1].socket(Transport::Udp, ep(2, 0).ip, 0);
    rx.bind(ep(2, 9000)).unwrap();
    let tx = c.stacks[0].socket(Transport::Udp, ep(1, 0).ip, 0);
    tx.sendto(ep(2, 9000), b"dgram-1").unwrap();
    tx.sendto(ep(2, 9000), b"dgram-2").unwrap();

    let deadline = std::time::Instant::now() + TIMEOUT;
    while !rx.poll().readable {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_micros(200));
    }
    // Peek first: does not consume, flags the queue as peeked.
    let (peeked, src) = rx.recvfrom(64, RecvFlags { peek: true, oob: false }).unwrap();
    assert_eq!(peeked, b"dgram-1");
    assert_eq!(src, tx.local_addr().unwrap());
    let (d1, _) = rx.recvfrom(64, RecvFlags::default()).unwrap();
    assert_eq!(d1, b"dgram-1");
    let d2 = rx.read_datagram_wait(TIMEOUT).unwrap();
    assert_eq!(d2.0, b"dgram-2");
    assert!(rx.with_inner(|i| i.dgram.as_ref().unwrap().queue.was_peeked()));
}

#[test]
fn raw_ip_by_protocol_number() {
    let c = two_nodes(fast_cfg());
    let rx = c.stacks[1].socket(Transport::RawIp, ep(2, 0).ip, 89);
    rx.bind(ep(2, 0)).unwrap();
    let tx = c.stacks[0].socket(Transport::RawIp, ep(1, 0).ip, 89);
    tx.sendto(ep(2, 0), b"ospf-ish").unwrap();
    let (d, src) = rx.read_datagram_wait(TIMEOUT).unwrap();
    assert_eq!(d, b"ospf-ish");
    assert_eq!(src.ip, ep(1, 0).ip);

    // A different protocol number is not delivered to this socket.
    let tx2 = c.stacks[0].socket(Transport::RawIp, ep(1, 0).ip, 90);
    tx2.sendto(ep(2, 0), b"other-proto").unwrap();
    std::thread::sleep(Duration::from_millis(5));
    assert!(!rx.poll().readable);

    // A short read truncates the datagram, as on UDP.
    tx.sendto(ep(2, 0), b"8-bytes!").unwrap();
    let deadline = std::time::Instant::now() + TIMEOUT;
    while !rx.poll().readable {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(rx.recvfrom(4, RecvFlags::default()).unwrap().0, b"8-by");
}

#[test]
fn route_update_moves_virtual_ip() {
    // The migration primitive: moving a virtual IP's route re-targets
    // traffic without the sender changing anything.
    let c = two_nodes(fast_cfg());
    let s3 = NetStack::new(3, c.net.handle());
    let rx_old = c.stacks[1].socket(Transport::Udp, ep(2, 0).ip, 0);
    rx_old.bind(ep(2, 9100)).unwrap();
    let tx = c.stacks[0].socket(Transport::Udp, ep(1, 0).ip, 0);

    tx.sendto(ep(2, 9100), b"to-node-2").unwrap();
    assert_eq!(rx_old.read_datagram_wait(TIMEOUT).unwrap().0, b"to-node-2");

    // "Migrate" 10.10.0.2 to node 3.
    let rx_new = s3.socket(Transport::Udp, ep(2, 0).ip, 0);
    rx_new.bind(ep(2, 9100)).unwrap();
    c.net.set_route(ep(2, 0).ip, &s3);

    tx.sendto(ep(2, 9100), b"to-node-3").unwrap();
    assert_eq!(rx_new.read_datagram_wait(TIMEOUT).unwrap().0, b"to-node-3");
    std::thread::sleep(Duration::from_millis(2));
    assert!(!rx_old.poll().readable, "old node no longer receives");
}

#[test]
fn alternate_queue_served_before_network_data() {
    // The §5 interposition mechanism, driven directly.
    let c = two_nodes(fast_cfg());
    let (client, server) = connect_pair(&c, 5005);
    server.install_alt_queue(b"restored-".to_vec());
    assert!(server.is_interposed());
    client.write_all_wait(b"fresh", TIMEOUT).unwrap();
    let got = server.read_exact_wait(14, TIMEOUT).unwrap();
    assert_eq!(got, b"restored-fresh", "restored data consumed first");
    assert!(!server.is_interposed(), "alternate queue drained: reads go to the network again");
}
