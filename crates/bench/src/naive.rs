//! Ablation baseline: the *naive peek* network checkpoint.
//!
//! §5 (and the Cruz discussion in §2) explains why capturing a TCP receive
//! queue by `read`ing in `MSG_PEEK` mode is incomplete: "this technique …
//! will fail to capture all of the data in the network queues with TCP,
//! including crucial out-of-band, urgent, and backlog queue data." This
//! module implements exactly that broken capture so tests and benchmarks
//! can demonstrate the data loss the real mechanism avoids.

use zapc_pod::Pod;
use zapc_proto::Transport;

/// What the peek-based capture sees for one socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveRecord {
    /// Checkpoint ordinal.
    pub ordinal: u32,
    /// The only thing a peek can observe: the in-order stream queue.
    pub stream: Vec<u8>,
}

/// Captures receive queues using `MSG_PEEK` only — the Cruz-style
/// technique. Compare against `zapc_netckpt::checkpoint_network`, which also
/// captures urgent/out-of-band data, backlog information, and prior
/// alternate-queue contents.
pub fn naive_peek_capture(pod: &Pod) -> Vec<NaiveRecord> {
    let mut out = Vec::new();
    for (ordinal, sock) in pod.sockets().iter().enumerate() {
        if sock.transport() != Transport::Tcp {
            continue;
        }
        let stream = sock.with_inner(|inner| {
            // A peek observes only the in-order queue; urgent data sits in
            // the separate OOB queue and the backlog is pre-assembly.
            // Crucially it also misses a restore's alternate queue, which
            // lives above the protocol receive queue.
            inner.tcb.as_mut().map(|t| t.recv.peek(usize::MAX)).unwrap_or_default()
        });
        out.push(NaiveRecord { ordinal: ordinal as u32, stream });
    }
    out
}

/// Bytes the naive capture *missed* for one socket versus the full
/// mechanism: `(urgent_bytes, backlog_bytes, alt_queue_bytes)`.
pub fn naive_loss(pod: &Pod) -> (usize, usize, usize) {
    let mut urgent = 0;
    let mut backlog = 0;
    let mut alt = 0;
    for sock in pod.sockets() {
        sock.with_inner(|inner| {
            if let Some(t) = &inner.tcb {
                urgent += t.recv.urgent_len();
                backlog += t.recv.backlog_bytes();
            }
            alt += inner.alt_recv.len();
        });
    }
    (urgent, backlog, alt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use zapc_net::{Network, NetworkConfig};
    use zapc_netckpt::checkpoint_network;
    use zapc_pod::{pod_vip, PodConfig};
    use zapc_proto::Endpoint;
    use zapc_sim::{ClusterClock, Node, NodeConfig, SimFs};

    const TIMEOUT: Duration = Duration::from_secs(10);

    #[test]
    fn naive_peek_capture_loses_urgent_data() {
        // The ablation: Cruz-style peek misses the urgent byte that the real
        // mechanism preserves.
        let net = Network::new(NetworkConfig {
            latency: Duration::from_micros(30),
            jitter: Duration::from_micros(10),
            rto: Duration::from_millis(5),
            ..Default::default()
        });
        let fs = SimFs::new();
        let clock = ClusterClock::new();
        let n0 = Node::new(NodeConfig { id: 0, cpus: 1 }, net.handle(), Arc::clone(&fs));
        let n1 = Node::new(NodeConfig { id: 1, cpus: 1 }, net.handle(), fs);
        let a = Pod::create(PodConfig::new("A", pod_vip(7)), &n0, &clock);
        let b = Pod::create(PodConfig::new("B", pod_vip(8)), &n1, &clock);
        net.set_route(a.vip(), &n0.stack);
        net.set_route(b.vip(), &n1.stack);

        let listener = n1.stack.socket(Transport::Tcp, b.vip(), 6);
        listener.bind(Endpoint { ip: b.vip(), port: 5003 }).unwrap();
        listener.listen(8).unwrap();
        let client = n0.stack.socket(Transport::Tcp, a.vip(), 6);
        client.connect(Endpoint { ip: b.vip(), port: 5003 }).unwrap();
        client.connect_wait(TIMEOUT).unwrap();
        let server = listener.accept_wait(TIMEOUT).unwrap();

        client.write_all_wait(b"normal", TIMEOUT).unwrap();
        client.send_oob(b"U").unwrap();
        let dl = Instant::now() + TIMEOUT;
        while !server.poll().oob {
            assert!(Instant::now() < dl);
            std::thread::sleep(Duration::from_micros(200));
        }

        net.filter().block_ip(a.vip());
        net.filter().block_ip(b.vip());
        let naive = naive_peek_capture(&b);
        let (urgent_missed, _, _) = naive_loss(&b);
        let (_, full) = checkpoint_network(&b);

        // The naive capture of the server child sees only the normal stream.
        let child_naive = naive.iter().find(|n| n.ordinal == 1).unwrap();
        assert_eq!(child_naive.stream, b"normal");
        assert_eq!(urgent_missed, 1, "one urgent byte invisible to peek");
        // The full mechanism captured it.
        assert_eq!(full[1].recv_urgent, b"U");
        net.filter().clear();
        a.destroy();
        b.destroy();
    }
}
