//! Ablation: naive peek capture (Cruz-style) vs the full §5 mechanism.
//!
//! The naive path is *cheaper* — and wrong: it silently misses urgent/OOB
//! bytes and all backlog state. The bench reports both costs; the
//! correctness gap is printed once (and enforced by the test beside
//! `zapc_bench::naive`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;
use zapc_bench::naive;
use zapc_net::{Network, NetworkConfig};
use zapc_netckpt::checkpoint_network;
use zapc_pod::{pod_vip, Pod, PodConfig};
use zapc_sim::{ClusterClock, Node, NodeConfig, SimFs};

fn rig() -> (Network, Arc<Pod>, Arc<Pod>) {
    let net = Network::new(NetworkConfig {
        latency: Duration::from_micros(20),
        jitter: Duration::ZERO,
        rto: Duration::from_millis(5),
        ..Default::default()
    });
    let fs = SimFs::new();
    let clock = ClusterClock::new();
    let n1 = Node::new(NodeConfig { id: 1, cpus: 1 }, net.handle(), Arc::clone(&fs));
    let n2 = Node::new(NodeConfig { id: 2, cpus: 1 }, net.handle(), fs);
    let a = Pod::create(PodConfig::new("a", pod_vip(311)), &n1, &clock);
    let b = Pod::create(PodConfig::new("b", pod_vip(312)), &n2, &clock);
    net.set_route(a.vip(), &n1.stack);
    net.set_route(b.vip(), &n2.stack);
    let listener = n2.stack.socket(zapc_proto::Transport::Tcp, b.vip(), 6);
    listener.bind(zapc_proto::Endpoint { ip: b.vip(), port: 5000 }).unwrap();
    listener.listen(4).unwrap();
    let c = n1.stack.socket(zapc_proto::Transport::Tcp, a.vip(), 6);
    c.connect(zapc_proto::Endpoint { ip: b.vip(), port: 5000 }).unwrap();
    c.connect_wait(Duration::from_secs(5)).unwrap();
    let _s = listener.accept_wait(Duration::from_secs(5)).unwrap();
    c.write_all_wait(&[7u8; 8 * 1024], Duration::from_secs(5)).unwrap();
    c.send_oob(b"URGENT").unwrap();
    std::thread::sleep(Duration::from_millis(5));
    net.filter().block_ip(a.vip());
    net.filter().block_ip(b.vip());
    // Keep sockets alive via the stacks (listener/c dropped is fine: the
    // stack holds them).
    std::mem::forget(listener);
    std::mem::forget(c);
    (net, a, b)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_naive_peek");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let (_net, _a, b) = rig();
    let (urgent, backlog, alt) = naive::naive_loss(&b);
    eprintln!(
        "[ablation] naive peek silently loses: {urgent} urgent bytes, \
         {backlog} backlog bytes, {alt} alternate-queue bytes"
    );

    g.bench_function("naive_peek_capture", |bch| {
        bch.iter(|| std::hint::black_box(naive::naive_peek_capture(&b).len()))
    });
    g.bench_function("full_mechanism_capture", |bch| {
        bch.iter(|| {
            let (meta, recs) = checkpoint_network(&b);
            std::hint::black_box((meta.entries.len(), recs.len()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
