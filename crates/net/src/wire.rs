//! The cluster interconnect: a routed, store-and-forward wire.
//!
//! A dedicated *pump thread* plays the role of softirq context: it delays
//! segments by a configurable latency (plus jitter), optionally drops them
//! (loss injection), consults the [`Netfilter`] at delivery time — so
//! segments in flight when a pod is frozen are dropped, as §5 requires —
//! and hands survivors to the destination node's [`NetStack`]. A frozen
//! pod's own segments are dropped already at send, so none of them can be
//! delivered after the freeze lifts to a new incarnation of its peer.
//!
//! Routing is by **virtual address**: [`Network::set_route`] maps a pod's
//! virtual IP to the stack of the node currently hosting it. Migrating a pod
//! is a route update; the application-visible addresses never change
//! (paper §3).
//!
//! The pump also drives retransmission timers: sockets schedule
//! [`NetShared::schedule_rtx`] events against themselves (by weak
//! reference, so closed sockets do not leak).

use crate::filter::Netfilter;
use crate::seg::Segment;
use crate::socket::Socket;
use crate::stack::NetStack;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};
use zapc_faults::{FaultAction, FaultPlan};

/// Tunables of the simulated interconnect.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// One-way segment latency.
    pub latency: Duration,
    /// Uniform jitter added on top of `latency`.
    pub jitter: Duration,
    /// Probability a segment is lost in flight (`0.0..=1.0`).
    pub loss: f64,
    /// RNG seed for jitter/loss reproducibility.
    pub seed: u64,
    /// Base retransmission timeout for reliable sockets.
    pub rto: Duration,
    /// Per-hop latency charged in the virtual-time model (nanoseconds).
    pub vt_latency_ns: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: Duration::from_micros(50),
            jitter: Duration::from_micros(20),
            loss: 0.0,
            seed: 0x5eed,
            rto: Duration::from_millis(20),
            vt_latency_ns: 30_000,
        }
    }
}

/// Wire statistics (observability and tests).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Segments delivered to a stack.
    pub delivered: AtomicU64,
    /// Segments dropped by the netfilter.
    pub filtered: AtomicU64,
    /// Segments dropped by loss injection.
    pub lost: AtomicU64,
    /// Segments with no route for the destination.
    pub unroutable: AtomicU64,
    /// Segments a fault plan dropped, duplicated, or delayed.
    pub injected: AtomicU64,
}

enum Event {
    Deliver(Segment),
    Rtx(Weak<Socket>),
}

struct Entry {
    at: Instant,
    seq: u64,
    ev: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Simple xorshift generator for jitter/loss (reproducible, lock-cheap).
#[derive(Debug)]
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shared interior of the wire; sockets and stacks hold an `Arc` of this.
pub struct NetShared {
    /// Interconnect configuration.
    pub cfg: NetworkConfig,
    /// Cluster-wide packet filter.
    pub filter: Netfilter,
    /// Wire statistics.
    pub stats: NetStats,
    queue: Mutex<BinaryHeap<Reverse<Entry>>>,
    cond: Condvar,
    routes: RwLock<HashMap<u32, Weak<NetStack>>>,
    rng: Mutex<XorShift>,
    seqno: AtomicU64,
    stopped: AtomicBool,
    faults: RwLock<Arc<FaultPlan>>,
    obs: RwLock<zapc_obs::Observer>,
}

impl NetShared {
    /// Emits a counter through the installed observer. The key closure
    /// runs only when an observer is attached, so the disabled path pays
    /// one lock-read and a branch — no string formatting.
    pub fn obs_counter_with(&self, name: &'static str, delta: u64, key: impl FnOnce() -> String) {
        let obs = self.obs.read().unwrap();
        if obs.enabled() {
            obs.counter(&key(), name, delta);
        }
    }

    fn push(&self, at: Instant, ev: Event) {
        let seq = self.seqno.fetch_add(1, Ordering::Relaxed);
        self.queue.lock().unwrap().push(Reverse(Entry { at, seq, ev }));
        self.cond.notify_one();
    }

    /// Injects a segment into the wire (called from socket context).
    pub fn send(&self, seg: Segment) {
        if self.filter.check_drop_source(seg.src.ip) {
            self.stats.filtered.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut delay = self.cfg.latency;
        if self.cfg.loss > 0.0 || self.cfg.jitter > Duration::ZERO {
            let mut rng = self.rng.lock().unwrap();
            if self.cfg.loss > 0.0 && rng.uniform() < self.cfg.loss {
                self.stats.lost.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if self.cfg.jitter > Duration::ZERO {
                let j = rng.uniform();
                delay += Duration::from_nanos((self.cfg.jitter.as_nanos() as f64 * j) as u64);
            }
        }
        let faults = Arc::clone(&self.faults.read().unwrap());
        if !faults.is_inert() {
            let key = format!("{:08x}->{:08x}", seg.src.ip, seg.dst.ip);
            match faults.hit("net.segment", &key) {
                Some(FaultAction::Drop) => {
                    self.stats.injected.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Some(FaultAction::Duplicate) => {
                    self.stats.injected.fetch_add(1, Ordering::Relaxed);
                    self.push(Instant::now() + delay, Event::Deliver(seg.clone()));
                }
                Some(a @ FaultAction::Delay { .. }) => {
                    self.stats.injected.fetch_add(1, Ordering::Relaxed);
                    delay += a.delay().expect("delay action");
                }
                _ => {}
            }
        }
        self.push(Instant::now() + delay, Event::Deliver(seg));
    }

    /// Schedules a retransmission-timer callback on `sock`.
    pub fn schedule_rtx(&self, sock: &Arc<Socket>, backoff: u32) {
        let mult = 1u32 << backoff.min(6);
        self.push(Instant::now() + self.cfg.rto * mult, Event::Rtx(Arc::downgrade(sock)));
    }

    /// Resolves the stack currently hosting virtual IP `vip`.
    pub fn route(&self, vip: u32) -> Option<Arc<NetStack>> {
        self.routes.read().unwrap().get(&vip).and_then(Weak::upgrade)
    }

    fn run_pump(self: &Arc<Self>) {
        loop {
            let ev = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if self.stopped.load(Ordering::Acquire) {
                        return;
                    }
                    match q.peek() {
                        Some(Reverse(e)) if e.at <= Instant::now() => {
                            break q.pop().expect("peeked").0.ev;
                        }
                        Some(Reverse(e)) => {
                            let wait = e.at.saturating_duration_since(Instant::now());
                            q = self.cond.wait_timeout(q, wait).unwrap().0;
                        }
                        None => {
                            q = self.cond.wait_timeout(q, Duration::from_millis(50)).unwrap().0;
                        }
                    }
                }
            };
            match ev {
                Event::Deliver(seg) => self.deliver(seg),
                Event::Rtx(weak) => {
                    if let Some(sock) = weak.upgrade() {
                        sock.on_rtx_timer();
                    }
                }
            }
        }
    }

    fn deliver(self: &Arc<Self>, seg: Segment) {
        if self.filter.check_drop(seg.src.ip, seg.dst.ip) {
            self.stats.filtered.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match self.route(seg.dst.ip) {
            Some(stack) => {
                self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                stack.deliver(seg);
            }
            None => {
                self.stats.unroutable.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl std::fmt::Debug for NetShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetShared").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

/// The cluster interconnect. Owns the pump thread; dropping the `Network`
/// stops it.
#[derive(Debug)]
pub struct Network {
    shared: Arc<NetShared>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl Network {
    /// Brings up a wire with the given configuration.
    pub fn new(cfg: NetworkConfig) -> Network {
        let shared = Arc::new(NetShared {
            rng: Mutex::new(XorShift(cfg.seed | 1)),
            cfg,
            filter: Netfilter::new(),
            stats: NetStats::default(),
            queue: Mutex::new(BinaryHeap::new()),
            cond: Condvar::new(),
            routes: RwLock::new(HashMap::new()),
            seqno: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
            faults: RwLock::new(Arc::new(FaultPlan::none())),
            obs: RwLock::new(zapc_obs::Observer::disabled()),
        });
        let pump_shared = Arc::clone(&shared);
        let pump = std::thread::Builder::new()
            .name("zapc-net-pump".into())
            .spawn(move || pump_shared.run_pump())
            .expect("spawn pump thread");
        Network { shared, pump: Some(pump) }
    }

    /// Handle for sockets and stacks.
    pub fn handle(&self) -> Arc<NetShared> {
        Arc::clone(&self.shared)
    }

    /// The cluster packet filter.
    pub fn filter(&self) -> &Netfilter {
        &self.shared.filter
    }

    /// Routes virtual IP `vip` to `stack` (pod placement / migration).
    pub fn set_route(&self, vip: u32, stack: &Arc<NetStack>) {
        self.shared.routes.write().unwrap().insert(vip, Arc::downgrade(stack));
    }

    /// Removes the route for `vip` (pod destroyed).
    pub fn clear_route(&self, vip: u32) {
        self.shared.routes.write().unwrap().remove(&vip);
    }

    /// Wire statistics.
    pub fn stats(&self) -> &NetStats {
        &self.shared.stats
    }

    /// Installs a fault plan consulted at site `net.segment` (key
    /// `src->dst`) for every segment entering the wire.
    pub fn set_faults(&self, plan: Arc<FaultPlan>) {
        *self.shared.faults.write().unwrap() = plan;
    }

    /// Installs an event observer; sockets emit `net.*` counters through
    /// it. Disabled observers cost one branch per emission site.
    pub fn set_observer(&self, obs: zapc_obs::Observer) {
        *self.shared.obs.write().unwrap() = obs;
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        self.shared.stopped.store(true, Ordering::Release);
        self.shared.cond.notify_all();
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_starts_and_stops_cleanly() {
        let net = Network::new(NetworkConfig::default());
        drop(net); // must not hang
    }

    #[test]
    fn unroutable_segments_counted() {
        let net = Network::new(NetworkConfig { latency: Duration::ZERO, ..Default::default() });
        let h = net.handle();
        let src = zapc_proto::Endpoint::new(10, 10, 0, 1, 1);
        let dst = zapc_proto::Endpoint::new(10, 10, 0, 2, 2);
        h.send(Segment::udp(src, dst, vec![1, 2, 3]));
        // Allow the pump to process.
        for _ in 0..100 {
            if net.stats().unroutable.load(Ordering::Relaxed) == 1 {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("segment was not processed");
    }

    #[test]
    fn loss_injection_drops_everything_at_p1() {
        let net = Network::new(NetworkConfig {
            latency: Duration::ZERO,
            loss: 1.0,
            ..Default::default()
        });
        let h = net.handle();
        let src = zapc_proto::Endpoint::new(10, 10, 0, 1, 1);
        let dst = zapc_proto::Endpoint::new(10, 10, 0, 2, 2);
        for _ in 0..10 {
            h.send(Segment::udp(src, dst, vec![0]));
        }
        assert_eq!(net.stats().lost.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn fault_plan_drops_segments_on_the_wire() {
        let net = Network::new(NetworkConfig { latency: Duration::ZERO, ..Default::default() });
        net.set_faults(Arc::new(
            FaultPlan::script().always("net.segment", None, FaultAction::Drop).build(),
        ));
        let h = net.handle();
        let src = zapc_proto::Endpoint::new(10, 10, 0, 1, 1);
        let dst = zapc_proto::Endpoint::new(10, 10, 0, 2, 2);
        for _ in 0..5 {
            h.send(Segment::udp(src, dst, vec![0]));
        }
        assert_eq!(net.stats().injected.load(Ordering::Relaxed), 5);
        assert_eq!(net.stats().unroutable.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn xorshift_uniform_in_range() {
        let mut x = XorShift(42);
        for _ in 0..1000 {
            let u = x.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
