//! Cluster assembly: nodes, wire, shared storage, pods, and Agents.
//!
//! Models the paper's evaluation platform (§3, §6): "a set of blade
//! servers … running standard Linux and connected to a common SAN" — here,
//! N simulated nodes on one routed wire with one shared in-memory file
//! system, each node running an Agent.

use crate::health::{HealthMonitor, DEFAULT_LEASE_MS};
use crate::uri::MemStore;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use zapc_faults::{FaultPlan, Partition};
use zapc_store::ImageStore;
use zapc_net::{Netfilter, Network, NetworkConfig};
use zapc_pod::{pod_vip, Pod, PodConfig};
use zapc_sim::{ClusterClock, Node, NodeConfig, ProgramRegistry, SimFs};

/// Builder for [`Cluster`].
pub struct ClusterBuilder {
    nodes: usize,
    cpus: usize,
    net: NetworkConfig,
    virt_overhead_ns: u64,
    registry: ProgramRegistry,
    faults: Arc<FaultPlan>,
    obs: zapc_obs::Observer,
    lease_ms: u64,
    store_chunking: Option<zapc_store::ChunkingConfig>,
}

impl ClusterBuilder {
    /// Number of cluster nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n.max(1);
        self
    }

    /// Simulated CPUs per node (the paper's dual-processor configuration
    /// uses 2).
    pub fn cpus(mut self, c: usize) -> Self {
        self.cpus = c.max(1);
        self
    }

    /// Interconnect parameters.
    pub fn network(mut self, cfg: NetworkConfig) -> Self {
        self.net = cfg;
        self
    }

    /// Per-syscall pod virtualization overhead in virtual-time ns
    /// (0 = run applications without pods, the *Base* configuration).
    pub fn virt_overhead_ns(mut self, ns: u64) -> Self {
        self.virt_overhead_ns = ns;
        self
    }

    /// Program registry used to reinstate applications at restart.
    pub fn registry(mut self, reg: ProgramRegistry) -> Self {
        self.registry = reg;
        self
    }

    /// Fault-injection plan consulted by the wire, the node schedulers,
    /// and the checkpoint/restart protocol (default: inert).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Arc::new(plan);
        self
    }

    /// Event observer threaded through the wire, the checkpoint engine,
    /// and the Manager/Agent protocol. Disabled by default — every
    /// emission site then costs a single branch.
    pub fn observer(mut self, obs: zapc_obs::Observer) -> Self {
        self.obs = obs;
        self
    }

    /// Node-lease duration for the Manager↔Agent health layer (ms of
    /// cluster wall-clock). Tests shrink this to exercise lease expiry.
    pub fn lease_ms(mut self, ms: u64) -> Self {
        self.lease_ms = ms;
        self
    }

    /// Splits durable-store images into content-defined chunks,
    /// deduplicated across pods and checkpoints (optionally compressed),
    /// instead of one chunk per image. Image paths hold chunk recipes
    /// either way, so restore, recovery, GC and audit cannot tell.
    pub fn store_chunking(mut self, cfg: zapc_store::ChunkingConfig) -> Self {
        self.store_chunking = Some(cfg);
        self
    }

    /// Boots the cluster.
    pub fn build(self) -> Cluster {
        let net = Network::new(self.net);
        net.set_faults(Arc::clone(&self.faults));
        let fs = SimFs::new();
        let clock = ClusterClock::new();
        // Stamp events with the simulated cluster clock (µs) so spans line
        // up with checkpoint wall_ms across the whole run.
        let obs = {
            let clock = Arc::clone(&clock);
            self.obs.with_clock(move || clock.now_ms() * 1000)
        };
        net.set_observer(obs.clone());
        let nodes: Vec<Arc<Node>> = (0..self.nodes)
            .map(|i| {
                let n = Node::new(
                    NodeConfig { id: i as u32, cpus: self.cpus },
                    net.handle(),
                    Arc::clone(&fs),
                );
                n.set_faults(Arc::clone(&self.faults));
                n
            })
            .collect();
        let istore = Arc::new(ImageStore::new(
            Arc::clone(&fs),
            "/zapc/store",
            Arc::clone(&self.faults),
            obs.clone(),
        ));
        istore.set_chunking(self.store_chunking);
        let health = HealthMonitor::new(Arc::clone(&clock), self.lease_ms);
        // One partition schedule on cluster time, shared by every path: the
        // wire consults it through the netfilter, the ctl RPC path and the
        // migration stream consult it directly (Manager = pseudo-node).
        let partition = Arc::new(Partition::with_clock(clock.ms_fn()));
        net.filter().set_partition(Arc::clone(&partition));
        Cluster {
            net,
            fs,
            clock,
            partition,
            nodes,
            pods: Mutex::new(HashMap::new()),
            store: MemStore::new(),
            istore,
            health,
            registry: self.registry,
            virt_overhead_ns: self.virt_overhead_ns,
            faults: self.faults,
            next_vip: AtomicU16::new(1),
            epoch: AtomicU64::new(1),
            agent_epochs: Mutex::new(HashMap::new()),
            fenced_replies: AtomicU64::new(0),
            obs,
        }
    }
}

/// A simulated commodity cluster.
pub struct Cluster {
    /// The interconnect (owns the pump thread).
    pub net: Network,
    /// Cluster-shared storage (the SAN).
    pub fs: Arc<SimFs>,
    /// The cluster wall clock.
    pub clock: Arc<ClusterClock>,
    /// The link-level partition schedule (empty = fully connected). One
    /// table partitions every path at once: the wire drops segments whose
    /// endpoints' nodes are cut, the ctl RPC path eats Manager↔Agent
    /// messages, and the migration stream refuses cut frames. Address the
    /// Manager as [`zapc_faults::MANAGER`].
    pub partition: Arc<Partition>,
    nodes: Vec<Arc<Node>>,
    pods: Mutex<HashMap<String, PodEntry>>,
    /// In-memory checkpoint image store.
    pub store: Arc<MemStore>,
    /// Durable checkpoint image store on the SAN (`/zapc/store`): staged
    /// images plus the committed manifests that make them reachable.
    pub istore: Arc<ImageStore>,
    /// Node-liveness table (leases + explicit kills) consulted by the
    /// Manager while it waits on Agents.
    pub health: Arc<HealthMonitor>,
    /// Loaders for restart.
    pub registry: ProgramRegistry,
    /// Pod virtualization overhead (virtual-time ns per syscall).
    pub virt_overhead_ns: u64,
    /// The fault-injection plan every layer consults (inert by default).
    pub faults: Arc<FaultPlan>,
    next_vip: AtomicU16,
    /// Manager epoch: bumped by every recovery so manifests record which
    /// incarnation of the Manager committed them.
    epoch: AtomicU64,
    /// Highest Manager epoch each node's Agent has witnessed (by serving
    /// an op stamped with it). A healed node whose witnessed epoch trails
    /// the current one missed at least one failover and must
    /// [`crate::rejoin_node`] before its state can be trusted.
    agent_epochs: Mutex<HashMap<u32, u64>>,
    /// Agent replies refused because their epoch trailed the cluster's —
    /// the hard fencing check behind `late_replies` accounting.
    fenced_replies: AtomicU64,
    /// The cluster-wide event observer (disabled unless installed via
    /// [`ClusterBuilder::observer`]).
    pub obs: zapc_obs::Observer,
}

#[derive(Clone)]
struct PodEntry {
    node: usize,
    pod: Arc<Pod>,
}

impl Cluster {
    /// Starts building a cluster (defaults: 2 nodes, 1 CPU each, default
    /// wire, 150 ns pod overhead, empty registry).
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            nodes: 2,
            cpus: 1,
            net: NetworkConfig::default(),
            virt_overhead_ns: 150,
            registry: ProgramRegistry::new(),
            faults: Arc::new(FaultPlan::none()),
            obs: zapc_obs::Observer::disabled(),
            lease_ms: DEFAULT_LEASE_MS,
            store_chunking: None,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node `i`.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        &self.nodes[i]
    }

    /// The cluster packet filter.
    pub fn filter(&self) -> &Netfilter {
        self.net.filter()
    }

    /// Creates a pod named `name` on node `node`, allocating the next
    /// virtual IP and routing it. Pod names are cluster-unique.
    pub fn create_pod(&self, name: &str, node: usize) -> Arc<Pod> {
        let vip = pod_vip(self.next_vip.fetch_add(1, Ordering::Relaxed));
        let mut cfg = PodConfig::new(name, vip);
        cfg.virt_overhead_ns = self.virt_overhead_ns;
        self.create_pod_with(cfg, node)
    }

    /// Creates a pod with an explicit configuration.
    pub fn create_pod_with(&self, cfg: PodConfig, node: usize) -> Arc<Pod> {
        let pod = Pod::create(cfg, &self.nodes[node], &self.clock);
        self.register_pod(&pod, node);
        pod
    }

    /// Registers a pod and routes its virtual address to `node`: the one
    /// registration body behind [`Cluster::create_pod_with`] and the restart
    /// tail every [`crate::restart`] and [`crate::migrate`] ends in. The name
    /// must be free — a migration destroys its source first, a restart
    /// refuses a target or image that names a live pod — because replacing
    /// a live entry would steal its route and leave it running unreachable
    /// by name. A taken name panics before anything changed, and with the
    /// pod table unlocked.
    pub fn register_pod(&self, pod: &Arc<Pod>, node: usize) {
        let fresh = match self.pods.lock().unwrap().entry(pod.name()) {
            Entry::Vacant(slot) => {
                slot.insert(PodEntry { node, pod: Arc::clone(pod) });
                true
            }
            Entry::Occupied(_) => false,
        };
        assert!(fresh, "pod name {:?} already in use", pod.name());
        self.net.set_route(pod.vip(), &self.nodes[node].stack);
        self.filter().set_node_of(pod.vip(), node as u32);
    }

    /// Looks a pod up by name.
    pub fn pod(&self, name: &str) -> Option<Arc<Pod>> {
        self.pods.lock().unwrap().get(name).map(|e| Arc::clone(&e.pod))
    }

    /// The node currently hosting a pod.
    pub fn pod_node(&self, name: &str) -> Option<usize> {
        self.pods.lock().unwrap().get(name).map(|e| e.node)
    }

    /// Destroys a pod, forgets it and clears its address's route — the
    /// one teardown. A pod that moves is torn down at its source *before*
    /// its destination registers it, or this would clear the new route.
    pub fn destroy_pod(&self, name: &str) {
        if let Some(entry) = self.pods.lock().unwrap().remove(name) {
            self.net.clear_route(entry.pod.vip());
            entry.pod.destroy();
        }
    }

    /// The current Manager epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Advances the Manager epoch (one bump per recovery) and returns the
    /// new value.
    pub(crate) fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records that `node`'s Agent served an op stamped with `epoch`
    /// (monotonic per node).
    pub(crate) fn witness_epoch(&self, node: u32, epoch: u64) {
        let mut map = self.agent_epochs.lock().unwrap();
        let e = map.entry(node).or_insert(0);
        *e = (*e).max(epoch);
    }

    /// The highest Manager epoch `node`'s Agent has witnessed (0 = never
    /// served an epoch-stamped op).
    pub fn agent_epoch(&self, node: u32) -> u64 {
        self.agent_epochs.lock().unwrap().get(&node).copied().unwrap_or(0)
    }

    /// Counts one Agent reply refused for carrying a stale epoch.
    pub(crate) fn note_fenced_reply(&self, pod: &str) {
        self.fenced_replies.fetch_add(1, Ordering::Relaxed);
        if self.obs.enabled() {
            self.obs.counter(pod, "mgr.fenced_reply", 1);
        }
    }

    /// Total Agent replies refused cluster-wide for carrying an epoch
    /// older than the current one (stale Agents speaking across a healed
    /// partition). These replies were *counted and dropped* — they never
    /// mutated Manager state.
    pub fn fenced_replies(&self) -> u64 {
        self.fenced_replies.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cluster({} nodes, {} pods)", self.nodes.len(), self.pods.lock().unwrap().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_creates_nodes_and_pods() {
        let c = Cluster::builder().nodes(3).cpus(2).build();
        assert_eq!(c.node_count(), 3);
        let p = c.create_pod("w0", 1);
        assert_eq!(c.pod_node("w0"), Some(1));
        assert!(c.pod("w0").is_some());
        assert_eq!(p.vip(), pod_vip(1));
        let p2 = c.create_pod("w1", 2);
        assert_ne!(p2.vip(), p.vip());
        c.destroy_pod("w0");
        assert!(c.pod("w0").is_none());
    }

    #[test]
    fn a_duplicate_pod_name_panics_before_it_changes_anything() {
        let c = Cluster::builder().nodes(2).build();
        let first = c.create_pod("dup", 0);
        let second_vip = pod_vip(2);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.create_pod("dup", 1);
        }))
        .expect_err("a taken name panics");
        let msg = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("already in use"), "{msg}");
        assert!(!c.pods.is_poisoned());
        assert_eq!(c.pod("dup").map(|p| p.vip()), Some(first.vip()));
        assert_eq!(c.pod_node("dup"), Some(0));
        let route = c.net.handle().route(first.vip()).expect("first pod still routed");
        assert!(Arc::ptr_eq(&route, &c.node(0).stack));
        assert!(c.net.handle().route(second_vip).is_none(), "the refused pod was routed");
    }
}
