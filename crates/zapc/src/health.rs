//! Manager↔Agent health: leases, heartbeats, and explicit death.
//!
//! The paper's failure model detects Agent death through broken reliable
//! connections (§4). That catches an Agent that *errors out* — but a node
//! that silently dies mid-operation never breaks its channel in a way the
//! Manager can distinguish from slowness. The durable-commit protocol
//! (`crates/zapc/src/commit.rs`) needs a sharper signal, so the cluster
//! carries a lease table: whatever the Manager hears of a node over an
//! un-cut link is its heartbeat (a command its Agent accepts, a reply that
//! gets through, and the node's periodic beat the waiting Manager collects
//! each time it polls the table — see the coordination core, `coord.rs`).
//! A node whose lease lapses because nothing of it gets through (or that
//! is [`HealthMonitor::kill`]ed by the fault layer) is treated as dead —
//! the operation aborts and drains survivors, a restart reschedules the
//! dead node's pods onto live nodes. A merely slow Agent never lapses.
//!
//! Nodes that have never beaten are presumed alive: leases are a liveness
//! *refinement*, not a boot-time gate.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use zapc_sim::ClusterClock;

/// Default lease duration (ms of cluster wall-clock).
pub const DEFAULT_LEASE_MS: u64 = 1_000;

/// The Manager's view of one node, refining alive/dead with the state a
/// partition produces: a node that stopped beating but was never killed
/// is *leaseless* — very possibly alive on the far side of a partition.
/// The Manager treats leaseless like dead for progress (it cannot wait on
/// a node it cannot hear), but the distinction matters after a heal: a
/// leaseless node holds live pods and a stale epoch and must be
/// [`crate::rejoin_node`]ed, not restarted over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Lease current (or node never tracked — liveness is opt-in).
    Alive,
    /// Lease lapsed without an explicit kill: dead *or* partitioned; the
    /// Manager cannot tell which until the node is heard from again.
    Leaseless,
    /// Explicitly killed (fault injection or operator); sticky until
    /// revived.
    Dead,
}

#[derive(Debug, Clone, Copy)]
enum NodeHealth {
    /// Last heartbeat at this cluster time (ms).
    Alive { last_beat_ms: u64 },
    /// Explicitly killed (fault injection or operator); stays dead until
    /// [`HealthMonitor::revive`].
    Dead,
}

/// The cluster's node-liveness table.
pub struct HealthMonitor {
    clock: Arc<ClusterClock>,
    lease_ms: u64,
    state: Mutex<HashMap<u32, NodeHealth>>,
}

impl HealthMonitor {
    /// Creates a monitor on the given cluster clock.
    pub fn new(clock: Arc<ClusterClock>, lease_ms: u64) -> Arc<HealthMonitor> {
        Arc::new(HealthMonitor { clock, lease_ms: lease_ms.max(1), state: Mutex::new(HashMap::new()) })
    }

    /// The lease duration (ms).
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms
    }

    /// Renews `node`'s lease. A dead node cannot beat itself back to
    /// life — death is sticky until an operator [`HealthMonitor::revive`]s
    /// it, so a zombie Agent can't mask a node the Manager already gave
    /// up on.
    pub fn beat(&self, node: u32) {
        let now = self.clock.now_ms();
        let mut state = self.state.lock().unwrap();
        match state.get(&node) {
            Some(NodeHealth::Dead) => {}
            _ => {
                state.insert(node, NodeHealth::Alive { last_beat_ms: now });
            }
        }
    }

    /// Marks `node` dead immediately.
    pub fn kill(&self, node: u32) {
        self.state.lock().unwrap().insert(node, NodeHealth::Dead);
    }

    /// Brings `node` back (fresh lease from now).
    pub fn revive(&self, node: u32) {
        let now = self.clock.now_ms();
        self.state.lock().unwrap().insert(node, NodeHealth::Alive { last_beat_ms: now });
    }

    /// Whether `node` is currently considered alive. Unknown nodes are
    /// alive by default; a known node is alive while its lease holds.
    pub fn is_alive(&self, node: u32) -> bool {
        self.status(node) == NodeStatus::Alive
    }

    /// The three-way status of `node` (see [`NodeStatus`]).
    pub fn status(&self, node: u32) -> NodeStatus {
        match self.state.lock().unwrap().get(&node) {
            None => NodeStatus::Alive,
            Some(NodeHealth::Dead) => NodeStatus::Dead,
            Some(NodeHealth::Alive { last_beat_ms }) => {
                if self.clock.now_ms().saturating_sub(*last_beat_ms) <= self.lease_ms {
                    NodeStatus::Alive
                } else {
                    NodeStatus::Leaseless
                }
            }
        }
    }
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap();
        write!(f, "HealthMonitor({} tracked, lease {} ms)", state.len(), self.lease_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_nodes_default_alive() {
        let h = HealthMonitor::new(ClusterClock::new(), 50);
        assert!((0..3).all(|n| h.is_alive(n)));
    }

    #[test]
    fn kill_is_immediate_and_sticky() {
        let h = HealthMonitor::new(ClusterClock::new(), 50);
        h.beat(1);
        h.kill(1);
        assert!(!h.is_alive(1));
        h.beat(1);
        assert!(!h.is_alive(1), "a zombie beat must not resurrect a killed node");
        h.revive(1);
        assert!(h.is_alive(1));
    }

    #[test]
    fn status_distinguishes_leaseless_from_dead() {
        let h = HealthMonitor::new(ClusterClock::new(), 10);
        assert_eq!(h.status(0), NodeStatus::Alive, "untracked nodes are alive");
        h.beat(0);
        assert_eq!(h.status(0), NodeStatus::Alive);
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(h.status(0), NodeStatus::Leaseless, "lapsed but never killed");
        assert!(!h.is_alive(0), "leaseless counts as not-alive for progress");
        h.kill(0);
        assert_eq!(h.status(0), NodeStatus::Dead);
        h.revive(0);
        assert_eq!(h.status(0), NodeStatus::Alive);
    }

    #[test]
    fn lease_expires_without_beats() {
        let h = HealthMonitor::new(ClusterClock::new(), 10);
        h.beat(0);
        assert!(h.is_alive(0));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!h.is_alive(0), "lease should lapse after 3x the lease time");
        h.beat(0);
        assert!(h.is_alive(0), "a live node's beat renews the lease");
    }
}
