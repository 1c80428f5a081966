//! Agent rejoin after a healed partition.
//!
//! A partition leaves a node *leaseless* ([`crate::NodeStatus`]): its
//! Agent is very possibly alive, still hosting pods, and still holding
//! whatever epoch it last saw. When the link
//! heals, that node cannot simply resume serving — the cluster may have
//! moved on (a recovery bumped the epoch, checkpoints committed without
//! it, its pods may have been restarted elsewhere from a manifest). The
//! rejoin protocol reconciles the two histories explicitly instead of
//! letting the stale side leak back in through a heartbeat:
//!
//! 1. **Refuse while cut.** A rejoin is only meaningful over a healed
//!    link; if the partition schedule still cuts either direction of
//!    `node ↔ MANAGER`, the call fails and changes nothing.
//! 2. **Compare epochs.** The cluster records the highest Manager epoch
//!    each Agent has served ([`crate::cluster::Cluster::agent_epoch`]).
//!    A node whose witnessed epoch trails the current one slept through
//!    at least one recovery: checkpoints may have committed or been
//!    rolled back without it.
//! 3. **Reconcile.** A stale node adopts the current epoch; a current
//!    node needs no reconciliation. Either way its lease is revived, so
//!    the health table reports it `Alive` again and coordinated
//!    operations may include its pods.
//!
//! Rejoin is idempotent: a second call finds the node current and merely
//! renews its lease.

use crate::cluster::Cluster;
use crate::{ZapcError, ZapcResult};
use zapc_faults::MANAGER;

/// What [`rejoin_node`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejoinReport {
    /// The rejoined node.
    pub node: u32,
    /// Highest Manager epoch the node's Agent had witnessed before the
    /// rejoin (0 = it never served an epoch-stamped op).
    pub witnessed_epoch: u64,
    /// The cluster epoch the node was reconciled to.
    pub epoch: u64,
    /// Whether the node was stale (witnessed < current) and needed
    /// reconciliation, not just a lease renewal.
    pub stale: bool,
}

/// Re-admits `node` after a partition heals (see the module docs for the
/// protocol). Fails with [`ZapcError::Aborted`] — and changes nothing —
/// while the partition schedule still cuts either direction of the
/// node ↔ Manager link.
pub fn rejoin_node(cluster: &Cluster, node: u32) -> ZapcResult<RejoinReport> {
    if cluster.partition.is_cut(node, MANAGER) || cluster.partition.is_cut(MANAGER, node) {
        return Err(ZapcError::Aborted(format!(
            "rejoin refused: node {node} is still partitioned from the manager"
        )));
    }
    let witnessed = cluster.agent_epoch(node);
    let epoch = cluster.epoch();
    let stale = witnessed < epoch;
    if stale {
        cluster.witness_epoch(node, epoch);
    }
    cluster.health.revive(node);
    if cluster.obs.enabled() {
        cluster.obs.counter("manager", "mgr.rejoin", 1);
    }
    Ok(RejoinReport { node, witnessed_epoch: witnessed, epoch, stale })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeStatus;

    #[test]
    fn rejoin_refuses_while_cut_and_reconciles_after_heal() {
        let cluster = Cluster::builder().nodes(2).build();
        cluster.create_pod("web", 1);

        // Partition node 1 from the Manager and let its lease lapse.
        cluster.partition.isolate(1);
        cluster.health.beat(1);
        assert!(matches!(
            rejoin_node(&cluster, 1),
            Err(ZapcError::Aborted(why)) if why.contains("still partitioned")
        ));

        // Heal; the node witnessed nothing while the cluster is at epoch
        // ≥ 1, so the rejoin reconciles.
        cluster.partition.heal_all();
        let report = rejoin_node(&cluster, 1).unwrap();
        assert!(report.stale);
        assert_eq!(report.witnessed_epoch, 0);
        assert_eq!(report.epoch, cluster.epoch());
        assert_eq!(cluster.agent_epoch(1), cluster.epoch());
        assert_eq!(cluster.health.status(1), NodeStatus::Alive);

        // Idempotent: a second rejoin is a plain lease renewal.
        let again = rejoin_node(&cluster, 1).unwrap();
        assert!(!again.stale);
    }
}
