//! Netfilter-like packet filter.
//!
//! During checkpoint, each Agent "disables all network activity to and from
//! the pod … by leveraging a standard network filtering service" (§4). The
//! [`Netfilter`] holds block rules keyed by virtual pod address (or by an
//! individual link); the wire consults it when a segment is sent (the
//! OUTPUT chain: a frozen pod's own segments never leave it) and again at
//! delivery time, so in-flight segments destined to or originating from a
//! frozen pod are dropped — precisely the behaviour §5 relies on
//! ("in-flight data can be safely ignored … dropped for incoming packets
//! or blocked for outgoing packets").
//! Reliable transports recover the dropped bytes by retransmission once the
//! pod is unblocked.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};
use zapc_faults::Partition;

/// Packet filter shared by the whole cluster wire.
#[derive(Debug, Default)]
pub struct Netfilter {
    inner: RwLock<FilterRules>,
}

#[derive(Debug, Default)]
struct FilterRules {
    /// Virtual IPs whose traffic is fully blocked (both directions).
    blocked_ips: HashSet<u32>,
    /// Individually blocked directed links `(src_ip, dst_ip)`.
    blocked_links: HashSet<(u32, u32)>,
    /// Virtual IP → hosting node, for node-level partition rules.
    node_of: HashMap<u32, u32>,
    /// Installed partition schedule; consulted per delivery when present.
    partition: Option<Arc<Partition>>,
    /// Counters for observability/tests.
    dropped: u64,
}

impl Netfilter {
    /// Creates an empty filter (all traffic allowed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks all traffic to and from the given virtual IP (pod freeze).
    pub fn block_ip(&self, ip: u32) {
        self.inner.write().unwrap().blocked_ips.insert(ip);
    }

    /// Unblocks a previously blocked virtual IP.
    pub fn unblock_ip(&self, ip: u32) {
        self.inner.write().unwrap().blocked_ips.remove(&ip);
    }

    /// Blocks one directed link.
    pub fn block_link(&self, src_ip: u32, dst_ip: u32) {
        self.inner.write().unwrap().blocked_links.insert((src_ip, dst_ip));
    }

    /// Unblocks one directed link.
    pub fn unblock_link(&self, src_ip: u32, dst_ip: u32) {
        self.inner.write().unwrap().blocked_links.remove(&(src_ip, dst_ip));
    }

    /// Installs a node-level partition schedule. Every delivery whose
    /// source and destination IPs map to known nodes (see
    /// [`Netfilter::set_node_of`]) is checked against it.
    pub fn set_partition(&self, partition: Arc<Partition>) {
        self.inner.write().unwrap().partition = Some(partition);
    }

    /// Records which node currently hosts virtual IP `ip` (pod placement /
    /// migration; mirrors the wire's route table).
    pub fn set_node_of(&self, ip: u32, node: u32) {
        self.inner.write().unwrap().node_of.insert(ip, node);
    }

    /// Whether a segment from `src_ip` to `dst_ip` must be dropped.
    /// Increments the drop counter when it is.
    pub fn check_drop(&self, src_ip: u32, dst_ip: u32) -> bool {
        // Fast path: read lock only when no rule matches.
        {
            let r = self.inner.read().unwrap();
            let blocked = r.blocked_ips.contains(&src_ip)
                || r.blocked_ips.contains(&dst_ip)
                || r.blocked_links.contains(&(src_ip, dst_ip));
            if !blocked {
                let cut = match &r.partition {
                    Some(p) => match (r.node_of.get(&src_ip), r.node_of.get(&dst_ip)) {
                        (Some(&s), Some(&d)) => p.is_cut(s, d),
                        _ => false,
                    },
                    None => false,
                };
                if !cut {
                    return false;
                }
            }
        }
        self.inner.write().unwrap().dropped += 1;
        true
    }

    /// Whether a segment sent by `src_ip` must be dropped before it enters
    /// the wire: the source is blocked. Increments the drop counter when it
    /// is. A segment that leaves a frozen pod could otherwise outlive the
    /// block and reach whatever the destination address routes to later.
    pub fn check_drop_source(&self, src_ip: u32) -> bool {
        if !self.is_blocked(src_ip) {
            return false;
        }
        self.inner.write().unwrap().dropped += 1;
        true
    }

    /// Whether the given IP is currently blocked.
    pub fn is_blocked(&self, ip: u32) -> bool {
        self.inner.read().unwrap().blocked_ips.contains(&ip)
    }

    /// Total segments dropped by the filter so far.
    pub fn dropped(&self) -> u64 {
        self.inner.read().unwrap().dropped
    }

    /// Removes every rule.
    pub fn clear(&self) {
        let mut w = self.inner.write().unwrap();
        w.blocked_ips.clear();
        w.blocked_links.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_unblock_ip() {
        let f = Netfilter::new();
        assert!(!f.check_drop(1, 2));
        f.block_ip(2);
        assert!(f.is_blocked(2));
        assert!(f.check_drop(1, 2), "incoming to blocked ip dropped");
        assert!(f.check_drop(2, 1), "outgoing from blocked ip dropped");
        assert!(!f.check_drop(1, 3));
        f.unblock_ip(2);
        assert!(!f.check_drop(1, 2));
        assert_eq!(f.dropped(), 2);
    }

    #[test]
    fn link_rules_are_directional() {
        let f = Netfilter::new();
        f.block_link(1, 2);
        assert!(f.check_drop(1, 2));
        assert!(!f.check_drop(2, 1));
        f.unblock_link(1, 2);
        assert!(!f.check_drop(1, 2));
    }

    #[test]
    fn clear_removes_everything() {
        let f = Netfilter::new();
        f.block_ip(5);
        f.block_link(1, 2);
        f.clear();
        assert!(!f.check_drop(5, 9));
        assert!(!f.check_drop(1, 2));
    }

    #[test]
    fn partition_rules_drop_by_hosting_node() {
        let f = Netfilter::new();
        let p = Arc::new(Partition::new());
        f.set_partition(Arc::clone(&p));
        f.set_node_of(10, 0);
        f.set_node_of(20, 1);
        assert!(!f.check_drop(10, 20), "no rules yet");
        p.one_way(0, 1);
        assert!(f.check_drop(10, 20), "cut direction dropped");
        assert!(!f.check_drop(20, 10), "reverse direction still delivers");
        assert!(!f.check_drop(10, 30), "unmapped peer is never cut");
        p.heal_all();
        assert!(!f.check_drop(10, 20));
        assert_eq!(f.dropped(), 1);
    }
}
