//! The pod's private virtual namespace.
//!
//! "Names within a pod are trivially assigned in a unique manner in the
//! same way that traditional operating systems assign names, but such names
//! are localized to the pod" (§3). The namespace is *virtual*: it never
//! changes when the pod migrates, so identifiers remain constant for the
//! life of each process. The mapping from virtual PIDs to the hosting
//! kernel's global PIDs is rebuilt at restart; only the virtual side is
//! checkpointed.

use std::collections::BTreeMap;
use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};
use zapc_sim::Pid;

/// The serializable, migration-stable identity of a pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Namespace {
    /// Pod name (cluster-unique, chosen by the operator).
    pub name: String,
    /// The pod's virtual IP.
    pub vip: u32,
    /// Chroot prefix on shared storage.
    pub fs_root: String,
    /// Whether time virtualization is enabled for this pod.
    pub virtualize_time: bool,
    /// Virtual-PID allocator state.
    pub next_vpid: u32,
    /// Virtual PIDs currently assigned, with the process names they map to
    /// (global PIDs are host state and are *not* part of the namespace).
    pub vpids: BTreeMap<u32, String>,
}

impl Namespace {
    /// Creates a fresh namespace.
    pub fn new(name: impl Into<String>, vip: u32, fs_root: impl Into<String>) -> Namespace {
        Namespace {
            name: name.into(),
            vip,
            fs_root: fs_root.into(),
            virtualize_time: true,
            next_vpid: 1,
            vpids: BTreeMap::new(),
        }
    }

    /// Assigns the next virtual PID to a process called `proc_name`.
    pub fn alloc_vpid(&mut self, proc_name: &str) -> u32 {
        let vpid = self.next_vpid;
        self.next_vpid += 1;
        self.vpids.insert(vpid, proc_name.to_owned());
        vpid
    }

    /// Releases a virtual PID (process exit).
    pub fn free_vpid(&mut self, vpid: u32) -> bool {
        self.vpids.remove(&vpid).is_some()
    }
}

impl Encode for Namespace {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.name);
        w.put(&self.vip);
        w.put(&self.fs_root);
        w.put(&self.virtualize_time);
        w.put(&self.next_vpid);
        w.put(&self.vpids);
    }
}

impl Decode for Namespace {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Namespace {
            name: r.get()?,
            vip: r.get()?,
            fs_root: r.get()?,
            virtualize_time: r.get()?,
            next_vpid: r.get()?,
            vpids: r.get()?,
        })
    }
}

/// Host-side mapping between virtual PIDs and the hosting kernel's global
/// PIDs. Rebuilt at every (re)start; never serialized.
#[derive(Debug, Clone, Default)]
pub struct VpidMap {
    forward: BTreeMap<u32, Pid>,
}

impl VpidMap {
    /// Records that `vpid` is implemented by host process `pid`.
    pub fn bind(&mut self, vpid: u32, pid: Pid) {
        self.forward.insert(vpid, pid);
    }

    /// Host PID for a virtual PID.
    pub fn pid(&self, vpid: u32) -> Option<Pid> {
        self.forward.get(&vpid).copied()
    }

    /// Virtual PID for a host PID.
    pub fn vpid(&self, pid: Pid) -> Option<u32> {
        self.forward.iter().find_map(|(&v, &p)| (p == pid).then_some(v))
    }

    /// Removes a binding by virtual PID.
    pub fn unbind(&mut self, vpid: u32) {
        self.forward.remove(&vpid);
    }

    /// All `(vpid, pid)` pairs in vpid order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Pid)> + '_ {
        self.forward.iter().map(|(&v, &p)| (v, p))
    }

    /// Number of live bindings.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True when no process is bound.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpids_allocated_sequentially_and_stable() {
        let mut ns = Namespace::new("pod-a", 0x0A0A_0001, "/pods/a");
        assert_eq!(ns.alloc_vpid("rank0"), 1);
        assert_eq!(ns.alloc_vpid("rank1"), 2);
        assert!(ns.free_vpid(1));
        // Freed vpids are not reused: identifiers stay unique for the pod's
        // lifetime, like PIDs in a kernel that doesn't wrap.
        assert_eq!(ns.alloc_vpid("rank2"), 3);
    }

    #[test]
    fn namespace_round_trip() {
        let mut ns = Namespace::new("pod-b", 7, "/pods/b");
        ns.alloc_vpid("x");
        ns.alloc_vpid("y");
        ns.virtualize_time = false;
        let mut w = RecordWriter::new();
        ns.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(Namespace::decode(&mut r).unwrap(), ns);
        assert!(r.is_empty());
    }

    #[test]
    fn vpid_map_bidirectional() {
        let mut m = VpidMap::default();
        m.bind(1, Pid(500));
        m.bind(2, Pid(501));
        assert_eq!(m.pid(1), Some(Pid(500)));
        assert_eq!(m.vpid(Pid(501)), Some(2));
        m.unbind(1);
        assert_eq!(m.pid(1), None);
        assert_eq!(m.len(), 1);
    }
}
