//! The pod itself: namespace + process group + Agent-facing operations.

use crate::namespace::{Namespace, VpidMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zapc_net::Socket;
use zapc_sim::{
    ClusterClock, Errno, Node, Pid, ProcEnv, ProcState, Process, Program, SysResult,
    VirtualClock,
};

/// Pod creation parameters.
#[derive(Debug, Clone)]
pub struct PodConfig {
    /// Cluster-unique pod name.
    pub name: String,
    /// The pod's virtual IP (stable across migration).
    pub vip: u32,
    /// Chroot prefix on shared storage.
    pub fs_root: String,
    /// Enable time virtualization (§5; on by default).
    pub virtualize_time: bool,
    /// Per-syscall virtualization overhead charged in virtual time
    /// (nanoseconds). Zero means "no pod" — the Base configuration.
    pub virt_overhead_ns: u64,
}

impl PodConfig {
    /// A default-configured pod named `name` with virtual IP `vip`.
    pub fn new(name: impl Into<String>, vip: u32) -> PodConfig {
        let name = name.into();
        PodConfig {
            fs_root: format!("/pods/{name}"),
            name,
            vip,
            virtualize_time: true,
            virt_overhead_ns: 150,
        }
    }
}

/// A pod: the unit of isolation, checkpointing and migration.
pub struct Pod {
    /// The migration-stable namespace.
    ns: Mutex<Namespace>,
    /// Host-side vpid ↔ pid map for the current incarnation.
    vpids: Mutex<VpidMap>,
    /// Hosting node for the current incarnation.
    node: Arc<Node>,
    /// Execution environment handed to every process.
    pub env: Arc<ProcEnv>,
}

impl std::fmt::Debug for Pod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pod({})", self.name())
    }
}

impl Pod {
    /// Creates an empty pod on `node`. The caller (the cluster layer) is
    /// responsible for routing the pod's virtual IP to the node's stack.
    pub fn create(cfg: PodConfig, node: &Arc<Node>, clock: &Arc<ClusterClock>) -> Arc<Pod> {
        let mut ns = Namespace::new(cfg.name, cfg.vip, cfg.fs_root);
        ns.virtualize_time = cfg.virtualize_time;
        let env = Arc::new(ProcEnv {
            stack: Arc::clone(&node.stack),
            vip: cfg.vip,
            fs: Arc::clone(&node.fs),
            fs_root: ns.fs_root.clone(),
            clock: Arc::clone(clock),
            vclock: VirtualClock::new(cfg.virtualize_time),
            virt_overhead_ns: cfg.virt_overhead_ns,
            active_syscalls: AtomicU64::new(0),
        });
        Arc::new(Pod { ns: Mutex::new(ns), vpids: Mutex::new(VpidMap::default()), node: Arc::clone(node), env })
    }

    /// Recreates a pod from a checkpointed namespace (restart path).
    pub fn from_namespace(ns: Namespace, node: &Arc<Node>, clock: &Arc<ClusterClock>, virt_overhead_ns: u64) -> Arc<Pod> {
        let env = Arc::new(ProcEnv {
            stack: Arc::clone(&node.stack),
            vip: ns.vip,
            fs: Arc::clone(&node.fs),
            fs_root: ns.fs_root.clone(),
            clock: Arc::clone(clock),
            vclock: VirtualClock::new(ns.virtualize_time),
            virt_overhead_ns,
            active_syscalls: AtomicU64::new(0),
        });
        Arc::new(Pod {
            ns: Mutex::new(ns),
            vpids: Mutex::new(VpidMap::default()),
            node: Arc::clone(node),
            env,
        })
    }

    /// Pod name.
    pub fn name(&self) -> String {
        self.ns.lock().unwrap().name.clone()
    }

    /// The pod's virtual IP.
    pub fn vip(&self) -> u32 {
        self.ns.lock().unwrap().vip
    }

    /// The hosting node of this incarnation.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// A snapshot of the namespace (checkpoint path).
    pub fn namespace(&self) -> Namespace {
        self.ns.lock().unwrap().clone()
    }

    /// Spawns a program inside the pod; returns its virtual PID.
    pub fn spawn(&self, proc_name: &str, program: Box<dyn Program>) -> u32 {
        let vpid = self.ns.lock().unwrap().alloc_vpid(proc_name);
        let proc = Process::new(proc_name, vpid, program, Arc::clone(&self.env));
        let pid = self.node.add_process(proc);
        self.vpids.lock().unwrap().bind(vpid, pid);
        vpid
    }

    /// Restore path: installs an already-built process under a *specific*
    /// virtual PID (identifiers must come back exactly as saved).
    pub fn adopt(&self, vpid: u32, proc: Process) {
        let pid = self.node.add_process(proc);
        self.vpids.lock().unwrap().bind(vpid, pid);
        let mut ns = self.ns.lock().unwrap();
        ns.next_vpid = ns.next_vpid.max(vpid + 1);
    }

    /// Host PIDs of the pod's processes, in vpid order.
    pub fn pids(&self) -> Vec<Pid> {
        self.vpids.lock().unwrap().iter().map(|(_, p)| p).collect()
    }

    /// `(vpid, pid)` pairs, in vpid order.
    pub fn vpid_pids(&self) -> Vec<(u32, Pid)> {
        self.vpids.lock().unwrap().iter().collect()
    }

    /// Host PID of a virtual PID.
    pub fn pid_of(&self, vpid: u32) -> Option<Pid> {
        self.vpids.lock().unwrap().pid(vpid)
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.vpids.lock().unwrap().len()
    }

    /// Total mapped memory across all processes — the dominant term of the
    /// checkpoint image size (§6.2), used to pre-size image buffers.
    pub fn total_mem_bytes(&self) -> usize {
        self.pids()
            .into_iter()
            .filter_map(|pid| self.node.process(pid))
            .map(|p| p.lock().unwrap().mem.total_bytes())
            .sum()
    }

    /// Suspends every process (SIGSTOP, §4 step 1). On return the pod is
    /// quiescent: no process is mid-step and the interposition reference
    /// count has drained.
    pub fn suspend(&self) -> SysResult<()> {
        for pid in self.pids() {
            match self.node.signal(pid, zapc_sim::signals::Signal::Stop) {
                Ok(()) | Err(Errno::ESRCH) => {}
                Err(e) => return Err(e),
            }
        }
        debug_assert!(self.quiescent(), "pod not quiescent after suspend");
        Ok(())
    }

    /// Resumes every process (SIGCONT, §4 step 4 snapshot case).
    pub fn resume(&self) -> SysResult<()> {
        for pid in self.pids() {
            match self.node.signal(pid, zapc_sim::signals::Signal::Cont) {
                Ok(()) | Err(Errno::ESRCH) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// True when no process is runnable-and-running and no syscall is in
    /// flight (the interposition reference count of §3).
    pub fn quiescent(&self) -> bool {
        self.env.active_syscalls.load(Ordering::Acquire) == 0
    }

    /// Destroys the pod locally: kills processes, closes and removes their
    /// sockets from the node's stack (migration source teardown, §4).
    pub fn destroy(&self) {
        for pid in self.pids() {
            let _ = self.node.signal(pid, zapc_sim::signals::Signal::Kill);
            self.node.remove_process(pid);
        }
        self.vpids.lock().unwrap().clear();
        self.node.stack.remove_sockets_for_ip(self.vip());
    }

    /// All sockets belonging to the pod (by virtual IP), in creation order.
    pub fn sockets(&self) -> Vec<Arc<Socket>> {
        self.node.stack.sockets_for_ip(self.vip())
    }

    /// Waits until every process has exited; returns their exit codes in
    /// vpid order.
    pub fn wait_all(&self, timeout: Duration) -> SysResult<Vec<i32>> {
        let deadline = Instant::now() + timeout;
        let pairs = self.vpid_pids();
        let mut codes = Vec::with_capacity(pairs.len());
        for (_, pid) in pairs {
            let remaining = deadline.saturating_duration_since(Instant::now());
            codes.push(self.node.wait_exit(pid, remaining)?);
        }
        Ok(codes)
    }

    /// Whether every process has exited.
    pub fn all_exited(&self) -> bool {
        self.pids().iter().all(|&pid| {
            matches!(self.node.proc_state(pid), Ok(ProcState::Exited(_)) | Err(Errno::ESRCH))
        })
    }
}

impl VpidMap {
    fn clear(&mut self) {
        let vpids: Vec<u32> = self.iter().map(|(v, _)| v).collect();
        for v in vpids {
            self.unbind(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zapc_net::{Network, NetworkConfig};
    use zapc_proto::RecordWriter;
    use zapc_sim::{NodeConfig, ProcessCtx, SimFs, StepOutcome};

    struct Idle;
    impl Program for Idle {
        fn type_name(&self) -> &'static str {
            "test.idle"
        }
        fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
            ctx.consume_cpu(10);
            StepOutcome::Ready
        }
        fn save(&self, _w: &mut RecordWriter) {}
    }

    fn build() -> (Network, Arc<Node>, Arc<ClusterClock>) {
        let net = Network::new(NetworkConfig::default());
        let node = Node::new(NodeConfig { id: 1, cpus: 1 }, net.handle(), SimFs::new());
        (net, node, ClusterClock::new())
    }

    #[test]
    fn spawn_assigns_vpids() {
        let (_n, node, clock) = build();
        let pod = Pod::create(PodConfig::new("p", crate::pod_vip(1)), &node, &clock);
        let v1 = pod.spawn("a", Box::new(Idle));
        let v2 = pod.spawn("b", Box::new(Idle));
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(pod.process_count(), 2);
        assert!(pod.pid_of(1).is_some());
        pod.destroy();
    }

    #[test]
    fn suspend_resume_cycle() {
        let (_n, node, clock) = build();
        let pod = Pod::create(PodConfig::new("p", crate::pod_vip(1)), &node, &clock);
        pod.spawn("a", Box::new(Idle));
        std::thread::sleep(Duration::from_millis(5));
        pod.suspend().unwrap();
        assert!(pod.quiescent());
        let pid = pod.pid_of(1).unwrap();
        assert_eq!(node.proc_state(pid).unwrap(), ProcState::Stopped);
        pod.resume().unwrap();
        assert_eq!(node.proc_state(pid).unwrap(), ProcState::Runnable);
        pod.destroy();
    }

    #[test]
    fn destroy_removes_everything() {
        let (_n, node, clock) = build();
        let pod = Pod::create(PodConfig::new("p", crate::pod_vip(1)), &node, &clock);
        pod.spawn("a", Box::new(Idle));
        pod.spawn("b", Box::new(Idle));
        pod.destroy();
        assert_eq!(node.process_count(), 0);
        assert_eq!(pod.process_count(), 0);
    }

    #[test]
    fn adopt_preserves_vpid() {
        let (_n, node, clock) = build();
        let pod = Pod::create(PodConfig::new("p", crate::pod_vip(1)), &node, &clock);
        let proc = Process::new("restored", 7, Box::new(Idle), Arc::clone(&pod.env));
        pod.adopt(7, proc);
        assert!(pod.pid_of(7).is_some());
        // Fresh spawns continue above the adopted vpid.
        let v = pod.spawn("new", Box::new(Idle));
        assert_eq!(v, 8);
        pod.destroy();
    }

    #[test]
    fn namespace_snapshot_reflects_pod() {
        let (_n, node, clock) = build();
        let pod = Pod::create(PodConfig::new("snap", crate::pod_vip(3)), &node, &clock);
        pod.spawn("x", Box::new(Idle));
        let ns = pod.namespace();
        assert_eq!(ns.name, "snap");
        assert_eq!(ns.vip, crate::pod_vip(3));
        assert_eq!(ns.vpids.len(), 1);
        assert_eq!(ns.vpids[&1], "x");
        pod.destroy();
    }
}
