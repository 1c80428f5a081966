//! A cluster node: one network stack, a process table, and a scheduler
//! thread per simulated CPU.
//!
//! Nodes run "independent commodity operating system instances" (§3): each
//! node owns its processes and schedules them round-robin on its CPU
//! threads. The BladeCenter evaluation (§6) uses uniprocessor and
//! dual-processor configurations — [`NodeConfig::cpus`] selects that.
//!
//! Suspension discipline: sending SIGSTOP acquires the process lock, so
//! when [`Node::signal`] returns the process is provably not mid-step —
//! this is the quiescence property the checkpoint Agent relies on.

use crate::ids::{NodeId, Pid};
use crate::process::{ProcState, Process, StepOutcome};
use crate::signals::Signal;
use crate::{Errno, SimFs, SysResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
use std::time::{Duration, Instant};
use zapc_faults::FaultPlan;
use zapc_net::NetStack;

/// Node parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Node id.
    pub id: u32,
    /// Simulated CPU count (scheduler threads).
    pub cpus: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig { id: 0, cpus: 1 }
    }
}

type ProcTable = Arc<RwLock<HashMap<Pid, Arc<Mutex<Process>>>>>;

/// One simulated cluster node.
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// The node's network stack.
    pub stack: Arc<NetStack>,
    /// Cluster-shared storage (the SAN).
    pub fs: Arc<SimFs>,
    /// Simulated CPU count.
    pub cpus: usize,
    procs: ProcTable,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    faults: Arc<RwLock<Arc<FaultPlan>>>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node({}, cpus={})", self.id, self.cpus)
    }
}

impl Node {
    /// Boots a node: creates its stack and starts its scheduler threads.
    pub fn new(cfg: NodeConfig, net: Arc<zapc_net::wire::NetShared>, fs: Arc<SimFs>) -> Arc<Node> {
        let stack = NetStack::new(cfg.id, net);
        let procs: ProcTable = Arc::new(RwLock::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let faults: Arc<RwLock<Arc<FaultPlan>>> =
            Arc::new(RwLock::new(Arc::new(FaultPlan::none())));
        let node = Arc::new(Node {
            id: NodeId(cfg.id),
            stack,
            fs,
            cpus: cfg.cpus.max(1),
            procs: Arc::clone(&procs),
            stop: Arc::clone(&stop),
            threads: Mutex::new(Vec::new()),
            faults: Arc::clone(&faults),
        });
        let mut threads = node.threads.lock().unwrap();
        for cpu in 0..node.cpus {
            let procs = Arc::clone(&procs);
            let stop = Arc::clone(&stop);
            let faults = Arc::clone(&faults);
            let key = format!("node{}", cfg.id);
            let name = format!("node{}-cpu{}", cfg.id, cpu);
            threads.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || scheduler_loop(procs, stop, faults, key))
                    .expect("spawn scheduler thread"),
            );
        }
        drop(threads);
        node
    }

    /// Installs a process on this node; returns its PID.
    pub fn add_process(&self, proc: Process) -> Pid {
        let pid = proc.pid;
        self.procs.write().unwrap().insert(pid, Arc::new(Mutex::new(proc)));
        pid
    }

    /// The process table entry for `pid`.
    pub fn process(&self, pid: Pid) -> Option<Arc<Mutex<Process>>> {
        self.procs.read().unwrap().get(&pid).cloned()
    }

    /// All PIDs on this node.
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.procs.read().unwrap().keys().copied().collect();
        v.sort();
        v
    }

    /// Removes a process from the table (pod destroy); closes its fds.
    pub fn remove_process(&self, pid: Pid) -> Option<Arc<Mutex<Process>>> {
        let p = self.procs.write().unwrap().remove(&pid)?;
        p.lock().unwrap().close_all_fds();
        Some(p)
    }

    /// Sends a signal. Acquiring the process lock guarantees the process
    /// is not mid-step when Stop/Cont/Kill take effect.
    pub fn signal(&self, pid: Pid, s: Signal) -> SysResult<()> {
        let p = self.process(pid).ok_or(Errno::ESRCH)?;
        p.lock().unwrap().deliver_signal(s);
        Ok(())
    }

    /// Current state of a process.
    pub fn proc_state(&self, pid: Pid) -> SysResult<ProcState> {
        let p = self.process(pid).ok_or(Errno::ESRCH)?;
        let st = p.lock().unwrap().state;
        Ok(st)
    }

    /// Blocks until the process exits (or the timeout elapses); returns the
    /// exit code.
    pub fn wait_exit(&self, pid: Pid, timeout: Duration) -> SysResult<i32> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.proc_state(pid)? {
                ProcState::Exited(code) => return Ok(code),
                _ => {
                    if Instant::now() >= deadline {
                        return Err(Errno::ETIMEDOUT);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Number of processes on the node.
    pub fn process_count(&self) -> usize {
        self.procs.read().unwrap().len()
    }

    /// Installs a fault plan consulted at site `node.sched` (key
    /// `node<N>`) once per scheduler sweep — a firing `Delay` models a
    /// slow node.
    pub fn set_faults(&self, plan: Arc<FaultPlan>) {
        *self.faults.write().unwrap() = plan;
    }

    /// Stops the scheduler threads (idempotent; also runs on drop).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let mut threads = self.threads.lock().unwrap();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn scheduler_loop(
    procs: ProcTable,
    stop: Arc<AtomicBool>,
    faults: Arc<RwLock<Arc<FaultPlan>>>,
    fault_key: String,
) {
    while !stop.load(Ordering::Acquire) {
        {
            let plan = Arc::clone(&faults.read().unwrap());
            plan.hit_and_sleep("node.sched", &fault_key);
        }
        let snapshot: Vec<Arc<Mutex<Process>>> = procs.read().unwrap().values().cloned().collect();
        let mut progressed = false;
        if snapshot.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        for p in snapshot {
            if stop.load(Ordering::Acquire) {
                return;
            }
            // If another CPU is running this process, skip it. A poisoned
            // process (its program panicked mid-step) is not skipped
            // forever: the scheduler panics too.
            let mut guard = match p.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::WouldBlock) => continue,
                Err(TryLockError::Poisoned(e)) => panic!("{e}"),
            };
            if guard.state != ProcState::Runnable {
                continue;
            }
            match guard.run_step() {
                StepOutcome::Ready => progressed = true,
                StepOutcome::Exited(_) => progressed = true,
                StepOutcome::Blocked => {}
            }
        }
        if !progressed {
            // Everyone is blocked on I/O or stopped: back off briefly.
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ClusterClock, VirtualClock};
    use crate::process::{ProcEnv, Program};
    use crate::syscall::ProcessCtx;
    use std::sync::atomic::AtomicU64;
    use zapc_net::{Network, NetworkConfig};
    use zapc_proto::RecordWriter;

    struct Spin {
        iters: u64,
        done: u64,
    }

    impl Program for Spin {
        fn type_name(&self) -> &'static str {
            "test.spin"
        }
        fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
            self.done += 1;
            ctx.consume_cpu(100);
            if self.done >= self.iters {
                StepOutcome::Exited(42)
            } else {
                StepOutcome::Ready
            }
        }
        fn save(&self, w: &mut RecordWriter) {
            w.put_u64(self.iters);
            w.put_u64(self.done);
        }
    }

    fn build() -> (Network, Arc<Node>, Arc<ProcEnv>) {
        let net = Network::new(NetworkConfig::default());
        let fs = SimFs::new();
        let node = Node::new(NodeConfig { id: 1, cpus: 1 }, net.handle(), Arc::clone(&fs));
        let env = Arc::new(ProcEnv {
            stack: Arc::clone(&node.stack),
            vip: 0x0A0A_0001,
            fs,
            fs_root: String::new(),
            clock: ClusterClock::new(),
            vclock: VirtualClock::new(true),
            virt_overhead_ns: 0,
            active_syscalls: AtomicU64::new(0),
        });
        (net, node, env)
    }

    #[test]
    fn scheduler_runs_process_to_exit() {
        let (_net, node, env) = build();
        let pid = node.add_process(Process::new("spin", 1, Box::new(Spin { iters: 500, done: 0 }), env));
        let code = node.wait_exit(pid, Duration::from_secs(5)).unwrap();
        assert_eq!(code, 42);
    }

    #[test]
    fn sigstop_halts_until_sigcont() {
        let (_net, node, env) = build();
        let pid =
            node.add_process(Process::new("spin", 1, Box::new(Spin { iters: u64::MAX, done: 0 }), env));
        std::thread::sleep(Duration::from_millis(5));
        node.signal(pid, Signal::Stop).unwrap();
        assert_eq!(node.proc_state(pid).unwrap(), ProcState::Stopped);
        let frozen_at = {
            let p = node.process(pid).unwrap();
            let steps = p.lock().unwrap().steps;
            steps
        };
        std::thread::sleep(Duration::from_millis(10));
        {
            let p = node.process(pid).unwrap();
            assert_eq!(p.lock().unwrap().steps, frozen_at, "no steps while stopped");
        }
        node.signal(pid, Signal::Cont).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let p = node.process(pid).unwrap();
        assert!(p.lock().unwrap().steps > frozen_at, "resumed after SIGCONT");
        node.signal(pid, Signal::Kill).unwrap();
    }

    #[test]
    fn kill_terminates() {
        let (_net, node, env) = build();
        let pid =
            node.add_process(Process::new("spin", 1, Box::new(Spin { iters: u64::MAX, done: 0 }), env));
        node.signal(pid, Signal::Kill).unwrap();
        assert_eq!(node.wait_exit(pid, Duration::from_secs(1)).unwrap(), 137);
    }

    #[test]
    fn signal_to_unknown_pid_is_esrch() {
        let (_net, node, _env) = build();
        assert_eq!(node.signal(Pid(99999), Signal::Stop), Err(Errno::ESRCH));
    }

    #[test]
    fn multiple_processes_share_cpu() {
        let (_net, node, env) = build();
        let p1 = node.add_process(Process::new("a", 1, Box::new(Spin { iters: 200, done: 0 }), Arc::clone(&env)));
        let p2 = node.add_process(Process::new("b", 2, Box::new(Spin { iters: 200, done: 0 }), env));
        assert_eq!(node.wait_exit(p1, Duration::from_secs(5)).unwrap(), 42);
        assert_eq!(node.wait_exit(p2, Duration::from_secs(5)).unwrap(), 42);
    }

    #[test]
    fn dual_cpu_node_runs_both() {
        let net = Network::new(NetworkConfig::default());
        let fs = SimFs::new();
        let node = Node::new(NodeConfig { id: 2, cpus: 2 }, net.handle(), Arc::clone(&fs));
        let env = Arc::new(ProcEnv {
            stack: Arc::clone(&node.stack),
            vip: 0x0A0A_0002,
            fs,
            fs_root: String::new(),
            clock: ClusterClock::new(),
            vclock: VirtualClock::new(true),
            virt_overhead_ns: 0,
            active_syscalls: AtomicU64::new(0),
        });
        let p1 = node.add_process(Process::new("a", 1, Box::new(Spin { iters: 300, done: 0 }), Arc::clone(&env)));
        let p2 = node.add_process(Process::new("b", 2, Box::new(Spin { iters: 300, done: 0 }), env));
        assert_eq!(node.wait_exit(p1, Duration::from_secs(5)).unwrap(), 42);
        assert_eq!(node.wait_exit(p2, Duration::from_secs(5)).unwrap(), 42);
    }

    #[test]
    fn remove_process_cleans_up() {
        let (_net, node, env) = build();
        let pid =
            node.add_process(Process::new("spin", 1, Box::new(Spin { iters: u64::MAX, done: 0 }), env));
        node.signal(pid, Signal::Stop).unwrap();
        assert!(node.remove_process(pid).is_some());
        assert_eq!(node.process_count(), 0);
        assert!(node.remove_process(pid).is_none());
    }
}
