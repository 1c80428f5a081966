//! System-call surface coverage: files, pipes, timers, signals, sockets
//! and virtual-time accounting through `ProcessCtx`, driven by scripted
//! programs on a real node/scheduler.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use zapc_net::{Network, NetworkConfig};
use zapc_proto::{RecordWriter, Transport};
use zapc_sim::signals::Signal;
use zapc_sim::{
    ClusterClock, Node, NodeConfig, ProcEnv, Process, ProcessCtx, Program, SimFs, StepOutcome,
    VirtualClock,
};

fn env(node: &Arc<Node>, clock: &Arc<ClusterClock>, fs: &Arc<SimFs>) -> Arc<ProcEnv> {
    Arc::new(ProcEnv {
        stack: Arc::clone(&node.stack),
        vip: 0x0A0A_0001,
        fs: Arc::clone(fs),
        fs_root: "/pods/test".into(),
        clock: Arc::clone(clock),
        vclock: VirtualClock::new(true),
        virt_overhead_ns: 150,
        active_syscalls: std::sync::atomic::AtomicU64::new(0),
    })
}

struct Rig {
    _net: Network,
    node: Arc<Node>,
    fs: Arc<SimFs>,
    env: Arc<ProcEnv>,
}

fn rig() -> Rig {
    let net = Network::new(NetworkConfig::default());
    let fs = SimFs::new();
    let clock = ClusterClock::new();
    let node = Node::new(NodeConfig { id: 0, cpus: 1 }, net.handle(), Arc::clone(&fs));
    let e = env(&node, &clock, &fs);
    Rig { _net: net, node, fs, env: e }
}

/// A program driven by a closure (test-local; never checkpointed).
struct Scripted<F: FnMut(&mut ProcessCtx<'_>) -> StepOutcome + Send>(F);

impl<F: FnMut(&mut ProcessCtx<'_>) -> StepOutcome + Send> Program for Scripted<F> {
    fn type_name(&self) -> &'static str {
        "test.scripted"
    }
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        (self.0)(ctx)
    }
    fn save(&self, _w: &mut RecordWriter) {}
}

fn run_script(
    r: &Rig,
    f: impl FnMut(&mut ProcessCtx<'_>) -> StepOutcome + Send + 'static,
) -> i32 {
    let pid = r.node.add_process(Process::new("script", 1, Box::new(Scripted(f)), Arc::clone(&r.env)));
    r.node.wait_exit(pid, Duration::from_secs(10)).expect("script exit")
}

#[test]
fn file_io_with_chroot_and_offsets() {
    let r = rig();
    let code = run_script(&r, |ctx| {
        let fd = ctx.open("data.txt", true, false).unwrap();
        ctx.file_write(fd, b"hello ").unwrap();
        ctx.file_write(fd, b"world").unwrap();
        ctx.lseek(fd, 0).unwrap();
        let all = ctx.file_read(fd, 64).unwrap();
        assert_eq!(all, b"hello world");
        // Append mode respects existing content.
        let fd2 = ctx.open("data.txt", false, true).unwrap();
        ctx.file_write(fd2, b"!").unwrap();
        ctx.close(fd).unwrap();
        ctx.close(fd2).unwrap();
        StepOutcome::Exited(0)
    });
    assert_eq!(code, 0);
    // The chroot prefix was applied.
    assert_eq!(r.fs.read("/pods/test/data.txt").unwrap(), b"hello world!");
    assert!(!r.fs.exists("/data.txt"));
}

#[test]
fn missing_file_is_enoent() {
    let r = rig();
    let code = run_script(&r, |ctx| {
        match ctx.open("nope.txt", false, false) {
            Err(zapc_sim::Errno::ENOENT) => StepOutcome::Exited(0),
            other => panic!("expected ENOENT, got {other:?}"),
        }
    });
    assert_eq!(code, 0);
}

#[test]
fn pipes_between_processes_in_pod() {
    // One process writes, the sibling reads through the shared pipe (fds
    // are per-process; the pipe object is shared via the table).
    let r = rig();
    let code = run_script(&r, move |ctx| {
        let (pr, pw) = ctx.pipe().unwrap();
        ctx.pipe_write(pw, b"through the kernel").unwrap();
        let d = ctx.pipe_read(pr, 64).unwrap();
        assert_eq!(d, b"through the kernel");
        // EOF after closing the write end.
        ctx.close(pw).unwrap();
        assert_eq!(ctx.pipe_read(pr, 8).unwrap(), b"");
        StepOutcome::Exited(7)
    });
    assert_eq!(code, 7);
}

#[test]
fn timers_fire_on_virtual_clock() {
    let r = rig();
    let code = run_script(&r, {
        let mut timer = None;
        move |ctx| {
            let t = *timer.get_or_insert_with(|| ctx.timer_arm(20, None));
            if ctx.timer_poll(t) {
                StepOutcome::Exited(1)
            } else {
                StepOutcome::Blocked
            }
        }
    });
    assert_eq!(code, 1);
}

#[test]
fn queued_signals_reach_the_program() {
    let r = rig();
    let pid = r.node.add_process(Process::new(
        "sig",
        1,
        Box::new(Scripted(|ctx: &mut ProcessCtx<'_>| match ctx.take_signal() {
            Some(Signal::Usr1) => StepOutcome::Exited(42),
            Some(_) => StepOutcome::Exited(1),
            None => StepOutcome::Blocked,
        })),
        Arc::clone(&r.env),
    ));
    std::thread::sleep(Duration::from_millis(5));
    r.node.signal(pid, Signal::Usr1).unwrap();
    assert_eq!(r.node.wait_exit(pid, Duration::from_secs(5)).unwrap(), 42);
}

#[test]
fn vtime_charges_syscalls_and_compute() {
    let r = rig();
    let pid = r.node.add_process(Process::new(
        "vt",
        1,
        Box::new(Scripted(|ctx: &mut ProcessCtx<'_>| {
            ctx.consume_cpu(10_000);
            let _ = ctx.now_ms(); // one charged syscall
            StepOutcome::Exited(0)
        })),
        Arc::clone(&r.env),
    ));
    r.node.wait_exit(pid, Duration::from_secs(5)).unwrap();
    let p = r.node.process(pid).unwrap();
    let vt = p.lock().unwrap().vtime_ns;
    // 10_000 compute + base (300) + pod overhead (150).
    assert_eq!(vt, 10_450);
}

#[test]
fn refcount_drains_after_each_syscall() {
    let r = rig();
    let code = run_script(&r, |ctx| {
        let _ = ctx.now_ms();
        StepOutcome::Exited(0)
    });
    assert_eq!(code, 0);
    assert_eq!(r.env.active_syscalls.load(Ordering::Acquire), 0);
}

#[test]
fn bad_fd_is_ebadf_everywhere() {
    let r = rig();
    let code = run_script(&r, |ctx| {
        assert_eq!(ctx.send(999, b"x"), Err(zapc_sim::Errno::EBADF));
        assert_eq!(ctx.file_read(999, 1), Err(zapc_sim::Errno::EBADF));
        assert_eq!(ctx.pipe_read(999, 1), Err(zapc_sim::Errno::EBADF));
        assert_eq!(ctx.close(999), Err(zapc_sim::Errno::EBADF));
        StepOutcome::Exited(0)
    });
    assert_eq!(code, 0);
}

#[test]
fn socket_syscalls_auto_bind_to_pod_vip() {
    let r = rig();
    let vip = r.env.vip;
    let code = run_script(&r, move |ctx| {
        let fd = ctx.socket(Transport::Udp).unwrap();
        let bound = ctx.bind(fd, zapc_proto::Endpoint { ip: 0, port: 4242 }).unwrap();
        assert_eq!(bound.ip, vip, "ip 0 resolves to the pod vip");
        assert_eq!(ctx.getsockname(fd).unwrap().port, 4242);
        StepOutcome::Exited(0)
    });
    assert_eq!(code, 0);
}
