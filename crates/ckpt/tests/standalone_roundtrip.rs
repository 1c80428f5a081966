//! Standalone checkpoint → destroy → restore round trips (no network).

use std::sync::Arc;
use std::time::Duration;
use zapc_ckpt::{checkpoint_standalone, restore_standalone, RestoredSockets};
use zapc_net::{Network, NetworkConfig};
use zapc_obs::Observer;
use zapc_pod::{Pod, PodConfig};
use zapc_proto::image::Header;
use zapc_proto::{ImageReader, ImageWriter, RecordReader, RecordWriter, SectionTag};
use zapc_sim::{
    ClusterClock, Node, NodeConfig, ProcessCtx, Program, ProgramRegistry, SimFs, StepOutcome,
};

/// A program exercising memory, files, pipes, timers, and signals: fills a
/// grid region, logs progress to a shared-storage file, echoes through a
/// pipe, and exits with a checksum-derived code.
struct Worker {
    phase: u8, // 0 = init, 1 = compute, 2 = done
    iter: u64,
    limit: u64,
    grid: u64,          // memory region base
    log_fd: u32,
    pipe_r: u32,
    pipe_w: u32,
    timer: u64,
    timer_fired: u64,
}

impl Worker {
    fn fresh(limit: u64) -> Worker {
        Worker {
            phase: 0,
            iter: 0,
            limit,
            grid: 0,
            log_fd: 0,
            pipe_r: 0,
            pipe_w: 0,
            timer: 0,
            timer_fired: 0,
        }
    }
}

impl Program for Worker {
    fn type_name(&self) -> &'static str {
        "test.worker"
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.phase {
            0 => {
                self.grid = ctx.mem.map_f64("grid", 1024);
                self.log_fd = ctx.open("progress.log", true, true).unwrap();
                let (r, w) = ctx.pipe().unwrap();
                self.pipe_r = r;
                self.pipe_w = w;
                self.timer = ctx.timer_arm(1, Some(1));
                self.phase = 1;
                StepOutcome::Ready
            }
            1 => {
                if self.iter >= self.limit {
                    self.phase = 2;
                    return StepOutcome::Ready;
                }
                let i = self.iter as usize % 1024;
                let g = ctx.mem.f64_mut(self.grid).unwrap();
                g[i] += (self.iter as f64).sqrt();
                ctx.consume_cpu(500);
                if self.iter.is_multiple_of(64) {
                    ctx.file_write(self.log_fd, format!("iter={}\n", self.iter).as_bytes()).unwrap();
                    ctx.pipe_write(self.pipe_w, b"tick").unwrap();
                    let _ = ctx.pipe_read(self.pipe_r, 2); // leave 2 bytes buffered
                }
                if ctx.timer_poll(self.timer) {
                    self.timer_fired += 1;
                }
                self.iter += 1;
                StepOutcome::Ready
            }
            _ => {
                let g = ctx.mem.f64(self.grid).unwrap();
                let sum: f64 = g.iter().sum();
                StepOutcome::Exited((sum as i64 % 97) as i32)
            }
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u8(self.phase);
        w.put_u64(self.iter);
        w.put_u64(self.limit);
        w.put_u64(self.grid);
        w.put_u32(self.log_fd);
        w.put_u32(self.pipe_r);
        w.put_u32(self.pipe_w);
        w.put_u64(self.timer);
        w.put_u64(self.timer_fired);
    }
}

fn load_worker(r: &mut RecordReader<'_>) -> zapc_proto::DecodeResult<Box<dyn Program>> {
    Ok(Box::new(Worker {
        phase: r.get_u8()?,
        iter: r.get_u64()?,
        limit: r.get_u64()?,
        grid: r.get_u64()?,
        log_fd: r.get_u32()?,
        pipe_r: r.get_u32()?,
        pipe_w: r.get_u32()?,
        timer: r.get_u64()?,
        timer_fired: r.get_u64()?,
    }))
}

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("test.worker", load_worker);
    reg
}

struct Rig {
    _net: Network,
    nodes: Vec<Arc<Node>>,
    clock: Arc<ClusterClock>,
    fs: Arc<SimFs>,
}

fn rig(n_nodes: u32) -> Rig {
    let net = Network::new(NetworkConfig::default());
    let fs = SimFs::new();
    let nodes = (0..n_nodes)
        .map(|i| Node::new(NodeConfig { id: i, cpus: 1 }, net.handle(), Arc::clone(&fs)))
        .collect();
    Rig { _net: net, nodes, clock: ClusterClock::new(), fs }
}

/// Runs a fresh worker to completion and returns its exit code — the
/// reference result every checkpointed run must reproduce.
fn reference_exit_code() -> i32 {
    let r = rig(1);
    let pod = Pod::create(PodConfig::new("ref", zapc_pod::pod_vip(99)), &r.nodes[0], &r.clock);
    pod.spawn("w", Box::new(Worker::fresh(2000)));
    let codes = pod.wait_all(Duration::from_secs(30)).unwrap();
    pod.destroy();
    codes[0]
}

fn checkpoint_to_bytes(pod: &Pod) -> Vec<u8> {
    let header = Header {
        pod: pod.name(),
        host: "test-node".into(),
        wall_ms: pod.env.clock.now_ms(),
        flags: 0,
    };
    let mut w = ImageWriter::new(&header);
    checkpoint_standalone(pod, &mut w).unwrap();
    w.finish()
}

fn restore_from_bytes(bytes: &[u8], node: &Arc<Node>, clock: &Arc<ClusterClock>) -> Arc<Pod> {
    let rd = ImageReader::open(bytes).unwrap();
    let sections = rd.sections().unwrap();
    let ns_payload = sections
        .iter()
        .find(|s| s.tag == SectionTag::Namespace)
        .expect("namespace section")
        .payload;
    let ns = zapc_ckpt::restore::decode_namespace(ns_payload).unwrap();
    let pod = Pod::from_namespace(ns, node, clock, 150);
    restore_standalone(
        &sections,
        &pod,
        &registry(),
        &RestoredSockets::default(),
        &Observer::disabled(),
    )
    .unwrap();
    pod
}

#[test]
fn checkpoint_restart_same_node_preserves_result() {
    let expected = reference_exit_code();
    let r = rig(1);
    let pod = Pod::create(PodConfig::new("p1", zapc_pod::pod_vip(1)), &r.nodes[0], &r.clock);
    pod.spawn("w", Box::new(Worker::fresh(2000)));
    std::thread::sleep(Duration::from_millis(15)); // run mid-way

    pod.suspend().unwrap();
    let image = checkpoint_to_bytes(&pod);
    pod.destroy();

    let pod2 = restore_from_bytes(&image, &r.nodes[0], &r.clock);
    assert_eq!(pod2.process_count(), 1);
    pod2.resume().unwrap();
    let codes = pod2.wait_all(Duration::from_secs(30)).unwrap();
    assert_eq!(codes[0], expected, "restored run must compute the same result");
    pod2.destroy();
}

#[test]
fn checkpoint_migrate_to_other_node() {
    let expected = reference_exit_code();
    let r = rig(2);
    let pod = Pod::create(PodConfig::new("p2", zapc_pod::pod_vip(2)), &r.nodes[0], &r.clock);
    pod.spawn("w", Box::new(Worker::fresh(2000)));
    std::thread::sleep(Duration::from_millis(15));

    pod.suspend().unwrap();
    let image = checkpoint_to_bytes(&pod);
    pod.destroy();

    // Restore on a *different* node; shared storage makes the log visible.
    let pod2 = restore_from_bytes(&image, &r.nodes[1], &r.clock);
    pod2.resume().unwrap();
    let codes = pod2.wait_all(Duration::from_secs(30)).unwrap();
    assert_eq!(codes[0], expected);
    // The log file accumulated entries from both incarnations.
    let log = r.fs.read("/pods/p2/progress.log").unwrap();
    assert!(log.windows(5).filter(|w| w == b"iter=").count() > 1);
    pod2.destroy();
}

#[test]
fn snapshot_semantics_original_keeps_running() {
    // Taking a snapshot must not perturb the original (non-destructive
    // extraction, §5).
    let r = rig(1);
    let pod = Pod::create(PodConfig::new("p3", zapc_pod::pod_vip(3)), &r.nodes[0], &r.clock);
    pod.spawn("w", Box::new(Worker::fresh(2000)));
    std::thread::sleep(Duration::from_millis(10));
    pod.suspend().unwrap();
    let image_a = checkpoint_to_bytes(&pod);
    let image_b = checkpoint_to_bytes(&pod);
    assert_eq!(image_a.len(), image_b.len(), "checkpoint is repeatable");
    pod.resume().unwrap();
    let codes = pod.wait_all(Duration::from_secs(30)).unwrap();
    assert_eq!(codes[0], reference_exit_code());
    pod.destroy();
}

#[test]
fn checkpoint_of_runnable_pod_fails() {
    let r = rig(1);
    let pod = Pod::create(PodConfig::new("p4", zapc_pod::pod_vip(4)), &r.nodes[0], &r.clock);
    pod.spawn("w", Box::new(Worker::fresh(u64::MAX)));
    std::thread::sleep(Duration::from_millis(5));
    // No suspend: must refuse.
    let header = Header { pod: pod.name(), host: "h".into(), wall_ms: 0, flags: 0 };
    let mut w = ImageWriter::new(&header);
    let err = checkpoint_standalone(&pod, &mut w).unwrap_err();
    assert!(matches!(err, zapc_ckpt::CkptError::NotSuspended(_)));
    pod.destroy();
}

#[test]
fn repeated_checkpoint_restart_chain() {
    // Checkpoint → restore → run a bit → checkpoint again → restore:
    // the second image must carry the first restore's progress.
    let expected = reference_exit_code();
    let r = rig(2);
    let pod = Pod::create(PodConfig::new("p5", zapc_pod::pod_vip(5)), &r.nodes[0], &r.clock);
    pod.spawn("w", Box::new(Worker::fresh(2000)));
    std::thread::sleep(Duration::from_millis(8));
    pod.suspend().unwrap();
    let image1 = checkpoint_to_bytes(&pod);
    pod.destroy();

    let pod2 = restore_from_bytes(&image1, &r.nodes[1], &r.clock);
    pod2.resume().unwrap();
    std::thread::sleep(Duration::from_millis(8));
    pod2.suspend().unwrap();
    let image2 = checkpoint_to_bytes(&pod2);
    pod2.destroy();

    let pod3 = restore_from_bytes(&image2, &r.nodes[0], &r.clock);
    pod3.resume().unwrap();
    let codes = pod3.wait_all(Duration::from_secs(30)).unwrap();
    assert_eq!(codes[0], expected);
    pod3.destroy();
}

#[test]
fn virtual_clock_hides_downtime_across_restore() {
    let r = rig(1);
    let pod = Pod::create(PodConfig::new("p6", zapc_pod::pod_vip(6)), &r.nodes[0], &r.clock);
    pod.spawn("w", Box::new(Worker::fresh(u64::MAX)));
    std::thread::sleep(Duration::from_millis(5));
    pod.suspend().unwrap();
    let image = checkpoint_to_bytes(&pod);
    pod.destroy();

    // Simulate downtime between checkpoint and restart.
    std::thread::sleep(Duration::from_millis(120));
    let pod2 = restore_from_bytes(&image, &r.nodes[0], &r.clock);
    assert!(
        pod2.env.vclock.bias_ms() >= 120,
        "bias {} must cover the downtime",
        pod2.env.vclock.bias_ms()
    );
    let virt_now = pod2.env.vclock.now_ms(&pod2.env.clock);
    let real_now = pod2.env.clock.now_ms();
    assert!(real_now - virt_now >= 120, "application-visible clock skips the gap");
    pod2.destroy();
}
