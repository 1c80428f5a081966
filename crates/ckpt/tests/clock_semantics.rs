//! Clock/timer semantics across checkpoint-restart (§5's two policies):
//! with time virtualization the clock bias hides downtime and timers need
//! no fixup; without it, raw timer expiries must be shifted by the
//! downtime delta so they don't all fire spuriously at restart.

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

/// Arms a timer far in the future; exits 1 if it fired before `min_ms` of
/// *virtual* run time elapsed (a spurious firing), 0 when it fires on
/// schedule.
struct TimerSentinel {
    started: bool,
    timer: u64,
    t0_ms: u64,
    delay_ms: u64,
}

impl Program for TimerSentinel {
    fn type_name(&self) -> &'static str {
        "test.timer-sentinel"
    }
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        if !self.started {
            self.t0_ms = ctx.now_ms();
            self.timer = ctx.timer_arm(self.delay_ms, None);
            self.started = true;
            return StepOutcome::Ready;
        }
        if ctx.timer_poll(self.timer) {
            let elapsed = ctx.now_ms().saturating_sub(self.t0_ms);
            // Fired: spurious iff far earlier than armed (clock jumped).
            return StepOutcome::Exited(if elapsed + 20 < self.delay_ms { 1 } else { 0 });
        }
        StepOutcome::Blocked
    }
    fn save(&self, w: &mut RecordWriter) {
        w.put_bool(self.started);
        w.put_u64(self.timer);
        w.put_u64(self.t0_ms);
        w.put_u64(self.delay_ms);
    }
}

fn load_sentinel(r: &mut RecordReader<'_>) -> zapc_proto::DecodeResult<Box<dyn Program>> {
    Ok(Box::new(TimerSentinel {
        started: r.get_bool()?,
        timer: r.get_u64()?,
        t0_ms: r.get_u64()?,
        delay_ms: r.get_u64()?,
    }))
}

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("test.timer-sentinel", load_sentinel);
    reg
}

/// Checkpoints a sentinel pod mid-wait, simulates `downtime` of real time,
/// restores (honouring the pod's virtualization setting) and returns the
/// sentinel's exit code.
fn run_with_downtime(virtualize: bool, downtime: Duration) -> i32 {
    let net = Network::new(NetworkConfig::default());
    let fs = SimFs::new();
    let clock = ClusterClock::new();
    let node = Node::new(NodeConfig { id: 0, cpus: 1 }, net.handle(), fs);

    let mut cfg = PodConfig::new("sentinel", zapc_pod::pod_vip(400 + virtualize as u16));
    cfg.virtualize_time = virtualize;
    let pod = Pod::create(cfg, &node, &clock);
    pod.spawn("sentinel", Box::new(TimerSentinel { started: false, timer: 0, t0_ms: 0, delay_ms: 150 }));
    std::thread::sleep(Duration::from_millis(20));
    pod.suspend().unwrap();

    let header = Header { pod: pod.name(), host: "t".into(), wall_ms: clock.now_ms(), flags: 0 };
    let mut w = ImageWriter::new(&header);
    checkpoint_standalone(&pod, &mut w).unwrap();
    let image = w.finish();
    pod.destroy();

    std::thread::sleep(downtime);

    let rd = ImageReader::open(&image).unwrap();
    let sections = rd.sections().unwrap();
    let ns_payload =
        sections.iter().find(|s| s.tag == SectionTag::Namespace).unwrap().payload;
    let ns = zapc_ckpt::restore::decode_namespace(ns_payload).unwrap();
    assert_eq!(ns.virtualize_time, virtualize, "policy travels in the image");
    let pod2 = Pod::from_namespace(ns, &node, &clock, 150);
    restore_standalone(
        &sections,
        &pod2,
        &registry(),
        &RestoredSockets::default(),
        &Observer::disabled(),
    )
    .unwrap();
    pod2.resume().unwrap();
    let code = pod2.wait_all(Duration::from_secs(10)).unwrap()[0];
    pod2.destroy();
    code
}

#[test]
fn virtualized_pod_timer_fires_on_schedule_after_long_downtime() {
    // 300 ms downtime against a 150 ms timer: the biased clock makes the
    // gap invisible, so the timer fires on (virtual) schedule.
    assert_eq!(run_with_downtime(true, Duration::from_millis(300)), 0);
}

#[test]
fn raw_clock_pod_relies_on_expiry_shift() {
    // Without virtualization the restore shifts raw expiries by the
    // downtime delta (§5's fallback), so the timer still does not fire
    // spuriously at restart.
    assert_eq!(run_with_downtime(false, Duration::from_millis(300)), 0);
}

#[test]
fn no_downtime_behaves_identically_either_way() {
    assert_eq!(run_with_downtime(true, Duration::ZERO), 0);
    assert_eq!(run_with_downtime(false, Duration::ZERO), 0);
}

/// Many armed timers: relative order is preserved across restore.
struct TimerLadder {
    started: bool,
    timers: Vec<u64>,
    fired: Vec<u64>,
}

impl Program for TimerLadder {
    fn type_name(&self) -> &'static str {
        "test.timer-ladder"
    }
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        if !self.started {
            for i in 0..5u64 {
                let id = ctx.timer_arm(40 + i * 30, None);
                self.timers.push(id);
            }
            self.started = true;
            return StepOutcome::Ready;
        }
        for &t in &self.timers {
            if !self.fired.contains(&t) && ctx.timer_poll(t) {
                self.fired.push(t);
            }
        }
        if self.fired.len() == self.timers.len() {
            // Exit code encodes whether firing order matched arming order.
            let ordered = self.fired == self.timers;
            return StepOutcome::Exited(if ordered { 0 } else { 1 });
        }
        StepOutcome::Blocked
    }
    fn save(&self, w: &mut RecordWriter) {
        w.put_bool(self.started);
        w.put_u64_slice(&self.timers);
        w.put_u64_slice(&self.fired);
    }
}

fn load_ladder(r: &mut RecordReader<'_>) -> zapc_proto::DecodeResult<Box<dyn Program>> {
    Ok(Box::new(TimerLadder {
        started: r.get_bool()?,
        timers: r.get_u64_slice()?,
        fired: r.get_u64_slice()?,
    }))
}

#[test]
fn timer_order_preserved_across_restore() {
    let net = Network::new(NetworkConfig::default());
    let fs = SimFs::new();
    let clock = ClusterClock::new();
    let node = Node::new(NodeConfig { id: 0, cpus: 1 }, net.handle(), fs);
    let pod = Pod::create(PodConfig::new("ladder", zapc_pod::pod_vip(410)), &node, &clock);
    pod.spawn("ladder", Box::new(TimerLadder { started: false, timers: vec![], fired: vec![] }));
    std::thread::sleep(Duration::from_millis(10));
    pod.suspend().unwrap();
    let header = Header { pod: pod.name(), host: "t".into(), wall_ms: clock.now_ms(), flags: 0 };
    let mut w = ImageWriter::new(&header);
    checkpoint_standalone(&pod, &mut w).unwrap();
    let image = w.finish();
    pod.destroy();

    std::thread::sleep(Duration::from_millis(80)); // downtime mid-ladder
    let rd = ImageReader::open(&image).unwrap();
    let sections = rd.sections().unwrap();
    let ns_payload =
        sections.iter().find(|s| s.tag == SectionTag::Namespace).unwrap().payload;
    let ns = zapc_ckpt::restore::decode_namespace(ns_payload).unwrap();
    let pod2 = Pod::from_namespace(ns, &node, &clock, 150);
    let mut reg = ProgramRegistry::new();
    reg.register("test.timer-ladder", load_ladder);
    restore_standalone(&sections, &pod2, &reg, &RestoredSockets::default(), &Observer::disabled())
        .unwrap();
    pod2.resume().unwrap();
    assert_eq!(pod2.wait_all(Duration::from_secs(10)).unwrap()[0], 0, "order preserved");
    pod2.destroy();
}
