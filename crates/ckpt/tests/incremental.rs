//! Incremental and parallel standalone checkpoints: delta capture against a
//! parent image, chain squash, and serial/parallel equivalence.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use zapc_ckpt::{
    checkpoint_standalone_with, restore_standalone, squash_image, MemoryDeltaRecord, ParentRecord,
    RestoredSockets, SaveOpts,
};
use zapc_net::{Network, NetworkConfig};
use zapc_pod::{Pod, PodConfig};
use zapc_proto::crc::fnv1a64;
use zapc_proto::image::Header;
use zapc_proto::{Encode, ImageReader, ImageWriter, RecordReader, RecordWriter, SectionTag};
use zapc_sim::{
    ClusterClock, Node, NodeConfig, ProcessCtx, Program, ProgramRegistry, SimFs, StepOutcome,
};

/// A program with a deliberately skewed write profile: a large cold region
/// written only at init and a small hot region written every iteration —
/// the shape that makes incremental checkpoints win (§6.2).
struct SkewWriter {
    phase: u8,
    iter: u64,
    limit: u64,
    cold: u64,
    hot: u64,
}

impl SkewWriter {
    fn fresh(limit: u64) -> SkewWriter {
        SkewWriter { phase: 0, iter: 0, limit, cold: 0, hot: 0 }
    }
}

impl Program for SkewWriter {
    fn type_name(&self) -> &'static str {
        "test.skew-writer"
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.phase {
            0 => {
                self.cold = ctx.mem.map_f64("cold", 64 * 1024);
                self.hot = ctx.mem.map_f64("hot", 64);
                let cold = ctx.mem.f64_mut(self.cold).unwrap();
                for (i, x) in cold.iter_mut().enumerate() {
                    *x = i as f64;
                }
                self.phase = 1;
                StepOutcome::Ready
            }
            1 => {
                if self.iter >= self.limit {
                    self.phase = 2;
                    return StepOutcome::Ready;
                }
                let hot = ctx.mem.f64_mut(self.hot).unwrap();
                hot[(self.iter % 64) as usize] += 1.0;
                ctx.consume_cpu(500);
                self.iter += 1;
                StepOutcome::Ready
            }
            _ => {
                let hot = ctx.mem.f64(self.hot).unwrap();
                let sum: f64 = hot.iter().sum();
                StepOutcome::Exited((sum as i64 % 97) as i32)
            }
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u8(self.phase);
        w.put_u64(self.iter);
        w.put_u64(self.limit);
        w.put_u64(self.cold);
        w.put_u64(self.hot);
    }
}

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("test.skew-writer", |r| {
        Ok(Box::new(SkewWriter {
            phase: r.get_u8()?,
            iter: r.get_u64()?,
            limit: r.get_u64()?,
            cold: r.get_u64()?,
            hot: r.get_u64()?,
        }))
    });
    reg
}

struct Rig {
    _net: Network,
    node: Arc<Node>,
    clock: Arc<ClusterClock>,
}

fn rig() -> Rig {
    let net = Network::new(NetworkConfig::default());
    let fs = SimFs::new();
    let node = Node::new(NodeConfig { id: 0, cpus: 2 }, net.handle(), fs);
    Rig { _net: net, node, clock: ClusterClock::new() }
}

fn header(pod: &Pod) -> Header {
    Header { pod: pod.name(), host: "test-node".into(), wall_ms: 0, flags: 0 }
}

/// Checkpoints `pod` with `opts`; when `parent` is given the image carries
/// a `ParentRef` to it, mirroring what the Agent writes.
fn checkpoint(pod: &Pod, opts: &SaveOpts, parent: Option<(&str, &[u8])>) -> (Vec<u8>, zapc_ckpt::SaveOutcome) {
    let mut w = ImageWriter::new(&header(pod));
    if let Some((label, bytes)) = parent {
        let pr = ParentRecord {
            parent: label.to_owned(),
            parent_digest: fnv1a64(bytes),
            depth: 1,
        };
        w.section(SectionTag::ParentRef, |r| pr.encode(r));
    }
    let outcome = checkpoint_standalone_with(pod, &mut w, opts).unwrap();
    (w.finish(), outcome)
}

/// Payloads of every section except `Timers` (whose `real_ms` advances
/// between two back-to-back checkpoints of the same suspended pod).
fn stable_sections(bytes: &[u8]) -> Vec<(SectionTag, Vec<u8>)> {
    let mut rd = ImageReader::open(bytes).unwrap();
    let mut out = Vec::new();
    while let Some(s) = rd.next_section().unwrap() {
        if s.tag != SectionTag::Timers {
            out.push((s.tag, s.payload.to_vec()));
        }
    }
    out
}

fn restore(bytes: &[u8], r: &Rig) -> Arc<Pod> {
    let sections = ImageReader::open(bytes).unwrap().sections().unwrap();
    let ns_payload =
        sections.iter().find(|s| s.tag == SectionTag::Namespace).expect("namespace").payload;
    let ns = zapc_ckpt::restore::decode_namespace(ns_payload).unwrap();
    let pod = Pod::from_namespace(ns, &r.node, &r.clock, 150);
    restore_standalone(&sections, &pod, &registry(), &RestoredSockets::default()).unwrap();
    pod
}

#[test]
fn incremental_writes_far_fewer_bytes_and_squash_matches_full() {
    let r = rig();
    let pod = Pod::create(PodConfig::new("inc1", zapc_pod::pod_vip(31)), &r.node, &r.clock);
    pod.spawn("w", Box::new(SkewWriter::fresh(100_000)));
    std::thread::sleep(Duration::from_millis(15));
    pod.suspend().unwrap();

    // Warm full checkpoint: the incremental base.
    let (full1, o1) = checkpoint(&pod, &SaveOpts::default(), None);
    assert_eq!(o1.delta_sections, 0);

    pod.resume().unwrap();
    std::thread::sleep(Duration::from_millis(10));
    pod.suspend().unwrap();

    // Same suspended instant: a reference full image and an incremental.
    let (full2, of) = checkpoint(&pod, &SaveOpts::default(), None);
    let inc_opts = SaveOpts { base_gens: Some(o1.gens.clone()), ..Default::default() };
    let (inc2, oi) = checkpoint(&pod, &inc_opts, Some(("inc1#base", &full1)));
    assert!(oi.delta_sections >= 1);
    assert!(
        oi.memory_payload_bytes * 5 <= of.memory_payload_bytes,
        "mostly-clean pod: delta {} bytes must be ≥5× under full {} bytes",
        oi.memory_payload_bytes,
        of.memory_payload_bytes
    );

    // Squashing the chain reproduces the standalone image's sections.
    let fetch = |label: &str| (label == "inc1#base").then(|| full1.clone());
    let squashed = squash_image(&inc2, &fetch).unwrap();
    assert_eq!(stable_sections(&squashed), stable_sections(&full2));

    // And the restored pod finishes with the reference result.
    pod.resume().unwrap();
    let expected = pod.wait_all(Duration::from_secs(30)).unwrap();
    pod.destroy();
    let pod2 = restore(&squashed, &r);
    pod2.resume().unwrap();
    let codes = pod2.wait_all(Duration::from_secs(30)).unwrap();
    assert_eq!(codes, expected);
    pod2.destroy();
}

#[test]
fn restore_rejects_unsquashed_incremental() {
    let r = rig();
    let pod = Pod::create(PodConfig::new("inc3", zapc_pod::pod_vip(33)), &r.node, &r.clock);
    pod.spawn("w", Box::new(SkewWriter::fresh(100_000)));
    std::thread::sleep(Duration::from_millis(10));
    pod.suspend().unwrap();
    let (full1, o1) = checkpoint(&pod, &SaveOpts::default(), None);
    pod.resume().unwrap();
    std::thread::sleep(Duration::from_millis(5));
    pod.suspend().unwrap();
    let inc_opts = SaveOpts { base_gens: Some(o1.gens), ..Default::default() };
    let (inc, _) = checkpoint(&pod, &inc_opts, Some(("inc3#base", &full1)));
    pod.destroy();

    let sections = ImageReader::open(&inc).unwrap().sections().unwrap();
    let ns_payload =
        sections.iter().find(|s| s.tag == SectionTag::Namespace).expect("namespace").payload;
    let ns = zapc_ckpt::restore::decode_namespace(ns_payload).unwrap();
    let pod2 = Pod::from_namespace(ns, &r.node, &r.clock, 150);
    let err = restore_standalone(&sections, &pod2, &registry(), &RestoredSockets::default())
        .unwrap_err();
    assert!(matches!(err, zapc_ckpt::CkptError::Inconsistent(_)));
    pod2.destroy();
}

#[test]
fn new_process_after_base_still_checkpoints_in_full() {
    // A vpid absent from the base map (spawned after the parent image)
    // must get a full Memory section even in an incremental checkpoint.
    let r = rig();
    let pod = Pod::create(PodConfig::new("inc4", zapc_pod::pod_vip(34)), &r.node, &r.clock);
    pod.spawn("w0", Box::new(SkewWriter::fresh(100_000)));
    std::thread::sleep(Duration::from_millis(10));
    pod.suspend().unwrap();
    let (full1, o1) = checkpoint(&pod, &SaveOpts::default(), None);
    pod.resume().unwrap();
    pod.spawn("w1", Box::new(SkewWriter::fresh(100_000)));
    std::thread::sleep(Duration::from_millis(10));
    pod.suspend().unwrap();
    let inc_opts = SaveOpts { base_gens: Some(o1.gens), ..Default::default() };
    let (inc, oi) = checkpoint(&pod, &inc_opts, Some(("inc4#base", &full1)));
    pod.destroy();
    assert_eq!(oi.delta_sections, 1, "only the pre-existing process is delta-encoded");

    let mut tags: HashMap<SectionTag, usize> = HashMap::new();
    let mut rd = ImageReader::open(&inc).unwrap();
    while let Some(s) = rd.next_section().unwrap() {
        *tags.entry(s.tag).or_default() += 1;
    }
    assert_eq!(tags.get(&SectionTag::MemoryDelta), Some(&1));
    assert_eq!(tags.get(&SectionTag::Memory), Some(&1));

    // The mixed image still squashes and decodes cleanly.
    let fetch = |label: &str| (label == "inc4#base").then(|| full1.clone());
    let squashed = squash_image(&inc, &fetch).unwrap();
    let delta_left = ImageReader::open(&squashed)
        .unwrap()
        .sections()
        .unwrap()
        .iter()
        .any(|s| s.tag == SectionTag::MemoryDelta);
    assert!(!delta_left);

    // One MemoryDeltaRecord sanity check on the raw image.
    let mut rd = ImageReader::open(&inc).unwrap();
    while let Some(s) = rd.next_section().unwrap() {
        if s.tag == SectionTag::MemoryDelta {
            let rec = MemoryDeltaRecord::decode_from(s.payload);
            assert!(rec.new_gen >= rec.base_gen);
        }
    }
}

trait DecodeFrom {
    fn decode_from(payload: &[u8]) -> Self;
}

impl DecodeFrom for MemoryDeltaRecord {
    fn decode_from(payload: &[u8]) -> Self {
        use zapc_proto::Decode;
        let mut r = RecordReader::new(payload);
        MemoryDeltaRecord::decode(&mut r).unwrap()
    }
}
