//! Memory deltas at the standalone layer: a delta round resolves only
//! against the base the same stream delivered (`DecodedPod`), and a stored
//! image carrying one — or the retired `ParentRef` tag — is refused.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use zapc_ckpt::{
    capture_memory_round, checkpoint_standalone, checkpoint_standalone_with, restore_standalone,
    CkptError, DecodedPod, RestoredSockets, RoundPayload, SaveOpts,
};
use zapc_net::{Network, NetworkConfig};
use zapc_obs::Observer;
use zapc_pod::{Pod, PodConfig};
use zapc_proto::image::Header;
use zapc_proto::rw::{frame_record, RecordStream};
use zapc_proto::{DecodeError, ImageReader, ImageWriter, RecordWriter, SectionTag};
use zapc_sim::{
    ClusterClock, Node, NodeConfig, ProcessCtx, Program, ProgramRegistry, SimFs, StepOutcome,
};

/// A program with a deliberately skewed write profile: a large cold region
/// written only at init and a small hot region written every iteration —
/// the shape that makes delta rounds small.
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

/// Ships one round to the receiver and returns the generations it
/// captured — the next round's base.
fn ship(round: &[RoundPayload], parts: &mut DecodedPod) -> HashMap<u32, u64> {
    for p in round {
        let mut framed = RecordStream::new(&p.record);
        let payload = framed.expect_record(p.tag as u16).unwrap();
        assert!(framed.is_empty(), "one record per round payload");
        parts.apply_section(p.tag, payload).unwrap();
    }
    round.iter().map(|p| (p.vpid, p.gen)).collect()
}

/// `restore_standalone` of `image` into a fresh pod built from its
/// namespace; the pod is destroyed before returning.
fn try_restore(image: &[u8], r: &Rig) -> Result<(), CkptError> {
    let sections = ImageReader::open(image).unwrap().sections().unwrap();
    let ns_payload =
        sections.iter().find(|s| s.tag == SectionTag::Namespace).expect("namespace").payload;
    let ns = zapc_ckpt::restore::decode_namespace(ns_payload).unwrap();
    let pod = Pod::from_namespace(ns, &r.node, &r.clock, 150);
    let out = restore_standalone(
        &sections,
        &pod,
        &registry(),
        &RestoredSockets::default(),
        &Observer::disabled(),
    );
    pod.destroy();
    out.map(|_| ())
}

#[test]
fn restore_rejects_unsquashed_incremental() {
    // Both shapes a non-standalone stored image can take, hand-built: a
    // `MemoryDelta` where the `Memory` section belongs (what the live
    // cutover's final cut looks like off its stream), and a well-formed
    // full image with a section under the retired `ParentRef` tag
    // (0x0002) spliced in after its header.
    let r = rig();
    let pod = Pod::create(PodConfig::new("inc3", zapc_pod::pod_vip(33)), &r.node, &r.clock);
    pod.spawn("w", Box::new(SkewWriter::fresh(100_000)));
    std::thread::sleep(Duration::from_millis(10));
    let gens = ship(&capture_memory_round(&pod, None).unwrap(), &mut DecodedPod::new());
    std::thread::sleep(Duration::from_millis(5));
    pod.suspend().unwrap();

    let mut w = ImageWriter::new(&header(&pod));
    let opts = SaveOpts { base_gens: Some(gens), ..Default::default() };
    checkpoint_standalone_with(&pod, &mut w, &opts).unwrap();
    let bare_delta = w.finish();

    let mut w = ImageWriter::new(&header(&pod));
    checkpoint_standalone(&pod, &mut w).unwrap();
    let mut stale_parent_tag = w.finish();
    pod.destroy();
    // Preamble (12 bytes), then the header record: tag, length, payload, check.
    let len = u32::from_le_bytes(stale_parent_tag[14..18].try_into().unwrap()) as usize;
    let at = 12 + 2 + 4 + len + 4;
    stale_parent_tag.splice(at..at, frame_record(0x0002, b"inc3#base"));

    let err = try_restore(&bare_delta, &r).unwrap_err();
    assert!(matches!(err, CkptError::Inconsistent(_)), "memory delta: got {err:?}");
    // No section tag is 0x0002 any more: the image is refused as it is read.
    let err = ImageReader::open(&stale_parent_tag).unwrap().sections().unwrap_err();
    assert_eq!(err, DecodeError::InvalidEnum { what: "SectionTag", value: 2 });
}

#[test]
fn new_process_after_base_still_checkpoints_in_full() {
    // A vpid absent from the base map (spawned after the base round) must
    // be captured in full by a delta round, the pre-existing process as a
    // small delta, and the receiver's accumulated state must equal a
    // stop-and-copy image of the same instant.
    let r = rig();
    let pod = Pod::create(PodConfig::new("inc4", zapc_pod::pod_vip(34)), &r.node, &r.clock);
    pod.spawn("w0", Box::new(SkewWriter::fresh(100_000)));
    std::thread::sleep(Duration::from_millis(10));

    let mut parts = DecodedPod::new();
    let base = capture_memory_round(&pod, None).unwrap();
    assert!(base.iter().all(|p| p.tag == SectionTag::Memory));
    let base_bytes = base[0].region_bytes;
    let gens = ship(&base, &mut parts);

    pod.spawn("w1", Box::new(SkewWriter::fresh(100_000)));
    std::thread::sleep(Duration::from_millis(10));
    pod.suspend().unwrap();
    let round = capture_memory_round(&pod, Some(&gens)).unwrap();
    let deltas: Vec<&RoundPayload> =
        round.iter().filter(|p| p.tag == SectionTag::MemoryDelta).collect();
    assert_eq!(deltas.len(), 1, "only the pre-existing process is delta-encoded");
    assert!(gens.contains_key(&deltas[0].vpid));
    assert!(
        deltas[0].region_bytes * 5 <= base_bytes,
        "mostly-clean process: delta {} bytes must be ≥5× under its base {} bytes",
        deltas[0].region_bytes,
        base_bytes
    );
    assert_eq!(round.iter().filter(|p| p.tag == SectionTag::Memory).count(), 1);
    ship(&round, &mut parts);

    // Ground truth: a full image of the same suspended instant.
    let mut w = ImageWriter::new(&header(&pod));
    checkpoint_standalone(&pod, &mut w).unwrap();
    let full = w.finish();
    pod.destroy();
    let mut truth = DecodedPod::new();
    for s in ImageReader::open(&full).unwrap().sections().unwrap() {
        truth.apply_section(s.tag, s.payload).unwrap();
    }
    assert_eq!(parts.memory_digest(), truth.memory_digest());
}
