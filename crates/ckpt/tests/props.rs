//! Property: a pipelined pre-copy chain — one full base image followed by
//! any number of dirty-region delta rounds, squashed on apply — is
//! byte-identical to a stop-and-copy image taken at cutover.
//!
//! This is the correctness core of live migration: the receiver never
//! sees the source's memory directly, only the base plus deltas; if the
//! squash drifted from the ground truth by even one byte, the migrated
//! pod would silently diverge. The property drives a randomized dirty-
//! write workload (map/rewrite/unmap, and ranged writes and appends that
//! ship as dirty pages, interleaved with capture rounds) and compares
//! `digest64` digests of the canonical `Memory` encoding.
//!
//! Property: a standalone capture is the pod as of the capture. The
//! image encoded from it after the live processes were written again is
//! section for section the image encoded at the capture.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use zapc_ckpt::{
    capture_memory_round, capture_standalone, checkpoint_standalone_with, DecodedPod,
    MemoryDeltaRecord, SaveOpts, StandaloneCapture,
};
use zapc_net::{Network, NetworkConfig};
use zapc_pod::{Pod, PodConfig};
use zapc_proto::crc::digest64;
use zapc_proto::image::Header;
use zapc_proto::rw::frame_record;
use zapc_proto::{
    Encode, ImageReader, ImageWriter, RecordWriter, SectionTag, FORMAT_VERSION, MAGIC,
};
use zapc_sim::memory::{AddressSpace, PAGE};
use zapc_sim::{ClusterClock, Node, NodeConfig, ProcessCtx, Program, SimFs, StepOutcome};

/// One mutation of one process's address space between capture rounds.
#[derive(Debug, Clone)]
enum WriteOp {
    /// Rewrite region `region % live_count` with values derived from `v`.
    Rewrite { region: usize, v: u64 },
    /// Map a fresh region of `len` f64s and fill it from `v`.
    Map { len: usize, v: u64 },
    /// Unmap region `region % live_count`: the next delta must drop it at
    /// the receiver.
    Unmap { region: usize },
    /// Map a fresh byte region of `len` bytes (up to a few pages).
    MapBytes { len: usize, v: u64 },
    /// Write `len` bytes at offset `at` (both wrapped into the region) of
    /// byte region `region % live_count`: ships as dirty pages.
    Ranged { region: usize, at: usize, len: usize, v: u64 },
    /// Append `len` bytes to byte region `region % live_count`.
    Extend { region: usize, len: usize, v: u64 },
}

fn write_ops() -> impl Strategy<Value = WriteOp> {
    (any::<u8>(), any::<usize>(), 1usize..32, any::<u64>()).prop_map(|(sel, region, len, v)| {
        // Bytes lengths and offsets reach a few pages, so ranged writes
        // straddle page boundaries and appends open new pages.
        let (at, bytes) = (v as usize % (6 * PAGE), len * 350);
        match sel % 8 {
            0 => WriteOp::Map { len, v },
            1 => WriteOp::Unmap { region },
            2 => WriteOp::MapBytes { len: bytes, v },
            3 | 4 => WriteOp::Ranged { region, at, len: bytes, v },
            5 => WriteOp::Extend { region, len: bytes / 4, v },
            _ => WriteOp::Rewrite { region, v },
        }
    })
}

/// The byte regions of `mem`, in address order.
fn byte_bases(mem: &AddressSpace) -> Vec<u64> {
    mem.regions().filter(|r| mem.bytes(r.base).is_some()).map(|r| r.base).collect()
}

fn pattern(v: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (v.wrapping_add(i as u64 * 7) % 251) as u8).collect()
}

fn apply_op(mem: &mut AddressSpace, op: &WriteOp, uniq: &mut u32) {
    let bases: Vec<u64> = mem.regions().map(|r| r.base).collect();
    match op {
        WriteOp::Rewrite { .. } | WriteOp::Unmap { .. } if bases.is_empty() => {}
        WriteOp::Unmap { region } => {
            mem.unmap(bases[region % bases.len()]);
        }
        WriteOp::Rewrite { region, v } => {
            let base = bases[region % bases.len()];
            if let Some(data) = mem.f64_mut(base) {
                for (i, x) in data.iter_mut().enumerate() {
                    *x = (*v as f64) + (i as f64) * 0.125;
                }
            } else if let Some(data) = mem.bytes_mut(base) {
                for (i, x) in data.iter_mut().enumerate() {
                    *x = (v.wrapping_add(i as u64) % 256) as u8;
                }
            }
        }
        WriteOp::Map { len, v } => {
            *uniq += 1;
            let base = mem.map_f64(&format!("prop.r{uniq}"), *len);
            let data = mem.f64_mut(base).expect("just mapped");
            for (i, x) in data.iter_mut().enumerate() {
                *x = (*v as f64) * 0.5 + i as f64;
            }
        }
        WriteOp::MapBytes { len, v } => {
            *uniq += 1;
            let base = mem.map_bytes(&format!("prop.b{uniq}"), *len);
            mem.bytes_mut(base).expect("just mapped").copy_from_slice(&pattern(*v, *len));
        }
        WriteOp::Ranged { .. } | WriteOp::Extend { .. } if byte_bases(mem).is_empty() => {}
        WriteOp::Ranged { region, at, len, v } => {
            let bases = byte_bases(mem);
            let base = bases[region % bases.len()];
            let size = mem.bytes(base).expect("byte region").len();
            let at = at % (size + 1);
            let end = (at + len).min(size);
            let dst = mem.bytes_range_mut(base, at..end).expect("in range");
            dst.copy_from_slice(&pattern(*v, end - at));
        }
        WriteOp::Extend { region, len, v } => {
            let bases = byte_bases(mem);
            mem.bytes_extend(bases[region % bases.len()], &pattern(*v, *len)).expect("byte region");
        }
    }
}

/// The canonical `Memory`-section payload for one process — the same
/// bytes `capture_memory_round` ships for a full round and the same
/// bytes `DecodedPod::memory_digest` hashes.
fn full_payload(vpid: u32, mem: &AddressSpace) -> Vec<u8> {
    let mut w = RecordWriter::new();
    w.put_u32(vpid);
    mem.encode(&mut w);
    w.into_bytes()
}

proptest! {
    #[test]
    fn precopy_chain_squashes_to_stop_and_copy_image(
        // 1–3 processes, each starting with 1–3 regions of 1–24 f64s or
        // of 1–4 pages of bytes.
        initial in proptest::collection::vec(
            proptest::collection::vec((1usize..24, any::<u64>(), any::<bool>()), 1..4),
            1..4,
        ),
        // 0–5 delta rounds, each mutating each process 0–4 times.
        rounds in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(write_ops(), 0..5), 3),
            0..6,
        ),
    ) {
        // Source side: one address space per vpid.
        let mut mems: Vec<(u32, AddressSpace)> = Vec::new();
        let mut uniq = 0u32;
        for (pi, regions) in initial.iter().enumerate() {
            let mut mem = AddressSpace::new();
            for &(len, v, bytes) in regions {
                let op = if bytes {
                    WriteOp::MapBytes { len: len * 700, v }
                } else {
                    WriteOp::Map { len, v }
                };
                apply_op(&mut mem, &op, &mut uniq);
            }
            mems.push((pi as u32 + 1, mem));
        }

        // Receiver side: the pipelined accumulator.
        let mut parts = DecodedPod::new();

        // Round 1: full base capture, shipped as Memory sections.
        let mut gens: Vec<u64> = Vec::new();
        for (vpid, mem) in &mems {
            parts.apply_section(SectionTag::Memory, &full_payload(*vpid, mem)).unwrap();
            gens.push(mem.generation());
        }

        // Delta rounds: mutate, capture dirty regions and pages since the
        // previous round, ship as MemoryDelta sections, squash on apply.
        for round in &rounds {
            for (pi, (vpid, mem)) in mems.iter_mut().enumerate() {
                for op in &round[pi % round.len()] {
                    apply_op(mem, op, &mut uniq);
                }
                let delta = MemoryDeltaRecord::capture(*vpid, gens[pi], mem);
                gens[pi] = delta.new_gen;
                let mut w = RecordWriter::new();
                delta.encode(&mut w);
                parts.apply_section(SectionTag::MemoryDelta, w.bytes()).unwrap();
            }
        }

        // Cutover: the receiver's squashed state must hash identically to
        // a stop-and-copy image taken from the live source right now.
        let mut w = RecordWriter::new();
        let mut sorted: Vec<&(u32, AddressSpace)> = mems.iter().collect();
        sorted.sort_by_key(|(vpid, _)| *vpid);
        for (vpid, mem) in sorted {
            w.put_u32(*vpid);
            mem.encode(&mut w);
        }
        let stop_and_copy = digest64(w.bytes());
        // Squashed pre-copy chain must be byte-identical to the
        // stop-and-copy image.
        prop_assert_eq!(parts.memory_digest(), stop_and_copy);
    }

    #[test]
    fn delta_on_missing_base_is_typed(
        vpid in 1u32..8,
        len in 1usize..16,
    ) {
        // A MemoryDelta for a process whose base never arrived must be a
        // typed inconsistency, not a panic or a silent empty restore.
        let mut mem = AddressSpace::new();
        let base = mem.map_f64("orphan", len);
        let _ = mem.f64_mut(base);
        let delta = MemoryDeltaRecord::capture(vpid, 0, &mem);
        let mut w = RecordWriter::new();
        delta.encode(&mut w);
        let mut parts = DecodedPod::new();
        prop_assert!(parts.apply_section(SectionTag::MemoryDelta, w.bytes()).is_err());
    }
}

/// A writer whose memory footprint is parameterized by the property
/// inputs: `regions` f64 regions of `len` elements, filled from `seed`,
/// then a busy phase so the checkpoint catches it mid-run.
struct PropWriter {
    phase: u8,
    regions: u32,
    len: u32,
    seed: u64,
    bases: Vec<u64>,
}

impl Program for PropWriter {
    fn type_name(&self) -> &'static str {
        "test.prop-writer"
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        if self.phase == 0 {
            for r in 0..self.regions {
                let base = ctx.mem.map_f64(&format!("pw.{r}"), self.len as usize);
                let data = ctx.mem.f64_mut(base).unwrap();
                for (i, x) in data.iter_mut().enumerate() {
                    *x = (self.seed.wrapping_add(i as u64) % 8191) as f64 * 0.5;
                }
                self.bases.push(base);
            }
            self.phase = 1;
        }
        ctx.consume_cpu(500);
        StepOutcome::Ready
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u8(self.phase);
        w.put_u32(self.regions);
        w.put_u32(self.len);
        w.put_u64(self.seed);
        w.put_u64(self.bases.len() as u64);
        for b in &self.bases {
            w.put_u64(*b);
        }
    }
}

/// A suspended pod of `procs` [`PropWriter`]s on a node of its own, and
/// the generations of a memory round taken while it ran: a base that a
/// delta cut of the pod is a delta against.
fn writer_pod(
    procs: usize,
    regions: u32,
    len: u32,
    seed: u64,
) -> (Network, Arc<Node>, Arc<Pod>, HashMap<u32, u64>) {
    let net = Network::new(NetworkConfig::default());
    let node = Node::new(NodeConfig { id: 0, cpus: 2 }, net.handle(), SimFs::new());
    let clock = ClusterClock::new();
    let pod = Pod::create(PodConfig::new("prop-img", zapc_pod::pod_vip(41)), &node, &clock);
    for i in 0..procs {
        pod.spawn(
            &format!("pw{i}"),
            Box::new(PropWriter {
                phase: 0,
                regions,
                len,
                seed: seed.wrapping_add(i as u64),
                bases: Vec::new(),
            }),
        );
    }
    std::thread::sleep(Duration::from_millis(15));
    let base_gens =
        capture_memory_round(&pod, None).unwrap().iter().map(|p| (p.vpid, p.gen)).collect();
    pod.suspend().unwrap();
    (net, node, pod, base_gens)
}

/// Every section of an image as `(tag, payload)`, in order.
fn sections(bytes: &[u8]) -> Vec<(SectionTag, Vec<u8>)> {
    let rd = ImageReader::open(bytes).unwrap();
    rd.sections().unwrap().iter().map(|s| (s.tag, s.payload.to_vec())).collect()
}

/// The framing reference: `MAGIC ‖ version ‖` the copy-then-check
/// `frame_record` of the header, of each section, and of the end marker.
fn reference_image(header: &Header, sections: &[(SectionTag, Vec<u8>)]) -> Vec<u8> {
    let mut hw = RecordWriter::new();
    hw.put_str(&header.pod);
    hw.put_str(&header.host);
    hw.put_u64(header.wall_ms);
    hw.put_u32(header.flags);
    let mut out = [&MAGIC[..], &FORMAT_VERSION.to_le_bytes()].concat();
    out.extend(frame_record(SectionTag::Header as u16, hw.bytes()));
    for (tag, payload) in sections {
        out.extend(frame_record(*tag as u16, payload));
    }
    out.extend(frame_record(SectionTag::End as u16, &[]));
    out
}

proptest! {
    // Each case spins up a real pod (scheduler threads + settle sleeps),
    // so keep the case count small.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Property: sections are framed in place in the image buffer, and the
    /// bytes that come out are exactly what framing each payload on its
    /// own would give — for a full image and for a cut whose memory goes
    /// down as `MemoryDelta`s — with every memory payload equal to an
    /// independent encode of the process's address space.
    #[test]
    fn image_equals_framing_reference(
        procs in 1usize..5,
        regions in 1u32..4,
        len in 1u32..64,
        seed in any::<u64>(),
    ) {
        let (_net, node, pod, base_gens) = writer_pod(procs, regions, len, seed);

        let header =
            Header { pod: pod.name(), host: "prop-node".into(), wall_ms: 0, flags: 0 };
        let checkpoint = |base_gens: Option<HashMap<u32, u64>>| {
            let mut w = ImageWriter::new(&header);
            let opts = SaveOpts { base_gens, ..Default::default() };
            checkpoint_standalone_with(&pod, &mut w, &opts).unwrap();
            w.finish()
        };
        // The independent encode of each process's memory section.
        let memory_payloads = |base_gens: Option<&HashMap<u32, u64>>| -> Vec<Vec<u8>> {
            pod.vpid_pids()
                .into_iter()
                .map(|(vpid, pid)| {
                    let parc = pod.node().process(pid).unwrap();
                    let mem = &parc.lock().unwrap().mem;
                    match base_gens {
                        None => full_payload(vpid, mem),
                        Some(gens) => {
                            let mut w = RecordWriter::new();
                            MemoryDeltaRecord::capture(vpid, gens[&vpid], mem).encode(&mut w);
                            w.into_bytes()
                        }
                    }
                })
                .collect()
        };
        let payloads_of = |secs: &[(SectionTag, Vec<u8>)], tag: SectionTag| -> Vec<Vec<u8>> {
            secs.iter().filter(|s| s.0 == tag).map(|s| s.1.clone()).collect()
        };

        let full = checkpoint(None);
        let full_secs = sections(&full);
        prop_assert!(full == reference_image(&header, &full_secs), "full image is not its framing");
        prop_assert_eq!(payloads_of(&full_secs, SectionTag::Memory), memory_payloads(None));
        prop_assert!(payloads_of(&full_secs, SectionTag::MemoryDelta).is_empty());

        let cut = checkpoint(Some(base_gens.clone()));
        let cut_secs = sections(&cut);
        prop_assert!(cut == reference_image(&header, &cut_secs), "delta cut is not its framing");
        prop_assert_eq!(
            payloads_of(&cut_secs, SectionTag::MemoryDelta),
            memory_payloads(Some(&base_gens))
        );
        prop_assert!(payloads_of(&cut_secs, SectionTag::Memory).is_empty());

        // The image is a pure function of pod state: a second checkpoint of
        // the same suspended pod agrees on everything but `Timers`, whose
        // `real_ms` advances.
        let stable = |secs: Vec<(SectionTag, Vec<u8>)>| -> Vec<(SectionTag, Vec<u8>)> {
            secs.into_iter().filter(|s| s.0 != SectionTag::Timers).collect()
        };
        prop_assert!(stable(full_secs) == stable(sections(&checkpoint(None))));

        pod.destroy();
        node.shutdown();
    }

    /// Property: writes to a suspended pod's processes after a capture
    /// (ranged writes, appends, whole-region borrows, unmaps, new maps)
    /// change no section of the image encoded from it, full or delta: each
    /// equals the section of the image encoded at the capture.
    #[test]
    fn encode_after_writes_equals_encode_at_capture(
        procs in 1usize..4,
        regions in 1u32..4,
        len in 1u32..64,
        seed in any::<u64>(),
        // Byte regions mapped before the capture, so ranged writes and
        // appends after it find one.
        maps in proptest::collection::vec((1usize..12, any::<u64>()), 1..3),
        writes in proptest::collection::vec(proptest::collection::vec(write_ops(), 1..12), 3),
    ) {
        let (_net, node, pod, base_gens) = writer_pod(procs, regions, len, seed);
        let header =
            Header { pod: pod.name(), host: "prop-node".into(), wall_ms: 0, flags: 0 };
        let mut uniq = 0u32;
        let procs = pod.vpid_pids();
        for &(_, pid) in &procs {
            let parc = pod.node().process(pid).unwrap();
            let mem = &mut parc.lock().unwrap().mem;
            for &(pages, v) in &maps {
                apply_op(mem, &WriteOp::MapBytes { len: pages * 700, v }, &mut uniq);
            }
        }

        let capture = capture_standalone(&pod).unwrap();
        let encode = |capture: StandaloneCapture, base_gens: Option<&HashMap<u32, u64>>| {
            let mut w = ImageWriter::new(&header);
            let opts = SaveOpts { base_gens: base_gens.cloned(), ..Default::default() };
            capture.encode(&mut w, &opts);
            sections(&w.finish())
        };
        let at_capture = encode(capture.clone(), None);
        let delta_at_capture = encode(capture.clone(), Some(&base_gens));

        for (i, &(_, pid)) in procs.iter().enumerate() {
            let parc = pod.node().process(pid).unwrap();
            let mem = &mut parc.lock().unwrap().mem;
            for op in &writes[i % writes.len()] {
                apply_op(mem, op, &mut uniq);
            }
        }
        prop_assert_eq!(encode(capture.clone(), Some(&base_gens)), delta_at_capture);
        prop_assert_eq!(encode(capture, None), at_capture);

        pod.destroy();
        node.shutdown();
    }
}
