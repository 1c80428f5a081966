//! Standalone checkpoint: pod → image sections.

use crate::delta::MemoryDeltaRecord;
use crate::records::{ClockRecord, FdRecord, PipeTable, ProcRecord, ProcStateRecord};
use crate::{bufpool, CkptError, CkptResult};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use zapc_pod::Pod;
use zapc_proto::{Encode, ImageWriter, RecordWriter, SectionTag};
use zapc_sim::fdtable::FdKind;
use zapc_sim::process::Process;
use zapc_sim::{Pid, ProcState};

/// Options for [`checkpoint_standalone_with`].
#[derive(Debug, Clone, Default)]
pub struct SaveOpts {
    /// Per-vpid address-space generation of the last pre-copy round the
    /// receiver already holds (live migration's final cut). When set, a
    /// vpid present in the map gets a [`SectionTag::MemoryDelta`] section
    /// with only the regions dirtied since; vpids not in the map (e.g.
    /// forked after that round) are written in full.
    pub base_gens: Option<HashMap<u32, u64>>,
    /// Event observer: a `ckpt.encode` span around the per-process
    /// encodes, a `ckpt.merge` span, and `ckpt.full_bytes`/
    /// `ckpt.delta_bytes` counters. Disabled by default (one branch per
    /// site).
    pub obs: zapc_obs::Observer,
}

/// Serializes a pod's non-network state into `w`.
///
/// Preconditions (enforced): the pod is suspended — every live process is
/// `Stopped` — and quiescent (no in-flight system call). This is Agent step
/// 3 of Figure 1; the caller has already written the network sections.
///
/// Full-image wrapper around [`checkpoint_standalone_with`].
pub fn checkpoint_standalone(pod: &Pod, w: &mut ImageWriter) -> CkptResult<()> {
    checkpoint_standalone_with(pod, w, &SaveOpts::default())
}

/// One process's encoded payloads. Payload buffers come from (and
/// return to) the [`bufpool`] once the merge has copied them out.
struct ProcPayload {
    proc_bytes: Vec<u8>,
    mem_tag: SectionTag,
    mem_bytes: Vec<u8>,
    /// Pipes this process references, deduplicated per process only; the
    /// merge step deduplicates across processes in vpid order.
    pipes: Vec<(u64, Vec<u8>, bool, bool)>,
}

/// Serializes a pod's non-network state into `w`, optionally as deltas
/// against an earlier round of the same stream (`opts.base_gens`).
/// Section order is deterministic: Namespace, Timers, FdTable, then per
/// process (in vpid order) Process followed by its Memory/MemoryDelta.
pub fn checkpoint_standalone_with(
    pod: &Pod,
    w: &mut ImageWriter,
    opts: &SaveOpts,
) -> CkptResult<()> {
    let ordinals = socket_ordinals(pod);

    // Namespace.
    let ns = pod.namespace();
    w.section(SectionTag::Namespace, |r| ns.encode(r));

    // Clock state (Timers section): bias + real checkpoint time.
    let clock = ClockRecord {
        bias_ms: pod.env.vclock.bias_ms(),
        real_ms: pod.env.clock.now_ms(),
    };
    w.section(SectionTag::Timers, |r| clock.encode(r));

    let vpids: Vec<(u32, Pid)> = pod.vpid_pids();
    let obs = &opts.obs;
    let key = pod.name();

    let mut payloads: Vec<ProcPayload> = Vec::with_capacity(vpids.len());
    {
        let _span = obs.span(&key, "ckpt.encode");
        for &(vpid, pid) in &vpids {
            let parc = pod
                .node()
                .process(pid)
                .ok_or(CkptError::Inconsistent("process vanished during checkpoint"))?;
            payloads.push(encode_process(vpid, &parc, &ordinals, opts.base_gens.as_ref())?);
        }
    }

    // Merge: pod-wide pipe table deduplicated in vpid order, then the
    // per-process sections stitched deterministically. Pipe payloads are
    // moved, not cloned; duplicates go back to the buffer pool.
    let _merge_span = obs.span(&key, "ckpt.merge");
    let mut pipe_table = PipeTable::default();
    let mut seen_pipes: HashSet<u64> = HashSet::new();
    for p in &mut payloads {
        for (id, data, rc, wc) in p.pipes.drain(..) {
            if seen_pipes.insert(id) {
                pipe_table.pipes.push((id, data, rc, wc));
            } else {
                bufpool::give(data);
            }
        }
    }

    w.section(SectionTag::FdTable, |r| pipe_table.encode(r));
    for (_, data, _, _) in pipe_table.pipes.drain(..) {
        bufpool::give(data);
    }
    for p in payloads {
        if obs.enabled() {
            let name = if p.mem_tag == SectionTag::MemoryDelta {
                "ckpt.delta_bytes"
            } else {
                "ckpt.full_bytes"
            };
            obs.counter(&key, name, p.mem_bytes.len() as u64);
        }
        w.section_bytes(SectionTag::Process, &p.proc_bytes);
        w.section_bytes(p.mem_tag, &p.mem_bytes);
        bufpool::give(p.proc_bytes);
        bufpool::give(p.mem_bytes);
    }
    Ok(())
}

/// One process's memory payload captured by a live pre-copy round.
#[derive(Debug)]
pub struct RoundPayload {
    /// Virtual PID the payload belongs to.
    pub vpid: u32,
    /// [`SectionTag::Memory`] (base round, or a process new since the
    /// base) or [`SectionTag::MemoryDelta`].
    pub tag: SectionTag,
    /// Encoded section payload, ready to frame and ship. Drawn from the
    /// checkpoint buffer pool; hand it back with [`RoundPayload::recycle`]
    /// once framed so long pre-copies stop allocating per round.
    pub payload: Vec<u8>,
    /// Address-space generation at capture time — the next round's base.
    pub gen: u64,
    /// Region-content bytes the payload carries (the residual dirty set
    /// for deltas); what the convergence policy meters.
    pub region_bytes: usize,
}

impl RoundPayload {
    /// Returns the payload's allocation to the checkpoint buffer pool.
    pub fn recycle(self) {
        bufpool::give(self.payload);
    }
}

/// Captures one pre-copy round of memory payloads *without* suspending the
/// pod. Each process is captured under its own process lock, so every
/// payload is internally consistent (the scheduler steps a process while
/// holding the same lock); processes keep running between captures, which
/// is exactly the race iterative pre-copy tolerates — anything written
/// after a capture shows up in the next round's dirty set, and the final
/// quiesced cut ([`checkpoint_standalone_with`] with `base_gens` from the
/// last round) closes the window.
///
/// `base_gens` selects full vs delta payloads exactly as in [`SaveOpts`].
/// Payload buffers come from the checkpoint buffer pool and are encoded
/// in place (no intermediate scratch-then-copy), so a long pre-copy's
/// steady state allocates nothing per round — provided the caller
/// [`RoundPayload::recycle`]s payloads after shipping them.
pub fn capture_memory_round(
    pod: &Pod,
    base_gens: Option<&HashMap<u32, u64>>,
) -> CkptResult<Vec<RoundPayload>> {
    let mut out = Vec::new();
    for (vpid, pid) in pod.vpid_pids() {
        let parc = pod
            .node()
            .process(pid)
            .ok_or(CkptError::Inconsistent("process vanished during pre-copy round"))?;
        let proc = parc.lock();
        let gen = proc.mem.generation();
        let (tag, region_bytes, payload) = match base_gens.and_then(|b| b.get(&vpid).copied()) {
            Some(base_gen) => {
                let delta = MemoryDeltaRecord::capture(vpid, base_gen, &proc.mem);
                let bytes = delta.dirty.iter().map(|r| r.data.byte_len()).sum();
                let mut pw = RecordWriter::with_buffer(bufpool::take(1024));
                delta.encode(&mut pw);
                (SectionTag::MemoryDelta, bytes, pw.into_bytes())
            }
            None => {
                let mut pw =
                    RecordWriter::with_buffer(bufpool::take(proc.mem.total_bytes() + 64));
                pw.put_u32(vpid);
                proc.mem.encode(&mut pw);
                (SectionTag::Memory, proc.mem.total_bytes(), pw.into_bytes())
            }
        };
        out.push(RoundPayload { vpid, tag, payload, gen, region_bytes });
    }
    Ok(out)
}

/// Encodes one suspended process: control block, descriptor records, and
/// its memory payload (full, or a delta against `base_gens[vpid]`). All
/// scratch buffers are drawn from the checkpoint buffer pool; the caller
/// returns the produced payload buffers after copying them into the image.
fn encode_process(
    vpid: u32,
    parc: &Arc<parking_lot::Mutex<Process>>,
    ordinals: &HashMap<zapc_net::SocketId, u32>,
    base_gens: Option<&HashMap<u32, u64>>,
) -> CkptResult<ProcPayload> {
    let proc = parc.lock();
    let state = match proc.state {
        ProcState::Stopped => ProcStateRecord::Live,
        ProcState::Exited(code) => ProcStateRecord::Exited(code),
        ProcState::Runnable => return Err(CkptError::NotSuspended(proc.pid)),
    };

    // Program control state.
    let (program_type, program_state) = match &proc.program {
        Some(prog) => {
            let mut pw = RecordWriter::with_buffer(bufpool::take(64));
            prog.save(&mut pw);
            (prog.type_name().to_owned(), pw.into_bytes())
        }
        None => (String::new(), Vec::new()),
    };

    // Descriptor records; pipes are recorded once per process here and
    // deduplicated pod-wide during the merge.
    let mut pipes: Vec<(u64, Vec<u8>, bool, bool)> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut fds = Vec::new();
    for (fd, entry) in proc.fds.iter() {
        let rec = match &entry.kind {
            FdKind::File(f) => {
                FdRecord::File { path: f.path.clone(), offset: f.offset, append: f.append }
            }
            FdKind::PipeRead(p) => {
                record_pipe(&mut pipes, &mut seen, p);
                FdRecord::PipeRead { pipe: p.id }
            }
            FdKind::PipeWrite(p) => {
                record_pipe(&mut pipes, &mut seen, p);
                FdRecord::PipeWrite { pipe: p.id }
            }
            FdKind::Socket(s) => {
                let ordinal = *ordinals
                    .get(&s.id)
                    .ok_or(CkptError::Inconsistent("socket not in pod enumeration"))?;
                FdRecord::Socket { ordinal }
            }
        };
        fds.push((fd, rec));
    }

    let rec = ProcRecord {
        vpid,
        name: proc.name.clone(),
        state,
        signals: proc.signals.clone(),
        timers: proc.timers.clone(),
        vtime_ns: proc.vtime_ns,
        program_type,
        program_state,
        fds,
    };
    let mut pw = RecordWriter::with_buffer(bufpool::take(256));
    rec.encode(&mut pw);
    bufpool::give(rec.program_state);

    let (mem_tag, mem_bytes) = match base_gens.and_then(|b| b.get(&vpid).copied()) {
        Some(base_gen) => {
            let delta = MemoryDeltaRecord::capture(vpid, base_gen, &proc.mem);
            let mut mw = RecordWriter::with_buffer(bufpool::take(1024));
            delta.encode(&mut mw);
            (SectionTag::MemoryDelta, mw.into_bytes())
        }
        None => {
            let mut mw = RecordWriter::with_buffer(bufpool::take(proc.mem.total_bytes() + 64));
            mw.put_u32(vpid);
            proc.mem.encode(&mut mw);
            (SectionTag::Memory, mw.into_bytes())
        }
    };

    Ok(ProcPayload { proc_bytes: pw.into_bytes(), mem_tag, mem_bytes, pipes })
}

/// The pod's stable socket enumeration: socket id → checkpoint ordinal.
/// Both the network checkpoint and the descriptor records use this order.
pub fn socket_ordinals(pod: &Pod) -> HashMap<zapc_net::SocketId, u32> {
    pod.sockets().iter().enumerate().map(|(i, s)| (s.id, i as u32)).collect()
}

fn record_pipe(
    out: &mut Vec<(u64, Vec<u8>, bool, bool)>,
    seen: &mut HashSet<u64>,
    pipe: &std::sync::Arc<zapc_sim::pipe::Pipe>,
) {
    if seen.insert(pipe.id) {
        let (data, rc, wc) = pipe.snapshot();
        out.push((pipe.id, data, rc, wc));
    }
}
