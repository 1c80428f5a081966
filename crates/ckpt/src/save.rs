//! Standalone checkpoint: pod → image sections.

use crate::delta::MemoryDeltaRecord;
use crate::records::{ClockRecord, FdRecord, PipeTable, ProcRecord, ProcStateRecord};
use crate::{CkptError, CkptResult};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use zapc_pod::Pod;
use zapc_proto::{Encode, ImageWriter, RecordWriter, SectionTag};
use zapc_sim::fdtable::FdKind;
use zapc_sim::memory::AddressSpace;
use zapc_sim::process::Process;
use zapc_sim::ProcState;

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
    /// encodes and `ckpt.full_bytes`/`ckpt.delta_bytes` counters.
    /// Disabled by default (one branch per site).
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

/// Serializes a pod's non-network state into `w`, optionally as deltas
/// against an earlier round of the same stream (`opts.base_gens`).
/// Section order is deterministic: Namespace, Timers, FdTable, then per
/// process (in vpid order) Process followed by its Memory/MemoryDelta.
///
/// The pod-wide pipe table precedes the first process section, so this
/// makes two passes over the suspended (hence stable) processes: the first
/// builds each small process record and collects the pipes, the second
/// encodes each record and its memory straight into the image.
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

    let obs = &opts.obs;
    let key = pod.name();
    let _span = obs.span(&key, "ckpt.encode");

    // Pass 1: process records, and the pipe table deduplicated pod-wide
    // in vpid order.
    let mut pipe_table = PipeTable::default();
    let mut seen_pipes: HashSet<u64> = HashSet::new();
    let mut procs = Vec::new();
    for (vpid, pid) in pod.vpid_pids() {
        let parc = pod
            .node()
            .process(pid)
            .ok_or(CkptError::Inconsistent("process vanished during checkpoint"))?;
        let rec =
            proc_record(vpid, &parc.lock().unwrap(), &ordinals, &mut pipe_table, &mut seen_pipes)?;
        procs.push((rec, parc));
    }
    w.section(SectionTag::FdTable, |r| pipe_table.encode(r));

    // Pass 2: each process record, then its memory under the process lock.
    for (rec, parc) in procs {
        w.section(SectionTag::Process, |r| rec.encode(r));
        let base_gen = base_gen_of(opts.base_gens.as_ref(), rec.vpid);
        let mut payload_bytes = 0;
        w.section(memory_tag(base_gen), |r| {
            let at = r.len();
            encode_memory(rec.vpid, &parc.lock().unwrap().mem, base_gen, r);
            payload_bytes = r.len() - at;
        });
        if obs.enabled() {
            let name = if base_gen.is_some() { "ckpt.delta_bytes" } else { "ckpt.full_bytes" };
            obs.counter(&key, name, payload_bytes as u64);
        }
    }
    Ok(())
}

/// One process's memory section captured by a live pre-copy round.
#[derive(Debug)]
pub struct RoundPayload {
    /// Virtual PID the payload belongs to.
    pub vpid: u32,
    /// [`SectionTag::Memory`] (base round, or a process new since the
    /// base) or [`SectionTag::MemoryDelta`].
    pub tag: SectionTag,
    /// The section as the framed, CRC'd record an image would hold —
    /// what goes down the migration stream as it is.
    pub record: Vec<u8>,
    /// Address-space generation at capture time — the next round's base.
    pub gen: u64,
    /// Region-content bytes the payload carries (the residual dirty set
    /// for deltas); what the convergence policy meters.
    pub region_bytes: usize,
}

impl RoundPayload {
    /// Does nothing but consume the payload. It used to return the
    /// buffer to a pool; it stays because `benchmark/src/ops.rs` calls it
    /// (ROADMAP item 9(a) drops those calls).
    pub fn recycle(self) {}
}

/// Captures one pre-copy round of memory sections *without* suspending the
/// pod. Each process is captured under its own process lock, so every
/// payload is internally consistent (the scheduler steps a process while
/// holding the same lock); processes keep running between captures, which
/// is exactly the race iterative pre-copy tolerates — anything written
/// after a capture shows up in the next round's dirty set, and the final
/// quiesced cut ([`checkpoint_standalone_with`] with `base_gens` from the
/// last round) closes the window.
///
/// `base_gens` selects full vs delta payloads exactly as in [`SaveOpts`].
/// Each payload is encoded and framed once, in the buffer that is shipped.
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
        let proc = parc.lock().unwrap();
        let gen = proc.mem.generation();
        let base_gen = base_gen_of(base_gens, vpid);
        let tag = memory_tag(base_gen);
        let hint = if base_gen.is_some() { 1024 } else { proc.mem.total_bytes() + 64 };
        let mut w = RecordWriter::with_capacity(hint);
        let mark = w.begin_record(tag as u16);
        let region_bytes = encode_memory(vpid, &proc.mem, base_gen, &mut w);
        // The running process waits on this lock: CRC after letting go.
        drop(proc);
        w.end_record(mark);
        out.push(RoundPayload { vpid, tag, record: w.into_bytes(), gen, region_bytes });
    }
    Ok(out)
}

/// The generation `vpid`'s memory is a delta against, if the receiver
/// already holds a base for it.
fn base_gen_of(base_gens: Option<&HashMap<u32, u64>>, vpid: u32) -> Option<u64> {
    base_gens.and_then(|b| b.get(&vpid).copied())
}

fn memory_tag(base_gen: Option<u64>) -> SectionTag {
    if base_gen.is_some() {
        SectionTag::MemoryDelta
    } else {
        SectionTag::Memory
    }
}

/// Encodes one process's memory payload into `w` — in full, or as the
/// delta since `base_gen` — and returns the region-content bytes it
/// carries.
fn encode_memory(
    vpid: u32,
    mem: &AddressSpace,
    base_gen: Option<u64>,
    w: &mut RecordWriter,
) -> usize {
    match base_gen {
        Some(base_gen) => {
            let delta = MemoryDeltaRecord::capture(vpid, base_gen, mem);
            delta.encode(w);
            delta.byte_len()
        }
        None => {
            w.put_u32(vpid);
            mem.encode(w);
            mem.total_bytes()
        }
    }
}

/// Builds one suspended process's control-block record, adding the pipes
/// it references to the pod-wide `pipe_table` (first reference wins).
fn proc_record(
    vpid: u32,
    proc: &Process,
    ordinals: &HashMap<zapc_net::SocketId, u32>,
    pipe_table: &mut PipeTable,
    seen_pipes: &mut HashSet<u64>,
) -> CkptResult<ProcRecord> {
    let state = match proc.state {
        ProcState::Stopped => ProcStateRecord::Live,
        ProcState::Exited(code) => ProcStateRecord::Exited(code),
        ProcState::Runnable => return Err(CkptError::NotSuspended(proc.pid)),
    };

    // Program control state.
    let (program_type, program_state) = match &proc.program {
        Some(prog) => {
            let mut pw = RecordWriter::new();
            prog.save(&mut pw);
            (prog.type_name().to_owned(), pw.into_bytes())
        }
        None => (String::new(), Vec::new()),
    };

    let mut record_pipe = |pipe: &Arc<zapc_sim::pipe::Pipe>| {
        if seen_pipes.insert(pipe.id) {
            let (data, rc, wc) = pipe.snapshot();
            pipe_table.pipes.push((pipe.id, data, rc, wc));
        }
    };
    let mut fds = Vec::new();
    for (fd, entry) in proc.fds.iter() {
        let rec = match &entry.kind {
            FdKind::File(f) => {
                FdRecord::File { path: f.path.clone(), offset: f.offset, append: f.append }
            }
            FdKind::PipeRead(p) => {
                record_pipe(p);
                FdRecord::PipeRead { pipe: p.id }
            }
            FdKind::PipeWrite(p) => {
                record_pipe(p);
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

    Ok(ProcRecord {
        vpid,
        name: proc.name.clone(),
        state,
        signals: proc.signals.clone(),
        timers: proc.timers.clone(),
        vtime_ns: proc.vtime_ns,
        program_type,
        program_state,
        fds,
    })
}

/// The pod's stable socket enumeration: socket id → checkpoint ordinal.
/// Both the network checkpoint and the descriptor records use this order.
pub fn socket_ordinals(pod: &Pod) -> HashMap<zapc_net::SocketId, u32> {
    pod.sockets().iter().enumerate().map(|(i, s)| (s.id, i as u32)).collect()
}
