//! Standalone restart: image sections → processes in a fresh pod.

use crate::records::{ClockRecord, FdRecord, PipeTable, ProcRecord, ProcStateRecord};
use crate::{CkptError, CkptResult};
use std::collections::HashMap;
use std::sync::Arc;
use zapc_net::Socket;
use zapc_pod::{Namespace, Pod};
use zapc_proto::image::Section;
use zapc_proto::rw::decode_exact;
use zapc_proto::{Decode, Encode, RecordReader, SectionTag};
use zapc_sim::fdtable::{FdKind, FileDesc};
use zapc_sim::memory::AddressSpace;
use zapc_sim::pipe::Pipe;
use zapc_sim::{ProcState, Process, ProgramRegistry};

/// The reconnected sockets the network restore produced, indexed by
/// checkpoint ordinal.
#[derive(Debug, Default)]
pub struct RestoredSockets {
    /// `by_ordinal[i]` is the socket whose checkpoint ordinal was `i`.
    pub by_ordinal: Vec<Option<Arc<Socket>>>,
}

impl RestoredSockets {
    /// Looks up a socket by ordinal.
    pub fn get(&self, ordinal: u32) -> Option<&Arc<Socket>> {
        self.by_ordinal.get(ordinal as usize).and_then(|o| o.as_ref())
    }
}

/// Outcome of a standalone restore.
#[derive(Debug)]
pub struct RestoredPod {
    /// Clock record from the image (already applied to the pod's clock).
    pub clock: ClockRecord,
    /// Number of processes reinstated.
    pub processes: usize,
}

/// Decodes the `Namespace` section payload (the caller needs it *before*
/// building the destination pod).
pub fn decode_namespace(payload: &[u8]) -> CkptResult<Namespace> {
    let mut r = RecordReader::new(payload);
    let ns = Namespace::decode(&mut r)?;
    Ok(ns)
}

/// Reinstates the standalone state carried by `sections` into `pod`
/// (created beforehand from the image's namespace): [`DecodedPod`]'s
/// `apply_standalone`, then its `reinstate`. Network sections are ignored
/// here — `zapc-netckpt` consumes them.
pub fn restore_standalone(
    sections: &[Section<'_>],
    pod: &Arc<Pod>,
    registry: &ProgramRegistry,
    sockets: &RestoredSockets,
    obs: &zapc_obs::Observer,
) -> CkptResult<RestoredPod> {
    let mut parts = DecodedPod::new();
    parts.apply_standalone(sections)?;
    parts.reinstate(pod, registry, sockets, obs)
}

/// Incrementally decoded standalone state: what every restart decodes its
/// image into before it creates a pod, and the one place a
/// [`SectionTag::MemoryDelta`] is ever resolved. A migration stream is
/// applied as frames arrive — a delta lands in place on the base the same
/// stream delivered earlier — so the rounds are never buffered whole and
/// the final [`DecodedPod::reinstate`] works from materialized state.
#[derive(Debug, Default)]
pub struct DecodedPod {
    clock: Option<ClockRecord>,
    pipes: HashMap<u64, Arc<Pipe>>,
    procs: Vec<ProcRecord>,
    mems: HashMap<u32, AddressSpace>,
}

impl DecodedPod {
    /// Empty accumulator.
    pub fn new() -> Self {
        DecodedPod::default()
    }

    /// Decodes and applies one section payload. `Memory` installs a base
    /// address space; `MemoryDelta` squashes onto the vpid's base (which
    /// must have arrived first); `Process` records replace earlier ones
    /// for the same vpid (later rounds carry fresher control state).
    /// Unknown/network sections are ignored, as in [`restore_standalone`].
    pub fn apply_section(&mut self, tag: SectionTag, payload: &[u8]) -> CkptResult<()> {
        // Every payload is one record: bytes it leaves unread are
        // `TrailingBytes`, never ignored.
        let t = tag as u16;
        match tag {
            SectionTag::Timers => {
                self.clock = Some(decode_exact(t, payload, ClockRecord::decode)?);
            }
            SectionTag::FdTable => {
                let table = decode_exact(t, payload, PipeTable::decode)?;
                for (id, data, rc, wc) in table.pipes {
                    let p = Pipe::new();
                    p.restore(data, rc, wc);
                    self.pipes.insert(id, p);
                }
            }
            SectionTag::Process => {
                let rec = decode_exact(t, payload, ProcRecord::decode)?;
                self.procs.retain(|p| p.vpid != rec.vpid);
                self.procs.push(rec);
            }
            SectionTag::Memory => {
                let (vpid, mem) =
                    decode_exact(t, payload, |r| Ok((r.get_u32()?, AddressSpace::decode(r)?)))?;
                self.mems.insert(vpid, mem);
            }
            SectionTag::MemoryDelta => {
                let delta = decode_exact(t, payload, crate::delta::MemoryDeltaRecord::decode)?;
                let mem = self
                    .mems
                    .get_mut(&delta.vpid)
                    .ok_or(CkptError::Inconsistent("memory delta without its base"))?;
                delta
                    .apply(mem)
                    .map_err(|_| CkptError::Inconsistent("memory delta does not fit its base"))?;
            }
            _ => {} // namespace handled by the caller; network by netckpt
        }
        Ok(())
    }

    /// Applies the sections of a stored image, which stands alone: a
    /// `MemoryDelta` means something only after its base on the same
    /// stream (here it would silently lose every clean region).
    pub fn apply_standalone(&mut self, sections: &[Section<'_>]) -> CkptResult<()> {
        for s in sections {
            if s.tag == SectionTag::MemoryDelta {
                return Err(CkptError::Inconsistent(
                    "stored image is not standalone (memory delta)",
                ));
            }
            self.apply_section(s.tag, s.payload)?;
        }
        Ok(())
    }

    /// Number of process records accumulated so far.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// `digest64` over the accumulated memory state, encoded exactly
    /// as the `Memory` sections of a standalone checkpoint (vpid-prefixed,
    /// in vpid order). A squashed pre-copy chain and a stop-and-copy image
    /// of the same cutover state hash identically — the equivalence the
    /// property tests pin down.
    pub fn memory_digest(&self) -> u64 {
        let mut vpids: Vec<u32> = self.mems.keys().copied().collect();
        vpids.sort_unstable();
        let total: usize = self.mems.values().map(|m| m.total_bytes() + 64).sum();
        let mut w = zapc_proto::RecordWriter::with_capacity(total);
        for vpid in vpids {
            w.put_u32(vpid);
            self.mems[&vpid].encode(&mut w);
        }
        zapc_proto::crc::digest64(w.bytes())
    }

    /// Reinstates the accumulated state into `pod` (created beforehand
    /// from the image's namespace), consuming the accumulator, under a
    /// `ckpt.restore` span of `obs`; the process count lands on its
    /// `ckpt.restore_procs` counter. Restored processes are left `Stopped`;
    /// the Agent resumes the pod once the whole restart concludes (Figure 3).
    pub fn reinstate(
        self,
        pod: &Arc<Pod>,
        registry: &ProgramRegistry,
        sockets: &RestoredSockets,
        obs: &zapc_obs::Observer,
    ) -> CkptResult<RestoredPod> {
        let key = pod.name();
        let _span = obs.span(&key, "ckpt.restore");
        let DecodedPod { clock, pipes, procs, mut mems } = self;
        let clock = clock.ok_or(CkptError::Inconsistent("missing clock section"))?;

        // Apply the restart time delta (§5): bias the virtual clock by the
        // downtime so virtualized pods never observe the gap…
        let now_real = pod.env.clock.now_ms();
        pod.env.vclock.apply_restart_delta(clock.bias_ms, clock.real_ms, now_real);
        // …and shift raw timer expiries for pods without time virtualization.
        let timer_shift_ms = if pod.env.vclock.is_virtualized() {
            0
        } else {
            now_real as i64 - clock.real_ms as i64
        };

        let count = procs.len();
        for rec in procs {
            let mem = mems
                .remove(&rec.vpid)
                .ok_or(CkptError::Inconsistent("process without memory section"))?;

            // Rebuild the program from the registry.
            let (program, state): (Option<Box<dyn zapc_sim::Program>>, _) = match rec.state {
                ProcStateRecord::Exited(code) => (None, ProcState::Exited(code)),
                ProcStateRecord::Live => {
                    if !registry.knows(&rec.program_type) {
                        return Err(CkptError::UnknownProgram(rec.program_type.clone()));
                    }
                    // A known type whose state does not decode, or leaves
                    // bytes unread, is a corrupt image, not a missing loader.
                    let prog = decode_exact(SectionTag::Process as u16, &rec.program_state, |r| {
                        registry.load(&rec.program_type, r)
                    })?;
                    (Some(prog), ProcState::Stopped)
                }
            };

            let mut proc = match program {
                Some(p) => Process::new(rec.name.clone(), rec.vpid, p, Arc::clone(&pod.env)),
                None => {
                    // Exited stub: preserve the exit code in the table.
                    let mut p = Process::new(
                        rec.name.clone(),
                        rec.vpid,
                        Box::new(ExitedStub),
                        Arc::clone(&pod.env),
                    );
                    p.program = None;
                    p
                }
            };
            proc.state = state;
            proc.signals = rec.signals;
            proc.timers = rec.timers;
            if timer_shift_ms != 0 {
                proc.timers.shift(timer_shift_ms);
            }
            proc.vtime_ns = rec.vtime_ns;
            proc.mem = mem;

            // Re-link descriptors at their exact numbers.
            for (fd, frec) in &rec.fds {
                let kind = match frec {
                    FdRecord::File { path, offset, append } => FdKind::File(FileDesc {
                        path: path.clone(),
                        offset: *offset,
                        append: *append,
                    }),
                    FdRecord::PipeRead { pipe } => FdKind::PipeRead(Arc::clone(
                        pipes.get(pipe).ok_or(CkptError::MissingPipe(*pipe))?,
                    )),
                    FdRecord::PipeWrite { pipe } => FdKind::PipeWrite(Arc::clone(
                        pipes.get(pipe).ok_or(CkptError::MissingPipe(*pipe))?,
                    )),
                    FdRecord::Socket { ordinal } => FdKind::Socket(Arc::clone(
                        sockets.get(*ordinal).ok_or(CkptError::MissingSocket(*ordinal))?,
                    )),
                };
                proc.fds.insert_at(*fd, kind);
            }

            pod.adopt(rec.vpid, proc);
        }

        if obs.enabled() {
            obs.counter(&key, "ckpt.restore_procs", count as u64);
        }
        Ok(RestoredPod { clock, processes: count })
    }
}

/// Placeholder program for processes that had exited before the
/// checkpoint; never stepped.
struct ExitedStub;

impl zapc_sim::Program for ExitedStub {
    fn type_name(&self) -> &'static str {
        "ckpt.exited-stub"
    }
    fn step(&mut self, _ctx: &mut zapc_sim::ProcessCtx<'_>) -> zapc_sim::StepOutcome {
        zapc_sim::StepOutcome::Blocked
    }
    fn save(&self, _w: &mut zapc_proto::RecordWriter) {}
}
