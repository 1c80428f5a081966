//! Serializable record types for the standalone checkpoint image sections.

use zapc_proto::{Decode, DecodeError, DecodeResult, Encode, RecordReader, RecordWriter};
use zapc_sim::clock::TimerSet;
use zapc_sim::signals::PendingSignals;

/// One descriptor-table entry in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdRecord {
    /// Shared-storage file: only position state is saved.
    File {
        /// Absolute (already chroot-expanded) path.
        path: String,
        /// Current offset.
        offset: u64,
        /// Append mode.
        append: bool,
    },
    /// Read end of a pod-internal pipe.
    PipeRead {
        /// Pipe id in the image's pipe table.
        pipe: u64,
    },
    /// Write end of a pod-internal pipe.
    PipeWrite {
        /// Pipe id in the image's pipe table.
        pipe: u64,
    },
    /// A socket, referenced by its checkpoint ordinal (position in the
    /// pod's stable socket enumeration — the network sections carry the
    /// full state under the same ordinal).
    Socket {
        /// Checkpoint ordinal.
        ordinal: u32,
    },
}

impl Encode for FdRecord {
    fn encode(&self, w: &mut RecordWriter) {
        match self {
            FdRecord::File { path, offset, append } => {
                w.put_u8(0);
                w.put_str(path);
                w.put_u64(*offset);
                w.put_bool(*append);
            }
            FdRecord::PipeRead { pipe } => {
                w.put_u8(1);
                w.put_u64(*pipe);
            }
            FdRecord::PipeWrite { pipe } => {
                w.put_u8(2);
                w.put_u64(*pipe);
            }
            FdRecord::Socket { ordinal } => {
                w.put_u8(3);
                w.put_u32(*ordinal);
            }
        }
    }
}

impl Decode for FdRecord {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(match r.get_u8()? {
            0 => FdRecord::File { path: r.get_str()?, offset: r.get_u64()?, append: r.get_bool()? },
            1 => FdRecord::PipeRead { pipe: r.get_u64()? },
            2 => FdRecord::PipeWrite { pipe: r.get_u64()? },
            3 => FdRecord::Socket { ordinal: r.get_u32()? },
            v => return Err(DecodeError::InvalidEnum { what: "FdRecord", value: v as u64 }),
        })
    }
}

/// Process scheduling state in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcStateRecord {
    /// Was running (suspended for the checkpoint); restarts runnable.
    Live,
    /// Had already exited with the given code.
    Exited(i32),
}

impl Encode for ProcStateRecord {
    fn encode(&self, w: &mut RecordWriter) {
        match self {
            ProcStateRecord::Live => w.put_u8(0),
            ProcStateRecord::Exited(code) => {
                w.put_u8(1);
                w.put_i64(*code as i64);
            }
        }
    }
}

impl Decode for ProcStateRecord {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        match r.get_u8()? {
            0 => Ok(ProcStateRecord::Live),
            1 => {
                let code = r.get_i64()?;
                i32::try_from(code).map(ProcStateRecord::Exited).map_err(|_| {
                    DecodeError::InvalidEnum { what: "exit code", value: code as u64 }
                })
            }
            v => Err(DecodeError::InvalidEnum { what: "ProcStateRecord", value: v as u64 }),
        }
    }
}

/// One process's control block in the image (everything except its memory,
/// which goes into its own `Memory` section so image statistics can
/// attribute bytes the way Figure 6c does).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcRecord {
    /// Virtual PID (must be restored verbatim).
    pub vpid: u32,
    /// Process name.
    pub name: String,
    /// Scheduling state.
    pub state: ProcStateRecord,
    /// Queued deliverable signals.
    pub signals: PendingSignals,
    /// Armed timers (in pod-virtual time).
    pub timers: TimerSet,
    /// Virtual (Lamport) clock.
    pub vtime_ns: u64,
    /// Program type name (registry key).
    pub program_type: String,
    /// Program-defined serialized control state.
    pub program_state: Vec<u8>,
    /// Descriptor table: `(fd, record)` pairs in fd order.
    pub fds: Vec<(u32, FdRecord)>,
}

impl Encode for ProcRecord {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.vpid);
        w.put(&self.name);
        w.put(&self.state);
        w.put(&self.signals);
        w.put(&self.timers);
        w.put(&self.vtime_ns);
        w.put(&self.program_type);
        w.put(&self.program_state);
        w.put(&self.fds);
    }
}

impl Decode for ProcRecord {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(ProcRecord {
            vpid: r.get()?,
            name: r.get()?,
            state: r.get()?,
            signals: r.get()?,
            timers: r.get()?,
            vtime_ns: r.get()?,
            program_type: r.get()?,
            program_state: r.get()?,
            fds: r.get()?,
        })
    }
}

/// The pod's pipe table: every pipe referenced by any descriptor,
/// serialized exactly once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipeTable {
    /// `(pipe_id, buffered, read_closed, write_closed)`.
    pub pipes: Vec<(u64, Vec<u8>, bool, bool)>,
}

impl Encode for PipeTable {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.pipes);
    }
}

impl Decode for PipeTable {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(PipeTable { pipes: r.get()? })
    }
}

/// Clock state stored in the `Timers` section: the virtual-clock bias and
/// the real time of the checkpoint, from which restart computes the
/// downtime delta (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockRecord {
    /// Virtual-clock bias at checkpoint (ms).
    pub bias_ms: i64,
    /// Real cluster time at checkpoint (ms).
    pub real_ms: u64,
}

impl Encode for ClockRecord {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_i64(self.bias_ms);
        w.put_u64(self.real_ms);
    }
}

impl Decode for ClockRecord {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(ClockRecord { bias_ms: r.get_i64()?, real_ms: r.get_u64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_record_round_trip() {
        let records = vec![
            FdRecord::File { path: "/pods/p/out".into(), offset: 42, append: true },
            FdRecord::PipeRead { pipe: 3 },
            FdRecord::PipeWrite { pipe: 3 },
            FdRecord::Socket { ordinal: 2 },
        ];
        let mut w = RecordWriter::new();
        for rec in &records {
            rec.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        for rec in &records {
            assert_eq!(&FdRecord::decode(&mut r).unwrap(), rec);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn proc_record_round_trip() {
        let mut signals = PendingSignals::default();
        signals.push(zapc_sim::signals::Signal::Usr1);
        let mut timers = TimerSet::default();
        timers.arm(100, 50, Some(10));
        let rec = ProcRecord {
            vpid: 4,
            name: "rank-3".into(),
            state: ProcStateRecord::Live,
            signals,
            timers,
            vtime_ns: 123_456,
            program_type: "apps.cpi".into(),
            program_state: vec![1, 2, 3, 4],
            fds: vec![(3, FdRecord::Socket { ordinal: 0 }), (4, FdRecord::PipeRead { pipe: 9 })],
        };
        let mut w = RecordWriter::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(ProcRecord::decode(&mut r).unwrap(), rec);
    }

    #[test]
    fn exited_state_round_trip() {
        let rec = ProcRecord {
            vpid: 1,
            name: "done".into(),
            state: ProcStateRecord::Exited(-9),
            signals: PendingSignals::default(),
            timers: TimerSet::default(),
            vtime_ns: 0,
            program_type: String::new(),
            program_state: Vec::new(),
            fds: Vec::new(),
        };
        let mut w = RecordWriter::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = ProcRecord::decode(&mut r).unwrap();
        assert_eq!(back.state, ProcStateRecord::Exited(-9));
    }

    #[test]
    fn pipe_table_round_trip() {
        let t = PipeTable {
            pipes: vec![(1, b"inflight".to_vec(), false, true), (2, Vec::new(), true, false)],
        };
        let mut w = RecordWriter::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(PipeTable::decode(&mut r).unwrap(), t);
    }

    #[test]
    fn clock_record_round_trip() {
        let c = ClockRecord { bias_ms: -5, real_ms: 99_000 };
        let mut w = RecordWriter::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(ClockRecord::decode(&mut r).unwrap(), c);
    }
}
