//! The signal subset checkpoint-restart needs.
//!
//! §4: "Each Agent first suspends its respective pod by sending a SIGSTOP
//! signal to all the processes in the pod", and resumes with SIGCONT (or
//! destroys the pod after a migration checkpoint). Pending (not yet
//! delivered) signals are part of the process state a checkpoint captures.

use std::collections::VecDeque;
use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};

/// Simulated POSIX signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Suspend the process (not deliverable to the program; handled by the
    /// kernel/scheduler, exactly like the real SIGSTOP).
    Stop,
    /// Resume a stopped process.
    Cont,
    /// Kill the process immediately.
    Kill,
    /// Termination request (queued; programs may observe it).
    Term,
    /// User signal 1 (queued; programs may observe it).
    Usr1,
    /// User signal 2 (queued; programs may observe it).
    Usr2,
    /// Alarm (queued; programs may observe it).
    Alrm,
}

impl Signal {
    /// Every signal, in code order.
    pub const ALL: [Signal; 7] = [
        Signal::Stop,
        Signal::Cont,
        Signal::Kill,
        Signal::Term,
        Signal::Usr1,
        Signal::Usr2,
        Signal::Alrm,
    ];
}

zapc_proto::table_codec!(Signal, "Signal", Signal::ALL);

/// Queued-but-undelivered signals of one process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PendingSignals {
    queue: VecDeque<Signal>,
}

impl PendingSignals {
    /// Queues a deliverable signal.
    pub fn push(&mut self, s: Signal) {
        self.queue.push_back(s);
    }

    /// Takes the next deliverable signal.
    pub fn pop(&mut self) -> Option<Signal> {
        self.queue.pop_front()
    }

    /// Number of queued signals.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl Encode for PendingSignals {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.queue);
    }
}

impl Decode for PendingSignals {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(PendingSignals { queue: r.get()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_delivery() {
        let mut p = PendingSignals::default();
        p.push(Signal::Usr1);
        p.push(Signal::Term);
        assert_eq!(p.pop(), Some(Signal::Usr1));
        assert_eq!(p.pop(), Some(Signal::Term));
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn round_trip() {
        let mut p = PendingSignals::default();
        p.push(Signal::Alrm);
        p.push(Signal::Usr2);
        let mut w = RecordWriter::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(PendingSignals::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn all_signal_variants_round_trip() {
        for s in Signal::ALL {
            let mut w = RecordWriter::new();
            s.encode(&mut w);
            assert_eq!(Signal::decode(&mut RecordReader::new(w.bytes())).unwrap(), s);
        }
    }
}
