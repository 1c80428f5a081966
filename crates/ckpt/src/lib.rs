//! # zapc-ckpt — the standalone (per-pod) checkpoint-restart mechanism
//!
//! This is the Zap-derived component of ZapC (paper §3): it saves and
//! restores *non-network* per-node application state — the pod namespace,
//! each process's control block (virtual PID, pending signals, timers,
//! virtual clocks, program state), its address space, its descriptor
//! table, and pod-internal pipes — in the portable intermediate format of
//! `zapc-proto`.
//!
//! Network state is deliberately *not* handled here: the coordinated
//! checkpoint (the `zapc` crate) invokes `zapc-netckpt` for socket state
//! first and this crate second, mirroring the Agent algorithm of Figure 1.
//! Descriptors that refer to sockets are recorded by their checkpoint
//! *ordinal* (position in the pod's stable socket enumeration); at restart
//! the network restore produces the reconnected sockets in the same order
//! and [`restore::RestoredSockets`] re-links them into descriptor tables.
//!
//! File contents are not checkpointed — the cluster assumes shared storage
//! (§3); only path/offset/append state of open files is saved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod records;
pub mod restore;
pub mod save;

pub use delta::MemoryDeltaRecord;
pub use records::{FdRecord, ProcRecord};
pub use restore::{restore_standalone, DecodedPod, RestoredPod, RestoredSockets};
pub use save::{
    capture_memory_round, checkpoint_standalone, checkpoint_standalone_with, RoundPayload,
    SaveOpts,
};

/// Errors of the standalone checkpoint-restart paths.
#[derive(Debug)]
pub enum CkptError {
    /// A process was not suspended when the checkpoint ran.
    NotSuspended(zapc_sim::Pid),
    /// The image is malformed.
    Decode(zapc_proto::DecodeError),
    /// A program type in the image has no registered loader.
    UnknownProgram(String),
    /// A descriptor referenced a socket ordinal the network restore did
    /// not produce.
    MissingSocket(u32),
    /// A referenced pipe id was not in the pipe table.
    MissingPipe(u64),
    /// Image sections were inconsistent (e.g. memory without its process).
    Inconsistent(&'static str),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::NotSuspended(pid) => write!(f, "process {pid} not suspended"),
            CkptError::Decode(e) => write!(f, "image decode error: {e}"),
            CkptError::UnknownProgram(t) => write!(f, "no loader registered for program type {t:?}"),
            CkptError::MissingSocket(ord) => write!(f, "socket ordinal {ord} not restored"),
            CkptError::MissingPipe(id) => write!(f, "pipe {id} missing from pipe table"),
            CkptError::Inconsistent(why) => write!(f, "inconsistent image: {why}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<zapc_proto::DecodeError> for CkptError {
    fn from(e: zapc_proto::DecodeError) -> Self {
        CkptError::Decode(e)
    }
}

/// Result alias for this crate.
pub type CkptResult<T> = Result<T, CkptError>;
