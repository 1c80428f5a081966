//! # zapc-netckpt — network-state checkpoint-restart (paper §5)
//!
//! The network-state of an application is the collection of the states of
//! its communication endpoints; each socket contributes three components:
//! **socket parameters**, **socket data queues**, and **protocol-specific
//! state**. This crate saves and restores all three in a transport-protocol
//! independent way:
//!
//! * Parameters are extracted and reinstated through the standard
//!   `getsockopt`/`setsockopt` surface — the *entire* option set
//!   ([`zapc_net::SockOpts::all`]).
//! * The **receive queue** is captured by the paper's read-and-reinject
//!   technique: data is consumed with the standard `read` path and
//!   immediately deposited into an *alternate receive queue*, which the
//!   socket's `recv`, `poll` and `close` serve before any new network
//!   data; once it drains, reads pay one `is_empty` check.
//!   A later checkpoint saves the alternate queue too, so back-to-back
//!   checkpoints compose.
//! * The **send queue** is read directly from the socket buffers (simple
//!   and well-ordered, unlike the receive side) and re-sent at restart
//!   through the ordinary `write` path over the re-established connection.
//! * The only **protocol-specific state** extracted is the minimal PCB
//!   triple `sent`/`recv`/`acked` ([`zapc_net::tcp::PcbExtract`]); §5
//!   proves it necessary and sufficient. The restart discards the
//!   send/receive **overlap** `recv₂ − acked₁` from the send queue before
//!   re-sending (Figure 4).
//! * Unreliable protocols need *no* protocol state; their queues are saved
//!   anyway to avoid artificial post-restart loss, and a queue the
//!   application has `MSG_PEEK`ed must be restored for correctness.
//!
//! Reconnection ([`restore`]) recreates every connection with plain
//! `connect`/`accept` pairs — possible because ZapC controls *both* ends —
//! following the Manager's [`schedule`]: entries are tagged `connect` or
//! `accept`, with the constraint that connections sharing a source port
//! (accepted children inherit the listener's port) are re-accepted through
//! the listener. Two threads per Agent (one accepting, one connecting)
//! make the schedule trivially deadlock-free for any topology, including
//! rings (§4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merge;
pub mod records;
pub mod restore;
pub mod save;
pub mod schedule;

pub use merge::merge_send_queues;
pub use records::SockRecord;
pub use restore::{restore_network, NetworkRestorePlan};
pub use save::{checkpoint_network, checkpoint_network_obs};
pub use schedule::assign_roles;

/// Errors of the network checkpoint-restart paths.
#[derive(Debug)]
pub enum NetCkptError {
    /// Underlying socket failure during reconnection or state application.
    Net(zapc_net::NetError),
    /// Image decoding failure.
    Decode(zapc_proto::DecodeError),
    /// Meta-data and socket records disagree.
    Inconsistent(&'static str),
    /// Reconnection did not complete in time.
    Timeout(&'static str),
}

impl std::fmt::Display for NetCkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetCkptError::Net(e) => write!(f, "socket error: {e}"),
            NetCkptError::Decode(e) => write!(f, "decode error: {e}"),
            NetCkptError::Inconsistent(w) => write!(f, "inconsistent network image: {w}"),
            NetCkptError::Timeout(w) => write!(f, "network restore timed out: {w}"),
        }
    }
}

impl std::error::Error for NetCkptError {}

impl From<zapc_net::NetError> for NetCkptError {
    fn from(e: zapc_net::NetError) -> Self {
        NetCkptError::Net(e)
    }
}

impl From<zapc_proto::DecodeError> for NetCkptError {
    fn from(e: zapc_proto::DecodeError) -> Self {
        NetCkptError::Decode(e)
    }
}

/// Result alias.
pub type NetCkptResult<T> = Result<T, NetCkptError>;
