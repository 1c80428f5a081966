//! # zapc-net — a user-space network stack for the simulated cluster
//!
//! ZapC's network-state checkpoint-restart (paper §5) operates on the state
//! an operating system keeps for each socket: socket parameters, socket data
//! queues, and minimal protocol-specific state. This crate implements that
//! substrate from scratch:
//!
//! * [`wire`] — the cluster interconnect: a routed, store-and-forward wire
//!   with configurable latency, jitter and loss, driven by a pump thread.
//!   Routing is by **virtual pod address**: the route table maps each pod's
//!   virtual IP to the network stack of the node currently hosting it, so
//!   "remapping virtual addresses to real addresses" (paper §3) is a route
//!   update at migration time.
//! * [`filter`] — a Netfilter-like packet filter used by Agents to freeze a
//!   pod's network during checkpoint (paper §4): incoming packets are
//!   dropped, outgoing packets are dropped; reliable transports recover by
//!   retransmission exactly as with Linux Netfilter.
//! * [`tcp`] — TCP-lite: three-way handshake, byte sequence numbers,
//!   cumulative acknowledgments, send/receive queues, an out-of-order
//!   *backlog* queue, urgent/out-of-band data, FIN/RST handling and
//!   retransmission timers. The protocol-control-block (PCB) exposes the
//!   `sent`/`recv`/`acked` sequence numbers that §5 identifies as the
//!   minimal protocol state a checkpoint must capture, plus a
//!   congestion/flow extract so restart reinstates a connection's pacing.
//! * [`congestion`] — slow start, congestion avoidance, fast retransmit
//!   and NewReno fast recovery, as a pure-state component the checkpoint
//!   layer can capture byte-exactly.
//! * [`flow`] — receive-window flow control with *honest* zero-window
//!   handling: window 0 is stored verbatim and handled with persist-timer
//!   probes instead of being clamped away.
//! * [`udp`] — unreliable datagrams with `MSG_PEEK` tracking (§5 discusses
//!   why peeked receive-queue data must be preserved even for unreliable
//!   protocols), plus raw-IP datagram sockets.
//! * [`socket`] — the socket layer: `bind`/`listen`/`connect`/`accept`/
//!   `send`/`recv`/`shutdown`/`close`, `getsockopt`/`setsockopt`
//!   ([`opts`]), poll, and the *alternate receive queue* that ZapC's
//!   restore fills: `recv` and `poll` serve its restored data before any
//!   new network data, and `close` drops what is left of it.
//! * [`stack`] — one per node: port tables, demultiplexing, ephemeral port
//!   allocation, listener child sockets inheriting the listening port.
//!
//! Everything is plain safe Rust; sockets are shared-state objects protected
//! by `parking_lot` mutexes, and the pump thread plays the role of softirq
//! context in a real kernel.
//!
//! ```
//! use std::time::Duration;
//! use zapc_net::{NetStack, Network, NetworkConfig};
//! use zapc_proto::{Endpoint, Transport};
//!
//! // Two nodes on one wire; each hosts a virtual pod address.
//! let net = Network::new(NetworkConfig::default());
//! let s1 = NetStack::new(1, net.handle());
//! let s2 = NetStack::new(2, net.handle());
//! let a = Endpoint::new(10, 10, 0, 1, 0);
//! let b = Endpoint::new(10, 10, 0, 2, 7000);
//! net.set_route(a.ip, &s1);
//! net.set_route(b.ip, &s2);
//!
//! // A classic connect/accept/echo round trip.
//! let listener = s2.socket(Transport::Tcp, b.ip, 6);
//! listener.bind(b).unwrap();
//! listener.listen(4).unwrap();
//! let client = s1.socket(Transport::Tcp, a.ip, 6);
//! client.connect(b).unwrap();
//! client.connect_wait(Duration::from_secs(5)).unwrap();
//! let server = listener.accept_wait(Duration::from_secs(5)).unwrap();
//! client.write_all_wait(b"ping", Duration::from_secs(5)).unwrap();
//! assert_eq!(server.read_exact_wait(4, Duration::from_secs(5)).unwrap(), b"ping");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod congestion;
pub mod filter;
pub mod flow;
pub mod opts;
pub mod seg;
pub mod socket;
pub mod stack;
pub mod tcp;
pub mod udp;
pub mod wire;

pub use congestion::{CcAction, CongestionCtl};
pub use filter::Netfilter;
pub use flow::FlowCtl;
pub use opts::{OptValue, SockOpt, SockOpts};
pub use seg::{SegFlags, Segment};
pub use socket::{RecvFlags, Shutdown, Socket, SocketId, SocketState};
pub use stack::NetStack;
pub use wire::{Network, NetworkConfig};

/// Errors surfaced by socket operations (a POSIX-flavoured subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// Operation would block (non-blocking semantics; callers poll).
    WouldBlock,
    /// Socket is not connected.
    NotConnected,
    /// Socket is already connected.
    AlreadyConnected,
    /// Address already in use.
    AddrInUse,
    /// Connection refused by the peer (RST).
    ConnRefused,
    /// Connection reset.
    ConnReset,
    /// The local endpoint has been shut down for this direction.
    Pipe,
    /// Invalid argument or state for this call.
    Invalid,
    /// The socket is closed.
    Closed,
    /// Operation unsupported by this transport.
    Unsupported,
    /// Destination unreachable (no route for the virtual address).
    Unreachable,
    /// Message too large for the transport.
    MsgSize,
    /// Operation timed out.
    TimedOut,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NetError::WouldBlock => "operation would block",
            NetError::NotConnected => "not connected",
            NetError::AlreadyConnected => "already connected",
            NetError::AddrInUse => "address in use",
            NetError::ConnRefused => "connection refused",
            NetError::ConnReset => "connection reset",
            NetError::Pipe => "broken pipe",
            NetError::Invalid => "invalid argument",
            NetError::Closed => "socket closed",
            NetError::Unsupported => "operation not supported",
            NetError::Unreachable => "destination unreachable",
            NetError::MsgSize => "message too long",
            NetError::TimedOut => "timed out",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NetError {}

impl NetError {
    /// Stable wire code (checkpointing pending socket errors).
    pub fn code(self) -> u8 {
        match self {
            NetError::WouldBlock => 0,
            NetError::NotConnected => 1,
            NetError::AlreadyConnected => 2,
            NetError::AddrInUse => 3,
            NetError::ConnRefused => 4,
            NetError::ConnReset => 5,
            NetError::Pipe => 6,
            NetError::Invalid => 7,
            NetError::Closed => 8,
            NetError::Unsupported => 9,
            NetError::Unreachable => 10,
            NetError::MsgSize => 11,
            NetError::TimedOut => 12,
        }
    }

    /// Inverse of [`NetError::code`].
    pub fn from_code(c: u8) -> Option<NetError> {
        Some(match c {
            0 => NetError::WouldBlock,
            1 => NetError::NotConnected,
            2 => NetError::AlreadyConnected,
            3 => NetError::AddrInUse,
            4 => NetError::ConnRefused,
            5 => NetError::ConnReset,
            6 => NetError::Pipe,
            7 => NetError::Invalid,
            8 => NetError::Closed,
            9 => NetError::Unsupported,
            10 => NetError::Unreachable,
            11 => NetError::MsgSize,
            12 => NetError::TimedOut,
            _ => return None,
        })
    }
}

/// Result alias for socket operations.
pub type NetResult<T> = Result<T, NetError>;
