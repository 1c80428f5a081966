//! Network meta-data: the per-pod connection table exchanged with the
//! Manager during coordinated checkpoint and restart (paper §4).
//!
//! During checkpoint each Agent reports one [`ConnEntry`] per communication
//! endpoint of its pod: source/target endpoints, transport protocol, and the
//! connection [`ConnState`]. During restart the Manager hands back a
//! *modified* meta-data table: physical addresses are substituted for the new
//! node mapping, and every entry is tagged with a [`RestartRole`]
//! (`connect` or `accept`) forming the reconnection schedule. Roles are
//! normally arbitrary, except that connections sharing a source port must be
//! recreated the way they were originally created (accepted connections
//! inherit the listener's port), which the Manager's scheduler enforces.

use crate::error::DecodeResult;
use crate::rw::{Decode, Encode, RecordReader, RecordWriter};
use std::fmt;

/// A transport endpoint: virtual IPv4 address and port.
///
/// Applications inside pods only ever see *virtual* addresses; ZapC remaps
/// them to physical addresses transparently (paper §3), so meta-data is
/// expressed in virtual terms and stays valid across migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address as a big-endian integer (`10.10.0.3` = `0x0A0A_0003`).
    pub ip: u32,
    /// Port number.
    pub port: u16,
}

impl Endpoint {
    /// Builds an endpoint from octets and a port.
    pub fn new(a: u8, b: u8, c: u8, d: u8, port: u16) -> Self {
        Endpoint { ip: u32::from_be_bytes([a, b, c, d]), port }
    }

    /// The wildcard endpoint (`0.0.0.0:0`).
    pub const ANY: Endpoint = Endpoint { ip: 0, port: 0 };

    /// Returns the dotted-quad octets.
    pub fn octets(&self) -> [u8; 4] {
        self.ip.to_be_bytes()
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}:{}", self.port)
    }
}

impl Encode for Endpoint {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u32(self.ip);
        w.put_u16(self.port);
    }
}

impl Decode for Endpoint {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Endpoint { ip: r.get_u32()?, port: r.get_u16()? })
    }
}

/// Transport protocol of a checkpointed socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Reliable byte stream (TCP).
    Tcp,
    /// Unreliable datagrams (UDP).
    Udp,
    /// Raw IP datagrams.
    RawIp,
}

impl Transport {
    /// Every transport, in code order.
    pub const ALL: [Transport; 3] = [Transport::Tcp, Transport::Udp, Transport::RawIp];
}

crate::table_codec!(Transport, "Transport", Transport::ALL);

/// Connection state recorded in the meta-data (paper §4).
///
/// The first four states describe established connections; `Connecting` is
/// the transient state of a connection that was caught mid-handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnState {
    /// Both directions open.
    FullDuplex,
    /// The local side has shut down its send direction.
    HalfDuplexLocal,
    /// The remote side has shut down its send direction.
    HalfDuplexRemote,
    /// Fully closed, but unread data may remain in the receive queue.
    Closed,
    /// Handshake in flight at checkpoint time; replayed at restart.
    Connecting,
}

impl ConnState {
    /// Every state, in code order.
    pub const ALL: [ConnState; 5] = [
        ConnState::FullDuplex,
        ConnState::HalfDuplexLocal,
        ConnState::HalfDuplexRemote,
        ConnState::Closed,
        ConnState::Connecting,
    ];
}

crate::table_codec!(ConnState, "ConnState", ConnState::ALL);

/// Which side re-establishes a connection at restart.
///
/// The Manager tags every meta-data entry with a role so that the two Agents
/// at the ends of a connection agree on who calls `connect` and who
/// `accept`s (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestartRole {
    /// This endpoint initiates the connection.
    Connect,
    /// This endpoint accepts the connection.
    Accept,
    /// Role not yet assigned (checkpoint-time meta-data).
    Unassigned,
}

impl RestartRole {
    /// Every role, in code order.
    pub const ALL: [RestartRole; 3] =
        [RestartRole::Connect, RestartRole::Accept, RestartRole::Unassigned];
}

crate::table_codec!(RestartRole, "RestartRole", RestartRole::ALL);

/// One entry of the network meta-data table: a single communication endpoint
/// of the pod.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConnEntry {
    /// Transport protocol.
    pub transport: Transport,
    /// Local (source) endpoint in virtual address terms.
    pub src: Endpoint,
    /// Remote (target) endpoint; `None` for bound-but-unconnected sockets
    /// (e.g. a UDP receiver or a TCP listener).
    pub dst: Option<Endpoint>,
    /// Connection state at checkpoint time.
    pub state: ConnState,
    /// Restart schedule tag assigned by the Manager.
    pub role: RestartRole,
    /// True if this entry describes a listening socket.
    pub listening: bool,
    /// `recv` of the minimal PCB state (last in-order sequence received,
    /// §5 Figure 4). The peer's restart uses it to size the send-queue
    /// overlap discard.
    pub pcb_recv: u64,
    /// `acked` of the minimal PCB state (last of our data acknowledged).
    pub pcb_acked: u64,
}

impl ConnEntry {
    /// A full-duplex, unscheduled TCP connection entry.
    pub fn tcp(src: Endpoint, dst: Endpoint) -> Self {
        ConnEntry {
            transport: Transport::Tcp,
            src,
            dst: Some(dst),
            state: ConnState::FullDuplex,
            role: RestartRole::Unassigned,
            listening: false,
            pcb_recv: 0,
            pcb_acked: 0,
        }
    }

    /// The unordered connection key `(low, high)` shared by both ends of a
    /// connection, used by the Manager to pair entries from two Agents.
    pub fn pair_key(&self) -> Option<(Endpoint, Endpoint)> {
        self.dst.map(|d| if self.src <= d { (self.src, d) } else { (d, self.src) })
    }
}

impl Encode for ConnEntry {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.transport);
        w.put(&self.src);
        w.put(&self.dst);
        w.put(&self.state);
        w.put(&self.role);
        w.put(&self.listening);
        w.put(&self.pcb_recv);
        w.put(&self.pcb_acked);
    }
}

impl Decode for ConnEntry {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(ConnEntry {
            transport: r.get()?,
            src: r.get()?,
            dst: r.get()?,
            state: r.get()?,
            role: r.get()?,
            listening: r.get()?,
            pcb_recv: r.get()?,
            pcb_acked: r.get()?,
        })
    }
}

/// The per-pod network meta-data table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetaData {
    /// Name of the pod this table describes.
    pub pod: String,
    /// One entry per communication endpoint.
    pub entries: Vec<ConnEntry>,
}

impl MetaData {
    /// Creates an empty table for `pod`.
    pub fn new(pod: impl Into<String>) -> Self {
        MetaData { pod: pod.into(), entries: Vec::new() }
    }

    /// Total serialized footprint in bytes (reported in Figure 6c: the
    /// network-state portion of a checkpoint is only a few kilobytes).
    pub fn encoded_len(&self) -> usize {
        let mut w = RecordWriter::new();
        self.encode(&mut w);
        w.len()
    }
}

impl Encode for MetaData {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.pod);
        w.put(&self.entries);
    }
}

impl Decode for MetaData {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(MetaData { pod: r.get()?, entries: r.get()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetaData {
        let mut md = MetaData::new("pod-7");
        md.entries.push(ConnEntry::tcp(
            Endpoint::new(10, 10, 0, 1, 5000),
            Endpoint::new(10, 10, 0, 2, 6001),
        ));
        md.entries.push(ConnEntry {
            transport: Transport::Udp,
            src: Endpoint::new(10, 10, 0, 1, 9999),
            dst: None,
            state: ConnState::FullDuplex,
            role: RestartRole::Unassigned,
            listening: false,
            pcb_recv: 0,
            pcb_acked: 0,
        });
        md.entries.push(ConnEntry {
            transport: Transport::Tcp,
            src: Endpoint::new(10, 10, 0, 1, 5000),
            dst: None,
            state: ConnState::FullDuplex,
            role: RestartRole::Unassigned,
            listening: true,
            pcb_recv: 0,
            pcb_acked: 0,
        });
        md
    }

    #[test]
    fn metadata_round_trip() {
        let md = sample();
        let mut w = RecordWriter::new();
        md.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = MetaData::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, md);
    }

    #[test]
    fn endpoint_display_and_octets() {
        let e = Endpoint::new(10, 10, 0, 3, 5001);
        assert_eq!(e.to_string(), "10.10.0.3:5001");
        assert_eq!(e.octets(), [10, 10, 0, 3]);
    }

    #[test]
    fn pair_key_is_symmetric() {
        let a = Endpoint::new(10, 10, 0, 1, 5000);
        let b = Endpoint::new(10, 10, 0, 2, 6001);
        let e1 = ConnEntry::tcp(a, b);
        let e2 = ConnEntry::tcp(b, a);
        assert_eq!(e1.pair_key(), e2.pair_key());
        assert!(e1.pair_key().is_some());
    }

    #[test]
    fn pair_key_none_for_unconnected() {
        let e = ConnEntry {
            transport: Transport::Udp,
            src: Endpoint::new(10, 10, 0, 1, 9999),
            dst: None,
            state: ConnState::FullDuplex,
            role: RestartRole::Unassigned,
            listening: false,
            pcb_recv: 0,
            pcb_acked: 0,
        };
        assert_eq!(e.pair_key(), None);
    }

    #[test]
    fn encoded_len_is_small() {
        // The paper reports network-state data of 216 B – 2 KB; the table
        // itself must be tiny.
        let md = sample();
        assert!(md.encoded_len() < 256, "meta-data too large: {}", md.encoded_len());
    }

    #[test]
    fn conn_state_all_variants_round_trip() {
        for s in ConnState::ALL {
            let mut w = RecordWriter::new();
            s.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = RecordReader::new(&bytes);
            assert_eq!(ConnState::decode(&mut r).unwrap(), s);
        }
    }
}
