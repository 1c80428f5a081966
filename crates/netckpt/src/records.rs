//! Per-socket network-state records (the `NetState` image section).

use zapc_proto::rw::decode_exact;
use zapc_proto::{
    Decode, DecodeResult, Encode, Endpoint, RecordReader, RecordWriter, SectionTag, Transport,
};
use zapc_net::tcp::{CcExtract, PcbExtract};
use zapc_net::SockOpts;

/// Full checkpointed state of one socket, indexed by its checkpoint
/// ordinal (shared with the descriptor records of `zapc-ckpt`).
#[derive(Debug, Clone, PartialEq)]
pub struct SockRecord {
    /// Checkpoint ordinal (position in the pod's socket enumeration).
    pub ordinal: u32,
    /// Transport protocol.
    pub transport: Transport,
    /// The complete socket-parameter block (§5: "the entire set").
    pub opts: SockOpts,
    /// Bound local endpoint.
    pub local: Option<Endpoint>,
    /// Remote endpoint (TCP peer or connected-UDP peer).
    pub peer: Option<Endpoint>,
    /// Listening socket.
    pub listening: bool,
    /// Listener backlog.
    pub backlog: u32,
    /// `shutdown(Read)` had been called.
    pub rd_shutdown: bool,
    /// Ordinal of the listener whose pending queue held this socket, when
    /// it was a completed-but-unaccepted child.
    pub pending_of: Option<u32>,
    /// Minimal protocol state (TCP only).
    pub pcb: Option<PcbExtract>,
    /// Receive queue: in-order stream data (captured read-and-reinject),
    /// including any prior alternate-queue remainder.
    pub recv_stream: Vec<u8>,
    /// Receive queue: urgent (out-of-band) data.
    pub recv_urgent: Vec<u8>,
    /// Out-of-order backlog byte count (accounting; provably redundant
    /// with the peer's send queue under cumulative acks).
    pub recv_backlog_bytes: u64,
    /// The application had peeked at the receive queue.
    pub recv_peeked: bool,
    /// Send queue contents `[acked, written_end)` (direct buffer walk).
    pub send_data: Vec<u8>,
    /// Urgent marks within `send_data`, as offsets relative to `acked`.
    pub send_urgent_marks: Vec<(u64, u64)>,
    /// Datagram queue (UDP / raw IP): `(source, payload)` pairs.
    pub dgrams: Vec<(Endpoint, Vec<u8>)>,
    /// Raw-IP protocol number.
    pub ip_proto: u8,
    /// Pending asynchronous socket error (e.g. an unconsumed
    /// `ECONNREFUSED`): observable application state that must survive.
    pub err: Option<zapc_net::NetError>,
    /// Congestion/flow-control extract (TCP only): the connection's
    /// pacing state, reinstated before the send-queue resend so restart
    /// honours the checkpointed windows.
    pub cc: Option<CcExtract>,
}

impl SockRecord {
    /// An empty record for ordinal `ordinal`.
    pub fn empty(ordinal: u32, transport: Transport) -> SockRecord {
        SockRecord {
            ordinal,
            transport,
            opts: SockOpts::default(),
            local: None,
            peer: None,
            listening: false,
            backlog: 0,
            rd_shutdown: false,
            pending_of: None,
            pcb: None,
            recv_stream: Vec::new(),
            recv_urgent: Vec::new(),
            recv_backlog_bytes: 0,
            recv_peeked: false,
            send_data: Vec::new(),
            send_urgent_marks: Vec::new(),
            dgrams: Vec::new(),
            ip_proto: 0,
            err: None,
            cc: None,
        }
    }

    /// Serialized size in bytes (the network-state footprint of Figure 6c).
    pub fn encoded_len(&self) -> usize {
        let mut w = RecordWriter::new();
        self.encode(&mut w);
        w.len()
    }

    /// Semantic validation beyond what decoding enforces: restore and
    /// merge consume these fields arithmetically (sequence-number offsets,
    /// urgent-mark ranges), so a record that decoded fine can still be
    /// hostile. Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let Some(pcb) = &self.pcb {
            if pcb.sent < pcb.acked {
                return Err("pcb: sent behind acked");
            }
            if pcb.sent - pcb.acked > self.send_data.len() as u64 {
                return Err("pcb: in-flight span exceeds saved send queue");
            }
        }
        let len = self.send_data.len() as u64;
        let mut prev_end = 0u64;
        for &(a, b) in &self.send_urgent_marks {
            if a > b || b > len {
                return Err("urgent mark outside send queue");
            }
            if a < prev_end {
                return Err("urgent marks unordered or overlapping");
            }
            prev_end = b;
        }
        if self.listening && self.pcb.is_some() {
            return Err("listener with a connection PCB");
        }
        if let Some(cc) = &self.cc {
            if self.pcb.is_none() {
                return Err("congestion extract without a PCB");
            }
            if cc.recover_off.is_some_and(|off| off > self.send_data.len() as u64) {
                return Err("recovery point outside saved send queue");
            }
        }
        Ok(())
    }
}

impl Encode for SockRecord {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.ordinal);
        w.put(&self.transport);
        w.put(&self.opts);
        w.put(&self.local);
        w.put(&self.peer);
        w.put(&self.listening);
        w.put(&self.backlog);
        w.put(&self.rd_shutdown);
        w.put(&self.pending_of);
        w.put(&self.pcb);
        w.put(&self.recv_stream);
        w.put(&self.recv_urgent);
        w.put(&self.recv_backlog_bytes);
        w.put(&self.recv_peeked);
        w.put(&self.send_data);
        w.put(&self.send_urgent_marks);
        w.put(&self.dgrams);
        w.put(&self.ip_proto);
        w.put(&self.err);
        w.put(&self.cc);
    }
}

impl Decode for SockRecord {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(SockRecord {
            ordinal: r.get()?,
            transport: r.get()?,
            opts: r.get()?,
            local: r.get()?,
            peer: r.get()?,
            listening: r.get()?,
            backlog: r.get()?,
            rd_shutdown: r.get()?,
            pending_of: r.get()?,
            pcb: r.get()?,
            recv_stream: r.get()?,
            recv_urgent: r.get()?,
            recv_backlog_bytes: r.get()?,
            recv_peeked: r.get()?,
            send_data: r.get()?,
            send_urgent_marks: r.get()?,
            dgrams: r.get()?,
            ip_proto: r.get()?,
            err: r.get()?,
            cc: r.get()?,
        })
    }
}

/// Encodes a whole record list as one `NetState` section payload.
pub fn encode_records(records: &[SockRecord]) -> RecordWriter {
    let mut w = RecordWriter::new();
    w.put(records);
    w
}

/// Decodes a `NetState` section payload.
pub fn decode_records(payload: &[u8]) -> DecodeResult<Vec<SockRecord>> {
    decode_exact(SectionTag::NetState as u16, payload, RecordReader::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(h: u8, p: u16) -> Endpoint {
        Endpoint::new(10, 10, 0, h, p)
    }

    fn sample() -> SockRecord {
        let mut rec = SockRecord::empty(3, Transport::Tcp);
        rec.local = Some(ep(1, 5000));
        rec.peer = Some(ep(2, 6000));
        rec.pcb = Some(PcbExtract { sent: 1100, recv: 2200, acked: 1050 });
        rec.recv_stream = b"unread".to_vec();
        rec.recv_urgent = b"!".to_vec();
        rec.recv_peeked = true;
        rec.send_data = b"unacked-data".to_vec();
        rec.send_urgent_marks = vec![(3, 5)];
        rec.opts.oob_inline = true;
        rec.cc = Some(CcExtract {
            cwnd: 5840,
            ssthresh: 2920,
            dup_acks: 2,
            recover_off: Some(8),
            peer_window: 0,
            rtx_backoff: 3,
            fast_retransmits: 4,
            rto_events: 1,
            zero_window_events: 2,
            zero_window_probes: 6,
        });
        rec
    }

    #[test]
    fn record_round_trip() {
        let rec = sample();
        let mut w = RecordWriter::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(SockRecord::decode(&mut r).unwrap(), rec);
        assert!(r.is_empty());
    }

    #[test]
    fn record_list_round_trip() {
        let mut udp = SockRecord::empty(0, Transport::Udp);
        udp.local = Some(ep(1, 9000));
        udp.dgrams = vec![(ep(2, 1234), b"dgram".to_vec())];
        let records = vec![udp, sample()];
        let w = encode_records(&records);
        let back = decode_records(w.bytes()).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn network_state_is_small() {
        // §6.2: network-state data is a few KB at most for real apps.
        let rec = sample();
        assert!(rec.encoded_len() < 512, "record too large: {}", rec.encoded_len());
    }

    #[test]
    fn truncated_record_list_rejected() {
        let w = encode_records(&[sample()]);
        let bytes = w.bytes();
        assert!(decode_records(&bytes[..bytes.len() - 3]).is_err());
    }
}
