//! TCP-lite: the reliable transport engine.
//!
//! Implements the protocol behaviour the network checkpoint depends on:
//! a three-way handshake, byte sequence numbers with SYN/FIN occupying one
//! sequence unit each, cumulative acknowledgments, flow control by
//! advertised window, urgent data, retransmission, and FIN/RST teardown.
//!
//! The [`Tcb`] (transmission control block) is this stack's
//! *protocol-control-block* (PCB). Its [`Tcb::pcb_extract`] method exposes
//! exactly the minimal per-connection protocol state §5 proves necessary and
//! sufficient for restart: the `sent`, `recv` and `acked` sequence numbers.

use crate::buf::{RecvBuf, SendBuf};
use crate::congestion::{CcAction, CongestionCtl};
use crate::flow::FlowCtl;
use crate::seg::{SegFlags, Segment};
use crate::NetError;
use zapc_proto::{
    ConnState, Decode, DecodeResult, Encode, Endpoint, RecordReader, RecordWriter, Transport,
};

/// Connection phase of a TCB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Active open: SYN sent, waiting for SYN+ACK.
    SynSent,
    /// Passive open: SYN received, SYN+ACK sent, waiting for ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Torn down (after RST, or both FINs exchanged and acknowledged).
    Closed,
}

/// Minimal protocol state extracted at checkpoint time (paper §5):
/// the three per-peer sequence numbers of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcbExtract {
    /// `sent`: last data sequence transmitted (`snd.nxt`).
    pub sent: u64,
    /// `recv`: last data sequence received in order (`rcv.nxt`).
    pub recv: u64,
    /// `acked`: last of our data acknowledged by the peer (`snd.una`).
    pub acked: u64,
}

/// Congestion/flow-control state extracted at checkpoint time — the
/// complement of [`PcbExtract`] for a connection under live traffic.
/// Sequence-relative values are stored as offsets from `acked` so the
/// extract survives the fresh initial sequence numbers a restart picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcExtract {
    /// Congestion window in bytes.
    pub cwnd: u64,
    /// Slow-start threshold in bytes.
    pub ssthresh: u64,
    /// Consecutive duplicate acks at capture time.
    pub dup_acks: u32,
    /// Fast-recovery exit point as an offset from `acked`; `None` when
    /// not in recovery.
    pub recover_off: Option<u64>,
    /// The peer's advertised window, verbatim (zero means a genuine
    /// zero-window stall was in progress).
    pub peer_window: u64,
    /// Retransmission backoff exponent.
    pub rtx_backoff: u32,
    /// Observability counters, carried across restart so reports stay
    /// monotonic.
    pub fast_retransmits: u64,
    /// RTO congestion events.
    pub rto_events: u64,
    /// Transitions into a zero window.
    pub zero_window_events: u64,
    /// Zero-window probes sent.
    pub zero_window_probes: u64,
}

impl Encode for PcbExtract {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.sent);
        w.put_u64(self.recv);
        w.put_u64(self.acked);
    }
}

impl Decode for PcbExtract {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(PcbExtract { sent: r.get_u64()?, recv: r.get_u64()?, acked: r.get_u64()? })
    }
}

impl Encode for CcExtract {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.cwnd);
        w.put_u64(self.ssthresh);
        w.put_u32(self.dup_acks);
        w.put(&self.recover_off);
        w.put_u64(self.peer_window);
        w.put_u32(self.rtx_backoff);
        w.put_u64(self.fast_retransmits);
        w.put_u64(self.rto_events);
        w.put_u64(self.zero_window_events);
        w.put_u64(self.zero_window_probes);
    }
}

impl Decode for CcExtract {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(CcExtract {
            cwnd: r.get_u64()?,
            ssthresh: r.get_u64()?,
            dup_acks: r.get_u32()?,
            recover_off: r.get()?,
            peer_window: r.get_u64()?,
            rtx_backoff: r.get_u32()?,
            fast_retransmits: r.get_u64()?,
            rto_events: r.get_u64()?,
            zero_window_events: r.get_u64()?,
            zero_window_probes: r.get_u64()?,
        })
    }
}

/// Events a segment-processing step reports up to the socket layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcbEvents {
    /// Handshake completed (SynRcvd/SynSent → Established).
    pub established: bool,
    /// New application data became readable.
    pub readable: bool,
    /// The connection was reset by the peer.
    pub reset: bool,
    /// Remote FIN consumed (peer finished sending).
    pub remote_fin: bool,
    /// Our FIN has been acknowledged.
    pub fin_acked: bool,
}

/// The transmission control block of one TCP-lite connection.
#[derive(Debug)]
pub struct Tcb {
    /// Connection phase.
    pub state: TcpState,
    /// Local endpoint (virtual address).
    pub local: Endpoint,
    /// Remote endpoint (virtual address).
    pub remote: Endpoint,
    /// Initial send sequence number (the SYN's sequence).
    pub iss: u64,
    /// Initial receive sequence number.
    pub irs: u64,
    /// Send queue; data stream starts at `iss + 1`.
    pub send: SendBuf,
    /// Receive queues; data stream starts at `irs + 1`.
    pub recv: RecvBuf,
    /// Flow control: the peer's advertised window, honest (may be zero).
    pub flow: FlowCtl,
    /// Congestion control: slow start / congestion avoidance / NewReno
    /// fast recovery.
    pub cc: CongestionCtl,
    /// Maximum segment size for carving.
    pub mss: usize,
    /// `close`/`shutdown(Write)` requested but FIN not yet emitted.
    pub fin_pending: bool,
    /// FIN transmitted; its sequence number.
    pub fin_seq: Option<u64>,
    /// Our FIN acknowledged by the peer.
    pub fin_acked: bool,
    /// Retransmission backoff exponent.
    pub rtx_backoff: u32,
    /// Bytes the local receiver dropped because they exceeded its
    /// advertised window (observability; the peer retransmits them).
    pub rx_window_trimmed: u64,
    /// Virtual clock attached to outgoing segments (timing model only).
    pub tx_vt: u64,
    /// Configured `SO_RCVBUF` (survives the SYN-time `RecvBuf` re-seed).
    rcv_buf_limit: usize,
    /// Configured `SO_OOBINLINE` (survives the re-seed).
    oob_inline: bool,
}

impl Tcb {
    /// Creates a TCB for an active open (`connect`): state `SynSent`.
    /// The caller emits the initial SYN via [`Tcb::make_syn`].
    pub fn connect(local: Endpoint, remote: Endpoint, iss: u64, snd_buf: usize, rcv_buf: usize, mss: usize, oob_inline: bool) -> Self {
        Tcb {
            state: TcpState::SynSent,
            local,
            remote,
            iss,
            irs: 0,
            send: SendBuf::new(iss + 1, snd_buf),
            recv: RecvBuf::new(0, rcv_buf, oob_inline), // re-seeded on SYN+ACK
            flow: FlowCtl::new(),
            cc: CongestionCtl::new(mss),
            mss,
            fin_pending: false,
            fin_seq: None,
            fin_acked: false,
            rtx_backoff: 0,
            rx_window_trimmed: 0,
            tx_vt: 0,
            rcv_buf_limit: rcv_buf,
            oob_inline,
        }
    }

    /// Creates a TCB for a passive open (listener child): state `SynRcvd`.
    /// `irs` is the peer SYN's sequence number.
    #[allow(clippy::too_many_arguments)] // mirrors the socket-creation surface
    pub fn accept(local: Endpoint, remote: Endpoint, iss: u64, irs: u64, snd_buf: usize, rcv_buf: usize, mss: usize, oob_inline: bool) -> Self {
        Tcb {
            state: TcpState::SynRcvd,
            local,
            remote,
            iss,
            irs,
            send: SendBuf::new(iss + 1, snd_buf),
            recv: RecvBuf::new(irs + 1, rcv_buf, oob_inline),
            flow: FlowCtl::new(),
            cc: CongestionCtl::new(mss),
            mss,
            fin_pending: false,
            fin_seq: None,
            fin_acked: false,
            rtx_backoff: 0,
            rx_window_trimmed: 0,
            tx_vt: 0,
            rcv_buf_limit: rcv_buf,
            oob_inline,
        }
    }

    /// The initial SYN for an active open.
    pub fn make_syn(&self) -> Segment {
        let mut s = Segment::tcp(self.local, self.remote, SegFlags::syn(), self.iss, 0);
        s.window = self.recv.window() as u32;
        s.vt = self.tx_vt;
        s
    }

    /// The SYN+ACK for a passive open.
    pub fn make_syn_ack(&self) -> Segment {
        let mut s =
            Segment::tcp(self.local, self.remote, SegFlags::syn_ack(), self.iss, self.irs + 1);
        s.window = self.recv.window() as u32;
        s.vt = self.tx_vt;
        s
    }

    fn make_ack(&self) -> Segment {
        let mut s = Segment::tcp(
            self.local,
            self.remote,
            SegFlags::ack(),
            self.send.nxt(),
            self.recv.nxt(),
        );
        s.window = self.recv.window() as u32;
        s.vt = self.tx_vt;
        s
    }

    /// Builds an RST answering `seg` (used for connection refusal and
    /// aborts).
    pub fn make_rst_for(seg: &Segment) -> Segment {
        let mut s = Segment::tcp(seg.dst, seg.src, SegFlags::rst(), seg.ack, seg.seq_end());
        s.flags.ack = true;
        s
    }

    /// Whether this connection still has unacknowledged state that a
    /// retransmission timer must protect (data, SYN, or FIN).
    pub fn needs_rtx(&self) -> bool {
        match self.state {
            TcpState::SynSent | TcpState::SynRcvd => true,
            TcpState::Established => {
                self.send.unacked() > 0
                    || self.send.unsent() > 0
                    || (self.fin_seq.is_some() && !self.fin_acked)
                    || self.fin_pending
            }
            TcpState::Closed => false,
        }
    }

    /// Application write. Returns bytes accepted or `WouldBlock` when the
    /// send buffer is full.
    pub fn write(&mut self, data: &[u8], urgent: bool, out: &mut Vec<Segment>) -> Result<usize, NetError> {
        match self.state {
            TcpState::Established => {}
            TcpState::SynSent | TcpState::SynRcvd => return Err(NetError::WouldBlock),
            TcpState::Closed => return Err(NetError::Pipe),
        }
        if self.fin_pending || self.fin_seq.is_some() {
            return Err(NetError::Pipe); // send direction shut down
        }
        let n = if urgent { self.send.write_urgent(data) } else { self.send.write(data) };
        if n == 0 {
            return Err(NetError::WouldBlock);
        }
        self.output(out);
        Ok(n)
    }

    /// The effective send window in bytes from `snd.una`: the smaller of
    /// the peer's advertised window (flow control, honest — may be zero)
    /// and the congestion window.
    pub fn effective_window(&self) -> u64 {
        self.flow.window().min(self.cc.window())
    }

    /// Carves and emits as much pending data as the effective window
    /// (flow × congestion) allows; emits the FIN when the send queue
    /// drains and a close was requested.
    pub fn output(&mut self, out: &mut Vec<Segment>) {
        if self.state != TcpState::Established {
            return;
        }
        while let Some((seq, data, urg)) = self.send.next_segment(self.mss, self.effective_window()) {
            if data.is_empty() {
                break;
            }
            let mut s = Segment::tcp(self.local, self.remote, SegFlags::ack(), seq, self.recv.nxt());
            s.flags.urg = urg;
            s.payload = data;
            s.window = self.recv.window() as u32;
            s.vt = self.tx_vt;
            out.push(s);
        }
        if self.fin_pending && self.send.unsent() == 0 {
            self.fin_pending = false;
            let fin_seq = self.send.end();
            self.fin_seq = Some(fin_seq);
            let mut s = Segment::tcp(self.local, self.remote, SegFlags::ack(), fin_seq, self.recv.nxt());
            s.flags.fin = true;
            s.window = self.recv.window() as u32;
            s.vt = self.tx_vt;
            out.push(s);
        }
    }

    /// Requests connection shutdown of the send direction (FIN after the
    /// send queue drains).
    pub fn close_send(&mut self, out: &mut Vec<Segment>) {
        if self.state == TcpState::Closed || self.fin_pending || self.fin_seq.is_some() {
            return;
        }
        match self.state {
            TcpState::Established => {
                self.fin_pending = true;
                self.output(out);
            }
            // Closing before the handshake finishes tears the socket down.
            _ => self.state = TcpState::Closed,
        }
    }

    /// Hard abort: emits RST and closes.
    pub fn abort(&mut self, out: &mut Vec<Segment>) {
        if self.state != TcpState::Closed {
            let mut s = Segment::tcp(self.local, self.remote, SegFlags::rst(), self.send.nxt(), self.recv.nxt());
            s.flags.ack = true;
            out.push(s);
            self.state = TcpState::Closed;
        }
    }

    /// Processes one incoming segment; pushes any responses to `out`.
    pub fn input(&mut self, seg: &Segment, out: &mut Vec<Segment>) -> TcbEvents {
        let mut ev = TcbEvents::default();
        debug_assert_eq!(seg.transport, Transport::Tcp);
        if seg.flags.rst {
            // Sequence-validate resets so a stale RST from a previous
            // incarnation of this 4-tuple (e.g. teardown segments of a
            // migrated-away pod still in flight) cannot kill the restored
            // connection — mirroring RFC 793's window check.
            let valid = match self.state {
                TcpState::SynSent => seg.flags.ack && seg.ack == self.iss + 1,
                // A half-open child has received nothing past the SYN, so
                // its peer's reset names exactly `rcv.nxt`. One that merely
                // falls in the window reflects a stale incarnation's
                // sequence numbers (a dialer in SYN-SENT answering a
                // segment of the old connection still in flight).
                TcpState::SynRcvd => seg.seq == self.recv.nxt(),
                TcpState::Closed => false,
                _ => {
                    let lo = self.recv.nxt().saturating_sub(1);
                    let hi = self.recv.nxt() + self.recv.window().max(1);
                    (lo..=hi).contains(&seg.seq)
                }
            };
            if valid && self.state != TcpState::Closed {
                self.state = TcpState::Closed;
                ev.reset = true;
            }
            return ev;
        }
        match self.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.iss + 1 {
                    self.irs = seg.seq;
                    self.recv = RecvBuf::new(seg.seq + 1, self.rcv_buf_limit, self.oob_inline);
                    self.send.on_ack(seg.ack);
                    self.flow.update(seg.window as u64);
                    self.state = TcpState::Established;
                    self.rtx_backoff = 0;
                    ev.established = true;
                    out.push(self.make_ack());
                    self.output(out);
                } else if seg.flags.ack && seg.ack != self.iss + 1 {
                    // RFC 793: an unacceptable ACK in SYN-SENT is answered
                    // with <SEQ=SEG.ACK><CTL=RST>. The sender is a stale
                    // half-open child left by an abandoned earlier
                    // incarnation of this 4-tuple, re-answering with its
                    // obsolete SYN-ACK forever; the reset kills it so the
                    // peer's listener can answer our live SYN.
                    let mut rst =
                        Segment::tcp(self.local, self.remote, SegFlags::rst(), seg.ack, seg.seq_end());
                    rst.flags.ack = true;
                    rst.vt = self.tx_vt;
                    out.push(rst);
                }
                ev
            }
            TcpState::SynRcvd => {
                if seg.flags.syn && !seg.flags.ack {
                    // Retransmitted SYN: re-answer.
                    out.push(self.make_syn_ack());
                    return ev;
                }
                // Only our SYN is outstanding: any other ACK is a stale
                // incarnation's, and must not complete the handshake.
                if seg.flags.ack && seg.ack == self.iss + 1 {
                    self.send.on_ack(seg.ack.min(self.send.end()));
                    self.flow.update(seg.window as u64);
                    self.state = TcpState::Established;
                    self.rtx_backoff = 0;
                    ev.established = true;
                    // The handshake ACK may already carry data.
                    if !seg.payload.is_empty() || seg.flags.fin {
                        let mut ev2 = self.input_established(seg, out);
                        ev2.established = true;
                        return ev2;
                    }
                }
                ev
            }
            TcpState::Established => self.input_established(seg, out),
            TcpState::Closed => {
                // Anything but RST to a closed TCB is answered with RST.
                if !seg.flags.rst {
                    out.push(Tcb::make_rst_for(seg));
                }
                ev
            }
        }
    }

    fn input_established(&mut self, seg: &Segment, out: &mut Vec<Segment>) -> TcbEvents {
        let mut ev = TcbEvents::default();
        if seg.flags.syn && seg.flags.ack {
            // Duplicate SYN+ACK (our handshake ACK was lost): re-ack.
            out.push(self.make_ack());
            return ev;
        }
        // Reject acknowledgments beyond anything we ever sent (+1 for a
        // FIN): they can only come from a stale incarnation of the
        // 4-tuple and must not silently "ack" unsent data.
        if seg.flags.ack && seg.ack > self.send.end() + 1 {
            out.push(self.make_ack());
            return ev;
        }
        if seg.flags.ack {
            // RFC 5681 duplicate ack: same cumulative ack, no payload, no
            // SYN/FIN, data outstanding, and no window update riding along.
            let is_dup = seg.ack == self.send.una()
                && seg.payload.is_empty()
                && !seg.flags.syn
                && !seg.flags.fin
                && self.send.unacked() > 0
                && seg.window as u64 == self.flow.window();
            if is_dup {
                let flight = self.send.unacked();
                if self.cc.on_dup_ack(flight, self.send.nxt(), self.mss as u64)
                    == CcAction::Retransmit
                {
                    self.retransmit_oldest(out);
                }
            } else {
                let acked = self.send.on_ack(seg.ack.min(self.send.end()));
                self.flow.update(seg.window as u64);
                if acked > 0 {
                    self.rtx_backoff = 0;
                    if self.cc.on_new_ack(self.send.una(), acked, self.mss as u64)
                        == CcAction::Retransmit
                    {
                        // NewReno partial ack: the next hole is lost too.
                        self.retransmit_oldest(out);
                    }
                } else {
                    // Pure window update (or stale ack): flow state is
                    // already refreshed; output below may now make progress.
                }
            }
            if let Some(fs) = self.fin_seq {
                if !self.fin_acked && seg.ack > fs {
                    self.fin_acked = true;
                    ev.fin_acked = true;
                }
            }
        }
        let had_fin = self.recv.fin_reached();
        if !seg.payload.is_empty() || seg.flags.fin {
            let r = self.recv.input(seg.seq, &seg.payload, seg.flags.urg, seg.flags.fin);
            self.rx_window_trimmed += r.window_trimmed as u64;
            if r.newly_readable > 0 || r.newly_urgent > 0 {
                ev.readable = true;
            }
            if r.ack_needed {
                out.push(self.make_ack());
            }
            if !had_fin && self.recv.fin_reached() {
                ev.remote_fin = true;
            }
        }
        // An ACK may have opened the window; try to transmit more.
        self.output(out);
        if self.fin_acked && self.recv.fin_reached() {
            self.state = TcpState::Closed;
        }
        ev
    }

    /// Re-emits the oldest unacknowledged segment (fast retransmit and
    /// NewReno partial-ack path; also the RTO data path).
    fn retransmit_oldest(&mut self, out: &mut Vec<Segment>) {
        if let Some((seq, data, urg)) = self.send.retransmit_segment(self.mss) {
            let mut s = Segment::tcp(self.local, self.remote, SegFlags::ack(), seq, self.recv.nxt());
            s.flags.urg = urg;
            s.payload = data;
            s.window = self.recv.window() as u32;
            s.vt = self.tx_vt;
            out.push(s);
        }
    }

    /// Emits a one-byte zero-window probe (persist timer). The probe does
    /// not advance `sent`; the peer either trims it (still closed) or
    /// accepts it (open — its ack pulls `sent` forward).
    fn emit_probe(&mut self, out: &mut Vec<Segment>) -> bool {
        if let Some((seq, data, urg)) = self.send.probe_segment() {
            let mut s = Segment::tcp(self.local, self.remote, SegFlags::ack(), seq, self.recv.nxt());
            s.flags.urg = urg;
            s.payload = data;
            s.window = self.recv.window() as u32;
            s.vt = self.tx_vt;
            out.push(s);
            self.flow.on_probe();
            return true;
        }
        false
    }

    /// Retransmission timer fired: re-emits the oldest outstanding unit
    /// (SYN, data segment, zero-window probe, or FIN). Returns `true` if
    /// anything was sent.
    pub fn on_rtx_timer(&mut self, out: &mut Vec<Segment>) -> bool {
        match self.state {
            TcpState::SynSent => {
                out.push(self.make_syn());
                self.rtx_backoff += 1;
                true
            }
            TcpState::SynRcvd => {
                out.push(self.make_syn_ack());
                self.rtx_backoff += 1;
                true
            }
            TcpState::Established => {
                let mut sent = false;
                if self.send.unacked() > 0 {
                    // Genuine retransmission timeout: collapse the
                    // congestion window and resend the oldest segment.
                    self.cc.on_rto(self.send.unacked(), self.mss as u64);
                    let before = out.len();
                    self.retransmit_oldest(out);
                    sent = out.len() > before;
                } else if self.flow.is_zero() && self.send.unsent() > 0 {
                    // Persist timer: the peer's window is closed and
                    // nothing is in flight — probe with one byte. The
                    // congestion window is untouched (RFC 6429 shape).
                    sent = self.emit_probe(out);
                } else if self.send.unsent() > 0 {
                    // Window open but data never went out (e.g. freshly
                    // restored queue): transmit normally.
                    let before = out.len();
                    self.output(out);
                    sent = out.len() > before;
                } else if let Some(fs) = self.fin_seq {
                    if !self.fin_acked {
                        let mut s = Segment::tcp(self.local, self.remote, SegFlags::ack(), fs, self.recv.nxt());
                        s.flags.fin = true;
                        s.window = self.recv.window() as u32;
                        out.push(s);
                        sent = true;
                    }
                } else if self.fin_pending {
                    self.output(out);
                    sent = !out.is_empty();
                }
                if sent {
                    self.rtx_backoff += 1;
                }
                sent
            }
            TcpState::Closed => false,
        }
    }

    /// The minimal protocol state extracted at checkpoint (paper §5).
    pub fn pcb_extract(&self) -> PcbExtract {
        PcbExtract { sent: self.send.nxt(), recv: self.recv.nxt(), acked: self.send.una() }
    }

    /// Extracts the congestion/flow-control state for a checkpoint.
    /// Paired with [`Tcb::cc_apply`] for a byte-exact round-trip (modulo
    /// the sequence re-basing a restart performs).
    pub fn cc_extract(&self) -> CcExtract {
        CcExtract {
            cwnd: self.cc.cwnd,
            ssthresh: self.cc.ssthresh,
            dup_acks: self.cc.dup_acks,
            recover_off: self.cc.recover.map(|r| r.saturating_sub(self.send.una())),
            peer_window: self.flow.peer_window,
            rtx_backoff: self.rtx_backoff,
            fast_retransmits: self.cc.fast_retransmits,
            rto_events: self.cc.rto_events,
            zero_window_events: self.flow.zero_window_events,
            zero_window_probes: self.flow.zero_window_probes,
        }
    }

    /// Reinstates a checkpointed congestion/flow-control extract on a
    /// freshly reconnected TCB (restore runs this *before* replaying the
    /// send queue, so the resend honours the checkpointed windows — a
    /// restart must not blast a congested or zero-window path). Values
    /// from a hostile image degrade to safe minima, never to a stall or
    /// a panic.
    pub fn cc_apply(&mut self, e: &CcExtract) {
        let mss = self.mss as u64;
        self.cc.cwnd = e.cwnd.max(mss);
        self.cc.ssthresh = e.ssthresh.max(2 * mss);
        self.cc.dup_acks = e.dup_acks;
        self.cc.recover = e.recover_off.map(|off| self.send.una() + off);
        self.cc.fast_retransmits = e.fast_retransmits;
        self.cc.rto_events = e.rto_events;
        self.flow.peer_window = e.peer_window;
        self.flow.zero_window_events = e.zero_window_events;
        self.flow.zero_window_probes = e.zero_window_probes;
        self.rtx_backoff = e.rtx_backoff;
    }

    /// Maps this connection onto the meta-data [`ConnState`] vocabulary.
    pub fn conn_state(&self) -> ConnState {
        match self.state {
            TcpState::SynSent | TcpState::SynRcvd => ConnState::Connecting,
            TcpState::Closed => ConnState::Closed,
            TcpState::Established => {
                let local_closed = self.fin_pending || self.fin_seq.is_some();
                let remote_closed = self.recv.fin_reached();
                match (local_closed, remote_closed) {
                    (false, false) => ConnState::FullDuplex,
                    (true, false) => ConnState::HalfDuplexLocal,
                    (false, true) => ConnState::HalfDuplexRemote,
                    (true, true) => ConnState::Closed,
                }
            }
        }
    }

    /// Updates `SO_OOBINLINE` on a live connection.
    pub fn set_oob_inline(&mut self, inline: bool) {
        self.oob_inline = inline;
        self.recv.set_oob_inline(inline);
    }
}

/// Drives two TCBs against each other in memory (no wire); used by unit
/// tests here and by higher-level property tests.
#[cfg(test)]
pub(crate) struct Pair {
    pub a: Tcb,
    pub b: Tcb,
}

#[cfg(test)]
impl Pair {
    /// Performs a full handshake between two fresh TCBs.
    pub fn established() -> Pair {
        let ea = Endpoint::new(10, 10, 0, 1, 1000);
        let eb = Endpoint::new(10, 10, 0, 2, 2000);
        let mut a = Tcb::connect(ea, eb, 100, 1 << 16, 1 << 16, 1460, false);
        let mut b = Tcb::accept(eb, ea, 900, 100, 1 << 16, 1 << 16, 1460, false);
        let mut out = Vec::new();
        // a's SYN is implicit (b was built from it); b answers SYN+ACK.
        let synack = b.make_syn_ack();
        let ev = a.input(&synack, &mut out);
        assert!(ev.established);
        let ack = out.remove(0);
        let ev = b.input(&ack, &mut out);
        assert!(ev.established);
        assert!(out.is_empty());
        Pair { a, b }
    }

    /// Delivers every segment in `segs` to `to`, collecting its responses.
    pub fn deliver(to: &mut Tcb, segs: Vec<Segment>) -> Vec<Segment> {
        let mut out = Vec::new();
        for s in segs {
            to.input(&s, &mut out);
        }
        out
    }

    /// Runs segments back and forth (routing by destination endpoint)
    /// until both sides go quiet.
    pub fn settle(&mut self, mut pending: Vec<Segment>) {
        let a_local = self.a.local;
        for _ in 0..128 {
            if pending.is_empty() {
                return;
            }
            let mut next = Vec::new();
            for s in pending {
                if s.dst == a_local {
                    next.extend(Pair::deliver(&mut self.a, vec![s]));
                } else {
                    next.extend(Pair::deliver(&mut self.b, vec![s]));
                }
            }
            pending = next;
        }
        panic!("segment exchange did not settle");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_establishes_both_sides() {
        let p = Pair::established();
        assert_eq!(p.a.state, TcpState::Established);
        assert_eq!(p.b.state, TcpState::Established);
        assert_eq!(p.a.pcb_extract().sent, 101);
        assert_eq!(p.a.pcb_extract().acked, 101);
        assert_eq!(p.a.recv.nxt(), 901);
    }

    #[test]
    fn data_transfer_and_ack() {
        let mut p = Pair::established();
        let mut out = Vec::new();
        assert_eq!(p.a.write(b"hello", false, &mut out).unwrap(), 5);
        assert_eq!(out.len(), 1);
        p.settle(out);
        assert_eq!(p.b.recv.read(100), b"hello");
        assert_eq!(p.a.send.unacked(), 0, "ack fully processed");
        let pcb_a = p.a.pcb_extract();
        let pcb_b = p.b.pcb_extract();
        assert_eq!(pcb_a.sent, 106);
        assert_eq!(pcb_a.acked, 106);
        assert_eq!(pcb_b.recv, 106);
    }

    #[test]
    fn mss_splits_large_writes() {
        let mut p = Pair::established();
        p.a.mss = 10;
        let mut out = Vec::new();
        p.a.write(&[7u8; 35], false, &mut out).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out[..3].iter().all(|s| s.payload.len() == 10));
        assert_eq!(out[3].payload.len(), 5);
        p.settle(out);
        assert_eq!(p.b.recv.read(100).len(), 35);
    }

    #[test]
    fn reliable_invariant_recv_ge_acked() {
        // recv₁ ≥ acked₂ — the invariant of Figure 4.
        let mut p = Pair::established();
        let mut out = Vec::new();
        p.a.write(b"some data in flight", false, &mut out).unwrap();
        // Even before delivery, the invariant holds (nothing acked yet).
        assert!(p.b.pcb_extract().recv >= p.a.pcb_extract().acked);
        // Deliver data but *drop the ack* (simulating freeze): b.recv
        // advances, a.acked stays — overlap appears, invariant still holds.
        let responses = Pair::deliver(&mut p.b, out);
        assert!(!responses.is_empty());
        assert!(p.b.pcb_extract().recv > p.a.pcb_extract().acked);
        // Overlap size is exactly what the restart must discard.
        let overlap = p.b.pcb_extract().recv - p.a.pcb_extract().acked;
        assert_eq!(overlap, 19);
    }

    #[test]
    fn retransmission_recovers_lost_segment() {
        let mut p = Pair::established();
        let mut out = Vec::new();
        p.a.write(b"lost", false, &mut out).unwrap();
        out.clear(); // the wire ate it
        assert!(p.a.needs_rtx());
        let mut rtx = Vec::new();
        assert!(p.a.on_rtx_timer(&mut rtx));
        p.settle(rtx);
        assert_eq!(p.b.recv.read(100), b"lost");
        assert!(!p.a.needs_rtx());
    }

    #[test]
    fn urgent_data_flagged_and_routed() {
        let mut p = Pair::established();
        let mut out = Vec::new();
        p.a.write(b"normal", false, &mut out).unwrap();
        p.a.write(b"!", true, &mut out).unwrap();
        assert!(out.iter().any(|s| s.flags.urg));
        p.settle(out);
        assert_eq!(p.b.recv.read(100), b"normal");
        assert_eq!(p.b.recv.read_urgent(10), b"!");
    }

    #[test]
    fn fin_teardown_both_ways() {
        let mut p = Pair::established();
        let mut out = Vec::new();
        p.a.write(b"bye", false, &mut out).unwrap();
        p.a.close_send(&mut out);
        p.settle(out);
        assert!(p.b.recv.fin_reached());
        assert_eq!(p.b.recv.read(100), b"bye");
        assert_eq!(p.a.conn_state(), ConnState::HalfDuplexLocal);
        assert_eq!(p.b.conn_state(), ConnState::HalfDuplexRemote);
        let mut out = Vec::new();
        p.b.close_send(&mut out);
        p.settle(out);
        assert_eq!(p.a.state, TcpState::Closed);
        assert_eq!(p.b.state, TcpState::Closed);
    }

    #[test]
    fn fin_waits_for_send_queue() {
        let mut p = Pair::established();
        p.a.flow.peer_window = 4; // throttle
        let mut out = Vec::new();
        p.a.write(b"12345678", false, &mut out).unwrap();
        p.a.close_send(&mut out);
        // Only 4 bytes could go; FIN must not be out yet.
        assert!(out.iter().all(|s| !s.flags.fin));
        assert!(p.a.fin_pending);
        p.settle(out);
        assert!(p.b.recv.fin_reached());
        assert_eq!(p.b.recv.read(100), b"12345678");
    }

    #[test]
    fn write_after_shutdown_fails() {
        let mut p = Pair::established();
        let mut out = Vec::new();
        p.a.close_send(&mut out);
        assert_eq!(p.a.write(b"x", false, &mut out), Err(NetError::Pipe));
    }

    #[test]
    fn rst_resets() {
        let mut p = Pair::established();
        let mut out = Vec::new();
        p.a.abort(&mut out);
        assert_eq!(p.a.state, TcpState::Closed);
        let ev = p.b.input(&out[0], &mut Vec::new());
        assert!(ev.reset);
        assert_eq!(p.b.state, TcpState::Closed);
    }

    #[test]
    fn duplicate_synack_reacked() {
        let mut p = Pair::established();
        let synack = p.b.make_syn_ack();
        let mut out = Vec::new();
        let ev = p.a.input(&synack, &mut out);
        assert!(!ev.established, "already established");
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.ack && out[0].payload.is_empty());
    }

    #[test]
    fn stale_half_open_child_is_reset_by_new_incarnation() {
        let ea = Endpoint::new(10, 10, 0, 1, 1000);
        let eb = Endpoint::new(10, 10, 0, 2, 2000);
        // First dial: the peer's listener spawned a child from the SYN,
        // but its SYN+ACK was lost and the dialer gave up. The child is
        // now a stale half-open socket owning the 4-tuple.
        let _abandoned = Tcb::connect(ea, eb, 100, 1 << 16, 1 << 16, 1460, false);
        let mut child = Tcb::accept(eb, ea, 900, 100, 1 << 16, 1 << 16, 1460, false);
        assert_eq!(child.state, TcpState::SynRcvd);

        // Second dial on the same 4-tuple with a fresh ISS. The stale
        // child answers the new SYN with its obsolete SYN+ACK.
        let mut c2 = Tcb::connect(ea, eb, 5000, 1 << 16, 1 << 16, 1460, false);
        let mut out = Vec::new();
        child.input(&c2.make_syn(), &mut out);
        assert_eq!(out.len(), 1);
        let stale = out.remove(0);
        assert!(stale.flags.syn && stale.flags.ack);
        assert_eq!(stale.ack, 101, "acks the abandoned incarnation");

        // The new dialer must answer the unacceptable ACK with an RST
        // (RFC 793 SYN-SENT) instead of ignoring it forever.
        let ev = c2.input(&stale, &mut out);
        assert!(!ev.established);
        assert_eq!(c2.state, TcpState::SynSent);
        assert_eq!(out.len(), 1);
        let rst = out.remove(0);
        assert!(rst.flags.rst);
        assert_eq!(rst.seq, stale.ack);

        // The RST kills the stale child, freeing the 4-tuple so the
        // listener can answer the live SYN's retransmission.
        let ev = child.input(&rst, &mut out);
        assert!(ev.reset);
        assert_eq!(child.state, TcpState::Closed);
    }

    #[test]
    fn stale_incarnation_segments_leave_a_half_open_child_alone() {
        let ea = Endpoint::new(10, 10, 0, 1, 1000);
        let eb = Endpoint::new(10, 10, 0, 2, 2000);
        let mut child = Tcb::accept(eb, ea, 900, 100, 1 << 16, 1 << 16, 1460, false);
        let mut out = Vec::new();
        // A reset inside the window but not at rcv.nxt, and an ACK of
        // bytes the child never sent: both sequence numbers of an older
        // connection on the same 4-tuple.
        let mut rst = Segment::tcp(ea, eb, SegFlags::rst(), 101 + 500, 0);
        rst.flags.ack = true;
        assert!(!child.input(&rst, &mut out).reset);
        let stale_ack = Segment::tcp(ea, eb, SegFlags::ack(), 101, 901 + 777);
        assert!(!child.input(&stale_ack, &mut out).established);
        assert_eq!(child.state, TcpState::SynRcvd);
        // The live handshake still completes.
        let ack = Segment::tcp(ea, eb, SegFlags::ack(), 101, 901);
        assert!(child.input(&ack, &mut out).established);
    }

    #[test]
    fn conn_state_mapping() {
        let p = Pair::established();
        assert_eq!(p.a.conn_state(), ConnState::FullDuplex);
        let ea = Endpoint::new(10, 10, 0, 1, 1);
        let eb = Endpoint::new(10, 10, 0, 2, 2);
        let t = Tcb::connect(ea, eb, 1, 16, 16, 1460, false);
        assert_eq!(t.conn_state(), ConnState::Connecting);
    }

    #[test]
    fn out_of_order_delivery_reassembles() {
        let mut p = Pair::established();
        p.a.mss = 4;
        let mut out = Vec::new();
        p.a.write(b"abcdefgh", false, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        // Deliver in reverse order.
        out.reverse();
        let acks = Pair::deliver(&mut p.b, out);
        assert_eq!(p.b.recv.read(100), b"abcdefgh");
        // Both the dup-ack (gap signal) and the final ack exist.
        assert!(acks.len() >= 2);
        Pair::deliver(&mut p.a, acks);
        assert_eq!(p.a.send.unacked(), 0);
    }

    #[test]
    fn randomized_bidirectional_traffic_with_loss() {
        // Deterministic pseudo-random write/lose/retransmit interleavings:
        // both directions must deliver exact streams.
        for seed in 0..40u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9) | 1;
            let mut rand = move |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            };
            let mut p = Pair::established();
            p.a.mss = 16;
            p.b.mss = 16;
            let mut sent_a: Vec<u8> = Vec::new();
            let mut sent_b: Vec<u8> = Vec::new();
            let mut got_a: Vec<u8> = Vec::new();
            let mut got_b: Vec<u8> = Vec::new();
            for _ in 0..30 {
                let mut out = Vec::new();
                match rand(4) {
                    0 => {
                        let len = 1 + rand(80) as usize;
                        let data: Vec<u8> = (0..len).map(|i| (i as u64 ^ seed) as u8).collect();
                        if p.a.write(&data, false, &mut out).is_ok() {
                            sent_a.extend(&data);
                        }
                    }
                    1 => {
                        let len = 1 + rand(80) as usize;
                        let data: Vec<u8> = (0..len).map(|i| (i as u64 ^ !seed) as u8).collect();
                        if p.b.write(&data, false, &mut out).is_ok() {
                            sent_b.extend(&data);
                        }
                    }
                    2 => {
                        // Retransmission timers on both sides.
                        p.a.on_rtx_timer(&mut out);
                        p.b.on_rtx_timer(&mut out);
                    }
                    _ => {}
                }
                // Lose a random subset of the segments; deliver the rest,
                // possibly reordered.
                let mut keep: Vec<Segment> =
                    out.into_iter().filter(|_| rand(4) != 0).collect();
                if keep.len() > 1 && rand(2) == 0 {
                    keep.reverse();
                }
                p.settle(keep);
                got_b.extend(p.b.recv.read(usize::MAX));
                got_a.extend(p.a.recv.read(usize::MAX));
            }
            // Flush: run timers until everything is delivered.
            for _ in 0..200 {
                if got_b.len() == sent_a.len() && got_a.len() == sent_b.len() {
                    break;
                }
                let mut out = Vec::new();
                p.a.on_rtx_timer(&mut out);
                p.b.on_rtx_timer(&mut out);
                p.settle(out);
                got_b.extend(p.b.recv.read(usize::MAX));
                got_a.extend(p.a.recv.read(usize::MAX));
            }
            assert_eq!(got_b, sent_a, "seed {seed}: a to b stream");
            assert_eq!(got_a, sent_b, "seed {seed}: b to a stream");
        }
    }

    #[test]
    fn zero_window_is_honest_and_probed() {
        let mut p = Pair::established();
        // The peer advertised a closed window: nothing may be pushed.
        p.a.flow.peer_window = 0;
        let mut out = Vec::new();
        p.a.write(b"abc", false, &mut out).unwrap();
        assert!(out.is_empty(), "no data into a closed window — no max(1) trickle");
        assert!(p.a.needs_rtx(), "persist timer must stay armed");
        // Persist timer probes; b's re-ack advertises its real (open)
        // window, which un-sticks the sender.
        for _ in 0..4 {
            let mut rtx = Vec::new();
            p.a.on_rtx_timer(&mut rtx);
            p.settle(rtx);
        }
        assert_eq!(p.b.recv.read(100), b"abc");
        assert!(p.a.flow.zero_window_probes >= 1, "probe was counted");
        assert_eq!(p.a.send.unacked(), 0);
    }

    #[test]
    fn receiver_full_window_stalls_then_reopens() {
        // End-to-end honest flow control: a genuinely full receiver.
        let ea = Endpoint::new(10, 10, 0, 1, 1000);
        let eb = Endpoint::new(10, 10, 0, 2, 2000);
        let mut a = Tcb::connect(ea, eb, 100, 1 << 16, 1 << 16, 4, false);
        let mut b = Tcb::accept(eb, ea, 900, 100, 1 << 16, 8, 4, false); // tiny RCVBUF
        let mut out = Vec::new();
        let ev = a.input(&b.make_syn_ack(), &mut out);
        assert!(ev.established);
        b.input(&out.remove(0), &mut Vec::new());
        let mut p = Pair { a, b };

        let mut out = Vec::new();
        p.a.write(b"0123456789abcdef", false, &mut out).unwrap();
        p.settle(out);
        // b accepted at most its buffer; a saw the window close.
        assert_eq!(p.b.recv.readable(), 8);
        assert!(p.a.flow.is_zero(), "window 0 stored verbatim");
        assert!(p.a.flow.zero_window_events >= 1);
        // Retransmissions while b stays full are trimmed, not absorbed.
        let mut rtx = Vec::new();
        p.a.on_rtx_timer(&mut rtx);
        assert_eq!(rtx.len(), 1);
        p.settle(rtx);
        assert_eq!(p.b.recv.readable(), 8, "retransmission trimmed by full window");
        // The application drains; probes now make progress.
        assert_eq!(p.b.recv.read(100).len(), 8);
        for _ in 0..12 {
            let mut rtx = Vec::new();
            p.a.on_rtx_timer(&mut rtx);
            p.settle(rtx);
            if p.a.send.unacked() == 0 && p.a.send.unsent() == 0 {
                break;
            }
        }
        assert_eq!(p.b.recv.read(100), b"89abcdef");
        assert_eq!(p.a.send.unacked() + p.a.send.unsent(), 0);
    }

    #[test]
    fn three_dup_acks_fast_retransmit() {
        let mut p = Pair::established();
        p.a.mss = 4;
        p.b.mss = 4;
        let mut out = Vec::new();
        p.a.write(b"aaaabbbbccccdddd", false, &mut out).unwrap();
        assert_eq!(out.len(), 4);
        // First segment is lost; the rest arrive and generate dup acks.
        let lost = out.remove(0);
        let dup_acks = Pair::deliver(&mut p.b, out);
        assert!(dup_acks.len() >= 3);
        assert!(dup_acks.iter().all(|s| s.ack == lost.seq), "all acks point at the hole");
        let mut rtx = Vec::new();
        for da in dup_acks {
            p.a.input(&da, &mut rtx);
        }
        // The third dup ack triggered exactly one fast retransmit of the
        // missing segment.
        assert_eq!(p.a.cc.fast_retransmits, 1);
        assert!(p.a.cc.in_recovery());
        assert!(!rtx.is_empty());
        assert_eq!(rtx[0].seq, lost.seq);
        assert_eq!(rtx[0].payload, lost.payload);
        p.settle(rtx);
        assert_eq!(p.b.recv.read(100), b"aaaabbbbccccdddd");
        assert!(!p.a.cc.in_recovery(), "full ack exits recovery");
    }

    #[test]
    fn congestion_window_grows_with_acks() {
        let mut p = Pair::established();
        p.a.mss = 4;
        p.b.mss = 4;
        let start = p.a.cc.window();
        let mut out = Vec::new();
        p.a.write(&[5u8; 64], false, &mut out).unwrap();
        p.settle(out);
        assert_eq!(p.b.recv.read(100).len(), 64);
        assert!(p.a.cc.window() > start, "slow start grew the window");
    }

    #[test]
    fn rto_collapses_congestion_window() {
        let mut p = Pair::established();
        p.a.mss = 4;
        let mut out = Vec::new();
        p.a.write(b"aaaabbbb", false, &mut out).unwrap();
        out.clear(); // the wire ate everything
        let mut rtx = Vec::new();
        assert!(p.a.on_rtx_timer(&mut rtx));
        assert_eq!(p.a.cc.window(), 4, "cwnd collapsed to one mss");
        assert_eq!(p.a.cc.rto_events, 1);
        p.settle(rtx);
        // Recovery proceeds segment by segment via further timeouts/acks.
        for _ in 0..8 {
            let mut rtx = Vec::new();
            p.a.on_rtx_timer(&mut rtx);
            p.settle(rtx);
        }
        assert_eq!(p.b.recv.read(100), b"aaaabbbb");
    }

    #[test]
    fn cc_extract_round_trips() {
        let mut p = Pair::established();
        p.a.mss = 4;
        let mut out = Vec::new();
        p.a.write(b"aaaabbbbcccc", false, &mut out).unwrap();
        let _ = Pair::deliver(&mut p.b, out.split_off(1)); // make dup-ack state
        p.a.flow.peer_window = 0;
        p.a.flow.zero_window_events = 3;
        p.a.flow.zero_window_probes = 7;
        p.a.cc.recover = Some(p.a.send.una() + 8);
        p.a.rtx_backoff = 5;
        let e = p.a.cc_extract();
        assert_eq!(e.recover_off, Some(8));
        assert_eq!(e.peer_window, 0);

        // Apply onto a fresh TCB (new incarnation, different ISN).
        let mut q = Pair::established();
        q.a.mss = 4;
        q.a.cc_apply(&e);
        assert_eq!(q.a.cc.cwnd, p.a.cc.cwnd);
        assert_eq!(q.a.cc.ssthresh, p.a.cc.ssthresh);
        assert_eq!(q.a.cc.recover, Some(q.a.send.una() + 8));
        assert!(q.a.flow.is_zero(), "zero-window stall survives restart");
        assert_eq!(q.a.flow.zero_window_probes, 7);
        assert_eq!(q.a.rtx_backoff, 5);
        // Byte-exact: re-extracting yields the same record.
        assert_eq!(q.a.cc_extract(), e);
    }

    #[test]
    fn window_update_is_not_a_dup_ack() {
        let mut p = Pair::established();
        p.a.mss = 4;
        let mut out = Vec::new();
        p.a.write(b"aaaabbbb", false, &mut out).unwrap();
        out.clear(); // lost — unacked data outstanding
        // A pure window update (same ack, new window) must not count
        // toward fast retransmit.
        let mut upd = p.b.make_ack();
        for w in [100u32, 200, 300, 400] {
            upd.window = w;
            p.a.input(&upd, &mut Vec::new());
        }
        assert_eq!(p.a.cc.dup_acks, 0);
        assert_eq!(p.a.cc.fast_retransmits, 0);
        assert_eq!(p.a.flow.window(), 400, "window updates applied");
    }
}
