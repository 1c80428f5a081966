//! Property tests for the congestion/flow-controlled send path.
//!
//! Drives two [`Tcb`]s against a hostile in-memory wire — drop, reorder,
//! duplicate, and header corruption applied per segment from a generated
//! schedule — and proves the two invariants the checkpoint story rests on:
//!
//! 1. **Exactly-once delivery.** Whatever the wire does, the receiving
//!    application reads exactly the byte stream the sender wrote: no loss,
//!    no duplication, no reordering, no corruption leaking through.
//! 2. **Checkpoint cut anywhere.** Cutting the connection at an arbitrary
//!    round — while the sender may be in slow start, fast recovery, or a
//!    zero-window stall — then rebuilding from `pcb_extract` +
//!    `cc_extract` + the send-queue snapshot (with the §5 Figure 4 overlap
//!    discard) and replaying over a *fresh* connection still delivers the
//!    stream exactly once.
//!
//! Plus the component algebra: `CcExtract` round-trips through
//! `cc_apply`/`cc_extract` modulo its documented safety clamps, the send
//! buffer's retransmissions always replay bytes of the original stream at
//! their sequence position, and `resend_plan` is exactly the unacked
//! suffix.
//!
//! "Corruption" garbles the sequence/ack header into a far-future value —
//! the stack has no payload checksum (neither does the simulated wire), so
//! the detectable corruption class is exactly the out-of-window garbage
//! real TCP's acceptability test rejects.

use proptest::prelude::*;
use std::collections::VecDeque;
use zapc_net::buf::SendBuf;
use zapc_net::seg::{SegFlags, Segment};
use zapc_net::tcp::{CcExtract, Tcb};
use zapc_net::NetError;
use zapc_proto::Endpoint;

/// Small MSS so even short streams span many segments (more carve
/// boundaries, more congestion-window edges).
const MSS: usize = 100;
/// First data sequence number of the sender's stream (`iss + 1`).
const A_ISS: u64 = 1_000;
/// Hard cap on pump rounds before the harness declares a livelock.
const MAX_ROUNDS: usize = 60_000;

/// Deterministic pseudo-random payload.
fn stream_bytes(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(31).wrapping_add((i as u64).wrapping_mul(7)) % 251) as u8)
        .collect()
}

/// One wire-level mutation applied to a delivered segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tamper {
    /// Deliver faithfully.
    Keep,
    /// Lose the segment.
    Drop,
    /// Deliver it twice.
    Dup,
    /// Push it to the back of the queue (reordering).
    Delay,
    /// Garble the sequence/ack header far out of window.
    Corrupt,
}

fn tampers() -> impl Strategy<Value = Tamper> {
    (0u8..10).prop_map(|v| match v {
        0 | 1 => Tamper::Drop,
        2 => Tamper::Dup,
        3 | 4 => Tamper::Delay,
        5 => Tamper::Corrupt,
        _ => Tamper::Keep,
    })
}

/// A one-directional bulk transfer `a → b` over an in-memory wire with a
/// finite tampering schedule (faithful delivery once the schedule is
/// spent, so every run terminates).
struct Harness {
    a: Tcb,
    b: Tcb,
    to_b: VecDeque<Segment>,
    to_a: VecDeque<Segment>,
    /// Bytes the receiving application has read, in order.
    delivered: Vec<u8>,
    /// Bytes of the stream accepted into the sender's send buffer.
    written: usize,
    /// Sender has requested close (FIN queued after the stream).
    closed: bool,
    /// Cursor into the tampering schedule.
    ti: usize,
}

impl Harness {
    /// Full handshake between fresh TCBs: `a` is the sender (send buffer
    /// `snd_buf`), `b` the receiver (receive buffer `rcv_buf` — small
    /// values force honest zero-window stalls).
    fn established(snd_buf: usize, rcv_buf: usize) -> Harness {
        let ea = Endpoint::new(10, 10, 0, 1, 4321);
        let eb = Endpoint::new(10, 10, 0, 2, 7100);
        let mut a = Tcb::connect(ea, eb, A_ISS - 1, snd_buf, 1 << 16, MSS, false);
        let mut b = Tcb::accept(eb, ea, 9_000, A_ISS - 1, 1 << 16, rcv_buf, MSS, false);
        let mut out = Vec::new();
        let synack = b.make_syn_ack();
        let ev = a.input(&synack, &mut out);
        assert!(ev.established, "handshake: SYN+ACK must establish the connector");
        let ack = out.remove(0);
        let ev = b.input(&ack, &mut out);
        assert!(ev.established, "handshake: final ACK must establish the acceptor");
        assert!(out.is_empty());
        Harness {
            a,
            b,
            to_b: VecDeque::new(),
            to_a: VecDeque::new(),
            delivered: Vec::new(),
            written: 0,
            closed: false,
            ti: 0,
        }
    }

    /// Pops one segment off `from`, applies the scheduled mutation, and
    /// feeds it to `to`; responses go on `reply`.
    fn deliver_one(
        from: &mut VecDeque<Segment>,
        to: &mut Tcb,
        reply: &mut VecDeque<Segment>,
        plan: &[Tamper],
        ti: &mut usize,
    ) {
        let Some(mut seg) = from.pop_front() else { return };
        let t = plan.get(*ti).copied().unwrap_or(Tamper::Keep);
        *ti += 1;
        let mut out = Vec::new();
        match t {
            Tamper::Drop => return,
            Tamper::Delay => {
                from.push_back(seg);
                return;
            }
            Tamper::Dup => {
                to.input(&seg.clone(), &mut out);
                to.input(&seg, &mut out);
            }
            Tamper::Corrupt => {
                // Out-of-window garbage: a stale incarnation of the
                // 4-tuple, or a corrupted header. The acceptability tests
                // must ignore the payload and never "ack" unsent data.
                seg.seq = seg.seq.wrapping_add(1 << 40);
                seg.ack = seg.ack.wrapping_add(1 << 40);
                to.input(&seg, &mut out);
            }
            Tamper::Keep => {
                to.input(&seg, &mut out);
            }
        }
        reply.extend(out);
    }

    /// True once the whole stream (and the FIN after it) is through.
    fn done(&self, stream_len: usize) -> bool {
        self.written == stream_len
            && self.closed
            && self.delivered.len() == stream_len
            && self.b.recv.at_eof()
            && self.a.fin_acked
    }

    /// One scheduler round: writer, one delivery each way, reader, and —
    /// only when the wire is idle — the retransmission/persist timers.
    /// Returns `true` when the transfer has fully completed.
    fn round(&mut self, stream: &[u8], plan: &[Tamper], read_limit: usize) -> bool {
        if self.written < stream.len() {
            let mut out = Vec::new();
            match self.a.write(&stream[self.written..], false, &mut out) {
                Ok(n) => self.written += n,
                Err(NetError::WouldBlock) => {}
                Err(e) => panic!("sender write failed: {e:?}"),
            }
            self.to_b.extend(out);
        } else if !self.closed {
            let mut out = Vec::new();
            self.a.close_send(&mut out);
            self.to_b.extend(out);
            self.closed = true;
        }

        Harness::deliver_one(&mut self.to_b, &mut self.b, &mut self.to_a, plan, &mut self.ti);
        Harness::deliver_one(&mut self.to_a, &mut self.a, &mut self.to_b, plan, &mut self.ti);

        self.delivered.extend(self.b.recv.read(read_limit.max(1)));

        if self.to_b.is_empty() && self.to_a.is_empty() {
            self.delivered.extend(self.b.recv.read(usize::MAX));
            if self.done(stream.len()) {
                return true;
            }
            // Idle wire with work outstanding: the RTO / persist timer is
            // the only thing that can make progress (lost segment, lost
            // ack, zero-window stall, lost FIN).
            let mut out = Vec::new();
            if self.a.needs_rtx() {
                self.a.on_rtx_timer(&mut out);
                self.to_b.extend(out.drain(..));
            }
            if self.b.needs_rtx() {
                self.b.on_rtx_timer(&mut out);
                self.to_a.extend(out);
            }
        }
        false
    }

    /// Pumps rounds until the transfer completes; panics on livelock.
    fn run(&mut self, stream: &[u8], plan: &[Tamper], read_limit: usize) {
        for _ in 0..MAX_ROUNDS {
            if self.round(stream, plan, read_limit) {
                return;
            }
        }
        panic!(
            "transfer did not converge: delivered {}/{} written {} closed {} \
             cwnd {} peer_window {} unacked {} unsent {}",
            self.delivered.len(),
            stream.len(),
            self.written,
            self.closed,
            self.a.cc.cwnd,
            self.a.flow.peer_window,
            self.a.send.unacked(),
            self.a.send.unsent(),
        );
    }
}

/// Regression: a garbage FIN with a far-future sequence (stale
/// incarnation or corrupted header) must be ignored by the acceptability
/// test *before* the FIN sequence is recorded — otherwise it poisons
/// `fin_seq` with a value the stream can never reach and the genuine FIN
/// can no longer complete the stream.
#[test]
fn garbage_fin_cannot_poison_the_stream_end() {
    let mut h = Harness::established(4096, 512);
    let stream = stream_bytes(300, 42);
    h.run(&stream, &[], usize::MAX);
    assert_eq!(h.delivered, stream);

    let mut h = Harness::established(4096, 512);
    let mut out = Vec::new();
    assert_eq!(h.a.write(&stream, false, &mut out).unwrap(), 300);
    // Deliver the data faithfully...
    for seg in out.drain(..) {
        h.b.input(&seg, &mut Vec::new());
    }
    // ...then a corrupted FIN from nowhere...
    let mut evil = Segment::tcp(
        h.a.local,
        h.a.remote,
        SegFlags::ack(),
        h.a.send.nxt().wrapping_add(1 << 40),
        h.b.send.nxt(),
    );
    evil.flags.fin = true;
    h.b.input(&evil, &mut Vec::new());
    // ...then close for real. The genuine FIN must still end the stream.
    h.a.close_send(&mut out);
    for seg in out {
        h.b.input(&seg, &mut Vec::new());
    }
    assert_eq!(h.b.recv.read(usize::MAX), stream);
    assert!(h.b.recv.at_eof(), "genuine FIN must complete the stream despite the garbage FIN");
}

proptest! {
    /// Exactly-once delivery: whatever combination of loss, duplication,
    /// reordering, and header corruption the wire inflicts — on data,
    /// acks, and the FIN alike — the receiver reads precisely the bytes
    /// the sender wrote. Small receive buffers and a throttled reader
    /// push the transfer through genuine zero-window stalls; drops push
    /// it through fast retransmit and RTO recovery.
    #[test]
    fn stream_survives_drop_reorder_dup_and_corruption(
        len in 256usize..2048,
        seed in any::<u64>(),
        plan in proptest::collection::vec(tampers(), 0..160),
        rcv_buf in 128usize..1024,
        read_limit in 1usize..96,
    ) {
        let stream = stream_bytes(len, seed);
        let mut h = Harness::established(4096, rcv_buf);
        h.run(&stream, &plan, read_limit);
        prop_assert_eq!(&h.delivered, &stream);
    }

    /// Checkpoint cut at an arbitrary round: capture the sender's
    /// PCB + congestion extract + send-queue snapshot and the receiver's
    /// drained in-order queue, lose every in-flight segment, rebuild both
    /// ends on a *fresh* connection (new ISNs), apply the congestion
    /// extract, resend per the §5 overlap-discard plan, and finish the
    /// transfer. The application-visible stream must still be exact —
    /// regardless of whether the cut landed in slow start, mid
    /// fast-recovery, or inside a zero-window stall (the tampering
    /// schedule plus tiny receive windows make all three regimes common).
    #[test]
    fn checkpoint_cut_at_any_point_preserves_exactly_once(
        len in 256usize..1024,
        seed in any::<u64>(),
        plan in proptest::collection::vec(tampers(), 0..100),
        rcv_buf in 128usize..768,
        read_limit in 1usize..64,
        cut_round in 0usize..400,
    ) {
        let stream = stream_bytes(len, seed);
        let mut h = Harness::established(2048, rcv_buf);
        let mut finished = false;
        for _ in 0..cut_round {
            if h.round(&stream, &plan, read_limit) {
                finished = true;
                break;
            }
        }

        // ---- the cut: extract state, drop the wire ----
        let cc = h.a.cc_extract();
        let snap = h.a.send.snapshot();
        let written = h.written;
        let ti_at_cut = h.ti;
        // The receiver's in-order queue is captured and reinjected (§5);
        // in this model the application simply reads it at the cut. The
        // out-of-order backlog is discarded — it is provably redundant
        // with the peer's send queue under cumulative acks.
        let mut delivered_pre = h.delivered;
        delivered_pre.extend(h.b.recv.read(usize::MAX));
        let fin_units = u64::from(h.b.recv.fin_reached());
        let peer_recv = h.b.recv.nxt() - fin_units;
        let peer_off = (peer_recv - A_ISS) as usize;
        // Everything the receiver accepted in order is app-visible.
        prop_assert_eq!(delivered_pre.len(), peer_off);
        // In-flight segments die with the cut (h dropped here).

        // ---- restore: fresh connection, new ISNs ----
        // The overlap discard (Figure 4): the peer holds `recv₂ − acked₁`
        // bytes beyond our acked pointer; don't resend those.
        let runs = snap.resend_plan(peer_recv - snap.una);
        prop_assert!(runs.len() <= 1 && runs.iter().all(|(urgent, _)| !urgent));
        let resend = runs.into_iter().next().map(|(_, b)| b).unwrap_or_default();
        prop_assert_eq!(resend.as_slice(), &stream[peer_off..written]);

        let mut h2 = Harness::established(2048, rcv_buf);
        h2.a.cc_apply(&cc);
        // The clamps keep a hostile/degenerate extract from stalling the
        // restored sender forever.
        prop_assert!(h2.a.cc.cwnd >= MSS as u64);
        prop_assert!(h2.a.cc.ssthresh >= 2 * MSS as u64);

        // Replay = resend plan + the never-written tail, under the
        // remainder of the tampering schedule.
        let replay = &stream[peer_off..];
        let plan_rest = &plan[ti_at_cut.min(plan.len())..];
        if finished {
            prop_assert_eq!(&delivered_pre, &stream);
        }
        h2.run(replay, plan_rest, read_limit);

        let mut total = delivered_pre;
        total.extend_from_slice(&h2.delivered);
        prop_assert_eq!(&total, &stream);
    }

    /// `cc_apply` ∘ `cc_extract` is the identity modulo the documented
    /// safety clamps: the congestion window never restores below one MSS,
    /// the slow-start threshold never below two, and everything else —
    /// including a genuine zero `peer_window` and the monotonic
    /// observability counters — round-trips verbatim.
    #[test]
    fn cc_extract_apply_round_trips_with_clamps(
        cwnd in 0u64..1 << 32,
        ssthresh in 0u64..1 << 32,
        dup_acks in 0u32..16,
        recover_off in proptest::option::of(0u64..1 << 32),
        peer_window in 0u64..1 << 24,
        rtx_backoff in 0u32..20,
        fast_retransmits in 0u64..1 << 40,
        rto_events in 0u64..1 << 40,
        zero_window_events in 0u64..1 << 40,
        zero_window_probes in 0u64..1 << 40,
    ) {
        let e = CcExtract {
            cwnd,
            ssthresh,
            dup_acks,
            recover_off,
            peer_window,
            rtx_backoff,
            fast_retransmits,
            rto_events,
            zero_window_events,
            zero_window_probes,
        };
        let mut h = Harness::established(4096, 4096);
        h.a.cc_apply(&e);
        let back = h.a.cc_extract();
        prop_assert_eq!(back.cwnd, e.cwnd.max(MSS as u64));
        prop_assert_eq!(back.ssthresh, e.ssthresh.max(2 * MSS as u64));
        prop_assert_eq!(back.dup_acks, e.dup_acks);
        prop_assert_eq!(back.recover_off, e.recover_off);
        prop_assert_eq!(back.peer_window, e.peer_window);
        prop_assert_eq!(back.rtx_backoff, e.rtx_backoff);
        prop_assert_eq!(back.fast_retransmits, e.fast_retransmits);
        prop_assert_eq!(back.rto_events, e.rto_events);
        prop_assert_eq!(back.zero_window_events, e.zero_window_events);
        prop_assert_eq!(back.zero_window_probes, e.zero_window_probes);
    }

    /// Segment-queue invariant: no matter how the stream was carved
    /// (varying MSS per segment) or where cumulative acks land, a
    /// retransmission always starts exactly at `acked` and always replays
    /// bytes of the original stream at their sequence position — never a
    /// blind re-carve of the wrong data.
    #[test]
    fn retransmissions_always_replay_stream_bytes(
        len in 1usize..2048,
        seed in any::<u64>(),
        carve_mss in proptest::collection::vec(1usize..400, 1..32),
        acks in proptest::collection::vec(any::<u64>(), 1..32),
        window in 1u64..1 << 20,
    ) {
        let stream = stream_bytes(len, seed);
        const BASE: u64 = 50_000;
        let mut sb = SendBuf::new(BASE, 1 << 20);
        prop_assert_eq!(sb.write(&stream), len);

        let mut ci = 0usize;
        for &raw in &acks {
            // Carve a few segments with rotating MSS values.
            for _ in 0..4 {
                let mss = carve_mss[ci % carve_mss.len()];
                ci += 1;
                let Some((seq, data, _)) = sb.next_segment(mss, window) else { break };
                let off = (seq - BASE) as usize;
                prop_assert_eq!(&data[..], &stream[off..off + data.len()]);
            }
            // Cumulative ack somewhere in [una, nxt] (protocol-legal).
            let ack_to = sb.una() + raw % (sb.unacked() + 1);
            sb.on_ack(ack_to);
            if let Some((seq, data, _)) = sb.retransmit_segment(MSS) {
                // A retransmission always starts exactly at `acked`.
                prop_assert_eq!(seq, sb.una());
                let off = (seq - BASE) as usize;
                prop_assert_eq!(&data[..], &stream[off..off + data.len()]);
            } else {
                // Only a fully-acked flight has nothing to retransmit.
                prop_assert_eq!(sb.unacked(), 0);
            }
        }
    }

    /// `resend_plan` is exactly the unacked suffix of the stream after
    /// the overlap discard — the checkpoint-restore resend never omits a
    /// byte the peer lacks and never duplicates one it has.
    #[test]
    fn resend_plan_is_exactly_the_unacked_suffix(
        len in 0usize..1024,
        seed in any::<u64>(),
        ack_raw in any::<u64>(),
        discard_extra in 0u64..256,
    ) {
        let stream = stream_bytes(len, seed);
        const BASE: u64 = 9_000;
        let mut sb = SendBuf::new(BASE, 1 << 20);
        sb.write(&stream);
        while sb.next_segment(MSS, 1 << 20).is_some() {}
        let ack_to = BASE + ack_raw % (len as u64 + 1);
        sb.on_ack(ack_to);

        let snap = sb.snapshot();
        // The peer may have accepted `discard_extra` bytes beyond our
        // acked pointer (acks still in flight at the cut).
        let plan = snap.resend_plan(discard_extra);
        prop_assert!(plan.len() <= 1 && plan.iter().all(|(urgent, _)| !urgent));
        let normal = plan.into_iter().next().map(|(_, b)| b).unwrap_or_default();
        let start = ((ack_to - BASE) + discard_extra).min(len as u64) as usize;
        prop_assert_eq!(normal.as_slice(), &stream[start..]);
    }
}
