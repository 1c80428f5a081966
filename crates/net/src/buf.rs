//! Send/receive queue algebra for the reliable transport.
//!
//! [`SendBuf`] is the kernel send queue: it always holds the byte range
//! `[acked, written_end)` — the paper's observation that "a send queue
//! always holds data between `acked` and `sent`" (§5, Figure 4) extended
//! with any not-yet-transmitted tail. [`RecvBuf`] is the receive side:
//! an in-order queue the application reads from, a separate urgent
//! (out-of-band) queue, and the out-of-order **backlog** map holding
//! segments that arrived ahead of a gap.
//!
//! These structures are pure algebra — no locks, no wire — so the sequence
//! invariants the network checkpoint relies on can be unit- and
//! property-tested in isolation.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// The kernel send queue of one reliable-transport socket.
///
/// Besides the byte algebra, the buffer keeps a **segment queue** (the
/// LiteDT send-buffer idiom): every segment carved for transmission is
/// recorded by its sequence number, so retransmission re-sends the
/// *original* segment boundaries instead of re-carving blindly, and the
/// oldest outstanding segment is an O(log n) lookup for fast retransmit.
#[derive(Debug, Clone)]
pub struct SendBuf {
    /// `acked`: everything below this has been acknowledged by the peer.
    una: u64,
    /// `sent`: everything in `[una, nxt)` has been transmitted at least once.
    nxt: u64,
    /// End of written data: `[nxt, end)` is written but never transmitted.
    end: u64,
    /// Backing bytes for `[una, end)`.
    buf: VecDeque<u8>,
    /// Sequence ranges flagged urgent, ascending and disjoint.
    urgent_marks: VecDeque<(u64, u64)>,
    /// `SO_SNDBUF`: cap on `end - una`.
    limit: usize,
    /// In-flight segment queue: `seq → (len, urgent)` for every carved
    /// segment in `[una, nxt)`, in original transmission boundaries.
    segs: BTreeMap<u64, (u32, bool)>,
}

impl SendBuf {
    /// Creates an empty send buffer whose stream starts at `isn`.
    pub fn new(isn: u64, limit: usize) -> Self {
        SendBuf {
            una: isn,
            nxt: isn,
            end: isn,
            buf: VecDeque::new(),
            urgent_marks: VecDeque::new(),
            limit,
            segs: BTreeMap::new(),
        }
    }

    /// `acked` in the paper's terminology.
    pub fn una(&self) -> u64 {
        self.una
    }

    /// `sent` in the paper's terminology.
    pub fn nxt(&self) -> u64 {
        self.nxt
    }

    /// End of written data.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Bytes transmitted but not acknowledged.
    pub fn unacked(&self) -> u64 {
        self.nxt - self.una
    }

    /// Bytes written but never transmitted.
    pub fn unsent(&self) -> u64 {
        self.end - self.nxt
    }

    /// Total bytes held (`end - una`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Remaining writable capacity.
    pub fn room(&self) -> usize {
        self.limit.saturating_sub(self.buf.len())
    }

    /// Appends application data; returns the number of bytes accepted
    /// (bounded by `SO_SNDBUF`).
    pub fn write(&mut self, data: &[u8]) -> usize {
        let take = data.len().min(self.room());
        self.buf.extend(&data[..take]);
        self.end += take as u64;
        take
    }

    /// Appends urgent (out-of-band) data, recording the urgent mark.
    pub fn write_urgent(&mut self, data: &[u8]) -> usize {
        let start = self.end;
        let take = self.write(data);
        if take > 0 {
            // Coalesce with a directly preceding urgent mark.
            if let Some(last) = self.urgent_marks.back_mut() {
                if last.1 == start {
                    last.1 = start + take as u64;
                    return take;
                }
            }
            self.urgent_marks.push_back((start, start + take as u64));
        }
        take
    }

    /// Processes a cumulative acknowledgment; returns newly-acked byte count.
    pub fn on_ack(&mut self, ack: u64) -> u64 {
        if ack <= self.una {
            return 0;
        }
        let ack = ack.min(self.end);
        let n = ack - self.una;
        self.buf.drain(..n as usize);
        self.una = ack;
        if self.nxt < self.una {
            self.nxt = self.una;
        }
        // Drop fully-acked segment records; trim one straddling the ack.
        while let Some((&seq, &(len, urg))) = self.segs.iter().next() {
            let seg_end = seq + len as u64;
            if seg_end <= self.una {
                self.segs.remove(&seq);
            } else if seq < self.una {
                self.segs.remove(&seq);
                self.segs.insert(self.una, ((seg_end - self.una) as u32, urg));
                break;
            } else {
                break;
            }
        }
        while let Some(&(s, e)) = self.urgent_marks.front() {
            if e <= self.una {
                self.urgent_marks.pop_front();
            } else if s < self.una {
                self.urgent_marks[0] = (self.una, e);
                break;
            } else {
                break;
            }
        }
        n
    }

    /// Carves one segment starting at `from`, at most `mss` bytes, cut at
    /// urgent-mark boundaries so a segment is either wholly urgent or wholly
    /// normal. Returns `(seq, bytes, urgent)`.
    fn carve(&self, from: u64, mss: usize, upto: u64) -> Option<(u64, Vec<u8>, bool)> {
        if from >= upto {
            return None;
        }
        let mut limit = upto.min(from + mss as u64);
        let mut urgent = false;
        for &(s, e) in &self.urgent_marks {
            if from >= s && from < e {
                urgent = true;
                limit = limit.min(e);
                break;
            }
            if s > from {
                limit = limit.min(s);
                break;
            }
        }
        let off = (from - self.una) as usize;
        let len = (limit - from) as usize;
        let bytes: Vec<u8> = self.buf.iter().skip(off).take(len).copied().collect();
        Some((from, bytes, urgent))
    }

    /// Takes the next untransmitted segment (advancing `sent`), respecting
    /// the peer's advertised window (`peer_window` counts from `una`).
    /// The carved segment is recorded in the in-flight segment queue.
    pub fn next_segment(&mut self, mss: usize, peer_window: u64) -> Option<(u64, Vec<u8>, bool)> {
        let window_end = self.una.saturating_add(peer_window);
        let upto = self.end.min(window_end);
        let seg = self.carve(self.nxt, mss, upto)?;
        if seg.1.is_empty() {
            return None;
        }
        self.segs.insert(seg.0, (seg.1.len() as u32, seg.2));
        self.nxt += seg.1.len() as u64;
        Some(seg)
    }

    /// Re-sends the oldest unacknowledged segment without moving `sent`
    /// (retransmission path). When the segment queue has a record at
    /// `una` the *original* transmission boundaries are replayed; after a
    /// checkpoint restore (empty queue) it re-carves from `una`.
    pub fn retransmit_segment(&mut self, mss: usize) -> Option<(u64, Vec<u8>, bool)> {
        if let Some((&seq, &(len, _))) = self.segs.range(self.una..).next() {
            if seq == self.una {
                let seg = self.carve(seq, len as usize, seq + len as u64)?;
                if !seg.1.is_empty() {
                    return Some(seg);
                }
            }
        }
        let seg = self.carve(self.una, mss, self.nxt)?;
        if seg.1.is_empty() {
            return None;
        }
        Some(seg)
    }

    /// Carves a one-byte **zero-window probe** at `sent` without advancing
    /// it: the persist timer sends this byte into a closed window. The
    /// receiver either trims it (window still closed — its re-ack carries a
    /// fresh window) or accepts it (window opened — the ack advances past
    /// `sent` and [`SendBuf::on_ack`] pulls `sent` forward).
    pub fn probe_segment(&self) -> Option<(u64, Vec<u8>, bool)> {
        let seg = self.carve(self.nxt, 1, self.end)?;
        if seg.1.is_empty() {
            return None;
        }
        Some(seg)
    }

    /// Number of recorded in-flight segments.
    pub fn flight_segments(&self) -> usize {
        self.segs.len()
    }

    /// Checkpoint extraction: the full send-queue contents `[una, end)` and
    /// the urgent marks, via direct in-kernel access (§5: "the send queue is
    /// well organized … reading its contents directly from the socket
    /// buffers remains a simple and portable operation").
    pub fn snapshot(&self) -> SendSnapshot {
        let (head, tail) = self.buf.as_slices();
        SendSnapshot {
            una: self.una,
            nxt: self.nxt,
            data: [head, tail].concat(),
            urgent_marks: self.urgent_marks.iter().copied().collect(),
        }
    }
}

/// Checkpoint view of a send queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendSnapshot {
    /// `acked` sequence number.
    pub una: u64,
    /// `sent` sequence number.
    pub nxt: u64,
    /// Bytes `[una, una + data.len())`.
    pub data: Vec<u8>,
    /// Urgent ranges within the data.
    pub urgent_marks: Vec<(u64, u64)>,
}

impl SendSnapshot {
    /// The queue left after discarding its first `discard` bytes (the
    /// receive-queue overlap fix of §5, Figure 4), as `(urgent, bytes)`
    /// runs in stream order: replaying them in turn — `send_oob` for an
    /// urgent run, `send` otherwise — rebuilds the stream byte for byte.
    /// Adjacent runs differ in urgency; a queue without urgent data is at
    /// most one normal run.
    ///
    /// Total for *any* input: restore feeds this sequence numbers and
    /// urgent marks decoded from a checkpoint image, so marks are clamped
    /// into the data span and all arithmetic is done in offset space —
    /// a hostile image degrades to a shorter plan, never to a panic.
    pub fn resend_plan(&self, discard: u64) -> Vec<(bool, Vec<u8>)> {
        let len = self.data.len() as u64;
        // Offsets relative to `una`, clamped to the actual data; empty or
        // inverted marks vanish.
        let mut marks: Vec<(u64, u64)> = self
            .urgent_marks
            .iter()
            .map(|&(s, e)| (s.saturating_sub(self.una).min(len), e.saturating_sub(self.una).min(len)))
            .filter(|&(s, e)| s < e)
            .collect();
        marks.sort_unstable();
        let mut runs: Vec<(bool, Vec<u8>)> = Vec::new();
        let mut pos = discard.min(len);
        while pos < len {
            let mut stop = len;
            let mut urg = false;
            for &(s, e) in &marks {
                if pos >= s && pos < e {
                    urg = true;
                    stop = stop.min(e);
                    break;
                }
                if s > pos {
                    stop = stop.min(s);
                    break;
                }
            }
            let run = &self.data[pos as usize..stop as usize];
            match runs.last_mut() {
                Some((u, bytes)) if *u == urg => bytes.extend_from_slice(run),
                _ => runs.push((urg, run.to_vec())),
            }
            pos = stop;
        }
        runs
    }
}

/// Outcome of pushing one data segment into a [`RecvBuf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InputResult {
    /// Bytes that became readable (normal stream).
    pub newly_readable: usize,
    /// Bytes that went to the urgent queue.
    pub newly_urgent: usize,
    /// Whether an acknowledgment should be generated.
    pub ack_needed: bool,
    /// The stream's FIN was consumed by this input.
    pub fin_reached: bool,
    /// Bytes dropped because they exceeded the advertised receive window
    /// (the sender must retransmit them once the window re-opens).
    pub window_trimmed: usize,
}

/// The receive side of one reliable-transport socket.
#[derive(Debug, Clone)]
pub struct RecvBuf {
    /// `recv`: next expected sequence number.
    nxt: u64,
    /// In-order data the application has not read yet.
    in_order: VecDeque<u8>,
    /// Out-of-band queue (urgent data, when not `SO_OOBINLINE`).
    urgent: VecDeque<u8>,
    /// Backlog: out-of-order segments keyed by sequence number.
    ooo: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Sequence number of the FIN control unit, once seen.
    fin_seq: Option<u64>,
    /// FIN consumed: stream is complete.
    fin_reached: bool,
    /// `SO_RCVBUF` cap on in-order data held.
    limit: usize,
    /// Deliver urgent data inline (`SO_OOBINLINE`).
    oob_inline: bool,
    /// Application has peeked at the queue (must be preserved on restore
    /// even for unreliable transports, §5).
    peeked: bool,
}

impl RecvBuf {
    /// Creates a receive buffer expecting first byte `irs`.
    pub fn new(irs: u64, limit: usize, oob_inline: bool) -> Self {
        RecvBuf {
            nxt: irs,
            in_order: VecDeque::new(),
            urgent: VecDeque::new(),
            ooo: BTreeMap::new(),
            fin_seq: None,
            fin_reached: false,
            limit,
            oob_inline,
            peeked: false,
        }
    }

    /// `recv` in the paper's terminology.
    pub fn nxt(&self) -> u64 {
        self.nxt
    }

    /// Bytes readable by the application right now.
    pub fn readable(&self) -> usize {
        self.in_order.len()
    }

    /// Bytes in the urgent queue.
    pub fn urgent_len(&self) -> usize {
        self.urgent.len()
    }

    /// Number of backlog (out-of-order) segments held.
    pub fn backlog_segments(&self) -> usize {
        self.ooo.len()
    }

    /// Total backlog bytes.
    pub fn backlog_bytes(&self) -> usize {
        self.ooo.values().map(|(d, _)| d.len()).sum()
    }

    /// Advertised receive window.
    pub fn window(&self) -> u64 {
        self.limit.saturating_sub(self.in_order.len()) as u64
    }

    /// True once the FIN has been consumed and all data read.
    pub fn at_eof(&self) -> bool {
        self.fin_reached && self.in_order.is_empty()
    }

    /// Whether the remote has finished sending (FIN consumed).
    pub fn fin_reached(&self) -> bool {
        self.fin_reached
    }

    /// Whether the application ever peeked at this queue.
    pub fn was_peeked(&self) -> bool {
        self.peeked
    }

    /// Changes urgent-data delivery (tracks `SO_OOBINLINE` updates).
    pub fn set_oob_inline(&mut self, inline: bool) {
        self.oob_inline = inline;
    }

    fn route(&mut self, data: &[u8], urg: bool) -> (usize, usize) {
        if urg && !self.oob_inline {
            self.urgent.extend(data);
            (0, data.len())
        } else {
            self.in_order.extend(data);
            (data.len(), 0)
        }
    }

    /// Processes one data/FIN segment.
    pub fn input(&mut self, seq: u64, data: &[u8], urg: bool, fin: bool) -> InputResult {
        let mut res = InputResult::default();
        // Data far beyond the receive window can only be stale-incarnation
        // garbage; ignore it entirely (real TCP's acceptability test). This
        // must precede FIN recording: a garbage FIN would otherwise poison
        // `fin_seq` with a far-future sequence the stream can never reach.
        if seq > self.nxt + self.limit as u64 {
            return res;
        }
        if fin {
            let fs = seq + data.len() as u64;
            // A retransmitted FIN must agree with the recorded one.
            self.fin_seq.get_or_insert(fs);
        }
        let mut seq = seq;
        let mut data = data;
        // Trim the portion we already have.
        if seq < self.nxt {
            let skip = (self.nxt - seq).min(data.len() as u64) as usize;
            data = &data[skip..];
            seq += skip as u64;
            res.ack_needed = true; // duplicate: re-ack so the peer advances
        }
        if !data.is_empty() {
            if seq == self.nxt {
                // Honest flow control: accept only what fits the window we
                // last advertised; the excess is dropped and the re-ack
                // (carrying the current, possibly zero, window) tells the
                // sender to hold off. A zero-window probe byte lands here
                // and is trimmed in full while the window stays closed.
                let take = (data.len() as u64).min(self.window()) as usize;
                res.window_trimmed += data.len() - take;
                let data = &data[..take];
                let (r, u) = self.route(data, urg);
                res.newly_readable += r;
                res.newly_urgent += u;
                self.nxt += data.len() as u64;
                res.ack_needed = true;
                self.drain_backlog(&mut res);
            } else {
                // Beyond the expected point: backlog it (bounded dedup — an
                // identical-or-shorter duplicate is dropped).
                let keep = match self.ooo.get(&seq) {
                    Some((existing, _)) => existing.len() < data.len(),
                    None => true,
                };
                if keep {
                    self.ooo.insert(seq, (data.to_vec(), urg));
                }
                res.ack_needed = true; // duplicate ack signals the gap
            }
        }
        self.check_fin(&mut res);
        res
    }

    fn drain_backlog(&mut self, res: &mut InputResult) {
        while let Some((&seq, _)) = self.ooo.range(..=self.nxt).next() {
            let (mut d, urg) = self.ooo.remove(&seq).expect("key exists");
            if seq + (d.len() as u64) <= self.nxt {
                continue; // entirely stale
            }
            if seq < self.nxt {
                d.drain(..(self.nxt - seq) as usize);
            }
            let (r, u) = self.route(&d, urg);
            res.newly_readable += r;
            res.newly_urgent += u;
            self.nxt += d.len() as u64;
        }
    }

    fn check_fin(&mut self, res: &mut InputResult) {
        if !self.fin_reached && self.fin_seq == Some(self.nxt) {
            self.fin_reached = true;
            self.nxt += 1; // FIN occupies one sequence unit
            res.fin_reached = true;
            res.ack_needed = true;
        }
    }

    /// Reads up to `n` bytes from the normal stream.
    pub fn read(&mut self, n: usize) -> Vec<u8> {
        let take = n.min(self.in_order.len());
        self.in_order.drain(..take).collect()
    }

    /// Peeks at up to `n` bytes without consuming (`MSG_PEEK`). Note that a
    /// peek sees only the in-order queue — never urgent data or the
    /// out-of-order backlog, which is exactly why a peek-based network
    /// checkpoint is incomplete (§5).
    pub fn peek(&mut self, n: usize) -> Vec<u8> {
        self.peeked = true;
        self.in_order.iter().take(n).copied().collect()
    }

    /// Peeks at up to `n` bytes of urgent data without consuming
    /// (`MSG_OOB | MSG_PEEK`).
    pub fn peek_urgent(&self, n: usize) -> Vec<u8> {
        self.urgent.iter().take(n).copied().collect()
    }

    /// Reads up to `n` bytes of urgent data (`MSG_OOB`).
    pub fn read_urgent(&mut self, n: usize) -> Vec<u8> {
        let take = n.min(self.urgent.len());
        self.urgent.drain(..take).collect()
    }

    /// Restore path: reinstates saved urgent data at the front of the
    /// urgent queue (restored data precedes anything newly arriving).
    pub fn restore_urgent(&mut self, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.urgent.insert(i, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> SendBuf {
        SendBuf::new(1000, 64)
    }

    #[test]
    fn send_write_and_carve() {
        let mut b = sb();
        assert_eq!(b.write(b"hello world"), 11);
        assert_eq!(b.unsent(), 11);
        let (seq, data, urg) = b.next_segment(5, 1 << 20).unwrap();
        assert_eq!((seq, data.as_slice(), urg), (1000, &b"hello"[..], false));
        let (seq, data, _) = b.next_segment(100, 1 << 20).unwrap();
        assert_eq!((seq, data.as_slice()), (1005, &b" world"[..]));
        assert!(b.next_segment(100, 1 << 20).is_none());
        assert_eq!(b.unacked(), 11);
    }

    #[test]
    fn send_ack_trims() {
        let mut b = sb();
        b.write(b"abcdef");
        b.next_segment(100, 1 << 20);
        assert_eq!(b.on_ack(1003), 3);
        assert_eq!(b.una(), 1003);
        assert_eq!(b.len(), 3);
        // Stale / duplicate acks are ignored.
        assert_eq!(b.on_ack(1001), 0);
        assert_eq!(b.on_ack(1003), 0);
        assert_eq!(b.on_ack(1006), 3);
        assert!(b.is_empty());
    }

    #[test]
    fn send_limit_respected() {
        let mut b = sb();
        assert_eq!(b.write(&[7u8; 100]), 64);
        assert_eq!(b.write(b"more"), 0);
        b.next_segment(100, 1 << 20);
        b.on_ack(1000 + 64);
        assert_eq!(b.write(b"more"), 4);
    }

    #[test]
    fn urgent_marks_split_segments() {
        let mut b = sb();
        b.write(b"aaa");
        b.write_urgent(b"UU");
        b.write(b"bbb");
        let (s1, d1, u1) = b.next_segment(100, 1 << 20).unwrap();
        assert_eq!((s1, d1.as_slice(), u1), (1000, &b"aaa"[..], false));
        let (s2, d2, u2) = b.next_segment(100, 1 << 20).unwrap();
        assert_eq!((s2, d2.as_slice(), u2), (1003, &b"UU"[..], true));
        let (s3, d3, u3) = b.next_segment(100, 1 << 20).unwrap();
        assert_eq!((s3, d3.as_slice(), u3), (1005, &b"bbb"[..], false));
    }

    #[test]
    fn retransmit_re_carves_from_una() {
        let mut b = sb();
        b.write(b"xyz");
        b.next_segment(100, 1 << 20);
        let (seq, data, _) = b.retransmit_segment(100).unwrap();
        assert_eq!((seq, data.as_slice()), (1000, &b"xyz"[..]));
        b.on_ack(1001);
        let (seq, data, _) = b.retransmit_segment(100).unwrap();
        assert_eq!((seq, data.as_slice()), (1001, &b"yz"[..]));
        b.on_ack(1003);
        assert!(b.retransmit_segment(100).is_none());
    }

    #[test]
    fn peer_window_throttles() {
        let mut b = sb();
        b.write(&[1u8; 50]);
        let (_, d, _) = b.next_segment(100, 10).unwrap();
        assert_eq!(d.len(), 10);
        assert!(b.next_segment(100, 10).is_none(), "window exhausted");
        b.on_ack(1010);
        let (_, d, _) = b.next_segment(100, 10).unwrap();
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn segment_queue_records_and_replays_original_boundaries() {
        let mut b = sb();
        b.write(&[9u8; 30]);
        // Carve 10 + 10 + 10 with mss 10.
        b.next_segment(10, 1 << 20);
        b.next_segment(10, 1 << 20);
        b.next_segment(10, 1 << 20);
        assert_eq!(b.flight_segments(), 3);
        // Retransmit replays the first *recorded* segment, not an
        // mss-sized blind re-carve.
        let (seq, data, _) = b.retransmit_segment(100).unwrap();
        assert_eq!((seq, data.len()), (1000, 10));
        // Acks trim records: full first segment, then straddle.
        b.on_ack(1010);
        assert_eq!(b.flight_segments(), 2);
        b.on_ack(1015);
        assert_eq!(b.flight_segments(), 2, "straddled record re-based");
        let (seq, data, _) = b.retransmit_segment(100).unwrap();
        assert_eq!((seq, data.len()), (1015, 5), "replay from re-based record");
        b.on_ack(1030);
        assert_eq!(b.flight_segments(), 0);
    }

    #[test]
    fn probe_segment_does_not_advance_sent() {
        let mut b = sb();
        b.write(b"abc");
        // Window closed: nothing carvable the normal way.
        assert!(b.next_segment(100, 0).is_none());
        let (seq, data, _) = b.probe_segment().unwrap();
        assert_eq!((seq, data.as_slice()), (1000, &b"a"[..]));
        assert_eq!(b.nxt(), 1000, "probe leaves `sent` in place");
        assert_eq!(b.flight_segments(), 0, "probe is not a recorded segment");
        // Peer accepted the probe byte: cumulative ack past `sent`.
        b.on_ack(1001);
        assert_eq!((b.una(), b.nxt()), (1001, 1001));
        let (seq, data, _) = b.next_segment(100, 1 << 20).unwrap();
        assert_eq!((seq, data.as_slice()), (1001, &b"bc"[..]));
    }

    #[test]
    fn snapshot_of_a_wrapped_queue_is_the_logical_stream() {
        let mut b = sb();
        b.write(&[1; 40]);
        b.next_segment(100, 1 << 20);
        b.on_ack(1030);
        b.write(&(0..20).collect::<Vec<u8>>());
        assert!(!b.buf.as_slices().1.is_empty(), "the ring buffer must wrap");
        let want: Vec<u8> = [vec![1; 10], (0..20).collect()].concat();
        assert_eq!(b.snapshot().data, want);
    }

    #[test]
    fn snapshot_and_resend_plan_overlap_discard() {
        let mut b = sb();
        b.write(b"abcde");
        b.write_urgent(b"!");
        b.write(b"fgh");
        b.next_segment(100, 1 << 20);
        let snap = b.snapshot();
        assert_eq!(snap.una, 1000);
        assert_eq!(snap.data, b"abcde!fgh");
        // Peer already received 3 bytes more than our acked pointer shows;
        // the urgent byte stays at its place in the stream.
        assert_eq!(
            snap.resend_plan(3),
            [(false, b"de".to_vec()), (true, b"!".to_vec()), (false, b"fgh".to_vec())]
        );
        // Discard beyond the urgent mark removes urgent data too.
        assert_eq!(snap.resend_plan(6), [(false, b"fgh".to_vec())]);
        // Discard everything.
        assert!(snap.resend_plan(100).is_empty());
    }

    fn rb() -> RecvBuf {
        RecvBuf::new(5000, 1 << 16, false)
    }

    #[test]
    fn recv_in_order() {
        let mut b = rb();
        let r = b.input(5000, b"hello", false, false);
        assert_eq!(r.newly_readable, 5);
        assert!(r.ack_needed);
        assert_eq!(b.nxt(), 5005);
        assert_eq!(b.read(100), b"hello");
    }

    #[test]
    fn recv_out_of_order_backlog_then_fill() {
        let mut b = rb();
        let r = b.input(5005, b"world", false, false);
        assert_eq!(r.newly_readable, 0);
        assert_eq!(b.backlog_segments(), 1);
        assert_eq!(b.backlog_bytes(), 5);
        let r = b.input(5000, b"hello", false, false);
        assert_eq!(r.newly_readable, 10);
        assert_eq!(b.backlog_segments(), 0);
        assert_eq!(b.read(100), b"helloworld");
        assert_eq!(b.nxt(), 5010);
    }

    #[test]
    fn recv_duplicate_trimmed() {
        let mut b = rb();
        b.input(5000, b"abcdef", false, false);
        let r = b.input(5000, b"abcdefgh", false, false);
        assert_eq!(r.newly_readable, 2);
        assert_eq!(b.read(100), b"abcdefgh");
        // Entirely stale segment still requests a re-ack.
        let r = b.input(5000, b"ab", false, false);
        assert_eq!(r.newly_readable, 0);
        assert!(r.ack_needed);
    }

    #[test]
    fn recv_urgent_routed_to_oob_queue() {
        let mut b = rb();
        b.input(5000, b"aa", false, false);
        let r = b.input(5002, b"U", true, false);
        assert_eq!(r.newly_urgent, 1);
        assert_eq!(r.newly_readable, 0);
        assert_eq!(b.read(100), b"aa");
        assert_eq!(b.read_urgent(100), b"U");
        assert_eq!(b.nxt(), 5003, "urgent data still consumes sequence space");
    }

    #[test]
    fn recv_urgent_inline_mode() {
        let mut b = RecvBuf::new(5000, 1 << 16, true);
        b.input(5000, b"aa", false, false);
        b.input(5002, b"U", true, false);
        assert_eq!(b.read(100), b"aaU");
        assert_eq!(b.urgent_len(), 0);
    }

    #[test]
    fn peek_does_not_consume_and_sets_flag() {
        let mut b = rb();
        b.input(5000, b"data", false, false);
        assert!(!b.was_peeked());
        assert_eq!(b.peek(2), b"da");
        assert!(b.was_peeked());
        assert_eq!(b.read(100), b"data");
    }

    #[test]
    fn peek_misses_urgent_and_backlog() {
        // The §5 argument for why a peek-based checkpoint is incomplete.
        let mut b = rb();
        b.input(5010, b"ooo-backlog", false, false);
        b.input(5000, b"inorder", false, false); // fills 5000..5007, gap at 5007
        let visible = b.peek(1000);
        assert_eq!(visible, b"inorder");
        assert!(b.backlog_bytes() > 0, "backlog invisible to peek");
        b.input(5007, b"U", true, false);
        assert_eq!(b.peek(1000), b"inorder", "urgent invisible to peek");
    }

    #[test]
    fn fin_sequencing() {
        let mut b = rb();
        // FIN arrives with final data, but a gap remains.
        let r = b.input(5003, b"de", false, true);
        assert!(!r.fin_reached);
        let r = b.input(5000, b"abc", false, false);
        assert!(r.fin_reached);
        assert!(b.fin_reached());
        assert_eq!(b.nxt(), 5006, "FIN consumed one sequence unit");
        assert_eq!(b.read(100), b"abcde");
        assert!(b.at_eof());
    }

    #[test]
    fn bare_fin() {
        let mut b = rb();
        let r = b.input(5000, b"", false, true);
        assert!(r.fin_reached);
        assert_eq!(b.nxt(), 5001);
        assert!(b.at_eof());
    }

    #[test]
    fn window_shrinks_with_unread_data() {
        let mut b = RecvBuf::new(0, 10, false);
        assert_eq!(b.window(), 10);
        b.input(0, b"abcdef", false, false);
        assert_eq!(b.window(), 4);
        b.read(6);
        assert_eq!(b.window(), 10);
    }

    #[test]
    fn full_window_trims_incoming_data() {
        let mut b = RecvBuf::new(0, 4, false);
        let r = b.input(0, b"abcdef", false, false);
        assert_eq!(r.newly_readable, 4);
        assert_eq!(r.window_trimmed, 2, "bytes beyond the window dropped");
        assert_eq!(b.window(), 0);
        assert_eq!(b.nxt(), 4, "trimmed bytes not acknowledged");
        // Zero-window probe: trimmed in full, but still re-acked.
        let r = b.input(4, b"e", false, false);
        assert_eq!((r.newly_readable, r.window_trimmed), (0, 1));
        assert!(r.ack_needed);
        assert_eq!(b.nxt(), 4);
        // Application reads; the window re-opens and the retransmitted
        // tail is accepted with no duplication.
        b.read(4);
        let r = b.input(4, b"ef", false, false);
        assert_eq!((r.newly_readable, r.window_trimmed), (2, 0));
        assert_eq!(b.read(100), b"ef");
    }
}
