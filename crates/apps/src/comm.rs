//! minimpi: rank-mesh message passing over pod sockets, and the one
//! framed link every middleware connection uses.
//!
//! Stands in for MPICH-2 (§6): every rank owns one pod, listens on a
//! well-known port, connects to all lower ranks and accepts from all
//! higher ranks. Each connection — here and in [`crate::pvm`] — is one
//! framed link (`Link`): frames of a little-endian `u32` tag, a
//! little-endian `u32` payload length and the payload. Sends are *posted*
//! (queued) and flushed by the link's pump; received frames wait in the
//! link's inbox until they are taken by tag (MPI) or in order (PVM). So every operation is
//! non-blocking and the whole communicator state (including half-sent
//! frames and half-parsed receive buffers) serializes into a checkpoint.
//!
//! What exists is a posted tagged send, a tag-matched receive and one
//! collective, a linear sum all-reduce rooted at rank 0. `Rank` holds
//! what CPI, BT and Bratu share — the communicator, the phase counter, the
//! in-flight all-reduce and the outstanding halo receives — and writes the
//! phases they share once: wiring, the halo exchange, the closing
//! all-reduce and the drain after which rank 0 records its result.

use std::collections::VecDeque;
use zapc_proto::{Decode, DecodeResult, Encode, Endpoint, RecordReader, RecordWriter, Transport};
use zapc_sim::{Errno, ProcessCtx, StepOutcome, SysResult};

/// Well-known rank port inside each pod.
pub const MPI_PORT: u16 = 6100;

/// Tag bit reserved for collective operations.
const COLL_TAG: u32 = 0x8000_0000;

/// Tag bit of the all-reduce's fan-out leg (rank 0 back to the others).
const FANOUT: u32 = 1 << 30;

/// One framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Message tag.
    pub tag: u32,
    /// Payload.
    pub data: Vec<u8>,
}

impl Encode for Msg {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.tag);
        w.put(&self.data);
    }
}

impl Decode for Msg {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Msg { tag: r.get()?, data: r.get()? })
    }
}

/// One framed connection: the socket, the framed bytes not yet sent, a
/// partial inbound frame and the parsed messages not yet taken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Link {
    pub(crate) fd: u32,
    txq: VecDeque<u8>,
    rxbuf: Vec<u8>,
    inbox: VecDeque<Msg>,
}

impl Link {
    /// A link over socket `fd`.
    pub fn new(fd: u32) -> Link {
        Link { fd, ..Link::default() }
    }

    /// Queues one frame (flushed by [`Link::pump`]).
    pub fn post(&mut self, tag: u32, data: &[u8]) {
        self.txq.extend(tag.to_le_bytes());
        self.txq.extend((data.len() as u32).to_le_bytes());
        self.txq.extend(data);
    }

    /// Sends queued bytes in 16 KiB chunks until the socket takes less
    /// (or `EAGAIN`), then reads in 64 KiB chunks until `EAGAIN` or EOF,
    /// parsing every complete frame into the inbox.
    pub fn pump(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<()> {
        while !self.txq.is_empty() {
            let chunk: Vec<u8> = self.txq.iter().take(16 * 1024).copied().collect();
            match ctx.send(self.fd, &chunk) {
                Ok(n) => {
                    self.txq.drain(..n);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(Errno::EAGAIN) => break,
                Err(e) => return Err(e),
            }
        }
        loop {
            match ctx.recv(self.fd, 64 * 1024, zapc_net::RecvFlags::default()) {
                Ok(d) if d.is_empty() => break, // EOF
                Ok(d) => {
                    self.rxbuf.extend(d);
                    self.parse_frames();
                }
                Err(Errno::EAGAIN) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn parse_frames(&mut self) {
        loop {
            if self.rxbuf.len() < 8 {
                return;
            }
            let tag = u32::from_le_bytes(self.rxbuf[0..4].try_into().expect("4"));
            let len = u32::from_le_bytes(self.rxbuf[4..8].try_into().expect("4")) as usize;
            if self.rxbuf.len() < 8 + len {
                return;
            }
            let data = self.rxbuf[8..8 + len].to_vec();
            self.rxbuf.drain(..8 + len);
            self.inbox.push_back(Msg { tag, data });
        }
    }

    /// Takes the oldest message tagged exactly `tag` (MPI matching).
    pub fn take(&mut self, tag: u32) -> Option<Vec<u8>> {
        let pos = self.inbox.iter().position(|m| m.tag == tag)?;
        Some(self.inbox.remove(pos).expect("position valid").data)
    }

    /// Takes the oldest message, whatever its tag (PVM order).
    pub fn take_next(&mut self) -> Option<Msg> {
        self.inbox.pop_front()
    }

    /// Whether every posted byte has been handed to the socket.
    pub fn tx_idle(&self) -> bool {
        self.txq.is_empty()
    }
}

impl Encode for Link {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.fd);
        w.put(&self.txq);
        w.put(&self.rxbuf);
        w.put(&self.inbox);
    }
}

impl Decode for Link {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Link { fd: r.get()?, txq: r.get()?, rxbuf: r.get()?, inbox: r.get()? })
    }
}

/// Communicator setup progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Fresh,
    Wiring,
    Up,
}

impl Phase {
    /// Every phase, in code order.
    const ALL: [Phase; 3] = [Phase::Fresh, Phase::Wiring, Phase::Up];
}

zapc_proto::table_codec!(Phase, "MpiComm phase", Phase::ALL);

/// The communicator of one rank.
#[derive(Debug, Clone)]
pub struct MpiComm {
    /// This rank.
    pub rank: u32,
    /// World size.
    pub size: u32,
    vips: Vec<u32>,
    phase: Phase,
    listen_fd: u32,
    /// One link per rank; this rank's own slot stays unused.
    links: Vec<Link>,
    /// Links that are up: introduced (active opens) or identified (accepts).
    wired: Vec<bool>,
    /// Accepted-but-unidentified connections: `(fd, partial rank header)`.
    unidentified: Vec<(u32, Vec<u8>)>,
    coll_seq: u32,
}

impl MpiComm {
    /// Creates a communicator for `rank` of `size`, given every rank's
    /// pod virtual IP.
    pub fn new(rank: u32, vips: Vec<u32>) -> MpiComm {
        let size = vips.len() as u32;
        MpiComm {
            rank,
            size,
            vips,
            phase: Phase::Fresh,
            listen_fd: 0,
            links: vec![Link::default(); size as usize],
            wired: vec![false; size as usize],
            unidentified: Vec::new(),
            coll_seq: 0,
        }
    }

    /// Drives communicator setup; `true` once the mesh is wired.
    pub fn poll_init(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<bool> {
        match self.phase {
            Phase::Up => return Ok(true),
            Phase::Fresh => {
                self.listen_fd = ctx.socket(Transport::Tcp)?;
                ctx.bind(self.listen_fd, Endpoint { ip: 0, port: MPI_PORT })?;
                ctx.listen(self.listen_fd, self.size as usize + 1)?;
                // Active opens towards lower ranks.
                for peer in 0..self.rank {
                    let fd = ctx.socket(Transport::Tcp)?;
                    ctx.connect(fd, Endpoint { ip: self.vips[peer as usize], port: MPI_PORT })?;
                    self.links[peer as usize].fd = fd;
                }
                self.phase = Phase::Wiring;
            }
            Phase::Wiring => {}
        }

        // Progress active opens: once established, identify ourselves.
        // A refused connection just means the peer's listener is not up
        // yet (launch is not synchronized); retry like mpirun would.
        let my_rank = self.rank;
        for peer in 0..my_rank as usize {
            if self.wired[peer] {
                continue;
            }
            let fd = self.links[peer].fd;
            match ctx.is_connected(fd) {
                Ok(true) => match ctx.send(fd, &my_rank.to_le_bytes()) {
                    Ok(4) => self.wired[peer] = true,
                    Ok(_) | Err(Errno::EAGAIN) => {}
                    Err(e) => return Err(e),
                },
                Ok(false) => {}
                Err(_) => {
                    let _ = ctx.close(fd);
                    let fd = ctx.socket(Transport::Tcp)?;
                    ctx.connect(fd, Endpoint { ip: self.vips[peer], port: MPI_PORT })?;
                    self.links[peer].fd = fd;
                }
            }
        }

        // Progress passive opens: accept and read the peer's rank header.
        loop {
            match ctx.accept(self.listen_fd) {
                Ok((fd, _peer)) => self.unidentified.push((fd, Vec::new())),
                Err(Errno::EAGAIN) => break,
                Err(e) => return Err(e),
            }
        }
        let mut identified: Vec<(usize, u32)> = Vec::new();
        for (idx, (fd, hdr)) in self.unidentified.iter_mut().enumerate() {
            match ctx.recv(*fd, 4 - hdr.len(), zapc_net::RecvFlags::default()) {
                Ok(d) => {
                    hdr.extend(d);
                    if hdr.len() == 4 {
                        let peer = u32::from_le_bytes(hdr.as_slice().try_into().expect("4 bytes"));
                        identified.push((idx, peer));
                    }
                }
                Err(Errno::EAGAIN) => {}
                Err(e) => return Err(e),
            }
        }
        for (idx, peer) in identified.into_iter().rev() {
            let (fd, _) = self.unidentified.remove(idx);
            if peer < self.size && peer > self.rank {
                self.links[peer as usize].fd = fd;
                self.wired[peer as usize] = true;
            }
        }

        let up = (0..self.size).filter(|&p| p != self.rank).all(|p| self.wired[p as usize]);
        if up {
            self.phase = Phase::Up;
        }
        Ok(up)
    }

    /// Queues a tagged message to `to` (flushed by [`MpiComm::progress`]).
    pub fn post_send(&mut self, to: u32, tag: u32, data: &[u8]) {
        self.links[to as usize].post(tag, data);
    }

    /// Pumps every wired link. Call once per program step.
    pub fn progress(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<()> {
        for (link, &wired) in self.links.iter_mut().zip(&self.wired) {
            if wired {
                link.pump(ctx)?;
            }
        }
        Ok(())
    }

    /// Takes the next queued message from `from` with exactly `tag`.
    pub fn try_recv(&mut self, from: u32, tag: u32) -> Option<Vec<u8>> {
        self.links[from as usize].take(tag)
    }

    /// Whether all transmit queues have drained.
    pub fn tx_idle(&self) -> bool {
        self.links.iter().all(Link::tx_idle)
    }

    /// Starts an all-reduce of `contrib` under the next collective tag.
    fn start_allreduce(&mut self, contrib: f64) -> Collective {
        self.coll_seq += 1;
        Collective {
            tag: COLL_TAG | (self.coll_seq & 0x7FFF_FFFF),
            sent: false,
            received: 0,
            acc: contrib,
        }
    }
}

impl Encode for MpiComm {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.rank);
        w.put(&self.size);
        w.put(&self.vips);
        w.put(&self.phase);
        w.put(&self.listen_fd);
        w.put(&self.links);
        w.put(&self.wired);
        w.put(&self.unidentified);
        w.put(&self.coll_seq);
    }
}

impl Decode for MpiComm {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(MpiComm {
            rank: r.get()?,
            size: r.get()?,
            vips: r.get()?,
            phase: r.get()?,
            listen_fd: r.get()?,
            links: r.get()?,
            wired: r.get()?,
            unidentified: r.get()?,
            coll_seq: r.get()?,
        })
    }
}

/// An in-flight all-reduce (sum), linear at rank 0: ranks 1, 2, … send
/// their contribution, rank 0 folds them in rank order and fans the sum
/// back out. Fully serializable so a checkpoint can land mid-collective.
#[derive(Debug, Clone, PartialEq)]
struct Collective {
    tag: u32,
    /// Whether this rank's first poll (which posts its contribution) ran.
    sent: bool,
    /// Contributions rank 0 has folded in.
    received: u32,
    acc: f64,
}

impl Collective {
    /// Drives the all-reduce; `Some(sum)` once this rank has the sum.
    /// Not polled again after that.
    fn poll(&mut self, comm: &mut MpiComm, ctx: &mut ProcessCtx<'_>) -> SysResult<Option<f64>> {
        comm.progress(ctx)?;
        let size = comm.size;
        if size == 1 {
            return Ok(Some(self.acc));
        }
        if !self.sent {
            if comm.rank != 0 {
                comm.post_send(0, self.tag, &encode_f64s(&[self.acc]));
            }
            self.sent = true;
            comm.progress(ctx)?;
        }
        if comm.rank != 0 {
            return Ok(comm.try_recv(0, self.tag | FANOUT).map(|d| decode_f64s(&d)[0]));
        }
        while self.received < size - 1 {
            let Some(d) = comm.try_recv(self.received + 1, self.tag) else {
                return Ok(None);
            };
            self.acc += decode_f64s(&d)[0];
            self.received += 1;
        }
        let payload = encode_f64s(&[self.acc]);
        for peer in 1..size {
            comm.post_send(peer, self.tag | FANOUT, &payload);
        }
        comm.progress(ctx)?;
        Ok(Some(self.acc))
    }
}

impl Encode for Collective {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.tag);
        w.put(&self.sent);
        w.put(&self.received);
        w.put(&self.acc);
    }
}

impl Decode for Collective {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Collective { tag: r.get()?, sent: r.get()?, received: r.get()?, acc: r.get()? })
    }
}

fn encode_f64s(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8"))).collect()
}

/// Block decomposition of `n` planes over `size` ranks: the first plane
/// and the plane count of `rank`'s contiguous block.
pub(crate) fn block(rank: usize, size: usize, n: usize) -> (usize, usize) {
    let base = n / size;
    let rem = n % size;
    (rank * base + rank.min(rem), base + usize::from(rank < rem))
}

/// One SPMD rank of CPI, BT or Bratu: the state the three programs share,
/// and the phases they share. Each phase method moves [`Rank::phase`] on
/// by one when it finishes.
#[derive(Debug, Clone)]
pub(crate) struct Rank {
    /// The communicator.
    pub comm: MpiComm,
    /// The program's phase.
    pub phase: u8,
    /// The closing all-reduce, once started.
    coll: Option<Collective>,
    /// Halo receives still outstanding: from rank+1 and from rank−1.
    want_up: bool,
    want_down: bool,
}

impl Rank {
    /// Rank `rank` of the ranks at `vips`, at phase 0.
    pub fn new(rank: u32, vips: Vec<u32>) -> Rank {
        Rank {
            comm: MpiComm::new(rank, vips),
            phase: 0,
            coll: None,
            want_up: false,
            want_down: false,
        }
    }

    /// Wires the communicator (`app` names the program in a panic).
    pub fn init(&mut self, ctx: &mut ProcessCtx<'_>, app: &str) -> StepOutcome {
        match self.comm.poll_init(ctx) {
            Ok(true) => {
                self.phase += 1;
                StepOutcome::Ready
            }
            Ok(false) => StepOutcome::Blocked,
            Err(e) => panic!("{app} rank {} init: {e}", self.comm.rank),
        }
    }

    /// Halo exchange, first half. The `f64` region at `base` holds
    /// `planes` interior planes of `plane` values between two halo planes;
    /// posts the first interior plane to rank−1 (tagged `up`) and the last
    /// to rank+1 (tagged `down`).
    pub fn post_halos(
        &mut self,
        ctx: &mut ProcessCtx<'_>,
        base: u64,
        (plane, planes): (usize, usize),
        (up, down): (u32, u32),
    ) -> StepOutcome {
        let (rank, size) = (self.comm.rank, self.comm.size);
        let (first, last) = {
            let u = ctx.mem.f64(base).expect("mapped");
            (
                encode_f64s(&u[plane..2 * plane]),
                encode_f64s(&u[planes * plane..(planes + 1) * plane]),
            )
        };
        if rank > 0 {
            self.comm.post_send(rank - 1, up, &first);
            self.want_down = true;
        }
        if rank + 1 < size {
            self.comm.post_send(rank + 1, down, &last);
            self.want_up = true;
        }
        let _ = self.comm.progress(ctx);
        self.phase += 1;
        StepOutcome::Ready
    }

    /// Halo exchange, second half: stores each neighbour's plane in its
    /// halo plane as it arrives; blocked until both have.
    pub fn collect_halos(
        &mut self,
        ctx: &mut ProcessCtx<'_>,
        base: u64,
        (plane, planes): (usize, usize),
        (up, down): (u32, u32),
    ) -> StepOutcome {
        let _ = self.comm.progress(ctx);
        let rank = self.comm.rank;
        for (want, from, tag, lo) in [
            (&mut self.want_down, rank.wrapping_sub(1), down, 0),
            (&mut self.want_up, rank + 1, up, (planes + 1) * plane),
        ] {
            if *want {
                if let Some(d) = self.comm.try_recv(from, tag) {
                    let v = decode_f64s(&d);
                    let u = ctx.mem.f64_mut(base).expect("mapped");
                    u[lo..lo + v.len()].copy_from_slice(&v);
                    *want = false;
                }
            }
        }
        if self.want_down || self.want_up {
            return StepOutcome::Blocked;
        }
        self.phase += 1;
        StepOutcome::Ready
    }

    /// Starts the closing all-reduce of this rank's `local` contribution.
    pub fn start_allreduce(&mut self, local: f64) {
        self.coll = Some(self.comm.start_allreduce(local));
        self.phase += 1;
    }

    /// Polls the closing all-reduce: the sum over all ranks once it is in.
    pub fn allreduce(&mut self, ctx: &mut ProcessCtx<'_>, app: &str) -> Option<f64> {
        let coll = self.coll.as_mut().expect("all-reduce started");
        match coll.poll(&mut self.comm, ctx) {
            Ok(Some(sum)) => {
                self.coll = None;
                self.phase += 1;
                Some(sum)
            }
            Ok(None) => None,
            Err(e) => panic!("{app} rank {} allreduce: {e}", self.comm.rank),
        }
    }

    /// Drains every transmit queue; then rank 0 writes `result` to `file`
    /// on shared storage.
    pub fn finish(&mut self, ctx: &mut ProcessCtx<'_>, file: &str, result: &str) -> StepOutcome {
        let _ = self.comm.progress(ctx);
        if !self.comm.tx_idle() {
            return StepOutcome::Blocked;
        }
        if self.comm.rank == 0 {
            let fd = ctx.open(file, true, false).expect("open result");
            ctx.file_write(fd, result.as_bytes()).expect("write");
            ctx.close(fd).expect("close");
        }
        self.phase += 1;
        StepOutcome::Ready
    }
}

impl Encode for Rank {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.comm);
        w.put(&self.phase);
        w.put(&self.want_up);
        w.put(&self.want_down);
        w.put(&self.coll);
    }
}

impl Decode for Rank {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Rank {
            comm: r.get()?,
            phase: r.get()?,
            want_up: r.get()?,
            want_down: r.get()?,
            coll: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_frames_pin_their_bytes_and_parse_across_a_split() {
        let mut tx = Link::default();
        tx.post(7, b"abcd");
        tx.post(9, b"");
        let wire: Vec<u8> = tx.txq.iter().copied().collect();
        // Tag (LE u32), payload length (LE u32), payload.
        assert_eq!(wire, [7, 0, 0, 0, 4, 0, 0, 0, b'a', b'b', b'c', b'd', 9, 0, 0, 0, 0, 0, 0, 0]);
        for tag_matched in [true, false] {
            let mut rx = Link::default();
            rx.rxbuf.extend(&wire[..10]);
            rx.parse_frames();
            assert!(rx.inbox.is_empty(), "half a frame parses to nothing");
            rx.rxbuf.extend(&wire[10..]);
            rx.parse_frames();
            assert!(rx.rxbuf.is_empty());
            if tag_matched {
                assert_eq!(rx.take(9), Some(Vec::new()), "matched past an older frame");
                assert_eq!(rx.take(9), None);
                assert_eq!(rx.take(7), Some(b"abcd".to_vec()));
            } else {
                assert_eq!(rx.take_next(), Some(Msg { tag: 7, data: b"abcd".to_vec() }));
                assert_eq!(rx.take_next(), Some(Msg { tag: 9, data: Vec::new() }));
            }
            assert_eq!(rx.take_next(), None);
        }
    }

    #[test]
    fn f64_codec_round_trip() {
        let v = vec![1.5, -2.25, std::f64::consts::E];
        assert_eq!(decode_f64s(&encode_f64s(&v)), v);
    }

    #[test]
    fn comm_serialization_round_trip() {
        let mut c = MpiComm::new(1, vec![10, 20, 30]);
        c.post_send(0, 5, b"hello");
        c.links[2].inbox.push_back(Msg { tag: 9, data: b"queued".to_vec() });
        c.links[2].rxbuf = vec![1, 2, 3];
        c.wired[2] = true;
        c.unidentified.push((44, vec![7]));
        c.coll_seq = 3;
        let mut w = RecordWriter::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = MpiComm::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.rank, 1);
        assert_eq!(back.links, c.links);
        assert_eq!(back.wired, c.wired);
        assert_eq!(back.unidentified, c.unidentified);
    }

    #[test]
    fn rank_serialization_round_trip_mid_allreduce() {
        let mut rank = Rank::new(0, vec![10]);
        rank.start_allreduce(2.5);
        rank.want_up = true;
        let mut w = RecordWriter::new();
        rank.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = Rank::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.coll, rank.coll);
        assert_eq!((back.phase, back.want_up, back.want_down), (1, true, false));
    }

    #[test]
    fn phase_codes_are_table_positions() {
        for (code, phase) in Phase::ALL.into_iter().enumerate() {
            let mut w = RecordWriter::new();
            w.put(&phase);
            assert_eq!(w.bytes(), [code as u8]);
            assert_eq!(RecordReader::new(w.bytes()).get::<Phase>().unwrap(), phase);
        }
        assert_eq!(
            RecordReader::new(&[3]).get::<Phase>(),
            Err(zapc_proto::DecodeError::InvalidEnum { what: "MpiComm phase", value: 3 })
        );
    }

    #[test]
    fn try_recv_matches_tags() {
        let mut c = MpiComm::new(0, vec![10, 20]);
        c.links[1].inbox.push_back(Msg { tag: 1, data: b"one".to_vec() });
        c.links[1].inbox.push_back(Msg { tag: 2, data: b"two".to_vec() });
        assert_eq!(c.try_recv(1, 2).unwrap(), b"two");
        assert_eq!(c.try_recv(1, 2), None);
        assert_eq!(c.try_recv(1, 1).unwrap(), b"one");
    }

    #[test]
    fn block_decomposition_covers_the_grid() {
        for size in 1..=9 {
            let mut next = 0;
            for rank in 0..size {
                let (first, count) = block(rank, size, 24);
                assert_eq!(first, next, "contiguous blocks");
                next += count;
            }
            assert_eq!(next, 24);
        }
    }
}
