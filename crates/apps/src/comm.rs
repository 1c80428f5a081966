//! minimpi: rank-mesh message passing over pod sockets.
//!
//! Stands in for MPICH-2 (§6): every rank owns one pod, listens on a
//! well-known port, connects to all lower ranks and accepts from all
//! higher ranks, then exchanges length-framed, tag-matched messages.
//! Sends are *posted* (queued) and flushed by [`MpiComm::progress`];
//! receives are matched from per-peer inboxes — so every operation is
//! non-blocking and the whole communicator state (including half-sent
//! frames and half-parsed receive buffers) serializes into a checkpoint.

use std::collections::VecDeque;
use zapc_proto::{Decode, DecodeResult, Encode, Endpoint, RecordReader, RecordWriter, Transport};
use zapc_sim::{Errno, ProcessCtx, SysResult};

/// Well-known rank port inside each pod.
pub const MPI_PORT: u16 = 6100;

/// Tag bit reserved for collective operations.
const COLL_TAG: u32 = 0x8000_0000;

/// `Poll`-style result for non-blocking operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll<T> {
    /// The operation finished.
    Ready(T),
    /// Try again next step.
    Pending,
}

/// Communicator setup progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Fresh,
    Wiring,
    Up,
}

/// One framed inbound message.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Msg {
    tag: u32,
    data: Vec<u8>,
}

/// Per-peer link state.
#[derive(Debug, Clone, Default)]
struct Link {
    fd: u32,
    connected: bool,
    /// Bytes queued for transmission (framed).
    txq: VecDeque<u8>,
    /// Partial inbound frame.
    rxbuf: Vec<u8>,
    /// Parsed inbound messages.
    inbox: VecDeque<Msg>,
    /// Handshake progress for accept-side links (peer rank header).
    hello_sent: bool,
}

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
    links: Vec<Link>,
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
            links: (0..size).map(|_| Link::default()).collect(),
            unidentified: Vec::new(),
            coll_seq: 0,
        }
    }

    /// Drives communicator setup; returns `Ready` once the mesh is wired.
    pub fn poll_init(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<Poll<()>> {
        match self.phase {
            Phase::Up => return Ok(Poll::Ready(())),
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
            if self.links[peer].connected {
                continue;
            }
            if !self.links[peer].hello_sent {
                match ctx.is_connected(self.links[peer].fd) {
                    Ok(true) => {
                        let fd = self.links[peer].fd;
                        match ctx.send(fd, &my_rank.to_le_bytes()) {
                            Ok(4) => self.links[peer].hello_sent = true,
                            Ok(_) | Err(Errno::EAGAIN) => {}
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(false) => {}
                    Err(_) => {
                        let _ = ctx.close(self.links[peer].fd);
                        let vip = self.vips[peer];
                        let fd = ctx.socket(Transport::Tcp)?;
                        ctx.connect(fd, Endpoint { ip: vip, port: MPI_PORT })?;
                        self.links[peer].fd = fd;
                    }
                }
            }
            if self.links[peer].hello_sent {
                self.links[peer].connected = true;
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
                let link = &mut self.links[peer as usize];
                link.fd = fd;
                link.connected = true;
            }
        }

        let wired = (0..self.size).filter(|&p| p != self.rank).all(|p| self.links[p as usize].connected);
        if wired {
            self.phase = Phase::Up;
            Ok(Poll::Ready(()))
        } else {
            Ok(Poll::Pending)
        }
    }

    /// Queues a tagged message to `to` (flushed by [`MpiComm::progress`]).
    pub fn post_send(&mut self, to: u32, tag: u32, data: &[u8]) {
        let link = &mut self.links[to as usize];
        link.txq.extend(tag.to_le_bytes());
        link.txq.extend((data.len() as u32).to_le_bytes());
        link.txq.extend(data);
    }

    /// Flushes transmit queues and drains inbound frames. Call once per
    /// program step.
    pub fn progress(&mut self, ctx: &mut ProcessCtx<'_>) -> SysResult<()> {
        for peer in 0..self.size as usize {
            if peer as u32 == self.rank {
                continue;
            }
            let link = &mut self.links[peer];
            if !link.connected {
                continue;
            }
            // Transmit.
            while !link.txq.is_empty() {
                let chunk: Vec<u8> = link.txq.iter().take(16 * 1024).copied().collect();
                match ctx.send(link.fd, &chunk) {
                    Ok(n) => {
                        link.txq.drain(..n);
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(Errno::EAGAIN) => break,
                    Err(e) => return Err(e),
                }
            }
            // Receive.
            loop {
                match ctx.recv(link.fd, 64 * 1024, zapc_net::RecvFlags::default()) {
                    Ok(d) if d.is_empty() => break, // EOF
                    Ok(d) => {
                        link.rxbuf.extend(d);
                        Self::parse_frames(&mut link.rxbuf, &mut link.inbox);
                    }
                    Err(Errno::EAGAIN) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    fn parse_frames(rxbuf: &mut Vec<u8>, inbox: &mut VecDeque<Msg>) {
        loop {
            if rxbuf.len() < 8 {
                return;
            }
            let tag = u32::from_le_bytes(rxbuf[0..4].try_into().expect("4"));
            let len = u32::from_le_bytes(rxbuf[4..8].try_into().expect("4")) as usize;
            if rxbuf.len() < 8 + len {
                return;
            }
            let data = rxbuf[8..8 + len].to_vec();
            rxbuf.drain(..8 + len);
            inbox.push_back(Msg { tag, data });
        }
    }

    /// Takes the next queued message from `from` with exactly `tag`.
    pub fn try_recv(&mut self, from: u32, tag: u32) -> Option<Vec<u8>> {
        let link = &mut self.links[from as usize];
        let pos = link.inbox.iter().position(|m| m.tag == tag)?;
        Some(link.inbox.remove(pos).expect("position valid").data)
    }

    /// Whether all transmit queues have drained.
    pub fn tx_idle(&self) -> bool {
        self.links.iter().all(|l| l.txq.is_empty())
    }

    /// Starts a new collective; returns its state machine.
    pub fn start_collective(&mut self, op: CollOp, contrib: Vec<f64>) -> Collective {
        self.coll_seq += 1;
        Collective {
            op,
            tag: COLL_TAG | (self.coll_seq & 0x7FFF_FFFF),
            stage: 0,
            received: 0,
            acc: contrib,
            done: false,
        }
    }
}

impl Encode for MpiComm {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u32(self.rank);
        w.put_u32(self.size);
        w.put_u64(self.vips.len() as u64);
        for &v in &self.vips {
            w.put_u32(v);
        }
        w.put_u8(match self.phase {
            Phase::Fresh => 0,
            Phase::Wiring => 1,
            Phase::Up => 2,
        });
        w.put_u32(self.listen_fd);
        w.put_u64(self.links.len() as u64);
        for l in &self.links {
            w.put_u32(l.fd);
            w.put_bool(l.connected);
            let tx: Vec<u8> = l.txq.iter().copied().collect();
            w.put_bytes(&tx);
            w.put_bytes(&l.rxbuf);
            w.put_u64(l.inbox.len() as u64);
            for m in &l.inbox {
                w.put_u32(m.tag);
                w.put_bytes(&m.data);
            }
            w.put_bool(l.hello_sent);
        }
        w.put_u64(self.unidentified.len() as u64);
        for (fd, hdr) in &self.unidentified {
            w.put_u32(*fd);
            w.put_bytes(hdr);
        }
        w.put_u32(self.coll_seq);
    }
}

impl Decode for MpiComm {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        let rank = r.get_u32()?;
        let size = r.get_u32()?;
        let nv = r.get_u64()?;
        let mut vips = Vec::with_capacity(nv as usize);
        for _ in 0..nv {
            vips.push(r.get_u32()?);
        }
        let phase = match r.get_u8()? {
            0 => Phase::Fresh,
            1 => Phase::Wiring,
            _ => Phase::Up,
        };
        let listen_fd = r.get_u32()?;
        let nl = r.get_u64()?;
        let mut links = Vec::with_capacity(nl as usize);
        for _ in 0..nl {
            let fd = r.get_u32()?;
            let connected = r.get_bool()?;
            let txq: VecDeque<u8> = r.get_bytes_owned()?.into();
            let rxbuf = r.get_bytes_owned()?;
            let ni = r.get_u64()?;
            let mut inbox = VecDeque::with_capacity(ni as usize);
            for _ in 0..ni {
                let tag = r.get_u32()?;
                inbox.push_back(Msg { tag, data: r.get_bytes_owned()? });
            }
            let hello_sent = r.get_bool()?;
            links.push(Link { fd, connected, txq, rxbuf, inbox, hello_sent });
        }
        let nu = r.get_u64()?;
        let mut unidentified = Vec::with_capacity(nu as usize);
        for _ in 0..nu {
            let fd = r.get_u32()?;
            unidentified.push((fd, r.get_bytes_owned()?));
        }
        let coll_seq = r.get_u32()?;
        Ok(MpiComm { rank, size, vips, phase, listen_fd, links, unidentified, coll_seq })
    }
}

/// Collective operations (linear algorithms rooted at rank 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Synchronize all ranks.
    Barrier,
    /// Element-wise sum to rank 0.
    ReduceSum,
    /// Element-wise sum, result everywhere.
    AllReduceSum,
    /// Rank 0's vector to everyone.
    Bcast,
}

/// An in-flight collective; fully serializable so a checkpoint can land
/// mid-collective.
#[derive(Debug, Clone, PartialEq)]
pub struct Collective {
    op: CollOp,
    tag: u32,
    stage: u8,
    received: u32,
    acc: Vec<f64>,
    done: bool,
}

impl Collective {
    /// Drives the collective; `Ready(result)` carries the reduced/broadcast
    /// vector (meaningful per [`CollOp`]).
    pub fn poll(&mut self, comm: &mut MpiComm, ctx: &mut ProcessCtx<'_>) -> SysResult<Poll<Vec<f64>>> {
        if self.done {
            return Ok(Poll::Ready(self.acc.clone()));
        }
        comm.progress(ctx)?;
        let root = 0u32;
        let me = comm.rank;
        let size = comm.size;
        if size == 1 {
            self.done = true;
            return Ok(Poll::Ready(self.acc.clone()));
        }
        match self.op {
            CollOp::ReduceSum | CollOp::AllReduceSum | CollOp::Barrier => {
                // Stage 0: leaves send contributions to the root.
                if self.stage == 0 {
                    if me != root {
                        comm.post_send(root, self.tag, &encode_f64s(&self.acc));
                        self.stage = if self.op == CollOp::ReduceSum { 3 } else { 1 };
                    } else {
                        self.stage = 2;
                    }
                    comm.progress(ctx)?;
                }
                // Root gathers.
                if self.stage == 2 {
                    while self.received < size - 1 {
                        let from = self.received + 1;
                        match comm.try_recv(from, self.tag) {
                            Some(d) => {
                                let v = decode_f64s(&d);
                                for (a, b) in self.acc.iter_mut().zip(v) {
                                    *a += b;
                                }
                                self.received += 1;
                            }
                            None => return Ok(Poll::Pending),
                        }
                    }
                    // Fan the result back out if needed.
                    if matches!(self.op, CollOp::AllReduceSum | CollOp::Barrier) {
                        let payload = encode_f64s(&self.acc);
                        for peer in 1..size {
                            comm.post_send(peer, self.tag | 1 << 30, &payload);
                        }
                        comm.progress(ctx)?;
                    }
                    self.done = true;
                    return Ok(Poll::Ready(self.acc.clone()));
                }
                // Leaves await the fanned-back result.
                if self.stage == 1 {
                    match comm.try_recv(root, self.tag | 1 << 30) {
                        Some(d) => {
                            self.acc = decode_f64s(&d);
                            self.done = true;
                            return Ok(Poll::Ready(self.acc.clone()));
                        }
                        None => return Ok(Poll::Pending),
                    }
                }
                // ReduceSum leaf: fire-and-forget, but wait for tx drain so
                // the value is at least queued in the kernel.
                if self.stage == 3 {
                    self.done = true;
                    return Ok(Poll::Ready(self.acc.clone()));
                }
                Ok(Poll::Pending)
            }
            CollOp::Bcast => {
                if me == root {
                    if self.stage == 0 {
                        let payload = encode_f64s(&self.acc);
                        for peer in 1..size {
                            comm.post_send(peer, self.tag, &payload);
                        }
                        comm.progress(ctx)?;
                        self.stage = 1;
                    }
                    self.done = true;
                    Ok(Poll::Ready(self.acc.clone()))
                } else {
                    match comm.try_recv(root, self.tag) {
                        Some(d) => {
                            self.acc = decode_f64s(&d);
                            self.done = true;
                            Ok(Poll::Ready(self.acc.clone()))
                        }
                        None => Ok(Poll::Pending),
                    }
                }
            }
        }
    }
}

impl Encode for Collective {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u8(match self.op {
            CollOp::Barrier => 0,
            CollOp::ReduceSum => 1,
            CollOp::AllReduceSum => 2,
            CollOp::Bcast => 3,
        });
        w.put_u32(self.tag);
        w.put_u8(self.stage);
        w.put_u32(self.received);
        w.put_f64_slice(&self.acc);
        w.put_bool(self.done);
    }
}

impl Decode for Collective {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        let op = match r.get_u8()? {
            0 => CollOp::Barrier,
            1 => CollOp::ReduceSum,
            2 => CollOp::AllReduceSum,
            _ => CollOp::Bcast,
        };
        Ok(Collective {
            op,
            tag: r.get_u32()?,
            stage: r.get_u8()?,
            received: r.get_u32()?,
            acc: r.get_f64_slice()?,
            done: r.get_bool()?,
        })
    }
}

/// Encodes an `f64` vector as little-endian bytes.
pub fn encode_f64s(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend(x.to_le_bytes());
    }
    out
}

/// Decodes little-endian bytes into an `f64` vector.
pub fn decode_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8"))).collect()
}

/// Serializes an optional in-flight collective.
pub fn put_opt_coll(w: &mut RecordWriter, c: &Option<Collective>) {
    match c {
        Some(c) => {
            w.put_bool(true);
            c.encode(w);
        }
        None => w.put_bool(false),
    }
}

/// Deserializes an optional in-flight collective.
pub fn get_opt_coll(r: &mut RecordReader<'_>) -> DecodeResult<Option<Collective>> {
    Ok(if r.get_bool()? { Some(Collective::decode(r)?) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_parsing_handles_partials() {
        let mut buf = Vec::new();
        let mut inbox = VecDeque::new();
        // tag=7, len=4, payload "abcd", split across pushes.
        buf.extend(7u32.to_le_bytes());
        buf.extend(4u32.to_le_bytes());
        buf.extend(b"ab");
        MpiComm::parse_frames(&mut buf, &mut inbox);
        assert!(inbox.is_empty());
        buf.extend(b"cd");
        MpiComm::parse_frames(&mut buf, &mut inbox);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0], Msg { tag: 7, data: b"abcd".to_vec() });
        assert!(buf.is_empty());
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
        c.unidentified.push((44, vec![7]));
        c.coll_seq = 3;
        let mut w = RecordWriter::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = MpiComm::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.rank, 1);
        assert_eq!(back.links[0].txq, c.links[0].txq);
        assert_eq!(back.links[2].inbox, c.links[2].inbox);
        assert_eq!(back.unidentified, c.unidentified);
    }

    #[test]
    fn collective_serialization_round_trip() {
        let mut comm = MpiComm::new(0, vec![10]);
        let coll = comm.start_collective(CollOp::AllReduceSum, vec![2.5, 3.5]);
        let mut w = RecordWriter::new();
        coll.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(Collective::decode(&mut r).unwrap(), coll);
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
}
