//! A live-traffic key-value server and its client fleet: the workload for
//! "checkpoint under fire".
//!
//! The §6 applications are batch jobs — they tolerate a checkpoint landing
//! anywhere because nobody is waiting on them. A network service is the
//! harder case: clients observe every stall, and a checkpoint that loses or
//! duplicates even one byte of a response stream is immediately visible.
//! This module provides both halves:
//!
//! * [`KvServer`] — a single long-lived server: framed PUT/GET protocol
//!   over TCP, a deterministic store kept in its address space,
//!   per-connection transmit backpressure, and an **idle-timeout reaper**
//!   that closes connections whose clients went silent (the server-side
//!   half of the half-open connection story; the TCP layer's SYN_RCVD
//!   retransmission reaper is the other half).
//! * [`KvClient`] — one client connection. Three personalities:
//!   [`ClientMode::Normal`] pumps requests at full speed;
//!   [`ClientMode::Slow`] dribbles tiny partial writes every few steps so
//!   request frames straddle segment boundaries (and the server's receive
//!   window fills, exercising zero-window flow control);
//!   [`ClientMode::HalfOpen`] connects, emits a truncated frame header,
//!   and then goes silent — a client that died without closing.
//!
//! **Zero-loss verification is end-to-end.** Each client folds every
//! response byte it receives into an FNV-1a digest and compares it against
//! the digest of the response stream it *predicted* when generating the
//! requests (the protocol is deterministic per client, so the expected
//! stream is computable up front). A dropped, duplicated, reordered or
//! corrupted byte anywhere — stack, wire, checkpoint, restore, migration —
//! shows up as a digest or sequence mismatch and a negative exit code. The
//! client also timestamps response arrivals with unvirtualized cluster
//! time, so its exit code can carry the maximum client-visible stall (the
//! number the §6-style "under fire" benchmarks want).
//!
//! **The store lives in the server's address space**, like every other
//! workload's bulk state: an append-only record arena and a table of
//! bucket heads. A record is a `u32` link to the older record
//! of its bucket, `klen` and `vlen` as LEB128 varints, key and value; a
//! bucket head links to the bucket's newest record, chosen by a Fibonacci
//! hash of the key's FNV-1a digest. The program state keeps only control
//! state — connections, counters and the table's geometry — so a
//! checkpoint copies two regions instead of walking a map, a restart copies
//! them back with no per-entry work, and a PUT dirties only the arena's
//! tail and one page of heads, which is what lets live migration pre-copy
//! the store while the server runs. The chains live in the append-only
//! arena, so only the small head table and the tail differ between two
//! snapshots. A restored table that disagrees with its regions is never
//! trusted: the server exits with [`fail::STORE`].

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::ops::Range;
use zapc_proto::{
    Decode, DecodeError, DecodeResult, Encode, Endpoint, RecordReader, RecordWriter, Transport,
};
use zapc_sim::memory::AddressSpace;
use zapc_sim::{Errno, ProcessCtx, Program, StepOutcome};

/// Registry key for the server.
pub const KV_SERVER_TYPE: &str = "apps.kv_server";
/// Registry key for the client.
pub const KV_CLIENT_TYPE: &str = "apps.kv_client";
/// Well-known server port.
pub const KV_PORT: u16 = 7100;

/// Protocol opcodes.
pub mod ops {
    /// Store a value; response is an empty OK.
    pub const PUT: u8 = 1;
    /// Fetch a value; response carries it (or MISS).
    pub const GET: u8 = 2;
    /// Client is done; no response, counts toward server completion.
    pub const BYE: u8 = 3;
}

/// Response status codes.
pub mod status {
    /// Key missing (GET only).
    pub const MISS: u8 = 0;
    /// Success.
    pub const OK: u8 = 1;
}

/// Request frame header length: seq u32 + op u8 + klen u16 + vlen u32.
pub const REQ_HDR: usize = 11;
/// Response frame header length: seq u32 + status u8 + vlen u32.
pub const RESP_HDR: usize = 9;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a accumulator.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Appends one request frame to `out`.
pub fn push_request(out: &mut VecDeque<u8>, seq: u32, op: u8, key: &[u8], val: &[u8]) {
    out.extend(seq.to_le_bytes());
    out.push_back(op);
    out.extend((key.len() as u16).to_le_bytes());
    out.extend((val.len() as u32).to_le_bytes());
    out.extend(key.iter().copied());
    out.extend(val.iter().copied());
}

/// Encodes one response frame.
pub fn response_frame(seq: u32, st: u8, val: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(RESP_HDR + val.len());
    f.extend(seq.to_le_bytes());
    f.push(st);
    f.extend((val.len() as u32).to_le_bytes());
    f.extend(val);
    f
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-assigned sequence number.
    pub seq: u32,
    /// Opcode (see [`ops`]).
    pub op: u8,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes (PUT only).
    pub val: Vec<u8>,
}

/// A malformed request header (lengths beyond `max_frame`, unknown
/// opcode — a garbage or hostile stream). The connection is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadFrame;

/// Tries to parse one request frame from the front of `buf`. Returns
/// `Ok(None)` when incomplete, `Err(BadFrame)` when the header is
/// malformed.
pub fn parse_request(buf: &mut Vec<u8>, max_frame: usize) -> Result<Option<Request>, BadFrame> {
    if buf.len() < REQ_HDR {
        return Ok(None);
    }
    let seq = u32::from_le_bytes(buf[0..4].try_into().expect("4"));
    let op = buf[4];
    let klen = u16::from_le_bytes(buf[5..7].try_into().expect("2")) as usize;
    let vlen = u32::from_le_bytes(buf[7..11].try_into().expect("4")) as usize;
    if !(ops::PUT..=ops::BYE).contains(&op) || klen + vlen > max_frame {
        return Err(BadFrame);
    }
    if buf.len() < REQ_HDR + klen + vlen {
        return Ok(None);
    }
    let key = buf[REQ_HDR..REQ_HDR + klen].to_vec();
    let val = buf[REQ_HDR + klen..REQ_HDR + klen + vlen].to_vec();
    buf.drain(..REQ_HDR + klen + vlen);
    Ok(Some(Request { seq, op, key, val }))
}

/// Deterministic key for client `id`, slot `k`.
pub fn key_bytes(id: u32, k: u32) -> Vec<u8> {
    format!("c{id}-k{k}").into_bytes()
}

/// Deterministic value for client `id`, slot `k`: `base_len` plus a
/// slot-dependent skew so frames vary in size.
pub fn val_bytes(id: u32, k: u32, base_len: usize) -> Vec<u8> {
    let len = base_len + (k as usize % 29);
    (0..len)
        .map(|i| (id.wrapping_mul(31) as usize + k as usize * 7 + i) as u8)
        .collect()
}

// =======================================================================
// Server
// =======================================================================

/// Server parameters.
#[derive(Debug, Clone)]
pub struct KvServerConfig {
    /// Listen port.
    pub port: u16,
    /// BYEs to collect before exiting (one per request-sending client).
    pub expected_byes: u32,
    /// Connections idle longer than this (virtual ms) are reaped.
    pub idle_timeout_ms: u64,
    /// Maximum key+value size a frame may claim before the connection is
    /// treated as garbage and dropped.
    pub max_frame: usize,
}

impl Default for KvServerConfig {
    fn default() -> Self {
        KvServerConfig {
            port: KV_PORT,
            expected_byes: 1,
            idle_timeout_ms: 2_000,
            max_frame: 64 * 1024,
        }
    }
}

#[derive(Debug, Clone)]
struct Conn {
    fd: u32,
    rxbuf: Vec<u8>,
    txq: VecDeque<u8>,
    last_active_ms: u64,
    dead: bool,
}

impl Encode for Conn {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.fd);
        w.put(&self.rxbuf);
        w.put(&self.txq);
        w.put(&self.last_active_ms);
    }
}

impl Decode for Conn {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Conn {
            fd: r.get()?,
            rxbuf: r.get()?,
            txq: r.get()?,
            last_active_ms: r.get()?,
            dead: false,
        })
    }
}

/// Reads a port saved as a `u32`, refusing one that does not fit a `u16`.
fn get_port(r: &mut RecordReader<'_>) -> DecodeResult<u16> {
    let port = r.get_u32()?;
    u16::try_from(port).map_err(|_| DecodeError::InvalidEnum { what: "port", value: port as u64 })
}

/// A store that does not match its table's geometry: a region is
/// missing, the bucket region's length disagrees with the bucket count, or
/// a chain leaves the arena or fails to run towards its start. Also a store
/// whose arena outgrew `u32` offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFault;

/// Buckets a fresh table starts with (one page of heads).
const INITIAL_BUCKETS: u32 = 1024;
/// Average chain length at which the bucket count doubles.
const MAX_CHAIN: u32 = 4;
/// Dead arena bytes (records shadowed by a value of another length) the
/// server tolerates before it compacts the arena.
const COMPACT_MIN_DEAD: u64 = 64 * 1024;

/// Geometry of the server's store in its address space: all the program
/// state knows about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Table {
    /// Base of the record arena.
    arena: u64,
    /// Base of the bucket heads: `buckets` little-endian `u32`s.
    heads: u64,
    /// Bucket count, a power of two; doubles at [`MAX_CHAIN`] keys per
    /// bucket.
    buckets: u32,
    /// Keys stored.
    len: u32,
    /// Arena bytes held by shadowed records.
    dead: u64,
}

/// One record's place in the arena: `next` (`u32`, 0 or one plus the
/// offset of the bucket's older record), `klen` and `vlen` varints, key,
/// value.
struct Record {
    start: usize,
    next: u32,
    key: Range<usize>,
    val: Range<usize>,
}

/// Reads a LEB128 `u32` at `*at`, advancing it.
fn get_varint(bytes: &[u8], at: &mut usize) -> Result<u32, StoreFault> {
    let mut v = 0u32;
    for shift in (0..35).step_by(7) {
        let b = *bytes.get(*at).ok_or(StoreFault)?;
        *at += 1;
        v |= ((b & 0x7f) as u32) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(StoreFault)
}

fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_u32(bytes: &[u8], at: usize) -> Result<u32, StoreFault> {
    let b = bytes.get(at..at + 4).ok_or(StoreFault)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4")))
}

/// `link` (0, or one plus an arena offset) for a record at `at`.
fn link(at: usize) -> Result<u32, StoreFault> {
    u32::try_from(at + 1).map_err(|_| StoreFault)
}

impl Record {
    /// The record that `link` names, checked against the arena's end.
    fn at(arena: &[u8], link: u32) -> Result<Record, StoreFault> {
        let start = (link as usize).checked_sub(1).ok_or(StoreFault)?;
        let next = get_u32(arena, start)?;
        let mut at = start + 4;
        let klen = get_varint(arena, &mut at)? as usize;
        let vlen = get_varint(arena, &mut at)? as usize;
        let key = at..at + klen;
        let val = key.end..key.end + vlen;
        if val.end > arena.len() {
            return Err(StoreFault);
        }
        Ok(Record { start, next, key, val })
    }

    /// Appends a record to `out`; returns its link.
    fn append(out: &mut Vec<u8>, next: u32, key: &[u8], val: &[u8]) -> Result<u32, StoreFault> {
        let at = link(out.len())?;
        out.extend_from_slice(&next.to_le_bytes());
        put_varint(out, key.len() as u32);
        put_varint(out, val.len() as u32);
        out.extend_from_slice(key);
        out.extend_from_slice(val);
        Ok(at)
    }
}

/// The bucket of `key` among `buckets` (a power of two).
fn bucket(key: &[u8], buckets: u32) -> usize {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, key);
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (buckets as usize - 1)
}

/// Walks the chain that starts at `head`, newest record first. Every link
/// must point further towards the arena's start than the record holding
/// it, so a chain always ends, whatever the arena holds.
fn chain(arena: &[u8], head: u32) -> impl Iterator<Item = Result<Record, StoreFault>> + '_ {
    let mut next = head;
    std::iter::from_fn(move || {
        if next == 0 {
            return None;
        }
        let rec = Record::at(arena, next).and_then(|r| match r.next as usize <= r.start {
            true => Ok(r),
            false => Err(StoreFault),
        });
        next = rec.as_ref().map_or(0, |r| r.next);
        Some(rec)
    })
}

/// The newest record of `key` in its bucket's chain.
fn find(
    heads: &[u8],
    arena: &[u8],
    buckets: u32,
    key: &[u8],
) -> Result<Option<Record>, StoreFault> {
    let head = get_u32(heads, bucket(key, buckets) * 4)?;
    for rec in chain(arena, head) {
        let rec = rec?;
        if arena[rec.key.clone()] == *key {
            return Ok(Some(rec));
        }
    }
    Ok(None)
}

/// The newest record of every key, bucket by bucket.
fn live_records(heads: &[u8], arena: &[u8]) -> Result<Vec<Record>, StoreFault> {
    let mut live = Vec::new();
    for b in 0..heads.len() / 4 {
        let mut seen = HashSet::new();
        for rec in chain(arena, get_u32(heads, b * 4)?) {
            let rec = rec?;
            if seen.insert(&arena[rec.key.clone()]) {
                live.push(rec);
            }
        }
    }
    Ok(live)
}

/// Every key and its value in a server's store, read from the address
/// space alone (its `kv.arena` and `kv.heads` regions): what a server
/// leaves behind when it exits, for comparing runs.
pub fn store_entries(mem: &AddressSpace) -> Result<BTreeMap<Vec<u8>, Vec<u8>>, StoreFault> {
    let region = |name: &str| mem.regions().find(|r| r.name == name).ok_or(StoreFault);
    let heads = mem.bytes(region("kv.heads")?.base).ok_or(StoreFault)?;
    let arena = mem.bytes(region("kv.arena")?.base).ok_or(StoreFault)?;
    let live = live_records(heads, arena)?;
    Ok(live.into_iter().map(|r| (arena[r.key].to_vec(), arena[r.val].to_vec())).collect())
}

impl Table {
    /// Maps an empty store into `mem`.
    fn map(mem: &mut AddressSpace) -> Table {
        Table {
            arena: mem.map_bytes("kv.arena", 0),
            heads: mem.map_bytes("kv.heads", INITIAL_BUCKETS as usize * 4),
            buckets: INITIAL_BUCKETS,
            len: 0,
            dead: 0,
        }
    }

    /// The bucket heads and the arena, checked against the geometry.
    fn regions<'a>(&self, mem: &'a AddressSpace) -> Result<(&'a [u8], &'a [u8]), StoreFault> {
        let heads = mem.bytes(self.heads).ok_or(StoreFault)?;
        let arena = mem.bytes(self.arena).ok_or(StoreFault)?;
        if !self.buckets.is_power_of_two() || heads.len() != self.buckets as usize * 4 {
            return Err(StoreFault);
        }
        Ok((heads, arena))
    }

    /// Looks `key` up; the value's bytes if stored.
    fn get<'a>(&self, mem: &'a AddressSpace, key: &[u8]) -> Result<Option<&'a [u8]>, StoreFault> {
        let (heads, arena) = self.regions(mem)?;
        Ok(find(heads, arena, self.buckets, key)?.map(|rec| &arena[rec.val]))
    }

    /// Stores `val` under `key` as a new record at the head of the key's
    /// chain, which shadows any older one. Only the pages written are
    /// dirtied: the arena's tail and one bucket head.
    fn put(&mut self, mem: &mut AddressSpace, key: &[u8], val: &[u8]) -> Result<(), StoreFault> {
        let (heads, arena) = self.regions(mem)?;
        let b = bucket(key, self.buckets);
        match find(heads, arena, self.buckets, key)? {
            Some(rec) => self.dead = self.dead.saturating_add((rec.val.end - rec.start) as u64),
            None => self.len = self.len.saturating_add(1),
        }
        let mut rec = Vec::with_capacity(key.len() + val.len() + 8);
        Record::append(&mut rec, get_u32(heads, b * 4)?, key, val)?;
        let at = mem.bytes_extend(self.arena, &rec).ok_or(StoreFault)?;
        let head = mem.bytes_range_mut(self.heads, b * 4..b * 4 + 4).ok_or(StoreFault)?;
        head.copy_from_slice(&link(at)?.to_le_bytes());
        let arena_len = mem.bytes(self.arena).map_or(0, <[u8]>::len) as u64;
        if self.len > MAX_CHAIN.saturating_mul(self.buckets) {
            self.rebuild(mem, self.buckets.checked_mul(2).ok_or(StoreFault)?)?;
        } else if self.dead >= COMPACT_MIN_DEAD && self.dead > arena_len / 2 {
            self.rebuild(mem, self.buckets)?;
        }
        Ok(())
    }

    /// Rewrites the arena with only the newest record of each key, oldest
    /// first, chained into `buckets` fresh buckets: how the table grows
    /// and how it sheds shadowed records.
    fn rebuild(&mut self, mem: &mut AddressSpace, buckets: u32) -> Result<(), StoreFault> {
        let (heads, arena) = self.regions(mem)?;
        let mut live = live_records(heads, arena)?;
        live.sort_unstable_by_key(|r| r.start);
        let mut fresh = Vec::with_capacity(arena.len().saturating_sub(self.dead as usize));
        let mut table = vec![0u8; buckets as usize * 4];
        for rec in &live {
            let key = &arena[rec.key.clone()];
            let b = bucket(key, buckets) * 4;
            let next = get_u32(&table, b)?;
            let at = Record::append(&mut fresh, next, key, &arena[rec.val.clone()])?;
            table[b..b + 4].copy_from_slice(&at.to_le_bytes());
        }
        *mem.bytes_mut(self.arena).ok_or(StoreFault)? = fresh;
        *mem.bytes_mut(self.heads).ok_or(StoreFault)? = table;
        self.buckets = buckets;
        self.len = u32::try_from(live.len()).map_err(|_| StoreFault)?;
        self.dead = 0;
        Ok(())
    }
}

impl Encode for Table {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.arena);
        w.put(&self.heads);
        w.put(&self.buckets);
        w.put(&self.len);
        w.put(&self.dead);
    }
}

impl Decode for Table {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Table {
            arena: r.get()?,
            heads: r.get()?,
            buckets: r.get()?,
            len: r.get()?,
            dead: r.get()?,
        })
    }
}

/// The key-value server process.
pub struct KvServer {
    cfg: KvServerConfig,
    listening: bool,
    listen_fd: u32,
    conns: Vec<Conn>,
    table: Table,
    byes: u32,
    served: u64,
    reaped: u64,
}

impl KvServer {
    /// A server with `cfg`.
    pub fn new(cfg: KvServerConfig) -> KvServer {
        KvServer {
            cfg,
            listening: false,
            listen_fd: 0,
            conns: Vec::new(),
            table: Table::default(),
            byes: 0,
            served: 0,
            reaped: 0,
        }
    }

    /// Connections reaped by the idle timeout so far.
    pub fn reaped(&self) -> u64 {
        self.reaped
    }

    fn apply(
        &mut self,
        mem: &mut AddressSpace,
        req: Request,
        txq: &mut VecDeque<u8>,
    ) -> Result<(), StoreFault> {
        match req.op {
            ops::PUT => {
                self.table.put(mem, &req.key, &req.val)?;
                self.served += 1;
                txq.extend(response_frame(req.seq, status::OK, &[]));
            }
            ops::GET => {
                self.served += 1;
                match self.table.get(mem, &req.key)? {
                    Some(v) => txq.extend(response_frame(req.seq, status::OK, v)),
                    None => txq.extend(response_frame(req.seq, status::MISS, &[])),
                }
            }
            _ => {
                // BYE: no response; the client counts as finished.
                self.byes += 1;
            }
        }
        Ok(())
    }

    /// Closes every descriptor and exits with `code`.
    fn exit(&self, ctx: &mut ProcessCtx<'_>, code: i32) -> StepOutcome {
        for c in &self.conns {
            let _ = ctx.close(c.fd);
        }
        let _ = ctx.close(self.listen_fd);
        StepOutcome::Exited(code)
    }
}

impl Program for KvServer {
    fn type_name(&self) -> &'static str {
        KV_SERVER_TYPE
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        if !self.listening {
            let fd = match ctx.socket(Transport::Tcp) {
                Ok(fd) => fd,
                Err(_) => return StepOutcome::Blocked,
            };
            if ctx.bind(fd, Endpoint { ip: 0, port: self.cfg.port }).is_err()
                || ctx.listen(fd, 512).is_err()
            {
                let _ = ctx.close(fd);
                return StepOutcome::Blocked;
            }
            self.listen_fd = fd;
            self.listening = true;
            self.table = Table::map(ctx.mem);
        }
        let now = ctx.now_ms();

        // Admit new connections.
        loop {
            match ctx.accept(self.listen_fd) {
                Ok((fd, _peer)) => self.conns.push(Conn {
                    fd,
                    rxbuf: Vec::new(),
                    txq: VecDeque::new(),
                    last_active_ms: now,
                    dead: false,
                }),
                Err(Errno::EAGAIN) => break,
                Err(_) => break,
            }
        }

        // Pump every connection: read, apply, respond.
        let mut conns = std::mem::take(&mut self.conns);
        let mut fault = false;
        for c in conns.iter_mut() {
            loop {
                match ctx.recv(c.fd, 64 * 1024, zapc_net::RecvFlags::default()) {
                    Ok(d) if d.is_empty() => {
                        // Orderly EOF: the client closed after its BYE.
                        c.dead = true;
                        break;
                    }
                    Ok(d) => {
                        c.rxbuf.extend(d);
                        c.last_active_ms = now;
                    }
                    Err(Errno::EAGAIN) => break,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            while !fault {
                match parse_request(&mut c.rxbuf, self.cfg.max_frame) {
                    Ok(Some(req)) => fault = self.apply(ctx.mem, req, &mut c.txq).is_err(),
                    Ok(None) => break,
                    Err(BadFrame) => {
                        // Garbage stream: drop the connection.
                        c.dead = true;
                        break;
                    }
                }
            }
            while !c.txq.is_empty() {
                let chunk: Vec<u8> = c.txq.iter().take(16 * 1024).copied().collect();
                match ctx.send(c.fd, &chunk) {
                    Ok(n) => {
                        c.txq.drain(..n);
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(Errno::EAGAIN) => break,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            // Idle-timeout reaper: a silent connection with nothing left to
            // send is presumed half-open (the client is gone without FIN).
            if !c.dead
                && c.txq.is_empty()
                && now.saturating_sub(c.last_active_ms) > self.cfg.idle_timeout_ms
            {
                c.dead = true;
                self.reaped += 1;
            }
            if c.dead {
                let _ = ctx.close(c.fd);
            }
        }
        conns.retain(|c| !c.dead);
        self.conns = conns;
        if fault {
            return self.exit(ctx, fail::STORE);
        }

        // Drain remaining responses before leaving (a BYE can arrive while
        // another connection's tx queue is still non-empty).
        if self.byes >= self.cfg.expected_byes && self.conns.iter().all(|c| c.txq.is_empty()) {
            // The exit code encodes the operation count: deterministic for
            // a given fleet, so disturbed and undisturbed runs can be
            // compared bit-for-bit.
            return self.exit(ctx, (self.served % 251) as i32);
        }
        StepOutcome::Ready
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u32(self.cfg.port as u32);
        w.put_u32(self.cfg.expected_byes);
        w.put_u64(self.cfg.idle_timeout_ms);
        w.put_u64(self.cfg.max_frame as u64);
        w.put_bool(self.listening);
        w.put_u32(self.listen_fd);
        w.put(&self.conns);
        w.put(&self.table);
        w.put_u32(self.byes);
        w.put_u64(self.served);
        w.put_u64(self.reaped);
    }
}

/// Server loader.
pub fn load_server(r: &mut RecordReader<'_>) -> DecodeResult<Box<dyn Program>> {
    let cfg = KvServerConfig {
        port: get_port(r)?,
        expected_byes: r.get_u32()?,
        idle_timeout_ms: r.get_u64()?,
        max_frame: r.get_u64()? as usize,
    };
    Ok(Box::new(KvServer {
        cfg,
        listening: r.get_bool()?,
        listen_fd: r.get_u32()?,
        conns: r.get()?,
        table: r.get()?,
        byes: r.get_u32()?,
        served: r.get_u64()?,
        reaped: r.get_u64()?,
    }))
}

// =======================================================================
// Client
// =======================================================================

/// Client personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientMode {
    /// Pumps requests at full speed.
    Normal,
    /// Dribbles tiny partial writes, pausing between pumps.
    Slow,
    /// Connects, sends a truncated frame header, then goes silent.
    HalfOpen,
}

impl ClientMode {
    /// Every mode, in code order.
    pub const ALL: [ClientMode; 3] = [ClientMode::Normal, ClientMode::Slow, ClientMode::HalfOpen];
}

zapc_proto::table_codec!(ClientMode, "ClientMode", ClientMode::ALL, u32);

/// Client parameters.
#[derive(Debug, Clone)]
pub struct KvClientConfig {
    /// Server's virtual IP.
    pub server_vip: u32,
    /// Server port.
    pub port: u16,
    /// Client id (namespaces its keys).
    pub id: u32,
    /// Requests to issue (PUT/GET alternating).
    pub requests: u32,
    /// Base value length (a per-slot skew is added).
    pub val_len: usize,
    /// Maximum outstanding (unanswered) requests.
    pub window: u32,
    /// Personality.
    pub mode: ClientMode,
    /// Maximum bytes handed to one `send` call (partial writes).
    pub chunk: usize,
    /// Slow mode: pump only every Nth step.
    pub slow_every: u64,
    /// Half-open mode: give up and exit after this much silence
    /// (virtual ms) if the server never reaps us.
    pub halfopen_linger_ms: u64,
    /// Report the maximum client-visible stall (unvirtualized ms) as the
    /// exit code instead of 0. Leave off when comparing runs bit-for-bit.
    pub report_stall: bool,
    /// Receive-buffer size to set before connecting (0 = stack default).
    /// A tiny buffer plus a dribbling reader drives the server's send
    /// side into honest zero-window stalls and persist-timer probes.
    pub rcv_buf: u32,
}

impl Default for KvClientConfig {
    fn default() -> Self {
        KvClientConfig {
            server_vip: 0,
            port: KV_PORT,
            id: 0,
            requests: 32,
            val_len: 64,
            window: 8,
            mode: ClientMode::Normal,
            chunk: 4 * 1024,
            slow_every: 3,
            halfopen_linger_ms: 10_000,
            report_stall: false,
            rcv_buf: 0,
        }
    }
}

/// Failure exit codes (negative so tests can assert `code >= 0`).
pub mod fail {
    /// Response sequence gap or repeat: a lost or duplicated frame.
    pub const SEQUENCE: i32 = -2;
    /// Response digest mismatch: corrupted or misordered bytes.
    pub const DIGEST: i32 = -3;
    /// The connection failed mid-run.
    pub const CONN: i32 = -4;
    /// Server closed the stream before all responses arrived.
    pub const EOF: i32 = -5;
    /// The server's store did not match its table geometry (a hostile or
    /// corrupt image): the server exits rather than serve wrong data.
    pub const STORE: i32 = -6;
}

const PH_START: u8 = 0;
const PH_CONNECTING: u8 = 1;
const PH_RUNNING: u8 = 2;
const PH_HALFOPEN: u8 = 3;

/// One client connection.
pub struct KvClient {
    cfg: KvClientConfig,
    phase: u8,
    fd: u32,
    step_no: u64,
    /// Requests generated so far (== next seq to assign).
    next_seq: u32,
    /// Responses fully parsed so far (== next seq expected).
    acked: u32,
    txq: VecDeque<u8>,
    rxbuf: Vec<u8>,
    /// Digest of the predicted response stream.
    expect_digest: u64,
    /// Digest of the bytes actually received.
    got_digest: u64,
    resp_bytes: u64,
    /// Unvirtualized ms of the last received byte (or last send).
    last_rx_real: u64,
    /// Maximum observed gap while a response was outstanding.
    max_stall_ms: u64,
    /// Virtual-ms timestamp the half-open client went silent.
    idle_since_ms: u64,
    bye_sent: bool,
    failed: i32,
}

impl KvClient {
    /// A client with `cfg`.
    pub fn new(cfg: KvClientConfig) -> KvClient {
        KvClient {
            cfg,
            phase: PH_START,
            fd: 0,
            step_no: 0,
            next_seq: 0,
            acked: 0,
            txq: VecDeque::new(),
            rxbuf: Vec::new(),
            expect_digest: FNV_OFFSET,
            got_digest: FNV_OFFSET,
            resp_bytes: 0,
            last_rx_real: 0,
            max_stall_ms: 0,
            idle_since_ms: 0,
            bye_sent: false,
            failed: 0,
        }
    }

    /// Maximum client-visible stall observed (unvirtualized ms).
    pub fn max_stall_ms(&self) -> u64 {
        self.max_stall_ms
    }

    /// Queues the next request and folds its predicted response into the
    /// expected digest.
    fn gen_request(&mut self) {
        let seq = self.next_seq;
        let k = seq / 2;
        let key = key_bytes(self.cfg.id, k);
        if seq.is_multiple_of(2) {
            let val = val_bytes(self.cfg.id, k, self.cfg.val_len);
            push_request(&mut self.txq, seq, ops::PUT, &key, &val);
            fnv1a(&mut self.expect_digest, &response_frame(seq, status::OK, &[]));
        } else {
            // GET of the key just PUT: the response value is predictable.
            let val = val_bytes(self.cfg.id, k, self.cfg.val_len);
            push_request(&mut self.txq, seq, ops::GET, &key, &[]);
            fnv1a(&mut self.expect_digest, &response_frame(seq, status::OK, &val));
        }
        self.next_seq += 1;
    }

    fn pump_tx(&mut self, ctx: &mut ProcessCtx<'_>) {
        while !self.txq.is_empty() {
            let n = self.cfg.chunk.min(self.txq.len());
            let chunk: Vec<u8> = self.txq.iter().take(n).copied().collect();
            match ctx.send(self.fd, &chunk) {
                Ok(n) => {
                    self.txq.drain(..n);
                    if self.last_rx_real == 0 {
                        self.last_rx_real = ctx.real_now_ms();
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(Errno::EAGAIN) => break,
                Err(_) => {
                    self.failed = fail::CONN;
                    break;
                }
            }
            if self.cfg.mode == ClientMode::Slow {
                break; // one dribble per pump
            }
        }
    }

    fn pump_rx(&mut self, ctx: &mut ProcessCtx<'_>) {
        // A slow client is a slow *consumer* as well as a slow producer:
        // it drains at most one `chunk` per pump, so its receive buffer
        // genuinely fills and the server sees honest zero windows
        // (drain-everything reads would hide flow control behind
        // scheduler timing).
        let max_read = if self.cfg.mode == ClientMode::Slow { self.cfg.chunk } else { 64 * 1024 };
        loop {
            match ctx.recv(self.fd, max_read, zapc_net::RecvFlags::default()) {
                Ok(d) if d.is_empty() => {
                    if self.acked < self.cfg.requests {
                        self.failed = fail::EOF;
                    }
                    break;
                }
                Ok(d) => {
                    // Client-visible stall: time since the last byte (or
                    // the first send) while a response was outstanding.
                    let now = ctx.real_now_ms();
                    if self.acked < self.next_seq && self.last_rx_real > 0 {
                        let gap = now.saturating_sub(self.last_rx_real);
                        self.max_stall_ms = self.max_stall_ms.max(gap);
                    }
                    self.last_rx_real = now;
                    fnv1a(&mut self.got_digest, &d);
                    self.resp_bytes += d.len() as u64;
                    self.rxbuf.extend(d);
                    self.parse_responses();
                    if self.cfg.mode == ClientMode::Slow {
                        break; // one dribble per pump
                    }
                }
                Err(Errno::EAGAIN) => break,
                Err(_) => {
                    self.failed = fail::CONN;
                    break;
                }
            }
        }
    }

    fn parse_responses(&mut self) {
        loop {
            if self.rxbuf.len() < RESP_HDR {
                return;
            }
            let seq = u32::from_le_bytes(self.rxbuf[0..4].try_into().expect("4"));
            let vlen = u32::from_le_bytes(self.rxbuf[5..9].try_into().expect("4")) as usize;
            if self.rxbuf.len() < RESP_HDR + vlen {
                return;
            }
            self.rxbuf.drain(..RESP_HDR + vlen);
            // Strictly in-order, exactly-once: any gap or repeat means a
            // frame was lost or delivered twice.
            if seq != self.acked {
                self.failed = fail::SEQUENCE;
                return;
            }
            self.acked += 1;
        }
    }

    fn finish_code(&self) -> i32 {
        if self.failed != 0 {
            return self.failed;
        }
        if self.got_digest != self.expect_digest {
            return fail::DIGEST;
        }
        if self.cfg.report_stall {
            self.max_stall_ms.min(1_000_000) as i32
        } else {
            0
        }
    }
}

impl Program for KvClient {
    fn type_name(&self) -> &'static str {
        KV_CLIENT_TYPE
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        self.step_no += 1;
        match self.phase {
            PH_START => {
                let fd = match ctx.socket(Transport::Tcp) {
                    Ok(fd) => fd,
                    Err(_) => return StepOutcome::Blocked,
                };
                if self.cfg.rcv_buf > 0 {
                    let _ = ctx.setsockopt(
                        fd,
                        zapc_net::SockOpt::RcvBuf,
                        zapc_net::OptValue::Int(self.cfg.rcv_buf),
                    );
                }
                let dst = Endpoint { ip: self.cfg.server_vip, port: self.cfg.port };
                if ctx.connect(fd, dst).is_err() {
                    let _ = ctx.close(fd);
                    return StepOutcome::Blocked;
                }
                self.fd = fd;
                self.phase = PH_CONNECTING;
                StepOutcome::Ready
            }
            PH_CONNECTING => {
                match ctx.is_connected(self.fd) {
                    Ok(true) => {
                        if self.cfg.mode == ClientMode::HalfOpen {
                            // A truncated header: too short to ever parse,
                            // never followed by more bytes.
                            let _ = ctx.send(self.fd, &[0xde, 0xad, 0xbe, 0xef, 0x01]);
                            self.idle_since_ms = ctx.now_ms();
                            self.phase = PH_HALFOPEN;
                        } else {
                            self.phase = PH_RUNNING;
                        }
                    }
                    Ok(false) => return StepOutcome::Blocked,
                    Err(_) => {
                        // Server not listening yet: retry the connect.
                        let _ = ctx.close(self.fd);
                        self.phase = PH_START;
                    }
                }
                StepOutcome::Ready
            }
            PH_RUNNING => {
                if self.cfg.mode == ClientMode::Slow
                    && !self.step_no.is_multiple_of(self.cfg.slow_every.max(1))
                {
                    ctx.consume_cpu(200);
                    return StepOutcome::Blocked;
                }
                while self.failed == 0
                    && self.next_seq < self.cfg.requests
                    && self.next_seq - self.acked < self.cfg.window.max(1)
                {
                    self.gen_request();
                }
                if self.failed == 0 {
                    self.pump_tx(ctx);
                }
                if self.failed == 0 {
                    self.pump_rx(ctx);
                }
                if self.failed != 0 {
                    let _ = ctx.close(self.fd);
                    return StepOutcome::Exited(self.finish_code());
                }
                if self.acked == self.cfg.requests {
                    if !self.bye_sent {
                        push_request(&mut self.txq, self.next_seq, ops::BYE, b"", b"");
                        self.bye_sent = true;
                    }
                    if self.txq.is_empty() {
                        let code = self.finish_code();
                        let _ = ctx.shutdown(self.fd, zapc_net::Shutdown::Write);
                        let _ = ctx.close(self.fd);
                        return StepOutcome::Exited(code);
                    }
                }
                StepOutcome::Ready
            }
            _ => {
                // Half-open: hold the connection silently. Exit when the
                // server reaps us (EOF / reset) or after the linger bound.
                match ctx.recv(self.fd, 1024, zapc_net::RecvFlags::default()) {
                    Ok(d) if d.is_empty() => return StepOutcome::Exited(0),
                    Ok(_) => {}
                    Err(Errno::EAGAIN) => {}
                    Err(_) => return StepOutcome::Exited(0),
                }
                if ctx.now_ms().saturating_sub(self.idle_since_ms)
                    > self.cfg.halfopen_linger_ms
                {
                    return StepOutcome::Exited(0);
                }
                StepOutcome::Blocked
            }
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u32(self.cfg.server_vip);
        w.put_u32(self.cfg.port as u32);
        w.put_u32(self.cfg.id);
        w.put_u32(self.cfg.requests);
        w.put_u64(self.cfg.val_len as u64);
        w.put_u32(self.cfg.window);
        w.put(&self.cfg.mode);
        w.put_u64(self.cfg.chunk as u64);
        w.put_u64(self.cfg.slow_every);
        w.put_u64(self.cfg.halfopen_linger_ms);
        w.put_bool(self.cfg.report_stall);
        w.put_u32(self.cfg.rcv_buf);
        w.put_u32(self.phase as u32);
        w.put_u32(self.fd);
        w.put_u64(self.step_no);
        w.put_u32(self.next_seq);
        w.put_u32(self.acked);
        w.put(&self.txq);
        w.put(&self.rxbuf);
        w.put_u64(self.expect_digest);
        w.put_u64(self.got_digest);
        w.put_u64(self.resp_bytes);
        w.put_u64(self.last_rx_real);
        w.put_u64(self.max_stall_ms);
        w.put_u64(self.idle_since_ms);
        w.put_bool(self.bye_sent);
        w.put_u32(self.failed as u32);
    }
}

/// Client loader.
pub fn load_client(r: &mut RecordReader<'_>) -> DecodeResult<Box<dyn Program>> {
    let cfg = KvClientConfig {
        server_vip: r.get_u32()?,
        port: get_port(r)?,
        id: r.get_u32()?,
        requests: r.get_u32()?,
        val_len: r.get_u64()? as usize,
        window: r.get_u32()?,
        mode: r.get()?,
        chunk: r.get_u64()? as usize,
        slow_every: r.get_u64()?,
        halfopen_linger_ms: r.get_u64()?,
        report_stall: r.get_bool()?,
        rcv_buf: r.get_u32()?,
    };
    let phase = r.get_u32()?;
    let phase = match u8::try_from(phase) {
        Ok(p) if p <= PH_HALFOPEN => p,
        _ => return Err(DecodeError::InvalidEnum { what: "KvClient phase", value: phase as u64 }),
    };
    Ok(Box::new(KvClient {
        cfg,
        phase,
        fd: r.get_u32()?,
        step_no: r.get_u64()?,
        next_seq: r.get_u32()?,
        acked: r.get_u32()?,
        txq: r.get()?,
        rxbuf: r.get()?,
        expect_digest: r.get_u64()?,
        got_digest: r.get_u64()?,
        resp_bytes: r.get_u64()?,
        last_rx_real: r.get_u64()?,
        max_stall_ms: r.get_u64()?,
        idle_since_ms: r.get_u64()?,
        bye_sent: r.get_bool()?,
        failed: r.get_u32()? as i32,
    }))
}

// =======================================================================
// Fleet launcher
// =======================================================================

/// Fleet parameters: one server pod plus enough client pods for the
/// requested connection count.
#[derive(Debug, Clone)]
pub struct KvFleetParams {
    /// Request-sending clients (Normal + Slow).
    pub clients: usize,
    /// Every Nth client is [`ClientMode::Slow`] (0 disables).
    pub slow_every: usize,
    /// Additional half-open clients (connect, then silence).
    pub halfopen: usize,
    /// Client processes per pod.
    pub clients_per_pod: usize,
    /// Requests per client.
    pub requests: u32,
    /// Base value length.
    pub val_len: usize,
    /// Per-client request window.
    pub window: u32,
    /// Server's idle-reap threshold (virtual ms).
    pub idle_timeout_ms: u64,
    /// Carry max stall in client exit codes (see [`KvClientConfig`]).
    pub report_stall: bool,
    /// Receive-buffer size for slow clients (0 = stack default). Sized
    /// under `window × response`, it forces zero-window stalls.
    pub slow_rcv_buf: u32,
}

impl Default for KvFleetParams {
    fn default() -> Self {
        KvFleetParams {
            clients: 24,
            slow_every: 4,
            halfopen: 2,
            clients_per_pod: 25,
            requests: 32,
            val_len: 64,
            window: 8,
            idle_timeout_ms: 2_000,
            report_stall: false,
            slow_rcv_buf: 0,
        }
    }
}

/// A launched fleet.
#[derive(Debug, Clone)]
pub struct KvFleet {
    /// The server pod's name.
    pub server_pod: String,
    /// Client pod names.
    pub client_pods: Vec<String>,
}

impl KvFleet {
    /// Every pod (server first) — the whole-application checkpoint set.
    pub fn all_pods(&self) -> Vec<String> {
        let mut v = vec![self.server_pod.clone()];
        v.extend(self.client_pods.iter().cloned());
        v
    }
}

/// Launches the fleet: the server on node 0, client pods round-robin
/// across the cluster. Pod names are `{prefix}-srv` / `{prefix}-c{i}`.
pub fn launch_kv(cluster: &zapc::Cluster, prefix: &str, p: &KvFleetParams) -> KvFleet {
    let server_pod = format!("{prefix}-srv");
    let srv = cluster.create_pod(&server_pod, 0);
    let vip = srv.vip();
    srv.spawn(
        "kv-server",
        Box::new(KvServer::new(KvServerConfig {
            port: KV_PORT,
            expected_byes: p.clients as u32,
            idle_timeout_ms: p.idle_timeout_ms,
            max_frame: 64 * 1024,
        })),
    );

    let total = p.clients + p.halfopen;
    let per_pod = p.clients_per_pod.max(1);
    let n_pods = total.div_ceil(per_pod);
    let mut client_pods = Vec::with_capacity(n_pods);
    for pi in 0..n_pods {
        let name = format!("{prefix}-c{pi}");
        let pod = cluster.create_pod(&name, pi % cluster.node_count());
        for ci in pi * per_pod..((pi + 1) * per_pod).min(total) {
            let mode = if ci >= p.clients {
                ClientMode::HalfOpen
            } else if p.slow_every > 0 && ci % p.slow_every == p.slow_every - 1 {
                ClientMode::Slow
            } else {
                ClientMode::Normal
            };
            let cfg = KvClientConfig {
                server_vip: vip,
                port: KV_PORT,
                id: ci as u32,
                requests: p.requests,
                val_len: p.val_len,
                window: p.window,
                mode,
                chunk: if mode == ClientMode::Slow { 7 } else { 4 * 1024 },
                slow_every: 3,
                halfopen_linger_ms: 10_000,
                report_stall: p.report_stall && mode != ClientMode::HalfOpen,
                rcv_buf: if mode == ClientMode::Slow { p.slow_rcv_buf } else { 0 },
            };
            pod.spawn(&format!("kv-client-{ci}"), Box::new(KvClient::new(cfg)));
        }
        client_pods.push(name);
    }
    KvFleet { server_pod, client_pods }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let mut q = VecDeque::new();
        push_request(&mut q, 7, ops::PUT, b"key", b"value");
        push_request(&mut q, 8, ops::GET, b"key", b"");
        let mut buf: Vec<u8> = q.into_iter().collect();
        let r1 = parse_request(&mut buf, 1024).unwrap().unwrap();
        assert_eq!(r1, Request { seq: 7, op: ops::PUT, key: b"key".to_vec(), val: b"value".to_vec() });
        let r2 = parse_request(&mut buf, 1024).unwrap().unwrap();
        assert_eq!(r2.op, ops::GET);
        assert!(buf.is_empty());
        assert!(parse_request(&mut buf, 1024).unwrap().is_none());
    }

    #[test]
    fn truncated_header_never_parses_and_garbage_is_rejected() {
        // The half-open client's 5-byte prefix stays incomplete forever.
        let mut buf = vec![0xde, 0xad, 0xbe, 0xef, 0x01];
        assert!(parse_request(&mut buf, 1024).unwrap().is_none());
        assert_eq!(buf.len(), 5, "incomplete frames are left in place");
        // A full header claiming an absurd length is typed garbage.
        let mut q = VecDeque::new();
        push_request(&mut q, 0, ops::PUT, b"k", &[0u8; 16]);
        let mut buf: Vec<u8> = q.into_iter().collect();
        buf[7] = 0xff;
        buf[8] = 0xff;
        buf[9] = 0xff;
        buf[10] = 0x7f;
        assert!(parse_request(&mut buf, 1024).is_err());
    }

    #[test]
    fn expected_digest_matches_server_responses() {
        // Simulate the server against a client's generated stream and
        // check the predicted digest equals the served digest.
        let mut client = KvClient::new(KvClientConfig {
            requests: 10,
            window: 10,
            ..Default::default()
        });
        for _ in 0..10 {
            client.gen_request();
        }
        let mut srv = KvServer::new(KvServerConfig::default());
        let mut mem = AddressSpace::new();
        srv.table = Table::map(&mut mem);
        let mut wire: Vec<u8> = client.txq.iter().copied().collect();
        let mut resp = VecDeque::new();
        while let Some(req) = parse_request(&mut wire, 64 * 1024).unwrap() {
            srv.apply(&mut mem, req, &mut resp).unwrap();
        }
        let mut served = FNV_OFFSET;
        let bytes: Vec<u8> = resp.into_iter().collect();
        fnv1a(&mut served, &bytes);
        assert_eq!(served, client.expect_digest, "prediction must match the server");
        // And the parser accepts the stream in order.
        client.got_digest = served;
        client.rxbuf = bytes;
        client.parse_responses();
        assert_eq!(client.acked, 10);
        assert_eq!(client.failed, 0);
        assert_eq!(client.finish_code(), 0);
    }

    #[test]
    fn out_of_order_response_is_a_sequence_failure() {
        let mut client = KvClient::new(KvClientConfig { requests: 2, ..Default::default() });
        client.next_seq = 2;
        // Response seq 1 arrives while 0 is expected: a lost frame.
        client.rxbuf = response_frame(1, status::OK, &[]);
        client.parse_responses();
        assert_eq!(client.failed, fail::SEQUENCE);
    }

    #[test]
    fn client_state_round_trips_through_save_load() {
        let mut c = KvClient::new(KvClientConfig {
            server_vip: 0x0a0a_0001,
            id: 3,
            mode: ClientMode::Slow,
            ..Default::default()
        });
        c.phase = PH_RUNNING;
        c.fd = 5;
        c.gen_request();
        c.gen_request();
        c.rxbuf = vec![1, 2, 3];
        c.max_stall_ms = 42;
        let mut w = RecordWriter::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = load_client(&mut r).unwrap();
        let mut w2 = RecordWriter::new();
        back.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "save → load → save must be identity");
    }

    #[test]
    fn server_state_round_trips_through_save_load() {
        let mut s = KvServer::new(KvServerConfig { expected_byes: 3, ..Default::default() });
        s.listening = true;
        s.listen_fd = 3;
        let mut mem = AddressSpace::new();
        s.table = Table::map(&mut mem);
        s.table.put(&mut mem, b"k", b"v").unwrap();
        s.conns.push(Conn {
            fd: 4,
            rxbuf: vec![9],
            txq: VecDeque::from(vec![1, 2]),
            last_active_ms: 77,
            dead: false,
        });
        s.byes = 1;
        s.served = 9;
        let mut w = RecordWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = load_server(&mut r).unwrap();
        let mut w2 = RecordWriter::new();
        back.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    /// A server whose store holds `clients × per_client` entries of the
    /// benchmark's shape (`c{id}-k{k}`, values of 16 bytes plus skew), put
    /// the way the clients put them.
    fn filled(clients: u32, per_client: u32) -> (KvServer, AddressSpace) {
        let mut s = KvServer::new(KvServerConfig::default());
        let mut mem = AddressSpace::new();
        s.table = Table::map(&mut mem);
        for k in 0..per_client {
            for id in 100_000..100_000 + clients {
                s.table.put(&mut mem, &key_bytes(id, k), &val_bytes(id, k, 16)).unwrap();
            }
        }
        (s, mem)
    }

    fn saved_len(s: &KvServer) -> usize {
        let mut w = RecordWriter::new();
        s.save(&mut w);
        w.into_bytes().len()
    }

    #[test]
    fn saved_state_does_not_grow_with_the_store() {
        let (empty, _) = filled(0, 0);
        let (full, mem) = filled(64, 157);
        assert_eq!(full.table.len, 64 * 157);
        assert_eq!(full.table.buckets, 4096, "grown twice");
        assert!(full.table.len >= 10_000);
        assert!(mem.total_bytes() > 400_000, "the entries live in regions");
        assert_eq!(saved_len(&full), saved_len(&empty), "state is control state only");
        assert!(saved_len(&full) < 200, "{} bytes", saved_len(&full));
    }

    #[test]
    fn store_regions_cost_no_more_per_entry_than_a_serialized_map() {
        // What `save` wrote per entry before the store moved into regions:
        // the map encoding, 16 bytes of length prefixes plus key and value.
        for per_client in [16, 157, 438, 750] {
            let (s, mem) = filled(64, per_client);
            let mut map = BTreeMap::new();
            for k in 0..per_client {
                for id in 100_000..100_000 + 64 {
                    let (key, val) = (key_bytes(id, k), val_bytes(id, k, 16));
                    assert_eq!(s.table.get(&mem, &key).unwrap(), Some(val.as_slice()));
                    map.insert(key, val);
                }
            }
            assert_eq!(store_entries(&mem).unwrap(), map);
            let mut w = RecordWriter::new();
            w.put(&map);
            let (regions, codec) = (mem.total_bytes(), w.into_bytes().len());
            let n = map.len() as f64;
            assert!(
                regions <= codec && regions as f64 <= 0.95 * codec as f64,
                "{} entries: {:.1} B/entry in regions > {:.1} B/entry serialized",
                map.len(),
                regions as f64 / n,
                codec as f64 / n
            );
        }
    }

    #[test]
    fn overwrites_shadow_and_compaction_reclaims_arena_bytes() {
        let mut mem = AddressSpace::new();
        let mut t = Table::map(&mut mem);
        for round in 0..400u32 {
            for k in 0..64u32 {
                // Every overwrite appends a record that shadows the last.
                let val = vec![round as u8; 100 + (round as usize / 2 % 2) * 50];
                t.put(&mut mem, &key_bytes(k, 0), &val).unwrap();
            }
        }
        assert_eq!(t.len, 64);
        for k in 0..64u32 {
            assert_eq!(t.get(&mem, &key_bytes(k, 0)).unwrap(), Some(&[143u8; 150][..]));
        }
        assert_eq!(store_entries(&mem).unwrap().len(), 64, "shadowed records are not entries");
        assert_eq!(t.get(&mem, b"absent").unwrap(), None);
        let arena = mem.bytes(t.arena).unwrap().len();
        assert!(arena < 2 * COMPACT_MIN_DEAD as usize + 64 * 160, "arena {arena} B not compacted");
    }

    #[test]
    fn hostile_geometry_is_a_store_fault_not_a_panic() {
        let (s, mem) = filled(4, 8);
        let t = s.table;
        let key = key_bytes(100_000, 0);
        let faults = [
            Table { buckets: t.buckets / 2, ..t },
            Table { buckets: t.buckets + 1, ..t },
            Table { buckets: 0, ..t },
            Table { arena: 0xdead, ..t },
            Table { heads: t.arena, ..t },
        ];
        for bad in faults {
            assert_eq!(bad.get(&mem, &key), Err(StoreFault), "{bad:?}");
            assert_eq!(bad.clone().put(&mut mem.clone(), &key, b"v"), Err(StoreFault), "{bad:?}");
        }
        // Every bucket head past the arena's end.
        let mut past = mem.clone();
        past.bytes_mut(t.heads).unwrap().fill(0xff);
        assert_eq!(t.get(&past, &key), Err(StoreFault));
        // A record whose link points at itself: the chain would never end.
        let b = bucket(&key, t.buckets) * 4;
        let head = u32::from_le_bytes(mem.bytes(t.heads).unwrap()[b..b + 4].try_into().unwrap());
        let mut cycle = mem.clone();
        let at = head as usize - 1;
        cycle.bytes_range_mut(t.arena, at..at + 4).unwrap().copy_from_slice(&head.to_le_bytes());
        assert_eq!(t.get(&cycle, &key), Err(StoreFault));
        let mut probe = t;
        for k in 0..64 {
            // Some key lands in the looping bucket and must fault, not spin.
            let _ = probe.put(&mut cycle, &key_bytes(7, k), b"v");
        }
        assert!(probe.rebuild(&mut cycle, t.buckets).is_err(), "a looping chain is a fault");
        // A key count that lies is recounted by the rebuild it triggers.
        let (s, mut m) = filled(4, 8);
        let mut liar = Table { len: u32::MAX, ..s.table };
        liar.put(&mut m, b"new", b"v").unwrap();
        assert_eq!((liar.len, liar.buckets), (33, 2 * t.buckets));
        assert_eq!(liar.get(&m, b"new").unwrap(), Some(&b"v"[..]));
        // So is a dead-byte count past the arena's size.
        let mut dead = Table { dead: u64::MAX, ..liar };
        dead.put(&mut m, b"newer", b"v").unwrap();
        assert_eq!((dead.dead, dead.len), (0, 34));
    }
}
