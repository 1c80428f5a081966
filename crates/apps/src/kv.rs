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
//!   over TCP, a deterministic in-memory store, per-connection transmit
//!   backpressure, and an **idle-timeout reaper** that closes connections
//!   whose clients went silent (the server-side half of the half-open
//!   connection story; the TCP layer's SYN_RCVD retransmission reaper is
//!   the other half).
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

use std::collections::{BTreeMap, VecDeque};
use zapc_proto::{
    Decode, DecodeError, DecodeResult, Encode, Endpoint, RecordReader, RecordWriter, Transport,
};
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

/// The key-value server process.
pub struct KvServer {
    cfg: KvServerConfig,
    listening: bool,
    listen_fd: u32,
    conns: Vec<Conn>,
    store: BTreeMap<Vec<u8>, Vec<u8>>,
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
            store: BTreeMap::new(),
            byes: 0,
            served: 0,
            reaped: 0,
        }
    }

    /// Connections reaped by the idle timeout so far.
    pub fn reaped(&self) -> u64 {
        self.reaped
    }

    fn apply(&mut self, req: Request, txq: &mut VecDeque<u8>) {
        match req.op {
            ops::PUT => {
                self.store.insert(req.key, req.val);
                self.served += 1;
                txq.extend(response_frame(req.seq, status::OK, &[]));
            }
            ops::GET => {
                self.served += 1;
                match self.store.get(&req.key) {
                    Some(v) => {
                        let f = response_frame(req.seq, status::OK, v);
                        txq.extend(f);
                    }
                    None => txq.extend(response_frame(req.seq, status::MISS, &[])),
                }
            }
            _ => {
                // BYE: no response; the client counts as finished.
                self.byes += 1;
            }
        }
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
            loop {
                match parse_request(&mut c.rxbuf, self.cfg.max_frame) {
                    Ok(Some(req)) => self.apply(req, &mut c.txq),
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

        if self.byes >= self.cfg.expected_byes {
            // Drain remaining responses before leaving (a BYE can arrive
            // while another connection's tx queue is still non-empty).
            if self.conns.iter().all(|c| c.txq.is_empty()) {
                for c in &self.conns {
                    let _ = ctx.close(c.fd);
                }
                let _ = ctx.close(self.listen_fd);
                // The exit code encodes the operation count: deterministic
                // for a given fleet, so disturbed and undisturbed runs can
                // be compared bit-for-bit.
                return StepOutcome::Exited((self.served % 251) as i32);
            }
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
        w.put(&self.store);
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
        store: r.get()?,
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
        let mut wire: Vec<u8> = client.txq.iter().copied().collect();
        let mut resp = VecDeque::new();
        while let Some(req) = parse_request(&mut wire, 64 * 1024).unwrap() {
            srv.apply(req, &mut resp);
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
        s.store.insert(b"k".to_vec(), b"v".to_vec());
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
}
