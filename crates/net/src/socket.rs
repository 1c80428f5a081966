//! The socket layer: the application-visible abstraction of a communication
//! endpoint (§5: "the primary abstraction of a communication endpoint is a
//! socket").
//!
//! A [`Socket`] bundles the three state components the paper enumerates —
//! socket parameters ([`crate::opts::SockOpts`]), data queues
//! ([`crate::buf`], [`crate::udp`]), and protocol-specific state
//! ([`crate::tcp::Tcb`]) — behind `bind`/`listen`/`connect`/`accept`/
//! `send`/`recv`/`shutdown`/`close`.
//!
//! The network-state restore interposes on the operations that touch the
//! receive queue (`recv`, `poll`, `close`): it installs an *alternate
//! receive queue* holding restored data, which they consume before any
//! new network data (§5). Once the alternate queue drains, the only cost
//! left on the regular path is one `is_empty` check.
//!
//! A thread that blocks on sockets adds them to an [`EventWatch`] and
//! sleeps on it. A socket wakes its watches when its TCP connection becomes
//! established, reset or closed, when a child is queued on it, and when an
//! acknowledgment frees half its send buffer. Only the watching threads
//! wake, and a socket nobody watches pays one `is_empty` check.

use crate::opts::{OptValue, SockOpt, SockOpts};
use crate::seg::Segment;
use crate::stack::NetStack;
use crate::tcp::{Tcb, TcpState};
use crate::udp::{Datagram, DgramState};
use crate::wire::NetShared;
use crate::{NetError, NetResult};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};
use zapc_proto::{ConnState, Endpoint, Transport};

/// Globally unique socket identifier.
pub type SocketId = u64;

static NEXT_SOCKET_ID: AtomicU64 = AtomicU64::new(1);
static ISN_COUNTER: AtomicU64 = AtomicU64::new(0x1000);

pub(crate) fn fresh_isn() -> u64 {
    // Spread initial sequence numbers; determinism helps debugging.
    ISN_COUNTER.fetch_add(0x1_0001, Ordering::Relaxed)
}

/// Lifecycle phase of a socket as seen by the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketState {
    /// Created but not bound.
    Unbound,
    /// Bound to a local endpoint.
    Bound,
    /// TCP listener.
    Listening,
    /// TCP handshake in progress.
    Connecting,
    /// Connected (TCP established, or UDP with a default peer).
    Connected,
    /// Closed.
    Closed,
}

/// Flags for `recv`-family calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvFlags {
    /// `MSG_PEEK`: examine without consuming.
    pub peek: bool,
    /// `MSG_OOB`: read urgent (out-of-band) data.
    pub oob: bool,
}

/// Directions for [`Socket::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Disallow further receives.
    Read,
    /// Disallow further sends (emits FIN on TCP).
    Write,
    /// Both directions.
    Both,
}

/// Result of a `poll` on one socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollMask {
    /// Data (or a pending accept) is available.
    pub readable: bool,
    /// A write would accept at least one byte.
    pub writable: bool,
    /// Urgent data is pending.
    pub oob: bool,
    /// Peer finished sending (EOF after queued data).
    pub hup: bool,
    /// An asynchronous error is pending.
    pub err: bool,
}

/// What an [`EventWatch`] sleeps on: a count of the events of its sockets.
#[derive(Debug, Default)]
struct Signal {
    count: Mutex<u64>,
    cond: Condvar,
}

impl Signal {
    fn bump(&self) {
        *self.count.lock().unwrap() += 1;
        self.cond.notify_all();
    }
}

/// The watches one socket event wakes, taken under the socket's lock and
/// bumped after it is released.
#[derive(Default)]
struct Wake(Vec<Arc<Signal>>);

impl Wake {
    fn bump(self) {
        for signal in self.0 {
            signal.bump();
        }
    }
}

/// A waiter on the events of the sockets added to it. Add a socket
/// *before* checking the state to wait for: an event after the add makes
/// the next [`EventWatch::wait_until`] return at once. Any number of
/// watches may wait on one socket, each woken by its events.
#[derive(Debug, Default)]
pub struct EventWatch {
    signal: Arc<Signal>,
    seen: u64,
}

impl EventWatch {
    /// A watch with no sockets yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// From now on, events of `s` wake this watch too.
    pub fn add(&self, s: &Socket) {
        let mine = Arc::as_ptr(&self.signal);
        let mut inner = s.inner.lock().unwrap();
        // Drop the watches nobody waits on any more, and this one if it
        // was added before.
        inner.watch.retain(|w| w.strong_count() > 0 && w.as_ptr() != mine);
        inner.watch.push(Arc::downgrade(&self.signal));
    }

    /// Blocks until an event newer than the last one this watch returned
    /// for, or until `deadline`. Returns `false` on the deadline.
    pub fn wait_until(&mut self, deadline: Instant) -> bool {
        let mut count = self.signal.count.lock().unwrap();
        while *count == self.seen {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            count = self.signal.cond.wait_timeout(count, deadline - now).unwrap().0;
        }
        self.seen = *count;
        true
    }
}

/// TCP listener state.
#[derive(Debug, Default)]
pub struct ListenState {
    /// Maximum completed-but-unaccepted connections.
    pub backlog: usize,
    /// Completed connections awaiting `accept`.
    pub pending: VecDeque<Arc<Socket>>,
    /// Options of the children a restore expects, by peer: a SYN from one
    /// of these peers spawns its child with them instead of the
    /// listener's.
    pub child_opts: HashMap<Endpoint, SockOpts>,
}

/// The lock-protected interior of a socket. Fields are public so the
/// checkpoint-restart crates can extract and reinstate state the way a
/// kernel module reaches into `struct sock`.
pub struct SocketInner {
    /// Transport protocol fixed at creation.
    pub transport: Transport,
    /// Socket parameters.
    pub opts: SockOpts,
    /// Local endpoint once bound.
    pub local: Option<Endpoint>,
    /// Default source IP for auto-binding (the owning pod's virtual IP).
    pub default_ip: u32,
    /// TCP connection state.
    pub tcb: Option<Tcb>,
    /// Datagram (UDP / raw-IP) state.
    pub dgram: Option<DgramState>,
    /// Listener state.
    pub listen: Option<ListenState>,
    /// Listener that spawned this socket (accept notification).
    pub parent: Option<Weak<Socket>>,
    /// Alternate receive queue installed by network-state restore; served
    /// before the network queues while non-empty.
    pub alt_recv: VecDeque<u8>,
    /// Pending asynchronous error (connection refused/reset).
    pub err: Option<NetError>,
    /// `shutdown(Read)` was called.
    pub rd_shutdown: bool,
    /// `close()` was called: no descriptor references this socket any
    /// more; it is reaped from the stack once the TCB reaches `Closed`
    /// (the kernel-`sock`-freeing analogue).
    pub detached: bool,
    /// Lifecycle for non-TCB phases.
    pub phase: SocketState,
    /// A retransmission timer event is outstanding.
    pub rtx_scheduled: bool,
    /// Virtual clock stamped on outgoing segments (timing model).
    pub tx_vt: u64,
    /// Merged virtual clock of received data (timing model).
    pub rx_vt: u64,
    /// The [`EventWatch`]es this socket's events wake.
    watch: Vec<Weak<Signal>>,
}

impl std::fmt::Debug for SocketInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketInner")
            .field("transport", &self.transport)
            .field("local", &self.local)
            .field("phase", &self.phase)
            .finish_non_exhaustive()
    }
}

impl SocketInner {
    /// Effective lifecycle state, consulting the TCB when present.
    pub fn state(&self) -> SocketState {
        if let Some(tcb) = &self.tcb {
            return match tcb.state {
                TcpState::SynSent | TcpState::SynRcvd => SocketState::Connecting,
                TcpState::Established => SocketState::Connected,
                TcpState::Closed => SocketState::Closed,
            };
        }
        self.phase
    }

    /// Remote endpoint, if connected.
    pub fn peer(&self) -> Option<Endpoint> {
        if let Some(tcb) = &self.tcb {
            return Some(tcb.remote);
        }
        self.dgram.as_ref().and_then(|d| d.peer)
    }

    /// The watches to wake for an event of this socket; those nobody
    /// waits on any more are dropped.
    fn watchers(&mut self) -> Wake {
        if self.watch.is_empty() {
            return Wake::default();
        }
        self.watch.retain(|w| w.strong_count() > 0);
        Wake(self.watch.iter().filter_map(Weak::upgrade).collect())
    }

    /// Meta-data connection state for the checkpoint table.
    pub fn conn_state(&self) -> ConnState {
        match &self.tcb {
            Some(tcb) => tcb.conn_state(),
            None => ConnState::FullDuplex,
        }
    }
}

/// Reads from the socket: the alternate receive queue first while it
/// holds restored data (§5), then the network queues. Urgent reads bypass
/// the alternate queue (it holds stream data only); a peek leaves it in
/// place.
fn recvmsg(
    inner: &mut SocketInner,
    n: usize,
    flags: RecvFlags,
) -> NetResult<(Vec<u8>, Option<Endpoint>)> {
    if !flags.oob && !inner.alt_recv.is_empty() {
        let take = n.min(inner.alt_recv.len());
        let data: Vec<u8> = if flags.peek {
            inner.alt_recv.iter().take(take).copied().collect()
        } else {
            inner.alt_recv.drain(..take).collect()
        };
        return Ok((data, None));
    }
    if let Some(e) = inner.err.take() {
        return Err(e);
    }
    match inner.transport {
        Transport::Tcp => {
            let tcb = inner.tcb.as_mut().ok_or(NetError::NotConnected)?;
            if flags.oob {
                let d = if flags.peek { tcb.recv.peek_urgent(n) } else { tcb.recv.read_urgent(n) };
                if d.is_empty() {
                    return Err(NetError::WouldBlock);
                }
                return Ok((d, None));
            }
            if inner.rd_shutdown {
                return Ok((Vec::new(), None));
            }
            let d = if flags.peek { tcb.recv.peek(n) } else { tcb.recv.read(n) };
            if d.is_empty() {
                if tcb.recv.fin_reached() || tcb.state == TcpState::Closed {
                    return Ok((Vec::new(), None)); // EOF
                }
                return Err(NetError::WouldBlock);
            }
            Ok((d, None))
        }
        Transport::Udp | Transport::RawIp => {
            let q = &mut inner.dgram.as_mut().ok_or(NetError::Invalid)?.queue;
            let dg = if flags.peek { q.peek().cloned() } else { q.pop() };
            match dg {
                Some(mut d) => {
                    d.data.truncate(n.max(1));
                    Ok((d.data, Some(d.src)))
                }
                None => Err(NetError::WouldBlock),
            }
        }
    }
}

/// Readiness of the network queues (the alternate queue is added by
/// [`Socket::poll`]).
fn poll_mask(inner: &SocketInner) -> PollMask {
    let mut m = PollMask { err: inner.err.is_some(), ..Default::default() };
    match inner.transport {
        Transport::Tcp => {
            if let Some(l) = &inner.listen {
                m.readable = !l.pending.is_empty();
                return m;
            }
            if let Some(tcb) = &inner.tcb {
                m.readable = tcb.recv.readable() > 0 || tcb.recv.at_eof();
                m.oob = tcb.recv.urgent_len() > 0;
                m.hup = tcb.recv.fin_reached();
                m.writable = tcb.state == TcpState::Established
                    && tcb.send.room() > 0
                    && tcb.fin_seq.is_none()
                    && !tcb.fin_pending;
            }
        }
        Transport::Udp | Transport::RawIp => {
            if let Some(d) = &inner.dgram {
                m.readable = !d.queue.is_empty();
                m.writable = true;
            }
        }
    }
    m
}

/// A communication endpoint. Shared (`Arc`) between the owning process's
/// descriptor table, the node's stack maps, and in-flight timer events.
pub struct Socket {
    /// Unique id.
    pub id: SocketId,
    pub(crate) net: Arc<NetShared>,
    pub(crate) stack: Weak<NetStack>,
    pub(crate) inner: Mutex<SocketInner>,
}

impl std::fmt::Debug for Socket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Socket#{}", self.id)
    }
}

impl Socket {
    pub(crate) fn new(
        net: Arc<NetShared>,
        stack: Weak<NetStack>,
        transport: Transport,
        default_ip: u32,
        ip_proto: u8,
    ) -> Arc<Socket> {
        let opts = SockOpts::default();
        let dgram = (transport != Transport::Tcp)
            .then(|| DgramState::new(ip_proto, opts.rcv_buf as usize));
        Arc::new(Socket {
            id: NEXT_SOCKET_ID.fetch_add(1, Ordering::Relaxed),
            net,
            stack,
            inner: Mutex::new(SocketInner {
                transport,
                opts,
                local: None,
                default_ip,
                tcb: None,
                dgram,
                listen: None,
                parent: None,
                alt_recv: VecDeque::new(),
                err: None,
                rd_shutdown: false,
                detached: false,
                phase: SocketState::Unbound,
                rtx_scheduled: false,
                tx_vt: 0,
                rx_vt: 0,
                watch: Vec::new(),
            }),
        })
    }

    fn stack(&self) -> NetResult<Arc<NetStack>> {
        self.stack.upgrade().ok_or(NetError::Closed)
    }

    /// Runs `f` with the locked interior (checkpoint extraction path).
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut SocketInner) -> R) -> R {
        f(&mut self.inner.lock().unwrap())
    }

    /// Transport protocol.
    pub fn transport(&self) -> Transport {
        self.inner.lock().unwrap().transport
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SocketState {
        self.inner.lock().unwrap().state()
    }

    /// Local endpoint, if bound.
    pub fn local_addr(&self) -> Option<Endpoint> {
        self.inner.lock().unwrap().local
    }

    /// Remote endpoint, if connected.
    pub fn peer_addr(&self) -> Option<Endpoint> {
        self.inner.lock().unwrap().peer()
    }

    /// Takes a pending asynchronous error, if any.
    pub fn take_error(&self) -> Option<NetError> {
        self.inner.lock().unwrap().err.take()
    }

    /// True once a TCP connection is established (or UDP has a peer).
    pub fn is_connected(&self) -> bool {
        self.state() == SocketState::Connected
    }

    /// Sets the virtual clock attached to subsequent sends (timing model).
    pub fn set_tx_vt(&self, vt: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.tx_vt = vt;
        if let Some(tcb) = &mut inner.tcb {
            tcb.tx_vt = vt;
        }
    }

    /// Merged virtual clock of data received so far (timing model).
    pub fn rx_vt(&self) -> u64 {
        self.inner.lock().unwrap().rx_vt
    }

    /// `getsockopt`.
    pub fn getsockopt(&self, opt: SockOpt) -> OptValue {
        self.inner.lock().unwrap().opts.get(opt)
    }

    /// `setsockopt`, with live side effects where applicable.
    pub fn setsockopt(&self, opt: SockOpt, value: OptValue) -> NetResult<()> {
        let mut inner = self.inner.lock().unwrap();
        if !inner.opts.set(opt, value) {
            return Err(NetError::Invalid);
        }
        if opt == SockOpt::OobInline {
            if let (Some(tcb), OptValue::Bool(v)) = (&mut inner.tcb, value) {
                tcb.set_oob_inline(v);
            }
        }
        Ok(())
    }

    /// Binds to a local endpoint. Port 0 selects an ephemeral port.
    pub fn bind(&self, addr: Endpoint) -> NetResult<Endpoint> {
        let stack = self.stack()?;
        let mut inner = self.inner.lock().unwrap();
        if inner.local.is_some() {
            return Err(NetError::Invalid);
        }
        let transport = inner.transport;
        let reuse = inner.opts.reuse_addr;
        let ip_proto = inner.dgram.as_ref().map(|d| d.ip_proto);
        let bound = stack.bind_port(self.id, addr, transport, reuse, ip_proto)?;
        inner.local = Some(bound);
        inner.phase = SocketState::Bound;
        Ok(bound)
    }

    /// Marks a bound TCP socket as listening.
    pub fn listen(&self, backlog: usize) -> NetResult<()> {
        self.listen_expecting(backlog, HashMap::new())
    }

    /// Restore path: [`Socket::listen`], with the options of the children
    /// this listener will spawn for SYNs from each peer. They are in place
    /// before the first SYN can arrive, so a re-accepted connection holds
    /// its saved options from its first segment, before anyone accepts it.
    pub fn listen_expecting(
        &self,
        backlog: usize,
        child_opts: HashMap<Endpoint, SockOpts>,
    ) -> NetResult<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.transport != Transport::Tcp || inner.local.is_none() {
            return Err(NetError::Invalid);
        }
        if inner.listen.is_some() {
            return Ok(());
        }
        inner.listen =
            Some(ListenState { backlog: backlog.max(1), pending: VecDeque::new(), child_opts });
        inner.phase = SocketState::Listening;
        Ok(())
    }

    /// Restore path: replaces the options of the children this listener
    /// expects ([`Socket::listen_expecting`]).
    pub fn expect_children(&self, opts: HashMap<Endpoint, SockOpts>) -> NetResult<()> {
        let mut inner = self.inner.lock().unwrap();
        inner.listen.as_mut().ok_or(NetError::Invalid)?.child_opts = opts;
        Ok(())
    }

    /// Accepts one pending connection; `WouldBlock` when none is ready.
    pub fn accept(&self) -> NetResult<Arc<Socket>> {
        let mut inner = self.inner.lock().unwrap();
        let l = inner.listen.as_mut().ok_or(NetError::Invalid)?;
        l.pending.pop_front().ok_or(NetError::WouldBlock)
    }

    /// Initiates a connection (non-blocking). For TCP the handshake
    /// completes asynchronously; poll [`Socket::is_connected`]. For UDP this
    /// sets the default peer.
    pub fn connect(self: &Arc<Self>, dst: Endpoint) -> NetResult<()> {
        let stack = self.stack()?;
        let mut inner = self.inner.lock().unwrap();
        match inner.transport {
            Transport::Udp => {
                inner.dgram.as_mut().ok_or(NetError::Invalid)?.peer = Some(dst);
                if inner.local.is_none() {
                    let ip = inner.default_ip;
                    drop(inner);
                    self.bind(Endpoint { ip, port: 0 })?;
                    self.inner.lock().unwrap().phase = SocketState::Connected;
                } else {
                    inner.phase = SocketState::Connected;
                }
                Ok(())
            }
            Transport::RawIp => Err(NetError::Unsupported),
            Transport::Tcp => {
                if inner.tcb.is_some() {
                    return Err(NetError::AlreadyConnected);
                }
                if inner.local.is_none() {
                    let ip = inner.default_ip;
                    let transport = inner.transport;
                    let reuse = inner.opts.reuse_addr;
                    let bound =
                        stack.bind_port(self.id, Endpoint { ip, port: 0 }, transport, reuse, None)?;
                    inner.local = Some(bound);
                }
                let local = inner.local.expect("bound above");
                let tcb = Tcb::connect(
                    local,
                    dst,
                    fresh_isn(),
                    inner.opts.snd_buf as usize,
                    inner.opts.rcv_buf as usize,
                    inner.opts.tcp_max_seg as usize,
                    inner.opts.oob_inline,
                );
                let mut syn = tcb.make_syn();
                syn.vt = inner.tx_vt;
                inner.tcb = Some(tcb);
                inner.phase = SocketState::Connecting;
                drop(inner);
                stack.register_connection(local, dst, self);
                self.net.send(syn);
                self.ensure_rtx();
                Ok(())
            }
        }
    }

    /// Restore path: sends this connecting socket's SYN once more — same
    /// socket, same ISN, retransmission timer and backoff untouched. A SYN
    /// to an address not routed yet or still blocked is dropped unanswered;
    /// a restore connector whose peer pod is merely created later re-sends
    /// instead of waiting out the RTO. No-op once out of `SynSent`.
    pub fn resend_syn(&self) {
        let inner = self.inner.lock().unwrap();
        let Some(tcb) = inner.tcb.as_ref().filter(|t| t.state == TcpState::SynSent) else { return };
        let mut syn = tcb.make_syn();
        syn.vt = inner.tx_vt;
        drop(inner);
        self.net.send(syn);
    }

    /// Sends stream data; returns bytes queued, or `WouldBlock` when the
    /// send buffer is full.
    pub fn send(self: &Arc<Self>, data: &[u8]) -> NetResult<usize> {
        self.send_impl(data, false)
    }

    /// Sends urgent (out-of-band) data.
    pub fn send_oob(self: &Arc<Self>, data: &[u8]) -> NetResult<usize> {
        self.send_impl(data, true)
    }

    fn send_impl(self: &Arc<Self>, data: &[u8], urgent: bool) -> NetResult<usize> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.err.take() {
            return Err(e);
        }
        match inner.transport {
            Transport::Tcp => {
                let vt = inner.tx_vt;
                let tcb = inner.tcb.as_mut().ok_or(NetError::NotConnected)?;
                tcb.tx_vt = vt;
                let mut out = Vec::new();
                let n = tcb.write(data, urgent, &mut out)?;
                drop(inner);
                for s in out {
                    self.net.send(s);
                }
                self.ensure_rtx();
                Ok(n)
            }
            Transport::Udp | Transport::RawIp => {
                let peer = inner.peer().ok_or(NetError::NotConnected)?;
                drop(inner);
                self.sendto(peer, data)
            }
        }
    }

    /// Sends a datagram to `dst` (UDP / raw IP).
    pub fn sendto(self: &Arc<Self>, dst: Endpoint, data: &[u8]) -> NetResult<usize> {
        let mut inner = self.inner.lock().unwrap();
        let ip_proto = inner.dgram.as_ref().ok_or(NetError::Unsupported)?.ip_proto;
        if inner.local.is_none() {
            let ip = inner.default_ip;
            let transport = inner.transport;
            let reuse = inner.opts.reuse_addr;
            let stack = self.stack()?;
            let bound = stack.bind_port(
                self.id,
                Endpoint { ip, port: 0 },
                transport,
                reuse,
                Some(ip_proto),
            )?;
            inner.local = Some(bound);
        }
        let local = inner.local.expect("bound above");
        let mut seg = match inner.transport {
            Transport::RawIp => Segment::raw(local, dst, ip_proto, data.to_vec()),
            _ => Segment::udp(local, dst, data.to_vec()),
        };
        seg.vt = inner.tx_vt;
        drop(inner);
        self.net.send(seg);
        Ok(data.len())
    }

    /// Receives data, restored data first; returns the data read. An
    /// empty vector means EOF (TCP). `WouldBlock` means no data yet.
    pub fn recv(&self, n: usize, flags: RecvFlags) -> NetResult<Vec<u8>> {
        recvmsg(&mut self.inner.lock().unwrap(), n, flags).map(|(d, _)| d)
    }

    /// Receives one datagram with its source address (UDP / raw IP).
    pub fn recvfrom(&self, n: usize, flags: RecvFlags) -> NetResult<(Vec<u8>, Endpoint)> {
        let (d, src) = recvmsg(&mut self.inner.lock().unwrap(), n, flags)?;
        Ok((d, src.unwrap_or(Endpoint::ANY)))
    }

    /// Polls readiness; restored data still queued counts as readable.
    pub fn poll(&self) -> PollMask {
        let inner = self.inner.lock().unwrap();
        let mut m = poll_mask(&inner);
        m.readable |= !inner.alt_recv.is_empty();
        m
    }

    /// Shuts down one or both directions.
    pub fn shutdown(self: &Arc<Self>, how: Shutdown) -> NetResult<()> {
        let mut inner = self.inner.lock().unwrap();
        let mut out = Vec::new();
        if matches!(how, Shutdown::Read | Shutdown::Both) {
            inner.rd_shutdown = true;
        }
        if matches!(how, Shutdown::Write | Shutdown::Both) {
            if let Some(tcb) = &mut inner.tcb {
                tcb.close_send(&mut out);
            }
        }
        drop(inner);
        for s in out {
            self.net.send(s);
        }
        self.ensure_rtx();
        Ok(())
    }

    /// Graceful close: drops restored-but-unconsumed data, emits FIN on
    /// TCP, and deregisters listener/bind entries. The socket is detached:
    /// once its TCB (if any) finishes closing, the stack reaps it.
    pub fn close(self: &Arc<Self>) {
        let mut inner = self.inner.lock().unwrap();
        inner.alt_recv.clear();
        inner.detached = true;
        let mut out = Vec::new();
        let mut pending = None;
        if let Some(tcb) = &mut inner.tcb {
            tcb.close_send(&mut out);
        }
        if let Some(l) = inner.listen.take() {
            pending = Some(l.pending);
        }
        let bound = inner.local.is_some();
        if inner.tcb.is_none() {
            inner.phase = SocketState::Closed;
        }
        let reap = inner.tcb.as_ref().map(|t| t.state == TcpState::Closed).unwrap_or(true);
        let wake = inner.watchers();
        drop(inner);
        for s in out {
            self.net.send(s);
        }
        self.ensure_rtx();
        // Refuse connections that were pending on a closed listener.
        if let Some(pending) = pending {
            for child in pending {
                child.abort();
            }
        }
        if let Some(stack) = self.stack.upgrade().filter(|_| bound) {
            stack.unbind_port(self.id);
        }
        if reap {
            if let Some(stack) = self.stack.upgrade() {
                stack.remove_socket(self.id);
            }
        }
        wake.bump();
    }

    /// Hard abort: RST and immediate teardown.
    pub fn abort(self: &Arc<Self>) {
        let mut inner = self.inner.lock().unwrap();
        let mut out = Vec::new();
        if let Some(tcb) = &mut inner.tcb {
            tcb.abort(&mut out);
        }
        inner.phase = SocketState::Closed;
        let wake = inner.watchers();
        drop(inner);
        for s in out {
            self.net.send(s);
        }
        wake.bump();
    }

    /// Appends restored stream data to the alternate receive queue, which
    /// reads then serve before any network data (§5 restore path). May be
    /// called with more data appended later (send-queue merge optimization).
    pub fn install_alt_queue(&self, data: Vec<u8>) {
        self.inner.lock().unwrap().alt_recv.extend(data);
    }

    /// Restore path: reinstates urgent (out-of-band) data into the receive
    /// side's urgent queue (it is a separate channel from the alternate
    /// stream queue).
    pub fn restore_urgent(&self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some(tcb) = &mut inner.tcb {
            tcb.recv.restore_urgent(data);
        }
    }

    /// Restore path: marks the receive queue as having been peeked at
    /// (observable application state, §5).
    pub fn set_recv_peeked(&self) {
        let mut inner = self.inner.lock().unwrap();
        match inner.transport {
            Transport::Tcp => {
                if let Some(tcb) = &mut inner.tcb {
                    tcb.recv.peek(0);
                }
            }
            Transport::Udp | Transport::RawIp => {
                if let Some(d) = &mut inner.dgram {
                    d.queue.restore(Vec::new(), true);
                }
            }
        }
    }

    /// Restore path: puts an accepted child back on this listener's pending
    /// queue (the original connection had not been `accept`ed by the
    /// application when the checkpoint was taken).
    pub fn return_to_pending(&self, child: Arc<Socket>) -> NetResult<()> {
        let mut inner = self.inner.lock().unwrap();
        let l = inner.listen.as_mut().ok_or(NetError::Invalid)?;
        l.pending.push_back(child);
        let wake = inner.watchers();
        drop(inner);
        wake.bump();
        Ok(())
    }

    /// Restore path: refills a datagram receive queue (UDP / raw IP).
    pub fn restore_datagrams(&self, dgrams: Vec<Datagram>, peeked: bool) {
        if let Some(d) = &mut self.inner.lock().unwrap().dgram {
            d.queue.restore(dgrams, peeked);
        }
    }

    /// Whether reads are still served from the alternate receive queue.
    pub fn is_interposed(&self) -> bool {
        !self.inner.lock().unwrap().alt_recv.is_empty()
    }

    /// Arms the retransmission timer if the TCB needs one (stack-internal).
    pub(crate) fn kick_rtx(self: &Arc<Self>) {
        self.ensure_rtx();
    }

    fn ensure_rtx(self: &Arc<Self>) {
        let mut inner = self.inner.lock().unwrap();
        let needs = inner.tcb.as_ref().map(|t| t.needs_rtx()).unwrap_or(false);
        if needs && !inner.rtx_scheduled {
            inner.rtx_scheduled = true;
            let backoff = inner.tcb.as_ref().map(|t| t.rtx_backoff).unwrap_or(0);
            drop(inner);
            self.net.schedule_rtx(self, backoff);
        }
    }

    /// Retransmission timer callback (pump-thread context).
    pub(crate) fn on_rtx_timer(self: &Arc<Self>) {
        let mut inner = self.inner.lock().unwrap();
        inner.rtx_scheduled = false;
        let Some(tcb) = &mut inner.tcb else { return };
        // Abandon handshakes that never complete.
        if matches!(tcb.state, TcpState::SynSent) && tcb.rtx_backoff > 10 {
            tcb.state = TcpState::Closed;
            inner.err = Some(NetError::TimedOut);
            let wake = inner.watchers();
            drop(inner);
            wake.bump();
            return;
        }
        // Reap idle half-open children: a listener child whose final
        // handshake ACK never arrives (a client that SYN'd and vanished)
        // would otherwise sit in SynRcvd forever, leaking a demux entry
        // that shadows its 4-tuple across checkpoints.
        if matches!(tcb.state, TcpState::SynRcvd) && tcb.rtx_backoff > 8 {
            tcb.state = TcpState::Closed;
            let local = tcb.local;
            let reap = inner.detached || inner.parent.is_some();
            inner.err = Some(NetError::TimedOut);
            let wake = inner.watchers();
            drop(inner);
            wake.bump();
            self.net.obs_counter_with("net.halfopen_reaped", 1, || {
                format!("{:08x}:{}", local.ip, local.port)
            });
            if reap {
                if let Some(stack) = self.stack.upgrade() {
                    stack.remove_socket(self.id);
                }
            }
            return;
        }
        let probes_before = tcb.flow.zero_window_probes;
        let rto_before = tcb.cc.rto_events;
        let mut out = Vec::new();
        tcb.on_rtx_timer(&mut out);
        let probes = tcb.flow.zero_window_probes - probes_before;
        let rtos = tcb.cc.rto_events - rto_before;
        let needs = tcb.needs_rtx();
        let backoff = tcb.rtx_backoff;
        let local = tcb.local;
        if needs {
            inner.rtx_scheduled = true;
        }
        drop(inner);
        let site = || format!("{:08x}:{}", local.ip, local.port);
        if !out.is_empty() {
            self.net.obs_counter_with("net.retransmit", out.len() as u64, site);
        }
        if probes > 0 {
            self.net.obs_counter_with("net.zero_window_probe", probes, site);
        }
        if rtos > 0 {
            self.net.obs_counter_with("net.rto_timeout", rtos, site);
        }
        for s in out {
            self.net.send(s);
        }
        if needs {
            self.net.schedule_rtx(self, backoff);
        }
    }

    /// Handles one incoming TCP segment (pump-thread context, via the
    /// stack's demultiplexer).
    pub(crate) fn handle_segment(self: &Arc<Self>, seg: Segment) {
        let mut inner = self.inner.lock().unwrap();
        let vt_lat = self.net.cfg.vt_latency_ns;
        inner.rx_vt = inner.rx_vt.max(seg.vt + vt_lat);
        // Only a watched socket has anyone to wake: one that nobody
        // watches skips the event bookkeeping.
        let watched = !inner.watch.is_empty();
        let Some(tcb) = &mut inner.tcb else { return };
        let mut out = Vec::new();
        let pre_backlog = tcb.recv.backlog_segments();
        let fast_rtx_before = tcb.cc.fast_retransmits;
        let zero_enter_before = tcb.flow.zero_window_events;
        let trimmed_before = tcb.rx_window_trimmed;
        let before = watched.then(|| (tcb.send.room(), tcb.state != TcpState::Closed));
        let ev = tcb.input(&seg, &mut out);
        // Established, reset or closed, or half the send buffer free again:
        // a blocked writer wakes to a batch's worth of room, not per ack.
        let event = before.is_some_and(|(room_before, open_before)| {
            let half = (tcb.send.room() + tcb.send.len()).div_ceil(2);
            ev.established
                || ev.reset
                || (room_before < half && tcb.send.room() >= half)
                || (open_before && tcb.state == TcpState::Closed)
        });
        let ooo_grew = tcb.recv.backlog_segments() > pre_backlog;
        let fast_rtx = tcb.cc.fast_retransmits - fast_rtx_before;
        let zero_enters = tcb.flow.zero_window_events - zero_enter_before;
        let trimmed = tcb.rx_window_trimmed - trimmed_before;
        let local = tcb.local;
        if ev.reset {
            inner.err = Some(if inner.phase == SocketState::Connecting {
                NetError::ConnRefused
            } else {
                NetError::ConnReset
            });
        }
        if ev.established {
            inner.phase = SocketState::Connected;
        }
        let parent = if ev.established { inner.parent.take() } else { None };
        // Reap on close when no descriptor can ever reference this socket:
        // either it was close()d (detached), or it is a half-open child the
        // listener never surfaced (parent still set) — leaving the latter
        // in the demux tables would shadow its 4-tuple with a zombie that
        // answers every new SYN with a reset.
        let reap = (inner.detached || inner.parent.is_some())
            && inner.tcb.as_ref().map(|t| t.state == TcpState::Closed).unwrap_or(true);
        let wake = if event { inner.watchers() } else { Wake::default() };
        drop(inner);
        if ev.reset {
            self.net
                .obs_counter_with("net.reset", 1, || format!("{:08x}:{}", local.ip, local.port));
        }
        if ooo_grew {
            self.net.obs_counter_with("net.ooo_segment", 1, || {
                format!("{:08x}:{}", local.ip, local.port)
            });
        }
        let site = || format!("{:08x}:{}", local.ip, local.port);
        if fast_rtx > 0 {
            self.net.obs_counter_with("net.fast_retransmit", fast_rtx, site);
        }
        if zero_enters > 0 {
            self.net.obs_counter_with("net.zero_window_enter", zero_enters, site);
        }
        if trimmed > 0 {
            self.net.obs_counter_with("net.window_trim", trimmed, site);
        }
        for s in out {
            self.net.send(s);
        }
        self.ensure_rtx();
        if reap {
            if let Some(stack) = self.stack.upgrade() {
                stack.remove_socket(self.id);
            }
        }
        // Completed child handshake: hand ourselves to the listener.
        if let Some(parent) = parent.and_then(|w| w.upgrade()) {
            let mut p = parent.inner.lock().unwrap();
            if let Some(l) = &mut p.listen {
                if l.pending.len() < l.backlog {
                    l.pending.push_back(Arc::clone(self));
                    let queued = p.watchers();
                    drop(p);
                    queued.bump();
                } else {
                    drop(p);
                    self.abort();
                }
            } else {
                drop(p);
                self.abort();
            }
        }
        wake.bump();
    }

    /// Delivers a datagram (UDP / raw) into the receive queue. The stack has
    /// already matched a raw segment's protocol number to this socket.
    pub(crate) fn handle_datagram(self: &Arc<Self>, seg: Segment) {
        let mut inner = self.inner.lock().unwrap();
        inner.rx_vt = inner.rx_vt.max(seg.vt + self.net.cfg.vt_latency_ns);
        if let Some(d) = inner.dgram.as_mut().filter(|d| d.accepts_from(seg.src)) {
            d.queue.push(Datagram { src: seg.src, data: seg.payload });
        }
    }

    // ---- Blocking conveniences (agent/restore threads, tests) ----------

    /// Waits until the connection is established, an error surfaces, or
    /// `timeout` elapses.
    pub fn connect_wait(&self, timeout: Duration) -> NetResult<()> {
        let deadline = Instant::now() + timeout;
        let mut watch = EventWatch::new();
        watch.add(self);
        loop {
            match self.state() {
                SocketState::Connected => return Ok(()),
                SocketState::Closed => {
                    return Err(self.take_error().unwrap_or(NetError::ConnRefused))
                }
                _ => {}
            }
            if let Some(e) = self.take_error() {
                return Err(e);
            }
            if !watch.wait_until(deadline) {
                return Err(NetError::TimedOut);
            }
        }
    }

    /// Blocking accept with a timeout.
    pub fn accept_wait(&self, timeout: Duration) -> NetResult<Arc<Socket>> {
        let deadline = Instant::now() + timeout;
        let mut watch = EventWatch::new();
        watch.add(self);
        loop {
            match self.accept() {
                Err(NetError::WouldBlock) => {}
                other => return other,
            }
            if !watch.wait_until(deadline) {
                return Err(NetError::TimedOut);
            }
        }
    }

    /// Writes all of `data`, blocking while the send buffer is full.
    pub fn write_all_wait(self: &Arc<Self>, data: &[u8], timeout: Duration) -> NetResult<()> {
        let deadline = Instant::now() + timeout;
        let mut off = 0;
        // Added at the first full buffer, before the send that retries.
        let mut watch = None;
        while off < data.len() {
            match self.send(&data[off..]) {
                Ok(n) => off += n,
                Err(NetError::WouldBlock) => match &mut watch {
                    None => {
                        let w = EventWatch::new();
                        w.add(self);
                        watch = Some(w);
                    }
                    Some(w) => {
                        if !w.wait_until(deadline) {
                            return Err(NetError::TimedOut);
                        }
                    }
                },
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Blocking datagram receive with a timeout (UDP / raw IP).
    pub fn read_datagram_wait(&self, timeout: Duration) -> NetResult<(Vec<u8>, Endpoint)> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.recvfrom(usize::MAX, RecvFlags::default()) {
                Err(NetError::WouldBlock) => {
                    if Instant::now() >= deadline {
                        return Err(NetError::TimedOut);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                other => return other,
            }
        }
    }

    /// Reads exactly `n` bytes, blocking as needed.
    pub fn read_exact_wait(&self, n: usize, timeout: Duration) -> NetResult<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        let mut buf = Vec::with_capacity(n);
        while buf.len() < n {
            match self.recv(n - buf.len(), RecvFlags::default()) {
                Ok(d) if d.is_empty() => return Err(NetError::Closed), // EOF mid-read
                Ok(d) => buf.extend(d),
                Err(NetError::WouldBlock) => {
                    if Instant::now() >= deadline {
                        return Err(NetError::TimedOut);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_flags_default_is_plain_read() {
        let f = RecvFlags::default();
        assert!(!f.peek && !f.oob);
    }
}
