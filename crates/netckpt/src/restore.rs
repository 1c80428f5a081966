//! Network-state restart: reconnect, then reinstate queues and minimal
//! protocol state (§4–§5).
//!
//! Because ZapC restarts the *entire* distributed application, it controls
//! both ends of every connection, so sockets are reconstructed with plain
//! `connect`/`accept` pairs — no kernel data-structure surgery. Two threads
//! run per Agent: one accepts incoming connections, the other establishes
//! outgoing ones, which makes the schedule deadlock-free for any topology
//! without computing a global order (§4's ring example).
//!
//! Neither thread works one connection at a time. The connector dials
//! every connect-role entry first and then waits on the events of its
//! sockets for all of them together, re-sending unanswered SYNs and
//! redialing refusals; the acceptor matches children to entries as they
//! queue on any expected listener. Each thread returns once its own
//! connections are up. Each listener is given the saved options of the
//! children it expects before it listens, and builds each child with them
//! at SYN time, so the options hold from a child's first segment, before
//! it is accepted.
//!
//! After connectivity is back, per-socket state is applied:
//!
//! 1. socket parameters via `setsockopt` (the full set; a re-accepted
//!    child already has them from its SYN),
//! 2. the saved receive stream into the **alternate receive queue** (with
//!    dispatch-vector interposition) and urgent data into the OOB queue,
//! 3. the saved send queue re-sent in stream order with ordinary `write`s
//!    (`send_oob` for urgent runs) before the restore deadline, after
//!    discarding the overlap `recv₂ − acked₁` that the peer's receive
//!    queue already covers (Figure 4),
//! 4. `shutdown` replayed for half-duplex/closed connections (after the
//!    data, as the paper specifies),
//! 5. datagram queues refilled and `MSG_PEEK` observability restored.
//!
//! No network blocking is needed during any of this: the re-established
//! connections carry only data the restore explicitly sends (§4).

use crate::records::SockRecord;
use crate::{NetCkptError, NetCkptResult};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zapc_net::udp::Datagram;
use zapc_net::{
    buf::SendSnapshot, EventWatch, NetError, NetStack, Shutdown, SockOpts, Socket, SocketState,
};
use zapc_pod::Pod;
use zapc_proto::{ConnState, Endpoint, MetaData, RestartRole, Transport};

/// Inputs of a pod's network restart.
pub struct NetworkRestorePlan<'a> {
    /// This pod's meta-data with Manager-assigned roles.
    pub my_meta: &'a MetaData,
    /// The merged cluster meta-data (peer PCB values for overlap discard).
    pub all_meta: &'a [MetaData],
    /// This pod's per-socket records, ordinal-indexed.
    pub records: &'a [SockRecord],
    /// Overall deadline for reconnection and the send-queue replay.
    pub timeout: Duration,
    /// Event observer; per-socket `netckpt.sock_restore` spans and
    /// resend-byte counters flow through it.
    pub obs: zapc_obs::Observer,
}

/// Restores the pod's network state; returns the reconstructed sockets by
/// checkpoint ordinal (entries that need no socket — e.g. a peer's
/// mid-handshake child — stay `None`).
pub fn restore_network(
    pod: &Arc<Pod>,
    plan: &NetworkRestorePlan<'_>,
) -> NetCkptResult<Vec<Option<Arc<Socket>>>> {
    let records = plan.records;
    let entries = &plan.my_meta.entries;
    if records.len() != entries.len() {
        return Err(NetCkptError::Inconsistent("meta/record length mismatch"));
    }
    // Reject semantically hostile records up front: everything below does
    // sequence-number arithmetic on these fields, and a malformed image
    // must surface as an error, never a panic.
    for rec in records {
        rec.validate().map_err(NetCkptError::Inconsistent)?;
    }
    let stack = Arc::clone(&pod.node().stack);
    let vip = pod.vip();
    let deadline = Instant::now() + plan.timeout;

    let mut out: Vec<Option<Arc<Socket>>> = vec![None; records.len()];
    let mut listeners: HashMap<Endpoint, Arc<Socket>> = HashMap::new();
    let mut temp_listeners: Vec<Arc<Socket>> = Vec::new();
    let mut connects: Vec<usize> = Vec::new();
    let mut accepts: Vec<usize> = Vec::new();
    let mut backlogs: Vec<(Endpoint, usize)> = Vec::new();

    // ---- Phase 1: listeners (bound, not yet listening), datagram
    // sockets, plain sockets ----------------------------------------------
    for (i, rec) in records.iter().enumerate() {
        match rec.transport {
            Transport::Udp | Transport::RawIp => {
                let s = stack.socket(rec.transport, vip, rec.ip_proto);
                apply_opts(&s, rec);
                if let Some(local) = rec.local {
                    s.bind(local)?;
                }
                // Only UDP saves a peer; a raw socket cannot connect.
                if let Some(peer) = rec.peer {
                    s.connect(peer)?;
                }
                s.restore_datagrams(to_dgrams(&rec.dgrams), rec.recv_peeked);
                out[i] = Some(s);
            }
            Transport::Tcp => {
                if rec.listening {
                    let local = rec
                        .local
                        .ok_or(NetCkptError::Inconsistent("listener without address"))?;
                    let s = stack.socket(Transport::Tcp, vip, 6);
                    apply_opts(&s, rec);
                    s.bind(local)?;
                    // Ensure room for every re-accepted child plus the
                    // original backlog headroom.
                    let expected = entries
                        .iter()
                        .filter(|e| e.role == RestartRole::Accept && e.src == local)
                        .count();
                    backlogs.push((local, rec.backlog as usize + expected));
                    listeners.insert(local, Arc::clone(&s));
                    out[i] = Some(s);
                } else if rec.pcb.is_some() && rec.peer.is_some() {
                    if entries[i].state == ConnState::Connecting
                        && entries[i].role == RestartRole::Accept
                    {
                        // Half-open listener-side child: the peer's
                        // replayed connect will regenerate it through the
                        // restored listener; nothing to create here.
                        continue;
                    }
                    // A dead (Closed) connection whose other half was
                    // never recorded by any pod cannot be re-established;
                    // stand in a closed stub so descriptor re-linking
                    // works and the application sees the dead socket it
                    // already had.
                    if entries[i].state == ConnState::Closed
                        && rec
                            .peer
                            .and_then(|dst| lookup_peer_recv(plan.all_meta, entries[i].src, dst))
                            .is_none()
                    {
                        let s = stack.socket(Transport::Tcp, vip, 6);
                        apply_opts(&s, rec);
                        s.abort();
                        s.with_inner(|inner| inner.err = rec.err);
                        out[i] = Some(s);
                        continue;
                    }
                    match entries[i].role {
                        RestartRole::Connect => connects.push(i),
                        RestartRole::Accept => accepts.push(i),
                        RestartRole::Unassigned => {
                            return Err(NetCkptError::Inconsistent("unscheduled connection"))
                        }
                    }
                } else {
                    // Plain (unconnected) TCP socket, possibly bound.
                    let s = stack.socket(Transport::Tcp, vip, 6);
                    apply_opts(&s, rec);
                    if let Some(local) = rec.local {
                        s.bind(local)?;
                    }
                    out[i] = Some(s);
                }
            }
        }
    }

    // ---- Phase 2: listen, plus temporary listeners for accept-role
    // endpoints whose source port is not a real listener (arbitrary-role
    // assignments) ---------------------------------------------------------
    // Each listener builds every child it expects with that child's saved
    // options, so they hold from the child's first segment: a peer that
    // reconnects first may replay its send queue before the accept. The
    // options are in place before the listener listens, since a peer's
    // connector may be dialing already.
    let expecting = |local: Endpoint| -> HashMap<Endpoint, SockOpts> {
        accepts
            .iter()
            .map(|&i| &records[i])
            .filter(|r| r.local == Some(local))
            .filter_map(|r| Some((r.peer?, r.opts.clone())))
            .collect()
    };
    for &(local, backlog) in &backlogs {
        listeners[&local].listen_expecting(backlog, expecting(local))?;
    }
    for &i in &accepts {
        let local = records[i].local.ok_or(NetCkptError::Inconsistent("conn without address"))?;
        if let std::collections::hash_map::Entry::Vacant(e) = listeners.entry(local) {
            let expected = accepts.iter().filter(|&&j| records[j].local == Some(local)).count();
            let s = stack.socket(Transport::Tcp, vip, 6);
            s.bind(local)?;
            s.listen_expecting(expected.max(4), expecting(local))?;
            e.insert(Arc::clone(&s));
            temp_listeners.push(s);
        }
    }

    // ---- Phase 3: the reconnection rendezvous ----------------------------
    let (dialed, accepted) = std::thread::scope(|scope| {
        let connector = scope.spawn(|| connect_all(&stack, vip, records, &connects, deadline));
        let accepted = accept_all(&stack, records, &accepts, &listeners, deadline);
        let panicked = Err(NetCkptError::Inconsistent("restore connector panicked"));
        (connector.join().unwrap_or(panicked), accepted)
    });
    for listener in listeners.values() {
        listener.expect_children(HashMap::new())?;
    }
    let dialed = dialed?;
    let (accepted, sidelined) = accepted?;
    for (i, s) in dialed.into_iter().chain(accepted) {
        out[i] = Some(s);
    }

    // Inbound connections that matched no expected entry are *not* strays
    // by default: a connection that was mid-handshake at checkpoint time is
    // regenerated by the peer's replayed connect and belongs in the
    // application's pending queue, exactly where the original half-open
    // child would have landed. Anything sidelined on a temporary listener
    // is garbage.
    let temp_eps: std::collections::HashSet<Endpoint> =
        temp_listeners.iter().filter_map(|t| t.local_addr()).collect();
    for (local, child) in sidelined {
        if temp_eps.contains(&local) {
            child.abort();
        } else if let Some(listener) = listeners.get(&local) {
            let _ = listener.return_to_pending(child);
        }
    }
    // Temporary listeners served their purpose.
    for t in temp_listeners {
        t.close();
    }

    // ---- Phase 4/5: reinstate queue + protocol state ---------------------
    let obs = &plan.obs;
    let key = &pod.name();
    for (i, rec) in records.iter().enumerate() {
        if rec.transport != Transport::Tcp || rec.pcb.is_none() {
            continue;
        }
        let Some(s) = &out[i] else { continue };
        let entry = &entries[i];
        let Some(pcb) = rec.pcb else { continue };
        let _span = obs.span(key, "netckpt.sock_restore");

        // Pending asynchronous errors are observable application state.
        if rec.err.is_some() {
            s.with_inner(|inner| inner.err = rec.err);
        }

        // Receive side: restored stream into the alternate queue, urgent
        // into the OOB queue, peek observability preserved.
        s.install_alt_queue(rec.recv_stream.clone());
        s.restore_urgent(&rec.recv_urgent);
        if rec.recv_peeked {
            s.set_recv_peeked();
        }

        // Send side: the overlap the peer already received is discarded
        // from the saved queue before the rest is re-sent.
        let peer_recv = entry
            .dst
            .and_then(|dst| lookup_peer_recv(plan.all_meta, entry.src, dst))
            .unwrap_or(pcb.acked);
        let discard = peer_recv.saturating_sub(pcb.acked);

        // Reinstate congestion/flow pacing *before* the send-queue resend,
        // so the replay honours the checkpointed windows: a restart must
        // not blast a congested path, and a zero-window stall resumes as a
        // stall driven by persist-timer probes (the peer's restored reader
        // re-opens the window with its first ack). The fast-recovery exit
        // point is an offset from the *old* `snd.una`; the discard moves
        // `snd.una` forward, so the offset is re-based by it. A recovery
        // point at or behind the new `snd.una` has been fully acked: the
        // connection comes back outside recovery, deflated as a full ack
        // would have left it.
        if let Some(mut cc) = rec.cc {
            match cc.recover_off.map(|off| off.saturating_sub(discard)) {
                Some(0) => {
                    cc.recover_off = None;
                    cc.dup_acks = 0;
                    cc.cwnd = cc.ssthresh;
                }
                off => cc.recover_off = off,
            }
            s.with_inner(|inner| {
                if let Some(tcb) = &mut inner.tcb {
                    tcb.cc_apply(&cc);
                }
            });
        }

        // Re-send through the ordinary write path.
        let snap = SendSnapshot {
            una: pcb.acked,
            nxt: pcb.sent,
            data: rec.send_data.clone(),
            urgent_marks: rec
                .send_urgent_marks
                .iter()
                .map(|&(a, b)| (a.saturating_add(pcb.acked), b.saturating_add(pcb.acked)))
                .collect(),
        };
        let runs = snap.resend_plan(discard);
        if obs.enabled() {
            let bytes: usize = runs.iter().map(|(_, b)| b.len()).sum();
            obs.counter(key, "netckpt.resend_bytes", bytes as u64);
        }
        // A connection saved in the Closed state was already dead; if its
        // replay hits a reset (e.g. the peer pod has no matching half —
        // the handshake had failed asymmetrically) or never drains, the
        // application will observe the failure exactly as it would have
        // originally.
        if let Err(e) = replay_send_queue(s, &runs, deadline) {
            let dead = entry.state == ConnState::Closed
                && matches!(
                    e,
                    NetCkptError::Timeout(_)
                        | NetCkptError::Net(
                            NetError::ConnReset | NetError::Pipe | NetError::TimedOut
                        )
                );
            if !dead {
                return Err(e);
            }
        }

        // Shutdown replay comes after the data (§4). Shutdown of a dead
        // connection is best-effort by the same argument as above.
        match entry.state {
            ConnState::HalfDuplexLocal | ConnState::Closed => {
                let _ = s.shutdown(Shutdown::Write);
            }
            _ => {}
        }
        if rec.rd_shutdown {
            let _ = s.shutdown(Shutdown::Read);
        }
    }

    // ---- Phase 6: re-queue completed-but-unaccepted children -------------
    for (i, rec) in records.iter().enumerate() {
        if let Some(lord) = rec.pending_of {
            let child = out[i].take();
            let listener = out
                .get(lord as usize)
                .and_then(|o| o.as_ref())
                .ok_or(NetCkptError::Inconsistent("pending child without listener"))?;
            if let Some(child) = child {
                listener.return_to_pending(child)?;
            }
        }
    }

    Ok(out)
}

/// Re-sends a saved send queue over its restored connection, run by run in
/// stream order — `send_oob` for urgent runs — so a receiver with
/// `SO_OOBINLINE` reads the urgent bytes where they were written. Bounded
/// by the restore deadline: the peer's application resumes only after
/// every restore finishes, so a span larger than the send buffer plus the
/// peer's window can never drain and must end in a typed timeout.
fn replay_send_queue(
    s: &Arc<Socket>,
    runs: &[(bool, Vec<u8>)],
    deadline: Instant,
) -> NetCkptResult<()> {
    // Added at the first full buffer, before the send that retries.
    let mut watch = None;
    for (urgent, bytes) in runs {
        let mut off = 0;
        while off < bytes.len() {
            let rest = &bytes[off..];
            match if *urgent { s.send_oob(rest) } else { s.send(rest) } {
                Ok(n) => off += n,
                Err(NetError::WouldBlock) => match &mut watch {
                    None => {
                        let w = EventWatch::new();
                        w.add(s);
                        watch = Some(w);
                    }
                    Some(w) => {
                        if !w.wait_until(deadline) {
                            return Err(NetCkptError::Timeout("send-queue replay did not drain"));
                        }
                    }
                },
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(())
}

fn to_dgrams(raw: &[(Endpoint, Vec<u8>)]) -> Vec<Datagram> {
    raw.iter().map(|(src, data)| Datagram { src: *src, data: data.clone() }).collect()
}

/// Applies the full saved parameter set through `setsockopt` (§5).
fn apply_opts(s: &Arc<Socket>, rec: &SockRecord) {
    for (opt, val) in rec.opts.all() {
        let _ = s.setsockopt(opt, val);
    }
}

/// `pcb_recv` of the peer half of TCP connection `src → dst`, if recorded.
fn lookup_peer_recv(all: &[MetaData], src: Endpoint, dst: Endpoint) -> Option<u64> {
    all.iter().flat_map(|m| m.entries.iter()).find_map(|e| {
        (e.transport == Transport::Tcp && !e.listening && e.src == dst && e.dst == Some(src))
            .then_some(e.pcb_recv)
    })
}

/// How long a restore connector waits for an answer before it re-sends
/// its SYN. An unanswered SYN most likely reached a peer pod its Agent has
/// not created yet (no route, or the address still blocked) and was
/// dropped; which Agent runs first is host scheduling, so the connector
/// does not sit out the wire's RTO for it.
const SYN_RESEND: Duration = Duration::from_millis(1);

/// How long a restore connector waits before it redials a refused or
/// reset connection: the peer's listener is most likely still coming up.
const REDIAL_BACKOFF: Duration = Duration::from_micros(200);

/// Phase 3's connector: dials every connect-role entry, then waits on
/// socket events for all of them together, retrying while a peer's
/// listener is still coming up (its Agent may be slower than ours — the
/// only synchronization restart needs is the implicit one induced by
/// connection creation, §4). Returns once every connection is up.
fn connect_all(
    stack: &NetStack,
    vip: u32,
    records: &[SockRecord],
    connects: &[usize],
    deadline: Instant,
) -> NetCkptResult<Vec<(usize, Arc<Socket>)>> {
    let mut watch = EventWatch::new();
    let mut dials = Vec::with_capacity(connects.len());
    for &i in connects {
        let dst =
            records[i].peer.ok_or(NetCkptError::Inconsistent("connect entry without peer"))?;
        dials.push(Dial { i, dst, sock: None, up: false, at: Instant::now(), last_err: None });
    }
    loop {
        let now = Instant::now();
        let mut wake = deadline;
        for d in &mut dials {
            d.step(stack, &watch, vip, &records[d.i], now)?;
            if !d.up {
                wake = wake.min(d.at);
            }
        }
        if dials.iter().all(|d| d.up) {
            return Ok(dials.into_iter().filter_map(|d| Some((d.i, d.sock?))).collect());
        }
        if now >= deadline {
            for d in dials.iter().filter(|d| !d.up) {
                eprintln!(
                    "[netckpt] restore connector timeout: {:?} -> {:?} \
                     last error {:?}, socket state {:?}",
                    records[d.i].local,
                    d.dst,
                    d.last_err,
                    d.sock.as_ref().map(|s| s.state())
                );
            }
            eprint!("[netckpt] local tables:\n{}", stack.debug_tables());
            return Err(NetCkptError::Timeout("peer listener never appeared"));
        }
        watch.wait_until(wake);
    }
}

/// Phase 3's acceptor: matches the children queued on each expected
/// listener to their entries by peer until none is missing. Children that
/// match no entry come back sidelined.
#[allow(clippy::type_complexity)]
fn accept_all(
    stack: &NetStack,
    records: &[SockRecord],
    accepts: &[usize],
    listeners: &HashMap<Endpoint, Arc<Socket>>,
    deadline: Instant,
) -> NetCkptResult<(Vec<(usize, Arc<Socket>)>, Vec<(Endpoint, Arc<Socket>)>)> {
    let mut watch = EventWatch::new();
    let mut waiting: Vec<usize> = accepts.to_vec();
    let mut matched = Vec::with_capacity(accepts.len());
    let mut sidelined = Vec::new();
    for listener in listeners.values() {
        watch.add(listener);
    }
    loop {
        // Phase 2 gives every well-formed entry a listener; an entry
        // without one degrades to the timeout below, never a panic.
        for (&local, listener) in listeners {
            if !waiting.iter().any(|&i| records[i].local == Some(local)) {
                continue;
            }
            while let Ok(child) = listener.accept() {
                let key = (Some(local), child.peer_addr());
                match waiting.iter().position(|&j| (records[j].local, records[j].peer) == key) {
                    Some(pos) => matched.push((waiting.swap_remove(pos), child)),
                    None => sidelined.push((local, child)),
                }
            }
        }
        if waiting.is_empty() {
            return Ok((matched, sidelined));
        }
        if Instant::now() >= deadline {
            for &i in &waiting {
                eprintln!(
                    "[netckpt] restore acceptor timeout: still waiting for \
                     {:?} <- {:?}",
                    records[i].local, records[i].peer
                );
            }
            eprint!("[netckpt] local tables:\n{}", stack.debug_tables());
            return Err(NetCkptError::Timeout("inbound connections missing"));
        }
        watch.wait_until(deadline);
    }
}

/// One outgoing connection of the rendezvous.
struct Dial {
    /// Checkpoint ordinal.
    i: usize,
    dst: Endpoint,
    /// The socket dialing or connected; `None` while backing off.
    sock: Option<Arc<Socket>>,
    /// The connection came up. It stays this dial's result whatever
    /// happens to it next: a reset after that is the application's to see.
    up: bool,
    /// When to re-send the SYN (dialing) or to redial (backing off).
    at: Instant,
    /// The error that ended the last attempt, for the timeout report.
    last_err: Option<NetError>,
}

impl Dial {
    /// Moves this connection on by what `now` allows.
    fn step(
        &mut self,
        stack: &NetStack,
        watch: &EventWatch,
        vip: u32,
        rec: &SockRecord,
        now: Instant,
    ) -> NetCkptResult<()> {
        if self.up {
            return Ok(());
        }
        let Some(s) = &self.sock else {
            if now >= self.at {
                let s = stack.socket(Transport::Tcp, vip, 6);
                watch.add(&s);
                apply_opts(&s, rec);
                if let Some(local) = rec.local {
                    s.bind(local)?;
                }
                // Mid-handshake (Connecting) entries are replayed the same
                // way; waiting for establishment here is indistinguishable
                // to the application from a fast network completing the
                // original handshake.
                s.connect(self.dst)?;
                self.sock = Some(s);
                self.at = now + SYN_RESEND;
            }
            return Ok(());
        };
        match s.state() {
            SocketState::Connected => self.up = true,
            // Refused, reset, or abandoned by the SYN retransmission timer.
            // Closed-state entries must NOT treat a refusal as the
            // original death and bail out early: a connection whose peer
            // half was never recorded anywhere is stubbed in phase 1, so
            // any refusal seen now is transient — the peer pod's listener
            // just hasn't come up yet, and its acceptor is (or will be)
            // waiting for this very handshake. The dead state is replayed
            // in phase 4/5.
            SocketState::Closed => match s.take_error().unwrap_or(NetError::ConnRefused) {
                e @ (NetError::ConnReset | NetError::ConnRefused | NetError::TimedOut) => {
                    s.close();
                    self.sock = None;
                    self.at = now + REDIAL_BACKOFF;
                    self.last_err = Some(e);
                }
                e => return Err(e.into()),
            },
            // Still dialing: keep *this* socket and re-send its SYN (a
            // no-op if the handshake completed or failed since). Closing
            // and redialing from the same bound port can wedge against the
            // peer's stale child, which answers a new SYN with a SYN-ACK
            // for the abandoned incarnation or, once established, not at
            // all.
            _ => {
                if now >= self.at {
                    s.resend_syn();
                    self.at = now + SYN_RESEND;
                }
            }
        }
        Ok(())
    }
}
