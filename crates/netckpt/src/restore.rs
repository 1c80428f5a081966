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
//! After connectivity is back, per-socket state is applied:
//!
//! 1. socket parameters via `setsockopt` (the full set),
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
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zapc_net::udp::Datagram;
use zapc_net::{buf::SendSnapshot, NetError, Shutdown, Socket};
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

    let out: Mutex<Vec<Option<Arc<Socket>>>> = Mutex::new(vec![None; records.len()]);
    let mut listeners: HashMap<Endpoint, Arc<Socket>> = HashMap::new();
    let mut temp_listeners: Vec<Arc<Socket>> = Vec::new();
    let mut connects: Vec<usize> = Vec::new();
    let mut accepts: Vec<usize> = Vec::new();

    // ---- Phase 1: listeners, datagram sockets, plain sockets ------------
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
                out.lock().unwrap()[i] = Some(s);
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
                    s.listen(rec.backlog as usize + expected)?;
                    listeners.insert(local, Arc::clone(&s));
                    out.lock().unwrap()[i] = Some(s);
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
                        out.lock().unwrap()[i] = Some(s);
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
                    out.lock().unwrap()[i] = Some(s);
                }
            }
        }
    }

    // ---- Phase 2: temporary listeners for accept-role endpoints whose
    // source port is not a real listener (arbitrary-role assignments) -----
    for &i in &accepts {
        let local = records[i].local.ok_or(NetCkptError::Inconsistent("conn without address"))?;
        if let std::collections::hash_map::Entry::Vacant(e) = listeners.entry(local) {
            let expected = accepts.iter().filter(|&&j| records[j].local == Some(local)).count();
            let s = stack.socket(Transport::Tcp, vip, 6);
            s.bind(local)?;
            s.listen(expected.max(4))?;
            e.insert(Arc::clone(&s));
            temp_listeners.push(s);
        }
    }

    // ---- Phase 3: two-thread reconnection --------------------------------
    let conn_err: Mutex<Option<NetCkptError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        // Connector thread.
        let connector = scope.spawn(|| {
            for &i in &connects {
                match establish_outgoing(&stack, vip, &records[i], deadline) {
                    Ok(s) => out.lock().unwrap()[i] = Some(s),
                    Err(e) => {
                        *conn_err.lock().unwrap() = Some(e);
                        return;
                    }
                }
            }
        });
        // Acceptor thread (runs inline on this thread).
        //
        // Inbound connections that match no expected entry are *not*
        // strays by default: a connection that was mid-handshake at
        // checkpoint time is regenerated by the peer's replayed connect
        // and belongs in the application's pending queue, exactly where
        // the original half-open child would have landed. They are
        // sidelined during matching and re-queued afterwards (aborted only
        // if their listener was a temporary one).
        let mut waiting: Vec<usize> = accepts.clone();
        let mut sidelined: Vec<(Endpoint, Arc<Socket>)> = Vec::new();
        while !waiting.is_empty() {
            if Instant::now() >= deadline {
                for &i in waiting.iter() {
                    eprintln!(
                        "[netckpt] restore acceptor timeout: still waiting for \
                         {:?} <- {:?}",
                        records[i].local, records[i].peer
                    );
                }
                eprint!("[netckpt] local tables:\n{}", stack.debug_tables());
                *conn_err.lock().unwrap() =
                    Some(NetCkptError::Timeout("inbound connections missing"));
                break;
            }
            let mut matched = None;
            for &i in waiting.iter() {
                // Phase 2 guarantees both of these for well-formed plans;
                // degrade to the timeout path rather than panic otherwise.
                let Some(local) = records[i].local else { continue };
                let Some(listener) = listeners.get(&local) else { continue };
                match listener.accept() {
                    Ok(child) => {
                        // Match the child to the expected entry by peer.
                        let peer = child.peer_addr();
                        let target = waiting.iter().position(|&j| {
                            records[j].local == Some(local)
                                && records[j].peer == peer
                                && out.lock().unwrap()[j].is_none()
                        });
                        match target {
                            Some(pos) => {
                                let j = waiting[pos];
                                apply_opts(&child, &records[j]);
                                out.lock().unwrap()[j] = Some(child);
                                matched = Some(pos);
                            }
                            None => sidelined.push((local, child)),
                        }
                        break;
                    }
                    Err(NetError::WouldBlock) => continue,
                    Err(_) => continue,
                }
            }
            match matched {
                Some(pos) => {
                    waiting.remove(pos);
                }
                None => std::thread::sleep(Duration::from_micros(100)),
            }
        }
        let _ = connector.join();
        // Hand regenerated half-open children to the application's
        // listener; anything sidelined on a temporary listener is garbage.
        let temp_eps: std::collections::HashSet<Endpoint> =
            temp_listeners.iter().filter_map(|t| t.local_addr()).collect();
        for (local, child) in sidelined {
            if temp_eps.contains(&local) {
                child.abort();
            } else if let Some(listener) = listeners.get(&local) {
                let _ = listener.return_to_pending(child);
            }
        }
    });
    if let Some(e) = conn_err.into_inner().unwrap() {
        return Err(e);
    }

    // Temporary listeners served their purpose.
    for t in temp_listeners {
        t.close();
    }

    // ---- Phase 4/5: reinstate queue + protocol state ---------------------
    let obs = &plan.obs;
    let key = &pod.name();
    let mut out = out.into_inner().unwrap();
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
    for (urgent, bytes) in runs {
        let mut off = 0;
        while off < bytes.len() {
            let rest = &bytes[off..];
            match if *urgent { s.send_oob(rest) } else { s.send(rest) } {
                Ok(n) => off += n,
                Err(NetError::WouldBlock) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(100))
                }
                Err(NetError::WouldBlock) => {
                    return Err(NetCkptError::Timeout("send-queue replay did not drain"))
                }
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

/// Establishes one outgoing connection, retrying while the peer's listener
/// is still coming up (its Agent may be slower than ours — the only
/// synchronization restart needs is the implicit one induced by connection
/// creation, §4).
fn establish_outgoing(
    stack: &Arc<zapc_net::NetStack>,
    vip: u32,
    rec: &SockRecord,
    deadline: Instant,
) -> NetCkptResult<Arc<Socket>> {
    let dst = rec.peer.ok_or(NetCkptError::Inconsistent("connect entry without peer"))?;
    loop {
        let s = stack.socket(Transport::Tcp, vip, 6);
        apply_opts(&s, rec);
        if let Some(local) = rec.local {
            s.bind(local)?;
        }
        s.connect(dst)?;
        // Mid-handshake (Connecting) entries are replayed the same way;
        // waiting for establishment here is indistinguishable to the
        // application from a fast network completing the original
        // handshake.
        let waited = loop {
            match s.connect_wait(SYN_RESEND) {
                // Still dialing: keep *this* socket and re-send its SYN
                // (a no-op if the handshake completed or failed since the
                // wait gave up; the next wait returns that at once).
                // Closing and redialing from the same bound port can
                // wedge against the peer's stale child, which answers a
                // new SYN with a SYN-ACK for the abandoned incarnation or,
                // once established, not at all.
                Err(NetError::TimedOut) if Instant::now() < deadline => s.resend_syn(),
                other => break other,
            }
        };
        match waited {
            Ok(()) => return Ok(s),
            // Closed-state entries must NOT treat a refusal as the
            // original death and bail out early: a connection whose peer
            // half was never recorded anywhere is stubbed in phase 1
            // before we get here, so any refusal seen now is transient —
            // the peer pod's listener just hasn't come up yet, and its
            // acceptor is (or will be) waiting for this very handshake.
            // Giving up would starve that acceptor into a spurious
            // "inbound connections missing" timeout. Retry like every
            // other refusal; the dead state is replayed in phase 4/5.
            Err(e @ (NetError::ConnReset | NetError::ConnRefused | NetError::TimedOut)) => {
                let last_state = s.state();
                s.close();
                if Instant::now() >= deadline {
                    eprintln!(
                        "[netckpt] restore connector timeout: {:?} -> {dst:?} \
                         last wait err {e:?}, last socket state {last_state:?}",
                        rec.local
                    );
                    eprint!("[netckpt] local tables:\n{}", stack.debug_tables());
                    return Err(NetCkptError::Timeout("peer listener never appeared"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(e.into()),
        }
    }
}
