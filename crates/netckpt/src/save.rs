//! Network-state checkpoint: extracts socket parameters, data queues, and
//! minimal protocol state from every socket of a (frozen) pod.
//!
//! Preconditions: the pod is suspended and its virtual IP is blocked in the
//! netfilter (Agent steps 1–2 of Figure 1), so no socket state can change
//! underneath the extraction.
//!
//! The receive queue is captured with the paper's **read-and-reinject**
//! technique: data is drained through the normal read path and immediately
//! deposited into the socket's alternate receive queue, leaving the
//! application's view unchanged — crucial both for error recovery (a failed
//! checkpoint must roll back trivially) and for snapshots, where the
//! application keeps running afterwards (§5). Any remainder of a previous
//! restore's alternate queue is saved first, so checkpoints compose.

use crate::records::SockRecord;
use std::collections::HashMap;
use zapc_pod::Pod;
use zapc_proto::{ConnEntry, ConnState, Endpoint, MetaData, RestartRole, Transport};

/// Extracts the network state of `pod`: the meta-data table the Agent
/// reports to the Manager, and the per-socket records written into the
/// image's `NetState` section. Index `i` of both outputs describes the
/// socket with checkpoint ordinal `i`.
pub fn checkpoint_network(pod: &Pod) -> (MetaData, Vec<SockRecord>) {
    checkpoint_network_obs(pod, &zapc_obs::Observer::disabled())
}

/// [`checkpoint_network`] with observability: one `netckpt.sock_save` span
/// per socket (keyed by pod name) and `netckpt.recv_bytes` /
/// `netckpt.send_bytes` counters for the captured queue contents.
///
/// The twin is deliberate, not an oversight: a disabled `Observer` is one
/// branch, so the two would fold into one `checkpoint_network(pod, obs)`
/// (as `restore_standalone` did) except that `benchmark/src/ops.rs` calls
/// the plain `checkpoint_network(pod)` and `benchmark/` is frozen between
/// benchmark PRs.
pub fn checkpoint_network_obs(
    pod: &Pod,
    obs: &zapc_obs::Observer,
) -> (MetaData, Vec<SockRecord>) {
    let sockets = pod.sockets();
    let key = pod.name();
    let mut meta = MetaData::new(key.clone());
    let mut records = Vec::with_capacity(sockets.len());

    // Ordinal lookup for pending-child attribution.
    let ordinal_of: HashMap<zapc_net::SocketId, u32> =
        sockets.iter().enumerate().map(|(i, s)| (s.id, i as u32)).collect();

    for (ordinal, sock) in sockets.iter().enumerate() {
        let ordinal = ordinal as u32;
        let span = obs.span(&key, "netckpt.sock_save");
        let (rec, entry) = sock.with_inner(|inner| {
            let mut rec = SockRecord::empty(ordinal, inner.transport);
            rec.opts = inner.opts.clone();
            rec.local = inner.local;
            rec.rd_shutdown = inner.rd_shutdown;
            rec.err = inner.err;

            match inner.transport {
                Transport::Tcp => {
                    if let Some(l) = &inner.listen {
                        rec.listening = true;
                        rec.backlog = l.backlog as u32;
                    }
                    if let Some(tcb) = &mut inner.tcb {
                        rec.peer = Some(tcb.remote);
                        rec.pcb = Some(tcb.pcb_extract());
                        rec.recv_peeked = tcb.recv.was_peeked();
                        rec.recv_backlog_bytes = tcb.recv.backlog_bytes() as u64;

                        // Read-and-reinject: previous alternate-queue
                        // remainder first (§5), then the kernel queue via
                        // the standard read path.
                        let mut stream: Vec<u8> = inner.alt_recv.drain(..).collect();
                        loop {
                            let chunk = tcb.recv.read(usize::MAX);
                            if chunk.is_empty() {
                                break;
                            }
                            stream.extend(chunk);
                        }
                        let urgent = tcb.recv.read_urgent(usize::MAX);
                        rec.recv_stream = stream;
                        rec.recv_urgent = urgent;

                        // Reinject so the socket is externally unchanged.
                        inner.alt_recv.extend(rec.recv_stream.iter().copied());
                        if !rec.recv_urgent.is_empty() {
                            tcb.recv.restore_urgent(&rec.recv_urgent);
                        }

                        // Send queue: direct in-kernel buffer walk.
                        let snap = tcb.send.snapshot();
                        rec.send_data = snap.data;
                        rec.send_urgent_marks = snap
                            .urgent_marks
                            .iter()
                            .map(|&(a, b)| (a - snap.una, b - snap.una))
                            .collect();

                        // Congestion/flow pacing state, so restart resumes
                        // with the connection's checkpointed windows.
                        rec.cc = Some(tcb.cc_extract());
                    }
                }
                Transport::Udp | Transport::RawIp => {
                    if let Some(ds) = &inner.dgram {
                        rec.peer = ds.peer;
                        rec.ip_proto = ds.ip_proto;
                        let (dgrams, peeked) = ds.queue.snapshot();
                        rec.dgrams = dgrams.into_iter().map(|d| (d.src, d.data)).collect();
                        rec.recv_peeked = peeked;
                    }
                }
            }

            let entry = ConnEntry {
                transport: inner.transport,
                src: rec.local.unwrap_or(Endpoint { ip: inner.default_ip, port: 0 }),
                dst: rec.peer,
                state: if rec.pcb.is_some() { inner.conn_state() } else { ConnState::FullDuplex },
                role: RestartRole::Unassigned,
                listening: rec.listening,
                pcb_recv: rec.pcb.map(|p| p.recv).unwrap_or(0),
                pcb_acked: rec.pcb.map(|p| p.acked).unwrap_or(0),
            };
            (rec, entry)
        });
        drop(span);
        if obs.enabled() {
            let recv = rec.recv_stream.len() + rec.recv_urgent.len();
            let sent = rec.send_data.len();
            let dgram: usize = rec.dgrams.iter().map(|(_, d)| d.len()).sum();
            obs.counter(&key, "netckpt.recv_bytes", (recv + dgram) as u64);
            obs.counter(&key, "netckpt.send_bytes", sent as u64);
        }
        records.push(rec);
        meta.entries.push(entry);
    }

    // Second pass: attribute completed-but-unaccepted children to their
    // listener's pending queue.
    for (lord, sock) in sockets.iter().enumerate() {
        let pending_ids: Vec<zapc_net::SocketId> = sock.with_inner(|inner| {
            inner
                .listen
                .as_ref()
                .map(|l| l.pending.iter().map(|c| c.id).collect())
                .unwrap_or_default()
        });
        for id in pending_ids {
            if let Some(&child_ord) = ordinal_of.get(&id) {
                records[child_ord as usize].pending_of = Some(lord as u32);
            }
        }
    }

    (meta, records)
}
