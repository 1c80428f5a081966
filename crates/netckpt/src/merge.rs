//! The send-queue merge optimization (§5).
//!
//! "In the case of migration, a clever optimization is to redirect the
//! contents of the send queue to the receiving pod and merge it with (or
//! append to) the peer's stream of checkpoint data. Later during restart,
//! the data will be concatenated to the alternate receive queue … This
//! will eliminate the need to transmit the data twice over the network."
//!
//! The Manager applies this transform to the decoded per-pod socket
//! records before handing them to the restart Agents: for every TCP
//! connection, the post-overlap remainder of the sender's saved send queue
//! is appended to the receiver's saved receive stream, and the sender's
//! send queue is cleared — so the restart resends nothing over the new
//! connection; the bytes ride inside the checkpoint stream instead.
//!
//! Connections with urgent data in the send queue are left untouched
//! (urgent bytes must travel the OOB channel, not the alternate queue), and
//! so are connections not established in both directions: a half-open
//! child is regenerated at restart by its peer's replayed connect, so no
//! saved receive stream of its reaches the application.

use crate::records::SockRecord;
use std::collections::HashMap;
use zapc_net::buf::SendSnapshot;
use zapc_proto::{ConnState, Endpoint, MetaData, Transport};

/// Applies the merge across all pods' records; `metas[p]` is pod `p`'s
/// meta-data, whose entries run parallel to `records[p]`. Returns the
/// number of payload bytes rerouted from send queues into peer receive
/// streams.
pub fn merge_send_queues(records: &mut [Vec<SockRecord>], metas: &[MetaData]) -> usize {
    // Index every established TCP connection record by its (src, dst) pair.
    let mut index: HashMap<(Endpoint, Endpoint), (usize, usize)> = HashMap::new();
    for (p, recs) in records.iter().enumerate() {
        for (i, r) in recs.iter().enumerate() {
            let established = metas
                .get(p)
                .and_then(|m| m.entries.get(i))
                .is_some_and(|e| e.state == ConnState::FullDuplex);
            if r.transport == Transport::Tcp && !r.listening && established {
                if let (Some(src), Some(dst), Some(_)) = (r.local, r.peer, r.pcb) {
                    index.insert((src, dst), (p, i));
                }
            }
        }
    }

    let mut moved = 0usize;
    let keys: Vec<(Endpoint, Endpoint)> = index.keys().copied().collect();
    for key in keys {
        let (sp, si) = index[&key];
        let Some(&(rp, ri)) = index.get(&(key.1, key.0)) else { continue };

        // Compute the sender's post-overlap resend plan.
        let (plan, had_urgent) = {
            let s = &records[sp][si];
            if s.send_data.is_empty() {
                continue;
            }
            if !s.send_urgent_marks.is_empty() {
                (None, true)
            } else {
                // The index only holds records with PCBs, but the records
                // come off the wire — skip rather than trust that.
                let Some(pcb) = s.pcb else { continue };
                let Some(peer_pcb) = records[rp][ri].pcb else { continue };
                let peer_recv = peer_pcb.recv;
                let snap = SendSnapshot {
                    una: pcb.acked,
                    nxt: pcb.sent,
                    data: s.send_data.clone(),
                    urgent_marks: Vec::new(),
                };
                let discard = peer_recv.saturating_sub(pcb.acked);
                (Some(snap.resend_plan(discard).0), false)
            }
        };
        if had_urgent {
            continue;
        }
        let Some(normal) = plan else { continue };

        // Append to the receiver's stream; clear the sender's queue. The
        // receiver's stream ends exactly at its `recv` pointer and the
        // remainder starts there, so order is preserved. With its queue
        // gone the sender has nothing in flight either, or its record
        // would claim in-flight bytes it no longer holds.
        moved += normal.len();
        records[rp][ri].recv_stream.extend(normal);
        let s = &mut records[sp][si];
        s.send_data.clear();
        s.send_urgent_marks.clear();
        if let Some(pcb) = &mut s.pcb {
            pcb.sent = pcb.acked;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use zapc_net::tcp::PcbExtract;
    use zapc_proto::{ConnEntry, RestartRole};

    fn ep(h: u8, p: u16) -> Endpoint {
        Endpoint::new(10, 10, 0, h, p)
    }

    fn conn(src: Endpoint, dst: Endpoint, pcb: PcbExtract) -> SockRecord {
        let mut r = SockRecord::empty(0, Transport::Tcp);
        r.local = Some(src);
        r.peer = Some(dst);
        r.pcb = Some(pcb);
        r
    }

    /// Each pod's meta-data with every connection in `state`, the one
    /// field the merge reads.
    fn metas(records: &[Vec<SockRecord>], state: ConnState) -> Vec<MetaData> {
        let entry = ConnEntry {
            transport: Transport::Tcp,
            src: ep(0, 0),
            dst: None,
            state,
            role: RestartRole::Unassigned,
            listening: false,
            pcb_recv: 0,
            pcb_acked: 0,
        };
        let meta = |n| MetaData { pod: String::new(), entries: vec![entry.clone(); n] };
        records.iter().map(|recs| meta(recs.len())).collect()
    }

    /// A sent 10 bytes from seq 0; B received 4 of them; none acked.
    fn in_flight() -> Vec<Vec<SockRecord>> {
        let (a_ep, b_ep) = (ep(1, 40000), ep(2, 5000));
        let mut a = conn(a_ep, b_ep, PcbExtract { sent: 10, recv: 100, acked: 0 });
        a.send_data = (0u8..10).collect();
        let mut b = conn(b_ep, a_ep, PcbExtract { sent: 100, recv: 4, acked: 100 });
        b.recv_stream = vec![0, 1, 2, 3];
        vec![vec![a], vec![b]]
    }

    #[test]
    fn merge_moves_post_overlap_bytes() {
        let mut records = in_flight();
        let metas = metas(&records, ConnState::FullDuplex);
        let moved = merge_send_queues(&mut records, &metas);
        assert_eq!(moved, 6, "bytes beyond the receiver's recv pointer");
        assert_eq!(records[1][0].recv_stream, (0u8..10).collect::<Vec<_>>());
        assert!(records[0][0].send_data.is_empty(), "nothing left to resend");
        for r in [&records[0][0], &records[1][0]] {
            assert_eq!(r.validate(), Ok(()), "a merged record still restores");
        }
    }

    #[test]
    fn connections_not_fully_established_left_alone() {
        for state in [ConnState::Connecting, ConnState::HalfDuplexRemote, ConnState::Closed] {
            let mut records = in_flight();
            let metas = metas(&records, state);
            assert_eq!(merge_send_queues(&mut records, &metas), 0, "{state:?}");
            assert_eq!(records[0][0].send_data.len(), 10, "{state:?}: the sender resends");
        }
    }

    #[test]
    fn urgent_send_queues_left_alone() {
        let a_ep = ep(1, 40000);
        let b_ep = ep(2, 5000);
        let mut a = conn(a_ep, b_ep, PcbExtract { sent: 3, recv: 0, acked: 0 });
        a.send_data = vec![9, 9, 9];
        a.send_urgent_marks = vec![(0, 1)];
        let b = conn(b_ep, a_ep, PcbExtract { sent: 0, recv: 0, acked: 0 });
        let mut records = vec![vec![a], vec![b]];
        let metas = metas(&records, ConnState::FullDuplex);
        assert_eq!(merge_send_queues(&mut records, &metas), 0);
        assert_eq!(records[0][0].send_data, vec![9, 9, 9]);
    }

    #[test]
    fn one_sided_connection_skipped() {
        // Peer record missing (external endpoint): nothing moves.
        let a = conn(ep(1, 1), ep(9, 9), PcbExtract { sent: 5, recv: 0, acked: 0 });
        let mut records = vec![vec![a]];
        records[0][0].send_data = vec![1, 2, 3];
        let metas = metas(&records, ConnState::FullDuplex);
        assert_eq!(merge_send_queues(&mut records, &metas), 0);
    }
}
