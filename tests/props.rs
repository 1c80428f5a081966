//! Property-based tests on the core invariants: the portable record
//! format, the send/receive queue algebra (the §5 Figure 4 machinery),
//! and the reconnection scheduler.

use proptest::prelude::*;
use zapc_net::buf::{RecvBuf, SendBuf};
use zapc_netckpt::schedule::{assign_roles, validate_schedule};
use zapc_proto::{
    ConnEntry, ConnState, Decode, Encode, Endpoint, MetaData, RecordReader, RecordWriter,
    RestartRole, Transport,
};

// ---- record format -----------------------------------------------------

proptest! {
    #[test]
    fn primitives_round_trip(
        a in any::<u8>(),
        b in any::<u16>(),
        c in any::<u32>(),
        d in any::<u64>(),
        e in any::<i64>(),
        f in any::<f64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        s in "\\PC{0,64}",
        fs in proptest::collection::vec(any::<f64>(), 0..64),
    ) {
        let mut w = RecordWriter::new();
        w.put_u8(a);
        w.put_u16(b);
        w.put_u32(c);
        w.put_u64(d);
        w.put_i64(e);
        w.put_f64(f);
        w.put_bytes(&bytes);
        w.put_str(&s);
        w.put_f64_slice(&fs);
        let buf = w.into_bytes();
        let mut r = RecordReader::new(&buf);
        prop_assert_eq!(r.get_u8().unwrap(), a);
        prop_assert_eq!(r.get_u16().unwrap(), b);
        prop_assert_eq!(r.get_u32().unwrap(), c);
        prop_assert_eq!(r.get_u64().unwrap(), d);
        prop_assert_eq!(r.get_i64().unwrap(), e);
        prop_assert_eq!(r.get_f64().unwrap().to_bits(), f.to_bits());
        prop_assert_eq!(r.get_bytes().unwrap(), bytes.as_slice());
        prop_assert_eq!(r.get_str().unwrap(), s);
        let got = r.get_f64_slice().unwrap();
        prop_assert_eq!(got.len(), fs.len());
        for (x, y) in got.iter().zip(&fs) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn corrupted_records_never_decode_silently(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip in any::<usize>(),
    ) {
        let framed = zapc_proto::rw::frame_record(7, &payload);
        let mut corrupted = framed.clone();
        let idx = 6 + flip % payload.len(); // inside the payload
        corrupted[idx] ^= 0x01;
        let mut s = zapc_proto::rw::RecordStream::new(&corrupted);
        prop_assert!(s.next_record().is_err(), "bit flip must be caught by the record check");
    }
}

// ---- meta-data ------------------------------------------------------------

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (1u8..16, 1u16..9999).prop_map(|(h, p)| Endpoint::new(10, 10, 0, h, p))
}

fn arb_entry() -> impl Strategy<Value = ConnEntry> {
    (
        arb_endpoint(),
        proptest::option::of(arb_endpoint()),
        0u8..5,
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(src, dst, state, listening, pcb_recv, pcb_acked)| ConnEntry {
            transport: Transport::Tcp,
            src,
            dst,
            state: match state {
                0 => ConnState::FullDuplex,
                1 => ConnState::HalfDuplexLocal,
                2 => ConnState::HalfDuplexRemote,
                3 => ConnState::Closed,
                _ => ConnState::Connecting,
            },
            role: RestartRole::Unassigned,
            listening,
            pcb_recv,
            pcb_acked,
        })
}

proptest! {
    #[test]
    fn metadata_round_trip(entries in proptest::collection::vec(arb_entry(), 0..20), pod in "[a-z]{1,12}") {
        let md = MetaData { pod, entries };
        let mut w = RecordWriter::new();
        md.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = RecordReader::new(&buf);
        prop_assert_eq!(MetaData::decode(&mut r).unwrap(), md);
        prop_assert!(r.is_empty());
    }
}

// ---- send/receive queue algebra --------------------------------------------

proptest! {
    /// Whatever interleaving of writes, carves, acks and retransmissions
    /// occurs, the byte stream assembled at the receiver is exactly the
    /// byte stream written — and `recv ≥ acked` at all times (Figure 4).
    #[test]
    fn stream_algebra_is_lossless(
        writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..24),
        mss in 1usize..32,
        drop_pattern in any::<u64>(),
        ack_pattern in any::<u64>(),
    ) {
        let mut send = SendBuf::new(100, 1 << 20);
        let mut recv = RecvBuf::new(100, 1 << 20, false);
        let mut expected: Vec<u8> = Vec::new();
        let mut received: Vec<u8> = Vec::new();
        for w in &writes {
            prop_assert_eq!(send.write(w), w.len());
            expected.extend(w);
        }
        let mut round = 0u32;
        // Drive until everything is delivered and acked; drop segments and
        // delay acks according to the patterns.
        while send.una() < send.end() || recv.nxt() < send.end() {
            round += 1;
            prop_assert!(round < 10_000, "must converge");
            let mut sent_any = false;
            while let Some((seq, data, _urg)) = send.next_segment(mss, 1 << 20) {
                sent_any = true;
                let bit = (seq / mss as u64) % 64;
                if (drop_pattern >> bit) & 1 == 1 && round < 3 {
                    continue; // dropped in flight
                }
                let r = recv.input(seq, &data, false, false);
                received.extend(recv.read(r.newly_readable));
                if (ack_pattern >> bit) & 1 == 0 || round >= 3 {
                    send.on_ack(recv.nxt());
                }
            }
            if !sent_any {
                // Retransmission path.
                if let Some((seq, data, _)) = send.retransmit_segment(mss) {
                    let r = recv.input(seq, &data, false, false);
                    received.extend(recv.read(r.newly_readable));
                    send.on_ack(recv.nxt());
                } else {
                    send.on_ack(recv.nxt());
                }
            }
            // The §5 invariant: the receiver is never behind the acks.
            prop_assert!(recv.nxt() >= send.una(), "recv >= acked");
        }
        received.extend(recv.read(usize::MAX));
        prop_assert_eq!(received, expected);
    }

    /// resend_plan(discard) never duplicates and never loses bytes: the
    /// receiver's saved stream plus the resent bytes reconstruct exactly
    /// the written stream.
    #[test]
    fn overlap_discard_is_exact(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        consumed in 0usize..256,
        acked_lag in 0usize..64,
    ) {
        let mut send = SendBuf::new(0, 1 << 20);
        send.write(&data);
        // Transmit everything; receiver got `consumed` bytes in order.
        while send.next_segment(32, 1 << 20).is_some() {}
        let consumed = consumed.min(data.len());
        let peer_recv = consumed as u64;
        // Acks lag behind what the receiver actually has.
        let acked = peer_recv.saturating_sub(acked_lag as u64);
        send.on_ack(acked);

        let snap = send.snapshot();
        let discard = peer_recv - snap.una;
        let plan = snap.resend_plan(discard);
        prop_assert!(plan.len() <= 1 && plan.iter().all(|(urgent, _)| !urgent));
        let normal = plan.into_iter().next().map(|(_, b)| b).unwrap_or_default();
        // Receiver state (first `consumed` bytes) + resent bytes == data.
        let mut reconstructed = data[..consumed].to_vec();
        reconstructed.extend(&normal);
        prop_assert_eq!(reconstructed, data);
    }

    /// Out-of-order delivery with duplicates still assembles the exact
    /// stream (the backlog queue works).
    #[test]
    fn reassembly_from_shuffled_segments(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        mss in 1usize..48,
        order_seed in any::<u64>(),
        dup in any::<bool>(),
    ) {
        // Carve the stream into segments.
        let mut segs: Vec<(u64, Vec<u8>)> = data
            .chunks(mss)
            .enumerate()
            .map(|(i, c)| ((i * mss) as u64, c.to_vec()))
            .collect();
        // Deterministic shuffle.
        let mut x = order_seed | 1;
        for i in (1..segs.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            segs.swap(i, (x as usize) % (i + 1));
        }
        if dup && !segs.is_empty() {
            let d = segs[0].clone();
            segs.push(d);
        }
        let mut recv = RecvBuf::new(0, 1 << 20, false);
        for (seq, seg) in segs {
            recv.input(seq, &seg, false, false);
        }
        prop_assert_eq!(recv.read(usize::MAX), data);
    }
}

// ---- reconnection scheduler --------------------------------------------------

proptest! {
    /// For an arbitrary random connection graph (every connection recorded
    /// at both ends, listener ports marked), the schedule is always valid:
    /// complementary roles at the two ends of every connection.
    #[test]
    fn schedule_always_complementary(
        n_pods in 2usize..8,
        conns in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..24),
    ) {
        let mut metas: Vec<MetaData> =
            (0..n_pods).map(|i| MetaData::new(format!("p{i}"))).collect();
        // Every pod listens on port 5000.
        for (i, md) in metas.iter_mut().enumerate() {
            md.entries.push(ConnEntry {
                transport: Transport::Tcp,
                src: Endpoint::new(10, 10, 0, (i + 1) as u8, 5000),
                dst: None,
                state: ConnState::FullDuplex,
                role: RestartRole::Unassigned,
                listening: true,
                pcb_recv: 0,
                pcb_acked: 0,
            });
        }
        // Random connections: pod a (ephemeral port) → pod b (listener).
        let mut eph = vec![49152u16; n_pods];
        for (x, y) in conns {
            let a = (x as usize) % n_pods;
            let mut b = (y as usize) % n_pods;
            if a == b {
                b = (b + 1) % n_pods;
            }
            let src = Endpoint::new(10, 10, 0, (a + 1) as u8, eph[a]);
            eph[a] += 1;
            let dst = Endpoint::new(10, 10, 0, (b + 1) as u8, 5000);
            metas[a].entries.push(ConnEntry::tcp(src, dst));
            metas[b].entries.push(ConnEntry::tcp(dst, src)); // accepted child
        }
        assign_roles(&mut metas);
        let pairs = validate_schedule(&metas).expect("valid schedule");
        prop_assert!(pairs >= 1);
        // Children sharing the listener port always accept.
        for md in &metas {
            for e in &md.entries {
                if !e.listening && e.src.port == 5000 {
                    prop_assert_eq!(e.role, RestartRole::Accept);
                }
            }
        }
    }

    /// Adversarial connectivity maps: random listener flags, random
    /// connection states (including mid-handshake), and *dead* pods whose
    /// meta-data never reaches the Manager (crashed peers leave one-sided
    /// entries). The schedule must still be deadlock-free — the two ends
    /// of every surviving pair carry complementary roles, so no
    /// connect/connect (both actively dialing, nobody listening) and no
    /// accept/accept (both waiting forever) can occur — and every
    /// restartable entry must be oriented.
    #[test]
    fn adversarial_maps_schedule_without_deadlock(
        n_pods in 2usize..8,
        conns in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), 0u8..5, any::<bool>()),
            1..32,
        ),
        listen_mask in any::<u16>(),
        dead_mask in any::<u16>(),
    ) {
        let mut metas: Vec<MetaData> =
            (0..n_pods).map(|i| MetaData::new(format!("p{i}"))).collect();
        for (i, md) in metas.iter_mut().enumerate() {
            if (listen_mask >> i) & 1 == 1 {
                md.entries.push(ConnEntry {
                    transport: Transport::Tcp,
                    src: Endpoint::new(10, 10, 0, (i + 1) as u8, 5000),
                    dst: None,
                    state: ConnState::FullDuplex,
                    role: RestartRole::Unassigned,
                    listening: true,
                    pcb_recv: 0,
                    pcb_acked: 0,
                });
            }
        }
        let mut eph = vec![49152u16; n_pods];
        for (x, y, state, to_listener) in conns {
            let a = (x as usize) % n_pods;
            let mut b = (y as usize) % n_pods;
            if a == b {
                b = (b + 1) % n_pods;
            }
            let state = match state {
                0 => ConnState::FullDuplex,
                1 => ConnState::HalfDuplexLocal,
                2 => ConnState::HalfDuplexRemote,
                3 => ConnState::Closed,
                _ => ConnState::Connecting,
            };
            let src = Endpoint::new(10, 10, 0, (a + 1) as u8, eph[a]);
            eph[a] += 1;
            let dst = if to_listener && (listen_mask >> b) & 1 == 1 {
                Endpoint::new(10, 10, 0, (b + 1) as u8, 5000)
            } else {
                let d = Endpoint::new(10, 10, 0, (b + 1) as u8, eph[b]);
                eph[b] += 1;
                d
            };
            let mut e1 = ConnEntry::tcp(src, dst);
            e1.state = state;
            metas[a].entries.push(e1);
            // The peer's mirror entry; a mid-handshake connection has no
            // recorded child yet (the replayed connect regenerates it).
            if state != ConnState::Connecting {
                let mut e2 = ConnEntry::tcp(dst, src);
                e2.state = match state {
                    ConnState::HalfDuplexLocal => ConnState::HalfDuplexRemote,
                    ConnState::HalfDuplexRemote => ConnState::HalfDuplexLocal,
                    s => s,
                };
                metas[b].entries.push(e2);
            }
        }
        // Crashed peers: drop their meta-data wholesale. Their peers'
        // entries survive one-sided.
        let mut metas: Vec<MetaData> = metas
            .into_iter()
            .enumerate()
            .filter(|(i, _)| (dead_mask >> i) & 1 == 0)
            .map(|(_, m)| m)
            .collect();
        prop_assume!(!metas.is_empty());

        assign_roles(&mut metas);
        // Deadlock-freedom: complementary roles on every surviving pair.
        let check = validate_schedule(&metas);
        prop_assert!(check.is_ok(), "schedule invalid: {:?}", check);
        // Every restartable entry is oriented — nobody is left waiting on
        // a role that was never assigned.
        for md in &metas {
            for e in &md.entries {
                if e.transport == Transport::Tcp && !e.listening && e.dst.is_some() {
                    prop_assert_ne!(e.role, RestartRole::Unassigned);
                }
            }
        }
        // Recomputing over the already-assigned map changes nothing: the
        // Manager can re-derive the schedule idempotently after a retry.
        let mut again = metas.clone();
        assign_roles(&mut again);
        prop_assert_eq!(again, metas);
    }
}

// ---- epoch fencing ---------------------------------------------------------

use zapc::{recover, rejoin_node, Cluster, StoreError};
use zapc_proto::Manifest;

proptest! {
    /// At-most-one-commit under any interleaving of {lease expiry, link
    /// cut, heal/rejoin, epoch bump, manifest rename}: Manager A snapshots
    /// its epoch and checkpoint id, arbitrary noise and zero or more
    /// takeovers interleave, then A renames and the surviving Manager
    /// renames. The store's fencing token must be the sole arbiter — A's
    /// rename lands iff no takeover intervened, the survivor's rename
    /// always lands, and the noise ops never change either verdict.
    #[test]
    fn epoch_fence_is_at_most_one_commit_under_any_interleaving(
        pre in proptest::collection::vec(0u8..4, 0..5),
        mid in proptest::collection::vec(0u8..4, 0..5),
        post in proptest::collection::vec(0u8..4, 0..5),
        bump in any::<bool>(),
        double_takeover in any::<bool>(),
    ) {
        let c = Cluster::builder().nodes(2).build();
        // Noise: health and link events that must never influence what
        // the store commits (only the fence may decide).
        let noise = |ops: &[u8]| {
            for op in ops {
                match op {
                    0 => c.health.kill(1),
                    1 => c.partition.isolate(1),
                    2 => {
                        // Rejoin attempt: refused while cut, reconciling
                        // otherwise — either way store-invisible.
                        let _ = rejoin_node(&c, 1);
                    }
                    _ => {
                        c.partition.heal_all();
                        c.health.revive(1);
                    }
                }
            }
        };

        // Manager A at work: epoch snapshotted at entry, id reserved.
        let a_epoch = c.epoch();
        let a_id = c.istore.next_ckpt_id();

        noise(&pre);
        let mut fence_epoch = None;
        if bump {
            let mut r = recover(&c);
            if double_takeover {
                r = recover(&c);
            }
            fence_epoch = Some(r.epoch);
        }
        noise(&mid);

        // A's manifest rename — the commit point.
        let a_result = c.istore.commit_manifest(&Manifest {
            ckpt_id: a_id,
            epoch: a_epoch,
            wall_ms: 0,
            entries: vec![],
        });
        match (&fence_epoch, &a_result) {
            (Some(f), Err(StoreError::Fenced { epoch, fence })) => {
                prop_assert_eq!(*epoch, a_epoch);
                prop_assert_eq!(fence, f);
            }
            (Some(_), other) => {
                prop_assert!(false, "a takeover intervened; A must lose typed, got {:?}", other);
            }
            (None, Ok(_)) => {}
            (None, other) => {
                prop_assert!(false, "no takeover; A's rename must land, got {:?}", other);
            }
        }

        noise(&post);

        // The surviving Manager's rename always lands, whatever happened.
        let b_id = c.istore.next_ckpt_id();
        let b = c.istore.commit_manifest(&Manifest {
            ckpt_id: b_id,
            epoch: c.epoch(),
            wall_ms: 0,
            entries: vec![],
        });
        prop_assert!(b.is_ok(), "the live-epoch rename must never be fenced: {:?}", b);

        // Exactly the expected winners, no duplicates, fence monotonic.
        let expect = if bump { vec![b_id] } else { vec![a_id, b_id] };
        prop_assert_eq!(c.istore.manifest_ids(), expect);
        prop_assert_eq!(c.istore.fence(), fence_epoch.unwrap_or(0));
        if !bump {
            // While A's commit stands its id must never be reissued. (A
            // *fenced* A is different: the takeover rolled its staging
            // back, so the winner may legitimately reuse the id.)
            prop_assert!(a_id != b_id, "id {} reused over a committed checkpoint", a_id);
        }
    }
}
