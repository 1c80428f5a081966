//! Known-answer tests on the exact bytes of every checkpointed record and
//! of every program's saved state.
//!
//! Each pin is the encoded length and a byte-at-a-time FNV-1a 64 of one
//! encoding, with every `Option` set both ways and every sequence
//! non-empty. The records are built as values, encoded, and decoded back
//! to an equal value. Program states are written field by field with the
//! writer's primitives, loaded through the program registry, and saved
//! again: the save must reproduce the input, so a pin covers both
//! directions of a program's codec.
//!
//! The constants were computed before the record codecs moved onto the
//! shared composite encodings of `zapc_proto::rw`; they must hold for as
//! long as `FORMAT_VERSION` does.

use std::fmt::Debug;
use zapc_apps::kv::ClientMode;
use zapc_apps::launch::full_registry;
use zapc_ckpt::records::{ClockRecord, PipeTable, ProcStateRecord};
use zapc_ckpt::{FdRecord, MemoryDeltaRecord, ProcRecord};
use zapc_net::tcp::{CcExtract, PcbExtract};
use zapc_net::{NetError, SockOpts};
use zapc_netckpt::records::encode_records;
use zapc_netckpt::SockRecord;
use zapc_pod::Namespace;
use zapc_proto::{
    ConnEntry, ConnState, Decode, DecodeError, Encode, Endpoint, MetaData, RecordReader,
    RecordWriter, RestartRole, Transport,
};
use zapc_sim::fs::FsSnapshot;
use zapc_sim::memory::AddressSpace;
use zapc_sim::signals::{PendingSignals, Signal};
use zapc_sim::TimerSet;

/// FNV-1a 64: the fingerprint of the pinned bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes `v`, checks that it decodes back to itself with nothing left
/// over, and returns the pin of its bytes.
fn pin<T: Encode + Decode + PartialEq + Debug>(v: &T) -> (usize, u64) {
    let mut w = RecordWriter::new();
    v.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = RecordReader::new(&bytes);
    assert_eq!(&T::decode(&mut r).unwrap(), v);
    assert!(r.is_empty(), "{} bytes left over", r.remaining());
    (bytes.len(), fnv1a64(&bytes))
}

/// Writes a program state with `build`, loads it as `ty`, saves it again,
/// checks the save reproduces the input, and returns the pin of its bytes.
fn program_pin(ty: &str, build: impl FnOnce(&mut RecordWriter)) -> (usize, u64) {
    let mut w = RecordWriter::new();
    build(&mut w);
    let state = w.into_bytes();
    let mut r = RecordReader::new(&state);
    let program = full_registry().load(ty, &mut r).unwrap();
    assert!(r.is_empty(), "{ty}: {} bytes left over", r.remaining());
    let mut w = RecordWriter::new();
    program.save(&mut w);
    assert_eq!(w.bytes(), &state[..], "{ty}: save does not reproduce the loaded state");
    (state.len(), fnv1a64(&state))
}

fn ep(host: u8, port: u16) -> Endpoint {
    Endpoint::new(10, 10, 0, host, port)
}

fn signals() -> PendingSignals {
    use Signal::*;
    let mut s = PendingSignals::default();
    for sig in [Stop, Cont, Kill, Term, Usr1, Usr2, Alrm] {
        s.push(sig);
    }
    s
}

fn timers() -> TimerSet {
    let mut t = TimerSet::default();
    t.arm(1_000, 250, Some(250));
    t.arm(1_000, 4_000, None);
    t
}

fn fs_snapshot() -> FsSnapshot {
    FsSnapshot {
        files: vec![
            ("/pods/p/out".into(), b"partial result".to_vec()),
            ("/pods/p/empty".into(), Vec::new()),
        ],
    }
}

#[test]
fn metadata_bytes_are_golden() {
    let transports = [Transport::Tcp, Transport::Udp, Transport::RawIp];
    let states = [
        ConnState::FullDuplex,
        ConnState::HalfDuplexLocal,
        ConnState::HalfDuplexRemote,
        ConnState::Closed,
        ConnState::Connecting,
    ];
    let roles = [RestartRole::Connect, RestartRole::Accept, RestartRole::Unassigned];
    let entries = (0..5)
        .map(|i| ConnEntry {
            transport: transports[i % 3],
            src: ep(1, 5000 + i as u16),
            dst: (i % 2 == 0).then(|| ep(2, 6000 + i as u16)),
            state: states[i],
            role: roles[i % 3],
            listening: i == 1,
            pcb_recv: 1_000 * i as u64,
            pcb_acked: 7 + i as u64,
        })
        .collect();
    let md = MetaData { pod: "golden-pod".into(), entries };
    assert_eq!(pin(&md), (179, 0xdb19_d036_4994_e07b));
}

#[test]
fn process_state_bytes_are_golden() {
    assert_eq!(pin(&timers()), (74, 0x3e0b_2320_1224_84e0));
    assert_eq!(pin(&signals()), (15, 0x81a6_aced_8783_4f79));
    assert_eq!(pin(&fs_snapshot()), (78, 0x00d6_8d6a_3d79_e400));
    assert_eq!(pin(&ClockRecord { bias_ms: -1_234, real_ms: 98_765 }), (16, 0xc977_b278_c62f_b8cb));
}

#[test]
fn address_space_bytes_are_golden() {
    let mut mem = AddressSpace::new();
    let heap = mem.map_bytes("heap", 37);
    mem.bytes_mut(heap).unwrap().iter_mut().enumerate().for_each(|(i, b)| *b = (i * 7) as u8);
    let grid = mem.map_f64("grid", 5);
    mem.f64_mut(grid).unwrap().iter_mut().enumerate().for_each(|(i, x)| *x = i as f64 * -0.5);
    assert_eq!(pin(&mem), (151, 0xa8e2_4311_19f3_6ed8));
}

#[test]
fn sock_opts_bytes_are_golden() {
    let mut opts = SockOpts { oob_inline: true, rcv_buf: 4_096, ..SockOpts::default() };
    assert_eq!(pin(&opts), (89, 0x51a1_72e7_aa04_789c));
    opts.linger = Some(30);
    assert_eq!(pin(&opts), (93, 0x1938_293a_e928_cfcb));
}

#[test]
fn pod_records_bytes_are_golden() {
    let mut ns = Namespace::new("golden-pod", 0x0A0A_0003, "/pods/golden-pod");
    ns.alloc_vpid("init");
    ns.alloc_vpid("worker");
    assert_eq!(pin(&ns), (93, 0x58e0_69b0_aee3_c5a5));

    let mut proc = ProcRecord {
        vpid: 2,
        name: "worker".into(),
        state: ProcStateRecord::Live,
        signals: signals(),
        timers: timers(),
        vtime_ns: 123_456_789,
        program_type: "apps.cpi".into(),
        program_state: vec![1, 2, 3, 4, 5],
        fds: vec![
            (0, FdRecord::File { path: "/pods/p/out".into(), offset: 42, append: true }),
            (1, FdRecord::PipeRead { pipe: 3 }),
            (2, FdRecord::PipeWrite { pipe: 3 }),
            (3, FdRecord::Socket { ordinal: 1 }),
        ],
    };
    assert_eq!(pin(&proc), (221, 0x6767_1266_c9c7_a58c));
    proc.state = ProcStateRecord::Exited(-7);
    assert_eq!(pin(&proc), (229, 0xe753_df83_ee0b_a3c9));

    let pipes = PipeTable {
        pipes: vec![(3, b"buffered".to_vec(), false, true), (4, Vec::new(), true, false)],
    };
    assert_eq!(pin(&pipes), (52, 0x20a0_1011_3a3e_5791));

    let mut mem = AddressSpace::new();
    let cold = mem.map_bytes("cold", 8);
    let hot = mem.map_bytes("hot", 16);
    let table = mem.map_bytes("table", zapc_sim::memory::PAGE + 8);
    let since = mem.generation();
    mem.bytes_mut(hot).unwrap()[3] = 9;
    let page = zapc_sim::memory::PAGE;
    mem.bytes_range_mut(table, page + 2..page + 3).unwrap()[0] = 7;
    mem.unmap(cold);
    let delta = MemoryDeltaRecord::capture(2, since, &mem);
    assert_eq!((delta.live.len(), delta.whole.len(), delta.pages.len()), (2, 1, 1));
    assert_eq!(pin(&delta), (156, 0xf833_e5b2_c3e4_04e3));
}

#[test]
fn sock_records_bytes_are_golden() {
    let mut tcp = SockRecord::empty(1, Transport::Tcp);
    tcp.opts.linger = Some(5);
    tcp.local = Some(ep(1, 5000));
    tcp.peer = Some(ep(2, 6000));
    tcp.backlog = 4;
    tcp.rd_shutdown = true;
    tcp.pending_of = Some(0);
    tcp.pcb = Some(PcbExtract { sent: 1_100, recv: 2_200, acked: 1_050 });
    tcp.recv_stream = b"unread".to_vec();
    tcp.recv_urgent = b"!".to_vec();
    tcp.recv_backlog_bytes = 12;
    tcp.recv_peeked = true;
    tcp.send_data = b"unacked-data".to_vec();
    tcp.send_urgent_marks = vec![(1, 2), (3, 5)];
    tcp.err = Some(NetError::ConnRefused);
    tcp.cc = Some(CcExtract {
        cwnd: 5_840,
        ssthresh: 2_920,
        dup_acks: 2,
        recover_off: Some(8),
        peer_window: 0,
        rtx_backoff: 3,
        fast_retransmits: 4,
        rto_events: 1,
        zero_window_events: 2,
        zero_window_probes: 6,
    });
    assert_eq!(pin(&tcp), (325, 0x0fab_3e45_2588_762a));
    let mut steady = tcp.clone();
    steady.cc = Some(CcExtract { recover_off: None, ..tcp.cc.unwrap() });
    steady.err = Some(NetError::TimedOut);
    assert_eq!(pin(&steady), (317, 0x8030_1fb9_295b_6bc9));

    let mut udp = SockRecord::empty(2, Transport::Udp);
    udp.local = Some(ep(1, 9000));
    udp.dgrams = vec![(ep(2, 1234), b"dgram".to_vec()), (ep(3, 1235), Vec::new())];
    udp.ip_proto = 17;
    assert_eq!(pin(&udp), (195, 0xa700_810a_e0a2_b2d3));

    let none = SockRecord::empty(3, Transport::RawIp);
    assert_eq!(pin(&none), (156, 0x8422_8493_5307_e251));

    let list = encode_records(&[tcp, steady, udp, none]).into_bytes();
    assert_eq!((list.len(), fnv1a64(&list)), (1_001, 0xde2d_2712_b8dd_1208));
}

/// One framed link: fd, unsent bytes, a partial frame, one parsed message.
fn link(w: &mut RecordWriter, fd: u32) {
    w.put_u32(fd);
    w.put_bytes(&[7, 0, 0, 0, 2, 0, 0, 0, b'h', b'i']);
    w.put_bytes(&[9, 0, 0]);
    w.put_u64(1);
    w.put_u32(0x8000_0001);
    w.put_bytes(&1.5f64.to_le_bytes());
}

#[test]
fn cpi_mid_allreduce_state_is_golden() {
    let got = program_pin("apps.cpi", |w| {
        // Config.
        for v in [400_000, 8_000, 4_096, 8_192] {
            w.put_u64(v);
        }
        // MpiComm: rank 0 of 2, wired up.
        w.put_u32(0);
        w.put_u32(2);
        w.put_u64(2);
        w.put_u32(0x0A0A_0001);
        w.put_u32(0x0A0A_0002);
        w.put_u8(2);
        w.put_u32(3);
        w.put_u64(2);
        link(w, 0);
        link(w, 4);
        w.put_bytes(&[0, 1]);
        w.put_u64(1);
        w.put_u32(5);
        w.put_bytes(&[1, 0]);
        w.put_u32(1);
        // Rank: phase, halo flags, the all-reduce in flight.
        w.put_u8(3);
        w.put_bool(false);
        w.put_bool(true);
        w.put_bool(true);
        w.put_u32(0x8000_0001);
        w.put_bool(true);
        w.put_u32(0);
        w.put_f64(1.25);
        // Cpi.
        w.put_u64(400_000);
        w.put_f64(1.5);
        w.put_u64(64);
        w.put_f64(0.0);
    });
    assert_eq!(got, (280, 0xb276_8d43_aa7d_051a));
}

fn pov_config(w: &mut RecordWriter) {
    w.put_u32(64);
    w.put_u32(48);
    w.put_u32(16);
    w.put_u64(1_024);
}

#[test]
fn povray_states_are_golden() {
    let master = program_pin("apps.povray.master", |w| {
        pov_config(w);
        w.put_u32(2);
        w.put_u32(3);
        w.put_bool(true);
        w.put_u64(2);
        link(w, 4);
        link(w, 5);
        w.put_u8(1);
        w.put_u32(7);
        w.put_u32(5);
        w.put_u64(0xdead_beef);
        w.put_bytes(&[1, 1]);
        w.put_bytes(&[0, 1]);
        w.put_u64(0x7f00_0000_0000);
    });
    assert_eq!(master, (204, 0x0592_4301_788a_d293));
    let workers = [(Some(6), (117, 0x1f77_d3ed_10da_c5ba)), (None, (113, 0x4068_12e8_8458_f433))];
    for (current, want) in workers {
        let worker = program_pin("apps.povray.worker", |w| {
            pov_config(w);
            w.put_u32(0x0A0A_0001);
            w.put_bool(true);
            w.put_bool(true);
            link(w, 3);
            w.put_u8(2);
            w.put_u64(0x7f00_0000_0000);
            w.put_bool(current.is_some());
            if let Some(t) = current {
                w.put_u32(t);
            }
            w.put_u32(4);
            w.put_u64(99);
            w.put_u32(5);
        });
        assert_eq!(worker, want, "current tile {current:?}");
    }
}

#[test]
fn kv_states_are_golden() {
    let server = program_pin("apps.kv_server", |w| {
        w.put_u32(7_100);
        w.put_u32(3);
        w.put_u64(500);
        w.put_u64(65_536);
        w.put_bool(true);
        w.put_u32(3);
        w.put_u64(2);
        for (fd, rx, tx) in [(4u32, &b"PUT k"[..], &b"OK"[..]), (5, b"", b"VAL 1234")] {
            w.put_u32(fd);
            w.put_bytes(rx);
            w.put_bytes(tx);
            w.put_u64(1_000 + fd as u64);
        }
        // The store's geometry: arena and bucket-head bases, bucket count,
        // keys, dead arena bytes.
        w.put_u64(0x7f00_0000_0000);
        w.put_u64(0x7f00_0000_2000);
        w.put_u32(1_024);
        w.put_u32(2);
        w.put_u64(9);
        w.put_u32(1);
        w.put_u64(77);
        w.put_u64(2);
    });
    assert_eq!(server, (160, 0x52f6_9f10_cea1_d148));
    let client = program_pin("apps.kv_client", |w| {
        w.put_u32(0x0A0A_0001);
        w.put_u32(7_100);
        w.put_u32(2);
        w.put_u32(32);
        w.put_u64(64);
        w.put_u32(8);
        w.put_u32(1);
        w.put_u64(4_096);
        w.put_u64(3);
        w.put_u64(10_000);
        w.put_bool(true);
        w.put_u32(8_192);
        w.put_u32(2);
        w.put_u32(3);
        w.put_u64(41);
        w.put_u32(9);
        w.put_u32(6);
        w.put_bytes(b"PUT c2/k8");
        w.put_bytes(b"OK 7");
        w.put_u64(0x1111);
        w.put_u64(0x2222);
        w.put_u64(480);
        w.put_u64(12_345);
        w.put_u64(17);
        w.put_u64(0);
        w.put_bool(false);
        w.put_u32(0);
    });
    assert_eq!(client, (167, 0xbc38_a51e_4753_2fff));
}

#[test]
fn udp_and_writer_states_are_golden() {
    let hb_sender = program_pin("apps.hb.sender", |w| {
        w.put_u32(0x0A0A_0002);
        w.put_u64(50);
        w.put_u64(100);
        w.put_u64(42);
        w.put_u32(3);
        w.put_u64(1);
        w.put_bool(true);
    });
    let hb_monitor = program_pin("apps.hb.monitor", |w| {
        w.put_u64(400);
        w.put_u64(100);
        w.put_u32(3);
        w.put_bool(true);
        w.put_u64(2_050);
        w.put_u64(41);
        w.put_u64(0);
    });
    let rudp_sender = program_pin("apps.rudp.sender", |w| {
        w.put_u32(0x0A0A_0002);
        w.put_u64(64);
        w.put_u64(512);
        w.put_u64(17);
        w.put_u32(3);
        w.put_bool(true);
        w.put_bool(true);
        w.put_u64(2);
        w.put_u64(5);
    });
    let rudp_receiver = program_pin("apps.rudp.receiver", |w| {
        w.put_u64(64);
        w.put_u64(17);
        w.put_u32(3);
        w.put_bool(true);
        w.put_u64(0xabcd_ef01);
    });
    let writer = program_pin("apps.writer", |w| {
        w.put_u64(1 << 20);
        w.put_u64(4);
        w.put_u64(4_096);
        w.put_f64(0.25);
        w.put_u64(1_000);
        w.put_u64_slice(&[0x7f00_0000_0000, 0x7f00_0001_0000]);
        w.put_u64(12);
        w.put_u64(0x5555);
        w.put_bool(true);
    });
    assert_eq!(
        [hb_sender, hb_monitor, rudp_sender, rudp_receiver, writer],
        [
            (41, 0xc594_d551_17d5_7f00),
            (45, 0x3ea1_e43b_0e1f_9f37),
            (50, 0x2a7f_5e54_a39e_2c5e),
            (29, 0xe197_8ced_f8a2_d8b2),
            (81, 0x5438_c86f_ca65_fa13),
        ]
    );
}

/// Every variant of a table-coded enum is written as its position in
/// `all`, `width` bytes wide, and reads back as itself; the first code
/// past the table is refused, naming the enum.
fn table_codes<T: Encode + Decode + PartialEq + Copy + Debug>(all: &[T], what: &str, width: usize) {
    for (code, v) in all.iter().enumerate() {
        let mut w = RecordWriter::new();
        w.put(v);
        assert_eq!(w.bytes(), &(code as u64).to_le_bytes()[..width], "{what} {v:?}");
        assert_eq!(RecordReader::new(w.bytes()).get::<T>().unwrap(), *v);
    }
    let past_end = (all.len() as u64).to_le_bytes();
    match RecordReader::new(&past_end[..width]).get::<T>() {
        Err(DecodeError::InvalidEnum { what: w, value }) => {
            assert_eq!((w, value), (what, all.len() as u64));
        }
        other => panic!("{what} code {}: got {other:?}", all.len()),
    }
}

#[test]
fn table_codes_are_golden() {
    table_codes(&Signal::ALL, "Signal", 1);
    table_codes(&NetError::ALL, "NetError", 1);
    table_codes(&zapc_net::opts::ALL_OPTS, "SockOpt", 1);
    table_codes(&ClientMode::ALL, "ClientMode", 4);
}
