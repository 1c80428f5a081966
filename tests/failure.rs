//! Failure-path integration tests: bad images, missing loaders, missing
//! sources — every failure must surface as a typed error, never a wedge
//! or a silent mis-restore.

use std::sync::Arc;
use std::time::Duration;
use zapc::agent::Finalize;
use zapc::manager::{CheckpointTarget, RestartTarget};
use zapc::{checkpoint, migrate, restart, Cluster, Uri, ZapcError};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};
use zapc_ckpt::MemoryDeltaRecord;
use zapc_proto::rw::frame_record;
use zapc_proto::{
    Decode, DecodeError, Encode, ImageReader, ImageWriter, RecordReader, RecordWriter, SectionTag,
};
use zapc_sim::memory::AddressSpace;
use zapc_sim::ProgramRegistry;

fn small(kind: AppKind, ranks: usize) -> AppParams {
    AppParams { kind, ranks, scale: 0.02, work: 1.0 }
}

#[test]
fn restart_from_missing_image_fails_cleanly() {
    let c = Cluster::builder().nodes(1).registry(full_registry()).build();
    let err = restart(
        &c,
        &[RestartTarget { pod: "ghost".into(), uri: Uri::mem("never-written"), node: 0 }],
    )
    .unwrap_err();
    assert!(matches!(err, ZapcError::NotFound(_)), "got {err:?}");
}

#[test]
fn restart_from_corrupted_image_fails_cleanly() {
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let app = launch_app(&c, "cpi", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(10));
    let targets: Vec<CheckpointTarget> = app
        .pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("img/{p}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(&c, &targets).unwrap();

    // Corrupt one image: flip a byte deep inside.
    let img = c.store.get("img/cpi-0").unwrap();
    let mut bad = img.as_ref().clone();
    let idx = bad.len() / 2;
    bad[idx] ^= 0xFF;
    c.store.put("img/cpi-0", bad);

    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .map(|p| RestartTarget { pod: p.clone(), uri: Uri::mem(format!("img/{p}")), node: 0 })
        .collect();
    let err = restart(&c, &rts).unwrap_err();
    match err {
        ZapcError::Decode(_) | ZapcError::Aborted(_) => {}
        other => panic!("expected decode/abort, got {other:?}"),
    }
}

#[test]
fn no_pod_is_created_before_every_image_verifies() {
    let (obs, ring) = zapc_obs::Observer::ring(4096);
    let c = Cluster::builder().nodes(2).registry(full_registry()).observer(obs).build();
    let app = launch_app(&c, "cpi", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(10));
    let targets: Vec<CheckpointTarget> = app
        .pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("img/{p}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(&c, &targets).unwrap();

    // Flip the last payload byte of cpi-1's last section: everything but
    // the tail of its image reads, and cpi-0's image is whole.
    let mut bad = c.store.get("img/cpi-1").unwrap().as_ref().clone();
    let end_len = 2 + 4 + 4; // empty End record framing
    let at = bad.len() - end_len - 4 - 1; // before the section's CRC
    bad[at] ^= 0xFF;
    c.store.put("img/cpi-1", bad);
    ring.reset();

    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .enumerate()
        .map(|(i, p)| RestartTarget { pod: p.clone(), uri: Uri::mem(format!("img/{p}")), node: i })
        .collect();
    let err = restart(&c, &rts).unwrap_err();
    assert!(matches!(err, ZapcError::Decode(_)), "got {err:?}");
    for p in &app.pods {
        assert!(c.pod(p).is_none(), "{p} registered");
    }
    let created: u64 = ring
        .phase_totals()
        .iter()
        .filter(|((_, phase), _)| *phase == "rst.create")
        .map(|(_, (count, _))| *count)
        .sum();
    assert_eq!(created, 0, "a pod was created before every image verified");
}

#[test]
fn a_pod_named_twice_is_refused_before_any_agent_runs() {
    let wait = Duration::from_secs(60);
    let reference = {
        let c = Cluster::builder().nodes(2).registry(full_registry()).build();
        let app = launch_app(&c, "dup", &small(AppKind::Cpi, 2));
        let codes = app.wait(&c, wait).unwrap();
        app.destroy(&c);
        codes
    };
    let (obs, ring) = zapc_obs::Observer::ring(4096);
    let c = Cluster::builder().nodes(2).registry(full_registry()).observer(obs).build();
    let app = launch_app(&c, "dup", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    let twice = &app.pods[0];

    let snapshot = CheckpointTarget::snapshot(twice);
    let err = checkpoint(&c, &[snapshot.clone(), snapshot]).unwrap_err();
    assert!(matches!(&err, ZapcError::Aborted(why) if why.contains("targeted twice")), "{err:?}");
    let err = migrate(&c, &[(twice.clone(), 1), (twice.clone(), 1)]).unwrap_err();
    assert!(matches!(&err, ZapcError::Aborted(why) if why.contains("targeted twice")), "{err:?}");

    // No Agent ever touched the pod.
    let phases = ring.phase_totals();
    for span in ["ckpt.quiesce", "mig.cutover"] {
        assert!(!phases.iter().any(|((_, phase), _)| *phase == span), "{span} ran");
    }
    let codes = app.wait(&c, wait).unwrap();
    assert_eq!(codes, reference, "the refused operations must not perturb the app");
    app.destroy(&c);
}

#[test]
fn restart_without_registered_loader_fails_cleanly() {
    // A cluster whose registry doesn't know the workload: the restart must
    // report the unknown program type, not crash.
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    // Long-running so the checkpoint catches live (not exited) processes —
    // only live processes need a loader at restart.
    let app = launch_app(
        &c,
        "bra",
        &AppParams { kind: AppKind::Bratu, ranks: 2, scale: 0.3, work: 16.0 },
    );
    std::thread::sleep(Duration::from_millis(10));
    let targets: Vec<CheckpointTarget> = app
        .pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("img/{p}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(&c, &targets).unwrap();

    // New cluster with an EMPTY registry.
    let c2 = Cluster::builder().nodes(1).registry(ProgramRegistry::new()).build();
    // Copy the images over (shared storage in spirit).
    for p in &app.pods {
        let img = c.store.get(&format!("img/{p}")).unwrap();
        c2.store.put(&format!("img/{p}"), img.as_ref().clone());
    }
    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .map(|p| RestartTarget { pod: p.clone(), uri: Uri::mem(format!("img/{p}")), node: 0 })
        .collect();
    let err = restart(&c2, &rts).unwrap_err();
    match err {
        ZapcError::Aborted(why) => assert!(why.contains("no loader"), "why = {why}"),
        other => panic!("expected abort with loader error, got {other:?}"),
    }
}

#[test]
fn checkpoint_of_unknown_pod_aborts_and_rolls_back() {
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let app = launch_app(&c, "cpi", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    let mut targets: Vec<CheckpointTarget> =
        app.pods.iter().map(|p| CheckpointTarget::snapshot(p)).collect();
    targets.push(CheckpointTarget::snapshot("does-not-exist"));
    assert!(matches!(checkpoint(&c, &targets), Err(ZapcError::Aborted(_))));
    // The real pods resumed and finish normally.
    let codes = app.wait(&c, Duration::from_secs(60)).unwrap();
    assert_eq!(codes.len(), 2);
    app.destroy(&c);
}

#[test]
fn truncated_image_detected() {
    let c = Cluster::builder().nodes(1).registry(full_registry()).build();
    let app = launch_app(&c, "cpi", &small(AppKind::Cpi, 1));
    std::thread::sleep(Duration::from_millis(10));
    checkpoint(
        &c,
        &[CheckpointTarget {
            pod: app.pods[0].clone(),
            uri: Uri::mem("img/t"),
            finalize: Finalize::Destroy,
        }],
    )
    .unwrap();
    let img = c.store.get("img/t").unwrap();
    c.store.put("img/t", img[..img.len() / 3].to_vec());
    let err = restart(
        &c,
        &[RestartTarget { pod: app.pods[0].clone(), uri: Uri::mem("img/t"), node: 0 }],
    )
    .unwrap_err();
    match err {
        ZapcError::Decode(_) | ZapcError::Aborted(_) => {}
        other => panic!("expected decode failure, got {other:?}"),
    }
}

/// Rebuilds `image` section by section: `rewrite` returns the replacement
/// `(tag, payload)` for a section, or `None` to copy it verbatim.
fn rewrite_sections(
    image: &[u8],
    mut rewrite: impl FnMut(SectionTag, &[u8]) -> Option<(SectionTag, Vec<u8>)>,
) -> Vec<u8> {
    let rd = ImageReader::open(image).unwrap();
    let mut w = ImageWriter::new(rd.header());
    for s in rd.sections().unwrap() {
        match rewrite(s.tag, s.payload) {
            Some((tag, payload)) => w.section_bytes(tag, &payload),
            None => w.section_bytes(s.tag, s.payload),
        }
    }
    w.finish()
}

#[test]
fn restart_over_a_live_pod_is_refused_and_leaves_it_running() {
    let reference = {
        let c = Cluster::builder().nodes(2).registry(full_registry()).build();
        let app = launch_app(&c, "cpi", &small(AppKind::Cpi, 2));
        let codes = app.wait(&c, Duration::from_secs(60)).unwrap();
        app.destroy(&c);
        codes
    };

    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let app = launch_app(&c, "cpi", &small(AppKind::Cpi, 2));
    std::thread::sleep(Duration::from_millis(5));
    let snapshots: Vec<CheckpointTarget> =
        app.pods.iter().map(|p| CheckpointTarget::snapshot(p)).collect();
    checkpoint(&c, &snapshots).unwrap();
    let before: Vec<_> =
        app.pods.iter().map(|p| (c.pod(p).unwrap(), c.pod_node(p).unwrap())).collect();

    // Every pod is still running; restart them onto the *other* node.
    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .zip(&before)
        .map(|(p, (_, home))| RestartTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("ckpt/{p}")),
            node: 1 - home,
        })
        .collect();
    let err = restart(&c, &rts).unwrap_err();
    assert!(
        matches!(&err, ZapcError::Aborted(why) if why.contains("\"cpi-0\"") && why.contains("still live")),
        "got {err:?}"
    );

    // The same image under a free target name: the name it would register
    // is still the live pod's.
    c.store.put("img/ghost", c.store.get("ckpt/cpi-1").unwrap());
    let ghost =
        [RestartTarget { pod: "ghost".into(), uri: Uri::mem("img/ghost"), node: 1 - before[1].1 }];
    let err = restart(&c, &ghost).unwrap_err();
    assert!(matches!(&err, ZapcError::NotFound(why) if why.contains("\"cpi-1\"")), "got {err:?}");

    // …and with its meta-data renamed to match the target, so only the
    // namespace still names the live pod: the Agent refuses.
    let renamed = rewrite_sections(&c.store.get("ckpt/cpi-1").unwrap(), |tag, payload| {
        (tag == SectionTag::NetMeta).then(|| {
            let mut meta = zapc_proto::MetaData::decode(&mut RecordReader::new(payload)).unwrap();
            meta.pod = "ghost".into();
            let mut w = RecordWriter::new();
            meta.encode(&mut w);
            (tag, w.into_bytes())
        })
    });
    c.store.put("img/ghost", renamed);
    let err = restart(&c, &ghost).unwrap_err();
    assert!(
        matches!(&err, ZapcError::Aborted(why) if why.contains("\"cpi-1\"") && why.contains("still live")),
        "got {err:?}"
    );
    assert!(c.pod("ghost").is_none());

    // The originals are still registered, still routed to their home
    // nodes, and run to the fault-free result.
    for (p, (pod, home)) in app.pods.iter().zip(&before) {
        assert!(Arc::ptr_eq(&c.pod(p).unwrap(), pod), "{p}: table entry replaced");
        assert_eq!(c.pod_node(p), Some(*home), "{p}");
        let routed = c.net.handle().route(pod.vip()).expect("route");
        assert!(Arc::ptr_eq(&routed, &c.node(*home).stack), "{p}: route stolen");
    }
    assert_eq!(app.wait(&c, Duration::from_secs(60)).unwrap(), reference);
    app.destroy(&c);
}

#[test]
fn restart_from_non_standalone_image_fails_typed_and_rolls_back() {
    // A `Uri::Mem` slot is outside input. Two images no writer produces —
    // one carrying a section under the retired `ParentRef` tag (0x0002, no
    // section tag any more), one whose only memory section is a
    // `MemoryDelta` — must fail typed, and nothing may be left behind.
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    let app = launch_app(&c, "cpi", &small(AppKind::Cpi, 1));
    std::thread::sleep(Duration::from_millis(10));
    let name = app.pods[0].clone();
    let vip = c.pod(&name).unwrap().vip();
    checkpoint(
        &c,
        &[CheckpointTarget { pod: name.clone(), uri: Uri::mem("img/good"), finalize: Finalize::Destroy }],
    )
    .unwrap();
    let good = c.store.get("img/good").unwrap();

    let stale_parent_tag = {
        // Preamble (12 bytes), then the header record: tag, length,
        // payload, CRC. The retired section goes right after it.
        let len = u32::from_le_bytes(good[14..18].try_into().unwrap()) as usize;
        let at = 12 + 2 + 4 + len + 4;
        let mut image = good.to_vec();
        image.splice(at..at, frame_record(0x0002, b"img/good#g0"));
        image
    };
    let bare_delta = rewrite_sections(&good, |tag, payload| {
        (tag == SectionTag::Memory).then(|| {
            let mut r = RecordReader::new(payload);
            let vpid = r.get_u32().unwrap();
            let mem = AddressSpace::decode(&mut r).unwrap();
            let mut w = RecordWriter::new();
            MemoryDeltaRecord::capture(vpid, 0, &mem).encode(&mut w);
            (SectionTag::MemoryDelta, w.into_bytes())
        })
    });

    let retired_tag: fn(&ZapcError) -> bool = |e| {
        matches!(e, ZapcError::Decode(DecodeError::InvalidEnum { what: "SectionTag", value: 2 }))
    };
    let not_standalone: fn(&ZapcError) -> bool =
        |e| matches!(e, ZapcError::Aborted(why) if why.contains("not standalone"));
    for (what, image, refused) in [
        ("parent reference", stale_parent_tag, retired_tag),
        ("bare memory delta", bare_delta, not_standalone),
    ] {
        c.store.put("img/hostile", image);
        let rt = RestartTarget { pod: name.clone(), uri: Uri::mem("img/hostile"), node: 1 };
        let err = restart(&c, &[rt]).unwrap_err();
        assert!(refused(&err), "{what}: got {err:?}");
        assert!(c.pod(&name).is_none(), "{what}: half-restored pod left registered");
        assert!(c.net.handle().route(vip).is_none(), "{what}: route left behind");
    }

    // The untouched image still restarts.
    restart(&c, &[RestartTarget { pod: name.clone(), uri: Uri::mem("img/good"), node: 1 }]).unwrap();
    app.wait(&c, Duration::from_secs(60)).unwrap();
    app.destroy(&c);
}

#[test]
fn a_restored_kv_table_that_disagrees_with_its_regions_stops_the_server_typed() {
    // The KV store lives in two regions of the server's address space and
    // its program state holds only their geometry. An image whose regions
    // do not match that geometry must fail the restart typed or make the
    // server exit with `fail::STORE` — never panic, wedge or serve garbage.
    use zapc_apps::kv::{fail, launch_kv, KvFleetParams};
    use zapc_ckpt::{records::ProcStateRecord, ProcRecord};
    type Edit = fn(&mut AddressSpace, u64, u64);
    let edits: [(&str, Edit); 3] = [
        ("every bucket head past the arena's end", |mem, _, heads| {
            mem.bytes_mut(heads).unwrap().fill(0xff);
        }),
        ("a bucket region shorter than the bucket count", |mem, _, heads| {
            let table = mem.bytes_mut(heads).unwrap();
            table.truncate(table.len() / 2);
        }),
        ("a missing arena", |mem, arena, _| {
            assert!(mem.unmap(arena));
        }),
    ];
    let p = KvFleetParams {
        clients: 4,
        slow_every: 0,
        halfopen: 0,
        clients_per_pod: 4,
        requests: 4_000,
        val_len: 16,
        window: 6,
        idle_timeout_ms: 60_000,
        report_stall: false,
        slow_rcv_buf: 0,
    };
    for (what, edit) in edits {
        let c = Cluster::builder().nodes(2).registry(full_registry()).build();
        let fleet = launch_kv(&c, "geo", &p);
        std::thread::sleep(Duration::from_millis(20));
        let pods = fleet.all_pods();
        let label = |pod: &str| format!("img/{pod}");
        let targets: Vec<CheckpointTarget> = pods
            .iter()
            .map(|pod| CheckpointTarget {
                pod: pod.clone(),
                uri: Uri::mem(label(pod)),
                finalize: Finalize::Destroy,
            })
            .collect();
        checkpoint(&c, &targets).unwrap();
        let server = label(&fleet.server_pod);
        let image = c.store.get(&server).unwrap();
        let hostile = rewrite_sections(&image, |tag, payload| match tag {
            SectionTag::Process => {
                let rec = ProcRecord::decode(&mut RecordReader::new(payload)).unwrap();
                let live = rec.state == ProcStateRecord::Live;
                assert!(live, "{what}: the cut must catch the server");
                None
            }
            SectionTag::Memory => {
                let mut r = RecordReader::new(payload);
                let vpid = r.get_u32().unwrap();
                let mut mem = AddressSpace::decode(&mut r).unwrap();
                let base = |name: &str| mem.regions().find(|r| r.name == name).unwrap().base;
                let (arena, heads) = (base("kv.arena"), base("kv.heads"));
                edit(&mut mem, arena, heads);
                let mut w = RecordWriter::new();
                w.put_u32(vpid);
                mem.encode(&mut w);
                Some((tag, w.into_bytes()))
            }
            _ => None,
        });
        c.store.put(&server, hostile);
        let targets: Vec<RestartTarget> = pods
            .iter()
            .map(|pod| RestartTarget { pod: pod.clone(), uri: Uri::mem(label(pod)), node: 1 })
            .collect();
        if restart(&c, &targets).is_ok() {
            let srv = c.pod(&fleet.server_pod).unwrap();
            let codes = srv.wait_all(Duration::from_secs(60)).unwrap();
            assert_eq!(codes, vec![fail::STORE], "{what}");
        }
        for pod in &pods {
            c.destroy_pod(pod);
        }
    }
}

/// Little-endian bytes of `fields`, each given as `(value, width in bytes)`.
fn le(fields: &[(u64, usize)]) -> Vec<u8> {
    fields.iter().flat_map(|&(v, n)| v.to_le_bytes()[..n].to_vec()).collect()
}

/// `bytes` with the bytes from `at` on replaced by `new`.
fn patched(mut bytes: Vec<u8>, at: usize, new: &[u8]) -> Vec<u8> {
    bytes[at..at + new.len()].copy_from_slice(new);
    bytes
}

#[test]
fn hostile_counts_and_enum_codes_in_restored_state_are_typed_decode_errors() {
    use zapc_apps::cpi::{Cpi, CpiConfig};
    use zapc_apps::kv::{KvClient, KvClientConfig};
    use zapc_ckpt::{records::ProcStateRecord, CkptError, DecodedPod, ProcRecord};
    use zapc_proto::DecodeError;
    use zapc_sim::{fs::FsSnapshot, Program};

    const HUGE: u64 = u64::MAX;
    const BIG: u64 = 1 << 36;
    let section =
        |tag: SectionTag, payload: &[u8]| match DecodedPod::new().apply_section(tag, payload) {
            Err(CkptError::Decode(e)) => Err(e),
            other => panic!("{tag:?}: expected a decode error, got {other:?}"),
        };
    let program =
        |ty: &str, state: &[u8]| full_registry().load(ty, &mut RecordReader::new(state)).map(drop);
    let saved = |p: &dyn Program| {
        let mut w = RecordWriter::new();
        p.save(&mut w);
        w.into_bytes()
    };
    let process = ProcRecord {
        vpid: 1,
        name: "p".into(),
        state: ProcStateRecord::Live,
        signals: Default::default(),
        timers: Default::default(),
        vtime_ns: 0,
        program_type: "t".into(),
        program_state: Vec::new(),
        fds: Vec::new(),
    };
    let exited = ProcRecord { state: ProcStateRecord::Exited(0), ..process.clone() };
    let mut w = RecordWriter::new();
    process.encode(&mut w);
    let process = w.into_bytes();
    // The descriptor count closes a process record.
    let fds = patched(process.clone(), process.len() - 8, &HUGE.to_le_bytes());
    // vpid, name "p", Live, then the pending-signal count.
    let signals = le(&[(1, 4), (1, 8), (b'p' as u64, 1), (0, 1), (BIG, 8)]);
    // Rank and size, then the vip count that opens every MPI rank's state.
    let cpi = [le(&[(1, 8), (1, 8), (0, 8), (0, 8)]), le(&[(0, 4), (1, 4), (HUGE, 8)])].concat();
    let bt = [le(&[(4, 8), (1, 4), (1, 8)]), le(&[(0, 4), (1, 4), (BIG, 8)])].concat();
    let bratu = [le(&[(4, 8), (0, 8), (1, 4), (1, 8)]), le(&[(0, 4), (1, 4), (HUGE, 8)])].concat();
    let pov_cfg = le(&[(8, 4), (8, 4), (4, 4), (0, 8)]);
    // Expected workers, listening socket, listening, then the worker count.
    let master = [pov_cfg.clone(), le(&[(1, 4), (3, 4), (1, 1), (BIG, 8)])].concat();
    // Master vip, started, connected, then the link: fd, empty send queue
    // and receive buffer, inbox count.
    let worker =
        [pov_cfg, le(&[(9, 4), (1, 1), (1, 1), (3, 4), (0, 8), (0, 8), (HUGE, 8)])].concat();
    // Config, listening, listening socket, then the connection count.
    let server = le(&[(7100, 4), (1, 4), (0, 8), (64, 8), (1, 1), (3, 4), (HUGE, 8)]);

    let counts = [
        ("FdTable: pipe count", section(SectionTag::FdTable, &BIG.to_le_bytes())),
        ("Process: descriptor count", section(SectionTag::Process, &fds)),
        ("Process: pending-signal count", section(SectionTag::Process, &signals)),
        (
            "FsSnapshot: file count",
            FsSnapshot::decode(&mut RecordReader::new(&BIG.to_le_bytes())).map(drop),
        ),
        ("CPI: vip count", program("apps.cpi", &cpi)),
        ("BT: vip count", program("apps.bt", &bt)),
        ("Bratu: vip count", program("apps.bratu", &bratu)),
        ("POV-Ray master: worker count", program("apps.povray.master", &master)),
        ("POV-Ray worker: inbox count", program("apps.povray.worker", &worker)),
        ("KV server: connection count", program("apps.kv_server", &server)),
    ];
    for (what, got) in counts {
        assert!(
            matches!(
                got,
                Err(DecodeError::UnexpectedEof { .. } | DecodeError::LengthOverflow { .. })
            ),
            "{what}: got {got:?}"
        );
    }

    // Well-formed states but for one enum code, which must be refused
    // rather than read as some other value.
    let cpi = saved(&Cpi::new(CpiConfig::default(), 0, vec![7]));
    let client = saved(&KvClient::new(KvClientConfig::default()));
    let server = saved(&zapc_apps::kv::KvServer::new(Default::default()));
    let mut w = RecordWriter::new();
    exited.encode(&mut w);
    let exited = w.into_bytes();
    // vpid, name "p", the Exited tag, then the exit code.
    assert_eq!(exited[13..22], [1, 0, 0, 0, 0, 0, 0, 0, 0]);
    // Config, rank, size, one vip, phase, listening socket, one link of 28
    // bytes, then the count and the one byte of the wired flags.
    assert_eq!(cpi[93..102], [1, 0, 0, 0, 0, 0, 0, 0, 0]);
    // Config, a PVM master with no workers, phase, next tile, tiles done,
    // hash, one enrolled flag of 2, no dismissed flags, scene base.
    let master = le(&[(8, 4), (8, 4), (4, 4), (0, 8), (1, 4), (3, 4), (1, 1), (0, 8)]);
    let master = [master, le(&[(0, 1), (0, 4), (0, 4), (0, 8), (1, 8), (2, 1), (0, 8), (0, 8)])];
    let enums = [
        // Config (32 bytes), rank, size, one vip, then the phase byte.
        ("MpiComm phase 3", program("apps.cpi", &patched(cpi.clone(), 52, &[3]))),
        // Server vip, port, id, requests, value length, window, then the mode.
        (
            "KvClient mode 256",
            program("apps.kv_client", &patched(client.clone(), 28, &256u32.to_le_bytes())),
        ),
        ("MpiComm wired flag 2", program("apps.cpi", &patched(cpi, 101, &[2]))),
        ("POV-Ray master enrolled flag 2", program("apps.povray.master", &master.concat())),
        // The port opens the server's state and follows the client's server vip.
        (
            "KvServer port 65536",
            program("apps.kv_server", &patched(server, 0, &65_536u32.to_le_bytes())),
        ),
        (
            "KvClient port 70000",
            program("apps.kv_client", &patched(client.clone(), 4, &70_000u32.to_le_bytes())),
        ),
        // The phase follows the 61 bytes of the client's config.
        ("KvClient phase 4", program("apps.kv_client", &patched(client.clone(), 61, &[4]))),
        ("KvClient phase 259", program("apps.kv_client", &patched(client, 61, &[3, 1]))),
        (
            "Process: exit code above i32::MAX",
            section(SectionTag::Process, &patched(exited.clone(), 14, &(1i64 << 31).to_le_bytes()))
                .map(drop),
        ),
        (
            "Process: exit code below i32::MIN",
            section(SectionTag::Process, &patched(exited, 14, &(-1i64 << 32).to_le_bytes()))
                .map(drop),
        ),
    ];
    for (what, got) in enums {
        assert!(matches!(got, Err(DecodeError::InvalidEnum { .. })), "{what}: got {got:?}");
    }
}

#[test]
fn corrupt_program_state_is_a_decode_error_not_a_missing_loader() {
    // Restarted through the cluster: a program type the registry knows,
    // whose saved state is hostile or leaves bytes unread, is a corrupt
    // image. Only a type with no loader is `UnknownProgram`.
    use zapc_apps::kv::{KvClient, KvClientConfig};
    use zapc_ckpt::{records::ProcStateRecord, ProcRecord};
    let c = Cluster::builder().nodes(2).registry(full_registry()).build();
    // Long-running, so the image holds a live process that needs a loader.
    let app = launch_app(&c, "cpi", &AppParams { work: 2000.0, ..small(AppKind::Cpi, 1) });
    std::thread::sleep(Duration::from_millis(5));
    let name = app.pods[0].clone();
    let finalize = Finalize::Destroy;
    checkpoint(&c, &[CheckpointTarget { pod: name.clone(), uri: Uri::mem("img/good"), finalize }])
        .unwrap();
    let good = c.store.get("img/good").unwrap();
    let with_process = |edit: &dyn Fn(&mut ProcRecord)| {
        rewrite_sections(&good, |tag, payload| {
            (tag == SectionTag::Process).then(|| {
                let mut rec = ProcRecord::decode(&mut RecordReader::new(payload)).unwrap();
                assert_eq!(rec.state, ProcStateRecord::Live, "the cut must catch a live rank");
                edit(&mut rec);
                let mut w = RecordWriter::new();
                rec.encode(&mut w);
                (tag, w.into_bytes())
            })
        })
    };
    let mut client = {
        let mut w = RecordWriter::new();
        zapc_sim::Program::save(&KvClient::new(KvClientConfig::default()), &mut w);
        w.into_bytes()
    };
    // The phase byte follows the 61 bytes of the client's config.
    client[61] = 4;
    let hostile_client = with_process(&|rec| {
        rec.program_type = "apps.kv_client".into();
        rec.program_state = client.clone();
    });
    let trailing_byte = with_process(&|rec| rec.program_state.push(0));

    for (what, image, want) in [
        ("KvClient phase 4", hostile_client, "invalid"),
        ("one trailing byte", trailing_byte, "1 unread payload bytes"),
    ] {
        c.store.put("img/hostile", image);
        let rt = RestartTarget { pod: name.clone(), uri: Uri::mem("img/hostile"), node: 1 };
        match restart(&c, &[rt]).unwrap_err() {
            ZapcError::Aborted(why) => assert!(
                why.contains("image decode error") && why.contains(want) && !why.contains("no loader"),
                "{what}: why = {why}"
            ),
            other => panic!("{what}: expected a typed abort, got {other:?}"),
        }
        assert!(c.pod(&name).is_none(), "{what}: half-restored pod left registered");
    }
}

#[test]
fn a_section_with_bytes_past_its_record_is_a_typed_error() {
    use zapc_ckpt::{records::ClockRecord, CkptError, DecodedPod};
    let mut w = RecordWriter::new();
    ClockRecord { bias_ms: 0, real_ms: 1 }.encode(&mut w);
    w.put_u64(7);
    let got = DecodedPod::new().apply_section(SectionTag::Timers, &w.into_bytes());
    assert!(
        matches!(got, Err(CkptError::Decode(DecodeError::TrailingBytes { remaining: 8, .. }))),
        "got {got:?}"
    );
}
