//! End-to-end tests of the content-addressed store under the durable
//! commit protocol: rank-symmetric dedup, the staging-aware GC fix, the
//! half-written-chunk fix, and typed refusal of damaged chunks — all
//! exercised through the public checkpoint → crash → recover → restart
//! surface rather than the store API alone.

use std::collections::HashSet;
use std::time::Duration;
use zapc::commit::{checkpoint_commit, recover, restart_from_manifest, CommitOptions};
use zapc::{
    ChunkParams, ChunkingConfig, Cluster, FaultAction, FaultPlan, ImageStore, StoreError,
    ZapcError,
};
use zapc_apps::launch::{full_registry, launch_writers};
use zapc_apps::writer::WriterConfig;
use zapc_obs::Observer;
use zapc_proto::{ChunkRef, Manifest};

const WAIT: Duration = Duration::from_secs(60);

fn writer_cfg() -> WriterConfig {
    WriterConfig { steps: 1500, ..WriterConfig::default() }
}

/// The chunking of every store here. Under the default mask a writer's
/// image is cut only at `max`: no 13-byte window of the ballast's
/// period-251 bytes reaches a Gear boundary. Then a ballast that moves by a
/// few bytes (its pod checkpointed running, then exited) shares no chunk
/// with its earlier copy. A 6-bit mask cuts the ballast by content
/// ([`assert_content_defined_cut`]), and by its period those chunks repeat.
const PARAMS: ChunkParams = ChunkParams { min: 2048, mask_bits: 6, max: 65536 };

fn chunked_cluster(nodes: usize, compress: bool, faults: FaultPlan) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .registry(full_registry())
        .faults(faults)
        .store_chunking(ChunkingConfig { compress, params: PARAMS })
        .build()
}

/// The exit code every dirty-writer with `writer_cfg()` produces — the
/// workload is deterministic, so one undisturbed control run is ground
/// truth for all ranks.
fn control_code() -> i32 {
    let c = Cluster::builder().nodes(1).registry(full_registry()).build();
    let pods = launch_writers(&c, "ctl", 1, &writer_cfg());
    c.pod(&pods[0]).unwrap().wait_all(WAIT).unwrap()[0]
}

fn wait_code(c: &Cluster, pod: &str) -> i32 {
    c.pod(pod).unwrap().wait_all(WAIT).unwrap()[0]
}

/// Every image of checkpoint `ckpt` was cut by content at least once: its
/// recipe holds a chunk that is not the last one and is shorter than `max`.
fn assert_content_defined_cut(c: &Cluster, ckpt: u64) {
    for e in c.istore.manifest(ckpt).unwrap().entries {
        let chunks = c.istore.recipe(&e.image_ref).unwrap().chunks;
        let inner = &chunks[..chunks.len() - 1];
        assert!(
            inner.iter().any(|ch| (ch.len as usize) < PARAMS.max),
            "{}: no content-defined cut in {:?}",
            e.pod,
            chunks.iter().map(|ch| ch.len).collect::<Vec<_>>()
        );
    }
}

#[test]
fn full_cycle_checkpoint_crash_recover_restart_is_byte_identical() {
    let expected = control_code();
    let c = chunked_cluster(2, true, FaultPlan::none());
    let pods = launch_writers(&c, "dw", 4, &writer_cfg());
    let names: Vec<&str> = pods.iter().map(String::as_str).collect();
    std::thread::sleep(Duration::from_millis(20));

    // Two generations, so the second dedups against the first.
    checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let r2 = checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();
    assert_content_defined_cut(&c, r2.ckpt_id);

    // Rank symmetry pays: the four pods' images share their ballast, so
    // both generations together take at most 0.6× the logical bytes of one.
    let logical: u64 = r2.report.pods.iter().map(|p| p.image_bytes as u64).sum();
    let on_disk = c.istore.disk_usage();
    assert!(
        on_disk * 10 <= logical * 6,
        "dedup+compress must stay within 0.6x of raw logical bytes: {on_disk} vs {logical}"
    );
    assert!(!c.istore.chunk_refs().is_empty(), "content-addressed mode is on");

    // Power loss, recovery, restart — the full rollback-recovery cycle.
    c.istore.crash();
    let rec = recover(&c);
    assert_eq!(rec.latest, Some(r2.ckpt_id), "committed checkpoints survive the crash");
    assert!(rec.rolled_back.is_empty());

    // Every manifest entry reassembles digest-clean from chunks.
    let m = c.istore.manifest(r2.ckpt_id).unwrap();
    for e in &m.entries {
        let bytes = c.istore.fetch_verified(&e.image_ref, e.digest).unwrap();
        assert_eq!(bytes.len() as u64, e.bytes);
    }

    for p in &pods {
        c.destroy_pod(p);
    }
    restart_from_manifest(&c, None, WAIT).unwrap();
    for p in &pods {
        assert_eq!(wait_code(&c, p), expected, "restored {p} must be byte-identical");
    }

    // Zero orphans after the whole cycle: nothing staged, nothing leaked.
    let rec2 = recover(&c);
    assert_eq!(rec2.orphans_removed, 0, "gc+audit must find a clean store");
}

/// A pod's second commit predicts its chunks from its first recipe: the
/// ballast the writers never touch again is put without a Gear scan, the
/// two recipes share it chunk for chunk, and the restart from the second
/// manifest is byte-identical.
#[test]
fn second_commit_predicts_the_unchanged_ballast_and_restarts_byte_identical() {
    let expected = control_code();
    let (obs, ring) = Observer::ring(4096);
    let c = Cluster::builder()
        .nodes(2)
        .registry(full_registry())
        .observer(obs)
        .store_chunking(ChunkingConfig { compress: true, params: PARAMS })
        .build();
    let cfg = writer_cfg();
    let pods = launch_writers(&c, "dw", 4, &cfg);
    let names: Vec<&str> = pods.iter().map(String::as_str).collect();
    std::thread::sleep(Duration::from_millis(20));

    let r1 = checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();
    assert_eq!(ring.counter_sum("store.chunks_predicted"), 0, "no recipe to predict from yet");
    std::thread::sleep(Duration::from_millis(10));
    let r2 = checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();

    assert_content_defined_cut(&c, r1.ckpt_id);
    assert_content_defined_cut(&c, r2.ckpt_id);
    let (m1, m2) = (c.istore.manifest(r1.ckpt_id).unwrap(), c.istore.manifest(r2.ckpt_id).unwrap());
    for p in &pods {
        let recipe = |m: &Manifest| c.istore.recipe(&m.entry(p).unwrap().image_ref).unwrap().chunks;
        let first: HashSet<ChunkRef> = recipe(&m1).into_iter().collect();
        let shared: u64 = recipe(&m2).iter().filter(|ch| first.contains(ch)).map(|ch| ch.len).sum();
        // Only the chunks at the ballast's two edges may hold changed bytes.
        let edges = 2 * PARAMS.max as u64;
        assert!(
            shared + edges >= cfg.ballast_bytes as u64,
            "{p}: the second recipe shares {shared} bytes with the first"
        );
    }
    let predicted = ring.counter_sum("store.chunks_predicted");
    assert!(predicted >= pods.len() as u64, "{predicted} chunks predicted on the second commit");

    for p in &pods {
        c.destroy_pod(p);
    }
    restart_from_manifest(&c, Some(r2.ckpt_id), WAIT).unwrap();
    for p in &pods {
        assert_eq!(wait_code(&c, p), expected, "restored {p} must be byte-identical");
    }
}

/// The satellite GC bug: a GC pass computing liveness from committed
/// manifests runs *between* `agent.stage` and the manifest rename (here: a
/// concurrent recovery-style `gc` while the Manager sleeps at
/// `manager.pre_manifest`). Without the in-flight grace the staged chunks
/// and recipes are "orphans", the reaped checkpoint commits anyway, and
/// the manifest points at nothing.
#[test]
fn gc_between_stage_and_manifest_commit_spares_the_inflight_checkpoint() {
    let plan = FaultPlan::script()
        .inject(
            "manager.pre_manifest",
            None,
            0,
            FaultAction::Delay { micros: 300_000 },
        )
        .build();
    let c = chunked_cluster(2, false, plan);
    let pods = launch_writers(&c, "dw", 2, &writer_cfg());
    let names: Vec<&str> = pods.iter().map(String::as_str).collect();
    std::thread::sleep(Duration::from_millis(20));

    let commit = std::thread::scope(|s| {
        let h = s.spawn(|| checkpoint_commit(&c, &names, &CommitOptions::default()));
        // Let staging finish and the Manager park in its pre-manifest
        // delay, then GC against committed-only liveness (there are no
        // committed manifests, so the naive live set is empty).
        std::thread::sleep(Duration::from_millis(100));
        let gc = c.istore.gc(&HashSet::new());
        assert_eq!(gc.images_removed, 0, "staged recipes must be graced: {gc:?}");
        assert_eq!(gc.chunks_removed, 0, "staged chunks must be graced: {gc:?}");
        h.join().expect("commit thread")
    });
    let r = commit.expect("commit must survive the concurrent gc");
    assert_content_defined_cut(&c, r.ckpt_id);

    // The committed checkpoint is sound: every image verifies.
    let m = c.istore.manifest(r.ckpt_id).unwrap();
    for e in &m.entries {
        c.istore.fetch_verified(&e.image_ref, e.digest).unwrap();
    }
    let rec = recover(&c);
    assert_eq!(rec.latest, Some(r.ckpt_id));
    assert_eq!(rec.orphans_removed, 0);
}

/// Chaos at `store.fsync` mid-chunk-stage: one chunk of one pod lands
/// with its fsync silently dropped, the checkpoint commits, and then the
/// power fails. The volatile chunk vanishes; recovery must classify the
/// checkpoint as unsound and roll it back (never restore through the
/// hole), and a fresh checkpoint must re-stage the missing chunk rather
/// than dedup-hit its corpse.
#[test]
fn dropped_chunk_fsync_plus_power_loss_rolls_back_and_restages() {
    let expected = control_code();
    let plan = FaultPlan::script()
        .inject("store.fsync", Some("dw-0"), 0, FaultAction::Drop)
        .build();
    let c = chunked_cluster(2, false, plan);
    let pods = launch_writers(&c, "dw", 2, &writer_cfg());
    let names: Vec<&str> = pods.iter().map(String::as_str).collect();
    std::thread::sleep(Duration::from_millis(20));

    let r1 = checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();
    c.istore.crash();
    let rec = recover(&c);
    assert_eq!(
        rec.rolled_back,
        vec![r1.ckpt_id],
        "a committed checkpoint with a vanished chunk must roll back"
    );
    assert_eq!(rec.latest, None);
    assert_eq!(c.istore.audit(&HashSet::new()), Vec::<String>::new(), "recovery leaves no litter");

    // The app never stopped; the next checkpoint (fault exhausted) is
    // whole and restartable.
    let r2 = checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();
    for p in &pods {
        c.destroy_pod(p);
    }
    restart_from_manifest(&c, Some(r2.ckpt_id), WAIT).unwrap();
    for p in &pods {
        assert_eq!(wait_code(&c, p), expected);
    }
}

/// Bit rot in a chunk only the newest checkpoint references: `recover`
/// sees whole files and keeps both checkpoints, the restart that reads the
/// chunk refuses it typed, and resuming from the newest checkpoint rolls
/// it back and lands on the previous one.
#[test]
fn chunk_bit_rot_is_caught_at_restart_which_falls_back() {
    let expected = control_code();
    // Uncompressed, so the flipped byte is a payload byte: in a compressed
    // chunk it may land in a match offset that decodes to the same bytes.
    let c = chunked_cluster(2, false, FaultPlan::none());
    let pods = launch_writers(&c, "dw", 2, &writer_cfg());
    let names: Vec<&str> = pods.iter().map(String::as_str).collect();
    std::thread::sleep(Duration::from_millis(20));
    let r1 = checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let r2 = checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();
    assert_content_defined_cut(&c, r2.ckpt_id);

    // Flip one byte of a chunk checkpoint 2 introduced.
    let recipe_chunks = |ckpt: u64| -> HashSet<ChunkRef> {
        let m = c.istore.manifest(ckpt).unwrap();
        m.entries
            .iter()
            .flat_map(|e| c.istore.recipe(&e.image_ref).unwrap().chunks)
            .collect()
    };
    let older = recipe_chunks(r1.ckpt_id);
    let victim = *recipe_chunks(r2.ckpt_id)
        .difference(&older)
        .next()
        .expect("checkpoint 2 introduced a chunk");
    let path = format!("{}/{}", c.istore.root(), ImageStore::chunk_ref(victim.digest, victim.len));
    let mut bytes = c.fs.read(&path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    c.fs.write(&path, &bytes);
    c.fs.fsync(&path).unwrap();

    c.istore.crash();
    let rec = recover(&c);
    assert_eq!(rec.committed, vec![r1.ckpt_id, r2.ckpt_id], "rot is not a torn write");

    match restart_from_manifest(&c, Some(r2.ckpt_id), WAIT).unwrap_err() {
        ZapcError::Store(StoreError::ChunkDigestMismatch { .. }) => {}
        other => panic!("expected a typed chunk error, got {other}"),
    }
    restart_from_manifest(&c, None, WAIT).unwrap();
    for p in &pods {
        assert_eq!(wait_code(&c, p), expected, "{p} restarts from checkpoint 1");
    }
    assert_eq!(c.istore.manifest_ids(), vec![r1.ckpt_id], "checkpoint 2 rolled back");
    let live: HashSet<String> =
        c.istore.manifest(r1.ckpt_id).unwrap().entries.into_iter().map(|e| e.image_ref).collect();
    assert_eq!(c.istore.audit(&live), Vec::<String>::new());
}

/// Restore must refuse a truncated chunk with a typed error — the chunk
/// digest check on open, surfaced through `restart_from_manifest`.
#[test]
fn restart_refuses_a_truncated_chunk_with_a_typed_error() {
    let c = chunked_cluster(2, true, FaultPlan::none());
    let pods = launch_writers(&c, "dw", 2, &writer_cfg());
    let names: Vec<&str> = pods.iter().map(String::as_str).collect();
    std::thread::sleep(Duration::from_millis(20));
    checkpoint_commit(&c, &names, &CommitOptions::default()).unwrap();

    // Truncate the largest chunk behind the store's back.
    let victim = c
        .istore
        .chunk_refs()
        .into_iter()
        .max_by_key(|r| {
            let p = format!("{}/{}", c.istore.root(), r);
            c.fs.size(&p).unwrap_or(0)
        })
        .expect("chunks exist");
    let path = format!("{}/{}", c.istore.root(), victim);
    let bytes = c.fs.read(&path).unwrap();
    c.fs.write(&path, &bytes[..bytes.len() / 2]);
    c.fs.fsync(&path).unwrap();

    for p in &pods {
        c.destroy_pod(p);
    }
    let err = restart_from_manifest(&c, None, WAIT).unwrap_err();
    match err {
        ZapcError::Store(
            StoreError::ChunkCorrupt { .. }
            | StoreError::ChunkDigestMismatch { .. }
            | StoreError::ChunkMissing { .. },
        ) => {}
        other => panic!("expected a typed chunk error, got {other}"),
    }
}
