//! End-to-end durability and recovery: two-phase checkpoint commit into
//! the durable store, Manager crash-recovery at every commit-phase
//! boundary, node death mid-protocol, and garbage-collection invariants.
//!
//! The discipline under test: for every injected crash point in the
//! commit path, a restarted Manager either restores from the last
//! committed manifest or rolls back to the previous one — it never
//! consumes a partial image — and recovery leaves zero orphaned store
//! entries.

use std::collections::HashSet;
use std::time::Duration;
use zapc::commit::{checkpoint_commit, recover, restart_from_manifest, CommitOptions};
use zapc::{
    ChunkParams, ChunkingConfig, Cluster, FaultAction, FaultPlan, ImageStore, StoreError,
    ZapcError,
};
use zapc_proto::{
    ChunkIndex, ChunkRef, DecodeError, ImageReader, RecordReader, RecordWriter, SectionTag,
};
use zapc_sim::{Errno, ProcessCtx, Program, ProgramRegistry, StepOutcome};

const WAIT: Duration = Duration::from_secs(60);

/// A deterministic accumulator: N iterations over a small array, exit
/// code derived from the final contents.
struct Acc {
    phase: u8,
    iter: u64,
    limit: u64,
    region: u64,
    salt: u64,
}

impl Acc {
    fn fresh(limit: u64, salt: u64) -> Acc {
        Acc { phase: 0, iter: 0, limit, region: 0, salt }
    }
}

impl Program for Acc {
    fn type_name(&self) -> &'static str {
        "test.acc"
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.phase {
            0 => {
                self.region = ctx.mem.map_f64("acc", 256);
                self.phase = 1;
                StepOutcome::Ready
            }
            1 => {
                if self.iter >= self.limit {
                    self.phase = 2;
                    return StepOutcome::Ready;
                }
                let a = ctx.mem.f64_mut(self.region).unwrap();
                a[(self.iter % 256) as usize] += (self.iter ^ self.salt) as f64 * 0.001;
                ctx.consume_cpu(400);
                self.iter += 1;
                StepOutcome::Ready
            }
            _ => {
                let a = ctx.mem.f64(self.region).unwrap();
                let sum: f64 = a.iter().sum();
                StepOutcome::Exited(((sum * 10.0) as i64).rem_euclid(113) as i32)
            }
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u8(self.phase);
        w.put_u64(self.iter);
        w.put_u64(self.limit);
        w.put_u64(self.region);
        w.put_u64(self.salt);
    }
}

fn load_acc(r: &mut RecordReader<'_>) -> zapc_proto::DecodeResult<Box<dyn Program>> {
    Ok(Box::new(Acc {
        phase: r.get_u8()?,
        iter: r.get_u64()?,
        limit: r.get_u64()?,
        region: r.get_u64()?,
        salt: r.get_u64()?,
    }))
}

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("test.acc", load_acc);
    reg
}

fn cluster_with(faults: FaultPlan) -> Cluster {
    Cluster::builder().nodes(2).registry(registry()).faults(faults).build()
}

/// A fault-free cluster whose store keeps each image as one chunk, or
/// splits it into small content-defined chunks — many per pod image.
fn store_cluster(chunked: bool) -> Cluster {
    let b = Cluster::builder().nodes(2).registry(registry());
    if !chunked {
        return b.build();
    }
    b.store_chunking(small_chunks()).build()
}

/// Small content-defined chunks, compressed: many per pod image.
fn small_chunks() -> ChunkingConfig {
    ChunkingConfig { compress: true, params: ChunkParams { min: 64, mask_bits: 7, max: 1024 } }
}

const LIMIT: u64 = 150_000;

fn reference_code(salt: u64) -> i32 {
    let c = Cluster::builder().nodes(1).registry(registry()).build();
    let pod = c.create_pod("ref", 0);
    pod.spawn("w", Box::new(Acc::fresh(LIMIT, salt)));
    let code = pod.wait_all(WAIT).unwrap()[0];
    c.destroy_pod("ref");
    code
}

fn spawn_pods(c: &Cluster) {
    let p0 = c.create_pod("w0", 0);
    p0.spawn("w", Box::new(Acc::fresh(LIMIT, 7)));
    let p1 = c.create_pod("w1", 1);
    p1.spawn("w", Box::new(Acc::fresh(LIMIT, 11)));
    std::thread::sleep(Duration::from_millis(20));
}

fn launch(c: &Cluster) -> [i32; 2] {
    spawn_pods(c);
    [reference_code(7), reference_code(11)]
}

fn wait_codes(c: &Cluster) -> [i32; 2] {
    let a = c.pod("w0").unwrap().wait_all(WAIT).unwrap()[0];
    let b = c.pod("w1").unwrap().wait_all(WAIT).unwrap()[0];
    [a, b]
}

#[test]
fn commit_then_restart_round_trip() {
    let c = cluster_with(FaultPlan::none());
    let expected = launch(&c);

    let r = checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap();
    assert_eq!(r.ckpt_id, 1);
    assert_eq!(r.manifest_ref, "manifests/1");
    assert!(r.pruned.is_empty());
    assert_eq!(c.istore.manifest_ids(), vec![1]);

    // Kill the application outright, then resurrect it from the store.
    c.destroy_pod("w0");
    c.destroy_pod("w1");
    restart_from_manifest(&c, None, WAIT).unwrap();
    assert_eq!(wait_codes(&c), expected, "restart must be bit-identical");

    // The store is clean: nothing staged, nothing orphaned.
    let rec = recover(&c);
    assert_eq!(rec.latest, Some(1));
    assert!(rec.rolled_back.is_empty());
    assert_eq!(rec.orphans_removed, 0);
}

#[test]
fn retention_prunes_old_checkpoints_and_their_images() {
    let c = cluster_with(FaultPlan::none());
    let expected = launch(&c);
    let opts = CommitOptions { keep: 2, ..CommitOptions::default() };

    for want in 1..=4u64 {
        let r = checkpoint_commit(&c, &["w0", "w1"], &opts).unwrap();
        assert_eq!(r.ckpt_id, want);
    }
    assert_eq!(c.istore.manifest_ids(), vec![3, 4], "keep=2 retains the newest two");
    // Pruned checkpoints' images are gone; retained ones are intact.
    let kept = c.istore.manifest(4).unwrap();
    let e = kept.entry("w0").unwrap();
    assert_eq!(
        c.istore.fetch_verified("images/1/w0", e.digest),
        Err(StoreError::Io(Errno::ENOENT))
    );
    assert!(c.istore.fetch_verified(&e.image_ref, e.digest).is_ok());

    c.destroy_pod("w0");
    c.destroy_pod("w1");
    restart_from_manifest(&c, Some(3), WAIT).unwrap();
    assert_eq!(wait_codes(&c), expected);
}

#[test]
fn stage_failure_rolls_back_and_resumes_the_app() {
    let plan = FaultPlan::script()
        .inject("agent.stage", Some("w1"), 0, FaultAction::Crash)
        .build();
    let c = cluster_with(plan);
    let expected = launch(&c);

    let err = checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)), "stage crash aborts: {err}");
    // No manifest, no staged litter: the checkpoint never existed.
    assert!(c.istore.manifest_ids().is_empty());
    assert!(c.istore.image_refs().is_empty());
    assert!(c.istore.tmp_files().is_empty());
    // Both pods rolled back to running and finish correctly.
    assert_eq!(wait_codes(&c), expected);
}

#[test]
fn crash_before_manifest_commit_rolls_back_cleanly() {
    let plan = FaultPlan::script()
        .inject("manager.pre_manifest", None, 0, FaultAction::Crash)
        .build();
    let c = cluster_with(plan);
    let expected = launch(&c);

    // First checkpoint commits normally (the fault fires on nth=0 of the
    // *site*, so commit #1 must run before arming... the script fires on
    // the first consultation — which is commit #1). So: commit #1 dies
    // staged-but-uncommitted.
    let err = checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)));
    // The dead Manager cleaned nothing: staged images linger.
    assert!(!c.istore.image_refs().is_empty());
    assert!(c.istore.manifest_ids().is_empty());

    // Power loss on the store subtree, then a fresh Manager recovers.
    c.istore.crash();
    let rec = recover(&c);
    assert_eq!(rec.latest, None);
    assert_eq!(rec.rolled_back, vec![1]);
    assert!(c.istore.image_refs().is_empty(), "rollback leaves no staged images");
    assert!(c.istore.tmp_files().is_empty());

    // Rollback scrubbed every trace of attempt 1, so the id is free
    // again; a later commit succeeds from a clean slate.
    let r = checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap();
    assert_eq!(r.ckpt_id, 1, "rolled-back id is clean and reusable");
    c.destroy_pod("w0");
    c.destroy_pod("w1");
    restart_from_manifest(&c, None, WAIT).unwrap();
    assert_eq!(wait_codes(&c), expected);
}

#[test]
fn crash_after_manifest_commit_is_fully_recoverable() {
    let plan = FaultPlan::script()
        .inject("manager.post_manifest", None, 0, FaultAction::Crash)
        .build();
    let c = cluster_with(plan);
    let expected = launch(&c);

    let err = checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap_err();
    assert!(matches!(err, ZapcError::Aborted(_)));

    // The rename landed before the crash: after power loss the
    // checkpoint must survive in full.
    c.istore.crash();
    let rec = recover(&c);
    assert_eq!(rec.latest, Some(1), "commit point passed — checkpoint is durable");
    assert!(rec.rolled_back.is_empty());

    c.destroy_pod("w0");
    c.destroy_pod("w1");
    restart_from_manifest(&c, None, WAIT).unwrap();
    assert_eq!(wait_codes(&c), expected);
}

#[test]
fn torn_manifest_falls_back_to_previous_checkpoint() {
    // The second commit's manifest fsync is silently dropped; the
    // following power loss makes the manifest vanish while its images
    // (fsynced normally) survive as orphans.
    let plan = FaultPlan::script()
        .inject("store.fsync", Some("2"), 0, FaultAction::Drop)
        .build();
    let c = cluster_with(plan);
    let expected = launch(&c);

    checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap();
    checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap();
    assert_eq!(c.istore.manifest_ids(), vec![1, 2]);

    c.istore.crash();
    let rec = recover(&c);
    assert_eq!(rec.latest, Some(1), "torn commit 2 rolls back to 1");
    assert_eq!(rec.rolled_back, vec![2]);
    assert!(rec.orphans_removed > 0, "checkpoint 2's unreachable images are collected");

    c.destroy_pod("w0");
    c.destroy_pod("w1");
    restart_from_manifest(&c, None, WAIT).unwrap();
    assert_eq!(wait_codes(&c), expected);
}

#[test]
fn corrupted_manifest_is_never_consumed() {
    // Bit-rot the second manifest on its way to disk: recovery must
    // refuse it (record check) and fall back to checkpoint 1.
    let plan = FaultPlan::script()
        .inject("store.manifest", Some("2"), 0, FaultAction::Corrupt { byte: 31 })
        .build();
    let c = cluster_with(plan);
    let expected = launch(&c);

    checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap();
    checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap();

    let rec = recover(&c);
    assert_eq!(rec.latest, Some(1));
    assert!(rec.rolled_back.contains(&2));

    c.destroy_pod("w0");
    c.destroy_pod("w1");
    restart_from_manifest(&c, None, WAIT).unwrap();
    assert_eq!(wait_codes(&c), expected);
}

#[test]
fn node_death_mid_stage_aborts_then_restart_reschedules() {
    // Commit once cleanly; during the second commit, node 1 dies
    // silently while staging w1. The lease table must catch it (no reply
    // will ever come), the commit aborts, and the restart reschedules
    // w1 onto the surviving node.
    let plan = FaultPlan::script()
        .inject("agent.node_dead", Some("w1"), 1, FaultAction::Crash)
        .build();
    let c = cluster_with(plan);
    let expected = launch(&c);

    let opts = CommitOptions { timeout: Duration::from_secs(10), ..CommitOptions::default() };
    checkpoint_commit(&c, &["w0", "w1"], &opts).unwrap();

    let err = checkpoint_commit(&c, &["w0", "w1"], &opts).unwrap_err();
    match &err {
        ZapcError::Aborted(why) => assert!(why.contains("died"), "why = {why}"),
        other => panic!("expected abort on node death, got {other}"),
    }
    assert!(!c.health.is_alive(1));
    assert!(c.pod("w1").is_none(), "the pod died with its node");

    // The Manager survived the node death and rolled the in-flight
    // checkpoint back itself, so recovery finds a clean store.
    let rec = recover(&c);
    assert_eq!(rec.latest, Some(1));
    assert!(rec.rolled_back.is_empty(), "surviving Manager already rolled back");
    assert!(c.istore.tmp_files().is_empty());

    restart_from_manifest(&c, None, WAIT).unwrap();
    assert_eq!(c.pod_node("w1"), Some(0), "w1 rescheduled off the dead node");
    assert_eq!(c.pod_node("w0"), Some(0));
    assert_eq!(wait_codes(&c), expected);
}

#[test]
fn back_to_back_commits_outlive_the_lease_between_them() {
    // A node that sat idle for several leases is heard from again the
    // moment the next operation reaches it, and w0's Agent — silent for
    // longer than the whole lease while the Manager polls the lease table
    // — is slow, not dead.
    let plan = FaultPlan::script()
        .always("agent.slow", Some("w0"), FaultAction::Delay { micros: 120_000 })
        .build();
    let c = Cluster::builder().nodes(2).registry(registry()).faults(plan).lease_ms(50).build();
    let expected = launch(&c);

    checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap();
    assert_eq!(c.istore.manifest_ids().len(), 2);
    assert_eq!(wait_codes(&c), expected);
}

#[test]
fn double_recovery_is_idempotent() {
    let plan = FaultPlan::script()
        .inject("manager.pre_manifest", None, 0, FaultAction::Crash)
        .build();
    let c = cluster_with(plan);
    let _ = launch(&c);

    checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap_err();
    c.istore.crash();

    let first = recover(&c);
    assert_eq!(first.rolled_back, vec![1]);
    let second = recover(&c);
    assert_eq!(second.epoch, first.epoch + 1, "every pass bumps the epoch");
    assert_eq!(second.latest, first.latest);
    assert!(second.rolled_back.is_empty(), "a second pass finds nothing to undo");
    assert_eq!(second.orphans_removed, 0);
}

// ---- damage behind the store's back ------------------------------------

fn abs(c: &Cluster, rel: &str) -> String {
    format!("{}/{}", c.istore.root(), rel)
}

/// Durably replaces a store file's bytes.
fn overwrite(c: &Cluster, rel: &str, bytes: &[u8]) {
    let path = abs(c, rel);
    c.fs.write(&path, bytes);
    c.fs.fsync(&path).unwrap();
}

fn recipe(c: &Cluster, ckpt: u64, pod: &str) -> ChunkIndex {
    c.istore.recipe(&ImageStore::image_ref(ckpt, pod)).unwrap()
}

/// A chunk that checkpoint 2 references and checkpoint 1 does not.
fn chunk_only_in_2(c: &Cluster) -> ChunkRef {
    let older: HashSet<ChunkRef> =
        ["w0", "w1"].iter().flat_map(|p| recipe(c, 1, p).chunks).collect();
    ["w0", "w1"]
        .iter()
        .flat_map(|p| recipe(c, 2, p).chunks)
        .find(|k| !older.contains(k))
        .expect("checkpoint 2 introduced a chunk")
}

/// Commits checkpoints 1 and 2 of the running two-pod application.
fn commit_twice(c: &Cluster) {
    for want in 1..=2 {
        let r = checkpoint_commit(c, &["w0", "w1"], &CommitOptions::default()).unwrap();
        assert_eq!(r.ckpt_id, want);
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The live set of every manifest the store holds.
fn live(c: &Cluster) -> HashSet<String> {
    c.istore
        .manifest_ids()
        .into_iter()
        .flat_map(|id| c.istore.manifest(id).unwrap().entries)
        .map(|e| e.image_ref)
        .collect()
}

/// Every torn shape a write can leave is rolled back by `recover` from
/// metadata alone, on the unchunked and the chunked store alike: a missing
/// recipe or chunk, a recipe that disagrees with its manifest entry, a
/// manifest that fails its record check.
#[test]
fn torn_shapes_are_rolled_back_from_metadata_alone() {
    type Tear = fn(&Cluster);
    let cases: [(&str, Tear); 4] = [
        ("missing recipe", |c| c.fs.unlink(&abs(c, "images/2/w1")).unwrap()),
        ("missing chunk", |c| {
            let k = chunk_only_in_2(c);
            c.fs.unlink(&abs(c, &ImageStore::chunk_ref(k.digest, k.len))).unwrap();
        }),
        ("recipe digest differs from its entry", |c| {
            let mut ix = recipe(c, 2, "w0");
            ix.digest ^= 1;
            overwrite(c, "images/2/w0", &ix.to_bytes());
        }),
        ("manifest fails its record check", |c| {
            let rel = ImageStore::manifest_ref(2);
            let mut bytes = c.fs.read(&abs(c, &rel)).unwrap();
            // The last payload byte: just before the record's check.
            let at = bytes.len() - 5;
            bytes[at] ^= 0xFF;
            overwrite(c, &rel, &bytes);
            assert!(matches!(
                c.istore.manifest(2),
                Err(StoreError::Decode(DecodeError::ChecksumMismatch { .. }))
            ));
        }),
    ];
    for (name, tear) in cases {
        for chunked in [false, true] {
            let c = store_cluster(chunked);
            spawn_pods(&c);
            commit_twice(&c);
            tear(&c);

            let rec = recover(&c);
            assert_eq!(rec.rolled_back, vec![2], "{name}, chunked={chunked}");
            assert_eq!(rec.latest, Some(1), "{name}, chunked={chunked}");
            assert_eq!(
                c.istore.audit(&live(&c)),
                Vec::<String>::new(),
                "{name}, chunked={chunked}: litter left"
            );
            for p in ["w0", "w1"] {
                c.destroy_pod(p);
            }
        }
    }
}

/// Bit rot inside a whole file — a flipped byte, or a chunk one byte short
/// (which tmp → fsync → rename cannot leave behind) — is invisible to
/// `recover` (every file is there) and caught by the restart that reads it:
/// a named restart refuses it typed, a restart from the newest checkpoint
/// rolls it back and lands on the previous one.
#[test]
fn bit_rot_is_caught_at_restart_which_falls_back() {
    type Rot = fn(&mut Vec<u8>);
    let cases: [(&str, Rot); 2] = [
        ("flipped byte", |bytes| {
            let at = bytes.len() / 2;
            bytes[at] ^= 0x01;
        }),
        ("chunk one byte short", |bytes| {
            bytes.pop();
        }),
    ];
    for (name, rot) in cases {
        let c = store_cluster(false);
        let expected = launch(&c);
        commit_twice(&c);
        let k = chunk_only_in_2(&c);
        let rel = ImageStore::chunk_ref(k.digest, k.len);
        let mut bytes = c.fs.read(&abs(&c, &rel)).unwrap();
        rot(&mut bytes);
        overwrite(&c, &rel, &bytes);

        c.istore.crash();
        let rec = recover(&c);
        assert_eq!(rec.committed, vec![1, 2], "{name}: rot is not a torn write");

        let err = restart_from_manifest(&c, Some(2), WAIT).unwrap_err();
        assert!(
            matches!(
                err,
                ZapcError::Store(
                    StoreError::ChunkCorrupt { .. } | StoreError::ChunkDigestMismatch { .. }
                )
            ),
            "{name}: named restart refuses the rotted image typed: {err:?}"
        );
        restart_from_manifest(&c, None, WAIT).unwrap();
        assert_eq!(wait_codes(&c), expected, "{name}: restart lands on checkpoint 1");
        assert_eq!(c.istore.manifest_ids(), vec![1], "{name}: checkpoint 2 rolled back");
        assert_eq!(c.istore.audit(&live(&c)), Vec::<String>::new(), "{name}");
        for p in ["w0", "w1"] {
            c.destroy_pod(p);
        }
    }
}

/// A rotted chunk that only w1's stored image holds keeps both pods from
/// being created, w0 (whose image is whole) included: a named restart
/// refuses it typed, and no `rst.create` span runs.
#[test]
fn no_pod_is_created_before_every_stored_image_verifies() {
    let (obs, ring) = zapc_obs::Observer::ring(4096);
    let c = Cluster::builder()
        .nodes(2)
        .registry(registry())
        .observer(obs)
        .store_chunking(small_chunks())
        .build();
    spawn_pods(&c);
    let id = checkpoint_commit(&c, &["w0", "w1"], &CommitOptions::default()).unwrap().ckpt_id;
    let w0: HashSet<ChunkRef> = recipe(&c, id, "w0").chunks.into_iter().collect();
    let k = recipe(&c, id, "w1")
        .chunks
        .into_iter()
        .find(|k| !w0.contains(k))
        .expect("w1's image holds a chunk of its own");
    let rel = ImageStore::chunk_ref(k.digest, k.len);
    let mut bytes = c.fs.read(&abs(&c, &rel)).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    overwrite(&c, &rel, &bytes);
    ring.reset();

    let err = restart_from_manifest(&c, Some(id), WAIT).unwrap_err();
    assert!(
        matches!(
            err,
            ZapcError::Store(
                StoreError::ChunkCorrupt { .. } | StoreError::ChunkDigestMismatch { .. }
            )
        ),
        "named restart refuses the rotted image typed: {err:?}"
    );
    for p in ["w0", "w1"] {
        assert!(c.pod(p).is_none(), "{p} registered");
    }
    let created: u64 = ring
        .phase_totals()
        .iter()
        .filter(|((_, phase), _)| *phase == "rst.create")
        .map(|(_, (count, _))| *count)
        .sum();
    assert_eq!(created, 0, "a pod was created before every stored image verified");
}

/// Damage an Agent wrote into an image — the digest the manifest pins was
/// taken over the damaged bytes — past the image's meta-data section is
/// found only by the receiver that verifies the whole image before any pod
/// exists. A named restart refuses it typed; a restart from the newest
/// checkpoint rolls it back and lands on the previous one.
#[test]
fn image_damaged_past_its_meta_data_falls_back_to_the_previous_checkpoint() {
    // w1's second image (nth 1) gets one byte flipped, 1000 bytes in.
    let plan = FaultPlan::script()
        .inject("agent.image", Some("w1"), 1, FaultAction::Corrupt { byte: 1_000 })
        .build();
    let c = cluster_with(plan);
    let expected = launch(&c);
    commit_twice(&c);
    assert_eq!(c.faults.fired(), 1);

    // The header and the meta-data section still read; the image does not.
    let e = c.istore.manifest(2).unwrap().entry("w1").unwrap().clone();
    let image = c.istore.fetch_verified(&e.image_ref, e.digest).unwrap();
    let mut rd = ImageReader::open(&image).unwrap();
    let mut read = Vec::new();
    while let Ok(Some(s)) = rd.next_section() {
        read.push(s.tag);
    }
    assert!(read.contains(&SectionTag::NetMeta), "damage inside the meta-data: {read:?}");
    assert!(ImageReader::open(&image).and_then(ImageReader::sections).is_err());

    let rec = recover(&c);
    assert_eq!(rec.committed, vec![1, 2], "the digest holds over the damaged bytes");

    c.destroy_pod("w0");
    c.destroy_pod("w1");
    let err = restart_from_manifest(&c, Some(2), WAIT).unwrap_err();
    assert!(matches!(err, ZapcError::Decode(_)), "named restart: {err:?}");
    assert!(c.pod("w0").is_none() && c.pod("w1").is_none(), "no pod before every image verifies");

    restart_from_manifest(&c, None, WAIT).unwrap();
    assert_eq!(c.istore.manifest_ids(), vec![1], "checkpoint 2 rolled back");
    assert_eq!(wait_codes(&c), expected, "restart lands on checkpoint 1");
}

/// A recipe rewritten with a valid record check and its recorded digest — its chunk
/// refs reordered, or one swapped for another resident chunk of the same
/// length — still parses and names only chunks that exist, so every length
/// check passes. The manifest's digest is chained over the chunk list, so
/// the store refuses it, `recover` rolls it back from metadata alone, and
/// a restart from the newest checkpoint lands on the previous one.
#[test]
fn recipe_chunk_list_is_pinned_by_the_manifest_digest() {
    type Rewrite = fn(&Cluster, &mut ChunkIndex);
    let cases: [(&str, bool, Rewrite); 2] = [
        ("two refs swapped", true, |_, ix| ix.chunks.swap(0, 1)),
        ("a ref replaced by a same-length resident", false, |c, ix| {
            // Unchunked, each image is one chunk: checkpoint 1's chunk of
            // the same pod has the same length and stays resident.
            let older = recipe(c, 1, "w0").chunks[0];
            assert_eq!(older.len, ix.chunks[0].len, "same-length resident");
            assert_ne!(older, ix.chunks[0]);
            ix.chunks[0] = older;
        }),
    ];
    for (name, chunked, rewrite) in cases {
        let c = store_cluster(chunked);
        let expected = launch(&c);
        commit_twice(&c);
        let e = c.istore.manifest(2).unwrap().entry("w0").unwrap().clone();
        let mut ix = recipe(&c, 2, "w0");
        rewrite(&c, &mut ix);
        overwrite(&c, &e.image_ref, &ix.to_bytes());
        assert_eq!(recipe(&c, 2, "w0"), ix, "{name}: the rewritten recipe parses");

        assert!(
            matches!(
                c.istore.fetch_verified(&e.image_ref, e.digest),
                Err(StoreError::DigestMismatch { .. })
            ),
            "{name}"
        );
        assert!(!c.istore.entry_is_whole(&e), "{name}");

        c.destroy_pod("w0");
        c.destroy_pod("w1");
        restart_from_manifest(&c, None, WAIT).unwrap();
        assert_eq!(c.istore.manifest_ids(), vec![1], "{name}: checkpoint 2 rolled back");
        assert_eq!(wait_codes(&c), expected, "{name}: restart lands on checkpoint 1");
        assert_eq!(c.istore.audit(&live(&c)), Vec::<String>::new(), "{name}");
    }
}
