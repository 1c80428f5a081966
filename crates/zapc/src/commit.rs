//! Two-phase durable checkpoint commit and Manager recovery.
//!
//! The coordinated checkpoint of §4 makes a *consistent* cut; this module
//! makes it a *durable* one. The protocol is two-phase with a single
//! commit point:
//!
//! 1. **Stage** — [`checkpoint_commit`] runs the ordinary coordinated
//!    checkpoint with every target aimed at [`Uri::Store`]: each Agent
//!    writes its pod's image into the durable store (tmp → fsync →
//!    rename) and reports the committed reference and digest with `done`.
//!    Staged images are durable but *unreachable* — no manifest names
//!    them yet, so the checkpoint does not yet exist.
//! 2. **Commit** — the Manager writes one [`Manifest`] listing every
//!    staged image. The manifest's atomic rename is the commit point:
//!    a crash anywhere before it leaves only unreferenced litter that
//!    [`recover`] rolls back; a crash anywhere after it leaves a fully
//!    recoverable checkpoint.
//!
//! **Recovery** is pure scan-and-classify over durable state, and reads
//! no chunk bytes: every manifest that parses and whose images are all
//! whole — each image's recipe parses, pins the recorded length and
//! digest and names only present chunks — is a committed checkpoint;
//! everything else — torn manifests, manifests missing a recipe or a
//! chunk, staged images with no manifest, tmp files — is rolled back and
//! garbage-collected. Under tmp → fsync → rename that is every way a write
//! can tear: a crash leaves a file whole or absent, never short. Recovery
//! is idempotent: it only removes things a second pass would also classify
//! as garbage.
//!
//! **Bit rot** in a whole file, a file cut short included, is found by the
//! read that consumes it:
//! [`restart_from_manifest`] verifies every image against the digest its
//! manifest pins, and when resuming from the newest checkpoint it rolls a
//! damaged one back and falls back to the next-newest.
//!
//! **Node death** mid-protocol is covered by the cluster's lease table
//! ([`crate::health`]): a checkpoint whose Agent's node dies aborts and
//! drains the survivors (the manifest never commits), and
//! [`restart_from_manifest`] reschedules pods recorded on dead nodes onto
//! live ones.

use crate::agent::Finalize;
use crate::cluster::Cluster;
use crate::coord::{distinct, node_alive};
use crate::manager::{
    checkpoint_at, restart_with, CheckpointOptions, CheckpointReport, CheckpointTarget,
    RestartReport, RestartTarget, DEFAULT_TIMEOUT,
};
use crate::uri::Uri;
use crate::{ZapcError, ZapcResult};
use std::collections::{HashMap, HashSet};
use std::time::Duration;
use zapc_proto::{Manifest, ManifestEntry};
use zapc_store::{GcReport, ImageStore};

/// Knobs for [`checkpoint_commit`].
#[derive(Debug, Clone)]
pub struct CommitOptions {
    /// Per-phase timeout (Manager waits and Agent `continue` waits).
    pub timeout: Duration,
    /// Retries for the staging phase (same semantics as
    /// [`CheckpointOptions::retries`] — an aborted stage leaves every pod
    /// running, so re-running is safe).
    pub retries: u32,
    /// Committed manifests retained after a successful commit; older ones
    /// are pruned and their images garbage-collected. Clamped to ≥ 1.
    pub keep: usize,
}

impl Default for CommitOptions {
    fn default() -> Self {
        CommitOptions { timeout: DEFAULT_TIMEOUT, retries: 0, keep: 2 }
    }
}

/// Outcome of a committed durable checkpoint.
#[derive(Debug)]
pub struct CommitReport {
    /// The committed checkpoint id.
    pub ckpt_id: u64,
    /// Store-relative reference of the manifest (the commit record).
    pub manifest_ref: String,
    /// Older checkpoint ids pruned after this commit.
    pub pruned: Vec<u64>,
    /// What the post-commit garbage collection removed.
    pub gc: GcReport,
    /// The underlying coordinated-checkpoint report (staging phase).
    pub report: CheckpointReport,
}

/// Outcome of a Manager recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The Manager epoch after recovery (one bump per pass).
    pub epoch: u64,
    /// Checkpoint ids whose manifests parsed and whose images are all
    /// whole (recipes that parse, pin the recorded length and digest and
    /// name only present chunks), ascending — these survived the crash.
    /// Their bytes are verified when a restart reads them.
    pub committed: Vec<u64>,
    /// Checkpoint ids rolled back: torn/corrupt manifests, manifests
    /// whose image recipe is missing, fails to parse or disagrees with its
    /// entry, or names a missing chunk, and in-flight checkpoints that
    /// staged images but never committed.
    pub rolled_back: Vec<u64>,
    /// Files removed by the recovery garbage collection (abandoned tmp
    /// files plus unreachable recipes and chunks).
    pub orphans_removed: usize,
    /// The newest committed checkpoint, if any — what
    /// [`restart_from_manifest`] resumes from by default.
    pub latest: Option<u64>,
}

/// Durably checkpoints `pods` as one atomic unit: coordinated checkpoint
/// into the store, then a single manifest commit. Returns only after the
/// checkpoint is either fully committed (`Ok`) or guaranteed absent
/// (`Err` — staged litter is rolled back here if the Manager survived,
/// or by the next [`recover`] if it didn't).
pub fn checkpoint_commit(
    cluster: &Cluster,
    pods: &[&str],
    opts: &CommitOptions,
) -> ZapcResult<CommitReport> {
    distinct("checkpoint", pods.iter().copied())?;
    // Placement at entry: snapshot targets resume in place, so this is
    // also the restart placement hint recorded in the manifest.
    let mut nodes: HashMap<String, u32> = HashMap::new();
    for p in pods {
        let n = cluster
            .pod_node(p)
            .ok_or_else(|| ZapcError::NotFound(format!("pod {p:?}")))?;
        nodes.insert((*p).to_owned(), n as u32);
    }

    // Epoch snapshot at entry. The whole pipeline — every Agent op, the
    // `continue`, the manifest — is stamped with this value, so a
    // recovery that bumps the cluster epoch anywhere between here and the
    // manifest rename deterministically fences this commit: the Agents
    // refuse stale-stamped work and the store's fencing token refuses the
    // stale-stamped manifest. (Reading the epoch *after* staging would
    // leave a window where a racing recovery's bump is absorbed into the
    // manifest and the loser's commit survives.)
    let epoch = cluster.epoch();
    let ckpt_id = cluster.istore.next_ckpt_id();
    // Register the stage before any byte lands: a GC racing this commit
    // (recovery on another thread, retention on a concurrent commit)
    // computes liveness from *committed* manifests, which cannot see this
    // checkpoint until its manifest renames in. The registration grace-
    // lists everything staged under `ckpt_id` — images and dedup chunks —
    // until we either retire it (success, eager rollback) or a newer
    // fence supersedes it (our death; the winner's recovery collects).
    cluster.istore.begin_stage(ckpt_id, epoch);
    let targets: Vec<CheckpointTarget> = pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: (*p).to_owned(),
            uri: Uri::Store { ckpt: ckpt_id },
            finalize: Finalize::Resume,
        })
        .collect();

    // Phase 1: stage. Any failure here means no manifest was ever
    // written, so the checkpoint never existed — roll staged images back
    // eagerly (a *crashed* Manager skips this; recovery does it instead).
    let ck_opts = CheckpointOptions {
        timeout: opts.timeout,
        retries: opts.retries,
        ..CheckpointOptions::default()
    };
    let report = match checkpoint_at(cluster, &targets, &ck_opts, Some(epoch)) {
        Ok(r) => r,
        Err(e) => {
            // Retire the stage registration *before* rolling back: the
            // rollback reaps via GC, and a still-graced stage would shield
            // its own litter.
            cluster.istore.end_stage(ckpt_id, epoch);
            rollback(&cluster.istore, ckpt_id, epoch);
            return Err(e);
        }
    };

    // Phase 2: commit. Build the manifest from the Agents' staging
    // reports; every pod must have actually staged.
    let mut entries: Vec<ManifestEntry> = Vec::with_capacity(report.pods.len());
    for pr in &report.pods {
        if pr.image_ref.is_empty() {
            cluster.istore.end_stage(ckpt_id, epoch);
            rollback(&cluster.istore, ckpt_id, epoch);
            return Err(ZapcError::Aborted(format!("pod {:?} staged no image", pr.pod)));
        }
        entries.push(ManifestEntry {
            pod: pr.pod.clone(),
            image_ref: pr.image_ref.clone(),
            digest: pr.digest,
            bytes: pr.image_bytes as u64,
            node: *nodes.get(&pr.pod).expect("placement captured at entry"),
        });
    }
    let manifest = Manifest {
        ckpt_id,
        epoch,
        wall_ms: cluster.clock.now_ms(),
        entries,
    };

    // Fault site: the Manager stalls (scripted `Delay`) or dies (any
    // other action) with everything staged but nothing committed. The
    // stall is the split-brain window — a second Manager's recovery runs
    // during the sleep, bumps the epoch and the store fence, and this
    // Manager's commit below loses deterministically. A death cleans
    // nothing; the successor's recovery rolls this checkpoint back.
    match cluster.faults.hit("manager.pre_manifest", "manager") {
        Some(a) if a.delay().is_some() => {
            std::thread::sleep(a.delay().expect("checked"));
        }
        Some(_) => {
            return Err(ZapcError::Aborted("manager crashed before manifest commit".into()))
        }
        None => {}
    }

    let span = cluster.obs.span("manager", "mgr.manifest");
    let manifest_ref = match cluster.istore.commit_manifest(&manifest) {
        Ok(r) => r,
        // The store's fencing token outranks this Manager: a recovery
        // (new epoch) landed between our entry snapshot and the rename.
        // The checkpoint does not exist; surface the typed loss.
        Err(zapc_store::StoreError::Fenced { epoch: have, fence }) => {
            span.end();
            // No rollback: ownership of the store passed to the fencing
            // Manager the moment the token moved. Its recovery already
            // rolled this staging back (or will), and it may since have
            // reused this checkpoint id for its *own* committed images —
            // deleting `images/{ckpt_id}/` here would destroy the
            // winner's checkpoint. `rollback` re-checks the fence
            // for exactly this reason; skip the call outright for
            // clarity.
            return Err(ZapcError::Fenced { have, fence });
        }
        // A failed manifest write is a Manager death at the commit point:
        // the rename never happened, so the checkpoint does not exist. No
        // cleanup — the successor's recovery rolls the staging back.
        Err(e) => {
            span.end();
            return Err(ZapcError::Aborted(format!("manifest commit failed: {e}")));
        }
    };
    span.end();

    // Fault site: the Manager dies immediately *after* the commit point.
    // The checkpoint is durable; the error models only the Manager's
    // death — recovery must classify this checkpoint as committed.
    if cluster.faults.hit("manager.post_manifest", "manager").is_some() {
        return Err(ZapcError::Aborted("manager crashed after manifest commit".into()));
    }

    // The manifest is durable: the checkpoint is reachable from committed
    // state, so the staging grace has done its job — retire it before the
    // retention GC below (which must be free to reap what pruning orphans).
    cluster.istore.end_stage(ckpt_id, epoch);

    // Retention: prune old manifests, then collect everything no retained
    // manifest reaches.
    let (pruned, gc) = prune_and_gc(cluster, opts.keep.max(1));
    Ok(CommitReport { ckpt_id, manifest_ref, pruned, gc, report })
}

/// Scans the durable store after a Manager restart: checks every manifest
/// and the structure and presence of its images, rolls back everything
/// that never committed (or committed torn), garbage-collects orphans, and
/// bumps the Manager epoch. Reads no image bytes — bit rot inside a whole
/// image is found by [`restart_from_manifest`], which falls back.
/// Idempotent: a second pass finds a clean store and removes nothing.
pub fn recover(cluster: &Cluster) -> RecoveryReport {
    let span = cluster.obs.span("manager", "mgr.recover");
    let epoch = cluster.bump_epoch();
    // Raise the store's fencing token to the new epoch *before* touching
    // durable state: from this line on, any older Manager's in-flight
    // manifest rename loses at the store no matter how its threads are
    // scheduled — split-brain resolves to exactly one committed writer.
    cluster.istore.set_fence(epoch);

    let store = &cluster.istore;
    let mut sound: Vec<Manifest> = Vec::new();
    let mut rolled_back: Vec<u64> = Vec::new();
    for id in store.manifest_ids() {
        match store.manifest(id) {
            Ok(m) if m.entries.iter().all(|e| store.entry_is_whole(e)) => sound.push(m),
            _ => {
                store.delete_manifest(id);
                rolled_back.push(id);
            }
        }
    }
    let committed: Vec<u64> = sound.iter().map(|m| m.ckpt_id).collect();
    // Staged image directories with no surviving manifest are checkpoints
    // that were in flight when the crash hit.
    for id in staged_ids(store) {
        if !committed.contains(&id) && !rolled_back.contains(&id) {
            rolled_back.push(id);
        }
    }
    rolled_back.sort_unstable();

    let gc = store.gc(&live_set(&sound));
    if cluster.obs.enabled() {
        cluster.obs.counter("manager", "mgr.recoveries", 1);
    }
    span.end();
    RecoveryReport {
        epoch,
        latest: committed.last().copied(),
        committed,
        rolled_back,
        orphans_removed: gc.total(),
    }
}

/// Restarts an application from a committed checkpoint: `ckpt` names one
/// explicitly, `None` resumes from the newest committed manifest. Any
/// still-live incarnation of the checkpointed pods is torn down first
/// (rollback-recovery semantics). Pods recorded on nodes that are now
/// dead are rescheduled onto live nodes; if the first attempt fails, all
/// pods are torn down and placement is recomputed for one retry — safe
/// because committed images are immutable.
///
/// Every image is verified by the read that consumes it. With `None`, an
/// integrity error — a digest mismatch, a missing, corrupt or mis-hashed
/// chunk, an undecodable manifest, recipe or image, a missing file — rolls
/// the failing checkpoint back (manifest deleted, store collected) and the
/// restart falls back to the next-newest one; the first such error
/// surfaces only when no checkpoint is left. A named `ckpt` surfaces it at
/// once.
pub fn restart_from_manifest(
    cluster: &Cluster,
    ckpt: Option<u64>,
    timeout: Duration,
) -> ZapcResult<RestartReport> {
    if let Some(id) = ckpt {
        return restart_checkpoint(cluster, id, timeout);
    }
    let store = &cluster.istore;
    let epoch = cluster.epoch();
    let mut first_err = None;
    for id in store.manifest_ids().into_iter().rev() {
        match restart_checkpoint(cluster, id, timeout) {
            Err(e) if is_integrity_error(&e) => {
                rollback(store, id, epoch);
                if cluster.obs.enabled() {
                    cluster.obs.counter("manager", "mgr.restart_fallbacks", 1);
                }
                first_err.get_or_insert(e);
            }
            done => return done,
        }
    }
    Err(first_err.unwrap_or_else(|| ZapcError::NotFound("a committed checkpoint".into())))
}

/// Whether `e` says a checkpoint's stored bytes are damaged: what
/// [`restart_from_manifest`] falls back on, and what no retry can cure.
fn is_integrity_error(e: &ZapcError) -> bool {
    use zapc_store::StoreError as S;
    matches!(
        e,
        ZapcError::Decode(_)
            | ZapcError::Store(
                S::DigestMismatch { .. }
                    | S::ChunkMissing { .. }
                    | S::ChunkCorrupt { .. }
                    | S::ChunkDigestMismatch { .. }
                    | S::Decode(_)
                    | S::Io(zapc_sim::Errno::ENOENT)
            )
    )
}

/// [`restart_from_manifest`] of one named checkpoint.
fn restart_checkpoint(cluster: &Cluster, id: u64, timeout: Duration) -> ZapcResult<RestartReport> {
    let m = cluster.istore.manifest(id)?;
    for e in &m.entries {
        cluster.destroy_pod(&e.pod);
    }

    // One retry with freshly computed placement: a partial restart may
    // have left some pods up (those that finished before the abort), and
    // images are immutable, so tearing everything down and re-running is
    // safe. An empty live set
    // is terminal (a retry cannot conjure nodes). The exhaustion wrapper
    // is unwrapped back to the raw error — this path's single retry is
    // an internal detail, and callers predate the typed `Exhausted`.
    const NO_NODES: &str = "no live nodes to restart onto";
    let policy = crate::retry::RetryPolicy::new(1, Duration::from_millis(0));
    policy
        .run(
            |_| {
                // Listen for every node first: one that sat idle past its
                // lease is heard from again, a killed or partitioned one is
                // not.
                let live: Vec<usize> = (0..cluster.node_count())
                    .filter(|&n| node_alive(cluster, n as u32))
                    .collect();
                if live.is_empty() {
                    return Err(ZapcError::Aborted(NO_NODES.into()));
                }
                let targets: Vec<RestartTarget> = m
                    .entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| RestartTarget {
                        pod: e.pod.clone(),
                        uri: Uri::Store { ckpt: id },
                        node: if live.contains(&(e.node as usize)) {
                            e.node as usize
                        } else {
                            // Dead home node: spread displaced pods
                            // round-robin over the survivors.
                            live[i % live.len()]
                        },
                    })
                    .collect();
                restart_with(cluster, &targets, timeout)
            },
            |e| {
                if is_integrity_error(e) || matches!(e, ZapcError::Aborted(why) if why == NO_NODES)
                {
                    return false;
                }
                for entry in &m.entries {
                    cluster.destroy_pod(&entry.pod);
                }
                true
            },
        )
        .map_err(|e| match e {
            ZapcError::Exhausted { last, .. } => *last,
            other => other,
        })
}

/// Rolls back checkpoint `ckpt` — a stage phase that will never commit, or
/// a committed checkpoint a restart found damaged: deletes its manifest
/// (if any), every image under it, abandoned tmp files, and every chunk no
/// remaining manifest's recipe references. The chunk half matters: the recipes are about to be
/// deleted, and chunks they introduced would otherwise be permanent
/// orphans (nothing reachable names them, but naive prefix deletion never
/// visits `chunks/`). Running the store's mark-and-sweep GC against the
/// remaining live set handles both halves and keeps any *other* in-flight
/// checkpoint's grace intact.
///
/// Guarded by the fencing token: if the store's fence has moved past
/// `epoch` (the epoch this Manager worked under), a recovery superseded us
/// mid-flight. The new owner's recovery rolls our staging back, and it may
/// legitimately *reuse* our checkpoint id — so a superseded Manager
/// deleting by id here could destroy the winner's committed images. A
/// fenced loser must not touch the store at all.
fn rollback(store: &ImageStore, ckpt: u64, epoch: u64) {
    if store.fence() > epoch {
        return;
    }
    store.delete_manifest(ckpt);
    let prefix = format!("images/{ckpt}/");
    for r in store.image_refs() {
        if r.starts_with(&prefix) {
            store.delete_image(&r);
        }
    }
    store.gc(&live_refs(store));
}

/// Checkpoint ids that have staged image directories.
fn staged_ids(store: &ImageStore) -> Vec<u64> {
    let mut ids: Vec<u64> = store
        .image_refs()
        .iter()
        .filter_map(|r| r.strip_prefix("images/")?.split('/').next()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The live set: every image referenced by one of `manifests`.
fn live_set(manifests: &[Manifest]) -> HashSet<String> {
    manifests.iter().flat_map(|m| m.entries.iter().map(|e| e.image_ref.clone())).collect()
}

/// The live set of every manifest the store holds.
fn live_refs(store: &ImageStore) -> HashSet<String> {
    let held: Vec<Manifest> =
        store.manifest_ids().into_iter().filter_map(|id| store.manifest(id).ok()).collect();
    live_set(&held)
}

/// Prunes all but the newest `keep` manifests, then garbage-collects.
fn prune_and_gc(cluster: &Cluster, keep: usize) -> (Vec<u64>, GcReport) {
    let store = &cluster.istore;
    let ids = store.manifest_ids();
    let mut pruned = Vec::new();
    if ids.len() > keep {
        for &id in &ids[..ids.len() - keep] {
            store.delete_manifest(id);
            pruned.push(id);
        }
    }
    let gc = store.gc(&live_refs(store));
    (pruned, gc)
}
