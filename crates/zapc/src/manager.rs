//! The Manager: the front-end client that orchestrates coordinated
//! checkpoint and restart (§4, Figures 1 & 3).
//!
//! A checkpoint is invoked with a list of `«node, pod, URI»` tuples. The
//! Manager broadcasts the checkpoint command, gathers every Agent's
//! meta-data, then issues the single `continue` — the **only
//! synchronization point** of the whole operation — and finally collects
//! `done` reports. A restart is invoked the same way; the Manager derives
//! the new connectivity map from the merged meta-data (virtual addresses
//! make the map invariant under migration), computes the
//! `connect`/`accept` schedule, and hands every Agent the modified
//! meta-data.
//!
//! Failure semantics: the Manager maintains reliable connections to the
//! Agents, so an Agent failure is detected as a broken connection (a
//! dropped channel here) and the operation aborts gracefully — the
//! application resumes execution (§4).

use crate::agent::{agent_checkpoint, CheckpointJob, Finalize, SyncPolicy};
use crate::cluster::Cluster;
use crate::coord::{distinct, retry_aborted, Book, Coord, Role};
use crate::live::{migrate_live_with, restart_stored, MigrateOptions, StoredCut};
use crate::retry::RetryPolicy;
use crate::uri::Uri;
use crate::{ZapcError, ZapcResult};
use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};
use zapc_proto::{Manifest, MetaData};

/// Default Manager-side timeout for Agent replies.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// One checkpoint target: `«node, pod, URI»`.
#[derive(Debug, Clone)]
pub struct CheckpointTarget {
    /// Pod to checkpoint.
    pub pod: String,
    /// Destination for the image.
    pub uri: Uri,
    /// Keep running afterwards (snapshot) or tear down (migration source).
    pub finalize: Finalize,
}

impl CheckpointTarget {
    /// A snapshot target writing to the in-memory store under
    /// `ckpt/<pod>`.
    pub fn snapshot(pod: &str) -> CheckpointTarget {
        CheckpointTarget {
            pod: pod.to_owned(),
            uri: Uri::mem(format!("ckpt/{pod}")),
            finalize: Finalize::Resume,
        }
    }
}

/// One restart target: `«node, pod, URI»` — where to find the image and
/// which node the pod lands on.
#[derive(Debug, Clone)]
pub struct RestartTarget {
    /// Pod to restart (must match the image's pod name).
    pub pod: String,
    /// Image source.
    pub uri: Uri,
    /// Destination node.
    pub node: usize,
}

/// Per-pod outcome of a coordinated operation, filled in by the pod's
/// Agent from its own clocks.
#[derive(Debug, Clone, Default)]
pub struct PodReport {
    /// Pod name.
    pub pod: String,
    /// Local total latency (ms). For a checkpoint, the pod's freeze:
    /// suspend → resume (or → destroy), which holds the quiesce, network,
    /// standalone, sync and resume phases; the image's encode and delivery
    /// (`commit_ms`) follow it. For a restart, creation → resume.
    pub total_ms: f64,
    /// Network-state phase latency (ms).
    pub net_ms: f64,
    /// Standalone phase latency (ms): for a checkpoint, the in-freeze
    /// capture of the pod's non-network state; a live cutover also
    /// encodes its image here.
    pub standalone_ms: f64,
    /// How long the pod's network stayed blocked (ms; checkpoint only).
    pub blocked_ms: f64,
    /// Suspend/quiesce (checkpoint) or pod-creation (restart) phase (ms).
    pub quiesce_ms: f64,
    /// Time the Agent waited on the Manager's `continue` (ms).
    pub sync_ms: f64,
    /// Commit phase (ms). For a checkpoint, the image's encode from the
    /// capture plus its delivery, after the pod resumed (or was destroyed).
    pub commit_ms: f64,
    /// Resume phase (ms).
    pub resume_ms: f64,
    /// Image size (bytes).
    pub image_bytes: usize,
    /// Network-state share of the image (bytes).
    pub network_bytes: usize,
    /// Store-relative reference of the staged image (durable-store
    /// checkpoints only; empty otherwise).
    pub image_ref: String,
    /// Store digest of the image (durable-store checkpoints only).
    pub digest: u64,
}

/// One named slice of a Manager-observed operation.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (`mgr.meta`, `mgr.sync`, `mgr.commit`, …).
    pub name: &'static str,
    /// Wall time of the phase (ms).
    pub ms: f64,
}

/// Manager-side wall-time partition of a coordinated operation. The
/// phases tile the interval from invocation to the last `done`, so
/// [`PhaseBreakdown::sum_ms`] equals the report's `wall_ms` up to
/// measurement noise.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Ordered phases.
    pub phases: Vec<Phase>,
}

impl PhaseBreakdown {
    /// Total of all phases (ms).
    pub fn sum_ms(&self) -> f64 {
        self.phases.iter().map(|p| p.ms).sum()
    }

    /// Phase `names[i]` is the slice `at[i] → at[i + 1]`.
    pub(crate) fn tile(names: &[&'static str], at: &[Instant]) -> PhaseBreakdown {
        let slice = |(&name, w): (_, &[Instant])| Phase { name, ms: ms(w[0], w[1]) };
        PhaseBreakdown { phases: names.iter().zip(at.windows(2)).map(slice).collect() }
    }
}

/// Milliseconds from `from` to `to`.
pub(crate) fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1000.0
}

/// Outcome of a coordinated checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Per-pod statistics.
    pub pods: Vec<PodReport>,
    /// Manager-observed wall time, invocation → all `done` (the Figure 6a
    /// metric).
    pub wall_ms: f64,
    /// Manager-side phase partition of `wall_ms`.
    pub phases: PhaseBreakdown,
    /// Agent `done` replies that arrived only while draining an aborted
    /// attempt (previously discarded silently), accumulated across
    /// retries.
    pub late_replies: u64,
    /// The merged meta-data (for diagnostics).
    pub meta: Vec<MetaData>,
}

/// Outcome of a coordinated restart.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// Per-pod statistics (`net_ms` is the network *restore* time).
    pub pods: Vec<PodReport>,
    /// Manager-observed wall time (the Figure 6b metric).
    pub wall_ms: f64,
    /// Manager-side phase partition of `wall_ms`.
    pub phases: PhaseBreakdown,
    /// Late Agent replies drained after aborted attempts of a migration
    /// (a plain restart never retries, so it reports 0).
    pub late_replies: u64,
}

/// Knobs for [`checkpoint_with`].
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Coordination policy.
    pub policy: SyncPolicy,
    /// Per-phase timeout: bounds the Manager's wait for each Agent reply
    /// *and* each Agent's wait for the Manager's `continue`.
    pub timeout: Duration,
    /// Capture each pod's chroot subtree into the image (§3's optional
    /// file-system snapshot; off by default — the cluster assumes shared
    /// storage).
    pub fs_snapshot: bool,
    /// Retry an aborted checkpoint up to this many more times. Safe:
    /// every abort rolls the pods back to running, so a retry starts
    /// from clean state.
    pub retries: u32,
    /// Base delay between retries (attempt `n` waits `n * backoff`).
    pub backoff: Duration,
}

impl Default for CheckpointOptions {
    fn default() -> Self {
        CheckpointOptions {
            policy: SyncPolicy::SingleSync,
            timeout: DEFAULT_TIMEOUT,
            fs_snapshot: false,
            retries: 0,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Coordinated checkpoint with default options.
pub fn checkpoint(cluster: &Cluster, targets: &[CheckpointTarget]) -> ZapcResult<CheckpointReport> {
    checkpoint_with(cluster, targets, &CheckpointOptions::default())
}

/// Coordinated checkpoint (Figure 1, Manager side) with bounded
/// retry-with-backoff: an [`ZapcError::Aborted`] attempt leaves every pod
/// running (the abort path rolls back), so transient faults are retried
/// up to `opts.retries` times before the error surfaces.
pub fn checkpoint_with(
    cluster: &Cluster,
    targets: &[CheckpointTarget],
    opts: &CheckpointOptions,
) -> ZapcResult<CheckpointReport> {
    checkpoint_at(cluster, targets, opts, None)
}

/// [`checkpoint_with`] stamped with `epoch`. `None` reads the current
/// epoch at each attempt's start; [`crate::checkpoint_commit`] pins the
/// epoch it snapshotted at entry so a recovery racing the commit
/// deterministically fences the whole pipeline, not just the manifest
/// rename.
pub(crate) fn checkpoint_at(
    cluster: &Cluster,
    targets: &[CheckpointTarget],
    opts: &CheckpointOptions,
    epoch: Option<u64>,
) -> ZapcResult<CheckpointReport> {
    let pods: Vec<&str> = targets.iter().map(|t| t.pod.as_str()).collect();
    distinct("checkpoint", pods.iter().copied())?;
    // Retried only when the abort rolled every target back to running — a
    // partially-committed destroy cannot be re-run.
    let policy = RetryPolicy::new(opts.retries, opts.backoff);
    let (mut report, late) = retry_aborted(cluster, &pods, policy, opts.timeout, |co| {
        checkpoint_once(co, targets, opts, epoch)
    })?;
    report.late_replies = late;
    Ok(report)
}

/// One coordinated-checkpoint attempt. Every error path aborts the
/// surviving Agents and drains their rollback replies, so no pod is left
/// suspended.
fn checkpoint_once(
    co: &mut Coord<'_>,
    targets: &[CheckpointTarget],
    opts: &CheckpointOptions,
    epoch: Option<u64>,
) -> ZapcResult<CheckpointReport> {
    let t0 = Instant::now();
    let cluster = co.cluster;
    // The epoch every Agent op and the eventual `continue` are stamped
    // with. `checkpoint_commit` pins its entry snapshot here; ad-hoc
    // callers read the live epoch per attempt. A recovery bumping the
    // cluster epoch mid-flight makes every stamp stale, so the Agents
    // fence and the attempt aborts instead of committing for a Manager
    // the cluster already declared dead.
    let op_epoch = epoch.unwrap_or_else(|| cluster.epoch());

    std::thread::scope(|scope| {
        // Manager-side phase partition: broadcast + meta collection, the
        // single sync, then done collection. The three slices tile
        // t0 → last `done`, so their sum reproduces `wall_ms`.
        let meta_span = cluster.obs.span("manager", "mgr.meta");
        // 1. Broadcast `checkpoint` to all participating Agents.
        for t in targets {
            let (reply, ctl) = co.register(&t.pod, Role::Checkpoint, cluster.pod_node(&t.pod));
            let job = CheckpointJob {
                pod: &t.pod,
                dest: &t.uri,
                finalize: t.finalize,
                policy: opts.policy,
                fs_snapshot: opts.fs_snapshot,
                epoch: op_epoch,
                ctl_timeout: opts.timeout,
                reply,
                ctl,
            };
            scope.spawn(move || agent_checkpoint(cluster, job));
        }

        // 2. Receive meta-data from every Agent.
        let n = targets.len();
        while co.got.cut.len() < n {
            co.step("meta-data")?;
        }

        // Fault site: the Manager dies here.
        if cluster.faults.hit("manager.post_meta", "manager").is_some() {
            return Err(co.manager_died("manager crashed after meta-data"));
        }
        meta_span.end();
        let t_meta = Instant::now();

        // 3. The single synchronization: `continue` to everyone. The
        // `ctl.continue` fault site loses or delays individual messages;
        // the Agent's bounded wait turns a loss into a rollback.
        let sync_span = cluster.obs.span("manager", "mgr.sync");
        co.send_continue(op_epoch);
        sync_span.end();
        let t_sync = Instant::now();
        let commit_span = cluster.obs.span("manager", "mgr.commit");

        // Fault site: the Manager dies before collecting `done` replies.
        if cluster.faults.hit("manager.pre_done", "manager").is_some() {
            return Err(co.manager_died("manager crashed collecting done"));
        }

        // 4. Receive status from every Agent.
        while co.got.done.len() < n {
            co.step("done")?;
        }
        commit_span.end();
        let t_end = Instant::now();
        let Book { mut cut, done, .. } = std::mem::take(&mut co.got);
        let meta = targets.iter().map(|t| cut.remove(&t.pod).expect("pod cut").1).collect();
        let mut pods: Vec<PodReport> = done.into_values().map(|(_, report)| report).collect();
        pods.sort_by(|a, b| a.pod.cmp(&b.pod));
        let names = ["mgr.meta", "mgr.sync", "mgr.commit"];
        let phases = PhaseBreakdown::tile(&names, &[t0, t_meta, t_sync, t_end]);
        Ok(CheckpointReport { pods, wall_ms: ms(t0, t_end), phases, late_replies: 0, meta })
    })
}

/// Coordinated restart (Figure 3, Manager side): validates the targets,
/// resolves each image and runs [`crate::live`]'s receive half on each.
/// A receiver fetches its own stored image, verifies and decodes it, and
/// creates nothing before the commit, so no pod exists before every image
/// has verified. A damaged image is [`ZapcError::Decode`] or
/// [`ZapcError::Store`], one holding another pod [`ZapcError::NotFound`].
///
/// Refused — before any Agent runs — when a target names a pod that is
/// still live (or names one pod twice): restarting over a running pod
/// would take its name and its virtual address's route and leave it
/// running unreachable. Destroy or migrate it away first. A target node
/// that does not exist, a missing in-memory image and a pod its
/// checkpoint's manifest does not name are [`ZapcError::NotFound`].
pub fn restart(cluster: &Cluster, targets: &[RestartTarget]) -> ZapcResult<RestartReport> {
    restart_with(cluster, targets, DEFAULT_TIMEOUT)
}

/// [`restart`] with an explicit timeout.
pub(crate) fn restart_with(
    cluster: &Cluster,
    targets: &[RestartTarget],
    timeout: Duration,
) -> ZapcResult<RestartReport> {
    let t0 = Instant::now();
    distinct("restart", targets.iter().map(|t| t.pod.as_str()))?;
    for t in targets {
        if let Some(node) = cluster.pod_node(&t.pod) {
            return Err(ZapcError::Aborted(format!(
                "restart refused: pod {:?} is still live on node {node}",
                t.pod
            )));
        }
        if t.node >= cluster.node_count() {
            return Err(ZapcError::NotFound(format!("node {}", t.node)));
        }
    }

    // Resolve what each receiver reads: an in-memory image, or the
    // manifest entry of a stored one, which its receiver fetches and
    // checks against the recorded digest. Each checkpoint's manifest is
    // read once.
    let mut cuts = Vec::with_capacity(targets.len());
    let mut manifests: HashMap<u64, Manifest> = HashMap::new();
    for t in targets {
        cuts.push(match &t.uri {
            Uri::Mem(label) => {
                let missing = || ZapcError::NotFound(format!("image {label:?}"));
                StoredCut::Mem(cluster.store.get(label).ok_or_else(missing)?)
            }
            Uri::Store { ckpt } => {
                let m = match manifests.entry(*ckpt) {
                    Entry::Occupied(m) => m.into_mut(),
                    Entry::Vacant(slot) => slot.insert(cluster.istore.manifest(*ckpt)?),
                };
                let entry = m.entry(&t.pod).ok_or_else(|| {
                    ZapcError::NotFound(format!("pod {:?} in checkpoint {ckpt}", t.pod))
                })?;
                StoredCut::Store { image_ref: entry.image_ref.clone(), digest: entry.digest }
            }
        });
    }
    restart_stored(cluster, targets, cuts, timeout, t0)
}

/// Direct migration: stop-and-copy every pod in `moves` to its destination
/// node, streaming each checkpoint Agent-to-Agent without intermediate
/// storage (§4); `N → M` mappings (several pods to one node, or one node's
/// pods fanning out) are fine. This is [`migrate_live_with`] with no
/// pre-copy rounds: no source is destroyed before every receiver holds a
/// verified, decoded cut. The report carries the receivers' restart
/// reports and the Manager phases of that protocol.
pub fn migrate(cluster: &Cluster, moves: &[(String, usize)]) -> ZapcResult<RestartReport> {
    let opts = MigrateOptions { max_rounds: 0, ..MigrateOptions::default() };
    let live = migrate_live_with(cluster, moves, &opts)?;
    let mut pods: Vec<PodReport> = live.pods.into_iter().map(|p| p.restart).collect();
    pods.sort_by(|a, b| a.pod.cmp(&b.pod));
    Ok(RestartReport {
        pods,
        wall_ms: live.wall_ms,
        phases: live.phases,
        late_replies: live.late_replies,
    })
}
