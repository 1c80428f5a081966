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

use crate::agent::{
    agent_checkpoint, agent_restart, AgentReply, CheckpointJob, CtlMsg, Finalize, RestartInputs,
    SyncPolicy,
};
use crate::cluster::Cluster;
use crate::coord::Coord;
use crate::retry::RetryPolicy;
use crate::uri::Uri;
use crate::{ZapcError, ZapcResult};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zapc_netckpt::assign_roles;
use zapc_proto::{ImageReader, MetaData, SectionTag};

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
    /// Local total latency (ms).
    pub total_ms: f64,
    /// Network-state phase latency (ms).
    pub net_ms: f64,
    /// Standalone phase latency (ms).
    pub standalone_ms: f64,
    /// How long the pod's network stayed blocked (ms; checkpoint only).
    pub blocked_ms: f64,
    /// Suspend/quiesce (checkpoint) or pod-creation (restart) phase (ms).
    pub quiesce_ms: f64,
    /// Time the Agent waited on the Manager's `continue` (ms).
    pub sync_ms: f64,
    /// Image-delivery (commit) phase (ms).
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
    /// FNV-1a 64 digest of the image (durable-store checkpoints only).
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
    /// The merged meta-data (for diagnostics and direct migration).
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
    /// Late Agent replies drained after aborted attempts of a migration's
    /// phase 1 (a plain restart never retries, so it reports 0).
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
    /// Manager epoch to stamp the operation with. `None` reads the
    /// current epoch at each attempt's start; [`crate::checkpoint_commit`]
    /// pins the epoch it snapshotted at entry so a recovery racing the
    /// commit deterministically fences the whole pipeline, not just the
    /// manifest rename.
    pub epoch: Option<u64>,
}

impl Default for CheckpointOptions {
    fn default() -> Self {
        CheckpointOptions {
            policy: SyncPolicy::SingleSync,
            timeout: DEFAULT_TIMEOUT,
            fs_snapshot: false,
            retries: 0,
            backoff: Duration::from_millis(50),
            epoch: None,
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
    let mut late = 0u64;
    let policy = RetryPolicy::new(opts.retries, opts.backoff);
    let (mut report, _) = policy.run(
        |_| checkpoint_once(cluster, targets, opts, "manager", &mut late),
        // Retry only when the abort rolled every target back to running — a
        // partially-committed destroy cannot be re-run.
        |e| {
            matches!(e, ZapcError::Aborted(_))
                && targets.iter().all(|t| cluster.pod(&t.pod).is_some())
        },
    )?;
    report.late_replies = late;
    Ok(report)
}

/// Images that came back through the `done` replies (the streaming
/// rendezvous of `Uri::Agent` targets), by pod.
type StreamedImages = HashMap<String, Arc<Vec<u8>>>;

/// What a checkpoint's Agents have reported so far.
#[derive(Default)]
struct Gathered {
    meta: Vec<MetaData>,
    pods: Vec<PodReport>,
    images: StreamedImages,
}

impl Gathered {
    /// Files one reply; an Agent's failure report is the `Err`.
    fn file(&mut self, reply: AgentReply) -> Result<(), String> {
        match reply {
            AgentReply::Meta { meta } => self.meta.push(meta),
            AgentReply::Done { pod, result, image, .. } => {
                self.pods.push(result.map_err(|why| format!("agent for {pod} failed: {why}"))?);
                if let Some(image) = image {
                    self.images.insert(pod, image);
                }
            }
        }
        Ok(())
    }
}

/// One coordinated-checkpoint attempt. `who` keys the Manager-crash fault
/// sites (`"manager"` for checkpoints, `"migrate"` for a migration's
/// phase 1). Every error path aborts the surviving Agents and drains
/// their rollback replies, so no pod is left suspended.
fn checkpoint_once(
    cluster: &Cluster,
    targets: &[CheckpointTarget],
    opts: &CheckpointOptions,
    who: &str,
    late: &mut u64,
) -> ZapcResult<(CheckpointReport, StreamedImages)> {
    let t0 = Instant::now();
    // The epoch every Agent op and the eventual `continue` are stamped
    // with. `checkpoint_commit` pins its entry snapshot here; ad-hoc
    // callers read the live epoch per attempt. A recovery bumping the
    // cluster epoch mid-flight makes every stamp stale, so the Agents
    // fence and the attempt aborts instead of committing for a Manager
    // the cluster already declared dead.
    let op_epoch = opts.epoch.unwrap_or_else(|| cluster.epoch());
    let mut co: Coord<'_, CtlMsg, AgentReply> = Coord::new(cluster, opts.timeout);

    let result = std::thread::scope(|scope| {
        // Manager-side phase partition: broadcast + meta collection, the
        // single sync, then done collection. The three slices tile
        // t0 → last `done`, so their sum reproduces `wall_ms`.
        let meta_span = cluster.obs.span("manager", "mgr.meta");
        // 1. Broadcast `checkpoint` to all participating Agents.
        for t in targets {
            let (reply, ctl) = co.register(&t.pod, cluster.pod_node(&t.pod));
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
        let mut got = Gathered::default();
        while got.meta.len() < targets.len() {
            got.file(co.recv("meta-data")?).map_err(|why| co.abort(why))?;
        }

        // Fault site: the Manager dies here.
        if cluster.faults.hit("manager.post_meta", who).is_some() {
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
        if cluster.faults.hit("manager.pre_done", who).is_some() {
            return Err(co.manager_died("manager crashed collecting done"));
        }

        // 4. Receive status from every Agent.
        while got.pods.len() < targets.len() {
            got.file(co.recv("done")?).map_err(|why| co.abort(why))?;
        }
        let Gathered { meta, mut pods, images } = got;
        commit_span.end();
        let t_end = Instant::now();
        pods.sort_by(|a, b| a.pod.cmp(&b.pod));
        let phases = PhaseBreakdown {
            phases: vec![
                Phase { name: "mgr.meta", ms: (t_meta - t0).as_secs_f64() * 1000.0 },
                Phase { name: "mgr.sync", ms: (t_sync - t_meta).as_secs_f64() * 1000.0 },
                Phase { name: "mgr.commit", ms: (t_end - t_sync).as_secs_f64() * 1000.0 },
            ],
        };
        let wall_ms = (t_end - t0).as_secs_f64() * 1000.0;
        Ok((CheckpointReport { pods, wall_ms, phases, late_replies: 0, meta }, images))
    });
    *late += co.late;
    result
}

/// Coordinated restart (Figure 3, Manager side) with the default timeout.
pub fn restart(cluster: &Cluster, targets: &[RestartTarget]) -> ZapcResult<RestartReport> {
    restart_with(cluster, targets, DEFAULT_TIMEOUT)
}

/// Coordinated restart with an explicit timeout.
///
/// Refused — before any image is fetched or Agent started — when a target
/// names a pod that is still live (or names one pod twice): restarting
/// over a running pod would take its name and its virtual address's route
/// and leave it running unreachable. Destroy or migrate it away first.
pub fn restart_with(
    cluster: &Cluster,
    targets: &[RestartTarget],
    timeout: Duration,
) -> ZapcResult<RestartReport> {
    let t0 = Instant::now();
    let mut names = HashSet::with_capacity(targets.len());
    for t in targets {
        if let Some(node) = cluster.pod_node(&t.pod) {
            return Err(ZapcError::Aborted(format!(
                "restart refused: pod {:?} is still live on node {node}",
                t.pod
            )));
        }
        if !names.insert(t.pod.as_str()) {
            return Err(ZapcError::Aborted(format!(
                "restart refused: pod {:?} is targeted twice",
                t.pod
            )));
        }
    }

    // Fetch images and lift each pod's meta-data out of its image.
    let mut images: Vec<Arc<Vec<u8>>> = Vec::with_capacity(targets.len());
    let mut metas: Vec<MetaData> = Vec::with_capacity(targets.len());
    for t in targets {
        let image: Arc<Vec<u8>> = match &t.uri {
            Uri::Mem(label) => cluster
                .store
                .get(label)
                .ok_or_else(|| ZapcError::NotFound(format!("image {label:?}")))?,
            Uri::Agent { .. } => {
                return Err(ZapcError::NotFound(
                    "streamed images are consumed by migrate()".into(),
                ))
            }
            Uri::Store { ckpt } => {
                // Durable source: resolve the pod through the committed
                // manifest and re-verify the recorded digest — a torn or
                // rotted image surfaces as an error here, never as a
                // mis-restore.
                let m = cluster.istore.manifest(*ckpt)?;
                let entry = m.entry(&t.pod).ok_or_else(|| {
                    ZapcError::NotFound(format!("pod {:?} in checkpoint {ckpt}", t.pod))
                })?;
                Arc::new(cluster.istore.fetch_verified(&entry.image_ref, entry.digest)?)
            }
        };
        let meta = extract_meta(&image)?;
        if meta.pod != t.pod {
            return Err(ZapcError::NotFound(format!(
                "pod {:?} in the image at {:?} (it holds pod {:?})",
                t.pod, t.uri, meta.pod
            )));
        }
        metas.push(meta);
        images.push(image);
    }

    restart_from_parts(cluster, targets, images, metas, timeout, t0, false)
}

/// Shared tail of `restart`/`migrate`: schedule + per-Agent restart.
fn restart_from_parts(
    cluster: &Cluster,
    targets: &[RestartTarget],
    images: Vec<Arc<Vec<u8>>>,
    mut metas: Vec<MetaData>,
    timeout: Duration,
    t0: Instant,
    sendq_merge: bool,
) -> ZapcResult<RestartReport> {
    // `mgr.prepare` covers everything before the schedule: image fetch
    // for a restart, the whole checkpoint phase 1 for a migration.
    let t_prepare = Instant::now();
    let schedule_span = cluster.obs.span("manager", "mgr.schedule");
    // Derive the connectivity map and the connect/accept schedule.
    assign_roles(&mut metas);

    // Optional §5 send-queue merge: decode every pod's socket records,
    // reroute post-overlap send-queue bytes into the peers' checkpoint
    // streams, and hand the transformed records to the Agents.
    let mut merged_records: Vec<Option<Vec<zapc_netckpt::SockRecord>>> =
        targets.iter().map(|_| None).collect();
    if sendq_merge {
        let mut all_records: Vec<Vec<zapc_netckpt::SockRecord>> = Vec::with_capacity(images.len());
        for image in &images {
            let rd = ImageReader::open(image)?;
            let sections = rd.sections()?;
            let payload = sections
                .iter()
                .find(|s| s.tag == SectionTag::NetState)
                .ok_or_else(|| ZapcError::NotFound("netstate section".into()))?
                .payload;
            all_records.push(zapc_netckpt::records::decode_records(payload)?);
        }
        zapc_netckpt::merge_send_queues(&mut all_records);
        merged_records = all_records.into_iter().map(Some).collect();
    }
    schedule_span.end();
    let t_schedule = Instant::now();

    // 1. Send `restart` + modified meta-data to each Agent.
    let restore_span = cluster.obs.span("manager", "mgr.restore");
    // The Agents bound their own reconnection by `timeout`; the Manager
    // leaves them room to report that failure themselves.
    let mut co: Coord<'_, CtlMsg, AgentReply> =
        Coord::new(cluster, timeout + Duration::from_secs(5));
    std::thread::scope(|scope| {
        for (i, t) in targets.iter().enumerate() {
            let inputs = RestartInputs {
                my_meta: &metas[i],
                all_meta: &metas,
                node: t.node,
                records: merged_records[i].take(),
                timeout,
            };
            let (image, (reply, ctl)) = (&images[i], co.register(&t.pod, Some(t.node)));
            scope.spawn(move || agent_restart(cluster, image, inputs, &reply, &ctl));
        }

        // 2. Receive status from every Agent. On any failure the abort
        // tells the Agents still at work to destroy what they created.
        let mut got = Gathered::default();
        while got.pods.len() < targets.len() {
            got.file(co.recv("restart done")?).map_err(|why| co.abort(why))?;
        }
        let mut pods = got.pods;
        pods.sort_by(|a, b| a.pod.cmp(&b.pod));
        restore_span.end();
        let t_end = Instant::now();
        let phases = PhaseBreakdown {
            phases: vec![
                Phase { name: "mgr.prepare", ms: (t_prepare - t0).as_secs_f64() * 1000.0 },
                Phase {
                    name: "mgr.schedule",
                    ms: (t_schedule - t_prepare).as_secs_f64() * 1000.0,
                },
                Phase { name: "mgr.restore", ms: (t_end - t_schedule).as_secs_f64() * 1000.0 },
            ],
        };
        Ok(RestartReport {
            pods,
            wall_ms: (t_end - t0).as_secs_f64() * 1000.0,
            phases,
            late_replies: 0,
        })
    })
}

fn extract_meta(image: &[u8]) -> ZapcResult<MetaData> {
    let mut rd = ImageReader::open(image)?;
    while let Some(s) = rd.next_section()? {
        if s.tag == SectionTag::NetMeta {
            let mut r = zapc_proto::RecordReader::new(s.payload);
            use zapc_proto::Decode;
            return MetaData::decode(&mut r).map_err(ZapcError::Decode);
        }
    }
    Err(ZapcError::NotFound("meta-data section".into()))
}

/// Options for [`migrate_with`].
#[derive(Debug, Clone)]
pub struct MigrateOptions {
    /// Apply the §5 send-queue merge optimization: saved send queues ride
    /// inside the peers' checkpoint streams instead of being re-sent over
    /// the new connections.
    pub sendq_merge: bool,
    /// Per-phase timeout (Manager reply waits and Agent `continue` waits).
    pub timeout: Duration,
    /// Retry an aborted checkpoint phase up to this many more times. Only
    /// phase 1 retries: its abort path resumes every source pod, so a
    /// retry starts clean. Phase 2 never retries — by then the sources
    /// are destroyed and a failure is final.
    pub retries: u32,
    /// Base delay between retries (attempt `n` waits `n * backoff`).
    pub backoff: Duration,
    /// Live migration ([`crate::live::migrate_live_with`]): maximum
    /// pre-copy rounds (the base copy counts as round 1) before cutover
    /// is forced. Bounds downtime for workloads whose dirty rate never
    /// converges — the last round's residual is then shipped quiesced.
    pub max_rounds: u32,
    /// Live migration: a delta round that ships at most this many
    /// region-content bytes is considered converged and triggers cutover.
    pub residual_threshold: usize,
    /// Live migration: pause between pre-copy rounds. Zero means
    /// back-to-back rounds; benchmarks and tests use a small pause to
    /// model wire drain time and give the application a scheduling
    /// window between captures.
    pub round_delay: Duration,
}

impl Default for MigrateOptions {
    fn default() -> Self {
        MigrateOptions {
            sendq_merge: false,
            timeout: DEFAULT_TIMEOUT,
            retries: 0,
            backoff: Duration::from_millis(50),
            max_rounds: 8,
            residual_threshold: 4096,
            round_delay: Duration::ZERO,
        }
    }
}

/// Direct migration: checkpoint a set of pods and restart them on new
/// nodes, streaming images Agent-to-Agent without intermediate storage
/// (§4). `moves` maps each pod to its destination node; `N → M` mappings
/// (several pods to one node, or one node's pods fanning out) are fine.
pub fn migrate(cluster: &Cluster, moves: &[(String, usize)]) -> ZapcResult<RestartReport> {
    migrate_with(cluster, moves, &MigrateOptions::default())
}

/// [`migrate`] with options.
///
/// Phase 1 (coordinated checkpoint of the sources) retries like
/// [`checkpoint_with`]: its abort path resumes every pod, so up to
/// `opts.retries` aborted attempts are re-run after backoff. Phase 2
/// (restart at the destinations) is past the point of no return — the
/// sources were destroyed when phase 1 committed — so its failures
/// surface immediately.
pub fn migrate_with(
    cluster: &Cluster,
    moves: &[(String, usize)],
    opts: &MigrateOptions,
) -> ZapcResult<RestartReport> {
    let t0 = Instant::now();
    let targets: Vec<CheckpointTarget> = moves
        .iter()
        .map(|(pod, node)| CheckpointTarget {
            pod: pod.clone(),
            uri: Uri::Agent { node: *node },
            finalize: Finalize::Destroy,
        })
        .collect();

    // Phase 1 *is* a coordinated checkpoint whose images come back through
    // the `done` replies (the streaming rendezvous) instead of storage.
    // Migrations always run under the live epoch: there is no durable
    // commit to pin, and a recovery racing phase 1 should fence it the
    // moment the bump lands.
    let ck_opts = CheckpointOptions { timeout: opts.timeout, ..CheckpointOptions::default() };
    let mut late = 0u64;
    let policy = RetryPolicy::new(opts.retries, opts.backoff);
    let (ckpt, images) = policy.run(
        |_| checkpoint_once(cluster, &targets, &ck_opts, "migrate", &mut late),
        // Retry only when every source pod survived the abort; a fault
        // that struck after some Agents passed the sync point (and
        // destroyed their pods) is final.
        |e| {
            matches!(e, ZapcError::Aborted(_))
                && targets.iter().all(|t| cluster.pod(&t.pod).is_some())
        },
    )?;

    // Phase 2: restart at the destinations from the streamed images.
    let mut restart_targets = Vec::with_capacity(moves.len());
    let mut ordered_images = Vec::with_capacity(moves.len());
    let mut ordered_metas = Vec::with_capacity(moves.len());
    for (pod, node) in moves {
        restart_targets.push(RestartTarget {
            pod: pod.clone(),
            uri: Uri::Agent { node: *node },
            node: *node,
        });
        ordered_images.push(Arc::clone(images.get(pod).expect("image collected")));
        ordered_metas
            .push(ckpt.meta.iter().find(|m| m.pod == *pod).expect("meta collected").clone());
    }
    let mut report = restart_from_parts(
        cluster,
        &restart_targets,
        ordered_images,
        ordered_metas,
        opts.timeout,
        t0,
        opts.sendq_merge,
    )?;
    report.late_replies = late;
    Ok(report)
}
