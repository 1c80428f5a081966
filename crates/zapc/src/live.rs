//! The one engine behind migration ([`crate::migrate`], [`migrate_live`],
//! [`migrate_live_with`]) and restart ([`crate::restart`] and, through
//! it, [`crate::restart_from_manifest`]).
//!
//! The paper's migration is stop-and-copy: quiesce, dump, ship, restore —
//! downtime scales with image size. This module runs it, and adds the
//! classic fix (iterative pre-copy, as in VM live migration): the source
//! Agent streams a full base image over a bounded frame channel *while the
//! pod keeps running*, then iterates delta rounds (the address space's dirty
//! pages of byte regions and whole `f64` regions since the last capture)
//! until the residual drops under a threshold — or a round/byte cap forces it —
//! and only then quiesces for one final delta plus the network-state cut.
//! Stop-and-copy is the same protocol with zero pre-copy rounds
//! ([`MigrateOptions::max_rounds`] `= 0`): the quiesced cut is the whole
//! image. The receiving Agent restores *pipelined*, decoding sections as
//! frames arrive and squashing each delta onto the accumulated base
//! ([`zapc_ckpt::DecodedPod`]) instead of buffering the whole chain. A
//! restart from stored images is the receive half alone: no source, no
//! stream, and each receiver fetches and verifies its own image as the cut.
//!
//! ## Protocol (per pod)
//!
//! ```text
//! source                        wire (frames)            receiver
//! ──────────────────────────────────────────────────────────────────
//! capture round 1 (full) ────► Section*                  apply
//! capture round 2 (delta) ───► Section*                  apply/squash
//!   …until converged/capped (no rounds at all for stop-and-copy)
//! report `precopy` ──────────────────────► Manager
//!   ◄── `cutover` ─────────────────────── Manager (all pods ready)
//! suspend + block vip, network cut; report `meta` ──────► Manager
//! final quiesced image ──────► Image (one frame)   ─ ─ ─ a restart starts
//!                                                  here, with a stored image
//!                                 verify, apply/squash; report `applied`
//!                                 with the cut's meta-data ──► Manager
//! ─────── commit point: every source cut, every cut applied ───────
//!   ◄── `commit` ──── destroy pod ─────── Manager assigns roles
//!                                         Manager ── `commit{roles}` ──►
//!                                     create pod, reconnect, reinstate, resume
//! ```
//!
//! A frame is one of two things. A pre-copy `Section` travels as the
//! image's own record — tag, length, payload and check exactly as
//! [`ImageWriter`](zapc_proto::ImageWriter) frames them — not inside an
//! envelope. A pre-copy payload is encoded and checked once, in the buffer
//! that goes down the channel. The cutover is the Agent's own checkpoint
//! cut (Figure 1 steps 2–3, `agent::checkpoint_cut`) taken as a delta
//! against the last round — or whole, when there was none — and the
//! finished image goes down the stream whole, as the last frame: it starts
//! with the image magic, which read as a record tag is no section, and its
//! `End` record is the end of the stream. The receive half walks the cut
//! with the ordinary verifying [`ImageReader`], decodes every section
//! and reports the cut's meta-data and socket records; at commit it hands
//! the decoded state to the Agent's restart tail (Figure 3,
//! `agent::restart_tail`).
//!
//! The Manager half is phase code over the coordination core: sources and
//! receivers are its participants, keyed by pod and role, speaking the
//! same `Ctl`/`Reply` vocabulary as a checkpoint's Agents, and every phase
//! waits on the core's one reply book.
//!
//! ## Commit point
//!
//! The point of no return is reached only when *every* source has cut
//! AND *every* receiver has verified and decoded its whole cut
//! (`applied`). Only then does the Manager merge the meta-data the
//! receivers reported and compute the connect/accept schedule (with
//! [`MigrateOptions::sendq_merge`], also the §5 send-queue merge over
//! their socket records). Any failure before that — an Agent crash between
//! rounds (`agent.precopy_round`), at cutover (`agent.cutover`), a torn
//! frame (`net.stream_torn`), a receiver node death, a stored image that
//! fails verification — aborts the whole operation: sources unblock and
//! resume (or were never suspended at all), receivers discard their
//! decoded state, and no destination pod ever exists. A migration surfaces
//! [`ZapcError::Aborted`] and is retried under [`MigrateOptions::retries`];
//! a damaged stored image surfaces [`ZapcError::Decode`]. After the commit
//! point the sources are destroyed *first* (so their routing entries are
//! gone before the destinations register) and receiver failures are final
//! and never retried: a receiver that fails past its pod's creation
//! destroys what it created. The virtual IP stays blocked from source
//! suspend until the receiver re-routes it, so no segment can chase a pod
//! across the move.
//!
//! ## Convergence policy
//!
//! After each delta round the source compares the bytes it just shipped
//! against [`MigrateOptions::residual_threshold`]: at or below it, the
//! residual is small enough that the quiesced final delta is cheap —
//! converged, cut over. Workloads that re-dirty their working set faster
//! than the wire drains it never converge; the round cap
//! ([`MigrateOptions::max_rounds`]) and the total pre-copy byte budget
//! (`MAX_PRECOPY_BYTES`) bound the damage, forcing a
//! cutover whose downtime is at worst the stop-and-copy downtime (one
//! working-set-sized delta) plus round bookkeeping.

use crate::agent::{checkpoint_cut, quiesce, restart_tail, unquiesce, RestartInputs};
use crate::cluster::Cluster;
use crate::coord::{distinct, reason, retry_aborted, Book, Coord, Ctl, Key, Reply, Role};
use crate::manager::{ms, PhaseBreakdown, PodReport, RestartReport, RestartTarget, DEFAULT_TIMEOUT};
use crate::retry::RetryPolicy;
use crate::{ZapcError, ZapcResult};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zapc_ckpt::{capture_memory_round, CkptError, DecodedPod};
use zapc_faults::FaultAction;
use zapc_netckpt::records::decode_records;
use zapc_netckpt::{assign_roles, merge_send_queues, SockRecord};
use zapc_proto::image::{Section, MAGIC};
use zapc_proto::rw::RecordStream;
use zapc_proto::{Decode, DecodeError, ImageReader, MetaData, RecordReader, SectionTag};

/// Knobs for [`migrate_live_with`]. The engine reads every one of them,
/// so they are all in effect for [`crate::migrate`] too, which runs it
/// with `max_rounds: 0`.
#[derive(Debug, Clone)]
pub struct MigrateOptions {
    /// Apply the §5 send-queue merge optimization: saved send queues ride
    /// inside the peers' checkpoint streams instead of being re-sent over
    /// the new connections.
    pub sendq_merge: bool,
    /// Per-phase timeout: bounds the Manager's wait for each reply and
    /// each Agent's wait for the Manager's next command or the next frame.
    pub timeout: Duration,
    /// Retry an attempt that aborted before the commit point — leaving
    /// every source running at home — up to this many more times. A
    /// failure past the commit point is final and never retried.
    pub retries: u32,
    /// Base delay between retries (attempt `n` waits `n * backoff`).
    pub backoff: Duration,
    /// Maximum pre-copy rounds (the base copy counts as round 1) before
    /// cutover is forced. Bounds downtime for workloads whose dirty rate
    /// never converges — the last round's residual is then shipped
    /// quiesced. `0` runs no pre-copy at all: stop-and-copy, whose
    /// quiesced cut is the whole image.
    pub max_rounds: u32,
    /// A delta round that ships at most this many region-content bytes is
    /// considered converged and triggers cutover.
    pub residual_threshold: usize,
    /// Pause between pre-copy rounds. Zero means back-to-back rounds;
    /// benchmarks and tests use a small pause to model wire drain time and
    /// give the application a scheduling window between captures.
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

/// How deep the per-pod frame channel buffers before the source blocks
/// (backpressure towards the pre-copy loop, like a TCP window).
const STREAM_DEPTH: usize = 64;

/// Total pre-copy byte budget of one pod across all rounds; exceeding it
/// forces cutover (protects the wire from a fast writer that keeps
/// re-dirtying large regions).
const MAX_PRECOPY_BYTES: u64 = 1 << 30;

/// How often a blocked receiver polls its control channel.
const CTL_POLL: Duration = Duration::from_millis(5);

/// What the Manager waits for between a migration's or a restart's
/// phases, as a timeout names it.
const REPLY: &str = "a live-migration reply";

/// Per-pod outcome of a live migration.
#[derive(Debug, Clone)]
pub struct LivePodReport {
    /// Pod name.
    pub pod: String,
    /// Pre-copy rounds run (the full base copy counts as round 1; 0 for
    /// stop-and-copy).
    pub rounds: u32,
    /// Total bytes streamed while the pod was running.
    pub precopy_bytes: u64,
    /// Region bytes the last pre-copy round shipped (the residual the
    /// convergence policy judged).
    pub residual_bytes: u64,
    /// Final quiesced cut size (bytes) — what downtime actually paid for.
    pub cut_bytes: usize,
    /// Whether pre-copy converged below the residual threshold (`false`
    /// means the round or byte cap forced the cutover).
    pub converged: bool,
    /// Downtime: source suspend → destination resume (ms).
    pub downtime_ms: f64,
    /// The receiver's report of the restart it ran at the destination
    /// (`net_ms` is the network-restore latency, `image_bytes` the cut).
    pub restart: PodReport,
}

/// Outcome of a [`migrate_live`].
#[derive(Debug, Clone)]
pub struct LiveMigrateReport {
    /// Per-pod statistics.
    pub pods: Vec<LivePodReport>,
    /// Manager-observed wall time, invocation → last resume (ms).
    pub wall_ms: f64,
    /// Wall time of the pre-copy phase (invocation → every pod converged
    /// or capped), during which the application keeps running (ms).
    pub precopy_ms: f64,
    /// Wall time of the cutover phase (cutover broadcast → last resume);
    /// an upper bound on any pod's downtime (ms).
    pub cutover_ms: f64,
    /// Largest per-pod downtime (ms) — the headline number live
    /// migration exists to shrink.
    pub max_downtime_ms: f64,
    /// Manager-side partition of `wall_ms`: `mgr.precopy` (invocation,
    /// including aborted attempts, → every pod converged or capped),
    /// `mgr.cutover` (→ the commit point) and `mgr.commit` (→ last resume).
    pub phases: PhaseBreakdown,
    /// Replies drained after aborted attempts, accumulated across retries.
    pub late_replies: u64,
}

/// Live migration with default options.
pub fn migrate_live(cluster: &Cluster, moves: &[(String, usize)]) -> ZapcResult<LiveMigrateReport> {
    migrate_live_with(cluster, moves, &MigrateOptions::default())
}

/// Migration of every pod in `moves` to its destination node: pre-copy
/// rounds (none when `opts.max_rounds` is 0), then a coordinated cutover.
/// See the module docs for the protocol, commit point, retries and
/// convergence policy. An unknown pod or node is [`ZapcError::NotFound`]
/// before anything is touched.
pub fn migrate_live_with(
    cluster: &Cluster,
    moves: &[(String, usize)],
    opts: &MigrateOptions,
) -> ZapcResult<LiveMigrateReport> {
    let t0 = Instant::now();
    let pods: Vec<&str> = moves.iter().map(|(pod, _)| pod.as_str()).collect();
    distinct("migration", pods.iter().copied())?;
    for (pod, node) in moves {
        if cluster.pod(pod).is_none() {
            return Err(ZapcError::NotFound(format!("pod {pod:?}")));
        }
        if *node >= cluster.node_count() {
            return Err(ZapcError::NotFound(format!("node {node}")));
        }
    }
    // Every source pod still exists only before the commit point: past it
    // the sources are destroyed and the failure is final.
    let policy = RetryPolicy::new(opts.retries, opts.backoff);
    let (mut report, late) = retry_aborted(cluster, &pods, policy, opts.timeout, |co| {
        migrate_once(co, moves, opts, t0)
    })?;
    report.late_replies = late;
    Ok(report)
}

/// One migration attempt; its report's times run from `t0`, the
/// invocation.
fn migrate_once(
    co: &mut Coord<'_>,
    moves: &[(String, usize)],
    opts: &MigrateOptions,
    t0: Instant,
) -> ZapcResult<LiveMigrateReport> {
    let cluster = co.cluster;
    // Every pod has two participants — its source and its receiver side —
    // each watched through the node whose lease keeps it alive until its
    // `done` arrives.
    std::thread::scope(|scope| {
        for (pod, node) in moves {
            let (stream_tx, stream_rx) = sync_channel::<Vec<u8>>(STREAM_DEPTH);
            let (src_reply, src_ctl) = co.register(pod, Role::Source, cluster.pod_node(pod));
            let (rcv_reply, rcv_ctl) = co.register(pod, Role::Receiver, Some(*node));
            let node = *node;
            // Each side reports before its end of the stream closes, so the
            // peer's "stream gone" can never overtake the root cause.
            scope.spawn(move || {
                let out = live_source(cluster, pod, node, opts, &stream_tx, &src_reply, src_ctl);
                send_done(cluster, &src_reply, pod, Role::Source, out.map_err(ZapcError::Aborted));
            });
            scope.spawn(move || {
                let out = live_receiver(cluster, pod, node, &stream_rx, &rcv_reply, rcv_ctl, opts);
                if let Some(out) = out.transpose() {
                    send_done(cluster, &rcv_reply, pod, Role::Receiver, out);
                }
            });
        }

        let n = moves.len();

        // Phase A: pre-copy. The application keeps running; wait until
        // every source reports that it converged or hit its cap.
        while co.got.precopy.len() < n {
            co.step(REPLY)?;
        }
        let t_precopy = Instant::now();

        // Phase B: coordinated cutover. Every source suspends, cuts its
        // network state, ships the final delta; every receiver finishes
        // decoding and acknowledges. Nothing is destroyed or created yet.
        for (pod, _) in moves {
            co.send(pod, Role::Source, Ctl::Cutover);
        }
        while co.got.cut.len() < n || co.got.applied.len() < n {
            co.step(REPLY)?;
        }
        let t_commit = Instant::now();

        // ── Commit point: every source cut, every stream applied. ──
        let pods = moves.iter().map(|(pod, _)| pod);
        let commits = commit_point(&mut co.got, cluster, pods, opts.sendq_merge);

        // Commit the sources first: `destroy_pod` must complete before
        // any receiver registers the pod's new home, or the teardown
        // would clear the fresh routing entry. Past the commit point a
        // failure still aborts the receivers (no pod was created yet),
        // but sources may already be gone — final.
        for (pod, _) in moves {
            co.send(pod, Role::Source, Ctl::CommitSource);
        }
        while co.got.done.len() < n {
            co.step(REPLY)?;
        }

        // Commit the receivers: create pods, reconnect, reinstate, resume.
        // Receiver failures after the commit point are final.
        for ((pod, _), commit) in moves.iter().zip(commits) {
            co.send(pod, Role::Receiver, commit);
        }
        while co.got.done.len() < 2 * n {
            co.step(REPLY)?;
        }
        let t_end = Instant::now();

        let mut pods = Vec::with_capacity(n);
        let mut max_downtime_ms = 0.0f64;
        let got = &mut co.got;
        for (pod, _) in moves {
            let (suspended_at, _) = got.cut.get(pod).expect("source cut");
            let (rounds, precopy_bytes, residual_bytes, converged) =
                *got.precopy.get(pod).expect("precopy");
            let source = got.done.get(&Key::new(pod, Role::Source)).expect("source outcome");
            let cut_bytes = source.1.image_bytes;
            let receiver = got.done.remove(&Key::new(pod, Role::Receiver));
            let (resumed_at, restart) = receiver.expect("receiver outcome");
            let downtime = resumed_at.saturating_duration_since(*suspended_at);
            let downtime_ms = downtime.as_secs_f64() * 1000.0;
            max_downtime_ms = max_downtime_ms.max(downtime_ms);
            if cluster.obs.enabled() {
                cluster.obs.counter(pod, "mig.downtime_us", downtime.as_micros() as u64);
            }
            pods.push(LivePodReport {
                pod: pod.clone(),
                rounds,
                precopy_bytes,
                residual_bytes,
                cut_bytes,
                converged,
                downtime_ms,
                restart,
            });
        }
        let names = ["mgr.precopy", "mgr.cutover", "mgr.commit"];
        let phases = PhaseBreakdown::tile(&names, &[t0, t_precopy, t_commit, t_end]);
        Ok(LiveMigrateReport {
            pods,
            wall_ms: ms(t0, t_end),
            precopy_ms: ms(t0, t_precopy),
            cutover_ms: ms(t_precopy, t_end),
            max_downtime_ms,
            phases,
            late_replies: 0,
        })
    })
}

/// What one restart receiver reads: an in-memory image the Manager looked
/// up, or a committed manifest entry's image and the digest it must hash to.
pub(crate) enum StoredCut {
    Mem(Arc<Vec<u8>>),
    Store { image_ref: String, digest: u64 },
}

/// Restart from stored images (Figure 3): one receive half per target,
/// which fetches and checks its own stored image, so the receivers fetch
/// in parallel. [`crate::manager::restart_with`] has resolved the cuts
/// after its invocation at `t0`. Phases: `mgr.prepare` (the slowest
/// receiver's fetch, verification and decode), `mgr.schedule` (the
/// roles), `mgr.restore` (commit → last resume).
pub(crate) fn restart_stored(
    cluster: &Cluster,
    targets: &[RestartTarget],
    cuts: Vec<StoredCut>,
    timeout: Duration,
    t0: Instant,
) -> ZapcResult<RestartReport> {
    // The receivers bound their own reconnection by `timeout`; the Manager
    // leaves them room to report that failure themselves.
    let mut co = Coord::new(cluster, timeout + Duration::from_secs(5));
    std::thread::scope(|scope| {
        for (t, cut) in targets.iter().zip(cuts) {
            let (reply, ctl) = co.register(&t.pod, Role::Receiver, Some(t.node));
            scope.spawn(move || {
                let cut = match cut {
                    StoredCut::Mem(image) => Ok(image),
                    StoredCut::Store { image_ref, digest } => {
                        cluster.istore.fetch_verified(&image_ref, digest).map(Arc::new)
                    }
                };
                let out = cut.map_err(ZapcError::Store).and_then(|cut| {
                    let (from, parts) = (CutSource::Store, DecodedPod::new());
                    receive_cut(cluster, &t.pod, t.node, from, parts, &cut, &reply, &ctl, timeout)
                });
                send_done(cluster, &reply, &t.pod, Role::Receiver, out);
            });
        }
        let n = targets.len();
        while co.got.applied.len() < n {
            co.step(REPLY)?;
        }
        let t_prepare = Instant::now();

        let schedule_span = cluster.obs.span("manager", "mgr.schedule");
        let commits = commit_point(&mut co.got, cluster, targets.iter().map(|t| &t.pod), false);
        schedule_span.end();
        let t_schedule = Instant::now();

        let restore_span = cluster.obs.span("manager", "mgr.restore");
        for (t, commit) in targets.iter().zip(commits) {
            co.send(&t.pod, Role::Receiver, commit);
        }
        while co.got.done.len() < n {
            co.step(REPLY)?;
        }
        restore_span.end();
        let t_end = Instant::now();
        let done = std::mem::take(&mut co.got.done);
        let mut pods: Vec<PodReport> = done.into_values().map(|(_, report)| report).collect();
        pods.sort_by(|a, b| a.pod.cmp(&b.pod));
        let names = ["mgr.prepare", "mgr.schedule", "mgr.restore"];
        let phases = PhaseBreakdown::tile(&names, &[t0, t_prepare, t_schedule, t_end]);
        Ok(RestartReport { pods, wall_ms: ms(t0, t_end), phases, late_replies: 0 })
    })
}

/// A participant's final reply, stamped with the instant and the epoch it
/// is sent under.
fn send_done(
    cluster: &Cluster,
    to: &Sender<Reply>,
    pod: &str,
    role: Role,
    out: ZapcResult<PodReport>,
) {
    let result = out.map(|report| (Instant::now(), report));
    let _ = to.send(Reply::Done { key: Key::new(pod, role), epoch: cluster.epoch(), result });
}

/// The commit point of a migration or restart, once every receiver in
/// `pods` has applied its cut: derives the connectivity map and the
/// connect/accept schedule from the meta-data the receivers reported —
/// with `sendq_merge`, also runs the §5 send-queue merge over their socket
/// records — and returns each receiver's commit, in `pods` order.
fn commit_point<'p>(
    got: &mut Book,
    cluster: &Cluster,
    pods: impl Iterator<Item = &'p String>,
    sendq_merge: bool,
) -> Vec<Ctl> {
    let (mut metas, mut records): (Vec<MetaData>, Vec<_>) =
        pods.map(|pod| got.applied.remove(pod).expect("cut applied")).unzip();
    assign_roles(&mut metas);
    if sendq_merge {
        let moved = merge_send_queues(&mut records, &metas);
        if cluster.obs.enabled() {
            cluster.obs.counter("manager", "mig.merged_bytes", moved as u64);
        }
    }
    let all_meta = Arc::new(metas);
    let commit =
        |(me, records)| Ctl::CommitReceiver { all_meta: Arc::clone(&all_meta), me, records };
    records.into_iter().enumerate().map(commit).collect()
}

/// The source Agent of one migrated pod: pre-copy rounds while the pod
/// runs, then the quiesced cutover. See the module docs. Returns what
/// the source's `done` reports; every `Err` leaves the pod running.
fn live_source(
    cluster: &Cluster,
    pod_name: &str,
    dst_node: usize,
    opts: &MigrateOptions,
    stream: &SyncSender<Vec<u8>>,
    reply: &Sender<Reply>,
    ctl: Receiver<Ctl>,
) -> Result<PodReport, String> {
    let pod = cluster.pod(pod_name).ok_or_else(|| format!("unknown pod {pod_name:?}"))?;
    // The Agent→Agent stream link this migration rides: consulted per
    // frame against the cluster's partition schedule.
    let link = (pod.node().id.0, dst_node as u32);
    let obs = &cluster.obs;

    // A frame that cannot be sent fails the phase it belongs to.
    let ship = |frame: Vec<u8>, phase: &str| {
        send_frame(cluster, pod_name, link, stream, frame).map_err(|why| format!("{why} {phase}"))
    };

    // ── Pre-copy loop: the pod keeps running throughout. ──
    let mut gens: Option<HashMap<u32, u64>> = None;
    let mut rounds = 0u32;
    let mut total_bytes = 0u64;
    let mut last_shipped = 0usize;
    let mut converged = false;
    while rounds < opts.max_rounds && total_bytes < MAX_PRECOPY_BYTES && !converged {
        if rounds > 0 && !opts.round_delay.is_zero() {
            std::thread::sleep(opts.round_delay);
        }
        match ctl.try_recv() {
            Ok(Ctl::Abort) => return Err("aborted during pre-copy".into()),
            Ok(_) => return Err("protocol error: cutover before precopy report".into()),
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => {
                return Err("manager connection broken during pre-copy".into())
            }
        }
        // Fault site: the Agent dies between rounds. The pod was never
        // suspended here, so it simply keeps running — no state lost.
        if cluster.faults.hit("agent.precopy_round", pod_name).is_some() {
            return Err("fault: agent crashed during pre-copy round".into());
        }

        let round_span = obs.span(pod_name, "mig.round");
        let payloads = capture_memory_round(&pod, gens.as_ref())
            .map_err(|e| format!("pre-copy capture failed: {e}"))?;
        rounds += 1;
        let mut shipped = 0usize;
        let mut next_gens: HashMap<u32, u64> = HashMap::new();
        for p in payloads {
            next_gens.insert(p.vpid, p.gen);
            shipped += p.region_bytes;
            ship(p.record, "during pre-copy")?;
        }
        round_span.end();

        let delta_round = gens.is_some();
        gens = Some(next_gens);
        total_bytes += shipped as u64;
        last_shipped = shipped;
        if obs.enabled() {
            obs.counter(pod_name, "mig.round_bytes", shipped as u64);
            if delta_round {
                obs.counter(pod_name, "mig.residual", shipped as u64);
            }
        }
        converged = delta_round && shipped <= opts.residual_threshold;
    }

    let _ = reply.send(Reply::Precopy {
        pod: pod_name.to_owned(),
        rounds,
        precopy_bytes: total_bytes,
        residual_bytes: last_shipped as u64,
        converged,
    });
    // Abort, timeout, or a broken Manager connection: the pod is still
    // running untouched — just walk away.
    if !matches!(ctl.recv_timeout(opts.timeout), Ok(Ctl::Cutover)) {
        return Err("aborted awaiting cutover".into());
    }
    // Fault site: the Agent dies at the cutover command, before touching
    // the pod. The source keeps running; the Manager aborts.
    if cluster.faults.hit("agent.cutover", pod_name).is_some() {
        return Err("fault: agent crashed at cutover".into());
    }

    // ── Cutover: suspend, block, take the Agent's checkpoint cut, ship it. ──
    let suspended_at = Instant::now();
    let cut_span = obs.span(pod_name, "mig.cutover");
    quiesce(cluster, &pod)?;
    let mut report = PodReport { pod: pod_name.to_owned(), ..PodReport::default() };
    let cut = (|| {
        // The final cut is a delta against the last pre-copy round, so it
        // is residual-sized; without pre-copy it is the whole image.
        let capacity = match gens {
            Some(_) => last_shipped + 16 * 1024,
            None => pod.total_mem_bytes() + 4096,
        };
        let image = checkpoint_cut(cluster, &pod, false, gens, capacity, &mut report, |meta| {
            let meta = Box::new(meta.clone());
            reply
                .send(Reply::Meta { pod: pod_name.to_owned(), suspended_at, meta })
                .map_err(|_| "manager connection broken at cutover".to_string())
        })?;
        // The finished image is the stream's last frame.
        ship(image, "at cutover")?;
        cut_span.end();

        // Hold the pod suspended (vip still blocked) until the Manager's
        // commit point. An abort here rolls back: the receiver discards.
        match ctl.recv_timeout(opts.timeout) {
            Ok(Ctl::CommitSource) => Ok(()),
            Ok(_) | Err(_) => Err("aborted awaiting cutover commit".to_string()),
        }
    })();
    match cut {
        Ok(()) => {
            // Clears the address's route with the pod: the Manager commits
            // no receiver until every source has reported this done.
            cluster.destroy_pod(pod_name);
            Ok(report)
        }
        Err(why) => {
            unquiesce(cluster, &pod);
            Err(why)
        }
    }
}

/// Applies the stream-path fault sites to a frame and sends it. The
/// seeded `net.stream_torn` site mangles bytes (the receiver's record
/// check catches it), the seeded `net.partition` site eats (`Drop`) or
/// postpones (`Delay`) the frame — an eaten frame is invisible to the
/// sender, exactly like a real one-way cut, and surfaces as the
/// receiver's stream timeout — and the time-driven partition schedule
/// gates the `src → dst` link: a cut link is waited out under a bounded
/// [`RetryPolicy`] (so a flapping link heals mid-backoff and the frame
/// goes through), and only a link that stays cut fails the send.
fn send_frame(
    cluster: &Cluster,
    pod_name: &str,
    link: (u32, u32),
    stream: &SyncSender<Vec<u8>>,
    mut frame: Vec<u8>,
) -> Result<(), String> {
    if let Some(a) = cluster.faults.hit("net.stream_torn", pod_name) {
        zapc_faults::FaultPlan::mangle(a, &mut frame);
    }
    if matches!(cluster.faults.hit_and_sleep("net.partition", pod_name), Some(FaultAction::Drop)) {
        return Ok(());
    }
    if cluster.partition.is_cut(link.0, link.1) {
        let policy = RetryPolicy::new(20, Duration::from_millis(5));
        let healed = policy.run(
            |_| {
                if cluster.partition.is_cut(link.0, link.1) {
                    Err(ZapcError::Aborted("link cut".into()))
                } else {
                    Ok(())
                }
            },
            |_| true,
        );
        if healed.is_err() {
            return Err(format!("stream link {} → {} stayed cut", link.0, link.1));
        }
    }
    stream.send(frame).map_err(|_| "stream receiver gone".to_string())
}

/// The receiver Agent of one migrated pod. Its stream half decodes the
/// pre-copy frames as they arrive, squashing deltas onto the accumulated
/// state, until the cut image, the stream's last frame; its receive half
/// ([`receive_cut`]) takes it from there. Returns what the receiver's
/// `done` reports — or `Ok(None)` if its node died, which reports nothing
/// at all.
fn live_receiver(
    cluster: &Cluster,
    pod_name: &str,
    node: usize,
    stream: &Receiver<Vec<u8>>,
    reply: &Sender<Reply>,
    ctl: Receiver<Ctl>,
    opts: &MigrateOptions,
) -> ZapcResult<Option<PodReport>> {
    let timeout = opts.timeout;
    let aborted = |why: &str| Err(ZapcError::Aborted(why.into()));
    let mut parts = DecodedPod::new();
    let mut first_frame = true;
    let mut deadline = Instant::now() + timeout;
    // Pre-copy records until the cut image, the stream's last frame.
    let cut = loop {
        match ctl.try_recv() {
            Ok(Ctl::Abort) => return aborted("aborted"),
            Ok(_) => return aborted("protocol error: commit before stream end"),
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => return aborted("manager connection broken"),
        }
        let frame = match stream.recv_timeout(CTL_POLL) {
            Ok(f) => {
                deadline = Instant::now() + timeout;
                f
            }
            Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => continue,
            Err(RecvTimeoutError::Timeout) => return aborted("stream timeout"),
            Err(RecvTimeoutError::Disconnected) => {
                return aborted("stream disconnected before commit")
            }
        };
        if first_frame {
            first_frame = false;
            // Fault site: the destination node dies during the pipelined
            // restore. The whole node goes silent — no reply is ever
            // sent; only the Manager's lease table can notice. The source
            // pod is never touched.
            if cluster.faults.hit("agent.node_dead", pod_name).is_some() {
                cluster.health.kill(node as u32);
                return Ok(None);
            }
        }
        if frame.starts_with(MAGIC) {
            break frame;
        }
        apply_frame(&mut parts, &frame).map_err(ZapcError::Aborted)?;
    };
    receive_cut(cluster, pod_name, node, CutSource::Stream, parts, &cut, reply, &ctl, timeout)
        .map(Some)
}

/// Where a receiver's cut comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CutSource {
    /// The last frame of a migration stream: a delta against the pre-copy
    /// rounds before it (or the whole image, when there were none).
    Stream,
    /// A stored image, which stands alone.
    Store,
}

impl CutSource {
    /// The names the restart tail's four steps trace under.
    fn spans(self) -> [&'static str; 4] {
        match self {
            CutSource::Stream => ["mig.create", "mig.reconnect", "mig.reinstate", "mig.resume"],
            CutSource::Store => ["rst.create", "rst.reconnect", "rst.restore", "rst.resume"],
        }
    }

    /// A cut that fails verification: a torn stream aborts the attempt
    /// (and may be retried), a stored image is damaged data.
    fn unverified(self, e: DecodeError) -> ZapcError {
        match self {
            CutSource::Stream => ZapcError::Aborted(format!("torn stream: {e}")),
            CutSource::Store => ZapcError::Decode(e),
        }
    }
}

/// The receive half of one pod's restart, for a migration and a stored
/// image alike: verifies and decodes the whole cut onto `parts` (the
/// rounds a stream delivered before it, or nothing), reports `applied`
/// with the cut's meta-data, awaits the Manager's commit with the
/// reconnection roles, then runs the Agent's restart tail (Figure 3,
/// `agent::restart_tail`). Nothing exists on this node before the commit.
#[allow(clippy::too_many_arguments)]
fn receive_cut(
    cluster: &Cluster,
    pod_name: &str,
    node: usize,
    from: CutSource,
    mut parts: DecodedPod,
    cut: &[u8],
    reply: &Sender<Reply>,
    ctl: &Receiver<Ctl>,
    timeout: Duration,
) -> ZapcResult<PodReport> {
    let (sections, meta, records) = apply_cut(&mut parts, cut, from)?;
    if meta.pod != pod_name {
        let why = format!("pod {pod_name:?} in its cut (it holds {:?})", meta.pod);
        return Err(ZapcError::NotFound(why));
    }

    // Whole cut decoded and squashed; acknowledge and await the Manager's
    // verdict. Nothing exists on this node yet.
    let meta = Box::new(meta);
    let _ = reply.send(Reply::Applied { pod: pod_name.to_owned(), meta, records });
    match ctl.recv_timeout(timeout) {
        Ok(Ctl::CommitReceiver { all_meta, me, records }) => {
            // Every section is already decoded, so reinstatement is a
            // straight move of materialized state into the new pod.
            let my_meta = &all_meta[me];
            let inputs = RestartInputs { my_meta, all_meta: &all_meta, node, records, timeout };
            let mut report = restart_tail(cluster, &sections, parts, inputs, ctl, from.spans())
                .map_err(|e| ZapcError::Aborted(reason(&e)))?;
            report.image_bytes = cut.len();
            Ok(report)
        }
        Ok(_) | Err(_) => Err(ZapcError::Aborted("aborted before commit".into())),
    }
}

/// Decodes one pre-copy frame onto the accumulated state. A frame is one
/// framed section record: a torn or corrupted frame fails here with a
/// typed decode error, never a misparse, and so does a record that has no
/// place on a stream.
fn apply_frame(parts: &mut DecodedPod, frame: &[u8]) -> Result<(), String> {
    let (raw, payload) =
        RecordStream::new(frame).next_record().map_err(|e| format!("torn stream: {e}"))?;
    let tag = SectionTag::from_u16(raw)
        .ok_or_else(|| format!("torn stream: unknown frame kind {raw:#06x}"))?;
    if matches!(tag, SectionTag::Header | SectionTag::End) {
        return Err(format!("torn stream: image {tag:?} record on the stream"));
    }
    parts.apply_section(tag, payload).map_err(|e| format!("stream apply failed: {e}"))
}

/// Verifies the cut image — every record's check, the preamble, the `End`
/// marker — then applies its sections onto the accumulated state: a
/// stream's cut squashes onto the rounds before it, a stored image must
/// stand alone. Returns the sections for the commit, and the meta-data and
/// socket records the Manager schedules the reconnection (and merges send
/// queues) over. Nothing is applied unless the whole image verifies.
fn apply_cut<'a>(
    parts: &mut DecodedPod,
    image: &'a [u8],
    from: CutSource,
) -> ZapcResult<(Vec<Section<'a>>, MetaData, Vec<SockRecord>)> {
    let sections = ImageReader::open(image)
        .and_then(ImageReader::sections)
        .map_err(|e| from.unverified(e))?;
    let applied = match from {
        CutSource::Stream => {
            sections.iter().try_for_each(|s| parts.apply_section(s.tag, s.payload))
        }
        CutSource::Store => parts.apply_standalone(&sections),
    };
    applied.map_err(|e| match (from, e) {
        (CutSource::Store, CkptError::Decode(e)) => ZapcError::Decode(e),
        (CutSource::Store, e) => ZapcError::Aborted(format!("image apply failed: {e}")),
        (CutSource::Stream, e) => ZapcError::Aborted(format!("stream apply failed: {e}")),
    })?;
    let payload = |tag, what| {
        let s = sections.iter().find(|s| s.tag == tag);
        s.map(|s| s.payload).ok_or(DecodeError::Inconsistent { what })
    };
    let net = (|| {
        let meta = payload(SectionTag::NetMeta, "cut without a meta-data section")?;
        let records = payload(SectionTag::NetState, "cut without a netstate section")?;
        Ok((MetaData::decode(&mut RecordReader::new(meta))?, decode_records(records)?))
    })();
    let (meta, records) = net.map_err(|e| from.unverified(e))?;
    Ok((sections, meta, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zapc_ckpt::MemoryDeltaRecord;
    use zapc_netckpt::records::encode_records;
    use zapc_proto::image::Header;
    use zapc_proto::rw::frame_record;
    use zapc_proto::{Encode, ImageWriter, RecordWriter};
    use zapc_sim::memory::AddressSpace;

    /// A `Memory` section record for `vpid` with one small region.
    fn memory_record(vpid: u32) -> (AddressSpace, Vec<u8>) {
        let mut mem = AddressSpace::new();
        let base = mem.map_bytes("r", 32);
        mem.bytes_mut(base).unwrap().fill(7);
        let mut w = RecordWriter::new();
        w.put_u32(vpid);
        mem.encode(&mut w);
        (mem, frame_record(SectionTag::Memory as u16, w.bytes()))
    }

    /// A cut image whose one standalone section is `mem`'s delta for `vpid`.
    fn cut_image(vpid: u32, mem: &AddressSpace) -> Vec<u8> {
        let header = Header { pod: "p".into(), host: "node-0".into(), wall_ms: 0, flags: 0 };
        let mut w = ImageWriter::new(&header);
        w.section(SectionTag::NetMeta, |r| MetaData::new("p").encode(r));
        w.section_bytes(SectionTag::NetState, encode_records(&[]).bytes());
        w.section(SectionTag::MemoryDelta, |r| MemoryDeltaRecord::capture(vpid, 0, mem).encode(r));
        w.finish()
    }

    /// What a refused frame must leave untouched.
    fn fingerprint(parts: &DecodedPod) -> (u64, usize) {
        (parts.memory_digest(), parts.process_count())
    }

    #[test]
    fn hostile_frames_are_typed_errors_and_leave_the_accumulator_alone() {
        // The grammar has no envelope, so an image whose first two bytes
        // read as a section tag would be taken for a record.
        let magic = u16::from_le_bytes([MAGIC[0], MAGIC[1]]);
        assert!(SectionTag::from_u16(magic).is_none(), "{magic:#06x} is a section tag");

        // A base for vpid 3 is in place; every hostile frame below must
        // bounce off it.
        let mut parts = DecodedPod::new();
        let (mem, base) = memory_record(3);
        apply_frame(&mut parts, &base).unwrap();
        let before = fingerprint(&parts);
        let refused = |parts: &DecodedPod, what: &str, err: String, why: &str| {
            assert!(err.contains(why), "{what}: {err}");
            assert_eq!(fingerprint(parts), before, "{what} changed the accumulator");
        };

        let mut flipped = memory_record(3).1;
        flipped[20] ^= 0x10;
        // A delta for vpid 9, whose base never arrived.
        let mut dw = RecordWriter::new();
        MemoryDeltaRecord::capture(9, 0, &mem).encode(&mut dw);
        let good_cut = cut_image(3, &mem);

        let records: [(&str, Vec<u8>, &str); 10] = [
            ("header", frame_record(SectionTag::Header as u16, b"x"), "torn stream"),
            ("end", frame_record(SectionTag::End as u16, &[]), "torn stream"),
            ("retired parent ref", frame_record(0x0002, b"x"), "torn stream: unknown frame kind"),
            ("unassigned tag", frame_record(0x0077, b"x"), "torn stream: unknown frame kind"),
            ("retired round start", frame_record(0x0101, b"x"), "torn stream: unknown frame kind"),
            ("retired envelope", frame_record(0x0102, b"x"), "torn stream: unknown frame kind"),
            ("retired round end", frame_record(0x0103, b"x"), "torn stream: unknown frame kind"),
            ("flipped payload byte", flipped, "torn stream"),
            (
                "delta before its base",
                frame_record(SectionTag::MemoryDelta as u16, dw.bytes()),
                "stream apply failed",
            ),
            ("image where a record belongs", good_cut.clone(), "torn stream"),
        ];
        for (what, frame, why) in records {
            let err = apply_frame(&mut parts, &frame).expect_err(what);
            refused(&parts, what, err, why);
        }

        let mut flipped_cut = good_cut.clone();
        let at = flipped_cut.len() - 20; // inside the delta's payload
        flipped_cut[at] ^= 0x10;
        let end_len = 2 + 4 + 4; // empty End record framing
        let cuts: [(&str, Vec<u8>, &str); 4] = [
            ("cut with a flipped payload byte", flipped_cut, "torn stream"),
            ("cut truncated before End", good_cut[..good_cut.len() - end_len].to_vec(), "torn stream"),
            ("cut whose delta has no base", cut_image(9, &mem), "stream apply failed"),
            ("record where the image belongs", base, "torn stream"),
        ];
        for (what, image, why) in cuts {
            let err = apply_cut(&mut parts, &image, CutSource::Stream).map(|_| ()).expect_err(what);
            refused(&parts, what, reason(&err), why);
        }
        apply_cut(&mut parts, &good_cut, CutSource::Stream).expect("the untouched cut applies");
    }

    #[test]
    fn the_cut_image_ends_the_stream() {
        // A frame arriving after the image has no state to corrupt: the
        // image's `End` is the end of the stream, the receiver
        // acknowledges and never reads past it.
        let cluster = Cluster::builder().nodes(1).build();
        let (mem, base) = memory_record(3);
        let (frames, stream) = sync_channel(STREAM_DEPTH);
        for frame in [base.clone(), cut_image(3, &mem), base.clone()] {
            frames.send(frame).unwrap();
        }
        let (reply, replies) = std::sync::mpsc::channel();
        let (verdict, ctl) = sync_channel(1);
        let opts = MigrateOptions { timeout: Duration::from_secs(5), ..Default::default() };
        let (out, stream) = std::thread::scope(|s| {
            let (cluster, opts) = (&cluster, &opts);
            let receiver = s.spawn(move || {
                (live_receiver(cluster, "p", 0, &stream, &reply, ctl, opts), stream)
            });
            assert!(matches!(replies.recv_timeout(opts.timeout), Ok(Reply::Applied { .. })));
            verdict.send(Ctl::Abort).unwrap();
            receiver.join().unwrap()
        });
        assert!(matches!(out, Err(ZapcError::Aborted(why)) if why == "aborted before commit"));
        assert_eq!(stream.try_recv(), Ok(base), "the frame after the image was never read");
        assert!(cluster.pod("p").is_none());
    }
}
