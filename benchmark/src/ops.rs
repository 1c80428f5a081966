//! Every call into the system under test (`crates/*`) is made from this
//! file — the operator's operations through the public entry points,
//! the hand-driven per-layer calls of the traced pass, and the
//! micro-probes — so the README's list of functions the benchmark depends
//! on can be checked against one place. (`writer.rs` implements the
//! `Program` trait and touches nothing else.)
//!
//! Only plain entry points are used: none of the `_with` / `_ext` / `_obs`
//! twins ROADMAP item 2 schedules for deletion.

use crate::gen::{kv_id_base, BallastSpec, BLOCK};
use crate::trace::Tracer;
use crate::writer::{load_writer, SeededWriter, SyscallProbe, WriterCfg, WRITER_TYPE};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zapc::agent::Finalize;
use zapc::manager::{CheckpointTarget, RestartTarget};
use zapc::{
    checkpoint, checkpoint_commit, migrate, migrate_live, recover, restart, restart_from_manifest,
    CheckpointReport, ChunkingConfig, Cluster, CommitOptions, FaultPlan, ImageStore, RestartReport,
    Uri,
};
use zapc_apps::kv::{ClientMode, KvClient, KvClientConfig, KvServer, KvServerConfig, KV_PORT};
use zapc_apps::launch::{bt_config, full_registry, launch_app, AppKind, AppParams};
use zapc_ckpt::{capture_memory_round, checkpoint_standalone};
use zapc_net::NetworkConfig;
use zapc_netckpt::records::encode_records;
use zapc_netckpt::{assign_roles, checkpoint_network};
use zapc_obs::{Observer, RingCollector};
use zapc_pod::Pod;
use zapc_proto::crc::fnv1a64;
use zapc_proto::image::Header;
use zapc_proto::{Encode, Endpoint, ImageReader, ImageWriter, MetaData, SectionTag, Transport};
use zapc_sim::{ProcState, SimFs};
use zapc_store::{chunk, compress};

/// Nodes of the benchmark cluster, one CPU each (the box has two cores).
const NODES: usize = 2;

/// How long set-up may take before the generation counts as failed.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Per-phase timeout handed to restart-from-manifest (the default of the
/// other entry points).
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest wait for the application's connections to leave fast recovery.
const SETTLE_MAX: Duration = Duration::from_millis(100);

/// Node lease: longer than any run (see [`Bench::setup`]).
const LEASE_MS: u64 = 3_600_000;

/// Events the observer ring retains in a traced generation; aggregates
/// survive eviction, and what was evicted is reported.
const RING_EVENTS: usize = 1 << 16;

/// What the application of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKindCfg {
    /// Benchmark-owned seeded writers (no sockets).
    Writers,
    /// `launch_app(AppKind::Bt)`.
    Bt,
    /// One KV server and its client fleet.
    Kv,
}

/// Fixed parameters of one workload. Sizes follow the issue; lengths are
/// set so an undisturbed run lasts several operation sequences (see the
/// README's sizing table).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadCfg {
    /// Workload name.
    pub name: &'static str,
    /// Application.
    pub app: AppKindCfg,
    /// Content-addressed store (`ClusterBuilder::store_chunking`) or plain.
    pub chunked: bool,
    /// Writers' ballast; also the bytes the micro-probes run on.
    pub ballast: BallastSpec,
    /// Cycles of operations per disturbed generation: enough that
    /// set-up, ramp and the two priming commits are a small share of it.
    pub cycles: usize,
}

const PLAIN_BALLAST: BallastSpec = BallastSpec {
    bytes: 2_560 * 1024,
    shared_pm: 0,
    lowent_pm: 0,
};
const MIXED_BALLAST: BallastSpec = BallastSpec {
    bytes: 2_560 * 1024,
    shared_pm: 500,
    lowent_pm: 250,
};

/// The four workloads' parameters, by name.
pub fn workload_cfg(name: &str) -> Option<WorkloadCfg> {
    let cfg = |app, chunked, ballast, cycles| WorkloadCfg {
        name: "",
        app,
        chunked,
        ballast,
        cycles,
    };
    let mut c = match name {
        "mem-heavy" => cfg(AppKindCfg::Writers, false, PLAIN_BALLAST, 4),
        "conn-heavy" => cfg(AppKindCfg::Bt, false, PLAIN_BALLAST, 8),
        "durable" => cfg(AppKindCfg::Writers, true, MIXED_BALLAST, 4),
        "serve" => cfg(AppKindCfg::Kv, true, MIXED_BALLAST, 6),
        _ => return None,
    };
    c.name = crate::spec::workload(name)?.name;
    Some(c)
}

// Writers: 4 pods × (2.5 MB ballast + 16 × 8 KB hot regions, 4 rewritten
// per step).
const WRITER_RANKS: u32 = 4;
const WRITER_STEPS: u64 = 3_000;

// BT: 16 ranks in a full mesh (120 connections); grid 32 gives 32 KB slabs,
// ≈0.6 MB of images in total.
const BT_RANKS: usize = 16;
const BT_GRID: f64 = 32.0;
const BT_WORK: f64 = 40.0;

// KV: 64 request-sending clients (every 4th slow) + 8 half-open, 24 client
// processes per pod; 96 keys × ~220 B per client ≈ 1.4 MB in the server,
// ≈2 MB of images with the clients' state.
const KV_CLIENTS: usize = 64;
const KV_SLOW_EVERY: usize = 4;
const KV_HALFOPEN: usize = 8;
const KV_PER_POD: usize = 18;
const KV_REQUESTS: u32 = 4_000;
const KV_SLOW_REQUESTS: u32 = 1_550;
const KV_VAL_LEN: usize = 16;
/// The KV fleet is ramped up until a snapshot of it reaches this size, so
/// the server holds data worth checkpointing and every generation starts
/// its operations from the same state however fast the box happens to be.
const KV_RAMP_BYTES: f64 = 1.6e6;
/// The ramp's first pause before it probes with a snapshot; later pauses
/// are between a quarter and four times as long.
const KV_RAMP_PAUSE: Duration = Duration::from_millis(40);

/// One generation's cluster and application.
pub struct Bench {
    app: AppKindCfg,
    cluster: Cluster,
    ring: Option<Arc<RingCollector>>,
    /// Every pod of the application, in launch order.
    pods: Vec<String>,
    /// `(pod, vpid)` of the processes whose exit codes are the oracle; the
    /// application has finished when all of them have exited.
    watch: Vec<(String, u32)>,
    /// Application-level operations a complete run performs.
    pub app_ops: u64,
}

/// The benchmark's wire: default latency, no jitter. With three busy
/// threads on two cores, jitter-induced reordering makes TCP fast-retransmit
/// spuriously, which doubles the KV fleet's run time and its spread.
fn wire() -> NetworkConfig {
    NetworkConfig {
        jitter: Duration::ZERO,
        ..NetworkConfig::default()
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl Bench {
    /// Builds the cluster, launches the application and waits until every
    /// pod is ready. The caller times this call: it is `setup_s`.
    pub fn setup(cfg: &WorkloadCfg, seed: u64, traced: bool) -> Result<Bench, String> {
        let mut registry = full_registry();
        registry.register(WRITER_TYPE, load_writer);
        // Nothing heartbeats between operations (leases are renewed only
        // from the durable-store path), so the default 1 s lease would make
        // any commit or manifest restart that follows a quiet second see
        // dead nodes. The benchmark injects no failures: leases never lapse.
        let mut builder = Cluster::builder()
            .nodes(NODES)
            .cpus(1)
            .network(wire())
            .lease_ms(LEASE_MS)
            .registry(registry);
        if cfg.chunked {
            builder = builder.store_chunking(ChunkingConfig::default());
        }

        let mut ring = None;
        if traced {
            let (obs, r) = Observer::ring(RING_EVENTS);
            builder = builder.observer(obs);
            ring = Some(r);
        }
        let cluster = builder.build();
        let mut b = Bench {
            app: cfg.app,
            cluster,
            ring,
            pods: Vec::new(),
            watch: Vec::new(),
            app_ops: 0,
        };
        let ready: Box<dyn Fn(&Bench) -> bool> = match cfg.app {
            AppKindCfg::Writers => {
                let mut want = 0;
                for rank in 0..WRITER_RANKS {
                    let wc = WriterCfg {
                        seed,
                        rank,
                        ballast: cfg.ballast,
                        hot_regions: 16,
                        region_bytes: 8 * 1024,
                        hot_per_step: 4,
                        steps: WRITER_STEPS,
                    };
                    want = wc.ready_bytes();
                    let name = format!("w-{rank}");
                    let pod = b.cluster.create_pod(&name, rank as usize % NODES);
                    let vpid = pod.spawn("writer", Box::new(SeededWriter::new(wc)));
                    b.watch.push((name.clone(), vpid));
                    b.pods.push(name);
                }
                b.app_ops = WRITER_STEPS * WRITER_RANKS as u64;
                Box::new(move |b| b.each_pod().all(|p| p.total_mem_bytes() >= want))
            }
            AppKindCfg::Bt => {
                let params = AppParams {
                    kind: AppKind::Bt,
                    ranks: BT_RANKS,
                    scale: (BT_GRID / 75.0).powi(3),
                    work: BT_WORK,
                };
                // BT has no input file to seed: its grid is a function of
                // the rank layout. The seed only names the pods.
                let app = launch_app(&b.cluster, &format!("bt{}", seed % 1000), &params);
                b.watch = app.pods.iter().map(|p| (p.clone(), 1)).collect();
                b.pods = app.pods;
                b.app_ops = bt_config(&params).iters as u64 * BT_RANKS as u64;
                // A listener and 15 connections per rank, both ends counted.
                Box::new(|b| {
                    b.wired(BT_RANKS * BT_RANKS)
                        && b.each_pod().all(|p| connected(&p) >= BT_RANKS - 1)
                })
            }
            AppKindCfg::Kv => {
                b.app_ops = b.launch_kv(seed);
                // The listener, then a client socket and an accepted one per client.
                let conns = KV_CLIENTS + KV_HALFOPEN;
                Box::new(move |b| {
                    b.wired(1 + 2 * conns)
                        && b.each_pod()
                            .next()
                            .is_some_and(|srv| connected(&srv) >= conns)
                })
            }
        };
        let deadline = Instant::now() + READY_TIMEOUT;
        while !ready(&b) {
            if Instant::now() >= deadline {
                b.teardown();
                return Err("set-up: pods not ready in time".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(b)
    }

    /// The fleet of `launch_kv`, with client ids (and so every key) drawn
    /// from the seed: server on node 0, client pods round-robin.
    fn launch_kv(&mut self, seed: u64) -> u64 {
        let mut requests = 0u64;
        let srv = self.cluster.create_pod("kv-srv", 0);
        let vpid = srv.spawn(
            "kv-server",
            Box::new(KvServer::new(KvServerConfig {
                port: KV_PORT,
                expected_byes: KV_CLIENTS as u32,
                // Half-open connections stay for the whole generation, so
                // every operation sees the same 72 connections.
                idle_timeout_ms: 600_000,
                max_frame: 64 * 1024,
            })),
        );
        self.watch.push(("kv-srv".into(), vpid));
        self.pods.push("kv-srv".into());
        let id_base = kv_id_base(seed);
        let total = KV_CLIENTS + KV_HALFOPEN;
        for pi in 0..total.div_ceil(KV_PER_POD) {
            let name = format!("kv-c{pi}");
            let pod = self.cluster.create_pod(&name, pi % NODES);
            for ci in pi * KV_PER_POD..((pi + 1) * KV_PER_POD).min(total) {
                let mode = if ci >= KV_CLIENTS {
                    ClientMode::HalfOpen
                } else if ci % KV_SLOW_EVERY == KV_SLOW_EVERY - 1 {
                    ClientMode::Slow
                } else {
                    ClientMode::Normal
                };
                let cfg = KvClientConfig {
                    server_vip: srv.vip(),
                    port: KV_PORT,
                    id: id_base + ci as u32,
                    requests: match mode {
                        ClientMode::Slow => KV_SLOW_REQUESTS,
                        _ => KV_REQUESTS,
                    },
                    val_len: KV_VAL_LEN,
                    window: 8,
                    mode,
                    chunk: if mode == ClientMode::Slow {
                        7
                    } else {
                        4 * 1024
                    },
                    slow_every: 3,
                    halfopen_linger_ms: 600_000,
                    report_stall: mode != ClientMode::HalfOpen,
                    rcv_buf: 0,
                };
                let cfg_requests = cfg.requests;
                let vpid = pod.spawn(&format!("kv-client-{ci}"), Box::new(KvClient::new(cfg)));
                if mode != ClientMode::HalfOpen {
                    self.watch.push((name.clone(), vpid));
                    requests += cfg_requests as u64;
                }
            }
            self.pods.push(name);
        }
        requests
    }

    /// Whether the cluster holds exactly `sockets` sockets: every connection
    /// has both its ends, so no `connect` is still to be issued. Only then
    /// may a running pod's sockets be inspected — `Socket::connect` takes
    /// the socket lock and then the stack lock, `NetStack::sockets_for_ip`
    /// the other way round, and polling one against the other deadlocks.
    fn wired(&self, sockets: usize) -> bool {
        (0..NODES)
            .map(|n| self.cluster.node(n).stack.socket_count())
            .sum::<usize>()
            == sockets
    }

    fn each_pod(&self) -> impl Iterator<Item = Arc<Pod>> + '_ {
        self.pods.iter().filter_map(|p| self.cluster.pod(p))
    }

    fn exit_code(&self, pod: &str, vpid: u32) -> Option<i32> {
        let pod = self.cluster.pod(pod)?;
        match pod.node().proc_state(pod.pid_of(vpid)?) {
            Ok(ProcState::Exited(code)) => Some(code),
            _ => None,
        }
    }

    /// Between "ready" and the first operation of a disturbed generation:
    /// lets a KV fleet exchange traffic until a snapshot of it reaches
    /// `KV_RAMP_BYTES`. The probing snapshots are not sampled; each pause
    /// is sized from the growth the last two probes saw, so a handful of
    /// probes lands just past the target. (Neither elapsed time nor
    /// segments on the wire pin the server's state: both vary two-fold
    /// between generations on a busy box.) Other applications are ready as
    /// launched.
    pub fn ramp(&self) -> Result<(), String> {
        if !self.is_kv() {
            return Ok(());
        }
        let start = Instant::now();
        let (mut last_at, mut last_size) = (start, 0.0);
        let mut pause = KV_RAMP_PAUSE;
        loop {
            std::thread::sleep(pause);
            let (at, size) = (Instant::now(), self.snapshot()?.image_bytes);
            // A fleet already finishing is left to the caller, which ends the
            // generation and checks its exit codes.
            if size >= KV_RAMP_BYTES || self.finishing() {
                return Ok(());
            }
            if start.elapsed() >= READY_TIMEOUT {
                return Err(format!("ramp: the KV fleet stopped growing at {size} B"));
            }
            // Aim half-way to the target at the observed growth rate (which
            // includes the time the probe froze the fleet, so reads low).
            let rate = (size - last_size) / (at - last_at).as_secs_f64();
            let aim = if rate > 0.0 {
                0.5 * (KV_RAMP_BYTES - size) / rate
            } else {
                0.0
            };
            pause = Duration::from_secs_f64(aim).clamp(KV_RAMP_PAUSE / 4, 4 * KV_RAMP_PAUSE);
            (last_at, last_size) = (Instant::now(), size);
        }
    }

    /// Whether any watched process has exited: the application is about to
    /// finish and should be left alone.
    pub fn finishing(&self) -> bool {
        self.watch
            .iter()
            .any(|(pod, vpid)| self.exit_code(pod, *vpid).is_some())
    }

    /// Exit codes of the watched processes if all of them have exited.
    pub fn exit_codes(&self) -> Option<Vec<i32>> {
        self.watch
            .iter()
            .map(|(pod, vpid)| self.exit_code(pod, *vpid))
            .collect()
    }

    /// Waits for the application to exit; `None` on timeout.
    pub fn wait_exit(&self, timeout: Duration) -> Option<Vec<i32>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(codes) = self.exit_codes() {
                return Some(codes);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Whether exit code `i` of [`Bench::exit_codes`] belongs to a KV
    /// client (whose code is a stall report, not a fixed value).
    pub fn is_kv_client(&self, i: usize) -> bool {
        self.is_kv() && i > 0
    }

    /// Whether the application is the KV fleet.
    pub fn is_kv(&self) -> bool {
        self.app == AppKindCfg::Kv
    }

    /// Stops the schedulers, then destroys the application. In this order
    /// no process is mid-step while its sockets are torn down.
    pub fn teardown(self) {
        for n in 0..self.cluster.node_count() {
            self.cluster.node(n).shutdown();
        }
        for p in &self.pods {
            self.cluster.destroy_pod(p);
        }
    }

    fn other_node(&self, pod: &str) -> Result<usize, String> {
        let n = self
            .cluster
            .pod_node(pod)
            .ok_or_else(|| format!("pod {pod} is gone"))?;
        Ok((n + 1) % NODES)
    }

    fn moves(&self) -> Result<Vec<(String, usize)>, String> {
        self.pods
            .iter()
            .map(|p| Ok((p.clone(), self.other_node(p)?)))
            .collect()
    }

    /// Waits (at most `SETTLE_MAX`) until no connection of the application
    /// is in TCP fast recovery. Works around a restore bug this benchmark
    /// found: `CcExtract::recover_off` is not re-based by the receive-queue
    /// overlap a restore discards, so a connection checkpointed in
    /// recovery, restored, and checkpointed again before new acks pass the
    /// stale recovery point fails `SockRecord::validate` ("recovery point
    /// outside saved send queue") at its next restore. Back-to-back
    /// operations hit that within seconds on the KV fleet.
    pub fn settle(&self) {
        let deadline = Instant::now() + SETTLE_MAX;
        let recovering = |pod: Arc<Pod>| {
            pod.sockets()
                .iter()
                .any(|s| s.with_inner(|i| i.tcb.as_ref().is_some_and(|t| t.cc.in_recovery())))
        };
        while self.each_pod().any(recovering) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    // ---- the operator's operations -----------------------------------

    /// `checkpoint` of every pod as a snapshot to `Uri::mem`.
    pub fn snapshot(&self) -> Result<CkptSample, String> {
        let targets: Vec<CheckpointTarget> = self
            .pods
            .iter()
            .map(|p| CheckpointTarget::snapshot(p))
            .collect();
        checkpoint(&self.cluster, &targets)
            .map(|r| CkptSample::of(&r))
            .map_err(err("checkpoint"))
    }

    /// `checkpoint` with `Finalize::Destroy` into memory, then `restart`
    /// with every pod landing on the other node. Returns the restart.
    pub fn destroy_restart(&self) -> Result<RestartSample, String> {
        let label = |p: &str| format!("down/{p}");
        let mut down = Vec::new();
        let mut up = Vec::new();
        for p in &self.pods {
            down.push(CheckpointTarget {
                pod: p.clone(),
                uri: Uri::mem(label(p)),
                finalize: Finalize::Destroy,
            });
            up.push(RestartTarget {
                pod: p.clone(),
                uri: Uri::mem(label(p)),
                node: self.other_node(p)?,
            });
        }
        checkpoint(&self.cluster, &down).map_err(err("checkpoint(destroy)"))?;
        restart(&self.cluster, &up)
            .map(|r| RestartSample::of(&r))
            .map_err(err("restart"))
    }

    /// `migrate` (stop-and-copy) of every pod to the other node.
    pub fn migrate(&self) -> Result<RestartSample, String> {
        migrate(&self.cluster, &self.moves()?)
            .map(|r| RestartSample::of(&r))
            .map_err(err("migrate"))
    }

    /// `migrate_live` (iterative pre-copy) of every pod to the other node.
    pub fn migrate_live(&self) -> Result<LiveSample, String> {
        let r = migrate_live(&self.cluster, &self.moves()?).map_err(err("migrate_live"))?;
        let n = r.pods.len().max(1) as f64;
        Ok(LiveSample {
            wall_ms: r.wall_ms,
            downtime_ms: r.max_downtime_ms,
            precopy_ms: r.precopy_ms,
            cutover_ms: r.cutover_ms,
            rounds: r.pods.iter().map(|p| p.rounds as f64).sum::<f64>() / n,
            precopy_bytes: r.pods.iter().map(|p| p.precopy_bytes as f64).sum(),
            cut_bytes: r.pods.iter().map(|p| p.cut_bytes as f64).sum(),
            converged_frac: r.pods.iter().filter(|p| p.converged).count() as f64 / n,
        })
    }

    /// `checkpoint_commit` of every pod with the default options
    /// (`keep = 2`): wall until the manifest is durable and retention has
    /// run.
    pub fn commit(&self) -> Result<CommitSample, String> {
        let pods: Vec<&str> = self.pods.iter().map(String::as_str).collect();
        let t = Instant::now();
        let r = checkpoint_commit(&self.cluster, &pods, &CommitOptions::default())
            .map_err(err("checkpoint_commit"))?;
        let wall_ms = ms(t);
        Ok(CommitSample {
            wall_ms,
            stage_ms: r.report.wall_ms,
            pruned: r.pruned.len(),
            logical_bytes: r.report.pods.iter().map(|p| p.image_bytes as f64).sum(),
            disk_bytes: self.cluster.istore.disk_usage() as f64,
            manifests: self.cluster.istore.manifest_ids().len(),
            late_replies: r.report.late_replies,
        })
    }

    /// Power loss of the store (`istore.crash`), then `recover` and
    /// `restart_from_manifest` of the newest checkpoint; between the two
    /// the store is audited for orphans (untimed).
    pub fn crash_recover_restart(&self) -> Result<RecoverSample, String> {
        let store = &self.cluster.istore;
        store.crash();
        let t = Instant::now();
        let rec = recover(&self.cluster);
        let recover_ms = ms(t);
        let mut live = HashSet::new();
        for id in store.manifest_ids() {
            for e in store.manifest(id).map_err(err("manifest"))?.entries {
                live.insert(e.image_ref);
            }
        }
        let orphans = store.audit(&live).len();
        if rec.latest.is_none() {
            return Err("recover: no committed checkpoint survived".into());
        }
        let t = Instant::now();
        restart_from_manifest(&self.cluster, None, OP_TIMEOUT)
            .map_err(err("restart_from_manifest"))?;
        Ok(RecoverSample {
            recover_ms,
            restart_ms: ms(t),
            orphans,
        })
    }

    // ---- traced pass: hand-driven calls into each layer ---------------

    /// One checkpoint of the running application driven by hand through
    /// each layer's public functions, every call under a benchmark span,
    /// followed by the image's trip through a store. The application is
    /// left exactly as it was (the network save re-injects what it read).
    /// Returns one sample per `[H]` metric of the spec, by name.
    pub fn hand_checkpoint(
        &self,
        tr: &mut Tracer,
        probe: &mut StoreProbe,
    ) -> Result<Named, String> {
        let pods: Vec<Arc<Pod>> = self.each_pod().collect();
        if pods.len() != self.pods.len() {
            return Err("hand checkpoint: a pod is gone".into());
        }
        tr.next_op();
        let root = tr.enter("hand.ckpt");

        // Base round while the pods run, as live migration's pre-copy does.
        let s = tr.enter("ckpt.round_full");
        let mut gens = Vec::new();
        for pod in &pods {
            let round = capture_memory_round(pod, None).map_err(err("capture_memory_round"))?;
            gens.push(
                round
                    .iter()
                    .map(|p| (p.vpid, p.gen))
                    .collect::<HashMap<u32, u64>>(),
            );
            round.into_iter().for_each(|p| p.recycle());
        }
        tr.exit(s);
        // Let the application dirty memory, as it does between the rounds
        // of a live migration.
        let s = tr.enter("app.run");
        std::thread::sleep(Duration::from_millis(2));
        tr.exit(s);

        let s = tr.enter("pod.suspend");
        for pod in &pods {
            pod.suspend().map_err(err("suspend"))?;
        }
        let suspend_ms = tr.exit(s);
        let s = tr.enter("net.block");
        pods.iter()
            .for_each(|pod| self.cluster.filter().block_ip(pod.vip()));
        tr.exit(s);

        // What the quiesced cut of a live migration ships.
        let s = tr.enter("ckpt.delta_dump");
        let mut delta_bytes = 0.0;
        for (pod, base) in pods.iter().zip(&gens) {
            let round =
                capture_memory_round(pod, Some(base)).map_err(err("capture_memory_round"))?;
            delta_bytes += round.iter().map(|p| p.region_bytes as f64).sum::<f64>();
            round.into_iter().for_each(|p| p.recycle());
        }
        let delta_dump_ms = tr.exit(s);

        let mut metas: Vec<MetaData> = Vec::new();
        let mut images: Vec<(String, Vec<u8>)> = Vec::new();
        let (mut dump_ms_sum, mut image_bytes) = (0.0, 0.0);
        let (mut save_ms, mut dump_ms_max, mut socks, mut queue_bytes) = (0.0f64, 0.0f64, 0.0, 0.0);
        for pod in &pods {
            let s = tr.enter("netckpt.save");
            let (meta, records) = checkpoint_network(pod);
            save_ms = save_ms.max(tr.exit(s));
            socks += records.len() as f64;
            queue_bytes += records
                .iter()
                .map(|r| (r.recv_stream.len() + r.send_data.len()) as f64)
                .sum::<f64>();

            let s = tr.enter("ckpt.dump");
            let header = Header {
                pod: pod.name(),
                host: format!("node-{}", pod.node().id),
                wall_ms: 0,
                flags: 0,
            };
            let mut w = ImageWriter::with_capacity(&header, pod.total_mem_bytes() + 4096);
            w.section(SectionTag::NetMeta, |r| meta.encode(r));
            w.section_bytes(SectionTag::NetState, encode_records(&records).bytes());
            checkpoint_standalone(pod, &mut w).map_err(err("checkpoint_standalone"))?;
            let image = w.finish();
            let dump_ms = tr.exit(s);
            dump_ms_max = dump_ms_max.max(dump_ms);
            dump_ms_sum += dump_ms;
            image_bytes += image.len() as f64;
            metas.push(meta);
            images.push((pod.name(), image));
        }

        let s = tr.enter("netckpt.schedule");
        assign_roles(&mut metas);
        let schedule_ms = tr.exit(s);

        let s = tr.enter("net.unblock");
        pods.iter()
            .for_each(|pod| self.cluster.filter().unblock_ip(pod.vip()));
        tr.exit(s);
        let s = tr.enter("pod.resume");
        for pod in &pods {
            pod.resume().map_err(err("resume"))?;
        }
        let resume_ms = tr.exit(s);
        tr.exit(root);

        let mut out = vec![
            ("pod.suspend_ms", suspend_ms),
            ("pod.resume_ms", resume_ms),
            ("ckpt.dump_ms", dump_ms_max),
            ("ckpt.dump_mb_per_s", mb_per_s(image_bytes, dump_ms_sum)),
            ("ckpt.delta_dump_ms", delta_dump_ms),
            ("ckpt.delta_bytes", delta_bytes),
            ("netckpt.save_ms", save_ms),
            ("netckpt.socks", socks),
            ("netckpt.queue_bytes", queue_bytes),
            ("netckpt.schedule_ms", schedule_ms),
        ];
        out.extend(probe.round_trip(tr, &images)?);
        Ok(out)
    }

    /// Totals of the observer ring so far: spans as `(count, µs)` and
    /// counters, by name across all keys, plus evicted events.
    pub fn ring_totals(&self) -> RingTotals {
        let mut t = RingTotals::default();
        if let Some(ring) = &self.ring {
            for ((_, phase), (n, us)) in ring.phase_totals() {
                let e = t.spans.entry(phase).or_insert((0, 0));
                *e = (e.0 + n, e.1 + us);
            }
            for ((_, name), total) in ring.counter_totals() {
                *t.counters.entry(name).or_insert(0) += total;
            }
            t.dropped = ring.dropped();
        }
        t
    }
}

fn connected(pod: &Pod) -> usize {
    pod.sockets()
        .iter()
        .filter(|s| s.is_connected() && s.peer_addr().is_some())
        .count()
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn mb_per_s(bytes: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        bytes / 1e6 / (ms / 1e3)
    } else {
        0.0
    }
}

// ---- what an operation reports ------------------------------------------

/// The slowest Agent's tiles of one coordinated checkpoint (ms).
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentTiles {
    /// Suspend + block network.
    pub quiesce: f64,
    /// Network-state save.
    pub net: f64,
    /// Standalone dump.
    pub standalone: f64,
    /// Wait for `continue`.
    pub sync: f64,
    /// Image delivery.
    pub commit: f64,
    /// Unblock + resume.
    pub resume: f64,
    /// Time the pod's network stayed blocked.
    pub blocked: f64,
    /// The Agent's total.
    pub total: f64,
}

/// One coordinated snapshot.
#[derive(Debug, Clone, Copy)]
pub struct CkptSample {
    /// `CheckpointReport.wall_ms`.
    pub wall_ms: f64,
    /// Largest `PodReport.total_ms`.
    pub stall_ms: f64,
    /// Summed `PodReport.image_bytes`.
    pub image_bytes: f64,
    /// Manager phases: meta, sync, commit.
    pub mgr: [f64; 3],
    /// The slowest pod's report.
    pub agent: AgentTiles,
    /// Replies drained after aborted attempts.
    pub late_replies: u64,
}

fn phases(p: &zapc::PhaseBreakdown) -> [f64; 3] {
    let mut out = [0.0; 3];
    for (slot, phase) in out.iter_mut().zip(&p.phases) {
        *slot = phase.ms;
    }
    out
}

impl CkptSample {
    fn of(r: &CheckpointReport) -> CkptSample {
        let slow = r
            .pods
            .iter()
            .max_by(|a, b| a.total_ms.total_cmp(&b.total_ms));
        let agent = slow.map_or(AgentTiles::default(), |p| AgentTiles {
            quiesce: p.quiesce_ms,
            net: p.net_ms,
            standalone: p.standalone_ms,
            sync: p.sync_ms,
            commit: p.commit_ms,
            resume: p.resume_ms,
            blocked: p.blocked_ms,
            total: p.total_ms,
        });
        CkptSample {
            wall_ms: r.wall_ms,
            stall_ms: agent.total,
            image_bytes: r.pods.iter().map(|p| p.image_bytes as f64).sum(),
            mgr: phases(&r.phases),
            agent,
            late_replies: r.late_replies,
        }
    }
}

/// One coordinated restart (or the restart half of a migration).
#[derive(Debug, Clone, Copy)]
pub struct RestartSample {
    /// `RestartReport.wall_ms`.
    pub wall_ms: f64,
    /// Manager phases: prepare, schedule, restore.
    pub mgr: [f64; 3],
    /// Replies drained after aborted attempts.
    pub late_replies: u64,
}

impl RestartSample {
    fn of(r: &RestartReport) -> RestartSample {
        RestartSample {
            wall_ms: r.wall_ms,
            mgr: phases(&r.phases),
            late_replies: r.late_replies,
        }
    }
}

/// One live migration.
#[derive(Debug, Clone, Copy)]
pub struct LiveSample {
    /// `LiveMigrateReport.wall_ms`.
    pub wall_ms: f64,
    /// `LiveMigrateReport.max_downtime_ms`.
    pub downtime_ms: f64,
    /// Pre-copy phase wall.
    pub precopy_ms: f64,
    /// Cutover phase wall.
    pub cutover_ms: f64,
    /// Mean pre-copy rounds per pod.
    pub rounds: f64,
    /// Bytes streamed while running, all pods.
    pub precopy_bytes: f64,
    /// Final quiesced cut, all pods.
    pub cut_bytes: f64,
    /// Share of pods whose pre-copy converged.
    pub converged_frac: f64,
}

/// One durable commit.
#[derive(Debug, Clone, Copy)]
pub struct CommitSample {
    /// `checkpoint_commit` wall.
    pub wall_ms: f64,
    /// The staging checkpoint's wall.
    pub stage_ms: f64,
    /// Older manifests this commit pruned.
    pub pruned: usize,
    /// Summed logical image bytes.
    pub logical_bytes: f64,
    /// `istore.disk_usage()` after the commit.
    pub disk_bytes: f64,
    /// Manifests retained after the commit.
    pub manifests: usize,
    /// Replies drained after aborted attempts.
    pub late_replies: u64,
}

/// One crash → recover → restart.
#[derive(Debug, Clone, Copy)]
pub struct RecoverSample {
    /// `recover()` wall.
    pub recover_ms: f64,
    /// `restart_from_manifest()` wall.
    pub restart_ms: f64,
    /// Orphans `istore.audit` found after recovery (must be 0).
    pub orphans: usize,
}

/// Samples named after the per-layer metrics they feed.
pub type Named = Vec<(&'static str, f64)>;

/// Observer-ring totals of one generation.
#[derive(Debug, Clone, Default)]
pub struct RingTotals {
    /// Span name → `(count, total µs)`.
    pub spans: HashMap<&'static str, (u64, u64)>,
    /// Counter name → total.
    pub counters: HashMap<&'static str, u64>,
    /// Events evicted from the ring.
    pub dropped: u64,
}

/// A store of the workload's format that the hand-driven images go
/// through, so the cluster's own store (and its manifests) stay untouched.
/// It retains two checkpoints like `keep = 2`: each round trip stages one,
/// fetches it back, and garbage-collects the one before last.
pub struct StoreProbe {
    store: ImageStore,
    next_ckpt: u64,
    refs: Vec<HashSet<String>>,
}

impl StoreProbe {
    /// An empty store, chunked or plain.
    pub fn new(chunked: bool) -> StoreProbe {
        let store = ImageStore::new(
            SimFs::new(),
            "/probe",
            Arc::new(FaultPlan::none()),
            Observer::disabled(),
        );
        store.set_chunking(chunked.then(ChunkingConfig::default));
        StoreProbe {
            store,
            next_ckpt: 1,
            refs: Vec::new(),
        }
    }

    fn round_trip(
        &mut self,
        tr: &mut Tracer,
        images: &[(String, Vec<u8>)],
    ) -> Result<Named, String> {
        let root = tr.enter("hand.store");
        let ckpt = self.next_ckpt;
        self.next_ckpt += 1;
        let before = self.store.disk_usage() as f64;
        let (mut put_ms, mut fetch_ms, mut bytes) = (0.0, 0.0, 0.0);
        let mut staged = Vec::new();
        for (pod, image) in images {
            let s = tr.enter("store.put");
            staged.push(
                self.store
                    .put_image(ckpt, pod, image)
                    .map_err(err("put_image"))?,
            );
            put_ms += tr.exit(s);
            bytes += image.len() as f64;
        }
        let written = self.store.disk_usage() as f64 - before;
        for (image_ref, digest) in &staged {
            let s = tr.enter("store.fetch");
            self.store
                .fetch_verified(image_ref, *digest)
                .map_err(err("fetch_verified"))?;
            fetch_ms += tr.exit(s);
        }
        self.refs.push(staged.into_iter().map(|(r, _)| r).collect());
        if self.refs.len() > 2 {
            for dead in self.refs.remove(0) {
                self.store.delete_image(&dead);
            }
        }
        let live: HashSet<String> = self.refs.iter().flatten().cloned().collect();
        let s = tr.enter("store.gc");
        self.store.gc(&live);
        let gc_ms = tr.exit(s);
        tr.exit(root);
        let n = images.len().max(1) as f64;
        Ok(vec![
            ("store.put_ms", put_ms / n),
            ("store.put_mb_per_s", mb_per_s(bytes, put_ms)),
            ("store.bytes_written_per_put", written / n),
            ("store.fetch_ms", fetch_ms / n),
            ("store.gc_ms", gc_ms),
        ])
    }
}

// ---- micro-probes on generated bytes ------------------------------------

/// One rank's ballast for `seed`: the bytes the byte-level probes run on.
fn ballast_bytes(spec: &BallastSpec, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; spec.blocks() * BLOCK];
    for (i, b) in out.chunks_mut(BLOCK).enumerate() {
        spec.fill_block(seed, 0, i, b);
    }
    out
}

/// Runs every micro-probe once; one sample per `[M]` metric of the spec,
/// by name.
pub fn micro_probes(cfg: &WorkloadCfg, seed: u64) -> Result<Named, String> {
    let data = ballast_bytes(&cfg.ballast, seed);
    let n = data.len() as f64;
    let mut m = Named::new();

    let fs = SimFs::new();
    let t = Instant::now();
    fs.write("/probe/image", &data);
    m.push(("sim.fs_write_mb_per_s", mb_per_s(n, ms(t))));
    let t = Instant::now();
    fs.fsync("/probe/image").map_err(err("fsync"))?;
    m.push(("sim.fsync_ms", ms(t)));

    let header = Header {
        pod: "probe".into(),
        host: "node-0".into(),
        wall_ms: 0,
        flags: 0,
    };
    let t = Instant::now();
    let mut w = ImageWriter::with_capacity(&header, data.len() + 4096);
    w.section_bytes(SectionTag::Memory, &data);
    let image = w.finish();
    m.push(("proto.encode_mb_per_s", mb_per_s(n, ms(t))));
    let t = Instant::now();
    let sections = ImageReader::open(&image)
        .and_then(|r| r.sections())
        .map_err(err("image decode"))?;
    m.push(("proto.decode_mb_per_s", mb_per_s(n, ms(t))));
    std::hint::black_box(sections.len());
    let t = Instant::now();
    std::hint::black_box(fnv1a64(&data));
    m.push(("proto.digest_mb_per_s", mb_per_s(n, ms(t))));

    let params = ChunkingConfig::default().params;
    let t = Instant::now();
    let ranges = chunk::split(&data, &params);
    m.push(("store.split_mb_per_s", mb_per_s(n, ms(t))));
    let t = Instant::now();
    let packed: Vec<Vec<u8>> = ranges
        .iter()
        .map(|r| compress::compress(&data[r.clone()]))
        .collect();
    m.push(("store.compress_mb_per_s", mb_per_s(n, ms(t))));
    let t = Instant::now();
    for (r, p) in ranges.iter().zip(&packed) {
        compress::decompress(p, r.len()).ok_or("decompress: corrupt chunk")?;
    }
    m.push(("store.decompress_mb_per_s", mb_per_s(n, ms(t))));

    let cluster = Cluster::builder()
        .nodes(NODES)
        .cpus(1)
        .network(wire())
        .build();
    let (a, b) = (
        cluster.create_pod("probe-a", 0),
        cluster.create_pod("probe-b", 1),
    );
    let vpid = a.spawn("syscalls", Box::new(SyscallProbe { calls: 100_000 }));
    let pid = a.pid_of(vpid).ok_or("syscall probe: no pid")?;
    let ns = a
        .node()
        .wait_exit(pid, OP_TIMEOUT)
        .map_err(err("syscall probe"))?;
    m.push(("pod.syscall_ns", ns as f64));
    net_probe(&cluster, &a, &b, &data[..1 << 20], &mut m)?;
    for node in 0..NODES {
        cluster.node(node).shutdown();
    }
    cluster.destroy_pod("probe-a");
    cluster.destroy_pod("probe-b");
    Ok(m)
}

/// One connection between two pods on different nodes: connect, one-byte
/// round trips, then `payload` one way.
fn net_probe(
    cluster: &Cluster,
    a: &Pod,
    b: &Pod,
    payload: &[u8],
    m: &mut Named,
) -> Result<(), String> {
    const PORT: u16 = 9_000;
    const PINGS: u32 = 50;
    let wait = Duration::from_secs(10);
    let listener = cluster.node(1).stack.socket(Transport::Tcp, b.vip(), 0);
    listener
        .bind(Endpoint {
            ip: b.vip(),
            port: PORT,
        })
        .map_err(err("bind"))?;
    listener.listen(4).map_err(err("listen"))?;
    let client = cluster.node(0).stack.socket(Transport::Tcp, a.vip(), 0);
    let t = Instant::now();
    client
        .connect(Endpoint {
            ip: b.vip(),
            port: PORT,
        })
        .map_err(err("connect"))?;
    client.connect_wait(wait).map_err(err("connect_wait"))?;
    let server = listener.accept_wait(wait).map_err(err("accept"))?;
    m.push(("net.connect_us", ms(t) * 1e3));

    let t = Instant::now();
    for _ in 0..PINGS {
        client.write_all_wait(&[1], wait).map_err(err("ping"))?;
        server.read_exact_wait(1, wait).map_err(err("ping read"))?;
        server.write_all_wait(&[2], wait).map_err(err("pong"))?;
        client.read_exact_wait(1, wait).map_err(err("pong read"))?;
    }
    m.push(("net.rtt_us", ms(t) * 1e3 / PINGS as f64));

    let t = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| server.read_exact_wait(payload.len(), wait).map(|d| d.len()));
        client
            .write_all_wait(payload, wait)
            .map_err(err("stream write"))?;
        match reader.join() {
            Ok(Ok(n)) if n == payload.len() => Ok(()),
            Ok(other) => Err(format!("stream read: {other:?}")),
            Err(_) => Err("stream reader panicked".to_owned()),
        }
    })?;
    m.push(("net.stream_mb_per_s", mb_per_s(payload.len() as f64, ms(t))));
    client.close();
    server.close();
    listener.close();
    Ok(())
}
