//! Measurement harness for the §6 evaluation.

use std::time::{Duration, Instant};
use zapc::agent::Finalize;
use zapc::manager::{CheckpointTarget, RestartTarget};
use zapc::{checkpoint, restart, Cluster, Uri};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams, Launched};

/// Node counts of Figure 5/6 (the 16-node point is 8 dual-CPU blades).
pub const NODE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
/// BT requires square process counts (§6).
pub const BT_NODE_COUNTS: [usize; 4] = [1, 4, 9, 16];

/// Per-syscall pod virtualization overhead (virtual-time ns) used for the
/// ZapC configuration; the benchmark's `pod.syscall_ns` tile measures the
/// real per-syscall cost this models.
pub const ZAPC_OVERHEAD_NS: u64 = 150;

/// Measurement sizing.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Problem-size multiplier (1.0 ≈ paper ÷ 10).
    pub scale: f64,
    /// Work multiplier (iterations / intervals / pixels).
    pub work: f64,
    /// Repetitions to average.
    pub trials: usize,
}

impl RunCfg {
    /// CI-friendly sizing.
    pub fn quick() -> RunCfg {
        RunCfg { scale: 0.05, work: 0.5, trials: 1 }
    }

    /// Paper-shaped sizing (÷ 10 memory scale).
    pub fn full() -> RunCfg {
        RunCfg { scale: 1.0, work: 1.0, trials: 3 }
    }
}

/// The node counts used for `kind`.
pub fn node_counts(kind: AppKind) -> &'static [usize] {
    match kind {
        AppKind::Bt => &BT_NODE_COUNTS,
        _ => &NODE_COUNTS,
    }
}

/// Builds the cluster for a given endpoint count: up to 8 uniprocessor
/// blades; 16 endpoints run as 8 dual-CPU blades with two pods per node
/// (the paper's sixteen-node configuration); 9 uses 9 blades (BT).
fn cluster_for(ranks: usize, virt_overhead_ns: u64) -> Cluster {
    let (nodes, cpus) = match ranks {
        0..=8 => (ranks.max(1), 1),
        9 => (9, 1),
        _ => (ranks.div_ceil(2), 2),
    };
    Cluster::builder()
        .nodes(nodes)
        .cpus(cpus)
        .virt_overhead_ns(virt_overhead_ns)
        .registry(full_registry())
        .build()
}

fn params(kind: AppKind, ranks: usize, cfg: &RunCfg) -> AppParams {
    AppParams { kind, ranks, scale: cfg.scale, work: cfg.work }
}

/// One completion measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct Completion {
    /// Wall-clock completion (ms). On a single-core host this cannot show
    /// multi-node speedup; the Base-vs-ZapC *difference* is the signal.
    pub wall_ms: f64,
    /// Virtual-time completion (ms): the Lamport-clock model in which the
    /// speedup shape is visible (documented in DESIGN.md).
    pub vtime_ms: f64,
}

/// Runs `kind` to completion on `ranks` endpoints; `virt_overhead_ns = 0`
/// is the *Base* configuration, [`ZAPC_OVERHEAD_NS`] the *ZapC* one.
pub fn run_completion(kind: AppKind, ranks: usize, cfg: &RunCfg, virt_overhead_ns: u64) -> Completion {
    let mut acc = Completion::default();
    for _ in 0..cfg.trials.max(1) {
        let cluster = cluster_for(ranks, virt_overhead_ns);
        let app = launch_app(&cluster, "fig5", &params(kind, ranks, cfg));
        let t0 = Instant::now();
        app.wait(&cluster, Duration::from_secs(1800)).expect("completion");
        acc.wall_ms += t0.elapsed().as_secs_f64() * 1000.0;
        acc.vtime_ms += max_vtime_ms(&cluster, &app);
        app.destroy(&cluster);
    }
    let n = cfg.trials.max(1) as f64;
    Completion { wall_ms: acc.wall_ms / n, vtime_ms: acc.vtime_ms / n }
}

/// Maximum final virtual time across all ranks (the app's virtual
/// completion time).
pub fn max_vtime_ms(cluster: &Cluster, app: &Launched) -> f64 {
    let mut max_ns = 0u64;
    for name in &app.pods {
        if let Some(pod) = cluster.pod(name) {
            for (_, pid) in pod.vpid_pids() {
                if let Some(p) = pod.node().process(pid) {
                    max_ns = max_ns.max(p.lock().unwrap().vtime_ns);
                }
            }
        }
    }
    max_ns as f64 / 1e6
}

/// Figure 6a/6c sample: the 10-checkpoint methodology.
#[derive(Debug, Clone, Default)]
pub struct CheckpointSample {
    /// Mean Manager-observed checkpoint latency (ms) — Figure 6a.
    pub ckpt_ms_avg: f64,
    /// Worst checkpoint latency (ms).
    pub ckpt_ms_max: f64,
    /// Mean per-Agent network-state checkpoint latency (ms): Figure 6a's
    /// network-state share of each checkpoint.
    pub net_ms_avg: f64,
    /// Mean size of the *largest* pod image (bytes) — Figure 6c.
    pub image_bytes_max_pod: f64,
    /// Mean network-state bytes per pod.
    pub network_bytes_avg: f64,
    /// Checkpoints actually taken.
    pub count: usize,
}

/// Runs `kind` and takes up to `n_ckpts` evenly spread snapshots (§6.2:
/// "taking ten checkpoints evenly distributed during each application
/// execution"), reporting Figure 6a/6c quantities.
pub fn run_checkpoints(kind: AppKind, ranks: usize, cfg: &RunCfg, n_ckpts: usize) -> CheckpointSample {
    // Calibrate the run duration first.
    let cluster = cluster_for(ranks, ZAPC_OVERHEAD_NS);
    let app = launch_app(&cluster, "cal", &params(kind, ranks, cfg));
    let t0 = Instant::now();
    app.wait(&cluster, Duration::from_secs(1800)).expect("calibration run");
    let duration = t0.elapsed();
    app.destroy(&cluster);
    drop(cluster);

    let spacing = (duration / (n_ckpts as u32 + 1)).max(Duration::from_millis(2));
    let cluster = cluster_for(ranks, ZAPC_OVERHEAD_NS);
    let app = launch_app(&cluster, "fig6", &params(kind, ranks, cfg));
    let targets: Vec<CheckpointTarget> =
        app.pods.iter().map(|p| CheckpointTarget::snapshot(p)).collect();

    let mut s = CheckpointSample::default();
    for i in 0..n_ckpts {
        if i > 0 {
            std::thread::sleep(spacing);
        }
        if s.count > 0 && app.all_exited(&cluster) {
            break;
        }
        let Ok(report) = checkpoint(&cluster, &targets) else { break };
        s.count += 1;
        s.ckpt_ms_avg += report.wall_ms;
        s.ckpt_ms_max = s.ckpt_ms_max.max(report.wall_ms);
        let nets: f64 =
            report.pods.iter().map(|p| p.net_ms).sum::<f64>() / report.pods.len() as f64;
        s.net_ms_avg += nets;
        s.image_bytes_max_pod +=
            report.pods.iter().map(|p| p.image_bytes).max().unwrap_or(0) as f64;
        s.network_bytes_avg += report.pods.iter().map(|p| p.network_bytes).sum::<usize>() as f64
            / report.pods.len() as f64;
    }
    app.wait(&cluster, Duration::from_secs(1800)).expect("post-checkpoint completion");
    app.destroy(&cluster);
    if s.count > 0 {
        let n = s.count as f64;
        s.ckpt_ms_avg /= n;
        s.net_ms_avg /= n;
        s.image_bytes_max_pod /= n;
        s.network_bytes_avg /= n;
    }
    s
}

/// Figure 6b sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct RestartSample {
    /// Manager-observed restart latency (ms), image preloaded in memory.
    pub restart_ms: f64,
    /// Mean per-Agent network-restore latency (ms).
    pub net_ms: f64,
}

/// Checkpoints `kind` mid-run (the most conservative point, §6.2),
/// restarts it from the in-memory images, and reports Figure 6b numbers.
/// The run then completes, so the measurement is of a *working* restart.
pub fn run_restart(kind: AppKind, ranks: usize, cfg: &RunCfg) -> RestartSample {
    let cluster = cluster_for(ranks, ZAPC_OVERHEAD_NS);
    let app = launch_app(&cluster, "cal", &params(kind, ranks, cfg));
    let t0 = Instant::now();
    app.wait(&cluster, Duration::from_secs(1800)).expect("calibration run");
    let duration = t0.elapsed();
    app.destroy(&cluster);
    drop(cluster);

    let cluster = cluster_for(ranks, ZAPC_OVERHEAD_NS);
    let app = launch_app(&cluster, "fig6b", &params(kind, ranks, cfg));
    std::thread::sleep(duration / 2); // mid-execution
    let targets: Vec<CheckpointTarget> = app
        .pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("6b/{p}")),
            finalize: Finalize::Destroy,
        })
        .collect();
    checkpoint(&cluster, &targets).expect("mid-run checkpoint");

    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .enumerate()
        .map(|(i, p)| RestartTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("6b/{p}")),
            node: i % cluster.node_count(),
        })
        .collect();
    let report = restart(&cluster, &rts).expect("restart");
    let sample = RestartSample {
        restart_ms: report.wall_ms,
        net_ms: report.pods.iter().map(|p| p.net_ms).sum::<f64>() / report.pods.len() as f64,
    };
    app.wait(&cluster, Duration::from_secs(1800)).expect("post-restart completion");
    app.destroy(&cluster);
    sample
}

/// Formats a byte count the way the paper quotes sizes.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1} MB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}
