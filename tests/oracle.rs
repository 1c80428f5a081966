//! Transparency oracle: a restored application cannot tell it was
//! checkpointed (DMTCP's transparency property, PAPERS.md).
//!
//! A seed picks a workload (CPI, BT, Bratu or POV-Ray), a node count, a
//! rank count and one to three cuts at seed-chosen points of the run. A cut
//! is a snapshot (a checkpoint after which the pods run on where they are),
//! a checkpoint that destroys the pods followed by a restart on seed-chosen
//! nodes, a stop-and-copy `migrate`, a `migrate_live` with zero to three
//! pre-copy rounds and the §5 send-queue merge on or off, or a rollback: a
//! snapshot, a seed-chosen stretch of running on, then every pod destroyed
//! and restarted from the snapshot's images. A snapshot's image is encoded
//! after its pods resume, so the rollback is the cut that restores what a
//! pod looked like at the freeze, not what it did since. The disturbed run
//! must end with the exit codes and the result file of the undisturbed run
//! of the same seed: CPI, BT and Bratu exchange a fixed message sequence on
//! every connection, so one lost, duplicated or reordered byte changes the
//! result or wedges a rank. POV-Ray's master hands out tiles in arrival
//! order, so how many tiles each worker renders is timing; only the
//! master's exit code and its image hash file count.
//!
//! The KV half draws a small key-value fleet instead (server, a few normal
//! and slow clients, maybe a half-open one) under the same kinds of cuts.
//! The server's exit code counts the operations it served and every client
//! checks its whole response stream against the one it predicted, so the
//! disturbed run must end with the undisturbed server code and every
//! client at 0. A client reads each key right after writing it and never
//! again, so the key-value pairs the server holds at exit are compared
//! too: a store write lost at a cut shows up there.
//!
//! A failure names its seed, and the seed is the repro. Seeds
//! `base..base + SEEDS` run, with `base` from `ZAPC_ORACLE_SEED_BASE`
//! (default 0) so a CI matrix can widen the sweep.

use std::time::{Duration, Instant};
use zapc::agent::Finalize;
use zapc::manager::{checkpoint, restart, CheckpointTarget, RestartTarget};
use zapc::{migrate, migrate_live_with, Cluster, MigrateOptions, Uri};
use zapc_apps::kv::{fnv1a, launch_kv, store_entries, KvFleet, KvFleetParams};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};

const WAIT: Duration = Duration::from_secs(60);
const SEEDS: u64 = 10;

/// splitmix64: a seed-stable stream of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

#[derive(Debug, Clone, Copy)]
enum CutKind {
    /// Checkpoint with `Finalize::Resume`: the pods run on where they are.
    Snapshot,
    /// Checkpoint with `Finalize::Destroy`, then `restart`.
    Restart,
    /// Stop-and-copy `migrate`.
    Migrate,
    /// Checkpoint with `Finalize::Resume`, run on for `run_permille`
    /// thousandths of the undisturbed wall time, destroy every pod, then
    /// `restart` each from the checkpoint's image.
    Rollback { run_permille: u64 },
    /// `migrate_live` with this many pre-copy rounds (`0` is stop-and-copy),
    /// with or without the send-queue merge.
    Live { rounds: u32, merge: bool },
}

#[derive(Debug)]
struct Cut {
    kind: CutKind,
    /// Where the cut falls, in thousandths of the undisturbed run's wall
    /// time, measured from the end of the previous cut.
    at_permille: u64,
    /// Drawn afresh for every pod: its destination node.
    node_seed: u64,
}

#[derive(Debug)]
struct Case {
    kind: AppKind,
    nodes: usize,
    ranks: usize,
    cuts: Vec<Cut>,
}

/// One to three cuts of any kind; a live cut, which has the most variants,
/// is drawn twice as often as each other kind.
fn cuts(rng: &mut Rng) -> Vec<Cut> {
    (0..rng.range(1, 3))
        .map(|_| Cut {
            kind: match rng.range(0, 5) {
                0 => CutKind::Snapshot,
                1 => CutKind::Restart,
                2 => CutKind::Migrate,
                3 => CutKind::Rollback { run_permille: rng.range(20, 250) },
                _ => CutKind::Live { rounds: rng.range(0, 3) as u32, merge: rng.range(0, 1) == 1 },
            },
            at_permille: rng.range(20, 250),
            node_seed: rng.next(),
        })
        .collect()
}

fn case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let kind = AppKind::ALL[rng.range(0, 3) as usize];
    let nodes = rng.range(2, 4) as usize;
    let ranks = rng.range(2, 4) as usize;
    let cuts = cuts(&mut rng);
    Case { kind, nodes, ranks, cuts }
}

#[derive(Debug)]
struct KvCase {
    nodes: usize,
    fleet: KvFleetParams,
    cuts: Vec<Cut>,
}

fn kv_case(seed: u64) -> KvCase {
    let mut rng = Rng(seed ^ 0x6b76_6f72_6163_6c65);
    let nodes = rng.range(2, 4) as usize;
    let fleet = KvFleetParams {
        clients: rng.range(3, 6) as usize,
        slow_every: 3,
        halfopen: rng.range(0, 1) as usize,
        clients_per_pod: 3,
        requests: 600,
        val_len: 16,
        window: 6,
        idle_timeout_ms: 60_000,
        report_stall: false,
        slow_rcv_buf: 0,
    };
    KvCase { nodes, fleet, cuts: cuts(&mut rng) }
}

fn params(case: &Case) -> AppParams {
    AppParams { kind: case.kind, ranks: case.ranks, scale: 0.02, work: 100.0 }
}

/// Rank 0's result file for each workload.
fn result_file(kind: AppKind) -> &'static str {
    match kind {
        AppKind::Cpi => "pi.txt",
        AppKind::Bt => "bt-residual.txt",
        AppKind::Bratu => "bratu-norm.txt",
        AppKind::Povray => "render-hash.txt",
    }
}

/// What the application leaves behind: every rank's exit code (POV-Ray:
/// the master's alone) and rank 0's result file.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    codes: Vec<i32>,
    result: String,
}

fn finish(c: &Cluster, app: &zapc_apps::launch::Launched, case: &Case) -> Result<Outcome, String> {
    let mut codes = app.wait(c, WAIT).map_err(|e| format!("wait: {e:?}"))?;
    if case.kind == AppKind::Povray {
        // A worker's code counts the tiles it rendered.
        codes.truncate(1);
    }
    let path = format!("/pods/{}/{}", app.pods[0], result_file(case.kind));
    let result = c.fs.read(&path).map_err(|e| format!("read {path}: {e:?}"))?;
    app.destroy(c);
    Ok(Outcome { codes, result: String::from_utf8_lossy(&result).into_owned() })
}

fn cluster(case: &Case) -> Cluster {
    Cluster::builder().nodes(case.nodes).registry(full_registry()).build()
}

/// The undisturbed run and its wall time.
fn reference(case: &Case) -> Result<(Outcome, Duration), String> {
    let c = cluster(case);
    let t0 = Instant::now();
    let app = launch_app(&c, "orc", &params(case));
    let out = finish(&c, &app, case)?;
    Ok((out, t0.elapsed()))
}

/// A destination for `pod` other than the node it is on.
fn elsewhere(c: &Cluster, nodes: usize, pod: &str, draw: u64) -> usize {
    let here = c.pod_node(pod).unwrap_or(0);
    (here + 1 + (draw as usize % (nodes - 1))) % nodes
}

fn apply(
    c: &Cluster,
    nodes: usize,
    pods: &[String],
    cut: &Cut,
    n: usize,
    wall: Duration,
) -> Result<(), String> {
    let mut draw = Rng(cut.node_seed);
    let moves: Vec<(String, usize)> =
        pods.iter().map(|p| (p.clone(), elsewhere(c, nodes, p, draw.next()))).collect();
    let uri = |p: &str| Uri::mem(format!("oracle/{p}/{n}"));
    let checkpoint_all = |finalize| {
        let targets: Vec<CheckpointTarget> = pods
            .iter()
            .map(|p| CheckpointTarget { pod: p.clone(), uri: uri(p), finalize })
            .collect();
        checkpoint(c, &targets).map(|_| ()).map_err(|e| format!("checkpoint: {e}"))
    };
    let restart_all = || {
        let targets: Vec<RestartTarget> = moves
            .iter()
            .map(|(p, node)| RestartTarget { pod: p.clone(), uri: uri(p), node: *node })
            .collect();
        restart(c, &targets).map(|_| ()).map_err(|e| format!("restart: {e}"))
    };
    match cut.kind {
        CutKind::Snapshot => checkpoint_all(Finalize::Resume)?,
        CutKind::Restart => {
            checkpoint_all(Finalize::Destroy)?;
            restart_all()?;
        }
        CutKind::Rollback { run_permille } => {
            checkpoint_all(Finalize::Resume)?;
            std::thread::sleep(wall * run_permille as u32 / 1000);
            for p in pods {
                c.destroy_pod(p);
            }
            restart_all()?;
        }
        CutKind::Migrate => {
            migrate(c, &moves).map_err(|e| format!("migrate: {e}"))?;
        }
        CutKind::Live { rounds, merge } => {
            let opts = MigrateOptions {
                max_rounds: rounds,
                sendq_merge: merge,
                ..MigrateOptions::default()
            };
            migrate_live_with(c, &moves, &opts).map_err(|e| format!("migrate_live: {e}"))?;
        }
    }
    Ok(())
}

/// The same run with the case's cuts applied; also returns how many cuts
/// found a rank still running.
fn disturbed(case: &Case, wall: Duration) -> Result<(Outcome, usize), String> {
    let c = cluster(case);
    let app = launch_app(&c, "orc", &params(case));
    let mut live = 0;
    for (n, cut) in case.cuts.iter().enumerate() {
        std::thread::sleep(wall * cut.at_permille as u32 / 1000);
        live += usize::from(!app.all_exited(&c));
        apply(&c, case.nodes, &app.pods, cut, n, wall)?;
    }
    Ok((finish(&c, &app, case)?, live))
}

/// Runs one seed; returns how many of its cuts landed mid-run.
fn check(seed: u64) -> Result<usize, String> {
    let case = case(seed);
    let (want, wall) = reference(&case).map_err(|e| format!("seed {seed}: reference: {e}"))?;
    let (got, live) = disturbed(&case, wall).map_err(|e| format!("seed {seed}: {case:?}: {e}"))?;
    if got != want {
        return Err(format!("seed {seed}: {case:?}: got {got:?}, undisturbed run gave {want:?}"));
    }
    Ok(live)
}

/// Every exit code of the fleet, server first, then each client pod's in
/// pod order, and a digest of the key-value pairs the server holds at exit;
/// the fleet's pods are destroyed.
fn kv_finish(c: &Cluster, fleet: &KvFleet) -> Result<(Vec<i32>, u64), String> {
    let mut codes = Vec::new();
    for name in fleet.all_pods() {
        let pod = c.pod(&name).ok_or_else(|| format!("pod {name} missing"))?;
        codes.extend(pod.wait_all(WAIT).map_err(|e| format!("{name}: {e:?}"))?);
    }
    let server = c.pod(&fleet.server_pod).ok_or("server pod missing")?;
    let pid = server.vpid_pids().first().map(|&(_, pid)| pid).ok_or("no server process")?;
    let proc = server.node().process(pid).ok_or("server process reaped")?;
    let entries = store_entries(&proc.lock().unwrap().mem).map_err(|e| format!("store: {e:?}"))?;
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (key, val) in &entries {
        for part in [key, val] {
            fnv1a(&mut digest, &(part.len() as u32).to_le_bytes());
            fnv1a(&mut digest, part);
        }
    }
    for name in fleet.all_pods() {
        c.destroy_pod(&name);
    }
    Ok((codes, digest))
}

/// The KV half of [`check`]: the disturbed fleet must end with the
/// undisturbed server code and every client at 0.
fn kv_check(seed: u64) -> Result<usize, String> {
    let case = kv_case(seed);
    let cluster = || Cluster::builder().nodes(case.nodes).registry(full_registry()).build();
    let c = cluster();
    let t0 = Instant::now();
    let fleet = launch_kv(&c, "kvo", &case.fleet);
    let want = kv_finish(&c, &fleet).map_err(|e| format!("seed {seed}: reference: {e}"))?;
    let wall = t0.elapsed();
    if want.0.iter().skip(1).any(|&code| code != 0) {
        return Err(format!("seed {seed}: {case:?}: undisturbed run gave {want:?}"));
    }
    let c = cluster();
    let fleet = launch_kv(&c, "kvo", &case.fleet);
    let (pods, mut live) = (fleet.all_pods(), 0);
    for (n, cut) in case.cuts.iter().enumerate() {
        std::thread::sleep(wall * cut.at_permille as u32 / 1000);
        live += usize::from(pods.iter().any(|p| c.pod(p).is_some_and(|p| !p.all_exited())));
        apply(&c, case.nodes, &pods, cut, n, wall)
            .map_err(|e| format!("seed {seed}: {case:?}: {e}"))?;
    }
    let got = kv_finish(&c, &fleet).map_err(|e| format!("seed {seed}: {case:?}: {e}"))?;
    if got != want {
        return Err(format!("seed {seed}: {case:?}: got {got:?}, undisturbed run gave {want:?}"));
    }
    Ok(live)
}

/// Runs `check` on the sweep's seeds and requires every one to pass and
/// at least half of the cuts to find the application running.
fn sweep(check: fn(u64) -> Result<usize, String>, cuts_of: fn(u64) -> usize) {
    let base: u64 =
        std::env::var("ZAPC_ORACLE_SEED_BASE").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
    let seeds = base..base + SEEDS;
    let cuts: usize = seeds.clone().map(cuts_of).sum();
    let (mut live, mut failures) = (0, Vec::new());
    for seed in seeds {
        match check(seed) {
            Ok(n) => live += n,
            Err(e) => failures.push(e),
        }
    }
    let n = failures.len();
    assert!(failures.is_empty(), "{n} of {SEEDS} seeds failed:\n{}", failures.join("\n"));
    // A cut after the application exited proves nothing; the cut points
    // scale with the undisturbed wall time, so most land mid-run on any host.
    assert!(2 * live >= cuts, "only {live} of {cuts} cuts found the application running");
}

#[test]
fn cuts_are_invisible_to_the_application() {
    sweep(check, |s| case(s).cuts.len());
}

#[test]
fn cuts_are_invisible_to_the_kv_fleet() {
    sweep(kv_check, |s| kv_case(s).cuts.len());
}

#[test]
fn seeds_cover_every_workload_and_cut_kind() {
    // The sweep is only as good as its draws: the first seeds between them
    // reach every workload, every node count and every kind of cut, in
    // both halves.
    let cases: Vec<Case> = (0..SEEDS).map(case).collect();
    for kind in AppKind::ALL {
        assert!(cases.iter().any(|c| c.kind == kind), "{kind:?} never drawn");
    }
    for nodes in 2..=4 {
        assert!(cases.iter().any(|c| c.nodes == nodes), "{nodes} nodes never drawn");
    }
    let cuts = || cases.iter().flat_map(|c| &c.cuts);
    assert!(cuts().any(|c| matches!(c.kind, CutKind::Snapshot)), "no snapshot");
    assert!(cuts().any(|c| matches!(c.kind, CutKind::Restart)), "no restart");
    assert!(cuts().any(|c| matches!(c.kind, CutKind::Migrate)), "no migrate");
    assert!(cuts().any(|c| matches!(c.kind, CutKind::Rollback { .. })), "no rollback");
    for merge in [false, true] {
        let live = |c: &Cut| matches!(c.kind, CutKind::Live { merge: m, .. } if m == merge);
        assert!(cuts().any(live), "no live cut with merge {merge}");
    }
    assert!(cases.iter().any(|c| c.cuts.len() > 1), "never more than one cut");
    let kv: Vec<KvCase> = (0..SEEDS).map(kv_case).collect();
    for nodes in 2..=4 {
        assert!(kv.iter().any(|c| c.nodes == nodes), "KV: {nodes} nodes never drawn");
    }
    let kv_cuts = || kv.iter().flat_map(|c| &c.cuts);
    assert!(kv_cuts().any(|c| matches!(c.kind, CutKind::Snapshot)), "KV: no snapshot");
    assert!(kv_cuts().any(|c| matches!(c.kind, CutKind::Restart)), "KV: no restart");
    assert!(kv_cuts().any(|c| matches!(c.kind, CutKind::Migrate)), "KV: no migrate");
    assert!(kv_cuts().any(|c| matches!(c.kind, CutKind::Rollback { .. })), "KV: no rollback");
    let precopy = |c: &Cut| matches!(c.kind, CutKind::Live { rounds, .. } if rounds > 0);
    assert!(kv_cuts().any(precopy), "KV: no pre-copy");
    assert!(kv.iter().any(|c| c.fleet.halfopen > 0), "KV: no half-open client");
}
