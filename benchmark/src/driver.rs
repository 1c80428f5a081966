//! The operator: one driver thread in a closed loop (one outstanding
//! operation, the next issued when the previous returns) running
//! *generations* against a fresh 2-node cluster each.
//!
//! * A **reference generation** launches the application and lets it run
//!   to its exit undisturbed: `app_run_s`, and the exit codes every other
//!   generation must reproduce.
//! * A **disturbed generation** primes the store with two commits (so every
//!   sampled commit finds `keep = 2` manifests, prunes one and collects
//!   its garbage), then runs `cycles` times the fixed sequence
//!   snapshot → commit → live migration → snapshot → destroy + restart →
//!   migrate → live migration → snapshot → crash + recover + restart. The
//!   last step rolls the application back
//!   to the cycle's commit, so what it computes during a cycle never
//!   accumulates and a short application outlives any number of cycles.
//!
//! The schedule never depends on the seed or on measured values — only how
//! many generations fit into `--seconds` does.

use crate::ops::{Bench, CkptSample, RestartSample, RingTotals, StoreProbe, WorkloadCfg};
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Every how many disturbed generations the application is drained to its
/// exit and its exit codes checked (the last one always is).
const DRAIN_EVERY: usize = 4;

/// How long a drain may take before it counts as a wrong result.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Set-up-only generations after each reference generation: set-up takes
/// milliseconds, so its median needs (and can afford) many samples.
const SETUP_REPEATS: usize = 24;

/// Repetitions of the micro-probes in a traced run (medians are reported).
const PROBE_REPEATS: usize = 3;

/// Manifests `CommitOptions::default()` retains.
const KEEP: f64 = 2.0;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload parameters.
    pub cfg: WorkloadCfg,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// One reference and one single-cycle, drained generation; no clock.
    pub smoke: bool,
    /// Where the traced pass writes its span file.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Its definition.
    pub metric: &'static Metric,
    /// The value.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// The highest tail percentile with ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every oracle held.
    pub correct: bool,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
    /// The metrics of this pass.
    pub metrics: Vec<Reported>,
    /// What went wrong, and counts worth a line.
    pub notes: Vec<String>,
}

#[derive(Default)]
struct Samples(HashMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn extend(&mut self, named: Vec<(&'static str, f64)>) {
        for (name, v) in named {
            self.push(name, v);
        }
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn med(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Prime,
    Snapshot,
    Commit,
    Live,
    DestroyRestart,
    Migrate,
    Recover,
}

/// One cycle. The cheap operations whose samples are noisiest on a busy
/// box — snapshots and live migrations — appear more than once; the
/// rollback comes last.
const CYCLE: [Op; 9] = [
    Op::Snapshot,
    Op::Commit,
    Op::Live,
    Op::Snapshot,
    Op::DestroyRestart,
    Op::Migrate,
    Op::Live,
    Op::Snapshot,
    Op::Recover,
];

struct Run<'a> {
    opts: &'a RunOpts,
    /// Untraced samples: what the end-to-end metrics are made of.
    plain: Samples,
    /// Samples of traced generations: what the per-layer metrics are made of.
    traced: Samples,
    tracer: Tracer,
    expected: Option<Vec<i32>>,
    correct: bool,
    attempted: u64,
    failed: u64,
    late_replies: u64,
    ring_dropped: u64,
    early_exits: u64,
    notes: Vec<String>,
}

impl Run<'_> {
    fn wrong(&mut self, why: String) {
        self.correct = false;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// The exit-code oracle. KV clients report their worst stall as a
    /// non-negative code (sampled when `sample_stalls`); everything else
    /// must match the reference run.
    fn check_exit(&mut self, bench: &Bench, codes: &[i32], sample_stalls: bool) {
        let Some(expected) = self.expected.clone() else {
            self.expected = Some(codes.to_vec());
            if let Some(bad) = codes.iter().position(|&c| c < 0) {
                self.wrong(format!(
                    "reference run: process {bad} exited with {}",
                    codes[bad]
                ));
            }
            // The KV server's exit code is its operation count (mod 251).
            if bench.is_kv() && codes[0] != (bench.app_ops % 251) as i32 {
                self.wrong(format!(
                    "kv server served {} operations (mod 251), not {}",
                    codes[0], bench.app_ops
                ));
            }
            return;
        };
        for (i, (&got, &want)) in codes.iter().zip(&expected).enumerate() {
            if bench.is_kv_client(i) {
                if got < 0 {
                    self.wrong(format!("kv client {i} failed with code {got}"));
                } else if sample_stalls {
                    self.plain.push("kv_stall_ms", got as f64);
                }
            } else if got != want {
                self.wrong(format!(
                    "process {i} exited with {got}, reference run with {want}"
                ));
            }
        }
    }

    fn reference_generation(&mut self, keep: bool) {
        let t = Instant::now();
        let bench = match Bench::setup(&self.opts.cfg, self.opts.seed, false) {
            Ok(b) => b,
            Err(e) => return self.wrong(e),
        };
        let setup_s = t.elapsed().as_secs_f64();
        match bench.wait_exit(DRAIN_TIMEOUT) {
            Some(codes) => {
                let run_s = t.elapsed().as_secs_f64();
                self.check_exit(&bench, &codes, false);
                if keep {
                    self.plain.push("setup_s", setup_s);
                    self.plain.push("app_run_s", run_s);
                    self.plain
                        .push("app_ops_per_s", bench.app_ops as f64 / run_s);
                }
            }
            None => self.wrong("reference run did not exit".into()),
        }
        bench.teardown();
    }

    /// Launch, wait until ready, tear down: one more `setup_s` sample at a
    /// few milliseconds' cost.
    fn setup_generation(&mut self) {
        let t = Instant::now();
        match Bench::setup(&self.opts.cfg, self.opts.seed, false) {
            Ok(bench) => {
                self.plain.push("setup_s", t.elapsed().as_secs_f64());
                bench.teardown();
            }
            Err(e) => self.wrong(e),
        }
    }

    /// One disturbed generation. `keep` is false for the warm-up, whose
    /// samples are dropped.
    fn disturbed_generation(&mut self, cycles: usize, traced: bool, drain: bool, keep: bool) {
        let t = Instant::now();
        let bench = match Bench::setup(&self.opts.cfg, self.opts.seed, traced) {
            Ok(b) => b,
            Err(e) => return self.wrong(e),
        };
        if keep {
            let setup_s = t.elapsed().as_secs_f64();
            self.samples(traced).push("setup_s", setup_s);
        }
        if let Err(e) = bench.ramp() {
            bench.teardown();
            return self.wrong(e);
        }
        let mut probe = StoreProbe::new(self.opts.cfg.chunked);
        let mut ops_done = 0u64;
        let (mut alive, mut finishing) = (true, false);
        let plan = [Op::Prime, Op::Prime]
            .into_iter()
            .chain((0..cycles).flat_map(|_| CYCLE));
        for (i, op) in plan.enumerate() {
            if bench.finishing() {
                // The application is finishing under us: not a failure, but
                // nothing is left to operate on. Its exit codes still count.
                self.early_exits += 1;
                finishing = true;
                break;
            }
            bench.settle();
            self.attempted += 1;
            let op_span = self.tracer.enter(op_name(op));
            let outcome = self.issue(&bench, op, traced, keep);
            self.tracer.exit(op_span);
            if let Err(e) = outcome {
                self.failed += 1;
                self.wrong(e);
                alive = false;
                break;
            }
            ops_done += 1;
            // After each whole cycle of a traced generation: the same
            // checkpoint once more, by hand, layer by layer.
            if traced && i >= 2 && (i - 2) % CYCLE.len() == CYCLE.len() - 1 && !bench.finishing() {
                match bench.hand_checkpoint(&mut self.tracer, &mut probe) {
                    Ok(h) if keep => self.traced.extend(h),
                    Ok(_) => {}
                    Err(e) => self.wrong(e),
                }
            }
        }
        if traced {
            let totals = bench.ring_totals();
            self.ring_dropped += totals.dropped;
            if keep {
                push_ring(&mut self.traced, &totals, ops_done);
            }
        }
        if alive && (drain || finishing) {
            match bench.wait_exit(DRAIN_TIMEOUT) {
                Some(codes) => {
                    let run_s = t.elapsed().as_secs_f64();
                    self.check_exit(&bench, &codes, keep);
                    if keep && bench.is_kv() {
                        self.plain
                            .push("disturbed_ops_per_s", bench.app_ops as f64 / run_s);
                    }
                }
                None => self.wrong("application did not exit after the operations".into()),
            }
        }
        bench.teardown();
    }

    fn samples(&mut self, traced: bool) -> &mut Samples {
        if traced {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }

    fn issue(&mut self, bench: &Bench, op: Op, traced: bool, keep: bool) -> Result<(), String> {
        self.tracer.next_op();
        let keep = keep && op != Op::Prime;
        match op {
            Op::Snapshot => {
                let s = bench.snapshot()?;
                self.late_replies += s.late_replies;
                if keep {
                    push_ckpt(self.samples(traced), &s);
                }
            }
            Op::Prime | Op::Commit => {
                let s = bench.commit()?;
                self.late_replies += s.late_replies;
                if keep {
                    let set = self.samples(traced);
                    set.push("commit_ms", s.wall_ms);
                    set.push("manifest_ms", s.wall_ms - s.stage_ms);
                    if s.manifests as f64 == KEEP && s.logical_bytes > 0.0 {
                        set.push("store_amp", s.disk_bytes / (KEEP * s.logical_bytes));
                    }
                }
            }
            Op::Live => {
                let s = bench.migrate_live()?;
                if keep {
                    let set = self.samples(traced);
                    set.push("live_downtime_ms", s.downtime_ms);
                    set.push("live_total_ms", s.wall_ms);
                    set.push("live_rounds", s.rounds);
                    set.push("live_precopy_mb", s.precopy_bytes / 1e6);
                    set.push("live_cut_kb", s.cut_bytes / 1e3);
                    set.push("live_precopy_ms", s.precopy_ms);
                    set.push("live_cutover_ms", s.cutover_ms);
                    set.push("live_converged_frac", s.converged_frac);
                }
            }
            Op::DestroyRestart => {
                let s = bench.destroy_restart()?;
                self.late_replies += s.late_replies;
                if keep {
                    let set = self.samples(traced);
                    set.push("restart_ms", s.wall_ms);
                    push_restart(set, &s);
                }
            }
            Op::Migrate => {
                let s = bench.migrate()?;
                self.late_replies += s.late_replies;
                if keep {
                    self.samples(traced).push("migrate_outage_ms", s.wall_ms);
                }
            }
            Op::Recover => {
                let s = bench.crash_recover_restart()?;
                if s.orphans > 0 {
                    self.wrong(format!(
                        "{} orphans in the store after recover()",
                        s.orphans
                    ));
                }
                if keep {
                    let set = self.samples(traced);
                    set.push("recover_restart_ms", s.recover_ms + s.restart_ms);
                    set.push("recover_ms", s.recover_ms);
                    set.push("manifest_restart_ms", s.restart_ms);
                }
            }
        }
        Ok(())
    }
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Prime => "op.commit_prime",
        Op::Snapshot => "op.checkpoint",
        Op::Commit => "op.checkpoint_commit",
        Op::Live => "op.migrate_live",
        Op::DestroyRestart => "op.destroy_restart",
        Op::Migrate => "op.migrate",
        Op::Recover => "op.crash_recover_restart",
    }
}

fn push_ckpt(set: &mut Samples, s: &CkptSample) {
    set.push("ckpt_ms", s.wall_ms);
    set.push("stall_ms", s.stall_ms);
    set.push("image_mb", s.image_bytes / 1e6);
    for (name, v) in ["mgr_meta_ms", "mgr_sync_ms", "mgr_commit_ms"]
        .into_iter()
        .zip(s.mgr)
    {
        set.push(name, v);
    }
    let a = &s.agent;
    let tiles = a.quiesce + a.net + a.standalone + a.sync + a.commit + a.resume;
    for (name, v) in [
        ("agent_quiesce_ms", a.quiesce),
        ("agent_net_ms", a.net),
        ("agent_standalone_ms", a.standalone),
        ("agent_sync_ms", a.sync),
        ("agent_commit_ms", a.commit),
        ("agent_resume_ms", a.resume),
        ("blocked_ms", a.blocked),
        ("coord_overhead_ms", s.wall_ms - a.total),
        ("explained_ms", tiles + (s.wall_ms - a.total)),
    ] {
        set.push(name, v);
    }
}

fn push_restart(set: &mut Samples, s: &RestartSample) {
    for (name, v) in ["mgr_prepare_ms", "mgr_schedule_ms", "mgr_restore_ms"]
        .into_iter()
        .zip(s.mgr)
    {
        set.push(name, v);
    }
}

/// Folds one traced generation's observer totals into per-generation
/// samples: span means in ms, counters per operation.
fn push_ring(set: &mut Samples, t: &RingTotals, ops: u64) {
    let span_ms = |name: &str| {
        t.spans
            .get(name)
            .map(|&(n, us)| us as f64 / 1e3 / n.max(1) as f64)
    };
    for (sample, span) in [
        ("ckpt.restore_ms", "rst.restore"),
        ("netckpt.restore_ms", "rst.reconnect"),
    ] {
        if let Some(ms) = span_ms(span) {
            set.push(sample, ms);
        }
    }
    let counter = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
    let restarts = t.spans.get("mgr.restore").map_or(0, |&(n, _)| n).max(1) as f64;
    set.push(
        "netckpt.resend_bytes",
        counter("netckpt.resend_bytes") / restarts,
    );
    let per_op = 1.0 / ops.max(1) as f64;
    for (sample, name) in [
        ("net.retransmits", "net.retransmit"),
        ("net.rto_timeouts", "net.rto_timeout"),
        ("net.fast_retransmits", "net.fast_retransmit"),
        ("net.zero_window_probes", "net.zero_window_probe"),
    ] {
        set.push(sample, counter(name) * per_op);
    }
    for name in [
        "store.chunks_hit",
        "store.chunks_new",
        "store.chunk_stored_bytes",
        "store.put_bytes",
    ] {
        set.push(name, counter(name));
    }
}

/// Runs one pass of one workload.
pub fn run(opts: &RunOpts) -> RunResult {
    let start = Instant::now();
    let left = |now: Instant| opts.seconds - (now - start).as_secs_f64();
    let mut r = Run {
        opts,
        plain: Samples::default(),
        traced: Samples::default(),
        tracer: Tracer::new(opts.trace),
        expected: None,
        correct: true,
        attempted: 0,
        failed: 0,
        late_replies: 0,
        ring_dropped: 0,
        early_exits: 0,
        notes: Vec::new(),
    };

    if opts.trace {
        for _ in 0..if opts.smoke { 1 } else { PROBE_REPEATS } {
            match crate::ops::micro_probes(&opts.cfg, opts.seed) {
                Ok(m) => r.traced.extend(m),
                Err(e) => r.wrong(e),
            }
        }
    }

    // Warm-up: the first generation of each kind pays for page faults,
    // allocator growth and lazy statics. Its timings are dropped; the
    // reference run's exit codes become the oracle.
    let t = Instant::now();
    r.reference_generation(opts.smoke);
    let mut ref_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    r.disturbed_generation(1, opts.trace, opts.smoke, opts.smoke);
    // A full generation has `cycles` cycles where the warm-up had one.
    let cycles = opts.cfg.cycles;
    let mut gen_s = t.elapsed().as_secs_f64() * cycles as f64;

    let mut generation = 0usize;
    while !opts.smoke && r.correct {
        generation += 1;
        // A traced run alternates traced and untraced generations, so the
        // two sets of snapshots it compares are interleaved in time.
        let traced = opts.trace && generation % 2 == 1;
        let unit = gen_s + ref_s;
        let last = left(Instant::now()) < 2.0 * unit + ref_s;
        let drain = last || generation.is_multiple_of(DRAIN_EVERY);
        if left(Instant::now()) < gen_s + if drain { ref_s } else { 0.0 } {
            break;
        }
        let t = Instant::now();
        r.disturbed_generation(cycles, traced, drain, true);
        let took = t.elapsed().as_secs_f64() - if drain { ref_s } else { 0.0 };
        gen_s = if generation == 1 {
            took
        } else {
            gen_s.max(took)
        };
        if left(Instant::now()) < ref_s {
            break;
        }
        let t = Instant::now();
        r.reference_generation(true);
        ref_s = ref_s.max(t.elapsed().as_secs_f64());
        for _ in 0..if opts.trace { 0 } else { SETUP_REPEATS } {
            r.setup_generation();
        }
    }

    if opts.trace && !r.tracer.is_empty() {
        let path = opts
            .out_dir
            .join(format!("trace-{}-seed{}.json", opts.cfg.name, opts.seed));
        match r.tracer.write_chrome(&path) {
            Ok(()) => r.notes.push(format!(
                "{} spans written to {}",
                r.tracer.len(),
                path.display()
            )),
            Err(e) => r.wrong(format!("writing {}: {e}", path.display())),
        }
    }
    r.notes.push(format!(
        "{generation} disturbed generations of {cycles} cycles, {} early application exits",
        r.early_exits
    ));

    let metrics = if opts.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    if !opts.smoke {
        for m in metrics
            .iter()
            .filter(|m| m.value == 0.0 && m.metric.bound > 0.0)
        {
            r.correct = false;
            r.notes.push(format!("no samples for {}", m.metric.name));
        }
    }
    RunResult {
        correct: r.correct,
        attempted: r.attempted.max(1),
        failed: r.failed,
        metrics,
        notes: r.notes,
    }
}

fn reported(metric: &'static Metric, samples: &[f64], value: f64) -> Reported {
    let tail = tail_percentile(samples.len()).map(|p| (p, percentile(samples, p)));
    Reported {
        metric,
        value,
        n: samples.len(),
        tail,
    }
}

fn end_to_end(r: &Run<'_>) -> Vec<Reported> {
    END_TO_END
        .iter()
        .map(|m| {
            let key = m.name.trim_end_matches("_p50");
            let samples = r.plain.get(key);
            reported(m, samples, median(samples))
        })
        .collect()
}

fn per_layer(r: &Run<'_>) -> Vec<Reported> {
    let t = &r.traced;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|m| {
            // Most per-layer metrics are the median of the like-named
            // samples of the traced generations (`zapc.`/`apps.` prefixes
            // dropped); the rest are derived here.
            let key = m.name.trim_start_matches("zapc.");
            let med = |k: &str| (t.get(k).to_vec(), t.med(k));
            let (samples, value) = match m.name {
                "zapc.ckpt_ms_p90" => (
                    t.get("ckpt_ms").to_vec(),
                    percentile(t.get("ckpt_ms"), 90.0),
                ),
                "zapc.stall_ms_p90" => (
                    t.get("stall_ms").to_vec(),
                    percentile(t.get("stall_ms"), 90.0),
                ),
                "zapc.late_replies" => (vec![], r.late_replies as f64),
                "zapc.aborted_ops" => (vec![], r.failed as f64),
                "store.manifest_ms" => med("manifest_ms"),
                "store.chunk_hit_ratio" => (
                    vec![],
                    ratio(
                        t.sum("store.chunks_hit"),
                        t.sum("store.chunks_hit") + t.sum("store.chunks_new"),
                    ),
                ),
                "store.compress_ratio" => (
                    vec![],
                    ratio(t.sum("store.chunk_stored_bytes"), t.sum("store.put_bytes")),
                ),
                "apps.ops_per_s" => (
                    r.plain.get("app_ops_per_s").to_vec(),
                    r.plain.med("app_ops_per_s"),
                ),
                "apps.kv_client_stall_ms_p50" => (
                    r.plain.get("kv_stall_ms").to_vec(),
                    r.plain.med("kv_stall_ms"),
                ),
                "apps.kv_client_stall_ms_p90" => (
                    r.plain.get("kv_stall_ms").to_vec(),
                    percentile(r.plain.get("kv_stall_ms"), 90.0),
                ),
                "apps.kv_disturbed_ops_per_s" => (
                    r.plain.get("disturbed_ops_per_s").to_vec(),
                    r.plain.med("disturbed_ops_per_s"),
                ),
                "obs.overhead_pct" => {
                    let (on, off) = (t.med("ckpt_ms"), r.plain.med("ckpt_ms"));
                    (
                        vec![],
                        if off > 0.0 {
                            (on - off) / off * 100.0
                        } else {
                            0.0
                        },
                    )
                }
                "obs.ring_dropped" => (vec![], r.ring_dropped as f64),
                "trace.tile_gap_pct" => (vec![], r.tracer.gap_pct("hand.ckpt")),
                "trace.coverage_pct" => (
                    vec![],
                    ratio(t.med("explained_ms"), t.med("ckpt_ms")) * 100.0,
                ),
                _ if m.name.starts_with("zapc.") => med(key),
                name => med(name),
            };
            reported(m, &samples, value)
        })
        .collect()
}
