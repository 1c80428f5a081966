//! The benchmark's contract — command, workloads, metrics, bounds — in one
//! place. `/BENCHMARK.json` is the output of [`render`]; a test asserts
//! byte equality, so the file and the binary cannot drift apart.

/// How the driver starts the benchmark from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Seconds one run measures. The driver makes 4 + 22 × 4 = 92 runs inside
/// 3420 s including two builds; 30 s plus ~2 s of process start, final
/// teardown and trace writing leaves room for two 200 s builds.
pub const RUN_SECONDS: u64 = 30;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why it exists: which layers do the work on it.
    pub why: &'static str,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result object.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may get worse before a change counts as a regression.
    pub bound: f64,
    /// What is measured, for people.
    pub what: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mem-heavy",
        why: "4 seeded-writer pods of 2.6 MB, no sockets, plain store: ckpt dump/restore and proto framing do the work",
    },
    Workload {
        name: "conn-heavy",
        why: "BT on 16 ranks, 120 TCP connections, 0.8 MB of images: zapc coordination, netckpt and net reconnection do the work",
    },
    Workload {
        name: "durable",
        why: "the mem-heavy fleet with half-shared, quarter-compressible ballast on the chunked store: store chunk/compress/fsync/GC and fetch do the work",
    },
    Workload {
        name: "serve",
        why: "KV server, 64 clients (16 slow) + 8 half-open, 2 MB of images, traffic in flight, chunked store: net data path and netckpt queues do the work",
    },
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
        what,
    }
}

/// The twelve end-to-end metrics; lower is better for all of them. The
/// bounds are what a two-core VM with noisy neighbours allows: a bound is at
/// least three times the run-to-run spread the README records, and one
/// bound has to serve all four workloads.
pub const END_TO_END: [Metric; 12] = [
    e2e(
        "setup_s",
        "s",
        0.25,
        "cluster build + launch until every pod is ready; median over the run's generations",
    ),
    e2e(
        "app_run_s",
        "s",
        0.25,
        "undisturbed reference generation, launch to exit (Fig. 5)",
    ),
    e2e(
        "ckpt_ms_p50",
        "ms",
        0.25,
        "CheckpointReport.wall_ms of a snapshot to Uri::mem (Fig. 6a)",
    ),
    e2e(
        "stall_ms_p50",
        "ms",
        0.25,
        "per snapshot, the largest PodReport.total_ms: how long the application is frozen",
    ),
    e2e(
        "restart_ms_p50",
        "ms",
        0.25,
        "RestartReport.wall_ms from in-memory images onto the other node (Fig. 6b)",
    ),
    e2e(
        "migrate_outage_ms_p50",
        "ms",
        0.25,
        "migrate() wall; all of it is outage",
    ),
    e2e(
        "live_downtime_ms_p50",
        "ms",
        0.25,
        "LiveMigrateReport.max_downtime_ms of migrate_live()",
    ),
    e2e(
        "live_total_ms_p50",
        "ms",
        0.25,
        "LiveMigrateReport.wall_ms, so downtime bought with pre-copy shows",
    ),
    e2e(
        "commit_ms_p50",
        "ms",
        0.25,
        "checkpoint_commit() wall to durable manifest, keep = 2, two manifests already retained",
    ),
    e2e(
        "recover_restart_ms_p50",
        "ms",
        0.25,
        "after istore.crash(): recover() + restart_from_manifest()",
    ),
    e2e(
        "image_mb",
        "MB",
        0.25,
        "median summed PodReport.image_bytes per snapshot (Fig. 6c)",
    ),
    e2e(
        "store_amp",
        "ratio",
        0.10,
        "istore.disk_usage() / (keep x logical image bytes) with keep manifests retained",
    ),
];

const fn lo(name: &'static str, unit: &'static str, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        what,
    }
}

const fn hi(name: &'static str, unit: &'static str, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
        what,
    }
}

/// Per-layer metrics, from the traced pass. Source in brackets: R = fields
/// of the operation's report, O = observer ring totals, H = benchmark span
/// around a hand-driven public call on the workload's own suspended pods,
/// M = micro-probe on generated bytes.
pub const PER_LAYER: [Metric; 71] = [
    lo("pod.suspend_ms", "ms", "[H] Pod::suspend of every pod; moves stall_ms_p50"),
    lo("pod.resume_ms", "ms", "[H] Pod::resume of every pod; moves stall_ms_p50"),
    lo("pod.syscall_ns", "ns", "[M] one interposed system call; moves app_run_s"),
    hi("sim.fs_write_mb_per_s", "MB/s", "[M] SimFs::write; moves commit_ms_p50 on durable"),
    lo("sim.fsync_ms", "ms", "[M] SimFs::fsync of one image-sized file; moves commit_ms_p50"),
    hi("proto.encode_mb_per_s", "MB/s", "[M] ImageWriter framing; moves ckpt_ms_p50 on mem-heavy"),
    hi("proto.decode_mb_per_s", "MB/s", "[M] ImageReader section walk with CRC; moves restart_ms_p50 on mem-heavy"),
    hi("proto.digest_mb_per_s", "MB/s", "[M] fnv1a64; moves commit_ms_p50 and recover_restart_ms_p50"),
    lo("ckpt.dump_ms", "ms", "[H] checkpoint_standalone of the slowest pod; moves ckpt_ms_p50, stall_ms_p50, migrate_outage_ms_p50"),
    hi("ckpt.dump_mb_per_s", "MB/s", "[H] image bytes per second of checkpoint_standalone"),
    lo("ckpt.delta_dump_ms", "ms", "[H] capture_memory_round against the previous round; moves live_*"),
    lo("ckpt.delta_bytes", "B", "[H] region bytes one delta round carries, all pods"),
    lo("ckpt.restore_ms", "ms", "[O] rst.restore span, mean per pod; moves restart_ms_p50, recover_restart_ms_p50"),
    lo("netckpt.save_ms", "ms", "[H] checkpoint_network of the slowest pod; moves ckpt_ms_p50 on conn-heavy/serve"),
    lo("netckpt.socks", "count", "[H] sockets saved per checkpoint, all pods"),
    lo("netckpt.queue_bytes", "B", "[H] send + receive queue bytes saved per checkpoint, all pods"),
    lo("netckpt.schedule_ms", "ms", "[H] assign_roles over the merged meta-data; moves restart_ms_p50"),
    lo("netckpt.restore_ms", "ms", "[O] rst.reconnect span (contains netckpt.sock_restore), mean per pod"),
    lo("netckpt.resend_bytes", "B", "[O] send-queue bytes re-sent per restart"),
    hi("net.stream_mb_per_s", "MB/s", "[M] one TCP connection between two pods, 1 MB; moves app_run_s on serve/conn-heavy"),
    lo("net.rtt_us", "us", "[M] one-byte ping-pong on that connection"),
    lo("net.connect_us", "us", "[M] connect + accept; moves restart_ms_p50 on conn-heavy"),
    lo("net.retransmits", "count", "[O] segments retransmitted per operation"),
    lo("net.rto_timeouts", "count", "[O] retransmission timeouts per operation"),
    lo("net.fast_retransmits", "count", "[O] fast retransmits per operation"),
    lo("net.zero_window_probes", "count", "[O] persist-timer probes per operation"),
    lo("store.put_ms", "ms", "[H] put_image of one pod image; moves commit_ms_p50"),
    hi("store.put_mb_per_s", "MB/s", "[H] logical bytes per second of put_image"),
    lo("store.bytes_written_per_put", "B", "[H] disk_usage growth per put_image"),
    hi("store.split_mb_per_s", "MB/s", "[M] chunk::split"),
    hi("store.compress_mb_per_s", "MB/s", "[M] compress::compress"),
    hi("store.decompress_mb_per_s", "MB/s", "[M] compress::decompress"),
    lo("store.manifest_ms", "ms", "[R] commit wall minus staging: manifest write, prune, GC"),
    lo("store.gc_ms", "ms", "[H] one mark-and-sweep pass (audit) over the retained manifests"),
    lo("store.fetch_ms", "ms", "[H] fetch_verified of one pod image; moves recover_restart_ms_p50"),
    hi("store.chunk_hit_ratio", "ratio", "[O] chunks_hit / (chunks_hit + chunks_new); moves store_amp"),
    lo("store.compress_ratio", "ratio", "[O] chunk_stored_bytes / put_bytes; moves store_amp"),
    lo("zapc.mgr_meta_ms", "ms", "[R] Manager phase: broadcast until every meta-data arrived"),
    lo("zapc.mgr_sync_ms", "ms", "[R] Manager phase: the single continue"),
    lo("zapc.mgr_commit_ms", "ms", "[R] Manager phase: until the last done"),
    lo("zapc.mgr_prepare_ms", "ms", "[R] restart: image fetch and squash"),
    lo("zapc.mgr_schedule_ms", "ms", "[R] restart: reconnection schedule"),
    lo("zapc.mgr_restore_ms", "ms", "[R] restart: Agents restore until the last done"),
    lo("zapc.agent_quiesce_ms", "ms", "[R] slowest Agent: suspend + block network"),
    lo("zapc.agent_net_ms", "ms", "[R] slowest Agent: network-state save"),
    lo("zapc.agent_standalone_ms", "ms", "[R] slowest Agent: standalone dump"),
    lo("zapc.agent_sync_ms", "ms", "[R] slowest Agent: wait for continue"),
    lo("zapc.agent_commit_ms", "ms", "[R] slowest Agent: image delivery"),
    lo("zapc.agent_resume_ms", "ms", "[R] slowest Agent: unblock + resume"),
    lo("zapc.blocked_ms", "ms", "[R] slowest Agent: time its network stayed blocked"),
    lo("zapc.coord_overhead_ms", "ms", "[R] snapshot wall minus the slowest Agent's total; moves ckpt_ms_p50 on conn-heavy"),
    lo("zapc.recover_ms", "ms", "[R] recover() alone"),
    lo("zapc.manifest_restart_ms", "ms", "[R] restart_from_manifest() alone"),
    lo("zapc.live_rounds", "count", "[R] pre-copy rounds per pod"),
    lo("zapc.live_precopy_mb", "MB", "[R] bytes streamed while running, all pods"),
    lo("zapc.live_cut_kb", "kB", "[R] final quiesced cut, all pods"),
    lo("zapc.live_precopy_ms", "ms", "[R] pre-copy phase wall"),
    lo("zapc.live_cutover_ms", "ms", "[R] cutover phase wall"),
    hi("zapc.live_converged_frac", "ratio", "[R] share of pods whose pre-copy converged"),
    lo("zapc.ckpt_ms_p90", "ms", "[R] snapshot wall, 90th percentile (reported, not gated)"),
    lo("zapc.stall_ms_p90", "ms", "[R] snapshot stall, 90th percentile (reported, not gated)"),
    lo("zapc.late_replies", "count", "[R] Agent replies drained after an abort"),
    lo("zapc.aborted_ops", "count", "[R] operations that returned Err"),
    hi("apps.ops_per_s", "1/s", "application operations per second in the reference generation"),
    lo("apps.kv_client_stall_ms_p50", "ms", "serve: client-visible maximum stall, median over clients"),
    lo("apps.kv_client_stall_ms_p90", "ms", "serve: same, 90th percentile"),
    hi("apps.kv_disturbed_ops_per_s", "1/s", "serve: KV operations per second in drained, disturbed generations"),
    lo("obs.overhead_pct", "%", "ckpt_ms_p50 of traced vs untraced generations of the same run"),
    lo("obs.ring_dropped", "count", "events the observer ring evicted"),
    lo("trace.tile_gap_pct", "%", "hand-driven checkpoint wall not covered by its child spans"),
    hi("trace.coverage_pct", "%", "share of ckpt_ms_p50 explained by the slowest Agent's tiles + coord overhead"),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn strings(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The text of `/BENCHMARK.json`.
pub fn render() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", strings(&COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", strings(&PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&format!("  \"workloads\": {},\n", rows(workloads)));
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    out.push_str(&format!("  \"end_to_end\": {},\n", rows(e2e)));
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&format!("  \"per_layer\": {}\n}}\n", rows(layers)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, render(), "run `benchmark spec > BENCHMARK.json`");
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        let mut seen = HashSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(n), "bad name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert_eq!(m.better, Better::Lower);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(render().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
