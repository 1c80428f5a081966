//! Deterministic fault injection: a scripted plan crashes an Agent
//! mid-checkpoint (recovered by bounded retry), an always-on drop of the
//! Manager's `continue` forces a typed abort with survivors intact, and a
//! seeded plan shows the same seed producing the same injection trace.
//!
//! ```sh
//! cargo run --release --example chaos_injection [seed]
//! ```

use std::time::Duration;
use zapc::agent::Finalize;
use zapc::manager::{checkpoint_with, CheckpointOptions, CheckpointTarget};
use zapc::{migrate_live_with, Cluster, FaultAction, FaultPlan, MigrateOptions, Uri, ZapcError};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};

const WAIT: Duration = Duration::from_secs(120);

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        None => 42,
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("usage: chaos_injection [seed: u64]");
                std::process::exit(2);
            }
        },
    };
    let params = AppParams { kind: AppKind::Cpi, ranks: 2, scale: 0.02, work: 1.0 };

    // Undisturbed reference result.
    let reference = {
        let c = Cluster::builder().nodes(2).registry(full_registry()).build();
        let app = launch_app(&c, "ref", &params);
        let codes = app.wait(&c, WAIT).expect("reference run");
        app.destroy(&c);
        codes
    };
    println!("reference exit codes: {reference:?}");

    // 1. Transient Agent crash, recovered by retry.
    let plan = FaultPlan::script()
        .inject("agent.pre_meta", Some("demo-0"), 0, FaultAction::Crash)
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "demo", &params);
    std::thread::sleep(Duration::from_millis(5));
    let targets: Vec<CheckpointTarget> = app
        .pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("img/{p}")),
            finalize: Finalize::Resume,
        })
        .collect();
    let opts = CheckpointOptions { retries: 2, ..Default::default() };
    checkpoint_with(&c, &targets, &opts).expect("retry should absorb the transient crash");
    println!(
        "transient agent crash absorbed by retry (faults fired: {}, trace: {:?})",
        c.faults.fired(),
        c.faults.trace()
    );
    let codes = app.wait(&c, WAIT).expect("app finishes");
    assert_eq!(codes, reference, "post-recovery output must match the reference");
    println!("post-recovery exit codes match the reference: {codes:?}");
    app.destroy(&c);

    // 2. Dropped `continue`: typed abort, survivors keep their state.
    let plan = FaultPlan::script()
        .always("ctl.continue", Some("drop-0"), FaultAction::Drop)
        .build();
    let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "drop", &params);
    std::thread::sleep(Duration::from_millis(5));
    let targets: Vec<CheckpointTarget> = app
        .pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("img/{p}")),
            finalize: Finalize::Resume,
        })
        .collect();
    let opts =
        CheckpointOptions { timeout: Duration::from_millis(500), ..Default::default() };
    match checkpoint_with(&c, &targets, &opts) {
        Err(ZapcError::Aborted(msg)) => println!("typed abort as expected: {msg}"),
        other => panic!("expected a typed abort, got {other:?}"),
    }
    let codes = app.wait(&c, WAIT).expect("survivors resume after abort");
    assert_eq!(codes, reference, "aborted checkpoint must not perturb the app");
    println!("survivors completed with reference output after the abort");
    app.destroy(&c);

    // 3. Stop-and-copy migration with a pre-commit crash: rollback, then
    // retry moves pods.
    let plan = FaultPlan::script()
        .inject("agent.cutover", Some("mig-0"), 0, FaultAction::Crash)
        .build();
    let c = Cluster::builder().nodes(3).registry(full_registry()).faults(plan).build();
    let app = launch_app(&c, "mig", &params);
    std::thread::sleep(Duration::from_millis(5));
    let moves: Vec<(String, usize)> = app.pods.iter().map(|p| (p.clone(), 2)).collect();
    let opts = MigrateOptions { max_rounds: 0, retries: 2, ..Default::default() };
    migrate_live_with(&c, &moves, &opts).expect("retry should land the migration");
    for p in &app.pods {
        assert_eq!(c.pod_node(p), Some(2), "{p} should live on node 2");
    }
    println!("pre-commit crash rolled back; retry migrated both pods to node 2");
    let codes = app.wait(&c, WAIT).expect("migrated app finishes");
    assert_eq!(codes, reference, "migration must preserve the computation");
    app.destroy(&c);

    // 4. Seeded plans: the same seed yields the same injection trace.
    let trace_of = |seed: u64| {
        let plan = FaultPlan::from_seed(seed).scoped(&["agent.", "ctl.", "manager."]);
        let c = Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();
        let app = launch_app(&c, "soak", &params);
        std::thread::sleep(Duration::from_millis(5));
        let targets: Vec<CheckpointTarget> = app
            .pods
            .iter()
            .map(|p| CheckpointTarget {
                pod: p.clone(),
                uri: Uri::mem(format!("img/{p}")),
                finalize: Finalize::Resume,
            })
            .collect();
        let opts = CheckpointOptions {
            timeout: Duration::from_secs(2),
            retries: 3,
            ..Default::default()
        };
        match checkpoint_with(&c, &targets, &opts) {
            Ok(_) => {}
            Err(ZapcError::Aborted(msg)) => println!("  seed {seed}: typed abort ({msg})"),
            Err(e) => panic!("seed {seed}: unexpected error {e:?}"),
        }
        let codes = app.wait(&c, WAIT).expect("seeded run finishes");
        assert_eq!(codes, reference);
        let t = c.faults.trace();
        app.destroy(&c);
        t
    };
    let t1 = trace_of(seed);
    let t2 = trace_of(seed);
    assert_eq!(t1, t2, "same seed + workload must give the same injection trace");
    println!("seed {seed}: identical injection trace across two runs: {t1:?}");
    println!("chaos_injection: all scenarios behaved as specified");
}
