//! Fault recovery: periodic coordinated checkpoints to the image store; a
//! "node failure" destroys the application mid-run; the last checkpoint
//! restarts it on the surviving nodes and the computation finishes with
//! exactly the result an undisturbed run produces.
//!
//! ```sh
//! cargo run --release --example fault_recovery
//! ```

use std::time::Duration;
use zapc::agent::Finalize;
use zapc::manager::{CheckpointTarget, RestartTarget};
use zapc::{checkpoint, restart, Cluster, Uri};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};

fn main() {
    let params = AppParams { kind: AppKind::Bratu, ranks: 3, scale: 0.3, work: 16.0 };

    // Reference: the undisturbed result.
    let reference = {
        let c = Cluster::builder().nodes(3).registry(full_registry()).build();
        let app = launch_app(&c, "ref", &params);
        let codes = app.wait(&c, Duration::from_secs(300)).expect("reference run");
        app.destroy(&c);
        codes[0]
    };
    println!("reference Bratu result code: {reference}");

    let cluster = Cluster::builder().nodes(3).registry(full_registry()).build();
    let app = launch_app(&cluster, "bratu", &params);

    // Take periodic snapshots while the application runs.
    let targets: Vec<CheckpointTarget> = app
        .pods
        .iter()
        .map(|p| CheckpointTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("recovery/{p}")),
            finalize: Finalize::Resume,
        })
        .collect();
    let mut snapshots = 0;
    for i in 0..3 {
        std::thread::sleep(Duration::from_millis(if i == 0 { 10 } else { 30 }));
        if snapshots > 0 && app.all_exited(&cluster) {
            break;
        }
        checkpoint(&cluster, &targets).expect("periodic checkpoint");
        snapshots += 1;
        println!("periodic checkpoint #{snapshots} taken");
    }

    // Disaster: the pods' nodes "fail". Every pod's memory is lost.
    for p in &app.pods {
        cluster.destroy_pod(p);
    }
    println!("simulated failure: all application state destroyed");

    // Recover from the last images on node 0 and 1 (node 2 \"died\").
    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .enumerate()
        .map(|(i, p)| RestartTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("recovery/{p}")),
            node: i % 2,
        })
        .collect();
    let report = restart(&cluster, &rts).expect("recovery restart");
    println!("recovered from checkpoint in {:.1} ms on the surviving nodes", report.wall_ms);

    let codes = app.wait(&cluster, Duration::from_secs(300)).expect("completion");
    println!("post-recovery result code: {} (reference {reference})", codes[0]);
    assert_eq!(codes[0], reference, "recovered run must match the reference bit-for-bit");
    println!("fault recovery verified ✓");
    app.destroy(&cluster);
}
