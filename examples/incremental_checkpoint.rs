//! Incremental checkpointing: chain delta images on top of a full base,
//! then restart transparently from the chain (squashed on the fly).
//!
//! The cluster is built with [`CheckpointOpts`] so every coordinated
//! checkpoint after the first emits only the memory regions written since
//! the previous one (per-region generation counters in the simulator).
//! The Manager squashes the parent chain at restart, so callers never see
//! delta images.
//!
//! ```sh
//! cargo run --release --example incremental_checkpoint
//! ```

use std::time::Duration;
use zapc::manager::{checkpoint_with, CheckpointOptions, CheckpointTarget, RestartTarget};
use zapc::{checkpoint, restart, CheckpointOpts, Cluster, Uri};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};

fn main() {
    // Cluster-wide default: incremental images. Individual operations can
    // still override (see below).
    let cluster = Cluster::builder()
        .nodes(2)
        .registry(full_registry())
        .checkpoint_opts(CheckpointOpts { incremental: true })
        .build();

    // Bratu (PETSc-style nonlinear solver): a couple of large grid arrays
    // per rank — the interesting case for delta images.
    let params = AppParams { kind: AppKind::Bratu, ranks: 2, scale: 0.2, work: 2.0 };
    let app = launch_app(&cluster, "bratu", &params);
    println!("launched {:?}\n", app.pods);
    std::thread::sleep(Duration::from_millis(30));

    // Periodic checkpoints: the first is a full base (there is no parent
    // yet); later ones chain on it and carry only dirty regions.
    let targets: Vec<CheckpointTarget> =
        app.pods.iter().map(|p| CheckpointTarget::snapshot(p)).collect();
    for round in 0..3 {
        let report = checkpoint(&cluster, &targets).expect("coordinated checkpoint");
        for p in &report.pods {
            println!(
                "round {round}: {:9} {:>9} B  ({})",
                p.pod,
                p.image_bytes,
                if p.incremental { "delta" } else { "full base" }
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // The chain is addressable: `ckpt/<pod>` always points at the newest
    // link, and each immutable link keeps its `#g<seq>` label.
    for label in ["ckpt/bratu-0", "ckpt/bratu-0#g0", "ckpt/bratu-0#g2"] {
        println!("store has {label}: {}", cluster.store.get(label).is_some());
    }

    // Per-operation opt-out: force one full self-contained image (e.g. for
    // off-cluster archival) without touching the cluster default.
    let full_opts = CheckpointOptions {
        ckpt: Some(CheckpointOpts { incremental: false }),
        ..Default::default()
    };
    let report = checkpoint_with(&cluster, &targets, &full_opts).expect("full checkpoint");
    println!();
    for p in &report.pods {
        println!("opt-out: {:9} {:>9} B  (incremental: {})", p.pod, p.image_bytes, p.incremental);
    }

    // Restart from the chain head: the Manager resolves the ParentRef
    // links through the store and squashes them into one flat image
    // before the usual restore path runs.
    for p in &app.pods {
        cluster.destroy_pod(p);
    }
    let rts: Vec<RestartTarget> = app
        .pods
        .iter()
        .enumerate()
        .map(|(i, p)| RestartTarget {
            pod: p.clone(),
            uri: Uri::mem(format!("ckpt/{p}")),
            node: i % cluster.node_count(),
        })
        .collect();
    restart(&cluster, &rts).expect("restart from squashed chain");
    println!("\nrestarted both pods from the chained images");

    let codes = app.wait(&cluster, Duration::from_secs(120)).expect("completion");
    println!("all ranks exited: {codes:?}");
    app.destroy(&cluster);
}
