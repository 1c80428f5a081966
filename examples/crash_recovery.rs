//! Crash-consistent checkpoint commit and Manager recovery: stage a
//! coordinated checkpoint into the durable image store, power-fail the
//! node mid-protocol, and watch a fresh Manager recover — restoring the
//! application from the last *committed* manifest and garbage-collecting
//! everything the crash left half-written.
//!
//! The commit discipline on display: per-pod images are staged with
//! write-to-temp → fsync → atomic-rename, and the checkpoint only exists
//! once a single manifest file (naming every image with its digest) lands
//! at its final path. Crash before the rename → the whole checkpoint
//! rolls back; crash after → it is durable in full. There is no state in
//! between.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use std::time::Duration;
use zapc::{
    checkpoint_commit, recover, restart_from_manifest, Cluster, CommitOptions, FaultAction,
    FaultPlan,
};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};

fn main() {
    // The fault plan crashes the Manager *after* it has staged every
    // image for checkpoint #2 but *before* the manifest rename — the
    // worst possible moment: maximal durable litter, zero commitment.
    let plan = FaultPlan::script()
        .inject("manager.pre_manifest", Some("manager"), 1, FaultAction::Crash)
        .build();
    let cluster =
        Cluster::builder().nodes(2).registry(full_registry()).faults(plan).build();

    let params = AppParams { kind: AppKind::Cpi, ranks: 2, scale: 0.05, work: 2.0 };
    let app = launch_app(&cluster, "cpi", &params);
    println!("launched {:?}", app.pods);
    std::thread::sleep(Duration::from_millis(20));

    let pods: Vec<&str> = app.pods.iter().map(|s| s.as_str()).collect();

    // Checkpoint #1 commits cleanly: images staged, manifest renamed.
    let r1 = checkpoint_commit(&cluster, &pods, &CommitOptions::default())
        .expect("first commit");
    println!(
        "commit #{}: manifest {} ({} images in store)",
        r1.ckpt_id,
        r1.manifest_ref,
        cluster.istore.image_refs().len()
    );

    std::thread::sleep(Duration::from_millis(10));

    // Checkpoint #2 dies at the injected crash point.
    let err = checkpoint_commit(&cluster, &pods, &CommitOptions::default()).unwrap_err();
    println!("\ncommit #2 crashed: {err}");
    println!(
        "store after the crash: {} manifests, {} staged images (some uncommitted)",
        cluster.istore.manifest_ids().len(),
        cluster.istore.image_refs().len()
    );

    // Power loss: everything unsynced under the store subtree is gone;
    // everything fsynced + renamed survives.
    cluster.istore.crash();

    // A fresh Manager scans the store, validates every manifest (magic,
    // version, record check, per-image digest), rolls the in-flight checkpoint
    // back, and collects orphans.
    let rec = recover(&cluster);
    println!(
        "\nrecovery (epoch {}): committed {:?}, rolled back {:?}, {} orphans removed",
        rec.epoch, rec.committed, rec.rolled_back, rec.orphans_removed
    );
    let latest = rec.latest.expect("checkpoint #1 must have survived");

    // Restore the application from the last committed cut and let it run
    // to completion.
    for p in &app.pods {
        cluster.destroy_pod(p);
    }
    restart_from_manifest(&cluster, Some(latest), Duration::from_secs(30))
        .expect("restart from recovered manifest");
    println!("\nrestarted from checkpoint #{latest}");
    let codes = app.wait(&cluster, Duration::from_secs(60)).expect("application exit");
    println!("application finished with codes {codes:?}");
    app.destroy(&cluster);
}
