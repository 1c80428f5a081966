//! End-to-end incremental checkpoint chains through the Manager/Agent
//! protocol: chained images in the memory store, per-operation opt-out,
//! chain-squash at restart, and lineage reset after restart.

use std::time::Duration;
use zapc::agent::Finalize;
use zapc::manager::{checkpoint_with, CheckpointOptions, CheckpointTarget, RestartTarget};
use zapc::{checkpoint, restart, CheckpointOpts, Cluster, Uri};
use zapc_proto::{RecordReader, RecordWriter};
use zapc_sim::{ProcessCtx, Program, ProgramRegistry, StepOutcome};

/// Large cold region written once, small hot region written every
/// iteration — the write profile where incremental checkpoints win.
struct Skew {
    phase: u8,
    iter: u64,
    limit: u64,
    cold: u64,
    hot: u64,
}

impl Skew {
    fn fresh(limit: u64) -> Skew {
        Skew { phase: 0, iter: 0, limit, cold: 0, hot: 0 }
    }
}

impl Program for Skew {
    fn type_name(&self) -> &'static str {
        "test.skew"
    }

    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> StepOutcome {
        match self.phase {
            0 => {
                self.cold = ctx.mem.map_f64("cold", 64 * 1024);
                self.hot = ctx.mem.map_f64("hot", 64);
                let cold = ctx.mem.f64_mut(self.cold).unwrap();
                for (i, x) in cold.iter_mut().enumerate() {
                    *x = i as f64 * 0.5;
                }
                self.phase = 1;
                StepOutcome::Ready
            }
            1 => {
                if self.iter >= self.limit {
                    self.phase = 2;
                    return StepOutcome::Ready;
                }
                let hot = ctx.mem.f64_mut(self.hot).unwrap();
                hot[(self.iter % 64) as usize] += 1.0;
                ctx.consume_cpu(500);
                self.iter += 1;
                StepOutcome::Ready
            }
            _ => {
                let hot = ctx.mem.f64(self.hot).unwrap();
                let cold = ctx.mem.f64(self.cold).unwrap();
                let sum: f64 = hot.iter().sum::<f64>() + cold[123];
                StepOutcome::Exited((sum as i64 % 97) as i32)
            }
        }
    }

    fn save(&self, w: &mut RecordWriter) {
        w.put_u8(self.phase);
        w.put_u64(self.iter);
        w.put_u64(self.limit);
        w.put_u64(self.cold);
        w.put_u64(self.hot);
    }
}

fn load_skew(r: &mut RecordReader<'_>) -> zapc_proto::DecodeResult<Box<dyn Program>> {
    Ok(Box::new(Skew {
        phase: r.get_u8()?,
        iter: r.get_u64()?,
        limit: r.get_u64()?,
        cold: r.get_u64()?,
        hot: r.get_u64()?,
    }))
}

fn registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    reg.register("test.skew", load_skew);
    reg
}

fn incremental_cluster() -> Cluster {
    Cluster::builder()
        .nodes(2)
        .cpus(2)
        .registry(registry())
        .checkpoint_opts(CheckpointOpts { incremental: true })
        .build()
}

fn reference_code(limit: u64) -> i32 {
    let cluster = Cluster::builder().nodes(1).registry(registry()).build();
    let pod = cluster.create_pod("ref", 0);
    pod.spawn("w", Box::new(Skew::fresh(limit)));
    let code = pod.wait_all(Duration::from_secs(60)).unwrap()[0];
    cluster.destroy_pod("ref");
    code
}

#[test]
fn incremental_chain_restarts_bit_identically() {
    let expected = reference_code(200_000);
    let cluster = incremental_cluster();
    let pod = cluster.create_pod("job", 0);
    pod.spawn("w", Box::new(Skew::fresh(200_000)));
    std::thread::sleep(Duration::from_millis(20));

    // First checkpoint: no parent exists yet, so it is a full base.
    let targets = [CheckpointTarget::snapshot("job")];
    let r1 = checkpoint(&cluster, &targets).unwrap();
    assert!(!r1.pods[0].incremental, "first image in a chain is a full base");

    std::thread::sleep(Duration::from_millis(10));

    // Second and third checkpoints chain on the first.
    let r2 = checkpoint(&cluster, &targets).unwrap();
    assert!(r2.pods[0].incremental);
    assert!(
        r2.pods[0].image_bytes * 5 <= r1.pods[0].image_bytes,
        "delta image ({} B) must be ≥5× under the base ({} B)",
        r2.pods[0].image_bytes,
        r1.pods[0].image_bytes
    );
    std::thread::sleep(Duration::from_millis(10));
    let r3 = checkpoint(&cluster, &targets).unwrap();
    assert!(r3.pods[0].incremental);

    // The user label plus three immutable chain links live in the store.
    assert!(cluster.store.get("ckpt/job").is_some());
    for seq in 0..3 {
        assert!(
            cluster.store.get(&format!("ckpt/job#g{seq}")).is_some(),
            "chain link #g{seq} missing"
        );
    }

    // Restarting from the chained label squashes through the chain and
    // reproduces the run exactly.
    cluster.destroy_pod("job");
    restart(
        &cluster,
        &[RestartTarget { pod: "job".into(), uri: Uri::mem("ckpt/job"), node: 1 }],
    )
    .unwrap();
    let pod = cluster.pod("job").unwrap();
    assert_eq!(pod.wait_all(Duration::from_secs(60)).unwrap()[0], expected);
    cluster.destroy_pod("job");
}

#[test]
fn per_operation_opt_out_forces_full_image() {
    let cluster = incremental_cluster();
    let pod = cluster.create_pod("job", 0);
    pod.spawn("w", Box::new(Skew::fresh(200_000)));
    std::thread::sleep(Duration::from_millis(15));

    let targets = [CheckpointTarget::snapshot("job")];
    checkpoint(&cluster, &targets).unwrap();
    std::thread::sleep(Duration::from_millis(5));

    // Override per operation: full image even though a parent exists.
    let opts = CheckpointOptions {
        ckpt: Some(CheckpointOpts { incremental: false }),
        ..Default::default()
    };
    let r = checkpoint_with(&cluster, &targets, &opts).unwrap();
    assert!(!r.pods[0].incremental);
    cluster.destroy_pod("job");
}

#[test]
fn destroy_finalize_breaks_the_chain() {
    // A checkpoint that destroys the pod (migration source) must not
    // record lineage for a pod that no longer exists — and a later pod of
    // the same name starts a fresh chain.
    let cluster = incremental_cluster();
    let pod = cluster.create_pod("mig", 0);
    pod.spawn("w", Box::new(Skew::fresh(200_000)));
    std::thread::sleep(Duration::from_millis(15));

    let snap = [CheckpointTarget::snapshot("mig")];
    checkpoint(&cluster, &snap).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let destroy = [CheckpointTarget {
        pod: "mig".into(),
        uri: Uri::mem("ckpt/mig"),
        finalize: Finalize::Destroy,
    }];
    let r = checkpoint(&cluster, &destroy).unwrap();
    // The destroying checkpoint may itself be incremental…
    assert!(r.pods[0].incremental);
    assert!(cluster.pod("mig").is_none());

    // …and restarting from it squashes the chain transparently.
    let expected = reference_code(200_000);
    restart(
        &cluster,
        &[RestartTarget { pod: "mig".into(), uri: Uri::mem("ckpt/mig"), node: 1 }],
    )
    .unwrap();
    let pod = cluster.pod("mig").unwrap();
    assert_eq!(pod.wait_all(Duration::from_secs(60)).unwrap()[0], expected);

    // The restarted pod has no lineage: its next checkpoint is full.
    let pod2 = cluster.pod("mig").unwrap();
    pod2.suspend().ok();
    pod2.resume().ok();
    let r2 = checkpoint(&cluster, &snap).unwrap();
    assert!(!r2.pods[0].incremental, "lineage must reset across restart");
    cluster.destroy_pod("mig");
}
