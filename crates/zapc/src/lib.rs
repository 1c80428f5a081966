//! # zapc — transparent coordinated checkpoint-restart of distributed
//! applications on commodity clusters
//!
//! The top-level crate of the ZapC reproduction (Laadan, Phung, Nieh —
//! IEEE CLUSTER 2005). It composes the substrates into the system the
//! paper describes:
//!
//! * [`cluster`] — builds a simulated commodity cluster: a routed wire,
//!   N nodes (each with its own kernel instance, network stack and
//!   scheduler CPUs), shared storage, one Agent per node, and pods placed
//!   on nodes with their virtual IPs routed.
//! * [`agent`] — the per-node Agent: executes the local checkpoint
//!   procedure (suspend pod → block network → network-state checkpoint →
//!   report meta-data → standalone checkpoint → wait for *continue* →
//!   unblock → finalize) and the local restart procedure (create pod →
//!   restore connectivity → restore network state → standalone restart →
//!   resume), exactly as in Figures 1 and 3.
//! * [`manager`] — the Manager front-end the user invokes with a list of
//!   `«node, pod, URI»` tuples: broadcasts commands, performs the **single
//!   synchronization** the coordinated checkpoint needs (§4), merges the
//!   meta-data, computes the reconnection schedule for restarts, detects
//!   Agent failures and aborts gracefully.
//! * [`uri`] — checkpoint destinations: an in-memory store or the durable
//!   image store (a [`commit`] staging target). Direct migration to a
//!   *receiving Agent*, without intermediate storage, is [`live`]'s
//!   Agent-to-Agent stream.
//! * [`live`] — the one engine behind migration and restart: `migrate` is
//!   its stop-and-copy case (no pre-copy rounds), `migrate_live` adds
//!   iterative pre-copy, and `restart` runs its receive half on stored
//!   images — every cut verified and decoded before any pod is created.
//! * `coord` (crate-private) — the one wait/abort/drain loop every
//!   coordinated operation shares between its phases.
//!
//! The crate-level API is intentionally the paper's: `checkpoint`,
//! `restart`, and `migrate` over a set of pods, with per-pod reports of
//! checkpoint/restart latency, network-state latency, and image sizes —
//! the quantities of Figures 6a–6c.
//!
//! ```
//! use zapc::manager::{CheckpointTarget, RestartTarget};
//! use zapc::{checkpoint, restart, Cluster, Uri};
//!
//! // Two blades sharing storage and a wire.
//! let cluster = Cluster::builder().nodes(2).build();
//! let pod = cluster.create_pod("job", 0);
//! // (applications are spawned into pods with `pod.spawn(...)`)
//!
//! // «node, pod, URI»: snapshot the pod into the in-memory store.
//! let report = checkpoint(&cluster, &[CheckpointTarget::snapshot("job")]).unwrap();
//! assert_eq!(report.pods.len(), 1);
//! assert!(report.pods[0].image_bytes > 0);
//!
//! // Tear it down and restart it on the other blade from the image.
//! cluster.destroy_pod("job");
//! restart(
//!     &cluster,
//!     &[RestartTarget { pod: "job".into(), uri: Uri::mem("ckpt/job"), node: 1 }],
//! )
//! .unwrap();
//! assert_eq!(cluster.pod_node("job"), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod cluster;
pub mod commit;
mod coord;
pub mod health;
pub mod live;
pub mod manager;
pub mod rejoin;
pub mod retry;
pub mod uri;

pub use cluster::{Cluster, ClusterBuilder};
pub use commit::{
    checkpoint_commit, recover, restart_from_manifest, CommitOptions, CommitReport,
    RecoveryReport,
};
pub use health::{HealthMonitor, NodeStatus};
pub use live::{migrate_live, migrate_live_with, LiveMigrateReport, LivePodReport, MigrateOptions};
pub use rejoin::{rejoin_node, RejoinReport};
pub use retry::RetryPolicy;
pub use zapc_faults::{FaultAction, FaultPlan, Partition, TraceEvent, MANAGER};
pub use zapc_store::{ChunkParams, ChunkingConfig, ImageStore, StoreError};
pub use manager::{
    checkpoint, migrate, restart, CheckpointReport, CheckpointTarget, Phase, PhaseBreakdown,
    PodReport, RestartReport, RestartTarget,
};
pub use uri::Uri;

/// Errors of the coordinated checkpoint-restart protocol.
#[derive(Debug)]
pub enum ZapcError {
    /// An Agent (or its control connection) failed; the operation was
    /// aborted and the application resumed (§4).
    Aborted(String),
    /// The requested pod or node does not exist.
    NotFound(String),
    /// A sub-mechanism failed.
    Ckpt(zapc_ckpt::CkptError),
    /// The network mechanism failed.
    NetCkpt(zapc_netckpt::NetCkptError),
    /// The image is malformed.
    Decode(zapc_proto::DecodeError),
    /// Simulated-kernel failure.
    Sys(zapc_sim::Errno),
    /// The durable image store refused an operation (missing or torn
    /// file, digest mismatch, injected writer crash).
    Store(zapc_store::StoreError),
    /// This Manager incarnation is stale: a newer Manager has recovered
    /// (bumping the epoch/fencing token), so the operation was refused to
    /// preserve at-most-one-commit across a split brain.
    Fenced {
        /// Epoch this Manager was operating under.
        have: u64,
        /// The fencing token it lost to.
        fence: u64,
    },
    /// A retried operation failed on every attempt. Carries the error of
    /// the final attempt.
    Exhausted {
        /// Total attempts made (initial try + retries).
        attempts: u32,
        /// The last attempt's error.
        last: Box<ZapcError>,
    },
}

impl std::fmt::Display for ZapcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZapcError::Aborted(why) => write!(f, "operation aborted: {why}"),
            ZapcError::NotFound(what) => write!(f, "not found: {what}"),
            ZapcError::Ckpt(e) => write!(f, "standalone checkpoint: {e}"),
            ZapcError::NetCkpt(e) => write!(f, "network checkpoint-restart: {e}"),
            ZapcError::Decode(e) => write!(f, "image decode: {e}"),
            ZapcError::Sys(e) => write!(f, "kernel: {e}"),
            ZapcError::Store(e) => write!(f, "durable store: {e}"),
            ZapcError::Fenced { have, fence } => {
                write!(f, "fenced: manager epoch {have} lost to fencing token {fence}")
            }
            ZapcError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ZapcError {}

impl From<zapc_ckpt::CkptError> for ZapcError {
    fn from(e: zapc_ckpt::CkptError) -> Self {
        ZapcError::Ckpt(e)
    }
}
impl From<zapc_netckpt::NetCkptError> for ZapcError {
    fn from(e: zapc_netckpt::NetCkptError) -> Self {
        ZapcError::NetCkpt(e)
    }
}
impl From<zapc_proto::DecodeError> for ZapcError {
    fn from(e: zapc_proto::DecodeError) -> Self {
        ZapcError::Decode(e)
    }
}
impl From<zapc_sim::Errno> for ZapcError {
    fn from(e: zapc_sim::Errno) -> Self {
        ZapcError::Sys(e)
    }
}
impl From<zapc_store::StoreError> for ZapcError {
    fn from(e: zapc_store::StoreError) -> Self {
        ZapcError::Store(e)
    }
}

/// Result alias.
pub type ZapcResult<T> = Result<T, ZapcError>;
