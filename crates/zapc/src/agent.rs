//! The per-node Agent: local checkpoint and restart procedures
//! (Figures 1 and 3).
//!
//! Agents "receive commands and carry them out on their local nodes" (§4).
//! In this reproduction an Agent invocation runs on its own thread per
//! operation; its reliable connection to the Manager is a pair of channels
//! whose disconnection models a broken TCP connection — detected by both
//! sides, triggering a graceful abort in which the application resumes
//! execution.

use crate::cluster::Cluster;
use crate::coord::{Ctl, Reply};
use crate::uri::Uri;
use crate::{ZapcError, ZapcResult};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zapc_faults::{FaultAction, MANAGER};
use zapc_ckpt::{checkpoint_standalone_with, restore_standalone, RestoredSockets, SaveOpts};
use zapc_netckpt::{checkpoint_network_obs, restore_network, NetworkRestorePlan};
use zapc_pod::Pod;
use zapc_proto::image::Header;
use zapc_proto::{Decode, Encode, ImageReader, ImageWriter, MetaData, SectionTag};

/// What happens to the pod after its checkpoint completes (§4 step 4):
/// resume locally (snapshot) or destroy (the pod migrates away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Finalize {
    /// Snapshot: `SIGCONT` everything and keep running.
    Resume,
    /// Migration source: destroy the pod locally.
    Destroy,
}

/// Image header flag: the image carries a file-system snapshot.
pub const FLAG_FS_SNAPSHOT: u32 = 1;

/// Coordination policy (the `ablation_sync` benchmark compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// The paper's design: each Agent proceeds with its standalone
    /// checkpoint immediately after reporting meta-data and only *waits*
    /// for the Manager's `continue` before unblocking its network — one
    /// synchronization, overlapped with useful work.
    SingleSync,
    /// Strawman: Agents hold their network blocked and *idle* until every
    /// other Agent has finished its standalone checkpoint (a global
    /// barrier before the network unblocks and the pod resumes).
    GlobalBarrier,
}

/// Control messages from the Manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtlMsg {
    /// Proceed (the Manager has everyone's meta-data / everyone is done).
    /// Carries the Manager epoch the operation runs under: an Agent that
    /// has witnessed a newer epoch treats the message as stale and rolls
    /// back instead of continuing on a dead incarnation's behalf.
    Continue(u64),
    /// Abort the operation; resume the application.
    Abort,
}

impl Ctl for CtlMsg {
    fn abort() -> Self {
        CtlMsg::Abort
    }
}

/// Per-pod statistics reported with `done`.
#[derive(Debug, Clone, Default)]
pub struct PodStats {
    /// Pod name.
    pub pod: String,
    /// Total local operation time (µs).
    pub total_us: u64,
    /// Network-state phase time (µs).
    pub net_us: u64,
    /// Standalone phase time (µs).
    pub standalone_us: u64,
    /// Time the pod's network stayed blocked (µs; checkpoint only).
    pub blocked_us: u64,
    /// Suspend + network-block phase (checkpoint) or pod-creation phase
    /// (restart), in µs.
    pub quiesce_us: u64,
    /// Time spent waiting on the Manager's `continue` (µs).
    pub sync_us: u64,
    /// Image-delivery (commit) phase time (µs).
    pub commit_us: u64,
    /// Resume (or destroy) phase time (µs).
    pub resume_us: u64,
    /// Encoded image size in bytes.
    pub image_bytes: usize,
    /// Bytes of the image attributable to network state.
    pub network_bytes: usize,
    /// Store-relative reference of the staged image (durable-store
    /// destinations only; empty otherwise).
    pub image_ref: String,
    /// FNV-1a 64 digest of the image bytes (durable-store destinations
    /// only; `0` otherwise).
    pub digest: u64,
}

/// Messages from an Agent to the Manager.
#[derive(Debug)]
pub(crate) enum AgentReply {
    /// Checkpoint step 2a: network state saved; here is the meta-data.
    Meta {
        /// The reporting pod's connection table.
        meta: MetaData,
    },
    /// Operation finished (or failed) on this Agent.
    Done {
        /// Reporting pod.
        pod: String,
        /// Statistics, or the failure message.
        result: Result<PodStats, String>,
        /// The encoded image (streaming-migration rendezvous; `None` when
        /// the image went to a file or the memory store).
        image: Option<Arc<Vec<u8>>>,
        /// Manager epoch the op ran under. A reply whose epoch trails the
        /// cluster's current epoch is a stale Agent speaking across a
        /// healed partition — the Manager counts it and ignores it.
        epoch: u64,
    },
}

impl Reply for AgentReply {
    fn done(&self) -> Option<(&str, u64)> {
        match self {
            AgentReply::Done { pod, epoch, .. } => Some((pod, *epoch)),
            AgentReply::Meta { .. } => None,
        }
    }
}

/// Sends one Agent→Manager control-path message unless a partition eats
/// it. The scripted/seeded `ctl.partition` site fires first (keyed by
/// pod; `Drop` eats the message, `Delay` postpones it), then the
/// time-driven partition schedule is consulted for `node → MANAGER`. An
/// eaten message returns `Ok` — to a real Agent a partitioned send looks
/// exactly like a delivered one — so only a disconnected channel errors.
pub(crate) fn ctl_reply(
    cluster: &Cluster,
    node: u32,
    pod_key: &str,
    reply: &Sender<AgentReply>,
    msg: AgentReply,
) -> Result<(), ()> {
    if matches!(cluster.faults.hit_and_sleep("ctl.partition", pod_key), Some(FaultAction::Drop)) {
        return Ok(());
    }
    if cluster.partition.is_cut(node, MANAGER) {
        return Ok(());
    }
    // A reply that got through is also the node's lease heartbeat.
    cluster.health.beat(node);
    reply.send(msg).map_err(|_| ())
}

/// Everything one Agent needs to checkpoint one pod: the `«pod, URI»`
/// tuple, the operation's knobs, and its connection to the Manager.
pub(crate) struct CheckpointJob<'a> {
    /// Pod to checkpoint.
    pub pod: &'a str,
    /// Destination for the image.
    pub dest: &'a Uri,
    /// Resume or destroy afterwards.
    pub finalize: Finalize,
    /// Coordination policy.
    pub policy: SyncPolicy,
    /// Capture the pod's chroot subtree on shared storage into the image
    /// (§3/§4: "ZapC can be used with already available file system
    /// snapshot functionality to also provide a checkpointed file system
    /// image").
    pub fs_snapshot: bool,
    /// Manager epoch the operation is stamped with.
    pub epoch: u64,
    /// Bound on the wait for the Manager's `continue`.
    pub ctl_timeout: Duration,
    /// Agent→Manager replies.
    pub reply: Sender<AgentReply>,
    /// Manager→Agent control messages.
    pub ctl: Receiver<CtlMsg>,
}

/// Step 1 of Figure 1: suspend the pod, then block its network.
pub(crate) fn quiesce(cluster: &Cluster, pod: &Pod) -> Result<(), String> {
    pod.suspend().map_err(|e| format!("suspend failed: {e}"))?;
    cluster.filter().block_ip(pod.vip());
    Ok(())
}

/// The rollback half of every abort (§4): lift the block and let the
/// application resume execution.
pub(crate) fn unquiesce(cluster: &Cluster, pod: &Pod) {
    cluster.filter().unblock_ip(pod.vip());
    let _ = pod.resume();
}

/// Runs the local checkpoint procedure of Figure 1 for one pod.
///
/// Steps: suspend + block network → network checkpoint → report meta-data →
/// standalone checkpoint → wait `continue` → unblock network → finalize →
/// report done. A broken Manager connection (channel disconnect) or an
/// `Abort` rolls everything back and resumes the pod.
pub(crate) fn agent_checkpoint(cluster: &Cluster, job: CheckpointJob<'_>) {
    let CheckpointJob {
        pod: pod_name, dest, finalize, policy, fs_snapshot, epoch, ctl_timeout, reply, ctl,
    } = job;
    let reply = &reply;
    let Some(pod) = cluster.pod(pod_name) else {
        // No pod, no hosting node: this failure reply bypasses the
        // partition model (nothing node-local ever ran).
        let _ = reply.send(AgentReply::Done {
            pod: pod_name.to_owned(),
            result: Err(format!("unknown pod {pod_name:?}")),
            image: None,
            epoch,
        });
        return;
    };
    let node_id = pod.node().id.0;
    let send_done = |result: Result<PodStats, String>, image: Option<Arc<Vec<u8>>>| {
        let _ = ctl_reply(
            cluster,
            node_id,
            pod_name,
            reply,
            AgentReply::Done { pod: pod_name.to_owned(), result, image, epoch },
        );
    };
    // Epoch fence at entry: an op stamped by a Manager incarnation older
    // than the one this cluster has already recovered to must not touch
    // the pod at all.
    if epoch < cluster.epoch() {
        send_done(
            Err(format!("fenced: op epoch {epoch} is stale (cluster at {})", cluster.epoch())),
            None,
        );
        return;
    }

    let obs = &cluster.obs;
    let t0 = Instant::now();
    // Step 1: suspend the pod; block its network.
    let quiesce_span = obs.span(pod_name, "ckpt.quiesce");
    if let Err(why) = quiesce(cluster, &pod) {
        send_done(Err(why), None);
        return;
    }
    quiesce_span.end();
    let quiesce_us = t0.elapsed().as_micros() as u64;
    let blocked_at = Instant::now();

    let rollback = |why: &str| {
        unquiesce(cluster, &pod);
        send_done(Err(why.to_owned()), None);
    };
    // Steps 3a/4a: the Agent only finishes after it received `continue`.
    // Bounded wait: a lost `continue` must not wedge the Agent forever.
    // Returns the time spent waiting (µs), or the reason to roll back.
    let await_continue = |at: &str| -> Result<u64, String> {
        let tsync = Instant::now();
        let sync_span = obs.span(pod_name, "ckpt.sync");
        let waited = ctl.recv_timeout(ctl_timeout);
        sync_span.end();
        let sync_us = tsync.elapsed().as_micros() as u64;
        match waited {
            Ok(CtlMsg::Continue(e)) if e >= cluster.epoch() => Ok(sync_us),
            // The `continue` came from a Manager that has since been
            // superseded (a recovery bumped the epoch while this op was in
            // flight): finishing the op would let a dead incarnation
            // mutate post-recovery state.
            Ok(CtlMsg::Continue(e)) => {
                Err(format!("fenced: stale continue epoch {e} (cluster at {})", cluster.epoch()))
            }
            Ok(CtlMsg::Abort) => Err(format!("aborted {at}")),
            Err(RecvTimeoutError::Timeout) => Err(format!("timed out {at}")),
            Err(RecvTimeoutError::Disconnected) => Err(format!("manager connection broken {at}")),
        }
    };

    // Fault sites: a crash here models the Agent process dying before it
    // reports meta-data — the node's supervision rolls the pod back and
    // the Manager sees the broken connection as a failed `done`.
    cluster.faults.hit_and_sleep("agent.slow", pod_name);
    if cluster.faults.hit("agent.pre_meta", pod_name).is_some() {
        rollback("fault: agent crashed before meta-data");
        return;
    }

    // Step 2: network-state checkpoint; 2a: report meta-data.
    let tnet = Instant::now();
    let net_span = obs.span(pod_name, "ckpt.net_save");
    let (meta, records) = checkpoint_network_obs(&pod, obs);
    net_span.end();
    let net_us = tnet.elapsed().as_micros() as u64;
    if ctl_reply(
        cluster,
        node_id,
        pod_name,
        reply,
        AgentReply::Meta { meta: meta.clone() },
    )
    .is_err()
    {
        // Manager gone: graceful abort (§4). (A *partitioned* meta send
        // is not an error here — the loss is invisible to the Agent, so
        // it proceeds and its bounded `continue` wait does the rollback.)
        rollback("manager connection broken before meta-data");
        return;
    }
    if cluster.faults.hit("agent.post_meta", pod_name).is_some() {
        rollback("fault: agent crashed after meta-data");
        return;
    }

    // Strawman policy: hold everything until the Manager's barrier.
    let mut sync_us = 0u64;
    if policy == SyncPolicy::GlobalBarrier {
        match await_continue("at barrier") {
            Ok(us) => sync_us = us,
            Err(why) => return rollback(&why),
        }
    }

    // Step 3: standalone checkpoint (concurrent with the Manager sync in
    // the paper's policy).
    let tsa = Instant::now();
    let dump_span = obs.span(pod_name, "ckpt.dump");
    let header = Header {
        pod: pod_name.to_owned(),
        host: format!("node-{}", pod.node().id),
        wall_ms: cluster.clock.now_ms(),
        flags: if fs_snapshot { FLAG_FS_SNAPSHOT } else { 0 },
    };
    let mut w = ImageWriter::with_capacity(&header, pod.total_mem_bytes() + 4096);
    w.section(SectionTag::NetMeta, |r| meta.encode(r));
    if fs_snapshot {
        // Snapshot the pod's chroot subtree on shared storage.
        let snap = cluster.fs.snapshot(&pod.env.fs_root);
        w.section(SectionTag::FsSnapshot, |r| snap.encode(r));
    }
    let net_payload = zapc_netckpt::records::encode_records(&records);
    w.section_bytes(SectionTag::NetState, net_payload.bytes());
    let network_bytes = net_payload.len() + meta.encoded_len();
    let save_opts = SaveOpts { base_gens: None, obs: obs.clone() };
    if let Err(e) = checkpoint_standalone_with(&pod, &mut w, &save_opts) {
        rollback(&format!("standalone checkpoint failed: {e}"));
        return;
    }
    let mut image = w.finish();
    // Fault site: image bytes damaged on their way out (bad disk, torn
    // write). Sections are CRC-framed, so the damage surfaces as a typed
    // decode error at restart, never a silent mis-restore.
    if let Some(a) = cluster.faults.hit("agent.image", pod_name) {
        zapc_faults::FaultPlan::mangle(a, &mut image);
    }
    dump_span.end();
    let standalone_us = tsa.elapsed().as_micros() as u64;

    if cluster.faults.hit("agent.pre_continue", pod_name).is_some() {
        rollback("fault: agent crashed awaiting continue");
        return;
    }
    if policy == SyncPolicy::SingleSync {
        match await_continue("awaiting continue") {
            Ok(us) => sync_us = us,
            Err(why) => return rollback(&why),
        }
    }
    // Step 4 + 3a: finalize, then unblock. A snapshot resumes and
    // unblocks; a migration source is destroyed *while still blocked* so
    // its teardown segments (RST/FIN) can never chase the pod to its new
    // home — the restart Agent lifts the block once the pod is re-routed.
    let blocked_us;
    let tresume = Instant::now();
    let resume_span = obs.span(pod_name, "ckpt.resume");
    match finalize {
        Finalize::Resume => {
            cluster.filter().unblock_ip(pod.vip());
            blocked_us = blocked_at.elapsed().as_micros() as u64;
            let _ = pod.resume();
        }
        Finalize::Destroy => {
            pod.destroy();
            cluster.forget_pod(pod_name);
            blocked_us = blocked_at.elapsed().as_micros() as u64;
        }
    }
    resume_span.end();
    let resume_us = tresume.elapsed().as_micros() as u64;

    // Deliver the image to its destination.
    let tcommit = Instant::now();
    let commit_span = obs.span(pod_name, "ckpt.commit");
    let image_bytes = image.len();
    let image = Arc::new(image);
    let mut image_ref = String::new();
    let mut digest = 0u64;
    let streamed = match dest {
        Uri::Mem(label) => {
            cluster.store.put(label, Arc::clone(&image));
            None
        }
        Uri::Agent { .. } => Some(Arc::clone(&image)),
        Uri::Store { ckpt: ckpt_id } => {
            // Durable staging. These fault sites are consulted ONLY on the
            // store path so every pre-existing seeded trace is unchanged.
            //
            // `agent.node_dead`: the whole node dies — the pod dies with
            // it and *no reply is ever sent*; only the Manager's lease
            // table can notice.
            if cluster.faults.hit("agent.node_dead", pod_name).is_some() {
                cluster.health.kill(node_id);
                cluster.destroy_pod(pod_name);
                return;
            }
            // `agent.stage`: the Agent process dies mid-staging; the pod
            // survives (it already resumed) and the Manager sees a failed
            // `done` — the checkpoint aborts before any manifest exists.
            if cluster.faults.hit("agent.stage", pod_name).is_some() {
                send_done(Err("fault: agent crashed while staging image".to_owned()), None);
                return;
            }
            // Epoch fence before staging: a newer Manager may have
            // recovered (and GC'd this checkpoint's directory) while this
            // op sat partitioned — its stale Agent must not re-litter the
            // store.
            if epoch < cluster.epoch() {
                send_done(
                    Err(format!(
                        "fenced: staging refused, op epoch {epoch} is stale (cluster at {})",
                        cluster.epoch()
                    )),
                    None,
                );
                return;
            }
            match cluster.istore.put_image(*ckpt_id, pod_name, &image) {
                Ok((r, d)) => {
                    cluster.witness_epoch(node_id, epoch);
                    image_ref = r;
                    digest = d;
                    None
                }
                Err(e) => {
                    send_done(Err(format!("image staging failed: {e}")), None);
                    return;
                }
            }
        }
    };
    commit_span.end();
    let commit_us = tcommit.elapsed().as_micros() as u64;

    send_done(
        Ok(PodStats {
            pod: pod_name.to_owned(),
            total_us: t0.elapsed().as_micros() as u64,
            net_us,
            standalone_us,
            blocked_us,
            quiesce_us,
            sync_us,
            commit_us,
            resume_us,
            image_bytes,
            network_bytes,
            image_ref,
            digest,
        }),
        streamed,
    );
}

/// Decoded image parts an Agent restart needs.
pub(crate) struct RestartInputs {
    /// The raw image.
    pub image: Arc<Vec<u8>>,
    /// This pod's meta-data with Manager-assigned roles.
    pub my_meta: MetaData,
    /// The merged cluster meta-data.
    pub all_meta: Arc<Vec<MetaData>>,
    /// Destination node.
    pub node: usize,
    /// Manager-transformed socket records (the §5 send-queue merge);
    /// `None` decodes them from the image.
    pub records: Option<Vec<zapc_netckpt::SockRecord>>,
}

/// Runs the local restart procedure of Figure 3 for one pod: create the
/// pod → restore connectivity and network state → standalone restart →
/// resume → report done. The Agent looks at its control connection between
/// steps: an `Abort` (or a broken Manager connection) rolls back, and so
/// does any failure of its own — the pod it created is destroyed, so an
/// aborted restart leaves nothing half-restored behind on this node.
pub(crate) fn agent_restart(
    cluster: &Cluster,
    inputs: RestartInputs,
    timeout: Duration,
    reply: &Sender<AgentReply>,
    ctl: &Receiver<CtlMsg>,
) {
    let pod_name = &inputs.my_meta.pod;
    let result = agent_restart_inner(cluster, &inputs, timeout, ctl);
    let _ = ctl_reply(
        cluster,
        inputs.node as u32,
        pod_name,
        reply,
        AgentReply::Done {
            pod: pod_name.clone(),
            result: result.map_err(|e| e.to_string()),
            image: None,
            epoch: cluster.epoch(),
        },
    );
}

fn agent_restart_inner(
    cluster: &Cluster,
    inputs: &RestartInputs,
    timeout: Duration,
    ctl: &Receiver<CtlMsg>,
) -> ZapcResult<PodStats> {
    let obs = &cluster.obs;
    let t0 = Instant::now();
    let rd = ImageReader::open(&inputs.image)?;
    let sections = rd.sections()?;

    let section = |tag: SectionTag, what: &str| {
        sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| s.payload)
            .ok_or_else(|| ZapcError::NotFound(format!("{what} section")))
    };

    // Step 1: create the pod.
    let tcreate = Instant::now();
    let create_span = obs.span(&inputs.my_meta.pod, "rst.create");
    let fs_snap = section(SectionTag::FsSnapshot, "fs snapshot").ok();
    let namespace = section(SectionTag::Namespace, "namespace")?;
    let pod = create_pod(cluster, inputs.node, namespace, fs_snap)?;
    create_span.end();
    let quiesce_us = tcreate.elapsed().as_micros() as u64;

    // Everything past creation either resumes the pod or destroys it.
    let restored = (|| {
        let proceed = || match ctl.try_recv() {
            Err(TryRecvError::Empty) => Ok(()),
            Ok(_) => Err(ZapcError::Aborted("restart aborted by the manager".into())),
            Err(TryRecvError::Disconnected) => {
                Err(ZapcError::Aborted("manager connection broken during restart".into()))
            }
        };

        // Steps 2–3: restore network connectivity, then network state.
        proceed()?;
        let reconnect_span = obs.span(&inputs.my_meta.pod, "rst.reconnect");
        let tnet = Instant::now();
        let net_payload = section(SectionTag::NetState, "netstate")?;
        let records = match &inputs.records {
            Some(r) => r.clone(),
            None => zapc_netckpt::records::decode_records(net_payload)?,
        };
        let restored =
            reconnect(cluster, &pod, &inputs.my_meta, &inputs.all_meta, &records, timeout)?;
        reconnect_span.end();
        let net_us = tnet.elapsed().as_micros() as u64;

        // Step 4: standalone restart.
        proceed()?;
        let tsa = Instant::now();
        let restore_span = obs.span(&inputs.my_meta.pod, "rst.restore");
        restore_standalone(&sections, &pod, &cluster.registry, &restored, obs)?;
        restore_span.end();
        let standalone_us = tsa.elapsed().as_micros() as u64;

        // Resume execution without further delay (§4).
        proceed()?;
        let tresume = Instant::now();
        let resume_span = obs.span(&inputs.my_meta.pod, "rst.resume");
        pod.resume()?;
        resume_span.end();
        let resume_us = tresume.elapsed().as_micros() as u64;

        Ok(PodStats {
            pod: pod.name(),
            total_us: t0.elapsed().as_micros() as u64,
            net_us,
            standalone_us,
            blocked_us: 0,
            quiesce_us,
            sync_us: 0,
            commit_us: 0,
            resume_us,
            image_bytes: inputs.image.len(),
            network_bytes: net_payload.len(),
            image_ref: String::new(),
            digest: 0,
        })
    })();
    if restored.is_err() {
        cluster.destroy_pod(&pod.name());
    }
    restored
}

/// Figure 3, step 1: creates a new (empty) pod from an image's namespace
/// and routes its virtual address to `node` before reconnection begins.
/// A migration source leaves its virtual IP blocked; the rule is lifted
/// now that the address routes here. The optional file-system snapshot is
/// reinstated before anything reads from the chroot subtree.
pub(crate) fn create_pod(
    cluster: &Cluster,
    node: usize,
    namespace: &[u8],
    fs_snapshot: Option<&[u8]>,
) -> ZapcResult<Arc<Pod>> {
    let ns = zapc_ckpt::restore::decode_namespace(namespace)?;
    // The Manager refuses targets that name a live pod; the name that gets
    // registered is the image's, which a stale or hostile image can set
    // to anything.
    if cluster.pod(&ns.name).is_some() {
        return Err(ZapcError::Aborted(format!(
            "restart refused: image names pod {:?}, which is still live",
            ns.name
        )));
    }
    let pod =
        Pod::from_namespace(ns, cluster.node(node), &cluster.clock, cluster.virt_overhead_ns);
    cluster.register_restarted_pod(&pod, node);
    cluster.filter().unblock_ip(pod.vip());
    if let Some(payload) = fs_snapshot {
        let mut r = zapc_proto::RecordReader::new(payload);
        let snap = zapc_sim::fs::FsSnapshot::decode(&mut r).map_err(ZapcError::Decode)?;
        cluster.fs.restore(&snap);
    }
    Ok(pod)
}

/// Figure 3, steps 2–3: restores the pod's network connectivity, then its
/// network state; returns the sockets by checkpoint ordinal.
pub(crate) fn reconnect(
    cluster: &Cluster,
    pod: &Arc<Pod>,
    my_meta: &MetaData,
    all_meta: &[MetaData],
    records: &[zapc_netckpt::SockRecord],
    timeout: Duration,
) -> ZapcResult<RestoredSockets> {
    let plan = NetworkRestorePlan { my_meta, all_meta, records, timeout, obs: cluster.obs.clone() };
    Ok(RestoredSockets { by_ordinal: restore_network(pod, &plan)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{checkpoint, CheckpointTarget};
    use crossbeam::channel::{bounded, unbounded};

    #[test]
    fn an_aborted_restart_destroys_the_pod_it_created() {
        let cluster = Cluster::builder().nodes(1).build();
        cluster.create_pod("p", 0);
        let target = CheckpointTarget {
            pod: "p".into(),
            uri: Uri::mem("img/p"),
            finalize: Finalize::Destroy,
        };
        let report = checkpoint(&cluster, &[target]).unwrap();
        let inputs = RestartInputs {
            image: cluster.store.get("img/p").unwrap(),
            my_meta: report.meta[0].clone(),
            all_meta: Arc::new(report.meta),
            node: 0,
            records: None,
        };

        // The Manager's abort is already waiting when the Agent first
        // looks at its control connection, right after creating the pod.
        let (reply, replies) = unbounded();
        let (abort, ctl) = bounded(1);
        abort.send(CtlMsg::Abort).unwrap();
        agent_restart(&cluster, inputs, Duration::from_secs(1), &reply, &ctl);

        match replies.try_recv() {
            Ok(AgentReply::Done { result: Err(why), .. }) => {
                assert!(why.contains("aborted"), "why = {why}")
            }
            other => panic!("expected a rollback report, got {other:?}"),
        }
        assert!(cluster.pod("p").is_none(), "nothing half-restored stays behind");
    }
}
