//! The per-node Agent: local checkpoint and restart procedures
//! (Figures 1 and 3).
//!
//! Agents "receive commands and carry them out on their local nodes" (§4).
//! In this reproduction an Agent invocation runs on its own thread per
//! operation; its reliable connection to the Manager is a pair of channels
//! whose disconnection models a broken TCP connection — detected by both
//! sides, triggering a graceful abort in which the application resumes
//! execution. Every Agent — a checkpoint's here, a migration's source and
//! receiver in [`crate::live`] — speaks the coordination core's one
//! vocabulary: it reads `Ctl` commands and answers with `Reply`s, the
//! final one a `done` stamped with its epoch.

use crate::cluster::Cluster;
use crate::coord::{Ctl, Key, Reply, Role};
use crate::manager::PodReport;
use crate::uri::Uri;
use crate::{ZapcError, ZapcResult};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zapc_ckpt::{checkpoint_standalone_with, DecodedPod, RestoredSockets, SaveOpts};
use zapc_faults::{FaultAction, MANAGER};
use zapc_netckpt::{checkpoint_network_obs, restore_network, NetworkRestorePlan, SockRecord};
use zapc_pod::Pod;
use zapc_proto::image::{Header, Section};
use zapc_proto::{Decode, Encode, ImageWriter, MetaData, SectionTag};

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

/// Coordination policy (`barrier_blocks_network_at_least_as_long_as_single_sync`
/// in `tests/policies.rs` compares the two).
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
    reply: &Sender<Reply>,
    msg: Reply,
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
    pub reply: Sender<Reply>,
    /// Manager→Agent control messages.
    pub ctl: Receiver<Ctl>,
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

/// Milliseconds since `t`.
fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Figure 1, steps 2–3, on a pod its caller has quiesced: the
/// network-state checkpoint, the meta-data report, then the standalone
/// checkpoint — everything into one image. `report_meta` is step 2a,
/// whatever the caller owes its Manager between the two; its `Err`
/// abandons the cut (rolling the pod back is the caller's). `base_gens`
/// makes the memory sections deltas against a base the image's consumer
/// already holds, and `capacity` sizes the writer for what that leaves.
/// The cut fills in the phase times and sizes of `report` it alone knows.
pub(crate) fn checkpoint_cut(
    cluster: &Cluster,
    pod: &Arc<Pod>,
    fs_snapshot: bool,
    base_gens: Option<HashMap<u32, u64>>,
    capacity: usize,
    report: &mut PodReport,
    report_meta: impl FnOnce(&MetaData) -> Result<(), String>,
) -> Result<Vec<u8>, String> {
    let obs = &cluster.obs;
    let pod_name = pod.name();

    // Step 2: network-state checkpoint; 2a: report meta-data.
    let tnet = Instant::now();
    let net_span = obs.span(&pod_name, "ckpt.net_save");
    let (meta, records) = checkpoint_network_obs(pod, obs);
    net_span.end();
    report.net_ms = ms(tnet);
    report_meta(&meta)?;

    // Step 3: standalone checkpoint (concurrent with the Manager sync in
    // the paper's policy).
    let tsa = Instant::now();
    let dump_span = obs.span(&pod_name, "ckpt.dump");
    let header = Header {
        host: format!("node-{}", pod.node().id),
        wall_ms: cluster.clock.now_ms(),
        flags: if fs_snapshot { FLAG_FS_SNAPSHOT } else { 0 },
        pod: pod_name,
    };
    let mut w = ImageWriter::with_capacity(&header, capacity);
    w.section(SectionTag::NetMeta, |r| meta.encode(r));
    if fs_snapshot {
        // Snapshot the pod's chroot subtree on shared storage.
        let snap = cluster.fs.snapshot(&pod.env.fs_root);
        w.section(SectionTag::FsSnapshot, |r| snap.encode(r));
    }
    let net_payload = zapc_netckpt::records::encode_records(&records);
    w.section_bytes(SectionTag::NetState, net_payload.bytes());
    report.network_bytes = net_payload.len() + meta.encoded_len();
    let save_opts = SaveOpts { base_gens, obs: obs.clone() };
    checkpoint_standalone_with(pod, &mut w, &save_opts)
        .map_err(|e| format!("standalone checkpoint failed: {e}"))?;
    let image = w.finish();
    dump_span.end();
    report.standalone_ms = ms(tsa);
    report.image_bytes = image.len();
    Ok(image)
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
    let done = |result: Result<PodReport, String>| Reply::Done {
        key: Key::new(pod_name, Role::Checkpoint),
        epoch,
        result: result.map(|report| (Instant::now(), report)).map_err(ZapcError::Aborted),
    };
    let Some(pod) = cluster.pod(pod_name) else {
        // No pod, no hosting node: this failure reply bypasses the
        // partition model (nothing node-local ever ran).
        let _ = reply.send(done(Err(format!("unknown pod {pod_name:?}"))));
        return;
    };
    let node_id = pod.node().id.0;
    let send_done = |result: Result<PodReport, String>| {
        let _ = ctl_reply(cluster, node_id, pod_name, reply, done(result));
    };
    // Epoch fence at entry: an op stamped by a Manager incarnation older
    // than the one this cluster has already recovered to must not touch
    // the pod at all.
    if epoch < cluster.epoch() {
        send_done(Err(format!(
            "fenced: op epoch {epoch} is stale (cluster at {})",
            cluster.epoch()
        )));
        return;
    }

    let obs = &cluster.obs;
    let t0 = Instant::now();
    let mut report = PodReport { pod: pod_name.to_owned(), ..PodReport::default() };
    // Step 1: suspend the pod; block its network.
    let quiesce_span = obs.span(pod_name, "ckpt.quiesce");
    if let Err(why) = quiesce(cluster, &pod) {
        send_done(Err(why));
        return;
    }
    quiesce_span.end();
    report.quiesce_ms = ms(t0);
    let blocked_at = Instant::now();

    let rollback = |why: &str| {
        unquiesce(cluster, &pod);
        send_done(Err(why.to_owned()));
    };
    // Steps 3a/4a: the Agent only finishes after it received `continue`.
    // Bounded wait: a lost `continue` must not wedge the Agent forever.
    // Returns the time spent waiting (ms), or the reason to roll back.
    let await_continue = |at: &str| -> Result<f64, String> {
        let tsync = Instant::now();
        let sync_span = obs.span(pod_name, "ckpt.sync");
        let waited = ctl.recv_timeout(ctl_timeout);
        sync_span.end();
        match waited {
            Ok(Ctl::Continue(e)) if e >= cluster.epoch() => Ok(ms(tsync)),
            // The `continue` came from a Manager that has since been
            // superseded (a recovery bumped the epoch while this op was in
            // flight): finishing the op would let a dead incarnation
            // mutate post-recovery state.
            Ok(Ctl::Continue(e)) => {
                Err(format!("fenced: stale continue epoch {e} (cluster at {})", cluster.epoch()))
            }
            Ok(_) => Err(format!("aborted {at}")),
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

    // Steps 2–3: the cut, with what this Agent owes its Manager at 2a.
    let mut sync_ms = 0.0;
    let capacity = pod.total_mem_bytes() + 4096;
    let cut = checkpoint_cut(cluster, &pod, fs_snapshot, None, capacity, &mut report, |meta| {
        let meta = Reply::Meta {
            pod: pod_name.to_owned(),
            suspended_at: t0,
            meta: Box::new(meta.clone()),
        };
        if ctl_reply(cluster, node_id, pod_name, reply, meta).is_err() {
            // Manager gone: graceful abort (§4). (A *partitioned* meta send
            // is not an error here — the loss is invisible to the Agent, so
            // it proceeds and its bounded `continue` wait does the rollback.)
            return Err("manager connection broken before meta-data".into());
        }
        if cluster.faults.hit("agent.post_meta", pod_name).is_some() {
            return Err("fault: agent crashed after meta-data".into());
        }
        // Strawman policy: hold everything until the Manager's barrier.
        if policy == SyncPolicy::GlobalBarrier {
            sync_ms = await_continue("at barrier")?;
        }
        Ok(())
    });
    let mut image = match cut {
        Ok(image) => image,
        Err(why) => return rollback(&why),
    };
    // Fault site: image bytes damaged on their way out (bad disk, torn
    // write). Sections are CRC-framed, so the damage surfaces as a typed
    // decode error at restart, never a silent mis-restore.
    if let Some(a) = cluster.faults.hit("agent.image", pod_name) {
        zapc_faults::FaultPlan::mangle(a, &mut image);
        report.image_bytes = image.len();
    }

    if cluster.faults.hit("agent.pre_continue", pod_name).is_some() {
        rollback("fault: agent crashed awaiting continue");
        return;
    }
    if policy == SyncPolicy::SingleSync {
        match await_continue("awaiting continue") {
            Ok(waited) => sync_ms = waited,
            Err(why) => return rollback(&why),
        }
    }
    report.sync_ms = sync_ms;
    // Step 4 + 3a: finalize, then unblock. A snapshot resumes and
    // unblocks; a migration source is destroyed *while still blocked* so
    // its teardown segments (RST/FIN) can never chase the pod to its new
    // home — the restart Agent lifts the block once the pod is re-routed.
    let tresume = Instant::now();
    let resume_span = obs.span(pod_name, "ckpt.resume");
    match finalize {
        Finalize::Resume => {
            cluster.filter().unblock_ip(pod.vip());
            report.blocked_ms = ms(blocked_at);
            let _ = pod.resume();
        }
        Finalize::Destroy => {
            // Clears the address's route with the pod; a restart of the
            // image lifts the block once the pod is re-routed.
            cluster.destroy_pod(pod_name);
            report.blocked_ms = ms(blocked_at);
        }
    }
    resume_span.end();
    report.resume_ms = ms(tresume);

    // Deliver the image to its destination.
    let tcommit = Instant::now();
    let commit_span = obs.span(pod_name, "ckpt.commit");
    match dest {
        Uri::Mem(label) => cluster.store.put(label, image),
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
                send_done(Err("fault: agent crashed while staging image".to_owned()));
                return;
            }
            // Epoch fence before staging: a newer Manager may have
            // recovered (and GC'd this checkpoint's directory) while this
            // op sat partitioned — its stale Agent must not re-litter the
            // store.
            if epoch < cluster.epoch() {
                send_done(Err(format!(
                    "fenced: staging refused, op epoch {epoch} is stale (cluster at {})",
                    cluster.epoch()
                )));
                return;
            }
            match cluster.istore.put_image(*ckpt_id, pod_name, &image) {
                Ok((image_ref, digest)) => {
                    cluster.witness_epoch(node_id, epoch);
                    (report.image_ref, report.digest) = (image_ref, digest);
                }
                Err(e) => {
                    send_done(Err(format!("image staging failed: {e}")));
                    return;
                }
            }
        }
    }
    commit_span.end();
    report.commit_ms = ms(tcommit);
    report.total_ms = ms(t0);
    send_done(Ok(report));
}

/// What an Agent restarts one pod from, besides its decoded cut.
pub(crate) struct RestartInputs<'a> {
    /// This pod's meta-data with Manager-assigned roles.
    pub my_meta: &'a MetaData,
    /// The merged cluster meta-data.
    pub all_meta: &'a [MetaData],
    /// Destination node.
    pub node: usize,
    /// The cut's socket records, after the §5 send-queue merge if any.
    pub records: Vec<SockRecord>,
    /// Bound on the reconnection.
    pub timeout: Duration,
}

/// Figure 3 from one verified, decoded cut, which the receive half of
/// [`crate::live`] hands over at the Manager's commit: create the pod →
/// restore connectivity and network state → reinstate `parts` → resume,
/// each step under its name in `spans`. Between steps the Agent looks at
/// its control connection: any message on it (the abort) or a broken
/// connection rolls back, and so does any failure of its own — the pod it
/// created is destroyed, so a failed restart leaves nothing half-restored.
pub(crate) fn restart_tail(
    cluster: &Cluster,
    sections: &[Section<'_>],
    parts: DecodedPod,
    inputs: RestartInputs<'_>,
    ctl: &Receiver<Ctl>,
    spans: [&'static str; 4],
) -> ZapcResult<PodReport> {
    let RestartInputs { my_meta, all_meta, node, records, timeout } = inputs;
    let [create, connect, restore, resume] = spans;
    let (obs, key) = (&cluster.obs, my_meta.pod.as_str());
    let t0 = Instant::now();
    let section = |tag: SectionTag, what: &str| {
        let s = sections.iter().find(|s| s.tag == tag);
        s.map(|s| s.payload).ok_or_else(|| ZapcError::NotFound(format!("{what} section")))
    };

    // Step 1: create the pod.
    let create_span = obs.span(key, create);
    let fs_snap = section(SectionTag::FsSnapshot, "fs snapshot").ok();
    let namespace = section(SectionTag::Namespace, "namespace")?;
    let pod = create_pod(cluster, node, namespace, fs_snap)?;
    create_span.end();
    let mut report = PodReport { pod: pod.name(), quiesce_ms: ms(t0), ..PodReport::default() };

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
        let connect_span = obs.span(key, connect);
        let tnet = Instant::now();
        let records = &records;
        let plan = NetworkRestorePlan { my_meta, all_meta, records, timeout, obs: obs.clone() };
        let sockets = RestoredSockets { by_ordinal: restore_network(&pod, &plan)? };
        connect_span.end();
        report.net_ms = ms(tnet);
        report.network_bytes = section(SectionTag::NetState, "netstate")?.len();

        // Step 4: standalone restart.
        proceed()?;
        let tsa = Instant::now();
        let restore_span = obs.span(key, restore);
        parts.reinstate(&pod, &cluster.registry, &sockets, &cluster.obs)?;
        restore_span.end();
        report.standalone_ms = ms(tsa);

        // Resume execution without further delay (§4).
        proceed()?;
        let tresume = Instant::now();
        let resume_span = obs.span(key, resume);
        pod.resume()?;
        resume_span.end();
        report.resume_ms = ms(tresume);
        report.total_ms = ms(t0);
        Ok(report)
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
fn create_pod(
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
    cluster.register_pod(&pod, node);
    cluster.filter().unblock_ip(pod.vip());
    if let Some(payload) = fs_snapshot {
        let mut r = zapc_proto::RecordReader::new(payload);
        let snap = zapc_sim::fs::FsSnapshot::decode(&mut r).map_err(ZapcError::Decode)?;
        cluster.fs.restore(&snap);
    }
    Ok(pod)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{checkpoint, CheckpointTarget};
    use std::sync::mpsc::sync_channel;
    use zapc_proto::ImageReader;

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
        let image = cluster.store.get("img/p").unwrap();
        let sections = ImageReader::open(&image).unwrap().sections().unwrap();
        let mut parts = DecodedPod::new();
        parts.apply_standalone(&sections).unwrap();
        let inputs = RestartInputs {
            my_meta: &report.meta[0],
            all_meta: &report.meta,
            node: 0,
            records: Vec::new(), // the pod has no sockets
            timeout: Duration::from_secs(1),
        };

        // The Manager's abort is already waiting when the Agent first
        // looks at its control connection, right after creating the pod.
        let (abort, ctl) = sync_channel(1);
        abort.send(Ctl::Abort).unwrap();
        let spans = ["rst.create", "rst.reconnect", "rst.restore", "rst.resume"];
        let err = restart_tail(&cluster, &sections, parts, inputs, &ctl, spans);
        assert!(matches!(&err, Err(ZapcError::Aborted(why)) if why.contains("aborted")), "{err:?}");
        assert!(cluster.pod("p").is_none(), "nothing half-restored stays behind");
    }
}
