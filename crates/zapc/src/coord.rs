//! The coordination core: what every coordinated operation does between
//! its phases (§4).
//!
//! The paper has exactly one Manager/Agent protocol — broadcast a
//! command, gather replies, issue one `continue`, gather `done`; abort =
//! the application resumes. Checkpoint, migration and restart are all
//! phase code over this one module, which owns:
//!
//! * the **vocabulary**: one Manager→Agent enum, [`Ctl`], and one
//!   Agent→Manager enum, [`Reply`], that every operation speaks;
//! * the **participants**: a [`Key`] — a pod and the [`Role`] it plays —
//!   → hosting node, control sender, and whether the participant still
//!   owes its final `done`;
//! * the **reply book** ([`Book`]): [`Coord::step`] receives and files one
//!   reply, and every phase of every operation waits on a predicate over
//!   what has been filed;
//! * the **single receive**: bounded by the operation's timeout, sliced
//!   so the Manager looks at the lease table every few ms (a participant
//!   on a dead node will never reply — waiting out the full timeout would
//!   only stall the abort), retiring participants as their `done` arrives
//!   and refusing replies stamped below the cluster epoch;
//! * the **`continue` broadcast** with its fault sites and partition
//!   check;
//! * the **abort path** (tell everyone, wait out exactly the replies
//!   still owed by participants on live nodes, count them as late) and
//!   its **Manager-died variant** (drop the control connections instead);
//! * the **target rules** every operation applies before and around its
//!   attempts: a pod named twice is refused ([`distinct`]), and an aborted
//!   attempt is retried while every pod still exists ([`retry_aborted`]).
//!
//! It is also where the lease [`heartbeat`] lives. A node's lease is
//! renewed by whatever the Manager hears of it over an un-cut link: a
//! command its Agent accepts ([`Coord::send`], [`Coord::register`]), a
//! reply that gets through ([`crate::agent::ctl_reply`]), and — because a
//! busy Agent may say nothing for far longer than a lease — the node's
//! periodic heartbeat, which the waiting Manager collects at every health
//! poll ([`node_alive`]). Only a killed node or a cut `node → Manager`
//! link lets a lease lapse; a slow Agent never does.

use crate::cluster::Cluster;
use crate::manager::PodReport;
use crate::retry::RetryPolicy;
use crate::{ZapcError, ZapcResult};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zapc_faults::{FaultAction, MANAGER};
use zapc_netckpt::SockRecord;
use zapc_proto::MetaData;

/// How often a waiting Manager polls the node-health table.
const HEALTH_POLL: Duration = Duration::from_millis(5);

/// Control-channel depth: room for one unconsumed command plus the abort
/// that overtakes it.
const CTL_DEPTH: usize = 2;

/// What a participant does for its pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Role {
    /// A checkpoint Agent: cuts the pod and delivers its image (Figure 1).
    Checkpoint,
    /// A migration source: pre-copies the pod, then cuts and ships it.
    Source,
    /// A receiver: verifies and decodes one cut, then restarts the pod
    /// from it (Figure 3).
    Receiver,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Checkpoint => "checkpoint",
            Role::Source => "source",
            Role::Receiver => "receiver",
        }
    }
}

/// A participant: one pod in one role.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    pub(crate) pod: String,
    pub(crate) role: Role,
}

impl Key {
    pub(crate) fn new(pod: &str, role: Role) -> Key {
        Key { pod: pod.to_owned(), role }
    }
}

/// Manager→Agent control messages.
pub(crate) enum Ctl {
    /// To a checkpoint Agent: the single synchronization — the Manager has
    /// everyone's meta-data. Carries the Manager epoch the operation runs
    /// under: an Agent that has witnessed a newer epoch treats the message
    /// as stale and rolls back instead of continuing on a dead
    /// incarnation's behalf.
    Continue(u64),
    /// To a source: all pods finished pre-copy — suspend and take the
    /// final cut.
    Cutover,
    /// To a source: commit — destroy the pod (the receiver has
    /// everything).
    CommitSource,
    /// To a receiver: commit — create the pod from the accumulated state
    /// and resume it.
    CommitReceiver {
        /// The merged cluster meta-data, with Manager-assigned
        /// reconnection roles.
        all_meta: Arc<Vec<MetaData>>,
        /// Which of them is this pod's.
        me: usize,
        /// This pod's socket records, after the send-queue merge if any.
        records: Vec<SockRecord>,
    },
    /// Abort the operation: a checkpoint Agent or source rolls back and
    /// the application resumes (or keeps running), a receiver discards
    /// everything; no pod is created.
    Abort,
}

/// Agent→Manager replies.
pub(crate) enum Reply {
    /// Source: pre-copy loop finished; summary of the rounds.
    Precopy { pod: String, rounds: u32, precopy_bytes: u64, residual_bytes: u64, converged: bool },
    /// Checkpoint Agent or source (Figure 1 step 2a): the pod is suspended
    /// and its network state cut — when it was suspended, and the cut's
    /// meta-data.
    Meta { pod: String, suspended_at: Instant, meta: Box<MetaData> },
    /// Receiver: the whole cut verified and decoded; ready to commit.
    /// Carries the cut's meta-data and socket records.
    Applied { pod: String, meta: Box<MetaData>, records: Vec<SockRecord> },
    /// A participant finished — when, and its Agent's report — or failed.
    /// `epoch` is the Manager epoch it ran under: a reply whose epoch
    /// trails the cluster's is a stale Agent speaking across a healed
    /// partition, which the Manager counts and refuses.
    Done { key: Key, epoch: u64, result: ZapcResult<(Instant, PodReport)> },
}

impl Reply {
    /// For a participant's final reply: its key and epoch stamp.
    fn done(&self) -> Option<(&Key, u64)> {
        match self {
            Reply::Done { key, epoch, .. } => Some((key, *epoch)),
            _ => None,
        }
    }
}

/// What the participants of one operation have reported so far.
#[derive(Default)]
pub(crate) struct Book {
    /// Sources' pre-copy summaries by pod: rounds, bytes, residual bytes,
    /// converged.
    pub(crate) precopy: HashMap<String, (u32, u64, u64, bool)>,
    /// Pods cut by their checkpoint Agent or source: when each was
    /// suspended, and the cut's meta-data.
    pub(crate) cut: HashMap<String, (Instant, MetaData)>,
    /// Receivers ready to commit, with the meta-data and socket records
    /// of their cuts.
    pub(crate) applied: HashMap<String, (MetaData, Vec<SockRecord>)>,
    /// Finished participants.
    pub(crate) done: HashMap<Key, (Instant, PodReport)>,
}

struct Participant {
    /// Node whose lease keeps this participant alive (`None`: the pod is
    /// unknown, nothing node-local ever runs).
    node: Option<u32>,
    /// `None` once the Manager "died" and dropped its connections.
    ctl: Option<SyncSender<Ctl>>,
    owes_done: bool,
}

/// Manager-side state of one coordinated operation.
pub(crate) struct Coord<'a> {
    pub(crate) cluster: &'a Cluster,
    timeout: Duration,
    tx: Sender<Reply>,
    rx: Receiver<Reply>,
    parts: HashMap<Key, Participant>,
    /// What the participants have reported.
    pub(crate) got: Book,
    /// `done` replies that arrived only while draining an abort.
    pub(crate) late: u64,
}

/// The lease heartbeat: anything that crosses the `from → to` link (one
/// end is [`MANAGER`]) renews the lease of the node at the other end.
/// Heartbeats only cross a working link: a partitioned node is alive but
/// unheard, so its lease lapses exactly like a dead node's — which is all
/// the Manager can ever observe.
pub(crate) fn heartbeat(cluster: &Cluster, from: u32, to: u32) {
    if !cluster.partition.is_cut(from, to) {
        cluster.health.beat(if from == MANAGER { to } else { from });
    }
}

/// Whether the Manager can hear `node` right now. The simulation runs no
/// per-node daemon, so the node's periodic heartbeat is evaluated here, at
/// the moment the Manager looks: it arrives iff the `node → Manager` link
/// is un-cut (and is ignored for a killed node). A node the Manager cannot
/// hear keeps the lease of whatever it was last heard saying, and reads as
/// not alive once that lapses.
pub(crate) fn node_alive(cluster: &Cluster, node: u32) -> bool {
    heartbeat(cluster, node, MANAGER);
    cluster.health.is_alive(node)
}

/// Refuses an operation that names one pod twice, before any Agent runs:
/// two participants in one role would quiesce and cut (or restart) the
/// same pod, and the second registration would hide the first.
pub(crate) fn distinct<'p>(op: &str, pods: impl IntoIterator<Item = &'p str>) -> ZapcResult<()> {
    let mut seen = HashSet::new();
    for pod in pods {
        if !seen.insert(pod) {
            return Err(ZapcError::Aborted(format!("{op} refused: pod {pod:?} is targeted twice")));
        }
    }
    Ok(())
}

/// The retry rule of every operation whose abort rolls back: runs
/// `attempt` on a fresh [`Coord`] (bounded by `timeout`) under `policy`,
/// retrying an [`ZapcError::Aborted`] attempt while every pod in `pods`
/// still exists — the abort left them all running, so a retry starts from
/// clean state; a pod gone means the attempt got past its point of no
/// return, which is final. Returns the outcome and the replies every
/// attempt drained.
pub(crate) fn retry_aborted<T>(
    cluster: &Cluster,
    pods: &[&str],
    policy: RetryPolicy,
    timeout: Duration,
    mut attempt: impl FnMut(&mut Coord<'_>) -> ZapcResult<T>,
) -> ZapcResult<(T, u64)> {
    let mut late = 0u64;
    let out = policy.run(
        |_| {
            let mut co = Coord::new(cluster, timeout);
            let out = attempt(&mut co);
            late += co.late;
            out
        },
        |e| matches!(e, ZapcError::Aborted(_)) && pods.iter().all(|p| cluster.pod(p).is_some()),
    )?;
    Ok((out, late))
}

/// What an error says, as an abort passes it on.
pub(crate) fn reason(e: &ZapcError) -> String {
    match e {
        ZapcError::Aborted(why) => why.clone(),
        e => e.to_string(),
    }
}

impl<'a> Coord<'a> {
    /// A fresh operation; `timeout` bounds every wait between phases.
    pub(crate) fn new(cluster: &'a Cluster, timeout: Duration) -> Self {
        let (tx, rx) = channel();
        let (parts, got) = (HashMap::new(), Book::default());
        Coord { cluster, timeout, tx, rx, parts, got, late: 0 }
    }

    /// Registers `pod`'s participant in `role`, hosted on `node`, and
    /// returns the Agent's ends of its connection. This is the command
    /// dispatch, so it is the first heartbeat of the operation.
    pub(crate) fn register(
        &mut self,
        pod: &str,
        role: Role,
        node: Option<usize>,
    ) -> (Sender<Reply>, Receiver<Ctl>) {
        let (ctl, ctl_rx) = sync_channel(CTL_DEPTH);
        let p = Participant { node: node.map(|n| n as u32), ctl: Some(ctl), owes_done: true };
        self.deliver(&p, None);
        self.parts.insert(Key::new(pod, role), p);
        (self.tx.clone(), ctl_rx)
    }

    /// A command reached `p`'s Agent: its node is heard from, and `msg`,
    /// if any, is on its control connection.
    fn deliver(&self, p: &Participant, msg: Option<Ctl>) {
        if let Some(n) = p.node {
            heartbeat(self.cluster, MANAGER, n);
        }
        if let (Some(ctl), Some(msg)) = (&p.ctl, msg) {
            let _ = ctl.send(msg);
        }
    }

    /// Sends one command to `pod`'s participant in `role`.
    pub(crate) fn send(&self, pod: &str, role: Role, msg: Ctl) {
        if let Some(p) = self.parts.get(&Key::new(pod, role)) {
            self.deliver(p, Some(msg));
        }
    }

    /// The single synchronization: `continue` (stamped with the operation
    /// epoch) to every Agent, subject to the `ctl.continue` fault site
    /// (keyed by pod; `Drop` loses the message, `Delay` postpones it),
    /// then the seeded `ctl.partition` site, then the time-driven
    /// partition schedule for the `MANAGER → hosting node` link. A lost
    /// send is invisible to the Manager — the Agent's bounded wait turns
    /// the loss into a rollback.
    pub(crate) fn send_continue(&self, epoch: u64) {
        for (key, p) in &self.parts {
            let eaten = |site| {
                matches!(self.cluster.faults.hit_and_sleep(site, &key.pod), Some(FaultAction::Drop))
            };
            if eaten("ctl.continue") || eaten("ctl.partition") {
                continue;
            }
            if p.node.is_some_and(|n| self.cluster.partition.is_cut(MANAGER, n)) {
                continue;
            }
            self.deliver(p, Some(Ctl::Continue(epoch)));
        }
    }

    /// Receives one reply before `deadline`, retiring its sender if the
    /// reply is final. `Err(Some((key, node)))` as soon as a participant
    /// that still owes its `done` sits on a node found dead; `Err(None)`
    /// on a plain timeout.
    fn next(&mut self, deadline: Instant) -> Result<Reply, Option<(Key, u32)>> {
        loop {
            let slice = HEALTH_POLL.min(deadline.saturating_duration_since(Instant::now()));
            if let Ok(r) = self.rx.recv_timeout(slice) {
                if let Some(p) = r.done().and_then(|(key, _)| self.parts.get_mut(key)) {
                    p.owes_done = false;
                }
                return Ok(r);
            }
            for (key, p) in &self.parts {
                if let (true, Some(n)) = (p.owes_done, p.node) {
                    if !node_alive(self.cluster, n) {
                        return Err(Some((key.clone(), n)));
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err(None);
            }
        }
    }

    /// The wait between phases: receives one reply and files it in
    /// [`Coord::got`]. A dead node, a timeout (waiting for `what`), a
    /// `done` stamped with an epoch the cluster has since moved past (a
    /// stale Agent speaking across a healed partition, or a recovery that
    /// raced this operation — it must not count as progress) and a failed
    /// `done` all run the abort path before the typed error surfaces. The
    /// error is [`ZapcError::Aborted`] unless a participant failed with a
    /// typed error of its own — a stored cut that failed verification, or
    /// holds another pod — which surfaces as itself.
    pub(crate) fn step(&mut self, what: &str) -> ZapcResult<()> {
        let reply = match self.next(Instant::now() + self.timeout) {
            Ok(r) => r,
            Err(Some((key, node))) => {
                let why = format!("node {node} hosting pod {:?} died mid-operation", key.pod);
                return Err(self.abort(why));
            }
            Err(None) => return Err(self.abort(format!("timed out waiting for {what}"))),
        };
        if let Some((key, epoch)) = reply.done().filter(|&(_, e)| e < self.cluster.epoch()) {
            self.cluster.note_fenced_reply(&key.pod);
            let why = format!("agent for {} replied at fenced epoch {epoch}", key.pod);
            return Err(self.abort(why));
        }
        let got = &mut self.got;
        match reply {
            Reply::Precopy { pod, rounds, precopy_bytes, residual_bytes, converged } => {
                got.precopy.insert(pod, (rounds, precopy_bytes, residual_bytes, converged));
            }
            Reply::Meta { pod, suspended_at, meta } => {
                got.cut.insert(pod, (suspended_at, *meta));
            }
            Reply::Applied { pod, meta, records } => {
                got.applied.insert(pod, (*meta, records));
            }
            Reply::Done { key, result: Ok(out), .. } => {
                got.done.insert(key, out);
            }
            Reply::Done { key, result: Err(e), .. } => {
                let why = format!("{} agent for {}: {}", key.role.name(), key.pod, reason(&e));
                let aborted = self.abort(why);
                return Err(if matches!(e, ZapcError::Aborted(_)) { aborted } else { e });
            }
        }
        Ok(())
    }

    /// Aborts the operation: tells every Agent to roll back and waits out
    /// their `done` replies so no pod is left suspended (and no Agent
    /// thread blocked) when the typed error surfaces.
    pub(crate) fn abort(&mut self, why: String) -> ZapcError {
        // try_send: a control channel may still hold an unconsumed
        // command (the Agent died before reading it) — never block on it.
        for ctl in self.parts.values().filter_map(|p| p.ctl.as_ref()) {
            let _ = ctl.try_send(Ctl::Abort);
        }
        self.drain();
        ZapcError::Aborted(why)
    }

    /// The Manager dies here: dropping the control channels breaks every
    /// Agent's connection; they must abort and resume on their own.
    pub(crate) fn manager_died(&mut self, why: &str) -> ZapcError {
        for p in self.parts.values_mut() {
            p.ctl = None;
        }
        self.drain();
        ZapcError::Aborted(why.to_owned())
    }

    /// Waits for exactly the participants that still owe a `done` and sit
    /// on live nodes. Every reply that arrives here is an Agent report the
    /// operation consumed without surfacing: counted in `late` and as one
    /// `mgr.late_reply` per reply.
    fn drain(&mut self) {
        let deadline = Instant::now() + self.timeout;
        while self.parts.values().any(|p| p.owes_done) {
            match self.next(deadline) {
                Ok(r) => {
                    let Some((key, epoch)) = r.done() else { continue };
                    self.late += 1;
                    if epoch < self.cluster.epoch() {
                        // Drained *and* fenced: the reply crossed an epoch
                        // bump (recovery raced the abort). Tally it so
                        // tests can assert stale Agents were heard but
                        // ignored.
                        self.cluster.note_fenced_reply(&key.pod);
                    }
                    if self.cluster.obs.enabled() {
                        self.cluster.obs.counter(&key.pod, "mgr.late_reply", 1);
                    }
                }
                // On a dead node: will never reply.
                Err(Some((key, _))) => {
                    if let Some(p) = self.parts.get_mut(&key) {
                        p.owes_done = false;
                    }
                }
                Err(None) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(pod: &str, epoch: u64) -> Reply {
        let report = PodReport { pod: pod.into(), ..PodReport::default() };
        let key = Key::new(pod, Role::Checkpoint);
        Reply::Done { key, result: Ok((Instant::now(), report)), epoch }
    }

    #[test]
    fn abort_drains_only_participants_that_still_owe_a_reply_on_live_nodes() {
        let cluster = Cluster::builder().nodes(2).build();
        let mut co = Coord::new(&cluster, Duration::from_secs(5));
        let (a, _a_ctl) = co.register("a", Role::Checkpoint, Some(0));
        let (b, _b_ctl) = co.register("b", Role::Checkpoint, Some(0));
        let (_c, c_ctl) = co.register("c", Role::Checkpoint, Some(1));
        a.send(done("a", cluster.epoch())).unwrap();
        b.send(done("b", cluster.epoch())).unwrap();
        assert!(co.step("done").is_ok() && co.step("done").is_ok());
        assert_eq!(co.got.done.len(), 2);

        // The third participant's node dies without a word.
        cluster.health.kill(1);
        let t0 = Instant::now();
        let err = co.abort("test".into());
        assert!(matches!(err, ZapcError::Aborted(_)));
        assert!(t0.elapsed() < Duration::from_secs(1), "nobody left to wait for");
        assert_eq!(co.late, 0, "the two early dones were consumed in-phase, not drained");
        assert!(matches!(c_ctl.try_recv(), Ok(Ctl::Abort)));
    }

    #[test]
    fn abort_never_blocks_on_a_full_control_channel() {
        // The Agent's node dies with its control channel full of commands
        // it never read: the abort finds no room and must not wait for
        // any. A blocked abort can never be joined, only timed out.
        let (report, watchdog) = channel();
        std::thread::spawn(move || {
            let cluster = Cluster::builder().nodes(1).build();
            let mut co = Coord::new(&cluster, Duration::from_secs(5));
            let (_reply, ctl) = co.register("p", Role::Checkpoint, Some(0));
            for _ in 0..CTL_DEPTH {
                co.send("p", Role::Checkpoint, Ctl::Continue(cluster.epoch()));
            }
            cluster.health.kill(0);
            let t0 = Instant::now();
            let aborted = matches!(co.abort("test".into()), ZapcError::Aborted(_));
            let elapsed = t0.elapsed();
            let queued: Vec<Ctl> = ctl.try_iter().collect();
            let continues = queued.iter().filter(|c| matches!(c, Ctl::Continue(_))).count();
            let _ = report.send((aborted, elapsed, queued.len(), continues));
        });
        let (aborted, elapsed, queued, continues) =
            watchdog.recv_timeout(Duration::from_secs(10)).expect("watchdog: abort blocked");
        assert!(aborted);
        assert!(elapsed < Duration::from_secs(1), "abort took {elapsed:?}");
        assert_eq!((queued, continues), (CTL_DEPTH, CTL_DEPTH), "the queued commands, untouched");
    }
}
