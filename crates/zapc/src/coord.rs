//! The coordination core: what every coordinated operation does between
//! its phases (§4).
//!
//! The paper has exactly one Manager/Agent protocol — broadcast a
//! command, gather replies, issue one `continue`, gather `done`; abort =
//! the application resumes. Checkpoint, migration and restart are all
//! phase code over this one module, which owns:
//!
//! * the **participants**: key → hosting node, control sender, and
//!   whether the participant still owes its final `done`;
//! * the **single receive**: bounded by the operation's timeout, sliced
//!   so the Manager looks at the lease table every few ms (a participant
//!   on a dead node will never reply — waiting out the full timeout would
//!   only stall the abort), retiring participants as their `done` arrives
//!   and refusing replies stamped below the cluster epoch;
//! * the **`continue` broadcast** with its fault sites and partition
//!   check;
//! * the **abort path** (tell everyone, wait out exactly the replies
//!   still owed by participants on live nodes, count them as late) and
//!   its **Manager-died variant** (drop the control connections instead).
//!
//! It is also where the lease [`heartbeat`] lives. A node's lease is
//! renewed by whatever the Manager hears of it over an un-cut link: a
//! command its Agent accepts ([`Coord::send`], [`Coord::register`]), a
//! reply that gets through ([`crate::agent::ctl_reply`]), and — because a
//! busy Agent may say nothing for far longer than a lease — the node's
//! periodic heartbeat, which the waiting Manager collects at every health
//! poll ([`node_alive`]). Only a killed node or a cut `node → Manager`
//! link lets a lease lapse; a slow Agent never does.

use crate::agent::CtlMsg;
use crate::cluster::Cluster;
use crate::{ZapcError, ZapcResult};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use zapc_faults::{FaultAction, MANAGER};

/// How often a waiting Manager polls the node-health table.
const HEALTH_POLL: Duration = Duration::from_millis(5);

/// Control-channel depth: room for one unconsumed command plus the abort
/// that overtakes it.
const CTL_DEPTH: usize = 2;

/// A Manager→Agent message type. The core only ever originates one kind
/// of message itself.
pub(crate) trait Ctl {
    /// "Abort the operation; resume the application."
    fn abort() -> Self;
}

/// An Agent→Manager message type.
pub(crate) trait Reply {
    /// For a participant's *final* reply: its key and the Manager epoch
    /// the reply is stamped with. `None` for progress reports.
    fn done(&self) -> Option<(&str, u64)>;

    /// The pod a participant key names. Operations that run several
    /// participants per pod put more than the pod name into their keys.
    fn pod_of(key: &str) -> &str {
        key
    }
}

struct Participant<C> {
    /// Node whose lease keeps this participant alive (`None`: the pod is
    /// unknown, nothing node-local ever runs).
    node: Option<u32>,
    /// `None` once the Manager "died" and dropped its connections.
    ctl: Option<Sender<C>>,
    owes_done: bool,
}

/// Manager-side state of one coordinated operation.
pub(crate) struct Coord<'a, C, R> {
    cluster: &'a Cluster,
    timeout: Duration,
    tx: Sender<R>,
    rx: Receiver<R>,
    parts: HashMap<String, Participant<C>>,
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

impl<'a, C: Ctl, R: Reply> Coord<'a, C, R> {
    /// A fresh operation; `timeout` bounds every wait between phases.
    pub(crate) fn new(cluster: &'a Cluster, timeout: Duration) -> Self {
        let (tx, rx) = unbounded();
        Coord { cluster, timeout, tx, rx, parts: HashMap::new(), late: 0 }
    }

    /// Registers participant `key` hosted on `node` and returns the
    /// Agent's ends of its connection. This is the command dispatch, so it
    /// is the first heartbeat of the operation.
    pub(crate) fn register(&mut self, key: &str, node: Option<usize>) -> (Sender<R>, Receiver<C>) {
        let (ctl, ctl_rx) = bounded(CTL_DEPTH);
        let p = Participant { node: node.map(|n| n as u32), ctl: Some(ctl), owes_done: true };
        self.accepted(&p);
        self.parts.insert(key.to_owned(), p);
        (self.tx.clone(), ctl_rx)
    }

    /// A command reached `p`'s Agent: its node is heard from.
    fn accepted(&self, p: &Participant<C>) {
        if let Some(n) = p.node {
            heartbeat(self.cluster, MANAGER, n);
        }
    }

    /// Sends one command to one participant.
    pub(crate) fn send(&self, key: &str, msg: C) {
        let Some(p) = self.parts.get(key) else { return };
        self.accepted(p);
        if let Some(ctl) = &p.ctl {
            let _ = ctl.send(msg);
        }
    }

    /// Receives one reply before `deadline`, retiring its sender if the
    /// reply is final. `Err(Some((key, node)))` as soon as a participant
    /// that still owes its `done` sits on a node found dead; `Err(None)`
    /// on a plain timeout.
    fn next(&mut self, deadline: Instant) -> Result<R, Option<(String, u32)>> {
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

    /// The wait between phases: one reply, or the typed abort. A dead
    /// node, a timeout, and a `done` stamped with an epoch the cluster has
    /// since moved past (a stale Agent speaking across a healed partition,
    /// or a recovery that raced this operation — it must not count as
    /// progress) all run the abort path before the error surfaces.
    pub(crate) fn recv(&mut self, what: &str) -> ZapcResult<R> {
        match self.next(Instant::now() + self.timeout) {
            Ok(r) => match r.done().filter(|&(_, epoch)| epoch < self.cluster.epoch()) {
                Some((key, epoch)) => {
                    let pod = R::pod_of(key).to_owned();
                    self.cluster.note_fenced_reply(&pod);
                    Err(self.abort(format!("agent for {pod} replied at fenced epoch {epoch}")))
                }
                None => Ok(r),
            },
            Err(Some((key, node))) => Err(self.abort(format!(
                "node {node} hosting pod {:?} died mid-operation",
                R::pod_of(&key)
            ))),
            Err(None) => Err(self.abort(format!("timed out waiting for {what}"))),
        }
    }

    /// Aborts the operation: tells every Agent to roll back and waits out
    /// their `done` replies so no pod is left suspended (and no Agent
    /// thread blocked) when the typed error surfaces.
    pub(crate) fn abort(&mut self, why: String) -> ZapcError {
        // try_send: a control channel may still hold an unconsumed
        // command (the Agent died before reading it) — never block on it.
        for ctl in self.parts.values().filter_map(|p| p.ctl.as_ref()) {
            let _ = ctl.try_send(C::abort());
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
                        self.cluster.note_fenced_reply(R::pod_of(key));
                    }
                    if self.cluster.obs.enabled() {
                        self.cluster.obs.counter(R::pod_of(key), "mgr.late_reply", 1);
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

impl<R: Reply> Coord<'_, CtlMsg, R> {
    /// The single synchronization: `continue` (stamped with the operation
    /// epoch) to every Agent, subject to the `ctl.continue` fault site
    /// (keyed by pod; `Drop` loses the message, `Delay` postpones it),
    /// then the seeded `ctl.partition` site, then the time-driven
    /// partition schedule for the `MANAGER → hosting node` link. A lost
    /// send is invisible to the Manager — the Agent's bounded wait turns
    /// the loss into a rollback.
    pub(crate) fn send_continue(&self, epoch: u64) {
        for (pod, p) in &self.parts {
            let eaten = |site| {
                matches!(self.cluster.faults.hit_and_sleep(site, pod), Some(FaultAction::Drop))
            };
            if eaten("ctl.continue") || eaten("ctl.partition") {
                continue;
            }
            if p.node.is_some_and(|n| self.cluster.partition.is_cut(MANAGER, n)) {
                continue;
            }
            self.send(pod, CtlMsg::Continue(epoch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentReply;

    fn done(pod: &str, epoch: u64) -> AgentReply {
        AgentReply::Done { pod: pod.into(), result: Err("rolled back".into()), epoch }
    }

    #[test]
    fn abort_drains_only_participants_that_still_owe_a_reply_on_live_nodes() {
        let cluster = Cluster::builder().nodes(2).build();
        let mut co: Coord<'_, CtlMsg, AgentReply> = Coord::new(&cluster, Duration::from_secs(5));
        let (a, _a_ctl) = co.register("a", Some(0));
        let (b, _b_ctl) = co.register("b", Some(0));
        let (_c, c_ctl) = co.register("c", Some(1));
        a.send(done("a", cluster.epoch())).unwrap();
        b.send(done("b", cluster.epoch())).unwrap();
        assert!(co.recv("done").is_ok() && co.recv("done").is_ok());

        // The third participant's node dies without a word.
        cluster.health.kill(1);
        let t0 = Instant::now();
        let err = co.abort("test".into());
        assert!(matches!(err, ZapcError::Aborted(_)));
        assert!(t0.elapsed() < Duration::from_secs(1), "nobody left to wait for");
        assert_eq!(co.late, 0, "the two early dones were consumed in-phase, not drained");
        assert_eq!(c_ctl.try_recv(), Ok(CtlMsg::Abort));
    }
}
