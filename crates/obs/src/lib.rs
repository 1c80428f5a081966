//! # zapc-obs — structured event tracing and per-phase metrics
//!
//! The paper's evaluation (§6, Figures 4–6) decomposes checkpoint and
//! restart cost into per-phase components; this crate is the substrate
//! that makes those decompositions observable in a running cluster:
//!
//! * [`Event`] — one structured observation: a span boundary or a
//!   monotonic counter increment, stamped with a sequence number and a
//!   timestamp (the simulated cluster clock when one is attached, a
//!   process-relative monotonic clock otherwise).
//! * [`RingCollector`] — where events go: the last N events plus
//!   per-phase durations and counter totals over everything seen.
//! * [`Observer`] — the cheap cloneable handle threaded through the
//!   Manager/Agent protocol, the checkpoint engines, and the network
//!   stack. A disabled observer is a `None`: every instrumentation site
//!   pays exactly one branch and allocates nothing.
//!
//! The overhead contract, relied on by the hot paths that carry this
//! handle: **when disabled, an instrumentation site must not allocate,
//! format, lock, or read a clock** — [`Observer::enabled`],
//! [`Observer::span`], and [`Observer::counter`] all short-circuit on the
//! `Option` before doing anything else. Keys are `&str` precisely so call
//! sites never build a `String` ahead of the branch.
//!
//! **How one observation is stored** is this crate's one decision: the
//! collector is a single mutex over the ring, the interned subject keys,
//! the span and counter totals, the drop count and the sequence number.
//! Recording takes that lock once — intern the subject (no allocation on
//! a hit), bump the total, assign the sequence number, push the event —
//! so ring order is sequence order and a replay of the ring reproduces
//! the totals of the events it still holds.
//!
//! This crate is intentionally dependency-free (std only): it sits below
//! every other crate in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What one [`Event`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A phase span opened (e.g. an Agent entering `ckpt.dump`).
    SpanStart {
        /// Phase name from the fixed taxonomy (see DESIGN.md).
        phase: &'static str,
    },
    /// A phase span closed; `dur_us` is its wall duration.
    SpanEnd {
        /// Phase name matching the corresponding `SpanStart`.
        phase: &'static str,
        /// Span duration in microseconds (monotonic clock).
        dur_us: u64,
    },
    /// A monotonic counter advanced by `delta`.
    Counter {
        /// Counter name (e.g. `net.retransmit`).
        name: &'static str,
        /// Increment (≥ 1).
        delta: u64,
    },
}

/// One structured observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (per collector, monotonic): the order in
    /// which events entered the ring.
    pub seq: u64,
    /// Timestamp in microseconds: the attached simulated clock when the
    /// observer has one ([`Observer::with_clock`]), else microseconds
    /// since the observer was created.
    pub t_us: u64,
    /// Subject of the observation: a pod name, `"manager"`, or a
    /// composite like `"w0/3"` (pod `w0`, socket ordinal 3). Interned:
    /// repeated events for the same subject share one allocation.
    pub key: Arc<str>,
    /// The observation itself.
    pub kind: EventKind,
}

/// Aggregation key: `(subject key, phase or counter name)`. The subject
/// is an interned `Arc<str>` — snapshot paths clone refcounts, never
/// string bytes.
pub type AggKey = (Arc<str>, &'static str);
/// Span aggregate: `(span count, total µs)`.
pub type SpanTotal = (u64, u64);

/// Everything the collector knows, behind its one lock.
#[derive(Default)]
struct Table {
    ring: VecDeque<Event>,
    keys: HashSet<Arc<str>>,
    spans: HashMap<AggKey, SpanTotal>,
    counters: HashMap<AggKey, u64>,
    dropped: u64,
    seq: u64,
}

/// Bounded in-memory collector: keeps the most recent `capacity` events
/// and counts what it evicted. Also aggregates per-phase span totals and
/// counter totals so reports don't have to replay the ring — aggregates
/// survive ring eviction.
pub struct RingCollector {
    capacity: usize,
    table: Mutex<Table>,
}

impl RingCollector {
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("nothing done under the collector lock panics")
    }

    /// Records one observation of `key`, returning the interned subject.
    fn record(&self, t_us: u64, key: &str, kind: EventKind) -> Arc<str> {
        let mut guard = self.table();
        let t = &mut *guard;
        let key = match t.keys.get(key) {
            Some(k) => Arc::clone(k),
            None => {
                let k: Arc<str> = Arc::from(key);
                t.keys.insert(Arc::clone(&k));
                k
            }
        };
        match kind {
            EventKind::SpanEnd { phase, dur_us } => {
                let total = t.spans.entry((Arc::clone(&key), phase)).or_default();
                total.0 += 1;
                total.1 += dur_us;
            }
            EventKind::Counter { name, delta } => {
                *t.counters.entry((Arc::clone(&key), name)).or_default() += delta;
            }
            EventKind::SpanStart { .. } => {}
        }
        if t.ring.len() >= self.capacity {
            t.ring.pop_front();
            t.dropped += 1;
        }
        t.ring.push_back(Event { seq: t.seq, t_us, key: Arc::clone(&key), kind });
        t.seq += 1;
        key
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.table().ring.iter().cloned().collect()
    }

    /// Number of events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.table().dropped
    }

    /// Per-phase aggregation over *all* events seen (not just the ones
    /// still in the ring): `(key, phase) → (count, total µs)`, sorted.
    pub fn phase_totals(&self) -> Vec<(AggKey, SpanTotal)> {
        let mut v: Vec<_> = self.table().spans.iter().map(|(k, t)| (k.clone(), *t)).collect();
        v.sort();
        v
    }

    /// Counter totals over all events seen: `(key, name) → total`, sorted.
    pub fn counter_totals(&self) -> Vec<(AggKey, u64)> {
        let mut v: Vec<_> = self.table().counters.iter().map(|(k, t)| (k.clone(), *t)).collect();
        v.sort();
        v
    }

    /// Sum of one counter across every key.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.table().counters.iter().filter(|((_, n), _)| *n == name).map(|(_, t)| t).sum()
    }

    /// Total microseconds spent in `phase` across every key.
    pub fn phase_us(&self, phase: &str) -> u64 {
        self.table().spans.iter().filter(|((_, p), _)| *p == phase).map(|(_, t)| t.1).sum()
    }

    /// Clears the ring, the aggregations and the drop count; what is
    /// recorded afterwards is counted from zero. Sequence numbers keep
    /// rising across a reset.
    pub fn reset(&self) {
        let mut t = self.table();
        *t = Table { seq: t.seq, ..Table::default() };
    }
}

impl std::fmt::Debug for RingCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.table();
        f.debug_struct("RingCollector")
            .field("capacity", &self.capacity)
            .field("len", &t.ring.len())
            .field("dropped", &t.dropped)
            .finish()
    }
}

struct ObsInner {
    ring: Arc<RingCollector>,
    t0: Instant,
    /// Microsecond source; `None` uses `t0.elapsed()`.
    clock: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
}

impl ObsInner {
    /// Stamps and records one observation. The clock is read before the
    /// collector's lock is taken: it is the caller's closure.
    fn emit(&self, key: &str, kind: EventKind) -> Arc<str> {
        let t_us = match &self.clock {
            Some(c) => c(),
            None => self.t0.elapsed().as_micros() as u64,
        };
        self.ring.record(t_us, key, kind)
    }
}

/// Cheap cloneable observation handle. The default ([`Observer::disabled`])
/// carries no state: every instrumentation site costs one branch.
#[derive(Clone, Default)]
pub struct Observer {
    inner: Option<Arc<ObsInner>>,
}

impl Observer {
    /// The inert observer (events off — the default everywhere).
    pub fn disabled() -> Observer {
        Observer { inner: None }
    }

    /// An observer plus the collector it records into, which retains the
    /// last `capacity` events (min 16).
    pub fn ring(capacity: usize) -> (Observer, Arc<RingCollector>) {
        let ring = Arc::new(RingCollector {
            capacity: capacity.max(16),
            table: Mutex::new(Table::default()),
        });
        let inner = ObsInner { ring: Arc::clone(&ring), t0: Instant::now(), clock: None };
        (Observer { inner: Some(Arc::new(inner)) }, ring)
    }

    /// Attaches a microsecond timestamp source (e.g. the simulated cluster
    /// clock), so event times are keyed on simulated time instead of the
    /// process-relative monotonic clock. No-op on a disabled observer.
    pub fn with_clock(self, clock: impl Fn() -> u64 + Send + Sync + 'static) -> Observer {
        let inner = self.inner.map(|i| {
            Arc::new(ObsInner { ring: Arc::clone(&i.ring), t0: i.t0, clock: Some(Arc::new(clock)) })
        });
        Observer { inner }
    }

    /// Whether events are being recorded. `#[inline]` so the disabled
    /// path is the promised single branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances monotonic counter `name` (keyed by `key`) by `delta`.
    #[inline]
    pub fn counter(&self, key: &str, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.emit(key, EventKind::Counter { name, delta });
        }
    }

    /// Opens a phase span. The returned guard emits `SpanEnd` when
    /// dropped or [`Span::end`]ed; on a disabled observer it is inert.
    #[inline]
    pub fn span(&self, key: &str, phase: &'static str) -> Span {
        let state = self.inner.as_ref().map(|inner| {
            let key = inner.emit(key, EventKind::SpanStart { phase });
            (Arc::clone(inner), key, phase, Instant::now())
        });
        Span { state }
    }
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Observer({})", if self.enabled() { "enabled" } else { "disabled" })
    }
}

/// Guard for one open phase span. Durations use the monotonic clock (the
/// simulated clock, when attached, stamps the *event times* instead — it
/// is too coarse for sub-millisecond phases).
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    state: Option<(Arc<ObsInner>, Arc<str>, &'static str, Instant)>,
}

impl Span {
    /// Closes the span explicitly, returning its duration in µs (0 when
    /// the observer is disabled).
    pub fn end(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        match self.state.take() {
            Some((inner, key, phase, start)) => {
                let dur_us = start.elapsed().as_micros() as u64;
                inner.emit(&key, EventKind::SpanEnd { phase, dur_us });
                dur_us
            }
            None => 0,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        assert!(!obs.enabled());
        obs.counter("k", "c", 3);
        let s = obs.span("k", "p");
        assert_eq!(s.end(), 0);
    }

    #[test]
    fn counters_aggregate() {
        let (obs, ring) = Observer::ring(64);
        obs.counter("a", "net.retransmit", 2);
        obs.counter("a", "net.retransmit", 3);
        obs.counter("b", "net.retransmit", 1);
        obs.counter("a", "net.reset", 1);
        assert_eq!(ring.counter_sum("net.retransmit"), 6);
        let totals = ring.counter_totals();
        assert_eq!(
            totals,
            vec![
                (("a".into(), "net.reset"), 1),
                (("a".into(), "net.retransmit"), 5),
                (("b".into(), "net.retransmit"), 1),
            ]
        );
    }

    #[test]
    fn spans_emit_start_and_end() {
        let (obs, ring) = Observer::ring(64);
        {
            let _s = obs.span("pod", "ckpt.dump");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0].kind, EventKind::SpanStart { phase: "ckpt.dump" }));
        match evs[1].kind {
            EventKind::SpanEnd { phase, dur_us } => {
                assert_eq!(phase, "ckpt.dump");
                assert!(dur_us >= 1000, "span too short: {dur_us}");
            }
            ref k => panic!("unexpected {k:?}"),
        }
        let totals = ring.phase_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].0, ("pod".into(), "ckpt.dump"));
        assert_eq!(totals[0].1 .0, 1);
        assert!(ring.phase_us("ckpt.dump") >= 1000);
    }

    #[test]
    fn explicit_end_returns_duration_once() {
        let (obs, ring) = Observer::ring(8);
        let s = obs.span("k", "p");
        let d = s.end();
        // Drop already ran inside end(); exactly one SpanEnd recorded.
        let ends = ring
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanEnd { .. }))
            .count();
        assert_eq!(ends, 1);
        assert!(d < 1_000_000);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let (obs, ring) = Observer::ring(16);
        for i in 0..40 {
            obs.counter("k", "c", i);
        }
        assert_eq!(ring.events().len(), 16);
        assert_eq!(ring.dropped(), 24);
        // Aggregation still saw everything.
        assert_eq!(ring.counter_sum("c"), (0..40).sum::<u64>());
        ring.reset();
        assert!(ring.events().is_empty());
        assert_eq!(ring.counter_sum("c"), 0);
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let (obs, ring) = Observer::ring(64);
        for _ in 0..10 {
            obs.counter("k", "c", 1);
        }
        let evs = ring.events();
        for w in evs.windows(2) {
            assert!(w[1].seq > w[0].seq);
        }
    }

    #[test]
    fn attached_clock_stamps_events() {
        let (obs, ring) = Observer::ring(8);
        let obs = obs.with_clock(|| 42_000_000);
        obs.counter("k", "c", 1);
        assert_eq!(ring.events()[0].t_us, 42_000_000);
    }

    #[test]
    fn interned_events_share_one_key_allocation() {
        let (obs, ring) = Observer::ring(64);
        for _ in 0..5 {
            obs.counter("same-subject", "c", 1);
        }
        let evs = ring.events();
        for w in evs.windows(2) {
            assert!(
                Arc::ptr_eq(&w[0].key, &w[1].key),
                "interner must hand out one shared Arc per subject"
            );
        }
    }

    #[test]
    fn reset_empties_totals_and_counts_afresh() {
        // Totals are empty after a reset; what is recorded afterwards is
        // counted from zero, and pre-reset values don't resurface.
        let (obs, ring) = Observer::ring(64);
        obs.counter("k", "c", 7);
        let _s = obs.span("k", "p").end();
        ring.reset();
        assert!(ring.counter_totals().is_empty());
        assert!(ring.phase_totals().is_empty());
        obs.counter("k", "c", 2);
        assert_eq!(ring.counter_totals(), vec![(("k".into(), "c"), 2)]);
    }

    #[test]
    fn totals_survive_eviction_from_many_threads() {
        let (obs, ring) = Observer::ring(16);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    let key = format!("t{t}");
                    for _ in 0..100 {
                        obs.counter(&key, "c", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.counter_sum("c"), 400);
        assert_eq!(ring.events().len(), 16);
        assert_eq!(ring.dropped(), 400 - 16);
        // Sequence numbers are drawn under the ring's lock: ring order is
        // sequence order even with concurrent writers.
        for w in ring.events().windows(2) {
            assert!(w[1].seq > w[0].seq, "ring out of sequence order: {w:?}");
        }
    }
}
