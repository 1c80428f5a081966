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
//! * [`EventSink`] — where events go. The built-in [`RingCollector`]
//!   keeps the last N events behind a single mutex and aggregates
//!   per-phase durations and counter totals; callers can substitute any
//!   `Send + Sync` sink.
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
//! **Enabled-path cost model** (the hot-path speed pass): subject keys
//! are interned to `Arc<str>` through a per-thread cache, so the steady
//! state allocates nothing per event; span/counter aggregation goes
//! through interned `AggCell`s — plain relaxed atomics resolved through
//! the same per-thread cache — so the aggregate path takes **no lock and
//! performs no hashing of owned strings** once a `(key, name)` pair has
//! been seen by a thread. The only per-event lock is the ring buffer's,
//! which exists to preserve the ordered event log. Aggregates are merged
//! lazily: [`RingCollector::phase_totals`] and friends read the atomic
//! cells at snapshot time (O(cells) refcount bumps, no per-key string
//! clones).
//!
//! This crate is intentionally dependency-free (std only): it sits below
//! every other crate in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// Global sequence number (per observer, monotonic).
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

/// Destination for events. Implementations must be cheap: sinks are
/// invoked from Agent threads and (for net counters) pump-thread context.
pub trait EventSink: Send + Sync {
    /// Records one event. Must not block for long; dropping is allowed.
    fn record(&self, ev: Event);
}

/// Aggregation key: `(subject key, phase or counter name)`. The subject
/// is an interned `Arc<str>` — snapshot paths clone refcounts, never
/// string bytes.
pub type AggKey = (Arc<str>, &'static str);
/// Span aggregate: `(span count, total µs)`.
pub type SpanTotal = (u64, u64);

// ---------------------------------------------------------------------------
// FNV-1a — the workspace's standard cheap hash, used here to key the
// per-thread caches without owning the string.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Process-wide id source so per-thread caches can tell instances apart.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

fn next_instance_id() -> u64 {
    NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Per-thread caches are bounded so long-lived threads observing many
/// short-lived collectors (the test suite) can't grow without bound.
const THREAD_CACHE_CAP: usize = 1024;

// ---------------------------------------------------------------------------
// Key interner: &str → Arc<str> with a per-thread cache so the enabled
// hot path allocates nothing for a subject it has seen before.

struct Interner {
    id: u64,
    table: Mutex<HashSet<Arc<str>>>,
}

thread_local! {
    /// (interner id, fnv(key)) → interned key. Verified on hit.
    static KEY_CACHE: RefCell<HashMap<(u64, u64), Arc<str>>> =
        RefCell::new(HashMap::new());
}

impl Interner {
    fn new() -> Interner {
        Interner { id: next_instance_id(), table: Mutex::new(HashSet::new()) }
    }

    fn intern(&self, key: &str) -> Arc<str> {
        let slot = (self.id, fnv1a(key.as_bytes()));
        let hit = KEY_CACHE.with(|c| match c.borrow().get(&slot) {
            Some(a) if **a == *key => Some(Arc::clone(a)),
            _ => None,
        });
        if let Some(a) = hit {
            return a;
        }
        // Cold path: consult (and fill) the shared table, then cache.
        let interned = {
            let mut table = self.table.lock().expect("interner poisoned");
            match table.get(key) {
                Some(a) => Arc::clone(a),
                None => {
                    let a: Arc<str> = Arc::from(key);
                    table.insert(Arc::clone(&a));
                    a
                }
            }
        };
        KEY_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            if c.len() >= THREAD_CACHE_CAP {
                c.clear();
            }
            c.insert(slot, Arc::clone(&interned));
        });
        interned
    }
}

// ---------------------------------------------------------------------------
// Aggregate cells: one interned cell per (subject, name, kind), updated
// with relaxed atomics and read lazily at snapshot time.

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum CellKind {
    Span,
    Counter,
}

/// One aggregation slot. `n` counts events (span closes / counter
/// increments); `v` accumulates the value (µs / delta). Zeroed — not
/// discarded — on [`RingCollector::reset`] so per-thread caches stay
/// coherent.
struct AggCell {
    key: Arc<str>,
    name: &'static str,
    kind: CellKind,
    n: AtomicU64,
    v: AtomicU64,
}

type CellsByName = HashMap<(&'static str, CellKind), Arc<AggCell>>;

/// Cache slot: (collector id, name ptr, fnv(key), kind). Verified on hit.
type CellSlot = (u64, usize, u64, u8);

thread_local! {
    static CELL_CACHE: RefCell<HashMap<CellSlot, Arc<AggCell>>> =
        RefCell::new(HashMap::new());
}

/// Bounded in-memory sink: keeps the most recent `capacity` events behind
/// one mutex and counts what it evicted. Also aggregates per-phase span
/// totals and counter totals so reports don't have to replay the ring —
/// aggregates survive ring eviction and are updated lock-free (interned
/// atomic cells) on the hot path.
pub struct RingCollector {
    id: u64,
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    /// subject → (name, kind) → cell. Locked only to intern a cell the
    /// recording thread hasn't cached yet, and at snapshot time.
    cells: Mutex<HashMap<Arc<str>, CellsByName>>,
    dropped: AtomicU64,
}

impl RingCollector {
    /// A collector retaining the last `capacity` events (min 16).
    pub fn new(capacity: usize) -> Arc<RingCollector> {
        Arc::new(RingCollector {
            id: next_instance_id(),
            capacity: capacity.max(16),
            ring: Mutex::new(VecDeque::new()),
            cells: Mutex::new(HashMap::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// Resolves the aggregate cell for `(key, name, kind)`: per-thread
    /// cache first (no lock, no allocation), interning under the mutex
    /// only the first time this thread meets the pair.
    fn cell(&self, key: &str, name: &'static str, kind: CellKind) -> Arc<AggCell> {
        let slot = (self.id, name.as_ptr() as usize, fnv1a(key.as_bytes()), kind as u8);
        let hit = CELL_CACHE.with(|c| match c.borrow().get(&slot) {
            Some(cell) if cell.name == name && *cell.key == *key => Some(Arc::clone(cell)),
            _ => None,
        });
        if let Some(cell) = hit {
            return cell;
        }
        let cell = {
            let mut cells = self.cells.lock().expect("cells poisoned");
            let interned: Arc<str> = match cells.get_key_value(key) {
                Some((k, _)) => Arc::clone(k),
                None => Arc::from(key),
            };
            let by_name = cells.entry(Arc::clone(&interned)).or_default();
            Arc::clone(by_name.entry((name, kind)).or_insert_with(|| {
                Arc::new(AggCell {
                    key: interned,
                    name,
                    kind,
                    n: AtomicU64::new(0),
                    v: AtomicU64::new(0),
                })
            }))
        };
        CELL_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            if c.len() >= THREAD_CACHE_CAP {
                c.clear();
            }
            c.insert(slot, Arc::clone(&cell));
        });
        cell
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().expect("ring poisoned").iter().cloned().collect()
    }

    /// Number of events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Per-phase aggregation over *all* events seen (not just the ones
    /// still in the ring): `(key, phase) → (count, total µs)`, sorted.
    /// Merge happens here, lazily: each cell's relaxed atomics are read
    /// once; keys are refcount clones of the interned `Arc<str>`s.
    pub fn phase_totals(&self) -> Vec<(AggKey, SpanTotal)> {
        let mut v = self.snapshot_cells(CellKind::Span);
        v.sort();
        v
    }

    /// Counter totals over all events seen: `(key, name) → total`, sorted.
    pub fn counter_totals(&self) -> Vec<(AggKey, u64)> {
        let mut v: Vec<_> = self
            .snapshot_cells(CellKind::Counter)
            .into_iter()
            .map(|(k, (_, total))| (k, total))
            .collect();
        v.sort();
        v
    }

    /// Reads every live cell of `kind` as `(key, (n, v))`, skipping cells
    /// that have recorded nothing (fresh or zeroed by [`Self::reset`]).
    fn snapshot_cells(&self, kind: CellKind) -> Vec<(AggKey, (u64, u64))> {
        let cells = self.cells.lock().expect("cells poisoned");
        cells
            .values()
            .flat_map(|by_name| by_name.values())
            .filter(|c| c.kind == kind)
            .filter_map(|c| {
                let n = c.n.load(Ordering::Relaxed);
                if n == 0 {
                    return None;
                }
                Some(((Arc::clone(&c.key), c.name), (n, c.v.load(Ordering::Relaxed))))
            })
            .collect()
    }

    /// Sum of one counter across every key.
    pub fn counter_sum(&self, name: &str) -> u64 {
        let cells = self.cells.lock().expect("cells poisoned");
        cells
            .values()
            .flat_map(|by_name| by_name.values())
            .filter(|c| c.kind == CellKind::Counter && c.name == name)
            .map(|c| c.v.load(Ordering::Relaxed))
            .sum()
    }

    /// Total microseconds spent in `phase` across every key.
    pub fn phase_us(&self, phase: &str) -> u64 {
        let cells = self.cells.lock().expect("cells poisoned");
        cells
            .values()
            .flat_map(|by_name| by_name.values())
            .filter(|c| c.kind == CellKind::Span && c.name == phase)
            .map(|c| c.v.load(Ordering::Relaxed))
            .sum()
    }

    /// Clears the ring and the aggregations. Cells are zeroed in place
    /// rather than discarded: per-thread caches in other threads keep
    /// pointing at live cells, so no increment recorded after the reset
    /// can be lost.
    pub fn reset(&self) {
        self.ring.lock().expect("ring poisoned").clear();
        let cells = self.cells.lock().expect("cells poisoned");
        for cell in cells.values().flat_map(|by_name| by_name.values()) {
            cell.n.store(0, Ordering::Relaxed);
            cell.v.store(0, Ordering::Relaxed);
        }
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl EventSink for RingCollector {
    fn record(&self, ev: Event) {
        match ev.kind {
            EventKind::SpanEnd { phase, dur_us } => {
                let cell = self.cell(&ev.key, phase, CellKind::Span);
                cell.n.fetch_add(1, Ordering::Relaxed);
                cell.v.fetch_add(dur_us, Ordering::Relaxed);
            }
            EventKind::Counter { name, delta } => {
                let cell = self.cell(&ev.key, name, CellKind::Counter);
                cell.n.fetch_add(1, Ordering::Relaxed);
                cell.v.fetch_add(delta, Ordering::Relaxed);
            }
            EventKind::SpanStart { .. } => {}
        }
        let mut ring = self.ring.lock().expect("ring poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }
}

impl std::fmt::Debug for RingCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingCollector")
            .field("capacity", &self.capacity)
            .field("len", &self.ring.lock().map(|r| r.len()).unwrap_or(0))
            .field("dropped", &self.dropped())
            .finish()
    }
}

struct ObsInner {
    sink: Arc<dyn EventSink>,
    interner: Arc<Interner>,
    seq: AtomicU64,
    t0: Instant,
    /// Microsecond source; `None` uses `t0.elapsed()`.
    clock: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
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

    /// An observer recording into `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Observer {
        Observer {
            inner: Some(Arc::new(ObsInner {
                sink,
                interner: Arc::new(Interner::new()),
                seq: AtomicU64::new(0),
                t0: Instant::now(),
                clock: None,
            })),
        }
    }

    /// Convenience: a ring-buffered observer plus its collector.
    pub fn ring(capacity: usize) -> (Observer, Arc<RingCollector>) {
        let ring = RingCollector::new(capacity);
        (Observer::new(Arc::<RingCollector>::clone(&ring)), ring)
    }

    /// Attaches a microsecond timestamp source (e.g. the simulated cluster
    /// clock), so event times are keyed on simulated time instead of the
    /// process-relative monotonic clock. No-op on a disabled observer.
    pub fn with_clock(self, clock: impl Fn() -> u64 + Send + Sync + 'static) -> Observer {
        match self.inner {
            Some(i) => Observer {
                inner: Some(Arc::new(ObsInner {
                    sink: Arc::clone(&i.sink),
                    interner: Arc::clone(&i.interner),
                    seq: AtomicU64::new(i.seq.load(Ordering::Relaxed)),
                    t0: i.t0,
                    clock: Some(Arc::new(clock)),
                })),
            },
            None => self,
        }
    }

    /// Whether events are being recorded. `#[inline]` so the disabled
    /// path is the promised single branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_us(inner: &ObsInner) -> u64 {
        match &inner.clock {
            Some(c) => c(),
            None => inner.t0.elapsed().as_micros() as u64,
        }
    }

    fn emit(inner: &ObsInner, key: Arc<str>, kind: EventKind) {
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        inner.sink.record(Event { seq, t_us: Self::now_us(inner), key, kind });
    }

    /// Advances monotonic counter `name` (keyed by `key`) by `delta`.
    #[inline]
    pub fn counter(&self, key: &str, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            let key = inner.interner.intern(key);
            Self::emit(inner, key, EventKind::Counter { name, delta });
        }
    }

    /// Opens a phase span. The returned guard emits `SpanEnd` when
    /// dropped or [`Span::end`]ed; on a disabled observer it is inert.
    #[inline]
    pub fn span(&self, key: &str, phase: &'static str) -> Span {
        match &self.inner {
            Some(inner) => {
                let key = inner.interner.intern(key);
                Self::emit(inner, Arc::clone(&key), EventKind::SpanStart { phase });
                Span { state: Some((Arc::clone(inner), key, phase, Instant::now())) }
            }
            None => Span { state: None },
        }
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
                Observer::emit(&inner, key, EventKind::SpanEnd { phase, dur_us });
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
    fn reset_keeps_cells_coherent_for_cached_threads() {
        // A recording thread that cached its cells before a reset keeps
        // writing into the *same* (zeroed) cells: nothing recorded after
        // the reset is lost, and stale pre-reset values don't resurface.
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
    }
}
