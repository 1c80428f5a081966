//! Cluster wall clock, per-pod virtual clocks, and application timers.
//!
//! §5: applications commonly run timeout mechanisms above the transport
//! (soft-fault detection, idle-connection expiry, reliability over UDP).
//! A long gap between checkpoint and restart would spuriously trip them, so
//! ZapC *virtualizes the system calls that report time*: at restart it
//! computes the delta between the current time and the time recorded at
//! checkpoint and biases every subsequent time inquiry by that delay.
//! Virtualization is optional per pod, for applications that need absolute
//! time.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};

/// The cluster-wide wall clock (milliseconds since simulator start).
#[derive(Debug, Clone)]
pub struct ClusterClock {
    epoch: Instant,
}

impl ClusterClock {
    /// Starts the clock now.
    pub fn new() -> Arc<ClusterClock> {
        Arc::new(ClusterClock { epoch: Instant::now() })
    }

    /// Milliseconds since simulator start.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Microseconds since simulator start (finer-grained measurements).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A boxed millisecond-clock closure over this clock, for components
    /// that take a pluggable time source (e.g. a partition schedule) and
    /// must tick on cluster time rather than their own.
    pub fn ms_fn(self: &Arc<ClusterClock>) -> Box<dyn Fn() -> u64 + Send + Sync> {
        let clock = Arc::clone(self);
        Box::new(move || clock.now_ms())
    }
}

/// A pod's view of time: the cluster clock plus a restart bias.
#[derive(Debug)]
pub struct VirtualClock {
    /// Milliseconds subtracted from the real clock (grows with each
    /// checkpoint/restart gap).
    bias_ms: AtomicI64,
    /// When false, applications see the raw cluster clock.
    virtualize: AtomicBool,
}

impl VirtualClock {
    /// A fresh clock with no bias; `virtualize` selects per-pod behaviour.
    pub fn new(virtualize: bool) -> Arc<VirtualClock> {
        Arc::new(VirtualClock {
            bias_ms: AtomicI64::new(0),
            virtualize: AtomicBool::new(virtualize),
        })
    }

    /// The time the pod's applications observe.
    pub fn now_ms(&self, real: &ClusterClock) -> u64 {
        let raw = real.now_ms() as i64;
        if self.virtualize.load(Ordering::Relaxed) {
            (raw - self.bias_ms.load(Ordering::Relaxed)).max(0) as u64
        } else {
            raw as u64
        }
    }

    /// Current bias in milliseconds.
    pub fn bias_ms(&self) -> i64 {
        self.bias_ms.load(Ordering::Relaxed)
    }

    /// Restores the bias from a checkpoint and adds the downtime delta:
    /// `delta = now_real − checkpoint_real`.
    pub fn apply_restart_delta(&self, saved_bias_ms: i64, checkpoint_real_ms: u64, now_real_ms: u64) {
        let delta = now_real_ms as i64 - checkpoint_real_ms as i64;
        self.bias_ms.store(saved_bias_ms + delta.max(0), Ordering::Relaxed);
    }

    /// Whether time virtualization is active.
    pub fn is_virtualized(&self) -> bool {
        self.virtualize.load(Ordering::Relaxed)
    }
}

/// One application timer (POSIX-timer-like), kept in pod-virtual time so
/// restart needs no per-timer fixup when the clock is virtualized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timer {
    /// Timer id unique within the process.
    pub id: u64,
    /// Expiry in pod-virtual milliseconds.
    pub expires_at_ms: u64,
    /// Re-arm interval for periodic timers.
    pub interval_ms: Option<u64>,
    /// Number of times this timer has fired.
    pub fired: u64,
}

impl Encode for Timer {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.id);
        w.put_u64(self.expires_at_ms);
        w.put(&self.interval_ms);
        w.put_u64(self.fired);
    }
}

impl Decode for Timer {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Timer {
            id: r.get_u64()?,
            expires_at_ms: r.get_u64()?,
            interval_ms: r.get()?,
            fired: r.get_u64()?,
        })
    }
}

/// The timers of one process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimerSet {
    timers: Vec<Timer>,
    next_id: u64,
}

impl TimerSet {
    /// Arms a new timer expiring at `now + delay_ms`, optionally periodic.
    pub fn arm(&mut self, now_ms: u64, delay_ms: u64, interval_ms: Option<u64>) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.timers.push(Timer {
            id,
            expires_at_ms: now_ms + delay_ms,
            interval_ms,
            fired: 0,
        });
        id
    }

    /// Disarms a timer; returns whether it existed.
    pub fn disarm(&mut self, id: u64) -> bool {
        let before = self.timers.len();
        self.timers.retain(|t| t.id != id);
        before != self.timers.len()
    }

    /// Polls one timer: returns `true` (and re-arms or removes it) if it
    /// has expired at `now_ms`.
    pub fn poll(&mut self, id: u64, now_ms: u64) -> bool {
        let Some(idx) = self.timers.iter().position(|t| t.id == id) else { return false };
        if self.timers[idx].expires_at_ms > now_ms {
            return false;
        }
        let t = &mut self.timers[idx];
        t.fired += 1;
        match t.interval_ms {
            Some(i) => t.expires_at_ms += i.max(1),
            None => {
                self.timers.remove(idx);
            }
        }
        true
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.timers.len()
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty()
    }

    /// Checkpoint view of the timers.
    pub fn timers(&self) -> &[Timer] {
        &self.timers
    }

    /// Shifts every expiry by `delta_ms` — the restart fixup for pods that
    /// run with time virtualization *disabled* ("standard operating system
    /// timers owned by the application are also virtualized", §5; without
    /// a clock bias the expiries themselves must move).
    pub fn shift(&mut self, delta_ms: i64) {
        for t in &mut self.timers {
            t.expires_at_ms = (t.expires_at_ms as i64 + delta_ms).max(0) as u64;
        }
    }
}

impl Encode for TimerSet {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.timers);
        w.put_u64(self.next_id);
    }
}

impl Decode for TimerSet {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(TimerSet { timers: r.get()?, next_id: r.get_u64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_clock_monotonic() {
        let c = ClusterClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_bias_hides_downtime() {
        let real = ClusterClock::new();
        let vc = VirtualClock::new(true);
        let t_ckpt_virtual = vc.now_ms(&real);
        let t_ckpt_real = real.now_ms();
        // Simulate 10 s of downtime by claiming restart happens later.
        vc.apply_restart_delta(vc.bias_ms(), t_ckpt_real, t_ckpt_real + 10_000);
        let after = vc.now_ms(&real);
        // Virtual time continues from the checkpoint, not 10 s later.
        assert!(after <= t_ckpt_virtual + 100, "downtime leaked: {after} vs {t_ckpt_virtual}");
    }

    #[test]
    fn non_virtualized_clock_sees_raw_time() {
        let real = ClusterClock::new();
        let vc = VirtualClock::new(false);
        vc.apply_restart_delta(0, 0, 50_000);
        assert!(vc.now_ms(&real) < 10_000, "bias must not apply when disabled");
        assert_eq!(vc.bias_ms(), 50_000, "bias still recorded for later enablement");
    }

    #[test]
    fn oneshot_timer_fires_once() {
        let mut ts = TimerSet::default();
        let id = ts.arm(1000, 50, None);
        assert!(!ts.poll(id, 1049));
        assert!(ts.poll(id, 1050));
        assert!(!ts.poll(id, 2000), "one-shot removed after firing");
        assert!(ts.is_empty());
    }

    #[test]
    fn periodic_timer_rearms() {
        let mut ts = TimerSet::default();
        let id = ts.arm(0, 10, Some(10));
        assert!(ts.poll(id, 10));
        assert!(!ts.poll(id, 15));
        assert!(ts.poll(id, 20));
        assert_eq!(ts.timers()[0].fired, 2);
    }

    #[test]
    fn disarm_removes() {
        let mut ts = TimerSet::default();
        let id = ts.arm(0, 10, None);
        assert!(ts.disarm(id));
        assert!(!ts.disarm(id));
        assert!(!ts.poll(id, 100));
    }

    #[test]
    fn shift_moves_expiries() {
        let mut ts = TimerSet::default();
        let id = ts.arm(0, 100, None);
        ts.shift(500);
        assert!(!ts.poll(id, 400));
        assert!(ts.poll(id, 600));
    }

    #[test]
    fn timerset_round_trip() {
        let mut ts = TimerSet::default();
        ts.arm(10, 5, Some(7));
        ts.arm(10, 50, None);
        let mut w = RecordWriter::new();
        ts.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = TimerSet::decode(&mut r).unwrap();
        assert_eq!(back, ts);
        assert!(r.is_empty());
    }
}
