//! One retry/backoff policy for every Manager phase.
//!
//! Before this module each retrying phase (coordinated checkpoint,
//! migration phase 1, manifest restart, live pre-copy rounds) carried its
//! own ad-hoc loop with slightly different backoff arithmetic. They now
//! share a [`RetryPolicy`]: bounded attempts, linear backoff with a hard
//! cap, deterministic jitter (seeded, so same-seed chaos runs replay the
//! same sleep schedule), and a typed exhaustion error.
//!
//! Semantics every caller relies on:
//!
//! * attempt `n` (1-based) sleeps `min(backoff * n, MAX_BACKOFF)` plus a
//!   deterministic jitter of at most `backoff / 2` **before retrying**;
//!   the first attempt runs immediately;
//! * only errors the caller's `retryable` predicate accepts are retried —
//!   anything else surfaces immediately and unwrapped;
//! * when every attempt fails retryably, the result is
//!   [`ZapcError::Exhausted`] carrying the final attempt's error — unless
//!   the policy allowed no retries at all (`retries == 0`), in which case
//!   the raw error surfaces exactly as it did before this module existed.

use crate::{ZapcError, ZapcResult};
use std::time::Duration;

/// Hard cap on any single sleep (pre-jitter).
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Seed of the deterministic jitter sequence.
const JITTER_SEED: u64 = 0;

/// A bounded retry-with-backoff policy.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = try once).
    pub retries: u32,
    /// Base delay; attempt `n` waits about `backoff * n`.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// A policy with `retries` extra attempts and the given base backoff.
    pub fn new(retries: u32, backoff: Duration) -> RetryPolicy {
        RetryPolicy { retries, backoff }
    }

    /// The sleep before retry `attempt` (1-based): linear backoff, capped,
    /// plus a deterministic jitter in `[0, backoff/2)` derived from
    /// `attempt`. Pure, so chaos traces replay bit-exactly.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let base = self.backoff.checked_mul(attempt).unwrap_or(MAX_BACKOFF).min(MAX_BACKOFF);
        let half = (self.backoff / 2).as_micros() as u64;
        if half == 0 {
            return base;
        }
        // splitmix64 over (seed, attempt): cheap, stateless, deterministic.
        let mut z = JITTER_SEED.wrapping_add(attempt as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        base + Duration::from_micros(z % half)
    }

    /// Runs `op` under this policy. `op` receives the 0-based attempt
    /// index; `retryable` decides which errors are worth another attempt
    /// (return `false` to surface the error immediately).
    pub fn run<T>(
        &self,
        mut op: impl FnMut(u32) -> ZapcResult<T>,
        mut retryable: impl FnMut(&ZapcError) -> bool,
    ) -> ZapcResult<T> {
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if !retryable(&e) {
                        return Err(e);
                    }
                    if attempt >= self.retries {
                        // Exhausted. A no-retry policy surfaces the raw
                        // error (there was nothing to exhaust).
                        return if self.retries == 0 {
                            Err(e)
                        } else {
                            Err(ZapcError::Exhausted {
                                attempts: attempt + 1,
                                last: Box::new(e),
                            })
                        };
                    }
                    attempt += 1;
                    std::thread::sleep(self.delay_for(attempt));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_needs_no_sleep() {
        let p = RetryPolicy::new(3, Duration::from_secs(60));
        let t0 = std::time::Instant::now();
        let out = p.run(|_| Ok::<_, ZapcError>(7), |_| true).unwrap();
        assert_eq!(out, 7);
        assert!(t0.elapsed() < Duration::from_secs(1), "no backoff on success");
    }

    #[test]
    fn retries_until_success() {
        let p = RetryPolicy::new(3, Duration::from_micros(10));
        let mut calls = 0;
        let out = p
            .run(
                |attempt| {
                    calls += 1;
                    if attempt < 2 {
                        Err(ZapcError::Aborted("transient".into()))
                    } else {
                        Ok(attempt)
                    }
                },
                |_| true,
            )
            .unwrap();
        assert_eq!(out, 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn exhaustion_is_typed_and_carries_the_last_error() {
        let p = RetryPolicy::new(2, Duration::from_micros(10));
        let err = p
            .run(
                |_| Err::<(), _>(ZapcError::Aborted("still down".into())),
                |_| true,
            )
            .unwrap_err();
        match err {
            ZapcError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, ZapcError::Aborted(_)));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn zero_retries_surfaces_the_raw_error() {
        let p = RetryPolicy::new(0, Duration::from_micros(10));
        let err = p
            .run(|_| Err::<(), _>(ZapcError::Aborted("one shot".into())), |_| true)
            .unwrap_err();
        assert!(matches!(err, ZapcError::Aborted(_)), "no Exhausted wrapper: {err:?}");
    }

    #[test]
    fn non_retryable_errors_surface_immediately() {
        let p = RetryPolicy::new(5, Duration::from_micros(10));
        let mut calls = 0;
        let err = p
            .run(
                |_| {
                    calls += 1;
                    Err::<(), _>(ZapcError::NotFound("gone".into()))
                },
                |e| matches!(e, ZapcError::Aborted(_)),
            )
            .unwrap_err();
        assert_eq!(calls, 1);
        assert!(matches!(err, ZapcError::NotFound(_)));
    }

    #[test]
    fn delay_is_capped_jittered_and_deterministic() {
        let p = RetryPolicy::new(30, Duration::from_millis(100));
        for attempt in 1..=30 {
            let d = p.delay_for(attempt);
            assert!(d >= Duration::from_millis(100));
            assert!(d < MAX_BACKOFF + Duration::from_millis(50), "cap + jitter bound: {d:?}");
            assert_eq!(d, p.delay_for(attempt), "jitter is pure in the attempt");
        }
        assert!(p.delay_for(30) >= MAX_BACKOFF, "attempt 30 sleeps the cap, not 3 s");
    }
}
