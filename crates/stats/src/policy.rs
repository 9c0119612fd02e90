//! Unified retry/timeout/backoff policy.
//!
//! Every retry loop in the workspace used to roll its own backoff — the
//! ledger slept `1 << attempt` milliseconds with no cap and no jitter, the
//! serve engine computed its `retry-after-ms` hint with an unrelated shift —
//! which made retry behaviour impossible to audit or to reproduce under the
//! fault plane. This module replaces all of them with one [`RetryPolicy`]:
//! capped exponential backoff with *deterministic* jitter.
//!
//! # Determinism
//!
//! Jitter is drawn from the same substream machinery as the fault plane
//! ([`crate::fault`]): the delay for the *k*-th sleep at a [`PolicySite`] is
//! a pure function of `(fault-plan seed, site, k)`. A chaos run's sleep
//! schedule is therefore exactly as reproducible as its fault pattern; with
//! no plan installed the seed defaults to 0 and the schedule is still fixed.
//!
//! # Sites
//!
//! [`PolicySite`] labels the retrying call-sites, mirroring
//! [`crate::fault::FaultSite`] for injection points: stable discriminants
//! key the jitter substreams and the per-site sleep counters whose total
//! [`sleeps`] returns (the serve daemon's `health` verb reports it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::fault;
use crate::rng::SmallRng;

/// Stream label mixed into the fault-plan seed so policy jitter draws never
/// collide with fault-plane rolls for the same (site, invocation) pair.
const POLICY_STREAM: u64 = 0x706f_6c69_6379_0000; // "policy"

/// The retrying call-sites in the stack.
///
/// Discriminants are stable identifiers: they key the jitter substreams and
/// the per-site sleep counters, so reordering variants would change every
/// deterministic sleep schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PolicySite {
    /// Storage-layer writes (`alic_core::store::replace` and `append`):
    /// every durable write, the serve health probe included.
    LedgerWrite = 0,
}

/// Number of distinct policy sites.
pub const POLICY_SITE_COUNT: usize = 1;

impl PolicySite {
    /// Stable index of this site (also its jitter substream label).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-site invocation counters: each performed backoff sleep consumes one
/// jitter-substream index, so serial re-runs reproduce the same schedule.
static INVOCATIONS: [AtomicU64; POLICY_SITE_COUNT] = [AtomicU64::new(0)];
/// Per-site counters of sleeps actually performed (observability).
static SLEEPS: [AtomicU64; POLICY_SITE_COUNT] = [AtomicU64::new(0)];

/// Total backoff sleeps performed by all policies in this process.
pub fn sleeps() -> u64 {
    SLEEPS.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// Backoff sleeps performed at one site.
#[cfg(test)]
fn sleeps_at(site: PolicySite) -> u64 {
    SLEEPS[site.index()].load(Ordering::Relaxed)
}

/// A capped-exponential retry/backoff policy with deterministic jitter.
///
/// Attempt *k* (1-based) sleeps `min(base · 2^(k-1), cap)` before running,
/// scaled by a jitter factor in `[1 − jitter/2, 1 + jitter/2)` drawn from
/// the fault-plan substream for the site, then clamped to `cap` again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (the first attempt plus `attempts - 1` retries).
    pub attempts: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Jitter width as a fraction of the delay (0.0 = none, 0.5 = ±25%).
    pub jitter: f64,
}

impl RetryPolicy {
    /// Storage-layer writes (`alic_core::store`): 5 attempts, 1 ms → 16 ms,
    /// ±25% jitter.
    pub const LEDGER: RetryPolicy = RetryPolicy {
        attempts: 5,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(16),
        jitter: 0.5,
    };

    /// Serve load-shedding hints: 50 ms → 1600 ms, no jitter (clients rely
    /// on the hint sequence being monotone across consecutive sheds).
    pub const SERVE_HINT: RetryPolicy = RetryPolicy {
        attempts: 1,
        base: Duration::from_millis(50),
        cap: Duration::from_millis(1600),
        jitter: 0.0,
    };

    /// The un-jittered delay before attempt `attempt` (1-based); attempt 0
    /// (the first try) never sleeps.
    fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(20);
        let raw = self.base.saturating_mul(1u32 << shift);
        raw.min(self.cap)
    }

    /// The deterministic jittered delay for the `invocation`-th sleep at
    /// `site` before attempt `attempt` — a pure function of the fault-plan
    /// seed (0 when no plan is installed), the site, and the invocation.
    fn jittered_delay(&self, site: PolicySite, attempt: u32, invocation: u64) -> Duration {
        let raw = self.delay(attempt);
        if self.jitter <= 0.0 || raw.is_zero() {
            return raw;
        }
        let seed = fault::plan_seed().unwrap_or(0) ^ POLICY_STREAM;
        let mut rng = SmallRng::substream(seed, site.index() as u64, invocation);
        let unit = rng.gen_range_f64(0.0, 1.0);
        let factor = 1.0 - self.jitter * 0.5 + self.jitter * unit;
        raw.mul_f64(factor).min(self.cap)
    }

    /// Sleeps the jittered delay before retry attempt `attempt` (1-based),
    /// consuming one invocation index at `site`.
    pub fn backoff(&self, site: PolicySite, attempt: u32) {
        let invocation = INVOCATIONS[site.index()].fetch_add(1, Ordering::Relaxed);
        let delay = self.jittered_delay(site, attempt, invocation);
        SLEEPS[site.index()].fetch_add(1, Ordering::Relaxed);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Runs `op` up to `attempts` times, backing off (with deterministic
    /// jitter at `site`) before each retry. Returns the first success or the
    /// last error. `op` receives the 0-based attempt number.
    pub fn run<T, E>(
        &self,
        site: PolicySite,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut last = match op(0) {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        for attempt in 1..attempts {
            self.backoff(site, attempt);
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The `retry-after-ms` hint for the `streak`-th consecutive shed
    /// (1-based): the un-jittered delay, in milliseconds. Monotone
    /// non-decreasing in `streak` and capped at `cap`.
    pub fn hint_ms(&self, streak: u32) -> u64 {
        self.delay(streak.max(1)).as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_doubles_from_base_and_saturates_at_cap() {
        let p = RetryPolicy::LEDGER;
        assert_eq!(p.delay(0), Duration::ZERO);
        assert_eq!(p.delay(1), Duration::from_millis(1));
        assert_eq!(p.delay(2), Duration::from_millis(2));
        assert_eq!(p.delay(3), Duration::from_millis(4));
        assert_eq!(p.delay(4), Duration::from_millis(8));
        assert_eq!(p.delay(5), Duration::from_millis(16));
        assert_eq!(p.delay(6), Duration::from_millis(16));
        assert_eq!(p.delay(60), Duration::from_millis(16));
    }

    #[test]
    fn hint_sequence_matches_the_historic_shed_schedule() {
        let p = RetryPolicy::SERVE_HINT;
        let hints: Vec<u64> = (1..=8).map(|s| p.hint_ms(s)).collect();
        assert_eq!(hints, vec![50, 100, 200, 400, 800, 1600, 1600, 1600]);
        // streak 0 is treated as the first shed, never a zero hint
        assert_eq!(p.hint_ms(0), 50);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::LEDGER;
        for attempt in 1..=6u32 {
            for invocation in 0..32u64 {
                let a = p.jittered_delay(PolicySite::LedgerWrite, attempt, invocation);
                let b = p.jittered_delay(PolicySite::LedgerWrite, attempt, invocation);
                assert_eq!(a, b, "jitter must be a pure function of (site, k)");
                let raw = p.delay(attempt);
                assert!(a >= raw.mul_f64(1.0 - p.jitter * 0.5));
                assert!(a <= p.cap);
            }
        }
        // Distinct invocations actually vary the delay.
        let d0 = p.jittered_delay(PolicySite::LedgerWrite, 3, 0);
        let any_different =
            (1..16u64).any(|k| p.jittered_delay(PolicySite::LedgerWrite, 3, k) != d0);
        assert!(any_different, "jitter should vary across invocations");
    }

    #[test]
    fn zero_jitter_policies_are_exactly_the_raw_delay() {
        let p = RetryPolicy::SERVE_HINT;
        for attempt in 1..=6u32 {
            assert_eq!(
                p.jittered_delay(PolicySite::LedgerWrite, attempt, 7),
                p.delay(attempt)
            );
        }
    }

    #[test]
    fn run_retries_until_success_and_reports_last_error() {
        let p = RetryPolicy {
            attempts: 4,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            jitter: 0.0,
        };
        let mut calls = 0u32;
        let ok: Result<u32, &str> = p.run(PolicySite::LedgerWrite, |attempt| {
            calls += 1;
            if attempt >= 2 {
                Ok(attempt)
            } else {
                Err("transient")
            }
        });
        assert_eq!(ok, Ok(2));
        assert_eq!(calls, 3);

        let before = sleeps_at(PolicySite::LedgerWrite);
        let err: Result<(), &str> = p.run(PolicySite::LedgerWrite, |_| Err("still down"));
        assert_eq!(err, Err("still down"));
        assert_eq!(sleeps_at(PolicySite::LedgerWrite), before + 3);
    }
}
