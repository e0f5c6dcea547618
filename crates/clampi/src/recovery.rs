//! Fault recovery for cached windows: retry, backoff, and degradation.
//!
//! The RMA simulator's fault layer (`clampi_rma::fault`) surfaces injected
//! failures as typed [`RmaError`]s. This module decides what the caching
//! layer does about them, in two tiers:
//!
//! 1. **Transient faults** are retried up to [`RetryPolicy::max_retries`]
//!    times with exponential backoff. Backoff is *virtual* time: the rank
//!    sits idle on its [`clampi_rma::Clock`] (charged as blocked time) so
//!    fault handling shows up in the simulated timelines exactly like a
//!    real retry loop would. A per-operation budget
//!    ([`RetryPolicy::op_timeout_ns`]) bounds the total virtual time one
//!    get may burn before it is abandoned.
//! 2. **Persistent target failures** ([`RmaError::TargetFailed`]) degrade
//!    gracefully: the caching layer drops every cached entry for that
//!    target (its data can no longer be validated) and serves all later
//!    accesses to it locally as `Faulted` — zero-filled payload, no network
//!    traffic, no error. This is the weak-caching philosophy applied to
//!    fault handling: a dead target makes gets *degraded*, never makes the
//!    application crash inside the caching layer.
//!
//! The state machine per target is documented in `docs/INTERNALS.md`
//! (healthy → retrying → healthy | abandoned | degraded).

use clampi_rma::{Process, RmaError};

use crate::stats::CacheStats;

/// Retry/backoff policy for transient RMA faults (per cached window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-issues after the first failed attempt.
    pub max_retries: u32,
    /// Virtual-time backoff before the first retry, in nanoseconds.
    pub backoff_base_ns: f64,
    /// Multiplier applied to the backoff after each failed retry.
    pub backoff_factor: f64,
    /// Cumulative virtual-time budget for one operation (first attempt,
    /// backoffs, and retries). When exceeded the operation is abandoned
    /// and counted in [`CacheStats::timeouts`].
    pub op_timeout_ns: f64,
}

impl Default for RetryPolicy {
    /// Four retries starting at 1 µs backoff, doubling, within a 1 ms
    /// per-operation budget — generous against sub-10% transient rates
    /// while keeping a dead target's detection cost bounded.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base_ns: 1_000.0,
            backoff_factor: 2.0,
            op_timeout_ns: 1_000_000.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every transient fault is immediately
    /// abandoned (useful as a baseline in fault sweeps).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `attempt` (0-based), in ns.
    pub fn backoff_ns(&self, attempt: u32) -> f64 {
        self.backoff_base_ns * self.backoff_factor.powi(attempt as i32)
    }
}

/// Runs `op` under `policy`, retrying transient faults with exponential
/// backoff charged to the rank's virtual clock.
///
/// Retries and budget exhaustion are counted into `stats` (`retries`,
/// `timeouts`). Returns the last error when the operation is abandoned —
/// immediately for [`RmaError::TargetFailed`], after exhausting retries
/// or the time budget for [`RmaError::Transient`].
pub(crate) fn with_retry<T, F>(
    p: &mut Process,
    policy: &RetryPolicy,
    stats: &mut CacheStats,
    mut op: F,
) -> Result<T, RmaError>
where
    F: FnMut(&mut Process) -> Result<T, RmaError>,
{
    let start = p.clock().now();
    let mut attempt = 0u32;
    loop {
        match op(p) {
            Ok(v) => return Ok(v),
            Err(e @ RmaError::TargetFailed { .. }) => return Err(e),
            Err(e @ RmaError::Transient { .. }) => {
                if p.clock().now() - start >= policy.op_timeout_ns {
                    stats.timeouts += 1;
                    return Err(e);
                }
                if attempt >= policy.max_retries {
                    return Err(e);
                }
                stats.retries += 1;
                let deadline = p.clock().now() + policy.backoff_ns(attempt);
                p.clock_mut().advance_to(deadline);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi_rma::{run_collect, FaultConfig, SimConfig};

    #[test]
    fn backoff_grows_geometrically() {
        let pol = RetryPolicy::default();
        assert_eq!(pol.backoff_ns(0), 1_000.0);
        assert_eq!(pol.backoff_ns(1), 2_000.0);
        assert_eq!(pol.backoff_ns(2), 4_000.0);
    }

    #[test]
    fn none_policy_never_retries() {
        let pol = RetryPolicy::none();
        let cfg = SimConfig::checked().with_faults(FaultConfig::transient(1.0, 1));
        let out = run_collect(cfg, 2, move |p| {
            if p.rank() != 0 {
                return (0u64, 0u64);
            }
            let mut stats = CacheStats::default();
            let mut calls = 0u64;
            let r: Result<(), _> = with_retry(p, &pol, &mut stats, |_p| {
                calls += 1;
                Err(RmaError::Transient { target: 1 })
            });
            assert!(r.is_err());
            (calls, stats.retries)
        });
        assert_eq!(out[0].1, (1, 0), "one attempt, zero retries");
    }

    #[test]
    fn retries_charge_backoff_to_the_clock() {
        let pol = RetryPolicy::default();
        let out = run_collect(SimConfig::checked(), 1, move |p| {
            let mut stats = CacheStats::default();
            let before = p.clock().now();
            let mut left = 3u32;
            let r = with_retry(p, &pol, &mut stats, |_p| {
                if left > 0 {
                    left -= 1;
                    Err(RmaError::Transient { target: 0 })
                } else {
                    Ok(())
                }
            });
            assert!(r.is_ok());
            (stats.retries, p.clock().now() - before)
        });
        let (retries, elapsed) = out[0].1;
        assert_eq!(retries, 3);
        // 1 µs + 2 µs + 4 µs of backoff.
        assert!(elapsed >= 7_000.0, "elapsed {elapsed}");
    }

    #[test]
    fn budget_exhaustion_counts_a_timeout() {
        let pol = RetryPolicy {
            max_retries: u32::MAX,
            backoff_base_ns: 10_000.0,
            backoff_factor: 2.0,
            op_timeout_ns: 50_000.0,
        };
        let out = run_collect(SimConfig::checked(), 1, move |p| {
            let mut stats = CacheStats::default();
            let r: Result<(), _> = with_retry(p, &pol, &mut stats, |_p| {
                Err(RmaError::Transient { target: 0 })
            });
            assert!(r.is_err());
            (stats.timeouts, stats.retries)
        });
        assert_eq!(out[0].1 .0, 1, "exactly one timeout recorded");
        assert!(out[0].1 .1 >= 2, "a few retries before the budget died");
    }
}
