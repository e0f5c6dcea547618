//! Deterministic fault injection for the RMA simulator.
//!
//! CLaMPI (and this reproduction, until now) assumed every remote `get`
//! completes. Real RMA deployments do not: Besta & Hoefler's *Fault
//! Tolerance for Remote Memory Access Programming Models* catalogues the
//! protocol-level failures a caching layer must survive — dropped
//! transfers, slow links, and whole-node failures. This module injects
//! exactly those three failure classes into the simulator:
//!
//! - **transient** get/put failures: the operation is dropped in transit,
//!   no bytes move, and the initiator pays a NACK round trip. Retrying may
//!   succeed (each operation draws an independent decision);
//! - **latency spikes**: the transfer completes but its wire time is
//!   multiplied by [`FaultConfig::spike_factor`], charged through the
//!   existing LogGP [`crate::netmodel`] accounting (so spikes remain
//!   overlappable with computation, like real congestion);
//! - **whole-rank target failures**: from a configured *virtual* time
//!   onwards ([`RankFailure::at_ns`]), every operation towards that rank
//!   fails permanently with [`RmaError::TargetFailed`].
//!
//! # Determinism
//!
//! The fault schedule must be reproducible even though ranks are real OS
//! threads racing against each other. A shared RNG would make the
//! schedule depend on thread interleaving, so [`FaultPlan`] is
//! *counter-based*: the decision for a rank's `n`-th fault-checked
//! operation is a pure function of `(seed, rank, n)` — each draw seeds a
//! fresh [`SplitMix64`] stream from those three values. Two runs with the
//! same seed and the same per-rank operation sequences produce
//! bit-identical fault schedules regardless of scheduling (the
//! `prop_fault` suite pins this).
//!
//! With `transient_rate == 0`, `spike_rate == 0` and no rank failures the
//! plan decides [`FaultDecision::None`] for every operation without
//! consuming randomness, so a zero-rate configuration is bit-identical in
//! virtual time to a run with no [`FaultConfig`] at all.

use clampi_prng::SplitMix64;

/// Typed failure of one RMA data-movement operation.
///
/// Surfaced by the fallible operation variants
/// ([`crate::Window::try_get`], [`crate::Window::try_put`], …) instead of
/// panics, so layered libraries (the CLaMPI cache) can implement retry
/// and graceful degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaError {
    /// The operation was dropped in transit; no bytes moved. Retrying may
    /// succeed.
    Transient {
        /// The rank the failed operation targeted.
        target: usize,
    },
    /// The target rank failed permanently; every further operation
    /// towards it will also fail.
    TargetFailed {
        /// The failed rank.
        target: usize,
    },
}

impl RmaError {
    /// The rank the failed operation targeted.
    pub fn target(&self) -> usize {
        match *self {
            RmaError::Transient { target } | RmaError::TargetFailed { target } => target,
        }
    }

    /// Whether a retry of the same operation can succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RmaError::Transient { .. })
    }
}

impl std::fmt::Display for RmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmaError::Transient { target } => {
                write!(f, "transient RMA failure towards rank {target}")
            }
            RmaError::TargetFailed { target } => {
                write!(f, "target rank {target} has failed")
            }
        }
    }
}

impl std::error::Error for RmaError {}

/// A permanent whole-rank failure at a configured virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankFailure {
    /// The rank that fails.
    pub rank: usize,
    /// Virtual time (nanoseconds, per the *initiator's* clock) from which
    /// operations towards [`RankFailure::rank`] fail permanently.
    ///
    /// Ranks do not share a clock, so "the target is dead" is judged from
    /// the initiator's own virtual time — the simulator analogue of each
    /// node's local failure detector firing.
    pub at_ns: f64,
}

/// Fault-injection parameters for one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule (independent of workload seeds).
    pub seed: u64,
    /// Probability that an operation fails transiently.
    pub transient_rate: f64,
    /// Probability that a (non-failed) operation suffers a latency spike.
    pub spike_rate: f64,
    /// Wire-time multiplier of a latency spike.
    pub spike_factor: f64,
    /// CPU time charged to detect a dead target (the failure detector's
    /// timeout), paid on every operation that observes the dead rank.
    pub timeout_detect_ns: f64,
    /// Permanent whole-rank failures.
    pub rank_failures: Vec<RankFailure>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA_17,
            transient_rate: 0.0,
            spike_rate: 0.0,
            spike_factor: 8.0,
            timeout_detect_ns: 50_000.0,
            rank_failures: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A schedule that injects transient failures at `rate`.
    pub fn transient(rate: f64, seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// Adds a permanent failure of `rank` at virtual time `at_ns`.
    pub fn with_rank_failure(mut self, rank: usize, at_ns: f64) -> Self {
        self.rank_failures.push(RankFailure { rank, at_ns });
        self
    }

    /// Adds a latency-spike class: probability `rate`, wire time × `factor`.
    pub fn with_spikes(mut self, rate: f64, factor: f64) -> Self {
        self.spike_rate = rate;
        self.spike_factor = factor;
        self
    }
}

/// The fate of one fault-checked operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// The operation proceeds normally.
    None,
    /// The operation fails transiently ([`RmaError::Transient`]).
    Transient,
    /// The operation completes with its wire time multiplied.
    LatencySpike(f64),
    /// The target rank is dead ([`RmaError::TargetFailed`]).
    TargetFailed,
}

/// One rank's deterministic fault schedule.
///
/// # Examples
///
/// ```
/// use clampi_rma::fault::{FaultConfig, FaultDecision, FaultPlan};
///
/// let cfg = FaultConfig::transient(0.5, 7);
/// let a: Vec<FaultDecision> = {
///     let mut p = FaultPlan::new(cfg.clone(), 0);
///     (0..64).map(|_| p.decide(1, 0.0)).collect()
/// };
/// let b: Vec<FaultDecision> = {
///     let mut p = FaultPlan::new(cfg, 0);
///     (0..64).map(|_| p.decide(1, 0.0)).collect()
/// };
/// assert_eq!(a, b); // same seed, same schedule
/// assert!(a.contains(&FaultDecision::Transient));
/// assert!(a.contains(&FaultDecision::None));
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rank: usize,
    op_seq: u64,
}

impl FaultPlan {
    /// The schedule of `rank` under `cfg`.
    pub fn new(cfg: FaultConfig, rank: usize) -> Self {
        FaultPlan {
            cfg,
            rank,
            op_seq: 0,
        }
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decides the fate of the next operation towards `target`, issued at
    /// the initiator's virtual time `now_ns`. Advances the operation
    /// counter.
    pub fn decide(&mut self, target: usize, now_ns: f64) -> FaultDecision {
        let seq = self.op_seq;
        self.op_seq += 1;
        self.decide_at(seq, target, now_ns)
    }

    /// The (pure) decision for this rank's operation number `seq`: a
    /// function of `(seed, rank, seq)` plus the dead-rank table, never of
    /// thread interleaving or prior draws.
    pub fn decide_at(&self, seq: u64, target: usize, now_ns: f64) -> FaultDecision {
        for rf in &self.cfg.rank_failures {
            if rf.rank == target && now_ns >= rf.at_ns {
                return FaultDecision::TargetFailed;
            }
        }
        if self.cfg.transient_rate <= 0.0 && self.cfg.spike_rate <= 0.0 {
            return FaultDecision::None;
        }
        // Counter-based draw: a fresh SplitMix64 stream per (rank, seq).
        let mut sm = SplitMix64::new(
            self.cfg
                .seed
                .wrapping_add((self.rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ seq.wrapping_mul(0xD134_2543_DE82_EF95),
        );
        if unit_f64(sm.next_u64()) < self.cfg.transient_rate {
            return FaultDecision::Transient;
        }
        if unit_f64(sm.next_u64()) < self.cfg.spike_rate {
            return FaultDecision::LatencySpike(self.cfg.spike_factor);
        }
        FaultDecision::None
    }
}

/// Maps 64 random bits to `[0, 1)` with 53 mantissa bits (the same
/// mapping `clampi_prng::SmallRng::gen_f64` uses).
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_is_always_none() {
        let mut p = FaultPlan::new(FaultConfig::default(), 3);
        for i in 0..1000 {
            assert_eq!(p.decide(1, i as f64), FaultDecision::None);
        }
    }

    #[test]
    fn rate_one_always_fails() {
        let mut p = FaultPlan::new(FaultConfig::transient(1.0, 9), 0);
        for _ in 0..100 {
            assert_eq!(p.decide(2, 0.0), FaultDecision::Transient);
        }
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let mut p = FaultPlan::new(FaultConfig::transient(0.1, 42), 0);
        let n = 100_000;
        let faults = (0..n)
            .filter(|_| p.decide(1, 0.0) == FaultDecision::Transient)
            .count();
        let rate = faults as f64 / n as f64;
        assert!((0.09..0.11).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn schedule_is_pure_in_seq() {
        let p = FaultPlan::new(FaultConfig::transient(0.5, 11).with_spikes(0.3, 4.0), 2);
        for seq in 0..256 {
            assert_eq!(p.decide_at(seq, 1, 0.0), p.decide_at(seq, 1, 0.0));
        }
    }

    #[test]
    fn ranks_get_distinct_streams() {
        let cfg = FaultConfig::transient(0.5, 13);
        let a: Vec<_> = {
            let mut p = FaultPlan::new(cfg.clone(), 0);
            (0..64).map(|_| p.decide(1, 0.0)).collect()
        };
        let b: Vec<_> = {
            let mut p = FaultPlan::new(cfg, 1);
            (0..64).map(|_| p.decide(1, 0.0)).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn rank_failure_starts_at_configured_time() {
        let cfg = FaultConfig::default().with_rank_failure(2, 1000.0);
        let mut p = FaultPlan::new(cfg, 0);
        assert_eq!(p.decide(2, 999.9), FaultDecision::None);
        assert_eq!(p.decide(2, 1000.0), FaultDecision::TargetFailed);
        assert_eq!(p.decide(2, 5000.0), FaultDecision::TargetFailed);
        // Other targets are unaffected.
        assert_eq!(p.decide(1, 5000.0), FaultDecision::None);
    }

    #[test]
    fn spikes_carry_the_configured_factor() {
        let mut p = FaultPlan::new(FaultConfig::transient(0.0, 5).with_spikes(1.0, 6.5), 0);
        assert_eq!(p.decide(1, 0.0), FaultDecision::LatencySpike(6.5));
    }

    #[test]
    fn error_accessors() {
        let t = RmaError::Transient { target: 3 };
        let d = RmaError::TargetFailed { target: 4 };
        assert_eq!(t.target(), 3);
        assert_eq!(d.target(), 4);
        assert!(t.is_retryable());
        assert!(!d.is_retryable());
        assert!(t.to_string().contains("transient"));
        assert!(d.to_string().contains("failed"));
    }
}
