//! Online adaptation of `|I_w|` and `|S_w|` (Sec. III-E1).
//!
//! The controller watches interval statistics and resizes:
//!
//! - `conflicting / total > conflict_threshold` → grow the index;
//! - eviction-scan density `q < sparsity_threshold` → shrink the index
//!   (a sparse index makes victim samples poor);
//! - `(capacity + failed) / total > capacity_threshold` → grow the storage;
//! - `hits / total > stable_threshold` **and** free space above
//!   [`FREE_FRACTION_THRESHOLD`] **and** no evictions in the interval →
//!   shrink the storage (working set stable and over-provisioned).
//!
//! The interval and the four ratio thresholds are [`AdaptiveParams`]; the
//! resize factors and size bounds are constants (no caller ever set them).
//!
//! Any change requires a cache invalidation, so the controller fires at
//! most one rule per check and the wrapper counts it as an *adjustment*
//! (the numbers annotated on the paper's Figs. 9, 12, 15, 17).
//!
//! When the policy lab is on ([`crate::CacheParams::policy_lab`]) the
//! interval statistics carry shadow hit ratios ([`crate::vcache`]), and
//! the controller also emits [`AdjustRule::SwitchPolicy`] decisions: swap
//! the live eviction policy for a shadow policy that beat it. Lab on is
//! the whole condition — there is no separate switching knob, and without
//! shadow statistics the rule can never fire. The controller does not
//! remember which scheme is live: the caller passes
//! [`crate::CacheParams::victim_scheme`], the one place it is stored.
//! Unlike resizes, a switch does **not** invalidate the cache — residents
//! stay, only the victim-scoring rule changes — so it is checked *before*
//! the resize rules. Hysteresis: the same winner must beat the live
//! policy's shadow ratio by [`SWITCH_MARGIN`] in two consecutive
//! intervals before the switch fires, so a single noisy interval cannot
//! flip the policy.

use crate::eviction::VictimScheme;
use crate::stats::CacheStats;

/// A shadow policy must beat the live policy's shadow hit ratio by this
/// margin (absolute) to become a switch candidate; it absorbs the error of
/// the shadows' positional surrogate ([`crate::vcache`]).
pub const SWITCH_MARGIN: f64 = 0.02;

/// Shrink `|S_w|` only if at least this fraction of it is free.
pub const FREE_FRACTION_THRESHOLD: f64 = 0.70;
/// Multiplier when growing the index (the paper's `index_increase_factor`).
pub const INDEX_INCREASE_FACTOR: f64 = 2.0;
/// Divisor when shrinking the index (`index_decrease_factor`).
pub const INDEX_DECREASE_FACTOR: f64 = 2.0;
/// Multiplier when growing the storage (`memory_increase_factor`).
pub const MEMORY_INCREASE_FACTOR: f64 = 2.0;
/// Divisor when shrinking the storage (`memory_decrease_factor`).
pub const MEMORY_DECREASE_FACTOR: f64 = 2.0;
/// Bounds on `|I_w|` (slots).
pub const INDEX_BOUNDS: (usize, usize) = (64, 1 << 26);
/// Bounds on `|S_w|` (bytes), within [`crate::cache::MAX_STORAGE_BYTES`].
pub const STORAGE_BOUNDS: (usize, usize) = (64 << 10, 2 << 30);

/// The check interval and the thresholds of the adaptive strategy.
#[derive(Debug, Clone)]
pub struct AdaptiveParams {
    /// Gets between checks.
    pub interval: u64,
    /// Grow `|I_w|` above this conflicting ratio.
    pub conflict_threshold: f64,
    /// Grow `|S_w|` above this capacity+failed ratio.
    pub capacity_threshold: f64,
    /// Consider the working set stable above this hit ratio.
    pub stable_threshold: f64,
    /// Shrink `|I_w|` below this eviction-scan density `q`.
    pub sparsity_threshold: f64,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            interval: 2048,
            conflict_threshold: 0.10,
            capacity_threshold: 0.10,
            stable_threshold: 0.80,
            sparsity_threshold: 0.20,
        }
    }
}

/// A decision: the `(|I_w|, |S_w|)` to run with (unchanged by a
/// [`AdjustRule::SwitchPolicy`]) and the rule that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adjustment {
    /// New index slot count.
    pub index_entries: usize,
    /// New storage byte size.
    pub storage_bytes: usize,
    /// Which rule fired (for logging/figures).
    pub rule: AdjustRule,
}

/// The rule that triggered an adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustRule {
    /// Too many conflicting accesses: index grown.
    GrowIndex,
    /// Sparse eviction scans: index shrunk.
    ShrinkIndex,
    /// Too many capacity/failed accesses: storage grown.
    GrowStorage,
    /// Stable working set with surplus space: storage shrunk.
    ShrinkStorage,
    /// This shadow policy sustained a better hit ratio: make it the live
    /// one (no invalidation — residents survive a switch).
    SwitchPolicy(VictimScheme),
}

/// The interval-based controller.
#[derive(Debug)]
pub struct AdaptiveController {
    params: AdaptiveParams,
    snapshot: CacheStats,
    cooldown: bool,
    // Convergence hysteresis: once an adjustment direction *reverses*
    // (a grow following a shrink or vice versa) the right size has been
    // bracketed; from then on only pressure-driven grows are allowed, so
    // the controller cannot oscillate — each invalidation costs a full
    // cache refill.
    last_index: Option<AdjustRule>,
    index_shrink_forbidden: bool,
    last_storage: Option<AdjustRule>,
    storage_shrink_forbidden: bool,
    // Free fraction observed at the previous evaluated check: shrinking is
    // only sound once the buffer has stopped filling (otherwise the
    // controller mistakes a still-warming cache for an over-provisioned
    // one and shrinks below the working set).
    prev_free: Option<f64>,
    // Switch hysteresis: the shadow winner of the previous interval. A
    // switch fires only when the same policy wins two intervals running.
    pending_winner: Option<VictimScheme>,
}

impl AdaptiveController {
    /// A controller starting from zeroed statistics.
    pub fn new(params: AdaptiveParams) -> Self {
        AdaptiveController {
            params,
            snapshot: CacheStats::default(),
            cooldown: false,
            last_index: None,
            index_shrink_forbidden: false,
            last_storage: None,
            storage_shrink_forbidden: false,
            prev_free: None,
            pending_winner: None,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &AdaptiveParams {
        &self.params
    }

    /// Checks the interval statistics; returns a decision if a rule
    /// fires. `live` is the cache's current
    /// [`crate::CacheParams::victim_scheme`], `free_fraction` the current
    /// free share of the storage buffer. Call at epoch closures; cheap
    /// no-op until `interval` gets have accumulated.
    pub fn maybe_adjust(
        &mut self,
        stats: &CacheStats,
        live: VictimScheme,
        index_entries: usize,
        storage_bytes: usize,
        free_fraction: f64,
    ) -> Option<Adjustment> {
        // One counter decides whether the interval is over; the whole
        // table is copied and subtracted only when it is.
        if stats.total_gets - self.snapshot.total_gets < self.params.interval {
            return None;
        }
        let delta = stats.delta_since(&self.snapshot);
        self.snapshot = *stats;
        // The interval right after an adjustment is polluted by the
        // invalidation (refill misses, artificially high free space);
        // evaluating the rules on it makes the controller oscillate.
        if self.cooldown {
            self.cooldown = false;
            return None;
        }

        // Policy switch first: it is cheaper than any resize (no
        // invalidation), so when shadows say a different policy would hit
        // more, switching beats growing. Shadow statistics exist exactly
        // when the lab is on.
        if delta.shadow_gets > 0 {
            let ratio = |v: VictimScheme| delta.shadow_hit_ratio(v);
            let live_ratio = ratio(live);
            // Ties favor the incumbent: a challenger must be strictly
            // better than both the live policy and every earlier scheme
            // before it can even be considered.
            let mut winner = live;
            let mut best = live_ratio;
            for v in VictimScheme::ALL {
                let r = ratio(v);
                if r > best {
                    best = r;
                    winner = v;
                }
            }
            if winner != live && best > live_ratio + SWITCH_MARGIN {
                if self.pending_winner == Some(winner) {
                    // Second consecutive win: switch.
                    self.pending_winner = None;
                    self.cooldown = true;
                    return Some(Adjustment {
                        index_entries,
                        storage_bytes,
                        rule: AdjustRule::SwitchPolicy(winner),
                    });
                }
                self.pending_winner = Some(winner);
            } else {
                self.pending_winner = None;
            }
        }

        let p = &self.params;
        let clamp_i = |v: f64| (v.round() as usize).clamp(INDEX_BOUNDS.0, INDEX_BOUNDS.1);
        let clamp_s = |v: f64| (v.round() as usize).clamp(STORAGE_BOUNDS.0, STORAGE_BOUNDS.1);

        if delta.conflict_ratio() > p.conflict_threshold {
            let new = clamp_i(index_entries as f64 * INDEX_INCREASE_FACTOR);
            if new != index_entries {
                return Some(self.apply_index(AdjustRule::GrowIndex, new, storage_bytes));
            }
        }
        if delta.capacity_ratio() > p.capacity_threshold {
            let new = clamp_s(storage_bytes as f64 * MEMORY_INCREASE_FACTOR);
            if new != storage_bytes {
                return Some(self.apply_storage(AdjustRule::GrowStorage, index_entries, new));
            }
        }
        if !self.index_shrink_forbidden
            && self.last_index != Some(AdjustRule::GrowIndex)
            && delta.evictions > 0
            && delta.eviction_density() < p.sparsity_threshold
        {
            let new = clamp_i(index_entries as f64 / INDEX_DECREASE_FACTOR);
            if new != index_entries {
                return Some(self.apply_index(AdjustRule::ShrinkIndex, new, storage_bytes));
            }
        }
        let filling = match self.prev_free {
            Some(prev) => prev - free_fraction > 0.02,
            None => true, // first check: assume still warming
        };
        self.prev_free = Some(free_fraction);
        if !self.storage_shrink_forbidden
            && self.last_storage != Some(AdjustRule::GrowStorage)
            && !filling
            && delta.evictions == 0
            && delta.failed == 0
            && delta.hit_ratio() > p.stable_threshold
            && free_fraction > FREE_FRACTION_THRESHOLD
        {
            let new = clamp_s(storage_bytes as f64 / MEMORY_DECREASE_FACTOR);
            if new != storage_bytes {
                self.prev_free = None; // resized: free fraction resets
                return Some(self.apply_storage(AdjustRule::ShrinkStorage, index_entries, new));
            }
        }
        None
    }

    fn apply_index(
        &mut self,
        rule: AdjustRule,
        index_entries: usize,
        storage_bytes: usize,
    ) -> Adjustment {
        self.cooldown = true;
        // A grow after a shrink means the size is bracketed: no more shrinks.
        if self.last_index.is_some() && self.last_index != Some(rule) {
            self.index_shrink_forbidden = true;
        }
        self.last_index = Some(rule);
        Adjustment {
            index_entries,
            storage_bytes,
            rule,
        }
    }

    fn apply_storage(
        &mut self,
        rule: AdjustRule,
        index_entries: usize,
        storage_bytes: usize,
    ) -> Adjustment {
        self.cooldown = true;
        if self.last_storage.is_some() && self.last_storage != Some(rule) {
            self.storage_shrink_forbidden = true;
        }
        self.last_storage = Some(rule);
        Adjustment {
            index_entries,
            storage_bytes,
            rule,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AccessType;

    /// The live scheme every resize-rule test runs under (it only matters
    /// to the switch rule).
    const FULL: VictimScheme = VictimScheme::Full;

    fn controller(interval: u64) -> AdaptiveController {
        AdaptiveController::new(AdaptiveParams {
            interval,
            ..AdaptiveParams::default()
        })
    }

    fn stats_with(
        hits: u64,
        direct: u64,
        conflicting: u64,
        capacity: u64,
        failed: u64,
    ) -> CacheStats {
        let mut s = CacheStats::default();
        for _ in 0..hits {
            s.record(AccessType::Hit);
        }
        for _ in 0..direct {
            s.record(AccessType::Direct);
        }
        for _ in 0..conflicting {
            s.record(AccessType::Conflicting);
        }
        for _ in 0..capacity {
            s.record(AccessType::Capacity);
        }
        for _ in 0..failed {
            s.record(AccessType::Failed);
        }
        s
    }

    #[test]
    fn quiet_until_interval_reached() {
        let mut c = controller(100);
        let s = stats_with(10, 10, 30, 0, 0);
        assert!(c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.1).is_none());
    }

    #[test]
    fn high_conflicts_grow_index() {
        let mut c = controller(100);
        let s = stats_with(50, 20, 30, 0, 0);
        let adj = c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.1).unwrap();
        assert_eq!(adj.rule, AdjustRule::GrowIndex);
        assert_eq!(adj.index_entries, 2048);
        assert_eq!(adj.storage_bytes, 1 << 20);
    }

    #[test]
    fn capacity_pressure_grows_storage() {
        let mut c = controller(100);
        let s = stats_with(50, 20, 0, 20, 10);
        let adj = c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.0).unwrap();
        assert_eq!(adj.rule, AdjustRule::GrowStorage);
        assert_eq!(adj.storage_bytes, 2 << 20);
    }

    #[test]
    fn stable_and_roomy_shrinks_storage() {
        let mut c = controller(100);
        // First check establishes the free-fraction baseline (warm-up
        // guard); the second check, with stable free space, shrinks.
        let s1 = stats_with(95, 5, 0, 0, 0);
        assert!(c.maybe_adjust(&s1, FULL, 1024, 4 << 20, 0.9).is_none());
        let mut s2 = s1;
        for _ in 0..100 {
            s2.record(AccessType::Hit);
        }
        let adj = c.maybe_adjust(&s2, FULL, 1024, 4 << 20, 0.9).unwrap();
        assert_eq!(adj.rule, AdjustRule::ShrinkStorage);
        assert_eq!(adj.storage_bytes, 2 << 20);
    }

    #[test]
    fn shrink_waits_for_fill_to_stabilize() {
        let mut c = controller(100);
        // Free fraction dropping by >2% per interval = still warming.
        let mut s = stats_with(95, 5, 0, 0, 0);
        assert!(c.maybe_adjust(&s, FULL, 1024, 4 << 20, 0.9).is_none());
        for _ in 0..100 {
            s.record(AccessType::Hit);
        }
        assert!(
            c.maybe_adjust(&s, FULL, 1024, 4 << 20, 0.8).is_none(),
            "free fell 0.9 -> 0.8: still filling, no shrink"
        );
    }

    #[test]
    fn stable_but_full_is_left_alone() {
        let mut c = controller(100);
        let s = stats_with(95, 5, 0, 0, 0);
        assert!(c.maybe_adjust(&s, FULL, 1024, 4 << 20, 0.2).is_none());
    }

    #[test]
    fn sparse_eviction_scans_shrink_index() {
        let mut c = controller(100);
        let mut s = stats_with(80, 10, 0, 10, 0);
        s.evictions = 10;
        s.visited_slots = 1000;
        s.visited_nonempty = 50; // q = 0.05 < 0.2
                                 // capacity ratio = 10/100 = 0.10, not > threshold; sparsity fires.
        let adj = c.maybe_adjust(&s, FULL, 4096, 1 << 20, 0.0).unwrap();
        assert_eq!(adj.rule, AdjustRule::ShrinkIndex);
        assert_eq!(adj.index_entries, 2048);
    }

    #[test]
    fn interval_statistics_are_deltas() {
        let mut c = controller(100);
        // First interval: heavy conflicts -> grow.
        let s1 = stats_with(0, 70, 30, 0, 0);
        assert!(c.maybe_adjust(&s1, FULL, 1024, 1 << 20, 0.0).is_some());
        // Second interval: all hits; cumulative stats still contain the old
        // conflicts but the delta does not -> no adjustment.
        let mut s2 = s1;
        for _ in 0..100 {
            s2.record(AccessType::Hit);
        }
        assert!(c.maybe_adjust(&s2, FULL, 2048, 1 << 20, 0.0).is_none());
    }

    #[test]
    fn bounds_are_respected() {
        let mut c = controller(10);
        let s = stats_with(0, 5, 5, 0, 0);
        // Already at the max: growing is a no-op, falls through to nothing.
        assert!(c
            .maybe_adjust(&s, FULL, INDEX_BOUNDS.1, 1 << 20, 0.0)
            .is_none());
    }

    #[test]
    fn one_rule_per_check() {
        let mut c = controller(10);
        // Both conflict and capacity pressure: only the first rule fires.
        let s = stats_with(0, 0, 5, 5, 0);
        let adj = c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.0).unwrap();
        assert_eq!(adj.rule, AdjustRule::GrowIndex);
        assert_eq!(adj.storage_bytes, 1 << 20, "storage untouched this check");
    }

    /// Extends `s` with one interval of all-hit gets plus shadow counters
    /// (one shadow get per live get, per-policy shadow hits by index).
    fn add_shadow_interval(s: &mut CacheStats, gets: u64, hits: [u64; crate::POLICY_COUNT]) {
        for _ in 0..gets {
            s.record(AccessType::Hit);
        }
        s.shadow_gets += gets;
        for (acc, h) in s.shadow_hits.iter_mut().zip(hits) {
            *acc += h;
        }
    }

    #[test]
    fn policy_switch_needs_two_consecutive_wins() {
        let mut c = controller(100);
        // ALL order: [Full, Temporal, Positional]. Positional's shadow
        // dominates Full's by far more than the margin.
        let mut s = CacheStats::default();
        add_shadow_interval(&mut s, 100, [50, 40, 90]);
        assert!(
            c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.5).is_none(),
            "first winning interval only arms the hysteresis"
        );
        add_shadow_interval(&mut s, 100, [50, 40, 90]);
        let adj = c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.5).unwrap();
        assert_eq!(adj.rule, AdjustRule::SwitchPolicy(VictimScheme::Positional));
        assert_eq!(adj.index_entries, 1024, "switch never resizes");
        assert_eq!(adj.storage_bytes, 1 << 20);
    }

    /// The lab is off by default, so the intervals carry no shadow
    /// statistics, and that alone keeps the switch rule silent.
    #[test]
    fn policy_switching_is_off_by_default() {
        let mut c = controller(100);
        let mut s = CacheStats::default();
        for _ in 0..3 {
            for _ in 0..100 {
                s.record(AccessType::Hit);
            }
            assert!(c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.5).is_none());
        }
    }

    #[test]
    fn wins_within_margin_or_interrupted_never_switch() {
        let mut c = controller(100);
        // Within the margin: 0.51 vs 0.50 < 0.02 -> not even armed (were
        // it armed, the next interval's clear win would fire).
        let mut s = CacheStats::default();
        add_shadow_interval(&mut s, 100, [50, 40, 51]);
        assert!(c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.5).is_none());
        // Clear win arms...
        add_shadow_interval(&mut s, 100, [50, 40, 90]);
        assert!(c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.5).is_none());
        // ...but a different winner next interval disarms: no switch.
        add_shadow_interval(&mut s, 100, [50, 90, 41]);
        assert!(
            c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.5).is_none(),
            "winner changed between intervals: hysteresis must reset"
        );
        // And the new winner still needs its own second win.
        add_shadow_interval(&mut s, 100, [50, 90, 41]);
        let adj = c.maybe_adjust(&s, FULL, 1024, 1 << 20, 0.5).unwrap();
        assert_eq!(adj.rule, AdjustRule::SwitchPolicy(VictimScheme::Temporal));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::stats::{AccessType, CacheStats};
    use clampi_prng::prop::check;

    /// Under ANY stream of interval statistics the controller converges:
    /// the number of adjustments it can ever emit is small (monotone
    /// growth phases plus at most one reversal per resource), never
    /// unbounded oscillation.
    #[test]
    fn adjustments_are_bounded_under_arbitrary_stats() {
        check("adaptive controller converges", 64, |g| {
            let intervals = g.vec(1..200usize, |g| {
                (
                    g.range(0..100u64),
                    g.range(0..100u64),
                    g.range(0..100u64),
                    g.range(0..100u64),
                    g.range(0..100u64),
                    g.range(0.0..1.0),
                )
            });
            let mut c = AdaptiveController::new(AdaptiveParams {
                interval: 1,
                ..AdaptiveParams::default()
            });
            let mut stats = CacheStats::default();
            let mut iw = 1024usize;
            let mut sw = 1usize << 20;
            let mut adjustments = 0usize;
            let mut grows_i = 0usize;
            let mut grows_s = 0usize;
            for (hits, direct, conflicting, capacity, failed, free) in intervals {
                for _ in 0..hits {
                    stats.record(AccessType::Hit);
                }
                for _ in 0..direct {
                    stats.record(AccessType::Direct);
                }
                for _ in 0..conflicting {
                    stats.record(AccessType::Conflicting);
                }
                for _ in 0..capacity {
                    stats.record(AccessType::Capacity);
                }
                for _ in 0..failed {
                    stats.record(AccessType::Failed);
                }
                stats.evictions += capacity;
                stats.visited_slots += capacity * 16;
                stats.visited_nonempty += capacity * 4;
                if let Some(adj) = c.maybe_adjust(&stats, VictimScheme::Full, iw, sw, free) {
                    adjustments += 1;
                    match adj.rule {
                        AdjustRule::GrowIndex => grows_i += 1,
                        AdjustRule::GrowStorage => grows_s += 1,
                        _ => {}
                    }
                    iw = adj.index_entries;
                    sw = adj.storage_bytes;
                }
            }
            // Bounds: each resource can grow at most log2(max/min) times,
            // shrink at most log2(max/min) times, with one reversal each.
            let doublings = |(lo, hi): (usize, usize)| (hi / lo).ilog2() as usize;
            let max_adjustments =
                2 * doublings(INDEX_BOUNDS) + 2 + 2 * doublings(STORAGE_BOUNDS) + 2;
            assert!(
                adjustments <= max_adjustments,
                "{adjustments} adjustments (grows_i={grows_i}, grows_s={grows_s})"
            );
            assert!((INDEX_BOUNDS.0..=INDEX_BOUNDS.1).contains(&iw));
            assert!((STORAGE_BOUNDS.0..=STORAGE_BOUNDS.1).contains(&sw));
        });
    }
}
