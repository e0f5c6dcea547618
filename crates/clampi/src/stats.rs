//! Cache statistics: the counters behind the paper's Figs. 11, 13, 16, 18.
//!
//! Every `get_c` processed by the caching layer is classified into exactly
//! one access type (the paper's Sec. III-B):
//!
//! - **hit** — the lookup returned a `CACHED` or `PENDING` entry covering
//!   the request (no network);
//! - **direct** — a miss that was cached without any eviction;
//! - **conflicting** — a miss whose Cuckoo insertion failed, evicting an
//!   entry on the insertion path;
//! - **capacity** — a miss that required a storage eviction which freed
//!   enough space;
//! - **failed** — a miss that could not be cached (the get itself still
//!   succeeds: weak caching).
//!
//! The recovery layer adds a sixth outcome outside the paper's taxonomy:
//! **faulted** — the payload was lost to a fault and zero-filled.

use crate::eviction::{VictimScheme, POLICY_COUNT};

/// The classification of one processed `get_c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// Served from cache (full hit on a CACHED or PENDING entry).
    Hit,
    /// Cached with no eviction.
    Direct,
    /// Cached after an index (Cuckoo insertion path) eviction.
    Conflicting,
    /// Cached after a storage eviction freed enough space.
    Capacity,
    /// Not cached: no resources even after one eviction attempt. The
    /// fetched payload is still delivered (weak caching).
    Failed,
    /// Payload zero-filled by a fault: the target is degraded (marked
    /// persistently failed) or the fetch was abandoned by the recovery
    /// layer. Never produced by the caching engine itself.
    Faulted,
}

impl AccessType {
    /// Stable label used by the figure binaries.
    pub fn label(&self) -> &'static str {
        match self {
            AccessType::Hit => "hit",
            AccessType::Direct => "direct",
            AccessType::Conflicting => "conflicting",
            AccessType::Capacity => "capacity",
            AccessType::Failed => "failed",
            AccessType::Faulted => "faulted",
        }
    }

    /// All access types in reporting order.
    pub const ALL: [AccessType; 6] = [
        AccessType::Hit,
        AccessType::Direct,
        AccessType::Conflicting,
        AccessType::Capacity,
        AccessType::Failed,
        AccessType::Faulted,
    ];
}

/// The counter table: generates [`CacheStats`] and everything that must
/// visit every counter, so adding one is a one-line change here. Scalar
/// counters first, then `;` and the one per-policy array.
macro_rules! counter_table {
    (
        $($(#[$doc:meta])* $name:ident: u64,)* ;
        $(#[$adoc:meta])* $arr:ident: [u64; $n:expr],
    ) => {
        /// Aggregated counters for one caching layer `C_w`.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct CacheStats {
            $($(#[$doc])* pub $name: u64,)*
            $(#[$adoc])* pub $arr: [u64; $n],
        }

        impl CacheStats {
            /// Every counter as `(field name, value)` in declaration
            /// order; the array field yields one pair per element.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                let array = self.$arr.iter().map(|&v| (stringify!($arr), v));
                [$((stringify!($name), self.$name),)*].into_iter().chain(array)
            }

            /// Applies `f(mine, theirs)` to every counter, in `fields` order.
            fn zip_with(&mut self, other: &CacheStats, mut f: impl FnMut(&mut u64, u64)) {
                $(f(&mut self.$name, other.$name);)*
                for (a, b) in self.$arr.iter_mut().zip(other.$arr) {
                    f(a, b);
                }
            }
        }
    };
}

counter_table! {
    /// Total `get_c` operations processed.
    total_gets: u64,
    /// Full hits (includes hits on PENDING entries).
    hits: u64,
    /// Partial hits: key matched but the request exceeded the cached size;
    /// these are *also* counted in direct/conflicting/capacity/failed
    /// according to how the extension allocation went.
    partial_hits: u64,
    /// Misses cached without eviction.
    direct: u64,
    /// Misses that evicted along the Cuckoo insertion path.
    conflicting: u64,
    /// Misses that evicted for space and then fit.
    capacity: u64,
    /// Misses that could not be cached (payload still delivered).
    failed: u64,
    /// Gets whose payload was zero-filled by a fault
    /// (`degraded_gets + abandoned_gets`).
    faulted: u64,
    /// Storage (capacity) eviction procedures executed.
    evictions: u64,
    /// Index slots visited across all capacity evictions (`v_i` summed).
    visited_slots: u64,
    /// Non-empty slots among the visited ones (numerator of the paper's
    /// sparsity signal `q`).
    visited_nonempty: u64,
    /// Cache invalidations (epoch closures in transparent mode, explicit
    /// invalidates, and adaptive adjustments).
    invalidations: u64,
    /// Adaptive parameter adjustments performed.
    adjustments: u64,
    /// Payload bytes served from cache.
    bytes_from_cache: u64,
    /// Payload bytes fetched over the network by `get_c` calls.
    bytes_from_network: u64,
    /// Transient-fault retries issued by the recovery layer (one per
    /// reissued network operation, not per get).
    retries: u64,
    /// Operations abandoned because their cumulative virtual-time budget
    /// ([`crate::RetryPolicy::op_timeout_ns`]) ran out while retrying.
    timeouts: u64,
    /// Gets served in degraded mode (target already marked failed: no
    /// network traffic, zero-filled payload, classified `Faulted`).
    degraded_gets: u64,
    /// Gets whose fetch was abandoned by the recovery layer (rank death
    /// or retries exhausted): zero-filled payload, classified `Faulted`.
    abandoned_gets: u64,
    /// Cache entries dropped because their target rank was marked failed.
    invalidations_on_failure: u64,
    /// Misses whose wire transfer was merged into an already-outstanding
    /// nonblocking get to the same target (adjacent/overlapping byte
    /// range, within `CacheParams::max_coalesce_bytes`): no new issue
    /// overhead and only the incremental bytes on the wire.
    coalesced_misses: u64,
    /// Gets issued through the nonblocking batched path
    /// ([`crate::CachedWindow::get_nb`] and friends).
    batched_gets: u64,
    /// Wire nanoseconds of nonblocking miss transfers that were hidden
    /// behind CPU work instead of being blocked on at the epoch closure
    /// (posted wire time minus time actually spent blocked, saturating).
    /// Approximate: rounded to whole ns and attributed per closure.
    overlapped_wire_ns: u64,
    /// Cache entries dropped by a coherence pass because a remote put
    /// made (or may have made) them stale — each one a stale hit that can
    /// no longer happen.
    stale_hits_prevented: u64,
    /// Put-notification records consumed by `EagerInvalidate` drains.
    notifications_drained: u64,
    /// Notification-ring overflows observed (each falls back to a full
    /// per-target invalidation).
    notification_overflows: u64,
    /// CACHED entries a [`crate::CachedWindow::validate`] pass dropped and
    /// fetched again before it returned (one per fetch that delivered;
    /// not gets: no access class, no `total_gets`).
    refetches: u64,
    /// Cached entries this rank's own puts wrote through under
    /// `EagerInvalidate` (exact key, CACHED, contiguous, covered by the
    /// put): each keeps its place instead of being dropped by the drain.
    /// Not gets.
    put_updates: u64,
    /// Always 0: nothing fetches a version since the epoch-validation
    /// coherence mode was deleted. Still here because
    /// `benchmark/src/counters.rs` reads it; goes with the next benchmark
    /// PR.
    version_fetches: u64,
    /// Always 0: the concurrent front has no optimistic read path to
    /// retry since its seqlock was deleted. Still here because
    /// `benchmark/src/workloads/shared_front.rs` reads it; goes with the
    /// next benchmark PR.
    opt_retries: u64,
    /// Always 0, like `opt_retries` (every front get is a read-locked
    /// read now, so the count would be `hits` plus the misses). Read by
    /// `benchmark/src/workloads/shared_front.rs`; goes with the next
    /// benchmark PR.
    locked_reads: u64,
    /// Live victim-policy switches applied (adaptive [`SwitchPolicy`]
    /// adjustments plus explicit `set_victim_scheme` calls that changed
    /// the policy).
    ///
    /// [`SwitchPolicy`]: crate::AdjustRule::SwitchPolicy
    policy_switches: u64,
    /// Gets replayed through the policy lab's shadow caches (one per
    /// get, regardless of how many shadows run).
    shadow_gets: u64,
    /// Shadow-cache slot inspections across all policies — the lab's
    /// overhead unit, priced by
    /// [`CacheCostModel::shadow_visit_ns`](crate::CacheCostModel::shadow_visit_ns)
    /// but never charged to the live virtual clock.
    shadow_slot_visits: u64,
    /// Requests read through the snapshot subsystem
    /// ([`crate::CachedWindow::multi_get`]) — one per request in a batch,
    /// successful or not.
    snapshot_gets: u64,
    /// Snapshot requests refetched during validation because their
    /// validity interval excluded the candidate timestamp (beyond the
    /// initial gather; each refetch is an uncached network read).
    snapshot_refetches: u64,
    /// Snapshot validation attempts aborted (notification-ring overflow,
    /// refetch rounds exhausted, or a mid-batch fault) and retried — or
    /// given up on — as a whole batch.
    snapshot_aborts: u64,
    /// Total staleness of successful snapshots in virtual nanoseconds:
    /// for each batch, the drain-time commit clock minus the chosen
    /// timestamp (0 = the batch was provably the newest state).
    snapshot_staleness_ns: u64,
    ;
    /// Per-policy shadow hits, indexed by
    /// [`VictimScheme::index`](crate::VictimScheme::index) (the order of
    /// [`VictimScheme::ALL`](crate::VictimScheme::ALL)).
    shadow_hits: [u64; POLICY_COUNT],
}

impl CacheStats {
    /// Records one classified access.
    pub fn record(&mut self, t: AccessType) {
        self.total_gets += 1;
        match t {
            AccessType::Hit => self.hits += 1,
            AccessType::Direct => self.direct += 1,
            AccessType::Conflicting => self.conflicting += 1,
            AccessType::Capacity => self.capacity += 1,
            AccessType::Failed => self.failed += 1,
            AccessType::Faulted => self.faulted += 1,
        }
    }

    /// The counter value for `t`.
    pub fn count(&self, t: AccessType) -> u64 {
        match t {
            AccessType::Hit => self.hits,
            AccessType::Direct => self.direct,
            AccessType::Conflicting => self.conflicting,
            AccessType::Capacity => self.capacity,
            AccessType::Failed => self.failed,
            AccessType::Faulted => self.faulted,
        }
    }

    /// Hit ratio over all processed gets (0 if none).
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.total_gets)
    }

    /// The paper's conflict signal: `conflicting / total_gets`.
    pub fn conflict_ratio(&self) -> f64 {
        ratio(self.conflicting, self.total_gets)
    }

    /// The paper's capacity signal: `(capacity + failed) / total_gets`.
    pub fn capacity_ratio(&self) -> f64 {
        ratio(self.capacity + self.failed, self.total_gets)
    }

    /// The paper's sparsity signal `q`: non-empty / total visited entries
    /// during capacity evictions (1.0 when no eviction has run, i.e. the
    /// index is not known to be sparse).
    pub fn eviction_density(&self) -> f64 {
        if self.visited_slots == 0 {
            1.0
        } else {
            self.visited_nonempty as f64 / self.visited_slots as f64
        }
    }

    /// Average index slots visited per capacity eviction.
    pub fn avg_visited_per_eviction(&self) -> f64 {
        ratio(self.visited_slots, self.evictions)
    }

    /// Shadow hit ratio of candidate policy `v` over the gets the policy
    /// lab replayed (0 when the lab is off).
    pub fn shadow_hit_ratio(&self, v: VictimScheme) -> f64 {
        ratio(self.shadow_hits[v.index()], self.shadow_gets)
    }

    /// Difference of counters (self - earlier), for interval-based signals.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        let mut d = *self;
        d.zip_with(earlier, |a, b| *a -= b);
        d
    }

    /// Fieldwise sum of counters (self += other). Used to merge the
    /// recovery layer's fault counters — kept outside the cache engine so
    /// they exist even in [`crate::Mode::Disabled`] — into one report.
    pub fn merge(&mut self, other: &CacheStats) {
        self.zip_with(other, |a, b| *a += b);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_each_type_once() {
        let mut s = CacheStats::default();
        for t in AccessType::ALL {
            s.record(t);
        }
        assert_eq!(s.total_gets, 6);
        for t in AccessType::ALL {
            assert_eq!(s.count(t), 1, "{t:?}");
        }
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.conflict_ratio(), 0.0);
        assert_eq!(s.capacity_ratio(), 0.0);
        assert_eq!(s.eviction_density(), 1.0);
        assert_eq!(s.avg_visited_per_eviction(), 0.0);
    }

    #[test]
    fn capacity_ratio_includes_failed() {
        let mut s = CacheStats::default();
        s.record(AccessType::Capacity);
        s.record(AccessType::Failed);
        s.record(AccessType::Hit);
        s.record(AccessType::Hit);
        assert_eq!(s.capacity_ratio(), 0.5);
        assert_eq!(s.hit_ratio(), 0.5);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let mut a = CacheStats::default();
        a.record(AccessType::Hit);
        let snapshot = a;
        a.record(AccessType::Direct);
        a.record(AccessType::Hit);
        let d = a.delta_since(&snapshot);
        assert_eq!(d.total_gets, 2);
        assert_eq!(d.hits, 1);
        assert_eq!(d.direct, 1);
    }

    /// A stats value with *every* counter cell set to a distinct nonzero
    /// value, numbered from `seed + 1` in [`CacheStats::fields`] order.
    fn filled(seed: u64) -> CacheStats {
        let mut s = CacheStats::default();
        let mut n = seed;
        s.zip_with(&CacheStats::default(), |cell, _| {
            n += 1;
            *cell = n;
        });
        s
    }

    #[test]
    fn merge_and_delta_round_trip_every_field() {
        let a = filled(100);
        // `fields` reads back every cell `filled` numbered, in the same
        // order: one pair per scalar, then one per element of the array.
        let cells = (std::mem::size_of::<CacheStats>() / std::mem::size_of::<u64>()) as u64;
        assert!(a.fields().map(|(_, v)| v).eq(101..=100 + cells));
        assert_eq!(a.fields().next(), Some(("total_gets", 101)));
        let shadow = a.fields().filter(|(n, _)| *n == "shadow_hits");
        assert_eq!(shadow.count(), POLICY_COUNT);
        // merge adds every field: folding `a` into zero must reproduce it
        // exactly (a `+=` line missing from `merge` leaves a zero behind).
        let mut z = CacheStats::default();
        z.merge(&a);
        assert_eq!(z, a, "merge dropped a field");
        // delta subtracts every field: with b = a ⊕ d, recovering d via
        // b.delta_since(&a) catches a field copied instead of subtracted.
        let d = filled(10_000);
        let mut b = a;
        b.merge(&d);
        assert_eq!(b.delta_since(&a), d, "delta_since mishandled a field");
        // And the two are inverses from zero.
        assert_eq!(a.delta_since(&CacheStats::default()), a);
    }

    #[test]
    fn shadow_hit_ratio_is_per_policy() {
        let s = CacheStats {
            shadow_gets: 100,
            shadow_hits: [50, 25, 0],
            ..CacheStats::default()
        };
        assert_eq!(s.shadow_hit_ratio(VictimScheme::Full), 0.5);
        assert_eq!(s.shadow_hit_ratio(VictimScheme::Temporal), 0.25);
        assert_eq!(s.shadow_hit_ratio(VictimScheme::Positional), 0.0);
        assert_eq!(
            CacheStats::default().shadow_hit_ratio(VictimScheme::Full),
            0.0
        );
    }

    #[test]
    fn eviction_density_counts_nonempty_fraction() {
        let s = CacheStats {
            evictions: 2,
            visited_slots: 40,
            visited_nonempty: 10,
            ..CacheStats::default()
        };
        assert_eq!(s.eviction_density(), 0.25);
        assert_eq!(s.avg_visited_per_eviction(), 20.0);
    }
}
