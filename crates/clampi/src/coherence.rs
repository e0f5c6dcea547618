//! Coherence for cached reads under concurrent remote `put`s.
//!
//! The paper's CLaMPI caches only `get`s and punts staleness to the user
//! via `CLAMPI_Invalidate`: any workload where another rank `put`s into a
//! cached region is unsafe to cache. This module closes that gap with two
//! RMA-layer primitives (see `clampi_rma::window`):
//!
//! - **Version counters**: every window region carries a monotonic write
//!   version, bumped on each `put`/accumulate touching it. A get observes
//!   the version *before* its bytes are read, so a cache entry stamped
//!   with version `v` is guaranteed to contain no byte written after `v`
//!   (it may conservatively look older than it is — never newer).
//! - **Put-notification channels**: each region keeps a bounded ring of
//!   `(origin, disp, len, version)` records, one per put. A reader drains
//!   the records it has not yet seen; a ring overflow is detected (not
//!   silently dropped) and reported so the reader can fall back to a full
//!   per-target invalidation.
//!
//! [`CoherenceMode`] selects how a [`crate::CachedWindow`] uses them:
//!
//! | mode | wire cost per pass | invalidation granularity |
//! |------|--------------------|--------------------------|
//! | `None` | zero | none (pre-coherence behaviour, bit-identical) |
//! | `EpochValidate` | one 8-byte version fetch per cached target | whole target on any version change |
//! | `EagerInvalidate` | CPU-only notification drain | only entries overlapping a drained put record |
//!
//! Neither mode scans the index: victims are found through the engine's
//! ordered extent directory (see
//! [`RmaCache::invalidate_overlapping_stale`]), one seek per drained
//! record, so a pass does not slow down with the number of cached entries.
//!
//! Passes run at access-epoch *openings* (`lock`, `lock_all`, `start`) and
//! after every `flush`/`flush_all`/`fence` — the points where MPI's epoch
//! rules make remotely-written data newly visible. Targets already marked
//! degraded (persistently failed) are skipped; a target that *fails during
//! a pass* is degraded on the spot, which drops every entry keyed to it —
//! its pending notifications degrade to a full per-target invalidation
//! rather than being lost.

use clampi_rma::{Process, PutRecord, RmaError, Window};

use crate::cache::RmaCache;
use crate::recovery::{with_retry, RetryPolicy};
use crate::stats::CacheStats;

/// How a cached window keeps its entries coherent with remote `put`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceMode {
    /// No coherence: staleness handling is the user's problem, exactly as
    /// in the paper (`CLAMPI_Invalidate`). Bit-identical to the
    /// pre-coherence code path.
    #[default]
    None,
    /// Lazy revalidation: at each pass, fetch the target's current write
    /// version (one 8-byte round trip) and drop every cached entry whose
    /// stored version differs. Pays wire latency per pass, needs no
    /// notification ring.
    EpochValidate,
    /// Surgical invalidation: at each pass, drain the target's
    /// put-notification ring (CPU-only, the records piggyback on epoch
    /// synchronization) and drop only the cached entries that overlap a
    /// put issued after they were filled. A ring overflow falls back to a
    /// full per-target invalidation.
    EagerInvalidate,
}

/// Per-window coherence state: one drain cursor per target (the ring
/// version up to which notifications have been consumed) plus reusable
/// scratch buffers for drained records.
#[derive(Debug, Default)]
pub(crate) struct CoherenceTracker {
    /// `cursors[t]` = ring version of `t` up to which this rank has
    /// drained (EagerInvalidate only).
    cursors: Vec<u64>,
    /// Drained records land here (reused across passes).
    scratch: Vec<PutRecord>,
    /// Records rewritten as `(lo, hi, version)` byte ranges, one extent
    /// directory probe each (reused across passes).
    ranges: Vec<(u64, u64, u64)>,
}

impl CoherenceTracker {
    pub(crate) fn new(ntargets: usize) -> Self {
        CoherenceTracker {
            cursors: vec![0; ntargets],
            scratch: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Runs one coherence pass over `target` (`None` = every target) in
    /// the mode configured on `cache`'s parameters. Management CPU time
    /// accumulates in the cache engine; the caller drains it via
    /// `RmaCache::take_cost` and charges the rank's clock.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_pass(
        &mut self,
        p: &mut Process,
        win: &mut Window,
        cache: &mut RmaCache,
        fault_stats: &mut CacheStats,
        degraded: &mut [bool],
        retry: &RetryPolicy,
        target: Option<usize>,
    ) {
        let mode = cache.params().coherence;
        if mode == CoherenceMode::None {
            return;
        }
        let n = win.ntargets();
        if self.cursors.len() < n {
            self.cursors.resize(n, 0);
        }
        let targets = match target {
            Some(t) => t..t + 1,
            None => 0..n,
        };
        for t in targets {
            if degraded[t] {
                continue;
            }
            match mode {
                CoherenceMode::None => unreachable!("early return above"),
                CoherenceMode::EpochValidate => {
                    self.validate_target(p, win, cache, fault_stats, degraded, retry, t);
                }
                CoherenceMode::EagerInvalidate => {
                    self.drain_target(p, win, cache, fault_stats, degraded, retry, t);
                }
            }
        }
    }

    /// `EpochValidate` for one target: fetch the current write version,
    /// drop entries stamped with any other version.
    #[allow(clippy::too_many_arguments)]
    fn validate_target(
        &mut self,
        p: &mut Process,
        win: &mut Window,
        cache: &mut RmaCache,
        fault_stats: &mut CacheStats,
        degraded: &mut [bool],
        retry: &RetryPolicy,
        t: usize,
    ) {
        if !cache.has_entries_for(t as u32) {
            return;
        }
        match with_retry(p, retry, fault_stats, |p| win.try_fetch_version(p, t)) {
            Ok(v) => {
                fault_stats.version_fetches += 1;
                let dropped = cache.invalidate_target_stale(t as u32, v);
                fault_stats.stale_hits_prevented += dropped as u64;
            }
            Err(e) => fail_target(cache, fault_stats, degraded, t, e),
        }
    }

    /// `EagerInvalidate` for one target: drain its notification ring and
    /// invalidate exactly the overlapped-and-older entries; a ring
    /// overflow degrades to a full per-target invalidation.
    #[allow(clippy::too_many_arguments)]
    fn drain_target(
        &mut self,
        p: &mut Process,
        win: &mut Window,
        cache: &mut RmaCache,
        fault_stats: &mut CacheStats,
        degraded: &mut [bool],
        retry: &RetryPolicy,
        t: usize,
    ) {
        if !cache.has_entries_for(t as u32) {
            // Nothing cached: skip the drain but refresh the cursor from
            // the zero-cost version peek, so old records cannot trigger a
            // spurious overflow later. Safe because any entry filled from
            // now on is stamped with a version ≥ this peek, and the stale
            // check (`entry.version < record.version`) can therefore
            // never need the skipped records.
            self.cursors[t] = win.version(t);
            return;
        }
        self.scratch.clear();
        let cursor = self.cursors[t];
        let scratch = &mut self.scratch;
        let drained = with_retry(p, retry, fault_stats, |p| {
            win.try_drain_notifications(p, t, cursor, scratch)
        });
        match drained {
            Ok(drain) => {
                if drain.overflowed {
                    fault_stats.notification_overflows += 1;
                    let dropped = cache.invalidate_range(t as u32, 0, u64::MAX);
                    fault_stats.stale_hits_prevented += dropped as u64;
                } else {
                    fault_stats.notifications_drained += self.scratch.len() as u64;
                    self.ranges.clear();
                    self.ranges.extend(
                        self.scratch
                            .iter()
                            .map(|r| (r.disp, r.disp.saturating_add(r.len), r.version)),
                    );
                    let dropped = cache.invalidate_overlapping_stale(t as u32, &self.ranges);
                    fault_stats.stale_hits_prevented += dropped as u64;
                }
                self.cursors[t] = drain.version;
            }
            Err(e) => fail_target(cache, fault_stats, degraded, t, e),
        }
    }
}

/// A coherence pass could not reach `t`: its cached entries can no longer
/// be validated, so they are all dropped (the pending notifications
/// degrade to a full per-target invalidation — never a silent drop). A
/// persistent failure additionally marks the target degraded, routing all
/// later accesses through the degraded path.
fn fail_target(
    cache: &mut RmaCache,
    fault_stats: &mut CacheStats,
    degraded: &mut [bool],
    t: usize,
    err: RmaError,
) {
    if matches!(err, RmaError::TargetFailed { .. }) {
        degraded[t] = true;
    }
    let dropped = cache.invalidate_range(t as u32, 0, u64::MAX);
    fault_stats.invalidations_on_failure += dropped as u64;
}
