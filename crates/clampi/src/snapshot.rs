//! Snapshot-consistent multi-get: a transactional read layer over cached
//! RMA windows.
//!
//! PR 4 gave cached reads *per-entry* freshness (version counters plus the
//! bounded put-notification ring), but a **batch** of gets can still see a
//! torn mix of old and new data: entry A served from the cache at version
//! 3, entry B fetched fresh at version 7, with a writer having touched
//! both in between. This module upgrades version stamps to **validity
//! intervals** and picks one timestamp contained in all of them, so that a
//! batch reflects a single — possibly slightly stale, never torn — moment
//! of the window's history.
//!
//! # How a snapshot is chosen
//!
//! Every write carries a *commit timestamp* from the window-global commit
//! clock ([`clampi_rma::PutRecord::ts`]): strictly increasing across all
//! targets, agreeing with each target's version order. A cache entry (or a
//! fresh fetch) is stamped with the commit state observed while its bytes
//! were read ([`SnapStamp`]); draining the notification ring then bounds
//! the entry's validity interval `[stamp.ts, hi)`, where `hi` is the
//! commit timestamp of the first later write overlapping the entry (`∞` if
//! none is known).
//!
//! The drain does not start at the stamp. Each request carries a
//! *validated-through* version `seen`: no overlapping write lies in
//! `(stamp.version, seen]`. For fetched or refetched bytes, and always
//! under `CoherenceMode::None`, `seen = stamp.version`. For a resident
//! hit under `EagerInvalidate` it is `max(stamp.version, cursor)`: the
//! coherence passes that advanced the target's drain cursor would have
//! dropped the entry had a drained record overlapped it. A target is
//! drained from the smallest `seen` of its requests, and a record closes
//! a request's interval only if it is newer than that request's `seen`.
//! So a hot entry stamped many rounds ago validates from the last pass,
//! not from a ring position long since evicted.
//!
//! `choose_timestamp` intersects the intervals of a whole batch: with
//! `L = max stamp.ts` and `H = min hi`, any `T` in `[L, H)` is consistent
//! for every request. The implementation picks the newest such `T` it can
//! *certify*: `min(cap, H − 1)`, where `cap` is the commit clock sampled
//! while draining (a write not seen by the drain must commit after `cap`,
//! so freshness beyond it cannot be promised). Requests whose interval
//! excludes the candidate (`hi ≤ L`) are refetched — through the
//! nonblocking/coalescing miss path — and the intersection is retried.
//!
//! # Abort conditions
//!
//! A validation attempt aborts (and the whole batch retries, bounded by
//! `MAX_ATTEMPTS` = 4) when
//!
//! - the notification ring **overflowed** past a request's
//!   validated-through version, so its interval cannot be bounded, or
//! - the bounded refetch rounds (`MAX_ROUNDS` = 4) fail to close the
//!   intersection under a fast writer.
//!
//! Retry attempts bypass the cache entirely (direct fetches with fresh
//! stamps), so a stale resident entry cannot livelock the batch. A target
//! **fault** mid-batch surfaces as [`SnapshotError::TargetFaulted`]
//! immediately — zero-filled fault bytes must never be folded into a
//! "consistent" snapshot.
//!
//! The algorithm itself lives in [`crate::CachedWindow::multi_get`]; this
//! module holds the types, the window's validation scratch and the pure
//! interval logic (unit-tested in isolation below).

/// Commit-state stamp of one cached payload: the bytes were read while
/// `target`'s window region was at write `version`, whose commit timestamp
/// was `ts`. It is the one thing an entry knows about the age of its
/// bytes: the coherence layer compares `version` against put-notification
/// records, the snapshot layer builds validity intervals from `ts`.
///
/// `exact` distinguishes stamps sampled inside the region read lock
/// (bytes ⟺ stamp, usable as a snapshot interval's lower bound) from
/// caller-supplied versions or merged partial fills, which only bound the
/// version from below (never newer than the bytes — at worst an
/// unnecessary invalidation) and force a refetch under
/// [`CachedWindow::multi_get`].
///
/// [`CachedWindow::multi_get`]: crate::CachedWindow::multi_get
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapStamp {
    /// Target-region write version observed with the payload bytes.
    pub version: u64,
    /// Commit timestamp of that version (0 = never written / unknown).
    pub ts: u64,
    /// Whether the stamp describes the bytes exactly (sampled under the
    /// region read lock) rather than conservatively.
    pub exact: bool,
}

impl SnapStamp {
    /// An exact stamp.
    pub fn exact(version: u64, ts: u64) -> Self {
        SnapStamp {
            version,
            ts,
            exact: true,
        }
    }

    /// What a stamp-blind caller knows: the bytes are no older than
    /// `version` (0 when versions are not tracked at all).
    pub(crate) fn inexact(version: u64) -> Self {
        SnapStamp {
            version,
            ts: 0,
            exact: false,
        }
    }

    /// The stamp of a payload stitched from two reads (a cached head and
    /// a fetched tail): the older of the two, exact only when both are
    /// exact at the *same* version — no write in between.
    pub(crate) fn merge(self, other: SnapStamp) -> Self {
        SnapStamp {
            version: self.version.min(other.version),
            ts: self.ts.min(other.ts),
            exact: self.exact && other.exact && self.version == other.version,
        }
    }
}

/// One read of a [`crate::CachedWindow::multi_get`] batch: `len` bytes at
/// byte displacement `disp` of `target`'s window region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapReq {
    /// Target rank.
    pub target: u32,
    /// Byte displacement into the target's window region.
    pub disp: usize,
    /// Length in bytes.
    pub len: usize,
}

/// Per-request interval state during validation (scratch, not API).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqBound {
    /// Stamp of the bytes currently in the destination slice.
    pub(crate) stamp: SnapStamp,
    /// Validated-through version: no write overlapping the request has a
    /// version in `(stamp.version, seen]`. `stamp.version` for fetched
    /// bytes; for a resident hit under `EagerInvalidate` it extends to the
    /// coherence cursor, which the passes already proved write-free.
    pub(crate) seen: u64,
    /// Exclusive upper bound: commit timestamp of the first known write
    /// overlapping this request after `seen` (`u64::MAX` when no such
    /// write is visible in the ring).
    pub(crate) hi: u64,
}

impl ReqBound {
    /// An unbounded interval from `stamp`, validated through `seen`.
    pub(crate) fn new(stamp: SnapStamp, seen: u64) -> Self {
        ReqBound {
            stamp,
            seen,
            hi: u64::MAX,
        }
    }
}

impl Default for ReqBound {
    /// The neutral interval `[0, ∞)` — what a zero-length request, which
    /// reads nothing, contributes to the intersection. Its stamp is
    /// inexact: a non-empty request with this bound is still to read.
    fn default() -> Self {
        ReqBound::new(SnapStamp::default(), 0)
    }
}

/// Outcome summary of a successful [`crate::CachedWindow::multi_get`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The commit timestamp the batch is consistent at.
    pub timestamp: u64,
    /// Requests refetched during validation (beyond the initial gather).
    pub refetched: u64,
    /// Validation attempts aborted (ring overflow / rounds exhausted)
    /// before the one that succeeded.
    pub aborts: u64,
    /// Staleness bound in virtual nanoseconds: the drain-time commit
    /// clock minus the chosen timestamp (0 = provably newest).
    pub staleness_ns: u64,
}

/// Why a [`crate::CachedWindow::multi_get`] could not produce a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// A target faulted mid-batch; its bytes would be zero-filled, which
    /// can never be part of a consistent snapshot. The caller decides
    /// whether to degrade (per-request reads) or propagate.
    TargetFaulted {
        /// The faulted target rank.
        target: u32,
    },
    /// Every whole-batch attempt was aborted (sustained ring overflow or
    /// writer pressure).
    RetriesExhausted,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TargetFaulted { target } => {
                write!(f, "snapshot aborted: target {target} faulted mid-batch")
            }
            SnapshotError::RetriesExhausted => {
                write!(f, "snapshot retries exhausted under writer pressure")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Scratch state for snapshot reads, owned by the window: every
/// temporary the validation loop needs, so a steady-state `multi_get`
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct SnapScratch {
    /// Per-request interval state (parallel to the batch).
    pub(crate) bounds: Vec<ReqBound>,
    /// Involved targets, ascending and deduplicated.
    pub(crate) targets: Vec<u32>,
}

/// Refetch rounds per validation attempt before the attempt is aborted
/// (each round refetches only the requests whose interval excludes the
/// candidate timestamp).
pub(crate) const MAX_ROUNDS: usize = 4;
/// Whole-batch attempts before [`SnapshotError::RetriesExhausted`].
/// Attempts after the first bypass the cache entirely.
pub(crate) const MAX_ATTEMPTS: usize = 4;

/// Intersects the batch's validity intervals and picks the newest commit
/// timestamp certifiable from the drains.
///
/// `cap` is the minimum over all drained targets of the commit clock
/// sampled inside the ring lock: any write invisible to the drains
/// commits strictly after it, so no `T > cap` can be certified. Every
/// exact stamp was read before its target's drain, hence `stamp.ts ≤ cap`
/// and the chosen `T = min(cap, H − 1)` always satisfies `T ≥ L`.
///
/// Returns `Ok(T)` when the intersection `[L, H)` is non-empty, else
/// `Err(L)` — the caller refetches every request with `hi ≤ L` (their
/// intervals ended before the newest request began) and retries.
pub(crate) fn choose_timestamp(bounds: &[ReqBound], cap: u64) -> Result<u64, u64> {
    let lo = bounds.iter().map(|b| b.stamp.ts).max().unwrap_or(0);
    let hi = bounds.iter().map(|b| b.hi).min().unwrap_or(u64::MAX);
    if hi > lo {
        // max() is defensive: with correct drains cap ≥ lo always holds.
        Ok(lo.max(cap.min(hi - 1)))
    } else {
        Err(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ts: u64, hi: u64) -> ReqBound {
        ReqBound {
            hi,
            ..ReqBound::new(SnapStamp::exact(ts, ts), ts)
        }
    }

    #[test]
    fn empty_batch_is_consistent_at_the_cap() {
        assert_eq!(choose_timestamp(&[], 42), Ok(42));
    }

    #[test]
    fn unbounded_intervals_pick_the_drain_cap() {
        // No later writes known: the snapshot is as fresh as the drains
        // can certify, never fresher.
        let bounds = [b(3, u64::MAX), b(7, u64::MAX)];
        assert_eq!(choose_timestamp(&bounds, 100), Ok(100));
    }

    #[test]
    fn bounded_interval_caps_at_h_minus_one() {
        // Request stamped at 3 was overwritten at 10: certifiable range
        // is [7, 10), newest is 9 even though the clock reads 100.
        let bounds = [b(3, 10), b(7, u64::MAX)];
        assert_eq!(choose_timestamp(&bounds, 100), Ok(9));
    }

    #[test]
    fn cap_below_h_wins() {
        let bounds = [b(3, 50), b(7, u64::MAX)];
        assert_eq!(choose_timestamp(&bounds, 20), Ok(20));
    }

    #[test]
    fn touching_intervals_are_still_consistent() {
        // hi == lo + 1 leaves exactly one timestamp: T == lo.
        let bounds = [b(3, 8), b(7, u64::MAX)];
        assert_eq!(choose_timestamp(&bounds, 100), Ok(7));
    }

    #[test]
    fn disjoint_intervals_report_the_bar_to_clear() {
        // Entry invalidated at 5 can never coexist with one created at 7:
        // the caller must refetch everything with hi ≤ 7.
        let bounds = [b(3, 5), b(7, u64::MAX)];
        assert_eq!(choose_timestamp(&bounds, 100), Err(7));
    }

    #[test]
    fn defensive_floor_never_returns_below_the_newest_stamp() {
        // cap < lo cannot happen with correct drains; the floor keeps the
        // result inside the intersection anyway.
        let bounds = [b(9, u64::MAX)];
        assert_eq!(choose_timestamp(&bounds, 2), Ok(9));
    }

    /// The window's locking in miniature: two targets' rings of
    /// `(version, ts)` records plus the commit clock, a writer putting once
    /// to each target, and a reader running `multi_get`'s validation loop
    /// over one request per target. Every step is one critical section of
    /// `clampi_rma::Window`, so running every order of the steps runs
    /// every schedule there is.
    #[derive(Clone, Default)]
    struct Mini {
        clock: u64,
        rings: [Vec<(u64, u64)>; 2],
        /// Writer steps taken, and the stamp of the put in flight.
        w_pc: usize,
        w_ts: u64,
        /// Reader step within the attempt, attempts that failed, the
        /// attempt's stamps and `(hi, now_ts)` drains, and every drain as
        /// `(target, newest version seen, now_ts)`.
        r_pc: usize,
        failed: usize,
        done: bool,
        stamps: [SnapStamp; 2],
        drains: [(u64, u64); 2],
        drain_log: Vec<(usize, u64, u64)>,
        /// The schedule so far, one `r`/`w` per step.
        trace: String,
    }

    impl Mini {
        /// Shipped: `note_put` stamps the clock and pushes the record in
        /// one ring critical section. `split` is the mutant whose stamp is
        /// its own step, taken before the ring push.
        fn writer_step(&mut self, split: bool) {
            let (target, stamp, push) = if split {
                let first = self.w_pc.is_multiple_of(2);
                (self.w_pc / 2, first, !first)
            } else {
                (self.w_pc, true, true)
            };
            if stamp {
                self.clock += 1;
                self.w_ts = self.clock;
            }
            if push {
                let version = self.rings[target].len() as u64 + 1;
                self.rings[target].push((version, self.w_ts));
            }
            self.w_pc += 1;
            self.trace.push('w');
        }

        /// Read both stamps, drain both rings (`hi` and the clock under
        /// the ring lock), intersect; on `Err` refetch everything.
        fn reader_step(&mut self) -> Result<(), String> {
            self.trace.push('r');
            let t = self.r_pc % 2;
            let ring = &self.rings[t];
            if self.r_pc < 2 {
                let (version, ts) = ring.last().copied().unwrap_or_default();
                self.stamps[t] = SnapStamp::exact(version, ts);
            } else {
                let hi = ring
                    .iter()
                    .find(|r| r.0 > self.stamps[t].version)
                    .map_or(u64::MAX, |r| r.1);
                self.drains[t] = (hi, self.clock);
                self.drain_log
                    .push((t, ring.last().map_or(0, |r| r.0), self.clock));
            }
            self.r_pc += 1;
            if self.r_pc < 4 {
                return Ok(());
            }
            self.r_pc = 0;
            let bounds = [0, 1].map(|t| ReqBound {
                hi: self.drains[t].0,
                ..ReqBound::new(self.stamps[t], self.stamps[t].version)
            });
            match choose_timestamp(&bounds, self.drains[0].1.min(self.drains[1].1)) {
                Ok(ts) => match bounds.iter().find(|b| b.stamp.ts > ts || ts >= b.hi) {
                    Some(b) => Err(format!("T {ts} outside [{}, {})", b.stamp.ts, b.hi)),
                    None => {
                        self.done = true;
                        Ok(())
                    }
                },
                Err(_) if self.failed == 2 => Err("a 4th attempt".into()),
                Err(_) => {
                    self.failed += 1;
                    Ok(())
                }
            }
        }
    }

    /// Runs every interleaving from `s`: the number of complete
    /// schedules, or the first violating one and what it broke.
    fn explore(s: Mini, split: bool) -> Result<usize, String> {
        let writer_steps = if split { 4 } else { 2 };
        if s.done && s.w_pc == writer_steps {
            for &(t, seen, now_ts) in &s.drain_log {
                if let Some((v, ts)) = s.rings[t].iter().find(|r| r.0 > seen && r.1 <= now_ts) {
                    return Err(format!(
                        "{}: put v{v} to target {t}, unseen by a drain, stamped {ts} <= now_ts {now_ts}",
                        s.trace
                    ));
                }
            }
            return Ok(1);
        }
        let mut schedules = 0;
        if !s.done {
            let mut n = s.clone();
            n.reader_step().map_err(|e| format!("{}: {e}", n.trace))?;
            schedules += explore(n, split)?;
        }
        if s.w_pc < writer_steps {
            let mut n = s;
            n.writer_step(split);
            schedules += explore(n, split)?;
        }
        Ok(schedules)
    }

    #[test]
    fn every_schedule_of_the_miniature_picks_a_certified_timestamp() {
        let schedules = explore(Mini::default(), false).unwrap_or_else(|e| panic!("{e}"));
        // The writer's two steps placed among the first attempt's four:
        // C(6, 2). An attempt fails only with both puts inside it, so a
        // retry lengthens a schedule but never branches it.
        assert_eq!(schedules, 15);
    }

    #[test]
    fn a_stamp_taken_before_the_ring_push_is_caught() {
        let err = explore(Mini::default(), true).expect_err("split-stamp mutant passed");
        assert!(err.contains("unseen by a drain"), "{err}");
    }
}
