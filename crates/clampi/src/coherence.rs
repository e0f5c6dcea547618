//! Coherence for cached reads under concurrent remote `put`s.
//!
//! The paper's CLaMPI caches only `get`s and punts staleness to the user
//! via `CLAMPI_Invalidate`: any workload where another rank `put`s into a
//! cached region cannot be cached. This module closes that gap with two
//! RMA-layer primitives (see `clampi_rma::window`):
//!
//! - **Version counters**: every window region carries a monotonic write
//!   version, bumped on each `put` touching it. A get samples the
//!   version under the same region read lock it copies its bytes under,
//!   so a cache entry stamped with version `v` ([`crate::SnapStamp`],
//!   set where the entry is installed) contains every write up to `v`
//!   and no byte written after it.
//! - **Put-notification channels**: each region keeps a bounded ring of
//!   `(origin, disp, len, version)` records, one per put. A reader drains
//!   the records it has not yet seen; a ring overflow is detected (not
//!   silently dropped) and reported so the reader can fall back to a full
//!   per-target invalidation.
//!
//! [`CoherenceMode`] selects whether a [`crate::CachedWindow`] uses them:
//!
//! | mode | cost per pass and target | invalidation granularity |
//! |------|--------------------|--------------------------|
//! | `None` | zero | none (pre-coherence behaviour, bit-identical) |
//! | `EagerInvalidate` | CPU-only notification drain (one issue overhead + a record-sized copy per unseen record); zero when the last get reply proves the drain empty | only entries overlapping a drained put record; the whole target when the ring overflowed |
//! | `EagerInvalidate`, at `validate` | the drain, then one nonblocking refetch per stale CACHED entry (issue overhead and wire time, or a coalesced span's extra bytes) and a refresh in place that pays only its deferred copy, completed by one flush per target: one wire latency blocked, not one per entry | as above, but the stale entries are kept and rewritten in place before `validate` returns; one is evicted only if its refetch fails |
//! | `EagerInvalidate`, at this rank's own `put` | zero when nothing of the target is cached; else one lookup, plus a copy of the entry when one qualifies | none: a CACHED contiguous entry keyed exactly at the put's displacement and no longer than it takes the put's bytes and exact stamp; every other entry the put overlaps is left to the drain. A put the target's grid proves *settled* (nothing else can overlap it) is logged, and the drain skips its record: no probe, no charge |
//!
//! What `validate` refreshes: every CACHED entry its own pass finds stale,
//! by a stale overlap or by the ring-overflow whole-target drop, in
//! ascending `(target, disp)`. The pass keeps such an entry resident; the
//! refetch writes its bytes into the entry's own storage region and gives
//! it the fetch's exact stamp, and it is PENDING until the flush's epoch
//! hook. Its slab id, index slot and last access stay: nothing is freed,
//! allocated or inserted, so a refresh cannot fail or evict another entry
//! for want of room. Evicted as by any pass instead: PENDING entries,
//! entries that `flush`/`lock_all` passes or a failed drain find, and entries
//! of degraded targets or of targets with no open access epoch. A refresh
//! is not a get (no `seq`, `ags` or access class; it counts in
//! `CacheStats::refetches`). A refetch that exhausts its retries evicts its
//! entry; a dead target is degraded, which drops it with the rest of the
//! target. So no stale entry survives `validate`, and the cursor's proof
//! below holds again when it returns.
//!
//! What a put writes through (`CacheStats::put_updates`): the writer's own
//! copy of exactly what it wrote. The put overwrote every byte of the
//! entry at version `v`, and versions are ordered under the region lock,
//! so every earlier overlapping write is superseded and every later one
//! has a version above `v` and still drops the entry at the next drain.
//! Not updated: PENDING or strided entries, entries keyed elsewhere or
//! longer than the put, puts that failed or were discarded (degraded
//! target, retries exhausted), and every put under `CoherenceMode::None`.
//! An update is not a get either: `seq`, `ags`, `last` and the access
//! classes stay put. Never settled: puts through `inner_mut()`,
//! non-contiguous puts and other origins' puts, whose records drain.
//!
//! There is one mechanism. A window that cannot afford a notification ring
//! sets `SimConfig::with_notify_ring_cap(0)`: every drain after a write
//! then overflows and drops the target's entries — whole-target
//! invalidation on any version change, CPU-only. (That is what the
//! deleted epoch-validation mode did with one 8-byte version round trip
//! per pass; it was slower than this on every measured row, see
//! EXPERIMENTS.md.)
//!
//! A pass never scans the index: victims are found through the engine's
//! ordered extent directory (see
//! [`RmaCache::invalidate_overlapping_stale`](crate::RmaCache::invalidate_overlapping_stale)),
//! one seek per drained record, or one exact-key index probe per grid
//! point of a narrow record on a target whose entries sit on a grid.
//!
//! Passes run at access-epoch *openings* (`lock_all`), at
//! `validate`, and after every `flush`/`flush_all` — the points
//! where MPI's epoch rules make remotely-written data newly visible.
//! Targets already marked degraded (persistently failed) are skipped; a
//! target that *fails during a pass* is degraded on the spot, which drops
//! every entry keyed to it — its pending notifications degrade to a full
//! per-target invalidation rather than being lost.
//!
//! Two facts let the layer do work only for what changed:
//!
//! - **The cursor is a proof.** An entry still resident in target `t` is
//!   write-free through `t`'s cursor: the pass that advanced the cursor
//!   dropped every entry (PENDING ones included) that a drained record
//!   overlapped and postdated, or, in `validate`, refreshed it from a
//!   later fetch before returning. The snapshot layer validates a resident
//!   hit from there instead of from its stamp.
//! - **A get reply can prove a drain empty.** Every get reply carries the
//!   target's version for free. A pass skips `t`'s drain (and its issue
//!   overhead) when the last reply from `t` read the cursor's version and
//!   [`Process::sync_events`](clampi_rma::Process::sync_events) has not
//!   moved since: this rank has neither written (through any window) nor
//!   acquired anything — no `lock_all` or collective, on any window. A write
//!   the pass then does not see is one no synchronization has ordered
//!   before this rank's next get; the cursor does not move, so the next
//!   pass that drains sees it. In practice only `flush`/`flush_all`
//!   passes skip: `lock_all` is a sync event itself, and
//!   `validate` forgets the replies before its pass. Every pass consumes
//!   the reply.
//!
//! The pass itself is `CachedWindow::coherence_pass`; this module holds
//! the mode. The drain state lives in the window's one record per target
//! (`TargetState` in `window.rs`): the drain cursor, the last reply's
//! sample and the settled-put log, next to the target's fault status and
//! in-flight transfers, so one index reaches all of a target's state.

/// How a cached window keeps its entries coherent with remote `put`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceMode {
    /// No coherence: staleness handling is the user's problem, exactly as
    /// in the paper (`CLAMPI_Invalidate`). Bit-identical to the
    /// pre-coherence code path.
    #[default]
    None,
    /// Surgical invalidation: at each pass, drain the target's
    /// put-notification ring (CPU-only, the records piggyback on epoch
    /// synchronization) and drop only the cached entries that overlap a
    /// put issued after they were filled. A ring overflow — every drain
    /// after a write, at ring capacity 0 — falls back to a full
    /// per-target invalidation.
    EagerInvalidate,
}
