//! Caching-enabled windows: the user-facing CLaMPI API (Sec. III-A).
//!
//! [`CachedWindow`] wraps an RMA [`Window`] and transparently routes `get`s
//! through the caching engine. The operational mode — the paper's
//! MPI_INFO-key choices — controls invalidation:
//!
//! - [`Mode::Transparent`]: no code changes, cache invalidated at every
//!   epoch closure (safe for arbitrary access patterns);
//! - [`Mode::AlwaysCache`]: the window is read-only for its entire
//!   lifespan (e.g. a static graph) — never invalidated automatically;
//! - [`Mode::UserDefined`]: like always-cache, but the application marks
//!   the end of a read-only phase with [`CachedWindow::invalidate`]
//!   (the paper's `CLAMPI_Invalidate`);
//! - [`Mode::Disabled`]: plain pass-through to the underlying RMA window
//!   (the "foMPI" baseline in every benchmark).
//!
//! Puts and synchronization calls delegate to the inner window; every
//! epoch-closing call (`flush`, `flush_all`, `unlock`, `unlock_all`,
//! `fence`) additionally runs the cache's epoch hook and, when enabled,
//! the adaptive controller.

use clampi_datatype::{Datatype, FlatLayout};
use clampi_rma::{LockKind, NotifyDrain, Process, PutRecord, RmaError, StagedGet, Window};

use crate::adaptive::{AdaptiveController, AdaptiveParams};
use crate::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
use crate::coherence::CoherenceMode;
use crate::index::GetKey;
use crate::recovery::{with_retry, RetryPolicy};
use crate::snapshot::{
    choose_timestamp, ReqBound, SnapReq, SnapScratch, SnapStamp, SnapshotError, SnapshotInfo,
    MAX_ATTEMPTS, MAX_ROUNDS,
};
use crate::stats::{AccessType, CacheStats};

/// Operational mode of a caching-enabled window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Cache disabled: every get goes to the network (baseline).
    Disabled,
    /// Cache everything, invalidate at each epoch closure.
    #[default]
    Transparent,
    /// Window is read-only forever: never invalidate automatically.
    AlwaysCache,
    /// Read-only phases delimited by explicit
    /// [`CachedWindow::invalidate`] calls.
    UserDefined,
}

/// Creation-time configuration (the MPI_INFO object of the paper).
#[derive(Debug, Clone, Default)]
pub struct ClampiConfig {
    /// Operational mode.
    pub mode: Mode,
    /// Cache parameters (`|I_w|`, `|S_w|`, victim scheme, costs, seed).
    pub params: CacheParams,
    /// `Some` enables the *adaptive* strategy; `None` is the *fixed* one.
    pub adaptive: Option<AdaptiveParams>,
    /// Retry/backoff policy for transient RMA faults (only relevant when
    /// the simulator injects faults; with faults disabled no retry path
    /// is ever taken).
    pub retry: RetryPolicy,
}

impl ClampiConfig {
    /// A disabled (pass-through, "foMPI") configuration.
    pub fn disabled() -> Self {
        ClampiConfig {
            mode: Mode::Disabled,
            ..ClampiConfig::default()
        }
    }

    /// A fixed-parameter configuration in the given mode.
    pub fn fixed(mode: Mode, params: CacheParams) -> Self {
        ClampiConfig {
            mode,
            params,
            adaptive: None,
            retry: RetryPolicy::default(),
        }
    }

    /// An adaptive configuration starting from the given parameters.
    pub fn adaptive(mode: Mode, params: CacheParams) -> Self {
        ClampiConfig {
            mode,
            params,
            adaptive: Some(AdaptiveParams::default()),
            retry: RetryPolicy::default(),
        }
    }

    /// The same configuration with a different retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// One outstanding coalesced nonblocking miss transfer: the merged byte
/// extent `[lo, hi)` of one or more staged miss fetches towards `target`,
/// still in flight on the wire. Later adjacent/overlapping misses widen
/// the span instead of paying a new issue overhead and latency.
#[derive(Debug, Clone, Copy)]
struct NbSpan {
    target: usize,
    lo: u64,
    hi: u64,
}

/// How a get's wire time is accounted. Chosen by *which public method was
/// called* ([`CachedWindow::get`] vs [`CachedWindow::get_nb`]), never
/// configured: what the cache does is the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Completion {
    /// The inner window charges the issue overhead and posts the
    /// transfer itself (`Window::try_get_flat`).
    Blocking,
    /// The fetch is staged uncharged (`Window::try_get_staged`) and booked
    /// into the outstanding-miss table, where adjacent misses coalesce.
    Batched,
    /// [`Completion::Batched`] for `validate`'s refetches, which go out in
    /// ascending `(target, disp)`: only the newest outstanding span can
    /// be adjacent, so it is the only merge candidate examined.
    Refetch,
}

/// What one get did: its classification *and* where `dst`'s bytes came
/// from — everything the snapshot layer and the public wrappers need,
/// without reading counters before and after the call.
#[derive(Debug, Clone, Copy)]
enum GetOutcome {
    /// Served entirely from a resident entry (a hit; nothing fetched).
    Resident,
    /// A cached head (empty when the resident layout was incompatible)
    /// plus a fetched remainder: no single stamp describes the bytes.
    Partial(AccessType),
    /// Every byte was fetched by this call, and `SnapStamp` is exact for
    /// them. The class is `None` when the cache was bypassed (disabled
    /// mode, zero-size get).
    Fetched(Option<AccessType>, SnapStamp),
    /// Zero-filled by the fault path (degraded target, abandoned fetch).
    Faulted,
}

impl GetOutcome {
    /// The public classification (`None` = the request bypassed the cache).
    fn class(self) -> Option<AccessType> {
        match self {
            GetOutcome::Resident => Some(AccessType::Hit),
            GetOutcome::Partial(class) => Some(class),
            GetOutcome::Fetched(class, _) => class,
            GetOutcome::Faulted => Some(AccessType::Faulted),
        }
    }
}

/// A caching-enabled RMA window.
#[derive(Debug)]
pub struct CachedWindow {
    win: Window,
    cache: Option<RmaCache>,
    controller: Option<AdaptiveController>,
    mode: Mode,
    retry: RetryPolicy,
    /// Everything the window keeps per target, indexed by rank.
    targets: Vec<TargetState>,
    /// Fault counters (retries, timeouts, degraded gets) kept outside the
    /// cache engine so they exist even in [`Mode::Disabled`]; merged into
    /// [`CachedWindow::stats`].
    fault_stats: CacheStats,
    /// The outstanding-miss table's wire view: one span per in-flight
    /// coalesced transfer, drained at every epoch closure.
    nb_spans: Vec<NbSpan>,
    /// The typed wrappers' one-entry flatten memo (see [`LayoutMemo`]).
    memo: Option<LayoutMemo>,
    /// Reusable packed-payload buffer for [`CachedWindow::get_typed`].
    scratch_buf: Vec<u8>,
    /// [`CachedWindow::multi_get`]'s validation scratch, taken and put
    /// back around each batch.
    snap_scratch: SnapScratch,
    /// Drained notification records land here (reused across drains, by
    /// the coherence passes and the snapshot validation alike).
    drained: Vec<PutRecord>,
    /// A pass's records rewritten as `(lo, hi, version)` byte ranges, one
    /// extent directory probe each (reused across passes).
    ranges: Vec<(u64, u64, u64)>,
}

/// One target's state in a [`CachedWindow`]: its fault status, its
/// in-flight transfers and its coherence state.
#[derive(Debug, Clone, Default)]
struct TargetState {
    /// Marked persistently failed: its cached entries are dropped and its
    /// gets served degraded (see `crate::recovery`).
    degraded: bool,
    /// A batched or refetch fetch was staged towards it since the last
    /// completion event towards it: the next flush decision must wait for
    /// it (`CachedWindow::complete_staged`), whatever wire time it posted.
    staged: bool,
    /// Wire ns posted by the nonblocking path since the last completion
    /// event towards it (input to the overlap accounting).
    posted_wire: f64,
    /// The ring version up to which this rank has drained it. Every entry
    /// of the target still resident is write-free through it: the pass
    /// that advanced it dropped every entry a drained record overlapped
    /// and postdated.
    cursor: u64,
    /// The last get reply from it since the last pass over it (each pass
    /// consumes it).
    sample: Option<ReplySample>,
    /// Ring versions of this rank's puts to it since the last pass over it
    /// that left nothing stale (`RmaCache::update_on_put`), ascending: the
    /// drain skips their records. At most the ring's capacity (past it the
    /// ring overflows); every pass over the target clears it, drained or
    /// not.
    settled: Vec<u64>,
}

/// What the last get reply from a target said about it: the target's
/// version, sampled with the bytes (free, see `Window::last_get_stamp`),
/// and `Process::sync_events` at that moment.
#[derive(Debug, Clone, Copy)]
struct ReplySample {
    /// The target's write version when the reply's bytes were read.
    version: u64,
    /// `Process::sync_events` at the reply.
    sync_events: u64,
}

impl TargetState {
    /// Consumes the reply sample and reports whether it proves a drain of
    /// the target empty: the reply saw the target at the cursor, and this
    /// rank's `sync_events` count has not moved since — it has neither
    /// written (its own put must be drained unless it was settled: every
    /// other entry it overlaps must drop) nor acquired a lock, a PSCW
    /// epoch or a collective (each of which may order another rank's
    /// flushed put before this rank's next get). A put by another rank
    /// after the reply, with no such event in between, is one MPI lets
    /// this rank not see yet; the next pass that drains picks it up from
    /// the unmoved cursor.
    fn take_quiet(&mut self, sync_events: u64) -> bool {
        let cursor = self.cursor;
        self.sample
            .take()
            .is_some_and(|s| s.version == cursor && s.sync_events == sync_events)
    }

    /// A completion event towards the target: nothing of it is in flight
    /// any more. Returns the wire ns it had posted.
    fn complete(&mut self) -> f64 {
        self.staged = false;
        std::mem::take(&mut self.posted_wire)
    }
}

/// The last `(dtype, count)` of a non-basic type a typed get flattened on
/// this window, with its signature. One entry, replaced on every mismatch:
/// a get repeating the previous type costs one `Datatype` comparison
/// instead of a flatten, and its signature shares the `Arc<FlatLayout>` of
/// the entries it created, so the engine's layout comparison is a pointer
/// check. Basic-type gets never consult it.
#[derive(Debug)]
struct LayoutMemo {
    dtype: Datatype,
    count: usize,
    sig: LayoutSig,
}

/// Why one snapshot validation attempt was abandoned (internal; the
/// public face is [`SnapshotError`] after the bounded whole-batch retry).
#[derive(Debug, Clone, Copy)]
enum SnapAbort {
    /// A notification ring dropped records past a request's stamp, so its
    /// validity interval can no longer be bounded.
    Overflow,
    /// [`MAX_ROUNDS`] refetch rounds failed to close the
    /// interval intersection under writer pressure.
    Rounds,
    /// A target faulted mid-batch (the degraded flag tells persistent
    /// from transient at the retry decision).
    Fault(usize),
}

impl CachedWindow {
    /// Collectively creates a window of `size` local bytes with the given
    /// caching configuration (every rank must call).
    pub fn create(p: &mut Process, size: usize, cfg: ClampiConfig) -> Self {
        let win = p.win_allocate(size);
        Self::wrap(win, cfg)
    }

    /// Wraps an existing window with a caching layer.
    pub fn wrap(win: Window, cfg: ClampiConfig) -> Self {
        let cache = (cfg.mode != Mode::Disabled).then(|| RmaCache::new(cfg.params.clone()));
        let controller = match (&cache, cfg.adaptive) {
            (Some(_), Some(ap)) => Some(AdaptiveController::new(ap)),
            _ => None,
        };
        let targets = vec![TargetState::default(); win.ntargets()];
        CachedWindow {
            win,
            cache,
            controller,
            mode: cfg.mode,
            retry: cfg.retry,
            targets,
            fault_stats: CacheStats::default(),
            nb_spans: Vec::new(),
            memo: None,
            scratch_buf: Vec::new(),
            snap_scratch: SnapScratch::default(),
            drained: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// The configured coherence mode ([`CoherenceMode::None`] when caching
    /// is disabled).
    pub fn coherence_mode(&self) -> CoherenceMode {
        self.cache
            .as_ref()
            .map(|c| c.params().coherence)
            .unwrap_or_default()
    }

    /// Runs one coherence pass over `target` (`None` = every target,
    /// degraded ones skipped) and charges the accumulated management
    /// cost. No-op when the mode is [`CoherenceMode::None`] or caching is
    /// disabled.
    ///
    /// Every pass consumes each target's last get-reply sample and skips
    /// the drain of a target whose sample proves it empty
    /// (`TargetState::take_quiet`). Only `flush`/`flush_all` passes can
    /// skip: the calls that open an epoch are sync events themselves, and
    /// `validate` forgets the samples first.
    ///
    /// With `keep` (`validate`'s pass), the drain of a target with an open
    /// access epoch keeps its stale CACHED entries resident, for
    /// [`CachedWindow::refresh_kept`].
    fn coherence_pass(&mut self, p: &mut Process, target: Option<usize>, keep: bool) {
        if self.coherence_mode() == CoherenceMode::None {
            return;
        }
        let targets = match target {
            Some(t) => t..t + 1,
            None => 0..self.win.ntargets(),
        };
        let sync_events = p.sync_events();
        for t in targets {
            let quiet = self.targets[t].take_quiet(sync_events);
            if !self.targets[t].degraded && !quiet {
                self.drain_target(p, t, keep);
            }
            self.targets[t].settled.clear();
        }
        self.charge_engine(p);
    }

    /// The coherence pass for one target: drain its notification ring and
    /// invalidate exactly the overlapped-and-older entries; a ring
    /// overflow degrades to a full per-target invalidation. A drain that
    /// fails drops the target's entries: none is kept or refetched.
    fn drain_target(&mut self, p: &mut Process, t: usize, keep: bool) {
        if !(self.cache.as_ref()).is_some_and(|c| c.has_entries_for(t as u32)) {
            // Nothing cached: skip the drain but refresh the cursor from
            // the zero-cost version peek, so old records cannot trigger a
            // spurious overflow later. Safe because any entry filled from
            // now on is stamped with a version ≥ this peek, and the stale
            // check (`entry.stamp.version < record.version`) can
            // therefore never need the skipped records.
            self.targets[t].cursor = self.win.version(t);
            return;
        }
        match self.drain(p, t, self.targets[t].cursor) {
            Ok(drain) => {
                let ranges = if drain.overflowed {
                    self.fault_stats.notification_overflows += 1;
                    None
                } else {
                    self.fault_stats.notifications_drained += self.drained.len() as u64;
                    // The settled log is a subsequence of the records.
                    let mut settled = self.targets[t].settled.iter().peekable();
                    self.ranges.clear();
                    self.ranges.extend(
                        (self.drained.iter())
                            .filter(|r| settled.next_if_eq(&&r.version).is_none())
                            .map(|r| (r.disp, r.disp.saturating_add(r.len), r.version)),
                    );
                    Some(self.ranges.as_mut_slice())
                };
                let keep = keep && self.win.epoch_open_for(t);
                if let Some(cache) = self.cache.as_mut() {
                    let dropped = cache.invalidate_drained(t as u32, ranges, keep);
                    self.fault_stats.stale_hits_prevented += dropped as u64;
                }
                self.targets[t].cursor = drain.version;
            }
            Err(e) => {
                // The pass could not reach `t`: its cached entries can no
                // longer be validated, so they are all dropped (the
                // pending notifications degrade to a full per-target
                // invalidation — never a silent drop), whether or not the
                // failure is persistent.
                self.targets[t].degraded |= matches!(e, RmaError::TargetFailed { .. });
                self.drop_target(t);
            }
        }
    }

    /// Drains `t`'s notification ring past version `from` into
    /// `self.drained` under the retry policy. Shared by the coherence pass
    /// and the snapshot validation.
    fn drain(&mut self, p: &mut Process, t: usize, from: u64) -> Result<NotifyDrain, RmaError> {
        with_retry(p, &self.retry, &mut self.fault_stats, |p| {
            self.drained.clear();
            self.win
                .try_drain_notifications(p, t, from, &mut self.drained)
        })
    }

    /// The caching engine on the caching-enabled path.
    fn engine(&mut self) -> &mut RmaCache {
        self.cache.as_mut().expect("caching-enabled path") // xlint: allow(no-unwrap) callers checked `cache.is_some()`
    }

    /// Charges the engine's accumulated management cost to the rank's
    /// virtual clock (no-op when caching is disabled).
    fn charge_engine(&mut self, p: &mut Process) {
        if let Some(cache) = self.cache.as_mut() {
            p.clock_mut().charge_cpu(cache.take_cost());
        }
    }

    /// Forces a coherence pass over every target — the explicit handle for
    /// applications whose read phases are delimited by barriers rather
    /// than epoch-opening calls (e.g. in-place PageRank updates: after the
    /// post-put barrier, `validate` makes the remote writes of the
    /// finished superstep safe to read through the cache).
    ///
    /// With [`CoherenceMode::EagerInvalidate`] this drains every target's
    /// notifications; with [`CoherenceMode::None`] it falls back to a full
    /// [`CachedWindow::invalidate`] (the only safe answer without version
    /// tracking); with caching disabled it is a no-op.
    ///
    /// It forgets the get-reply samples first, so the pass drains every
    /// target even when no sync event happened since its last reply.
    ///
    /// Under `EagerInvalidate` it then refreshes every stale CACHED entry
    /// its own pass found, in place, from one batch of nonblocking fetches
    /// completed by one flush per target, so the next read phase hits
    /// instead of paying one blocking miss per updated entry. Entries of
    /// degraded targets and of targets with no open access epoch are
    /// dropped.
    pub fn validate(&mut self, p: &mut Process) {
        match self.coherence_mode() {
            CoherenceMode::None => self.invalidate(p),
            CoherenceMode::EagerInvalidate => {
                self.targets.iter_mut().for_each(|s| s.sample = None);
                self.coherence_pass(p, None, true);
                self.refresh_kept(p);
            }
        }
    }

    /// Fetches again, in ascending `(target, disp)`, every entry the
    /// engine's kept log holds, and refreshes it in place. Each refetch is
    /// a batched fetch (issue overhead, or a coalesced span's extra bytes;
    /// its wire time posted); the refresh pays only its deferred copy. One
    /// flush per target completes the batch, and the engine's epoch hook
    /// makes every refreshed entry CACHED. A fetch that exhausts its
    /// retries evicts its entry; one that finds the target dead degrades
    /// it, which drops every entry of the target, the kept ones with it.
    /// So every kept entry is refreshed or gone when this returns.
    fn refresh_kept(&mut self, p: &mut Process) {
        let kept = self.engine().take_kept();
        let mut buf = std::mem::take(&mut self.scratch_buf);
        for &k in &kept {
            let t = k.key.target as usize;
            if self.targets[t].degraded {
                continue;
            }
            // In flight once attempted: the target is flushed (and its
            // epoch hook run) even if every refetch to it fails.
            self.targets[t].staged = true;
            let sig = self.engine().kept_sig(k);
            buf.clear();
            buf.resize(sig.size(), 0);
            let disp = k.key.disp as usize;
            match self.fetch(p, &mut buf, t, disp, sig.blocks(), Completion::Refetch) {
                Ok(stamp) => {
                    self.fault_stats.refetches += 1;
                    self.engine().refresh(k, &buf, stamp);
                }
                Err(e) => {
                    self.degrade_if_dead(p, t, &e);
                    if !self.targets[t].degraded {
                        self.engine().evict_kept(k);
                        self.charge_engine(p);
                    }
                }
            }
        }
        self.scratch_buf = buf;
        let targets = kept.chunk_by(|a, b| a.key.target == b.key.target);
        let flushed = self.complete_staged(p, targets.map(|c| c[0].key.target as usize));
        for _ in 0..flushed {
            self.engine().epoch_close();
        }
        self.charge_engine(p);
        self.engine().recycle_kept(kept);
    }

    /// The operational mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The wrapped RMA window (e.g. to issue uncached operations).
    pub fn inner(&self) -> &Window {
        &self.win
    }

    /// Mutable access to the wrapped RMA window. Operations issued here
    /// bypass the cache entirely (the paper's dual-window idiom for
    /// per-operation cache bypass).
    pub fn inner_mut(&mut self) -> &mut Window {
        &mut self.win
    }

    /// Cache statistics (zeroed if caching is disabled), merged with the
    /// recovery layer's fault counters (`retries`, `timeouts`,
    /// `degraded_gets`, `invalidations_on_failure`, plus one `Faulted`
    /// classification per degraded or abandoned get).
    pub fn stats(&self) -> CacheStats {
        let mut s = self.cache.as_ref().map(|c| *c.stats()).unwrap_or_default();
        s.merge(&self.fault_stats);
        s
    }

    /// Whether `target` has been marked persistently failed (all its gets
    /// are now served degraded, without network traffic).
    pub fn is_degraded(&self, target: usize) -> bool {
        self.targets[target].degraded
    }

    /// Drops every cached entry keyed to an unreachable `target`, counted
    /// in `invalidations_on_failure`. The caller charges the engine.
    fn drop_target(&mut self, target: usize) {
        if let Some(cache) = self.cache.as_mut() {
            let dropped = cache.invalidate_range(target as u32, 0, u64::MAX);
            self.fault_stats.invalidations_on_failure += dropped as u64;
        }
    }

    /// Books an abandoned operation's error: a persistent failure marks
    /// `target` degraded — drops every cached entry keyed to it and
    /// routes later accesses through the degraded path. Transient errors
    /// degrade nothing.
    fn degrade_if_dead(&mut self, p: &mut Process, target: usize, err: &RmaError) {
        if !matches!(err, RmaError::TargetFailed { .. }) || self.targets[target].degraded {
            return;
        }
        self.targets[target].degraded = true;
        self.drop_target(target);
        self.charge_engine(p);
    }

    /// Concludes a get whose fetch was abandoned: degrades the target on
    /// persistent failure, delivers a deterministic zero-filled payload,
    /// and classifies the access `Faulted` (the application continues;
    /// the classification is observable via [`CachedWindow::stats`] and
    /// the returned [`AccessType`]).
    fn fail_get(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        err: RmaError,
    ) -> GetOutcome {
        self.degrade_if_dead(p, target, &err);
        dst.fill(0);
        self.fault_stats.abandoned_gets += 1;
        self.fault_stats.record(AccessType::Faulted);
        GetOutcome::Faulted
    }

    /// The caching engine, if enabled (figure binaries read occupancy,
    /// `ags`, parameters from here).
    pub fn cache(&self) -> Option<&RmaCache> {
        self.cache.as_ref()
    }

    /// Zero-cost peek at `target`'s notification-ring horizon (version,
    /// commit timestamps, evicted-history watermark, global commit
    /// clock). Benches and tests use it to bound snapshot staleness:
    /// a successful [`CachedWindow::multi_get`] timestamp is always ≥
    /// the `dropped_through_ts` watermark observed before the batch.
    pub fn notify_horizon(&self, target: usize) -> clampi_rma::NotifyHorizon {
        self.win.notify_horizon(target)
    }

    /// This rank's exposed region, mutable (initialization).
    pub fn local_mut(&self) -> clampi_rma::MappedWriteGuard<'_> {
        self.win.local_mut()
    }

    /// This rank's exposed region, read-only.
    pub fn local_ref(&self) -> clampi_rma::MappedReadGuard<'_> {
        self.win.local_ref()
    }

    /// The concluded-epoch counter of the underlying window.
    pub fn epoch(&self) -> u64 {
        self.win.epoch()
    }

    /// A cached get (`get_c`): serves from the cache on a hit, otherwise
    /// fetches remotely and tries to install the data.
    ///
    /// Returns the access classification, or `None` when the request
    /// bypassed the cache (disabled mode or zero-size gets). A
    /// [`AccessType::Hit`] means no remote operation was issued — the
    /// caller may skip the flush it would otherwise need before consuming
    /// `dst` (this is exactly where the paper's hit-latency win comes
    /// from).
    ///
    /// Under fault injection this is the recovery entry point: transient
    /// faults are retried per the window's [`RetryPolicy`]; abandoned and
    /// degraded gets return [`AccessType::Faulted`] with `dst` zero-filled
    /// instead of panicking (graceful degradation). [`AccessType::Failed`]
    /// keeps the paper's meaning: fetched fine, could not be cached. With
    /// faults disabled the behaviour — including virtual-time charging —
    /// is bit-identical to the pre-fault code path.
    pub fn get(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) -> Option<AccessType> {
        self.get_dtype(p, dst, target, disp, dtype, count, Completion::Blocking)
            .class()
    }

    /// [`CachedWindow::get`] with a pre-flattened layout.
    pub fn get_flat(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        layout: &FlatLayout,
    ) -> Option<AccessType> {
        let sig = LayoutSig::from_layout(layout);
        self.get_core(p, dst, target, disp, &sig, Completion::Blocking)
            .class()
    }

    /// Nonblocking batched get (`get_nb`): the entry point of the
    /// outstanding-miss table.
    ///
    /// The same pipeline as [`CachedWindow::get`] — classification,
    /// destination bytes, and cache-state transitions are bit-identical
    /// (property-tested, including under fault injection) — only the
    /// virtual-time accounting of the fetch differs:
    ///
    /// - a **hit** costs what it always did (no wire involved);
    /// - a **miss** stages its fetch eagerly and posts its wire time as an
    ///   outstanding transfer that only completes at the next epoch
    ///   closure (`flush`/`unlock`/`fence`), so consecutive misses'
    ///   network times overlap with each other and with CPU work;
    /// - a miss whose byte range is **adjacent to or overlaps** an
    ///   already-outstanding miss transfer to the same target *coalesces*
    ///   into it — no new issue overhead or latency, only the incremental
    ///   bytes on the wire — as long as the merged extent stays within
    ///   [`CacheParams::max_coalesce_bytes`] (`0` disables coalescing).
    ///
    /// A duplicate miss for the same `GetKey` inside the epoch attaches to
    /// the in-flight request automatically: the engine's `PENDING` entry
    /// turns it into a hit, so no second fetch is issued.
    ///
    /// The caller must *not* consume `dst` for non-`Hit` outcomes until
    /// the next epoch closure — same contract as any nonblocking RMA get.
    pub fn get_nb(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) -> Option<AccessType> {
        self.get_dtype(p, dst, target, disp, dtype, count, Completion::Batched)
            .class()
    }

    /// [`CachedWindow::get_nb`] with a pre-flattened layout.
    pub fn get_nb_flat(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        layout: &FlatLayout,
    ) -> Option<AccessType> {
        let sig = LayoutSig::from_layout(layout);
        self.get_core(p, dst, target, disp, &sig, Completion::Batched)
            .class()
    }

    /// The typed front of the pipeline: turns `(dtype, count)` into the
    /// signature [`CachedWindow::get_core`] runs on. A basic type is
    /// `size × count` contiguous bytes; a type equal to the memo's takes
    /// its signature ([`LayoutMemo`]); only a new type is flattened, once,
    /// and memoised (a dense one as `Contig`). The signature's size is
    /// checked against `dst.len()` in `get_core`, which rejects a `dst` of
    /// the wrong length.
    ///
    /// # Panics
    ///
    /// Panics with "datatype extent overflows usize" if `size × count`
    /// does not fit.
    #[allow(clippy::too_many_arguments)]
    fn get_dtype(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
        completion: Completion,
    ) -> GetOutcome {
        if !matches!(dtype, Datatype::Contiguous { .. }) {
            return self.get_memo(p, dst, target, disp, dtype, count, completion);
        }
        let sig = LayoutSig::Contig(dtype.size_n(count));
        self.get_core(p, dst, target, disp, &sig, completion)
    }

    /// [`CachedWindow::get_dtype`] for a non-basic type, through the
    /// [`LayoutMemo`]. Out of line and cold so the basic-type front inlines
    /// into `get`: inlined here, it cost the contiguous hit about 20 %.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn get_memo(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
        completion: Completion,
    ) -> GetOutcome {
        // Taken out for the call (it leaves `self` fully usable inside
        // `get_core`) and put back after it.
        let memo = match self.memo.take() {
            Some(m) if m.count == count && m.dtype == *dtype => m,
            _ => LayoutMemo {
                dtype: dtype.clone(),
                count,
                sig: dtype.flatten_n(count).into(),
            },
        };
        let outcome = self.get_core(p, dst, target, disp, &memo.sig, completion);
        self.memo = Some(memo);
        outcome
    }

    /// The one get pipeline, in fixed stages: degraded-check → bypass →
    /// classify → plan (fetch nothing / the tail / everything) → fetch →
    /// install → charge. `completion` selects only how the fetch stage
    /// books its wire time; every engine call and every virtual-clock
    /// charge happens in the same order either way.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len()` is not the payload size of `sig`.
    fn get_core(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        sig: &LayoutSig,
        completion: Completion,
    ) -> GetOutcome {
        let size = sig.size();
        assert_eq!(dst.len(), size, "get: dst length != payload size");
        if completion == Completion::Batched {
            self.fault_stats.batched_gets += 1;
        }
        if self.targets[target].degraded {
            // Target already marked dead: serve locally, touch nothing.
            dst.fill(0);
            self.fault_stats.degraded_gets += 1;
            self.fault_stats.record(AccessType::Faulted);
            return GetOutcome::Faulted;
        }
        // What the fetch stage reads: `None` = `dst.len()` contiguous bytes.
        let layout = sig.blocks();
        if self.cache.is_none() || size == 0 {
            // Pass-through (disabled mode or zero-size get): a plain get
            // on the inner window, still fault-aware.
            return match self.fetch(p, dst, target, disp, layout, Completion::Blocking) {
                Ok(stamp) => GetOutcome::Fetched(None, stamp),
                Err(e) => self.fail_get(p, dst, target, e),
            };
        }
        let key = GetKey {
            target: target as u32,
            disp: disp as u64,
        };
        // Classify. A hit is done: no fetch, nothing to install.
        let looked_up = self.engine().process_lookup(key, sig, dst);
        // Plan: a miss fetches everything, a contiguous partial hit only
        // the missing tail `[disp + cached_len, disp + size)`, and an
        // incompatible resident layout (`cached_len == 0`) everything.
        let from = match looked_up {
            Lookup::Hit => {
                self.charge_engine(p);
                return GetOutcome::Resident;
            }
            Lookup::Miss => 0,
            Lookup::PartialHit { cached_len } => cached_len,
        };
        let tail = if from == 0 { layout } else { None };
        let fetched = self.fetch(p, &mut dst[from..], target, disp + from, tail, completion);
        // Install. An abandoned fetch simply never calls `install_*` — the
        // engine allocates entries only in those calls, so no cleanup is
        // needed. The fetch's exact stamp rides into the entry, for the
        // coherence and snapshot layers alike.
        let outcome = fetched.map(|stamp| {
            let cache = self.engine();
            match looked_up {
                Lookup::Miss => {
                    let class = cache.install_miss(key, sig.clone(), dst, stamp);
                    GetOutcome::Fetched(Some(class), stamp)
                }
                _ => GetOutcome::Partial(cache.install_partial(key, sig.clone(), dst, stamp)),
            }
        });
        // The engine's CPU cost is charged *after* the fetch on both
        // completions: charging it before a batched wire post would delay
        // every posted completion by the lookup cost.
        self.charge_engine(p);
        outcome.unwrap_or_else(|e| self.fail_get(p, dst, target, e))
    }

    /// The fetch stage: reads `layout` at `disp` of `target` into `dst`
    /// (`None` = `dst.len()` contiguous bytes) under the retry policy and
    /// returns the bytes' exact stamp. Shared by the get pipeline and the
    /// snapshot layer's direct reads.
    fn fetch(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        layout: Option<&FlatLayout>,
        completion: Completion,
    ) -> Result<SnapStamp, RmaError> {
        match completion {
            Completion::Blocking => with_retry(p, &self.retry, &mut self.fault_stats, |p| {
                self.win.try_get_flat(p, dst, target, disp, layout)
            })?,
            Completion::Batched | Completion::Refetch => {
                let staged = with_retry(p, &self.retry, &mut self.fault_stats, |p| {
                    self.win.try_get_staged(p, dst, target, disp, layout)
                })?;
                self.targets[target].staged = true;
                let (lo, hi) = (disp as u64, (disp + dst.len()) as u64);
                let dense = layout.is_none_or(FlatLayout::is_dense);
                let merge_from = dense.then(|| match completion {
                    Completion::Refetch => self.nb_spans.len().saturating_sub(1),
                    _ => 0,
                });
                let merged = self.account_nb_fetch(p, target, lo, hi, staged, merge_from);
                // A refetch is not a miss.
                if merged && completion == Completion::Batched {
                    self.fault_stats.coalesced_misses += 1;
                }
            }
        }
        // Every get entry point funnels through `Window::try_get_staged`,
        // which samples version and commit timestamp inside the target's
        // region read lock — so the stamp describes the bytes just copied,
        // exactly, at zero virtual-time cost. The coherence layer keeps
        // the version for the next pass.
        let s = self.win.last_get_stamp();
        self.targets[target].sample = Some(ReplySample {
            version: s.version,
            sync_events: p.sync_events(),
        });
        Ok(SnapStamp::exact(s.version, s.ts))
    }

    /// Accounts the virtual-time cost of one staged nonblocking fetch of
    /// bytes `[lo, hi)` at `target`: merges into an outstanding span from
    /// `nb_spans[merge_from..]` (`None`: not mergeable) when
    /// adjacent/overlapping and within the coalescing bound (posting only
    /// the incremental bytes' wire time — no new issue overhead, no new
    /// latency), otherwise charges the issue overhead and posts the
    /// transfer's full wire time as outstanding. Returns whether it merged.
    fn account_nb_fetch(
        &mut self,
        p: &mut Process,
        target: usize,
        lo: u64,
        hi: u64,
        staged: StagedGet,
        merge_from: Option<usize>,
    ) -> bool {
        let max_coalesce = self
            .cache
            .as_ref()
            .map_or(0, |c| c.params().max_coalesce_bytes) as u64;
        if let Some(from) = merge_from.filter(|_| max_coalesce > 0) {
            let my_rank = self.win.my_rank();
            for s in &mut self.nb_spans[from..] {
                // Merge candidates: same target, ranges overlapping or
                // touching, merged extent within the bound.
                if s.target != target || lo > s.hi || s.lo > hi {
                    continue;
                }
                let (mlo, mhi) = (s.lo.min(lo), s.hi.max(hi));
                if mhi - mlo > max_coalesce {
                    continue;
                }
                let wire = |len: u64| {
                    let cost = p.netmodel().transfer_cost(my_rank, target, len as usize, 1);
                    cost.wire_ns
                };
                let inc = (wire(mhi - mlo) - wire(s.hi - s.lo)).max(0.0) * staged.spike;
                if inc > 0.0 {
                    p.clock_mut().post_network(target, inc);
                    self.targets[target].posted_wire += inc;
                }
                s.lo = mlo;
                s.hi = mhi;
                return true;
            }
            self.nb_spans.push(NbSpan { target, lo, hi });
        }
        p.clock_mut().charge_cpu(staged.cost.cpu_ns);
        let wire = staged.cost.wire_ns * staged.spike;
        if wire > 0.0 {
            p.clock_mut().post_network(target, wire);
            self.targets[target].posted_wire += wire;
        }
        false
    }

    /// [`CachedWindow::get`] with a *typed origin*: the payload — served
    /// from cache or fetched — is scattered into `dst` according to
    /// `origin_dtype` (MPI_Get with distinct origin/target datatypes).
    /// Caching still keys on the target-side `(target, disp)` and layout.
    ///
    /// # Panics
    ///
    /// Panics if the origin and target payload sizes differ.
    #[allow(clippy::too_many_arguments)]
    pub fn get_typed(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        origin_dtype: &Datatype,
        origin_count: usize,
        target: usize,
        disp: usize,
        target_dtype: &Datatype,
        target_count: usize,
    ) -> Option<AccessType> {
        let origin = origin_dtype.flatten_n(origin_count);
        let tlayout = target_dtype.flatten_n(target_count);
        assert_eq!(
            origin.total_size(),
            tlayout.total_size(),
            "origin and target payload sizes differ"
        );
        self.scratch_buf.clear();
        self.scratch_buf.resize(tlayout.total_size(), 0);
        let mut packed = std::mem::take(&mut self.scratch_buf);
        let class = self.get_flat(p, &mut packed, target, disp, &tlayout);
        clampi_datatype::unpack(&packed, &origin, dst);
        self.scratch_buf = packed;
        // The origin-side scatter is initiator CPU work.
        if let Some(cache) = self.cache.as_ref() {
            let cost = cache.params().costs.memcpy_cost(origin.total_size());
            p.clock_mut().charge_cpu(cost);
        }
        class
    }

    /// An *uncached* get: always goes to the network, leaving the cache
    /// untouched. This is the per-operation bypass the paper proposes as
    /// an MPI-standard extension (Sec. III-A) — without it, users must
    /// create two windows over the same memory and enable caching on only
    /// one of them.
    pub fn get_uncached(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) {
        self.win.get(p, dst, target, disp, dtype, count);
    }

    /// A put (writes invalidate nothing by themselves — MPI's epoch rules
    /// forbid conflicting put/get in one epoch, and the mode determines
    /// when cached data expires).
    ///
    /// Under [`CoherenceMode::EagerInvalidate`] a contiguous put that
    /// landed also writes through to this rank's own cached copy of the
    /// same record (see `RmaCache::update_on_put`): the entry takes the
    /// put's bytes and exact stamp, the drain of the put's own record
    /// keeps it, and this rank's next read of what it wrote hits.
    ///
    /// Under fault injection, transient faults are retried like gets.
    /// A put towards a target marked persistently failed — or one whose
    /// retries are exhausted on a dead target — is *discarded* (the data
    /// has nowhere to go); transient exhaustion also discards the put and
    /// counts a timeout when the budget ran out. Check
    /// [`CachedWindow::is_degraded`] when write delivery must be
    /// confirmed.
    pub fn put(
        &mut self,
        p: &mut Process,
        src: &[u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) {
        if self.targets[target].degraded {
            return;
        }
        let sent = with_retry(p, &self.retry, &mut self.fault_stats, |p| {
            self.win.try_put(p, src, target, disp, dtype, count)
        });
        match sent {
            Ok(()) => {
                if self.coherence_mode() == CoherenceMode::EagerInvalidate && dtype.is_contiguous()
                {
                    let s = self.win.last_put_stamp();
                    let key = GetKey {
                        target: target as u32,
                        disp: disp as u64,
                    };
                    let stamp = SnapStamp::exact(s.version, s.ts);
                    let settled = self.engine().update_on_put(key, src, stamp);
                    let log = &mut self.targets[target].settled;
                    if settled && log.len() < p.config().notify_ring_cap {
                        log.push(s.version);
                    }
                    self.charge_engine(p);
                }
            }
            Err(e) => self.degrade_if_dead(p, target, &e),
        }
    }

    /// A snapshot-consistent batched read (see [`crate::snapshot`]): fills
    /// `dst` with every request's bytes such that the whole batch reflects
    /// one commit timestamp of the window's history — possibly slightly
    /// stale, never a torn mix of old and new data.
    ///
    /// The first attempt gathers through the cached nonblocking path
    /// (hits stay hits, misses coalesce); validation then drains the
    /// involved targets' notification rings, intersects the requests'
    /// validity intervals, and refetches — uncached — only the requests
    /// whose interval excludes the candidate timestamp. Ring overflow or
    /// exhausted refetch rounds abort the attempt; retry attempts bypass
    /// the cache entirely so a stale resident entry cannot livelock the
    /// batch. Unlike [`CachedWindow::get`], a faulted target is reported
    /// as [`SnapshotError::TargetFaulted`] instead of zero-filling —
    /// fabricated zeros can never be part of a consistent snapshot.
    ///
    /// `dst.len()` must equal the sum of the request lengths; request `i`
    /// lands at the concatenation offset of the lengths before it.
    ///
    /// Works in every [`Mode`] including [`Mode::Disabled`] (all reads
    /// direct). The cache is left exactly as the gather's ordinary
    /// `get_nb` calls leave it — the snapshot's internal flushes run *no*
    /// epoch hook and *no* coherence pass, so a transparent-mode
    /// invalidation cannot fire mid-batch. Runs that never call this are
    /// bit-identical — including virtual time — to builds without the
    /// snapshot subsystem.
    pub fn multi_get(
        &mut self,
        p: &mut Process,
        reqs: &[SnapReq],
        dst: &mut [u8],
    ) -> Result<SnapshotInfo, SnapshotError> {
        let total: usize = reqs.iter().map(|r| r.len).sum();
        assert_eq!(
            dst.len(),
            total,
            "multi_get: dst length {} != batch total {total}",
            dst.len()
        );
        self.fault_stats.snapshot_gets += reqs.len() as u64;
        if reqs.is_empty() {
            return Ok(SnapshotInfo::default());
        }
        let mut ctx = std::mem::take(&mut self.snap_scratch);
        ctx.targets.clear();
        ctx.targets
            .extend(reqs.iter().filter(|r| r.len > 0).map(|r| r.target));
        ctx.targets.sort_unstable();
        ctx.targets.dedup();

        let mut aborts = 0u64;
        let mut refetched = 0u64;
        let mut fault: Option<usize> = None;
        let mut outcome: Result<SnapshotInfo, SnapshotError> = Err(SnapshotError::RetriesExhausted);
        for attempt in 0..MAX_ATTEMPTS {
            match self.snapshot_attempt(p, &mut ctx, reqs, dst, attempt > 0, &mut refetched) {
                Ok(mut info) => {
                    info.aborts = aborts;
                    info.refetched = refetched;
                    outcome = Ok(info);
                    break;
                }
                Err(SnapAbort::Fault(t)) => {
                    aborts += 1;
                    fault = Some(t);
                    if self.targets[t].degraded {
                        break; // persistent failure: retrying cannot help
                    }
                }
                Err(SnapAbort::Overflow | SnapAbort::Rounds) => {
                    aborts += 1;
                    fault = None;
                }
            }
        }
        self.snap_scratch = ctx;
        if outcome.is_err() {
            if let Some(t) = fault {
                outcome = Err(SnapshotError::TargetFaulted { target: t as u32 });
            }
        }
        self.fault_stats.snapshot_aborts += aborts;
        self.fault_stats.snapshot_refetches += refetched;
        if let Ok(info) = &outcome {
            self.fault_stats.snapshot_staleness_ns += info.staleness_ns;
        }
        outcome
    }

    /// One gather + validate pass over the whole batch. `direct` (retry
    /// attempts) bypasses the cache so stale residents cannot re-abort.
    fn snapshot_attempt(
        &mut self,
        p: &mut Process,
        ctx: &mut SnapScratch,
        reqs: &[SnapReq],
        dst: &mut [u8],
        direct: bool,
        refetched: &mut u64,
    ) -> Result<SnapshotInfo, SnapAbort> {
        // --- Gather: one (possibly cached) read per request, with the
        // stamp of the bytes that actually landed in `dst`. Stamps are
        // read immediately after each get — a later get in the batch may
        // evict the entry a hit was served from.
        ctx.bounds.clear();
        ctx.bounds.resize(reqs.len(), ReqBound::default());
        ctx.refetch.clear();
        let mut off = 0usize;
        for (i, r) in reqs.iter().enumerate() {
            let slice = &mut dst[off..off + r.len];
            off += r.len;
            if r.len == 0 {
                continue; // neutral: lo 0, hi ∞
            }
            let target = r.target as usize;
            if self.targets[target].degraded {
                return Err(SnapAbort::Fault(target));
            }
            // The bytes' stamp, and the version through which they are
            // already known to be write-free.
            let (stamp, seen) = if direct || self.cache.is_none() {
                // Direct (cache-bypassing) read through the batched fetch
                // stage; its stamp is exact.
                let stamp = self
                    .fetch(p, slice, target, r.disp, None, Completion::Batched)
                    .map_err(|e| self.snap_fault(p, target, e))?;
                (stamp, stamp.version)
            } else {
                let sig = LayoutSig::Contig(r.len);
                match self.get_core(p, slice, target, r.disp, &sig, Completion::Batched) {
                    // Zero-filled by the fault path — never snapshot
                    // material.
                    GetOutcome::Faulted => return Err(SnapAbort::Fault(target)),
                    // `slice` mixes a cached head with a fresh tail — no
                    // single stamp describes it. Refetch.
                    GetOutcome::Partial(_) => (SnapStamp::default(), 0),
                    // Served from a resident entry: use its stamp (inexact
                    // ones — from stamp-blind insert paths — refetch).
                    // The entry survived every coherence pass up to the
                    // cursor, so it is write-free through it: validation
                    // starts there, not at the stamp. (Without a
                    // coherence mode no pass runs and the cursor stays 0.)
                    GetOutcome::Resident => {
                        let key = GetKey {
                            target: r.target,
                            disp: r.disp as u64,
                        };
                        let stamp = self.engine().snap_stamp(&key).unwrap_or_default();
                        (stamp, stamp.version.max(self.targets[target].cursor))
                    }
                    GetOutcome::Fetched(_, stamp) => (stamp, stamp.version),
                }
            };
            if stamp.exact {
                ctx.bounds[i] = ReqBound::new(stamp, seen);
            } else {
                ctx.refetch.push(i);
            }
        }
        // Complete the gathered fetches, and any earlier transfer to the
        // batch's targets not yet completed (so a hit on a PENDING entry
        // still waits for the fetch that fills it). A target the batch
        // only hit has nothing to complete.
        self.complete_staged(p, ctx.targets.iter().map(|&t| t as usize));

        // --- Validate: bound every interval from the notification rings,
        // pick a timestamp, refetch what excludes it; bounded rounds.
        let mut rounds = 0usize;
        loop {
            if !ctx.refetch.is_empty() {
                let todo = std::mem::take(&mut ctx.refetch);
                // Requests are laid out back to back, in order, and `todo`
                // ascends: one walk finds every offset.
                let mut todo_at = todo.iter().peekable();
                let mut end = 0usize;
                for (i, r) in reqs.iter().enumerate() {
                    end += r.len;
                    if todo_at.next_if_eq(&&i).is_none() {
                        continue;
                    }
                    let (slice, t) = (&mut dst[end - r.len..end], r.target as usize);
                    let stamp = self
                        .fetch(p, slice, t, r.disp, None, Completion::Batched)
                        .map_err(|e| self.snap_fault(p, t, e))?;
                    ctx.bounds[i] = ReqBound::new(stamp, stamp.version);
                    *refetched += 1;
                }
                self.complete_staged(p, ctx.targets.iter().map(|&t| t as usize));
                ctx.refetch = todo;
                ctx.refetch.clear();
            }

            let mut cap = u64::MAX;
            let mut now_max = 0u64;
            for k in 0..ctx.targets.len() {
                let t = ctx.targets[k] as usize;
                // Drain from the oldest validated-through version among
                // this target's requests: every record that could close
                // an interval must be visible, or the interval is
                // unbounded.
                let cursor = (0..reqs.len())
                    .filter(|&i| reqs[i].target as usize == t && reqs[i].len > 0)
                    .map(|i| ctx.bounds[i].seen)
                    .min()
                    .unwrap_or(u64::MAX);
                if cursor == u64::MAX {
                    continue;
                }
                let drained = (self.drain(p, t, cursor)).map_err(|e| self.snap_fault(p, t, e))?;
                if drained.overflowed {
                    return Err(SnapAbort::Overflow);
                }
                cap = cap.min(drained.now_ts);
                now_max = now_max.max(drained.now_ts);
                for rec in &self.drained {
                    let (rlo, rhi) = (rec.disp as usize, (rec.disp + rec.len) as usize);
                    for (i, r) in reqs.iter().enumerate() {
                        if r.target as usize != t || r.len == 0 || rec.version <= ctx.bounds[i].seen
                        {
                            continue;
                        }
                        if rlo < r.disp + r.len && r.disp < rhi {
                            // First overlapping write after the
                            // validated-through version closes the
                            // request's validity interval.
                            ctx.bounds[i].hi = ctx.bounds[i].hi.min(rec.ts);
                        }
                    }
                }
            }
            if cap == u64::MAX {
                // Nothing drained (all-zero-length batch): trivially
                // consistent at the zero epoch.
                cap = 0;
            }
            match choose_timestamp(&ctx.bounds, cap) {
                Ok(timestamp) => {
                    return Ok(SnapshotInfo {
                        timestamp,
                        refetched: 0, // totals filled in by multi_get
                        aborts: 0,
                        staleness_ns: now_max.saturating_sub(timestamp),
                    });
                }
                Err(lo) => {
                    rounds += 1;
                    if rounds >= MAX_ROUNDS {
                        return Err(SnapAbort::Rounds);
                    }
                    for (i, r) in reqs.iter().enumerate() {
                        if r.len > 0 && ctx.bounds[i].hi <= lo {
                            ctx.refetch.push(i);
                        }
                    }
                    debug_assert!(
                        !ctx.refetch.is_empty(),
                        "empty intersection must name a stale request"
                    );
                }
            }
        }
    }

    /// Books a snapshot-fetch fault: persistent target failures degrade
    /// the target (dropping its cached entries) exactly like
    /// [`CachedWindow::get`]'s fault path — but no zero-fill, the batch
    /// aborts instead.
    fn snap_fault(&mut self, p: &mut Process, target: usize, e: RmaError) -> SnapAbort {
        self.degrade_if_dead(p, target, &e);
        SnapAbort::Fault(target)
    }

    fn on_epoch_close(&mut self, p: &mut Process) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        cache.epoch_close();
        if self.mode == Mode::Transparent {
            cache.invalidate();
        }
        if let Some(ctrl) = self.controller.as_mut() {
            cache.adapt(ctrl);
        }
        self.charge_engine(p);
    }

    /// Explicit cache invalidation (`CLAMPI_Invalidate`), for the
    /// user-defined mode.
    pub fn invalidate(&mut self, p: &mut Process) {
        if let Some(cache) = self.cache.as_mut() {
            cache.invalidate();
            self.charge_engine(p);
        }
    }

    /// Completes the staged transfers of `targets` (ascending, distinct):
    /// flushes exactly the ones with something in flight — a fetch staged
    /// since their last completion event, or a posted get not yet
    /// completed — and never a degraded one. Deliberately *not*
    /// [`CachedWindow::flush`]: no epoch hook (transparent mode would
    /// invalidate the entries a snapshot is validating) and no coherence
    /// pass. Returns how many targets it flushed. The one flush decision
    /// of the snapshot gather, its refetch rounds and `refresh_kept`.
    fn complete_staged(&mut self, p: &mut Process, targets: impl Iterator<Item = usize>) -> usize {
        let mut flushed = 0;
        for t in targets {
            let s = &self.targets[t];
            if !s.degraded && (s.staged || self.win.outstanding_gets(t) > 0) {
                self.complete_with(p, Some(t), |w, p| w.flush(p, t));
                flushed += 1;
            }
        }
        flushed
    }

    /// Runs one completion event of the inner window towards `target`
    /// (`None` = all targets) with the nonblocking-miss wire accounting
    /// around it: drains the affected spans and their posted wire ns,
    /// then credits `overlapped_wire_ns` with the part of that wire time
    /// the initiator did not have to block for (hidden behind CPU work).
    /// The blocked delta also covers waits for blocking-path transfers
    /// completed by the same event, so the credit is a (slightly
    /// conservative) approximation. No epoch hook, no coherence pass —
    /// the snapshot layer completes its own fetches through this alone
    /// (by `CachedWindow::complete_staged`), because both would mutate
    /// the cache mid-snapshot.
    fn complete_with(
        &mut self,
        p: &mut Process,
        target: Option<usize>,
        event: impl FnOnce(&mut Window, &mut Process),
    ) {
        let posted: f64 = match target {
            Some(t) => {
                self.nb_spans.retain(|s| s.target != t);
                self.targets[t].complete()
            }
            None => {
                self.nb_spans.clear();
                self.targets.iter_mut().map(TargetState::complete).sum()
            }
        };
        let blocked0 = p.clock().total_blocked();
        event(&mut self.win, p);
        if posted > 0.0 {
            let blocked = p.clock().total_blocked() - blocked0;
            self.fault_stats.overlapped_wire_ns += (posted - blocked).max(0.0) as u64;
        }
    }

    /// MPI_Win_flush + cache epoch hook (plus a coherence pass over
    /// `target` — a flush is where the target's newly-visible remote
    /// writes must stop being served from cache). The pass skips the
    /// drain when the last get reply from `target` proves it empty.
    pub fn flush(&mut self, p: &mut Process, target: usize) {
        self.complete_with(p, Some(target), |w, p| w.flush(p, target));
        self.on_epoch_close(p);
        self.coherence_pass(p, Some(target), false);
    }

    /// MPI_Win_flush_all + cache epoch hook + coherence pass over every
    /// target (skipping, as [`CachedWindow::flush`] does, the drains the
    /// get replies prove empty).
    pub fn flush_all(&mut self, p: &mut Process) {
        self.complete_with(p, None, |w, p| w.flush_all(p));
        self.on_epoch_close(p);
        self.coherence_pass(p, None, false);
    }

    /// MPI_Win_lock (plus a coherence pass over `target`: the new access
    /// epoch makes remote writes visible).
    pub fn lock(&mut self, p: &mut Process, kind: LockKind, target: usize) {
        self.win.lock(p, kind, target);
        self.coherence_pass(p, Some(target), false);
    }

    /// MPI_Win_unlock + cache epoch hook.
    pub fn unlock(&mut self, p: &mut Process, target: usize) {
        self.complete_with(p, Some(target), |w, p| w.unlock(p, target));
        self.on_epoch_close(p);
    }

    /// MPI_Win_lock_all (plus a coherence pass over every target).
    pub fn lock_all(&mut self, p: &mut Process) {
        self.win.lock_all(p);
        self.coherence_pass(p, None, false);
    }

    /// MPI_Win_unlock_all + cache epoch hook.
    pub fn unlock_all(&mut self, p: &mut Process) {
        self.complete_with(p, None, |w, p| w.unlock_all(p));
        self.on_epoch_close(p);
    }

    /// MPI_Win_fence + cache epoch hook + coherence pass (a fence both
    /// closes the old epoch and opens a new one, so the pass runs after
    /// the hook).
    pub fn fence(&mut self, p: &mut Process) {
        self.complete_with(p, None, |w, p| w.fence(p));
        self.on_epoch_close(p);
        self.coherence_pass(p, None, false);
    }

    /// MPI_Win_post (PSCW exposure).
    pub fn post(&mut self, p: &mut Process, accessors: &[usize]) {
        self.win.post(p, accessors);
    }

    /// MPI_Win_start (PSCW access epoch, plus a coherence pass over the
    /// named targets).
    pub fn start(&mut self, p: &mut Process, targets: &[usize]) {
        self.win.start(p, targets);
        for &t in targets {
            self.coherence_pass(p, Some(t), false);
        }
    }

    /// MPI_Win_complete + cache epoch hook (the PSCW epoch closure the
    /// paper's epoch model keys on).
    pub fn complete(&mut self, p: &mut Process) {
        self.complete_with(p, None, |w, p| w.complete(p));
        self.on_epoch_close(p);
    }

    /// MPI_Win_wait + cache epoch hook; own transfers stay in flight.
    pub fn wait(&mut self, p: &mut Process, accessors: &[usize]) {
        self.win.wait(p, accessors);
        self.on_epoch_close(p);
    }
}
