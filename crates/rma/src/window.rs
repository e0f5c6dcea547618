//! RMA windows: exposed memory regions plus passive-target synchronization.
//!
//! A [`Window`] is the per-rank handle to a collectively created memory
//! exposure (`MPI_Win_allocate`). The shared state (`WinShared`) holds one
//! byte region per rank behind a `std::sync::RwLock` — `get`s take read
//! locks, `put`s write locks, so the data path is entirely safe Rust.
//! Lock acquisition goes through the poison-tolerant wrappers in
//! `crate::sync`, so one panicking simulated rank cannot cascade poison
//! errors through every other rank's `get`/`put`. MPI's
//! epoch discipline (no conflicting put/get in one epoch) keeps real
//! contention negligible; RMASAN (`crate::check`), when armed, enforces
//! that discipline for the initiator's own operations.
//!
//! **Epoch counting.** The paper associates a counter `w.eph` with each
//! window, counting *concluded epochs* since creation, and treats every
//! completion event — `flush`, `flush_all`, `unlock`, `unlock_all`, `fence`
//! — as an epoch closure (Listing 1 annotates `MPI_Win_flush` with
//! "closes epoch"). [`Window::epoch`] implements exactly that counter; it is
//! what the caching layer samples as `x.eph`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use clampi_datatype::{Datatype, FlatLayout};

use crate::check::{AccessKind, SanCtx, SanKind, WinSanLocal, WinSanShared};
use crate::fault::{FaultDecision, RmaError};
use crate::process::Process;
use crate::sync::{self, Liveness};

pub use crate::lockmgr::LockKind;
use crate::lockmgr::LockManager;

/// One remote write recorded on a target's put-notification ring: the
/// byte range `[disp, disp + len)` of the target's region that `origin`
/// overwrote, and the region's version counter *after* the write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutRecord {
    /// The rank that issued the write.
    pub origin: u32,
    /// Byte displacement of the written range in the target's region.
    pub disp: u64,
    /// Length of the written range in bytes.
    pub len: u64,
    /// The target region's version counter after this write.
    pub version: u64,
    /// The write's commit timestamp on the window-global commit clock:
    /// strictly increasing across *all* targets, and therefore a total
    /// order on writes that agrees with per-target version order. The
    /// snapshot layer picks its read timestamps on this clock.
    pub ts: u64,
}

/// Modelled wire size of one [`PutRecord`] notification (what the drain
/// charges per record as a local memcpy). Deliberately unchanged when the
/// commit timestamp was added to the in-memory record: the wire format
/// ships it as a compact delta against the drain's single clock sample,
/// fitting in what was alignment padding — so drain costs, and every
/// virtual time built on them, stay put.
const PUT_RECORD_BYTES: usize = 24;

/// Result of draining a target's put-notification ring
/// ([`Window::try_drain_notifications`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotifyDrain {
    /// The target region's version counter at drain time.
    pub version: u64,
    /// Number of records appended to the caller's buffer.
    pub drained: usize,
    /// The bounded ring evicted records this reader has not seen: the
    /// lost ranges are unknown, so the caller must fall back to a full
    /// per-target invalidation. Nothing was appended to the buffer.
    pub overflowed: bool,
    /// The window-global commit clock, sampled inside the ring lock at
    /// drain time. Any write to *this target* not visible in this drain
    /// commits strictly after the sample (its timestamp will exceed
    /// `now_ts`), so a snapshot reader may safely read "as of" any
    /// timestamp `<= now_ts` once it has validated against the drained
    /// records.
    pub now_ts: u64,
}

/// A region's monotonic write-version counter plus the bounded ring of
/// put notifications. One per target region, shared by all ranks.
#[derive(Debug)]
struct NotifyRing {
    /// Monotonic count of puts to the region.
    version: u64,
    records: VecDeque<PutRecord>,
    cap: usize,
    /// Highest version whose record was evicted from the bounded ring
    /// (0 = none): a reader whose cursor is below this has lost records.
    dropped_through: u64,
    /// Commit timestamp of the region's current version (0 before the
    /// first write). Sampled together with `version` under the ring lock
    /// this gives a get an *exact* stamp for the bytes it just copied.
    last_ts: u64,
    /// Commit timestamp of the newest evicted record (pairs with
    /// `dropped_through`): the ring's history horizon on the commit
    /// clock. A snapshot older than this cannot be validated.
    dropped_through_ts: u64,
}

/// Collectively shared window state: one region per rank.
#[derive(Debug)]
pub(crate) struct WinShared {
    pub(crate) regions: Vec<RwLock<Box<[u8]>>>,
    pub(crate) locks: LockManager,
    pub(crate) sizes: Vec<usize>,
    pub(crate) pscw: PscwState,
    notify: Vec<Mutex<NotifyRing>>,
    /// Window-global commit clock: the timestamp of the most recent write
    /// to *any* target region. Each write advances it to
    /// `max(clock + 1, writer's virtual now)`, so timestamps are strictly
    /// increasing (hence globally unique) and track virtual time whenever
    /// the writer's clock is ahead.
    ///
    /// Locked only while a ring lock is held (ring → clock is the only
    /// nesting): stamped in `note_put`, read in `notify_horizon` and
    /// `try_drain_notifications`. Stamping under the written target's
    /// ring lock makes per-target timestamp order equal version order;
    /// reading under the drained target's ring lock makes the sample a
    /// true cap — a put the drain did not see takes its stamp later.
    commit_ts: Mutex<u64>,
    /// Cross-rank RMASAN state (the access log); `None` when the
    /// sanitizer is off.
    san: Option<WinSanShared>,
}

impl WinShared {
    pub(crate) fn new(sizes: Vec<usize>, notify_ring_cap: usize, san_enabled: bool) -> Self {
        let ntargets = sizes.len();
        WinShared {
            regions: sizes
                .iter()
                .map(|&s| RwLock::new(vec![0u8; s].into_boxed_slice()))
                .collect(),
            locks: LockManager::new(ntargets),
            notify: sizes
                .iter()
                .map(|_| {
                    Mutex::new(NotifyRing {
                        version: 0,
                        records: VecDeque::new(),
                        cap: notify_ring_cap,
                        dropped_through: 0,
                        last_ts: 0,
                        dropped_through_ts: 0,
                    })
                })
                .collect(),
            sizes,
            pscw: PscwState::default(),
            commit_ts: Mutex::new(0),
            san: san_enabled.then(|| WinSanShared::new(ntargets)),
        }
    }

    /// Records one write of `[disp, disp + len)` at `target`: bumps the
    /// region version, stamps the write on the global commit clock, and
    /// pushes a notification record, evicting the oldest record when the
    /// bounded ring is full. Called with the target's region write lock
    /// *held*, after the bytes land (see the ordering note on
    /// [`Window::version`]): bytes-landed and version-bumped are one
    /// atomic step for anyone holding the region lock.
    ///
    /// `now` is the writer's virtual time in whole nanoseconds; the
    /// assigned timestamp is `max(commit_clock + 1, now)`. Returns the
    /// write's `(version, ts)`.
    fn note_put(&self, target: usize, origin: usize, disp: u64, len: u64, now: u64) -> GetStamp {
        let mut ring = sync::lock(&self.notify[target]);
        // Stamped inside the ring lock, so per-target timestamp order
        // matches version order; strict global growth makes it unique.
        let ts = {
            let mut c = sync::lock(&self.commit_ts);
            *c = (*c + 1).max(now);
            *c
        };
        ring.version += 1;
        ring.last_ts = ts;
        let version = ring.version;
        let stamp = GetStamp { version, ts };
        if ring.cap == 0 {
            // No ring at all: every reader cursor is behind, so every
            // drain reports overflow (always-full-invalidate semantics).
            ring.dropped_through = version;
            ring.dropped_through_ts = ts;
            return stamp;
        }
        if ring.records.len() == ring.cap {
            if let Some(evicted) = ring.records.pop_front() {
                ring.dropped_through = evicted.version;
                ring.dropped_through_ts = evicted.ts;
            }
        }
        ring.records.push_back(PutRecord {
            origin: origin as u32,
            disp,
            len,
            version,
            ts,
        });
        stamp
    }
}

/// One PSCW signal slot: how many unmatched signals are pending for a
/// `(signaller, consumer)` pair, plus — RMASAN only — the join of the
/// signallers' vector clocks, consumed as a happens-before edge by the
/// matching `start`/`wait`.
#[derive(Debug, Default)]
struct PscwSlot {
    count: u32,
    vc: Vec<u64>,
}

type PscwMap = Mutex<HashMap<(usize, usize), PscwSlot>>;

/// Signal counters for post-start-complete-wait synchronization: how many
/// unmatched `post`s rank A has issued towards accessor B, and how many
/// unmatched `complete`s accessor B has issued towards target A.
#[derive(Debug, Default)]
pub(crate) struct PscwState {
    posts: PscwMap,
    completes: PscwMap,
    cv: Condvar,
}

impl PscwState {
    fn signal(map: &PscwMap, cv: &Condvar, key: (usize, usize), san_vc: Option<&[u64]>) {
        let mut m = sync::lock(map);
        let slot = m.entry(key).or_default();
        slot.count += 1;
        if let Some(vc) = san_vc {
            if slot.vc.len() < vc.len() {
                slot.vc.resize(vc.len(), 0);
            }
            crate::check::vc_join(&mut slot.vc, vc);
        }
        drop(m);
        cv.notify_all();
    }

    /// Blocks until a signal is pending, consumes it, and returns the
    /// published clock (empty without RMASAN) for the consumer to join.
    fn consume(live: &Liveness, map: &PscwMap, cv: &Condvar, key: (usize, usize)) -> Vec<u64> {
        let ready = |m: &HashMap<_, PscwSlot>| m.get(&key).is_some_and(|slot| slot.count > 0);
        let mut m = sync::wait_until(live, cv, sync::lock(map), ready);
        let slot = m.entry(key).or_default();
        slot.count -= 1;
        slot.vc.clone()
    }
}

#[derive(Debug, Clone, Copy)]
struct AccessRec {
    target: usize,
    range: Range2,
    kind: AccessKind,
}

/// A `Copy` half-open byte range (std's `Range` is not `Copy`).
#[derive(Debug, Clone, Copy)]
struct Range2 {
    start: usize,
    end: usize,
}

impl Range2 {
    fn overlaps(&self, other: &Range2) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// The cost breakdown of a staged (not yet charged) get, returned by
/// [`Window::try_get_staged`].
///
/// The data has already been copied into the destination buffer, and the
/// op counters have been updated, but *nothing* has been charged to the
/// virtual clock and no network completion has been posted: the caller
/// owns the accounting. This is the building block for batching layers
/// that coalesce several gets into fewer wire transfers — they compose
/// the `cost`s themselves (e.g. charge one issue overhead for the whole
/// batch, or post only the incremental wire time of a widened transfer).
#[derive(Debug, Clone, Copy)]
pub struct StagedGet {
    /// LogGP cost of this get taken alone (CPU issue overhead + wire).
    pub cost: crate::netmodel::TransferCost,
    /// Wire-time multiplier from fault injection (latency spike), 1.0
    /// normally. Wire time actually posted should be `wire_ns * spike`.
    pub spike: f64,
}

/// The `(version, commit-timestamp)` pair of a target region, sampled by
/// a get *inside its region read lock* ([`Window::last_get_stamp`]), or
/// assigned to a put ([`Window::last_put_stamp`]).
/// Writers bump the version inside the region write lock, so the bytes a
/// get copied correspond *exactly* to this stamp — the foundation the
/// snapshot layer's validity intervals are built on. `ts` is the commit
/// timestamp of the write that produced `version` (0 before any write).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GetStamp {
    /// The target region's write-version counter.
    pub version: u64,
    /// Commit timestamp of that version on the window-global clock.
    pub ts: u64,
}

/// A zero-cost peek at a target's notification-ring horizon
/// ([`Window::notify_horizon`]): everything a snapshot reader needs to
/// bound how far back in commit-clock time the ring can still validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotifyHorizon {
    /// The region's current write version.
    pub version: u64,
    /// Commit timestamp of that version (0 before any write).
    pub last_ts: u64,
    /// Highest version evicted from the bounded ring (0 = none).
    pub dropped_through: u64,
    /// Commit timestamp of that evicted version — the oldest point on
    /// the commit clock the ring can still account for.
    pub dropped_through_ts: u64,
    /// The window-global commit clock at peek time.
    pub now_ts: u64,
}

/// The per-rank handle to an RMA window.
///
/// Created collectively by [`Process::win_allocate`]; all data-movement and
/// synchronization methods charge the simulation cost model through the
/// passed-in [`Process`].
#[derive(Debug)]
pub struct Window {
    shared: Arc<WinShared>,
    my_rank: usize,
    epoch: u64,
    accesses: Vec<AccessRec>,
    /// The access epochs this handle has open ([`Window::epoch_open_for`]).
    open: OpenEpochs,
    /// Gets posted per target and not yet completed; zeroed when the
    /// corresponding completion event runs.
    outstanding_gets: Vec<usize>,
    /// Reusable one-block layout for contiguous typed gets, so the hot
    /// path does not flatten (heap-allocate) per call.
    scratch_layout: FlatLayout,
    /// Exact `(version, ts)` stamp of the last get staged through this
    /// handle, sampled inside the region read lock
    /// ([`Window::last_get_stamp`]).
    last_get_stamp: GetStamp,
    /// `(version, ts)` of the last put that landed through this handle
    /// ([`Window::last_put_stamp`]).
    last_put_stamp: GetStamp,
    /// Rank-local RMASAN state (epoch discipline, outstanding get
    /// destinations, observed versions); `None` when the sanitizer is off.
    san: Option<Box<WinSanLocal>>,
}

/// The access epochs one window handle has open. Tracked whether or not
/// RMASAN is armed: callers ask [`Window::epoch_open_for`] before they
/// issue operations of their own, and the sanitizer checks the lock
/// discipline against it (`san` is `Some` only when it is armed).
#[derive(Debug)]
struct OpenEpochs {
    locks: Vec<Option<LockKind>>,
    locked_all: bool,
    /// Set by the first `fence`: the window is in active-target fence
    /// mode, where data ops between fences are legal.
    fenced: bool,
    /// The group of the open PSCW access epoch (empty when none is).
    pscw: Vec<usize>,
}

impl OpenEpochs {
    fn for_targets(ntargets: usize) -> Self {
        OpenEpochs {
            locks: vec![None; ntargets],
            locked_all: false,
            fenced: false,
            pscw: Vec::new(),
        }
    }

    fn covers(&self, target: usize) -> bool {
        self.locked_all
            || self.fenced
            || self.locks[target].is_some()
            || self.pscw.contains(&target)
    }

    fn any(&self) -> bool {
        self.locked_all
            || self.fenced
            || !self.pscw.is_empty()
            || self.locks.iter().any(Option::is_some)
    }

    fn lock(&mut self, san: Option<&SanCtx>, kind: LockKind, target: usize) {
        if let Some(s) = san.filter(|_| self.locked_all || self.locks[target].is_some()) {
            s.report(SanKind::DoubleLock {
                target: Some(target),
            });
        }
        self.locks[target] = Some(kind);
    }

    fn unlock(&mut self, san: Option<&SanCtx>, target: usize) {
        if let Some(s) = san.filter(|_| self.locked_all || self.locks[target].is_none()) {
            s.report(SanKind::UnlockWithoutLock {
                target: Some(target),
            });
        }
        self.locks[target] = None;
    }

    fn lock_all(&mut self, san: Option<&SanCtx>) {
        if let Some(s) = san.filter(|_| self.locked_all || self.locks.iter().any(Option::is_some)) {
            s.report(SanKind::DoubleLock { target: None });
        }
        self.locked_all = true;
    }

    fn unlock_all(&mut self, san: Option<&SanCtx>) {
        if let Some(s) = san.filter(|_| !self.locked_all) {
            s.report(SanKind::UnlockWithoutLock { target: None });
        }
        self.locked_all = false;
    }
}

impl Window {
    pub(crate) fn new(shared: Arc<WinShared>, my_rank: usize, san_enabled: bool) -> Self {
        let ntargets = shared.sizes.len();
        Window {
            shared,
            my_rank,
            epoch: 0,
            accesses: Vec::new(),
            open: OpenEpochs::for_targets(ntargets),
            outstanding_gets: vec![0; ntargets],
            scratch_layout: FlatLayout::contiguous(0),
            last_get_stamp: GetStamp::default(),
            last_put_stamp: GetStamp::default(),
            san: san_enabled.then(|| Box::new(WinSanLocal::new(ntargets))),
        }
    }

    /// The number of concluded access epochs (the paper's `w.eph`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether an access epoch that covers data ops towards `target` is
    /// open on this handle: a lock on it, `lock_all`, fence mode, or a
    /// PSCW access epoch whose group names it.
    pub fn epoch_open_for(&self, target: usize) -> bool {
        self.open.covers(target)
    }

    /// This handle's RMASAN context: `Some` only when the sanitizer is
    /// armed for both the process and the window.
    fn san_ctx<'p>(&self, p: &'p Process) -> Option<&'p SanCtx> {
        p.san.as_ref().filter(|_| self.san.is_some())
    }

    /// The rank that owns this handle.
    pub fn my_rank(&self) -> usize {
        self.my_rank
    }

    /// Number of target regions (= communicator size).
    pub fn ntargets(&self) -> usize {
        self.shared.sizes.len()
    }

    /// The exposed size of `target`'s region in bytes.
    pub fn size_of(&self, target: usize) -> usize {
        self.shared.sizes[target]
    }

    /// Mutable access to this rank's own exposed region (direct local
    /// stores, outside any epoch — the usual way apps initialize windows).
    pub fn local_mut(&self) -> crate::MappedWriteGuard<'_> {
        crate::MappedWriteGuard(sync::write(&self.shared.regions[self.my_rank]))
    }

    /// Shared read access to this rank's own exposed region.
    pub fn local_ref(&self) -> crate::MappedReadGuard<'_> {
        crate::MappedReadGuard(sync::read(&self.shared.regions[self.my_rank]))
    }

    /// RMASAN: records one access of this epoch and reports any earlier
    /// one it conflicts with. MPI-3 RMA forbids a put overlapping any
    /// access, and a get overlapping a put, within one epoch (Sec. II of
    /// the paper).
    fn record_access(&mut self, p: &Process, target: usize, range: Range2, kind: AccessKind) {
        let Some(ctx) = p.san.as_ref().filter(|_| self.san.is_some()) else {
            return;
        };
        for a in &self.accesses {
            if a.target == target && a.range.overlaps(&range) && a.kind.conflicts_with(kind) {
                ctx.report(SanKind::EpochConflict {
                    target,
                    first: (a.kind, a.range.start, a.range.end),
                    second: (kind, range.start, range.end),
                });
            }
        }
        self.accesses.push(AccessRec {
            target,
            range,
            kind,
        });
    }

    /// RMASAN: checks that a data op towards `target` has an open epoch.
    fn san_epoch_gate(&self, p: &Process, target: usize, op: &'static str) {
        if let Some(ctx) = self.san_ctx(p).filter(|_| !self.open.covers(target)) {
            ctx.report(SanKind::OpOutsideEpoch { target, op });
        }
    }

    /// RMASAN: logs one data access in the shared region log (cross-rank
    /// race detection).
    fn san_log_access(&self, p: &Process, target: usize, start: usize, end: usize, k: AccessKind) {
        if let (Some(shared), Some(ctx)) = (self.shared.san.as_ref(), p.san.as_ref()) {
            shared.log_access(ctx, target, start, end, k);
        }
    }

    /// RMASAN hook for local reads of buffers previously handed to a get:
    /// reports [`SanKind::ReadBeforeFlush`] if `buf` overlaps the
    /// destination of a get that has not yet completed (no flush/unlock/
    /// complete/fence towards its target since it was issued). A no-op
    /// when the sanitizer is off — the simulator cannot trap plain loads,
    /// so checked code paths call this explicitly before consuming get
    /// results early.
    pub fn san_read(&self, p: &Process, buf: &[u8]) {
        if let (Some(local), Some(ctx)) = (self.san.as_deref(), p.san.as_ref()) {
            local.check_read(ctx, buf.as_ptr() as usize, buf.len());
        }
    }

    /// Consults the fault schedule for one operation towards `target`.
    ///
    /// `Ok(spike)` lets the operation proceed with its wire time
    /// multiplied by `spike` (1.0 normally). Failures charge their
    /// detection cost — a NACK round trip for transients, the failure
    /// detector's timeout for dead targets — and surface as typed errors.
    fn fault_gate(&self, p: &mut Process, target: usize) -> Result<f64, RmaError> {
        match p.fault_decision(target) {
            FaultDecision::None => Ok(1.0),
            FaultDecision::LatencySpike(f) => Ok(f),
            FaultDecision::Transient => {
                let nack = p.netmodel().transfer_cost(self.my_rank, target, 0, 1);
                p.clock_mut().charge_cpu(nack.cpu_ns + nack.wire_ns);
                Err(RmaError::Transient { target })
            }
            FaultDecision::TargetFailed => {
                let detect = p.timeout_detect_ns();
                p.clock_mut().charge_cpu(detect);
                Err(RmaError::TargetFailed { target })
            }
        }
    }

    /// Reads `count` elements of `dtype` from `target`'s region at byte
    /// displacement `disp` into the packed buffer `dst` (MPI_Get with a
    /// contiguous origin type).
    ///
    /// The data is available in `dst` immediately (the simulator performs
    /// the copy eagerly) but the operation only *completes* — in virtual
    /// time — at the next flush/unlock, like a real nonblocking RMA get.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the target region, `dst` has the
    /// wrong length, or fault injection fails the operation (use
    /// [`Window::try_get`] — or the CLaMPI recovery layer — under
    /// faults).
    pub fn get(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) {
        self.try_get(p, dst, target, disp, dtype, count)
            .unwrap_or_else(|e| {
                panic!("unrecovered RMA fault on get: {e} (use try_get or the CLaMPI recovery layer under fault injection)")
            });
    }

    /// Fallible [`Window::get`]: surfaces injected faults as typed
    /// [`RmaError`]s instead of panicking. On `Err` no bytes have moved
    /// and no transfer is outstanding; transient errors may be retried.
    pub fn try_get(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) -> Result<(), RmaError> {
        if dtype.is_contiguous() {
            let len = dtype.size_n(count);
            return self.with_contig_layout(len, |w, layout| {
                w.try_get_flat(p, dst, target, disp, Some(layout))
            });
        }
        let layout = dtype.flatten_n(count);
        self.try_get_flat(p, dst, target, disp, Some(&layout))
    }

    /// [`Window::get`] with a pre-flattened layout (relative to `disp`).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or on an injected fault (see
    /// [`Window::try_get_flat`]).
    pub fn get_flat(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        layout: &FlatLayout,
    ) {
        self.try_get_flat(p, dst, target, disp, Some(layout))
            .unwrap_or_else(|e| {
                panic!("unrecovered RMA fault on get: {e} (use try_get or the CLaMPI recovery layer under fault injection)")
            });
    }

    /// Fallible [`Window::get_flat`]: surfaces injected faults as typed
    /// [`RmaError`]s. `None` reads `dst.len()` contiguous bytes, with no
    /// layout built by the caller. `get`, `try_get`, `get_flat` and
    /// `get_typed` all delegate here.
    ///
    /// On `Ok` the get is counted outstanding towards `target` (see
    /// [`Window::outstanding_gets`]) until the next completion event. On
    /// `Err` no bytes have moved, nothing is outstanding on the network,
    /// and no epoch access has been recorded; only the failure's
    /// detection cost (NACK round trip or timeout) has been charged to
    /// the virtual clock. Transient errors may be retried.
    ///
    /// # Panics
    ///
    /// Still panics on programming errors (out-of-bounds access, wrong
    /// buffer length) — those are bugs, not injectable faults.
    pub fn try_get_flat(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        layout: Option<&FlatLayout>,
    ) -> Result<(), RmaError> {
        let staged = self.try_get_staged(p, dst, target, disp, layout)?;
        p.clock_mut().charge_cpu(staged.cost.cpu_ns);
        p.clock_mut()
            .post_network(target, staged.cost.wire_ns * staged.spike);
        self.outstanding_gets[target] += 1;
        Ok(())
    }

    /// Runs `f` with a borrowed contiguous scratch layout of `len` bytes,
    /// reusing the per-window allocation (the replace dance keeps `self`
    /// fully usable inside `f`; the empty layout is allocation-free).
    fn with_contig_layout<R>(
        &mut self,
        len: usize,
        f: impl FnOnce(&mut Self, &FlatLayout) -> R,
    ) -> R {
        if self.scratch_layout.total_size() != len {
            self.scratch_layout.set_contiguous(len);
        }
        let layout = std::mem::replace(&mut self.scratch_layout, FlatLayout::contiguous(0));
        let r = f(self, &layout);
        self.scratch_layout = layout;
        r
    }

    /// Stages a get without charging it: performs the fault gate, the
    /// conflict check, and the eager data copy into `dst`, and bumps the
    /// op counters — but charges *no* CPU time and posts *no* network
    /// completion. The returned [`StagedGet`] carries the LogGP cost this
    /// get would have had alone; the caller does the accounting.
    ///
    /// This exists for batching layers (CLaMPI's coalescing miss table)
    /// that merge several staged gets into fewer, wider wire transfers.
    /// `None` reads `dst.len()` contiguous bytes through the window's
    /// reusable one-block layout.
    pub fn try_get_staged(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        layout: Option<&FlatLayout>,
    ) -> Result<StagedGet, RmaError> {
        let Some(layout) = layout else {
            return self.with_contig_layout(dst.len(), |w, layout| {
                w.try_get_staged(p, dst, target, disp, Some(layout))
            });
        };
        let span = layout.span();
        assert!(
            disp + span <= self.shared.sizes[target],
            "get out of bounds: disp {disp} + span {span} > window size {} at target {target}",
            self.shared.sizes[target]
        );
        self.san_epoch_gate(p, target, "get");
        let spike = self.fault_gate(p, target)?;
        self.record_access(
            p,
            target,
            Range2 {
                start: disp,
                end: disp + span,
            },
            AccessKind::Read,
        );
        self.san_log_access(p, target, disp, disp + span, AccessKind::Read);
        if let Some(local) = self.san.as_deref_mut() {
            local.register_read(target, dst, disp, disp + span);
        }
        {
            let region = sync::read(&self.shared.regions[target]);
            clampi_datatype::pack(&region[disp..disp + span], layout, dst);
            // Sampled while the region read lock is still held: writers
            // bump version/ts inside the write lock, so the bytes just
            // copied correspond exactly to this stamp. Free in virtual
            // time, like Window::version (piggybacked on the reply).
            let ring = sync::lock(&self.shared.notify[target]);
            self.last_get_stamp = GetStamp {
                version: ring.version,
                ts: ring.last_ts,
            };
        }
        let cost = p.netmodel().transfer_cost(
            self.my_rank,
            target,
            layout.total_size(),
            layout.blocks().len(),
        );
        p.counters.gets += 1;
        p.counters.bytes_get += layout.total_size() as u64;
        Ok(StagedGet { cost, spike })
    }

    /// Number of gets posted towards `target` and not yet completed by a
    /// completion event.
    pub fn outstanding_gets(&self, target: usize) -> usize {
        self.outstanding_gets[target]
    }

    /// [`Window::get`] with a *typed origin*: the fetched payload is
    /// scattered into `dst` according to `origin_dtype` instead of being
    /// delivered packed (MPI_Get with distinct origin/target datatypes).
    ///
    /// # Panics
    ///
    /// Panics if the origin and target payload sizes differ or the access
    /// exceeds the target region.
    #[allow(clippy::too_many_arguments)] // mirrors MPI_Get's signature
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
    ) {
        let origin = origin_dtype.flatten_n(origin_count);
        let tlayout = target_dtype.flatten_n(target_count);
        assert_eq!(
            origin.total_size(),
            tlayout.total_size(),
            "origin and target payload sizes differ"
        );
        let mut packed = vec![0u8; tlayout.total_size()];
        self.get_flat(p, &mut packed, target, disp, &tlayout);
        clampi_datatype::unpack(&packed, &origin, dst);
        // The origin-side scatter is initiator CPU work.
        let scatter = p.netmodel().memcpy_cost(origin.total_size());
        p.clock_mut().charge_cpu(scatter);
    }

    /// Writes `count` elements of `dtype` from the packed buffer `src` into
    /// `target`'s region at byte displacement `disp` (MPI_Put).
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the target region, `src` has the
    /// wrong length, or fault injection fails the operation (use
    /// [`Window::try_put`] under faults).
    pub fn put(
        &mut self,
        p: &mut Process,
        src: &[u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) {
        self.try_put(p, src, target, disp, dtype, count)
            .unwrap_or_else(|e| {
                panic!("unrecovered RMA fault on put: {e} (use try_put or the CLaMPI recovery layer under fault injection)")
            });
    }

    /// Fallible [`Window::put`]: surfaces injected faults as typed
    /// [`RmaError`]s instead of panicking.
    ///
    /// On `Err` the target region is untouched, nothing is outstanding,
    /// and no epoch access has been recorded; only the failure's
    /// detection cost has been charged. Transient errors may be retried
    /// (put is idempotent, so a duplicate delivery of a retried put is
    /// harmless). On `Ok`, [`Window::last_put_stamp`] is the write's.
    pub fn try_put(
        &mut self,
        p: &mut Process,
        src: &[u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) -> Result<(), RmaError> {
        if dtype.is_contiguous() {
            let len = dtype.size_n(count);
            return self.with_contig_layout(len, |w, layout| {
                w.try_put_flat(p, src, target, disp, layout)
            });
        }
        let layout = dtype.flatten_n(count);
        self.try_put_flat(p, src, target, disp, &layout)
    }

    /// [`Window::try_put`] with a pre-flattened layout.
    fn try_put_flat(
        &mut self,
        p: &mut Process,
        src: &[u8],
        target: usize,
        disp: usize,
        layout: &FlatLayout,
    ) -> Result<(), RmaError> {
        let span = layout.span();
        assert!(
            disp + span <= self.shared.sizes[target],
            "put out of bounds: disp {disp} + span {span} > window size {} at target {target}",
            self.shared.sizes[target]
        );
        self.san_epoch_gate(p, target, "put");
        let spike = self.fault_gate(p, target)?;
        self.record_access(
            p,
            target,
            Range2 {
                start: disp,
                end: disp + span,
            },
            AccessKind::Write,
        );
        self.san_log_access(p, target, disp, disp + span, AccessKind::Write);
        {
            let mut region = sync::write(&self.shared.regions[target]);
            clampi_datatype::unpack(src, layout, &mut region[disp..disp + span]);
            self.last_put_stamp = self.shared.note_put(
                target,
                self.my_rank,
                disp as u64,
                span as u64,
                p.now() as u64,
            );
        }
        let cost = p.netmodel().transfer_cost(
            self.my_rank,
            target,
            layout.total_size(),
            layout.blocks().len(),
        );
        p.clock_mut().charge_cpu(cost.cpu_ns);
        p.clock_mut().post_network(target, cost.wire_ns * spike);
        p.counters.puts += 1;
        p.sync_events += 1;
        p.counters.bytes_put += layout.total_size() as u64;
        Ok(())
    }

    /// The current version counter of `target`'s region: the number of
    /// puts applied to it so far. Local
    /// stores through [`Window::local_mut`] do *not* bump it — coherence
    /// covers RMA writers, not out-of-band initialization.
    ///
    /// Reading the counter is free in virtual time: the simulator models
    /// it as piggybacked on get responses (a real implementation ships the
    /// version in every reply header), which is why a caching layer can
    /// stamp entries at fill time for free.
    ///
    /// **Ordering.** Writers update the region bytes and bump the version
    /// *inside the region write lock* (bytes first, then the bump, as one
    /// atomic step for anyone holding the region lock). A bare peek like
    /// this one takes no region lock, so a stamp-then-copy reader can
    /// still only stamp an entry *older* than the bytes it holds —
    /// conservative (at worst an unnecessary invalidation later), never
    /// stale-marked-fresh. A get that samples the counter while holding
    /// the region read lock gets an *exact* stamp; that is what
    /// [`Window::last_get_stamp`] exposes.
    pub fn version(&self, target: usize) -> u64 {
        sync::lock(&self.shared.notify[target]).version
    }

    /// The exact [`GetStamp`] of the last get staged through this handle
    /// (every get entry point funnels through [`Window::try_get_staged`],
    /// which samples it inside the target's region read lock). Free in
    /// virtual time: the stamp rides the get reply it describes.
    pub fn last_get_stamp(&self) -> GetStamp {
        self.last_get_stamp
    }

    /// The `(version, ts)` that [`Window::try_put`] assigned to the last
    /// put that landed through this handle, under the target's region
    /// write lock: the region's bytes the put covered are exactly the
    /// put's at that version. Free in virtual time, like
    /// [`Window::last_get_stamp`].
    pub fn last_put_stamp(&self) -> GetStamp {
        self.last_put_stamp
    }

    /// A zero-cost peek at `target`'s notification-ring horizon: current
    /// version and commit timestamp, the evicted-history watermark, and
    /// the global commit clock. Like [`Window::version`] this charges
    /// nothing — the snapshot layer and the benches use it to bound
    /// staleness, not to move data.
    pub fn notify_horizon(&self, target: usize) -> NotifyHorizon {
        let ring = sync::lock(&self.shared.notify[target]);
        NotifyHorizon {
            version: ring.version,
            last_ts: ring.last_ts,
            dropped_through: ring.dropped_through,
            dropped_through_ts: ring.dropped_through_ts,
            // Sampled inside the ring lock: a put not yet in the ring
            // fields above runs note_put's stamp after this read, so it
            // gets a timestamp > this value (now_ts is a true cap).
            now_ts: *sync::lock(&self.shared.commit_ts),
        }
    }

    /// Drains `target`'s put-notification ring past `cursor` (the version
    /// through which this reader has already observed notifications):
    /// appends every record with `version > cursor` to `out` and reports
    /// the region's current version. The records already seen are
    /// skipped by a binary search, not read.
    ///
    /// If the bounded ring evicted records the caller has not seen, the
    /// drain reports `overflowed` and appends nothing — the lost ranges
    /// are unknown, so the caller must fall back to a full per-target
    /// invalidation.
    ///
    /// Cost: notification records travel with the epoch's put traffic
    /// (Active Access-style piggybacking), so the drain charges only
    /// local CPU — one issue overhead plus a record-sized memcpy per
    /// drained record. Fault-gated like any operation observing the
    /// target: a dead target's pending notifications are unreachable and
    /// the caller must degrade, not silently drop them.
    pub fn try_drain_notifications(
        &mut self,
        p: &mut Process,
        target: usize,
        cursor: u64,
        out: &mut Vec<PutRecord>,
    ) -> Result<NotifyDrain, RmaError> {
        self.fault_gate(p, target)?;
        let before = out.len();
        let (version, drained, overflowed, now_ts) = {
            let ring = sync::lock(&self.shared.notify[target]);
            // Sampled inside the ring lock: a write to this target not
            // visible in this drain runs note_put after this critical
            // section, so its timestamp will exceed now_ts — the cap a
            // snapshot reader may trust.
            let now_ts = *sync::lock(&self.shared.commit_ts);
            if ring.dropped_through > cursor {
                (ring.version, 0usize, true, now_ts)
            } else {
                // `note_put` pushes records in version order, so the
                // unseen ones are a suffix: seek it, copy only it.
                debug_assert!(
                    ring.records
                        .iter()
                        .zip(ring.records.iter().skip(1))
                        .all(|(a, b)| a.version < b.version),
                    "notification ring out of version order"
                );
                let seen = ring.records.partition_point(|r| r.version <= cursor);
                out.extend(ring.records.range(seen..));
                (ring.version, ring.records.len() - seen, false, now_ts)
            }
        };
        if let (Some(local), Some(ctx)) = (self.san.as_deref_mut(), p.san.as_ref()) {
            local.check_drain(ctx, target, cursor, &out[before..], version);
        }
        let per_record = p.netmodel().memcpy_cost(PUT_RECORD_BYTES);
        let drain_cpu = p.netmodel().issue_overhead_ns + drained as f64 * per_record;
        p.clock_mut().charge_cpu(drain_cpu);
        Ok(NotifyDrain {
            version,
            drained,
            overflowed,
            now_ts,
        })
    }

    fn close_epoch(&mut self) {
        self.epoch += 1;
        self.accesses.clear();
    }

    /// Completes all outstanding operations towards `target`
    /// (MPI_Win_flush). Counts as an epoch closure for the caching layer.
    pub fn flush(&mut self, p: &mut Process, target: usize) {
        if let Some(ctx) = self.san_ctx(p).filter(|_| !self.open.covers(target)) {
            ctx.report(SanKind::FlushOutsideEpoch {
                target: Some(target),
            });
        }
        if let Some(local) = self.san.as_deref_mut() {
            local.complete_reads_for(target);
        }
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        p.clock_mut().wait_target(target);
        p.counters.flushes += 1;
        self.outstanding_gets[target] = 0;
        self.close_epoch();
    }

    /// Completes all outstanding operations towards every target
    /// (MPI_Win_flush_all). Counts as an epoch closure.
    pub fn flush_all(&mut self, p: &mut Process) {
        if let Some(ctx) = self.san_ctx(p).filter(|_| !self.open.any()) {
            ctx.report(SanKind::FlushOutsideEpoch { target: None });
        }
        if let Some(local) = self.san.as_deref_mut() {
            local.complete_all_reads();
        }
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        p.clock_mut().wait_all();
        p.counters.flushes += 1;
        self.outstanding_gets.fill(0);
        self.close_epoch();
    }

    /// Starts a passive-target access epoch towards `target`
    /// (MPI_Win_lock).
    pub fn lock(&mut self, p: &mut Process, kind: LockKind, target: usize) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        self.open.lock(self.san_ctx(p), kind, target);
        self.shared
            .locks
            .lock(&p.shared.liveness, kind, target, p.san.as_mut());
        p.sync_events += 1;
    }

    /// Ends the passive-target epoch towards `target` (MPI_Win_unlock):
    /// completes outstanding operations and releases the lock.
    pub fn unlock(&mut self, p: &mut Process, target: usize) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        p.clock_mut().wait_target(target);
        self.open.unlock(self.san_ctx(p), target);
        if let Some(local) = self.san.as_deref_mut() {
            local.complete_reads_for(target);
        }
        self.shared.locks.unlock(target, p.san.as_mut());
        self.outstanding_gets[target] = 0;
        self.close_epoch();
    }

    /// Starts a passive-target epoch towards all targets
    /// (MPI_Win_lock_all, shared mode).
    pub fn lock_all(&mut self, p: &mut Process) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        self.open.lock_all(self.san_ctx(p));
        self.shared
            .locks
            .lock_all(&p.shared.liveness, p.san.as_mut());
        p.sync_events += 1;
    }

    /// Ends the epoch towards all targets (MPI_Win_unlock_all).
    pub fn unlock_all(&mut self, p: &mut Process) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        p.clock_mut().wait_all();
        self.open.unlock_all(self.san_ctx(p));
        if let Some(local) = self.san.as_deref_mut() {
            local.complete_all_reads();
        }
        self.shared.locks.unlock_all(p.san.as_mut());
        self.outstanding_gets.fill(0);
        self.close_epoch();
    }

    /// Exposes this rank's region to the `accessors` group
    /// (MPI_Win_post): each accessor's matching [`Window::start`] may then
    /// proceed. Non-blocking.
    pub fn post(&mut self, p: &mut Process, accessors: &[usize]) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        let san_vc = p.san.as_mut().map(|san| {
            san.tick();
            san.vc.clone()
        });
        for &a in accessors {
            PscwState::signal(
                &self.shared.pscw.posts,
                &self.shared.pscw.cv,
                (self.my_rank, a),
                san_vc.as_deref(),
            );
        }
    }

    /// Starts an access epoch towards the `targets` group
    /// (MPI_Win_start): blocks until every target has posted to this rank.
    pub fn start(&mut self, p: &mut Process, targets: &[usize]) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        for &t in targets {
            let vc = PscwState::consume(
                &p.shared.liveness,
                &self.shared.pscw.posts,
                &self.shared.pscw.cv,
                (t, self.my_rank),
            );
            if let Some(san) = p.san.as_mut() {
                san.join(&vc);
                san.tick();
            }
        }
        // All posts have (virtually) arrived: model one remote latency for
        // the slowest post notification.
        if !targets.is_empty() {
            let l = p.netmodel().latency_ns[4];
            let now = p.clock().now();
            p.clock_mut().advance_to(now.max(l));
        }
        p.sync_events += 1;
        self.open.pscw = targets.to_vec();
    }

    /// Completes the access epoch opened by [`Window::start`]
    /// (MPI_Win_complete): finishes all outstanding operations and signals
    /// each target. Closes the epoch for the caching layer.
    pub fn complete(&mut self, p: &mut Process) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        p.clock_mut().wait_all();
        if let Some(local) = self.san.as_deref_mut() {
            local.complete_all_reads();
        }
        let san_vc = p.san.as_mut().map(|san| {
            san.tick();
            san.vc.clone()
        });
        for &t in &self.open.pscw {
            PscwState::signal(
                &self.shared.pscw.completes,
                &self.shared.pscw.cv,
                (self.my_rank, t),
                san_vc.as_deref(),
            );
        }
        self.open.pscw.clear();
        self.outstanding_gets.fill(0);
        self.close_epoch();
    }

    /// Waits until every accessor in the matching [`Window::post`] group
    /// has called [`Window::complete`] (MPI_Win_wait). Closes the exposure
    /// epoch.
    pub fn wait(&mut self, p: &mut Process, accessors: &[usize]) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        for &a in accessors {
            let vc = PscwState::consume(
                &p.shared.liveness,
                &self.shared.pscw.completes,
                &self.shared.pscw.cv,
                (a, self.my_rank),
            );
            if let Some(san) = p.san.as_mut() {
                san.join(&vc);
                san.tick();
            }
        }
        p.sync_events += 1;
        self.close_epoch();
    }

    /// Active-target fence (MPI_Win_fence): a collective that completes all
    /// operations and closes the epoch on every rank.
    pub fn fence(&mut self, p: &mut Process) {
        let sync = p.netmodel().sync_cost();
        p.clock_mut().charge_cpu(sync);
        p.clock_mut().wait_all();
        self.open.fenced = true;
        if let Some(local) = self.san.as_deref_mut() {
            local.complete_all_reads();
        }
        p.barrier();
        self.outstanding_gets.fill(0);
        self.close_epoch();
    }
}
