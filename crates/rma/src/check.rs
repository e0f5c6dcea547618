//! RMASAN: a runtime sanitizer for MPI-3 RMA semantics.
//!
//! The simulator moves real bytes eagerly, so many erroneous RMA programs
//! — programs whose behaviour is *undefined* under the MPI-3 separate
//! memory model — still compute the right answer here and silently pass.
//! RMASAN closes that gap: when enabled (via
//! [`SimConfig::with_checker`](crate::SimConfig::with_checker) or the
//! `CLAMPI_SAN=1` environment variable) it observes every window
//! operation and reports structured [`SanDiag`] values for:
//!
//! - **Same-epoch conflicts**: overlapping put/put or put/get by one
//!   initiator within a single epoch, without an intervening flush
//!   ([`SanKind::EpochConflict`]).
//! - **Cross-rank races**: conflicting accesses to overlapping byte
//!   ranges of one target region by different origins, with no
//!   happens-before edge between them ([`SanKind::Race`]). Happens-before
//!   is tracked with per-rank vector clocks, joined at collectives and
//!   window creation (`lock_all` is shared and orders nothing).
//! - **Reads before completion**: reading the destination buffer of a
//!   `get` or staged get before the completing flush/unlock_all
//!   ([`SanKind::ReadBeforeFlush`]) — checked at explicit
//!   [`Window::san_read`](crate::Window::san_read) call sites, since the
//!   simulator cannot trap plain loads.
//! - **Epoch discipline**: data ops outside a lock_all..unlock_all
//!   epoch, a second `lock_all`, an `unlock_all` without a matching
//!   `lock_all`, and flushes outside an epoch ([`SanKind::OpOutsideEpoch`],
//!   [`SanKind::DoubleLock`], [`SanKind::UnlockWithoutLock`],
//!   [`SanKind::FlushOutsideEpoch`]).
//! - **Coherence-protocol ordering**: a target's version counter moving
//!   backwards, or a notification drain yielding records out of order
//!   ([`SanKind::VersionRegression`], [`SanKind::NotifyOrder`]).
//!
//! The checker is strictly *observation-only*: it charges nothing to the
//! virtual clocks, never touches window bytes, and never perturbs the op
//! counters, so a checker-on run of a clean program is bit-identical to
//! a checker-off run (a property test asserts exactly that).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sync;

/// Classification of one RMA data access, as seen by the sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A `get` (any flavour: plain, typed, staged).
    Read,
    /// A `put`.
    Write,
}

impl AccessKind {
    /// MPI-3 conflict matrix: concurrent reads of one location are
    /// well-defined; anything involving a write is not.
    pub(crate) fn conflicts_with(self, other: AccessKind) -> bool {
        !matches!((self, other), (AccessKind::Read, AccessKind::Read))
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "get",
            AccessKind::Write => "put",
        })
    }
}

/// One access interval: kind plus the half-open byte range it touched in
/// the target's region.
pub type AccessSpan = (AccessKind, usize, usize);

/// What RMASAN found (the payload of a [`SanDiag`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SanKind {
    /// Two conflicting accesses by *this* initiator to overlapping ranges
    /// of one target region within a single epoch (no flush in between).
    EpochConflict {
        /// The target rank whose region was accessed.
        target: usize,
        /// The earlier access of the conflicting pair.
        first: AccessSpan,
        /// The later access of the conflicting pair.
        second: AccessSpan,
    },
    /// Conflicting accesses to overlapping ranges of one target region by
    /// two different origins, with no happens-before edge between them.
    Race {
        /// The target rank whose region was accessed.
        target: usize,
        /// The rank that performed the racing prior access.
        other_origin: usize,
        /// This rank's access.
        access: AccessSpan,
        /// The concurrent access by `other_origin`.
        other: AccessSpan,
    },
    /// The destination buffer of a get was read (via
    /// [`Window::san_read`](crate::Window::san_read)) before the
    /// completing flush/unlock_all.
    ReadBeforeFlush {
        /// The target rank of the incomplete get.
        target: usize,
        /// Start of the incomplete get's range in the target region.
        start: usize,
        /// End (exclusive) of that range.
        end: usize,
    },
    /// A data operation (get/put) with no epoch open towards its target.
    OpOutsideEpoch {
        /// The operation's target rank.
        target: usize,
        /// Which operation it was (`"get"` or `"put"`).
        op: &'static str,
    },
    /// `lock_all` while this window already holds it.
    DoubleLock,
    /// `unlock_all` with no matching `lock_all` held by this window.
    UnlockWithoutLock,
    /// `flush`/`flush_all` with no epoch open.
    FlushOutsideEpoch {
        /// The flushed target, or `None` for `flush_all`.
        target: Option<usize>,
    },
    /// A target's write-version counter was observed to move backwards —
    /// impossible for the monotonic counter, so it indicates a torn or
    /// reordered read of coherence metadata.
    VersionRegression {
        /// The target whose version counter regressed.
        target: usize,
        /// The highest version previously observed by this rank.
        prior: u64,
        /// The (smaller) version just observed.
        observed: u64,
    },
    /// A drained record's commit timestamp ran backwards for its target:
    /// the commit clock is stamped inside the ring lock, so per-target
    /// `PutRecord.ts` order must agree with version order — a regression
    /// indicates stamping outside the lock or a torn drain.
    TsRegression {
        /// The target whose drained timestamps regressed.
        target: usize,
        /// The highest commit timestamp previously drained from it.
        prior: u64,
        /// The (smaller) timestamp just drained.
        observed: u64,
    },
    /// A notification drain returned records out of order: a record's
    /// version was not strictly greater than the cursor/previous record.
    NotifyOrder {
        /// The target whose ring was drained.
        target: usize,
        /// The cursor (or previous record's version) the record had to
        /// exceed.
        cursor: u64,
        /// The offending record's version.
        observed: u64,
    },
}

/// One diagnostic: which rank's operation triggered it, and what it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanDiag {
    /// The rank whose operation triggered the diagnostic.
    pub rank: usize,
    /// What was detected.
    pub kind: SanKind,
}

fn fmt_span(f: &mut fmt::Formatter<'_>, s: &AccessSpan) -> fmt::Result {
    write!(f, "{} [{},{})", s.0, s.1, s.2)
}

impl fmt::Display for SanDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}: ", self.rank)?;
        match &self.kind {
            SanKind::EpochConflict {
                target,
                first,
                second,
            } => {
                write!(f, "conflicting accesses in one epoch at target {target}: ")?;
                fmt_span(f, first)?;
                f.write_str(" vs ")?;
                fmt_span(f, second)
            }
            SanKind::Race {
                target,
                other_origin,
                access,
                other,
            } => {
                write!(f, "data race at target {target}: ")?;
                fmt_span(f, access)?;
                write!(f, " concurrent with rank {other_origin}'s ")?;
                fmt_span(f, other)
            }
            SanKind::ReadBeforeFlush { target, start, end } => write!(
                f,
                "read of get destination [{start},{end}) from target {target} \
                 before the completing flush"
            ),
            SanKind::OpOutsideEpoch { target, op } => {
                write!(f, "{op} towards target {target} outside any epoch")
            }
            SanKind::DoubleLock => f.write_str("lock_all while already holding a lock"),
            SanKind::UnlockWithoutLock => f.write_str("unlock_all without a matching lock_all"),
            SanKind::FlushOutsideEpoch { target } => match target {
                Some(t) => write!(f, "flush({t}) outside any epoch"),
                None => write!(f, "flush_all outside any epoch"),
            },
            SanKind::VersionRegression {
                target,
                prior,
                observed,
            } => write!(
                f,
                "version counter of target {target} regressed: observed \
                 {observed} after {prior}"
            ),
            SanKind::TsRegression {
                target,
                prior,
                observed,
            } => write!(
                f,
                "commit timestamps of target {target} ran backwards: drained \
                 ts {observed} after {prior}"
            ),
            SanKind::NotifyOrder {
                target,
                cursor,
                observed,
            } => write!(
                f,
                "notification drain of target {target} out of order: record \
                 version {observed} not past cursor {cursor}"
            ),
        }
    }
}

/// Total diagnostics reported process-wide since startup, across every
/// simulation run and checker mode. Benchmarks print this as a
/// `# SAN diags <n>` line (0 in clean runs), which CI's san-test stage
/// checks.
static TOTAL_DIAGS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of RMASAN diagnostics reported so far.
pub fn total_diags() -> u64 {
    TOTAL_DIAGS.load(Ordering::Relaxed)
}

/// Process-wide count of lock-poison recoveries performed by the
/// simulator's poison-tolerant `std::sync` wrappers — nonzero only when
/// a rank panicked while holding an internal lock (see `crate::sync`).
///
/// This is one counter per *process*, and `cargo test` runs many tests
/// concurrently in one process, so the absolute value reflects every
/// panicking-holder test that ran before (or during) yours. Never assert
/// `poison_recoveries() == 0`; take a [`poison_snapshot`] first and
/// assert on [`recoveries_since`] instead.
pub fn poison_recoveries() -> u64 {
    sync::poison_recoveries()
}

/// A point-in-time reading of the process-wide poison-recovery counter,
/// for delta-based assertions. See [`poison_snapshot`].
#[derive(Debug, Clone, Copy)]
pub struct PoisonSnapshot(u64);

/// Records the current poison-recovery count so a later
/// [`recoveries_since`] can report only what happened in between.
///
/// Because the counter is process-global, a delta still includes
/// recoveries performed by *other* tests that run concurrently with the
/// bracketed region — so a delta of zero is a sound "nothing recovered
/// anywhere" claim, while asserting an exact nonzero delta is only
/// reliable for recoveries your own code path performs deterministically
/// (asserting `>= n` is the robust form).
pub fn poison_snapshot() -> PoisonSnapshot {
    PoisonSnapshot(sync::poison_recoveries())
}

/// Lock-poison recoveries performed since `snap` was taken.
pub fn recoveries_since(snap: PoisonSnapshot) -> u64 {
    sync::poison_recoveries().saturating_sub(snap.0)
}

#[derive(Debug, Clone)]
enum SanMode {
    FailFast,
    Collect(Arc<Mutex<Vec<SanDiag>>>),
}

/// How RMASAN reports: panic on the first diagnostic, or collect them
/// for inspection through a [`SanHandle`].
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    mode: SanMode,
}

impl CheckerConfig {
    /// A checker that panics (with the formatted diagnostic) on the first
    /// violation — the right mode for CI and for debugging.
    pub fn fail_fast() -> Self {
        CheckerConfig {
            mode: SanMode::FailFast,
        }
    }

    /// A checker that collects diagnostics; read them after the run
    /// through the returned [`SanHandle`]. This is what the directed
    /// negative tests use, and what `CLAMPI_SAN=1` installs (asserting
    /// emptiness at the end of the run).
    pub fn collect() -> (Self, SanHandle) {
        let sink = Arc::new(Mutex::new(Vec::new()));
        (
            CheckerConfig {
                mode: SanMode::Collect(Arc::clone(&sink)),
            },
            SanHandle(sink),
        )
    }
}

/// Read side of a collecting checker (see [`CheckerConfig::collect`]).
#[derive(Debug, Clone)]
pub struct SanHandle(Arc<Mutex<Vec<SanDiag>>>);

impl SanHandle {
    /// Takes every diagnostic collected so far, leaving the sink empty.
    pub fn take(&self) -> Vec<SanDiag> {
        std::mem::take(&mut *sync::lock(&self.0))
    }

    /// Number of diagnostics currently collected.
    pub fn count(&self) -> usize {
        sync::lock(&self.0).len()
    }
}

// ---------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------

/// Joins `src` into `dst` (elementwise max).
pub(crate) fn vc_join(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

/// `a <= b` elementwise: every event in `a` is known to `b`, i.e. `a`
/// happens-before (or equals) `b`.
pub(crate) fn vc_leq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Per-rank sanitizer context: the reporting configuration plus this
/// rank's vector clock. Lives inside [`crate::Process`] when a checker
/// is enabled.
#[derive(Debug)]
pub(crate) struct SanCtx {
    cfg: CheckerConfig,
    pub(crate) rank: usize,
    /// This rank's vector clock (one component per rank).
    pub(crate) vc: Vec<u64>,
}

impl SanCtx {
    pub(crate) fn new(cfg: CheckerConfig, rank: usize, nranks: usize) -> Self {
        let mut vc = vec![0u64; nranks];
        vc[rank] = 1;
        SanCtx { cfg, rank, vc }
    }

    /// Advances this rank's own clock component (a new local event).
    pub(crate) fn tick(&mut self) {
        self.vc[self.rank] += 1;
    }

    /// Reports one diagnostic per the configured mode.
    pub(crate) fn report(&self, kind: SanKind) {
        TOTAL_DIAGS.fetch_add(1, Ordering::Relaxed);
        let diag = SanDiag {
            rank: self.rank,
            kind,
        };
        match &self.cfg.mode {
            SanMode::FailFast => panic!("RMASAN: {diag}"),
            SanMode::Collect(sink) => sync::lock(sink).push(diag),
        }
    }
}

/// `true` iff `CLAMPI_SAN` is set to anything but `""`/`"0"` — the
/// environment switch that installs a collecting checker (asserted empty
/// at the end of the run) when the [`crate::SimConfig`] has none.
pub(crate) fn env_enabled() -> bool {
    matches!(std::env::var("CLAMPI_SAN"), Ok(v) if !v.is_empty() && v != "0")
}

// ---------------------------------------------------------------------
// Shared (cross-rank) window state: the access log
// ---------------------------------------------------------------------

/// One logged access to a target region, for cross-rank race detection.
#[derive(Debug)]
struct LogRec {
    origin: usize,
    start: usize,
    end: usize,
    kind: AccessKind,
    vc: Box<[u64]>,
}

/// Bound on retained access records per target region. Older records are
/// evicted; a race against an evicted record is missed (the sanitizer
/// errs towards false negatives, never false positives).
const REGION_LOG_CAP: usize = 256;

/// Cross-rank sanitizer state attached to a window's shared half: a
/// bounded access log per target region (race detection).
#[derive(Debug)]
pub(crate) struct WinSanShared {
    regions: Vec<Mutex<VecDeque<LogRec>>>,
}

impl WinSanShared {
    pub(crate) fn new(ntargets: usize) -> Self {
        WinSanShared {
            regions: (0..ntargets).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Logs one access and reports a [`SanKind::Race`] against the first
    /// concurrent conflicting access by another origin, if any. Insertion
    /// and check happen under one mutex, so exactly one of two racing
    /// ranks observes the other's record already present — each racing
    /// pair yields exactly one diagnostic.
    pub(crate) fn log_access(
        &self,
        san: &SanCtx,
        target: usize,
        start: usize,
        end: usize,
        kind: AccessKind,
    ) {
        let mut log = sync::lock(&self.regions[target]);
        let racing = log.iter().find(|e| {
            e.origin != san.rank
                && e.start < end
                && start < e.end
                && e.kind.conflicts_with(kind)
                && !vc_leq(&e.vc, &san.vc)
        });
        if let Some(e) = racing {
            san.report(SanKind::Race {
                target,
                other_origin: e.origin,
                access: (kind, start, end),
                other: (e.kind, e.start, e.end),
            });
        }
        if log.len() == REGION_LOG_CAP {
            log.pop_front();
        }
        log.push_back(LogRec {
            origin: san.rank,
            start,
            end,
            kind,
            vc: san.vc.clone().into_boxed_slice(),
        });
    }
}

// ---------------------------------------------------------------------
// Rank-local window state: epoch discipline, pending reads, versions
// ---------------------------------------------------------------------

/// One not-yet-completed get: where its destination buffer lives (by
/// address) and which target range it reads.
#[derive(Debug)]
struct PendingRead {
    target: usize,
    buf_start: usize,
    buf_end: usize,
    start: usize,
    end: usize,
}

/// Rank-local sanitizer state of one window handle: outstanding get
/// destinations and the last observed version per target. (The open
/// epochs the discipline checks read are tracked by the window itself,
/// sanitizer or not.)
#[derive(Debug)]
pub(crate) struct WinSanLocal {
    pending_reads: Vec<PendingRead>,
    last_version: Vec<u64>,
    /// Highest commit timestamp drained per target; mirrors
    /// `last_version` for the `TsRegression` check.
    last_ts: Vec<u64>,
}

impl WinSanLocal {
    pub(crate) fn new(ntargets: usize) -> Self {
        WinSanLocal {
            pending_reads: Vec::new(),
            last_version: vec![0; ntargets],
            last_ts: vec![0; ntargets],
        }
    }

    /// Registers the destination buffer of a get that is now outstanding.
    pub(crate) fn register_read(&mut self, target: usize, buf: &[u8], start: usize, end: usize) {
        self.pending_reads.push(PendingRead {
            target,
            buf_start: buf.as_ptr() as usize,
            buf_end: buf.as_ptr() as usize + buf.len(),
            start,
            end,
        });
    }

    /// Completes every read towards `target` (flush).
    pub(crate) fn complete_reads_for(&mut self, target: usize) {
        self.pending_reads.retain(|r| r.target != target);
    }

    /// Completes every read (flush_all/unlock_all).
    pub(crate) fn complete_all_reads(&mut self) {
        self.pending_reads.clear();
    }

    /// Checks a local read of `buf` against the outstanding get
    /// destinations (the [`crate::Window::san_read`] hook).
    pub(crate) fn check_read(&self, san: &SanCtx, buf_start: usize, buf_len: usize) {
        let buf_end = buf_start + buf_len;
        if let Some(r) = self
            .pending_reads
            .iter()
            .find(|r| r.buf_start < buf_end && buf_start < r.buf_end)
        {
            san.report(SanKind::ReadBeforeFlush {
                target: r.target,
                start: r.start,
                end: r.end,
            });
        }
    }

    /// Checks one observation of `target`'s version counter for
    /// monotonicity.
    pub(crate) fn check_version(&mut self, san: &SanCtx, target: usize, observed: u64) {
        let prior = self.last_version[target];
        if observed < prior {
            san.report(SanKind::VersionRegression {
                target,
                prior,
                observed,
            });
        } else {
            self.last_version[target] = observed;
        }
    }

    /// Checks one notification drain: records must be strictly
    /// increasing and strictly past the cursor, and the final version
    /// must not regress.
    pub(crate) fn check_drain(
        &mut self,
        san: &SanCtx,
        target: usize,
        cursor: u64,
        records: &[crate::window::PutRecord],
        version: u64,
    ) {
        let mut prev = cursor;
        for r in records {
            if r.version <= prev {
                san.report(SanKind::NotifyOrder {
                    target,
                    cursor: prev,
                    observed: r.version,
                });
            } else if r.version > self.last_version[target] {
                // Commit timestamps must advance with versions (stamped
                // inside the ring lock), so a record that moves this
                // target's version frontier forward must also move its
                // timestamp frontier. Records at or below the frontier
                // are re-drains from an older cursor: their repeated
                // timestamps are not a stamping bug, so they are skipped
                // (mirroring `check_version`'s tolerance of equality).
                let prior_ts = self.last_ts[target];
                if r.ts <= prior_ts {
                    san.report(SanKind::TsRegression {
                        target,
                        prior: prior_ts,
                        observed: r.ts,
                    });
                } else {
                    self.last_ts[target] = r.ts;
                }
            }
            prev = prev.max(r.version);
        }
        self.check_version(san, target, version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_ctx(rank: usize, nranks: usize) -> (SanCtx, SanHandle) {
        let (cfg, h) = CheckerConfig::collect();
        (SanCtx::new(cfg, rank, nranks), h)
    }

    #[test]
    fn vc_leq_is_elementwise() {
        assert!(vc_leq(&[1, 2], &[1, 2]));
        assert!(vc_leq(&[0, 2], &[1, 2]));
        assert!(!vc_leq(&[2, 0], &[1, 2]));
    }

    #[test]
    fn conflict_matrix_matches_mpi3() {
        use AccessKind::*;
        assert!(!Read.conflicts_with(Read));
        assert!(Write.conflicts_with(Write));
        assert!(Write.conflicts_with(Read));
        assert!(Read.conflicts_with(Write));
    }

    #[test]
    fn region_log_reports_each_racing_pair_once() {
        let shared = WinSanShared::new(2);
        let (a, ha) = collect_ctx(0, 2);
        let (b, hb) = collect_ctx(1, 2);
        shared.log_access(&a, 0, 0, 8, AccessKind::Write);
        shared.log_access(&b, 0, 4, 12, AccessKind::Read);
        assert_eq!(ha.count(), 0, "first access cannot race");
        let diags = hb.take();
        assert_eq!(diags.len(), 1);
        assert!(matches!(
            diags[0].kind,
            SanKind::Race {
                target: 0,
                other_origin: 0,
                ..
            }
        ));
    }

    #[test]
    fn hb_ordered_accesses_do_not_race() {
        let shared = WinSanShared::new(1);
        let (a, ha) = collect_ctx(0, 2);
        let (mut b, hb) = collect_ctx(1, 2);
        shared.log_access(&a, 0, 0, 8, AccessKind::Write);
        // b learns of a's events (e.g. via a barrier) before reading.
        vc_join(&mut b.vc, &a.vc);
        b.tick();
        shared.log_access(&b, 0, 0, 8, AccessKind::Read);
        assert_eq!(ha.count() + hb.count(), 0);
    }

    #[test]
    fn version_regression_is_reported() {
        let mut local = WinSanLocal::new(2);
        let (san, h) = collect_ctx(0, 2);
        local.check_version(&san, 1, 5);
        local.check_version(&san, 1, 5);
        local.check_version(&san, 1, 3);
        let diags = h.take();
        assert_eq!(
            diags,
            vec![SanDiag {
                rank: 0,
                kind: SanKind::VersionRegression {
                    target: 1,
                    prior: 5,
                    observed: 3
                }
            }]
        );
    }

    #[test]
    fn ts_regression_is_reported() {
        use crate::window::PutRecord;
        let mut local = WinSanLocal::new(1);
        let (san, h) = collect_ctx(0, 1);
        let rec = |version, ts| PutRecord {
            origin: 0,
            disp: 0,
            len: 8,
            version,
            ts,
        };
        // Clean: timestamps advance with versions, also across drains.
        local.check_drain(&san, 0, 0, &[rec(1, 10), rec(2, 12)], 2);
        assert_eq!(h.count(), 0);
        // The stamp-outside-the-ring-lock mutant's signature: the version
        // advances but the drained commit timestamp runs backwards.
        local.check_drain(&san, 0, 2, &[rec(3, 11)], 3);
        let diags = h.take();
        assert_eq!(diags.len(), 1);
        assert!(matches!(
            diags[0].kind,
            SanKind::TsRegression {
                target: 0,
                prior: 12,
                observed: 11
            }
        ));
        assert!(
            diags[0].to_string().contains("ran backwards"),
            "got: {}",
            diags[0]
        );
        // Re-draining already-seen records from an older cursor repeats
        // their timestamps; like `check_version`, equality is clean.
        local.check_drain(&san, 0, 0, &[rec(1, 10), rec(2, 12)], 3);
        assert_eq!(h.count(), 0, "re-drain from an old cursor must be clean");
    }

    #[test]
    fn out_of_order_drain_is_reported() {
        use crate::window::PutRecord;
        let mut local = WinSanLocal::new(1);
        let (san, h) = collect_ctx(0, 1);
        let rec = |version| PutRecord {
            origin: 0,
            disp: 0,
            len: 8,
            version,
            ts: version,
        };
        // In-order drain: clean.
        local.check_drain(&san, 0, 2, &[rec(3), rec(4)], 4);
        assert_eq!(h.count(), 0);
        // A record at/below the cursor is out of order.
        local.check_drain(&san, 0, 4, &[rec(4)], 4);
        let diags = h.take();
        assert_eq!(diags.len(), 1);
        assert!(matches!(
            diags[0].kind,
            SanKind::NotifyOrder {
                target: 0,
                cursor: 4,
                observed: 4
            }
        ));
    }

    #[test]
    fn pending_read_overlap_is_detected_and_cleared() {
        let mut local = WinSanLocal::new(2);
        let (san, h) = collect_ctx(0, 2);
        let buf = [0u8; 16];
        local.register_read(1, &buf, 32, 48);
        local.check_read(&san, buf.as_ptr() as usize + 4, 4);
        assert_eq!(h.count(), 1, "overlapping read before completion");
        local.complete_reads_for(1);
        local.check_read(&san, buf.as_ptr() as usize, 16);
        assert_eq!(h.count(), 1, "completed reads stop flagging");
        assert!(matches!(
            h.take()[0].kind,
            SanKind::ReadBeforeFlush {
                target: 1,
                start: 32,
                end: 48
            }
        ));
    }

    #[test]
    fn diag_display_is_human_readable() {
        let d = SanDiag {
            rank: 3,
            kind: SanKind::EpochConflict {
                target: 1,
                first: (AccessKind::Read, 0, 8),
                second: (AccessKind::Write, 4, 12),
            },
        };
        let s = d.to_string();
        assert!(s.contains("rank 3"), "{s}");
        assert!(s.contains("get [0,8)"), "{s}");
        assert!(s.contains("put [4,12)"), "{s}");
    }

    #[test]
    #[should_panic(expected = "RMASAN")]
    fn fail_fast_panics_on_report() {
        let san = SanCtx::new(CheckerConfig::fail_fast(), 0, 1);
        san.report(SanKind::FlushOutsideEpoch { target: None });
    }
}
