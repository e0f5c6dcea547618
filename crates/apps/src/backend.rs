//! Backend selection: which caching layer fronts the RMA window.
//!
//! The paper's application experiments compare four configurations:
//! foMPI, CLaMPI *fixed*, CLaMPI *adaptive*, and (for Barnes-Hut) the
//! ad-hoc *native* block cache of the reference UPC implementation.
//! foMPI is CLaMPI disabled ([`ClampiConfig::disabled`]), so the baseline
//! and the cached series run through one window type. [`Backend`] names
//! the configuration and [`AnyWindow`] erases the wrapper type so the
//! applications are written once.

use clampi::{
    AccessType, BlockCacheConfig, BlockCacheStats, BlockCachedWindow, CacheStats, CachedWindow,
    ClampiConfig,
};
use clampi_datatype::Datatype;
use clampi_rma::Process;

/// Which layer fronts the window.
// Constructed once per run to select a configuration; the size skew
// between variants is irrelevant at that frequency, and boxing would
// noise up every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Backend {
    /// The paper's "foMPI" series: a window with caching disabled
    /// ([`ClampiConfig::disabled`]).
    Fompi,
    /// CLaMPI with the given configuration (fixed or adaptive).
    Clampi(ClampiConfig),
    /// The direct-mapped block cache (the paper's "native" series).
    Native(BlockCacheConfig),
}

impl Backend {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Fompi => "foMPI",
            Backend::Clampi(cfg) => {
                if cfg.adaptive.is_some() {
                    "CLaMPI-adaptive"
                } else {
                    "CLaMPI-fixed"
                }
            }
            Backend::Native(_) => "native",
        }
    }
}

/// A window fronted by the selected backend.
#[derive(Debug)]
pub enum AnyWindow {
    /// CLaMPI window: cached, or with caching disabled for foMPI.
    Clampi(Box<CachedWindow>),
    /// Block-cached window.
    Native(Box<BlockCachedWindow>),
}

impl AnyWindow {
    /// Collectively creates the window (every rank must call with the same
    /// backend kind).
    pub fn create(p: &mut Process, size: usize, backend: &Backend) -> Self {
        let clampi =
            |p: &mut Process, cfg| AnyWindow::Clampi(Box::new(CachedWindow::create(p, size, cfg)));
        match backend {
            Backend::Fompi => clampi(p, ClampiConfig::disabled()),
            Backend::Clampi(cfg) => clampi(p, cfg.clone()),
            Backend::Native(cfg) => {
                AnyWindow::Native(Box::new(BlockCachedWindow::create(p, size, cfg.clone())))
            }
        }
    }

    /// This rank's exposed region, mutable.
    pub fn local_mut(&self) -> clampi_rma::MappedWriteGuard<'_> {
        match self {
            AnyWindow::Clampi(w) => w.local_mut(),
            AnyWindow::Native(w) => w.local_mut(),
        }
    }

    /// MPI_Win_lock_all.
    pub fn lock_all(&mut self, p: &mut Process) {
        match self {
            AnyWindow::Clampi(w) => w.lock_all(p),
            AnyWindow::Native(w) => w.lock_all(p),
        }
    }

    /// MPI_Win_unlock_all.
    pub fn unlock_all(&mut self, p: &mut Process) {
        match self {
            AnyWindow::Clampi(w) => w.unlock_all(p),
            AnyWindow::Native(w) => w.unlock_all(p),
        }
    }

    /// A *synchronous* contiguous read of `dst.len()` bytes from
    /// `target`'s region at `disp`: the returned data is safe to consume
    /// immediately.
    ///
    /// - CLaMPI: cached get; the flush is skipped on a hit — the source of
    ///   the paper's latency win. With caching disabled (foMPI) no get
    ///   hits, so every one pays get + flush;
    /// - block cache: fetches whole blocks synchronously on miss.
    ///
    /// Returns the CLaMPI access classification when applicable.
    pub fn get_sync(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
    ) -> Option<AccessType> {
        // The byte datatype routes every backend through its contiguous
        // fast path (per-window scratch layout — no per-call allocation).
        let dtype = Datatype::bytes(dst.len());
        match self {
            AnyWindow::Clampi(w) => {
                let class = w.get(p, dst, target, disp, &dtype, 1);
                if class != Some(AccessType::Hit) {
                    w.flush(p, target);
                }
                class
            }
            AnyWindow::Native(w) => {
                w.get(p, dst, target, disp, &dtype, 1);
                None
            }
        }
    }

    /// A *nonblocking* contiguous read of `dst.len()` bytes from
    /// `target`'s region at `disp`: `dst` holds the data eagerly, but for
    /// non-`Hit` outcomes it must not be consumed before the next
    /// [`AnyWindow::flush_batch`] (or any other completion event).
    ///
    /// - CLaMPI: [`CachedWindow::get_nb`] — misses enter the
    ///   outstanding-miss table (overlapping their wire time, coalescing
    ///   adjacent ranges) and hits cost no network at all. With caching
    ///   disabled (foMPI) it is the inner window's get, completed at the
    ///   next flush;
    /// - block cache: no nonblocking path — falls back to the synchronous
    ///   block fetch, which is already safe to consume.
    ///
    /// Returns the CLaMPI access classification when applicable.
    pub fn get_nb(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
    ) -> Option<AccessType> {
        let dtype = Datatype::bytes(dst.len());
        match self {
            AnyWindow::Clampi(w) => w.get_nb(p, dst, target, disp, &dtype, 1),
            AnyWindow::Native(w) => {
                w.get(p, dst, target, disp, &dtype, 1);
                None
            }
        }
    }

    /// Completes every get issued through [`AnyWindow::get_nb`] since the
    /// last completion event (MPI_Win_flush_all). No-op for the block
    /// cache, whose gets are always synchronous.
    pub fn flush_batch(&mut self, p: &mut Process) {
        match self {
            AnyWindow::Clampi(w) => w.flush_all(p),
            AnyWindow::Native(_) => {}
        }
    }

    /// A contiguous put of `src` into `target`'s region at `disp` (for
    /// read-write workloads like in-place PageRank updates). Routed
    /// through the caching layer when there is one, so its write-through
    /// invalidation and degradation handling apply.
    pub fn put(&mut self, p: &mut Process, src: &[u8], target: usize, disp: usize) {
        let dtype = Datatype::bytes(src.len());
        match self {
            AnyWindow::Clampi(w) => w.put(p, src, target, disp, &dtype, 1),
            AnyWindow::Native(w) => w.inner_mut().put(p, src, target, disp, &dtype, 1),
        }
    }

    /// Makes remotely-written data safe to read again: runs a CLaMPI
    /// coherence pass ([`CachedWindow::validate`] — surgical under a
    /// coherence mode, a full invalidation without one); falls back to a
    /// full invalidation for the block cache; no-op with caching disabled
    /// (uncached reads are always coherent).
    pub fn validate(&mut self, p: &mut Process) {
        match self {
            AnyWindow::Clampi(w) => w.validate(p),
            AnyWindow::Native(w) => w.invalidate(),
        }
    }

    /// Explicit cache invalidation (no-op with caching disabled).
    pub fn invalidate(&mut self, p: &mut Process) {
        match self {
            AnyWindow::Clampi(w) => w.invalidate(p),
            AnyWindow::Native(w) => w.invalidate(),
        }
    }

    /// CLaMPI statistics, if this is a CLaMPI window ([`CachedWindow::stats`]:
    /// no cache counters for foMPI, whose window has caching disabled).
    pub fn clampi_stats(&self) -> Option<CacheStats> {
        match self {
            AnyWindow::Clampi(w) => Some(w.stats()),
            _ => None,
        }
    }

    /// Block-cache statistics, if this is a native window.
    pub fn native_stats(&self) -> Option<BlockCacheStats> {
        match self {
            AnyWindow::Native(w) => Some(w.stats()),
            _ => None,
        }
    }

    /// The CLaMPI adaptive resize history, if applicable.
    pub fn clampi_resize_log(&self) -> Vec<clampi::ResizeEvent> {
        match self {
            AnyWindow::Clampi(w) => w
                .cache()
                .map(|c| c.resize_log().to_vec())
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Current CLaMPI parameters `(|I_w|, |S_w|)` (for adaptive-convergence
    /// reporting), if applicable.
    pub fn clampi_params(&self) -> Option<(usize, usize)> {
        match self {
            AnyWindow::Clampi(w) => w
                .cache()
                .map(|c| (c.params().index_entries, c.params().storage_bytes)),
            _ => None,
        }
    }
}
