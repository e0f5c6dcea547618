//! CLaMPI — a Caching Layer for MPI-3 RMA `get` operations.
//!
//! Reproduction of *Transparent Caching for RMA Systems* (Di Girolamo,
//! Vella, Hoefler — IPDPS 2017). CLaMPI caches the payloads of remote
//! `get` operations in local memory so that repeated accesses to the same
//! remote data — typical of irregular applications such as graph
//! processing and N-body simulations — are served at local-copy speed
//! instead of network latency.
//!
//! The design follows the paper:
//!
//! - **Gets only** (Sec. II): MPI's epoch model forbids conflicting
//!   put/get in one epoch, so write caching cannot avoid network traffic;
//! - **Variable-size cache entries** (Sec. III-C2) stored contiguously in
//!   one buffer `S_w`, allocated best-fit from an index of free regions,
//!   avoiding the internal fragmentation of block-based designs;
//! - **Cuckoo-hash index** `I_w` (Sec. III-C1) with `p = 4` universal hash
//!   functions and constant-time lookups; insertion failures are treated as
//!   *conflicting* accesses that evict along the insertion path;
//! - **Weak caching** (Sec. III-D2): inserts may *fail* rather than evict
//!   an unbounded number of entries, so a `get_c` is never slower than the
//!   uncached get by more than a small constant;
//! - **Fragmentation-aware eviction** (Sec. III-D1): victims minimize
//!   `R = R_P · R_T`, the product of a positional (adjacent-free-space)
//!   and a temporal (LRU-like) score, over a sample of `M` index slots;
//!   [`VictimScheme`] selects `R`, `R_T` or `R_P` — the paper's three,
//!   and the only ones (exact LRU is `R_T` at `M = |I_w|`);
//! - **Epoch consistency** (Sec. II): entries requested in the current
//!   epoch are `PENDING` and their cache fills happen at the epoch
//!   closure; the *transparent* mode invalidates at every epoch closure,
//!   *always-cache* never, *user-defined* on explicit
//!   [`CachedWindow::invalidate`];
//! - **Online adaptation** (Sec. III-E): the *adaptive* strategy resizes
//!   `|I_w|`/`|S_w|` from runtime statistics, invalidating on each
//!   adjustment.
//!
//! # Quickstart
//!
//! ```
//! use clampi::{CachedWindow, ClampiConfig, Mode, CacheParams};
//! use clampi_datatype::Datatype;
//! use clampi_rma::{run, SimConfig};
//!
//! let reports = run(SimConfig::default(), 2, |p| {
//!     let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
//!     let mut win = CachedWindow::create(p, 1 << 20, cfg);
//!     if p.rank() == 1 {
//!         win.local_mut()[..4].copy_from_slice(&[1, 2, 3, 4]);
//!     }
//!     p.barrier();
//!     if p.rank() == 0 {
//!         win.lock_all(p);
//!         let mut buf = [0u8; 4];
//!         win.get(p, &mut buf, 1, 0, &Datatype::bytes(4), 1); // miss
//!         win.flush(p, 1);
//!         win.get(p, &mut buf, 1, 0, &Datatype::bytes(4), 1); // hit!
//!         win.flush(p, 1);
//!         assert_eq!(buf, [1, 2, 3, 4]);
//!         assert_eq!(win.stats().hits, 1);
//!         win.unlock_all(p);
//!     }
//!     p.barrier();
//! });
//! assert_eq!(reports.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod blockcache;
pub mod cache;
pub mod coherence;
pub mod costs;
pub mod eviction;
pub mod index;
pub mod recovery;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod trace;
pub mod vcache;
pub mod window;

pub use adaptive::{AdaptiveController, AdaptiveParams, AdjustRule, Adjustment};
pub use blockcache::{BlockCacheConfig, BlockCacheStats, BlockCachedWindow};
pub use cache::{CacheParams, EntryState, LayoutSig, Lookup, ParamsError, ResizeEvent, RmaCache};
pub use coherence::CoherenceMode;
pub use costs::CacheCostModel;
pub use eviction::{VictimScheme, POLICY_COUNT};
pub use index::{CuckooIndex, EntryId, GetKey};
pub use recovery::RetryPolicy;
pub use shard::ShardedCache;
pub use snapshot::{SnapReq, SnapStamp, SnapshotCtx, SnapshotError, SnapshotInfo};
pub use stats::{AccessType, CacheStats};
pub use trace::{replay, ReplayResult, Trace, TraceEvent};
pub use vcache::{PolicyLab, ShadowCache};
pub use window::{CachedWindow, ClampiConfig, Mode};
