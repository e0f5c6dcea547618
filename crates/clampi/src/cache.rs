//! The caching engine `C_w = (I_w, S_w)`: the paper's core state machine.
//!
//! [`RmaCache`] ties together the Cuckoo index, the contiguous storage, the
//! victim-selection scores and the statistics. It is a *pure* state
//! machine: it never talks to the network. The window wrapper
//! ([`crate::CachedWindow`]) drives it in three steps per `get_c`:
//!
//! 1. [`RmaCache::process_lookup`] — classify the request against the
//!    index; on a (full) hit the data is copied into the destination
//!    buffer and the wrapper is done.
//! 2. On a miss / partial hit the wrapper issues the remote get, then calls
//!    [`RmaCache::finish_miss`] / [`RmaCache::finish_partial`] to try to
//!    cache the fetched data (direct / conflicting / capacity / failed).
//!    The install is also the one place an entry's [`SnapStamp`] is set:
//!    the window hands over the fetch's exact stamp, the public
//!    four-argument forms build an inexact one from their `version`.
//! 3. At every epoch closure the wrapper calls [`RmaCache::epoch_close`],
//!    which promotes `PENDING` entries to `CACHED` — the moment the paper
//!    performs the deferred cache-fill copies.
//!
//! **Timing.** The simulator moves bytes eagerly (data is always available
//! in wall-clock terms), but every management action accumulates model CPU
//! time which the wrapper drains via [`RmaCache::take_cost`] and charges to
//! the rank's virtual clock. Copies that the paper performs at epoch
//! closure (cache fills, pending-hit deliveries) are accumulated separately
//! and only charged when `epoch_close` runs — this is what gives *failing*
//! accesses their better comm/comp overlap in Fig. 8.

use std::collections::BTreeMap;
use std::sync::Arc;

use clampi_datatype::FlatLayout;
use clampi_prng::SmallRng;

use crate::adaptive::{AdaptiveController, AdjustRule, Adjustment};
use crate::costs::CacheCostModel;
use crate::eviction::{positional_score, score, temporal_score, VictimScheme};
use crate::index::{CuckooIndex, EntryId, GetKey, InsertOutcome};
use crate::snapshot::SnapStamp;
use crate::stats::{AccessType, CacheStats};
use crate::storage::{DescId, Storage};
use crate::vcache::PolicyLab;

/// The shape of a get's payload, compared for full/partial-hit decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutSig {
    /// A single contiguous block of this many bytes at the displacement.
    Contig(usize),
    /// A non-contiguous flattened layout (offsets relative to the
    /// displacement).
    Blocks(Arc<FlatLayout>),
}

impl LayoutSig {
    /// Builds the signature for a flattened layout.
    pub fn from_layout(layout: &FlatLayout) -> Self {
        if layout.is_dense() {
            LayoutSig::Contig(layout.total_size())
        } else {
            layout.clone().into()
        }
    }

    /// Payload size in bytes.
    pub fn size(&self) -> usize {
        match self {
            LayoutSig::Contig(s) => *s,
            LayoutSig::Blocks(l) => l.total_size(),
        }
    }

    /// The flattened layout of a non-contiguous signature (`None`: one
    /// contiguous block of [`LayoutSig::size`] bytes).
    pub(crate) fn blocks(&self) -> Option<&FlatLayout> {
        match self {
            LayoutSig::Contig(_) => None,
            LayoutSig::Blocks(l) => Some(l),
        }
    }
}

/// [`LayoutSig::from_layout`] for a layout the caller gives up: shared, not
/// copied.
impl From<FlatLayout> for LayoutSig {
    fn from(layout: FlatLayout) -> Self {
        if layout.is_dense() {
            LayoutSig::Contig(layout.total_size())
        } else {
            LayoutSig::Blocks(Arc::new(layout))
        }
    }
}

/// Cache entry states (Fig. 5). `MISSING` is represented by absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Requested in the current epoch; data arrives (conceptually) at the
    /// epoch closure.
    Pending,
    /// Data resident in `S_w` and servable.
    Cached,
}

/// One resident entry: one 64-byte, line-aligned element of the slab, so a
/// hit, a put-update and a refresh each touch one line of metadata, and a
/// victim's score (`last`, `adj`) is read off that line too. Its key is its
/// index slot's (and extent directory's); its size, its layout's; its
/// payload offset is copied into [`RmaCache::offs`].
#[derive(Debug)]
#[repr(align(64))]
struct Entry {
    sig: LayoutSig,
    state: EntryState,
    desc: DescId,
    /// The paper's `d_c`: free bytes adjacent to the entry's region, kept
    /// equal to `storage.adjacent_free(desc)` by applying
    /// [`Storage::adj_deltas`] after every allocation and free
    /// (`check_invariants` pins the two together).
    adj: u32,
    last: u64,
    /// What the entry knows about the age of its bytes, set where it is
    /// installed: the fetch's exact stamp when the window read the bytes
    /// under the region read lock, else an inexact one at the caller's
    /// version (which forces `multi_get` to refetch). The coherence layer
    /// compares `stamp.version` against put-notification records to drop
    /// stale data.
    stamp: SnapStamp,
}

const _: () = assert!(size_of::<Option<Entry>>() <= 64 && align_of::<Option<Entry>>() == 64);

impl Entry {
    /// Whether the entry's bytes `[disp, disp + size)` overlap `[lo, hi)`
    /// (`hi == u64::MAX`: no upper bound, a full-target drop).
    fn overlaps(&self, disp: u64, lo: u64, hi: u64) -> bool {
        let e_lo = disp;
        let e_hi = e_lo.saturating_add(self.sig.size() as u64);
        (e_lo < hi || hi == u64::MAX) && lo < e_hi
    }

    /// How much of a get shaped `want` this entry can serve: `(full,
    /// cached_len)`, where a partial hit serves the first `cached_len`
    /// bytes (0 when the cached layout is incompatible).
    fn servable(&self, want: &LayoutSig) -> (bool, usize) {
        match (&self.sig, want) {
            (LayoutSig::Contig(have), LayoutSig::Contig(want)) => {
                if want <= have {
                    (true, *want)
                } else if self.state == EntryState::Cached {
                    (false, *have)
                } else {
                    // Partial hit on a PENDING entry: nothing servable
                    // yet (its fill is deferred to the epoch close).
                    (false, 0)
                }
            }
            // `Arc<T: Eq>` compares pointers first, so a signature that
            // shares the entry's layout (the window's memo) matches in O(1).
            (LayoutSig::Blocks(have), LayoutSig::Blocks(want)) if have == want => {
                (true, want.total_size())
            }
            _ => (false, 0),
        }
    }
}

/// Victim test of a plain ranged invalidation: the entry overlaps the
/// probe's bytes.
fn overlaps_probe(e: &Entry, disp: u64, lo: u64, hi: u64, _version: u64) -> bool {
    e.overlaps(disp, lo, hi)
}

/// Victim test of a drained put record: the entry overlaps the written
/// bytes and was filled before the write.
fn stale_under_probe(e: &Entry, disp: u64, lo: u64, hi: u64, version: u64) -> bool {
    e.overlaps(disp, lo, hi) && e.stamp.version < version
}

/// A stale CACHED entry an invalidation with `keep` left resident
/// ([`RmaCache::invalidate_drained`]), for the window to fetch again and
/// [`RmaCache::refresh`] in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Kept {
    pub(crate) key: GetKey,
    pub(crate) id: EntryId,
}

const NO_DESC: DescId = DescId::MAX;

/// A target's resident-entry count and its *grid*: `stride`, the gcd of
/// the displacements installed, and `max`, the largest size. The grid
/// holds when no entry is longer than the stride: then a byte range can
/// overlap only the entries keyed at the multiples of `stride` that its
/// seek window spans. Kept, like the extent directory, only once that is
/// built; it only ever weakens, and resets when the engine empties.
#[derive(Debug, Clone, Copy, Default)]
struct TargetRec {
    target: u32,
    count: u32,
    max: u32,
    stride: u64,
}

impl TargetRec {
    /// The grid's stride, if it holds (a zero stride, every entry at 0,
    /// does not count).
    fn grid(&self) -> Option<u64> {
        (self.stride > 0 && u64::from(self.max) <= self.stride).then_some(self.stride)
    }

    fn widen(&mut self, disp: u64, size: usize) {
        let (mut a, mut b) = (self.stride, disp);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        // `|S_w| <= MAX_STORAGE_BYTES`: sizes fit 32 bits.
        (self.stride, self.max) = (a, self.max.max(size as u32));
    }
}

/// The ordered extent directory: every resident entry keyed
/// by `(target, disp)`, plus the largest entry size seen since it was
/// built. An entry overlapping bytes `[lo, hi)` of a target starts in
/// `(lo - max_size, hi)`, so a ranged invalidation seeks there and
/// examines only the entries that can overlap instead of scanning `|I_w|`
/// index slots. `max_size` only grows (a stale high-water mark widens the
/// seek window, never narrows it) and resets when the engine is emptied.
#[derive(Debug, Default)]
struct ExtentDir {
    by_start: BTreeMap<(u32, u64), EntryId>,
    max_size: usize,
}

impl ExtentDir {
    fn insert(&mut self, key: GetKey, size: usize, id: EntryId) {
        let prev = self.by_start.insert((key.target, key.disp), id);
        debug_assert!(prev.is_none(), "duplicate extent {key:?}");
        self.max_size = self.max_size.max(size);
    }

    fn remove(&mut self, key: GetKey, id: EntryId) {
        let prev = self.by_start.remove(&(key.target, key.disp));
        debug_assert_eq!(prev, Some(id), "extent directory out of sync at {key:?}");
    }

    /// The entries of `target` that can overlap bytes `[lo, hi)`, in
    /// ascending displacement order. `hi == u64::MAX` is "every key from
    /// the seek point on" and is never used in arithmetic. `grid` is
    /// `(stride, depth)` for a target on its grid: a seek window of at most
    /// `depth` grid points is probed point by point in `index` instead.
    fn candidates<'a>(
        &'a self,
        index: &'a CuckooIndex,
        target: u32,
        lo: u64,
        hi: u64,
        grid: Option<(u64, u64)>,
    ) -> impl Iterator<Item = (GetKey, EntryId)> + 'a {
        let start = lo.saturating_sub(self.max_size.saturating_sub(1) as u64);
        let points = grid.filter(|_| hi != u64::MAX).and_then(|(s, depth)| {
            let first = start.div_ceil(s).checked_mul(s)?;
            let n = hi.saturating_sub(first).div_ceil(s);
            (n <= depth).then_some((first, s, n))
        });
        let probed = points.map(move |(first, s, n)| {
            (0..n).filter_map(move |i| {
                let disp = first + i * s;
                index
                    .lookup(&GetKey { target, disp })
                    .map(|id| (GetKey { target, disp }, id))
            })
        });
        // One descent to the seek point, then a walk that stops at the
        // first key of another target or at or past `hi`. An inverted or
        // empty byte range may still reach back into an entry that spans
        // it, but never past its own upper end.
        let walked = points.is_none().then(|| {
            self.by_start
                .range((target, start)..)
                .take_while(move |&(&(t, disp), _)| t == target && (disp < hi || hi == u64::MAX))
                .map(|(&(target, disp), &id)| (GetKey { target, disp }, id))
        });
        Iterator::chain(probed.into_iter().flatten(), walked.into_iter().flatten())
    }
}

/// Result of the lookup phase of a `get_c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Full hit: the destination buffer has been filled from the cache.
    Hit,
    /// The key matched but only the first `cached_len` bytes could be
    /// served (0 when the cached layout is incompatible); the wrapper must
    /// fetch the remainder and call [`RmaCache::finish_partial`].
    PartialHit {
        /// Bytes already copied into the head of the destination buffer.
        cached_len: usize,
    },
    /// No entry: the wrapper must fetch everything and call
    /// [`RmaCache::finish_miss`].
    Miss,
}

/// Tunable parameters of one caching layer.
#[derive(Debug, Clone)]
pub struct CacheParams {
    /// Number of index slots `|I_w|`.
    pub index_entries: usize,
    /// Storage bytes `|S_w|`.
    pub storage_bytes: usize,
    /// Victim-selection scheme (Sec. III-D1); `Full` in the paper's
    /// default. This field is the one place the *live* scheme is stored:
    /// every eviction reads it, and a switch
    /// ([`RmaCache::set_victim_scheme`]) is an assignment to it.
    pub victim_scheme: VictimScheme,
    /// Victim sample size `M` (16 in the paper's experiments).
    pub sample_size: usize,
    /// Cuckoo insertion iteration threshold, capped at `32 · bits(|I_w|)`
    /// ([`CuckooIndex::new`]). `0` caches nothing: every insert comes back
    /// `Full` with an empty path, and its miss is `Failed`.
    pub max_insert_iters: usize,
    /// Maximum storage evictions attempted per miss. The paper's *weak
    /// caching* uses 1 — a constant — so that a `get_c` can never be
    /// slowed down proportionally to the number of cached entries
    /// (Sec. III-D2). Larger values trade bounded overhead for a higher
    /// insert success rate; the `abl_weak_caching` bench ablates this.
    /// `0` acts as 1.
    pub max_evictions_per_miss: usize,
    /// CPU cost model for management activities.
    pub costs: CacheCostModel,
    /// RNG seed (hash functions, insertion walk, victim sampling).
    pub seed: u64,
    /// Upper bound, in bytes, on the merged extent of a coalesced
    /// nonblocking miss transfer ([`crate::CachedWindow::get_nb`]):
    /// adjacent/overlapping misses to the same target merge into one wire
    /// transfer only while the merged range stays within this bound.
    /// `0` disables coalescing entirely.
    pub max_coalesce_bytes: usize,
    /// How cached reads stay coherent with concurrent remote `put`s
    /// (see [`crate::coherence::CoherenceMode`]). `None` by default —
    /// bit-identical to the pre-coherence behaviour.
    pub coherence: crate::coherence::CoherenceMode,
    /// Number of stripes of the concurrent front. Read by
    /// [`crate::ShardedCache::new`] only, which divides `index_entries`
    /// and `storage_bytes` evenly across that many engines; [`RmaCache`]
    /// is one `C_w` and ignores it.
    pub shards: usize,
    /// Run the policy lab ([`crate::vcache::PolicyLab`]): one tag-only
    /// shadow cache per candidate [`VictimScheme`], replaying every get
    /// and accumulating per-policy shadow hit ratios in
    /// [`CacheStats`]. Observation-only — no virtual-clock cost, no
    /// effect on the live cache — so lab-on runs are bit-identical to
    /// lab-off runs unless a controller acts on the shadow ratios, which
    /// an adaptive window's does: the lab being on is what enables
    /// [`crate::AdjustRule::SwitchPolicy`].
    /// The concurrent front builds its engines with the lab off: its
    /// read-locked gets cannot update shadows.
    pub policy_lab: bool,
}

/// Largest `|I_w|`: Cuckoo hash values are 32 bits wide.
pub const MAX_INDEX_ENTRIES: usize = u32::MAX as usize;
/// Largest `|S_w|`: an entry keeps its region offset in 32 bits.
pub const MAX_STORAGE_BYTES: usize = u32::MAX as usize;

/// The [`CacheParams`] field past its bound ([`CacheParams::validate`]):
/// its name, value and bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamsError(pub &'static str, pub usize, pub usize);

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ParamsError(field, value, max) = self;
        write!(f, "CacheParams::{field} = {value} exceeds {max}")
    }
}

impl std::error::Error for ParamsError {}

impl CacheParams {
    /// The bounds [`RmaCache::new`] asserts, as an error naming the first
    /// field past its bound.
    pub fn validate(&self) -> Result<(), ParamsError> {
        let index = ParamsError("index_entries", self.index_entries, MAX_INDEX_ENTRIES);
        let storage = ParamsError("storage_bytes", self.storage_bytes, MAX_STORAGE_BYTES);
        let past = [index, storage].into_iter().find(|e| e.1 > e.2);
        past.map_or(Ok(()), Err)
    }
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            index_entries: 4096,
            storage_bytes: 4 << 20,
            victim_scheme: VictimScheme::Full,
            sample_size: 16,
            max_insert_iters: 32,
            max_evictions_per_miss: 1,
            costs: CacheCostModel::default(),
            seed: 0xC1A3,
            max_coalesce_bytes: 16 << 10,
            coherence: crate::coherence::CoherenceMode::None,
            shards: 1,
            policy_lab: false,
        }
    }
}

/// The caching layer state machine for one window.
///
/// # Examples
///
/// Driving the engine directly (without a simulator window) — one miss,
/// one epoch close, one hit:
///
/// ```
/// use clampi::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
/// use clampi::index::GetKey;
///
/// let mut cache = RmaCache::new(CacheParams::default());
/// let key = GetKey { target: 3, disp: 4096 };
/// let sig = LayoutSig::Contig(64);
/// let payload = [7u8; 64];
///
/// let mut dst = [0u8; 64];
/// assert_eq!(cache.process_lookup(key, &sig, &mut dst), Lookup::Miss);
/// cache.finish_miss(key, sig.clone(), &payload, 0); // caller fetched `payload`
/// cache.epoch_close();                           // PENDING -> CACHED
///
/// assert_eq!(cache.process_lookup(key, &sig, &mut dst), Lookup::Hit);
/// assert_eq!(dst, payload);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct RmaCache {
    params: CacheParams,
    index: CuckooIndex,
    storage: Storage,
    entries: Vec<Option<Entry>>,
    /// Byte offset of each entry's storage region, by slab id: a copy of
    /// `storage.offset(desc)` (the source; `check_invariants` pins the
    /// two together), set wherever the entry's `desc` is and read by
    /// every payload copy, so a hit finds its bytes from the slot alone
    /// and loads its entry line alongside them. 32 bits, as `|S_w|` is
    /// capped at [`MAX_STORAGE_BYTES`].
    offs: Vec<u32>,
    spare: Vec<EntryId>,
    cached_count: usize,
    pending: Vec<EntryId>,
    /// Victim-sampling RNG.
    rng: SmallRng,
    /// The ordered extent directory, `None` until the first ranged or
    /// stale invalidation builds it (engines that never invalidate by
    /// range pay neither its upkeep nor its memory). Once built it is
    /// kept in step where entries are born and die (`alloc_entry`,
    /// `drop_entry`; the size mark also where `finish_partial` extends).
    extents: Option<ExtentDir>,
    /// What invalidations with `keep` left resident since the window last
    /// took the log (reused: [`RmaCache::take_kept`],
    /// [`RmaCache::recycle_kept`]).
    kept: Vec<Kept>,
    /// An invalidation's `(slot, id)` victims (reused scratch).
    victims: Vec<(usize, EntryId)>,
    stats: CacheStats,
    /// The get sequence counter (index into the paper's `C_w.G`).
    seq: u64,
    /// The running average get size `C_w.ags`.
    ags: f64,
    /// Management CPU time not yet drained by [`RmaCache::take_cost`].
    uncharged_ns: f64,
    /// Copy time the paper pays at the epoch closure; `epoch_close` moves
    /// it into `uncharged_ns`.
    deferred_ns: f64,
    /// One record per target ever cached since the engine was last
    /// emptied, sorted by target: coherence passes skip targets with
    /// nothing cached in O(log targets), and a hostile target id (a
    /// trace's) costs one record, not an array that long.
    targets: Vec<TargetRec>,
    /// The policy lab's shadow caches ([`CacheParams::policy_lab`]);
    /// `None` when the lab is off (the default).
    lab: Option<PolicyLab>,
    rebuilds: u64,
    resize_log: Vec<ResizeEvent>,
}

/// One adaptive resize, recorded for figure annotations and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeEvent {
    /// Get sequence number at which the resize happened.
    pub at_seq: u64,
    /// New `|I_w|`.
    pub index_entries: usize,
    /// New `|S_w|`.
    pub storage_bytes: usize,
}

/// One resident entry as [`RmaCache::residents`] reports it.
#[doc(hidden)]
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resident {
    /// Its index slot.
    pub slot: usize,
    /// Its slab id. Ids are recycled last-dropped-first, so two engines
    /// agree on them only if they dropped their entries in the same order.
    pub id: EntryId,
    /// The get that created it.
    pub key: GetKey,
    /// Cached bytes from `key.disp` on.
    pub size: usize,
    /// Target write version observed when it was filled.
    pub version: u64,
    /// Byte offset of its storage region.
    pub off: usize,
    /// Its last access (a get sequence number).
    pub last: u64,
    /// PENDING or CACHED.
    pub state: EntryState,
}

fn new_lab(params: &CacheParams) -> Option<PolicyLab> {
    params.policy_lab.then(|| {
        PolicyLab::new(
            params.index_entries,
            params.storage_bytes,
            params.sample_size,
            params.seed,
        )
    })
}

impl RmaCache {
    /// A fresh cache with the given parameters ([`CacheParams::shards`] is
    /// not one of them: the engine is one `C_w`). Panics where
    /// [`CacheParams::validate`] fails ([`RmaCache::try_new`] does not).
    pub fn new(params: CacheParams) -> Self {
        let seed = params.seed;
        Self::with_seeds(params, seed, seed ^ 0x5EED)
    }

    /// [`RmaCache::new`], or the [`CacheParams::validate`] error, before
    /// anything is allocated.
    pub fn try_new(params: CacheParams) -> Result<Self, ParamsError> {
        params.validate()?;
        Ok(Self::new(params))
    }

    /// A fresh engine whose Cuckoo hashers and victim sampler are seeded
    /// explicitly (`params.seed` is not consulted until a resize): the
    /// concurrent front gives each stripe its own streams.
    pub(crate) fn with_seeds(params: CacheParams, index_seed: u64, sampler_seed: u64) -> Self {
        RmaCache {
            index: CuckooIndex::new(
                params.index_entries.max(1),
                params.max_insert_iters,
                index_seed,
            ),
            storage: Storage::new(params.storage_bytes),
            entries: Vec::new(),
            offs: Vec::new(),
            spare: Vec::new(),
            cached_count: 0,
            pending: Vec::new(),
            rng: SmallRng::seed_from_u64(sampler_seed),
            extents: None,
            kept: Vec::new(),
            victims: Vec::new(),
            stats: CacheStats::default(),
            seq: 0,
            ags: 0.0,
            uncharged_ns: 0.0,
            deferred_ns: 0.0,
            targets: Vec::new(),
            lab: new_lab(&params),
            rebuilds: 0,
            resize_log: Vec::new(),
            params,
        }
    }

    /// The live eviction policy.
    pub fn victim_scheme(&self) -> VictimScheme {
        self.params.victim_scheme
    }

    /// Switches the live eviction policy without dropping residents: no
    /// scheme owns private state, so the switch is an assignment to
    /// [`CacheParams::victim_scheme`] and the next eviction scores with
    /// the new rule. Returns `true` if the policy actually changed; no-op
    /// switches cost nothing and are not counted.
    pub fn set_victim_scheme(&mut self, new: VictimScheme) -> bool {
        let changed = new != self.params.victim_scheme;
        if changed {
            self.params.victim_scheme = new;
            self.stats.policy_switches += 1;
            self.stats.adjustments += 1;
            self.charge(self.params.costs.epoch_hook_ns);
        }
        changed
    }

    /// Current parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The get sequence counter (index into the paper's `C_w.G`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Occupied fraction of the storage buffer (Fig. 10's y-axis).
    pub fn occupancy(&self) -> f64 {
        self.storage.occupancy()
    }

    /// Free bytes in the storage buffer.
    pub fn free_bytes(&self) -> usize {
        self.storage.free_bytes()
    }

    /// Number of resident (pending + cached) entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of entries in the CACHED state.
    pub fn cached_entries(&self) -> usize {
        self.cached_count
    }

    /// Drains the accumulated management CPU time (nanoseconds) so the
    /// wrapper can charge it to the rank's virtual clock.
    pub fn take_cost(&mut self) -> f64 {
        std::mem::take(&mut self.uncharged_ns)
    }

    fn charge(&mut self, ns: f64) {
        self.uncharged_ns += ns;
    }

    fn defer(&mut self, ns: f64) {
        self.deferred_ns += ns;
    }

    /// Whether any resident (pending or cached) entry is keyed to
    /// `target`. O(log targets): lets a coherence pass skip targets with
    /// nothing cached without scanning the index.
    pub fn has_entries_for(&self, target: u32) -> bool {
        self.target(target).is_some_and(|r| r.count > 0)
    }

    fn target(&self, target: u32) -> Option<&TargetRec> {
        let i = self.targets.binary_search_by_key(&target, |r| r.target);
        i.ok().map(|i| &self.targets[i])
    }

    /// `target`'s record, inserted empty if new.
    #[inline]
    fn target_mut(&mut self, target: u32) -> &mut TargetRec {
        let i = match self.targets.binary_search_by_key(&target, |r| r.target) {
            Ok(i) => i,
            Err(i) => {
                self.targets.insert(i, TargetRec::default());
                self.targets[i].target = target;
                i
            }
        };
        &mut self.targets[i]
    }

    fn entry(&self, id: EntryId) -> &Entry {
        // xlint: allow(no-unwrap) invariant: ids are only handed out for live slots
        self.entries[id as usize].as_ref().expect("stale entry id")
    }

    fn entry_mut(&mut self, id: EntryId) -> &mut Entry {
        // xlint: allow(no-unwrap) invariant: ids are only handed out for live slots
        self.entries[id as usize].as_mut().expect("stale entry id")
    }

    /// Byte offset of entry `id`'s storage region.
    fn off(&self, id: EntryId) -> usize {
        self.offs[id as usize] as usize
    }

    fn alloc_entry(&mut self, key: GetKey, e: Entry) -> EntryId {
        self.target_mut(key.target).count += 1;
        let size = e.sig.size();
        let id = if let Some(id) = self.spare.pop() {
            self.entries[id as usize] = Some(e);
            id
        } else {
            self.entries.push(Some(e));
            self.offs.push(0);
            (self.entries.len() - 1) as EntryId
        };
        if let Some(dir) = self.extents.as_mut() {
            dir.insert(key, size, id);
            self.target_mut(key.target).widen(key.disp, size);
        }
        id
    }

    fn drop_entry(&mut self, key: GetKey, id: EntryId) {
        // xlint: allow(no-unwrap) invariant: callers drop an id at most once
        let e = self.entries[id as usize].take().expect("double entry drop");
        if let Some(dir) = self.extents.as_mut() {
            dir.remove(key, id);
        }
        self.target_mut(key.target).count -= 1;
        match e.state {
            EntryState::Cached => self.cached_count -= 1,
            // A PENDING entry can be dropped by an invalidation (never by
            // an eviction); forget its scheduled promotion.
            EntryState::Pending => self.pending.retain(|&p| p != id),
        }
        self.spare.push(id);
    }

    /// Phase 1 of a `get_c`: classify against the index, serving full hits
    /// (and the head of contiguous partial hits) into `dst`.
    ///
    /// `dst.len()` must equal `sig.size()`.
    pub fn process_lookup(&mut self, key: GetKey, sig: &LayoutSig, dst: &mut [u8]) -> Lookup {
        let size = sig.size();
        debug_assert_eq!(dst.len(), size);
        let seq = self.count_get(key, size);

        let Some(id) = self.index.lookup(&key) else {
            return Lookup::Miss;
        };
        // The payload's address comes from the slot's id, not from the
        // entry line, so the two loads overlap.
        let off = self.off(id);
        let e = self.entry(id);
        let state = e.state;
        let (full, cached_len) = e.servable(sig);
        let cached = self
            .storage
            .bytes_at(off, cached_len)
            .expect("region inside the buffer"); // xlint: allow(no-unwrap) invariant: `offs` is set wherever `desc` is

        if full {
            dst.copy_from_slice(cached);
            self.entry_mut(id).last = seq;
            let copy = self.params.costs.memcpy_cost(size);
            match state {
                // CACHED: the copy happens right now.
                EntryState::Cached => self.charge(copy),
                // PENDING: the paper copies at the epoch closure.
                EntryState::Pending => self.defer(copy),
            }
            self.stats.record(AccessType::Hit);
            self.stats.bytes_from_cache += size as u64;
            Lookup::Hit
        } else {
            if cached_len > 0 {
                dst[..cached_len].copy_from_slice(cached);
                self.charge(self.params.costs.memcpy_cost(cached_len));
                self.stats.bytes_from_cache += cached_len as u64;
            }
            self.entry_mut(id).last = seq;
            self.stats.partial_hits += 1;
            Lookup::PartialHit { cached_len }
        }
    }

    /// What every processed get pays before its classification: the next
    /// `seq` (returned), the running mean size `ags`, the lookup charge
    /// and the policy lab's replay.
    fn count_get(&mut self, key: GetKey, size: usize) -> u64 {
        self.seq += 1;
        let seq = self.seq;
        // Cumulative mean of processed get sizes (the paper's ags).
        self.ags += (size as f64 - self.ags) / seq as f64;
        self.charge(self.params.costs.lookup_ns);
        // Policy lab: replay this get through the shadow caches.
        // Observation-only — shadow counters move, nothing else does, and
        // no virtual-clock cost is charged (overhead is priced separately
        // from `shadow_slot_visits` by the benches).
        if let Some(lab) = self.lab.as_mut() {
            lab.observe(key.stripe(), size, seq, &mut self.stats);
        }
        seq
    }

    /// Books a get of `size` bytes larger than `|S_w|`, which no install
    /// can ever cache, without its bytes: a processed get (`seq`, `ags`,
    /// the lookup charge) classified `Failed`, all `size` bytes from the
    /// network. Unlike [`RmaCache::process_lookup`] +
    /// [`RmaCache::finish_miss`] it serves no cached head, inserts nothing
    /// and evicts nothing for space.
    pub(crate) fn record_uncacheable(&mut self, key: GetKey, size: usize) {
        debug_assert!(size > self.params.storage_bytes);
        self.count_get(key, size);
        self.stats.bytes_from_network += size as u64;
        self.stats.record(AccessType::Failed);
    }

    /// Read-only probe of the stamp of the resident entry for `key`
    /// (`None` when nothing is resident). Free in virtual time, like the
    /// index peek it is.
    pub fn snap_stamp(&self, key: &GetKey) -> Option<SnapStamp> {
        self.index.lookup(key).map(|id| self.entry(id).stamp)
    }

    /// Phase 2 after a [`Lookup::Miss`]: `data` is the fetched payload;
    /// attempt to cache it. Returns the access classification.
    ///
    /// `version` is a target-region write version no newer than the
    /// payload bytes (pass 0 when versions are not tracked); the entry is
    /// stamped inexact at it, which the coherence layer uses to decide
    /// staleness later and the snapshot layer refetches. So stamp-blind
    /// callers (traces, the concurrent front's insert) stay correct.
    pub fn finish_miss(
        &mut self,
        key: GetKey,
        sig: LayoutSig,
        data: &[u8],
        version: u64,
    ) -> AccessType {
        self.install_miss(key, sig, data, SnapStamp::inexact(version))
    }

    /// [`RmaCache::finish_miss`] with the payload's stamp: the window
    /// passes the exact one its fetch sampled under the region read lock.
    pub(crate) fn install_miss(
        &mut self,
        key: GetKey,
        sig: LayoutSig,
        data: &[u8],
        stamp: SnapStamp,
    ) -> AccessType {
        self.stats.bytes_from_network += sig.size() as u64;
        let class = self.install(key, sig, data, stamp);
        self.stats.record(class);
        class
    }

    /// The layout of a kept entry, for the window to fetch it again.
    pub(crate) fn kept_sig(&self, k: Kept) -> LayoutSig {
        self.entry(k.id).sig.clone()
    }

    /// Refreshes a kept entry in place from bytes the window fetched again
    /// for it: they overwrite its storage region and `stamp` (the fetch's)
    /// becomes its stamp. Its slab id, index slot, region and `last` stay,
    /// so nothing is freed, allocated, inserted or evicted. It is PENDING
    /// until the next epoch hook, which pays the deferred copy, the only
    /// charge. Not a get: `seq`, `ags` and the statistics stay put.
    pub(crate) fn refresh(&mut self, k: Kept, data: &[u8], stamp: SnapStamp) {
        let e = self.entry_mut(k.id);
        debug_assert_eq!(e.state, EntryState::Cached);
        e.stamp = stamp;
        e.state = EntryState::Pending;
        let size = e.sig.size();
        self.storage.write_at(self.off(k.id), data);
        self.cached_count -= 1;
        self.pending.push(k.id);
        self.defer(self.params.costs.memcpy_cost(size));
    }

    /// Evicts a kept entry whose refetch failed.
    pub(crate) fn evict_kept(&mut self, k: Kept) {
        // xlint: allow(no-unwrap) invariant: a kept entry stays indexed until refreshed or evicted
        let (slot, _) = self.index.position(&k.key).expect("kept entry not indexed");
        self.evict_resident(slot, k.id);
    }

    /// Writes this rank's own put through to its cached copy: when a
    /// CACHED contiguous entry is keyed exactly at `key` and is no longer
    /// than the put's payload `data`, its bytes become the put's and its
    /// stamp the put's `stamp`, so the drain of the put's own record keeps
    /// it.
    ///
    /// Free when nothing of `key.target` is resident; otherwise one lookup
    /// charge, plus the copy when an entry qualifies. Not a get and not an
    /// access: `seq`, `ags`, `last`, the access classes and the policy lab
    /// stay put. Everything else (PENDING or strided entries, entries the
    /// put overlaps from another key or only partly covers) is left to the
    /// drain, which drops it.
    ///
    /// Returns whether the put is *settled*, left nothing stale: nothing of
    /// the target is resident, or its grid proves only an entry keyed at
    /// `key` can overlap the put and that one is absent or was just
    /// updated. Entries installed later carry
    /// stamps at or above the put's, so a drain can skip its record.
    pub(crate) fn update_on_put(&mut self, key: GetKey, data: &[u8], stamp: SnapStamp) -> bool {
        let Some(rec) = self.target(key.target).filter(|r| r.count > 0) else {
            return true;
        };
        let alone = rec
            .grid()
            .is_some_and(|s| key.disp.is_multiple_of(s) && data.len() as u64 <= s);
        self.charge(self.params.costs.lookup_ns);
        let Some(id) = self.index.lookup(&key) else {
            return alone;
        };
        let e = self.entry(id);
        let covered = matches!(e.sig, LayoutSig::Contig(size) if size <= data.len());
        if e.state != EntryState::Cached || !covered {
            return false;
        }
        let size = e.sig.size();
        self.storage.write_at(self.off(id), &data[..size]);
        self.entry_mut(id).stamp = stamp;
        self.charge(self.params.costs.memcpy_cost(size));
        self.stats.put_updates += 1;
        alone
    }

    /// The install behind [`RmaCache::install_miss`]: index insert
    /// (evicting on the path if it conflicts), storage allocation (evicting
    /// for space if needed), payload copy. The new entry is PENDING, last
    /// accessed by the current get. Returns the class; records nothing.
    fn install(
        &mut self,
        key: GetKey,
        sig: LayoutSig,
        data: &[u8],
        stamp: SnapStamp,
    ) -> AccessType {
        let size = sig.size();
        debug_assert_eq!(data.len(), size);
        let entry = Entry {
            sig,
            state: EntryState::Pending,
            desc: NO_DESC,
            adj: 0,
            last: self.seq,
            stamp,
        };
        let id = self.alloc_entry(key, entry);

        let Some(conflicted) = self.insert_with_path_eviction(key, id) else {
            self.drop_entry(key, id);
            return AccessType::Failed;
        };

        let (desc, evicted_for_space) = self.alloc_with_eviction(size, id, None);
        match desc {
            Some(d) => {
                self.set_region(id, d, data);
                self.pending.push(id);
                self.defer(self.params.costs.memcpy_cost(size));
                if conflicted {
                    AccessType::Conflicting
                } else if evicted_for_space {
                    AccessType::Capacity
                } else {
                    AccessType::Direct
                }
            }
            None => {
                // Weak caching: give up, the get itself already succeeded.
                self.index.remove(&key);
                self.drop_entry(key, id);
                AccessType::Failed
            }
        }
    }

    /// Phase 2 after a [`Lookup::PartialHit`]: `data` is the *full* payload
    /// (head served from cache, tail fetched by the wrapper). Attempts to
    /// extend (re-allocate) the existing entry; on failure the old, shorter
    /// entry stays valid (Sec. III-B: "extended only if `S_w` contains
    /// enough space").
    ///
    /// `version` is a write version no newer than the tail bytes, as in
    /// [`RmaCache::finish_miss`]. The extended entry's stamp is the
    /// [`SnapStamp::merge`] of its existing one and the tail's: the head
    /// bytes may predate the tail bytes, so the conservative choice is
    /// the older of the two.
    pub fn finish_partial(
        &mut self,
        key: GetKey,
        sig: LayoutSig,
        data: &[u8],
        version: u64,
    ) -> AccessType {
        self.install_partial(key, sig, data, SnapStamp::inexact(version))
    }

    /// [`RmaCache::finish_partial`] with the tail's stamp (see
    /// [`RmaCache::install_miss`]).
    pub(crate) fn install_partial(
        &mut self,
        key: GetKey,
        sig: LayoutSig,
        data: &[u8],
        stamp: SnapStamp,
    ) -> AccessType {
        let size = sig.size();
        debug_assert_eq!(data.len(), size);
        let Some(id) = self.index.lookup(&key) else {
            // The entry vanished (should not happen between phases).
            return self.install_miss(key, sig, data, stamp);
        };
        // The wrapper fetched everything beyond the prefix the lookup
        // served (which is zero for incompatible layouts); the entry has
        // not changed since.
        let (_, served) = self.entry(id).servable(&sig);
        self.stats.bytes_from_network += (size - served) as u64;

        if self.entry(id).state == EntryState::Pending {
            // Cannot touch a pending entry's storage; leave it as-is.
            self.stats.record(AccessType::Failed);
            return AccessType::Failed;
        }

        // Allocate the larger region first so failure leaves the old entry
        // intact; exclude the entry itself from victim selection.
        let (desc, evicted_for_space) = self.alloc_with_eviction(size, id, Some(id));
        let class = match desc {
            Some(d) => {
                let old = self.entry(id).desc;
                self.free_region(old);
                self.charge(self.params.costs.alloc_ns);
                self.set_region(id, d, data);
                let e = self.entry_mut(id);
                (e.sig, e.state) = (sig, EntryState::Pending);
                // Head bytes carry the old stamp, tail bytes the new.
                e.stamp = e.stamp.merge(stamp);
                if let Some(dir) = self.extents.as_mut() {
                    dir.max_size = dir.max_size.max(size);
                    self.target_mut(key.target).widen(key.disp, size);
                }
                self.cached_count -= 1;
                self.pending.push(id);
                self.defer(self.params.costs.memcpy_cost(size));
                if evicted_for_space {
                    AccessType::Capacity
                } else {
                    AccessType::Direct
                }
            }
            None => AccessType::Failed,
        };
        self.stats.record(class);
        class
    }

    /// Cuckoo insertion with the paper's conflicting-access handling: one
    /// walk, and when it finds no free slot, one eviction — the
    /// lowest-score CACHED pair the walk displaced, never the new entry or
    /// a PENDING one. Returns whether the insert conflicted, or `None` when
    /// no CACHED pair is on the path: the entry is not inserted and the
    /// index is untouched.
    fn insert_with_path_eviction(&mut self, key: GetKey, id: EntryId) -> Option<bool> {
        let steps = match self.index.insert(key, id) {
            InsertOutcome::Placed { steps } => {
                self.charge(self.params.costs.insert_step_ns * (steps + 1) as f64);
                return Some(false);
            }
            InsertOutcome::Full { steps } => steps,
        };
        self.charge(self.params.costs.insert_step_ns * steps as f64);
        let mut best: Option<(usize, EntryId, f64)> = None;
        for (j, _, eid) in self.index.last_path() {
            if self.entry(eid).state != EntryState::Cached {
                continue;
            }
            let s = self.entry_score(eid);
            if best.is_none_or(|(_, _, bs)| s < bs) {
                best = Some((j, eid, s));
            }
        }
        let (j, victim, _) = best?;
        let (gone, _) = self.index.evict_on_path(j);
        self.free_entry_storage(victim);
        self.drop_entry(gone, victim);
        Some(true)
    }

    /// Gives entry `id` the storage region `d` and copies `data` into it.
    fn set_region(&mut self, id: EntryId, d: DescId, data: &[u8]) {
        // `|S_w| <= MAX_STORAGE_BYTES`: offsets fit 32 bits.
        let off = self.storage.offset(d);
        self.storage.write_at(off, data);
        self.offs[id as usize] = off as u32;
        let adj = self.storage.adjacent_free(d) as u32;
        let e = self.entry_mut(id);
        (e.desc, e.adj) = (d, adj);
    }

    /// Applies the last allocation's or free's `d_c` changes to the
    /// entries they name.
    fn apply_adj_deltas(&mut self) {
        for i in 0..self.storage.adj_deltas().len() {
            let (id, delta) = self.storage.adj_deltas()[i];
            let e = self.entry_mut(id);
            e.adj = e.adj.wrapping_add(delta);
        }
    }

    /// Best-fit allocation for entry `id`; its neighbours' `d_c` follow
    /// (its own is set with the region, by `set_region`).
    fn alloc_region(&mut self, size: usize, id: EntryId) -> Option<DescId> {
        let d = self.storage.alloc(size, id)?;
        self.apply_adj_deltas();
        Some(d)
    }

    /// Frees a storage region; its neighbours' `d_c` follow.
    fn free_region(&mut self, desc: DescId) {
        self.storage.free(desc);
        self.apply_adj_deltas();
    }

    fn free_entry_storage(&mut self, id: EntryId) {
        let desc = self.entry(id).desc;
        if desc != NO_DESC {
            self.free_region(desc);
            self.charge(self.params.costs.alloc_ns);
        }
    }

    /// The live scheme's score of `id`, evaluating only the factor(s) it
    /// reads (`Temporal` skips `d_c`, `Positional` the division), all off
    /// the entry line.
    fn entry_score(&self, id: EntryId) -> f64 {
        let e = self.entry(id);
        let scheme = self.params.victim_scheme;
        let r_t = match scheme {
            VictimScheme::Positional => 1.0,
            _ => temporal_score(e.last, self.seq),
        };
        let r_p = match scheme {
            VictimScheme::Temporal => 1.0,
            _ => positional_score(self.ags, e.adj as usize),
        };
        score(scheme, r_p, r_t)
    }

    /// Removes a resident entry found at `slot` and releases its storage.
    fn evict_resident(&mut self, slot: usize, id: EntryId) {
        // xlint: allow(no-unwrap) invariant: callers found `id` at `slot`
        let (key, found) = self.index.remove_slot(slot).expect("slot emptied");
        debug_assert_eq!(found, id);
        self.free_entry_storage(id);
        self.drop_entry(key, id);
    }

    /// Best-fit allocation with up to `max_evictions_per_miss`
    /// capacity-eviction attempts on failure (1 = the paper's weak
    /// caching).
    fn alloc_with_eviction(
        &mut self,
        size: usize,
        id: EntryId,
        exclude: Option<EntryId>,
    ) -> (Option<DescId>, bool) {
        self.charge(self.params.costs.alloc_ns);
        if let Some(d) = self.alloc_region(size, id) {
            return (Some(d), false);
        }
        let budget = self.params.max_evictions_per_miss.max(1);
        for _ in 0..budget {
            if !self.run_capacity_eviction(exclude) {
                return (None, true);
            }
            self.charge(self.params.costs.alloc_ns);
            if let Some(d) = self.alloc_region(size, id) {
                return (Some(d), true);
            }
        }
        (None, true)
    }

    /// The sampled victim selection of Sec. III-D: scan at least `M`
    /// consecutive index slots from a random start (continuing until a
    /// candidate appears), evict the lowest-score CACHED entry.
    fn run_capacity_eviction(&mut self, exclude: Option<EntryId>) -> bool {
        let cap = self.index.capacity();
        let mut pos = self.rng.gen_range(0..cap);
        let m = self.params.sample_size.max(1);
        let mut visited = 0usize;
        let mut nonempty = 0u64;
        let mut best: Option<(usize, EntryId, f64)> = None;
        while visited < cap {
            if let Some((_k, eid)) = self.index.slot(pos) {
                nonempty += 1;
                let evictable = Some(eid) != exclude && self.entry(eid).state == EntryState::Cached;
                if evictable {
                    let s = self.entry_score(eid);
                    if best.is_none_or(|(_, _, bs)| s < bs) {
                        best = Some((pos, eid, s));
                    }
                }
            }
            visited += 1;
            pos = if pos + 1 == cap { 0 } else { pos + 1 };
            if visited >= m && best.is_some() {
                break;
            }
        }
        self.stats.evictions += 1;
        self.stats.visited_slots += visited as u64;
        self.stats.visited_nonempty += nonempty;
        self.charge(self.params.costs.evict_visit_ns * visited as f64);
        match best {
            Some((slot, victim, _)) => {
                self.evict_resident(slot, victim);
                true
            }
            None => false,
        }
    }

    /// Epoch-closure hook: promotes PENDING entries to CACHED and charges
    /// the deferred copy costs (the paper's "data has to be explicitly
    /// copied into the cache memory at the epoch closure time").
    pub fn epoch_close(&mut self) {
        self.charge(self.params.costs.epoch_hook_ns);
        let deferred = std::mem::take(&mut self.deferred_ns);
        self.charge(deferred);
        self.promote_pending();
    }

    /// Promotes every PENDING entry to CACHED (the state half of
    /// [`RmaCache::epoch_close`], which also charges for it).
    pub(crate) fn promote_pending(&mut self) {
        // Taken and handed back cleared, so the next epoch's pushes reuse
        // the allocation.
        let mut pending = std::mem::take(&mut self.pending);
        for id in pending.drain(..) {
            // An entry may have been evicted while pending? No: pending
            // entries are excluded from eviction, so it must still exist.
            let e = self.entry_mut(id);
            debug_assert_eq!(e.state, EntryState::Pending);
            e.state = EntryState::Cached;
            self.cached_count += 1;
        }
        self.pending = pending;
    }

    /// Builds the extent directory (and the targets' grids) on first use:
    /// one pass over the index.
    fn ensure_extents(&mut self) {
        if self.extents.is_some() {
            return;
        }
        self.charge(self.params.costs.evict_visit_ns * self.index.capacity() as f64);
        let mut max_size = 0;
        // Collected, not inserted one by one: the map is bulk-built from
        // the sorted keys, which packs its nodes full.
        let by_start = self
            .index
            .iter()
            .map(|(_, key, id)| {
                max_size = max_size.max(self.entry(id).sig.size());
                ((key.target, key.disp), id)
            })
            .collect::<BTreeMap<_, _>>();
        for (&(target, disp), &id) in &by_start {
            let size = self.entry(id).sig.size();
            self.target_mut(target).widen(disp, size);
        }
        self.extents = Some(ExtentDir { by_start, max_size });
    }

    /// The one ranged invalidation: drops every entry of `target` that a
    /// probe of `probes` (`(lo, hi, version)`, half-open bytes) reaches
    /// through the extent directory and `doomed` condemns; returns how
    /// many were dropped. Costs one directory seek per probe plus one
    /// visit per entry examined — `O(probes · log n + examined)`,
    /// whatever `|I_w|` is (a narrow probe of a target on its grid probes
    /// the index instead of seeking). Victims are evicted in ascending index-slot
    /// order, as a scan of the index would find them: the storage free
    /// order (hence later placement) and the slab ids depend on it, and
    /// `tests/prop_extents.rs` holds it to a full-scan oracle. With `keep`,
    /// a CACHED victim is not evicted but appended to the kept log, in
    /// ascending `(target, disp)`; it counts as dropped.
    fn invalidate_extents(
        &mut self,
        target: u32,
        probes: &[(u64, u64, u64)],
        keep: bool,
        doomed: impl Fn(&Entry, u64, u64, u64, u64) -> bool,
    ) -> usize {
        if probes.is_empty() || !self.has_entries_for(target) {
            return 0;
        }
        self.ensure_extents();
        let Some(dir) = self.extents.as_ref() else {
            return 0;
        };
        // A seek's depth, `log n` for the target's `n` residents.
        let grid = (self.target(target))
            .and_then(|r| Some((r.grid()?, u64::from(u32::BITS - r.count.leading_zeros()))));
        let mut victims = std::mem::take(&mut self.victims);
        let kept_from = self.kept.len();
        let mut examined = probes.len();
        for &(lo, hi, version) in probes {
            for (key, id) in dir.candidates(&self.index, target, lo, hi, grid) {
                examined += 1;
                let e = self.entry(id);
                if !doomed(e, key.disp, lo, hi, version) {
                    continue;
                }
                if keep && e.state == EntryState::Cached {
                    self.kept.push(Kept { key, id });
                } else {
                    // xlint: allow(no-unwrap) invariant: between operations the directory holds exactly the indexed keys
                    let (slot, _) = self.index.position(&key).expect("extent not indexed");
                    victims.push((slot, id));
                }
            }
        }
        self.charge(self.params.costs.evict_visit_ns * examined as f64);
        // Overlapping probes reach an entry more than once.
        victims.sort_unstable();
        victims.dedup();
        self.kept[kept_from..].sort_unstable_by_key(|k| (k.key.disp, k.id));
        self.kept.dedup();
        for &(slot, id) in &victims {
            self.evict_resident(slot, id);
        }
        let dropped = victims.len() + self.kept.len() - kept_from;
        victims.clear();
        self.victims = victims;
        dropped
    }

    /// Drops every resident entry whose cached bytes overlap
    /// `[lo, hi)` in `target`'s window; returns how many were dropped.
    ///
    /// This is not part of the paper's design — MPI's epoch rules make
    /// reads of concurrently written data illegal anyway — but it is what
    /// the coherence and recovery layers are built on. `hi == u64::MAX`
    /// means "to the end of the target" — with `lo == 0`, the full-target
    /// drop of a rank failure or ring overflow.
    ///
    /// The first ranged invalidation builds the ordered extent directory
    /// (one pass over `|I_w|`); from then on a call costs one directory
    /// seek plus the entries that can overlap the range, independent of
    /// how many entries are cached.
    pub fn invalidate_range(&mut self, target: u32, lo: u64, hi: u64) -> usize {
        self.invalidate_extents(target, &[(lo, hi, 0)], false, overlaps_probe)
    }

    /// Drops every resident entry keyed to `target` that overlaps one of
    /// the put `ranges` (`(lo, hi, version)`, half-open bytes) *and* was
    /// filled before that put (`entry.stamp.version < version`); returns how
    /// many were dropped. This is the surgical `EagerInvalidate` path:
    /// each drained notification record seeks the extent directory and
    /// examines only the entries that can overlap it —
    /// `O(records · log n)` for a pass, independent of `|I_w|`. Victims go
    /// in ascending index-slot order whatever order the records arrive in.
    pub fn invalidate_overlapping_stale(
        &mut self,
        target: u32,
        ranges: &[(u64, u64, u64)],
    ) -> usize {
        self.invalidate_extents(target, ranges, false, stale_under_probe)
    }

    /// A coherence drain's invalidation of `target`: what the drained put
    /// `ranges` make stale ([`RmaCache::invalidate_overlapping_stale`]),
    /// or — `None`, the notification ring overflowed — every entry of the
    /// target. With `keep`, each CACHED entry it condemns stays resident
    /// and goes to the kept log instead, for the window to fetch again and
    /// refresh or, failing that, evict. The ranges are sorted by
    /// displacement first, so consecutive seeks share the directory's
    /// upper levels; what they find does not depend on their order.
    pub(crate) fn invalidate_drained(
        &mut self,
        target: u32,
        ranges: Option<&mut [(u64, u64, u64)]>,
        keep: bool,
    ) -> usize {
        match ranges {
            Some(ranges) => {
                ranges.sort_unstable_by_key(|&(lo, _, _)| lo);
                self.invalidate_extents(target, ranges, keep, stale_under_probe)
            }
            None => self.invalidate_extents(target, &[(0, u64::MAX, 0)], keep, overlaps_probe),
        }
    }

    /// Lends out the kept log ([`RmaCache::invalidate_drained`]). Hand it
    /// back with [`RmaCache::recycle_kept`].
    pub(crate) fn take_kept(&mut self) -> Vec<Kept> {
        std::mem::take(&mut self.kept)
    }

    /// Takes back the kept log, emptied, so the next one reuses its
    /// allocation.
    pub(crate) fn recycle_kept(&mut self, mut kept: Vec<Kept>) {
        kept.clear();
        self.kept = kept;
    }

    /// Forgets every resident once the index and storage are empty (or
    /// new): slab, promotions, extent directory, per-target counts and
    /// the deferred copies that would have filled them.
    fn forget_residents(&mut self) {
        self.entries.clear();
        self.offs.clear();
        self.spare.clear();
        self.pending.clear();
        // The directory stays built: an empty one is in step with an
        // empty engine.
        if let Some(dir) = self.extents.as_mut() {
            *dir = ExtentDir::default();
        }
        self.cached_count = 0;
        self.deferred_ns = 0.0;
        self.targets.clear();
        self.stats.invalidations += 1;
    }

    /// Drops every cached entry (transparent-mode epoch invalidation,
    /// `CLAMPI_Invalidate`, or an adaptive adjustment).
    pub fn invalidate(&mut self) {
        self.index.clear();
        self.storage.clear();
        self.forget_residents();
    }

    /// The adaptive resize history.
    pub fn resize_log(&self) -> &[ResizeEvent] {
        &self.resize_log
    }

    /// Replaces `|I_w|` / `|S_w|` and invalidates (adaptive adjustment).
    /// The index is reseeded; the victim-sampling RNG keeps its stream.
    pub fn resize(&mut self, index_entries: usize, storage_bytes: usize) {
        self.rebuilds += 1;
        self.resize_log.push(ResizeEvent {
            at_seq: self.seq,
            index_entries,
            storage_bytes,
        });
        self.params.index_entries = index_entries.max(1);
        self.params.storage_bytes = storage_bytes;
        self.index = CuckooIndex::new(
            self.params.index_entries,
            self.params.max_insert_iters,
            self.params.seed.wrapping_add(self.rebuilds),
        );
        self.storage = Storage::new(storage_bytes);
        self.forget_residents();
        self.stats.adjustments += 1;
        // The shadow caches model the live geometry; a resize rebuilds
        // them empty at the new sizes, mirroring the live invalidation.
        self.lab = new_lab(&self.params);
    }

    /// Runs one check of `ctrl` on this cache's statistics and geometry
    /// and applies what it decides: a policy switch keeps residents (only
    /// the scoring rule flips), a resize invalidates. Returns the
    /// adjustment applied, if any.
    pub fn adapt(&mut self, ctrl: &mut AdaptiveController) -> Option<Adjustment> {
        let p = &self.params;
        let free_fraction = if p.storage_bytes == 0 {
            0.0
        } else {
            self.free_bytes() as f64 / p.storage_bytes as f64
        };
        let adj = ctrl.maybe_adjust(
            &self.stats,
            p.victim_scheme,
            p.index_entries,
            p.storage_bytes,
            free_fraction,
        )?;
        match adj.rule {
            AdjustRule::SwitchPolicy(policy) => {
                self.set_victim_scheme(policy);
            }
            AdjustRule::GrowIndex
            | AdjustRule::ShrinkIndex
            | AdjustRule::GrowStorage
            | AdjustRule::ShrinkStorage => self.resize(adj.index_entries, adj.storage_bytes),
        }
        Some(adj)
    }

    /// Panics unless the engine's structures describe one and the same
    /// resident set: index ↔ entry slab ↔ spare list ↔ storage
    /// descriptors ↔ `pending` ↔ `cached_count` ↔ per-target counts ↔
    /// extent directory (once built: the index's key set, every entry
    /// within the size mark). Call between operations — the property
    /// suites do, after every step.
    #[cfg(any(test, debug_assertions))]
    pub fn check_invariants(&self) {
        self.storage.check_invariants();
        self.index.check_invariants();
        let live = self.entries.iter().flatten().count();
        assert_eq!(self.index.len(), live, "index and entry slab disagree");
        assert_eq!(self.offs.len(), self.entries.len(), "offset array length");
        assert_eq!(
            live + self.spare.len(),
            self.entries.len(),
            "slab slots neither live nor spare"
        );
        for &id in &self.spare {
            assert!(self.entries[id as usize].is_none(), "spare id {id} is live");
        }
        let (mut cached, mut pending) = (0, 0);
        let mut per_target: BTreeMap<u32, u32> = BTreeMap::new();
        let mut owned = vec![false; self.entries.len()];
        for (slot, key, id) in self.index.iter() {
            let e = self.entries[id as usize]
                .as_ref()
                .unwrap_or_else(|| panic!("slot {slot} points at dead entry {id}"));
            let twice = std::mem::replace(&mut owned[id as usize], true);
            assert!(!twice, "slot {slot}: entry {id} is another slot's too");
            assert_ne!(e.desc, NO_DESC, "{key:?}: resident without storage");
            let off = self.storage.offset(e.desc);
            assert_eq!(self.off(id), off, "{key:?}: stale offset");
            let adj = self.storage.adjacent_free(e.desc);
            assert_eq!(e.adj as usize, adj, "{key:?}: stale d_c");
            // Panics if the region is shorter than the entry.
            let _ = self.storage.read(e.desc, e.sig.size());
            match e.state {
                EntryState::Cached => cached += 1,
                EntryState::Pending => {
                    pending += 1;
                    assert!(self.pending.contains(&id), "{key:?}: unscheduled PENDING");
                }
            }
            if let Some(dir) = &self.extents {
                let at = dir.by_start.get(&(key.target, key.disp));
                assert_eq!(at, Some(&id), "{key:?}: missing from the extent directory");
                assert!(e.sig.size() <= dir.max_size, "{key:?}: past the mark");
                let (stride, max) = self
                    .target(key.target)
                    .map_or((0, 0), |r| (r.stride, r.max));
                let on_grid = key.disp.checked_rem(stride).unwrap_or(key.disp) == 0;
                assert!(on_grid, "{key:?}: off its target's stride {stride}");
                assert!(
                    e.sig.size() <= max as usize,
                    "{key:?}: past its target's max"
                );
            }
            *per_target.entry(key.target).or_default() += 1;
        }
        assert_eq!(self.cached_count, cached, "cached_count");
        assert_eq!(self.pending.len(), pending, "pending list");
        if let Some(dir) = &self.extents {
            assert_eq!(dir.by_start.len(), live, "extent directory size");
        }
        assert!(
            self.targets.windows(2).all(|w| w[0].target < w[1].target),
            "target records out of target order"
        );
        let counted = self.targets.iter().filter(|r| r.count > 0);
        assert!(
            counted.map(|r| (r.target, r.count)).eq(per_target),
            "target counts disagree with the index"
        );
    }

    /// Every resident entry in slot order — what one full scan of the
    /// index sees. With [`RmaCache::evict_slot`], all the full-scan
    /// oracle of `tests/prop_extents.rs` needs to replay the index-scan
    /// invalidations the extent directory replaced.
    #[doc(hidden)]
    #[cfg(any(test, debug_assertions))]
    pub fn residents(&self) -> Vec<Resident> {
        self.index
            .iter()
            .map(|(slot, key, id)| {
                let e = self.entry(id);
                Resident {
                    slot,
                    id,
                    key,
                    size: e.sig.size(),
                    version: e.stamp.version,
                    off: self.off(id),
                    last: e.last,
                    state: e.state,
                }
            })
            .collect()
    }

    /// A keeping coherence drain ([`RmaCache::invalidate_drained`]): how
    /// many entries it dropped, and its kept log as `(key, slab id)`.
    #[doc(hidden)]
    #[cfg(any(test, debug_assertions))]
    pub fn drain_keeping(
        &mut self,
        t: u32,
        r: &mut [(u64, u64, u64)],
    ) -> (usize, Vec<(GetKey, u32)>) {
        let dropped = self.invalidate_drained(t, Some(r), true);
        let kept = self.take_kept().iter().map(|k| (k.key, k.id)).collect();
        (dropped, kept)
    }

    /// Evicts whatever occupies `slot`, exactly as an invalidation evicts
    /// a victim; `false` if the slot is empty.
    #[doc(hidden)]
    #[cfg(any(test, debug_assertions))]
    pub fn evict_slot(&mut self, slot: usize) -> bool {
        match self.index.slot(slot) {
            Some((_, id)) => {
                self.evict_resident(slot, id);
                true
            }
            None => false,
        }
    }

    /// An order-independent-of-nothing, content-sensitive fingerprint of
    /// the resident cache state: every occupied index slot contributes its
    /// position, key, entry state, size, and stored payload bytes to an
    /// FNV-1a hash. Two caches that went through the same sequence of
    /// state transitions fingerprint identically; any divergence in
    /// placement, classification, or bytes shows up. Used by the
    /// nonblocking-vs-blocking equivalence property test.
    pub fn content_fingerprint(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn byte(&mut self, b: u8) {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
            fn word(&mut self, w: u64) {
                for b in w.to_le_bytes() {
                    self.byte(b);
                }
            }
        }
        let mut h = Fnv(0xcbf29ce484222325);
        for (slot, key, id) in self.index.iter() {
            let e = self.entry(id);
            h.word(slot as u64);
            h.word(key.target as u64);
            h.word(key.disp);
            h.word(match e.state {
                EntryState::Pending => 1,
                EntryState::Cached => 2,
            });
            h.word(e.sig.size() as u64);
            if e.desc != NO_DESC {
                for &b in self.storage.read(e.desc, e.sig.size()) {
                    h.byte(b);
                }
            }
        }
        h.0
    }
}

// The front-only surface: what `ShardedCache` reaches a stripe's engine
// through that no other caller needs — this block's `tick`, `remove_key`
// and `peek`, plus the `pub(crate)` on `with_seeds` and `promote_pending`.
// The rest of what the front calls (`finish_miss`, `invalidate_range`,
// `len`, `stats`) is the public engine API. These go with `shard.rs` when
// the `shared_front` workload does (ROADMAP, front exit (b)).
impl RmaCache {
    /// Advances the get sequence counter without a lookup: the front's
    /// insert is an access event of its own, and distinct `last` stamps
    /// are what temporal victim scoring relies on.
    pub(crate) fn tick(&mut self) {
        self.seq += 1;
    }

    /// Removes `key`'s resident entry if present, releasing its storage.
    /// The front refreshes an entry in place with this (the Cuckoo index
    /// forbids duplicate keys).
    pub(crate) fn remove_key(&mut self, key: &GetKey) -> bool {
        match self.index.remove(key) {
            Some(id) => {
                self.free_entry_storage(id);
                self.drop_entry(*key, id);
                true
            }
            None => false,
        }
    }

    /// Read-only full-hit probe: copies `key`'s first `dst.len()` cached
    /// bytes into `dst` when a CACHED contiguous entry holds that many —
    /// [`RmaCache::process_lookup`]'s classification without its
    /// bookkeeping (`seq`, `ags`, `last`, cost, statistics all stay put),
    /// so the front can run it under a shared lock.
    pub(crate) fn peek(&self, key: &GetKey, dst: &mut [u8]) -> bool {
        let Some(id) = self.index.lookup(key) else {
            return false;
        };
        let e = self.entry(id);
        let (full, len) = e.servable(&LayoutSig::Contig(dst.len()));
        if !full || e.state != EntryState::Cached {
            return false;
        }
        let cached = self
            .storage
            .bytes_at(self.off(id), len)
            .expect("region inside the buffer"); // xlint: allow(no-unwrap) invariant: `offs` is set wherever `desc` is
        dst.copy_from_slice(cached);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi_prng::prop::{check, Gen};

    fn key(t: u32, d: u64) -> GetKey {
        GetKey { target: t, disp: d }
    }

    fn params(index: usize, storage: usize) -> CacheParams {
        CacheParams {
            index_entries: index,
            storage_bytes: storage,
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        }
    }

    fn cache(index: usize, storage: usize) -> RmaCache {
        RmaCache::new(params(index, storage))
    }

    /// Drives a full miss-then-cache cycle with payload `data`.
    fn insert(c: &mut RmaCache, k: GetKey, data: &[u8]) -> AccessType {
        let sig = LayoutSig::Contig(data.len());
        let mut dst = vec![0u8; data.len()];
        match c.process_lookup(k, &sig, &mut dst) {
            Lookup::Miss => c.finish_miss(k, sig, data, 0),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn miss_then_pending_hit_then_cached_hit() {
        let mut c = cache(64, 4096);
        let k = key(1, 0);
        let data = vec![7u8; 100];
        assert_eq!(insert(&mut c, k, &data), AccessType::Direct);

        // Same epoch: hit on the PENDING entry.
        let mut dst = vec![0u8; 100];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(100), &mut dst),
            Lookup::Hit
        );
        assert_eq!(dst, data);
        assert_eq!(c.cached_entries(), 0, "still pending");

        c.epoch_close();
        assert_eq!(c.cached_entries(), 1);

        let mut dst2 = vec![0u8; 100];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(100), &mut dst2),
            Lookup::Hit
        );
        assert_eq!(dst2, data);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().direct, 1);
    }

    #[test]
    fn smaller_request_is_full_hit_on_larger_entry() {
        let mut c = cache(64, 4096);
        let k = key(0, 64);
        let data: Vec<u8> = (0..200u8).collect();
        insert(&mut c, k, &data);
        c.epoch_close();
        let mut dst = vec![0u8; 50];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(50), &mut dst),
            Lookup::Hit
        );
        assert_eq!(&dst[..], &data[..50]);
    }

    #[test]
    fn larger_request_is_partial_hit_and_extends() {
        let mut c = cache(64, 8192);
        let k = key(0, 0);
        let data: Vec<u8> = (0..=99u8).collect();
        insert(&mut c, k, &data);
        c.epoch_close();

        let big: Vec<u8> = (0..=255u8).collect();
        let mut dst = vec![0u8; 256];
        match c.process_lookup(k, &LayoutSig::Contig(256), &mut dst) {
            Lookup::PartialHit { cached_len } => {
                assert_eq!(cached_len, 100);
                assert_eq!(&dst[..100], &big[..100], "prefix served from cache");
            }
            other => panic!("expected partial hit, got {other:?}"),
        }
        dst[100..].copy_from_slice(&big[100..]); // wrapper fetches the tail
        assert_eq!(
            c.finish_partial(k, LayoutSig::Contig(256), &dst, 0),
            AccessType::Direct
        );
        c.epoch_close();

        // Now the whole 256 bytes hit.
        let mut dst2 = vec![0u8; 256];
        assert_eq!(
            c.process_lookup(k, &LayoutSig::Contig(256), &mut dst2),
            Lookup::Hit
        );
        assert_eq!(dst2, big);
        assert_eq!(c.stats().partial_hits, 1);
    }

    #[test]
    fn capacity_eviction_makes_room() {
        // Storage fits exactly two 512-byte entries.
        let mut c = cache(64, 1024);
        insert(&mut c, key(0, 0), &vec![1u8; 512]);
        insert(&mut c, key(0, 1000), &vec![2u8; 512]);
        c.epoch_close();
        assert_eq!(c.free_bytes(), 0);

        let t = insert(&mut c, key(0, 2000), &vec![3u8; 512]);
        assert_eq!(t, AccessType::Capacity);
        assert_eq!(c.stats().evictions, 1);
        c.epoch_close();
        assert_eq!(c.cached_entries(), 2);
    }

    #[test]
    fn failing_access_leaves_cache_consistent() {
        // Entry bigger than the whole storage can never be cached.
        let mut c = cache(64, 256);
        let t = insert(&mut c, key(0, 0), &vec![1u8; 10_000]);
        assert_eq!(t, AccessType::Failed);
        assert!(c.is_empty());
        // And a later normal insert still works.
        assert_eq!(insert(&mut c, key(0, 64), &[2u8; 64]), AccessType::Direct);
    }

    #[test]
    fn pending_entries_are_not_evicted() {
        let mut c = cache(64, 1024);
        // Fill storage with two pending entries (no epoch close yet).
        insert(&mut c, key(0, 0), &vec![1u8; 512]);
        insert(&mut c, key(0, 1000), &vec![2u8; 512]);
        // A third insert in the same epoch: eviction cannot pick pending
        // entries, so the access fails.
        let t = insert(&mut c, key(0, 2000), &[3u8; 128]);
        assert_eq!(t, AccessType::Failed);
        c.epoch_close();
        assert_eq!(c.cached_entries(), 2, "pending entries survived");
    }

    #[test]
    fn conflicting_access_on_tiny_index() {
        // A 4-slot index overflows quickly; the engine must classify the
        // overflow as Conflicting (or fail gracefully) and stay consistent.
        let mut c = RmaCache::new(CacheParams {
            index_entries: 4,
            storage_bytes: 1 << 20,
            max_insert_iters: 8,
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        });
        let mut classes = Vec::new();
        for i in 0..32u64 {
            classes.push(insert(&mut c, key(0, i * 64), &[i as u8; 64]));
            c.epoch_close();
        }
        assert!(
            classes.contains(&AccessType::Conflicting),
            "expected at least one conflicting access, got {classes:?}"
        );
        assert!(c.len() <= 4);
        // Every resident entry still serves correct data.
        let resident: Vec<GetKey> = c.index.iter().map(|(_, k, _)| k).collect();
        for k in resident {
            let mut dst = vec![0u8; 64];
            assert_eq!(
                c.process_lookup(k, &LayoutSig::Contig(64), &mut dst),
                Lookup::Hit
            );
            assert_eq!(dst, vec![(k.disp / 64) as u8; 64]);
        }
    }

    /// A Cuckoo walk that finds no free slot may only evict a CACHED
    /// entry. Within one epoch every resident is PENDING, so a get whose
    /// walk fails is `Failed` and every earlier install stays resident.
    #[test]
    fn a_failed_walk_never_drops_a_pending_entry() {
        for seed in 0..50 {
            let mut c = RmaCache::new(CacheParams {
                index_entries: 4,
                storage_bytes: 1 << 20,
                max_insert_iters: 8,
                costs: CacheCostModel::free(),
                seed,
                ..CacheParams::default()
            });
            let mut installed = Vec::new();
            for i in 0..6u64 {
                let k = key(0, i * 64);
                match insert(&mut c, k, &[i as u8; 64]) {
                    AccessType::Direct => installed.push(k),
                    AccessType::Failed => {}
                    other => panic!("seed {seed}, get {i}: {other:?} with no CACHED entry"),
                }
                c.check_invariants();
            }
            assert_eq!(c.len(), installed.len(), "seed {seed}");
            for k in installed {
                assert!(c.index.lookup(&k).is_some(), "seed {seed}: {k:?} dropped");
            }
        }
    }

    /// Fig. 7's constant eviction cost: a conflicting get walks the Cuckoo
    /// path once (`max_insert_iters` steps) and swaps one entry for
    /// another, whatever the table looks like.
    #[test]
    fn a_conflicting_get_costs_one_walk_and_one_eviction() {
        let mut c = RmaCache::new(CacheParams {
            index_entries: 16,
            storage_bytes: 1 << 20,
            costs: CacheCostModel {
                insert_step_ns: 1.0,
                ..CacheCostModel::free()
            },
            ..CacheParams::default()
        });
        let iters = c.params().max_insert_iters as f64;
        let mut conflicting = 0;
        for i in 0..200u64 {
            let len = c.len();
            let class = insert(&mut c, key(0, i * 64), &[i as u8; 64]);
            let cost = c.take_cost();
            c.epoch_close();
            if class == AccessType::Conflicting {
                conflicting += 1;
                assert_eq!(cost, iters, "get {i}");
                assert_eq!(c.len(), len, "get {i}: one entry in, one out");
            }
        }
        assert!(conflicting > 100, "only {conflicting} conflicting gets");
    }

    /// ROADMAP aim 3, hostile inputs: every size and bound knob at 0, 1 and
    /// `usize::MAX` — alone, then in random compositions — must leave the
    /// engine live and consistent. The last row used to spin: a Cuckoo
    /// walk on a full 4-slot table ran for `max_insert_iters` steps,
    /// however many that was.
    #[test]
    fn degenerate_params_neither_hang_nor_corrupt() {
        let base = || CacheParams {
            index_entries: 16,
            storage_bytes: 1024,
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        };
        #[rustfmt::skip]
        let rows: [(&str, CacheParams); 11] = [
            ("index_entries 0", CacheParams { index_entries: 0, ..base() }),
            ("index_entries 1", CacheParams { index_entries: 1, ..base() }),
            ("index_entries 3", CacheParams { index_entries: 3, ..base() }),
            ("storage_bytes 0", CacheParams { storage_bytes: 0, ..base() }),
            ("storage_bytes 1", CacheParams { storage_bytes: 1, ..base() }),
            ("sample_size 0", CacheParams { sample_size: 0, ..base() }),
            ("sample_size MAX", CacheParams { sample_size: usize::MAX, ..base() }),
            ("max_insert_iters 0", CacheParams { max_insert_iters: 0, ..base() }),
            ("max_evictions_per_miss 0", CacheParams { max_evictions_per_miss: 0, ..base() }),
            ("max_evictions_per_miss MAX", CacheParams { max_evictions_per_miss: usize::MAX, ..base() }),
            ("max_insert_iters MAX", CacheParams { max_insert_iters: usize::MAX, index_entries: 4, ..base() }),
        ];
        for (row, params) in rows {
            let mut c = RmaCache::new(params);
            for i in 0..50u64 {
                let (k, sig) = (key(0, i * 64), LayoutSig::Contig(64));
                let mut dst = [0u8; 64];
                if c.process_lookup(k, &sig, &mut dst) == Lookup::Miss {
                    c.finish_miss(k, sig, &[i as u8; 64], 0);
                }
                c.epoch_close();
                c.check_invariants();
            }
            assert_eq!(c.stats().total_gets, 50, "{row}");
        }

        // Compositions: each knob drawn independently from the values the
        // rows above (and `base`) give it, under a mixed stream of gets of
        // varied sizes, ranged invalidations and epoch closes.
        fn pick<T: Copy>(g: &mut Gen, values: &[T]) -> T {
            values[g.range(0..values.len())]
        }
        check("random degenerate CacheParams compositions", 200, |g| {
            let mut c = RmaCache::new(CacheParams {
                index_entries: pick(g, &[0, 1, 3, 4, 16]),
                storage_bytes: pick(g, &[0, 1, 1024]),
                sample_size: pick(g, &[0, 16, usize::MAX]),
                max_insert_iters: pick(g, &[0, 32, usize::MAX]),
                max_evictions_per_miss: pick(g, &[0, 1, usize::MAX]),
                ..base()
            });
            let mut gets = 0;
            for _ in 0..60 {
                let (t, disp) = (g.range(0..3u32), g.range(0..12u64) * 48);
                match g.range(0..5u32) {
                    0 => c.epoch_close(),
                    1 => {
                        let lo = g.range(0..640u64);
                        c.invalidate_range(t, lo, lo + g.range(0..200u64));
                    }
                    _ => {
                        let size = pick(g, &[1, 48, 64, 200, 2000]);
                        let sig = LayoutSig::Contig(size);
                        let mut dst = vec![0u8; size];
                        let data = vec![disp as u8; size];
                        gets += 1;
                        match c.process_lookup(key(t, disp), &sig, &mut dst) {
                            Lookup::Hit => {}
                            Lookup::PartialHit { .. } => {
                                c.finish_partial(key(t, disp), sig, &data, 0);
                            }
                            Lookup::Miss => {
                                c.finish_miss(key(t, disp), sig, &data, 0);
                            }
                        }
                    }
                }
                c.check_invariants();
            }
            assert_eq!(c.stats().total_gets, gets);
        });
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut c = cache(64, 4096);
        insert(&mut c, key(0, 0), &[1, 2, 3]);
        c.epoch_close();
        c.invalidate();
        assert!(c.is_empty());
        assert_eq!(c.cached_entries(), 0);
        assert_eq!(c.free_bytes(), 4096);
        assert_eq!(c.stats().invalidations, 1);
        let mut dst = vec![0u8; 3];
        assert_eq!(
            c.process_lookup(key(0, 0), &LayoutSig::Contig(3), &mut dst),
            Lookup::Miss
        );
    }

    #[test]
    fn resize_counts_as_adjustment() {
        let mut c = cache(64, 4096);
        insert(&mut c, key(0, 0), &[1, 2, 3]);
        c.epoch_close();
        c.resize(128, 8192);
        assert!(c.is_empty());
        assert_eq!(c.params().index_entries, 128);
        assert_eq!(c.params().storage_bytes, 8192);
        assert_eq!(c.stats().adjustments, 1);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn costs_accumulate_and_drain() {
        let mut c = RmaCache::new(CacheParams {
            index_entries: 64,
            storage_bytes: 4096,
            ..CacheParams::default()
        });
        insert(&mut c, key(0, 0), &vec![0u8; 256]);
        let cost = c.take_cost();
        assert!(cost > 0.0, "lookup + insert + alloc must cost CPU time");
        assert_eq!(c.take_cost(), 0.0, "drained");
        // The cache-fill copy is deferred to the epoch close.
        c.epoch_close();
        let close_cost = c.take_cost();
        assert!(
            close_cost >= c.params().costs.memcpy_cost(256),
            "epoch close must charge the deferred fill copy"
        );
    }

    #[test]
    fn hit_on_cached_charges_now_but_pending_defers() {
        let mut c = RmaCache::new(CacheParams {
            index_entries: 64,
            storage_bytes: 4096,
            ..CacheParams::default()
        });
        let k = key(0, 0);
        insert(&mut c, k, &vec![0u8; 1024]);
        c.take_cost();
        // Hit while PENDING: only the lookup is charged immediately.
        let mut dst = vec![0u8; 1024];
        c.process_lookup(k, &LayoutSig::Contig(1024), &mut dst);
        let pending_hit_cost = c.take_cost();
        c.epoch_close();
        c.take_cost();
        // Hit while CACHED: lookup + copy charged immediately.
        c.process_lookup(k, &LayoutSig::Contig(1024), &mut dst);
        let cached_hit_cost = c.take_cost();
        assert!(
            cached_hit_cost > pending_hit_cost,
            "cached {cached_hit_cost} <= pending {pending_hit_cost}"
        );
    }

    #[test]
    fn noncontiguous_layouts_hit_only_on_exact_match() {
        use clampi_datatype::Datatype;
        let mut c = cache(64, 4096);
        let dt = Datatype::vector(4, 1, 2, Datatype::bytes(8));
        let layout = dt.flatten();
        let sig = LayoutSig::from_layout(&layout);
        let data = vec![5u8; layout.total_size()];
        let mut dst = vec![0u8; data.len()];
        assert_eq!(c.process_lookup(key(2, 0), &sig, &mut dst), Lookup::Miss);
        c.finish_miss(key(2, 0), sig.clone(), &data, 0);
        c.epoch_close();

        // Exact same layout: hit.
        let mut dst2 = vec![0u8; data.len()];
        assert_eq!(c.process_lookup(key(2, 0), &sig, &mut dst2), Lookup::Hit);
        assert_eq!(dst2, data);

        // Different layout at the same key: incompatible partial.
        let other = Datatype::vector(2, 1, 4, Datatype::bytes(8)).flatten();
        let osig = LayoutSig::from_layout(&other);
        let mut dst3 = vec![0u8; other.total_size()];
        assert_eq!(
            c.process_lookup(key(2, 0), &osig, &mut dst3),
            Lookup::PartialHit { cached_len: 0 }
        );
    }

    #[test]
    fn ags_tracks_cumulative_mean() {
        let mut c = cache(64, 1 << 20);
        insert(&mut c, key(0, 0), &[0u8; 100]);
        insert(&mut c, key(0, 1000), &vec![0u8; 300]);
        assert!((c.ags - 200.0).abs() < 1e-9);
        assert_eq!(c.seq(), 2);
    }

    #[test]
    fn temporal_scheme_evicts_lru_like() {
        // Two entries fill the storage; touch the first again, then force
        // an eviction: the untouched (older) one must go.
        let mut c = RmaCache::new(CacheParams {
            index_entries: 64,
            storage_bytes: 1024,
            victim_scheme: VictimScheme::Temporal,
            sample_size: 64, // scan everything: deterministic victim
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        });
        let hot = key(0, 0);
        let cold = key(0, 5000);
        insert(&mut c, hot, &vec![1u8; 512]);
        insert(&mut c, cold, &vec![2u8; 512]);
        c.epoch_close();
        let mut dst = vec![0u8; 512];
        assert_eq!(
            c.process_lookup(hot, &LayoutSig::Contig(512), &mut dst),
            Lookup::Hit
        );

        insert(&mut c, key(0, 9000), &vec![3u8; 512]);
        c.epoch_close();
        // Hot survives, cold was evicted.
        assert_eq!(
            c.process_lookup(hot, &LayoutSig::Contig(512), &mut dst),
            Lookup::Hit
        );
        assert_eq!(
            c.process_lookup(cold, &LayoutSig::Contig(512), &mut dst),
            Lookup::Miss
        );
    }

    #[test]
    fn peek_agrees_with_process_lookup_on_stable_state() {
        let mut c = cache(64, 8 << 10);
        for i in 0..16u64 {
            insert(&mut c, key(0, i * 100), &[i as u8; 64]);
        }
        c.epoch_close();
        for i in 0..16u64 {
            let mut dst = vec![0u8; 64];
            assert!(c.peek(&key(0, i * 100), &mut dst));
            assert_eq!(dst, vec![i as u8; 64]);
        }
        let mut dst = vec![0u8; 64];
        assert!(!c.peek(&key(9, 0), &mut dst));
        // Oversized request: a clean miss.
        let mut big = vec![0u8; 128];
        assert!(!c.peek(&key(0, 0), &mut big));
    }

    #[test]
    fn peek_misses_on_pending_entries() {
        let mut c = cache(64, 4096);
        insert(&mut c, key(0, 0), &[1u8; 64]); // still PENDING
        let mut dst = vec![0u8; 64];
        assert!(!c.peek(&key(0, 0), &mut dst));
        c.epoch_close();
        assert!(c.peek(&key(0, 0), &mut dst));
    }

    #[test]
    fn peek_refuses_blocks_entries_and_overlong_reads_without_moving_stats() {
        use clampi_datatype::Datatype;
        let mut c = cache(64, 4096);
        let layout = Datatype::vector(4, 1, 2, Datatype::bytes(8)).flatten();
        let sig = LayoutSig::from_layout(&layout);
        c.finish_miss(key(2, 0), sig, &vec![5u8; layout.total_size()], 0);
        insert(&mut c, key(0, 0), &[1u8; 64]);
        c.epoch_close();
        let (stats, seq) = (*c.stats(), c.seq());
        // A `Blocks` entry is not servable as contiguous bytes, whatever
        // the length asked for; a contiguous one not past its end.
        assert!(!c.peek(&key(2, 0), &mut [0u8; 8]));
        assert!(!c.peek(&key(2, 0), &mut vec![0u8; layout.total_size()]));
        assert!(!c.peek(&key(0, 0), &mut [0u8; 65]));
        assert!(c.peek(&key(0, 0), &mut [0u8; 64]));
        assert_eq!((*c.stats(), c.seq()), (stats, seq), "peek is read-only");
    }
}
