//! A distributed hash table over cached RMA windows.
//!
//! The table is the ROADMAP's "hot keyspace" stand-in: every rank owns a
//! partition of open-addressed buckets living in an RMA window, and all
//! ranks look keys up with one-sided gets. Three layers of caching stack
//! under a lookup:
//!
//! 1. **CLaMPI** ([`clampi::CachedWindow`]): every bucket read goes
//!    through the transparent cache, so hot buckets are served locally
//!    and kept fresh by the window's [`CoherenceMode`];
//! 2. **location cache** (this module, DrTM-style): a bounded
//!    `key → (owner, slot)` table that short-circuits the probe chain —
//!    a location hit costs one (usually CLaMPI-cached) get instead of a
//!    walk from the key's home slot;
//! 3. the **owner shadow**: each rank mirrors its own partition in local
//!    memory, so insert placement never reads the window (and never
//!    races its own same-epoch puts — RMASAN-clean by construction).
//!
//! # Bucket layout
//!
//! A bucket is [`BUCKET_BYTES`] = 24 bytes, three little-endian `u64`s:
//!
//! ```text
//! [ fingerprint | key | value ]
//! ```
//!
//! The fingerprint is derived from the placement hash and forced nonzero
//! (`h | 1`); `fingerprint == 0` means *empty slot* and terminates probe
//! chains, which is sound because the table is insert-only (updates
//! overwrite in place, nothing is ever deleted, so a chain never
//! develops holes). Readers match on fingerprint *and* full key, so a
//! fingerprint collision costs one extra compare, never a wrong answer.
//!
//! # Placement
//!
//! `hash = SplitMix64(key ^ salt)`; the high 32 bits pick the owner
//! rank, the low 32 bits pick the home slot modulo `buckets_per_rank`
//! (deliberately *not* a power-of-two mask, so benchmarks can pin the
//! load factor exactly). Collisions probe linearly up to
//! [`DhtConfig::max_probe`] slots, wrapping inside the partition.
//!
//! # Writes and coherence
//!
//! Inserts and updates are **owner-local**: only the rank that owns a
//! key writes its bucket, via [`CachedWindow::put`] (internally
//! `try_put` under the retry policy) into its own window region. Remote
//! readers observe updates through the configured [`CoherenceMode`] —
//! callers run the usual phase shape (reads → barrier → owner puts →
//! flush → barrier → [`Dht::validate`]).
//!
//! # Faults
//!
//! All remote traffic inherits the window's [`clampi::RetryPolicy`]:
//! transient faults retry with backoff; a dead owner degrades reads to
//! [`DhtLookup::Degraded`] (CLaMPI zero-fills and classifies the get as
//! `Faulted`) instead of panicking, and lookups against live owners are
//! unaffected.

mod loc;

use clampi::{
    AccessType, CacheStats, CachedWindow, ClampiConfig, CoherenceMode, SnapReq, SnapshotCtx,
};
use clampi_datatype::Datatype;
use clampi_prng::SplitMix64;
use clampi_rma::Process;
use loc::LocCache;

/// Size of one bucket record in the window, in bytes.
pub const BUCKET_BYTES: usize = 24;

/// Salt folded into the placement hash so DHT placement is independent
/// of any hash the key itself was produced with (e.g. `mix_key`).
const PLACE_SALT: u64 = 0xD147_5EED_0B0C_4E75;

/// Configuration of a [`Dht`] instance (collective: every rank must
/// construct the table with identical geometry).
#[derive(Debug, Clone)]
pub struct DhtConfig {
    /// CLaMPI configuration for the bucket window (cache mode, coherence
    /// mode, retry policy). `ClampiConfig::disabled()` gives the
    /// uncached baseline.
    pub clampi: ClampiConfig,
    /// Buckets per rank partition. Need not be a power of two; choose
    /// `keys_per_rank / load_factor` to pin the load factor.
    pub buckets_per_rank: usize,
    /// Longest probe chain a lookup or insert walks before giving up.
    pub max_probe: usize,
    /// Location-cache entries per rank; `0` disables the location cache.
    pub loc_cache_entries: usize,
}

impl DhtConfig {
    /// A table with `buckets_per_rank` buckets under `clampi`, default
    /// probe bound, location cache off.
    pub fn new(clampi: ClampiConfig, buckets_per_rank: usize) -> Self {
        DhtConfig {
            clampi,
            buckets_per_rank,
            max_probe: 64,
            loc_cache_entries: 0,
        }
    }

    /// Enables the location cache with `entries` slots.
    pub fn with_location_cache(mut self, entries: usize) -> Self {
        self.loc_cache_entries = entries;
        self
    }

    /// Overrides the probe bound.
    pub fn with_max_probe(mut self, max_probe: usize) -> Self {
        self.max_probe = max_probe;
        self
    }
}

/// Outcome of a [`Dht::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtLookup {
    /// Key present; its current value (as of the cached/coherent view).
    Found(u64),
    /// Key absent (empty slot or probe bound hit before a match).
    NotFound,
    /// The owner rank is unreachable (rank-death fault plan); the value
    /// could not be determined. Degraded, not wrong: callers can retry
    /// elsewhere or surface the partial outage.
    Degraded,
}

/// Counters accumulated by one rank's [`Dht`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DhtStats {
    /// Total lookups issued.
    pub lookups: u64,
    /// Lookups that returned [`DhtLookup::Found`].
    pub found: u64,
    /// Lookups that returned [`DhtLookup::NotFound`].
    pub not_found: u64,
    /// Lookups that returned [`DhtLookup::Degraded`].
    pub degraded: u64,
    /// Bucket gets issued (through CLaMPI), over all lookups.
    pub bucket_gets: u64,
    /// Lookups resolved by a location-cache hit (single-get fast path).
    pub loc_hits: u64,
    /// Location-cache entries installed after a probe-chain resolve.
    pub loc_installs: u64,
    /// Location-cache entries dropped because the fingerprint check
    /// proved them stale.
    pub loc_stale: u64,
    /// New keys written by this rank (owner-local).
    pub inserts: u64,
    /// In-place updates of existing keys by this rank.
    pub updates: u64,
    /// Writes abandoned because the probe chain was full.
    pub insert_fails: u64,
    /// Batched lookups ([`Dht::multi_get`]) issued.
    pub multi_gets: u64,
    /// Keys a batch resolved directly from its snapshot read (found, or
    /// a definitively-empty home slot).
    pub multi_get_hits: u64,
    /// Keys a batch handed to the per-key slow path (probe-chain walk,
    /// stale location entry, or a batch abort).
    pub multi_get_fallbacks: u64,
}

impl DhtStats {
    /// Fraction of lookups served by the location-cache fast path.
    pub fn loc_hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.loc_hits as f64 / self.lookups as f64
        }
    }
}

/// One rank's handle on the distributed table.
///
/// Creation is collective ([`Dht::create`]); afterwards, ranks interact
/// through passive-target epochs — the usual shape is [`Dht::lock_all`]
/// once, then rounds of lookups and owner-local writes separated by
/// barriers, [`Dht::flush_own_writes`], and [`Dht::validate`].
pub struct Dht {
    win: CachedWindow,
    rank: usize,
    nranks: usize,
    buckets_per_rank: usize,
    max_probe: usize,
    /// Local mirror of this rank's own partition: insert placement reads
    /// the shadow, never the window (no same-epoch read-after-put).
    shadow: Vec<u8>,
    loc: Option<LocCache>,
    dtype: Datatype,
    buf: [u8; BUCKET_BYTES],
    /// Reused snapshot context for [`Dht::multi_get`] batches.
    snap_ctx: SnapshotCtx,
    /// Reused working set of [`Dht::multi_get`] batches.
    batch: BatchScratch,
    stats: DhtStats,
}

/// What one [`Dht::multi_get`] batch works on, kept between batches so
/// that a call allocates only the results it returns. The first three are
/// parallel, one element per batched key.
#[derive(Default)]
struct BatchScratch {
    /// `(target, slot, came from the location cache)`.
    cand: Vec<(usize, usize, bool)>,
    /// Position of the key in the caller's `keys`.
    req_of: Vec<usize>,
    reqs: Vec<SnapReq>,
    /// The batch's bucket records, [`BUCKET_BYTES`] each.
    dst: Vec<u8>,
}

/// A decoded bucket record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    fp: u64,
    key: u64,
    value: u64,
}

impl Bucket {
    fn decode(raw: &[u8; BUCKET_BYTES]) -> Self {
        Bucket {
            fp: le64(&raw[0..8]),
            key: le64(&raw[8..16]),
            value: le64(&raw[16..24]),
        }
    }

    fn encode(&self) -> [u8; BUCKET_BYTES] {
        let mut raw = [0u8; BUCKET_BYTES];
        raw[0..8].copy_from_slice(&self.fp.to_le_bytes());
        raw[8..16].copy_from_slice(&self.key.to_le_bytes());
        raw[16..24].copy_from_slice(&self.value.to_le_bytes());
        raw
    }
}

/// Reads a `u64` from an 8-byte little-endian slice without `unwrap`.
fn le64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

impl Dht {
    /// Collectively creates the table: every rank allocates its
    /// `buckets_per_rank * BUCKET_BYTES` window partition (zeroed — all
    /// slots empty) behind a [`CachedWindow`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (`buckets_per_rank == 0`,
    /// `max_probe == 0`, or `max_probe > buckets_per_rank`).
    pub fn create(p: &mut Process, cfg: DhtConfig) -> Self {
        assert!(cfg.buckets_per_rank > 0, "empty partition");
        assert!(
            cfg.max_probe > 0 && cfg.max_probe <= cfg.buckets_per_rank,
            "max_probe must be in 1..=buckets_per_rank"
        );
        let bytes = cfg.buckets_per_rank * BUCKET_BYTES;
        let win = CachedWindow::create(p, bytes, cfg.clampi);
        Dht {
            win,
            rank: p.rank(),
            nranks: p.nranks(),
            buckets_per_rank: cfg.buckets_per_rank,
            max_probe: cfg.max_probe,
            shadow: vec![0u8; bytes],
            loc: (cfg.loc_cache_entries > 0).then(|| LocCache::new(cfg.loc_cache_entries)),
            dtype: Datatype::bytes(BUCKET_BYTES),
            buf: [0u8; BUCKET_BYTES],
            snap_ctx: SnapshotCtx::new(),
            batch: BatchScratch::default(),
            stats: DhtStats::default(),
        }
    }

    /// The rank that owns `key`'s bucket chain.
    pub fn owner_of(&self, key: u64) -> usize {
        self.place(key).0
    }

    /// `(owner, home_slot, fingerprint)` of `key`.
    fn place(&self, key: u64) -> (usize, usize, u64) {
        let h = SplitMix64::new(key ^ PLACE_SALT).next_u64();
        let owner = ((h >> 32) as usize) % self.nranks;
        let home = (h as u32 as usize) % self.buckets_per_rank;
        (owner, home, h | 1)
    }

    /// Reads bucket `slot` of `target` through the cache. `Err(())`
    /// means the get was lost to a fault (dead owner / abandoned fetch)
    /// and `buf` holds zeros, not data.
    fn read_bucket(&mut self, p: &mut Process, target: usize, slot: usize) -> Result<Bucket, ()> {
        self.stats.bucket_gets += 1;
        let disp = slot * BUCKET_BYTES;
        match self.win.get(p, &mut self.buf, target, disp, &self.dtype, 1) {
            Some(AccessType::Hit) => {}
            Some(AccessType::Faulted) => return Err(()),
            // Everything else issued wire traffic (miss fetches — cached
            // or not — and the disabled-mode pass-through); flush before
            // reading `buf`.
            _ => self.win.flush(p, target),
        }
        Ok(Bucket::decode(&self.buf))
    }

    /// Looks `key` up. Must run inside an access epoch (e.g. after
    /// [`Dht::lock_all`]).
    pub fn lookup(&mut self, p: &mut Process, key: u64) -> DhtLookup {
        self.stats.lookups += 1;
        let (owner, home, fp) = self.place(key);

        // Fast path: location cache remembers where the key resolved.
        if let Some(cached) = self.loc.as_ref().and_then(|l| l.get(key)) {
            let (t, s) = cached;
            match self.read_bucket(p, t, s) {
                Err(()) => {
                    self.stats.degraded += 1;
                    return DhtLookup::Degraded;
                }
                Ok(b) if b.fp == fp && b.key == key => {
                    self.stats.loc_hits += 1;
                    self.stats.found += 1;
                    return DhtLookup::Found(b.value);
                }
                Ok(_) => {
                    // The key no longer lives there: drop the entry and
                    // fall through to the probe chain.
                    self.stats.loc_stale += 1;
                    if let Some(l) = self.loc.as_mut() {
                        l.remove(key);
                    }
                }
            }
        }

        // Slow path: walk the probe chain from the home slot.
        for i in 0..self.max_probe {
            let slot = (home + i) % self.buckets_per_rank;
            let b = match self.read_bucket(p, owner, slot) {
                Err(()) => {
                    self.stats.degraded += 1;
                    return DhtLookup::Degraded;
                }
                Ok(b) => b,
            };
            if b.fp == 0 {
                // Empty slot terminates the chain (insert-only table).
                self.stats.not_found += 1;
                return DhtLookup::NotFound;
            }
            if b.fp == fp && b.key == key {
                if let Some(l) = self.loc.as_mut() {
                    l.install(key, owner, slot);
                    self.stats.loc_installs += 1;
                }
                self.stats.found += 1;
                return DhtLookup::Found(b.value);
            }
        }
        self.stats.not_found += 1;
        DhtLookup::NotFound
    }

    /// Looks up `keys` as one batch: resolves one candidate bucket per
    /// key (the location cache's remembered slot, else the home slot),
    /// reads all candidates in a single snapshot-consistent
    /// [`CachedWindow::multi_get`], and verifies each record's
    /// fingerprint and key. Keys the snapshot cannot settle — an
    /// occupied home slot that starts a probe chain, a stale location
    /// entry, or a batch abort — fall back to the per-key
    /// [`Dht::lookup`] slow path.
    ///
    /// Keys resolved *by the batch* are mutually consistent: they all
    /// reflect the table at the batch's snapshot timestamp. Fallback
    /// keys are individually correct but read later state.
    pub fn multi_get(&mut self, p: &mut Process, keys: &[u64]) -> Vec<DhtLookup> {
        // Moved out for the call (the fallback lookups borrow `self`) and
        // handed back afterwards, capacity intact.
        let mut batch = std::mem::take(&mut self.batch);
        let out = self.multi_get_in(p, keys, &mut batch);
        self.batch = batch;
        out
    }

    fn multi_get_in(
        &mut self,
        p: &mut Process,
        keys: &[u64],
        batch: &mut BatchScratch,
    ) -> Vec<DhtLookup> {
        self.stats.multi_gets += 1;
        let mut out = vec![DhtLookup::NotFound; keys.len()];
        let BatchScratch {
            cand,
            req_of,
            reqs,
            dst,
        } = batch;
        cand.clear();
        req_of.clear();
        reqs.clear();
        for (i, &k) in keys.iter().enumerate() {
            let (owner, home, _) = self.place(k);
            let (t, s, from_loc) = match self.loc.as_ref().and_then(|l| l.get(k)) {
                Some((t, s)) => (t, s, true),
                None => (owner, home, false),
            };
            if self.win.is_degraded(t) {
                // A known-dead target would abort the whole batch;
                // settle the key up front like `lookup` would.
                self.stats.lookups += 1;
                self.stats.degraded += 1;
                out[i] = DhtLookup::Degraded;
                continue;
            }
            cand.push((t, s, from_loc));
            req_of.push(i);
            reqs.push(SnapReq {
                target: t as u32,
                disp: s * BUCKET_BYTES,
                len: BUCKET_BYTES,
            });
        }
        if reqs.is_empty() {
            return out;
        }
        self.stats.bucket_gets += reqs.len() as u64;
        dst.clear();
        dst.resize(reqs.len() * BUCKET_BYTES, 0);
        match self.win.multi_get(p, &mut self.snap_ctx, reqs, dst) {
            Ok(_) => {
                for (bi, &i) in req_of.iter().enumerate() {
                    let k = keys[i];
                    let (t, s, from_loc) = cand[bi];
                    let mut raw = [0u8; BUCKET_BYTES];
                    raw.copy_from_slice(&dst[bi * BUCKET_BYTES..(bi + 1) * BUCKET_BYTES]);
                    let b = Bucket::decode(&raw);
                    let (_, _, fp) = self.place(k);
                    if b.fp == fp && b.key == k {
                        self.stats.lookups += 1;
                        self.stats.found += 1;
                        self.stats.multi_get_hits += 1;
                        if from_loc {
                            self.stats.loc_hits += 1;
                        } else if let Some(l) = self.loc.as_mut() {
                            l.install(k, t, s);
                            self.stats.loc_installs += 1;
                        }
                        out[i] = DhtLookup::Found(b.value);
                    } else if !from_loc && b.fp == 0 {
                        // The empty home slot terminates the chain
                        // (insert-only table): definitively absent.
                        self.stats.lookups += 1;
                        self.stats.not_found += 1;
                        self.stats.multi_get_hits += 1;
                        out[i] = DhtLookup::NotFound;
                    } else {
                        // Probe chain or stale location entry: the slow
                        // path re-reads and does its own bookkeeping.
                        self.stats.multi_get_fallbacks += 1;
                        out[i] = self.lookup(p, keys[i]);
                    }
                }
            }
            Err(_) => {
                // A target faulted mid-batch (it is now marked
                // degraded): settle every batched key individually.
                for &i in req_of.iter() {
                    self.stats.multi_get_fallbacks += 1;
                    out[i] = self.lookup(p, keys[i]);
                }
            }
        }
        out
    }

    /// Inserts (or updates in place) `key → value`. **Owner-local**:
    /// must be called by `owner_of(key)` — writing another rank's
    /// partition would race its same-epoch puts.
    ///
    /// Placement probes this rank's local shadow, so the decision is
    /// deterministic and identical across cache modes; the record then
    /// goes to the window through the cached put (retried / degraded
    /// under faults). Returns `false` when the probe chain is full.
    pub fn insert(&mut self, p: &mut Process, key: u64, value: u64) -> bool {
        let (owner, home, fp) = self.place(key);
        assert_eq!(owner, self.rank, "inserts are owner-local");
        for i in 0..self.max_probe {
            let slot = (home + i) % self.buckets_per_rank;
            let off = slot * BUCKET_BYTES;
            let cur = le64(&self.shadow[off..off + 8]);
            let is_update = cur == fp && le64(&self.shadow[off + 8..off + 16]) == key;
            if cur == 0 || is_update {
                let rec = Bucket { fp, key, value }.encode();
                self.shadow[off..off + BUCKET_BYTES].copy_from_slice(&rec);
                if is_update {
                    self.stats.updates += 1;
                } else {
                    self.stats.inserts += 1;
                }
                self.win.put(p, &rec, owner, off, &self.dtype, 1);
                return true;
            }
        }
        self.stats.insert_fails += 1;
        false
    }

    /// Opens the shared passive-target epoch on all ranks (collective).
    pub fn lock_all(&mut self, p: &mut Process) {
        self.win.lock_all(p);
    }

    /// Closes the shared epoch (collective).
    pub fn unlock_all(&mut self, p: &mut Process) {
        self.win.unlock_all(p);
    }

    /// Completes this rank's outstanding puts to its own partition.
    /// Call after a write phase, before the barrier that publishes it.
    pub fn flush_own_writes(&mut self, p: &mut Process) {
        self.win.flush(p, self.rank);
    }

    /// Runs a coherence pass over the bucket cache (see
    /// [`CachedWindow::validate`]): surgical under
    /// `EagerInvalidate`, full invalidation under [`CoherenceMode::None`].
    /// Call after the barrier that ends a write phase.
    pub fn validate(&mut self, p: &mut Process) {
        self.win.validate(p);
    }

    /// Whether `target`'s partition is unreachable (marked dead).
    pub fn is_degraded(&self, target: usize) -> bool {
        self.win.is_degraded(target)
    }

    /// The window's coherence mode.
    pub fn coherence_mode(&self) -> CoherenceMode {
        self.win.coherence_mode()
    }

    /// This rank's DHT-level counters.
    pub fn stats(&self) -> DhtStats {
        self.stats
    }

    /// The underlying CLaMPI cache counters (hit ratio etc.).
    pub fn cache_stats(&self) -> CacheStats {
        self.win.stats()
    }

    /// Live location-cache entries (0 when disabled).
    pub fn loc_entries(&self) -> usize {
        self.loc.as_ref().map_or(0, |l| l.len())
    }

    /// The underlying cached window (escape hatch for benches that need
    /// window-level control, e.g. explicit invalidation).
    pub fn window_mut(&mut self) -> &mut CachedWindow {
        &mut self.win
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi::{CacheParams, Mode, RetryPolicy};
    use clampi_rma::{run_collect, FaultConfig, SimConfig};
    use std::collections::HashMap;

    fn coherent_cfg(mode: CoherenceMode) -> ClampiConfig {
        let params = CacheParams {
            index_entries: 256,
            storage_bytes: 64 << 10,
            coherence: mode,
            ..CacheParams::default()
        };
        ClampiConfig::fixed(Mode::AlwaysCache, params)
    }

    /// Insert a deterministic key set (owner-local), then have every
    /// rank look every key up and compare against a HashMap reference.
    fn exercise(cfg_of: impl Fn() -> DhtConfig + Send + Sync + Copy) {
        let nranks = 4;
        let keys: Vec<u64> = (0..200u64).map(|i| SplitMix64::new(i).next_u64()).collect();
        let reference: HashMap<u64, u64> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
        let results = run_collect(SimConfig::default(), nranks, move |p| {
            let mut dht = Dht::create(p, cfg_of());
            let keys: Vec<u64> = (0..200u64).map(|i| SplitMix64::new(i).next_u64()).collect();
            dht.lock_all(p);
            for &k in &keys {
                if dht.owner_of(k) == p.rank() {
                    assert!(dht.insert(p, k, k.wrapping_mul(3)));
                }
            }
            dht.flush_own_writes(p);
            p.barrier();
            dht.validate(p);
            let mut got: Vec<(u64, DhtLookup)> = Vec::new();
            for &k in &keys {
                got.push((k, dht.lookup(p, k)));
            }
            // A few absent keys.
            for i in 1000..1010u64 {
                let k = SplitMix64::new(i).next_u64();
                got.push((k, dht.lookup(p, k)));
            }
            dht.unlock_all(p);
            (got, dht.stats())
        });
        for (_, (got, stats)) in results {
            for (k, r) in got {
                match reference.get(&k) {
                    Some(&v) => assert_eq!(r, DhtLookup::Found(v), "key {k:#x}"),
                    None => assert_eq!(r, DhtLookup::NotFound, "key {k:#x}"),
                }
            }
            assert_eq!(stats.insert_fails, 0);
            assert_eq!(stats.degraded, 0);
        }
    }

    #[test]
    fn matches_hashmap_uncached() {
        exercise(|| DhtConfig::new(ClampiConfig::disabled(), 257));
    }

    #[test]
    fn matches_hashmap_cached_all_modes() {
        for mode in [CoherenceMode::None, CoherenceMode::EagerInvalidate] {
            exercise(move || DhtConfig::new(coherent_cfg(mode), 257));
        }
    }

    #[test]
    fn matches_hashmap_with_location_cache() {
        exercise(|| {
            DhtConfig::new(coherent_cfg(CoherenceMode::EagerInvalidate), 257)
                .with_location_cache(128)
        });
    }

    #[test]
    fn location_cache_cuts_bucket_gets_on_repeat_lookups() {
        let results = run_collect(SimConfig::default(), 2, |p| {
            let run = |p: &mut Process, loc: usize| {
                let cfg = DhtConfig::new(coherent_cfg(CoherenceMode::EagerInvalidate), 509)
                    .with_location_cache(loc);
                let mut dht = Dht::create(p, cfg);
                dht.lock_all(p);
                // Load the table well past half full so chains form.
                for i in 0..400u64 {
                    let k = SplitMix64::new(i).next_u64();
                    if dht.owner_of(k) == p.rank() {
                        assert!(dht.insert(p, k, i));
                    }
                }
                dht.flush_own_writes(p);
                p.barrier();
                dht.validate(p);
                for _ in 0..8 {
                    for i in 0..50u64 {
                        let k = SplitMix64::new(i).next_u64();
                        assert_eq!(dht.lookup(p, k), DhtLookup::Found(i));
                    }
                }
                dht.unlock_all(p);
                dht.stats()
            };
            let with_loc = run(p, 4096);
            let without = run(p, 0);
            (with_loc, without)
        });
        for (_, (with_loc, without)) in results {
            assert!(with_loc.loc_hits > 0, "location cache never hit");
            assert!(
                with_loc.bucket_gets <= without.bucket_gets,
                "location cache issued more gets ({} > {})",
                with_loc.bucket_gets,
                without.bucket_gets
            );
            assert_eq!(with_loc.found, without.found);
        }
    }

    #[test]
    fn full_chain_fails_insert_and_lookup_stays_not_found() {
        let results = run_collect(SimConfig::default(), 1, |p| {
            // One rank, tiny partition, probe bound 4: overflow quickly.
            let cfg = DhtConfig::new(ClampiConfig::disabled(), 4).with_max_probe(4);
            let mut dht = Dht::create(p, cfg);
            dht.lock_all(p);
            let mut stored = Vec::new();
            let mut failed = Vec::new();
            for i in 0..32u64 {
                let k = SplitMix64::new(i).next_u64();
                if dht.insert(p, k, i) {
                    stored.push((k, i));
                } else {
                    failed.push(k);
                }
            }
            dht.flush_own_writes(p);
            p.barrier();
            dht.validate(p);
            let ok = stored
                .iter()
                .all(|&(k, v)| dht.lookup(p, k) == DhtLookup::Found(v));
            // Keys the table rejected may be NotFound (chain exhausted);
            // they must never read back a value.
            let rejected_absent = failed
                .iter()
                .all(|&k| dht.lookup(p, k) == DhtLookup::NotFound);
            let stats = dht.stats();
            dht.unlock_all(p);
            (ok, rejected_absent, stats)
        });
        let (_, (ok, rejected_absent, stats)) = &results[0];
        assert!(ok, "stored keys must read back");
        assert!(rejected_absent);
        assert!(stats.insert_fails > 0, "tiny table never overflowed");
    }

    #[test]
    fn updates_are_visible_after_validate() {
        // With the default notification ring and with none at all (every
        // drain after a write overflows: the whole-target fallback).
        let mode = CoherenceMode::EagerInvalidate;
        for ring_cap in [SimConfig::default().notify_ring_cap, 0] {
            let sim = SimConfig::default().with_notify_ring_cap(ring_cap);
            let results = run_collect(sim, 2, move |p| {
                let cfg = DhtConfig::new(coherent_cfg(mode), 127).with_location_cache(64);
                let mut dht = Dht::create(p, cfg);
                dht.lock_all(p);
                let keys: Vec<u64> = (0..40u64).map(|i| SplitMix64::new(i).next_u64()).collect();
                for round in 0..4u64 {
                    for &k in &keys {
                        if dht.owner_of(k) == p.rank() {
                            assert!(dht.insert(p, k, k ^ round));
                        }
                    }
                    dht.flush_own_writes(p);
                    p.barrier();
                    dht.validate(p);
                    for &k in &keys {
                        assert_eq!(
                            dht.lookup(p, k),
                            DhtLookup::Found(k ^ round),
                            "stale read in round {round} at ring capacity {ring_cap}"
                        );
                    }
                    p.barrier();
                }
                dht.unlock_all(p);
                dht.stats()
            });
            for (_, stats) in results {
                assert!(stats.updates > 0 || stats.inserts > 0);
            }
        }
    }

    #[test]
    fn dead_owner_degrades_lookups_and_live_owners_survive() {
        // Dry run to find a kill time inside the lookup phase.
        let nranks = 3;
        let dead = 2usize;
        let body = move |p: &mut Process, fail_at: Option<f64>| {
            let cfg = DhtConfig::new(
                coherent_cfg(CoherenceMode::EagerInvalidate).with_retry(RetryPolicy {
                    max_retries: 16,
                    ..RetryPolicy::default()
                }),
                127,
            )
            .with_location_cache(64);
            let mut dht = Dht::create(p, cfg);
            dht.lock_all(p);
            let keys: Vec<u64> = (0..60u64).map(|i| SplitMix64::new(i).next_u64()).collect();
            for &k in &keys {
                if dht.owner_of(k) == p.rank() {
                    assert!(dht.insert(p, k, !k));
                }
            }
            dht.flush_own_writes(p);
            p.barrier();
            dht.validate(p);
            let t_before_lookups = p.now();
            let mut outcomes = Vec::new();
            for &k in &keys {
                outcomes.push((dht.owner_of(k), dht.lookup(p, k), !k));
            }
            dht.unlock_all(p);
            let _ = fail_at;
            (t_before_lookups, outcomes, dht.is_degraded(dead))
        };
        let dry = run_collect(SimConfig::default(), nranks, move |p| body(p, None));
        // Kill the owner just after the insert phase completed.
        let kill_ns = dry.iter().map(|(_, (t, _, _))| *t).fold(0.0f64, f64::max) + 1.0;
        let cfg = SimConfig::default()
            .with_faults(FaultConfig::default().with_rank_failure(dead, kill_ns));
        let results = run_collect(cfg, nranks, move |p| body(p, Some(kill_ns)));
        for (rank, (_, (_, outcomes, saw_degraded))) in results.iter().enumerate() {
            if rank == dead {
                continue;
            }
            let mut hit_dead = false;
            for (owner, got, want) in outcomes {
                if *owner == dead {
                    // A pre-death cached hit is fine; otherwise Degraded.
                    assert!(
                        *got == DhtLookup::Degraded || *got == DhtLookup::Found(*want),
                        "rank {rank}: dead-owner lookup returned {got:?}"
                    );
                    if *got == DhtLookup::Degraded {
                        hit_dead = true;
                    }
                } else {
                    assert_eq!(
                        *got,
                        DhtLookup::Found(*want),
                        "rank {rank}: live-owner lookup wrong"
                    );
                }
            }
            assert!(hit_dead, "rank {rank} never observed the dead owner");
            assert!(saw_degraded, "rank {rank} did not mark owner degraded");
        }
    }

    /// Batched lookups agree with the HashMap reference (and with the
    /// per-key path) across backends, cold and with a warm location
    /// cache.
    #[test]
    fn multi_get_matches_reference() {
        let nranks = 4;
        let keys: Vec<u64> = (0..200u64).map(|i| SplitMix64::new(i).next_u64()).collect();
        let reference: HashMap<u64, u64> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
        let configs: [fn() -> DhtConfig; 3] = [
            || DhtConfig::new(ClampiConfig::disabled(), 257),
            || DhtConfig::new(coherent_cfg(CoherenceMode::None), 257),
            || {
                DhtConfig::new(coherent_cfg(CoherenceMode::EagerInvalidate), 257)
                    .with_location_cache(128)
            },
        ];
        for cfg_of in configs {
            let results = run_collect(SimConfig::default(), nranks, move |p| {
                let mut dht = Dht::create(p, cfg_of());
                let keys: Vec<u64> = (0..200u64).map(|i| SplitMix64::new(i).next_u64()).collect();
                dht.lock_all(p);
                let mut ok = true;
                for &k in &keys {
                    if dht.owner_of(k) == p.rank() {
                        ok &= dht.insert(p, k, k.wrapping_mul(3));
                    }
                }
                dht.flush_own_writes(p);
                p.barrier();
                dht.validate(p);
                let mut batch = keys.clone();
                for i in 1000..1010u64 {
                    batch.push(SplitMix64::new(i).next_u64());
                }
                // Cold batch, then a warm one (location cache primed).
                let cold = dht.multi_get(p, &batch);
                let warm = dht.multi_get(p, &batch);
                dht.unlock_all(p);
                (batch, cold, warm, ok, dht.stats())
            });
            for (_, (batch, cold, warm, ok, stats)) in results {
                assert!(ok, "inserts failed");
                for pass in [&cold, &warm] {
                    for (k, r) in batch.iter().zip(pass) {
                        match reference.get(k) {
                            Some(&v) => assert_eq!(*r, DhtLookup::Found(v), "key {k:#x}"),
                            None => assert_eq!(*r, DhtLookup::NotFound, "key {k:#x}"),
                        }
                    }
                }
                assert_eq!(stats.multi_gets, 2);
                assert!(
                    stats.multi_get_hits > 0,
                    "some keys must resolve from the snapshot batch"
                );
                assert_eq!(
                    stats.lookups,
                    2 * batch.len() as u64,
                    "batch + fallback bookkeeping must cover each key once"
                );
                assert_eq!(stats.degraded, 0);
            }
        }
    }

    /// A batch spanning a dead owner degrades per key — dead-owner keys
    /// come back `Degraded` (or a pre-death cached value), live-owner
    /// keys stay correct — and the batch abort routes through the
    /// fallback path.
    #[test]
    fn multi_get_dead_owner_degrades_only_that_owner() {
        let nranks = 3;
        let dead = 2usize;
        let body = move |p: &mut Process, _fail: Option<f64>| {
            let cfg = DhtConfig::new(
                coherent_cfg(CoherenceMode::EagerInvalidate).with_retry(RetryPolicy {
                    max_retries: 16,
                    ..RetryPolicy::default()
                }),
                127,
            );
            let mut dht = Dht::create(p, cfg);
            dht.lock_all(p);
            let keys: Vec<u64> = (0..60u64).map(|i| SplitMix64::new(i).next_u64()).collect();
            for &k in &keys {
                if dht.owner_of(k) == p.rank() {
                    let _ = dht.insert(p, k, !k);
                }
            }
            dht.flush_own_writes(p);
            p.barrier();
            dht.validate(p);
            let t_before = p.now();
            let got = dht.multi_get(p, &keys);
            let owners: Vec<usize> = keys.iter().map(|&k| dht.owner_of(k)).collect();
            dht.unlock_all(p);
            (t_before, keys, owners, got, dht.stats())
        };
        let dry = run_collect(SimConfig::default(), nranks, move |p| body(p, None));
        let kill_ns = dry.iter().map(|(_, (t, ..))| *t).fold(0.0f64, f64::max) + 1.0;
        let cfg = SimConfig::default()
            .with_faults(FaultConfig::default().with_rank_failure(dead, kill_ns));
        let results = run_collect(cfg, nranks, move |p| body(p, Some(kill_ns)));
        for (rank, (_, (_, keys, owners, got, stats))) in results.iter().enumerate() {
            if rank == dead {
                continue;
            }
            let mut hit_dead = false;
            for ((k, owner), r) in keys.iter().zip(owners).zip(got) {
                if *owner == dead {
                    assert!(
                        *r == DhtLookup::Degraded || *r == DhtLookup::Found(!*k),
                        "rank {rank}: dead-owner key {k:#x} returned {r:?}"
                    );
                    hit_dead |= *r == DhtLookup::Degraded;
                } else {
                    assert_eq!(*r, DhtLookup::Found(!*k), "rank {rank}: live key {k:#x}");
                }
            }
            assert!(hit_dead, "rank {rank} never observed the dead owner");
            assert!(
                stats.multi_get_fallbacks > 0,
                "rank {rank}: the abort must route keys to the slow path"
            );
        }
    }
}
