//! The concurrent cache front: N engines, one per hash stripe, each behind
//! a seqlock, so the hit path takes **zero write-locks**.
//!
//! [`ShardedCache`] wraps one [`RmaCache`] per hash stripe of the
//! [`GetKey`] ([`GetKey::stripe`] `mod` stripe count). How keys, capacity
//! and seeds are split across stripes is decided in this module and
//! nowhere else (`stripe_engine`, `shard_of`): the engine does not know
//! it is one of several. Each shard pairs its engine with a sequence
//! counter and an `RwLock`:
//!
//! - **Hits (fast path).** [`ShardedCache::get`] performs a seqlock-style
//!   optimistic read: load the sequence counter (even = no writer), probe
//!   the engine with the panic-free, bounds-checked
//!   [`RmaCache::racy_probe`], then validate that the counter is
//!   unchanged. A torn read cannot crash (every access is bounds-checked
//!   and payload bytes are copied via the entry's cached region offset,
//!   never through allocator metadata) and cannot be *returned* (the
//!   validation discards it). No lock, no shared-cacheline store except
//!   the destination buffer.
//! - **Everything else (slow path).** Inserts, invalidation and the rare
//!   hit-path fallback take the shard's `RwLock`. Writers additionally
//!   bump the sequence counter to odd for the duration of the mutation.
//!   Eviction and slab management stay on this path on purpose: they
//!   rewire descriptor lists and the extent directory (built by a
//!   shard's first `invalidate_range`), which cannot be made
//!   torn-read-safe cheaply — and misses already pay a network round trip,
//!   so a lock there is noise.
//!
//! **Memory ordering.** The ordering-sensitive counter protocol lives in
//! [`crate::seqlock::SeqLock`]: the writer does `write_begin` (odd store +
//! Release fence) and `write_end` (releasing even store); the reader does
//! `read_begin` (Acquire load) and `read_validate` (Acquire fence +
//! Relaxed re-load). If validation still sees the first (even) sequence,
//! no writer published a mutation between the two loads, so the probed
//! bytes are consistent; otherwise the result is discarded and the read
//! retried. This is the classic seqlock recipe (Boehm, *Can seqlocks get
//! along with programming language memory models?*); no `SeqCst` is
//! needed anywhere. The extracted protocol is model-checked exhaustively
//! by the `mc_*` tests in `seqlock.rs` under `--cfg clampi_mc`.
//!
//! **Why reads through a mutating engine are tolerable.** An engine built
//! by `RmaCache::with_seeds` never reallocates reader-visible memory while
//! the cache is alive: the entry slab is preallocated to its worst-case
//! population, the index's slot/fingerprint arrays are fixed at
//! construction (`clear` is in-place), the storage buffer is fixed, and
//! the concurrent front never resizes. So an optimistic reader racing a
//! writer observes stale or torn *values* inside always-valid allocations;
//! `racy_probe` is written to be panic-free under any such values, and the
//! sequence validation rejects the result whenever a race was possible.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::cache::{CacheParams, LayoutSig, ProbeResult, RmaCache};
use crate::index::GetKey;
use crate::seqlock::SeqLock;
use crate::stats::{AccessType, CacheStats};

/// Optimistic read attempts (including retries after a failed sequence
/// validation or an odd counter) before falling back to the read lock.
const OPTIMISTIC_ATTEMPTS: usize = 8;

/// Derives stripe `stripe`'s seed from a base seed. Stripe 0 keeps the base
/// unchanged so a one-shard front reproduces the engine's seed streams
/// bit-for-bit; the odd multiplier decorrelates the other stripes.
fn shard_seed(base: u64, stripe: usize) -> u64 {
    base.wrapping_add((stripe as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// The engine of stripe `stripe` of a `params.shards`-way front (at least
/// one): an even share of the index and storage, its own hasher and
/// sampler seeds, no policy lab (the lock-free hit path could not feed it).
fn stripe_engine(params: &CacheParams, stripe: usize) -> RmaCache {
    let n = params.shards;
    let per_stripe = CacheParams {
        index_entries: (params.index_entries / n).max(1),
        storage_bytes: params.storage_bytes / n,
        policy_lab: false,
        ..params.clone()
    };
    RmaCache::with_seeds(
        per_stripe,
        shard_seed(params.seed, stripe),
        shard_seed(params.seed ^ 0x5EED, stripe),
    )
}

struct Shard {
    /// Seqlock sequence counter: odd while a writer is inside.
    seq: SeqLock,
    /// Slow-path lock. Writers hold it exclusively for every mutation;
    /// the hit-path fallback and stats readers hold it shared.
    lock: RwLock<()>,
    engine: UnsafeCell<RmaCache>,
    /// Write-lock acquisitions on this shard. The contention bench asserts
    /// this stays flat across a read-only phase — the "zero write-locks on
    /// the hit path" guarantee, measured rather than claimed.
    write_locks: AtomicU64,
    opt_hits: AtomicU64,
    opt_misses: AtomicU64,
    opt_retries: AtomicU64,
    locked_reads: AtomicU64,
    locked_hits: AtomicU64,
}

// SAFETY: `engine` (fields all Send) is only mutated under the exclusive
// write lock; shared access is either read-locked (stable) or optimistic,
// with bounds-checked panic-free reads discarded on sequence mismatch.
unsafe impl Sync for Shard {}

/// A thread-safe sharded cache for concurrent hit-path traffic.
///
/// This is the scale-facing front over the same engine the deterministic
/// simulator uses: [`CacheParams::shards`] stripes, each an independent
/// [`RmaCache`] (index + slab + storage arena) behind its own seqlock.
/// `get` never takes a write lock; `insert`/`invalidate_range` take only
/// the owning shard's.
///
/// Unlike [`crate::RmaCache`] there are no epochs: inserted entries are
/// promoted to servable immediately, and a get that misses records no
/// statistics by itself — the caller's subsequent [`ShardedCache::insert`]
/// classifies the access, so `hits + direct + conflicting + capacity +
/// failed == total_gets` holds exactly for get-then-insert-on-miss usage.
///
/// # Examples
///
/// ```
/// use clampi::cache::CacheParams;
/// use clampi::index::GetKey;
/// use clampi::ShardedCache;
///
/// let cache = ShardedCache::new(CacheParams {
///     shards: 4,
///     ..CacheParams::default()
/// });
/// let key = GetKey { target: 1, disp: 64 };
/// let mut dst = [0u8; 4];
/// assert!(!cache.get(key, &mut dst));
/// cache.insert(key, &[9, 9, 9, 9]);
/// assert!(cache.get(key, &mut dst));
/// assert_eq!(dst, [9, 9, 9, 9]);
/// ```
pub struct ShardedCache {
    params: CacheParams,
    shards: Box<[Shard]>,
}

impl ShardedCache {
    /// A fresh cache with `params.shards` independent stripes (at least
    /// one); `index_entries` and `storage_bytes` are divided evenly across
    /// them.
    pub fn new(params: CacheParams) -> Self {
        let params = CacheParams {
            shards: params.shards.max(1),
            ..params
        };
        let shards = (0..params.shards)
            .map(|i| Shard {
                seq: SeqLock::new(),
                lock: RwLock::new(()),
                engine: UnsafeCell::new(stripe_engine(&params, i)),
                write_locks: AtomicU64::new(0),
                opt_hits: AtomicU64::new(0),
                opt_misses: AtomicU64::new(0),
                opt_retries: AtomicU64::new(0),
                locked_reads: AtomicU64::new(0),
                locked_hits: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedCache { params, shards }
    }

    /// Current parameters (with `shards` normalized to at least 1).
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &GetKey) -> &Shard {
        &self.shards[(key.stripe() % self.shards.len() as u64) as usize]
    }

    /// Runs `f` with exclusive access to `sh`'s engine, wrapped in the
    /// seqlock writer protocol (odd counter + release fence before the
    /// mutation, releasing even store after).
    fn with_write<R>(sh: &Shard, f: impl FnOnce(&mut RmaCache) -> R) -> R {
        let _g = sh.lock.write().unwrap_or_else(|e| e.into_inner());
        sh.write_locks.fetch_add(1, Ordering::Relaxed);
        let s = sh.seq.write_begin();
        // SAFETY: the exclusive write lock is held for the whole closure,
        // so no other &mut (or locked &) access can exist concurrently.
        let engine = unsafe { &mut *sh.engine.get() };
        let r = f(engine);
        sh.seq.write_end(s);
        r
    }

    /// Looks `key` up and copies its payload into `dst` on a hit.
    ///
    /// Fast path: seqlock optimistic read — zero locks of any kind. After
    /// [`OPTIMISTIC_ATTEMPTS`] failed validations (a writer kept touching
    /// the shard) the read falls back to the shard's *read* lock; no get
    /// ever takes a write lock.
    ///
    /// A `false` return means the key is absent, larger than the cached
    /// entry, or (rarely, under a concurrent eviction) was dropped
    /// mid-read; callers treat all of these as a miss and may re-insert.
    pub fn get(&self, key: GetKey, dst: &mut [u8]) -> bool {
        let sh = self.shard_of(&key);
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            let Some(s1) = sh.seq.read_begin() else {
                // A writer is inside: writers are short (no network under
                // the lock), so spin once and re-check.
                std::hint::spin_loop();
                continue;
            };
            // SAFETY: seqlock compromise — this view may race a writer, but
            // the probe is bounds-checked and panic-free on torn state
            // (allocations pinned, module docs); validation discards races.
            let engine = unsafe { &*sh.engine.get() };
            let res = engine.racy_probe(&key, dst);
            if sh.seq.read_validate(s1) {
                match res {
                    ProbeResult::Hit => {
                        sh.opt_hits.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    ProbeResult::Miss => {
                        sh.opt_misses.fetch_add(1, Ordering::Relaxed);
                        return false;
                    }
                    // Stable but not optimistically servable (e.g. a
                    // non-contiguous entry): resolve under the lock.
                    ProbeResult::Retry => break,
                }
            }
            sh.opt_retries.fetch_add(1, Ordering::Relaxed);
        }
        sh.locked_reads.fetch_add(1, Ordering::Relaxed);
        let _g = sh.lock.read().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the read lock excludes writers (which take the write
        // lock), so this shared view is stable for the probe's duration.
        let engine = unsafe { &*sh.engine.get() };
        match engine.racy_probe(&key, dst) {
            ProbeResult::Hit => {
                sh.locked_hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            // Under a stable view, Retry means "present but not servable
            // as a contiguous cached block": a miss to the caller.
            ProbeResult::Miss | ProbeResult::Retry => false,
        }
    }

    /// Caches `data` under `key` (replacing any resident entry for the
    /// key), returning the access classification. Takes the owning shard's
    /// write lock; the entry is servable as soon as this returns.
    pub fn insert(&self, key: GetKey, data: &[u8]) -> AccessType {
        let sh = self.shard_of(&key);
        Self::with_write(sh, |engine| {
            // There is no process_lookup on this path, so advance the
            // stripe's logical clock here: each insert is an access event.
            engine.tick();
            // The Cuckoo index forbids duplicate keys: drop any resident
            // entry first (concurrent refresh instead of partial-extend).
            engine.remove_key(&key);
            let class = engine.finish_miss(key, LayoutSig::Contig(data.len()), data, 0);
            // No epochs on the concurrent front: promote immediately so
            // the entry is servable (and optimistically readable) now.
            engine.promote_pending();
            class
        })
    }

    /// Drops every entry overlapping `[lo, hi)` in `target`'s window
    /// across all shards; returns how many were dropped.
    pub fn invalidate_range(&self, target: u32, lo: u64, hi: u64) -> usize {
        self.shards
            .iter()
            .map(|sh| Self::with_write(sh, |engine| engine.invalidate_range(target, lo, hi)))
            .sum()
    }

    /// Resident entries of each stripe, in stripe order (read-locked).
    fn stripe_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.iter().map(|sh| {
            let _g = sh.lock.read().unwrap_or_else(|e| e.into_inner());
            // SAFETY: read lock held — stable shared view.
            let engine = unsafe { &*sh.engine.get() };
            engine.len()
        })
    }

    /// Number of resident entries across all shards (read-locked).
    pub fn len(&self) -> usize {
        self.stripe_lens().sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merged statistics across shards. Hits from the lock-free path are
    /// folded into `hits`/`total_gets`; `opt_retries` and `locked_reads`
    /// report the seqlock's health. Misses observed by [`ShardedCache::get`]
    /// are *not* counted here — the caller's follow-up insert classifies
    /// them — so for get-then-insert-on-miss usage
    /// `hits + direct + conflicting + capacity + failed == total_gets`.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for sh in self.shards.iter() {
            let _g = sh.lock.read().unwrap_or_else(|e| e.into_inner());
            // SAFETY: read lock held — stable shared view.
            let engine = unsafe { &*sh.engine.get() };
            total.merge(engine.stats());
            let hits = sh.opt_hits.load(Ordering::Relaxed) + sh.locked_hits.load(Ordering::Relaxed);
            total.hits += hits;
            total.total_gets += hits;
            total.opt_retries += sh.opt_retries.load(Ordering::Relaxed);
            total.locked_reads += sh.locked_reads.load(Ordering::Relaxed);
        }
        total
    }

    /// Total write-lock acquisitions across shards (every insert and
    /// invalidation takes exactly one). Flat across a read-only phase by
    /// construction; the contention bench asserts it.
    pub fn write_lock_acquisitions(&self) -> u64 {
        self.shards
            .iter()
            .map(|sh| sh.write_locks.load(Ordering::Relaxed))
            .sum()
    }

    /// Optimistic reads discarded by a failed sequence validation.
    pub fn optimistic_retries(&self) -> u64 {
        self.shards
            .iter()
            .map(|sh| sh.opt_retries.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("write_locks", &self.write_lock_acquisitions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    fn key(t: u32, d: u64) -> GetKey {
        GetKey { target: t, disp: d }
    }

    fn cache(shards: usize) -> ShardedCache {
        ShardedCache::new(CacheParams {
            index_entries: 256,
            storage_bytes: 256 << 10,
            shards,
            ..CacheParams::default()
        })
    }

    #[test]
    fn insert_then_get_roundtrip() {
        let c = cache(4);
        for i in 0..64u64 {
            let class = c.insert(key(0, i * 100), &[i as u8; 64]);
            assert_eq!(class, AccessType::Direct, "i={i}");
        }
        assert_eq!(c.len(), 64);
        for i in 0..64u64 {
            let mut dst = vec![0u8; 64];
            assert!(c.get(key(0, i * 100), &mut dst), "i={i}");
            assert_eq!(dst, vec![i as u8; 64]);
        }
        let s = c.stats();
        assert_eq!(s.hits, 64);
        assert_eq!(s.direct, 64);
        assert_eq!(s.total_gets, 128);
    }

    #[test]
    fn four_stripes_split_the_index_and_serve_what_fits() {
        // 256 index entries over 4 stripes: every stripe has room for 64,
        // so the 64 keys all fit whichever stripes they hash to.
        let c = cache(4);
        for i in 0..64u64 {
            assert_eq!(
                c.insert(key(0, i * 1000), &[i as u8; 128]),
                AccessType::Direct
            );
        }
        assert!(
            c.stripe_lens().all(|n| n > 0),
            "64 keys over 4 stripes should touch every stripe"
        );
        for i in 0..64u64 {
            let mut dst = vec![0u8; 128];
            assert!(c.get(key(0, i * 1000), &mut dst), "i={i}");
            assert_eq!(dst, vec![i as u8; 128]);
        }
        // Far more keys than slots: no stripe ever outgrows its share.
        for i in 64..2048u64 {
            c.insert(key(1, i * 8), &[i as u8; 8]);
            assert!(c.stripe_lens().all(|n| n <= 64), "after insert {i}");
        }
        assert!(c.len() > 128, "the stripes filled up: {}", c.len());
    }

    /// The front's `get` and `insert`, spelled on a bare engine.
    fn engine_get_or_insert(
        e: &mut RmaCache,
        k: GetKey,
        data: &[u8],
        dst: &mut [u8],
    ) -> Option<AccessType> {
        if e.racy_probe(&k, dst) == ProbeResult::Hit {
            return None;
        }
        e.tick();
        e.remove_key(&k);
        let class = e.finish_miss(k, LayoutSig::Contig(data.len()), data, 0);
        e.promote_pending();
        Some(class)
    }

    #[test]
    fn prop_one_shard_front_equals_the_engine() {
        use crate::eviction::VictimScheme;
        use clampi_prng::prop::check;
        // Stripe 0 of 1 must be the engine `RmaCache::new` builds — the
        // whole capacity, the same hasher and sampler streams — and the
        // seqlock and lock around it must change nothing: same hits, same
        // classes (conflict and capacity evictions included), same bytes.
        check("ShardedCache{shards: 1} == RmaCache", 48, |g| {
            let params = CacheParams {
                index_entries: g.range(4..48usize),
                storage_bytes: g.range(512..8192usize),
                victim_scheme: VictimScheme::ALL[g.range(0..VictimScheme::ALL.len())],
                sample_size: g.range(1..=16usize),
                max_evictions_per_miss: g.range(1..=3usize),
                seed: g.u64(),
                shards: 1,
                ..CacheParams::default()
            };
            let front = ShardedCache::new(params.clone());
            let mut engine = RmaCache::new(params);
            for step in 0..g.range(200..600u64) {
                let k = key(g.range(0..2u64) as u32, g.range(0..48u64) * 8);
                // Mostly one size per key, so that repeats hit.
                let len = match g.bool_with(0.8) {
                    true => 8 + (k.disp as usize * 7) % 200,
                    false => g.range(1..=400usize),
                };
                let data = vec![step as u8; len];
                let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
                let hit = front.get(k, &mut a);
                let class = (!hit).then(|| front.insert(k, &data));
                let expected = engine_get_or_insert(&mut engine, k, &data, &mut b);
                assert_eq!(class, expected, "step {step}: {k:?}, {len} B");
                assert_eq!(a, b, "step {step}: bytes served for {k:?}");
                engine.check_invariants();
            }
            assert_eq!(front.len(), engine.len());
            let (s, e) = (front.stats(), engine.stats());
            assert_eq!(
                (s.direct, s.conflicting, s.capacity, s.failed, s.evictions),
                (e.direct, e.conflicting, e.capacity, e.failed, e.evictions)
            );
        });
    }

    #[test]
    fn get_takes_no_write_locks() {
        let c = cache(2);
        c.insert(key(0, 0), &[1u8; 32]);
        c.insert(key(0, 64), &[2u8; 32]);
        let before = c.write_lock_acquisitions();
        assert_eq!(before, 2);
        let mut dst = [0u8; 32];
        for _ in 0..1000 {
            assert!(c.get(key(0, 0), &mut dst));
            assert!(!c.get(key(7, 0), &mut dst)); // miss path too
        }
        assert_eq!(
            c.write_lock_acquisitions(),
            before,
            "the hit path must take zero write locks"
        );
    }

    #[test]
    fn reinsert_replaces_payload() {
        let c = cache(1);
        c.insert(key(3, 8), &[1u8; 16]);
        c.insert(key(3, 8), &[2u8; 16]);
        assert_eq!(c.len(), 1);
        let mut dst = [0u8; 16];
        assert!(c.get(key(3, 8), &mut dst));
        assert_eq!(dst, [2u8; 16]);
    }

    #[test]
    fn invalidate_range_hits_every_shard() {
        let c = cache(4);
        for i in 0..32u64 {
            c.insert(key(5, i * 64), &[i as u8; 64]);
        }
        assert_eq!(c.invalidate_range(5, 0, u64::MAX), 32);
        assert!(c.is_empty());
        let mut dst = [0u8; 64];
        assert!(!c.get(key(5, 0), &mut dst));
    }

    #[test]
    fn oversized_request_is_a_miss_not_a_panic() {
        let c = cache(1);
        c.insert(key(0, 0), &[7u8; 32]);
        let mut big = [0u8; 64];
        assert!(!c.get(key(0, 0), &mut big));
    }

    #[test]
    fn stats_equation_holds_under_concurrent_mixed_load() {
        let c = Arc::new(cache(4));
        let threads = 4;
        let per_thread_ops = 2000u64;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut dst = vec![0u8; 64];
                    for i in 0..per_thread_ops {
                        let k = key(0, (i % 97) * 64);
                        if !c.get(k, &mut dst) {
                            c.insert(k, &[(i % 97) as u8; 64]);
                        } else {
                            assert_eq!(dst, vec![(k.disp / 64) as u8; 64], "torn read");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            // xlint: allow(no-unwrap) test: propagate worker panics
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(
            s.hits + s.direct + s.conflicting + s.capacity + s.failed,
            s.total_gets,
            "stats classes must partition total_gets"
        );
        assert!(s.hits > 0);
    }
}
