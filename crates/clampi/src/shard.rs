//! The concurrent cache front: N engines, one per hash stripe, each behind
//! its own reader–writer lock — the tool foMPI builds `MPI_Win_lock` from.
//! How keys, capacity and seeds are split across stripes is decided here
//! and nowhere else (`stripe_engine`, `shard_of`): the engine does not know
//! it is one of several. There is no protocol beyond the lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::cache::{CacheParams, LayoutSig, RmaCache};
use crate::index::GetKey;
use crate::stats::{AccessType, CacheStats};

/// Derives stripe `stripe`'s seed from a base seed. Stripe 0 keeps the base
/// unchanged so a one-shard front reproduces the engine's seed streams
/// bit-for-bit; the odd multiplier decorrelates the other stripes.
fn shard_seed(base: u64, stripe: usize) -> u64 {
    base.wrapping_add((stripe as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// The engine of stripe `stripe` of a `params.shards`-way front (at least
/// one): an even share of the index and storage, its own hasher and
/// sampler seeds, no policy lab (a read-locked get could not feed it).
fn stripe_engine(params: &CacheParams, stripe: usize) -> RmaCache {
    let per_stripe = CacheParams {
        index_entries: (params.index_entries / params.shards).max(1),
        storage_bytes: params.storage_bytes / params.shards,
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
    engine: RwLock<RmaCache>,
    /// Write-lock acquisitions (`fig_contention` asserts gets add none).
    write_locks: AtomicU64,
    /// Hits served by [`ShardedCache::get`]; `peek` cannot count them.
    hits: AtomicU64,
}

impl Shard {
    // A panic under a lock leaves the engine as consistent as the same
    // panic would single-threaded, so poison is absorbed, not propagated.
    fn read(&self) -> RwLockReadGuard<'_, RmaCache> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, RmaCache> {
        self.write_locks.fetch_add(1, Ordering::Relaxed);
        self.engine.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A thread-safe sharded cache: one independent [`RmaCache`] per stripe of
/// the [`GetKey`] ([`GetKey::stripe`] `mod` [`CacheParams::shards`]), each
/// behind its own `RwLock`. A get takes its stripe's *read* lock, so
/// readers of one stripe run side by side; inserts and invalidations take
/// the *write* lock (a miss already pays a network round trip).
///
/// Unlike [`crate::RmaCache`] there are no epochs: inserted entries are
/// servable immediately, and a get that misses records no statistics by
/// itself — the caller's subsequent [`ShardedCache::insert`] classifies
/// the access, so `hits + direct + conflicting + capacity + failed ==
/// total_gets` holds exactly for get-then-insert-on-miss usage.
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
    /// A fresh cache of `params.shards` stripes (at least one), with
    /// `index_entries` and `storage_bytes` divided evenly across them.
    pub fn new(mut params: CacheParams) -> Self {
        params.shards = params.shards.max(1);
        let shards = (0..params.shards)
            .map(|i| Shard {
                engine: RwLock::new(stripe_engine(&params, i)),
                write_locks: AtomicU64::new(0),
                hits: AtomicU64::new(0),
            })
            .collect();
        ShardedCache { params, shards }
    }

    /// Current parameters (with `shards` normalized to at least 1).
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    fn shard_of(&self, key: &GetKey) -> &Shard {
        &self.shards[(key.stripe() % self.shards.len() as u64) as usize]
    }

    /// Copies `key`'s payload into `dst` on a hit. `false` means absent or
    /// `dst` longer than the cached entry: a miss, the caller may insert.
    pub fn get(&self, key: GetKey, dst: &mut [u8]) -> bool {
        let sh = self.shard_of(&key);
        let hit = sh.read().peek(&key, dst);
        if hit {
            sh.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Caches `data` under `key`, replacing any resident entry for it;
    /// returns the access classification. Servable as soon as this returns.
    pub fn insert(&self, key: GetKey, data: &[u8]) -> AccessType {
        let mut engine = self.shard_of(&key).write();
        // No process_lookup on this path: the insert is the access event.
        engine.tick();
        // The Cuckoo index forbids duplicate keys: drop any resident
        // entry first (concurrent refresh instead of partial-extend).
        engine.remove_key(&key);
        let class = engine.finish_miss(key, LayoutSig::Contig(data.len()), data, 0);
        // No epochs on the concurrent front: promote immediately.
        engine.promote_pending();
        class
    }

    /// Drops every entry overlapping `[lo, hi)` of `target`, on all shards;
    /// returns how many were dropped.
    pub fn invalidate_range(&self, target: u32, lo: u64, hi: u64) -> usize {
        let drop_in = |sh: &Shard| sh.write().invalidate_range(target, lo, hi);
        self.shards.iter().map(drop_in).sum()
    }

    /// Resident entries of each stripe, in stripe order.
    fn stripe_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.iter().map(|sh| sh.read().len())
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.stripe_lens().sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merged statistics across shards, the front's hits folded in.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for sh in self.shards.iter() {
            total.merge(sh.read().stats());
            let hits = sh.hits.load(Ordering::Relaxed);
            total.hits += hits;
            total.total_gets += hits;
        }
        total
    }

    /// Write-lock acquisitions: one per insert, one per shard per
    /// invalidation, none per get.
    pub fn write_lock_acquisitions(&self) -> u64 {
        let locks = |sh: &Shard| sh.write_locks.load(Ordering::Relaxed);
        self.shards.iter().map(locks).sum()
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

    /// The auto traits carry the whole thread-safety claim: this stops
    /// compiling if a stripe ever holds a `!Send` or `!Sync` field.
    #[test]
    fn front_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedCache>();
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
        if e.peek(&k, dst) {
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
        // lock around it must change nothing: same hits, same classes
        // (conflict and capacity evictions included), same bytes.
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
