//! Property tests for the concurrent sharded cache front
//! (`CLAMPI_PROP_SEED` replays a single case; `CLAMPI_PROP_CASES`
//! overrides the counts).
//!
//! Properties:
//!
//! 1. **no torn reads, stats always partition** — N real threads hammer
//!    one [`ShardedCache`] with a random mix of gets, stamped inserts and
//!    range invalidations. Every payload is self-identifying (each byte is
//!    a function of the key, the byte position and a per-insert stamp), so
//!    a hit whose bytes mix two stamps — a torn read that got past the
//!    stripe lock — fails immediately. After the threads join, the merged
//!    stats must satisfy `hits + direct + conflicting + capacity + failed
//!    == total_gets` for the get-then-insert-on-miss usage the front
//!    documents.
//! 2. **the windowed engine keeps the same partition single-threaded** —
//!    a random mix of `get`/`get_nb`/`put` (with interleaved flushes)
//!    against a [`CachedWindow`] leaves the classification equation exact,
//!    so the concurrent front and the deterministic engine agree on what
//!    the stats mean.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use clampi::index::GetKey;
use clampi::{CacheParams, CachedWindow, ClampiConfig, Mode, ShardedCache};
use clampi_datatype::Datatype;
use clampi_prng::prop::check;
use clampi_prng::SmallRng;
use clampi_rma::{run_collect, SimConfig};

/// Byte `j` of the payload for key `i` inserted with `stamp`. Positional
/// and stamped: any prefix identifies the stamp, and bytes from two
/// different inserts can never agree on one stamp.
fn payload_byte(i: usize, stamp: u8, j: usize) -> u8 {
    let tag = (i as u64).wrapping_mul(0x9E37_79B9).to_le_bytes();
    stamp ^ tag[j % 8] ^ (j as u8)
}

fn payload(i: usize, stamp: u8, len: usize) -> Vec<u8> {
    (0..len).map(|j| payload_byte(i, stamp, j)).collect()
}

fn key_of(i: usize, val: usize) -> GetKey {
    GetKey {
        target: 1,
        disp: (i * val) as u64,
    }
}

#[test]
fn prop_sharded_cache_concurrent_mixed_ops() {
    check("sharded_cache_concurrent_mixed_ops", 24, |g| {
        let shards = g.range(1..=8usize);
        let keys = g.range(8..=48usize);
        let threads = g.range(2..=4usize);
        let ops = g.range(200..=800usize);
        let val = 8 * g.range(2..=12usize);
        let seed = g.u64();

        let cache = Arc::new(ShardedCache::new(CacheParams {
            index_entries: keys * 4,
            storage_bytes: keys * val * 4,
            shards,
            ..CacheParams::default()
        }));
        // Seed every key so early gets have something to tear.
        for i in 0..keys {
            cache.insert(key_of(i, val), &payload(i, 0, val));
        }
        let torn = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                let torn = Arc::clone(&torn);
                std::thread::spawn(move || {
                    let mut rng =
                        SmallRng::seed_from_u64(seed ^ (tid as u64 + 1).wrapping_mul(0xC2B2));
                    let mut dst = vec![0u8; val];
                    barrier.wait();
                    for op in 0..ops {
                        let i = rng.gen_range(0..keys);
                        let roll = rng.gen_range(0..100u32);
                        if roll < 70 {
                            if cache.get(key_of(i, val), &mut dst) {
                                // Recover the stamp from byte 0, then every
                                // byte must agree with it.
                                let stamp = dst[0] ^ payload_byte(i, 0, 0);
                                if (0..val).any(|j| dst[j] != payload_byte(i, stamp, j)) {
                                    torn.fetch_add(1, Ordering::Relaxed);
                                }
                            } else {
                                cache.insert(
                                    key_of(i, val),
                                    &payload(i, (tid * 64 + op % 64) as u8, val),
                                );
                            }
                        } else if roll < 95 {
                            cache.insert(
                                key_of(i, val),
                                &payload(i, (tid * 64 + op % 64) as u8, val),
                            );
                        } else {
                            let lo = (i * val) as u64;
                            cache.invalidate_range(1, lo, lo + (val * 4) as u64);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            // xlint: allow(no-unwrap) test: propagate worker panics
            h.join().unwrap();
        }
        assert_eq!(
            torn.load(Ordering::Relaxed),
            0,
            "torn read: a get saw an insert's bytes half-written under the stripe lock"
        );
        let s = cache.stats();
        assert_eq!(
            s.hits + s.direct + s.conflicting + s.capacity + s.failed,
            s.total_gets,
            "stats classes must partition total_gets: {s:?}"
        );
        assert!(cache.len() <= keys, "len can never exceed the key universe");
    });
}

#[test]
fn prop_windowed_engine_keeps_stats_partition() {
    check("windowed_engine_keeps_stats_partition", 24, |g| {
        let records = g.range(4..=16usize);
        let rec_len = 8 * g.range(1..=8usize);
        let ops = g.range(20..=120usize);
        let seed = g.u64();
        let win_size = records * rec_len;

        let reports = run_collect(SimConfig::bench(), 2, move |p| {
            let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default());
            let mut win = CachedWindow::create(p, win_size, cfg);
            if p.rank() == 1 {
                win.local_mut().fill(7);
            }
            p.barrier();
            if p.rank() == 0 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let dt = Datatype::bytes(rec_len);
                let mut dst = vec![0u8; rec_len];
                win.lock_all(p);
                for _ in 0..ops {
                    let r = rng.gen_range(0..records);
                    match rng.gen_range(0..10u32) {
                        0..=4 => {
                            win.get(p, &mut dst, 1, r * rec_len, &dt, 1);
                        }
                        5..=7 => {
                            win.get_nb(p, &mut dst, 1, r * rec_len, &dt, 1);
                        }
                        8 => {
                            // A put gets an epoch of its own: MPI-3 forbids
                            // it to share one with an access to the same
                            // bytes (RMASAN flags that under CLAMPI_SAN=1).
                            let src = vec![rng.gen_range(0..=255u32) as u8; rec_len];
                            win.flush_all(p);
                            win.put(p, &src, 1, r * rec_len, &dt, 1);
                            win.flush_all(p);
                        }
                        _ => win.flush_all(p),
                    }
                }
                win.flush_all(p);
                let s = win.stats();
                assert_eq!(
                    s.hits + s.direct + s.conflicting + s.capacity + s.failed,
                    s.total_gets,
                    "stats classes must partition total_gets: {s:?}"
                );
                win.unlock_all(p);
            }
            p.barrier();
        });
        assert_eq!(reports.len(), 2);
    });
}
