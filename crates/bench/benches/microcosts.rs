//! Wall-clock micro-benchmarks of the core CLaMPI data structures,
//! complementing the virtual-time figure binaries. Runs under the
//! in-tree [`clampi_bench::timer`] harness (`harness = false`).
//!
//! These verify the complexity claims the paper's design rests on:
//! constant-time Cuckoo lookups, `O(log N)` best-fit allocation, constant
//! per-slot eviction scans, and a hit path that is just lookup + memcpy.
//!
//! Run with `cargo bench --bench microcosts`.

use std::hint::black_box;

use clampi::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
use clampi::index::{CuckooIndex, GetKey, InsertOutcome};
use clampi::storage::{FreeIndex, Storage};
use clampi::{AccessType, CacheCostModel, CachedWindow, ClampiConfig, CoherenceMode, Mode};
use clampi_bench::timer::Bench;
use clampi_datatype::Datatype;
use clampi_prng::SmallRng;
use clampi_rma::{run_collect, Process, SimConfig};
use clampi_workloads::micro::MicroParams;
use clampi_workloads::{MicroWorkload, Zipf};

fn key(d: u64) -> GetKey {
    GetKey { target: 1, disp: d }
}

fn bench_cuckoo() {
    let b = Bench::new("cuckoo");
    for &cap in &[1024usize, 16384, 262144] {
        // ~80% load factor.
        let mut ix = CuckooIndex::new(cap, 32, 7);
        let n = cap * 4 / 5;
        let mut inserted = Vec::new();
        for d in 0..n as u64 {
            if matches!(
                ix.insert(key(d * 64), d as u32),
                InsertOutcome::Placed { .. }
            ) {
                inserted.push(d * 64);
            }
        }
        let mut i = 0;
        b.run(&format!("lookup_hit/{cap}"), || {
            i = (i + 1) % inserted.len();
            black_box(ix.lookup(&key(inserted[i])));
        });
        let mut d = 1u64;
        b.run(&format!("lookup_miss/{cap}"), || {
            d = d.wrapping_add(97);
            black_box(ix.lookup(&key(d * 64 + 1)));
        });
    }

    // A conflicting insert on a full table at `miss_churn`'s index size
    // with the default 32-step budget: one search that finds no free slot,
    // then one eviction on its path (the oldest pair, standing in for the
    // engine's lowest score). The table stays full.
    let cap = 1120;
    let mut ix = CuckooIndex::new(cap, 32, 7);
    let mut d = 0u64;
    while ix.len() < cap && d < 100 * cap as u64 {
        d += 1;
        conflict_insert(&mut ix, d);
    }
    b.run("conflict_insert", || {
        d += 1;
        black_box(conflict_insert(&mut ix, d));
    });
}

/// Inserts key `d`; a `Full` search evicts the pair with the smallest
/// entry id on its path. Returns whether the search came back `Full`.
fn conflict_insert(ix: &mut CuckooIndex, d: u64) -> bool {
    if let InsertOutcome::Full { .. } = ix.insert(key(d * 64), d as u32) {
        let oldest = ix.last_path().min_by_key(|&(_, _, e)| e);
        let (j, _, _) = oldest.expect("a Full search displaces at least one pair");
        ix.evict_on_path(j);
        return true;
    }
    false
}

fn bench_free_index() {
    let b = Bench::new("free_index");
    for &n in &[256usize, 4096, 65536] {
        // Line-multiple lengths spread over the small classes and the table.
        let len = |i: usize| ((i * 7919) % (n * 8) / 64 + 1) * 64;
        b.run(&format!("insert_remove/{n}"), || {
            let mut t = FreeIndex::new();
            for i in 0..n {
                t.insert(len(i), i * 64, i as u32);
            }
            for i in 0..n {
                t.remove(len(i), i * 64, i as u32);
            }
            black_box(t.len());
        });
        let mut t = FreeIndex::new();
        for i in 0..n {
            t.insert(len(i), i * 64, i as u32);
        }
        let mut want = 1;
        b.run(&format!("best_fit/{n}"), || {
            want = (want * 31 + 7) % (n * 8) + 1;
            black_box(t.best_fit(want.next_multiple_of(64)));
        });
    }
}

fn bench_storage() {
    let b = Bench::new("storage");
    let mut s = Storage::new(1 << 20);
    let mut live = Vec::new();
    let mut sz = 64usize;
    b.run("alloc_free_churn", || {
        sz = (sz * 31 + 97) % 4000 + 1;
        if let Some(id) = s.alloc(sz, 0) {
            live.push(id);
        }
        if live.len() > 100 {
            s.free(live.swap_remove(sz % live.len()));
        }
    });
    black_box(live.len());
    // dht_mixed's shape: 2 MiB of 64-B entries with thousands of scattered
    // 64-B holes; each iteration frees a random entry and allocates 64 B,
    // which best fit takes from the lowest-offset hole.
    let mut s = Storage::new(2 << 20);
    let mut live: Vec<_> = (0..(2 << 20) / 64).map_while(|i| s.alloc(64, i)).collect();
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..4096 {
        s.free(live.swap_remove(rng.gen_range(0..live.len())));
    }
    b.run("equal_holes_churn", || {
        s.free(live.swap_remove(rng.gen_range(0..live.len())));
        live.push(s.alloc(64, 0).expect("a 64-B hole"));
    });
    black_box(live.len());
}

fn bench_cache_paths() {
    let b = Bench::new("cache_paths");
    for &size in &[256usize, 4096] {
        // Hit path: lookup + memcpy out of storage.
        let mut cache = RmaCache::new(CacheParams {
            index_entries: 4096,
            storage_bytes: 64 << 20,
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        });
        let data = vec![7u8; size];
        let sig = LayoutSig::Contig(size);
        for d in 0..512u64 {
            let mut dst = vec![0u8; size];
            assert_eq!(
                cache.process_lookup(key(d * size as u64), &sig, &mut dst),
                Lookup::Miss
            );
            cache.finish_miss(key(d * size as u64), sig.clone(), &data, 0);
        }
        cache.epoch_close();
        let mut dst = vec![0u8; size];
        let mut d = 0u64;
        b.run_with_throughput(&format!("hit/{size}"), size as u64, || {
            d = (d + 1) % 512;
            let r = cache.process_lookup(key(d * size as u64), &sig, &mut dst);
            debug_assert_eq!(r, Lookup::Hit);
            black_box(dst[0]);
        });

        // Miss + install + evict path under capacity pressure.
        let mut cache = RmaCache::new(CacheParams {
            index_entries: 64,
            storage_bytes: 8 * size.next_multiple_of(64),
            costs: CacheCostModel::free(),
            ..CacheParams::default()
        });
        let mut d = 0u64;
        b.run_with_throughput(&format!("capacity_miss/{size}"), size as u64, || {
            d += 1;
            let r = cache.process_lookup(key(d * size as u64), &sig, &mut dst);
            debug_assert_eq!(r, Lookup::Miss);
            let class = cache.finish_miss(key(d * size as u64), sig.clone(), &data, 0);
            cache.epoch_close();
            black_box(class == AccessType::Failed);
        });
    }
}

/// The layers a get crosses above the engine, in wall-clock time: a warm
/// `CachedWindow::get` hit (contiguous, and through a repeated strided
/// type), and one displacement step of a Cuckoo insertion walk.
fn bench_hot_path() {
    const KEYS: usize = 512;
    const SLOT: usize = 512;
    let b = Bench::new("hot_path");
    run_collect(SimConfig::bench(), 2, |p| {
        let params = CacheParams {
            index_entries: 4096,
            storage_bytes: 1 << 20,
            ..CacheParams::default()
        };
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params);
        let mut win = CachedWindow::create(p, KEYS * SLOT, cfg);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            // 256 B of payload either way; the strided type spans 448 B.
            let contig = Datatype::bytes(256);
            let strided = Datatype::vector(4, 1, 2, Datatype::bytes(64));
            let mut dst = [0u8; 256];
            for (name, dtype) in [
                ("window_hit_contig_256", &contig),
                ("window_hit_strided_256", &strided),
            ] {
                win.invalidate(p);
                for k in 0..KEYS {
                    win.get(p, &mut dst, 1, k * SLOT, dtype, 1);
                }
                win.flush_all(p);
                let mut k = 0;
                b.run(name, || {
                    k = (k + 1) % KEYS;
                    let class = win.get(p, &mut dst, 1, k * SLOT, dtype, 1);
                    debug_assert_eq!(class, Some(AccessType::Hit));
                    black_box(dst[0]);
                });
            }
            win.unlock_all(p);
        }
        p.barrier();
    });

    // A full table with a walk budget of one step: every insert probes its
    // four (occupied) candidates, records one displacement and reports the
    // search `Full` - exactly one walk step, and the table is untouched.
    let cap = 16384;
    let mut ix = CuckooIndex::new(cap, 1, 7);
    let mut d = 0u64;
    while ix.len() < cap {
        d += 1;
        ix.insert(key(d * 64), d as u32);
    }
    b.run("cuckoo_insert_step", || {
        d += 1;
        black_box(ix.insert(key(d * 64), d as u32));
    });
}

/// A window hit at `dht_mixed`'s footprint, where the engine's metadata
/// no longer fits the core's caches: `window_hit_24_dht` reads through two
/// cached windows on one thread (two ranks' caches sharing a core), each
/// with a 2^15-slot index and 14,500 resident 24-B records, in Zipf(0.99)
/// batches of 800 gets that alternate between the windows. Records are
/// cached in the order the stream first reads them, as `dht_mixed`'s
/// lookups cache them, then the ones it never reads.
/// `rma_get_flush_24_dht` issues the same stream through two uncached
/// windows, each get followed by a flush: the cost a hit replaces. Read
/// the `min` column.
fn bench_hot_path_dht() {
    const RECORDS: usize = 14_500;
    const REC: usize = 24;
    const BATCH: usize = 800;
    const STREAM: usize = 64 * BATCH;
    let b = Bench::new("hot_path");
    // Zipf ranks scattered over the records by a bijection (7919 is prime
    // and does not divide `RECORDS`), so hot records are not neighbours.
    let mut zipf = Zipf::new(RECORDS, 0.99, 42);
    let stream: Vec<usize> = (0..STREAM)
        .map(|_| zipf.sample() * 7919 % RECORDS * REC)
        .collect();
    let all: Vec<usize> = (0..RECORDS).map(|k| k * REC).collect();
    let cached = ClampiConfig::fixed(
        Mode::AlwaysCache,
        CacheParams {
            index_entries: 1 << 15,
            storage_bytes: 2 << 20,
            coherence: CoherenceMode::EagerInvalidate,
            ..CacheParams::default()
        },
    );
    for (name, cfg) in [
        ("window_hit_24_dht", cached),
        ("rma_get_flush_24_dht", ClampiConfig::disabled()),
    ] {
        run_collect(SimConfig::bench(), 2, |p| {
            let mut wins: Vec<_> = (0..2)
                .map(|_| CachedWindow::create(p, RECORDS * REC, cfg.clone()))
                .collect();
            p.barrier();
            if p.rank() == 0 {
                let (dtype, mut dst) = (Datatype::bytes(REC), [0u8; REC]);
                for win in &mut wins {
                    win.lock_all(p);
                    for &disp in stream.iter().chain(&all) {
                        win.get(p, &mut dst, 1, disp, &dtype, 1);
                    }
                    win.flush_all(p);
                }
                let mut i = 0;
                b.run(name, || {
                    let win = &mut wins[i / BATCH % 2];
                    let class = win.get(p, &mut dst, 1, stream[i], &dtype, 1);
                    if class.is_none() {
                        win.flush(p, 1);
                    }
                    debug_assert!(class.is_none() || class == Some(AccessType::Hit));
                    black_box(dst[0]);
                    i = (i + 1) % STREAM;
                });
                for win in &mut wins {
                    win.unlock_all(p);
                }
            }
            p.barrier();
        });
    }
}

/// A window hit at `hit_small`'s footprint: 16,384 keys of 256 B, each in
/// a 512-B slot at a seeded random position, one cached window with a
/// 2^16-slot index and storage for all of them, and a Zipf(0.99) stream in
/// which the keys with `k % 4 == 3` are read through a strided vector of
/// the same 256 B (a 448-B span). `window_hit_256_hs` replays the stream
/// warm, every get a hit; `rma_get_flush_256_hs` replays it through an
/// uncached window, each get followed by a flush: the cost a hit
/// replaces. Read the `min` column.
fn bench_hot_path_hs() {
    const KEYS: usize = 16_384;
    const SLOT: usize = 512;
    const LEN: usize = 256;
    const STREAM: usize = 1 << 16;
    let b = Bench::new("hot_path");
    let mut rng = SmallRng::seed_from_u64(21);
    let mut slot_of: Vec<usize> = (0..KEYS).collect();
    for i in (1..KEYS).rev() {
        slot_of.swap(i, rng.gen_below(i as u64 + 1) as usize);
    }
    let mut zipf = Zipf::new(KEYS, 0.99, 21);
    let stream: Vec<(usize, bool)> = (0..STREAM)
        .map(|_| {
            let k = zipf.sample();
            (slot_of[k] * SLOT, k % 4 == 3)
        })
        .collect();
    let cached = ClampiConfig::fixed(
        Mode::AlwaysCache,
        CacheParams {
            index_entries: 1 << 16,
            storage_bytes: 64 << 20,
            ..CacheParams::default()
        },
    );
    for (name, cfg) in [
        ("window_hit_256_hs", cached),
        ("rma_get_flush_256_hs", ClampiConfig::disabled()),
    ] {
        run_collect(SimConfig::bench(), 2, |p| {
            let mut win = CachedWindow::create(p, KEYS * SLOT, cfg.clone());
            p.barrier();
            if p.rank() == 0 {
                let contig = Datatype::bytes(LEN);
                let strided = Datatype::vector(4, 1, 2, Datatype::bytes(64));
                let dtype = |strided_key| if strided_key { &strided } else { &contig };
                let mut dst = [0u8; LEN];
                win.lock_all(p);
                for &(disp, s) in &stream {
                    win.get(p, &mut dst, 1, disp, dtype(s), 1);
                }
                win.flush_all(p);
                let mut i = 0;
                b.run(name, || {
                    let (disp, s) = stream[i];
                    let class = win.get(p, &mut dst, 1, disp, dtype(s), 1);
                    if class.is_none() {
                        win.flush(p, 1);
                    }
                    debug_assert!(class.is_none() || class == Some(AccessType::Hit));
                    black_box(dst[0]);
                    i = (i + 1) % STREAM;
                });
                win.unlock_all(p);
            }
            p.barrier();
        });
    }
}

/// The miss path at `miss_churn`'s parameters: the paper's Sec. IV-A
/// micro-benchmark stream (`MicroWorkload`, 4,096 distinct gets of 64 B to
/// 16 KiB, 2^17 of them issued), a 1,120-slot index, 1,792 KiB of storage
/// and weak caching, where two gets in three miss and a miss walks the
/// Cuckoo table, scans for a victim and allocates. `engine_mc` replays the
/// stream through the engine alone: `process_lookup`, and on a miss
/// `finish_miss` and `epoch_close`. `window_mc` replays it through a cached
/// window, each get followed by a flush unless it hit; `rma_get_flush_mc`
/// through an uncached one, get + flush each: the cost the cache replaces.
/// Each iteration is one get; read the `min` column.
fn bench_miss_path_mc() {
    let wl = MicroWorkload::generate(
        MicroParams {
            distinct: 4096,
            sequence_len: 1 << 17,
            max_exp: 8,
        },
        42,
    );
    let stream: Vec<(usize, usize)> = wl.issued().map(|g| (g.disp << 6, g.size << 6)).collect();
    let window = wl.window_size << 6;
    let params = CacheParams {
        index_entries: 1120,
        storage_bytes: 1792 << 10,
        ..CacheParams::default()
    };
    let b = Bench::new("miss_path");
    let mut cache = RmaCache::new(params.clone());
    let src: Vec<u8> = (0..window).map(|i| i as u8).collect();
    let mut dst = vec![0u8; 16 << 10];
    let mut i = 0;
    b.run("engine_mc", || {
        let (disp, len) = stream[i];
        let (key, sig) = (key(disp as u64), LayoutSig::Contig(len));
        // Every key has one size: a lookup hits or misses, never partly.
        if cache.process_lookup(key, &sig, &mut dst[..len]) == Lookup::Miss {
            cache.finish_miss(key, sig, &src[disp..disp + len], 0);
            cache.epoch_close();
        }
        black_box(dst[0]);
        i = (i + 1) % stream.len();
    });
    for (name, cfg) in [
        ("window_mc", ClampiConfig::fixed(Mode::AlwaysCache, params)),
        ("rma_get_flush_mc", ClampiConfig::disabled()),
    ] {
        run_collect(SimConfig::bench(), 2, |p| {
            let mut win = CachedWindow::create(p, window, cfg.clone());
            p.barrier();
            if p.rank() == 0 {
                win.lock_all(p);
                let mut dst = vec![0u8; 16 << 10];
                let mut i = 0;
                b.run(name, || {
                    let (disp, len) = stream[i];
                    let dtype = Datatype::bytes(len);
                    let class = win.get(p, &mut dst[..len], 1, disp, &dtype, 1);
                    if class != Some(AccessType::Hit) {
                        win.flush(p, 1);
                    }
                    black_box(dst[0]);
                    i = (i + 1) % stream.len();
                });
                win.unlock_all(p);
            }
            p.barrier();
        });
    }
}

/// `validate` in wall-clock time, on one warm `EagerInvalidate` window
/// holding 512 cached records of target 1. Each iteration re-dirties 64 of
/// them through the inner window (its cache is not told) and flushes it;
/// `validate_refresh_64` then also validates, which drains the 64 put
/// records, refreshes the 64 stale entries in place and flushes. The put
/// batch alone is the other rung, so validate's share is the difference.
fn bench_coherence() {
    const RECORDS: usize = 512;
    const DIRTY: usize = 64;
    const REC: usize = 64;
    let b = Bench::new("coherence");
    // A ring that holds one iteration's records, so no drain overflows.
    let sim = SimConfig::bench().with_notify_ring_cap(4 * DIRTY);
    run_collect(sim, 2, |p| {
        let params = CacheParams {
            index_entries: 4096,
            storage_bytes: 1 << 20,
            coherence: CoherenceMode::EagerInvalidate,
            ..CacheParams::default()
        };
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params);
        let mut win = CachedWindow::create(p, RECORDS * REC, cfg);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let dtype = Datatype::bytes(REC);
            let mut dst = [0u8; REC];
            for k in 0..RECORDS {
                win.get(p, &mut dst, 1, k * REC, &dtype, 1);
            }
            win.flush_all(p);
            // Every eighth record from a rotating start: no two adjacent.
            let mut round = 0usize;
            let mut dirty = |win: &mut CachedWindow, p: &mut Process| {
                round += 1;
                let src = [round as u8; REC];
                for i in 0..DIRTY {
                    let k = (round + 8 * i) % RECORDS;
                    win.inner_mut().put(p, &src, 1, k * REC, &dtype, 1);
                }
                win.inner_mut().flush(p, 1);
            };
            b.run("put_batch_64", || dirty(&mut win, p));
            win.validate(p);
            b.run("validate_refresh_64", || {
                dirty(&mut win, p);
                win.validate(p);
            });
            win.unlock_all(p);
        }
        p.barrier();
    });
}

/// The two coherence phases of a `dht_mixed` round at its footprint: two
/// `EagerInvalidate` windows on one thread, 2^15 slots and 14,500 resident
/// 24-B records of target 1 each, used in turn (each iteration finds the
/// other window's lines cold, as the table's two ranks do). Each iteration
/// touches 70 records scattered over the table. `own_flush_70_dht`: the
/// writer's round, 70 puts through the cached window (each covering a
/// cached record exactly) and the flush that drains their records.
/// `validate_70_dht`: the reader's round, 70 puts through the inner
/// window (another origin's writes, as far as the cache can tell), their
/// flush, and `validate`, which drains them and refreshes the 70 entries
/// in place.
fn bench_coherence_dht() {
    const RECORDS: usize = 14_500;
    const REC: usize = 24;
    const PUTS: usize = 70;
    let b = Bench::new("coherence");
    let cfg = ClampiConfig::fixed(
        Mode::AlwaysCache,
        CacheParams {
            index_entries: 1 << 15,
            storage_bytes: 2 << 20,
            coherence: CoherenceMode::EagerInvalidate,
            ..CacheParams::default()
        },
    );
    let sim = SimConfig::bench().with_notify_ring_cap(4 * PUTS);
    for name in ["own_flush_70_dht", "validate_70_dht"] {
        run_collect(sim.clone(), 2, |p| {
            let mut wins: Vec<_> = (0..2)
                .map(|_| CachedWindow::create(p, RECORDS * REC, cfg.clone()))
                .collect();
            p.barrier();
            if p.rank() == 0 {
                let (dtype, mut dst) = (Datatype::bytes(REC), [0u8; REC]);
                for win in &mut wins {
                    win.lock_all(p);
                    for k in 0..RECORDS {
                        win.get(p, &mut dst, 1, k * REC, &dtype, 1);
                    }
                    win.flush_all(p);
                    // One drained foreign write builds the extent directory.
                    win.inner_mut().put(p, &dst, 1, 0, &dtype, 1);
                    win.validate(p);
                }
                let mut round = 0usize;
                b.run(name, || {
                    round += 1;
                    let win = &mut wins[round % 2];
                    let src = [round as u8; REC];
                    for i in 0..PUTS {
                        let disp = (round * PUTS + i) * 7919 % RECORDS * REC;
                        match name {
                            "own_flush_70_dht" => win.put(p, &src, 1, disp, &dtype, 1),
                            _ => win.inner_mut().put(p, &src, 1, disp, &dtype, 1),
                        }
                    }
                    match name {
                        "own_flush_70_dht" => win.flush(p, 1),
                        _ => {
                            win.inner_mut().flush(p, 1);
                            win.validate(p);
                        }
                    }
                });
                for win in &mut wins {
                    win.unlock_all(p);
                }
            }
            p.barrier();
        });
    }
}

fn bench_datatype() {
    let b = Bench::new("datatype");
    let strided = Datatype::vector(64, 1, 4, Datatype::double());
    b.run("flatten_strided_64", || {
        black_box(strided.flatten());
    });
    let layout = strided.flatten();
    let src = vec![1u8; layout.span()];
    let mut dst = vec![0u8; layout.total_size()];
    let bytes = layout.total_size() as u64;
    b.run_with_throughput("pack_strided_64", bytes, || {
        clampi_datatype::pack(&src, &layout, &mut dst);
        black_box(dst[0]);
    });
}

fn main() {
    // `cargo bench` forwards unknown flags (e.g. `--bench`) — ignore them.
    bench_cuckoo();
    bench_free_index();
    bench_storage();
    bench_cache_paths();
    bench_hot_path();
    bench_hot_path_dht();
    bench_hot_path_hs();
    bench_miss_path_mc();
    bench_coherence();
    bench_coherence_dht();
    bench_datatype();
}
