//! Property-based tests on the core invariants of the caching layer
//! (in-tree harness).
//!
//! The headline property is *transparency*: for any sequence of gets, a
//! CLaMPI window returns byte-for-byte the same data as a plain RMA
//! window, whatever internal hit/miss/eviction path each access took.

use clampi_repro::clampi::cache::{CacheParams, LayoutSig, Lookup, RmaCache};
use clampi_repro::clampi::index::{CuckooIndex, GetKey, InsertOutcome};
use clampi_repro::clampi::storage::Storage;
use clampi_repro::clampi::{
    AccessType, CacheCostModel, CachedWindow, ClampiConfig, Mode, VictimScheme,
};
use clampi_repro::clampi_datatype::Datatype;
use clampi_repro::clampi_prng::prop::{check, Gen};
use clampi_repro::clampi_rma::{run_collect, SimConfig};
use std::collections::HashMap;

/// One get in a generated access pattern.
#[derive(Debug, Clone, Copy)]
struct Access {
    disp: usize,
    len: usize,
}

fn arb_accesses(g: &mut Gen, win_size: usize, max_len: usize) -> Vec<Access> {
    g.vec(1..120usize, |g| {
        let disp = g.range(0..win_size - 1);
        let len = g.range(1..max_len);
        Access {
            disp,
            len: len.min(win_size - disp),
        }
    })
}

fn arb_params(g: &mut Gen) -> CacheParams {
    let victim_scheme = match g.range(0..3u32) {
        0 => VictimScheme::Full,
        1 => VictimScheme::Temporal,
        _ => VictimScheme::Positional,
    };
    CacheParams {
        index_entries: g.range(1..256usize),      // tiny -> conflicts
        storage_bytes: g.range(256..32_768usize), // tiny -> capacity/failing
        victim_scheme,
        seed: g.u64(),
        costs: CacheCostModel::free(),
        ..CacheParams::default()
    }
}

/// Cached reads always equal plain reads, under arbitrary access patterns
/// and adversarially small cache parameters.
#[test]
fn cached_reads_equal_plain_reads() {
    check("cached reads equal plain reads", 48, |g| {
        const WIN: usize = 2048;
        let accesses = arb_accesses(g, WIN, 512);
        let params = arb_params(g);
        let epoch_every = g.range(1..8usize);
        let out = run_collect(SimConfig::checked(), 2, |p| {
            let mut win = CachedWindow::create(
                p,
                WIN,
                ClampiConfig::fixed(Mode::AlwaysCache, params.clone()),
            );
            if p.rank() == 1 {
                let mut m = win.local_mut();
                for (i, b) in m.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_mul(31).wrapping_add(7);
                }
            }
            p.barrier();
            let mut bad = None;
            if p.rank() == 0 {
                win.lock_all(p);
                for (k, a) in accesses.iter().enumerate() {
                    let mut buf = vec![0u8; a.len];
                    let class = win.get(p, &mut buf, 1, a.disp, &Datatype::bytes(a.len), 1);
                    if class != Some(AccessType::Hit) && k % epoch_every == 0 {
                        win.flush(p, 1);
                    }
                    for (j, &b) in buf.iter().enumerate() {
                        let want = ((a.disp + j) as u8).wrapping_mul(31).wrapping_add(7);
                        if b != want {
                            bad = Some((k, j, b, want));
                            break;
                        }
                    }
                }
                win.unlock_all(p);
            }
            p.barrier();
            bad
        });
        assert_eq!(out[0].1, None, "cached read diverged from window contents");
    });
}

/// The Cuckoo index behaves like a map: differential test against HashMap
/// under interleaved insert/remove/lookup.
#[test]
fn cuckoo_matches_hashmap() {
    check("cuckoo index matches HashMap", 48, |g| {
        let ops = g.vec(1..300usize, |g| (g.range(0..3u32) as u8, g.range(0..64u64)));
        let seed = g.u64();
        let mut ix = CuckooIndex::new(128, 32, seed);
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut next_id = 0u32;
        for (op, d) in ops {
            match op {
                0 => {
                    let k = GetKey { target: 0, disp: d };
                    if model.contains_key(&d) {
                        continue; // no duplicate inserts
                    }
                    // A Full search moves nothing, so the model only
                    // changes when the key is placed.
                    if let InsertOutcome::Placed { .. } = ix.insert(k, next_id) {
                        model.insert(d, next_id);
                    }
                    next_id += 1;
                }
                1 => {
                    let k = GetKey { target: 0, disp: d };
                    let got = ix.remove(&k);
                    let want = model.remove(&d);
                    assert_eq!(got, want, "remove({d}) mismatch");
                }
                _ => {
                    let k = GetKey { target: 0, disp: d };
                    let got = ix.lookup(&k);
                    let want = model.get(&d).copied();
                    assert_eq!(got, want, "lookup({d}) mismatch");
                }
            }
            assert_eq!(ix.len(), model.len());
        }
    });
}

/// The storage allocator never corrupts its structures and never loses
/// bytes, under arbitrary alloc/free interleavings.
#[test]
fn storage_invariants_hold() {
    check("storage invariants hold", 48, |g| {
        let ops = g.vec(1..250usize, |g| (g.bool(), g.range(1..600usize)));
        let mut s = Storage::new(8192);
        let mut live: Vec<(clampi_repro::clampi::storage::DescId, Vec<u8>)> = Vec::new();
        let mut stamp = 0u8;
        for (do_alloc, size) in ops {
            if do_alloc || live.is_empty() {
                if let Some(id) = s.alloc(size, 0) {
                    stamp = stamp.wrapping_add(1);
                    let data = vec![stamp; size];
                    s.write(id, &data);
                    live.push((id, data));
                }
            } else {
                let k = size % live.len();
                let (id, data) = live.swap_remove(k);
                // The region still holds exactly what was written.
                assert_eq!(s.read(id, data.len()), &data[..]);
                s.free(id);
            }
            s.check_invariants();
        }
        // Free everything: the buffer must return to one free region.
        for (id, data) in live {
            assert_eq!(s.read(id, data.len()), &data[..]);
            s.free(id);
        }
        s.check_invariants();
        assert_eq!(s.free_bytes(), 8192);
        assert_eq!(s.largest_free_region(), 8192);
    });
}

/// The engine's bookkeeping stays coherent under random workloads:
/// classifications partition the gets, residency matches the index, and
/// epoch closes promote exactly the pending entries.
#[test]
fn engine_accounting_is_coherent() {
    check("engine accounting coherent", 48, |g| {
        let accesses = arb_accesses(g, 4096, 256);
        let params = arb_params(g);
        let mut c = RmaCache::new(params);
        for (k, a) in accesses.iter().enumerate() {
            let key = GetKey {
                target: 9,
                disp: a.disp as u64,
            };
            let sig = LayoutSig::Contig(a.len);
            let data = vec![0xAB; a.len];
            let mut dst = vec![0u8; a.len];
            match c.process_lookup(key, &sig, &mut dst) {
                Lookup::Miss => {
                    c.finish_miss(key, sig, &data, 0);
                }
                Lookup::PartialHit { .. } => {
                    c.finish_partial(key, sig, &data, 0);
                }
                Lookup::Hit => {}
            }
            if k % 5 == 0 {
                c.epoch_close();
            }
        }
        c.epoch_close();
        let s = *c.stats();
        assert_eq!(
            s.total_gets,
            s.hits + s.direct + s.conflicting + s.capacity + s.failed,
            "classification must partition the gets"
        );
        assert_eq!(s.total_gets as usize, accesses.len());
        assert_eq!(
            c.cached_entries(),
            c.len(),
            "all entries CACHED after close"
        );
        assert!(c.len() <= c.params().index_entries);
        c.invalidate();
        assert!(c.is_empty());
        assert_eq!(c.free_bytes(), c.params().storage_bytes);
    });
}

/// The native block cache is equally transparent: block-cached reads equal
/// plain reads under arbitrary patterns and block sizes.
#[test]
fn blockcache_reads_equal_plain_reads() {
    check("block-cached reads equal plain reads", 24, |g| {
        use clampi_repro::clampi::{BlockCacheConfig, BlockCachedWindow};
        const WIN: usize = 1024;
        let accesses = arb_accesses(g, WIN, 200);
        let block_pow = g.range(5..10u32); // 32..512 B blocks
        let mem_kb = g.range(1..8usize);
        let cfg = BlockCacheConfig {
            block_size: 1 << block_pow,
            memory_bytes: mem_kb << 10,
            ..BlockCacheConfig::default()
        };
        let out = run_collect(SimConfig::checked(), 2, |p| {
            let mut win = BlockCachedWindow::create(p, WIN, cfg.clone());
            if p.rank() == 1 {
                let mut m = win.local_mut();
                for (i, b) in m.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_mul(13).wrapping_add(3);
                }
            }
            p.barrier();
            let mut bad = None;
            if p.rank() == 0 {
                win.lock_all(p);
                for (k, a) in accesses.iter().enumerate() {
                    let mut buf = vec![0u8; a.len];
                    win.get(p, &mut buf, 1, a.disp, &Datatype::bytes(a.len), 1);
                    for (j, &b) in buf.iter().enumerate() {
                        let want = ((a.disp + j) as u8).wrapping_mul(13).wrapping_add(3);
                        if b != want {
                            bad = Some((k, j));
                            break;
                        }
                    }
                }
                win.unlock_all(p);
            }
            p.barrier();
            bad
        });
        assert_eq!(out[0].1, None, "block-cached read diverged");
    });
}
