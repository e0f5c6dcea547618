//! Allocation regression test for the get hot path.
//!
//! The `get`/`get_nb` wrappers reuse per-window scratch (the contiguous
//! one-block layout and the typed staging buffer) instead of allocating
//! per call. This test pins that down with a counting global allocator:
//! after warmup, a *hit* served through the public wrappers must perform
//! zero heap allocations on the calling thread — contiguous, or through a
//! repeated strided type (the wrappers' flatten memo) — and so must the
//! tail fetch of a contiguous *partial hit*, misses of varying length
//! (both resize the same scratch layout in place) and misses that end in
//! a Cuckoo cycle (the index lends out one insertion-path buffer). A put
//! that writes through to the putter's cached copy, the coherence flush
//! after it and the hit after that allocate nothing either, nor does a
//! warm `validate`: its drain, its refreshes in place and its flushes,
//! or, with no access epoch open on the target, its evictions; nor does
//! the log of a writer's settled puts, bounded by the ring's capacity;
//! nor does a warm snapshot `multi_get`, refetches included.
//! The engine's storage churns thousands of equal-length holes (64-B
//! entries, scattered frees: `dht_mixed`'s shape) without allocating.
//! A huge target id costs the engine one record: the largest request it
//! makes is bounded by `|S_w|`.
//!
//! The counter is thread-local, so the other rank's thread (and the test
//! harness) cannot perturb the measurement. The assertions are compiled
//! only under `debug_assertions`: the counting itself is cheap, but the
//! guarantee is about code structure, not optimizer behavior, and one
//! build is enough to enforce it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use clampi::{
    AccessType, CacheParams, CachedWindow, ClampiConfig, CoherenceMode, GetKey, LayoutSig, Lookup,
    Mode, RmaCache, SnapReq,
};
use clampi_datatype::Datatype;
use clampi_rma::{run_collect, Process, SimConfig};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: pure delegation — every `GlobalAlloc` obligation is forwarded
// verbatim to the `System` allocator, which upholds them.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited from `GlobalAlloc::alloc` (the caller
    // guarantees a nonzero-size `layout`); the body only bumps a
    // thread-local counter before delegating.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` keeps the allocator safe during TLS teardown.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        // SAFETY: the same `layout` the caller vouched for, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited from `GlobalAlloc::dealloc` (the caller
    // guarantees `ptr` came from this allocator with this `layout`).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the `ptr`/`layout` pair is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

const WIN: usize = 4096;
const GET: usize = 64;
const SLOTS: usize = WIN / GET;

/// Runs `body` on rank 0 of a two-rank always-cache window with the given
/// cache parameters, inside one `lock_all` epoch, and checks what it
/// returns: `(heap allocations in its measured phase, measured gets that
/// had the expected class)`. The allocation assertion runs only under
/// `debug_assertions` (see the module docs).
fn assert_alloc_free(
    what: &str,
    params: CacheParams,
    expect_gets: usize,
    body: impl Fn(&mut Process, &mut CachedWindow) -> (u64, u64) + Sync,
) {
    let out = run_collect(SimConfig::default(), 2, |p| {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params.clone());
        let mut win = CachedWindow::create(p, WIN, cfg);
        p.barrier();
        let mut measured = (0u64, 0u64);
        if p.rank() == 0 {
            win.lock_all(p);
            measured = body(p, &mut win);
            win.unlock_all(p);
        }
        p.barrier();
        measured
    });
    let (allocs, gets) = out[0].1;
    assert_eq!(
        gets, expect_gets as u64,
        "{what}: measured gets of the expected class"
    );
    // RMASAN keeps per-get bookkeeping on the heap by design, so an armed
    // run (`CLAMPI_SAN=1`) checks only the classes.
    let sanitized = std::env::var("CLAMPI_SAN").is_ok_and(|v| !v.is_empty() && v != "0");
    if cfg!(debug_assertions) && !sanitized {
        assert_eq!(
            allocs, 0,
            "{what} allocated {allocs} times over {gets} gets"
        );
    }
}

/// Issues a get at every slot of `slots` — slot `s` through
/// `dtypes[s % dtypes.len()]` (built by the caller: a derived type's
/// constructor allocates) — alternating the blocking and the nonblocking
/// wrapper, then closes the epoch. Returns `(heap allocations before the
/// flush, gets classified `expect`)`.
fn sweep(
    p: &mut Process,
    win: &mut CachedWindow,
    slots: std::ops::Range<usize>,
    dtypes: &[Datatype],
    expect: AccessType,
) -> (u64, u64) {
    let mut buf = [0u8; GET];
    let before = allocs_on_this_thread();
    let mut expected = 0;
    for slot in slots {
        let dtype = &dtypes[slot % dtypes.len()];
        let dst = &mut buf[..dtype.size()];
        let class = if slot % 2 == 0 {
            win.get(p, dst, 1, slot * GET, dtype, 1)
        } else {
            win.get_nb(p, dst, 1, slot * GET, dtype, 1)
        };
        expected += (class == Some(expect)) as u64;
    }
    let allocs = allocs_on_this_thread() - before;
    win.flush_all(p);
    (allocs, expected)
}

/// Issues a `GET`-byte blocking get at every slot of `slots`, each followed
/// by a flush of its target (one get per epoch). Returns `(heap
/// allocations of the gets and the flushes, gets classified `expect`)`.
fn get_then_flush(
    p: &mut Process,
    win: &mut CachedWindow,
    slots: std::ops::Range<usize>,
    expect: AccessType,
) -> (u64, u64) {
    let (dtype, mut buf) = (Datatype::bytes(GET), [0u8; GET]);
    let before = allocs_on_this_thread();
    let mut expected = 0;
    for slot in slots {
        let class = win.get(p, &mut buf, 1, slot * GET, &dtype, 1);
        expected += (class == Some(expect)) as u64;
        win.flush(p, 1);
    }
    (allocs_on_this_thread() - before, expected)
}

#[test]
fn hit_path_does_not_allocate() {
    assert_alloc_free("the hit path", CacheParams::default(), SLOTS, |p, win| {
        // Warmup: populate every slot (misses allocate cache entries) and
        // fault the scratch layout into existence. Every further get is a
        // hit and must stay off the heap, through both wrappers.
        let dtype = [Datatype::bytes(GET)];
        sweep(p, win, 0..SLOTS, &dtype, AccessType::Direct);
        sweep(p, win, 0..SLOTS, &dtype, AccessType::Hit)
    });
}

#[test]
fn strided_hit_does_not_allocate() {
    let what = "a hit through a repeated strided type";
    assert_alloc_free(what, CacheParams::default(), SLOTS, |p, win| {
        // 32 B of payload over a 56 B span. The first get flattens the
        // type into the window's memo; every later one - the hits too -
        // reuses that layout instead of flattening and copying it again.
        let dtype = [Datatype::vector(4, 1, 2, Datatype::bytes(8))];
        sweep(p, win, 0..SLOTS, &dtype, AccessType::Direct);
        sweep(p, win, 0..SLOTS, &dtype, AccessType::Hit)
    });
}

#[test]
fn variable_length_misses_do_not_allocate() {
    let what = "misses of varying length";
    assert_alloc_free(what, CacheParams::default(), SLOTS / 2, |p, win| {
        // Consecutive misses of seven different lengths: each fetch
        // resizes the scratch layout in place. The first sweep grows the
        // engine's slab and per-epoch vectors, the first half of the
        // second (after an invalidation that keeps their capacity) the
        // rest; the second half is measured.
        let dtypes: Vec<Datatype> = (1..=7).map(|i| Datatype::bytes(8 * i)).collect();
        sweep(p, win, 0..SLOTS, &dtypes, AccessType::Direct);
        win.invalidate(p);
        sweep(p, win, 0..SLOTS / 2, &dtypes, AccessType::Direct);
        sweep(p, win, SLOTS / 2..SLOTS, &dtypes, AccessType::Direct)
    });
}

#[test]
fn conflicting_miss_does_not_allocate() {
    // Sixteen index slots for 64 keys: once the table is full, most misses
    // walk the iteration budget into a cycle and evict from the path.
    let params = CacheParams {
        index_entries: 16,
        max_insert_iters: 8,
        ..CacheParams::default()
    };
    assert_alloc_free("a miss that ends in a Cuckoo cycle", params, 1, |p, win| {
        // One get per epoch, so every resident entry is CACHED (evictable)
        // when the next miss arrives. The first pass is warmup; the second
        // must stay off the heap whatever class each of its misses gets.
        get_then_flush(p, win, 0..SLOTS, AccessType::Conflicting);
        let (allocs, conflicting) = get_then_flush(p, win, 0..SLOTS, AccessType::Conflicting);
        (allocs, (conflicting > 0) as u64)
    });
}

/// `dht_mixed`'s storage shape at the engine: 1 MiB of 64-B entries with
/// thousands of scattered 64-B holes. Each step evicts the entry at a
/// random slot (a scattered free) and installs a new key, which best fit
/// places in the lowest-offset hole. (`evict_slot` exists in debug builds
/// only, where the assertion runs.)
#[cfg(debug_assertions)]
#[test]
fn equal_length_hole_churn_does_not_allocate() {
    let slots = 1 << 15;
    let mut c = RmaCache::new(CacheParams {
        index_entries: slots,
        storage_bytes: 1 << 20,
        ..CacheParams::default()
    });
    let (sig, data, mut dst) = (LayoutSig::Contig(64), [7u8; 64], [0u8; 64]);
    let mut rng = clampi_prng::SmallRng::seed_from_u64(3);
    let mut next = 0u64;
    // Evicts `evictions` random residents, then installs one new key.
    let mut step = |c: &mut RmaCache, evictions: usize| {
        for _ in 0..evictions {
            while !c.evict_slot(rng.gen_range(0..slots)) {}
        }
        let key = GetKey {
            target: 1,
            disp: next * 64,
        };
        next += 1;
        assert_eq!(c.process_lookup(key, &sig, &mut dst), Lookup::Miss);
        let class = c.finish_miss(key, sig.clone(), &data, 0);
        c.epoch_close();
        class
    };
    for _ in 0..(1 << 20) / 64 {
        step(&mut c, 0);
    }
    step(&mut c, 4097);
    for _ in 0..4000 {
        step(&mut c, 1);
    }
    let before = allocs_on_this_thread();
    let mut installed = 0;
    for _ in 0..4000 {
        installed += (step(&mut c, 1) != AccessType::Failed) as u32;
    }
    let allocs = allocs_on_this_thread() - before;
    c.check_invariants();
    assert_eq!(installed, 4000, "every churn step installs its key");
    assert!(c.free_bytes() >= 4096 * 64, "the holes stay");
    let sanitized = std::env::var("CLAMPI_SAN").is_ok_and(|v| !v.is_empty() && v != "0");
    if !sanitized {
        assert_eq!(
            allocs, 0,
            "equal-length hole churn allocated {allocs} times"
        );
    }
}

#[test]
fn partial_hit_tail_fetch_does_not_allocate() {
    let what = "the partial-hit tail fetch";
    assert_alloc_free(what, CacheParams::default(), SLOTS / 2, |p, win| {
        // Cache the first half of every slot: each full-slot get then
        // finds its head cached and fetches only the tail, classified
        // `Direct` (the extension fits). The first half of the slots is
        // warmup — it grows the per-epoch vectors of the engine and the
        // window to their steady state; the second, equally long half is
        // measured.
        let (half, full) = ([Datatype::bytes(GET / 2)], [Datatype::bytes(GET)]);
        sweep(p, win, 0..SLOTS, &half, AccessType::Direct);
        sweep(p, win, 0..SLOTS / 2, &full, AccessType::Direct);
        sweep(p, win, SLOTS / 2..SLOTS, &full, AccessType::Direct)
    });
}

#[test]
fn coherent_miss_and_flush_do_not_allocate() {
    let what = "a miss + flush with nothing new in the ring";
    let params = CacheParams {
        coherence: CoherenceMode::EagerInvalidate,
        ..CacheParams::default()
    };
    assert_alloc_free(what, params, SLOTS / 2, |p, win| {
        // Every flush of a coherent window runs a coherence pass over its
        // target. Nobody writes, so each pass finds the ring empty and must
        // cost no allocation — nor may the miss before it, once the first
        // sweep has grown the engine's slab and per-epoch vectors (the
        // invalidation empties them but keeps their capacity) and the first
        // half of the second has done the same for the pass's own scratch.
        get_then_flush(p, win, 0..SLOTS, AccessType::Direct);
        win.invalidate(p);
        get_then_flush(p, win, 0..SLOTS / 2, AccessType::Direct);
        get_then_flush(p, win, SLOTS / 2..SLOTS, AccessType::Direct)
    });
}

/// Puts a `GET`-byte record at every slot of `slots`, flushes its target
/// and reads the record back, one slot per epoch. Returns `(heap
/// allocations of the puts, flushes and gets, gets classified `Hit`)`.
fn put_flush_get(
    p: &mut Process,
    win: &mut CachedWindow,
    slots: std::ops::Range<usize>,
) -> (u64, u64) {
    let (dtype, mut buf) = (Datatype::bytes(GET), [0u8; GET]);
    let before = allocs_on_this_thread();
    let mut hits = 0;
    for slot in slots {
        let src = [slot as u8; GET];
        win.put(p, &src, 1, slot * GET, &dtype, 1);
        win.flush(p, 1);
        let class = win.get(p, &mut buf, 1, slot * GET, &dtype, 1);
        hits += (class == Some(AccessType::Hit) && buf == src) as u64;
    }
    (allocs_on_this_thread() - before, hits)
}

#[test]
fn put_update_and_flush_do_not_allocate() {
    let what = "a put that updates the putter's cached copy, its flush and the hit after";
    let params = CacheParams {
        coherence: CoherenceMode::EagerInvalidate,
        ..CacheParams::default()
    };
    assert_alloc_free(what, params, SLOTS / 2, |p, win| {
        // Cache every slot, then rewrite and reread each: the put writes
        // through to the cached copy, the flush drains the put's record
        // and keeps the entry, the get hits the put's bytes. The first
        // rewrite sweep fills the notification ring and builds the extent
        // directory; the second is measured from its second half.
        get_then_flush(p, win, 0..SLOTS, AccessType::Direct);
        put_flush_get(p, win, 0..SLOTS);
        put_flush_get(p, win, 0..SLOTS / 2);
        put_flush_get(p, win, SLOTS / 2..SLOTS)
    });
}

#[test]
fn validate_refresh_does_not_allocate() {
    const ROUNDS: usize = 8;
    let params = CacheParams {
        coherence: CoherenceMode::EagerInvalidate,
        ..CacheParams::default()
    };
    let out = run_collect(SimConfig::default(), 2, |p| {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params.clone());
        let mut win = CachedWindow::create(p, WIN, cfg);
        let (dtype, mut buf) = (Datatype::bytes(GET), [0u8; GET]);
        win.lock_all(p);
        if p.rank() == 0 {
            for slot in 0..SLOTS {
                win.get(p, &mut buf, 1, slot * GET, &dtype, 1);
            }
            win.flush_all(p);
        }
        p.barrier();
        // Each round rank 1 rewrites a quarter of its records and rank 0
        // validates: it drains the records, refreshes the stale entries in
        // place and flushes. The first half of the rounds is warmup (it
        // builds the extent directory and grows the scratch vectors); the
        // second half is measured.
        let mut measured = (0u64, 0u64);
        for round in 0..ROUNDS {
            if p.rank() == 1 {
                for slot in (round % 4..SLOTS).step_by(4) {
                    win.put(p, &[round as u8; GET], 1, slot * GET, &dtype, 1);
                }
                win.flush(p, 1);
            }
            p.barrier();
            if p.rank() == 0 {
                let (allocs, refetches) = (allocs_on_this_thread(), win.stats().refetches);
                win.validate(p);
                if round >= ROUNDS / 2 {
                    measured.0 += allocs_on_this_thread() - allocs;
                    measured.1 += win.stats().refetches - refetches;
                }
            }
            p.barrier();
        }
        win.unlock_all(p);
        p.barrier();
        measured
    });
    let (allocs, refetches) = out[0].1;
    assert_eq!(
        refetches,
        (ROUNDS / 2 * SLOTS / 4) as u64,
        "measured refreshes"
    );
    let sanitized = std::env::var("CLAMPI_SAN").is_ok_and(|v| !v.is_empty() && v != "0");
    if cfg!(debug_assertions) && !sanitized {
        assert_eq!(
            allocs, 0,
            "validate allocated {allocs} times over {refetches} refreshes"
        );
    }
}

/// A writer's settled puts: rounds of put → flush → validate → hit, each
/// put settled at the source and its record skipped by the drain, allocate
/// nothing once warm. The settled log reuses its buffer and holds at most
/// the ring's capacity: after an overflow has emptied the target, rounds
/// of ever more puts (all settled, nothing being cached) between flushes
/// allocate nothing either.
#[test]
fn settled_puts_flush_validate_and_hit_do_not_allocate() {
    const CAP: usize = 16;
    let params = CacheParams {
        coherence: CoherenceMode::EagerInvalidate,
        ..CacheParams::default()
    };
    let sim = SimConfig::default().with_notify_ring_cap(CAP);
    let out = run_collect(sim, 2, |p| {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params.clone());
        let mut win = CachedWindow::create(p, WIN, cfg);
        let (dtype, mut buf) = (Datatype::bytes(GET), [0u8; GET]);
        p.barrier();
        // (allocations, hits) of the measured steady rounds, allocations
        // of the measured growing rounds.
        let mut measured = (0u64, 0u64, 0u64);
        if p.rank() == 0 {
            win.lock_all(p);
            get_then_flush(p, &mut win, 0..SLOTS, AccessType::Direct);
            for round in 0..4 {
                let before = allocs_on_this_thread();
                let slots = (round % 4) * CAP..(round % 4 + 1) * CAP;
                for slot in slots.clone() {
                    win.put(p, &[round as u8; GET], 1, slot * GET, &dtype, 1);
                }
                win.flush(p, 1);
                win.validate(p);
                let mut hits = 0;
                for slot in slots {
                    let class = win.get(p, &mut buf, 1, slot * GET, &dtype, 1);
                    hits += (class == Some(AccessType::Hit) && buf == [round as u8; GET]) as u64;
                }
                if round >= 2 {
                    measured.0 += allocs_on_this_thread() - before;
                    measured.1 += hits;
                }
            }
            // More puts than the ring holds, through the inner window (never
            // logged): the drain overflows and drops the target. Then twice
            // and four times the ring's capacity of settled puts per flush.
            for slot in 0..SLOTS {
                win.inner_mut().put(p, &[0; GET], 1, slot * GET, &dtype, 1);
            }
            win.flush(p, 1);
            let before = allocs_on_this_thread();
            for n in [2 * CAP, 4 * CAP] {
                for slot in 0..n {
                    win.put(p, &[slot as u8; GET], 1, slot * GET, &dtype, 1);
                }
                win.flush(p, 1);
            }
            measured.2 = allocs_on_this_thread() - before;
            win.unlock_all(p);
        }
        p.barrier();
        measured
    });
    let (steady, hits, growing) = out[0].1;
    assert_eq!(hits, 2 * CAP as u64, "measured hits on the writer's bytes");
    let sanitized = std::env::var("CLAMPI_SAN").is_ok_and(|v| !v.is_empty() && v != "0");
    if cfg!(debug_assertions) && !sanitized {
        assert_eq!(steady, 0, "put, flush, validate and hit allocated");
        assert_eq!(growing, 0, "the settled log grew past the ring's capacity");
    }
}

/// `validate` with no access epoch open on the target evicts every stale
/// entry instead of refreshing it. The pass collects its victims in the
/// engine's own reused buffer, so a warm one allocates nothing.
#[test]
fn validate_eviction_does_not_allocate() {
    const ROUNDS: usize = 8;
    let params = CacheParams {
        coherence: CoherenceMode::EagerInvalidate,
        ..CacheParams::default()
    };
    let out = run_collect(SimConfig::default(), 2, |p| {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params.clone());
        let mut win = CachedWindow::create(p, WIN, cfg);
        let (dtype, mut buf) = (Datatype::bytes(GET), [0u8; GET]);
        p.barrier();
        // Each round rank 0 (re)caches every record of rank 1 inside a
        // `lock_all` epoch and closes it, rank 1 rewrites a quarter of them
        // inside its own, and rank 0 validates outside any epoch: the
        // drain evicts the quarter. The first half of the rounds is warmup
        // (the extent directory, the victim buffer and the pass's scratch
        // grow there); the second half is measured.
        let mut measured = (0u64, 0u64);
        for round in 0..ROUNDS {
            if p.rank() == 0 {
                win.lock_all(p);
                for slot in 0..SLOTS {
                    win.get(p, &mut buf, 1, slot * GET, &dtype, 1);
                }
                win.unlock_all(p);
            }
            p.barrier();
            if p.rank() == 1 {
                win.lock_all(p);
                for slot in (round % 4..SLOTS).step_by(4) {
                    win.put(p, &[round as u8; GET], 1, slot * GET, &dtype, 1);
                }
                win.unlock_all(p);
            }
            p.barrier();
            if p.rank() == 0 {
                let before = (allocs_on_this_thread(), win.stats());
                win.validate(p);
                let during = win.stats().delta_since(&before.1);
                if round >= ROUNDS / 2 && during.refetches == 0 {
                    measured.0 += allocs_on_this_thread() - before.0;
                    measured.1 += during.stale_hits_prevented;
                }
            }
            p.barrier();
        }
        measured
    });
    let (allocs, evicted) = out[0].1;
    assert_eq!(
        evicted,
        (ROUNDS / 2 * SLOTS / 4) as u64,
        "measured evictions"
    );
    let sanitized = std::env::var("CLAMPI_SAN").is_ok_and(|v| !v.is_empty() && v != "0");
    if cfg!(debug_assertions) && !sanitized {
        assert_eq!(
            allocs, 0,
            "validate allocated {allocs} times over {evicted} evictions"
        );
    }
}

/// A warm `multi_get` allocates nothing: its read passes, flushes, drains
/// and refetches reuse the window's snapshot scratch. Each round rank 1
/// rewrites the even records of an 8-record batch, rank 0 flushes (its
/// coherence pass drops them), rank 1 rewrites the odd ones, and rank 0
/// reads the batch as one snapshot: the even records miss, and the odd
/// ones, where still resident, hit stale entries that validation refetches.
/// The first half of the rounds is warmup; the second half is measured.
#[test]
fn warm_multi_get_does_not_allocate() {
    const ROUNDS: usize = 16;
    const BATCH: usize = 8;
    let params = CacheParams {
        coherence: CoherenceMode::EagerInvalidate,
        ..CacheParams::default()
    };
    let out = run_collect(SimConfig::default(), 2, |p| {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params.clone());
        let mut win = CachedWindow::create(p, WIN, cfg);
        let dtype = Datatype::bytes(GET);
        let reqs: Vec<SnapReq> = (0..BATCH)
            .map(|slot| SnapReq {
                target: 1,
                disp: slot * GET,
                len: GET,
            })
            .collect();
        let (mut dst, mut newest) = (vec![0u8; BATCH * GET], vec![0u8; BATCH * GET]);
        win.lock_all(p);
        if p.rank() == 0 {
            get_then_flush(p, &mut win, 0..BATCH, AccessType::Direct);
        }
        p.barrier();
        // (allocations, batches that read the newest bytes, refetches)
        let mut measured = (0u64, 0u64, 0u64);
        for round in 0..ROUNDS {
            let fill = |slot: usize| (2 * round + slot % 2) as u8;
            for parity in [0, 1] {
                if p.rank() == 1 {
                    for slot in (parity..BATCH).step_by(2) {
                        win.put(p, &[fill(slot); GET], 1, slot * GET, &dtype, 1);
                    }
                    win.flush(p, 1);
                }
                p.barrier();
                if p.rank() == 0 && parity == 0 {
                    let before = allocs_on_this_thread();
                    win.flush(p, 1);
                    if round >= ROUNDS / 2 {
                        measured.0 += allocs_on_this_thread() - before;
                    }
                }
                p.barrier();
            }
            if p.rank() == 0 {
                for (slot, b) in newest.chunks_mut(GET).enumerate() {
                    b.fill(fill(slot));
                }
                let (before, refetches) = (allocs_on_this_thread(), win.stats().snapshot_refetches);
                let ok = win.multi_get(p, &reqs, &mut dst).is_ok() && dst == newest;
                if round >= ROUNDS / 2 {
                    measured.0 += allocs_on_this_thread() - before;
                    measured.1 += ok as u64;
                    measured.2 += win.stats().snapshot_refetches - refetches;
                }
            }
            p.barrier();
        }
        win.unlock_all(p);
        p.barrier();
        measured
    });
    let (allocs, batches, refetches) = out[0].1;
    assert_eq!(
        batches,
        (ROUNDS / 2) as u64,
        "measured batches that read the newest bytes"
    );
    assert!(refetches > 0, "no measured batch refetched a stale hit");
    let sanitized = std::env::var("CLAMPI_SAN").is_ok_and(|v| !v.is_empty() && v != "0");
    if cfg!(debug_assertions) && !sanitized {
        assert_eq!(
            allocs, 0,
            "multi_get allocated {allocs} times over {batches} batches"
        );
    }
}

/// A huge target id costs the engine one record, not an array that
/// long. Any caller of `process_lookup`/`finish_miss` (`fig_policy`'s
/// replay, the concurrent front) may pass one; a get from target
/// `u32::MAX - 1` used to grow the engine's per-target counts to 4
/// billion entries (16 GiB).
#[test]
fn a_huge_target_id_costs_one_record() {
    let params = CacheParams::default();
    let storage = params.storage_bytes;
    let key = GetKey {
        target: u32::MAX - 1,
        disp: 0,
    };
    let (sig, data, mut dst) = (LayoutSig::Contig(64), [7u8; 64], [0u8; 64]);
    LARGEST.with(|c| c.set(0));
    let mut c = RmaCache::new(params);
    assert_eq!(c.process_lookup(key, &sig, &mut dst), Lookup::Miss);
    c.finish_miss(key, sig, &data, 0);
    let largest = LARGEST.with(|c| c.get());
    assert!(
        largest <= storage,
        "a get from target {}: the engine requested {largest} B at once, |S_w| is {storage}",
        key.target
    );
    let s = c.stats();
    assert_eq!((s.total_gets, s.failed), (1, 0));
    assert_eq!(s.bytes_from_network, 64);
}
