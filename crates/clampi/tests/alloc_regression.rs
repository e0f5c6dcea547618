//! Allocation regression test for the get hot path.
//!
//! The `get`/`get_nb` wrappers reuse per-window scratch (the contiguous
//! one-block layout and the typed staging buffer) instead of allocating
//! per call. This test pins that down with a counting global allocator:
//! after warmup, a *hit* served through the public wrappers must perform
//! zero heap allocations on the calling thread, and so must the tail fetch
//! of a contiguous *partial hit* (it resizes the same scratch layout).
//!
//! The counter is thread-local, so the other rank's thread (and the test
//! harness) cannot perturb the measurement. The assertions are compiled
//! only under `debug_assertions`: the counting itself is cheap, but the
//! guarantee is about code structure, not optimizer behavior, and one
//! build is enough to enforce it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use clampi::{AccessType, CacheParams, CachedWindow, ClampiConfig, CoherenceMode, Mode};
use clampi_datatype::Datatype;
use clampi_rma::{run_collect, Process, SimConfig};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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

/// Runs `body` on rank 0 of a two-rank always-cache window of the given
/// coherence mode, inside one `lock_all` epoch, and checks what it
/// returns: `(heap allocations in its measured phase, measured gets that
/// had the expected class)`. The allocation assertion runs only under
/// `debug_assertions` (see the module docs); nothing is asserted inside
/// the simulation, where a panic would strand the peer rank at a barrier.
fn assert_alloc_free(
    what: &str,
    coherence: CoherenceMode,
    expect_gets: usize,
    body: impl Fn(&mut Process, &mut CachedWindow) -> (u64, u64) + Sync,
) {
    let out = run_collect(SimConfig::default(), 2, |p| {
        let params = CacheParams {
            coherence,
            ..CacheParams::default()
        };
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params);
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

/// Issues a `len`-byte get at every slot of `slots`, alternating the
/// blocking and the nonblocking wrapper, then closes the epoch. Returns
/// `(heap allocations before the flush, gets classified `expect`)`.
fn sweep(
    p: &mut Process,
    win: &mut CachedWindow,
    slots: std::ops::Range<usize>,
    len: usize,
    expect: AccessType,
) -> (u64, u64) {
    let (dtype, mut buf) = (Datatype::bytes(len), [0u8; GET]);
    let before = allocs_on_this_thread();
    let mut expected = 0;
    for slot in slots {
        let class = if slot % 2 == 0 {
            win.get(p, &mut buf[..len], 1, slot * GET, &dtype, 1)
        } else {
            win.get_nb(p, &mut buf[..len], 1, slot * GET, &dtype, 1)
        };
        expected += (class == Some(expect)) as u64;
    }
    let allocs = allocs_on_this_thread() - before;
    win.flush_all(p);
    (allocs, expected)
}

#[test]
fn hit_path_does_not_allocate() {
    assert_alloc_free("the hit path", CoherenceMode::None, SLOTS, |p, win| {
        // Warmup: populate every slot (misses allocate cache entries) and
        // fault the scratch layout into existence. Every further get is a
        // hit and must stay off the heap, through both wrappers.
        sweep(p, win, 0..SLOTS, GET, AccessType::Direct);
        sweep(p, win, 0..SLOTS, GET, AccessType::Hit)
    });
}

#[test]
fn partial_hit_tail_fetch_does_not_allocate() {
    let what = "the partial-hit tail fetch";
    assert_alloc_free(what, CoherenceMode::None, SLOTS / 2, |p, win| {
        // Cache the first half of every slot: each full-slot get then
        // finds its head cached and fetches only the tail, classified
        // `Direct` (the extension fits). The first half of the slots is
        // warmup — it grows the per-epoch vectors of the engine and the
        // window to their steady state; the second, equally long half is
        // measured.
        sweep(p, win, 0..SLOTS, GET / 2, AccessType::Direct);
        sweep(p, win, 0..SLOTS / 2, GET, AccessType::Direct);
        sweep(p, win, SLOTS / 2..SLOTS, GET, AccessType::Direct)
    });
}

#[test]
fn coherent_miss_and_flush_do_not_allocate() {
    let what = "a miss + flush with nothing new in the ring";
    assert_alloc_free(what, CoherenceMode::EagerInvalidate, SLOTS / 2, |p, win| {
        // Every flush of a coherent window runs a coherence pass over its
        // target. Nobody writes, so each pass finds the ring empty and must
        // cost no allocation — nor may the miss before it, once the first
        // sweep has grown the engine's slab and per-epoch vectors (the
        // invalidation empties them but keeps their capacity) and the first
        // half of the second has done the same for the pass's own scratch.
        let miss_then_flush = |p: &mut Process, win: &mut CachedWindow, slots| {
            let (dtype, mut buf) = (Datatype::bytes(GET), [0u8; GET]);
            let before = allocs_on_this_thread();
            let mut direct = 0;
            for slot in slots {
                let class = win.get(p, &mut buf, 1, slot * GET, &dtype, 1);
                direct += (class == Some(AccessType::Direct)) as u64;
                win.flush(p, 1);
            }
            (allocs_on_this_thread() - before, direct)
        };
        miss_then_flush(p, win, 0..SLOTS);
        win.invalidate(p);
        miss_then_flush(p, win, 0..SLOTS / 2);
        miss_then_flush(p, win, SLOTS / 2..SLOTS)
    });
}
