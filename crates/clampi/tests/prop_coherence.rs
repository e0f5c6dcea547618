//! Property tests for the coherence subsystem (`CLAMPI_PROP_SEED`
//! replays a single case; `CLAMPI_PROP_CASES` overrides the counts).
//!
//! The workload is a phase-structured 2-rank producer/consumer: rank 0
//! reads records from rank 1's window through an always-cache CLaMPI
//! window; between read rounds rank 1 `put`s fresh values into a random
//! subset of its records; the reader runs a coherence point
//! ([`CachedWindow::validate`]) before the next round. Both ranks
//! derive the update schedule from a shared PRNG seed, so the reader
//! knows the exact current value of every record at every read.
//!
//! Properties:
//!
//! 1. **no stale byte, ever**: under [`CoherenceMode::EagerInvalidate`]
//!    at every notification-ring capacity of [`ring_caps`] (and under the
//!    `None` + full-invalidation fallback), every get returns the
//!    record's current value, bit-identical to an uncached
//!    (`Mode::Disabled`) run of the same schedule — over random
//!    schedules, blocking and nonblocking reads. Capacity 0 is the
//!    no-ring fallback (whole-target drop on any write, what the deleted
//!    epoch-validation mode did over the wire): it must overflow whenever
//!    it saw a write;
//! 2. the same holds under transient fault injection with retries;
//! 3. **`CoherenceMode::None` is inert**: its runs are bit-identical —
//!    bytes, cache fingerprints, stats — whatever the notification-ring
//!    capacity, and its coherence counters stay zero (the subsystem
//!    cannot leak into the pre-coherence behaviour);
//! 4. (directed) a rank failure with notifications still pending
//!    degrades to a *full per-target invalidation* — the pending
//!    updates are never silently dropped, and post-failure gets return
//!    zeros, never a stale cached value;
//! 5. (directed) a flush skips only the drain its get reply proves empty:
//!    a read-phase miss + flush charges no drain, but any sync event since
//!    the reply — a collective, a lock or PSCW acquisition on another
//!    window, or the reader's own put — makes the flush drain again;
//! 6. (directed) `validate` fetches again what its own pass dropped: the
//!    next read is a hit with no wire get and the writer's bytes; the
//!    refetches block for one wire latency, not one each; a transient
//!    fault is retried; a target that dies before its refetches is
//!    degraded with nothing of it cached; outside an access epoch nothing
//!    is refetched. A refresh happens in place: the entry keeps its slot,
//!    slab id, storage region and last access; no storage is freed or
//!    allocated and, with the storage full, no other entry is evicted; a
//!    refetch that exhausts its retries evicts only its own entry; a
//!    target that dies between two refreshes is dropped once; outside an
//!    epoch the stale entries go in ascending slot order;
//! 7. (directed) a writer's cache keeps what it wrote: a put that covers
//!    a cached record exactly updates the writer's copy with the put's
//!    bytes and version, so its next read hits; a later foreign write
//!    still drops it; a put that covers the record only in part, or from
//!    another key, a put to a dead target and any put under
//!    `CoherenceMode::None` update nothing;
//! 8. (directed) a writer's drain skips only what its own puts settled:
//!    a put that also overlaps an off-grid entry, a put through
//!    `inner_mut()`, a non-contiguous put and a put over a PENDING entry
//!    are drained and drop what they overlap; around a foreign write to
//!    the same record the entry's fate follows version order; a ring
//!    overflow or a dead target leaves nothing behind.

#[cfg(debug_assertions)]
use clampi::cache::Resident;
use clampi::{
    AccessType, CacheParams, CacheStats, CachedWindow, ClampiConfig, CoherenceMode, Mode,
    RetryPolicy,
};
use clampi_datatype::Datatype;
use clampi_prng::prop::{check, Gen};
use clampi_prng::SmallRng;
use clampi_rma::{run_collect, FaultConfig, LockKind, Process, SimConfig};

const SIZE: usize = 32;

/// The value every byte of record `r` holds after `version` updates.
/// Never zero, so a degraded (zero-filled) read can never be mistaken
/// for any version of the data.
fn pattern_byte(r: usize, version: u64) -> u8 {
    ((r as u64)
        .wrapping_mul(37)
        .wrapping_add(version.wrapping_mul(101)) as u8)
        | 1
}

#[derive(Clone)]
struct Schedule {
    records: usize,
    rounds: usize,
    gets_per_round: usize,
    updates_per_round: usize,
    seed: u64,
    ring_cap: usize,
    nonblocking: bool,
    faults: Option<FaultConfig>,
}

#[derive(Clone, PartialEq, Debug)]
struct Run {
    /// Every byte the reader observed, in order.
    bytes: Vec<Vec<u8>>,
    /// Cache fingerprint after each coherence point.
    fingerprints: Vec<u64>,
    stats: CacheStats,
}

/// Runs the schedule under the given coherence mode (`None` = uncached,
/// `Mode::Disabled`). Panics in-run if any read observes anything but
/// the record's current value.
fn run_schedule(s: &Schedule, coherence: Option<CoherenceMode>) -> Run {
    let mut sim = SimConfig::default().with_notify_ring_cap(s.ring_cap);
    if let Some(f) = &s.faults {
        sim = sim.with_faults(f.clone());
    }
    let s = s.clone();
    let out = run_collect(sim, 2, move |p| {
        let rank = p.rank();
        let cfg = match coherence {
            None => ClampiConfig::disabled(),
            Some(c) => {
                let params = CacheParams {
                    index_entries: 256,
                    storage_bytes: 64 << 10,
                    coherence: c,
                    ..CacheParams::default()
                };
                ClampiConfig::fixed(Mode::AlwaysCache, params)
            }
        }
        .with_retry(RetryPolicy {
            max_retries: 64,
            op_timeout_ns: f64::INFINITY,
            ..RetryPolicy::default()
        });
        let mut win = CachedWindow::create(p, s.records * SIZE, cfg);

        // Per-record version, advanced identically on both ranks from
        // the shared schedule PRNG.
        let mut versions = vec![0u64; s.records];
        let mut schedule = SmallRng::seed_from_u64(s.seed);
        let mut picks = SmallRng::seed_from_u64(s.seed ^ 0x9e37_79b9);

        if rank == 1 {
            let mut local = win.local_mut();
            for r in 0..s.records {
                local[r * SIZE..(r + 1) * SIZE].fill(pattern_byte(r, 0));
            }
        }
        p.barrier();

        win.lock_all(p);
        let mut bytes = Vec::new();
        let mut fingerprints = Vec::new();
        let dtype = Datatype::bytes(SIZE);
        for _ in 0..s.rounds {
            if rank == 0 {
                let reads: Vec<usize> = (0..s.gets_per_round)
                    .map(|_| picks.gen_range(0..s.records))
                    .collect();
                let mut bufs = vec![vec![0u8; SIZE]; reads.len()];
                if s.nonblocking {
                    for (&r, buf) in reads.iter().zip(&mut bufs) {
                        win.get_nb(p, buf, 1, r * SIZE, &dtype, 1);
                    }
                    win.flush_all(p);
                } else {
                    for (&r, buf) in reads.iter().zip(&mut bufs) {
                        let class = win.get(p, buf, 1, r * SIZE, &dtype, 1);
                        if class != Some(AccessType::Hit) {
                            win.flush(p, 1);
                        }
                    }
                }
                for (&r, buf) in reads.iter().zip(&bufs) {
                    assert!(
                        buf.iter().all(|&b| b == pattern_byte(r, versions[r])),
                        "stale or corrupt read of record {r} (coherence {coherence:?})"
                    );
                }
                bytes.extend(bufs);
            }
            p.barrier();

            // Update phase: both ranks draw the schedule; only rank 1
            // puts (into its own region). The draw is with replacement,
            // but MPI-3 forbids overlapping puts within one epoch even
            // from a single origin (RMASAN flags them), so each touched
            // record is put once, at its final version for the round.
            let mut touched: Vec<usize> = Vec::new();
            for _ in 0..s.updates_per_round {
                let r = schedule.gen_range(0..s.records);
                versions[r] += 1;
                if !touched.contains(&r) {
                    touched.push(r);
                }
            }
            if rank == 1 {
                for &r in &touched {
                    let val = vec![pattern_byte(r, versions[r]); SIZE];
                    win.put(p, &val, 1, r * SIZE, &dtype, 1);
                }
                if !touched.is_empty() {
                    win.flush(p, 1);
                }
            }
            p.barrier();

            win.validate(p);
            if rank == 0 {
                fingerprints.push(win.cache().map_or(0, |c| c.content_fingerprint()));
            }
        }
        win.unlock_all(p);
        p.barrier();
        // The engine's structures must still describe one resident set.
        #[cfg(debug_assertions)]
        if let Some(cache) = win.cache() {
            cache.check_invariants();
        }
        (bytes, fingerprints, win.stats())
    });
    let (bytes, fingerprints, stats) = out[0].1.clone();
    Run {
        bytes,
        fingerprints,
        stats,
    }
}

/// The notification-ring capacities every coherent property runs at: the
/// simulator's default (never overflows here), a 2-record ring (overflows
/// under load) and no ring at all (every drain after a write overflows).
fn ring_caps() -> [usize; 3] {
    [SimConfig::default().notify_ring_cap, 2, 0]
}

fn gen_schedule(g: &mut Gen, faulty: bool) -> Schedule {
    let records = g.range(8..32usize);
    Schedule {
        records,
        rounds: g.range(2..6usize),
        gets_per_round: g.range(8..32usize),
        updates_per_round: g.range(0..records),
        seed: g.u64(),
        ring_cap: SimConfig::default().notify_ring_cap,
        nonblocking: g.bool(),
        faults: if faulty {
            Some(FaultConfig::transient(g.range(0.0..0.12), g.u64()))
        } else {
            None
        },
    }
}

/// `EagerInvalidate` runs of `s` at every capacity of [`ring_caps`]: each
/// must return the uncached run's bytes, and the ring-less one must have
/// fallen back to whole-target drops if anything was written.
fn check_eager_at_every_ring_cap(s: &Schedule, uncached: &Run) {
    for cap in ring_caps() {
        let s = Schedule {
            ring_cap: cap,
            ..s.clone()
        };
        let cached = run_schedule(&s, Some(CoherenceMode::EagerInvalidate));
        assert_eq!(
            uncached.bytes, cached.bytes,
            "cached bytes diverged from uncached run (ring capacity {cap})"
        );
        if cap == 0 && s.updates_per_round > 0 {
            assert!(
                cached.stats.notification_overflows > 0,
                "a ring of capacity 0 saw writes and never overflowed"
            );
        }
    }
}

/// The coherence counters that must stay zero in `CoherenceMode::None`.
fn coherence_counters(s: &CacheStats) -> [u64; 4] {
    [
        s.stale_hits_prevented,
        s.notifications_drained,
        s.notification_overflows,
        s.version_fetches,
    ]
}

#[test]
fn prop_coherent_modes_serve_no_stale_bytes() {
    check("eager (every ring)/full-inval == uncached bytes", 12, |g| {
        let s = gen_schedule(g, false);
        let uncached = run_schedule(&s, None);
        check_eager_at_every_ring_cap(&s, &uncached);
        let cached = run_schedule(&s, Some(CoherenceMode::None));
        assert_eq!(
            uncached.bytes, cached.bytes,
            "cached bytes diverged from uncached run (full invalidation)"
        );
    });
}

#[test]
fn prop_coherent_modes_survive_transient_faults() {
    check("no stale bytes under transient faults + retries", 10, |g| {
        let s = gen_schedule(g, true);
        let uncached = run_schedule(&s, None);
        check_eager_at_every_ring_cap(&s, &uncached);
        assert!(s.faults.is_some());
    });
}

#[test]
fn prop_none_mode_is_inert() {
    check(
        "CoherenceMode::None ignores the notification ring",
        10,
        |g| {
            let faulty = g.bool();
            let mut s = gen_schedule(g, faulty);
            let runs: Vec<Run> = [0usize, 1, 64]
                .iter()
                .map(|&cap| {
                    s.ring_cap = cap;
                    run_schedule(&s, Some(CoherenceMode::None))
                })
                .collect();
            for r in &runs[1..] {
                assert_eq!(
                    runs[0], *r,
                    "ring capacity leaked into CoherenceMode::None behaviour"
                );
            }
            assert_eq!(
                coherence_counters(&runs[0].stats),
                [0; 4],
                "coherence counters must stay zero in CoherenceMode::None"
            );
        },
    );
}

/// Satellite: a dead target's *pending* notifications are not silently
/// dropped — detection at the coherence point degrades to a full
/// per-target invalidation, and every later get returns zeros.
///
/// Deterministic timing: a fault-free dry run captures the reader's
/// virtual time right before round 2's coherence point; the real run
/// kills rank 1 at exactly that instant, so round 2's puts land (their
/// notifications are pending in the ring) but the drain that would
/// apply them fails with `TargetFailed`.
#[test]
fn rank_failure_degrades_pending_notifications_to_full_invalidation() {
    const RECORDS: usize = 8;
    const PUTS: usize = 4;

    // Returns (reader time before round-2 validate, round-3 classes,
    // round-3 zero-read flags, reader stats).
    fn run(at_ns: Option<f64>) -> (f64, Vec<Option<AccessType>>, Vec<bool>, CacheStats) {
        let mut sim = SimConfig::default();
        if let Some(t) = at_ns {
            sim = sim.with_faults(FaultConfig::default().with_rank_failure(1, t));
        }
        let out = run_collect(sim, 2, move |p| {
            let rank = p.rank();
            let params = CacheParams {
                coherence: CoherenceMode::EagerInvalidate,
                ..CacheParams::default()
            };
            let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params);
            let mut win = CachedWindow::create(p, RECORDS * SIZE, cfg);
            let mut versions = [0u64; RECORDS];
            if rank == 1 {
                let mut local = win.local_mut();
                for r in 0..RECORDS {
                    local[r * SIZE..(r + 1) * SIZE].fill(pattern_byte(r, 0));
                }
            }
            p.barrier();

            win.lock_all(p);
            let dtype = Datatype::bytes(SIZE);
            let mut captured = 0.0;
            let mut classes = Vec::new();
            let mut zeroed = Vec::new();
            for round in 0..3 {
                if rank == 0 {
                    let mut buf = vec![0u8; SIZE];
                    for (r, &v) in versions.iter().enumerate() {
                        let class = win.get(p, &mut buf, 1, r * SIZE, &dtype, 1);
                        if class != Some(AccessType::Hit) {
                            win.flush(p, 1);
                        }
                        if round == 2 {
                            classes.push(class);
                            zeroed.push(buf.iter().all(|&b| b == 0));
                        } else {
                            assert!(
                                buf.iter().all(|&b| b == pattern_byte(r, v)),
                                "pre-failure read of record {r} must be current"
                            );
                        }
                    }
                }
                p.barrier();
                for (r, v) in versions.iter_mut().enumerate().take(PUTS) {
                    *v += 1;
                    if rank == 1 {
                        let val = vec![pattern_byte(r, *v); SIZE];
                        win.put(p, &val, 1, r * SIZE, &dtype, 1);
                    }
                }
                if rank == 1 {
                    win.flush(p, 1);
                }
                p.barrier();
                if round == 1 {
                    captured = p.now();
                }
                win.validate(p);
            }
            win.unlock_all(p);
            p.barrier();
            #[cfg(debug_assertions)]
            if let Some(cache) = win.cache() {
                cache.check_invariants();
            }
            (captured, classes, zeroed, win.stats())
        });
        let (captured, classes, zeroed, stats) = out[0].1.clone();
        (captured, classes, zeroed, stats)
    }

    let (t_detect, _, _, dry_stats) = run(None);
    assert!(t_detect > 0.0);
    // Fault-free: all three update batches are drained surgically.
    assert_eq!(dry_stats.notifications_drained, 3 * PUTS as u64);
    assert_eq!(dry_stats.invalidations_on_failure, 0);

    let (_, classes, zeroed, stats) = run(Some(t_detect));
    // Round 2's puts landed before the failure, so their notifications
    // were pending when the drain failed: only round 1's batch was ever
    // applied surgically...
    assert_eq!(stats.notifications_drained, PUTS as u64);
    // ...and the pending batch degraded to a full per-target
    // invalidation of everything cached (all RECORDS entries), not a
    // silent drop.
    assert!(
        stats.invalidations_on_failure >= RECORDS as u64,
        "pending notifications must degrade to a full invalidation \
         (got {} invalidations)",
        stats.invalidations_on_failure
    );
    // Post-failure reads: all faulted, all zero-filled — never a stale
    // cached version (pattern bytes are never zero).
    assert_eq!(classes, vec![Some(AccessType::Faulted); RECORDS]);
    assert!(zeroed.iter().all(|&z| z), "degraded reads must be zeros");
}

/// Record rank 0 caches before its miss and reads again after its flush.
const PROBE: usize = 2;

/// What runs between rank 0's miss on record 0 of rank 1 and rank 0's
/// flush of target 1. Every case in which rank 1 writes puts and flushes
/// [`PROBE`], after the miss's reply (rank 0 hands it a lock on a second
/// window, a release that does not count as a sync event for rank 0),
/// then makes one kind of sync event order that write before rank 0's
/// flush.
#[derive(Clone, Copy, PartialEq)]
enum Between {
    /// Nothing: a read phase.
    Nothing,
    /// Rank 0 puts [`PROBE`] itself.
    OwnPut,
    /// A barrier.
    Barrier,
    /// Rank 1 releases an exclusive lock on a second window, held since
    /// before the miss; rank 0 then acquires it.
    Lock,
    /// Rank 1 writes inside a PSCW access epoch on a second window that
    /// rank 0 exposed after its miss; rank 0 `wait`s for its `complete`.
    Wait,
    /// Rank 1 posts a second window after writing; rank 0 `start`s an
    /// access epoch on it.
    Start,
}

/// Rank 0's observations: the flush's virtual-time delta, the
/// notifications its passes drained, the probe's class and whether its
/// bytes are current.
type FlushObs = (f64, u64, Option<AccessType>, bool);

fn miss_then_flush(coherence: CoherenceMode, between: Between) -> FlushObs {
    let out = run_collect(SimConfig::default(), 2, move |p| {
        let rank = p.rank();
        let params = CacheParams {
            coherence,
            ..CacheParams::default()
        };
        let mut win =
            CachedWindow::create(p, 4 * SIZE, ClampiConfig::fixed(Mode::AlwaysCache, params));
        let mut locks = p.win_allocate(8);
        let mut pscw = p.win_allocate(8);
        if rank == 1 {
            let mut local = win.local_mut();
            for r in 0..4 {
                local[r * SIZE..(r + 1) * SIZE].fill(pattern_byte(r, 0));
            }
        }
        // Rank 0 holds lock 0 until its miss has been answered; rank 1
        // holds lock 1 until it has written (the `Lock` case).
        locks.lock(p, LockKind::Exclusive, rank);
        p.barrier();
        win.lock_all(p);
        let dtype = Datatype::bytes(SIZE);
        // A write phase, then the pass that drains it.
        if rank == 1 {
            win.put(p, &[pattern_byte(1, 1); SIZE], 1, SIZE, &dtype, 1);
            win.flush(p, 1);
        }
        p.barrier();
        win.validate(p);
        let mut buf = vec![0u8; SIZE];
        if rank == 0 {
            // Cache the probe record (a miss, flushed), then a miss on
            // record 0 whose reply sees the target at the cursor.
            win.get(p, &mut buf, 1, PROBE * SIZE, &dtype, 1);
            win.flush(p, 1);
            win.get(p, &mut buf, 1, 0, &dtype, 1);
            locks.unlock(p, 0);
        } else {
            locks.lock(p, LockKind::Exclusive, 0);
            locks.unlock(p, 0);
        }
        let new = [pattern_byte(PROBE, 1); SIZE];
        let writer = match between {
            Between::Nothing => None,
            Between::OwnPut => Some(0),
            _ => Some(1),
        };
        if between == Between::Wait {
            if rank == 0 {
                pscw.post(p, &[1]);
            } else {
                pscw.start(p, &[0]);
            }
        }
        if writer == Some(rank) {
            win.put(p, &new, 1, PROBE * SIZE, &dtype, 1);
            if rank == 1 {
                win.flush(p, 1);
            }
        }
        match (between, rank) {
            (Between::Barrier, _) => p.barrier(),
            (Between::Lock, 0) => {
                locks.lock(p, LockKind::Exclusive, 1);
                locks.unlock(p, 1);
            }
            (Between::Wait, 0) => pscw.wait(p, &[1]),
            (Between::Wait, _) => pscw.complete(p),
            (Between::Start, 0) => {
                pscw.start(p, &[1]);
                pscw.complete(p);
            }
            (Between::Start, _) => {
                pscw.post(p, &[0]);
                pscw.wait(p, &[0]);
            }
            _ => {}
        }
        if rank == 1 {
            locks.unlock(p, 1);
        }
        let mut obs = (0.0, 0, None, false);
        if rank == 0 {
            let t0 = p.now();
            win.flush(p, 1);
            obs.0 = p.now() - t0;
            obs.1 = win.stats().notifications_drained;
            obs.2 = win.get(p, &mut buf, 1, PROBE * SIZE, &dtype, 1);
            if obs.2 != Some(AccessType::Hit) {
                win.flush(p, 1);
            }
            let version = u64::from(writer.is_some());
            obs.3 = buf.iter().all(|&b| b == pattern_byte(PROBE, version));
        }
        p.barrier();
        win.unlock_all(p);
        p.barrier();
        obs
    });
    out[0].1
}

/// Rule B: in a read phase (no write since the last pass), the get
/// reply saw the target at the cursor, so the flush after the miss
/// drains nothing — it costs exactly what it costs without coherence.
#[test]
fn a_read_phase_flush_charges_no_drain() {
    let (eager_ns, drained, class, current) =
        miss_then_flush(CoherenceMode::EagerInvalidate, Between::Nothing);
    let (none_ns, ..) = miss_then_flush(CoherenceMode::None, Between::Nothing);
    assert_eq!(eager_ns, none_ns, "the flush paid for a drain");
    assert_eq!(drained, 0);
    assert_eq!(class, Some(AccessType::Hit));
    assert!(current);
}

/// Rule B's guard: after a sync event of rank 0 that orders the write of
/// [`PROBE`] before its flush, the flush must drain that write, and the
/// next get of the record must miss and read the new bytes.
fn assert_the_flush_drains(between: Between) {
    let (_, drained, class, current) = miss_then_flush(CoherenceMode::EagerInvalidate, between);
    assert_eq!(drained, 1, "the flush must drain the ordered write");
    assert_ne!(class, Some(AccessType::Hit), "the written record must miss");
    assert!(current, "the reader must see the write");
}

#[test]
fn a_flush_after_a_collective_drains_the_write_it_ordered() {
    assert_the_flush_drains(Between::Barrier);
}

/// The reader's own put must be visible to its own next get. The flush
/// still drains the put's record, but the put wrote through to the
/// reader's cached copy and stamped it with the put's version, so the
/// drain keeps it and the next get hits the put's bytes.
#[test]
fn a_flush_after_the_readers_own_put_drains_it_and_the_next_get_hits_the_put() {
    let (_, drained, class, current) =
        miss_then_flush(CoherenceMode::EagerInvalidate, Between::OwnPut);
    assert_eq!(drained, 1, "the flush must drain the reader's own put");
    assert_eq!(class, Some(AccessType::Hit), "the written record must hit");
    assert!(current, "the hit must serve the put's bytes");
}

/// Lock acquisition on *another* window orders the writer's flushed put
/// (on this one) before the reader's flush.
#[test]
fn a_flush_after_a_lock_on_another_window_drains_the_write_it_ordered() {
    assert_the_flush_drains(Between::Lock);
}

/// PSCW `wait` on another window orders the accessor's flushed put.
#[test]
fn a_flush_after_a_pscw_wait_on_another_window_drains_the_write_it_ordered() {
    assert_the_flush_drains(Between::Wait);
}

/// PSCW `start` on another window orders the exposer's flushed put.
#[test]
fn a_flush_after_a_pscw_start_on_another_window_drains_the_write_it_ordered() {
    assert_the_flush_drains(Between::Start);
}

/// What rank 0 saw around one `validate` ([`revalidate`]).
struct Revalidated {
    /// Virtual ns rank 0 spent blocked inside `validate`.
    blocked_ns: f64,
    /// Rank 0's `notifications_drained`, `refetches` and `retries`
    /// counted inside `validate`.
    drained: u64,
    refetches: u64,
    retries: u64,
    /// Whether target 1 is degraded after `validate`, and whether any
    /// entry of it is still resident.
    degraded: bool,
    resident: bool,
    /// The classes of the reads after `validate`, the wire gets they
    /// issued, and whether each read the writer's bytes — equal to an
    /// uncached read of the record.
    classes: Vec<Option<AccessType>>,
    wire_gets: u64,
    current: Vec<bool>,
    /// Rank 0's virtual time when it called `validate`, and when it
    /// returned.
    validate_at: f64,
    validated_at: f64,
    /// The flushes rank 0 issued inside `validate`.
    flushes: u64,
    /// Rank 0's stale hits prevented and `invalidations_on_failure`
    /// counted inside `validate`.
    stale: u64,
    failure_drops: u64,
    /// Rank 0's free storage bytes just before and just after `validate`.
    free_bytes: (usize, usize),
    /// Rank 0's resident entries just before `validate`, just after it and
    /// after the reads.
    #[cfg(debug_assertions)]
    residents: [Vec<Resident>; 3],
}

/// What [`revalidate_with`] varies.
#[derive(Clone)]
struct Setup {
    records: usize,
    faults: Option<FaultConfig>,
    in_epoch: bool,
    /// Rank 0's cache; `coherence` is set to `EagerInvalidate`.
    params: CacheParams,
    max_retries: u32,
    /// Rank 1 rewrites every `rewrite_every`-th record.
    rewrite_every: usize,
    /// Rank 0 leaves a `get_nb` of its own region outstanding across
    /// `validate` (with `in_epoch` only).
    nb_to_self: bool,
}

impl Setup {
    fn new(records: usize) -> Self {
        Setup {
            records,
            faults: None,
            in_epoch: true,
            params: CacheParams::default(),
            max_retries: 64,
            rewrite_every: 1,
            nb_to_self: false,
        }
    }
}

/// [`revalidate_with`]: rank 1 rewrites every record, retries are ample.
fn revalidate(records: usize, faults: Option<FaultConfig>, in_epoch: bool) -> Revalidated {
    revalidate_with(Setup {
        faults,
        in_epoch,
        ..Setup::new(records)
    })
}

/// Rank 0's resident entries (debug builds only).
#[cfg(debug_assertions)]
fn residents(win: &CachedWindow) -> Vec<Resident> {
    win.cache().map(|c| c.residents()).unwrap_or_default()
}

/// Rank 0 caches `records` of rank 1 (every other record, so no two
/// refetches are adjacent and none coalesce) inside `lock_all`; rank 1
/// rewrites every `rewrite_every`-th; rank 0 runs `validate` and then
/// reads them all again. `faults` applies to the whole run; with
/// `in_epoch` false rank 0 caches and rereads under a lock on target 1
/// that is closed during `validate`.
fn revalidate_with(s: Setup) -> Revalidated {
    let Setup {
        records,
        faults,
        in_epoch,
        params,
        max_retries,
        rewrite_every,
        nb_to_self,
    } = s;
    let faulty = faults.is_some();
    let mut sim = SimConfig::default();
    if let Some(f) = faults {
        sim = sim.with_faults(f);
    }
    let out = run_collect(sim, 2, move |p| {
        let rank = p.rank();
        let params = CacheParams {
            coherence: CoherenceMode::EagerInvalidate,
            ..params.clone()
        };
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params).with_retry(RetryPolicy {
            max_retries,
            op_timeout_ns: f64::INFINITY,
            ..RetryPolicy::default()
        });
        let mut win = CachedWindow::create(p, 2 * records * SIZE, cfg);
        let disp = |i: usize| 2 * i * SIZE;
        if rank == 1 {
            let mut local = win.local_mut();
            for i in 0..records {
                local[disp(i)..disp(i) + SIZE].fill(pattern_byte(i, 0));
            }
        }
        p.barrier();
        let dtype = Datatype::bytes(SIZE);
        let mut buf = vec![0u8; SIZE];
        if in_epoch {
            win.lock_all(p);
        } else if rank == 0 {
            win.lock(p, LockKind::Shared, 1);
        }
        if rank == 0 {
            for i in 0..records {
                win.get(p, &mut buf, 1, disp(i), &dtype, 1);
                win.flush(p, 1);
            }
            if !in_epoch {
                win.unlock(p, 1);
            }
        }
        p.barrier();
        if rank == 1 {
            if !in_epoch {
                win.lock(p, LockKind::Exclusive, 1);
            }
            for i in (0..records).step_by(rewrite_every) {
                win.put(p, &[pattern_byte(i, 1); SIZE], 1, disp(i), &dtype, 1);
            }
            if in_epoch {
                win.flush(p, 1);
            } else {
                win.unlock(p, 1);
            }
        }
        p.barrier();
        let free_bytes = |win: &CachedWindow| win.cache().map_or(0, |c| c.free_bytes());
        let free_before = free_bytes(&win);
        #[cfg(debug_assertions)]
        let residents_before = residents(&win);
        let mut own = vec![0u8; SIZE];
        if rank == 0 && nb_to_self {
            win.get_nb(p, &mut own, 0, 0, &dtype, 1);
        }
        let before = (p.clock().total_blocked(), win.stats());
        let (validate_at, flushes) = (p.now(), p.counters().flushes);
        win.validate(p);
        let during = win.stats().delta_since(&before.1);
        // The engine is consistent when `validate` returns.
        #[cfg(debug_assertions)]
        if let Some(cache) = win.cache() {
            cache.check_invariants();
        }
        let mut obs = Revalidated {
            blocked_ns: p.clock().total_blocked() - before.0,
            drained: during.notifications_drained,
            refetches: during.refetches,
            retries: during.retries,
            degraded: win.is_degraded(1),
            resident: win.cache().is_some_and(|c| c.has_entries_for(1)),
            classes: Vec::new(),
            wire_gets: 0,
            current: Vec::new(),
            validate_at,
            validated_at: p.now(),
            flushes: p.counters().flushes - flushes,
            stale: during.stale_hits_prevented,
            failure_drops: during.invalidations_on_failure,
            free_bytes: (free_before, free_bytes(&win)),
            #[cfg(debug_assertions)]
            residents: [residents_before, residents(&win), Vec::new()],
        };
        if rank == 0 {
            if !in_epoch {
                win.lock(p, LockKind::Shared, 1);
            }
            for i in 0..records {
                let gets = p.counters().gets;
                let class = win.get(p, &mut buf, 1, disp(i), &dtype, 1);
                obs.classes.push(class);
                obs.wire_gets += p.counters().gets - gets;
                if class != Some(AccessType::Hit) {
                    win.flush(p, 1);
                }
                // An uncached read, only where one cannot fault: the
                // plain window panics on a faulted read.
                let mut plain = vec![pattern_byte(i, 1); SIZE];
                if !faulty {
                    win.get_uncached(p, &mut plain, 1, disp(i), &dtype, 1);
                    win.inner_mut().flush(p, 1);
                }
                let fresh = buf.iter().all(|&b| b == pattern_byte(i, 1));
                obs.current.push(fresh && buf == plain);
            }
            if !in_epoch {
                win.unlock(p, 1);
            }
            #[cfg(debug_assertions)]
            {
                obs.residents[2] = residents(&win);
            }
        }
        p.barrier();
        if in_epoch {
            win.unlock_all(p);
        }
        p.barrier();
        #[cfg(debug_assertions)]
        if let Some(cache) = win.cache() {
            cache.check_invariants();
        }
        obs
    });
    out.into_iter().next().expect("rank 0 reports").1
}

/// `validate` fetches again what its own pass dropped: the next read of a
/// rewritten record is a hit that issues no wire get and serves the
/// writer's bytes, the same bytes an uncached read returns. (Before, it
/// was a blocking miss.)
#[test]
fn a_refetched_entry_serves_the_writers_bytes_without_a_wire_get() {
    let r = revalidate(4, None, true);
    assert_eq!(r.refetches, 4);
    assert_eq!(r.classes, vec![Some(AccessType::Hit); 4]);
    assert_eq!(r.wire_gets, 0, "a refetched record was fetched again");
    assert_eq!(
        r.current,
        vec![true; 4],
        "refetched bytes are not the writer's"
    );
}

/// The refetches of one target go out as one batch completed by one
/// flush: `validate` blocks for one wire latency whatever the number of
/// rewritten records, not once per record.
#[test]
fn validate_blocks_for_one_wire_latency_not_one_per_refetch() {
    let one = revalidate(1, None, true);
    let eight = revalidate(8, None, true);
    assert_eq!((one.refetches, eight.refetches), (1, 8));
    assert!(one.blocked_ns > 0.0, "a refetch that never blocked");
    assert!(
        eight.blocked_ns < 1.5 * one.blocked_ns,
        "8 refetches blocked {} ns, 1 blocked {} ns",
        eight.blocked_ns,
        one.blocked_ns
    );
}

/// Refetches run under the retry policy: a transient fault is retried and
/// the entry still comes back current.
#[test]
fn a_transient_fault_on_a_refetch_is_retried() {
    let r = revalidate(8, Some(FaultConfig::transient(0.5, 11)), true);
    assert!(r.retries > 0, "no fault hit validate's drain or refetches");
    assert_eq!(r.refetches, 8);
    assert_eq!(r.classes, vec![Some(AccessType::Hit); 8]);
    assert_eq!(r.current, vec![true; 8]);
}

/// A refetch round whose every fetch fails transiently still completes
/// its target: one flush, whose epoch hook `validate` charges as it would
/// had a refetch landed. The fault seed is the first whose schedule fails
/// all refetches but not the drain; the clock is pinned to the value of
/// the rule that flushes a refreshed target whatever its refetches did.
#[test]
fn a_refetch_round_that_fails_entirely_still_flushes_its_target_once() {
    let r = (0..256)
        .map(|seed| {
            revalidate_with(Setup {
                faults: Some(FaultConfig::transient(0.5, seed)),
                max_retries: 0,
                ..Setup::new(4)
            })
        })
        .find(|r| r.drained > 0 && r.stale > 0 && r.refetches == 0 && !r.degraded)
        .expect("no seed fails every refetch but not the drain");
    assert_eq!(
        r.flushes, 1,
        "the failed round's target was not flushed once"
    );
    let clock = (r.validate_at, r.validated_at);
    assert_eq!(
        clock,
        (23641.199999999993, 100054.0),
        "validate's charges moved"
    );
}

/// A `get_nb` of rank 0's own region left outstanding across `validate`
/// neither merges with the refetches nor is completed by them: `validate`
/// flushes target 1 only, and refreshes every rewritten record.
#[test]
fn validate_leaves_an_outstanding_get_nb_to_another_target_in_flight() {
    let r = revalidate_with(Setup {
        nb_to_self: true,
        ..Setup::new(4)
    });
    assert_eq!((r.refetches, r.flushes), (4, 1));
    assert_eq!(r.classes, vec![Some(AccessType::Hit); 4]);
    assert_eq!(r.current, vec![true; 4]);
    let clock = (r.validate_at, r.validated_at);
    assert_eq!(
        clock,
        (23162.199999999997, 99930.2),
        "validate's charges moved"
    );
}

/// Target 1 dies after `validate`'s drain and before its first refetch:
/// the refetch degrades the target, its entries stay dropped, and nothing
/// zero-filled is cached — every later read is `Faulted`, never a hit.
#[test]
fn a_dead_target_leaves_its_refetches_dropped() {
    // The drain of target 1 runs at the instant `validate` starts (nothing
    // of target 0 is cached, so its drain is skipped for free) and charges
    // CPU time; the refetches come later.
    let at = revalidate(4, None, true).validate_at + 1.0;
    let r = revalidate(
        4,
        Some(FaultConfig::default().with_rank_failure(1, at)),
        true,
    );
    assert_eq!(r.drained, 4, "the drain must precede the failure");
    assert!(r.degraded);
    assert!(!r.resident, "a dead target's entry is still cached");
    assert_eq!(r.refetches, 0);
    assert_eq!(r.classes, vec![Some(AccessType::Faulted); 4]);
}

/// With no access epoch open towards the target, `validate` drops what
/// the writes made stale and fetches nothing: the next read misses.
#[test]
fn validate_outside_an_access_epoch_refetches_nothing() {
    let r = revalidate(4, None, false);
    assert_eq!(r.refetches, 0);
    assert!(!r.resident);
    assert!(r.classes.iter().all(|&c| c != Some(AccessType::Hit)));
    assert_eq!(r.current, vec![true; 4]);
}

/// What a refresh in place leaves alone: slot, slab id, key, storage
/// offset and last access.
#[cfg(debug_assertions)]
fn places(residents: &[Resident]) -> Vec<(usize, u32, u64, usize, u64)> {
    residents
        .iter()
        .map(|r| (r.slot, r.id, r.key.disp, r.off, r.last))
        .collect()
}

/// `validate` refreshes a stale entry in place: the same slab id, index
/// slot, storage region and last access, with the fetch's newer version.
#[cfg(debug_assertions)]
#[test]
fn a_refreshed_entry_keeps_its_slot_id_region_and_last_access() {
    let r = revalidate(8, None, true);
    let [before, after, _] = &r.residents;
    assert_eq!((before.len(), r.refetches), (8, 8));
    assert_eq!(places(before), places(after), "a refresh moved its entry");
    assert!(
        before.iter().zip(after).all(|(b, a)| a.version > b.version),
        "a refreshed entry kept its old version"
    );
}

/// A refresh writes into the entry's own region: `validate` frees and
/// allocates no storage.
#[test]
fn validate_neither_frees_nor_allocates_storage() {
    let r = revalidate(8, None, true);
    assert_eq!((r.stale, r.refetches), (8, 8));
    assert_eq!(r.free_bytes.0, r.free_bytes.1);
}

/// With the storage full, `validate` refreshes every stale entry and
/// evicts no other one to make room (a refresh needs none).
#[cfg(debug_assertions)]
#[test]
fn under_capacity_pressure_validate_evicts_no_other_entry() {
    const RECORDS: usize = 16;
    let r = revalidate_with(Setup {
        params: CacheParams {
            storage_bytes: RECORDS * SIZE,
            ..CacheParams::default()
        },
        rewrite_every: 2,
        ..Setup::new(RECORDS)
    });
    let [before, after, _] = &r.residents;
    assert_eq!(r.free_bytes.0, 0, "the storage was not full");
    assert!(r.stale > 0 && r.refetches == r.stale);
    assert_eq!(
        places(before),
        places(after),
        "validate moved or evicted an entry"
    );
}

/// A refetch that exhausts its retries evicts its own entry and no other;
/// the entries whose refetches landed are refreshed in place, and the
/// engine is consistent when `validate` returns. The fault seed is the
/// first whose schedule fails some refetches but not all, nor the drain.
#[cfg(debug_assertions)]
#[test]
fn a_refetch_that_exhausts_its_retries_evicts_exactly_its_entry() {
    let r = (0..64)
        .map(|seed| {
            revalidate_with(Setup {
                faults: Some(FaultConfig::transient(0.3, seed)),
                max_retries: 0,
                ..Setup::new(16)
            })
        })
        .find(|r| r.drained > 0 && r.refetches > 0 && r.stale > r.refetches)
        .expect("no seed fails some refetches but not all");
    let [before, after, _] = &r.residents;
    let failed = (r.stale - r.refetches) as usize;
    assert_eq!(before.len() - after.len(), failed);
    let kept = places(before);
    assert!(
        places(after).iter().all(|a| kept.contains(a)),
        "a surviving entry moved"
    );
}

/// Target 1 dies after `validate` refreshed some of its entries and
/// before it refreshed the rest: the target is dropped once, every entry
/// with it (the refreshed and the kept), and nothing is evicted twice.
#[test]
fn a_target_that_dies_between_two_refreshes_is_dropped_once() {
    let dies_at = |t: f64| {
        revalidate(
            4,
            Some(FaultConfig::default().with_rank_failure(1, t)),
            true,
        )
    };
    // Bisect for the instant of the first refetch (dying before it
    // refetches nothing), then die half an issue overhead after it.
    let (mut before, mut after) = (revalidate(4, None, true).validate_at, 1e9);
    for _ in 0..48 {
        let mid = (before + after) / 2.0;
        if dies_at(mid).refetches == 0 {
            before = mid;
        } else {
            after = mid;
        }
    }
    let r = dies_at(after + 60.0);
    assert!(
        r.refetches > 0 && r.refetches < 4,
        "{} of 4 refreshed: the failure missed the batch",
        r.refetches
    );
    assert!(r.degraded);
    assert!(!r.resident, "a dead target's entry is still cached");
    assert_eq!(
        r.failure_drops, 4,
        "an entry was dropped twice or not at all"
    );
}

/// Outside an access epoch `validate` evicts the stale entries as every
/// other pass does, in ascending index-slot order. Slab ids are reused
/// last-freed-first, so the rereads (in ascending displacement) take the
/// evicted ids in descending slot order.
#[cfg(debug_assertions)]
#[test]
fn outside_an_epoch_stale_entries_are_evicted_in_ascending_slot_order() {
    let r = revalidate(8, None, false);
    let [before, after, reread] = &r.residents;
    assert_eq!((before.len(), after.len(), r.stale), (8, 0, 8));
    assert!(
        before.windows(2).any(|w| w[0].key.disp > w[1].key.disp),
        "slot order happens to be displacement order"
    );
    let mut reread = reread.clone();
    reread.sort_by_key(|e| e.key.disp);
    let reused: Vec<u32> = reread.iter().map(|e| e.id).collect();
    let last_evicted_first: Vec<u32> = before.iter().rev().map(|e| e.id).collect();
    assert_eq!(reused, last_evicted_first);
}

/// The record rank 0 caches from rank 1 and then writes itself.
const OWN: usize = 1;

/// What rank 0's put does to the record [`OWN`] it has cached.
#[derive(Clone, Copy, PartialEq, Debug)]
enum OwnPut {
    /// It covers the record exactly.
    Exact,
    /// It covers the record exactly; then rank 1 writes the record again.
    ThenForeign,
    /// It covers only the record's first half.
    Half,
    /// It covers the whole record, but starts half a record before it:
    /// the entry is keyed elsewhere.
    Elsewhere,
    /// It covers the record exactly, after rank 1 died.
    DeadTarget,
}

/// What rank 0 saw around its own put ([`own_put`]).
#[derive(Debug, Default)]
struct OwnPutObs {
    /// Cached entries the put updated.
    updates: u64,
    /// Virtual ns the put took.
    put_ns: f64,
    /// The cached entry's stamp after the put (`(version, exact)`), and
    /// target 1's version right after the put.
    stamp: Option<(u64, bool)>,
    put_version: u64,
    /// The class and bytes of the read of [`OWN`] after the flushes, and
    /// the bytes of an uncached read of it (`None` for a dead target).
    class: Option<AccessType>,
    bytes: Vec<u8>,
    uncached: Option<Vec<u8>>,
    degraded: bool,
}

/// The virtual time at which rank 1 dies in [`OwnPut::DeadTarget`]: after
/// rank 0 cached [`OWN`], before its put.
const KILL_NS: f64 = 1e9;

/// Rank 0 caches record [`OWN`] of rank 1 (a miss, flushed), puts
/// `case`'s range with version-1 bytes, flushes; after a barrier (and,
/// for [`OwnPut::ThenForeign`], rank 1's version-2 write of the record)
/// it flushes again, reads [`OWN`] through the cache and then uncached.
/// `coherence` `None` runs caching disabled.
fn own_put(coherence: Option<CoherenceMode>, case: OwnPut) -> OwnPutObs {
    let mut sim = SimConfig::default();
    if case == OwnPut::DeadTarget {
        sim = sim.with_faults(FaultConfig::default().with_rank_failure(1, KILL_NS));
    }
    let out = run_collect(sim, 2, move |p| {
        let rank = p.rank();
        let cfg = match coherence {
            None => ClampiConfig::disabled(),
            Some(coherence) => {
                let params = CacheParams {
                    coherence,
                    ..CacheParams::default()
                };
                ClampiConfig::fixed(Mode::AlwaysCache, params)
            }
        };
        let mut win = CachedWindow::create(p, 4 * SIZE, cfg);
        if rank == 1 {
            let mut local = win.local_mut();
            for r in 0..4 {
                local[r * SIZE..(r + 1) * SIZE].fill(pattern_byte(r, 0));
            }
        }
        p.barrier();
        win.lock_all(p);
        let mut obs = OwnPutObs::default();
        let mut buf = vec![0u8; SIZE];
        let dtype = Datatype::bytes(SIZE);
        if rank == 0 {
            win.get(p, &mut buf, 1, OWN * SIZE, &dtype, 1);
            win.flush(p, 1);
            let (disp, len) = match case {
                OwnPut::Half => (OWN * SIZE, SIZE / 2),
                OwnPut::Elsewhere => (OWN * SIZE - SIZE / 2, 2 * SIZE),
                _ => (OWN * SIZE, SIZE),
            };
            if case == OwnPut::DeadTarget {
                p.compute(KILL_NS);
            }
            let before = (win.stats().put_updates, p.now());
            let src = vec![pattern_byte(OWN, 1); len];
            win.put(p, &src, 1, disp, &Datatype::bytes(len), 1);
            obs.updates = win.stats().put_updates - before.0;
            obs.put_ns = p.now() - before.1;
            let key = clampi::index::GetKey {
                target: 1,
                disp: (OWN * SIZE) as u64,
            };
            let stamp = win.cache().and_then(|c| c.snap_stamp(&key));
            obs.stamp = stamp.map(|s| (s.version, s.exact));
            obs.put_version = win.inner().version(1);
            if !win.is_degraded(1) {
                win.flush(p, 1);
            }
        }
        p.barrier();
        if rank == 1 && case == OwnPut::ThenForeign {
            win.put(p, &[pattern_byte(OWN, 2); SIZE], 1, OWN * SIZE, &dtype, 1);
            win.flush(p, 1);
        }
        p.barrier();
        if rank == 0 {
            obs.degraded = win.is_degraded(1);
            if !obs.degraded {
                win.flush(p, 1);
            }
            obs.class = win.get(p, &mut buf, 1, OWN * SIZE, &dtype, 1);
            if !obs.degraded && obs.class != Some(AccessType::Hit) {
                win.flush(p, 1);
            }
            obs.bytes = buf.clone();
            if !obs.degraded {
                let mut plain = vec![0u8; SIZE];
                win.get_uncached(p, &mut plain, 1, OWN * SIZE, &dtype, 1);
                win.inner_mut().flush(p, 1);
                obs.uncached = Some(plain);
            }
        }
        p.barrier();
        win.unlock_all(p);
        p.barrier();
        #[cfg(debug_assertions)]
        if let Some(cache) = win.cache() {
            cache.check_invariants();
        }
        obs
    });
    out.into_iter().next().expect("rank 0 reports").1
}

/// A put that covers a cached record exactly writes through to the
/// writer's copy: the entry takes the put's version, exact, and the next
/// read hits and serves what an uncached read returns.
#[test]
fn an_exact_cover_put_updates_the_writers_cached_copy() {
    let o = own_put(Some(CoherenceMode::EagerInvalidate), OwnPut::Exact);
    assert_eq!(o.updates, 1);
    assert_eq!(o.stamp, Some((o.put_version, true)), "not the put's stamp");
    assert_eq!(o.class, Some(AccessType::Hit));
    assert_eq!(o.bytes, vec![pattern_byte(OWN, 1); SIZE]);
    assert_eq!(o.uncached.as_ref(), Some(&o.bytes));
}

/// The updated entry is stamped with its put's version, not newer: a
/// later foreign write to the record still drops it at the drain, and the
/// next read misses and sees the foreign bytes.
#[test]
fn a_foreign_write_after_the_writers_update_still_drops_it() {
    let o = own_put(Some(CoherenceMode::EagerInvalidate), OwnPut::ThenForeign);
    assert_eq!(o.updates, 1);
    assert_ne!(o.class, Some(AccessType::Hit), "a stale update survived");
    assert_eq!(o.bytes, vec![pattern_byte(OWN, 2); SIZE]);
    assert_eq!(o.uncached.as_ref(), Some(&o.bytes));
}

/// A put that covers the cached record only in part, or covers it from
/// another key, updates nothing: the drain drops the entry as before and
/// the next read misses and reads what an uncached read does.
#[test]
fn a_partial_or_foreign_keyed_put_leaves_the_entry_to_the_drain() {
    for case in [OwnPut::Half, OwnPut::Elsewhere] {
        let o = own_put(Some(CoherenceMode::EagerInvalidate), case);
        assert_eq!(o.updates, 0, "{case:?}");
        assert_ne!(o.class, Some(AccessType::Hit), "{case:?}: entry kept");
        assert_eq!(o.uncached.as_ref(), Some(&o.bytes), "{case:?}");
        assert_eq!(&o.bytes[..SIZE / 2], &[pattern_byte(OWN, 1); SIZE / 2]);
    }
}

/// A put whose target has died is discarded and updates nothing: the
/// target is degraded, nothing of it stays cached, and the next read is
/// `Faulted` zeros, not the put's bytes.
#[test]
fn a_put_to_a_dead_target_updates_nothing() {
    let o = own_put(Some(CoherenceMode::EagerInvalidate), OwnPut::DeadTarget);
    assert!(o.degraded);
    assert_eq!(o.updates, 0);
    assert_eq!(o.stamp, None, "a dead target's entry is still cached");
    assert_eq!(o.class, Some(AccessType::Faulted));
    assert_eq!(o.bytes, vec![0; SIZE]);
}

/// Under `CoherenceMode::None` a put updates nothing and charges nothing:
/// it costs what it costs with caching disabled, and the cached copy
/// still holds the old bytes an uncached read no longer returns (that
/// mode leaves staleness to the user).
#[test]
fn a_put_without_coherence_updates_nothing_and_charges_nothing() {
    let none = own_put(Some(CoherenceMode::None), OwnPut::Exact);
    let disabled = own_put(None, OwnPut::Exact);
    assert_eq!(none.updates, 0);
    assert_eq!(none.put_ns, disabled.put_ns, "the put paid for a probe");
    assert_eq!(none.class, Some(AccessType::Hit));
    assert_eq!(none.bytes, vec![pattern_byte(OWN, 0); SIZE]);
    assert_eq!(none.uncached, Some(vec![pattern_byte(OWN, 1); SIZE]));
}

/// What rank 0 does around its put of record [`SETTLED`] in [`settle`].
#[derive(Clone, Copy, PartialEq, Debug)]
enum Settle {
    /// It also caches 16 B at `disp - 8`, off the target's grid, then puts
    /// the record exactly.
    OffGrid,
    /// It puts the record and the next one with one put, longer than the
    /// grid's stride: the next record's entry is not updated.
    Wide,
    /// It puts 16 B into the middle of the record, off the grid.
    Unaligned,
    /// It puts the record through `inner_mut()`.
    Inner,
    /// It puts two 8-byte blocks of the record with a strided type.
    Strided,
    /// Its entry of the record is PENDING (the get completed only by the
    /// inner window's flush) when it puts the record exactly.
    Pending,
    /// Rank 1 writes the record, then rank 0 puts it exactly.
    ForeignBefore,
    /// Rank 0 puts the record exactly, then rank 1 writes it.
    ForeignAfter,
    /// At ring capacity 2, three puts overflow the ring; then the record
    /// is read and put exactly again.
    Overflow,
    /// It puts the record exactly, then rank 1 dies before the flush.
    DeadTarget,
}

const SETTLED: usize = 2;

/// What rank 0 read back at the end of [`settle`]: the class and bytes of
/// a cached read of the record (of the off-grid entry for
/// [`Settle::OffGrid`]) and an uncached read of the same bytes.
#[derive(Debug, Default)]
struct SettleObs {
    class: Option<AccessType>,
    bytes: Vec<u8>,
    uncached: Option<Vec<u8>>,
    degraded: bool,
}

/// Rank 0 caches rank 1's four records; one put through the inner window
/// over the last, drained by a flush, builds its extent directory and the
/// target's grid (stride [`SIZE`]). Then `case` runs its puts and
/// flushes; rank 0 reads back through the cache, then uncached.
fn settle(case: Settle) -> SettleObs {
    let mut sim = SimConfig::default();
    match case {
        Settle::Overflow => sim = sim.with_notify_ring_cap(2),
        Settle::DeadTarget => {
            sim = sim.with_faults(FaultConfig::default().with_rank_failure(1, KILL_NS))
        }
        _ => {}
    }
    let out = run_collect(sim, 2, move |p| {
        let rank = p.rank();
        let params = CacheParams {
            coherence: CoherenceMode::EagerInvalidate,
            ..CacheParams::default()
        };
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params);
        let mut win = CachedWindow::create(p, 4 * SIZE, cfg);
        if rank == 1 {
            let mut local = win.local_mut();
            for r in 0..4 {
                local[r * SIZE..(r + 1) * SIZE].fill(pattern_byte(r, 0));
            }
        }
        p.barrier();
        win.lock_all(p);
        let dtype = Datatype::bytes(SIZE);
        let mut buf = vec![0u8; SIZE];
        let disp = SETTLED * SIZE;
        let put = |win: &mut CachedWindow, p: &mut Process, version: u64| {
            let src = [pattern_byte(SETTLED, version); SIZE];
            win.put(p, &src, 1, disp, &dtype, 1);
        };
        let (read_disp, read_len) = match case {
            Settle::OffGrid => (disp - 8, 16),
            Settle::Wide => (disp + SIZE, SIZE),
            _ => (disp, SIZE),
        };
        if rank == 0 {
            for r in (0..4).filter(|&r| r != SETTLED || case != Settle::Pending) {
                win.get(p, &mut buf, 1, r * SIZE, &dtype, 1);
            }
            if case == Settle::OffGrid {
                win.get(p, &mut buf[..16], 1, disp - 8, &Datatype::bytes(16), 1);
            }
            win.flush(p, 1);
            win.inner_mut().put(p, &[7; SIZE], 1, 3 * SIZE, &dtype, 1);
            win.flush(p, 1);
            if case == Settle::Wide {
                win.get(p, &mut buf, 1, 3 * SIZE, &dtype, 1);
                win.flush(p, 1);
            }
        }
        p.barrier();
        if rank == 1 && case == Settle::ForeignBefore {
            win.put(p, &[pattern_byte(SETTLED, 1); SIZE], 1, disp, &dtype, 1);
            win.flush(p, 1);
        }
        p.barrier();
        if rank == 0 {
            match case {
                Settle::Inner => {
                    let src = [pattern_byte(SETTLED, 1); SIZE];
                    win.inner_mut().put(p, &src, 1, disp, &dtype, 1);
                }
                Settle::Wide => {
                    let src = [pattern_byte(SETTLED, 1); 2 * SIZE];
                    win.put(p, &src, 1, disp, &Datatype::bytes(2 * SIZE), 1);
                }
                Settle::Unaligned => {
                    let src = [pattern_byte(SETTLED, 1); 16];
                    win.put(p, &src, 1, disp + 8, &Datatype::bytes(16), 1);
                }
                Settle::Strided => {
                    let src = [pattern_byte(SETTLED, 1); 16];
                    let two_blocks = Datatype::vector(2, 8, 16, Datatype::bytes(1));
                    win.put(p, &src, 1, disp, &two_blocks, 1);
                }
                Settle::Pending => {
                    win.get(p, &mut buf, 1, disp, &dtype, 1);
                    win.inner_mut().flush(p, 1);
                    put(&mut win, p, 1);
                }
                Settle::ForeignBefore => put(&mut win, p, 2),
                Settle::Overflow => {
                    for r in 0..3 {
                        let src = [pattern_byte(r, 1); SIZE];
                        win.put(p, &src, 1, r * SIZE, &dtype, 1);
                    }
                    win.flush(p, 1);
                    win.get(p, &mut buf, 1, disp, &dtype, 1);
                    win.flush(p, 1);
                    put(&mut win, p, 2);
                }
                _ => put(&mut win, p, 1),
            }
            if case == Settle::DeadTarget {
                p.compute(KILL_NS);
            }
            win.flush(p, 1);
        }
        p.barrier();
        if rank == 1 && case == Settle::ForeignAfter {
            win.put(p, &[pattern_byte(SETTLED, 2); SIZE], 1, disp, &dtype, 1);
            win.flush(p, 1);
        }
        p.barrier();
        let mut obs = SettleObs::default();
        if rank == 0 {
            obs.degraded = win.is_degraded(1);
            if !obs.degraded {
                win.flush(p, 1);
            }
            let mut got = vec![0u8; read_len];
            obs.class = win.get(p, &mut got, 1, read_disp, &Datatype::bytes(read_len), 1);
            if !obs.degraded && obs.class != Some(AccessType::Hit) {
                win.flush(p, 1);
            }
            if !obs.degraded {
                let mut plain = vec![0u8; read_len];
                win.get_uncached(p, &mut plain, 1, read_disp, &Datatype::bytes(read_len), 1);
                win.inner_mut().flush(p, 1);
                obs.uncached = Some(plain);
            }
            obs.bytes = got;
        }
        p.barrier();
        win.unlock_all(p);
        p.barrier();
        #[cfg(debug_assertions)]
        if let Some(cache) = win.cache() {
            cache.check_invariants();
        }
        obs
    });
    out.into_iter().next().expect("rank 0 reports").1
}

/// The puts a writer's drain must not skip: each leaves an entry stale
/// (the off-grid neighbour, the next record under a put longer than the
/// stride, the record under an unaligned put, an entry the inner window's
/// put or the strided put did not update, a PENDING entry), so the next read misses and reads what an
/// uncached read does.
#[test]
fn a_put_that_is_not_settled_is_drained_and_drops_what_it_overlaps() {
    for case in [
        Settle::OffGrid,
        Settle::Wide,
        Settle::Unaligned,
        Settle::Inner,
        Settle::Strided,
        Settle::Pending,
    ] {
        let o = settle(case);
        assert_ne!(
            o.class,
            Some(AccessType::Hit),
            "{case:?}: a stale entry hit"
        );
        assert_eq!(o.uncached.as_ref(), Some(&o.bytes), "{case:?}: stale bytes");
    }
    let o = settle(Settle::OffGrid);
    assert_eq!(
        o.bytes[8..],
        [pattern_byte(SETTLED, 1); 8],
        "the put's bytes"
    );
}

/// Around a foreign write to the same record the entry's fate follows
/// version order: a settled put after the foreign write keeps the
/// writer's updated copy (the next read hits its bytes); a foreign write
/// after it drops the copy (the next read misses and sees rank 1's).
#[test]
fn a_settled_entry_follows_version_order_around_a_foreign_write() {
    let before = settle(Settle::ForeignBefore);
    assert_eq!(before.class, Some(AccessType::Hit));
    assert_eq!(before.bytes, vec![pattern_byte(SETTLED, 2); SIZE]);
    assert_eq!(before.uncached.as_ref(), Some(&before.bytes));
    let after = settle(Settle::ForeignAfter);
    assert_ne!(
        after.class,
        Some(AccessType::Hit),
        "a stale update survived"
    );
    assert_eq!(after.bytes, vec![pattern_byte(SETTLED, 2); SIZE]);
    assert_eq!(after.uncached.as_ref(), Some(&after.bytes));
}

/// A ring overflow drops the whole target and the settled log with it:
/// the next settled put is skipped correctly and its record hits. A
/// target that dies before the drain is dropped whole: the read is
/// `Faulted` zeros, never the put's bytes.
#[test]
fn an_overflow_or_a_dead_target_leaves_no_settled_entry_behind() {
    let o = settle(Settle::Overflow);
    assert_eq!(o.class, Some(AccessType::Hit));
    assert_eq!(o.bytes, vec![pattern_byte(SETTLED, 2); SIZE]);
    assert_eq!(o.uncached.as_ref(), Some(&o.bytes));
    let dead = settle(Settle::DeadTarget);
    assert!(dead.degraded);
    assert_eq!(dead.class, Some(AccessType::Faulted));
    assert_eq!(dead.bytes, vec![0; SIZE]);
}
