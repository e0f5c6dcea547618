//! Property tests for the snapshot subsystem (`CLAMPI_PROP_SEED`
//! replays a single case; `CLAMPI_PROP_CASES` overrides the counts).
//!
//! The workload is a lockstep writer/reader: each writer rank owns
//! `slots` fixed-size records and performs a serially-sequenced stream
//! of puts (put `j` lands in slot `j % slots` and its payload
//! *self-identifies*: it encodes `j` plus a checksum over `(j, slot)`,
//! so a reader can decode exactly which write it observed — and a torn
//! or mixed record fails its checksum). Rank 0 reads random batches
//! through [`CachedWindow::multi_get`].
//!
//! Properties:
//!
//! 1. **prefix consistency, never torn**: decode every record of a batch
//!    to `j_k`; with `S = max j_k`, every slot `k` must hold exactly the
//!    last write to `k` in the serial prefix `1..=S` — i.e. the batch
//!    equals a serial reference execution cut at `S` (per writer, for
//!    multi-target batches). Checked across coherence modes, ring
//!    capacities down to 0, transient faults, and `Mode::Disabled`;
//! 2. **staleness is bounded by the ring horizon**: the chosen timestamp
//!    is never below the `dropped_through_ts` watermark observed before
//!    the batch (and never above the commit clock after it);
//! 3. (directed, satellite) a notification-ring overflow arriving during
//!    validation degrades to abort-and-retry — never a torn batch — and
//!    the same holds under a transient-fault plan;
//! 4. (directed) a resident entry validates from the coherence cursor:
//!    one the passes kept is served on the cached attempt even after the
//!    ring moved past its stamp, and a put the passes have not drained
//!    still closes its interval;
//! 5. (directed) a batch flushes only targets with something in flight:
//!    an all-hit batch completes nothing, while a batch whose target has
//!    a `get_nb` of the caller's own outstanding still flushes it, and a
//!    batch with a miss flushes once — towards a remote rank and towards
//!    the caller's own region, where a transfer posts no wire time.

use clampi::{
    AccessType, CacheParams, CacheStats, CachedWindow, ClampiConfig, CoherenceMode, Mode,
    RetryPolicy, SnapReq, SnapshotInfo,
};
use clampi_datatype::Datatype;
use clampi_prng::prop::{check, Gen};
use clampi_prng::SmallRng;
use clampi_rma::{run_collect, FaultConfig, SimConfig};
use std::collections::BTreeMap;

/// Observation from a single rank-0 disabled-mode batch: the `multi_get`
/// outcome (error stringified for cross-thread transport), the batch
/// bytes, and the sequential-gets reference bytes.
type DisabledObs = (Result<SnapshotInfo, String>, Vec<u8>, Vec<u8>);

const SLOT: usize = 16;

fn checksum(j: u64, k: usize) -> u64 {
    j.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64).wrapping_add(0xABCD_EF01)
}

fn encode(j: u64, k: usize) -> [u8; SLOT] {
    let mut b = [0u8; SLOT];
    b[0..8].copy_from_slice(&j.to_le_bytes());
    b[8..16].copy_from_slice(&checksum(j, k).to_le_bytes());
    b
}

/// Decodes slot `k`'s record, panicking on a torn/corrupt payload.
/// `0` is the initial (all-zero) state.
fn decode(k: usize, slice: &[u8]) -> u64 {
    let j = u64::from_le_bytes(slice[0..8].try_into().unwrap());
    let c = u64::from_le_bytes(slice[8..16].try_into().unwrap());
    if j == 0 && c == 0 {
        return 0;
    }
    assert_eq!(
        c,
        checksum(j, k),
        "torn or corrupt record in slot {k} (claims write {j})"
    );
    j
}

/// The last write to slot `k` within the serial prefix `1..=s`
/// (`0` if the prefix never touched it).
fn last_write(k: usize, s: u64, slots: u64) -> u64 {
    let m = (s % slots + slots - (k as u64) % slots) % slots; // (s - k) mod slots
    if s >= m && s - m >= 1 {
        s - m
    } else {
        0
    }
}

/// Asserts one decoded batch is a consistent cut of the serial write
/// sequence: returns the cut `S` it is consistent at.
fn assert_prefix_consistent(reads: &[(usize, u64)], slots: u64, j_done: u64) -> u64 {
    let s = reads.iter().map(|&(_, j)| j).max().unwrap_or(0);
    assert!(
        s <= j_done,
        "batch observed write {s} but only {j_done} were issued"
    );
    for &(k, j) in reads {
        assert_eq!(
            j,
            last_write(k, s, slots),
            "slot {k} is inconsistent with the serial prefix 1..={s} \
             (a torn mix of old and new data)"
        );
    }
    s
}

/// One committed batch as observed by the reader rank, checked after
/// the simulation joins.
#[derive(Clone, Debug, Default)]
struct BatchObs {
    /// `(target, slot)` per request, in request order.
    reads: Vec<(usize, usize)>,
    bytes: Vec<u8>,
    info: SnapshotInfo,
    /// Max `dropped_through_ts` over the batch's targets, peeked
    /// *before* the batch.
    pre_dropped_ts: u64,
    /// Commit clock peeked after the batch.
    post_now_ts: u64,
    /// Writes issued per writer (index `target - 1`) before the batch.
    j_done: Vec<u64>,
}

/// Decodes and checks every collected batch.
fn verify_batches(obs: &[BatchObs], slots: u64) {
    for b in obs {
        let mut per_target: BTreeMap<usize, Vec<(usize, u64)>> = BTreeMap::new();
        for (i, &(t, k)) in b.reads.iter().enumerate() {
            let j = decode(k, &b.bytes[i * SLOT..(i + 1) * SLOT]);
            per_target.entry(t).or_default().push((k, j));
        }
        for (t, reads) in &per_target {
            assert_prefix_consistent(reads, slots, b.j_done[t - 1]);
        }
        // Staleness bound: the snapshot can never be older than the
        // ring's evicted-history watermark, nor newer than the commit
        // clock.
        assert!(
            b.info.timestamp >= b.pre_dropped_ts,
            "timestamp {} below the pre-batch ring horizon {}",
            b.info.timestamp,
            b.pre_dropped_ts
        );
        assert!(b.info.timestamp <= b.post_now_ts);
    }
}

#[derive(Clone)]
struct Schedule {
    slots: usize,
    rounds: usize,
    reads_per_round: usize,
    puts_per_round: usize,
    seed: u64,
    ring_cap: usize,
    faults: Option<FaultConfig>,
}

fn gen_schedule(g: &mut Gen, faulty: bool) -> Schedule {
    let slots = g.range(4..16usize);
    Schedule {
        slots,
        rounds: g.range(2..6usize),
        reads_per_round: g.range(2..12usize),
        puts_per_round: g.range(0..2 * slots),
        seed: g.u64(),
        ring_cap: match g.range(0..4u32) {
            0 => 0,
            1 => 1,
            2 => g.range(2..8usize),
            _ => 8 * slots,
        },
        faults: if faulty {
            Some(FaultConfig::transient(g.range(0.0..0.10), g.u64()))
        } else {
            None
        },
    }
}

fn generous_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 64,
        op_timeout_ns: f64::INFINITY,
        ..RetryPolicy::default()
    }
}

/// Runs the lockstep schedule with `nwriters` writer ranks (targets
/// `1..=nwriters`); returns the reader's batches, its first commit
/// error (if any), and its cache stats.
fn run_schedule(
    s: &Schedule,
    mode: Mode,
    coherence: CoherenceMode,
    nwriters: usize,
) -> (Vec<BatchObs>, Option<String>, CacheStats) {
    let mut sim = SimConfig::default().with_notify_ring_cap(s.ring_cap);
    if let Some(f) = &s.faults {
        sim = sim.with_faults(f.clone());
    }
    let s = s.clone();
    let out = run_collect(sim, 1 + nwriters, move |p| {
        let rank = p.rank();
        let cfg = match mode {
            Mode::Disabled => ClampiConfig::disabled(),
            m => ClampiConfig::fixed(
                m,
                CacheParams {
                    index_entries: 256,
                    storage_bytes: 64 << 10,
                    coherence,
                    ..CacheParams::default()
                },
            ),
        }
        .with_retry(generous_retry());
        let mut win = CachedWindow::create(p, s.slots * SLOT, cfg);
        p.barrier();
        win.lock_all(p);

        // Every rank draws the same pick stream so the schedule stays
        // deterministic without cross-rank chatter.
        let mut picks = SmallRng::seed_from_u64(s.seed ^ 0x51AB);
        let dtype = Datatype::bytes(SLOT);
        let mut j_done = vec![0u64; nwriters];
        let mut obs: Vec<BatchObs> = Vec::new();
        let mut err: Option<String> = None;
        for round in 0..s.rounds {
            let reads: Vec<(usize, usize)> = (0..s.reads_per_round)
                .map(|_| {
                    (
                        1 + picks.gen_range(0..nwriters),
                        picks.gen_range(0..s.slots),
                    )
                })
                .collect();
            if rank == 0 && err.is_none() {
                let reqs: Vec<SnapReq> = reads
                    .iter()
                    .map(|&(t, k)| SnapReq {
                        target: t as u32,
                        disp: k * SLOT,
                        len: SLOT,
                    })
                    .collect();
                let mut dst = vec![0u8; reqs.len() * SLOT];
                let pre_dropped_ts = (1..=nwriters)
                    .map(|t| win.notify_horizon(t).dropped_through_ts)
                    .max()
                    .unwrap_or(0);
                match win.multi_get(p, &reqs, &mut dst) {
                    Ok(info) => obs.push(BatchObs {
                        reads: reads.clone(),
                        bytes: dst,
                        info,
                        pre_dropped_ts,
                        post_now_ts: win.notify_horizon(1).now_ts,
                        j_done: j_done.clone(),
                    }),
                    Err(e) => err = Some(e.to_string()),
                }
            }
            p.barrier();
            for w in 1..=nwriters {
                for _ in 0..s.puts_per_round {
                    j_done[w - 1] += 1;
                    let j = j_done[w - 1];
                    let k = (j % s.slots as u64) as usize;
                    if rank == w {
                        win.put(p, &encode(j, k), w, k * SLOT, &dtype, 1);
                        win.flush(p, w);
                    }
                }
            }
            p.barrier();
            // Exercise interaction with ordinary coherence points.
            if round % 2 == 1 {
                win.validate(p);
            }
        }
        win.unlock_all(p);
        p.barrier();
        (obs, err, win.stats())
    });
    out[0].1.clone()
}

#[test]
fn prop_snapshot_batches_are_prefix_consistent() {
    check("multi_get == serial prefix, all modes", 32, |g| {
        let s = gen_schedule(g, false);
        for coherence in [CoherenceMode::None, CoherenceMode::EagerInvalidate] {
            let (obs, err, _) = run_schedule(&s, Mode::AlwaysCache, coherence, 1);
            assert_eq!(err, None);
            assert_eq!(obs.len(), s.rounds);
            verify_batches(&obs, s.slots as u64);
        }
        for mode in [Mode::Transparent, Mode::Disabled] {
            let (obs, err, _) = run_schedule(&s, mode, CoherenceMode::None, 1);
            assert_eq!(err, None);
            verify_batches(&obs, s.slots as u64);
        }
    });
}

#[test]
fn prop_snapshot_survives_transient_faults() {
    check("prefix consistency under transient faults", 24, |g| {
        let s = gen_schedule(g, true);
        assert!(s.faults.is_some());
        for (mode, coherence) in [
            (Mode::AlwaysCache, CoherenceMode::None),
            (Mode::AlwaysCache, CoherenceMode::EagerInvalidate),
            (Mode::Disabled, CoherenceMode::None),
        ] {
            let (obs, err, _) = run_schedule(&s, mode, coherence, 1);
            assert_eq!(err, None, "transient faults retry to success");
            verify_batches(&obs, s.slots as u64);
        }
    });
}

/// Two independent writers (ranks 1 and 2), batches spanning both
/// targets: each target's records must decode to a consistent cut of
/// *that writer's* serial sequence.
#[test]
fn prop_snapshot_is_per_writer_prefix_consistent_across_targets() {
    check("multi-target batches cut each writer's prefix", 16, |g| {
        let s = gen_schedule(g, false);
        let (obs, err, _) = run_schedule(&s, Mode::AlwaysCache, CoherenceMode::None, 2);
        assert_eq!(err, None);
        assert_eq!(obs.len(), s.rounds);
        verify_batches(&obs, s.slots as u64);
        assert!(obs.iter().any(|b| b.reads.iter().any(|&(t, _)| t == 1)) || s.reads_per_round == 0);
    });
}

/// Directed satellite: ring overflow arriving *during* snapshot
/// validation (stale cached stamps, flooded ring) degrades to
/// abort-and-retry — the batch is retried cache-bypassed and comes back
/// consistent, never torn. Also checked under a transient-fault plan.
#[test]
fn overflow_during_validation_aborts_and_retries_never_tears() {
    const SLOTS: usize = 8;
    const CAP: usize = 4;
    const FLOOD: u64 = (CAP + 2) as u64;
    for faults in [None, Some(FaultConfig::transient(0.08, 0xF00D))] {
        let mut sim = SimConfig::default().with_notify_ring_cap(CAP);
        if let Some(f) = &faults {
            sim = sim.with_faults(f.clone());
        }
        let out = run_collect(sim, 2, move |p| {
            let rank = p.rank();
            let cfg = ClampiConfig::fixed(
                Mode::AlwaysCache,
                CacheParams {
                    index_entries: 64,
                    storage_bytes: 16 << 10,
                    ..CacheParams::default()
                },
            )
            .with_retry(generous_retry());
            let mut win = CachedWindow::create(p, SLOTS * SLOT, cfg);
            p.barrier();
            win.lock_all(p);
            let reqs: Vec<SnapReq> = (0..SLOTS)
                .map(|k| SnapReq {
                    target: 1,
                    disp: k * SLOT,
                    len: SLOT,
                })
                .collect();
            let mut dst = vec![0u8; SLOTS * SLOT];

            // Round 1: populate the cache (stamps at version 0).
            let mut round1: Result<Vec<u8>, String> = Err("not rank 0".into());
            if rank == 0 {
                round1 = win
                    .multi_get(p, &reqs, &mut dst)
                    .map(|_| dst.clone())
                    .map_err(|e| e.to_string());
            }
            p.barrier();
            // Writer floods the ring past its capacity: the cached
            // stamps' drain cursor is now evicted history.
            if rank == 1 {
                let dtype = Datatype::bytes(SLOT);
                for j in 1..=FLOOD {
                    let k = (j % SLOTS as u64) as usize;
                    win.put(p, &encode(j, k), 1, k * SLOT, &dtype, 1);
                    win.flush(p, 1);
                }
            }
            p.barrier();
            // Round 2: the gather hits the stale cache; validation's
            // drain overflows; the batch must abort and retry direct.
            let mut round2: Result<(Vec<u8>, SnapshotInfo), String> = Err("not rank 0".into());
            if rank == 0 {
                round2 = win
                    .multi_get(p, &reqs, &mut dst)
                    .map(|info| (dst.clone(), info))
                    .map_err(|e| e.to_string());
            }
            p.barrier();
            win.unlock_all(p);
            p.barrier();
            (round1, round2, win.stats())
        });
        let (round1, round2, stats) = out[0].1.clone();
        let r1 = round1.expect("initial batch");
        assert!(r1.iter().all(|&b| b == 0), "fresh window reads zeros");
        let (bytes, info) = round2.expect("overflow must degrade to retry, not failure");
        assert!(
            info.aborts >= 1,
            "flooded ring past cached stamps must abort at least once"
        );
        let reads: Vec<(usize, u64)> = (0..SLOTS)
            .map(|k| (k, decode(k, &bytes[k * SLOT..(k + 1) * SLOT])))
            .collect();
        let s = assert_prefix_consistent(&reads, SLOTS as u64, FLOOD);
        assert_eq!(
            s, FLOOD,
            "the retry reads directly, so it must observe the full flood"
        );
        assert!(
            stats.snapshot_aborts >= 1,
            "snapshot_aborts must count the overflow abort (faults: {})",
            faults.is_some()
        );
        assert_eq!(stats.snapshot_gets, 2 * SLOTS as u64);
    }
}

/// What the reader saw in [`hot_entry_run`]: the batch's outcome and
/// bytes (rank 0 only), and its cache counters after the batch.
type HotObs = (Result<(SnapshotInfo, Vec<u8>), String>, CacheStats);

/// A 4-record ring, `EagerInvalidate`. Rank 0 caches slot 0 (holding
/// write [`HOT_J`]) through a batch; then, for each `(slot, pass)` of
/// `writes`, rank 1 puts write `j` (1-based) into `slot` and, if `pass`,
/// rank 0 runs a coherence pass; then rank 0 batches `reqs` once more.
fn hot_entry_run(writes: &'static [(usize, bool)], reqs: &'static [usize]) -> HotObs {
    const SLOTS: usize = 8;
    let sim = SimConfig::default().with_notify_ring_cap(4);
    let out = run_collect(sim, 2, move |p| {
        let rank = p.rank();
        let cfg = ClampiConfig::fixed(
            Mode::AlwaysCache,
            CacheParams {
                index_entries: 64,
                storage_bytes: 16 << 10,
                coherence: CoherenceMode::EagerInvalidate,
                ..CacheParams::default()
            },
        );
        let mut win = CachedWindow::create(p, SLOTS * SLOT, cfg);
        if rank == 1 {
            win.local_mut()[..SLOT].copy_from_slice(&encode(HOT_J, 0));
        }
        p.barrier();
        win.lock_all(p);
        let batch = |reqs: &[usize]| -> Vec<SnapReq> {
            reqs.iter()
                .map(|&k| SnapReq {
                    target: 1,
                    disp: k * SLOT,
                    len: SLOT,
                })
                .collect()
        };
        let mut dst = vec![0u8; SLOT];
        if rank == 0 {
            let _ = win.multi_get(p, &batch(&[0]), &mut dst);
        }
        p.barrier();
        let dtype = Datatype::bytes(SLOT);
        for (j, &(k, pass)) in (1..).zip(writes) {
            if rank == 1 {
                win.put(p, &encode(j, k), 1, k * SLOT, &dtype, 1);
                win.flush(p, 1);
            }
            p.barrier();
            if rank == 0 && pass {
                win.validate(p);
            }
            p.barrier();
        }
        let mut outcome = Err("not rank 0".to_string());
        if rank == 0 {
            let reqs = batch(reqs);
            let mut dst = vec![0u8; reqs.len() * SLOT];
            outcome = win
                .multi_get(p, &reqs, &mut dst)
                .map(|info| (info, dst))
                .map_err(|e| e.to_string());
        }
        p.barrier();
        win.unlock_all(p);
        p.barrier();
        (outcome, win.stats())
    });
    out[0].1.clone()
}

/// The write the hot slot 0 holds from the start (a local store, so it
/// is no version of the ring's history).
const HOT_J: u64 = 1000;

/// Rule A, positive: puts to *other* slots, each followed by a coherence
/// pass, push the hot entry's stamp past a 4-record ring's horizon. The
/// passes proved the entry write-free through the cursor, so the batch
/// validates from there: it succeeds on the cached attempt, with no
/// abort and no refetch, and returns the cached bytes.
#[test]
fn a_hot_entry_past_the_ring_horizon_validates_from_the_cursor() {
    const COLD: &[(usize, bool)] = &[
        (1, true),
        (2, true),
        (3, true),
        (4, true),
        (5, true),
        (6, true),
    ];
    let (outcome, stats) = hot_entry_run(COLD, &[0]);
    let (info, bytes) = outcome.expect("the batch succeeds");
    assert_eq!(
        (info.aborts, info.refetched),
        (0, 0),
        "a hot entry the passes kept must validate on the cached attempt"
    );
    assert_eq!(stats.snapshot_aborts, 0);
    assert_eq!(decode(0, &bytes), HOT_J, "the cached bytes come back");
    // The first batch missed slot 0; the second hit it.
    assert_eq!(
        stats.count(AccessType::Hit),
        1,
        "the second batch is served from the cache"
    );
}

/// Rule A, negative: a put to the hot slot *newer than the cursor* (no
/// pass has drained it) still closes the entry's interval. Slot 1 in the
/// same batch is fetched fresh, after that put, so the stale cached
/// bytes cannot share its timestamp and are refetched.
#[test]
fn a_put_past_the_cursor_still_closes_a_hot_entry_interval() {
    // Write 1 (slot 2) is drained, so the cursor passes the hot stamp;
    // write 2 (slot 0, the hot one) is not.
    let (outcome, stats) = hot_entry_run(&[(2, true), (0, false)], &[0, 1]);
    let (info, bytes) = outcome.expect("the batch succeeds");
    assert_eq!(info.aborts, 0);
    assert_eq!(info.refetched, 1, "the stale hot entry is refetched");
    assert_eq!(
        stats.count(AccessType::Hit),
        1,
        "slot 0 was first served from the cache"
    );
    assert_eq!(
        decode(0, &bytes[..SLOT]),
        2,
        "the refetch reads the new write"
    );
    assert_eq!(decode(1, &bytes[SLOT..]), 0);
}

/// `Mode::Disabled` batches read direct and must equal sequential
/// uncached gets byte for byte (there is nothing to be stale against).
#[test]
fn disabled_mode_multi_get_matches_sequential_gets() {
    let out = run_collect(SimConfig::default(), 2, |p| {
        let rank = p.rank();
        let mut win = CachedWindow::create(p, 4 * SLOT, ClampiConfig::disabled());
        if rank == 1 {
            let mut local = win.local_mut();
            for k in 0..4 {
                let b = encode((k + 1) as u64, k);
                local[k * SLOT..(k + 1) * SLOT].copy_from_slice(&b);
            }
        }
        p.barrier();
        win.lock_all(p);
        let mut result: Option<DisabledObs> = None;
        if rank == 0 {
            let reqs: Vec<SnapReq> = (0..4)
                .map(|k| SnapReq {
                    target: 1,
                    disp: k * SLOT,
                    len: SLOT,
                })
                .collect();
            let mut dst = vec![0u8; 4 * SLOT];
            let r = win.multi_get(p, &reqs, &mut dst).map_err(|e| e.to_string());
            let dtype = Datatype::bytes(SLOT);
            let mut seq = vec![0u8; 4 * SLOT];
            for k in 0..4 {
                win.get(
                    p,
                    &mut seq[k * SLOT..(k + 1) * SLOT],
                    1,
                    k * SLOT,
                    &dtype,
                    1,
                );
            }
            win.flush(p, 1);
            result = Some((r, dst, seq));
        }
        p.barrier();
        win.unlock_all(p);
        p.barrier();
        result
    });
    let (r, dst, seq) = out[0].1.clone().expect("rank 0 observes");
    let info = r.expect("fault-free");
    assert_eq!(info.refetched, 0, "static data needs no refetch");
    assert_eq!(
        dst, seq,
        "disabled-mode batch diverged from sequential gets"
    );
}

/// What [`hit_batch`] saw: the flushes the batch issued, its bytes, and
/// the same records read uncached.
type HitBatchObs = (Result<u64, String>, Vec<u8>, Vec<u8>);

/// What the batch of [`hit_batch`] reads besides the CACHED slot 0.
#[derive(Clone, Copy)]
enum Second {
    /// Slot 1, also CACHED: every request is a hit.
    Hit,
    /// Slot 2, after a `get_nb` of it left outstanding: a hit on the
    /// PENDING entry of the caller's own transfer.
    InFlight,
    /// Slot 3, never read: a miss.
    Miss,
    /// Slot 2, after a blocking `get` of it left unflushed: a hit on the
    /// entry of the caller's own transfer, posted by the blocking path.
    Blocking,
}

/// Every rank fills its 4 slots; rank 0 caches slots 0 and 1 of `target`
/// (misses, then an epoch close), then batches slot 0 with `second`,
/// counting the flushes the batch issued. `target` 0 is rank 0 itself,
/// whose transfers post no wire time.
fn hit_batch(target: usize, second: Second) -> HitBatchObs {
    let out = run_collect(SimConfig::default(), 2, move |p| {
        let rank = p.rank();
        let cfg = ClampiConfig::fixed(
            Mode::AlwaysCache,
            CacheParams {
                coherence: CoherenceMode::EagerInvalidate,
                ..CacheParams::default()
            },
        );
        let mut win = CachedWindow::create(p, 4 * SLOT, cfg);
        {
            let mut local = win.local_mut();
            for k in 0..4 {
                local[k * SLOT..(k + 1) * SLOT].copy_from_slice(&encode((k + 1) as u64, k));
            }
        }
        p.barrier();
        win.lock_all(p);
        let mut obs = (Err("not rank 0".to_string()), Vec::new(), Vec::new());
        if rank == 0 {
            let dtype = Datatype::bytes(SLOT);
            let mut buf = vec![0u8; SLOT];
            for k in 0..2 {
                win.get(p, &mut buf, target, k * SLOT, &dtype, 1);
            }
            win.flush(p, target);
            let mut pending = vec![0u8; SLOT];
            match second {
                Second::InFlight => {
                    win.get_nb(p, &mut pending, target, 2 * SLOT, &dtype, 1);
                }
                Second::Blocking => {
                    win.get(p, &mut pending, target, 2 * SLOT, &dtype, 1);
                }
                Second::Hit | Second::Miss => {}
            }
            let slots = match second {
                Second::Hit => [0, 1],
                Second::InFlight | Second::Blocking => [0, 2],
                Second::Miss => [0, 3],
            };
            let reqs: Vec<SnapReq> = slots
                .iter()
                .map(|&k| SnapReq {
                    target: target as u32,
                    disp: k * SLOT,
                    len: SLOT,
                })
                .collect();
            let mut dst = vec![0u8; 2 * SLOT];
            let flushes = p.counters().flushes;
            let r = win.multi_get(p, &reqs, &mut dst);
            obs.0 = r
                .map(|_| p.counters().flushes - flushes)
                .map_err(|e| e.to_string());
            win.flush(p, target);
            obs.1 = dst;
            for k in slots {
                win.get_uncached(p, &mut buf, target, k * SLOT, &dtype, 1);
                win.inner_mut().flush(p, target);
                obs.2.extend_from_slice(&buf);
            }
        }
        p.barrier();
        win.unlock_all(p);
        p.barrier();
        obs
    });
    out[0].1.clone()
}

/// A batch served entirely by CACHED entries issues no RMA operation, so
/// it has nothing to complete: it flushes no target, remote or its own.
#[test]
fn an_all_hit_batch_flushes_nothing() {
    for target in [1, 0] {
        let (flushes, bytes, uncached) = hit_batch(target, Second::Hit);
        assert_eq!(flushes, Ok(0), "an all-hit batch of {target} paid a flush");
        assert_eq!(bytes, uncached);
    }
}

/// A batch that hits the PENDING entry of the caller's own outstanding
/// `get_nb` still waits for that transfer: it flushes the target once.
/// Rank 0's own region is no exception, although a transfer to it posts
/// no wire time.
#[test]
fn a_batch_over_a_get_nb_in_flight_still_flushes_its_target() {
    for target in [1, 0] {
        let (flushes, bytes, uncached) = hit_batch(target, Second::InFlight);
        assert_eq!(flushes, Ok(1), "the transfer to {target} was not completed");
        assert_eq!(bytes, uncached);
    }
}

/// A batch that hits the entry of the caller's own blocking `get`, left
/// unflushed, still waits for that transfer: it flushes the target once.
/// The blocking path stages nothing of its own; the inner window's count
/// of outstanding gets is what names the target in flight.
#[test]
fn a_batch_over_a_blocking_get_in_flight_still_flushes_its_target() {
    for target in [1, 0] {
        let (flushes, bytes, uncached) = hit_batch(target, Second::Blocking);
        assert_eq!(
            flushes,
            Ok(1),
            "the blocking get to {target} was not completed"
        );
        assert_eq!(bytes, uncached);
    }
}

/// A batch with one miss completes the fetch it staged: one flush.
#[test]
fn a_batch_with_one_miss_flushes_its_target_once() {
    for target in [1, 0] {
        let (flushes, bytes, uncached) = hit_batch(target, Second::Miss);
        assert_eq!(
            flushes,
            Ok(1),
            "the miss to {target} was not completed once"
        );
        assert_eq!(bytes, uncached);
    }
}
