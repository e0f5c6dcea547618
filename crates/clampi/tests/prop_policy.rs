//! Property tests for the policy lab (`CLAMPI_PROP_SEED` replays a
//! single case; `CLAMPI_PROP_CASES` overrides the counts).
//!
//! The workload reuses the coherence suite's phase-structured 2-rank
//! producer/consumer: rank 0 reads records from rank 1's window through
//! an always-cache CLaMPI window; rank 1 `put`s fresh values between
//! rounds; the reader runs a coherence point before the next round.
//!
//! Properties:
//!
//! 1. **the lab is observation-only**: with
//!    [`clampi::CacheParams::policy_lab`] on (and no adaptive controller
//!    to act on it), a run is *bit-identical* to the same run with the
//!    lab off — every byte read, every cache fingerprint, the final
//!    virtual time, and
//!    every statistic outside the shadow counters — across all live
//!    victim schemes, all coherence modes, and under transient fault
//!    injection. Virtual-time equality is the sharp edge: had the lab
//!    charged even one nanosecond, fault timing would diverge;
//! 2. **the shadow counters partition**: with the lab on from creation,
//!    `shadow_gets` equals the engine's get sequence number exactly
//!    (one shadow replay per lookup, never more, never fewer), and each
//!    policy's `shadow_hits` never exceeds `shadow_gets`;
//! 3. (directed) at the window level, the adaptive controller detects a
//!    badly chosen live policy (recency-blind `Positional` under a Zipf
//!    stream) through the shadow ratios and switches away from it.

use clampi::{
    AccessType, AdaptiveParams, CacheParams, CacheStats, CachedWindow, ClampiConfig, CoherenceMode,
    Mode, RetryPolicy, VictimScheme,
};
use clampi_datatype::Datatype;
use clampi_prng::prop::{check, Gen};
use clampi_prng::SmallRng;
use clampi_rma::{run_collect, FaultConfig, SimConfig};

const SIZE: usize = 32;

/// The value every byte of record `r` holds after `version` updates.
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
    victim: VictimScheme,
    coherence: CoherenceMode,
    nonblocking: bool,
    faults: Option<FaultConfig>,
}

#[derive(Clone, PartialEq, Debug)]
struct Run {
    bytes: Vec<Vec<u8>>,
    fingerprints: Vec<u64>,
    /// Reader's virtual time at the end of the epoch.
    now: f64,
    /// Engine get sequence counter at the end.
    seq: u64,
    stats: CacheStats,
}

fn run_schedule(s: &Schedule, lab: bool) -> Run {
    let mut sim = SimConfig::default();
    if let Some(f) = &s.faults {
        sim = sim.with_faults(f.clone());
    }
    let s = s.clone();
    let out = run_collect(sim, 2, move |p| {
        let rank = p.rank();
        let params = CacheParams {
            index_entries: 256,
            storage_bytes: 64 << 10,
            victim_scheme: s.victim,
            coherence: s.coherence,
            policy_lab: lab,
            ..CacheParams::default()
        };
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params).with_retry(RetryPolicy {
            max_retries: 64,
            op_timeout_ns: f64::INFINITY,
            ..RetryPolicy::default()
        });
        let mut win = CachedWindow::create(p, s.records * SIZE, cfg);

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
                bytes.extend(bufs);
            }
            p.barrier();

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
        let seq = win.cache().map_or(0, |c| c.seq());
        (bytes, fingerprints, p.now(), seq, win.stats())
    });
    let (bytes, fingerprints, now, seq, stats) = out[0].1.clone();
    Run {
        bytes,
        fingerprints,
        now,
        seq,
        stats,
    }
}

fn gen_schedule(g: &mut Gen, faulty: bool) -> Schedule {
    let records = g.range(8..48usize);
    Schedule {
        records,
        rounds: g.range(2..6usize),
        gets_per_round: g.range(8..48usize),
        updates_per_round: g.range(0..records),
        seed: g.u64(),
        victim: VictimScheme::ALL[g.range(0..VictimScheme::ALL.len())],
        coherence: match g.bool() {
            false => CoherenceMode::None,
            true => CoherenceMode::EagerInvalidate,
        },
        nonblocking: g.bool(),
        faults: if faulty {
            Some(FaultConfig::transient(g.range(0.0..0.12), g.u64()))
        } else {
            None
        },
    }
}

/// Checks properties 1 and 2 for one schedule.
fn assert_lab_inert(s: &Schedule) {
    let off = run_schedule(s, false);
    let on = run_schedule(s, true);

    // Property 2: partition. One shadow replay per engine lookup.
    assert_eq!(
        on.stats.shadow_gets, on.seq,
        "shadow_gets must equal the engine get sequence ({:?})",
        s.victim
    );
    for (i, &h) in on.stats.shadow_hits.iter().enumerate() {
        assert!(
            h <= on.stats.shadow_gets,
            "shadow policy {} hit more than it observed ({h} > {})",
            VictimScheme::ALL[i].label(),
            on.stats.shadow_gets
        );
    }
    assert_eq!(off.stats.shadow_gets, 0, "lab off must record nothing");
    assert_eq!(off.stats.shadow_slot_visits, 0);

    // Property 1: bit-identity outside the shadow counters.
    let mut on_scrubbed = on.clone();
    on_scrubbed.stats.shadow_gets = 0;
    on_scrubbed.stats.shadow_slot_visits = 0;
    on_scrubbed.stats.shadow_hits = [0; clampi::POLICY_COUNT];
    assert_eq!(
        off,
        on_scrubbed,
        "policy lab leaked into live behaviour (victim {:?}, coherence {:?}, faults {})",
        s.victim,
        s.coherence,
        s.faults.is_some()
    );
}

#[test]
fn prop_policy_lab_is_observation_only() {
    check("lab-on == lab-off, bit for bit", 12, |g| {
        assert_lab_inert(&gen_schedule(g, false));
    });
}

#[test]
fn prop_policy_lab_is_observation_only_under_faults() {
    check("lab-on == lab-off under transient faults", 10, |g| {
        let s = gen_schedule(g, true);
        assert_lab_inert(&s);
        assert!(s.faults.is_some());
    });
}

/// Directed: live `Positional` under a Zipf stream is recency-blind — it
/// evicts the hot head as readily as the cold tail — while both recency
/// shadows keep the head resident. The shadow gap (about 0.1) is far
/// above the controller's margin, so it must switch to a recency scheme.
#[test]
fn adaptive_controller_switches_away_from_positional_under_zipf() {
    const KEYS: usize = 2048;
    const REC: usize = 64;
    const GETS: usize = 8192;
    let out = run_collect(SimConfig::default(), 2, |p| {
        let rank = p.rank();
        let params = CacheParams {
            index_entries: 256,
            storage_bytes: 16 << 10,
            victim_scheme: VictimScheme::Positional,
            policy_lab: true,
            ..CacheParams::default()
        };
        let adaptive = AdaptiveParams {
            interval: 512,
            // Neutralize every resize rule: this test isolates switching.
            conflict_threshold: 2.0,
            capacity_threshold: 2.0,
            sparsity_threshold: 0.0,
            stable_threshold: 2.0,
        };
        let cfg = ClampiConfig {
            mode: Mode::AlwaysCache,
            params,
            adaptive: Some(adaptive),
            ..ClampiConfig::default()
        };
        let mut win = CachedWindow::create(p, KEYS * REC, cfg);
        p.barrier();
        win.lock_all(p);
        if rank == 0 {
            // Zipf(1) by inverse CDF over the harmonic weights.
            let cdf: Vec<f64> = (1..=KEYS)
                .scan(0.0, |acc, k| {
                    *acc += 1.0 / k as f64;
                    Some(*acc)
                })
                .collect();
            let mut rng = SmallRng::seed_from_u64(0x21F);
            let dtype = Datatype::bytes(REC);
            let mut buf = vec![0u8; REC];
            for i in 0..GETS {
                let u = rng.gen_f64() * cdf[KEYS - 1];
                let k = cdf.partition_point(|&c| c < u).min(KEYS - 1);
                win.get(p, &mut buf, 1, k * REC, &dtype, 1);
                if (i + 1) % 64 == 0 {
                    // Epoch closure: runs the adaptive controller.
                    win.flush(p, 1);
                }
            }
        }
        win.unlock_all(p);
        p.barrier();
        (win.stats(), win.cache().map(|c| c.victim_scheme()))
    });
    let (stats, scheme) = out[0].1;
    assert!(
        stats.policy_switches >= 1,
        "controller never switched (shadow hits {:?} over {} shadow gets)",
        stats.shadow_hits,
        stats.shadow_gets
    );
    let live = scheme.expect("cache enabled");
    assert_ne!(
        live,
        VictimScheme::Positional,
        "controller must have left the recency-blind policy for a recency scheme"
    );
    // The lab itself kept observing throughout.
    assert_eq!(stats.total_gets, GETS as u64);
    assert_eq!(stats.shadow_gets, stats.total_gets);
}
