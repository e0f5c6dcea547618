//! DHT sweep — skewed lookups over cached remote buckets, with and
//! without the location cache, plus a skew × coherence-mode × churn-rate
//! grid.
//!
//! Phase A (*location-cache speedup*, the headline number): populate a
//! table of ≥1M keys across 8 ranks at load factor 0.9 (probe chains
//! average ≈5 buckets), warm the caches with Zipf s=0.99 traffic, then
//! time the same traffic with the location cache off (every lookup walks
//! its probe chain) and on (a location hit is a single, usually
//! CLaMPI-cached, get). Non-smoke, the run **asserts** the location
//! cache makes lookups ≥2x faster — the DrTM-style claim, not just a
//! plotted curve. Also reports CLaMPI hit ratio, location-cache hit
//! ratio, gets per virtual second, and p99 lookup latency.
//!
//! Phase B (*skewed churn*): a smaller table swept over Zipf skew ×
//! coherence mode × update rate. Hot keys are updated more often (the
//! churn draws from the same Zipf), so higher rates invalidate exactly
//! the buckets the cache worked hardest to keep. Every lookup is checked
//! in-run against the shared-schedule version vector — no mode may serve
//! a stale value — and surgical invalidation must preserve at least the
//! reuse of full invalidation at every grid point.
//!
//! Emits `# PERF <key> <value>` lines; CI's `golden` stage pins the
//! virtual-clock ones and masks `wall_ms`. Honours `CLAMPI_BENCH_SMOKE=1`.

use clampi::{CacheParams, ClampiConfig, CoherenceMode, Mode};
use clampi_apps::{Dht, DhtConfig, DhtLookup};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_prng::SplitMix64;
use clampi_rma::{run_collect, SimConfig};
use clampi_workloads::{mix_key, KeyStream, Zipf};
use std::time::Instant;

/// The value key `key` holds after `version` updates (shared-schedule
/// freshness checks recompute this on the reader side).
fn value_of(key: u64, version: u64) -> u64 {
    key ^ SplitMix64::new(version.wrapping_mul(0x5851_F42D_4C95_7F2D)).next_u64()
}

/// Per-rank Zipf lookup stream, decorrelated across ranks.
fn rank_zipf(population: usize, skew: f64, seed: u64, rank: usize) -> Zipf {
    Zipf::new(
        population,
        skew,
        seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF1D0,
    )
}

fn cached_clampi(index_entries: usize, storage_bytes: usize, mode: CoherenceMode) -> ClampiConfig {
    let params = CacheParams {
        index_entries,
        storage_bytes,
        coherence: mode,
        ..CacheParams::default()
    };
    ClampiConfig::fixed(Mode::AlwaysCache, params)
}

// ---------------------------------------------------------------- Phase A

#[derive(Clone, Copy)]
struct LookupPhase {
    population: usize,
    nranks: usize,
    buckets_per_rank: usize,
    warm_per_rank: usize,
    timed_per_rank: usize,
    skew: f64,
    seed: u64,
    loc_entries: usize,
}

struct LookupOut {
    /// Slowest rank's virtual time over its timed lookups.
    elapsed_ns: f64,
    /// Every timed lookup's virtual latency, all ranks.
    latencies_ns: Vec<f64>,
    found: u64,
    not_found: u64,
    bucket_gets: u64,
    loc_hits: u64,
    lookups: u64,
    clampi_hit_ratio: f64,
}

fn run_lookup_phase(w: LookupPhase) -> LookupOut {
    let out = run_collect(SimConfig::bench(), w.nranks, move |p| {
        // Phase A is read-only after the populate barrier, so coherence
        // passes would only add identical wire noise to both configs;
        // `None` + the explicit post-populate validate is exact.
        let cfg = DhtConfig::new(
            cached_clampi(
                (2 * w.buckets_per_rank).next_power_of_two().max(1024),
                8 << 20,
                CoherenceMode::None,
            ),
            w.buckets_per_rank,
        )
        .with_location_cache(w.loc_entries)
        .with_max_probe(512.min(w.buckets_per_rank));
        let mut dht = Dht::create(p, cfg);
        dht.lock_all(p);
        // Insert in mixed-key order, not id (= Zipf-rank) order:
        // id-order insertion would give the hottest keys a near-empty
        // table and probe chains of length ~1, flattering every config.
        let mut order: Vec<u64> = (0..w.population as u64).map(mix_key).collect();
        order.sort_unstable();
        for k in order {
            if dht.owner_of(k) == p.rank() {
                // At load factor 0.9 a rare chain may exceed the probe
                // bound; the table rejects, readers see NotFound.
                dht.insert(p, k, value_of(k, 0));
            }
        }
        dht.flush_own_writes(p);
        p.barrier();
        dht.validate(p);

        // Warm pass: resolve Zipf traffic once (fills CLaMPI with every
        // chain bucket it walks, and the location cache with resolved
        // slots). The timed pass *replays a prefix of the same stream* —
        // the steady-state serving measurement: identical skew, no
        // first-touch wire cost diluting both configs equally.
        let mut zipf = rank_zipf(w.population, w.skew, w.seed, p.rank());
        for _ in 0..w.warm_per_rank {
            dht.lookup(p, mix_key(zipf.sample() as u64));
        }
        p.barrier();
        let warm_stats = dht.stats();

        let start = p.now();
        let mut replay = rank_zipf(w.population, w.skew, w.seed, p.rank());
        let mut latencies = Vec::with_capacity(w.timed_per_rank);
        for _ in 0..w.timed_per_rank {
            let k = mix_key(replay.sample() as u64);
            let t0 = p.now();
            match dht.lookup(p, k) {
                DhtLookup::Found(v) => assert_eq!(v, value_of(k, 0), "wrong value for {k:#x}"),
                DhtLookup::NotFound => {} // counted below; must stay rare
                DhtLookup::Degraded => panic!("degraded lookup without a fault plan"),
            }
            latencies.push(p.now() - t0);
        }
        let elapsed = p.now() - start;
        dht.unlock_all(p);
        p.barrier();
        let s = dht.stats();
        (
            elapsed,
            latencies,
            s.found - warm_stats.found,
            s.not_found - warm_stats.not_found,
            s.bucket_gets - warm_stats.bucket_gets,
            s.loc_hits - warm_stats.loc_hits,
            s.lookups - warm_stats.lookups,
            dht.cache_stats().hit_ratio(),
        )
    });
    let mut agg = LookupOut {
        elapsed_ns: 0.0,
        latencies_ns: Vec::new(),
        found: 0,
        not_found: 0,
        bucket_gets: 0,
        loc_hits: 0,
        lookups: 0,
        clampi_hit_ratio: 0.0,
    };
    let nranks = out.len();
    for (_, (elapsed, lat, found, nf, gets, loc_hits, lookups, hit)) in out {
        agg.elapsed_ns = agg.elapsed_ns.max(elapsed);
        agg.latencies_ns.extend(lat);
        agg.found += found;
        agg.not_found += nf;
        agg.bucket_gets += gets;
        agg.loc_hits += loc_hits;
        agg.lookups += lookups;
        agg.clampi_hit_ratio += hit / nranks as f64;
    }
    agg
}

/// p-th percentile (0..=100) of the merged latency sample.
fn percentile(latencies: &mut [f64], pct: usize) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    latencies[(latencies.len() * pct / 100).min(latencies.len() - 1)]
}

// ---------------------------------------------------------------- Phase B

#[derive(Clone, Copy)]
struct ChurnPhase {
    population: usize,
    nranks: usize,
    rounds: usize,
    lookups_per_round: usize,
    updates_per_round: usize,
    skew: f64,
    seed: u64,
    mode: CoherenceMode,
}

struct ChurnOut {
    elapsed_ns: f64,
    hit_ratio: f64,
    loc_hit_ratio: f64,
}

fn run_churn_phase(w: ChurnPhase) -> ChurnOut {
    let out = run_collect(SimConfig::bench(), w.nranks, move |p| {
        // Load factor ≤ 1/4 even under skewed ownership: churn inserts
        // must never fail, so the shared version vector stays exact.
        let cfg = DhtConfig::new(
            cached_clampi(4 * w.population, 8 << 20, w.mode),
            4 * w.population + 3,
        )
        .with_location_cache(2 * w.population);
        let mut dht = Dht::create(p, cfg);
        let mut stream = KeyStream::new(w.population, w.skew, w.seed);
        let mut zipf = rank_zipf(w.population, w.skew, w.seed, p.rank());
        dht.lock_all(p);
        for id in 0..w.population {
            let k = mix_key(id as u64);
            if dht.owner_of(k) == p.rank() {
                assert!(dht.insert(p, k, value_of(k, 0)), "populate insert failed");
            }
        }
        dht.flush_own_writes(p);
        p.barrier();
        dht.validate(p);

        let start = p.now();
        for _ in 0..w.rounds {
            for _ in 0..w.lookups_per_round {
                let id = zipf.sample();
                let k = mix_key(id as u64);
                // Shared-schedule freshness gate: every mode must serve
                // the key's current version, every round.
                assert_eq!(
                    dht.lookup(p, k),
                    DhtLookup::Found(value_of(k, stream.version(id))),
                    "stale read of id {id} under {:?}",
                    w.mode
                );
            }
            p.barrier();
            for (k, version) in stream.churn_round(w.updates_per_round) {
                if dht.owner_of(k) == p.rank() {
                    assert!(dht.insert(p, k, value_of(k, version)), "churn put failed");
                }
            }
            dht.flush_own_writes(p);
            p.barrier();
            dht.validate(p);
        }
        let elapsed = p.now() - start;
        dht.unlock_all(p);
        p.barrier();
        (elapsed, dht.stats(), dht.cache_stats())
    });
    let nranks = out.len() as f64;
    let mut o = ChurnOut {
        elapsed_ns: 0.0,
        hit_ratio: 0.0,
        loc_hit_ratio: 0.0,
    };
    for (_, (elapsed, stats, cache)) in out {
        o.elapsed_ns = o.elapsed_ns.max(elapsed);
        o.hit_ratio += cache.hit_ratio() / nranks;
        o.loc_hit_ratio += stats.loc_hit_ratio() / nranks;
    }
    o
}

fn main() {
    let wall = Instant::now();
    let args = Args::parse();
    let smoke = smoke_mode();
    let seed = args.seed();

    // -------- Phase A: location-cache speedup at s=0.99, >=1M keys.
    let population = args.get("keys", if smoke { 1 << 12 } else { 1 << 20 });
    let nranks = args.get("ranks", if smoke { 4 } else { 8 });
    let load_factor = 0.9;
    let buckets_per_rank =
        ((population as f64 / (nranks as f64 * load_factor)).ceil() as usize) | 1;
    let w = LookupPhase {
        population,
        nranks,
        buckets_per_rank,
        warm_per_rank: args.get("warm", if smoke { 2048 } else { 32 << 10 }),
        timed_per_rank: args.get("lookups", if smoke { 1024 } else { 16 << 10 }),
        skew: 0.99,
        seed,
        loc_entries: 2 * population,
    };
    meta("fig_dht: DHT over cached windows — location-cache speedup + churn grid");
    meta(&format!(
        "keys={population} ranks={nranks} buckets_per_rank={buckets_per_rank} warm={} timed={} seed={seed}",
        w.warm_per_rank, w.timed_per_rank
    ));
    row(&[
        "config",
        "lookup_ns",
        "found",
        "not_found",
        "bucket_gets",
        "loc_hits",
        "clampi_hit",
    ]);

    let probe = run_lookup_phase(LookupPhase {
        loc_entries: 0,
        ..w
    });
    let loc = run_lookup_phase(w);
    for (label, o) in [("probe-chain", &probe), ("loc-cache", &loc)] {
        row(&[
            label.to_string(),
            format!("{:.1}", o.elapsed_ns),
            o.found.to_string(),
            o.not_found.to_string(),
            o.bucket_gets.to_string(),
            o.loc_hits.to_string(),
            format!("{:.4}", o.clampi_hit_ratio),
        ]);
    }

    // The two configs replay identical draws over an identical table:
    // same results, fewer gets with the location cache.
    assert_eq!(probe.found, loc.found, "configs disagreed on lookups");
    assert_eq!(probe.not_found, loc.not_found);
    let total = probe.found + probe.not_found;
    assert!(
        probe.found as f64 >= 0.98 * total as f64,
        "too many probe-bound insert rejections: {} of {total}",
        probe.not_found
    );
    assert!(loc.loc_hits > 0, "location cache never hit");
    assert!(
        loc.bucket_gets < probe.bucket_gets,
        "location cache did not cut bucket gets ({} vs {})",
        loc.bucket_gets,
        probe.bucket_gets
    );
    let speedup = probe.elapsed_ns / loc.elapsed_ns;
    if !smoke {
        // The acceptance gate: a location hit replaces an average
        // ~5-bucket probe chain with one (usually cached) get.
        assert!(
            speedup >= 2.0,
            "location cache speedup {speedup:.2}x < 2x at s=0.99"
        );
    }
    let mut lat = loc.latencies_ns;
    let p99 = percentile(&mut lat, 99);
    let gets_per_vsec = loc.lookups as f64 / (loc.elapsed_ns * 1e-9);
    meta(&format!(
        "speedup {speedup:.2}x  loc_hit_ratio {:.4}  p99 {p99:.1} ns",
        loc.loc_hits as f64 / loc.lookups as f64
    ));

    // -------- Phase B: skew x coherence mode x churn rate.
    let pop_b = args.get("churn-keys", if smoke { 512 } else { 4096 });
    let ranks_b = args.get("churn-ranks", if smoke { 2 } else { 4 });
    let rounds = args.get("rounds", if smoke { 3 } else { 8 });
    let lookups_per_round = args.get("round-lookups", if smoke { 128 } else { 512 });
    let rates: &[f64] = if smoke { &[0.2] } else { &[0.02, 0.2] };
    let skews: &[f64] = if smoke { &[0.99] } else { &[0.5, 0.99, 1.2] };
    let modes = [
        ("full-inval", CoherenceMode::None),
        ("eager-inval", CoherenceMode::EagerInvalidate),
    ];
    row(&[
        "skew",
        "mode",
        "rate",
        "elapsed_ns",
        "clampi_hit",
        "loc_hit",
    ]);
    // Per-mode hit ratio and elapsed virtual ns at s=0.99, top rate.
    let mut pinned = [0.0f64; 2];
    let mut pinned_ns = [0.0f64; 2];
    for &skew in skews {
        for &rate in rates {
            let mut hit_by_mode = [0.0f64; 2];
            for (i, (label, mode)) in modes.iter().enumerate() {
                let o = run_churn_phase(ChurnPhase {
                    population: pop_b,
                    nranks: ranks_b,
                    rounds,
                    lookups_per_round,
                    updates_per_round: (rate * pop_b as f64).round() as usize,
                    skew,
                    seed,
                    mode: *mode,
                });
                row(&[
                    format!("{skew:.2}"),
                    (*label).to_string(),
                    format!("{rate:.2}"),
                    format!("{:.1}", o.elapsed_ns),
                    format!("{:.4}", o.hit_ratio),
                    format!("{:.4}", o.loc_hit_ratio),
                ]);
                hit_by_mode[i] = o.hit_ratio;
                if (skew - 0.99).abs() < 1e-9 && (rate - 0.2).abs() < 1e-9 {
                    pinned[i] = o.hit_ratio;
                    pinned_ns[i] = o.elapsed_ns;
                }
            }
            // Surgical invalidation must preserve at least the reuse of
            // the full-invalidation sledgehammer, at every grid point.
            assert!(
                hit_by_mode[1] >= hit_by_mode[0],
                "eager hit ratio fell below full invalidation (skew {skew}, rate {rate})"
            );
        }
    }

    meta(&format!("PERF lookup_ns_probe {:.1}", probe.elapsed_ns));
    meta(&format!("PERF lookup_ns_loc {:.1}", loc.elapsed_ns));
    meta(&format!("PERF loc_speedup {speedup:.3}"));
    meta(&format!(
        "PERF loc_hit_ratio {:.4}",
        loc.loc_hits as f64 / loc.lookups as f64
    ));
    meta(&format!("PERF hit_ratio {:.4}", loc.clampi_hit_ratio));
    meta(&format!("PERF p99_ns {p99:.1}"));
    meta(&format!("PERF gets_per_vsec {gets_per_vsec:.1}"));
    meta(&format!("PERF churn_hit_full {:.4}", pinned[0]));
    meta(&format!("PERF churn_hit_eager {:.4}", pinned[1]));
    meta(&format!("PERF churn_ns_full {:.1}", pinned_ns[0]));
    meta(&format!("PERF churn_ns_eager {:.1}", pinned_ns[1]));
    meta(&format!(
        "PERF wall_ms {:.1}",
        wall.elapsed().as_secs_f64() * 1e3
    ));
    clampi_bench::cli::san_summary();
}
