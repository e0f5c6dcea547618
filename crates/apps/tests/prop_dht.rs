//! Property tests pinning the DHT to an in-memory
//! `std::collections::HashMap` reference (`CLAMPI_PROP_SEED` replays a
//! single case; `CLAMPI_PROP_CASES` overrides the counts).
//!
//! The workload is the DHT's canonical phase shape over N ranks: a
//! shared-seed [`KeyStream`] populates the table (every key id, version
//! 0), then rounds of {per-rank Zipf lookups (plus a few
//! never-inserted keys) and [`Dht::multi_get`] batches of Zipf keys (plus
//! one never-inserted key each) → barrier → owner-local skewed churn →
//! flush → barrier → validate}. Every rank's result sequence is compared
//! against a sequential HashMap replay of the identical schedule. The
//! churn's owners read their own fresh updates back in the next round,
//! through both paths: the write-update of their own cached copies and
//! `validate`'s refetch of what other ranks wrote are both under test.
//!
//! Properties:
//!
//! 1. **bit-identical to the HashMap**, for every cache configuration —
//!    uncached (`ClampiConfig::disabled()`), and always-cache under
//!    both [`CoherenceMode`]s, each with the location cache off and on,
//!    `EagerInvalidate` at notification-ring capacities default, 2 and 0
//!    (the last two overflow under churn): same schedule → same
//!    `Found`/`NotFound` sequence on every rank;
//! 2. the same holds under **transient fault injection** with a generous
//!    retry policy (no lookup may degrade, none may go stale), at every
//!    ring capacity;
//! 3. (directed) a **rank-death** plan degrades lookups against the dead
//!    owner to [`DhtLookup::Degraded`] (or serves a still-cached value)
//!    while live-owner lookups stay bit-identical to the reference;
//! 4. inserts never fail in these schedules (load factor is pinned ≤
//!    1/4), so the HashMap reference is exact — asserted per rank.

use clampi::{CacheParams, ClampiConfig, CoherenceMode, Mode, RetryPolicy};
use clampi_apps::{Dht, DhtConfig, DhtLookup, DhtStats};
use clampi_prng::prop::{check, Gen};
use clampi_prng::SplitMix64;
use clampi_rma::{run_collect, FaultConfig, Process, SimConfig};
use clampi_workloads::{mix_key, KeyStream, Zipf};
use std::collections::HashMap;

/// The value key `key` holds after `version` updates. Injective enough
/// per (key, version) that a stale read cannot alias a fresh one.
fn value_of(key: u64, version: u64) -> u64 {
    key ^ SplitMix64::new(version.wrapping_mul(0x5851_F42D_4C95_7F2D)).next_u64()
}

/// A key that is never inserted (ids at/above the population are outside
/// every schedule's insert set; `mix_key` is a bijection).
fn absent_key(population: usize, j: usize) -> u64 {
    mix_key((population + j) as u64)
}

#[derive(Clone)]
struct Schedule {
    nranks: usize,
    population: usize,
    rounds: usize,
    lookups_per_round: usize,
    /// `multi_get` batches per round and rank, of [`BATCH_KEYS`] keys.
    batches_per_round: usize,
    churn_per_round: usize,
    skew: f64,
    seed: u64,
    faults: Option<FaultConfig>,
}

/// Keys per `multi_get` batch: `BATCH_KEYS - 1` Zipf draws and one
/// never-inserted key.
const BATCH_KEYS: usize = 4;

/// One cache configuration under test.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cache {
    Uncached,
    Coherent(CoherenceMode),
}

/// A cache configuration, its location-cache entries and the
/// notification-ring capacity of the simulator.
#[derive(Clone, Copy, Debug)]
struct Config {
    cache: Cache,
    loc: usize,
    ring_cap: usize,
}

fn dht_config(s: &Schedule, cache: Cache, loc_entries: usize) -> DhtConfig {
    let clampi = match cache {
        Cache::Uncached => ClampiConfig::disabled(),
        Cache::Coherent(mode) => {
            let params = CacheParams {
                index_entries: 512,
                storage_bytes: 128 << 10,
                coherence: mode,
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
    // Load factor ≤ 1/4 even if every key landed on one rank, so inserts
    // cannot fail and the HashMap reference is exact.
    DhtConfig::new(clampi, 4 * s.population + 3).with_location_cache(loc_entries)
}

/// Runs the schedule on the simulator; returns each rank's
/// lookup-result sequence and DHT counters.
fn run_schedule(s: &Schedule, c: Config) -> Vec<(Vec<DhtLookup>, DhtStats)> {
    let mut sim = SimConfig::default().with_notify_ring_cap(c.ring_cap);
    if let Some(f) = &s.faults {
        sim = sim.with_faults(f.clone());
    }
    let s = s.clone();
    let out = run_collect(sim, s.nranks, move |p| run_rank(p, &s, c.cache, c.loc));
    out.into_iter().map(|(_, r)| r).collect()
}

/// Round `round`'s never-inserted key of batch `b` (disjoint from the
/// lookups' absent keys).
fn batch_absent_key(population: usize, round: usize, b: usize) -> u64 {
    absent_key(population, 1_000 + 64 * round + b)
}

fn run_rank(
    p: &mut Process,
    s: &Schedule,
    cache: Cache,
    loc_entries: usize,
) -> (Vec<DhtLookup>, DhtStats) {
    let mut dht = Dht::create(p, dht_config(s, cache, loc_entries));
    // Shared churn schedule; per-rank lookup traffic.
    let mut stream = KeyStream::new(s.population, s.skew, s.seed);
    let mut lookups = Zipf::new(
        s.population,
        s.skew,
        s.seed ^ (p.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5,
    );

    dht.lock_all(p);
    // Populate: every key id at version 0, owner-local.
    for id in 0..s.population {
        let k = mix_key(id as u64);
        if dht.owner_of(k) == p.rank() {
            assert!(dht.insert(p, k, value_of(k, 0)), "populate insert failed");
        }
    }
    dht.flush_own_writes(p);
    p.barrier();
    dht.validate(p);

    let mut results = Vec::new();
    for round in 0..s.rounds {
        // Read phase: skewed lookups plus two never-inserted keys.
        for _ in 0..s.lookups_per_round {
            let k = mix_key(lookups.sample() as u64);
            results.push(dht.lookup(p, k));
        }
        for j in 0..2 {
            results.push(dht.lookup(p, absent_key(s.population, 2 * round + j)));
        }
        for b in 0..s.batches_per_round {
            let mut keys: Vec<u64> = (1..BATCH_KEYS)
                .map(|_| mix_key(lookups.sample() as u64))
                .collect();
            keys.push(batch_absent_key(s.population, round, b));
            results.extend(dht.multi_get(p, &keys));
        }
        p.barrier();

        // Churn phase: shared batch, owners put their keys.
        for (k, version) in stream.churn_round(s.churn_per_round) {
            if dht.owner_of(k) == p.rank() {
                assert!(dht.insert(p, k, value_of(k, version)), "churn put failed");
            }
        }
        dht.flush_own_writes(p);
        p.barrier();
        dht.validate(p);
    }
    dht.unlock_all(p);
    p.barrier();
    (results, dht.stats())
}

/// Sequential HashMap replay of the identical schedule: the pinned
/// reference result sequence for every rank.
fn reference(s: &Schedule) -> Vec<Vec<DhtLookup>> {
    let mut map: HashMap<u64, u64> = (0..s.population)
        .map(|id| {
            let k = mix_key(id as u64);
            (k, value_of(k, 0))
        })
        .collect();
    let mut stream = KeyStream::new(s.population, s.skew, s.seed);
    let mut lookups: Vec<Zipf> = (0..s.nranks)
        .map(|rank| {
            Zipf::new(
                s.population,
                s.skew,
                s.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5,
            )
        })
        .collect();
    let mut results = vec![Vec::new(); s.nranks];
    let found = |map: &HashMap<u64, u64>, k: u64| {
        map.get(&k)
            .map_or(DhtLookup::NotFound, |&v| DhtLookup::Found(v))
    };
    for _ in 0..s.rounds {
        for (rank, zipf) in lookups.iter_mut().enumerate() {
            for _ in 0..s.lookups_per_round {
                let k = mix_key(zipf.sample() as u64);
                results[rank].push(found(&map, k));
            }
            for _ in 0..2 {
                results[rank].push(DhtLookup::NotFound);
            }
            for _ in 0..s.batches_per_round {
                for _ in 1..BATCH_KEYS {
                    let k = mix_key(zipf.sample() as u64);
                    results[rank].push(found(&map, k));
                }
                results[rank].push(DhtLookup::NotFound);
            }
        }
        for (k, version) in stream.churn_round(s.churn_per_round) {
            map.insert(k, value_of(k, version));
        }
    }
    results
}

fn gen_schedule(g: &mut Gen, faulty: bool) -> Schedule {
    let population = g.range(24..96usize);
    Schedule {
        nranks: g.range(2..5usize),
        population,
        rounds: g.range(2..5usize),
        lookups_per_round: g.range(8..32usize),
        batches_per_round: g.range(0..4usize),
        churn_per_round: g.range(0..population),
        skew: g.range(0.4..1.3),
        seed: g.u64(),
        faults: if faulty {
            Some(FaultConfig::transient(g.range(0.0..0.10), g.u64()))
        } else {
            None
        },
    }
}

/// The notification-ring capacities `EagerInvalidate` runs at: the
/// simulator's default, a 2-record ring and none at all (every drain
/// after a write overflows into a whole-target drop).
fn ring_caps() -> [usize; 3] {
    [SimConfig::default().notify_ring_cap, 2, 0]
}

/// Every cache configuration under test: uncached, then both coherence
/// modes, each with the location cache off and on, `EagerInvalidate` at
/// every ring capacity of [`ring_caps`].
fn all_configs() -> Vec<Config> {
    let ring_cap = SimConfig::default().notify_ring_cap;
    let mut cfgs = Vec::new();
    for loc in [0, 256] {
        for cache in [Cache::Uncached, Cache::Coherent(CoherenceMode::None)] {
            cfgs.push(Config {
                cache,
                loc,
                ring_cap,
            });
        }
        let cache = Cache::Coherent(CoherenceMode::EagerInvalidate);
        cfgs.extend(ring_caps().map(|ring_cap| Config {
            cache,
            loc,
            ring_cap,
        }));
    }
    cfgs
}

#[test]
fn prop_dht_matches_hashmap_all_modes() {
    check("dht == HashMap across cache configs", 6, |g| {
        let s = gen_schedule(g, false);
        let want = reference(&s);
        for c in all_configs() {
            let got = run_schedule(&s, c);
            for (rank, (results, stats)) in got.iter().enumerate() {
                assert_eq!(
                    results, &want[rank],
                    "rank {rank} diverged from HashMap ({c:?})"
                );
                assert_eq!(stats.insert_fails, 0, "rank {rank}: insert failed");
                assert_eq!(stats.degraded, 0, "rank {rank}: degraded without faults");
            }
        }
    });
}

#[test]
fn prop_dht_survives_transient_faults() {
    check("dht == HashMap under transient faults", 5, |g| {
        let s = gen_schedule(g, true);
        let want = reference(&s);
        let uncached = Config {
            cache: Cache::Uncached,
            loc: 0,
            ring_cap: SimConfig::default().notify_ring_cap,
        };
        let eager = ring_caps().map(|ring_cap| Config {
            cache: Cache::Coherent(CoherenceMode::EagerInvalidate),
            loc: 256,
            ring_cap,
        });
        for c in std::iter::once(uncached).chain(eager) {
            let got = run_schedule(&s, c);
            for (rank, (results, stats)) in got.iter().enumerate() {
                assert_eq!(
                    results, &want[rank],
                    "rank {rank} diverged under faults ({c:?})"
                );
                assert_eq!(stats.degraded, 0, "transient faults must be retried away");
            }
        }
        assert!(s.faults.is_some());
    });
}

/// Directed: kill one owner after the table is populated. Lookups whose
/// owner died return `Degraded` (or a still-cached pre-death value);
/// lookups against live owners stay bit-identical to the reference.
#[test]
fn rank_death_degrades_only_the_dead_owners_lookups() {
    let s = Schedule {
        nranks: 3,
        population: 48,
        rounds: 2,
        lookups_per_round: 24,
        batches_per_round: 0,
        churn_per_round: 0, // freeze values: reference is version 0
        skew: 0.99,
        seed: 0xD147_0BAD,
        faults: None,
    };
    let dead = 1usize;

    // Dry run captures each rank's virtual time after population, so the
    // real run can kill the owner before any lookup fires.
    let body = |p: &mut Process, s: &Schedule| {
        let mut dht = Dht::create(
            p,
            dht_config(s, Cache::Coherent(CoherenceMode::EagerInvalidate), 256),
        );
        dht.lock_all(p);
        for id in 0..s.population {
            let k = mix_key(id as u64);
            if dht.owner_of(k) == p.rank() {
                assert!(dht.insert(p, k, value_of(k, 0)));
            }
        }
        dht.flush_own_writes(p);
        p.barrier();
        dht.validate(p);
        let t_populated = p.now();
        let mut outcomes = Vec::new();
        for id in 0..s.population {
            let k = mix_key(id as u64);
            outcomes.push((dht.owner_of(k), k, dht.lookup(p, k)));
        }
        dht.unlock_all(p);
        p.barrier();
        (t_populated, outcomes)
    };

    let sdry = s.clone();
    let dry = run_collect(SimConfig::default(), s.nranks, move |p| body(p, &sdry));
    let kill_ns = dry.iter().map(|(_, (t, _))| *t).fold(0.0f64, f64::max) + 1.0;

    let sim =
        SimConfig::default().with_faults(FaultConfig::default().with_rank_failure(dead, kill_ns));
    let srun = s.clone();
    let out = run_collect(sim, s.nranks, move |p| body(p, &srun));
    for (rank, (_, (_, outcomes))) in out.iter().enumerate() {
        if rank == dead {
            continue;
        }
        let mut saw_degraded = false;
        for (owner, k, got) in outcomes {
            let want = DhtLookup::Found(value_of(*k, 0));
            if *owner == dead {
                assert!(
                    *got == DhtLookup::Degraded || *got == want,
                    "rank {rank}: dead-owner lookup returned {got:?}"
                );
                saw_degraded |= *got == DhtLookup::Degraded;
            } else {
                assert_eq!(*got, want, "rank {rank}: live-owner lookup diverged");
            }
        }
        assert!(saw_degraded, "rank {rank} never observed the dead owner");
    }
}
