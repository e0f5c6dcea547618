//! Policy lab sweep — static eviction policies vs the online switcher,
//! across seven access streams, with the shadow-cache overhead priced.
//!
//! Engine-direct replay (no simulator ranks): each stream drives
//! [`RmaCache`] through `process_lookup`/`finish_miss`/`epoch_close`, so
//! a run measures exactly the cache's virtual-clock management cost plus
//! the modelled wire cost of its misses — the end-to-end get cost a
//! cached window would pay. Seven streams:
//!
//! - `zipf` — Zipf-skewed ids with per-id payload sizes (variable-size
//!   pressure: the paper's positional score can evict hot entries that
//!   sit next to large free regions);
//! - `rmat` — degree-weighted endpoint draws from an R-MAT graph
//!   (scale-free reuse, the paper's LCC shape);
//! - `bh` — Barnes-Hut ancestor paths: every body walks its octree
//!   cells coarse-to-fine (coarse cells are super-hot, leaves nearly
//!   cold — strongly hierarchical reuse);
//! - `pagerank` — superstep neighbour sweeps (sequential scans with
//!   power-law reuse across supersteps);
//! - `churn` — hot small records + one-shot bulk reads whose holes bait
//!   the positional score into evicting hot neighbours (adversarial for
//!   the `Full` default);
//! - `stencil` — cyclic halo sweeps wider than the cache plus a hot
//!   boundary set (adversarial for every recency scheme, `Full`
//!   included — positional eviction wins);
//! - `dht` — Zipf lookups with Zipf-correlated churn: updated keys are
//!   invalidated in place and re-fetched.
//!
//! Each stream runs once per static [`VictimScheme`] (lab off) and once
//! *adaptive*: live policy starts at the paper default (`Full`), the
//! policy lab shadows all three candidates, and the controller may switch
//! online ([`AdjustRule::SwitchPolicy`]); resize rules are neutralized so
//! the comparison isolates policy choice. Non-smoke, the run **asserts**:
//!
//! 1. the switcher lands within 1 hit-ratio point of the best static
//!    policy on *every* stream (it may also beat them — switching
//!    mid-stream can outrun any fixed choice);
//! 2. it beats the paper default by ≥5 % (relative) on at least one
//!    skewed stream;
//! 3. the lab's modelled overhead (`shadow_slot_visits` priced at
//!    [`CacheCostModel::shadow_visit_ns`]) stays under 10 % of the
//!    virtual end-to-end get cost.
//!
//! After the sweep one `# KEEP <scheme> best_on=<streams|none>` line per
//! swept scheme names the streams where it has the best static hit ratio
//! (ties count): a scheme that reads `none` wins nowhere and owes the
//! next reader a reason to exist.
//!
//! `--policies full,temporal,...` restricts the static sweep (names parsed
//! by `VictimScheme::from_str`; assertions need the full set and are
//! skipped otherwise). Emits `# PERF` keys (CI's `golden` stage masks
//! `wall_ms`); honours `CLAMPI_BENCH_SMOKE=1`.

use clampi::{
    AdaptiveController, AdaptiveParams, AdjustRule, CacheCostModel, CacheParams, CacheStats,
    LayoutSig, Lookup, RmaCache, VictimScheme,
};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_prng::{SmallRng, SplitMix64};
use clampi_rma::{Distance, NetModel};
use clampi_workloads::{plummer, Csr, KeyStream, RmatParams, Zipf};
use std::time::Instant;

/// One replayed event: a get, optionally preceded by an invalidation of
/// the same key (DHT churn: the remote value changed under the cache).
#[derive(Clone, Copy)]
struct Access {
    key_id: u64,
    size: usize,
    invalidate_first: bool,
}

struct Stream {
    name: &'static str,
    /// Whether the stream is skewed enough to carry assertion 2.
    skewed: bool,
    accesses: Vec<Access>,
}

/// Key ids map to disjoint displacement ranges (1 KiB stride covers the
/// largest payload) on a single remote target.
const STRIDE: u64 = 1024;

fn get_key(id: u64) -> clampi::GetKey {
    clampi::GetKey {
        target: 1,
        disp: id * STRIDE,
    }
}

fn access(key_id: u64, size: usize) -> Access {
    Access {
        key_id,
        size,
        invalidate_first: false,
    }
}

// ------------------------------------------------------------- streams

fn zipf_stream(n: usize, seed: u64) -> Stream {
    let population = 4096;
    let mut z = Zipf::new(population, 1.0, seed ^ 0x21F);
    let accesses = (0..n)
        .map(|_| {
            let id = z.sample() as u64;
            // Per-id payload size, 64..512 B: stable per key, mixed
            // across the population.
            let size = 64usize << (SplitMix64::new(id ^ 0xA11CE).next_u64() & 3);
            access(id, size)
        })
        .collect();
    Stream {
        name: "zipf",
        skewed: true,
        accesses,
    }
}

fn rmat_stream(n: usize, seed: u64) -> Stream {
    let csr = Csr::rmat(RmatParams::graph500(10, 8), seed ^ 0xE0E);
    // Flatten the directed edge list: a uniform draw over it is a
    // degree-weighted draw over vertices — hubs dominate, the scale-free
    // skew the paper's LCC experiments exercise.
    let mut endpoints = Vec::with_capacity(csr.num_edges());
    for v in 0..csr.num_vertices() {
        endpoints.extend_from_slice(csr.adj(v));
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3A7);
    let accesses = (0..n)
        .map(|_| {
            let v = endpoints[rng.gen_below(endpoints.len() as u64) as usize];
            access(v as u64, 256)
        })
        .collect();
    Stream {
        name: "rmat",
        skewed: true,
        accesses,
    }
}

fn bh_stream(n: usize, seed: u64) -> Stream {
    const LEVELS: std::ops::RangeInclusive<u32> = 2..=6;
    let bodies = plummer(1024, seed ^ 0xB0D1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0C7);
    let mut accesses = Vec::with_capacity(n);
    'outer: loop {
        // One force pass: bodies in random order, each walking its
        // ancestor cell path coarse-to-fine.
        let mut order: Vec<usize> = (0..bodies.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_below(i as u64 + 1) as usize);
        }
        for b in order {
            for level in LEVELS {
                let bins = 1u64 << level;
                let cell: u64 = bodies[b].pos.iter().fold(0, |acc, &c| {
                    let q = (((c.clamp(-4.0, 4.0) + 4.0) / 8.0) * bins as f64) as u64;
                    (acc << level) | q.min(bins - 1)
                });
                // Level-tagged cell id, spread out of the other streams'
                // dense id ranges.
                accesses.push(access((u64::from(level) << 20) | cell, 128));
                if accesses.len() == n {
                    break 'outer;
                }
            }
        }
    }
    Stream {
        name: "bh",
        skewed: true,
        accesses,
    }
}

fn pagerank_stream(n: usize, seed: u64) -> Stream {
    let csr = Csr::rmat(RmatParams::graph500(10, 8), seed ^ 0x9A6E);
    let mut accesses = Vec::with_capacity(n);
    'outer: loop {
        // One superstep: every vertex pulls each neighbour's rank cell.
        for v in 0..csr.num_vertices() {
            for &u in csr.adj(v) {
                accesses.push(access(u as u64, 64));
                if accesses.len() == n {
                    break 'outer;
                }
            }
        }
    }
    Stream {
        name: "pagerank",
        skewed: false,
        accesses,
    }
}

/// A tight Zipf working set of small records interleaved with one-shot
/// bulk reads (scans over freshly-written remote data, never re-read).
/// The bulk entries age out fast under the temporal family, but every
/// eviction leaves a hole that a small hot record only partially
/// refills — and a residual hole of about the mean get size sitting
/// next to a hot entry is exactly what the positional score `R_P` reads
/// as an ideal victim. The paper-default `Full` policy then keeps
/// evicting the hot *neighbours* of those holes, re-opening them; pure
/// recency schemes just evict the one-shots. This is the adversarial
/// shape assertion 2 exercises: the switcher must notice (through the
/// shadows) and leave `Full`.
fn churn_stream(n: usize, seed: u64) -> Stream {
    let population = 1024;
    let mut z = Zipf::new(population, 1.1, seed ^ 0xC0FF);
    let mut scan_id = 1u64 << 16; // out of the hot id range
    let mut accesses = Vec::with_capacity(n);
    while accesses.len() < n {
        for _ in 0..3 {
            if accesses.len() == n {
                break;
            }
            accesses.push(access(z.sample() as u64, 128));
        }
        if accesses.len() < n {
            accesses.push(access(scan_id, 320));
            scan_id += 1;
        }
    }
    Stream {
        name: "churn",
        skewed: true,
        accesses,
    }
}

/// An iterative stencil sweep: every iteration reads the whole remote
/// halo ring — a cyclic scan ~1.6× wider than the cache — plus
/// Zipf-skewed re-reads of a small hot boundary set. Cyclic reuse wider
/// than capacity is the recency family's blind spot (the least recently
/// used cell is exactly the one needed next), and with uniform sizes
/// the arena stays perfectly packed, so `Full`'s positional factor is
/// constant and it inherits the same pathology. Pure positional
/// eviction, by contrast, keys on placement — effectively random
/// replacement — and retains a stable fraction of the ring across
/// sweeps. The switcher has to discover that through the shadows and
/// abandon the paper default.
fn stencil_stream(n: usize, seed: u64) -> Stream {
    const RING: u64 = 600; // ring cells; 600 x 256 B ~ 1.6x the budget
    let mut z = Zipf::new(32, 1.1, seed ^ 0x57E);
    let mut accesses = Vec::with_capacity(n);
    let mut cell = 0u64;
    while accesses.len() < n {
        // Four ring cells per hot re-read keeps the scan dominant.
        for _ in 0..4 {
            if accesses.len() == n {
                break;
            }
            accesses.push(access((1 << 17) | cell, 256));
            cell = (cell + 1) % RING;
        }
        if accesses.len() < n {
            accesses.push(access((1 << 18) | z.sample() as u64, 256));
        }
    }
    Stream {
        name: "stencil",
        skewed: true,
        accesses,
    }
}

fn dht_stream(n: usize, seed: u64) -> Stream {
    let population = 2048;
    let mut ks = KeyStream::new(population, 0.99, seed ^ 0xD47);
    let mut churn = Zipf::new(population, 0.99, seed ^ 0xC41);
    let mut accesses = Vec::with_capacity(n);
    while accesses.len() < n {
        // A lookup burst, then a churn round invalidating (and
        // re-reading) Zipf-correlated keys — updates hit exactly the
        // entries the cache works hardest to keep.
        for _ in 0..64 {
            if accesses.len() == n {
                break;
            }
            accesses.push(access(ks.draw_id() as u64, 128));
        }
        for _ in 0..4 {
            if accesses.len() == n {
                break;
            }
            accesses.push(Access {
                key_id: churn.sample() as u64,
                size: 128,
                invalidate_first: true,
            });
        }
    }
    Stream {
        name: "dht",
        skewed: true,
        accesses,
    }
}

// -------------------------------------------------------------- replay

struct Outcome {
    hit_ratio: f64,
    /// Virtual end-to-end cost: cache management CPU + modelled wire
    /// time of the misses.
    virt_ns: f64,
    stats: CacheStats,
    final_policy: VictimScheme,
}

struct Geometry {
    index_entries: usize,
    storage_bytes: usize,
    epoch: usize,
    interval: u64,
    seed: u64,
}

fn replay(stream: &Stream, geo: &Geometry, policy: VictimScheme, adaptive: bool) -> Outcome {
    let net = NetModel::default();
    let params = CacheParams {
        index_entries: geo.index_entries,
        storage_bytes: geo.storage_bytes,
        victim_scheme: policy,
        policy_lab: adaptive,
        costs: CacheCostModel::matching(&net),
        seed: geo.seed,
        ..CacheParams::default()
    };
    let mut cache = RmaCache::new(params);
    let mut ctrl = adaptive.then(|| {
        AdaptiveController::new(AdaptiveParams {
            interval: geo.interval,
            // Resize rules neutralized: the sweep isolates policy choice
            // (statics do not resize either).
            conflict_threshold: 2.0,
            capacity_threshold: 2.0,
            sparsity_threshold: 0.0,
            stable_threshold: 2.0,
        })
    });
    let payload = vec![0u8; STRIDE as usize];
    let mut dst = vec![0u8; STRIDE as usize];
    let mut virt = 0.0;
    for (i, a) in stream.accesses.iter().enumerate() {
        let key = get_key(a.key_id);
        if a.invalidate_first {
            cache.invalidate_range(key.target, key.disp, key.disp + a.size as u64);
        }
        let sig = LayoutSig::Contig(a.size);
        match cache.process_lookup(key, &sig, &mut dst[..a.size]) {
            Lookup::Hit => {}
            Lookup::Miss => {
                let t = net.transfer_cost_at(Distance::SameGroup, a.size, 1);
                virt += t.cpu_ns + t.wire_ns;
                cache.finish_miss(key, sig, &payload[..a.size], 0);
            }
            Lookup::PartialHit { cached_len } => {
                let tail = a.size - cached_len;
                let t = net.transfer_cost_at(Distance::SameGroup, tail, 1);
                virt += t.cpu_ns + t.wire_ns;
                cache.finish_partial(key, sig, &payload[..a.size], 0);
            }
        }
        if (i + 1) % geo.epoch == 0 {
            cache.epoch_close();
            if let Some(adj) = ctrl.as_mut().and_then(|ctrl| cache.adapt(ctrl)) {
                assert!(
                    matches!(adj.rule, AdjustRule::SwitchPolicy(_)),
                    "resize rules are neutralized: {:?}",
                    adj.rule
                );
            }
        }
        virt += cache.take_cost();
    }
    cache.epoch_close();
    virt += cache.take_cost();
    Outcome {
        hit_ratio: cache.stats().hit_ratio(),
        virt_ns: virt,
        stats: *cache.stats(),
        final_policy: cache.victim_scheme(),
    }
}

fn main() {
    let wall = Instant::now();
    let args = Args::parse();
    let smoke = smoke_mode();
    let seed = args.seed();

    let n = args.get("accesses", if smoke { 8 << 10 } else { 96 << 10 });
    let geo = Geometry {
        index_entries: args.get("index", 512),
        storage_bytes: args.get("storage", 96 << 10),
        epoch: args.get("epoch", 64),
        interval: args.get("interval", if smoke { 512 } else { 1024 }),
        seed,
    };

    let spec = args.get("policies", "all".to_string());
    let statics: Vec<VictimScheme> = if spec == "all" {
        VictimScheme::ALL.to_vec()
    } else {
        spec.split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("--policies: {e}"))
            })
            .collect()
    };
    let full_sweep = statics.len() == VictimScheme::ALL.len();

    meta("fig_policy: static eviction policies vs the online switcher");
    meta(&format!(
        "accesses={n} index={} storage={} epoch={} interval={} seed={seed} policies={spec}",
        geo.index_entries, geo.storage_bytes, geo.epoch, geo.interval
    ));
    row(&[
        "stream",
        "policy",
        "hit_ratio",
        "virt_ns",
        "switches",
        "final",
    ]);

    let streams = [
        zipf_stream(n, seed),
        rmat_stream(n, seed),
        bh_stream(n, seed),
        pagerank_stream(n, seed),
        churn_stream(n, seed),
        stencil_stream(n, seed),
        dht_stream(n, seed),
    ];

    let mut beats_full_somewhere = false;
    let mut worst_overhead_pct = 0.0f64;
    // Per swept scheme: the streams where its static hit ratio is the best.
    let mut best_on: Vec<Vec<&str>> = vec![Vec::new(); statics.len()];
    for stream in &streams {
        let mut static_hits = Vec::with_capacity(statics.len());
        let mut full_hit = None;
        for &scheme in &statics {
            let o = replay(stream, &geo, scheme, false);
            row(&[
                stream.name.to_string(),
                scheme.label().to_string(),
                format!("{:.4}", o.hit_ratio),
                format!("{:.1}", o.virt_ns),
                "0".to_string(),
                scheme.label().to_string(),
            ]);
            meta(&format!(
                "PERF hit_{}_{} {:.4}",
                stream.name,
                scheme.label(),
                o.hit_ratio
            ));
            static_hits.push(o.hit_ratio);
            if scheme == VictimScheme::Full {
                full_hit = Some(o.hit_ratio);
            }
        }
        let best_static = static_hits.iter().copied().fold(f64::MIN, f64::max);
        for (wins, &hit) in best_on.iter_mut().zip(&static_hits) {
            if hit == best_static {
                wins.push(stream.name);
            }
        }

        let a = replay(stream, &geo, VictimScheme::Full, true);
        row(&[
            stream.name.to_string(),
            "adaptive".to_string(),
            format!("{:.4}", a.hit_ratio),
            format!("{:.1}", a.virt_ns),
            a.stats.policy_switches.to_string(),
            a.final_policy.label().to_string(),
        ]);
        let shadow_ns =
            a.stats.shadow_slot_visits as f64 * CacheCostModel::default().shadow_visit_ns;
        let overhead_pct = 100.0 * shadow_ns / a.virt_ns;
        worst_overhead_pct = worst_overhead_pct.max(overhead_pct);
        // Per-policy shadow hit ratios: what the switcher saw.
        let shadows: Vec<String> = VictimScheme::ALL
            .iter()
            .map(|&v| format!("{}={:.4}", v.label(), a.stats.shadow_hit_ratio(v)))
            .collect();
        meta(&format!(
            "{}: switches {}  shadow[{}]  lab_overhead {:.2}%",
            stream.name,
            a.stats.policy_switches,
            shadows.join(" "),
            overhead_pct
        ));
        meta(&format!(
            "PERF hit_{}_adaptive {:.4}",
            stream.name, a.hit_ratio
        ));
        meta(&format!(
            "PERF switches_{} {}",
            stream.name, a.stats.policy_switches
        ));

        assert!(a.stats.shadow_gets >= n as u64, "lab stopped observing");
        if !smoke && full_sweep {
            let full = full_hit.expect("Full is in the sweep");
            // 1: the switcher must land within one hit-ratio point of the
            // best static policy, on every stream.
            assert!(
                a.hit_ratio >= best_static - 0.01,
                "{}: adaptive {:.4} fell more than 1 point below best static {:.4}",
                stream.name,
                a.hit_ratio,
                best_static
            );
            // 3: the lab must stay cheap relative to the end-to-end cost.
            assert!(
                overhead_pct < 10.0,
                "{}: shadow overhead {overhead_pct:.2}% >= 10%",
                stream.name
            );
            if stream.skewed && a.hit_ratio >= 1.05 * full {
                beats_full_somewhere = true;
            }
        }
    }
    if !smoke && full_sweep {
        // 2: on at least one skewed stream the switcher must beat the
        // paper default (Full) by >=5% relative.
        assert!(
            beats_full_somewhere,
            "adaptive never beat the Full default by >=5% on a skewed stream"
        );
    }

    for (scheme, wins) in statics.iter().zip(&best_on) {
        let wins = if wins.is_empty() {
            "none".to_string()
        } else {
            wins.join(",")
        };
        meta(&format!("KEEP {} best_on={wins}", scheme.label()));
    }
    meta(&format!("PERF lab_overhead_pct {worst_overhead_pct:.3}"));
    meta(&format!(
        "PERF wall_ms {:.1}",
        wall.elapsed().as_secs_f64() * 1e3
    ));
    clampi_bench::cli::san_summary();
}
