//! `dht_mixed` — the cached windows used with writes beside the reads.
//!
//! A distributed hash table (`Dht`) of 2^14 keys at load factor 0.9 over
//! two ranks, `CoherenceMode::EagerInvalidate`, a location cache of 2^12
//! entries and an amply sized CLaMPI index (conflicts belong to
//! `miss_churn`). One repetition is 64 barrier-separated rounds; in each
//! round the ranks apply one shared, Zipf-skewed batch of 200 update draws
//! (every rank writes the keys it owns: `insert` → `put`), then
//! `flush_own_writes` → `barrier` → `validate`, then every rank issues 800
//! Zipf(0.99) lookups and 12 `multi_get` batches of 8 keys. Updates are
//! 10 % of the operations, lookups 80 %, batched keys 10 %. The keys of a
//! repetition are drawn once per run and replayed by every repetition
//! (`Script`), so that all repetitions do the same work; the values written
//! differ, by their version, and every value read is checked against the
//! shared version count.
//!
//! Why it exists: `rma` put and the notification ring, coherence drains and
//! invalidations, snapshot interval validation, barriers. A read-path gain
//! that costs the write/invalidate path shows here. The op unit is one DHT
//! operation (an update draw, a lookup, or one key of a batch).

use std::time::{Duration, Instant};

use clampi::{CacheParams, CacheStats, ClampiConfig, CoherenceMode, Mode};
use clampi_apps::{Dht, DhtConfig, DhtLookup, DhtStats, BUCKET_BYTES};
use clampi_prng::SplitMix64;
use clampi_rma::{run_collect, Process, SimConfig};
use clampi_workloads::{mix_key, Zipf};

use super::{finish_traced, EndToEnd, Opts, MIN_REPS, SESSIONS, VIRT_REPS};
use crate::counters::{emit_cache, emit_clock};
use crate::host::{cpu_seconds, Reps};
use crate::ladder;
use crate::names::PER_LAYER;
use crate::report::{Metrics, Report};
use crate::spans::{layer, Recorder, NO_PARENT};
use crate::stats::{median, rep_spread};
use crate::stream::{ClockMark, GetOp, INITIATOR, RANKS};

pub const KEYS: usize = 1 << 14;
pub const LOAD_FACTOR: f64 = 0.9;
pub const ZIPF_S: f64 = 0.99;
pub const INDEX_ENTRIES: usize = 1 << 15;
pub const STORAGE_BYTES: usize = 2 << 20;
pub const LOC_CACHE_ENTRIES: usize = 1 << 12;
pub const MAX_PROBE: usize = 4096;
pub const ROUNDS_PER_REP: usize = 64;
/// Update draws per round, shared by the ranks (each writes what it owns).
pub const UPDATE_DRAWS: usize = 200;
/// Lookups per round and rank.
pub const LOOKUPS: usize = 800;
/// `multi_get` batches per round and rank, and keys per batch.
pub const BATCHES: usize = 12;
pub const BATCH_KEYS: usize = 8;
/// Put-notification ring capacity per window region. A round writes about
/// 100 records into each; the simulator's default of 64 would overflow every
/// round and turn every surgical drain into a full invalidation.
pub const NOTIFY_RING_CAP: usize = 256;

/// Shape of one run: population and rounds per repetition.
#[derive(Clone, Copy)]
struct Shape {
    keys: usize,
    rounds: usize,
    seed: u64,
}

impl Shape {
    fn of(o: &Opts) -> Self {
        Shape {
            keys: o.scaled(KEYS, 1 << 10),
            rounds: if o.smoke { 2 } else { ROUNDS_PER_REP },
            seed: o.seed,
        }
    }

    fn buckets_per_rank(&self) -> usize {
        ((self.keys as f64 / (RANKS as f64 * LOAD_FACTOR)).ceil() as usize) | 1
    }

    /// Operations of one repetition, over both ranks.
    fn ops_per_rep(&self) -> u64 {
        (self.rounds * (UPDATE_DRAWS + RANKS * (LOOKUPS + BATCHES * BATCH_KEYS))) as u64
    }

    /// Operations rank 0 issues or shares in one repetition.
    fn ops_per_rank(&self) -> u64 {
        self.ops_per_rep() / RANKS as u64
    }
}

fn clampi_config(cached: bool) -> ClampiConfig {
    if !cached {
        return ClampiConfig::disabled();
    }
    let params = CacheParams {
        index_entries: INDEX_ENTRIES,
        storage_bytes: STORAGE_BYTES,
        coherence: CoherenceMode::EagerInvalidate,
        ..CacheParams::default()
    };
    ClampiConfig::fixed(Mode::AlwaysCache, params)
}

/// The value key `key` holds after `version` updates: what every reader
/// recomputes from the shared schedule.
fn value_of(key: u64, version: u64) -> u64 {
    key ^ SplitMix64::new(version.wrapping_mul(0x5851_F42D_4C95_7F2D)).next_u64()
}

/// Per-rank lookup traffic, decorrelated across ranks.
fn rank_zipf(shape: Shape, rank: usize) -> Zipf {
    Zipf::new(
        shape.keys,
        ZIPF_S,
        shape.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF1D0,
    )
}

#[derive(Clone, Copy)]
enum Call {
    Lookup,
    Insert,
    MultiGet,
    Validate,
}

const CALLS: usize = 4;

impl Call {
    fn layer(self) -> u8 {
        match self {
            Call::Lookup | Call::Insert => layer("apps"),
            Call::MultiGet => layer("snapshot"),
            Call::Validate => layer("coherence"),
        }
    }
}

/// Span sink of the traced repetition: every call of rank 0 into the table.
struct Tracer {
    rec: Recorder,
    root: u32,
    next_op: u32,
    /// `(total host ns, calls)` per [`Call`].
    sums: [(u64, u64); CALLS],
}

/// Runs `f`, recording a span around it when tracing.
fn spanned<T>(tracer: &mut Option<Tracer>, call: Call, f: impl FnOnce() -> T) -> T {
    let Some(t) = tracer.as_mut() else {
        return f();
    };
    let start = t.rec.now();
    let out = f();
    let end = t.rec.now();
    t.rec.push(t.root, t.next_op, call.layer(), start, end);
    t.next_op += 1;
    let slot = &mut t.sums[call as usize];
    *slot = (slot.0 + (end - start), slot.1 + 1);
    out
}

/// What one rank does in one repetition, drawn once per run: every
/// repetition replays it, so that all repetitions do the same work (only
/// the values written differ, by their version).
struct Script {
    /// Per round, the key ids updated: one shared, Zipf-skewed batch of
    /// [`UPDATE_DRAWS`] draws, deduplicated (one put per bucket per epoch).
    updates: Vec<Vec<u32>>,
    /// Per round, the key ids this rank reads: [`LOOKUPS`] lookups, then
    /// [`BATCHES`] batches of [`BATCH_KEYS`].
    reads: Vec<Vec<u32>>,
}

impl Script {
    fn new(shape: Shape, rank: usize) -> Self {
        let mut update_zipf = Zipf::new(shape.keys, ZIPF_S, shape.seed ^ 0xC4A2);
        let mut read_zipf = rank_zipf(shape, rank);
        let updates = (0..shape.rounds)
            .map(|_| {
                let mut ids: Vec<u32> = (0..UPDATE_DRAWS)
                    .map(|_| update_zipf.sample() as u32)
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        let reads = (0..shape.rounds)
            .map(|_| {
                (0..LOOKUPS + BATCHES * BATCH_KEYS)
                    .map(|_| read_zipf.sample() as u32)
                    .collect()
            })
            .collect();
        Script { updates, reads }
    }
}

/// One rank's state across rounds.
struct Side {
    dht: Dht,
    script: Script,
    /// Updates applied so far to each key id (identical on every rank).
    versions: Vec<u64>,
    tracer: Option<Tracer>,
}

impl Side {
    /// Creates the table and populates it (every rank inserts what it owns);
    /// returns the inserts that failed.
    fn create(p: &mut Process, shape: Shape, cached: bool) -> (Self, u64) {
        let buckets = shape.buckets_per_rank();
        let cfg = DhtConfig::new(clampi_config(cached), buckets)
            .with_location_cache(LOC_CACHE_ENTRIES)
            .with_max_probe(MAX_PROBE.min(buckets));
        let mut dht = Dht::create(p, cfg);
        dht.lock_all(p);
        // Insert in mixed-key order, not Zipf-rank order: otherwise the
        // hottest keys would meet an empty table and get the shortest chains.
        let mut order: Vec<u64> = (0..shape.keys as u64).map(mix_key).collect();
        order.sort_unstable();
        let mut failed = 0u64;
        for k in order {
            if dht.owner_of(k) == p.rank() {
                failed += u64::from(!dht.insert(p, k, value_of(k, 0)));
            }
        }
        dht.flush_own_writes(p);
        p.barrier();
        dht.validate(p);
        let side = Side {
            dht,
            script: Script::new(shape, p.rank()),
            versions: vec![0; shape.keys],
            tracer: None,
        };
        (side, failed)
    }

    /// One repetition: the script's write-then-read rounds. Returns the
    /// operations whose result was wrong.
    fn rep(&mut self, p: &mut Process) -> u64 {
        let Side {
            dht,
            script,
            versions,
            tracer,
        } = self;
        let mut failed = 0u64;
        let mut keys = [0u64; BATCH_KEYS];
        for (updates, reads) in script.updates.iter().zip(&script.reads) {
            for &id in updates {
                let version = &mut versions[id as usize];
                *version += 1;
                let k = mix_key(u64::from(id));
                if dht.owner_of(k) == p.rank() {
                    let ok = spanned(tracer, Call::Insert, || {
                        dht.insert(p, k, value_of(k, *version))
                    });
                    failed += u64::from(!ok);
                }
            }
            dht.flush_own_writes(p);
            p.barrier();
            spanned(tracer, Call::Validate, || dht.validate(p));
            let expected = |id: u32| {
                let k = mix_key(u64::from(id));
                DhtLookup::Found(value_of(k, versions[id as usize]))
            };
            let (lookups, batches) = reads.split_at(LOOKUPS);
            for &id in lookups {
                let k = mix_key(u64::from(id));
                let got = spanned(tracer, Call::Lookup, || dht.lookup(p, k));
                failed += u64::from(got != expected(id));
            }
            for ids in batches.chunks_exact(BATCH_KEYS) {
                for (k, &id) in keys.iter_mut().zip(ids) {
                    *k = mix_key(u64::from(id));
                }
                let got = spanned(tracer, Call::MultiGet, || dht.multi_get(p, &keys));
                for (&id, got) in ids.iter().zip(got) {
                    failed += u64::from(got != expected(id));
                }
            }
            // Reads end before the next round's writes begin.
            p.barrier();
        }
        failed
    }
}

/// What a session does after set-up (create, populate, one repetition from
/// empty caches).
#[derive(Clone, Copy)]
enum Plan {
    /// Exactly this many more repetitions.
    Fixed(usize),
    /// For this many seconds timed repetitions, each followed by its
    /// baseline: the same repetition on a second table, of the same session,
    /// whose windows have no cache.
    Timed(f64),
    /// One traced repetition, then timed ones.
    Traced(f64),
}

struct TracedRep {
    wall_s: f64,
    tracer: Tracer,
    dht: DhtStats,
    cache: CacheStats,
    before: ClockMark,
    after: ClockMark,
    load_factor: f64,
    occupancy: f64,
}

struct RankOut {
    /// CPU seconds of the process from the session's start to the end of
    /// its first repetition.
    setup_s: f64,
    /// Virtual ns of the first [`VIRT_REPS`] repetitions (or of all there
    /// were), starting from empty CLaMPI and location caches.
    virt_ns: f64,
    failed: u64,
    reps: Reps,
    traced: Option<TracedRep>,
}

/// The DHT counters that changed between two snapshots (field by field: the
/// struct has no delta of its own).
fn dht_delta(after: &DhtStats, before: &DhtStats) -> DhtStats {
    let mut d = *after;
    d.lookups -= before.lookups;
    d.bucket_gets -= before.bucket_gets;
    d.loc_hits -= before.loc_hits;
    d.multi_get_hits -= before.multi_get_hits;
    d.multi_get_fallbacks -= before.multi_get_fallbacks;
    d
}

fn session(shape: Shape, cached: bool, plan: Plan, t_setup: Instant) -> RankOut {
    let setup_start = cpu_seconds();
    let sim = SimConfig::bench().with_notify_ring_cap(NOTIFY_RING_CAP);
    let out = run_collect(sim, RANKS, |p| {
        let (mut side, mut failed) = Side::create(p, shape, cached);
        let virt0 = p.now();
        failed += side.rep(p);
        let mut virt_ns = p.now() - virt0;
        let setup_s = cpu_seconds() - setup_start;

        // The traced repetition runs straight after the first one — fixed
        // work from a fixed state — so that its counters repeat exactly.
        let mut traced = None;
        if matches!(plan, Plan::Traced(_)) {
            let spans = shape.ops_per_rank() as usize + 64;
            let mut rec = Recorder::with_origin(t_setup, spans);
            let root = rec.open(NO_PARENT, 0, layer("apps"));
            let (dht0, cache0) = (side.dht.stats(), side.dht.cache_stats());
            let before = ClockMark::of(p);
            if p.rank() == INITIATOR {
                side.tracer = Some(Tracer {
                    rec,
                    root,
                    next_op: 0,
                    sums: [(0, 0); CALLS],
                });
            }
            let t = Instant::now();
            failed += side.rep(p);
            let wall_s = t.elapsed().as_secs_f64();
            if let Some(mut tracer) = side.tracer.take() {
                tracer.rec.close(root);
                let (load_factor, occupancy) =
                    crate::counters::fill_of(side.dht.window_mut().cache());
                traced = Some(TracedRep {
                    wall_s,
                    tracer,
                    dht: dht_delta(&side.dht.stats(), &dht0),
                    cache: side.dht.cache_stats().delta_since(&cache0),
                    before,
                    after: ClockMark::of(p),
                    load_factor,
                    occupancy,
                });
            }
        }
        // The baseline's table is not part of the set-up that is measured.
        let mut baseline = None;
        if matches!(plan, Plan::Timed(_)) {
            let (mut side, populate_failed) = Side::create(p, shape, false);
            failed += populate_failed + side.rep(p);
            baseline = Some(side);
        }
        let mut reps = Reps::default();
        let (min_reps, seconds) = match plan {
            Plan::Fixed(n) => (n, 0.0),
            Plan::Timed(s) | Plan::Traced(s) => (MIN_REPS, s),
        };
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        loop {
            // Rank 0 keeps the time; both ranks must agree to go on.
            let go =
                (p.rank() == INITIATOR).then(|| reps.len() < min_reps || Instant::now() < deadline);
            if !p.bcast(INITIATOR, go) {
                break;
            }
            let virt0 = p.now();
            reps.time(|| failed += side.rep(p));
            if reps.len() < VIRT_REPS {
                virt_ns += p.now() - virt0;
            }
            if let Some(side) = baseline.as_mut() {
                reps.time_baseline(|| failed += side.rep(p));
            }
        }

        if let Some(mut side) = baseline {
            side.dht.unlock_all(p);
        }
        side.dht.unlock_all(p);
        p.barrier();
        RankOut {
            setup_s,
            virt_ns,
            failed,
            reps,
            traced,
        }
    });
    // Rank 0 kept the time; failures count from both ranks.
    let failed: u64 = out.iter().map(|(_, r)| r.failed).sum();
    let (_, rank0) = out.into_iter().next().expect("rank 0 reports");
    RankOut { failed, ..rank0 }
}

fn end_to_end(o: &Opts) -> EndToEnd {
    let shape = Shape::of(o);
    let mut setups = Vec::new();
    let mut reps = Reps::default();
    let (mut failed, mut reps_run) = (0, 0);
    // Every session does the same repetitions from the same state: the
    // first one's virtual time is every session's.
    let mut virt_cached_ns = None;
    for _ in 0..SESSIONS {
        let plan = Plan::Timed(o.seconds / SESSIONS as f64);
        let timed = session(shape, true, plan, Instant::now());
        setups.push(timed.setup_s);
        failed += timed.failed;
        reps_run += 2 * (1 + timed.reps.len()); // + the cold ones
        reps.extend(timed.reps);
        virt_cached_ns.get_or_insert(timed.virt_ns);
    }
    let uncached = session(shape, false, Plan::Fixed(VIRT_REPS - 1), Instant::now());
    let tables = (2 * SESSIONS + 1) as u64;
    EndToEnd {
        setups,
        reps,
        ops_per_rep: shape.ops_per_rep(),
        virt_ops: shape.ops_per_rep() * VIRT_REPS as u64,
        virt_cached_ns: virt_cached_ns.expect("at least one session"),
        virt_uncached_ns: uncached.virt_ns,
        // Every populate insert is checked too.
        attempted: shape.ops_per_rep() * (reps_run + VIRT_REPS) as u64 + tables * shape.keys as u64,
        failed: failed + uncached.failed,
        notes: vec![format!(
            "{} keys, {} buckets per rank, {} rounds per repetition",
            shape.keys,
            shape.buckets_per_rank(),
            shape.rounds
        )],
    }
}

/// A stream with the shape of rank 0's bucket reads — one 24-byte get per
/// looked-up key, Zipf-distributed over the rank-1 partition — for the layer
/// ladder. The table's own placement hash is private, so keys are placed by
/// `mix_key(id) % buckets`.
fn bucket_shaped_stream(shape: Shape) -> Vec<GetOp> {
    let buckets = shape.buckets_per_rank();
    let mut zipf = rank_zipf(shape, INITIATOR);
    (0..shape.rounds * (LOOKUPS + BATCHES * BATCH_KEYS))
        .map(|_| {
            let slot = (mix_key(zipf.sample() as u64) % buckets as u64) as usize;
            GetOp::contiguous(slot * BUCKET_BYTES, BUCKET_BYTES)
        })
        .collect()
}

fn traced(o: &Opts) -> Report {
    let shape = Shape::of(o);
    let timer_ns = crate::host::timer_ns();
    let t0 = Instant::now();
    let run = session(shape, true, Plan::Traced(o.seconds / 4.0), t0);
    let rep = run.traced.expect("rank 0 traced a repetition");
    let mut rec = Recorder::with_origin(t0, 0);
    rec.absorb(rep.tracer.rec, NO_PARENT);

    let ops = bucket_shaped_stream(shape);
    let mut window = vec![0u8; shape.buckets_per_rank() * BUCKET_BYTES];
    crate::host::fill_pattern(&mut window, o.seed);
    let mut m = Metrics::new(&PER_LAYER);
    let out = ladder::run(
        &ladder::Spec {
            ops: &ops,
            window: &window,
            cfg: &clampi_config(true),
            nb_batch: None,
            cold_passes: false,
            seconds: o.seconds / 2.0,
        },
        &mut m,
        &mut rec,
    );

    // Counters and call spans come from the table's own run.
    emit_cache(&mut m, &rep.cache);
    emit_clock(
        &mut m,
        &rep.before,
        &rep.after,
        shape.ops_per_rank(),
        &rep.cache,
    );
    m.set("index.load_factor", rep.load_factor);
    m.set("storage.occupancy", rep.occupancy);
    let mean = |call: Call| {
        let (ns, calls) = rep.tracer.sums[call as usize];
        (ns as f64 / calls.max(1) as f64 - timer_ns).max(0.0)
    };
    m.set("dht.lookup_wall_ns", mean(Call::Lookup));
    m.set("dht.insert_wall_ns", mean(Call::Insert));
    m.set(
        "snapshot.multi_get_wall_ns_per_req",
        mean(Call::MultiGet) / BATCH_KEYS as f64,
    );
    m.set("coherence.validate_wall_ns", mean(Call::Validate));
    let d = rep.dht;
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    m.set(
        "dht.bucket_gets_per_lookup",
        share(d.bucket_gets, d.lookups),
    );
    m.set("dht.loc_hit_ratio", share(d.loc_hits, d.lookups));
    m.set(
        "dht.multi_get_fallback_share",
        share(
            d.multi_get_fallbacks,
            d.multi_get_hits + d.multi_get_fallbacks,
        ),
    );
    m.set(
        "trace.overhead_x",
        rep.wall_s / median(&mut run.reps.walls.clone()),
    );
    m.set("trace.spans", rec.spans().len() as f64);
    m.set("host.rep_spread", rep_spread(&run.reps.walls));

    let mut notes = vec![format!(
        "traced repetition: {} table calls of rank 0; ladder over {} bucket-shaped gets",
        rep.tracer.next_op,
        ops.len()
    )];
    finish_traced(o, "dht_mixed", &rec, &out.rungs, &mut notes);
    let reps = run.reps.len() as u64 + 2; // + the cold one, + the traced one
    Report {
        attempted: out.attempted + shape.ops_per_rep() * reps,
        failed: out.failed + run.failed,
        rep_spread: rep_spread(&run.reps.walls),
        metrics: m,
        notes,
    }
}

pub fn run(o: &Opts) -> Report {
    if o.trace {
        traced(o)
    } else {
        end_to_end(o).into_report()
    }
}
