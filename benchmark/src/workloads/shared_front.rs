//! `shared_front` — the concurrent cache front.
//!
//! One `ShardedCache` of 16 shards serving two clients: 65 536 keys of
//! 256 B, Zipf(0.99), 95 % `get` / 5 % refreshing `insert`, and every get
//! that misses inserts. The storage holds half the keys, so evictions run
//! beside the lock-free hits. Every hit is checked word by word against the
//! key's self-identifying payload: a torn or misdirected read that escaped
//! the seqlock validation is a failed operation.
//!
//! The end-to-end run issues both clients' operations from one thread, in
//! turn (see `end_to_end`); the traced run puts the two clients on two
//! threads side by side, and one of them alone, for the `shard.*` figures.
//!
//! Why it exists: the front that otherwise only `fig_contention` touches;
//! it supplies the numbers the "one engine, one front" and seqlock items of
//! the ROADMAP are to be decided with. Gets run beside inserts, so a reader
//! gain that taxes writers shows. The op unit is one cache operation.
//!
//! The front has no virtual clock. The two virtual-time metrics therefore
//! describe the same keys served by the single-owner engine: the head of
//! client 0's key stream replayed through a `CachedWindow` of the same
//! total size on the simulator, cached against uncached.

use std::sync::Barrier;
use std::time::Instant;

use clampi::{
    AccessType, CacheParams, ClampiConfig, GetKey, LayoutSig, Mode, RmaCache, ShardedCache,
};
use clampi_prng::SmallRng;
use clampi_workloads::{mix_key, Zipf};

use super::{finish_traced, EndToEnd, Opts, MIN_REPS, SESSIONS, VIRT_REPS};
use crate::counters::emit_cache;
use crate::host::{cpu_seconds, timed_pairs, timed_reps, Half, Reps};
use crate::names::PER_LAYER;
use crate::report::{Metrics, Report};
use crate::spans::{layer, Recorder, NO_PARENT};
use crate::stats::{median, rep_spread};
use crate::stream::{session, GetOp, Pass};

pub const THREADS: usize = 2;
pub const KEYS: usize = 65_536;
pub const PAYLOAD_BYTES: usize = 256;
pub const SHARDS: usize = 16;
pub const ZIPF_S: f64 = 0.99;
/// One operation in twenty refreshes its key instead of reading it.
pub const INSERT_ONE_IN: u64 = 20;
pub const INDEX_ENTRIES: usize = 65_536;
/// Half the keys fit.
pub const STORAGE_BYTES: usize = KEYS * PAYLOAD_BYTES / 2;
pub const OPS_PER_THREAD: usize = 1 << 19;
/// Gets of thread 0's stream the virtual-time replay covers per pass.
pub const VIRT_STREAM_GETS: usize = 1 << 17;

#[derive(Clone, Copy)]
struct Op {
    key: u32,
    insert: bool,
}

fn params(shards: usize) -> CacheParams {
    CacheParams {
        index_entries: INDEX_ENTRIES,
        storage_bytes: STORAGE_BYTES,
        shards,
        ..CacheParams::default()
    }
}

fn get_key(key: u32) -> GetKey {
    GetKey {
        target: 1,
        disp: u64::from(key) * PAYLOAD_BYTES as u64,
    }
}

/// Key `key`'s self-identifying payload: word `i` is `mix_key(key) + i`.
fn payload(key: u32) -> [u8; PAYLOAD_BYTES] {
    let base = mix_key(u64::from(key));
    let mut out = [0u8; PAYLOAD_BYTES];
    for (i, word) in out.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&base.wrapping_add(i as u64).to_le_bytes());
    }
    out
}

/// The torn-read tripwire: every word of `got` must belong to `key`.
fn intact(key: u32, got: &[u8; PAYLOAD_BYTES]) -> bool {
    let base = mix_key(u64::from(key));
    got.chunks_exact(8).enumerate().all(|(i, word)| {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        u64::from_le_bytes(w) == base.wrapping_add(i as u64)
    })
}

/// One operation stream per thread.
fn generate(o: &Opts, ops_per_thread: usize) -> Vec<Vec<Op>> {
    (0..THREADS)
        .map(|tid| {
            let seed = o.seed ^ (tid as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
            let mut zipf = Zipf::new(KEYS, ZIPF_S, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x1257);
            (0..ops_per_thread)
                .map(|_| Op {
                    key: zipf.sample() as u32,
                    insert: rng.gen_below(INSERT_ONE_IN) == 0,
                })
                .collect()
        })
        .collect()
}

/// Per-thread span sink of a traced repetition.
struct ThreadTrace {
    rec: Recorder,
    /// `(total host ns, calls)` of `get` and of `insert`.
    gets: (u64, u64),
    inserts: (u64, u64),
}

/// Runs one thread's operations; returns the hits that failed the tripwire.
fn run_ops(cache: &ShardedCache, ops: &[Op], mut trace: Option<&mut ThreadTrace>) -> u64 {
    let mut dst = [0u8; PAYLOAD_BYTES];
    let mut failed = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let key = get_key(op.key);
        let mut hit = false;
        if !op.insert {
            let start = trace.as_ref().map(|t| t.rec.now());
            hit = cache.get(key, &mut dst);
            if let (Some(t), Some(start)) = (trace.as_deref_mut(), start) {
                let end = t.rec.now();
                t.rec.push(NO_PARENT, i as u32, layer("shard"), start, end);
                t.gets = (t.gets.0 + (end - start), t.gets.1 + 1);
            }
            failed += u64::from(hit && !intact(op.key, &dst));
        }
        if !hit {
            let data = payload(op.key);
            let start = trace.as_ref().map(|t| t.rec.now());
            cache.insert(key, &data);
            if let (Some(t), Some(start)) = (trace.as_deref_mut(), start) {
                let end = t.rec.now();
                t.rec.push(NO_PARENT, i as u32, layer("shard"), start, end);
                t.inserts = (t.inserts.0 + (end - start), t.inserts.1 + 1);
            }
        }
    }
    failed
}

struct Rep {
    /// Slowest thread's wall seconds from the common start.
    wall_s: f64,
    failed: u64,
    traces: Vec<ThreadTrace>,
}

/// One repetition: the first `threads` streams, one OS thread each, released
/// together. With `origin`, every call is recorded.
fn rep(cache: &ShardedCache, streams: &[Vec<Op>], threads: usize, origin: Option<Instant>) -> Rep {
    let start = Barrier::new(threads);
    let per_thread: Vec<(f64, u64, Option<ThreadTrace>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams[..threads]
            .iter()
            .map(|ops| {
                let start = &start;
                scope.spawn(move || {
                    let mut trace = origin.map(|o| ThreadTrace {
                        rec: Recorder::with_origin(o, 2 * ops.len()),
                        gets: (0, 0),
                        inserts: (0, 0),
                    });
                    start.wait();
                    let t = Instant::now();
                    let failed = run_ops(cache, ops, trace.as_mut());
                    (t.elapsed().as_secs_f64(), failed, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    Rep {
        wall_s: per_thread.iter().map(|r| r.0).fold(0.0, f64::max),
        failed: per_thread.iter().map(|r| r.1).sum(),
        traces: per_thread.into_iter().filter_map(|r| r.2).collect(),
    }
}

/// `ops` against `table`, every key's payload side by side; returns the gets
/// that failed the tripwire.
fn flat_table_ops(table: &mut [u8], ops: &[Op]) -> u64 {
    let mut dst = [0u8; PAYLOAD_BYTES];
    let mut failed = 0u64;
    for op in ops {
        let at = op.key as usize * PAYLOAD_BYTES;
        let slot = &mut table[at..at + PAYLOAD_BYTES];
        if op.insert {
            slot.copy_from_slice(&payload(op.key));
        } else {
            dst.copy_from_slice(slot);
            failed += u64::from(!intact(op.key, &dst));
        }
    }
    failed
}

/// Thread 0's keys as gets against a window holding every key's payload.
fn virt_stream(stream: &[Op]) -> (Vec<GetOp>, Vec<u8>) {
    let ops = stream
        .iter()
        .take(VIRT_STREAM_GETS)
        .map(|op| GetOp::contiguous(op.key as usize * PAYLOAD_BYTES, PAYLOAD_BYTES))
        .collect();
    let mut window = vec![0u8; KEYS * PAYLOAD_BYTES];
    for (key, slot) in window.chunks_exact_mut(PAYLOAD_BYTES).enumerate() {
        slot.copy_from_slice(&payload(key as u32));
    }
    (ops, window)
}

/// Both clients' streams as one, operation by operation in turn: what one
/// thread runs in place of the two.
fn merged(streams: &[Vec<Op>]) -> Vec<Vec<Op>> {
    let ops = streams[0].len();
    vec![(0..ops)
        .flat_map(|i| streams.iter().map(move |s| s[i]))
        .collect()]
}

/// The untraced run keeps to one CPU (`host::pin_to_one_cpu`), where two
/// threads would only take turns at the scheduler's whim — and which keys
/// are cached, so how much work a repetition is, would depend on the turns.
/// So one thread runs both clients' operations in a fixed alternation: the
/// same calls into the same front, every repetition the same work. Two
/// threads truly side by side are the traced run's part (`shard.*`).
///
/// The baseline of a repetition is the same operations with no cache at
/// all: a get copies the key's payload out of a flat table of every key's
/// payload (and checks it like a hit), an insert copies it in — what the
/// uncached path of a window is to the other workloads.
fn end_to_end(o: &Opts) -> EndToEnd {
    let ops_per_thread = o.scaled(OPS_PER_THREAD, 1 << 12);
    let streams = generate(o, ops_per_thread);
    let (virt_ops, mut window) = virt_stream(&streams[0]);
    let mut setups = Vec::new();
    let mut reps = Reps::default();
    let (mut failed, mut reps_run) = (0, 0u64);
    for _ in 0..SESSIONS {
        let setup_start = cpu_seconds();
        let stream = merged(&generate(o, ops_per_thread));
        let cache = ShardedCache::new(params(SHARDS));
        failed += rep(&cache, &stream, 1, None).failed; // warm-up
        setups.push(cpu_seconds() - setup_start);
        let session_reps = timed_pairs(o.seconds / SESSIONS as f64, MIN_REPS, |half| {
            failed += match half {
                Half::Measured => rep(&cache, &stream, 1, None).failed,
                Half::Baseline => flat_table_ops(&mut window, &stream[0]),
            };
        });
        reps_run += 1 + 2 * session_reps.len() as u64;
        reps.extend(session_reps);
    }

    // Virtual time: the same keys on the single-owner engine (module docs).
    let passes = |cached: bool| {
        let cfg = if cached {
            ClampiConfig::fixed(Mode::AlwaysCache, params(1))
        } else {
            ClampiConfig::disabled()
        };
        let (pass, _) = session(&window, &cfg, |i| {
            Pass::repeated(VIRT_REPS, || {
                if cached {
                    i.cached_pass(&virt_ops)
                } else {
                    i.uncached_pass(&virt_ops)
                }
            })
        });
        pass
    };
    let (cached, uncached) = (passes(true), passes(false));
    let n = (THREADS * ops_per_thread) as u64;
    let virt_n = (virt_ops.len() * VIRT_REPS) as u64;
    EndToEnd {
        setups,
        ops_per_rep: n,
        virt_ops: virt_n,
        virt_cached_ns: cached.virt_ns,
        virt_uncached_ns: uncached.virt_ns,
        attempted: n * reps_run + 2 * virt_n,
        failed: failed + cached.failed + uncached.failed,
        notes: vec![format!(
            "{THREADS} clients' operations in turn on one thread, {SHARDS} shards; virtual metrics from {} gets of client 0's stream on the single-owner engine",
            virt_ops.len()
        )],
        reps,
    }
}

/// Host ns per get of `gets` on a one-shard front over host ns per lookup
/// of the same keys on the deterministic engine, both prefilled alike.
fn front_vs_engine(stream: &[Op], seconds: f64) -> f64 {
    let front = ShardedCache::new(params(1));
    let mut engine_params = params(1);
    engine_params.costs = clampi::CacheCostModel::free();
    let mut engine = RmaCache::new(engine_params);
    let sig = LayoutSig::Contig(PAYLOAD_BYTES);
    let mut dst = [0u8; PAYLOAD_BYTES];
    for op in stream {
        let (key, data) = (get_key(op.key), payload(op.key));
        if !front.get(key, &mut dst) {
            front.insert(key, &data);
        }
        if engine.process_lookup(key, &sig, &mut dst) != clampi::Lookup::Hit {
            engine.finish_miss(key, sig.clone(), &data, 0);
            engine.epoch_close();
        }
    }
    let per_get = |reps: Reps| median(&mut reps.walls.clone()) / stream.len() as f64 * 1e9;
    let front_ns = per_get(timed_reps(seconds / 2.0, MIN_REPS, || {
        for op in stream {
            std::hint::black_box(front.get(get_key(op.key), &mut dst));
        }
    }));
    let engine_ns = per_get(timed_reps(seconds / 2.0, MIN_REPS, || {
        for op in stream {
            std::hint::black_box(engine.process_lookup(get_key(op.key), &sig, &mut dst));
        }
    }));
    front_ns / engine_ns
}

fn traced(o: &Opts) -> Report {
    let ops_per_thread = o.scaled(OPS_PER_THREAD, 1 << 12);
    let timer_ns = crate::host::timer_ns();
    let streams = generate(o, ops_per_thread);
    // The traced repetitions replay the head of each stream.
    let heads: Vec<Vec<Op>> = streams
        .iter()
        .map(|s| s[..(s.len() / 8).max(1)].to_vec())
        .collect();
    let cache = ShardedCache::new(params(SHARDS));
    let mut failed = rep(&cache, &streams, THREADS, None).failed; // warm-up
    let mut reps = 1u64;
    let slice = o.seconds / 5.0;
    let walls_t2 = timed_reps(slice, MIN_REPS, || {
        failed += rep(&cache, &streams, THREADS, None).failed;
    })
    .walls;
    let walls_t1 = timed_reps(slice, MIN_REPS, || {
        failed += rep(&cache, &streams, 1, None).failed;
    })
    .walls;
    reps += walls_t2.len() as u64;
    let single_reps = walls_t1.len() as u64;

    let mut rec = Recorder::new(0);
    let origin = rec.origin();
    let stats0 = cache.stats();
    let locks0 = cache.write_lock_acquisitions();
    // One traced repetition on one thread, one on two; each thread's spans
    // hang under its repetition's root. Returns the get and insert sums.
    let mut traced_rep = |threads: usize| {
        let root = rec.open(NO_PARENT, threads as u32, layer("trace"));
        let traced = rep(&cache, &heads, threads, Some(origin));
        rec.close(root);
        let (mut gets, mut inserts) = ((0, 0), (0, 0));
        for t in traced.traces {
            gets = (gets.0 + t.gets.0, gets.1 + t.gets.1);
            inserts = (inserts.0 + t.inserts.0, inserts.1 + t.inserts.1);
            rec.absorb(t.rec, root);
        }
        (traced.wall_s, traced.failed, gets, inserts)
    };
    let (_, failed_t1, gets_t1, _) = traced_rep(1);
    let (traced_t2_wall, failed_t2, gets_t2, inserts_t2) = traced_rep(THREADS);
    failed += failed_t1 + failed_t2;
    let stats = cache.stats().delta_since(&stats0);
    let write_locks = cache.write_lock_acquisitions() - locks0;

    let mean = |(ns, calls): (u64, u64)| (ns as f64 / calls.max(1) as f64 - timer_ns).max(0.0);
    let mut m = Metrics::new(&PER_LAYER);
    m.set("host.timer_ns", timer_ns);
    m.set("host.parallelism", crate::host::parallelism() as f64);
    m.set("host.rep_spread", rep_spread(&walls_t2));
    emit_cache(&mut m, &stats);
    m.set(
        "index.load_factor",
        cache.len() as f64 / INDEX_ENTRIES as f64,
    );
    m.set("shard.get_wall_ns_t1", mean(gets_t1));
    m.set("shard.get_wall_ns_t2", mean(gets_t2));
    m.set("shard.insert_wall_ns", mean(inserts_t2));
    let (t1, t2) = (median(&mut walls_t1.clone()), median(&mut walls_t2.clone()));
    // Two threads on fewer than two cores measure the scheduler, not the
    // front: no scaling figure is reported from such a host.
    if crate::host::parallelism() >= THREADS {
        m.set("shard.scaling_x", (THREADS as f64 / t2) / (1.0 / t1));
    }
    m.set("shard.vs_engine_x", front_vs_engine(&heads[0], slice));
    m.set("shard.opt_retries", stats.opt_retries as f64);
    m.set("shard.locked_reads", stats.locked_reads as f64);
    m.set("shard.write_locks", write_locks as f64);
    let per_op_untraced = t2 / (THREADS * ops_per_thread) as f64;
    let per_op_traced = traced_t2_wall / (THREADS * heads[0].len()) as f64;
    m.set("trace.overhead_x", per_op_traced / per_op_untraced);
    m.set("trace.spans", rec.spans().len() as f64);

    let mut notes = vec![format!(
        "traced repetitions over {} ops per thread: 1 thread, then {THREADS}; {} hits + misses classified",
        heads[0].len(),
        stats.total_gets
    )];
    // The front's invariant: every get-then-insert-on-miss is classified
    // exactly once.
    let classified: u64 = AccessType::ALL.iter().map(|t| stats.count(*t)).sum();
    let unclassified = stats.total_gets.abs_diff(classified);
    finish_traced(o, "shared_front", &rec, &[], &mut notes);
    let n = (THREADS * ops_per_thread) as u64;
    Report {
        attempted: n * reps + ops_per_thread as u64 * single_reps + 3 * heads[0].len() as u64,
        failed: failed + unclassified,
        rep_spread: rep_spread(&walls_t2),
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
