//! The layer ladder: one recorded get stream replayed through successively
//! lower public APIs, each rung timed as a whole.
//!
//! ```text
//! host     memcpy / pack of the same sizes
//! rma      rma::Window::get + flush            (the uncached get)
//! index    CuckooIndex::lookup
//! cache    RmaCache::process_lookup / finish_miss / epoch_close, free cost model
//! window   CachedWindow::get (+ flush on a non-hit)
//! ```
//!
//! A layer's self time is its rung minus the rungs beneath it
//! ([`Rungs::window_self`], [`Rungs::engine_self`]). The top rung also runs
//! once with a span around every call, which gives the `window.*`
//! distributions and `trace.overhead_x`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use clampi::storage::Storage;
use clampi::{
    AccessType, CacheCostModel, CacheStats, ClampiConfig, CuckooIndex, GetKey, LayoutSig, Lookup,
    RmaCache,
};
use clampi_datatype::{pack, Datatype};
use clampi_rma::{run_collect, SimConfig};

use crate::report::Metrics;
use crate::spans::{layer, Recorder, NO_PARENT};
use crate::stats::{highest_percentile, median, percentile};
use crate::stream::{
    session, strided_type, CallSample, ClockMark, GetOp, Initiator, NbTrace, RANKS, TARGET,
};

/// What to replay and how.
pub struct Spec<'a> {
    pub ops: &'a [GetOp],
    /// Rank 1's window contents.
    pub window: &'a [u8],
    pub cfg: &'a ClampiConfig,
    /// `Some(b)`: the top rung replays through `get_nb` in batches of `b`
    /// (the Barnes-Hut shape); `None`: blocking `get`.
    pub nb_batch: Option<usize>,
    /// `true`: every pass of the cache and window rungs starts from an
    /// empty cache, as every repetition of an application does; `false`:
    /// passes continue in the steady state the previous one left.
    pub cold_passes: bool,
    /// Host seconds the whole ladder may measure for.
    pub seconds: f64,
}

/// Nanoseconds per get of each rung, and the share of gets that missed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rungs {
    pub host_memcpy: f64,
    pub rma_get: f64,
    pub index_lookup: f64,
    pub engine: f64,
    pub window: f64,
    pub miss_share: f64,
}

impl Rungs {
    /// `CachedWindow`'s own time per get: the top rung minus the engine and
    /// the simulator gets the misses went on to issue.
    pub fn window_self(&self) -> f64 {
        self.window - self.engine - self.miss_share * self.rma_get
    }

    /// The engine's own time per get: its rung minus the index probe and the
    /// payload copy beneath it.
    pub fn engine_self(&self) -> f64 {
        self.engine - self.index_lookup - self.host_memcpy
    }
}

/// What the ladder hands back besides the metrics it set.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(rung name, ns per op)` for the trace file.
    pub rungs: Vec<(String, f64)>,
    /// Wall seconds of the untraced top-rung passes (for `host.rep_spread`).
    pub window_walls: Vec<f64>,
}

/// Runs `pass` for `seconds` (at least three times), recording one span per
/// pass under `root`; returns the median wall seconds of a pass.
fn rung(
    rec: &mut Recorder,
    root: u32,
    layer_name: &str,
    seconds: f64,
    mut pass: impl FnMut(),
) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    while walls.len() < 3 || Instant::now() < deadline {
        let start = rec.now();
        pass();
        let end = rec.now();
        rec.push(root, walls.len() as u32, layer(layer_name), start, end);
        walls.push((end - start) as f64 / 1e9);
    }
    walls
}

fn key_of(op: &GetOp) -> GetKey {
    GetKey {
        target: TARGET as u32,
        disp: op.disp as u64,
    }
}

/// Everything rank 0 measured, carried out of the session.
struct Raw {
    rungs: Rungs,
    flatten_ns: Option<f64>,
    pack_ns: Option<f64>,
    put_ns: f64,
    lock_all_ns: f64,
    storage_ns: Option<f64>,
    traced_wall_s: f64,
    samples: Vec<CallSample>,
    flushes: Vec<(u64, u64)>,
    stats: CacheStats,
    before: ClockMark,
    after: ClockMark,
    load_factor: f64,
    occupancy: f64,
    window_walls: Vec<f64>,
    recorder: Recorder,
    failed: u64,
    attempted: u64,
}

fn replay(spec: &Spec, timer_ns: f64, origin: Instant, init: &mut Initiator) -> Raw {
    let ops = spec.ops;
    let src = spec.window;
    let n = ops.len() as f64;
    let slice = spec.seconds / 8.0;
    let per_get = |walls: &[f64]| median(&mut walls.to_vec()) / n * 1e9;
    let strided = strided_type();
    let layout = strided.flatten();
    let strided_ops = ops.iter().filter(|o| o.strided).count();
    let max_len = ops.iter().map(|o| o.len).max().unwrap_or(0);
    let mut dst = vec![0u8; max_len];
    let mut rec = Recorder::with_origin(origin, 2 * ops.len() + 4096);
    let root = rec.open(NO_PARENT, 0, layer("trace"));
    let (mut failed, mut attempted) = (0u64, 0u64);

    // What a miss "fetches" on the rungs below the simulator: the same
    // bytes, copied (or packed) from the local oracle.
    let local_fetch = |op: &GetOp, dst: &mut [u8]| {
        if op.strided {
            pack(
                &src[op.disp..op.disp + layout.span()],
                &layout,
                &mut dst[..op.len],
            );
        } else {
            dst[..op.len].copy_from_slice(&src[op.disp..op.disp + op.len]);
        }
    };

    let host = rung(&mut rec, root, "host", slice, || {
        for op in ops {
            local_fetch(op, &mut dst);
            black_box(&mut dst);
        }
    });

    let (mut flatten_ns, mut pack_ns) = (None, None);
    if strided_ops > 0 {
        let per_call = |walls: &[f64]| median(&mut walls.to_vec()) / strided_ops as f64 * 1e9;
        let walls = rung(&mut rec, root, "datatype", slice / 2.0, || {
            for _ in 0..strided_ops {
                black_box(black_box(&strided).flatten_n(1));
            }
        });
        flatten_ns = Some(per_call(&walls));
        let walls = rung(&mut rec, root, "datatype", slice / 2.0, || {
            for op in ops.iter().filter(|o| o.strided) {
                local_fetch(op, &mut dst);
                black_box(&mut dst);
            }
        });
        pack_ns = Some(per_call(&walls));
    }

    let rma = rung(&mut rec, root, "rma", slice, || {
        let pass = init.uncached_pass(ops);
        failed += pass.failed;
        attempted += ops.len() as u64;
    });

    // Puts of the same sizes onto the same bytes (the window keeps its
    // contents), each completed by a flush.
    let puts: Vec<&GetOp> = ops.iter().filter(|o| !o.strided).take(1 << 14).collect();
    let put_walls = rung(&mut rec, root, "rma", slice / 2.0, || {
        for op in &puts {
            let dtype = Datatype::bytes(op.len);
            let data = &src[op.disp..op.disp + op.len];
            let win = init.win.inner_mut();
            win.put(init.p, data, TARGET, op.disp, &dtype, 1);
            win.flush(init.p, TARGET);
        }
    });
    let put_ns = median(&mut put_walls.clone()) / puts.len().max(1) as f64 * 1e9;

    let top_pass = |init: &mut Initiator, trace: Option<&mut NbTrace>| {
        if spec.cold_passes {
            init.win.invalidate(init.p);
        }
        match (spec.nb_batch, trace) {
            (Some(b), trace) => init.nb_pass(ops, b, trace),
            (None, Some(trace)) => init.traced_pass(ops, trace.origin, &mut trace.gets),
            (None, None) => init.cached_pass(ops),
        }
    };
    failed += top_pass(init, None).failed; // warm
    attempted += ops.len() as u64;

    // The traced repetition: the same pass with a span around every call.
    // It runs straight after the warm-up — fixed work from a fixed state — so
    // that the counters read around it repeat exactly.
    let stats0 = init.stats();
    let before = init.mark();
    let traced_root = rec.open(root, 0, layer("trace"));
    let mut trace = NbTrace {
        origin: rec.origin(),
        gets: Vec::with_capacity(ops.len()),
        flushes: Vec::with_capacity(ops.len()),
    };
    let traced = top_pass(init, Some(&mut trace));
    rec.close(traced_root);
    failed += traced.failed;
    attempted += ops.len() as u64;
    let after = init.mark();
    let stats = init.stats().delta_since(&stats0);
    for (i, s) in trace.gets.iter().enumerate() {
        rec.push(traced_root, i as u32, layer("window"), s.start_ns, s.end_ns);
    }
    for (i, &(start, end)) in trace.flushes.iter().enumerate() {
        rec.push(traced_root, i as u32, layer("window"), start, end);
    }
    let (load_factor, occupancy) = crate::counters::fill_of(init.win.cache());

    let window_walls = rung(&mut rec, root, "window", slice * 2.0, || {
        failed += top_pass(init, None).failed;
        attempted += ops.len() as u64;
    });

    // The rungs beneath the window use the parameters the window ended up
    // with: the configured ones, unless the adaptive controller resized.
    let params = init
        .win
        .cache()
        .map_or_else(|| spec.cfg.params.clone(), |c| c.params().clone());
    let mut index = CuckooIndex::new(params.index_entries, params.max_insert_iters, params.seed);
    let mut distinct: Vec<usize> = ops.iter().map(|o| o.disp).collect();
    distinct.sort_unstable();
    distinct.dedup();
    for (i, &disp) in distinct.iter().enumerate() {
        // A full index leaves some keys homeless; their lookups then miss,
        // as they would in the cache.
        let _ = index.insert(
            GetKey {
                target: TARGET as u32,
                disp: disp as u64,
            },
            i as u32,
        );
    }
    let index_walls = rung(&mut rec, root, "index", slice / 2.0, || {
        for op in ops {
            black_box(index.lookup(black_box(&key_of(op))));
        }
    });

    let mut engine_params = params.clone();
    engine_params.costs = CacheCostModel::free();
    let mut engine = RmaCache::new(engine_params);
    let mut miss_sizes: Vec<usize> = Vec::new();
    let mut engine_pass = |miss_sizes: &mut Vec<usize>| {
        miss_sizes.clear();
        if spec.cold_passes {
            engine.invalidate();
        }
        for op in ops {
            let sig = if op.strided {
                LayoutSig::from_layout(&layout)
            } else {
                LayoutSig::Contig(op.len)
            };
            let out = &mut dst[..op.len];
            match engine.process_lookup(key_of(op), &sig, out) {
                Lookup::Hit => {}
                Lookup::Miss => {
                    local_fetch(op, out);
                    engine.finish_miss(key_of(op), sig, out, 0);
                    engine.epoch_close();
                    miss_sizes.push(op.len);
                }
                Lookup::PartialHit { .. } => {
                    local_fetch(op, out);
                    engine.finish_partial(key_of(op), sig, out, 0);
                    engine.epoch_close();
                    miss_sizes.push(op.len);
                }
            }
            black_box(&mut dst);
        }
    };
    engine_pass(&mut miss_sizes); // warm: first-touch misses are set-up, not steady state
    let engine_walls = rung(&mut rec, root, "cache", slice, || {
        engine_pass(&mut miss_sizes)
    });
    let miss_share = miss_sizes.len() as f64 / n;

    let mut storage_ns = None;
    if !miss_sizes.is_empty() {
        let mut storage = Storage::new(params.storage_bytes);
        let mut live = VecDeque::new();
        let mut calls = 0u64;
        let walls = rung(&mut rec, root, "storage", slice / 2.0, || {
            calls = 0;
            for (i, &size) in miss_sizes.iter().enumerate() {
                loop {
                    calls += 1;
                    if let Some(desc) = storage.alloc(size, i as u32) {
                        live.push_back(desc);
                        break;
                    }
                    match live.pop_front() {
                        Some(oldest) => storage.free(oldest),
                        None => break, // larger than the whole buffer
                    }
                }
            }
        });
        storage_ns = Some(median(&mut walls.clone()) / calls.max(1) as f64 * 1e9);
    }

    // lock_all / unlock_all on the plain window, outside the session's epoch.
    init.win.unlock_all(init.p);
    let mut lock_ns: Vec<f64> = (0..1000)
        .map(|_| {
            let win = init.win.inner_mut();
            let t = Instant::now();
            win.lock_all(init.p);
            let ns = t.elapsed().as_nanos() as f64 - timer_ns;
            win.unlock_all(init.p);
            ns.max(0.0)
        })
        .collect();
    init.win.lock_all(init.p);
    rec.close(root);

    Raw {
        rungs: Rungs {
            host_memcpy: per_get(&host),
            rma_get: per_get(&rma),
            index_lookup: per_get(&index_walls),
            engine: per_get(&engine_walls),
            window: per_get(&window_walls),
            miss_share,
        },
        flatten_ns,
        pack_ns,
        put_ns,
        lock_all_ns: median(&mut lock_ns),
        storage_ns,
        traced_wall_s: traced.wall_s,
        samples: trace.gets,
        flushes: trace.flushes,
        stats,
        before,
        after,
        load_factor,
        occupancy,
        window_walls,
        recorder: rec,
        failed,
        attempted,
    }
}

/// Sets the `window.*` per-call metrics from the traced pass's samples,
/// with the timer cost subtracted from every span.
fn summarize_calls(m: &mut Metrics, samples: &[CallSample], timer_ns: f64) {
    let net = |s: &CallSample| ((s.end_ns - s.start_ns) as f64 - timer_ns).max(0.0);
    let mean_of = |pick: &dyn Fn(&CallSample) -> bool| {
        let (sum, count) = samples
            .iter()
            .filter(|s| pick(s))
            .fold((0.0, 0u64), |(sum, count), s| (sum + net(s), count + 1));
        (count > 0).then(|| sum / count as f64)
    };
    if let Some(mean) = mean_of(&|_| true) {
        m.set("window.get_wall_ns", mean);
    }
    let mut sorted: Vec<u64> = samples.iter().map(|s| s.end_ns - s.start_ns).collect();
    sorted.sort_unstable();
    m.set("window.get_samples", sorted.len() as f64);
    // Quote the 99th percentile only when ten samples lie beyond it;
    // otherwise the highest percentile the sample supports.
    if let Some(top) = highest_percentile(sorted.len()) {
        m.set(
            "window.get_wall_ns_p50",
            (percentile(&sorted, 50.0) - timer_ns).max(0.0),
        );
        m.set(
            "window.get_wall_ns_p99",
            (percentile(&sorted, top.min(99.0)) - timer_ns).max(0.0),
        );
    }
    for class in AccessType::ALL {
        let name = format!("window.get_wall_ns_{}", class.label());
        if let (true, Some(mean)) = (m.has(&name), mean_of(&|s| s.class == Some(class))) {
            m.set(&name, mean);
        }
    }
    let hit = |s: &CallSample| s.class == Some(AccessType::Hit);
    if let Some(mean) = mean_of(&|s| hit(s) && !s.strided) {
        m.set("window.hit_contig_wall_ns", mean);
    }
    if let Some(mean) = mean_of(&|s| hit(s) && s.strided) {
        m.set("window.hit_strided_wall_ns", mean);
    }
}

/// Host nanoseconds of one two-rank `Process::barrier` (median of `n`).
pub fn barrier_wall_ns(n: usize, timer_ns: f64) -> f64 {
    let out = run_collect(SimConfig::bench(), RANKS, |p| {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                p.barrier();
                (t.elapsed().as_nanos() as f64 - timer_ns).max(0.0)
            })
            .collect::<Vec<f64>>()
    });
    let mut all: Vec<f64> = out.into_iter().flat_map(|(_, v)| v).collect();
    median(&mut all)
}

/// Runs the ladder, sets every metric it measures and appends its spans to
/// `rec`.
pub fn run(spec: &Spec, m: &mut Metrics, rec: &mut Recorder) -> Outcome {
    let timer_ns = crate::host::timer_ns();
    let origin = rec.origin();
    let (raw, _) = session(spec.window, spec.cfg, |init| {
        replay(spec, timer_ns, origin, init)
    });
    let r = raw.rungs;
    m.set("host.timer_ns", timer_ns);
    m.set("host.memcpy_ns_per_get", r.host_memcpy);
    if let (Some(f), Some(p)) = (raw.flatten_ns, raw.pack_ns) {
        m.set("datatype.flatten_ns_per_call", f);
        m.set("datatype.pack_ns_per_call", p);
    }
    m.set("rma.get_wall_ns", r.rma_get);
    m.set("rma.put_wall_ns", raw.put_ns);
    m.set("rma.lock_all_wall_ns", raw.lock_all_ns);
    m.set("rma.barrier_wall_ns", barrier_wall_ns(2000, timer_ns));
    m.set("index.lookup_wall_ns", r.index_lookup);
    m.set("index.load_factor", raw.load_factor);
    if let Some(ns) = raw.storage_ns {
        m.set("storage.alloc_free_wall_ns", ns);
    }
    m.set("storage.occupancy", raw.occupancy);
    m.set("cache.engine_wall_ns_per_get", r.engine);
    m.set("window.self_wall_ns", r.window_self());
    m.set("window.overhead_x", r.window / r.rma_get);
    crate::counters::emit_cache(m, &raw.stats);
    crate::counters::emit_clock(
        m,
        &raw.before,
        &raw.after,
        spec.ops.len() as u64,
        &raw.stats,
    );
    summarize_calls(m, &raw.samples, timer_ns);
    if spec.nb_batch.is_some() {
        if let Some(mean) = m.get("window.get_wall_ns") {
            m.set("window.get_nb_wall_ns", mean);
        }
        let flush_ns: Vec<f64> = raw
            .flushes
            .iter()
            .map(|&(s, e)| ((e - s) as f64 - timer_ns).max(0.0))
            .collect();
        if !flush_ns.is_empty() {
            m.set(
                "window.flush_batch_wall_ns",
                flush_ns.iter().sum::<f64>() / flush_ns.len() as f64,
            );
        }
    }
    // Model versus metal: what the virtual clock charges for a hit and for
    // an index lookup, over what the host took for them.
    let hits: Vec<f64> = raw
        .samples
        .iter()
        .filter(|s| s.class == Some(AccessType::Hit))
        .map(|s| s.virt_ns)
        .collect();
    if let (false, Some(wall)) = (hits.is_empty(), m.get("window.get_wall_ns_hit")) {
        if wall > 0.0 {
            m.set(
                "model.hit_ratio_x",
                hits.iter().sum::<f64>() / hits.len() as f64 / wall,
            );
        }
    }
    if r.index_lookup > 0.0 {
        m.set(
            "model.lookup_ratio_x",
            spec.cfg.params.costs.lookup_ns / r.index_lookup,
        );
    }
    let untraced = median(&mut raw.window_walls.clone());
    m.set("trace.overhead_x", raw.traced_wall_s / untraced);
    rec.absorb(raw.recorder, NO_PARENT);
    m.set("trace.spans", rec.spans().len() as f64);
    m.set("host.parallelism", crate::host::parallelism() as f64);
    m.set(
        "host.rep_spread",
        crate::stats::rep_spread(&raw.window_walls),
    );
    let rungs = vec![
        ("host".to_string(), r.host_memcpy),
        ("rma".to_string(), r.rma_get),
        ("index".to_string(), r.index_lookup),
        ("cache".to_string(), r.engine),
        ("window".to_string(), r.window),
        ("window_self".to_string(), r.window_self()),
        ("cache_self".to_string(), r.engine_self()),
        ("miss_share".to_string(), r.miss_share),
    ];
    Outcome {
        attempted: raw.attempted,
        failed: raw.failed,
        rungs,
        window_walls: raw.window_walls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::PER_LAYER;
    use clampi::{CacheParams, Mode};

    #[test]
    fn ladder_subtraction_weights_the_rma_rung_by_the_miss_share() {
        let r = Rungs {
            host_memcpy: 10.0,
            rma_get: 100.0,
            index_lookup: 15.0,
            engine: 60.0,
            window: 200.0,
            miss_share: 0.25,
        };
        assert_eq!(r.window_self(), 200.0 - 60.0 - 25.0);
        assert_eq!(r.engine_self(), 60.0 - 15.0 - 10.0);
        let all_hits = Rungs {
            miss_share: 0.0,
            ..r
        };
        assert_eq!(all_hits.window_self(), 140.0);
    }

    fn small_spec_run(nb_batch: Option<usize>) -> (Metrics, Outcome) {
        let mut window = vec![0u8; 256 << 10];
        crate::host::fill_pattern(&mut window, 9);
        let ops: Vec<GetOp> = (0..2000usize)
            .map(|i| GetOp {
                disp: (i * 37 % 400) * 512,
                len: 256,
                strided: nb_batch.is_none() && i % 4 == 3,
            })
            .collect();
        let params = CacheParams {
            index_entries: 256,
            storage_bytes: 32 << 10,
            ..CacheParams::default()
        };
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, params);
        let mut m = Metrics::new(&PER_LAYER);
        let mut rec = Recorder::new(0);
        let out = run(
            &Spec {
                ops: &ops,
                window: &window,
                cfg: &cfg,
                nb_batch,
                cold_passes: false,
                seconds: 0.05,
            },
            &mut m,
            &mut rec,
        );
        assert_eq!(rec.spans()[0].parent, NO_PARENT);
        assert_eq!(m.get("trace.spans"), Some(rec.spans().len() as f64));
        (m, out)
    }

    #[test]
    fn a_small_blocking_ladder_measures_every_rung() {
        let (m, out) = small_spec_run(None);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 2000 * 5);
        for name in [
            "host.memcpy_ns_per_get",
            "datatype.flatten_ns_per_call",
            "rma.get_wall_ns",
            "rma.put_wall_ns",
            "rma.barrier_wall_ns",
            "index.lookup_wall_ns",
            "storage.alloc_free_wall_ns",
            "cache.engine_wall_ns_per_get",
            "window.get_wall_ns",
            "window.get_wall_ns_p99",
            "window.overhead_x",
            "trace.overhead_x",
        ] {
            assert!(m.get(name).is_some_and(|v| v > 0.0), "{name} not measured");
        }
        // 400 distinct 256 B gets cannot fit 32 KiB: the pressure is real.
        assert!(m.get("cache.hit_ratio").expect("hit ratio") < 0.9);
        assert!(m.get("cache.evictions").expect("evictions") > 0.0);
        assert_eq!(m.get("window.get_samples"), Some(2000.0));
        assert_eq!(m.get("window.get_nb_wall_ns"), None);
    }

    #[test]
    fn a_nonblocking_ladder_reports_get_nb_and_flush_costs() {
        let (m, out) = small_spec_run(Some(8));
        assert_eq!(out.failed, 0);
        assert!(m.get("window.get_nb_wall_ns").is_some());
        assert!(m.get("window.flush_batch_wall_ns").is_some());
        assert_eq!(m.get("datatype.flatten_ns_per_call"), None);
    }
}
