//! `lcc_adaptive` — large variable-size blocking gets under the adaptive
//! controller.
//!
//! One repetition is a whole Local Clustering Coefficient computation
//! (`lcc_phase`) over an R-MAT graph on two ranks in `Mode::AlwaysCache`
//! with `ClampiConfig::adaptive`: every neighbour's adjacency list that
//! lives on the other rank is fetched with one blocking get, from a few
//! bytes up to tens of KiB, and the controller resizes index and storage
//! (invalidating each time) as it learns the working set.
//!
//! Why it exists: big memcpys, storage fragmentation, resizes and the
//! invalidations they cause. The cache's hit path is a small share of the
//! time, so a hit-path gain should barely move it. The op unit is one
//! vertex.

use clampi::{CacheParams, ClampiConfig, Mode};
use clampi_apps::lcc::{vertex_owner, vertex_range};
use clampi_apps::{lcc_phase, Backend, LccConfig, LccResult};
use clampi_workloads::{Csr, RmatParams};

use super::{app, EndToEnd, Opts};
use crate::names::PER_LAYER;
use crate::report::{Metrics, Report};
use crate::spans::Recorder;
use crate::stream::{GetOp, INITIATOR, RANKS};

/// log2 of the vertex count.
pub const SCALE: u32 = 13;
pub const EDGE_FACTOR: usize = 16;
/// Where the adaptive controller starts from.
pub const START_INDEX_ENTRIES: usize = 1024;
pub const START_STORAGE_BYTES: usize = 256 << 10;

fn clampi_config() -> ClampiConfig {
    let params = CacheParams {
        index_entries: START_INDEX_ENTRIES,
        storage_bytes: START_STORAGE_BYTES,
        ..CacheParams::default()
    };
    ClampiConfig::adaptive(Mode::AlwaysCache, params)
}

fn graph(o: &Opts) -> Csr {
    let scale = if o.smoke { 8 } else { SCALE };
    Csr::rmat(RmatParams::graph500(scale, EDGE_FACTOR), o.seed)
}

fn rep(graph: &Csr, cfg: &LccConfig) -> app::Rep<LccResult> {
    app::rep(|p| lcc_phase(p, graph, cfg), |r| r.lcc_sum)
}

fn end_to_end(o: &Opts) -> EndToEnd {
    let cached = LccConfig::with_backend(Backend::Clampi(clampi_config()));
    let uncached = LccConfig::with_backend(Backend::Fompi);
    app::end_to_end(
        o,
        || graph(o),
        |graph| graph.num_vertices() as u64,
        |graph| rep(graph, &cached),
        |graph| rep(graph, &uncached),
    )
}

/// Rank 0's remote fetch stream, rebuilt from the graph with the
/// application's own partition functions: `lcc_phase` fetches `adj(u)` for
/// every neighbour `u` of every local vertex of degree ≥ 2 that another
/// rank owns, at the byte offset of `u`'s list inside its owner's window.
fn fetch_stream(graph: &Csr) -> Vec<GetOp> {
    let n = graph.num_vertices();
    let mut disp_of = vec![0usize; n];
    let mut owner_bytes = [0usize; RANKS];
    for (v, disp) in disp_of.iter_mut().enumerate() {
        let owner = vertex_owner(v, n, RANKS);
        *disp = owner_bytes[owner];
        owner_bytes[owner] += graph.degree(v) * 4;
    }
    let (lo, hi) = vertex_range(INITIATOR, n, RANKS);
    let mut ops = Vec::new();
    for v in (lo..hi).filter(|&v| graph.degree(v) >= 2) {
        for &u in graph.adj(v) {
            let u = u as usize;
            if vertex_owner(u, n, RANKS) != INITIATOR && graph.degree(u) > 0 {
                ops.push(GetOp::contiguous(disp_of[u], graph.degree(u) * 4));
            }
        }
    }
    ops
}

fn traced(o: &Opts) -> Report {
    let clampi = clampi_config();
    let cached = LccConfig::with_backend(Backend::Clampi(clampi.clone()));
    // The traced repetition: the application records every get's size.
    let mut tracing = cached.clone();
    tracing.trace_sizes = true;
    let graph = graph(o);
    let mut rec = Recorder::new(0);
    let (walls, traced) = app::baseline_then_traced(
        o,
        &mut rec,
        || rep(&graph, &cached),
        || rep(&graph, &tracing),
    );
    let (report, result) = &traced.ranks[INITIATOR];
    let ops = fetch_stream(&graph);
    let sizes: Vec<usize> = ops.iter().map(|op| op.len).collect();
    // A rebuilt stream that is not the application's would make every
    // ladder number describe something else: that is a failed run.
    let diverged = if sizes == result.trace_sizes {
        0
    } else {
        ops.len() as u64
    };

    let mut m = Metrics::new(&PER_LAYER);
    let fetches: u64 = traced.ranks.iter().map(|(_, r)| r.remote_fetches).sum();
    m.set(
        "lcc.remote_fetches_per_vertex",
        fetches as f64 / graph.num_vertices() as f64,
    );
    m.set(
        "lcc.avg_get_bytes",
        sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64,
    );
    let (index, storage) = result.clampi_params.expect("CLaMPI backend reports params");
    m.set("lcc.final_index_entries", index as f64);
    m.set("lcc.final_storage_bytes", storage as f64);
    let checked = ops.len() as u64;
    let t = app::Traced {
        workload: "lcc_adaptive",
        walls,
        traced_wall_s: traced.wall_s,
        ops,
        report: *report,
        stats: result.clampi_stats.expect("CLaMPI backend reports stats"),
        local_ops: result.local_vertices as u64,
        cfg: &clampi,
        nb_batch: None,
    };
    let report = app::finish(o, t, m, rec);
    Report {
        attempted: report.attempted + checked,
        failed: report.failed + diverged,
        ..report
    }
}

pub fn run(o: &Opts) -> Report {
    if o.trace {
        traced(o)
    } else {
        end_to_end(o).into_report()
    }
}
