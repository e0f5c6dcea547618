//! `bh_force` — the nonblocking, coalescing get pipeline under a real
//! application.
//!
//! One repetition is a whole Barnes-Hut force phase (`force_phase`) over a
//! Plummer sphere on two ranks with a fixed CLaMPI configuration in
//! `Mode::UserDefined`: every rank builds the octree, publishes its nodes,
//! and walks the tree level by level for its half of the bodies, fetching
//! remote nodes with `get_nb` and completing each level with one
//! `flush_batch`. The storage holds about two thirds of the remote nodes.
//!
//! Why it exists: `get_nb_flat` and the outstanding-miss table with compute
//! between the gets — time to solution of an application next to the
//! paper's Fig. 12/13 virtual numbers. The op unit is one body.

use clampi::{CacheParams, ClampiConfig, Mode};
use clampi_apps::barnes_hut::{node_disp, NODE_BYTES};
use clampi_apps::{force_phase, Backend, BhConfig, BhResult};
use clampi_workloads::{plummer, Body};

use super::{app, EndToEnd, Opts};
use crate::names::PER_LAYER;
use crate::report::{Metrics, Report};
use crate::spans::Recorder;
use crate::stream::{GetOp, INITIATOR, RANKS};

pub const BODIES: usize = 4000;
pub const INDEX_ENTRIES: usize = 4096;
pub const STORAGE_BYTES: usize = 256 << 10;
/// Gets per `flush_all` when the ladder replays rank 0's fetch stream
/// through `get_nb`: one node's child fan-out (the application's frontier
/// boundaries are not observable from outside).
pub const REPLAY_BATCH: usize = 8;

fn clampi_config() -> ClampiConfig {
    let params = CacheParams {
        index_entries: INDEX_ENTRIES,
        storage_bytes: STORAGE_BYTES,
        ..CacheParams::default()
    };
    ClampiConfig::fixed(Mode::UserDefined, params)
}

fn bodies(o: &Opts) -> Vec<Body> {
    plummer(o.scaled(BODIES, 200), o.seed)
}

fn rep(bodies: &[Body], cfg: &BhConfig) -> app::Rep<BhResult> {
    app::rep(|p| force_phase(p, bodies, cfg), |r| r.force_checksum)
}

fn end_to_end(o: &Opts) -> EndToEnd {
    let cached = BhConfig::with_backend(Backend::Clampi(clampi_config()));
    let uncached = BhConfig::with_backend(Backend::Fompi);
    app::end_to_end(
        o,
        || bodies(o),
        |bodies| bodies.len() as u64,
        |bodies| rep(bodies, &cached),
        |bodies| rep(bodies, &uncached),
    )
}

fn traced(o: &Opts) -> Report {
    let clampi = clampi_config();
    let cached = BhConfig::with_backend(Backend::Clampi(clampi.clone()));
    // The traced repetition: the application records every remote fetch.
    let mut tracing = cached.clone();
    tracing.trace_gets = true;
    let bodies = bodies(o);
    let mut rec = Recorder::new(0);
    let (walls, traced) = app::baseline_then_traced(
        o,
        &mut rec,
        || rep(&bodies, &cached),
        || rep(&bodies, &tracing),
    );
    let (report, result) = &traced.ranks[INITIATOR];
    let ops = result
        .trace
        .iter()
        .map(|&(_, id)| GetOp::contiguous(node_disp(id, RANKS), NODE_BYTES))
        .collect();

    let mut m = Metrics::new(&PER_LAYER);
    let n = bodies.len() as f64;
    let sum = |f: fn(&BhResult) -> u64| traced.ranks.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
    m.set("bh.nodes_visited_per_body", sum(|r| r.nodes_visited) / n);
    m.set("bh.remote_fetches_per_body", sum(|r| r.remote_fetches) / n);
    let t = app::Traced {
        workload: "bh_force",
        walls,
        traced_wall_s: traced.wall_s,
        ops,
        report: *report,
        stats: result.clampi_stats.expect("CLaMPI backend reports stats"),
        local_ops: result.local_bodies as u64,
        cfg: &clampi,
        nb_batch: Some(REPLAY_BATCH),
    };
    app::finish(o, t, m, rec)
}

pub fn run(o: &Opts) -> Report {
    if o.trace {
        traced(o)
    } else {
        end_to_end(o).into_report()
    }
}
