//! Capture a real application's get stream, then tune the cache offline.
//!
//! Runs one uncached Barnes-Hut force phase with get tracing, converts the
//! trace of rank 0 into a [`clampi::Trace`], saves/reloads it through the
//! binary format, and replays it across a small parameter grid — finding
//! the best cache configuration for this exact workload in milliseconds,
//! without re-running the application.
//!
//! Run with: `cargo run --release --example trace_capture`

use clampi_repro::clampi::trace::{replay, Trace};
use clampi_repro::clampi::{CacheParams, VictimScheme};
use clampi_repro::clampi_apps::{barnes_hut, force_phase, Backend, BhConfig};
use clampi_repro::clampi_rma::{run_collect, SimConfig};
use clampi_repro::clampi_workloads::plummer;

fn main() {
    // 1. Capture: one traced, uncached force phase.
    let bodies = plummer(2000, 3);
    let mut cfg = BhConfig::with_backend(Backend::Fompi);
    cfg.trace_gets = true;
    let nranks = 4;
    let sim = SimConfig::bench();
    let out = run_collect(sim.clone(), nranks, |p| force_phase(p, &bodies, &cfg));

    // 2. Convert rank 0's fetch log into a Trace. Every fetch in the
    //    traversal is consumed immediately, so each get closes an epoch.
    let mut trace = Trace::new();
    for &(target, node) in &out[0].1.trace {
        let disp = barnes_hut::node_disp(node, nranks) as u64;
        trace.get(target as u32, disp, barnes_hut::NODE_BYTES as u32);
        trace.epoch_close();
    }
    println!(
        "captured {} remote gets from rank 0 of a {}-body Barnes-Hut force phase",
        trace.num_gets(),
        bodies.len()
    );

    // 3. Round-trip through the on-disk format (as a tuning service would).
    let path = std::env::temp_dir().join("bh_rank0.clampitrace");
    trace.save(&path).expect("save trace");
    let trace = Trace::load(&path).expect("load trace");
    std::fs::remove_file(&path).ok();

    // 4. Replay across a parameter grid, misses priced by the captured
    //    run's network model.
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>14}",
        "iw", "sw_kib", "scheme", "hit_ratio", "completion_ms"
    );
    let mut best: Option<(f64, String)> = None;
    for iw in [256usize, 4096, 65536] {
        for sw_kib in [64usize, 512, 4096] {
            for scheme in [VictimScheme::Full, VictimScheme::Temporal] {
                let r = replay(
                    &trace,
                    CacheParams {
                        index_entries: iw,
                        storage_bytes: sw_kib << 10,
                        victim_scheme: scheme,
                        ..CacheParams::default()
                    },
                    &sim.netmodel,
                );
                let label = format!("iw={iw} sw={sw_kib}KiB {}", scheme.label());
                println!(
                    "{:>10} {:>10} {:>12} {:>10.3} {:>14.3}",
                    iw,
                    sw_kib,
                    scheme.label(),
                    r.stats.hit_ratio(),
                    r.completion_ns / 1e6
                );
                if best.as_ref().is_none_or(|(t, _)| r.completion_ns < *t) {
                    best = Some((r.completion_ns, label));
                }
            }
        }
    }
    let (t, label) = best.unwrap();
    println!(
        "\nbest configuration for this workload: {label} ({:.3} ms)",
        t / 1e6
    );
}
