//! Fault-recovery sweep: hit rate and virtual-time degradation under
//! injected RMA faults (beyond the paper — exercises the recovery layer
//! added on top of the reproduction).
//!
//! Two experiments, both on an always-cache window with a Zipf-skewed
//! get stream from rank 0 against 3 remote targets:
//!
//! 1. **Transient sweep**: fault rates 0 … 10 %. Reports per rate the
//!    hit rate, retries, timeouts, failed gets, and the elapsed virtual
//!    time relative to the fault-free baseline. The expectation — and the
//!    acceptance criterion of the fault subsystem — is *graceful*
//!    degradation: time grows smoothly with the rate, no panics, no
//!    deadlocks, hit rate essentially unchanged (retries recover
//!    transients; the cache itself is untouched by them).
//! 2. **Rank failure**: target 1 dies halfway through the baseline's
//!    virtual runtime. Reports degraded gets, entries invalidated on
//!    failure, and the surviving hit rate on the healthy targets.
//!
//! `--json <path>` additionally writes the whole report as JSON (used by
//! CI's bench-smoke stage for `results/BENCH_smoke.json`). Honours
//! `CLAMPI_BENCH_SMOKE=1` by shrinking the get count.

use clampi::{CacheParams, CachedWindow, ClampiConfig, Mode, RetryPolicy};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_datatype::Datatype;
use clampi_rma::{run_collect, FaultConfig, SimConfig};
use clampi_workloads::Zipf;

const GET_BYTES: usize = 256;
const WIN_BYTES: usize = 1 << 16;
const RANKS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct SweepPoint {
    rate: f64,
    hit_rate: f64,
    retries: u64,
    timeouts: u64,
    failed: u64,
    degraded_gets: u64,
    invalidations_on_failure: u64,
    elapsed_ns: f64,
    slowdown: f64,
}

/// Runs the Zipf get stream under `faults`; returns rank 0's merged
/// stats and elapsed virtual time.
fn run_one(
    faults: Option<FaultConfig>,
    gets: usize,
    flush_every: usize,
    seed: u64,
) -> (clampi::CacheStats, f64) {
    let mut sim = SimConfig::bench();
    if let Some(f) = faults {
        sim = sim.with_faults(f);
    }
    let out = run_collect(sim, RANKS, |p| {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default())
            .with_retry(RetryPolicy::default());
        let mut win = CachedWindow::create(p, WIN_BYTES, cfg);
        {
            let mut m = win.local_mut();
            let r = p.rank() as u8;
            for (d, b) in m.iter_mut().enumerate() {
                *b = r.wrapping_mul(37).wrapping_add(d as u8);
            }
        }
        p.barrier();
        if p.rank() == 0 {
            let slots = WIN_BYTES / GET_BYTES;
            let mut zipf = Zipf::new(slots * (RANKS - 1), 0.99, seed);
            win.lock_all(p);
            let mut buf = [0u8; GET_BYTES];
            for i in 0..gets {
                let pick = zipf.sample();
                let target = 1 + pick / slots;
                let disp = (pick % slots) * GET_BYTES;
                let _ = win.get(p, &mut buf, target, disp, &Datatype::bytes(GET_BYTES), 1);
                if (i + 1) % flush_every == 0 {
                    win.flush_all(p);
                }
            }
            win.flush_all(p);
            win.unlock_all(p);
        }
        p.barrier();
        win.stats()
    });
    (out[0].1, out[0].0.elapsed_ns)
}

fn json_escape_free_number(x: f64) -> String {
    // JSON has no Infinity/NaN; the sweep never produces them, but keep
    // the writer total.
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn write_json(
    path: &str,
    gets: usize,
    seed: u64,
    sweep: &[SweepPoint],
    rank_fail: &SweepPoint,
) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut points = Vec::new();
    for p in sweep.iter().chain(std::iter::once(rank_fail)) {
        points.push(format!(
            concat!(
                "    {{\"rate\": {}, \"hit_rate\": {:.6}, \"retries\": {}, ",
                "\"timeouts\": {}, \"failed\": {}, \"degraded_gets\": {}, ",
                "\"invalidations_on_failure\": {}, \"elapsed_ns\": {}, ",
                "\"slowdown\": {:.6}}}"
            ),
            json_escape_free_number(p.rate),
            p.hit_rate,
            p.retries,
            p.timeouts,
            p.failed,
            p.degraded_gets,
            p.invalidations_on_failure,
            json_escape_free_number(p.elapsed_ns),
            p.slowdown,
        ));
    }
    let (sweep_json, rank_fail_json) = points.split_at(sweep.len());
    let body = format!(
        "{{\n  \"bench\": \"fig_fault_recovery\",\n  \"smoke\": {},\n  \
         \"gets\": {gets},\n  \"seed\": {seed},\n  \"transient_sweep\": [\n{}\n  ],\n  \
         \"rank_failure\": \n{}\n}}\n",
        smoke_mode(),
        sweep_json.join(",\n"),
        rank_fail_json[0].trim_start_matches(' '),
    );
    std::fs::write(path, body)
}

fn main() {
    let args = Args::parse();
    let default_gets = if smoke_mode() { 2_000 } else { 20_000 };
    let gets: usize = args.get("gets", default_gets);
    let flush_every: usize = args.get("flush-every", 64);
    let seed = args.seed();
    let json_path: String = args.get("json", String::new());

    meta(&format!(
        "fault-recovery sweep: {gets} Zipf(0.99) gets of {GET_BYTES} B from rank 0, \
         {RANKS} ranks, always-cache, seed {seed}{}",
        if smoke_mode() { " [smoke]" } else { "" }
    ));
    meta("graceful degradation expected: no panic, smooth slowdown, bounded failed gets");
    meta("failed = gets that were not served from or installed in the cache: engine could-not-cache (stats.failed) + fault zero-filled (stats.faulted)");
    row(&[
        "fault_rate",
        "hit_rate",
        "retries",
        "timeouts",
        "failed",
        "degraded_gets",
        "inval_on_failure",
        "elapsed_ns",
        "slowdown",
    ]);

    let rates = [0.0, 0.01, 0.02, 0.05, 0.10];
    let mut baseline_ns = 0.0;
    let mut sweep = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let faults = (rate > 0.0).then(|| FaultConfig::transient(rate, seed ^ 0xFA_17));
        let (stats, elapsed) = run_one(faults, gets, flush_every, seed);
        if i == 0 {
            baseline_ns = elapsed;
        }
        let point = SweepPoint {
            rate,
            hit_rate: stats.hit_ratio(),
            retries: stats.retries,
            timeouts: stats.timeouts,
            failed: stats.failed + stats.faulted,
            degraded_gets: stats.degraded_gets,
            invalidations_on_failure: stats.invalidations_on_failure,
            elapsed_ns: elapsed,
            slowdown: if baseline_ns > 0.0 {
                elapsed / baseline_ns
            } else {
                1.0
            },
        };
        row(&[
            format!("{rate}"),
            format!("{:.4}", point.hit_rate),
            point.retries.to_string(),
            point.timeouts.to_string(),
            point.failed.to_string(),
            point.degraded_gets.to_string(),
            point.invalidations_on_failure.to_string(),
            format!("{:.0}", point.elapsed_ns),
            format!("{:.3}", point.slowdown),
        ]);
        assert!(
            point.elapsed_ns.is_finite() && point.elapsed_ns > 0.0,
            "degradation must stay graceful (finite, positive runtime) at rate {rate}"
        );
        sweep.push(point);
    }

    // Rank-failure scenario: target 1 dies halfway through the baseline.
    let faults =
        FaultConfig::transient(0.01, seed ^ 0xFA_17).with_rank_failure(1, baseline_ns * 0.5);
    let (stats, elapsed) = run_one(Some(faults), gets, flush_every, seed);
    let rank_fail = SweepPoint {
        rate: 0.01,
        hit_rate: stats.hit_ratio(),
        retries: stats.retries,
        timeouts: stats.timeouts,
        failed: stats.failed + stats.faulted,
        degraded_gets: stats.degraded_gets,
        invalidations_on_failure: stats.invalidations_on_failure,
        elapsed_ns: elapsed,
        slowdown: if baseline_ns > 0.0 {
            elapsed / baseline_ns
        } else {
            1.0
        },
    };
    meta(&format!(
        "rank-failure scenario: target 1 dies at {:.0} ns (baseline/2), 1% transients",
        baseline_ns * 0.5
    ));
    row(&[
        "rank_failure".to_string(),
        format!("{:.4}", rank_fail.hit_rate),
        rank_fail.retries.to_string(),
        rank_fail.timeouts.to_string(),
        rank_fail.failed.to_string(),
        rank_fail.degraded_gets.to_string(),
        rank_fail.invalidations_on_failure.to_string(),
        format!("{:.0}", rank_fail.elapsed_ns),
        format!("{:.3}", rank_fail.slowdown),
    ]);
    assert!(
        rank_fail.degraded_gets > 0,
        "a target dying mid-run must produce degraded gets"
    );

    if !json_path.is_empty() {
        write_json(&json_path, gets, seed, &sweep, &rank_fail).expect("write json report");
        meta(&format!("json report written to {json_path}"));
    }
    clampi_bench::cli::san_summary();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_produces_parsable_shape() {
        let p = SweepPoint {
            rate: 0.05,
            hit_rate: 0.9,
            retries: 3,
            timeouts: 0,
            failed: 1,
            degraded_gets: 0,
            invalidations_on_failure: 0,
            elapsed_ns: 1234.0,
            slowdown: 1.1,
        };
        let dir = std::env::temp_dir().join("clampi_fig_fault_recovery_test");
        let path = dir.join("out.json");
        write_json(path.to_str().unwrap(), 10, 42, &[p], &p).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"transient_sweep\""));
        assert!(s.contains("\"rank_failure\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        std::fs::remove_dir_all(&dir).ok();
    }
}
