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
//! Honours `CLAMPI_BENCH_SMOKE=1` by shrinking the get count.

use clampi::{CacheParams, CacheStats, CachedWindow, ClampiConfig, Mode, RetryPolicy};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_datatype::Datatype;
use clampi_rma::{run_collect, FaultConfig, SimConfig};
use clampi_workloads::Zipf;

const GET_BYTES: usize = 256;
const WIN_BYTES: usize = 1 << 16;
const RANKS: usize = 4;

/// Runs the Zipf get stream under `faults`; returns rank 0's merged
/// stats and elapsed virtual time.
fn run_one(
    faults: Option<FaultConfig>,
    gets: usize,
    flush_every: usize,
    seed: u64,
) -> (CacheStats, f64) {
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

/// Prints one table row: `label`, rank 0's fault and cache counters, and
/// its elapsed virtual time relative to the fault-free `baseline_ns`.
fn print_row(label: String, stats: &CacheStats, elapsed_ns: f64, baseline_ns: f64) {
    let slowdown = if baseline_ns > 0.0 {
        elapsed_ns / baseline_ns
    } else {
        1.0
    };
    row(&[
        label,
        format!("{:.4}", stats.hit_ratio()),
        stats.retries.to_string(),
        stats.timeouts.to_string(),
        (stats.failed + stats.faulted).to_string(),
        stats.degraded_gets.to_string(),
        stats.invalidations_on_failure.to_string(),
        format!("{elapsed_ns:.0}"),
        format!("{slowdown:.3}"),
    ]);
}

fn main() {
    let args = Args::parse();
    let default_gets = if smoke_mode() { 2_000 } else { 20_000 };
    let gets: usize = args.get("gets", default_gets);
    let flush_every: usize = args.get("flush-every", 64);
    let seed = args.seed();

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
    for (i, &rate) in rates.iter().enumerate() {
        let faults = (rate > 0.0).then(|| FaultConfig::transient(rate, seed ^ 0xFA_17));
        let (stats, elapsed) = run_one(faults, gets, flush_every, seed);
        if i == 0 {
            baseline_ns = elapsed;
        }
        print_row(format!("{rate}"), &stats, elapsed, baseline_ns);
        assert!(
            elapsed.is_finite() && elapsed > 0.0,
            "degradation must stay graceful (finite, positive runtime) at rate {rate}"
        );
    }

    // Rank-failure scenario: target 1 dies halfway through the baseline.
    let faults =
        FaultConfig::transient(0.01, seed ^ 0xFA_17).with_rank_failure(1, baseline_ns * 0.5);
    let (stats, elapsed) = run_one(Some(faults), gets, flush_every, seed);
    meta(&format!(
        "rank-failure scenario: target 1 dies at {:.0} ns (baseline/2), 1% transients",
        baseline_ns * 0.5
    ));
    print_row("rank_failure".to_string(), &stats, elapsed, baseline_ns);
    assert!(
        stats.degraded_gets > 0,
        "a target dying mid-run must produce degraded gets"
    );
    clampi_bench::cli::san_summary();
}
