//! Fig. 14 — Barnes-Hut weak scaling.
//!
//! 1.5K bodies per processing element, P from 16 to 128 in the paper
//! (scaled down by default here); `|S_w| = 2 MB`, `|I_w| = 30K` as the
//! fixed parameters and the adaptive strategy's starting point. Both
//! CLaMPI strategies outperform native (~3×) and foMPI (~5×).
//!
//! Under `CLAMPI_BENCH_SMOKE` only the two smallest rank counts run, with
//! 300 bodies per PE by default.

use clampi::{BlockCacheConfig, CacheParams, ClampiConfig, Mode};
use clampi_apps::{force_phase, Backend, BhConfig, BhResult};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_rma::{run_collect, SimConfig};
use clampi_workloads::plummer;

fn run(bodies: &[clampi_workloads::Body], nranks: usize, backend: Backend) -> Vec<BhResult> {
    let cfg = BhConfig::with_backend(backend);
    run_collect(SimConfig::bench(), nranks, |p| force_phase(p, bodies, &cfg))
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

fn tpb(results: &[BhResult]) -> f64 {
    results
        .iter()
        .map(|r| r.time_per_body_us())
        .fold(0.0, f64::max)
}

fn main() {
    let args = Args::parse();
    let paper = args.paper_scale();
    let smoke = smoke_mode();
    let per_pe: usize = args.get("bodies-per-pe", if smoke { 300 } else { 1500 });
    let seed = args.seed();
    let mut ranks: Vec<usize> = if paper {
        vec![16, 32, 64, 128]
    } else {
        vec![4, 8, 16, 32]
    };
    if smoke {
        ranks.truncate(2);
    }

    let params = CacheParams {
        index_entries: 30_000,
        storage_bytes: 2 << 20,
        ..CacheParams::default()
    };

    meta(&format!(
        "Fig. 14: BH weak scaling, {per_pe} bodies/PE, |Sw|=2 MiB, |Iw|=30K (seed {seed})"
    ));
    row(&[
        "ranks",
        "bodies",
        "foMPI_us_per_body",
        "native_us_per_body",
        "fixed_us_per_body",
        "adaptive_us_per_body",
        "adaptive_adjustments",
        "speedup_vs_foMPI",
    ]);

    for &p in &ranks {
        let bodies = plummer(per_pe * p, seed);
        let fompi = tpb(&run(&bodies, p, Backend::Fompi));
        let native = tpb(&run(
            &bodies,
            p,
            Backend::Native(BlockCacheConfig {
                memory_bytes: 2 << 20,
                ..BlockCacheConfig::default()
            }),
        ));
        let fixed = tpb(&run(
            &bodies,
            p,
            Backend::Clampi(ClampiConfig::fixed(Mode::UserDefined, params.clone())),
        ));
        let adaptive_r = run(
            &bodies,
            p,
            Backend::Clampi(ClampiConfig::adaptive(Mode::UserDefined, params.clone())),
        );
        let adaptive = tpb(&adaptive_r);
        let adj: u64 = adaptive_r
            .iter()
            .filter_map(|r| r.clampi_stats.map(|s| s.adjustments))
            .max()
            .unwrap_or(0);
        row(&[
            p.to_string(),
            bodies.len().to_string(),
            format!("{:.2}", fompi),
            format!("{:.2}", native),
            format!("{:.2}", fixed),
            format!("{:.2}", adaptive),
            adj.to_string(),
            format!("{:.2}", fompi / adaptive.max(1e-9)),
        ]);
    }
}
