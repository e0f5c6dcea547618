//! Fig. 16 — LCC adaptive-strategy statistics at the smaller `|S_w|`.
//!
//! Access-type breakdown (normalized to all issued gets) of the adaptive
//! strategy started from different `(|I_w|, |S_w|)` points: it keeps the
//! hit fraction above ~60 % from every start; the differing completion
//! times are explained by the number of adjustments (each of which
//! invalidates the cache). The hit floor is asserted: above 0.60 from
//! every start.

use clampi::{AccessType, CacheParams, ClampiConfig, Mode};
use clampi_apps::{lcc_phase, Backend, LccConfig};
use clampi_bench::cli::{meta, row, Args};
use clampi_rma::{run_collect, SimConfig};
use clampi_workloads::{Csr, RmatParams};

fn main() {
    let args = Args::parse();
    let paper = args.paper_scale();
    let scale: u32 = args.get("scale", if paper { 20 } else { 15 });
    let ef: usize = args.get("edge-factor", 16);
    let nranks: usize = args.get("ranks", if paper { 32 } else { 8 });
    let seed = args.seed();

    let graph = Csr::rmat(RmatParams::graph500(scale, ef), seed);
    let sw: usize = args.get("storage-mb", if paper { 64 } else { 2 }) << 20;
    let iw_values: Vec<usize> = if paper {
        vec![64 << 10, 128 << 10, 256 << 10]
    } else {
        vec![8 << 10, 16 << 10, 32 << 10]
    };

    meta(&format!(
        "Fig. 16: LCC adaptive stats, start |Sw|={} MiB (R-MAT 2^{scale}, EF {ef}, P={nranks}, seed {seed})",
        sw >> 20
    ));
    row(&[
        "start_iw",
        "hit",
        "direct",
        "conflicting",
        "capacity",
        "failed",
        "adjustments",
        "us_per_vertex",
    ]);

    for &iw in &iw_values {
        let cfg = LccConfig::with_backend(Backend::Clampi(ClampiConfig::adaptive(
            Mode::AlwaysCache,
            CacheParams {
                index_entries: iw,
                storage_bytes: sw,
                ..CacheParams::default()
            },
        )));
        let out = run_collect(SimConfig::bench(), nranks, |p| lcc_phase(p, &graph, &cfg));
        let mut totals = [0u64; AccessType::ALL.len()];
        let mut all = 0u64;
        let mut adjustments = 0u64;
        let mut t = 0.0f64;
        for (_, r) in &out {
            if let Some(s) = r.clampi_stats {
                for (i, ty) in AccessType::ALL.iter().enumerate() {
                    totals[i] += s.count(*ty);
                }
                all += s.total_gets;
                adjustments = adjustments.max(s.adjustments);
            }
            t = t.max(r.time_per_vertex_us());
        }
        let frac = |i: usize| {
            if all == 0 {
                0.0
            } else {
                totals[i] as f64 / all as f64
            }
        };
        row(&[
            iw.to_string(),
            format!("{:.4}", frac(0)),
            format!("{:.4}", frac(1)),
            format!("{:.4}", frac(2)),
            format!("{:.4}", frac(3)),
            format!("{:.4}", frac(4)),
            adjustments.to_string(),
            format!("{t:.2}"),
        ]);
        assert!(
            frac(0) > 0.60,
            "hit ratio {:.4} from start |Iw|={iw} not above 0.60",
            frac(0)
        );
    }
}
