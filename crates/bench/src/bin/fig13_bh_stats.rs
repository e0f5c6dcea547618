//! Fig. 13 — Barnes-Hut access-type statistics, `|S_w| = 1 MB`.
//!
//! Normalized access-type breakdown of the force phase per `|I_w|`
//! setting: the 1K-entry index is dominated by conflicting accesses
//! (explaining its poor time in Fig. 12), the 20K-entry one by hits.

use clampi::{AccessType, CacheParams, ClampiConfig, Mode};
use clampi_apps::{force_phase, Backend, BhConfig};
use clampi_bench::cli::{meta, row, Args};
use clampi_rma::{run_collect, SimConfig};
use clampi_workloads::plummer;

fn main() {
    let args = Args::parse();
    let paper = args.paper_scale();
    let nranks: usize = args.get("ranks", if paper { 16 } else { 8 });
    let nbodies: usize = args.get("bodies", if paper { 20_000 } else { 5_000 });
    let sw: usize = args.get("storage-mb", 1) << 20;
    let seed = args.seed();

    let bodies = plummer(nbodies, seed);

    meta(&format!(
        "Fig. 13: BH access-type stats, |Sw|={} MiB (N={nbodies}, P={nranks}, seed {seed})",
        sw >> 20
    ));
    meta("fractions of all get_c operations, summed over ranks");
    row(&[
        "iw_entries",
        "strategy",
        "hit",
        "direct",
        "conflicting",
        "capacity",
        "failed",
    ]);

    for &iw in &[1000usize, 20_000] {
        let params = CacheParams {
            index_entries: iw,
            storage_bytes: sw,
            ..CacheParams::default()
        };
        for (label, cfg) in [
            (
                "fixed",
                ClampiConfig::fixed(Mode::UserDefined, params.clone()),
            ),
            (
                "adaptive",
                ClampiConfig::adaptive(Mode::UserDefined, params.clone()),
            ),
        ] {
            let bh = BhConfig::with_backend(Backend::Clampi(cfg));
            let out = run_collect(SimConfig::bench(), nranks, |p| force_phase(p, &bodies, &bh));
            let mut totals = [0u64; AccessType::ALL.len()];
            let mut all = 0u64;
            for (_, r) in &out {
                if let Some(s) = r.clampi_stats {
                    for (i, t) in AccessType::ALL.iter().enumerate() {
                        totals[i] += s.count(*t);
                    }
                    all += s.total_gets;
                }
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
                label.to_string(),
                format!("{:.4}", frac(0)),
                format!("{:.4}", frac(1)),
                format!("{:.4}", frac(2)),
                format!("{:.4}", frac(3)),
                format!("{:.4}", frac(4)),
            ]);
        }
    }
}
