//! Fig. 11 — victim-selection behaviour as a function of `|I_w|`.
//!
//! Three panels, all over the Z = 100K micro-benchmark with a saturated
//! storage buffer and sample size M = 16:
//!
//! - top: average index slots visited per capacity/failed eviction (grows
//!   with `|I_w|` because the index gets sparser);
//! - middle: hits per victim-selection scheme (*Full* wins everywhere);
//! - bottom: average free space (Temporal highest = most fragmentation)
//!   and the fraction of visited slots that were non-empty.

use clampi::{CacheParams, ClampiConfig, Mode, VictimScheme};
use clampi_apps::Backend;
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::micro::{run_micro, MicroRunConfig};
use clampi_bench::summary::mean;
use clampi_workloads::micro::MicroParams;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("distinct", 1000);
    let z: usize = args.get("gets", 100_000);
    let storage: usize = args.get("storage-kb", 2048) << 10;
    let seed = args.seed();
    let table_sizes: Vec<usize> = vec![1000, 1500, 2000, 4000, 8000, 16000];

    meta(&format!(
        "Fig. 11: eviction-scan statistics vs |Iw| (N={n}, Z={z}, |Sw|={} KiB, M=16, seed {seed})",
        storage >> 10
    ));
    row(&[
        "index_entries",
        "scheme",
        "avg_visited_per_eviction",
        "hits",
        "avg_free_kib",
        "nonempty_visited_ratio",
    ]);

    let params = MicroParams {
        distinct: n,
        sequence_len: z,
        ..MicroParams::default()
    };

    for &iw in &table_sizes {
        for scheme in VictimScheme::ALL {
            let r = run_micro(&MicroRunConfig {
                backend: Backend::Clampi(ClampiConfig::fixed(
                    Mode::AlwaysCache,
                    CacheParams {
                        index_entries: iw,
                        storage_bytes: storage,
                        victim_scheme: scheme,
                        ..CacheParams::default()
                    },
                )),
                params,
                seed,
                sample_every: (z / 200).max(1),
            });
            let avg_free = mean(
                &r.free_trace
                    .iter()
                    .map(|&(_, f)| f as f64)
                    .collect::<Vec<_>>(),
            );
            row(&[
                iw.to_string(),
                scheme.label().to_string(),
                format!("{:.1}", r.stats.avg_visited_per_eviction()),
                r.stats.hits.to_string(),
                format!("{:.1}", avg_free / 1024.0),
                format!("{:.3}", r.stats.eviction_density()),
            ]);
        }
    }
}
