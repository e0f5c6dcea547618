//! Ablation — the victim-sample size `M` (Sec. III-D).
//!
//! The eviction procedure scores a sample of `M` consecutive index slots
//! and evicts the minimum. Small samples pick poor victims (hurting the
//! hit ratio); large samples make every capacity miss expensive (the scan
//! is charged per visited slot). The paper uses M = 16; this sweep shows
//! the trade-off curve on the saturated micro-benchmark.
//!
//! The last row is the far corner of the curve: `Temporal` with
//! `M = |I_w|` scans every slot and evicts the globally least-recent
//! entry — exact LRU, with no recency structure to keep up on hits. It is
//! what the paper's sampled `R_T` approximates, priced by the same scan.

use clampi::{CacheParams, ClampiConfig, Mode, VictimScheme};
use clampi_apps::Backend;
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::micro::{run_micro, MicroRunConfig};
use clampi_workloads::micro::MicroParams;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("distinct", 1000);
    let z: usize = args.get("gets", 50_000);
    let storage: usize = args.get("storage-kb", 1024) << 10;
    let seed = args.seed();

    meta(&format!(
        "Ablation: victim sample size M (paper: 16). N={n}, Z={z}, |Sw|={} KiB, seed {seed}",
        storage >> 10
    ));
    row(&[
        "sample_size_m",
        "completion_ms",
        "hit_ratio",
        "occupancy_like_free_kib",
        "avg_visited_per_eviction",
    ]);

    let params = MicroParams {
        distinct: n,
        sequence_len: z,
        ..MicroParams::default()
    };

    const INDEX: usize = 2048;
    use VictimScheme::{Full, Temporal};
    let sweep = [
        (Full, 1),
        (Full, 4),
        (Full, 16),
        (Full, 64),
        (Full, 256),
        (Temporal, INDEX),
    ];
    for (scheme, m) in sweep {
        let r = run_micro(&MicroRunConfig {
            backend: Backend::Clampi(ClampiConfig::fixed(
                Mode::AlwaysCache,
                CacheParams {
                    index_entries: INDEX,
                    storage_bytes: storage,
                    victim_scheme: scheme,
                    sample_size: m,
                    ..CacheParams::default()
                },
            )),
            params,
            seed,
            sample_every: z / 100,
        });
        let avg_free = if r.free_trace.is_empty() {
            0.0
        } else {
            r.free_trace.iter().map(|&(_, f)| f as f64).sum::<f64>() / r.free_trace.len() as f64
        };
        row(&[
            match scheme {
                Full => m.to_string(),
                other => format!("{m}/{}", other.label()),
            },
            format!("{:.3}", r.completion_ns / 1e6),
            format!("{:.4}", r.stats.hit_ratio()),
            format!("{:.1}", avg_free / 1024.0),
            format!("{:.1}", r.stats.avg_visited_per_eviction()),
        ]);
    }
}
