//! Offline cache-parameter tuning from a get trace.
//!
//! Replays a trace (by default the Sec. IV-A micro-benchmark; pass
//! `--trace FILE` for a trace captured from a real run and saved with
//! `clampi::Trace::save`) through the cache engine across a grid of
//! `(|Iw|, |Sw|, victim scheme)` and prints the grid ranked by modelled
//! completion time — the paper's manual parameter study as a
//! milliseconds-fast batch job.

use clampi::trace::{replay, Trace};
use clampi::{CacheParams, VictimScheme};
use clampi_bench::cli::{meta, row, Args};
use clampi_rma::NetModel;
use clampi_workloads::micro::MicroParams;
use clampi_workloads::MicroWorkload;

fn micro_trace(n: usize, z: usize, seed: u64) -> Trace {
    let wl = MicroWorkload::generate(
        MicroParams {
            distinct: n,
            sequence_len: z,
            ..MicroParams::default()
        },
        seed,
    );
    let mut t = Trace::new();
    for g in wl.issued() {
        t.get(1, g.disp as u64, g.size as u32);
        t.epoch_close();
    }
    t
}

fn main() {
    let args = Args::parse();
    let seed = args.seed();

    let trace = match std::env::args().position(|a| a == "--trace") {
        Some(i) => {
            let path = std::env::args().nth(i + 1).expect("--trace needs a path");
            Trace::load(std::path::Path::new(&path)).expect("unreadable trace")
        }
        None => micro_trace(args.get("distinct", 1000), args.get("gets", 20_000), seed),
    };
    meta(&format!(
        "Offline tuning over {} events ({} gets)",
        trace.len(),
        trace.num_gets()
    ));
    row(&[
        "rank",
        "iw_entries",
        "sw_kib",
        "scheme",
        "completion_ms",
        "hit_ratio",
        "failed_ratio",
    ]);

    let iw_grid = [256usize, 1024, 4096, 16384];
    let sw_grid = [256usize << 10, 1 << 20, 4 << 20, 16 << 20];

    let net = NetModel::default();
    let mut results = Vec::new();
    for &iw in &iw_grid {
        for &sw in &sw_grid {
            for scheme in VictimScheme::ALL {
                let r = replay(
                    &trace,
                    CacheParams {
                        index_entries: iw,
                        storage_bytes: sw,
                        victim_scheme: scheme,
                        ..CacheParams::default()
                    },
                    &net,
                );
                results.push((r.completion_ns, iw, sw, scheme, r.stats));
            }
        }
    }
    results.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for (i, (t, iw, sw, scheme, stats)) in results.iter().enumerate() {
        let failed = if stats.total_gets == 0 {
            0.0
        } else {
            stats.failed as f64 / stats.total_gets as f64
        };
        row(&[
            (i + 1).to_string(),
            iw.to_string(),
            (sw >> 10).to_string(),
            scheme.label().to_string(),
            format!("{:.3}", t / 1e6),
            format!("{:.4}", stats.hit_ratio()),
            format!("{:.4}", failed),
        ]);
    }
}
