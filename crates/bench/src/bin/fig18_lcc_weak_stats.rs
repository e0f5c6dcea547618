//! Fig. 18 — LCC weak-scaling access statistics.
//!
//! Access-type breakdowns behind Fig. 17: the fixed strategy's
//! capacity+failed share grows with P (the average get grows while
//! `|S_w|` does not); in the adaptive strategy the *direct* share grows
//! instead (reuse drops as the graph spreads over more ranks) while the
//! other non-hit types stay below a few percent.
//!
//! Asserted on every run: the fixed strategy's capacity+failed share
//! never falls as P grows; the adaptive strategy's
//! conflicting+capacity+failed share stays below 8 % at every P, and its
//! direct share is higher at the largest P than at the smallest.

use clampi::{AccessType, CacheParams, ClampiConfig, Mode};
use clampi_apps::{lcc_phase, Backend, LccConfig};
use clampi_bench::cli::{meta, row, Args};
use clampi_rma::{run_collect, SimConfig};
use clampi_workloads::{Csr, RmatParams};

fn main() {
    let args = Args::parse();
    let paper = args.paper_scale();
    let verts_per_pe_log2: u32 = args.get("verts-per-pe-log2", if paper { 15 } else { 11 });
    let ef: usize = args.get("edge-factor", 16);
    let seed = args.seed();
    let ranks: Vec<usize> = if paper {
        vec![16, 32, 64, 128]
    } else {
        vec![4, 8, 16, 32]
    };
    let params = CacheParams {
        index_entries: if paper { 128 << 10 } else { 16 << 10 },
        storage_bytes: if paper { 128 << 20 } else { 2 << 20 },
        ..CacheParams::default()
    };

    meta(&format!(
        "Fig. 18: LCC weak-scaling access stats, 2^{verts_per_pe_log2} v/PE, EF {ef} (seed {seed})"
    ));
    row(&[
        "ranks",
        "strategy",
        "hit",
        "direct",
        "conflicting",
        "capacity",
        "failed",
    ]);

    // Per P: fixed capacity+failed, adaptive conflicting+capacity+failed,
    // adaptive direct.
    let mut shapes: Vec<(f64, f64, f64)> = Vec::new();
    for &p in &ranks {
        let nv = p << verts_per_pe_log2;
        let scale = (nv as f64).log2().ceil() as u32;
        let graph = Csr::rmat(
            RmatParams {
                scale,
                edges: ef * nv,
                a: 0.57,
                b: 0.19,
                c: 0.19,
            },
            seed,
        );
        let mut shape = (0.0, 0.0, 0.0);
        for (label, cfg) in [
            (
                "fixed",
                ClampiConfig::fixed(Mode::AlwaysCache, params.clone()),
            ),
            (
                "adaptive",
                ClampiConfig::adaptive(Mode::AlwaysCache, params.clone()),
            ),
        ] {
            let lcc = LccConfig::with_backend(Backend::Clampi(cfg));
            let out = run_collect(SimConfig::bench(), p, |pr| lcc_phase(pr, &graph, &lcc));
            let mut totals = [0u64; AccessType::ALL.len()];
            let mut all = 0u64;
            for (_, r) in &out {
                if let Some(s) = r.clampi_stats {
                    for (i, ty) in AccessType::ALL.iter().enumerate() {
                        totals[i] += s.count(*ty);
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
                p.to_string(),
                label.to_string(),
                format!("{:.4}", frac(0)),
                format!("{:.4}", frac(1)),
                format!("{:.4}", frac(2)),
                format!("{:.4}", frac(3)),
                format!("{:.4}", frac(4)),
            ]);
            if label == "fixed" {
                shape.0 = frac(3) + frac(4);
            } else {
                shape.1 = frac(2) + frac(3) + frac(4);
                shape.2 = frac(1);
            }
        }
        shapes.push(shape);
    }

    for (w, pair) in shapes.windows(2).zip(ranks.windows(2)) {
        assert!(
            w[1].0 >= w[0].0,
            "fixed capacity+failed falls from {:.4} at P={} to {:.4} at P={}",
            w[0].0,
            pair[0],
            w[1].0,
            pair[1]
        );
    }
    for (s, p) in shapes.iter().zip(&ranks) {
        assert!(
            s.1 < 0.08,
            "adaptive conflicting+capacity+failed {:.4} at P={p} not below 0.08",
            s.1
        );
    }
    let (first, last) = (shapes[0].2, shapes[shapes.len() - 1].2);
    assert!(
        last > first,
        "adaptive direct share {last:.4} at the largest P not above {first:.4} at the smallest"
    );
}
