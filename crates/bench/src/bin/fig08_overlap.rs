//! Fig. 8 — communication/computation overlap, driven end-to-end through
//! the real nonblocking API.
//!
//! A 2-rank gather: rank 0 reads `n` adjacent `size`-byte records from
//! rank 1 under three drivers —
//!
//! - **blocking**: `get` + `flush` per record (a network wait per miss,
//!   the paper's worst case);
//! - **nonblocking**: `get_nb` for the whole gather, one `flush_all`
//!   (miss wire times overlap each other; coalescing disabled);
//! - **nonblocking + coalescing**: same, with adjacent miss ranges merged
//!   into one outstanding transfer (`max_coalesce_bytes` covers the
//!   gather).
//!
//! The wire latency is swept upward (scaling the LogGP `L` row): the
//! longer a miss sits on the wire, the more the batched drivers hide, so
//! their benefit over blocking must grow monotonically — asserted here,
//! not just plotted. Runs in Transparent mode so every gather is cold
//! (pure miss traffic, the regime Fig. 8 studies).
//!
//! Emits `# PERF <key> <value>` lines, pinned by CI's `golden` stage.
//! Honours `CLAMPI_BENCH_SMOKE=1`.

use clampi::{CacheParams, CachedWindow, ClampiConfig, Mode};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_datatype::Datatype;
use clampi_rma::{run_collect, NetModel, SimConfig};

#[derive(Clone, Copy, PartialEq)]
enum Driver {
    Blocking,
    Nonblocking,
    Coalescing,
}

/// Total virtual ns rank 0 spends gathering, plus its coalesced count.
fn run_gather(model: &NetModel, driver: Driver, n: usize, size: usize, reps: usize) -> (f64, u64) {
    let cfg = SimConfig::bench().with_netmodel(model.clone());
    let out = run_collect(cfg, 2, move |p| {
        let params = CacheParams {
            max_coalesce_bytes: if driver == Driver::Coalescing {
                n * size
            } else {
                0
            },
            ..CacheParams::default()
        };
        let ccfg = ClampiConfig::fixed(Mode::Transparent, params);
        let mut win = CachedWindow::create(p, n * size, ccfg);
        p.barrier();
        if p.rank() != 0 {
            p.barrier();
            return (0.0, 0);
        }
        win.lock_all(p);
        let dtype = Datatype::bytes(size);
        let mut buf = vec![0u8; size];
        let t0 = p.now();
        for _ in 0..reps {
            match driver {
                Driver::Blocking => {
                    for i in 0..n {
                        win.get(p, &mut buf, 1, i * size, &dtype, 1);
                        // Transparent + cold cache: every get misses and
                        // must be completed before the next record is
                        // consumed.
                        win.flush_all(p);
                    }
                }
                Driver::Nonblocking | Driver::Coalescing => {
                    for i in 0..n {
                        win.get_nb(p, &mut buf, 1, i * size, &dtype, 1);
                    }
                    win.flush_all(p);
                }
            }
        }
        let elapsed = p.now() - t0;
        let coalesced = win.stats().coalesced_misses;
        win.unlock_all(p);
        p.barrier();
        (elapsed, coalesced)
    });
    out[0].1
}

fn main() {
    let args = Args::parse();
    let smoke = smoke_mode();
    let n: usize = args.get("records", if smoke { 16 } else { 64 });
    let size: usize = args.get("size", 64);
    let reps: usize = args.get("reps", if smoke { 2 } else { 10 });
    let scales: Vec<f64> = if smoke {
        vec![1.0, 4.0]
    } else {
        vec![1.0, 2.0, 4.0, 8.0, 16.0]
    };

    meta("Fig. 8: blocking vs nonblocking vs coalescing gather latency");
    meta(&format!(
        "protocol: rank 0 gathers {n} adjacent {size}B records from rank 1, {reps} cold reps"
    ));
    meta("latency_scale multiplies the LogGP wire-latency row");
    row(&[
        "latency_scale",
        "wire_ns_per_miss",
        "blocking_ns",
        "nonblocking_ns",
        "coalescing_ns",
        "nb_speedup",
        "coal_speedup",
        "coalesced_misses",
    ]);

    let base = NetModel::default();
    let mut totals = [0.0f64; 3];
    let mut prev_gap = 0.0f64;
    let mut last_coal_speedup = 0.0f64;
    for &scale in &scales {
        let mut model = base.clone();
        for l in &mut model.latency_ns {
            *l *= scale;
        }
        let wire_per_miss = model.latency_ns[1] + size as f64 * model.per_byte_ns[1];
        let (t_block, _) = run_gather(&model, Driver::Blocking, n, size, reps);
        let (t_nb, nb_coalesced) = run_gather(&model, Driver::Nonblocking, n, size, reps);
        let (t_coal, coalesced) = run_gather(&model, Driver::Coalescing, n, size, reps);

        assert_eq!(nb_coalesced, 0, "coalescing must be off when disabled");
        assert!(
            coalesced >= (reps * (n - 1)) as u64,
            "adjacent records must coalesce: {coalesced}"
        );
        assert!(
            t_nb < t_block,
            "nonblocking must beat blocking at scale {scale}: {t_nb} vs {t_block}"
        );
        assert!(
            t_coal <= t_nb,
            "coalescing must not lose to plain batching at scale {scale}: {t_coal} vs {t_nb}"
        );
        let gap = t_block - t_coal;
        assert!(
            gap > prev_gap,
            "batching benefit must grow with wire latency: {gap} after {prev_gap}"
        );
        prev_gap = gap;
        last_coal_speedup = t_block / t_coal;

        totals[0] += t_block;
        totals[1] += t_nb;
        totals[2] += t_coal;
        row(&[
            format!("{scale}"),
            format!("{wire_per_miss:.1}"),
            format!("{t_block:.1}"),
            format!("{t_nb:.1}"),
            format!("{t_coal:.1}"),
            format!("{:.3}", t_block / t_nb),
            format!("{:.3}", t_block / t_coal),
            format!("{coalesced}"),
        ]);
    }

    // Stable scalar signals, pinned by CI's golden stage.
    meta(&format!("PERF blocking_total_ns {:.1}", totals[0]));
    meta(&format!("PERF nonblocking_total_ns {:.1}", totals[1]));
    meta(&format!("PERF coalescing_total_ns {:.1}", totals[2]));
    meta(&format!("PERF coal_speedup_at_max {last_coal_speedup:.4}"));
    clampi_bench::cli::san_summary();
}
