//! Coherence sweep — read-mostly sharing under concurrent remote puts.
//!
//! A 2-rank producer/consumer: rank 0 repeatedly reads `size`-byte
//! records from rank 1's window through an always-cache CLaMPI window;
//! between read rounds rank 1 `put`s fresh values into an
//! `update_rate` fraction of its own records. Both ranks derive the
//! update schedule from a shared PRNG seed, so the reader can assert —
//! byte for byte — that every get returns the *current* value: no
//! coherence mode is allowed to serve a stale byte.
//!
//! Both coherence modes are swept against each other, for each update
//! rate, the surgical one also without its notification ring:
//!
//! - **full-inval** (`CoherenceMode::None`): the reader drops its whole
//!   cache every round ([`CachedWindow::validate`] falls back to a full
//!   invalidation) — always safe, zero reuse across rounds;
//! - **eager-inval/ring0** (`EagerInvalidate` at `notify_ring_cap = 0`):
//!   no records are kept, so every drain after a write overflows and
//!   drops every entry for that target — coarse, CPU-only, and what a
//!   window falls back to when it cannot afford a ring;
//! - **eager-inval**: drain the target's put-notification ring and drop
//!   only entries overlapping a newer put (surgical — untouched records
//!   stay cached across rounds).
//!
//! At any update rate below 1.0 the eager driver must preserve strictly
//! more reuse than full invalidation — asserted here, not just plotted.
//! A final tiny-ring run (`notify_ring_cap = 2`) forces the
//! notification-overflow fallback and asserts it both fires and stays
//! correct. After the sweep one `# KEEP <mode> best_on=<rates|none>` line
//! per row label names the update rates where it has the lowest reader
//! time (ties count), like `fig_policy`'s: a label that reads `none` wins
//! nowhere and owes the next reader a reason to exist.
//!
//! Emits `# PERF <key> <value>` lines, pinned by CI's `golden` stage;
//! `eager_refetches` counts the entries
//! the `eager-inval` rows' `validate` passes dropped and fetched again.
//! Honours `CLAMPI_BENCH_SMOKE=1`.

use clampi::{CacheParams, CachedWindow, ClampiConfig, CoherenceMode, Mode};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_datatype::Datatype;
use clampi_prng::SmallRng;
use clampi_rma::{run_collect, SimConfig};

/// The value of record `r` after `version` updates: a deterministic
/// fill both ranks can compute without communicating.
fn pattern(r: usize, version: u64, size: usize) -> Vec<u8> {
    let b = (r as u64)
        .wrapping_mul(37)
        .wrapping_add(version.wrapping_mul(101)) as u8;
    vec![b; size]
}

#[derive(Clone, Copy)]
struct Workload {
    records: usize,
    size: usize,
    rounds: usize,
    gets_per_round: usize,
    rate: f64,
    seed: u64,
    ring_cap: usize,
}

struct Outcome {
    reader_ns: f64,
    stats: clampi::CacheStats,
}

/// Runs the producer/consumer loop under one coherence mode and returns
/// the reader's virtual time and cache counters. Panics (in-binary
/// correctness gate) if any get observes a byte that is not the
/// record's current value.
fn run_mode(w: Workload, coherence: CoherenceMode) -> Outcome {
    let cfg = SimConfig::bench().with_notify_ring_cap(w.ring_cap);
    let out = run_collect(cfg, 2, move |p| {
        let rank = p.rank();
        let params = CacheParams {
            index_entries: (4 * w.records).next_power_of_two(),
            storage_bytes: 4 * w.records * w.size,
            coherence,
            ..CacheParams::default()
        };
        let mut win = CachedWindow::create(
            p,
            w.records * w.size,
            ClampiConfig::fixed(Mode::AlwaysCache, params),
        );

        // Current per-record version, advanced identically on both
        // ranks from the shared schedule PRNG.
        let mut versions = vec![0u64; w.records];
        let mut schedule = SmallRng::seed_from_u64(w.seed);
        let mut picks = SmallRng::seed_from_u64(w.seed ^ 0x9e37_79b9);
        let updates_per_round = (w.rate * w.records as f64).round() as usize;

        if rank == 1 {
            let mut local = win.local_mut();
            for r in 0..w.records {
                local[r * w.size..(r + 1) * w.size].copy_from_slice(&pattern(r, 0, w.size));
            }
        }
        p.barrier();

        win.lock_all(p);
        let start = p.now();
        let mut buf = vec![0u8; w.size];
        for _ in 0..w.rounds {
            // Read phase: rank 0 gathers records (with reuse) from
            // rank 1 and checks each against the current value.
            if rank == 0 {
                for _ in 0..w.gets_per_round {
                    let r = picks.gen_range(0..w.records);
                    let class = win.get(p, &mut buf, 1, r * w.size, &Datatype::bytes(w.size), 1);
                    if class != Some(clampi::AccessType::Hit) {
                        win.flush(p, 1);
                    }
                    assert_eq!(
                        buf,
                        pattern(r, versions[r], w.size),
                        "stale or corrupt read of record {r} under {coherence:?}"
                    );
                }
            }
            p.barrier();

            // Update phase: both ranks draw the same schedule; only
            // rank 1 performs the puts (into its own region). The draw is
            // with replacement, but MPI-3 forbids overlapping puts in one
            // epoch (RMASAN flags them), so each touched record is put
            // once, at its final version for the round.
            let mut touched: Vec<usize> = Vec::new();
            for _ in 0..updates_per_round {
                let r = schedule.gen_range(0..w.records);
                versions[r] += 1;
                if !touched.contains(&r) {
                    touched.push(r);
                }
            }
            if rank == 1 {
                for &r in &touched {
                    let val = pattern(r, versions[r], w.size);
                    win.put(p, &val, 1, r * w.size, &Datatype::bytes(w.size), 1);
                }
            }
            if rank == 1 && updates_per_round > 0 {
                win.flush(p, 1);
            }
            p.barrier();

            // Coherence point: surgical under a mode, full
            // invalidation under `CoherenceMode::None`.
            win.validate(p);
        }
        let elapsed = p.now() - start;
        win.unlock_all(p);
        (elapsed, win.stats())
    });
    let (elapsed, stats) = out[0].1;
    Outcome {
        reader_ns: elapsed,
        stats,
    }
}

fn main() {
    let args = Args::parse();
    let smoke = smoke_mode();

    let records = args.get("records", if smoke { 48 } else { 256 });
    let size = args.get("size", 64usize);
    let rounds = args.get("rounds", if smoke { 8 } else { 24 });
    let gets_per_round = args.get("gets", if smoke { 96 } else { 512 });
    let seed = args.seed();
    let rates: &[f64] = if smoke {
        &[0.0, 0.05, 0.25]
    } else {
        &[0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0]
    };

    meta("fig_coherence: coherence-mode sweep over remote update rate");
    meta(&format!(
        "records={records} size={size} rounds={rounds} gets_per_round={gets_per_round} seed={seed}"
    ));
    row(&[
        "update_rate",
        "mode",
        "reader_ns",
        "hit_ratio",
        "stale_prevented",
        "drained",
    ]);

    let ring = 4 * records;
    // Row order, and the index of each row in the per-mode arrays below.
    let (full, ring0, eager) = (0, 1, 2);
    let modes = [
        ("full-inval", CoherenceMode::None, ring),
        ("eager-inval/ring0", CoherenceMode::EagerInvalidate, 0),
        ("eager-inval", CoherenceMode::EagerInvalidate, ring),
    ];

    let mut totals = [0.0f64; 3];
    let mut best_on: [Vec<String>; 3] = Default::default();
    let mut eager_low_rate_hits = 0.0;
    let mut eager_refetches = 0;

    for &rate in rates {
        let mut hit_by_mode = [0.0f64; 3];
        let mut ns_by_mode = [0.0f64; 3];
        for (i, (label, mode, ring_cap)) in modes.iter().enumerate() {
            let w = Workload {
                records,
                size,
                rounds,
                gets_per_round,
                rate,
                seed,
                ring_cap: *ring_cap,
            };
            let o = run_mode(w, *mode);
            row(&[
                format!("{rate:.2}"),
                (*label).to_string(),
                format!("{:.1}", o.reader_ns),
                format!("{:.4}", o.stats.hit_ratio()),
                o.stats.stale_hits_prevented.to_string(),
                o.stats.notifications_drained.to_string(),
            ]);
            hit_by_mode[i] = o.stats.hit_ratio();
            ns_by_mode[i] = o.reader_ns;
            totals[i] += o.reader_ns;
            if i == eager && rate > 0.0 && rate <= 0.05 {
                eager_low_rate_hits = o.stats.hit_ratio();
            }
            if i == eager {
                eager_refetches += o.stats.refetches;
            }
        }
        let best = ns_by_mode.iter().copied().fold(f64::INFINITY, f64::min);
        for (wins, &ns) in best_on.iter_mut().zip(&ns_by_mode) {
            if ns == best {
                wins.push(format!("{rate:.2}"));
            }
        }
        // Surgical invalidation must preserve at least the reuse of the
        // sledgehammer; strictly more whenever some records survive a
        // round untouched.
        assert!(
            hit_by_mode[eager] >= hit_by_mode[full],
            "eager hit ratio fell below full invalidation at rate {rate}"
        );
        if rate > 0.0 && rate < 1.0 {
            assert!(
                hit_by_mode[eager] > hit_by_mode[full],
                "eager invalidation preserved no extra reuse at rate {rate}"
            );
        }
    }

    // Overflow fallback: a 2-record ring under a heavy update rate must
    // overflow (degrading to full per-target invalidation) and the
    // in-run byte checks above still hold.
    let w = Workload {
        records,
        size,
        rounds,
        gets_per_round,
        rate: 0.5,
        seed,
        ring_cap: 2,
    };
    let o = run_mode(w, CoherenceMode::EagerInvalidate);
    assert!(
        o.stats.notification_overflows > 0,
        "tiny notification ring never overflowed"
    );
    meta(&format!(
        "overflow run: {} overflows, hit_ratio {:.4}",
        o.stats.notification_overflows,
        o.stats.hit_ratio()
    ));

    for ((label, ..), wins) in modes.iter().zip(&best_on) {
        let wins = if wins.is_empty() {
            "none".to_string()
        } else {
            wins.join(",")
        };
        meta(&format!("KEEP {label} best_on={wins}"));
    }
    meta(&format!("PERF full_inval_total_ns {:.1}", totals[full]));
    meta(&format!("PERF eager_ring0_total_ns {:.1}", totals[ring0]));
    meta(&format!("PERF eager_total_ns {:.1}", totals[eager]));
    meta(&format!(
        "PERF eager_hit_ratio_low_rate {eager_low_rate_hits:.4}"
    ));
    meta(&format!("PERF eager_refetches {eager_refetches}"));
    clampi_bench::cli::san_summary();
}
