//! Transactional (snapshot-consistent) multi-record reads vs naive
//! batched gets.
//!
//! The workload is the torn-read scenario that motivates
//! `clampi::snapshot`: a writer streams serially-sequenced puts over a
//! record array (put `j` lands in slot `j % records`, its payload
//! self-identifies `j` and carries a checksum), while a reader
//! repeatedly reads the *whole array* as one batch. A batch is **torn**
//! when its decoded records cannot be explained by any serial prefix of
//! the write sequence — some records are newer than others in a way no
//! single point in time produces.
//!
//! Two phases:
//!
//! - **Phase A (virtual time, deterministic)**: lockstep rounds sweep
//!   writer update rates × coherence modes. Every
//!   [`CachedWindow::multi_get`] batch must decode to *some* serial cut
//!   no newer than the writes so far, with its timestamp inside the
//!   ring-horizon staleness bound; how fresh the cut is (`lag` = writes
//!   done minus cut observed) is the coherence mode's business and is
//!   reported per rate. The `# PERF snap_*` keys are virtual-time numbers
//!   and therefore bit-stable — CI's `golden` stage pins them, which
//!   also pins that the snapshot layer's costs don't drift. A tiny-ring run
//!   (`notify_ring_cap = 2`) forces the overflow abort-and-retry path
//!   and asserts it fires (`snapshot_aborts >= 1`) and stays correct. A
//!   hot-entry run (`hot`: writes only to records no batch reads, a
//!   coherence pass per round) keeps the batch cached while the ring
//!   moves past its stamps; `snap_aborts_hot` counts the aborts that
//!   costs (0: validation starts from the coherence cursor).
//! - **Phase B (wall clock, genuinely concurrent)**: the writer thread
//!   puts at full speed with **no barriers** while the reader batches.
//!   Naive batched gets (per-record `get_nb` + one flush, after a
//!   `validate`) must observe torn batches; `multi_get` must observe
//!   **zero** torn batches across every outcome — successful snapshots
//!   decode to a serial cut, overloaded batches abort with
//!   `RetriesExhausted` rather than returning a mix. Real-thread
//!   interleavings are nondeterministic, so Phase B reports only
//!   `wall_*` keys and is skipped under `CLAMPI_BENCH_SMOKE`
//!   and `CLAMPI_SAN` (its naive racing reads are deliberate MPI-3
//!   conflicts the sanitizer would rightly flag).
//!
//! Emits `# PERF <key> <value>` lines. Honours `CLAMPI_BENCH_SMOKE=1`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use clampi::{CacheParams, CachedWindow, ClampiConfig, CoherenceMode, Mode, SnapReq, SnapshotCtx};
use clampi_bench::cli::{meta, row, Args};
use clampi_bench::smoke_mode;
use clampi_datatype::Datatype;
use clampi_rma::{run_collect, SimConfig};

const SLOT: usize = 16;

fn checksum(j: u64, k: usize) -> u64 {
    j.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64).wrapping_add(0xABCD_EF01)
}

fn encode(j: u64, k: usize) -> [u8; SLOT] {
    let mut b = [0u8; SLOT];
    b[0..8].copy_from_slice(&j.to_le_bytes());
    b[8..16].copy_from_slice(&checksum(j, k).to_le_bytes());
    b
}

/// Decodes slot `k`; `Err` marks a torn record (checksum mismatch).
fn decode(k: usize, slice: &[u8]) -> Result<u64, ()> {
    let mut a = [0u8; 8];
    a.copy_from_slice(&slice[0..8]);
    let j = u64::from_le_bytes(a);
    a.copy_from_slice(&slice[8..16]);
    let c = u64::from_le_bytes(a);
    if j == 0 && c == 0 {
        Ok(0)
    } else if c == checksum(j, k) {
        Ok(j)
    } else {
        Err(())
    }
}

/// The last write to slot `k` within the serial prefix `1..=s`.
fn last_write(k: usize, s: u64, records: u64) -> u64 {
    let m = (s % records + records - (k as u64) % records) % records;
    if s >= m && s - m >= 1 {
        s - m
    } else {
        0
    }
}

/// `true` iff a full-array batch decodes to *some* serial cut.
fn is_serial_cut(decoded: &[u64], records: u64) -> bool {
    let s = decoded.iter().copied().max().unwrap_or(0);
    decoded
        .iter()
        .enumerate()
        .all(|(k, &j)| j == last_write(k, s, records))
}

#[derive(Clone, Copy)]
struct Workload {
    records: usize,
    rounds: usize,
    rate: f64,
    ring_cap: usize,
    /// Reader runs a coherence pass before each batch (the idiomatic
    /// coherent reader). Off = pure snapshot reads, no ceremony at all.
    validate: bool,
    /// The writer puts into a second half of the window that no batch
    /// reads: the batched records stay cached and unwritten while the
    /// ring moves past their stamps (the hot-entry shape).
    cold_writes: bool,
}

struct Outcome {
    reader_ns: f64,
    stats: clampi::CacheStats,
    /// `(decoded batch, timestamp, pre-batch dropped_through_ts, j_done)`
    batches: Vec<(Vec<u64>, u64, u64, u64)>,
}

/// Phase A executor: lockstep rounds, reader batches the whole array
/// through `multi_get` with **no** validate calls — freshness comes from
/// the snapshot layer alone.
fn run_lockstep(w: Workload, coherence: CoherenceMode) -> Outcome {
    let cfg = SimConfig::bench().with_notify_ring_cap(w.ring_cap);
    let out = run_collect(cfg, 2, move |p| {
        let rank = p.rank();
        let params = CacheParams {
            index_entries: (4 * w.records).next_power_of_two(),
            storage_bytes: 4 * w.records * SLOT,
            coherence,
            ..CacheParams::default()
        };
        // Cold writes land past the batched records.
        let cold = if w.cold_writes { w.records } else { 0 };
        let mut win = CachedWindow::create(
            p,
            (w.records + cold) * SLOT,
            ClampiConfig::fixed(Mode::AlwaysCache, params),
        );
        p.barrier();
        win.lock_all(p);
        let start = p.now();
        let mut ctx = SnapshotCtx::new();
        let reqs: Vec<SnapReq> = (0..w.records)
            .map(|k| SnapReq {
                target: 1,
                disp: k * SLOT,
                len: SLOT,
            })
            .collect();
        let mut dst = vec![0u8; w.records * SLOT];
        let dtype = Datatype::bytes(SLOT);
        let updates = (w.rate * w.records as f64).round() as u64;
        let mut j = 0u64;
        let mut batches = Vec::with_capacity(w.rounds);
        for _ in 0..w.rounds {
            if rank == 0 {
                if w.validate {
                    win.validate(p);
                }
                let pre = win.notify_horizon(1).dropped_through_ts;
                // xlint: allow(no-unwrap) lockstep phase A is fault-free
                let info = win.multi_get(p, &mut ctx, &reqs, &mut dst).unwrap();
                let decoded: Vec<u64> = (0..w.records)
                    .map(|k| {
                        decode(k, &dst[k * SLOT..(k + 1) * SLOT])
                            .unwrap_or_else(|()| panic!("torn record {k} in lockstep phase"))
                    })
                    .collect();
                // Writes into the batched records so far.
                let j_read = if w.cold_writes { 0 } else { j };
                batches.push((decoded, info.timestamp, pre, j_read));
            }
            p.barrier();
            for _ in 0..updates {
                j += 1;
                let k = (j % w.records as u64) as usize;
                if rank == 1 {
                    win.put(p, &encode(j, k), 1, (cold + k) * SLOT, &dtype, 1);
                    win.flush(p, 1);
                }
            }
            p.barrier();
        }
        let elapsed = p.now() - start;
        win.unlock_all(p);
        (elapsed, win.stats(), batches)
    });
    let (elapsed, stats, batches) = out[0].1.clone();
    // Every batch must be *some* serial cut no newer than the writes
    // performed so far, with its timestamp inside the ring-horizon
    // staleness bound. (How *fresh* the cut is depends on the coherence
    // mode — without one, a cached cut whose intervals still intersect
    // is legal — so freshness is reported as `lag`, not asserted.)
    for (decoded, timestamp, pre, j_done) in &batches {
        let s = decoded.iter().copied().max().unwrap_or(0);
        assert!(
            s <= *j_done,
            "batch observed write {s} before it happened ({j_done} done)"
        );
        if w.validate {
            // A coherence pass right before the batch means the cut must
            // be the *current* one, whatever the mode.
            assert_eq!(
                s, *j_done,
                "stale cut after a coherence pass under {coherence:?}"
            );
        }
        assert!(
            is_serial_cut(decoded, w.records as u64),
            "torn batch under {coherence:?}: {decoded:?}"
        );
        assert!(
            timestamp >= pre,
            "timestamp {timestamp} below pre-batch ring horizon {pre}"
        );
    }
    Outcome {
        reader_ns: elapsed,
        stats,
        batches,
    }
}

/// Phase B: free-running writer vs a batching reader, wall clock.
struct WallOutcome {
    naive_batches: u64,
    naive_torn: u64,
    snap_success: u64,
    snap_aborted: u64,
    snap_torn: u64,
    writer_puts: u64,
}

fn run_wall(records: usize) -> WallOutcome {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_w = Arc::clone(&stop);
    let cfg = SimConfig::bench().with_notify_ring_cap(8192);
    let out = run_collect(cfg, 2, move |p| {
        let rank = p.rank();
        let params = CacheParams {
            index_entries: (4 * records).next_power_of_two(),
            storage_bytes: 4 * records * SLOT,
            coherence: CoherenceMode::EagerInvalidate,
            ..CacheParams::default()
        };
        let mut win = CachedWindow::create(
            p,
            records * SLOT,
            ClampiConfig::fixed(Mode::AlwaysCache, params),
        );
        p.barrier();
        win.lock_all(p);
        let dtype = Datatype::bytes(SLOT);
        let mut o = WallOutcome {
            naive_batches: 0,
            naive_torn: 0,
            snap_success: 0,
            snap_aborted: 0,
            snap_torn: 0,
            writer_puts: 0,
        };
        if rank == 1 {
            // Free-running writer: no barriers until the reader is done.
            let mut j = 0u64;
            while !stop_w.load(Ordering::Relaxed) {
                j += 1;
                let k = (j % records as u64) as usize;
                win.put(p, &encode(j, k), 1, k * SLOT, &dtype, 1);
                win.flush(p, 1);
            }
            o.writer_puts = j;
        } else {
            let mut dst = vec![0u8; records * SLOT];
            let decode_all = |dst: &[u8]| -> Result<Vec<u64>, ()> {
                (0..records)
                    .map(|k| decode(k, &dst[k * SLOT..(k + 1) * SLOT]))
                    .collect()
            };
            // Naive batched reads: validate + a sync get per record — the
            // loop an application writes without `multi_get`. (A
            // `get_nb`+flush batch would *often* come back consistent
            // here by accident: with every slot invalidated, the misses
            // coalesce into one contiguous transfer. That is luck of the
            // layout, not a guarantee — sparse or strided batches don't
            // coalesce — so the baseline reads each record on its own.)
            // Run until tearing is demonstrated (or a generous cap).
            while o.naive_torn < 3 && o.naive_batches < 5000 {
                o.naive_batches += 1;
                win.validate(p);
                for (k, chunk) in dst.chunks_exact_mut(SLOT).enumerate() {
                    win.get(p, chunk, 1, k * SLOT, &dtype, 1);
                    win.flush(p, 1);
                }
                let torn = match decode_all(&dst) {
                    Err(()) => true, // checksum-torn record
                    Ok(decoded) => !is_serial_cut(&decoded, records as u64),
                };
                o.naive_torn += torn as u64;
            }
            // Snapshot batches over the same live stream.
            let mut ctx = SnapshotCtx::new();
            let reqs: Vec<SnapReq> = (0..records)
                .map(|k| SnapReq {
                    target: 1,
                    disp: k * SLOT,
                    len: SLOT,
                })
                .collect();
            let mut tries = 0u64;
            while o.snap_success < 50 && tries < 2000 {
                tries += 1;
                match win.multi_get(p, &mut ctx, &reqs, &mut dst) {
                    Err(_) => o.snap_aborted += 1,
                    Ok(_) => {
                        o.snap_success += 1;
                        let torn = match decode_all(&dst) {
                            Err(()) => true,
                            Ok(decoded) => !is_serial_cut(&decoded, records as u64),
                        };
                        o.snap_torn += torn as u64;
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        }
        p.barrier();
        win.unlock_all(p);
        (
            o.naive_batches,
            o.naive_torn,
            o.snap_success,
            o.snap_aborted,
            o.snap_torn,
            o.writer_puts,
        )
    });
    let (naive_batches, naive_torn, snap_success, snap_aborted, snap_torn, _) = out[0].1;
    WallOutcome {
        naive_batches,
        naive_torn,
        snap_success,
        snap_aborted,
        snap_torn,
        writer_puts: out[1].1 .5,
    }
}

fn main() {
    let args = Args::parse();
    let smoke = smoke_mode();
    let san = std::env::var("CLAMPI_SAN").is_ok_and(|v| !v.is_empty() && v != "0");

    let records = args.get("records", if smoke { 32 } else { 64 });
    let rounds = args.get("rounds", if smoke { 8 } else { 24 });
    let seed = args.seed();
    let rates: &[f64] = if smoke {
        &[0.0, 0.25]
    } else {
        &[0.0, 0.05, 0.25, 1.0]
    };

    meta("fig_tx: snapshot-consistent multi-get vs naive batched reads");
    meta(&format!("records={records} rounds={rounds} seed={seed}"));
    row(&[
        "rate",
        "mode",
        "reader_ns",
        "refetches",
        "aborts",
        "staleness_ns",
        "final_lag",
    ]);

    let modes = [
        ("none", CoherenceMode::None),
        ("eager", CoherenceMode::EagerInvalidate),
    ];
    for (label, coherence) in modes {
        let mut total_ns = 0.0;
        let mut refetches = 0u64;
        let mut staleness = 0u64;
        for &rate in rates {
            let w = Workload {
                records,
                rounds,
                rate,
                ring_cap: 4 * records,
                validate: true,
                cold_writes: false,
            };
            let o = run_lockstep(w, coherence);
            // Freshness lag of the last batch: writes done when the
            // batch started minus the serial cut it decoded to.
            let (decoded, _, _, j_done) = o.batches.last().unwrap();
            let lag = j_done - decoded.iter().copied().max().unwrap_or(0);
            row(&[
                format!("{rate:.2}"),
                label.to_string(),
                format!("{:.1}", o.reader_ns),
                o.stats.snapshot_refetches.to_string(),
                o.stats.snapshot_aborts.to_string(),
                o.stats.snapshot_staleness_ns.to_string(),
                lag.to_string(),
            ]);
            assert_eq!(
                o.stats.snapshot_gets,
                (rounds * records) as u64,
                "every request of every batch is counted"
            );
            assert!(!o.batches.is_empty());
            total_ns += o.reader_ns;
            refetches += o.stats.snapshot_refetches;
            staleness += o.stats.snapshot_staleness_ns;
        }
        // Virtual-time keys: bit-stable, pinned by CI's golden stage.
        meta(&format!("PERF snap_total_ns_{label} {total_ns:.1}"));
        meta(&format!("PERF snap_refetches_{label} {refetches}"));
        meta(&format!("PERF snap_staleness_ns_{label} {staleness}"));
    }

    // Pure snapshot reads: no coherence pass at all. The batch is still
    // a serial cut, bounded by the ring horizon — but it is allowed to
    // be a *cached* (older) cut, which is the point: consistency comes
    // from the snapshot layer, freshness from coherence. Reported so
    // the lag is visible next to the coherent series.
    let w = Workload {
        records,
        rounds,
        rate: 0.25,
        ring_cap: 4 * records,
        validate: false,
        cold_writes: false,
    };
    let o = run_lockstep(w, CoherenceMode::None);
    let (decoded, _, _, j_done) = o.batches.last().unwrap();
    let lag = j_done - decoded.iter().copied().max().unwrap_or(0);
    row(&[
        "0.25".to_string(),
        "pure".to_string(),
        format!("{:.1}", o.reader_ns),
        o.stats.snapshot_refetches.to_string(),
        o.stats.snapshot_aborts.to_string(),
        o.stats.snapshot_staleness_ns.to_string(),
        lag.to_string(),
    ]);
    meta(&format!("PERF snap_total_ns_pure {:.1}", o.reader_ns));
    meta(&format!("PERF snap_lag_pure {lag}"));

    // Tiny notification ring: validation drains overflow, the batch
    // aborts and retries cache-bypassed — asserted, not just plotted.
    let w = Workload {
        records,
        rounds,
        rate: 0.25,
        ring_cap: 2,
        validate: false,
        cold_writes: false,
    };
    let o = run_lockstep(w, CoherenceMode::EagerInvalidate);
    assert!(
        o.stats.snapshot_aborts >= 1,
        "a 2-slot ring under 25% updates never overflowed a snapshot"
    );
    meta(&format!(
        "overflow run: {} aborts, {} refetches",
        o.stats.snapshot_aborts, o.stats.snapshot_refetches
    ));
    meta(&format!(
        "PERF snap_aborts_tiny_ring {}",
        o.stats.snapshot_aborts
    ));

    // Hot entries: the batch stays cached while every round's writes go
    // elsewhere, so within four rounds the ring no longer holds the
    // entries' stamps. The coherence passes have proved them write-free
    // through the cursor, and validation starts there: no abort.
    let w = Workload {
        records,
        rounds,
        rate: 1.0,
        ring_cap: 4 * records,
        validate: true,
        cold_writes: true,
    };
    let o = run_lockstep(w, CoherenceMode::EagerInvalidate);
    row(&[
        "1.00".to_string(),
        "hot".to_string(),
        format!("{:.1}", o.reader_ns),
        o.stats.snapshot_refetches.to_string(),
        o.stats.snapshot_aborts.to_string(),
        o.stats.snapshot_staleness_ns.to_string(),
        "0".to_string(),
    ]);
    meta(&format!("PERF snap_aborts_hot {}", o.stats.snapshot_aborts));

    // Phase B (wall clock): skipped under smoke (budget) and under the
    // sanitizer (the naive reads race puts by design — exactly the
    // conflicts RMASAN exists to flag).
    if !smoke && !san {
        let o = run_wall(records);
        meta(&format!(
            "wall phase: naive {}/{} torn, snapshot {}/{} torn ({} aborted), \
             writer did {} puts",
            o.naive_torn,
            o.naive_batches,
            o.snap_torn,
            o.snap_success,
            o.snap_aborted,
            o.writer_puts
        ));
        assert!(
            o.naive_torn > 0,
            "naive batched gets never tore against a full-speed writer \
             ({} batches)",
            o.naive_batches
        );
        assert_eq!(
            o.snap_torn, 0,
            "multi_get returned a torn batch under concurrency"
        );
        assert!(
            o.snap_success > 0,
            "no snapshot batch succeeded against the live writer"
        );
        // Wall-clock keys are nondeterministic (and never print at smoke).
        meta(&format!("PERF wall_naive_torn {}", o.naive_torn));
        meta(&format!("PERF wall_naive_batches {}", o.naive_batches));
        meta(&format!("PERF wall_snap_success {}", o.snap_success));
        meta(&format!("PERF wall_snap_aborted {}", o.snap_aborted));
    } else {
        meta(&format!(
            "note wall phase skipped (smoke={smoke} san={san})"
        ));
    }
    clampi_bench::cli::san_summary();
}
