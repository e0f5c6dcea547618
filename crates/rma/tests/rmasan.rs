//! Directed negative tests for RMASAN: each deliberately erroneous
//! program must produce exactly the expected [`SanDiag`]s (collect mode,
//! so the runs complete and the diagnostics can be inspected), plus the
//! observation-only property: checker-on and checker-off runs of clean
//! workloads are bit-identical.

use clampi_datatype::Datatype;
use clampi_prng::prop::check;
use clampi_rma::{run_collect, AccessKind, CheckerConfig, SanKind, SimConfig, Window};

/// Runs a 1-rank program under a collecting checker and returns its
/// diagnostics.
fn diags_of(f: impl Fn(&mut clampi_rma::Process, &mut Window) + Sync) -> Vec<clampi_rma::SanDiag> {
    let (cfg, handle) = CheckerConfig::collect();
    run_collect(SimConfig::default().with_checker(cfg), 1, |p| {
        let mut win = p.win_allocate(64);
        f(p, &mut win);
    });
    handle.take()
}

#[test]
fn same_epoch_get_put_overlap_is_one_epoch_conflict() {
    let diags = diags_of(|p, win| {
        win.lock_all(p);
        let mut buf = [0u8; 8];
        win.get(p, &mut buf, 0, 0, &Datatype::bytes(8), 1);
        let data = [7u8; 8];
        win.put(p, &data, 0, 4, &Datatype::bytes(8), 1); // overlaps the get
        win.unlock_all(p);
    });
    assert_eq!(diags.len(), 1, "exactly one diagnostic: {diags:?}");
    assert_eq!(diags[0].rank, 0);
    assert_eq!(
        diags[0].kind,
        SanKind::EpochConflict {
            target: 0,
            first: (AccessKind::Read, 0, 8),
            second: (AccessKind::Write, 4, 12),
        }
    );
}

#[test]
fn flush_separated_accesses_are_clean() {
    let diags = diags_of(|p, win| {
        win.lock_all(p);
        let mut buf = [0u8; 8];
        win.get(p, &mut buf, 0, 0, &Datatype::bytes(8), 1);
        win.flush(p, 0);
        let data = [7u8; 8];
        win.put(p, &data, 0, 4, &Datatype::bytes(8), 1);
        win.unlock_all(p);
    });
    assert_eq!(diags, vec![], "flush opens a new epoch");
}

#[test]
fn read_of_get_buffer_before_flush_is_flagged() {
    let diags = diags_of(|p, win| {
        win.lock_all(p);
        let mut buf = [0u8; 16];
        win.get(p, &mut buf, 0, 32, &Datatype::bytes(16), 1);
        win.san_read(p, &buf[4..8]); // premature: the get has not completed
        win.flush_all(p);
        win.san_read(p, &buf); // fine: flushed
        win.unlock_all(p);
    });
    assert_eq!(
        diags.iter().map(|d| &d.kind).collect::<Vec<_>>(),
        vec![&SanKind::ReadBeforeFlush {
            target: 0,
            start: 32,
            end: 48,
        }]
    );
}

/// A flush completes the reads towards its own target only: the get to
/// the other target stays outstanding.
#[test]
fn flush_completes_exactly_its_own_targets_reads() {
    let (cfg, handle) = CheckerConfig::collect();
    run_collect(SimConfig::default().with_checker(cfg), 2, |p| {
        let mut win = p.win_allocate(64);
        p.barrier();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut a = [0u8; 8];
            let mut b = [0u8; 8];
            win.get(p, &mut a, 0, 0, &Datatype::bytes(8), 1);
            win.get(p, &mut b, 1, 16, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            win.san_read(p, &a); // target 0 not flushed -> flagged
            win.san_read(p, &b); // completed by flush(1)
            win.unlock_all(p);
        }
        p.barrier();
    });
    assert_eq!(
        handle.take().iter().map(|d| &d.kind).collect::<Vec<_>>(),
        vec![&SanKind::ReadBeforeFlush {
            target: 0,
            start: 0,
            end: 8,
        }]
    );
}

#[test]
fn double_lock_and_double_unlock_are_flagged() {
    let diags = diags_of(|p, win| {
        win.lock_all(p);
        win.lock_all(p); // double lock
        win.unlock_all(p);
        win.unlock_all(p); // unlock without a (tracked) lock
    });
    assert_eq!(
        diags.iter().map(|d| &d.kind).collect::<Vec<_>>(),
        vec![&SanKind::DoubleLock, &SanKind::UnlockWithoutLock]
    );
}

#[test]
fn ops_and_flushes_outside_any_epoch_are_flagged() {
    let diags = diags_of(|p, win| {
        let data = [1u8; 8];
        win.put(p, &data, 0, 0, &Datatype::bytes(8), 1); // no epoch open
        win.flush(p, 0); // flush outside any epoch
    });
    assert_eq!(
        diags.iter().map(|d| &d.kind).collect::<Vec<_>>(),
        vec![
            &SanKind::OpOutsideEpoch {
                target: 0,
                op: "put",
            },
            &SanKind::FlushOutsideEpoch { target: Some(0) },
        ]
    );
}

#[test]
fn unsynchronized_cross_rank_put_get_is_one_race() {
    let (cfg, handle) = CheckerConfig::collect();
    run_collect(SimConfig::default().with_checker(cfg), 2, |p| {
        let mut win = p.win_allocate(64);
        // Both ranks access target 1's [0,8) under their own shared
        // locks with no ordering between them: a textbook race. Only the
        // tick after the window's creating collective tells the two
        // accesses apart from what each rank learned there.
        win.lock_all(p);
        if p.rank() == 0 {
            let data = [9u8; 8];
            win.put(p, &data, 1, 0, &Datatype::bytes(8), 1);
        } else {
            let mut buf = [0u8; 8];
            win.get(p, &mut buf, 1, 0, &Datatype::bytes(8), 1);
        }
        win.unlock_all(p);
        p.barrier();
    });
    let diags = handle.take();
    // Exactly one of the two racing ranks observes the other's access
    // already logged (which one is scheduling-dependent).
    assert_eq!(diags.len(), 1, "each racing pair reports once: {diags:?}");
    assert!(
        matches!(diags[0].kind, SanKind::Race { target: 1, .. }),
        "{diags:?}"
    );
}

#[test]
fn barrier_separated_cross_rank_accesses_are_clean() {
    let (cfg, handle) = CheckerConfig::collect();
    run_collect(SimConfig::default().with_checker(cfg), 2, |p| {
        let mut win = p.win_allocate(64);
        win.lock_all(p);
        if p.rank() == 0 {
            let data = [9u8; 8];
            win.put(p, &data, 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
        }
        p.barrier();
        if p.rank() == 1 {
            let mut buf = [0u8; 8];
            win.get(p, &mut buf, 1, 0, &Datatype::bytes(8), 1);
            win.flush(p, 1);
            assert_eq!(buf, [9u8; 8]);
        }
        win.unlock_all(p);
        p.barrier();
    });
    assert_eq!(handle.take(), vec![], "barrier is a full HB edge");
}

#[test]
fn fail_fast_mode_panics_with_the_diagnostic() {
    let result = std::panic::catch_unwind(|| {
        run_collect(
            SimConfig::default().with_checker(CheckerConfig::fail_fast()),
            1,
            |p| {
                let mut win = p.win_allocate(64);
                let data = [1u8; 8];
                win.put(p, &data, 0, 0, &Datatype::bytes(8), 1);
            },
        );
    });
    let err = result.expect_err("fail-fast checker must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("RMASAN"), "panic message: {msg}");
    assert!(msg.contains("outside any epoch"), "panic message: {msg}");
}

/// The observation-only property: a clean workload produces bit-identical
/// [`clampi_rma::RankReport`]s and window bytes with the checker on and
/// off, and the checker collects nothing.
#[test]
fn prop_checker_is_observation_only() {
    check("checker-on == checker-off on clean runs", 12, |g| {
        let nranks = g.range(1..5usize);
        let rounds = g.range(1..4usize);
        let ops = g.range(1..6usize);
        let seed = g.u64();
        // The fence-shaped arm: every epoch opens behind a barrier and
        // closes with flush_all before its unlock_all.
        let collective_epochs = g.bool();

        let workload = move |p: &mut clampi_rma::Process| {
            let mut rng = clampi_prng::SmallRng::seed_from_u64(seed ^ p.rank() as u64);
            let mut win = p.win_allocate(256);
            {
                let mut local = win.local_mut();
                for (i, b) in local.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_mul(p.rank() as u8 | 1);
                }
            }
            p.barrier();
            let n = p.nranks();
            let mut acc = 0u64;
            for _ in 0..rounds {
                if collective_epochs {
                    p.barrier();
                }
                win.lock_all(p);
                for _ in 0..ops {
                    // Disjoint per-origin 8-byte slots: rank r writes
                    // only [r*8, r*8+8), everyone reads its own slot.
                    let target = rng.gen_range(0..n);
                    let slot = p.rank() * 8;
                    if rng.gen_range(0..2u32) == 0 {
                        let data = rng.gen_u64().to_le_bytes();
                        win.put(p, &data, target, slot, &Datatype::bytes(8), 1);
                        win.flush(p, target);
                    } else {
                        let mut buf = [0u8; 8];
                        win.get(p, &mut buf, target, slot, &Datatype::bytes(8), 1);
                        win.flush(p, target);
                        acc = acc.wrapping_add(u64::from_le_bytes(buf));
                    }
                }
                if collective_epochs {
                    win.flush_all(p);
                }
                win.unlock_all(p);
                p.barrier();
            }
            let local: Vec<u8> = win.local_ref().to_vec();
            (acc, local)
        };

        let off = run_collect(SimConfig::default(), nranks, workload);
        let (cfg, handle) = CheckerConfig::collect();
        let on = run_collect(SimConfig::default().with_checker(cfg), nranks, workload);
        assert_eq!(handle.take(), vec![], "clean workload must collect nothing");
        assert_eq!(off.len(), on.len());
        for ((r_off, v_off), (r_on, v_on)) in off.iter().zip(on.iter()) {
            assert_eq!(r_off, r_on, "RankReports must be bit-identical");
            assert_eq!(v_off, v_on, "observed data must be bit-identical");
        }
    });
}

/// The `TsRegression` clean pair: a put-then-drain workload exercising the
/// commit-clock stamping end to end collects zero diagnostics, and the
/// drained records (versions *and* timestamps) are bit-identical with the
/// checker on and off — `check_drain`'s timestamp bookkeeping observes,
/// never perturbs.
#[test]
fn drained_commit_timestamps_clean_and_checker_invariant() {
    let workload = |p: &mut clampi_rma::Process| {
        let mut win = p.win_allocate(256);
        p.barrier();
        let drained = if p.rank() == 0 {
            win.lock_all(p);
            for i in 0..4u64 {
                win.put(p, &[i as u8; 8], 1, 8 * i as usize, &Datatype::bytes(8), 1);
            }
            win.flush(p, 1);
            let mut out = Vec::new();
            // Two drains: the second resumes from the first's cursor, so
            // the timestamp monotonicity check also spans drains.
            let d1 = win.try_drain_notifications(p, 1, 0, &mut out).unwrap();
            assert_eq!((d1.drained, d1.overflowed), (4, false));
            let d2 = win
                .try_drain_notifications(p, 1, d1.version, &mut out)
                .unwrap();
            assert_eq!(d2.drained, 0);
            win.unlock_all(p);
            out.iter().map(|r| (r.version, r.ts)).collect()
        } else {
            Vec::new()
        };
        p.barrier();
        drained
    };
    let off = run_collect(SimConfig::default(), 2, workload);
    let (cfg, handle) = CheckerConfig::collect();
    let on = run_collect(SimConfig::default().with_checker(cfg), 2, workload);
    assert_eq!(handle.take(), vec![], "clean drains must collect nothing");
    assert_eq!(
        off.iter().map(|(_, v)| v).collect::<Vec<_>>(),
        on.iter().map(|(_, v)| v).collect::<Vec<_>>(),
        "drained (version, ts) pairs must be bit-identical checker on/off"
    );
    let records = &off[0].1;
    assert_eq!(records.len(), 4);
    assert!(
        records.windows(2).all(|w| w[0].1 < w[1].1),
        "timestamps strictly increase in version order: {records:?}"
    );
}
