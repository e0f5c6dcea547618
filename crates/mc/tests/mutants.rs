//! Planted-mutant fixtures: the checker is only trusted because it provably
//! catches known-broken protocol variants, mirroring the xlint and
//! perf-gate fixture discipline. `ci.sh`'s `mc-test` stage runs
//! this suite first and refuses to run the real checks if any mutant
//! escapes.
//!
//! The three planted mutants from the issue:
//! 1. seqlock writer drops its Release fence,
//! 2. seqlock reader loads the seq counter Relaxed (instead of Acquire),
//! 3. commit timestamps stamped outside the ring lock.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::Arc;

use clampi_mc as mc;

// ---------------------------------------------------------------------------
// The classic seqlock recipe (Boehm), with mutation switches. Nothing in the
// workspace ships a seqlock any more (the cache front it was written for is
// N `RwLock`s); the recipe stays as the checker's self-test, because its
// fence/ordering mutants are the sharpest weak-memory bugs the checker is
// known to catch, validated in every tier-1 run.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct SeqlockVariant {
    writer_release_fence: bool,
    reader_acquire_load: bool,
}

const CORRECT: SeqlockVariant = SeqlockVariant {
    writer_release_fence: true,
    reader_acquire_load: true,
};

fn seqlock_body(v: SeqlockVariant) {
    let seq = Arc::new(mc::TrackedU64::with_label(0, "seq"));
    let d0 = Arc::new(mc::TrackedU64::with_label(0, "d0"));
    let d1 = Arc::new(mc::TrackedU64::with_label(0, "d1"));
    let (seq_w, d0_w, d1_w) = (seq.clone(), d0.clone(), d1.clone());
    let writer = mc::spawn(move || {
        let s = seq_w.load(Relaxed);
        seq_w.store(s + 1, Relaxed);
        if v.writer_release_fence {
            mc::fence(Release); // pairs with the reader's Acquire fence
        }
        d0_w.store(2, Relaxed);
        d1_w.store(2, Relaxed);
        seq_w.store(s + 2, Release);
    });
    // Reader: one optimistic attempt of the shard.rs recipe.
    let s1 = seq.load(if v.reader_acquire_load {
        Acquire
    } else {
        Relaxed
    });
    if s1.is_multiple_of(2) {
        let a = d0.load(Relaxed);
        let b = d1.load(Relaxed);
        mc::fence(Acquire); // pairs with the writer's Release fence
        let s2 = seq.load(Relaxed);
        if s2 == s1 {
            assert_eq!(a, b, "torn read escaped seqlock validation");
        }
    }
    writer.join();
    assert_eq!(
        seq.load(Relaxed) % 2,
        0,
        "writer counter parity not restored"
    );
}

#[test]
fn correct_seqlock_passes_full_exploration() {
    let report = mc::check(mc::Config::default(), || seqlock_body(CORRECT));
    report.assert_pass();
    assert!(!report.truncated, "no bound: exploration must be complete");
}

#[test]
fn mutant_missing_release_fence_caught() {
    let report = mc::check(mc::Config::default(), || {
        seqlock_body(SeqlockVariant {
            writer_release_fence: false,
            ..CORRECT
        })
    });
    let cx = report.expect_fail();
    assert!(cx.message.contains("torn read"), "got: {}", cx.message);
}

#[test]
fn mutant_relaxed_seq_load_caught() {
    let report = mc::check(mc::Config::default(), || {
        seqlock_body(SeqlockVariant {
            reader_acquire_load: false,
            ..CORRECT
        })
    });
    let cx = report.expect_fail();
    assert!(cx.message.contains("torn read"), "got: {}", cx.message);
}

#[test]
fn mutants_still_caught_at_smoke_bounds() {
    // The CI stage runs with Config::smoke() (preemption bound 3 unless
    // CLAMPI_MC_FULL=1); the planted mutants must not need more switches.
    let cfg = mc::Config::default().with_preemption_bound(Some(3));
    mc::check(cfg.clone(), || {
        seqlock_body(SeqlockVariant {
            writer_release_fence: false,
            ..CORRECT
        })
    })
    .expect_fail();
    mc::check(cfg, || {
        seqlock_body(SeqlockVariant {
            reader_acquire_load: false,
            ..CORRECT
        })
    })
    .expect_fail();
}

#[test]
fn preemption_bound_zero_is_too_weak_and_says_so() {
    // Run-to-block scheduling cannot overlap reader and writer, so the
    // fence mutant escapes — but the report is marked truncated, which is
    // exactly the soundness caveat documented in INTERNALS.md.
    let report = mc::check(mc::Config::default().with_preemption_bound(Some(0)), || {
        seqlock_body(SeqlockVariant {
            writer_release_fence: false,
            ..CORRECT
        })
    });
    assert!(report.passed(), "bound 0 cannot interleave the protocols");
    assert!(report.truncated, "the bound must be reported as truncating");
}

// ---------------------------------------------------------------------------
// Transliterated commit-clock stamping (window.rs note_put recipe).
// ---------------------------------------------------------------------------

fn commit_body(stamp_inside_lock: bool) {
    let clock = Arc::new(mc::TrackedU64::with_label(0, "commit_ts"));
    let ring = Arc::new(mc::Mutex::with_label(Vec::<(u64, u64)>::new(), "ring"));

    let stamp = |clock: &mc::TrackedU64| -> u64 {
        // note_put's shape: monotone bump folding in a wall-clock floor
        // (here constant 0, which reduces to cc + 1).
        clock
            .fetch_update(Relaxed, Relaxed, |cc| Some(cc + 1))
            .map(|cc| cc + 1)
            .unwrap_or(0)
    };

    let mut writers = Vec::new();
    for _ in 0..2 {
        let clock = clock.clone();
        let ring = ring.clone();
        writers.push(mc::spawn(move || {
            if stamp_inside_lock {
                let mut r = ring.lock();
                let ts = stamp(&clock);
                let version = r.len() as u64 + 1;
                r.push((version, ts));
            } else {
                let ts = stamp(&clock); // MUTANT: ts taken before the lock
                let mut r = ring.lock();
                let version = r.len() as u64 + 1;
                r.push((version, ts));
            }
        }));
    }
    for w in writers {
        w.join();
    }
    let r = ring.lock();
    for pair in r.windows(2) {
        assert!(
            pair[1].1 > pair[0].1,
            "commit ts order diverged from version order: {:?}",
            *r
        );
    }
}

#[test]
fn correct_commit_stamping_passes() {
    let report = mc::check(mc::Config::default(), || commit_body(true));
    report.assert_pass();
    assert!(!report.truncated);
}

#[test]
fn mutant_ts_stamped_outside_lock_caught() {
    let report = mc::check(mc::Config::default(), || commit_body(false));
    let cx = report.expect_fail();
    assert!(
        cx.message.contains("diverged from version order"),
        "got: {}",
        cx.message
    );
}

// ---------------------------------------------------------------------------
// Schedule replay (satellite): a failing exploration's schedule string, fed
// back in, reproduces the identical counterexample trace.
// ---------------------------------------------------------------------------

#[test]
fn replay_reproduces_identical_counterexample() {
    let mutant = || {
        seqlock_body(SeqlockVariant {
            writer_release_fence: false,
            ..CORRECT
        })
    };
    let explored = mc::check(mc::Config::default(), mutant);
    let cx = explored.expect_fail().clone();

    let replayed = mc::check(mc::Config::default().with_schedule(&cx.schedule), mutant);
    assert_eq!(replayed.executions, 1);
    let cx2 = replayed.expect_fail();
    assert_eq!(cx2.message, cx.message, "replay diverged in failure");
    assert_eq!(cx2.trace, cx.trace, "replay diverged in trace");
    assert_eq!(cx2.schedule, cx.schedule);
}

#[test]
fn foreign_schedule_reports_mismatch() {
    let report = mc::check(mc::Config::default().with_schedule("t0.t9.r4"), || {
        seqlock_body(CORRECT)
    });
    assert!(
        matches!(report.outcome, mc::Outcome::ScheduleMismatch(_)),
        "got: {:?}",
        report.outcome
    );
}
