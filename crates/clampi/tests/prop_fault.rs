//! Property tests for fault injection and recovery (`CLAMPI_PROP_SEED`
//! replays a single case; `CLAMPI_PROP_CASES` overrides the counts).
//!
//! The properties pin down the contract the fault subsystem documents:
//!
//! 1. a `FaultPlan` is a pure function of `(seed, rank, op-sequence)` —
//!    the schedule is bit-identical across replays and independent of
//!    when decisions are asked for;
//! 2. a faulty simulation is *deterministic end-to-end*: same config,
//!    same workload → bit-identical virtual time and identical merged
//!    `CacheStats`;
//! 3. recovery preserves data: every get not classified `Faulted` delivers
//!    exactly the bytes a fault-free run would (zero-filled otherwise);
//! 4. degradation is graceful: under rank failures the run completes
//!    without panic and the merged counters stay internally consistent.

use clampi::{AccessType, CacheParams, CachedWindow, ClampiConfig, Mode, RetryPolicy};
use clampi_datatype::Datatype;
use clampi_prng::prop::{check, Gen};
use clampi_rma::{run_collect, FaultConfig, FaultDecision, FaultPlan, SimConfig};

const WIN: usize = 4096;
const GET: usize = 64;

/// Ground truth for byte `d` of target `t`'s region.
fn truth(t: usize, d: usize) -> u8 {
    (t.wrapping_mul(31).wrapping_add(d)) as u8
}

/// Runs a 2-rank cached workload under `faults`: rank 0 issues `ops` gets
/// of `GET` bytes against rank 1 (disp slot per op), flushing every
/// `flush_every` gets. Returns rank 0's (classes, payload-ok flags,
/// merged stats, elapsed virtual ns).
fn run_faulty(
    faults: Option<FaultConfig>,
    retry: RetryPolicy,
    ops: &[usize],
    flush_every: usize,
) -> (Vec<Option<AccessType>>, Vec<bool>, clampi::CacheStats, f64) {
    let mut sim = SimConfig::default();
    if let Some(f) = faults {
        sim = sim.with_faults(f);
    }
    let out = run_collect(sim, 2, |p| {
        let cfg = ClampiConfig::fixed(Mode::AlwaysCache, CacheParams::default()).with_retry(retry);
        let mut win = CachedWindow::create(p, WIN, cfg);
        if p.rank() == 1 {
            let mut m = win.local_mut();
            for (d, b) in m.iter_mut().enumerate() {
                *b = truth(1, d);
            }
        }
        p.barrier();
        let mut classes = Vec::new();
        let mut ok = Vec::new();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut buf = [0u8; GET];
            for (i, &slot) in ops.iter().enumerate() {
                let disp = slot * GET;
                let class = win.get(p, &mut buf, 1, disp, &Datatype::bytes(GET), 1);
                let expect_zero = class == Some(AccessType::Faulted);
                ok.push(buf.iter().enumerate().all(|(j, &b)| {
                    if expect_zero {
                        b == 0
                    } else {
                        b == truth(1, disp + j)
                    }
                }));
                classes.push(class);
                if (i + 1) % flush_every == 0 {
                    win.flush_all(p);
                }
            }
            win.flush_all(p);
            win.unlock_all(p);
        }
        p.barrier();
        (classes, ok, win.stats())
    });
    let (report, (classes, ok, stats)) = (&out[0].0, out[0].1.clone());
    (classes, ok, stats, report.elapsed_ns)
}

fn gen_ops(g: &mut Gen) -> Vec<usize> {
    g.vec(40..120usize, |g| g.range(0..(WIN / GET)))
}

#[test]
fn prop_fault_plan_is_pure() {
    check(
        "fault plan is a pure function of (seed, rank, seq)",
        64,
        |g| {
            let cfg = FaultConfig {
                seed: g.u64(),
                transient_rate: g.range(0.0..0.5),
                spike_rate: g.range(0.0..0.5),
                ..FaultConfig::default()
            };
            let rank = g.range(0..8usize);
            let targets: Vec<usize> = g.vec(1..64usize, |g| g.range(0..8usize));
            let schedule = |cfg: &FaultConfig| -> Vec<FaultDecision> {
                let mut plan = FaultPlan::new(cfg.clone(), rank);
                targets.iter().map(|&t| plan.decide(t, 0.0)).collect()
            };
            assert_eq!(schedule(&cfg), schedule(&cfg), "schedule must replay");
            // Stateless access agrees with the streaming one.
            let plan = FaultPlan::new(cfg.clone(), rank);
            for (seq, &t) in targets.iter().enumerate() {
                assert_eq!(
                    plan.decide_at(seq as u64, t, 0.0),
                    schedule(&cfg)[seq],
                    "decide_at(seq) must equal the streamed decision"
                );
            }
        },
    );
}

#[test]
fn prop_faulty_sim_is_deterministic() {
    check("same fault seed => bit-identical sim", 16, |g| {
        let faults = FaultConfig::transient(g.range(0.0..0.15), g.u64());
        let ops = gen_ops(g);
        let retry = RetryPolicy::default();
        let a = run_faulty(Some(faults.clone()), retry, &ops, 8);
        let b = run_faulty(Some(faults), retry, &ops, 8);
        assert_eq!(a.0, b.0, "access classes must replay");
        assert_eq!(a.2, b.2, "merged CacheStats must replay");
        assert_eq!(
            a.3.to_bits(),
            b.3.to_bits(),
            "virtual time must be bit-identical"
        );
    });
}

#[test]
fn prop_recovery_preserves_data() {
    check("non-Faulted gets deliver fault-free bytes", 16, |g| {
        let faults = FaultConfig::transient(g.range(0.0..0.12), g.u64());
        let ops = gen_ops(g);
        // Generous retries: abandonment needs rate^66, i.e. never for
        // any seed this harness can draw.
        let retry = RetryPolicy {
            max_retries: 64,
            op_timeout_ns: f64::INFINITY,
            ..RetryPolicy::default()
        };
        let (classes, ok, stats, _) = run_faulty(Some(faults), retry, &ops, 8);
        assert!(ok.iter().all(|&b| b), "every payload matches ground truth");
        assert!(
            classes.iter().all(|c| c != &Some(AccessType::Faulted)),
            "generous retries must recover every transient"
        );
        assert_eq!(stats.total_gets, ops.len() as u64);
        assert_eq!(stats.timeouts, 0);
    });
}

#[test]
fn prop_zero_rate_equals_fault_free() {
    check("inactive fault config is bit-identical to None", 16, |g| {
        let ops = gen_ops(g);
        let retry = RetryPolicy::default();
        let plain = run_faulty(None, retry, &ops, 8);
        let gated = run_faulty(Some(FaultConfig::default()), retry, &ops, 8);
        assert_eq!(plain.0, gated.0);
        assert_eq!(plain.2, gated.2);
        assert_eq!(plain.3.to_bits(), gated.3.to_bits());
        assert_eq!(gated.2.retries, 0);
        assert_eq!(gated.2.degraded_gets, 0);
    });
}

#[test]
fn prop_degradation_is_graceful_and_consistent() {
    check("rank failure degrades without panic", 16, |g| {
        let at_ns = g.range(0.0..200_000.0f64);
        let faults =
            FaultConfig::transient(g.range(0.0..0.05), g.u64()).with_rank_failure(1, at_ns);
        let ops = gen_ops(g);
        let (classes, ok, stats, _) = run_faulty(Some(faults), RetryPolicy::default(), &ops, 8);
        // Completion without panic is the core claim; the counters must
        // also add up.
        assert_eq!(classes.len(), ops.len());
        assert!(ok.iter().all(|&b| b), "payloads are truth or zeros");
        assert_eq!(
            stats.total_gets,
            AccessType::ALL.iter().map(|t| stats.count(*t)).sum::<u64>(),
            "classification partitions total_gets"
        );
        assert!(stats.degraded_gets <= stats.faulted);
        // Once the target died, every later get must be Faulted (no
        // resurrections).
        if let Some(first) = classes.iter().position(|c| c == &Some(AccessType::Faulted)) {
            let later_hit = classes[first..]
                .iter()
                .any(|c| c != &Some(AccessType::Faulted));
            if stats.degraded_gets > 0 && stats.timeouts == 0 {
                assert!(!later_hit, "degraded target must stay degraded");
            }
        }
    });
}
