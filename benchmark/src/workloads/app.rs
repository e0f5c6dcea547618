//! What the two whole-application workloads (`bh_force`, `lcc_adaptive`)
//! share: a repetition is one complete two-rank run of the application, so
//! every repetition builds its own windows and starts from an empty cache.

use std::time::Instant;

use clampi::{CacheStats, ClampiConfig};
use clampi_rma::{run_collect, Process, RankReport, SimConfig};

use super::{finish_traced, ladder_prefix, EndToEnd, Opts, MIN_REPS, SESSIONS};
use crate::counters::{emit_cache, emit_clock};
use crate::host::{cpu_seconds, timed_pairs, timed_reps, Half, Reps};
use crate::ladder;
use crate::report::{Metrics, Report};
use crate::spans::{layer, Recorder, NO_PARENT};
use crate::stats::{median, rep_spread};
use crate::stream::{ClockMark, GetOp, RANKS};

/// One repetition: every rank's report and result.
pub struct Rep<R> {
    pub wall_s: f64,
    /// Virtual ns of the slowest rank's whole run.
    pub virt_ns: f64,
    /// Sum of every rank's checksum, in rank order.
    pub checksum: f64,
    pub ranks: Vec<(RankReport, R)>,
}

/// Runs `phase` on two ranks.
pub fn rep<R: Send>(phase: impl Fn(&mut Process) -> R + Sync, checksum: fn(&R) -> f64) -> Rep<R> {
    let t = Instant::now();
    let ranks = run_collect(SimConfig::bench(), RANKS, phase);
    Rep {
        wall_s: t.elapsed().as_secs_f64(),
        virt_ns: ranks.iter().map(|(r, _)| r.elapsed_ns).fold(0.0, f64::max),
        checksum: ranks.iter().map(|(_, r)| checksum(r)).sum(),
        ranks,
    }
}

/// Untraced run: sessions (generate the input, one warm-up repetition, then
/// timed repetitions, each followed by its baseline: the same input on the
/// uncached backend), then one more uncached repetition. `ops` is the op count of an input.
/// A cached repetition whose checksum differs in any bit from the uncached
/// one fails all its operations.
pub fn end_to_end<I, R>(
    o: &Opts,
    generate: impl Fn() -> I,
    ops: impl Fn(&I) -> u64,
    cached: impl Fn(&I) -> Rep<R>,
    uncached: impl Fn(&I) -> Rep<R>,
) -> EndToEnd {
    let mut setups = Vec::new();
    let mut reps = Reps::default();
    let mut checksums = Vec::new();
    // Every repetition starts from an empty cache, so a warm-up's virtual
    // time is every repetition's.
    let mut virt_cached_ns = 0.0;
    for _ in 0..SESSIONS {
        let setup_start = cpu_seconds();
        let input = generate();
        let warm = cached(&input);
        setups.push(cpu_seconds() - setup_start);
        checksums.push(warm.checksum);
        virt_cached_ns = warm.virt_ns;
        // The baseline's checksums are checked too: against the last one.
        reps.extend(timed_pairs(o.seconds / SESSIONS as f64, MIN_REPS, |half| {
            checksums.push(match half {
                Half::Measured => cached(&input).checksum,
                Half::Baseline => uncached(&input).checksum,
            });
        }));
    }
    let input = generate();
    let plain = uncached(&input);
    let n = ops(&input);
    let wrong = checksums
        .iter()
        .filter(|c| c.to_bits() != plain.checksum.to_bits())
        .count() as u64;
    EndToEnd {
        setups,
        reps,
        ops_per_rep: n,
        virt_ops: n,
        virt_cached_ns,
        virt_uncached_ns: plain.virt_ns,
        attempted: n * checksums.len() as u64,
        failed: n * wrong,
        notes: vec![format!(
            "checksum {:e} (uncached {:e})",
            checksums[0], plain.checksum
        )],
    }
}

/// What a traced application run hands to [`finish`].
pub struct Traced<'a> {
    pub workload: &'a str,
    /// Wall seconds of the untraced baseline repetitions.
    pub walls: Vec<f64>,
    /// Wall seconds of the traced repetition.
    pub traced_wall_s: f64,
    /// Rank 0's remote fetch stream in the traced repetition.
    pub ops: Vec<GetOp>,
    /// Rank 0's report, cache counters and op count in that repetition.
    pub report: RankReport,
    pub stats: CacheStats,
    pub local_ops: u64,
    pub cfg: &'a ClampiConfig,
    pub nb_batch: Option<usize>,
}

/// Warm-up, untraced baseline repetitions for a quarter of the time, then
/// the traced repetition under an `apps` span.
pub fn baseline_then_traced<R>(
    o: &Opts,
    rec: &mut Recorder,
    untraced: impl Fn() -> Rep<R>,
    traced: impl FnOnce() -> Rep<R>,
) -> (Vec<f64>, Rep<R>) {
    untraced(); // warm-up
    let walls = timed_reps(o.seconds / 4.0, MIN_REPS, || {
        untraced();
    })
    .walls;
    let span = rec.open(NO_PARENT, 0, layer("apps"));
    let rep = traced();
    rec.close(span);
    (walls, rep)
}

/// Runs the ladder over the head of rank 0's stream (against a window of
/// the same extent: its contents do not matter to the clock), then overrides
/// the counters with the application's own, writes the trace file and
/// assembles the report. `m` may already hold the application's metrics.
pub fn finish(o: &Opts, t: Traced, mut m: Metrics, mut rec: Recorder) -> Report {
    let ladder_ops = ladder_prefix(&t.ops);
    let extent = ladder_ops
        .iter()
        .map(|op| op.disp + op.len)
        .max()
        .unwrap_or(8);
    let mut window = vec![0u8; extent];
    crate::host::fill_pattern(&mut window, o.seed);
    let out = ladder::run(
        &ladder::Spec {
            ops: ladder_ops,
            window: &window,
            cfg: t.cfg,
            nb_batch: t.nb_batch,
            cold_passes: true,
            seconds: o.seconds / 2.0,
        },
        &mut m,
        &mut rec,
    );
    // Counters come from the application's own run, not from the replay.
    emit_cache(&mut m, &t.stats);
    emit_clock(
        &mut m,
        &ClockMark::default(),
        &ClockMark::from_report(&t.report),
        t.local_ops,
        &t.stats,
    );
    m.set(
        "trace.overhead_x",
        t.traced_wall_s / median(&mut t.walls.clone()),
    );
    m.set("host.rep_spread", rep_spread(&t.walls));
    let mut notes = vec![format!(
        "rank 0 issued {} fetches for {} ops; ladder over {} of them",
        t.ops.len(),
        t.local_ops,
        ladder_ops.len()
    )];
    finish_traced(o, t.workload, &rec, &out.rungs, &mut notes);
    Report {
        attempted: out.attempted,
        failed: out.failed,
        rep_spread: rep_spread(&t.walls),
        metrics: m,
        notes,
    }
}
