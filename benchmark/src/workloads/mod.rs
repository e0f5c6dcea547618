//! The six workloads and what they share: options, the set-up repetition
//! rule, and the arithmetic that turns repetitions into end-to-end metrics.

pub mod app;
pub mod bh_force;
pub mod dht_mixed;
pub mod hit_small;
pub mod lcc_adaptive;
pub mod miss_churn;
pub mod shared_front;

use std::path::PathBuf;

use clampi::ClampiConfig;

use crate::host::{cpu_seconds, timed_pairs, Half, Reps};
use crate::ladder;
use crate::names::{END_TO_END, PER_LAYER};
use crate::report::{Metrics, Report};
use crate::spans::{write_trace, Recorder};
use crate::stats::{median, rep_spread};
use crate::stream::{session, GetOp, Pass};

/// One run's options (the driver's command line).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Every input is generated from this.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// `false`: untraced repetitions, end-to-end metrics. `true`: the traced
    /// repetition and the layer ladder, per-layer metrics.
    pub trace: bool,
    /// Tiny op counts, same schema (for CI).
    pub smoke: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

impl Opts {
    /// `full` operations, or `full / 64` (at least `floor`) in smoke mode.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 64).max(floor)
        } else {
            full
        }
    }
}

/// Sessions per untraced run. A session is one set-up (generate the input,
/// spawn the ranks, create and fill the windows, populate, one warm-up
/// repetition) and the timed repetitions that follow it, for its share of
/// `--seconds`. Several sessions, because a set-up measured once swings with
/// the state of the page cache and the allocator and with whatever the host
/// does in that second; and spread over the run, not all at its start,
/// because the host's slow phases last seconds to minutes. Every session
/// also starts from fresh windows and fresh cache storage, so that no one
/// memory layout decides the run's figures.
pub const SESSIONS: usize = 5;

/// Repetitions the virtual-time metrics cover, counted from empty caches:
/// the warm-up repetition and the first `VIRT_REPS − 1` timed ones. Fixed
/// work from a fixed state, so they repeat exactly for a seed, and long
/// enough that the compulsory misses of the first repetition are amortised
/// the way an application run amortises them.
pub const VIRT_REPS: usize = 4;

/// Fewest timed repetitions a run takes, however short `--seconds` is.
pub const MIN_REPS: usize = VIRT_REPS - 1;

/// What the untraced repetitions of one workload measured.
pub struct EndToEnd {
    /// CPU seconds of each session's set-up.
    pub setups: Vec<f64>,
    /// What each timed repetition and its baseline took, session after
    /// session.
    pub reps: Reps,
    /// Operations one repetition performs (fixed per workload and seed).
    pub ops_per_rep: u64,
    /// Operations the two virtual-time figures below cover.
    pub virt_ops: u64,
    /// Virtual ns (max over ranks) of `virt_ops` operations started from
    /// empty caches.
    pub virt_cached_ns: f64,
    /// Virtual ns of the same operations on the uncached path.
    pub virt_uncached_ns: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl EndToEnd {
    pub fn into_report(self) -> Report {
        let mut m = Metrics::new(&END_TO_END);
        let ops = self.ops_per_rep as f64;
        // The fastest set-up, not the median one: each does the same work
        // as its fellows and the host can only add time to it. And CPU
        // time, not wall time: whatever else the host runs on this CPU
        // meanwhile, and the time the hypervisor takes the CPU away, is
        // then not charged to the workload.
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        m.set("setup_s", fastest(&self.setups));
        // Host time as a ratio: the reference host has phases of minutes in
        // which everything - a register-only loop too - takes up to three
        // times as long. A repetition and its baseline, run pair by pair
        // over the same seconds, take such a phase alike; and the fastest of
        // each is what the host leaves of them in its quietest moment.
        let speedup = fastest(&self.reps.base_cpus) / fastest(&self.reps.cpus);
        m.set("cpu_speedup_x", speedup);
        let mut by_pair: Vec<f64> = self
            .reps
            .base_cpus
            .iter()
            .zip(&self.reps.cpus)
            .map(|(base, cpu)| base / cpu)
            .collect();
        let by_pair_median = median(&mut by_pair);
        m.set("virt_ns_per_op", self.virt_cached_ns / self.virt_ops as f64);
        m.set(
            "virt_speedup_x",
            self.virt_uncached_ns / self.virt_cached_ns,
        );
        m.set("rss_peak_mb", crate::host::rss_peak_mb());
        let mut notes = self.notes;
        let summary = |v: &[f64]| {
            let mut sorted = v.to_vec();
            let median = median(&mut sorted);
            format!(
                "min {:.4} s, median {median:.4} s, max {:.4} s",
                sorted[0],
                sorted[sorted.len() - 1]
            )
        };
        notes.push(format!(
            "{} sessions, {} pairs of a timed repetition of {} ops and its baseline",
            self.setups.len(),
            self.reps.len(),
            self.ops_per_rep,
        ));
        notes.push(format!(
            "repetition: CPU {}; wall {}; {:.0} ops per CPU second by the fastest",
            summary(&self.reps.cpus),
            summary(&self.reps.walls),
            ops / fastest(&self.reps.cpus),
        ));
        notes.push(format!(
            "baseline: CPU {}; {:.0} ops per CPU second by the fastest",
            summary(&self.reps.base_cpus),
            ops / fastest(&self.reps.base_cpus),
        ));
        notes.push(format!(
            "baseline CPU / repetition CPU: {speedup:.4} by the fastest of each; pair by pair min {:.4}, median {by_pair_median:.4}, max {:.4}",
            by_pair[0],
            by_pair[by_pair.len() - 1]
        ));
        let in_ms = |seconds: &[f64]| {
            let ms: Vec<String> = seconds.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
            ms.join(" ")
        };
        notes.push(format!("set-up CPU ms, in order: {}", in_ms(&self.setups)));
        notes.push(format!(
            "repetition CPU ms, in order: {}",
            in_ms(&self.reps.cpus)
        ));
        notes.push(format!(
            "baseline CPU ms, in order: {}",
            in_ms(&self.reps.base_cpus)
        ));
        Report {
            attempted: self.attempted,
            failed: self.failed,
            metrics: m,
            rep_spread: rep_spread(&by_pair),
            notes,
        }
    }
}

/// A stream workload's generated input.
pub struct StreamInput {
    pub ops: Vec<GetOp>,
    /// Rank 1's window contents.
    pub window: Vec<u8>,
    pub cfg: ClampiConfig,
}

/// Untraced run of a stream workload: [`SESSIONS`] sessions (generate,
/// spawn, fill, one warm-up pass, then for a share of `o.seconds` timed
/// passes, each followed by its baseline: the same stream through the plain
/// window of the same session), then [`VIRT_REPS`] passes of the same stream
/// on the uncached path of a window that has no cache.
pub fn stream_end_to_end(o: &Opts, generate: impl Fn() -> StreamInput) -> EndToEnd {
    let mut setups = Vec::new();
    let mut reps = Reps::default();
    let (mut failed, mut passes_run) = (0, 0);
    // Every session does the same passes from the same state: the first
    // one's virtual time and counters are every session's.
    let mut first = None;
    for _ in 0..SESSIONS {
        let setup_start = cpu_seconds();
        let input = generate();
        let ((setup_s, session_reps, session_failed, virt), _) =
            session(&input.window, &input.cfg, |i| {
                // The first pass starts from an empty cache: it is the
                // warm-up of the host-time measurement and the first of the
                // VIRT_REPS passes the virtual-time metrics cover.
                let cold = i.cached_pass(&input.ops);
                let setup_s = cpu_seconds() - setup_start;
                let (mut failed, mut virt_ns, mut passes) = (cold.failed, cold.virt_ns, 1);
                let mut stats = i.stats();
                let reps = timed_pairs(o.seconds / SESSIONS as f64, MIN_REPS, |half| {
                    if half == Half::Baseline {
                        failed += i.uncached_pass(&input.ops).failed;
                        return;
                    }
                    let pass = i.cached_pass(&input.ops);
                    failed += pass.failed;
                    if passes < VIRT_REPS {
                        passes += 1;
                        virt_ns += pass.virt_ns;
                        stats = i.stats();
                    }
                });
                (setup_s, reps, failed, (virt_ns, stats))
            });
        setups.push(setup_s);
        failed += session_failed;
        passes_run += 1 + 2 * session_reps.len();
        reps.extend(session_reps);
        first.get_or_insert(virt);
    }
    let input = generate();
    let (uncached, _) = session(&input.window, &ClampiConfig::disabled(), |i| {
        Pass::repeated(VIRT_REPS, || i.uncached_pass(&input.ops))
    });
    let n = input.ops.len() as u64;
    let (virt_cached_ns, stats) = first.expect("at least one session");
    EndToEnd {
        setups,
        ops_per_rep: n,
        virt_ops: n * VIRT_REPS as u64,
        virt_cached_ns,
        virt_uncached_ns: uncached.virt_ns,
        attempted: n * (passes_run + VIRT_REPS) as u64,
        failed: failed + uncached.failed,
        notes: vec![format!(
            "first {VIRT_REPS} passes from an empty cache: hit ratio {:.4}, {} evictions",
            stats.hit_ratio(),
            stats.evictions
        )],
        reps,
    }
}

/// Traced run of a stream workload: the layer ladder over the first eighth
/// of the stream, under the workload's own configuration.
pub fn stream_traced(o: &Opts, workload: &str, input: &StreamInput) -> Report {
    let mut m = Metrics::new(&PER_LAYER);
    let mut rec = Recorder::new(0);
    let ops = ladder_prefix(&input.ops);
    let out = ladder::run(
        &ladder::Spec {
            ops,
            window: &input.window,
            cfg: &input.cfg,
            nb_batch: None,
            cold_passes: false,
            seconds: o.seconds,
        },
        &mut m,
        &mut rec,
    );
    let mut notes = vec![format!("ladder over {} gets", ops.len())];
    finish_traced(o, workload, &rec, &out.rungs, &mut notes);
    Report {
        attempted: out.attempted,
        failed: out.failed,
        rep_spread: rep_spread(&out.window_walls),
        metrics: m,
        notes,
    }
}

/// The part of a recorded stream the ladder replays: its first eighth, but
/// no fewer than 32 768 gets (or all of it, if it is shorter).
pub fn ladder_prefix(ops: &[GetOp]) -> &[GetOp] {
    &ops[..(ops.len() / 8).max(1 << 15).min(ops.len())]
}

/// Writes the trace file of a traced run (a failure to write is reported,
/// not fatal: the metrics are already measured).
pub fn finish_traced(
    o: &Opts,
    workload: &str,
    rec: &Recorder,
    rungs: &[(String, f64)],
    notes: &mut Vec<String>,
) {
    let path = o.out_dir.join(format!("{workload}.trace.json"));
    match write_trace(&path, workload, o.seed, rec.spans(), rungs) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        )),
        Err(e) => notes.push(format!("trace file {} not written: {e}", path.display())),
    }
}

/// Runs workload `name`. An untraced run keeps to one CPU
/// ([`crate::host::pin_to_one_cpu`]); a traced run keeps every CPU it has,
/// for the two-thread per-layer figures.
pub fn run(name: &str, o: &Opts) -> Result<Report, String> {
    let workload = match name {
        "hit_small" => hit_small::run,
        "miss_churn" => miss_churn::run,
        "bh_force" => bh_force::run,
        "lcc_adaptive" => lcc_adaptive::run,
        "dht_mixed" => dht_mixed::run,
        "shared_front" => shared_front::run,
        _ => {
            return Err(format!(
                "unknown workload `{name}` (expected one of {})",
                crate::names::WORKLOADS.join(", ")
            ))
        }
    };
    let pin = (!o.trace).then(crate::host::pin_to_one_cpu);
    let mut report = workload(o);
    report.notes.push(match pin {
        None => format!("not pinned: {} CPUs", crate::host::parallelism()),
        Some(None) => "the host refused the pin to one CPU".to_string(),
        Some(Some(cpu)) => format!("pinned to CPU {cpu}"),
    });
    Ok(report)
}
