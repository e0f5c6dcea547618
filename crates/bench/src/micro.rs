//! Shared driver for the Sec. IV-A micro-benchmark (used by the Fig. 9,
//! 10 and 11 binaries): two ranks, the initiator replays the generated
//! get sequence against the target's window through a chosen backend.

use clampi::CacheStats;
use clampi_apps::{AnyWindow, Backend};
use clampi_rma::{run_collect, SimConfig};
use clampi_workloads::{micro::MicroParams, MicroWorkload};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct MicroRunConfig {
    /// The layer under test.
    pub backend: Backend,
    /// Workload shape (N, Z, size range).
    pub params: MicroParams,
    /// Workload seed.
    pub seed: u64,
    /// Record the storage occupancy every this many gets once the buffer
    /// has saturated (0 disables tracing).
    pub sample_every: usize,
}

/// Driver output (from the initiator rank).
#[derive(Debug, Clone)]
pub struct MicroRunResult {
    /// Virtual nanoseconds from the first get to after the last completes.
    pub completion_ns: f64,
    /// Cache statistics (no cache counters for foMPI, whose window has
    /// caching disabled).
    pub stats: CacheStats,
    /// Final `(|I_w|, |S_w|)` for CLaMPI backends.
    pub final_params: Option<(usize, usize)>,
    /// `(get seq, occupied fraction)` samples, from the first
    /// capacity/failed access on (Fig. 10's series).
    pub occupancy_trace: Vec<(u64, f64)>,
    /// `(get seq, free bytes)` samples on the same schedule.
    pub free_trace: Vec<(u64, usize)>,
}

/// Deterministic fill pattern of the target window.
fn pattern(off: usize) -> u8 {
    ((off as u64).wrapping_mul(2_654_435_761) >> 24) as u8
}

/// Runs the micro-benchmark and returns the initiator's measurements.
pub fn run_micro(cfg: &MicroRunConfig) -> MicroRunResult {
    let out = run_collect(SimConfig::bench(), 2, |p| {
        // Both ranks generate the identical workload (deterministic).
        let wl = MicroWorkload::generate(cfg.params, cfg.seed);
        let my_size = if p.rank() == 1 { wl.window_size } else { 4 };
        let mut win = AnyWindow::create(p, my_size.max(4), &cfg.backend);
        if p.rank() == 1 {
            let mut mem = win.local_mut();
            for (off, b) in mem.iter_mut().enumerate() {
                *b = pattern(off);
            }
        }
        p.barrier();

        let mut result = None;
        if p.rank() == 0 {
            win.lock_all(p);
            let mut buf: Vec<u8> = Vec::new();
            let mut occupancy_trace = Vec::new();
            let mut free_trace = Vec::new();
            let mut saturated = false;
            let t0 = p.now();
            for (i, g) in wl.issued().enumerate() {
                buf.resize(g.size, 0);
                win.get_sync(p, &mut buf, 1, g.disp);
                assert_eq!(
                    buf[0],
                    pattern(g.disp),
                    "corrupt data at get {i} (disp {})",
                    g.disp
                );
                if cfg.sample_every > 0 {
                    if let AnyWindow::Clampi(w) = &win {
                        if let Some(c) = w.cache() {
                            let s = c.stats();
                            if !saturated && s.capacity + s.failed > 0 {
                                saturated = true;
                            }
                            if saturated && i % cfg.sample_every == 0 {
                                occupancy_trace.push((i as u64, c.occupancy()));
                                free_trace.push((i as u64, c.free_bytes()));
                            }
                        }
                    }
                }
            }
            let completion_ns = p.now() - t0;
            let stats = win.clampi_stats().unwrap_or_default();
            let final_params = win.clampi_params();
            win.unlock_all(p);
            result = Some(MicroRunResult {
                completion_ns,
                stats,
                final_params,
                occupancy_trace,
                free_trace,
            });
        }
        p.barrier();
        result
    });
    out.into_iter()
        .find_map(|(_, r)| r)
        .expect("initiator produced no result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi::{CacheParams, ClampiConfig, Mode};

    fn small_params() -> MicroParams {
        MicroParams {
            distinct: 64,
            sequence_len: 1500,
            max_exp: 10,
        }
    }

    #[test]
    fn fompi_baseline_runs_and_costs_time() {
        let r = run_micro(&MicroRunConfig {
            backend: Backend::Fompi,
            params: small_params(),
            seed: 1,
            sample_every: 0,
        });
        assert!(r.completion_ns > 0.0);
        assert_eq!(
            r.stats.total_gets, 0,
            "a window with caching disabled classifies no get"
        );
    }

    #[test]
    fn clampi_beats_fompi_on_reuse_heavy_sequence() {
        let base = run_micro(&MicroRunConfig {
            backend: Backend::Fompi,
            params: small_params(),
            seed: 2,
            sample_every: 0,
        });
        let cached = run_micro(&MicroRunConfig {
            backend: Backend::Clampi(ClampiConfig::fixed(
                Mode::AlwaysCache,
                CacheParams {
                    index_entries: 512,
                    storage_bytes: 4 << 20,
                    ..CacheParams::default()
                },
            )),
            params: small_params(),
            seed: 2,
            sample_every: 0,
        });
        assert!(
            cached.completion_ns < base.completion_ns / 2.0,
            "cached {} vs fompi {}",
            cached.completion_ns,
            base.completion_ns
        );
        assert!(cached.stats.hit_ratio() > 0.8);
    }

    #[test]
    fn occupancy_trace_appears_under_pressure() {
        let r = run_micro(&MicroRunConfig {
            backend: Backend::Clampi(ClampiConfig::fixed(
                Mode::AlwaysCache,
                CacheParams {
                    index_entries: 256,
                    storage_bytes: 4 << 10, // tiny: force capacity traffic
                    ..CacheParams::default()
                },
            )),
            params: small_params(),
            seed: 3,
            sample_every: 10,
        });
        assert!(r.stats.capacity + r.stats.failed > 0);
        assert!(!r.occupancy_trace.is_empty());
        for &(_, occ) in &r.occupancy_trace {
            assert!((0.0..=1.0).contains(&occ));
        }
    }
}
