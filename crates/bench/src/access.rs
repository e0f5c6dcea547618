//! Scenario builders that *force* each CLaMPI access type (Figs. 7–8).
//!
//! The paper characterizes the per-access-type costs (hit / direct /
//! conflicting / capacity / failing) by data size. Each scenario here
//! constructs a cache state in which the measured gets deterministically
//! classify as the requested type:
//!
//! - **hit**: the data was fetched (and the epoch closed) beforehand;
//! - **direct**: empty cache with abundant index and storage;
//! - **conflicting**: a minimal (4-slot) index kept full, so every new
//!   insertion walks into a Cuckoo cycle and evicts along its path;
//! - **capacity**: storage sized to exactly `PREFILL` entries and kept
//!   full, so every new entry needs one successful storage eviction;
//! - **failing**: storage smaller than one entry, so caching always fails
//!   after a (fruitless) eviction scan.
//!
//! Latency is the paper's definition: from issuing the get until the data
//! is consumable in the destination buffer — hits need no flush, all other
//! types pay get + flush.

use clampi::{AccessType, CacheParams, CachedWindow, ClampiConfig, Mode};
use clampi_datatype::Datatype;
use clampi_rma::{run_collect, SimConfig};

/// The access type to force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forced {
    /// foMPI: get + flush on a window with caching disabled
    /// ([`ClampiConfig::disabled`]), through the same loop as every other
    /// kind.
    Fompi,
    /// Cache hit.
    Hit,
    /// Direct access.
    Direct,
    /// Conflicting access (index eviction).
    Conflicting,
    /// Capacity access (storage eviction that succeeds).
    Capacity,
    /// Failing access (weak caching gives up).
    Failing,
}

impl Forced {
    /// Label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            Forced::Fompi => "foMPI",
            Forced::Hit => "hit",
            Forced::Direct => "direct",
            Forced::Conflicting => "conflicting",
            Forced::Capacity => "capacity",
            Forced::Failing => "failing",
        }
    }

    /// Every forced kind, figure order.
    pub const ALL: [Forced; 6] = [
        Forced::Fompi,
        Forced::Hit,
        Forced::Direct,
        Forced::Conflicting,
        Forced::Capacity,
        Forced::Failing,
    ];

    fn expected(&self) -> Option<AccessType> {
        match self {
            Forced::Fompi => None,
            Forced::Hit => Some(AccessType::Hit),
            Forced::Direct => Some(AccessType::Direct),
            Forced::Conflicting => Some(AccessType::Conflicting),
            Forced::Capacity => Some(AccessType::Capacity),
            Forced::Failing => Some(AccessType::Failed),
        }
    }
}

const PREFILL: usize = 8;

fn round_up64(x: usize) -> usize {
    x.max(1).div_ceil(64) * 64
}

fn cache_cfg(kind: Forced, size: usize) -> ClampiConfig {
    let params = match kind {
        Forced::Fompi => return ClampiConfig::disabled(),
        Forced::Hit | Forced::Direct => CacheParams {
            index_entries: 4096,
            storage_bytes: 64 << 20,
            ..CacheParams::default()
        },
        Forced::Conflicting => CacheParams {
            index_entries: 4,
            max_insert_iters: 8,
            storage_bytes: 64 << 20,
            ..CacheParams::default()
        },
        // Capacity/failing use a *dense* index: with a sparse one the
        // victim scan would visit hundreds of empty slots, the very effect
        // Fig. 11 (top) isolates separately.
        Forced::Capacity => CacheParams {
            index_entries: 4 * PREFILL,
            storage_bytes: PREFILL * round_up64(size),
            ..CacheParams::default()
        },
        Forced::Failing => CacheParams {
            index_entries: 16,
            storage_bytes: round_up64(size).saturating_sub(64),
            ..CacheParams::default()
        },
    };
    ClampiConfig::fixed(Mode::AlwaysCache, params)
}

/// One measured access: the observed classification and its latency; for
/// the overlap study also the issue-to-flush decomposition.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Observed classification (`None` for [`Forced::Fompi`]: a window
    /// with caching disabled classifies no get).
    pub class: Option<AccessType>,
    /// Nanoseconds until the destination buffer was consumable.
    pub latency_ns: f64,
}

/// Measures `reps` forced accesses of `size` bytes; `compute_ns > 0`
/// inserts that much computation between issue and flush (the Fig. 8
/// overlap protocol) — the returned latency then spans issue..flush-end.
///
/// Only samples whose observed class matches the forced kind are returned
/// (the scenarios are deterministic, so normally all of them).
pub fn measure(
    kind: Forced,
    size: usize,
    reps: usize,
    compute_ns: f64,
    _seed: u64,
) -> Vec<Measured> {
    let out = run_collect(SimConfig::bench(), 2, |p| {
        // Target exposes prefill + measurement regions.
        let span = (PREFILL + reps + 2) * size.max(1);
        let my = if p.rank() == 1 { span } else { 4 };
        let dtype = Datatype::bytes(size);

        let mut win = CachedWindow::create(p, my.max(4), cache_cfg(kind, size));
        p.barrier();
        let mut samples = Vec::new();
        if p.rank() == 0 {
            win.lock_all(p);
            let mut buf = vec![0u8; size];

            // Prefill per scenario.
            match kind {
                Forced::Hit => {
                    for r in 0..reps {
                        win.get(p, &mut buf, 1, (PREFILL + r) * size, &dtype, 1);
                        win.flush(p, 1);
                    }
                }
                Forced::Conflicting | Forced::Capacity => {
                    for i in 0..PREFILL {
                        win.get(p, &mut buf, 1, i * size, &dtype, 1);
                        win.flush(p, 1);
                    }
                }
                Forced::Fompi | Forced::Direct | Forced::Failing => {}
            }

            for r in 0..reps {
                let disp = (PREFILL + r) * size;
                let t0 = p.now();
                let class = win.get(p, &mut buf, 1, disp, &dtype, 1);
                if class != Some(AccessType::Hit) {
                    if compute_ns > 0.0 {
                        p.compute(compute_ns);
                    }
                    win.flush(p, 1);
                }
                let latency_ns = p.now() - t0;
                if class == kind.expected() {
                    samples.push(Measured { class, latency_ns });
                }
            }
            win.unlock_all(p);
        }
        p.barrier();
        samples
    });
    out.into_iter()
        .find(|(rep, _)| rep.rank == 0)
        .map(|(_, s)| s)
        .expect("rank 0 result")
}

/// The Fig. 8 overlap ratio for one kind/size: fraction of the pure
/// communication latency that computation can hide.
///
/// Protocol: `T_pure` = median latency without computation; re-run with
/// `c = T_pure` of computation inserted between issue and flush;
/// `overlap = (T_pure + c - T_total) / c`, clamped to `[0, 1]`.
pub fn overlap_ratio(kind: Forced, size: usize, reps: usize, seed: u64) -> Option<f64> {
    let pure: Vec<f64> = measure(kind, size, reps, 0.0, seed)
        .iter()
        .map(|m| m.latency_ns)
        .collect();
    if pure.is_empty() {
        return None;
    }
    let t_pure = crate::summary::median(pure);
    let with: Vec<f64> = measure(kind, size, reps, t_pure, seed)
        .iter()
        .map(|m| m.latency_ns)
        .collect();
    if with.is_empty() {
        return None;
    }
    let t_total = crate::summary::median(with);
    Some(((t_pure + t_pure - t_total) / t_pure).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::median;

    fn med(kind: Forced, size: usize) -> f64 {
        let s = measure(kind, size, 16, 0.0, 1);
        assert!(!s.is_empty(), "{kind:?} produced no matching samples");
        median(s.iter().map(|m| m.latency_ns).collect())
    }

    #[test]
    fn every_kind_is_forceable_at_4k() {
        for kind in Forced::ALL {
            let s = measure(kind, 4096, 12, 0.0, 2);
            assert!(
                s.len() >= 8,
                "{kind:?}: only {}/12 samples classified as forced",
                s.len()
            );
        }
    }

    #[test]
    fn hit_is_much_faster_than_fompi() {
        let hit = med(Forced::Hit, 4096);
        let fompi = med(Forced::Fompi, 4096);
        let speedup = fompi / hit;
        assert!(
            (3.0..15.0).contains(&speedup),
            "4 KiB hit speedup {speedup} out of the paper's band"
        );
    }

    #[test]
    fn miss_overhead_is_bounded() {
        // The paper's Fig. 7 shows miss-side overheads around or below 25%
        // of the foMPI latency; allow some slack.
        for kind in [Forced::Direct, Forced::Capacity, Forced::Failing] {
            let miss = med(kind, 4096);
            let fompi = med(Forced::Fompi, 4096);
            let overhead = (miss - fompi) / fompi;
            assert!(
                overhead < 0.5,
                "{kind:?} overhead {overhead} too large (miss {miss}, fompi {fompi})"
            );
        }
    }

    #[test]
    fn failing_overlaps_better_than_direct() {
        // No deferred cache-fill copy at flush => more of the wire time is
        // hideable (the Fig. 8 claim).
        let f = overlap_ratio(Forced::Failing, 16384, 8, 3).unwrap();
        let d = overlap_ratio(Forced::Direct, 16384, 8, 3).unwrap();
        assert!(f > d, "failing {f} <= direct {d}");
    }

    #[test]
    fn fompi_overlap_grows_with_size() {
        let small = overlap_ratio(Forced::Fompi, 64, 8, 4).unwrap();
        let large = overlap_ratio(Forced::Fompi, 65536, 8, 4).unwrap();
        assert!(large > small, "large {large} <= small {small}");
        assert!(large > 0.7, "64 KiB foMPI overlap {large} too low");
    }
}
