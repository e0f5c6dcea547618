//! Distributed pull-based PageRank over RMA — a third irregular workload
//! in the spirit of the paper's graph-processing motivation.
//!
//! Unlike LCC (where the cached data — the graph — never changes),
//! PageRank's remote data is the *rank vector*, which changes every
//! iteration but is read-only **within** one iteration: each rank pulls
//! the previous iteration's scores of its vertices' neighbours. That is
//! exactly the paper's *user-defined* operational mode (Sec. III-A,
//! Listing 1): a block of read-only epochs per iteration, closed by an
//! explicit `CLAMPI_Invalidate`.
//!
//! The same remote score is pulled once per local edge pointing at it, so
//! hub vertices are fetched thousands of times per iteration — reuse that
//! only caching exploits, and reuse the *transparent* mode would destroy
//! (it invalidates at every epoch closure, i.e. after every miss's
//! flush). The unit tests pin both effects.

use clampi::{AccessType, CacheStats};
use clampi_rma::Process;
use clampi_workloads::Csr;

use crate::backend::{AnyWindow, Backend};
use crate::lcc::{vertex_owner, vertex_range};

/// PageRank configuration.
#[derive(Debug, Clone)]
pub struct PrConfig {
    /// Which layer fronts the score window.
    pub backend: Backend,
    /// Damping factor (0.85 canonical).
    pub damping: f64,
    /// Number of power iterations.
    pub iterations: usize,
    /// CPU nanoseconds charged per processed edge.
    pub edge_ns: f64,
    /// Publish each iteration's new scores **in place** through RMA `put`s
    /// into a single-buffer window instead of double-buffering via
    /// `local_mut`. This makes PageRank a read-write workload: every
    /// cached score goes stale once per iteration, which is exactly what
    /// the coherence subsystem ([`clampi::CoherenceMode`]) exists for —
    /// [`AnyWindow::validate`] after the post-put barrier makes the new
    /// scores safe to read through the cache.
    pub update_via_put: bool,
}

impl PrConfig {
    /// A configuration with the given backend and canonical parameters.
    pub fn with_backend(backend: Backend) -> Self {
        PrConfig {
            backend,
            damping: 0.85,
            iterations: 10,
            edge_ns: 2.0,
            update_via_put: false,
        }
    }

    /// The same configuration publishing scores in place via `put`.
    pub fn via_put(mut self) -> Self {
        self.update_via_put = true;
        self
    }
}

/// Per-rank result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PrResult {
    /// First owned vertex.
    pub lo: usize,
    /// Final scores of the owned vertices.
    pub scores: Vec<f64>,
    /// Virtual nanoseconds spent in the iteration loop.
    pub total_time_ns: f64,
    /// Remote score fetches issued (cache-level requests).
    pub remote_fetches: u64,
    /// CLaMPI statistics, if applicable.
    pub clampi_stats: Option<CacheStats>,
}

/// Sequential reference (identical arithmetic and iteration count).
pub fn sequential_pagerank(graph: &Csr, damping: f64, iterations: usize) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut pr = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..iterations {
        let base = (1.0 - damping) / n as f64;
        for (v, slot) in next.iter_mut().enumerate() {
            let mut sum = 0.0;
            for &u in graph.adj(v) {
                let du = graph.degree(u as usize);
                if du > 0 {
                    sum += pr[u as usize] / du as f64;
                }
            }
            *slot = base + damping * sum;
        }
        std::mem::swap(&mut pr, &mut next);
    }
    pr
}

/// Runs distributed pull-based PageRank; every rank passes the same
/// (replicated, deterministic) graph. The score window is double-buffered:
/// slot 0/1 alternate between "previous iteration, read-only" and "being
/// written", so the read side is cacheable for the whole iteration.
pub fn pagerank(p: &mut Process, graph: &Csr, cfg: &PrConfig) -> PrResult {
    let nranks = p.nranks();
    let rank = p.rank();
    let n = graph.num_vertices();
    let (lo, hi) = vertex_range(rank, n, nranks);
    let mine = hi - lo;
    let per = n.div_ceil(nranks);

    // Window layout: [old scores | new scores] of the owned block, 8 bytes
    // per vertex. `phase` selects which half is the read-only side. The
    // in-place (`update_via_put`) variant keeps a single buffer that is
    // overwritten by `put` every iteration.
    let half = (per * 8).max(8);
    let halves = if cfg.update_via_put { 1 } else { 2 };
    let mut win = AnyWindow::create(p, halves * half, &cfg.backend);

    let mut pr_local = vec![1.0 / n as f64; mine];
    {
        let mut m = win.local_mut();
        for (i, &v) in pr_local.iter().enumerate() {
            m[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
    }
    p.barrier();
    win.lock_all(p);

    let mut remote_fetches = 0u64;
    // One fetch slot per edge of the current vertex, reused across
    // vertices (grown to the largest degree seen).
    let mut fetch_bufs: Vec<[u8; 8]> = Vec::new();
    let t0 = p.now();

    let mut put_buf: Vec<u8> = Vec::new();
    for it in 0..cfg.iterations {
        let read_base = if cfg.update_via_put {
            0
        } else {
            (it % 2) * half
        };
        let write_base = if cfg.update_via_put {
            0
        } else {
            ((it + 1) % 2) * half
        };
        let base = (1.0 - cfg.damping) / n as f64;
        let mut next = vec![0.0f64; mine];

        for (li, v) in (lo..hi).enumerate() {
            let adj = graph.adj(v);
            if fetch_bufs.len() < adj.len() {
                fetch_bufs.resize(adj.len(), [0u8; 8]);
            }
            // Pass 1: issue one nonblocking get per remote neighbour —
            // the whole gather shares a single completion, and on the
            // CLaMPI backends adjacent scores coalesce on the wire.
            let mut any_pending = false;
            for (ei, &u) in adj.iter().enumerate() {
                let u = u as usize;
                if graph.degree(u) == 0 {
                    continue;
                }
                let owner = vertex_owner(u, n, nranks);
                if owner == rank {
                    continue;
                }
                remote_fetches += 1;
                let disp = read_base + (u - owner * per) * 8;
                let class = win.get_nb(p, &mut fetch_bufs[ei], owner, disp);
                if class != Some(AccessType::Hit) {
                    any_pending = true;
                }
            }
            if any_pending {
                win.flush_batch(p);
            }
            // Pass 2: reduce in adjacency order, so the floating-point
            // sum is bit-identical to the edge-at-a-time version.
            let mut sum = 0.0;
            for (ei, &u) in adj.iter().enumerate() {
                let u = u as usize;
                let du = graph.degree(u);
                if du == 0 {
                    continue;
                }
                let owner = vertex_owner(u, n, nranks);
                let score = if owner == rank {
                    pr_local[u - lo]
                } else {
                    f64::from_le_bytes(fetch_bufs[ei])
                };
                sum += score / du as f64;
            }
            p.compute(cfg.edge_ns * graph.degree(v) as f64);
            next[li] = base + cfg.damping * sum;
        }

        if cfg.update_via_put {
            // In-place publication: wait until every rank has finished
            // reading the old scores, overwrite them with one contiguous
            // put to our own block, complete it, and — once every write
            // is globally done — run a coherence pass so no rank can
            // serve the overwritten scores from its cache.
            p.barrier();
            put_buf.clear();
            for &v in &next {
                put_buf.extend_from_slice(&v.to_le_bytes());
            }
            if !put_buf.is_empty() {
                win.put(p, &put_buf, rank, 0);
            }
            win.flush_batch(p);
            pr_local = next;
            p.barrier();
            win.validate(p);
        } else {
            // Publish the new scores into the write half, then flip.
            {
                let mut m = win.local_mut();
                for (i, &v) in next.iter().enumerate() {
                    m[write_base + i * 8..write_base + (i + 1) * 8]
                        .copy_from_slice(&v.to_le_bytes());
                }
            }
            pr_local = next;
            // End of the read-only phase for this iteration's read half:
            // the user-defined invalidation of Listing 1.
            win.invalidate(p);
            p.barrier();
        }
    }
    let total_time_ns = p.now() - t0;
    let clampi_stats = win.clampi_stats();
    win.unlock_all(p);
    p.barrier();

    PrResult {
        lo,
        scores: pr_local,
        total_time_ns,
        remote_fetches,
        clampi_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi::{CacheParams, ClampiConfig, Mode};
    use clampi_rma::{run_collect, SimConfig};
    use clampi_workloads::RmatParams;

    fn stitch(n: usize, out: &[(clampi_rma::RankReport, PrResult)]) -> Vec<f64> {
        let mut pr = vec![0.0; n];
        for (_, r) in out {
            pr[r.lo..r.lo + r.scores.len()].copy_from_slice(&r.scores);
        }
        pr
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn distributed_matches_sequential() {
        let g = Csr::rmat(RmatParams::graph500(9, 8), 31);
        let cfg = PrConfig::with_backend(Backend::Fompi);
        let reference = sequential_pagerank(&g, cfg.damping, cfg.iterations);
        let out = run_collect(SimConfig::default(), 4, |p| pagerank(p, &g, &cfg));
        let got = stitch(g.num_vertices(), &out);
        assert!(max_err(&got, &reference) < 1e-12);
        // Probability mass is conserved (graph is symmetric: no dangling
        // vertices contribute, isolated ones keep base mass).
        let total: f64 = got.iter().sum();
        assert!((0.2..=1.0 + 1e-9).contains(&total), "mass {total}");
    }

    #[test]
    fn user_defined_caching_is_correct_and_faster() {
        let g = Csr::rmat(RmatParams::graph500(9, 8), 33);
        let fompi = PrConfig::with_backend(Backend::Fompi);
        let cached = PrConfig::with_backend(Backend::Clampi(ClampiConfig::fixed(
            Mode::UserDefined,
            CacheParams {
                index_entries: 1 << 14,
                storage_bytes: 4 << 20,
                ..CacheParams::default()
            },
        )));
        let reference = sequential_pagerank(&g, 0.85, 10);

        let a = run_collect(SimConfig::default(), 4, |p| pagerank(p, &g, &fompi));
        let b = run_collect(SimConfig::default(), 4, |p| pagerank(p, &g, &cached));
        assert!(max_err(&stitch(g.num_vertices(), &a), &reference) < 1e-12);
        assert!(
            max_err(&stitch(g.num_vertices(), &b), &reference) < 1e-12,
            "cached PageRank diverged — stale scores crossed an iteration"
        );

        let t_a: f64 = a.iter().map(|(_, r)| r.total_time_ns).fold(0.0, f64::max);
        let t_b: f64 = b.iter().map(|(_, r)| r.total_time_ns).fold(0.0, f64::max);
        assert!(t_b < t_a, "cached {t_b} >= uncached {t_a}");
        let stats = b[0].1.clampi_stats.unwrap();
        assert!(stats.hit_ratio() > 0.5, "hit ratio {}", stats.hit_ratio());
        // One invalidation per iteration (the Listing 1 pattern).
        assert!(stats.invalidations >= 10);
    }

    #[test]
    fn in_place_put_updates_stay_coherent_in_every_mode() {
        use clampi::CoherenceMode;
        // The read-write variant: scores are overwritten in place via put
        // every iteration. Any cache that serves one stale score diverges
        // from the sequential reference immediately.
        let g = Csr::rmat(RmatParams::graph500(8, 8), 37);
        let reference = sequential_pagerank(&g, 0.85, 10);

        let fompi = PrConfig::with_backend(Backend::Fompi).via_put();
        let out = run_collect(SimConfig::default(), 4, |p| pagerank(p, &g, &fompi));
        assert!(
            max_err(&stitch(g.num_vertices(), &out), &reference) < 1e-12,
            "uncached put-variant diverged"
        );

        for coherence in [CoherenceMode::EagerInvalidate, CoherenceMode::None] {
            let cached = PrConfig::with_backend(Backend::Clampi(ClampiConfig::fixed(
                Mode::AlwaysCache,
                CacheParams {
                    index_entries: 1 << 14,
                    storage_bytes: 4 << 20,
                    coherence,
                    ..CacheParams::default()
                },
            )))
            .via_put();
            let out = run_collect(SimConfig::default(), 4, |p| pagerank(p, &g, &cached));
            assert!(
                max_err(&stitch(g.num_vertices(), &out), &reference) < 1e-12,
                "{coherence:?}: a stale cached score crossed an iteration"
            );
            let stats = out[0].1.clampi_stats.unwrap();
            match coherence {
                CoherenceMode::EagerInvalidate => {
                    assert!(stats.notifications_drained > 0, "no notifications drained");
                    assert!(stats.stale_hits_prevented > 0, "no stale entries dropped");
                    assert!(stats.hit_ratio() > 0.3, "hit ratio {}", stats.hit_ratio());
                }
                CoherenceMode::None => {
                    // validate() had to fall back to full invalidation.
                    assert!(stats.invalidations >= 10);
                    assert_eq!(stats.notifications_drained, 0);
                }
            }
        }
    }

    #[test]
    fn eager_invalidation_preserves_within_iteration_reuse() {
        // With surgical invalidation the put-variant must still reuse hub
        // scores within an iteration, like the double-buffered run does.
        let g = Csr::rmat(RmatParams::graph500(8, 8), 39);
        let eager = PrConfig::with_backend(Backend::Clampi(ClampiConfig::fixed(
            Mode::AlwaysCache,
            CacheParams {
                index_entries: 1 << 14,
                storage_bytes: 4 << 20,
                coherence: clampi::CoherenceMode::EagerInvalidate,
                ..CacheParams::default()
            },
        )))
        .via_put();
        let out = run_collect(SimConfig::default(), 3, |p| pagerank(p, &g, &eager));
        let stats = out[0].1.clampi_stats.unwrap();
        assert!(stats.hits > 0, "no reuse at all");
        // Surgical coherence never needed a full cache wipe.
        assert_eq!(stats.invalidations, 0, "full invalidation ran");
        assert_eq!(stats.notification_overflows, 0, "ring overflowed");
    }

    #[test]
    fn transparent_mode_is_correct_but_reuse_free() {
        // Transparent mode invalidates at every epoch closure — i.e. after
        // each miss's flush — so it stays correct but gains nothing.
        let g = Csr::rmat(RmatParams::graph500(8, 8), 35);
        let transparent = PrConfig::with_backend(Backend::Clampi(ClampiConfig::fixed(
            Mode::Transparent,
            CacheParams::default(),
        )));
        let reference = sequential_pagerank(&g, 0.85, 10);
        let out = run_collect(SimConfig::default(), 3, |p| pagerank(p, &g, &transparent));
        assert!(max_err(&stitch(g.num_vertices(), &out), &reference) < 1e-12);
        let stats = out[0].1.clampi_stats.unwrap();
        assert_eq!(stats.hits, 0, "transparent mode cannot hit in this pattern");
    }
}
