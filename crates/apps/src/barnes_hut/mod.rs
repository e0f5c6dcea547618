//! Distributed Barnes-Hut force computation over RMA (Sec. IV-B).
//!
//! Following the paper's adaptation of the Larkins et al. UPC
//! implementation, the octree lives in a *global address space*: every
//! tree node is owned by exactly one rank and stored as a fixed-size
//! record in that rank's RMA window. The force phase is a top-down
//! traversal that fetches node records — locally when owned, with
//! (optionally cached) gets otherwise. During the force phase the tree is
//! read-only, so CLaMPI runs in the *user-defined* mode: all gets are
//! cached and the cache is explicitly invalidated when the phase ends.
//!
//! The traversal needs each fetched record before it can descend (the
//! children ids steer it), so [`force_phase`] descends level by level:
//! it fetches every remote record of one frontier level as one batch of
//! `get_nb`s, completed by one `flush_batch` (skipped when no get of the
//! level missed). The misses of one level thus overlap their wire time,
//! on the cached and the uncached (foMPI) series alike. The paper's port
//! of the UPC code walks depth first instead, one blocking fetch per
//! remote node; ROADMAP item 3 measures that walk against this one.
//!
//! The force kernel's virtual cost is one `interaction_ns` charge per
//! visited node, whether the node is opened or its force summed, and
//! whatever arithmetic the host does for it: the host evaluates the
//! softened-gravity term as [`softened_inv_r3`] (one square root), and
//! the virtual clock, the visits, the fetches and every figure are the
//! same however that term is computed.

pub mod octree;

pub use octree::{direct_force, softened_inv_r3, OctNode, Octree, NODE_BYTES, NO_CHILD};

use clampi::{AccessType, CacheStats};
use clampi_rma::Process;
use clampi_workloads::Body;

use crate::backend::{AnyWindow, Backend};

/// Barnes-Hut configuration.
#[derive(Debug, Clone)]
pub struct BhConfig {
    /// Opening-angle parameter (the paper's φ; smaller = more accurate).
    pub theta: f64,
    /// Gravitational softening.
    pub eps: f64,
    /// CPU nanoseconds charged per visited tree node (the force kernel):
    /// one charge per visit, opened or summed, whatever arithmetic the
    /// host does for it.
    pub interaction_ns: f64,
    /// Which layer fronts the tree window.
    pub backend: Backend,
    /// Record every remote node fetch (pre-cache) for the Fig. 2 reuse
    /// histogram.
    pub trace_gets: bool,
}

impl BhConfig {
    /// A configuration with the given backend and default physics.
    pub fn with_backend(backend: Backend) -> Self {
        BhConfig {
            theta: 0.5,
            eps: 0.05,
            interaction_ns: 12.0,
            backend,
            trace_gets: false,
        }
    }
}

/// Per-rank result of one force-computation phase.
#[derive(Debug, Clone)]
pub struct BhResult {
    /// Bodies this rank computed forces for.
    pub local_bodies: usize,
    /// Virtual nanoseconds spent in the force phase (max-synchronized).
    pub force_time_ns: f64,
    /// Sum over local bodies of all force components (validation).
    pub force_checksum: f64,
    /// Tree nodes visited by all local traversals.
    pub nodes_visited: u64,
    /// Node records fetched from remote ranks (cache-level requests).
    pub remote_fetches: u64,
    /// CLaMPI statistics (if the backend is CLaMPI).
    pub clampi_stats: Option<CacheStats>,
    /// CLaMPI parameters after the phase (adaptive convergence).
    pub clampi_params: Option<(usize, usize)>,
    /// Native block-cache statistics (if the backend is the block cache).
    pub native_stats: Option<clampi::BlockCacheStats>,
    /// `(target, node id)` of every remote fetch, when tracing.
    pub trace: Vec<(usize, usize)>,
    /// Adaptive resize history (empty unless the backend is adaptive
    /// CLaMPI).
    pub resize_log: Vec<clampi::ResizeEvent>,
}

impl BhResult {
    /// Force-computation time per body in microseconds (the paper's
    /// Fig. 12/14 metric).
    pub fn time_per_body_us(&self) -> f64 {
        if self.local_bodies == 0 {
            0.0
        } else {
            self.force_time_ns / 1000.0 / self.local_bodies as f64
        }
    }
}

/// The owner rank of tree node `i` and its byte displacement inside the
/// owner's window, from one division: nodes are dealt round-robin, as the
/// chunked global-pointer allocation of Global Trees degenerates to for
/// small chunks.
pub fn node_home(i: usize, nranks: usize) -> (usize, usize) {
    (i % nranks, (i / nranks) * NODE_BYTES)
}

/// The byte displacement of node `i` inside its owner's window.
pub fn node_disp(i: usize, nranks: usize) -> usize {
    node_home(i, nranks).1
}

/// Number of nodes owned by `rank`.
pub fn nodes_owned(total: usize, rank: usize, nranks: usize) -> usize {
    (total + nranks - 1 - rank) / nranks
}

/// Runs one distributed force-computation phase. Every rank passes the
/// same (replicated) body array; rank `r` computes forces for its block of
/// bodies. Returns per-rank results; the caller typically reduces with
/// [`BhResult::time_per_body_us`].
pub fn force_phase(p: &mut Process, bodies: &[Body], cfg: &BhConfig) -> BhResult {
    let nranks = p.nranks();
    let rank = p.rank();

    // 1. Every rank builds the identical tree (deterministic).
    let tree = Octree::build(bodies);
    let nnodes = tree.len();

    // 2. Publish owned node records into the window.
    let win_size = nodes_owned(nnodes, rank, nranks) * NODE_BYTES;
    let mut win = AnyWindow::create(p, win_size.max(NODE_BYTES), &cfg.backend);
    {
        let mut mem = win.local_mut();
        for (i, node) in tree.nodes.iter().enumerate() {
            let (owner, disp) = node_home(i, nranks);
            if owner == rank {
                mem[disp..disp + NODE_BYTES].copy_from_slice(&node.encode());
            }
        }
    }
    p.barrier();
    win.lock_all(p);

    // 3. Force phase over the local body block.
    let per = bodies.len().div_ceil(nranks);
    let lo = (rank * per).min(bodies.len());
    let hi = ((rank + 1) * per).min(bodies.len());

    let mut checksum = 0.0f64;
    let mut visited = 0u64;
    let mut remote_fetches = 0u64;
    let mut trace = Vec::new();
    // Per-frontier fetch slots and whether each slot's node was fetched
    // (remote) or is read locally, reused across levels and bodies.
    let mut fetch_bufs: Vec<[u8; NODE_BYTES]> = Vec::new();
    let mut fetched: Vec<bool> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    let mut next_frontier: Vec<usize> = Vec::new();
    let t0 = p.now();

    for body in &bodies[lo..hi] {
        let mut force = [0.0f64; 3];
        // Level-synchronous descent: the whole frontier's remote records
        // are fetched as one nonblocking batch (a single completion per
        // level instead of a flush per node), then the records steer the
        // next level. Every backend traverses in this order, so their
        // floating-point sums stay comparable bit-for-bit.
        frontier.clear();
        frontier.push(0);
        while !frontier.is_empty() {
            if fetch_bufs.len() < frontier.len() {
                fetch_bufs.resize(frontier.len(), [0u8; NODE_BYTES]);
                fetched.resize(frontier.len(), false);
            }
            let mut any_pending = false;
            for (i, &id) in frontier.iter().enumerate() {
                let (owner, disp) = node_home(id, nranks);
                fetched[i] = owner != rank;
                if !fetched[i] {
                    continue;
                }
                remote_fetches += 1;
                if cfg.trace_gets {
                    trace.push((owner, id));
                }
                let class = win.get_nb(p, &mut fetch_bufs[i], owner, disp);
                if class != Some(AccessType::Hit) {
                    any_pending = true;
                }
            }
            if any_pending {
                win.flush_batch(p);
            }
            next_frontier.clear();
            for (i, &id) in frontier.iter().enumerate() {
                visited += 1;
                p.compute(cfg.interaction_ns);
                let node = if fetched[i] {
                    OctNode::decode(&fetch_bufs[i])
                } else {
                    // Locally owned nodes are read through the local
                    // pointer, as in the UPC code (no RMA, no cache).
                    tree.nodes[id]
                };
                if node.mass == 0.0 {
                    continue;
                }
                let dx = node.com[0] - body.pos[0];
                let dy = node.com[1] - body.pos[1];
                let dz = node.com[2] - body.pos[2];
                let d2 = dx * dx + dy * dy + dz * dz;
                let d = d2.sqrt();
                if !node.is_leaf() && 2.0 * node.half_width > cfg.theta * d {
                    for &c in &node.children {
                        if c != NO_CHILD {
                            next_frontier.push(c as usize);
                        }
                    }
                } else {
                    if d2 < 1e-24 {
                        continue;
                    }
                    let f = body.mass * node.mass * softened_inv_r3(d2, cfg.eps);
                    force[0] += f * dx;
                    force[1] += f * dy;
                    force[2] += f * dz;
                }
            }
            std::mem::swap(&mut frontier, &mut next_frontier);
        }
        checksum += force[0] + force[1] + force[2];
    }
    let force_time_ns = p.now() - t0;

    // 4. End of the read-only phase: explicit invalidation (user-defined
    // mode), then close the passive epoch.
    win.invalidate(p);
    let clampi_stats = win.clampi_stats();
    let clampi_params = win.clampi_params();
    let resize_log = win.clampi_resize_log();
    let native_stats = win.native_stats();
    win.unlock_all(p);
    p.barrier();

    BhResult {
        local_bodies: hi - lo,
        force_time_ns,
        force_checksum: checksum,
        nodes_visited: visited,
        remote_fetches,
        clampi_stats,
        clampi_params,
        native_stats,
        trace,
        resize_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi::{CacheParams, ClampiConfig, Mode};
    use clampi_rma::{run_collect, SimConfig};
    use clampi_workloads::plummer;

    fn total_checksum(results: &[BhResult]) -> f64 {
        results.iter().map(|r| r.force_checksum).sum()
    }

    #[test]
    fn distributed_forces_match_sequential_reference() {
        let bodies = plummer(200, 9);
        let cfg = BhConfig::with_backend(Backend::Fompi);
        let out = run_collect(SimConfig::default(), 4, |p| force_phase(p, &bodies, &cfg));

        // Sequential reference with identical tree and parameters.
        let tree = Octree::build(&bodies);
        let mut expect = 0.0;
        for b in &bodies {
            let (f, _) = tree.force_on(b, cfg.theta, cfg.eps);
            expect += f[0] + f[1] + f[2];
        }
        let got: f64 = out.iter().map(|(_, r)| r.force_checksum).sum();
        assert!(
            (got - expect).abs() < 1e-9 * expect.abs().max(1.0),
            "distributed {got} vs sequential {expect}"
        );
    }

    #[test]
    fn clampi_does_not_change_results() {
        let bodies = plummer(150, 11);
        let fompi = BhConfig::with_backend(Backend::Fompi);
        let cached = BhConfig::with_backend(Backend::Clampi(ClampiConfig::fixed(
            Mode::UserDefined,
            CacheParams::default(),
        )));
        let a = run_collect(SimConfig::default(), 3, |p| force_phase(p, &bodies, &fompi));
        let b = run_collect(SimConfig::default(), 3, |p| {
            force_phase(p, &bodies, &cached)
        });
        let ra: Vec<BhResult> = a.into_iter().map(|(_, r)| r).collect();
        let rb: Vec<BhResult> = b.into_iter().map(|(_, r)| r).collect();
        assert!((total_checksum(&ra) - total_checksum(&rb)).abs() < 1e-12);
    }

    #[test]
    fn clampi_is_faster_and_hits() {
        let bodies = plummer(300, 13);
        let fompi = BhConfig::with_backend(Backend::Fompi);
        let cached = BhConfig::with_backend(Backend::Clampi(ClampiConfig::fixed(
            Mode::UserDefined,
            CacheParams {
                index_entries: 1 << 15,
                storage_bytes: 8 << 20,
                ..CacheParams::default()
            },
        )));
        let a = run_collect(SimConfig::default(), 4, |p| force_phase(p, &bodies, &fompi));
        let b = run_collect(SimConfig::default(), 4, |p| {
            force_phase(p, &bodies, &cached)
        });
        let t_fompi: f64 = a.iter().map(|(_, r)| r.force_time_ns).fold(0.0, f64::max);
        let t_clampi: f64 = b.iter().map(|(_, r)| r.force_time_ns).fold(0.0, f64::max);
        assert!(
            t_clampi < t_fompi,
            "cached {t_clampi} >= uncached {t_fompi}"
        );
        let stats = b[0].1.clampi_stats.expect("clampi stats");
        assert!(
            stats.hit_ratio() > 0.5,
            "hit ratio {} too low for a BH traversal",
            stats.hit_ratio()
        );
    }

    #[test]
    fn native_backend_also_speeds_up_and_matches() {
        let bodies = plummer(150, 17);
        let fompi = BhConfig::with_backend(Backend::Fompi);
        let native = BhConfig::with_backend(Backend::Native(clampi::BlockCacheConfig::default()));
        let a = run_collect(SimConfig::default(), 2, |p| force_phase(p, &bodies, &fompi));
        let b = run_collect(SimConfig::default(), 2, |p| {
            force_phase(p, &bodies, &native)
        });
        let ra: Vec<BhResult> = a.into_iter().map(|(_, r)| r).collect();
        let rb: Vec<BhResult> = b.into_iter().map(|(_, r)| r).collect();
        assert!((total_checksum(&ra) - total_checksum(&rb)).abs() < 1e-12);
        let st = rb[0].native_stats.expect("native stats");
        assert!(st.block_hits > 0);
    }

    #[test]
    fn trace_records_remote_fetches() {
        let bodies = plummer(80, 19);
        let mut cfg = BhConfig::with_backend(Backend::Fompi);
        cfg.trace_gets = true;
        let out = run_collect(SimConfig::default(), 2, |p| force_phase(p, &bodies, &cfg));
        let r = &out[0].1;
        assert_eq!(r.trace.len() as u64, r.remote_fetches);
        assert!(r.remote_fetches > 0);
        // Repeated fetches of the same node exist (the Fig. 2 premise).
        use std::collections::HashMap;
        let mut h: HashMap<(usize, usize), usize> = HashMap::new();
        for &k in &r.trace {
            *h.entry(k).or_default() += 1;
        }
        assert!(h.values().any(|&c| c > 1), "no reuse in the BH traversal");
    }

    #[test]
    fn ownership_mapping_is_consistent() {
        let nranks = 7;
        let total = 1000;
        let mut per_rank = vec![0usize; nranks];
        for i in 0..total {
            let (o, disp) = node_home(i, nranks);
            assert_eq!(o, i % nranks);
            assert_eq!(disp, (i / nranks) * NODE_BYTES);
            assert_eq!(node_disp(i, nranks), disp);
            per_rank[o] += 1;
        }
        for (r, &owned) in per_rank.iter().enumerate() {
            assert_eq!(owned, nodes_owned(total, r, nranks), "rank {r}");
        }
    }

    #[test]
    fn adaptive_backend_resizes_without_changing_forces() {
        // A deliberately small start: the controller must grow the cache
        // during the phase, and every resize's invalidation must leave
        // the physics bit-equal to the uncached run.
        let bodies = plummer(600, 42);
        let start = CacheParams {
            index_entries: 64,
            storage_bytes: 4 << 10,
            ..CacheParams::default()
        };
        let adaptive = BhConfig::with_backend(Backend::Clampi(ClampiConfig::adaptive(
            Mode::UserDefined,
            start.clone(),
        )));
        let fompi = BhConfig::with_backend(Backend::Fompi);
        let a = run_collect(SimConfig::default(), 2, |p| {
            force_phase(p, &bodies, &adaptive)
        });
        let b = run_collect(SimConfig::default(), 2, |p| force_phase(p, &bodies, &fompi));
        for (rep, r) in &a {
            assert!(!r.resize_log.is_empty(), "rank {} never resized", rep.rank);
            let last = r.resize_log.last().unwrap();
            assert_eq!(
                r.clampi_params,
                Some((last.index_entries, last.storage_bytes)),
                "rank {}: final parameters are not the last resize's",
                rep.rank
            );
            assert!(
                last.index_entries * last.storage_bytes > start.index_entries * start.storage_bytes,
                "rank {}: {:?} did not grow from the start",
                rep.rank,
                r.resize_log
            );
        }
        let ra: Vec<BhResult> = a.into_iter().map(|(_, r)| r).collect();
        let rb: Vec<BhResult> = b.into_iter().map(|(_, r)| r).collect();
        assert_eq!(total_checksum(&ra).to_bits(), total_checksum(&rb).to_bits());
    }
}
