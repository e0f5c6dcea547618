//! Distributed Local Clustering Coefficient over RMA (Sec. IV-C).
//!
//! The graph is partitioned one-dimensionally: process `p_i` owns a
//! contiguous block of vertices and exposes the adjacency lists of its
//! vertices in its RMA window (as little-endian `u32` neighbour ids, one
//! list after the other). To compute `LCC(v)` for a local vertex `v`, the
//! process needs `adj(u)` for every neighbour `u` — a (cached) get when
//! `u` lives on another rank.
//!
//! The same vertex `u` appears in many adjacency lists, so its list is
//! fetched over and over: that is the data reuse CLaMPI exploits. The
//! graph is never modified, so the window runs in *always-cache* mode.
//!
//! The triangle kernel's virtual cost is `compare_ns` per unit of work,
//! and the work of a neighbour pair is the comparison count
//! [`intersect_sorted`] reports for it. The host does not run that
//! merge: [`AdjBitmap`] marks `adj(v)` once per vertex and derives each
//! pair's count and the same work from the marks, so the virtual clock,
//! `lcc_sum` and every figure are the reference's, however the host
//! computes them.

#![allow(clippy::needless_range_loop)] // vertex-id loops index parallel arrays

use clampi::CacheStats;
use clampi_rma::Process;
use clampi_workloads::Csr;

use crate::backend::{AnyWindow, Backend};

/// LCC configuration.
#[derive(Debug, Clone)]
pub struct LccConfig {
    /// Which layer fronts the adjacency window.
    pub backend: Backend,
    /// CPU nanoseconds charged per element touched by the sorted-list
    /// intersection kernel: per unit of the work [`intersect_sorted`]
    /// counts, whichever kernel the host runs.
    pub compare_ns: f64,
    /// Record the size of every remote get (pre-cache) for Fig. 3.
    pub trace_sizes: bool,
}

impl LccConfig {
    /// A configuration with the given backend and default kernel cost.
    pub fn with_backend(backend: Backend) -> Self {
        LccConfig {
            backend,
            compare_ns: 1.0,
            trace_sizes: false,
        }
    }
}

/// Per-rank result of one LCC computation.
#[derive(Debug, Clone)]
pub struct LccResult {
    /// Local vertices processed.
    pub local_vertices: usize,
    /// Sum of the local vertices' clustering coefficients (validation).
    pub lcc_sum: f64,
    /// Virtual nanoseconds spent in the vertex-processing loop.
    pub total_time_ns: f64,
    /// Remote adjacency fetches issued (cache-level requests).
    pub remote_fetches: u64,
    /// CLaMPI statistics, if applicable.
    pub clampi_stats: Option<CacheStats>,
    /// CLaMPI parameters after the run (adaptive convergence).
    pub clampi_params: Option<(usize, usize)>,
    /// Sizes (bytes) of remote gets, when tracing.
    pub trace_sizes: Vec<usize>,
}

impl LccResult {
    /// Vertex-processing time in microseconds per vertex (Fig. 15 metric).
    pub fn time_per_vertex_us(&self) -> f64 {
        if self.local_vertices == 0 {
            0.0
        } else {
            self.total_time_ns / 1000.0 / self.local_vertices as f64
        }
    }
}

/// 1D block partition: vertex `v` of `n` belongs to this rank.
pub fn vertex_owner(v: usize, n: usize, nranks: usize) -> usize {
    let per = n.div_ceil(nranks);
    (v / per).min(nranks - 1)
}

/// The `[lo, hi)` vertex block of `rank`.
pub fn vertex_range(rank: usize, n: usize, nranks: usize) -> (usize, usize) {
    let per = n.div_ceil(nranks);
    ((rank * per).min(n), ((rank + 1) * per).min(n))
}

/// Intersection size of two sorted u32 slices (the triangle kernel).
/// Returns `(count, work)` where `work` is the number of element
/// comparisons the kernel performed — the quantity charged to the virtual
/// clock. This is the reference that defines `work`; [`lcc_phase`]
/// computes the same pair with [`AdjBitmap::intersect`].
///
/// Scale-free graphs make the two lists wildly asymmetric (a low-degree
/// vertex against a hub), so a plain linear merge would touch the whole
/// hub list on every access. Like production triangle-counting kernels,
/// this switches to *galloping* (binary search of each element of the
/// short list in the long one) when the size ratio exceeds 8x, making the
/// work `|small| · log |large|` instead of `|small| + |large|`.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> (usize, usize) {
    if a.is_empty() || b.is_empty() {
        return (0, 0);
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() / 8 >= small.len() {
        // Galloping: binary-search each small element in the large list.
        let log = usize::BITS as usize - large.len().leading_zeros() as usize;
        let mut count = 0;
        for &x in small {
            if large.binary_search(&x).is_ok() {
                count += 1;
            }
        }
        (count, small.len() * log)
    } else {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        (count, i + j)
    }
}

/// The marked adjacency list of one vertex, as a bitmap over all `n`
/// vertex ids: [`AdjBitmap::intersect`] returns what [`intersect_sorted`]
/// returns for the marked list and another one, by probing the bitmap
/// instead of merging. One per rank: marking a list clears the one before,
/// each a pass over its list.
#[derive(Debug)]
pub struct AdjBitmap {
    words: Vec<u64>,
    marked: Vec<u32>,
}

impl AdjBitmap {
    /// An empty bitmap over vertex ids `0..n`.
    pub fn new(n: usize) -> Self {
        AdjBitmap {
            words: vec![0; n.div_ceil(64)],
            marked: Vec::new(),
        }
    }

    /// Marks `list` (strictly increasing ids below `n`), replacing the
    /// list marked before.
    pub fn mark(&mut self, list: &[u32]) {
        for &x in &self.marked {
            self.words[x as usize / 64] = 0;
        }
        self.marked.clear();
        self.marked.extend_from_slice(list);
        for &x in list {
            self.words[x as usize / 64] |= 1 << (x % 64);
        }
    }

    fn contains(&self, x: u32) -> bool {
        self.words[x as usize / 64] >> (x % 64) & 1 == 1
    }

    /// `intersect_sorted(marked, other)` for a strictly increasing `other`
    /// of ids below `n`.
    ///
    /// The count probes `other`'s ids in the bitmap, except where the
    /// reference gallops over `other` (the marked list is at least 8×
    /// shorter): there it binary-searches the marked ids in `other`, as the
    /// reference does. The work takes the reference's definition. A gallop
    /// costs `|small| · bits(|large|)`. A merge of the shorter list `S`
    /// with the longer `L` stops when one list runs out, so on strictly
    /// increasing lists it has taken `|S| + #{y ∈ L : y ≤ max S}` steps
    /// when `max S ≤ max L`, else `#{x ∈ S : x ≤ max L} + |L|`.
    pub fn intersect(&self, other: &[u32]) -> (usize, usize) {
        let marked = &self.marked[..];
        if marked.is_empty() || other.is_empty() {
            return (0, 0);
        }
        let marked_is_small = marked.len() <= other.len();
        let (small, large) = if marked_is_small {
            (marked, other)
        } else {
            (other, marked)
        };
        let gallop = large.len() / 8 >= small.len();
        let count = if gallop && marked_is_small {
            marked
                .iter()
                .filter(|x| other.binary_search(x).is_ok())
                .count()
        } else {
            other.iter().filter(|&&x| self.contains(x)).count()
        };
        let (max_s, max_l) = (small[small.len() - 1], large[large.len() - 1]);
        let work = if gallop {
            let log = usize::BITS as usize - large.len().leading_zeros() as usize;
            small.len() * log
        } else if max_s <= max_l {
            small.len() + large.partition_point(|&y| y <= max_s)
        } else {
            small.partition_point(|&x| x <= max_l) + large.len()
        };
        (count, work)
    }
}

/// Runs the distributed LCC computation. Every rank passes the same
/// (replicated, deterministic) graph; rank `r` computes LCC for its vertex
/// block.
pub fn lcc_phase(p: &mut Process, graph: &Csr, cfg: &LccConfig) -> LccResult {
    let nranks = p.nranks();
    let rank = p.rank();
    let n = graph.num_vertices();
    let (lo, hi) = vertex_range(rank, n, nranks);

    // Displacement of each vertex's adjacency inside its owner's window:
    // cumulative u32 counts, restarted at each partition boundary.
    // (Derivable locally because the graph is replicated; on a real system
    // this index is allgathered once at load time.)
    let mut disp_of = vec![0usize; n];
    let mut owner_bytes = vec![0usize; nranks];
    for v in 0..n {
        let o = vertex_owner(v, n, nranks);
        disp_of[v] = owner_bytes[o];
        owner_bytes[o] += graph.degree(v) * 4;
    }

    // Publish the local adjacency lists.
    let mut win = AnyWindow::create(p, owner_bytes[rank].max(4), &cfg.backend);
    {
        let mut mem = win.local_mut();
        for v in lo..hi {
            let mut off = disp_of[v];
            for &u in graph.adj(v) {
                mem[off..off + 4].copy_from_slice(&u.to_le_bytes());
                off += 4;
            }
        }
    }
    p.barrier();
    win.lock_all(p);

    let mut lcc_sum = 0.0f64;
    let mut remote_fetches = 0u64;
    let mut trace_sizes = Vec::new();
    let mut fetch_buf: Vec<u8> = Vec::new();
    let mut adj_buf: Vec<u32> = Vec::new();
    let mut adj_v_bits = AdjBitmap::new(n);
    let t0 = p.now();

    for v in lo..hi {
        let adj_v = graph.adj(v);
        let deg = adj_v.len();
        if deg < 2 {
            continue;
        }
        adj_v_bits.mark(adj_v);
        let mut closed = 0usize;
        for &u in adj_v {
            let u = u as usize;
            let owner = vertex_owner(u, n, nranks);
            let du = graph.degree(u);
            if du == 0 {
                continue;
            }
            let adj_u: &[u32] = if owner == rank {
                graph.adj(u)
            } else {
                remote_fetches += 1;
                if cfg.trace_sizes {
                    trace_sizes.push(du * 4);
                }
                fetch_buf.resize(du * 4, 0);
                win.get_sync(p, &mut fetch_buf, owner, disp_of[u]);
                adj_buf.clear();
                adj_buf.extend(fetch_buf.chunks_exact(4).map(|c| {
                    let mut a = [0u8; 4];
                    a.copy_from_slice(c);
                    u32::from_le_bytes(a)
                }));
                &adj_buf
            };
            let (count, touched) = adj_v_bits.intersect(adj_u);
            p.compute(cfg.compare_ns * touched as f64);
            closed += count;
        }
        // Each triangle edge (u,w) is counted once from u and once from w:
        // LCC = sum / (deg * (deg - 1)).
        lcc_sum += closed as f64 / (deg * (deg - 1)) as f64;
    }
    let total_time_ns = p.now() - t0;

    let clampi_stats = win.clampi_stats();
    let clampi_params = win.clampi_params();
    win.unlock_all(p);
    p.barrier();

    LccResult {
        local_vertices: hi - lo,
        lcc_sum,
        total_time_ns,
        remote_fetches,
        clampi_stats,
        clampi_params,
        trace_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi::{CacheParams, ClampiConfig, Mode};
    use clampi_rma::{run_collect, SimConfig};
    use clampi_workloads::RmatParams;

    fn reference_lcc_sum(g: &Csr) -> f64 {
        (0..g.num_vertices()).map(|v| g.lcc(v)).sum()
    }

    #[test]
    fn intersect_sorted_basic() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]).0, 2);
        assert_eq!(intersect_sorted(&[], &[1, 2]).0, 0);
        assert_eq!(intersect_sorted(&[4], &[4]).0, 1);
    }

    #[test]
    fn distributed_lcc_matches_reference() {
        let g = Csr::rmat(RmatParams::graph500(9, 8), 21);
        let cfg = LccConfig::with_backend(Backend::Fompi);
        let out = run_collect(SimConfig::default(), 4, |p| lcc_phase(p, &g, &cfg));
        let got: f64 = out.iter().map(|(_, r)| r.lcc_sum).sum();
        let expect = reference_lcc_sum(&g);
        assert!(
            (got - expect).abs() < 1e-9 * expect.max(1.0),
            "distributed {got} vs reference {expect}"
        );
    }

    #[test]
    fn clampi_matches_and_hits() {
        let g = Csr::rmat(RmatParams::graph500(9, 8), 23);
        let fompi = LccConfig::with_backend(Backend::Fompi);
        let cached = LccConfig::with_backend(Backend::Clampi(ClampiConfig::fixed(
            Mode::AlwaysCache,
            CacheParams {
                index_entries: 1 << 14,
                storage_bytes: 16 << 20,
                ..CacheParams::default()
            },
        )));
        let a = run_collect(SimConfig::default(), 4, |p| lcc_phase(p, &g, &fompi));
        let b = run_collect(SimConfig::default(), 4, |p| lcc_phase(p, &g, &cached));
        let sum_a: f64 = a.iter().map(|(_, r)| r.lcc_sum).sum();
        let sum_b: f64 = b.iter().map(|(_, r)| r.lcc_sum).sum();
        assert!((sum_a - sum_b).abs() < 1e-12);

        let t_a: f64 = a.iter().map(|(_, r)| r.total_time_ns).fold(0.0, f64::max);
        let t_b: f64 = b.iter().map(|(_, r)| r.total_time_ns).fold(0.0, f64::max);
        assert!(t_b < t_a, "cached {t_b} >= uncached {t_a}");
        let stats = b[0].1.clampi_stats.unwrap();
        assert!(stats.hit_ratio() > 0.3, "hit ratio {}", stats.hit_ratio());
    }

    #[test]
    fn trace_collects_get_sizes() {
        let g = Csr::rmat(RmatParams::graph500(8, 8), 25);
        let mut cfg = LccConfig::with_backend(Backend::Fompi);
        cfg.trace_sizes = true;
        let out = run_collect(SimConfig::default(), 2, |p| lcc_phase(p, &g, &cfg));
        let r = &out[1].1;
        assert_eq!(r.trace_sizes.len() as u64, r.remote_fetches);
        assert!(r.trace_sizes.iter().all(|&s| s % 4 == 0 && s > 0));
    }

    #[test]
    fn partition_covers_all_vertices_once() {
        let n = 103;
        let nranks = 8;
        let mut seen = vec![false; n];
        for r in 0..nranks {
            let (lo, hi) = vertex_range(r, n, nranks);
            for v in lo..hi {
                assert!(!seen[v], "vertex {v} in two partitions");
                seen[v] = true;
                assert_eq!(vertex_owner(v, n, nranks), r);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_rank_needs_no_network() {
        let g = Csr::rmat(RmatParams::graph500(7, 8), 27);
        let cfg = LccConfig::with_backend(Backend::Fompi);
        let out = run_collect(SimConfig::default(), 1, |p| lcc_phase(p, &g, &cfg));
        assert_eq!(out[0].1.remote_fetches, 0);
        let expect = reference_lcc_sum(&g);
        assert!((out[0].1.lcc_sum - expect).abs() < 1e-9);
    }
}
