//! The LogGP-style cost model charged for every simulated operation.
//!
//! A transfer of `s` bytes between ranks at distance `d` costs
//!
//! ```text
//!   CPU  : o                      (issue overhead, not overlappable)
//!   wire : L(d) + s · G(d)        (overlappable with computation)
//! ```
//!
//! plus, for non-contiguous datatypes, one `(L, G)` charge per flattened
//! block beyond the first — RDMA hardware issues one descriptor per
//! contiguous chunk.
//!
//! Local memory copies (cache fills, cache hits, self-targeted transfers)
//! cost `c0 + s · c_B` of CPU time.
//!
//! The default constants are calibrated against the paper's Fig. 1 (Cray
//! Aries, foMPI): ~0.1 µs for node-local DRAM copies, 0.4–2.5 µs
//! remote-access latency depending on distance, ~10 GB/s wire bandwidth,
//! ~20 GB/s local copy bandwidth.

use crate::topology::{Distance, Topology};

/// The CPU/wire split of one transfer, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCost {
    /// Non-overlappable initiator CPU time.
    pub cpu_ns: f64,
    /// Overlappable network time.
    pub wire_ns: f64,
}

impl TransferCost {
    /// Total latency if nothing overlaps the wire.
    pub fn total(&self) -> f64 {
        self.cpu_ns + self.wire_ns
    }
}

/// Cost-model parameters. All times in nanoseconds, per-byte costs in
/// nanoseconds per byte.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// CPU overhead to issue one RMA operation (`o` in LogGP).
    pub issue_overhead_ns: f64,
    /// CPU overhead of a synchronization call (flush/lock_all/unlock_all base cost).
    pub sync_overhead_ns: f64,
    /// Wire latency `L` per distance class, indexed by [`Distance`] order
    /// (self, node, chassis, group, remote group).
    pub latency_ns: [f64; 5],
    /// Per-byte wire cost `G` per distance class (inverse bandwidth).
    pub per_byte_ns: [f64; 5],
    /// Extra wire latency charged per additional non-contiguous block in a
    /// flattened datatype.
    pub per_block_ns: f64,
    /// Fixed CPU cost of a local memory copy.
    pub memcpy_base_ns: f64,
    /// Per-byte CPU cost of a local memory copy (inverse copy bandwidth).
    pub memcpy_per_byte_ns: f64,
    /// The placement used to classify rank pairs.
    pub topology: Topology,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel {
            issue_overhead_ns: 120.0,
            sync_overhead_ns: 250.0,
            latency_ns: [
                0.0,    // self: pure memcpy
                450.0,  // same node (XPMEM-style shared memory)
                1800.0, // same chassis (backplane)
                2100.0, // same group (electrical)
                2600.0, // remote group (optical)
            ],
            per_byte_ns: [
                0.0,   // self
                0.055, // same node ~18 GB/s
                0.10,  // chassis ~10 GB/s
                0.10,  // group
                0.11,  // remote group
            ],
            per_block_ns: 60.0,
            memcpy_base_ns: 40.0,
            memcpy_per_byte_ns: 0.05, // ~20 GB/s local copy
            topology: Topology::default(),
        }
    }
}

impl NetModel {
    /// A model with the default Aries-like constants over a custom topology.
    pub fn with_topology(topology: Topology) -> Self {
        NetModel {
            topology,
            ..NetModel::default()
        }
    }

    fn class(&self, d: Distance) -> usize {
        match d {
            Distance::SelfRank => 0,
            Distance::SameNode => 1,
            Distance::SameChassis => 2,
            Distance::SameGroup => 3,
            Distance::RemoteGroup => 4,
        }
    }

    /// Cost of moving `size` bytes in `nblocks` contiguous chunks between
    /// `initiator` and `target`.
    ///
    /// Self-targeted transfers are pure local copies (no wire time): RDMA to
    /// yourself short-circuits through memory, which is also what foMPI does.
    pub fn transfer_cost(
        &self,
        initiator: usize,
        target: usize,
        size: usize,
        nblocks: usize,
    ) -> TransferCost {
        self.transfer_cost_at(self.topology.distance(initiator, target), size, nblocks)
    }

    /// Cost of a transfer by explicit distance class (used by Fig. 1, which
    /// sweeps classes without instantiating ranks).
    pub fn transfer_cost_at(&self, d: Distance, size: usize, nblocks: usize) -> TransferCost {
        if d == Distance::SelfRank {
            return TransferCost {
                cpu_ns: self.issue_overhead_ns + self.memcpy_cost(size),
                wire_ns: 0.0,
            };
        }
        let c = self.class(d);
        let extra_blocks = nblocks.saturating_sub(1) as f64;
        TransferCost {
            cpu_ns: self.issue_overhead_ns,
            wire_ns: self.latency_ns[c]
                + size as f64 * self.per_byte_ns[c]
                + extra_blocks * self.per_block_ns,
        }
    }

    /// CPU cost of copying `size` bytes locally.
    pub fn memcpy_cost(&self, size: usize) -> f64 {
        if size == 0 {
            0.0
        } else {
            self.memcpy_base_ns + size as f64 * self.memcpy_per_byte_ns
        }
    }

    /// CPU cost model for a synchronizing call (flush, lock_all, unlock_all).
    pub fn sync_cost(&self) -> f64 {
        self.sync_overhead_ns
    }

    /// Model cost of a dissemination barrier over `nranks` ranks: one
    /// remote-group round trip per stage.
    pub fn barrier_cost(&self, nranks: usize) -> f64 {
        if nranks <= 1 {
            return 0.0;
        }
        let stages = (nranks as f64).log2().ceil();
        stages * (self.latency_ns[4] + self.issue_overhead_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies_match_fig1_range() {
        let m = NetModel::default();
        // Small remote get lands in the 1-3 us band from the paper's Fig. 1.
        let far = m.transfer_cost_at(Distance::RemoteGroup, 8, 1).total();
        assert!((1000.0..3500.0).contains(&far), "far = {far}");
        // Local DRAM copy is ~100 ns or less at small sizes.
        let local = m.memcpy_cost(64);
        assert!(local < 100.0, "local = {local}");
    }

    #[test]
    fn latency_monotonic_in_distance() {
        let m = NetModel::default();
        let mut prev = -1.0;
        for d in Distance::ALL {
            let t = m.transfer_cost_at(d, 1024, 1).total();
            assert!(t > prev, "{d:?}: {t} <= {prev}");
            prev = t;
        }
    }

    #[test]
    fn cost_monotonic_in_size() {
        let m = NetModel::default();
        let small = m.transfer_cost_at(Distance::SameGroup, 64, 1).total();
        let large = m.transfer_cost_at(Distance::SameGroup, 65536, 1).total();
        assert!(large > small);
        // At 64 KiB the bandwidth term dominates latency.
        assert!(large > 3.0 * small);
    }

    #[test]
    fn self_transfer_has_no_wire_time() {
        let m = NetModel::default();
        let c = m.transfer_cost(3, 3, 4096, 1);
        assert_eq!(c.wire_ns, 0.0);
        assert!(c.cpu_ns > 0.0);
    }

    #[test]
    fn extra_blocks_cost_extra() {
        let m = NetModel::default();
        let dense = m.transfer_cost_at(Distance::SameChassis, 4096, 1);
        let sparse = m.transfer_cost_at(Distance::SameChassis, 4096, 8);
        assert!(sparse.wire_ns > dense.wire_ns);
        assert_eq!(sparse.cpu_ns, dense.cpu_ns);
    }

    #[test]
    fn zero_byte_memcpy_is_free() {
        let m = NetModel::default();
        assert_eq!(m.memcpy_cost(0), 0.0);
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let m = NetModel::default();
        assert_eq!(m.barrier_cost(1), 0.0);
        let b16 = m.barrier_cost(16);
        let b128 = m.barrier_cost(128);
        assert!(b128 > b16);
        assert!(b128 < 2.0 * b16);
    }

    #[test]
    fn hit_vs_remote_ratio_in_paper_band() {
        // The paper reports a cached hit up to 9.3x faster than a foMPI get
        // at 4 KiB. Our model: remote get ~ o + L + s*G vs lookup+memcpy.
        let m = NetModel::default();
        let remote = m.transfer_cost_at(Distance::SameGroup, 4096, 1).total() + m.sync_cost();
        let hit = 200.0 + m.memcpy_cost(4096); // lookup ~200ns + copy
        let ratio = remote / hit;
        assert!((3.0..12.0).contains(&ratio), "ratio = {ratio}");
    }
}
