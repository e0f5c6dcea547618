//! CPU-time model for cache-management activities.
//!
//! The paper's Fig. 7 decomposes a `get_c` into lookup, eviction, and data
//! copy phases and shows that the management overhead stays a small,
//! roughly constant fraction of the uncached get latency. In the simulator,
//! cache management is charged to the initiating rank's virtual clock as
//! *CPU* time (non-overlappable — the rank's core executes it), while data
//! copies use the shared memcpy model from
//! [`clampi_rma::NetModel::memcpy_cost`].
//!
//! Defaults are calibrated so that a full hit at 4 KiB lands near the
//! paper's "up to 9.3x faster than foMPI" and the miss-side overhead stays
//! around the 25 % line drawn in Fig. 7.

/// Nanosecond costs of the individual cache-management activities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheCostModel {
    /// One index lookup (constant: p probes of the Cuckoo table).
    pub lookup_ns: f64,
    /// Per displacement step of a Cuckoo insertion.
    pub insert_step_ns: f64,
    /// Per index slot visited by the victim-selection scan (includes the
    /// score computation for non-empty slots).
    ///
    /// The ranged invalidations (`invalidate_range`,
    /// `invalidate_overlapping_stale`) charge the same constant for the work they do in the ordered extent
    /// directory: once per probe (the seek) and once per entry examined —
    /// plus, the first time a shard invalidates by range, once per index
    /// slot for the pass that builds its directory.
    pub evict_visit_ns: f64,
    /// One best-fit allocation or free in the storage's free-region index
    /// (the paper's AVL tree; the model keeps its constant).
    pub alloc_ns: f64,
    /// Fixed bookkeeping per epoch-close hook invocation.
    pub epoch_hook_ns: f64,
    /// Fixed CPU cost of one cache data copy (mirrors
    /// [`clampi_rma::NetModel::memcpy_base_ns`]).
    pub memcpy_base_ns: f64,
    /// Per-byte CPU cost of cache data copies.
    pub memcpy_per_byte_ns: f64,
    /// One shadow-cache slot inspection in the policy lab
    /// ([`crate::vcache`]): a tag compare plus a branch over a ~32-byte
    /// record in a dense array — far cheaper than `evict_visit_ns`,
    /// which prices a live-index probe with its f64 score computation.
    /// Shadow work is *never* charged to the live virtual clock (the lab
    /// is observation-only); this constant exists so benches can price
    /// the lab's overhead from
    /// [`crate::CacheStats::shadow_slot_visits`].
    pub shadow_visit_ns: f64,
}

impl Default for CacheCostModel {
    fn default() -> Self {
        CacheCostModel {
            lookup_ns: 60.0,
            insert_step_ns: 35.0,
            evict_visit_ns: 18.0,
            alloc_ns: 90.0,
            epoch_hook_ns: 50.0,
            memcpy_base_ns: 30.0,
            memcpy_per_byte_ns: 0.05,
            shadow_visit_ns: 2.0,
        }
    }
}

impl CacheCostModel {
    /// A zero-cost model (for unit tests that assert pure algorithmic
    /// behaviour without timing).
    pub fn free() -> Self {
        CacheCostModel {
            lookup_ns: 0.0,
            insert_step_ns: 0.0,
            evict_visit_ns: 0.0,
            alloc_ns: 0.0,
            epoch_hook_ns: 0.0,
            memcpy_base_ns: 0.0,
            memcpy_per_byte_ns: 0.0,
            shadow_visit_ns: 0.0,
        }
    }

    /// A model whose copy costs mirror the given network model's local
    /// memcpy parameters (keeps cache copies and simulator copies on the
    /// same memory-bandwidth assumption).
    pub fn matching(netmodel: &clampi_rma::NetModel) -> Self {
        CacheCostModel {
            memcpy_base_ns: netmodel.memcpy_base_ns,
            memcpy_per_byte_ns: netmodel.memcpy_per_byte_ns,
            ..CacheCostModel::default()
        }
    }

    /// CPU cost of copying `size` bytes between the cache and a user buffer.
    pub fn memcpy_cost(&self, size: usize) -> f64 {
        if size == 0 {
            0.0
        } else {
            self.memcpy_base_ns + size as f64 * self.memcpy_per_byte_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hit_cost_is_small_vs_remote_get() {
        // Hit = lookup + 4 KiB memcpy; remote = o + L + size*G + sync.
        let c = CacheCostModel::default();
        let m = clampi_rma::NetModel::default();
        let hit = c.lookup_ns + m.memcpy_cost(4096);
        let remote = m
            .transfer_cost_at(clampi_rma::Distance::SameGroup, 4096, 1)
            .total()
            + m.sync_cost();
        let speedup = remote / hit;
        assert!((4.0..12.0).contains(&speedup), "speedup = {speedup}");
    }

    #[test]
    fn free_model_charges_nothing() {
        let c = CacheCostModel::free();
        assert_eq!(c.lookup_ns, 0.0);
        assert_eq!(c.alloc_ns, 0.0);
    }
}

#[cfg(test)]
mod matching_tests {
    use super::*;

    #[test]
    fn matching_mirrors_the_netmodel_memcpy() {
        let m = clampi_rma::NetModel::default();
        let c = CacheCostModel::matching(&m);
        assert_eq!(c.memcpy_base_ns, m.memcpy_base_ns);
        assert_eq!(c.memcpy_per_byte_ns, m.memcpy_per_byte_ns);
        assert_eq!(c.memcpy_cost(1000), m.memcpy_cost(1000));
        assert_eq!(c.memcpy_cost(0), 0.0);
    }
}
