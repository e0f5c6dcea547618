//! The "native" baseline: a direct-mapped, fixed-block-size software cache.
//!
//! The paper's Barnes-Hut evaluation (Fig. 12) compares CLaMPI against an
//! ad-hoc caching system included in the reference UPC implementation,
//! described as "a block-based software cache with direct mapping, hence
//! the number of conflicts is strictly related to the available memory
//! size". This module reimplements that design over the RMA simulator:
//!
//! - the cache memory is divided into `memory_bytes / block_size` blocks;
//! - a request for `[disp, disp + len)` is split at block boundaries; each
//!   covering block maps to exactly one cache slot (direct mapping) keyed
//!   by `(target, block number)`;
//! - a miss fetches the *whole* block (internal fragmentation: small
//!   requests drag in `block_size` bytes), a hit copies locally;
//! - invalidation is explicit, as in the UPC code.

use clampi_datatype::{Block, Datatype, FlatLayout};
use clampi_rma::{Process, Window};

use crate::costs::CacheCostModel;

/// Configuration of the block cache.
#[derive(Debug, Clone)]
pub struct BlockCacheConfig {
    /// Fixed block size in bytes.
    pub block_size: usize,
    /// Total cache memory (the comparison knob in Fig. 12).
    pub memory_bytes: usize,
    /// CPU cost model shared with CLaMPI for a fair comparison.
    pub costs: CacheCostModel,
}

impl Default for BlockCacheConfig {
    fn default() -> Self {
        BlockCacheConfig {
            block_size: 512,
            memory_bytes: 1 << 20,
            costs: CacheCostModel::default(),
        }
    }
}

/// Counters of the block cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Gets processed.
    pub total_gets: u64,
    /// Block lookups that hit.
    pub block_hits: u64,
    /// Block lookups that missed (each triggers a block fetch).
    pub block_misses: u64,
    /// Bytes fetched from the network (whole blocks).
    pub bytes_fetched: u64,
    /// Bytes served from cache memory.
    pub bytes_from_cache: u64,
    /// Explicit invalidations.
    pub invalidations: u64,
}

impl BlockCacheStats {
    /// Block-level hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.block_hits + self.block_misses;
        if total == 0 {
            0.0
        } else {
            self.block_hits as f64 / total as f64
        }
    }
}

/// An RMA window fronted by the direct-mapped block cache.
#[derive(Debug)]
pub struct BlockCachedWindow {
    win: Window,
    block_size: usize,
    tags: Vec<Option<(u32, u64)>>,
    data: Vec<u8>,
    costs: CacheCostModel,
    stats: BlockCacheStats,
}

impl BlockCachedWindow {
    /// Collectively creates a window of `size` local bytes fronted by the
    /// block cache.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0` or the memory holds no block.
    pub fn create(p: &mut Process, size: usize, cfg: BlockCacheConfig) -> Self {
        let win = p.win_allocate(size);
        Self::wrap(win, cfg)
    }

    /// Wraps an existing window.
    pub fn wrap(win: Window, cfg: BlockCacheConfig) -> Self {
        assert!(cfg.block_size > 0, "block size must be positive");
        let nblocks = cfg.memory_bytes / cfg.block_size;
        assert!(nblocks > 0, "cache memory smaller than one block");
        BlockCachedWindow {
            win,
            block_size: cfg.block_size,
            tags: vec![None; nblocks],
            data: vec![0u8; nblocks * cfg.block_size],
            costs: cfg.costs,
            stats: BlockCacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> BlockCacheStats {
        self.stats
    }

    /// The wrapped window.
    pub fn inner_mut(&mut self) -> &mut Window {
        &mut self.win
    }

    /// This rank's exposed region, mutable.
    pub fn local_mut(&self) -> clampi_rma::MappedWriteGuard<'_> {
        self.win.local_mut()
    }

    /// Direct-mapped slot of `(target, block)`.
    fn slot_of(&self, target: usize, block: u64) -> usize {
        let x = block
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((target as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        ((x >> 32) as usize) % self.tags.len()
    }

    /// A cached contiguous get. Non-contiguous datatypes bypass the cache
    /// (the UPC system only handles linear ranges).
    pub fn get(
        &mut self,
        p: &mut Process,
        dst: &mut [u8],
        target: usize,
        disp: usize,
        dtype: &Datatype,
        count: usize,
    ) {
        let layout = dtype.flatten_n(count);
        if !layout.is_dense() {
            self.win.get_flat(p, dst, target, disp, &layout);
            return;
        }
        let len = layout.total_size();
        let win_size = self.win.size_of(target);
        // Block fills are clamped to the window, so without this check a
        // request running past the end would leave `dst`'s tail unwritten.
        assert!(
            disp + len <= win_size,
            "get out of bounds: disp {disp} + span {len} > window size {win_size} at target {target}"
        );
        self.stats.total_gets += 1;
        if len == 0 {
            return;
        }
        let bs = self.block_size;
        let first = (disp / bs) as u64;
        let last = ((disp + len - 1) / bs) as u64;
        for block in first..=last {
            let blk_start = block as usize * bs;
            let blk_end = (blk_start + bs).min(win_size);
            let slot = self.slot_of(target, block);
            p.clock_mut().charge_cpu(self.costs.lookup_ns);
            if self.tags[slot] != Some((target as u32, block)) {
                // Miss: fetch the whole (clamped) block.
                self.stats.block_misses += 1;
                let fetch_len = blk_end - blk_start;
                let fetch = FlatLayout::new(vec![Block {
                    offset: 0,
                    len: fetch_len,
                }]);
                let buf = &mut self.data[slot * bs..slot * bs + fetch_len];
                self.win.get_flat(p, buf, target, blk_start, &fetch);
                // The block must be consumed now, so the fetch cannot stay
                // outstanding: synchronous block fill (this is why the
                // native cache overlaps worse than CLaMPI's miss path).
                p.clock_mut().wait_target(target);
                self.tags[slot] = Some((target as u32, block));
                self.stats.bytes_fetched += fetch_len as u64;
            } else {
                self.stats.block_hits += 1;
            }
            // Copy the intersection of the block with the request.
            let lo = disp.max(blk_start);
            let hi = (disp + len).min(blk_end);
            let src = &self.data[slot * bs + (lo - blk_start)..slot * bs + (hi - blk_start)];
            dst[lo - disp..hi - disp].copy_from_slice(src);
            let copy_cost = self.costs.memcpy_cost(hi - lo);
            p.clock_mut().charge_cpu(copy_cost);
            self.stats.bytes_from_cache += (hi - lo) as u64;
        }
    }

    /// Drops every cached block.
    pub fn invalidate(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = None);
        self.stats.invalidations += 1;
    }

    /// MPI_Win_flush passthrough.
    pub fn flush(&mut self, p: &mut Process, target: usize) {
        self.win.flush(p, target);
    }

    /// MPI_Win_flush_all passthrough.
    pub fn flush_all(&mut self, p: &mut Process) {
        self.win.flush_all(p);
    }

    /// MPI_Win_lock_all passthrough.
    pub fn lock_all(&mut self, p: &mut Process) {
        self.win.lock_all(p);
    }

    /// MPI_Win_unlock_all passthrough.
    pub fn unlock_all(&mut self, p: &mut Process) {
        self.win.unlock_all(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clampi_rma::{run, SimConfig};

    /// One rank, a 1000-byte window behind 64-byte blocks: reads `len`
    /// bytes at `disp`.
    fn get_at(disp: usize, len: usize) {
        run(SimConfig::default(), 1, |p| {
            let cfg = BlockCacheConfig {
                block_size: 64,
                memory_bytes: 1 << 12,
                ..BlockCacheConfig::default()
            };
            let mut w = BlockCachedWindow::create(p, 1000, cfg);
            w.lock_all(p);
            let mut dst = vec![0u8; len];
            w.get(p, &mut dst, 0, disp, &Datatype::bytes(len), 1);
        });
    }

    #[test]
    #[should_panic(expected = "get out of bounds")]
    fn read_ending_inside_the_last_block_past_the_window_panics() {
        get_at(990, 20);
    }

    #[test]
    #[should_panic(expected = "get out of bounds")]
    fn read_with_a_block_wholly_past_the_window_panics() {
        get_at(990, 100);
    }
}
