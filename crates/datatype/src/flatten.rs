//! Flattened datatype layouts: sorted, coalesced `(offset, len)` block lists.

/// One contiguous block of a flattened datatype: `len` bytes at `offset`
/// from the start of the typed buffer (the paper's `d_i = (s_i, o_i)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Byte offset in the typed buffer.
    pub offset: usize,
    /// Block length in bytes.
    pub len: usize,
}

impl Block {
    /// One past the last byte covered.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// A flattened datatype: blocks sorted by offset with adjacent blocks
/// coalesced, plus the cached payload size.
///
/// A `FlatLayout` is what the RMA layer iterates to move data and what the
/// cache uses to compute `size(x)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatLayout {
    blocks: Vec<Block>,
    total: usize,
}

impl FlatLayout {
    /// Builds a layout from raw blocks: sorts by offset, drops empty blocks,
    /// and coalesces blocks that touch.
    ///
    /// # Panics
    ///
    /// Panics if two blocks overlap — MPI derived types must describe each
    /// byte at most once, and an overlapping layout would make pack/unpack
    /// ambiguous.
    pub fn new(mut blocks: Vec<Block>) -> Self {
        blocks.retain(|b| b.len > 0);
        blocks.sort_by_key(|b| b.offset);
        let mut coalesced: Vec<Block> = Vec::with_capacity(blocks.len());
        for b in blocks {
            if let Some(last) = coalesced.last_mut() {
                assert!(
                    b.offset >= last.end(),
                    "overlapping datatype blocks: [{},{}) and [{},{})",
                    last.offset,
                    last.end(),
                    b.offset,
                    b.end()
                );
                if b.offset == last.end() {
                    last.len += b.len;
                    continue;
                }
            }
            coalesced.push(b);
        }
        let total = coalesced.iter().map(|b| b.len).sum();
        FlatLayout {
            blocks: coalesced,
            total,
        }
    }

    /// One dense block of `len` bytes at offset 0 — what flattening a
    /// contiguous type yields. Empty, and allocation-free, for `len == 0`.
    pub fn contiguous(len: usize) -> Self {
        let blocks = if len == 0 {
            Vec::new()
        } else {
            vec![Block { offset: 0, len }]
        };
        FlatLayout { blocks, total: len }
    }

    /// Turns this layout into [`FlatLayout::contiguous`]`(len)` in place,
    /// keeping the block list's allocation.
    pub fn set_contiguous(&mut self, len: usize) {
        self.blocks.clear();
        if len > 0 {
            self.blocks.push(Block { offset: 0, len });
        }
        self.total = len;
    }

    /// The coalesced, offset-sorted blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total payload size in bytes (the paper's `size(x)`).
    pub fn total_size(&self) -> usize {
        self.total
    }

    /// The extent covered by the layout: one past the highest byte touched.
    pub fn span(&self) -> usize {
        self.blocks.last().map(|b| b.end()).unwrap_or(0)
    }

    /// Whether the layout is a single block starting at offset 0.
    pub fn is_dense(&self) -> bool {
        self.blocks.len() == 1 && self.blocks[0].offset == 0 || self.blocks.is_empty()
    }

    /// Shifts every block by `delta` bytes, e.g. to rebase a layout at a
    /// window displacement.
    pub fn shifted(&self, delta: usize) -> FlatLayout {
        FlatLayout {
            blocks: self
                .blocks
                .iter()
                .map(|b| Block {
                    offset: b.offset + delta,
                    len: b.len,
                })
                .collect(),
            total: self.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(offset: usize, len: usize) -> Block {
        Block { offset, len }
    }

    #[test]
    fn new_sorts_and_coalesces() {
        let l = FlatLayout::new(vec![blk(8, 4), blk(0, 4), blk(4, 4)]);
        assert_eq!(l.blocks(), &[blk(0, 12)]);
        assert_eq!(l.total_size(), 12);
        assert!(l.is_dense());
    }

    #[test]
    fn gaps_are_preserved() {
        let l = FlatLayout::new(vec![blk(0, 4), blk(8, 4)]);
        assert_eq!(l.blocks().len(), 2);
        assert_eq!(l.span(), 12);
        assert!(!l.is_dense());
    }

    #[test]
    fn empty_blocks_dropped() {
        let l = FlatLayout::new(vec![blk(0, 0), blk(4, 2), blk(10, 0)]);
        assert_eq!(l.blocks(), &[blk(4, 2)]);
    }

    #[test]
    fn empty_layout_spans_zero() {
        let l = FlatLayout::new(vec![]);
        assert_eq!(l.span(), 0);
        assert_eq!(l.total_size(), 0);
        assert!(l.is_dense());
    }

    #[test]
    fn set_contiguous_equals_contiguous() {
        let mut l = FlatLayout::new(vec![blk(0, 4), blk(8, 4)]);
        for len in [16, 0, 3] {
            l.set_contiguous(len);
            assert_eq!(l, FlatLayout::contiguous(len));
        }
    }

    #[test]
    fn shifted_moves_all_blocks() {
        let l = FlatLayout::new(vec![blk(0, 4), blk(8, 4)]).shifted(100);
        assert_eq!(l.blocks()[0].offset, 100);
        assert_eq!(l.blocks()[1].offset, 108);
        assert_eq!(l.total_size(), 8);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_panics() {
        let _ = FlatLayout::new(vec![blk(0, 8), blk(4, 8)]);
    }
}
