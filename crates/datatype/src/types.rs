//! Recursive datatype descriptions mirroring the MPI type constructors.

use crate::flatten::{Block, FlatLayout};

/// A recursive description of a memory layout, mirroring MPI's derived
/// datatype constructors.
///
/// All offsets, strides and extents are expressed in **bytes**; there is no
/// separate notion of a base element count as in MPI (a strided vector of
/// `f64`s is `Datatype::vector(count, 1, stride_elems, Datatype::double())`).
///
/// The paper's `get` tuple `(win, eph, trg, dsp, dtype, count)` carries a
/// datatype plus a repetition count; see [`Datatype::flatten_n`] for the
/// `count > 1` case, which tiles the type at multiples of its
/// [extent](Datatype::extent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datatype {
    /// `size` contiguous bytes (covers all MPI basic types).
    Contiguous {
        /// Number of bytes.
        size: usize,
    },
    /// `count` repetitions of `inner`, each `blocklen` inner elements long,
    /// with consecutive repetitions `stride` inner extents apart
    /// (MPI_Type_vector).
    Vector {
        /// Number of blocks.
        count: usize,
        /// Inner elements per block.
        blocklen: usize,
        /// Distance between block starts, in inner extents. Must be at least
        /// `blocklen` (overlapping vectors are not representable in MPI
        /// either).
        stride: usize,
        /// Element type.
        inner: Box<Datatype>,
    },
    /// Explicit `(offset_bytes, inner)` pairs (MPI_Type_indexed /
    /// MPI_Type_create_struct with byte displacements). Offsets need not be
    /// sorted but blocks must not overlap.
    Indexed {
        /// `(byte offset, element type)` pairs.
        fields: Vec<(usize, Datatype)>,
    },
    /// Same layout as `inner` but with an overridden extent
    /// (MPI_Type_create_resized); used to tile types with padding.
    Resized {
        /// The forced extent in bytes.
        extent: usize,
        /// The wrapped type.
        inner: Box<Datatype>,
    },
}

/// What every size, extent and block-offset computation panics with when
/// it does not fit a `usize`: a wrapped offset would alias low addresses
/// and pass the window bound check, so it must never be produced.
const OVERFLOW: &str = "datatype extent overflows usize";

fn mul(a: usize, b: usize) -> usize {
    a.checked_mul(b).expect(OVERFLOW)
}

fn add(a: usize, b: usize) -> usize {
    a.checked_add(b).expect(OVERFLOW)
}

impl Datatype {
    /// A contiguous run of `size` bytes.
    pub fn bytes(size: usize) -> Self {
        Datatype::Contiguous { size }
    }

    /// An 8-byte basic type (MPI_DOUBLE / MPI_INT64_T).
    pub fn double() -> Self {
        Datatype::Contiguous { size: 8 }
    }

    /// A 4-byte basic type (MPI_INT / MPI_FLOAT).
    pub fn int32() -> Self {
        Datatype::Contiguous { size: 4 }
    }

    /// A strided vector: `count` blocks of `blocklen` `inner` elements,
    /// block starts `stride` inner-extents apart.
    ///
    /// # Panics
    ///
    /// Panics if `stride < blocklen` (blocks would overlap).
    pub fn vector(count: usize, blocklen: usize, stride: usize, inner: Datatype) -> Self {
        assert!(
            stride >= blocklen,
            "vector stride ({stride}) must be >= blocklen ({blocklen})"
        );
        Datatype::Vector {
            count,
            blocklen,
            stride,
            inner: Box::new(inner),
        }
    }

    /// An indexed type from explicit `(byte offset, datatype)` fields.
    pub fn indexed(fields: Vec<(usize, Datatype)>) -> Self {
        Datatype::Indexed { fields }
    }

    /// `count` back-to-back copies of `inner` (MPI_Type_contiguous).
    pub fn contiguous_of(count: usize, inner: Datatype) -> Self {
        Datatype::Vector {
            count,
            blocklen: 1,
            stride: 1,
            inner: Box::new(inner),
        }
    }

    /// A rectangular sub-block of a row-major 2D array
    /// (MPI_Type_create_subarray for `ndims = 2`): `nrows x ncols` elements
    /// of `elem`, starting at `(row0, col0)` inside an array with
    /// `array_cols` columns.
    ///
    /// # Panics
    ///
    /// Panics if the sub-block exceeds the array row width or `elem` is not
    /// contiguous.
    pub fn subarray_2d(
        array_cols: usize,
        elem: Datatype,
        (row0, col0): (usize, usize),
        (nrows, ncols): (usize, usize),
    ) -> Self {
        assert!(
            col0 + ncols <= array_cols,
            "subarray columns {col0}+{ncols} exceed array width {array_cols}"
        );
        assert!(
            elem.is_contiguous(),
            "subarray elements must be contiguous basic types"
        );
        let esz = elem.extent();
        let fields = (0..nrows)
            .map(|r| {
                (
                    ((row0 + r) * array_cols + col0) * esz,
                    Datatype::bytes(ncols * esz),
                )
            })
            .collect();
        Datatype::indexed(fields)
    }

    /// Wraps `inner` with a forced extent of `extent` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `extent` is smaller than the natural extent of `inner`.
    pub fn resized(extent: usize, inner: Datatype) -> Self {
        assert!(
            extent >= inner.extent(),
            "resized extent ({extent}) must cover the inner extent ({})",
            inner.extent()
        );
        Datatype::Resized {
            extent,
            inner: Box::new(inner),
        }
    }

    /// The payload size in bytes: the sum of the sizes of all data blocks
    /// (the paper's `size(x)` for `count = 1`).
    ///
    /// # Panics
    ///
    /// Like [`Datatype::extent`] and the flatteners, panics with "datatype
    /// extent overflows usize" if the result does not fit.
    pub fn size(&self) -> usize {
        match self {
            Datatype::Contiguous { size } => *size,
            Datatype::Vector {
                count,
                blocklen,
                inner,
                ..
            } => mul(mul(*count, *blocklen), inner.size()),
            Datatype::Indexed { fields } => fields.iter().fold(0, |sum, (_, d)| add(sum, d.size())),
            Datatype::Resized { inner, .. } => inner.size(),
        }
    }

    /// The payload size of `count` repetitions, `size() * count`.
    ///
    /// # Panics
    ///
    /// Panics with "datatype extent overflows usize" if it does not fit.
    pub fn size_n(&self, count: usize) -> usize {
        mul(self.size(), count)
    }

    /// The extent in bytes: the span from the lowest to one past the highest
    /// byte touched, used to tile repetitions.
    pub fn extent(&self) -> usize {
        match self {
            Datatype::Contiguous { size } => *size,
            Datatype::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                if *count == 0 {
                    0
                } else {
                    mul(add(mul(count - 1, *stride), *blocklen), inner.extent())
                }
            }
            Datatype::Indexed { fields } => fields
                .iter()
                .map(|(off, d)| add(*off, d.extent()))
                .max()
                .unwrap_or(0),
            Datatype::Resized { extent, .. } => *extent,
        }
    }

    /// Whether the type is a single contiguous block starting at offset 0.
    pub fn is_contiguous(&self) -> bool {
        self.size() == self.extent()
    }

    /// Flattens one instance of the type to a sorted, coalesced block list.
    pub fn flatten(&self) -> FlatLayout {
        self.flatten_n(1)
    }

    /// Flattens `count` instances tiled at multiples of the extent — the
    /// layout of the paper's `(dtype, count)` pair.
    pub fn flatten_n(&self, count: usize) -> FlatLayout {
        let mut blocks = Vec::new();
        let ext = self.extent();
        // The whole tiling must be addressable, one past its last byte
        // included (`Block::end`); every `rep * ext` below is smaller.
        mul(count, ext);
        for rep in 0..count {
            self.collect_blocks(rep * ext, &mut blocks);
        }
        FlatLayout::new(blocks)
    }

    fn collect_blocks(&self, base: usize, out: &mut Vec<Block>) {
        match self {
            Datatype::Contiguous { size } => {
                if *size > 0 {
                    out.push(Block {
                        offset: base,
                        len: *size,
                    });
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                let ext = inner.extent();
                for b in 0..*count {
                    for e in 0..*blocklen {
                        let elem = add(mul(b, *stride), e);
                        inner.collect_blocks(add(base, mul(elem, ext)), out);
                    }
                }
            }
            Datatype::Indexed { fields } => {
                for (off, d) in fields {
                    d.collect_blocks(add(base, *off), out);
                }
            }
            Datatype::Resized { inner, .. } => inner.collect_blocks(base, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_size_and_extent_agree() {
        let dt = Datatype::bytes(128);
        assert_eq!(dt.size(), 128);
        assert_eq!(dt.extent(), 128);
        assert!(dt.is_contiguous());
    }

    #[test]
    fn vector_size_counts_payload_only() {
        let dt = Datatype::vector(3, 2, 5, Datatype::bytes(4));
        assert_eq!(dt.size(), 3 * 2 * 4);
        // Extent spans (count-1)*stride + blocklen elements.
        assert_eq!(dt.extent(), (2 * 5 + 2) * 4);
        assert!(!dt.is_contiguous());
    }

    #[test]
    fn dense_vector_is_contiguous() {
        let dt = Datatype::vector(4, 2, 2, Datatype::bytes(8));
        assert!(dt.is_contiguous());
        assert_eq!(dt.flatten().blocks().len(), 1);
    }

    #[test]
    fn indexed_extent_is_max_reach() {
        let dt = Datatype::indexed(vec![
            (0, Datatype::bytes(4)),
            (16, Datatype::bytes(8)),
            (8, Datatype::bytes(2)),
        ]);
        assert_eq!(dt.size(), 14);
        assert_eq!(dt.extent(), 24);
    }

    #[test]
    fn indexed_flatten_sorts_offsets() {
        let dt = Datatype::indexed(vec![(16, Datatype::bytes(8)), (0, Datatype::bytes(4))]);
        let flat = dt.flatten();
        assert_eq!(flat.blocks()[0].offset, 0);
        assert_eq!(flat.blocks()[1].offset, 16);
    }

    #[test]
    fn resized_tiles_with_padding() {
        let dt = Datatype::resized(16, Datatype::bytes(8));
        let flat = dt.flatten_n(3);
        assert_eq!(flat.total_size(), 24);
        let offs: Vec<usize> = flat.blocks().iter().map(|b| b.offset).collect();
        assert_eq!(offs, vec![0, 16, 32]);
    }

    #[test]
    fn flatten_n_contiguous_coalesces_to_one_block() {
        let dt = Datatype::double();
        let flat = dt.flatten_n(100);
        assert_eq!(flat.blocks().len(), 1);
        assert_eq!(flat.total_size(), 800);
    }

    #[test]
    fn nested_vector_of_indexed() {
        // Two repetitions of an indexed {0..2, 4..6} pattern, stride 1 extent.
        let idx = Datatype::indexed(vec![(0, Datatype::bytes(2)), (4, Datatype::bytes(2))]);
        let dt = Datatype::vector(2, 1, 1, idx);
        let flat = dt.flatten();
        let offs: Vec<(usize, usize)> = flat.blocks().iter().map(|b| (b.offset, b.len)).collect();
        // The second repetition starts at the inner extent (6), so its first
        // block (6,2) touches the (4,2) block and the two coalesce.
        assert_eq!(offs, vec![(0, 2), (4, 4), (10, 2)]);
    }

    #[test]
    fn zero_count_vector_is_empty() {
        let dt = Datatype::vector(0, 4, 8, Datatype::bytes(1));
        assert_eq!(dt.size(), 0);
        assert_eq!(dt.extent(), 0);
        assert!(dt.flatten().blocks().is_empty());
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn overlapping_vector_rejected() {
        let _ = Datatype::vector(2, 4, 2, Datatype::bytes(1));
    }

    #[test]
    #[should_panic(expected = "extent")]
    fn shrinking_resize_rejected() {
        let _ = Datatype::resized(4, Datatype::bytes(8));
    }

    /// Two 8-byte blocks whose stride wraps the second one round to
    /// offset 8: unchecked, a release build reports `size 16, extent 16`,
    /// calls the type contiguous and reads the wrong bytes.
    #[test]
    #[should_panic(expected = "datatype extent overflows usize")]
    fn wrapping_stride_is_rejected_not_flattened() {
        let dt = Datatype::vector(2, 1, usize::MAX / 8 + 2, Datatype::bytes(8));
        let _ = dt.is_contiguous();
    }

    #[test]
    #[should_panic(expected = "datatype extent overflows usize")]
    fn size_n_rejects_a_wrapping_count() {
        let _ = Datatype::bytes((1 << 63) + 32).size_n(2);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn contiguous_of_is_dense() {
        let dt = Datatype::contiguous_of(10, Datatype::double());
        assert_eq!(dt.size(), 80);
        assert!(dt.is_contiguous());
        assert_eq!(dt.flatten().blocks().len(), 1);
    }

    #[test]
    fn subarray_2d_picks_the_block() {
        // 4x4 matrix of f64, take the 2x2 block at (1,1).
        let dt = Datatype::subarray_2d(4, Datatype::double(), (1, 1), (2, 2));
        assert_eq!(dt.size(), 4 * 8);
        let flat = dt.flatten();
        let offs: Vec<(usize, usize)> = flat.blocks().iter().map(|b| (b.offset, b.len)).collect();
        // Rows 1 and 2, columns 1..3: offsets (1*4+1)*8=40 and (2*4+1)*8=72.
        assert_eq!(offs, vec![(40, 16), (72, 16)]);
    }

    #[test]
    fn subarray_2d_full_width_rows_coalesce() {
        let dt = Datatype::subarray_2d(4, Datatype::int32(), (1, 0), (2, 4));
        let flat = dt.flatten();
        assert_eq!(flat.blocks().len(), 1, "full rows are contiguous");
        assert_eq!(flat.blocks()[0].offset, 16);
        assert_eq!(flat.total_size(), 32);
    }

    #[test]
    #[should_panic(expected = "exceed array width")]
    fn subarray_2d_rejects_too_wide_blocks() {
        let _ = Datatype::subarray_2d(4, Datatype::double(), (0, 2), (1, 3));
    }

    #[test]
    #[should_panic(expected = "contiguous basic")]
    fn subarray_2d_rejects_noncontiguous_elems() {
        let strided = Datatype::vector(2, 1, 3, Datatype::bytes(1));
        let _ = Datatype::subarray_2d(8, strided, (0, 0), (1, 1));
    }
}
