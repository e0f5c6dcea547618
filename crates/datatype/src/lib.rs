//! MPI-like datatype library with flattening.
//!
//! The CLaMPI paper (Sec. II-B) relies on the *MPI Datatype Library* (Ross et
//! al.) to support arbitrary datatypes in `get` operations: a datatype `d` is
//! flattened to a list of data blocks `d_i = (s_i, o_i)` where `s_i` is the
//! block size and `o_i` its offset in the data buffer. This crate provides
//! that substrate: a recursive [`Datatype`] description mirroring the MPI
//! type constructors, flattening to a [`FlatLayout`] of `(offset, len)`
//! blocks, and pack/unpack routines used by both the RMA simulator and the
//! caching layer.
//!
//! # Example
//!
//! ```
//! use clampi_datatype::Datatype;
//!
//! // A strided column of 4 doubles out of an 8-column row-major matrix.
//! let col = Datatype::vector(4, 1, 8, Datatype::double());
//! assert_eq!(col.size(), 4 * 8);
//! let flat = col.flatten();
//! assert_eq!(flat.blocks().len(), 4);
//! assert_eq!(flat.blocks()[1].offset, 64);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod flatten;
mod types;

pub use flatten::{Block, FlatLayout};
pub use types::Datatype;

/// Packs typed data from `src` (laid out according to `layout`) into the
/// contiguous buffer `dst`.
///
/// `dst.len()` must equal `layout.total_size()`; every block of `layout`
/// must lie within `src`.
///
/// # Panics
///
/// Panics if the layout does not fit `src` or `dst` has the wrong length.
pub fn pack(src: &[u8], layout: &FlatLayout, dst: &mut [u8]) {
    assert_eq!(
        dst.len(),
        layout.total_size(),
        "pack: dst length must equal the layout payload size"
    );
    let mut cursor = 0;
    for b in layout.blocks() {
        dst[cursor..cursor + b.len].copy_from_slice(&src[b.offset..b.offset + b.len]);
        cursor += b.len;
    }
}

/// Unpacks the contiguous buffer `src` into `dst` according to `layout`
/// (the inverse of [`pack`]).
///
/// # Panics
///
/// Panics if the layout does not fit `dst` or `src` has the wrong length.
pub fn unpack(src: &[u8], layout: &FlatLayout, dst: &mut [u8]) {
    assert_eq!(
        src.len(),
        layout.total_size(),
        "unpack: src length must equal the layout payload size"
    );
    let mut cursor = 0;
    for b in layout.blocks() {
        dst[b.offset..b.offset + b.len].copy_from_slice(&src[cursor..cursor + b.len]);
        cursor += b.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip_contiguous() {
        let dt = Datatype::bytes(16);
        let layout = dt.flatten();
        let src: Vec<u8> = (0..16).collect();
        let mut packed = vec![0u8; layout.total_size()];
        pack(&src, &layout, &mut packed);
        assert_eq!(packed, src);
        let mut dst = vec![0u8; 16];
        unpack(&packed, &layout, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn pack_gathers_strided_blocks() {
        // 2 blocks of 2 bytes, stride 4.
        let dt = Datatype::vector(2, 2, 4, Datatype::bytes(1));
        let layout = dt.flatten();
        let src = vec![10, 11, 12, 13, 14, 15, 16, 17];
        let mut packed = vec![0u8; layout.total_size()];
        pack(&src, &layout, &mut packed);
        assert_eq!(packed, vec![10, 11, 14, 15]);
    }

    #[test]
    fn unpack_scatters_preserving_gaps() {
        let dt = Datatype::vector(2, 2, 4, Datatype::bytes(1));
        let layout = dt.flatten();
        let packed = vec![1, 2, 3, 4];
        let mut dst = vec![0u8; 8];
        unpack(&packed, &layout, &mut dst);
        assert_eq!(dst, vec![1, 2, 0, 0, 3, 4, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "dst length")]
    fn pack_rejects_wrong_dst_len() {
        let dt = Datatype::bytes(4);
        let layout = dt.flatten();
        let src = [0u8; 4];
        let mut dst = [0u8; 3];
        pack(&src, &layout, &mut dst);
    }
}
