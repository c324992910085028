//! Bitset data structures for partition and entity synopses.
//!
//! Cinderella's partition rating (paper §IV) reduces entirely to set algebra
//! over attribute sets: `|e ∧ p|`, `|¬e ∧ p|`, `|e ∧ ¬p|`, `|e ∨ p|`, and the
//! split-starter difference `|e₁ ⊕ e₂|`. This crate provides the bitset
//! machinery those operators run on, built from scratch on `u64` blocks with
//! *fused* count operations (`and_count`, `or_count`, `xor_count`) so that
//! a rating never materialises a temporary bitset.
//!
//! There is one representation, [`FixedBitSet`]: a dense `u64`-block bitset
//! over a universe (the attribute dictionary of the universal table) that
//! grows when its owner calls `grow` or a union meets a larger one. The [`words`] kernels run the
//! same fused counts over raw `u64` slices, for the packed synopsis arena,
//! and [`FixedBitSet`]'s counts call them.
//!
//! # Example
//!
//! ```
//! use cind_bitset::FixedBitSet;
//!
//! let mut e = FixedBitSet::new(100);
//! e.insert(3);
//! e.insert(40);
//! let mut p = FixedBitSet::new(100);
//! p.insert(3);
//! p.insert(7);
//! assert_eq!(e.and_count(&p), 1); // |e ∧ p|
//! assert_eq!(e.xor_count(&p), 2); // |e ⊕ p|
//! assert_eq!(e.or_count(&p), 3);  // |e ∨ p|
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

mod fixed;
pub mod words;

pub use fixed::FixedBitSet;
pub use words::FusedCounts;

/// Number of bits per storage block.
pub(crate) const BITS: usize = u64::BITS as usize;

/// Number of `u64` blocks needed to hold `nbits` bits.
pub(crate) fn blocks_for(nbits: usize) -> usize {
    nbits.div_ceil(BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_for_boundaries() {
        assert_eq!(blocks_for(0), 0);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(64), 1);
        assert_eq!(blocks_for(65), 2);
        assert_eq!(blocks_for(128), 2);
        assert_eq!(blocks_for(129), 3);
    }
}
