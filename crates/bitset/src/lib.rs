//! Bitset data structures for partition and entity synopses.
//!
//! Cinderella's partition rating (paper §IV) reduces entirely to set algebra
//! over attribute sets: `|e ∧ p|`, `|¬e ∧ p|`, `|e ∧ ¬p|`, `|e ∨ p|`, and the
//! split-starter difference `|e₁ ⊕ e₂|`. This crate provides the bitset
//! machinery those operators run on, built from scratch on `u64` blocks with
//! *fused* count operations (`and_count`, `or_count`, `xor_count`,
//! `andnot_count`) so that a rating never materialises a temporary bitset.
//!
//! Two representations are provided, both implementing [`BitSetOps`]:
//!
//! * [`FixedBitSet`] — dense `u64`-block bitset with a fixed universe size.
//!   This is the workhorse for partition synopses, where the universe (the
//!   attribute dictionary of the universal table) is known.
//! * [`GrowableBitSet`] — wraps [`FixedBitSet`] with automatic universe
//!   growth for callers that discover attributes on the fly.
//!
//! The [`words`] kernels run the same fused counts over raw `u64` slices,
//! for the packed synopsis arena.
//!
//! # Example
//!
//! ```
//! use cind_bitset::{BitSetOps, FixedBitSet};
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
//! assert_eq!(p.andnot_count(&e), 1); // |¬e ∧ p|
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fixed;
mod growable;
mod ops;
pub mod words;

pub use fixed::FixedBitSet;
pub use growable::GrowableBitSet;
pub use ops::{BitSetOps, FusedCounts};

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
