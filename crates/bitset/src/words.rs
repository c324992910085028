//! Word-slice kernels shared by [`FixedBitSet`](crate::FixedBitSet) and the
//! synopsis arena.
//!
//! The rating and pruning hot paths operate on raw `&[u64]` rows (packed
//! arena slots, query synopses) rather than on owned bitsets, so the fused
//! loops live here as free functions over slices. Both operands are
//! implicitly zero-extended: trailing words missing from the shorter slice
//! count as empty.

/// The four cardinalities one entity/partition rating needs: `|a ∧ b|`,
/// `|a ∨ b|`, `|a|`, `|b|` — produced by a single fused pass over two bit
/// sets, or assembled from `|a ∧ b|` and two cardinalities already known
/// (`|a ∨ b| = |a| + |b| − |a ∧ b|`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FusedCounts {
    /// `|a ∧ b|` — intersection cardinality.
    pub and: u32,
    /// `|a ∨ b|` — union cardinality.
    pub or: u32,
    /// `|a|` — cardinality of the left operand.
    pub left: u32,
    /// `|b|` — cardinality of the right operand.
    pub right: u32,
}

/// Fused one-pass kernel: `|a ∧ b|`, `|a ∨ b|`, `|a|`, and `|b|` from a
/// single walk over the zipped words. This replaces the three separate
/// popcount passes a rating otherwise needs (intersection, plus one
/// cardinality per operand).
#[must_use]
pub fn fused_counts(a: &[u64], b: &[u64]) -> FusedCounts {
    let common = a.len().min(b.len());
    let mut c = FusedCounts::default();
    for (&wa, &wb) in a[..common].iter().zip(&b[..common]) {
        c.and += (wa & wb).count_ones();
        c.or += (wa | wb).count_ones();
        c.left += wa.count_ones();
        c.right += wb.count_ones();
    }
    for &wa in &a[common..] {
        let n = wa.count_ones();
        c.left += n;
        c.or += n;
    }
    for &wb in &b[common..] {
        let n = wb.count_ones();
        c.right += n;
        c.or += n;
    }
    c
}

/// Early-exit disjointness test: stops at the first word with a shared bit
/// instead of popcounting the whole intersection. This is the planner's
/// `|p ∧ q| = 0` pruning test.
#[must_use]
pub fn is_disjoint(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&wa, &wb)| wa & wb == 0)
}

/// `|a ∧ b|` without the union/cardinality bookkeeping.
#[must_use]
pub fn and_count(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(&wa, &wb)| (wa & wb).count_ones()).sum()
}

/// Iterator over the set bit indices of a word slice, ascending — the one
/// ones-walk behind [`FixedBitSet::iter_ones`](crate::FixedBitSet::iter_ones) as well.
pub fn iter_ones(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    Ones { words, current: words.first().copied().unwrap_or(0), word_idx: 0 }
}

/// The concrete iterator [`iter_ones`] returns: no box, no virtual `next`.
struct Ones<'a> {
    words: &'a [u64],
    current: u64,
    word_idx: usize,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let tz = self.current.trailing_zeros();
        self.current &= self.current - 1; // clear lowest set bit
        Some((self.word_idx * crate::BITS) as u32 + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_counts_match_naive() {
        let a = [0b1011u64, 0, u64::MAX];
        let b = [0b0110u64, 1];
        let c = fused_counts(&a, &b);
        assert_eq!(c.and, 1); // bit 1
        assert_eq!(c.left, 3 + 64);
        assert_eq!(c.right, 3);
        assert_eq!(c.or, c.left + c.right - c.and);
        // Symmetric.
        let r = fused_counts(&b, &a);
        assert_eq!((r.and, r.or, r.left, r.right), (c.and, c.or, c.right, c.left));
    }

    #[test]
    fn empty_slices() {
        let c = fused_counts(&[], &[5]);
        assert_eq!((c.and, c.or, c.left, c.right), (0, 2, 0, 2));
        assert!(is_disjoint(&[], &[u64::MAX]));
        assert_eq!(and_count(&[], &[]), 0);
    }

    #[test]
    fn disjoint_and_overlap() {
        assert!(is_disjoint(&[0b01, 0b10], &[0b10, 0b01]));
        assert!(!is_disjoint(&[0b01, 0b10], &[0b11, 0]));
        // Tail beyond the shorter operand never overlaps.
        assert!(is_disjoint(&[0b01], &[0b10, u64::MAX]));
    }

    #[test]
    fn iter_ones_ascending_across_words() {
        let ones: Vec<u32> = iter_ones(&[1 << 63, 0, 0b101]).collect();
        assert_eq!(ones, vec![63, 128, 130]);
    }
}
