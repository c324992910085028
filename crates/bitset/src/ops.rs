//! The common operation set shared by all synopsis bitset representations.

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

/// Set-algebra operations required by Cinderella's rating and split-starter
/// maintenance.
///
/// All `*_count` methods are *fused*: they compute the cardinality of the
/// combined set without materialising it. Implementations must treat the two
/// operands as subsets of a common (possibly implicit) universe; bits beyond
/// either operand's capacity are considered unset.
pub trait BitSetOps {
    /// Inserts `bit`. Returns `true` if the bit was newly set.
    fn insert(&mut self, bit: u32) -> bool;

    /// Removes `bit`. Returns `true` if the bit was previously set.
    fn remove(&mut self, bit: u32) -> bool;

    /// Whether `bit` is set.
    fn contains(&self, bit: u32) -> bool;

    /// Number of set bits (`|s|`).
    fn count(&self) -> u32;

    /// Whether no bit is set.
    fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// `|self ∧ other|` — size of the intersection.
    fn and_count(&self, other: &Self) -> u32;

    /// All four rating cardinalities (`|self ∧ other|`, `|self ∨ other|`,
    /// `|self|`, `|other|`) in one call. The default composes the separate
    /// counts; dense representations override it with a single word loop.
    fn fused_counts(&self, other: &Self) -> FusedCounts {
        let and = self.and_count(other);
        let left = self.count();
        let right = other.count();
        FusedCounts { and, or: left + right - and, left, right }
    }

    /// `|self ∨ other|` — size of the union.
    fn or_count(&self, other: &Self) -> u32 {
        self.count() + other.count() - self.and_count(other)
    }

    /// `|self ⊕ other|` — size of the symmetric difference. This is the
    /// paper's `DIFF(e₁, e₂)` used for split-starter maintenance.
    fn xor_count(&self, other: &Self) -> u32 {
        self.count() + other.count() - 2 * self.and_count(other)
    }

    /// `|self ∧ ¬other|` — bits set here but not in `other`.
    ///
    /// With `self = p` and `other = e` this is the paper's `|¬e ∧ p|`
    /// (attributes the partition has but the entity lacks); with the
    /// operands swapped it is `|e ∧ ¬p|`.
    fn andnot_count(&self, other: &Self) -> u32 {
        self.count() - self.and_count(other)
    }

    /// Whether the intersection is empty (`|self ∧ other| = 0`) — the
    /// partition-pruning test.
    fn is_disjoint(&self, other: &Self) -> bool {
        self.and_count(other) == 0
    }

    /// Whether every bit of `self` is also set in `other`.
    fn is_subset(&self, other: &Self) -> bool {
        self.and_count(other) == self.count()
    }

    /// Sets every bit of `other` in `self` (`self ∨= other`). Used to fold an
    /// entity synopsis into a partition synopsis.
    fn union_with(&mut self, other: &Self);

    /// Removes every bit set in `self` (resets to the empty set).
    fn clear(&mut self);

    /// The set bits in ascending order, as a concrete iterator (no heap box,
    /// no virtual `next`: the indexed rating scan walks its candidates
    /// through it on every insert).
    fn iter_ones(&self) -> impl Iterator<Item = u32> + '_;
}
