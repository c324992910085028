//! Attribute-set synopses and the paper's set operators.

use cind_bitset::{FixedBitSet, FusedCounts};

use crate::AttrId;

/// The attribute-set summary of an entity, partition, or query.
///
/// §II of the paper catalogs each partition with a synopsis `p` "which lists
/// the attributes of the entities in the partition" and likewise builds an
/// entity synopsis `e` and a query synopsis `q`. All three are the same
/// structure; this type names the operators after the paper's notation so
/// the rating code in `cinderella-core` reads like §IV.
///
/// ```
/// use cind_model::Synopsis;
///
/// let e = Synopsis::from_bits(16, [0, 2, 8]); // entity attributes
/// let p = Synopsis::from_bits(16, [0, 3, 5, 8]); // partition attributes
/// assert_eq!(e.overlap(&p), 2);        // |e ∧ p|
/// assert_eq!(e.union_count(&p), 5);    // |e ∨ p|
/// assert_eq!(e.diff(&p), 3);           // |e ⊕ p| (split-starter DIFF)
/// assert!(!e.is_disjoint(&p));         // would NOT be pruned
/// ```
#[derive(PartialEq, Eq, Debug, Default)]
pub struct Synopsis {
    bits: FixedBitSet,
}

/// `clone_from` reuses the destination's buffer (see [`FixedBitSet`]'s).
impl Clone for Synopsis {
    fn clone(&self) -> Self {
        Self { bits: self.bits.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
    }
}

impl Synopsis {
    /// Empty synopsis over a universe of `universe` attributes.
    pub fn empty(universe: usize) -> Self {
        Self { bits: FixedBitSet::new(universe) }
    }

    /// Synopsis from bit indices.
    pub fn from_bits(universe: usize, bits: impl IntoIterator<Item = u32>) -> Self {
        Self { bits: FixedBitSet::from_iter(universe, bits) }
    }

    /// Synopsis from attribute ids.
    pub fn from_attrs(universe: usize, attrs: impl IntoIterator<Item = AttrId>) -> Self {
        Self::from_bits(universe, attrs.into_iter().map(AttrId::index))
    }

    /// The underlying bitset.
    pub fn bits(&self) -> &FixedBitSet {
        &self.bits
    }

    /// Mutable access to the underlying bitset.
    pub fn bits_mut(&mut self) -> &mut FixedBitSet {
        &mut self.bits
    }

    /// Number of attributes in the synopsis, `|s|`.
    pub fn cardinality(&self) -> u32 {
        self.bits.count()
    }

    /// Whether the synopsis is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// `|self ∧ other|` — shared attributes. The homogeneity count `|e ∧ p|`
    /// and the pruning test's `|p ∧ q|`.
    pub fn overlap(&self, other: &Self) -> u32 {
        self.bits.and_count(&other.bits)
    }

    /// `|self ∨ other|` — the union cardinality used to normalise the global
    /// rating.
    pub fn union_count(&self, other: &Self) -> u32 {
        self.bits.or_count(&other.bits)
    }

    /// All four rating cardinalities — `|self ∧ other|`, `|self ∨ other|`,
    /// `|self|`, `|other|` — from one fused word pass. A full §IV rating
    /// needs exactly these counts, so this is the one bitset call on the
    /// insert hot path.
    pub fn fused(&self, other: &Self) -> FusedCounts {
        self.bits.fused_counts(&other.bits)
    }

    /// `|self ⊕ other|` — the paper's `DIFF` for split-starter maintenance.
    pub fn diff(&self, other: &Self) -> u32 {
        self.bits.xor_count(&other.bits)
    }

    /// Whether `|self ∧ other| = 0` — a query prunes a partition when their
    /// synopses are disjoint.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.bits.is_disjoint(&other.bits)
    }

    /// Folds `other` into `self` (`self ∨= other`) — partition synopsis
    /// maintenance on insert.
    pub fn merge(&mut self, other: &Self) {
        self.bits.union_with(&other.bits);
    }

    /// Adds a single attribute.
    pub fn add(&mut self, attr: AttrId) -> bool {
        self.bits.insert(attr.index())
    }

    /// Whether the synopsis contains `attr`.
    pub fn contains(&self, attr: AttrId) -> bool {
        self.bits.contains(attr.index())
    }

    /// Iterates the attribute ids in the synopsis, ascending.
    pub fn iter(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.bits.iter_ones().map(AttrId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(bits: &[u32]) -> Synopsis {
        Synopsis::from_bits(64, bits.iter().copied())
    }

    #[test]
    fn operators_match_paper_notation() {
        // e = {name, screen, weight}; p = {name, weight, storage, tuner}
        let e = syn(&[0, 2, 8]);
        let p = syn(&[0, 8, 3, 5]);
        assert_eq!(e.overlap(&p), 2); // |e ∧ p|
        assert_eq!(e.union_count(&p), 5); // |e ∨ p|
        assert_eq!(e.diff(&p), 3); // |e ⊕ p|
        assert!(!e.is_disjoint(&p));
        assert!(e.is_disjoint(&syn(&[1, 4])));
    }

    #[test]
    fn merge_is_union() {
        let mut p = syn(&[0, 1]);
        p.merge(&syn(&[1, 9]));
        let got: Vec<u32> = p.iter().map(|a| a.0).collect();
        assert_eq!(got, vec![0, 1, 9]);
        assert_eq!(p.cardinality(), 3);
    }

    #[test]
    fn add_and_contains() {
        let mut s = Synopsis::empty(16);
        assert!(s.is_empty());
        assert!(s.add(AttrId(3)));
        assert!(!s.add(AttrId(3)));
        assert!(s.contains(AttrId(3)));
    }

    #[test]
    fn fused_matches_the_separate_operators() {
        let e = syn(&[0, 2, 8]);
        let p = syn(&[0, 8, 3, 5]);
        let c = e.fused(&p);
        assert_eq!(c.and, e.overlap(&p));
        assert_eq!(c.or, e.union_count(&p));
        assert_eq!(c.left, e.cardinality());
        assert_eq!(c.right, p.cardinality());
    }

    #[test]
    fn from_attrs_equals_from_bits() {
        let a = Synopsis::from_attrs(16, [AttrId(1), AttrId(5)]);
        let b = Synopsis::from_bits(16, [1, 5]);
        assert_eq!(a, b);
    }
}
