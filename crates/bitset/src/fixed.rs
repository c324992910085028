//! Dense bitset with a fixed universe size.

use crate::words::{self, FusedCounts};
use crate::{blocks_for, BITS};

/// A dense bitset over a fixed universe `0..capacity`, stored as `u64`
/// blocks.
///
/// This is the default representation for partition synopses: the universe is
/// the attribute dictionary of the universal table (typically a few hundred
/// attributes), so a synopsis is a handful of machine words and every rating
/// count is a short fused popcount loop.
///
/// Out-of-range bits: `insert` panics (it indicates a catalog bug),
/// `contains`/`remove` simply report the bit as unset.
#[derive(Default)]
pub struct FixedBitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

/// `clone_from` reuses the destination's block buffer: a split starter
/// swapped in place allocates nothing once its buffer is wide enough.
impl Clone for FixedBitSet {
    fn clone(&self) -> Self {
        Self { blocks: self.blocks.clone(), capacity: self.capacity }
    }

    fn clone_from(&mut self, source: &Self) {
        self.blocks.clone_from(&source.blocks);
        self.capacity = source.capacity;
    }
}

/// Equality is *set* equality: two bitsets with the same set bits compare
/// equal regardless of capacity (the universe is implicit and may have grown
/// on one side).
impl PartialEq for FixedBitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.blocks.len() <= other.blocks.len() {
            (&self.blocks, &other.blocks)
        } else {
            (&other.blocks, &self.blocks)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|b| *b == 0)
    }
}

impl Eq for FixedBitSet {}

impl std::hash::Hash for FixedBitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Trim trailing zero blocks so equal sets hash equally.
        let trimmed = match self.blocks.iter().rposition(|b| *b != 0) {
            Some(i) => &self.blocks[..=i],
            None => &[],
        };
        trimmed.hash(state);
    }
}

impl FixedBitSet {
    /// Creates an empty bitset over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            blocks: vec![0; blocks_for(capacity)],
            capacity,
        }
    }

    /// Creates a bitset from an iterator of bit indices.
    ///
    /// # Panics
    /// Panics if any index is `>= capacity`.
    pub fn from_iter(capacity: usize, bits: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::new(capacity);
        for b in bits {
            s.insert(b);
        }
        s
    }

    /// The universe size this bitset was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raw block view, least-significant block first.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Mutable raw block view, least-significant block first — the
    /// word-at-a-time write path for bulk candidate accumulation (ORing a
    /// 64-slot group mask beats 64 `insert` calls). Callers must keep bits
    /// at or above [`FixedBitSet::capacity`] clear; `count`, `iter_ones`,
    /// and the fused kernels trust every stored word.
    pub fn blocks_mut(&mut self) -> &mut [u64] {
        &mut self.blocks
    }

    /// Grows the universe to at least `capacity`, preserving set bits.
    pub fn grow(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.blocks.resize(blocks_for(capacity), 0);
            self.capacity = capacity;
        }
    }

    fn split(bit: u32) -> (usize, u64) {
        let bit = bit as usize;
        (bit / BITS, 1u64 << (bit % BITS))
    }

    /// Inserts `bit`. Returns `true` if the bit was newly set.
    pub fn insert(&mut self, bit: u32) -> bool {
        assert!(
            (bit as usize) < self.capacity,
            "bit {bit} out of range for capacity {}",
            self.capacity
        );
        let (blk, mask) = Self::split(bit);
        let was = self.blocks[blk] & mask != 0;
        self.blocks[blk] |= mask;
        !was
    }

    /// Removes `bit`. Returns `true` if the bit was previously set.
    pub fn remove(&mut self, bit: u32) -> bool {
        let (blk, mask) = Self::split(bit);
        match self.blocks.get_mut(blk) {
            Some(b) => {
                let was = *b & mask != 0;
                *b &= !mask;
                was
            }
            None => false,
        }
    }

    /// Whether `bit` is set.
    pub fn contains(&self, bit: u32) -> bool {
        let (blk, mask) = Self::split(bit);
        self.blocks.get(blk).is_some_and(|b| b & mask != 0)
    }

    /// Number of set bits (`|s|`).
    pub fn count(&self) -> u32 {
        self.blocks.iter().map(|b| b.count_ones()).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// `|self ∧ other|` — size of the intersection.
    pub fn and_count(&self, other: &Self) -> u32 {
        words::and_count(&self.blocks, &other.blocks)
    }

    /// All four rating cardinalities (`|self ∧ other|`, `|self ∨ other|`,
    /// `|self|`, `|other|`) from one word loop.
    pub fn fused_counts(&self, other: &Self) -> FusedCounts {
        words::fused_counts(&self.blocks, &other.blocks)
    }

    /// `|self ∨ other|` — size of the union.
    pub fn or_count(&self, other: &Self) -> u32 {
        self.fused_counts(other).or
    }

    /// `|self ⊕ other|` — size of the symmetric difference. This is the
    /// paper's `DIFF(e₁, e₂)` used for split-starter maintenance.
    pub fn xor_count(&self, other: &Self) -> u32 {
        let c = self.fused_counts(other);
        c.or - c.and
    }

    /// Whether the intersection is empty (`|self ∧ other| = 0`) — the
    /// partition-pruning test. Stops at the first shared word instead of
    /// popcounting the whole intersection.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        words::is_disjoint(&self.blocks, &other.blocks)
    }

    /// Sets every bit of `other` in `self` (`self ∨= other`), growing the
    /// universe if `other`'s is larger. Used to fold an entity synopsis into
    /// a partition synopsis.
    pub fn union_with(&mut self, other: &Self) {
        if other.capacity > self.capacity {
            self.grow(other.capacity);
        }
        for (dst, src) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *dst |= src;
        }
    }

    /// The set bits in ascending order, as a concrete iterator (no heap box,
    /// no virtual `next`: the indexed rating scan walks its candidates
    /// through it on every insert).
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        words::iter_ones(&self.blocks)
    }
}

impl std::fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter_ones()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = FixedBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
        assert_eq!(s.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        FixedBitSet::new(10).insert(10);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = FixedBitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn fused_counts_match_definitions() {
        let a = FixedBitSet::from_iter(200, [1, 2, 64, 130]);
        let b = FixedBitSet::from_iter(200, [2, 3, 130, 199]);
        assert_eq!(a.and_count(&b), 2);
        assert_eq!(a.or_count(&b), 6);
        assert_eq!(a.xor_count(&b), 4);
        assert!(!a.is_disjoint(&b));
        let c = FixedBitSet::from_iter(200, [5, 77]);
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn counts_with_different_capacities() {
        let a = FixedBitSet::from_iter(64, [1, 63]);
        let b = FixedBitSet::from_iter(300, [1, 290]);
        assert_eq!(a.and_count(&b), 1);
        assert_eq!(a.or_count(&b), 3);
        assert_eq!(a.xor_count(&b), 2);
        assert_eq!(b.and_count(&a), 1);
        assert_eq!(b.or_count(&a), 3);
    }

    #[test]
    fn union_with_grows() {
        let mut a = FixedBitSet::from_iter(64, [1]);
        let b = FixedBitSet::from_iter(300, [290]);
        a.union_with(&b);
        assert!(a.contains(1));
        assert!(a.contains(290));
        assert_eq!(a.capacity(), 300);
    }

    #[test]
    fn blocks_mut_word_writes_are_visible() {
        let mut s = FixedBitSet::new(130);
        s.blocks_mut()[1] |= 1u64 << 3;
        assert!(s.contains(67));
        assert_eq!(s.count(), 1);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![67]);
    }

    #[test]
    fn iter_ones_ascending() {
        let s = FixedBitSet::from_iter(200, [199, 0, 64, 63, 65]);
        let v: Vec<u32> = s.iter_ones().collect();
        assert_eq!(v, vec![0, 63, 64, 65, 199]);
    }

    #[test]
    fn iter_ones_empty() {
        let s = FixedBitSet::new(128);
        assert_eq!(s.iter_ones().count(), 0);
        let z = FixedBitSet::new(0);
        assert_eq!(z.iter_ones().count(), 0);
    }

    #[test]
    fn equality_ignores_capacity() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = FixedBitSet::from_iter(10, [1, 3]);
        let b = FixedBitSet::from_iter(500, [1, 3]);
        assert_eq!(a, b);
        let hash = |s: &FixedBitSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let c = FixedBitSet::from_iter(500, [1, 3, 400]);
        assert_ne!(a, c);
        assert_ne!(c, a);
        assert_eq!(FixedBitSet::new(0), FixedBitSet::new(300));
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let mut dst = FixedBitSet::from_iter(256, [3, 200]);
        let before = dst.blocks().as_ptr();
        let src = FixedBitSet::from_iter(130, [1, 129]);
        dst.clone_from(&src);
        assert_eq!(dst.blocks(), src.blocks());
        assert_eq!(dst.capacity(), 130);
        assert_eq!(dst.blocks().as_ptr(), before, "no new buffer for a narrower source");
    }

    #[test]
    fn debug_renders_as_set() {
        let s = FixedBitSet::from_iter(10, [1, 3]);
        assert_eq!(format!("{s:?}"), "{1, 3}");
    }
}
