//! Dense bitset that grows its universe on demand.

use crate::fixed::FixedBitSet;
use crate::ops::BitSetOps;

/// A [`FixedBitSet`] that transparently grows when a bit beyond the current
/// capacity is inserted.
///
/// Used where the attribute universe is discovered incrementally — e.g. while
/// streaming entities into a fresh universal table before the attribute
/// catalog has stabilised.
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct GrowableBitSet {
    inner: FixedBitSet,
}

impl GrowableBitSet {
    /// Creates an empty growable bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bitset pre-sized for the universe `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: FixedBitSet::new(capacity),
        }
    }

    /// Creates a bitset from an iterator of bit indices.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(bits: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::new();
        for b in bits {
            s.insert(b);
        }
        s
    }

    /// Current universe size.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Borrows the underlying fixed bitset.
    pub fn as_fixed(&self) -> &FixedBitSet {
        &self.inner
    }

    /// Consumes self, yielding the underlying fixed bitset grown to exactly
    /// `capacity` (useful to normalise capacities across a table).
    pub fn into_fixed(mut self, capacity: usize) -> FixedBitSet {
        self.inner.grow(capacity);
        self.inner
    }
}

impl BitSetOps for GrowableBitSet {
    fn insert(&mut self, bit: u32) -> bool {
        if bit as usize >= self.inner.capacity() {
            // Grow geometrically to amortise repeated growth during streaming.
            let want = (bit as usize + 1).max(self.inner.capacity() * 2).max(64);
            self.inner.grow(want);
        }
        self.inner.insert(bit)
    }

    fn remove(&mut self, bit: u32) -> bool {
        self.inner.remove(bit)
    }

    fn contains(&self, bit: u32) -> bool {
        self.inner.contains(bit)
    }

    fn count(&self) -> u32 {
        self.inner.count()
    }

    fn and_count(&self, other: &Self) -> u32 {
        self.inner.and_count(&other.inner)
    }

    fn or_count(&self, other: &Self) -> u32 {
        self.inner.or_count(&other.inner)
    }

    fn xor_count(&self, other: &Self) -> u32 {
        self.inner.xor_count(&other.inner)
    }

    fn union_with(&mut self, other: &Self) {
        self.inner.union_with(&other.inner);
    }

    fn clear(&mut self) {
        self.inner.clear();
    }

    fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.inner.iter_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_on_insert() {
        let mut s = GrowableBitSet::new();
        assert_eq!(s.capacity(), 0);
        assert!(s.insert(1000));
        assert!(s.capacity() > 1000);
        assert!(s.contains(1000));
        assert!(!s.contains(999));
    }

    #[test]
    fn growth_is_geometric() {
        let mut s = GrowableBitSet::new();
        s.insert(0);
        let c1 = s.capacity();
        assert!(c1 >= 64);
        s.insert(c1 as u32); // one past capacity
        assert!(s.capacity() >= 2 * c1);
    }

    #[test]
    fn counts_across_capacities() {
        let a = GrowableBitSet::from_iter([1, 500]);
        let b = GrowableBitSet::from_iter([1, 2]);
        assert_eq!(a.and_count(&b), 1);
        assert_eq!(a.or_count(&b), 3);
        assert_eq!(a.xor_count(&b), 2);
    }

    #[test]
    fn into_fixed_normalises_capacity() {
        let s = GrowableBitSet::from_iter([3]);
        let f = s.into_fixed(128);
        assert_eq!(f.capacity(), 128);
        assert!(f.contains(3));
    }
}
