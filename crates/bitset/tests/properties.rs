//! Property tests: the bitset must agree with a reference implementation
//! built on `BTreeSet<u32>`.

use cind_bitset::FixedBitSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: u32 = 256;

fn bits() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..UNIVERSE, 0..64)
}

/// Reference counts computed with BTreeSet.
fn reference(a: &[u32], b: &[u32]) -> (u32, u32, u32) {
    let sa: BTreeSet<u32> = a.iter().copied().collect();
    let sb: BTreeSet<u32> = b.iter().copied().collect();
    let and = sa.intersection(&sb).count() as u32;
    let or = sa.union(&sb).count() as u32;
    let xor = sa.symmetric_difference(&sb).count() as u32;
    (and, or, xor)
}

macro_rules! agree_with_reference {
    ($name:ident, $make:expr) => {
        proptest! {
            #[test]
            fn $name(a in bits(), b in bits()) {
                let (and, or, xor) = reference(&a, &b);
                let sa = $make(&a);
                let sb = $make(&b);
                prop_assert_eq!(sa.and_count(&sb), and);
                prop_assert_eq!(sa.or_count(&sb), or);
                prop_assert_eq!(sa.xor_count(&sb), xor);
                prop_assert_eq!(sa.is_disjoint(&sb), and == 0);
                let fused = sa.fused_counts(&sb);
                prop_assert_eq!(fused.and, and);
                prop_assert_eq!(fused.or, or);
                prop_assert_eq!(fused.left, sa.count());
                prop_assert_eq!(fused.right, sb.count());
                // Count and iteration agree with the reference set.
                let ra: BTreeSet<u32> = a.iter().copied().collect();
                prop_assert_eq!(sa.count() as usize, ra.len());
                let iterated: Vec<u32> = sa.iter_ones().collect();
                let expect: Vec<u32> = ra.iter().copied().collect();
                prop_assert_eq!(iterated, expect);
            }
        }
    };
}

agree_with_reference!(fixed_agrees, |v: &[u32]| FixedBitSet::from_iter(
    UNIVERSE as usize,
    v.iter().copied()
));

proptest! {
    /// insert/remove sequences leave the bitset equal to the reference set.
    #[test]
    fn mutation_sequences_agree(ops in prop::collection::vec((any::<bool>(), 0..UNIVERSE), 0..128)) {
        let mut reference = BTreeSet::new();
        let mut fixed = FixedBitSet::new(UNIVERSE as usize);
        for (is_insert, bit) in ops {
            if is_insert {
                let expect = reference.insert(bit);
                prop_assert_eq!(fixed.insert(bit), expect);
            } else {
                let expect = reference.remove(&bit);
                prop_assert_eq!(fixed.remove(bit), expect);
            }
        }
        let expect: Vec<u32> = reference.iter().copied().collect();
        prop_assert_eq!(fixed.iter_ones().collect::<Vec<_>>(), expect);
    }

    /// union_with equals the reference union.
    #[test]
    fn union_with_agrees(a in bits(), b in bits()) {
        let ra: BTreeSet<u32> = a.iter().copied().collect();
        let rb: BTreeSet<u32> = b.iter().copied().collect();
        let expect: Vec<u32> = ra.union(&rb).copied().collect();

        let mut fa = FixedBitSet::from_iter(UNIVERSE as usize, a.iter().copied());
        fa.union_with(&FixedBitSet::from_iter(UNIVERSE as usize, b.iter().copied()));
        prop_assert_eq!(fa.iter_ones().collect::<Vec<_>>(), expect);
    }

    /// The raw word-slice kernels agree with the reference, including with
    /// mismatched slice lengths (implicit zero-extension).
    #[test]
    fn word_kernels_agree(a in bits(), b in bits(), cap_a in 1u32..=UNIVERSE, cap_b in 1u32..=UNIVERSE) {
        let a: Vec<u32> = a.into_iter().filter(|&x| x < cap_a).collect();
        let b: Vec<u32> = b.into_iter().filter(|&x| x < cap_b).collect();
        let (and, or, _) = reference(&a, &b);
        let fa = FixedBitSet::from_iter(cap_a as usize, a.iter().copied());
        let fb = FixedBitSet::from_iter(cap_b as usize, b.iter().copied());
        let fused = cind_bitset::words::fused_counts(fa.blocks(), fb.blocks());
        prop_assert_eq!(fused.and, and);
        prop_assert_eq!(fused.or, or);
        prop_assert_eq!(fused.left, fa.count());
        prop_assert_eq!(fused.right, fb.count());
        prop_assert_eq!(
            cind_bitset::words::is_disjoint(fa.blocks(), fb.blocks()),
            and == 0
        );
        prop_assert_eq!(cind_bitset::words::and_count(fa.blocks(), fb.blocks()), and);
        prop_assert_eq!(
            cind_bitset::words::iter_ones(fa.blocks()).collect::<Vec<_>>(),
            fa.iter_ones().collect::<Vec<_>>()
        );
        // Bitsets of unequal capacity take the same early-exit path.
        prop_assert_eq!(fa.is_disjoint(&fb), and == 0);
        let cross = fa.fused_counts(&fb);
        prop_assert_eq!(cross.and, and);
        prop_assert_eq!(cross.or, or);
    }
}
