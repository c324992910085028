//! Property suite for the tiered pruning index: random interleavings of
//! entity adds/removes and partition merges and re-splits, on a catalog
//! with deliberately tiny filter groups (so grows and staleness rebuilds
//! fire constantly).
//!
//! After EVERY operation:
//!
//! * `PartitionCatalog::validate` must be clean — which includes the
//!   structural no-false-negative check: no exact-present
//!   `(attr, partition)` pair may be absent from the approximate tier, in
//!   particular across the grow-rebuilds the tiny blocks force
//!   (membership preservation under `grow`);
//! * the tiered survivor set must be a superset of the exact disjointness
//!   oracle over `pruning_view` (and the exact twin's survivors);
//! * the tiered insert-scan argmax must equal an exact twin's whenever
//!   the best rating is non-negative (sign agreement otherwise).

use cind_model::{EntityId, Synopsis};
use cind_storage::SegmentId;
use cinderella_core::{IndexTier, PartitionCatalog, TierParams};
use proptest::prelude::*;

const UNIVERSE: usize = 24;

fn syn(bits: &[u32]) -> Synopsis {
    Synopsis::from_bits(UNIVERSE, bits.iter().copied())
}

/// Tiny tier knobs: 2-block groups saturate after a handful of distinct
/// pairs, forcing grow-rebuilds up to the 8-block ceiling.
fn tiny_params() -> TierParams {
    TierParams {
        blocks_per_group: 2,
        max_blocks_per_group: 8,
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Add an entity (attrs, size) to a picked partition.
    Add(Vec<u32>, u64, prop::sample::Index),
    /// Remove a picked member from a picked partition.
    Remove(prop::sample::Index, prop::sample::Index),
    /// Re-split a picked partition onto two fresh segments.
    Split(prop::sample::Index),
    /// Merge two picked partitions onto one fresh segment.
    Merge(prop::sample::Index, prop::sample::Index),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (
            prop::collection::vec(0u32..UNIVERSE as u32, 0..5),
            0u64..4,
            any::<prop::sample::Index>(),
        )
            .prop_map(|(a, s, p)| Op::Add(a, s, p)),
        2 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(p, m)| Op::Remove(p, m)),
        1 => any::<prop::sample::Index>().prop_map(Op::Split),
        1 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Op::Merge(a, b)),
    ]
}

/// Mirror member: (entity id, attrs, size).
type Member = (u64, Vec<u32>, u64);

struct Harness {
    tiered: PartitionCatalog,
    exact: PartitionCatalog,
    /// Mirror of live partitions: (seg, members).
    live: Vec<(u32, Vec<Member>)>,
    next_seg: u32,
    next_id: u64,
}

impl Harness {
    fn new(nparts: usize) -> Self {
        let mut h = Self {
            tiered: PartitionCatalog::with_tier_params(IndexTier::Tiered, tiny_params()),
            exact: PartitionCatalog::new(IndexTier::Exact),
            live: Vec::new(),
            next_seg: 0,
            next_id: 0,
        };
        for _ in 0..nparts {
            h.create();
        }
        h
    }

    fn create(&mut self) -> u32 {
        let seg = self.next_seg;
        self.next_seg += 1;
        self.tiered.create_partition(SegmentId(seg));
        self.exact.create_partition(SegmentId(seg));
        self.live.push((seg, Vec::new()));
        seg
    }

    fn add_to(&mut self, seg: u32, id: u64, attrs: &[u32], size: u64) {
        let s = syn(attrs);
        for cat in [&mut self.tiered, &mut self.exact] {
            cat.add_entity(SegmentId(seg), EntityId(id), &s, size);
        }
    }

    fn remove_from(&mut self, seg: u32, id: u64, attrs: &[u32], size: u64) -> u64 {
        let s = syn(attrs);
        let left = self
            .tiered
            .remove_entity(SegmentId(seg), EntityId(id), &s, size);
        let left2 = self
            .exact
            .remove_entity(SegmentId(seg), EntityId(id), &s, size);
        assert_eq!(left, left2);
        left
    }

    fn drop_partition(&mut self, slot: usize) {
        let (seg, _) = self.live.remove(slot);
        self.tiered.remove_partition(SegmentId(seg));
        self.exact.remove_partition(SegmentId(seg));
        if self.live.is_empty() {
            self.create();
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Add(attrs, size, pick) => {
                let slot = pick.index(self.live.len());
                let id = self.next_id;
                self.next_id += 1;
                let seg = self.live[slot].0;
                self.add_to(seg, id, attrs, *size);
                self.live[slot].1.push((id, attrs.clone(), *size));
            }
            Op::Remove(ppick, mpick) => {
                let slot = ppick.index(self.live.len());
                if self.live[slot].1.is_empty() {
                    return;
                }
                let idx = mpick.index(self.live[slot].1.len());
                let (id, attrs, size) = self.live[slot].1.remove(idx);
                let seg = self.live[slot].0;
                if self.remove_from(seg, id, &attrs, size) == 0 {
                    self.drop_partition(slot);
                }
            }
            Op::Split(pick) => {
                let slot = pick.index(self.live.len());
                if self.live[slot].1.len() < 2 {
                    return;
                }
                let members = self.live[slot].1.clone();
                self.drop_partition(slot);
                let a = self.create();
                let b = self.create();
                let mut halves = (Vec::new(), Vec::new());
                for (i, (id, attrs, size)) in members.into_iter().enumerate() {
                    let target = if i % 2 == 0 { a } else { b };
                    self.add_to(target, id, &attrs, size);
                    if i % 2 == 0 {
                        halves.0.push((id, attrs, size));
                    } else {
                        halves.1.push((id, attrs, size));
                    }
                }
                let n = self.live.len();
                self.live[n - 2].1 = halves.0;
                self.live[n - 1].1 = halves.1;
            }
            Op::Merge(apick, bpick) => {
                if self.live.len() < 2 {
                    return;
                }
                let ai = apick.index(self.live.len());
                let mut bi = bpick.index(self.live.len());
                if ai == bi {
                    bi = (bi + 1) % self.live.len();
                }
                let (hi, lo) = (ai.max(bi), ai.min(bi));
                let mut members = self.live[lo].1.clone();
                members.extend(self.live[hi].1.clone());
                self.drop_partition(hi);
                self.drop_partition(lo);
                let target = self.create();
                for (id, attrs, size) in &members {
                    self.add_to(target, *id, attrs, *size);
                }
                let n = self.live.len();
                self.live[n - 1].1 = members;
            }
        }
    }

    /// The invariants checked after every single operation.
    fn check(&self, probes: &[Vec<u32>]) -> Result<(), TestCaseError> {
        // Structural: includes the no-false-negative implication (every
        // exact-present pair admitted by the tier).
        let report = self.tiered.validate();
        prop_assert!(
            report.is_empty(),
            "{}",
            cinderella_core::validate::render(&report)
        );
        for attrs in probes {
            let q = syn(attrs);
            // Survivors: tiered ⊇ exact oracle.
            let oracle: Vec<SegmentId> = self
                .tiered
                .pruning_view()
                .filter(|(_, p, _)| !q.is_disjoint(p))
                .map(|(s, _, _)| s)
                .collect();
            let (tiered_s, _) = self.tiered.survivors(&q);
            prop_assert!(
                oracle.iter().all(|s| tiered_s.binary_search(s).is_ok()),
                "query {:?}: tiered {:?} must contain oracle {:?}",
                attrs,
                tiered_s,
                oracle
            );
            let (exact_s, _) = self.exact.survivors(&q);
            prop_assert_eq!(&exact_s, &oracle);

            // Insert scan: exact argmax agreement for a non-negative best;
            // a negative best and no candidate at all (`None`, which a
            // false positive can turn into a negative best) both mean a
            // new partition.
            let size = attrs.len() as u64;
            let acted_on = |best: Option<(SegmentId, f64)>| best.filter(|&(_, r)| r >= 0.0);
            let (a, _) = self.exact.best_partition(&q, size, 0.3);
            let (b, _) = self.tiered.best_partition(&q, size, 0.3);
            prop_assert_eq!(acted_on(a), acted_on(b), "probe {:?}: {:?} vs {:?}", attrs, a, b);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tier_invariants_hold_after_every_op(
        nparts in 1usize..6,
        ops in prop::collection::vec(op_strategy(), 1..60),
        probes in prop::collection::vec(
            prop::collection::vec(0u32..UNIVERSE as u32, 0..4),
            1..4,
        ),
    ) {
        let mut h = Harness::new(nparts);
        h.check(&probes)?;
        for op in &ops {
            h.apply(op);
            h.check(&probes)?;
        }
        prop_assert!(h.tiered.tier_active());
    }
}
