//! Partition pruning (§II) and plan construction.

use cind_model::Synopsis;
use cind_storage::SegmentId;

use crate::Query;

/// An execution plan: the segments that survive pruning, in catalog order —
/// the equivalent of the prototype's rewritten `UNION ALL` over partition
/// tables.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Segments to scan.
    pub segments: Vec<SegmentId>,
    /// Partitions pruned by the synopsis test.
    pub pruned: usize,
}

/// Builds the plan for `query` against a partition view: any iterator of
/// `(segment, attribute synopsis)` pairs, e.g.
/// `cinderella_core::PartitionCatalog::pruning_view` or a baseline's
/// assignment. A partition survives iff `|p ∧ q| ≠ 0`.
pub fn plan<'a>(
    query: &Query,
    partitions: impl IntoIterator<Item = (SegmentId, &'a Synopsis)>,
) -> Plan {
    let q = query.synopsis();
    let mut segments = Vec::new();
    let mut pruned = 0usize;
    for (seg, p) in partitions {
        if q.is_disjoint(p) {
            pruned += 1;
        } else {
            segments.push(seg);
        }
    }
    Plan { segments, pruned }
}

/// Builds the plan from a precomputed survivor set — the output of
/// `cinderella_core::PartitionCatalog::survivors` (or a frozen
/// `PruningSnapshot`), which derives the same set as [`plan`]'s
/// per-partition `|p ∧ q| = 0` test — or, on the tiered index storage, a
/// superset of it — from the catalog's pruning index in `O(|q| · P/64)`
/// words instead of `O(P)` synopsis tests. The two are differential-tested
/// against each other; [`plan`] stays the oracle.
///
/// `segments` must be in catalog (ascending segment) order — the executor
/// scans, and rows come back, in plan order.
pub fn plan_from_survivors(segments: Vec<SegmentId>, pruned: usize) -> Plan {
    debug_assert!(segments.windows(2).all(|w| w[0] < w[1]), "survivors not sorted");
    Plan { segments, pruned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::AttrId;

    fn syn(bits: &[u32]) -> Synopsis {
        Synopsis::from_bits(16, bits.iter().copied())
    }

    #[test]
    fn prunes_disjoint_partitions() {
        let q = Query::from_attrs(16, [AttrId(0), AttrId(1)]);
        let parts = [
            (SegmentId(0), syn(&[0, 5])),  // overlaps on 0
            (SegmentId(1), syn(&[7, 8])),  // pruned
            (SegmentId(2), syn(&[1])),     // overlaps on 1
            (SegmentId(3), syn(&[])),      // empty synopsis: pruned
        ];
        let plan = plan(&q, parts.iter().map(|(s, p)| (*s, p)));
        assert_eq!(plan.segments, vec![SegmentId(0), SegmentId(2)]);
        assert_eq!(plan.pruned, 2);
    }

    #[test]
    fn empty_view_yields_empty_plan() {
        let q = Query::from_attrs(16, [AttrId(0)]);
        let plan = plan(&q, std::iter::empty());
        assert!(plan.segments.is_empty());
        assert_eq!(plan.pruned, 0);
    }

    #[test]
    fn plan_from_survivors_builds_the_same_plan_shape() {
        let p = plan_from_survivors(vec![SegmentId(0), SegmentId(2)], 2);
        assert_eq!(p.segments, vec![SegmentId(0), SegmentId(2)]);
        assert_eq!(p.pruned, 2);
    }
}
