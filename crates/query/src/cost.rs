//! Plan cost estimation (without execution).
//!
//! The executor measures what a plan *did*; the planner sometimes needs to
//! know what a plan *would* cost — e.g. the CLI prints an estimate before
//! running, and the advisor compares candidate partitionings. The estimate
//! is exact for the segment count and an upper bound for pages and
//! entities: a scan reads, of a surviving partition, only the records whose
//! signature shares a bit with the query's and only the pages holding one
//! (how many depends on the data), so it never exceeds — and for a query
//! naming an attribute every record has, equals — the partition's totals.

use cind_storage::{StorageError, UniversalTable};

use crate::Plan;

/// Estimated cost of executing a [`Plan`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CostEstimate {
    /// Pages the scan will touch, at most: every page of every surviving
    /// segment. The scan skips the pages holding no candidate record.
    pub pages: u64,
    /// Entities the scan will read, at most: every record of every
    /// surviving segment. The scan skips the records whose signature shares
    /// no bit with the query's.
    pub entities_scanned: u64,
    /// Segments unioned (exact).
    pub segments: usize,
}

/// Estimates `plan` against the current table state.
///
/// # Errors
/// [`StorageError::NoSuchSegment`] if the plan references a dropped
/// segment (the plan is stale).
pub fn estimate(table: &UniversalTable, plan: &Plan) -> Result<CostEstimate, StorageError> {
    let mut est = CostEstimate { segments: plan.segments.len(), ..Default::default() };
    for &seg in &plan.segments {
        let segment = table.segment(seg)?;
        est.pages += segment.page_count() as u64;
        est.entities_scanned += segment.record_count() as u64;
    }
    Ok(est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, plan, Query};
    use cind_model::{AttrId, Entity, EntityId, Synopsis, Value};

    fn setup() -> (UniversalTable, Vec<(cind_storage::SegmentId, Synopsis)>) {
        let mut t = UniversalTable::new(64);
        t.catalog_mut().intern("a");
        t.catalog_mut().intern("b");
        let s1 = t.create_segment();
        let s2 = t.create_segment();
        t.catalog_mut().intern("rare");
        for i in 0..50u64 {
            let (seg, attr) = if i % 2 == 0 { (s1, 0) } else { (s2, 1) };
            let mut attrs = vec![(AttrId(attr), Value::Text("x".repeat(400)))];
            // Only the first two records of each segment carry the rare
            // attribute: one of a segment's two pages holds them.
            if i < 4 {
                attrs.push((AttrId(2), Value::Int(1)));
            }
            t.insert(seg, &Entity::new(EntityId(i), attrs).unwrap()).unwrap();
        }
        let view = vec![
            (s1, Synopsis::from_bits(3, [0, 2])),
            (s2, Synopsis::from_bits(3, [1, 2])),
        ];
        (t, view)
    }

    #[test]
    fn estimate_matches_execution_exactly_when_every_record_is_a_candidate() {
        let (t, view) = setup();
        let q = Query::from_attrs(3, [AttrId(0)]);
        let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
        let est = estimate(&t, &p).unwrap();
        let r = execute(&t, &q, &p).unwrap();
        assert_eq!(est.pages, r.io.logical_reads);
        assert_eq!(est.entities_scanned, r.entities_scanned);
        assert_eq!(est.segments, r.segments_read);
    }

    #[test]
    fn estimate_bounds_execution_from_above() {
        let (t, view) = setup();
        let q = Query::from_attrs(3, [AttrId(2)]);
        let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
        let est = estimate(&t, &p).unwrap();
        let r = execute(&t, &q, &p).unwrap();
        assert_eq!((est.segments, r.segments_read), (2, 2));
        assert_eq!((est.entities_scanned, r.entities_scanned, r.rows), (50, 4, 4));
        assert_eq!((est.pages, r.io.logical_reads), (4, 2));
    }

    #[test]
    fn empty_plan_costs_nothing() {
        let (t, _) = setup();
        let p = Plan { segments: Vec::new(), pruned: 2 };
        let est = estimate(&t, &p).unwrap();
        assert_eq!(est, CostEstimate { pages: 0, entities_scanned: 0, segments: 0 });
    }

    #[test]
    fn stale_plan_is_an_error() {
        let (t, _) = setup();
        let p = Plan { segments: vec![cind_storage::SegmentId(99)], pruned: 0 };
        assert!(matches!(
            estimate(&t, &p),
            Err(StorageError::NoSuchSegment(_))
        ));
    }
}
