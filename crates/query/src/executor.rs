//! Plan execution over the universal table.
//!
//! One per-segment kernel, [`scan_branch`], does all the work: it walks a
//! surviving segment's raw records and lets the query's compiled
//! [`Projection`] match each one straight off its bytes and hand the
//! matching rows — cells still borrowed from the page — to a [`RowSink`].
//! The sink decides what a row costs: nothing (measurement runs), owned
//! [`Row`]s (the typed in-process API), or whatever encoding a caller's own
//! sink writes (the server's wire buffers).
//! A plan's branches are scanned one after another on the calling thread,
//! in plan order, into one sink — the paper's sequential `UNION ALL` over
//! the partitions that survive pruning. Threads enter one level up, where
//! the data is owned: `cind-server` runs one such scan per shard.

use std::time::{Duration, Instant};

use cind_storage::{IoStats, ReadView, SegmentId, StorageError, UniversalTable};

use crate::projection::CountOnly;
use crate::{Plan, Projection, Query, Row, RowSink};

/// Measurements of one query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Entities that satisfied the predicate.
    pub rows: u64,
    /// Non-null cells returned across all rows (the data the query was
    /// actually after — the numerator of Definition 1 for this query).
    pub cells: u64,
    /// Entities scanned, matching or not (what was *read*): the records
    /// handed to the matcher. Records of a surviving segment whose
    /// signature shares no bit with the query's are skipped unread and not
    /// counted.
    pub entities_scanned: u64,
    /// Segments scanned (the UNION ALL width).
    pub segments_read: usize,
    /// Partitions pruned before touching data.
    pub segments_pruned: usize,
    /// The I/O this execution issued, attributed per access at the buffer
    /// pool (not a delta of the pool's shared counters), so the numbers
    /// are exact even while other sessions read and write concurrently.
    pub io: IoStats,
    /// Wall-clock execution time.
    pub duration: Duration,
}

/// Executes `plan`, discarding row data (measurement runs).
pub fn execute(
    table: &UniversalTable,
    query: &Query,
    plan: &Plan,
) -> Result<QueryResult, StorageError> {
    execute_into::<CountOnly>(table.read_view(), &Projection::of(query), plan)
        .map(|(result, _)| result)
}

/// Executes `plan` and materialises the projected rows (requested
/// attributes in query order, `None` for NULL), in plan order, then scan
/// order within a segment.
pub fn execute_collect(
    table: &UniversalTable,
    query: &Query,
    plan: &Plan,
) -> Result<(QueryResult, Vec<Row>), StorageError> {
    execute_into(table.read_view(), &Projection::of(query), plan)
}

/// [`execute_collect`] over an explicit [`ReadView`] — for callers scanning
/// an owned [`cind_storage::TableSnapshot`] instead of a live table.
pub fn execute_collect_view(
    view: ReadView<'_>,
    query: &Query,
    plan: &Plan,
) -> Result<(QueryResult, Vec<Row>), StorageError> {
    execute_into(view, &Projection::of(query), plan)
}

/// Executes `plan` into a sink of the caller's choosing: every matching
/// record's projected row goes to one `S`, in the row order of
/// [`execute_collect`], and the filled sink comes back with the
/// measurements. `projection`'s output columns need not be the planned
/// query's attributes one to one — a shard leg of a fan-out query projects
/// at the full request width, NULL in the columns its catalog does not know.
pub fn execute_into<S: RowSink>(
    view: ReadView<'_>,
    projection: &Projection,
    plan: &Plan,
) -> Result<(QueryResult, S), StorageError> {
    #[allow(
        clippy::disallowed_methods,
        reason = "times the QueryResult report; no scan decision reads it"
    )]
    let start = Instant::now();
    let mut result = QueryResult {
        rows: 0,
        cells: 0,
        entities_scanned: 0,
        segments_read: plan.segments.len(),
        segments_pruned: plan.pruned,
        io: IoStats::default(),
        duration: Duration::ZERO,
    };
    let mut sink = S::default();
    for &seg in &plan.segments {
        scan_branch(view, seg, projection, &mut sink, &mut result)?;
    }
    result.duration = start.elapsed();
    Ok((result, sink))
}

/// The scan kernel, shared by every sink: one pass over the raw records
/// of `seg` that the projection's signature mask leaves as candidates, each
/// matched by `projection` — walked only as far as its stored signature
/// says a requested attribute may lie — and, if it matches, handed to
/// `sink`, with the branch's counts added to `result`. `entities_scanned`
/// counts the candidates: the records read.
fn scan_branch<S: RowSink>(
    view: ReadView<'_>,
    seg: SegmentId,
    projection: &Projection,
    sink: &mut S,
    result: &mut QueryResult,
) -> Result<(), StorageError> {
    let QueryResult { rows, cells, entities_scanned, io, .. } = result;
    view.scan_records(
        seg,
        projection.mask(),
        |record, signature| {
            *entities_scanned += 1;
            let n = projection.match_record(record, signature, sink)?;
            *rows += u64::from(n > 0);
            *cells += u64::from(n);
            Ok(())
        },
        io,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner;
    use cind_model::{AttrId, Entity, EntityId, Synopsis, Value};

    /// Two segments: 0 holds "cameras" (attrs 0,1), 1 holds "drives"
    /// (attrs 2,3).
    fn setup() -> (UniversalTable, Vec<(cind_storage::SegmentId, Synopsis)>) {
        let mut t = UniversalTable::new(64);
        for name in ["res", "zoom", "rpm", "cache"] {
            t.catalog_mut().intern(name);
        }
        let cam = t.create_segment();
        let drv = t.create_segment();
        for i in 0..10u64 {
            let e = Entity::new(
                EntityId(i),
                [(AttrId(0), Value::Int(1)), (AttrId(1), Value::Int(2))],
            )
            .unwrap();
            t.insert(cam, &e).unwrap();
        }
        for i in 10..15u64 {
            let e = Entity::new(
                EntityId(i),
                [(AttrId(2), Value::Int(3)), (AttrId(3), Value::Int(4))],
            )
            .unwrap();
            t.insert(drv, &e).unwrap();
        }
        let view = vec![
            (cam, Synopsis::from_bits(4, [0, 1])),
            (drv, Synopsis::from_bits(4, [2, 3])),
        ];
        (t, view)
    }

    #[test]
    fn pruned_execution_reads_only_relevant_segment() {
        let (t, view) = setup();
        let q = Query::from_attrs(4, [AttrId(2)]);
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let r = execute(&t, &q, &plan).unwrap();
        assert_eq!(r.rows, 5);
        assert_eq!(r.cells, 5);
        assert_eq!(r.entities_scanned, 5);
        assert_eq!(r.segments_read, 1);
        assert_eq!(r.segments_pruned, 1);
        assert!(r.io.logical_reads >= 1);
    }

    #[test]
    fn unpruned_execution_reads_everything() {
        let (t, view) = setup();
        let q = Query::from_attrs(4, [AttrId(0), AttrId(2)]);
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let r = execute(&t, &q, &plan).unwrap();
        assert_eq!(r.rows, 15);
        assert_eq!(r.entities_scanned, 15);
        assert_eq!(r.segments_read, 2);
        assert_eq!(r.segments_pruned, 0);
    }

    #[test]
    fn collect_returns_projected_rows() {
        let (t, view) = setup();
        let q = Query::from_attrs(4, [AttrId(3), AttrId(0)]);
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let (r, rows) = execute_collect(&t, &q, &plan).unwrap();
        assert_eq!(r.rows, 15);
        assert_eq!(rows.len(), 15);
        // Camera rows project NULL for attr 3 and Int(1) for attr 0.
        let cam_rows = rows
            .iter()
            .filter(|row| row[0].is_none())
            .count();
        assert_eq!(cam_rows, 10);
        let drive_row = rows.iter().find(|row| row[0].is_some()).unwrap();
        assert_eq!(drive_row[0], Some(Value::Int(4)));
        assert_eq!(drive_row[1], None);
    }

    #[test]
    fn empty_plan_reads_nothing() {
        let (t, view) = setup();
        let q = Query::from_attrs(5, [AttrId(4)]); // attribute nobody has
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let r = execute(&t, &q, &plan).unwrap();
        assert_eq!(r.rows, 0);
        assert_eq!(r.entities_scanned, 0);
        assert_eq!(r.io.logical_reads, 0);
        assert_eq!(r.segments_pruned, 2);
    }

    #[test]
    fn snapshot_view_matches_live_table() {
        let (t, view) = setup();
        let q = Query::from_attrs(4, [AttrId(0), AttrId(2)]);
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let (live, live_rows) = execute_collect(&t, &q, &plan).unwrap();
        let snap = t.freeze();
        let (r, rows) = execute_collect_view(snap.view(), &q, &plan).unwrap();
        assert_eq!(r.rows, live.rows);
        assert_eq!(r.entities_scanned, live.entities_scanned);
        assert_eq!(rows, live_rows, "snapshot rows must match, in order");
    }

    #[test]
    fn a_missing_segment_surfaces_the_storage_error() {
        let (t, _) = setup();
        let q = Query::from_attrs(4, [AttrId(0)]);
        let plan = Plan { segments: vec![cind_storage::SegmentId(99)], pruned: 0 };
        assert!(execute(&t, &q, &plan).is_err());
    }
}
