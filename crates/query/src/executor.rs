//! Plan execution over the universal table.
//!
//! One per-segment kernel, [`scan_branch`], does all the work: it walks a
//! surviving segment's raw records and lets the query's compiled
//! [`Projection`] match each one straight off its bytes and hand the
//! matching rows — cells still borrowed from the page — to a [`RowSink`].
//! The sink decides what a row costs: nothing (measurement runs), owned
//! [`Row`]s (the typed in-process API), or whatever encoding a caller's own
//! sink writes (the server's wire buffers).
//! Sequential plans run the kernel branch by branch on the calling thread
//! into one sink; parallel plans fan the branches out over a scoped worker
//! pool, where workers claim them from a shared atomic cursor and scan
//! through the table's [`ReadView`](cind_storage::ReadView) (per-shard pool
//! locks, lock-free I/O counters), one sink per branch. Either way the
//! per-branch results are merged *in plan order*, so `rows`, `cells`, and
//! `entities_scanned` — and the row order the sink ends up with — are
//! identical regardless of strategy or worker interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
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

impl QueryResult {
    /// Fraction of scanned entities that matched (1.0 when nothing was
    /// scanned).
    pub fn scan_precision(&self) -> f64 {
        if self.entities_scanned == 0 {
            1.0
        } else {
            self.rows as f64 / self.entities_scanned as f64
        }
    }
}

/// Executes `plan`, discarding row data (measurement runs). Honours the
/// plan's [`Parallelism`] knob: sequential plans run on the calling
/// thread, parallel plans fan out as in [`execute_parallel`].
pub fn execute(
    table: &UniversalTable,
    query: &Query,
    plan: &Plan,
) -> Result<QueryResult, StorageError> {
    execute_view(table.read_view(), query, plan)
}

/// [`execute`] over an explicit [`ReadView`] — the entry point for callers
/// scanning an owned [`cind_storage::TableSnapshot`] instead of a live
/// table (epoch snapshot reads).
pub fn execute_view(
    view: ReadView<'_>,
    query: &Query,
    plan: &Plan,
) -> Result<QueryResult, StorageError> {
    let workers = plan.parallelism.workers(plan.segments.len());
    run::<CountOnly>(view, &Projection::of(query), plan, workers).map(|(result, _)| result)
}

/// Executes `plan` and materialises the projected rows (requested
/// attributes in query order, `None` for NULL). Honours the plan's
/// [`Parallelism`] knob; row order (plan order, then scan order within a
/// segment) is identical for every strategy.
pub fn execute_collect(
    table: &UniversalTable,
    query: &Query,
    plan: &Plan,
) -> Result<(QueryResult, Vec<Row>), StorageError> {
    execute_collect_view(table.read_view(), query, plan)
}

/// [`execute_collect`] over an explicit [`ReadView`].
pub fn execute_collect_view(
    view: ReadView<'_>,
    query: &Query,
    plan: &Plan,
) -> Result<(QueryResult, Vec<Row>), StorageError> {
    execute_collect_projection(view, &Projection::of(query), plan)
}

/// [`execute_collect_view`] for a caller-compiled [`Projection`], whose
/// output columns need not be the planned query's attributes one to one —
/// a shard leg of a fan-out query projects at the full request width, NULL
/// in the columns its catalog does not know.
pub fn execute_collect_projection(
    view: ReadView<'_>,
    projection: &Projection,
    plan: &Plan,
) -> Result<(QueryResult, Vec<Row>), StorageError> {
    execute_into(view, projection, plan)
}

/// Executes `plan` into a sink of the caller's choosing: every matching
/// record's projected row goes to an `S`, in the row order of
/// [`execute_collect`], and the filled sink comes back with the
/// measurements. Honours the plan's [`Parallelism`] knob.
pub fn execute_into<S: RowSink>(
    view: ReadView<'_>,
    projection: &Projection,
    plan: &Plan,
) -> Result<(QueryResult, S), StorageError> {
    let workers = plan.parallelism.workers(plan.segments.len());
    run(view, projection, plan, workers)
}

/// Executes `plan` with `threads` workers, fanning the surviving segments
/// (the `UNION ALL` branches) over a scoped thread pool.
///
/// Aggregates (`rows`, `cells`, `entities_scanned`, pruning counts) are
/// merged in plan order and equal the sequential result exactly; the I/O
/// counters are accumulated per branch from per-access attribution and
/// folded together, so they cover exactly this execution's accesses even
/// under concurrent sessions. `threads` is clamped to `[1, branches]`.
///
/// # Errors
/// A storage error from one of the workers, if any branch fails;
/// [`StorageError::ScanWorkerPanicked`] if a worker thread panicked.
pub fn execute_parallel(
    table: &UniversalTable,
    query: &Query,
    plan: &Plan,
    threads: usize,
) -> Result<QueryResult, StorageError> {
    execute_parallel_view(table.read_view(), query, plan, threads)
}

/// [`execute_parallel`] over an explicit [`ReadView`].
///
/// # Errors
/// As [`execute_parallel`].
pub fn execute_parallel_view(
    view: ReadView<'_>,
    query: &Query,
    plan: &Plan,
    threads: usize,
) -> Result<QueryResult, StorageError> {
    run::<CountOnly>(view, &Projection::of(query), plan, threads).map(|(result, _)| result)
}

/// One branch's aggregates; its rows are in the sink it scanned into.
#[derive(Default)]
struct SegPartial {
    rows: u64,
    cells: u64,
    entities_scanned: u64,
    io: IoStats,
}

/// The scan kernel, shared by every strategy and every sink: one pass over
/// the raw records of `seg` that the projection's signature mask leaves as
/// candidates, each matched by `projection` and — if it matches — handed to
/// `sink`. `entities_scanned` counts the candidates: the records read.
fn scan_branch<S: RowSink>(
    view: ReadView<'_>,
    seg: SegmentId,
    projection: &Projection,
    sink: &mut S,
) -> Result<SegPartial, StorageError> {
    let mut p = SegPartial::default();
    let mut io = IoStats::default();
    view.scan_records(
        seg,
        projection.mask(),
        |record| {
            p.entities_scanned += 1;
            let cells = projection.match_record(record, sink)?;
            p.rows += u64::from(cells > 0);
            p.cells += u64::from(cells);
            Ok(())
        },
        &mut io,
    )?;
    p.io = io;
    Ok(p)
}

/// Scans every branch of `plan` — inline into one sink for one worker,
/// fanned out into a sink per branch otherwise — and folds the partials in
/// plan order.
fn run<S: RowSink>(
    view: ReadView<'_>,
    projection: &Projection,
    plan: &Plan,
    threads: usize,
) -> Result<(QueryResult, S), StorageError> {
    let start = Instant::now();
    let branches = plan.segments.len();
    let workers = threads.min(branches);
    let mut result = QueryResult {
        rows: 0,
        cells: 0,
        entities_scanned: 0,
        segments_read: branches,
        segments_pruned: plan.pruned,
        io: IoStats::default(),
        duration: Duration::ZERO,
    };
    let mut fold = |p: SegPartial| {
        result.rows += p.rows;
        result.cells += p.cells;
        result.entities_scanned += p.entities_scanned;
        result.io += p.io;
    };
    let mut sink = S::default();
    if workers <= 1 {
        for &seg in &plan.segments {
            fold(scan_branch(view, seg, projection, &mut sink)?);
        }
    } else {
        for (p, rows) in scan_parallel(view, projection, plan, workers)? {
            fold(p);
            sink.append(rows);
        }
    }
    result.duration = start.elapsed();
    Ok((result, sink))
}

/// The parallel fan-out: `workers` threads claim branch indices from an
/// atomic cursor and run [`scan_branch`] on each into a sink of its own;
/// the partials and their sinks come back in plan order.
fn scan_parallel<S: RowSink>(
    view: ReadView<'_>,
    projection: &Projection,
    plan: &Plan,
    workers: usize,
) -> Result<Vec<(SegPartial, S)>, StorageError> {
    /// What one worker brings back: `(branch index, partial, sink)` per
    /// branch it claimed.
    type Claimed<S> = Vec<(usize, SegPartial, S)>;
    let cursor = AtomicUsize::new(0);
    let worker_results: Vec<Result<Claimed<S>, StorageError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&seg) = plan.segments.get(i) else {
                                return Ok(done);
                            };
                            let mut sink = S::default();
                            let p = scan_branch(view, seg, projection, &mut sink)?;
                            done.push((i, p, sink));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(Err(StorageError::ScanWorkerPanicked)))
                .collect()
        });

    // Every branch index was claimed exactly once, so with no worker in
    // error the claimed partials, sorted by index, are the plan's branches.
    let mut claimed = Vec::with_capacity(plan.segments.len());
    for r in worker_results {
        claimed.extend(r?);
    }
    claimed.sort_unstable_by_key(|&(i, _, _)| i);
    Ok(claimed.into_iter().map(|(_, p, sink)| (p, sink)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{planner, Parallelism};
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
        assert_eq!(r.scan_precision(), 1.0);
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
    fn parallel_matches_sequential_aggregates() {
        let (t, view) = setup();
        let q = Query::from_attrs(4, [AttrId(0), AttrId(2)]);
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let seq = execute(&t, &q, &plan).unwrap();
        for threads in [1, 2, 8] {
            let par = execute_parallel(&t, &q, &plan, threads).unwrap();
            assert_eq!(par.rows, seq.rows, "{threads} threads");
            assert_eq!(par.cells, seq.cells);
            assert_eq!(par.entities_scanned, seq.entities_scanned);
            assert_eq!(par.segments_read, seq.segments_read);
            assert_eq!(par.segments_pruned, seq.segments_pruned);
            assert_eq!(par.io.logical_reads, seq.io.logical_reads);
        }
    }

    #[test]
    fn execute_dispatches_on_the_plan_knob() {
        let (t, view) = setup();
        let q = Query::from_attrs(4, [AttrId(0), AttrId(2)]);
        let seq_plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let par_plan = seq_plan.clone().with_parallelism(Parallelism::Threads(2));
        let seq = execute(&t, &q, &seq_plan).unwrap();
        let par = execute(&t, &q, &par_plan).unwrap();
        assert_eq!(par.rows, seq.rows);
        assert_eq!(par.entities_scanned, seq.entities_scanned);
    }

    #[test]
    fn parallel_collect_preserves_plan_order() {
        let (t, view) = setup();
        let q = Query::from_attrs(4, [AttrId(0), AttrId(2)]);
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let (_, seq_rows) = execute_collect(&t, &q, &plan).unwrap();
        let par_plan = plan.with_parallelism(Parallelism::Threads(4));
        let (r, par_rows) = execute_collect(&t, &q, &par_plan).unwrap();
        assert_eq!(r.rows as usize, par_rows.len());
        assert_eq!(seq_rows, par_rows, "row order must be deterministic");
    }

    #[test]
    fn parallel_on_empty_plan_is_fine() {
        let (t, view) = setup();
        let q = Query::from_attrs(5, [AttrId(4)]);
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let r = execute_parallel(&t, &q, &plan, 8).unwrap();
        assert_eq!(r.rows, 0);
        assert_eq!(r.segments_read, 0);
        assert_eq!(r.segments_pruned, 2);
    }

    #[test]
    fn snapshot_view_matches_live_table() {
        let (t, view) = setup();
        let q = Query::from_attrs(4, [AttrId(0), AttrId(2)]);
        let plan = planner::plan(&q, view.iter().map(|(s, p)| (*s, p)));
        let (live, live_rows) = execute_collect(&t, &q, &plan).unwrap();
        let snap = t.freeze();
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let plan = plan.clone().with_parallelism(parallelism);
            let (r, rows) = execute_collect_view(snap.view(), &q, &plan).unwrap();
            assert_eq!(r.rows, live.rows);
            assert_eq!(r.entities_scanned, live.entities_scanned);
            assert_eq!(rows, live_rows, "snapshot rows must match, in order");
        }
    }

    #[test]
    fn parallel_surfaces_storage_errors() {
        let (t, _) = setup();
        let q = Query::from_attrs(4, [AttrId(0)]);
        let plan = Plan {
            segments: vec![cind_storage::SegmentId(99)],
            pruned: 0,
            parallelism: Parallelism::Sequential,
        };
        assert!(execute_parallel(&t, &q, &plan, 4).is_err());
    }
}
