//! Tier-1 differential for the signature-filtered page walk: a scan hands
//! the matcher only the records whose entity signature shares a bit with the
//! query's, and touches only the pages that hold one. Against the
//! decode-then-project oracle (`common::scan_oracle`, which never looks at
//! the signature column) the masked scan must return the same rows, cells
//! and row order; `entities_scanned` must be the oracle's count of live
//! records whose *recomputed* signature meets the mask, and
//! `io.logical_reads` its count of pages holding one — under churn through
//! every path that puts a record on a page, across `freeze()` snapshots
//! taken mid-churn, after a snapshot restore and after a WAL replay. Once
//! with every attribute id ≤ 100, where the signatures are exact (what is
//! read ≡ what is returned), and once over 1 100 attributes, where
//! `id mod 128` aliases and a scan may read records it then rejects, but
//! never skip one it should have returned.

use std::io::Write;
use std::sync::{Arc, Mutex};

use cinderella::core::{Cinderella, Config};
use cinderella::model::{AttrId, Entity, EntityId, Value};
use cinderella::query::{execute_collect_view, plan_from_survivors, Query, Row};
use cinderella::storage::{replay, ReadView, SegmentId, TableSnapshot, UniversalTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

/// A WAL sink the test can read back while the table owns the writer.
#[derive(Clone, Default)]
struct SharedLog(Arc<Mutex<Vec<u8>>>);

impl Write for SharedLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("log lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The attribute space of one run: entities draw most attributes from one
/// of the `bases[k] .. bases[k] + 8` shapes, the rest from anywhere.
struct Shapes {
    universe: u32,
    bases: &'static [u32],
}

/// Every id ≤ 100: one signature bit per attribute.
const NARROW: Shapes = Shapes { universe: 101, bases: &[0, 20, 40, 60, 90] };
/// Ids up to 1 099; 130 ≡ 2, 260 ≡ 4, 1 000 ≡ 104 and 1 030 ≡ 6 (mod 128),
/// so shapes overlap in their signature bits without sharing an attribute.
const WIDE: Shapes = Shapes { universe: 1_100, bases: &[0, 130, 260, 1_000, 1_030] };

impl Shapes {
    fn attr(&self, shape: usize, rng: &mut StdRng) -> u32 {
        if rng.gen_bool(0.85) {
            self.bases[shape] + rng.gen_range(0..8)
        } else {
            rng.gen_range(0..self.universe)
        }
    }

    /// 0–6 attributes (one entity in twenty has none), values of every tag,
    /// text from empty to long enough that records differ in size by a
    /// factor of ten — which is what makes pages compact.
    fn entity(&self, id: u64, rng: &mut StdRng) -> Entity {
        let shape = rng.gen_range(0..self.bases.len());
        let arity = if rng.gen_bool(0.05) { 0 } else { rng.gen_range(1..=6usize) };
        let mut attrs: Vec<(AttrId, Value)> = Vec::new();
        while attrs.len() < arity {
            let a = AttrId(self.attr(shape, rng));
            if attrs.iter().any(|(have, _)| *have == a) {
                continue;
            }
            let value = match rng.gen_range(0..4) {
                0 => Value::Bool(rng.gen_bool(0.5)),
                1 => Value::Int(rng.gen_range(-1_000..1_000)),
                2 => Value::Float(f64::from(rng.gen_range(0..1_000u32)) / 8.0),
                _ => Value::Text("t".repeat(rng.gen_range(0..400))),
            };
            attrs.push((a, value));
        }
        Entity::new(EntityId(id), attrs).expect("deduped")
    }

    /// Two- and three-attribute queries inside one shape and across two, a
    /// single attribute, and a projection that repeats one.
    fn queries(&self, rng: &mut StdRng) -> Vec<Query> {
        let mut out = Vec::new();
        for shape in 0..self.bases.len() {
            let other = (shape + 1) % self.bases.len();
            let (a, b, c) = (self.attr(shape, rng), self.attr(shape, rng), self.attr(other, rng));
            out.push(vec![a, b]);
            out.push(vec![c, a, b]);
            out.push(vec![a]);
            out.push(vec![b, a, b]);
        }
        out.into_iter()
            .map(|attrs| Query::from_attrs(self.universe as usize, attrs.into_iter().map(AttrId)))
            .collect()
    }
}

/// What the masked scans of one view read and returned, summed over the
/// queries asked of it.
#[derive(Clone, Copy, Default)]
struct Tally {
    live: u64,
    candidates: u64,
    rows: u64,
}

/// The differential itself: every query over every segment of `view`
/// (no segment pruning — the record and page filters are what is under
/// test) against the oracle. Returns the answers so a snapshot can be asked
/// again later.
fn check(view: ReadView<'_>, queries: &[Query], exact: bool, tally: &mut Tally) -> Vec<Vec<Row>> {
    let segments: Vec<SegmentId> = view.segment_ids().collect();
    let plan = plan_from_survivors(segments.clone(), 0);
    let mut answers = Vec::new();
    for q in queries {
        let want = common::scan_oracle(view, q, &segments);
        if exact {
            assert_eq!(want.candidates, want.rows.len() as u64, "≤ 128 attributes: no aliasing");
        }
        let (got, rows) = execute_collect_view(view, q, &plan).expect("masked scan");
        assert_eq!(rows, want.rows, "{:?}: rows, cells, row order", q.attrs());
        assert_eq!(
            (got.rows, got.cells, got.entities_scanned, got.io.logical_reads),
            (want.rows.len() as u64, want.cells, want.candidates, want.pages),
            "{:?}: rows, cells, records read, pages touched",
            q.attrs()
        );
        tally.live += want.live;
        tally.candidates += want.candidates;
        tally.rows += want.rows.len() as u64;
        answers.push(want.rows);
    }
    answers
}

fn churn(shapes: &Shapes, seed: u64) -> Tally {
    let exact = shapes.universe <= 128;
    let mut rng = StdRng::seed_from_u64(seed);
    // A pool far smaller than the data: scans churn it.
    let mut table = UniversalTable::new(16);
    let log = SharedLog::default();
    table.attach_wal(Box::new(log.clone()));
    for i in 0..shapes.universe {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let config = Config { weight: 0.5, capacity: 24, ..Config::default() };
    let mut cindy = Cinderella::new(config.clone());
    let queries = shapes.queries(&mut rng);
    let mut live: Vec<EntityId> = Vec::new();
    let mut next_id = 0u64;
    let mut tally = Tally::default();
    // Snapshots frozen mid-churn, with what they answered when taken.
    let mut frozen: Vec<(TableSnapshot, Vec<Vec<Row>>)> = Vec::new();

    for step in 0..2_400 {
        let op = rng.gen_range(0..100);
        if op < 50 || live.is_empty() {
            // Inserts overflow partitions (split) and refill the slots and
            // bytes earlier deletes left (slot reuse, page compaction).
            let e = shapes.entity(next_id, &mut rng);
            next_id += 1;
            live.push(e.id());
            cindy.insert(&mut table, e).expect("insert");
        } else if op < 72 {
            let id = live[rng.gen_range(0..live.len())];
            cindy.update(&mut table, shapes.entity(id.0, &mut rng)).expect("update");
        } else if op < 97 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            cindy.delete(&mut table, id).expect("delete");
        } else if op < 98 {
            cindy.merge_pass(&mut table, 0.5).expect("merge pass");
        } else {
            // Re-split the fullest partition; merge the two emptiest.
            let mut by_size: Vec<(u64, SegmentId)> =
                cindy.catalog().iter().map(|m| (m.entities, m.segment)).collect();
            by_size.sort_unstable();
            if let Some(&(_, fullest)) = by_size.last() {
                cindy.resplit(&mut table, fullest).expect("re-split");
            }
            if let [(_, a), (_, b), ..] = by_size[..] {
                cindy.merge_partitions(&mut table, a, b).expect("merge");
            }
        }
        if step % 400 == 399 {
            assert_eq!(table.entity_count(), live.len());
            check(table.read_view(), &queries, exact, &mut tally);
            let snapshot = table.freeze();
            let answers = check(snapshot.view(), &queries, exact, &mut Tally::default());
            frozen.push((snapshot, answers));
        }
    }
    let stats = cindy.stats();
    assert!(stats.splits > 0 && stats.reorg_resplits > 0, "churn must split and re-split: {stats:?}");

    // One more freeze, then what a snapshot shares rather than copies
    // moves under it: the catalog grows by a never-seen attribute, and
    // entities carrying it overflow a partition until the split drops a
    // segment the snapshot still holds.
    let snapshot = table.freeze();
    let answers = check(snapshot.view(), &queries, exact, &mut Tally::default());
    let universe = table.universe();
    let late = table.catalog_mut().intern("late");
    assert_eq!(late, AttrId(shapes.universe));
    let held: Vec<SegmentId> = snapshot.view().segment_ids().collect();
    while held.iter().all(|&seg| table.segment(seg).is_ok()) {
        let mut e = shapes.entity(next_id, &mut rng);
        e.set(late, Value::Bool(true));
        cindy.insert(&mut table, e).expect("insert");
        next_id += 1;
        assert!(next_id < 20_000, "no split of a held segment");
    }
    assert_eq!((snapshot.catalog().len(), snapshot.catalog().lookup("late")), (universe, None));
    assert_eq!((table.universe(), table.catalog().lookup("late")), (universe + 1, Some(late)));
    frozen.push((snapshot, answers));

    // Pages the live table has rewritten since are the snapshots' own
    // copies now: they answer as they did, signatures included.
    for (snapshot, answers) in &frozen {
        assert_eq!(&check(snapshot.view(), &queries, exact, &mut Tally::default()), answers);
    }
    common::assert_fully_valid(&cindy, &table);
    let live_answers = check(table.read_view(), &queries, exact, &mut tally);

    // Snapshot restore: the column is not in the stream; the inserts that
    // rebuild the pages rebuild it.
    let mut stream = Vec::new();
    table.snapshot(&mut stream).expect("snapshot");
    let restored = UniversalTable::restore(&mut &stream[..], 16).expect("restore");
    let rebuilt = Cinderella::rebuild(&restored, config.clone()).expect("rebuild");
    common::assert_fully_valid(&rebuilt, &restored);
    let restored_answers = check(restored.read_view(), &queries, exact, &mut tally);

    // WAL replay onto an empty table: the same, from the log alone.
    table.flush_wal().expect("flush");
    let bytes = log.0.lock().expect("log lock").clone();
    let mut replayed = UniversalTable::new(16);
    let report = replay(&mut replayed, &mut &bytes[..]).expect("replay");
    assert!(report.applied > 0 && !report.torn_tail);
    let recovered = Cinderella::rebuild(&replayed, config).expect("rebuild");
    common::assert_fully_valid(&recovered, &replayed);
    let replayed_answers = check(replayed.read_view(), &queries, exact, &mut tally);

    // Same entities, differently laid out: same rows up to order.
    let sorted = |answers: &[Vec<Row>]| -> Vec<Vec<String>> {
        answers
            .iter()
            .map(|rows| {
                let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
                rows.sort_unstable();
                rows
            })
            .collect()
    };
    assert_eq!(sorted(&restored_answers), sorted(&live_answers));
    assert_eq!(sorted(&replayed_answers), sorted(&live_answers));
    assert!(tally.rows > 0 && tally.rows < tally.live, "queries must match some, not all");
    tally
}

#[test]
fn masked_scan_equals_the_oracle_when_signatures_are_exact() {
    let tally = churn(&NARROW, 0x5167);
    assert_eq!(tally.candidates, tally.rows, "every record read is a row returned");
}

#[test]
fn masked_scan_equals_the_oracle_when_attribute_ids_alias() {
    let tally = churn(&WIDE, 0xA11A5);
    // The false positives: records read and then rejected by the matcher,
    // as a share of the records that match nothing. With ~3 attributes a
    // record and ~2.5 bits a query, ~6 % collide by chance and the shapes
    // that share bits by construction raise it; reading half of what does
    // not match would mean the fold is broken.
    let rejected = tally.candidates - tally.rows;
    let share = rejected as f64 / (tally.live - tally.rows) as f64;
    println!(
        "false-positive share at 1100 attributes: {rejected} of {} non-matching records read \
         ({share:.4}); {} rows",
        tally.live - tally.rows,
        tally.rows
    );
    assert!(rejected > 0, "ids 128 apart must alias somewhere");
    assert!(share < 0.5, "false-positive share {share}");
}

/// The two records the definition singles out: one without attributes is
/// part of every full scan and of no query's; a repeated attribute fills
/// every column that names it and counts once as a record read.
#[test]
fn zero_attribute_records_and_repeated_attributes() {
    let mut table = UniversalTable::new(8);
    let a = table.catalog_mut().intern("a");
    let b = table.catalog_mut().intern("b");
    let seg = table.create_segment();
    let bare = Entity::empty(EntityId(0));
    let one = Entity::new(EntityId(1), [(a, Value::Int(7))]).expect("valid");
    let other = Entity::new(EntityId(2), [(b, Value::Int(9))]).expect("valid");
    for e in [&bare, &one, &other] {
        table.insert(seg, e).expect("insert");
    }
    assert_eq!(table.scan_collect(seg).expect("full scan"), vec![bare, one, other]);
    let q = Query::from_attrs(2, [a, a, a]);
    let plan = plan_from_survivors(vec![seg], 0);
    let (got, rows) = execute_collect_view(table.read_view(), &q, &plan).expect("scan");
    let seven = Some(Value::Int(7));
    assert_eq!(rows, vec![vec![seven.clone(), seven.clone(), seven]]);
    assert_eq!((got.rows, got.cells, got.entities_scanned, got.io.logical_reads), (1, 3, 1, 1));
    assert!(table.validate_signatures().is_empty());
}
