//! Differential suite: the projection-pushdown scan against the
//! decode-everything oracle, on randomized tables, synopses, and queries.
//!
//! The scan kernel, which matches and projects straight off record bytes,
//! must agree with
//! "`decode_entity`, then `Query::{matches, projected_cells, project}`"
//! on rows, aggregates and I/O — reading only the records, and touching
//! only the pages, that the entity signatures recomputed from the decoded
//! records leave as candidates — and so must every sink: the server's wire
//! sink, fed by the same kernel, must write exactly the bytes that encoding
//! the typed rows gives.

use std::collections::BTreeSet;

use cind_model::{AttrId, Entity, EntityId, Synopsis, Value};
use cind_query::{
    execute, execute_collect, execute_into, plan, plan_from_survivors, Plan, Projection, Query,
    Row,
};
use cind_server::protocol::{
    decode_response, encode_response, frame, frame_rows, split_frame, QueryStats, Response,
    WireRows,
};
use cind_storage::buffer::PageKey;
use cind_storage::{decode_entity, IoStats, SegmentId, UniversalTable};
use proptest::prelude::*;

const UNIVERSE: usize = 16;

/// Builds a table with `nsegs` segments, entities assigned round-robin,
/// and exact per-segment synopses (OR of member synopses).
fn build(
    entity_attrs: &[Vec<u32>],
    nsegs: usize,
) -> (UniversalTable, Vec<(SegmentId, Synopsis)>) {
    let mut table = UniversalTable::new(64);
    for i in 0..UNIVERSE {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let segs: Vec<SegmentId> = (0..nsegs).map(|_| table.create_segment()).collect();
    let mut synopses = vec![Synopsis::empty(UNIVERSE); nsegs];
    for (i, attrs) in entity_attrs.iter().enumerate() {
        let set: BTreeSet<u32> = attrs.iter().copied().collect();
        let e = Entity::new(
            EntityId(i as u64),
            set.iter().map(|&a| (AttrId(a), Value::Int(i64::from(a)))),
        )
        .expect("deduped attrs");
        let si = i % nsegs;
        table.insert(segs[si], &e).expect("insert");
        synopses[si].merge(&e.synopsis(UNIVERSE));
    }
    let view = segs.into_iter().zip(synopses).collect();
    (table, view)
}

/// Attribute ids with one- and two-byte varints, far enough apart that
/// queries reach beyond a record's last attribute and records beyond a
/// query's.
const WIDE_UNIVERSE: usize = 300;

fn wide_attr() -> impl Strategy<Value = u32> {
    prop_oneof![3 => 0u32..12, 1 => 120u32..136, 1 => 290u32..300]
}

/// All four value tags; text empty, multi-byte, and long enough for a
/// two-byte length.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => any::<bool>().prop_map(Value::Bool),
        2 => any::<i64>().prop_map(Value::Int),
        1 => prop_oneof![Just(i64::MIN), Just(i64::MAX)].prop_map(Value::Int),
        2 => (-1.0e9f64..1.0e9).prop_map(Value::Float),
        3 => "[a-zé日 ]{0,10}".prop_map(Value::Text),
        1 => "[a-z]{120,300}".prop_map(Value::Text),
    ]
}

/// The wire-sink strategy: scans `plan` with `projection` into response
/// bytes and checks them, byte for byte, against the encoding of the typed
/// answer holding `want` — then decodes them back into that answer.
fn assert_wire_equals_typed(
    table: &UniversalTable,
    projection: &Projection,
    width: usize,
    plan: &Plan,
    want: &[Row],
) -> Result<(), TestCaseError> {
    let (result, rows) =
        execute_into::<WireRows>(table.read_view(), projection, plan).expect("wire sink");
    let stats = QueryStats::from(&result);
    let mut wire = Vec::new();
    frame_rows(&stats, width, &[rows], &mut wire);
    let typed = Response::Rows { rows: want.to_vec(), stats };
    let mut typed_wire = Vec::new();
    frame(&encode_response(&typed), &mut typed_wire);
    prop_assert_eq!(&wire, &typed_wire);
    let (body, used) = split_frame(&wire).expect("well framed").expect("a whole frame");
    prop_assert_eq!(used, wire.len());
    prop_assert_eq!(decode_response(body).expect("decodes"), typed);
    prop_assert_eq!(result.rows, want.len() as u64);
    Ok(())
}

/// A signature by its definition: bit `id mod 128` per attribute.
fn fold(attrs: impl IntoIterator<Item = AttrId>) -> u128 {
    attrs.into_iter().fold(0, |bits, a| bits | 1u128 << (a.0 % 128))
}

/// What a scan of `segments` must produce by definition: decode every
/// record in full, then ask the query. What it may *read* is defined here
/// too, without the signature column: the records whose recomputed
/// signature shares a bit with the query's, on the pages that hold one —
/// which the oracle touches in the pool exactly as the scan must.
fn oracle(
    table: &UniversalTable,
    q: &Query,
    segments: &[SegmentId],
) -> (Vec<Row>, u64, u64, IoStats) {
    let view = table.read_view();
    let mask = fold(q.attrs().iter().copied());
    let (mut rows, mut cells, mut scanned, mut io) = (Vec::new(), 0, 0, IoStats::default());
    for &seg in segments {
        let segment = view.segment(seg).expect("segment");
        for page_idx in 0..segment.page_count() as u32 {
            let page = segment.page(page_idx).expect("page");
            let entities: Vec<Entity> =
                page.iter().map(|(_, bytes)| decode_entity(bytes).expect("decodes")).collect();
            let candidates = entities
                .iter()
                .filter(|e| fold(e.attrs().iter().map(|(a, _)| *a)) & mask != 0)
                .count() as u64;
            if candidates == 0 {
                assert!(!entities.iter().any(|e| q.matches(e)), "a skipped page held a match");
                continue;
            }
            let (hit, evicted) = view.pool().access_tracked(PageKey { segment: seg, page: page_idx });
            io.logical_reads += 1;
            io.physical_reads += u64::from(!hit);
            io.evictions += evicted;
            scanned += candidates;
            for e in entities.iter().filter(|e| q.matches(e)) {
                cells += u64::from(q.projected_cells(e));
                rows.push(q.project(e).into_iter().map(|v| v.cloned()).collect());
            }
        }
    }
    (rows, cells, scanned, io)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pushdown_matches_decode_then_project_oracle(
        entities in prop::collection::vec(
            prop::collection::btree_map(wide_attr(), value(), 0..9),
            1..50,
        ),
        nsegs in 1usize..5,
        // Unsorted, and from a small domain so attributes repeat.
        qattrs in prop::collection::vec(wide_attr(), 1..6),
        pool_pages in 1usize..6,
    ) {
        // A pool smaller than the data churns; both sides replay the same
        // page sequence against it, so even misses and evictions must agree.
        let mut table = UniversalTable::new(pool_pages);
        for i in 0..WIDE_UNIVERSE {
            table.catalog_mut().intern(&format!("a{i}"));
        }
        let segs: Vec<SegmentId> = (0..nsegs).map(|_| table.create_segment()).collect();
        for (i, attrs) in entities.iter().enumerate() {
            let e = Entity::new(
                EntityId(i as u64 * 97),
                attrs.iter().map(|(&a, v)| (AttrId(a), v.clone())),
            )
            .expect("map keys are unique");
            table.insert(segs[i % nsegs], &e).expect("insert");
        }
        let q = Query::from_attrs(WIDE_UNIVERSE, qattrs.iter().map(|&a| AttrId(a)));
        let p = plan_from_survivors(segs.clone(), 0);

        let _warm = oracle(&table, &q, &segs);
        let (want_rows, want_cells, want_scanned, want_io) = oracle(&table, &q, &segs);
        let (got, got_rows) = execute_collect(&table, &q, &p).expect("pushdown");
        prop_assert_eq!(&got_rows, &want_rows);
        prop_assert_eq!(got.rows, want_rows.len() as u64);
        prop_assert_eq!(got.cells, want_cells);
        prop_assert_eq!(got.entities_scanned, want_scanned);
        prop_assert_eq!(got.io, want_io);

        // Counting without collecting agrees too.
        let counted = execute(&table, &q, &p).expect("count");
        prop_assert_eq!(
            (counted.rows, counted.cells, counted.entities_scanned, counted.io),
            (got.rows, got.cells, got.entities_scanned, want_io)
        );

        // Rows as wire bytes, off the same kernel.
        let narrow = Projection::of(&q);
        assert_wire_equals_typed(&table, &narrow, qattrs.len(), &p, &want_rows)?;

        // A projection wider than the query (a shard leg that does not know
        // every requested attribute): the odd columns stay NULL.
        let wide = Projection::new(
            qattrs.iter().flat_map(|&a| [Some(AttrId(a)), None]),
        );
        let (got, got_rows) =
            execute_into::<Vec<Row>>(table.read_view(), &wide, &p).expect("wide");
        let want_wide: Vec<Row> = want_rows
            .iter()
            .map(|row| row.iter().flat_map(|cell| [cell.clone(), None]).collect())
            .collect();
        prop_assert_eq!(&got_rows, &want_wide);
        prop_assert_eq!((got.rows, got.cells), (want_rows.len() as u64, want_cells));
        assert_wire_equals_typed(&table, &wide, 2 * qattrs.len(), &p, &want_wide)?;
    }

    #[test]
    fn pruned_partitions_hold_no_matches(
        entity_attrs in prop::collection::vec(
            prop::collection::vec(0u32..UNIVERSE as u32, 1..6),
            1..40,
        ),
        nsegs in 1usize..6,
        qattrs in prop::collection::vec(0u32..UNIVERSE as u32, 1..4),
    ) {
        // The safety side of §II pruning: a pruned partition can never
        // contain a matching entity, so a scan of the survivors sees the
        // complete answer.
        let (table, view) = build(&entity_attrs, nsegs);
        let qset: BTreeSet<u32> = qattrs.iter().copied().collect();
        let q = Query::from_attrs(UNIVERSE, qset.iter().map(|&a| AttrId(a)));
        let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
        let surviving: BTreeSet<u32> = p.segments.iter().map(|s| s.0).collect();
        for (seg, _) in &view {
            if surviving.contains(&seg.0) {
                continue;
            }
            let mut matches = 0u64;
            table
                .scan(*seg, |e| {
                    if q.matches(e) {
                        matches += 1;
                    }
                })
                .expect("scan");
            prop_assert_eq!(matches, 0, "pruned segment {} held matches", seg.0);
        }
    }
}
