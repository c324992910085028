//! Planner/executor edge cases where the workload reads *nothing* — the
//! query-layer face of the Definition-1 denominator-zero goldens
//! (`crates/core/tests/efficiency_edges.rs`) and the states the
//! simulation harness walks through constantly (fresh store, post-crash
//! store, queries over ghost attributes).
//!
//! In every case: zero rows, zero segments read, everything pruned, zero
//! I/O — "no match" must short-circuit before touching data, never scan
//! and filter.

use std::collections::BTreeSet;

use cind_model::{AttrId, Entity, EntityId, Synopsis, Value};
use cind_query::{execute, execute_collect, plan, Query};
use cind_storage::{SegmentId, UniversalTable};

const UNIVERSE: usize = 12;

/// A table with three segments holding entities over attrs 0..6; attrs
/// 6.. exist in the catalog but in no entity.
fn populated() -> (UniversalTable, Vec<(SegmentId, Synopsis)>) {
    let mut table = UniversalTable::new(64);
    for i in 0..UNIVERSE {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let segs: Vec<SegmentId> = (0..3).map(|_| table.create_segment()).collect();
    let mut synopses = vec![Synopsis::empty(UNIVERSE); 3];
    for i in 0..18u64 {
        let attrs: BTreeSet<u32> = [(i % 3) as u32, 3 + (i % 3) as u32].into();
        let e = Entity::new(
            EntityId(i),
            attrs.iter().map(|&a| (AttrId(a), Value::Int(i as i64))),
        )
        .expect("valid entity");
        let si = (i % 3) as usize;
        table.insert(segs[si], &e).expect("insert");
        synopses[si].merge(&e.synopsis(UNIVERSE));
    }
    (table, segs.into_iter().zip(synopses).collect())
}

fn assert_reads_nothing(
    table: &UniversalTable,
    view: &[(SegmentId, Synopsis)],
    q: &Query,
    total_segments: usize,
) {
    let p = plan(q, view.iter().map(|(s, syn)| (*s, syn)));
    let seq = execute(table, q, &p).expect("sequential");
    assert_eq!(seq.rows, 0, "no rows");
    assert_eq!(seq.cells, 0, "no cells");
    assert_eq!(seq.entities_scanned, 0, "no entity may be touched");
    assert_eq!(seq.segments_read, 0, "no segment may be opened");
    assert_eq!(seq.segments_pruned, total_segments, "everything pruned");
    assert_eq!(seq.io.logical_reads, 0, "no page I/O at all");

    let (_, rows) = execute_collect(table, q, &p).expect("collect");
    assert!(rows.is_empty());
}

#[test]
fn ghost_attribute_query_prunes_every_segment() {
    let (table, view) = populated();
    // Attr 9 is cataloged but instantiated nowhere.
    let q = Query::from_attrs(UNIVERSE, [AttrId(9)]);
    assert_reads_nothing(&table, &view, &q, view.len());
}

#[test]
fn multi_ghost_query_prunes_every_segment() {
    let (table, view) = populated();
    let q = Query::from_attrs(UNIVERSE, [AttrId(7), AttrId(9), AttrId(11)]);
    assert_reads_nothing(&table, &view, &q, view.len());
}

#[test]
fn empty_attribute_set_reads_nothing() {
    let (table, view) = populated();
    // SELECT of zero attributes: the query synopsis is empty, disjoint
    // from everything by definition.
    let q = Query::from_attrs(UNIVERSE, std::iter::empty::<AttrId>());
    assert_reads_nothing(&table, &view, &q, view.len());
}

#[test]
fn empty_table_reads_nothing() {
    let table = UniversalTable::new(16);
    let view: Vec<(SegmentId, Synopsis)> = Vec::new();
    let q = Query::from_attrs(UNIVERSE, [AttrId(0)]);
    assert_reads_nothing(&table, &view, &q, 0);
}

#[test]
fn matching_query_still_reads_after_the_edge_cases() {
    // Sanity inverse: the same store answers a real query, proving the
    // zeros above come from pruning, not from a broken fixture.
    let (table, view) = populated();
    let q = Query::from_attrs(UNIVERSE, [AttrId(0)]);
    let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
    let res = execute(&table, &q, &p).expect("sequential");
    assert!(res.rows > 0);
    assert!(res.segments_read > 0);
}
