//! Tier-1 slice of the projection-pushdown suites: the scan kernel, which
//! matches and projects straight off record bytes, against the definition —
//! decode every record in full (`scan_collect`), then ask
//! `Query::{matches, projected_cells, project}` — and the sharded engines'
//! request-width projection against a plain model, with attributes one
//! shard has never seen. The wide variants live in
//! `crates/query/tests/differential.rs` and
//! `crates/storage/tests/properties.rs`.

use std::collections::BTreeMap;

use cind_model::{AttrId, Entity, EntityId, Value};
use cind_query::{execute, execute_collect, plan_from_survivors, Parallelism, Query, Row};
use cind_server::{Engine, EngineOptions, ServerError, ShardedEngine, ShardedOptions, WireEntity};
use cind_storage::{SegmentId, UniversalTable};
use proptest::prelude::*;

mod common;

const UNIVERSE: usize = 200;

fn attr() -> impl Strategy<Value = u32> {
    prop_oneof![3 => 0u32..10, 1 => 125u32..135, 1 => 190u32..200]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        "[a-zé日]{0,8}".prop_map(Value::Text),
        "[a-z]{126,130}".prop_map(Value::Text),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pushdown_equals_decode_then_project(
        entities in prop::collection::vec(prop::collection::btree_map(attr(), value(), 0..7), 1..40),
        nsegs in 1usize..4,
        qattrs in prop::collection::vec(attr(), 1..5),
        threads in 1usize..4,
    ) {
        let mut table = UniversalTable::new(64);
        for i in 0..UNIVERSE {
            table.catalog_mut().intern(&format!("a{i}"));
        }
        let segs: Vec<SegmentId> = (0..nsegs).map(|_| table.create_segment()).collect();
        for (i, attrs) in entities.iter().enumerate() {
            let e = Entity::new(
                EntityId(i as u64),
                attrs.iter().map(|(&a, v)| (AttrId(a), v.clone())),
            )
            .expect("map keys are unique");
            table.insert(segs[i % nsegs], &e).expect("insert");
        }
        // Unsorted, possibly repeated attributes.
        let q = Query::from_attrs(UNIVERSE, qattrs.iter().map(|&a| AttrId(a)));
        let p = plan_from_survivors(segs.clone(), 0)
            .with_parallelism(Parallelism::Threads(threads));

        let (mut want_rows, mut want_cells, mut scanned): (Vec<Row>, u64, u64) = (Vec::new(), 0, 0);
        for &seg in &segs {
            for e in table.scan_collect(seg).expect("full decode") {
                scanned += 1;
                if q.matches(&e) {
                    want_cells += u64::from(q.projected_cells(&e));
                    want_rows.push(q.project(&e).into_iter().map(|v| v.cloned()).collect());
                }
            }
        }
        let (got, got_rows) = execute_collect(&table, &q, &p).expect("pushdown");
        prop_assert_eq!(&got_rows, &want_rows);
        prop_assert_eq!(
            (got.rows, got.cells, got.entities_scanned),
            (want_rows.len() as u64, want_cells, scanned)
        );
        let counted = execute(&table, &q, &p).expect("count only");
        prop_assert_eq!(
            (counted.rows, counted.cells, counted.entities_scanned, counted.io.logical_reads),
            (got.rows, got.cells, got.entities_scanned, got.io.logical_reads)
        );
        common::assert_pool_valid(&table);
    }
}

/// The model's answer: every entity with at least one requested attribute,
/// projected in request order.
fn model_rows(model: &BTreeMap<u64, Vec<(String, Value)>>, attrs: &[&str]) -> Vec<Row> {
    let rows = model
        .values()
        .filter(|have| attrs.iter().any(|a| have.iter().any(|(n, _)| n == a)))
        .map(|have| {
            attrs
                .iter()
                .map(|a| have.iter().find(|(n, _)| n == a).map(|(_, v)| v.clone()))
                .collect()
        })
        .collect();
    sorted(rows)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|row| format!("{row:?}"));
    rows
}

#[test]
fn sharded_queries_match_the_model_when_a_shard_lacks_an_attribute() {
    for query_threads in [1usize, 3] {
        let engine = ShardedEngine::in_memory(ShardedOptions::new(
            EngineOptions { query_threads, ..EngineOptions::default() },
            2,
        ));
        // "zero"/"one" exist on one shard's catalog only; "both" on both;
        // "noise" rides on entities no query below asks for.
        let mut model = BTreeMap::new();
        for id in 0..400u64 {
            let local = if engine.shard_of(id) == 0 { "zero" } else { "one" };
            let attrs: Vec<(String, Value)> = match id % 4 {
                0 => vec![(local.into(), Value::Int(id as i64))],
                1 => vec![
                    ("both".into(), Value::Text(format!("é{id}"))),
                    (local.into(), Value::Float(id as f64)),
                ],
                2 => vec![("both".into(), Value::Bool(id % 8 == 2))],
                _ => vec![("noise".into(), Value::Int(0))],
            };
            engine.insert(&WireEntity { id, attrs: attrs.clone() }).expect("insert");
            model.insert(id, attrs);
        }
        for attrs in [
            &["zero", "both"][..],
            &["one", "zero", "one"],
            &["both"],
            &["one"],
            &["noise", "zero"],
        ] {
            let names: Vec<String> = attrs.iter().map(|a| (*a).to_string()).collect();
            let (rows, stats) = engine.query(&names).expect("query");
            assert!(rows.iter().all(|row| row.len() == attrs.len()), "{attrs:?}: row width");
            assert_eq!(sorted(rows), model_rows(&model, attrs), "{attrs:?} @ {query_threads}");
            assert!(stats.entities_scanned > 0);
        }
        assert!(matches!(
            engine.query(&["both".to_string(), "nowhere".to_string()]),
            Err(ServerError::UnknownAttribute(name)) if name == "nowhere"
        ));
        assert!(engine.validate().expect("validate").is_empty());
    }
}

#[test]
fn a_shard_leg_projects_at_request_width() {
    let engine = Engine::in_memory(EngineOptions::default());
    let mut model = BTreeMap::new();
    for id in 0..50u64 {
        let attrs = vec![
            ("x".to_string(), Value::Int(id as i64)),
            (format!("y{}", id % 3), Value::Text(format!("v{id}"))),
        ];
        engine.insert(&WireEntity { id, attrs: attrs.clone() }).expect("insert");
        model.insert(id, attrs);
    }
    let request = ["elsewhere", "y1", "x", "y1"];
    let names: Vec<String> = request.iter().map(|a| (*a).to_string()).collect();
    let (rows, _, known) = engine.query_subset(&names).expect("leg");
    assert_eq!(known, vec![false, true, true, true]);
    assert_eq!(sorted(rows), model_rows(&model, &request));
    // Nothing requested is known here: no row can match.
    let (rows, stats, known) = engine.query_subset(&["elsewhere".to_string()]).expect("leg");
    assert!(rows.is_empty() && known == [false] && stats.entities_scanned == 0);
}
