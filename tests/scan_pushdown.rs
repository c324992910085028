//! Tier-1 slice of the projection-pushdown suites: the scan kernel, which
//! matches and projects straight off record bytes, against the definition —
//! decode every record in full (`common::scan_oracle`), then ask
//! `Query::{matches, projected_cells, project}` — and the sharded engines'
//! request-width projection against a plain model, with attributes one
//! shard has never seen. Every case includes the wire sink: rows
//! scanned straight into response bytes must be, byte for byte, the
//! encoding of the typed answer. The wide variants live in
//! `crates/query/tests/differential.rs` and
//! `crates/storage/tests/properties.rs`.

use std::collections::BTreeMap;

use cind_model::{AttrId, Entity, EntityId, Value};
use cind_query::{
    execute, execute_collect, execute_into, plan_from_survivors, Projection, Query, Row,
};
use cind_server::protocol::{
    decode_response, encode_response, frame, frame_rows, split_frame, WireRows,
};
use cind_server::{
    Engine, EngineOptions, QueryStats, Request, Response, ServerError, ShardedEngine,
    ShardedOptions, WireEntity,
};
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::{Config, ReorgConfig, ReorgMode};
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

/// The one body inside `wire`, which must hold exactly one frame.
fn framed_body(wire: &[u8]) -> &[u8] {
    let (body, used) = split_frame(wire).expect("well framed").expect("a whole frame");
    assert_eq!(used, wire.len(), "one frame, nothing after it");
    body
}

/// `resp` as the frame the typed path would send.
fn typed_frame(resp: &Response) -> Vec<u8> {
    let mut wire = Vec::new();
    frame(&encode_response(resp), &mut wire);
    wire
}

/// The scan kernel against the definition, over every sink: `entities`
/// spread round-robin over `nsegs` segments, queried for `qattrs`.
fn check_pushdown(
    entities: &[BTreeMap<u32, Value>],
    nsegs: usize,
    qattrs: &[u32],
) -> Result<(), TestCaseError> {
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
    let p = plan_from_survivors(segs.clone(), 0);

    // Attribute ids 128 apart share a signature bit here, so the scan
    // reads the matching records and the aliased ones — and no others.
    let want = common::scan_oracle(table.read_view(), &q, &segs);
    let want_rows = want.rows;
    let (got, got_rows) = execute_collect(&table, &q, &p).expect("pushdown");
    prop_assert_eq!(&got_rows, &want_rows);
    prop_assert_eq!(
        (got.rows, got.cells, got.entities_scanned, got.io.logical_reads),
        (want_rows.len() as u64, want.cells, want.candidates, want.pages)
    );
    let counted = execute(&table, &q, &p).expect("count only");
    prop_assert_eq!(
        (counted.rows, counted.cells, counted.entities_scanned, counted.io.logical_reads),
        (got.rows, got.cells, got.entities_scanned, got.io.logical_reads)
    );
    // The wire sink: the same kernel, rows leaving as response bytes.
    let (wired, wire_rows) =
        execute_into::<WireRows>(table.read_view(), &Projection::of(&q), &p).expect("wire");
    prop_assert_eq!(
        (wired.rows, wired.cells, wired.entities_scanned),
        (got.rows, got.cells, got.entities_scanned)
    );
    let stats = QueryStats::from(&wired);
    let typed = Response::Rows { rows: want_rows, stats };
    let mut wire = Vec::new();
    frame_rows(&stats, q.attrs().len(), &[wire_rows], &mut wire);
    prop_assert_eq!(&wire, &typed_frame(&typed));
    prop_assert_eq!(decode_response(framed_body(&wire)).expect("decodes"), typed);
    common::assert_pool_valid(&table);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pushdown_equals_decode_then_project(
        entities in prop::collection::vec(prop::collection::btree_map(attr(), value(), 0..7), 1..40),
        nsegs in 1usize..4,
        qattrs in prop::collection::vec(attr(), 1..5),
    ) {
        check_pushdown(&entities, nsegs, &qattrs)?;
    }

    /// The largest requested attribute is on no record, but its signature
    /// bit is that of an attribute the first record and maybe others
    /// carry: the signature admits it, so those records are walked to
    /// their end, and must still answer as the definition does.
    #[test]
    fn an_absent_but_aliased_last_attribute_answers_as_the_definition(
        entities in prop::collection::vec(
            prop::collection::btree_map(0u32..40, value(), 1..7),
            1..40,
        ),
        nsegs in 1usize..4,
        qattrs in prop::collection::vec(0u32..40, 0..3),
        alias in 0u32..40,
    ) {
        let absent = alias + 128;
        let mut entities = entities;
        entities[0].insert(alias, Value::Int(1));
        prop_assert!(entities.iter().all(|e| !e.contains_key(&absent)));
        let mut qattrs = qattrs;
        qattrs.push(absent);
        check_pushdown(&entities, nsegs, &qattrs)?;
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
    let engine = ShardedEngine::in_memory(ShardedOptions::new(EngineOptions::default(), 2));
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
        let mut wire = Vec::new();
        engine.query_frame(&names, &mut wire);
        assert_eq!(
            decode_response(framed_body(&wire)).expect("decodes"),
            Response::Rows { rows: rows.clone(), stats },
            "{attrs:?}: wire answer"
        );
        assert_eq!(sorted(rows), model_rows(&model, attrs), "{attrs:?}");
        assert!(stats.entities_scanned > 0);
    }
    assert!(matches!(
        engine.query(&["both".to_string(), "nowhere".to_string()]),
        Err(ServerError::UnknownAttribute(name)) if name == "nowhere"
    ));
    assert!(engine.validate().expect("validate").is_empty());
}

/// The one failure rule: a query naming an attribute no shard knows is
/// refused before any shard scans — no page read, no partition heated —
/// whatever else it names and however many shards there are.
#[test]
fn an_everywhere_unknown_attribute_fails_before_any_shard_scans_or_heats() {
    for shards in [1usize, 2, 4] {
        let reorg = ReorgConfig { mode: ReorgMode::Auto, ..ReorgConfig::default() };
        let engine = ShardedEngine::in_memory(ShardedOptions::new(
            EngineOptions { config: Config { reorg, ..Config::default() }, ..Default::default() },
            shards,
        ));
        for id in 0..200u64 {
            let attrs = vec![("known".to_string(), Value::Int(id as i64))];
            engine.insert(&WireEntity { id, attrs }).expect("insert");
        }
        // Per shard: pages read so far, and the heat of every partition.
        let observe = || -> Vec<(u64, Vec<u64>)> {
            (0..engine.shard_count())
                .map(|i| {
                    let shard = engine.shard_engine(i);
                    let segs: Vec<SegmentId> = shard.with_parts(|t, _| t.segment_ids().collect());
                    let heat = segs.iter().map(|&seg| shard.partition_heat(seg)).collect();
                    (shard.stats().logical_reads, heat)
                })
                .collect()
        };
        let idle = observe();
        engine.query(&["known".to_string()]).expect("a query that scans");
        let before = observe();
        for (shard, (was, now)) in idle.iter().zip(&before).enumerate() {
            let heat = |(_, heat): &(u64, Vec<u64>)| heat.iter().sum::<u64>();
            assert!(
                now.0 > was.0 && heat(now) > heat(was),
                "{shards} shards: a scan of shard {shard} must show"
            );
        }
        for attrs in [["known", "nowhere"], ["nowhere", "known"]] {
            let names: Vec<String> = attrs.iter().map(|a| (*a).to_string()).collect();
            assert!(
                matches!(
                    engine.query(&names),
                    Err(ServerError::UnknownAttribute(name)) if name == "nowhere"
                ),
                "{shards} shards: {attrs:?}"
            );
        }
        assert_eq!(observe(), before, "{shards} shards: the refused queries left a trace");
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

/// Values whose encodings have edges: the integer extremes (ten-byte
/// zig-zag varints), float bit patterns `==` cannot tell apart or equate
/// with themselves, empty text, and text long enough for a two-byte length.
fn edge_values() -> Vec<Value> {
    vec![
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(-1),
        Value::Float(f64::NAN),
        Value::Float(f64::from_bits(0x7ff8_dead_beef_0001)),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Text(String::new()),
        Value::Text("é日".repeat(40)),
        Value::Text("x".repeat(127)),
        Value::Text("y".repeat(128)),
        Value::Bool(true),
        Value::Bool(false),
    ]
}

/// The network path's dispatcher against the typed one: for every request,
/// `answer_frame` must append exactly the frame that encoding `handle`'s
/// answer gives — one shard or many, rows or errors, alone or in a batch.
#[test]
fn answer_frame_is_the_typed_answer_byte_for_byte() {
    for shards in [1usize, 2, 4] {
        let engine =
            ShardedEngine::in_memory(ShardedOptions::new(EngineOptions::default(), shards));
        let edges = edge_values();
        for id in 0..240u64 {
            // "s<k>" is known to shard k's catalog only; "gone" loses
            // every holder below, so it is known everywhere and matches
            // nothing.
            let mut attrs = vec![
                ("edge".to_string(), edges[id as usize % edges.len()].clone()),
                (format!("s{}", engine.shard_of(id)), Value::Int(id as i64)),
            ];
            if id % 3 == 0 {
                attrs.push(("third".to_string(), edges[(id / 3) as usize % edges.len()].clone()));
            }
            if id >= 200 {
                attrs = vec![("gone".to_string(), Value::Bool(true))];
            }
            engine.insert(&WireEntity { id, attrs }).expect("insert");
        }
        for id in 200..240u64 {
            engine.delete(id).expect("delete");
        }
        let q = |attrs: &[&str]| attrs.iter().map(|a| (*a).to_string()).collect::<Vec<_>>();
        let queries = vec![
            q(&["edge"]),
            q(&["third", "edge", "third"]),
            q(&["s0", "edge"]),
            q(&["s0"]),
            q(&["s3", "s0", "third"]),
            q(&["gone"]),
            q(&["gone", "nowhere"]),
            q(&["nowhere"]),
            q(&[]),
        ];
        let mut requests: Vec<Request> = queries.iter().cloned().map(Request::Query).collect();
        requests.push(Request::QueryBatch(queries));
        requests.push(Request::QueryBatch(Vec::new()));
        requests.extend([Request::Stats, Request::Validate, Request::Ping(0)]);
        requests.extend([Request::Delete(999), Request::IoCounters]);
        for req in &requests {
            // Once to warm the pool, so both answers report the same misses.
            let _ = engine.handle(req);
            let typed = engine.handle(req);
            let mut wire = Vec::new();
            engine.answer_frame(req, &mut wire);
            assert_eq!(wire, typed_frame(&typed), "{shards} shards: {req:?}");
            // NaN is not `==` itself, so the decoded answer is compared
            // through its (injective) encoding.
            let decoded = decode_response(framed_body(&wire)).expect("decodes");
            assert_eq!(encode_response(&decoded), framed_body(&wire), "{shards} shards: {req:?}");
        }
        // What the cases above are there to cover did occur.
        let rows_of = |attrs: &[&str]| match engine.handle(&Request::Query(q(attrs))) {
            Response::Rows { rows, .. } => rows,
            other => panic!("expected rows, got {other:?}"),
        };
        assert_eq!(rows_of(&["edge"]).len(), 200);
        assert!(rows_of(&["gone"]).is_empty(), "a zero-row answer");
        assert_eq!(
            rows_of(&["s0", "edge"]).iter().any(|row| row[0].is_none()),
            shards > 1,
            "NULL columns where another shard owns the entity"
        );
        for attrs in [&["nowhere"][..], &["gone", "nowhere"], &[]] {
            assert!(
                matches!(engine.query(&q(attrs)), Err(ServerError::UnknownAttribute(_))),
                "{shards} shards: {attrs:?} must be a typed error"
            );
        }
    }
}
