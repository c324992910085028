//! The server's two write paths store the same bytes.
//!
//! The same entities go in two ways: as `InsertBatch` frames, encoded and
//! then decoded in place the way the server reads them
//! (`decode_request_view` → `ShardedEngine::insert_views`), and through the
//! typed `ShardedEngine::insert_batch(&[WireEntity])`. Both must answer the
//! same per-item results and leave the same placements, the same record
//! bytes — those of the documented record format, built here from an
//! `Entity` interned name by name in wire order — with valid signatures,
//! and byte-identical WAL files, on every shard. The generated entities
//! reach attribute ids ≥ 128 (two-byte varints), carry text ≥ 128 bytes,
//! empty text, non-ASCII names, `Bool`, `Float` and negative `Int` values,
//! and now and then a repeated name or a stored id, which both paths must
//! refuse alike.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cinderella::model::{AttrId, AttributeCatalog, Entity, EntityId, Value};
use cinderella::server::protocol::{decode_request_view, encode_request, EntityView, RequestView};
use cinderella::server::{EngineOptions, Request, ShardedEngine, ShardedOptions, WireEntity};
use cinderella::storage::{varint, SegmentId};
use proptest::prelude::*;

const SHARDS: usize = 2;
const NAMES: usize = 150;

fn name(i: usize) -> String {
    match i % 3 {
        0 => format!("attr{i}"),
        1 => format!("größe_{i}"),
        _ => format!("名前{i}"),
    }
}

fn value(kind: u32, int: i64, text: usize) -> Value {
    match kind % 4 {
        0 => Value::Bool(int % 2 == 0),
        1 => Value::Int(-int - 1),
        2 => Value::Float(int as f64 / -7.0),
        _ => Value::Text("é".repeat(text / 2) + &"t".repeat(text % 2)),
    }
}

/// One generated cell: `(name index, value kind, int, text length)`.
type Cell = (usize, u32, i64, usize);

/// Cells; text lengths 0, 5, 130 or 300 bytes.
fn cells() -> impl Strategy<Value = Vec<Cell>> {
    prop::collection::vec((0..NAMES, 0u32..4, 0i64..1_000_000, 0usize..4), 0..10)
        .prop_map(|cells| cells.into_iter().map(|(n, k, i, t)| (n, k, i, [0, 5, 130, 300][t])).collect())
}

/// `(id, cells)` per entity; ids collide now and then.
fn entities() -> impl Strategy<Value = Vec<(u64, Vec<Cell>)>> {
    prop::collection::vec((0u64..60, cells()), 1..40)
}

fn wire(id: u64, cells: &[Cell]) -> WireEntity {
    WireEntity {
        id,
        attrs: cells.iter().map(|&(n, k, i, t)| (name(n), value(k, i, t))).collect(),
    }
}

/// The record format as documented in `cind_storage::record`, written out
/// independently of the encoder under test.
fn documented_record(entity: &Entity) -> Vec<u8> {
    let mut out = Vec::new();
    varint::encode(entity.id().0, &mut out);
    varint::encode(entity.arity() as u64, &mut out);
    for (attr, value) in entity.attrs() {
        varint::encode(u64::from(attr.0), &mut out);
        match value {
            Value::Bool(b) => out.extend([0, u8::from(*b)]),
            Value::Int(i) => {
                out.push(1);
                out.extend(i.to_le_bytes());
            }
            Value::Float(x) => {
                out.push(2);
                out.extend(x.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                out.push(3);
                varint::encode(s.len() as u64, &mut out);
                out.extend(s.as_bytes());
            }
        }
    }
    out
}

/// What one accepted entity must become on its shard: the entity built by
/// interning its names in wire order into that shard's catalog.
struct Model {
    catalogs: Vec<AttributeCatalog>,
    stored: Vec<BTreeMap<u64, Entity>>,
}

impl Model {
    fn new() -> Self {
        Self { catalogs: vec![AttributeCatalog::new(); SHARDS], stored: vec![BTreeMap::new(); SHARDS] }
    }

    /// Accepts `e` on `shard` unless it repeats a name or its id is stored.
    fn insert(&mut self, shard: usize, e: &WireEntity) -> bool {
        let mut names: Vec<&str> = e.attrs.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) || self.stored[shard].contains_key(&e.id) {
            return false;
        }
        let catalog = &mut self.catalogs[shard];
        let attrs: Vec<(AttrId, Value)> =
            e.attrs.iter().map(|(n, v)| (catalog.intern(n), v.clone())).collect();
        let entity = Entity::new(EntityId(e.id), attrs).expect("names are distinct");
        self.stored[shard].insert(e.id, entity);
        true
    }
}

fn store(tag: &str, case: u64) -> (PathBuf, ShardedEngine) {
    let dir = std::env::temp_dir().join(format!("cind_write_paths_{tag}_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = ShardedEngine::open(&dir, ShardedOptions::new(EngineOptions::default(), SHARDS))
        .expect("open");
    (dir, engine)
}

/// Every stored record of shard `i`, by segment, in slot order.
fn records(engine: &ShardedEngine, i: usize) -> BTreeMap<SegmentId, Vec<Vec<u8>>> {
    engine.shard_engine(i).with_parts(|table, _| {
        table
            .segment_ids()
            .map(|seg| {
                let segment = table.segment(seg).expect("listed");
                (seg, segment.iter().map(|(_, r)| r.to_vec()).collect())
            })
            .collect()
    })
}

fn wal(dir: &Path, i: usize) -> Vec<u8> {
    std::fs::read(dir.join(cinderella::server::shard_dir_name(i)).join("wal.log")).expect("wal.log")
}

/// Two entities per shard wide enough to take that shard's attribute ids
/// past 127 ahead of the generated ones.
fn wide(engine: &ShardedEngine) -> Vec<WireEntity> {
    (0..SHARDS)
        .flat_map(|shard| {
            let ids = (1_000_000u64..).filter(move |&id| engine.shard_of(id) == shard).take(2);
            ids.enumerate().map(|(k, id)| {
                let cells: Vec<_> =
                    (0..NAMES).filter(|n| n % 2 == k).map(|n| (n, (n % 4) as u32, n as i64, 5)).collect();
                wire(id, &cells)
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn frames_decoded_in_place_store_what_the_typed_batch_stores(generated in entities()) {
        let case = generated.iter().map(|(id, c)| id + c.len() as u64).sum::<u64>();
        let (wire_dir, by_wire) = store("wire", case);
        let (typed_dir, by_type) = store("typed", case);
        let mut all = wide(&by_wire);
        all.extend(generated.iter().map(|(id, cells)| wire(*id, cells)));

        let mut model = Model::new();
        for chunk in all.chunks(8) {
            let body = encode_request(&Request::InsertBatch(chunk.to_vec()));
            let Ok(RequestView::InsertBatch(entities)) = decode_request_view(&body) else {
                panic!("an InsertBatch frame decodes as one");
            };
            let views: Vec<EntityView<'_>> = entities.views().collect();
            let got = by_wire.insert_views(&views);
            let want = by_type.insert_batch(chunk);
            for ((e, g), w) in chunk.iter().zip(&got).zip(&want) {
                let (g, w) = (format!("{g:?}"), format!("{w:?}"));
                prop_assert_eq!(&g, &w, "entity {}: the paths answered apart", e.id);
                let accepted = model.insert(by_wire.shard_of(e.id), e);
                prop_assert_eq!(accepted, g.starts_with("Ok"), "entity {}: {}", e.id, g);
            }
        }

        for i in 0..SHARDS {
            let stored = records(&by_wire, i);
            prop_assert_eq!(&stored, &records(&by_type, i), "shard {} records", i);
            let placed = |engine: &ShardedEngine, id: u64| {
                engine.shard_engine(i).with_parts(|table, _| table.location(EntityId(id)))
            };
            let universe = by_wire.shard_engine(i).with_parts(|table, _| table.catalog().len());
            prop_assert_eq!(universe, model.catalogs[i].len(), "shard {} catalog", i);
            prop_assert!(universe > 128, "shard {} reaches two-byte attribute ids", i);
            for (id, entity) in &model.stored[i] {
                let seg = placed(&by_wire, *id).expect("accepted entity stored");
                prop_assert_eq!(Some(seg), placed(&by_type, *id), "entity {} placed apart", id);
                let record = documented_record(entity);
                prop_assert!(stored[&seg].contains(&record), "entity {}: record bytes", id);
            }
        }
        for engine in [&by_wire, &by_type] {
            prop_assert_eq!(engine.validate().expect("validate"), Vec::<String>::new());
        }
        drop((by_wire, by_type));
        for i in 0..SHARDS {
            prop_assert!(wal(&wire_dir, i) == wal(&typed_dir, i), "shard {} WAL bytes", i);
        }
        let _ = std::fs::remove_dir_all(&wire_dir);
        let _ = std::fs::remove_dir_all(&typed_dir);
    }
}
