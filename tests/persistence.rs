//! Full durability cycle: partition online → snapshot → restore → rebuild
//! the partitioner → continue modifying and querying.

use cinderella::core::{Cinderella, Config};
use cinderella::datagen::{DbpediaConfig, DbpediaGenerator, WorkloadBuilder};
use cinderella::model::{EntityId, Synopsis};
use cinderella::query::{execute, plan, Query};
use cinderella::storage::UniversalTable;

mod common;

const ENTITIES: usize = 5_000;

fn config() -> Config {
    Config {
        weight: 0.3,
        capacity: 400,
        ..Config::default()
    }
}

fn loaded() -> (UniversalTable, Cinderella, Vec<cinderella::model::Entity>) {
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: ENTITIES,
        ..DbpediaConfig::default()
    });
    let mut table = UniversalTable::new(128);
    let entities = gen.generate(table.catalog_mut());
    let mut cindy = Cinderella::new(config());
    for e in entities.clone() {
        cindy.insert(&mut table, e).expect("insert");
    }
    (table, cindy, entities)
}

#[test]
fn snapshot_restore_rebuild_preserves_everything() {
    let (table, cindy, entities) = loaded();

    let mut snapshot = Vec::new();
    table.snapshot(&mut snapshot).expect("snapshot");
    let restored = UniversalTable::restore(&mut &snapshot[..], 128).expect("restore");
    let rebuilt = Cinderella::rebuild(&restored, config()).expect("rebuild");

    // Same partitions, same synopses, same sizes.
    assert_eq!(rebuilt.catalog().len(), cindy.catalog().len());
    for (a, b) in rebuilt.catalog().iter().zip(cindy.catalog().iter()) {
        assert_eq!(a.segment, b.segment);
        assert_eq!(a.attr_synopsis, b.attr_synopsis);
        assert_eq!(a.size, b.size);
        assert_eq!(a.entities, b.entities);
    }
    // Same data.
    assert_eq!(restored.entity_count(), ENTITIES);
    for e in &entities {
        assert_eq!(&restored.get(e.id()).expect("stored"), e);
    }
    common::assert_fully_valid(&cindy, &table);
    common::assert_fully_valid(&rebuilt, &restored);
}

#[test]
fn queries_agree_before_and_after_the_cycle() {
    let (table, cindy, entities) = loaded();
    let universe = table.universe();
    let specs = {
        let all = WorkloadBuilder::default().build(universe, &entities);
        WorkloadBuilder::representatives(&all, &WorkloadBuilder::default_edges(), 2)
    };

    let mut snapshot = Vec::new();
    table.snapshot(&mut snapshot).expect("snapshot");
    let restored = UniversalTable::restore(&mut &snapshot[..], 128).expect("restore");
    let rebuilt = Cinderella::rebuild(&restored, config()).expect("rebuild");

    for spec in &specs {
        let q = Query::from_attrs(universe, spec.attrs.iter().copied());
        let run = |t: &UniversalTable, c: &Cinderella| {
            let view: Vec<_> = c
                .catalog()
                .pruning_view()
                .map(|(s, syn, _)| (s, syn.clone()))
                .collect();
            let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
            execute(t, &q, &p).expect("run")
        };
        let before = run(&table, &cindy);
        let after = run(&restored, &rebuilt);
        assert_eq!(before.rows, after.rows, "{}", spec.label);
        assert_eq!(before.cells, after.cells, "{}", spec.label);
        assert_eq!(
            before.segments_pruned, after.segments_pruned,
            "{}: pruning must be identical",
            spec.label
        );
    }
}

#[test]
fn online_modifications_continue_after_rebuild() {
    let (table, _, _) = loaded();
    let mut snapshot = Vec::new();
    table.snapshot(&mut snapshot).expect("snapshot");
    let mut restored = UniversalTable::restore(&mut &snapshot[..], 128).expect("restore");
    let mut rebuilt = Cinderella::rebuild(&restored, config()).expect("rebuild");

    // Delete a slice, insert fresh entities with new ids, update one.
    for i in 0..200u64 {
        rebuilt.delete(&mut restored, EntityId(i)).expect("delete");
    }
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: 100,
        seed: 4242,
        ..DbpediaConfig::default()
    });
    let mut probe = UniversalTable::new(16);
    for e in gen.generate(probe.catalog_mut()) {
        let e = cinderella::model::Entity::new(
            EntityId(1_000_000 + e.id().0),
            e.attrs().to_vec(),
        )
        .expect("valid");
        rebuilt.insert(&mut restored, e).expect("insert");
    }
    assert_eq!(restored.entity_count(), ENTITIES - 200 + 100);

    // Catalog still consistent with the table.
    let universe = restored.universe();
    for meta in rebuilt.catalog().iter() {
        let mut syn = Synopsis::empty(universe);
        let mut count = 0u64;
        restored
            .scan(meta.segment, |e| {
                syn.merge(&e.synopsis(universe));
                count += 1;
            })
            .expect("scan");
        assert_eq!(meta.attr_synopsis, syn);
        assert_eq!(meta.entities, count);
    }
    common::assert_fully_valid(&rebuilt, &restored);
}

/// A checksum-valid snapshot built by hand (format in
/// `cind-storage::persist`): the catalog's names, then per segment its id
/// and its records — whatever they say.
fn hand_built_snapshot(names: &[&str], segments: &[(u32, Vec<Vec<u8>>)]) -> Vec<u8> {
    use cinderella::storage::varint::encode;
    let mut buf = b"CINDSNP1".to_vec();
    encode(names.len() as u64, &mut buf);
    for name in names {
        encode(name.len() as u64, &mut buf);
        buf.extend_from_slice(name.as_bytes());
    }
    encode(segments.len() as u64, &mut buf);
    for (id, records) in segments {
        encode(u64::from(*id), &mut buf);
        encode(records.len() as u64, &mut buf);
        for rec in records {
            encode(rec.len() as u64, &mut buf);
            buf.extend_from_slice(rec);
        }
    }
    let fnv1a = buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    buf.extend_from_slice(&fnv1a.to_le_bytes());
    buf
}

/// `snapshot` must fail both ways a store file is read — the bare restore
/// and the engine's open — with `PersistError::Corrupt(what)`, not a panic.
fn assert_rejected_as_corrupt(snapshot: &[u8], what: &str, dir_name: &str) {
    use cinderella::server::{Engine, EngineOptions, ServerError};
    use cinderella::storage::PersistError;
    match UniversalTable::restore(&mut &snapshot[..], 8) {
        Err(PersistError::Corrupt(got)) => assert_eq!(got, what),
        Err(other) => panic!("restore: expected corrupt snapshot ({what}), got {other}"),
        Ok(_) => panic!("restore accepted a snapshot with: {what}"),
    }
    let dir = std::env::temp_dir().join(format!("{dir_name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("store dir");
    std::fs::write(dir.join("store.cind"), snapshot).expect("store file");
    let opened = Engine::open(&dir, EngineOptions::default());
    let _ = std::fs::remove_dir_all(&dir);
    match opened {
        Err(ServerError::Persist(PersistError::Corrupt(got))) => assert_eq!(got, what),
        Err(other) => panic!("open: expected corrupt snapshot ({what}), got {other}"),
        Ok(_) => panic!("open accepted a snapshot with: {what}"),
    }
}

fn record(id: u64, attr: u32) -> Vec<u8> {
    use cinderella::model::{AttrId, Entity, Value};
    let e = Entity::new(EntityId(id), [(AttrId(attr), Value::Int(1))]).expect("valid");
    cinderella::storage::encode_entity(&e)
}

/// A record naming an attribute the snapshot's own catalog does not hold
/// used to restore fine and then panic in `Cinderella::rebuild`, taking
/// the process down on `Engine::open` of a bad store file.
#[test]
fn restore_rejects_an_attribute_id_beyond_the_catalog() {
    let good = hand_built_snapshot(&["a", "b"], &[(0, vec![record(1, 0), record(2, 1)])]);
    assert_eq!(UniversalTable::restore(&mut &good[..], 8).expect("valid").entity_count(), 2);
    let bad = hand_built_snapshot(&["a", "b"], &[(0, vec![record(1, 0), record(2, 2)])]);
    assert_rejected_as_corrupt(&bad, "attribute id beyond catalog", "cind_attr_beyond_catalog");
}

/// A snapshot listing one segment id twice used to hit an `assert!`.
#[test]
fn restore_rejects_a_duplicate_segment() {
    let bad =
        hand_built_snapshot(&["a"], &[(3, vec![record(1, 0)]), (3, vec![record(2, 0)])]);
    assert_rejected_as_corrupt(&bad, "duplicate segment", "cind_duplicate_segment");
}

/// Where the log in `wal` ends: frames (`varint len`, body, 8-byte
/// checksum) follow each other from offset 0 until a zero byte, which no
/// frame starts with.
fn wal_log_end(wal: &[u8]) -> usize {
    let mut pos = 0;
    while wal.get(pos).is_some_and(|&b| b != 0) {
        let (len, n) = cinderella::storage::varint::decode(&wal[pos..]).expect("frame length");
        pos += n + usize::try_from(len).expect("length fits") + 8;
    }
    pos
}

/// A durable store on the real filesystem writes its log into zero-filled
/// chunks. Killed without a checkpoint, it leaves `wal.log` a whole number
/// of chunks long with zeros past the log end, and reopening recovers
/// every acknowledged insert from it.
#[test]
fn a_killed_durable_store_leaves_a_zero_padded_log_and_recovers_every_ack() {
    use cinderella::model::Value;
    use cinderella::server::{Engine, EngineOptions, WireEntity};
    use cinderella::storage::vfs::LOG_CHUNK;
    const INSERTS: u64 = 500;
    let dir = std::env::temp_dir().join(format!("cind_padded_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::open(&dir, EngineOptions::default()).expect("open");
    for id in 0..INSERTS {
        let attrs = vec![
            (format!("a{}", id % 7), Value::Int(i64::try_from(id).expect("small"))),
            ("note".to_owned(), Value::Text(format!("{id:0>120}"))),
        ];
        engine.insert(&WireEntity { id, attrs }).expect("acked insert");
    }
    drop(engine); // no checkpoint: the inserts live only in the log

    let wal = std::fs::read(dir.join("wal.log")).expect("wal.log");
    let chunk = usize::try_from(LOG_CHUNK).expect("chunk fits");
    let end = wal_log_end(&wal);
    assert!(end > chunk, "the log grew past its first chunk ({end} bytes)");
    assert_eq!(wal.len() % chunk, 0, "wal.log is {} bytes", wal.len());
    assert!(end <= wal.len() && wal[end..].iter().all(|&b| b == 0));

    let reopened = Engine::open(&dir, EngineOptions::default()).expect("reopen");
    assert_eq!(reopened.stats().entities, INSERTS);
    reopened.with_parts(|table, _| {
        for id in 0..INSERTS {
            assert!(table.get(EntityId(id)).is_ok(), "acked insert {id} lost");
        }
    });
    assert_eq!(reopened.validate().expect("validate runs"), Vec::<String>::new());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot holding an empty segment restores fine, and
/// `Cinderella::rebuild` used to `assert!` on it, taking `Engine::open`
/// down with it. The open now fails with a typed error.
#[test]
fn open_refuses_an_empty_segment_without_panicking() {
    use cinderella::core::CoreError;
    use cinderella::server::{Engine, EngineOptions, ServerError};
    use cinderella::storage::RealVfs;
    let mut table = UniversalTable::new(8);
    table.create_segment();
    let dir = std::env::temp_dir().join(format!("cind_empty_segment_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("store dir");
    table.snapshot_to(&RealVfs, &dir.join("store.cind")).expect("snapshot");
    let opened = Engine::open(&dir, EngineOptions::default());
    let _ = std::fs::remove_dir_all(&dir);
    match opened {
        Err(ServerError::Core(CoreError::Invariant(what))) => {
            assert_eq!(what, "every stored segment has a member");
        }
        Err(other) => panic!("open: expected the empty-segment invariant, got {other}"),
        Ok(_) => panic!("open accepted a snapshot with an empty segment"),
    }
}

/// A 1-shard durable store in a fresh temporary directory named `name`.
fn durable_store(name: &str) -> (std::path::PathBuf, cinderella::server::ShardedEngine) {
    use cinderella::server::{EngineOptions, ShardedEngine, ShardedOptions};
    let dir = std::env::temp_dir().join(format!("cind_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = ShardedEngine::open(&dir, ShardedOptions::new(EngineOptions::default(), 1))
        .expect("open");
    (dir, engine)
}

fn reopen(dir: &std::path::Path) -> cinderella::server::ShardedEngine {
    use cinderella::server::{EngineOptions, ShardedEngine, ShardedOptions};
    ShardedEngine::open(dir, ShardedOptions::new(EngineOptions::default(), 1)).expect("reopen")
}

fn wire(id: u64, attrs: &[(&str, cinderella::model::Value)]) -> cinderella::server::WireEntity {
    let attrs = attrs.iter().map(|(name, value)| ((*name).to_owned(), value.clone())).collect();
    cinderella::server::WireEntity { id, attrs }
}

/// Text no 8 KiB page can hold.
fn huge() -> cinderella::model::Value {
    cinderella::model::Value::Text("x".repeat(20_000))
}

/// An entity whose record no page holds rates negative against every
/// partition, so Algorithm 1 would open a partition for it. It is refused
/// before that: no empty segment reaches the log, and the store reopens —
/// `Cinderella::rebuild` refuses an empty segment.
#[test]
fn an_oversized_record_leaves_a_store_that_reopens() {
    use cinderella::model::Value;
    use cinderella::server::ServerError;
    use cinderella::storage::StorageError;
    let (dir, engine) = durable_store("oversized_reopen");
    engine.insert(&wire(1, &[("a", Value::Int(1))])).expect("insert");
    match engine.insert(&wire(5, &[("huge", huge())])) {
        Err(ServerError::Core(cinderella::core::CoreError::Storage(
            StorageError::RecordTooLarge { .. },
        ))) => {}
        other => panic!("expected RecordTooLarge, got {other:?}"),
    }
    engine.insert(&wire(2, &[("a", Value::Int(2))])).expect("insert");
    assert_eq!(engine.validate().expect("validate"), Vec::<String>::new());
    assert_eq!(engine.stats().partitions, 1);
    drop(engine);

    let engine = reopen(&dir);
    assert_eq!((engine.stats().entities, engine.stats().partitions), (2, 1));
    assert_eq!(engine.validate().expect("validate"), Vec::<String>::new());
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entity whose record no page holds, rating into an existing
/// partition, is not left behind as that partition's split starter.
#[test]
fn an_oversized_record_is_no_split_starter() {
    use cinderella::model::Value;
    let (dir, engine) = durable_store("oversized_starter");
    engine.insert(&wire(1, &[("a", Value::Int(1))])).expect("insert");
    assert!(engine.insert(&wire(5, &[("a", huge())])).is_err());
    assert_eq!(engine.validate().expect("validate"), Vec::<String>::new());
    let seg = engine.shard_engine(0).with_parts(|table, cindy| {
        let seg = table.location(EntityId(1)).expect("stored");
        let starters = &cindy.catalog().get(seg).expect("cataloged").starters;
        assert_eq!((starters.a().map(|s| s.0), starters.b()), (Some(EntityId(1)), None));
        seg
    });
    assert!(seg.0 < 1, "no segment was created for the refused entity");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every kind of refused write — a repeated attribute name, a stored id,
/// an update of a missing id, a record no page holds — leaves the catalog
/// as it was: the name it carried is unknown to a query, uncounted by
/// `Stats`, and absent from the log, so a reopen does not find it either.
#[test]
fn a_refused_write_interns_no_attribute() {
    use cinderella::model::Value;
    use cinderella::server::{ErrorCode, Request, Response};
    let (dir, engine) = durable_store("refused_ghosts");
    engine.insert(&wire(1, &[("a", Value::Int(1))])).expect("insert");
    let refused = [
        Request::Insert(wire(2, &[("ghost_repeated", Value::Int(1)), ("ghost_repeated", Value::Int(2))])),
        Request::Insert(wire(1, &[("ghost_stored_id", Value::Int(1))])),
        Request::Update(wire(9, &[("ghost_missing_id", Value::Int(1))])),
        Request::Insert(wire(3, &[("ghost_too_large", huge())])),
        Request::InsertBatch(vec![wire(1, &[("ghost_in_batch", Value::Int(1))])]),
    ];
    let ghosts = ["ghost_repeated", "ghost_stored_id", "ghost_missing_id", "ghost_too_large", "ghost_in_batch"];
    let unknown = |engine: &cinderella::server::ShardedEngine, ghost: &str| {
        matches!(
            engine.handle(&Request::Query(vec![ghost.to_owned()])),
            Response::Error { code: ErrorCode::UnknownAttribute, .. }
        )
    };
    for (request, ghost) in refused.iter().zip(ghosts) {
        let answer = engine.handle(request);
        let refused = match &answer {
            Response::Batch(items) => items.iter().all(|i| matches!(i, Response::Error { .. })),
            other => matches!(other, Response::Error { code: ErrorCode::Engine, .. }),
        };
        assert!(refused, "{ghost}: expected a refusal, got {answer:?}");
        assert!(unknown(&engine, ghost), "{ghost} was interned");
        assert_eq!(engine.stats().attributes, 1, "{ghost}");
    }
    // The next logged write would carry any interned name into the log.
    engine.insert(&wire(2, &[("a", Value::Int(2))])).expect("insert");
    assert_eq!(engine.validate().expect("validate"), Vec::<String>::new());
    drop(engine);

    let engine = reopen(&dir);
    assert_eq!((engine.stats().entities, engine.stats().attributes), (2, 1));
    for ghost in ghosts {
        assert!(unknown(&engine, ghost), "{ghost} came back from the log");
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
