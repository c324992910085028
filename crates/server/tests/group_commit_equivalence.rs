//! Differential byte-equivalence tests for the two hot-path rewrites of
//! this layer: the WAL group-commit coordinator and the wire-level batch
//! operations.
//!
//! The contract both must honour: they change *when syscalls happen*,
//! never *what bytes land on disk*. A single sequential writer through a
//! windowed coordinator submits in the same order the per-op path would,
//! so the WAL must be byte-identical at any window; a batch insert runs
//! each entity through the same Algorithm-1 placement and logs the same
//! per-entity transaction groups, so WAL and snapshot must be
//! byte-identical to the same inserts issued one at a time. Both claims
//! are checked on TPC-H (disjoint relations) and DBpedia-like (irregular
//! overlap) data, across a sharded store, by comparing every shard's WAL
//! and checkpoint snapshot byte for byte.

use std::path::{Path, PathBuf};

use cind_datagen::{DbpediaConfig, DbpediaGenerator, TpchConfig, TpchGenerator};
use cind_model::AttributeCatalog;
use cind_server::engine::{SNAPSHOT_FILE, WAL_FILE};
use cind_server::{
    shard_dir_name, EngineOptions, ShardedEngine, ShardedOptions, WireEntity,
};
use cinderella_core::Config;

const SHARDS: usize = 2;

fn test_config() -> Config {
    Config {
        weight: 0.3,
        capacity: 64,
        ..Config::default()
    }
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("cind_gc_equivalence")
        .join(format!("{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    dir
}

fn open_store(dir: &Path, window_us: u64) -> ShardedEngine {
    let opts = EngineOptions {
        config: test_config(),
        pool_pages: 256,
        group_commit_window: std::time::Duration::from_micros(window_us),
        ..EngineOptions::default()
    };
    ShardedEngine::open(dir, ShardedOptions::new(opts, SHARDS)).expect("store opens")
}

fn tpch_entities() -> Vec<WireEntity> {
    let mut catalog = AttributeCatalog::new();
    let (entities, _) =
        TpchGenerator::new(TpchConfig { scale: 0.002, seed: 17 }).generate(&mut catalog);
    to_wire_owned(&entities, &catalog)
}

fn dbpedia_entities() -> Vec<WireEntity> {
    let mut catalog = AttributeCatalog::new();
    let entities = DbpediaGenerator::new(DbpediaConfig {
        entities: 600,
        attributes: 40,
        groups: 6,
        seed: 29,
        ..DbpediaConfig::default()
    })
    .generate(&mut catalog);
    to_wire_owned(&entities, &catalog)
}

fn to_wire_owned(entities: &[cind_model::Entity], catalog: &AttributeCatalog) -> Vec<WireEntity> {
    entities
        .iter()
        .map(|e| WireEntity {
            id: e.id().0,
            attrs: e
                .attrs()
                .iter()
                .map(|(a, v)| (catalog.name(*a).expect("interned").to_string(), v.clone()))
                .collect(),
        })
        .collect()
}

fn shard_file(dir: &Path, shard: usize, name: &str) -> Vec<u8> {
    let path = dir.join(shard_dir_name(shard)).join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Byte-compares every shard's `name` file across two store directories.
fn assert_shard_files_equal(a: &Path, b: &Path, name: &str, what: &str) {
    for s in 0..SHARDS {
        let fa = shard_file(a, s, name);
        let fb = shard_file(b, s, name);
        assert_eq!(
            fa.len(),
            fb.len(),
            "{what}: shard {s} {name} lengths diverge ({} vs {})",
            fa.len(),
            fb.len()
        );
        assert!(fa == fb, "{what}: shard {s} {name} bytes diverge");
    }
}

/// Feeds `entities` through `drive` into a fresh store and returns its
/// directory, WAL still un-checkpointed so the log bytes can be compared
/// before being compacted away.
fn build_store(
    tag: &str,
    window_us: u64,
    entities: &[WireEntity],
    drive: impl Fn(&ShardedEngine, &[WireEntity]),
) -> PathBuf {
    let dir = store_dir(tag);
    let eng = open_store(&dir, window_us);
    drive(&eng, entities);
    eng.flush_wal().expect("wal drained");
    dir
}

fn insert_singly(eng: &ShardedEngine, entities: &[WireEntity]) {
    for e in entities {
        eng.insert(e).expect("insert");
    }
}

fn insert_batched(eng: &ShardedEngine, entities: &[WireEntity]) {
    // A deliberately awkward width so batches straddle shard routing and
    // the tail batch is partial.
    for chunk in entities.chunks(7) {
        for r in eng.insert_batch(chunk) {
            r.expect("batch item");
        }
    }
}

/// Checkpoints both stores and byte-compares the resulting snapshots.
fn assert_checkpoints_equal(a: &Path, b: &Path, what: &str) {
    for dir in [a, b] {
        let eng = open_store(dir, 0);
        eng.checkpoint().expect("checkpoint");
        assert!(eng.validate().expect("validate").is_empty(), "{what}: store invalid");
    }
    assert_shard_files_equal(a, b, SNAPSHOT_FILE, what);
}

fn run_window_equivalence(dataset: &str, entities: &[WireEntity]) {
    // One sequential writer: submission order is program order in both
    // stores, so even the coalesced WAL must match byte for byte.
    let base = build_store(&format!("{dataset}_w0"), 0, entities, insert_singly);
    let windowed = build_store(&format!("{dataset}_w4000"), 4_000, entities, insert_singly);
    assert_shard_files_equal(&base, &windowed, WAL_FILE, dataset);
    assert_checkpoints_equal(&base, &windowed, dataset);
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&windowed);
}

fn run_batch_equivalence(dataset: &str, entities: &[WireEntity]) {
    let singles = build_store(&format!("{dataset}_singles"), 0, entities, insert_singly);
    let batched = build_store(&format!("{dataset}_batched"), 0, entities, insert_batched);
    assert_shard_files_equal(&singles, &batched, WAL_FILE, dataset);
    assert_checkpoints_equal(&singles, &batched, dataset);
    let _ = std::fs::remove_dir_all(&singles);
    let _ = std::fs::remove_dir_all(&batched);
}

#[test]
fn group_commit_window_leaves_wal_and_snapshot_bytes_unchanged_on_tpch() {
    run_window_equivalence("tpch", &tpch_entities());
}

#[test]
fn group_commit_window_leaves_wal_and_snapshot_bytes_unchanged_on_dbpedia() {
    run_window_equivalence("dbpedia", &dbpedia_entities());
}

#[test]
fn insert_batch_is_byte_identical_to_per_op_inserts_on_tpch() {
    run_batch_equivalence("tpch", &tpch_entities());
}

#[test]
fn insert_batch_is_byte_identical_to_per_op_inserts_on_dbpedia() {
    run_batch_equivalence("dbpedia", &dbpedia_entities());
}

/// The windowed store, recovered purely from its coalesced WAL (no
/// checkpoint), must answer queries identically to the per-op store —
/// the replay path cannot tell the two logs apart.
#[test]
fn windowed_wal_replays_to_the_same_answers() {
    let entities = dbpedia_entities();
    let base = build_store("replay_w0", 0, &entities, insert_singly);
    let windowed = build_store("replay_w2000", 2_000, &entities, insert_singly);
    let a = open_store(&base, 0);
    let b = open_store(&windowed, 0);
    assert_eq!(a.stats().entities, b.stats().entities);
    for names in [vec!["name", "birthDate"], vec!["occupation", "nationality"]] {
        let names: Vec<String> = names.into_iter().map(str::to_string).collect();
        let (ra, _) = a.query(&names).expect("query base");
        let (rb, _) = b.query(&names).expect("query windowed");
        let mut ca: Vec<String> = ra.iter().map(|r| format!("{r:?}")).collect();
        let mut cb: Vec<String> = rb.iter().map(|r| format!("{r:?}")).collect();
        ca.sort();
        cb.sort();
        assert_eq!(ca, cb, "replayed rows diverge for {names:?}");
    }
    drop(a);
    drop(b);
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&windowed);
}
