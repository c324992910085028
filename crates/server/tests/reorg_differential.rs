//! Reorg differential: with `--reorg off` the reorganizer must be
//! bytes-invisible. The same single-threaded workload (inserts, queries,
//! deletes, a checkpoint, then more inserts so the WAL tail is live) is
//! driven into stores configured with *different* reorg knobs but
//! `mode: off`, and every durable byte — shard WALs, checkpoint
//! snapshots, the manifest — must be identical across them, and across a
//! plain rerun of the same configuration (run-to-run determinism).
//!
//! A fourth store runs the identical workload with `--reorg auto` to
//! prove the knob has teeth: the driver actually steps there, so the
//! byte-equality above is not vacuous.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cind_datagen::{DbpediaConfig, DbpediaGenerator, TpchConfig, TpchGenerator};
use cind_model::{AttributeCatalog, Entity};
use cind_server::{EngineOptions, ShardedEngine, ShardedOptions, WireEntity};
use cinderella_core::{Config, ReorgConfig, ReorgMode};

const SHARDS: usize = 2;

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cind-reorg-diff-{tag}-{}-{n}", std::process::id()))
}

fn options(reorg: ReorgConfig) -> ShardedOptions {
    ShardedOptions::new(
        EngineOptions {
            config: Config {
                capacity: 200,
                reorg,
                ..Config::default()
            },
            pool_pages: 256,
            ..EngineOptions::default()
        },
        SHARDS,
    )
}

fn to_wire(entities: &[Entity], catalog: &AttributeCatalog) -> Vec<WireEntity> {
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

fn tpch_workload() -> (Vec<WireEntity>, Vec<Vec<String>>) {
    let mut catalog = AttributeCatalog::new();
    let (entities, _) =
        TpchGenerator::new(TpchConfig { scale: 0.002, seed: 3 }).generate(&mut catalog);
    let wire = to_wire(&entities, &catalog);
    let queries = cind_datagen::tpch_query_columns()
        .iter()
        .take(8)
        .map(|(_, cols)| cols.iter().map(|c| (*c).to_string()).collect())
        .collect();
    (wire, queries)
}

fn dbpedia_workload() -> (Vec<WireEntity>, Vec<Vec<String>>) {
    let mut catalog = AttributeCatalog::new();
    let entities = DbpediaGenerator::new(DbpediaConfig {
        entities: 1_200,
        attributes: 60,
        groups: 8,
        ..DbpediaConfig::default()
    })
    .generate(&mut catalog);
    let wire = to_wire(&entities, &catalog);
    let queries = [
        vec!["name", "birthDate"],
        vec!["occupation", "nationality"],
        vec!["team", "position"],
        vec!["party", "office"],
    ]
    .iter()
    .map(|set| set.iter().map(|s| (*s).to_string()).collect())
    .collect();
    (wire, queries)
}

/// Drives the deterministic workload into a store at `dir` and returns
/// the total reorg steps its shards took. Queries don't write the WAL;
/// they are in the stream because with `--reorg auto` they feed heat —
/// the off-runs must prove that recording path leaves no durable trace.
fn drive(
    dir: &Path,
    reorg: ReorgConfig,
    wire: &[WireEntity],
    queries: &[Vec<String>],
) -> u64 {
    let eng = ShardedEngine::open(dir, options(reorg)).expect("open store");
    let keep = wire.len() * 3 / 4;
    for e in &wire[..keep] {
        eng.insert(e).expect("insert");
    }
    for names in queries {
        eng.query(names).expect("query");
    }
    // Delete a deterministic slice of what was inserted.
    for e in wire[..keep].iter().step_by(9) {
        eng.delete(e.id).expect("delete");
    }
    for names in queries {
        eng.query(names).expect("query");
    }
    eng.checkpoint().expect("checkpoint");
    // Post-checkpoint inserts keep the WAL tail non-empty at close, so
    // the byte comparison covers live log bytes, not just snapshots.
    for e in &wire[keep..] {
        eng.insert(e).expect("insert");
    }
    eng.flush_wal().expect("flush");
    let steps = eng.reorg_stats().steps;
    assert!(eng.validate().expect("validate").is_empty());
    steps
}

/// Every regular file under `dir`, keyed by its path relative to `dir`.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn assert_differential(dataset: &str, wire: &[WireEntity], queries: &[Vec<String>]) {
    let off = ReorgConfig::default();
    debug_assert_eq!(off.mode, ReorgMode::Off);
    // Same mode, wildly different knobs — none may reach any byte.
    let off_variants = [
        ("defaults", off),
        ("rerun", off),
        (
            "knobs-a",
            ReorgConfig { mode: ReorgMode::Off, budget: 1, threshold: 0.9, epoch_ops: 2 },
        ),
        (
            "knobs-b",
            ReorgConfig {
                mode: ReorgMode::Off,
                budget: 10_000,
                threshold: 0.0,
                epoch_ops: 1_000_000,
            },
        ),
    ];

    let mut reference: Option<BTreeMap<String, Vec<u8>>> = None;
    for (tag, cfg) in off_variants {
        let dir = fresh_dir(&format!("{dataset}-{tag}"));
        let steps = drive(&dir, cfg, wire, queries);
        assert_eq!(steps, 0, "{dataset}/{tag}: an off-mode driver must never step");
        let bytes = dir_bytes(&dir);
        std::fs::remove_dir_all(&dir).ok();
        match &reference {
            None => reference = Some(bytes),
            Some(want) => {
                assert_eq!(
                    want.keys().collect::<Vec<_>>(),
                    bytes.keys().collect::<Vec<_>>(),
                    "{dataset}/{tag}: file sets diverge"
                );
                for (name, want_bytes) in want {
                    assert_eq!(
                        want_bytes,
                        &bytes[name],
                        "{dataset}/{tag}: {name} bytes diverge with reorg off"
                    );
                }
            }
        }
    }

    // Teeth: the identical workload under `auto` with an eager cadence
    // actually drives steps — the equality above compared live paths.
    let auto_dir = fresh_dir(&format!("{dataset}-auto"));
    let steps = drive(
        &auto_dir,
        ReorgConfig { mode: ReorgMode::Auto, budget: 64, threshold: 0.02, epoch_ops: 8 },
        wire,
        queries,
    );
    std::fs::remove_dir_all(&auto_dir).ok();
    assert!(steps > 0, "{dataset}: the auto driver never stepped — the off/auto knob is dead");
}

#[test]
fn reorg_off_is_byte_identical_on_tpch() {
    let (wire, queries) = tpch_workload();
    assert_differential("tpch", &wire, &queries);
}

#[test]
fn reorg_off_is_byte_identical_on_dbpedia() {
    let (wire, queries) = dbpedia_workload();
    assert_differential("dbpedia", &wire, &queries);
}
