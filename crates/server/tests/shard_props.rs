//! Property tests for the sharding layer (ISSUE 6, satellite 3).
//!
//! Three invariants the rest of the stack leans on, checked over
//! generated inputs rather than hand-picked examples:
//!
//! * **Routing is pure.** `ShardRouter` is a function of `(shard count,
//!   id)` alone — two independently constructed routers always agree, and
//!   the result is always in range. Everything else (durable placement,
//!   fan-out merging, per-shard crash domains) assumes this.
//! * **Assignment is stable under reopen.** The manifest pins the shard
//!   count, so reopening a store — even while *requesting* a different
//!   count — must land every entity on exactly the shard it lived on
//!   before, with no strays on any other shard.
//! * **No cross-shard leakage.** Each shard holds precisely the ids that
//!   hash-route to it: membership on shard `s` ⇔ `route(id) == s`, and
//!   per-shard counts sum to the global count.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cind_model::{EntityId, Value};
use cind_server::{EngineOptions, ShardRouter, ShardedEngine, ShardedOptions, WireEntity};
use proptest::prelude::*;

/// Distinct store directory per proptest case (cases run sequentially but
/// test binaries run in parallel, so the pid is part of the name).
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cind-shard-props-{tag}-{}-{n}", std::process::id()))
}

fn options(shards: usize) -> ShardedOptions {
    ShardedOptions::new(
        EngineOptions { pool_pages: 64, ..EngineOptions::default() },
        shards,
    )
}

/// Deterministic payload so every property can re-derive what an entity
/// should contain from its id alone.
fn wire(id: u64) -> WireEntity {
    let attrs = vec![
        (format!("g{}_a", id % 5), Value::Int(id as i64)),
        (format!("g{}_b", id % 5), Value::Text(format!("v{id}"))),
    ];
    WireEntity { id, attrs }
}

fn holds(engine: &ShardedEngine, shard: usize, id: u64) -> bool {
    engine.shard_engine(shard).with_parts(|table, _| table.get(EntityId(id)).is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two routers built from the same shard count agree on every id, and
    /// the route is always in `0..shards`.
    #[test]
    fn router_is_pure_and_bounded(
        shards in 1usize..=8,
        ids in prop::collection::vec(0u64..u64::MAX, 1..64),
    ) {
        let a = ShardRouter::new(shards);
        let b = ShardRouter::new(shards);
        for id in ids {
            let s = a.route(id);
            prop_assert!(s < shards, "route {s} out of range for {shards} shards");
            prop_assert_eq!(s, b.route(id), "routers disagree on id {}", id);
        }
    }

    /// In-memory engine: after a batch of inserts, each shard holds
    /// exactly the ids routed to it and nothing else, and the per-shard
    /// counts sum to the global entity count.
    #[test]
    fn no_cross_shard_leakage(
        shards in 1usize..=8,
        ids in prop::collection::vec(1u64..100_000, 1..80),
    ) {
        let engine = ShardedEngine::in_memory(options(shards));
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        for id in ids {
            if model.contains_key(&id) {
                continue; // duplicate inserts are a different (tested) path
            }
            engine.insert(&wire(id)).expect("insert");
            model.insert(id, engine.shard_of(id));
        }
        let mut per_shard_total = 0usize;
        for s in 0..shards {
            let count = engine.shard_engine(s).with_parts(|table, _| table.entity_count());
            let routed = model.values().filter(|&&home| home == s).count();
            prop_assert_eq!(count, routed, "shard {} count != routed ids", s);
            per_shard_total += count;
        }
        prop_assert_eq!(per_shard_total as u64, engine.stats().entities);
        for (&id, &home) in &model {
            for s in 0..shards {
                prop_assert_eq!(
                    holds(&engine, s, id),
                    s == home,
                    "id {} on shard {} (home {})", id, s, home
                );
            }
        }
    }

    /// Durable engine: reopening — even requesting a *different* shard
    /// count — keeps the manifest's count, every id stays on the shard it
    /// was assigned at first open, and no shard grows a stray copy.
    #[test]
    fn shard_assignment_stable_under_reopen(
        shards in 1usize..=6,
        requested_later in 1usize..=6,
        checkpoint_first in any::<bool>(),
        ids in prop::collection::vec(1u64..100_000, 1..48),
    ) {
        let dir = fresh_dir("reopen");
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        {
            let engine = ShardedEngine::open(&dir, options(shards)).expect("first open");
            for &id in &ids {
                if model.contains_key(&id) {
                    continue;
                }
                engine.insert(&wire(id)).expect("insert");
                model.insert(id, engine.shard_of(id));
            }
            if checkpoint_first {
                engine.checkpoint().expect("checkpoint");
            } // else: entities persist via per-shard WALs alone
        }

        let engine = ShardedEngine::open(&dir, options(requested_later)).expect("reopen");
        prop_assert_eq!(
            engine.shard_count(), shards,
            "manifest must pin the shard count regardless of the requested value"
        );
        prop_assert_eq!(engine.stats().entities, model.len() as u64);
        for (&id, &home) in &model {
            prop_assert_eq!(engine.shard_of(id), home, "routing moved for id {}", id);
            for s in 0..shards {
                prop_assert_eq!(
                    holds(&engine, s, id),
                    s == home,
                    "after reopen: id {} on shard {} (home {})", id, s, home
                );
            }
        }
        prop_assert!(engine.validate().expect("validate").is_empty());
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
