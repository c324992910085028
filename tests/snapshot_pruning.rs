//! The epoch snapshot plans exactly like the live catalog, and the
//! reorganizer's heat sees exactly what the plan scans — across
//! interleaved inserts, deletes, splits, and runtime `set_index_tier`
//! flips between both index storages.
//!
//! After every operation, for a fixed set of probe queries:
//!
//! * `EngineSnapshot::survivors` equals the live
//!   `PartitionCatalog::survivors` (one shared walk, two owners);
//! * both contain the per-partition `|p ∧ q| = 0` oracle set over
//!   `pruning_view` — and equal it while the exact storage is live;
//! * running the query raises `Engine::partition_heat` by exactly one for
//!   each planned segment and for no other: the survivor set is computed
//!   once and handed to both the heat map and the plan.

use std::collections::{BTreeMap, BTreeSet};

use cind_model::Value;
use cind_query::Query;
use cind_server::{Engine, EngineOptions, WireEntity};
use cind_storage::SegmentId;
use cinderella_core::{Config, IndexTier, ReorgConfig, ReorgMode};
use proptest::prelude::*;

const ATTRS: u32 = 12;

fn name(a: u32) -> String {
    format!("a{a}")
}

#[derive(Clone, Debug)]
enum Op {
    Insert(BTreeSet<u32>),
    Delete(prop::sample::Index),
    Flip(IndexTier),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => prop::collection::btree_set(0..ATTRS, 1..5).prop_map(Op::Insert),
        2 => any::<prop::sample::Index>().prop_map(Op::Delete),
        1 => prop_oneof![
            Just(IndexTier::Exact),
            Just(IndexTier::Tiered),
            Just(IndexTier::Auto),
        ]
        .prop_map(Op::Flip),
    ]
}

fn engine(tier: IndexTier) -> Engine {
    Engine::in_memory(EngineOptions {
        config: Config {
            weight: 0.3,
            // Small partitions: a few dozen inserts split several times.
            capacity: 6,
            tier,
            // Heat is recorded only while the reorganizer is on; an epoch
            // no run reaches keeps it from decaying or stepping.
            reorg: ReorgConfig {
                mode: ReorgMode::Auto,
                epoch_ops: u64::MAX,
                ..ReorgConfig::default()
            },
            ..Config::default()
        },
        ..EngineOptions::default()
    })
}

/// Checks every probe against the snapshot, the live catalog, the oracle,
/// and the heat map.
fn check(engine: &Engine, probes: &[Vec<u32>]) -> Result<(), TestCaseError> {
    let snap = engine.snapshot();
    for probe in probes {
        let names: Vec<String> = probe.iter().map(|&a| name(a)).collect();
        // (query, live survivors, oracle, every cataloged segment)
        let planned = engine.with_parts(|table, cindy| {
            let query = Query::from_names(table.catalog(), names.iter().map(String::as_str))?;
            let live = cindy.catalog().survivors(query.synopsis());
            let oracle: Vec<SegmentId> = cindy
                .catalog()
                .pruning_view()
                .filter(|(_, p, _)| !query.synopsis().is_disjoint(p))
                .map(|(s, _, _)| s)
                .collect();
            let all: Vec<SegmentId> = cindy.catalog().iter().map(|m| m.segment).collect();
            Some((query, live, oracle, all, cindy.catalog().tier_active()))
        });
        // Attributes nothing has interned yet: the engine answers
        // UnknownAttribute before planning, nothing to compare.
        let Some((query, live, oracle, all, tiered)) = planned else {
            continue;
        };

        let frozen = snap.survivors(&query);
        prop_assert_eq!(&frozen, &live, "probe {:?}: snapshot vs live", probe);
        prop_assert_eq!(frozen.1, all.len() - frozen.0.len());
        if tiered {
            prop_assert!(
                oracle.iter().all(|s| frozen.0.binary_search(s).is_ok()),
                "probe {:?}: {:?} must contain oracle {:?}",
                probe,
                frozen.0,
                oracle
            );
        } else {
            prop_assert_eq!(&frozen.0, &oracle, "probe {:?}: exact storage", probe);
        }

        let before: BTreeMap<SegmentId, u64> =
            all.iter().map(|&s| (s, engine.partition_heat(s))).collect();
        let (_, stats, _) = engine.query_subset(&names).expect("known attributes");
        prop_assert_eq!(stats.segments_read as usize, frozen.0.len());
        prop_assert_eq!(stats.segments_pruned as usize, frozen.1);
        for seg in all {
            let planned = u64::from(frozen.0.binary_search(&seg).is_ok());
            prop_assert_eq!(
                engine.partition_heat(seg) - before[&seg],
                planned,
                "probe {:?}: heat of {} must follow the plan",
                probe,
                seg
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_plans_like_the_live_catalog_and_heat_follows_the_plan(
        start in prop_oneof![Just(IndexTier::Exact), Just(IndexTier::Tiered)],
        ops in prop::collection::vec(op(), 1..70),
        probes in prop::collection::vec(prop::collection::vec(0..ATTRS, 1..4), 1..4),
    ) {
        let engine = engine(start);
        let mut live_ids: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for op in &ops {
            match op {
                Op::Insert(attrs) => {
                    let wire = WireEntity {
                        id: next_id,
                        attrs: attrs
                            .iter()
                            .map(|&a| (name(a), Value::Int(i64::from(a))))
                            .collect(),
                    };
                    engine.insert(&wire).expect("insert");
                    live_ids.push(next_id);
                    next_id += 1;
                }
                Op::Delete(pick) => {
                    if !live_ids.is_empty() {
                        let id = live_ids.swap_remove(pick.index(live_ids.len()));
                        engine.delete(id).expect("delete");
                    }
                }
                Op::Flip(tier) => engine.set_index_tier(*tier),
            }
            check(&engine, &probes)?;
        }
        prop_assert!(engine.validate().expect("validation scan").is_empty());
    }
}

/// A deterministic run long enough to split many times, flipped through
/// all three knob settings mid-stream.
#[test]
fn flips_mid_stream_keep_snapshot_and_heat_in_step() {
    let engine = engine(IndexTier::Exact);
    let probes: Vec<Vec<u32>> = vec![vec![0], vec![3, 7], vec![11], vec![1, 2, 5]];
    for id in 0..240u64 {
        let base = (id % 4) as u32 * 3;
        let attrs = [base, base + 1 + (id % 2) as u32, (id % 11) as u32];
        let wire = WireEntity {
            id,
            attrs: attrs
                .iter()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .map(|&a| (name(a), Value::Int(i64::from(a))))
                .collect(),
        };
        engine.insert(&wire).expect("insert");
        if id % 5 == 4 {
            engine.delete(id - 3).expect("delete");
        }
        match id {
            60 => engine.set_index_tier(IndexTier::Tiered),
            120 => engine.set_index_tier(IndexTier::Exact),
            180 => engine.set_index_tier(IndexTier::Auto),
            _ => {}
        }
        if id % 7 == 0 {
            check(&engine, &probes).expect("snapshot, live catalog and heat agree");
        }
    }
    assert!(engine.stats().partitions > 10, "the run must have split");
    assert!(
        !engine.tier_active(),
        "auto stays exact below its ratchet point"
    );
    assert!(engine.validate().expect("validation scan").is_empty());
}
