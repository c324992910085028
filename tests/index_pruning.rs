//! End-to-end differential for the one pruning-index path, under both
//! index storages (`IndexTier::Exact` and `IndexTier::Tiered`), on tables
//! partitioned by the real Cinderella insert path:
//!
//! * planning through the index (`survivors` → `plan_from_survivors`)
//!   against the per-partition `|p ∧ q| = 0` oracle (`plan` over
//!   `pruning_view`) — identical survivors on exact storage, a superset on
//!   tiered, identical query answers on both;
//! * every rating scan Algorithm 1 performs against the full-sweep oracle
//!   (`best_sweep`), so the index never changes a placement — and the two
//!   storages produce the same partitioning.
//!
//! The engine-level half — an epoch snapshot plans like the live catalog
//! and heat records exactly the planned segments — is
//! `tests/snapshot_pruning.rs`.

use std::collections::BTreeSet;

use cind_model::{AttrId, Entity, EntityId, Value};
use cind_query::{execute_collect, plan, plan_from_survivors, Query};
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::{Cinderella, Config, IndexTier};
use proptest::prelude::*;

mod common;

const UNIVERSE: usize = 16;
const TIERS: [IndexTier; 2] = [IndexTier::Exact, IndexTier::Tiered];

fn config(capacity: u64, tier: IndexTier) -> Config {
    Config {
        weight: 0.3,
        capacity,
        tier,
        ..Config::default()
    }
}

/// Partitions `entity_attrs` with the real insert path, checking every
/// rating scan on the way against the full-sweep oracle.
fn partitioned(
    entity_attrs: &[Vec<u32>],
    capacity: u64,
    tier: IndexTier,
) -> (UniversalTable, Cinderella) {
    let mut table = UniversalTable::new(64);
    for i in 0..UNIVERSE {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let config = config(capacity, tier);
    let mut cindy = Cinderella::new(config.clone());
    for (i, attrs) in entity_attrs.iter().enumerate() {
        let set: BTreeSet<u32> = attrs.iter().copied().collect();
        let e = Entity::new(
            EntityId(i as u64),
            set.iter().map(|&a| (AttrId(a), Value::Int(i64::from(a)))),
        )
        .expect("deduped attrs");
        // The scan `insert` is about to run, against its oracle: the same
        // argmax whenever it is acted on (non-negative), else both
        // negative or no candidate at all (a new partition either way).
        let syn = e.synopsis(UNIVERSE);
        let size = config.size_model.entity_size(&e);
        let (swept, _) = cindy.catalog().best_sweep(&syn, size, config.weight);
        let (indexed, _) = cindy.catalog().best_partition(&syn, size, config.weight);
        match swept {
            Some((_, rs)) if rs < 0.0 => {
                assert!(indexed.is_none_or(|(_, ri)| ri < 0.0), "{tier}: {rs} vs {indexed:?}")
            }
            swept => assert_eq!(swept, indexed, "{tier}: entity {i}"),
        }
        cindy.insert(&mut table, e).expect("insert");
    }
    common::assert_fully_valid(&cindy, &table);
    (table, cindy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_plan_agrees_with_disjoint_plan(
        entity_attrs in prop::collection::vec(
            prop::collection::vec(0u32..UNIVERSE as u32, 1..6),
            1..60,
        ),
        capacity in 2u64..12,
        qattrs in prop::collection::vec(0u32..UNIVERSE as u32, 0..5),
    ) {
        let qset: BTreeSet<u32> = qattrs.iter().copied().collect();
        let q = Query::from_attrs(UNIVERSE, qset.iter().map(|&a| AttrId(a)));
        for tier in TIERS {
            let (table, cindy) = partitioned(&entity_attrs, capacity, tier);

            // Oracle: the per-partition synopsis test of §II.
            let view: Vec<_> = cindy
                .catalog()
                .pruning_view()
                .map(|(s, syn, _)| (s, syn.clone()))
                .collect();
            let oracle = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));

            // Indexed: survivor set from the pruning index.
            let (segments, pruned) = cindy.catalog().survivors(q.synopsis());
            let indexed = plan_from_survivors(segments, pruned);
            if tier == IndexTier::Exact {
                prop_assert_eq!(&indexed.segments, &oracle.segments);
                prop_assert_eq!(indexed.pruned, oracle.pruned);
            } else {
                prop_assert!(
                    oracle.segments.iter().all(|s| indexed.segments.contains(s)),
                    "tiered {:?} must contain {:?}", indexed.segments, oracle.segments
                );
                prop_assert_eq!(indexed.segments.len() + indexed.pruned, view.len());
            }

            // Both plans return identical rows in identical order (a
            // false-positive segment contributes no matching row).
            let (ro, rows_o) = execute_collect(&table, &q, &oracle).expect("oracle");
            let (ri, rows_i) = execute_collect(&table, &q, &indexed).expect("indexed");
            prop_assert_eq!(ro.rows, ri.rows);
            prop_assert_eq!(rows_o, rows_i);
        }
    }

    #[test]
    fn index_storage_does_not_change_the_partitioning(
        entity_attrs in prop::collection::vec(
            prop::collection::vec(0u32..UNIVERSE as u32, 1..6),
            1..60,
        ),
        capacity in 2u64..12,
    ) {
        // Algorithm 1 behaves identically on either storage — and, via the
        // per-insert sweep check inside `partitioned`, identically to the
        // paper's full scan: same partitions, same members per partition.
        let (_, exact) = partitioned(&entity_attrs, capacity, IndexTier::Exact);
        let (_, tiered) = partitioned(&entity_attrs, capacity, IndexTier::Tiered);
        let shape = |c: &Cinderella| -> Vec<(SegmentId, u64, u64)> {
            c.catalog().iter().map(|m| (m.segment, m.entities, m.size)).collect()
        };
        prop_assert_eq!(shape(&exact), shape(&tiered));
    }
}
