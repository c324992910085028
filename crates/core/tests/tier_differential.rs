//! Differential suite for the tiered pruning index: a `tiered` Cinderella
//! against the `exact` oracle on TPC-H-shaped and DBpedia-shaped
//! workloads.
//!
//! Contract: the approximate tier is superset-sound — candidate and
//! survivor sets may only *grow* relative to exact (asserted explicitly
//! per query), and no exact-surviving partition may be missed, so query
//! answers and surviving-row sets are identical. Insertion evolution is
//! byte-identical too (non-candidates rate strictly negative, so extra
//! candidates cannot change a non-negative argmax; a negative best creates
//! a new partition either way), which the suite checks by comparing the
//! full partition-by-partition catalog state.

use std::collections::BTreeMap;

use cind_datagen::{DbpediaConfig, DbpediaGenerator, TpchConfig, TpchGenerator};
use cind_model::{Entity, EntityId, Synopsis};
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::{Cinderella, Config, IndexTier};

fn config(tier: IndexTier) -> Config {
    Config {
        weight: 0.3,
        capacity: 32,
        tier,
        ..Config::default()
    }
}

/// Generates a dataset into a fresh table's catalog and loads it under the
/// given tier. The generators are seed-deterministic, so two calls with
/// the same `generate` produce byte-identical entities and universes.
fn load(
    generate: &dyn Fn(&mut UniversalTable) -> Vec<Entity>,
    tier: IndexTier,
) -> (UniversalTable, Cinderella, Vec<Entity>) {
    let mut table = UniversalTable::new(256);
    let entities = generate(&mut table);
    let mut cindy = Cinderella::new(config(tier));
    for e in entities.clone() {
        cindy.insert(&mut table, e).expect("insert generated entity");
    }
    (table, cindy, entities)
}

/// Deterministic query mix: a few multi-attribute synopses sampled from
/// entities plus single-attribute probes across the universe.
fn queries(entities: &[Entity], universe: usize) -> Vec<Synopsis> {
    let mut qs = Vec::new();
    for e in entities.iter().step_by(97.max(entities.len() / 16)).take(12) {
        let bits: Vec<u32> = e.attrs().iter().map(|(a, _)| a.index()).take(3).collect();
        if !bits.is_empty() {
            qs.push(Synopsis::from_bits(universe, bits));
        }
    }
    let step = universe / 8 + 1;
    for a in (0..universe as u32).step_by(step) {
        qs.push(Synopsis::from_bits(universe, [a]));
    }
    qs
}

/// `entity id → segment` as actually stored.
fn placements(table: &UniversalTable) -> BTreeMap<EntityId, SegmentId> {
    let mut map = BTreeMap::new();
    for seg in table.segment_ids().collect::<Vec<_>>() {
        for e in table.scan_collect(seg).expect("segment readable") {
            map.insert(e.id(), seg);
        }
    }
    map
}

/// The core differential: identical catalog evolution, superset-only
/// survivor drift, identical answers and surviving-row sets.
fn assert_differential(generate: &dyn Fn(&mut UniversalTable) -> Vec<Entity>) {
    let (table_e, exact, entities) = load(generate, IndexTier::Exact);
    let (table_t, tiered, entities_t) = load(generate, IndexTier::Tiered);
    assert_eq!(entities, entities_t, "generator must be deterministic");
    let universe = table_e.universe();

    assert!(tiered.catalog().tier_active(), "tiered knob must activate the tier");
    assert!(!exact.catalog().tier_active());

    // Insertion evolution is byte-identical: same partitions, same
    // members, same synopses and sizes.
    assert_eq!(exact.catalog().len(), tiered.catalog().len());
    for (a, b) in exact.catalog().iter().zip(tiered.catalog().iter()) {
        assert_eq!(a.segment, b.segment);
        assert_eq!(a.entities, b.entities, "{}", a.segment);
        assert_eq!(a.size, b.size, "{}", a.segment);
        assert_eq!(a.attr_synopsis, b.attr_synopsis, "{}", a.segment);
    }
    assert_eq!(placements(&table_e), placements(&table_t));

    // Both instances validate clean — including the tier's structural
    // no-false-negative check.
    let report = tiered.validate(&table_t).expect("storage readable");
    assert!(report.is_empty(), "{}", cinderella_core::validate::render(&report));

    let members = placements(&table_e);
    let synopses: BTreeMap<EntityId, Synopsis> = entities
        .iter()
        .map(|e| (e.id(), e.synopsis(universe)))
        .collect();

    for q in queries(&entities, universe) {
        let (exact_s, exact_pruned) =
            exact.catalog().survivors(&q);
        let (tiered_s, tiered_pruned) =
            tiered.catalog().survivors(&q);

        // Candidate sets may only be supersets — asserted explicitly.
        assert!(
            exact_s.iter().all(|s| tiered_s.binary_search(s).is_ok()),
            "tiered survivors {tiered_s:?} must contain exact {exact_s:?}"
        );
        assert!(tiered_pruned <= exact_pruned);

        // No lost rows: every entity matching the query lives in a
        // surviving segment under BOTH tiers, so the executor (which
        // re-checks `matches` per row) returns identical answer sets.
        for (id, syn) in &synopses {
            if q.is_disjoint(syn) {
                continue;
            }
            let seg = members[id];
            assert!(
                exact_s.binary_search(&seg).is_ok(),
                "exact lost {id} (segment {seg}) for query {q:?}"
            );
            assert!(
                tiered_s.binary_search(&seg).is_ok(),
                "tiered lost {id} (segment {seg}) for query {q:?}"
            );
        }
    }
}

#[test]
fn tpch_tiered_matches_exact() {
    assert_differential(&|table: &mut UniversalTable| {
        let (entities, _) = TpchGenerator::new(TpchConfig { scale: 0.001, seed: 3 })
            .generate(table.catalog_mut());
        assert!(entities.len() > 500, "scale too small to be meaningful");
        entities
    });
}

#[test]
fn dbpedia_tiered_matches_exact() {
    assert_differential(&|table: &mut UniversalTable| {
        DbpediaGenerator::new(DbpediaConfig {
            entities: 1500,
            seed: 11,
            ..DbpediaConfig::default()
        })
        .generate(table.catalog_mut())
    });
}

#[test]
fn runtime_tier_switch_roundtrips() {
    let generate = |table: &mut UniversalTable| {
        DbpediaGenerator::new(DbpediaConfig {
            entities: 800,
            seed: 5,
            ..DbpediaConfig::default()
        })
        .generate(table.catalog_mut())
    };
    let (table, mut cindy, entities) = load(&generate, IndexTier::Exact);
    let universe = table.universe();
    let qs = queries(&entities, universe);
    let before: Vec<_> = qs
        .iter()
        .map(|q| cindy.catalog().survivors(q))
        .collect();

    // Exact → tiered: the tier is built from the catalog; survivors may
    // only grow, and validate stays clean.
    cindy.set_index_tier(IndexTier::Tiered);
    assert!(cindy.catalog().tier_active());
    let report = cindy.validate(&table).expect("storage readable");
    assert!(report.is_empty(), "{}", cinderella_core::validate::render(&report));
    for (q, (exact_s, _)) in qs.iter().zip(&before) {
        let (tiered_s, _) = cindy.catalog().survivors(q);
        assert!(exact_s.iter().all(|s| tiered_s.binary_search(s).is_ok()));
    }

    // Tiered → exact: the bitmaps are rebuilt from the refcount state and
    // planning returns to the original results exactly.
    cindy.set_index_tier(IndexTier::Exact);
    assert!(!cindy.catalog().tier_active());
    let report = cindy.validate(&table).expect("storage readable");
    assert!(report.is_empty(), "{}", cinderella_core::validate::render(&report));
    for (q, want) in qs.iter().zip(&before) {
        let got = cindy.catalog().survivors(q);
        assert_eq!(&got, want);
    }
}
