//! Integration tests for the §VII merge-pass extension, exercised end to
//! end on generated data.

use cinderella::core::{Cinderella, Config};
use cinderella::datagen::{DbpediaConfig, DbpediaGenerator};
use cinderella::model::{EntityId, Synopsis};
use cinderella::storage::UniversalTable;

mod common;

const ENTITIES: usize = 6_000;

fn dataset(table: &mut UniversalTable) -> Vec<cinderella::model::Entity> {
    DbpediaGenerator::new(DbpediaConfig {
        entities: ENTITIES,
        ..DbpediaConfig::default()
    })
    .generate(table.catalog_mut())
}

fn config(b: u64) -> Config {
    Config {
        weight: 0.3,
        capacity: b,
        ..Config::default()
    }
}

/// Checks the catalog invariants against the physical table, then runs
/// the full structural validator on top.
fn assert_consistent(table: &UniversalTable, cindy: &Cinderella) {
    common::assert_fully_valid(cindy, table);
    let universe = table.universe();
    let total: u64 = cindy.catalog().iter().map(|m| m.entities).sum();
    assert_eq!(total as usize, table.entity_count());
    for meta in cindy.catalog().iter() {
        let mut syn = Synopsis::empty(universe);
        let mut cells = 0u64;
        let mut count = 0u64;
        table
            .scan(meta.segment, |e| {
                syn.merge(&e.synopsis(universe));
                cells += e.arity() as u64;
                count += 1;
            })
            .expect("scan");
        assert_eq!(meta.attr_synopsis, syn);
        assert_eq!(meta.size, cells);
        assert_eq!(meta.entities, count);
    }
}

#[test]
fn merge_pass_repairs_after_mass_deletes() {
    let mut table = UniversalTable::new(128);
    let entities = dataset(&mut table);
    let mut cindy = Cinderella::new(config(200));
    for e in entities {
        cindy.insert(&mut table, e).expect("insert");
    }
    let partitions_full = cindy.catalog().len();

    // Delete 90 % of the data: the partitioning fragments.
    for i in 0..ENTITIES as u64 {
        if i % 10 != 0 {
            cindy.delete(&mut table, EntityId(i)).expect("delete");
        }
    }
    assert_consistent(&table, &cindy);
    let partitions_fragmented = cindy.catalog().len();

    let report = cindy.merge_pass(&mut table, 0.5).expect("merge pass");
    assert!(report.merges > 0, "fragmented catalog must offer merges");
    assert!(cindy.catalog().len() < partitions_fragmented);
    assert_consistent(&table, &cindy);
    // Capacity still respected after merging.
    for m in cindy.catalog().iter() {
        assert!(m.entities <= 200);
    }
    // Sanity: we are not back to more partitions than the full load had.
    assert!(cindy.catalog().len() <= partitions_full);
}

#[test]
fn merge_pass_is_idempotent() {
    let mut table = UniversalTable::new(128);
    let entities = dataset(&mut table);
    let mut cindy = Cinderella::new(config(200));
    for e in entities {
        cindy.insert(&mut table, e).expect("insert");
    }
    for i in 0..ENTITIES as u64 {
        if i % 5 != 0 {
            cindy.delete(&mut table, EntityId(i)).expect("delete");
        }
    }
    cindy.merge_pass(&mut table, 0.5).expect("first pass");
    let after_first = cindy.catalog().len();
    let report = cindy.merge_pass(&mut table, 0.5).expect("second pass");
    assert_eq!(report.merges, 0, "second pass must find nothing (fixpoint)");
    assert_eq!(cindy.catalog().len(), after_first);
    common::assert_fully_valid(&cindy, &table);
}
