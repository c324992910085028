//! Workload-based partitioning (§II–III): entities relevant to the same
//! queries should land in the same partitions, even when their attribute
//! sets differ.

use cinderella::core::{Cinderella, Config, SynopsisMode};
use cinderella::model::{AttrId, Entity, EntityId, Synopsis, Value};
use cinderella::query::{execute, plan, Query};
use cinderella::storage::UniversalTable;

mod common;

const UNIVERSE: usize = 8;

fn entity(id: u64, attrs: &[u32]) -> Entity {
    Entity::new(
        EntityId(id),
        attrs.iter().map(|&a| (AttrId(a), Value::Int(1))),
    )
    .expect("unique")
}

fn table() -> UniversalTable {
    let mut t = UniversalTable::new(32);
    for i in 0..UNIVERSE {
        t.catalog_mut().intern(&format!("a{i}"));
    }
    t
}

#[test]
fn groups_by_query_relevance_not_attribute_shape() {
    // Workload: q0 touches attributes {0, 1}; q1 touches {4, 5}.
    let queries = vec![
        Synopsis::from_bits(UNIVERSE, [0, 1]),
        Synopsis::from_bits(UNIVERSE, [4, 5]),
    ];
    let mut t = table();
    let mut cindy = Cinderella::new(Config {
        weight: 0.5,
        capacity: 100,
        mode: SynopsisMode::WorkloadBased(queries),
        ..Config::default()
    });
    // Entities 0 and 1 have *disjoint* attribute sets but both are relevant
    // only to q0; entity 2 is relevant only to q1.
    cindy.insert(&mut t, entity(0, &[0])).expect("insert");
    cindy.insert(&mut t, entity(1, &[1, 2])).expect("insert");
    cindy.insert(&mut t, entity(2, &[4, 6])).expect("insert");
    assert_eq!(
        t.location(EntityId(0)),
        t.location(EntityId(1)),
        "same-query entities share a partition in workload mode"
    );
    assert_ne!(t.location(EntityId(0)), t.location(EntityId(2)));

    // Entity-based mode, for contrast, separates entities 0 and 1 at the
    // same weight: their attribute overlap is empty.
    let mut t2 = table();
    let mut entity_based = Cinderella::new(Config {
        weight: 0.5,
        capacity: 100,
        mode: SynopsisMode::EntityBased,
        ..Config::default()
    });
    entity_based.insert(&mut t2, entity(0, &[0])).expect("insert");
    entity_based.insert(&mut t2, entity(1, &[1, 2])).expect("insert");
    assert_ne!(t2.location(EntityId(0)), t2.location(EntityId(1)));
    common::assert_fully_valid(&cindy, &t);
    common::assert_fully_valid(&entity_based, &t2);
}

#[test]
fn workload_mode_still_prunes_by_attributes() {
    // Query-time pruning always uses the attribute synopses, which the
    // catalog maintains in both modes.
    let queries = vec![Synopsis::from_bits(UNIVERSE, [0, 1])];
    let mut t = table();
    let mut cindy = Cinderella::new(Config {
        weight: 0.5,
        capacity: 100,
        mode: SynopsisMode::WorkloadBased(queries),
        ..Config::default()
    });
    for i in 0..10 {
        cindy.insert(&mut t, entity(i, &[0])).expect("insert");
    }
    for i in 10..20 {
        // Irrelevant to the workload: empty rating synopsis.
        cindy.insert(&mut t, entity(i, &[6, 7])).expect("insert");
    }
    let view: Vec<_> = cindy
        .catalog()
        .pruning_view()
        .map(|(s, syn, _)| (s, syn.clone()))
        .collect();
    assert!(view.len() >= 2);
    let q = Query::from_attrs(UNIVERSE, [AttrId(0)]);
    let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
    let r = execute(&t, &q, &p).expect("run");
    assert_eq!(r.rows, 10);
    assert!(r.segments_pruned >= 1, "attribute pruning works in workload mode");
    common::assert_fully_valid(&cindy, &t);
}

#[test]
fn workload_irrelevant_entities_pool_together() {
    // Entities relevant to no query have empty rating synopses and rate 0
    // against everything — Algorithm 1 puts them in the first partition
    // scanned. They effectively form "cold storage", which is the sensible
    // outcome for data the workload never touches.
    let queries = vec![Synopsis::from_bits(UNIVERSE, [0])];
    let mut t = table();
    let mut cindy = Cinderella::new(Config {
        weight: 0.5,
        capacity: 100,
        mode: SynopsisMode::WorkloadBased(queries),
        ..Config::default()
    });
    cindy.insert(&mut t, entity(0, &[6])).expect("insert");
    cindy.insert(&mut t, entity(1, &[7])).expect("insert");
    cindy.insert(&mut t, entity(2, &[5, 6])).expect("insert");
    assert_eq!(cindy.catalog().len(), 1, "irrelevant entities pool together");
    common::assert_fully_valid(&cindy, &t);
}
