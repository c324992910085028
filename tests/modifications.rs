//! Churn test: a long random sequence of inserts, updates, and deletes,
//! checked against an in-memory model after every phase.

use std::collections::HashMap;

use cinderella::core::{Cinderella, Config};
use cinderella::model::{AttrId, Entity, EntityId, Synopsis, Value};
use cinderella::query::{execute, plan, Query};
use cinderella::storage::UniversalTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

const UNIVERSE: u32 = 24;

fn random_entity(id: u64, rng: &mut StdRng) -> Entity {
    // Entities draw 1–6 attributes from one of three latent shapes plus
    // noise, producing realistic overlap.
    let shape = rng.gen_range(0..3u32);
    let base = shape * 8;
    let arity = rng.gen_range(1..=6usize);
    let mut attrs: Vec<u32> = Vec::new();
    while attrs.len() < arity {
        let a = if rng.gen_bool(0.8) {
            base + rng.gen_range(0..8)
        } else {
            rng.gen_range(0..UNIVERSE)
        };
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    }
    Entity::new(
        EntityId(id),
        attrs
            .into_iter()
            .map(|a| (AttrId(a), Value::Int(rng.gen_range(0..100)))),
    )
    .expect("deduped")
}

/// Checks every cross-layer invariant between the table, the catalog, and
/// the model.
fn check_consistency(
    table: &UniversalTable,
    cindy: &Cinderella,
    model: &HashMap<EntityId, Entity>,
) {
    assert_eq!(table.entity_count(), model.len());
    let catalog_total: u64 = cindy.catalog().iter().map(|m| m.entities).sum();
    assert_eq!(catalog_total as usize, model.len());
    // Every model entity is stored, identical, in a cataloged partition.
    for (id, expected) in model {
        let stored = table.get(*id).expect("entity stored");
        assert_eq!(&stored, expected);
        let seg = table.location(*id).expect("located");
        assert!(cindy.catalog().get(seg).is_some(), "{seg} not cataloged");
    }
    // Per-partition: synopsis == OR of members, size == Σ arity.
    let universe = table.universe();
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
        assert!(count > 0, "empty partition {} must have been dropped", meta.segment);
    }
    common::assert_fully_valid(cindy, table);
}

#[test]
fn random_churn_stays_consistent() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut table = UniversalTable::new(64);
    for i in 0..UNIVERSE {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let mut cindy = Cinderella::new(Config {
        weight: 0.3,
        capacity: 40,
        ..Config::default()
    });
    let mut model: HashMap<EntityId, Entity> = HashMap::new();
    let mut next_id = 0u64;

    for step in 0..3_000 {
        let op = rng.gen_range(0..100);
        if op < 55 || model.is_empty() {
            let e = random_entity(next_id, &mut rng);
            next_id += 1;
            model.insert(e.id(), e.clone());
            cindy.insert(&mut table, e).expect("insert");
        } else if op < 80 {
            // Update a random live entity to a fresh random shape.
            let id = *model.keys().nth(rng.gen_range(0..model.len())).expect("non-empty");
            let mut e = random_entity(id.0, &mut rng);
            // Keep the id, randomise content fully (new shape likely).
            e = Entity::new(id, e.attrs().to_vec()).expect("valid");
            model.insert(id, e.clone());
            cindy.update(&mut table, e).expect("update");
        } else {
            let id = *model.keys().nth(rng.gen_range(0..model.len())).expect("non-empty");
            let removed = cindy.delete(&mut table, id).expect("delete");
            let expected = model.remove(&id).expect("in model");
            assert_eq!(removed, expected);
        }
        if step % 500 == 499 {
            check_consistency(&table, &cindy, &model);
        }
    }
    check_consistency(&table, &cindy, &model);

    // Final query check: every singleton query returns exactly the model's
    // matching entities.
    let view: Vec<_> = cindy
        .catalog()
        .pruning_view()
        .map(|(s, syn, _)| (s, syn.clone()))
        .collect();
    for a in 0..UNIVERSE {
        let q = Query::from_attrs(table.universe(), [AttrId(a)]);
        let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
        let r = execute(&table, &q, &p).expect("run");
        let expected = model.values().filter(|e| e.has(AttrId(a))).count() as u64;
        assert_eq!(r.rows, expected, "attribute a{a}");
    }

    let s = cindy.stats();
    assert!(s.splits > 0, "churn at B = 40 must trigger splits");
    assert!(s.partitions_dropped > 0, "deletes must empty some partition");
    assert!(s.update_moves > 0, "shape changes must move entities");
}

#[test]
fn delete_everything_leaves_nothing() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = UniversalTable::new(64);
    for i in 0..UNIVERSE {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let mut cindy = Cinderella::new(Config {
        weight: 0.3,
        capacity: 25,
        ..Config::default()
    });
    let n = 500u64;
    for i in 0..n {
        let e = random_entity(i, &mut rng);
        cindy.insert(&mut table, e).expect("insert");
    }
    for i in 0..n {
        cindy.delete(&mut table, EntityId(i)).expect("delete");
    }
    assert_eq!(table.entity_count(), 0);
    assert_eq!(cindy.catalog().len(), 0);
    assert_eq!(table.segment_count(), 0);
    common::assert_fully_valid(&cindy, &table);
    assert_eq!(cindy.stats().partitions_dropped as usize, {
        // Every partition ever created must eventually have been dropped:
        // created = new-partition inserts + 2 per split; splits also remove
        // the split partition without "dropping" it (it never empties by
        // deletion), so dropped = created + splits − splits·1 … simplest
        // exact check: nothing is left.
        cindy.stats().partitions_created as usize + 2 * cindy.stats().splits as usize
            - cindy.stats().splits as usize
    });
}
