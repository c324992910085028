//! Property tests over the partitioner's core invariants, driven by
//! arbitrary operation sequences.

use std::collections::HashMap;

use cinderella::core::{Cinderella, Config};
use cinderella::model::{AttrId, Entity, EntityId, Synopsis, Value};
use cinderella::storage::UniversalTable;
use proptest::prelude::*;

mod common;

const UNIVERSE: u32 = 12;

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u32>),
    Update(usize, Vec<u32>),
    Delete(usize),
}

fn attrs() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..UNIVERSE, 1..6).prop_map(|s| s.into_iter().collect())
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => attrs().prop_map(Op::Insert),
            1 => (any::<usize>(), attrs()).prop_map(|(i, a)| Op::Update(i, a)),
            1 => any::<usize>().prop_map(Op::Delete),
        ],
        1..80,
    )
}

fn entity(id: u64, attrs: &[u32]) -> Entity {
    Entity::new(
        EntityId(id),
        attrs.iter().map(|&a| (AttrId(a), Value::Int(i64::from(a)))),
    )
    .expect("unique")
}

fn setup() -> (UniversalTable, Cinderella) {
    let mut table = UniversalTable::new(32);
    for i in 0..UNIVERSE {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let cindy = Cinderella::new(Config {
        weight: 0.3,
        capacity: 5,
        ..Config::default()
    });
    (table, cindy)
}

fn check_invariants(
    table: &UniversalTable,
    cindy: &Cinderella,
    model: &HashMap<EntityId, Entity>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.entity_count(), model.len());
    let total: u64 = cindy.catalog().iter().map(|m| m.entities).sum();
    prop_assert_eq!(total as usize, model.len());
    let universe = table.universe();
    for meta in cindy.catalog().iter() {
        prop_assert!(meta.entities > 0, "no empty partitions");
        prop_assert!(meta.entities <= 5, "capacity respected");
        let mut syn = Synopsis::empty(universe);
        let mut cells = 0u64;
        table
            .scan(meta.segment, |e| {
                syn.merge(&e.synopsis(universe));
                cells += e.arity() as u64;
            })
            .expect("scan");
        prop_assert_eq!(&meta.attr_synopsis, &syn, "synopsis = OR of members");
        prop_assert_eq!(meta.size, cells, "size = sum of member sizes");
    }
    for (id, e) in model {
        prop_assert_eq!(&table.get(*id).expect("stored"), e);
    }
    common::assert_fully_valid(cindy, table);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every operation of an arbitrary insert/update/delete sequence,
    /// the catalog invariants hold and the stored data equals the model.
    #[test]
    fn invariants_hold_under_arbitrary_sequences(ops in ops()) {
        let (mut table, mut cindy) = setup();
        let mut model: HashMap<EntityId, Entity> = HashMap::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Insert(a) => {
                    let e = entity(next, &a);
                    next += 1;
                    model.insert(e.id(), e.clone());
                    cindy.insert(&mut table, e).expect("insert");
                }
                Op::Update(pick, a) => {
                    if model.is_empty() { continue; }
                    let id = *model.keys().nth(pick % model.len()).expect("non-empty");
                    let e = entity(id.0, &a);
                    model.insert(id, e.clone());
                    cindy.update(&mut table, e).expect("update");
                }
                Op::Delete(pick) => {
                    if model.is_empty() { continue; }
                    let id = *model.keys().nth(pick % model.len()).expect("non-empty");
                    model.remove(&id);
                    cindy.delete(&mut table, id).expect("delete");
                }
            }
            check_invariants(&table, &cindy, &model)?;
        }
    }

    /// With w = 0 every partition is perfectly homogeneous: all members
    /// share exactly the partition synopsis (sparseness 0).
    #[test]
    fn weight_zero_partitions_are_homogeneous(shapes in prop::collection::vec(attrs(), 1..40)) {
        let mut table = UniversalTable::new(32);
        for i in 0..UNIVERSE {
            table.catalog_mut().intern(&format!("a{i}"));
        }
        let mut cindy = Cinderella::new(Config {
            weight: 0.0,
            capacity: 1000,
            ..Config::default()
        });
        for (i, shape) in shapes.iter().enumerate() {
            cindy.insert(&mut table, entity(i as u64, shape)).expect("insert");
        }
        let distinct: std::collections::HashSet<Vec<u32>> =
            shapes.iter().cloned().collect();
        prop_assert_eq!(cindy.catalog().len(), distinct.len(),
            "one partition per distinct shape");
        for meta in cindy.catalog().iter() {
            prop_assert_eq!(meta.sparseness(), 0.0);
        }
        common::assert_fully_valid(&cindy, &table);
    }

    /// The efficiency metric stays in (0, 1] for any partitioning Cinderella
    /// produces and any non-empty workload that matches something.
    #[test]
    fn efficiency_is_a_fraction(shapes in prop::collection::vec(attrs(), 1..40), qattr in 0..UNIVERSE) {
        let (mut table, mut cindy) = setup();
        for (i, shape) in shapes.iter().enumerate() {
            cindy.insert(&mut table, entity(i as u64, shape)).expect("insert");
        }
        let q = Synopsis::from_bits(UNIVERSE as usize, [qattr]);
        let eff = cinderella::core::efficiency(&table, &cindy, std::slice::from_ref(&q));
        prop_assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff} out of range");
    }

    /// Loading the same entities in any order preserves the entity set and
    /// the capacity bound (the partitioning itself is order-dependent by
    /// design — it is an online algorithm).
    #[test]
    fn any_insertion_order_is_safe(shapes in prop::collection::vec(attrs(), 2..30), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let (mut table, mut cindy) = setup();
        for &i in &order {
            cindy.insert(&mut table, entity(i as u64, &shapes[i])).expect("insert");
        }
        prop_assert_eq!(table.entity_count(), shapes.len());
        for meta in cindy.catalog().iter() {
            prop_assert!(meta.entities <= 5);
        }
        for (i, shape) in shapes.iter().enumerate() {
            prop_assert_eq!(&table.get(EntityId(i as u64)).expect("stored"), &entity(i as u64, shape));
        }
        common::assert_fully_valid(&cindy, &table);
    }
}
