//! The deep structural validator under adversarial operation sequences.
//!
//! `tests/property_invariants.rs` (workspace tier 1) re-derives a few
//! invariants by hand; this suite instead drives the *full*
//! [`Cinderella::validate`] — arena free-list and stride layout, presence
//! bitmaps vs refcounts, partition synopses vs stored entities, split
//! starters, segment accounting — after every single operation of random
//! insert/update/delete/merge interleavings. A tiny capacity keeps splits
//! frequent, and explicit `merge_pass` ops exercise the merge boundary the
//! insert path never takes. Every interleaving runs in both synopsis
//! modes; workload-based mode rates against a random query list plus one
//! query no entity matches and two that overlap, so the validator proves
//! each packed rating row equal to the relevant-query view of its
//! partition's attribute synopsis. After every operation each partition
//! also holds at most B entities: the bound no split, update move or merge
//! may break. (`Cinderella::validate` cannot check it: a store does not
//! record its B, so a reopened one is rebuilt under the default.)

use cind_model::{AttrId, Entity, EntityId, Synopsis, Value};
use cind_storage::UniversalTable;
use cinderella_core::{validate, Cinderella, Config, SynopsisMode};
use proptest::prelude::*;

const UNIVERSE: u32 = 10;

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u32>),
    Update(usize, Vec<u32>),
    Delete(usize),
    Merge,
}

fn attrs() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..UNIVERSE, 1..5).prop_map(|s| s.into_iter().collect())
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => attrs().prop_map(Op::Insert),
            1 => (any::<usize>(), attrs()).prop_map(|(i, a)| Op::Update(i, a)),
            1 => any::<usize>().prop_map(Op::Delete),
            1 => Just(Op::Merge),
        ],
        1..60,
    )
}

fn entity(id: u64, attrs: &[u32]) -> Entity {
    Entity::new(
        EntityId(id),
        attrs.iter().map(|&a| (AttrId(a), Value::Int(i64::from(a)))),
    )
    .expect("attrs are unique")
}

/// A random workload: `queries`, one query on an attribute no entity
/// carries, and two queries sharing attribute `shared`.
fn workload() -> impl Strategy<Value = SynopsisMode> {
    (prop::collection::vec(attrs(), 0..4), attrs(), attrs(), 0..UNIVERSE).prop_map(
        |(queries, a, b, shared)| {
            let wide = UNIVERSE as usize + 2;
            let mut qs: Vec<Synopsis> =
                queries.into_iter().map(|q| Synopsis::from_bits(wide, q)).collect();
            qs.push(Synopsis::from_bits(wide, [UNIVERSE + 1]));
            for half in [a, b] {
                qs.push(Synopsis::from_bits(wide, half.into_iter().chain([shared])));
            }
            SynopsisMode::WorkloadBased(qs)
        },
    )
}

fn setup_in(mode: SynopsisMode, universe: u32, capacity: u64) -> (UniversalTable, Cinderella) {
    let mut table = UniversalTable::new(32);
    for i in 0..universe {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let cindy = Cinderella::new(Config {
        weight: 0.3,
        capacity,
        mode,
        ..Config::default()
    });
    (table, cindy)
}

fn setup(universe: u32, capacity: u64) -> (UniversalTable, Cinderella) {
    setup_in(SynopsisMode::EntityBased, universe, capacity)
}

fn assert_valid(cindy: &Cinderella, table: &UniversalTable) -> Result<(), TestCaseError> {
    let violations = cindy.validate(table).expect("validation scan");
    prop_assert!(violations.is_empty(), "{}", validate::render(&violations));
    Ok(())
}

fn assert_within_capacity(cindy: &Cinderella) -> Result<(), TestCaseError> {
    let b = cindy.config().capacity;
    for m in cindy.catalog().iter() {
        prop_assert!(
            m.entities <= b,
            "{} holds {} > B = {b}",
            m.segment,
            m.entities
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every structure the catalog/arena/index triad maintains stays
    /// internally consistent after every operation, including the split
    /// (capacity 4) and merge boundaries, in either synopsis mode, and no
    /// partition ever holds more than B entities.
    #[test]
    fn full_validation_after_every_op(ops in ops(), workload in workload()) {
        for mode in [SynopsisMode::EntityBased, workload] {
            let (mut table, mut cindy) = setup_in(mode, UNIVERSE, 4);
            let mut live: Vec<EntityId> = Vec::new();
            let mut next = 0u64;
            for op in &ops {
                match op {
                    Op::Insert(a) => {
                        let e = entity(next, a);
                        next += 1;
                        live.push(e.id());
                        cindy.insert(&mut table, e).expect("insert");
                    }
                    Op::Update(pick, a) => {
                        if live.is_empty() { continue; }
                        let id = live[pick % live.len()];
                        cindy.update(&mut table, entity(id.0, a)).expect("update");
                    }
                    Op::Delete(pick) => {
                        if live.is_empty() { continue; }
                        let id = live.swap_remove(pick % live.len());
                        cindy.delete(&mut table, id).expect("delete");
                    }
                    Op::Merge => {
                        cindy.merge_pass(&mut table, 0.8).expect("merge pass");
                    }
                }
                assert_valid(&cindy, &table)?;
                assert_within_capacity(&cindy)?;
            }
        }
    }
}

/// The arena's stride relayout at the u64 word boundary: partitions are
/// laid out with one synopsis word while the universe is ≤ 64 attributes;
/// interning attribute 64 forces `grow_stride`, which moves every live row
/// to a wider stride. Everything — membership, synopses, presence bitmaps,
/// free-list — must survive the move, including recycled (dead) slots.
#[test]
fn stride_relayout_at_word_boundary_preserves_everything() {
    let (mut table, mut cindy) = setup(63, 3);
    // Fill several partitions (and recycle some arena slots via deletes)
    // entirely within the one-word universe.
    for i in 0..24u64 {
        let a = u32::try_from(i % 63).expect("fits");
        let b = (a + 1) % 63;
        cindy.insert(&mut table, entity(i, &[a, b])).expect("insert");
    }
    for i in (0..24u64).step_by(5) {
        cindy.delete(&mut table, EntityId(i)).expect("delete");
    }
    let violations = cindy.validate(&table).expect("scan");
    assert!(violations.is_empty(), "{}", validate::render(&violations));
    let before: u64 = cindy.catalog().iter().map(|m| m.entities).sum();

    // Cross the boundary: attributes 63 (still word 0), 64 and 65 (word 1).
    for (offset, new_attr) in (63..66u32).enumerate() {
        table.catalog_mut().intern(&format!("b{new_attr}"));
        let id = 1000 + offset as u64;
        cindy
            .insert(&mut table, entity(id, &[new_attr, 0]))
            .expect("insert across word boundary");
        let violations = cindy.validate(&table).expect("scan");
        assert!(
            violations.is_empty(),
            "after interning attr {new_attr}:\n{}",
            validate::render(&violations)
        );
    }

    let after: u64 = cindy.catalog().iter().map(|m| m.entities).sum();
    assert_eq!(after, before + 3, "no entities lost in the relayout");
    // Old-universe entities are still queryable with their old synopses.
    assert!(table.get(EntityId(1)).is_ok());
    assert_eq!(table.universe(), 66);
}
