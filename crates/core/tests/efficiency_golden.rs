//! Golden test for Definition 1 — EFFICIENCY(P) on a tiny fixture whose
//! value is derived by hand and asserted *exactly*. Guards
//! `crates/core/src/efficiency.rs` against accidental semantic drift
//! (sgn vs count, entity vs partition sizing, denominator conventions).

use cind_model::{AttrId, Entity, EntityId, Synopsis, Value};
use cind_storage::UniversalTable;
use cinderella_core::{efficiency, efficiency_of, Cinderella, Config};

const UNIVERSE: usize = 6;

fn syn(bits: &[u32]) -> Synopsis {
    Synopsis::from_bits(UNIVERSE, bits.iter().copied())
}

/// The fixture: 4 entities (SIZE 2 each), 2 partitions, 3 queries.
///
/// ```text
/// e1 = {a0, a1}   e2 = {a1, a2}   e3 = {a3, a4}   e4 = {a4, a5}
/// P1 = {e1, e2}: synopsis {a0,a1,a2}, SIZE 4
/// P2 = {e3, e4}: synopsis {a3,a4,a5}, SIZE 4
/// q1 = {a0}       q2 = {a4}       q3 = {a1, a3}
/// ```
///
/// Numerator   Σ_{q,e} sgn(|e ∧ q|)·SIZE(e):
///   q1 matches e1           → 2
///   q2 matches e3, e4       → 4
///   q3 matches e1, e2, e3   → 6          total 12
///
/// Denominator Σ_{q,p} sgn(|p ∧ q|)·SIZE(p):
///   q1 reads P1             → 4
///   q2 reads P2             → 4
///   q3 reads P1 and P2      → 8          total 16
///
/// EFFICIENCY(P) = 12/16 = 3/4, exactly representable in an f64.
const EXPECTED: f64 = 0.75;

type Sized2 = Vec<(Synopsis, u64)>;

fn fixture() -> (Sized2, Sized2, Vec<Synopsis>) {
    let entities = vec![
        (syn(&[0, 1]), 2u64),
        (syn(&[1, 2]), 2),
        (syn(&[3, 4]), 2),
        (syn(&[4, 5]), 2),
    ];
    let partitions = vec![(syn(&[0, 1, 2]), 4u64), (syn(&[3, 4, 5]), 4)];
    let queries = vec![syn(&[0]), syn(&[4]), syn(&[1, 3])];
    (entities, partitions, queries)
}

#[test]
fn definition_1_exact_on_the_fixture() {
    let (entities, partitions, queries) = fixture();
    let eff = efficiency_of(entities, &partitions, &queries);
    assert_eq!(eff, EXPECTED, "EFFICIENCY(P) must be exactly 3/4");
}

#[test]
fn definition_1_is_monotone_in_partition_quality() {
    // Collapsing the two partitions into one universal partition reads
    // every cell for every matching query: denominator becomes 3·8 = 24,
    // efficiency drops to 12/24 = 1/2 — still exact.
    let (entities, _, queries) = fixture();
    let universal = vec![(syn(&[0, 1, 2, 3, 4, 5]), 8u64)];
    let eff = efficiency_of(entities, &universal, &queries);
    assert_eq!(eff, 0.5, "universal-table efficiency must be exactly 1/2");
}

#[test]
fn end_to_end_table_reproduces_a_hand_derived_value() {
    // A second golden, this time through the partitioner and the physical
    // table. Four entities in two shape groups:
    //
    //   e1 = {a0,a1} (SIZE 2)   e2 = {a0,a1,a2} (SIZE 3)
    //   e3 = {a3,a4} (SIZE 2)   e4 = {a3,a4}    (SIZE 2)
    //
    // Cinderella folds e2 into e1's partition (positive rating: 2 of 3
    // attributes shared) and keeps the disjoint group apart, yielding
    // exactly  P1 = {a0,a1,a2}, SIZE 5  and  P2 = {a3,a4}, SIZE 4.
    //
    // Workload: q1 = {a2}, q2 = {a4}, q3 = {a0,a3}.
    //   Numerator:   q1→e2 (3) + q2→e3,e4 (4) + q3→all (9)   = 16
    //   Denominator: q1→P1 (5) + q2→P2 (4) + q3→P1,P2 (9)    = 18
    //
    // EFFICIENCY(P) = 16/18: asserted as the bitwise-identical IEEE
    // quotient 16.0/18.0 — no epsilon.
    let mut table = UniversalTable::new(64);
    for i in 0..UNIVERSE as u32 {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let mut cindy = Cinderella::new(Config {
        weight: 0.3,
        capacity: 10,
        ..Config::default()
    });
    let shapes: [&[u32]; 4] = [&[0, 1], &[0, 1, 2], &[3, 4], &[3, 4]];
    for (i, attrs) in shapes.iter().enumerate() {
        let e = Entity::new(
            EntityId(i as u64),
            attrs.iter().map(|&a| (AttrId(a), Value::Int(1))),
        )
        .unwrap();
        cindy.insert(&mut table, e).unwrap();
    }
    assert_eq!(cindy.catalog().len(), 2, "two shape groups, two partitions");
    let mut sizes: Vec<u64> = cindy.catalog().iter().map(|m| m.size).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![4, 5], "partition SIZEs fix the denominator");

    let queries = vec![syn(&[2]), syn(&[4]), syn(&[0, 3])];
    let eff = efficiency(&table, &cindy, &queries);
    assert_eq!(eff, 16.0 / 18.0, "measured EFFICIENCY(P) must be exactly 16/18");
}
