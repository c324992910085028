//! EFFICIENCY(P) edge-case goldens — Definition 1's denominator-zero
//! corners, pinned so a refactor of the efficiency accounting cannot
//! silently change them:
//!
//! * empty workload (no queries),
//! * all partitions of SIZE zero,
//! * a workload whose queries match no partition.
//!
//! In every case the paper's ratio has denominator 0 ("the workload reads
//! nothing"); this repository defines that as vacuously efficient, 1.0 —
//! the value the simulator's independent recomputation also assumes.

use cind_model::{AttrId, Entity, EntityId, Synopsis, Value};
use cind_storage::UniversalTable;
use cinderella_core::{efficiency, efficiency_of, Cinderella, Config};

fn syn(bits: &[u32]) -> Synopsis {
    Synopsis::from_bits(16, bits.iter().copied())
}

// ---- explicit-collection goldens --------------------------------------

#[test]
fn empty_workload_is_vacuously_efficient() {
    let entities = vec![(syn(&[0, 1]), 2u64), (syn(&[3]), 7)];
    let partitions = vec![(syn(&[0, 1]), 2u64), (syn(&[3]), 7)];
    assert_eq!(efficiency_of(entities, &partitions, &[]), 1.0);
}

#[test]
fn empty_everything_is_vacuously_efficient() {
    assert_eq!(efficiency_of(Vec::new(), &[], &[]), 1.0);
    assert_eq!(efficiency_of(Vec::new(), &[], &[syn(&[0])]), 1.0);
    assert_eq!(efficiency_of(Vec::new(), &[(syn(&[0]), 3)], &[]), 1.0);
}

#[test]
fn all_zero_size_partitions_are_vacuously_efficient() {
    // Partitions overlap the workload but contribute SIZE 0 each: the
    // denominator is 0 regardless of the numerator, and the defined
    // answer is 1.0 — not a NaN, not an infinity.
    let entities = vec![(syn(&[0]), 4u64), (syn(&[1]), 2)];
    let partitions = vec![(syn(&[0]), 0u64), (syn(&[1]), 0)];
    let queries = vec![syn(&[0]), syn(&[1])];
    assert_eq!(efficiency_of(entities, &partitions, &queries), 1.0);
}

#[test]
fn workload_matching_no_partition_is_vacuously_efficient() {
    let entities = vec![(syn(&[0, 1]), 2u64), (syn(&[2]), 5)];
    let partitions = vec![(syn(&[0, 1]), 2u64), (syn(&[2]), 5)];
    // Bits 9 and 12 appear in no entity and no partition.
    let queries = vec![syn(&[9]), syn(&[12])];
    assert_eq!(efficiency_of(entities, &partitions, &queries), 1.0);
}

#[test]
fn no_match_queries_add_nothing_to_either_sum() {
    // Golden for the mixed case: one real query against a universal
    // partition scores 2/5; adding a no-match query must leave the ratio
    // exactly unchanged (it contributes 0 to numerator and denominator).
    let entities = vec![(syn(&[0]), 2u64), (syn(&[1]), 3)];
    let partitions = vec![(syn(&[0, 1]), 5u64)];
    let only_real = efficiency_of(entities.clone(), &partitions, &[syn(&[0])]);
    assert!((only_real - 2.0 / 5.0).abs() < 1e-12, "got {only_real}");
    let with_ghost = efficiency_of(entities, &partitions, &[syn(&[0]), syn(&[9])]);
    assert_eq!(with_ghost, only_real);
}

// ---- end-to-end goldens through a real table --------------------------

fn small_store() -> (UniversalTable, Cinderella) {
    let mut t = UniversalTable::new(64);
    let mut c = Cinderella::new(Config {
        weight: 0.3,
        capacity: 4,
        ..Config::default()
    });
    for i in 0..12u64 {
        let names: &[&str] = if i % 2 == 0 { &["a", "b"] } else { &["x", "y", "z"] };
        let attrs: Vec<(AttrId, Value)> = names
            .iter()
            .map(|n| (t.catalog_mut().intern(n), Value::Int(i as i64)))
            .collect();
        let e = Entity::new(EntityId(i), attrs).expect("valid entity");
        c.insert(&mut t, e).expect("insert");
    }
    (t, c)
}

#[test]
fn empty_table_scores_one_for_any_workload() {
    let t = UniversalTable::new(64);
    let c = Cinderella::new(Config::default());
    assert_eq!(efficiency(&t, &c, &[]), 1.0);
    assert_eq!(efficiency(&t, &c, &[syn(&[0])]), 1.0);
}

#[test]
fn populated_table_with_empty_workload_scores_one() {
    let (t, c) = small_store();
    assert_eq!(efficiency(&t, &c, &[]), 1.0);
}

#[test]
fn populated_table_with_unmatched_workload_scores_one() {
    let (mut t, c) = small_store();
    // An attribute the catalog knows but no entity instantiates: queries
    // over it prune every partition, so the workload reads nothing.
    let ghost = t.catalog_mut().intern("ghost");
    let q = Synopsis::from_attrs(t.universe(), [ghost]);
    assert_eq!(efficiency(&t, &c, std::slice::from_ref(&q)), 1.0);
}
