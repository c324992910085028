//! Macrobench: the cost of a single split as a function of the partition
//! size limit B — the paper's observation that split cost grows with B
//! while split frequency falls.

use cind_model::{AttrId, Entity, EntityId, Value};
use cind_storage::UniversalTable;
use cinderella_core::{Cinderella, Config};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Builds a table + partitioner with exactly one full partition of `b`
/// entities split across two latent shapes, so the (b+1)-th insert splits.
fn full_partition(b: u64) -> (UniversalTable, Cinderella, Entity) {
    let mut table = UniversalTable::new(1024);
    for i in 0..20 {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    // w = 1 piles both shapes into one partition.
    let mut cindy = Cinderella::new(Config {
        weight: 1.0,
        capacity: b,
        ..Config::default()
    });
    for i in 0..b {
        let base = if i % 2 == 0 { 0u32 } else { 10 };
        let attrs: Vec<(AttrId, Value)> = (0..5)
            .map(|k| (AttrId(base + k), Value::Int(i64::from(k))))
            .collect();
        let e = Entity::new(EntityId(i), attrs).expect("unique");
        cindy.insert(&mut table, e).expect("insert");
    }
    assert_eq!(cindy.catalog().len(), 1, "one full partition");
    let trigger = Entity::new(
        EntityId(b),
        (0..5).map(|k| (AttrId(k), Value::Int(1))),
    )
    .expect("unique");
    (table, cindy, trigger)
}

fn bench_split(c: &mut Criterion) {
    let mut g = c.benchmark_group("split/one_split");
    g.sample_size(10);
    for b in [100u64, 1_000, 10_000] {
        g.bench_with_input(BenchmarkId::from_parameter(b), &b, |bench, &b| {
            bench.iter_batched(
                || full_partition(b),
                |(mut table, mut cindy, trigger)| {
                    let outcome = cindy.insert(&mut table, trigger).expect("insert");
                    assert!(outcome.is_split());
                    (table, cindy)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_split);
criterion_main!(benches);
