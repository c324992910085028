//! Macrobench: the merge pass (an extension operation) at a realistic
//! size.

use cind_datagen::{DbpediaConfig, DbpediaGenerator};
use cind_model::EntityId;
use cind_storage::UniversalTable;
use cinderella_core::{Cinderella, Config};
use criterion::{criterion_group, criterion_main, Criterion};

const ENTITIES: usize = 10_000;

fn config(b: u64) -> Config {
    Config {
        weight: 0.3,
        capacity: b,
        ..Config::default()
    }
}

/// A loaded table with 85 % of the entities deleted — the merge pass's
/// natural input.
fn fragmented() -> (UniversalTable, Cinderella) {
    let mut table = UniversalTable::new(512);
    let entities = DbpediaGenerator::new(DbpediaConfig {
        entities: ENTITIES,
        ..DbpediaConfig::default()
    })
    .generate(table.catalog_mut());
    let mut cindy = Cinderella::new(config(200));
    for e in entities {
        cindy.insert(&mut table, e).expect("insert");
    }
    for i in 0..ENTITIES as u64 {
        if i % 7 != 0 {
            cindy.delete(&mut table, EntityId(i)).expect("delete");
        }
    }
    (table, cindy)
}

fn bench_merge_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("maintenance/merge_pass_10k");
    g.sample_size(10);
    g.bench_function("after_85pct_deletes", |b| {
        b.iter_batched(
            fragmented,
            |(mut table, mut cindy)| {
                let report = cindy.merge_pass(&mut table, 0.5).expect("merge");
                assert!(report.merges > 0);
                (table, cindy)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_merge_pass);
criterion_main!(benches);
