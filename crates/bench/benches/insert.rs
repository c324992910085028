//! Macrobench: Cinderella insert throughput on DBpedia-like data, per
//! partition size limit and weight (the knobs of Figs. 5–8).

use cind_datagen::{DbpediaConfig, DbpediaGenerator};
use cind_storage::UniversalTable;
use cinderella_core::{Cinderella, Config};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const ENTITIES: usize = 5_000;

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("insert/load_5k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ENTITIES as u64));
    for (b, w) in [(500u64, 0.5f64), (5_000, 0.5), (5_000, 0.2), (5_000, 0.1)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("B{b}_w{w}")),
            &(b, w),
            |bench, &(b, w)| {
                bench.iter_batched(
                    || {
                        let mut table = UniversalTable::new(256);
                        let entities = DbpediaGenerator::new(DbpediaConfig {
                            entities: ENTITIES,
                            ..DbpediaConfig::default()
                        })
                        .generate(table.catalog_mut());
                        (table, entities)
                    },
                    |(mut table, entities)| {
                        let mut cindy = Cinderella::new(Config {
                            weight: w,
                            capacity: b,
                            ..Config::default()
                        });
                        for e in entities {
                            cindy.insert(&mut table, e).expect("insert");
                        }
                        (table, cindy)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_insert);
criterion_main!(benches);
