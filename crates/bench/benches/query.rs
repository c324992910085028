//! Macrobench: end-to-end query execution — pruned (Cinderella) vs full
//! scan (universal table) at three selectivities. The microbench counterpart
//! of Fig. 5's wall-clock measurements. Each cell runs twice: rows counted
//! only (`execute`), and rows encoded into response bytes by the server's
//! wire sink (`execute_into::<WireRows>`), whose difference is the per-row
//! encode cost.

use cind_baselines::{Partitioner, Unpartitioned};
use cind_datagen::{DbpediaConfig, DbpediaGenerator, WorkloadBuilder};
use cind_model::Synopsis;
use cind_query::{execute, execute_into, plan, Projection, Query};
use cind_server::protocol::WireRows;
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::{Cinderella, Config};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const ENTITIES: usize = 10_000;

struct Loaded {
    table: UniversalTable,
    view: Vec<(SegmentId, Synopsis, u64)>,
}

fn load(cinderella: bool) -> (Loaded, Vec<(String, Query, f64)>) {
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: ENTITIES,
        ..DbpediaConfig::default()
    });
    let mut table = UniversalTable::new(256);
    let entities = gen.generate(table.catalog_mut());
    let universe = table.universe();
    let specs = WorkloadBuilder::default().build(universe, &entities);
    // One very selective, one medium, one broad query.
    let mut picks = Vec::new();
    for target in [0.01f64, 0.1, 0.9] {
        let s = specs
            .iter()
            .min_by(|a, b| {
                (a.selectivity - target)
                    .abs()
                    .total_cmp(&(b.selectivity - target).abs())
            })
            .expect("non-empty");
        picks.push((
            format!("sel{target}"),
            Query::from_attrs(universe, s.attrs.iter().copied()),
            s.selectivity,
        ));
    }
    let view = if cinderella {
        let mut policy = Cinderella::new(Config {
            weight: 0.2,
            capacity: 2_000,
            ..Config::default()
        });
        policy.load(&mut table, entities).expect("load");
        Partitioner::pruning_view(&policy)
    } else {
        let mut policy = Unpartitioned::new();
        policy.load(&mut table, entities).expect("load");
        policy.pruning_view()
    };
    (Loaded { table, view }, picks)
}

fn bench_query(c: &mut Criterion) {
    let (cindy, queries) = load(true);
    let (uni, _) = load(false);
    let mut g = c.benchmark_group("query/execute_10k");
    for (name, query, _) in &queries {
        let projection = Projection::of(query);
        for (label, loaded) in [("cinderella", &cindy), ("universal", &uni)] {
            let p = plan(query, loaded.view.iter().map(|(s, syn, _)| (*s, syn)));
            g.bench_with_input(
                BenchmarkId::new(label.to_owned(), name),
                &p,
                |bench, p| bench.iter(|| execute(&loaded.table, query, p).expect("run")),
            );
            g.bench_with_input(BenchmarkId::new(format!("{label}_wire"), name), &p, |bench, p| {
                bench.iter(|| {
                    execute_into::<WireRows>(loaded.table.read_view(), &projection, p)
                        .expect("run")
                })
            });
        }
    }
    g.finish();

    // Planning alone: the pruning pass over the partition view.
    let mut g = c.benchmark_group("query/plan_only");
    let (name, query, _) = &queries[0];
    g.bench_function(format!("prune_{}_partitions_{name}", cindy.view.len()), |b| {
        b.iter(|| plan(query, cindy.view.iter().map(|(s, syn, _)| (*s, syn))))
    });
    g.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
