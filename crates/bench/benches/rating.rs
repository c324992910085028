//! Microbench: the rating function and the catalog scan (Algorithm 1,
//! lines 3–7) as the number of partitions grows — the scaling concern the
//! paper's future-work section raises.

use cind_model::{EntityId, Synopsis};
use cind_storage::SegmentId;
use cinderella_core::catalog::PartitionCatalog;
use cinderella_core::{global_rating, IndexTier, RatingInputs};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const UNIVERSE: usize = 100;

fn synopsis(seed: usize, n: usize) -> Synopsis {
    Synopsis::from_bits(UNIVERSE, (0..n).map(|i| ((seed + i * 7) % UNIVERSE) as u32))
}

fn bench_single_rating(c: &mut Criterion) {
    let e = synopsis(1, 7);
    let p = synopsis(3, 45);
    c.bench_function("rating/single", |b| {
        b.iter(|| {
            let i = RatingInputs::compute(black_box(&e), 7, black_box(&p), 9_000);
            global_rating(0.2, &i)
        })
    });
}

fn catalog_with(parts: usize) -> PartitionCatalog {
    let mut cat = PartitionCatalog::new(IndexTier::Exact);
    for s in 0..parts {
        let seg = SegmentId(s as u32);
        cat.create_partition(seg);
        // Each partition holds a 30-attribute synopsis from a distinct
        // region of the universe (12 latent groups).
        let syn = synopsis(s * 8, 30);
        cat.add_entity(seg, EntityId(s as u64), &syn, 1_000, true);
    }
    cat
}

fn bench_catalog_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("rating/best_partition");
    for parts in [10usize, 100, 1_000] {
        let cat = catalog_with(parts);
        let e = synopsis(5, 7);
        // The full-sweep oracle against the one indexed path.
        g.bench_with_input(BenchmarkId::new("scan", parts), &parts, |b, _| {
            b.iter(|| cat.best_sweep(black_box(&e), 7, 0.2))
        });
        g.bench_with_input(BenchmarkId::new("indexed", parts), &parts, |b, _| {
            b.iter(|| cat.best_partition(black_box(&e), 7, 0.2))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_single_rating, bench_catalog_scan);
criterion_main!(benches);
