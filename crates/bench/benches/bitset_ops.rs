//! Microbench: the fused synopsis count operations.
//!
//! Every Cinderella rating is two fused passes over two synopses, so these
//! counts are the innermost loop of the whole system. Measures the dense
//! [`FixedBitSet`] at the population sizes the DBpedia data actually
//! produces (entities ≈ 7 bits, partitions ≈ 30–70 bits of a 100-bit
//! universe).

use cind_bitset::FixedBitSet;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const UNIVERSE: usize = 100;

fn bits(n: usize, stride: usize) -> Vec<u32> {
    (0..n).map(|i| ((i * stride) % UNIVERSE) as u32).collect()
}

fn bench_counts(c: &mut Criterion) {
    let cases = [("entity7_vs_part40", 7usize, 40usize), ("part40_vs_part70", 40, 70)];
    let mut g = c.benchmark_group("and_count");
    for (name, na, nb) in cases {
        let fa = FixedBitSet::from_iter(UNIVERSE, bits(na, 3));
        let fb = FixedBitSet::from_iter(UNIVERSE, bits(nb, 7));
        g.bench_function(format!("fixed/{name}"), |b| {
            b.iter(|| black_box(&fa).and_count(black_box(&fb)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("xor_count_split_starters");
    let fa = FixedBitSet::from_iter(UNIVERSE, bits(7, 3));
    let fb = FixedBitSet::from_iter(UNIVERSE, bits(9, 5));
    g.bench_function("fixed/entity_vs_entity", |b| {
        b.iter(|| black_box(&fa).xor_count(black_box(&fb)))
    });
    g.finish();
}

fn bench_union_with(c: &mut Criterion) {
    let mut g = c.benchmark_group("union_with");
    g.bench_function("fixed/entity_into_partition", |b| {
        let e = FixedBitSet::from_iter(UNIVERSE, bits(7, 3));
        b.iter_batched(
            || FixedBitSet::from_iter(UNIVERSE, bits(40, 7)),
            |mut p| {
                p.union_with(&e);
                p
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_counts, bench_union_with);
criterion_main!(benches);
