//! Microbench: the rating function and the catalog scan (Algorithm 1,
//! lines 3–7) as the number of partitions grows — the scaling concern the
//! paper's future-work section raises — and on a catalog of the served
//! shape, where nearly every partition is a candidate.

use cind_datagen::{DbpediaConfig, DbpediaGenerator};
use cind_model::{EntityId, Synopsis};
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::catalog::PartitionCatalog;
use cinderella_core::rating::{can_win_threshold, rate};
use cinderella_core::{global_rating, Cinderella, Config, IndexTier, RatingInputs};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

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
        cat.add_entity(seg, EntityId(s as u64), &syn, 1_000);
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

/// Entities placed before probing: at the served defaults (w 0.2, B 5 000,
/// cell sizes) the DBpedia stream holds ~150 partitions by then.
const DBPEDIA_PLACED: usize = 12_000;
/// Held-out entities rated against the placed catalog, one scan each.
const DBPEDIA_PROBES: usize = 256;

/// The `benchmark/` insert shape: DBpedia-like entities (100 attributes,
/// the Fig. 4 marginals) placed by Algorithm 1 at `Config::default()`.
/// The two near-universal attributes sit in nearly every partition, so
/// nearly every partition is a candidate of the indexed scan — unlike the
/// 12-group catalog above, where few are.
fn dbpedia_catalog() -> (Cinderella, Vec<(Synopsis, u64)>) {
    let config = Config::default();
    let mut table = UniversalTable::new(256);
    let entities = DbpediaGenerator::new(DbpediaConfig {
        entities: DBPEDIA_PLACED + DBPEDIA_PROBES,
        attributes: 100,
        ..DbpediaConfig::default()
    })
    .generate(table.catalog_mut());
    let probes = entities[DBPEDIA_PLACED..]
        .iter()
        .map(|e| (e.synopsis(table.universe()), config.size_model.entity_size(e)))
        .collect();
    let mut cindy = Cinderella::new(config);
    for e in entities.into_iter().take(DBPEDIA_PLACED) {
        cindy.insert(&mut table, e).expect("insert");
    }
    (cindy, probes)
}

fn bench_dbpedia_scan(c: &mut Criterion) {
    let (cindy, probes) = dbpedia_catalog();
    let (cat, w) = (cindy.catalog(), cindy.config().weight);
    let mut rated = 0u32;
    for (e, size) in &probes {
        // The masked scan against the sweep oracle, before any timing.
        let (indexed, ratings) = cat.best_partition(e, *size, w);
        let (swept, _) = cat.best_sweep(e, *size, w);
        if let Some((_, r)) = swept.filter(|(_, r)| *r >= 0.0) {
            assert_eq!(indexed, swept, "rating/dbpedia: probe {e:?} best rates {r}");
        }
        rated += ratings;
    }
    // What the masked scan exploits: of the rated candidates only those
    // whose overlap reaches a can-win threshold are rated at all, and of
    // those only the ones that rate >= 0 need a division. (At w < 1 a
    // non-candidate rates < 0 and misses both thresholds, so counting over
    // every partition counts candidates.)
    let (mut masked, mut winnable) = (0usize, 0usize);
    for (e, size) in &probes {
        for m in cat.iter() {
            let p = cat.rating_synopsis(m.segment).expect("cataloged");
            let and = e.overlap(&p);
            let candidate = m.size == 0 || and > 0;
            let (t_e, t_p) = (can_win_threshold(w, e.cardinality()), can_win_threshold(w, p.cardinality()));
            masked += usize::from(candidate && (and >= t_e || and >= t_p));
            winnable += usize::from(rate(w, e, *size, &p, m.size) >= 0.0);
        }
    }
    let per_probe = |n: usize| n as f64 / probes.len() as f64;
    println!(
        "rating/dbpedia: {} partitions, {:.1} rated per probe, {:.1} of them pass the \
         can-win mask, {:.1} rate >= 0",
        cat.len(),
        f64::from(rated) / probes.len() as f64,
        per_probe(masked),
        per_probe(winnable)
    );
    let mut g = c.benchmark_group("rating/dbpedia");
    g.sample_size(50);
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("indexed", |b| {
        b.iter(|| {
            for (e, size) in &probes {
                black_box(cat.best_partition(black_box(e), *size, w));
            }
        })
    });
    g.bench_function("scan", |b| {
        b.iter(|| {
            for (e, size) in &probes {
                black_box(cat.best_sweep(black_box(e), *size, w));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_single_rating, bench_catalog_scan, bench_dbpedia_scan);
criterion_main!(benches);
