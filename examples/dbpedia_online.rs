//! Irregular data at scale: the DBpedia-person scenario, Cinderella vs the
//! plain universal table.
//!
//! ```sh
//! cargo run --release --example dbpedia_online
//! ```
//!
//! Loads 50 000 synthetic DBpedia-like person entities (calibrated to the
//! paper's Fig. 4 distributions) twice — once unpartitioned, once through
//! Cinderella — and compares selective queries: pages read, wall time, and
//! Definition 1 efficiency.

use cinderella::baselines::{Partitioner, Unpartitioned};
use cinderella::core::{efficiency_of, Cinderella, Config};
use cinderella::datagen::{DbpediaConfig, DbpediaGenerator, WorkloadBuilder};
use cinderella::model::Synopsis;
use cinderella::query::{execute, plan, Query};
use cinderella::storage::UniversalTable;

const ENTITIES: usize = 50_000;

fn main() {
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: ENTITIES,
        ..DbpediaConfig::default()
    });

    // Universal-table baseline.
    let mut uni_table = UniversalTable::new(256);
    let uni_entities = gen.generate(uni_table.catalog_mut());
    let mut universal = Unpartitioned::new();
    universal
        .load(&mut uni_table, uni_entities.clone())
        .expect("load");

    // Cinderella, paper-recommended settings for this data (w = 0.2).
    let mut cindy_table = UniversalTable::new(256);
    let cindy_entities = gen.generate(cindy_table.catalog_mut());
    let mut cindy = Cinderella::new(Config {
        weight: 0.2,
        capacity: 5_000,
        ..Config::default()
    });
    let t0 = std::time::Instant::now();
    for e in cindy_entities {
        cindy.insert(&mut cindy_table, e).expect("insert");
    }
    println!(
        "loaded {ENTITIES} entities through Cinderella in {:.1?} \
         ({} partitions, {} splits, {:.1} ratings/insert)",
        t0.elapsed(),
        cindy.catalog().len(),
        cindy.stats().splits,
        cindy.stats().ratings_computed as f64 / cindy.stats().inserts as f64,
    );

    // Three queries of decreasing selectivity, like the paper's Fig. 5
    // discussion: a rare attribute, a mid-tail attribute, a universal one.
    let universe = uni_table.universe();
    let specs = WorkloadBuilder::default().build(universe, &uni_entities);
    let mut picks = Vec::new();
    for target in [0.01, 0.1, 0.9] {
        let best = specs
            .iter()
            .min_by(|a, b| {
                (a.selectivity - target)
                    .abs()
                    .total_cmp(&(b.selectivity - target).abs())
            })
            .expect("non-empty workload");
        picks.push(best.clone());
    }

    println!("\nquery comparison (universal vs Cinderella):");
    println!(
        "{:<22} {:>11} {:>7} | {:>9} {:>9} | {:>9} {:>9}",
        "query", "selectivity", "rows", "uni pages", "uni time", "cin pages", "cin time"
    );
    for spec in &picks {
        let run = |table: &UniversalTable, view: Vec<(_, Synopsis, u64)>| {
            let q = Query::from_attrs(universe, spec.attrs.iter().copied());
            let p = plan(&q, view.iter().map(|(s, syn, _)| (*s, syn)));
            execute(table, &q, &p).expect("live plan")
        };
        let u = run(&uni_table, universal.pruning_view());
        let c = run(&cindy_table, Partitioner::pruning_view(&cindy));
        assert_eq!(u.rows, c.rows, "answers must agree");
        println!(
            "{:<22} {:>11.4} {:>7} | {:>9} {:>9.2?} | {:>9} {:>9.2?}",
            spec.label, spec.selectivity, u.rows, u.io.logical_reads, u.duration,
            c.io.logical_reads, c.duration,
        );
    }

    // Definition 1 efficiency over the full representative workload.
    let reps = WorkloadBuilder::representatives(
        &specs,
        &WorkloadBuilder::default_edges(),
        3,
    );
    let queries: Vec<Synopsis> = reps
        .iter()
        .map(|s| Synopsis::from_attrs(universe, s.attrs.iter().copied()))
        .collect();
    let entity_syns: Vec<(Synopsis, u64)> = uni_entities
        .iter()
        .map(|e| (e.synopsis(universe), e.arity() as u64))
        .collect();
    let eff = |view: Vec<(_, Synopsis, u64)>| {
        let parts: Vec<(Synopsis, u64)> =
            view.into_iter().map(|(_, syn, size)| (syn, size)).collect();
        efficiency_of(entity_syns.iter().cloned(), &parts, &queries)
    };
    println!(
        "\nEFFICIENCY(P) over {} representative queries: universal {:.3}, cinderella {:.3}",
        reps.len(),
        eff(universal.pruning_view()),
        eff(Partitioner::pruning_view(&cindy)),
    );
}
