//! End-to-end: DBpedia-like load through Cinderella vs the universal
//! table — correctness and the paper's headline claims.

use cinderella::baselines::{Partitioner, Unpartitioned};
use cinderella::core::{efficiency_of, Cinderella, Config};
use cinderella::datagen::{DbpediaConfig, DbpediaGenerator, WorkloadBuilder};
use cinderella::model::Synopsis;
use cinderella::query::{execute, plan, Query};
use cinderella::storage::UniversalTable;

mod common;

const ENTITIES: usize = 8_000;

fn dataset(table: &mut UniversalTable) -> Vec<cinderella::model::Entity> {
    DbpediaGenerator::new(DbpediaConfig {
        entities: ENTITIES,
        ..DbpediaConfig::default()
    })
    .generate(table.catalog_mut())
}

fn load_cinderella(b: u64, w: f64) -> (UniversalTable, Cinderella) {
    let mut table = UniversalTable::new(128);
    let entities = dataset(&mut table);
    let mut cindy = Cinderella::new(Config {
        weight: w,
        capacity: b,
        ..Config::default()
    });
    for e in entities {
        cindy.insert(&mut table, e).expect("insert");
    }
    common::assert_fully_valid(&cindy, &table);
    (table, cindy)
}

#[test]
fn all_entities_survive_the_load() {
    let (table, cindy) = load_cinderella(500, 0.5);
    assert_eq!(table.entity_count(), ENTITIES);
    let catalog_total: u64 = cindy.catalog().iter().map(|m| m.entities).sum();
    assert_eq!(catalog_total as usize, ENTITIES);
    // Segment record counts agree with the catalog, partition by partition.
    for meta in cindy.catalog().iter() {
        let seg = table.segment(meta.segment).expect("live segment");
        assert_eq!(seg.record_count() as u64, meta.entities);
    }
}

#[test]
fn partition_synopses_are_exactly_the_or_of_members() {
    let (table, cindy) = load_cinderella(500, 0.5);
    let universe = table.universe();
    for meta in cindy.catalog().iter() {
        let mut expected = Synopsis::empty(universe);
        let mut cells = 0u64;
        table
            .scan(meta.segment, |e| {
                expected.merge(&e.synopsis(universe));
                cells += e.arity() as u64;
            })
            .expect("scan");
        assert_eq!(meta.attr_synopsis, expected, "synopsis drift in {}", meta.segment);
        assert_eq!(meta.size, cells, "size drift in {}", meta.segment);
    }
}

#[test]
fn capacity_limit_is_respected() {
    for b in [100u64, 500] {
        let (_, cindy) = load_cinderella(b, 0.5);
        for meta in cindy.catalog().iter() {
            assert!(
                meta.entities <= b,
                "partition {} holds {} > B = {b}",
                meta.segment,
                meta.entities
            );
        }
    }
}

#[test]
fn queries_agree_with_universal_and_prune_pages() {
    let (cindy_table, cindy) = load_cinderella(500, 0.5);
    let mut uni_table = UniversalTable::new(128);
    let entities = dataset(&mut uni_table);
    let specs = {
        let all = WorkloadBuilder::default().build(uni_table.universe(), &entities);
        WorkloadBuilder::representatives(&all, &WorkloadBuilder::default_edges(), 3)
    };
    let mut universal = Unpartitioned::new();
    universal.load(&mut uni_table, entities).expect("load");

    let cindy_view = Partitioner::pruning_view(&cindy);
    let uni_view = universal.pruning_view();
    let mut selective_cindy = 0u64;
    let mut selective_uni = 0u64;
    for spec in &specs {
        let q = Query::from_attrs(cindy_table.universe(), spec.attrs.iter().copied());
        let cp = plan(&q, cindy_view.iter().map(|(s, syn, _)| (*s, syn)));
        let up = plan(&q, uni_view.iter().map(|(s, syn, _)| (*s, syn)));
        let cr = execute(&cindy_table, &q, &cp).expect("run");
        let ur = execute(&uni_table, &q, &up).expect("run");
        assert_eq!(cr.rows, ur.rows, "{}", spec.label);
        assert_eq!(cr.cells, ur.cells, "{}", spec.label);
        if spec.selectivity < 0.1 {
            selective_cindy += cr.io.logical_reads;
            selective_uni += ur.io.logical_reads;
        }
    }
    assert!(
        selective_cindy < selective_uni,
        "selective queries must read fewer pages ({selective_cindy} vs {selective_uni})"
    );
}

#[test]
fn efficiency_beats_the_universal_table() {
    let (table, cindy) = load_cinderella(500, 0.2);
    let mut probe = UniversalTable::new(128);
    let entities = dataset(&mut probe);
    let universe = table.universe();
    let specs = {
        let all = WorkloadBuilder::default().build(universe, &entities);
        WorkloadBuilder::representatives(&all, &WorkloadBuilder::default_edges(), 3)
    };
    let queries: Vec<Synopsis> = specs
        .iter()
        .map(|s| Synopsis::from_attrs(universe, s.attrs.iter().copied()))
        .collect();
    let entity_syns: Vec<(Synopsis, u64)> = entities
        .iter()
        .map(|e| (e.synopsis(universe), e.arity() as u64))
        .collect();

    let eff = |view: Vec<(cinderella::storage::SegmentId, Synopsis, u64)>| {
        let parts: Vec<(Synopsis, u64)> =
            view.into_iter().map(|(_, syn, size)| (syn, size)).collect();
        efficiency_of(entity_syns.iter().cloned(), &parts, &queries)
    };
    let cindy_eff = eff(Partitioner::pruning_view(&cindy));
    // The universal table's efficiency: one partition with all cells.
    let total_cells: u64 = entity_syns.iter().map(|(_, c)| c).sum();
    let mut full = Synopsis::empty(universe);
    for (syn, _) in &entity_syns {
        full.merge(syn);
    }
    let uni_eff = eff(vec![(
        cinderella::storage::SegmentId(0),
        full,
        total_cells,
    )]);
    assert!(cindy_eff > uni_eff, "{cindy_eff} must beat {uni_eff}");
    assert!(cindy_eff > 0.0 && cindy_eff <= 1.0);
}

#[test]
fn smaller_b_gives_more_homogeneous_partitions() {
    let (_, small) = load_cinderella(200, 0.5);
    let (_, large) = load_cinderella(5_000, 0.5);
    assert!(small.catalog().len() > large.catalog().len());
    let mean_sparseness = |c: &Cinderella| {
        let v: Vec<f64> = c.catalog().iter().map(|m| m.sparseness()).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(
        mean_sparseness(&small) < mean_sparseness(&large),
        "smaller B must yield denser partitions"
    );
}
