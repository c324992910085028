//! Cross-policy guarantees: every partitioner answers queries identically;
//! the efficiency ordering matches each policy's design.

use cinderella::baselines::{
    HashPartitioner, OfflineClustering, OfflineConfig, Partitioner, RangePartitioner,
    Unpartitioned,
};
use cinderella::core::{efficiency_of, Cinderella, Config};
use cinderella::datagen::{DbpediaConfig, DbpediaGenerator, WorkloadBuilder};
use cinderella::model::Synopsis;
use cinderella::query::{execute, plan, Query};
use cinderella::storage::UniversalTable;

mod common;

const ENTITIES: usize = 4_000;

fn policies() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(Unpartitioned::new()),
        Box::new(HashPartitioner::new(8)),
        Box::new(RangePartitioner::new(500)),
        Box::new(OfflineClustering::new(OfflineConfig {
            jaccard_threshold: 0.4,
            capacity: 500,
        })),
        Box::new(Cinderella::new(Config {
            weight: 0.2,
            capacity: 500,
            ..Config::default()
        })),
    ]
}

#[test]
fn all_policies_answer_queries_identically() {
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: ENTITIES,
        ..DbpediaConfig::default()
    });

    let mut loaded = Vec::new();
    for mut policy in policies() {
        let mut table = UniversalTable::new(64);
        let entities = gen.generate(table.catalog_mut());
        policy.load(&mut table, entities).expect("load");
        assert_eq!(table.entity_count(), ENTITIES, "{}", policy.name());
        loaded.push((table, policy));
    }

    let universe = loaded[0].0.universe();
    let specs = {
        let mut probe = UniversalTable::new(64);
        let entities = gen.generate(probe.catalog_mut());
        let all = WorkloadBuilder::default().build(universe, &entities);
        WorkloadBuilder::representatives(&all, &WorkloadBuilder::default_edges(), 2)
    };

    for spec in &specs {
        let q = Query::from_attrs(universe, spec.attrs.iter().copied());
        let mut baseline_rows: Option<u64> = None;
        for (table, policy) in &loaded {
            let view = policy.pruning_view();
            let p = plan(&q, view.iter().map(|(s, syn, _)| (*s, syn)));
            let r = execute(table, &q, &p).expect("run");
            match baseline_rows {
                None => baseline_rows = Some(r.rows),
                Some(expected) => assert_eq!(
                    r.rows,
                    expected,
                    "{} disagrees on {}",
                    policy.name(),
                    spec.label
                ),
            }
        }
    }

    for (table, policy) in &loaded {
        let report = policy.validate_structure(table);
        assert!(report.is_empty(), "{}: {report:?}", policy.name());
        common::assert_pool_valid(table);
    }
}

#[test]
fn efficiency_ordering_matches_design() {
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: ENTITIES,
        ..DbpediaConfig::default()
    });
    let mut probe = UniversalTable::new(64);
    let entities = gen.generate(probe.catalog_mut());
    let universe = probe.universe();
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

    let mut eff = std::collections::HashMap::new();
    for mut policy in policies() {
        let mut table = UniversalTable::new(64);
        let entities = gen.generate(table.catalog_mut());
        policy.load(&mut table, entities).expect("load");
        let report = policy.validate_structure(&table);
        assert!(report.is_empty(), "{}: {report:?}", policy.name());
        let parts: Vec<(Synopsis, u64)> = policy
            .pruning_view()
            .into_iter()
            .map(|(_, syn, size)| (syn, size))
            .collect();
        eff.insert(
            policy.name(),
            efficiency_of(entity_syns.iter().cloned(), &parts, &queries),
        );
    }

    // Hash partitioning destroys locality: it can never beat unpartitioned
    // on Definition 1 by more than rounding (all partitions carry all hot
    // attributes), and structure-aware policies must beat both.
    let uni = eff["unpartitioned"];
    let hash = eff["hash"];
    let cindy = eff["cinderella"];
    let offline = eff["offline-clustering"];
    assert!((hash - uni).abs() < 0.05, "hash ≈ unpartitioned ({hash} vs {uni})");
    assert!(cindy > uni + 0.02, "cinderella ({cindy}) must beat unpartitioned ({uni})");
    assert!(offline > uni, "offline clustering ({offline}) must beat unpartitioned ({uni})");
    for (_, e) in eff {
        assert!(e > 0.0 && e <= 1.0);
    }
}
