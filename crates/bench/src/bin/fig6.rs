//! Fig. 6 — average query execution time vs selectivity for different
//! rating weights w (B = 5000).
//!
//! Expected shape: low weights build many small homogeneous partitions —
//! best for very selective queries; higher weights build fewer, broader
//! partitions — slightly better for very unselective queries. The paper
//! finds w = 0.2 a good balance for DBpedia.

#![forbid(unsafe_code)]

use cind_baselines::{Partitioner, Unpartitioned};
use cind_bench::{
    cinderella, dbpedia_dataset, load, measure_queries, ms, representative_queries,
    ExperimentEnv, QueryPoint,
};
use cind_metrics::Table;
use cind_storage::{StorageError, UniversalTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = ExperimentEnv::from_args();
    const B: u64 = 5000;
    let weights = [0.0, 0.2, 0.5, 0.8];

    let mut scenarios: Vec<(String, UniversalTable, Box<dyn Partitioner>)> = Vec::new();
    {
        let mut table = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut table);
        let mut policy = Unpartitioned::new();
        load(&mut policy, &mut table, entities)?;
        scenarios.push(("universal".into(), table, Box::new(policy)));
    }
    for w in weights {
        let mut table = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut table);
        let mut policy = cinderella(B, w);
        let t = load(&mut policy, &mut table, entities)?;
        eprintln!(
            "loaded w={w} in {}ms ({} partitions, {} splits)",
            ms(t),
            policy.catalog().len(),
            policy.stats().splits
        );
        scenarios.push((format!("w={w}"), table, Box::new(policy)));
    }

    let specs = {
        let (_, table, _) = &scenarios[0];
        let mut probe = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut probe);
        representative_queries(table.universe(), &entities)
    };

    let series: Vec<(String, Vec<QueryPoint>)> = scenarios
        .iter()
        .map(|(name, table, policy)| {
            Ok((name.clone(), measure_queries(table, policy.as_ref(), &specs, env.runs)?))
        })
        .collect::<Result<_, StorageError>>()?;

    for (name, points) in &series[1..] {
        for (p, u) in points.iter().zip(&series[0].1) {
            assert_eq!(p.rows, u.rows, "{name} changed query answers");
        }
    }

    println!("Fig. 6 — avg query execution time [ms] vs selectivity (B = {B})");
    let mut headers = vec!["selectivity".to_owned()];
    headers.extend(series.iter().map(|(n, _)| format!("{n} [ms]")));
    headers.extend(series.iter().map(|(n, _)| format!("{n} [pages]")));
    let mut t = Table::new(headers);
    for qi in 0..specs.len() {
        let mut row = vec![format!("{:.4}", specs[qi].selectivity)];
        row.extend(series.iter().map(|(_, pts)| ms(pts[qi].time)));
        row.extend(series.iter().map(|(_, pts)| format!("{:.0}", pts[qi].pages)));
        t.row(row);
    }
    println!("{}", t.render());
    env.maybe_csv("fig6", &t)?;

    println!("\npartitions per weight:");
    let mut t = Table::new(["weight", "partitions"]);
    for ((name, _, policy), w) in scenarios[1..].iter().zip(weights) {
        let _ = w;
        t.row([name.clone(), policy.partition_count().to_string()]);
    }
    println!("{}", t.render());
    env.maybe_csv("fig6_partitions", &t)?;
    Ok(())
}
