//! Fig. 5 — average query execution time vs selectivity for different
//! partition size limits B.
//!
//! The paper loads the DBpedia person set into Cinderella-partitioned
//! universal tables with B ∈ {500, 5000, 50000} at w = 0.5, plus the
//! unpartitioned universal table, and measures representative queries of
//! varied selectivity. Expected shape: Cinderella wins clearly below
//! selectivity ≈ 0.2 (early pruning), the universal table is flat, small B
//! helps very selective queries but adds union overhead for broad ones.

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
    const WEIGHT: f64 = 0.5;
    let limits: [u64; 3] = [500, 5000, 50_000];

    // Build one table per scenario over the same generated data.
    let mut scenarios: Vec<(String, UniversalTable, Box<dyn Partitioner>)> = Vec::new();
    {
        let mut table = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut table);
        let mut policy = Unpartitioned::new();
        let t = load(&mut policy, &mut table, entities)?;
        eprintln!("loaded universal table in {}ms", ms(t).as_str());
        scenarios.push(("universal".into(), table, Box::new(policy)));
    }
    for b in limits {
        let mut table = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut table);
        let mut policy = cinderella(b, WEIGHT);
        let t = load(&mut policy, &mut table, entities)?;
        eprintln!(
            "loaded B={b} in {}ms ({} partitions, {} splits)",
            ms(t),
            policy.catalog().len(),
            policy.stats().splits
        );
        scenarios.push((format!("B={b}"), table, Box::new(policy)));
    }

    // The workload is derived from the data, identical across scenarios.
    let specs = {
        let (_, table, _) = &scenarios[0];
        let mut probe = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut probe);
        representative_queries(table.universe(), &entities)
    };
    eprintln!("{} representative queries", specs.len());

    let series: Vec<(String, Vec<QueryPoint>)> = scenarios
        .iter()
        .map(|(name, table, policy)| {
            Ok((name.clone(), measure_queries(table, policy.as_ref(), &specs, env.runs)?))
        })
        .collect::<Result<_, StorageError>>()?;

    // Answers must agree across scenarios.
    for (name, points) in &series[1..] {
        for (p, u) in points.iter().zip(&series[0].1) {
            assert_eq!(p.rows, u.rows, "{name} changed query answers");
        }
    }

    println!("Fig. 5 — avg query execution time [ms] vs selectivity (w = {WEIGHT})");
    let mut headers = vec!["selectivity".to_owned(), "rows".to_owned()];
    headers.extend(series.iter().map(|(n, _)| format!("{n} [ms]")));
    headers.extend(series.iter().map(|(n, _)| format!("{n} [pages]")));
    let mut t = Table::new(headers);
    for qi in 0..specs.len() {
        let mut row = vec![
            format!("{:.4}", specs[qi].selectivity),
            series[0].1[qi].rows.to_string(),
        ];
        row.extend(series.iter().map(|(_, pts)| ms(pts[qi].time)));
        row.extend(series.iter().map(|(_, pts)| format!("{:.0}", pts[qi].pages)));
        t.row(row);
    }
    println!("{}", t.render());
    env.maybe_csv("fig5", &t)?;

    // Aggregate the paper's headline: speedup for selectivity < 0.2.
    println!("\nspeedup vs universal (geometric mean of per-query page ratios):");
    let mut t = Table::new(["series", "selective (<0.2)", "broad (≥0.3)"]);
    for (name, pts) in &series[1..] {
        let ratio = |pred: &dyn Fn(f64) -> bool| {
            let logs: Vec<f64> = pts
                .iter()
                .zip(&series[0].1)
                .filter(|(p, _)| pred(p.selectivity))
                .map(|(p, u)| (u.pages.max(1.0) / p.pages.max(1.0)).ln())
                .collect();
            if logs.is_empty() {
                f64::NAN
            } else {
                (logs.iter().sum::<f64>() / logs.len() as f64).exp()
            }
        };
        t.row([
            name.clone(),
            format!("{:.2}x", ratio(&|s| s < 0.2)),
            format!("{:.2}x", ratio(&|s| s >= 0.3)),
        ]);
    }
    println!("{}", t.render());
    env.maybe_csv("fig5_speedup", &t)?;
    Ok(())
}
