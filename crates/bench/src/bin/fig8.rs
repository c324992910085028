//! Fig. 8 — insert execution time for different partition size limits B.
//!
//! Loads the DBpedia-like set at w = 0.5, timing each `Cinderella::insert`
//! call (the entity's encode included) and taking its split flag from the
//! returned `InsertOutcome`, and prints a log-bucketed latency histogram
//! per B, plus the split counts. Paper shape: most inserts fall in a
//! narrow band; a small hump of much slower inserts are the splits; split
//! *count* falls with B (paper: 448 / 100 / 0 for B = 500 / 5000 / 50000
//! at 100 k entities) while the *cost* of each split grows with B.

#![forbid(unsafe_code)]

use std::time::Instant;

use cind_bench::{dbpedia_dataset, ms, ExperimentEnv};
use cind_metrics::{LatencyHistogram, Table};
use cind_storage::UniversalTable;
use cinderella_core::{Cinderella, Config};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = ExperimentEnv::from_args();
    const WEIGHT: f64 = 0.5;
    let limits: [u64; 3] = [500, 5000, 50_000];

    println!(
        "Fig. 8 — insert execution time (w = {WEIGHT}, {} entities)",
        env.entities
    );

    let mut split_table = Table::new([
        "B",
        "splits",
        "partitions",
        "median insert",
        "p99 insert",
        "max insert",
        "mean split insert",
    ]);

    for b in limits {
        let mut table = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut table);
        let mut policy = Cinderella::new(Config {
            weight: WEIGHT,
            capacity: b,
            ..Config::default()
        });
        let mut all = LatencyHistogram::new();
        let mut splits = LatencyHistogram::new();
        for e in entities {
            let t0 = Instant::now();
            let outcome = policy.insert(&mut table, e)?;
            let took = t0.elapsed();
            all.record(took);
            if outcome.is_split() {
                splits.record(took);
            }
        }

        println!("\nB = {b}: insert latency histogram (log buckets):");
        let mut t = Table::new(["bucket", "inserts", "of which splits"]);
        let split_buckets: std::collections::HashMap<u128, u64> = splits
            .buckets()
            .into_iter()
            .map(|(lo, _, c)| (lo.as_nanos(), c))
            .collect();
        for (lo, hi, count) in all.buckets() {
            t.row([
                format!("{} – {}", ms(lo), ms(hi)),
                count.to_string(),
                split_buckets.get(&lo.as_nanos()).copied().unwrap_or(0).to_string(),
            ]);
        }
        println!("{}", t.render());
        env.maybe_csv(&format!("fig8_b{b}"), &t)?;

        split_table.row([
            b.to_string(),
            policy.stats().splits.to_string(),
            policy.catalog().len().to_string(),
            ms(all.percentile(50.0).expect("inserts timed")),
            ms(all.percentile(99.0).expect("inserts timed")),
            ms(all.percentile(100.0).expect("inserts timed")),
            splits
                .mean()
                .map(ms)
                .unwrap_or_else(|| "-".to_owned()),
        ]);
    }

    println!("\nsplit summary (paper at 100k entities: 448 / 100 / 0 splits):");
    println!("{}", split_table.render());
    env.maybe_csv("fig8_summary", &split_table)?;
    Ok(())
}
