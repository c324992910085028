//! Table I — query execution time on regularly structured data (TPC-H).
//!
//! Loads TPC-H-shaped data (§V-C) into (1) the native schema — one
//! partition per relation, the "Standard TPC-H" baseline — and (2)
//! Cinderella-partitioned universal tables with B ∈ {500, 2000, 10000}.
//! Verifies that Cinderella rediscovers exactly the TPC-H relations
//! (no partition mixes columns of two relations) and reports the total
//! execution time of the 22 queries per scenario, as the paper's Table I
//! does. Expected shape: overhead within a few percent, shrinking as B
//! grows (fewer partitions to union).

#![forbid(unsafe_code)]

use cind_baselines::Partitioner;
use cind_bench::{cinderella, ms, ExperimentEnv};
use cind_datagen::{tpch_query_columns, TpchConfig, TpchGenerator};
use cind_metrics::Table;
use cind_model::Synopsis;
use cind_query::{execute, plan, Query};
use cind_storage::{SegmentId, UniversalTable};
use std::time::Duration;

/// Total rows of TPC-H at scale factor 1.0.
const SF1_ROWS: f64 = 8_660_030.0;

struct Scenario {
    name: String,
    table: UniversalTable,
    view: Vec<(SegmentId, Synopsis, u64)>,
    partitions: usize,
    recovered: bool,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = ExperimentEnv::from_args();
    let scale = env.entities as f64 / SF1_ROWS;
    let gen = TpchGenerator::new(TpchConfig { scale, seed: env.seed });
    eprintln!(
        "TPC-H scale {scale:.4} → {} rows",
        gen.row_counts().iter().sum::<u64>()
    );

    let mut scenarios: Vec<Scenario> = Vec::new();

    // Standard TPC-H: native schema, one segment per relation.
    {
        let mut table = UniversalTable::new(env.pool_pages);
        let (entities, origin) = gen.generate(table.catalog_mut());
        let segs: Vec<SegmentId> = gen.schema().iter().map(|_| table.create_segment()).collect();
        for (e, rel) in entities.iter().zip(&origin) {
            table.insert(segs[*rel], e).expect("native load");
        }
        let view: Vec<(SegmentId, Synopsis, u64)> = gen
            .schema()
            .iter()
            .zip(&segs)
            .zip(gen.row_counts())
            .map(|((rel, seg), rows)| {
                (*seg, rel.synopsis(table.catalog()), rows * rel.arity() as u64)
            })
            .collect();
        scenarios.push(Scenario {
            name: "Standard TPC-H".into(),
            partitions: view.len(),
            recovered: true,
            table,
            view,
        });
    }

    // Cinderella I–III.
    for (label, b) in [("Cinderella I", 500u64), ("Cinderella II", 2000), ("Cinderella III", 10_000)] {
        let mut table = UniversalTable::new(env.pool_pages);
        let (entities, _) = gen.generate(table.catalog_mut());
        let mut policy = cinderella(b, 0.5);
        let t = cind_bench::load(&mut policy, &mut table, entities)?;
        eprintln!(
            "{label}: loaded in {}ms, {} partitions, {} splits",
            ms(t),
            policy.catalog().len(),
            policy.stats().splits
        );

        // Schema recovery: every partition's synopsis must equal one
        // relation's column set exactly — Cinderella found the TPC-H schema.
        let relation_synopses: Vec<Synopsis> = gen
            .schema()
            .iter()
            .map(|r| r.synopsis(table.catalog()))
            .collect();
        let recovered = policy
            .catalog()
            .iter()
            .all(|m| relation_synopses.contains(&m.attr_synopsis));

        scenarios.push(Scenario {
            name: label.into(),
            partitions: policy.catalog().len(),
            recovered,
            view: Partitioner::pruning_view(&policy),
            table,
        });
    }

    // The 22 queries, over each scenario.
    let queries: Vec<(String, Query)> = {
        let catalog = scenarios[0].table.catalog();
        tpch_query_columns()
            .into_iter()
            .map(|(name, cols)| {
                let q = Query::from_names(catalog, cols.iter().copied())
                    .expect("TPC-H columns interned");
                (name.to_owned(), q)
            })
            .collect()
    };

    let mut per_query = Table::new({
        let mut h = vec!["query".to_owned()];
        h.extend(scenarios.iter().map(|s| format!("{} [ms]", s.name)));
        h
    });
    let mut totals = vec![Duration::ZERO; scenarios.len()];
    let mut baseline_rows: Vec<u64> = Vec::new();
    for (qname, query) in &queries {
        let mut row = vec![qname.clone()];
        for (si, s) in scenarios.iter().enumerate() {
            let p = plan(query, s.view.iter().map(|(seg, syn, _)| (*seg, syn)));
            let mut best = Duration::MAX;
            let mut rows = 0;
            for run in 0..=env.runs {
                let r = execute(&s.table, query, &p).expect("live segments");
                rows = r.rows;
                if run > 0 {
                    best = best.min(r.duration);
                }
            }
            if si == 0 {
                baseline_rows.push(rows);
            } else {
                assert_eq!(
                    rows,
                    baseline_rows[baseline_rows.len() - 1],
                    "{qname}: answers must agree"
                );
            }
            totals[si] += best;
            row.push(ms(best));
        }
        per_query.row(row);
    }

    println!("Table I — query execution time on regular data (TPC-H)\n");
    println!("{}", per_query.render());
    env.maybe_csv("table1_per_query", &per_query)?;

    let mut t = Table::new([
        "Scenario",
        "Partition size limit",
        "Partitions",
        "Schema recovered",
        "Total query time",
        "Relative",
    ]);
    let base = totals[0];
    for (s, total) in scenarios.iter().zip(&totals) {
        let limit = match s.name.as_str() {
            "Cinderella I" => "500 entities",
            "Cinderella II" => "2000 entities",
            "Cinderella III" => "10000 entities",
            _ => "-",
        };
        t.row([
            s.name.clone(),
            limit.to_owned(),
            s.partitions.to_string(),
            if s.recovered { "yes" } else { "NO" }.to_owned(),
            format!("{} ms", ms(*total)),
            format!("{:.2}%", 100.0 * total.as_secs_f64() / base.as_secs_f64()),
        ]);
    }
    println!("\n{}", t.render());
    env.maybe_csv("table1", &t)?;

    for s in &scenarios[1..] {
        assert!(s.recovered, "{} failed to recover the TPC-H schema", s.name);
    }
    Ok(())
}
