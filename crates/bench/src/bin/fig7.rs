//! Fig. 7 — influence of the weight w on the partitioning (B = 5000).
//!
//! Sweeps w from 0.0 to 1.0 and reports, per the paper's four panels:
//! (a) the number of partitions (exploding below w = 0.2),
//! (b) entities per partition (higher weights fill partitions),
//! (c) attributes per partition (always ≪ the universal table's 100),
//! (d) sparseness per partition (0 at w = 0, growing with w, mostly below
//!     the data set's overall 0.94).

#![forbid(unsafe_code)]

use cind_bench::{cinderella, dbpedia_dataset, load, ms, ExperimentEnv};
use cind_metrics::{PartitioningReport, Table};
use cind_metrics::partition_stats::PartitionNumbers;
use cind_storage::UniversalTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = ExperimentEnv::from_args();
    const B: u64 = 5000;
    let weights: Vec<f64> = (0..=10).map(|i| f64::from(i) / 10.0).collect();

    println!("Fig. 7 — influence of w on the partitioning (B = {B}, {} entities)", env.entities);
    let mut ta = Table::new(["w", "partitions", "splits"]);
    let mut tb = Table::new(["w", "ent min", "ent q25", "ent med", "ent q75", "ent max"]);
    let mut tc = Table::new(["w", "attr min", "attr q25", "attr med", "attr q75", "attr max"]);
    let mut td = Table::new(["w", "sp min", "sp q25", "sp med", "sp q75", "sp max"]);

    let mut overall_sparseness = 0.0;
    for &w in &weights {
        let mut table = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut table);
        let cells: u64 = entities.iter().map(|e| e.arity() as u64).sum();
        overall_sparseness =
            1.0 - cells as f64 / (entities.len() as f64 * table.universe() as f64);
        let mut policy = cinderella(B, w);
        let t = load(&mut policy, &mut table, entities)?;
        eprintln!("w={w}: loaded in {}ms", ms(t));

        let report = PartitioningReport::from_partitions(policy.catalog().iter().map(|m| {
            PartitionNumbers {
                entities: m.entities,
                attributes: m.attr_synopsis.cardinality(),
                sparseness: m.sparseness(),
            }
        }));
        let wl = format!("{w:.1}");
        ta.row([
            wl.clone(),
            report.partitions.to_string(),
            policy.stats().splits.to_string(),
        ]);
        let fivenum = |s: &Option<cind_metrics::Summary>, digits: usize| -> Vec<String> {
            match s {
                Some(s) => [s.min, s.q25, s.median, s.q75, s.max]
                    .iter()
                    .map(|v| format!("{v:.digits$}"))
                    .collect(),
                None => vec!["-".to_owned(); 5],
            }
        };
        let mut row = vec![wl.clone()];
        row.extend(fivenum(&report.entities, 0));
        tb.row(row);
        let mut row = vec![wl.clone()];
        row.extend(fivenum(&report.attributes, 0));
        tc.row(row);
        let mut row = vec![wl];
        row.extend(fivenum(&report.sparseness, 3));
        td.row(row);

        // The paper's key observations, asserted.
        if w == 0.0 {
            let all_dense = policy.catalog().iter().all(|m| m.sparseness() == 0.0);
            assert!(all_dense, "w = 0 must yield perfectly homogeneous partitions");
        }
    }

    println!("\n(a) number of partitions:");
    println!("{}", ta.render());
    println!("\n(b) entities per partition:");
    println!("{}", tb.render());
    println!("\n(c) attributes per partition (universal table: 100):");
    println!("{}", tc.render());
    println!("\n(d) sparseness per partition (data set overall: {overall_sparseness:.3}):");
    println!("{}", td.render());

    env.maybe_csv("fig7a", &ta)?;
    env.maybe_csv("fig7b", &tb)?;
    env.maybe_csv("fig7c", &tc)?;
    env.maybe_csv("fig7d", &td)?;
    Ok(())
}
