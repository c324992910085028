//! Fig. 4 — attribute distribution in the (synthetic) DBpedia data set.
//!
//! Prints (a) the attribute-frequency distribution and (b) the
//! attributes-per-entity distribution, plus the calibration checks against
//! the numbers the paper states in §V-B: two attributes on almost every
//! entity, eleven on > 30 %, 85 % of attributes on < 10 %, entity arity
//! mostly 2–15 with a tail to ~27, overall sparseness ≈ 0.94.

#![forbid(unsafe_code)]

use cind_bench::{dbpedia_dataset, ExperimentEnv};
use cind_metrics::Table;
use cind_storage::UniversalTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = ExperimentEnv::from_args();
    let mut table = UniversalTable::new(env.pool_pages);
    let entities = dbpedia_dataset(&env, &mut table);
    let universe = table.universe();
    let n = entities.len() as f64;

    // Fig. 4(a): attribute frequencies, descending.
    let mut counts = vec![0u64; universe];
    for e in &entities {
        for (a, _) in e.attrs() {
            counts[a.0 as usize] += 1;
        }
    }
    let mut freqs: Vec<f64> = counts.iter().map(|&c| c as f64 / n).collect();
    freqs.sort_by(|a, b| b.total_cmp(a));

    println!("Fig. 4(a) — attribute frequency distribution ({universe} attributes, {} entities)", entities.len());
    let mut t = Table::new(["frequency band", "attributes", "fraction"]);
    let bands = [
        ("≥ 80%", 0.80..=1.00),
        ("30–80%", 0.30..=0.80),
        ("10–30%", 0.10..=0.30),
        ("1–10%", 0.01..=0.10),
        ("< 1%", 0.00..=0.01),
    ];
    for (label, range) in &bands {
        let k = freqs
            .iter()
            .filter(|f| **f > *range.start() && **f <= *range.end())
            .count();
        t.row([
            (*label).to_owned(),
            k.to_string(),
            format!("{:.1}%", 100.0 * k as f64 / universe as f64),
        ]);
    }
    println!("{}", t.render());
    env.maybe_csv("fig4a_bands", &t)?;

    let mut curve = Table::new(["rank", "frequency"]);
    for (rank, f) in freqs.iter().enumerate() {
        if rank < 15 || rank % 10 == 0 || rank == universe - 1 {
            curve.row([rank.to_string(), format!("{f:.4}")]);
        }
    }
    println!("\nfrequency by rank (head + every 10th):");
    println!("{}", curve.render());
    env.maybe_csv("fig4a_curve", &curve)?;

    // Fig. 4(b): attributes per entity.
    let mut arity_hist = std::collections::BTreeMap::<usize, u64>::new();
    let mut total_cells = 0u64;
    for e in &entities {
        *arity_hist.entry(e.arity()).or_default() += 1;
        total_cells += e.arity() as u64;
    }
    println!("\nFig. 4(b) — attributes per entity:");
    let mut t = Table::new(["arity", "entities", "fraction"]);
    for (arity, count) in &arity_hist {
        t.row([
            arity.to_string(),
            count.to_string(),
            format!("{:.2}%", 100.0 * *count as f64 / n),
        ]);
    }
    println!("{}", t.render());
    env.maybe_csv("fig4b", &t)?;

    let sparseness = 1.0 - total_cells as f64 / (n * universe as f64);
    let in_band: u64 = arity_hist
        .iter()
        .filter(|(a, _)| (2..=15).contains(*a))
        .map(|(_, c)| c)
        .sum();
    let max_arity = arity_hist.keys().max().copied().unwrap_or(0);

    println!("\ncalibration vs paper (§V-B):");
    let mut t = Table::new(["property", "paper", "measured"]);
    t.row([
        "near-universal attributes".to_owned(),
        "2".to_owned(),
        freqs.iter().filter(|f| **f > 0.8).count().to_string(),
    ]);
    t.row([
        "attributes > 30%".to_owned(),
        "13 (2 + 11)".to_owned(),
        freqs.iter().filter(|f| **f > 0.3).count().to_string(),
    ]);
    t.row([
        "attributes < 10%".to_owned(),
        "≥ 85%".to_owned(),
        format!(
            "{:.0}%",
            100.0 * freqs.iter().filter(|f| **f < 0.1).count() as f64 / universe as f64
        ),
    ]);
    t.row([
        "entities with 2–15 attributes".to_owned(),
        "majority".to_owned(),
        format!("{:.0}%", 100.0 * in_band as f64 / n),
    ]);
    t.row([
        "max attributes per entity".to_owned(),
        "27".to_owned(),
        max_arity.to_string(),
    ]);
    t.row([
        "overall sparseness".to_owned(),
        "0.94".to_owned(),
        format!("{sparseness:.3}"),
    ]);
    println!("{}", t.render());
    env.maybe_csv("fig4_calibration", &t)?;
    Ok(())
}
