//! Parameter advisor: pick `w` and `B` from a sample before loading.
//!
//! ```sh
//! cargo run --release --example advisor
//! ```
//!
//! The paper shows that the best weight depends on the data's irregularity
//! and the best partition size limit on the workload's selectivity; it
//! leaves the choice to the operator. This example carries a small
//! advisor (an extension beyond the paper, living here because nothing
//! else calls it): partition a 5 000-entity sample under every candidate
//! (w, B), score each with a cost blending Definition 1 efficiency and
//! union overhead, pick the winner, then load the full data set with it
//! and verify the prediction held up.

use cinderella::core::{
    efficiency, efficiency_of, Cinderella, Config, CoreError,
};
use cinderella::datagen::{DbpediaConfig, DbpediaGenerator, WorkloadBuilder};
use cinderella::model::{Entity, Synopsis};
use cinderella::storage::UniversalTable;

const SAMPLE: usize = 5_000;
const FULL: usize = 50_000;

/// One scored candidate configuration.
#[derive(Clone, Debug)]
struct CandidateScore {
    /// The weight tried.
    weight: f64,
    /// The capacity tried.
    capacity: u64,
    /// Partitions produced on the sample.
    partitions: usize,
    /// Definition 1 efficiency on the sample.
    efficiency: f64,
    /// Mean number of partitions a workload query must union.
    partitions_touched: f64,
    /// Overhead-adjusted efficiency (higher is better): Definition 1 with a
    /// fixed per-touched-partition cost added to the denominator, modelling
    /// the union branch and its partially filled last page.
    score: f64,
}

/// The advisor's output.
#[derive(Clone, Debug)]
struct Recommendation {
    /// The winning configuration (clone into a [`Config`]).
    weight: f64,
    /// The winning capacity.
    capacity: u64,
    /// All candidates, best first.
    candidates: Vec<CandidateScore>,
}

/// Advisor knobs.
#[derive(Clone, Debug)]
struct AdvisorConfig {
    /// Candidate weights (default: the paper's sweep 0.1–0.8).
    weights: Vec<f64>,
    /// Candidate capacities (entities per partition).
    capacities: Vec<u64>,
    /// Fixed cost (in `SIZE` cells) charged per partition a query touches,
    /// modelling the union branch and its partially filled last page. 0
    /// scores pure Definition 1 efficiency; ~64 cells ≈ one 8 KiB page of
    /// small values.
    union_cost_cells: u64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self {
            weights: vec![0.1, 0.2, 0.3, 0.5, 0.8],
            capacities: vec![500, 2_000, 5_000, 20_000],
            union_cost_cells: 64,
        }
    }
}

/// Scores every candidate `(w, B)` on `sample` against `workload` and
/// recommends the best.
///
/// The sample should be a few thousand entities drawn from the stream the
/// table will see; the workload is the query synopses of Definition 1.
/// Cost: one Cinderella load of the sample per candidate — seconds, not
/// hours, which is the point of sampling.
///
/// # Errors
/// [`CoreError::Invariant`] when the sample or the candidate grids are
/// empty; sample-insert failures propagate (they cannot occur for entities
/// whose attribute ids fit `universe`).
fn recommend(
    sample: &[Entity],
    universe: usize,
    workload: &[Synopsis],
    advisor: &AdvisorConfig,
) -> Result<Recommendation, CoreError> {
    if sample.is_empty() {
        return Err(CoreError::Invariant("advisor needs a sample"));
    }
    if advisor.weights.is_empty() || advisor.capacities.is_empty() {
        return Err(CoreError::Invariant("advisor needs candidates"));
    }
    let entity_syns: Vec<(Synopsis, u64)> = sample
        .iter()
        .map(|e| (e.synopsis(universe), e.arity() as u64))
        .collect();

    let mut candidates = Vec::new();
    for &w in &advisor.weights {
        for &b in &advisor.capacities {
            let mut table = UniversalTable::new(0);
            for i in 0..universe {
                // The advisor's scratch table needs ids 0..universe to line
                // up with the sample's attribute ids.
                table.catalog_mut().intern(&format!("__advisor_attr{i}"));
            }
            let mut cindy = Cinderella::new(Config {
                weight: w,
                capacity: b,
                ..Config::default()
            });
            for e in sample {
                cindy.insert(&mut table, e.clone())?;
            }
            let parts: Vec<(Synopsis, u64)> = cindy
                .catalog()
                .iter()
                .map(|m| (m.attr_synopsis.clone(), m.size))
                .collect();
            let efficiency = efficiency_of(entity_syns.iter().cloned(), &parts, workload);
            // Relevant cells (Definition 1's numerator) and the adjusted
            // read cost: every touched partition costs its SIZE plus the
            // fixed union overhead.
            let mut relevant = 0u64;
            for (syn, size) in &entity_syns {
                let hits =
                    workload.iter().filter(|q| !q.is_disjoint(syn)).count() as u64;
                relevant += hits * size;
            }
            let mut read = 0u64;
            let mut touched_total = 0u64;
            for q in workload {
                for (syn, size) in &parts {
                    if !q.is_disjoint(syn) {
                        read += size + advisor.union_cost_cells;
                        touched_total += 1;
                    }
                }
            }
            let score = if read == 0 { 1.0 } else { relevant as f64 / read as f64 };
            let partitions_touched = if workload.is_empty() {
                0.0
            } else {
                touched_total as f64 / workload.len() as f64
            };
            candidates.push(CandidateScore {
                weight: w,
                capacity: b,
                partitions: cindy.catalog().len(),
                efficiency,
                partitions_touched,
                score,
            });
        }
    }
    candidates.sort_by(|a, b| b.score.total_cmp(&a.score));
    let best = candidates
        .first()
        .ok_or(CoreError::Invariant("advisor scored no candidates"))?;
    Ok(Recommendation {
        weight: best.weight,
        capacity: best.capacity,
        candidates,
    })
}

fn main() {
    // The full data set and its workload.
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: FULL,
        ..DbpediaConfig::default()
    });
    let mut table = UniversalTable::new(256);
    let entities = gen.generate(table.catalog_mut());
    let universe = table.universe();
    let specs = {
        let all = WorkloadBuilder::default().build(universe, &entities);
        WorkloadBuilder::representatives(&all, &WorkloadBuilder::default_edges(), 3)
    };
    let workload: Vec<Synopsis> = specs
        .iter()
        .map(|s| Synopsis::from_attrs(universe, s.attrs.iter().copied()))
        .collect();

    // Advise on the first SAMPLE entities (a prefix is what an operator
    // actually has before the load).
    let t0 = std::time::Instant::now();
    let rec = recommend(
        &entities[..SAMPLE],
        universe,
        &workload,
        &AdvisorConfig::default(),
    )
    .expect("non-empty sample and default grid");
    println!(
        "advisor scored {} candidates on a {SAMPLE}-entity sample in {:.1?}:\n",
        rec.candidates.len(),
        t0.elapsed()
    );
    println!(
        "{:>6} {:>8} {:>11} {:>11} {:>9} {:>8}",
        "w", "B", "partitions", "efficiency", "touched", "score"
    );
    for c in rec.candidates.iter().take(8) {
        println!(
            "{:>6} {:>8} {:>11} {:>11.4} {:>9.1} {:>8.4}",
            c.weight, c.capacity, c.partitions, c.efficiency, c.partitions_touched, c.score
        );
    }
    println!("\nrecommendation: w = {}, B = {}", rec.weight, rec.capacity);

    // Load the full data set with the recommendation and with a deliberately
    // bad configuration, and compare.
    let run = |label: &str, w: f64, b: u64| {
        let mut table = UniversalTable::new(256);
        let entities = gen.generate(table.catalog_mut());
        let mut cindy = Cinderella::new(Config {
            weight: w,
            capacity: b,
            ..Config::default()
        });
        for e in entities {
            cindy.insert(&mut table, e).expect("insert");
        }
        let eff = efficiency(&table, &cindy, &workload);
        println!(
            "{label:<14} w={w:<4} B={b:<6} → {:>5} partitions, efficiency {eff:.4}",
            cindy.catalog().len()
        );
        eff
    };
    println!("\nfull load ({FULL} entities):");
    let recommended = run("recommended", rec.weight, rec.capacity);
    let worst = rec.candidates.last().expect("non-empty");
    let baseline = run("worst scored", worst.weight, worst.capacity);
    assert!(
        recommended >= baseline,
        "the recommendation must not lose to the worst candidate"
    );
    println!("\nthe sample-based recommendation held up on the full data ✓");
}
