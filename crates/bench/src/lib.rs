//! Shared scaffolding for the experiment harness binaries.
//!
//! One binary per figure/table of the paper (see DESIGN.md §4):
//!
//! | binary   | regenerates |
//! |----------|-------------|
//! | `fig4`   | Fig. 4 — DBpedia attribute distributions |
//! | `fig5`   | Fig. 5 — query time vs selectivity for B ∈ {500, 5000, 50000} |
//! | `fig6`   | Fig. 6 — query time vs selectivity for w ∈ {0.0, 0.2, 0.5, 0.8} |
//! | `fig7`   | Fig. 7 — influence of w on the partitioning |
//! | `fig8`   | Fig. 8 — insert latency histograms and split counts |
//! | `table1` | Table I — TPC-H schema recovery and query overhead |
//! | `ablations` | extensions: synopsis modes, baselines, merge, bulk load, drift |
//!
//! Every binary accepts `--entities N`, `--seed S`, `--runs R`,
//! `--pool PAGES`, `--threads T` (fan surviving `UNION ALL` branches over
//! `T` workers; 1 = the paper's sequential scans), and `--csv DIR` (write
//! the series as CSV files), and prints fixed-width tables mirroring the
//! paper's artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use cind_baselines::Partitioner;
use cind_datagen::{DbpediaConfig, DbpediaGenerator, QuerySpec, WorkloadBuilder};
use cind_model::Entity;
use cind_query::{execute, plan_with, Parallelism, Query};
use cind_storage::UniversalTable;
use cinderella_core::{Capacity, Cinderella, Config};

/// Command-line knobs shared by all harness binaries.
#[derive(Clone, Debug)]
pub struct ExperimentEnv {
    /// Entity count for generated datasets (default 100 000, the paper's).
    pub entities: usize,
    /// RNG seed.
    pub seed: u64,
    /// Repetitions per query measurement.
    pub runs: usize,
    /// Buffer-pool pages (small relative to the data, so scans miss).
    pub pool_pages: usize,
    /// Worker threads for query execution (1 = the paper's sequential
    /// scans; >1 fans surviving `UNION ALL` branches over a pool).
    pub threads: usize,
    /// Directory for CSV output (`None` = console only).
    pub csv_dir: Option<std::path::PathBuf>,
}

impl Default for ExperimentEnv {
    fn default() -> Self {
        Self {
            entities: 100_000,
            seed: 0xC1DE,
            runs: 3,
            pool_pages: 256,
            threads: 1,
            csv_dir: None,
        }
    }
}

impl ExperimentEnv {
    /// Parses `--entities`, `--seed`, `--runs`, `--pool`, `--threads`,
    /// `--csv` from the process arguments; unknown flags abort with a
    /// usage message.
    pub fn from_args() -> Self {
        let mut env = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--entities" => env.entities = value("--entities").parse().expect("usize"),
                "--seed" => env.seed = value("--seed").parse().expect("u64"),
                "--runs" => env.runs = value("--runs").parse().expect("usize"),
                "--pool" => env.pool_pages = value("--pool").parse().expect("usize"),
                "--threads" => env.threads = value("--threads").parse().expect("usize"),
                "--csv" => env.csv_dir = Some(value("--csv").into()),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --entities N --seed S --runs R --pool PAGES --threads T \
                         --csv DIR"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        env
    }

    /// The execution strategy the flags ask for.
    pub fn parallelism(&self) -> Parallelism {
        if self.threads <= 1 {
            Parallelism::Sequential
        } else {
            Parallelism::Threads(self.threads)
        }
    }

    /// Writes `table` to `<csv_dir>/<name>.csv` when CSV output is on.
    pub fn maybe_csv(&self, name: &str, table: &cind_metrics::Table) {
        if let Some(dir) = &self.csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{name}.csv"));
            table.write_csv(&path).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Generates the DBpedia-like dataset into a fresh table's catalog.
pub fn dbpedia_dataset(env: &ExperimentEnv, table: &mut UniversalTable) -> Vec<Entity> {
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: env.entities,
        seed: env.seed,
        ..DbpediaConfig::default()
    });
    gen.generate(table.catalog_mut())
}

/// A Cinderella instance configured like the paper's experiments.
pub fn cinderella(b: u64, w: f64) -> Cinderella {
    Cinderella::new(Config {
        weight: w,
        capacity: Capacity::MaxEntities(b),
        ..Config::default()
    })
}

/// Loads `entities` through `policy`, returning the wall-clock load time.
pub fn load(
    policy: &mut dyn Partitioner,
    table: &mut UniversalTable,
    entities: Vec<Entity>,
) -> Duration {
    let t0 = Instant::now();
    policy
        .load(table, entities)
        .expect("load must succeed on generated data");
    t0.elapsed()
}

/// The representative query set of §V-B: all candidates binned by
/// selectivity, three per bin.
pub fn representative_queries(universe: usize, entities: &[Entity]) -> Vec<QuerySpec> {
    let builder = WorkloadBuilder::default();
    let specs = builder.build(universe, entities);
    WorkloadBuilder::representatives(&specs, &WorkloadBuilder::default_edges(), 3)
}

/// One measured point of a Fig. 5/6 series.
#[derive(Clone, Debug)]
pub struct QueryPoint {
    /// The query's selectivity (x-axis).
    pub selectivity: f64,
    /// Mean execution wall time over the runs.
    pub time: Duration,
    /// Mean logical page reads.
    pub pages: f64,
    /// Rows returned (identical across configurations — checked).
    pub rows: u64,
    /// Partitions scanned / pruned.
    pub read: usize,
    /// Partitions pruned.
    pub pruned: usize,
}

/// Runs each representative query `runs` times against `table` through the
/// policy's pruning view; returns one point per query, in spec order.
/// Sequential execution — the paper's configuration.
pub fn measure_queries(
    table: &UniversalTable,
    policy: &dyn Partitioner,
    specs: &[QuerySpec],
    runs: usize,
) -> Vec<QueryPoint> {
    measure_queries_with(table, policy, specs, runs, Parallelism::Sequential)
}

/// [`measure_queries`] with an explicit execution strategy (the
/// `--threads` knob). Aggregates are strategy-independent; only timing and
/// hit ratios move.
pub fn measure_queries_with(
    table: &UniversalTable,
    policy: &dyn Partitioner,
    specs: &[QuerySpec],
    runs: usize,
    parallelism: Parallelism,
) -> Vec<QueryPoint> {
    let view = policy.pruning_view();
    let universe = table.universe();
    specs
        .iter()
        .map(|spec| {
            let query = Query::from_attrs(universe, spec.attrs.iter().copied());
            let p = plan_with(
                &query,
                view.iter().map(|(s, syn, _)| (*s, syn)),
                parallelism,
            );
            // Warm-up run, then measured runs.
            let mut rows = 0;
            let mut total_time = Duration::ZERO;
            let mut total_pages = 0u64;
            let mut read = 0;
            let mut pruned = 0;
            for i in 0..=runs {
                let r = execute(table, &query, &p).expect("plan segments are live");
                if i == 0 {
                    continue;
                }
                rows = r.rows;
                total_time += r.duration;
                total_pages += r.io.logical_reads;
                read = r.segments_read;
                pruned = r.segments_pruned;
            }
            QueryPoint {
                selectivity: spec.selectivity,
                time: total_time / runs as u32,
                pages: total_pages as f64 / runs as f64,
                rows,
                read,
                pruned,
            }
        })
        .collect()
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_baselines::Unpartitioned;

    #[test]
    fn small_end_to_end_pipeline() {
        let env = ExperimentEnv {
            entities: 2_000,
            runs: 1,
            ..ExperimentEnv::default()
        };
        let mut table = UniversalTable::new(env.pool_pages);
        let entities = dbpedia_dataset(&env, &mut table);
        assert_eq!(entities.len(), 2_000);
        let specs = representative_queries(table.universe(), &entities);
        assert!(!specs.is_empty());

        let mut cindy = cinderella(500, 0.5);
        let load_time = load(&mut cindy, &mut table, entities.clone());
        assert!(load_time > Duration::ZERO);
        assert_eq!(table.entity_count(), 2_000);

        let mut universal_table = UniversalTable::new(env.pool_pages);
        let entities2 = dbpedia_dataset(&env, &mut universal_table);
        let mut universal = Unpartitioned::new();
        load(&mut universal, &mut universal_table, entities2);

        let cindy_points = measure_queries(&table, &cindy, &specs, env.runs);
        let uni_points = measure_queries(&universal_table, &universal, &specs, env.runs);
        // Same answers, fewer pages for selective queries under Cinderella.
        for (c, u) in cindy_points.iter().zip(&uni_points) {
            assert_eq!(c.rows, u.rows, "partitioning must not change answers");
        }
        let selective: Vec<(&QueryPoint, &QueryPoint)> = cindy_points
            .iter()
            .zip(&uni_points)
            .filter(|(c, _)| c.selectivity < 0.1)
            .collect();
        assert!(!selective.is_empty());
        let c_pages: f64 = selective.iter().map(|(c, _)| c.pages).sum();
        let u_pages: f64 = selective.iter().map(|(_, u)| u.pages).sum();
        assert!(
            c_pages < u_pages,
            "selective queries must read fewer pages with Cinderella ({c_pages} vs {u_pages})"
        );

        // Parallel measurement returns the same answers and pruning.
        let par_points =
            measure_queries_with(&table, &cindy, &specs, env.runs, Parallelism::Threads(4));
        for (s, p) in cindy_points.iter().zip(&par_points) {
            assert_eq!(s.rows, p.rows, "threads must not change answers");
            assert_eq!(s.read, p.read);
            assert_eq!(s.pruned, p.pruned);
        }
    }

    #[test]
    fn env_parallelism_maps_threads() {
        let env = ExperimentEnv::default();
        assert_eq!(env.parallelism(), Parallelism::Sequential);
        let env = ExperimentEnv { threads: 4, ..ExperimentEnv::default() };
        assert_eq!(env.parallelism(), Parallelism::Threads(4));
    }
}
