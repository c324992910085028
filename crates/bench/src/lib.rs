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
//! | `ablations` | extensions: synopsis modes, baselines, merge, drift |
//!
//! Every binary accepts `--entities N`, `--seed S`, `--runs R`,
//! `--pool PAGES`, and `--csv DIR` (write the series as CSV files), and
//! prints fixed-width tables mirroring the paper's artifacts.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use cind_baselines::Partitioner;
use cind_datagen::{DbpediaConfig, DbpediaGenerator, QuerySpec, WorkloadBuilder};
use cind_model::Entity;
use cind_query::{execute, plan, Query};
use cind_storage::{StorageError, UniversalTable};
use cinderella_core::{Cinderella, Config, CoreError};

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
            csv_dir: None,
        }
    }
}

/// The flags every harness binary takes.
const USAGE: &str = "flags: --entities N --seed S --runs R --pool PAGES --csv DIR";

impl ExperimentEnv {
    /// Parses `--entities`, `--seed`, `--runs`, `--pool`, `--csv` from the
    /// process arguments. `--help` prints the flags and exits 0; a flag
    /// that is unknown, has no value or has a bad one prints what was wrong
    /// and the flags, and exits 2.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(Some(env)) => env,
            Ok(None) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(what) => {
                eprintln!("error: {what}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The environment `args` describe; `None` when they ask for help.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Self>, String> {
        fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
            raw.parse().map_err(|_| format!("bad value for {flag}: {raw}"))
        }
        let mut env = Self::default();
        while let Some(flag) = args.next() {
            if flag == "--help" || flag == "-h" {
                return Ok(None);
            }
            let mut value = || args.next().ok_or_else(|| format!("missing value for {flag}"));
            match flag.as_str() {
                "--entities" => env.entities = number(&flag, &value()?)?,
                "--seed" => env.seed = number(&flag, &value()?)?,
                "--runs" => env.runs = number(&flag, &value()?)?,
                "--pool" => env.pool_pages = number(&flag, &value()?)?,
                "--csv" => env.csv_dir = Some(value()?.into()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Some(env))
    }

    /// Writes `table` to `<csv_dir>/<name>.csv` when CSV output is on.
    ///
    /// # Errors
    /// The directory cannot be created or the file cannot be written.
    pub fn maybe_csv(&self, name: &str, table: &cind_metrics::Table) -> std::io::Result<()> {
        if let Some(dir) = &self.csv_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{name}.csv"));
            table.write_csv(&path)?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
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
        capacity: b,
        ..Config::default()
    })
}

/// Loads `entities` through `policy`, returning the wall-clock load time.
///
/// # Errors
/// Whatever the policy's load reports.
pub fn load(
    policy: &mut dyn Partitioner,
    table: &mut UniversalTable,
    entities: Vec<Entity>,
) -> Result<Duration, CoreError> {
    let t0 = Instant::now();
    policy.load(table, entities)?;
    Ok(t0.elapsed())
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
///
/// # Errors
/// A storage error from a scan.
pub fn measure_queries(
    table: &UniversalTable,
    policy: &dyn Partitioner,
    specs: &[QuerySpec],
    runs: usize,
) -> Result<Vec<QueryPoint>, StorageError> {
    let view = policy.pruning_view();
    let universe = table.universe();
    specs
        .iter()
        .map(|spec| {
            let query = Query::from_attrs(universe, spec.attrs.iter().copied());
            let p = plan(&query, view.iter().map(|(s, syn, _)| (*s, syn)));
            // Warm-up run, then measured runs.
            let mut rows = 0;
            let mut total_time = Duration::ZERO;
            let mut total_pages = 0u64;
            let mut read = 0;
            let mut pruned = 0;
            for i in 0..=runs {
                let r = execute(table, &query, &p)?;
                if i == 0 {
                    continue;
                }
                rows = r.rows;
                total_time += r.duration;
                total_pages += r.io.logical_reads;
                read = r.segments_read;
                pruned = r.segments_pruned;
            }
            Ok(QueryPoint {
                selectivity: spec.selectivity,
                time: total_time / runs as u32,
                pages: total_pages as f64 / runs as f64,
                rows,
                read,
                pruned,
            })
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
        let load_time = load(&mut cindy, &mut table, entities.clone()).unwrap();
        assert!(load_time > Duration::ZERO);
        assert_eq!(table.entity_count(), 2_000);

        let mut universal_table = UniversalTable::new(env.pool_pages);
        let entities2 = dbpedia_dataset(&env, &mut universal_table);
        let mut universal = Unpartitioned::new();
        load(&mut universal, &mut universal_table, entities2).unwrap();

        let cindy_points = measure_queries(&table, &cindy, &specs, env.runs).unwrap();
        let uni_points = measure_queries(&universal_table, &universal, &specs, env.runs).unwrap();
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
    }

    fn parse(args: &[&str]) -> Result<Option<ExperimentEnv>, String> {
        ExperimentEnv::parse(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_errors_not_panics() {
        let env = parse(&["--entities", "7", "--csv", "out", "--seed", "3"]).unwrap().unwrap();
        assert_eq!((env.entities, env.seed, env.runs), (7, 3, ExperimentEnv::default().runs));
        assert_eq!(env.csv_dir.as_deref(), Some(std::path::Path::new("out")));
        assert!(parse(&["--runs", "2", "--help"]).unwrap().is_none());
        assert_eq!(parse(&["--threads", "4"]).unwrap_err(), "unknown flag --threads");
        assert_eq!(parse(&["--runs"]).unwrap_err(), "missing value for --runs");
        assert_eq!(parse(&["--pool", "many"]).unwrap_err(), "bad value for --pool: many");
    }
}
