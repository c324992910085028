//! The CLI's verbs as library functions.

use std::path::Path;

use cind_model::{AttributeCatalog, Value};
use cind_query::{execute_collect, plan_from_survivors, Query};
use cind_storage::{PersistError, StorageError, UniversalTable, DEFAULT_POOL_PAGES};
use cind_server::{EngineOptions, LoadConfig, ServeConfig, Server, ServerError};
use cinderella_core::{Cinderella, Config, CoreError, IndexTier, SynopsisMode};

use crate::csv::{parse_entities, CsvError};

/// Errors surfaced to the user, with context.
#[derive(Debug)]
pub enum CliError {
    /// File I/O failed.
    Io(std::io::Error),
    /// The input CSV was malformed.
    Csv(CsvError),
    /// Snapshot (de)serialisation failed.
    Persist(PersistError),
    /// The partitioner failed.
    Core(CoreError),
    /// The storage engine failed.
    Storage(StorageError),
    /// The serving layer failed (bind, protocol, or remote error).
    Server(ServerError),
    /// Bad command-line usage; the payload is the message.
    Usage(String),
    /// Deep validation (`cind check`) found structural invariant
    /// violations; the payload is the rendered diagnostics, one per line.
    Invariant(String),
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError::$variant(e)
            }
        }
    };
}
from_err!(Io, std::io::Error);
from_err!(Csv, CsvError);
from_err!(Persist, PersistError);
from_err!(Core, CoreError);
from_err!(Storage, StorageError);
from_err!(Server, ServerError);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::Csv(e) => write!(f, "csv: {e}"),
            CliError::Persist(e) => write!(f, "snapshot: {e}"),
            CliError::Core(e) => write!(f, "partitioner: {e}"),
            CliError::Storage(e) => write!(f, "storage: {e}"),
            CliError::Server(e) => write!(f, "server: {e}"),
            CliError::Usage(msg) => write!(f, "usage: {msg}"),
            CliError::Invariant(report) => {
                write!(f, "invariant violations:\n{report}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The `--mode` flag: which synopsis space rates entities (§II).
///
/// Workload mode carries the workload itself as attribute-name queries,
/// resolved against the catalog once the input's schema is known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModeSpec {
    /// Rating synopsis = the entity's attribute set (the default).
    Entity,
    /// Rating synopsis = relevant workload queries; each inner vec is one
    /// query's attribute names.
    Workload(Vec<Vec<String>>),
}

impl std::str::FromStr for ModeSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "entity" {
            return Ok(Self::Entity);
        }
        let Some(spec) = s.strip_prefix("workload:") else {
            return Err(format!(
                "bad mode {s:?}; use entity or workload:a,b;c,d (queries \
                 split by `;`, attributes by `,`)"
            ));
        };
        let queries: Vec<Vec<String>> = spec
            .split(';')
            .map(|q| {
                q.split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(str::to_owned)
                    .collect()
            })
            .filter(|q: &Vec<String>| !q.is_empty())
            .collect();
        if queries.is_empty() {
            return Err("workload mode needs at least one query, e.g. workload:a,b".into());
        }
        Ok(Self::Workload(queries))
    }
}

impl ModeSpec {
    /// Resolves the spec against a concrete attribute catalog.
    fn resolve(&self, catalog: &AttributeCatalog) -> Result<SynopsisMode, CliError> {
        match self {
            ModeSpec::Entity => Ok(SynopsisMode::EntityBased),
            ModeSpec::Workload(queries) => {
                let synopses = queries
                    .iter()
                    .map(|q| {
                        Query::from_names(catalog, q.iter().map(String::as_str))
                            .map(|query| query.synopsis().clone())
                            .ok_or_else(|| {
                                CliError::Usage(format!(
                                    "--mode workload query {q:?} names an attribute \
                                     absent from the input"
                                ))
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(SynopsisMode::WorkloadBased(synopses))
            }
        }
    }
}

/// Options of [`load`]: the partitioner's own [`Config`], plus what a load
/// needs that `Config` does not hold.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Partitioner knobs: weight, capacity, size model, tier.
    pub config: Config,
    /// Entity-based or workload-based rating synopses, resolved against the
    /// catalog once the input is read; `None` keeps `config.mode`.
    pub mode: Option<ModeSpec>,
    /// Buffer-pool pages for the load.
    pub pool_pages: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            config: Config::default(),
            mode: None,
            pool_pages: DEFAULT_POOL_PAGES,
        }
    }
}

/// The partitioner config of a `cind load`: the mode resolved, and a knob
/// out of range a usage error naming it, not the constructor's panic.
fn config_of(opts: &LoadOptions, catalog: &AttributeCatalog) -> Result<Config, CliError> {
    let mut config = opts.config.clone();
    if let Some(mode) = &opts.mode {
        config.mode = mode.resolve(catalog)?;
    }
    config.validate().map_err(|why| CliError::Usage(why.to_string()))?;
    Ok(config)
}

/// `cind load`: parse a CSV of irregular entities, partition it with
/// Cinderella, write a snapshot, and return a human-readable report.
///
/// # Errors
/// CSV, I/O, partitioner, and snapshot errors.
pub fn load(input: &Path, snapshot: &Path, opts: &LoadOptions) -> Result<String, CliError> {
    let text = std::fs::read_to_string(input)?;
    let mut table = UniversalTable::new(opts.pool_pages);
    let entities = parse_entities(&text, table.catalog_mut())?;
    let n = entities.len();
    let config = config_of(opts, table.catalog())?;
    let t0 = std::time::Instant::now();
    let mut cindy = Cinderella::new(config);
    for e in entities {
        cindy.insert(&mut table, e)?;
    }
    let elapsed = t0.elapsed();

    let mut out = std::io::BufWriter::new(std::fs::File::create(snapshot)?);
    table.snapshot(&mut out)?;
    drop(out);

    let stats = cindy.stats();
    Ok(format!(
        "loaded {n} entities ({} attributes) in {elapsed:.2?}\n\
         partitions: {} ({} splits, {} created)\n\
         snapshot: {}",
        table.universe(),
        cindy.catalog().len(),
        stats.splits,
        stats.partitions_created,
        snapshot.display(),
    ))
}

/// Options of [`query`].
#[derive(Clone, Debug)]
pub struct QueryOptions {
    /// Maximum rows to render (`None` = all).
    pub limit: Option<usize>,
    /// Buffer-pool pages.
    pub pool_pages: usize,
    /// Pruning-index tier (`exact`/`tiered`/`auto`); tiered planning is
    /// superset-sound, so the rendered rows are identical either way.
    pub tier: IndexTier,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            limit: Some(20),
            pool_pages: DEFAULT_POOL_PAGES,
            tier: IndexTier::default(),
        }
    }
}

/// Restores `snapshot` and rebuilds its partitioning. A snapshot does not
/// record the knobs it was loaded with, so the rebuild runs under
/// [`Config::default`], with the pruning index stored as `tier`.
fn open_snapshot(
    snapshot: &Path,
    pool_pages: usize,
    tier: IndexTier,
) -> Result<(UniversalTable, Cinderella), CliError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(snapshot)?);
    let table = UniversalTable::restore(&mut file, pool_pages)?;
    let cindy = Cinderella::rebuild(&table, Config { tier, ..Config::default() })?;
    Ok((table, cindy))
}

fn render_value(v: &Option<Value>) -> String {
    v.as_ref().map_or_else(|| "∅".to_owned(), Value::to_string)
}

/// `cind query`: restore a snapshot, rebuild the pruning catalog, and run
/// one `SELECT attrs WHERE … IS NOT NULL OR …` query. Returns the rendered
/// result table plus the pruning report.
///
/// # Errors
/// Unknown attribute names are a usage error; plus snapshot/storage errors.
pub fn query(
    snapshot: &Path,
    attrs: &[&str],
    opts: &QueryOptions,
) -> Result<String, CliError> {
    if attrs.is_empty() {
        return Err(CliError::Usage("query needs --attrs a,b,…".into()));
    }
    let (table, cindy) = open_snapshot(snapshot, opts.pool_pages, opts.tier)?;

    let q = Query::from_names(table.catalog(), attrs.iter().copied()).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown attribute among {:?}; try `cind stats` for the schema",
            attrs
        ))
    })?;
    // Survivor set from the catalog's pruning index.
    let (segments, pruned) = cindy.catalog().survivors(q.synopsis());
    let p = plan_from_survivors(segments, pruned);
    let (result, rows) = execute_collect(&table, &q, &p)?;

    let mut t = cind_metrics::Table::new(
        std::iter::once("id".to_owned()).chain(attrs.iter().map(|a| (*a).to_owned())),
    );
    // execute_collect drops ids; re-project with ids via a second pass kept
    // simple: render from the collected rows (ids are not part of the
    // paper's query form, so we show a row counter instead).
    let shown = opts.limit.unwrap_or(rows.len()).min(rows.len());
    for (i, row) in rows.iter().take(shown).enumerate() {
        let mut cells = vec![format!("#{i}")];
        cells.extend(row.iter().map(render_value));
        t.row(cells);
    }
    let mut out = t.render();
    if shown < rows.len() {
        out.push_str(&format!("\n… {} more rows", rows.len() - shown));
    }
    out.push_str(&format!(
        "\n{} rows; scanned {} of {} partitions ({} pruned); {} pages read in {:.2?}",
        result.rows,
        result.segments_read,
        result.segments_read + result.segments_pruned,
        result.segments_pruned,
        result.io.logical_reads,
        result.duration,
    ));
    Ok(out)
}

/// `cind stats`: restore a snapshot and describe the table and its
/// partitioning.
///
/// # Errors
/// Snapshot and storage errors.
pub fn stats(snapshot: &Path, pool_pages: usize) -> Result<String, CliError> {
    let (table, cindy) = open_snapshot(snapshot, pool_pages, IndexTier::default())?;

    let mut out = format!(
        "entities: {}\nattributes: {}\npartitions: {}\n\nper-partition:\n",
        table.entity_count(),
        table.universe(),
        cindy.catalog().len(),
    );
    let mut t = cind_metrics::Table::new(["partition", "entities", "attrs", "sparseness", "pages"]);
    for meta in cindy.catalog().iter() {
        let pages = table.segment(meta.segment)?.page_count();
        t.row([
            meta.segment.to_string(),
            meta.entities.to_string(),
            meta.attr_synopsis.cardinality().to_string(),
            format!("{:.3}", meta.sparseness()),
            pages.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n\nattributes: ");
    let names: Vec<&str> = table.catalog().iter().map(|(_, n)| n).collect();
    out.push_str(&names.join(", "));
    Ok(out)
}

/// `cind merge`: restore, run a merge pass at `threshold`, and write the
/// (re-partitioned) snapshot back.
///
/// # Errors
/// A threshold outside (0, 1] is a usage error; plus snapshot, storage,
/// and partitioner errors.
pub fn merge(snapshot: &Path, threshold: f64, pool_pages: usize) -> Result<String, CliError> {
    let (mut table, mut cindy) = open_snapshot(snapshot, pool_pages, IndexTier::default())?;
    let before = cindy.catalog().len();
    let report = cindy
        .merge_pass(&mut table, threshold)
        .map_err(|e| match e {
            CoreError::MergeThreshold => {
                CliError::Usage(format!("threshold must be in (0, 1], got {threshold}"))
            }
            other => CliError::Core(other),
        })?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(snapshot)?);
    table.snapshot(&mut out)?;
    Ok(format!(
        "merge pass at threshold {threshold}: {} → {} partitions \
         ({} merges, {} entities moved, {} kept)",
        before,
        before - report.merges as usize,
        report.merges,
        report.entities_moved,
        report.kept,
    ))
}

/// `cind check`: restore a snapshot, rebuild the partitioning catalog, and
/// run the full structural validation — arena/free-list consistency,
/// presence-bitmap refcounts, partition synopses vs. the stored entities,
/// split-starter membership, segment accounting. Returns a short clean
/// report, or [`CliError::Invariant`] listing every violation.
///
/// This is the release-build entry to the same checks `debug_assertions`
/// builds run at every split/merge/relayout boundary.
///
/// # Errors
/// Snapshot/storage errors, and [`CliError::Invariant`] on violations.
pub fn check(snapshot: &Path, pool_pages: usize) -> Result<String, CliError> {
    let (table, cindy) = open_snapshot(snapshot, pool_pages, IndexTier::default())?;
    let violations = cindy.validate(&table)?;
    if violations.is_empty() {
        Ok(format!(
            "ok: {} entities in {} partitions, all structural invariants hold\n\
             (arena, pruning index, catalog refcounts, starters, segment accounting)",
            table.entity_count(),
            cindy.catalog().len(),
        ))
    } else {
        Err(CliError::Invariant(cinderella_core::validate::render(&violations)))
    }
}

/// `cind serve`: open (or create) a store directory and serve it over the
/// wire protocol until a client sends `Shutdown` (or the process is
/// signalled). Prints the `listening on 127.0.0.1:PORT` line *before*
/// blocking so harnesses can wait for readiness, then performs the
/// graceful drain — WAL flush, checkpoint snapshot, full validation — and
/// reports the outcome.
///
/// # Errors
/// Bind/storage failures, and [`CliError::Invariant`] if the post-drain
/// validation finds structural defects.
pub fn serve(store: &Path, cfg: &ServeConfig) -> Result<String, CliError> {
    use std::io::Write as _;
    let opts = cind_server::ShardedOptions::new(
        EngineOptions::from_serve(cfg),
        cfg.effective_shards(),
    );
    let engine = std::sync::Arc::new(cind_server::ShardedEngine::open(store, opts)?);
    let handle = Server::start(engine, cfg)?;
    println!("listening on 127.0.0.1:{}", handle.port());
    std::io::stdout().flush()?;
    let report = handle.join()?;
    if report.violations.is_empty() {
        Ok("shutdown clean: drained, WAL flushed, checkpoint written, \
            all structural invariants hold"
            .to_string())
    } else {
        Err(CliError::Invariant(report.violations.join("\n")))
    }
}

/// `cind workload --remote HOST:PORT`: drive the closed-loop load
/// generator against a running `cind serve`, report throughput,
/// admission-control sheds, and per-operation latency percentiles, then,
/// with `shutdown`, send the server a graceful `Shutdown`.
///
/// # Errors
/// A knob the stream generator cannot take ([`LoadConfig::validate`]) is a
/// usage error, raised before connecting; connection failures; remote
/// errors during the run are counted in the report, not raised.
pub fn workload(remote: &str, cfg: &LoadConfig, shutdown: bool) -> Result<String, CliError> {
    cfg.validate().map_err(CliError::Usage)?;
    let mut report = cind_server::run_load(remote, cfg)?;
    let mut out = report.render();
    if shutdown {
        cind_server::Client::connect(remote)?.shutdown()?;
        out.push_str("shutdown requested\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::SizeModel;

    /// Load options at rating weight `weight` and capacity `b` entities.
    fn knobs(weight: f64, b: u64) -> LoadOptions {
        LoadOptions {
            config: Config { weight, capacity: b, ..Config::default() },
            ..LoadOptions::default()
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cind_cli_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn load_query_stats_cycle() {
        let input = tmp("devices.csv");
        std::fs::write(
            &input,
            "id,name,resolution,rotation,formFactor\n\
             1,Canon S120,12.1,,\n\
             2,Sony A99,24,,\n\
             3,WD4000,,7200,\"3.5 inch\"\n\
             4,Seagate X,,5400,\"2.5 inch\"\n",
        )
        .unwrap();
        let snap = tmp("devices.cind");
        let report = load(&input, &snap, &knobs(0.3, 100)).unwrap();
        assert!(report.contains("loaded 4 entities"), "{report}");
        assert!(report.contains("partitions: 2"), "{report}");

        let out = query(&snap, &["rotation"], &QueryOptions::default()).unwrap();
        assert!(out.contains("2 rows"), "{out}");
        assert!(out.contains("(1 pruned)"), "{out}");
        assert!(out.contains("7200"), "{out}");

        // Both index storages plan the same rows and the same pruning:
        // the exact report above is the oracle for the tiered one.
        let tiered = query(
            &snap,
            &["rotation"],
            &QueryOptions { tier: IndexTier::Tiered, ..QueryOptions::default() },
        )
        .unwrap();
        let strip_timing = |s: &str| {
            s.lines()
                .map(|l| l.split("; ").take(2).collect::<Vec<_>>().join("; "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip_timing(&out), strip_timing(&tiered));

        let s = stats(&snap, 64).unwrap();
        assert!(s.contains("entities: 4"), "{s}");
        assert!(s.contains("partitions: 2"), "{s}");
        assert!(s.contains("formFactor"), "{s}");
    }

    #[test]
    fn mode_spec_parses() {
        assert_eq!("entity".parse::<ModeSpec>().unwrap(), ModeSpec::Entity);
        assert_eq!(
            "workload:a,b;c".parse::<ModeSpec>().unwrap(),
            ModeSpec::Workload(vec![
                vec!["a".to_owned(), "b".to_owned()],
                vec!["c".to_owned()]
            ])
        );
        assert!("workload:".parse::<ModeSpec>().is_err());
        assert!("Entity".parse::<ModeSpec>().is_err());
    }

    #[test]
    fn load_honours_mode_and_size_model() {
        let input = tmp("modes.csv");
        std::fs::write(
            &input,
            "id,a,b,c\n1,1,2,\n2,3,4,\n3,,,5\n4,,,6\n",
        )
        .unwrap();
        let snap = tmp("modes.cind");
        let mut opts = knobs(0.3, 100);
        opts.config.size_model = SizeModel::Bytes;
        opts.mode = Some("workload:a,b;c".parse().unwrap());
        let report = load(&input, &snap, &opts).unwrap();
        assert!(report.contains("loaded 4 entities"), "{report}");
        assert!(report.contains("(0 splits, 2 created)"), "{report}");

        // A workload query naming an unknown attribute is a usage error.
        let err = load(
            &input,
            &snap,
            &LoadOptions { mode: Some("workload:nope".parse().unwrap()), ..LoadOptions::default() },
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    /// Loads a one-row CSV with `opts`, expecting the usage error `want`.
    fn assert_load_usage_error(name: &str, opts: &LoadOptions, want: &str) {
        let input = tmp(&format!("{name}.csv"));
        std::fs::write(&input, "id,a\n1,1\n").unwrap();
        let err = load(&input, &tmp(&format!("{name}.cind")), opts).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg == want), "{err:?}");
    }

    #[test]
    fn out_of_range_weight_is_a_usage_error() {
        assert_load_usage_error(
            "weight",
            &knobs(1.5, 5_000),
            "weight w must be in [0, 1], got 1.5",
        );
    }

    #[test]
    fn one_entity_capacity_is_a_usage_error() {
        assert_load_usage_error(
            "capacity",
            &knobs(0.2, 1),
            "capacity must allow at least two entities per partition, got 1",
        );
    }

    #[test]
    fn out_of_range_merge_threshold_is_a_usage_error() {
        let input = tmp("threshold.csv");
        std::fs::write(&input, "id,a,b\n1,1,\n2,,2\n").unwrap();
        let snap = tmp("threshold.cind");
        load(&input, &snap, &LoadOptions::default()).unwrap();
        let bytes = std::fs::read(&snap).unwrap();
        for threshold in [0.0, 1.5, f64::NAN] {
            let err = merge(&snap, threshold, 64).unwrap_err();
            let want = format!("threshold must be in (0, 1], got {threshold}");
            assert!(matches!(&err, CliError::Usage(msg) if *msg == want), "{err:?}");
        }
        assert_eq!(std::fs::read(&snap).unwrap(), bytes, "snapshot left as it was");
        assert!(merge(&snap, 1.0, 64).is_ok());
    }

    #[test]
    fn too_few_workload_attributes_is_a_usage_error_before_connecting() {
        use cind_server::DriftMode;
        // Nothing listens on port 1: a connect attempt would be an io error.
        let cfg = LoadConfig { attributes: 15, ..LoadConfig::default() };
        let err = workload("127.0.0.1:1", &cfg, false).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg)
                if msg == "attributes must be at least 16 for the steady stream, got 15"),
            "{err:?}"
        );
        assert!(LoadConfig { attributes: 16, ..LoadConfig::default() }.validate().is_ok());
        // The drift modes do not read `attributes`.
        let drift = LoadConfig { attributes: 4, mode: DriftMode::Drift, ..LoadConfig::default() };
        assert!(drift.validate().is_ok());
    }

    #[test]
    fn check_command_validates_a_snapshot() {
        let input = tmp("check.csv");
        std::fs::write(&input, "id,a,b\n1,1,\n2,,2\n3,3,\n").unwrap();
        let snap = tmp("check.cind");
        load(&input, &snap, &LoadOptions::default()).unwrap();
        let report = check(&snap, 64).unwrap();
        assert!(report.contains("all structural invariants hold"), "{report}");
        assert!(report.contains("3 entities"), "{report}");

        // A header-only input loads as an empty, valid table.
        std::fs::write(&input, "id,a,b\n").unwrap();
        let loaded = load(&input, &snap, &LoadOptions::default()).unwrap();
        assert!(loaded.contains("partitions: 0 (0 splits, 0 created)"), "{loaded}");
        let report = check(&snap, 64).unwrap();
        assert!(report.contains("ok: 0 entities in 0 partitions"), "{report}");
    }

    #[test]
    fn query_unknown_attribute_is_usage_error() {
        let input = tmp("small.csv");
        std::fs::write(&input, "id,a\n1,1\n").unwrap();
        let snap = tmp("small.cind");
        load(&input, &snap, &LoadOptions::default()).unwrap();
        assert!(matches!(
            query(&snap, &["nope"], &QueryOptions::default()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            query(&snap, &[], &QueryOptions::default()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn merge_command_rewrites_snapshot() {
        // Many same-shape tiny partitions via a tiny capacity, then merge
        // with a bigger default config at rebuild time? Rebuild uses the
        // default capacity (5000), so all the small partitions become
        // merge candidates.
        let input = tmp("frag.csv");
        let mut text = String::from("id,a,b\n");
        for i in 0..50 {
            text.push_str(&format!("{i},1,2\n"));
        }
        std::fs::write(&input, text).unwrap();
        let snap = tmp("frag.cind");
        load(&input, &snap, &knobs(0.3, 5)).unwrap();
        // B = 5 with identical entities fragments into many small
        // partitions (the exact count depends on the split asymmetry).
        let s = stats(&snap, 64).unwrap();
        assert!(!s.contains("partitions: 1\n"), "{s}");
        let report = merge(&snap, 1.0, 64).unwrap();
        assert!(report.contains("→ 1 partitions"), "{report}");
        let s = stats(&snap, 64).unwrap();
        assert!(s.contains("partitions: 1"), "{s}");
        // Data intact after the rewrite.
        let out = query(
            &snap,
            &["a"],
            &QueryOptions { limit: None, pool_pages: 64, ..QueryOptions::default() },
        )
        .unwrap();
        assert!(out.contains("50 rows"), "{out}");
    }
}
