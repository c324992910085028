//! `cind` binary: thin argument parsing over [`cind_cli::commands`].

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use cind_cli::{
    check, load, merge, query, serve, stats, workload, CliError, LoadOptions, QueryOptions,
};
use cind_server::{LoadConfig, ServeConfig};
use cind_storage::DEFAULT_POOL_PAGES;
use cinderella_core::Config;

const USAGE: &str = "\
cind — universal-table manager with Cinderella online partitioning

USAGE:
  cind load  --input DATA.csv --snapshot TABLE.cind
             [--weight W] [--capacity B] [--size-model cells|bytes]
             [--mode entity|workload:a,b;c,d] [--tier exact|tiered|auto]
             [--pool N]
  cind query --snapshot TABLE.cind --attrs a,b,c [--limit N]
             [--tier exact|tiered|auto] [--pool N]
  cind stats --snapshot TABLE.cind [--pool N]
  cind merge --snapshot TABLE.cind [--threshold T] [--pool N]
  cind check --snapshot TABLE.cind [--pool N]
  cind serve --store DIR [--port P] [--queue-depth K] [--pool-pages N]
             [--shards N] [--group-commit-window USEC]
             [--reorg off|auto] [--tier exact|tiered|auto]
  cind workload --remote HOST:PORT [--connections N] [--entities N]
             [--attributes N] [--query-every K] [--seed S]
             [--pipeline K] [--batch N] [--shutdown true|false]
             [--mode steady|drift|flash-crowd|churn]
  cind sim   [--seeds N | --seed N] [--ops N] [--faults all|none]
             [--drift] [--check-every N] [--replay FILE]
             [--save-trace FILE] [--selftest N] [--sweep]

--size-model picks the SIZE() function of Definition 1: instantiated
cells (default) or serialized bytes.
--mode rates entities by their attribute set (entity, default) or by the
relevant queries of a workload given inline (queries split by `;`,
attribute names by `,`).
--tier picks the storage of the pruning index every rating scan and
query plan goes through: exact (one partition-presence bitmap per
attribute, the default) or tiered (blocked
Bloom filter rows per 64-partition group under group summaries —
memory stays bounded at million-partition catalogs, answers are
identical because the approximate tier never produces false negatives);
auto starts exact and ratchets to tiered once the catalog crosses the
partition-count threshold.
--pool sizes the buffer pool in pages.
check restores the snapshot, rebuilds the partitioning, and runs the full
structural invariant validation (exit status 1 on violations).
query, stats, check and merge rebuild the partitioning under the default
partitioner knobs (weight, capacity, size model, mode), because a
snapshot does not record the ones it was loaded with.
serve opens (or creates) a store directory — snapshot + write-ahead log —
and serves it over a length-prefixed binary protocol on loopback until a
client sends Shutdown: --port 0 picks a free port (printed on startup),
each connection's own thread executes the requests it reads,
--queue-depth bounds the requests admitted but not yet answered across
all connections (one more is answered Busy instead of stalling), and
--pool-pages sizes the buffer pool. --shards splits the store into N
independent shards (own writer lock, WAL, and snapshot under
shard-NNNN/); writes hash-route to one shard, queries fan out one scan
per shard, and the on-disk MANIFEST pins the count for the store's
lifetime.
--group-commit-window lets each shard's fsync leader linger that many
microseconds collecting concurrent commits into one WAL append + fsync
(0, the default, syncs every commit individually; durability semantics
are identical either way).
--reorg auto turns on the workload-adaptive background reorganizer: each
shard tracks per-partition scan heat (decayed per epoch) and, between
foreground writes, enacts the single best cost-modeled action — re-split
a hot mixed partition, else merge cold underfull partitions — each
WAL-framed so a crash mid-action recovers to a clean pre- or post-action
state (off, the default, disables stepping entirely).
Sharded stores keep their snapshots at DIR/shard-NNNN/store.cind — point
check/stats/query at those files individually.
workload drives the load generator against a running server: N
connections inserting generated entities with a query every K ops,
reporting throughput, Busy sheds, and latency percentiles (end-to-end
and service time). --pipeline K keeps K requests in flight per
connection instead of the closed loop; --batch N packs N inserts per
wire-level batch frame. --mode switches the stream from the steady
DBpedia workload to a drift scenario: drift rotates the query focus
across attribute groups phase by phase, flash-crowd hammers one hot
attribute pair mid-run, churn mixes Zipf-skewed inserts with deletes —
shapes that give a server running --reorg auto something to chase.
sim runs the deterministic fault-injection simulator (seeded schedules
against an in-memory store with torn writes, crashes, and a model-based
oracle); see `cind sim --help` for the full flag set.

CSV format: header row names the attributes (optional leading `id`
column); empty cells mean the attribute is absent.";

/// The `--name value` flags of one invocation. Every accessor *takes* its
/// flag, so whatever is left when the command has read its options is a
/// flag the command does not know ([`Args::finish`]).
struct Args {
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut flags = std::collections::HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument {flag}")));
            };
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("missing value for --{name}")))?;
            flags.insert(name.to_owned(), value.clone());
        }
        Ok(Self { flags })
    }

    fn required(&mut self, name: &str, what: &str) -> Result<String, CliError> {
        self.flags
            .remove(name)
            .ok_or_else(|| CliError::Usage(format!("--{name} {what} is required")))
    }

    fn path(&mut self, name: &str) -> Result<PathBuf, CliError> {
        self.required(name, "PATH").map(PathBuf::from)
    }

    /// The parsed value of `--name`, or `None` when the flag is absent.
    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        let Some(raw) = self.flags.remove(name) else { return Ok(None) };
        raw.parse()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("bad value for --{name}: {raw}")))
    }

    /// Overrides `field` with `--name`'s value; without the flag the field
    /// keeps the default its struct gave it.
    fn set<T: std::str::FromStr>(&mut self, name: &str, field: &mut T) -> Result<(), CliError> {
        if let Some(value) = self.take(name)? {
            *field = value;
        }
        Ok(())
    }

    /// Rejects whatever flags the command did not take.
    fn finish(self) -> Result<(), CliError> {
        let mut unknown: Vec<_> = self.flags.into_keys().collect();
        unknown.sort();
        match unknown.first() {
            None => Ok(()),
            Some(name) => Err(CliError::Usage(format!("unknown flag --{name}"))),
        }
    }
}

/// The pattern names every `Config` field and has no `..`: a new knob does
/// not build until it gets a flag here or a `_` with the reason it has none.
fn load_options(args: &mut Args) -> Result<LoadOptions, CliError> {
    let mut opts = LoadOptions::default();
    let Config {
        weight,
        capacity,
        size_model,
        // `--mode` fills `LoadOptions::mode`: a workload mode names
        // attributes, so it resolves only against the input's catalog.
        mode: _,
        tier,
        // A load runs no reorganizer; `cind serve --reorg` is its flag.
        reorg: _,
    } = &mut opts.config;
    args.set("weight", weight)?;
    args.set("capacity", capacity)?;
    args.set("size-model", size_model)?;
    opts.mode = args.take("mode")?;
    args.set("pool", &mut opts.pool_pages)?;
    args.set("tier", tier)?;
    Ok(opts)
}

fn query_options(args: &mut Args) -> Result<QueryOptions, CliError> {
    let mut opts = QueryOptions::default();
    if let Some(limit) = args.take("limit")? {
        opts.limit = Some(limit);
    }
    args.set("pool", &mut opts.pool_pages)?;
    args.set("tier", &mut opts.tier)?;
    Ok(opts)
}

/// Names every `ServeConfig` field, as [`load_options`] does `Config`'s.
fn serve_config(args: &mut Args) -> Result<ServeConfig, CliError> {
    let mut cfg = ServeConfig::default();
    let ServeConfig {
        port,
        // Accepted and ignored by the server (each connection's thread
        // executes its own frames), so no flag sets it.
        workers: _,
        queue_depth,
        pool_pages,
        // Accepted and ignored by the server (a leg scans inline), so no
        // flag sets it.
        query_threads: _,
        shards,
        group_commit_window,
        reorg,
        tier,
    } = &mut cfg;
    args.set("port", port)?;
    args.set("queue-depth", queue_depth)?;
    args.set("pool-pages", pool_pages)?;
    args.set("shards", shards)?;
    args.set("group-commit-window", group_commit_window)?;
    args.set("reorg", reorg)?;
    args.set("tier", tier)?;
    Ok(cfg)
}

fn load_config(args: &mut Args) -> Result<LoadConfig, CliError> {
    let mut cfg = LoadConfig::default();
    args.set("connections", &mut cfg.connections)?;
    args.set("entities", &mut cfg.entities)?;
    args.set("attributes", &mut cfg.attributes)?;
    args.set("query-every", &mut cfg.query_every)?;
    args.set("seed", &mut cfg.seed)?;
    args.set("pipeline", &mut cfg.pipeline)?;
    args.set("batch", &mut cfg.batch)?;
    args.set("mode", &mut cfg.mode)?;
    Ok(cfg)
}

fn run() -> Result<String, CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    if command == "sim" {
        // The simulator owns its flag grammar and exit codes.
        std::process::exit(cind_sim::cli::run_from_cind(&argv[1..]));
    }
    let mut args = Args::parse(&argv[1..])?;
    match command.as_str() {
        "load" => {
            let opts = load_options(&mut args)?;
            let (input, snapshot) = (args.path("input")?, args.path("snapshot")?);
            args.finish()?;
            load(&input, &snapshot, &opts)
        }
        "query" => {
            let attrs_raw = args.required("attrs", "a,b,…")?;
            let attrs: Vec<&str> =
                attrs_raw.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
            let opts = query_options(&mut args)?;
            let snapshot = args.path("snapshot")?;
            args.finish()?;
            query(&snapshot, &attrs, &opts)
        }
        "stats" | "check" => {
            let snapshot = args.path("snapshot")?;
            let pool = args.take("pool")?.unwrap_or(DEFAULT_POOL_PAGES);
            args.finish()?;
            if command == "stats" {
                stats(&snapshot, pool)
            } else {
                check(&snapshot, pool)
            }
        }
        "merge" => {
            let snapshot = args.path("snapshot")?;
            let threshold = args.take("threshold")?.unwrap_or(0.5);
            let pool = args.take("pool")?.unwrap_or(DEFAULT_POOL_PAGES);
            args.finish()?;
            merge(&snapshot, threshold, pool)
        }
        "serve" => {
            let cfg = serve_config(&mut args)?;
            let store = args.path("store")?;
            args.finish()?;
            serve(&store, &cfg)
        }
        "workload" => {
            let remote = args.required("remote", "HOST:PORT")?;
            let cfg = load_config(&mut args)?;
            let shutdown = args.take("shutdown")?.unwrap_or(false);
            args.finish()?;
            workload(&remote, &cfg, shutdown)
        }
        "help" | "--help" | "-h" => Ok(USAGE.into()),
        other => Err(CliError::Usage(format!("unknown command {other}\n\n{USAGE}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> Result<Args, CliError> {
        Args::parse(&flags.iter().map(|f| (*f).to_owned()).collect::<Vec<_>>())
    }

    /// The options `parse` fills from `flags`, after checking that it took
    /// every flag.
    fn parsed<T>(
        flags: &[&str],
        parse: fn(&mut Args) -> Result<T, CliError>,
    ) -> Result<T, CliError> {
        let mut args = args(flags)?;
        let opts = parse(&mut args)?;
        args.finish()?;
        Ok(opts)
    }

    #[test]
    fn no_flag_yields_the_library_defaults() {
        let dbg = |v: &dyn std::fmt::Debug| format!("{v:?}");
        let load = parsed(&[], load_options).unwrap();
        assert_eq!(dbg(&load.config), dbg(&cinderella_core::Config::default()));
        assert_eq!(dbg(&load), dbg(&LoadOptions::default()));
        assert_eq!(
            dbg(&parsed(&[], query_options).unwrap()),
            dbg(&QueryOptions::default())
        );
        assert_eq!(parsed(&[], serve_config).unwrap(), ServeConfig::default());
        assert_eq!(dbg(&parsed(&[], load_config).unwrap()), dbg(&LoadConfig::default()));
    }

    #[test]
    fn a_flag_overrides_only_its_field() {
        let load = parsed(&["--capacity", "50", "--mode", "entity"], load_options).unwrap();
        assert_eq!(load.config.capacity, 50);
        assert_eq!(load.mode, Some(cind_cli::ModeSpec::Entity));
        assert_eq!(load.config.weight, cinderella_core::Config::default().weight);
        let query = parsed(&["--limit", "3"], query_options).unwrap();
        assert_eq!((query.limit, query.pool_pages), (Some(3), DEFAULT_POOL_PAGES));
        let serve = parsed(&["--pool-pages", "64"], serve_config).unwrap();
        assert_eq!(serve, ServeConfig { pool_pages: 64, ..ServeConfig::default() });
    }

    fn usage(result: Result<impl std::fmt::Debug, CliError>) -> String {
        match result {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_missing_and_bad_flags_are_usage_errors() {
        assert_eq!(usage(parsed(&["--workers", "4"], serve_config)), "unknown flag --workers");
        assert_eq!(usage(parsed(&["--threads", "4"], load_options)), "unknown flag --threads");
        assert_eq!(usage(args(&["--port"]).map(|_| ())), "missing value for --port");
        assert_eq!(
            usage(parsed(&["--weight", "heavy"], load_options)),
            "bad value for --weight: heavy"
        );
        assert_eq!(usage(parsed(&["--tier", "fast"], query_options)), "bad value for --tier: fast");
        assert_eq!(usage(parsed(&["--seed", "-1"], load_config)), "bad value for --seed: -1");
    }
}
