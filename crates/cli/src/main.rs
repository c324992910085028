//! `cind` binary: thin argument parsing over [`cind_cli::commands`].

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use cind_cli::{
    check, load, merge, query, serve, stats, workload, CliError, LoadOptions, QueryOptions,
    WorkloadOptions,
};

const USAGE: &str = "\
cind — universal-table manager with Cinderella online partitioning

USAGE:
  cind load  --input DATA.csv --snapshot TABLE.cind
             [--weight W] [--capacity B] [--size-model cells|bytes]
             [--mode entity|workload:a,b;c,d] [--record-events true|false]
             [--threads N] [--tier exact|tiered|auto]
  cind query --snapshot TABLE.cind --attrs a,b,c [--limit N]
             [--tier exact|tiered|auto]
  cind stats --snapshot TABLE.cind
  cind merge --snapshot TABLE.cind [--threshold T]
  cind check --snapshot TABLE.cind
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
--record-events true traces every sequential insert (latency, split flag)
and summarises the trace in the load report.
--tier picks the storage of the pruning index every rating scan and
query plan goes through: exact (one partition-presence bitmap per
attribute, the default) or tiered (blocked
Bloom filter rows per 64-partition group under group summaries —
memory stays bounded at million-partition catalogs, answers are
identical because the approximate tier never produces false negatives);
auto starts exact and ratchets to tiered once the catalog crosses the
partition-count threshold.
check restores the snapshot, rebuilds the partitioning, and runs the full
structural invariant validation (exit status 1 on violations).
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

    fn get<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, CliError> {
        match self.flags.remove(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("bad value for --{name}: {raw}"))),
        }
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
            let opts = LoadOptions {
                weight: args.get("weight", 0.2)?,
                capacity: args.get("capacity", 5_000)?,
                size_model: args.get("size-model", cind_model::SizeModel::Cells)?,
                mode: args.get("mode", cind_cli::ModeSpec::Entity)?,
                record_events: args.get("record-events", false)?,
                threads: args.get("threads", 1)?,
                pool_pages: args.get("pool", 1024)?,
                tier: args.get("tier", cinderella_core::IndexTier::default())?,
            };
            let (input, snapshot) = (args.path("input")?, args.path("snapshot")?);
            args.finish()?;
            load(&input, &snapshot, &opts)
        }
        "query" => {
            let attrs_raw = args.required("attrs", "a,b,…")?;
            let attrs: Vec<&str> =
                attrs_raw.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
            let opts = QueryOptions {
                limit: Some(args.get("limit", 20usize)?),
                pool_pages: args.get("pool", 1024)?,
                tier: args.get("tier", cinderella_core::IndexTier::default())?,
            };
            let snapshot = args.path("snapshot")?;
            args.finish()?;
            query(&snapshot, &attrs, &opts)
        }
        "stats" | "check" => {
            let (snapshot, pool) = (args.path("snapshot")?, args.get("pool", 1024)?);
            args.finish()?;
            if command == "stats" {
                stats(&snapshot, pool)
            } else {
                check(&snapshot, pool)
            }
        }
        "merge" => {
            let snapshot = args.path("snapshot")?;
            let (threshold, pool) = (args.get("threshold", 0.5)?, args.get("pool", 1024)?);
            args.finish()?;
            merge(&snapshot, threshold, pool)
        }
        "serve" => {
            let cfg = cind_server::ServeConfig {
                port: args.get("port", 0u16)?,
                queue_depth: args.get("queue-depth", 64)?,
                pool_pages: args.get("pool-pages", 1024)?,
                shards: args.get("shards", 1)?,
                group_commit_window: args.get("group-commit-window", 0)?,
                reorg: args.get("reorg", cinderella_core::ReorgMode::Off)?,
                tier: args.get("tier", cinderella_core::IndexTier::default())?,
                ..cind_server::ServeConfig::default()
            };
            let store = args.path("store")?;
            args.finish()?;
            serve(&store, &cfg)
        }
        "workload" => {
            let remote = args.required("remote", "HOST:PORT")?;
            let opts = WorkloadOptions {
                connections: args.get("connections", 4)?,
                entities: args.get("entities", 2_000)?,
                attributes: args.get("attributes", 60)?,
                query_every: args.get("query-every", 10)?,
                seed: args.get("seed", 0xC1DE)?,
                pipeline: args.get("pipeline", 1)?,
                batch: args.get("batch", 1)?,
                mode: args.get("mode", cind_server::DriftMode::Steady)?,
                shutdown: args.get("shutdown", false)?,
            };
            args.finish()?;
            workload(&remote, &opts)
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
