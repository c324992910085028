//! Shared plumbing of the timed and the traced run: the fixed server shape,
//! engine construction, scratch directories, process memory, and the
//! Definition-1 efficiency of a live engine.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cind_model::Synopsis;
use cind_server::{
    EngineOptions, Request, ServeConfig, ServerError, ShardedEngine, ShardedOptions, WireEntity,
};
use cinderella_core::{efficiency_counters_for, IndexTier, ReorgMode};

use crate::workload::{Spec, QUEUE_DEPTH, SHARDS, WORKERS};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form facts worth reading next to the numbers (chosen tail
    /// percentile, window length, pool vs data pages, ...).
    pub notes: Vec<String>,
}

/// The machine shape every workload runs on (see README "machine shape").
pub fn serve_config(spec: &Spec) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        shards: SHARDS,
        query_threads: 1,
        queue_depth: QUEUE_DEPTH,
        pool_pages: spec.pool_pages,
        group_commit_window: 0,
        tier: IndexTier::Exact,
        reorg: if spec.reorg {
            ReorgMode::Auto
        } else {
            ReorgMode::Off
        },
        ..ServeConfig::default()
    }
}

/// An engine of the workload's shape: on disk under `dir` (opened or
/// reopened), else in memory.
pub fn open_engine(spec: &Spec, dir: Option<&Path>) -> Result<Arc<ShardedEngine>, ServerError> {
    let opts = ShardedOptions::new(EngineOptions::from_serve(&serve_config(spec)), SHARDS);
    Ok(Arc::new(match dir {
        Some(d) => ShardedEngine::open(d, opts)?,
        None => ShardedEngine::in_memory(opts),
    }))
}

/// A fresh engine with `preload` in, and the scratch directory it lives in
/// when the workload is durable (remove it with [`remove_dir`]).
pub fn fresh_store(
    spec: &Spec,
    tag: &str,
    n: usize,
    preload: &[WireEntity],
) -> Result<(Arc<ShardedEngine>, Option<PathBuf>), String> {
    let dir = if spec.durable {
        Some(scratch_dir(tag, n).map_err(|e| format!("scratch dir: {e}"))?)
    } else {
        None
    };
    let engine = open_engine(spec, dir.as_deref()).map_err(|e| format!("open engine: {e}"))?;
    for chunk in preload.chunks(512) {
        if let Some(Err(e)) = engine.insert_batch(chunk).into_iter().find(Result::is_err) {
            return Err(format!("preload: {e}"));
        }
    }
    Ok((engine, dir))
}

pub fn remove_dir(dir: Option<PathBuf>) {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Where the benchmark writes (stores, WAL probes, traces, records): inside
/// the checkout, never the system temp dir.
pub fn out_dir() -> PathBuf {
    // From the repo root (how `run.sh` and the driver start it) the
    // package sits in `benchmark/`; `cargo test` starts inside it.
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// A fresh scratch directory `benchmark/out/<tag>-<pid>-<n>`.
pub fn scratch_dir(tag: &str, n: usize) -> std::io::Result<PathBuf> {
    let dir = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-1` or `0,2-3`); empty where that is missing.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or_default();
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse().ok()?..=hi.trim().parse().ok()?)
        })
        .flatten()
        .collect()
}

/// Pins the calling thread, and every thread it starts from now on, to
/// `cpu`. Returns whether the kernel agreed.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> bool {
    extern "C" {
        // libc's; std links it already, so no crate is needed for one call.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of the size passed with it, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> bool {
    false
}

/// The distinct query shapes of a request list, in first-seen order.
pub fn distinct_queries<'a>(reqs: impl IntoIterator<Item = &'a Request>) -> Vec<&'a [String]> {
    let mut seen = BTreeSet::new();
    reqs.into_iter()
        .filter_map(|r| match r {
            Request::Query(attrs) if seen.insert(attrs.as_slice()) => Some(attrs.as_slice()),
            _ => None,
        })
        .collect()
}

/// Definition-1 counters `(relevant, read)` of the engine's current
/// partitioning against `queries`: per shard, the query names are resolved
/// in *that shard's* catalog (shards intern independently) and the pairs of
/// `efficiency_counters_for` are summed across shards.
pub fn efficiency_counters(engine: &ShardedEngine, queries: &[&[String]]) -> (u64, u64) {
    let (mut relevant, mut read) = (0u64, 0u64);
    for i in 0..engine.shard_count() {
        let (rel, rd) = engine.shard_engine(i).with_parts(|table, cindy| {
            let synopses: Vec<Synopsis> = queries
                .iter()
                .filter_map(|attrs| {
                    let ids: Vec<_> = attrs
                        .iter()
                        .filter_map(|a| table.catalog().lookup(a))
                        .collect();
                    (!ids.is_empty()).then(|| Synopsis::from_attrs(table.universe(), ids))
                })
                .collect();
            efficiency_counters_for(table, cindy, &synopses)
        });
        relevant += rel;
        read += rd;
    }
    (relevant, read)
}

/// Definition-1 EFFICIENCY from summed counters: one division at the end.
pub fn efficiency_of((relevant, read): (u64, u64)) -> f64 {
    if read == 0 {
        1.0
    } else {
        relevant as f64 / read as f64
    }
}

/// Definition-1 EFFICIENCY of the engine's current partitioning.
pub fn efficiency(engine: &ShardedEngine, queries: &[&[String]]) -> f64 {
    efficiency_of(efficiency_counters(engine, queries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3"), vec![0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }
}
