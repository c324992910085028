//! Server hot-path sweep: quantifies the three PR7 levers — request
//! pipelining, wire-level batch frames, and WAL group commit — against
//! the closed-loop per-op baseline PR 6 measured, one table row per
//! scenario on stdout (the PR 7 record is in EXPERIMENTS.md, "Historical
//! per-PR results").
//!
//! Two scenario families:
//!
//! * **in-memory** (directly comparable to PR6's
//!   `shards_4_connections_8`): the same server shape driven closed-loop,
//!   pipelined (16 in flight), and batched (32 inserts per frame) —
//!   isolates the wire-level wins (frames per `read`/`write` syscall,
//!   one response flush per drained queue batch);
//! * **durable** (on-disk sharded store): the same shapes with the
//!   group-commit window at 0 vs 4000 µs, reading the server's
//!   [`IoCounters`] after each run so `wal_syncs` per op and socket
//!   syscalls per frame are recorded, not inferred.
//!
//! An overload shape (1 worker, depth-8 queue, 8 pipelined pushers)
//! rides along: pipelining pushes admission control harder than a
//! closed loop ever can, and the shed rate must stay a rate, not a
//! stall.
//!
//! Run with `cargo bench -p cind-bench --bench serve_hotpath`. Not a
//! criterion bench: one load run *is* the measurement.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cind_server::{
    run_load, Client, EngineOptions, IoCounters, LoadConfig, LoadReport, ServeConfig, Server,
    ShardedEngine, ShardedOptions,
};

/// One scenario: a server shape, a load shape, and the durability knobs.
struct Scenario {
    name: String,
    serve: ServeConfig,
    load: LoadConfig,
    /// Group-commit gather window, µs (durable scenarios only).
    window_us: u64,
    /// `true` = on-disk sharded store (WAL counters are real); `false` =
    /// in-memory, directly comparable to the PR6 sweep.
    durable: bool,
}

fn shape(
    name: &str,
    pipeline: usize,
    batch: usize,
    query_every: usize,
    window_us: u64,
    durable: bool,
) -> Scenario {
    // Pipelined shapes keep 8 × 16 = 128 frames in flight; the admission
    // queue must be deeper than that or the bench measures artificial
    // sheds, not the hot path (the dedicated overload scenario measures
    // shedding on purpose).
    let queue_depth = if pipeline > 1 { 256 } else { 64 };
    Scenario {
        name: name.to_string(),
        serve: ServeConfig { workers: 4, queue_depth, shards: 4, ..ServeConfig::default() },
        load: LoadConfig {
            connections: 8,
            entities: 4_000,
            pipeline,
            batch,
            query_every,
            ..LoadConfig::default()
        },
        window_us,
        durable,
    }
}

fn scenarios() -> Vec<Scenario> {
    let mut out = vec![
        // In-memory mixed family: same engine shape and 10:1 mix as
        // PR 6's shards_4_connections_8, so mem_closed_loop
        // re-measures that baseline on the pipelined server and the other
        // two isolate the wire-level levers.
        shape("mem_closed_loop", 1, 1, 10, 0, false),
        shape("mem_pipelined_16", 16, 1, 10, 0, false),
        shape("mem_batched_32", 1, 32, 10, 0, false),
        // Insert-only family: the headline insert-throughput comparison
        // (PR6's shards_4_connections_8 sustained ~8.2k inserts/s inside
        // its 10:1 mix) without query cost sharing the one hardware
        // thread.
        shape("insert_closed_loop", 1, 1, 0, 0, false),
        shape("insert_pipelined_16", 16, 1, 0, 0, false),
        shape("insert_batched_32", 1, 32, 0, 0, false),
        // Durable family, insert-only: every commit is WAL append + fsync.
        // At window 0 coalescing happens only when commits genuinely race
        // (pipelined runs collapse into shared groups); the window then
        // trades ack latency for even fewer fsyncs.
        shape("durable_closed_loop", 1, 1, 0, 0, true),
        shape("durable_pipelined_16", 16, 1, 0, 0, true),
        shape("durable_batched_32", 1, 32, 0, 0, true),
        shape("durable_w500_pipelined_16", 16, 1, 0, 500, true),
        shape("durable_w4000_pipelined_16", 16, 1, 0, 4_000, true),
    ];
    // Deliberate overload under pipelining: 8 connections each keeping 16
    // frames in flight against one worker and a depth-8 queue.
    out.push(Scenario {
        name: "overload_pipelined".to_string(),
        serve: ServeConfig { workers: 1, queue_depth: 8, shards: 4, ..ServeConfig::default() },
        load: LoadConfig { connections: 8, entities: 2_000, pipeline: 16, ..LoadConfig::default() },
        window_us: 0,
        durable: false,
    });
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("cind_hotpath_bench")
        .join(format!("{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_scenario(sc: &Scenario) -> (LoadReport, IoCounters) {
    let eopts = EngineOptions {
        pool_pages: 4096,
        group_commit_window: Duration::from_micros(sc.window_us),
        ..EngineOptions::default()
    };
    let sopts = ShardedOptions::new(eopts, sc.serve.effective_shards());
    let dir = sc.durable.then(|| store_dir(&sc.name));
    let engine = Arc::new(match &dir {
        Some(d) => ShardedEngine::open(d, sopts).expect("store opens"),
        None => ShardedEngine::in_memory(sopts),
    });
    let handle = Server::start(Arc::clone(&engine), &sc.serve).expect("server start");
    let addr = format!("127.0.0.1:{}", handle.port());
    let report = run_load(&addr, &sc.load).expect("load run");
    let mut client = Client::connect(&addr).expect("connect");
    let io = client.io_counters().expect("io counters");
    client.shutdown().expect("shutdown");
    let shutdown = handle.join().expect("graceful join");
    assert!(
        shutdown.violations.is_empty(),
        "{}: post-drain validation failed: {:?}",
        sc.name,
        shutdown.violations
    );
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
    (report, io)
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

fn main() {
    let mut t = cind_metrics::Table::new([
        "scenario",
        "ops/s",
        "x baseline",
        "busy sheds",
        "errors",
        "insert e2e p50/p99 [us]",
        "insert svc p50/p99 [us]",
        "query p50/p99 [us]",
        "fsyncs/op",
        "ops/commit group",
        "frames/read",
        "frames/write",
        "socket syscalls/op",
    ]);
    let mut baseline_ops = 0.0f64;
    for sc in scenarios() {
        eprintln!("serve_hotpath bench: {}", sc.name);
        let (mut report, io) = run_scenario(&sc);
        eprintln!("{}", report.render());
        if sc.name == "mem_closed_loop" {
            baseline_ops = report.throughput();
        }
        let pair = |h: &mut cind_metrics::LatencyHistogram| {
            let mut p = |q| h.percentile(q).map_or(0.0, us);
            format!("{:.1} / {:.1}", p(50.0), p(99.0))
        };
        let ops = report.inserts + report.queries;
        t.row([
            sc.name.clone(),
            format!("{:.0}", report.throughput()),
            format!("{:.2}", report.throughput() / baseline_ops),
            report.busy_sheds.to_string(),
            report.errors.to_string(),
            pair(&mut report.insert_latency),
            pair(&mut report.insert_service),
            pair(&mut report.query_latency),
            format!("{:.4}", per(io.wal_syncs, io.wal_ops)),
            format!("{:.2}", per(io.wal_ops, io.wal_groups)),
            format!("{:.2}", per(io.frames_in, io.net_reads)),
            format!("{:.2}", per(io.frames_out, io.net_writes)),
            format!("{:.3}", per(io.net_reads + io.net_writes, ops)),
        ]);
    }
    println!("{}", t.render());
}
