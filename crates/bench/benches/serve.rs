//! Serving-layer shard sweep: an in-process `cind-server` on a loopback
//! socket, driven by the closed-loop load generator, measured across
//! shard counts 1/2/4/8 × client connections 1/4/8, one table row per
//! scenario on stdout (the PR 4 / PR 6 records are in EXPERIMENTS.md,
//! "Historical per-PR results").
//!
//! The sweep is the measurement behind the sharding tentpole: per-shard
//! writer locks mean concurrent inserts only contend when they hash to
//! the same shard, and epoch snapshot reads keep queries off the writer
//! path entirely. On a multi-core host that shows up as insert tail
//! latency falling and throughput scaling as shards grow; on a
//! single-hardware-thread host (this container) fan-out legs run inline,
//! so the sweep instead bounds the *sharding tax* — shards > 1 must stay
//! within noise of shards = 1.
//! An overload shape (in-flight bound 1, 8 pushers, 4 shards) rides
//! along to keep admission control measured under the sharded engine.
//!
//! Run with `cargo bench -p cind-bench --bench serve`. Not a criterion
//! bench: one load run *is* the measurement (throughput and latency
//! percentiles over thousands of operations), so statistical resampling
//! would only re-run minutes of socket traffic for no extra information.

use std::sync::Arc;
use std::time::Duration;

use cind_server::{
    run_load, Client, EngineOptions, LoadConfig, LoadReport, ServeConfig, Server, ShardedEngine,
    ShardedOptions,
};

/// One scenario: a server shape plus a load shape.
struct Scenario {
    name: String,
    serve: ServeConfig,
    load: LoadConfig,
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    // Queue depth fixed at 64, so the sweep isolates the effect of the
    // shard count alone.
    for &shards in &[1usize, 2, 4, 8] {
        for &connections in &[1usize, 4, 8] {
            out.push(Scenario {
                name: format!("shards_{shards}_connections_{connections}"),
                serve: ServeConfig {
                    queue_depth: 64,
                    shards,
                    ..ServeConfig::default()
                },
                load: LoadConfig { connections, entities: 4_000, ..LoadConfig::default() },
            });
        }
    }
    // Deliberate overload: one request in flight, eight pushers —
    // measures that admission control still sheds instead of stalling
    // when the engine underneath is sharded.
    out.push(Scenario {
        name: "overload_queue_1".to_string(),
        serve: ServeConfig { queue_depth: 1, shards: 4, ..ServeConfig::default() },
        load: LoadConfig { connections: 8, entities: 2_000, ..LoadConfig::default() },
    });
    out
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn run_scenario(sc: &Scenario) -> (LoadReport, u64) {
    let engine = Arc::new(ShardedEngine::in_memory(ShardedOptions::new(
        EngineOptions {
            pool_pages: 4096,
            ..EngineOptions::default()
        },
        sc.serve.effective_shards(),
    )));
    let handle = Server::start(Arc::clone(&engine), &sc.serve).expect("server start");
    let addr = format!("127.0.0.1:{}", handle.port());
    let report = run_load(&addr, &sc.load).expect("load run");
    let mut client = Client::connect(&addr).expect("connect");
    let partitions = client.stats().expect("stats").partitions;
    client.shutdown().expect("shutdown");
    let shutdown = handle.join().expect("graceful join");
    assert!(
        shutdown.violations.is_empty(),
        "{}: post-drain validation failed: {:?}",
        sc.name,
        shutdown.violations
    );
    (report, partitions)
}

fn main() {
    let mut t = cind_metrics::Table::new([
        "scenario",
        "ops/s",
        "busy sheds",
        "errors",
        "partitions",
        "insert p50/p99 [us]",
        "query p50/p99 [us]",
    ]);
    for sc in scenarios() {
        eprintln!("serve bench: {}", sc.name);
        let (mut report, partitions) = run_scenario(&sc);
        eprintln!("{}", report.render());
        let pair = |h: &mut cind_metrics::LatencyHistogram| {
            let mut p = |q| h.percentile(q).map_or(0.0, us);
            format!("{:.1} / {:.1}", p(50.0), p(99.0))
        };
        t.row([
            sc.name.clone(),
            format!("{:.0}", report.throughput()),
            report.busy_sheds.to_string(),
            report.errors.to_string(),
            partitions.to_string(),
            pair(&mut report.insert_latency),
            pair(&mut report.query_latency),
        ]);
    }
    println!("{}", t.render());
}
