//! Simulation-harness throughput: how many fully-oracle-checked schedule
//! steps per second the deterministic simulator sustains, with and
//! without fault injection, plus the crash-point sweep's recoveries per
//! second. The numbers bound how much schedule space a CI minute buys —
//! the knob behind the `sim` job's 32×2000 matrix — and go to stdout,
//! one line per scenario (the PR 5 record is in EXPERIMENTS.md,
//! "Historical per-PR results").
//!
//! Run with `cargo bench -p cind-bench --bench sim`. Not a criterion
//! bench: each run is thousands of internally-checked steps, so one
//! wall-clock measurement per scenario is the signal.

use std::time::Instant;

use cind_sim::{crash_sweep, generate, run_ops, FaultPlan, RunSpec};

struct Scenario {
    name: &'static str,
    seed: u64,
    ops: usize,
    faults: bool,
    shards: usize,
    /// Full oracle check every N steps (1 = every step, as CI runs it).
    check_every: usize,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario { name: "clean_2000", seed: 0, ops: 2000, faults: false, shards: 1, check_every: 1 },
        Scenario { name: "faults_2000", seed: 0, ops: 2000, faults: true, shards: 1, check_every: 1 },
        Scenario {
            name: "faults_2000_check_16",
            seed: 0,
            ops: 2000,
            faults: true,
            shards: 1,
            check_every: 16,
        },
        // Sharded world: 4 independent crash domains, every per-shard
        // oracle diff run each step.
        Scenario {
            name: "faults_2000_shards_4",
            seed: 0,
            ops: 2000,
            faults: true,
            shards: 4,
            check_every: 1,
        },
    ]
}

fn main() {
    for sc in scenarios() {
        let plan = if sc.faults { FaultPlan::all() } else { FaultPlan::none() };
        let ops = generate(sc.seed, sc.ops, sc.faults, sc.shards);
        let start = Instant::now();
        let report = run_ops(&RunSpec {
            seed: sc.seed,
            faults: sc.faults,
            shards: sc.shards,
            plan,
            ops: &ops,
            check_every: sc.check_every,
            arm_crash: None,
            tier: cinderella_core::IndexTier::Exact,
        })
        .expect("committed seeds pass");
        let elapsed = start.elapsed().as_secs_f64();
        let steps_per_s = sc.ops as f64 / elapsed;
        println!(
            "{:<22} {} steps in {elapsed:.2}s = {steps_per_s:.0} steps/s, {} restarts, \
             {} entities, {} vfs mutations, hash {:016x}",
            sc.name,
            sc.ops,
            report.restarts,
            report.final_entities,
            report.vfs_mutations,
            report.trace.hash()
        );
    }

    // The sweep: one full run per (shard, mutating VFS operation) pair.
    let start = Instant::now();
    let points = crash_sweep(3, 40, 2).expect("sweep passes");
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "{:<22} {points} crash-points in {elapsed:.2}s = {:.0} recoveries/s",
        "sweep_40",
        points as f64 / elapsed
    );
}
