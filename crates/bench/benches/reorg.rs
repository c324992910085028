//! Reorganizer payoff under workload drift: Definition-1 EFFICIENCY over
//! time with `--reorg auto` versus `--reorg off`, replaying the same
//! seeded [`DriftScenario`] stream into both. The *current* workload —
//! the trailing window of distinct query synopses — is what EFFICIENCY is
//! measured against, because adapting to the queries being asked *now* is
//! the whole point of the subsystem. Four scenario shapes:
//!
//! * `steady` — the honest control: no drift, so the reorganizer has
//!   nothing to win and its moved entities are pure overhead.
//! * `drift` — query focus rotates across attribute groups per phase.
//! * `flash_crowd` — one attribute pair gets hammered mid-run.
//! * `churn` — Zipf-skewed inserts plus deletes of the oldest entities.
//!
//! One result line per scenario goes to stdout, with both EFFICIENCY
//! timelines (the PR 9 record is in EXPERIMENTS.md, "Historical per-PR
//! results"). Run with `cargo bench -p cind-bench --bench reorg`. Not a criterion bench: the
//! runs are deterministic (seeded streams, no threads), so one wall-clock
//! measurement per (scenario, mode) pair is the signal.

use std::time::Instant;

use cind_datagen::{DriftConfig, DriftMode, DriftOp, DriftScenario};
use cind_model::Synopsis;
use cind_reorg::{ReorgDriver, ReorgStats};
use cind_storage::UniversalTable;
use cinderella_core::{efficiency, Capacity, Cinderella, Config, ReorgConfig, ReorgMode};

const OPS: usize = 6_000;
const GROUPS: usize = 8;
const WIDTH: usize = 8;
const QUERY_SHARE: f64 = 0.35;
const SEED: u64 = 0xBE9C;
const CAPACITY: u64 = 64;
/// EFFICIENCY sampling points per run.
const CHECKPOINTS: usize = 8;
/// Trailing query ops whose distinct synopses form the "current workload".
const TRAIL: usize = 300;

struct RunOut {
    eff_timeline: Vec<f64>,
    final_eff: f64,
    elapsed_s: f64,
    stats: ReorgStats,
}

fn reorg_cfg(mode: ReorgMode) -> ReorgConfig {
    ReorgConfig { mode, budget: CAPACITY, threshold: 0.05, epoch_ops: 32 }
}

/// The distinct synopses in the trailing window, first-seen order.
fn distinct(trail: &[Synopsis]) -> Vec<Synopsis> {
    let mut out: Vec<Synopsis> = Vec::new();
    for q in trail {
        if !out.contains(q) {
            out.push(q.clone());
        }
    }
    out
}

/// Replays one scenario stream. With `--reorg off` the driver records
/// nothing and never steps, so the identical loop body serves both modes.
fn run(mode: DriftMode, reorg: ReorgMode) -> RunOut {
    let scenario = DriftScenario::new(DriftConfig {
        mode,
        ops: OPS,
        groups: GROUPS,
        group_width: WIDTH,
        query_share: QUERY_SHARE,
        seed: SEED,
    });
    let mut table = UniversalTable::new(4096);
    let ops = scenario.generate(table.catalog_mut(), 0);
    let universe = table.universe();
    let rc = reorg_cfg(reorg);
    let mut cindy = Cinderella::new(Config {
        capacity: Capacity::MaxEntities(CAPACITY),
        reorg: rc,
        ..Config::default()
    });
    let mut driver = ReorgDriver::new(rc);
    let mut trail: Vec<Synopsis> = Vec::new();
    let mut eff_timeline = Vec::with_capacity(CHECKPOINTS);
    let sample_every = ops.len().div_ceil(CHECKPOINTS).max(1);

    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let due = match op {
            DriftOp::Insert(e) => {
                cindy.insert(&mut table, e.clone()).expect("insert");
                driver.record_write()
            }
            DriftOp::Delete(id) => {
                cindy.delete(&mut table, *id).expect("delete");
                driver.record_write()
            }
            DriftOp::Query(attrs) => {
                let q = Synopsis::from_attrs(universe, attrs.iter().copied());
                let scanned: Vec<_> = cindy
                    .catalog()
                    .pruning_view()
                    .filter(|(_, syn, _)| !q.is_disjoint(syn))
                    .map(|(seg, _, _)| seg)
                    .collect();
                let due = driver.record_query(&q, scanned);
                trail.push(q);
                if trail.len() > TRAIL {
                    trail.remove(0);
                }
                due
            }
        };
        if due {
            driver.step(&mut table, &mut cindy).expect("reorg step");
        }
        if (i + 1) % sample_every == 0 || i + 1 == ops.len() {
            eff_timeline.push(efficiency(&table, &cindy, &distinct(&trail)));
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let final_eff = eff_timeline.last().copied().unwrap_or(1.0);
    RunOut { eff_timeline, final_eff, elapsed_s, stats: driver.stats() }
}

fn main() {
    let scenarios = [
        ("steady", DriftMode::Steady),
        ("drift", DriftMode::Drift),
        ("flash_crowd", DriftMode::FlashCrowd),
        ("churn", DriftMode::Churn),
    ];
    for (name, mode) in scenarios {
        let off = run(mode, ReorgMode::Off);
        let auto = run(mode, ReorgMode::Auto);
        println!(
            "{name:<12} off {:.4} ({:.2}s) -> auto {:.4} ({:.2}s), gain {:+.4}; auto took \
             {} steps ({} resplits, {} merges, {} entities moved)\n  \
             off  timeline {:.4?}\n  auto timeline {:.4?}",
            off.final_eff,
            off.elapsed_s,
            auto.final_eff,
            auto.elapsed_s,
            auto.final_eff - off.final_eff,
            auto.stats.steps,
            auto.stats.resplits,
            auto.stats.merges,
            auto.stats.entities_moved,
            off.eff_timeline,
            auto.eff_timeline,
        );
    }
}
