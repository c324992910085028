//! The simulation harness: drives a seeded schedule against a real
//! [`cind_server::ShardedEngine`] — N independent engine shards, each on
//! its *own* fault-injecting VFS — checks every answer against the
//! model-based [`Oracle`], and turns crashes into recovery exercises.
//!
//! ## The step protocol
//!
//! Every write op is resolved three ways:
//!
//! * **Engine Ok** — the oracle must accept it too; divergence is a bug.
//! * **Engine logical error** (duplicate id, unknown id, unknown
//!   attribute) — the oracle must reject it for the same reason.
//! * **Engine fault error** (WAL append failure, persistence failure, a
//!   fired crash-point) — durability is now ambiguous: the mutation may or
//!   may not have reached disk before the fault. A routed write faults on
//!   exactly one shard, so the harness first proves every *surviving*
//!   shard is still byte-exact against the oracle restricted to its ids
//!   (the crash-domain claim: one domain down, the others unharmed), then
//!   recovers the victim shard alone via
//!   [`cind_server::ShardedEngine::reopen_shard`] and accepts the outcome
//!   iff the recovered store equals *either* the pre-op or the post-op
//!   oracle — anything else (a half-applied group, a resurrected delete, a
//!   lost earlier commit) fails the run. Maintenance ops (merge,
//!   checkpoint) touch every shard, so a fault there reboots the whole
//!   engine instead.
//!
//! After every step (configurable) and after every recovery the harness
//! runs the full check: structural validation on every shard, per-shard
//! byte-level content equivalence against the routed slice of the oracle
//! (which doubles as a no-cross-shard-leakage check), and a Definition-1
//! EFFICIENCY(P) recomputation from raw segment scans compared against the
//! core implementation — per shard on exact counters, and globally as
//! Σrelevant / Σread over the summed counters (never an average of
//! per-shard ratios).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use cind_model::{EntityId, Synopsis, Value};
use cind_server::{
    Engine, EngineOptions, ServerError, ShardedEngine, ShardedOptions, WireEntity,
};
use cind_storage::{StorageError, Vfs};
use cind_storage::UniversalTable;
use cinderella_core::{
    efficiency_counters_for, Config, CoreError, IndexTier, ReorgConfig, ReorgMode,
};

use crate::clock::VirtualClock;
use crate::oracle::{canonical_rows, Oracle, OracleErr};
use crate::schedule::{generate, Op};
use crate::trace::{StepRecord, Trace};
use crate::vfs::{FaultPlan, SimVfs};

/// Virtual store directory inside the simulated filesystem.
pub const STORE_DIR: &str = "/sim/store";

/// Open retries before a recovery attempt counts as stuck; attempts past
/// [`SUPPRESS_AFTER`] run with random faults suppressed so a run cannot
/// starve on back-to-back injected read failures.
const OPEN_RETRIES: usize = 8;
const SUPPRESS_AFTER: usize = 3;

/// Distinct query shapes remembered for the efficiency cross-check.
const WORKLOAD_CAP: usize = 16;

/// One simulation run's knobs.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Master seed: schedule and every shard's fault stream derive from it.
    pub seed: u64,
    /// Schedule length.
    pub ops: usize,
    /// Random faults (torn writes, ENOSPC, short reads, failed fsyncs,
    /// latency) plus scheduled crash ops.
    pub faults: bool,
    /// Independent crash domains: each shard runs on its own seeded VFS.
    pub shards: usize,
    /// Run the full oracle/validation/efficiency check every N steps
    /// (1 = every step; recovery always checks regardless).
    pub check_every: usize,
    /// Initial pruning-index tier. A `tiered` run *flips* `exact ↔
    /// tiered` at every successful checkpoint, so it also exercises the
    /// runtime switch both ways; recoveries reapply the current tier
    /// (the tier is in-memory index state, rebuilt from the recovered
    /// catalog). `exact` runs never flip — they are the determinism
    /// baseline the committed replay traces were recorded against.
    pub tier: IndexTier,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            ops: 2000,
            faults: true,
            shards: 1,
            check_every: 1,
            tier: IndexTier::Exact,
        }
    }
}

/// An explicit schedule to run — the argument of [`run_ops`], used by
/// replay (`ops` from a trace file) and the crash sweep (`arm_crash`
/// kills one shard's k-th VFS mutation).
#[derive(Clone, Copy, Debug)]
pub struct RunSpec<'a> {
    /// Seed for every per-shard VFS fault stream.
    pub seed: u64,
    /// Recorded in the trace (the schedule itself already reflects it).
    pub faults: bool,
    /// Shard count: the world routes exactly like a real sharded store.
    pub shards: usize,
    /// Random-fault plan installed on every shard's VFS.
    pub plan: FaultPlan,
    /// The schedule to execute.
    pub ops: &'a [Op],
    /// Full check every N steps (0 = only the final check).
    pub check_every: usize,
    /// Arm shard `.0`'s VFS to crash on its `.1`-th mutating operation.
    pub arm_crash: Option<(usize, u64)>,
    /// Initial pruning-index tier (a `tiered` run flips at checkpoint
    /// boundaries; see [`SimConfig::tier`]).
    pub tier: IndexTier,
}

/// Why a run failed: the step index (if the failure is attributable to
/// one) and a human-readable reason.
#[derive(Clone, Debug)]
pub struct SimFailure {
    /// Index into the schedule, when the failure happened inside a step.
    pub step: Option<usize>,
    /// What diverged.
    pub reason: String,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(i) => write!(f, "step {i}: {}", self.reason),
            None => write!(f, "{}", self.reason),
        }
    }
}

/// A successful run's summary.
#[derive(Debug)]
pub struct RunReport {
    /// The captured trace (hash it for the determinism witness).
    pub trace: Trace,
    /// Fault-induced recoveries (single-shard reopens and full reboots).
    pub restarts: u64,
    /// Live entities at the end of the run.
    pub final_entities: u64,
    /// Total mutating VFS operations across every shard.
    pub vfs_mutations: u64,
    /// Mutating VFS operations per shard (the crash-sweep's point space:
    /// each shard's disk is an independently killable crash domain).
    pub vfs_mutations_per_shard: Vec<u64>,
}

struct World {
    /// The pruning-index tier currently applied to every shard. A run
    /// that *starts* tiered flips `exact ↔ tiered` at successful
    /// checkpoints; the tier is reapplied after every recovery (a
    /// reopened shard rebuilds with the spec's initial tier, not the
    /// flipped one).
    tier: IndexTier,
    /// Whether checkpoints flip the tier. True only when the spec asked
    /// for `tiered`: exact runs stay exact end to end so the committed
    /// replay traces (minted before the tier knob existed) keep their
    /// recorded hashes, and auto keeps its own ratchet under test.
    flip_tier: bool,
    /// One fault-injecting backend per shard — independent crash domains.
    vfss: Vec<Arc<SimVfs>>,
    /// Fault-free backend for the shard manifest: the manifest is written
    /// once at store creation and belongs to no crash domain; injecting
    /// faults there would test [`cind_storage::Manifest`], not recovery.
    meta_vfs: Arc<SimVfs>,
    clock: Arc<VirtualClock>,
    engine: ShardedEngine,
    oracle: Oracle,
    workload: Vec<Vec<String>>,
    restarts: u64,
}

pub(crate) fn sim_engine_options(vfs: Arc<SimVfs>, tier: IndexTier) -> EngineOptions {
    EngineOptions {
        config: Config {
            weight: 0.3,
            tier,
            // Small capacity so the schedule actually exercises splits.
            capacity: 8,
            // Reorganizer on with a short op-count epoch so both trigger
            // paths — write-cadence steps and explicit `Op::Reorg` — fire
            // often enough that the crash sweep lands inside reorg actions.
            reorg: ReorgConfig {
                mode: ReorgMode::Auto,
                budget: 8,
                threshold: 0.02,
                epoch_ops: 16,
            },
            ..Config::default()
        },
        pool_pages: 64,
        // Window zero keeps the schedule single-writer deterministic: the
        // submitting thread is always its own fsync leader, so no timing
        // dependence sneaks into the trace hash. Group-commit *timing* is
        // exercised by the dedicated multi-writer crash tests instead.
        group_commit_window: std::time::Duration::ZERO,
        vfs: vfs as Arc<dyn Vfs>,
    }
}

/// Seed for shard `i`'s VFS fault stream (shard 0 keeps the historical
/// derivation so single-shard runs stay comparable across versions).
pub fn shard_vfs_seed(seed: u64, i: usize) -> u64 {
    (seed ^ 0xD6E8_FEB8_6659_FD93) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The sharded options a simulation world opens the store with: the
/// fault-free meta VFS as the default (manifest I/O) and one fault
/// backend per shard.
pub fn sim_sharded_options(
    meta_vfs: &Arc<SimVfs>,
    vfss: &[Arc<SimVfs>],
    tier: IndexTier,
) -> ShardedOptions {
    let mut opts =
        ShardedOptions::new(sim_engine_options(Arc::clone(meta_vfs), tier), vfss.len());
    opts.shard_vfs = vfss.iter().map(|v| Arc::clone(v) as Arc<dyn Vfs>).collect();
    opts
}

/// Opens (or recovers) the whole sharded engine, retrying through injected
/// faults. The first [`SUPPRESS_AFTER`] attempts keep random faults live —
/// recovery itself must survive short reads — later attempts suppress them
/// so a hostile fault plan cannot wedge the run. An armed-but-unfired
/// crash-point may fire *during* recovery; it is treated like any other
/// crash: cleared, then recovery is retried against the surviving bytes.
fn open_sharded(
    meta_vfs: &Arc<SimVfs>,
    vfss: &[Arc<SimVfs>],
    tier: IndexTier,
) -> Result<ShardedEngine, String> {
    let mut last = String::new();
    for attempt in 0..OPEN_RETRIES {
        if attempt >= SUPPRESS_AFTER {
            for vfs in vfss {
                vfs.set_suppress(true);
            }
        }
        match ShardedEngine::open(
            Path::new(STORE_DIR),
            sim_sharded_options(meta_vfs, vfss, tier),
        ) {
            Ok(engine) => {
                for vfs in vfss {
                    vfs.set_suppress(false);
                }
                return Ok(engine);
            }
            Err(e) => {
                last = e.to_string();
                for vfs in vfss {
                    if vfs.crashed() {
                        vfs.clear_crash();
                    }
                }
            }
        }
    }
    for vfs in vfss {
        vfs.set_suppress(false);
    }
    Err(format!("recovery failed after {OPEN_RETRIES} attempts: {last}"))
}

/// Fault vs. logical classification of an engine error. Fault errors mean
/// durability is in doubt and force a recovery; logical errors must match
/// the oracle's own rejection.
fn is_fault(e: &ServerError) -> bool {
    fn storage_fault(s: &StorageError) -> bool {
        matches!(s, StorageError::WalAppend(_))
    }
    match e {
        ServerError::Io(_) | ServerError::Persist(_) => true,
        ServerError::Storage(s) => storage_fault(s),
        ServerError::Core(CoreError::Storage(s)) => storage_fault(s),
        _ => false,
    }
}

fn wire(id: u64, attrs: &[(String, i64)]) -> WireEntity {
    WireEntity {
        id,
        attrs: attrs.iter().map(|(n, v)| (n.clone(), Value::Int(*v))).collect(),
    }
}

fn oracle_attrs(attrs: &[(String, i64)]) -> Vec<(String, Value)> {
    attrs.iter().map(|(n, v)| (n.clone(), Value::Int(*v))).collect()
}

/// Runs a generated schedule (see [`SimConfig`]).
///
/// # Errors
/// The first divergence, recovery failure or invariant violation.
pub fn run(cfg: &SimConfig) -> Result<RunReport, SimFailure> {
    let shards = cfg.shards.max(1);
    let ops = generate(cfg.seed, cfg.ops, cfg.faults, shards);
    let plan = if cfg.faults { FaultPlan::all() } else { FaultPlan::none() };
    run_ops(&RunSpec {
        seed: cfg.seed,
        faults: cfg.faults,
        shards,
        plan,
        ops: &ops,
        check_every: cfg.check_every,
        arm_crash: None,
        tier: cfg.tier,
    })
}

/// Runs an explicit schedule against a fresh world.
///
/// # Errors
/// The first divergence, recovery failure or invariant violation.
pub fn run_ops(spec: &RunSpec<'_>) -> Result<RunReport, SimFailure> {
    let shards = spec.shards.max(1);
    let clock = Arc::new(VirtualClock::new());
    let vfss: Vec<Arc<SimVfs>> = (0..shards)
        .map(|i| {
            Arc::new(SimVfs::new(
                shard_vfs_seed(spec.seed, i),
                spec.plan,
                Arc::clone(&clock),
            ))
        })
        .collect();
    let meta_vfs = Arc::new(SimVfs::new(
        spec.seed ^ 0x4D45_5441_4D45_5441,
        FaultPlan::none(),
        Arc::clone(&clock),
    ));
    if let Some((shard, k)) = spec.arm_crash {
        let Some(vfs) = vfss.get(shard) else {
            return Err(SimFailure {
                step: None,
                reason: format!("arm_crash targets shard {shard} of a {shards}-shard run"),
            });
        };
        vfs.arm_crash(k);
    }
    let engine = open_sharded(&meta_vfs, &vfss, spec.tier)
        .map_err(|reason| SimFailure { step: None, reason })?;
    let mut world = World {
        tier: spec.tier,
        flip_tier: spec.tier == IndexTier::Tiered,
        vfss,
        meta_vfs,
        clock,
        engine,
        oracle: Oracle::new(),
        workload: Vec::new(),
        restarts: 0,
    };
    let mut trace = Trace::new(spec.seed, spec.faults, shards, spec.ops.to_vec());

    for (index, op) in spec.ops.iter().enumerate() {
        let outcome =
            step(&mut world, op).map_err(|reason| SimFailure { step: Some(index), reason })?;
        let stats = world.engine.stats();
        trace.steps.push(StepRecord {
            index,
            op: op.describe(),
            outcome,
            entities: stats.entities,
            partitions: stats.partitions,
            clock_ns: world.clock.now_ns(),
        });
        if spec.check_every > 0 && (index + 1) % spec.check_every == 0 {
            full_check(&world.engine, &world.oracle, &world.workload)
                .map_err(|reason| SimFailure { step: Some(index), reason })?;
        }
    }
    full_check(&world.engine, &world.oracle, &world.workload)
        .map_err(|reason| SimFailure { step: None, reason: format!("final check: {reason}") })?;

    let per_shard: Vec<u64> = world.vfss.iter().map(|v| v.mutation_count()).collect();
    Ok(RunReport {
        restarts: world.restarts,
        final_entities: world.oracle.len() as u64,
        vfs_mutations: per_shard.iter().sum(),
        vfs_mutations_per_shard: per_shard,
        trace,
    })
}

/// Executes one op against both sides; returns the outcome tag or the
/// failure reason.
fn step(world: &mut World, op: &Op) -> Result<String, String> {
    match op {
        Op::Insert { id, attrs } => {
            let engine_result = world.engine.insert(&wire(*id, attrs)).map(|_| ());
            let mut after = world.oracle.clone();
            let oracle_result = after.insert(*id, &oracle_attrs(attrs));
            resolve_write(world, op, *id, engine_result, oracle_result, after)
        }
        Op::Update { id, attrs } => {
            let engine_result = world.engine.update(&wire(*id, attrs)).map(|_| ());
            let mut after = world.oracle.clone();
            let oracle_result = after.update(*id, &oracle_attrs(attrs));
            resolve_write(world, op, *id, engine_result, oracle_result, after)
        }
        Op::Delete { id } => {
            let engine_result = world.engine.delete(*id);
            let mut after = world.oracle.clone();
            let oracle_result = after.delete(*id);
            resolve_write(world, op, *id, engine_result, oracle_result, after)
        }
        Op::Query { attrs } => step_query(world, attrs),
        Op::Merge => {
            let result = world.engine.merge_pass(0.6).map(|_| ());
            resolve_maintenance(world, op, result)
        }
        Op::Reorg => {
            // Content-neutral like merge: entities move between partitions
            // but the logical store is unchanged, so the unchanged oracle
            // judges the recovery after a mid-action fault.
            let result = world.engine.reorg_step().map(|_| ());
            resolve_maintenance(world, op, result)
        }
        Op::Checkpoint => {
            let result = world.engine.checkpoint();
            let outcome = resolve_maintenance(world, op, result)?;
            // Checkpoint boundaries flip the pruning-index tier of a run
            // that started tiered: it alternates exact ↔ tiered
            // mid-schedule, exercising both runtime switches under the
            // oracle. Exact runs stay exact (the determinism baseline the
            // committed traces were recorded against); auto stays auto
            // (its ratchet is the thing under test). A fault-restart
            // already reapplied the current tier.
            if outcome == "ok" && world.flip_tier {
                world.tier = match world.tier {
                    IndexTier::Exact => IndexTier::Tiered,
                    IndexTier::Tiered => IndexTier::Exact,
                    IndexTier::Auto => IndexTier::Auto,
                };
                world.engine.set_index_tier(world.tier);
            }
            Ok(outcome)
        }
        Op::CrashRestart => {
            // Kill without warning: drop the whole engine mid-flight (no
            // checkpoint, no flush beyond what each op already forced) and
            // recover every shard from whatever its virtual disk holds.
            restart_all(world)?;
            match content_diff(&world.engine, &world.oracle) {
                None => Ok("restart".to_string()),
                Some(d) => Err(format!("state lost across clean kill: {d}")),
            }
        }
        Op::CrashDuringNext { countdown } => {
            // Single-shard form (legacy traces): the crash lands on shard 0.
            world.vfss[0].arm_crash(*countdown);
            Ok("armed".to_string())
        }
        Op::CrashShardDuringNext { shard, countdown } => match world.vfss.get(*shard) {
            Some(vfs) => {
                vfs.arm_crash(*countdown);
                Ok(format!("armed shard {shard}"))
            }
            None => Err(format!(
                "schedule targets shard {shard} but the run has {} shards",
                world.vfss.len()
            )),
        },
    }
}

/// Write-op resolution per the three-way protocol in the module docs. A
/// routed write touches exactly one shard — `world.engine.shard_of(id)` —
/// so a fault there is a *single-domain* failure: the survivors must stay
/// exact while the victim recovers in place.
fn resolve_write(
    world: &mut World,
    op: &Op,
    id: u64,
    engine_result: Result<(), ServerError>,
    oracle_result: Result<(), OracleErr>,
    after: Oracle,
) -> Result<String, String> {
    match engine_result {
        Ok(()) => match oracle_result {
            Ok(()) => {
                world.oracle = after;
                Ok("ok".to_string())
            }
            Err(oe) => Err(format!(
                "engine accepted `{}` but the oracle rejects it with {oe:?}",
                op.describe()
            )),
        },
        Err(e) if !is_fault(&e) => match oracle_result {
            Err(_) => Ok("err-logical".to_string()),
            Ok(()) => Err(format!(
                "engine rejected valid `{}`: {e}",
                op.describe()
            )),
        },
        Err(e) => {
            let victim = world.engine.shard_of(id);
            // The crash-domain claim, machine-checked: with the victim
            // down (not yet recovered), every surviving shard still equals
            // the oracle restricted to the ids it owns. The faulted op's
            // id routes to the victim, so pre- and post-op oracles agree
            // on every survivor.
            surviving_shards_check(world, victim, &world.oracle)?;
            reopen_victim(world, victim)?;
            // Durability on the victim is ambiguous: accept whichever
            // oracle state (pre- or post-op) its disk actually held; for
            // an op the oracle itself rejects, only the pre-state is legal.
            let candidates: Vec<&Oracle> = if oracle_result.is_ok() {
                vec![&world.oracle, &after]
            } else {
                vec![&world.oracle]
            };
            let mut diffs = Vec::new();
            let mut matched: Option<usize> = None;
            for (i, cand) in candidates.iter().enumerate() {
                match content_diff(&world.engine, cand) {
                    None => {
                        matched = Some(i);
                        break;
                    }
                    Some(d) => diffs.push(d),
                }
            }
            match matched {
                Some(1) => {
                    world.oracle = after;
                    Ok(format!("fault-restart-applied ({e})"))
                }
                Some(_) => Ok(format!("fault-restart-dropped ({e})")),
                None => Err(format!(
                    "after fault `{e}` on `{}` (shard {victim}), recovered store \
                     matches neither pre- nor post-op oracle: {}",
                    op.describe(),
                    diffs.join("; ")
                )),
            }
        }
    }
}

/// Maintenance ops (merge, checkpoint) never change logical content, but
/// they fan out over *every* shard, so a fault mid-pass is not a
/// single-domain failure: reboot the whole engine, after which the store
/// must equal the unchanged oracle.
fn resolve_maintenance(
    world: &mut World,
    op: &Op,
    result: Result<(), ServerError>,
) -> Result<String, String> {
    match result {
        Ok(()) => Ok("ok".to_string()),
        Err(e) if !is_fault(&e) => {
            Err(format!("`{}` failed non-fault: {e}", op.describe()))
        }
        Err(e) => {
            restart_all(world)?;
            match content_diff(&world.engine, &world.oracle) {
                None => Ok(format!("fault-restart ({e})")),
                Some(d) => Err(format!(
                    "after fault `{e}` during `{}`, recovered store diverges: {d}",
                    op.describe()
                )),
            }
        }
    }
}

fn step_query(world: &mut World, attrs: &[String]) -> Result<String, String> {
    // Known = interned on at least one shard (the sharded engine projects
    // NULL on shards that have never seen the name; only a name unknown
    // *everywhere* is a typed error, matching the unsharded catalog).
    let known = attrs.iter().all(|a| {
        (0..world.engine.shard_count()).any(|s| {
            world
                .engine
                .shard_engine(s)
                .with_parts(|table, _| table.catalog().lookup(a).is_some())
        })
    });
    let result = world.engine.query(attrs);
    if !known {
        return match result {
            Err(ServerError::UnknownAttribute(_)) => Ok("err-logical".to_string()),
            Ok((rows, _)) => Err(format!(
                "query for unknown attribute(s) {attrs:?} returned {} rows \
                 instead of a typed error",
                rows.len()
            )),
            Err(e) => Err(format!("query {attrs:?} failed unexpectedly: {e}")),
        };
    }
    match result {
        Ok((rows, _)) => {
            let expect = canonical_rows(&world.oracle.query(attrs));
            let got = canonical_rows(&rows);
            if got != expect {
                return Err(format!(
                    "query {attrs:?}: engine returned {} rows, oracle {} \
                     (first diff: engine {:?} vs oracle {:?})",
                    got.len(),
                    expect.len(),
                    got.iter().find(|r| !expect.contains(r)),
                    expect.iter().find(|r| !got.contains(r)),
                ));
            }
            if !world.workload.contains(&attrs.to_vec()) && world.workload.len() < WORKLOAD_CAP
            {
                world.workload.push(attrs.to_vec());
            }
            Ok("ok".to_string())
        }
        Err(e) => Err(format!("query {attrs:?} on known attributes failed: {e}")),
    }
}

/// While the victim shard is down, every other shard must hold *exactly*
/// the oracle entities that route to it — byte-identical attributes, no
/// losses, no strays. This runs before the victim is touched, so it is the
/// literal "surviving shards keep serving, unharmed" property.
fn surviving_shards_check(
    world: &World,
    victim: usize,
    oracle: &Oracle,
) -> Result<(), String> {
    for s in 0..world.engine.shard_count() {
        if s == victim {
            continue;
        }
        let engine = world.engine.shard_engine(s);
        if let Some(d) = shard_content_diff(&engine, oracle, |id| world.engine.shard_of(id) == s)
        {
            return Err(format!(
                "surviving shard {s} diverged while shard {victim} was down: {d}"
            ));
        }
    }
    Ok(())
}

/// Recovers one crashed shard in place ([`ShardedEngine::reopen_shard`]):
/// clear its crash flag and retry through injected faults, suppressing
/// them after [`SUPPRESS_AFTER`] attempts, exactly like a full open. The
/// other shards are never touched.
fn reopen_victim(world: &mut World, victim: usize) -> Result<(), String> {
    let vfs = Arc::clone(&world.vfss[victim]);
    vfs.clear_crash();
    let mut last = String::new();
    let mut recovered = false;
    for attempt in 0..OPEN_RETRIES {
        if attempt >= SUPPRESS_AFTER {
            vfs.set_suppress(true);
        }
        match world.engine.reopen_shard(victim) {
            Ok(()) => {
                recovered = true;
                break;
            }
            Err(e) => {
                last = e.to_string();
                if vfs.crashed() {
                    vfs.clear_crash();
                }
            }
        }
    }
    vfs.set_suppress(false);
    if !recovered {
        return Err(format!(
            "shard {victim} recovery failed after {OPEN_RETRIES} attempts: {last}"
        ));
    }
    world.restarts += 1;
    // The victim rebuilt with the spec's initial tier; reapply the current
    // (possibly checkpoint-flipped) one before checking.
    world.engine.shard_engine(victim).set_index_tier(world.tier);
    // Recovery must restore a structurally valid store; the content
    // comparison is the caller's job (candidates differ per op class).
    structural_check(&world.engine)?;
    efficiency_check(&world.engine, &world.workload)
}

/// Full reboot: clear every shard's crash flag and recover the whole
/// engine from the surviving bytes.
fn restart_all(world: &mut World) -> Result<(), String> {
    for vfs in &world.vfss {
        vfs.clear_crash();
    }
    let engine = open_sharded(&world.meta_vfs, &world.vfss, world.tier)?;
    world.engine = engine;
    world.restarts += 1;
    structural_check(&world.engine)?;
    efficiency_check(&world.engine, &world.workload)
}

/// Structural validation + full content equivalence + efficiency
/// cross-check.
fn full_check(
    engine: &ShardedEngine,
    oracle: &Oracle,
    workload: &[Vec<String>],
) -> Result<(), String> {
    structural_check(engine)?;
    if let Some(d) = content_diff(engine, oracle) {
        return Err(format!("content divergence: {d}"));
    }
    efficiency_check(engine, workload)
}

fn structural_check(engine: &ShardedEngine) -> Result<(), String> {
    match engine.validate() {
        Ok(v) if v.is_empty() => Ok(()),
        Ok(v) => Err(format!("structural validation failed: {}", v.join("; "))),
        Err(e) => Err(format!("validation errored: {e}")),
    }
}

/// Byte-level content comparison across every shard: each shard must hold
/// exactly the oracle entities that hash-route to it, with identical
/// attribute/value maps. Because the per-shard comparison also matches
/// counts, an entity that leaked onto the wrong shard shows up twice: as a
/// stray on the wrong shard and as missing from the right one. Returns the
/// first difference.
pub fn content_diff(engine: &ShardedEngine, oracle: &Oracle) -> Option<String> {
    for s in 0..engine.shard_count() {
        let shard = engine.shard_engine(s);
        if let Some(d) = shard_content_diff(&shard, oracle, |id| engine.shard_of(id) == s) {
            return Some(format!("[shard {s}] {d}"));
        }
    }
    None
}

/// One shard against the slice of the oracle it owns (`owns` is the
/// routing predicate): every owned oracle entity must exist with exactly
/// the same attribute/value map, and counts must match (so the shard holds
/// nothing extra — in particular nothing routed elsewhere).
fn shard_content_diff(
    engine: &Engine,
    oracle: &Oracle,
    owns: impl Fn(u64) -> bool,
) -> Option<String> {
    let owned: Vec<(u64, &BTreeMap<String, Value>)> =
        oracle.entities().filter(|(id, _)| owns(*id)).collect();
    engine.with_parts(|table, _| {
        if table.entity_count() != owned.len() {
            return Some(format!(
                "shard holds {} entities, oracle routes it {}",
                table.entity_count(),
                owned.len()
            ));
        }
        for (id, attrs) in &owned {
            let entity = match table.get(EntityId(*id)) {
                Ok(e) => e,
                Err(e) => return Some(format!("oracle entity {id} unreadable: {e}")),
            };
            let mut got: BTreeMap<String, Value> = BTreeMap::new();
            for (aid, value) in entity.attrs() {
                match table.catalog().name(*aid) {
                    Some(name) => {
                        got.insert(name.to_string(), value.clone());
                    }
                    None => {
                        return Some(format!(
                            "entity {id} has attribute id {aid:?} missing from catalog"
                        ))
                    }
                }
            }
            if &got != *attrs {
                return Some(format!(
                    "entity {id} diverges: store {got:?}, oracle {attrs:?}"
                ));
            }
        }
        None
    })
}

/// Recomputes Definition-1 EFFICIENCY(P) from nothing but raw segment
/// scans (per-entity synopses, partition synopsis = union of members,
/// partition size = sum of members) and compares it against the core
/// implementation, which uses the partitioner's *maintained* synopses —
/// so a drifted synopsis or size counter shows up here even when pruning
/// happens to stay correct. Per shard the comparison is on exact integer
/// counters; globally the check asserts the aggregation contract —
/// EFFICIENCY over the whole store is Σrelevant / Σread of the raw summed
/// counters, never an average of per-shard ratios.
fn efficiency_check(engine: &ShardedEngine, workload: &[Vec<String>]) -> Result<(), String> {
    let mut core_total = (0u64, 0u64);
    let mut independent_total = (0u64, 0u64);
    for s in 0..engine.shard_count() {
        let shard = engine.shard_engine(s);
        let (core, independent) = shard.with_parts(|table, cindy| {
            // Each shard interns names independently: rebuild the query
            // synopses against this shard's own catalog.
            let queries = workload_synopses(table, workload);
            let core = efficiency_counters_for(table, cindy, &queries);
            independent_counters(table, &queries).map(|ind| (core, ind))
        })?;
        if core != independent {
            return Err(format!(
                "shard {s} EFFICIENCY(P) counters mismatch: core {core:?} vs \
                 independent recompute {independent:?} over {} query shapes",
                workload.len()
            ));
        }
        core_total = (core_total.0 + core.0, core_total.1 + core.1);
        independent_total =
            (independent_total.0 + independent.0, independent_total.1 + independent.1);
    }
    let ratio = |(rel, read): (u64, u64)| {
        if read == 0 { 1.0 } else { rel as f64 / read as f64 }
    };
    let global_core = ratio(core_total);
    let global_independent = ratio(independent_total);
    if (global_core - global_independent).abs() > 1e-12 {
        return Err(format!(
            "global EFFICIENCY(P) mismatch: {global_core} from core counters vs \
             {global_independent} from raw recompute"
        ));
    }
    Ok(())
}

fn workload_synopses(table: &UniversalTable, workload: &[Vec<String>]) -> Vec<Synopsis> {
    let universe = table.universe();
    workload
        .iter()
        .filter_map(|attrs| {
            attrs
                .iter()
                .map(|a| table.catalog().lookup(a))
                .collect::<Option<Vec<_>>>()
                .map(|ids| Synopsis::from_attrs(universe, ids))
        })
        .collect()
}

fn independent_counters(
    table: &UniversalTable,
    queries: &[Synopsis],
) -> Result<(u64, u64), String> {
    let universe = table.universe();
    let mut relevant: u64 = 0;
    let mut read: u64 = 0;
    for seg in table.segment_ids().collect::<Vec<_>>() {
        let entities = table
            .scan_collect(seg)
            .map_err(|e| format!("scan of segment {seg} failed: {e}"))?;
        let mut bits: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut partition_size: u64 = 0;
        for entity in &entities {
            let entity_bits: Vec<u32> =
                entity.attrs().iter().map(|(a, _)| a.index()).collect();
            let synopsis = Synopsis::from_bits(universe, entity_bits.iter().copied());
            // SIZE(e) under the Cells model = arity.
            let size = entity.attrs().len() as u64;
            let hits = queries.iter().filter(|q| !q.is_disjoint(&synopsis)).count() as u64;
            relevant += hits * size;
            bits.extend(entity_bits);
            partition_size += size;
        }
        if entities.is_empty() {
            continue;
        }
        let partition_synopsis = Synopsis::from_bits(universe, bits);
        let hits =
            queries.iter().filter(|q| !q.is_disjoint(&partition_synopsis)).count() as u64;
        read += hits * partition_size;
    }
    Ok((relevant, read))
}

/// Crash-schedule exploration, per crash domain: runs the schedule once
/// fault-free to count each shard's VFS mutation space, then re-runs it
/// once per (shard, mutation-index) pair with a crash armed exactly there,
/// requiring full recovery and oracle equivalence every time — the
/// machine-checked form of "N independent crash domains". Returns the
/// number of crash-points exercised across all shards.
///
/// # Errors
/// The first crash-point whose recovery diverges.
pub fn crash_sweep(seed: u64, ops_count: usize, shards: usize) -> Result<u64, SimFailure> {
    crash_sweep_with_tier(seed, ops_count, shards, IndexTier::Exact)
}

/// [`crash_sweep`] with an explicit initial pruning-index tier: the
/// `tiered` sweep proves a crash anywhere in the mutation space recovers
/// to an oracle-equivalent store *and* rebuilds the approximate tier
/// (recovery reapplies the current tier before the structural check, whose
/// tier invariants include the no-false-negative implication).
///
/// # Errors
/// The first crash-point whose recovery diverges.
pub fn crash_sweep_with_tier(
    seed: u64,
    ops_count: usize,
    shards: usize,
    tier: IndexTier,
) -> Result<u64, SimFailure> {
    let shards = shards.max(1);
    let ops = generate(seed, ops_count, false, shards);
    let base = run_ops(&RunSpec {
        seed,
        faults: false,
        shards,
        plan: FaultPlan::none(),
        ops: &ops,
        check_every: 0,
        arm_crash: None,
        tier,
    })?;
    let mut points = 0u64;
    for (shard, &count) in base.vfs_mutations_per_shard.iter().enumerate() {
        for k in 0..count {
            // Dirty tears on, random faults off: the crash is the experiment.
            run_ops(&RunSpec {
                seed,
                faults: false,
                shards,
                plan: FaultPlan::crash_only(),
                ops: &ops,
                check_every: 0,
                arm_crash: Some((shard, k)),
                tier,
            })
            .map_err(|f| SimFailure {
                step: f.step,
                reason: format!(
                    "crash-point {k}/{count} on shard {shard}: {}",
                    f.reason
                ),
            })?;
            points += 1;
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_run_passes_every_check() {
        let cfg = SimConfig {
            seed: 1,
            ops: 300,
            faults: false,
            shards: 1,
            check_every: 1,
            ..SimConfig::default()
        };
        let report = run(&cfg).expect("faultless run");
        assert_eq!(report.restarts, 0);
        assert!(report.final_entities > 0);
        // Determinism: same seed, same trace hash.
        let again = run(&cfg).expect("rerun");
        assert_eq!(report.trace.hash(), again.trace.hash());
    }

    #[test]
    fn faultless_tiered_run_flips_at_checkpoints_and_passes() {
        // Same schedule class as the exact run, but starting tiered: every
        // checkpoint flips the tier, so the oracle, structural validation
        // (tier invariants included), and efficiency checks all run under
        // both representations and across both switch directions.
        let cfg = SimConfig {
            seed: 1,
            ops: 300,
            faults: false,
            shards: 1,
            check_every: 1,
            tier: IndexTier::Tiered,
        };
        let report = run(&cfg).expect("faultless tiered run");
        assert_eq!(report.restarts, 0);
        assert!(report.final_entities > 0);
        let again = run(&cfg).expect("tiered rerun");
        assert_eq!(report.trace.hash(), again.trace.hash());
    }

    #[test]
    fn faulty_tiered_run_recovers_and_stays_deterministic() {
        let cfg = SimConfig {
            seed: 7,
            ops: 400,
            faults: true,
            shards: 2,
            check_every: 4,
            tier: IndexTier::Tiered,
        };
        let a = run(&cfg).expect("faulty tiered run");
        let b = run(&cfg).expect("faulty tiered rerun");
        assert_eq!(a.trace.hash(), b.trace.hash());
    }

    #[test]
    fn small_tiered_crash_sweep_recovers_everywhere() {
        let points =
            crash_sweep_with_tier(3, 25, 1, IndexTier::Tiered).expect("tiered sweep");
        assert!(points > 0, "schedule produced no crash-points");
    }

    #[test]
    fn faulty_run_recovers_and_stays_deterministic() {
        let cfg = SimConfig {
            seed: 7,
            ops: 400,
            faults: true,
            shards: 1,
            check_every: 4,
            ..SimConfig::default()
        };
        let a = run(&cfg).expect("faulty run");
        let b = run(&cfg).expect("faulty rerun");
        assert_eq!(a.trace.hash(), b.trace.hash(), "fault stream must be deterministic");
    }

    #[test]
    fn sharded_faulty_run_recovers_and_stays_deterministic() {
        let cfg = SimConfig {
            seed: 13,
            ops: 400,
            faults: true,
            shards: 3,
            check_every: 4,
            ..SimConfig::default()
        };
        let a = run(&cfg).expect("sharded faulty run");
        let b = run(&cfg).expect("sharded faulty rerun");
        assert_eq!(a.trace.hash(), b.trace.hash(), "sharded runs must be deterministic");
        assert_eq!(a.vfs_mutations_per_shard.len(), 3);
        // Routing spreads the workload: every crash domain saw real I/O.
        for (s, &m) in a.vfs_mutations_per_shard.iter().enumerate() {
            assert!(m > 0, "shard {s} performed no VFS mutations");
        }
    }

    #[test]
    fn small_crash_sweep_recovers_everywhere() {
        let points = crash_sweep(3, 25, 1).expect("sweep");
        assert!(points > 0, "schedule produced no crash-points");
    }

    #[test]
    fn sharded_crash_sweep_kills_each_domain_separately() {
        let points = crash_sweep(5, 20, 2).expect("sharded sweep");
        assert!(points > 0, "sharded schedule produced no crash-points");
    }
}
