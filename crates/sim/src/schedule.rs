//! Seeded schedule generation: the operation stream a simulation run
//! drives against the engine.
//!
//! The generator produces mostly-valid operations (it tracks which ids it
//! believes are live) with a deliberate minority of invalid ones —
//! duplicate inserts, deletes of unknown ids, queries naming attributes
//! nothing ever defined — because error paths are where recovery bugs
//! hide. Entities draw from a small set of attribute *groups* (plus a
//! couple of attributes shared by every group) so Algorithm 1 has real
//! shape structure to find, splits trigger at the configured capacity, and
//! merges have candidates after deletes hollow partitions out.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::json::Json;

/// Attribute groups: entities of group `g` draw from `g0..g5` of their
/// group plus the shared attributes.
const GROUPS: usize = 4;
const ATTRS_PER_GROUP: usize = 6;
const SHARED: [&str; 2] = ["id_kind", "stamp"];

/// One step of a simulation schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Insert entity `id` with the given attribute/value pairs.
    Insert {
        /// Entity id.
        id: u64,
        /// Attribute name → integer value pairs.
        attrs: Vec<(String, i64)>,
    },
    /// Replace entity `id`'s attributes wholesale.
    Update {
        /// Entity id.
        id: u64,
        /// Replacement attribute/value pairs.
        attrs: Vec<(String, i64)>,
    },
    /// Delete entity `id`.
    Delete {
        /// Entity id.
        id: u64,
    },
    /// `SELECT attrs` and compare against the oracle.
    Query {
        /// Requested attribute names.
        attrs: Vec<String>,
    },
    /// Run one partition merge pass.
    Merge,
    /// Run one background reorganization step on every shard (heat-driven
    /// re-split / cold-merge, each WAL-framed as a transaction).
    Reorg,
    /// Checkpoint: fold the WAL into a fresh snapshot.
    Checkpoint,
    /// Kill the whole engine without warning and recover from disk.
    CrashRestart,
    /// Arm the VFS to crash mid-I/O `countdown` mutations from now
    /// (single-shard form: the crash lands on shard 0's backend).
    CrashDuringNext {
        /// Mutating VFS operations until the crash fires.
        countdown: u64,
    },
    /// Arm *one shard's* VFS to crash mid-I/O `countdown` of that shard's
    /// mutations from now. The other shards keep serving: the harness must
    /// prove they stay byte-exact while the victim recovers alone.
    CrashShardDuringNext {
        /// The victim crash domain.
        shard: usize,
        /// Mutating VFS operations on that shard until the crash fires.
        countdown: u64,
    },
}

impl Op {
    /// Compact one-line rendering for traces and failure reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Op::Insert { id, attrs } => format!("insert {id} ({} attrs)", attrs.len()),
            Op::Update { id, attrs } => format!("update {id} ({} attrs)", attrs.len()),
            Op::Delete { id } => format!("delete {id}"),
            Op::Query { attrs } => format!("query {attrs:?}"),
            Op::Merge => "merge".to_string(),
            Op::Reorg => "reorg".to_string(),
            Op::Checkpoint => "checkpoint".to_string(),
            Op::CrashRestart => "crash-restart".to_string(),
            Op::CrashDuringNext { countdown } => {
                format!("crash-during-next (countdown {countdown})")
            }
            Op::CrashShardDuringNext { shard, countdown } => {
                format!("crash-shard-during-next (shard {shard}, countdown {countdown})")
            }
        }
    }

    /// Serializes to the trace-file JSON shape.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let pairs = |attrs: &[(String, i64)]| {
            Json::Arr(
                attrs
                    .iter()
                    .map(|(n, v)| {
                        Json::Arr(vec![Json::Str(n.clone()), Json::Num(*v)])
                    })
                    .collect(),
            )
        };
        match self {
            Op::Insert { id, attrs } => Json::Obj(vec![
                ("op".into(), Json::Str("insert".into())),
                ("id".into(), Json::Num(*id as i64)),
                ("attrs".into(), pairs(attrs)),
            ]),
            Op::Update { id, attrs } => Json::Obj(vec![
                ("op".into(), Json::Str("update".into())),
                ("id".into(), Json::Num(*id as i64)),
                ("attrs".into(), pairs(attrs)),
            ]),
            Op::Delete { id } => Json::Obj(vec![
                ("op".into(), Json::Str("delete".into())),
                ("id".into(), Json::Num(*id as i64)),
            ]),
            Op::Query { attrs } => Json::Obj(vec![
                ("op".into(), Json::Str("query".into())),
                (
                    "attrs".into(),
                    Json::Arr(attrs.iter().map(|a| Json::Str(a.clone())).collect()),
                ),
            ]),
            Op::Merge => Json::Obj(vec![("op".into(), Json::Str("merge".into()))]),
            Op::Reorg => Json::Obj(vec![("op".into(), Json::Str("reorg".into()))]),
            Op::Checkpoint => {
                Json::Obj(vec![("op".into(), Json::Str("checkpoint".into()))])
            }
            Op::CrashRestart => {
                Json::Obj(vec![("op".into(), Json::Str("crash-restart".into()))])
            }
            Op::CrashDuringNext { countdown } => Json::Obj(vec![
                ("op".into(), Json::Str("crash-during-next".into())),
                ("countdown".into(), Json::Num(*countdown as i64)),
            ]),
            Op::CrashShardDuringNext { shard, countdown } => Json::Obj(vec![
                ("op".into(), Json::Str("crash-shard-during-next".into())),
                ("shard".into(), Json::Num(*shard as i64)),
                ("countdown".into(), Json::Num(*countdown as i64)),
            ]),
        }
    }

    /// Parses the trace-file JSON shape back into an [`Op`].
    ///
    /// # Errors
    /// A static description of the first structural problem.
    pub fn from_json(json: &Json) -> Result<Op, &'static str> {
        let kind = json.get("op").and_then(Json::as_str).ok_or("op missing 'op' tag")?;
        let id = || json.get("id").and_then(Json::as_u64).ok_or("op missing 'id'");
        let attr_pairs = || -> Result<Vec<(String, i64)>, &'static str> {
            json.get("attrs")
                .and_then(Json::as_arr)
                .ok_or("op missing 'attrs'")?
                .iter()
                .map(|pair| {
                    let items = pair.as_arr().ok_or("attr pair not an array")?;
                    match items {
                        [Json::Str(name), Json::Num(value)] => {
                            Ok((name.clone(), *value))
                        }
                        _ => Err("attr pair shape"),
                    }
                })
                .collect()
        };
        match kind {
            "insert" => Ok(Op::Insert { id: id()?, attrs: attr_pairs()? }),
            "update" => Ok(Op::Update { id: id()?, attrs: attr_pairs()? }),
            "delete" => Ok(Op::Delete { id: id()? }),
            "query" => {
                let attrs = json
                    .get("attrs")
                    .and_then(Json::as_arr)
                    .ok_or("query missing 'attrs'")?
                    .iter()
                    .map(|a| a.as_str().map(str::to_string).ok_or("query attr not a string"))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Op::Query { attrs })
            }
            "merge" => Ok(Op::Merge),
            "reorg" => Ok(Op::Reorg),
            "checkpoint" => Ok(Op::Checkpoint),
            "crash-restart" => Ok(Op::CrashRestart),
            "crash-during-next" => Ok(Op::CrashDuringNext {
                countdown: json
                    .get("countdown")
                    .and_then(Json::as_u64)
                    .ok_or("crash-during-next missing 'countdown'")?,
            }),
            "crash-shard-during-next" => Ok(Op::CrashShardDuringNext {
                shard: json
                    .get("shard")
                    .and_then(Json::as_u64)
                    .ok_or("crash-shard-during-next missing 'shard'")?
                    as usize,
                countdown: json
                    .get("countdown")
                    .and_then(Json::as_u64)
                    .ok_or("crash-shard-during-next missing 'countdown'")?,
            }),
            _ => Err("unknown op tag"),
        }
    }
}

fn group_attr(group: usize, idx: usize) -> String {
    format!("g{group}_a{idx}")
}

/// Generates a seeded schedule of `n` operations. With `faults` off, no
/// crash operations are emitted (the random-fault knobs live in the VFS
/// plan, not here — this flag only gates the *scheduled* crash ops so a
/// fault-free run is a pure functional test). With `shards > 1` the
/// mid-I/O crash ops pick a victim shard, so a schedule exercises
/// single-domain failures while the other domains keep serving.
#[must_use]
pub fn generate(seed: u64, n: usize, faults: bool, shards: usize) -> Vec<Op> {
    generate_with(seed, n, faults, shards, false)
}

/// Drift variant of [`generate`]: the same op mix, but inserts and
/// queries concentrate on a *hot* attribute group that rotates per
/// quarter of the schedule — the workload shape the reorganizer chases.
/// Crash points therefore land while heat is skewed and the driver is
/// mid-adaptation, which uniform schedules rarely reach.
#[must_use]
pub fn generate_drift(seed: u64, n: usize, faults: bool, shards: usize) -> Vec<Op> {
    generate_with(seed, n, faults, shards, true)
}

/// How concentrated a drifting schedule is on its hot group.
const DRIFT_QUERY_FOCUS: f64 = 0.9;
const DRIFT_INSERT_FOCUS: f64 = 0.7;

fn generate_with(seed: u64, n: usize, faults: bool, shards: usize, drift: bool) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC14D_E13A_5C4E_D41E);
    let mut ops = Vec::with_capacity(n);
    let mut next_id: u64 = 1;
    // Ids the generator believes are live — approximate on purpose (an op
    // may fail on the engine); only used to bias toward valid targets.
    let mut live: Vec<u64> = Vec::new();

    for i in 0..n {
        // The hot group rotates each quarter of a drifting schedule.
        let hot = drift.then(|| (i * 4) / n.max(1) % GROUPS);
        let invalid = rng.gen_range(0u32..100) < 12;
        let roll = if faults {
            rng.gen_range(0u32..100)
        } else {
            // Without scheduled crashes, fold their weight into writes.
            rng.gen_range(0u32..91)
        };
        let op = match roll {
            // 48%: insert
            0..=47 => {
                let id = if invalid && !live.is_empty() {
                    // Duplicate insert.
                    live[rng.gen_range(0..live.len())]
                } else {
                    let id = next_id;
                    next_id += 1;
                    live.push(id);
                    id
                };
                Op::Insert { id, attrs: random_attrs(&mut rng, hot) }
            }
            // 12%: update
            48..=59 => {
                let id = pick_id(&mut rng, &live, invalid, &mut next_id);
                Op::Update { id, attrs: random_attrs(&mut rng, hot) }
            }
            // 10%: delete
            60..=69 => {
                let id = pick_id(&mut rng, &live, invalid, &mut next_id);
                live.retain(|&l| l != id);
                Op::Delete { id }
            }
            // 14%: query
            70..=83 => Op::Query { attrs: random_query(&mut rng, invalid, hot) },
            // 2%: merge
            84..=85 => Op::Merge,
            // 2%: explicit reorg step (foreground writes also trigger steps
            // on the driver's own cadence; this op hits the path directly
            // so crash sweeps land inside reorg actions)
            86..=87 => Op::Reorg,
            // 3%: checkpoint
            88..=90 => Op::Checkpoint,
            // 3%: clean-kill restart (the whole engine, every shard)
            91..=93 => Op::CrashRestart,
            // 6%: crash mid-I/O a few mutations from now — on one shard's
            // backend when sharded, so the blast radius is one crash domain
            _ => {
                let countdown = rng.gen_range(1u64..=8);
                if shards > 1 {
                    Op::CrashShardDuringNext { shard: rng.gen_range(0..shards), countdown }
                } else {
                    Op::CrashDuringNext { countdown }
                }
            }
        };
        ops.push(op);
    }
    ops
}

fn pick_id(rng: &mut StdRng, live: &[u64], invalid: bool, next_id: &mut u64) -> u64 {
    if invalid || live.is_empty() {
        // An id nothing ever inserted.
        let id = 1_000_000 + *next_id;
        *next_id += 1;
        id
    } else {
        live[rng.gen_range(0..live.len())]
    }
}

/// Picks the attribute group: the hot one with the given focus when the
/// schedule drifts, uniform otherwise.
fn pick_group(rng: &mut StdRng, hot: Option<usize>, focus: f64) -> usize {
    match hot {
        Some(h) if rng.gen::<f64>() < focus => h,
        _ => rng.gen_range(0..GROUPS),
    }
}

fn random_attrs(rng: &mut StdRng, hot: Option<usize>) -> Vec<(String, i64)> {
    let group = pick_group(rng, hot, DRIFT_INSERT_FOCUS);
    let arity = rng.gen_range(1..=ATTRS_PER_GROUP);
    let mut attrs: Vec<(String, i64)> = (0..arity)
        .map(|i| (group_attr(group, i), rng.gen_range(-1000i64..1000)))
        .collect();
    for shared in SHARED {
        if rng.gen_bool(0.5) {
            attrs.push((shared.to_string(), rng.gen_range(0i64..100)));
        }
    }
    attrs
}

fn random_query(rng: &mut StdRng, invalid: bool, hot: Option<usize>) -> Vec<String> {
    if invalid {
        return vec![format!("ghost_{}", rng.gen_range(0u32..100))];
    }
    let group = pick_group(rng, hot, DRIFT_QUERY_FOCUS);
    let width = rng.gen_range(1..=3usize);
    let mut attrs: Vec<String> =
        (0..width).map(|_| group_attr(group, rng.gen_range(0..ATTRS_PER_GROUP))).collect();
    attrs.dedup();
    if rng.gen_bool(0.2) {
        attrs.push(SHARED[rng.gen_range(0..SHARED.len())].to_string());
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(9, 500, true, 1), generate(9, 500, true, 1));
        assert_ne!(generate(9, 500, true, 1), generate(10, 500, true, 1));
        assert_eq!(generate(9, 500, true, 4), generate(9, 500, true, 4));
    }

    #[test]
    fn drift_schedules_concentrate_queries_on_the_rotating_hot_group() {
        let n = 2000;
        let ops = generate_drift(7, n, false, 1);
        assert_eq!(ops, generate_drift(7, n, false, 1), "drift generation must be seeded");
        assert_ne!(ops, generate(7, n, false, 1), "drift must actually reshape the stream");
        for quarter in 0..4usize {
            let hot = quarter % GROUPS;
            let mut per_group = [0usize; GROUPS];
            for op in &ops[quarter * n / 4..(quarter + 1) * n / 4] {
                let Op::Query { attrs } = op else { continue };
                // Attribute names are `g{group}_a{idx}`; ghost queries
                // (the invalid minority) fail the parse and are skipped.
                let group = attrs
                    .first()
                    .and_then(|a| a.strip_prefix('g'))
                    .and_then(|rest| rest.split('_').next())
                    .and_then(|digits| digits.parse::<usize>().ok());
                if let Some(g) = group.filter(|g| *g < GROUPS) {
                    per_group[g] += 1;
                }
            }
            let total: usize = per_group.iter().sum();
            assert!(
                per_group[hot] * 2 > total,
                "quarter {quarter}: hot group {hot} not dominant in {per_group:?}"
            );
        }
    }

    #[test]
    fn faultless_schedules_have_no_crash_ops() {
        for op in generate(3, 2000, false, 3) {
            assert!(
                !matches!(
                    op,
                    Op::CrashRestart
                        | Op::CrashDuringNext { .. }
                        | Op::CrashShardDuringNext { .. }
                ),
                "faults-off schedule contains {op:?}"
            );
        }
    }

    #[test]
    fn sharded_schedules_target_in_range_victims() {
        let shards = 4;
        let mut targeted = 0usize;
        for op in generate(21, 2000, true, shards) {
            assert!(
                !matches!(op, Op::CrashDuringNext { .. }),
                "sharded schedule emitted the single-shard crash form"
            );
            if let Op::CrashShardDuringNext { shard, countdown } = op {
                assert!(shard < shards, "victim {shard} out of range");
                assert!((1..=8).contains(&countdown));
                targeted += 1;
            }
        }
        assert!(targeted > 0, "no shard-targeted crashes in 2000 ops");
    }

    #[test]
    fn ops_roundtrip_through_json() {
        for shards in [1usize, 3] {
            for op in generate(17, 300, true, shards) {
                let json = op.to_json();
                let back = Op::from_json(&json).expect("roundtrip");
                assert_eq!(back, op, "json {json}");
            }
        }
    }
}
