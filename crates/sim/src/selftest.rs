//! Harness self-test: prove the simulator can actually catch a defect.
//!
//! A checker that never fires is indistinguishable from a checker that
//! works. This module injects single-byte bit-rot into one shard's WAL of
//! a *sharded* store holding committed entries and classifies what
//! recovery does with it:
//!
//! * **loud** — recovery refuses the log (checksum or decode failure);
//! * **clean** — recovery succeeds and the store still equals the oracle
//!   (the flipped byte landed somewhere immaterial, e.g. inside the stored
//!   checksum of an entry whose body still decodes — only possible when
//!   verification is off — or the corruption was classified as a torn
//!   tail carrying no committed data);
//! * **silent** — recovery succeeds but the store *diverges* from the
//!   oracle: corruption slipped through.
//!
//! A correct build must never be silent: every flipped byte is either
//! rejected or provably immaterial. The `sim-defect` feature deliberately
//! disables WAL body checksum verification in `cind-storage`; under that
//! build this same sweep must find at least one silent corruption within a
//! bounded seed budget — demonstrating the oracle end of the harness does
//! the catching, not just the checksums. Running it against the sharded
//! layout also pins the layout itself: the corrupted WAL lives at
//! `shard-NNNN/wal.log`, and only that crash domain's entries are at risk.

use std::path::Path;
use std::sync::Arc;

use cind_model::Value;
use cind_server::{shard_dir_name, ShardRouter, ShardedEngine};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::clock::VirtualClock;
use crate::harness::{content_diff, shard_vfs_seed, sim_sharded_options, STORE_DIR};
use crate::oracle::Oracle;
use crate::vfs::{FaultPlan, SimVfs};

/// Entities loaded before corrupting the log.
const LOAD: u64 = 40;

/// Crash domains in the self-test store: enough to prove the sharded
/// layout while keeping each WAL well-populated.
const SHARDS: usize = 2;

/// Classification counts over a seed sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTestReport {
    /// Seeds where recovery rejected the corrupted log.
    pub loud: u64,
    /// Seeds where the flip was immaterial (store still equals oracle).
    pub clean: u64,
    /// Seeds where corruption slipped through undetected by recovery —
    /// caught only by the oracle comparison.
    pub silent: u64,
    /// First seed that produced a silent corruption, for reproduction.
    pub first_silent: Option<u64>,
}

/// End of the first WAL frame (`varint(len) + len + 8`-byte checksum) —
/// the epoch header, which corruption must skip: damaging it makes the
/// whole log stale/legacy rather than corrupt, a different (already
/// tested) path.
fn first_frame_end(bytes: &[u8]) -> Option<usize> {
    let mut len: usize = 0;
    let mut shift = 0;
    let mut pos = 0;
    loop {
        let b = *bytes.get(pos)?;
        pos += 1;
        len |= usize::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 28 {
            return None;
        }
    }
    let end = pos + len + 8;
    (end <= bytes.len()).then_some(end)
}

/// Runs the bit-rot sweep over `seeds` seeds.
///
/// # Errors
/// Setup failures (the store could not even be built) — not corruption
/// outcomes, which are counted in the report.
pub fn self_test(seeds: u64) -> Result<SelfTestReport, String> {
    let mut report = SelfTestReport::default();
    for seed in 0..seeds {
        match one_seed(seed)? {
            Outcome::Loud => report.loud += 1,
            Outcome::Clean => report.clean += 1,
            Outcome::Silent => {
                report.silent += 1;
                report.first_silent.get_or_insert(seed);
            }
        }
    }
    Ok(report)
}

enum Outcome {
    Loud,
    Clean,
    Silent,
}

fn one_seed(seed: u64) -> Result<Outcome, String> {
    let clock = Arc::new(VirtualClock::new());
    let vfss: Vec<Arc<SimVfs>> = (0..SHARDS)
        .map(|i| {
            Arc::new(SimVfs::new(shard_vfs_seed(seed, i), FaultPlan::none(), Arc::clone(&clock)))
        })
        .collect();
    let meta_vfs =
        Arc::new(SimVfs::new(seed ^ 0x4D45_5441_4D45_5441, FaultPlan::none(), Arc::clone(&clock)));
    let opts = || sim_sharded_options(&meta_vfs, &vfss, cinderella_core::IndexTier::Exact);
    let engine = ShardedEngine::open(Path::new(STORE_DIR), opts())
        .map_err(|e| format!("seed {seed}: initial open failed: {e}"))?;

    // Corrupt the busier shard's WAL so there are always committed entries
    // past the epoch header. Routing depends only on the (fixed) id range,
    // so the victim is the same for every seed.
    let router = ShardRouter::new(SHARDS);
    let mut per_shard = [0u64; SHARDS];
    for id in 1..=LOAD {
        per_shard[router.route(id)] += 1;
    }
    let victim = per_shard
        .iter()
        .enumerate()
        .max_by_key(|(_, &n)| n)
        .map_or(0, |(s, _)| s);
    let victim_total = per_shard[victim];
    let wal_path = Path::new(STORE_DIR).join(shard_dir_name(victim)).join("wal.log");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1F_7E57_5E1F_7E57);
    let mut oracle = Oracle::new();
    let mut mid_len = 0usize;
    let mut victim_seen = 0u64;
    for id in 1..=LOAD {
        let arity = rng.gen_range(1usize..=5);
        let group = rng.gen_range(0u32..4);
        let attrs: Vec<(String, Value)> = (0..arity)
            .map(|i| {
                (format!("g{group}_a{i}"), Value::Int(rng.gen_range(-1000i64..1000)))
            })
            .collect();
        engine
            .insert(&cind_server::WireEntity { id, attrs: attrs.clone() })
            .map_err(|e| format!("seed {seed}: load insert {id} failed: {e}"))?;
        oracle
            .insert(id, &attrs)
            .map_err(|e| format!("seed {seed}: oracle insert {id} failed: {e:?}"))?;
        if router.route(id) == victim {
            victim_seen += 1;
            if victim_seen == victim_total / 2 {
                mid_len = vfss[victim].log_end(&wal_path).unwrap_or(0);
            }
        }
    }
    // Kill without checkpoint: the entries live only in the per-shard WALs.
    drop(engine);

    let bytes = vfss[victim]
        .file_bytes(&wal_path)
        .ok_or_else(|| format!("seed {seed}: no WAL file for shard {victim}"))?;
    let lo = first_frame_end(&bytes)
        .ok_or_else(|| format!("seed {seed}: cannot frame the WAL head"))?;
    if mid_len <= lo {
        return Err(format!("seed {seed}: WAL too short to corrupt ({mid_len} <= {lo})"));
    }
    // Flip one byte strictly inside the committed region — entries follow
    // it, so this is never a torn tail.
    let offset = rng.gen_range(lo..mid_len);
    let mask = rng.gen_range(1u32..=255) as u8;
    if !vfss[victim].corrupt_byte(&wal_path, offset, mask) {
        return Err(format!("seed {seed}: corrupt_byte({offset}) out of range"));
    }

    match ShardedEngine::open(Path::new(STORE_DIR), opts()) {
        Err(_) => Ok(Outcome::Loud),
        Ok(engine) => match content_diff(&engine, &oracle) {
            Some(_) => Ok(Outcome::Silent),
            None => Ok(Outcome::Clean),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The build-appropriate assertion: a correct build never lets
    /// corruption through silently; the `sim-defect` build (checksum
    /// verification off) must produce at least one silent corruption the
    /// oracle catches — proving the harness detects what the checksums
    /// normally hide, even under the sharded on-disk layout.
    #[test]
    fn bit_rot_is_never_silent_unless_the_defect_is_compiled_in() {
        let budget = if cfg!(feature = "sim-defect") { 24 } else { 12 };
        let report = self_test(budget).expect("self-test setup");
        if cfg!(feature = "sim-defect") {
            assert!(
                report.silent >= 1,
                "sim-defect build: oracle caught no silent corruption in \
                 {budget} seeds ({report:?})"
            );
        } else {
            assert_eq!(
                report.silent, 0,
                "correct build let corruption through silently ({report:?})"
            );
        }
    }
}
