//! The incremental reorganization executor.
//!
//! [`ReorgDriver::step`] runs between foreground operations under the
//! engine's writer lock and enacts **at most one** cost-cleared action per
//! invocation, with the work bounded by the configured budget — the same
//! order of cost as a single overflow split, so a background step never
//! stalls the write path for longer than Algorithm 1 itself can.
//!
//! Action selection each step, in priority order:
//!
//! 1. **Re-split** a hot mixed partition — the only action that *gains*
//!    Definition-1 efficiency outright, so it goes first.
//! 2. **Migrate** one entity out of the hottest partition to the partition
//!    whose synopsis rates it highest, when the priced scan-cost delta is
//!    a guaranteed saving (see [`crate::cost::migrate_delta`]).
//! 3. **Merge** two cold underfull partitions — housekeeping that trims
//!    catalog overhead; enacted only when its exactly-priced efficiency
//!    damage stays under the hysteresis bar.
//!
//! Every enacted action is WAL-framed by the core seams it calls
//! ([`Cinderella::resplit`], [`Cinderella::migrate_entity`],
//! [`Cinderella::merge_partitions`]), so a crash mid-action recovers to
//! the pre- or post-action state — the simulation harness sweeps every
//! such crash point.

use cind_model::{EntityId, Synopsis};
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::{Capacity, Cinderella, CoreError, ReorgConfig};

use crate::cost::{merge_damage, migrate_delta, resplit_saving, scan_cost};
use crate::heat::HeatMap;

/// How many of the smallest cold partitions the merge search pairs up per
/// step — bounds the pair sweep at 28 cost evaluations.
const MERGE_POOL: usize = 8;

/// One enacted reorganization action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionKind {
    /// Partition re-split through the split machinery.
    Resplit {
        /// The partition that was split.
        seg: SegmentId,
        /// The two partitions it became.
        into: (SegmentId, SegmentId),
    },
    /// Entity migrated to the partition rating it highest.
    Migrate {
        /// The entity that moved.
        id: EntityId,
        /// Where it lived before the step.
        from: SegmentId,
        /// Where it landed.
        to: SegmentId,
    },
    /// Cold partition folded into a peer.
    Merge {
        /// The partition that was drained and dropped.
        from: SegmentId,
        /// The surviving partition that absorbed it.
        into: SegmentId,
    },
}

/// What one [`ReorgDriver::step`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepReport {
    /// The enacted action, if any cleared the hysteresis bar.
    pub action: Option<ActionKind>,
    /// The model's workload-weighted scan-cost delta for the action
    /// (negative = predicted saving; a merge's damage is positive). The
    /// efficiency property test checks the *measured* delta against this
    /// prediction's sign.
    pub predicted_delta: i128,
    /// Entities physically moved by the action.
    pub entities_moved: u64,
}

/// Cumulative driver counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorgStats {
    /// Steps executed (including no-op steps).
    pub steps: u64,
    /// Re-splits enacted.
    pub resplits: u64,
    /// Entity migrations enacted.
    pub migrations: u64,
    /// Cold merges enacted.
    pub merges: u64,
    /// Entities physically moved across all actions.
    pub entities_moved: u64,
}

/// The background reorganizer: heat tracking plus the step executor.
/// One driver per engine (per shard); all state is in-memory and rebuilt
/// empty after a crash — heat is advisory, the WAL-framed actions carry
/// the durability.
#[derive(Debug)]
pub struct ReorgDriver {
    cfg: ReorgConfig,
    heat: HeatMap,
    ops_since_step: u64,
    stats: ReorgStats,
}

impl ReorgDriver {
    /// A driver with the given knobs (heat decays every `cfg.epoch_ops`).
    #[must_use]
    pub fn new(cfg: ReorgConfig) -> Self {
        Self {
            heat: HeatMap::new(cfg.epoch_ops),
            cfg,
            ops_since_step: 0,
            stats: ReorgStats::default(),
        }
    }

    /// The configured knobs.
    #[must_use]
    pub fn config(&self) -> &ReorgConfig {
        &self.cfg
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> ReorgStats {
        self.stats
    }

    /// The heat map (read access for observability and tests).
    #[must_use]
    pub fn heat(&self) -> &HeatMap {
        &self.heat
    }

    /// Feeds one query into the heat map: its synopsis plus the partitions
    /// that survived pruning for it. Returns `true` when a step is due.
    pub fn record_query(
        &mut self,
        query: &Synopsis,
        scanned: impl IntoIterator<Item = SegmentId>,
    ) -> bool {
        if !self.cfg.enabled() {
            return false;
        }
        self.heat.record_query(query, scanned);
        self.bump()
    }

    /// Feeds one mutation (insert / update / delete) into the cadence and
    /// decay clocks. Returns `true` when a step is due.
    pub fn record_write(&mut self) -> bool {
        if !self.cfg.enabled() {
            return false;
        }
        self.heat.record_op();
        self.bump()
    }

    fn bump(&mut self) -> bool {
        self.ops_since_step += 1;
        self.ops_since_step >= self.cfg.epoch_ops
    }

    /// Runs one bounded reorganization step: price the candidates against
    /// the decayed workload, enact the best action that clears the
    /// hysteresis bar (at most one), and report what happened. Call under
    /// the engine's writer discipline — the enacted seams mutate the table
    /// and catalog together.
    ///
    /// # Errors
    /// Storage errors from the enacted action's moves; WAL commit
    /// failures.
    pub fn step(
        &mut self,
        table: &mut UniversalTable,
        cindy: &mut Cinderella,
    ) -> Result<StepReport, CoreError> {
        self.ops_since_step = 0;
        if !self.cfg.enabled() {
            return Ok(StepReport::default());
        }
        self.stats.steps += 1;
        let workload = self.heat.workload().to_vec();
        if workload.is_empty() {
            return Ok(StepReport::default());
        }

        // Owned snapshot of the pruning view — the enactments below take
        // `&mut Cinderella`.
        let parts: Vec<(SegmentId, Synopsis, u64)> = cindy
            .catalog()
            .pruning_view()
            .map(|(seg, syn, size)| (seg, syn.clone(), size))
            .collect();
        let per_part = |seg: SegmentId| -> u128 {
            parts
                .iter()
                .find(|(s, _, _)| *s == seg)
                .map_or(0, |(_, syn, size)| scan_cost([(syn, *size)], &workload))
        };
        // Hysteresis bar for a gain touching `cost`: at least the
        // configured fraction of it, and never zero — a zero-gain action
        // is churn.
        let gain_bar = |cost: u128| -> u128 {
            let scaled = (cost as f64 * self.cfg.threshold).ceil();
            (scaled as u128).max(1)
        };

        // 1) Re-split the hot mixed partition with the best priced saving.
        let mut best_split: Option<(SegmentId, u128)> = None;
        for (seg, syn, size) in &parts {
            if self.heat.heat(*seg) == 0 {
                continue;
            }
            let Some(meta) = cindy.catalog().get(*seg) else { continue };
            // Budget bounds the entities a step may move; the starter pair
            // must exist and actually separate something.
            if meta.entities < 2
                || meta.entities > self.cfg.budget
                || meta.starters.pair_diff() == 0
            {
                continue;
            }
            let (Some((_, seed_a)), Some((_, seed_b))) =
                (meta.starters.a(), meta.starters.b())
            else {
                continue;
            };
            let saving = resplit_saving((syn, *size), seed_a, seed_b, &workload);
            if saving >= gain_bar(per_part(*seg))
                && best_split.is_none_or(|(_, s)| s < saving)
            {
                best_split = Some((*seg, saving));
            }
        }
        if let Some((seg, saving)) = best_split {
            let moves_before = cindy.stats().split_moves;
            if let Some(into) = cindy.resplit(table, seg)? {
                let moved = cindy.stats().split_moves - moves_before;
                self.stats.resplits += 1;
                self.stats.entities_moved += moved;
                return Ok(StepReport {
                    action: Some(ActionKind::Resplit { seg, into }),
                    predicted_delta: -(saving as i128),
                    entities_moved: moved,
                });
            }
        }

        // 2) Migrate one entity out of the hottest partition (one per
        // step: the conservative delta is only a *guaranteed* saving for a
        // single move). Deterministic hot pick: max heat, ties to the
        // lowest segment id.
        let hottest = parts
            .iter()
            .filter(|(seg, _, _)| self.heat.heat(*seg) > 0)
            .max_by_key(|(seg, _, _)| (self.heat.heat(*seg), std::cmp::Reverse(*seg)));
        if let Some((seg, psyn, psize)) = hottest {
            if let Some((id, to, delta)) =
                self.pick_migration(table, cindy, *seg, psyn, *psize, &workload)?
            {
                if delta < 0 && delta.unsigned_abs() >= gain_bar(per_part(*seg)) {
                    let landed = cindy.migrate_entity(table, id)?;
                    self.stats.migrations += 1;
                    self.stats.entities_moved += 1;
                    return Ok(StepReport {
                        action: Some(ActionKind::Migrate { id, from: *seg, to: landed }),
                        // `landed` can differ from the priced target when
                        // the re-insert rating flips; the conservative
                        // model still bounds the common case, and the
                        // property check carries the hysteresis slack.
                        predicted_delta: if landed == to { delta } else { 0 },
                        entities_moved: 1,
                    });
                }
            }
        }

        // 3) Cold housekeeping: fold the cheapest pair of cold underfull
        // partitions when the exactly-priced damage stays under the bar.
        // The bar is *pair-local* — the hysteresis fraction of the two
        // candidates' own current scan cost, not of the catalog total. A
        // flash crowd inflates the total with the hammered partitions'
        // traffic, and a total-relative bar then waves through merges
        // whose damage to the background workload is very real; a pair
        // the remembered workload doesn't touch has bar zero, so only
        // provably free merges clear it.
        // A flash crowd hammers one query shape, which starves every other
        // partition of heat without the workload having actually moved on
        // — and a merge enacted on that false "cold" signal is paid back
        // with interest when the crowd passes (PR 9's bench recorded the
        // loss). Two guards keep such merges off the menu:
        //
        // * **Monopoly veto**: while a single shape carries the majority
        //   of the window's weight, the sample is not representative of
        //   what the workload touches, so cold-merge housekeeping is
        //   suspended outright for the step. Organic mixes (steady,
        //   drift, churn) spread weight over many shapes and never
        //   trip this.
        // * **Cool-off veto**: a partition scanned within the last few
        //   epochs is not cold even if halving already erased its
        //   counter — covers the crowd's rise and fall edges, where the
        //   window is mixed enough to escape the monopoly test.
        let total_weight: u64 = workload.iter().map(|(_, w)| *w).sum();
        let top_weight: u64 = workload.iter().map(|(_, w)| *w).max().unwrap_or(0);
        if top_weight * 2 > total_weight {
            return Ok(StepReport::default());
        }
        let mut cold: Vec<(u64, SegmentId)> = parts
            .iter()
            .filter(|(seg, _, _)| {
                self.heat.heat(*seg) == 0 && !self.heat.recently_scanned(*seg)
            })
            .filter_map(|(seg, _, _)| {
                let meta = cindy.catalog().get(*seg)?;
                let underfull = match cindy.config().capacity {
                    Capacity::MaxEntities(b) => meta.entities * 2 <= b,
                    Capacity::MaxSize(b) => meta.size * 2 <= b,
                };
                (underfull && meta.entities <= self.cfg.budget)
                    .then_some((meta.entities, *seg))
            })
            .collect();
        cold.sort_unstable();
        cold.truncate(MERGE_POOL);
        let mut best_merge: Option<(SegmentId, SegmentId, u128)> = None;
        for (i, &(ents_a, a)) in cold.iter().enumerate() {
            for &(ents_b, b) in &cold[i + 1..] {
                let (Some((syn_a, size_a)), Some((syn_b, size_b))) =
                    (part_view(&parts, a), part_view(&parts, b))
                else {
                    continue;
                };
                let fits = match cindy.config().capacity {
                    Capacity::MaxEntities(cap) => ents_a + ents_b <= cap,
                    Capacity::MaxSize(cap) => size_a + size_b <= cap,
                };
                if !fits {
                    continue;
                }
                let damage = merge_damage((syn_a, size_a), (syn_b, size_b), &workload);
                let damage_bar =
                    ((per_part(a) + per_part(b)) as f64 * self.cfg.threshold) as u128;
                if damage <= damage_bar
                    && best_merge.is_none_or(|(_, _, d)| damage < d)
                {
                    // Fold the smaller (fewer moves) into the larger.
                    best_merge = Some(if ents_a <= ents_b {
                        (a, b, damage)
                    } else {
                        (b, a, damage)
                    });
                }
            }
        }
        if let Some((from, into, damage)) = best_merge {
            if let Some(moved) = cindy.merge_partitions(table, from, into)? {
                self.stats.merges += 1;
                self.stats.entities_moved += moved;
                return Ok(StepReport {
                    action: Some(ActionKind::Merge { from, into }),
                    predicted_delta: damage as i128,
                    entities_moved: moved,
                });
            }
        }

        Ok(StepReport::default())
    }

    /// Scans the hot partition and prices each member's best migration;
    /// returns the most-saving candidate (entity, target, priced delta).
    /// The scan is the step's bounded I/O — one partition, same class as
    /// the split's read.
    fn pick_migration(
        &self,
        table: &UniversalTable,
        cindy: &Cinderella,
        seg: SegmentId,
        psyn: &Synopsis,
        psize: u64,
        workload: &[(Synopsis, u64)],
    ) -> Result<Option<(EntityId, SegmentId, i128)>, CoreError> {
        let cfg = cindy.config();
        let mut best: Option<(EntityId, SegmentId, i128)> = None;
        for (id, attr_syn, size_e) in cindy.members(table, seg)? {
            // Screen as Algorithm 1 would place the entity today: a
            // strictly different, non-negatively rated target with room
            // (a migration must never trigger a split).
            let (bp, _) =
                cindy
                    .catalog()
                    .best_partition(&cfg.mode.rating_of(&attr_syn), size_e, cfg.weight);
            let Some((target, r)) = bp else { continue };
            if target == seg || r < 0.0 {
                continue;
            }
            let Some(tmeta) = cindy.catalog().get(target) else { continue };
            if cfg.capacity.would_overflow(tmeta.entities, tmeta.size, size_e) {
                continue;
            }
            let delta = migrate_delta(
                (&attr_syn, size_e),
                (psyn, psize),
                (&tmeta.attr_synopsis, tmeta.size),
                workload,
            );
            if delta < 0 && best.is_none_or(|(_, _, d)| delta < d) {
                best = Some((id, target, delta));
            }
        }
        Ok(best)
    }

}

fn part_view(
    parts: &[(SegmentId, Synopsis, u64)],
    seg: SegmentId,
) -> Option<(&Synopsis, u64)> {
    parts
        .iter()
        .find(|(s, _, _)| *s == seg)
        .map(|(_, syn, size)| (syn, *size))
}
