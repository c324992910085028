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
//! 2. **Merge** two cold underfull partitions — housekeeping that trims
//!    catalog overhead; enacted only when its exactly-priced efficiency
//!    damage stays under the hysteresis bar.
//!
//! Both are priced from the partition catalog alone (synopses, sizes,
//! starter pairs): choosing an action reads no table page. Every enacted
//! action is WAL-framed by the core seam it calls
//! ([`Cinderella::resplit`], [`Cinderella::merge_partitions`]), so a crash
//! mid-action recovers to the pre- or post-action state — the simulation
//! harness sweeps every such crash point.

use cind_model::{EntityId, Synopsis};
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::{Capacity, Cinderella, CoreError, PartitionMeta, ReorgConfig};

use crate::cost::{merge_damage, resplit_saving, scan_cost, WeightedQueries};
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
    /// Never produced; kept only because the frozen benchmark names it.
    Migrate {
        /// Unused.
        id: EntityId,
        /// Unused.
        from: SegmentId,
        /// Unused.
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
}

/// Cumulative driver counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorgStats {
    /// Steps executed (including no-op steps).
    pub steps: u64,
    /// Re-splits enacted.
    pub resplits: u64,
    /// Always 0: never produced; kept only because the frozen benchmark
    /// names it.
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
        let workload = self.heat.workload();
        // Heat can outlive the window it came from; against an empty window
        // every merge would price as free.
        if workload.is_empty() {
            return Ok(StepReport::default());
        }

        if let Some((seg, saving)) = self.pick_resplit(cindy, workload) {
            let moves_before = cindy.stats().split_moves;
            if let Some(into) = cindy.resplit(table, seg)? {
                self.stats.resplits += 1;
                self.stats.entities_moved += cindy.stats().split_moves - moves_before;
                return Ok(StepReport {
                    action: Some(ActionKind::Resplit { seg, into }),
                    predicted_delta: -(saving as i128),
                });
            }
        }
        if let Some((from, into, damage)) = self.pick_merge(cindy, workload) {
            if let Some(moved) = cindy.merge_partitions(table, from, into)? {
                self.stats.merges += 1;
                self.stats.entities_moved += moved;
                return Ok(StepReport {
                    action: Some(ActionKind::Merge { from, into }),
                    predicted_delta: damage as i128,
                });
            }
        }
        Ok(StepReport::default())
    }

    /// The hot mixed partition whose re-split has the best priced saving
    /// (ties to the first in catalog order), with that saving.
    fn pick_resplit(
        &self,
        cindy: &Cinderella,
        workload: &WeightedQueries,
    ) -> Option<(SegmentId, u128)> {
        let mut best: Option<(SegmentId, u128)> = None;
        for meta in cindy.catalog().iter() {
            if self.heat.heat(meta.segment) == 0 {
                continue;
            }
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
            let part = (&meta.attr_synopsis, meta.size);
            let saving = resplit_saving(part, seed_a, seed_b, workload);
            // Hysteresis bar: at least the configured fraction of the
            // partition's current cost, and never zero — a zero-gain
            // action is churn.
            let bar = (scan_cost([part], workload) as f64 * self.cfg.threshold).ceil();
            if saving >= (bar as u128).max(1) && best.is_none_or(|(_, s)| s < saving) {
                best = Some((meta.segment, saving));
            }
        }
        best
    }

    /// The cheapest pair of cold underfull partitions whose exactly-priced
    /// merge damage stays under the bar, as `(from, into, damage)` with the
    /// smaller side (fewer moves) folded into the larger.
    ///
    /// The bar is *pair-local* — the hysteresis fraction of the two
    /// candidates' own current scan cost, not of the catalog total. A
    /// flash crowd inflates the total with the hammered partitions'
    /// traffic, and a total-relative bar then waves through merges whose
    /// damage to the background workload is very real; a pair the
    /// remembered workload doesn't touch has bar zero, so only provably
    /// free merges clear it.
    ///
    /// A flash crowd hammers one query shape, which starves every other
    /// partition of heat without the workload having actually moved on —
    /// and a merge enacted on that false "cold" signal is paid back with
    /// interest when the crowd passes (the `reorg` bench's flash-crowd
    /// scenario recorded the loss). Two guards keep such merges off the
    /// menu:
    ///
    /// * **Monopoly veto**: while a single shape carries the majority of
    ///   the window's weight, the sample is not representative of what the
    ///   workload touches, so cold-merge housekeeping is suspended outright
    ///   for the step. Organic mixes (steady, drift, churn) spread weight
    ///   over many shapes and never trip this.
    /// * **Cool-off veto**: a partition scanned within the last few epochs
    ///   is not cold even if halving already erased its counter — covers
    ///   the crowd's rise and fall edges, where the window is mixed enough
    ///   to escape the monopoly test.
    fn pick_merge(
        &self,
        cindy: &Cinderella,
        workload: &WeightedQueries,
    ) -> Option<(SegmentId, SegmentId, u128)> {
        let total_weight: u64 = workload.iter().map(|(_, w)| *w).sum();
        let top_weight: u64 = workload.iter().map(|(_, w)| *w).max().unwrap_or(0);
        if top_weight * 2 > total_weight {
            return None;
        }
        let capacity = cindy.config().capacity;
        let mut cold: Vec<&PartitionMeta> = cindy
            .catalog()
            .iter()
            .filter(|m| {
                let underfull = match capacity {
                    Capacity::MaxEntities(b) => m.entities * 2 <= b,
                    Capacity::MaxSize(b) => m.size * 2 <= b,
                };
                self.heat.heat(m.segment) == 0
                    && !self.heat.recently_scanned(m.segment)
                    && underfull
                    && m.entities <= self.cfg.budget
            })
            .collect();
        cold.sort_unstable_by_key(|m| (m.entities, m.segment));
        cold.truncate(MERGE_POOL);
        let mut best: Option<(SegmentId, SegmentId, u128)> = None;
        for (i, a) in cold.iter().enumerate() {
            for b in &cold[i + 1..] {
                let fits = match capacity {
                    Capacity::MaxEntities(cap) => a.entities + b.entities <= cap,
                    Capacity::MaxSize(cap) => a.size + b.size <= cap,
                };
                if !fits {
                    continue;
                }
                let (pa, pb) = ((&a.attr_synopsis, a.size), (&b.attr_synopsis, b.size));
                let damage = merge_damage(pa, pb, workload);
                let bar = (scan_cost([pa, pb], workload) as f64 * self.cfg.threshold) as u128;
                if damage <= bar && best.is_none_or(|(_, _, d)| damage < d) {
                    best = Some(if a.entities <= b.entities {
                        (a.segment, b.segment, damage)
                    } else {
                        (b.segment, a.segment, damage)
                    });
                }
            }
        }
        best
    }
}
