//! Partition merging — an extension beyond the paper.
//!
//! The paper's delete routine leaves the partitioning untouched (§III);
//! only empty partitions disappear. Under sustained deletes this strands
//! many underfull partitions: queries pay one union branch (and at least
//! one page) per partition, so efficiency decays even though the data
//! shrinks. §VII lists improving the partitioning's upkeep as future work;
//! this module adds the natural counterpart of the split: a *merge pass*
//! that folds underfull partitions into their best-rated peers.
//!
//! The pass reuses the §IV rating machinery unchanged: an underfull
//! partition is rated against every other partition exactly as if it were
//! one entity with synopsis `p` and size `SIZE(p)` — homogeneity and both
//! heterogeneity terms keep their meaning. A merge happens only when the
//! rating is non-negative (the merged partition would have been formed by
//! Algorithm 1 too) and the target stays within capacity, so a merge can
//! never undo a split that was necessary.

use cind_storage::UniversalTable;

use crate::partitioner::Cinderella;
use crate::CoreError;

/// Report of one [`Cinderella::merge_pass`].
///
/// ```
/// use cind_model::{AttrId, Entity, EntityId, Value};
/// use cind_storage::UniversalTable;
/// use cinderella_core::{Cinderella, Config};
///
/// let mut table = UniversalTable::new(64);
/// let a = table.catalog_mut().intern("a");
/// let mut cindy = Cinderella::new(Config {
///     capacity: 4,
///     weight: 0.3,
///     ..Config::default()
/// });
/// // Overflowing B = 4 fragments same-shape data into several partitions …
/// for i in 0..10u64 {
///     let e = Entity::new(EntityId(i), [(a, Value::Int(1))]).unwrap();
///     cindy.insert(&mut table, e)?;
/// }
/// // … deleting most of it leaves them underfull …
/// for i in 0..8u64 {
///     cindy.delete(&mut table, EntityId(i))?;
/// }
/// // … and the merge pass folds them back together.
/// let report = cindy.merge_pass(&mut table, 0.5)?;
/// assert!(report.merges >= 1);
/// assert_eq!(cindy.catalog().len(), 1);
/// # Ok::<(), cinderella_core::CoreError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MergeReport {
    /// Partitions folded into a peer.
    pub merges: u64,
    /// Entities physically moved.
    pub entities_moved: u64,
    /// Underfull partitions left alone (no peer rated ≥ 0 with room).
    pub kept: u64,
}

impl Cinderella {
    /// Folds underfull partitions (fewer entities than `threshold` × B)
    /// into their best-rated peer, if that peer rates non-negatively and
    /// has room for the whole partition. Returns what happened.
    ///
    /// Run this after bulk deletes, or periodically; it is deliberately
    /// *not* triggered automatically by `delete` — the paper's delete is
    /// O(1) and keeping it that way preserves the measured behaviour.
    ///
    /// # Errors
    /// [`CoreError::MergeThreshold`] unless `0.0 < threshold <= 1.0` (NaN
    /// included), before anything moves; storage errors from moving
    /// entities.
    pub fn merge_pass(
        &mut self,
        table: &mut UniversalTable,
        threshold: f64,
    ) -> Result<MergeReport, CoreError> {
        // The comparisons are false for NaN.
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(CoreError::MergeThreshold);
        }
        let mut report = MergeReport::default();
        // Sweep until quiescent: a merge grows its target, which can make
        // further merges viable. Each merge removes one partition, so the
        // loop terminates.
        loop {
            let mut merged_this_sweep = false;
            report.kept = 0;
            // Smallest partitions first: they gain the most and are the
            // cheapest to move.
            let mut candidates: Vec<_> = self
                .catalog()
                .iter()
                .filter(|m| self.is_underfull(m, threshold))
                .map(|m| (m.entities, m.segment))
                .collect();
            candidates.sort_unstable();

            for (_, seg) in candidates {
                // The catalog changes as we merge; the candidate may be
                // gone (merged into) or may have grown past the threshold.
                let Some(meta) = self.catalog().get(seg) else {
                    continue;
                };
                if !self.is_underfull(meta, threshold) {
                    continue;
                }
                match self.merge_one(table, seg)? {
                    Some(moved) => {
                        report.merges += 1;
                        report.entities_moved += moved;
                        merged_this_sweep = true;
                    }
                    None => report.kept += 1,
                }
            }
            if !merged_this_sweep {
                break;
            }
        }
        self.debug_validate_catalog();
        Ok(report)
    }

    fn is_underfull(&self, meta: &crate::PartitionMeta, threshold: f64) -> bool {
        (meta.entities as f64) < self.config().capacity as f64 * threshold
    }

    /// Tries to fold partition `seg` into its best-rated peer. Returns the
    /// number of entities moved, or `None` if no peer qualifies.
    fn merge_one(
        &mut self,
        table: &mut UniversalTable,
        seg: cind_storage::SegmentId,
    ) -> Result<Option<u64>, CoreError> {
        // The sweep re-checks liveness before calling, but the catalog may
        // shift under multi-candidate sweeps; a vanished candidate is
        // simply nothing to merge.
        let (Some(meta), Some(src_syn)) =
            (self.catalog().get(seg), self.catalog().rating_synopsis(seg))
        else {
            return Ok(None);
        };
        let (src_size, src_entities) = (meta.size, meta.entities);
        let capacity = self.config().capacity;

        // Rate the whole partition like an entity against every peer with
        // room for all of it (ascending, so ties keep the lowest segment).
        let peers: Vec<cind_storage::SegmentId> = self
            .catalog()
            .iter()
            .filter(|peer| peer.segment != seg && peer.entities + src_entities <= capacity)
            .map(|peer| peer.segment)
            .collect();
        let (best, _) =
            self.catalog()
                .best_among(&peers, &src_syn, src_size, self.config().weight);
        let Some((target, _)) = best.filter(|&(_, r)| r >= 0.0) else {
            return Ok(None);
        };

        // Move every member; account in the catalog per entity so the
        // OR-of-members invariant and the starters stay exact.
        self.absorb(table, seg, target).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use cind_model::{AttrId, Entity, EntityId, Value};

    fn entity(id: u64, attrs: &[u32]) -> Entity {
        Entity::new(
            EntityId(id),
            attrs.iter().map(|&a| (AttrId(a), Value::Int(1))),
        )
        .unwrap()
    }

    fn setup(b: u64) -> (UniversalTable, Cinderella) {
        let mut table = UniversalTable::new(64);
        for i in 0..16 {
            table.catalog_mut().intern(&format!("a{i}"));
        }
        let cindy = Cinderella::new(Config {
            weight: 0.3,
            capacity: b,
            ..Config::default()
        });
        (table, cindy)
    }

    /// Build two same-shape partitions by filling one to capacity, then
    /// deleting most of both halves after the split.
    fn fragmented(b: u64) -> (UniversalTable, Cinderella) {
        let (mut table, mut cindy) = setup(b);
        for i in 0..=b {
            cindy.insert(&mut table, entity(i, &[0, 1, 2])).unwrap();
        }
        assert!(cindy.stats().splits >= 1, "setup must split");
        assert!(cindy.catalog().len() >= 2);
        // Delete all but one entity per partition.
        let keep: Vec<EntityId> = cindy
            .catalog()
            .iter()
            .map(|m| {
                let mut first = None;
                table
                    .scan(m.segment, |e| {
                        if first.is_none() {
                            first = Some(e.id());
                        }
                    })
                    .unwrap();
                first.unwrap()
            })
            .collect();
        for i in 0..=b {
            let id = EntityId(i);
            if !keep.contains(&id) && table.location(id).is_some() {
                cindy.delete(&mut table, id).unwrap();
            }
        }
        (table, cindy)
    }

    #[test]
    fn merges_underfull_same_shape_partitions() {
        let (mut table, mut cindy) = fragmented(8);
        let before = cindy.catalog().len();
        assert!(before >= 2);
        let report = cindy.merge_pass(&mut table, 0.5).unwrap();
        assert!(report.merges >= 1, "{report:?}");
        assert_eq!(cindy.catalog().len(), before - report.merges as usize);
        // Everything still stored and the invariants hold.
        let total: u64 = cindy.catalog().iter().map(|m| m.entities).sum();
        assert_eq!(total as usize, table.entity_count());
        for m in cindy.catalog().iter() {
            let mut count = 0;
            table.scan(m.segment, |_| count += 1).unwrap();
            assert_eq!(count, m.entities);
        }
    }

    #[test]
    fn never_merges_dissimilar_partitions() {
        let (mut table, mut cindy) = setup(100);
        cindy.insert(&mut table, entity(0, &[0, 1, 2])).unwrap();
        cindy.insert(&mut table, entity(1, &[8, 9, 10])).unwrap();
        assert_eq!(cindy.catalog().len(), 2);
        let report = cindy.merge_pass(&mut table, 1.0).unwrap();
        assert_eq!(report.merges, 0);
        assert_eq!(report.kept, 2);
        assert_eq!(cindy.catalog().len(), 2);
    }

    #[test]
    fn never_overflows_the_target() {
        let (mut table, mut cindy) = setup(4);
        // Two same-shape partitions of 3 entities each (3 + 3 > B = 4):
        // force them apart with an intervening split.
        for i in 0..5 {
            cindy.insert(&mut table, entity(i, &[0, 1])).unwrap();
        }
        // After the split at the 5th insert, partitions hold {4, 1}.
        let report = cindy.merge_pass(&mut table, 1.0).unwrap();
        for m in cindy.catalog().iter() {
            assert!(m.entities <= 4, "{report:?}");
        }
    }

    #[test]
    fn merge_improves_union_overhead() {
        let (mut table, mut cindy) = fragmented(8);
        let before = cindy.catalog().len();
        cindy.merge_pass(&mut table, 0.5).unwrap();
        assert!(
            cindy.catalog().len() < before,
            "merge pass must shrink the catalog"
        );
    }

    #[test]
    fn bad_threshold_is_an_error() {
        let (mut table, mut cindy) = fragmented(8);
        let before = cindy.catalog().len();
        for threshold in [0.0, 1.5, f64::NAN] {
            assert_eq!(
                cindy.merge_pass(&mut table, threshold),
                Err(CoreError::MergeThreshold),
                "{threshold}"
            );
        }
        assert_eq!(cindy.catalog().len(), before, "nothing merged");
        assert_eq!(cindy.stats().merges, 0);
    }
}
