//! Partition heat tracking with a deterministic epoch-based sliding
//! window.
//!
//! Cinderella adapts only on insert; once an entity lands, nothing in the
//! paper re-examines the placement when the *query* workload moves. The
//! heat map is the reorganizer's memory of that workload: per-partition
//! scan counters (how often a partition survived pruning for a query) and
//! a bounded set of recent distinct query synopses with occurrence
//! weights — the empirical workload the cost model prices candidate
//! actions against.
//!
//! Decay is **op-count based, never wall-clock** (rule CIND-A005, which
//! this crate's `clippy.toml` enforces by banning `Instant::now` and
//! `SystemTime`): after
//! `epoch_ops` recorded operations the epoch advances and every counter
//! and weight is halved (integer division, entries reaching zero are
//! dropped). A run is thus a pure function of its operation sequence —
//! the simulation harness replays byte-identical decisions.

use std::collections::BTreeMap;

use cind_model::Synopsis;
use cind_storage::SegmentId;

/// Upper bound on distinct query synopses remembered as the workload.
/// Matches the simulation harness's own `WORKLOAD_CAP` order of magnitude:
/// enough to capture a drifting mix, small enough that the cost model's
/// full sweep stays trivially cheap.
pub const WORKLOAD_CAP: usize = 32;

/// Epochs a partition stays merge-vetoed after its last scan. Halving
/// decay erases one or two scans within a couple of epochs, so "decayed
/// heat is zero" alone does not mean "the workload is done with this
/// partition" — during a flash crowd the hammered pair starves everyone
/// else of heat, the merge phase folds partitions the background workload
/// still touches, and the post-crowd re-hit forces them straight back
/// apart. The cool-off remembers the *last scan epoch* un-decayed and
/// keeps such partitions off the merge menu until the workload has
/// demonstrably moved on.
pub const MERGE_COOLOFF_EPOCHS: u64 = 4;

/// The decayed view of the recent workload: who is hot, and what the
/// queries looked like.
#[derive(Clone, Debug)]
pub struct HeatMap {
    /// Ops per epoch (≥ 1); reaching it halves everything.
    epoch_ops: u64,
    /// Recorded ops in the current epoch.
    ops_in_epoch: u64,
    /// Epochs completed so far.
    epoch: u64,
    /// Scan heat per partition: queries it survived pruning for (it was
    /// scanned). `BTreeMap` for deterministic iteration — driver decisions
    /// must not depend on hash order.
    parts: BTreeMap<SegmentId, u64>,
    /// Epoch of each partition's most recent scan, un-decayed. Entries
    /// older than [`MERGE_COOLOFF_EPOCHS`] are pruned at epoch close.
    scan_epoch: BTreeMap<SegmentId, u64>,
    /// Recent distinct query synopses with decayed occurrence weights.
    workload: Vec<(Synopsis, u64)>,
}

impl HeatMap {
    /// A heat map that decays every `epoch_ops` operations.
    #[must_use]
    pub fn new(epoch_ops: u64) -> Self {
        Self {
            epoch_ops: epoch_ops.max(1),
            ops_in_epoch: 0,
            epoch: 0,
            parts: BTreeMap::new(),
            scan_epoch: BTreeMap::new(),
            workload: Vec::new(),
        }
    }

    /// Records one query: its synopsis joins (or re-weights in) the
    /// workload window, and every partition that survived pruning for it
    /// gains scan heat. Counts as one op toward the epoch.
    pub fn record_query(
        &mut self,
        query: &Synopsis,
        scanned: impl IntoIterator<Item = SegmentId>,
    ) {
        for seg in scanned {
            *self.parts.entry(seg).or_default() += 1;
            self.scan_epoch.insert(seg, self.epoch);
        }
        match self.workload.iter_mut().find(|(q, _)| q == query) {
            Some((_, w)) => *w += 1,
            None => {
                if self.workload.len() == WORKLOAD_CAP {
                    // Evict the lightest (first among ties) — the query
                    // shape contributing least to the cost model.
                    if let Some(idx) = self
                        .workload
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, w))| *w)
                        .map(|(i, _)| i)
                    {
                        self.workload.remove(idx);
                    }
                }
                self.workload.push((query.clone(), 1));
            }
        }
        self.tick();
    }

    /// Records one mutation (insert / update / delete). Counts toward the
    /// epoch so heat decays even in write-only phases.
    pub fn record_op(&mut self) {
        self.tick();
    }

    fn tick(&mut self) {
        self.ops_in_epoch += 1;
        if self.ops_in_epoch >= self.epoch_ops {
            self.ops_in_epoch = 0;
            self.epoch += 1;
            self.decay();
        }
    }

    /// Halves every counter and weight; entries reaching zero drop out —
    /// partitions (and query shapes) the workload stopped touching fade
    /// from the model within a few epochs.
    fn decay(&mut self) {
        self.parts.retain(|_, scans| {
            *scans /= 2;
            *scans > 0
        });
        let epoch = self.epoch;
        self.scan_epoch.retain(|_, last| epoch - *last <= MERGE_COOLOFF_EPOCHS);
        self.workload.retain_mut(|(_, w)| {
            *w /= 2;
            *w > 0
        });
    }

    /// Scan heat of one partition in the current window.
    #[must_use]
    pub fn heat(&self, seg: SegmentId) -> u64 {
        self.parts.get(&seg).copied().unwrap_or(0)
    }

    /// Whether the partition was scanned within the last
    /// [`MERGE_COOLOFF_EPOCHS`] epochs — the merge veto's predicate.
    /// Independent of the decayed counter: a single scan three epochs ago
    /// has heat zero but is still "recent" here.
    #[must_use]
    pub fn recently_scanned(&self, seg: SegmentId) -> bool {
        self.scan_epoch
            .get(&seg)
            .is_some_and(|&last| self.epoch - last <= MERGE_COOLOFF_EPOCHS)
    }

    /// The decayed workload: distinct query synopses with weights.
    #[must_use]
    pub fn workload(&self) -> &[(Synopsis, u64)] {
        &self.workload
    }

    /// Completed epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(bits: &[u32]) -> Synopsis {
        Synopsis::from_attrs(128, bits.iter().map(|&b| cind_model::AttrId(b)))
    }

    #[test]
    fn heat_accumulates_and_decays_on_epoch() {
        let mut h = HeatMap::new(4);
        let q = syn(&[1, 2]);
        for _ in 0..3 {
            h.record_query(&q, [SegmentId(7)]);
        }
        assert_eq!(h.heat(SegmentId(7)), 3);
        assert_eq!(h.epoch(), 0);
        h.record_query(&q, [SegmentId(7)]);
        // Fourth op closes the epoch: 4 scans halve to 2, weight 4 → 2.
        assert_eq!(h.epoch(), 1);
        assert_eq!(h.heat(SegmentId(7)), 2);
        assert_eq!(h.workload(), &[(q, 2)]);
    }

    #[test]
    fn cold_partitions_fade_out() {
        let mut h = HeatMap::new(1);
        h.record_query(&syn(&[1]), [SegmentId(3)]);
        // One scan halves to zero at the immediate epoch close.
        assert_eq!(h.heat(SegmentId(3)), 0);
        assert!(h.workload().is_empty());
    }

    #[test]
    fn workload_is_bounded_and_evicts_lightest() {
        let mut h = HeatMap::new(u64::MAX);
        for i in 0..WORKLOAD_CAP as u32 {
            h.record_query(&syn(&[i]), []);
        }
        // Re-weight one shape so it is no longer the lightest.
        h.record_query(&syn(&[0]), []);
        h.record_query(&syn(&[99]), []);
        assert_eq!(h.workload().len(), WORKLOAD_CAP);
        assert!(h.workload().iter().any(|(q, _)| *q == syn(&[99])));
        assert!(h.workload().iter().any(|(q, w)| *q == syn(&[0]) && *w == 2));
    }

    #[test]
    fn cooloff_outlives_decayed_heat() {
        let mut h = HeatMap::new(1);
        h.record_query(&syn(&[1]), [SegmentId(3)]);
        // One scan halves to zero at the immediate epoch close…
        assert_eq!(h.heat(SegmentId(3)), 0);
        // …but the partition stays merge-vetoed for the cool-off window.
        assert!(h.recently_scanned(SegmentId(3)));
        for _ in 1..MERGE_COOLOFF_EPOCHS {
            h.record_op();
        }
        assert!(h.recently_scanned(SegmentId(3)));
        h.record_op();
        assert!(!h.recently_scanned(SegmentId(3)));
    }

    #[test]
    fn rescan_refreshes_the_cooloff() {
        let mut h = HeatMap::new(1);
        h.record_query(&syn(&[1]), [SegmentId(9)]);
        for _ in 0..MERGE_COOLOFF_EPOCHS {
            h.record_op();
        }
        h.record_query(&syn(&[1]), [SegmentId(9)]);
        for _ in 1..MERGE_COOLOFF_EPOCHS {
            h.record_op();
        }
        assert!(h.recently_scanned(SegmentId(9)));
    }

    #[test]
    fn mutations_advance_the_epoch_too() {
        let mut h = HeatMap::new(2);
        h.record_query(&syn(&[1]), [SegmentId(1)]);
        h.record_op();
        assert_eq!(h.epoch(), 1);
    }
}
