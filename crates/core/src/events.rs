//! Instrumentation: per-insert events and cumulative statistics.

use std::time::Duration;

use cind_storage::SegmentId;

/// Where an insert landed (Algorithm 1's three exits).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// Normal case (line 36): the entity joined the best-rated partition.
    Inserted(SegmentId),
    /// `r_best < 0` (lines 9–13): a fresh partition was created for it.
    NewPartition(SegmentId),
    /// The best partition was full (lines 26–33) and was split.
    Split {
        /// The partition that was split (now gone).
        from: SegmentId,
        /// The two partitions seeded by the split starters.
        into: (SegmentId, SegmentId),
    },
}

impl InsertOutcome {
    /// Whether this insert triggered a split.
    pub fn is_split(&self) -> bool {
        matches!(self, InsertOutcome::Split { .. })
    }
}

/// One insert's trace record (Fig. 8 raw data).
#[derive(Clone, Copy, Debug)]
pub struct InsertEvent {
    /// Wall-clock latency of the whole insert (rating scan + storage write
    /// + split work if any).
    pub duration: Duration,
    /// Which exit the insert took.
    pub outcome: InsertOutcome,
    /// Partitions rated during the catalog scan.
    pub ratings: u32,
}

/// Cumulative counters of one [`Cinderella`](crate::Cinderella) instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Stats {
    /// Entities inserted.
    pub inserts: u64,
    /// Entities deleted.
    pub deletes: u64,
    /// Entities updated.
    pub updates: u64,
    /// Updates that moved the entity to a different partition.
    pub update_moves: u64,
    /// Partitions created because `r_best < 0` (or the catalog was empty).
    pub partitions_created: u64,
    /// Partitions dropped because they became empty.
    pub partitions_dropped: u64,
    /// Splits performed.
    pub splits: u64,
    /// Entities physically moved by splits.
    pub split_moves: u64,
    /// Ratings computed across all catalog scans.
    pub ratings_computed: u64,
    /// Split re-inserts that exceeded the target's capacity because neither
    /// seed partition could take the entity (only possible under
    /// `Capacity::MaxSize` with skewed entity sizes).
    pub forced_overflows: u64,
    /// Partitions folded into a peer by a merge pass (extension, see the
    /// `merge` module).
    pub merges: u64,
    /// Entities physically moved by merge passes.
    pub merge_moves: u64,
    /// Partitions re-split by the background reorganizer (extension; the
    /// moves themselves count under `split_moves` — a re-split runs the
    /// same machinery as an overflow split).
    pub reorg_resplits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_split_flag() {
        assert!(!InsertOutcome::Inserted(SegmentId(0)).is_split());
        assert!(!InsertOutcome::NewPartition(SegmentId(0)).is_split());
        assert!(InsertOutcome::Split {
            from: SegmentId(0),
            into: (SegmentId(1), SegmentId(2))
        }
        .is_split());
    }
}
