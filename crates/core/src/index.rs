//! The pruning index: the one answer to "which partitions can share an
//! attribute with this synopsis?" — the paper's `|p ∧ q| = 0` test (§II,
//! Definition 1) turned inside out.
//!
//! [`PruningIndex`] owns the catalog's one presence space — attributes —
//! in one of two storages, chosen by the single [`IndexTier`] knob:
//!
//! * **exact** — one [`PresenceIndex`] bitmap row per attribute; candidate
//!   sets are exact;
//! * **tiered** — the blocked-Bloom rows and group summaries of
//!   [`crate::tier`]; candidate sets are supersets (no false negatives by
//!   construction), an order of magnitude smaller on large catalogs.
//!
//! Both lookups go through it: the planner's survivors for a query
//! synopsis, and the insert scan's candidates for an entity, keyed by the
//! attribute cover of its rating synopsis
//! ([`SynopsisMode::attr_cover`](crate::SynopsisMode::attr_cover) — the
//! entity's attributes in entity-based mode). Exact storage also hands the
//! entity-based insert scan its overlap counts
//! (`PruningIndex::exact_rows`).
//! [`PartitionCatalog`](crate::PartitionCatalog) drives it through the
//! methods below and asks which storage is live only for those counts;
//! [`PruningIndex::freeze`] clones it into an immutable
//! [`PruningSnapshot`] that plans survivors through the very same
//! [`PruningIndex::survivors`] walk, so the server's epoch reads and the
//! live planner cannot drift apart.

use std::collections::BTreeSet;

use cind_bitset::FixedBitSet;
use cind_model::Synopsis;
use cind_storage::SegmentId;

use crate::arena::{PresenceIndex, SynopsisArena};
use crate::catalog::PartitionMeta;
use crate::config::IndexTier;
use crate::tier::{TierParams, TieredIndex};
use crate::validate::InvariantViolation;

/// Attribute presence metadata, in either storage.
#[derive(Clone, Debug)]
pub enum PruningIndex {
    /// Exact attribute-bit → slot bitmaps.
    Exact(PresenceIndex),
    /// Approximate filter rows under group summaries.
    Tiered(Box<TieredIndex>),
}

impl PruningIndex {
    /// An empty index in the storage `tier` starts with (`auto` starts
    /// exact and ratchets once the catalog is large enough).
    pub fn new(tier: IndexTier, params: TierParams) -> Self {
        Self::empty(tier == IndexTier::Tiered, params)
    }

    fn empty(tiered: bool, params: TierParams) -> Self {
        if tiered {
            Self::Tiered(Box::new(TieredIndex::new(params)))
        } else {
            Self::Exact(PresenceIndex::new())
        }
    }

    /// Whether the approximate storage is live.
    pub fn is_tiered(&self) -> bool {
        matches!(self, Self::Tiered(_))
    }

    /// The exact presence rows, when they are the live storage: the
    /// attribute → slot counts the insert scan reads its overlaps from.
    /// `None` on tiered storage, whose filter rows count nothing exactly.
    pub(crate) fn exact_rows(&self) -> Option<&PresenceIndex> {
        match self {
            Self::Exact(rows) => Some(rows),
            Self::Tiered(_) => None,
        }
    }

    /// Builds the index in the given storage from the catalog's refcount
    /// state — the one rebuild path behind every storage switch.
    pub(crate) fn rebuild_from_refcounts<'a>(
        tiered: bool,
        params: TierParams,
        metas: impl Iterator<Item = &'a PartitionMeta>,
    ) -> Self {
        let mut index = Self::empty(tiered, params);
        for meta in metas {
            index.insert_partition(meta);
        }
        index
    }

    /// Applies the knob: switches storage (rebuilding from `metas`) when
    /// `knob` asks for the other one. `auto` is the one ratchet — exact
    /// until the catalog holds [`IndexTier::AUTO_MIN_PARTITIONS`]
    /// partitions, tiered from then on, never back.
    pub(crate) fn retarget<'a>(
        &mut self,
        knob: IndexTier,
        params: TierParams,
        metas: impl ExactSizeIterator<Item = &'a PartitionMeta>,
    ) {
        let want_tiered = match knob {
            IndexTier::Exact => false,
            IndexTier::Tiered => true,
            IndexTier::Auto => self.is_tiered() || metas.len() >= IndexTier::AUTO_MIN_PARTITIONS,
        };
        if want_tiered != self.is_tiered() {
            *self = Self::rebuild_from_refcounts(want_tiered, params, metas);
        }
    }

    /// Registers a partition's freshly allocated slot with every attribute
    /// its refcounts already carry (none for a new partition, all of them
    /// when the index is rebuilt).
    pub(crate) fn insert_partition(&mut self, meta: &PartitionMeta) {
        let slot = meta.slot();
        if let Self::Tiered(t) = self {
            t.on_slot_alloc(slot);
        }
        for bit in meta.attr_synopsis.iter() {
            self.set(bit.index(), slot);
        }
    }

    /// Drops a partition's slot. The tier drops the whole slot at once
    /// (live mask, then a rebuild of its group so a recycled slot starts
    /// clean); per-bit clears would only add staleness.
    pub(crate) fn remove_partition(&mut self, meta: &PartitionMeta) {
        let slot = meta.slot();
        match self {
            Self::Tiered(t) => t.on_slot_release(slot),
            Self::Exact(rows) => {
                for bit in meta.attr_synopsis.iter() {
                    rows.clear(bit.index(), slot);
                }
            }
        }
    }

    /// Records an attribute refcount 0→1 transition of `(bit, slot)`.
    pub(crate) fn set(&mut self, bit: u32, slot: usize) {
        match self {
            Self::Tiered(t) => t.set(bit, slot),
            Self::Exact(rows) => rows.set(bit, slot),
        }
    }

    /// Records an attribute refcount 1→0 transition of `(bit, slot)`.
    pub(crate) fn clear(&mut self, bit: u32, slot: usize) {
        match self {
            Self::Tiered(t) => t.clear(slot),
            Self::Exact(rows) => rows.clear(bit, slot),
        }
    }

    /// Drains the tier's pending maintenance against the catalog's exact
    /// refcount view (see [`TieredIndex::service`]; no-op on exact
    /// storage, which has none).
    pub(crate) fn service(&mut self, exact: &impl Fn(usize) -> Option<Vec<u32>>) {
        if let Self::Tiered(t) = self {
            t.service(exact);
        }
    }

    /// ORs into `acc` every slot that may carry one of `syn`'s attributes:
    /// exactly those slots on exact storage, a superset on tiered.
    /// Deduplicated by construction.
    pub fn candidates_into(&self, syn: &Synopsis, acc: &mut FixedBitSet) {
        let bits = syn.iter().map(|a| a.index());
        match self {
            Self::Tiered(t) => t.candidates_into(&bits.collect::<Vec<u32>>(), acc),
            Self::Exact(rows) => rows.union_rows_into(bits, acc),
        }
    }

    /// The planner's survivor set for query synopsis `q`: the segments of
    /// the candidates (ascending — plan order) plus the pruned count. The
    /// one walk behind both the live catalog and the frozen
    /// [`PruningSnapshot`]; they differ only in `seg_of`.
    pub fn survivors(
        &self,
        q: &Synopsis,
        seg_of: impl Fn(usize) -> SegmentId,
        partitions: usize,
    ) -> (Vec<SegmentId>, usize) {
        let mut acc = FixedBitSet::default();
        self.candidates_into(q, &mut acc);
        let mut survivors: Vec<SegmentId> =
            acc.iter_ones().map(|slot| seg_of(slot as usize)).collect();
        survivors.sort_unstable();
        let pruned = partitions - survivors.len();
        (survivors, pruned)
    }

    /// Clones the index plus the slot→segment map into an immutable
    /// snapshot for lock-free planning.
    pub fn freeze(&self, segs: Vec<SegmentId>, partitions: usize) -> PruningSnapshot {
        PruningSnapshot {
            index: self.clone(),
            segs,
            partitions,
        }
    }

    /// Heap bytes resident in the index structures.
    pub fn resident_bytes(&self) -> usize {
        match self {
            Self::Exact(rows) => rows.resident_bytes(),
            Self::Tiered(t) => t.resident_bytes(),
        }
    }

    /// Cross-checks the index against the catalog's exact `(bit, slot)`
    /// attribute pairs: exact storage must hold precisely those pairs (and
    /// only live slots); tiered storage must admit every one of them (see
    /// [`TieredIndex::validate`]).
    pub(crate) fn validate(
        &self,
        arena: &SynopsisArena,
        want: &BTreeSet<(u32, usize)>,
    ) -> Vec<InvariantViolation> {
        let rows = match self {
            Self::Tiered(t) => return t.validate(arena, want),
            Self::Exact(rows) => rows,
        };
        let mut out = rows.validate(arena);
        let mut have = BTreeSet::new();
        for bit in 0..rows.attrs() as u32 {
            if let Some(row) = rows.row(bit) {
                have.extend(row.iter_ones().map(|slot| (bit, slot as usize)));
            }
        }
        for (bit, slot) in want.difference(&have) {
            out.push(InvariantViolation::new(
                "presence",
                format!(
                    "attr bit {bit} of slot {slot} ({}) missing from the index",
                    arena.seg(*slot)
                ),
            ));
        }
        for (bit, slot) in have.difference(want) {
            out.push(InvariantViolation::new(
                "presence",
                format!("index claims attr bit {bit} for slot {slot}, refcounts disagree"),
            ));
        }
        out
    }
}

/// A frozen [`PruningIndex`] plus the slot→segment map of
/// the instant it was taken — what an epoch snapshot needs to plan a query
/// without the catalog or its lock. Survivors are exactly what
/// [`PartitionCatalog::plan_survivors`](crate::PartitionCatalog::plan_survivors)
/// returned at freeze time (a superset of the exact set on tiered storage;
/// the executor's per-row match keeps answers identical).
#[derive(Clone, Debug)]
pub struct PruningSnapshot {
    index: PruningIndex,
    segs: Vec<SegmentId>,
    partitions: usize,
}

impl PruningSnapshot {
    /// Partition count at freeze time.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The surviving segments for query synopsis `q` (ascending) plus the
    /// pruned count.
    pub fn survivors(&self, q: &Synopsis) -> (Vec<SegmentId>, usize) {
        self.index
            .survivors(q, |slot| self.segs[slot], self.partitions)
    }

    /// Heap bytes resident in the snapshot.
    pub fn resident_bytes(&self) -> usize {
        self.index.resident_bytes() + self.segs.len() * std::mem::size_of::<SegmentId>()
    }
}
