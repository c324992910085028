//! The partition catalog: synopses, sizes, starters, candidate index.
//!
//! One synopsis space is maintained — attributes, by per-partition
//! reference counts — and one presence index over it. The rating space is
//! a view: a partition's rating synopsis is
//! [`SynopsisMode::rating_of`] its attribute synopsis, materialised in the
//! packed [`SynopsisArena`] row the rating kernel sweeps and rewritten only
//! when an attribute refcount crosses 0↔1.
//!
//! Of the four counts a rating needs, `|e|` is counted once per scan, `|p|`
//! is the arena's cached row popcount, and `|e ∨ p| = |e| + |p| − |e ∧ p|`.
//! `|e ∧ p|` comes from the exact presence rows on the served path —
//! bit-sliced, added 64 slots per word — and from one AND-popcount per row
//! word elsewhere. The served path rates only the candidates whose overlap
//! reaches a can-win threshold ([`can_win_threshold`]), which no candidate
//! that can rate `≥ 0` misses. Every count is exact, so every rating is the
//! same `f64` the fused four-count pass (`words::fused_counts`, the
//! reference the tests compare against) gives.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use cind_bitset::{words, FixedBitSet, FusedCounts};

use cind_model::{EntityId, Synopsis};
use cind_storage::SegmentId;

use crate::arena::{PresenceIndex, SynopsisArena, ThresholdPlanes};
use crate::config::{Config, IndexTier};
use crate::index::{PruningIndex, PruningSnapshot};
use crate::modes::SynopsisMode;
use crate::rating::{can_win_threshold, global_rating, nonnegative_rating, RatingInputs};
use crate::starters::SplitStarters;
use crate::tier::TierParams;
use crate::validate::InvariantViolation;

/// Catalog entry of one partition.
#[derive(Debug)]
pub struct PartitionMeta {
    /// The backing storage segment.
    pub segment: SegmentId,
    /// Synopsis in *attribute* space — the OR of the members' attribute
    /// sets, used for query-time pruning and, through the catalog's
    /// [`SynopsisMode`], the source of the rating synopsis. Exact:
    /// maintained by reference counts, so bits clear when the last member
    /// carrying them leaves.
    pub attr_synopsis: Synopsis,
    /// `SIZE(p)` — sum of member `SIZE(e)` under the configured size model.
    pub size: u64,
    /// Number of member entities.
    pub entities: u64,
    /// The split-starter pair.
    pub starters: SplitStarters,
    /// Per-attribute member counts. The set `{i : attr_counts[i] > 0}` IS
    /// `attr_synopsis`.
    attr_counts: Vec<u32>,
    /// The partition's arena slot (meaningless once `remove_partition` has
    /// handed the meta back).
    slot: usize,
}

impl PartitionMeta {
    fn new(segment: SegmentId) -> Self {
        Self {
            segment,
            attr_synopsis: Synopsis::default(),
            size: 0,
            entities: 0,
            starters: SplitStarters::new(),
            attr_counts: Vec::new(),
            slot: 0,
        }
    }

    /// The partition's arena slot.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// Sparseness of the partition: the fraction of empty cells in the
    /// `entities × attributes(p)` rectangle (Fig. 7(d)). Zero for an empty
    /// or perfectly dense partition.
    ///
    /// Meaningful under the `Cells` size model, where `size` counts filled
    /// cells.
    pub fn sparseness(&self) -> f64 {
        let total = self.entities * u64::from(self.attr_synopsis.cardinality());
        if total == 0 {
            return 0.0;
        }
        1.0 - self.size as f64 / total as f64
    }
}

/// Bumps the per-attribute refcounts for `bits`, reporting each count that
/// went 0→1 (a newly present attribute) to `on_new`.
fn bump(counts: &mut Vec<u32>, bits: &Synopsis, mut on_new: impl FnMut(u32)) {
    for attr in bits.iter() {
        let idx = attr.index() as usize;
        if counts.len() <= idx {
            counts.resize(idx + 1, 0);
        }
        counts[idx] += 1;
        if counts[idx] == 1 {
            on_new(attr.index());
        }
    }
}

/// Drops the refcounts for `bits`, reporting each count that went 1→0 (an
/// attribute no member carries any more) to `on_clear`.
fn drop_counts(counts: &mut [u32], bits: &Synopsis, mut on_clear: impl FnMut(u32)) {
    for attr in bits.iter() {
        let idx = attr.index() as usize;
        assert!(counts.get(idx).copied().unwrap_or(0) > 0, "count underflow at {idx}");
        counts[idx] -= 1;
        if counts[idx] == 0 {
            on_clear(attr.index());
        }
    }
}

/// The partition catalog Cinderella scans on every insert (Algorithm 1,
/// lines 3–7).
///
/// Invariant (property-tested): each partition's attribute synopsis equals
/// the OR of its members' attribute synopses, maintained exactly via
/// per-attribute reference counts; the packed arena row equals the mode's
/// [`rating_of`](SynopsisMode::rating_of) that synopsis, and the pruning
/// index admits every `(attribute, partition)` pair of it (holds exactly
/// those pairs on exact storage).
///
/// The two hot loops never walk the `BTreeMap`:
///
/// * the rating scan first asks the [`PruningIndex`] for the candidate set
///   (partitions that could rate `≥ 0`: those carrying an attribute of the
///   entity's [`attr_cover`](SynopsisMode::attr_cover) — i.e. sharing a
///   rating bit with it — plus those with `SIZE(p) = 0`) and rates only
///   those. On exact storage in entity-based mode (the served default) the
///   presence rows that name the candidates are added into bit-sliced
///   `|e ∧ p|` counts, a mask of the candidates that can rate `≥ 0` is
///   taken word by word against the arena's threshold planes, and only
///   masked candidates are rated, each divided out only where its
///   numerator `r'` is `≥ 0`; if none is, the scan reports `None`, as for
///   no candidate. Elsewhere each candidate is rated from its
///   [`SynopsisArena`] row — one contiguous fixed-stride row per
///   partition, one AND-popcount per word. Both take `|p|` from the
///   arena's cache and `|e|` counted once per scan;
/// * the planner's survivor set is the index's candidate set for the query
///   ([`PartitionCatalog::survivors`]).
///
/// Candidate soundness: with `w < 1` a disjoint pair with both sizes
/// positive rates strictly negative, so skipping non-candidates cannot
/// change a non-negative argmax. At `w = 1` negative evidence has weight
/// zero and disjoint pairs rate `0`, so the scan falls back to the full
/// sweep ([`PartitionCatalog::best_sweep`]), as it does for `SIZE(e) = 0`,
/// where every partition rates neutrally.
#[derive(Debug)]
pub struct PartitionCatalog {
    parts: BTreeMap<SegmentId, PartitionMeta>,
    /// Packed rating synopses + `SIZE(p)` + segment, one slot per
    /// partition.
    arena: SynopsisArena,
    /// The candidate / survivor index over the attribute synopses, in
    /// whichever storage the knob selected.
    index: PruningIndex,
    /// Slots of partitions with `SIZE(p) = 0` (rate neutrally against
    /// anything, so they are always candidates).
    zero_size: FixedBitSet,
    /// How the arena rows derive from the attribute synopses.
    mode: SynopsisMode,
    /// The configured index-tier knob (`exact`, `tiered`, or the
    /// partition-count-gated `auto` ratchet).
    tier: IndexTier,
    /// Knobs for the tiered storage, applied whenever it is (re)built.
    tier_params: TierParams,
    /// Counts the mutations of what [`freeze`](Self::freeze) captures —
    /// the attribute-space index, the slot→segment map, the partition
    /// count. Two freezes at one generation are interchangeable.
    attr_generation: u64,
}

impl PartitionCatalog {
    /// Creates an empty entity-based catalog with the given index tier.
    pub fn new(tier: IndexTier) -> Self {
        Self::with_tier_params(tier, TierParams::default())
    }

    /// [`PartitionCatalog::new`] with explicit tier knobs (tests and
    /// benches tune group filter sizes).
    pub fn with_tier_params(tier: IndexTier, params: TierParams) -> Self {
        let mut arena = SynopsisArena::new();
        arena.set_weight(Config::default().weight);
        Self {
            parts: BTreeMap::new(),
            arena,
            index: PruningIndex::new(tier, params),
            zero_size: FixedBitSet::default(),
            mode: SynopsisMode::EntityBased,
            tier,
            tier_params: params,
            attr_generation: 0,
        }
    }

    /// An empty catalog rating in `mode`'s synopsis space.
    pub fn with_mode(mode: SynopsisMode, tier: IndexTier) -> Self {
        Self { mode, ..Self::new(tier) }
    }

    /// Keeps the arena's can-win threshold planes for rating weight
    /// `weight` — the [`Config::weight`] the partitioner rates at (a new
    /// catalog keeps them for the default weight). A scan at any other
    /// weight gives the same result, but rebuilds the planes for its call.
    pub fn set_rating_weight(&mut self, weight: f64) {
        self.arena.set_weight(weight);
    }

    /// The configured index-tier knob.
    pub fn tier(&self) -> IndexTier {
        self.tier
    }

    /// Whether the approximate tier is currently the live index (always
    /// under `tiered`; under `auto` once the partition count crossed
    /// [`IndexTier::AUTO_MIN_PARTITIONS`] — a one-way ratchet).
    pub fn tier_active(&self) -> bool {
        self.index.is_tiered()
    }

    /// Switches the index tier at runtime: the index is rebuilt from the
    /// refcount state in the storage the knob asks for (`auto` arms the
    /// partition-count ratchet; an already-active tier stays active).
    pub fn set_tier(&mut self, tier: IndexTier) {
        self.tier = tier;
        self.attr_generation += 1;
        self.apply_tier();
    }

    /// Lets the index follow the knob at the current partition count —
    /// the one place the `auto` ratchet is checked: wherever a slot is
    /// allocated ([`create_partition`](Self::create_partition)) or the knob
    /// turned.
    fn apply_tier(&mut self) {
        self.index.retarget(self.tier, self.tier_params, self.parts.values());
        self.service_index();
    }

    /// Drains the index's deferred maintenance against the exact refcount
    /// state the catalog owns. Runs after every mutation; a no-op when
    /// nothing is queued.
    fn service_index(&mut self) {
        let Self { parts, arena, index, .. } = self;
        index.service(&|slot| attr_bits(arena, parts, slot));
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Iterates partitions in ascending segment order.
    pub fn iter(&self) -> impl Iterator<Item = &PartitionMeta> {
        self.parts.values()
    }

    /// Looks up one partition.
    pub fn get(&self, seg: SegmentId) -> Option<&PartitionMeta> {
        self.parts.get(&seg)
    }

    /// Mutable lookup (starters maintenance).
    pub fn get_mut(&mut self, seg: SegmentId) -> Option<&mut PartitionMeta> {
        self.parts.get_mut(&seg)
    }

    /// The rating synopsis of partition `seg` (attributes in entity-based
    /// mode, queries in workload-based mode), read off its packed arena
    /// row. The hot paths sweep the rows directly; this serves cold passes
    /// (merge rating) and tests.
    pub fn rating_synopsis(&self, seg: SegmentId) -> Option<Synopsis> {
        let row = self.arena.row(self.parts.get(&seg)?.slot);
        Some(Synopsis::from_bits(row.len() * 64, words::iter_ones(row)))
    }

    /// Registers a fresh, empty partition backed by `seg`. The one place a
    /// slot is allocated, so the one place the `auto` ratchet is checked.
    ///
    /// # Panics
    /// Panics if `seg` is already cataloged.
    pub fn create_partition(&mut self, seg: SegmentId) {
        assert!(
            !self.parts.contains_key(&seg),
            "partition {seg} already cataloged"
        );
        let slot = self.arena.alloc(seg);
        self.attr_generation += 1;
        let mut meta = PartitionMeta::new(seg);
        meta.slot = slot;
        self.arena
            .write_row(slot, self.mode.rating_of(&meta.attr_synopsis).bits().blocks());
        self.arena.set_size(slot, meta.size);
        self.index.insert_partition(&meta);
        self.zero_size.grow(slot + 1);
        if meta.size == 0 {
            self.zero_size.insert(slot as u32);
        }
        self.parts.insert(seg, meta);
        self.apply_tier();
    }

    /// Removes a partition from the catalog, returning its metadata.
    ///
    /// # Panics
    /// Panics if `seg` is not cataloged.
    pub fn remove_partition(&mut self, seg: SegmentId) -> PartitionMeta {
        #[expect(clippy::expect_used, reason = "callers remove only cataloged partitions")]
        let meta = self.parts.remove(&seg).expect("partition cataloged");
        self.attr_generation += 1;
        self.index.remove_partition(&meta);
        self.zero_size.remove(meta.slot as u32);
        self.arena.release(meta.slot);
        self.service_index();
        meta
    }

    /// Accounts a new member entity of partition `seg`, given its
    /// attribute synopsis; its rating synopsis is the mode's view of it.
    /// Runs the Algorithm 1 starter update with it.
    pub fn add_entity(&mut self, seg: SegmentId, id: EntityId, attrs: &Synopsis, size: u64) {
        let Self { parts, arena, index, zero_size, mode, attr_generation, .. } = self;
        #[expect(clippy::expect_used, reason = "callers account only cataloged partitions")]
        let meta = parts.get_mut(&seg).expect("partition cataloged");
        let slot = meta.slot;
        let attr_synopsis = &mut meta.attr_synopsis;
        let mut crossed = false;
        bump(&mut meta.attr_counts, attrs, |bit| {
            attr_synopsis.bits_mut().grow(bit as usize + 1);
            attr_synopsis.bits_mut().insert(bit);
            index.set(bit, slot);
            *attr_generation += 1;
            crossed = true;
        });
        if crossed {
            arena.write_row(slot, mode.rating_of(attr_synopsis).bits().blocks());
        }
        meta.entities += 1;
        meta.size += size;
        arena.set_size(slot, meta.size);
        meta.starters.offer(id, &mode.rating_of(attrs));
        if meta.size > 0 {
            zero_size.remove(slot as u32);
        }
        self.service_index();
    }

    /// Accounts the removal of a member entity, given its attribute
    /// synopsis. Returns the remaining member count (callers drop the
    /// partition at zero).
    pub fn remove_entity(
        &mut self,
        seg: SegmentId,
        id: EntityId,
        attrs: &Synopsis,
        size: u64,
    ) -> u64 {
        let Self { parts, arena, index, zero_size, mode, attr_generation, .. } = self;
        #[expect(clippy::expect_used, reason = "callers account only cataloged partitions")]
        let meta = parts.get_mut(&seg).expect("partition cataloged");
        let slot = meta.slot;
        let attr_synopsis = &mut meta.attr_synopsis;
        let mut crossed = false;
        drop_counts(&mut meta.attr_counts, attrs, |bit| {
            attr_synopsis.bits_mut().remove(bit);
            index.clear(bit, slot);
            *attr_generation += 1;
            crossed = true;
        });
        if crossed {
            arena.write_row(slot, mode.rating_of(attr_synopsis).bits().blocks());
        }
        meta.entities -= 1;
        meta.size -= size;
        arena.set_size(slot, meta.size);
        meta.starters.vacate(id);
        if meta.size == 0 {
            zero_size.grow(slot + 1);
            zero_size.insert(slot as u32);
        }
        let left = meta.entities;
        self.service_index();
        left
    }

    /// Algorithm 1 lines 3–7: scans the catalog and returns the best-rated
    /// partition for the entity, with its rating, plus the number of
    /// ratings computed. Ties go to the lowest segment id. Returns `None`
    /// when the catalog is empty, or when the indexed scan finds no
    /// candidate — then every partition rates negative, and the caller
    /// creates a new partition exactly as it would for a negative best.
    pub fn best_partition(
        &self,
        rating_syn: &Synopsis,
        size_e: u64,
        weight: f64,
    ) -> (Option<(SegmentId, f64)>, u32) {
        // Strict negativity of non-candidates needs `SIZE(e) > 0`, `w < 1`,
        // and a non-empty entity synopsis: a zero-size entity rates
        // neutrally everywhere, at `w = 1` negative evidence has weight
        // zero, and an empty entity synopsis rates 0 against any partition
        // whose synopsis is also empty (`|e ∨ p| = 0` — neutral by
        // definition) even when that partition is not in any presence row.
        // In those cases non-candidates can tie the argmax, so only the
        // full sweep is exact.
        if size_e > 0 && weight < 1.0 && !rating_syn.is_empty() {
            self.best_indexed(rating_syn, size_e, weight)
        } else {
            self.best_sweep(rating_syn, size_e, weight)
        }
    }

    /// Best-rated partition among an explicit target list (restricted
    /// insert during a split). Targets are rated in the given order; ties
    /// keep the earlier target.
    pub fn best_among(
        &self,
        targets: &[SegmentId],
        rating_syn: &Synopsis,
        size_e: u64,
        weight: f64,
    ) -> (Option<(SegmentId, f64)>, u32) {
        let e = Probe::new(rating_syn, size_e, weight);
        let mut best: Option<(SegmentId, f64)> = None;
        let mut ratings = 0u32;
        for &seg in targets {
            let Some(meta) = self.parts.get(&seg) else { continue };
            let r = e.rate(&self.arena, meta.slot);
            ratings += 1;
            if best.is_none_or(|(_, rb)| rb < r) {
                best = Some((seg, r));
            }
        }
        (best, ratings)
    }

    /// The full linear sweep over the packed arena: every live slot is
    /// rated. Slot order is allocation order, not segment order, so the
    /// scan tie-break (lowest segment id among maximal ratings) is applied
    /// explicitly — the winner is order-independent. The paper
    /// prototype's scan: [`best_partition`](Self::best_partition)'s
    /// fallback where the index is not exact, and the differential-test
    /// oracle everywhere else.
    pub fn best_sweep(
        &self,
        rating_syn: &Synopsis,
        size_e: u64,
        weight: f64,
    ) -> (Option<(SegmentId, f64)>, u32) {
        let e = Probe::new(rating_syn, size_e, weight);
        self.argmax(self.arena.live_slots(), |slot| Some(e.rate(&self.arena, slot)))
    }

    /// Rates every slot of `slots` with `rate` and keeps the best: the
    /// higher rating, ties to the lower segment id — independent of the
    /// order slots are visited in. A slot `rate` rules out (`None`) is
    /// rated but never kept. The count is the number of slots rated.
    fn argmax(
        &self,
        slots: impl Iterator<Item = usize>,
        mut rate: impl FnMut(usize) -> Option<f64>,
    ) -> (Option<(SegmentId, f64)>, u32) {
        let mut best: Option<(SegmentId, f64)> = None;
        let mut ratings = 0u32;
        for slot in slots {
            ratings += 1;
            if let Some(r) = rate(slot) {
                self.keep(&mut best, slot, r);
            }
        }
        (best, ratings)
    }

    /// Keeps `slot`'s rating `r` in `best` if it is higher, or equal with a
    /// lower segment id: the scan tie-break, whatever the visiting order.
    fn keep(&self, best: &mut Option<(SegmentId, f64)>, slot: usize, r: f64) {
        let seg = self.arena.seg(slot);
        if best.is_none_or(|(bs, br)| br < r || (br == r && seg < bs)) {
            *best = Some((seg, r));
        }
    }

    /// The indexed scan: the index's candidates for the attribute cover of
    /// the entity's rating bits, plus the zero-size slots, are the
    /// partitions the scan counts as rated. Each candidate counts once —
    /// the bitmap OR deduplicates partitions that share several attributes
    /// with the cover by construction. No candidate means every partition
    /// rates negative, reported as `None`.
    ///
    /// On exact storage in entity-based mode — the served default — the
    /// scan is word-parallel ([`best_masked`](Self::best_masked)): it rates
    /// only the candidates that can rate `≥ 0`. Tiered storage (no exact
    /// counts) and workload-based mode (rating bits are queries, the rows
    /// attributes) rate every candidate from its arena row with the
    /// per-slot kernel.
    fn best_indexed(
        &self,
        rating_syn: &Synopsis,
        size_e: u64,
        weight: f64,
    ) -> (Option<(SegmentId, f64)>, u32) {
        let e = Probe::new(rating_syn, size_e, weight);
        SCAN.with_borrow_mut(|scratch| {
            if let (SynopsisMode::EntityBased, Some(rows)) = (&self.mode, self.index.exact_rows()) {
                return self.best_masked(rows, rating_syn, &e, scratch);
            }
            let candidates = &mut scratch.candidates;
            candidates.blocks_mut().fill(0);
            candidates.union_with(&self.zero_size);
            self.index.candidates_into(&self.mode.attr_cover(rating_syn), candidates);
            let slots = candidates.iter_ones().map(|s| s as usize);
            self.argmax(slots, |slot| Some(e.rate(&self.arena, slot)))
        })
    }

    /// The word-parallel rating scan (O'Neil & Quass's bit-sliced
    /// counting), 64 slots per word:
    ///
    /// 1. Each presence row of `e`'s attributes is added into the bit
    ///    planes of `|e ∧ p|` with a ripple-carry add — `⌈log₂(|e|+1)⌉`
    ///    planes, so no count overflows.
    /// 2. The candidates are the slots with a non-zero count, plus the
    ///    zero-size ones; all of them count as rated.
    /// 3. A candidate can rate `≥ 0` only if its count reaches the can-win
    ///    threshold of `|e|` (one constant) or of its `|p|` (the arena's
    ///    threshold planes), both [`can_win_threshold`]; the mask is two
    ///    bit-sliced `≥` comparisons.
    /// 4. Only masked candidates are rated: `|e ∧ p|` is gathered from the
    ///    planes and [`nonnegative_rating`] divides where `r' ≥ 0`.
    ///
    /// The threshold rounds down, so the mask never drops a slot the sign
    /// test would keep: the result is the per-candidate scan's, bit for
    /// bit, ratings count included.
    fn best_masked(
        &self,
        rows: &PresenceIndex,
        rating_syn: &Synopsis,
        e: &Probe<'_>,
        scratch: &mut ScanScratch,
    ) -> (Option<(SegmentId, f64)>, u32) {
        let ScanScratch { sums, spare, .. } = scratch;
        let planes = (u32::BITS - e.card.leading_zeros()) as usize;
        let words = self.arena.slots().div_ceil(64);
        sums.clear();
        sums.resize(words * planes, 0);
        for attr in rating_syn.iter() {
            if let Some(row) = rows.row(attr.index()) {
                add_row(sums, planes, row.blocks());
            }
        }
        let thresholds = self.arena.thresholds(e.weight, spare);
        let mut e_planes = [0u64; 32];
        let t_e = can_win_threshold(e.weight, e.card);
        for (j, plane) in e_planes.iter_mut().enumerate().take(planes) {
            *plane = 0u64.wrapping_sub(u64::from(t_e >> j & 1));
        }
        let zero = self.zero_size.blocks();
        let mut p_planes = [0u64; 32];
        let (mut best, mut ratings) = (None, 0u32);
        for (word, counts) in sums.chunks_exact(planes).enumerate() {
            let nonzero = counts.iter().fold(0, |acc, c| acc | c);
            let candidates = nonzero | zero.get(word).copied().unwrap_or(0);
            ratings += candidates.count_ones();
            let width = thresholds.word_into(word, &mut p_planes);
            let can_win = at_least(counts, &e_planes[..planes])
                | at_least(counts, &p_planes[..width]);
            let mut mask = candidates & can_win;
            while mask != 0 {
                let bit = mask.trailing_zeros();
                mask &= mask - 1;
                let slot = word * 64 + bit as usize;
                let and = counts
                    .iter()
                    .enumerate()
                    .map(|(j, c)| ((c >> bit) as u32 & 1) << j)
                    .sum();
                if let Some(r) = nonnegative_rating(e.weight, &e.inputs(&self.arena, slot, and)) {
                    self.keep(&mut best, slot, r);
                }
            }
        }
        (best, ratings)
    }

    /// The planner's survivor set for query synopsis `q`: segments whose
    /// partition may share an attribute with `q` (ascending — the
    /// catalog's plan order), plus the pruned count.
    ///
    /// Exact storage (property-tested): a partition survives the
    /// `|p ∧ q| = 0` test iff it carries one of `q`'s attributes, iff its
    /// slot is set in one of the ORed presence rows. Tiered storage: a
    /// *superset* of that set — filter false positives add scanned
    /// partitions, and the executor's per-row `matches` keeps answers
    /// identical; exact-present pairs are never missed (validate checks
    /// the implication).
    pub fn survivors(&self, q: &Synopsis) -> (Vec<SegmentId>, usize) {
        self.index.survivors(q, |slot| self.arena.seg(slot), self.parts.len())
    }

    /// [`PartitionCatalog::survivors`] in its historical `Option` shape.
    /// Always `Some` since the index can no longer be switched off; kept
    /// so callers written against the old signature still compile.
    pub fn plan_survivors(&self, q: &Synopsis) -> Option<(Vec<SegmentId>, usize)> {
        Some(self.survivors(q))
    }

    /// A frozen copy of the index plus the slot→segment map, for lock-free
    /// survivor planning (the server's epoch snapshots).
    pub fn freeze(&self) -> PruningSnapshot {
        self.index.freeze(self.arena.segs().to_vec(), self.parts.len())
    }

    /// Moves whenever a [`freeze`](Self::freeze) would come out different:
    /// a partition created or removed, an attribute's first or last member
    /// entering or leaving a partition, the tier knob turned. While it
    /// stands still an earlier freeze can be shared instead of retaken —
    /// the steady state of a warmed-up store, where inserts land in
    /// partitions that already carry their attributes.
    pub fn attr_generation(&self) -> u64 {
        self.attr_generation
    }

    /// Heap bytes resident in the plan-path index structures — the number
    /// the tier bench compares across `IndexTier` settings.
    pub fn index_resident_bytes(&self) -> usize {
        self.index.resident_bytes()
    }

    /// View for the query planner: `(segment, attribute synopsis, SIZE(p))`
    /// per partition, ascending by segment — the per-partition pruning
    /// oracle the index is differential-tested against (and what the
    /// efficiency and cost models read).
    pub fn pruning_view(&self) -> impl Iterator<Item = (SegmentId, &Synopsis, u64)> {
        self.parts
            .values()
            .map(|m| (m.segment, &m.attr_synopsis, m.size))
    }

    /// Cross-checks every catalog-internal invariant — the consistency of
    /// the refcount view (source of truth) with the attribute synopses, the
    /// packed arena rows (each must be the mode's `rating_of` its
    /// partition's attribute synopsis), the pruning index, the zero-size
    /// candidate set, and the starter pairs — returning every violation
    /// found. Metadata-only: no storage access; the entity-level
    /// cross-check against stored segments is
    /// [`Cinderella::validate`](crate::Cinderella::validate).
    pub fn validate(&self) -> Vec<InvariantViolation> {
        let mut out = self.arena.validate();
        let live = self.arena.live_slots().count();
        if live != self.parts.len() {
            push_cat(&mut out, format!(
                "{} live arena slots but {} cataloged partitions",
                live,
                self.parts.len()
            ));
        }

        // Expected presence pairs, rebuilt from the refcounts as the
        // per-partition checks walk the metas.
        let mut want: BTreeSet<(u32, usize)> = BTreeSet::new();
        let mut slot_owner: BTreeMap<usize, SegmentId> = BTreeMap::new();

        for (seg, meta) in &self.parts {
            let seg = *seg;
            if meta.segment != seg {
                push_cat(&mut out, format!(
                    "keyed under {seg} but meta names segment {}",
                    meta.segment
                ));
            }
            let slot = meta.slot;
            if slot >= self.arena.slots() {
                push_cat(&mut out, format!(
                    "{seg}: slot {slot} out of range ({} slots)",
                    self.arena.slots()
                ));
                continue;
            }
            if let Some(prev) = slot_owner.insert(slot, seg) {
                push_cat(&mut out, format!("{seg}: slot {slot} already owned by {prev}"));
            }
            if !self.arena.is_live(slot) {
                push_cat(&mut out, format!("{seg}: slot {slot} is not live in the arena"));
                continue;
            }
            if self.arena.seg(slot) != seg {
                push_cat(&mut out, format!(
                    "{seg}: arena slot {slot} bound to segment {}",
                    self.arena.seg(slot)
                ));
            }
            if self.arena.size(slot) != meta.size {
                push_cat(&mut out, format!(
                    "{seg}: arena SIZE(p) {} but meta size {}",
                    self.arena.size(slot),
                    meta.size
                ));
            }
            let attr_bits: Vec<u32> = meta.attr_synopsis.iter().map(|a| a.index()).collect();
            let count_bits: Vec<u32> = meta
                .attr_counts
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, _)| i as u32)
                .collect();
            if attr_bits != count_bits {
                push_cat(&mut out, format!(
                    "{seg}: attr synopsis bits {attr_bits:?} but attr refcounts say \
                     {count_bits:?}"
                ));
            }
            let row_bits: Vec<u32> = words::iter_ones(self.arena.row(slot)).collect();
            let rating_bits: Vec<u32> =
                self.mode.rating_of(&meta.attr_synopsis).iter().map(|a| a.index()).collect();
            if row_bits != rating_bits {
                push_cat(&mut out, format!(
                    "{seg}: packed row bits {row_bits:?} but rating_of(attr synopsis) gives \
                     {rating_bits:?}"
                ));
            }
            let zero_bit = self.zero_size.contains(slot as u32);
            if zero_bit != (meta.size == 0) {
                push_cat(&mut out, format!(
                    "{seg}: size {} but zero-size bit for slot {slot} is {zero_bit}",
                    meta.size
                ));
            }
            if meta.entities == 0 && (meta.size != 0 || !count_bits.is_empty()) {
                push_cat(&mut out, format!(
                    "{seg}: no entities but size {} and {} attr bits",
                    meta.size,
                    count_bits.len()
                ));
            }
            for (bit, &c) in meta.attr_counts.iter().enumerate() {
                if u64::from(c) > meta.entities {
                    push_cat(&mut out, format!(
                        "{seg}: attr refcount {c} for bit {bit} exceeds {} entities",
                        meta.entities
                    ));
                }
            }
            if let Err(why) = meta.starters.check() {
                out.push(InvariantViolation::new("starters", format!("{seg}: {why}")));
            }
            want.extend(attr_bits.iter().map(|&b| (b, slot)));
        }

        out.extend(self.index.validate(&self.arena, &want));

        for slot in self.zero_size.iter_ones() {
            let slot = slot as usize;
            if slot >= self.arena.slots() || !self.arena.is_live(slot) {
                out.push(InvariantViolation::new(
                    "catalog",
                    format!("zero-size bit set for dead slot {slot}"),
                ));
            }
        }
        out
    }

    /// Cross-checks partition `seg` against its actual stored members —
    /// `(id, attribute synopsis, SIZE(e))` per entity, as recomputed from
    /// storage by the caller. Verifies the OR-of-members synopsis law (via
    /// the full refcount recomputation), the entity and size accounting,
    /// and starter membership (each cached starter synopsis must be the
    /// mode's rating synopsis of the member). Returns every violation.
    pub(crate) fn validate_members(
        &self,
        seg: SegmentId,
        members: &[(EntityId, Synopsis, u64)],
    ) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let Some(meta) = self.parts.get(&seg) else {
            push_cat(&mut out, format!("{seg}: not cataloged but has stored members"));
            return out;
        };
        // No Cinderella partition is ever empty, and a reopen refuses an
        // empty segment (`Cinderella::rebuild`): a live check must see it.
        if members.is_empty() {
            push_cat(&mut out, format!("{seg}: cataloged partition has no member"));
        }
        if meta.entities != members.len() as u64 {
            push_cat(&mut out, format!(
                "{seg}: meta counts {} entities, segment stores {}",
                meta.entities,
                members.len()
            ));
        }
        let stored_size: u64 = members.iter().map(|(_, _, s)| s).sum();
        if meta.size != stored_size {
            push_cat(&mut out, format!(
                "{seg}: meta size {} but members sum to {stored_size}",
                meta.size
            ));
        }
        // Recompute the refcount column from the members and compare —
        // this subsumes "partition synopsis == OR of member synopses" and
        // catches count drift that the OR alone would mask.
        let mut want: Vec<u32> = Vec::new();
        for (_, attrs, _) in members {
            for attr in attrs.iter() {
                let idx = attr.index() as usize;
                if want.len() <= idx {
                    want.resize(idx + 1, 0);
                }
                want[idx] += 1;
            }
        }
        for bit in 0..want.len().max(meta.attr_counts.len()) {
            let w = want.get(bit).copied().unwrap_or(0);
            let h = meta.attr_counts.get(bit).copied().unwrap_or(0);
            if w != h {
                push_cat(&mut out, format!(
                    "{seg}: attr refcount for bit {bit} is {h}, members say {w}"
                ));
            }
        }
        for (name, starter) in [("A", meta.starters.a()), ("B", meta.starters.b())] {
            let Some((id, cached)) = starter else { continue };
            match members.iter().find(|(mid, ..)| *mid == id) {
                None => out.push(InvariantViolation::new(
                    "starters",
                    format!("{seg}: starter {name} ({id:?}) is not a member"),
                )),
                Some((_, attrs, _)) if *self.mode.rating_of(attrs) != *cached => {
                    out.push(InvariantViolation::new(
                        "starters",
                        format!(
                            "{seg}: cached synopsis of starter {name} ({id:?}) is stale"
                        ),
                    ));
                }
                _ => {}
            }
        }
        out
    }
}

/// The insert scan's working storage, reused by every scan on a thread so
/// that, once it has seen its largest catalog, a scan allocates nothing:
/// the candidate bitmap of the per-slot paths, the bit-sliced overlap
/// counts of the masked scan (word-major: the planes of word `i` are
/// `sums[i·planes..][..planes]`), and threshold planes rebuilt for a weight
/// the arena does not keep them for.
#[derive(Default)]
struct ScanScratch {
    candidates: FixedBitSet,
    sums: Vec<u64>,
    spare: ThresholdPlanes,
}

/// Adds one presence row into bit-sliced counts, word by word: a
/// ripple-carry add of a 0/1 digit per slot into the count's planes.
fn add_row(sums: &mut [u64], planes: usize, row: &[u64]) {
    for (counts, &bits) in sums.chunks_exact_mut(planes).zip(row) {
        let mut carry = bits;
        for plane in counts {
            if carry == 0 {
                break;
            }
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
        }
    }
}

/// The slots of one word whose count (bit-sliced over `counts`, lowest
/// plane first) is at least their threshold (bit-sliced over
/// `thresholds`); a missing plane on either side reads as zero. One
/// most-significant-first pass: a slot is greater once a plane has its
/// count bit set and its threshold bit clear while all higher planes were
/// equal.
fn at_least(counts: &[u64], thresholds: &[u64]) -> u64 {
    let (mut greater, mut equal) = (0u64, !0u64);
    for j in (0..counts.len().max(thresholds.len())).rev() {
        let c = counts.get(j).copied().unwrap_or(0);
        let t = thresholds.get(j).copied().unwrap_or(0);
        greater |= equal & c & !t;
        equal &= !(c ^ t);
    }
    greater | equal
}

thread_local! {
    static SCAN: RefCell<ScanScratch> = RefCell::default();
}

/// The entity side of one rating scan, fixed for every slot it rates. The
/// masked scan on exact storage in entity-based mode rates each candidate
/// that can win from the overlap count the bit planes give
/// ([`inputs`](Self::inputs)); the paths without exact attribute → slot
/// counts — the sweep, `best_among`, tiered storage, workload-based mode —
/// rate a slot from its arena row ([`rate`](Self::rate)).
struct Probe<'a> {
    /// The entity's rating synopsis words. Words past the arena stride meet
    /// no row bit, so the AND stops at the shorter operand.
    words: &'a [u64],
    /// `|e|`, counted once over *every* word — bits past the stride count.
    card: u32,
    size: u64,
    weight: f64,
}

impl<'a> Probe<'a> {
    fn new(rating_syn: &'a Synopsis, size: u64, weight: f64) -> Self {
        Self { words: rating_syn.bits().blocks(), card: rating_syn.cardinality(), size, weight }
    }

    /// The rating inputs of the partition in `slot`, given `and = |e ∧ p|`:
    /// the arena's cached `|p|` and `|e|` supply the rest, since
    /// `|e ∨ p| = |e| + |p| − |e ∧ p|` holds exactly. These are the
    /// integers the fused four-count pass yields.
    fn inputs(&self, arena: &SynopsisArena, slot: usize, and: u32) -> RatingInputs {
        let (left, right) = (self.card, arena.card(slot));
        let counts = FusedCounts { and, or: left + right - and, left, right };
        RatingInputs::from_fused(counts, self.size, arena.size(slot))
    }

    /// The rating kernel: rates the partition in `slot` from one
    /// AND-popcount per row word.
    fn rate(&self, arena: &SynopsisArena, slot: usize) -> f64 {
        let and = words::and_count(self.words, arena.row(slot));
        global_rating(self.weight, &self.inputs(arena, slot, and))
    }
}

/// The refcount view of one slot — its exact attribute bits, ascending, or
/// `None` for a dead slot: what the tiered storage rebuilds filter groups
/// from.
fn attr_bits(
    arena: &SynopsisArena,
    parts: &BTreeMap<SegmentId, PartitionMeta>,
    slot: usize,
) -> Option<Vec<u32>> {
    if slot >= arena.slots() || !arena.is_live(slot) {
        return None;
    }
    let meta = parts.get(&arena.seg(slot))?;
    Some(meta.attr_synopsis.iter().map(|a| a.index()).collect())
}

/// Appends a catalog-structure violation (shared by the validators).
fn push_cat(out: &mut Vec<InvariantViolation>, detail: String) {
    out.push(InvariantViolation::new("catalog", detail));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(bits: &[u32]) -> Synopsis {
        Synopsis::from_bits(32, bits.iter().copied())
    }

    fn add(
        cat: &mut PartitionCatalog,
        seg: SegmentId,
        id: u64,
        bits: &[u32],
        size: u64,
    ) {
        cat.add_entity(seg, EntityId(id), &syn(bits), size);
    }

    #[test]
    fn synopsis_is_or_of_members_with_refcounts() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        add(&mut cat, SegmentId(0), 1, &[0, 1], 2);
        add(&mut cat, SegmentId(0), 2, &[1, 2], 2);
        let m = cat.get(SegmentId(0)).unwrap();
        assert_eq!(m.attr_synopsis, syn(&[0, 1, 2]));
        assert_eq!(cat.rating_synopsis(SegmentId(0)), Some(syn(&[0, 1, 2])));
        assert_eq!(m.entities, 2);
        assert_eq!(m.size, 4);
        // Removing entity 1 clears bit 0 but keeps shared bit 1.
        let left = cat.remove_entity(SegmentId(0), EntityId(1), &syn(&[0, 1]), 2);
        assert_eq!(left, 1);
        let m = cat.get(SegmentId(0)).unwrap();
        assert_eq!(m.attr_synopsis, syn(&[1, 2]));
        assert_eq!(cat.rating_synopsis(SegmentId(0)), Some(syn(&[1, 2])));
        assert_eq!(m.size, 2);
    }

    #[test]
    fn arena_row_mirrors_refcount_synopsis() {
        // The packed row the hot path scans must equal the refcount view
        // through adds, removes, and partition removal/re-creation — in
        // workload mode, the queries the partition's attributes meet.
        let queries = vec![syn(&[0]), syn(&[5, 6]), syn(&[31]), syn(&[7, 0])];
        let workload = SynopsisMode::WorkloadBased(queries);
        for (mode, want) in [(SynopsisMode::EntityBased, vec![5, 7]), (workload, vec![1, 3])] {
            let mut cat = PartitionCatalog::with_mode(mode, IndexTier::Exact);
            cat.create_partition(SegmentId(0));
            add(&mut cat, SegmentId(0), 1, &[0, 5, 31], 3);
            add(&mut cat, SegmentId(0), 2, &[5, 7], 2);
            cat.remove_entity(SegmentId(0), EntityId(1), &syn(&[0, 5, 31]), 3);
            let m = cat.get(SegmentId(0)).unwrap();
            let row_bits: Vec<u32> = words::iter_ones(cat.arena.row(m.slot)).collect();
            assert_eq!(row_bits, want);
            cat.remove_partition(SegmentId(0));
            cat.create_partition(SegmentId(4)); // recycles the freed slot
            add(&mut cat, SegmentId(4), 2, &[5, 7], 2);
            let rating = cat.rating_synopsis(SegmentId(4)).unwrap();
            assert_eq!(rating.iter().map(|a| a.index()).collect::<Vec<_>>(), want);
            let report = crate::validate::render(&cat.validate());
            assert!(report.is_empty(), "{report}");
        }
    }

    /// A healthy two-partition catalog validates clean at every tier knob.
    #[test]
    fn validate_accepts_healthy_catalog() {
        for tier in [IndexTier::Exact, IndexTier::Tiered, IndexTier::Auto] {
            let mut cat = PartitionCatalog::new(tier);
            cat.create_partition(SegmentId(0));
            cat.create_partition(SegmentId(1));
            add(&mut cat, SegmentId(0), 1, &[0, 1], 2);
            add(&mut cat, SegmentId(0), 2, &[1, 2], 2);
            add(&mut cat, SegmentId(1), 3, &[8], 1);
            cat.remove_entity(SegmentId(0), EntityId(2), &syn(&[1, 2]), 2);
            let report = crate::validate::render(&cat.validate());
            assert!(report.is_empty(), "{report}");
        }
    }

    /// Every seeded corruption of the catalog/arena/index triad is
    /// reported by the specific cross-check that owns the invariant.
    #[test]
    fn validate_reports_each_seeded_catalog_corruption() {
        let corrupted = |f: fn(&mut PartitionCatalog), needle: &str| {
            let mut cat = PartitionCatalog::new(IndexTier::Exact);
            cat.create_partition(SegmentId(0));
            cat.create_partition(SegmentId(7));
            add(&mut cat, SegmentId(0), 1, &[0, 1], 2);
            add(&mut cat, SegmentId(7), 2, &[4], 1);
            f(&mut cat);
            let report = crate::validate::render(&cat.validate());
            assert!(report.contains(needle), "wanted {needle:?} in:\n{report}");
        };
        // Meta size drifts from the packed arena column.
        corrupted(
            |c| c.parts.get_mut(&SegmentId(0)).unwrap().size += 1,
            "arena SIZE(p) 2 but meta size 3",
        );
        // The packed row gains a bit the attribute synopsis does not give.
        corrupted(
            |c| {
                let slot = c.parts[&SegmentId(0)].slot;
                c.arena.write_row(slot, &[0b10_0000_0011]);
            },
            "packed row bits [0, 1, 9] but rating_of(attr synopsis) gives [0, 1]",
        );
        // The attr synopsis gains a bit its refcounts do not back.
        corrupted(
            |c| {
                let m = c.parts.get_mut(&SegmentId(7)).unwrap();
                m.attr_synopsis.bits_mut().grow(32);
                m.attr_synopsis.bits_mut().insert(9);
            },
            "attr synopsis bits [4, 9] but attr refcounts say [4]",
        );
        // Zero-size bit set for a partition with data.
        corrupted(
            |c| {
                let slot = c.parts[&SegmentId(0)].slot;
                c.zero_size.grow(slot + 1);
                c.zero_size.insert(slot as u32);
            },
            "size 2 but zero-size bit",
        );
        // Presence index loses a bit the refcounts demand …
        corrupted(
            |c| {
                let slot = c.parts[&SegmentId(0)].slot;
                c.index.clear(0, slot);
            },
            "attr bit 0 of slot 0 (seg0) missing from the index",
        );
        // … or claims one they do not.
        corrupted(
            |c| {
                let slot = c.parts[&SegmentId(7)].slot;
                c.index.set(30, slot);
            },
            "index claims attr bit 30 for slot 1, refcounts disagree",
        );
        // A threshold plane out of step with |p| (2 attributes at the
        // default w 0.2 → ⌈1.6⌉ = 2), and one left set for a removed slot.
        corrupted(
            |c| c.arena.corrupt_threshold(c.parts[&SegmentId(0)].slot, 1),
            "slot 0: threshold planes hold 1, want 2 (w 0.2)",
        );
        corrupted(
            |c| {
                let slot = c.parts[&SegmentId(7)].slot;
                c.remove_partition(SegmentId(7));
                c.arena.corrupt_threshold(slot, 4);
            },
            "slot 1: threshold planes hold 4, want 0 (w 0.2)",
        );
        // Two metas fighting over one arena slot.
        corrupted(
            |c| {
                let slot0 = c.parts[&SegmentId(0)].slot;
                c.parts.get_mut(&SegmentId(7)).unwrap().slot = slot0;
            },
            "slot 0 already owned by seg0",
        );
        // Refcount exceeding the member count.
        corrupted(
            |c| c.parts.get_mut(&SegmentId(7)).unwrap().entities = 0,
            "attr refcount 1 for bit 4 exceeds 0 entities",
        );
        // Meta keyed under the wrong segment.
        corrupted(
            |c| {
                let meta = c.parts.remove(&SegmentId(7)).unwrap();
                c.parts.insert(SegmentId(9), meta);
            },
            "keyed under seg9 but meta names segment seg7",
        );
    }

    /// `validate_members` cross-checks the catalog against what a segment
    /// actually stores: member counts, size sums, per-bit refcounts,
    /// split-starter membership, and that there is a member at all.
    #[test]
    fn validate_members_reports_stored_vs_cataloged_drift() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        add(&mut cat, SegmentId(0), 1, &[0, 1], 2);
        add(&mut cat, SegmentId(0), 2, &[1, 2], 2);
        let member = |id: u64, bits: &[u32], size: u64| (EntityId(id), syn(bits), size);
        // The true membership: clean.
        let good = vec![member(1, &[0, 1], 2), member(2, &[1, 2], 2)];
        assert!(cat.validate_members(SegmentId(0), &good).is_empty());
        // A member the catalog never accounted.
        let extra = vec![good[0].clone(), good[1].clone(), member(3, &[5], 1)];
        let report = crate::validate::render(&cat.validate_members(SegmentId(0), &extra));
        assert!(report.contains("meta counts 2 entities, segment stores 3"), "{report}");
        assert!(report.contains("members say 1"), "refcount drift surfaces: {report}");
        // A size that disagrees.
        let resized = vec![good[0].clone(), member(2, &[1, 2], 9)];
        let report =
            crate::validate::render(&cat.validate_members(SegmentId(0), &resized));
        assert!(report.contains("meta size 4 but members sum to 11"), "{report}");
        // A starter that is not stored.
        let vanished = vec![good[1].clone(), member(9, &[0, 1], 2)];
        let report =
            crate::validate::render(&cat.validate_members(SegmentId(0), &vanished));
        assert!(report.contains("is not a member"), "{report}");
        // An uncataloged segment with stored members.
        let report =
            crate::validate::render(&cat.validate_members(SegmentId(42), &good));
        assert!(report.contains("not cataloged but has stored members"), "{report}");
        // A cataloged partition whose segment stores nothing.
        cat.create_partition(SegmentId(5));
        let report = crate::validate::render(&cat.validate_members(SegmentId(5), &[]));
        assert!(report.contains("seg5: cataloged partition has no member"), "{report}");
    }

    #[test]
    fn best_partition_prefers_overlap() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        cat.create_partition(SegmentId(1));
        add(&mut cat, SegmentId(0), 1, &[0, 1, 2], 3);
        add(&mut cat, SegmentId(1), 2, &[8, 9], 2);
        let (best, ratings) = cat.best_partition(&syn(&[0, 1]), 2, 0.5);
        let (seg, r) = best.unwrap();
        assert_eq!(seg, SegmentId(0));
        assert!(r > 0.0);
        assert_eq!(ratings, 1, "the disjoint partition is never rated");
        let (swept, ratings) = cat.best_sweep(&syn(&[0, 1]), 2, 0.5);
        assert_eq!(swept, best);
        assert_eq!(ratings, 2, "the sweep oracle rates every partition");
    }

    /// With no candidate every partition rates negative: the indexed scan
    /// reports `None` and rates nothing, where the sweep reports its best
    /// negative partition. Both send the insert to a new partition.
    #[test]
    fn no_candidate_is_none() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        cat.create_partition(SegmentId(1));
        add(&mut cat, SegmentId(0), 1, &[8, 9], 2);
        add(&mut cat, SegmentId(1), 2, &[10], 1);
        assert_eq!(cat.best_partition(&syn(&[0]), 1, 0.5), (None, 0));
        let (swept, ratings) = cat.best_sweep(&syn(&[0]), 1, 0.5);
        assert!(swept.is_some_and(|(_, r)| r < 0.0), "{swept:?}");
        assert_eq!(ratings, 2);
    }

    #[test]
    fn empty_catalog_returns_none() {
        for tier in [IndexTier::Exact, IndexTier::Tiered, IndexTier::Auto] {
            let cat = PartitionCatalog::new(tier);
            let (best, ratings) = cat.best_partition(&syn(&[0]), 1, 0.5);
            assert!(best.is_none());
            assert_eq!(ratings, 0);
        }
    }

    #[test]
    fn ties_go_to_lowest_segment() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        cat.create_partition(SegmentId(1));
        add(&mut cat, SegmentId(0), 1, &[0, 1], 2);
        add(&mut cat, SegmentId(1), 2, &[0, 1], 2);
        let (best, _) = cat.best_partition(&syn(&[0, 1]), 2, 0.5);
        assert_eq!(best.unwrap().0, SegmentId(0));
    }

    #[test]
    fn ties_go_to_lowest_segment_against_slot_order() {
        // Recycle slots so that slot order disagrees with segment order:
        // the explicit tie-break must still pick the lowest segment, on
        // the sweep and through the index in either storage.
        for tier in [IndexTier::Exact, IndexTier::Tiered] {
            let mut cat = PartitionCatalog::new(tier);
            cat.create_partition(SegmentId(7));
            add(&mut cat, SegmentId(7), 1, &[0, 1], 2); // slot 0
            cat.create_partition(SegmentId(9));
            add(&mut cat, SegmentId(9), 2, &[0, 1], 2); // slot 1
            cat.remove_partition(SegmentId(7)); // frees slot 0
            cat.create_partition(SegmentId(3)); // recycles slot 0, and 3 < 9
            add(&mut cat, SegmentId(3), 3, &[0, 1], 2);
            let (best, _) = cat.best_partition(&syn(&[0, 1]), 2, 0.5);
            assert_eq!(best.unwrap().0, SegmentId(3));
            let (best, _) = cat.best_sweep(&syn(&[0, 1]), 2, 0.5);
            assert_eq!(best.unwrap().0, SegmentId(3));
        }
    }

    #[test]
    fn index_matches_sweep_oracle() {
        // The one index path against the full sweep, in either storage,
        // for several probe entities after a mutation sequence.
        let probes: Vec<Vec<u32>> =
            vec![vec![0, 1], vec![5], vec![2, 9], vec![], vec![0, 9, 11]];
        for tier in [IndexTier::Exact, IndexTier::Tiered] {
            let mut cat = PartitionCatalog::new(tier);
            for s in 0..4u32 {
                cat.create_partition(SegmentId(s));
            }
            add(&mut cat, SegmentId(0), 1, &[0, 1, 2], 3);
            add(&mut cat, SegmentId(1), 2, &[5, 6], 2);
            add(&mut cat, SegmentId(2), 3, &[9, 10, 11], 3);
            add(&mut cat, SegmentId(3), 4, &[0, 9], 2);
            // Shrink partition 0 so bit 2 clears from row and presence.
            cat.remove_entity(SegmentId(0), EntityId(1), &syn(&[0, 1, 2]), 3);
            add(&mut cat, SegmentId(0), 5, &[0, 1], 2);
            for probe in &probes {
                let s = syn(probe);
                let size = probe.len() as u64;
                for w in [0.0, 0.2, 0.5, 1.0] {
                    let (a, _) = cat.best_sweep(&s, size, w);
                    let (b, _) = cat.best_partition(&s, size, w);
                    let (sa, ra) = a.unwrap();
                    if ra >= 0.0 {
                        // Non-negative best: the algorithm inserts into it,
                        // so the argmax must match exactly.
                        assert_eq!(Some((sa, ra)), b, "{tier} probe {probe:?} w={w}");
                    } else {
                        // Negative best: a new partition is created either
                        // way; the index may find no candidate at all.
                        assert!(b.is_none_or(|(_, rb)| rb < 0.0), "{tier} probe {probe:?} w={w}: {ra} vs {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_scans_fewer_partitions() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        for s in 0..10u32 {
            cat.create_partition(SegmentId(s));
            add(&mut cat, SegmentId(s), u64::from(s), &[s, s + 10], 2);
        }
        let (_, ratings) = cat.best_partition(&syn(&[3]), 1, 0.5);
        assert!(ratings < 10, "index should prune the scan, rated {ratings}");
    }

    #[test]
    fn candidates_are_deduplicated() {
        // A partition sharing many attributes with the entity must be
        // rated once, not once per shared attribute.
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        add(&mut cat, SegmentId(0), 1, &[0, 1, 2, 3, 4, 5], 6);
        cat.create_partition(SegmentId(1));
        add(&mut cat, SegmentId(1), 2, &[20], 1);
        let (best, ratings) = cat.best_partition(&syn(&[0, 1, 2, 3, 4, 5]), 6, 0.5);
        assert_eq!(best.unwrap().0, SegmentId(0));
        assert_eq!(ratings, 1, "one rating despite six shared attributes");
    }

    #[test]
    fn small_catalogs_rate_through_the_index_too() {
        // No partition-count gate: two partitions, one rating.
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        for s in 0..2u32 {
            cat.create_partition(SegmentId(s));
            add(&mut cat, SegmentId(s), u64::from(s), &[s], 2);
        }
        let (best, ratings) = cat.best_partition(&syn(&[1]), 1, 0.5);
        assert_eq!(best.unwrap().0, SegmentId(1));
        assert_eq!(ratings, 1);
    }

    #[test]
    fn auto_ratchets_on_create() {
        let fill = |cat: &mut PartitionCatalog, segs: std::ops::Range<usize>| {
            for s in segs.map(|s| s as u32) {
                cat.create_partition(SegmentId(s));
                add(cat, SegmentId(s), u64::from(s), &[s % 32], 2);
            }
        };
        let mut cat = PartitionCatalog::new(IndexTier::Auto);
        let gate = IndexTier::AUTO_MIN_PARTITIONS;
        fill(&mut cat, 0..gate - 1);
        assert!(!cat.tier_active(), "below the ratchet point");
        fill(&mut cat, gate - 1..gate);
        assert!(cat.tier_active(), "crossing it ratchets");
        // One way: shrinking does not ratchet back.
        cat.remove_partition(SegmentId(0));
        assert!(cat.tier_active());
        let report = crate::validate::render(&cat.validate());
        assert!(report.is_empty(), "{report}");
        // The bits added before the ratchet made it into the rebuilt tier.
        let (survivors, _) = cat.survivors(&syn(&[5]));
        assert!(survivors.contains(&SegmentId(5)));
    }

    #[test]
    fn remove_partition_cleans_presence() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        cat.create_partition(SegmentId(1));
        add(&mut cat, SegmentId(0), 1, &[0], 1);
        add(&mut cat, SegmentId(1), 2, &[0, 1], 2);
        let meta = cat.remove_partition(SegmentId(0));
        assert_eq!(meta.entities, 1);
        let (best, _) = cat.best_partition(&syn(&[0]), 1, 0.5);
        assert_eq!(best.unwrap().0, SegmentId(1));
        assert_eq!(cat.len(), 1);
        let (survivors, pruned) = cat.survivors(&syn(&[0]));
        assert_eq!(survivors, vec![SegmentId(1)]);
        assert_eq!(pruned, 0);
    }

    /// The arena hands a freed slot to the next partition created; the
    /// newcomer must not answer for the previous occupant's attributes.
    #[test]
    fn recycled_slot_does_not_inherit_filter_bits() {
        let run = |tier| {
            let mut cat = PartitionCatalog::new(tier);
            cat.create_partition(SegmentId(1));
            add(&mut cat, SegmentId(1), 1, &[1, 2, 3], 3);
            cat.remove_partition(SegmentId(1));
            cat.create_partition(SegmentId(2)); // recycles the freed slot
            add(&mut cat, SegmentId(2), 2, &[20], 1);
            (cat.survivors(&syn(&[1])).0, cat.survivors(&syn(&[20])).0)
        };
        assert_eq!(run(IndexTier::Exact), (vec![], vec![SegmentId(2)]));
        assert_eq!(run(IndexTier::Tiered), run(IndexTier::Exact));
    }

    /// Deletes only charge staleness; the rebuild at `REBUILD_STALE` clears
    /// is what bounds the false positives they leave behind.
    #[test]
    fn staleness_rebuild_drops_deleted_attributes() {
        let extra = crate::tier::REBUILD_STALE;
        let mut cat = PartitionCatalog::new(IndexTier::Tiered);
        cat.create_partition(SegmentId(0));
        cat.create_partition(SegmentId(1));
        let wide = |bit: u32| Synopsis::from_bits(128, [bit]);
        cat.add_entity(SegmentId(0), EntityId(0), &wide(0), 1);
        cat.add_entity(SegmentId(1), EntityId(1), &wide(10), 1);
        for i in 0..extra {
            cat.add_entity(SegmentId(0), EntityId(u64::from(100 + i)), &wide(10 + i), 1);
        }
        assert_eq!(cat.survivors(&wide(10)).0, vec![SegmentId(0), SegmentId(1)]);
        for i in 0..extra {
            cat.remove_entity(SegmentId(0), EntityId(u64::from(100 + i)), &wide(10 + i), 1);
        }
        assert_eq!(cat.survivors(&wide(10)).0, vec![SegmentId(1)]);
        for i in 1..extra {
            assert_eq!(cat.survivors(&wide(10 + i)).0, vec![], "removed attr {}", 10 + i);
        }
        assert_eq!(cat.survivors(&wide(0)).0, vec![SegmentId(0)]);
        let report = crate::validate::render(&cat.validate());
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn plan_survivors_matches_disjoint_oracle() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        for (s, bits) in [(0u32, &[0u32, 1][..]), (1, &[5][..]), (2, &[1, 9][..])] {
            cat.create_partition(SegmentId(s));
            add(&mut cat, SegmentId(s), u64::from(s), bits, 2);
        }
        for q in [&[1u32][..], &[0, 5][..], &[7][..], &[][..]] {
            let q = syn(q);
            let oracle: Vec<SegmentId> = cat
                .pruning_view()
                .filter(|(_, p, _)| !q.is_disjoint(p))
                .map(|(s, _, _)| s)
                .collect();
            let (survivors, pruned) = cat.survivors(&q);
            assert_eq!(survivors, oracle);
            assert_eq!(pruned, cat.len() - survivors.len());
            assert_eq!(cat.plan_survivors(&q), Some((survivors.clone(), pruned)));
            assert_eq!(cat.freeze().survivors(&q), (survivors, pruned));
        }
    }

    /// The contract `Engine::snapshot` leans on: while `attr_generation`
    /// stands still an old freeze plans exactly what the live catalog
    /// plans, under churn of every kind and on both storages (the tiered
    /// one rebuilds groups behind the catalog's back).
    #[test]
    fn a_freeze_stays_current_until_the_generation_moves() {
        for tier in [IndexTier::Exact, IndexTier::Tiered] {
            let mut cat = PartitionCatalog::new(tier);
            let mut members: Vec<(SegmentId, u64, Vec<u32>)> = Vec::new();
            let (mut segs, mut empties): (Vec<SegmentId>, Vec<SegmentId>) = (Vec::new(), Vec::new());
            let (mut frozen, mut at) = (cat.freeze(), cat.attr_generation());
            let (mut reused, mut retaken) = (0, 0);
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for step in 0..3_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 16 {
                    0 => {
                        let seg = SegmentId(step as u32);
                        cat.create_partition(seg);
                        segs.push(seg);
                    }
                    1 => {
                        // Never populated: only the slot map and the
                        // partition count know it came and went.
                        let seg = SegmentId(step as u32);
                        cat.create_partition(seg);
                        empties.push(seg);
                    }
                    2 if !empties.is_empty() => {
                        cat.remove_partition(empties.swap_remove(0));
                    }
                    3 if step % 5 == 0 => cat.set_tier(tier),
                    4..=6 if !members.is_empty() => {
                        let (seg, id, bits) = members.swap_remove((x >> 8) as usize % members.len());
                        if cat.remove_entity(seg, EntityId(id), &syn(&bits), 1) == 0 {
                            cat.remove_partition(seg);
                            segs.retain(|s| *s != seg);
                        }
                    }
                    _ if !segs.is_empty() => {
                        let seg = segs[(x >> 8) as usize % segs.len()];
                        // Few distinct attributes per partition, so most
                        // adds are not an attribute's first member.
                        let bits = vec![seg.0 % 7, 7 + (x >> 20) as u32 % 3];
                        add(&mut cat, seg, step, &bits, 1);
                        members.push((seg, step, bits));
                    }
                    _ => {}
                }
                if cat.attr_generation() == at {
                    reused += 1;
                } else {
                    (frozen, at) = (cat.freeze(), cat.attr_generation());
                    retaken += 1;
                }
                for bit in 0..10 {
                    assert_eq!(frozen.survivors(&syn(&[bit])), cat.survivors(&syn(&[bit])), "step {step}");
                }
            }
            assert!(reused > retaken, "{tier:?}: reused {reused}, retaken {retaken}");
        }
    }

    #[test]
    fn sparseness_of_partition() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        // 2 entities, 3 partition attrs, 4 filled cells → 1 - 4/6.
        add(&mut cat, SegmentId(0), 1, &[0, 1], 2);
        add(&mut cat, SegmentId(0), 2, &[1, 2], 2);
        let m = cat.get(SegmentId(0)).unwrap();
        assert!((m.sparseness() - (1.0 - 4.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_size_partitions_stay_candidates() {
        let mut cat = PartitionCatalog::new(IndexTier::Exact);
        cat.create_partition(SegmentId(0));
        // Partition 0 holds one zero-size entity with an empty synopsis.
        cat.add_entity(SegmentId(0), EntityId(1), &syn(&[]), 0);
        // A disjoint probe should still see partition 0 (rating 0 ≥ 0
        // beats creating a new partition in Algorithm 1's comparison).
        let (best, _) = cat.best_partition(&syn(&[5]), 1, 0.5);
        let (seg, r) = best.unwrap();
        assert_eq!(seg, SegmentId(0));
        assert_eq!(r, 0.0);
    }
}
