//! Tiered approximate pruning metadata — the `IndexTier::Tiered` storage
//! of [`PruningIndex`](crate::PruningIndex).
//!
//! The exact [`PresenceIndex`](crate::PresenceIndex) keeps one partition
//! bitmap per attribute: O(attrs × partitions) bits, the scaling ceiling a
//! million-partition catalog hits first. This module replaces those bitmaps
//! with three layers:
//!
//! * **Blocked Bloom filter rows per partition group.** Slots are grouped
//!   64 to a group (one `u64` mask word). Each group owns a power-of-two
//!   array of 64-bit blocks; an attribute hashes to two blocks, and its
//!   candidate mask for the group is the AND of the two. Setting
//!   `(attr, slot)` ORs the slot's bit into *both* probed blocks, so the
//!   AND always covers every slot genuinely carrying the attribute —
//!   **no false negatives, by construction**. Collisions only ever *add*
//!   candidate bits (false positives cost a rating/scan, never an answer).
//! * **A group-level union synopsis.** Each group keeps a 1024-bit Bloom
//!   summary (two probe bits per key) over the attributes any member
//!   carries; a query attribute with either summary bit clear skips the
//!   whole group without touching its blocks — the hierarchical miss path,
//!   and the layer that keeps the plan sweep out of the big flat block
//!   buffer on foreign groups.
//! * **A bounded exact hot tier.** Up to `hot_capacity` slots are promoted
//!   to exact per-attribute bitmaps (positions, not slots, so the tier's
//!   memory is bounded by the cap, not the catalog). Promotion/demotion is
//!   driven by per-slot op-count heat, decayed by halving every
//!   `epoch_ops` operations — never wall clock (CIND-A005), so a run is a
//!   pure function of its operation sequence.
//!
//! Deletes never clear shared filter blocks (a block bit may be backed by
//! several (attr, slot) pairs); they only bump a per-group staleness
//! counter. When staleness or load crosses its threshold the *catalog*
//! rebuilds the group from the exact refcount state it already owns — the
//! same path that doubles a saturated group's block array (`grow`), which
//! therefore preserves membership exactly (property-tested).

use std::collections::{BTreeMap, BTreeSet};

use cind_bitset::{BitSetOps, FixedBitSet};

use crate::arena::{PresenceIndex, SynopsisArena};
use crate::validate::InvariantViolation;

/// Slots per filter group — one `u64` mask word.
pub const SLOTS_PER_GROUP: usize = 64;

/// Summary words per group (4096-bit attribute Bloom filter, two probe
/// bits per key). The irregular long-tail attributes give a 64-slot
/// group on the order of a hundred distinct keys; at 4096 bits the
/// summary stays a few percent full, so the AND of a key's two planes
/// admits a foreign group with probability well under one percent — and
/// the block probes (three random loads into a multi-megabyte flat
/// buffer) are paid only for groups that survive it.
const SUMMARY_WORDS: usize = 64;

/// Distinct `(attr, slot)` insertions per block before a group's block
/// array doubles. The equilibrium filter density is what this buys:
/// growth stops when a block carries at most this many keys, i.e. at
/// ≥ 64/GROW_LOAD filter bits per key — 16 at the current setting, which
/// with three probes prices the per-slot false-positive rate well under
/// one percent (EXPERIMENTS.md, historical PR 10 row, measures it).
const GROW_LOAD: u32 = 4;

/// Clear events tolerated before a group is rebuilt from exact state.
const REBUILD_STALE: u32 = 64;

/// Tuning knobs of the tiered index. The defaults target the bench's
/// group-structured catalogs; the `tier` bench sweeps `blocks_per_group`
/// to chart false-positive rate against filter bits per key.
#[derive(Clone, Copy, Debug)]
pub struct TierParams {
    /// Initial blocks (64-bit words) per 64-slot group; rounded up to a
    /// power of two, minimum 2.
    pub blocks_per_group: usize,
    /// Ceiling for a group's block array; growth stops here.
    pub max_blocks_per_group: usize,
    /// Maximum slots in the exact hot tier.
    pub hot_capacity: usize,
    /// Operations per heat epoch: heat counters halve after this many ops.
    pub epoch_ops: u64,
    /// Heat at which a slot is promoted into the hot tier.
    pub promote_heat: u32,
}

impl Default for TierParams {
    fn default() -> Self {
        Self {
            blocks_per_group: 8,
            max_blocks_per_group: 128,
            hot_capacity: 256,
            epoch_ops: 1024,
            promote_heat: 4,
        }
    }
}

/// Which synopsis space a tier operation addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Space {
    /// Rating space (insert-scan candidates).
    Rating,
    /// Attribute space (query-survivor planning).
    Attr,
}

/// splitmix64 finalizer — the deterministic hash behind block probes and
/// summary bits.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The three block probes of key hash `h` in an `nblocks`-block group.
/// `nblocks` must be a power of two (≤ 128, so 7 bits per probe; the
/// shifts keep the three index draws disjoint).
#[inline]
fn probes(h: u64, nblocks: usize) -> (usize, usize, usize) {
    (
        h as usize & (nblocks - 1),
        (h >> 21) as usize & (nblocks - 1),
        (h >> 42) as usize & (nblocks - 1),
    )
}

/// The two summary bit indices of key hash `h` — 12-bit fields disjoint
/// from the block probes' so summary and filter verdicts stay
/// independent.
#[inline]
fn summary_indices(h: u64) -> (usize, usize) {
    (
        (h >> 28) as usize & (SUMMARY_WORDS * 64 - 1),
        (h >> 49) as usize & (SUMMARY_WORDS * 64 - 1),
    )
}

/// One synopsis space's filter rows: a [`GroupFilter`] per 64-slot group.
#[derive(Clone, Debug)]
pub struct FilterBank {
    /// Every group's block words, packed back to back; `offs[g]` locates a
    /// group's power-of-two block array. One flat allocation, so the plan
    /// path's group sweep is a linear walk, not a pointer chase per group.
    words: Vec<u64>,
    /// Per-group (offset into `words`, log₂ block count).
    offs: Vec<(u32, u8)>,
    /// [`SUMMARY_WORDS`] union-summary words per group, contiguous — the
    /// hierarchical layer: a clear summary bit skips the whole group.
    /// Group-major; the rebuild path reads a group's bits here to clear
    /// the matching plane bits.
    summaries: Vec<u64>,
    /// Plane-major transpose of `summaries`: for each of the 4096 summary
    /// bits, a bitmap over *groups* (`plane_stride` words per bit). The
    /// plan path ANDs a key's two planes to find its candidate groups in
    /// a few sequential words instead of sweeping every group's summary —
    /// the transposition the exact presence index applies to slots, one
    /// level up the hierarchy.
    planes: Vec<u64>,
    /// Words per plane: `ceil(groups / 64)`, grown geometrically.
    plane_stride: usize,
    /// `(attr, slot)` set calls per group since its last rebuild — the
    /// grow trigger.
    load: Vec<u32>,
    /// Clear events per group since its last rebuild — the rebuild
    /// trigger.
    stale: Vec<u32>,
    /// Words stranded by grow-relocations (a grown group moves to the end
    /// of `words`); compacted once past half the buffer.
    waste: usize,
    init_blocks: usize,
    max_blocks: usize,
}

impl FilterBank {
    fn new(params: &TierParams) -> Self {
        let init = params.blocks_per_group.next_power_of_two().max(2);
        Self {
            words: Vec::new(),
            offs: Vec::new(),
            summaries: Vec::new(),
            planes: Vec::new(),
            plane_stride: 0,
            load: Vec::new(),
            stale: Vec::new(),
            waste: 0,
            init_blocks: init,
            max_blocks: params.max_blocks_per_group.next_power_of_two().max(init),
        }
    }

    /// Number of materialised groups.
    pub fn groups(&self) -> usize {
        self.offs.len()
    }

    /// Block words of group `g` (tests chart growth through this).
    pub fn group_blocks(&self, g: usize) -> usize {
        1usize << self.offs[g].1
    }

    fn ensure_group(&mut self, slot: usize) {
        let g = slot / SLOTS_PER_GROUP;
        while self.offs.len() <= g {
            let lg = u8::try_from(self.init_blocks.trailing_zeros()).unwrap_or(0);
            self.offs.push((self.words.len() as u32, lg));
            self.words.resize(self.words.len() + self.init_blocks, 0);
            self.summaries.resize(self.summaries.len() + SUMMARY_WORDS, 0);
            self.load.push(0);
            self.stale.push(0);
        }
        let needed = self.offs.len().div_ceil(64);
        if needed > self.plane_stride {
            self.restride_planes(needed.max(self.plane_stride * 2));
        }
    }

    /// Re-lays the plane-major summary for a wider group universe.
    fn restride_planes(&mut self, stride: usize) {
        let mut planes = vec![0u64; SUMMARY_WORDS * 64 * stride];
        for s in 0..SUMMARY_WORDS * 64 {
            let (old, new) = (s * self.plane_stride, s * stride);
            planes[new..new + self.plane_stride]
                .copy_from_slice(&self.planes[old..old + self.plane_stride]);
        }
        self.planes = planes;
        self.plane_stride = stride;
    }

    /// The group bitmap of summary bit `s` (`plane_stride` words).
    #[inline]
    fn plane(&self, s: usize) -> &[u64] {
        &self.planes[s * self.plane_stride..(s + 1) * self.plane_stride]
    }

    /// Records `(attr, slot)`; returns `true` when the group's block array
    /// is saturated and wants a grow-rebuild.
    fn set(&mut self, attr: u32, slot: usize) -> bool {
        self.ensure_group(slot);
        let g = slot / SLOTS_PER_GROUP;
        let (off, lg) = self.offs[g];
        let (off, nblocks) = (off as usize, 1usize << lg);
        let h = mix(u64::from(attr));
        let (p1, p2, p3) = probes(h, nblocks);
        let (s1, s2) = summary_indices(h);
        let bit = 1u64 << (slot % SLOTS_PER_GROUP);
        self.words[off + p1] |= bit;
        self.words[off + p2] |= bit;
        self.words[off + p3] |= bit;
        self.summaries[g * SUMMARY_WORDS + s1 / 64] |= 1u64 << (s1 % 64);
        self.summaries[g * SUMMARY_WORDS + s2 / 64] |= 1u64 << (s2 % 64);
        let (gw, gb) = (g / 64, 1u64 << (g % 64));
        self.planes[s1 * self.plane_stride + gw] |= gb;
        self.planes[s2 * self.plane_stride + gw] |= gb;
        self.load[g] = self.load[g].saturating_add(1);
        self.load[g] > GROW_LOAD * nblocks as u32 && nblocks < self.max_blocks
    }

    /// Records a clear affecting `slot`'s group; returns `true` when the
    /// group's staleness crossed the rebuild threshold.
    fn note_stale(&mut self, slot: usize) -> bool {
        let g = slot / SLOTS_PER_GROUP;
        let Some(s) = self.stale.get_mut(g) else { return false };
        *s = s.saturating_add(1);
        *s == REBUILD_STALE
    }

    /// The candidate mask of `attr` over group `g` (64 slot bits).
    fn mask(&self, g: usize, attr: u32) -> u64 {
        if g >= self.offs.len() {
            return 0;
        }
        self.mask_h(g, mix(u64::from(attr)))
    }

    /// [`FilterBank::mask`] with the key hash precomputed — the plan path
    /// hashes each query attribute once, not once per group. The group
    /// summary is the fast path: a clear summary bit skips the block
    /// probes (and, for queries, the whole group).
    #[inline]
    fn mask_h(&self, g: usize, h: u64) -> u64 {
        let (s1, s2) = summary_indices(h);
        let base = g * SUMMARY_WORDS;
        if self.summaries[base + s1 / 64] & (1u64 << (s1 % 64)) == 0
            || self.summaries[base + s2 / 64] & (1u64 << (s2 % 64)) == 0
        {
            return 0;
        }
        self.block_word_h(g, h)
    }

    /// The AND-of-probes candidate word of key hash `h` over group `g`,
    /// with no summary consultation — the plan path's plane sweep has
    /// already certified the summary bits.
    #[inline]
    fn block_word_h(&self, g: usize, h: u64) -> u64 {
        let (off, lg) = self.offs[g];
        let (off, nblocks) = (off as usize, 1usize << lg);
        let (p1, p2, p3) = probes(h, nblocks);
        // Two loads, then bail: on a summary false hit the partial AND is
        // usually already zero, and the third block load is the one most
        // likely to miss cache.
        let w = self.words[off + p1] & self.words[off + p2];
        if w == 0 {
            return 0;
        }
        w & self.words[off + p3]
    }

    /// Whether the filter admits `(attr, slot)` as a candidate. True for
    /// every pair ever `set` since the group's last rebuild from exact
    /// state — the superset guarantee validate leans on.
    pub fn contains(&self, attr: u32, slot: usize) -> bool {
        self.mask(slot / SLOTS_PER_GROUP, attr) & (1u64 << (slot % SLOTS_PER_GROUP)) != 0
    }

    /// Rebuilds group `g` from exact per-slot bit lists, doubling the block
    /// array when `grow` is set. Resets load and staleness. A grown group
    /// relocates to the end of the flat buffer; the stranded words are
    /// compacted away once they exceed half the buffer.
    fn rebuild_group(&mut self, g: usize, grow: bool, members: &[(usize, Vec<u32>)]) {
        if g >= self.offs.len() {
            return;
        }
        let (off, lg) = self.offs[g];
        let (off, nblocks) = (off as usize, 1usize << lg);
        if grow && nblocks < self.max_blocks {
            self.waste += nblocks;
            let lg = lg + 1;
            self.offs[g] = (self.words.len() as u32, lg);
            self.words.resize(self.words.len() + (1usize << lg), 0);
        } else {
            self.words[off..off + nblocks].fill(0);
        }
        // Clear this group's plane bits before zeroing its group-major
        // summary — the summary's set bits are the only record of which
        // planes name the group.
        let (gw, gb) = (g / 64, 1u64 << (g % 64));
        for sw in 0..SUMMARY_WORDS {
            let mut word = self.summaries[g * SUMMARY_WORDS + sw];
            while word != 0 {
                let s = sw * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.planes[s * self.plane_stride + gw] &= !gb;
            }
        }
        self.summaries[g * SUMMARY_WORDS..(g + 1) * SUMMARY_WORDS].fill(0);
        self.load[g] = 0;
        for (slot, bits) in members {
            debug_assert_eq!(slot / SLOTS_PER_GROUP, g);
            for &bit in bits {
                // `set` re-counts load during the rebuild; that is the
                // correct post-rebuild load (distinct live pairs, roughly).
                self.set(bit, *slot);
            }
        }
        self.stale[g] = 0;
        if self.waste * 2 > self.words.len() {
            self.compact();
        }
    }

    /// Re-packs every group's block array in group order, reclaiming the
    /// words stranded by grow-relocations.
    fn compact(&mut self) {
        let mut packed = Vec::with_capacity(self.words.len() - self.waste);
        for (off, lg) in &mut self.offs {
            let (o, n) = (*off as usize, 1usize << *lg);
            *off = packed.len() as u32;
            packed.extend_from_slice(&self.words[o..o + n]);
        }
        self.words = packed;
        self.waste = 0;
    }

    /// Heap bytes resident in this bank (stranded grow words included —
    /// they are real residency until the next compaction).
    pub fn resident_bytes(&self) -> usize {
        (self.words.len() + self.summaries.len() + self.planes.len()) * 8
            + self.offs.len() * 16
    }
}

/// Deferred maintenance, drained by [`TieredIndex::service`] with the
/// catalog's exact state in hand.
#[derive(Clone, Debug, Default)]
struct PendingWork {
    /// Groups to rebuild: `(space, group, grow)`.
    rebuilds: Vec<(Space, usize, bool)>,
    /// Slots whose heat crossed the promotion bar.
    promotes: Vec<usize>,
    /// Hot slots whose heat decayed to zero.
    demotes: Vec<usize>,
}

impl PendingWork {
    fn is_empty(&self) -> bool {
        self.rebuilds.is_empty() && self.promotes.is_empty() && self.demotes.is_empty()
    }
}

/// The tiered index: filter banks for both synopsis spaces, the live-slot
/// mask, the hot tier, and the op-count heat clock.
#[derive(Clone, Debug)]
pub struct TieredIndex {
    params: TierParams,
    rating: FilterBank,
    attr: FilterBank,
    /// Live-slot mask, one word per group — approximate candidates are
    /// ANDed with it so a stale filter bit can never resurrect a dead slot.
    live_words: Vec<u64>,
    /// Hot-slot mask, one word per group (parallel to `live_words`).
    hot_words: Vec<u64>,
    /// Hot position → slot.
    hot_slots: Vec<usize>,
    /// Slot → hot position.
    hot_pos: BTreeMap<usize, usize>,
    /// Exact attr → hot-position bitmaps, rating space.
    hot_rating: PresenceIndex,
    /// Exact attr → hot-position bitmaps, attribute space.
    hot_attr: PresenceIndex,
    /// Per-slot op-count heat, halved every epoch.
    heat: Vec<u32>,
    ops_in_epoch: u64,
    pending: PendingWork,
}

impl TieredIndex {
    /// An empty tiered index with the given knobs.
    pub fn new(params: TierParams) -> Self {
        Self {
            rating: FilterBank::new(&params),
            attr: FilterBank::new(&params),
            params,
            live_words: Vec::new(),
            hot_words: Vec::new(),
            hot_slots: Vec::new(),
            hot_pos: BTreeMap::new(),
            hot_rating: PresenceIndex::new(),
            hot_attr: PresenceIndex::new(),
            heat: Vec::new(),
            ops_in_epoch: 0,
            pending: PendingWork::default(),
        }
    }

    fn bank(&self, space: Space) -> &FilterBank {
        match space {
            Space::Rating => &self.rating,
            Space::Attr => &self.attr,
        }
    }

    fn bank_mut(&mut self, space: Space) -> &mut FilterBank {
        match space {
            Space::Rating => &mut self.rating,
            Space::Attr => &mut self.attr,
        }
    }

    fn hot_rows(&self, space: Space) -> &PresenceIndex {
        match space {
            Space::Rating => &self.hot_rating,
            Space::Attr => &self.hot_attr,
        }
    }

    /// Registers a freshly allocated arena slot.
    pub(crate) fn on_slot_alloc(&mut self, slot: usize) {
        let g = slot / SLOTS_PER_GROUP;
        if self.live_words.len() <= g {
            self.live_words.resize(g + 1, 0);
            self.hot_words.resize(g + 1, 0);
        }
        self.live_words[g] |= 1u64 << (slot % SLOTS_PER_GROUP);
        if self.heat.len() <= slot {
            self.heat.resize(slot + 1, 0);
        }
        self.heat[slot] = 0;
        self.rating.ensure_group(slot);
        self.attr.ensure_group(slot);
    }

    /// Unregisters a released slot: drops it from the live mask and the hot
    /// tier, and charges its residue to both groups' staleness.
    pub(crate) fn on_slot_release(&mut self, slot: usize) {
        if let Some(w) = self.live_words.get_mut(slot / SLOTS_PER_GROUP) {
            *w &= !(1u64 << (slot % SLOTS_PER_GROUP));
        }
        if self.hot_pos.contains_key(&slot) {
            self.demote_now(slot);
        }
        if let Some(h) = self.heat.get_mut(slot) {
            *h = 0;
        }
        for space in [Space::Rating, Space::Attr] {
            if self.bank_mut(space).note_stale(slot) {
                self.queue_rebuild(space, slot / SLOTS_PER_GROUP, false);
            }
        }
        self.pending.promotes.retain(|&s| s != slot);
        self.pending.demotes.retain(|&s| s != slot);
    }

    /// Records a refcount 0→1 transition for `(attr, slot)`.
    pub(crate) fn set(&mut self, space: Space, attr: u32, slot: usize) {
        if self.bank_mut(space).set(attr, slot) {
            self.queue_rebuild(space, slot / SLOTS_PER_GROUP, true);
        }
        if let Some(&pos) = self.hot_pos.get(&slot) {
            match space {
                Space::Rating => self.hot_rating.set(attr, pos),
                Space::Attr => self.hot_attr.set(attr, pos),
            }
        }
    }

    /// Records a refcount 1→0 transition for `(attr, slot)`. Filter blocks
    /// are shared, so only staleness is charged; the hot tier clears
    /// exactly.
    pub(crate) fn clear(&mut self, space: Space, attr: u32, slot: usize) {
        if self.bank_mut(space).note_stale(slot) {
            self.queue_rebuild(space, slot / SLOTS_PER_GROUP, false);
        }
        if let Some(&pos) = self.hot_pos.get(&slot) {
            match space {
                Space::Rating => self.hot_rating.clear(attr, pos),
                Space::Attr => self.hot_attr.clear(attr, pos),
            }
        }
    }

    fn queue_rebuild(&mut self, space: Space, group: usize, grow: bool) {
        if let Some(entry) = self
            .pending
            .rebuilds
            .iter_mut()
            .find(|(s, g, _)| *s == space && *g == group)
        {
            entry.2 |= grow;
        } else {
            self.pending.rebuilds.push((space, group, grow));
        }
    }

    /// Advances the op-count heat clock by one operation touching `slot`.
    /// Epoch close halves every heat counter and queues cold hot-tier
    /// slots for demotion — deterministic in the op sequence.
    pub(crate) fn note_op(&mut self, slot: usize) {
        self.note_heat(slot, 1);
        self.ops_in_epoch += 1;
        if self.ops_in_epoch >= self.params.epoch_ops {
            self.ops_in_epoch = 0;
            for h in &mut self.heat {
                *h /= 2;
            }
            for &slot in &self.hot_slots {
                if self.heat.get(slot).copied().unwrap_or(0) == 0
                    && !self.pending.demotes.contains(&slot)
                {
                    self.pending.demotes.push(slot);
                }
            }
        }
    }

    /// Adds external heat (e.g. the reorganizer's scan counters) to `slot`
    /// and queues it for promotion when it crosses the bar.
    pub(crate) fn note_heat(&mut self, slot: usize, amount: u32) {
        if self.heat.len() <= slot {
            self.heat.resize(slot + 1, 0);
        }
        self.heat[slot] = self.heat[slot].saturating_add(amount);
        if self.heat[slot] >= self.params.promote_heat
            && !self.hot_pos.contains_key(&slot)
            && !self.pending.promotes.contains(&slot)
        {
            self.pending.promotes.push(slot);
        }
    }

    /// Whether `slot` is in the exact hot tier.
    pub fn is_hot(&self, slot: usize) -> bool {
        self.hot_pos.contains_key(&slot)
    }

    /// Hot-tier occupancy.
    pub fn hot_len(&self) -> usize {
        self.hot_slots.len()
    }

    /// Drains the deferred maintenance — filter grows and rebuilds,
    /// hot-tier promotions and demotions — deterministically, after every
    /// catalog mutation; no background thread. `exact(space, slot)` is the
    /// catalog's refcount view: the slot's exact bits, or `None` for a
    /// dead slot.
    pub(crate) fn service(&mut self, exact: &impl Fn(Space, usize) -> Option<Vec<u32>>) {
        while !self.pending.is_empty() {
            let work = std::mem::take(&mut self.pending);
            for (space, group, grow) in work.rebuilds {
                let lo = group * SLOTS_PER_GROUP;
                let members: Vec<(usize, Vec<u32>)> = (lo..lo + SLOTS_PER_GROUP)
                    .filter_map(|slot| Some((slot, exact(space, slot)?)))
                    .collect();
                self.bank_mut(space).rebuild_group(group, grow, &members);
            }
            for slot in work.promotes {
                self.set_hot(slot, true, exact);
            }
            for slot in work.demotes {
                self.demote_now(slot);
            }
        }
    }

    /// Moves `slot` into the hot tier with its exact bits (if it is live,
    /// cold, and the tier has room) or out of it.
    pub(crate) fn set_hot(
        &mut self,
        slot: usize,
        hot: bool,
        exact: &impl Fn(Space, usize) -> Option<Vec<u32>>,
    ) {
        if !hot {
            self.demote_now(slot);
        } else if !self.is_hot(slot) && self.hot_len() < self.params.hot_capacity {
            if let (Some(rating), Some(attr)) =
                (exact(Space::Rating, slot), exact(Space::Attr, slot))
            {
                self.promote_now(slot, rating, attr);
            }
        }
    }

    /// Promotes `slot` into the hot tier with its exact bits. Caller
    /// guarantees room and liveness.
    fn promote_now(
        &mut self,
        slot: usize,
        rating_bits: impl IntoIterator<Item = u32>,
        attr_bits: impl IntoIterator<Item = u32>,
    ) {
        debug_assert!(!self.hot_pos.contains_key(&slot));
        debug_assert!(self.hot_slots.len() < self.params.hot_capacity);
        let pos = self.hot_slots.len();
        self.hot_slots.push(slot);
        self.hot_pos.insert(slot, pos);
        self.hot_words[slot / SLOTS_PER_GROUP] |= 1u64 << (slot % SLOTS_PER_GROUP);
        for bit in rating_bits {
            self.hot_rating.set(bit, pos);
        }
        for bit in attr_bits {
            self.hot_attr.set(bit, pos);
        }
    }

    /// Demotes `slot` from the hot tier (swap-remove on positions; the
    /// moved slot's exact rows move with it).
    fn demote_now(&mut self, slot: usize) {
        let Some(pos) = self.hot_pos.remove(&slot) else { return };
        self.hot_words[slot / SLOTS_PER_GROUP] &= !(1u64 << (slot % SLOTS_PER_GROUP));
        let last = self.hot_slots.len() - 1;
        let moved = self.hot_slots[last];
        for rows in [&mut self.hot_rating, &mut self.hot_attr] {
            for attr in 0..rows.attrs() as u32 {
                let had_last = rows.row(attr).is_some_and(|r| r.contains(last as u32));
                if pos != last {
                    if had_last {
                        rows.set(attr, pos);
                    } else {
                        rows.clear(attr, pos);
                    }
                }
                rows.clear(attr, last);
            }
        }
        if pos != last {
            self.hot_slots[pos] = moved;
            self.hot_pos.insert(moved, pos);
        }
        self.hot_slots.pop();
    }

    /// The exact bits of a hot slot's row in `space`, ascending — `None`
    /// if the slot is not hot. Validate compares this against the
    /// refcount view (hot bitmaps ⇔ refcounts).
    fn hot_bits(&self, space: Space, slot: usize) -> Option<Vec<u32>> {
        let &pos = self.hot_pos.get(&slot)?;
        let rows = self.hot_rows(space);
        Some(
            (0..rows.attrs() as u32)
                .filter(|&a| rows.row(a).is_some_and(|r| r.contains(pos as u32)))
                .collect(),
        )
    }

    /// Whether the approximate tier admits `(attr, slot)` — exact for hot
    /// slots, filter membership for cold ones. Every exact-present pair
    /// must satisfy this (the no-false-negative invariant).
    pub fn approx_contains(&self, space: Space, attr: u32, slot: usize) -> bool {
        if let Some(&pos) = self.hot_pos.get(&slot) {
            return self
                .hot_rows(space)
                .row(attr)
                .is_some_and(|r| r.contains(pos as u32));
        }
        self.bank(space).contains(attr, slot)
    }

    /// ORs the candidate slots for `attrs` into `acc`: filter masks for
    /// cold groups (ANDed with live, minus hot), exact rows for the hot
    /// tier. The result is a superset of the exact candidate set.
    ///
    /// Cost shape: per attribute, the AND of its two summary planes (a
    /// few sequential words) names the candidate groups; only those few
    /// groups pay the random block-buffer probes, and each contributes
    /// one word-level OR into `acc`. Per-group or per-bit work over the
    /// whole catalog never happens here.
    pub(crate) fn candidates_into(&self, space: Space, attrs: &[u32], acc: &mut FixedBitSet) {
        let bank = self.bank(space);
        let groups = bank.groups().min(self.live_words.len());
        if groups > 0 {
            acc.grow(groups * SLOTS_PER_GROUP);
            let words = acc.blocks_mut();
            let gwords = groups.div_ceil(64);
            for &a in attrs {
                let h = mix(u64::from(a));
                let (s1, s2) = summary_indices(h);
                let (p1, p2) = (bank.plane(s1), bank.plane(s2));
                for gw in 0..gwords {
                    let mut gm = p1[gw] & p2[gw];
                    while gm != 0 {
                        let g = gw * 64 + gm.trailing_zeros() as usize;
                        gm &= gm - 1;
                        if g >= groups {
                            break;
                        }
                        let cold = self.live_words[g] & !self.hot_words[g];
                        if cold == 0 {
                            continue;
                        }
                        let word = bank.block_word_h(g, h) & cold;
                        if word != 0 {
                            words[g] |= word;
                        }
                    }
                }
            }
        }
        let rows = self.hot_rows(space);
        for &a in attrs {
            let Some(row) = rows.row(a) else { continue };
            for pos in row.iter_ones() {
                let slot = self.hot_slots[pos as usize];
                acc.grow(slot + 1);
                acc.insert(slot as u32);
            }
        }
    }

    /// Heap bytes resident in the tiered index (the number the `tier`
    /// bench compares against the exact presence bitmaps).
    pub fn resident_bytes(&self) -> usize {
        let mut bytes = self.rating.resident_bytes() + self.attr.resident_bytes();
        bytes += (self.live_words.len() + self.hot_words.len()) * 8;
        bytes += self.hot_slots.len() * 8 + self.hot_pos.len() * 16;
        bytes += self.heat.len() * 4;
        for rows in [&self.hot_rating, &self.hot_attr] {
            bytes += rows.resident_bytes();
        }
        bytes
    }

    /// Tier invariants against the catalog's exact `(bit, slot)` sets: the
    /// no-false-negative implication (every exact-present pair is admitted
    /// by the approximate tier), hot rows ⇔ refcounts in both directions,
    /// and the internal position/mask/capacity checks.
    pub(crate) fn validate(
        &self,
        arena: &SynopsisArena,
        want_rating: &BTreeSet<(u32, usize)>,
        want_attr: &BTreeSet<(u32, usize)>,
    ) -> Vec<InvariantViolation> {
        let mut out = self.validate_internal();
        for (space, label, want) in [
            (Space::Rating, "rating", want_rating),
            (Space::Attr, "attr", want_attr),
        ] {
            for &(bit, slot) in want {
                if !self.approx_contains(space, bit, slot) {
                    out.push(InvariantViolation::new(
                        "tier",
                        format!(
                            "{label} bit {bit} of slot {slot} ({}) absent from the \
                             approximate tier — a false negative",
                            arena.seg(slot)
                        ),
                    ));
                }
            }
            // (BTreeSet order is (bit, slot), so per-slot pushes ascend.)
            let mut exact: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            for &(bit, slot) in want {
                exact.entry(slot).or_default().push(bit);
            }
            for &slot in &self.hot_slots {
                if slot >= arena.slots() || !arena.is_live(slot) {
                    continue; // flagged by validate_internal
                }
                let exact = exact.get(&slot).map_or(&[][..], Vec::as_slice);
                let hot = self.hot_bits(space, slot).unwrap_or_default();
                if exact != hot.as_slice() {
                    out.push(InvariantViolation::new(
                        "tier",
                        format!(
                            "{}: hot {label} row {hot:?} but refcounts say {exact:?}",
                            arena.seg(slot)
                        ),
                    ));
                }
            }
        }
        out
    }

    /// Tier-internal structural invariants: hot position maps, hot/live
    /// masks, capacity, and hot rows staying within position range.
    fn validate_internal(&self) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let mut v = |detail: String| out.push(InvariantViolation::new("tier", detail));
        if self.hot_slots.len() != self.hot_pos.len() {
            v(format!(
                "hot tier: {} positions but {} mapped slots",
                self.hot_slots.len(),
                self.hot_pos.len()
            ));
        }
        if self.hot_slots.len() > self.params.hot_capacity {
            v(format!(
                "hot tier holds {} slots, capacity {}",
                self.hot_slots.len(),
                self.params.hot_capacity
            ));
        }
        for (pos, &slot) in self.hot_slots.iter().enumerate() {
            if self.hot_pos.get(&slot) != Some(&pos) {
                v(format!("hot slot {slot} at position {pos} not mapped back"));
            }
            let g = slot / SLOTS_PER_GROUP;
            let bit = 1u64 << (slot % SLOTS_PER_GROUP);
            if self.hot_words.get(g).copied().unwrap_or(0) & bit == 0 {
                v(format!("hot slot {slot} missing from the hot mask"));
            }
            if self.live_words.get(g).copied().unwrap_or(0) & bit == 0 {
                v(format!("hot slot {slot} is not live"));
            }
        }
        let hot_bits: u32 = self.hot_words.iter().map(|w| w.count_ones()).sum();
        if hot_bits as usize != self.hot_slots.len() {
            v(format!(
                "hot mask has {hot_bits} bits but the tier holds {} slots",
                self.hot_slots.len()
            ));
        }
        for (space, rows) in
            [("rating", &self.hot_rating), ("attr", &self.hot_attr)]
        {
            for attr in 0..rows.attrs() as u32 {
                let Some(row) = rows.row(attr) else { continue };
                for pos in row.iter_ones() {
                    if pos as usize >= self.hot_slots.len() {
                        v(format!(
                            "hot {space} row of attr {attr} names position {pos}, \
                             only {} occupied",
                            self.hot_slots.len()
                        ));
                    }
                }
            }
        }
        out
    }

    /// A compact clone of the attribute-space tier only — filter bank,
    /// masks, hot rows — enough to answer
    /// `candidates_into(Space::Attr, ..)` exactly as the live index does.
    /// The rating space, heat, and maintenance state are left empty, so
    /// the result must never be mutated or validated; it lives inside an
    /// immutable [`PruningSnapshot`](crate::PruningSnapshot).
    pub(crate) fn freeze_attr(&self) -> Self {
        Self {
            attr: self.attr.clone(),
            live_words: self.live_words.clone(),
            hot_words: self.hot_words.clone(),
            hot_slots: self.hot_slots.clone(),
            hot_attr: self.hot_attr.clone(),
            ..Self::new(self.params)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_admits_every_set_pair() {
        let mut bank = FilterBank::new(&TierParams::default());
        let pairs: Vec<(u32, usize)> =
            (0..500u32).map(|i| (i * 7 % 97, (i as usize * 13) % 300)).collect();
        for &(attr, slot) in &pairs {
            bank.set(attr, slot);
        }
        for &(attr, slot) in &pairs {
            assert!(bank.contains(attr, slot), "({attr}, {slot}) lost");
        }
    }

    #[test]
    fn rebuild_and_grow_preserve_membership() {
        let mut bank = FilterBank::new(&TierParams {
            blocks_per_group: 2,
            ..TierParams::default()
        });
        // One group, many pairs — force saturation.
        let pairs: Vec<(u32, usize)> = (0..200u32).map(|i| (i, (i as usize) % 64)).collect();
        for &(attr, slot) in &pairs {
            bank.set(attr, slot);
        }
        // Group the exact state by slot, as the catalog would.
        let mut by_slot: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &(attr, slot) in &pairs {
            by_slot.entry(slot).or_default().push(attr);
        }
        let members: Vec<(usize, Vec<u32>)> = by_slot.into_iter().collect();
        for grow in [false, true] {
            bank.rebuild_group(0, grow, &members);
            for &(attr, slot) in &pairs {
                assert!(
                    bank.contains(attr, slot),
                    "({attr}, {slot}) lost after rebuild (grow={grow})"
                );
            }
        }
        assert!(bank.group_blocks(0) > 2, "grow must widen the block array");
    }

    #[test]
    fn group_summary_skips_unseen_attributes() {
        let mut bank = FilterBank::new(&TierParams::default());
        bank.set(3, 0);
        // An unseen attribute usually misses the summary; when it collides
        // it still only produces false positives, never false negatives.
        assert!(bank.contains(3, 0));
        assert_eq!(bank.mask(5, 3), 0, "untouched group has no candidates");
    }

    #[test]
    fn hot_tier_promote_demote_keeps_rows_consistent() {
        let mut t = TieredIndex::new(TierParams { hot_capacity: 4, ..TierParams::default() });
        for slot in 0..3 {
            t.on_slot_alloc(slot);
        }
        t.promote_now(0, [1, 2], [1, 2]);
        t.promote_now(1, [2, 3], [2, 3]);
        t.promote_now(2, [9], [9]);
        assert!(t.validate_internal().is_empty(), "{:?}", t.validate_internal());
        assert!(t.approx_contains(Space::Rating, 2, 0));
        assert!(t.approx_contains(Space::Rating, 2, 1));
        assert!(!t.approx_contains(Space::Rating, 9, 1), "hot rows are exact");
        // Demote the middle: slot 2 swaps into its position with its rows.
        t.demote_now(1);
        assert!(t.validate_internal().is_empty(), "{:?}", t.validate_internal());
        assert!(t.is_hot(0) && t.is_hot(2) && !t.is_hot(1));
        assert!(t.approx_contains(Space::Rating, 9, 2));
        assert!(!t.approx_contains(Space::Rating, 2, 2));
    }

    #[test]
    fn candidates_cover_filters_and_hot_rows() {
        let mut t = TieredIndex::new(TierParams::default());
        for slot in 0..130 {
            t.on_slot_alloc(slot);
        }
        t.set(Space::Attr, 7, 3);
        t.set(Space::Attr, 7, 80);
        t.set(Space::Attr, 8, 129);
        t.promote_now(80, [], [7]);
        let mut acc = FixedBitSet::default();
        t.candidates_into(Space::Attr, &[7], &mut acc);
        assert!(acc.contains(3));
        assert!(acc.contains(80), "hot overlay must contribute");
        assert!(!acc.contains(129), "attr 8 only");
        // A released slot can never be a candidate, even with stale bits.
        t.on_slot_release(3);
        let mut acc = FixedBitSet::default();
        t.candidates_into(Space::Attr, &[7], &mut acc);
        assert!(!acc.contains(3), "dead slots are masked out");
    }

    #[test]
    fn heat_promotes_and_epoch_decay_demotes() {
        let mut t = TieredIndex::new(TierParams {
            epoch_ops: 8,
            promote_heat: 3,
            ..TierParams::default()
        });
        t.on_slot_alloc(0);
        t.note_op(0);
        t.note_op(0);
        assert!(t.pending.is_empty(), "below the bar");
        t.note_op(0);
        let work = std::mem::take(&mut t.pending);
        assert_eq!(work.promotes, vec![0]);
        t.promote_now(0, [1], [1]);
        // Run epochs with no further traffic: heat 3 → 1 → 0 → demote.
        for _ in 0..24 {
            t.note_op(0_usize.wrapping_add(0));
        }
        // Slot 0 keeps getting ops above, so instead cool a second slot.
        t.on_slot_alloc(1);
        for _ in 0..3 {
            t.note_heat(1, 1);
        }
        assert!(t.pending.promotes.contains(&1), "second promotion");
    }

    #[test]
    fn frozen_attr_tier_answers_like_the_live_one() {
        let mut t = TieredIndex::new(TierParams::default());
        for slot in 0..100 {
            t.on_slot_alloc(slot);
        }
        t.set(Space::Attr, 4, 10);
        t.set(Space::Attr, 4, 65);
        t.set(Space::Rating, 4, 30);
        t.promote_now(65, [], [4]);
        t.on_slot_release(20);
        let frozen = t.freeze_attr();
        let (mut live, mut cold) = (FixedBitSet::default(), FixedBitSet::default());
        t.candidates_into(Space::Attr, &[4], &mut live);
        frozen.candidates_into(Space::Attr, &[4], &mut cold);
        assert!(live.contains(10) && live.contains(65));
        assert_eq!(
            live.iter_ones().collect::<Vec<_>>(),
            cold.iter_ones().collect::<Vec<_>>()
        );
        assert!(frozen.resident_bytes() < t.resident_bytes(), "attr space only");
    }

    mod properties {
        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use crate::tier::{FilterBank, TierParams, SLOTS_PER_GROUP};

        proptest! {
            /// Membership survives any sequence of sets followed by a
            /// rebuild, with or without a grow — the no-false-negative
            /// half of the filter contract, under random pair sets.
            #[test]
            fn rebuild_preserves_random_membership(
                pairs in prop::collection::vec(
                    (0u32..512, 0usize..SLOTS_PER_GROUP),
                    1..300,
                ),
                grow in any::<bool>(),
            ) {
                let mut bank = FilterBank::new(&TierParams {
                    blocks_per_group: 2,
                    ..TierParams::default()
                });
                for &(attr, slot) in &pairs {
                    bank.set(attr, slot);
                }
                for &(attr, slot) in &pairs {
                    prop_assert!(bank.contains(attr, slot));
                }
                let mut by_slot: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
                for &(attr, slot) in &pairs {
                    by_slot.entry(slot).or_default().push(attr);
                }
                let members: Vec<(usize, Vec<u32>)> = by_slot.into_iter().collect();
                bank.rebuild_group(0, grow, &members);
                for &(attr, slot) in &pairs {
                    prop_assert!(
                        bank.contains(attr, slot),
                        "({}, {}) lost after rebuild (grow={})", attr, slot, grow
                    );
                }
            }

            /// The grow path keeps growing until `max_blocks_per_group` and
            /// never drops a pair at any width.
            #[test]
            fn grow_to_max_width_preserves_membership(
                attrs in prop::collection::btree_set(0u32..2048, 32..256),
            ) {
                let mut bank = FilterBank::new(&TierParams {
                    blocks_per_group: 2,
                    max_blocks_per_group: 16,
                    ..TierParams::default()
                });
                let members: Vec<(usize, Vec<u32>)> =
                    vec![(0, attrs.iter().copied().collect())];
                for &attr in &attrs {
                    if bank.set(attr, 0) {
                        bank.rebuild_group(0, true, &members[..1]);
                    }
                }
                prop_assert!(bank.group_blocks(0) <= 16);
                for &attr in &attrs {
                    prop_assert!(bank.contains(attr, 0), "({}, 0) lost", attr);
                }
            }
        }
    }
}
