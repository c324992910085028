//! Tiered approximate pruning metadata — the `IndexTier::Tiered` storage
//! of [`PruningIndex`](crate::PruningIndex).
//!
//! The exact [`PresenceIndex`](crate::PresenceIndex) keeps one partition
//! bitmap per attribute: O(attrs × partitions) bits, the scaling ceiling a
//! million-partition catalog hits first. This module replaces those bitmaps
//! with two filter layers over one live-slot mask, in the catalog's one
//! synopsis space — attributes; the insert scan's rating-space candidates
//! are looked up here too, through
//! [`SynopsisMode::attr_cover`](crate::SynopsisMode::attr_cover):
//!
//! * **Blocked Bloom filter rows per partition group.** Slots are grouped
//!   64 to a group (one `u64` mask word). Each group owns a power-of-two
//!   array of 64-bit blocks; an attribute hashes to three blocks, and its
//!   candidate mask for the group is the AND of the three. Setting
//!   `(attr, slot)` ORs the slot's bit into *every* probed block, so the
//!   AND always covers every slot genuinely carrying the attribute —
//!   **no false negatives, by construction**. Collisions only ever *add*
//!   candidate bits (false positives cost a rating/scan, never an answer).
//! * **A group-level union synopsis.** Each group keeps a 4096-bit Bloom
//!   summary (two probe bits per key) over the attributes any member
//!   carries; a query attribute with either summary bit clear skips the
//!   whole group without touching its blocks — the hierarchical miss path,
//!   and the layer that keeps the plan sweep out of the big flat block
//!   buffer on foreign groups.
//!
//! Deletes never clear shared filter blocks (a block bit may be backed by
//! several (attr, slot) pairs); they only bump a per-group staleness
//! counter. When staleness or load crosses its threshold the *catalog*
//! rebuilds the group from the exact refcount state it already owns — the
//! same path that doubles a saturated group's block array (`grow`), which
//! therefore preserves membership exactly (property-tested). Releasing a
//! slot rebuilds its group at once: the arena recycles slots, and the next
//! occupant must not answer for the previous one's bits.
//!
//! The index keeps no clock and no heat: nothing here depends on how often
//! a slot is touched, only on which `(attr, slot)` pairs exist, so a run is
//! a pure function of its operation sequence (CIND-A005).

use std::collections::BTreeSet;

use cind_bitset::FixedBitSet;

use crate::arena::SynopsisArena;
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
pub(crate) const REBUILD_STALE: u32 = 64;

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
}

impl Default for TierParams {
    fn default() -> Self {
        Self {
            blocks_per_group: 8,
            max_blocks_per_group: 128,
        }
    }
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

/// The attribute space's filter rows: a blocked Bloom block array and a
/// union summary per 64-slot group.
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

/// The tiered index: the attribute space's filter bank, the live-slot
/// mask, and the deferred group-rebuild queue.
#[derive(Clone, Debug)]
pub struct TieredIndex {
    bank: FilterBank,
    /// Live-slot mask, one word per group — approximate candidates are
    /// ANDed with it so a stale filter bit can never resurrect a dead slot.
    live_words: Vec<u64>,
    /// Groups to rebuild, `(group, grow)`, drained by
    /// [`TieredIndex::service`] with the catalog's exact state in hand.
    pending: Vec<(usize, bool)>,
}

impl TieredIndex {
    /// An empty tiered index with the given knobs.
    pub fn new(params: TierParams) -> Self {
        Self {
            bank: FilterBank::new(&params),
            live_words: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Registers a freshly allocated arena slot.
    pub(crate) fn on_slot_alloc(&mut self, slot: usize) {
        let g = slot / SLOTS_PER_GROUP;
        if self.live_words.len() <= g {
            self.live_words.resize(g + 1, 0);
        }
        self.live_words[g] |= 1u64 << (slot % SLOTS_PER_GROUP);
        self.bank.ensure_group(slot);
    }

    /// Unregisters a released slot: drops it from the live mask and queues
    /// a rebuild of its group. The arena hands a released slot to the next
    /// partition created, and shared filter blocks cannot be cleared per
    /// slot — without the rebuild the new occupant would answer for every
    /// attribute of the old one.
    pub(crate) fn on_slot_release(&mut self, slot: usize) {
        let g = slot / SLOTS_PER_GROUP;
        if let Some(w) = self.live_words.get_mut(g) {
            *w &= !(1u64 << (slot % SLOTS_PER_GROUP));
        }
        self.queue_rebuild(g, false);
    }

    /// Records a refcount 0→1 transition for `(attr, slot)`.
    pub(crate) fn set(&mut self, attr: u32, slot: usize) {
        if self.bank.set(attr, slot) {
            self.queue_rebuild(slot / SLOTS_PER_GROUP, true);
        }
    }

    /// Records a refcount 1→0 transition in `slot`. Filter blocks are
    /// shared, so only staleness is charged.
    pub(crate) fn clear(&mut self, slot: usize) {
        if self.bank.note_stale(slot) {
            self.queue_rebuild(slot / SLOTS_PER_GROUP, false);
        }
    }

    fn queue_rebuild(&mut self, group: usize, grow: bool) {
        if let Some(entry) = self.pending.iter_mut().find(|(g, _)| *g == group) {
            entry.1 |= grow;
        } else {
            self.pending.push((group, grow));
        }
    }

    /// Drains the deferred filter grows and rebuilds, deterministically,
    /// after every catalog mutation; no background thread. `exact(slot)`
    /// is the catalog's refcount view: the slot's exact attribute bits, or
    /// `None` for a dead slot.
    pub(crate) fn service(&mut self, exact: &impl Fn(usize) -> Option<Vec<u32>>) {
        for (group, grow) in std::mem::take(&mut self.pending) {
            let lo = group * SLOTS_PER_GROUP;
            let members: Vec<(usize, Vec<u32>)> = (lo..lo + SLOTS_PER_GROUP)
                .filter_map(|slot| Some((slot, exact(slot)?)))
                .collect();
            self.bank.rebuild_group(group, grow, &members);
        }
    }

    /// ORs the candidate slots for `attrs` into `acc`: plane AND → block
    /// probes → ∧ live. The result is a superset of the exact candidate
    /// set.
    ///
    /// Cost shape: per attribute, the AND of its two summary planes (a
    /// few sequential words) names the candidate groups; only those few
    /// groups pay the random block-buffer probes, and each contributes
    /// one word-level OR into `acc`. Per-group or per-bit work over the
    /// whole catalog never happens here.
    pub(crate) fn candidates_into(&self, attrs: &[u32], acc: &mut FixedBitSet) {
        let bank = &self.bank;
        let groups = bank.groups().min(self.live_words.len());
        if groups == 0 {
            return;
        }
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
                    words[g] |= bank.block_word_h(g, h) & self.live_words[g];
                }
            }
        }
    }

    /// Heap bytes resident in the tiered index (the number the `tier`
    /// bench compares against the exact presence bitmaps).
    pub fn resident_bytes(&self) -> usize {
        self.bank.resident_bytes() + self.live_words.len() * 8
    }

    /// The tier's one invariant against the catalog's exact `(bit, slot)`
    /// set: every exact-present pair is admitted (no false negatives).
    pub(crate) fn validate(
        &self,
        arena: &SynopsisArena,
        want: &BTreeSet<(u32, usize)>,
    ) -> Vec<InvariantViolation> {
        want.iter()
            .filter(|&&(bit, slot)| !self.bank.contains(bit, slot))
            .map(|&(bit, slot)| {
                InvariantViolation::new(
                    "tier",
                    format!(
                        "attr bit {bit} of slot {slot} ({}) absent from the \
                         approximate tier — a false negative",
                        arena.seg(slot)
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
        assert!(bank.offs[0].1 > 1, "grow must widen the block array");
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
    fn candidates_cover_filter_rows_and_mask_dead_slots() {
        let mut t = TieredIndex::new(TierParams::default());
        for slot in 0..130 {
            t.on_slot_alloc(slot);
        }
        t.set(7, 3);
        t.set(7, 80);
        t.set(8, 129);
        let mut acc = FixedBitSet::default();
        t.candidates_into(&[7], &mut acc);
        assert!(acc.contains(3));
        assert!(acc.contains(80), "every group carrying the attribute contributes");
        assert!(!acc.contains(129), "attr 8 only");
        // A released slot can never be a candidate, even with stale bits.
        t.on_slot_release(3);
        let mut acc = FixedBitSet::default();
        t.candidates_into(&[7], &mut acc);
        assert!(!acc.contains(3), "dead slots are masked out");
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
                });
                let members: Vec<(usize, Vec<u32>)> =
                    vec![(0, attrs.iter().copied().collect())];
                for &attr in &attrs {
                    if bank.set(attr, 0) {
                        bank.rebuild_group(0, true, &members[..1]);
                    }
                }
                prop_assert!(bank.offs[0].1 <= 4, "at most 16 block words");
                for &attr in &attrs {
                    prop_assert!(bank.contains(attr, 0), "({}, 0) lost", attr);
                }
            }
        }
    }
}
