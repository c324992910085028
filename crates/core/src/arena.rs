//! Packed synopsis arena and attribute-presence bitmaps — the storage the
//! rating and planning hot paths sweep.
//!
//! Algorithm 1 rates the incoming entity against *every* partition, and the
//! planner tests *every* partition for `|p ∧ q| = 0`. With per-partition
//! heap-allocated synopses both loops pointer-chase one allocation per
//! partition. This module packs all rating synopses into one contiguous
//! `u64` arena (a fixed-stride row per partition, plus parallel `SegmentId`,
//! `SIZE(p)` and `|p|` columns), so the scan is a linear walk over adjacent
//! cache lines, and maintains per-attribute *partition-presence* bitmaps
//! (one bit per arena slot) so the candidate set of an entity — and the
//! survivor set of a query — is the OR of `|attrs|` bitmaps: `O(|q| · P/64)`
//! words instead of `O(P · U/64)`.
//!
//! The `|p|` column is the row's popcount, set by the one row write
//! ([`SynopsisArena::write_row`]). A row changes only when an attribute
//! enters or leaves its partition, so the rating scan reads `|p|` instead of
//! recounting it, and pays one AND-popcount per row word.
//!
//! Beside `|p|` the arena keeps, bit-sliced across slots, each slot's
//! can-win threshold `⌈(1−w)·|p|⌉` ([`can_win_threshold`]) for one rating
//! weight `w`: plane `j` holds bit `j` of every slot's threshold, so the
//! masked rating scan compares 64 slots' overlap counts with their
//! thresholds in a few word operations. The planes change wherever `|p|`
//! does (`write_row`, `alloc`, `release`) and are rebuilt only when the
//! weight they are kept for is set.
//!
//! Both structures are maintained exactly on insert, delete, split, and
//! merge by [`PartitionCatalog`](crate::PartitionCatalog); rows and presence
//! columns clear when a partition is removed, so there are no stale entries
//! to validate at read time. A row is the materialised rating view of the
//! partition's attribute synopsis, rewritten whenever an attribute enters
//! or leaves the partition; the bitmaps are the exact storage of the
//! [`PruningIndex`](crate::PruningIndex) over those attribute synopses.

use cind_bitset::FixedBitSet;
use cind_storage::SegmentId;

use crate::rating::can_win_threshold;
use crate::validate::InvariantViolation;

/// Contiguous storage for partition rating synopses.
///
/// Each live partition owns one *slot*: a `stride`-word row in the packed
/// `words` buffer plus entries in the parallel `segs` / `sizes` / `cards`
/// columns (`cards[slot]` is the popcount of the row, `|p|`) and a bit in
/// each of the threshold planes derived from `cards`.
/// Slots of removed partitions are zeroed and recycled through a free list,
/// so the arena stays dense under churn. The stride grows (rows re-laid out)
/// when the attribute universe outgrows the current row width.
#[derive(Debug, Default)]
pub struct SynopsisArena {
    words: Vec<u64>,
    stride: usize,
    segs: Vec<SegmentId>,
    sizes: Vec<u64>,
    cards: Vec<u32>,
    thresholds: ThresholdPlanes,
    live: Vec<bool>,
    free: Vec<usize>,
}

impl SynopsisArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slot rows (live and recycled).
    pub fn slots(&self) -> usize {
        self.segs.len()
    }

    /// Words per slot row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether `slot` currently backs a partition.
    pub fn is_live(&self, slot: usize) -> bool {
        self.live[slot]
    }

    /// The segment bound to `slot`.
    pub fn seg(&self, slot: usize) -> SegmentId {
        self.segs[slot]
    }

    /// The slot → segment column (entries of dead slots are stale).
    pub fn segs(&self) -> &[SegmentId] {
        &self.segs
    }

    /// `SIZE(p)` of the partition at `slot`.
    pub fn size(&self, slot: usize) -> u64 {
        self.sizes[slot]
    }

    /// Updates `SIZE(p)` of the partition at `slot`.
    pub fn set_size(&mut self, slot: usize, size: u64) {
        self.sizes[slot] = size;
    }

    /// `|p|`: the number of set bits in the row of `slot`, cached by
    /// [`write_row`](Self::write_row).
    pub(crate) fn card(&self, slot: usize) -> u32 {
        self.cards[slot]
    }

    /// Keeps the threshold planes for rating weight `weight` from now on,
    /// rebuilding them from `cards` if they were kept for another one.
    pub(crate) fn set_weight(&mut self, weight: f64) {
        if weight.to_bits() != self.thresholds.weight.to_bits() {
            self.thresholds.rebuild(weight, &self.cards, &self.live);
        }
    }

    /// The threshold planes for `weight`: the kept ones if they were built
    /// for it, else `spare`, rebuilt from `cards` for this one call.
    pub(crate) fn thresholds<'a>(
        &'a self,
        weight: f64,
        spare: &'a mut ThresholdPlanes,
    ) -> &'a ThresholdPlanes {
        if weight.to_bits() == self.thresholds.weight.to_bits() {
            &self.thresholds
        } else {
            spare.rebuild(weight, &self.cards, &self.live);
            spare
        }
    }

    /// The packed synopsis row of `slot`.
    pub fn row(&self, slot: usize) -> &[u64] {
        &self.words[slot * self.stride..(slot + 1) * self.stride]
    }

    /// Overwrites the threshold of `slot` behind the arena's back: the
    /// catalog's seeded-corruption tests.
    #[cfg(test)]
    pub(crate) fn corrupt_threshold(&mut self, slot: usize, t: u32) {
        self.thresholds.set(slot, t);
    }

    /// Allocates a zeroed slot for `seg`, recycling a freed row if one
    /// exists.
    pub fn alloc(&mut self, seg: SegmentId) -> usize {
        if let Some(slot) = self.free.pop() {
            debug_assert!(!self.live[slot]);
            debug_assert!(self.row(slot).iter().all(|w| *w == 0));
            debug_assert_eq!(self.thresholds.get(slot), 0);
            self.segs[slot] = seg;
            self.sizes[slot] = 0;
            self.cards[slot] = 0;
            self.live[slot] = true;
            slot
        } else {
            let slot = self.segs.len();
            self.words.resize(self.words.len() + self.stride, 0);
            self.segs.push(seg);
            self.sizes.push(0);
            self.cards.push(0);
            self.live.push(true);
            slot
        }
    }

    /// Releases `slot`: zeroes the row and recycles it.
    pub fn release(&mut self, slot: usize) {
        assert!(self.live[slot], "releasing a dead slot");
        let stride = self.stride;
        self.words[slot * stride..(slot + 1) * stride].fill(0);
        self.sizes[slot] = 0;
        self.cards[slot] = 0;
        self.thresholds.set(slot, 0);
        self.live[slot] = false;
        self.free.push(slot);
    }

    /// Overwrites the row of `slot` with the bitset words `bits` (words
    /// past their end read as zero), widening the stride if a set bit lies
    /// beyond the current row width — the catalog's one row write, taken
    /// whenever a partition's rating synopsis may have changed. Recounts the
    /// slot's cached `|p|` and rewrites its threshold.
    pub fn write_row(&mut self, slot: usize, bits: &[u64]) {
        let used = bits.iter().rposition(|w| *w != 0).map_or(0, |last| last + 1);
        if used > self.stride {
            self.grow_stride(used.next_power_of_two());
        }
        let row = &mut self.words[slot * self.stride..(slot + 1) * self.stride];
        row[..used].copy_from_slice(&bits[..used]);
        row[used..].fill(0);
        let card = bits[..used].iter().map(|w| w.count_ones()).sum();
        self.cards[slot] = card;
        self.thresholds.set(slot, can_win_threshold(self.thresholds.weight, card));
    }

    fn grow_stride(&mut self, new_stride: usize) {
        debug_assert!(new_stride > self.stride);
        let mut words = vec![0u64; new_stride * self.segs.len()];
        for slot in 0..self.segs.len() {
            let src = &self.words[slot * self.stride..(slot + 1) * self.stride];
            words[slot * new_stride..slot * new_stride + self.stride].copy_from_slice(src);
        }
        self.words = words;
        self.stride = new_stride;
        #[cfg(debug_assertions)]
        {
            let violations = self.validate();
            assert!(
                violations.is_empty(),
                "arena invariants violated after stride relayout:\n{}",
                crate::validate::render(&violations)
            );
        }
    }

    /// Cross-checks the arena's structural invariants, returning every
    /// violation found: parallel-column lengths, packed-buffer sizing,
    /// free-list integrity (in-range, duplicate-free, dead, covering every
    /// dead slot), the zeroed-row / zero-size guarantee for recycled slots
    /// that [`alloc`](Self::alloc) relies on, the cached `|p|` of every
    /// slot (the popcount of a live row, 0 for a dead one), and the
    /// threshold planes (a live slot's [`can_win_threshold`] of its `|p|`
    /// at the planes' weight, 0 for a dead slot and past the last slot).
    pub fn validate(&self) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let mut v = |detail: String| out.push(InvariantViolation::new("arena", detail));
        let slots = self.segs.len();
        if self.sizes.len() != slots || self.cards.len() != slots || self.live.len() != slots {
            v(format!(
                "parallel columns disagree: {} segs, {} sizes, {} cardinalities, {} live flags",
                slots,
                self.sizes.len(),
                self.cards.len(),
                self.live.len()
            ));
            return out; // Slot walks below would index out of bounds.
        }
        if self.words.len() != self.stride * slots {
            v(format!(
                "packed buffer holds {} words, want stride {} × {} slots = {}",
                self.words.len(),
                self.stride,
                slots,
                self.stride * slots
            ));
            return out;
        }
        let mut on_free = vec![false; slots];
        for &slot in &self.free {
            if slot >= slots {
                v(format!("free list entry {slot} out of range ({slots} slots)"));
                continue;
            }
            if on_free[slot] {
                v(format!("slot {slot} appears twice on the free list"));
            }
            on_free[slot] = true;
            if self.live[slot] {
                v(format!("slot {slot} is on the free list but marked live"));
            }
        }
        let weight = self.thresholds.weight;
        for (slot, &freed) in on_free.iter().enumerate().take(slots) {
            let card = self.cards[slot];
            // A live slot's threshold follows its card; a wrong card is
            // reported once, as itself.
            let mut want = Some(0);
            if self.live[slot] {
                let ones: u32 = self.row(slot).iter().map(|w| w.count_ones()).sum();
                want = (card == ones).then(|| can_win_threshold(weight, card));
                if card != ones {
                    v(format!(
                        "live slot {slot} caches cardinality {card} but its row holds {ones} bits"
                    ));
                }
            } else {
                if !freed {
                    v(format!("dead slot {slot} is missing from the free list"));
                }
                if self.row(slot).iter().any(|w| *w != 0) {
                    v(format!("dead slot {slot} has a non-zero synopsis row"));
                }
                if self.sizes[slot] != 0 {
                    v(format!(
                        "dead slot {slot} has non-zero size {}",
                        self.sizes[slot]
                    ));
                }
                if card != 0 {
                    v(format!("dead slot {slot} has non-zero cardinality {card}"));
                }
            }
            let held = self.thresholds.get(slot);
            if let Some(want) = want.filter(|&want| want != held) {
                v(format!("slot {slot}: threshold planes hold {held}, want {want} (w {weight})"));
            }
        }
        let planes = &self.thresholds.planes;
        for (j, plane) in planes.iter().enumerate() {
            if let Some(slot) = plane.iter_ones().find(|&s| s as usize >= slots) {
                v(format!("threshold plane {j} sets bit {slot} past the {slots} slots"));
            }
        }
        out
    }

    /// Iterates the live slots, ascending by slot index (NOT by segment —
    /// callers that need the catalog's segment-order tie-break compare
    /// segment ids explicitly).
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter_map(|(slot, &alive)| alive.then_some(slot))
    }
}

/// Per-slot unsigned thresholds, bit-sliced: `planes[j]` has bit `slot` set
/// iff bit `j` of the slot's threshold is. The arena keeps one set for the
/// weight it was told; the rating scan rebuilds a spare for any other.
#[derive(Debug, Default)]
pub(crate) struct ThresholdPlanes {
    /// The rating weight the thresholds are [`can_win_threshold`]s of.
    weight: f64,
    /// As many planes as the widest threshold written since the last
    /// rebuild needs.
    planes: Vec<FixedBitSet>,
}

impl ThresholdPlanes {
    /// Writes threshold `t` for `slot`.
    fn set(&mut self, slot: usize, t: u32) {
        let width = (u32::BITS - t.leading_zeros()) as usize;
        if self.planes.len() < width {
            self.planes.resize_with(width, FixedBitSet::default);
        }
        for (j, plane) in self.planes.iter_mut().enumerate() {
            if t >> j & 1 == 1 {
                plane.grow(slot + 1);
                plane.insert(slot as u32);
            } else {
                plane.remove(slot as u32);
            }
        }
    }

    /// The threshold of `slot` (0 past every plane).
    fn get(&self, slot: usize) -> u32 {
        let bit = |(j, plane): (usize, &FixedBitSet)| u32::from(plane.contains(slot as u32)) << j;
        self.planes.iter().enumerate().map(bit).sum()
    }

    /// Recomputes every threshold for `weight` from the `|p|` column.
    fn rebuild(&mut self, weight: f64, cards: &[u32], live: &[bool]) {
        self.weight = weight;
        self.planes.clear();
        for (slot, (&card, &alive)) in cards.iter().zip(live).enumerate() {
            if alive {
                self.set(slot, can_win_threshold(weight, card));
            }
        }
    }

    /// Word `word` of every plane, lowest plane first, into `out`; returns
    /// how many planes there are. Words past a plane's end read as zero.
    pub(crate) fn word_into(&self, word: usize, out: &mut [u64; 32]) -> usize {
        for (dst, plane) in out.iter_mut().zip(&self.planes) {
            *dst = plane.blocks().get(word).copied().unwrap_or(0);
        }
        self.planes.len()
    }
}

/// Per-attribute partition-presence bitmaps: `rows[attr]` has bit `slot`
/// set iff the partition in `slot` currently carries `attr` in its
/// attribute synopsis. Maintained exactly (set on refcount 0→1, cleared on
/// 1→0 and on partition removal).
#[derive(Clone, Debug, Default)]
pub struct PresenceIndex {
    rows: Vec<FixedBitSet>,
}

impl PresenceIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot bitmap of `attr`, if any partition ever carried it.
    pub fn row(&self, attr: u32) -> Option<&FixedBitSet> {
        self.rows.get(attr as usize)
    }

    /// Marks `slot` as carrying `attr`.
    pub fn set(&mut self, attr: u32, slot: usize) {
        let idx = attr as usize;
        if self.rows.len() <= idx {
            self.rows.resize_with(idx + 1, FixedBitSet::default);
        }
        let row = &mut self.rows[idx];
        row.grow(slot + 1);
        row.insert(slot as u32);
    }

    /// Clears `slot` from the bitmap of `attr`.
    pub fn clear(&mut self, attr: u32, slot: usize) {
        if let Some(row) = self.rows.get_mut(attr as usize) {
            row.remove(slot as u32);
        }
    }

    /// ORs the bitmaps of `attrs` into `acc` — the candidate/survivor set
    /// computation. `acc` grows as needed.
    pub fn union_rows_into(&self, attrs: impl Iterator<Item = u32>, acc: &mut FixedBitSet) {
        for attr in attrs {
            if let Some(row) = self.rows.get(attr as usize) {
                acc.union_with(row);
            }
        }
    }

    /// Number of attribute rows ever materialised (rows of attributes no
    /// partition carries any more stay allocated, with all bits clear).
    pub fn attrs(&self) -> usize {
        self.rows.len()
    }

    /// Heap bytes resident in the bitmaps — the exact-index side of the
    /// tiered-index memory comparison.
    pub fn resident_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|row| row.blocks().len() * 8 + std::mem::size_of::<FixedBitSet>())
            .sum()
    }

    /// Cross-checks the index against the arena it mirrors: every set bit
    /// must reference an in-range, live slot — presence of a dead or
    /// out-of-range slot would let the candidate/survivor OR resurrect a
    /// removed partition. Returns every violation found.
    pub fn validate(&self, arena: &SynopsisArena) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        for (attr, row) in self.rows.iter().enumerate() {
            for slot in row.iter_ones() {
                let slot = slot as usize;
                if slot >= arena.slots() {
                    out.push(InvariantViolation::new(
                        "presence",
                        format!(
                            "attr {attr}: bit for slot {slot} out of range ({} slots)",
                            arena.slots()
                        ),
                    ));
                } else if !arena.is_live(slot) {
                    out.push(InvariantViolation::new(
                        "presence",
                        format!("attr {attr}: bit set for dead slot {slot}"),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_recycles_slots() {
        let mut a = SynopsisArena::new();
        let s0 = a.alloc(SegmentId(0));
        let s1 = a.alloc(SegmentId(1));
        assert_eq!((s0, s1), (0, 1));
        a.write_row(s0, &[1 << 5]);
        a.set_size(s0, 7);
        assert_eq!(a.card(s0), 1);
        a.release(s0);
        // The recycled row comes back zeroed.
        let s2 = a.alloc(SegmentId(2));
        assert_eq!(s2, s0);
        assert!(a.row(s2).iter().all(|w| *w == 0));
        assert_eq!(a.size(s2), 0);
        assert_eq!(a.card(s2), 0);
        assert_eq!(a.seg(s2), SegmentId(2));
        assert_eq!(a.live_slots().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn stride_grows_preserving_rows() {
        let mut a = SynopsisArena::new();
        let s0 = a.alloc(SegmentId(0));
        let s1 = a.alloc(SegmentId(1));
        a.write_row(s0, &[1 << 3]);
        a.write_row(s1, &[1 << 63]);
        assert_eq!(a.stride(), 1);
        a.write_row(s1, &[1 << 63, 0, 0, 1 << (200 - 192)]); // word 3 → stride 4
        assert_eq!(a.stride(), 4);
        assert_eq!(a.row(s0), &[1 << 3, 0, 0, 0]);
        assert_eq!(a.row(s1)[0], 1 << 63);
        assert_eq!(a.row(s1)[3], 1 << (200 - 192));
        assert_eq!((a.card(s0), a.card(s1)), (1, 2), "a relayout keeps the cached |p|");
        a.write_row(s1, &[1 << 63]);
        assert_eq!(a.row(s1)[3], 0, "a shorter row clears the words past it");
        assert_eq!(a.card(s1), 1);
        // Trailing zero words never widen the stride.
        a.write_row(s0, &[1 << 3, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a.stride(), 4);
    }

    /// A healthy arena under churn validates clean.
    #[test]
    fn validate_accepts_churned_arena() {
        let mut a = SynopsisArena::new();
        for i in 0..6u32 {
            let s = a.alloc(SegmentId(i));
            let bit = i as usize * 13;
            let mut row = vec![0u64; bit / 64 + 1];
            row[bit / 64] = 1 << (bit % 64);
            a.write_row(s, &row);
            a.set_size(s, u64::from(i));
        }
        a.release(1);
        a.release(3);
        let _ = a.alloc(SegmentId(9));
        assert!(a.validate().is_empty(), "{:?}", a.validate());
    }

    /// Each seeded corruption is reported precisely — by the right check,
    /// naming the right slot — and never panics the validator.
    #[test]
    fn validate_reports_each_seeded_corruption() {
        let corrupted = |f: fn(&mut SynopsisArena), needle: &str| {
            let mut a = SynopsisArena::new();
            let s0 = a.alloc(SegmentId(0));
            let _s1 = a.alloc(SegmentId(1));
            a.write_row(s0, &[1 << 3]);
            a.release(s0);
            f(&mut a);
            let report = crate::validate::render(&a.validate());
            assert!(report.contains(needle), "wanted {needle:?} in:\n{report}");
            report
        };
        corrupted(|a| a.free.push(99), "free list entry 99 out of range");
        corrupted(|a| a.free.push(0), "slot 0 appears twice on the free list");
        corrupted(|a| a.free.push(1), "slot 1 is on the free list but marked live");
        corrupted(|a| a.free.clear(), "dead slot 0 is missing from the free list");
        corrupted(|a| a.words[0] = 0b100, "dead slot 0 has a non-zero synopsis row");
        corrupted(|a| a.sizes[0] = 7, "dead slot 0 has non-zero size 7");
        // The cached |p| is checked on its own: each report is exactly one line.
        assert_eq!(
            corrupted(|a| a.cards[1] = 5, "live slot 1"),
            "[arena] live slot 1 caches cardinality 5 but its row holds 0 bits"
        );
        assert_eq!(
            corrupted(|a| a.cards[0] = 2, "dead slot 0"),
            "[arena] dead slot 0 has non-zero cardinality 2"
        );
        corrupted(|a| a.live.pop().map_or((), |_| ()), "parallel columns disagree");
        corrupted(|a| a.words.push(0), "packed buffer holds 3 words");
        // The threshold planes: a live slot's, a dead slot's, one past the
        // last slot — each one line, naming the slot.
        assert_eq!(
            corrupted(|a| a.thresholds.set(1, 3), "slot 1"),
            "[arena] slot 1: threshold planes hold 3, want 0 (w 0)"
        );
        assert_eq!(
            corrupted(|a| a.thresholds.set(0, 2), "slot 0"),
            "[arena] slot 0: threshold planes hold 2, want 0 (w 0)"
        );
        assert_eq!(
            corrupted(|a| a.thresholds.set(70, 1), "past the"),
            "[arena] threshold plane 0 sets bit 70 past the 2 slots"
        );
    }

    /// The threshold planes follow `|p|` through row writes, releases and
    /// recycling, and a new weight rebuilds them; planes left at another
    /// weight's thresholds are reported.
    #[test]
    fn threshold_planes_follow_cards_and_weight() {
        let mut a = SynopsisArena::new();
        a.set_weight(0.5);
        let s0 = a.alloc(SegmentId(0));
        let s1 = a.alloc(SegmentId(1));
        a.write_row(s0, &[0b111]); // |p| 3 → ⌈1.5⌉
        a.write_row(s1, &[0xF, 1]); // |p| 5 → ⌈2.5⌉
        assert_eq!((a.thresholds.get(s0), a.thresholds.get(s1)), (2, 3));
        a.set_weight(0.0);
        assert_eq!((a.thresholds.get(s0), a.thresholds.get(s1)), (3, 5));
        a.release(s1);
        assert_eq!(a.thresholds.get(s1), 0, "a released slot's threshold clears");
        let s2 = a.alloc(SegmentId(2));
        assert_eq!((s2, a.thresholds.get(s2)), (s1, 0));
        assert!(a.validate().is_empty(), "{:?}", a.validate());
        // Planes kept at another weight's thresholds disagree with cards.
        a.thresholds.weight = 0.5;
        assert_eq!(
            crate::validate::render(&a.validate()),
            "[arena] slot 0: threshold planes hold 3, want 2 (w 0.5)"
        );
    }

    /// Presence bits pointing at dead or out-of-range slots are reported
    /// per attribute.
    #[test]
    fn presence_validate_reports_stale_bits() {
        let mut a = SynopsisArena::new();
        let s0 = a.alloc(SegmentId(0));
        let _s1 = a.alloc(SegmentId(1));
        let mut p = PresenceIndex::new();
        p.set(4, s0);
        assert!(p.validate(&a).is_empty());
        a.release(s0);
        let report = crate::validate::render(&p.validate(&a));
        assert!(report.contains("attr 4: bit set for dead slot 0"), "{report}");
        let mut p = PresenceIndex::new();
        p.set(2, 9);
        let report = crate::validate::render(&p.validate(&a));
        assert!(report.contains("attr 2: bit for slot 9 out of range"), "{report}");
    }

    #[test]
    fn presence_rows_or_together() {
        let mut p = PresenceIndex::new();
        p.set(2, 0);
        p.set(2, 5);
        p.set(7, 3);
        let mut acc = FixedBitSet::default();
        p.union_rows_into([2u32, 7, 9].into_iter(), &mut acc);
        assert_eq!(acc.iter_ones().collect::<Vec<_>>(), vec![0, 3, 5]);
        p.clear(2, 5);
        let mut acc = FixedBitSet::default();
        p.union_rows_into([2u32].into_iter(), &mut acc);
        assert_eq!(acc.iter_ones().collect::<Vec<_>>(), vec![0]);
        // Clearing an attribute no partition ever carried is fine.
        p.clear(100, 0);
    }
}
