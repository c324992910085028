//! Slotted heap pages.

use crate::record::{self, Signature};
use crate::StorageError;

/// Page size in bytes. 8 KiB, matching the PostgreSQL default the paper's
/// prototype ran on.
pub const PAGE_SIZE: usize = 8192;

/// On-page header footprint (slot count + free-space pointer).
const HEADER: usize = 4;

/// On-page footprint of one slot directory entry (offset + length).
const SLOT: usize = 4;

/// Maximum serialized record size a single (empty) page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT;

/// Refuses a record no page can hold — the one size gate, which every
/// store path passes before it changes anything.
///
/// # Errors
/// [`StorageError::RecordTooLarge`] past [`MAX_RECORD`] bytes.
pub fn check_record_len(record: &[u8]) -> Result<(), StorageError> {
    if record.len() > MAX_RECORD {
        return Err(StorageError::RecordTooLarge { len: record.len(), max: MAX_RECORD });
    }
    Ok(())
}

/// Index of a record slot within a page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u16);

impl std::fmt::Display for SlotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    offset: u16,
    /// Record length; 0 marks a dead slot (records are never empty — they
    /// carry at least an id and an arity byte).
    len: u16,
}

/// An 8 KiB slotted page.
///
/// Record bytes grow from the front of the page; the slot directory is held
/// out-of-band for clarity but *accounted* as if it grew from the back, so
/// free-space arithmetic matches an on-disk slotted page exactly. Slot ids
/// are stable across deletion and [compaction](Page::compact) — record
/// references (`RecordId`) stay valid until the slot is explicitly deleted
/// and reused.
///
/// Beside the slot directory the page keeps one [`Signature`] per slot:
/// derived state — computed from the record bytes by [`Page::insert`], or
/// handed in with them by the encoder that made them
/// (`Page::insert_signed`), and never stored, logged or sent — that lets a scan tell,
/// without reading a record, that it instantiates none of the attributes a
/// query names.
#[derive(Clone, Debug)]
pub struct Page {
    data: Vec<u8>,
    slots: Vec<Slot>,
    /// One signature per entry of `slots`, zero for a dead slot.
    signatures: Vec<Signature>,
    /// First free byte in `data`.
    free_start: usize,
    /// Bytes occupied by deleted records (reclaimable by compaction).
    dead_bytes: usize,
    dead_slots: usize,
    live: usize,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Creates an empty page.
    pub fn new() -> Self {
        Self {
            data: vec![0; PAGE_SIZE],
            slots: Vec::new(),
            signatures: Vec::new(),
            free_start: 0,
            dead_bytes: 0,
            dead_slots: 0,
            live: 0,
        }
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Contiguous free bytes available right now (before compaction),
    /// excluding space needed for a new slot entry.
    fn contiguous_free(&self) -> usize {
        PAGE_SIZE - HEADER - self.free_start - SLOT * self.slots.len()
    }

    /// Whether a record of `len` bytes fits, possibly after compaction.
    pub fn fits(&self, len: usize) -> bool {
        let slot_cost = if self.dead_slots > 0 { 0 } else { SLOT };
        self.contiguous_free() + self.dead_bytes >= len + slot_cost
    }

    /// Inserts a record, compacting first if fragmentation requires it.
    /// Returns the slot id, or `None` if the record does not fit.
    ///
    /// # Panics
    /// Panics if `rec` is empty or longer than [`MAX_RECORD`] — the segment
    /// layer screens both before calling.
    pub fn insert(&mut self, rec: &[u8]) -> Option<SlotId> {
        self.insert_signed(rec, record::signature(rec))
    }

    /// [`Page::insert`] of a record whose [`Signature`] the caller already
    /// has — the encoder returns it with the bytes — so the record is not
    /// walked again. `signature` must be what the bytes give;
    /// [`Page::validate_signatures`] proves it.
    ///
    /// # Panics
    /// As [`Page::insert`].
    pub(crate) fn insert_signed(&mut self, rec: &[u8], signature: Signature) -> Option<SlotId> {
        assert!(!rec.is_empty(), "records are never empty");
        assert!(rec.len() <= MAX_RECORD, "record exceeds page capacity");
        if !self.fits(rec.len()) {
            return None;
        }
        let reuse = if self.dead_slots > 0 {
            self.slots.iter().position(|s| s.len == 0)
        } else {
            None
        };
        let slot_cost = if reuse.is_some() { 0 } else { SLOT };
        if self.contiguous_free() < rec.len() + slot_cost {
            self.compact();
        }
        let offset = self.free_start;
        self.data[offset..offset + rec.len()].copy_from_slice(rec);
        self.free_start += rec.len();
        let slot = Slot { offset: offset as u16, len: rec.len() as u16 };
        let id = match reuse {
            Some(i) => {
                self.slots[i] = slot;
                self.signatures[i] = signature;
                self.dead_slots -= 1;
                i
            }
            None => {
                self.slots.push(slot);
                self.signatures.push(signature);
                self.slots.len() - 1
            }
        };
        self.live += 1;
        Some(SlotId(id as u16))
    }

    /// Deletes the record in `slot`. Returns `false` if the slot was already
    /// dead or out of range.
    pub fn delete(&mut self, slot: SlotId) -> bool {
        match self.slots.get_mut(slot.0 as usize) {
            Some(s) if s.len != 0 => {
                self.dead_bytes += s.len as usize;
                s.len = 0;
                if let Some(signature) = self.signatures.get_mut(slot.0 as usize) {
                    *signature = 0;
                }
                self.dead_slots += 1;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Returns the record bytes in `slot`, if live.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        self.slots.get(slot.0 as usize).and_then(|s| {
            (s.len != 0).then(|| &self.data[s.offset as usize..(s.offset + s.len) as usize])
        })
    }

    /// Rewrites live records contiguously, reclaiming dead bytes. Slot ids
    /// are preserved.
    pub fn compact(&mut self) {
        if self.dead_bytes == 0 {
            return;
        }
        let mut new_data = vec![0; PAGE_SIZE];
        let mut cursor = 0usize;
        for s in &mut self.slots {
            if s.len == 0 {
                continue;
            }
            let len = s.len as usize;
            new_data[cursor..cursor + len]
                .copy_from_slice(&self.data[s.offset as usize..s.offset as usize + len]);
            s.offset = cursor as u16;
            cursor += len;
        }
        self.data = new_data;
        self.free_start = cursor;
        self.dead_bytes = 0;
    }

    /// Iterates `(slot, record-bytes)` over live records in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        self.candidates(Signature::MAX).map(|(slot, bytes, _)| (slot, bytes))
    }

    /// [`Page::iter`] over the live records whose signature shares a bit
    /// with `mask` — the records that may instantiate one of the attributes
    /// folded into it; no other record's bytes are read. `Signature::MAX`
    /// asks for every live record, one without attributes included. Each
    /// record comes with its stored signature, which bounds how far a
    /// reader after some attributes has to walk it.
    pub fn candidates(
        &self,
        mask: Signature,
    ) -> impl Iterator<Item = (SlotId, &[u8], Signature)> {
        let all = mask == Signature::MAX;
        self.slots
            .iter()
            .zip(&self.signatures)
            .enumerate()
            .filter(move |(_, (s, &signature))| s.len != 0 && (all || signature & mask != 0))
            .map(|(i, (s, &signature))| {
                (
                    SlotId(i as u16),
                    &self.data[s.offset as usize..(s.offset + s.len) as usize],
                    signature,
                )
            })
    }

    /// Cross-checks the signature column against the records it describes:
    /// one entry per slot, a live slot's equal to the signature recomputed
    /// from its bytes, a dead slot's zero. Returns a diagnostic per
    /// violation.
    pub fn validate_signatures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.signatures.len() != self.slots.len() {
            out.push(format!(
                "signature column has {} entries for {} slots",
                self.signatures.len(),
                self.slots.len()
            ));
        }
        for (i, (s, &stored)) in self.slots.iter().zip(&self.signatures).enumerate() {
            let slot = SlotId(i as u16);
            let derived = self.get(slot).map_or(0, record::signature);
            if stored != derived {
                let state = if s.len == 0 { "dead" } else { "live" };
                out.push(format!(
                    "{state} slot {slot}: stored signature {stored:#034x}, \
                     its bytes give {derived:#034x}"
                ));
            }
        }
        out
    }
}

#[cfg(test)]
impl Page {
    /// Seeds a corruption for the validator tests: overwrites one slot's
    /// stored signature without touching its bytes.
    pub(crate) fn corrupt_signature(&mut self, slot: SlotId, signature: Signature) {
        self.signatures[slot.0 as usize] = signature;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_delete() {
        let mut p = Page::new();
        let a = p.insert(b"aaaa").unwrap();
        let b = p.insert(b"bb").unwrap();
        assert_eq!(p.get(a), Some(&b"aaaa"[..]));
        assert_eq!(p.get(b), Some(&b"bb"[..]));
        assert_eq!(p.live_count(), 2);
        assert!(p.delete(a));
        assert!(!p.delete(a));
        assert_eq!(p.get(a), None);
        assert_eq!(p.live_count(), 1);
        assert_eq!(p.dead_bytes, 4);
    }

    #[test]
    fn dead_slot_is_reused() {
        let mut p = Page::new();
        let a = p.insert(b"aaaa").unwrap();
        let _b = p.insert(b"bb").unwrap();
        p.delete(a);
        let c = p.insert(b"cccc").unwrap();
        assert_eq!(c, a, "dead slot id should be recycled");
        assert_eq!(p.get(c), Some(&b"cccc"[..]));
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let rec = vec![7u8; 1000];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8188 bytes of usable space, 1004 per record → 8 records.
        assert_eq!(n, 8);
        assert!(!p.fits(1000));
        assert!(p.fits(100));
    }

    #[test]
    fn compaction_reclaims_and_preserves_slots() {
        let mut p = Page::new();
        let rec = vec![7u8; 1000];
        let slots: Vec<SlotId> = (0..8).map(|_| p.insert(&rec).unwrap()).collect();
        // Delete every other record; page now has 4000 dead bytes.
        for s in slots.iter().step_by(2) {
            p.delete(*s);
        }
        assert_eq!(p.dead_bytes, 4000);
        // A 2000-byte record only fits after compaction (contiguous free is
        // 8192-4-8000-32 = 156 bytes).
        let big = vec![9u8; 2000];
        let slot = p.insert(&big).unwrap();
        assert_eq!(p.get(slot).unwrap(), &big[..]);
        // Survivors are intact and still addressed by their old slot ids.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(*s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn iter_yields_live_in_slot_order() {
        let mut p = Page::new();
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b);
        let got: Vec<(SlotId, Vec<u8>)> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(got, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    fn record(id: u64, attrs: &[u32]) -> Vec<u8> {
        use cind_model::{AttrId, Entity, EntityId, Value};
        let attrs = attrs.iter().map(|&a| (AttrId(a), Value::Int(1)));
        crate::encode_entity(&Entity::new(EntityId(id), attrs).unwrap())
    }

    fn slots_of(p: &Page, mask: Signature) -> Vec<SlotId> {
        p.candidates(mask).map(|(slot, ..)| slot).collect()
    }

    #[test]
    fn candidates_are_the_records_sharing_a_bit_with_the_mask() {
        let bit = |a: u32| record::signature_bit(cind_model::AttrId(a));
        let mut p = Page::new();
        let a = p.insert(&record(1, &[3, 9])).unwrap();
        let b = p.insert(&record(2, &[9, 200])).unwrap();
        let bare = p.insert(&record(3, &[])).unwrap();
        let garbage = p.insert(&[0xff; 5]).unwrap();
        assert_eq!(slots_of(&p, bit(3)), vec![a, garbage]);
        assert_eq!(slots_of(&p, bit(9)), vec![a, b, garbage]);
        // 200 and 72 fold onto one bit; bytes that are no record meet every mask.
        assert_eq!(slots_of(&p, bit(72)), vec![b, garbage]);
        assert_eq!(slots_of(&p, bit(4) | bit(5)), vec![garbage]);
        assert_eq!(slots_of(&p, 0), vec![]);
        assert_eq!(slots_of(&p, Signature::MAX), vec![a, b, bare, garbage]);
        // A dead slot is no candidate; its successor brings its own signature.
        p.delete(a);
        p.delete(garbage);
        assert_eq!(slots_of(&p, bit(3)), vec![]);
        let c = p.insert(&record(4, &[5])).unwrap();
        assert_eq!(c, a);
        assert_eq!((slots_of(&p, bit(3)), slots_of(&p, bit(5))), (vec![], vec![c]));
        // Clones (copy-on-write pages) and compaction keep the column.
        let mut q = p.clone();
        q.compact();
        assert_eq!(slots_of(&q, bit(9)), vec![b]);
        assert!(p.validate_signatures().is_empty() && q.validate_signatures().is_empty());
    }

    #[test]
    fn validate_reports_each_seeded_signature_corruption() {
        let mut p = Page::new();
        let a = p.insert(&record(1, &[0, 2])).unwrap();
        let b = p.insert(&record(2, &[127])).unwrap();
        p.delete(a);
        assert_eq!(p.validate_signatures(), Vec::<String>::new());

        let mut bad = p.clone();
        bad.corrupt_signature(b, 0b101);
        assert_eq!(
            bad.validate_signatures(),
            vec![
                "live slot s1: stored signature 0x00000000000000000000000000000005, \
                 its bytes give 0x80000000000000000000000000000000"
            ]
        );

        let mut bad = p.clone();
        bad.corrupt_signature(a, 0b101);
        assert_eq!(
            bad.validate_signatures(),
            vec![
                "dead slot s0: stored signature 0x00000000000000000000000000000005, \
                 its bytes give 0x00000000000000000000000000000000"
            ]
        );

        let mut bad = p.clone();
        bad.signatures.pop();
        assert_eq!(bad.validate_signatures(), vec!["signature column has 1 entries for 2 slots"]);
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut p = Page::new();
        let rec = vec![1u8; MAX_RECORD];
        assert!(p.insert(&rec).is_some());
        assert!(!p.fits(1));
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_record_panics() {
        Page::new().insert(&vec![0u8; MAX_RECORD + 1]);
    }
}
