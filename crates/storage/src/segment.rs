//! Segments: the physical storage of one partition.

use std::sync::Arc;

use crate::page::{check_record_len, Page, SlotId, MAX_RECORD};
use crate::record::Signature;
use crate::StorageError;

/// Identifier of a segment (and thus of the partition stored in it).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegmentId(pub u32);

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// Physical address of a record within a segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RecordId {
    /// Page index within the segment.
    pub page: u32,
    /// Slot within the page.
    pub slot: SlotId,
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}/{}", self.page, self.slot)
    }
}

/// A heap of slotted pages holding one partition of a universal table.
///
/// Inserts go to the *active* page (the most recently written one) and fall
/// back to a linear free-space scan before allocating a new page — an
/// append-mostly policy that matches Cinderella's workload, where partitions
/// grow by insertion and shrink only by whole-partition splits or sporadic
/// deletes.
///
/// Pages are held behind [`Arc`] so a `clone()` of the segment is O(pages)
/// pointer copies, not O(bytes). The table in turn holds each segment
/// behind an `Arc`: a snapshot (see `UniversalTable::freeze`) shares whole
/// segments with the live table, the first write to a shared segment
/// clones it — this page list — and the first mutation of a page still
/// shared with that clone copies just that 8 KiB page (`Arc::make_mut`) —
/// copy-on-write at page granularity.
#[derive(Clone, Debug)]
pub struct Segment {
    id: SegmentId,
    pages: Vec<Arc<Page>>,
    active: usize,
    records: usize,
}

impl Segment {
    /// Creates an empty segment.
    pub fn new(id: SegmentId) -> Self {
        Self { id, pages: Vec::new(), active: 0, records: 0 }
    }

    /// The segment id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Re-brands the segment with the id a table gives it (attach path).
    pub(crate) fn set_id(&mut self, id: SegmentId) {
        self.id = id;
    }

    /// Number of pages allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of live records.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Whether the segment holds no live record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Borrow page `i`, if allocated.
    pub fn page(&self, i: u32) -> Option<&Page> {
        self.pages.get(i as usize).map(Arc::as_ref)
    }

    /// Mutable page `i` (copied first if shared), for seeding corruptions.
    #[cfg(test)]
    pub(crate) fn page_mut(&mut self, i: u32) -> Option<&mut Page> {
        self.pages.get_mut(i as usize).map(Arc::make_mut)
    }

    /// Inserts a serialized record, returning its address.
    ///
    /// # Errors
    /// [`StorageError::RecordTooLarge`] if the record cannot fit even an
    /// empty page.
    pub fn insert(&mut self, rec: &[u8]) -> Result<RecordId, StorageError> {
        self.insert_signed(rec, crate::record::signature(rec))
    }

    /// [`Segment::insert`] of a record whose [`Signature`] the caller
    /// already has (see [`Page::insert_signed`]).
    ///
    /// # Errors
    /// As [`Segment::insert`].
    pub(crate) fn insert_signed(&mut self, rec: &[u8], signature: Signature) -> Result<RecordId, StorageError> {
        check_record_len(rec)?;
        // Fast path: the active page. `fits` is checked on the shared page
        // before `Arc::make_mut` so a full page is never copied just to
        // discover there is no room.
        if let Some(page) = self.pages.get_mut(self.active) {
            if page.fits(rec.len()) {
                if let Some(slot) = Arc::make_mut(page).insert_signed(rec, signature) {
                    self.records += 1;
                    return Ok(RecordId { page: self.active as u32, slot });
                }
            }
        }
        // Slow path: first page with room (reclaims holes left by deletes).
        for (i, page) in self.pages.iter_mut().enumerate() {
            if i == self.active || !page.fits(rec.len()) {
                continue;
            }
            if let Some(slot) = Arc::make_mut(page).insert_signed(rec, signature) {
                self.active = i;
                self.records += 1;
                return Ok(RecordId { page: i as u32, slot });
            }
        }
        // Allocate. The size gate above guarantees an empty page fits the
        // record, so a `None` here can only mean that gate is broken —
        // surface it as the same typed error instead of panicking.
        let mut page = Page::new();
        let Some(slot) = page.insert_signed(rec, signature) else {
            return Err(StorageError::RecordTooLarge { len: rec.len(), max: MAX_RECORD });
        };
        self.pages.push(Arc::new(page));
        self.active = self.pages.len() - 1;
        self.records += 1;
        Ok(RecordId { page: self.active as u32, slot })
    }

    /// Returns the record bytes at `rid`.
    ///
    /// # Errors
    /// [`StorageError::NoSuchRecord`] for a dead or out-of-range address.
    pub fn get(&self, rid: RecordId) -> Result<&[u8], StorageError> {
        self.pages
            .get(rid.page as usize)
            .and_then(|p| p.get(rid.slot))
            .ok_or(StorageError::NoSuchRecord(self.id, rid))
    }

    /// Deletes the record at `rid`, returning its bytes.
    ///
    /// # Errors
    /// [`StorageError::NoSuchRecord`] for a dead or out-of-range address.
    pub fn delete(&mut self, rid: RecordId) -> Result<Vec<u8>, StorageError> {
        let page = self
            .pages
            .get_mut(rid.page as usize)
            .ok_or(StorageError::NoSuchRecord(self.id, rid))?;
        let bytes = page
            .get(rid.slot)
            .ok_or(StorageError::NoSuchRecord(self.id, rid))?
            .to_vec();
        Arc::make_mut(page).delete(rid.slot);
        self.records -= 1;
        Ok(bytes)
    }

    /// [`Page::validate_signatures`] over every page: a diagnostic per
    /// violation, naming the page.
    pub fn validate_signatures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, page) in self.pages.iter().enumerate() {
            let details = page.validate_signatures().into_iter();
            out.extend(details.map(|detail| format!("page {i}: {detail}")));
        }
        out
    }

    /// Iterates `(address, record-bytes)` over all live records, page by
    /// page. Callers that model I/O must touch the buffer pool once per page
    /// (see `UniversalTable::scan`).
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &[u8])> {
        self.pages.iter().enumerate().flat_map(|(pi, page)| {
            page.iter()
                .map(move |(slot, rec)| (RecordId { page: pi as u32, slot }, rec))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut s = Segment::new(SegmentId(1));
        let a = s.insert(b"hello").unwrap();
        let b = s.insert(b"world!").unwrap();
        assert_eq!(s.get(a).unwrap(), b"hello");
        assert_eq!(s.get(b).unwrap(), b"world!");
        assert_eq!(s.record_count(), 2);
        assert_eq!(s.page_count(), 1);
    }

    #[test]
    fn spills_to_new_pages() {
        let mut s = Segment::new(SegmentId(1));
        let rec = vec![1u8; 2000];
        for _ in 0..9 {
            s.insert(&rec).unwrap();
        }
        // 4 records of 2004 bytes per 8188-byte page → 3 pages for 9 records.
        assert_eq!(s.page_count(), 3);
        assert_eq!(s.record_count(), 9);
    }

    #[test]
    fn delete_returns_bytes_and_frees() {
        let mut s = Segment::new(SegmentId(1));
        let a = s.insert(b"abc").unwrap();
        assert_eq!(s.delete(a).unwrap(), b"abc".to_vec());
        assert!(s.is_empty());
        assert!(matches!(s.delete(a), Err(StorageError::NoSuchRecord(..))));
        assert!(matches!(s.get(a), Err(StorageError::NoSuchRecord(..))));
    }

    #[test]
    fn holes_are_reused_before_allocating() {
        let mut s = Segment::new(SegmentId(1));
        let rec = vec![1u8; 2000];
        let mut rids = Vec::new();
        for _ in 0..8 {
            rids.push(s.insert(&rec).unwrap());
        }
        assert_eq!(s.page_count(), 2);
        // Free all of page 0, then insert: should land in page 0, not page 2.
        for rid in rids.iter().filter(|r| r.page == 0) {
            s.delete(*rid).unwrap();
        }
        let rid = s.insert(&rec).unwrap();
        assert_eq!(rid.page, 0);
        assert_eq!(s.page_count(), 2);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut s = Segment::new(SegmentId(1));
        let a = s.insert(b"original").unwrap();
        let snap = s.clone();
        s.delete(a).unwrap();
        let b = s.insert(b"replacement").unwrap();
        // The clone still sees the pre-mutation page; the live segment moved on.
        assert_eq!(snap.get(a).unwrap(), b"original");
        assert_eq!(snap.record_count(), 1);
        assert_eq!(s.get(b).unwrap(), b"replacement");
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut s = Segment::new(SegmentId(1));
        let e = s.insert(&vec![0u8; MAX_RECORD + 1]).unwrap_err();
        assert!(matches!(e, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn iter_covers_all_live_records() {
        let mut s = Segment::new(SegmentId(1));
        let rec = vec![1u8; 3000];
        let mut rids = Vec::new();
        for _ in 0..5 {
            rids.push(s.insert(&rec).unwrap());
        }
        s.delete(rids[2]).unwrap();
        let seen: Vec<RecordId> = s.iter().map(|(rid, _)| rid).collect();
        assert_eq!(seen.len(), 4);
        assert!(!seen.contains(&rids[2]));
    }
}
