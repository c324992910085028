//! The universal table: segments + attribute catalog + entity locator.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cind_model::{AttributeCatalog, Entity, EntityId};

use crate::buffer::PageKey;
use crate::page::check_record_len;
use crate::record::{decode_entity, encode_record, Signature};
use crate::segment::{RecordId, Segment, SegmentId};
use crate::{BufferPool, IoStats, PersistError, StorageError};

/// A horizontally partitioned sparse universal table.
///
/// One [`Segment`] per partition, an [`AttributeCatalog`] interning the
/// table's (wide, growing) attribute set, a locator index mapping each
/// entity to its physical address (the only one: snapshots carry none), and
/// a [`BufferPool`] that accounts every page access. The partitioning
/// *policy* lives above this layer (`cinderella-core` and
/// `cind-baselines`); the table just provides mechanism: create/drop
/// segments and insert/delete/move/scan entities.
///
/// ```
/// use cind_model::{Entity, EntityId, Value};
/// use cind_storage::UniversalTable;
///
/// let mut table = UniversalTable::new(64);
/// let name = table.catalog_mut().intern("name");
/// let seg = table.create_segment();
/// let e = Entity::new(EntityId(1), [(name, Value::from("WD4000"))]).unwrap();
/// table.insert(seg, &e)?;
/// assert_eq!(table.get(EntityId(1))?, e);
/// assert_eq!(table.location(EntityId(1)), Some(seg));
/// let mut seen = 0;
/// table.scan(seg, |_| seen += 1)?;
/// assert_eq!(seen, 1);
/// # Ok::<(), cind_storage::StorageError>(())
/// ```
pub struct UniversalTable {
    catalog: AttributeCatalog,
    /// Each segment behind its own `Arc`, shared with every outstanding
    /// [`TableSnapshot`] until a write reaches it: the write paths go
    /// through [`Self::segment_mut`], which copies a shared segment's page
    /// *list* (not its pages) first.
    segments: BTreeMap<SegmentId, Arc<Segment>>,
    locator: HashMap<EntityId, (SegmentId, RecordId)>,
    /// Shared with any outstanding [`TableSnapshot`] so snapshot scans keep
    /// feeding the same I/O counters as live scans.
    pool: Arc<BufferPool>,
    next_segment: u32,
    wal: Option<crate::wal::WalSink>,
}

impl UniversalTable {
    /// Creates an empty table whose buffer pool holds `pool_pages` pages.
    /// The pool is one LRU behind one mutex: every page access by this
    /// table, its read views and its snapshots takes that lock once.
    pub fn new(pool_pages: usize) -> Self {
        Self {
            catalog: AttributeCatalog::new(),
            segments: BTreeMap::new(),
            locator: HashMap::new(),
            pool: Arc::new(BufferPool::new(pool_pages)),
            next_segment: 0,
            wal: None,
        }
    }

    /// Attaches a write-ahead-log sink: from now on every mutation appends
    /// one checksummed entry (see [`crate::wal`]). Replaces any previous
    /// sink. Typical recovery: restore the last snapshot, then
    /// [`crate::wal::replay`] the log written since.
    pub fn attach_wal(&mut self, out: Box<dyn std::io::Write + Send + Sync>) {
        self.wal = Some(crate::wal::WalSink::new(out, 0));
    }

    /// Flushes the attached WAL sink, if any.
    ///
    /// # Errors
    /// I/O errors from the sink.
    pub fn flush_wal(&mut self) -> std::io::Result<()> {
        match &mut self.wal {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }

    /// Opens a WAL transaction group: every logged mutation until the
    /// matching [`Self::wal_txn_commit`] is buffered and written as one
    /// atomic batch. Nests (inner begin/commit pairs are absorbed into the
    /// outermost group); a no-op without an attached sink.
    pub fn wal_txn_begin(&mut self) {
        if let Some(wal) = &mut self.wal {
            wal.txn_begin();
        }
    }

    /// Closes a WAL transaction group (see [`Self::wal_txn_begin`]). The
    /// outermost commit performs the batch write; a failure there (or any
    /// earlier sticky failure) is surfaced so the caller knows the group
    /// did not reach the log.
    ///
    /// # Errors
    /// [`StorageError::WalAppend`] if the batch write failed or the sink
    /// was already broken.
    pub fn wal_txn_commit(&mut self) -> Result<(), StorageError> {
        if let Some(wal) = &mut self.wal {
            wal.txn_commit();
        }
        self.wal_ok()
    }

    /// Writes the epoch entry binding the attached log to a snapshot
    /// generation (see [`crate::wal::read_epoch`]). Call once, immediately
    /// after [`Self::attach_wal`].
    pub fn wal_mark_epoch(&mut self, epoch: u64) {
        if let Some(wal) = &mut self.wal {
            wal.log_epoch(epoch);
        }
    }

    /// Poisons the attached WAL sink as if an append had failed with
    /// `kind`. For callers whose own durability step broke (e.g. a
    /// checkpoint that renamed a new snapshot into place but failed to
    /// open its fresh log): entries appended to the *old* log would be
    /// skipped by recovery as stale, so the sink must go loud instead of
    /// silently accepting them.
    pub fn fail_wal(&mut self, kind: std::io::ErrorKind) {
        if let Some(wal) = &mut self.wal {
            wal.fail(kind);
        }
    }

    /// The attribute catalog.
    pub fn catalog(&self) -> &AttributeCatalog {
        &self.catalog
    }

    /// Mutable attribute catalog (for interning new attributes).
    pub fn catalog_mut(&mut self) -> &mut AttributeCatalog {
        &mut self.catalog
    }

    /// Synopsis universe size (= number of cataloged attributes).
    pub fn universe(&self) -> usize {
        self.catalog.len()
    }

    /// The buffer pool (for stats snapshots).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Cumulative I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Surfaces a sticky WAL append failure (see
    /// [`StorageError::WalAppend`]) — checked by every fallible mutation
    /// that logs, so a failure during an infallible one (e.g.
    /// [`create_segment`](Self::create_segment)) is reported at the next
    /// opportunity rather than swallowed.
    fn wal_ok(&self) -> Result<(), StorageError> {
        match self.wal.as_ref().and_then(|w| w.failure()) {
            Some(kind) => Err(StorageError::WalAppend(kind)),
            None => Ok(()),
        }
    }

    /// Allocates a fresh, empty segment.
    pub fn create_segment(&mut self) -> SegmentId {
        new_segment(&mut self.segments, &mut self.next_segment, &mut self.wal, &self.catalog)
    }

    /// Drops an **empty** segment.
    ///
    /// # Errors
    /// [`StorageError::NoSuchSegment`] if unknown; panics if non-empty (a
    /// policy bug — policies must move entities out first).
    pub fn drop_segment(&mut self, id: SegmentId) -> Result<(), StorageError> {
        let seg = self.segments.get(&id).ok_or(StorageError::NoSuchSegment(id))?;
        assert!(seg.is_empty(), "dropping non-empty segment {id}");
        self.segments.remove(&id);
        self.pool.invalidate_segment(id);
        if let Some(wal) = &mut self.wal {
            wal.log_drop_segment(&self.catalog, id);
        }
        self.wal_ok()
    }

    /// Ids of all live segments, ascending.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.segments.keys().copied()
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Borrows a segment.
    pub fn segment(&self, id: SegmentId) -> Result<&Segment, StorageError> {
        self.read_view().segment(id)
    }

    /// A segment for writing: un-shared from any snapshot still holding it
    /// (a copy of its page list, O(pages) pointer bumps) on the first write
    /// after a freeze, a plain borrow on every write after that.
    fn segment_mut(&mut self, id: SegmentId) -> Result<&mut Segment, StorageError> {
        self.segments
            .get_mut(&id)
            .map(Arc::make_mut)
            .ok_or(StorageError::NoSuchSegment(id))
    }

    /// Total number of stored entities.
    pub fn entity_count(&self) -> usize {
        self.locator.len()
    }

    /// The segment currently holding `entity`.
    pub fn location(&self, entity: EntityId) -> Option<SegmentId> {
        self.locator.get(&entity).map(|(s, _)| *s)
    }

    /// Attaches a segment of already-encoded records under a fresh id,
    /// indexing its records. Nothing but the entity ids is decoded.
    ///
    /// # Errors
    /// [`StorageError::DuplicateEntity`] if any member id is already stored
    /// (checked before anything is mutated), [`StorageError::CorruptRecord`]
    /// if a record fails to decode.
    pub fn attach_segment(&mut self, mut seg: Segment) -> Result<SegmentId, StorageError> {
        // Validate first: ids must decode and be fresh.
        for (_, rec) in seg.iter() {
            let eid = crate::record::decode_entity_id(rec)?;
            if self.locator.contains_key(&eid) {
                return Err(StorageError::DuplicateEntity(eid));
            }
        }
        let id = SegmentId(self.next_segment);
        self.next_segment += 1;
        seg.set_id(id);
        for (rid, rec) in seg.iter() {
            let eid = crate::record::decode_entity_id(rec)?;
            self.locator.insert(eid, (id, rid));
        }
        self.segments.insert(id, Arc::new(seg));
        Ok(id)
    }

    /// Re-creates a segment with a specific id during snapshot restore or
    /// WAL replay. Keeps `next_segment` ahead of every restored id so fresh
    /// segments never clash.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] if the stream names `id` twice.
    pub(crate) fn restore_segment(&mut self, id: SegmentId) -> Result<SegmentId, PersistError> {
        if self.segments.contains_key(&id) {
            return Err(PersistError::Corrupt("duplicate segment"));
        }
        self.segments.insert(id, Arc::new(Segment::new(id)));
        self.next_segment = self.next_segment.max(id.0.saturating_add(1));
        Ok(id)
    }

    /// Stores an already-encoded record during snapshot restore or WAL
    /// replay, indexing it without re-encoding. The record is decoded in
    /// full first, so one that is corrupt — or names an attribute the
    /// restored catalog does not hold, which no synopsis could represent —
    /// fails the restore, not a later scan or the partitioner's rebuild.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] for an attribute id beyond the catalog;
    /// [`PersistError::Storage`] for a record that does not decode, a
    /// repeated entity id or an unknown segment.
    pub(crate) fn restore_record(&mut self, seg: SegmentId, rec: &[u8]) -> Result<(), PersistError> {
        let entity = decode_entity(rec)?;
        if entity.attrs().last().is_some_and(|(attr, _)| attr.index() as usize >= self.catalog.len()) {
            return Err(PersistError::Corrupt("attribute id beyond catalog"));
        }
        let id = entity.id();
        if self.locator.contains_key(&id) {
            return Err(StorageError::DuplicateEntity(id).into());
        }
        let rid = self.segment_mut(seg)?.insert(rec)?;
        self.locator.insert(id, (seg, rid));
        Ok(())
    }

    /// Inserts `entity` into `seg`: [`Self::insert_record`] of its encoding.
    ///
    /// # Errors
    /// [`StorageError::DuplicateEntity`] if the id is already stored,
    /// [`StorageError::NoSuchSegment`] / [`StorageError::RecordTooLarge`]
    /// from the layers below.
    pub fn insert(&mut self, seg: SegmentId, entity: &Entity) -> Result<(), StorageError> {
        let mut record = Vec::with_capacity(8 + entity.arity() * 12);
        let attrs = entity.attrs().iter().map(|(attr, value)| (*attr, value.borrowed()));
        let signature = encode_record(entity.id(), attrs, &mut record);
        self.insert_record(Some(seg), entity.id(), &record, signature).map(drop)
    }

    /// Whether entity `id` with encoded `record` could be stored: its id is
    /// not, and the record fits a page. [`Self::insert_record`] makes the
    /// same two checks, in the same order, at its one locator probe; this is
    /// for a caller that must know before it changes anything else.
    ///
    /// # Errors
    /// [`StorageError::DuplicateEntity`], then
    /// [`StorageError::RecordTooLarge`].
    pub fn admits(&self, id: EntityId, record: &[u8]) -> Result<(), StorageError> {
        if self.locator.contains_key(&id) {
            return Err(StorageError::DuplicateEntity(id));
        }
        check_record_len(record)
    }

    /// Stores the encoded `record` of entity `id`, whose [`Signature`] the
    /// encoder returned with it ([`encode_record`]), in segment `into` — or,
    /// for `None`, in a segment created for it once the checks pass — and
    /// returns that segment. One locator probe both rejects a stored id and
    /// indexes the new record; a record too large for a page is refused at
    /// the same point. Either refusal leaves the table, its segments and
    /// its log as they were.
    ///
    /// # Errors
    /// [`StorageError::DuplicateEntity`], [`StorageError::RecordTooLarge`],
    /// [`StorageError::NoSuchSegment`] for an unknown `into`; a sticky WAL
    /// failure.
    pub fn insert_record(
        &mut self,
        into: Option<SegmentId>,
        id: EntityId,
        record: &[u8],
        signature: Signature,
    ) -> Result<SegmentId, StorageError> {
        let Self { catalog, segments, locator, pool, next_segment, wal } = self;
        let Entry::Vacant(slot) = locator.entry(id) else {
            return Err(StorageError::DuplicateEntity(id));
        };
        check_record_len(record)?;
        let seg = match into {
            Some(seg) => seg,
            None => new_segment(segments, next_segment, wal, catalog),
        };
        let segment = segments
            .get_mut(&seg)
            .map(Arc::make_mut)
            .ok_or(StorageError::NoSuchSegment(seg))?;
        let rid = segment.insert_signed(record, signature)?;
        slot.insert((seg, rid));
        pool.write(PageKey { segment: seg, page: rid.page });
        if let Some(wal) = wal {
            wal.log_insert(catalog, seg, record);
        }
        self.wal_ok()?;
        Ok(seg)
    }

    /// A `Send + Sync` scan handle over the table's immutable state: the
    /// catalog, the segments, and the (internally locked) buffer pool.
    /// Concurrent query sessions share one `ReadView` across threads while
    /// the table's `&mut self` write API stays single-writer by
    /// construction.
    pub fn read_view(&self) -> ReadView<'_> {
        ReadView {
            catalog: &self.catalog,
            segments: &self.segments,
            pool: &self.pool,
        }
    }

    /// Captures an *owned*, immutable snapshot of the table's current
    /// state. (Named `freeze` to stay clear of the persistence-layer
    /// [`snapshot`](Self::snapshot), which serialises to a byte stream.)
    ///
    /// O(segments) reference-count bumps, whatever the table holds: each
    /// segment is shared whole (a later write un-shares only the segment it
    /// reaches, and within it only the page it writes — see [`Segment`]),
    /// the catalog is shared until an unseen attribute is interned (see
    /// [`AttributeCatalog`]), the locator is not captured at all — point
    /// lookups are the live table's business — and the buffer pool is
    /// shared so snapshot scans account I/O in the same counters as live
    /// scans. The snapshot is `Send + Sync` and observes none of the
    /// table's subsequent mutations — the foundation for epoch-based
    /// snapshot reads that never block behind a writer.
    pub fn freeze(&self) -> TableSnapshot {
        TableSnapshot {
            catalog: self.catalog.clone(),
            segments: self.segments.clone(),
            pool: Arc::clone(&self.pool),
        }
    }

    /// Reads one entity by id (a point lookup through the locator; touches
    /// one page).
    pub fn get(&self, entity: EntityId) -> Result<Entity, StorageError> {
        let &(seg, rid) = self
            .locator
            .get(&entity)
            .ok_or(StorageError::NoSuchEntity(entity))?;
        let segment = self.segment(seg)?;
        self.pool.access(PageKey { segment: seg, page: rid.page });
        decode_entity(segment.get(rid)?)
    }

    /// Deletes one entity, returning it.
    pub fn delete(&mut self, entity: EntityId) -> Result<Entity, StorageError> {
        decode_entity(&self.remove_record(entity)?)
    }

    /// Unlinks the record of `entity` and returns its bytes: the locator
    /// removal, the segment delete, the page write and the WAL delete frame
    /// that [`Self::delete`] and [`Self::move_entity`] share.
    fn remove_record(&mut self, entity: EntityId) -> Result<Vec<u8>, StorageError> {
        let (seg, rid) = self
            .locator
            .remove(&entity)
            .ok_or(StorageError::NoSuchEntity(entity))?;
        let bytes = self.segment_mut(seg)?.delete(rid)?;
        self.pool.write(PageKey { segment: seg, page: rid.page });
        if let Some(wal) = &mut self.wal {
            wal.log_delete(&self.catalog, entity);
        }
        self.wal_ok()?;
        Ok(bytes)
    }

    /// Moves one entity's stored bytes to another segment, never decoding
    /// or re-encoding them: [`Self::insert_record`] of the unlinked bytes,
    /// so the WAL logs the delete + insert frames a delete and an insert
    /// would. A move within the same segment is a no-op.
    pub fn move_entity(&mut self, entity: EntityId, to: SegmentId) -> Result<(), StorageError> {
        let &(from, _) = self
            .locator
            .get(&entity)
            .ok_or(StorageError::NoSuchEntity(entity))?;
        if from == to {
            return Ok(());
        }
        if !self.segments.contains_key(&to) {
            return Err(StorageError::NoSuchSegment(to));
        }
        let record = self.remove_record(entity)?;
        let signature = crate::record::signature(&record);
        self.insert_record(Some(to), entity, &record, signature).map(drop)
    }

    /// Scans all entities of `seg`, invoking `f` for each. Touches the
    /// buffer pool once per page, so I/O deltas around a scan reflect the
    /// pages read.
    pub fn scan(
        &self,
        seg: SegmentId,
        f: impl FnMut(&Entity),
    ) -> Result<(), StorageError> {
        self.read_view().scan(seg, f)
    }

    /// Collects all entities of `seg` into a vector: a convenience for
    /// tests, the simulator's efficiency oracle and the standalone benchmark
    /// (the partitioner reads members through `Cinderella::members`).
    pub fn scan_collect(&self, seg: SegmentId) -> Result<Vec<Entity>, StorageError> {
        self.read_view().scan_collect(seg)
    }

    /// Proves bytes ⇔ signatures: cross-checks every page's signature
    /// column against the records it describes (see
    /// [`Page::validate_signatures`](crate::Page::validate_signatures)) and
    /// returns a diagnostic per violation, naming segment and page. A scan
    /// trusts the column to skip records unread, so this is the check that
    /// a skipped record was rightly skipped. Walks every stored record; run
    /// it at rest, not on the hot path.
    pub fn validate_signatures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (id, segment) in &self.segments {
            let details = segment.validate_signatures().into_iter();
            out.extend(details.map(|detail| format!("{id} {detail}")));
        }
        out
    }
}

/// Allocates a fresh, empty segment under the next id and logs it: the one
/// body of [`UniversalTable::create_segment`] and of an
/// [`UniversalTable::insert_record`] into a new segment, which holds the
/// locator borrowed meanwhile.
fn new_segment(
    segments: &mut BTreeMap<SegmentId, Arc<Segment>>,
    next_segment: &mut u32,
    wal: &mut Option<crate::wal::WalSink>,
    catalog: &AttributeCatalog,
) -> SegmentId {
    let id = SegmentId(*next_segment);
    *next_segment += 1;
    segments.insert(id, Arc::new(Segment::new(id)));
    if let Some(wal) = wal {
        wal.log_create_segment(catalog, id);
    }
    id
}

/// An owned, immutable snapshot of a [`UniversalTable`]'s state at one
/// instant (see [`UniversalTable::freeze`]).
///
/// Holds a handle on the catalog and on every segment (each shared with
/// the live table until a write un-shares it), plus a shared handle to the
/// accounting buffer pool; no locator. [`TableSnapshot::view`] yields the
/// same [`ReadView`] the live table produces, so every scan path — tracked
/// scans, concurrent query sessions — runs unchanged against a snapshot.
pub struct TableSnapshot {
    catalog: AttributeCatalog,
    segments: BTreeMap<SegmentId, Arc<Segment>>,
    pool: Arc<BufferPool>,
}

impl TableSnapshot {
    /// A [`ReadView`] over the snapshot, interchangeable with
    /// [`UniversalTable::read_view`].
    pub fn view(&self) -> ReadView<'_> {
        ReadView {
            catalog: &self.catalog,
            segments: &self.segments,
            pool: &self.pool,
        }
    }

    /// The attribute catalog as of the snapshot instant.
    pub fn catalog(&self) -> &AttributeCatalog {
        &self.catalog
    }

    /// Total number of entities as of the snapshot instant (summed over
    /// the segments; the snapshot keeps no locator to ask).
    pub fn entity_count(&self) -> usize {
        self.segments.values().map(|s| s.record_count()).sum()
    }
}

/// A `Send + Sync` scan handle over a [`UniversalTable`] or a
/// [`TableSnapshot`].
///
/// Obtained from [`UniversalTable::read_view`] or [`TableSnapshot::view`];
/// cheap to copy, and safe to share across scan worker threads: every field
/// it borrows is either immutable for the borrow's duration (catalog,
/// segments — the borrow checker excludes writers) or internally
/// synchronised (the [`BufferPool`]'s one lock and atomic counters).
/// It is the scan surface only; point reads by entity id go through the
/// live table, which owns the only locator.
#[derive(Clone, Copy)]
pub struct ReadView<'a> {
    catalog: &'a AttributeCatalog,
    segments: &'a BTreeMap<SegmentId, Arc<Segment>>,
    pool: &'a BufferPool,
}

impl<'a> ReadView<'a> {
    /// The attribute catalog.
    pub fn catalog(&self) -> &AttributeCatalog {
        self.catalog
    }

    /// Synopsis universe size (= number of cataloged attributes).
    pub fn universe(&self) -> usize {
        self.catalog.len()
    }

    /// The buffer pool (for stats snapshots).
    pub fn pool(&self) -> &BufferPool {
        self.pool
    }

    /// Ids of all live segments, ascending.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.segments.keys().copied()
    }

    /// Borrows a segment (for as long as what the view was taken of, not
    /// the view itself).
    pub fn segment(&self, id: SegmentId) -> Result<&'a Segment, StorageError> {
        self.segments
            .get(&id)
            .map(Arc::as_ref)
            .ok_or(StorageError::NoSuchSegment(id))
    }

    /// Scans all entities of `seg`, invoking `f` for each. Touches the
    /// buffer pool once per page, so I/O deltas around a scan reflect the
    /// pages read.
    pub fn scan(
        &self,
        seg: SegmentId,
        mut f: impl FnMut(&Entity),
    ) -> Result<(), StorageError> {
        self.scan_records(
            seg,
            Signature::MAX,
            |bytes, _| {
                f(&decode_entity(bytes)?);
                Ok(())
            },
            &mut IoStats::default(),
        )
    }

    /// The page walk under every scan: hands the raw bytes of each live
    /// record of `seg` whose [`Signature`] meets `mask` to `f`, beside the
    /// record's stored signature, page by page in slot order, and stops at
    /// `f`'s first error. `Signature::MAX` is the full scan — every page,
    /// every live record. Any other mask is a query's (the bits of the
    /// attributes it names): a record that shares no bit with it
    /// instantiates none of them and is not read, and a page holding no
    /// candidate is skipped before the buffer pool hears of it — no logical
    /// read, no LRU movement. A candidate need not match (ids 128 apart
    /// share a bit); what to decode, how far to walk — an attribute whose
    /// bit the signature lacks is not in the record — and whether the
    /// record matches stay the caller's business (see
    /// [`crate::record::RecordView`]).
    ///
    /// Accumulates *this scan's* page accesses into `io` —
    /// `logical_reads` per page touched, `physical_reads` per buffer-pool
    /// miss, `evictions` per page the admissions displaced. The pool's
    /// global counters are updated too; the local delta is what lets
    /// concurrent sessions report per-query I/O without double-counting
    /// each other's traffic.
    pub fn scan_records(
        &self,
        seg: SegmentId,
        mask: Signature,
        mut f: impl FnMut(&[u8], Signature) -> Result<(), StorageError>,
        io: &mut IoStats,
    ) -> Result<(), StorageError> {
        let segment = self.segment(seg)?;
        for page_idx in 0..segment.page_count() as u32 {
            let Some(page) = segment.page(page_idx) else {
                // page_count() bounds the loop; a miss means the segment
                // mutated underneath us, which the scan treats as data loss.
                return Err(StorageError::NoSuchRecord(
                    seg,
                    crate::segment::RecordId {
                        page: page_idx,
                        slot: crate::page::SlotId(0),
                    },
                ));
            };
            let mut candidates = page.candidates(mask).peekable();
            // A full scan reads every page, emptied ones included, as its
            // I/O accounting always has; a query only where it has business.
            if mask != Signature::MAX && candidates.peek().is_none() {
                continue;
            }
            let (hit, evicted) =
                self.pool.access_tracked(PageKey { segment: seg, page: page_idx });
            io.logical_reads += 1;
            io.physical_reads += u64::from(!hit);
            io.evictions += evicted;
            for (_, bytes, signature) in candidates {
                f(bytes, signature)?;
            }
        }
        Ok(())
    }

    /// Collects all entities of `seg` (see [`UniversalTable::scan_collect`]).
    pub fn scan_collect(&self, seg: SegmentId) -> Result<Vec<Entity>, StorageError> {
        let mut out = Vec::new();
        self.scan(seg, |e| out.push(e.clone()))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_entity;
    use cind_model::{AttrId, Value};

    fn entity(table: &mut UniversalTable, id: u64, attrs: &[(&str, i64)]) -> Entity {
        let attrs: Vec<(AttrId, Value)> = attrs
            .iter()
            .map(|(name, v)| (table.catalog_mut().intern(name), Value::Int(*v)))
            .collect();
        Entity::new(EntityId(id), attrs).unwrap()
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut t = UniversalTable::new(64);
        let seg = t.create_segment();
        let e = entity(&mut t, 1, &[("name", 1), ("weight", 198)]);
        t.insert(seg, &e).unwrap();
        assert_eq!(t.entity_count(), 1);
        assert_eq!(t.location(EntityId(1)), Some(seg));
        assert_eq!(t.get(EntityId(1)).unwrap(), e);
        let removed = t.delete(EntityId(1)).unwrap();
        assert_eq!(removed, e);
        assert_eq!(t.entity_count(), 0);
        assert!(matches!(
            t.get(EntityId(1)),
            Err(StorageError::NoSuchEntity(_))
        ));
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut t = UniversalTable::new(64);
        let seg = t.create_segment();
        let e = entity(&mut t, 1, &[("a", 1)]);
        t.insert(seg, &e).unwrap();
        assert!(matches!(
            t.insert(seg, &e),
            Err(StorageError::DuplicateEntity(EntityId(1)))
        ));
    }

    #[test]
    fn insert_record_refuses_before_it_changes_anything() {
        /// The log's bytes, readable while the table owns the writer.
        #[derive(Clone, Default)]
        struct Log(Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Log {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let wal = Log::default();
        let logged_bytes = || wal.0.lock().unwrap().len();
        let mut t = UniversalTable::new(64);
        t.attach_wal(Box::new(wal.clone()));
        let seg = t.create_segment();
        let e = entity(&mut t, 1, &[("a", 1)]);
        t.insert(seg, &e).unwrap();
        let logged = logged_bytes();
        let record = |id: u64, text: usize| {
            let e = Entity::new(EntityId(id), [(AttrId(0), Value::Text("x".repeat(text)))]).unwrap();
            let mut out = Vec::new();
            let sig = encode_record(e.id(), e.attrs().iter().map(|(a, v)| (*a, v.borrowed())), &mut out);
            (out, sig)
        };
        let (dup, dup_sig) = record(1, 3);
        let (big, big_sig) = record(2, 9_000);
        for (into, bytes, sig, id) in [(None, &dup, dup_sig, 1), (Some(seg), &dup, dup_sig, 1), (None, &big, big_sig, 2)] {
            assert!(t.insert_record(into, EntityId(id), bytes, sig).is_err());
            assert_eq!((t.segment_count(), t.entity_count(), logged_bytes()), (1, 1, logged));
        }
        assert!(matches!(
            t.insert_record(Some(SegmentId(7)), EntityId(3), &record(3, 1).0, 0),
            Err(StorageError::NoSuchSegment(SegmentId(7)))
        ));
        assert_eq!(t.admits(EntityId(1), &dup), Err(StorageError::DuplicateEntity(EntityId(1))));
        assert!(matches!(t.admits(EntityId(2), &big), Err(StorageError::RecordTooLarge { .. })));
        let (ok, ok_sig) = record(3, 3);
        assert_eq!(t.admits(EntityId(3), &ok), Ok(()));
        let fresh = t.insert_record(None, EntityId(3), &ok, ok_sig).unwrap();
        assert_ne!(fresh, seg);
        assert_eq!((t.location(EntityId(3)), t.segment_count()), (Some(fresh), 2));
        assert_eq!(t.validate_signatures(), Vec::<String>::new());
    }

    #[test]
    fn move_entity_relocates() {
        let mut t = UniversalTable::new(64);
        let a = t.create_segment();
        let b = t.create_segment();
        let e = entity(&mut t, 7, &[("x", 1)]);
        t.insert(a, &e).unwrap();
        t.move_entity(EntityId(7), b).unwrap();
        assert_eq!(t.location(EntityId(7)), Some(b));
        assert_eq!(t.segment(a).unwrap().record_count(), 0);
        assert_eq!(t.segment(b).unwrap().record_count(), 1);
        assert_eq!(t.get(EntityId(7)).unwrap(), e);
        // Same-segment move is a no-op.
        t.move_entity(EntityId(7), b).unwrap();
        assert_eq!(t.location(EntityId(7)), Some(b));
    }

    #[test]
    fn scan_visits_every_entity_and_counts_pages() {
        let mut t = UniversalTable::new(64);
        let seg = t.create_segment();
        for i in 0..100 {
            let e = entity(&mut t, i, &[("a", i as i64), ("b", 1)]);
            t.insert(seg, &e).unwrap();
        }
        let before = t.io_stats();
        let got = t.scan_collect(seg).unwrap();
        assert_eq!(got.len(), 100);
        let delta = t.io_stats().since(&before);
        assert_eq!(
            delta.logical_reads as usize,
            t.segment(seg).unwrap().page_count()
        );
    }

    #[test]
    fn masked_scan_reads_candidates_and_touches_only_their_pages() {
        let mut t = UniversalTable::new(64);
        let seg = t.create_segment();
        // ~20 records a page; only ids 0 and 70 carry "rare".
        for i in 0..80u64 {
            let mut attrs = vec![("common", 1), ("pad", 2)];
            if i % 70 == 0 {
                attrs.push(("rare", 3));
            }
            let mut e = entity(&mut t, i, &attrs);
            e.set(AttrId(1), Value::Text("x".repeat(380)));
            t.insert(seg, &e).unwrap();
        }
        let pages = t.segment(seg).unwrap().page_count() as u64;
        assert!(pages >= 4);
        let scan = |mask| {
            let (mut ids, mut io) = (Vec::new(), IoStats::default());
            let before = t.io_stats();
            t.read_view()
                .scan_records(
                    seg,
                    mask,
                    |bytes, _| {
                        ids.push(crate::record::decode_entity_id(bytes)?.0);
                        Ok(())
                    },
                    &mut io,
                )
                .unwrap();
            assert_eq!(t.io_stats().since(&before).logical_reads, io.logical_reads);
            (ids, io.logical_reads)
        };
        let rare = crate::signature_bit(AttrId(2));
        assert_eq!(scan(rare), (vec![0, 70], 2));
        assert_eq!(scan(crate::signature_bit(AttrId(0))), ((0..80).collect(), pages));
        assert_eq!(scan(Signature::MAX), ((0..80).collect(), pages));
        // No candidate anywhere: the buffer pool never hears of the scan.
        assert_eq!(scan(crate::signature_bit(AttrId(9))), (vec![], 0));
        assert_eq!(scan(0), (vec![], 0));
    }

    #[test]
    fn validate_signatures_names_segment_page_and_slot() {
        let mut t = UniversalTable::new(64);
        t.create_segment();
        let seg = t.create_segment();
        for i in 0..3 {
            let e = entity(&mut t, i, &[("a", 1), ("b", 2)]);
            t.insert(seg, &e).unwrap();
        }
        assert_eq!(t.validate_signatures(), Vec::<String>::new());
        let page = t.segment_mut(seg).unwrap().page_mut(0).unwrap();
        page.corrupt_signature(crate::SlotId(2), 0b1);
        assert_eq!(
            t.validate_signatures(),
            vec![
                "seg1 page 0: live slot s2: stored signature \
                 0x00000000000000000000000000000001, its bytes give \
                 0x00000000000000000000000000000003"
            ]
        );
        // What the corruption would cost: a scan for "b" skips the record.
        let mut seen = 0;
        let b = crate::signature_bit(AttrId(1));
        t.read_view()
            .scan_records(seg, b, |_, _| { seen += 1; Ok(()) }, &mut IoStats::default())
            .unwrap();
        assert_eq!(seen, 2);
    }

    #[test]
    fn drop_segment_requires_empty() {
        let mut t = UniversalTable::new(64);
        let seg = t.create_segment();
        t.drop_segment(seg).unwrap();
        assert!(matches!(
            t.drop_segment(seg),
            Err(StorageError::NoSuchSegment(_))
        ));
    }

    #[test]
    #[should_panic(expected = "non-empty segment")]
    fn drop_nonempty_segment_panics() {
        let mut t = UniversalTable::new(64);
        let seg = t.create_segment();
        let e = entity(&mut t, 1, &[("a", 1)]);
        t.insert(seg, &e).unwrap();
        let _ = t.drop_segment(seg);
    }

    /// A segment holding `entities` as encoded records, built by hand
    /// under id 0 (attach re-brands it).
    fn segment_of(entities: &[Entity]) -> Segment {
        let mut seg = Segment::new(SegmentId(0));
        for e in entities {
            seg.insert(&encode_entity(e)).unwrap();
        }
        seg
    }

    #[test]
    fn attach_indexes_a_hand_built_segment() {
        let mut t = UniversalTable::new(64);
        let entities: Vec<Entity> =
            (0..20).map(|i| entity(&mut t, i, &[("a", i as i64)])).collect();
        let occupied = t.create_segment(); // takes id 0 so the attach re-brands
        let new_id = t.attach_segment(segment_of(&entities)).unwrap();
        assert_ne!(new_id, occupied);
        assert_eq!(t.entity_count(), 20);
        for e in &entities {
            assert_eq!(&t.get(e.id()).unwrap(), e);
            assert_eq!(t.location(e.id()), Some(new_id));
        }
    }

    #[test]
    fn attach_rejects_duplicate_entities() {
        let mut dst = UniversalTable::new(64);
        let dseg = dst.create_segment();
        let clash = entity(&mut dst, 1, &[("a", 9)]);
        dst.insert(dseg, &clash).unwrap();
        let incoming = entity(&mut dst, 1, &[("a", 1)]);
        assert!(matches!(
            dst.attach_segment(segment_of(&[incoming])),
            Err(StorageError::DuplicateEntity(EntityId(1)))
        ));
        // Nothing was mutated.
        assert_eq!(dst.get(EntityId(1)).unwrap(), clash);
        assert_eq!(dst.segment_count(), 1);
    }

    #[test]
    fn read_view_is_send_sync_and_agrees_with_table() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let mut t = UniversalTable::new(64);
        let seg = t.create_segment();
        let e = entity(&mut t, 1, &[("a", 1), ("b", 2)]);
        t.insert(seg, &e).unwrap();
        let view = t.read_view();
        assert_send_sync(&view);
        assert_eq!(view.universe(), t.universe());
        assert_eq!(view.catalog().lookup("b"), t.catalog().lookup("b"));
        assert_eq!(view.segment(seg).unwrap().record_count(), t.entity_count());
        assert_eq!(view.scan_collect(seg).unwrap(), vec![e]);
        assert_eq!(
            view.segment_ids().collect::<Vec<_>>(),
            t.segment_ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn read_view_scans_run_concurrently() {
        let mut t = UniversalTable::new(32);
        let segs: Vec<SegmentId> = (0..4).map(|_| t.create_segment()).collect();
        for i in 0..200u64 {
            let e = entity(&mut t, i, &[("a", i as i64)]);
            t.insert(segs[(i % 4) as usize], &e).unwrap();
        }
        let view = t.read_view();
        let counts: Vec<usize> = std::thread::scope(|s| {
            segs.iter()
                .map(|&seg| {
                    s.spawn(move || {
                        let mut n = 0;
                        view.scan(seg, |_| n += 1).unwrap();
                        n
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), 200);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let mut t = UniversalTable::new(64);
        let seg = t.create_segment();
        let e1 = entity(&mut t, 1, &[("a", 1)]);
        t.insert(seg, &e1).unwrap();
        let snap = t.freeze();
        assert_send_sync(&snap);
        // Mutate the live table every way a writer can.
        let e2 = entity(&mut t, 2, &[("a", 2), ("b", 3)]);
        t.insert(seg, &e2).unwrap();
        t.delete(EntityId(1)).unwrap();
        let extra = t.create_segment();
        // The snapshot still sees exactly the pre-mutation state.
        let view = snap.view();
        assert_eq!(snap.entity_count(), 1);
        assert_eq!(view.segment_ids().collect::<Vec<_>>(), vec![seg]);
        assert!(view.segment(extra).is_err());
        assert_eq!(view.scan_collect(seg).unwrap(), vec![e1]);
        assert_eq!((snap.catalog().len(), snap.catalog().lookup("b")), (1, None));
        // The live table sees the post-mutation state.
        assert_eq!(t.entity_count(), 1);
        assert_eq!(t.get(EntityId(2)).unwrap(), e2);
        assert_eq!(t.catalog().len(), 2);
    }

    #[test]
    fn freezes_share_everything_a_write_did_not_reach() {
        let mut t = UniversalTable::new(64);
        let segs: Vec<SegmentId> = (0..5).map(|_| t.create_segment()).collect();
        for i in 0..50u64 {
            let e = entity(&mut t, i, &[("a", i as i64), ("b", 1)]);
            t.insert(segs[(i % 5) as usize], &e).unwrap();
        }
        let a = t.freeze();
        let written = segs[2];
        let e = entity(&mut t, 50, &[("a", 50)]);
        t.insert(written, &e).unwrap();
        let b = t.freeze();
        // One insert of known attributes: the two epochs share the catalog
        // and every segment but the one written.
        assert!(a.catalog.shares_with(&b.catalog));
        for seg in &segs {
            let shared = Arc::ptr_eq(&a.segments[seg], &b.segments[seg]);
            assert_eq!(shared, *seg != written, "{seg}");
        }
        assert_eq!((a.entity_count(), b.entity_count()), (50, 51));
        // A never-seen attribute un-shares the live catalog, not A's.
        let e = entity(&mut t, 51, &[("fresh", 1)]);
        t.insert(written, &e).unwrap();
        let c = t.freeze();
        assert!(a.catalog.shares_with(&b.catalog) && !b.catalog.shares_with(&c.catalog));
        assert_eq!((a.catalog().len(), a.catalog().lookup("fresh")), (2, None));
        assert_eq!((c.catalog().len(), c.catalog().lookup("fresh")), (3, Some(AttrId(2))));
    }

    #[test]
    fn every_kind_of_write_leaves_an_earlier_freeze_answering_the_same() {
        let mut t = UniversalTable::new(64);
        let segs: Vec<SegmentId> = (0..4).map(|_| t.create_segment()).collect();
        for i in 0..40u64 {
            let e = entity(&mut t, i, &[("a", i as i64)]);
            t.insert(segs[(i % 4) as usize], &e).unwrap();
        }
        let frozen = t.freeze();
        let answers = |snap: &TableSnapshot| -> Vec<Vec<Entity>> {
            segs.iter().map(|&s| snap.view().scan_collect(s).unwrap()).collect()
        };
        let before = answers(&frozen);
        assert_eq!(before.iter().map(Vec::len).sum::<usize>(), 40);

        // delete, move_entity, drop_segment (emptied first), attach.
        t.delete(EntityId(0)).unwrap();
        t.move_entity(EntityId(1), segs[2]).unwrap();
        for e in &before[3] {
            t.move_entity(e.id(), segs[0]).unwrap();
        }
        t.drop_segment(segs[3]).unwrap();
        let fresh = entity(&mut t, 100, &[("a", 100)]);
        let attached = t.attach_segment(segment_of(&[fresh])).unwrap();
        assert_eq!(t.scan_collect(attached).unwrap().len(), 1);
        assert!(t.segment(segs[3]).is_err());

        assert_eq!(answers(&frozen), before);
        assert_eq!(frozen.entity_count(), 40);
        assert_eq!(t.entity_count(), 40);
    }

    #[test]
    fn segment_ids_are_fresh_and_sorted() {
        let mut t = UniversalTable::new(64);
        let a = t.create_segment();
        let b = t.create_segment();
        t.drop_segment(a).unwrap();
        let c = t.create_segment();
        assert_ne!(c, a, "ids are never recycled");
        let ids: Vec<SegmentId> = t.segment_ids().collect();
        assert_eq!(ids, vec![b, c]);
    }
}
