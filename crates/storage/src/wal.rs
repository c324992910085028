//! Write-ahead logging — incremental durability between snapshots.
//!
//! [`UniversalTable::snapshot`](crate::UniversalTable::snapshot) is a full
//! copy; a busy table cannot afford one per modification. Attaching a WAL
//! sink ([`UniversalTable::attach_wal`]) makes every mutation append one
//! self-describing, individually checksummed entry, so the recovery recipe
//! becomes the classic *snapshot + log suffix*:
//!
//! ```text
//! table.attach_wal(file)?;      // log every mutation from now on
//! …mutations…                   // snapshot() any time for a new base
//! // after a crash:
//! let mut t = UniversalTable::restore(&mut base, pool)?;   // or ::new
//! wal::replay(&mut t, &mut log)?;                          // exact state
//! ```
//!
//! Entry kinds mirror the table's primitive mutations. `move_entity` is
//! logged as its constituent delete + insert, and attribute definitions are
//! emitted lazily (before the first entry that could reference them), so
//! the log is self-contained: replaying onto an *empty* table reproduces
//! catalog, segments (with identical ids), and every record.
//!
//! Framing per entry: `len: varint`, `body: len bytes`, `fnv1a64(body):
//! 8 bytes LE`. A torn final entry (crash mid-write) is detected and
//! reported with how many entries applied cleanly before it.
//!
//! Three structural entry kinds carry no table mutation:
//!
//! * `Epoch` — written once, first, binding the log to the snapshot it
//!   extends (the FNV-1a of the snapshot bytes). Recovery uses it to detect
//!   a log left behind by an older snapshot generation ([`read_epoch`]).
//! * `Begin`/`Commit` — bracket the entries of one logical operation
//!   (one partitioner insert/update/delete/merge). The sink buffers a
//!   transaction and emits it as a single `write_all`, so a crash tears at
//!   most one write surface; [`replay`] applies only complete groups and
//!   discards an unterminated trailing group as a torn tail.
//!
//! A durable store writes its log through
//! [`Vfs::create_log`](crate::vfs::Vfs::create_log), which keeps the file
//! zero-filled past the log end. Two things follow for [`replay`]:
//!
//! * A zero byte where a frame would start, followed by nothing but zeros,
//!   is the clean end of the log. No frame starts with a zero byte: its
//!   length varint would say the body is empty, and bodies never are.
//! * A write into that zeroed space overwrites in place, and a crash can
//!   persist later 512-byte sectors of it while losing earlier ones. The
//!   lost sectors read back as zeros (or as the old log bytes followed by
//!   zeros), so valid frames may follow damage. Damage that contains such
//!   a zero-filled hole is the torn tail of the last write; any other
//!   damage followed by a valid frame is still mid-log corruption.

use std::io::{Read, Write};

use cind_model::EntityId;

use crate::persist::{fnv1a, PersistError};
use crate::segment::SegmentId;
use crate::varint;
use crate::UniversalTable;

const OP_DEFINE_ATTR: u8 = 1;
const OP_CREATE_SEGMENT: u8 = 2;
const OP_DROP_SEGMENT: u8 = 3;
const OP_INSERT: u8 = 4;
const OP_DELETE: u8 = 5;
const OP_EPOCH: u8 = 6;
const OP_BEGIN: u8 = 7;
const OP_COMMIT: u8 = 8;

/// The unit a torn in-place write persists or loses whole.
const SECTOR: usize = 512;

/// The table-side WAL state: the sink, how many attributes have been
/// defined in the log so far (for lazy `DefineAttr` emission), and the
/// first append failure, if any.
///
/// A failed append cannot be returned from the mutation that triggered it —
/// the in-memory change has already applied, and some logging entry points
/// ([`UniversalTable::create_segment`](crate::UniversalTable::create_segment))
/// are infallible. The failure is therefore *sticky*: recorded here and
/// surfaced as [`StorageError::WalAppend`](crate::StorageError::WalAppend)
/// from the next fallible logged mutation, and from every one after it,
/// until a new sink is attached. Durability is lost from the failed entry
/// onward either way; staying loud prevents a caller from mistaking a
/// half-logged table for a recoverable one.
pub(crate) struct WalSink {
    out: Box<dyn Write + Send + Sync>,
    attrs_logged: usize,
    failed: Option<std::io::ErrorKind>,
    txn_depth: u32,
    txn_buf: Vec<u8>,
}

/// Frames one entry (`len`, `body`, `fnv1a64(body)`) into `dst`.
fn frame_into(body: &[u8], dst: &mut Vec<u8>) {
    varint::encode(body.len() as u64, dst);
    dst.extend_from_slice(body);
    dst.extend_from_slice(&fnv1a(body).to_le_bytes());
}

impl WalSink {
    pub(crate) fn new(out: Box<dyn Write + Send + Sync>, attrs_already: usize) -> Self {
        Self {
            out,
            attrs_logged: attrs_already,
            failed: None,
            txn_depth: 0,
            txn_buf: Vec::new(),
        }
    }

    /// The first append failure, if any (sticky until re-attach).
    pub(crate) fn failure(&self) -> Option<std::io::ErrorKind> {
        self.failed
    }

    /// Marks the sink failed, as if an append had errored with `kind`.
    /// Used by callers whose *own* durability step failed (e.g. a
    /// checkpoint that wrote a new snapshot but could not open a new log):
    /// the sink must not keep accepting entries a future recovery would
    /// skip as stale.
    pub(crate) fn fail(&mut self, kind: std::io::ErrorKind) {
        self.failed = Some(kind);
    }

    fn append(&mut self, body: &[u8]) {
        if self.failed.is_some() {
            return; // The log is already broken; don't write a gap after it.
        }
        if self.txn_depth > 0 {
            frame_into(body, &mut self.txn_buf);
            return;
        }
        let mut framed = Vec::with_capacity(body.len() + 12);
        frame_into(body, &mut framed);
        if let Err(e) = self.out.write_all(&framed) {
            self.failed = Some(e.kind());
        }
    }

    /// Opens (or nests into) a transaction group. While a group is open,
    /// entries accumulate in memory; nothing reaches the sink until the
    /// outermost [`Self::txn_commit`].
    pub(crate) fn txn_begin(&mut self) {
        self.txn_depth += 1;
        if self.txn_depth == 1 {
            self.txn_buf.clear();
            frame_into(&[OP_BEGIN], &mut self.txn_buf);
        }
    }

    /// Closes one nesting level; the outermost close appends the `Commit`
    /// marker and flushes the whole group as a single write, so a crash or
    /// an out-of-space failure loses the group atomically rather than
    /// leaving a prefix of it behind.
    pub(crate) fn txn_commit(&mut self) {
        if self.txn_depth == 0 {
            return; // unbalanced commit: ignore rather than underflow
        }
        self.txn_depth -= 1;
        if self.txn_depth > 0 {
            return;
        }
        let mut batch = std::mem::take(&mut self.txn_buf);
        if self.failed.is_some() {
            return;
        }
        frame_into(&[OP_COMMIT], &mut batch);
        if let Err(e) = self.out.write_all(&batch) {
            self.failed = Some(e.kind());
        }
    }

    /// Writes the epoch entry binding this log to a snapshot generation.
    /// Must be the first entry (the engine calls it immediately after
    /// attaching a fresh sink).
    pub(crate) fn log_epoch(&mut self, epoch: u64) {
        let mut body = vec![OP_EPOCH];
        varint::encode(epoch, &mut body);
        self.append(&body);
    }

    /// Emits `DefineAttr` entries for catalog ids not yet in the log.
    /// Catalog ids are dense, so iterating from the high-water mark covers
    /// exactly the undefined ones.
    fn sync_attrs(&mut self, catalog: &cind_model::AttributeCatalog) {
        let pending: Vec<Vec<u8>> = catalog
            .iter()
            .skip(self.attrs_logged)
            .map(|(_, name)| {
                let mut body = vec![OP_DEFINE_ATTR];
                varint::encode(name.len() as u64, &mut body);
                body.extend_from_slice(name.as_bytes());
                body
            })
            .collect();
        for body in pending {
            self.append(&body);
            self.attrs_logged += 1;
        }
    }

    pub(crate) fn log_create_segment(
        &mut self,
        catalog: &cind_model::AttributeCatalog,
        id: SegmentId,
    ) {
        self.sync_attrs(catalog);
        let mut body = vec![OP_CREATE_SEGMENT];
        varint::encode(u64::from(id.0), &mut body);
        self.append(&body);
    }

    pub(crate) fn log_drop_segment(
        &mut self,
        catalog: &cind_model::AttributeCatalog,
        id: SegmentId,
    ) {
        self.sync_attrs(catalog);
        let mut body = vec![OP_DROP_SEGMENT];
        varint::encode(u64::from(id.0), &mut body);
        self.append(&body);
    }

    pub(crate) fn log_insert(
        &mut self,
        catalog: &cind_model::AttributeCatalog,
        seg: SegmentId,
        record: &[u8],
    ) {
        self.sync_attrs(catalog);
        let mut body = vec![OP_INSERT];
        varint::encode(u64::from(seg.0), &mut body);
        varint::encode(record.len() as u64, &mut body);
        body.extend_from_slice(record);
        self.append(&body);
    }

    pub(crate) fn log_delete(
        &mut self,
        catalog: &cind_model::AttributeCatalog,
        id: EntityId,
    ) {
        self.sync_attrs(catalog);
        let mut body = vec![OP_DELETE];
        varint::encode(id.0, &mut body);
        self.append(&body);
    }

    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Outcome of a [`replay`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplayReport {
    /// Entries applied (mutation entries only — `Epoch`/`Begin`/`Commit`
    /// markers are structural and not counted).
    pub applied: usize,
    /// Whether the log ended with a torn (incomplete or corrupt) final
    /// entry or an unterminated transaction group, which was discarded —
    /// the expected shape after a crash mid-append.
    pub torn_tail: bool,
}

/// Whether a frame body matches its recorded checksum.
///
/// The `sim-defect` feature deliberately disables this check so the
/// simulation harness can prove its oracle notices the resulting silent
/// corruption; it must never be enabled in a real build.
fn checksum_matches(body: &[u8], expect: u64) -> bool {
    if cfg!(feature = "sim-defect") {
        return true;
    }
    fnv1a(body) == expect
}

/// Parses one checksummed frame at `pos`. Returns the body range and the
/// offset just past the frame, or `None` if the bytes there do not form a
/// complete, checksum-valid frame.
fn parse_frame(buf: &[u8], pos: usize, verify: bool) -> Option<(std::ops::Range<usize>, usize)> {
    let (len, n) = varint::decode(buf.get(pos..)?)?;
    let len = usize::try_from(len).ok()?;
    let body_start = pos.checked_add(n)?;
    let sum_start = body_start.checked_add(len)?;
    let body = buf.get(body_start..sum_start)?;
    let sum = buf.get(sum_start..sum_start.checked_add(8)?)?;
    let expect = u64::from_le_bytes(<[u8; 8]>::try_from(sum).ok()?);
    if verify {
        if !checksum_matches(body, expect) {
            return None;
        }
    } else if fnv1a(body) != expect {
        return None;
    }
    if body.is_empty() {
        return None; // zero-length bodies are never written
    }
    Some((body_start..sum_start, sum_start + 8))
}

fn all_zero(bytes: &[u8]) -> bool {
    bytes.iter().all(|&b| b == 0)
}

/// Whether the damage `bad..next` (from the first invalid frame to the
/// next valid one) holds a hole a torn in-place write leaves: zeros from
/// `bad` to the end of its sector (the write's first sector was lost, so
/// the log's old bytes end there), or a whole aligned all-zero sector (a
/// later one was lost).
fn zero_hole(buf: &[u8], bad: usize, next: usize) -> bool {
    let first_end = (bad / SECTOR + 1) * SECTOR;
    buf.get(bad..first_end).is_some_and(all_zero)
        || (first_end..next)
            .step_by(SECTOR)
            .any(|s| s + SECTOR <= next && all_zero(&buf[s..s + SECTOR]))
}

/// Reads the epoch header from the start of a WAL byte stream, if present.
///
/// Always verifies the real checksum (even under `sim-defect`): the epoch
/// decides whether the whole log is replayed at all, so it must not be
/// weakened by the deliberate-defect flag. Returns `None` for an empty
/// log, a torn first entry, or a log that starts with any other entry kind
/// (a pre-epoch legacy log — callers replay those unconditionally).
pub fn read_epoch(buf: &[u8]) -> Option<u64> {
    let (range, _) = parse_frame(buf, 0, false)?;
    let body = &buf[range];
    let (&tag, rest) = body.split_first()?;
    if tag != OP_EPOCH {
        return None;
    }
    let (epoch, n) = varint::decode(rest)?;
    if n != rest.len() {
        return None;
    }
    Some(epoch)
}

/// Replays a WAL stream onto `table` (typically a freshly restored
/// snapshot, or an empty table for a log-only recovery).
///
/// The log is scanned structurally first: frames are grouped into units —
/// standalone entries, and `Begin`..`Commit` transaction groups — and only
/// complete units are applied. The first invalid frame ends the scan. If
/// it and everything after it are zeros, that is the clean end of a
/// preallocated log. Otherwise it is classified by *byte resync*: if
/// nothing after it parses as a valid checksummed frame, it is the torn
/// tail of a crashed final write and is discarded (along with an
/// unterminated trailing group). If a later frame is valid, the damage up
/// to it is the torn tail of an in-place write only when it holds a
/// zero-filled hole (see [`zero_hole`]); any other such damage is in the
/// middle of the log ([`PersistError::Corrupt`] — the log is broken, not
/// merely cut short).
///
/// # Errors
/// [`PersistError::Corrupt`] for mid-log corruption or transaction-framing
/// violations, [`PersistError::Storage`] if an entry does not apply
/// (log/table mismatch).
pub fn replay(table: &mut UniversalTable, input: &mut impl Read) -> Result<ReplayReport, PersistError> {
    let mut buf = Vec::new();
    input.read_to_end(&mut buf)?;
    let mut pos = 0usize;
    let mut report = ReplayReport { applied: 0, torn_tail: false };

    // Bodies of the currently open (not yet committed) transaction group.
    let mut group: Option<Vec<std::ops::Range<usize>>> = None;
    let mut invalid_at: Option<usize> = None;

    while pos < buf.len() {
        let Some((body_range, next)) = parse_frame(&buf, pos, true) else {
            invalid_at = Some(pos);
            break;
        };
        pos = next;
        let tag = buf[body_range.start];
        match tag {
            OP_BEGIN if group.is_none() => group = Some(Vec::new()),
            OP_COMMIT if group.is_some() => {
                for range in group.take().into_iter().flatten() {
                    apply_entry(table, &buf[range])?;
                    report.applied += 1;
                }
            }
            OP_BEGIN | OP_COMMIT => {
                return Err(PersistError::Corrupt("wal txn framing"));
            }
            OP_EPOCH => {
                // Structural marker: consumed by `read_epoch`, no mutation.
            }
            _ => match group.as_mut() {
                Some(g) => g.push(body_range),
                None => {
                    apply_entry(table, &buf[body_range])?;
                    report.applied += 1;
                }
            },
        }
    }

    if let Some(bad) = invalid_at {
        // Resync scan: a valid frame after the damage means the log
        // continues past it — mid-log corruption, unless the damage is a
        // hole a torn in-place write left. (A garbage tail cannot alias a
        // valid frame: the checksum would have to collide.)
        if !all_zero(&buf[bad..]) {
            // No frame starts with a zero byte, so the zero tail is skipped
            // without parsing.
            let next = (bad + 1..buf.len())
                .find(|&o| buf[o] != 0 && parse_frame(&buf, o, false).is_some());
            if next.is_some_and(|next| !zero_hole(&buf, bad, next)) {
                return Err(PersistError::Corrupt("wal entry checksum"));
            }
            report.torn_tail = true;
        }
    }
    if group.is_some() {
        // The final group never committed: the crash landed inside its
        // batch write. Discard it wholesale.
        report.torn_tail = true;
    }
    Ok(report)
}

fn apply_entry(table: &mut UniversalTable, body: &[u8]) -> Result<(), PersistError> {
    let corrupt = |what: &'static str| PersistError::Corrupt(what);
    let (&tag, rest) = body.split_first().ok_or(corrupt("empty wal entry"))?;
    let mut pos = 0usize;
    let mut next = |rest: &[u8]| -> Result<u64, PersistError> {
        let slice = rest.get(pos..).unwrap_or(&[]);
        let (v, n) = varint::decode(slice).ok_or(corrupt("wal varint"))?;
        pos += n;
        Ok(v)
    };
    match tag {
        OP_DEFINE_ATTR => {
            let len = next(rest)? as usize;
            let name = rest
                .get(pos..pos + len)
                .ok_or(corrupt("wal attr name"))?;
            let name = std::str::from_utf8(name).map_err(|_| corrupt("wal attr utf8"))?;
            table.catalog_mut().intern(name);
        }
        OP_CREATE_SEGMENT => {
            let id = u32::try_from(next(rest)?).map_err(|_| corrupt("segment id"))?;
            table.restore_segment(SegmentId(id))?;
        }
        OP_DROP_SEGMENT => {
            let id = u32::try_from(next(rest)?).map_err(|_| corrupt("segment id"))?;
            table.drop_segment(SegmentId(id))?;
        }
        OP_INSERT => {
            let seg = u32::try_from(next(rest)?).map_err(|_| corrupt("segment id"))?;
            let len = next(rest)? as usize;
            let record = rest.get(pos..pos + len).ok_or(corrupt("wal record"))?;
            table.restore_record(SegmentId(seg), record)?;
        }
        OP_DELETE => {
            let id = EntityId(next(rest)?);
            table.delete(id)?;
        }
        _ => return Err(corrupt("unknown wal op")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::{AttrId, Entity, Value};
    use std::sync::{Arc, Mutex};

    /// A Write sink into a shared buffer, so tests can read the log back
    /// while the table still owns the writer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn mutate(table: &mut UniversalTable) -> SegmentId {
        let a = table.catalog_mut().intern("a");
        let b = table.catalog_mut().intern("b");
        let s1 = table.create_segment();
        let s2 = table.create_segment();
        for i in 0..20u64 {
            let (seg, attr) = if i % 2 == 0 { (s1, a) } else { (s2, b) };
            let e = Entity::new(EntityId(i), [(attr, Value::Int(i as i64))]).unwrap();
            table.insert(seg, &e).unwrap();
        }
        table.delete(EntityId(4)).unwrap();
        table.move_entity(EntityId(6), s2).unwrap();
        // Empty a segment and drop it.
        let s3 = table.create_segment();
        table.drop_segment(s3).unwrap();
        s1
    }

    fn tables_equal(a: &UniversalTable, b: &UniversalTable) {
        assert_eq!(a.entity_count(), b.entity_count());
        assert_eq!(a.universe(), b.universe());
        assert_eq!(
            a.segment_ids().collect::<Vec<_>>(),
            b.segment_ids().collect::<Vec<_>>()
        );
        for id in 0..40u64 {
            let id = EntityId(id);
            match a.get(id) {
                Ok(e) => {
                    assert_eq!(b.get(id).unwrap(), e);
                    assert_eq!(a.location(id), b.location(id));
                }
                Err(_) => assert!(b.get(id).is_err()),
            }
        }
    }

    #[test]
    fn replaying_the_log_reproduces_the_table() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        mutate(&mut table);

        let bytes = log.0.lock().unwrap().clone();
        let mut recovered = UniversalTable::new(16);
        let report = replay(&mut recovered, &mut &bytes[..]).unwrap();
        assert!(!report.torn_tail);
        assert!(report.applied > 20);
        tables_equal(&table, &recovered);
    }

    #[test]
    fn snapshot_plus_log_suffix_recovers() {
        // Mutations before the snapshot are NOT in the log (attach after).
        let mut table = UniversalTable::new(16);
        let a = table.catalog_mut().intern("a");
        let seg = table.create_segment();
        for i in 100..110u64 {
            let e = Entity::new(EntityId(i), [(a, Value::Int(1))]).unwrap();
            table.insert(seg, &e).unwrap();
        }
        let mut base = Vec::new();
        table.snapshot(&mut base).unwrap();

        let log = SharedBuf::default();
        table.attach_wal(Box::new(log.clone()));
        mutate(&mut table);

        let mut recovered = UniversalTable::restore(&mut &base[..], 16).unwrap();
        let bytes = log.0.lock().unwrap().clone();
        replay(&mut recovered, &mut &bytes[..]).unwrap();
        tables_equal(&table, &recovered);
        // The pre-snapshot entities are there too.
        assert!(recovered.get(EntityId(105)).is_ok());
    }

    #[test]
    fn torn_tail_is_tolerated_mid_log_corruption_is_not() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        mutate(&mut table);
        let bytes = log.0.lock().unwrap().clone();

        // Truncate inside the final entry: applied-so-far + torn flag.
        let cut = bytes.len() - 3;
        let mut recovered = UniversalTable::new(16);
        let report = replay(&mut recovered, &mut &bytes[..cut]).unwrap();
        assert!(report.torn_tail);
        assert!(report.applied > 0);

        // Flip a byte early in the log: hard error, zero tail or not.
        let mut bad = bytes.clone();
        bad[bytes.len() / 4] ^= 0xff;
        assert_ne!(bad[bytes.len() / 4], 0);
        for image in [bad.clone(), padded(&bad, chunk())] {
            let mut recovered = UniversalTable::new(16);
            assert!(replay(&mut recovered, &mut &image[..]).is_err());
        }
    }

    fn chunk() -> usize {
        usize::try_from(crate::vfs::LOG_CHUNK).unwrap()
    }

    /// `bytes` followed by zeros up to `len`: the image a preallocated log
    /// leaves on disk.
    fn padded(bytes: &[u8], len: usize) -> Vec<u8> {
        let mut image = bytes.to_vec();
        image.resize(len, 0);
        image
    }

    #[test]
    fn a_zero_padded_log_replays_like_the_unpadded_one() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        mutate(&mut table);
        let bytes = log.0.lock().unwrap().clone();
        let mut plain = UniversalTable::new(16);
        let expect = replay(&mut plain, &mut &bytes[..]).unwrap();
        assert!(!expect.torn_tail);

        for len in [bytes.len() + 1, bytes.len() + 777, chunk()] {
            let image = padded(&bytes, len);
            let mut recovered = UniversalTable::new(16);
            let report = replay(&mut recovered, &mut &image[..]).unwrap();
            assert_eq!(report, expect, "padded to {len}");
            tables_equal(&table, &recovered);
        }
    }

    #[test]
    fn cutting_the_last_group_inside_a_padded_image_recovers_the_prefix() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        let seg = table.create_segment();
        one_insert_txn(&mut table, seg, 1);
        let full = log.0.lock().unwrap().len();
        one_insert_txn(&mut table, seg, 2);
        let bytes = log.0.lock().unwrap().clone();

        // The crash lost everything of the second group from `cut` on:
        // those bytes are still the zeros the log was grown with.
        for cut in full + 1..bytes.len() {
            let image = padded(&bytes[..cut], chunk());
            let mut recovered = UniversalTable::new(16);
            let report = replay(&mut recovered, &mut &image[..]).unwrap();
            assert!(report.torn_tail, "cut={cut}");
            assert_eq!(recovered.entity_count(), 1, "cut={cut}");
            assert!(recovered.get(EntityId(1)).is_ok(), "cut={cut}");
        }
        // Losing the whole group leaves a clean, shorter log.
        let image = padded(&bytes[..full], chunk());
        let mut recovered = UniversalTable::new(16);
        assert!(!replay(&mut recovered, &mut &image[..]).unwrap().torn_tail);
        assert_eq!(recovered.entity_count(), 1);
    }

    #[test]
    fn hole_tears_of_a_three_sector_group_recover_the_committed_prefix() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        let seg = table.create_segment();
        one_insert_txn(&mut table, seg, 1);
        let full = log.0.lock().unwrap().len();
        // One group whose bytes touch exactly three sectors.
        let t = table.catalog_mut().intern("t");
        let text = "x".repeat(1250 - full % SECTOR);
        table.wal_txn_begin();
        let e = Entity::new(EntityId(2), [(t, Value::Text(text))]).unwrap();
        table.insert(seg, &e).unwrap();
        table.wal_txn_commit().unwrap();
        let bytes = log.0.lock().unwrap().clone();
        let first = full / SECTOR;
        assert_eq!((bytes.len() - 1) / SECTOR - first + 1, 3, "the group spans three sectors");
        let image_len = (first + 4) * SECTOR;

        // Bit k of `dropped`: sector `first + k` of the group's write did
        // not persist, so it still reads as before the write — the old log
        // bytes, then zeros.
        for dropped in 0..8usize {
            let mut image = padded(&bytes[..full], image_len);
            for k in (0..3).filter(|k| dropped & (1 << k) == 0) {
                let lo = ((first + k) * SECTOR).max(full);
                let hi = ((first + k + 1) * SECTOR).min(bytes.len());
                image[lo..hi].copy_from_slice(&bytes[lo..hi]);
            }
            let mut recovered = UniversalTable::new(16);
            let report = replay(&mut recovered, &mut &image[..])
                .unwrap_or_else(|e| panic!("dropped {dropped:03b}: {e}"));
            let survivors = if dropped == 0 { 2 } else { 1 };
            assert_eq!(recovered.entity_count(), survivors, "dropped {dropped:03b}");
            assert!(recovered.get(EntityId(1)).is_ok(), "dropped {dropped:03b}");
            // Every sector lost is a clean end; some lost is a torn tail.
            assert_eq!(report.torn_tail, dropped != 0 && dropped != 7, "dropped {dropped:03b}");
        }
    }

    #[test]
    fn a_zeroed_sector_inside_the_log_ends_it() {
        // The one case the zero-tail rule narrows: zero-filled damage among
        // acknowledged frames reads as the torn tail of the last write, so
        // replay stops there instead of failing.
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        let seg = table.create_segment();
        let mut len_after = Vec::new();
        for id in 0..100 {
            one_insert_txn(&mut table, seg, id);
            len_after.push(log.0.lock().unwrap().len());
        }
        let mut bytes = log.0.lock().unwrap().clone();
        assert!(bytes.len() > 4 * SECTOR);
        bytes[2 * SECTOR..3 * SECTOR].fill(0);

        let mut recovered = UniversalTable::new(16);
        let report = replay(&mut recovered, &mut &bytes[..]).unwrap();
        assert!(report.torn_tail);
        let survivors = len_after.iter().filter(|&&l| l <= 2 * SECTOR).count();
        assert_eq!(recovered.entity_count(), survivors);
    }

    #[test]
    fn detached_table_logs_nothing() {
        let mut table = UniversalTable::new(16);
        mutate(&mut table); // no WAL attached: must not panic
        let log = SharedBuf::default();
        table.attach_wal(Box::new(log.clone()));
        // Attr definitions of pre-attach attributes are still emitted
        // lazily with the first post-attach mutation.
        let c = table.catalog_mut().intern("c");
        let seg = table.create_segment();
        let e = Entity::new(EntityId(1000), [(c, Value::Bool(true))]).unwrap();
        table.insert(seg, &e).unwrap();

        let bytes = log.0.lock().unwrap().clone();
        let mut recovered = UniversalTable::new(16);
        let report = replay(&mut recovered, &mut &bytes[..]).unwrap();
        // 3 attrs + create + insert.
        assert_eq!(report.applied, 5);
        assert_eq!(recovered.entity_count(), 1);
        assert_eq!(recovered.universe(), 3);
        assert_eq!(recovered.get(EntityId(1000)).unwrap(), e);
    }

    /// A sink that fails every write with the given kind.
    struct FailingSink(std::io::ErrorKind);

    impl Write for FailingSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(self.0))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn append_failure_is_sticky_and_surfaces_on_fallible_ops() {
        use crate::StorageError;
        let mut table = UniversalTable::new(16);
        let a = table.catalog_mut().intern("a");
        table.attach_wal(Box::new(FailingSink(std::io::ErrorKind::WriteZero)));
        // create_segment is infallible; the failed DefineAttr/CreateSegment
        // appends surface on the next fallible mutation.
        let seg = table.create_segment();
        let e = Entity::new(EntityId(1), [(a, Value::Int(1))]).unwrap();
        let err = table.insert(seg, &e).unwrap_err();
        assert_eq!(err, StorageError::WalAppend(std::io::ErrorKind::WriteZero));
        // The in-memory mutation applied anyway (durability, not data, is
        // what broke) …
        assert_eq!(table.entity_count(), 1);
        // … and the failure stays sticky.
        let err = table.delete(EntityId(1)).unwrap_err();
        assert_eq!(err, StorageError::WalAppend(std::io::ErrorKind::WriteZero));
        // Re-attaching a healthy sink clears it.
        let log = SharedBuf::default();
        table.attach_wal(Box::new(log.clone()));
        let e = Entity::new(EntityId(2), [(a, Value::Int(2))]).unwrap();
        table.insert(seg, &e).unwrap();
        assert!(!log.0.lock().unwrap().is_empty());
    }

    #[test]
    fn attr_ids_in_recovered_table_match() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        let x = table.catalog_mut().intern("x");
        let y = table.catalog_mut().intern("y");
        let seg = table.create_segment();
        let e = Entity::new(
            EntityId(0),
            [(x, Value::Int(1)), (y, Value::Int(2))],
        )
        .unwrap();
        table.insert(seg, &e).unwrap();

        let bytes = log.0.lock().unwrap().clone();
        let mut recovered = UniversalTable::new(16);
        replay(&mut recovered, &mut &bytes[..]).unwrap();
        assert_eq!(recovered.catalog().lookup("x"), Some(AttrId(0)));
        assert_eq!(recovered.catalog().lookup("y"), Some(AttrId(1)));
    }

    fn one_insert_txn(table: &mut UniversalTable, seg: SegmentId, id: u64) {
        let a = table.catalog_mut().intern("a");
        table.wal_txn_begin();
        let e = Entity::new(EntityId(id), [(a, Value::Int(id as i64))]).unwrap();
        table.insert(seg, &e).unwrap();
        table.wal_txn_commit().unwrap();
    }

    #[test]
    fn txn_groups_replay_and_buffer_until_commit() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        let seg = table.create_segment();
        let before_txn = log.0.lock().unwrap().len();

        // Nested begin/commit: nothing reaches the sink until the
        // outermost commit.
        table.wal_txn_begin();
        table.wal_txn_begin();
        let a = table.catalog_mut().intern("a");
        let e = Entity::new(EntityId(1), [(a, Value::Int(1))]).unwrap();
        table.insert(seg, &e).unwrap();
        table.wal_txn_commit().unwrap();
        assert_eq!(log.0.lock().unwrap().len(), before_txn);
        table.wal_txn_commit().unwrap();
        assert!(log.0.lock().unwrap().len() > before_txn);

        one_insert_txn(&mut table, seg, 2);
        let bytes = log.0.lock().unwrap().clone();
        let mut recovered = UniversalTable::new(16);
        let report = replay(&mut recovered, &mut &bytes[..]).unwrap();
        assert!(!report.torn_tail);
        // attr define + create segment + 2 inserts; Begin/Commit markers
        // are not counted.
        assert_eq!(report.applied, 4);
        assert_eq!(recovered.entity_count(), 2);
    }

    #[test]
    fn torn_txn_group_is_discarded_wholesale() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        let seg = table.create_segment();
        one_insert_txn(&mut table, seg, 1);
        let full = log.0.lock().unwrap().len();
        one_insert_txn(&mut table, seg, 2);
        let bytes = log.0.lock().unwrap().clone();

        // Cut at every byte inside the second group: entity 2 must never
        // surface (its group never committed), entity 1 always must.
        // (Cutting exactly at `full` would be a clean post-group-1 log.)
        for cut in full + 1..bytes.len() {
            let mut recovered = UniversalTable::new(16);
            let report = replay(&mut recovered, &mut &bytes[..cut]).unwrap();
            assert!(report.torn_tail, "cut={cut}");
            assert_eq!(recovered.entity_count(), 1, "cut={cut}");
            assert!(recovered.get(EntityId(1)).is_ok(), "cut={cut}");
        }
    }

    #[test]
    fn epoch_header_roundtrips_and_gates_on_real_checksum() {
        let log = SharedBuf::default();
        let mut table = UniversalTable::new(16);
        table.attach_wal(Box::new(log.clone()));
        table.wal_mark_epoch(0xdead_beef_1234);
        let seg = table.create_segment();
        one_insert_txn(&mut table, seg, 7);

        let bytes = log.0.lock().unwrap().clone();
        assert_eq!(read_epoch(&bytes), Some(0xdead_beef_1234));

        // Replay skips the epoch marker but applies everything else.
        let mut recovered = UniversalTable::new(16);
        let report = replay(&mut recovered, &mut &bytes[..]).unwrap();
        assert_eq!(recovered.entity_count(), 1);
        assert!(!report.torn_tail);

        // A corrupted epoch frame reads as "no epoch" even if the defect
        // flag would otherwise skip checksums.
        let mut bad = bytes.clone();
        bad[2] ^= 0x55;
        assert_eq!(read_epoch(&bad), None);
        // Legacy log (no epoch entry first): also None.
        let legacy = SharedBuf::default();
        let mut t2 = UniversalTable::new(16);
        t2.attach_wal(Box::new(legacy.clone()));
        t2.create_segment();
        assert_eq!(read_epoch(&legacy.0.lock().unwrap().clone()), None);
        assert_eq!(read_epoch(&[]), None);
    }

    #[test]
    fn enospc_commit_drops_the_whole_group() {
        use crate::StorageError;
        let mut table = UniversalTable::new(16);
        let a = table.catalog_mut().intern("a");
        let seg_log = SharedBuf::default();
        table.attach_wal(Box::new(seg_log.clone()));
        let seg = table.create_segment();
        let logged = seg_log.0.lock().unwrap().clone();

        // Re-attach a failing sink: the buffered group vanishes at commit
        // and the failure is sticky.
        table.attach_wal(Box::new(FailingSink(std::io::ErrorKind::StorageFull)));
        table.wal_txn_begin();
        let e = Entity::new(EntityId(1), [(a, Value::Int(1))]).unwrap();
        table.insert(seg, &e).unwrap();
        let err = table.wal_txn_commit().unwrap_err();
        assert_eq!(err, StorageError::WalAppend(std::io::ErrorKind::StorageFull));

        // The healthy log recorded nothing for the failed group, and a
        // replay of it sees only the pre-failure prefix.
        let mut recovered = UniversalTable::new(16);
        let report = replay(&mut recovered, &mut &logged[..]).unwrap();
        assert_eq!(recovered.entity_count(), 0);
        assert!(!report.torn_tail);
        assert_eq!(report.applied, 2); // define-attr + create-segment
    }
}
