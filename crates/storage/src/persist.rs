//! Snapshot persistence for universal tables.
//!
//! The engine is memory-resident (DESIGN.md §3: the buffer pool *accounts*
//! rather than pages to disk), but a real deployment needs the table to
//! survive restarts. This module serialises a whole [`UniversalTable`] —
//! attribute catalog, segments, records — into one self-describing,
//! checksummed snapshot stream and restores it bit-for-bit. Partitioning
//! policy state is *not* persisted: partition synopses are derivable, so
//! `cinderella-core` rebuilds its catalog from the restored table
//! (`Cinderella::rebuild`), the same way the PostgreSQL prototype's views
//! were derivable from its partition tables.
//!
//! Format (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic   : 8 bytes  "CINDSNP1"
//! catalog : count, then per attribute: name-len, name-bytes
//! segments: count, then per segment:
//!             segment-id, record-count,
//!             per record: len, record bytes (encoded entity)
//! checksum: 8 bytes little-endian FNV-1a 64 of everything before it
//! ```

use std::io::{Read, Write};

use crate::segment::SegmentId;
use crate::varint;
use crate::{StorageError, UniversalTable};

const MAGIC: &[u8; 8] = b"CINDSNP1";

/// FNV-1a 64-bit: the snapshot, WAL frame and manifest checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors of the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// The stream is not a snapshot / is truncated / fails its checksum.
    Corrupt(&'static str),
    /// A record inside a valid snapshot failed to decode.
    Storage(StorageError),
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            PersistError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl UniversalTable {
    /// Serialises the table into `out` as one snapshot.
    ///
    /// ```
    /// use cind_model::{Entity, EntityId, Value};
    /// use cind_storage::UniversalTable;
    ///
    /// let mut table = UniversalTable::new(8);
    /// let a = table.catalog_mut().intern("a");
    /// let seg = table.create_segment();
    /// table.insert(seg, &Entity::new(EntityId(1), [(a, Value::Int(9))]).unwrap())?;
    ///
    /// let mut snapshot = Vec::new();
    /// table.snapshot(&mut snapshot)?;
    /// let restored = UniversalTable::restore(&mut &snapshot[..], 8)?;
    /// assert_eq!(restored.get(EntityId(1))?, table.get(EntityId(1))?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// I/O errors from the writer.
    pub fn snapshot(&self, out: &mut impl Write) -> Result<(), PersistError> {
        out.write_all(&self.snapshot_bytes()?)?;
        Ok(())
    }

    /// Serialises the table into the complete snapshot byte stream
    /// (body + trailing checksum).
    ///
    /// # Errors
    /// [`PersistError::Storage`] if a segment cannot be read.
    fn snapshot_bytes(&self) -> Result<Vec<u8>, PersistError> {
        // Build in memory first: the checksum covers the whole body, and
        // snapshots of this engine's scale (≤ a few hundred MB) fit.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        varint::encode(self.catalog().len() as u64, &mut buf);
        for (_, name) in self.catalog().iter() {
            varint::encode(name.len() as u64, &mut buf);
            buf.extend_from_slice(name.as_bytes());
        }
        let segments: Vec<SegmentId> = self.segment_ids().collect();
        varint::encode(segments.len() as u64, &mut buf);
        for seg in segments {
            let segment = self.segment(seg)?;
            varint::encode(u64::from(seg.0), &mut buf);
            varint::encode(segment.record_count() as u64, &mut buf);
            for (_, rec) in segment.iter() {
                varint::encode(rec.len() as u64, &mut buf);
                buf.extend_from_slice(rec);
            }
        }
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        Ok(buf)
    }

    /// Writes a snapshot to `path` through `vfs` with the standard
    /// crash-safe recipe — write to `<path>.tmp`, sync, rename into place —
    /// and returns the snapshot's *epoch*: the FNV-1a of the entire file,
    /// which the engine stamps into the head of the log written after it
    /// (see [`crate::wal::read_epoch`]) so recovery can tell whether a log
    /// belongs to this snapshot generation.
    ///
    /// # Errors
    /// I/O errors from the backend (real or injected).
    pub fn snapshot_to(
        &self,
        vfs: &dyn crate::vfs::Vfs,
        path: &std::path::Path,
    ) -> Result<u64, PersistError> {
        let bytes = self.snapshot_bytes()?;
        let epoch = fnv1a(&bytes);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut f = vfs.create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync()?;
        drop(f);
        vfs.rename(&tmp, path)?;
        Ok(epoch)
    }

    /// Restores a table from a snapshot file read through `vfs`, returning
    /// the table and the snapshot's epoch (FNV-1a of the file bytes — the
    /// same value [`Self::snapshot_to`] returned when it was written).
    ///
    /// # Errors
    /// I/O errors from the backend; [`PersistError::Corrupt`] on a
    /// malformed or checksum-failing stream.
    pub fn restore_from(
        vfs: &dyn crate::vfs::Vfs,
        path: &std::path::Path,
        pool_pages: usize,
    ) -> Result<(Self, u64), PersistError> {
        let bytes = vfs.read(path)?;
        let epoch = fnv1a(&bytes);
        let table = Self::restore(&mut &bytes[..], pool_pages)?;
        Ok((table, epoch))
    }

    /// Restores a table from a snapshot stream. The buffer pool is fresh
    /// (residency is runtime state), sized to `pool_pages`.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] on a malformed or checksum-failing stream.
    pub fn restore(input: &mut impl Read, pool_pages: usize) -> Result<Self, PersistError> {
        let mut buf = Vec::new();
        input.read_to_end(&mut buf)?;
        if buf.len() < MAGIC.len() + 8 {
            return Err(PersistError::Corrupt("truncated"));
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let tail =
            <[u8; 8]>::try_from(tail).map_err(|_| PersistError::Corrupt("checksum width"))?;
        let expect = u64::from_le_bytes(tail);
        if fnv1a(body) != expect {
            return Err(PersistError::Corrupt("checksum mismatch"));
        }
        if &body[..MAGIC.len()] != MAGIC {
            return Err(PersistError::Corrupt("bad magic"));
        }
        let mut pos = MAGIC.len();
        let next = |body: &[u8], pos: &mut usize| -> Result<u64, PersistError> {
            let (v, n) =
                varint::decode(&body[*pos..]).ok_or(PersistError::Corrupt("varint"))?;
            *pos += n;
            Ok(v)
        };
        fn take<'b>(
            body: &'b [u8],
            pos: &mut usize,
            len: usize,
        ) -> Result<&'b [u8], PersistError> {
            let s = body
                .get(*pos..*pos + len)
                .ok_or(PersistError::Corrupt("truncated body"))?;
            *pos += len;
            Ok(s)
        }

        let mut table = UniversalTable::new(pool_pages);
        let attrs = next(body, &mut pos)?;
        for _ in 0..attrs {
            let len = next(body, &mut pos)? as usize;
            let name = std::str::from_utf8(take(body, &mut pos, len)?)
                .map_err(|_| PersistError::Corrupt("attribute name utf8"))?;
            table.catalog_mut().intern(name);
        }
        let segments = next(body, &mut pos)?;
        for _ in 0..segments {
            let seg_id = u32::try_from(next(body, &mut pos)?)
                .map_err(|_| PersistError::Corrupt("segment id overflow"))?;
            let seg = table.restore_segment(SegmentId(seg_id))?;
            let records = next(body, &mut pos)?;
            for _ in 0..records {
                let len = next(body, &mut pos)? as usize;
                let rec = take(body, &mut pos, len)?;
                table.restore_record(seg, rec)?;
            }
        }
        if pos != body.len() {
            return Err(PersistError::Corrupt("trailing bytes"));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::{Entity, EntityId, Value};

    fn sample_table() -> UniversalTable {
        let mut t = UniversalTable::new(32);
        let a = t.catalog_mut().intern("name");
        let b = t.catalog_mut().intern("weight");
        let s1 = t.create_segment();
        let s2 = t.create_segment();
        for i in 0..40u64 {
            let seg = if i % 2 == 0 { s1 } else { s2 };
            let e = Entity::new(
                EntityId(i),
                [
                    (a, Value::Text(format!("thing-{i}"))),
                    (b, Value::Int(i as i64 * 3)),
                ],
            )
            .unwrap();
            t.insert(seg, &e).unwrap();
        }
        // A hole: deletes must not resurrect.
        t.delete(EntityId(6)).unwrap();
        t
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let t = sample_table();
        let mut buf = Vec::new();
        t.snapshot(&mut buf).unwrap();
        let mut cursor = &buf[..];
        let r = UniversalTable::restore(&mut cursor, 32).unwrap();

        assert_eq!(r.entity_count(), t.entity_count());
        assert_eq!(r.universe(), t.universe());
        assert_eq!(
            r.segment_ids().collect::<Vec<_>>(),
            t.segment_ids().collect::<Vec<_>>()
        );
        for i in 0..40u64 {
            let id = EntityId(i);
            match t.get(id) {
                Ok(orig) => {
                    assert_eq!(r.get(id).unwrap(), orig);
                    assert_eq!(r.location(id), t.location(id));
                }
                Err(_) => assert!(r.get(id).is_err(), "deleted entity resurrected"),
            }
        }
        // The restored table keeps working: fresh segment ids don't clash.
        let mut r = r;
        let s = r.create_segment();
        assert!(!t.segment_ids().any(|x| x == s));
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = UniversalTable::new(8);
        let mut buf = Vec::new();
        t.snapshot(&mut buf).unwrap();
        let r = UniversalTable::restore(&mut &buf[..], 8).unwrap();
        assert_eq!(r.entity_count(), 0);
        assert_eq!(r.segment_count(), 0);
        assert_eq!(r.universe(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let t = sample_table();
        let mut buf = Vec::new();
        t.snapshot(&mut buf).unwrap();

        // Flip a byte in the middle: checksum must catch it.
        let mut bad = buf.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(matches!(
            UniversalTable::restore(&mut &bad[..], 8),
            Err(PersistError::Corrupt("checksum mismatch"))
        ));

        // Truncation.
        assert!(matches!(
            UniversalTable::restore(&mut &buf[..10], 8),
            Err(PersistError::Corrupt(_))
        ));

        // Wrong magic (re-checksummed so only the magic is wrong).
        let mut bad = buf.clone();
        bad[0] = b'X';
        let body_len = bad.len() - 8;
        let sum = fnv1a(&bad[..body_len]);
        bad[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            UniversalTable::restore(&mut &bad[..], 8),
            Err(PersistError::Corrupt("bad magic"))
        ));
    }

    #[test]
    fn snapshot_to_restore_from_agree_on_epoch() {
        use crate::vfs::{RealVfs, Vfs};
        let t = sample_table();
        let dir = std::env::temp_dir().join("cind_persist_vfs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.cind");
        let vfs = RealVfs;
        let wrote = t.snapshot_to(&vfs, &path).unwrap();
        // The tmp file was renamed away.
        assert!(!vfs.exists(&dir.join("store.cind.tmp")));
        let (r, read) = UniversalTable::restore_from(&vfs, &path, 32).unwrap();
        assert_eq!(wrote, read);
        assert_eq!(r.entity_count(), t.entity_count());
        // Same content ⇒ same epoch; different content ⇒ different epoch.
        let e2 = t.snapshot_to(&vfs, &path).unwrap();
        assert_eq!(e2, wrote);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_table();
        let dir = std::env::temp_dir().join("cind_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.cind");
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            t.snapshot(&mut f).unwrap();
        }
        let mut f = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let r = UniversalTable::restore(&mut f, 32).unwrap();
        assert_eq!(r.entity_count(), t.entity_count());
        std::fs::remove_file(&path).unwrap();
    }
}
