//! Storage-layer errors.

use cind_model::EntityId;

use crate::segment::{RecordId, SegmentId};

/// Errors produced by the storage engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StorageError {
    /// A serialized record failed to decode; the payload names the field.
    CorruptRecord(&'static str),
    /// A record exceeds what an empty page can hold.
    RecordTooLarge {
        /// Serialized record size.
        len: usize,
        /// Maximum a page can hold.
        max: usize,
    },
    /// The referenced segment does not exist (or was dropped).
    NoSuchSegment(SegmentId),
    /// The referenced record slot is empty or out of range.
    NoSuchRecord(SegmentId, RecordId),
    /// The referenced entity is not in the table's locator index.
    NoSuchEntity(EntityId),
    /// An entity with this id is already stored.
    DuplicateEntity(EntityId),
    /// A write-ahead-log append failed. The failure is sticky: the mutation
    /// that triggered it has already applied in memory, so the table keeps
    /// reporting it on every subsequent logged mutation until the WAL is
    /// re-attached — durability is lost from the failed entry onward and
    /// the caller must take a fresh snapshot.
    WalAppend(std::io::ErrorKind),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::CorruptRecord(what) => write!(f, "corrupt record: {what}"),
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds page capacity {max}")
            }
            StorageError::NoSuchSegment(s) => write!(f, "no such segment {s}"),
            StorageError::NoSuchRecord(s, r) => write!(f, "no record {r} in segment {s}"),
            StorageError::NoSuchEntity(e) => write!(f, "entity {e} not stored"),
            StorageError::DuplicateEntity(e) => write!(f, "entity {e} already stored"),
            StorageError::WalAppend(kind) => {
                write!(f, "WAL append failed ({kind}); durability lost, re-attach the log")
            }
        }
    }
}

impl std::error::Error for StorageError {}
