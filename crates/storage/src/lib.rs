//! Sparse universal-table storage engine with I/O accounting.
//!
//! The paper prototypes Cinderella inside PostgreSQL (one regular table per
//! partition, triggers, UNION ALL views). This crate is the from-scratch
//! substitute: a small storage engine purpose-built for sparse universal
//! tables, in the spirit of the *interpreted attribute storage format* of
//! Beckmann et al. (ICDE'06), which the paper cites as the state of the art
//! for storing such data.
//!
//! Layout, bottom to top:
//!
//! * [`varint`] — LEB128 variable-length integers used by the record format.
//! * [`record`] — self-describing serialized entities: only instantiated
//!   attributes are stored as `(attr-id, tag, payload)` triples, so a sparse
//!   entity costs space proportional to its arity, not to the table width.
//! * [`page::Page`] — 8 KiB slotted pages with a slot directory, deletion
//!   and compaction, and beside the directory one derived [`Signature`] per
//!   record, by which a scan skips the records (and pages) that instantiate
//!   none of a query's attributes.
//! * [`segment::Segment`] — an unordered heap of pages holding one
//!   *partition* of the universal table.
//! * [`buffer::BufferPool`] — an LRU page cache that *accounts*
//!   rather than caches: pages always live in memory (this is a simulation
//!   substrate), but every access is classified as a hit or a miss so
//!   experiments can report logical and "physical" I/O alongside wall time.
//! * [`table::UniversalTable`] — the façade: attribute catalog, segments,
//!   an entity locator index, and entity-level insert/delete/move/scan.
//!
//! Everything is deterministic and single-writer; readers go through the
//! pool's one lock and lock-free I/O counters so scans take `&self`, and
//! [`table::ReadView`] packages the read-only state as a `Send + Sync`
//! handle for parallel segment scans (`UNION ALL` branches on separate
//! threads).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod buffer;
pub mod manifest;
pub mod page;
pub mod persist;
pub mod record;
pub mod segment;
pub mod table;
pub mod varint;
pub mod vfs;
pub mod wal;

mod error;
mod iostats;

pub use buffer::{BufferPool, DEFAULT_POOL_PAGES};
pub use error::StorageError;
pub use iostats::{AtomicIoStats, IoStats};
pub use page::{Page, SlotId, PAGE_SIZE};
pub use persist::PersistError;
pub use record::{decode_entity, encode_entity, encode_record, signature_bit, Signature};
pub use segment::{RecordId, Segment, SegmentId};
pub use manifest::Manifest;
pub use table::{ReadView, TableSnapshot, UniversalTable};
pub use vfs::{FileSink, RealVfs, Vfs, VfsFile};
pub use wal::{read_epoch, replay, ReplayReport};
