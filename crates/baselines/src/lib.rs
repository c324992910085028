//! Baseline partitioners Cinderella is compared against.
//!
//! The paper's evaluation compares against the unpartitioned universal
//! table (Figs. 5–6, Table I). Related work (§VI) points at the two
//! partitioning schemes mainstream systems actually use — hash and
//! range/arrival partitioning — and at offline attribute-clustering
//! ("hidden schema" inference). This crate implements all four behind one
//! [`Partitioner`] trait, which Cinderella also implements, so experiments
//! and the ablation benches can swap policies freely:
//!
//! * [`Unpartitioned`] — one segment holding everything; queries always
//!   scan it all (the paper's universal-table baseline).
//! * [`HashPartitioner`] — `k` fixed partitions by entity-id hash (the
//!   web-scale load-balancing choice; destroys attribute locality).
//! * [`RangePartitioner`] — partitions filled in arrival order up to `B`
//!   entities (range-by-insertion-time; keeps temporal, not structural,
//!   locality).
//! * [`OfflineClustering`] — a batch leader-clustering of attribute sets by
//!   Jaccard similarity, in the spirit of the hidden-schema work the paper
//!   cites: a strong *offline* comparator that sees all data up front.
//! * [`VerticalPartitioning`] — the related work's actual layout (Chu et
//!   al., SIGMOD'07): *vertical* column groups by attribute co-occurrence.
//!   Structurally different (entities are decomposed, not placed), so it
//!   has its own loader and query-cost measurement rather than the shared
//!   trait.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

mod accounting;
mod hash;
mod offline;
mod range;
mod traits;
mod unpartitioned;
mod vertical;

pub use accounting::SegmentAccounting;
pub use hash::HashPartitioner;
pub use offline::{OfflineClustering, OfflineConfig};
pub use range::RangePartitioner;
pub use traits::Partitioner;
pub use unpartitioned::Unpartitioned;
pub use vertical::{ColumnGroup, VerticalConfig, VerticalPartitioning};
