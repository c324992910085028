//! The Cinderella online partitioning algorithm (the paper's contribution).
//!
//! Cinderella (§III–IV) maintains a horizontal partitioning of a sparse
//! universal table *online*: every modification (insert, update, delete)
//! incrementally adjusts the partitioning while the entity is touched
//! anyway. Partitions have a fixed maximum size `B`; a partition that would
//! overflow is split in two, seeded by its *split starters* — the pair of
//! member entities with (heuristically) maximal synopsis difference.
//!
//! Module map:
//!
//! * [`config`] — weight `w`, capacity `B`, size model, synopsis mode,
//!   index tier.
//! * [`rating`] — §IV verbatim: homogeneity and heterogeneity scores, the
//!   local rating `r'` and the normalised global rating `r`.
//! * [`starters`] — split-starter pair maintenance (Algorithm 1 lines
//!   15–24) and seed selection for splits.
//! * [`catalog`] — the partition catalog: per-partition synopses (exact,
//!   via attribute reference counts), sizes, starters, and the packed
//!   synopsis [`arena`] the rating scan sweeps.
//! * [`index`] — the one [`PruningIndex`] behind both the rating scan's
//!   candidate set and the planner's survivor set, in exact
//!   ([`arena::PresenceIndex`]) or tiered ([`tier`]) storage, plus its
//!   frozen [`PruningSnapshot`].
//! * [`partitioner`] — Algorithm 1: `insert`, plus the paper's `delete` and
//!   `update` adjustment routines and the split procedure.
//! * [`modes`] — entity-based vs. workload-based rating synopses, each a
//!   view of the attribute synopsis.
//! * [`mod@efficiency`] — Definition 1, `EFFICIENCY(P)`.
//! * [`events`] — where an insert landed ([`InsertOutcome`]) and the
//!   cumulative [`Stats`].
//!
//! # Example
//!
//! ```
//! use cind_model::{Entity, EntityId, Value};
//! use cind_storage::UniversalTable;
//! use cinderella_core::{Cinderella, Config};
//!
//! let mut table = UniversalTable::new(1024);
//! let mut cindy = Cinderella::new(Config::default());
//!
//! // Two cameras and a hard drive: Cinderella separates them.
//! for (id, attrs) in [
//!     (0, vec![("name", "S120"), ("aperture", "2.0")]),
//!     (1, vec![("name", "A99"), ("aperture", "1.8")]),
//!     (2, vec![("name", "WD4000"), ("rpm", "7200")]),
//! ] {
//!     let attrs: Vec<_> = attrs
//!         .into_iter()
//!         .map(|(a, v)| (table.catalog_mut().intern(a), Value::from(v)))
//!         .collect();
//!     let e = Entity::new(EntityId(id), attrs).unwrap();
//!     cindy.insert(&mut table, e).unwrap();
//! }
//! assert_eq!(cindy.catalog().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod arena;
pub mod catalog;
pub mod config;
pub mod efficiency;
pub mod events;
pub mod incoming;
pub mod index;
pub mod merge;
pub mod modes;
pub mod partitioner;
pub mod rating;
pub mod starters;
pub mod tier;
pub mod validate;

mod error;

pub use arena::{PresenceIndex, SynopsisArena};
pub use catalog::{PartitionCatalog, PartitionMeta};
pub use config::{Config, ConfigError, IndexTier, ReorgConfig, ReorgMode};
pub use efficiency::{efficiency, efficiency_counters, efficiency_counters_for, efficiency_of};
pub use error::CoreError;
pub use events::{InsertOutcome, Stats};
pub use incoming::Incoming;
pub use index::{PruningIndex, PruningSnapshot};
pub use merge::MergeReport;
pub use modes::SynopsisMode;
pub use partitioner::Cinderella;
pub use rating::{global_rating, local_rating, RatingInputs};
pub use tier::{TierParams, TieredIndex};
pub use validate::InvariantViolation;
