//! Partition-pruned query planning and execution.
//!
//! The paper's workload (§V-B) consists of queries of the form
//!
//! ```sql
//! SELECT a1, a2, … FROM universalTable
//! WHERE a1 IS NOT NULL OR a2 IS NOT NULL …
//! ```
//!
//! i.e. "return the requested attributes of every entity that instantiates
//! at least one of them". Such a query carries a *query synopsis* `q` (the
//! requested attribute set); a partition with synopsis `p` can be pruned
//! before any data is touched when `|p ∧ q| = 0` (§II). The prototype in
//! the paper rewrites the query to a `UNION ALL` over the surviving
//! partitions; here the [`planner`] produces the surviving segment list and
//! the [`executor`] scans them, counting rows, cells, pages, and wall time.
//!
//! * [`Query`] — requested attributes + synopsis + the match/projection
//!   definitions on a decoded entity (the oracle the scan is tested against).
//! * [`Projection`] — the query compiled for the scan: a sorted
//!   `(attribute → output column)` map merged against each record's bytes.
//! * [`RowSink`] — where a scan's matching rows go, as cells still borrowed
//!   from the record: counted only, materialised as [`Row`]s, or encoded by
//!   a caller's own sink ([`executor::execute_into`]).
//! * [`planner::plan`] — pruning against any partition view (Cinderella's
//!   catalog or a baseline's).
//! * [`executor::execute`] — runs the plan, returning a [`QueryResult`]
//!   with logical/physical I/O deltas and timing.
//!
//! ```
//! use cind_model::{Entity, EntityId, Synopsis, Value};
//! use cind_query::{execute, plan, Query};
//! use cind_storage::UniversalTable;
//!
//! let mut table = UniversalTable::new(64);
//! let rpm = table.catalog_mut().intern("rotation");
//! let res = table.catalog_mut().intern("resolution");
//! let drives = table.create_segment();
//! let cams = table.create_segment();
//! table.insert(drives, &Entity::new(EntityId(0), [(rpm, Value::Int(7200))]).unwrap())?;
//! table.insert(cams, &Entity::new(EntityId(1), [(res, Value::Float(12.1))]).unwrap())?;
//!
//! // Prune by synopsis, then scan only the surviving partition.
//! let view = vec![
//!     (drives, Synopsis::from_attrs(2, [rpm])),
//!     (cams, Synopsis::from_attrs(2, [res])),
//! ];
//! let q = Query::from_names(table.catalog(), ["rotation"]).unwrap();
//! let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
//! let r = execute(&table, &q, &p)?;
//! assert_eq!(r.rows, 1);
//! assert_eq!(r.segments_pruned, 1);
//! # Ok::<(), cind_storage::StorageError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod executor;
pub mod planner;
mod projection;
mod query;

pub use executor::{execute, execute_collect, execute_collect_view, execute_into, QueryResult};
pub use planner::{plan, plan_from_survivors, Plan};
pub use projection::{Projection, Row, RowSink};
pub use query::Query;
