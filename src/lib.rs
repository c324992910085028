//! Cinderella — adaptive online partitioning of irregularly structured data.
//!
//! Facade crate re-exporting the workspace's public API. See the individual
//! crates for details:
//!
//! * [`bitset`] — synopsis bitsets.
//! * [`model`] — attributes, entities, synopses, `SIZE()` models.
//! * [`storage`] — the sparse universal-table storage engine.
//! * [`core`] — the Cinderella online partitioning algorithm.
//! * [`query`] — partition-pruned query planning and execution.
//! * [`datagen`] — DBpedia-like / TPC-H-like / product-catalog generators.
//! * [`baselines`] — unpartitioned, hash, range, and offline comparators.
//! * [`metrics`] — histograms, partition statistics, reporting.
//! * [`server`] — the concurrent wire-protocol serving layer.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub use cind_baselines as baselines;
pub use cind_bitset as bitset;
pub use cind_datagen as datagen;
pub use cind_metrics as metrics;
pub use cind_model as model;
pub use cind_query as query;
pub use cind_server as server;
pub use cind_storage as storage;
pub use cinderella_core as core;
