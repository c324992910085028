//! Synthetic data and workload generators calibrated to the paper.
//!
//! The paper evaluates on (a) 100 000 DBpedia person entities with 100
//! attributes and (b) TPC-H at scale factor 0.5. Neither dataset ships with
//! this repository, so this crate generates faithful synthetic stand-ins
//! (see DESIGN.md §3 for the substitution argument):
//!
//! * [`dbpedia`] — irregular entities whose attribute-frequency distribution
//!   and attributes-per-entity distribution match Fig. 4: two near-universal
//!   attributes, eleven "fairly common" ones (> 30 %), ≥ 85 % of attributes
//!   below 10 %, overall sparseness ≈ 0.94, arity mass in 2–15. Latent
//!   *groups* give the co-occurrence structure Cinderella exploits.
//! * [`tpch`] — the eight TPC-H relations with their exact column sets and
//!   proportional cardinalities, loaded as perfectly regular entities
//!   (Table I), plus the referenced-column sets of the 22 TPC-H queries.
//! * [`products`] — the electronics product catalog of Fig. 1, for the
//!   examples.
//! * [`workload`] — the paper's synthetic query construction: every single
//!   attribute, plus pairs and triples of the 20 most frequent attributes,
//!   binned by selectivity with representatives per bin.
//! * [`zipf`] — the Zipf sampler behind the long-tail distributions (the
//!   paper cites Zipf-distributed attribute frequencies as characteristic
//!   of irregular data).
//!
//! Every generator is seeded and deterministic.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod dbpedia;
pub mod products;
pub mod tpch;
pub mod workload;
pub mod zipf;

pub use dbpedia::{DbpediaConfig, DbpediaGenerator};
pub use products::ProductGenerator;
pub use tpch::{tpch_query_columns, tpch_schema, TpchConfig, TpchGenerator};
pub use workload::{DriftConfig, DriftMode, DriftOp, DriftScenario, QuerySpec, WorkloadBuilder};
pub use zipf::Zipf;
