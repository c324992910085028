//! Measurement utilities for the experiments.
//!
//! * [`LatencyHistogram`] — log-bucketed latency histogram, the shape of
//!   Fig. 8 (insert execution times spanning µs to seconds).
//! * [`Summary`] — five-number summary + mean, the box-plot data behind
//!   Fig. 7(b)–(d).
//! * [`partition_stats`] — turns a partitioning's per-partition numbers
//!   into the four Fig. 7 series.
//! * [`report`] — fixed-width text tables and CSV output for the harness
//!   binaries (hand-rolled; no serde dependency needed).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

mod histogram;
pub mod partition_stats;
pub mod report;
mod summary;

pub use histogram::LatencyHistogram;
pub use partition_stats::PartitioningReport;
pub use report::{write_csv, Table};
pub use summary::Summary;
