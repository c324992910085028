//! # cind-reorg — the workload-adaptive background reorganizer
//!
//! Cinderella (Herrmann, Voigt, Lehner; ICDE Workshops 2014) adapts the
//! partitioning **only on insert**: once an entity lands, nothing ever
//! re-partitions when the *query* workload moves, so `EFFICIENCY(P)`
//! decays under drift — the exact gap the paper's §VII flags as future
//! work. This crate closes it with three cooperating pieces:
//!
//! * [`heat`] — per-partition scan counters and a bounded window of
//!   recent distinct query synopses, decayed on a deterministic
//!   **op-count epoch** (never wall-clock): the empirical workload.
//! * [`cost`] — prices candidate actions in Definition-1 terms using the
//!   partition catalog alone (synopses + sizes, zero table I/O). The
//!   numerator of EFFICIENCY is partitioning-independent, so the
//!   denominator delta *is* the efficiency delta.
//! * [`driver`] — [`ReorgDriver::step`], the incremental executor: at
//!   most one cost-cleared action per step (re-split a hot mixed
//!   partition, else merge two cold partitions), each WAL-framed by the
//!   core seams so a crash recovers to the pre- or post-action state.
//!
//! The server layer owns scheduling: it feeds queries and writes into the
//! driver and invokes `step` between foreground operations when the
//! configured cadence (`ReorgConfig::epoch_ops`) elapses. With
//! `--reorg off` (the default) the driver records nothing and acts never
//! — the server's differential test proves the WAL and snapshot bytes are
//! identical to a build without this subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod driver;
pub mod heat;

pub use cost::{merge_damage, resplit_saving, scan_cost};
pub use driver::{ActionKind, ReorgDriver, ReorgStats, StepReport};
pub use heat::{HeatMap, MERGE_COOLOFF_EPOCHS, WORKLOAD_CAP};
