//! Deterministic simulation harness for the full Cinderella store/server
//! stack.
//!
//! The paper's partitioner is an *online* algorithm: its correctness
//! claims (structural invariants, Definition-1 efficiency accounting,
//! query equivalence) must hold not just on clean runs but across crashes,
//! torn writes and failed I/O. This crate closes that loop with a
//! FoundationDB-style simulation:
//!
//! * [`vfs::SimVfs`] — an in-memory filesystem implementing the storage
//!   crate's [`cind_storage::Vfs`] seam, injecting seeded faults: torn
//!   writes (truncate mid-buffer, optionally followed by garbage), short
//!   reads, `ENOSPC`, failed fsyncs, virtual latency, and armed
//!   crash-points that kill the k-th mutating operation. A sharded run
//!   gives every shard its *own* `SimVfs` — N independent crash domains —
//!   so an armed crash kills exactly one shard while the harness proves
//!   the survivors stay byte-exact and the victim recovers in place.
//! * [`schedule`] — a seeded generator of insert/update/delete/query/
//!   merge/checkpoint/crash operation streams, mostly valid with a
//!   deliberate minority of invalid ops.
//! * [`oracle::Oracle`] — a naive partition-free reference table every
//!   answer is checked against, plus full structural validation and an
//!   independent EFFICIENCY(P) recomputation after every step and every
//!   recovery.
//! * [`trace`] — run capture with a canonical hash (the determinism
//!   witness: same seed ⇒ byte-identical trace), JSON persistence, replay
//!   and greedy shrinking, so any failing seed becomes a committed
//!   regression file.
//! * [`selftest`] — proof the harness detects defects: a deliberate
//!   checksum-skipping bug (`sim-defect` feature in `cind-storage`) must
//!   be caught by the oracle within a bounded seed budget.
//!
//! Everything runs on a virtual clock ([`clock::VirtualClock`]); no wall
//! time enters any decision, so runs are exactly reproducible.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod clock;
pub mod harness;
pub mod json;
pub mod oracle;
pub mod schedule;
pub mod selftest;
pub mod trace;
pub mod vfs;

pub use harness::{
    content_diff, crash_sweep, crash_sweep_with_tier, run, run_ops, shard_vfs_seed,
    sim_sharded_options, RunReport, RunSpec, SimConfig, SimFailure,
};
pub use schedule::{generate, generate_drift, Op};
pub use selftest::{self_test, SelfTestReport};
pub use trace::{shrink_ops, Trace};
pub use vfs::{FaultPlan, SimVfs};

/// Entry point shared by the `cind-sim` binary and the `cind sim`
/// subcommand: parses flags, runs the requested mode, prints a summary,
/// and returns the process exit code (0 = pass).
pub mod cli;
