//! `cind` — a command-line universal-table manager built on Cinderella.
//!
//! The paper's prototype made Cinderella transparent behind SQL views; this
//! crate is the equivalent adoption path for the Rust library: point it at
//! a CSV file of irregular entities (empty cells = absent attributes), let
//! Cinderella partition it online, persist the table as a snapshot, and
//! run the paper's `… IS NOT NULL OR …` queries against it.
//!
//! ```text
//! cind load   --input products.csv --snapshot table.cind [--weight W] [--capacity B]
//! cind query  --snapshot table.cind --attrs rotation,formFactor [--limit N]
//! cind stats  --snapshot table.cind
//! cind merge  --snapshot table.cind --threshold 0.5
//! cind check  --snapshot table.cind
//! ```
//!
//! Everything is a library function ([`commands`]) so the whole surface is
//! integration-testable without spawning processes; [`main`](../cind) is a
//! thin argument parser.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod commands;
pub mod csv;

pub use commands::{
    check, load, merge, query, serve, stats, workload, CliError, LoadOptions, ModeSpec,
    QueryOptions,
};
