//! The concurrent wire-protocol serving layer over the Cinderella engine.
//!
//! Everything below the socket — partitioning, storage, queries — is
//! single-process library code; this crate puts it behind a network
//! boundary so several sessions can work against one store at once:
//!
//! * [`protocol`] — a small length-prefixed binary protocol (varint frames
//!   reusing the storage codec) with typed requests and responses,
//!   including wire-level batch operations ([`Request::InsertBatch`],
//!   [`Request::QueryBatch`]).
//! * [`engine`] — the [`Engine`] service object: the universal table plus
//!   the partitioner behind single-writer / many-reader discipline
//!   (writes serialise through one lock; queries fan out on the storage
//!   layer's `Send + Sync` read views).
//! * [`commit`] — the WAL group-commit coordinator: concurrent writers
//!   hand their transaction frames to a per-shard [`commit::GroupCommit`]
//!   that coalesces them into one buffered append and one fsync
//!   (leader/follower handoff), without weakening the ack-after-durable
//!   contract.
//! * [`server`] — one thread per connection: it decodes every complete
//!   frame a socket read delivered, executes them in frame order, and
//!   writes all their answers with one write, so responses are in request
//!   order by construction. When the global in-flight bound is hit a frame
//!   is answered [`protocol::Response::Busy`] in its slot instead of
//!   waiting (admission control / load shedding), and graceful shutdown
//!   stops accepting, answers what was read, joins every connection
//!   thread, flushes the WAL, snapshots, and runs the full structural
//!   validation before exit.
//! * [`client`] — a blocking request/reply client library, with an
//!   explicit pipelined mode (K requests in flight per connection) and
//!   typed batch calls.
//! * [`loadgen`] — a closed-loop load generator (N connections × mixed
//!   insert/query workload) with per-operation latency histograms that
//!   separate service time from end-to-end time under pipelining.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod commit;
pub mod config;
pub mod engine;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod sharded;

pub use client::Client;
pub use commit::{GroupCommit, WalCounters, WalCountersSnapshot};
pub use config::ServeConfig;
pub use engine::{Engine, EngineOptions, EngineSnapshot};
pub use cind_datagen::DriftMode;
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use protocol::{
    EngineStats, ErrorCode, IoCounters, ProtoError, QueryStats, Request, Response, WireEntity,
};
pub use server::{Server, ServerHandle, ShutdownReport};
pub use shard::ShardRouter;
pub use sharded::{shard_dir_name, ShardedEngine, ShardedOptions, MANIFEST_FILE};

use cind_storage::{PersistError, StorageError};
use cinderella_core::CoreError;

/// The crate-wide error type: everything that can go wrong on either side
/// of the wire.
#[derive(Debug)]
pub enum ServerError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Snapshot or WAL persistence failure.
    Persist(PersistError),
    /// Storage engine failure.
    Storage(StorageError),
    /// Partitioning engine failure.
    Core(CoreError),
    /// Wire protocol failure (framing or body decode).
    Protocol(ProtoError),
    /// A query named an attribute the catalog has never seen.
    UnknownAttribute(String),
    /// The server's bounded queue was full — the request was shed, retry
    /// after backing off.
    Busy,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The server answered a typed error frame.
    Remote {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered a frame that does not fit the request (protocol
    /// desync — close the connection).
    UnexpectedResponse,
    /// An internal serving-layer invariant failed (shard layout mismatch,
    /// panicked fan-out worker). Not attributable to the request.
    Internal(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Persist(e) => write!(f, "persist: {e}"),
            ServerError::Storage(e) => write!(f, "storage: {e}"),
            ServerError::Core(e) => write!(f, "core: {e}"),
            ServerError::Protocol(e) => write!(f, "protocol: {e}"),
            ServerError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            ServerError::Busy => write!(f, "server busy (request shed by admission control)"),
            ServerError::ShuttingDown => write!(f, "server shutting down"),
            ServerError::Remote { code, message } => {
                write!(f, "remote error ({code:?}): {message}")
            }
            ServerError::UnexpectedResponse => write!(f, "unexpected response frame"),
            ServerError::Internal(msg) => write!(f, "internal: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<PersistError> for ServerError {
    fn from(e: PersistError) -> Self {
        ServerError::Persist(e)
    }
}

impl From<StorageError> for ServerError {
    fn from(e: StorageError) -> Self {
        ServerError::Storage(e)
    }
}

impl From<CoreError> for ServerError {
    fn from(e: CoreError) -> Self {
        ServerError::Core(e)
    }
}

impl From<ProtoError> for ServerError {
    fn from(e: ProtoError) -> Self {
        ServerError::Protocol(e)
    }
}
