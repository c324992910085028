//! Serving-layer configuration.

use cinderella_core::{IndexTier, ReorgMode};

/// Tunables for one [`crate::Server`] instance.
///
/// Every documented field is surfaced as a `cind serve` command-line flag
/// (the workspace audit's CIND-A004 rule checks the parity).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// TCP port to listen on (loopback only); `0` asks the OS for a free
    /// port — read it back from [`crate::ServerHandle::port`].
    pub port: u16,
    /// Accepted and ignored: each connection's own thread executes the
    /// frames it reads, so there is no worker pool to size. The field is
    /// still here because `benchmark/src/harness.rs` names it in a struct
    /// literal; it goes when the next `[benchmark]` PR drops that mention.
    #[doc(hidden)]
    pub workers: usize,
    /// Bound on the frames admitted but not yet answered, across all
    /// connections — the admission-control knob. A frame is admitted when
    /// its connection decodes it and released once the answers of the
    /// read that carried it are written; a frame decoded while
    /// `queue_depth` others are in flight is answered
    /// [`crate::Response::Busy`] immediately instead of waiting (load
    /// shedding keeps latency bounded under overload). Clamped to at
    /// least 1.
    pub queue_depth: usize,
    /// Buffer-pool capacity, in pages, for stores the server opens itself
    /// (ignored for pre-built engines handed to [`crate::Server::start`]).
    pub pool_pages: usize,
    /// Accepted and ignored: a shard leg scans its segments inline, and the
    /// legs are a query's only fan-out. The field is still here because
    /// `benchmark/src/harness.rs` names it in a struct literal; it goes when
    /// the next `[benchmark]` PR drops that mention.
    #[doc(hidden)]
    pub query_threads: usize,
    /// Engine shards: independent writer locks, WALs, and snapshot files.
    /// Writes hash-route to one shard; queries fan out across all of them.
    /// On an existing store the on-disk manifest wins. Clamped to at
    /// least 1.
    pub shards: usize,
    /// Group-commit gather window in **microseconds**. `0` means every
    /// commit syncs the WAL individually (the pre-group-commit behaviour,
    /// and the default). With a window, the per-shard commit coordinator
    /// lets the fsync leader linger this long collecting commits from
    /// concurrent writers, then persists the whole batch with one WAL
    /// append and one fsync — trading a bounded latency bump for a large
    /// reduction in fsyncs under concurrent write load. Durability
    /// semantics are unchanged: no request is acknowledged before its
    /// bytes are synced.
    pub group_commit_window: u64,
    /// Background reorganizer mode (`off` or `auto`). With `auto`, each
    /// shard's engine tracks partition heat and enacts cost-cleared
    /// re-split / merge actions between foreground operations;
    /// `off` (the default) is provably inert — the differential test
    /// checks the WAL and snapshot bytes are identical to a build without
    /// the subsystem. Budget, hysteresis threshold and epoch length are
    /// `cinderella_core::ReorgConfig`'s defaults.
    pub reorg: ReorgMode,
    /// Pruning-index tier per shard (`exact`, `tiered`, or `auto`).
    /// `exact` keeps one presence bitmap per attribute; `tiered` swaps the
    /// bitmaps for blocked Bloom filter rows under group summaries
    /// (superset-sound: answers are identical, memory is bounded); `auto`
    /// starts exact and ratchets to tiered once a shard's catalog crosses
    /// the partition-count threshold.
    pub tier: IndexTier,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            port: 0,
            workers: 4,
            queue_depth: 64,
            pool_pages: 1024,
            query_threads: 1,
            shards: 1,
            group_commit_window: 0,
            reorg: ReorgMode::Off,
            tier: IndexTier::Exact,
        }
    }
}

impl ServeConfig {
    /// `queue_depth`, clamped to the documented minimum.
    #[must_use]
    pub fn effective_queue_depth(&self) -> usize {
        self.queue_depth.max(1)
    }

    /// `shards`, clamped to the documented minimum.
    #[must_use]
    pub fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert_eq!(c.port, 0);
        assert!(c.effective_queue_depth() >= 1);
        // Group commit is opt-in: the default must keep the strictly
        // per-commit fsync discipline.
        assert_eq!(c.group_commit_window, 0);
    }

    #[test]
    fn zero_knobs_are_clamped() {
        let c = ServeConfig {
            queue_depth: 0,
            shards: 0,
            ..ServeConfig::default()
        };
        assert_eq!(c.effective_queue_depth(), 1);
        assert_eq!(c.effective_shards(), 1);
    }
}
