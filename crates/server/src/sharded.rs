//! The [`ShardedEngine`]: N independent [`Engine`] shards behind one
//! service facade.
//!
//! Each shard owns a full vertical slice — its own Cinderella partitioner,
//! universal table, buffer pool, WAL, and snapshot file — living in its own
//! subdirectory (`shard-0000/`, `shard-0001/`, …) of the store root, and is
//! recovered independently (restore → replay → rebuild → checkpoint). A
//! [`cind_storage::Manifest`] at the root records the shard count, which is
//! structural: entities hash-route via [`ShardRouter`], so the manifest is
//! authoritative on reopen — the requested count is only used when creating
//! a fresh store.
//!
//! Concurrency model: writes route to exactly one shard and serialise on
//! *that shard's* writer lock only; a write to shard 2 never blocks a write
//! to shard 5. A query waits at most for the one write in flight on each
//! shard, and never for a scan: the unknown-attribute pre-check
//! (`Engine::knows`) and a snapshot refreeze take the shard's state read
//! lock, so they wait out a write in progress; a cached epoch-tagged
//! [`crate::engine::EngineSnapshot`] is handed out without it, and the scan
//! runs entirely off-lock. Queries fan out to every shard — the caller
//! runs the first leg, standing leg workers the others when idle — and
//! merge in shard order (each shard's rows are already in its own
//! deterministic plan order), so results are reproducible run to run.
//!
//! Crash domains: because shards share no mutable state and no files, a
//! crash (torn WAL, failed checkpoint) in one shard is recoverable by
//! reopening *that shard alone* ([`ShardedEngine::reopen_shard`]) while the
//! others keep serving — the property the simulation harness machine-checks
//! by crashing individual shards mid-workload.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, PoisonError, RwLock};

use cind_query::RowSink;
use cind_storage::{Manifest, Vfs};
use cinderella_core::MergeReport;

use crate::engine::{to_frame, written, Engine, EngineOptions, SNAPSHOT_FILE, WAL_FILE};
use crate::legs::{Job, LegWorkers};
use crate::protocol::{
    begin_batch, encode_response, frame, frame_rows, EngineStats, Entities, EntityView,
    IoCounters, QueryStats, Request, Response, WireEntity, WireRows,
};
use crate::shard::ShardRouter;
use crate::ServerError;

/// Manifest file name at the root of a sharded store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// The subdirectory name for shard `i` (`shard-0000`, `shard-0001`, …).
#[must_use]
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:04}")
}

/// Standing leg workers for a store of `shards` shards: one per leg past
/// the caller's own, none when this thread may run on one CPU only (legs
/// then run inline, and a spawn or a hand-off would be pure loss).
fn leg_workers(shards: usize) -> LegWorkers {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    LegWorkers::start(if cpus == 1 { 0 } else { shards - 1 })
}

/// How to build a [`ShardedEngine`].
#[derive(Clone)]
pub struct ShardedOptions {
    /// Per-shard engine options (partitioner config, pool pages, default
    /// VFS).
    pub engine: EngineOptions,
    /// Requested shard count (clamped to ≥ 1). On reopen the on-disk
    /// manifest wins; this value only shapes a *fresh* store.
    pub shards: usize,
    /// Optional per-shard VFS override: shard `i` uses `shard_vfs[i]` when
    /// present, else `engine.vfs`. The simulation harness injects one
    /// fault-injecting backend per shard here so crashes stay confined to
    /// one crash domain.
    pub shard_vfs: Vec<Arc<dyn Vfs>>,
}

impl ShardedOptions {
    /// Options for `shards` shards sharing `engine`'s defaults.
    #[must_use]
    pub fn new(engine: EngineOptions, shards: usize) -> Self {
        Self { engine, shards, shard_vfs: Vec::new() }
    }
}

impl std::fmt::Debug for ShardedOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOptions")
            .field("engine", &self.engine)
            .field("shards", &self.shards)
            .field("shard_vfs", &format_args!("[{} overrides]", self.shard_vfs.len()))
            .finish()
    }
}

/// N independent engine shards behind one facade: routed writes, fanned-out
/// queries, aggregated stats, per-shard recovery.
pub struct ShardedEngine {
    /// One slot per shard. The slot lock is *not* the shard's writer lock —
    /// the engine has its own — it only guards swapping the `Arc` during
    /// [`Self::reopen_shard`], so operations in flight on the old engine
    /// finish against the old instance while new ones see the reopened one.
    slots: Vec<RwLock<Arc<Engine>>>,
    router: ShardRouter,
    store: Option<PathBuf>,
    opts: ShardedOptions,
    /// Runs the legs of a query past the caller's own; joined on drop.
    legs: LegWorkers,
}

impl ShardedEngine {
    /// A fresh in-memory sharded engine (no durability).
    #[must_use]
    pub fn in_memory(opts: ShardedOptions) -> Self {
        let shards = opts.shards.max(1);
        let slots = (0..shards)
            .map(|i| RwLock::new(Arc::new(Engine::in_memory(Self::shard_opts(&opts, i)))))
            .collect();
        Self {
            slots,
            router: ShardRouter::new(shards),
            store: None,
            opts,
            legs: leg_workers(shards),
        }
    }

    /// Opens (or creates) a sharded store directory.
    ///
    /// * Fresh directory: writes a manifest for `opts.shards` and creates
    ///   the shard subdirectories.
    /// * Existing sharded store: the manifest's count is authoritative (the
    ///   requested count is ignored — resharding is not an in-place
    ///   operation).
    /// * Legacy unsharded store (`store.cind` / `wal.log` at the root, no
    ///   manifest): migrated into `shard-0000/` when `opts.shards == 1`;
    ///   refused loudly otherwise, since hash-routing an already-placed
    ///   population across N shards would strand every row.
    ///
    /// # Errors
    /// I/O and persistence failures; [`ServerError::Internal`] on the
    /// legacy-layout mismatch above; per-shard recovery failures.
    pub fn open(dir: &Path, opts: ShardedOptions) -> Result<Self, ServerError> {
        let meta_vfs = Arc::clone(&opts.engine.vfs);
        meta_vfs.create_dir_all(dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let requested = opts.shards.max(1);
        let shards = match Manifest::read_from(&*meta_vfs, &manifest_path)? {
            Some(m) => m.shards,
            None => {
                let legacy_snap = dir.join(SNAPSHOT_FILE);
                let legacy_wal = dir.join(WAL_FILE);
                let legacy = meta_vfs.exists(&legacy_snap) || meta_vfs.exists(&legacy_wal);
                if legacy && requested != 1 {
                    return Err(ServerError::Internal(format!(
                        "store at {} has a legacy unsharded layout; open it with \
                         --shards 1 first (it migrates into shard-0000/)",
                        dir.display()
                    )));
                }
                if legacy {
                    let shard0 = dir.join(shard_dir_name(0));
                    meta_vfs.create_dir_all(&shard0)?;
                    if meta_vfs.exists(&legacy_snap) {
                        meta_vfs.rename(&legacy_snap, &shard0.join(SNAPSHOT_FILE))?;
                    }
                    if meta_vfs.exists(&legacy_wal) {
                        meta_vfs.rename(&legacy_wal, &shard0.join(WAL_FILE))?;
                    }
                }
                Manifest { shards: requested }.write_to(&*meta_vfs, &manifest_path)?;
                requested
            }
        };
        let mut slots = Vec::with_capacity(shards);
        for i in 0..shards {
            slots.push(RwLock::new(Arc::new(Self::open_shard(dir, &opts, i)?)));
        }
        Ok(Self {
            slots,
            router: ShardRouter::new(shards),
            store: Some(dir.to_path_buf()),
            opts,
            legs: leg_workers(shards),
        })
    }

    fn shard_opts(opts: &ShardedOptions, i: usize) -> EngineOptions {
        let mut engine = opts.engine.clone();
        if let Some(vfs) = opts.shard_vfs.get(i) {
            engine.vfs = Arc::clone(vfs);
        }
        engine
    }

    fn open_shard(dir: &Path, opts: &ShardedOptions, i: usize) -> Result<Engine, ServerError> {
        Engine::open(&dir.join(shard_dir_name(i)), Self::shard_opts(opts, i))
    }

    /// Number of shards (fixed at store creation).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The shard owning entity `id`.
    #[must_use]
    pub fn shard_of(&self, id: u64) -> usize {
        self.router.route(id)
    }

    /// The current engine instance for shard `i` (an `Arc` clone; the slot
    /// lock is held only for the clone, never across engine calls).
    #[must_use]
    pub fn shard_engine(&self, i: usize) -> Arc<Engine> {
        Arc::clone(&self.slots[i].read().unwrap_or_else(PoisonError::into_inner))
    }

    /// `Arc` clones of every shard engine, in shard order.
    fn engines(&self) -> Vec<Arc<Engine>> {
        self.slots
            .iter()
            .map(|slot| Arc::clone(&slot.read().unwrap_or_else(PoisonError::into_inner)))
            .collect()
    }

    /// Inserts an entity on its owning shard; returns `(segment, split?)`.
    ///
    /// # Errors
    /// Duplicate ids, storage failures, attribute-less entities.
    pub fn insert(&self, wire: &crate::protocol::WireEntity) -> Result<(u32, bool), ServerError> {
        self.shard_engine(self.router.route(wire.id)).insert(wire)
    }

    /// Inserts a batch of entities: an adapter that lends `wires` to
    /// [`Self::insert_views`].
    #[must_use]
    pub fn insert_batch(
        &self,
        wires: &[WireEntity],
    ) -> Vec<Result<(u32, bool), ServerError>> {
        let lent = Entities::of(wires);
        let views: Vec<EntityView<'_>> = lent.views().collect();
        self.insert_views(&views)
    }

    /// Inserts a batch of entities read in place: one pass groups them by
    /// owning shard, then each shard runs its group under a single
    /// writer-lock acquisition and a single group-commit durability wait
    /// (`Engine::insert_many`). Placement is identical to inserting the
    /// same entities one at a time in request order — within a shard the
    /// relative order is preserved, and entities on different shards never
    /// observe each other.
    ///
    /// Per-item results, scattered back to request order.
    #[must_use]
    pub fn insert_views(
        &self,
        views: &[EntityView<'_>],
    ) -> Vec<Result<(u32, bool), ServerError>> {
        let mut per_shard: Vec<Vec<EntityView<'_>>> =
            self.slots.iter().map(|_| Vec::with_capacity(views.len())).collect();
        let mut order: Vec<usize> = Vec::with_capacity(views.len());
        for view in views {
            let shard = self.router.route(view.id);
            per_shard[shard].push(*view);
            order.push(shard);
        }
        let mut results: Vec<_> = per_shard
            .iter()
            .enumerate()
            .map(|(shard, group)| {
                let done = if group.is_empty() {
                    Vec::new()
                } else {
                    self.shard_engine(shard).insert_many(group)
                };
                done.into_iter()
            })
            .collect();
        order
            .into_iter()
            .map(|shard| {
                results[shard].next().unwrap_or_else(|| {
                    Err(ServerError::Internal("batch item lost in routing".to_string()))
                })
            })
            .collect()
    }

    /// Runs a batch of queries sequentially; the legs share each shard's
    /// per-epoch snapshot cache, so the fan-out clone is paid once per
    /// epoch, not once per leg.
    #[must_use]
    pub fn query_batch(
        &self,
        queries: &[Vec<String>],
    ) -> Vec<Result<(Vec<crate::client::Row>, QueryStats), ServerError>> {
        queries.iter().map(|attrs| self.query(attrs)).collect()
    }

    /// Inserts one entity read in place on its owning shard.
    ///
    /// # Errors
    /// As [`Engine::insert_view`].
    pub(crate) fn insert_view(&self, view: &EntityView<'_>) -> Result<(u32, bool), ServerError> {
        self.shard_engine(self.router.route(view.id)).insert_view(view)
    }

    /// Replaces a stored entity on its owning shard.
    ///
    /// # Errors
    /// Unknown ids, storage failures.
    pub fn update(&self, wire: &crate::protocol::WireEntity) -> Result<(u32, bool), ServerError> {
        self.shard_engine(self.router.route(wire.id)).update(wire)
    }

    /// Replaces a stored entity with one read in place, on its owning
    /// shard.
    ///
    /// # Errors
    /// As [`Engine::update_view`].
    pub(crate) fn update_view(&self, view: &EntityView<'_>) -> Result<(u32, bool), ServerError> {
        self.shard_engine(self.router.route(view.id)).update_view(view)
    }

    /// Deletes an entity from its owning shard.
    ///
    /// # Errors
    /// Unknown ids, storage failures.
    pub fn delete(&self, id: u64) -> Result<(), ServerError> {
        self.shard_engine(self.router.route(id)).delete(id)
    }

    /// Runs a `SELECT attrs` query across every shard and merges the rows
    /// in shard order (deterministic: each shard's rows are already in its
    /// own plan order). Per-shard stats are summed. An attribute unknown on
    /// *some* shards projects as NULL there; only an attribute unknown on
    /// **every** shard is an error, returned before any shard scans — one
    /// shard or many, the same rule and the same legs.
    ///
    /// # Errors
    /// [`ServerError::UnknownAttribute`], also for an empty attribute
    /// list; storage failures from any leg.
    pub fn query(
        &self,
        attrs: &[String],
    ) -> Result<(Vec<crate::client::Row>, QueryStats), ServerError> {
        let (legs, stats) = self.query_legs::<Vec<crate::client::Row>>(attrs)?;
        Ok((legs.into_iter().flatten().collect(), stats))
    }

    /// [`Self::query`] answered as wire bytes: the response — `Rows`, or
    /// the typed error — appended to `out` as `len:varint body`, what
    /// [`frame`]ing [`encode_response`] of the typed answer would append.
    /// Each leg scans straight into a [`WireRows`] buffer, so no row, value
    /// or string is built on the way.
    pub fn query_frame(&self, attrs: &[String], out: &mut Vec<u8>) {
        match self.query_legs::<WireRows>(attrs) {
            Ok((legs, stats)) => frame_rows(&stats, attrs.len(), &legs, out),
            Err(e) => frame(&encode_response(&to_frame(Err(e))), out),
        }
    }

    /// The fan-out under every query, and a query's only one: one leg per
    /// shard, each scanning its surviving segments into a sink of its own;
    /// the sinks come back in shard order with the summed stats. The caller
    /// runs leg 0 and offers every other leg to an idle standing worker; a
    /// leg no worker takes runs on the caller after leg 0. Merge order is
    /// by shard index wherever a leg ran, so results are byte-identical.
    fn query_legs<S: RowSink + 'static>(
        &self,
        attrs: &[String],
    ) -> Result<(Vec<S>, QueryStats), ServerError> {
        if attrs.is_empty() {
            return Err(ServerError::UnknownAttribute("<empty attribute list>".to_string()));
        }
        let engines = self.engines();
        // The one failure rule, one shard or many: an attribute no shard
        // knows fails the query here, before any leg takes a snapshot,
        // scans or heats a partition.
        if let Some(ghost) = attrs.iter().find(|a| !engines.iter().any(|e| e.knows(a))) {
            return Err(ServerError::UnknownAttribute(ghost.clone()));
        }
        let (answer, answers) = channel();
        let mut shared: Option<Arc<[String]>> = None;
        let mut mine = vec![0];
        for (i, engine) in engines.iter().enumerate().skip(1) {
            let taken = self.legs.offer(|| {
                let attrs = Arc::clone(shared.get_or_insert_with(|| attrs.into()));
                leg_job::<S>(Arc::clone(engine), attrs, i, answer.clone())
            });
            if !taken {
                mine.push(i);
            }
        }
        drop(answer);
        let handed = engines.len() - mine.len();
        let mut legs: Vec<Option<Leg<S>>> = engines.iter().map(|_| None).collect();
        for i in mine {
            legs[i] = Some(engines[i].query_leg(attrs));
        }
        for _ in 0..handed {
            let Ok((i, leg)) = answers.recv() else { break };
            legs[i] = Some(leg);
        }
        let mut sinks = Vec::with_capacity(legs.len());
        let mut stats = QueryStats::default();
        for leg in legs {
            let (sink, leg_stats, _) = leg.unwrap_or_else(|| {
                Err(ServerError::Internal("shard query worker did not answer".to_string()))
            })?;
            sinks.push(sink);
            stats.entities_scanned += leg_stats.entities_scanned;
            stats.segments_read += leg_stats.segments_read;
            stats.segments_pruned += leg_stats.segments_pruned;
            stats.logical_reads += leg_stats.logical_reads;
            stats.physical_reads += leg_stats.physical_reads;
        }
        Ok((sinks, stats))
    }

    /// Aggregated counters: additive fields are summed; `attributes` is the
    /// size of the *union* of per-shard catalogs (shards intern
    /// independently, so summing would double-count shared names).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        let mut names: BTreeSet<String> = BTreeSet::new();
        for engine in self.engines() {
            let s = engine.stats();
            total.entities += s.entities;
            total.partitions += s.partitions;
            total.logical_reads += s.logical_reads;
            total.physical_reads += s.physical_reads;
            total.page_writes += s.page_writes;
            total.evictions += s.evictions;
            engine.with_parts(|table, _| {
                for (_, name) in table.catalog().iter() {
                    names.insert(name.to_string());
                }
            });
        }
        total.attributes = names.len() as u64;
        total
    }

    /// Runs the full structural validation on every shard; each violation
    /// line is prefixed with its crash domain (`[shard i] …`).
    ///
    /// # Errors
    /// Storage failures from the validation scans.
    pub fn validate(&self) -> Result<Vec<String>, ServerError> {
        let mut out = Vec::new();
        for (i, engine) in self.engines().into_iter().enumerate() {
            for line in engine.validate()? {
                out.push(format!("[shard {i}] {line}"));
            }
        }
        Ok(out)
    }

    /// Drains every shard's WAL through its commit coordinator.
    ///
    /// # Errors
    /// The first shard's sticky WAL failure, if appends or group flushes
    /// have been failing.
    pub fn flush_wal(&self) -> Result<(), ServerError> {
        for engine in self.engines() {
            engine.flush_wal()?;
        }
        Ok(())
    }

    /// Summed WAL I/O counters across all shards (net counters are zero;
    /// the server layer fills them in).
    #[must_use]
    pub fn io_counters(&self) -> IoCounters {
        let mut total = IoCounters::default();
        for engine in self.engines() {
            let io = engine.io_counters();
            total.wal_appends += io.wal_appends;
            total.wal_syncs += io.wal_syncs;
            total.wal_groups += io.wal_groups;
            total.wal_ops += io.wal_ops;
        }
        total
    }

    /// Checkpoints every shard (snapshot + WAL truncation). Failures stop
    /// at the first failing shard — its WAL is poisoned by the engine, and
    /// shards already checkpointed are simply ahead, which recovery
    /// tolerates because each shard's snapshot/log pairing is independent.
    ///
    /// # Errors
    /// I/O and persistence failures.
    pub fn checkpoint(&self) -> Result<(), ServerError> {
        for engine in self.engines() {
            engine.checkpoint()?;
        }
        Ok(())
    }

    /// Checkpoints one shard only — the unit the crash simulation kills
    /// between.
    ///
    /// # Errors
    /// I/O and persistence failures on that shard.
    pub fn checkpoint_shard(&self, i: usize) -> Result<(), ServerError> {
        self.shard_engine(i).checkpoint()
    }

    /// Runs one background reorganization step on every shard; reports the
    /// number of shards whose step enacted an action. A no-op (zero) when
    /// the reorganizer is configured off.
    ///
    /// # Errors
    /// Storage/WAL failures from an enacted action's moves.
    pub fn reorg_step(&self) -> Result<u64, ServerError> {
        let mut enacted = 0;
        for engine in self.engines() {
            if engine.reorg_step()?.action.is_some() {
                enacted += 1;
            }
        }
        Ok(enacted)
    }

    /// Summed reorganizer counters across every shard.
    #[must_use]
    pub fn reorg_stats(&self) -> cind_reorg::ReorgStats {
        let mut total = cind_reorg::ReorgStats::default();
        for engine in self.engines() {
            let s = engine.reorg_stats();
            total.steps += s.steps;
            total.resplits += s.resplits;
            total.merges += s.merges;
            total.entities_moved += s.entities_moved;
        }
        total
    }

    /// Switches the pruning-index tier on every shard (in-memory index
    /// state only; nothing is WAL-framed).
    pub fn set_index_tier(&self, tier: cinderella_core::IndexTier) {
        for engine in self.engines() {
            engine.set_index_tier(tier);
        }
    }

    /// Runs one partition merge pass on every shard; reports are summed.
    ///
    /// # Errors
    /// [`cinderella_core::CoreError::MergeThreshold`] for a threshold
    /// outside `(0, 1]`, from the first shard, before anything moves;
    /// storage/WAL failures from the moves.
    pub fn merge_pass(&self, threshold: f64) -> Result<MergeReport, ServerError> {
        let mut total = MergeReport::default();
        for engine in self.engines() {
            let report = engine.merge_pass(threshold)?;
            total.merges += report.merges;
            total.entities_moved += report.entities_moved;
            total.kept += report.kept;
        }
        Ok(total)
    }

    /// Re-runs recovery for shard `i` alone (restore → replay → rebuild →
    /// checkpoint) and swaps the fresh engine into the slot. The other
    /// shards keep serving throughout — recovery I/O happens entirely
    /// before the slot lock is taken. This is the crash-domain story: a
    /// torn WAL or poisoned sink on one shard never forces a full restart.
    ///
    /// # Errors
    /// [`ServerError::Internal`] for in-memory engines or an out-of-range
    /// shard index; recovery failures from the shard itself.
    pub fn reopen_shard(&self, i: usize) -> Result<(), ServerError> {
        let Some(dir) = &self.store else {
            return Err(ServerError::Internal(
                "reopen_shard needs a durable store".to_string(),
            ));
        };
        let Some(slot) = self.slots.get(i) else {
            return Err(ServerError::Internal(format!(
                "shard {i} out of range (store has {} shards)",
                self.slots.len()
            )));
        };
        let engine = Self::open_shard(dir, &self.opts, i)?;
        let mut guard = slot.write().unwrap_or_else(PoisonError::into_inner);
        *guard = Arc::new(engine);
        Ok(())
    }

    /// Dispatches one request to the matching method and folds any error
    /// into a typed [`Response`] — the request dispatcher of the typed,
    /// in-process API. Never panics: every failure becomes an error
    /// response the caller can match on.
    #[must_use]
    pub fn handle(&self, req: &Request) -> Response {
        let result = match req {
            Request::Insert(e) => return written(self.insert(e)),
            Request::Update(e) => return written(self.update(e)),
            Request::Delete(id) => self.delete(*id).map(|()| Response::Deleted),
            Request::Query(attrs) => self
                .query(attrs)
                .map(|(rows, stats)| Response::Rows { rows, stats }),
            Request::InsertBatch(entities) => Ok(Response::Batch(
                self.insert_batch(entities).into_iter().map(written).collect(),
            )),
            Request::QueryBatch(queries) => Ok(Response::Batch(
                self.query_batch(queries)
                    .into_iter()
                    .map(|r| to_frame(r.map(|(rows, stats)| Response::Rows { rows, stats })))
                    .collect(),
            )),
            Request::IoCounters => Ok(Response::IoCounters(self.io_counters())),
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::Validate => self.validate().map(Response::Validated),
            Request::Ping(delay_ms) => {
                if *delay_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(*delay_ms));
                }
                Ok(Response::Pong)
            }
            Request::Shutdown => Ok(Response::ShutdownAck),
        };
        to_frame(result)
    }

    /// Answers any request as one encoded response frame appended to
    /// `wire` — the request dispatcher of the network path, byte for byte
    /// what [`frame`]ing [`encode_response`] of [`Self::handle`]'s answer
    /// would append. Queries, alone or batched, go through
    /// [`Self::query_frame`] and never exist as typed rows; every other
    /// answer is small and is encoded from its typed [`Response`].
    pub fn answer_frame(&self, req: &Request, wire: &mut Vec<u8>) {
        match req {
            Request::Query(attrs) => self.query_frame(attrs, wire),
            Request::QueryBatch(queries) => {
                let mut body = Vec::new();
                begin_batch(queries.len(), &mut body);
                for attrs in queries {
                    self.query_frame(attrs, &mut body);
                }
                frame(&body, wire);
            }
            other => frame(&encode_response(&self.handle(other)), wire),
        }
    }
}

/// One shard's answer to a query: its sink, its stats, and which of the
/// requested attributes it knows.
type Leg<S> = Result<(S, QueryStats, Vec<bool>), ServerError>;

/// Leg `i` of a query as a job for a standing worker. It scans, lets go of
/// the engine, raises the worker's idle signal and only then answers: the
/// caller, which holds its own handle until every leg has answered, drops
/// the last engine handle, and its next query finds the worker idle.
fn leg_job<S: RowSink + 'static>(
    engine: Arc<Engine>,
    attrs: Arc<[String]>,
    i: usize,
    answer: Sender<(usize, Leg<S>)>,
) -> Job {
    Box::new(move |idle| {
        let leg = catch_unwind(AssertUnwindSafe(|| engine.query_leg::<S>(&attrs)))
            .unwrap_or_else(|_| {
                Err(ServerError::Internal("shard query worker panicked".to_string()))
            });
        drop(engine);
        idle();
        // The caller waits for every leg it handed out, so it is listening.
        let _ = answer.send((i, leg));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireEntity;
    use cind_model::Value;
    use cind_storage::record::RawValue;
    use cind_storage::StorageError;

    fn wire(id: u64, attrs: &[(&str, i64)]) -> WireEntity {
        WireEntity {
            id,
            attrs: attrs
                .iter()
                .map(|(n, v)| ((*n).to_string(), Value::Int(*v)))
                .collect(),
        }
    }

    fn opts(shards: usize) -> ShardedOptions {
        ShardedOptions::new(EngineOptions::default(), shards)
    }

    #[test]
    fn writes_route_and_queries_fan_out() {
        let eng = ShardedEngine::in_memory(opts(4));
        for id in 0..40u64 {
            let name = if id % 2 == 0 { "rpm" } else { "mp" };
            eng.insert(&wire(id, &[(name, id as i64)])).unwrap();
        }
        assert_eq!(eng.stats().entities, 40);
        let (rows, _) = eng.query(&["rpm".to_string()]).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(eng.validate().unwrap().is_empty());

        // Every shard actually holds something at this scale.
        for i in 0..eng.shard_count() {
            assert!(eng.shard_engine(i).stats().entities > 0, "shard {i} empty");
        }
    }

    #[test]
    fn insert_batch_matches_singles_and_reports_per_item_errors() {
        let singles = ShardedEngine::in_memory(opts(4));
        let batched = ShardedEngine::in_memory(opts(4));
        let wires: Vec<WireEntity> = (0..40u64)
            .map(|id| wire(id, &[(if id % 2 == 0 { "rpm" } else { "mp" }, id as i64)]))
            .collect();
        let expect: Vec<_> = wires.iter().map(|w| singles.insert(w).unwrap()).collect();
        let got = batched.insert_batch(&wires);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g.as_ref().unwrap(), e, "item {i} diverged from per-op insert");
        }
        assert_eq!(batched.stats().entities, singles.stats().entities);

        // A duplicate inside a batch fails that item alone.
        let dup = vec![wire(100, &[("rpm", 1)]), wire(100, &[("rpm", 2)]), wire(101, &[("mp", 3)])];
        let results = batched.insert_batch(&dup);
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "duplicate id must fail its item");
        assert!(results[2].is_ok());
        assert!(batched.validate().unwrap().is_empty());

        // Query batch: two legs, one unknown — per-item results.
        let legs = batched.query_batch(&[vec!["rpm".to_string()], vec!["ghost".to_string()]]);
        assert!(legs[0].is_ok());
        assert!(matches!(legs[1], Err(ServerError::UnknownAttribute(_))));
    }

    #[test]
    fn partially_unknown_attribute_projects_null() {
        let eng = ShardedEngine::in_memory(opts(8));
        // Find two ids on different shards; give them disjoint attributes.
        let a = 0u64;
        let b = (1..100u64).find(|&i| eng.shard_of(i) != eng.shard_of(a)).unwrap();
        eng.insert(&wire(a, &[("only_a", 1)])).unwrap();
        eng.insert(&wire(b, &[("only_b", 2)])).unwrap();
        // "only_a" is unknown on b's shard but known globally: no error.
        let (rows, _) = eng.query(&["only_a".to_string()]).unwrap();
        assert_eq!(rows, vec![vec![Some(Value::Int(1))]]);
        // Unknown everywhere: typed error, like the unsharded engine.
        match eng.query(&["ghost".to_string()]) {
            Err(ServerError::UnknownAttribute(a)) => assert_eq!(a, "ghost"),
            other => panic!("expected UnknownAttribute, got {other:?}"),
        }
    }

    #[test]
    fn durable_store_reopens_with_manifest_count() {
        let dir = std::env::temp_dir().join("cind_sharded_reopen");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let eng = ShardedEngine::open(&dir, opts(4)).unwrap();
            for id in 0..32u64 {
                eng.insert(&wire(id, &[("x", id as i64)])).unwrap();
            }
            eng.checkpoint().unwrap();
        }
        {
            // Ask for 2; the manifest's 4 wins.
            let eng = ShardedEngine::open(&dir, opts(2)).unwrap();
            assert_eq!(eng.shard_count(), 4);
            assert_eq!(eng.stats().entities, 32);
            assert!(eng.validate().unwrap().is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_layout_migrates_at_one_shard_and_refuses_more() {
        let dir = std::env::temp_dir().join("cind_sharded_legacy");
        let _ = std::fs::remove_dir_all(&dir);
        {
            // A pre-sharding store: files at the root, no manifest.
            let eng = Engine::open(&dir, EngineOptions::default()).unwrap();
            eng.insert(&wire(1, &[("rpm", 7200)])).unwrap();
            eng.checkpoint().unwrap();
        }
        match ShardedEngine::open(&dir, opts(4)) {
            Err(ServerError::Internal(msg)) => assert!(msg.contains("legacy")),
            Err(other) => panic!("expected legacy-layout refusal, got {other:?}"),
            Ok(_) => panic!("expected legacy-layout refusal, got an engine"),
        }
        {
            let eng = ShardedEngine::open(&dir, opts(1)).unwrap();
            assert_eq!(eng.stats().entities, 1);
            assert!(dir.join(shard_dir_name(0)).join(SNAPSHOT_FILE).exists());
            assert!(!dir.join(SNAPSHOT_FILE).exists());
        }
        {
            // And the migrated store reopens cleanly as a sharded one.
            let eng = ShardedEngine::open(&dir, opts(1)).unwrap();
            assert_eq!(eng.stats().entities, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handle_folds_errors_into_frames() {
        use crate::protocol::ErrorCode;
        let eng = ShardedEngine::in_memory(opts(1));
        let resp = eng.handle(&Request::Delete(99));
        assert!(matches!(resp, Response::Error { code: ErrorCode::Engine, .. }));
        let resp = eng.handle(&Request::Query(vec!["ghost".into()]));
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::UnknownAttribute, .. })
        );
    }

    #[test]
    fn reopen_shard_recovers_one_domain_in_place() {
        let dir = std::env::temp_dir().join("cind_sharded_reopen_one");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let eng = ShardedEngine::open(&dir, opts(2)).unwrap();
            for id in 0..16u64 {
                eng.insert(&wire(id, &[("x", id as i64)])).unwrap();
            }
            let before = eng.stats().entities;
            eng.reopen_shard(1).unwrap();
            assert_eq!(eng.stats().entities, before, "recovery must lose nothing");
            assert!(eng.validate().unwrap().is_empty());
            assert!(matches!(
                eng.reopen_shard(9),
                Err(ServerError::Internal(_))
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- standing leg workers -------------------------------------------

    /// Notes the thread its rows were gathered on.
    #[derive(Default)]
    struct Whereabouts(Option<std::thread::ThreadId>);

    impl RowSink for Whereabouts {
        fn row(&mut self, _: &[Option<RawValue<'_>>]) -> Result<(), StorageError> {
            self.0 = Some(std::thread::current().id());
            Ok(())
        }
    }

    /// Panics when a standing worker hands it a row; gathers nothing on
    /// the caller.
    #[derive(Default)]
    struct PanicsOnWorker;

    impl RowSink for PanicsOnWorker {
        fn row(&mut self, _: &[Option<RawValue<'_>>]) -> Result<(), StorageError> {
            let name = std::thread::current().name().map(str::to_string);
            assert!(!name.is_some_and(|n| n.starts_with("cind-leg-")), "a leg panics on its worker");
            Ok(())
        }
    }

    /// `shards` shards holding 64 entities with `x`, every shard some, and
    /// `workers` standing leg workers whatever this machine's CPU count.
    fn loaded(shards: usize, workers: usize) -> ShardedEngine {
        let mut eng = ShardedEngine::in_memory(opts(shards));
        eng.legs = LegWorkers::start(workers);
        for id in 0..64u64 {
            eng.insert(&wire(id, &[("x", id as i64)])).unwrap();
        }
        for i in 0..shards {
            assert!(eng.shard_engine(i).stats().entities > 0, "shard {i} empty");
        }
        eng
    }

    fn x() -> Vec<String> {
        vec!["x".to_string()]
    }

    #[test]
    fn a_panicking_leg_answers_internal_and_its_worker_survives() {
        let eng = loaded(2, 1);
        match eng.query_legs::<PanicsOnWorker>(&x()) {
            Err(ServerError::Internal(msg)) => assert_eq!(msg, "shard query worker panicked"),
            Err(other) => panic!("expected Internal, got {other:?}"),
            Ok(_) => panic!("expected Internal, got rows"),
        }
        // The same worker takes the next query's leg and answers it.
        let (legs, _) = eng.query_legs::<Whereabouts>(&x()).unwrap();
        let me = std::thread::current().id();
        assert_eq!(legs[0].0, Some(me));
        assert!(legs[1].0.is_some_and(|t| t != me), "leg 1 ran on the caller");
        assert_eq!(eng.query(&x()).unwrap().0.len(), 64);
    }

    #[test]
    fn a_leg_no_worker_takes_runs_on_the_caller_and_answers_the_same_bytes() {
        let eng = loaded(4, 1);
        let mut worker_free = Vec::new();
        eng.query_frame(&x(), &mut worker_free);

        // Hold the one worker busy: every leg finds no idle worker.
        let (release, held) = channel::<()>();
        assert!(eng.legs.offer(|| Box::new(move |idle| {
            let _ = held.recv();
            idle();
        })));
        let (legs, _) = eng.query_legs::<Whereabouts>(&x()).unwrap();
        let me = std::thread::current().id();
        assert!(legs.iter().all(|leg| leg.0 == Some(me)), "a leg waited for the busy worker");
        let mut worker_busy = Vec::new();
        eng.query_frame(&x(), &mut worker_busy);
        assert_eq!(worker_busy, worker_free);
        release.send(()).unwrap();
    }

    #[test]
    fn dropping_the_engine_joins_every_worker() {
        let eng = loaded(4, 3);
        let (legs, _) = eng.query_legs::<Whereabouts>(&x()).unwrap();
        let me = std::thread::current().id();
        assert!(legs[1..].iter().all(|leg| leg.0.is_some_and(|t| t != me)));
        let engines: Vec<_> = (0..4).map(|i| Arc::downgrade(&eng.shard_engine(i))).collect();
        let workers = eng.legs.watch();
        let t0 = std::time::Instant::now();
        drop(eng);
        assert!(t0.elapsed() < std::time::Duration::from_secs(1), "drop took {:?}", t0.elapsed());
        assert!(engines.iter().all(|e| e.upgrade().is_none()), "a leg kept its engine");
        assert!(workers.iter().all(|w| w.upgrade().is_none()), "a worker outlived the engine");

        // A worker still running a job is waited for, not detached.
        let eng = loaded(2, 1);
        let workers = eng.legs.watch();
        let (release, held) = channel::<()>();
        let (started, running) = channel::<()>();
        assert!(eng.legs.offer(|| Box::new(move |idle| {
            started.send(()).unwrap();
            let _ = held.recv();
            idle();
        })));
        running.recv().unwrap();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            release.send(()).unwrap();
        });
        drop(eng);
        assert!(workers.iter().all(|w| w.upgrade().is_none()), "the drop left a busy worker running");
        releaser.join().unwrap();
    }

    #[test]
    fn an_engine_holds_at_most_one_leg_thread_per_shard_past_the_first() {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        for shards in [1, 2, 4] {
            let want = if cpus == 1 { 0 } else { shards - 1 };
            assert_eq!(ShardedEngine::in_memory(opts(shards)).legs.len(), want);
        }

        // Eight callers at once: their legs spread over at most three
        // threads that are not callers.
        let eng = Arc::new(loaded(4, 3));
        let callers: Vec<_> = (0..8)
            .map(|_| {
                let eng = Arc::clone(&eng);
                std::thread::spawn(move || {
                    let me = std::thread::current().id();
                    let mut elsewhere = Vec::new();
                    for _ in 0..25 {
                        let (legs, _) = eng.query_legs::<Whereabouts>(&x()).unwrap();
                        elsewhere.extend(legs.iter().filter_map(|leg| leg.0).filter(|&t| t != me));
                    }
                    elsewhere
                })
            })
            .collect();
        let mut threads: Vec<_> = callers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        threads.sort_by_key(|t| format!("{t:?}"));
        threads.dedup();
        assert!(!threads.is_empty() && threads.len() <= 3, "{} leg threads", threads.len());
    }
}
