//! The [`Engine`] service object: one store behind single-writer /
//! epoch-snapshot-reader discipline.
//!
//! The engine owns the universal table and the Cinderella partitioner
//! inside one `RwLock`. Writes (insert / update / delete) take the write
//! lock — Algorithm 1 mutates the catalog and the table together, so
//! writes are inherently serial, exactly the paper's online setting.
//! Queries do **not** take that lock for the scan: every write bumps an
//! epoch counter, and a query grabs (or lazily rebuilds) the cached
//! [`EngineSnapshot`] for the current epoch — an owned copy-on-write
//! [`cind_storage::TableSnapshot`] plus the frozen pruning index — and
//! scans it entirely outside the engine lock. Rebuilding a snapshot takes
//! the read lock only for O(segments) reference-count bumps (no entity, no
//! attribute name and no page list is copied), so a query never blocks
//! writers for the duration of its scan, and a writer never blocks queries
//! at all once their snapshot is in hand.
//!
//! Durability: when opened on a store directory the engine replays
//! `wal.log` over the `store.cind` snapshot (tolerating a torn tail),
//! rebuilds the partitioner from storage, then *checkpoints* — writes a
//! fresh snapshot and truncates the log — so the WAL only ever holds the
//! suffix since the last clean open or graceful shutdown. The attached WAL
//! sink is a [`crate::commit::GroupCommit`] coordinator: a mutating call
//! submits its framed transaction group and then blocks until the group
//! it joined has been written *and fsynced* — concurrent writers share one
//! append + one sync per flush group (WAL group commit), and an acked
//! mutation is always durable. The log is opened with
//! [`Vfs::create_log`], so a group's write lands on zeroed bytes the file
//! already holds and its fsync does not also commit a new file size.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use std::collections::HashMap;

use cind_model::{AttrId, EntityId, ModelError};
use cind_query::{execute_into, plan_from_survivors, Projection, Query, RowSink};
use cind_reorg::{ReorgDriver, ReorgStats, StepReport};
use cind_storage::page::check_record_len;
use cind_storage::{wal, RealVfs, SegmentId, StorageError, TableSnapshot, UniversalTable, Vfs};
use cinderella_core::{
    validate::render, Cinderella, Config, CoreError, Incoming, IndexTier, InsertOutcome,
    MergeReport, PruningSnapshot, ReorgConfig,
};

use crate::commit::{GroupCommit, GroupSink, WalCounters};
use crate::protocol::{
    EngineStats, EntityView, ErrorCode, IoCounters, QueryStats, Response, WireCell, WireEntity,
};
use crate::{ServeConfig, ServerError};

/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "store.cind";
/// Write-ahead log file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// How to build an [`Engine`].
#[derive(Clone)]
pub struct EngineOptions {
    /// Partitioner configuration (weight, capacity, mode, …).
    pub config: Config,
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// How long a group-commit leader lingers gathering concurrent writers
    /// before flushing the group. `Duration::ZERO` flushes each group as
    /// soon as its leader arrives (per-op durability semantics; coalescing
    /// still happens when writers genuinely race the flush).
    pub group_commit_window: Duration,
    /// Filesystem backend for snapshot and WAL I/O. Defaults to the real
    /// filesystem; the simulation harness injects a deterministic
    /// fault-injecting backend here.
    pub vfs: Arc<dyn Vfs>,
}

impl std::fmt::Debug for EngineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineOptions")
            .field("config", &self.config)
            .field("pool_pages", &self.pool_pages)
            .field("group_commit_window", &self.group_commit_window)
            .field("vfs", &"<dyn Vfs>")
            .finish()
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self::from_serve(&ServeConfig::default())
    }
}

impl EngineOptions {
    /// Options matching a [`ServeConfig`]'s storage/query knobs.
    #[must_use]
    pub fn from_serve(cfg: &ServeConfig) -> Self {
        Self {
            config: Config {
                reorg: ReorgConfig { mode: cfg.reorg, ..ReorgConfig::default() },
                tier: cfg.tier,
                ..Config::default()
            },
            pool_pages: cfg.pool_pages.max(8),
            group_commit_window: Duration::from_micros(cfg.group_commit_window),
            vfs: Arc::new(RealVfs),
        }
    }
}

struct EngineState {
    table: UniversalTable,
    cindy: Cinderella,
    /// The commit coordinator for the *current* WAL generation (durable
    /// stores only). Replaced under the write lock at every checkpoint.
    commit: Option<Arc<GroupCommit>>,
    /// The write path's buffers, reused from entity to entity.
    scratch: WriteScratch,
}

/// What [`Engine::write_entity`] reuses across entities, so that once it has seen
/// its widest entity it allocates nothing for the sort or the encoding.
#[derive(Default)]
struct WriteScratch {
    /// `(attribute id, cell index)` per cell, sorted by attribute id.
    sorted: Vec<(AttrId, u32)>,
    /// The entity as Algorithm 1 and the table take it.
    incoming: Incoming,
}

/// Which write [`Engine::write_entity`] runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Write {
    Insert,
    Update,
}

/// An owned, immutable view of the engine at one write epoch: the table
/// snapshot plus the catalog's frozen pruning index captured at the same
/// instant. Queries plan and scan against this object with no engine lock
/// held.
pub struct EngineSnapshot {
    table: TableSnapshot,
    /// Shared from epoch to epoch for as long as the catalog's
    /// `attr_generation` reads `pruning_generation`: a write that gives no
    /// partition a new attribute (nor takes its last) leaves the frozen
    /// index as current as a fresh copy would be.
    pruning: Arc<PruningSnapshot>,
    pruning_generation: u64,
}

impl EngineSnapshot {
    /// The segments a query over `query` scans under this snapshot
    /// (ascending), plus the pruned-partition count — the same set the
    /// live catalog's `plan_survivors` returned at freeze time.
    #[must_use]
    pub fn survivors(&self, query: &Query) -> (Vec<SegmentId>, usize) {
        self.pruning.survivors(query.synopsis())
    }
}

/// One store (table + partitioner) behind the serving layer's locking
/// discipline. `Engine` is `Send + Sync`; wrap it in an `Arc` and share it
/// with [`crate::ShardedEngine`], which routes writes and fans out queries
/// across a set of engines.
pub struct Engine {
    state: RwLock<EngineState>,
    /// Bumped (under the write lock) by every write-path entry, including
    /// failed ones — a refused write changes nothing, but a failed merge
    /// or reorganizer step may have moved entities before its error, which
    /// a cached snapshot must not miss.
    epoch: AtomicU64,
    /// The newest snapshot built so far, keyed by the epoch it captured.
    /// Readers at the same epoch share one snapshot; the first reader
    /// after a write rebuilds it.
    snap_cache: Mutex<Option<(u64, Arc<EngineSnapshot>)>>,
    store: Option<PathBuf>,
    /// Group-commit gather window, passed to every coordinator generation.
    window: Duration,
    /// Cumulative WAL I/O counters, surviving checkpoint's coordinator
    /// replacement (the coordinator holds a clone of this `Arc`).
    wal_counters: Arc<WalCounters>,
    vfs: Arc<dyn Vfs>,
    /// The background reorganizer for this engine (one per shard), `None`
    /// when [`ReorgConfig::enabled`] is false: an off driver records
    /// nothing and never steps, so no query or write takes a lock for it.
    /// Heat recording locks this mutex *alone*; [`Engine::reorg_step`]
    /// locks it inside the state write lock — the only edge is state →
    /// reorg, so the lock-order graph stays acyclic. Driver state is
    /// advisory and in-memory: a reopened engine starts with a cold heat
    /// map, while the WAL-framed actions carry all durability.
    reorg: Option<Mutex<ReorgDriver>>,
}

/// The engine's reorganizer: a driver only when `cfg` lets it act.
fn reorg_driver(cfg: ReorgConfig) -> Option<Mutex<ReorgDriver>> {
    cfg.enabled().then(|| Mutex::new(ReorgDriver::new(cfg)))
}

impl Engine {
    /// A fresh in-memory engine (no durability). Useful for tests and the
    /// in-process benchmark harness.
    #[must_use]
    pub fn in_memory(opts: EngineOptions) -> Self {
        let reorg = reorg_driver(opts.config.reorg);
        Self {
            state: RwLock::new(EngineState {
                table: UniversalTable::new(opts.pool_pages),
                cindy: Cinderella::new(opts.config),
                commit: None,
                scratch: WriteScratch::default(),
            }),
            epoch: AtomicU64::new(0),
            snap_cache: Mutex::new(None),
            store: None,
            window: opts.group_commit_window,
            wal_counters: Arc::new(WalCounters::default()),
            vfs: opts.vfs,
            reorg,
        }
    }

    /// Opens (or creates) a durable store directory: restores the
    /// snapshot, replays the WAL suffix (discarding a torn tail), rebuilds
    /// the partitioner, checkpoints, and attaches a fresh WAL sink whose
    /// head records the new snapshot's epoch.
    ///
    /// The epoch gate: a log that names a snapshot generation other than
    /// the one on disk is *stale* — it was superseded by a later
    /// checkpoint whose own log replaced it — and is skipped rather than
    /// replayed into the wrong base. Epoch-less logs (pre-epoch format)
    /// are always replayed.
    ///
    /// # Errors
    /// I/O and persistence failures; [`ServerError::Core`] if the rebuilt
    /// store fails the partitioner's structural rebuild.
    pub fn open(dir: &Path, opts: EngineOptions) -> Result<Self, ServerError> {
        let vfs = opts.vfs.clone();
        vfs.create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let (mut table, snap_epoch) = if vfs.exists(&snapshot_path) {
            let (t, e) = UniversalTable::restore_from(&*vfs, &snapshot_path, opts.pool_pages)?;
            (t, Some(e))
        } else {
            (UniversalTable::new(opts.pool_pages), None)
        };
        if vfs.exists(&wal_path) {
            let bytes = vfs.read(&wal_path)?;
            let replayable = match wal::read_epoch(&bytes) {
                // Epoch-less legacy log: always belongs to this store.
                None => true,
                // Stamped log: only replay over the snapshot it extends.
                Some(epoch) => snap_epoch == Some(epoch),
            };
            if replayable {
                wal::replay(&mut table, &mut &bytes[..])?;
            }
        }
        let reorg = reorg_driver(opts.config.reorg);
        let cindy = Cinderella::rebuild(&table, opts.config)?;

        // Checkpoint: fold the replayed suffix into the snapshot and reset
        // the log, so recovery cost stays proportional to one session.
        let epoch = table.snapshot_to(&*vfs, &snapshot_path)?;
        let wal_file = vfs.create_log(&wal_path)?;
        let wal_counters = Arc::new(WalCounters::default());
        let commit = Arc::new(GroupCommit::new(
            wal_file,
            opts.group_commit_window,
            Arc::clone(&wal_counters),
        ));
        table.attach_wal(Box::new(GroupSink::new(Arc::clone(&commit))));
        table.wal_mark_epoch(epoch);

        Ok(Self {
            state: RwLock::new(EngineState {
                table,
                cindy,
                commit: Some(commit),
                scratch: WriteScratch::default(),
            }),
            epoch: AtomicU64::new(0),
            snap_cache: Mutex::new(None),
            store: Some(dir.to_path_buf()),
            window: opts.group_commit_window,
            wal_counters,
            vfs,
            reorg,
        })
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, EngineState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, EngineState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a mutation under the write lock and bumps the epoch before the
    /// lock is released — success or failure, since a failed merge or
    /// reorganizer step may have moved entities. Durable stores
    /// then wait *outside* the lock for the group-commit coordinator to
    /// make the mutation's WAL group durable, so the lock is free for the
    /// next writer while this one's group is being fsynced.
    fn write_op<T>(
        &self,
        f: impl FnOnce(&mut EngineState) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let mut state = self.write();
        let result = f(&mut state);
        self.epoch.fetch_add(1, Ordering::Release);
        let pending = state.commit.as_ref().map(|c| (Arc::clone(c), c.ticket()));
        drop(state);
        if let Some((commit, ticket)) = pending {
            if let Err(kind) = commit.wait_durable(ticket) {
                // A durability failure outranks a clean in-memory result:
                // never ack what the log cannot replay.
                return result.and(Err(wal_error(kind)));
            }
        }
        result
    }

    /// The snapshot for the current write epoch, shared with every other
    /// reader at the same epoch. Rebuilding after a write holds the read
    /// lock only for the clone, never for a scan.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        let epoch = self.epoch.load(Ordering::Acquire);
        let previous = {
            let cache = self.snap_cache.lock().unwrap_or_else(PoisonError::into_inner);
            match &*cache {
                Some((cached_epoch, snap)) if *cached_epoch == epoch => return Arc::clone(snap),
                stale => stale.as_ref().map(|(_, snap)| Arc::clone(snap)),
            }
        };
        let state = self.read();
        // Re-read under the read lock: no writer is active now, so the
        // clone below observes everything up to this epoch.
        let epoch = self.epoch.load(Ordering::Acquire);
        let catalog = state.cindy.catalog();
        let pruning_generation = catalog.attr_generation();
        let pruning = match &previous {
            Some(p) if p.pruning_generation == pruning_generation => Arc::clone(&p.pruning),
            _ => Arc::new(catalog.freeze()),
        };
        let snap = Arc::new(EngineSnapshot {
            table: state.table.freeze(),
            pruning,
            pruning_generation,
        });
        drop(state);
        let superseded = {
            let mut cache = self.snap_cache.lock().unwrap_or_else(PoisonError::into_inner);
            match &*cache {
                // A concurrent reader may have cached an even fresher epoch.
                Some((cached_epoch, _)) if *cached_epoch >= epoch => None,
                _ => cache.replace((epoch, Arc::clone(&snap))),
            }
        };
        // The cache may have held the last reference: tear the old epoch
        // down only now, with the mutex released, so no other leg's reader
        // queues behind the deallocation.
        drop(superseded);
        snap
    }

    /// The one write path, under the write lock: `view`'s names resolved
    /// by lookup, its cells sorted by attribute id in reused scratch, its
    /// record and signature encoded once, then Algorithm 1
    /// ([`Cinderella::insert_encoded`] / [`Cinderella::update_encoded`]).
    /// A name the catalog does not know is given the id interning would
    /// give it and is interned only once nothing can refuse the write — a
    /// repeated name, a stored (or, for an update, a missing) id, a record
    /// no page holds — so a refused write changes nothing, the catalog
    /// included. Returns `(segment, split?)`.
    fn write_entity(
        state: &mut EngineState,
        view: &EntityView<'_>,
        kind: Write,
    ) -> Result<(u32, bool), ServerError> {
        let EngineState { table, cindy, scratch, .. } = state;
        let WriteScratch { sorted, incoming } = scratch;
        let id = EntityId(view.id);
        let known = table.catalog().len();
        let mut unseen: Vec<&str> = Vec::new();
        let mut fresh: HashMap<&str, AttrId> = HashMap::new();
        sorted.clear();
        for (i, &(name, _)) in view.cells.iter().enumerate() {
            let attr = table.catalog().lookup(name).unwrap_or_else(|| {
                *fresh.entry(name).or_insert_with(|| {
                    unseen.push(name);
                    AttrId((known + unseen.len() - 1) as u32)
                })
            });
            sorted.push((attr, i as u32));
        }
        sorted.sort_unstable_by_key(|&(attr, _)| attr);
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            let attr = pair[0].0;
            return Err(CoreError::Model(ModelError::DuplicateEntityAttribute { entity: id, attr }).into());
        }
        let cells = sorted.iter().map(|&(attr, i)| (attr, view.cells[i as usize].1));
        incoming.encode(id, known + unseen.len(), cindy.config().size_model, cells);
        // One WAL group around the write, the core's own nesting into it:
        // a write refused below closes it empty, as one the core refuses
        // does.
        table.wal_txn_begin();
        let result = (|| -> Result<InsertOutcome, ServerError> {
            if !unseen.is_empty() {
                // The core refuses these without changing anything;
                // interning would change the catalog first, so they are
                // asked here.
                let refusal = match kind {
                    Write::Insert => table.admits(id, incoming.record()),
                    Write::Update => table
                        .location(id)
                        .ok_or(StorageError::NoSuchEntity(id))
                        .and_then(|_| check_record_len(incoming.record())),
                };
                refusal.map_err(CoreError::from)?;
                for name in unseen {
                    table.catalog_mut().intern(name);
                }
            }
            Ok(match kind {
                Write::Insert => cindy.insert_encoded(table, incoming)?,
                Write::Update => cindy.update_encoded(table, incoming)?,
            })
        })();
        let outcome = match table.wal_txn_commit() {
            Ok(()) => result,
            Err(e) => result.and(Err(CoreError::from(e).into())),
        }?;
        let seg = match outcome {
            InsertOutcome::Inserted(seg) | InsertOutcome::NewPartition(seg) => seg.0,
            InsertOutcome::Split { .. } => table.location(id).map_or(0, |seg| seg.0),
        };
        Ok((seg, outcome.is_split()))
    }

    /// Runs one write through [`Self::write_entity`] as its own write-lock
    /// acquisition and durability wait, then the reorganizer's cadence.
    fn write_one(&self, view: &EntityView<'_>, kind: Write) -> Result<(u32, bool), ServerError> {
        let out = self.write_op(|state| Self::write_entity(state, view, kind))?;
        self.after_write()?;
        Ok(out)
    }

    /// Inserts an entity; returns `(segment, split?)`. An adapter that
    /// lends `wire`'s cells to `Self::insert_view`.
    ///
    /// # Errors
    /// As `Self::insert_view`.
    pub fn insert(&self, wire: &WireEntity) -> Result<(u32, bool), ServerError> {
        let cells: Vec<WireCell<'_>> = wire.cells().collect();
        self.insert_view(&EntityView { id: wire.id, cells: &cells })
    }

    /// Inserts an entity read in place; returns `(segment, split?)`.
    ///
    /// # Errors
    /// Duplicate ids or attribute names, records larger than a page,
    /// storage failures. A refused insert changes nothing.
    pub(crate) fn insert_view(&self, view: &EntityView<'_>) -> Result<(u32, bool), ServerError> {
        self.write_one(view, Write::Insert)
    }

    /// Inserts a batch of entities under **one** writer-lock acquisition
    /// and **one** group-commit durability wait: each entity still runs the
    /// full Algorithm 1 placement and logs its own WAL transaction group
    /// (so the log is byte-identical to the same inserts issued one by
    /// one), but the per-op fixed costs — lock handoff, coordinator
    /// wakeup, fsync — are paid once per batch.
    ///
    /// Per-item results in request order. If the shared durability wait
    /// fails, every item that succeeded in memory is converted to that
    /// error: nothing is acked that the log cannot replay.
    pub(crate) fn insert_many(&self, views: &[EntityView<'_>]) -> Vec<Result<(u32, bool), ServerError>> {
        let mut guard = self.write();
        let state = &mut *guard;
        let mut results: Vec<Result<(u32, bool), ServerError>> =
            views.iter().map(|view| Self::write_entity(state, view, Write::Insert)).collect();
        self.epoch.fetch_add(1, Ordering::Release);
        let pending = state.commit.as_ref().map(|c| (Arc::clone(c), c.ticket()));
        drop(guard);
        if let Some((commit, ticket)) = pending {
            if let Err(kind) = commit.wait_durable(ticket) {
                for r in &mut results {
                    if r.is_ok() {
                        *r = Err(wal_error(kind));
                    }
                }
            }
        }
        // Feed the batch into the reorganizer's cadence clock but defer any
        // due step to the next single-op entry point: per-item results are
        // already sealed, so a step failure here would have no honest place
        // to surface.
        if let Some(reorg) = &self.reorg {
            let mut driver = reorg.lock().unwrap_or_else(PoisonError::into_inner);
            for r in &results {
                if r.is_ok() {
                    driver.record_write();
                }
            }
        }
        results
    }

    /// Replaces a stored entity; returns `(segment, split?)`. An adapter
    /// that lends `wire`'s cells to `Self::update_view`.
    ///
    /// # Errors
    /// As `Self::update_view`.
    pub fn update(&self, wire: &WireEntity) -> Result<(u32, bool), ServerError> {
        let cells: Vec<WireCell<'_>> = wire.cells().collect();
        self.update_view(&EntityView { id: wire.id, cells: &cells })
    }

    /// Replaces a stored entity with one read in place; returns
    /// `(segment, split?)`.
    ///
    /// # Errors
    /// Unknown ids, duplicate attribute names, records larger than a page,
    /// storage failures. A refused update changes nothing.
    pub(crate) fn update_view(&self, view: &EntityView<'_>) -> Result<(u32, bool), ServerError> {
        self.write_one(view, Write::Update)
    }

    /// Deletes an entity by id.
    ///
    /// # Errors
    /// Unknown ids, storage failures.
    pub fn delete(&self, id: u64) -> Result<(), ServerError> {
        self.write_op(|state| {
            state.cindy.delete(&mut state.table, EntityId(id))?;
            Ok(())
        })?;
        self.after_write()
    }

    /// One leg of a sharded fan-out query: requested attributes this
    /// shard's catalog does not know project as NULL columns instead of
    /// erroring, and the returned rows are at the *full* requested width in
    /// request order. `known[i]` reports whether this shard recognises
    /// `attrs[i]`. A leg never fails a request over an unknown attribute:
    /// the sharded engine does, before any leg runs, when *no* shard's
    /// catalog knows it.
    ///
    /// # Errors
    /// Storage failures from the scan.
    pub fn query_subset(
        &self,
        attrs: &[String],
    ) -> Result<(Vec<crate::client::Row>, QueryStats, Vec<bool>), ServerError> {
        self.query_leg(attrs)
    }

    /// Whether this shard's catalog has an attribute of this name. Catalogs
    /// only grow, so a `true` still holds for every later snapshot.
    pub(crate) fn knows(&self, attr: &str) -> bool {
        self.read().table.catalog().lookup(attr).is_some()
    }

    /// [`Engine::query_subset`] with the rows handed to an `S` instead of
    /// materialised — the server's network path scans into
    /// [`crate::protocol::WireRows`].
    ///
    /// Planning and the scan run on the epoch snapshot, entirely outside
    /// the engine lock. The survivor set is computed once: the
    /// reorganizer's heat map records exactly the segments the plan then
    /// scans (a partition heats when it survives pruning). Heat recording
    /// locks the reorg mutex *alone*, and only when the reorganizer is on;
    /// queries never trigger a step themselves, so the read path stays
    /// write-lock-free.
    ///
    /// # Errors
    /// Storage failures from the scan or the sink.
    pub(crate) fn query_leg<S: RowSink>(
        &self,
        attrs: &[String],
    ) -> Result<(S, QueryStats, Vec<bool>), ServerError> {
        let snap = self.snapshot();
        let catalog = snap.table.catalog();
        let ids: Vec<Option<cind_model::AttrId>> =
            attrs.iter().map(|a| catalog.lookup(a)).collect();
        let known: Vec<bool> = ids.iter().map(Option::is_some).collect();
        // Nothing requested exists here: no entity of this shard can match
        // (matching needs at least one requested attribute).
        if !known.contains(&true) {
            return Ok((S::default(), QueryStats::default(), known));
        }
        let query = Query::from_attrs(catalog.len(), ids.iter().copied().flatten());
        let (survivors, pruned) = snap.survivors(&query);
        if let Some(reorg) = &self.reorg {
            reorg
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_query(query.synopsis(), survivors.iter().copied());
        }
        let plan = plan_from_survivors(survivors, pruned);
        // Project at the request's width, so rows leave the scan final.
        let projection = Projection::new(ids.iter().copied());
        let (result, rows) = execute_into(snap.table.view(), &projection, &plan)?;
        Ok((rows, QueryStats::from(&result), known))
    }

    /// Advances the reorganizer's cadence clock after a committed mutation
    /// and runs one background step when the configured epoch has elapsed.
    /// Takes no lock when the reorganizer is off.
    fn after_write(&self) -> Result<(), ServerError> {
        let Some(reorg) = &self.reorg else { return Ok(()) };
        let due = reorg.lock().unwrap_or_else(PoisonError::into_inner).record_write();
        if due {
            self.reorg_step()?;
        }
        Ok(())
    }

    /// Runs one bounded background reorganization step: under the writer
    /// lock the driver prices candidate actions against the decayed
    /// workload and enacts at most one that clears the hysteresis bar; the
    /// durability wait happens outside the lock like any other write. With
    /// the reorganizer off it returns the default report and takes no
    /// lock, bumps no epoch and waits on nothing.
    ///
    /// # Errors
    /// Storage failures from the enacted action's moves; WAL durability
    /// failures — the same fault class as a foreground write, and every
    /// action is WAL-framed as one transaction, so recovery lands on the
    /// pre- or post-action state.
    pub fn reorg_step(&self) -> Result<StepReport, ServerError> {
        let Some(reorg) = &self.reorg else {
            return Ok(StepReport::default());
        };
        self.write_op(|state| {
            let mut driver = reorg.lock().unwrap_or_else(PoisonError::into_inner);
            Ok(driver.step(&mut state.table, &mut state.cindy)?)
        })
    }

    /// Cumulative reorganizer counters (steps, enacted actions, entities
    /// moved); all zero while the reorganizer is off.
    #[must_use]
    pub fn reorg_stats(&self) -> ReorgStats {
        self.reorg.as_ref().map_or_else(ReorgStats::default, |reorg| {
            reorg.lock().unwrap_or_else(PoisonError::into_inner).stats()
        })
    }

    /// The decayed scan heat the reorganizer currently holds for `seg`: one
    /// per query that planned a scan of it (always 0 while the reorganizer
    /// is off).
    #[must_use]
    pub fn partition_heat(&self, seg: SegmentId) -> u64 {
        self.reorg.as_ref().map_or(0, |reorg| {
            reorg.lock().unwrap_or_else(PoisonError::into_inner).heat().heat(seg)
        })
    }

    /// Runs `f` with shared read access to the table and partitioner —
    /// the in-process escape hatch for measurements that have no wire
    /// representation (e.g. Definition-1 efficiency in the differential
    /// test, workload replay in the benchmark harness).
    pub fn with_parts<T>(&self, f: impl FnOnce(&UniversalTable, &Cinderella) -> T) -> T {
        let state = self.read();
        f(&state.table, &state.cindy)
    }

    /// Swaps in the table `f` makes of the current one, as a write (the
    /// epoch moves, so the next reader freezes the new table). How a test
    /// puts a damaged page under a live server; segment ids and membership
    /// must be kept, or the partitioner's catalog no longer describes it.
    #[cfg(test)]
    pub(crate) fn replace_table(&self, f: impl FnOnce(&UniversalTable) -> UniversalTable) {
        let mut state = self.write();
        state.table = f(&state.table);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Engine-wide counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let state = self.read();
        let io = state.table.io_stats();
        EngineStats {
            entities: state.table.entity_count() as u64,
            partitions: state.cindy.catalog().len() as u64,
            attributes: state.table.catalog().len() as u64,
            logical_reads: io.logical_reads,
            physical_reads: io.physical_reads,
            page_writes: io.page_writes,
            evictions: io.evictions,
        }
    }

    /// Runs the full structural validation; one rendered line per
    /// violation (empty = all invariants hold).
    ///
    /// # Errors
    /// Storage failures from the validation scans.
    pub fn validate(&self) -> Result<Vec<String>, ServerError> {
        let state = self.read();
        let violations = state.cindy.validate(&state.table)?;
        if violations.is_empty() {
            Ok(Vec::new())
        } else {
            Ok(render(&violations).lines().map(str::to_string).collect())
        }
    }

    /// Drains the WAL through the commit coordinator — everything logged
    /// so far is on disk when this returns (no-op for in-memory engines).
    ///
    /// # Errors
    /// The sink's sticky I/O failure, if appends or group flushes have
    /// been failing.
    pub fn flush_wal(&self) -> Result<(), ServerError> {
        self.write().table.flush_wal()?;
        Ok(())
    }

    /// Cumulative WAL I/O counters (appends, fsyncs, flush groups, ops) —
    /// the observability surface the `serve_hotpath` bench uses to prove
    /// the group-commit amortisation. Net counters are zero here; the
    /// server layer fills them in.
    #[must_use]
    pub fn io_counters(&self) -> IoCounters {
        self.wal_counters.snapshot()
    }

    /// Writes a fresh snapshot and truncates the WAL (durable stores
    /// only). Called by graceful shutdown after the drain.
    ///
    /// If any step past the flush fails, the *current* sink is poisoned
    /// ([`UniversalTable::fail_wal`]): the snapshot/log pairing is now
    /// unknown, and entries silently appended to the old-generation log
    /// would be skipped by recovery as stale. Poisoning makes the next
    /// mutation fail loudly instead, forcing the caller to reopen.
    ///
    /// # Errors
    /// I/O and persistence failures.
    // audit:allow(A009, shutdown-only path — the write lock must span the snapshot and WAL swap so no mutation can interleave with the generation change)
    pub fn checkpoint(&self) -> Result<(), ServerError> {
        let Some(dir) = &self.store else { return Ok(()) };
        let mut state = self.write();
        state.table.flush_wal()?;
        let epoch = match state.table.snapshot_to(&*self.vfs, &dir.join(SNAPSHOT_FILE)) {
            Ok(epoch) => epoch,
            Err(e) => {
                state.table.fail_wal(persist_error_kind(&e));
                return Err(e.into());
            }
        };
        let wal_file = match self.vfs.create_log(&dir.join(WAL_FILE)) {
            Ok(f) => f,
            Err(e) => {
                state.table.fail_wal(e.kind());
                return Err(e.into());
            }
        };
        // A fresh coordinator for the fresh log generation; the counters
        // Arc carries the cumulative totals across the swap. The old
        // coordinator was fully drained above (we hold the write lock, so
        // no new submissions can have raced in).
        let commit = Arc::new(GroupCommit::new(
            wal_file,
            self.window,
            Arc::clone(&self.wal_counters),
        ));
        state.table.attach_wal(Box::new(GroupSink::new(Arc::clone(&commit))));
        state.table.wal_mark_epoch(epoch);
        state.commit = Some(commit);
        Ok(())
    }

    /// Switches the pruning-index tier at runtime. Takes the write lock
    /// and bumps the epoch so the next reader freezes a snapshot of the
    /// new index; the switch is in-memory index state only (rebuilt from
    /// the catalog's refcounts), so nothing is WAL-framed.
    pub fn set_index_tier(&self, tier: IndexTier) {
        let mut state = self.write();
        state.cindy.set_index_tier(tier);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Whether the tiered pruning index is currently active.
    #[must_use]
    pub fn tier_active(&self) -> bool {
        self.read().cindy.catalog().tier_active()
    }

    /// Runs one partition merge pass at `threshold`. Takes the write lock —
    /// merges move entities and drop segments, the same churn class as
    /// splits.
    ///
    /// # Errors
    /// [`CoreError::MergeThreshold`] for a threshold outside `(0, 1]`;
    /// storage failures from the moves; WAL failures from the logged
    /// mutations.
    pub fn merge_pass(&self, threshold: f64) -> Result<MergeReport, ServerError> {
        self.write_op(|state| {
            let report = state.cindy.merge_pass(&mut state.table, threshold)?;
            Ok(report)
        })
    }
}

/// A write's answer: `Written`, or its typed error.
pub(crate) fn written(result: Result<(u32, bool), ServerError>) -> Response {
    to_frame(result.map(|(segment, split)| Response::Written { segment, split }))
}

/// Folds an error into a typed error frame (the shared tail of every
/// dispatch path, including per-item batch results).
pub(crate) fn to_frame(result: Result<Response, ServerError>) -> Response {
    result.unwrap_or_else(|e| Response::Error {
        code: error_code(&e),
        message: e.to_string(),
    })
}

/// The server-layer shape of a group-commit durability failure: the same
/// sticky `WalAppend` the per-op sink produced, so every existing recovery
/// path (sim fault classification included) applies unchanged.
fn wal_error(kind: std::io::ErrorKind) -> ServerError {
    ServerError::Storage(StorageError::WalAppend(kind))
}

pub(crate) fn error_code(e: &ServerError) -> ErrorCode {
    match e {
        ServerError::UnknownAttribute(_) => ErrorCode::UnknownAttribute,
        ServerError::Storage(_) | ServerError::Core(_) => ErrorCode::Engine,
        ServerError::Protocol(_) => ErrorCode::Malformed,
        ServerError::ShuttingDown => ErrorCode::ShuttingDown,
        _ => ErrorCode::Internal,
    }
}

/// The I/O error kind to poison the WAL sink with when a persistence step
/// fails (non-I/O persistence failures map to `Other`).
fn persist_error_kind(e: &cind_storage::PersistError) -> std::io::ErrorKind {
    match e {
        cind_storage::PersistError::Io(io) => io.kind(),
        _ => std::io::ErrorKind::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::Value;

    fn wire(id: u64, attrs: &[(&str, i64)]) -> WireEntity {
        WireEntity {
            id,
            attrs: attrs
                .iter()
                .map(|(n, v)| ((*n).to_string(), Value::Int(*v)))
                .collect(),
        }
    }

    #[test]
    fn insert_query_delete_roundtrip_in_memory() {
        let eng = Engine::in_memory(EngineOptions::default());
        eng.insert(&wire(1, &[("rpm", 7200)])).unwrap();
        eng.insert(&wire(2, &[("mp", 12)])).unwrap();
        let (rows, stats, _) = eng.query_subset(&["rpm".to_string()]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Some(Value::Int(7200)));
        assert_eq!(stats.segments_pruned + stats.segments_read, 2);
        eng.delete(1).unwrap();
        let s = eng.stats();
        assert_eq!(s.entities, 1);
        assert!(eng.validate().unwrap().is_empty());
    }

    #[test]
    fn unknown_attribute_is_reported_not_scanned() {
        let eng = Engine::in_memory(EngineOptions::default());
        eng.insert(&wire(1, &[("rpm", 7200)])).unwrap();
        let (rows, stats, known) = eng.query_subset(&["nope".to_string()]).unwrap();
        assert!(rows.is_empty());
        assert_eq!((stats, known), (QueryStats::default(), vec![false]));
    }

    #[test]
    fn a_refreeze_shares_the_pruning_index_until_the_attribute_space_moves() {
        let eng = Engine::in_memory(EngineOptions::default());
        eng.insert(&wire(1, &[("rpm", 7200)])).unwrap();
        let a = eng.snapshot();
        assert!(Arc::ptr_eq(&a, &eng.snapshot()), "no write, same epoch");
        // A second member of the same partition, same attribute: a new
        // epoch and a new table snapshot over the index frozen for the last.
        eng.insert(&wire(2, &[("rpm", 5400)])).unwrap();
        let b = eng.snapshot();
        assert!(!Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a.pruning, &b.pruning));
        assert_eq!((a.table.entity_count(), b.table.entity_count()), (1, 2));
        // A partition's first "mp", then the tier knob: each refreezes it.
        eng.insert(&wire(3, &[("mp", 12)])).unwrap();
        let c = eng.snapshot();
        assert!(!Arc::ptr_eq(&b.pruning, &c.pruning));
        eng.set_index_tier(IndexTier::Tiered);
        let d = eng.snapshot();
        assert!(!Arc::ptr_eq(&c.pruning, &d.pruning));
        for attr in ["rpm", "mp"] {
            let (rows, ..) = eng.query_subset(&[attr.to_string()]).unwrap();
            assert_eq!(rows.len(), if attr == "rpm" { 2 } else { 1 });
        }
        // The last member gone takes the attribute out of the index again.
        eng.delete(3).unwrap();
        assert!(!Arc::ptr_eq(&d.pruning, &eng.snapshot().pruning));
    }

    #[test]
    fn an_off_reorganizer_step_leaves_the_snapshot_epoch_alone() {
        let eng = Engine::in_memory(EngineOptions::default());
        eng.insert(&wire(1, &[("rpm", 7200)])).unwrap();
        let before = eng.snapshot();
        eng.reorg_step().unwrap();
        assert!(Arc::ptr_eq(&before, &eng.snapshot()), "no write, same epoch");
    }

    #[test]
    fn an_out_of_range_merge_threshold_is_the_core_error() {
        let eng = Engine::in_memory(EngineOptions::default());
        eng.insert(&wire(1, &[("rpm", 7200)])).unwrap();
        for threshold in [0.0, 1.5, f64::NAN] {
            assert!(
                matches!(
                    eng.merge_pass(threshold),
                    Err(ServerError::Core(CoreError::MergeThreshold))
                ),
                "{threshold}"
            );
        }
        assert_eq!(eng.merge_pass(1.0).unwrap().kept, 1);
    }

    #[test]
    fn tiered_engine_answers_match_exact() {
        let tiered_opts = EngineOptions {
            config: Config { tier: IndexTier::Tiered, ..Config::default() },
            ..EngineOptions::default()
        };
        let exact = Engine::in_memory(EngineOptions::default());
        let tiered = Engine::in_memory(tiered_opts);
        for id in 0..200u64 {
            let w = wire(id, &[(["rpm", "mp", "ghz", "kg"][id as usize % 4], id as i64)]);
            exact.insert(&w).unwrap();
            tiered.insert(&w).unwrap();
        }
        assert!(tiered.tier_active());
        assert!(!exact.tier_active());
        for attr in ["rpm", "mp", "ghz", "kg"] {
            let (mut a, _, _) = exact.query_subset(&[attr.to_string()]).unwrap();
            let (mut b, _, _) = tiered.query_subset(&[attr.to_string()]).unwrap();
            a.sort_by_key(|row| format!("{row:?}"));
            b.sort_by_key(|row| format!("{row:?}"));
            assert_eq!(a, b, "{attr}: tiered answers must match exact");
        }
        assert!(tiered.validate().unwrap().is_empty());

        // Runtime switch back to exact keeps serving and validating.
        tiered.set_index_tier(IndexTier::Exact);
        assert!(!tiered.tier_active());
        let (rows, _, _) = tiered.query_subset(&["rpm".to_string()]).unwrap();
        assert_eq!(rows.len(), 50);
        assert!(tiered.validate().unwrap().is_empty());
    }

    #[test]
    fn open_checkpoint_reopen_preserves_data() {
        let dir = std::env::temp_dir().join("cind_server_engine_reopen");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let eng = Engine::open(&dir, EngineOptions::default()).unwrap();
            eng.insert(&wire(1, &[("rpm", 7200)])).unwrap();
            eng.insert(&wire(2, &[("mp", 12)])).unwrap();
            eng.checkpoint().unwrap();
        }
        {
            let eng = Engine::open(&dir, EngineOptions::default()).unwrap();
            assert_eq!(eng.stats().entities, 2);
            assert!(eng.validate().unwrap().is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_only_suffix_survives_reopen() {
        let dir = std::env::temp_dir().join("cind_server_engine_walonly");
        let _ = std::fs::remove_dir_all(&dir);
        {
            // No checkpoint: drop with entities only in the WAL.
            let eng = Engine::open(&dir, EngineOptions::default()).unwrap();
            eng.insert(&wire(7, &[("rpm", 7200)])).unwrap();
        }
        {
            let eng = Engine::open(&dir, EngineOptions::default()).unwrap();
            assert_eq!(eng.stats().entities, 1);
            assert!(eng.validate().unwrap().is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
