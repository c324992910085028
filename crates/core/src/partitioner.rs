//! Algorithm 1 and the modification routines (§III).

use std::time::Instant;

use cind_model::{Entity, EntityId, Synopsis};
use cind_storage::{SegmentId, StorageError, UniversalTable};

use crate::catalog::PartitionCatalog;
use crate::config::Config;
use crate::events::{InsertEvent, InsertOutcome, Stats};
use crate::validate::InvariantViolation;
use crate::CoreError;

/// The Cinderella online partitioner.
///
/// Owns the partition catalog and the configuration; operates on a
/// [`UniversalTable`] passed to each call (policy and mechanism stay
/// separate, so baselines can drive the same table type).
///
/// The three modification routines:
///
/// * [`insert`](Cinderella::insert) — Algorithm 1 verbatim, including the
///   starter update before the capacity check and the split procedure.
/// * [`delete`](Cinderella::delete) — removes the entity; empty partitions
///   are dropped; the partitioning is otherwise untouched.
/// * [`update`](Cinderella::update) — re-runs the rating scan "without
///   actually inserting"; moves the entity only if a different partition
///   wins (or the rating went negative), else updates in place.
///
/// One clarification over the paper's pseudocode: in Algorithm 1 the
/// triggering entity `e` is never explicitly added to either new partition
/// unless it became a split starter. We read the intent as "`e` takes part
/// in the split like a member": seeds move first, then the remaining members
/// *and `e`* are re-inserted restricted to the two new partitions.
pub struct Cinderella {
    config: Config,
    catalog: PartitionCatalog,
    stats: Stats,
    events: Vec<InsertEvent>,
}

impl Cinderella {
    /// Creates a partitioner with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`Config::validate`]).
    pub fn new(config: Config) -> Self {
        config.assert_valid();
        let catalog = PartitionCatalog::with_mode(config.mode.clone(), config.tier);
        Self { config, catalog, stats: Stats::default(), events: Vec::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The partition catalog (read-only).
    pub fn catalog(&self) -> &PartitionCatalog {
        &self.catalog
    }

    /// Switches the index tier at runtime (exact ↔ tiered, or arming the
    /// `auto` ratchet). Partitioning decisions and query answers are
    /// unaffected — only the index representation changes.
    pub fn set_index_tier(&mut self, tier: crate::config::IndexTier) {
        self.config.tier = tier;
        self.catalog.set_tier(tier);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Recorded insert events (empty unless `record_events` is on).
    pub fn events(&self) -> &[InsertEvent] {
        &self.events
    }

    /// Drains the recorded insert events.
    pub fn take_events(&mut self) -> Vec<InsertEvent> {
        std::mem::take(&mut self.events)
    }

    /// Rebuilds a partitioner for an already-partitioned table — e.g. one
    /// restored from a snapshot (`cind-storage::persist`). Partition
    /// synopses, sizes, and split starters are derived by scanning each
    /// segment once; the starter pair is re-grown with the same incremental
    /// heuristic the online path uses, so behaviour after a rebuild matches
    /// a fresh process that saw the same entities.
    ///
    /// # Errors
    /// Storage errors from the scans; [`CoreError::Invariant`] if a segment
    /// is empty, which no Cinderella partition ever is.
    pub fn rebuild(table: &UniversalTable, config: Config) -> Result<Self, CoreError> {
        let mut cindy = Cinderella::new(config);
        for seg in table.segment_ids() {
            let members = cindy.members(table, seg)?;
            if members.is_empty() {
                return Err(CoreError::Invariant("every stored segment has a member"));
            }
            cindy.catalog.create_partition(seg);
            for (id, attrs, size) in members {
                cindy.catalog.add_entity(seg, id, &attrs, size, true);
            }
        }
        cindy.debug_validate_catalog();
        Ok(cindy)
    }

    /// Every stored member of `seg` as `(id, attribute synopsis, SIZE)`, in
    /// slot order: the one read of a partition that rebuild, validation,
    /// splits, merges, efficiency and the reorganizer share. Reading the
    /// whole partition is the split's dominant cost, as the paper notes; it
    /// shows up in the I/O counters like any scan.
    ///
    /// # Errors
    /// Storage errors from the scan.
    pub fn members(
        &self,
        table: &UniversalTable,
        seg: SegmentId,
    ) -> Result<Vec<(EntityId, Synopsis, u64)>, CoreError> {
        let mut out = Vec::with_capacity(table.segment(seg)?.record_count());
        table.scan(seg, |e| {
            let (attrs, size) = self.synopsis(table, e);
            out.push((e.id(), attrs, size));
        })?;
        Ok(out)
    }

    /// Mutable catalog access for the in-crate bulk/merge machinery.
    pub(crate) fn catalog_mut(&mut self) -> &mut PartitionCatalog {
        &mut self.catalog
    }

    /// Deep structural validation: the catalog's internal cross-checks
    /// ([`PartitionCatalog::validate`]) plus the entity-level laws that
    /// need storage — the catalog and the table agree on the segment set,
    /// every partition's synopses/size/entity-count equal what its stored
    /// members imply (the OR-of-members law via full refcount
    /// recomputation), the split starters are members with fresh cached
    /// synopses, and every page's signature column is what its records'
    /// bytes give ([`UniversalTable::validate_signatures`]). Scans every
    /// segment once; run it at rest (end of test, `cind check`), not on the
    /// hot path.
    ///
    /// # Errors
    /// Storage errors from the segment scans.
    pub fn validate(
        &self,
        table: &UniversalTable,
    ) -> Result<Vec<InvariantViolation>, CoreError> {
        let mut out = self.catalog.validate();
        out.extend(
            table
                .validate_signatures()
                .into_iter()
                .map(|detail| InvariantViolation::new("signature", detail)),
        );
        let table_segs: std::collections::BTreeSet<SegmentId> =
            table.segment_ids().collect();
        let catalog_segs: std::collections::BTreeSet<SegmentId> =
            self.catalog.iter().map(|m| m.segment).collect();
        for seg in catalog_segs.difference(&table_segs) {
            out.push(InvariantViolation::new(
                "table",
                format!("partition {seg} has no backing segment in the table"),
            ));
        }
        for seg in table_segs.difference(&catalog_segs) {
            out.push(InvariantViolation::new(
                "table",
                format!("segment {seg} is stored but not cataloged"),
            ));
        }
        let mut stored = 0usize;
        for &seg in catalog_segs.intersection(&table_segs) {
            let members = self.members(table, seg)?;
            for (id, ..) in &members {
                if table.location(*id) != Some(seg) {
                    out.push(InvariantViolation::new(
                        "table",
                        format!("entity {id:?} stored in {seg} but located elsewhere"),
                    ));
                }
            }
            stored += members.len();
            out.extend(self.catalog.validate_members(seg, &members));
        }
        if stored != table.entity_count() {
            out.push(InvariantViolation::new(
                "table",
                format!(
                    "segments store {stored} entities, table counts {}",
                    table.entity_count()
                ),
            ));
        }
        Ok(out)
    }

    /// Debug-build assertion of the catalog-internal invariants — the hook
    /// the structural boundaries (split, merge, bulk stitch, rebuild) call.
    /// Compiled to nothing in release builds.
    pub(crate) fn debug_validate_catalog(&self) {
        #[cfg(debug_assertions)]
        {
            let violations = self.catalog.validate();
            assert!(
                violations.is_empty(),
                "catalog invariants violated:\n{}",
                crate::validate::render(&violations)
            );
        }
    }

    /// Counts `n` inserts at once (segment adoption by the bulk loader).
    pub(crate) fn bump_inserts_by(&mut self, n: u64) {
        self.stats.inserts += n;
    }

    /// Builds `(attribute synopsis, SIZE(e))` for an entity against the
    /// table's current attribute universe — the one definition of both,
    /// stored members included (see [`Self::members`]). Its rating synopsis
    /// is `self.config.mode.rating_of` the former.
    fn synopsis(&self, table: &UniversalTable, entity: &Entity) -> (Synopsis, u64) {
        let attrs = entity.synopsis(table.universe());
        (attrs, self.config.size_model.entity_size(entity))
    }

    /// Closes the WAL transaction group opened around a partitioner
    /// operation. A commit failure outranks a clean result (the in-memory
    /// op applied but never reached the log); an op that already failed
    /// keeps its own error — the group it opened is dropped with it.
    fn finish_txn<T>(
        table: &mut UniversalTable,
        result: Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        match table.wal_txn_commit() {
            Ok(()) => result,
            Err(e) => result.and(Err(e.into())),
        }
    }

    /// Algorithm 1: inserts `entity`, adjusting the partitioning.
    ///
    /// The whole operation — including any split it triggers — is logged
    /// as one WAL transaction group, so recovery sees it entirely or not
    /// at all.
    ///
    /// # Errors
    /// [`StorageError::DuplicateEntity`] if the id is already stored; other
    /// storage errors from the layers below.
    pub fn insert(
        &mut self,
        table: &mut UniversalTable,
        entity: Entity,
    ) -> Result<InsertOutcome, CoreError> {
        table.wal_txn_begin();
        let result = self.insert_impl(table, entity);
        Self::finish_txn(table, result)
    }

    fn insert_impl(
        &mut self,
        table: &mut UniversalTable,
        entity: Entity,
    ) -> Result<InsertOutcome, CoreError> {
        if table.location(entity.id()).is_some() {
            return Err(StorageError::DuplicateEntity(entity.id()).into());
        }
        let t0 = Instant::now();
        let (attrs, size_e) = self.synopsis(table, &entity);
        let rating = self.config.mode.rating_of(&attrs);

        // Lines 3–7: scan the partition catalog for the best rating.
        let (best, ratings) =
            self.catalog
                .best_partition(&rating, size_e, self.config.weight);
        self.stats.ratings_computed += u64::from(ratings);

        let outcome = match best {
            // Lines 14–36: a partition rated non-negatively.
            Some((seg, r)) if r >= 0.0 => {
                // Lines 15–24: update the split starters *before* the
                // capacity check — the new entity may become a seed.
                self.catalog
                    .get_mut(seg)
                    .ok_or(CoreError::Invariant("best partition cataloged"))?
                    .starters
                    .offer(entity.id(), &rating);

                let meta = self
                    .catalog
                    .get(seg)
                    .ok_or(CoreError::Invariant("best partition cataloged"))?;
                if self
                    .config
                    .capacity
                    .would_overflow(meta.entities, meta.size, size_e)
                {
                    // Lines 26–33.
                    let into = self.split_partition(table, seg, Some(&entity))?;
                    self.stats.splits += 1;
                    InsertOutcome::Split { from: seg, into }
                } else {
                    // Line 36.
                    table.insert(seg, &entity)?;
                    self.catalog.add_entity(seg, entity.id(), &attrs, size_e, false);
                    InsertOutcome::Inserted(seg)
                }
            }
            // Lines 9–13: negative best rating (or empty catalog).
            _ => {
                let seg = table.create_segment();
                self.catalog.create_partition(seg);
                table.insert(seg, &entity)?;
                self.catalog.add_entity(seg, entity.id(), &attrs, size_e, true);
                self.stats.partitions_created += 1;
                InsertOutcome::NewPartition(seg)
            }
        };

        self.stats.inserts += 1;
        if self.config.record_events {
            self.events
                .push(InsertEvent { duration: t0.elapsed(), outcome, ratings });
        }
        Ok(outcome)
    }

    /// The split mechanics shared by the overflow split (lines 26–33, with
    /// an `incoming` entity that triggered it) and the reorganizer's
    /// [`Cinderella::resplit`] (no incoming entity): distribute the members
    /// of `seg` over two new partitions seeded by the split starters.
    fn split_partition(
        &mut self,
        table: &mut UniversalTable,
        seg: SegmentId,
        incoming: Option<&Entity>,
    ) -> Result<(SegmentId, SegmentId), CoreError> {
        // Resolve the starter pair *before* detaching the partition, so a
        // failed precondition leaves the catalog untouched. On the overflow
        // path the pair is complete by construction: the partition is
        // non-empty and the incoming entity was just offered, so at least
        // two distinct entities have passed through `offer`.
        let (seed_a, seed_b) = {
            let meta = self
                .catalog
                .get(seg)
                .ok_or(CoreError::Invariant("split candidate cataloged"))?;
            match (meta.starters.a(), meta.starters.b()) {
                (Some((a, _)), Some((b, _))) => (a, b),
                _ => return Err(CoreError::Invariant("starter pair present at split")),
            }
        };
        self.catalog.remove_partition(seg);

        let mut members = self.members(table, seg)?;
        members.extend(incoming.map(|e| {
            let (attrs, size) = self.synopsis(table, e);
            (e.id(), attrs, size)
        }));

        let seg_a = table.create_segment();
        let seg_b = table.create_segment();
        self.catalog.create_partition(seg_a);
        self.catalog.create_partition(seg_b);

        // Lines 29–30: seeds move first; lines 31–33: the rest re-insert
        // restricted to the two new partitions.
        let mut deferred = Vec::with_capacity(members.len());
        for member in members {
            if member.0 == seed_a {
                self.place(table, seg_a, member, incoming)?;
            } else if member.0 == seed_b {
                self.place(table, seg_b, member, incoming)?;
            } else {
                deferred.push(member);
            }
        }
        for (id, attrs, size_e) in deferred {
            let (best, ratings) = self.catalog.best_among(
                &[seg_a, seg_b],
                &self.config.mode.rating_of(&attrs),
                size_e,
                self.config.weight,
            );
            self.stats.ratings_computed += u64::from(ratings);
            let (mut target, _) =
                best.ok_or(CoreError::Invariant("two live targets at split"))?;
            // A target the catalog no longer knows counts as overflowing:
            // the redirect below then routes the entity to its sibling.
            let overflows = |cat: &PartitionCatalog, s: SegmentId| {
                cat.get(s).is_none_or(|m| {
                    self.config.capacity.would_overflow(m.entities, m.size, size_e)
                })
            };
            // Under entity-count capacity a target can never fill during a
            // split (at most B+1 entities are redistributed over two
            // partitions); under byte capacity with skewed sizes it can —
            // redirect to the sibling, or force-overflow as a last resort
            // rather than cascade (see DESIGN.md §5).
            if overflows(&self.catalog, target) {
                let other = if target == seg_a { seg_b } else { seg_a };
                if overflows(&self.catalog, other) {
                    self.stats.forced_overflows += 1;
                } else {
                    target = other;
                }
            }
            self.place(table, target, (id, attrs, size_e), incoming)?;
        }

        table.drop_segment(seg)?;
        self.debug_validate_catalog();
        Ok((seg_a, seg_b))
    }

    /// Physically places a member into `target` (a byte move for a stored
    /// member, an insert for the `incoming` entity that triggered the
    /// split) and accounts it in the catalog.
    fn place(
        &mut self,
        table: &mut UniversalTable,
        target: SegmentId,
        (id, attrs, size): (EntityId, Synopsis, u64),
        incoming: Option<&Entity>,
    ) -> Result<(), CoreError> {
        match incoming.filter(|e| e.id() == id) {
            Some(e) => table.insert(target, e)?,
            None => {
                table.move_entity(id, target)?;
                self.stats.split_moves += 1;
            }
        }
        self.catalog.add_entity(target, id, &attrs, size, true);
        Ok(())
    }

    /// Moves every member of `from` into `into` and drops `from` — the
    /// mechanics of a merge (see the [`merge`](crate::merge) module).
    /// Returns the number of entities moved.
    pub(crate) fn absorb(
        &mut self,
        table: &mut UniversalTable,
        from: SegmentId,
        into: SegmentId,
    ) -> Result<u64, CoreError> {
        let members = self.members(table, from)?;
        let moved = members.len() as u64;
        table.wal_txn_begin();
        let result = (|| {
            self.catalog.remove_partition(from);
            for (id, attrs, size) in members {
                table.move_entity(id, into)?;
                self.catalog.add_entity(into, id, &attrs, size, true);
                self.stats.merge_moves += 1;
            }
            table.drop_segment(from)?;
            self.stats.merges += 1;
            self.debug_validate_catalog();
            Ok(moved)
        })();
        Self::finish_txn(table, result)
    }

    /// Deletes an entity. The partitioning stays as is; a partition that
    /// becomes empty is dropped (§III). Logged as one WAL transaction
    /// group.
    pub fn delete(
        &mut self,
        table: &mut UniversalTable,
        id: EntityId,
    ) -> Result<Entity, CoreError> {
        table.wal_txn_begin();
        let result = self.delete_impl(table, id);
        Self::finish_txn(table, result)
    }

    fn delete_impl(
        &mut self,
        table: &mut UniversalTable,
        id: EntityId,
    ) -> Result<Entity, CoreError> {
        let seg = table
            .location(id)
            .ok_or(StorageError::NoSuchEntity(id))?;
        let entity = table.delete(id)?;
        let (attrs, size) = self.synopsis(table, &entity);
        let remaining = self.catalog.remove_entity(seg, id, &attrs, size);
        if remaining == 0 {
            self.catalog.remove_partition(seg);
            table.drop_segment(seg)?;
            self.stats.partitions_dropped += 1;
        }
        self.stats.deletes += 1;
        Ok(entity)
    }

    /// Updates an entity (replaces its stored version with `entity`, same
    /// id). Runs the insert rating "without actually inserting": if the
    /// entity's current partition still wins, the record is replaced in
    /// place; otherwise the entity is moved through the full insert routine
    /// (which may create a partition or split one). Logged as one WAL
    /// transaction group (the inner delete + insert groups nest into it).
    pub fn update(
        &mut self,
        table: &mut UniversalTable,
        entity: Entity,
    ) -> Result<InsertOutcome, CoreError> {
        table.wal_txn_begin();
        let result = self.update_impl(table, entity);
        Self::finish_txn(table, result)
    }

    fn update_impl(
        &mut self,
        table: &mut UniversalTable,
        entity: Entity,
    ) -> Result<InsertOutcome, CoreError> {
        let id = entity.id();
        let current = table
            .location(id)
            .ok_or(StorageError::NoSuchEntity(id))?;
        let (new_attrs, new_size) = self.synopsis(table, &entity);
        let (best, ratings) = self.catalog.best_partition(
            &self.config.mode.rating_of(&new_attrs),
            new_size,
            self.config.weight,
        );
        self.stats.ratings_computed += u64::from(ratings);
        self.stats.updates += 1;

        match best {
            Some((seg, r)) if r >= 0.0 && seg == current => {
                // In place: swap the stored record, fix the accounting.
                let old = table.delete(id)?;
                let (old_attrs, old_size) = self.synopsis(table, &old);
                self.catalog.remove_entity(current, id, &old_attrs, old_size);
                table.insert(current, &entity)?;
                self.catalog.add_entity(current, id, &new_attrs, new_size, true);
                Ok(InsertOutcome::Inserted(current))
            }
            _ => {
                // Move: delete then re-insert through Algorithm 1. The two
                // inner calls bump their own counters; fold them back so
                // `updates` alone accounts for this operation.
                self.delete(table, id)?;
                let outcome = self.insert(table, entity)?;
                self.stats.deletes -= 1;
                self.stats.inserts -= 1;
                self.stats.update_moves += 1;
                Ok(outcome)
            }
        }
    }

    // ------------------------------------------------------------------
    // Reorganizer seams (the `cind-reorg` driver's three actions). Each is
    // WAL-framed as one transaction group, so a crash mid-action recovers
    // to the pre- or post-action state — never in between.
    // ------------------------------------------------------------------

    /// Re-splits partition `seg` through the overflow-split machinery: its
    /// members are redistributed over two new partitions seeded by the
    /// split starters. The reorganizer uses this on *hot mixed* partitions
    /// — ones the workload scans often but whose members answer different
    /// queries — where separating the starter clusters shrinks the scan
    /// cost of every query that touches only one side.
    ///
    /// Returns the two new segments, or `None` when the partition cannot
    /// be re-split (vanished, fewer than two entities, or an incomplete
    /// starter pair). Logged as one WAL transaction group.
    ///
    /// # Errors
    /// Storage errors from the member moves; WAL commit failures.
    pub fn resplit(
        &mut self,
        table: &mut UniversalTable,
        seg: SegmentId,
    ) -> Result<Option<(SegmentId, SegmentId)>, CoreError> {
        let Some(meta) = self.catalog.get(seg) else {
            return Ok(None);
        };
        if meta.entities < 2
            || meta.starters.a().is_none()
            || meta.starters.b().is_none()
        {
            return Ok(None);
        }
        table.wal_txn_begin();
        let result = self.split_partition(table, seg, None).map(|(a, b)| {
            self.stats.reorg_resplits += 1;
            Some((a, b))
        });
        Self::finish_txn(table, result)
    }

    /// Merges partition `from` into `into` — the pair was already
    /// cost-modeled by the caller, so unlike [`Cinderella::merge_pass`]
    /// there is no rating gate here, only the hard capacity check: the
    /// target must absorb the whole partition without overflowing.
    ///
    /// Returns the number of entities moved, or `None` when the merge is
    /// not possible (either side vanished, same segment, or no room).
    /// Logged as one WAL transaction group (via the absorb).
    ///
    /// # Errors
    /// Storage errors from the member moves; WAL commit failures.
    pub fn merge_partitions(
        &mut self,
        table: &mut UniversalTable,
        from: SegmentId,
        into: SegmentId,
    ) -> Result<Option<u64>, CoreError> {
        if from == into {
            return Ok(None);
        }
        let (Some(src), Some(dst)) = (self.catalog.get(from), self.catalog.get(into))
        else {
            return Ok(None);
        };
        let fits = match self.config.capacity {
            crate::Capacity::MaxEntities(b) => dst.entities + src.entities <= b,
            crate::Capacity::MaxSize(b) => dst.size + src.size <= b,
        };
        if !fits {
            return Ok(None);
        }
        self.absorb(table, from, into).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Capacity;
    use cind_model::{AttrId, Value};

    fn make(
        table: &mut UniversalTable,
        id: u64,
        attrs: &[&str],
    ) -> Entity {
        let attrs: Vec<(AttrId, Value)> = attrs
            .iter()
            .map(|a| (table.catalog_mut().intern(a), Value::Int(1)))
            .collect();
        Entity::new(EntityId(id), attrs).unwrap()
    }

    fn cindy(capacity: u64, weight: f64) -> Cinderella {
        Cinderella::new(Config {
            weight,
            capacity: Capacity::MaxEntities(capacity),
            ..Config::default()
        })
    }

    #[test]
    #[should_panic(expected = "weight w must be in [0, 1], got 1.5")]
    fn new_panics_on_an_invalid_config() {
        let _ = cindy(100, 1.5);
    }

    #[test]
    fn rebuild_refuses_an_empty_segment() {
        let mut t = UniversalTable::new(16);
        let e = make(&mut t, 1, &["a"]);
        let seg = t.create_segment();
        t.insert(seg, &e).unwrap();
        assert!(Cinderella::rebuild(&t, Config::default()).is_ok());
        t.create_segment();
        assert!(matches!(
            Cinderella::rebuild(&t, Config::default()),
            Err(CoreError::Invariant("every stored segment has a member"))
        ));
    }

    #[test]
    fn first_insert_creates_a_partition() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 1, &["name", "weight"]);
        let out = c.insert(&mut t, e).unwrap();
        assert!(matches!(out, InsertOutcome::NewPartition(_)));
        assert_eq!(c.catalog().len(), 1);
        assert_eq!(c.stats().partitions_created, 1);
    }

    #[test]
    fn similar_entities_share_a_partition() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 1, &["name", "res", "zoom"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 2, &["name", "res", "zoom"]);
        let out = c.insert(&mut t, e).unwrap();
        assert!(matches!(out, InsertOutcome::Inserted(_)));
        assert_eq!(c.catalog().len(), 1);
    }

    #[test]
    fn dissimilar_entities_get_their_own_partition() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 1, &["name", "res", "zoom"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 2, &["rpm", "capacity", "cache"]);
        let out = c.insert(&mut t, e).unwrap();
        assert!(matches!(out, InsertOutcome::NewPartition(_)));
        assert_eq!(c.catalog().len(), 2);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 1, &["a"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 1, &["a"]);
        assert!(matches!(
            c.insert(&mut t, e),
            Err(CoreError::Storage(StorageError::DuplicateEntity(_)))
        ));
        assert_eq!(c.stats().inserts, 1);
    }

    #[test]
    fn overflow_triggers_a_split_that_separates_groups() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(4, 0.9); // high weight: everything piles together
        // Two latent groups that a forced merge then split should separate.
        let camera = &["name", "res", "zoom"][..];
        let drive = &["name", "rpm", "cache"][..];
        let e = make(&mut t, 0, camera);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 1, drive);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 2, camera);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 3, drive);
        c.insert(&mut t, e).unwrap();
        assert_eq!(c.catalog().len(), 1, "w=0.9 keeps everything together");
        // Fifth insert overflows B=4 → split.
        let e = make(&mut t, 4, camera);
        let out = c.insert(&mut t, e).unwrap();
        assert!(out.is_split());
        assert_eq!(c.catalog().len(), 2);
        assert_eq!(c.stats().splits, 1);
        // All five entities survive, and the groups are separated.
        assert_eq!(t.entity_count(), 5);
        let homes: Vec<SegmentId> = [0u64, 2, 4]
            .iter()
            .map(|i| t.location(EntityId(*i)).unwrap())
            .collect();
        assert!(homes.windows(2).all(|w| w[0] == w[1]), "cameras together");
        let drives: Vec<SegmentId> = [1u64, 3]
            .iter()
            .map(|i| t.location(EntityId(*i)).unwrap())
            .collect();
        assert!(drives.windows(2).all(|w| w[0] == w[1]), "drives together");
        assert_ne!(homes[0], drives[0], "groups separated");
    }

    #[test]
    fn split_preserves_entity_multiset() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(8, 1.0); // w=1: never creates second partition
        for i in 0..30 {
            let attrs = [format!("a{}", i % 5), "common".to_owned()];
            let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let e = make(&mut t, i, &refs);
            c.insert(&mut t, e).unwrap();
        }
        assert_eq!(t.entity_count(), 30);
        assert!(c.stats().splits >= 1);
        // Catalog entity totals match the table.
        let total: u64 = c.catalog().iter().map(|m| m.entities).sum();
        assert_eq!(total, 30);
        // Every entity is where the locator says, in a cataloged partition.
        for i in 0..30 {
            let seg = t.location(EntityId(i)).unwrap();
            assert!(c.catalog().get(seg).is_some());
        }
    }

    #[test]
    fn delete_drops_empty_partition() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 1, &["a", "b"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 2, &["x", "y"]);
        c.insert(&mut t, e).unwrap();
        assert_eq!(c.catalog().len(), 2);
        let e = c.delete(&mut t, EntityId(1)).unwrap();
        assert_eq!(e.id(), EntityId(1));
        assert_eq!(c.catalog().len(), 1);
        assert_eq!(c.stats().partitions_dropped, 1);
        assert!(matches!(
            c.delete(&mut t, EntityId(1)),
            Err(CoreError::Storage(StorageError::NoSuchEntity(_)))
        ));
    }

    #[test]
    fn delete_shrinks_synopsis_exactly() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.9);
        let e = make(&mut t, 1, &["a", "b"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 2, &["a", "c"]);
        c.insert(&mut t, e).unwrap();
        assert_eq!(c.catalog().len(), 1);
        let seg = t.location(EntityId(1)).unwrap();
        let b_attr = t.catalog().lookup("b").unwrap();
        assert!(c.catalog().get(seg).unwrap().attr_synopsis.contains(b_attr));
        c.delete(&mut t, EntityId(1)).unwrap();
        let m = c.catalog().get(seg).unwrap();
        assert!(!m.attr_synopsis.contains(b_attr), "bit b must clear");
        assert!(m.attr_synopsis.contains(t.catalog().lookup("a").unwrap()));
    }

    #[test]
    fn update_in_place_when_partition_still_wins() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 1, &["a", "b", "c"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 2, &["a", "b", "c"]);
        c.insert(&mut t, e).unwrap();
        let seg = t.location(EntityId(1)).unwrap();
        // Same shape, new value: stays put.
        let mut e = make(&mut t, 1, &["a", "b", "c"]);
        e.set(t.catalog().lookup("a").unwrap(), Value::Int(99));
        let out = c.update(&mut t, e).unwrap();
        assert_eq!(out, InsertOutcome::Inserted(seg));
        assert_eq!(c.stats().update_moves, 0);
        assert_eq!(
            t.get(EntityId(1)).unwrap().get(t.catalog().lookup("a").unwrap()),
            Some(&Value::Int(99))
        );
    }

    #[test]
    fn update_moves_when_shape_changes() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 1, &["cam1", "cam2", "cam3"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 2, &["cam1", "cam2", "cam3"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 3, &["hdd1", "hdd2", "hdd3"]);
        c.insert(&mut t, e).unwrap();
        let e = make(&mut t, 4, &["hdd1", "hdd2", "hdd3"]);
        c.insert(&mut t, e).unwrap();
        let hdd_seg = t.location(EntityId(3)).unwrap();
        // Entity 1 mutates into a drive: must move to the drive partition.
        let e = make(&mut t, 1, &["hdd1", "hdd2", "hdd3"]);
        let out = c.update(&mut t, e).unwrap();
        assert_eq!(out, InsertOutcome::Inserted(hdd_seg));
        assert_eq!(t.location(EntityId(1)), Some(hdd_seg));
        assert_eq!(c.stats().update_moves, 1);
        assert_eq!(c.stats().updates, 1);
        // insert/delete counters were not inflated by the internal move.
        assert_eq!(c.stats().inserts, 4);
        assert_eq!(c.stats().deletes, 0);
    }

    #[test]
    fn update_of_missing_entity_fails() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 9, &["a"]);
        assert!(matches!(
            c.update(&mut t, e),
            Err(CoreError::Storage(StorageError::NoSuchEntity(_)))
        ));
    }

    #[test]
    fn weight_zero_builds_only_homogeneous_partitions() {
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.0);
        // Three shapes, interleaved.
        let shapes: [&[&str]; 3] =
            [&["a", "b"], &["a", "b", "c"], &["x"]];
        for i in 0..30u64 {
            let shape = shapes[(i % 3) as usize];
            let e = make(&mut t, i, shape);
            c.insert(&mut t, e).unwrap();
        }
        assert_eq!(c.catalog().len(), 3);
        for m in c.catalog().iter() {
            assert_eq!(m.sparseness(), 0.0, "w=0 ⇒ perfectly dense partitions");
        }
    }

    #[test]
    fn events_record_latency_and_splits() {
        let mut t = UniversalTable::new(256);
        let mut c = Cinderella::new(Config {
            capacity: Capacity::MaxEntities(2),
            weight: 1.0,
            record_events: true,
            ..Config::default()
        });
        for i in 0..3 {
            let e = make(&mut t, i, &["a"]);
            c.insert(&mut t, e).unwrap();
        }
        let events = c.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0].outcome, InsertOutcome::NewPartition(_)));
        assert!(matches!(events[1].outcome, InsertOutcome::Inserted(_)));
        assert!(events[2].outcome.is_split());
    }

    #[test]
    fn split_forces_overflow_when_neither_seed_fits() {
        use cind_model::SizeModel;
        // Capacity in cells: 11. e1 = {a0..a3}, e2 = {a4..a7} (4 cells
        // each), e3 = {a0..a7} (8 cells). The third insert overflows and
        // splits; e3 then fits neither seed partition (4 + 8 = 12 > 11),
        // so it must be force-placed rather than cascade.
        let mut t = UniversalTable::new(256);
        for i in 0..8 {
            t.catalog_mut().intern(&format!("a{i}"));
        }
        let mut c = Cinderella::new(Config {
            capacity: Capacity::MaxSize(11),
            size_model: SizeModel::Cells,
            weight: 1.0,
            ..Config::default()
        });
        let ent = |id: u64, range: std::ops::Range<u32>| {
            Entity::new(
                EntityId(id),
                range.map(|a| (cind_model::AttrId(a), Value::Int(1))),
            )
            .unwrap()
        };
        c.insert(&mut t, ent(1, 0..4)).unwrap();
        c.insert(&mut t, ent(2, 4..8)).unwrap();
        let out = c.insert(&mut t, ent(3, 0..8)).unwrap();
        assert!(out.is_split());
        assert_eq!(c.stats().forced_overflows, 1);
        assert_eq!(t.entity_count(), 3);
        // One partition exceeds the limit (the forced one) — data is never
        // lost to enforce the bound.
        let oversize = c.catalog().iter().filter(|m| m.size > 11).count();
        assert_eq!(oversize, 1);
    }

    #[test]
    fn split_starter_survives_starter_deletion() {
        // Delete both split starters, then overflow the partition: the
        // starter pair must have been backfilled so the split still works.
        let mut t = UniversalTable::new(256);
        for i in 0..8 {
            t.catalog_mut().intern(&format!("a{i}"));
        }
        let mut c = cindy(4, 1.0);
        let ent = |id: u64, attrs: &[u32]| {
            Entity::new(
                EntityId(id),
                attrs.iter().map(|&a| (cind_model::AttrId(a), Value::Int(1))),
            )
            .unwrap()
        };
        c.insert(&mut t, ent(0, &[0, 1])).unwrap(); // starter A
        c.insert(&mut t, ent(1, &[2, 3])).unwrap(); // starter B
        c.insert(&mut t, ent(2, &[0, 1])).unwrap();
        c.insert(&mut t, ent(3, &[2, 3])).unwrap();
        assert_eq!(c.catalog().len(), 1);
        // Remove the original starters.
        c.delete(&mut t, EntityId(0)).unwrap();
        c.delete(&mut t, EntityId(1)).unwrap();
        // Refill and overflow: offers backfill the pair, split succeeds.
        c.insert(&mut t, ent(4, &[0, 1])).unwrap();
        c.insert(&mut t, ent(5, &[2, 3])).unwrap();
        let out = c.insert(&mut t, ent(6, &[0, 1])).unwrap();
        assert!(out.is_split());
        assert_eq!(t.entity_count(), 5);
        let total: u64 = c.catalog().iter().map(|m| m.entities).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_entity_joins_first_partition() {
        // An entity with no attributes rates 0 against everything —
        // Algorithm 1's `r_best < 0` is false, so it joins the best-rated
        // (here: first) partition rather than opening a new one.
        let mut t = UniversalTable::new(256);
        let mut c = cindy(100, 0.5);
        let e = make(&mut t, 1, &["a", "b"]);
        c.insert(&mut t, e).unwrap();
        let out = c
            .insert(&mut t, Entity::empty(EntityId(2)))
            .unwrap();
        assert!(matches!(out, InsertOutcome::Inserted(_)));
        assert_eq!(c.catalog().len(), 1);
        assert_eq!(t.entity_count(), 2);
    }

    #[test]
    fn byte_capacity_splits_too() {
        use cind_model::SizeModel;
        let mut t = UniversalTable::new(256);
        let mut c = Cinderella::new(Config {
            capacity: Capacity::MaxSize(64),
            size_model: SizeModel::Bytes,
            weight: 1.0,
            ..Config::default()
        });
        // Each entity is 16 bytes (two ints): five of them exceed 64 bytes.
        for i in 0..5 {
            let e = make(&mut t, i, &["a", "b"]);
            c.insert(&mut t, e).unwrap();
        }
        assert!(c.stats().splits >= 1);
        assert_eq!(t.entity_count(), 5);
        let total: u64 = c.catalog().iter().map(|m| m.entities).sum();
        assert_eq!(total, 5);
    }
}
