//! Parallel bulk loading — an extension beyond the paper.
//!
//! Cinderella is an online algorithm: one rating scan per insert,
//! sequentially. For the *initial* load of a large universal table that
//! serialises the whole dataset through one core. This module adds the
//! standard two-phase parallel recipe:
//!
//! 1. **Shard** the batch round-robin over `threads` workers; each worker
//!    runs an independent Cinderella on a scratch table (same
//!    configuration, same attribute catalog) — the expensive rating scans
//!    run in parallel.
//! 2. **Stitch**: adopt every shard partition wholesale into the target
//!    table (cheap bulk copies, no rating), then run a
//!    [`merge_pass`](crate::Cinderella::merge_pass) so near-duplicate
//!    partitions produced by different shards fold together under the
//!    regular §IV rating.
//!
//! The result is *a* valid Cinderella partitioning — not bit-identical to
//! the sequential one (the algorithm is order-dependent by design), but
//! satisfying the same invariants: capacity bounds, exact synopses, and
//! comparable efficiency (asserted in `tests/bulk_load.rs`).

use cind_model::Entity;
use cind_storage::UniversalTable;

use crate::partitioner::Cinderella;
use crate::{Config, CoreError};

/// What a [`bulk_load`] did.
#[derive(Clone, Debug, Default)]
pub struct BulkLoadReport {
    /// Worker threads used.
    pub threads: usize,
    /// Partitions each shard produced.
    pub shard_partitions: Vec<usize>,
    /// Partitions folded together by the stitch pass.
    pub stitch_merges: u64,
    /// Final partition count.
    pub partitions: usize,
}

/// Loads `entities` into `table` with `threads` parallel Cinderella
/// workers, returning the stitched partitioner and a report.
///
/// With `threads <= 1` this degenerates to the plain sequential load.
/// Entity ids must be unique across the batch (as for any load).
///
/// ```
/// use cind_model::{AttrId, Entity, EntityId, Value};
/// use cind_storage::UniversalTable;
/// use cinderella_core::{bulk_load, Config};
///
/// let mut table = UniversalTable::new(64);
/// let a = table.catalog_mut().intern("a");
/// let batch: Vec<Entity> = (0..100u64)
///     .map(|i| Entity::new(EntityId(i), [(a, Value::Int(1))]).unwrap())
///     .collect();
/// let (cindy, report) = bulk_load(&mut table, Config::default(), batch, 4)?;
/// assert_eq!(report.threads, 4);
/// assert_eq!(table.entity_count(), 100);
/// assert_eq!(cindy.catalog().len(), report.partitions);
/// # Ok::<(), cinderella_core::CoreError>(())
/// ```
///
/// # Errors
/// Storage errors from the load or the stitch phase.
///
/// # Panics
/// Panics if the configuration is invalid (see [`Config::validate`]).
pub fn bulk_load(
    table: &mut UniversalTable,
    config: Config,
    entities: Vec<Entity>,
    threads: usize,
) -> Result<(Cinderella, BulkLoadReport), CoreError> {
    config.assert_valid();
    if threads <= 1 {
        let mut cindy = Cinderella::new(config);
        for e in entities {
            cindy.insert(table, e)?;
        }
        let partitions = cindy.catalog().len();
        return Ok((
            cindy,
            BulkLoadReport {
                threads: 1,
                shard_partitions: vec![partitions],
                stitch_merges: 0,
                partitions,
            },
        ));
    }

    // Phase 1: shard round-robin and partition each shard in parallel.
    // Workers see the same attribute catalog (cloned), so attribute ids —
    // and therefore synopses — are consistent across shards.
    let mut shards: Vec<Vec<Entity>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, e) in entities.into_iter().enumerate() {
        shards[i % threads].push(e);
    }
    let catalog = table.catalog().clone();
    let shard_results: Vec<Result<(Cinderella, UniversalTable), CoreError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|chunk| {
                    let config = config.clone();
                    let catalog = catalog.clone();
                    scope.spawn(move || {
                        let mut scratch = UniversalTable::new(0);
                        *scratch.catalog_mut() = catalog;
                        let mut cindy = Cinderella::new(config);
                        for e in chunk {
                            cindy.insert(&mut scratch, e)?;
                        }
                        Ok((cindy, scratch))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    Err(_) => Err(CoreError::Invariant("bulk-load worker panicked")),
                })
                .collect()
        });

    // Phase 2: adopt shard partitions wholesale — the segments move at
    // page granularity (no re-encoding), and their catalog metadata
    // (synopses, sizes, starters) moves with them — then stitch.
    let mut merged = Cinderella::new(config);
    let mut report = BulkLoadReport { threads, ..BulkLoadReport::default() };
    for result in shard_results {
        let (shard_cindy, mut shard_table) = result?;
        report.shard_partitions.push(shard_cindy.catalog().len());
        let metas: Vec<_> = shard_cindy.catalog().iter().cloned().collect();
        for meta in metas {
            let segment = shard_table.detach_segment(meta.segment)?;
            let entities = meta.entities;
            let new_id = table.attach_segment(segment)?;
            merged.catalog_mut().adopt(meta, new_id);
            merged.bump_inserts_by(entities);
        }
    }
    let before = merged.stats().merges;
    merged.merge_pass(table, 1.0)?;
    report.stitch_merges = merged.stats().merges - before;
    report.partitions = merged.catalog().len();
    merged.debug_validate_catalog();
    Ok((merged, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Capacity;
    use cind_model::{AttrId, EntityId, Value};

    fn entities(n: u64) -> Vec<Entity> {
        (0..n)
            .map(|i| {
                let base = (i % 3) * 4;
                Entity::new(
                    EntityId(i),
                    (0..3).map(|k| (AttrId((base + k) as u32), Value::Int(1))),
                )
                .unwrap()
            })
            .collect()
    }

    fn table() -> UniversalTable {
        let mut t = UniversalTable::new(64);
        for i in 0..12 {
            t.catalog_mut().intern(&format!("a{i}"));
        }
        t
    }

    #[test]
    fn parallel_load_preserves_entities_and_capacity() {
        let mut t = table();
        let config = Config {
            weight: 0.3,
            capacity: Capacity::MaxEntities(50),
            ..Config::default()
        };
        let (cindy, report) = bulk_load(&mut t, config, entities(600), 4).unwrap();
        assert_eq!(report.threads, 4);
        assert_eq!(report.shard_partitions.len(), 4);
        assert_eq!(t.entity_count(), 600);
        let total: u64 = cindy.catalog().iter().map(|m| m.entities).sum();
        assert_eq!(total, 600);
        for m in cindy.catalog().iter() {
            assert!(m.entities <= 50);
        }
        for i in 0..600u64 {
            assert!(t.location(EntityId(i)).is_some(), "entity {i} lost");
        }
    }

    #[test]
    fn stitch_folds_cross_shard_duplicates() {
        // Three shapes, B far above the per-shard volume: each shard makes
        // 3 partitions; the stitch should fold the 4×3 down toward 3.
        let mut t = table();
        let config = Config {
            weight: 0.3,
            capacity: Capacity::MaxEntities(10_000),
            ..Config::default()
        };
        let (cindy, report) = bulk_load(&mut t, config, entities(300), 4).unwrap();
        assert!(report.stitch_merges > 0, "{report:?}");
        assert_eq!(cindy.catalog().len(), 3, "{report:?}");
        // And they are pure: one shape per partition.
        for m in cindy.catalog().iter() {
            assert_eq!(m.attr_synopsis.cardinality(), 3);
            assert_eq!(m.sparseness(), 0.0);
        }
    }

    #[test]
    fn single_thread_is_the_sequential_load() {
        let mut t1 = table();
        let config = Config {
            weight: 0.3,
            capacity: Capacity::MaxEntities(50),
            ..Config::default()
        };
        let (bulk, report) = bulk_load(&mut t1, config.clone(), entities(200), 1).unwrap();
        assert_eq!(report.threads, 1);

        let mut t2 = table();
        let mut seq = Cinderella::new(config);
        for e in entities(200) {
            seq.insert(&mut t2, e).unwrap();
        }
        assert_eq!(bulk.catalog().len(), seq.catalog().len());
        let sizes = |c: &Cinderella| {
            let mut v: Vec<u64> = c.catalog().iter().map(|m| m.entities).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&bulk), sizes(&seq));
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut t = table();
        let (cindy, report) =
            bulk_load(&mut t, Config::default(), Vec::new(), 4).unwrap();
        assert_eq!(cindy.catalog().len(), 0);
        assert_eq!(report.partitions, 0);
    }
}
