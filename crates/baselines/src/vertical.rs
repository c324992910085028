//! Vertical partitioning by attribute co-occurrence (the "hidden schema"
//! related work, §VI).
//!
//! Chu, Beckmann, Naughton (SIGMOD'07) partition a wide sparse table
//! *vertically* and offline: attributes that co-occur are clustered into
//! column groups, and each entity is stored as one sub-record per group it
//! instantiates. A query then reads only the groups that contain requested
//! attributes. This module implements that comparator faithfully enough to
//! measure it against Cinderella's horizontal scheme:
//!
//! * Attribute similarity = Jaccard coefficient of the attribute's entity
//!   sets (as in the paper they cite).
//! * Clustering = greedy agglomeration: repeatedly merge the pair of
//!   groups with the highest average linkage above a threshold — the
//!   paper's k-NN clustering without requiring a k.
//! * Storage = one segment per attribute group; each entity contributes a
//!   sub-record to every group it has attributes in.
//!
//! The trade against horizontal partitioning is structural: vertical
//! grouping never prunes *entities* (a selective query over a common
//! attribute group still reads every entity's sub-record in that group),
//! but touches only the requested columns; horizontal partitioning prunes
//! entities but reads whole rows. The shoot-out quantifies this on the
//! paper's workload.

use std::collections::HashMap;

use cind_model::{AttrId, Entity, EntityId, Synopsis};
use cind_storage::{SegmentId, StorageError, UniversalTable};
use cinderella_core::CoreError;

/// Configuration of the vertical clusterer.
#[derive(Clone, Copy, Debug)]
pub struct VerticalConfig {
    /// Minimum average Jaccard linkage for two groups to merge.
    pub linkage_threshold: f64,
}

impl Default for VerticalConfig {
    fn default() -> Self {
        Self { linkage_threshold: 0.4 }
    }
}

/// One column group and its storage segment.
#[derive(Clone, Debug)]
pub struct ColumnGroup {
    /// The attributes of this group.
    pub attrs: Vec<AttrId>,
    /// The segment holding the group's sub-records.
    pub segment: SegmentId,
    /// Cells stored in this group (Definition 1 `SIZE`).
    pub size: u64,
}

/// An offline vertical partitioner.
///
/// Unlike the horizontal policies this does not implement `Partitioner`:
/// entities are *decomposed* across segments, so insert/delete and the
/// pruning view have different shapes. [`VerticalPartitioning::load`]
/// builds everything; [`VerticalPartitioning::query_cost`] measures a
/// query the way the horizontal executor does (pages + cells read).
pub struct VerticalPartitioning {
    config: VerticalConfig,
    groups: Vec<ColumnGroup>,
    /// attr → group index.
    group_of: HashMap<AttrId, usize>,
}

impl VerticalPartitioning {
    /// Creates an empty vertical partitioner.
    pub fn new(config: VerticalConfig) -> Self {
        Self { config, groups: Vec::new(), group_of: HashMap::new() }
    }

    /// The column groups.
    pub fn groups(&self) -> &[ColumnGroup] {
        &self.groups
    }

    /// Clusters the attributes of `entities` and loads their sub-records
    /// into `table` (one segment per group).
    ///
    /// # Errors
    /// Storage errors from the load.
    ///
    /// # Panics
    /// Panics if called twice.
    pub fn load(
        &mut self,
        table: &mut UniversalTable,
        entities: &[Entity],
    ) -> Result<(), CoreError> {
        assert!(self.groups.is_empty(), "load is one-shot");
        let universe = table.universe();
        let clusters = cluster_attributes(entities, universe, self.config.linkage_threshold);

        // Create one segment per group.
        for attrs in clusters {
            let segment = table.create_segment();
            let idx = self.groups.len();
            for a in &attrs {
                self.group_of.insert(*a, idx);
            }
            self.groups.push(ColumnGroup { attrs, segment, size: 0 });
        }

        // Decompose each entity into per-group sub-records. Sub-records
        // reuse the entity id; the storage locator is per-table, so each
        // group's sub-record gets a distinct synthetic id derived from
        // (group, entity) — the locator is not used for vertical queries.
        for e in entities {
            let mut per_group: HashMap<usize, Vec<(AttrId, cind_model::Value)>> =
                HashMap::new();
            for (a, v) in e.attrs() {
                #[expect(
                    clippy::expect_used,
                    reason = "the clustering pass above assigns every attribute a group"
                )]
                let g = *self.group_of.get(a).expect("attribute clustered");
                per_group.entry(g).or_default().push((*a, v.clone()));
            }
            for (g, attrs) in per_group {
                let cells = attrs.len() as u64;
                let sub_id = EntityId(
                    (g as u64) << 48 | (e.id().0 & 0xFFFF_FFFF_FFFF),
                );
                #[expect(
                    clippy::expect_used,
                    reason = "a sub-record's attributes are a subset of its entity's unique ones"
                )]
                let sub = Entity::new(sub_id, attrs).expect("unique attrs");
                table.insert(self.groups[g].segment, &sub)?;
                self.groups[g].size += cells;
            }
        }
        Ok(())
    }

    /// The pruning view in Definition 1 terms: one "partition" per column
    /// group, with the group's attribute synopsis and its stored cells.
    pub fn pruning_view(&self, universe: usize) -> Vec<(SegmentId, Synopsis, u64)> {
        self.groups
            .iter()
            .map(|g| {
                (
                    g.segment,
                    Synopsis::from_attrs(universe, g.attrs.iter().copied()),
                    g.size,
                )
            })
            .collect()
    }

    /// Executes the paper's query form against the vertical layout:
    /// scans every group containing a requested attribute, counts matching
    /// sub-records and projected cells, and returns
    /// `(rows, cells, pages, groups_read)`.
    ///
    /// # Errors
    /// Storage errors from the scans.
    pub fn query_cost(
        &self,
        table: &UniversalTable,
        attrs: &[AttrId],
    ) -> Result<(u64, u64, u64, usize), StorageError> {
        let io_before = table.io_stats();
        let mut matching = std::collections::HashSet::new();
        let mut cells = 0u64;
        let mut groups_read = 0usize;
        for group in &self.groups {
            if !group.attrs.iter().any(|a| attrs.contains(a)) {
                continue;
            }
            groups_read += 1;
            table.scan(group.segment, |sub| {
                let hit: u32 = attrs
                    .iter()
                    .filter(|a| sub.has(**a))
                    .count() as u32;
                if hit > 0 {
                    // Strip the group tag to recover the entity id.
                    matching.insert(sub.id().0 & 0xFFFF_FFFF_FFFF);
                    cells += u64::from(hit);
                }
            })?;
        }
        let pages = table.io_stats().since(&io_before).logical_reads;
        Ok((matching.len() as u64, cells, pages, groups_read))
    }
}

impl VerticalPartitioning {
    /// Full-row retrieval cost: after identifying the matching entities
    /// (as in [`VerticalPartitioning::query_cost`]), reconstruct their
    /// complete rows. Without a per-entity index the reconstruction scans
    /// every remaining group — the classic column-store reassembly
    /// penalty that projection-only workloads never pay.
    ///
    /// Returns `(rows, total_cells, total_pages)`.
    ///
    /// # Errors
    /// Storage errors from the scans.
    pub fn query_cost_full_rows(
        &self,
        table: &UniversalTable,
        attrs: &[AttrId],
    ) -> Result<(u64, u64, u64), StorageError> {
        let io_before = table.io_stats();
        let mut matching = std::collections::HashSet::new();
        let mut queried = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            if !group.attrs.iter().any(|a| attrs.contains(a)) {
                continue;
            }
            queried.push(g);
            table.scan(group.segment, |sub| {
                if attrs.iter().any(|a| sub.has(*a)) {
                    matching.insert(sub.id().0 & 0xFFFF_FFFF_FFFF);
                }
            })?;
        }
        // Reconstruction: collect every cell of every matched entity from
        // all groups (including re-reading the queried ones for their
        // non-predicate columns).
        let mut cells = 0u64;
        for group in &self.groups {
            table.scan(group.segment, |sub| {
                if matching.contains(&(sub.id().0 & 0xFFFF_FFFF_FFFF)) {
                    cells += sub.arity() as u64;
                }
            })?;
        }
        let pages = table.io_stats().since(&io_before).logical_reads;
        Ok((matching.len() as u64, cells, pages))
    }
}

/// Greedy average-linkage agglomeration of attributes by Jaccard
/// co-occurrence. Returns the attribute groups (every attribute of the
/// universe appears in exactly one group; attributes never seen form
/// singleton groups).
fn cluster_attributes(
    entities: &[Entity],
    universe: usize,
    threshold: f64,
) -> Vec<Vec<AttrId>> {
    // Pairwise Jaccard from one co-occurrence pass.
    let mut freq = vec![0u32; universe];
    let mut pair = vec![0u32; universe * universe];
    for e in entities {
        let attrs: Vec<u32> = e.attrs().iter().map(|(a, _)| a.index()).collect();
        for (i, &a) in attrs.iter().enumerate() {
            freq[a as usize] += 1;
            for &b in &attrs[i + 1..] {
                let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
                pair[lo * universe + hi] += 1;
            }
        }
    }
    let jaccard = |a: usize, b: usize| {
        let (lo, hi) = (a.min(b), a.max(b));
        let both = f64::from(pair[lo * universe + hi]);
        let either = f64::from(freq[a]) + f64::from(freq[b]) - both;
        if either == 0.0 {
            0.0
        } else {
            both / either
        }
    };

    // Agglomerate: each attribute starts alone; merge the best pair of
    // groups while its average linkage clears the threshold.
    let mut groups: Vec<Vec<usize>> = (0..universe).map(|a| vec![a]).collect();
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                let mut sum = 0.0;
                for &a in &groups[i] {
                    for &b in &groups[j] {
                        sum += jaccard(a, b);
                    }
                }
                let linkage = sum / (groups[i].len() * groups[j].len()) as f64;
                if linkage >= threshold
                    && best.is_none_or(|(_, _, bl)| bl < linkage)
                {
                    best = Some((i, j, linkage));
                }
            }
        }
        let Some((i, j, _)) = best else { break };
        let merged = groups.swap_remove(j);
        groups[i].extend(merged);
    }
    groups
        .into_iter()
        .map(|g| g.into_iter().map(|a| AttrId(a as u32)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::Value;

    fn entity(id: u64, attrs: &[u32]) -> Entity {
        Entity::new(
            EntityId(id),
            attrs.iter().map(|&a| (AttrId(a), Value::Int(i64::from(a)))),
        )
        .unwrap()
    }

    /// Attributes 0,1 always co-occur; 2,3 always co-occur; no overlap.
    fn two_shape_entities(n: u64) -> Vec<Entity> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    entity(i, &[0, 1])
                } else {
                    entity(i, &[2, 3])
                }
            })
            .collect()
    }

    #[test]
    fn clustering_finds_cooccurring_groups() {
        let entities = two_shape_entities(40);
        let groups = cluster_attributes(&entities, 4, 0.4);
        let mut sets: Vec<Vec<u32>> = groups
            .iter()
            .map(|g| {
                let mut v: Vec<u32> = g.iter().map(|a| a.0).collect();
                v.sort_unstable();
                v
            })
            .collect();
        sets.sort();
        assert_eq!(sets, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn unseen_attributes_form_singletons() {
        let entities = vec![entity(0, &[0])];
        let groups = cluster_attributes(&entities, 3, 0.4);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn load_decomposes_entities_per_group() {
        let mut table = UniversalTable::new(64);
        for i in 0..4 {
            table.catalog_mut().intern(&format!("a{i}"));
        }
        let entities = two_shape_entities(20);
        let mut v = VerticalPartitioning::new(VerticalConfig::default());
        v.load(&mut table, &entities).unwrap();
        assert_eq!(v.groups().len(), 2);
        let total: u64 = v.groups().iter().map(|g| g.size).sum();
        assert_eq!(total, 40, "every cell stored exactly once");
        // Each group's segment holds only sub-records of its own shape.
        for g in v.groups() {
            assert_eq!(table.segment(g.segment).unwrap().record_count(), 10);
        }
    }

    #[test]
    fn query_reads_only_relevant_groups() {
        let mut table = UniversalTable::new(64);
        for i in 0..4 {
            table.catalog_mut().intern(&format!("a{i}"));
        }
        let entities = two_shape_entities(20);
        let mut v = VerticalPartitioning::new(VerticalConfig::default());
        v.load(&mut table, &entities).unwrap();
        let (rows, cells, pages, groups_read) =
            v.query_cost(&table, &[AttrId(0)]).unwrap();
        assert_eq!(rows, 10);
        assert_eq!(cells, 10);
        assert_eq!(groups_read, 1);
        assert!(pages >= 1);
    }

    #[test]
    fn full_row_retrieval_pays_reconstruction() {
        let mut table = UniversalTable::new(64);
        for i in 0..4 {
            table.catalog_mut().intern(&format!("a{i}"));
        }
        let mut entities = two_shape_entities(20);
        entities.push(entity(100, &[0, 1, 2, 3])); // spans both groups
        let mut v = VerticalPartitioning::new(VerticalConfig::default());
        v.load(&mut table, &entities).unwrap();
        let (rows, proj_cells, proj_pages, _) =
            v.query_cost(&table, &[AttrId(0)]).unwrap();
        let (rows_full, full_cells, full_pages) =
            v.query_cost_full_rows(&table, &[AttrId(0)]).unwrap();
        assert_eq!(rows, rows_full);
        assert_eq!(rows, 11);
        // Projection returns only attr 0's cells; full rows return every
        // cell of the matched entities (11 × 2 + 2 extra for the spanner).
        assert_eq!(proj_cells, 11);
        assert_eq!(full_cells, 11 * 2 + 2);
        assert!(full_pages > proj_pages, "reconstruction reads more pages");
    }

    #[test]
    fn entities_spanning_groups_are_counted_once() {
        let mut table = UniversalTable::new(64);
        for i in 0..4 {
            table.catalog_mut().intern(&format!("a{i}"));
        }
        // Entity 0 has attributes in both groups.
        let mut entities = two_shape_entities(10);
        entities.push(entity(100, &[0, 1, 2, 3]));
        let mut v = VerticalPartitioning::new(VerticalConfig::default());
        v.load(&mut table, &entities).unwrap();
        let (rows, _, _, groups_read) =
            v.query_cost(&table, &[AttrId(1), AttrId(2)]).unwrap();
        // 5 entities with {0,1}, 5 with {2,3}, plus the spanning one — it
        // must be deduplicated across groups.
        assert_eq!(rows, 11);
        assert_eq!(groups_read, 2);
    }
}
