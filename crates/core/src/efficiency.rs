//! Partitioning efficiency — Definition 1.

use cind_model::Synopsis;
use cind_storage::UniversalTable;

use crate::Cinderella;

/// `EFFICIENCY(P)` over explicit collections (Definition 1):
///
/// ```text
///              Σ_{q∈W, e∈T} sgn(|e ∧ q|) · SIZE(e)
/// EFFICIENCY = ────────────────────────────────────
///              Σ_{q∈W, p∈P} sgn(|p ∧ q|) · SIZE(p)
/// ```
///
/// `entities` and `partitions` are `(attribute synopsis, SIZE)` pairs. The
/// result is in `[0, 1]`: the fraction of data read that is actually
/// relevant to the workload. A workload that reads nothing (denominator 0)
/// is vacuously efficient: 1.0.
pub fn efficiency_of(
    entities: impl IntoIterator<Item = (Synopsis, u64)>,
    partitions: &[(Synopsis, u64)],
    queries: &[Synopsis],
) -> f64 {
    let (relevant, read) = efficiency_counters(entities, partitions, queries);
    if read == 0 {
        1.0
    } else {
        relevant as f64 / read as f64
    }
}

/// The raw `(relevant, read)` sums behind [`efficiency_of`] — Definition
/// 1's numerator and denominator before the division.
///
/// Exposed so a *sharded* engine can compute its global efficiency
/// correctly: summing each shard's counter pair and dividing once is the
/// workload-weighted combination Definition 1 demands, whereas averaging
/// per-shard efficiencies would weight an idle shard the same as a busy
/// one.
pub fn efficiency_counters(
    entities: impl IntoIterator<Item = (Synopsis, u64)>,
    partitions: &[(Synopsis, u64)],
    queries: &[Synopsis],
) -> (u64, u64) {
    let mut relevant: u64 = 0;
    for (syn, size) in entities {
        let hits = queries.iter().filter(|q| !q.is_disjoint(&syn)).count() as u64;
        relevant += hits * size;
    }
    let mut read: u64 = 0;
    for (syn, size) in partitions {
        let hits = queries.iter().filter(|q| !q.is_disjoint(syn)).count() as u64;
        read += hits * size;
    }
    (relevant, read)
}

/// `EFFICIENCY(P)` of a Cinderella-partitioned table for a workload of
/// query synopses. Scans the table once to size the entities (the scan
/// shows up in the I/O counters like any other).
pub fn efficiency(table: &UniversalTable, cindy: &Cinderella, queries: &[Synopsis]) -> f64 {
    let (relevant, read) = efficiency_counters_for(table, cindy, queries);
    if read == 0 {
        1.0
    } else {
        relevant as f64 / read as f64
    }
}

/// The raw `(relevant, read)` counters behind [`efficiency`] for one
/// table/policy pair — what one shard contributes to a sharded engine's
/// global `EFFICIENCY(P)` (sum the pairs across shards, then divide once).
pub fn efficiency_counters_for(
    table: &UniversalTable,
    cindy: &Cinderella,
    queries: &[Synopsis],
) -> (u64, u64) {
    #[expect(clippy::expect_used, reason = "the ids come from the table, so each is live")]
    let entities = table
        .segment_ids()
        .flat_map(|seg| cindy.members(table, seg).expect("segment ids are live"))
        .map(|(_, attrs, size)| (attrs, size));
    let partitions: Vec<(Synopsis, u64)> = cindy
        .catalog()
        .pruning_view()
        .map(|(_, syn, size)| (syn.clone(), size))
        .collect();
    efficiency_counters(entities, &partitions, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(bits: &[u32]) -> Synopsis {
        Synopsis::from_bits(16, bits.iter().copied())
    }

    #[test]
    fn perfect_partitioning_scores_one() {
        // Two disjoint groups, two partitions matching them exactly, one
        // query per group.
        let entities = vec![(syn(&[0, 1]), 2u64), (syn(&[0, 1]), 2), (syn(&[5]), 1)];
        let partitions = vec![(syn(&[0, 1]), 4u64), (syn(&[5]), 1)];
        let queries = vec![syn(&[0]), syn(&[5])];
        let eff = efficiency_of(entities, &partitions, &queries);
        assert!((eff - 1.0).abs() < 1e-12);
    }

    #[test]
    fn universal_table_reads_everything() {
        // One partition holding everything: the query reads 5 cells but only
        // 4 are relevant.
        let entities = vec![(syn(&[0, 1]), 2u64), (syn(&[0, 1]), 2), (syn(&[5]), 1)];
        let partitions = vec![(syn(&[0, 1, 5]), 5u64)];
        let queries = vec![syn(&[0])];
        let eff = efficiency_of(entities, &partitions, &queries);
        assert!((eff - 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn irrelevant_workload_is_vacuously_efficient() {
        let entities = vec![(syn(&[0]), 1u64)];
        let partitions = vec![(syn(&[0]), 1u64)];
        let queries = vec![syn(&[9])];
        assert_eq!(efficiency_of(entities, &partitions, &queries), 1.0);
        assert_eq!(efficiency_of(Vec::new(), &[], &[]), 1.0);
    }

    #[test]
    fn end_to_end_partitioned_beats_universal() {
        use crate::Config;
        use cind_model::{AttrId, Entity, EntityId, Value};
        use cind_storage::UniversalTable;

        let mut t = UniversalTable::new(256);
        let mut c = Cinderella::new(Config {
            weight: 0.3,
            capacity: 100,
            ..Config::default()
        });
        // Two shapes.
        for i in 0..20u64 {
            let names: &[&str] = if i % 2 == 0 { &["a", "b"] } else { &["x", "y"] };
            let attrs: Vec<(AttrId, Value)> = names
                .iter()
                .map(|n| (t.catalog_mut().intern(n), Value::Int(1)))
                .collect();
            c.insert(&mut t, Entity::new(EntityId(i), attrs).unwrap()).unwrap();
        }
        let q = Synopsis::from_attrs(t.universe(), [t.catalog().lookup("a").unwrap()]);
        let eff = efficiency(&t, &c, std::slice::from_ref(&q));
        assert!((eff - 1.0).abs() < 1e-12, "separated shapes give efficiency 1, got {eff}");
    }
}
