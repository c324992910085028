//! TPC-H-shaped regular data (Table I experiment).
//!
//! Table I loads perfectly regular TPC-H data (SF 0.5) into a
//! Cinderella-partitioned universal table and checks that (a) Cinderella
//! rediscovers exactly the TPC-H relations as partitions and (b) the query
//! overhead over the native schema is small. Both properties depend only on
//! the relations' column sets and relative cardinalities, so this generator
//! produces the eight TPC-H relations with their exact column lists and
//! proportional row counts, filled with synthetic values.

use cind_model::schema::{ColumnKind, RelationSchema};
use cind_model::{AttrId, AttributeCatalog, Entity, EntityId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ColumnKind::{Float, Int, Text};

/// The eight TPC-H relations with their standard column sets.
pub fn tpch_schema() -> Vec<RelationSchema> {
    vec![
        RelationSchema::new(
            "region",
            [("r_regionkey", Int), ("r_name", Text), ("r_comment", Text)],
        ),
        RelationSchema::new(
            "nation",
            [
                ("n_nationkey", Int),
                ("n_name", Text),
                ("n_regionkey", Int),
                ("n_comment", Text),
            ],
        ),
        RelationSchema::new(
            "supplier",
            [
                ("s_suppkey", Int),
                ("s_name", Text),
                ("s_address", Text),
                ("s_nationkey", Int),
                ("s_phone", Text),
                ("s_acctbal", Float),
                ("s_comment", Text),
            ],
        ),
        RelationSchema::new(
            "customer",
            [
                ("c_custkey", Int),
                ("c_name", Text),
                ("c_address", Text),
                ("c_nationkey", Int),
                ("c_phone", Text),
                ("c_acctbal", Float),
                ("c_mktsegment", Text),
                ("c_comment", Text),
            ],
        ),
        RelationSchema::new(
            "part",
            [
                ("p_partkey", Int),
                ("p_name", Text),
                ("p_mfgr", Text),
                ("p_brand", Text),
                ("p_type", Text),
                ("p_size", Int),
                ("p_container", Text),
                ("p_retailprice", Float),
                ("p_comment", Text),
            ],
        ),
        RelationSchema::new(
            "partsupp",
            [
                ("ps_partkey", Int),
                ("ps_suppkey", Int),
                ("ps_availqty", Int),
                ("ps_supplycost", Float),
                ("ps_comment", Text),
            ],
        ),
        RelationSchema::new(
            "orders",
            [
                ("o_orderkey", Int),
                ("o_custkey", Int),
                ("o_orderstatus", Text),
                ("o_totalprice", Float),
                ("o_orderdate", Text),
                ("o_orderpriority", Text),
                ("o_clerk", Text),
                ("o_shippriority", Int),
                ("o_comment", Text),
            ],
        ),
        RelationSchema::new(
            "lineitem",
            [
                ("l_orderkey", Int),
                ("l_partkey", Int),
                ("l_suppkey", Int),
                ("l_linenumber", Int),
                ("l_quantity", Float),
                ("l_extendedprice", Float),
                ("l_discount", Float),
                ("l_tax", Float),
                ("l_returnflag", Text),
                ("l_linestatus", Text),
                ("l_shipdate", Text),
                ("l_commitdate", Text),
                ("l_receiptdate", Text),
                ("l_shipinstruct", Text),
                ("l_shipmode", Text),
                ("l_comment", Text),
            ],
        ),
    ]
}

/// Base row counts at scale factor 1.0 (TPC-H specification).
const BASE_ROWS: [(usize, u64); 8] = [
    (0, 5),         // region (fixed)
    (1, 25),        // nation (fixed)
    (2, 10_000),    // supplier
    (3, 150_000),   // customer
    (4, 200_000),   // part
    (5, 800_000),   // partsupp
    (6, 1_500_000), // orders
    (7, 6_000_000), // lineitem
];

/// Referenced-column sets of the 22 TPC-H queries (projection, predicates,
/// joins, grouping). These drive the Table I scans — in our substrate a
/// query's cost is the scan of every partition carrying any referenced
/// column of each referenced relation.
pub fn tpch_query_columns() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("Q1", vec!["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"]),
        ("Q2", vec!["p_partkey", "p_mfgr", "p_size", "p_type", "s_acctbal", "s_name", "s_address", "s_phone", "s_comment", "s_suppkey", "s_nationkey", "ps_partkey", "ps_suppkey", "ps_supplycost", "n_name", "n_nationkey", "n_regionkey", "r_regionkey", "r_name"]),
        ("Q3", vec!["c_mktsegment", "c_custkey", "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]),
        ("Q4", vec!["o_orderkey", "o_orderdate", "o_orderpriority", "l_orderkey", "l_commitdate", "l_receiptdate"]),
        ("Q5", vec!["c_custkey", "c_nationkey", "o_orderkey", "o_custkey", "o_orderdate", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "s_suppkey", "s_nationkey", "n_nationkey", "n_regionkey", "n_name", "r_regionkey", "r_name"]),
        ("Q6", vec!["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]),
        ("Q7", vec!["s_suppkey", "s_nationkey", "l_suppkey", "l_orderkey", "l_shipdate", "l_extendedprice", "l_discount", "o_orderkey", "o_custkey", "c_custkey", "c_nationkey", "n_nationkey", "n_name"]),
        ("Q8", vec!["p_partkey", "p_type", "l_partkey", "l_suppkey", "l_orderkey", "l_extendedprice", "l_discount", "s_suppkey", "s_nationkey", "o_orderkey", "o_custkey", "o_orderdate", "c_custkey", "c_nationkey", "n_nationkey", "n_regionkey", "n_name", "r_regionkey", "r_name"]),
        ("Q9", vec!["p_partkey", "p_name", "s_suppkey", "s_nationkey", "l_partkey", "l_suppkey", "l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "ps_partkey", "ps_suppkey", "ps_supplycost", "o_orderkey", "o_orderdate", "n_nationkey", "n_name"]),
        ("Q10", vec!["c_custkey", "c_name", "c_acctbal", "c_address", "c_phone", "c_comment", "c_nationkey", "o_orderkey", "o_custkey", "o_orderdate", "l_orderkey", "l_returnflag", "l_extendedprice", "l_discount", "n_nationkey", "n_name"]),
        ("Q11", vec!["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost", "s_suppkey", "s_nationkey", "n_nationkey", "n_name"]),
        ("Q12", vec!["o_orderkey", "o_orderpriority", "l_orderkey", "l_shipmode", "l_commitdate", "l_shipdate", "l_receiptdate"]),
        ("Q13", vec!["c_custkey", "o_orderkey", "o_custkey", "o_comment"]),
        ("Q14", vec!["l_partkey", "l_shipdate", "l_extendedprice", "l_discount", "p_partkey", "p_type"]),
        ("Q15", vec!["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount", "s_suppkey", "s_name", "s_address", "s_phone"]),
        ("Q16", vec!["ps_partkey", "ps_suppkey", "p_partkey", "p_brand", "p_type", "p_size", "s_suppkey", "s_comment"]),
        ("Q17", vec!["l_partkey", "l_quantity", "l_extendedprice", "p_partkey", "p_brand", "p_container"]),
        ("Q18", vec!["c_name", "c_custkey", "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice", "l_orderkey", "l_quantity"]),
        ("Q19", vec!["l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipmode", "l_shipinstruct", "p_partkey", "p_brand", "p_container", "p_size"]),
        ("Q20", vec!["s_suppkey", "s_name", "s_address", "s_nationkey", "n_nationkey", "n_name", "ps_partkey", "ps_suppkey", "ps_availqty", "p_partkey", "p_name", "l_partkey", "l_suppkey", "l_shipdate", "l_quantity"]),
        ("Q21", vec!["s_suppkey", "s_name", "s_nationkey", "l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate", "o_orderkey", "o_orderstatus", "n_nationkey", "n_name"]),
        ("Q22", vec!["c_phone", "c_acctbal", "c_custkey", "o_custkey"]),
    ]
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct TpchConfig {
    /// TPC-H scale factor. The paper uses 0.5; the harness default of 0.01
    /// keeps runtimes laptop-friendly while preserving all cardinality
    /// *ratios* (which is what schema recovery and relative overhead depend
    /// on).
    pub scale: f64,
    /// RNG seed for the synthetic values.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self { scale: 0.01, seed: 0x79C4 }
    }
}

/// Generates TPC-H-shaped entities.
pub struct TpchGenerator {
    config: TpchConfig,
    schema: Vec<RelationSchema>,
}

impl TpchGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics on a non-positive scale.
    pub fn new(config: TpchConfig) -> Self {
        assert!(config.scale > 0.0, "scale must be positive");
        Self { config, schema: tpch_schema() }
    }

    /// The relation schemas.
    pub fn schema(&self) -> &[RelationSchema] {
        &self.schema
    }

    /// Scaled row count per relation (index-aligned with
    /// [`tpch_schema`]). `region` and `nation` stay fixed per the spec;
    /// every other relation gets at least one row.
    pub fn row_counts(&self) -> Vec<u64> {
        BASE_ROWS
            .iter()
            .map(|&(i, base)| {
                if i <= 1 {
                    base
                } else {
                    ((base as f64 * self.config.scale).round() as u64).max(1)
                }
            })
            .collect()
    }

    /// Generates all rows as universal-table entities, interleaved
    /// round-robin across relations (so Cinderella sees shapes in mixed
    /// order, as a real load would), with sequential entity ids.
    ///
    /// Returns `(entities, relation index per entity)` so experiments can
    /// check which relation each entity came from.
    pub fn generate(&self, catalog: &mut AttributeCatalog) -> (Vec<Entity>, Vec<usize>) {
        let ids: Vec<Vec<AttrId>> = self
            .schema
            .iter()
            .map(|r| r.intern_into(catalog))
            .collect();
        let counts = self.row_counts();
        let total: u64 = counts.iter().sum();
        let mut remaining = counts.clone();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut entities = Vec::with_capacity(total as usize);
        let mut origin = Vec::with_capacity(total as usize);
        let mut eid = 0u64;
        // Deal rows out proportionally: each round emits one row of every
        // relation that still owes rows, largest-first within the round.
        while entities.len() < total as usize {
            let mut order: Vec<usize> = (0..self.schema.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(remaining[i]));
            for rel in order {
                if remaining[rel] == 0 {
                    continue;
                }
                remaining[rel] -= 1;
                entities.push(self.row(rel, &ids[rel], eid, &mut rng));
                origin.push(rel);
                eid += 1;
            }
        }
        (entities, origin)
    }

    #[expect(clippy::expect_used, reason = "a relation's schema columns are unique")]
    fn row(&self, rel: usize, ids: &[AttrId], eid: u64, rng: &mut StdRng) -> Entity {
        let schema = &self.schema[rel];
        let attrs: Vec<(AttrId, Value)> = schema
            .columns
            .iter()
            .zip(ids)
            .map(|(col, id)| {
                let v = match col.kind {
                    Int => Value::Int(rng.gen_range(0..1_000_000)),
                    Float => Value::Float(f64::from(rng.gen_range(0..1_000_000u32)) / 100.0),
                    Text => Value::Text(format!("{}#{}", &col.name[..2], rng.gen_range(0..10_000u32))),
                };
                (*id, v)
            })
            .collect();
        Entity::new(EntityId(eid), attrs).expect("schema columns unique")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schema_has_eight_relations_with_standard_arities() {
        let s = tpch_schema();
        assert_eq!(s.len(), 8);
        let arities: Vec<usize> = s.iter().map(RelationSchema::arity).collect();
        assert_eq!(arities, vec![3, 4, 7, 8, 9, 5, 9, 16]);
        // 61 distinct column names in total.
        let names: HashSet<&str> = s
            .iter()
            .flat_map(|r| r.columns.iter().map(|c| c.name.as_str()))
            .collect();
        assert_eq!(names.len(), 61);
    }

    #[test]
    fn query_columns_all_exist_in_schema() {
        let s = tpch_schema();
        let names: HashSet<&str> = s
            .iter()
            .flat_map(|r| r.columns.iter().map(|c| c.name.as_str()))
            .collect();
        let queries = tpch_query_columns();
        assert_eq!(queries.len(), 22);
        for (q, cols) in &queries {
            assert!(!cols.is_empty(), "{q} empty");
            for c in cols {
                assert!(names.contains(c), "{q} references unknown column {c}");
            }
            let distinct: HashSet<&&str> = cols.iter().collect();
            assert_eq!(distinct.len(), cols.len(), "{q} has duplicate columns");
        }
    }

    #[test]
    fn row_counts_scale_proportionally() {
        let g = TpchGenerator::new(TpchConfig { scale: 0.01, seed: 1 });
        let counts = g.row_counts();
        assert_eq!(counts[0], 5); // region fixed
        assert_eq!(counts[1], 25); // nation fixed
        assert_eq!(counts[7], 60_000); // lineitem = 6M × 0.01
        assert_eq!(counts[6], 15_000);
        // lineitem:orders ratio is 4:1 regardless of scale.
        let g2 = TpchGenerator::new(TpchConfig { scale: 0.002, seed: 1 });
        let c2 = g2.row_counts();
        assert_eq!(c2[7] / c2[6], 4);
    }

    #[test]
    fn generated_entities_match_their_relation_shape() {
        let g = TpchGenerator::new(TpchConfig { scale: 0.001, seed: 2 });
        let mut catalog = AttributeCatalog::new();
        let (entities, origin) = g.generate(&mut catalog);
        assert_eq!(catalog.len(), 61);
        assert_eq!(entities.len(), origin.len());
        let expected_total: u64 = g.row_counts().iter().sum();
        assert_eq!(entities.len() as u64, expected_total);
        let schema = g.schema();
        for (e, &rel) in entities.iter().zip(&origin) {
            assert_eq!(e.arity(), schema[rel].arity(), "entity of {}", schema[rel].name);
            let syn = schema[rel].synopsis(&catalog);
            assert_eq!(e.synopsis(catalog.len()), syn);
        }
        // Entity ids are unique and dense.
        let ids: HashSet<u64> = entities.iter().map(|e| e.id().0).collect();
        assert_eq!(ids.len(), entities.len());
    }

    #[test]
    fn interleaving_mixes_relations_early() {
        let g = TpchGenerator::new(TpchConfig { scale: 0.001, seed: 2 });
        let mut catalog = AttributeCatalog::new();
        let (_, origin) = g.generate(&mut catalog);
        // Within the first round (≤ 8 entities) every relation appears.
        let head: HashSet<usize> = origin.iter().take(8).copied().collect();
        assert_eq!(head.len(), 8, "first 8 entities cover all relations");
    }
}
