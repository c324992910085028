//! Query selectivity — the x-axis of Figs. 5 and 6.

use cind_storage::{StorageError, UniversalTable};

use crate::Query;

/// Selectivity of `query` against the whole stored table (a full scan): the
/// fraction of entities relevant to the query (`|e ∧ q| ≥ 1`).
///
/// Note the paper's convention: *lower* selectivity values mean *more
/// selective* queries (fewer rows returned); "selectivity < 0.2" marks the
/// regime where Cinderella wins.
pub fn selectivity(table: &UniversalTable, query: &Query) -> Result<f64, StorageError> {
    let mut total = 0u64;
    let mut matching = 0u64;
    for seg in table.segment_ids() {
        table.scan(seg, |e| {
            total += 1;
            if query.matches(e) {
                matching += 1;
            }
        })?;
    }
    Ok(if total == 0 { 0.0 } else { matching as f64 / total as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::{AttrId, Entity, EntityId, Value};

    #[test]
    fn selectivity_over_table() {
        let mut t = UniversalTable::new(16);
        let a = t.catalog_mut().intern("a");
        let b = t.catalog_mut().intern("b");
        let seg = t.create_segment();
        for i in 0..4u64 {
            let attrs = if i % 4 == 0 {
                vec![(a, Value::Int(1))]
            } else {
                vec![(b, Value::Int(1))]
            };
            t.insert(seg, &Entity::new(EntityId(i), attrs).unwrap()).unwrap();
        }
        let q = Query::from_attrs(2, [AttrId(a.0)]);
        assert!((selectivity(&t, &q).unwrap() - 0.25).abs() < 1e-12);
    }
}
