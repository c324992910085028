//! The brute-force correctness oracle: a `BTreeMap` model of the inserted
//! entities that answers queries by definition ("every entity that has at
//! least one requested attribute, projected in request order") and digests
//! result sets so a server answer can be compared without keeping it.

use std::collections::BTreeMap;

use cind_model::Value;
use cind_server::client::Row;
use cind_server::WireEntity;

use crate::workload::Fnv;

/// Row count plus an order-independent content checksum of a result set
/// (the server returns rows in shard-then-segment order, the model in id
/// order; rows carry no id, so the digest is a multiset hash).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Digest {
    pub rows: u64,
    pub checksum: u64,
}

impl Digest {
    fn add_row<'a>(&mut self, cells: impl Iterator<Item = Option<&'a Value>>) {
        let mut h = Fnv::new();
        for cell in cells {
            match cell {
                None => h.bytes(&[0]),
                Some(Value::Bool(b)) => h.bytes(&[1, u8::from(*b)]),
                Some(Value::Int(i)) => {
                    h.bytes(&[2]);
                    h.u64(*i as u64);
                }
                Some(Value::Float(f)) => {
                    h.bytes(&[3]);
                    h.u64(f.to_bits());
                }
                Some(Value::Text(s)) => {
                    h.bytes(&[4]);
                    h.bytes(s.as_bytes());
                    h.bytes(&[0xff]);
                }
            }
        }
        self.rows += 1;
        // Wrapping sum of well-mixed row hashes: order-independent, and
        // duplicates do not cancel the way xor would let them.
        self.checksum = self.checksum.wrapping_add(h.0 | 1);
    }

    /// Digest of rows as the server returned them.
    pub fn of_rows(rows: &[Row]) -> Self {
        let mut d = Self::default();
        for row in rows {
            d.add_row(row.iter().map(Option::as_ref));
        }
        d
    }
}

/// The model: entities by id, plus per-attribute posting lists of ids.
#[derive(Default)]
pub struct Model<'a> {
    entities: BTreeMap<u64, &'a WireEntity>,
    postings: BTreeMap<&'a str, Vec<u64>>,
}

impl<'a> Model<'a> {
    pub fn insert(&mut self, e: &'a WireEntity) {
        self.entities.insert(e.id, e);
        for (name, _) in &e.attrs {
            self.postings.entry(name.as_str()).or_default().push(e.id);
        }
    }

    pub fn get(&self, id: u64) -> Option<&'a WireEntity> {
        self.entities.get(&id).copied()
    }

    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.entities.keys().copied()
    }

    /// What a correct server answers for `SELECT attrs` right now.
    pub fn expect(&self, attrs: &[String]) -> Digest {
        let mut ids: Vec<u64> = attrs
            .iter()
            .filter_map(|a| self.postings.get(a.as_str()))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut d = Digest::default();
        for id in ids {
            let e = self.entities[&id];
            d.add_row(
                attrs
                    .iter()
                    .map(|a| e.attrs.iter().find(|(n, _)| n == a).map(|(_, v)| v)),
            );
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entity(id: u64, attrs: &[(&str, i64)]) -> WireEntity {
        WireEntity {
            id,
            attrs: attrs
                .iter()
                .map(|(n, v)| ((*n).to_string(), Value::Int(*v)))
                .collect(),
        }
    }

    #[test]
    fn expect_matches_rows_in_any_order() {
        let es = [
            entity(1, &[("a", 1), ("b", 2)]),
            entity(2, &[("b", 3)]),
            entity(3, &[("c", 4)]),
        ];
        let mut m = Model::default();
        es.iter().for_each(|e| m.insert(e));
        let q = ["a".to_string(), "b".to_string()];
        let want = m.expect(&q);
        assert_eq!(want.rows, 2);
        let rows: Vec<Row> = vec![
            vec![None, Some(Value::Int(3))],
            vec![Some(Value::Int(1)), Some(Value::Int(2))],
        ];
        assert_eq!(Digest::of_rows(&rows), want);
        // A wrong cell, a swapped column, a missing or doubled row all differ.
        let wrong: Vec<Row> = vec![
            rows[0].clone(),
            vec![Some(Value::Int(1)), Some(Value::Int(9))],
        ];
        assert_ne!(Digest::of_rows(&wrong), want);
        let swapped: Vec<Row> = vec![
            rows[0].clone(),
            vec![Some(Value::Int(2)), Some(Value::Int(1))],
        ];
        assert_ne!(Digest::of_rows(&swapped), want);
        assert_ne!(Digest::of_rows(&rows[..1]), want);
        let doubled: Vec<Row> = vec![rows[0].clone(), rows[0].clone()];
        assert_ne!(Digest::of_rows(&doubled).checksum, 0);
        assert_eq!(m.expect(&["zzz".to_string()]), Digest::default());
    }
}
