//! Descriptions of regular relational schemas.
//!
//! The Table I experiment loads perfectly *regular* data (TPC-H) into a
//! Cinderella-partitioned universal table and checks that the discovered
//! partitions coincide with the original relations. This module describes
//! such relations so the generator (`cind-datagen::tpch`) and the schema
//! recovery check (`tests/tpch_recovery.rs`) share one source of truth.

use crate::{AttrId, AttributeCatalog, Synopsis};

/// The value domain of a regular column, used by generators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColumnKind {
    /// Synthetic integer key or quantity.
    Int,
    /// Synthetic decimal (price, discount, …), generated as a float.
    Float,
    /// Synthetic short text (names, comments, flags, dates-as-text).
    Text,
}

/// One column of a regular relation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Column {
    /// Column name, unique across the whole schema (TPC-H column names carry
    /// a relation prefix, e.g. `l_orderkey`).
    pub name: String,
    /// Value domain.
    pub kind: ColumnKind,
}

/// A regular relation: a name and an ordered column list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelationSchema {
    /// Relation name (e.g. `lineitem`).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl RelationSchema {
    /// Builds a relation schema from `(name, kind)` pairs.
    pub fn new<S: Into<String>>(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = (S, ColumnKind)>,
    ) -> Self {
        Self {
            name: name.into(),
            columns: columns
                .into_iter()
                .map(|(n, kind)| Column { name: n.into(), kind })
                .collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Interns every column into `catalog` and returns the ids in column
    /// order.
    pub fn intern_into(&self, catalog: &mut AttributeCatalog) -> Vec<AttrId> {
        self.columns.iter().map(|c| catalog.intern(&c.name)).collect()
    }

    /// The synopsis an entity of this relation has, given a catalog that
    /// already knows all columns.
    ///
    /// # Panics
    /// Panics if a column is missing from the catalog.
    #[expect(clippy::panic, reason = "documented: every column is interned before the call")]
    pub fn synopsis(&self, catalog: &AttributeCatalog) -> Synopsis {
        Synopsis::from_attrs(
            catalog.len(),
            self.columns.iter().map(|c| {
                catalog
                    .lookup(&c.name)
                    .unwrap_or_else(|| panic!("column {} not in catalog", c.name))
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> RelationSchema {
        RelationSchema::new(
            "nation",
            [
                ("n_nationkey", ColumnKind::Int),
                ("n_name", ColumnKind::Text),
                ("n_regionkey", ColumnKind::Int),
                ("n_comment", ColumnKind::Text),
            ],
        )
    }

    #[test]
    fn arity_and_columns() {
        let r = rel();
        assert_eq!(r.arity(), 4);
        assert_eq!(r.columns[1].name, "n_name");
        assert_eq!(r.columns[0].kind, ColumnKind::Int);
    }

    #[test]
    fn intern_and_synopsis() {
        let r = rel();
        let mut cat = AttributeCatalog::new();
        cat.intern("unrelated");
        let ids = r.intern_into(&mut cat);
        assert_eq!(ids.len(), 4);
        assert_eq!(cat.len(), 5);
        let s = r.synopsis(&cat);
        assert_eq!(s.cardinality(), 4);
        assert!(!s.contains(cat.lookup("unrelated").unwrap()));
        assert!(s.contains(cat.lookup("n_comment").unwrap()));
    }

    #[test]
    #[should_panic(expected = "not in catalog")]
    fn synopsis_panics_on_unknown_column() {
        let r = rel();
        let cat = AttributeCatalog::new();
        let _ = r.synopsis(&cat);
    }
}
