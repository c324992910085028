//! The paper's `SIZE()` function.

use crate::{Entity, ValueRef};

/// How `SIZE(e)` and `SIZE(p)` are measured (Definition 1).
///
/// The paper defines `SIZE()` as "how much has to be read to scan the entity
/// or all entities in a partition". Two natural instantiations:
///
/// * [`SizeModel::Cells`] — the number of instantiated attributes. This is
///   the logical reading cost in an interpreted sparse format and the model
///   used throughout the evaluation.
/// * [`SizeModel::Bytes`] — the serialized payload size.
///
/// Either way the partition capacity `B` counts entities, as the evaluation
/// gives it (`cinderella_core::Config::capacity`): `SIZE()` shapes the
/// ratings and Definition 1, not when a partition splits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SizeModel {
    /// `SIZE(e)` = number of instantiated attributes (cells).
    #[default]
    Cells,
    /// `SIZE(e)` = serialized value payload in bytes.
    Bytes,
}

impl SizeModel {
    /// `SIZE(e)` for one entity under this model.
    pub fn entity_size(&self, e: &Entity) -> u64 {
        self.size_of(e.attrs().iter().map(|(_, v)| v.borrowed()))
    }

    /// `SIZE(e)` of an entity whose instantiated values are `values`,
    /// wherever they lie — the one definition [`Self::entity_size`] reads.
    pub fn size_of<'v>(&self, values: impl ExactSizeIterator<Item = ValueRef<'v>>) -> u64 {
        match self {
            SizeModel::Cells => values.len() as u64,
            SizeModel::Bytes => values.map(|v| v.payload_len() as u64).sum(),
        }
    }
}

impl std::str::FromStr for SizeModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cells" => Ok(Self::Cells),
            "bytes" => Ok(Self::Bytes),
            other => Err(format!("bad size model {other:?}; use cells|bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrId, EntityId, Value};

    #[test]
    fn size_model_parses() {
        assert_eq!("cells".parse::<SizeModel>().unwrap(), SizeModel::Cells);
        assert_eq!("bytes".parse::<SizeModel>().unwrap(), SizeModel::Bytes);
        assert!("Cells".parse::<SizeModel>().is_err());
    }

    #[test]
    fn cells_counts_attributes() {
        let e = Entity::new(
            EntityId(1),
            [
                (AttrId(0), Value::Text("abcdef".into())),
                (AttrId(1), Value::Int(1)),
            ],
        )
        .unwrap();
        assert_eq!(SizeModel::Cells.entity_size(&e), 2);
        assert_eq!(SizeModel::Bytes.entity_size(&e), 6 + 8);
    }

    #[test]
    fn empty_entity_has_zero_size() {
        let e = Entity::empty(EntityId(1));
        assert_eq!(SizeModel::Cells.entity_size(&e), 0);
        assert_eq!(SizeModel::Bytes.entity_size(&e), 0);
    }
}
