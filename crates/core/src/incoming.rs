//! An entity on its way into the table, encoded once.

use cind_model::{AttrId, Entity, EntityId, SizeModel, Synopsis, ValueRef};
use cind_storage::{encode_record, Signature};

/// What Algorithm 1 and the table need of one entity to place and store
/// it: its id, its attribute synopsis, `SIZE(e)`, and its stored record
/// with that record's [`Signature`] — each computed once, by
/// [`Incoming::encode`], before anything is changed.
///
/// A caller that keeps one `Incoming` and re-encodes it entity after
/// entity reuses its record buffer and, while the attribute universe does
/// not grow, its synopsis: the server's write path allocates neither per
/// entity. [`crate::Cinderella::insert`] builds a fresh one from an
/// [`Entity`].
#[derive(Debug)]
pub struct Incoming {
    id: EntityId,
    attrs: Synopsis,
    size: u64,
    record: Vec<u8>,
    signature: Signature,
}

impl Default for Incoming {
    fn default() -> Self {
        Self {
            id: EntityId(0),
            attrs: Synopsis::default(),
            size: 0,
            record: Vec::new(),
            signature: 0,
        }
    }
}

impl Incoming {
    /// Encodes `entity` against a universe of `universe` attributes.
    pub fn of(entity: &Entity, universe: usize, size_model: SizeModel) -> Self {
        let mut incoming = Self::default();
        let attrs = entity.attrs().iter().map(|(attr, value)| (*attr, value.borrowed()));
        incoming.encode(entity.id(), universe, size_model, attrs);
        incoming
    }

    /// Re-fills this value with entity `id` holding `attrs` — strictly
    /// ascending attribute ids, all below `universe` — under `size_model`.
    /// The synopsis is sized to `universe` exactly, as
    /// [`Entity::synopsis`] sizes it, so the rating scan sees the same
    /// bits either way.
    pub fn encode<'v>(
        &mut self,
        id: EntityId,
        universe: usize,
        size_model: SizeModel,
        attrs: impl ExactSizeIterator<Item = (AttrId, ValueRef<'v>)> + Clone,
    ) {
        self.id = id;
        if self.attrs.bits().capacity() == universe {
            self.attrs.bits_mut().blocks_mut().fill(0);
        } else {
            self.attrs = Synopsis::empty(universe);
        }
        for (attr, _) in attrs.clone() {
            self.attrs.add(attr);
        }
        self.size = size_model.size_of(attrs.clone().map(|(_, value)| value));
        self.record.clear();
        self.signature = encode_record(id, attrs, &mut self.record);
    }

    /// The entity id.
    pub fn id(&self) -> EntityId {
        self.id
    }

    /// The attribute synopsis `s_e`.
    pub fn attrs(&self) -> &Synopsis {
        &self.attrs
    }

    /// `SIZE(e)` under the size model it was encoded with.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The record as it will be stored.
    pub fn record(&self) -> &[u8] {
        &self.record
    }

    /// The record's signature.
    pub fn signature(&self) -> Signature {
        self.signature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::Value;
    use cind_storage::encode_entity;

    #[test]
    fn encoding_matches_the_entity_way_and_reuses_its_buffers() {
        let entity = |id: u64, attrs: &[(u32, Value)]| {
            Entity::new(EntityId(id), attrs.iter().map(|(a, v)| (AttrId(*a), v.clone()))).unwrap()
        };
        let a = entity(3, &[(0, Value::Text("x".repeat(200))), (130, Value::Int(-9))]);
        let b = entity(4, &[(1, Value::Bool(true)), (2, Value::Float(0.5))]);
        let mut incoming = Incoming::of(&a, 140, SizeModel::Bytes);
        assert_eq!(incoming.record(), encode_entity(&a).as_slice());
        assert_eq!(*incoming.attrs(), a.synopsis(140));
        assert_eq!(incoming.size(), SizeModel::Bytes.entity_size(&a));
        let words = incoming.attrs().bits().blocks().as_ptr();
        let attrs = b.attrs().iter().map(|(attr, value)| (*attr, value.borrowed()));
        incoming.encode(b.id(), 140, SizeModel::Cells, attrs);
        assert_eq!((incoming.id(), incoming.record()), (b.id(), encode_entity(&b).as_slice()));
        assert_eq!(*incoming.attrs(), b.synopsis(140));
        assert_eq!(incoming.attrs().bits().capacity(), 140);
        assert_eq!(incoming.attrs().bits().blocks().as_ptr(), words, "same universe, same words");
        assert_eq!(incoming.size(), 2);
    }
}
