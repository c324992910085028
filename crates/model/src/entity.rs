//! Entities of a universal table.

use crate::{AttrId, ModelError, Synopsis, Value};

/// Unique identifier of an entity within one universal table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntityId(pub u64);

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An entity: an id plus its instantiated attributes.
///
/// Attributes are kept sorted by [`AttrId`] and unique; absent attributes are
/// simply not stored (the sparse universal-table representation of Beckmann
/// et al. that the paper builds on). The paper's entity synopsis `s_e` is
/// derived from the attribute set via [`Entity::synopsis`].
#[derive(Clone, PartialEq, Debug)]
pub struct Entity {
    id: EntityId,
    attrs: Vec<(AttrId, Value)>,
}

impl Entity {
    /// Creates an entity from unsorted attribute/value pairs.
    ///
    /// # Errors
    /// Returns [`ModelError::DuplicateEntityAttribute`] if an attribute
    /// appears twice.
    pub fn new(
        id: EntityId,
        attrs: impl IntoIterator<Item = (AttrId, Value)>,
    ) -> Result<Self, ModelError> {
        let mut attrs: Vec<(AttrId, Value)> = attrs.into_iter().collect();
        attrs.sort_by_key(|(a, _)| *a);
        Self::from_sorted(id, attrs)
    }

    /// Creates an entity from pairs already in strictly ascending attribute
    /// order, taking the vector as is — the record decoder's constructor:
    /// one comparison per attribute instead of [`Entity::new`]'s collect and
    /// sort.
    ///
    /// # Errors
    /// Returns [`ModelError::DuplicateEntityAttribute`] if an attribute
    /// appears twice in a row and [`ModelError::UnsortedEntityAttribute`] if
    /// an attribute id is smaller than its predecessor.
    pub fn from_sorted(id: EntityId, attrs: Vec<(AttrId, Value)>) -> Result<Self, ModelError> {
        for w in attrs.windows(2) {
            match w[0].0.cmp(&w[1].0) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => {
                    return Err(ModelError::DuplicateEntityAttribute { entity: id, attr: w[0].0 });
                }
                std::cmp::Ordering::Greater => {
                    return Err(ModelError::UnsortedEntityAttribute { entity: id, attr: w[1].0 });
                }
            }
        }
        Ok(Self { id, attrs })
    }

    /// Creates an entity with no attributes.
    pub fn empty(id: EntityId) -> Self {
        Self { id, attrs: Vec::new() }
    }

    /// The entity id.
    pub fn id(&self) -> EntityId {
        self.id
    }

    /// The instantiated attributes, sorted by id.
    pub fn attrs(&self) -> &[(AttrId, Value)] {
        &self.attrs
    }

    /// Number of instantiated attributes — the entity's size in *cells*.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The value of `attr`, if instantiated.
    pub fn get(&self, attr: AttrId) -> Option<&Value> {
        self.attrs
            .binary_search_by_key(&attr, |(a, _)| *a)
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    /// Whether `attr` is instantiated.
    pub fn has(&self, attr: AttrId) -> bool {
        self.get(attr).is_some()
    }

    /// Sets `attr` to `value`, replacing an existing value. Returns the old
    /// value if there was one.
    pub fn set(&mut self, attr: AttrId, value: Value) -> Option<Value> {
        match self.attrs.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => Some(std::mem::replace(&mut self.attrs[i].1, value)),
            Err(i) => {
                self.attrs.insert(i, (attr, value));
                None
            }
        }
    }

    /// Builds the entity synopsis `s_e` over a universe of `universe`
    /// attributes.
    ///
    /// # Panics
    /// Panics if an attribute id is outside the universe (a catalog bug).
    pub fn synopsis(&self, universe: usize) -> Synopsis {
        Synopsis::from_bits(universe, self.attrs.iter().map(|(a, _)| a.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u64, attrs: &[(u32, i64)]) -> Entity {
        Entity::new(
            EntityId(id),
            attrs.iter().map(|&(a, v)| (AttrId(a), Value::Int(v))),
        )
        .unwrap()
    }

    #[test]
    fn new_sorts_attributes() {
        let ent = e(1, &[(5, 50), (1, 10), (3, 30)]);
        let ids: Vec<u32> = ent.attrs().iter().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(ent.arity(), 3);
    }

    #[test]
    fn new_rejects_duplicates() {
        let r = Entity::new(
            EntityId(1),
            [(AttrId(2), Value::Int(1)), (AttrId(2), Value::Int(2))],
        );
        assert!(matches!(
            r,
            Err(ModelError::DuplicateEntityAttribute { attr: AttrId(2), .. })
        ));
    }

    #[test]
    fn from_sorted_accepts_only_strictly_ascending() {
        let pairs = |ids: &[u32]| -> Vec<(AttrId, Value)> {
            ids.iter().map(|&a| (AttrId(a), Value::Int(i64::from(a)))).collect()
        };
        let ent = Entity::from_sorted(EntityId(1), pairs(&[1, 3, 5])).unwrap();
        assert_eq!(ent, e(1, &[(5, 5), (1, 1), (3, 3)]));
        assert_eq!(Entity::from_sorted(EntityId(1), Vec::new()).unwrap(), Entity::empty(EntityId(1)));
        assert!(matches!(
            Entity::from_sorted(EntityId(1), pairs(&[1, 3, 3])),
            Err(ModelError::DuplicateEntityAttribute { attr: AttrId(3), .. })
        ));
        assert!(matches!(
            Entity::from_sorted(EntityId(1), pairs(&[1, 5, 3])),
            Err(ModelError::UnsortedEntityAttribute { attr: AttrId(3), .. })
        ));
    }

    #[test]
    fn get_and_set() {
        let mut ent = e(1, &[(1, 10), (3, 30)]);
        assert_eq!(ent.get(AttrId(1)), Some(&Value::Int(10)));
        assert_eq!(ent.get(AttrId(2)), None);
        assert!(ent.has(AttrId(3)));

        assert_eq!(ent.set(AttrId(1), Value::Int(11)), Some(Value::Int(10)));
        assert_eq!(ent.set(AttrId(2), Value::Int(20)), None);
        let ids: Vec<u32> = ent.attrs().iter().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(ent.arity(), 3);
    }

    #[test]
    fn payload_bytes_sums_values() {
        let ent = Entity::new(
            EntityId(9),
            [
                (AttrId(0), Value::Text("abcd".into())),
                (AttrId(1), Value::Int(1)),
                (AttrId(2), Value::Bool(true)),
            ],
        )
        .unwrap();
        assert_eq!(crate::SizeModel::Bytes.entity_size(&ent), 4 + 8 + 1);
    }

    #[test]
    fn synopsis_reflects_attr_set() {
        let ent = e(1, &[(0, 1), (7, 2)]);
        let s = ent.synopsis(10);
        assert_eq!(s.cardinality(), 2);
        assert!(s.bits().contains(0));
        assert!(s.bits().contains(7));
        assert!(!s.bits().contains(1));
    }

    #[test]
    fn empty_entity() {
        let ent = Entity::empty(EntityId(4));
        assert_eq!(ent.arity(), 0);
        assert_eq!(crate::SizeModel::Bytes.entity_size(&ent), 0);
        assert_eq!(ent.synopsis(8).cardinality(), 0);
    }
}
