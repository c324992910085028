//! Attribute identifiers and the interning catalog.

use crate::ModelError;
use std::collections::HashMap;
use std::sync::Arc;

/// A dense identifier for an attribute of a universal table.
///
/// Ids are handed out contiguously from 0 by [`AttributeCatalog`], so they
/// double as bit positions in synopsis bitsets and as column indices in
/// reports.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The id as a bitset index.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for AttrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Bidirectional attribute-name dictionary of one universal table.
///
/// The catalog is append-only: attributes are never removed (an attribute
/// that no entity instantiates simply never matches a synopsis). This
/// mirrors the paper's setup where the universal table's attribute set only
/// grows as new kinds of entities appear.
///
/// Both directions sit behind [`Arc`]s, so `clone()` is two reference-count
/// bumps and a clone shares its tables with the original until one of them
/// interns a name the other has not seen: only that miss copies
/// ([`Arc::make_mut`]). An epoch snapshot of a table whose attribute set has
/// stopped growing therefore costs nothing per attribute.
#[derive(Clone, Default, Debug)]
pub struct AttributeCatalog {
    names: Arc<Vec<String>>,
    by_name: Arc<HashMap<String, AttrId>>,
}

impl AttributeCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a catalog pre-populated with `names`, in order.
    ///
    /// # Errors
    /// Returns [`ModelError::DuplicateAttribute`] on a repeated name.
    pub fn from_names<S: Into<String>>(
        names: impl IntoIterator<Item = S>,
    ) -> Result<Self, ModelError> {
        let mut c = Self::new();
        for n in names {
            let n = n.into();
            if c.lookup(&n).is_some() {
                return Err(ModelError::DuplicateAttribute(n));
            }
            c.intern(&n);
        }
        Ok(c)
    }

    /// Returns the id for `name`, interning it if unseen. A known name
    /// never un-shares the catalog from its clones.
    pub fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = AttrId(self.names.len() as u32);
        Arc::make_mut(&mut self.names).push(name.to_owned());
        Arc::make_mut(&mut self.by_name).insert(name.to_owned(), id);
        id
    }

    /// Whether `self` and `other` still share both tables — true of a
    /// clone until either side interns an unseen name.
    pub fn shares_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.names, &other.names) && Arc::ptr_eq(&self.by_name, &other.by_name)
    }

    /// Returns the id for `name` if already interned.
    pub fn lookup(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of `id`, or `None` for a foreign id.
    pub fn name(&self, id: AttrId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of attributes in the catalog — the synopsis universe size.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no attribute has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (AttrId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut c = AttributeCatalog::new();
        let a = c.intern("name");
        let b = c.intern("weight");
        assert_eq!(a, AttrId(0));
        assert_eq!(b, AttrId(1));
        assert_eq!(c.intern("name"), a);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn only_an_unseen_name_unshares_a_clone() {
        let mut live = AttributeCatalog::from_names(["a", "b"]).unwrap();
        let frozen = live.clone();
        assert!(live.shares_with(&frozen));
        assert_eq!(Arc::strong_count(&live.names), 2);
        // A hit reads the shared map and copies nothing.
        assert_eq!(live.intern("b"), AttrId(1));
        assert!(live.shares_with(&frozen));
        // A miss copies both tables, once; the clone keeps the old ones.
        assert_eq!(live.intern("c"), AttrId(2));
        assert!(!Arc::ptr_eq(&live.names, &frozen.names));
        assert!(!Arc::ptr_eq(&live.by_name, &frozen.by_name));
        assert_eq!((frozen.len(), frozen.lookup("c"), frozen.name(AttrId(2))), (2, None, None));
        assert_eq!((live.len(), live.lookup("c"), live.name(AttrId(2))), (3, Some(AttrId(2)), Some("c")));
        // Unshared again: further misses mutate in place.
        let names = Arc::as_ptr(&live.names);
        live.intern("d");
        assert_eq!(Arc::as_ptr(&live.names), names);
        assert_eq!(Arc::strong_count(&frozen.names), 1);
    }

    #[test]
    fn lookup_and_name_roundtrip() {
        let mut c = AttributeCatalog::new();
        let id = c.intern("aperture");
        assert_eq!(c.lookup("aperture"), Some(id));
        assert_eq!(c.lookup("tuner"), None);
        assert_eq!(c.name(id), Some("aperture"));
        assert_eq!(c.name(AttrId(99)), None);
    }

    #[test]
    fn from_names_rejects_duplicates() {
        assert!(AttributeCatalog::from_names(["a", "b", "a"]).is_err());
        let c = AttributeCatalog::from_names(["a", "b"]).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("b"), Some(AttrId(1)));
    }

    #[test]
    fn iter_in_id_order() {
        let c = AttributeCatalog::from_names(["x", "y", "z"]).unwrap();
        let v: Vec<_> = c.iter().map(|(id, n)| (id.0, n.to_owned())).collect();
        assert_eq!(
            v,
            vec![(0, "x".into()), (1, "y".into()), (2, "z".into())]
        );
    }

    #[test]
    fn display_attr_id() {
        assert_eq!(AttrId(7).to_string(), "a7");
    }
}
