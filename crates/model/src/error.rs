//! Model-layer errors.

use crate::{AttrId, EntityId};

/// Errors produced when constructing model objects.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// An attribute name was registered twice in a catalog.
    DuplicateAttribute(String),
    /// An entity was built with the same attribute instantiated twice.
    DuplicateEntityAttribute {
        /// The offending entity.
        entity: EntityId,
        /// The attribute that appeared twice.
        attr: AttrId,
    },
    /// An entity was built from pairs claimed to be sorted by attribute id
    /// that were not.
    UnsortedEntityAttribute {
        /// The offending entity.
        entity: EntityId,
        /// The first attribute smaller than its predecessor.
        attr: AttrId,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::DuplicateAttribute(name) => {
                write!(f, "attribute {name:?} registered twice in catalog")
            }
            ModelError::DuplicateEntityAttribute { entity, attr } => {
                write!(f, "entity {entity} instantiates attribute {attr} twice")
            }
            ModelError::UnsortedEntityAttribute { entity, attr } => {
                write!(f, "entity {entity} lists attribute {attr} out of order")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ModelError::DuplicateAttribute("name".into());
        assert!(e.to_string().contains("name"));
        let e = ModelError::DuplicateEntityAttribute { entity: EntityId(3), attr: AttrId(7) };
        assert!(e.to_string().contains("e3"));
        assert!(e.to_string().contains("a7"));
    }
}
