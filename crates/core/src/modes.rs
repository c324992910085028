//! Entity-based vs. workload-based synopses (§II–III).
//!
//! The catalog maintains one synopsis space — attributes, by reference
//! counts — and the rating space is a view of it: [`SynopsisMode::rating_of`]
//! maps an attribute synopsis to its rating synopsis, and the same function
//! serves entities and partitions. In entity-based mode it is the identity.
//! In workload-based mode it is `{i : q_i ∧ s ≠ ∅}`, and because an OR over
//! members commutes with that relevance test, the rating synopsis of a
//! partition (the OR of its members' rating synopses) is the projection of
//! its attribute synopsis.

use std::borrow::Cow;

use cind_model::Synopsis;

/// How entity (and hence partition) synopses are derived for *rating*.
///
/// §II: an entity-based solution clusters entities with similar attribute
/// sets and is workload-independent; a workload-based solution clusters
/// entities relevant to the same queries and is tailored to a known query
/// set. §III: "for a workload-based partitioning, an entity synopsis lists
/// the queries an entity is relevant to, while [for an entity-based
/// partitioning] an entity synopsis lists the attributes an entity
/// instantiates."
///
/// Query-time pruning always uses *attribute* synopses, the one space the
/// partition catalog maintains.
#[derive(Clone, Debug, Default)]
pub enum SynopsisMode {
    /// Rating synopsis = the entity's attribute set.
    #[default]
    EntityBased,
    /// Rating synopsis = the set of workload queries the entity is relevant
    /// to (query `q` is relevant iff `|e ∧ q| ≥ 1`). The vector holds the
    /// workload's query synopses in attribute space; bit `i` of an entity's
    /// rating synopsis corresponds to `queries[i]`.
    WorkloadBased(Vec<Synopsis>),
}

impl SynopsisMode {
    /// The rating synopsis of attribute synopsis `attrs` — an entity's or a
    /// partition's. Entity-based: `attrs` itself, borrowed. Workload-based:
    /// the queries `attrs` is relevant to.
    pub fn rating_of<'a>(&self, attrs: &'a Synopsis) -> Cow<'a, Synopsis> {
        match self {
            SynopsisMode::EntityBased => Cow::Borrowed(attrs),
            SynopsisMode::WorkloadBased(queries) => Cow::Owned(Synopsis::from_bits(
                queries.len(),
                queries
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| !q.is_disjoint(attrs))
                    .map(|(i, _)| i as u32),
            )),
        }
    }

    /// The attributes a partition must carry one of to share a rating bit
    /// with `rating`: `rating` itself entity-based, the union of the rated
    /// queries' attributes workload-based. A partition's rating synopsis
    /// meets `rating` iff its attribute synopsis meets this cover, so the
    /// attribute index answers the insert scan's candidate lookup exactly.
    pub fn attr_cover<'a>(&self, rating: &'a Synopsis) -> Cow<'a, Synopsis> {
        match self {
            SynopsisMode::EntityBased => Cow::Borrowed(rating),
            SynopsisMode::WorkloadBased(queries) => {
                let mut cover = Synopsis::default();
                for i in rating.iter() {
                    cover.merge(&queries[i.index() as usize]);
                }
                Cow::Owned(cover)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::{AttrId, Entity, EntityId, Value};

    fn entity(attrs: &[u32]) -> Entity {
        Entity::new(
            EntityId(1),
            attrs.iter().map(|&a| (AttrId(a), Value::Int(0))),
        )
        .unwrap()
    }

    #[test]
    fn entity_based_is_the_attribute_set() {
        let s = entity(&[1, 3]).synopsis(8);
        assert_eq!(s, Synopsis::from_bits(8, [1, 3]));
        assert!(matches!(SynopsisMode::EntityBased.rating_of(&s), Cow::Borrowed(_)));
        assert!(matches!(SynopsisMode::EntityBased.attr_cover(&s), Cow::Borrowed(_)));
    }

    #[test]
    fn workload_based_marks_relevant_queries() {
        let queries = vec![
            Synopsis::from_bits(8, [0]),    // q0: attr 0
            Synopsis::from_bits(8, [1, 2]), // q1: attrs 1,2
            Synopsis::from_bits(8, [5]),    // q2: attr 5
        ];
        let mode = SynopsisMode::WorkloadBased(queries);
        let e = entity(&[1, 3]); // relevant to q1 only
        assert_eq!(*mode.rating_of(&e.synopsis(8)), Synopsis::from_bits(3, [1]));
        // An entity matching nothing has an empty rating synopsis.
        assert!(mode.rating_of(&entity(&[7]).synopsis(8)).is_empty());
        // A partition {1, 3} ∨ {5} is relevant to q1 and q2 — the OR of its
        // members' rating synopses.
        let p = Synopsis::from_bits(8, [1, 3, 5]);
        assert_eq!(*mode.rating_of(&p), Synopsis::from_bits(3, [1, 2]));
        // The cover of rating {q0, q2} is q0 ∨ q2.
        let rating = Synopsis::from_bits(3, [0, 2]);
        assert_eq!(*mode.attr_cover(&rating), Synopsis::from_bits(8, [0, 5]));
    }
}
