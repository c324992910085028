//! Per-segment synopsis and size accounting shared by the baselines.

use cind_model::{Entity, Synopsis};
use cind_storage::SegmentId;

/// Exact synopsis/size bookkeeping for one segment, maintained by attribute
/// reference counts (same invariant as Cinderella's catalog: the synopsis is
/// always the OR of the member synopses).
#[derive(Clone, Debug)]
pub struct SegmentAccounting {
    /// The segment.
    pub segment: SegmentId,
    /// Attribute synopsis.
    pub synopsis: Synopsis,
    /// `SIZE(p)` in cells.
    pub size: u64,
    /// Member count.
    pub entities: u64,
    counts: Vec<u32>,
}

impl SegmentAccounting {
    /// Empty accounting for `segment`.
    pub fn new(segment: SegmentId) -> Self {
        Self {
            segment,
            synopsis: Synopsis::default(),
            size: 0,
            entities: 0,
            counts: Vec::new(),
        }
    }

    /// Accounts an inserted entity.
    pub fn add(&mut self, e: &Entity) {
        for (a, _) in e.attrs() {
            let idx = a.index() as usize;
            if self.counts.len() <= idx {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += 1;
            if self.counts[idx] == 1 {
                self.synopsis.bits_mut().grow(idx + 1);
                self.synopsis.bits_mut().insert(a.index());
            }
        }
        self.size += e.arity() as u64;
        self.entities += 1;
    }

    /// Accounts a removed entity. Returns the remaining member count.
    pub fn remove(&mut self, e: &Entity) -> u64 {
        for (a, _) in e.attrs() {
            let idx = a.index() as usize;
            assert!(self.counts[idx] > 0, "count underflow");
            self.counts[idx] -= 1;
            if self.counts[idx] == 0 {
                self.synopsis.bits_mut().remove(a.index());
            }
        }
        self.size -= e.arity() as u64;
        self.entities -= 1;
        self.entities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::{AttrId, EntityId, Value};

    fn entity(id: u64, attrs: &[u32]) -> Entity {
        Entity::new(
            EntityId(id),
            attrs.iter().map(|&a| (AttrId(a), Value::Int(1))),
        )
        .unwrap()
    }

    #[test]
    fn add_remove_keeps_or_invariant() {
        let mut acc = SegmentAccounting::new(SegmentId(0));
        let e1 = entity(1, &[0, 1]);
        let e2 = entity(2, &[1, 2]);
        acc.add(&e1);
        acc.add(&e2);
        assert_eq!(acc.entities, 2);
        assert_eq!(acc.size, 4);
        assert_eq!(acc.synopsis, Synopsis::from_bits(3, [0, 1, 2]));
        assert_eq!(acc.remove(&e1), 1);
        assert_eq!(acc.synopsis, Synopsis::from_bits(3, [1, 2]));
        assert_eq!(acc.remove(&e2), 0);
        assert!(acc.synopsis.is_empty());
        assert_eq!(acc.size, 0);
    }
}
