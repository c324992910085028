//! Split-starter maintenance (Algorithm 1, lines 15–24).
//!
//! Each partition keeps a pair of member entities whose synopses differ as
//! much as possible — the *split starters*. The pair is maintained
//! incrementally: the first two entities form the initial pair; every later
//! arrival replaces one starter if pairing it with the *other* starter
//! yields a larger difference `|e₁ ⊕ e₂|` than the current pair. This is a
//! heuristic (the true most-differential pair would cost a quadratic scan),
//! but it is O(1) per insert, which is what makes the split affordable
//! online.

use cind_model::{EntityId, Synopsis};

/// The split-starter pair of one partition.
///
/// Starter synopses are cached here so maintenance never re-reads stored
/// entities. A starter slot can be vacated by a delete; the pair is then
/// backfilled by later inserts, or repaired by a scan at split time
/// (`Cinderella::pick_seeds`).
#[derive(Debug, Default)]
pub struct SplitStarters {
    a: Option<(EntityId, Synopsis)>,
    b: Option<(EntityId, Synopsis)>,
    /// Cached `DIFF(a, b)`; valid when both slots are filled.
    diff_ab: u32,
}

impl SplitStarters {
    /// Empty pair (fresh partition).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starter A, if set.
    pub fn a(&self) -> Option<(EntityId, &Synopsis)> {
        self.a.as_ref().map(|(id, s)| (*id, s))
    }

    /// Starter B, if set.
    pub fn b(&self) -> Option<(EntityId, &Synopsis)> {
        self.b.as_ref().map(|(id, s)| (*id, s))
    }

    /// The cached difference of the current pair (0 unless both set).
    pub fn pair_diff(&self) -> u32 {
        if self.a.is_some() && self.b.is_some() {
            self.diff_ab
        } else {
            0
        }
    }

    /// Algorithm 1, lines 12 and 15–24: fold a newly inserted entity into
    /// the pair.
    ///
    /// * empty slot A → `e` becomes starter A (line 12 for new partitions);
    /// * empty slot B → `e` becomes starter B (lines 15–16);
    /// * otherwise `e` replaces the starter it is *less* different from,
    ///   if that improves on the current pair difference (lines 17–24).
    ///
    /// A replaced starter's synopsis is overwritten in place, reusing its
    /// buffer.
    pub fn offer(&mut self, id: EntityId, synopsis: &Synopsis) {
        match (&mut self.a, &mut self.b) {
            (None, _) => self.a = Some((id, synopsis.clone())),
            (Some((_, sa)), None) => {
                self.diff_ab = sa.diff(synopsis);
                self.b = Some((id, synopsis.clone()));
            }
            (Some((a, sa)), Some((b, sb))) => {
                let r_ea = synopsis.diff(sa);
                let r_eb = synopsis.diff(sb);
                let r_ab = self.diff_ab;
                // Paper order: prefer replacing B (e pairs with A), then A.
                if r_ea >= r_eb && r_ea >= r_ab {
                    (*b, self.diff_ab) = (id, r_ea);
                    sb.clone_from(synopsis);
                } else if r_eb >= r_ab {
                    (*a, self.diff_ab) = (id, r_eb);
                    sa.clone_from(synopsis);
                }
            }
        }
    }

    /// Vacates the slot held by `id` (the entity left the partition).
    /// Returns `true` if a slot was vacated.
    pub fn vacate(&mut self, id: EntityId) -> bool {
        if self.a.as_ref().is_some_and(|(a, _)| *a == id) {
            // Keep the pair left-packed so `offer` refills B first.
            self.a = self.b.take();
            true
        } else if self.b.as_ref().is_some_and(|(b, _)| *b == id) {
            self.b = None;
            true
        } else {
            false
        }
    }

    /// Checks the pair's internal invariants: the slots are left-packed (B
    /// is empty whenever A is), the two starters are distinct entities, and
    /// the cached `diff_ab` matches the synopses. Returns a diagnostic for
    /// the first violation.
    pub(crate) fn check(&self) -> Result<(), String> {
        match (&self.a, &self.b) {
            (None, Some((b, _))) => {
                Err(format!("starter B ({b:?}) filled while starter A is empty"))
            }
            (Some((a, sa)), Some((b, sb))) => {
                if a == b {
                    return Err(format!("starters A and B are the same entity {a:?}"));
                }
                let want = sa.diff(sb);
                if self.diff_ab != want {
                    return Err(format!(
                        "cached pair diff {} but DIFF(a, b) = {want}",
                        self.diff_ab
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(bits: &[u32]) -> Synopsis {
        Synopsis::from_bits(16, bits.iter().copied())
    }

    #[test]
    fn first_two_entities_form_the_pair() {
        let mut st = SplitStarters::new();
        st.offer(EntityId(1), &syn(&[0, 1]));
        assert_eq!(st.a().unwrap().0, EntityId(1));
        assert!(st.b().is_none());
        st.offer(EntityId(2), &syn(&[2, 3]));
        assert_eq!(st.b().unwrap().0, EntityId(2));
        assert_eq!(st.pair_diff(), 4);
    }

    #[test]
    fn better_pair_replaces_a_starter() {
        let mut st = SplitStarters::new();
        st.offer(EntityId(1), &syn(&[0, 1])); // A
        st.offer(EntityId(2), &syn(&[0, 2])); // B, diff(A,B) = 2
        // New entity differs from A by 4 (> 2): replaces B.
        st.offer(EntityId(3), &syn(&[2, 3, 4, 5]));
        assert_eq!(st.a().unwrap().0, EntityId(1));
        assert_eq!(st.b().unwrap().0, EntityId(3));
        assert_eq!(st.pair_diff(), syn(&[0, 1]).diff(&syn(&[2, 3, 4, 5])));
    }

    #[test]
    fn replaces_starter_a_when_diff_to_b_wins() {
        let mut st = SplitStarters::new();
        st.offer(EntityId(1), &syn(&[0])); // A
        st.offer(EntityId(2), &syn(&[0, 1])); // B, diff = 1
        // diff(e,A)=1 via {0,2}? Pick e so that diff(e,B) > diff(e,A) and
        // diff(e,B) > diff(A,B): e = {0, 2, 3}: diff to A = 2, diff to B = 3.
        st.offer(EntityId(3), &syn(&[0, 2, 3]));
        // r_eA=2, r_eB=3, r_AB=1 → max is r_eB → e replaces A.
        assert_eq!(st.a().unwrap().0, EntityId(3));
        assert_eq!(st.b().unwrap().0, EntityId(2));
        assert_eq!(st.pair_diff(), 3);
    }

    #[test]
    fn worse_entity_leaves_pair_untouched() {
        let mut st = SplitStarters::new();
        st.offer(EntityId(1), &syn(&[0, 1, 2]));
        st.offer(EntityId(2), &syn(&[5, 6, 7]));
        let before = st.pair_diff();
        st.offer(EntityId(3), &syn(&[0, 1, 5])); // close to both
        assert_eq!(st.a().unwrap().0, EntityId(1));
        assert_eq!(st.b().unwrap().0, EntityId(2));
        assert_eq!(st.pair_diff(), before);
    }

    #[test]
    fn vacate_promotes_b_and_refills() {
        let mut st = SplitStarters::new();
        st.offer(EntityId(1), &syn(&[0]));
        st.offer(EntityId(2), &syn(&[1]));
        assert!(st.vacate(EntityId(1)));
        assert_eq!(st.a().unwrap().0, EntityId(2));
        assert!(st.b().is_none());
        assert_eq!(st.pair_diff(), 0);
        assert!(!st.vacate(EntityId(9)));
        st.offer(EntityId(3), &syn(&[2, 3]));
        assert_eq!(st.b().unwrap().0, EntityId(3));
    }
}
