//! The reorganizer's cost model: pricing candidate actions in Definition-1
//! terms *before* paying for them.
//!
//! The key observation making this exact rather than heuristic: for a
//! workload `Q`, `EFFICIENCY(P)`'s **numerator** (`Σ_q Σ_e sgn(|e ∧ q|) ·
//! SIZE(e)`) does not depend on the partitioning at all — reorganization
//! cannot change which entities match a query. Only the **denominator**
//! (`Σ_q Σ_p sgn(|p ∧ q|) · SIZE(p)`, the bytes scanned) moves. And the
//! denominator is computable from the partition catalog alone — attribute
//! synopses and sizes, no table I/O — so a candidate action's ΔEFFICIENCY
//! sign is the sign of its scan-cost delta, priced here against the heat
//! map's decayed workload.
//!
//! Per-action facts the driver relies on:
//!
//! * **Merge** `a + b → a∨b`: for a query overlapping both or neither
//!   side the cost is unchanged; overlapping exactly one side starts
//!   paying the other side's size too. The merged synopsis is *exactly*
//!   `a ∨ b` (the catalog keeps per-attribute member counts), so
//!   [`merge_damage`] is exact, not an estimate. Merging never helps the
//!   denominator — its gain is catalog overhead, so the driver enacts it
//!   only on cold partitions where the priced damage is ~zero.
//! * **Re-split** `p → (p₁, p₂)`: every member lands in one of the halves,
//!   so `p₁ ∨ p₂ ⊆ p` and `SIZE(p₁) + SIZE(p₂) = SIZE(p)` — the measured
//!   delta is never positive. [`resplit_saving`] *predicts* the split
//!   using the starter pair as proxies for the halves (the same seeds the
//!   actual split machinery uses), claiming a saving only for queries that
//!   overlap exactly one seed.

use cind_model::Synopsis;

/// The decayed workload: distinct query synopses with occurrence weights.
pub type WeightedQueries = [(Synopsis, u64)];

/// Workload-weighted scan cost of a set of partitions:
/// `Σ_q w_q · Σ_p sgn(|p ∧ q|) · SIZE(p)` — the (weighted) denominator of
/// Definition 1 restricted to `parts`.
#[must_use]
pub fn scan_cost<'a>(
    parts: impl IntoIterator<Item = (&'a Synopsis, u64)>,
    workload: &WeightedQueries,
) -> u128 {
    let mut total = 0u128;
    for (syn, size) in parts {
        for (q, w) in workload {
            if !syn.is_disjoint(q) {
                total += u128::from(*w) * u128::from(size);
            }
        }
    }
    total
}

/// Exact extra scan cost of merging partitions `a` and `b` (synopsis,
/// size): queries overlapping exactly one side start paying for the other
/// side too. Always ≥ 0 — a merge never improves the denominator.
#[must_use]
pub fn merge_damage(
    a: (&Synopsis, u64),
    b: (&Synopsis, u64),
    workload: &WeightedQueries,
) -> u128 {
    let mut damage = 0u128;
    for (q, w) in workload {
        let hits_a = !a.0.is_disjoint(q);
        let hits_b = !b.0.is_disjoint(q);
        let extra = match (hits_a, hits_b) {
            (true, false) => b.1,  // starts scanning b's bytes as well
            (false, true) => a.1,
            _ => 0,
        };
        damage += u128::from(*w) * u128::from(extra);
    }
    damage
}

/// Predicted scan-cost saving of re-splitting partition `p` (synopsis,
/// size), using the split-starter pair `(seed_a, seed_b)` as proxies for
/// the two halves (each at half of `p`'s size). A saving is claimed only
/// for queries that overlap `p` and exactly one seed — queries overlapping
/// both (or neither) seed are conservatively assumed to keep paying the
/// full partition.
///
/// The *measured* saving of an actual re-split is always ≥ 0 (the halves'
/// synopses are subsets of `p`'s and their sizes sum to `SIZE(p)`), so a
/// positive prediction never has the wrong sign — it can only be
/// over-optimistic in magnitude, which the driver's hysteresis threshold
/// absorbs.
#[must_use]
pub fn resplit_saving(
    p: (&Synopsis, u64),
    seed_a: &Synopsis,
    seed_b: &Synopsis,
    workload: &WeightedQueries,
) -> u128 {
    let half_a = p.1 / 2;
    let half_b = p.1 - half_a;
    let mut saving = 0u128;
    for (q, w) in workload {
        if p.0.is_disjoint(q) {
            continue;
        }
        let hits_a = !seed_a.is_disjoint(q);
        let hits_b = !seed_b.is_disjoint(q);
        let saved = match (hits_a, hits_b) {
            (true, false) => half_b, // stops scanning the b-half
            (false, true) => half_a,
            _ => 0,
        };
        saving += u128::from(*w) * u128::from(saved);
    }
    saving
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::AttrId;

    fn syn(bits: &[u32]) -> Synopsis {
        Synopsis::from_attrs(64, bits.iter().map(|&b| AttrId(b)))
    }

    #[test]
    fn scan_cost_counts_overlapping_partitions_weighted() {
        let parts = [(syn(&[1, 2]), 10u64), (syn(&[5]), 100)];
        let workload = vec![(syn(&[1]), 3u64), (syn(&[5]), 1)];
        let cost = scan_cost(parts.iter().map(|(s, z)| (s, *z)), &workload);
        assert_eq!(cost, 3 * 10 + 100);
    }

    #[test]
    fn merge_damage_is_zero_for_twins_and_positive_for_disjoint() {
        let a = (syn(&[1, 2]), 10u64);
        let b = (syn(&[1, 2]), 20u64);
        let w = vec![(syn(&[1]), 5u64)];
        assert_eq!(merge_damage((&a.0, a.1), (&b.0, b.1), &w), 0);

        let c = (syn(&[9]), 20u64);
        // The query hits only `a`; merging drags in c's 20 bytes, ×5.
        assert_eq!(merge_damage((&a.0, a.1), (&c.0, c.1), &w), 100);
    }

    #[test]
    fn resplit_saving_rewards_separable_seeds() {
        let p = (syn(&[1, 2, 9]), 100u64);
        let sa = syn(&[1, 2]);
        let sb = syn(&[9]);
        let w = vec![(syn(&[1]), 2u64), (syn(&[9]), 1)];
        // q=[1] hits only seed a → saves the b-half (50) ×2; q=[9] hits
        // only seed b → saves the a-half (50) ×1.
        assert_eq!(resplit_saving((&p.0, p.1), &sa, &sb, &w), 150);
        // Inseparable seeds predict nothing.
        assert_eq!(resplit_saving((&p.0, p.1), &sa, &sa, &w), 0);
    }
}
