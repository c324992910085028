//! The Cinderella partition rating (§IV of the paper).

use cind_bitset::FusedCounts;
use cind_model::Synopsis;

/// The raw ingredients of one entity/partition rating.
///
/// All four set cardinalities come either from a *single* fused word pass
/// over the synopses ([`Synopsis::fused`], the reference) or from the
/// catalog's scan kernel: one AND-popcount per word plus the cached `|p|`
/// and the once-counted `|e|`, the same integers. Sizes come from the
/// partition catalog.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RatingInputs {
    /// `SIZE(e)`.
    pub size_e: u64,
    /// `SIZE(p)`.
    pub size_p: u64,
    /// `|e ∧ p|` — shared attributes.
    pub overlap: u32,
    /// `|¬e ∧ p|` — attributes the partition has but the entity lacks.
    pub entity_missing: u32,
    /// `|e ∧ ¬p|` — attributes the entity has but the partition lacks.
    pub partition_missing: u32,
    /// `|e ∨ p|` — union cardinality (normaliser).
    pub union_count: u32,
}

impl RatingInputs {
    /// Computes the counts for an entity synopsis `e` against a partition
    /// synopsis `p`, with the given sizes — one fused pass over the words.
    pub fn compute(e: &Synopsis, size_e: u64, p: &Synopsis, size_p: u64) -> Self {
        Self::from_fused(e.fused(p), size_e, size_p)
    }

    /// The counts from an already-computed fused kernel result, with the
    /// left operand the entity and the right the partition. This is the
    /// arena sweep's entry point: the kernel ran on raw word rows.
    pub fn from_fused(c: FusedCounts, size_e: u64, size_p: u64) -> Self {
        Self {
            size_e,
            size_p,
            overlap: c.and,
            entity_missing: c.right - c.and,
            partition_missing: c.left - c.and,
            union_count: c.or,
        }
    }
}

/// The local rating `r' = w·h⁺ − (1−w)·(h⁻_e + h⁻_p)` with
///
/// * homogeneity `h⁺ = (SIZE(p) + SIZE(e)) · |e ∧ p|`,
/// * entity heterogeneity `h⁻_e = SIZE(e) · |¬e ∧ p|`,
/// * partition heterogeneity `h⁻_p = SIZE(p) · |e ∧ ¬p|`.
pub fn local_rating(w: f64, i: &RatingInputs) -> f64 {
    let h_pos = (i.size_p + i.size_e) as f64 * f64::from(i.overlap);
    let h_ent = i.size_e as f64 * f64::from(i.entity_missing);
    let h_part = i.size_p as f64 * f64::from(i.partition_missing);
    w * h_pos - (1.0 - w) * (h_ent + h_part)
}

/// The global rating `r = r' / ((SIZE(p) + SIZE(e)) · |e ∨ p|)`.
///
/// The normaliser is zero only when both operands carry no evidence at all
/// (`|e ∨ p| = 0`, or both sizes are zero); `r'` is then also zero and the
/// rating is defined as neutral 0 rather than NaN — such a pair neither
/// attracts nor repels.
pub fn global_rating(w: f64, i: &RatingInputs) -> f64 {
    let denom = normaliser(i);
    if denom == 0.0 {
        return 0.0;
    }
    local_rating(w, i) / denom
}

/// `(SIZE(p) + SIZE(e)) · |e ∨ p|`, the global rating's normaliser.
fn normaliser(i: &RatingInputs) -> f64 {
    (i.size_p + i.size_e) as f64 * f64::from(i.union_count)
}

/// [`global_rating`] where it is `≥ 0`, `None` where it is negative —
/// decided by the sign of `r'`, so only a rating that can win is divided.
/// The catalog's masked scan rates the candidates that pass its can-win
/// mask through this.
///
/// Exact in `f64` for `w ≤ 1`: `Some(r)` carries the very `f64`
/// `global_rating` returns, and `None` means that `f64` is strictly
/// negative (never `-0.0`), so it can neither beat nor tie any rating
/// `≥ 0`. With normaliser `d = 0` both give 0. With `d > 0`, `r = r' / d`:
///
/// * `r' ≥ 0` (`-0.0` included): the quotient is `≥ 0`, or `-0.0`, which
///   compares `≥ 0` as well — the same test `global_rating`'s callers apply.
/// * `r' < 0`: the quotient is negative unless it underflows to `-0.0`,
///   and it cannot. `r' = a − b` with `a = w·h⁺ ≥ 0` and
///   `b = (1−w)·(h⁻_e + h⁻_p) > a`. The heterogeneity sum is a positive
///   integer-valued `f64`, so `≥ 1`, and `1 − w ≥ 2⁻⁵³` for every `f64`
///   `w < 1` (at `w = 1`, `b = 0` and `r'` is never negative); rounding
///   is monotone, so `b ≥ 2⁻⁵³`. If `a ≤ b/2`, `|r'| ≥ b/2 ≥ 2⁻⁵⁴`.
///   Otherwise `a` and `b` are normal `f64`s `≥ 2⁻⁵⁴`, both multiples of
///   `2⁻¹⁰⁶`, and so is their non-zero difference (exact, by Sterbenz):
///   `|r'| ≥ 2⁻¹⁰⁶`. A `u64` sum times a `u32` count rounds to
///   `d ≤ 2⁹⁶`, so `|r| ≥ 2⁻²⁰²`, far above the smallest subnormal.
pub(crate) fn nonnegative_rating(w: f64, i: &RatingInputs) -> Option<f64> {
    let denom = normaliser(i);
    if denom == 0.0 {
        return Some(0.0);
    }
    let local = local_rating(w, i);
    (local >= 0.0).then(|| local / denom)
}

/// The can-win threshold `⌈(1−w)·n⌉`, rounded down where `f64` rounding
/// could matter: a partition can rate `≥ 0` against an entity only if
/// their overlap `a = |e ∧ p|` reaches this threshold for `n = |e|` or for
/// `n = |p|`. The catalog's masked scan compares bit-sliced overlap counts
/// with it, so only slots that pass are rated.
///
/// Sound for every `w < 1` whenever `SIZE(e) > 0` (the indexed scan's
/// precondition): if [`nonnegative_rating`] returns `Some`, then
/// `a ≥ can_win_threshold(w, |e|)` or `a ≥ can_win_threshold(w, |p|)`.
/// Exactly, `r' = SIZE(p)·(a − (1−w)|e|) + SIZE(e)·(a − (1−w)|p|)`, so a
/// non-negative `r'` needs one bracket `≥ 0`. In `f64`, with
/// `v = fl(1 − w)` (the very factor [`local_rating`] uses) and `u = 2⁻⁵³`,
/// `local_rating ≥ 0` means `fl(w·h⁺) ≥ fl(v·(h⁻_e + h⁻_p))`. For
/// `w ≥ 0` each side is its exact value within three, resp. four,
/// roundings (the heterogeneity side is an integer sum, 0 or `≥ v ≥ 2⁻⁵³`,
/// never subnormal; if `w·h⁺` is, that sum must be 0, so `a = |p|`, which
/// passes). Hence `a·s ≥ v·|e|` or `a·s ≥ v·|p|` with
/// `s = w·(1+u)³/(1−u)⁴ + v ≤ 1 + 8.01u`. The threshold computed here is
/// at most `fl(v·n)·(1 − 2⁻⁴⁰)·(1+u) < v·n / (1 + 8.01u)`, so every
/// integer `a` that passes the exact test passes this one. For `w < 0`
/// (which [`Config`](crate::Config) rejects) `r' ≥ 0` in `f64` needs a
/// zero heterogeneity sum, so `a = |p|` again, and `fl(w·h⁺) = 0` leaves
/// only `a = |p| = 0` or `w = -0.0` (threshold `|p|`). Rounding down only
/// ever lets an extra slot through to the exact sign test.
pub fn can_win_threshold(w: f64, n: u32) -> u32 {
    /// `1 − 2⁻⁴⁰`: far above the ~10 ulps of slack the bound needs, far
    /// below the gap between two thresholds of cardinalities below 2⁴⁰.
    const ROUND_DOWN: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;
    // A saturating cast: NaN (a NaN weight) reads 0, which passes all.
    ((1.0 - w) * f64::from(n) * ROUND_DOWN).ceil() as u32
}

/// Convenience: global rating straight from synopses and sizes.
pub fn rate(w: f64, e: &Synopsis, size_e: u64, p: &Synopsis, size_p: u64) -> f64 {
    global_rating(w, &RatingInputs::compute(e, size_e, p, size_p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(bits: &[u32]) -> Synopsis {
        Synopsis::from_bits(32, bits.iter().copied())
    }

    /// Hand-computed example in the shape of the paper's Fig. 3: the entity
    /// shares two attributes with the partition, misses one of the
    /// partition's and brings one of its own.
    #[test]
    fn hand_computed_rating() {
        let e = syn(&[0, 1, 2]); // entity: a0 a1 a2
        let p = syn(&[0, 1, 3]); // partition: a0 a1 a3
        let i = RatingInputs::compute(&e, 3, &p, 12);
        assert_eq!(i.overlap, 2);
        assert_eq!(i.entity_missing, 1);
        assert_eq!(i.partition_missing, 1);
        assert_eq!(i.union_count, 4);
        // h+ = (12+3)*2 = 30 ; h_e- = 3*1 = 3 ; h_p- = 12*1 = 12
        let w = 0.5;
        let r_local = local_rating(w, &i);
        assert!((r_local - (0.5 * 30.0 - 0.5 * 15.0)).abs() < 1e-12);
        let r = global_rating(w, &i);
        assert!((r - 7.5 / (15.0 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn perfect_match_rates_w() {
        // e == p: overlap = |e|, no heterogeneity.
        // r = w*(S_p+S_e)*|e| / ((S_p+S_e)*|e|) = w.
        let e = syn(&[1, 2, 3]);
        let r = rate(0.3, &e, 3, &e, 30);
        assert!((r - 0.3).abs() < 1e-12);
    }

    #[test]
    fn disjoint_nonempty_rates_negative() {
        let e = syn(&[0, 1]);
        let p = syn(&[2, 3]);
        for w in [0.0, 0.2, 0.5, 0.9] {
            assert!(rate(w, &e, 2, &p, 10) < 0.0, "w={w}");
        }
        // …except at w = 1, where negative evidence is ignored entirely.
        assert_eq!(rate(1.0, &e, 2, &p, 10), 0.0);
    }

    #[test]
    fn weight_zero_rejects_any_heterogeneity() {
        let e = syn(&[0, 1]);
        let p = syn(&[0, 1, 2]); // partition has one extra attribute
        assert!(rate(0.0, &e, 2, &p, 9) < 0.0);
        // but a perfectly matching pair still rates 0 (not positive).
        assert_eq!(rate(0.0, &e, 2, &syn(&[0, 1]), 9), 0.0);
    }

    #[test]
    fn higher_weight_never_lowers_rating() {
        let e = syn(&[0, 1, 4]);
        let p = syn(&[0, 2, 4, 7]);
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=10 {
            let w = f64::from(step) / 10.0;
            let r = rate(w, &e, 3, &p, 20);
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn empty_evidence_is_neutral() {
        let empty = syn(&[]);
        assert_eq!(rate(0.5, &empty, 0, &empty, 0), 0.0);
        // Empty entity against any partition: no overlap, no heterogeneity
        // that weighs anything (sizes multiply to zero on the entity side,
        // counts on the partition side).
        let p = syn(&[1, 2]);
        assert_eq!(rate(0.5, &empty, 0, &p, 10), 0.0);
    }

    /// The sign-first rating is `global_rating` wherever that is `≥ 0` and
    /// `None` exactly where it is negative — at weights next to 1, where
    /// `1 − w` is smallest, and with sizes near the top of `u64`, where the
    /// normaliser is largest.
    #[test]
    fn nonnegative_rating_is_global_rating_where_it_can_win() {
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let weights = [0.0, 1e-300, 0.2, 0.5, 0.999, below_one, 1.0];
        let sizes = [0, 1, 2, 7, 5_000, 1 << 40, u64::MAX / 2];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (left, right) = ((x % 9) as u32, ((x >> 8) % 9) as u32);
            let and = ((x >> 16) as u32 % 9).min(left).min(right);
            let counts = FusedCounts { and, or: left + right - and, left, right };
            let size_e = sizes[(x >> 24) as usize % sizes.len()];
            let size_p = sizes[(x >> 32) as usize % sizes.len()];
            let i = RatingInputs::from_fused(counts, size_e, size_p);
            for w in weights {
                let r = global_rating(w, &i);
                let want = (r >= 0.0).then_some(r.to_bits());
                assert_eq!(nonnegative_rating(w, &i).map(f64::to_bits), want, "{i:?} w {w}");
            }
        }
    }

    /// Wherever the sign-first rating is `Some`, the overlap reaches the
    /// can-win threshold of `|e|` or of `|p|` — at weights whose `(1−w)·n`
    /// lands on an integer, next to 1, and with sizes near the top of
    /// `u64`. At `w = 0` the thresholds are the cardinalities themselves.
    #[test]
    fn a_rating_that_can_win_reaches_a_threshold() {
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let weights = [0.0, 1e-300, 0.2, 0.25, 0.3, 0.5, 0.7, 0.75, 0.999, below_one];
        let sizes = [0, 1, 2, 7, 5_000, 1 << 40, u64::MAX / 2];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (left, right) = (1 + (x % 40) as u32, ((x >> 8) % 40) as u32);
            let and = ((x >> 16) as u32 % 41).min(left).min(right);
            let counts = FusedCounts { and, or: left + right - and, left, right };
            let size_e = sizes[1 + (x >> 24) as usize % (sizes.len() - 1)];
            let size_p = sizes[(x >> 32) as usize % sizes.len()];
            let i = RatingInputs::from_fused(counts, size_e, size_p);
            for w in weights {
                if nonnegative_rating(w, &i).is_some() {
                    let (te, tp) = (can_win_threshold(w, left), can_win_threshold(w, right));
                    assert!(and >= te || and >= tp, "{i:?} w {w}: thresholds {te} {tp}");
                }
            }
        }
        assert_eq!(can_win_threshold(0.0, 7), 7);
        assert_eq!(can_win_threshold(0.25, 4), 3, "an integer threshold stays put");
        assert_eq!(can_win_threshold(0.2, 7), 6);
        assert_eq!(can_win_threshold(0.5, 0), 0);
    }

    #[test]
    fn rating_is_bounded_by_plus_minus_one() {
        // |r| ≤ max(w, 1-w) ≤ 1 because h+ ≤ (S_p+S_e)·|e∨p| and
        // h_e- + h_p- ≤ (S_p+S_e)·|e∨p|.
        let cases = [
            (&[0u32, 1, 2][..], 3u64, &[0u32, 1, 3][..], 100u64),
            (&[5][..], 1, &[5][..], 1),
            (&[0, 1][..], 9, &[4, 5, 6][..], 2),
        ];
        for w in [0.0, 0.3, 1.0] {
            for (eb, se, pb, sp) in cases {
                let r = rate(w, &syn(eb), se, &syn(pb), sp);
                assert!((-1.0..=1.0).contains(&r), "r={r} out of bounds");
            }
        }
    }
}
