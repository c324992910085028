//! Zipf-distributed sampling.

use rand::Rng;

/// A Zipf sampler over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ 1 / (k+1)^s`.
///
/// Uses a precomputed CDF and binary search — O(n) setup, O(log n) per
/// sample — which is plenty for the generator workloads here (n ≤ a few
/// hundred).
///
/// ```
/// use cind_datagen::Zipf;
/// use rand::SeedableRng;
///
/// let z = Zipf::new(10, 1.0);
/// assert!(z.pmf(0) > z.pmf(9), "head ranks are likelier");
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert!(z.sample(&mut rng) < 10);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite and ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (construction requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let hi = self.cdf[k];
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        hi - lo
    }

    /// Samples a rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one_and_decays() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..50 {
            assert!(z.pmf(k) <= z.pmf(k - 1));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_matches_pmf_roughly() {
        let z = Zipf::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 20];
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let observed = f64::from(count) / f64::from(n);
            let expected = z.pmf(k);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {k}: observed {observed:.4} vs expected {expected:.4}"
            );
        }
    }

    #[test]
    fn sample_is_always_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }
}
