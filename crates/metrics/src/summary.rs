//! Five-number summaries (Fig. 7 box-plot data).

/// Minimum, quartiles, maximum, and mean of a sample.
///
/// ```
/// use cind_metrics::Summary;
/// let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
/// assert_eq!((s.min, s.median, s.max, s.mean), (1.0, 2.0, 3.0, 2.0));
/// assert!(Summary::of(&[]).is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    /// Smallest value.
    pub min: f64,
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q75: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub count: usize,
}

impl Summary {
    /// Summarises `values`; `None` when empty or when any value is NaN.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| {
            // Linear interpolation between closest ranks.
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        Some(Self {
            min: sorted[0],
            q25: q(0.25),
            median: q(0.5),
            q75: q(0.75),
            max: *sorted.last()?,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            count: sorted.len(),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min={:.3} q25={:.3} med={:.3} q75={:.3} max={:.3} mean={:.3} (n={})",
            self.min, self.q25, self.median, self.q75, self.max, self.mean, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_numbers_of_a_range() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q25, 3.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q75, 7.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.count, 9);
    }

    #[test]
    fn interpolates_between_ranks() {
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!(s.median, 1.5);
        assert_eq!(s.q25, 1.25);
        assert_eq!(s.q75, 1.75);
    }

    #[test]
    fn single_value_and_empty() {
        let s = Summary::of(&[4.2]).unwrap();
        assert_eq!(s.min, 4.2);
        assert_eq!(s.max, 4.2);
        assert_eq!(s.median, 4.2);
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn unsorted_input_is_fine() {
        let s = Summary::of(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.max, 9.0);
    }
}
