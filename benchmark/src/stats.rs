//! Order statistics the benchmark reports: percentiles, the supported
//! tail percentile, and quartile spread.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is trusted.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank of the `p`-th percentile among `n` samples. `p * n` is exact
/// for whole percentiles, so the ceiling never tips on rounding noise.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// Returns the nearest-rank `p`-th percentile (`p` in `[0, 100]`) of an
/// ascending sample; `None` for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// Sorts a sample ascending (NaNs are not expected; they sort last).
pub fn sort(sample: &mut [f64]) {
    sample.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// Median of an unsorted sample; 0 for an empty one (per-layer metrics of
/// a layer that did not run read 0).
pub fn median(sample: &[f64]) -> f64 {
    let mut s = sample.to_vec();
    sort(&mut s);
    percentile(&s, 50.0).unwrap_or(0.0)
}

/// The highest candidate percentile that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value. A sample too
/// small for any candidate reports its median as the "tail" (p50).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    for p in TAIL_CANDIDATES {
        if n >= rank(p, n) + TAIL_MIN_BEYOND {
            return percentile(sorted, p).map(|v| (p, v));
        }
    }
    percentile(sorted, 50.0).map(|v| (50.0, v))
}

/// `(q1, median, q3)` the way Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them — the driver judges spread with that
/// function, so `compare`/`selfcheck` must too. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut s = values.to_vec();
    sort(&mut s);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, m, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: ceil(989.01) = 990 leaves 9 beyond -> drop to p95.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(95.0));
        // 200 -> p95 (10 beyond); 199 -> p90.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(199)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(99)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // Too small for any tail: falls back to the median.
        assert_eq!(tail(&ramp(39)), Some((50.0, 20.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, m, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (m - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, m, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (m - 1.5).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(4);
        assert_eq!(percentile(&s, 50.0), Some(2.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
