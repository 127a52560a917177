//! Order statistics for latency samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it. `p` in (0, 1].
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n >= 1`.
fn rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 1.0, "percentile must be in (0, 1]");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples ranked strictly above the nearest-rank `p` value.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at
/// least ten samples beyond it, or `None` for a sample too small even for
/// the median. A tail read from fewer than ten samples is one outlier's
/// opinion.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
}

pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    nearest_rank(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.51), 6.0);
        assert_eq!(nearest_rank(&s, 0.9), 9.0);
        assert_eq!(nearest_rank(&s, 0.99), 10.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.001), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(1400), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1400, 0.999), 1);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
