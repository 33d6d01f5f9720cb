//! Order statistics for latency samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
/// Empty input yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples support reporting percentile `p`: at least ten
/// samples must lie beyond its nearest rank.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= 10
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (nearest-rank p50; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// so the spread printed here is the one the acceptance rule uses.
/// Fewer than two samples yield the sample (or 0) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return [data.first().copied().unwrap_or(0.0); 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 3000 leaves 150 beyond; of 200 exactly 10; of 199 only 9.
        assert!(supports(3000, 95.0));
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        // 30 reps support the median and nothing near the tail.
        assert!(supports(30, 50.0));
        assert!(!supports(30, 75.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }
}
