//! Order statistics for timing samples.

/// Median and quartiles of a sample set, plus its nearest-rank p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        Some(Summary {
            n: v.len(),
            q1,
            median,
            q3,
            p99: nearest_rank(&v, 99.0),
        })
    }

    /// Samples strictly beyond the nearest-rank p99.
    pub fn beyond_p99(&self) -> usize {
        self.n - rank(self.n, 99.0)
    }
}

/// Quartiles of sorted data by the "exclusive" method, the default of
/// Python's `statistics.quantiles(data, n=4)`, so a spread computed here
/// matches one computed from the printed values. One sample is its own
/// quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let m = sorted.len();
    if m == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let n = 4;
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// The median of unsorted samples; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.median)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
/// Computed in integer per-mille so that, e.g., p99.9 of 10,000 samples
/// is exactly rank 9,990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of sorted, non-empty data.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The nearest-rank 90th percentile of unsorted, non-empty samples: for
/// a throughput series, the rate the fastest tenth of rounds reached.
/// Host interference on a shared machine slows whole seconds at a time,
/// which moves a median by up to 2x but leaves this tail in place.
pub fn fast_decile(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 90.0)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it among `n`; `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[3.0, 7.0]), (2.0, 5.0, 8.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_is_nearest_rank_with_its_tail_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.beyond_p99(), 10);
        let s = Summary::of(&v[..200]).expect("non-empty");
        assert_eq!(s.p99, 198.0);
        assert_eq!(s.beyond_p99(), 2);
    }

    #[test]
    fn fast_decile_is_the_nearest_rank_p90() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&v), 18.0);
        assert_eq!(fast_decile(&[7.0]), 7.0);
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(3100), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
