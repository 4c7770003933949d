//! Order statistics over timing samples.

/// Sorted copy of `samples` (total order; NaN sorts last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for an even count).
/// 0 for an empty slice, so an unmeasured metric reads 0 rather than NaN.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The smallest sample; 0 for an empty slice. What a timing is read as when
/// the only disturbance is one-sided (see `Measured::report_end_to_end`).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the two
/// nearest order statistics. 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples a percentile must leave beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99 / p95 / p90 / p75 that still has at least
/// [`TAIL_MIN_BEYOND`] of the `n` samples beyond it, or `None` when even
/// p75 does not (fewer than 40 samples): a percentile resting on a handful
/// of samples is one slow sample, not a tail.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= TAIL_MIN_BEYOND * 100)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method) — the spread the acceptance rule is stated in.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (at(3) - at(1)) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.95), 96.0);
        assert_eq!(quantile(&v, 1.0), 101.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 leaves 5 % beyond it: 199 samples leave 9.95, 200 leave 10.
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-15);
        assert_eq!(iqr_over_median(&[5.0]), 0.0);
    }
}
