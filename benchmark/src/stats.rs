//! Order statistics the benchmark reports: medians, quartiles, and the
//! highest percentile that still has enough samples beyond it to mean
//! something.

/// Quartiles of `values` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so the spreads
/// `repeat.sh` prints are the ones an outside driver computes from the same
/// numbers.  Needs at least two values; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // `delta` is the numerator of the interpolation weight over 4; the
        // clamp above keeps it within 0..=4 except at the ends, where the
        // exclusive method extrapolates exactly as Python does.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Median of `values`: the middle quartile.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// How many samples a percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p50/p75/p90/p95/p99/p99.9 with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`; `None`
/// below twenty samples, where even the median has fewer than ten beyond.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Per-mille, so that "a tenth of 100 samples" is exactly 10.
    [999usize, 990, 950, 900, 750, 500].into_iter().find_map(|per_mille| {
        let beyond = n * (1000 - per_mille) / 1000;
        (beyond >= TAIL_MIN_BEYOND).then(|| (per_mille as f64 / 10.0, sorted[n - 1 - beyond]))
    })
}

/// Sample count, quartiles and tail of one metric's samples, for the
/// human-readable report.
pub fn describe(values: &[f64]) -> String {
    if values.is_empty() {
        return "n=0".to_string();
    }
    let [q1, q2, q3] = quartiles(values);
    let mut text = format!("n={} q1={q1:.4} q2={q2:.4} q3={q3:.4}", values.len());
    if let Some((p, v)) = tail(values) {
        text.push_str(&format!(" p{p}={v:.4}"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(19)), None, "below 20 samples nothing qualifies");
        assert_eq!(tail(&ramp(20)), Some((50.0, 9.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 89.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 989.0)));
        assert_eq!(tail(&ramp(999)), Some((95.0, 949.0)), "p99 has only 9 beyond");
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9989.0)));
    }
}
