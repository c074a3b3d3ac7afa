//! Order statistics used by every reported number.
//!
//! Three estimators, each the conventional one for its job:
//! - [`percentile`]: nearest-rank on the sorted sample (latency tails —
//!   always an observed value, never an interpolation);
//! - [`median`]: midpoint of the two central values for even counts
//!   (combining per-round estimates);
//! - [`quartiles`]: Python's `statistics.quantiles(values, n=4)`
//!   (exclusive method), so the spread this harness prints is the same
//!   number the acceptance driver computes.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of an unsorted integer sample (nanoseconds, counts).
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` computes them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread every bound in `BENCHMARK.json` is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// Largest `|a − b| / min(a, b)` over all pairs: the A/A noise floor a
/// regression bound is derived from.
pub fn max_pairwise_rel_diff(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: count how much of the sample sits at or below the answer.
    #[test]
    fn percentile_matches_sorted_oracle() {
        let sorted: Vec<u64> = (1..=1000).map(|i| i * 3).collect();
        for q in [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let p = percentile(&sorted, q);
            let at_or_below = sorted.iter().filter(|&&v| v <= p).count();
            assert!(at_or_below as f64 >= q * 1000.0, "q={q}: too low");
            let below = sorted.iter().filter(|&&v| v < p).count();
            assert!((below as f64) < q * 1000.0, "q={q}: not the smallest");
        }
        assert_eq!(percentile(&sorted, 0.5), 1500);
        assert_eq!(percentile(&sorted, 0.99), 2970);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_u64(&[10, 30]), 20.0);
    }

    /// Values from CPython: `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        let five = [10.0, 50.0, 20.0, 40.0, 30.0];
        assert_eq!(quartiles(&five), (15.0, 30.0, 45.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_difference_is_range_over_min() {
        let d = max_pairwise_rel_diff(&[100.0, 110.0, 95.0]);
        assert!((d - 15.0 / 95.0).abs() < 1e-12);
    }
}
