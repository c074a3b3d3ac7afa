//! Property tests pinning the histogram's two core contracts:
//!
//! 1. **Bucket bounds** — every recorded value lies inside the inclusive
//!    bounds of the bucket it was binned into, and quantile estimates are
//!    conservative: at or above the true quantile, within one bucket
//!    width, and never above the exactly-tracked max.
//! 2. **Merge algebra** — snapshot merge is associative and commutative,
//!    with the empty snapshot as identity, and merging two histograms
//!    equals recording their samples into one.

use od_obs::{bucket_bounds, bucket_index, HistogramSnapshot, LatencyHistogram};
use proptest::collection::vec;
use proptest::prelude::*;

/// Values spanning every octave the histogram bins, plus the clamp range:
/// a raw 64-bit draw shifted right by a uniform amount is log-uniform-ish,
/// hitting the exact region (<32), µs/ms/s-scale latencies, and the
/// overflow tail with comparable probability.
fn value() -> impl Strategy<Value = u64> {
    (0u32..64, 0u64..u64::MAX).prop_map(|(shift, raw)| raw >> shift)
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn recorded_value_lies_within_its_bucket(v in value()) {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        prop_assert!(lo <= v && v <= hi,
            "value {v} binned into [{lo}, {hi}]");
    }

    #[test]
    fn bucket_index_is_monotone(a in value(), b in value()) {
        let (a, b) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(a) <= bucket_index(b),
            "smaller value must never land in a later bucket");
    }

    #[test]
    fn quantile_estimates_are_conservative_and_tight(
        mut values in vec(value(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let snap = snapshot_of(&values);
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let truth = values[rank - 1];
        let est = snap.quantile(q);
        // Never below the true quantile…
        prop_assert!(est >= truth, "estimate {est} under true quantile {truth}");
        // …never above the true quantile's bucket upper bound (≤ 6.25%
        // relative error), and never above the exact max.
        let (_, hi) = bucket_bounds(bucket_index(truth));
        prop_assert!(est <= hi.min(snap.max),
            "estimate {est} above bucket bound {hi} / max {}", snap.max);
    }

    #[test]
    fn count_sum_max_are_exact(values in vec(value(), 0..200)) {
        let snap = snapshot_of(&values);
        prop_assert_eq!(snap.count(), values.len() as u64);
        // Sums of u64 samples can overflow in theory; these strategies stay
        // far below that, so the tracked sum is exact.
        let total: u128 = values.iter().map(|&v| v as u128).sum();
        if total <= u64::MAX as u128 {
            prop_assert_eq!(snap.sum, total as u64);
        }
        prop_assert_eq!(snap.max, values.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn merge_is_associative_and_commutative(
        a in vec(value(), 0..100),
        b in vec(value(), 0..100),
        c in vec(value(), 0..100),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "merge must be associative");

        // a ⊕ b == b ⊕ a
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        // identity
        let mut with_empty = sa.clone();
        with_empty.merge(&HistogramSnapshot::empty());
        prop_assert_eq!(&with_empty, &sa, "empty must be the identity");
    }

    #[test]
    fn merge_equals_recording_together(
        a in vec(value(), 0..100),
        b in vec(value(), 0..100),
    ) {
        let mut merged = snapshot_of(&a);
        merged.merge(&snapshot_of(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(merged, snapshot_of(&both));
    }
}
