//! A fixed-size log-linear latency histogram.
//!
//! # Bucketing
//!
//! HDR-histogram-style log-linear layout: values below [`SUB`] get one
//! bucket each; every power-of-two octave above is split into [`SUB`]
//! equal sub-buckets. With `SUB = 16` this is *exact* for values `< 32`
//! (bucket width 1) and keeps the relative bucket width at or below
//! `1/16 = 6.25%` everywhere else, which bounds the error of every
//! quantile estimate. The index math is a handful of shifts on the hot
//! path — no search, no floating point.
//!
//! The value domain is `u64`; durations are recorded in nanoseconds
//! ([`LatencyHistogram::record_duration`]), which the top octave caps at
//! about 19 hours — anything larger clamps into the overflow bucket.
//!
//! # Concurrency
//!
//! Recording is three relaxed `fetch_add`/`fetch_max` ops on a
//! *thread-sharded* copy of the bucket array: latency samples cluster in
//! a few hot buckets, and the running `sum`/`max` are touched by every
//! record, so an unsharded histogram serializes every recording thread on
//! the same two or three cache lines (measured at ~9% of engine
//! throughput under 6 threads; sharding brings the stage clock under the
//! 3% ci.sh gate). Shards are merged bucket-wise at snapshot time —
//! the memory cost is `SHARDS ×` the bucket array (~44 KiB per
//! histogram), bought once per registered series, not per sample.
//!
//! Snapshots read the shards without stopping writers. A snapshot taken
//! mid-storm is a valid histogram of *some* subset of the recorded
//! samples (each sample lands in one bucket of one shard, so per-bucket
//! counts are never torn, and bucket counts only grow — the race test in
//! `tests/hammer.rs` pins this). Quantiles and totals are computed from
//! the snapshot's buckets, never from a separately-read count, so a
//! snapshot is always internally consistent.

use crate::scalar::thread_slot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two octave.
const SUB: u64 = 1 << SUB_BITS;
/// Largest value exponent before clamping: values `< 2^(E_MAX + 1)`
/// (~19.5 hours in ns) are binned, larger ones land in the last bucket.
const E_MAX: u32 = 45;
/// Total bucket count.
pub(crate) const NUM_BUCKETS: usize = (SUB as usize) * (E_MAX - SUB_BITS + 2) as usize;

/// Bucket index of `v`. Exact (`lo == hi`) for `v < 32`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    if e > E_MAX {
        return NUM_BUCKETS - 1;
    }
    let sub = (v >> (e - SUB_BITS)) - SUB;
    (SUB as usize) * (e - SUB_BITS + 1) as usize + sub as usize
}

/// Inclusive `(lo, hi)` value bounds of bucket `i`. The last bucket is
/// the overflow bucket and reports `hi == u64::MAX`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i == NUM_BUCKETS - 1 {
        let lo = (SUB + SUB - 1) << (E_MAX - SUB_BITS);
        return (lo, u64::MAX);
    }
    if (i as u64) < SUB {
        return (i as u64, i as u64);
    }
    let k = i as u64 - SUB;
    let e = (k / SUB) as u32 + SUB_BITS;
    let sub = k % SUB;
    let lo = (SUB + sub) << (e - SUB_BITS);
    let width = 1u64 << (e - SUB_BITS);
    (lo, lo + width - 1)
}

/// Recording shards per histogram. A power of two so the thread slot can
/// be masked. 8 keeps the per-histogram footprint at ~44 KiB while giving
/// the engine's workers + load clients distinct lines to record into.
const HIST_SHARDS: usize = 8;

/// One thread-shard of the recording state. `align(64)`: `sum` and `max`
/// of different shards must never share a cache line (the bucket arrays
/// are separate heap allocations, so they are already disjoint).
#[repr(align(64))]
struct HistShard {
    buckets: Vec<AtomicU64>, // NUM_BUCKETS long
    sum: AtomicU64,
    max: AtomicU64,
}

/// Most-recent exemplar per bucket: the trace id and value of the last
/// sample recorded through [`LatencyHistogram::record_exemplar`].
/// Unsharded — exemplar-bearing samples are the tail-sampled minority —
/// and the two cells are written with independent relaxed stores: a torn
/// pair still pairs a value with *a* trace that landed in the same
/// bucket, which is all an exemplar promises.
struct ExemplarSlot {
    trace_id: AtomicU64, // 0 = none recorded yet
    value: AtomicU64,
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A concurrent log-linear histogram; see the module docs for layout and
/// consistency guarantees. Cloning shares the underlying shards.
#[derive(Clone)]
pub struct LatencyHistogram {
    shards: Arc<[HistShard; HIST_SHARDS]>,
    exemplars: Arc<[ExemplarSlot]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            shards: Arc::new(std::array::from_fn(|_| HistShard::default())),
            exemplars: (0..NUM_BUCKETS)
                .map(|_| ExemplarSlot {
                    trace_id: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[thread_slot() & (HIST_SHARDS - 1)];
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating on the — theoretical —
    /// 585-year overflow).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one sample and stamp its bucket's exemplar with `trace_id`,
    /// so the exposition can link the bucket to a captured trace
    /// (OpenMetrics exemplar syntax). A zero trace id records plainly.
    #[inline]
    pub fn record_exemplar(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id != 0 {
            let slot = &self.exemplars[bucket_index(v)];
            slot.value.store(v, Ordering::Relaxed);
            slot.trace_id.store(trace_id, Ordering::Relaxed);
        }
    }

    /// Merge the thread-shards into an owned snapshot. Safe concurrent
    /// with writers; see the module docs for what a mid-storm snapshot
    /// means.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; NUM_BUCKETS];
        let mut sum = 0u64;
        let mut max = 0u64;
        for shard in self.shards.iter() {
            for (c, b) in counts.iter_mut().zip(&shard.buckets) {
                *c += b.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
            max = max.max(shard.max.load(Ordering::Relaxed));
        }
        let exemplars = self
            .exemplars
            .iter()
            .enumerate()
            .filter(|(_, e)| e.trace_id.load(Ordering::Relaxed) != 0)
            .map(|(bucket, e)| Exemplar {
                bucket,
                value: e.value.load(Ordering::Relaxed),
                trace_id: e.trace_id.load(Ordering::Relaxed),
            })
            .collect();
        HistogramSnapshot {
            counts,
            sum,
            max,
            exemplars,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &s.count())
            .field("max", &s.max)
            .finish()
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`]: `count` samples whose
/// values all lie in `lo..=hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Smallest value binned here.
    pub lo: u64,
    /// Largest value binned here (inclusive).
    pub hi: u64,
    /// Samples in the bucket.
    pub count: u64,
}

/// A recent trace that landed in a bucket — the payload of the
/// OpenMetrics exemplar the exposition attaches to that bucket's series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// Bucket index the exemplar belongs to.
    pub bucket: usize,
    /// The recorded value (always within the bucket's bounds).
    pub value: u64,
    /// The trace id, non-zero.
    pub trace_id: u64,
}

/// An owned, immutable copy of a histogram's state: plain `u64`s that
/// merge associatively and answer quantile queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Sum of all recorded values (mean = `sum / count`).
    pub sum: u64,
    /// Largest recorded value, tracked exactly.
    pub max: u64,
    /// Per-bucket exemplars (at most one per non-empty bucket).
    exemplars: Vec<Exemplar>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
            max: 0,
            exemplars: Vec::new(),
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity of [`merge`](Self::merge)).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// Total samples (sum of bucket counts — never a separately-tracked
    /// number, so it always agrees with the buckets).
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean recorded value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Conservative quantile estimate: the upper bound of the bucket
    /// holding the `q`-quantile sample, capped at the exact [`max`](Self::max).
    /// Guaranteed `>=` the true quantile and within one bucket width
    /// (≤ 6.25% relative) above it. `q` is clamped to `[0, 1]`; returns 0
    /// on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`. Associative and commutative: bucket
    /// counts and sums add, maxes take the larger. Sums are mod 2⁶⁴,
    /// the same semantics as the recorder's atomic `fetch_add`, which
    /// keeps merge exactly equal to having recorded into one histogram
    /// even if the (astronomical) total overflows.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        // Exemplars: keep ours per bucket, adopt the other's for buckets
        // we have none for (there is no recency order across snapshots).
        for e in &other.exemplars {
            if !self.exemplars.iter().any(|m| m.bucket == e.bucket) {
                self.exemplars.push(*e);
            }
        }
        self.exemplars.sort_by_key(|e| e.bucket);
    }

    /// The exemplars captured in this snapshot, in bucket order.
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// The non-empty buckets, in value order.
    pub fn buckets(&self) -> impl Iterator<Item = Bucket> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                Bucket { lo, hi, count: c }
            })
    }

    /// Cumulative `(upper_bound, count_at_or_below)` pairs over the
    /// non-empty buckets — the shape Prometheus `_bucket{le=...}` series
    /// want (the caller appends `+Inf`).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                acc += c;
                (bucket_bounds(i).1, acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..32u64 {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert_eq!((lo, hi), (v, v), "value {v} must bin exactly");
        }
    }

    #[test]
    fn bounds_cover_the_whole_domain_contiguously() {
        // Every bucket's lo is the previous bucket's hi + 1.
        let mut expect_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "gap or overlap at bucket {i}");
            assert!(hi >= lo);
            if i < NUM_BUCKETS - 1 {
                expect_lo = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX, "last bucket must absorb overflow");
            }
        }
    }

    #[test]
    fn relative_width_is_bounded() {
        for i in 0..NUM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert!(
                (hi - lo) as f64 <= lo.max(1) as f64 / 16.0 + 1e-9,
                "bucket {i} [{lo}, {hi}] wider than 1/16 of its lower bound"
            );
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 5050);
        // p50's sample is 50; bucket [48,50] (width 3 at that octave...
        // actually 50 -> e=5, width 2, bucket [50,51], capped by max no).
        let p50 = s.quantile(0.50);
        assert!((50..=53).contains(&p50), "p50 estimate {p50}");
        assert!(s.quantile(1.0) == 100, "p100 capped at the exact max");
        assert_eq!(s.quantile(0.0), 1, "rank clamps to the first sample");
    }

    #[test]
    fn merge_equals_recording_together() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let both = LatencyHistogram::new();
        for v in [3u64, 17, 900, 70_000, 5] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 1_000_000, 31] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn exemplars_stamp_the_sample_bucket() {
        let h = LatencyHistogram::new();
        h.record(900); // plain sample: no exemplar
        h.record_exemplar(905, 0xdead_beef);
        h.record_exemplar(17, 0x1234);
        let s = h.snapshot();
        let ex = s.exemplars();
        assert_eq!(ex.len(), 2);
        for e in ex {
            let (lo, hi) = bucket_bounds(e.bucket);
            assert!((lo..=hi).contains(&e.value), "exemplar outside bucket");
        }
        assert!(ex.iter().any(|e| e.trace_id == 0xdead_beef));
        // A later sample in the same bucket replaces the exemplar.
        h.record_exemplar(906, 0xfeed);
        let ex2 = h.snapshot();
        assert!(ex2.exemplars().iter().any(|e| e.trace_id == 0xfeed));
        assert!(!ex2.exemplars().iter().any(|e| e.trace_id == 0xdead_beef));
        // Merge keeps self's exemplar for contested buckets, adopts
        // the other's for new ones.
        let other = LatencyHistogram::new();
        other.record_exemplar(903, 0xaaaa);
        other.record_exemplar(1_000_000, 0xbbbb);
        let mut m = h.snapshot();
        m.merge(&other.snapshot());
        assert!(m.exemplars().iter().any(|e| e.trace_id == 0xfeed));
        assert!(m.exemplars().iter().any(|e| e.trace_id == 0xbbbb));
        assert!(!m.exemplars().iter().any(|e| e.trace_id == 0xaaaa));
    }

    #[test]
    fn overflow_clamps_to_the_last_bucket() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.max, u64::MAX);
        let b: Vec<_> = s.buckets().collect();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].hi, u64::MAX);
    }
}
