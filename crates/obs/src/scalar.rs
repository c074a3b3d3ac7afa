//! Lock-free scalar instruments: sharded [`Counter`], signed [`Gauge`],
//! and bit-cast [`FloatGauge`].

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shards per counter. A power of two so the thread slot can be masked.
/// 16 covers every worker-pool size the engine realistically runs per
/// core while keeping an idle counter at one cache line per shard.
const SHARDS: usize = 16;

/// One cache line per shard: two shards must never share a line, or the
/// sharding buys nothing.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

/// Stable small id for the current thread, assigned on first use. Shared
/// with the histogram's shard selection.
pub(crate) fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// A monotonically increasing sum, sharded across cache lines so that
/// concurrent writers (engine workers, load-gen clients) do not serialize
/// on one atomic. Cloning shares the underlying shards.
#[derive(Clone, Default)]
pub struct Counter {
    shards: Arc<[Shard; SHARDS]>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_slot() & (SHARDS - 1)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current total (sum over shards). Concurrent with writers: the value
    /// is a valid total of some interleaving, and monotone across calls
    /// from one thread.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Do the two handles share one set of shards?
    pub(crate) fn same_as(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.shards, &other.shards)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A signed instantaneous value (queue depth, live workers). Unsharded:
/// gauges are read as often as written and the engine writes them once
/// per batch, not per request.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Move the value up by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Move the value down by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// An `f64` gauge (loss, θ, hit-rate) stored as its bit pattern in an
/// `AtomicU64` — stores and loads are atomic, no lock, no torn reads.
#[derive(Clone, Default)]
pub struct FloatGauge {
    bits: Arc<AtomicU64>,
}

impl FloatGauge {
    /// A fresh gauge at 0.0.
    pub fn new() -> FloatGauge {
        FloatGauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for FloatGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FloatGauge").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_clones_share_state() {
        let c = Counter::new();
        let d = c.clone();
        c.inc();
        d.inc();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn float_gauge_round_trips() {
        let g = FloatGauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.12345);
        assert_eq!(g.get(), 0.12345);
        g.set(-1e-9);
        assert_eq!(g.get(), -1e-9);
    }
}
