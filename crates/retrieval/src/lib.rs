//! # od-retrieval — the retrieval tier of the full serving funnel
//!
//! The paper's production setting (PAPER.md §2) ranks OD pairs for 2.6M
//! users over a 200×200 city universe, but the ranking model is far too
//! expensive to score all ~40k pairs per request. This crate answers
//! "best `k` OD pairs out of every pair in the universe" directly from
//! the frozen artifact's dense embedding tables
//! ([`FrozenOdNet::embeddings`]), producing the candidate set the
//! micro-batching ranker (`od-serve`) then rescores with the full
//! personalized model — the retrieval/ranking two-task split of the
//! tfrs-style systems in SNIPPETS.md and the origin-aware candidate
//! generation argued by STOD-PPA (PAPERS.md).
//!
//! The retrieval score is **separable**: with the origin-branch user row
//! `u_O`, destination-branch user row `u_D`, and city rows `c_O`, `c_D`,
//!
//! ```text
//! s(u, o, d) = θ·⟨u_O, c_O(o)⟩ + (1−θ)·⟨u_D, c_D(d)⟩ = a[o] + b[d]
//! ```
//!
//! so one GEMV per branch ([`od_tensor::simd::table_scores`]) turns
//! retrieval into "top-k of `a[o] + b[d]`". Retrieval is **exact**: both
//! tiers return the same pairs, bit for bit, and differ only in how many
//! pair sums they compute.
//!
//! - [`Tier::Exact`] — a full sort: every valid pair's sum, ordered
//!   canonically, cut at `k`. The reference the tests and the benchmark
//!   hold the pruned tier to; `od-serve`'s default funnel serves pruned.
//! - [`Tier::Pruned`] — a top-k-of-sums selector over the two lists
//!   ranked by affinity: it finds the k-th largest pair sum on the grid
//!   of the top `k+1` origins × destinations, then collects the
//!   staircase of pairs at or above it. f32 addition is monotone, so
//!   that is the exact tier's answer (the argument is in `pairsum.rs`).
//!   At 200 cities and k = 64 it computes under 1/50 of the exact tier's
//!   sums (gated, with pair equality, in `tests/retrieval_equivalence.rs`).
//!
//! Both tiers are bit-exact across SIMD levels and artifact table modes
//! (owned and mmap): the level only dispatches the table GEMVs, whose
//! levels agree to the bit.
//!
//! A [`Retriever`] holds no derived state beyond its artifact and a
//! resolved SIMD level, so `od-serve`'s `Funnel` builds one per request
//! over the engine's live generation and stamps the retrieval with that
//! generation's `ArtifactVersion`, exactly like ranking responses.

#![warn(missing_docs)]

mod pairsum;

use od_hsg::{CityId, UserId};
use od_tensor::simd::{self, SimdLevel};
use odnet_core::FrozenOdNet;
use std::sync::Arc;
use std::time::Instant;

/// Retrieval configuration. `Default` picks the best SIMD level the host
/// supports.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetrievalConfig {
    /// Kernel dispatch level; `None` = [`SimdLevel::detect`]. An
    /// explicitly requested level the host cannot execute degrades to
    /// scalar inside the kernels.
    pub level: Option<SimdLevel>,
}

/// Which retrieval tier serves a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// A full sort of every OD pair's sum (the reference).
    Exact,
    /// The same pairs from a top-k-of-sums selector over the two sorted
    /// affinity lists.
    Pruned,
}

impl Tier {
    /// Stable lowercase name (metric label / CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Pruned => "pruned",
        }
    }
}

/// One retrieved OD pair with its separable retrieval score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredPair {
    /// Origin city.
    pub origin: CityId,
    /// Destination city.
    pub dest: CityId,
    /// `θ·⟨u_O,c_O⟩ + (1−θ)·⟨u_D,c_D⟩`.
    pub score: f32,
}

/// Per-query cost accounting, fed into the `od_retrieval_*` metrics and
/// the `retrieval.*` layer metrics of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetrievalStats {
    /// Pair sums `a[o] + b[d]` computed by the select stage: all `n²−n`
    /// valid pairs for the exact tier, a few hundred at most for the
    /// pruned tier at the served `k` (gated in
    /// `tests/retrieval_equivalence.rs`).
    pub scanned: u64,
    /// Always 0: no tier routes. Kept so [`stages`](Self::stages) still
    /// has the three rows `benchmark/` lays out.
    pub route_ns: u64,
    /// Table-scoring time (the per-city GEMVs).
    pub scan_ns: u64,
    /// Top-k selection time over the affinities.
    pub select_ns: u64,
}

impl RetrievalStats {
    /// The three timed stages in execution order, as `(name, ns)` pairs.
    /// Tracing uses this to synthesize `scan`/`select` child spans (a
    /// zero-length stage gets none) under a query's `retrieval` span
    /// without the trace layer knowing the stage set.
    pub fn stages(&self) -> [(&'static str, u64); 3] {
        [
            ("route", self.route_ns),
            ("scan", self.scan_ns),
            ("select", self.select_ns),
        ]
    }
}

/// A retrieval answer: pairs in canonical order (score descending, pair
/// index ascending) plus the query's cost accounting.
#[derive(Clone, Debug)]
pub struct Retrieved {
    /// Top pairs, best first.
    pub pairs: Vec<ScoredPair>,
    /// What the query cost.
    pub stats: RetrievalStats,
}

thread_local! {
    /// Reusable per-thread query buffers for [`Retriever::top_k`]: the
    /// affinity tables and the selection buffers. Queries take
    /// microseconds, so a handful of allocator round trips per call is
    /// real overhead.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    /// Origin affinities `a[o]`.
    a: Vec<f32>,
    /// Destination affinities `b[d]`.
    b: Vec<f32>,
    /// The pair-sum selector's buffers.
    sums: pairsum::Buffers,
}

/// The retrieval stage over one frozen artifact generation: pinned
/// tables (owned or mmap — scoring borrows either way) and a resolved
/// SIMD level.
pub struct Retriever {
    model: Arc<FrozenOdNet>,
    level: SimdLevel,
}

impl Retriever {
    /// Pin the artifact and resolve the SIMD level. Nothing is derived
    /// from the tables, so this costs nothing per artifact load or hot
    /// publish.
    pub fn build(model: Arc<FrozenOdNet>, cfg: RetrievalConfig) -> Retriever {
        Retriever {
            model,
            level: cfg.level.unwrap_or_else(SimdLevel::detect),
        }
    }

    /// The artifact generation this retriever serves.
    pub fn model(&self) -> &Arc<FrozenOdNet> {
        &self.model
    }

    /// The kernel level queries dispatch to.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Best `k` OD pairs for `user` over the whole universe (self-pairs
    /// `o == d` excluded), best first. Deterministic: the result is the
    /// prefix of the total order (score desc, pair index asc), identical
    /// across tiers, SIMD levels and table modes. `k` is clamped to the
    /// `n·(n−1)` pairs that exist, so asking for more returns all of them.
    ///
    /// Panics if `user` is outside the artifact's universe — callers on
    /// the serving path (the `Funnel`) validate ids at admission.
    pub fn top_k(&self, user: UserId, k: usize, tier: Tier) -> Retrieved {
        SCRATCH.with(|cell| self.top_k_into(&mut cell.borrow_mut(), user, k, tier))
    }

    /// [`top_k`](Self::top_k) against caller-provided scratch buffers.
    fn top_k_into(&self, scratch: &mut Scratch, user: UserId, k: usize, tier: Tier) -> Retrieved {
        let Scratch { a, b, sums } = scratch;
        let ev = self.model.embeddings();
        let n = ev.num_cities;
        assert!(
            user.index() < ev.num_users,
            "user {} outside the artifact universe ({} users)",
            user.0,
            ev.num_users
        );
        let mut stats = RetrievalStats::default();
        // `k` arrives from the wire; the selection allocates for it.
        let k = k.min(n * n.saturating_sub(1));
        if k == 0 {
            return Retrieved {
                pairs: Vec::new(),
                stats,
            };
        }

        // Scan: one scaled GEMV per branch. θ folds into the city
        // affinities so the pair score is a plain add.
        let t = Instant::now();
        a.clear();
        a.resize(n, 0.0);
        simd::table_scores(
            self.level,
            ev.origin_user_row(user.index()),
            ev.origin_cities,
            ev.dim,
            ev.theta,
            a,
        );
        b.clear();
        b.resize(n, 0.0);
        simd::table_scores(
            self.level,
            ev.dest_user_row(user.index()),
            ev.dest_cities,
            ev.dim,
            1.0 - ev.theta,
            b,
        );
        stats.scan_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let (pairs, scanned) = pairsum::top_k(a, b, k, tier, sums);
        stats.scanned = scanned;
        stats.select_ns = t.elapsed().as_nanos() as u64;

        Retrieved { pairs, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_and_config_defaults() {
        assert_eq!(Tier::Exact.name(), "exact");
        assert_eq!(Tier::Pruned.name(), "pruned");
        assert!(RetrievalConfig::default().level.is_none());
    }
}
