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
//! so one GEMV per branch ([`od_tensor::simd::table_scores`]) reduces the
//! pair sweep to `a[o] + b[d]` adds — which the SIMD threshold sweep
//! ([`od_tensor::simd::sweep_scan_add_ge`]) retires 8 lanes at a time
//! against the top-k heap floor. Retrieval is **exact**: both tiers
//! return the same pairs, bit for bit, and differ only in how much of
//! the universe they look at.
//!
//! - [`Tier::Exact`] — brute force over all `n²−n` pairs. Bit-exact
//!   across SIMD levels and artifact table modes (owned and mmap); the
//!   reference the tests and the benchmark compare against.
//! - [`Tier::Pruned`] — the same sweep with origins sorted by descending
//!   `a[o]` and an exact cutoff: once `a[o] + max(b)` falls strictly
//!   below the top-k floor, no remaining origin can contribute, so the
//!   sweep stops. At 200 cities and k = 64 that is ~11x fewer pair
//!   candidates on a trained table and ~10x on an untrained one (gated
//!   ≥5x, with pair equality, in `tests/retrieval_equivalence.rs`).
//!
//! A [`Retriever`] holds no derived state beyond its artifact and a
//! resolved SIMD level; `od-serve`'s `Funnel` still builds one per
//! artifact *generation* so retrievals are stamped with the generation's
//! `ArtifactVersion`, exactly like ranking responses.

#![warn(missing_docs)]

mod topk;

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
    /// Brute-force scored top-k over every OD pair (the reference).
    Exact,
    /// The same pairs from a sweep that stops at the origin cutoff.
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
    /// Candidate pairs examined by the scan (the ≥5x pruning gate
    /// compares this between tiers).
    pub scanned: u64,
    /// Always 0: no tier routes. Kept so [`stages`](Self::stages) still
    /// has the three rows `benchmark/` lays out.
    pub route_ns: u64,
    /// Table-scoring time (the per-city GEMVs).
    pub scan_ns: u64,
    /// Pair sweep + top-k selection time.
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
    /// affinity tables and sweep order. Queries are tens of
    /// microseconds, so a handful of allocator round trips per call is
    /// real, *level-independent* overhead — it dilutes the SIMD speedup
    /// without making either level better.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    /// Origin affinities `a[o]`.
    a: Vec<f32>,
    /// Destination affinities `b[d]`.
    b: Vec<f32>,
    /// Origin sweep order.
    order: Vec<u32>,
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
        let Scratch { a, b, order } = scratch;
        let ev = self.model.embeddings();
        let n = ev.num_cities;
        assert!(
            user.index() < ev.num_users,
            "user {} outside the artifact universe ({} users)",
            user.0,
            ev.num_users
        );
        let mut stats = RetrievalStats::default();
        // `k` arrives from the wire; the heap allocates for it.
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

        // Select: sweep `a[o] + b[d]` through the bounded heap. Until
        // the heap fills, every candidate goes through the exact push;
        // after that the SIMD threshold scan discards lanes below the
        // heap floor and the rare survivor takes the exact order test.
        //
        // The sweep visits high-affinity origins first (ties: lower
        // index). The heap's result is arrival-order independent, so
        // ordering changes nothing about the answer — but it tightens
        // the floor after the first few origins, putting the rest of
        // the sweep on the scan's all-lanes-fail fast path instead of
        // flooding the heap with doomed survivors.
        //
        // The pruned tier needs the *full* descending order: it stops
        // at the first origin whose best possible pair (`a[o] +
        // max(b)`) falls strictly below the heap floor, which is only
        // sound if every later origin is no better (candidates *at*
        // the floor are still swept, so index tie-breaks are
        // preserved). The exact tier keeps the full n² sweep — it is
        // the brute-force reference — so it only fronts the `LEAD` best
        // origins with an O(n) partition and leaves the rest in index
        // order: the floor is essentially final after those rows, and
        // skipping the full sort keeps the level-independent overhead
        // out of the SIMD speedup.
        let t = Instant::now();
        let by_affinity_desc = |&x: &u32, &y: &u32| {
            a[y as usize]
                .total_cmp(&a[x as usize])
                .then_with(|| x.cmp(&y))
        };
        const LEAD: usize = 8;
        order.clear();
        order.extend(0..n as u32);
        if tier == Tier::Pruned || n <= LEAD {
            order.sort_unstable_by(by_affinity_desc);
        } else {
            order.select_nth_unstable_by(LEAD - 1, by_affinity_desc);
            order[..LEAD].sort_unstable_by(by_affinity_desc);
        }
        let mut heap = topk::PairHeap::new(k);
        // Cold phase: row-by-row until the heap fills and has a floor.
        let mut warm_from = 0usize;
        for &o in order.iter() {
            if heap.is_full() {
                break;
            }
            let bias = a[o as usize];
            let idx_base = o as u64 * n as u64;
            let row = b
                .iter()
                .enumerate()
                .filter(|&(d, _)| d as u32 != o)
                .map(|(d, &bd)| topk::Entry {
                    idx: idx_base + d as u64,
                    score: bias + bd,
                });
            if heap.is_empty() {
                // Seed with this row's canonical top-k in one partition
                // pass instead of a sift per candidate.
                heap = topk::PairHeap::from_candidates(k, row.collect());
            } else {
                row.for_each(|e| heap.push(e.idx, e.score));
            }
            stats.scanned += n as u64;
            warm_from += 1;
        }
        // Warm phase: one monomorphized kernel call sweeps every
        // remaining row against the live heap floor — each survivor
        // returns the updated floor, so a strong lane tightens the scan
        // for the rest of the sweep immediately. The pruned tier hands
        // the kernel its stop margin (`max(b)`).
        if heap.is_full() && warm_from < order.len() {
            let stop =
                (tier == Tier::Pruned).then(|| b.iter().copied().fold(f32::NEG_INFINITY, f32::max));
            let swept = simd::sweep_scan_add_ge(
                self.level,
                &order[warm_from..],
                a,
                b,
                heap.floor(),
                stop,
                &mut |o, d, s| {
                    if d != o {
                        heap.push(o as u64 * n as u64 + d as u64, s);
                    }
                    heap.floor()
                },
            );
            stats.scanned += swept as u64 * n as u64;
        }
        let pairs = heap
            .into_sorted()
            .into_iter()
            .map(|e| ScoredPair {
                origin: CityId((e.idx / n as u64) as u32),
                dest: CityId((e.idx % n as u64) as u32),
                score: e.score,
            })
            .collect();
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
