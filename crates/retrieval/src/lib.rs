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
//! pair sweep to `a[o] + b[d]` adds — which the SIMD threshold scan
//! ([`od_tensor::simd::scan_add_ge`]) retires 8 lanes at a time against
//! the top-k heap floor. Two tiers share that machinery:
//!
//! - [`Tier::Exact`] — brute force over all `n²−n` pairs. Bit-exact
//!   across SIMD levels and artifact table modes (owned and mmap), so it
//!   doubles as the recall oracle for the pruned tier.
//! - [`Tier::Pruned`] — three pair-level pruning stages compose: an
//!   [`IvfIndex`] over the destination city table routes each user to
//!   `nprobe` spherical caps (members deduplicated across the 2-way
//!   spill lists); an optional *refinement cut* keeps only the `refine`
//!   best probed destinations by exact affinity; and the pair sweep
//!   walks origins in descending `a[o]` with an exact cutoff — once
//!   `a[o] + max(b)` falls strictly below the top-k floor, no remaining
//!   origin can contribute, so the sweep stops. Together: >10x fewer
//!   pair candidates for <1% recall@k loss (gated ≥0.99 at ≥5x in
//!   `tests/recall_gate.rs`).
//!
//! A [`Retriever`] is built per artifact *generation* — `od-serve`'s
//! `Funnel` rebuilds it on every hot publish and stamps retrievals with
//! the generation's `ArtifactVersion`, exactly like ranking responses.

#![warn(missing_docs)]

mod ivf;
mod topk;

pub use ivf::IvfIndex;

use od_hsg::{CityId, UserId};
use od_tensor::simd::{self, SimdLevel};
use odnet_core::FrozenOdNet;
use std::sync::Arc;
use std::time::Instant;

/// Retrieval tuning knobs. `Default` picks auto sizing from the city
/// universe and the best SIMD level the host supports.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetrievalConfig {
    /// IVF cluster count for the pruned tier; `0` = `√n`-flavored auto.
    pub ncentroids: usize,
    /// Clusters probed per query; `0` = `max(1, 3·ncentroids/4)`. The
    /// auto default probes generously — destination coverage is what
    /// recall@k lives or dies on, while the scan-reduction gates are
    /// carried by the refinement cut and the origin cutoff, which prune
    /// at the pair level.
    pub nprobe: usize,
    /// Refinement cut for the pruned tier: after probing, only the
    /// `refine` best probed destinations (by their exact scan affinity)
    /// enter the O(n·refine) pair sweep. `0` disables the cut. The top-k
    /// pair set only ever spans the top `k+1` destinations by affinity,
    /// so any `refine > k` is lossless relative to the probe set; the
    /// recall gate runs tighter cuts (~0.6k) that trade <1% recall@k for
    /// the bulk of the scan reduction.
    pub refine: usize,
    /// Kernel dispatch level; `None` = [`SimdLevel::detect`]. An
    /// explicitly requested level the host cannot execute degrades to
    /// scalar inside the kernels.
    pub level: Option<SimdLevel>,
}

/// Which retrieval tier serves a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Brute-force scored top-k over every OD pair (the exact baseline
    /// and recall oracle).
    Exact,
    /// IVF-pruned destination scan: `nprobe` clusters per query.
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
    /// IVF clusters probed (0 for the exact tier).
    pub probed: u32,
    /// Routing time (centroid bounds + member gather); 0 for exact.
    pub route_ns: u64,
    /// Table-scoring time (the per-city GEMVs).
    pub scan_ns: u64,
    /// Pair sweep + top-k selection time.
    pub select_ns: u64,
}

impl RetrievalStats {
    /// The three timed stages in execution order, as `(name, ns)` pairs.
    /// Tracing uses this to synthesize `route`/`scan`/`select` child
    /// spans under a query's `retrieval` span without the trace layer
    /// knowing the stage set.
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
    /// affinity tables, sweep order, and probed member list. Queries
    /// are tens of microseconds, so a handful of allocator round trips
    /// per call is real, *level-independent* overhead — it dilutes the
    /// SIMD speedup without making either level better.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    /// Origin affinities `a[o]`.
    a: Vec<f32>,
    /// Destination affinities `b[j]`.
    b: Vec<f32>,
    /// Probed destination ids (pruned tier).
    members: Vec<u32>,
    /// Origin sweep order.
    order: Vec<u32>,
}

/// The retrieval stage over one frozen artifact generation: pinned
/// tables (owned or mmap — scoring borrows either way), a pruned
/// destination index built once at construction, and a resolved SIMD
/// level.
pub struct Retriever {
    model: Arc<FrozenOdNet>,
    index: IvfIndex,
    level: SimdLevel,
    nprobe: usize,
    refine: usize,
}

impl Retriever {
    /// Build the retrieval stage for an artifact: resolves the SIMD
    /// level and clusters the destination table. At the paper's universe
    /// (200 cities × d=16) the index build is microseconds; it is meant
    /// to run on every artifact load *and* every hot publish.
    pub fn build(model: Arc<FrozenOdNet>, cfg: RetrievalConfig) -> Retriever {
        let ev = model.embeddings();
        let index = IvfIndex::build(ev.dest_cities, ev.num_cities, ev.dim, cfg.ncentroids);
        let nprobe = if cfg.nprobe == 0 {
            (index.ncentroids() * 3 / 4).max(1)
        } else {
            cfg.nprobe.min(index.ncentroids())
        };
        Retriever {
            model,
            index,
            level: cfg.level.unwrap_or_else(SimdLevel::detect),
            nprobe,
            refine: cfg.refine,
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

    /// Clusters in the pruned index.
    pub fn ncentroids(&self) -> usize {
        self.index.ncentroids()
    }

    /// Best `k` OD pairs for `user` over the whole universe (self-pairs
    /// `o == d` excluded), best first. Deterministic: the result is the
    /// prefix of the total order (score desc, pair index asc), identical
    /// across SIMD levels and table modes. `k` is clamped to the `n·(n−1)`
    /// pairs that exist, so asking for more returns all of them.
    ///
    /// Panics if `user` is outside the artifact's universe — callers on
    /// the serving path (the `Funnel`) validate ids at admission.
    pub fn top_k(&self, user: UserId, k: usize, tier: Tier) -> Retrieved {
        SCRATCH.with(|cell| self.top_k_into(&mut cell.borrow_mut(), user, k, tier))
    }

    /// [`top_k`](Self::top_k) against caller-provided scratch buffers.
    fn top_k_into(&self, scratch: &mut Scratch, user: UserId, k: usize, tier: Tier) -> Retrieved {
        let Scratch {
            a,
            b,
            members,
            order,
        } = scratch;
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

        // Route: pick the destination subset (pruned) or all (exact).
        members.clear();
        if tier == Tier::Pruned {
            let t = Instant::now();
            stats.probed = self.index.route(
                self.level,
                ev.dest_user_row(user.index()),
                self.nprobe,
                members,
            ) as u32;
            stats.route_ns = t.elapsed().as_nanos() as u64;
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
        b.resize(
            if tier == Tier::Pruned {
                members.len()
            } else {
                n
            },
            0.0,
        );
        match tier {
            Tier::Exact => simd::table_scores(
                self.level,
                ev.dest_user_row(user.index()),
                ev.dest_cities,
                ev.dim,
                1.0 - ev.theta,
                b,
            ),
            Tier::Pruned => simd::table_scores_indexed(
                self.level,
                ev.dest_user_row(user.index()),
                ev.dest_cities,
                ev.dim,
                1.0 - ev.theta,
                members,
                b,
            ),
        }
        // Refine: keep only the best `refine` probed destinations by
        // their exact affinity before paying the O(n·len(b)) pair sweep.
        // Deterministic cut: affinity descending, destination id
        // ascending — same total-order discipline as the selection.
        if tier == Tier::Pruned && self.refine > 0 && members.len() > self.refine {
            let mut keep: Vec<u32> = (0..members.len() as u32).collect();
            keep.sort_unstable_by(|&x, &y| {
                b[y as usize]
                    .total_cmp(&b[x as usize])
                    .then_with(|| members[x as usize].cmp(&members[y as usize]))
            });
            keep.truncate(self.refine);
            // Back to id order for scan locality and stable output.
            keep.sort_unstable_by_key(|&x| members[x as usize]);
            let kept: Vec<u32> = keep.iter().map(|&x| members[x as usize]).collect();
            let kept_b: Vec<f32> = keep.iter().map(|&x| b[x as usize]).collect();
            *members = kept;
            *b = kept_b;
        }
        stats.scan_ns = t.elapsed().as_nanos() as u64;

        // Select: sweep `a[o] + b[j]` through the bounded heap. Until
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
        // the brute-force baseline and recall oracle — so it only
        // fronts the `LEAD` best origins with an O(n) partition and
        // leaves the rest in index order: the floor is essentially
        // final after those rows, and skipping the full sort keeps the
        // level-independent overhead out of the SIMD speedup.
        let t = Instant::now();
        let dest_of = |j: u32| -> u32 {
            if tier == Tier::Pruned {
                members[j as usize]
            } else {
                j
            }
        };
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
        let bmax = b.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut heap = topk::PairHeap::new(k);
        // Cold phase: row-by-row until the heap fills and has a floor.
        let mut warm_from = 0usize;
        for &o in order.iter() {
            if heap.is_full() {
                break;
            }
            let bias = a[o as usize];
            if heap.is_empty() {
                // Seed with this row's canonical top-k in one partition
                // pass instead of a sift per candidate.
                let idx_base = o as u64 * n as u64;
                let cands: Vec<topk::Entry> = b
                    .iter()
                    .enumerate()
                    .filter_map(|(j, &bd)| {
                        let d = dest_of(j as u32);
                        (d != o).then(|| topk::Entry {
                            idx: idx_base + d as u64,
                            score: bias + bd,
                        })
                    })
                    .collect();
                heap = topk::PairHeap::from_candidates(k, cands);
            } else {
                for (j, &bd) in b.iter().enumerate() {
                    let d = dest_of(j as u32);
                    if d != o {
                        heap.push(o as u64 * n as u64 + d as u64, bias + bd);
                    }
                }
            }
            stats.scanned += b.len() as u64;
            warm_from += 1;
        }
        // Warm phase: one monomorphized kernel call sweeps every
        // remaining row against the live heap floor — each survivor
        // returns the updated floor, so a strong lane tightens the scan
        // for the rest of the sweep immediately. The pruned tier hands
        // the kernel its stop margin (`max(b)`).
        if heap.is_full() && warm_from < order.len() {
            let stop = (tier == Tier::Pruned).then_some(bmax);
            let swept = simd::sweep_scan_add_ge(
                self.level,
                &order[warm_from..],
                a,
                b,
                heap.floor(),
                stop,
                &mut |o, j, s| {
                    let d = dest_of(j);
                    if d != o {
                        heap.push(o as u64 * n as u64 + d as u64, s);
                    }
                    heap.floor()
                },
            );
            stats.scanned += swept as u64 * b.len() as u64;
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

/// Fraction of `exact`'s pairs that `pruned` also retrieved — the
/// recall@k of a pruned answer against the exact oracle for the same
/// `(user, k)`. 1.0 when `exact` is empty.
pub fn recall_against_exact(exact: &[ScoredPair], pruned: &[ScoredPair]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let got: std::collections::HashSet<(u32, u32)> =
        pruned.iter().map(|p| (p.origin.0, p.dest.0)).collect();
    let hit = exact
        .iter()
        .filter(|p| got.contains(&(p.origin.0, p.dest.0)))
        .count();
    hit as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_and_config_defaults() {
        assert_eq!(Tier::Exact.name(), "exact");
        assert_eq!(Tier::Pruned.name(), "pruned");
        let cfg = RetrievalConfig::default();
        assert_eq!(cfg.ncentroids, 0);
        assert_eq!(cfg.nprobe, 0);
        assert_eq!(cfg.refine, 0);
        assert!(cfg.level.is_none());
    }

    #[test]
    fn recall_helper_counts_overlap() {
        let p = |o: u32, d: u32| ScoredPair {
            origin: CityId(o),
            dest: CityId(d),
            score: 0.0,
        };
        let exact = vec![p(0, 1), p(1, 2), p(2, 3), p(3, 4)];
        let pruned = vec![p(1, 2), p(0, 1), p(9, 9)];
        assert_eq!(recall_against_exact(&exact, &pruned), 0.5);
        assert_eq!(recall_against_exact(&[], &pruned), 1.0);
    }
}
