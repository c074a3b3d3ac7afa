//! Exact top-k of the pair sums `a[o] + b[d]` (`o ≠ d`) of two affinity
//! lists: the select stage of both tiers.
//!
//! The result is the prefix of the crate's canonical order — score
//! descending (`total_cmp`), then pair index `o·n + d` ascending — for
//! `K = min(k, n²−n)`. [`Tier::Exact`] is the full sort that order
//! stands for: collect every valid pair, sort, keep `K`.
//! [`Tier::Pruned`] computes only the sums that can make the cut:
//!
//! 1. Rank the top `m = min(n, K+1)` origins and destinations: one
//!    partition on `u64` keys (total-order score bits, then index), then
//!    a sort of that prefix only.
//! 2. `t` = the K-th largest valid sum on the `m×m` grid, from a
//!    best-first walk of the grid out of its corner.
//! 3. Collect every valid pair with `a[o] + b[d] ≥ t` over **all** `n`
//!    origins: origins go in rank order and stop at the first whose
//!    `a[o] + max(b)` is below `t`; each row walks the ranked
//!    destinations while the sum stays `≥ t`. A row that clears all `m`
//!    ranked destinations goes on through the rest of its row (ties at
//!    `t` past rank `m`).
//! 4. Sort the collection canonically and keep `K`.
//!
//! With `K = n²−n` every pair is in the answer, so the pruned tier
//! collects the universe too.
//!
//! **Why this is exact.** f32 addition is monotone, so a valid pair off
//! the grid is beaten or tied by at least `K` valid grid pairs: by the
//! `m−1 ≥ K` pairs `(o', d)` (ranked `o' ≠ d`) when its destination is
//! ranked, symmetrically when its origin is, and by all `m²−m ≥ K` when
//! neither is. The grid's K-th value is therefore the universe's, and
//! step 3 keeps every pair at `t`, so the index tie-break sees the same
//! candidates as a full sort would.

use crate::{ScoredPair, Tier};
use od_hsg::CityId;
use std::collections::BinaryHeap;

/// Order-preserving map of an `f32` onto `u32`: `key(x) < key(y)` iff
/// `x.total_cmp(&y)` is `Less`.
#[inline]
fn key(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// Inverse of [`key`].
#[inline]
fn unkey(k: u32) -> f32 {
    f32::from_bits(if k >> 31 == 1 { k & !(1 << 31) } else { !k })
}

/// Rank keys for one affinity list: ascending key = descending score,
/// then ascending index.
fn rank_keys(xs: &[f32], keys: &mut Vec<u64>) {
    keys.clear();
    keys.extend(
        xs.iter()
            .enumerate()
            .map(|(i, &x)| u64::from(!key(x)) << 32 | i as u64),
    );
}

/// The index a rank key carries.
#[inline]
fn idx(k: u64) -> usize {
    k as u32 as usize
}

/// Reusable buffers, kept in the retriever's thread-local scratch.
#[derive(Default)]
pub(crate) struct Buffers {
    /// Origin rank keys; the first `m` sorted, the rest unordered.
    origins: Vec<u64>,
    /// Destination rank keys, laid out like `origins`.
    dests: Vec<u64>,
    /// Grid frontier: `(key(sum), row, column)`.
    frontier: BinaryHeap<(u32, u32, u32)>,
    /// Collected pairs: `(!key(sum), o·n + d)`, so ascending is canonical.
    hits: Vec<(u32, u64)>,
}

/// Best `k` valid pairs of `a[o] + b[d]` in canonical order, plus the
/// number of pair sums computed: all `n²−n` for [`Tier::Exact`] (and for
/// either tier at `k ≥ n²−n`), steps 1–3's for [`Tier::Pruned`]. `a` and
/// `b` are equally long and hold no NaN.
pub(crate) fn top_k(
    a: &[f32],
    b: &[f32],
    k: usize,
    tier: Tier,
    buf: &mut Buffers,
) -> (Vec<ScoredPair>, u64) {
    let n = a.len();
    debug_assert_eq!(b.len(), n);
    let all = n * n.saturating_sub(1);
    let k = k.min(all);
    if k == 0 {
        return (Vec::new(), 0);
    }
    buf.hits.clear();
    let sums = if tier == Tier::Exact || k == all {
        for (o, &ao) in a.iter().enumerate() {
            for (d, &bd) in b.iter().enumerate() {
                if d != o {
                    buf.hits.push((!key(ao + bd), (o * n + d) as u64));
                }
            }
        }
        all as u64
    } else {
        collect_at_threshold(a, b, k, buf)
    };

    let hits = &mut buf.hits;
    if hits.len() > k {
        hits.select_nth_unstable(k - 1);
        hits.truncate(k);
    }
    hits.sort_unstable();
    let pairs = hits
        .iter()
        .map(|&(nk, pair)| ScoredPair {
            origin: CityId((pair / n as u64) as u32),
            dest: CityId((pair % n as u64) as u32),
            score: unkey(!nk),
        })
        .collect();
    (pairs, sums)
}

/// Steps 1–3 for `0 < k < n²−n`: leaves every valid pair with a sum at
/// or above the K-th largest in `buf.hits`; returns the sums computed.
fn collect_at_threshold(a: &[f32], b: &[f32], k: usize, buf: &mut Buffers) -> u64 {
    let n = a.len();
    let m = n.min(k + 1);
    let Buffers {
        origins,
        dests,
        frontier,
        hits,
    } = buf;
    for (xs, keys) in [(a, &mut *origins), (b, &mut *dests)] {
        rank_keys(xs, keys);
        if m < n {
            keys.select_nth_unstable(m - 1);
        }
        keys[..m].sort_unstable();
    }
    let (os, ds) = (&origins[..m], &dests[..m]);
    let mut sums = 0u64;

    // Step 2. Each grid cell is no larger than its predecessor — (i, j−1)
    // along a row, (i−1, 0) down column 0 — so popping a max-heap seeded
    // with the corner and pushing each popped cell's successors visits
    // the grid in non-increasing order. Diagonal cells (o == d) are
    // walked through but not counted.
    let mut cell = |i: usize, j: usize| {
        sums += 1;
        (key(a[idx(os[i])] + b[idx(ds[j])]), i as u32, j as u32)
    };
    frontier.clear();
    frontier.push(cell(0, 0));
    let mut need = k;
    let t = loop {
        let (s, i, j) = frontier
            .pop()
            .expect("the grid holds at least k valid pairs");
        let (i, j) = (i as usize, j as usize);
        if idx(os[i]) != idx(ds[j]) {
            need -= 1;
            if need == 0 {
                break s;
            }
        }
        if j + 1 < m {
            frontier.push(cell(i, j + 1));
        }
        if j == 0 && i + 1 < m {
            frontier.push(cell(i + 1, 0));
        }
    };

    // Step 3. Ranked origins stop at the first that cannot reach `t`;
    // only if every ranked origin reaches it can an unranked one.
    let b_max = b[idx(ds[0])];
    let mut rows = |origins: &[u64], stop: bool| {
        for &ok in origins {
            let o = idx(ok);
            sums += 1;
            if key(a[o] + b_max) < t {
                if stop {
                    return false;
                }
                continue;
            }
            sums += row(a, b, o, t, ds, &dests[m..], hits);
        }
        true
    };
    if rows(os, true) {
        rows(&origins[m..], false);
    }
    sums
}

/// Push origin `o`'s valid pairs with sums `≥ t` onto `hits`: the ranked
/// destinations `ds` while the sum holds, then — only if all of them held
/// — every one of the unranked `rest`. Returns the sums computed.
fn row(
    a: &[f32],
    b: &[f32],
    o: usize,
    t: u32,
    ds: &[u64],
    rest: &[u64],
    hits: &mut Vec<(u32, u64)>,
) -> u64 {
    let n = a.len();
    let mut sums = 0;
    let mut push = |d: usize, s: u32| hits.push((!s, (o * n + d) as u64));
    for &dk in ds {
        let d = idx(dk);
        if d != o {
            let s = key(a[o] + b[d]);
            sums += 1;
            if s < t {
                return sums;
            }
            push(d, s);
        }
    }
    for &dk in rest {
        let d = idx(dk);
        if d != o {
            let s = key(a[o] + b[d]);
            sums += 1;
            if s >= t {
                push(d, s);
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-sort oracle over every valid pair.
    fn oracle(a: &[f32], b: &[f32], k: usize) -> Vec<(u32, u32, u32)> {
        let n = a.len();
        let mut all: Vec<(usize, f32)> = Vec::new();
        for (o, &ao) in a.iter().enumerate() {
            for (d, &bd) in b.iter().enumerate() {
                if o != d {
                    all.push((o * n + d, ao + bd));
                }
            }
        }
        all.sort_by(|x, y| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
        all.truncate(k);
        all.into_iter()
            .map(|(i, s)| ((i / n) as u32, (i % n) as u32, s.to_bits()))
            .collect()
    }

    fn check(a: &[f32], b: &[f32], k: usize, buf: &mut Buffers, what: &str) {
        let n = a.len();
        let want = oracle(a, b, k);
        for tier in [Tier::Exact, Tier::Pruned] {
            let (got, sums) = top_k(a, b, k, tier, buf);
            let got: Vec<(u32, u32, u32)> = got
                .iter()
                .map(|p| (p.origin.0, p.dest.0, p.score.to_bits()))
                .collect();
            assert_eq!(got, want, "{what} {tier:?}: n={n} k={k}");
            match tier {
                Tier::Exact => assert_eq!(sums, (n * n - n) as u64),
                Tier::Pruned => assert!(sums > 0),
            }
        }
    }

    /// splitmix64 stream.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        /// Few distinct values, so sums collide often.
        fn coarse(&mut self) -> f32 {
            (self.below(9) as f32 - 4.0) * 0.25
        }
        fn fine(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        }
        /// Values whose sums collide by rounding: `a[o'] > a[o]` yet
        /// `a[o'] + b[d] == a[o] + b[d]` when `b[d]` is large, which lets
        /// a pair of an unranked origin tie a ranked one and win on index.
        fn colliding(&mut self) -> f32 {
            [0.0, 1e-7, 2e-7, 0.25, 0.5, 1.0, 1e6, -1e6][self.below(8)]
        }
    }

    #[test]
    fn keys_order_like_total_cmp_and_invert() {
        let xs = [
            f32::NEG_INFINITY,
            -1.5,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            2.0,
            f32::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(key(w[0]) < key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for x in xs {
            assert_eq!(unkey(key(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn matches_a_full_sort_for_every_n_and_k() {
        let mut rng = Rng(7);
        let mut buf = Buffers::default();
        for n in 2..=40usize {
            let ks: Vec<usize> = if n <= 12 {
                (1..=n * n - n + 5).collect()
            } else {
                let all = n * n - n;
                let mut ks: Vec<usize> = (1..=40).collect();
                ks.extend([all - 1, all, all + 5, all / 2]);
                ks.extend((0..8).map(|_| 1 + rng.below(all)));
                ks
            };
            for (what, a, b) in [
                (
                    "fine",
                    (0..n).map(|_| rng.fine()).collect::<Vec<_>>(),
                    (0..n).map(|_| rng.fine()).collect::<Vec<_>>(),
                ),
                (
                    "coarse",
                    (0..n).map(|_| rng.coarse()).collect(),
                    (0..n).map(|_| rng.coarse()).collect(),
                ),
                (
                    "colliding",
                    (0..n).map(|_| rng.colliding()).collect(),
                    (0..n).map(|_| rng.colliding()).collect(),
                ),
            ] {
                for &k in &ks {
                    check(&a, &b, k, &mut buf, what);
                }
            }
        }
    }

    #[test]
    fn all_equal_affinities_tie_every_pair() {
        let mut buf = Buffers::default();
        for n in [2usize, 3, 7, 20] {
            let (a, b) = (vec![0.5f32; n], vec![-0.25f32; n]);
            for k in 1..=n * n - n + 2 {
                check(&a, &b, k, &mut buf, "all equal");
            }
        }
    }

    #[test]
    fn signed_zeros_order_by_their_bits() {
        // -0.0 + -0.0 is -0.0, every other zero sum is +0.0, and
        // `total_cmp` puts -0.0 below +0.0.
        let mut rng = Rng(11);
        let mut buf = Buffers::default();
        for n in [2usize, 3, 5, 9, 16] {
            for _ in 0..20 {
                let mut zero = || if rng.below(2) == 0 { 0.0f32 } else { -0.0 };
                let a: Vec<f32> = (0..n).map(|_| zero()).collect();
                let b: Vec<f32> = (0..n).map(|_| zero()).collect();
                for k in 1..=n * n - n + 1 {
                    check(&a, &b, k, &mut buf, "signed zeros");
                }
            }
        }
    }

    #[test]
    fn twin_runs_straddling_rank_k_plus_one() {
        // A run of equal origins (and destinations) placed across rank
        // k+1, so the ranked prefix cuts a tie group: the threshold pass
        // must find the unranked twins.
        let mut rng = Rng(23);
        let mut buf = Buffers::default();
        for n in [6usize, 10, 17, 33, 40] {
            for k in [1usize, 2, 3, 5, 8, n / 2, n] {
                for run in [2usize, 3, 5] {
                    for _ in 0..6 {
                        let mut a: Vec<f32> = (0..n).map(|_| rng.fine()).collect();
                        let mut b: Vec<f32> = (0..n).map(|_| rng.fine()).collect();
                        for xs in [&mut a, &mut b] {
                            // 0-based ranks k−1 .. k−1+run get one value;
                            // the ranked prefix ends at rank k.
                            let mut by_rank: Vec<usize> = (0..n).collect();
                            by_rank.sort_by(|&x, &y| xs[y].total_cmp(&xs[x]));
                            let lo = k.saturating_sub(1).min(n - 1);
                            let v = xs[by_rank[lo]];
                            for &i in by_rank.iter().skip(lo).take(run) {
                                xs[i] = v;
                            }
                            // Scatter the twins over the indices, so the
                            // index tie-break and the unranked order vary.
                            for i in (1..n).rev() {
                                xs.swap(i, rng.below(i + 1));
                            }
                        }
                        check(&a, &b, k, &mut buf, "twin run");
                    }
                }
            }
        }
    }

    #[test]
    fn an_unranked_origin_wins_a_rounding_tie() {
        // Every `a` within half an ulp of 1e6 (0.03125) sums to exactly
        // 1e6 with the 1e6 destination, so origin 0 — the lowest such `a`,
        // far down the ranking — ties the ranked origins there and wins
        // on index. Origins at a <= -1 cannot reach that sum, and the
        // unranked origins arrive unordered, so the pass over them must
        // not stop at the first that fails.
        let mut rng = Rng(31);
        let mut buf = Buffers::default();
        for n in [20usize, 40, 64] {
            for _ in 0..20 {
                let a: Vec<f32> = (0..n)
                    .map(|o| match o {
                        0 => -0.03,
                        _ if rng.below(2) == 0 => 0.06 * rng.fine(),
                        _ => -1.0 + rng.fine(),
                    })
                    .collect();
                let mut b: Vec<f32> = (0..n).map(|_| rng.fine()).collect();
                let d = 1 + rng.below(n - 1);
                b[d] = 1e6;
                for k in [1usize, 2, 5] {
                    check(&a, &b, k, &mut buf, "rounding tie");
                }
                assert_eq!(oracle(&a, &b, 1)[0].0, 0, "origin 0 must win the tie");
            }
        }
    }
}
