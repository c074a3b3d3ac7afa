//! Deterministic bounded top-k selection over pair scores.
//!
//! The selection contract shared by every retrieval tier and SIMD level:
//! the result is the first `k` pairs of the total order **score
//! descending, then pair index ascending** (`total_cmp` on the score
//! bits). Because all levels compute bit-identical scores (see
//! `od_tensor::simd`), selection through this heap is reproducible across
//! scalar/AVX2/NEON and across owned/mmap artifacts — the proptests in
//! `tests/retrieval_equivalence.rs` hold the whole chain to that.
//!
//! The heap is a hand-rolled binary min-heap of the *worst* retained
//! entry at the root, so the hot-path operations are branch-light:
//! [`PairHeap::floor`] (one load) feeds the SIMD scan threshold, and
//! [`PairHeap::push`] is a compare + sift for the rare surviving lane.

/// One retained candidate: the pair's flat index (`origin·n + dest`) and
/// its separable retrieval score.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub idx: u64,
    pub score: f32,
}

impl Entry {
    /// Is `self` a worse candidate than `other` in the canonical order
    /// (lower score, or equal score with larger pair index)?
    #[inline]
    fn worse_than(&self, other: &Entry) -> bool {
        match self.score.total_cmp(&other.score) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.idx > other.idx,
        }
    }
}

/// Bounded min-heap keeping the best `k` entries seen so far.
pub(crate) struct PairHeap {
    k: usize,
    /// Binary heap ordered so `entries[0]` is the worst retained entry.
    entries: Vec<Entry>,
}

impl PairHeap {
    #[cfg(test)]
    pub fn new(k: usize) -> PairHeap {
        PairHeap {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// Build a heap holding the canonical top-`k` of `cands` in one
    /// O(len + k) pass: an unstable partition around the k-th entry in
    /// the canonical order, then a Floyd heapify of the survivors.
    /// Equivalent to pushing every candidate one by one (the heap's
    /// content is arrival-order independent), but skips the per-push
    /// sift — this is how the select sweep seeds the heap from the lead
    /// origin's full row before the threshold scan takes over.
    pub fn from_candidates(k: usize, mut cands: Vec<Entry>) -> PairHeap {
        if cands.len() > k && k > 0 {
            // Canonical order: score descending, index ascending — the
            // element at k-1 after partition is the prospective floor.
            cands.select_nth_unstable_by(k - 1, |x, y| {
                y.score.total_cmp(&x.score).then_with(|| x.idx.cmp(&y.idx))
            });
        }
        cands.truncate(k);
        let mut heap = PairHeap { k, entries: cands };
        let n = heap.entries.len();
        for i in (0..n / 2).rev() {
            heap.sift_down_from(i);
        }
        heap
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// The scan threshold: any candidate scoring strictly below this
    /// cannot enter a full heap, so SIMD lanes below it are discarded
    /// without the exact order test. Candidates *at* the floor may still
    /// lose on the index tie-break — [`push`](Self::push) settles that.
    #[inline]
    pub fn floor(&self) -> f32 {
        debug_assert!(self.is_full());
        self.entries[0].score
    }

    /// Offer a candidate. O(log k) when it displaces the floor entry,
    /// O(1) when it loses.
    #[inline]
    pub fn push(&mut self, idx: u64, score: f32) {
        let cand = Entry { idx, score };
        if self.entries.len() < self.k {
            self.entries.push(cand);
            self.sift_up(self.entries.len() - 1);
        } else if self.k > 0 && self.entries[0].worse_than(&cand) {
            self.entries[0] = cand;
            self.sift_down_from(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[i].worse_than(&self.entries[parent]) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down_from(&mut self, start: usize) {
        let n = self.entries.len();
        let mut i = start;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < n && self.entries[l].worse_than(&self.entries[worst]) {
                worst = l;
            }
            if r < n && self.entries[r].worse_than(&self.entries[worst]) {
                worst = r;
            }
            if worst == i {
                break;
            }
            self.entries.swap(i, worst);
            i = worst;
        }
    }

    /// Consume the heap into canonical order: score descending, pair
    /// index ascending.
    pub fn into_sorted(mut self) -> Vec<Entry> {
        self.entries
            .sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.idx.cmp(&b.idx)));
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle: full sort, take k.
    fn oracle(cands: &[(u64, f32)], k: usize) -> Vec<(u64, u32)> {
        let mut all: Vec<Entry> = cands
            .iter()
            .map(|&(idx, score)| Entry { idx, score })
            .collect();
        all.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.idx.cmp(&b.idx)));
        all.truncate(k);
        all.into_iter()
            .map(|e| (e.idx, e.score.to_bits()))
            .collect()
    }

    #[test]
    fn matches_full_sort_oracle_with_ties() {
        // Scores collide on purpose so the index tie-break is exercised.
        let cands: Vec<(u64, f32)> = (0..500u64).map(|i| (i, ((i * 7919) % 13) as f32)).collect();
        for k in [0usize, 1, 2, 13, 64, 499, 500, 600] {
            let mut heap = PairHeap::new(k);
            for &(idx, s) in &cands {
                heap.push(idx, s);
            }
            let got: Vec<(u64, u32)> = heap
                .into_sorted()
                .into_iter()
                .map(|e| (e.idx, e.score.to_bits()))
                .collect();
            assert_eq!(got, oracle(&cands, k), "k = {k}");
        }
    }

    #[test]
    fn arrival_order_does_not_matter() {
        let mut cands: Vec<(u64, f32)> = (0..200u64).map(|i| (i, ((i * 31) % 7) as f32)).collect();
        let forward = {
            let mut h = PairHeap::new(10);
            for &(i, s) in &cands {
                h.push(i, s);
            }
            h.into_sorted().iter().map(|e| e.idx).collect::<Vec<_>>()
        };
        cands.reverse();
        let backward = {
            let mut h = PairHeap::new(10);
            for &(i, s) in &cands {
                h.push(i, s);
            }
            h.into_sorted().iter().map(|e| e.idx).collect::<Vec<_>>()
        };
        assert_eq!(forward, backward);
    }

    #[test]
    fn from_candidates_matches_push_loop() {
        // Same colliding-score generator as the oracle test so the
        // index tie-break is live through the partition path too.
        let cands: Vec<(u64, f32)> = (0..500u64).map(|i| (i, ((i * 7919) % 13) as f32)).collect();
        for len in [0usize, 1, 5, 63, 64, 65, 200, 500] {
            for k in [0usize, 1, 13, 64, 200] {
                let entries: Vec<Entry> = cands[..len]
                    .iter()
                    .map(|&(idx, score)| Entry { idx, score })
                    .collect();
                let fast = PairHeap::from_candidates(k, entries);
                let mut slow = PairHeap::new(k);
                for &(idx, s) in &cands[..len] {
                    slow.push(idx, s);
                }
                // Same retained set and a valid heap: the sorted views
                // and the reported floors must agree.
                assert_eq!(fast.is_full(), slow.is_full(), "len={len} k={k}");
                if fast.is_full() && k > 0 {
                    assert_eq!(
                        fast.floor().to_bits(),
                        slow.floor().to_bits(),
                        "len={len} k={k}"
                    );
                }
                let f: Vec<(u64, u32)> = fast
                    .into_sorted()
                    .into_iter()
                    .map(|e| (e.idx, e.score.to_bits()))
                    .collect();
                let s: Vec<(u64, u32)> = slow
                    .into_sorted()
                    .into_iter()
                    .map(|e| (e.idx, e.score.to_bits()))
                    .collect();
                assert_eq!(f, s, "len={len} k={k}");
            }
        }
    }

    #[test]
    fn floor_tracks_worst_retained() {
        let mut h = PairHeap::new(3);
        for (i, s) in [(0u64, 5.0f32), (1, 1.0), (2, 3.0)] {
            h.push(i, s);
        }
        assert!(h.is_full());
        assert_eq!(h.floor(), 1.0);
        h.push(3, 4.0); // displaces 1.0
        assert_eq!(h.floor(), 3.0);
        h.push(4, 0.5); // loses
        assert_eq!(h.floor(), 3.0);
    }
}
