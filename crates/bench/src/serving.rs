//! Offline candidate recall and the one offline Eq. 11 ranker.
//!
//! - [`heuristic_candidates`] — the paper's §VI-B multi-strategy recall
//!   (current city, nearby cities, historical Os; historical/clicked/
//!   popular Ds). It needs only the dataset, no trained artifact, so it
//!   is the candidate source for the fig7 baselines and the examples.
//! - [`rank_pairs`] — score a recalled group with any [`OdScorer`] and
//!   sort by the Eq. 11 serving score; every offline ranking (fig7, the
//!   examples) goes through it.
//!
//! Serving retrieves from the frozen tables and ranks through the engine
//! instead: that composition is `od_serve::Funnel`.

use od_data::FliggyDataset;
use od_hsg::{CityId, UserId};
use odnet_core::{GroupInput, OdScorer};
use std::collections::HashSet;

/// Rank recalled OD pairs with any scorer — live tape or frozen artifact —
/// by the Eq. 11 serving score, descending. The sort is stable: equal
/// scores keep candidate (recall-priority) order, which is what makes the
/// fig7 lists reproducible. `group` must have been built over exactly
/// `pairs` (one candidate per pair, in order).
pub fn rank_pairs(
    scorer: &dyn OdScorer,
    group: &GroupInput,
    pairs: &[(CityId, CityId)],
) -> Vec<((CityId, CityId), f32)> {
    assert_eq!(
        group.candidates.len(),
        pairs.len(),
        "group candidates and recalled pairs out of sync"
    );
    let mut ranked: Vec<((CityId, CityId), f32)> = scorer
        .score_group(group)
        .iter()
        .zip(pairs)
        .map(|(&(po, pd), &pair)| (pair, scorer.serving_score(po, pd)))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite serving scores"));
    ranked
}

/// Assemble up to `max_pairs` candidate OD pairs for `user` at `day` using
/// the paper's §VI-B heuristic recall strategies — the baseline candidate
/// source (fig7's non-ODNET methods have no frozen tables to retrieve
/// from).
pub fn heuristic_candidates(
    ds: &FliggyDataset,
    user: UserId,
    day: u32,
    max_pairs: usize,
) -> Vec<(CityId, CityId)> {
    let lt = ds.long_term(user, day);
    let st = ds.short_term(user, day);
    let current = ds.current_city(user, day);
    let home = ds.world.users[user.index()].home;

    // Candidate origins: current city, home, nearby cities, historical Os.
    let mut origins: Vec<CityId> = vec![current, home];
    origins.extend(nearest_cities(ds, current, 2));
    origins.extend(lt.iter().rev().take(3).map(|b| b.origin));
    dedup_keep_order(&mut origins);

    // Candidate destinations: historical Ds, clicked Ds, popular Ds.
    let mut dests: Vec<CityId> = Vec::new();
    dests.extend(lt.iter().rev().take(4).map(|b| b.dest));
    dests.extend(st.iter().rev().take(4).map(|c| c.dest));
    dests.extend(popular_cities(ds, 4));
    // Return-leg recall: the origin of the most recent booking is a
    // high-value destination candidate (the paper's Case 2).
    if let Some(last) = lt.last() {
        dests.insert(0, last.origin);
    }
    dedup_keep_order(&mut dests);

    // Origins and dests are deduplicated, so (o, d) pairs from the product
    // are already distinct — no per-pair membership scan needed.
    let mut pairs = Vec::with_capacity(max_pairs);
    'outer: for &d in &dests {
        for &o in &origins {
            if o != d {
                pairs.push((o, d));
                if pairs.len() >= max_pairs {
                    break 'outer;
                }
            }
        }
    }
    pairs
}

/// Remove duplicates in O(n), keeping the first occurrence of each city —
/// recall order is a priority order, so it must be preserved.
fn dedup_keep_order(v: &mut Vec<CityId>) {
    let mut seen = HashSet::with_capacity(v.len());
    v.retain(|c| seen.insert(*c));
}

/// The `k` nearest cities to `c` (by the world's coordinates).
fn nearest_cities(ds: &FliggyDataset, c: CityId, k: usize) -> Vec<CityId> {
    let base = ds.world.cities[c.index()].coords;
    let mut order: Vec<CityId> = (0..ds.world.num_cities() as u32)
        .map(CityId)
        .filter(|&x| x != c)
        .collect();
    order.sort_by(|&a, &b| {
        let da = base.l2(ds.world.cities[a.index()].coords);
        let db = base.l2(ds.world.cities[b.index()].coords);
        da.partial_cmp(&db).expect("finite")
    });
    order.truncate(k);
    order
}

/// The `k` most popular cities by the world's popularity prior (a proxy for
/// the production "popular air lines" recall).
fn popular_cities(ds: &FliggyDataset, k: usize) -> Vec<CityId> {
    let mut order: Vec<CityId> = (0..ds.world.num_cities() as u32).map(CityId).collect();
    order.sort_by(|&a, &b| {
        ds.world.cities[b.index()]
            .popularity
            .partial_cmp(&ds.world.cities[a.index()].popularity)
            .expect("finite")
    });
    order.truncate(k);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn recall_produces_valid_distinct_pairs() {
        let ds = crate::fliggy_dataset(Scale::Smoke);
        let user = ds.test.first().map(|s| s.user).unwrap_or(UserId(0));
        let day = ds.train_end_day();
        let pairs = heuristic_candidates(&ds, user, day, 30);
        assert!(!pairs.is_empty());
        assert!(pairs.len() <= 30);
        for (o, d) in &pairs {
            assert_ne!(o, d);
        }
        let mut unique = pairs.clone();
        unique.sort_by_key(|&(o, d)| (o.0, d.0));
        unique.dedup();
        assert_eq!(unique.len(), pairs.len(), "duplicate pairs recalled");
    }

    #[test]
    fn recall_includes_return_leg_when_recent() {
        let ds = crate::fliggy_dataset(Scale::Smoke);
        // Find a user with a booking just before the cut.
        let day = ds.train_end_day();
        let user = (0..ds.world.num_users() as u32)
            .map(UserId)
            .find(|&u| !ds.long_term(u, day).is_empty())
            .expect("some user has history");
        let last = *ds.long_term(user, day).last().unwrap();
        let pairs = heuristic_candidates(&ds, user, day, 40);
        assert!(
            pairs.iter().any(|&(_, d)| d == last.origin),
            "return-leg destination missing from recall"
        );
    }

    #[test]
    fn recall_respects_cap() {
        let ds = crate::fliggy_dataset(Scale::Smoke);
        let pairs = heuristic_candidates(&ds, UserId(0), ds.train_end_day(), 5);
        assert!(pairs.len() <= 5);
    }

    /// A scorer whose serving score is recoverable from the pair alone, so
    /// the expected ranking is checkable without a model.
    struct ByOriginIndex;

    impl OdScorer for ByOriginIndex {
        fn score_group(&self, group: &GroupInput) -> Vec<(f32, f32)> {
            group
                .candidates
                .iter()
                .map(|c| (c.origin.0 as f32, c.dest.0 as f32))
                .collect()
        }

        fn name(&self) -> String {
            "by-origin-index".to_string()
        }
    }

    #[test]
    fn rank_pairs_sorts_by_serving_score() {
        let ds = crate::fliggy_dataset(Scale::Smoke);
        let user = UserId(0);
        let day = ds.train_end_day();
        let pairs = heuristic_candidates(&ds, user, day, 10);
        let fx = odnet_core::FeatureExtractor::new(6, 4);
        let group = fx.group_for_serving(&ds, user, day, &pairs);
        let ranked = rank_pairs(&ByOriginIndex, &group, &pairs);
        assert_eq!(ranked.len(), pairs.len());
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "ranking not descending");
        }
        // Default serving score is 0.5·(p_o + p_d); the stub makes that
        // reconstructable from the pair itself.
        for ((o, d), score) in &ranked {
            assert_eq!(*score, 0.5 * (o.0 as f32 + d.0 as f32));
        }
        // Equal scores keep candidate order (pairs with the same o + d tie
        // under the stub).
        let recalled_at = |p: (CityId, CityId)| pairs.iter().position(|&q| q == p).unwrap();
        let ties: Vec<_> = ranked.windows(2).filter(|w| w[0].1 == w[1].1).collect();
        assert!(!ties.is_empty(), "fixture recalls no tied pair");
        for w in ties {
            assert!(recalled_at(w[0].0) < recalled_at(w[1].0), "tie reordered");
        }
    }
}
