//! Evaluation harness shared by ODNET and every baseline.
//!
//! Anything that can score a [`GroupInput`] implements [`OdScorer`]; the
//! harness then computes the paper's offline metrics (AUC-O / AUC-D over
//! labelled samples, HR@k / MRR@k over ranking cases) and drives the online
//! A/B simulator.
//!
//! ODNET implements it once, on the artifact it serves
//! ([`FrozenOdNet`](crate::FrozenOdNet)): evaluate `model.freeze()`, whose
//! scores equal the live tape's bit for bit.

use crate::features::{FeatureExtractor, GroupInput};
use od_data::{auc, rank_of_truth, RankingAccumulator, RankingMetrics};

/// A model that scores candidate OD pairs under a user context.
///
/// `Sync` so the evaluation harness can score groups from several threads
/// (models are immutable at inference time).
pub trait OdScorer: Sync {
    /// Per-candidate `(p^O, p^D)` probabilities for one group.
    fn score_group(&self, group: &GroupInput) -> Vec<(f32, f32)>;

    /// Combine per-side probabilities into one ranking score (Eq. 11).
    /// Default is the θ = 0.5 blend; ODNET overrides with its learned θ.
    fn serving_score(&self, p_o: f32, p_d: f32) -> f32 {
        0.5 * (p_o + p_d)
    }

    /// Display name for result tables.
    fn name(&self) -> String;
}

/// Score many groups in parallel (order-preserving).
pub fn score_groups(scorer: &dyn OdScorer, groups: &[GroupInput]) -> Vec<Vec<(f32, f32)>> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1);
    if workers <= 1 || groups.len() < 4 {
        return groups.iter().map(|g| scorer.score_group(g)).collect();
    }
    let chunk = groups.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .chunks(chunk)
            .map(|shard| {
                scope.spawn(move || {
                    shard
                        .iter()
                        .map(|g| scorer.score_group(g))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scoring worker must not panic"))
            .collect()
    })
}

/// AUC over the O-labels and D-labels of labelled groups (the paper's
/// AUC-O / AUC-D columns).
pub fn evaluate_auc(scorer: &dyn OdScorer, groups: &[GroupInput]) -> (f64, f64) {
    let mut scores_o = Vec::new();
    let mut labels_o = Vec::new();
    let mut scores_d = Vec::new();
    let mut labels_d = Vec::new();
    let all_scores = score_groups(scorer, groups);
    for (group, scored) in groups.iter().zip(all_scores) {
        for (cand, (po, pd)) in group.candidates.iter().zip(scored) {
            scores_o.push(po);
            labels_o.push(cand.label_o);
            scores_d.push(pd);
            labels_d.push(cand.label_d);
        }
    }
    (auc(&scores_o, &labels_o), auc(&scores_d, &labels_d))
}

/// HR@k / MRR@k over ranking groups: candidates are ranked by the scorer's
/// serving score; the position of the labelled true candidate is recorded.
pub fn evaluate_ranking(scorer: &dyn OdScorer, groups: &[GroupInput]) -> RankingMetrics {
    let mut acc = RankingAccumulator::new();
    let all_scores = score_groups(scorer, groups);
    for (group, scored) in groups.iter().zip(all_scores) {
        if group.candidates.is_empty() {
            continue;
        }
        let combined: Vec<f32> = scored
            .iter()
            .map(|&(po, pd)| scorer.serving_score(po, pd))
            .collect();
        let true_index = group
            .candidates
            .iter()
            .position(|c| c.label_o > 0.5 && c.label_d > 0.5)
            .or_else(|| group.candidates.iter().position(|c| c.label_d > 0.5));
        if let Some(true_index) = true_index {
            acc.push(rank_of_truth(&combined, true_index));
        }
    }
    RankingMetrics::from_accumulator(&acc)
}

/// Full offline evaluation of a scorer on a Fliggy-style dataset: AUC over
/// test samples plus ranking metrics over the evaluation cases.
pub fn evaluate_on_fliggy(
    scorer: &dyn OdScorer,
    ds: &od_data::FliggyDataset,
    fx: &FeatureExtractor,
) -> FliggyEvaluation {
    let test_groups = fx.groups_from_samples(ds, &ds.test);
    let (auc_o, auc_d) = evaluate_auc(scorer, &test_groups);
    let eval_groups: Vec<GroupInput> = ds
        .eval_cases
        .iter()
        .map(|c| fx.group_from_eval_case(ds, c))
        .collect();
    let ranking = evaluate_ranking(scorer, &eval_groups);
    FliggyEvaluation {
        auc_o,
        auc_d,
        ranking,
    }
}

/// Full offline evaluation on a check-in dataset (single destination task:
/// AUC-D only, as in Table IV).
pub fn evaluate_on_checkin(
    scorer: &dyn OdScorer,
    ds: &od_data::CheckinDataset,
    fx: &FeatureExtractor,
) -> FliggyEvaluation {
    let test_groups = fx.checkin_groups(ds, &ds.test);
    let (_, auc_d) = evaluate_auc(scorer, &test_groups);
    let eval_groups: Vec<GroupInput> = ds
        .eval_cases
        .iter()
        .map(|c| fx.checkin_eval_group(ds, c))
        .collect();
    let ranking = evaluate_ranking(scorer, &eval_groups);
    FliggyEvaluation {
        auc_o: auc_d,
        auc_d,
        ranking,
    }
}

/// The metric bundle of one table row.
#[derive(Clone, Copy, Debug)]
pub struct FliggyEvaluation {
    /// AUC of the origin task.
    pub auc_o: f64,
    /// AUC of the destination task.
    pub auc_d: f64,
    /// HR@k / MRR@k bundle.
    pub ranking: RankingMetrics,
}

/// Ranking metrics split by whether the true destination was already in the
/// user's visible history — the **exploitation** slice (repeat visits, any
/// memorizing model can win) versus the **exploration** slice (the user
/// books an unvisited city; this is the regime the paper's HSG targets).
#[derive(Clone, Copy, Debug)]
pub struct SlicedRanking {
    /// Cases whose true destination appears in the group's long-term
    /// destination history.
    pub exploit: RankingMetrics,
    /// Number of exploitation cases.
    pub exploit_n: usize,
    /// Cases whose true destination is unvisited.
    pub explore: RankingMetrics,
    /// Number of exploration cases.
    pub explore_n: usize,
}

/// Rank evaluation groups split into exploitation/exploration slices.
pub fn evaluate_ranking_sliced(scorer: &dyn OdScorer, groups: &[GroupInput]) -> SlicedRanking {
    let mut exploit = RankingAccumulator::new();
    let mut explore = RankingAccumulator::new();
    for group in groups {
        if group.candidates.is_empty() {
            continue;
        }
        let Some(true_index) = group
            .candidates
            .iter()
            .position(|c| c.label_o > 0.5 && c.label_d > 0.5)
            .or_else(|| group.candidates.iter().position(|c| c.label_d > 0.5))
        else {
            continue;
        };
        let combined: Vec<f32> = scorer
            .score_group(group)
            .iter()
            .map(|&(po, pd)| scorer.serving_score(po, pd))
            .collect();
        let rank = rank_of_truth(&combined, true_index);
        let true_dest = group.candidates[true_index].dest;
        if group.lt_dests.contains(&true_dest) {
            exploit.push(rank);
        } else {
            explore.push(rank);
        }
    }
    SlicedRanking {
        exploit: RankingMetrics::from_accumulator(&exploit),
        exploit_n: exploit.len(),
        explore: RankingMetrics::from_accumulator(&explore),
        explore_n: explore.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::CandidateInput;
    use od_hsg::{CityId, UserId};

    /// A scorer that knows the truth (scores the labelled candidate
    /// highest) and one that anti-knows it.
    struct Oracle {
        invert: bool,
    }

    impl OdScorer for Oracle {
        fn score_group(&self, group: &GroupInput) -> Vec<(f32, f32)> {
            group
                .candidates
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let base = if self.invert {
                        1.0 - c.label_o
                    } else {
                        c.label_o
                    };
                    // Small index-dependent jitter to avoid pure ties.
                    let p = 0.8 * base + 0.01 * (i as f32 % 7.0) / 7.0;
                    (p, p)
                })
                .collect()
        }

        fn name(&self) -> String {
            "oracle".into()
        }
    }

    fn group(n: usize, true_index: usize) -> GroupInput {
        GroupInput {
            user: UserId(0),
            day: 10,
            current_city: CityId(0),
            lt_origins: vec![],
            lt_dests: vec![],
            lt_days: vec![],
            st_origins: vec![],
            st_dests: vec![],
            st_days: vec![],
            candidates: (0..n)
                .map(|i| CandidateInput {
                    origin: CityId(i as u32),
                    dest: CityId((i + 1) as u32),
                    xst_o: [0.0; crate::features::XST_DIM],
                    xst_d: [0.0; crate::features::XST_DIM],
                    label_o: (i == true_index) as u32 as f32,
                    label_d: (i == true_index) as u32 as f32,
                })
                .collect(),
        }
    }

    #[test]
    fn oracle_gets_perfect_metrics() {
        let groups: Vec<GroupInput> = (0..5).map(|i| group(10, i % 10)).collect();
        let oracle = Oracle { invert: false };
        let (auc_o, auc_d) = evaluate_auc(&oracle, &groups);
        assert!(auc_o > 0.99 && auc_d > 0.99);
        let ranking = evaluate_ranking(&oracle, &groups);
        assert_eq!(ranking.hr1, 1.0);
        assert_eq!(ranking.mrr10, 1.0);
    }

    #[test]
    fn inverted_oracle_gets_terrible_metrics() {
        let groups: Vec<GroupInput> = (0..5).map(|i| group(10, i % 10)).collect();
        let inverted = Oracle { invert: true };
        let (auc_o, _) = evaluate_auc(&inverted, &groups);
        assert!(auc_o < 0.2);
        let ranking = evaluate_ranking(&inverted, &groups);
        assert_eq!(ranking.hr1, 0.0);
    }

    #[test]
    fn default_serving_score_is_mean() {
        let oracle = Oracle { invert: false };
        assert!((oracle.serving_score(0.2, 0.8) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_groups_are_skipped() {
        let mut g = group(5, 0);
        g.candidates.clear();
        let oracle = Oracle { invert: false };
        let (a, b) = evaluate_auc(&oracle, &[g.clone()]);
        assert_eq!((a, b), (0.5, 0.5));
        let r = evaluate_ranking(&oracle, &[g]);
        assert_eq!(r.hr10, 0.0);
    }
}
