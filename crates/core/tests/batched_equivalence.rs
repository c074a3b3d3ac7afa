//! The batched group forward must reproduce the per-candidate oracle.
//!
//! `OdNetModel::forward_group` is the original one-candidate-at-a-time
//! forward; `score_group` / `group_loss` stack the group into `n×d`
//! matrices. Both run on the same model, so their scores must agree within
//! float tolerance for any candidate set — across variants, with and
//! without the HSGC, the MMoE head, and the intent extension.

mod oracle;

use od_hsg::CityId;
use odnet_core::{
    CandidateInput, FeatureExtractor, GroupInput, OdNetModel, OdnetConfig, Variant, XST_DIM,
};
use oracle::oracle_scores;
use proptest::prelude::*;
use std::sync::OnceLock;

const TOL: f32 = 1e-5;

struct Fixture {
    /// One model per variant under test.
    models: Vec<OdNetModel>,
    /// A real group (with history) providing the user context.
    template: GroupInput,
    num_cities: usize,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
        let build = |variant: Variant, intents: usize| {
            let mut cfg = OdnetConfig::tiny();
            cfg.intents = intents;
            let g = variant.uses_graph().then(|| ds.hsg());
            OdNetModel::new(variant, cfg, ds.world.num_users(), ds.world.num_cities(), g)
        };
        let models = vec![
            build(Variant::Odnet, 0),
            build(Variant::StlG, 0),
            build(Variant::OdnetG, 3),
        ];
        let fx = FeatureExtractor::new(6, 4);
        let template = fx
            .groups_from_samples(&ds, &ds.train)
            .into_iter()
            .find(|g| !g.lt_origins.is_empty())
            .expect("a group with history exists");
        let num_cities = ds.world.num_cities();
        Fixture {
            models,
            template,
            num_cities,
        }
    })
}

/// A candidate drawn from arbitrary city pairs and feature values.
fn candidates(num_cities: usize) -> impl Strategy<Value = Vec<CandidateInput>> {
    let cand = (
        0..num_cities as u32,
        0..num_cities as u32,
        prop::collection::vec(-1.0f32..3.0, 2 * XST_DIM),
        prop::bool::ANY,
    )
        .prop_map(|(o, d, x, label)| {
            let mut xst_o = [0.0f32; XST_DIM];
            let mut xst_d = [0.0f32; XST_DIM];
            xst_o.copy_from_slice(&x[..XST_DIM]);
            xst_d.copy_from_slice(&x[XST_DIM..]);
            CandidateInput {
                origin: CityId(o),
                dest: CityId(d),
                xst_o,
                xst_d,
                label_o: if label { 1.0 } else { 0.0 },
                label_d: if label { 0.0 } else { 1.0 },
            }
        });
    prop::collection::vec(cand, 1..=64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_scores_match_per_candidate_oracle(cands in candidates(fixture().num_cities)) {
        let fix = fixture();
        let mut group = fix.template.clone();
        group.candidates = cands;
        for model in &fix.models {
            let fast = model.score_group(&group);
            let slow = oracle_scores(model, &group);
            prop_assert_eq!(fast.len(), slow.len());
            for (i, ((fo, fd), (so, sd))) in fast.iter().zip(&slow).enumerate() {
                prop_assert!(
                    (fo - so).abs() <= TOL && (fd - sd).abs() <= TOL,
                    "{} candidate {i}: batched ({fo}, {fd}) vs oracle ({so}, {sd})",
                    model.variant.name()
                );
            }
        }
    }

    #[test]
    fn batched_loss_matches_per_candidate_oracle(cands in candidates(fixture().num_cities)) {
        let fix = fixture();
        let mut group = fix.template.clone();
        group.candidates = cands;
        for model in &fix.models {
            let mut g1 = od_tensor::Graph::new();
            let l1 = model.group_loss(&mut g1, &group);
            // The oracle loss: the same joint loss over the per-candidate
            // forward's logits, stacked into columns.
            let mut g2 = od_tensor::Graph::new();
            let fwd = model.forward_group(&mut g2, &group);
            let (lo, ld) = (g2.concat_rows(&fwd.logits_o), g2.concat_rows(&fwd.logits_d));
            let l2 = model.loss_from_logits(&mut g2, &group, lo, ld);
            let (a, b) = (g1.value(l1).item(), g2.value(l2).item());
            prop_assert!(
                (a - b).abs() <= TOL,
                "{} loss: batched {a} vs oracle {b}",
                model.variant.name()
            );
        }
    }
}

/// Single-candidate groups hit the vector-shaped (rows == 1) corners of
/// every batched op; exercise them deterministically too.
#[test]
fn single_candidate_group_matches() {
    let fix = fixture();
    let mut group = fix.template.clone();
    group.candidates.truncate(1);
    for model in &fix.models {
        let fast = model.score_group(&group);
        let slow = oracle_scores(model, &group);
        assert_eq!(fast.len(), 1);
        assert!((fast[0].0 - slow[0].0).abs() <= TOL);
        assert!((fast[0].1 - slow[0].1).abs() <= TOL);
    }
}

/// Empty groups score to an empty vector on both paths (no panic from the
/// batched assert).
#[test]
fn empty_candidate_group_scores_empty() {
    let fix = fixture();
    let mut group = fix.template.clone();
    group.candidates.clear();
    for model in &fix.models {
        assert!(model.score_group(&group).is_empty());
        assert!(oracle_scores(model, &group).is_empty());
    }
}

/// Tape reuse across groups must not leak state between scores: scoring
/// group A, then B, then A again on one graph gives identical results.
#[test]
fn graph_reuse_is_stateless_across_groups() {
    let fix = fixture();
    let batched = &fix.models[0];
    let mut a = fix.template.clone();
    a.candidates.truncate(3.min(a.candidates.len()));
    let mut b = fix.template.clone();
    b.candidates.reverse();
    let mut tape = od_tensor::Graph::new();
    let first = batched.score_group_with(&mut tape, &a);
    let _ = batched.score_group_with(&mut tape, &b);
    let again = batched.score_group_with(&mut tape, &a);
    assert_eq!(first, again);
}
