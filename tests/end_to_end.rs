//! Cross-crate integration: full train → freeze → evaluate → serve
//! pipelines over the synthetic datasets, asserting the learnability floor
//! that every paper experiment rests on. Metrics are read off
//! `model.freeze()`, as everywhere outside the equivalence suites.

use od_bench::heuristic_candidates;
use od_data::{FliggyConfig, FliggyDataset};
use odnet_core::{
    evaluate_on_fliggy, train, CheckpointError, FeatureExtractor, GroupInput, OdNetModel, OdScorer,
    OdnetConfig, Variant,
};

const VARIANTS: [Variant; 4] = [
    Variant::Odnet,
    Variant::OdnetG,
    Variant::StlPlusG,
    Variant::StlG,
];

fn tiny_dataset() -> FliggyDataset {
    FliggyDataset::generate(FliggyConfig {
        num_users: 120,
        num_cities: 16,
        horizon_days: 500,
        eval_negatives: 19,
        ..FliggyConfig::default()
    })
}

fn tiny_model_cfg() -> OdnetConfig {
    OdnetConfig {
        embed_dim: 8,
        heads: 2,
        epochs: 3,
        workers: 2,
        ..OdnetConfig::default()
    }
}

fn build_model(variant: Variant, ds: &FliggyDataset) -> OdNetModel {
    let hsg = variant.uses_graph().then(|| ds.hsg());
    OdNetModel::new(
        variant,
        tiny_model_cfg(),
        ds.world.num_users(),
        ds.world.num_cities(),
        hsg,
    )
}

#[test]
fn odnet_trains_and_beats_chance_clearly() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let mut model = build_model(Variant::Odnet, &ds);
    let groups = fx.groups_from_samples(&ds, &ds.train);
    let report = train(&mut model, &groups);
    assert!(
        report.final_loss() < report.epoch_losses[0],
        "loss must decrease: {:?}",
        report.epoch_losses
    );
    let eval = evaluate_on_fliggy(&model.freeze(), &ds, &fx);
    // Chance HR@5 with 19 negatives is 5/20 = 0.25; AUC chance is 0.5.
    assert!(
        eval.auc_o > 0.65,
        "AUC-O {} too close to chance",
        eval.auc_o
    );
    assert!(
        eval.auc_d > 0.65,
        "AUC-D {} too close to chance",
        eval.auc_d
    );
    assert!(
        eval.ranking.hr5 > 0.35,
        "HR@5 {} too close to chance 0.25",
        eval.ranking.hr5
    );
}

#[test]
fn serving_pipeline_produces_ranked_flights() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let mut model = build_model(Variant::OdnetG, &ds);
    let groups = fx.groups_from_samples(&ds, &ds.train);
    train(&mut model, &groups);
    let model = model.freeze();
    let day = ds.train_end_day();
    for user in (0..10u32).map(od_hsg::UserId) {
        let candidates = heuristic_candidates(&ds, user, day, 25);
        assert!(!candidates.is_empty());
        let group = fx.group_for_serving(&ds, user, day, &candidates);
        let scores = model.score_group(&group);
        assert_eq!(scores.len(), candidates.len());
        let combined: Vec<f32> = scores
            .iter()
            .map(|&(po, pd)| model.serving_score(po, pd))
            .collect();
        assert!(combined
            .iter()
            .all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
        // Scores must discriminate (not all equal).
        let min = combined.iter().copied().fold(f32::INFINITY, f32::min);
        let max = combined.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(max > min, "degenerate constant scores for user {user:?}");
    }
}

#[test]
fn checkpoint_round_trip_preserves_scores() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let mut model = build_model(Variant::OdnetG, &ds);
    let groups = fx.groups_from_samples(&ds, &ds.train);
    train(&mut model, &groups[..30]);
    let case = fx.group_from_eval_case(&ds, &ds.eval_cases[0]);

    // Save, restore (a plain variant needs nothing but the file), compare
    // the tape and the artifact frozen from it.
    let restored = OdNetModel::load_json(&model.save_json(), None).expect("valid checkpoint");
    assert_eq!(
        restored.score_group(&case),
        model.score_group(&case),
        "checkpoint round-trip changed predictions"
    );
    assert_eq!(
        restored.freeze().score_group(&case),
        model.freeze().score_group(&case),
        "checkpoint round-trip changed the served predictions"
    );
}

#[test]
fn fixed_seed_training_is_deterministic() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let groups: Vec<_> = fx
        .groups_from_samples(&ds, &ds.train)
        .into_iter()
        .take(40)
        .collect();
    let score = |_: u32| -> Vec<(f32, f32)> {
        let mut cfg = tiny_model_cfg();
        cfg.workers = 1; // bit-exactness requires a fixed merge order
        let mut model = OdNetModel::new(
            Variant::OdnetG,
            cfg,
            ds.world.num_users(),
            ds.world.num_cities(),
            None,
        );
        train(&mut model, &groups);
        let case = fx.group_from_eval_case(&ds, &ds.eval_cases[0]);
        model.score_group(&case)
    };
    assert_eq!(score(0), score(1), "same seed must give identical models");
}

#[test]
fn all_four_variants_complete_the_pipeline() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let groups: Vec<_> = fx
        .groups_from_samples(&ds, &ds.train)
        .into_iter()
        .take(50)
        .collect();
    for variant in VARIANTS {
        let mut model = build_model(variant, &ds);
        let report = train(&mut model, &groups);
        assert!(report.final_loss().is_finite(), "{variant:?} diverged");
        let eval = evaluate_on_fliggy(&model.freeze(), &ds, &fx);
        assert!(eval.ranking.hr10 >= eval.ranking.hr5);
        assert!((0.0..=1.0).contains(&eval.auc_o));
    }
}

/// The live tape behind the scorer interface, which the served artifact is
/// compared against. Product code implements `OdScorer` for the artifact
/// only.
struct Tape<'m>(&'m OdNetModel);

impl OdScorer for Tape<'_> {
    fn score_group(&self, group: &GroupInput) -> Vec<(f32, f32)> {
        self.0.score_group(group)
    }

    /// Eq. 11 with the tape's θ.
    fn serving_score(&self, p_o: f32, p_d: f32) -> f32 {
        let theta = self.0.theta();
        theta * p_o + (1.0 - theta) * p_d
    }

    fn name(&self) -> String {
        format!("{} (tape)", self.0.variant.name())
    }
}

/// Every offline number is computed on `model.freeze()`. That changes no
/// number: on all four variants the full Fliggy evaluation of the artifact
/// equals the tape's to the bit — AUC-O, AUC-D, HR@{1,5,10}, MRR@{5,10}.
#[test]
fn artifact_evaluates_to_the_tapes_bits() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let groups = fx.groups_from_samples(&ds, &ds.train);
    for variant in VARIANTS {
        let mut model = build_model(variant, &ds);
        train(&mut model, &groups[..50]);
        let tape = evaluate_on_fliggy(&Tape(&model), &ds, &fx);
        let served = evaluate_on_fliggy(&model.freeze(), &ds, &fx);
        let bits = |e: &odnet_core::FliggyEvaluation| {
            let r = e.ranking;
            [e.auc_o, e.auc_d, r.hr1, r.hr5, r.hr10, r.mrr5, r.mrr10].map(f64::to_bits)
        };
        assert_eq!(
            bits(&served),
            bits(&tape),
            "{variant:?}: {served:?} vs tape {tape:?}"
        );
    }
}

#[test]
fn full_checkpoint_api_round_trips_a_graph_model() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let mut model = build_model(Variant::Odnet, &ds);
    let groups: Vec<_> = fx
        .groups_from_samples(&ds, &ds.train)
        .into_iter()
        .take(25)
        .collect();
    train(&mut model, &groups);
    let case = fx.group_from_eval_case(&ds, &ds.eval_cases[0]);
    let before = model.score_group(&case);
    let theta_before = model.theta();

    // The checkpoint carries parameters only: rebuild the HSG exactly as at
    // training time.
    let restored =
        OdNetModel::load_json(&model.save_json(), Some(ds.hsg())).expect("valid checkpoint");
    assert_eq!(restored.score_group(&case), before);
    assert_eq!(restored.theta(), theta_before);
    assert_eq!(restored.variant, Variant::Odnet);
}

#[test]
fn checkpoint_load_rejects_missing_hsg_and_garbage() {
    let ds = tiny_dataset();
    let model = build_model(Variant::Odnet, &ds);
    let json = model.save_json();
    // Graph variant without HSG must fail loudly.
    assert!(OdNetModel::load_json(&json, None).is_err());
    // Garbage must fail as a parse error, not a panic.
    assert!(OdNetModel::load_json("{not json", None).is_err());
}

/// The header sizes are written from the model's own tables and checked
/// against every restored tensor on load: a header edited to 150 users
/// over 120-row tables is a typed error — for a graph variant already
/// against the supplied HSG — not an `Ok` model that panics on the first
/// lookup of user 121.
#[test]
fn checkpoint_with_an_edited_header_is_a_typed_error() {
    let ds = tiny_dataset();
    for variant in [Variant::OdnetG, Variant::Odnet] {
        let json = build_model(variant, &ds).save_json();
        let edited = json.replacen("\"num_users\":120", "\"num_users\":150", 1);
        assert_ne!(json, edited, "header field not found in checkpoint JSON");
        let hsg = || variant.uses_graph().then(|| ds.hsg());
        assert!(OdNetModel::load_json(&json, hsg()).is_ok());
        match OdNetModel::load_json(&edited, hsg()) {
            Err(CheckpointError::ParamMismatch(what)) => {
                assert!(what.contains("150"), "{variant:?}: {what}")
            }
            other => panic!(
                "{variant:?}: expected ParamMismatch, got {:?}",
                other.map(|_| "a model")
            ),
        }
    }
}
