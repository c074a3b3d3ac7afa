//! Full-funnel (retrieve → rank) behavior: candidate sets come from the
//! retrieval tier, rank order comes from the full model, and both stages
//! stamp the artifact generation that served them — including across hot
//! publishes, where the retriever must move to the new tables and be
//! re-keyed.

use od_retrieval::Tier;
use od_serve::{EngineConfig, Funnel, FunnelConfig};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::sync::{Arc, OnceLock};

struct Fixture {
    model: Arc<FrozenOdNet>,
    alt: Arc<FrozenOdNet>,
    /// One template per user, the featurization context a caller would
    /// hold (history, day, xst donors).
    templates: Vec<GroupInput>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
        let model = Arc::new(
            OdNetModel::new(
                Variant::Odnet,
                OdnetConfig::tiny(),
                ds.world.num_users(),
                ds.world.num_cities(),
                Some(ds.hsg()),
            )
            .freeze(),
        );
        let alt = Arc::new(
            OdNetModel::new(
                Variant::OdnetG,
                OdnetConfig {
                    seed: 0xC0FFEE,
                    theta_init: 0.8,
                    ..OdnetConfig::tiny()
                },
                ds.world.num_users(),
                ds.world.num_cities(),
                None,
            )
            .freeze(),
        );
        let fx = FeatureExtractor::new(6, 4);
        let templates: Vec<GroupInput> = fx
            .groups_from_samples(&ds, &ds.train)
            .into_iter()
            .take(6)
            .collect();
        assert!(templates.len() >= 2, "fixture needs user templates");
        Fixture {
            model,
            alt,
            templates,
        }
    })
}

/// The caller-side featurizer: candidates from the retrieval stage, in
/// retrieval order, grafted onto the user's context template.
fn featurize(template: &GroupInput, pairs: &[od_retrieval::ScoredPair]) -> GroupInput {
    let donor = template.candidates[0];
    let mut g = template.clone();
    g.candidates = pairs
        .iter()
        .map(|p| {
            let mut c = donor;
            c.origin = p.origin;
            c.dest = p.dest;
            c.label_o = 0.0;
            c.label_d = 0.0;
            c
        })
        .collect();
    g
}

fn funnel_over(model: &Arc<FrozenOdNet>, tier: Tier) -> Funnel {
    Funnel::new(
        Arc::clone(model),
        0xF00D,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        FunnelConfig {
            tier,
            ..FunnelConfig::default()
        },
    )
}

#[test]
fn funnel_ranks_retrieved_candidates_with_the_full_model() {
    let fix = fixture();
    for tier in [Tier::Exact, Tier::Pruned] {
        let funnel = funnel_over(&fix.model, tier);
        let template = &fix.templates[0];
        let rec = funnel
            .recommend(template.user, 8, |pairs| featurize(template, pairs))
            .expect("funnel request");
        assert_eq!(rec.pairs.len(), 8);
        assert!(rec.retrieval.scanned > 0);
        assert_eq!(rec.retrieved_by, rec.ranked_by);
        assert_eq!(rec.retrieved_by.epoch, 0);
        for p in &rec.pairs {
            assert_ne!(p.origin, p.dest);
            // The rank key is the artifact's own serving blend.
            assert_eq!(
                p.rank_score.to_bits(),
                fix.model.serving_score(p.p_origin, p.p_dest).to_bits()
            );
        }
        for w in rec.pairs.windows(2) {
            assert!(
                w[0].rank_score >= w[1].rank_score,
                "{tier:?}: funnel output not rank-ordered"
            );
        }
        funnel.shutdown();
    }
}

#[test]
fn a_pruned_funnel_recommends_exactly_what_an_exact_funnel_does() {
    let fix = fixture();
    let template = &fix.templates[1];
    let exact = funnel_over(&fix.model, Tier::Exact);
    let pruned = funnel_over(&fix.model, Tier::Pruned);
    let re = exact
        .recommend(template.user, 6, |pairs| featurize(template, pairs))
        .expect("exact funnel");
    let rp = pruned
        .recommend(template.user, 6, |pairs| featurize(template, pairs))
        .expect("pruned funnel");
    // Same artifact, same candidates, same kernels: every field of every
    // pair agrees to the bit, in the same rank order.
    let bits = |p: &od_serve::RankedPair| {
        (
            (p.origin.0, p.dest.0),
            p.retrieval_score.to_bits(),
            (p.p_origin.to_bits(), p.p_dest.to_bits()),
            p.rank_score.to_bits(),
        )
    };
    assert_eq!(
        rp.pairs.iter().map(bits).collect::<Vec<_>>(),
        re.pairs.iter().map(bits).collect::<Vec<_>>()
    );
    // Pruned scanned no more pair candidates than exact.
    assert!(rp.retrieval.scanned <= re.retrieval.scanned);
    exact.shutdown();
    pruned.shutdown();
}

#[test]
fn hot_publish_rekeys_the_retriever_mid_stream() {
    let fix = fixture();
    let funnel = funnel_over(&fix.model, Tier::Pruned);
    let template = &fix.templates[0];

    let before = funnel
        .recommend(template.user, 5, |pairs| featurize(template, pairs))
        .expect("pre-swap request");
    assert_eq!(before.retrieved_by.epoch, 0);
    assert_eq!(before.ranked_by.epoch, 0);

    // Swap generations under the live funnel.
    let v1 = funnel
        .publish(Arc::clone(&fix.alt), 0xBEEF)
        .expect("publish alt generation");
    assert_eq!(v1.epoch, 1);
    assert_eq!(funnel.retrieval_version(), v1);

    let after = funnel
        .recommend(template.user, 5, |pairs| featurize(template, pairs))
        .expect("post-swap request");
    assert_eq!(after.retrieved_by, v1, "retrieval must re-key per publish");
    assert_eq!(after.ranked_by, v1);
    // Different generation ⇒ different tables ⇒ different retrieval
    // scores (the fixture's generations are distinct by construction).
    assert_ne!(
        before.pairs[0].retrieval_score.to_bits(),
        after.pairs[0].retrieval_score.to_bits()
    );

    // Swap back mid-stream: versions keep advancing, stamps follow.
    let v2 = funnel
        .publish(Arc::clone(&fix.model), 0xF00D)
        .expect("publish original again");
    assert_eq!(v2.epoch, 2);
    let back = funnel
        .recommend(template.user, 5, |pairs| featurize(template, pairs))
        .expect("second post-swap request");
    assert_eq!(back.retrieved_by, v2);
    assert_eq!(back.ranked_by, v2);
    // Same artifact bytes as epoch 0 ⇒ the identical candidate set with
    // identical scores.
    let pre: Vec<_> = before
        .pairs
        .iter()
        .map(|p| (p.origin.0, p.dest.0, p.retrieval_score.to_bits()))
        .collect();
    let post: Vec<_> = back
        .pairs
        .iter()
        .map(|p| (p.origin.0, p.dest.0, p.retrieval_score.to_bits()))
        .collect();
    assert_eq!(pre, post);
    funnel.shutdown();
}

/// Inside `Funnel::publish` the engine is on generation N+1 before the
/// retriever leaves N. A response from that window is Eq. 11 under the
/// *ranking* generation's θ — the model that produced the probabilities
/// and the one `ranked_by` names — never N+1's probabilities mixed by N's.
#[test]
fn mid_swap_rank_scores_blend_with_the_ranking_generations_theta() {
    let fix = fixture();
    assert_ne!(fix.alt.theta().to_bits(), fix.model.theta().to_bits());
    let funnel = funnel_over(&fix.model, Tier::Exact);
    let template = &fix.templates[0];
    // Publish to the engine only: the state between `publish_versioned`
    // and the retriever swap, held still.
    let v1 = funnel
        .engine()
        .publish_versioned(Arc::clone(&fix.alt), 0xBEEF)
        .expect("publish alt generation to the ranker");
    let rec = funnel
        .recommend(template.user, 8, |pairs| featurize(template, pairs))
        .expect("mid-swap request");
    assert_eq!(rec.retrieved_by.epoch, 0);
    assert_eq!(rec.ranked_by, v1);
    for p in &rec.pairs {
        assert_eq!(
            p.rank_score.to_bits(),
            fix.alt.serving_score(p.p_origin, p.p_dest).to_bits(),
            "{p:?} not blended by the ranking generation"
        );
    }
    funnel.shutdown();
}

#[test]
fn funnel_records_retrieval_metrics() {
    let fix = fixture();
    let funnel = funnel_over(&fix.model, Tier::Pruned);
    let template = &fix.templates[0];
    funnel
        .recommend(template.user, 4, |pairs| featurize(template, pairs))
        .expect("funnel request");
    let snap = od_obs::global().snapshot();
    assert!(
        snap.find_with("od_retrieval_requests_total", &[("tier", "pruned")])
            .is_some(),
        "tier-labeled request counter missing"
    );
    assert!(snap.counter("od_retrieval_scanned_total") > 0);
    assert!(snap.find("od_retrieval_scan_ns").is_some());
    assert!(snap.find("od_retrieval_select_ns").is_some());
    funnel.shutdown();
}
