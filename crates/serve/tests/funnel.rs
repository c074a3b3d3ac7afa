//! Full-funnel (retrieve → rank) behavior: candidate sets come from the
//! retrieval tier, rank order comes from the full model, and both stages
//! stamp the artifact generation that served them — including across hot
//! publishes, racing ones included, after which both stages serve the
//! engine's live generation.

use od_retrieval::{Retriever, Tier};
use od_serve::{EngineConfig, Funnel, FunnelConfig};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

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

/// The rank key is total — `rank_score` descending, then the unique
/// `(origin, dest)` — so tied scores come out in `(origin, dest)` order,
/// whatever order retrieval delivered them in. A featurizer that gives
/// every candidate the donor's features makes the ranker tie them all.
#[test]
fn tied_rank_scores_come_out_in_origin_dest_order() {
    let fix = fixture();
    let funnel = funnel_over(&fix.model, Tier::Pruned);
    let template = &fix.templates[0];
    let k = 24;
    let rec = funnel
        .recommend(template.user, k, |pairs| {
            let mut g = template.clone();
            g.candidates = vec![template.candidates[0]; pairs.len()];
            g
        })
        .expect("funnel request");
    assert_eq!(rec.pairs.len(), k);
    let tie = rec.pairs[0].rank_score.to_bits();
    assert!(rec.pairs.iter().all(|p| p.rank_score.to_bits() == tie));
    let served: Vec<(u32, u32)> = rec.pairs.iter().map(|p| (p.origin.0, p.dest.0)).collect();
    let mut ordered = served.clone();
    ordered.sort_unstable();
    assert_eq!(served, ordered);
    // Retrieval order is by retrieval score, so the rank sort did the work.
    let retrieved: Vec<(u32, u32)> = Retriever::build(Arc::clone(&fix.model), Default::default())
        .top_k(template.user, k, Tier::Pruned)
        .pairs
        .iter()
        .map(|p| (p.origin.0, p.dest.0))
        .collect();
    assert_ne!(retrieved, ordered);
    funnel.shutdown();
}

#[test]
fn hot_publish_moves_retrieval_to_the_new_generation() {
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
    assert_eq!(funnel.engine().version(), v1);

    let after = funnel
        .recommend(template.user, 5, |pairs| featurize(template, pairs))
        .expect("post-swap request");
    assert_eq!(after.retrieved_by, v1, "retrieval must follow the publish");
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

/// A publish that lands after retrieval and before the ranking submit —
/// reached here from inside the featurizer, which runs in exactly that
/// window — makes a response retrieved by N and ranked by N+1. Its rank
/// scores are Eq. 11 under the *ranking* generation's θ (the model that
/// produced the probabilities, the one `ranked_by` names), never N+1's
/// probabilities mixed by N's.
#[test]
fn mid_swap_rank_scores_blend_with_the_ranking_generations_theta() {
    let fix = fixture();
    assert_ne!(fix.alt.theta().to_bits(), fix.model.theta().to_bits());
    let funnel = funnel_over(&fix.model, Tier::Exact);
    let template = &fix.templates[0];
    let mut v1 = None;
    let rec = funnel
        .recommend(template.user, 8, |pairs| {
            let published = funnel.publish(Arc::clone(&fix.alt), 0xBEEF);
            v1 = Some(published.expect("publish alt generation"));
            featurize(template, pairs)
        })
        .expect("mid-swap request");
    assert_eq!(rec.retrieved_by.epoch, 0);
    assert_eq!(Some(rec.ranked_by), v1);
    for p in &rec.pairs {
        assert_eq!(
            p.rank_score.to_bits(),
            fix.alt.serving_score(p.p_origin, p.p_dest).to_bits(),
            "{p:?} not blended by the ranking generation"
        );
    }
    funnel.shutdown();
}

/// Publishers racing into one funnel, round after round: once every
/// publish has returned, the next request must be retrieved *and* ranked
/// by the engine's live generation. A funnel that kept its own retriever
/// slot, written after the engine's publish lock was released, could let
/// a losing publisher overwrite the winner's retriever and leave
/// retrieval a generation behind until the next publish. Four publishers
/// on a two-core host get preempted inside that window often enough to
/// catch it in every run; two caught it in a few runs out of ten.
#[test]
fn racing_publishers_leave_both_stages_on_the_live_generation() {
    const ROUNDS: usize = 4_000;
    const PUBLISHERS: usize = 4;
    let fix = fixture();
    let funnel = Funnel::new(
        Arc::clone(&fix.model),
        fix.model.fingerprint(),
        EngineConfig {
            workers: 1,
            // Reap retired generations (and their epoch series) promptly:
            // this test publishes thousands.
            swap_grace: Duration::from_millis(1),
            ..EngineConfig::default()
        },
        FunnelConfig::default(),
    );
    let template = &fix.templates[0];
    let barrier = Barrier::new(PUBLISHERS + 1);
    let mut stale = Vec::new();
    std::thread::scope(|s| {
        for i in 0..PUBLISHERS {
            let model = [&fix.model, &fix.alt][i % 2];
            let (funnel, barrier) = (&funnel, &barrier);
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    funnel
                        .publish(Arc::clone(model), model.fingerprint())
                        .expect("compatible publish");
                    barrier.wait();
                }
            });
        }
        // Failures are collected, not asserted, here: a panic on this
        // thread would leave the publishers parked at the barrier.
        for round in 0..ROUNDS {
            barrier.wait(); // publishers go
            barrier.wait(); // every publish returned
            let live = funnel.engine().version();
            let served = funnel
                .recommend(template.user, 4, |pairs| featurize(template, pairs))
                .map(|rec| (rec.retrieved_by, rec.ranked_by));
            if served != Ok((live, live)) {
                stale.push((round, live, served));
            }
        }
    });
    assert_eq!(
        funnel.engine().version().epoch,
        (PUBLISHERS * ROUNDS) as u64
    );
    assert!(
        stale.is_empty(),
        "{} of {ROUNDS} rounds served off the live generation, first: {:?}",
        stale.len(),
        stale[0]
    );
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
