//! Property test: every trace the funnel emits is a well-formed span
//! tree — one root, unique ids, resolvable parents, children nested
//! inside their parent's interval — regardless of how the artifact was
//! loaded (owned `.odz` read vs zero-copy mmap) and across a hot publish
//! mid-sequence. The funnel records against the process-global tracer,
//! so this file holds exactly one test and tags every request id with a
//! per-case nonce to filter its own traces out of the shared ring.

use od_obs::trace::{self, check_well_formed, TraceConfig};
use od_retrieval::Tier;
use od_serve::{EngineConfig, Funnel, FunnelConfig};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

struct Fixture {
    /// The artifact read back owned from a frozen `.odz`.
    owned: Arc<FrozenOdNet>,
    /// The same file mapped zero-copy.
    mapped: Arc<FrozenOdNet>,
    /// A second generation to hot-publish mid-sequence.
    alt: Arc<FrozenOdNet>,
    templates: Vec<GroupInput>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
        let frozen = OdNetModel::new(
            Variant::Odnet,
            OdnetConfig::tiny(),
            ds.world.num_users(),
            ds.world.num_cities(),
            Some(ds.hsg()),
        )
        .freeze();
        let path = std::env::temp_dir().join(format!("od_trace_spans_{}.odz", std::process::id()));
        frozen.save_bin(&path).expect("save .odz");
        let owned = Arc::new(FrozenOdNet::load_bin(&path).expect("owned read"));
        let mapped = Arc::new(FrozenOdNet::load_bin_mmap(&path).expect("mmap read"));
        let alt = Arc::new(
            OdNetModel::new(
                Variant::OdnetG,
                OdnetConfig {
                    seed: 0xC0FFEE,
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
            owned,
            mapped,
            alt,
            templates,
        }
    })
}

/// Graft retrieved candidates onto the user's context template (the
/// caller-side featurizer a recommend route would hold).
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

fn funnel_over(model: &Arc<FrozenOdNet>, checksum: u32) -> Funnel {
    Funnel::new(
        Arc::clone(model),
        checksum,
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 16,
            coalesce: true,
            fail_point: None,
            stage_timing: true,
            ..EngineConfig::default()
        },
        FunnelConfig {
            tier: Tier::Exact,
            ..FunnelConfig::default()
        },
    )
}

/// Distinguishes this case's request ids in the process-global ring.
static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn traced_span_trees_stay_well_formed_across_load_paths_and_swaps(
        mmap in prop::bool::ANY,
        // Publish before request `swap_at`; draws at/above `n` mean the
        // sequence runs pinned, so both shapes are exercised.
        swap_at in (0usize..8).prop_map(|v| v.checked_sub(1)),
        n in 2usize..6,
        k in 1usize..5,
    ) {
        let fix = fixture();
        let tracer = trace::global();
        // Keep every trace: the property is about span-tree shape, not
        // the tail decision (trace_hammer covers sampling).
        tracer.enable(TraceConfig { slow_ns: 0, sample_every: 1 });
        let model = if mmap { &fix.mapped } else { &fix.owned };
        let funnel = funnel_over(model, 0xF1A7);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let mut want = Vec::new();
        let mut epoch = 0u64;
        for i in 0..n {
            if swap_at == Some(i) {
                epoch = funnel
                    .publish(Arc::clone(&fix.alt), 0xA17A)
                    .expect("hot publish")
                    .epoch;
                prop_assert!(epoch > 0, "publish must advance the epoch");
            }
            let tpl = &fix.templates[i % fix.templates.len()];
            let rid = format!("pt-{case}-{i}");
            let t0 = od_obs::clock::now();
            let ctx = tracer.begin(&rid);
            prop_assert!(ctx.is_active(), "enabled tracer must hand out a slot");
            let rec = funnel.recommend_traced(tpl.user, k, None, ctx, |pairs| {
                featurize(tpl, pairs)
            });
            let kept = tracer.end(ctx, "request", t0, od_obs::clock::now(), rec.is_err());
            let rec = rec.expect("funnel recommend succeeds");
            prop_assert!(!rec.pairs.is_empty(), "retrieval found candidates");
            prop_assert!(kept, "slow_ns=0 keeps every trace");
            want.push((rid, epoch));
        }
        let snap = tracer.snapshot(0, false, 256);
        for (rid, epoch) in &want {
            let t = snap
                .iter()
                .find(|t| t.request_id == *rid)
                .expect("kept trace reached the ring");
            if let Err(why) = check_well_formed(t) {
                return Err(TestCaseError::fail(format!("trace {rid}: {why}")));
            }
            let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
            for stage in ["retrieval", "forward", "request"] {
                prop_assert!(
                    names.contains(&stage),
                    "trace {rid} is missing the {stage} span (spans: {names:?})"
                );
            }
            // Both stamped stages carry the generation that served them,
            // reflecting the mid-sequence publish.
            for stage in ["retrieval", "forward"] {
                let span = t.spans.iter().find(|s| s.name == stage).expect("present");
                let stamped = span
                    .attrs
                    .iter()
                    .find(|(k, _)| *k == "epoch")
                    .map(|(_, v)| *v);
                prop_assert_eq!(
                    stamped,
                    Some(*epoch),
                    "{} span epoch attribute on trace {}",
                    stage,
                    rid
                );
            }
        }
    }
}
