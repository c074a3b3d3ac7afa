//! The frozen serving artifact must reproduce the live tape.
//!
//! `OdNetModel::freeze` materializes the HSGC closure into dense tables and
//! extracts every weight into plain matrices; its tape-free forward mirrors
//! the live batched forward op for op. The live model stays the correctness
//! oracle: frozen scores must agree within float tolerance with both the
//! batched path and the original per-candidate path, for every variant,
//! with and without the HSGC, the MMoE head, and the intent extension.

mod oracle;

use od_hsg::CityId;
use od_tensor::infer::Workspace;
use odnet_core::{
    CandidateInput, CheckpointError, FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel,
    OdnetConfig, Variant, XST_DIM,
};
use oracle::oracle_scores;
use proptest::prelude::*;
use std::sync::OnceLock;

const TOL: f32 = 1e-5;

struct Fixture {
    /// `(frozen, live)` pairs: the artifact and the model it was frozen
    /// from.
    pairs: Vec<(FrozenOdNet, OdNetModel)>,
    /// Per-pair reloads of the frozen artifact through both `.odz` load
    /// modes: `[owned read, zero-copy mmap]`. Both must score
    /// bit-identically to the original.
    reloaded: Vec<[FrozenOdNet; 2]>,
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
            let live =
                OdNetModel::new(variant, cfg, ds.world.num_users(), ds.world.num_cities(), g);
            (live.freeze(), live)
        };
        let pairs = vec![
            build(Variant::Odnet, 0),
            build(Variant::StlG, 0),
            build(Variant::OdnetG, 3),
            build(Variant::StlPlusG, 0),
        ];
        let reloaded = pairs
            .iter()
            .enumerate()
            .map(|(i, (frozen, _))| {
                let path = std::env::temp_dir()
                    .join(format!("odnet_equiv_{}_{i}.odz", std::process::id()));
                frozen.save_bin(&path).expect("save .odz");
                let bin = FrozenOdNet::load_bin(&path).expect("owned binary read");
                let mapped = FrozenOdNet::load_bin_mmap(&path).expect("zero-copy mmap");
                // Unlink immediately: on unix the mapping stays valid, and
                // the fixture leaves no temp litter behind.
                let _ = std::fs::remove_file(&path);
                [bin, mapped]
            })
            .collect();
        let fx = FeatureExtractor::new(6, 4);
        let template = fx
            .groups_from_samples(&ds, &ds.train)
            .into_iter()
            .find(|g| !g.lt_origins.is_empty())
            .expect("a group with history exists");
        Fixture {
            pairs,
            reloaded,
            template,
            num_cities: ds.world.num_cities(),
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

    /// Frozen scores agree with both live paths (batched and the original
    /// per-candidate oracle) for arbitrary candidate sets of size 1–64.
    #[test]
    fn frozen_scores_match_live_oracles(cands in candidates(fixture().num_cities)) {
        let fix = fixture();
        let mut group = fix.template.clone();
        group.candidates = cands;
        for (frozen, live) in &fix.pairs {
            let cold = frozen.score_group(&group);
            let live_b = live.score_group(&group);
            let live_p = oracle_scores(live, &group);
            prop_assert_eq!(cold.len(), live_b.len());
            for (i, ((fo, fd), ((bo, bd), (po, pd)))) in
                cold.iter().zip(live_b.iter().zip(&live_p)).enumerate()
            {
                prop_assert!(
                    (fo - bo).abs() <= TOL && (fd - bd).abs() <= TOL,
                    "{} candidate {i}: frozen ({fo}, {fd}) vs batched ({bo}, {bd})",
                    frozen.variant().name()
                );
                prop_assert!(
                    (fo - po).abs() <= TOL && (fd - pd).abs() <= TOL,
                    "{} candidate {i}: frozen ({fo}, {fd}) vs per-candidate ({po}, {pd})",
                    frozen.variant().name()
                );
            }
        }
    }

    /// Both `.odz` load modes — owned read and zero-copy mmap — score
    /// **bit-identically** to the original in-memory artifact, for every
    /// variant and arbitrary candidate sets. Exact equality (not
    /// tolerance): all three serve the same IEEE-754 bit patterns through
    /// the same kernels.
    #[test]
    fn persistence_paths_score_bit_identically(cands in candidates(fixture().num_cities)) {
        let fix = fixture();
        let mut group = fix.template.clone();
        group.candidates = cands;
        for ((frozen, _), reloaded) in fix.pairs.iter().zip(&fix.reloaded) {
            let expected = frozen.score_group(&group);
            for (path, other) in ["bin", "mmap"].iter().zip(reloaded.iter()) {
                let got = other.score_group(&group);
                prop_assert_eq!(
                    &expected,
                    &got,
                    "{} via {} diverged from the in-memory artifact",
                    frozen.variant().name(),
                    path
                );
            }
        }
    }
}

/// Reloaded artifacts carry identical metadata on every path.
#[test]
fn persistence_paths_preserve_metadata() {
    let fix = fixture();
    for ((frozen, _), reloaded) in fix.pairs.iter().zip(&fix.reloaded) {
        for other in reloaded {
            assert_eq!(other.variant(), frozen.variant());
            assert_eq!(other.theta().to_bits(), frozen.theta().to_bits());
            assert_eq!(other.num_users(), frozen.num_users());
            assert_eq!(other.num_cities(), frozen.num_cities());
            assert_eq!(other.config(), frozen.config());
        }
    }
}

/// On the template group the frozen path reproduces the live batched tape
/// *bitwise* — the kernels are mirrored op for op, not merely approximated.
#[test]
fn frozen_matches_batched_bitwise_on_template() {
    let fix = fixture();
    let group = &fix.template;
    for (frozen, batched) in &fix.pairs {
        assert_eq!(
            frozen.score_group(group),
            batched.score_group(group),
            "{} frozen diverged from the live batched tape",
            frozen.variant().name()
        );
    }
}

/// Empty groups score to an empty vector without touching the workspace.
#[test]
fn empty_candidate_group_scores_empty() {
    let fix = fixture();
    let mut group = fix.template.clone();
    group.candidates.clear();
    for (frozen, _) in &fix.pairs {
        assert!(frozen.score_group(&group).is_empty());
    }
}

/// Workspace reuse across groups must not leak state between scores:
/// scoring group A, then B, then A again with one workspace gives identical
/// results, and matches a fresh workspace.
#[test]
fn workspace_reuse_is_stateless_across_groups() {
    let fix = fixture();
    let (frozen, _) = &fix.pairs[0];
    let mut a = fix.template.clone();
    a.candidates.truncate(3.min(a.candidates.len()));
    let mut b = fix.template.clone();
    b.candidates.reverse();
    let mut ws = Workspace::new();
    let first = frozen.score_group_with(&mut ws, &a);
    let _ = frozen.score_group_with(&mut ws, &b);
    let again = frozen.score_group_with(&mut ws, &a);
    assert_eq!(first, again);
    assert_eq!(first, frozen.score_group_with(&mut Workspace::new(), &a));
}

/// A checkpoint holds weights only, so the road from one to a served
/// artifact is reload + `freeze()`: for every variant a *trained* model's
/// `save_json` → `load_json` → `freeze()` → `save_bin` writes the very bytes
/// its in-process `freeze().save_bin` does (the graph variants re-sample
/// their neighbour tables from `config.seed`).
#[test]
fn reloaded_checkpoint_freezes_to_the_same_odz_bytes() {
    let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
    let groups = FeatureExtractor::new(6, 4).groups_from_samples(&ds, &ds.train);
    let odz_bytes = |frozen: FrozenOdNet| {
        let path = std::env::temp_dir().join(format!("odnet_reload_{}.odz", std::process::id()));
        frozen.save_bin(&path).expect("save .odz");
        let bytes = std::fs::read(&path).expect("read .odz back");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let mut ckpt = String::new();
    for variant in [
        Variant::Odnet,
        Variant::OdnetG,
        Variant::StlPlusG,
        Variant::StlG,
    ] {
        let hsg = || variant.uses_graph().then(|| ds.hsg());
        let mut cfg = OdnetConfig::tiny();
        cfg.epochs = 1;
        let (users, cities) = (ds.world.num_users(), ds.world.num_cities());
        let mut live = OdNetModel::new(variant, cfg, users, cities, hsg());
        odnet_core::train(&mut live, &groups[..30]);
        ckpt = live.save_json();
        let reloaded = OdNetModel::load_json(&ckpt, hsg()).expect("own checkpoint reloads");
        assert!(
            odz_bytes(reloaded.freeze()) == odz_bytes(live.freeze()),
            "{}: reload + freeze wrote a different .odz",
            variant.name()
        );
    }
    assert!(matches!(
        OdNetModel::load_json("not json", None),
        Err(CheckpointError::Parse(_))
    ));

    // Another version's checkpoint reports its version, not a parse error.
    let tampered = ckpt.replacen("\"format_version\":3", "\"format_version\":2", 1);
    assert_ne!(ckpt, tampered, "version field not found in checkpoint JSON");
    match OdNetModel::load_json(&tampered, None) {
        Err(CheckpointError::Version(2)) => {}
        other => panic!("expected Version(2), got {:?}", other.err()),
    }
}
