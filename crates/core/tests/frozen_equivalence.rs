//! The frozen serving artifact must reproduce the live tape bit for bit,
//! and the `f64` reference within its tolerance.
//!
//! `OdNetModel::freeze` materializes the HSGC closure into dense tables and
//! extracts every weight into plain matrices; its tape-free forward mirrors
//! the live forward op for op, so frozen scores equal the tape's by
//! `to_bits`, for every variant, with and without the HSGC, the MMoE head,
//! and the intent extension. Both are held to `tests/reference`, which
//! shares no numeric code with either.

mod reference;

use od_tensor::infer::Workspace;
use odnet_core::{
    CheckpointError, FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use reference::{fixture, prob_close, reference};
use std::sync::OnceLock;

struct Frozen {
    /// The artifact of each fixture model, in fixture order.
    frozen: Vec<FrozenOdNet>,
    /// Per artifact, its reloads through both `.odz` load modes:
    /// `[owned read, zero-copy mmap]`. Both must score bit-identically to
    /// the original.
    reloaded: Vec<[FrozenOdNet; 2]>,
}

fn frozen() -> &'static Frozen {
    static FROZEN: OnceLock<Frozen> = OnceLock::new();
    FROZEN.get_or_init(|| {
        let frozen: Vec<FrozenOdNet> = fixture().models.iter().map(OdNetModel::freeze).collect();
        let reloaded = frozen
            .iter()
            .enumerate()
            .map(|(i, frozen)| {
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
        Frozen { frozen, reloaded }
    })
}

/// Compare one group's frozen scores with the tape's bits and the
/// reference's probabilities; `Err` names the first disagreement.
fn check(frozen: &FrozenOdNet, live: &OdNetModel, group: &GroupInput) -> Result<(), String> {
    let name = live.variant.name();
    let cold = frozen.score_group(group);
    let tape = live.score_group(group);
    let bits = |s: &[(f32, f32)]| -> Vec<(u32, u32)> {
        s.iter().map(|(o, d)| (o.to_bits(), d.to_bits())).collect()
    };
    if bits(&cold) != bits(&tape) {
        return Err(format!(
            "{name}: frozen {cold:?} is not the tape's {tape:?}"
        ));
    }
    let want = reference(live, group);
    for (i, (&(po, pd), r)) in cold.iter().zip(&want.candidates).enumerate() {
        if !(prob_close(po, r.p_o) && prob_close(pd, r.p_d)) {
            return Err(format!(
                "{name} candidate {i}: frozen ({po}, {pd}) vs reference ({}, {})",
                r.p_o, r.p_d
            ));
        }
        let score = f64::from(frozen.serving_score(po, pd));
        if (score - r.score).abs() > reference::TOL {
            return Err(format!(
                "{name} candidate {i}: frozen Eq. 11 score {score} vs reference {}",
                r.score
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frozen scores equal the tape's bits and sit within the reference's
    /// tolerance for arbitrary candidate sets of size 1–64.
    #[test]
    fn frozen_scores_match_the_tape_and_the_reference(
        cands in reference::candidates(fixture().num_cities)
    ) {
        let fix = fixture();
        let mut group = fix.template.clone();
        group.candidates = cands;
        for (frozen, live) in frozen().frozen.iter().zip(&fix.models) {
            check(frozen, live, &group).map_err(TestCaseError::fail)?;
        }
    }

    /// Both `.odz` load modes — owned read and zero-copy mmap — score
    /// **bit-identically** to the original in-memory artifact, for every
    /// variant and arbitrary candidate sets. Exact equality (not
    /// tolerance): all three serve the same IEEE-754 bit patterns through
    /// the same kernels.
    #[test]
    fn persistence_paths_score_bit_identically(
        cands in reference::candidates(fixture().num_cities)
    ) {
        let mut group = fixture().template.clone();
        group.candidates = cands;
        let fz = frozen();
        for (frozen, reloaded) in fz.frozen.iter().zip(&fz.reloaded) {
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
    let fz = frozen();
    for (frozen, reloaded) in fz.frozen.iter().zip(&fz.reloaded) {
        for other in reloaded {
            assert_eq!(other.variant(), frozen.variant());
            assert_eq!(other.theta().to_bits(), frozen.theta().to_bits());
            assert_eq!(other.num_users(), frozen.num_users());
            assert_eq!(other.num_cities(), frozen.num_cities());
            assert_eq!(other.config(), frozen.config());
        }
    }
}

/// Real groups cover short, long, one-sided and missing histories.
#[test]
fn frozen_matches_the_tape_and_the_reference_on_real_groups() {
    let fix = fixture();
    for (frozen, live) in frozen().frozen.iter().zip(&fix.models) {
        for group in &fix.groups {
            check(frozen, live, group).unwrap();
        }
    }
}

/// Empty groups score to an empty vector without touching the workspace.
#[test]
fn empty_candidate_group_scores_empty() {
    let mut group = fixture().template.clone();
    group.candidates.clear();
    for frozen in &frozen().frozen {
        assert!(frozen.score_group(&group).is_empty());
    }
}

/// Workspace reuse across groups must not leak state between scores:
/// scoring group A, then B, then A again with one workspace gives identical
/// results, and matches a fresh workspace.
#[test]
fn workspace_reuse_is_stateless_across_groups() {
    let fix = fixture();
    let frozen = &frozen().frozen[0];
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
