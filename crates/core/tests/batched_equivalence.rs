//! The training tape's group forward against the `f64` reference.
//!
//! `OdNetModel::forward_group` stacks a group's candidates into `n×d`
//! matrices; `tests/reference` computes the same network from the paper's
//! equations in plain loops. Logits, probabilities and the joint loss must
//! agree within the reference's stated tolerance for any candidate set,
//! for every variant, with and without the HSGC (at K = 1 and K = 2), the
//! MMoE head, and the intent extension.

mod reference;

use od_tensor::Graph;
use odnet_core::{GroupInput, OdNetModel};
use proptest::prelude::*;
use proptest::TestCaseError;
use reference::{fixture, logit_close, prob_close, reference, reference_loss, TOL};

/// Compare one group's tape logits, probabilities and loss with the
/// reference; `Err` names the first disagreement.
fn check(model: &OdNetModel, group: &GroupInput) -> Result<(), String> {
    let name = model.variant.name();
    let want = reference(model, group);
    let mut g = Graph::new();
    let fwd = model.forward_group(&mut g, group);
    let (lo, ld) = (
        g.value(fwd.logits_o).as_slice(),
        g.value(fwd.logits_d).as_slice(),
    );
    let probs = model.score_group(group);
    let n = want.candidates.len();
    if (lo.len(), ld.len(), probs.len()) != (n, n, n) {
        return Err(format!("{name}: candidate counts differ"));
    }
    for (i, (r, ((&lo, &ld), &(po, pd)))) in want
        .candidates
        .iter()
        .zip(lo.iter().zip(ld).zip(&probs))
        .enumerate()
    {
        if !(logit_close(lo, r.logit_o) && logit_close(ld, r.logit_d)) {
            return Err(format!(
                "{name} candidate {i}: tape logits ({lo}, {ld}) vs reference ({}, {})",
                r.logit_o, r.logit_d
            ));
        }
        if !(prob_close(po, r.p_o) && prob_close(pd, r.p_d)) {
            return Err(format!(
                "{name} candidate {i}: tape (p^O, p^D) ({po}, {pd}) vs reference ({}, {})",
                r.p_o, r.p_d
            ));
        }
    }
    let mut g = Graph::new();
    let loss = model.group_loss(&mut g, group);
    let (got, want) = (g.value(loss).item(), reference_loss(model, group, &want));
    if (f64::from(got) - want).abs() > TOL * (1.0 + want.abs()) {
        return Err(format!("{name} loss: tape {got} vs reference {want}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tape_matches_the_reference(cands in reference::candidates(fixture().num_cities)) {
        let fix = fixture();
        let mut group = fix.template.clone();
        group.candidates = cands;
        for model in &fix.models {
            check(model, &group).map_err(TestCaseError::fail)?;
        }
    }
}

/// Real groups cover short, long, one-sided and missing histories.
#[test]
fn tape_matches_the_reference_on_real_groups() {
    let fix = fixture();
    for model in &fix.models {
        for group in &fix.groups {
            check(model, group).unwrap();
        }
    }
}

/// A cold user — no history on either branch — zeroes the PEC summary and
/// the intent vector on every path.
#[test]
fn tape_matches_the_reference_without_history() {
    let fix = fixture();
    let mut group = fix.template.clone();
    for seq in [
        &mut group.lt_origins,
        &mut group.st_origins,
        &mut group.lt_dests,
        &mut group.st_dests,
    ] {
        seq.clear();
    }
    group.lt_days.clear();
    group.st_days.clear();
    for model in &fix.models {
        check(model, &group).unwrap();
    }
}

/// Single-candidate groups hit the vector-shaped (rows == 1) corners of
/// every batched op.
#[test]
fn single_candidate_group_matches() {
    let fix = fixture();
    let mut group = fix.template.clone();
    group.candidates.truncate(1);
    for model in &fix.models {
        check(model, &group).unwrap();
    }
}

/// Empty groups score to an empty vector.
#[test]
fn empty_candidate_group_scores_empty() {
    let fix = fixture();
    let mut group = fix.template.clone();
    group.candidates.clear();
    for model in &fix.models {
        assert!(model.score_group(&group).is_empty());
    }
}

/// The MMoE gates (Eq. 7) are distributions over the experts, and the two
/// tasks mix the experts differently; the attention and intent weights
/// are distributions too. The tape reads the same weights: it matches the
/// reference's logits above.
#[test]
fn gates_and_attentions_are_distributions() {
    let fix = fixture();
    let is_distribution = |w: &[f64]| {
        !w.is_empty() && w.iter().all(|&x| x >= 0.0) && (w.iter().sum::<f64>() - 1.0).abs() < 1e-12
    };
    for model in &fix.models {
        let r = reference(model, &fix.template);
        assert!((0.0..1.0).contains(&r.theta));
        for w in &r.pec_attention {
            assert!(is_distribution(w), "{}", model.variant.name());
        }
        if model.config.intents > 0 {
            for a in &r.intent_assignment {
                let a = a.as_ref().expect("the template has recent clicks");
                assert_eq!(a.len(), model.config.intents);
                assert!(is_distribution(a));
            }
        }
        if model.variant.joint() {
            for c in &r.candidates {
                assert_eq!(c.gate_o.len(), model.config.experts);
                assert!(is_distribution(&c.gate_o) && is_distribution(&c.gate_d));
            }
            assert!(
                r.candidates.iter().any(|c| c.gate_o != c.gate_d),
                "{}: the two tasks see one mixture",
                model.variant.name()
            );
        }
    }
}

/// Tape reuse across groups must not leak state between scores: scoring
/// group A, then B, then A again on one graph gives identical results.
#[test]
fn graph_reuse_is_stateless_across_groups() {
    let fix = fixture();
    let model = &fix.models[0];
    let mut a = fix.template.clone();
    a.candidates.truncate(3.min(a.candidates.len()));
    let mut b = fix.template.clone();
    b.candidates.reverse();
    let mut tape = Graph::new();
    let first = model.score_group_with(&mut tape, &a);
    let _ = model.score_group_with(&mut tape, &b);
    let again = model.score_group_with(&mut tape, &a);
    assert_eq!(first, again);
}
