//! The per-candidate oracle shared by the equivalence suites: the original
//! one-candidate-at-a-time live forward (`OdNetModel::forward_group`), which
//! the batched tape and the frozen artifact are checked against.

use od_tensor::{stable_sigmoid, Graph};
use odnet_core::{GroupInput, OdNetModel};

/// Per-candidate `(p^O, p^D)` from the reference forward.
pub fn oracle_scores(model: &OdNetModel, group: &GroupInput) -> Vec<(f32, f32)> {
    let mut g = Graph::new();
    let fwd = model.forward_group(&mut g, group);
    fwd.logits_o
        .iter()
        .zip(&fwd.logits_d)
        .map(|(&lo, &ld)| {
            (
                stable_sigmoid(g.value(lo).as_slice()[0]),
                stable_sigmoid(g.value(ld).as_slice()[0]),
            )
        })
        .collect()
}
