//! The frozen MMoE head's fused forward — one GEMM against the packed
//! `[experts | gate_O | gate_D]` panel, seeded with the shared prefix's
//! partial product — against the forward it replaced: one
//! `FrozenLinear::forward` per expert and per gate over full `q⊕` rows.
//!
//! The reference is built from the head's *serialized* layers — the five
//! `FrozenLinear`s and two towers are all it needs, the panel is derived
//! state. Logits are compared by `f32::to_bits`.
//! `frozen_equivalence` stays the end-to-end oracle; this suite localizes a
//! failure to the head and covers panel widths and prefix lengths the
//! served configuration does not.

use od_tensor::infer::{self, Workspace};
use od_tensor::nn::{FrozenLinear, FrozenMlp};
use od_tensor::{init, ParamStore, Shape};
use odnet_core::{MmoeHead, OdnetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Deserialize;

/// The stored form of a frozen head, layer by layer.
#[derive(Deserialize)]
struct Layers {
    experts: Vec<FrozenLinear>,
    gate_o: FrozenLinear,
    gate_d: FrozenLinear,
    tower_o: FrozenMlp,
    tower_d: FrozenMlp,
    expert_dim: usize,
}

impl Layers {
    /// The per-layer forward over full `n×2d_q` rows: a matmul per expert
    /// and per gate, experts mixed in ascending order.
    fn forward(&self, ws: &mut Workspace, q_cat: &[f32], n: usize) -> (Vec<f32>, Vec<f32>) {
        let (dr, num) = (self.expert_dim, self.experts.len());
        let outs: Vec<Vec<f32>> = self
            .experts
            .iter()
            .map(|e| {
                let mut o = e.forward(ws, q_cat, n);
                infer::relu_in_place(&mut o);
                o
            })
            .collect();
        let mut mix = |gate: &FrozenLinear, tower: &FrozenMlp| {
            let mut weights = gate.forward(ws, q_cat, n);
            infer::softmax_rows_in_place(&mut weights, num);
            let mut r = vec![0.0f32; n * dr];
            for (e, out_e) in outs.iter().enumerate() {
                for (j, (acc, &x)) in r.iter_mut().zip(out_e).enumerate() {
                    let w = weights[j / dr * num + e];
                    if e == 0 {
                        *acc = w * x;
                    } else {
                        *acc += w * x;
                    }
                }
            }
            tower.forward(ws, &r, n)
        };
        (
            mix(&self.gate_o, &self.tower_o),
            mix(&self.gate_d, &self.tower_d),
        )
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Fused and reference logit bits (`logit_O` then `logit_D`) for `n` rows
/// sharing their first `shared` columns, with the fused forward told that
/// `prefix` leading columns are shared.
fn both(config: &OdnetConfig, n: usize, shared: usize, prefix: usize) -> (Vec<u32>, Vec<u32>) {
    let in_dim = 2 * config.q_dim();
    let mut store = ParamStore::new();
    let head = MmoeHead::new(
        &mut store,
        "mmoe",
        in_dim,
        config.experts,
        config.expert_dim,
        config.tower_hidden,
        &mut StdRng::seed_from_u64(config.seed),
    );
    let frozen = head.freeze(&store);
    let layers: Layers =
        serde_json::from_str(&serde_json::to_string(&frozen).unwrap()).expect("stored form");

    let mut q_cat = init::gaussian(
        Shape::Matrix(n, in_dim),
        0.0,
        1.0,
        &mut StdRng::seed_from_u64((n * in_dim + shared) as u64),
    )
    .as_slice()
    .to_vec();
    for i in 1..n {
        q_cat.copy_within(..shared, i * in_dim);
    }
    let tail: Vec<f32> = q_cat
        .chunks_exact(in_dim)
        .flat_map(|row| &row[prefix..])
        .copied()
        .collect();

    let mut ws = Workspace::new();
    let (fo, fd) = frozen.forward_batched(&mut ws, &q_cat[..prefix], &tail, n);
    let (ro, rd) = layers.forward(&mut ws, &q_cat, n);
    (bits(&[fo, fd].concat()), bits(&[ro, rd].concat()))
}

fn configs() -> Vec<OdnetConfig> {
    [OdnetConfig::default(), OdnetConfig::tiny()]
        .into_iter()
        .flat_map(|c| {
            [0, 2].map(|intents| OdnetConfig {
                intents,
                ..c.clone()
            })
        })
        .collect()
}

#[test]
fn fused_head_is_bit_identical_to_the_per_layer_forward() {
    // default(): 3·32 + 6 = 102 panel columns; tiny(): 3·8 + 6 = 30, no
    // full-width tile at all. Group sizes cross the 4-row block both ways.
    for config in configs() {
        for n in [1, 3, 4, 5, 64] {
            for prefix in [0, 3 * config.embed_dim] {
                let (fused, reference) = both(&config, n, 3 * config.embed_dim, prefix);
                assert_eq!(
                    fused, reference,
                    "embed_dim {} intents {} n {n} prefix {prefix}",
                    config.embed_dim, config.intents
                );
            }
        }
    }
}

#[test]
fn a_prefix_longer_than_the_shared_columns_is_caught() {
    // Rows share 3·embed_dim columns; claiming 4·embed_dim hoists the
    // candidate embedding of row 0 into every row. The comparison above
    // must be able to see that.
    for config in configs() {
        let (fused, reference) = both(&config, 5, 3 * config.embed_dim, 4 * config.embed_dim);
        assert_ne!(fused, reference, "embed_dim {}", config.embed_dim);
    }
}
