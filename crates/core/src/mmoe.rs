//! O&D Joint Learning Component (paper §IV-C, Figure 5) — a Multi-gate
//! Mixture-of-Experts head, plus the single-task head used by the STL
//! ablation variants.
//!
//! Both heads emit *logits*; training applies the numerically stable
//! BCE-with-logits (the fold of Eqs. 9–10), and serving applies the sigmoid
//! to recover the paper's probabilities `p^O_c`, `p^D_c`.

use od_tensor::infer::{self, Workspace};
use od_tensor::nn::{Activation, FrozenLinear, FrozenMlp, Linear, Mlp};
use od_tensor::{Graph, ParamStore, SimdLevel, Value};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The MMoE joint-learning head: `experts` expert networks shared by both
/// tasks, two softmax gates (one per task), two tower networks.
#[derive(Clone, Debug)]
pub struct MmoeHead {
    experts: Vec<Linear>,
    gate_o: Linear,
    gate_d: Linear,
    tower_o: Mlp,
    tower_d: Mlp,
    expert_dim: usize,
}

impl MmoeHead {
    /// Register the head under `name`. `input_dim` is `2·d_q` (the width of
    /// `q⊕ = concat(q^O, q^D)`); `expert_dim` is `d_r`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        num_experts: usize,
        expert_dim: usize,
        tower_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_experts >= 1, "need at least one expert");
        // Eq. 6: r_i = W^{expert_i} · q⊕. The paper calls the experts MLPs;
        // we follow Eq. 6's linear form plus a ReLU (the minimal MLP).
        let experts = (0..num_experts)
            .map(|i| {
                Linear::new(
                    store,
                    &format!("{name}.expert{i}"),
                    input_dim,
                    expert_dim,
                    true,
                    rng,
                )
            })
            .collect();
        // Eq. 7: r_g = softmax(W^{gate} · q⊕), bias-free as written.
        let gate_o = Linear::new(
            store,
            &format!("{name}.gate_o"),
            input_dim,
            num_experts,
            false,
            rng,
        );
        let gate_d = Linear::new(
            store,
            &format!("{name}.gate_d"),
            input_dim,
            num_experts,
            false,
            rng,
        );
        // Towers: "nonlinear transformation of the input with a sigmoid
        // layer" — one hidden ReLU layer, logit output.
        let tower_dims = [expert_dim, tower_hidden, 1];
        let tower_o = Mlp::new(
            store,
            &format!("{name}.tower_o"),
            &tower_dims,
            Activation::Relu,
            Activation::None,
            rng,
        );
        let tower_d = Mlp::new(
            store,
            &format!("{name}.tower_d"),
            &tower_dims,
            Activation::Relu,
            Activation::None,
            rng,
        );
        MmoeHead {
            experts,
            gate_o,
            gate_d,
            tower_o,
            tower_d,
            expert_dim,
        }
    }

    /// Forward `q⊕`: `q_cat` is `[n × 2d_q]` with one row per candidate;
    /// output is the pair of `n×1` logit columns. Each expert, gate, and
    /// tower runs one matmul for the whole group. The gate mix (sum pooling
    /// with gate weights, Fig. 5) accumulates experts in ascending order,
    /// one scaled add per expert.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, q_cat: Value) -> (Value, Value) {
        // Expert outputs, each [n × d_r].
        let outs: Vec<Value> = self
            .experts
            .iter()
            .map(|e| {
                let lin = e.forward(g, store, q_cat);
                g.relu(lin)
            })
            .collect();
        let mix = |g: &mut Graph, gate: &Linear, tower: &Mlp| -> Value {
            let gate_logits = gate.forward(g, store, q_cat); // n×experts
            let weights = g.softmax_rows(gate_logits);
            let mut r: Option<Value> = None;
            for (e, &out_e) in outs.iter().enumerate() {
                let w_e = g.slice_cols(weights, e, e + 1); // one weight per row
                let scaled = g.scale_rows(out_e, w_e); // n×d_r
                r = Some(match r {
                    Some(acc) => g.add(acc, scaled),
                    None => scaled,
                });
            }
            let r = r.expect("at least one expert");
            tower.forward(g, store, r) // n×1 logits
        };
        let logit_o = mix(g, &self.gate_o, &self.tower_o);
        let logit_d = mix(g, &self.gate_d, &self.tower_d);
        (logit_o, logit_d)
    }

    /// Expert output width `d_r`.
    pub fn expert_dim(&self) -> usize {
        self.expert_dim
    }

    /// Snapshot the head's current weights into a [`FrozenMmoeHead`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenMmoeHead {
        FrozenMmoeHead {
            experts: self.experts.iter().map(|e| e.freeze(store)).collect(),
            gate_o: self.gate_o.freeze(store),
            gate_d: self.gate_d.freeze(store),
            tower_o: self.tower_o.freeze(store),
            tower_d: self.tower_d.freeze(store),
            expert_dim: self.expert_dim,
            panel: OnceLock::new(),
        }
    }
}

/// Inference-time snapshot of an [`MmoeHead`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenMmoeHead {
    experts: Vec<FrozenLinear>,
    gate_o: FrozenLinear,
    gate_d: FrozenLinear,
    tower_o: FrozenMlp,
    tower_d: FrozenMlp,
    expert_dim: usize,
    /// The experts' and gates' weights packed column-wise into one
    /// `2d_q × (E·d_r + 2E)` GEMM operand, `[expert₀ | … | gate_O | gate_D]`
    /// per row. Derived from the layers above — by [`Self::prepare`] before
    /// the head serves, else on first use — and never serialized: they stay
    /// the one stored form.
    #[serde(skip)]
    panel: OnceLock<Vec<f32>>,
}

impl FrozenMmoeHead {
    /// Validate expert/gate/tower shapes against the concatenated task
    /// dimension and the configured expert pool.
    pub(crate) fn check(
        &self,
        what: &str,
        q_cat_dim: usize,
        experts: usize,
        expert_dim: usize,
    ) -> Result<(), od_tensor::nn::FrozenCheckError> {
        use od_tensor::nn::FrozenCheckError;
        // The fused forward walks `E·d_r + 2E`-column rows in `d_r`- and
        // `E`-wide blocks; an empty pool or zero-width experts has neither.
        if experts == 0 || expert_dim == 0 {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: {experts} experts of width {expert_dim}; both must be non-zero"
            )));
        }
        if self.experts.len() != experts {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: {} experts but the config declares {experts}",
                self.experts.len()
            )));
        }
        if self.expert_dim != expert_dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: expert width {} but the config declares {expert_dim}",
                self.expert_dim
            )));
        }
        for (e, expert) in self.experts.iter().enumerate() {
            expert.check(&format!("{what}.expert{e}"))?;
            if expert.in_dim() != q_cat_dim || expert.out_dim() != expert_dim {
                return Err(FrozenCheckError::Shape(format!(
                    "{what}.expert{e}: maps {}→{}, expected {q_cat_dim}→{expert_dim}",
                    expert.in_dim(),
                    expert.out_dim()
                )));
            }
        }
        for (name, gate) in [("gate_o", &self.gate_o), ("gate_d", &self.gate_d)] {
            gate.check(&format!("{what}.{name}"))?;
            if gate.in_dim() != q_cat_dim || gate.out_dim() != experts {
                return Err(FrozenCheckError::Shape(format!(
                    "{what}.{name}: maps {}→{}, expected {q_cat_dim}→{experts}",
                    gate.in_dim(),
                    gate.out_dim()
                )));
            }
        }
        self.tower_o
            .check(&format!("{what}.tower_o"), expert_dim, 1)?;
        self.tower_d
            .check(&format!("{what}.tower_d"), expert_dim, 1)
    }

    /// Pack the panel now, on the calling thread, so the first forward does
    /// not pay for it.
    pub(crate) fn prepare(&self) {
        self.panel();
    }

    fn panel(&self) -> &[f32] {
        self.panel.get_or_init(|| {
            let layers = || self.experts.iter().chain([&self.gate_o, &self.gate_d]);
            let cols: usize = layers().map(FrozenLinear::out_dim).sum();
            let in_dim = self.gate_o.in_dim();
            let mut panel = Vec::with_capacity(in_dim * cols);
            for p in 0..in_dim {
                for layer in layers() {
                    let n = layer.out_dim();
                    panel.extend_from_slice(&layer.weight()[p * n..(p + 1) * n]);
                }
            }
            panel
        })
    }

    /// Tape-free counterpart of [`MmoeHead::forward`] over `n`
    /// candidates whose `q⊕` rows are `prefix ⊕ tail[i]`: `prefix` holds the
    /// leading columns every row shares (possibly none), `tail` is
    /// `n × (2d_q − prefix.len())`. Returns the `(logit_O, logit_D)` columns
    /// as length-`n` workspace buffers.
    ///
    /// All experts and both gates are one GEMM against the packed panel,
    /// seeded with the prefix's partial product (computed once, not per
    /// row). Panel columns are independent and a seeded sum continues in
    /// the same ascending order, so every pre-activation is bit-identical
    /// to the live path's per-layer matmuls; the gate mix accumulates
    /// experts in ascending order with separate multiply-then-add per
    /// element, as the live path does.
    pub fn forward_batched(
        &self,
        ws: &mut Workspace,
        prefix: &[f32],
        tail: &[f32],
        n: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let dr = self.expert_dim;
        let num = self.experts.len();
        let gates = num * dr;
        let cols = gates + 2 * num;
        let s = prefix.len();
        let tail_dim = self.gate_o.in_dim() - s;
        let panel = self.panel();
        let level = SimdLevel::detect();

        let mut seed = ws.take(cols);
        infer::matmul_seeded_into(level, prefix, s, 1, s, panel, cols, None, &mut seed);
        let mut y = ws.take(n * cols);
        infer::matmul_seeded_into(
            level,
            tail,
            tail_dim,
            n,
            tail_dim,
            &panel[s * cols..],
            cols,
            Some(&seed),
            &mut y,
        );
        ws.give(seed);

        let mut r_o = ws.take(n * dr);
        let mut r_d = ws.take(n * dr);
        for (i, row) in y.chunks_exact_mut(cols).enumerate() {
            let (outs, gate_logits) = row.split_at_mut(gates);
            for (expert, out) in self.experts.iter().zip(outs.chunks_exact_mut(dr)) {
                if let Some(b) = expert.bias() {
                    infer::add_row_in_place(out, dr, b);
                }
                infer::relu_in_place(out);
            }
            let (w_o, w_d) = gate_logits.split_at_mut(num);
            for (weights, gate, r) in [(w_o, &self.gate_o, &mut r_o), (w_d, &self.gate_d, &mut r_d)]
            {
                if let Some(b) = gate.bias() {
                    infer::add_row_in_place(weights, num, b);
                }
                infer::softmax_rows_in_place(weights, num);
                // Sum pooling with gate weights (Fig. 5): the first expert
                // sets the row, the rest accumulate onto it.
                let r = &mut r[i * dr..(i + 1) * dr];
                let mut experts = weights.iter().zip(outs.chunks_exact(dr));
                if let Some((&w, out)) = experts.next() {
                    for (acc, &x) in r.iter_mut().zip(out) {
                        *acc = w * x;
                    }
                }
                for (&w, out) in experts {
                    for (acc, &x) in r.iter_mut().zip(out) {
                        *acc += w * x;
                    }
                }
            }
        }
        ws.give(y);
        let logit_o = self.tower_o.forward(ws, &r_o, n); // n×1
        let logit_d = self.tower_d.forward(ws, &r_d, n);
        ws.give(r_o);
        ws.give(r_d);
        (logit_o, logit_d)
    }
}

/// Single-task head for the STL variants: two independent towers, one over
/// `q^O` and one over `q^D`, with no shared parameters and no expert mixing
/// — exactly "learning O and D in a separate manner".
#[derive(Clone, Debug)]
pub struct SingleTaskHead {
    tower_o: Mlp,
    tower_d: Mlp,
}

impl SingleTaskHead {
    /// Register the head under `name`. `q_dim` is the width of each task's
    /// own representation.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        q_dim: usize,
        tower_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let dims = [q_dim, tower_hidden, 1];
        SingleTaskHead {
            tower_o: Mlp::new(
                store,
                &format!("{name}.tower_o"),
                &dims,
                Activation::Relu,
                Activation::None,
                rng,
            ),
            tower_d: Mlp::new(
                store,
                &format!("{name}.tower_d"),
                &dims,
                Activation::Relu,
                Activation::None,
                rng,
            ),
        }
    }

    /// Forward the two task representations independently to `(logit_O,
    /// logit_D)`.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        q_o: Value,
        q_d: Value,
    ) -> (Value, Value) {
        (
            self.tower_o.forward(g, store, q_o),
            self.tower_d.forward(g, store, q_d),
        )
    }

    /// Snapshot the head's current weights into a [`FrozenSingleHead`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenSingleHead {
        FrozenSingleHead {
            tower_o: self.tower_o.freeze(store),
            tower_d: self.tower_d.freeze(store),
        }
    }
}

/// Inference-time snapshot of a [`SingleTaskHead`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenSingleHead {
    tower_o: FrozenMlp,
    tower_d: FrozenMlp,
}

impl FrozenSingleHead {
    /// Validate both towers against the task dimension `q_dim`.
    pub(crate) fn check(
        &self,
        what: &str,
        q_dim: usize,
    ) -> Result<(), od_tensor::nn::FrozenCheckError> {
        self.tower_o.check(&format!("{what}.tower_o"), q_dim, 1)?;
        self.tower_d.check(&format!("{what}.tower_d"), q_dim, 1)
    }

    /// Tape-free counterpart of [`SingleTaskHead::forward`] over `n×d_q`
    /// task representations; returns length-`n` logit buffers.
    pub fn forward_batched(
        &self,
        ws: &mut Workspace,
        q_o: &[f32],
        q_d: &[f32],
        n: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        (
            self.tower_o.forward(ws, q_o, n),
            self.tower_d.forward(ws, q_d, n),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_tensor::{init, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const Q2: usize = 12;

    fn head(store: &mut ParamStore) -> MmoeHead {
        MmoeHead::new(store, "mmoe", Q2, 3, 6, 5, &mut StdRng::seed_from_u64(2))
    }

    fn q(g: &mut Graph, seed: u64) -> Value {
        g.input(init::gaussian(
            Shape::Matrix(1, Q2),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(seed),
        ))
    }

    #[test]
    fn logits_are_scalarish() {
        let mut store = ParamStore::new();
        let h = head(&mut store);
        assert_eq!(h.expert_dim(), 6);
        let mut g = Graph::new();
        let qv = q(&mut g, 1);
        let (lo, ld) = h.forward(&mut g, &store, qv);
        assert_eq!(g.value(lo).len(), 1);
        assert_eq!(g.value(ld).len(), 1);
    }

    #[test]
    fn gradients_reach_both_towers_and_all_experts() {
        let mut store = ParamStore::new();
        let h = head(&mut store);
        let mut g = Graph::new();
        let qv = q(&mut g, 5);
        let (lo, ld) = h.forward(&mut g, &store, qv);
        let s = g.add(lo, ld);
        let loss = g.sum_all(s);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        for name in [
            "mmoe.expert0.w",
            "mmoe.expert1.w",
            "mmoe.expert2.w",
            "mmoe.gate_o.w",
            "mmoe.gate_d.w",
            "mmoe.tower_o.l0.w",
            "mmoe.tower_d.l1.w",
        ] {
            let id = store.lookup(name).unwrap();
            assert!(store.grad(id).sq_norm() > 0.0, "no grad at {name}");
        }
    }

    #[test]
    fn single_task_head_is_independent() {
        let mut store = ParamStore::new();
        let h = SingleTaskHead::new(&mut store, "stl", 6, 4, &mut StdRng::seed_from_u64(9));
        let mut g = Graph::new();
        let qo = g.input(init::gaussian(
            Shape::Matrix(1, 6),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(10),
        ));
        let qd = g.input(init::gaussian(
            Shape::Matrix(1, 6),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(11),
        ));
        let (lo, ld) = h.forward(&mut g, &store, qo, qd);
        // Backprop through the O logit only: D-tower params must stay
        // untouched (no parameter sharing between the tasks).
        let loss = g.sum_all(lo);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        let od_grad = store.grad(store.lookup("stl.tower_d.l0.w").unwrap());
        assert_eq!(od_grad.sq_norm(), 0.0);
        let o_grad = store.grad(store.lookup("stl.tower_o.l0.w").unwrap());
        assert!(o_grad.sq_norm() > 0.0);
        let _ = ld;
    }

    #[test]
    fn frozen_mmoe_matches_batched_live_bitwise() {
        let mut store = ParamStore::new();
        let h = head(&mut store);
        let frozen = h.freeze(&store);
        let x = init::gaussian(
            Shape::Matrix(4, Q2),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(7),
        );
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let (lo, ld) = h.forward(&mut g, &store, xv);
        let mut ws = Workspace::new();
        let (fo, fd) = frozen.forward_batched(&mut ws, &[], x.as_slice(), 4);
        assert_eq!(fo.as_slice(), g.value(lo).as_slice());
        assert_eq!(fd.as_slice(), g.value(ld).as_slice());
    }

    #[test]
    fn frozen_check_rejects_an_empty_expert_pool() {
        let mut store = ParamStore::new();
        let mut frozen = head(&mut store).freeze(&store);
        frozen.check("head", Q2, 3, 6).expect("fresh head is valid");
        frozen.experts.clear();
        assert!(frozen.check("head", Q2, 0, 6).is_err());
    }

    #[test]
    fn frozen_single_head_matches_live_bitwise() {
        let mut store = ParamStore::new();
        let h = SingleTaskHead::new(&mut store, "stl", 6, 4, &mut StdRng::seed_from_u64(9));
        let frozen = h.freeze(&store);
        let qo = init::gaussian(
            Shape::Matrix(3, 6),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(10),
        );
        let qd = init::gaussian(
            Shape::Matrix(3, 6),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(11),
        );
        let mut g = Graph::new();
        let qov = g.input(qo.clone());
        let qdv = g.input(qd.clone());
        let (lo, ld) = h.forward(&mut g, &store, qov, qdv);
        let mut ws = Workspace::new();
        let (fo, fd) = frozen.forward_batched(&mut ws, qo.as_slice(), qd.as_slice(), 3);
        assert_eq!(fo.as_slice(), g.value(lo).as_slice());
        assert_eq!(fd.as_slice(), g.value(ld).as_slice());
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn rejects_zero_experts() {
        MmoeHead::new(
            &mut ParamStore::new(),
            "m",
            4,
            0,
            4,
            4,
            &mut StdRng::seed_from_u64(0),
        );
    }
}
