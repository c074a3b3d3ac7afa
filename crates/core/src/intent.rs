//! Travel-intention module — the paper's stated future work (§VII: "we will
//! consider to take travel intentions of users into account").
//!
//! Intentions (vacation, business trip, return home, …) are latent and
//! short-lived; the observable trace is the user's *recent click stream*.
//! The module learns a small set of **intent prototypes** and infers a soft
//! intent vector per request: the mean short-term click embedding attends
//! over the prototypes, and the attention-weighted prototype mix joins the
//! per-task representation `q`. The prototype bottleneck forces the
//! short-term signal through a discrete-ish intent space instead of leaking
//! raw click averages, which is what makes the inferred intents
//! interpretable (each prototype specializes).
//!
//! Enabled via [`crate::OdnetConfig::intents`] (> 0 prototypes); off by
//! default, and benchmarked by the `ablation` binary.

use od_tensor::infer::{self, Workspace};
use od_tensor::nn::Embedding;
use od_tensor::{Graph, ParamStore, Shape, Tensor, Value};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A learned bank of intent prototypes with soft assignment.
#[derive(Clone, Debug)]
pub struct IntentModule {
    prototypes: Embedding,
    num_intents: usize,
    dim: usize,
}

impl IntentModule {
    /// Register `num_intents` prototype vectors of width `dim` under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        num_intents: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_intents > 0, "need at least one intent prototype");
        IntentModule {
            prototypes: Embedding::new(store, name, num_intents, dim, rng),
            num_intents,
            dim,
        }
    }

    /// Number of prototypes.
    pub fn num_intents(&self) -> usize {
        self.num_intents
    }

    /// Infer the soft intent vector from short-term click embeddings
    /// (`s×d`). Returns a length-`d` vector; zero when there are no recent
    /// clicks (no evidence → no intent).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, short_emb: Option<Value>) -> Value {
        let Some(short) = short_emb else {
            return g.input(Tensor::zeros(Shape::Vector(self.dim)));
        };
        let all: Vec<usize> = (0..self.num_intents).collect();
        let protos = self.prototypes.forward(g, store, &all); // k×d
        let query = g.mean_rows(short); // d
        let protos_t = g.transpose(protos); // d×k
        let scores = g.matmul(query, protos_t); // 1×k
        let assignment = g.softmax_rows(scores);
        let mixed = g.matmul(assignment, protos); // 1×d
        g.reshape(mixed, Shape::Vector(self.dim))
    }

    /// Snapshot the prototype bank into a [`FrozenIntent`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenIntent {
        FrozenIntent {
            prototypes: store.value(self.prototypes.table()).clone(),
            num_intents: self.num_intents,
            dim: self.dim,
        }
    }
}

/// Inference-time snapshot of an [`IntentModule`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenIntent {
    prototypes: Tensor,
    num_intents: usize,
    dim: usize,
}

impl FrozenIntent {
    /// Validate the prototype table against the branch dimension `d`.
    pub(crate) fn check(
        &self,
        what: &str,
        d: usize,
    ) -> Result<(), od_tensor::nn::FrozenCheckError> {
        use od_tensor::nn::FrozenCheckError;
        if self.dim != d {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: intent dim {} does not match the embedding dim {d}",
                self.dim
            )));
        }
        if self.num_intents == 0 {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: intent module with zero prototypes"
            )));
        }
        od_tensor::nn::check_matrix(
            &format!("{what}.prototypes"),
            &self.prototypes,
            self.num_intents,
            d,
        )
    }

    /// Tape-free counterpart of [`IntentModule::forward`]: `short_emb` is an
    /// optional `(buffer, len)` pair of `s×d` click embeddings; returns the
    /// length-`d` soft intent vector as a workspace buffer (zeros when there
    /// are no recent clicks).
    pub fn forward(&self, ws: &mut Workspace, short_emb: Option<(&[f32], usize)>) -> Vec<f32> {
        let Some((short, s)) = short_emb else {
            return ws.take(self.dim);
        };
        let (k, d) = (self.num_intents, self.dim);
        let mut query = ws.take(d);
        infer::mean_rows_into(short, s, d, &mut query);
        let mut protos_t = ws.take(d * k);
        infer::transpose_into(self.prototypes.as_slice(), k, d, &mut protos_t);
        let mut scores = ws.take(k);
        infer::matmul_into(&query, 1, d, &protos_t, k, &mut scores);
        infer::softmax_rows_in_place(&mut scores, k);
        let mut mixed = ws.take(d);
        infer::matmul_into(&scores, 1, k, self.prototypes.as_slice(), d, &mut mixed);
        ws.give(query);
        ws.give(protos_t);
        ws.give(scores);
        mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const D: usize = 8;

    fn module(store: &mut ParamStore) -> IntentModule {
        IntentModule::new(store, "intent", 4, D, &mut StdRng::seed_from_u64(3))
    }

    #[test]
    fn output_is_a_d_vector() {
        let mut store = ParamStore::new();
        let m = module(&mut store);
        assert_eq!(m.num_intents(), 4);
        let mut g = Graph::new();
        let clicks = g.input(init::gaussian(
            Shape::Matrix(3, D),
            0.0,
            0.5,
            &mut StdRng::seed_from_u64(9),
        ));
        let intent = m.forward(&mut g, &store, Some(clicks));
        assert_eq!(g.value(intent).shape(), Shape::Vector(D));
    }

    #[test]
    fn no_clicks_means_zero_intent() {
        let mut store = ParamStore::new();
        let m = module(&mut store);
        let mut g = Graph::new();
        let v = m.forward(&mut g, &store, None);
        assert_eq!(g.value(v).sum(), 0.0);
    }

    #[test]
    fn different_click_streams_express_different_intents() {
        let mut store = ParamStore::new();
        let m = module(&mut store);
        let run = |seed: u64, store: &ParamStore| {
            let mut g = Graph::new();
            let clicks = g.input(init::gaussian(
                Shape::Matrix(3, D),
                0.0,
                1.0,
                &mut StdRng::seed_from_u64(seed),
            ));
            let v = m.forward(&mut g, store, Some(clicks));
            g.value(v).as_slice().to_vec()
        };
        assert_ne!(run(1, &store), run(2, &store));
    }

    #[test]
    fn prototypes_receive_gradients() {
        let mut store = ParamStore::new();
        let m = module(&mut store);
        let mut g = Graph::new();
        let clicks = g.input(init::gaussian(
            Shape::Matrix(2, D),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(4),
        ));
        let v = m.forward(&mut g, &store, Some(clicks));
        let sq = g.mul(v, v);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        let id = store.lookup("intent").unwrap();
        assert!(store.grad(id).sq_norm() > 0.0);
    }

    #[test]
    fn frozen_intent_matches_live_bitwise() {
        let mut store = ParamStore::new();
        let m = module(&mut store);
        let frozen = m.freeze(&store);
        let clicks = init::gaussian(Shape::Matrix(3, D), 0.0, 0.5, &mut StdRng::seed_from_u64(9));
        let mut g = Graph::new();
        let cv = g.input(clicks.clone());
        let live = m.forward(&mut g, &store, Some(cv));
        let mut ws = Workspace::new();
        let out = frozen.forward(&mut ws, Some((clicks.as_slice(), 3)));
        assert_eq!(out.as_slice(), g.value(live).as_slice());
        ws.give(out);
        let zero = frozen.forward(&mut ws, None);
        assert!(zero.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one intent")]
    fn rejects_zero_prototypes() {
        IntentModule::new(
            &mut ParamStore::new(),
            "i",
            0,
            4,
            &mut StdRng::seed_from_u64(0),
        );
    }
}
