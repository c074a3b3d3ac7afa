//! Named trainable-parameter storage with gradient buffers and
//! checkpoint (de)serialization.
//!
//! A [`ParamStore`] owns the canonical value of every trainable tensor in a
//! model. Graphs snapshot parameter values at [`crate::Graph::param`] time
//! and flush gradients back with `accumulate_param_grads`; optimizers then
//! consume the store's `(value, grad)` pairs. This separation lets many
//! tapes (e.g. per-sample LSTM unrollings) contribute gradients to one
//! optimization step.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Opaque handle to one parameter in a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Dense index of the parameter (registration order) — usable to key
    /// external per-parameter state such as worker-local gradient buffers.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Serialize, Deserialize, Clone)]
struct Param {
    name: String,
    value: Tensor,
    #[serde(skip)]
    grad: Option<Tensor>,
}

/// Registry of named trainable tensors and their gradient accumulators.
#[derive(Default, Serialize, Deserialize, Clone)]
pub struct ParamStore {
    params: Vec<Param>,
    #[serde(skip)]
    by_name: HashMap<String, ParamId>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new named parameter, returning its handle.
    ///
    /// # Panics
    /// Panics when the name is already registered — parameter names double
    /// as checkpoint keys and must be unique.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate parameter name {name:?}"
        );
        let id = ParamId(self.params.len());
        self.by_name.insert(name.clone(), id);
        self.params.push(Param {
            name,
            value,
            grad: None,
        });
        id
    }

    /// Handle for a previously registered name.
    pub fn lookup(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Current gradient (zeros if nothing has been accumulated).
    pub fn grad(&self, id: ParamId) -> Tensor {
        let p = &self.params[id.0];
        p.grad
            .clone()
            .unwrap_or_else(|| Tensor::zeros(p.value.shape()))
    }

    /// Mutable gradient accumulator, lazily initialized to zeros.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        let p = &mut self.params[id.0];
        p.grad.get_or_insert_with(|| Tensor::zeros(p.value.shape()))
    }

    /// Reset every gradient accumulator to zero (keeping allocations).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            if let Some(g) = &mut p.grad {
                g.zero_();
            }
        }
    }

    /// Iterate over `(id, value, grad)` for optimizer steps. The gradient is
    /// `None` when nothing was accumulated for that parameter this step.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.params.len()).map(ParamId)
    }

    /// Handle for the parameter at a dense index (the inverse of
    /// [`ParamId::index`]). Lets external per-parameter state keyed by index
    /// — e.g. worker-local gradient buffers — be merged back without an
    /// O(P) scan per parameter.
    ///
    /// # Panics
    /// Panics when `index >= self.len()`.
    pub fn id_at(&self, index: usize) -> ParamId {
        assert!(
            index < self.params.len(),
            "param index {index} out of range ({} registered)",
            self.params.len()
        );
        ParamId(index)
    }

    /// Global L2 norm of all accumulated gradients — used for clipping.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .filter_map(|p| p.grad.as_ref())
            .map(Tensor::sq_norm)
            .sum::<f32>()
            .sqrt()
    }

    /// Scale every gradient so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                if let Some(g) = &mut p.grad {
                    for v in g.as_mut_slice() {
                        *v *= scale;
                    }
                }
            }
        }
    }

    /// Rebuild the name → handle index. Must be called after obtaining a
    /// store through serde deserialization embedded in a larger structure
    /// (the index is `serde(skip)` because it is derivable).
    pub fn reindex(&mut self) {
        self.by_name = self
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), ParamId(i)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::vector(&[1.0, 2.0]));
        assert_eq!(s.lookup("w"), Some(id));
        assert_eq!(s.lookup("missing"), None);
        assert_eq!(s.name(id), "w");
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_weights(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::scalar(0.0));
        s.register("w", Tensor::scalar(1.0));
    }

    #[test]
    fn grads_start_zero_and_accumulate() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::vector(&[1.0, 2.0]));
        assert_eq!(s.grad(id).as_slice(), &[0.0, 0.0]);
        s.grad_mut(id).axpy(1.0, &Tensor::vector(&[0.5, 0.5]));
        s.grad_mut(id).axpy(1.0, &Tensor::vector(&[0.5, 0.5]));
        assert_eq!(s.grad(id).as_slice(), &[1.0, 1.0]);
        s.zero_grads();
        assert_eq!(s.grad(id).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut s = ParamStore::new();
        let a = s.register("a", Tensor::vector(&[0.0, 0.0]));
        s.grad_mut(a).axpy(1.0, &Tensor::vector(&[3.0, 4.0]));
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        s.clip_grad_norm(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);
        // Clipping below the threshold is a no-op.
        s.clip_grad_norm(10.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);
    }
}
