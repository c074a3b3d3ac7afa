//! First-order optimizers over a [`ParamStore`].
//!
//! The paper trains every model with Adam (lr = 0.01, batch 128, 5 epochs,
//! §V-A.5); [`Adam::paper_default`] encodes that setting.

use crate::param::ParamStore;
use crate::tensor::Tensor;

/// Shared optimizer interface: consume accumulated gradients, update values.
pub trait Optimizer {
    /// Apply one update step from the store's accumulated gradients, then
    /// leave the gradients untouched (callers decide when to zero them).
    fn step(&mut self, store: &mut ParamStore);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Override the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// First/second moment estimates, indexed like the store's parameters.
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with custom hyper-parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The paper's training configuration: Adam with lr = 0.01 (§V-A.5) and
    /// the standard β₁ = 0.9, β₂ = 0.999.
    pub fn paper_default() -> Self {
        Adam::new(0.01, 0.9, 0.999, 1e-8)
    }

    /// Conventional default (lr = 1e-3).
    pub fn with_lr(lr: f32) -> Self {
        Adam::new(lr, 0.9, 0.999, 1e-8)
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        let ids: Vec<_> = store.ids().collect();
        while self.m.len() < ids.len() {
            let id = ids[self.m.len()];
            let shape = store.value(id).shape();
            self.m.push(Tensor::zeros(shape));
            self.v.push(Tensor::zeros(shape));
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        self.ensure_state(store);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let ids: Vec<_> = store.ids().collect();
        for (i, id) in ids.into_iter().enumerate() {
            let g = store.grad(id);
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mi, vi), &gi) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(g.as_slice())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let value = store.value_mut(id);
            for ((wi, &mi), &vi) in value
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_slice())
                .zip(v.as_slice())
            {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *wi -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimize (w − 3)² and check convergence — exercises the full
    /// graph → grad → optimizer loop.
    fn converges_to_three(opt: &mut dyn Optimizer) -> f32 {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(0.0));
        for _ in 0..500 {
            store.zero_grads();
            let mut g = Graph::new();
            let wv = g.param(&store, w);
            let diff = g.add_scalar(wv, -3.0);
            let sq = g.mul(diff, diff);
            let loss = g.sum_all(sq);
            g.backward(loss);
            g.accumulate_param_grads(&mut store);
            opt.step(&mut store);
        }
        store.value(w).item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::with_lr(0.05);
        let w = converges_to_three(&mut opt);
        assert!((w - 3.0).abs() < 1e-2, "adam ended at {w}");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first Adam step has magnitude ≈ lr
        // regardless of gradient scale.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(0.0));
        store.grad_mut(w).axpy(1.0, &Tensor::scalar(1234.0));
        let mut opt = Adam::with_lr(0.01);
        opt.step(&mut store);
        assert!((store.value(w).item() + 0.01).abs() < 1e-4);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn paper_default_lr_matches_section_v() {
        assert!((Adam::paper_default().learning_rate() - 0.01).abs() < f32::EPSILON);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_non_positive_lr() {
        Adam::with_lr(0.0);
    }
}
