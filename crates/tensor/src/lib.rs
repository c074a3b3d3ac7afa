//! # od-tensor — the training substrate of the ODNET reproduction
//!
//! A from-scratch dense `f32` tensor library with reverse-mode automatic
//! differentiation, neural-network layers, and first-order optimizers. The
//! paper trained ODNET with TensorFlow on Alibaba PAI; no comparable Rust
//! stack exists offline, so this crate *is* that substrate: everything the
//! model needs — matmul, softmax, embeddings, multi-head attention, LSTM
//! cells, MMoE building blocks, Adam — implemented and gradient-checked here.
//!
//! ## Quick tour
//!
//! ```
//! use od_tensor::{Graph, ParamStore, Tensor, Shape, Adam, Optimizer};
//!
//! // Fit w in `y = w·x` to the target w = 2.
//! let mut store = ParamStore::new();
//! let w = store.register("w", Tensor::scalar(0.0));
//! let mut opt = Adam::with_lr(0.1);
//! for _ in 0..200 {
//!     store.zero_grads();
//!     let mut g = Graph::new();
//!     let wv = g.param(&store, w);
//!     let x = g.input(Tensor::scalar(3.0));
//!     let pred = g.mul(wv, x);
//!     let loss = g.mse_loss(pred, &Tensor::scalar(6.0));
//!     g.backward(loss);
//!     g.accumulate_param_grads(&mut store);
//!     opt.step(&mut store);
//! }
//! assert!((store.value(w).item() - 2.0).abs() < 1e-2);
//! ```
//!
//! Design notes:
//! - **Rank ≤ 2.** Scalars, vectors, matrices. Sequence batches are handled
//!   per-sample, which keeps every autograd rule small enough to audit
//!   against the paper's equations.
//! - **Define-by-run tape.** A fresh [`Graph`] per mini-batch; gradients are
//!   flushed into the shared [`ParamStore`].
//! - **Numerics.** Losses are computed in logit space
//!   ([`Graph::bce_with_logits`]) and softmax is max-shifted, so training is
//!   stable without f64.

#![warn(missing_docs)]

mod graph;
mod linalg;
mod optim;
mod param;
mod shape;
mod tensor;

pub mod infer;
pub mod init;
pub mod nn;
pub mod simd;

pub use graph::{Graph, Value};
pub use infer::Workspace;
pub use linalg::{
    dot, matmul, matmul_naive, matmul_nt, matmul_tn, mean_rows, sigmoid, sigmoid_in_place,
    softmax_in_place, softmax_rows, softmax_rows_backward, stable_sigmoid, sum_rows, transpose,
};
pub use optim::{Adam, Optimizer};
pub use param::{ParamId, ParamStore};
pub use shape::Shape;
pub use simd::SimdLevel;
pub use tensor::Tensor;
