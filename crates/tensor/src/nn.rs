//! Neural-network layers composed from autograd primitives.
//!
//! Each layer owns [`ParamId`]s into a shared [`ParamStore`] and exposes a
//! `forward` that records onto a caller-provided [`Graph`]. This mirrors the
//! paper's building blocks: fully-connected layers (Algorithm 1 line 5,
//! towers, experts), embeddings (user/city id features), multi-head
//! self-attention (PEC encoding layer, Eq. 3), dot-product attention
//! (PEC attention layer, Eqs. 4–5), and LSTM cells (for the RNN baselines).

use crate::graph::{Graph, Value};
use crate::infer::{self, Workspace};
use crate::init;
use crate::linalg;
use crate::param::{ParamId, ParamStore};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Post-linear nonlinearity choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation on the graph.
    pub fn apply(self, g: &mut Graph, x: Value) -> Value {
        match self {
            Activation::None => x,
            Activation::Relu => g.relu(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Tanh => g.tanh(x),
        }
    }

    /// Apply the activation to a raw buffer — the tape-free counterpart of
    /// [`Activation::apply`], using the identical scalar kernels.
    pub fn apply_in_place(self, xs: &mut [f32]) {
        match self {
            Activation::None => {}
            Activation::Relu => infer::relu_in_place(xs),
            Activation::Sigmoid => linalg::sigmoid_in_place(xs),
            Activation::Tanh => {
                for x in xs.iter_mut() {
                    *x = x.tanh();
                }
            }
        }
    }
}

/// Fully-connected layer `y = x·W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Register a linear layer's parameters under `name` (keys `{name}.w`,
    /// `{name}.b`), initialized per the paper's N(0, 0.05²).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.register(
            format!("{name}.w"),
            init::paper_default(Shape::Matrix(in_dim, out_dim), rng),
        );
        let b = bias
            .then(|| store.register(format!("{name}.b"), Tensor::zeros(Shape::Vector(out_dim))));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `x` is `[n × in_dim]` (or a vector treated as one row); output is
    /// `[n × out_dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Value) -> Value {
        debug_assert_eq!(g.value(x).cols(), self.in_dim, "Linear input dim mismatch");
        let w = g.param(store, self.w);
        let y = g.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = g.param(store, b);
                g.add_row(y, bv)
            }
            None => y,
        }
    }
}

/// Multi-layer perceptron with a shared hidden activation; the last layer's
/// activation is supplied separately (e.g. `None` to emit logits).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Build an MLP through the given layer widths, e.g. `&[64, 32, 1]`
    /// makes two layers 64→32→1.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], true, rng))
            .collect();
        Mlp {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// Forward through all layers.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, mut x: Value) -> Value {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(g, store, x);
            x = if i == last {
                self.output_activation.apply(g, x)
            } else {
                self.hidden_activation.apply(g, x)
            };
        }
        x
    }

    /// Output dimension of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }
}

/// Embedding table: a `[vocab × dim]` matrix addressed by row gather.
#[derive(Clone, Debug)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Register an embedding table under `name` initialized per the paper.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let table = store.register(
            name.to_string(),
            init::paper_default(Shape::Matrix(vocab, dim), rng),
        );
        Embedding { table, vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The parameter id of the underlying table.
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Look up a batch of ids, producing `[ids.len() × dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, ids: &[usize]) -> Value {
        let table = g.param(store, self.table);
        g.gather_rows(table, ids)
    }
}

/// Multi-head self-attention (Vaswani et al.), the encoding layer of the
/// paper's PEC (Eq. 3). `d_k = d / heads`, per-head projections plus an
/// output projection `W^O`.
#[derive(Clone, Debug)]
pub struct MultiHeadSelfAttention {
    wq: Vec<ParamId>,
    wk: Vec<ParamId>,
    wv: Vec<ParamId>,
    wo: ParamId,
    dim: usize,
    heads: usize,
    dk: usize,
}

impl MultiHeadSelfAttention {
    /// Register the projection matrices for `heads` heads over model width
    /// `dim` (`dim` must be divisible by `heads`).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim must divide by heads"
        );
        let dk = dim / heads;
        let mut wq = Vec::with_capacity(heads);
        let mut wk = Vec::with_capacity(heads);
        let mut wv = Vec::with_capacity(heads);
        for h in 0..heads {
            wq.push(store.register(
                format!("{name}.h{h}.wq"),
                init::paper_default(Shape::Matrix(dim, dk), rng),
            ));
            wk.push(store.register(
                format!("{name}.h{h}.wk"),
                init::paper_default(Shape::Matrix(dim, dk), rng),
            ));
            wv.push(store.register(
                format!("{name}.h{h}.wv"),
                init::paper_default(Shape::Matrix(dim, dk), rng),
            ));
        }
        let wo = store.register(
            format!("{name}.wo"),
            init::paper_default(Shape::Matrix(heads * dk, dim), rng),
        );
        MultiHeadSelfAttention {
            wq,
            wk,
            wv,
            wo,
            dim,
            heads,
            dk,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Self-attend over a `[t × dim]` sequence, returning `[t × dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, e: Value) -> Value {
        debug_assert_eq!(g.value(e).cols(), self.dim, "MHA input dim mismatch");
        let scale = 1.0 / (self.dk as f32).sqrt();
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let wq = g.param(store, self.wq[h]);
            let wk = g.param(store, self.wk[h]);
            let wv = g.param(store, self.wv[h]);
            let q = g.matmul(e, wq);
            let k = g.matmul(e, wk);
            let v = g.matmul(e, wv);
            let kt = g.transpose(k);
            let scores = g.matmul(q, kt);
            let scaled = g.scale(scores, scale);
            let attn = g.softmax_rows(scaled);
            head_outputs.push(g.matmul(attn, v));
        }
        let concat = g.concat_cols(&head_outputs);
        let wo = g.param(store, self.wo);
        g.matmul(concat, wo)
    }
}

/// Dot-product attention with a learnable bilinear form — the PEC attention
/// layer (Eqs. 4–5): `eᵢ* = v_sᵀ W* ê_Lⁱ`, weights `softmax(e*)`, output
/// `Σ ē ᵢ* ê_Lⁱ`.
#[derive(Clone, Debug)]
pub struct BilinearAttention {
    w: ParamId,
    dim: usize,
}

impl BilinearAttention {
    /// Register the `d × d` bilinear matrix `W*`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rng: &mut impl Rng) -> Self {
        let w = store.register(
            format!("{name}.w"),
            init::paper_default(Shape::Matrix(dim, dim), rng),
        );
        BilinearAttention { w, dim }
    }

    /// `query` is a length-`dim` vector (or `1×dim`), `keys` is `[t × dim]`;
    /// returns the attention-pooled `1×dim` summary (Eq. 5's `v_L`).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, query: Value, keys: Value) -> Value {
        debug_assert_eq!(g.value(query).cols(), self.dim);
        debug_assert_eq!(g.value(keys).cols(), self.dim);
        let w = g.param(store, self.w);
        let u = g.matmul(query, w); // 1×d
        let kt = g.transpose(keys); // d×t
        let scores = g.matmul(u, kt); // 1×t
        let weights = g.softmax_rows(scores);
        g.matmul(weights, keys) // 1×d
    }
}

/// Inference-time snapshot of a [`Linear`]: the weights copied out of the
/// [`ParamStore`] into plain tensors, with a tape-free forward that writes
/// into [`Workspace`] buffers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenLinear {
    w: Tensor,
    b: Option<Tensor>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Snapshot the layer's current weights into a [`FrozenLinear`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenLinear {
        FrozenLinear {
            w: store.value(self.w).clone(),
            b: self.b.map(|b| store.value(b).clone()),
            in_dim: self.in_dim,
            out_dim: self.out_dim,
        }
    }
}

impl FrozenLinear {
    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The `in_dim×out_dim` weight matrix, row-major — for callers that
    /// pack several layers over one input into a single GEMM operand.
    pub fn weight(&self) -> &[f32] {
        self.w.as_slice()
    }

    /// The length-`out_dim` bias row, if the layer has one.
    pub fn bias(&self) -> Option<&[f32]> {
        self.b.as_ref().map(Tensor::as_slice)
    }

    /// `x` is `rows×in_dim`; returns a `rows×out_dim` buffer drawn from the
    /// workspace (the caller gives it back when done). Mirrors
    /// [`Linear::forward`]: matmul, then broadcast bias add.
    pub fn forward(&self, ws: &mut Workspace, x: &[f32], rows: usize) -> Vec<f32> {
        let mut out = ws.take(rows * self.out_dim);
        infer::matmul_into(
            x,
            rows,
            self.in_dim,
            self.w.as_slice(),
            self.out_dim,
            &mut out,
        );
        if let Some(b) = &self.b {
            infer::add_row_in_place(&mut out, self.out_dim, b.as_slice());
        }
        out
    }
}

/// Inference-time snapshot of an [`Mlp`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenMlp {
    layers: Vec<FrozenLinear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl Mlp {
    /// Snapshot all layer weights into a [`FrozenMlp`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenMlp {
        FrozenMlp {
            layers: self.layers.iter().map(|l| l.freeze(store)).collect(),
            hidden_activation: self.hidden_activation,
            output_activation: self.output_activation,
        }
    }
}

impl FrozenMlp {
    /// Forward `rows×in_dim` input through all layers; returns a
    /// `rows×out_dim` workspace buffer.
    pub fn forward(&self, ws: &mut Workspace, x: &[f32], rows: usize) -> Vec<f32> {
        let last = self.layers.len() - 1;
        let mut cur: Option<Vec<f32>> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut next = layer.forward(ws, cur.as_deref().unwrap_or(x), rows);
            if i == last {
                self.output_activation.apply_in_place(&mut next);
            } else {
                self.hidden_activation.apply_in_place(&mut next);
            }
            if let Some(prev) = cur.replace(next) {
                ws.give(prev);
            }
        }
        cur.expect("Mlp has at least one layer")
    }
}

/// Inference-time snapshot of a [`MultiHeadSelfAttention`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenMha {
    wq: Vec<Tensor>,
    wk: Vec<Tensor>,
    wv: Vec<Tensor>,
    wo: Tensor,
    dim: usize,
    heads: usize,
    dk: usize,
}

impl MultiHeadSelfAttention {
    /// Snapshot the projection matrices into a [`FrozenMha`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenMha {
        let grab = |ids: &[ParamId]| ids.iter().map(|&id| store.value(id).clone()).collect();
        FrozenMha {
            wq: grab(&self.wq),
            wk: grab(&self.wk),
            wv: grab(&self.wv),
            wo: store.value(self.wo).clone(),
            dim: self.dim,
            heads: self.heads,
            dk: self.dk,
        }
    }
}

impl FrozenMha {
    /// Self-attend over a `t×dim` sequence buffer, returning a `t×dim`
    /// workspace buffer. Mirrors [`MultiHeadSelfAttention::forward`] op for
    /// op: per-head q/k/v projections, explicit key transpose, scaled
    /// softmax scores, head concat, output projection.
    pub fn forward(&self, ws: &mut Workspace, e: &[f32], t: usize) -> Vec<f32> {
        let (d, dk) = (self.dim, self.dk);
        let scale = 1.0 / (dk as f32).sqrt();
        let mut concat = ws.take(t * d);
        let mut q = ws.take(t * dk);
        let mut k = ws.take(t * dk);
        let mut v = ws.take(t * dk);
        let mut kt = ws.take(dk * t);
        let mut scores = ws.take(t * t);
        let mut head = ws.take(t * dk);
        for h in 0..self.heads {
            infer::matmul_into(e, t, d, self.wq[h].as_slice(), dk, &mut q);
            infer::matmul_into(e, t, d, self.wk[h].as_slice(), dk, &mut k);
            infer::matmul_into(e, t, d, self.wv[h].as_slice(), dk, &mut v);
            infer::transpose_into(&k, t, dk, &mut kt);
            infer::matmul_into(&q, t, dk, &kt, t, &mut scores);
            infer::scale_in_place(&mut scores, scale);
            infer::softmax_rows_in_place(&mut scores, t);
            infer::matmul_into(&scores, t, t, &v, dk, &mut head);
            for i in 0..t {
                concat[i * d + h * dk..i * d + (h + 1) * dk]
                    .copy_from_slice(&head[i * dk..(i + 1) * dk]);
            }
        }
        ws.give(q);
        ws.give(k);
        ws.give(v);
        ws.give(kt);
        ws.give(scores);
        ws.give(head);
        let mut out = ws.take(t * d);
        infer::matmul_into(&concat, t, d, self.wo.as_slice(), d, &mut out);
        ws.give(concat);
        out
    }
}

/// Inference-time snapshot of a [`BilinearAttention`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenBilinear {
    w: Tensor,
    dim: usize,
}

impl BilinearAttention {
    /// Snapshot the bilinear matrix into a [`FrozenBilinear`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenBilinear {
        FrozenBilinear {
            w: store.value(self.w).clone(),
            dim: self.dim,
        }
    }
}

impl FrozenBilinear {
    /// `query` is a length-`dim` buffer, `keys` is `t×dim`; returns the
    /// attention-pooled length-`dim` summary as a workspace buffer. Mirrors
    /// [`BilinearAttention::forward`] (explicit key transpose included, so
    /// rounding matches the tape).
    pub fn forward(&self, ws: &mut Workspace, query: &[f32], keys: &[f32], t: usize) -> Vec<f32> {
        let d = self.dim;
        let mut u = ws.take(d);
        infer::matmul_into(query, 1, d, self.w.as_slice(), d, &mut u);
        let mut kt = ws.take(d * t);
        infer::transpose_into(keys, t, d, &mut kt);
        let mut scores = ws.take(t);
        infer::matmul_into(&u, 1, d, &kt, t, &mut scores);
        linalg::softmax_in_place(&mut scores);
        let mut out = ws.take(d);
        infer::matmul_into(&scores, 1, t, keys, d, &mut out);
        ws.give(u);
        ws.give(kt);
        ws.give(scores);
        out
    }
}

/// A structural flaw found while validating a frozen artifact: either the
/// matrix dimensions disagree with the declared layer geometry (a corrupt or
/// hand-edited checkpoint) or a weight tensor carries NaN/±∞ (which would
/// silently poison every score downstream).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrozenCheckError {
    /// Matrix dimensions are mutually inconsistent.
    Shape(String),
    /// A weight tensor contains NaN or infinite values.
    NonFinite(String),
}

impl fmt::Display for FrozenCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrozenCheckError::Shape(what) => write!(f, "inconsistent dimensions: {what}"),
            FrozenCheckError::NonFinite(what) => write!(f, "non-finite weights: {what}"),
        }
    }
}

impl std::error::Error for FrozenCheckError {}

/// Validate that `t` is a finite `rows×cols` matrix (vectors count as one
/// row) whose buffer length matches its shape — the leaf check every frozen
/// component builds on.
pub fn check_matrix(
    what: &str,
    t: &Tensor,
    rows: usize,
    cols: usize,
) -> Result<(), FrozenCheckError> {
    let shape = t.shape();
    if shape.rows() != rows || shape.cols() != cols {
        return Err(FrozenCheckError::Shape(format!(
            "{what}: expected {rows}x{cols}, found {}x{}",
            shape.rows(),
            shape.cols()
        )));
    }
    if t.as_slice().len() != rows * cols {
        return Err(FrozenCheckError::Shape(format!(
            "{what}: buffer holds {} values but the shape declares {rows}x{cols}",
            t.as_slice().len()
        )));
    }
    if !t.all_finite() {
        return Err(FrozenCheckError::NonFinite(format!(
            "{what} contains NaN or infinite weights"
        )));
    }
    Ok(())
}

impl FrozenLinear {
    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Validate weight/bias shapes against the declared `in_dim → out_dim`
    /// geometry and reject non-finite weights.
    pub fn check(&self, what: &str) -> Result<(), FrozenCheckError> {
        check_matrix(&format!("{what}.w"), &self.w, self.in_dim, self.out_dim)?;
        if let Some(b) = &self.b {
            check_matrix(&format!("{what}.b"), b, 1, self.out_dim)?;
        }
        Ok(())
    }
}

impl FrozenMlp {
    /// Validate the layer chain: `in_dim` feeds the first layer, consecutive
    /// layers agree on their shared dimension, and the last layer emits
    /// `out_dim` — plus per-layer shape/finiteness checks.
    pub fn check(&self, what: &str, in_dim: usize, out_dim: usize) -> Result<(), FrozenCheckError> {
        let Some(first) = self.layers.first() else {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: MLP has no layers"
            )));
        };
        if first.in_dim != in_dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: first layer consumes {} features, expected {in_dim}",
                first.in_dim
            )));
        }
        for (i, layer) in self.layers.iter().enumerate() {
            layer.check(&format!("{what}.layer{i}"))?;
            if let Some(next) = self.layers.get(i + 1) {
                if next.in_dim != layer.out_dim {
                    return Err(FrozenCheckError::Shape(format!(
                        "{what}: layer {i} emits {} features but layer {} consumes {}",
                        layer.out_dim,
                        i + 1,
                        next.in_dim
                    )));
                }
            }
        }
        let last = self.layers.last().expect("checked non-empty");
        if last.out_dim != out_dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: last layer emits {} features, expected {out_dim}",
                last.out_dim
            )));
        }
        Ok(())
    }
}

impl FrozenMha {
    /// Validate head count, per-head projection shapes, and the output
    /// projection against the declared model dimension `dim`.
    pub fn check(&self, what: &str, dim: usize) -> Result<(), FrozenCheckError> {
        if self.dim != dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: attention dim {} does not match the branch dim {dim}",
                self.dim
            )));
        }
        if self.heads == 0 || self.heads * self.dk != dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: {} heads of width {} do not tile dim {dim}",
                self.heads, self.dk
            )));
        }
        for (name, mats) in [("wq", &self.wq), ("wk", &self.wk), ("wv", &self.wv)] {
            if mats.len() != self.heads {
                return Err(FrozenCheckError::Shape(format!(
                    "{what}.{name}: {} projections for {} heads",
                    mats.len(),
                    self.heads
                )));
            }
            for (h, m) in mats.iter().enumerate() {
                check_matrix(&format!("{what}.{name}[{h}]"), m, dim, self.dk)?;
            }
        }
        check_matrix(&format!("{what}.wo"), &self.wo, dim, dim)
    }
}

impl FrozenBilinear {
    /// Validate the bilinear matrix against the declared dimension.
    pub fn check(&self, what: &str, dim: usize) -> Result<(), FrozenCheckError> {
        if self.dim != dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: bilinear dim {} does not match the branch dim {dim}",
                self.dim
            )));
        }
        check_matrix(&format!("{what}.w"), &self.w, dim, dim)
    }
}

/// A single LSTM cell (Hochreiter & Schmidhuber), the recurrence of the RNN
/// baselines (LSTM/STGN/LSTPM/STOD-PPA). Gate order in the packed weight is
/// `[input, forget, output, candidate]`.
#[derive(Clone, Debug)]
pub struct LstmCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

/// Hidden and cell state for an LSTM step.
#[derive(Clone, Copy, Debug)]
pub struct LstmState {
    /// Hidden state `h`, a length-`hidden` vector.
    pub h: Value,
    /// Cell state `c`, a length-`hidden` vector.
    pub c: Value,
}

impl LstmCell {
    /// Register the cell parameters under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let wx = store.register(
            format!("{name}.wx"),
            init::paper_default(Shape::Matrix(input_dim, 4 * hidden_dim), rng),
        );
        let wh = store.register(
            format!("{name}.wh"),
            init::paper_default(Shape::Matrix(hidden_dim, 4 * hidden_dim), rng),
        );
        // Forget-gate bias starts at 1 (standard trick to let gradients flow
        // through long sequences early in training).
        let mut bias = Tensor::zeros(Shape::Vector(4 * hidden_dim));
        for i in hidden_dim..2 * hidden_dim {
            bias.as_mut_slice()[i] = 1.0;
        }
        let b = store.register(format!("{name}.b"), bias);
        LstmCell {
            wx,
            wh,
            b,
            input_dim,
            hidden_dim,
        }
    }

    /// Hidden width of the cell.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// A zero initial state recorded on the graph. States are vectors
    /// (matching the output shape of single-row slices).
    pub fn zero_state(&self, g: &mut Graph) -> LstmState {
        let h = g.input(Tensor::zeros(Shape::Vector(self.hidden_dim)));
        let c = g.input(Tensor::zeros(Shape::Vector(self.hidden_dim)));
        LstmState { h, c }
    }

    /// One recurrence step: `x` is `1×input_dim`.
    pub fn step(&self, g: &mut Graph, store: &ParamStore, x: Value, state: LstmState) -> LstmState {
        debug_assert_eq!(g.value(x).cols(), self.input_dim, "LSTM input dim");
        let wx = g.param(store, self.wx);
        let wh = g.param(store, self.wh);
        let b = g.param(store, self.b);
        let xg = g.matmul(x, wx);
        let hg = g.matmul(state.h, wh);
        let pre = g.add(xg, hg);
        let gates = g.add_row(pre, b);
        let hd = self.hidden_dim;
        let i_pre = g.slice_cols(gates, 0, hd);
        let f_pre = g.slice_cols(gates, hd, 2 * hd);
        let o_pre = g.slice_cols(gates, 2 * hd, 3 * hd);
        let c_pre = g.slice_cols(gates, 3 * hd, 4 * hd);
        let i = g.sigmoid(i_pre);
        let f = g.sigmoid(f_pre);
        let o = g.sigmoid(o_pre);
        let c_tilde = g.tanh(c_pre);
        let fc = g.mul(f, state.c);
        let ic = g.mul(i, c_tilde);
        let c = g.add(fc, ic);
        let ct = g.tanh(c);
        let h = g.mul(o, ct);
        LstmState { h, c }
    }

    /// Run the cell over a `[t × input_dim]` sequence, returning the final
    /// hidden state (a length-`hidden` vector).
    pub fn run(&self, g: &mut Graph, store: &ParamStore, seq: Value) -> Value {
        let t = g.value(seq).rows();
        let mut state = self.zero_state(g);
        for i in 0..t {
            let xi = g.row(seq, i);
            state = self.step(g, store, xi, state);
        }
        state.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn linear_shapes_and_bias() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 4, 3, true, &mut rng());
        assert_eq!((lin.in_dim(), lin.out_dim()), (4, 3));
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(Shape::Matrix(5, 4)));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), Shape::Matrix(5, 3));
        // Zero input + zero bias → zero output.
        assert_eq!(g.value(y).sum(), 0.0);
    }

    #[test]
    fn mlp_stacks_layers() {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[8, 16, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng(),
        );
        assert_eq!(mlp.out_dim(), 1);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(Shape::Matrix(2, 8)));
        let y = mlp.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), Shape::Matrix(2, 1));
        // Sigmoid output lies in (0, 1).
        assert!(g
            .value(y)
            .as_slice()
            .iter()
            .all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_dim() {
        Mlp::new(
            &mut ParamStore::new(),
            "m",
            &[4],
            Activation::Relu,
            Activation::None,
            &mut rng(),
        );
    }

    #[test]
    fn embedding_lookup_matches_table() {
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", 10, 4, &mut rng());
        assert_eq!((emb.vocab(), emb.dim()), (10, 4));
        let table = store.value(emb.table()).clone();
        let mut g = Graph::new();
        let rows = emb.forward(&mut g, &store, &[3, 7, 3]);
        assert_eq!(g.value(rows).shape(), Shape::Matrix(3, 4));
        assert_eq!(g.value(rows).row(0), table.row(3));
        assert_eq!(g.value(rows).row(1), table.row(7));
        assert_eq!(g.value(rows).row(2), table.row(3));
    }

    #[test]
    fn mha_preserves_sequence_shape() {
        let mut store = ParamStore::new();
        let mha = MultiHeadSelfAttention::new(&mut store, "mha", 8, 4, &mut rng());
        assert_eq!(mha.heads(), 4);
        let mut g = Graph::new();
        let e = g.input(init::paper_default(Shape::Matrix(6, 8), &mut rng()));
        let out = mha.forward(&mut g, &store, e);
        assert_eq!(g.value(out).shape(), Shape::Matrix(6, 8));
        assert!(g.value(out).all_finite());
    }

    #[test]
    #[should_panic(expected = "dim must divide by heads")]
    fn mha_rejects_indivisible_heads() {
        MultiHeadSelfAttention::new(&mut ParamStore::new(), "m", 10, 3, &mut rng());
    }

    #[test]
    fn bilinear_attention_pools_to_query_shape() {
        let mut store = ParamStore::new();
        let attn = BilinearAttention::new(&mut store, "attn", 6, &mut rng());
        let mut g = Graph::new();
        let q = g.input(init::paper_default(Shape::Matrix(1, 6), &mut rng()));
        let keys = g.input(init::paper_default(Shape::Matrix(4, 6), &mut rng()));
        let out = attn.forward(&mut g, &store, q, keys);
        assert_eq!(g.value(out).shape(), Shape::Matrix(1, 6));
    }

    #[test]
    fn bilinear_attention_output_is_convex_combination() {
        // With identical keys, the output must equal that key regardless of
        // the learned weights.
        let mut store = ParamStore::new();
        let attn = BilinearAttention::new(&mut store, "attn", 3, &mut rng());
        let mut g = Graph::new();
        let q = g.input(Tensor::matrix(1, 3, &[1.0, -1.0, 0.5]));
        let key_row: &[f32] = &[2.0, 3.0, 4.0];
        let keys = g.input(Tensor::from_rows(&[key_row; 5]));
        let out = attn.forward(&mut g, &store, q, keys);
        for (o, e) in g.value(out).as_slice().iter().zip(&[2.0, 3.0, 4.0]) {
            assert!((o - e).abs() < 1e-5);
        }
    }

    #[test]
    fn lstm_run_produces_hidden_state() {
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 4, 6, &mut rng());
        assert_eq!(cell.hidden_dim(), 6);
        let mut g = Graph::new();
        let seq = g.input(init::paper_default(Shape::Matrix(5, 4), &mut rng()));
        let h = cell.run(&mut g, &store, seq);
        assert_eq!(g.value(h).shape(), Shape::Vector(6));
        assert!(g.value(h).all_finite());
        // Hidden state is bounded by tanh × sigmoid.
        assert!(g.value(h).as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn lstm_gradients_flow_to_all_params() {
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 3, 4, &mut rng());
        let mut g = Graph::new();
        let seq = g.input(init::gaussian(Shape::Matrix(4, 3), 0.0, 1.0, &mut rng()));
        let h = cell.run(&mut g, &store, seq);
        let loss = g.sum_all(h);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        for id in store.ids().collect::<Vec<_>>() {
            assert!(
                store.grad(id).sq_norm() > 0.0,
                "no gradient reached {}",
                store.name(id)
            );
        }
    }

    #[test]
    fn frozen_linear_and_mlp_match_live_bitwise() {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[6, 5, 2],
            Activation::Relu,
            Activation::None,
            &mut rng(),
        );
        let x = init::gaussian(Shape::Matrix(3, 6), 0.0, 1.0, &mut rng());
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let live = mlp.forward(&mut g, &store, xv);
        let frozen = mlp.freeze(&store);
        let mut ws = Workspace::new();
        let out = frozen.forward(&mut ws, x.as_slice(), 3);
        assert_eq!(out.as_slice(), g.value(live).as_slice());
        ws.give(out);
    }

    #[test]
    fn frozen_mha_matches_live_bitwise() {
        let mut store = ParamStore::new();
        let mha = MultiHeadSelfAttention::new(&mut store, "mha", 8, 2, &mut rng());
        let e = init::gaussian(Shape::Matrix(5, 8), 0.0, 1.0, &mut rng());
        let mut g = Graph::new();
        let ev = g.input(e.clone());
        let live = mha.forward(&mut g, &store, ev);
        let frozen = mha.freeze(&store);
        let mut ws = Workspace::new();
        let out = frozen.forward(&mut ws, e.as_slice(), 5);
        assert_eq!(out.as_slice(), g.value(live).as_slice());
        ws.give(out);
    }

    #[test]
    fn frozen_bilinear_matches_live_bitwise() {
        let mut store = ParamStore::new();
        let attn = BilinearAttention::new(&mut store, "attn", 6, &mut rng());
        let q = init::gaussian(Shape::Matrix(1, 6), 0.0, 1.0, &mut rng());
        let keys = init::gaussian(Shape::Matrix(4, 6), 0.0, 1.0, &mut rng());
        let mut g = Graph::new();
        let qv = g.input(q.clone());
        let kv = g.input(keys.clone());
        let live = attn.forward(&mut g, &store, qv, kv);
        let frozen = attn.freeze(&store);
        let mut ws = Workspace::new();
        let out = frozen.forward(&mut ws, q.as_slice(), keys.as_slice(), 4);
        assert_eq!(out.as_slice(), g.value(live).as_slice());
        ws.give(out);
    }

    #[test]
    fn frozen_layers_round_trip_through_serde() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 3, 2, true, &mut rng());
        let frozen = lin.freeze(&store);
        let json = serde_json::to_string(&frozen).unwrap();
        let back: FrozenLinear = serde_json::from_str(&json).unwrap();
        let mut ws = Workspace::new();
        let x = [1.0f32, -2.0, 0.5];
        assert_eq!(frozen.forward(&mut ws, &x, 1), back.forward(&mut ws, &x, 1));
    }
}
