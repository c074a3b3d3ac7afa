//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape: every operation eagerly computes its forward value
//! and records the operation plus its operands. [`Graph::backward`] then walks
//! the tape in reverse, applying the analytic adjoint of each operation.
//! A fresh graph is built per mini-batch (define-by-run), which keeps
//! recurrent models (LSTM unrolling) and data-dependent control flow trivial.
//!
//! Gradient correctness is the single invariant everything else in the
//! reproduction rests on; see `tests/gradcheck.rs` for finite-difference
//! property tests covering every op here.

use crate::linalg;
use crate::linalg::stable_sigmoid;
use crate::param::{ParamId, ParamStore};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`]'s tape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Value(usize);

/// Recorded operation for one tape node.
#[derive(Debug)]
enum Op {
    /// Constant input; never receives a gradient.
    Input,
    /// Trainable parameter leaf; gradient is accumulated into the store.
    Param(ParamId),
    Add(Value, Value),
    /// `matrix + row` where the row vector is broadcast over all rows.
    AddRow(Value, Value),
    Sub(Value, Value),
    Mul(Value, Value),
    Scale(Value, f32),
    AddScalar(Value),
    Matmul(Value, Value),
    Relu(Value),
    Sigmoid(Value),
    Tanh(Value),
    Exp(Value),
    Log(Value),
    SoftmaxRows(Value),
    Transpose(Value),
    ConcatCols(Vec<Value>),
    /// Column concatenation where single-row operands are broadcast down
    /// all output rows (the batched `q` assembly of the serving path).
    ConcatColsBcast(Vec<Value>, usize),
    ConcatRows(Vec<Value>),
    SliceCols(Value, usize, usize),
    Row(Value, usize),
    GatherRows(Value, Vec<usize>),
    SumAll(Value),
    MeanAll(Value),
    MeanRows(Value),
    /// Row-wise scale: `out[i, :] = w[i] * a[i, :]` with `w` a length-rows vector.
    ScaleRows(Value, Value),
    Reshape(Value, Shape),
    /// Numerically-stable binary cross-entropy with logits against constant
    /// targets; output is a scalar mean loss.
    BceWithLogits(Value, Tensor),
    /// Mean squared error against constant targets; output is a scalar.
    MseLoss(Value, Tensor),
}

struct Node {
    data: Tensor,
    grad: Option<Tensor>,
    op: Op,
    requires_grad: bool,
}

/// A define-by-run autograd tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// A tape with preallocated node capacity (useful for unrolled RNNs).
    pub fn with_capacity(n: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Clear the tape while keeping its node-vector capacity, so a worker
    /// that builds one tape per group amortizes the tape allocation across
    /// the whole run instead of paying it per group.
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, data: Tensor, op: Op, requires_grad: bool) -> Value {
        self.nodes.push(Node {
            data,
            grad: None,
            op,
            requires_grad,
        });
        Value(self.nodes.len() - 1)
    }

    fn data(&self, v: Value) -> &Tensor {
        &self.nodes[v.0].data
    }

    fn needs_grad(&self, v: Value) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The forward value of a node.
    pub fn value(&self, v: Value) -> &Tensor {
        self.data(v)
    }

    /// The accumulated gradient of a node (populated by [`Graph::backward`]).
    pub fn grad(&self, v: Value) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    // ---- leaves -----------------------------------------------------------

    /// Record a constant input (no gradient flows into it).
    pub fn input(&mut self, t: Tensor) -> Value {
        self.push(t, Op::Input, false)
    }

    /// Record a trainable parameter leaf holding a snapshot of the parameter's
    /// current value. After `backward`, flush gradients back with
    /// [`Graph::accumulate_param_grads`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Value {
        self.push(store.value(id).clone(), Op::Param(id), true)
    }

    // ---- elementwise binary ----------------------------------------------

    /// Elementwise sum of two same-shape tensors.
    pub fn add(&mut self, a: Value, b: Value) -> Value {
        let data = self.data(a).zip(self.data(b), |x, y| x + y);
        let rg = self.needs_grad(a) || self.needs_grad(b);
        self.push(data, Op::Add(a, b), rg)
    }

    /// `matrix + row-vector`, broadcasting the row over every matrix row
    /// (the usual bias add).
    pub fn add_row(&mut self, a: Value, row: Value) -> Value {
        let m = self.data(a);
        let r = self.data(row);
        assert_eq!(
            m.cols(),
            r.len(),
            "add_row: matrix cols {} vs row len {}",
            m.cols(),
            r.len()
        );
        let mut out = m.clone();
        for i in 0..out.rows() {
            for (o, &b) in out.row_mut(i).iter_mut().zip(r.as_slice()) {
                *o += b;
            }
        }
        let rg = self.needs_grad(a) || self.needs_grad(row);
        self.push(out, Op::AddRow(a, row), rg)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Value, b: Value) -> Value {
        let data = self.data(a).zip(self.data(b), |x, y| x - y);
        let rg = self.needs_grad(a) || self.needs_grad(b);
        self.push(data, Op::Sub(a, b), rg)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Value, b: Value) -> Value {
        let data = self.data(a).zip(self.data(b), |x, y| x * y);
        let rg = self.needs_grad(a) || self.needs_grad(b);
        self.push(data, Op::Mul(a, b), rg)
    }

    /// Multiply by a constant scalar.
    pub fn scale(&mut self, a: Value, s: f32) -> Value {
        let data = self.data(a).map(|x| x * s);
        let rg = self.needs_grad(a);
        self.push(data, Op::Scale(a, s), rg)
    }

    /// Add a constant scalar to every element.
    pub fn add_scalar(&mut self, a: Value, s: f32) -> Value {
        let data = self.data(a).map(|x| x + s);
        let rg = self.needs_grad(a);
        self.push(data, Op::AddScalar(a), rg)
    }

    // ---- linear algebra ----------------------------------------------------

    /// Matrix product of the matrix views.
    pub fn matmul(&mut self, a: Value, b: Value) -> Value {
        let data = linalg::matmul(self.data(a), self.data(b));
        let rg = self.needs_grad(a) || self.needs_grad(b);
        self.push(data, Op::Matmul(a, b), rg)
    }

    /// Transpose of the matrix view.
    pub fn transpose(&mut self, a: Value) -> Value {
        let data = linalg::transpose(self.data(a));
        let rg = self.needs_grad(a);
        self.push(data, Op::Transpose(a), rg)
    }

    // ---- activations -------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Value) -> Value {
        let data = self.data(a).map(|x| x.max(0.0));
        let rg = self.needs_grad(a);
        self.push(data, Op::Relu(a), rg)
    }

    /// Logistic sigmoid (fused single-pass kernel).
    pub fn sigmoid(&mut self, a: Value) -> Value {
        let data = linalg::sigmoid(self.data(a));
        let rg = self.needs_grad(a);
        self.push(data, Op::Sigmoid(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Value) -> Value {
        let data = self.data(a).map(f32::tanh);
        let rg = self.needs_grad(a);
        self.push(data, Op::Tanh(a), rg)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Value) -> Value {
        let data = self.data(a).map(f32::exp);
        let rg = self.needs_grad(a);
        self.push(data, Op::Exp(a), rg)
    }

    /// Elementwise natural logarithm (inputs must be positive).
    pub fn log(&mut self, a: Value) -> Value {
        let data = self.data(a).map(f32::ln);
        let rg = self.needs_grad(a);
        self.push(data, Op::Log(a), rg)
    }

    /// Row-wise softmax of the matrix view.
    pub fn softmax_rows(&mut self, a: Value) -> Value {
        let data = linalg::softmax_rows(self.data(a));
        let rg = self.needs_grad(a);
        self.push(data, Op::SoftmaxRows(a), rg)
    }

    // ---- structural ---------------------------------------------------------

    /// Concatenate matrices along columns (all operands must share a row
    /// count in the matrix view).
    pub fn concat_cols(&mut self, parts: &[Value]) -> Value {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let rows = self.data(parts[0]).rows();
        let total_cols: usize = parts.iter().map(|&p| self.data(p).cols()).sum();
        let mut out = Tensor::zeros(Shape::Matrix(rows, total_cols));
        let mut col = 0;
        for &p in parts {
            let t = self.data(p);
            assert_eq!(t.rows(), rows, "concat_cols: row count mismatch");
            let c = t.cols();
            for i in 0..rows {
                out.row_mut(i)[col..col + c].copy_from_slice(t.row(i));
            }
            col += c;
        }
        let out = if rows == 1 {
            out.reshape(Shape::Vector(total_cols))
        } else {
            out
        };
        let rg = parts.iter().any(|&p| self.needs_grad(p));
        self.push(out, Op::ConcatCols(parts.to_vec()), rg)
    }

    /// Concatenate along columns into an `rows × Σcols` matrix, broadcasting
    /// any single-row operand (vector or `1×c` matrix) down all `rows` rows.
    /// This fuses the "tile the shared trunk, then concat with per-candidate
    /// features" pattern into one op and one allocation — the tiled copies
    /// are never materialized as separate tensors.
    pub fn concat_cols_bcast(&mut self, parts: &[Value], rows: usize) -> Value {
        assert!(!parts.is_empty(), "concat_cols_bcast of zero tensors");
        assert!(rows > 0, "concat_cols_bcast needs at least one row");
        let total_cols: usize = parts.iter().map(|&p| self.data(p).cols()).sum();
        let mut out = Tensor::zeros(Shape::Matrix(rows, total_cols));
        let mut col = 0;
        for &p in parts {
            let t = self.data(p);
            let c = t.cols();
            if t.rows() == rows {
                for i in 0..rows {
                    out.row_mut(i)[col..col + c].copy_from_slice(t.row(i));
                }
            } else {
                assert_eq!(
                    t.rows(),
                    1,
                    "concat_cols_bcast: operand has {} rows, expected 1 or {rows}",
                    t.rows()
                );
                let src = t.row(0);
                for i in 0..rows {
                    out.row_mut(i)[col..col + c].copy_from_slice(src);
                }
            }
            col += c;
        }
        let rg = parts.iter().any(|&p| self.needs_grad(p));
        self.push(out, Op::ConcatColsBcast(parts.to_vec(), rows), rg)
    }

    /// Stack matrices along rows (all operands must share a column count in
    /// the matrix view). Vectors stack as single rows.
    pub fn concat_rows(&mut self, parts: &[Value]) -> Value {
        assert!(!parts.is_empty(), "concat_rows of zero tensors");
        let cols = self.data(parts[0]).cols();
        let total_rows: usize = parts.iter().map(|&p| self.data(p).rows()).sum();
        let mut data = Vec::with_capacity(total_rows * cols);
        for &p in parts {
            let t = self.data(p);
            assert_eq!(t.cols(), cols, "concat_rows: column count mismatch");
            data.extend_from_slice(t.as_slice());
        }
        let out = Tensor::new(Shape::Matrix(total_rows, cols), data);
        let rg = parts.iter().any(|&p| self.needs_grad(p));
        self.push(out, Op::ConcatRows(parts.to_vec()), rg)
    }

    /// Columns `lo..hi` of the matrix view.
    pub fn slice_cols(&mut self, a: Value, lo: usize, hi: usize) -> Value {
        let t = self.data(a);
        assert!(lo < hi && hi <= t.cols(), "slice_cols range out of bounds");
        let rows = t.rows();
        let mut out = Tensor::zeros(Shape::Matrix(rows, hi - lo));
        for i in 0..rows {
            out.row_mut(i).copy_from_slice(&t.row(i)[lo..hi]);
        }
        let out = if rows == 1 {
            out.reshape(Shape::Vector(hi - lo))
        } else {
            out
        };
        let rg = self.needs_grad(a);
        self.push(out, Op::SliceCols(a, lo, hi), rg)
    }

    /// One row of the matrix view, as a vector.
    pub fn row(&mut self, a: Value, i: usize) -> Value {
        let t = self.data(a);
        assert!(i < t.rows(), "row index out of bounds");
        let out = Tensor::vector(t.row(i));
        let rg = self.needs_grad(a);
        self.push(out, Op::Row(a, i), rg)
    }

    /// Gather rows of `table` by index — the embedding lookup. The gradient
    /// scatter-adds back into the gathered rows, so repeated indices
    /// accumulate.
    pub fn gather_rows(&mut self, table: Value, indices: &[usize]) -> Value {
        let t = self.data(table);
        let cols = t.cols();
        let mut out = Tensor::zeros(Shape::Matrix(indices.len(), cols));
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < t.rows(), "gather_rows index {idx} out of bounds");
            out.row_mut(i).copy_from_slice(t.row(idx));
        }
        let rg = self.needs_grad(table);
        self.push(out, Op::GatherRows(table, indices.to_vec()), rg)
    }

    /// Reinterpret under a new shape with the same element count.
    pub fn reshape(&mut self, a: Value, shape: Shape) -> Value {
        let data = self.data(a).clone().reshape(shape);
        let rg = self.needs_grad(a);
        self.push(data, Op::Reshape(a, self.nodes[a.0].data.shape()), rg)
    }

    // ---- reductions ----------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, a: Value) -> Value {
        let data = Tensor::scalar(self.data(a).sum());
        let rg = self.needs_grad(a);
        self.push(data, Op::SumAll(a), rg)
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, a: Value) -> Value {
        let data = Tensor::scalar(self.data(a).mean());
        let rg = self.needs_grad(a);
        self.push(data, Op::MeanAll(a), rg)
    }

    /// Mean over rows of the matrix view — the average-pooling layer of the
    /// paper's PEC (Fig. 4).
    pub fn mean_rows(&mut self, a: Value) -> Value {
        let data = linalg::mean_rows(self.data(a));
        let rg = self.needs_grad(a);
        self.push(data, Op::MeanRows(a), rg)
    }

    /// Row-wise scaling `out[i, :] = w[i] · a[i, :]` where `w` has one entry
    /// per row — used to apply attention weights to value rows.
    pub fn scale_rows(&mut self, a: Value, w: Value) -> Value {
        let m = self.data(a);
        let wv = self.data(w);
        assert_eq!(
            m.rows(),
            wv.len(),
            "scale_rows: {} rows vs {} weights",
            m.rows(),
            wv.len()
        );
        let mut out = m.clone();
        for i in 0..out.rows() {
            let s = wv.as_slice()[i];
            out.row_mut(i).iter_mut().for_each(|x| *x *= s);
        }
        let rg = self.needs_grad(a) || self.needs_grad(w);
        self.push(out, Op::ScaleRows(a, w), rg)
    }

    // ---- losses ----------------------------------------------------------------

    /// Mean binary cross-entropy over logits, computed in the numerically
    /// stable form `max(z,0) − z·t + ln(1 + e^{−|z|})`. This is the loss of
    /// the paper's Eqs. 9–10 with the sigmoid folded in.
    pub fn bce_with_logits(&mut self, logits: Value, targets: &Tensor) -> Value {
        let z = self.data(logits);
        assert_eq!(z.shape(), targets.shape(), "bce_with_logits shape mismatch");
        let n = z.len().max(1) as f32;
        let mut loss = 0.0;
        for (&zi, &ti) in z.as_slice().iter().zip(targets.as_slice()) {
            loss += zi.max(0.0) - zi * ti + (-(zi.abs())).exp().ln_1p();
        }
        let rg = self.needs_grad(logits);
        self.push(
            Tensor::scalar(loss / n),
            Op::BceWithLogits(logits, targets.clone()),
            rg,
        )
    }

    /// Mean squared error against constant targets (scalar output).
    pub fn mse_loss(&mut self, pred: Value, targets: &Tensor) -> Value {
        let p = self.data(pred);
        assert_eq!(p.shape(), targets.shape(), "mse_loss shape mismatch");
        let n = p.len().max(1) as f32;
        let loss: f32 = p
            .as_slice()
            .iter()
            .zip(targets.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        let rg = self.needs_grad(pred);
        self.push(
            Tensor::scalar(loss / n),
            Op::MseLoss(pred, targets.clone()),
            rg,
        )
    }

    // ---- backward -----------------------------------------------------------

    /// Reverse-mode sweep from a scalar `loss` node. Gradients accumulate on
    /// every `requires_grad` node reachable from `loss`.
    ///
    /// # Panics
    /// Panics when `loss` is not a scalar.
    pub fn backward(&mut self, loss: Value) {
        assert_eq!(
            self.data(loss).shape(),
            Shape::Scalar,
            "backward must start from a scalar loss"
        );
        self.nodes[loss.0].grad = Some(Tensor::scalar(1.0));
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            self.propagate(i, &g);
            self.nodes[i].grad = Some(g);
        }
    }

    fn accum(&mut self, v: Value, delta: Tensor) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(g) => g.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Apply the adjoint of node `i`'s op given its output gradient `g`.
    fn propagate(&mut self, i: usize, g: &Tensor) {
        // Ops are matched by value where cheap; tensors cloned out of
        // `self.nodes` where the borrow checker requires it.
        enum Deferred {
            None,
            One(Value, Tensor),
            Two(Value, Tensor, Value, Tensor),
            Many(Vec<(Value, Tensor)>),
        }
        let deferred = {
            let node = &self.nodes[i];
            match &node.op {
                Op::Input | Op::Param(_) => Deferred::None,
                Op::Add(a, b) => Deferred::Two(*a, g.clone(), *b, g.clone()),
                Op::AddRow(a, row) => {
                    let row_grad = linalg::sum_rows(g);
                    Deferred::Two(*a, g.clone(), *row, row_grad)
                }
                Op::Sub(a, b) => Deferred::Two(*a, g.clone(), *b, g.map(|x| -x)),
                Op::Mul(a, b) => {
                    let da = g.zip(&self.nodes[b.0].data, |x, y| x * y);
                    let db = g.zip(&self.nodes[a.0].data, |x, y| x * y);
                    Deferred::Two(*a, da, *b, db)
                }
                Op::Scale(a, s) => Deferred::One(*a, g.map(|x| x * s)),
                Op::AddScalar(a) => Deferred::One(*a, g.clone()),
                Op::Matmul(a, b) => {
                    let ta = &self.nodes[a.0].data;
                    let tb = &self.nodes[b.0].data;
                    // dA = g · Bᵀ reshaped to A's shape; dB = Aᵀ · g.
                    let da = linalg::matmul_nt(g, tb).reshape(ta.shape());
                    let db = linalg::matmul_tn(ta, g).reshape(tb.shape());
                    Deferred::Two(*a, da, *b, db)
                }
                Op::Relu(a) => {
                    let da = g.zip(
                        &self.nodes[a.0].data,
                        |gi, x| if x > 0.0 { gi } else { 0.0 },
                    );
                    Deferred::One(*a, da)
                }
                Op::Sigmoid(a) => {
                    let da = g.zip(&node.data, |gi, y| gi * y * (1.0 - y));
                    Deferred::One(*a, da)
                }
                Op::Tanh(a) => {
                    let da = g.zip(&node.data, |gi, y| gi * (1.0 - y * y));
                    Deferred::One(*a, da)
                }
                Op::Exp(a) => {
                    let da = g.zip(&node.data, |gi, y| gi * y);
                    Deferred::One(*a, da)
                }
                Op::Log(a) => {
                    let da = g.zip(&self.nodes[a.0].data, |gi, x| gi / x);
                    Deferred::One(*a, da)
                }
                Op::SoftmaxRows(a) => {
                    // Per row: dx = y ∘ (g − (g · y)), fused in linalg.
                    Deferred::One(*a, linalg::softmax_rows_backward(&node.data, g))
                }
                Op::Transpose(a) => {
                    let da = linalg::transpose(g).reshape(self.nodes[a.0].data.shape());
                    Deferred::One(*a, da)
                }
                Op::ConcatCols(parts) => {
                    let mut grads = Vec::with_capacity(parts.len());
                    let rows = node.data.rows();
                    let mut col = 0;
                    for &p in parts {
                        let t = &self.nodes[p.0].data;
                        let c = t.cols();
                        let mut dp = Tensor::zeros(Shape::Matrix(rows, c));
                        let gcols = node.data.cols();
                        for r in 0..rows {
                            let src = &g.as_slice()[r * gcols + col..r * gcols + col + c];
                            dp.row_mut(r).copy_from_slice(src);
                        }
                        grads.push((p, dp.reshape(t.shape())));
                        col += c;
                    }
                    Deferred::Many(grads)
                }
                Op::ConcatColsBcast(parts, rows) => {
                    let mut grads = Vec::with_capacity(parts.len());
                    let gcols = node.data.cols();
                    let mut col = 0;
                    for &p in parts {
                        let t = &self.nodes[p.0].data;
                        let c = t.cols();
                        let mut dp = Tensor::zeros(t.shape());
                        if t.rows() == *rows {
                            for r in 0..*rows {
                                let src = &g.as_slice()[r * gcols + col..r * gcols + col + c];
                                dp.row_mut(r).copy_from_slice(src);
                            }
                        } else {
                            // Broadcast operand: the adjoint of tiling is the
                            // sum over the tiled rows.
                            let dst = dp.as_mut_slice();
                            for r in 0..*rows {
                                let src = &g.as_slice()[r * gcols + col..r * gcols + col + c];
                                for (d, &s) in dst.iter_mut().zip(src) {
                                    *d += s;
                                }
                            }
                        }
                        grads.push((p, dp));
                        col += c;
                    }
                    Deferred::Many(grads)
                }
                Op::ConcatRows(parts) => {
                    let mut grads = Vec::with_capacity(parts.len());
                    let cols = node.data.cols();
                    let mut row = 0;
                    for &p in parts {
                        let t = &self.nodes[p.0].data;
                        let r = t.rows();
                        let slice = &g.as_slice()[row * cols..(row + r) * cols];
                        grads.push((p, Tensor::new(t.shape(), slice.to_vec())));
                        row += r;
                    }
                    Deferred::Many(grads)
                }
                Op::SliceCols(a, lo, _hi) => {
                    let t = &self.nodes[a.0].data;
                    let mut da = Tensor::zeros(t.shape());
                    let c = g.cols();
                    for r in 0..t.rows() {
                        let src = &g.as_slice()[r * c..(r + 1) * c];
                        da.row_mut(r)[*lo..*lo + c].copy_from_slice(src);
                    }
                    Deferred::One(*a, da)
                }
                Op::Row(a, idx) => {
                    let t = &self.nodes[a.0].data;
                    let mut da = Tensor::zeros(t.shape());
                    da.row_mut(*idx).copy_from_slice(g.as_slice());
                    Deferred::One(*a, da)
                }
                Op::GatherRows(table, indices) => {
                    let t = &self.nodes[table.0].data;
                    let mut dt = Tensor::zeros(t.shape());
                    let c = t.cols();
                    for (row, &idx) in indices.iter().enumerate() {
                        let src = &g.as_slice()[row * c..(row + 1) * c];
                        let dst = dt.row_mut(idx);
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                    Deferred::One(*table, dt)
                }
                Op::Reshape(a, original) => Deferred::One(*a, g.clone().reshape(*original)),
                Op::SumAll(a) => {
                    let t = &self.nodes[a.0].data;
                    Deferred::One(*a, Tensor::full(t.shape(), g.item()))
                }
                Op::MeanAll(a) => {
                    let t = &self.nodes[a.0].data;
                    let n = t.len().max(1) as f32;
                    Deferred::One(*a, Tensor::full(t.shape(), g.item() / n))
                }
                Op::MeanRows(a) => {
                    let t = &self.nodes[a.0].data;
                    let r = t.rows().max(1) as f32;
                    let mut da = Tensor::zeros(t.shape());
                    for row in 0..t.rows() {
                        for (d, &gi) in da.row_mut(row).iter_mut().zip(g.as_slice()) {
                            *d = gi / r;
                        }
                    }
                    Deferred::One(*a, da)
                }
                Op::ScaleRows(a, w) => {
                    let ta = &self.nodes[a.0].data;
                    let tw = &self.nodes[w.0].data;
                    let mut da = g.clone();
                    for row in 0..da.rows() {
                        let s = tw.as_slice()[row];
                        da.row_mut(row).iter_mut().for_each(|x| *x *= s);
                    }
                    let mut dw = Tensor::zeros(tw.shape());
                    let c = ta.cols();
                    for row in 0..ta.rows() {
                        let grow = &g.as_slice()[row * c..(row + 1) * c];
                        dw.as_mut_slice()[row] = linalg::dot(grow, ta.row(row));
                    }
                    Deferred::Two(*a, da, *w, dw)
                }
                Op::BceWithLogits(logits, targets) => {
                    let z = &self.nodes[logits.0].data;
                    let n = z.len().max(1) as f32;
                    let scale = g.item() / n;
                    let dz = z.zip(targets, |zi, ti| (stable_sigmoid(zi) - ti) * scale);
                    Deferred::One(*logits, dz)
                }
                Op::MseLoss(pred, targets) => {
                    let p = &self.nodes[pred.0].data;
                    let n = p.len().max(1) as f32;
                    let scale = 2.0 * g.item() / n;
                    let dp = p.zip(targets, |a, b| (a - b) * scale);
                    Deferred::One(*pred, dp)
                }
            }
        };
        match deferred {
            Deferred::None => {}
            Deferred::One(a, da) => self.accum(a, da),
            Deferred::Two(a, da, b, db) => {
                self.accum(a, da);
                self.accum(b, db);
            }
            Deferred::Many(grads) => {
                for (v, dv) in grads {
                    self.accum(v, dv);
                }
            }
        }
    }

    /// Flush gradients of every `Param` leaf into the store's gradient
    /// buffers (adding — the store may already hold gradients from other
    /// graphs in the same batch).
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for node in &self.nodes {
            if let (Op::Param(id), Some(grad)) = (&node.op, &node.grad) {
                store.grad_mut(*id).axpy(1.0, grad);
            }
        }
    }

    /// Iterate over `(ParamId, gradient)` pairs of this tape without
    /// touching a store — used by data-parallel training workers that merge
    /// gradients on the main thread.
    pub fn param_grads(&self) -> impl Iterator<Item = (ParamId, &Tensor)> + '_ {
        self.nodes
            .iter()
            .filter_map(|node| match (&node.op, &node.grad) {
                (Op::Param(id), Some(grad)) => Some((*id, grad)),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;

    #[test]
    fn forward_values_are_eager() {
        let mut g = Graph::new();
        let a = g.input(Tensor::vector(&[1.0, 2.0]));
        let b = g.input(Tensor::vector(&[3.0, 4.0]));
        let c = g.add(a, b);
        assert_eq!(g.value(c).as_slice(), &[4.0, 6.0]);
        let d = g.mul(a, b);
        assert_eq!(g.value(d).as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn inputs_get_no_grad() {
        let mut g = Graph::new();
        let a = g.input(Tensor::scalar(2.0));
        let b = g.scale(a, 3.0);
        g.backward(b);
        assert!(g.grad(a).is_none());
    }

    #[test]
    fn simple_chain_rule() {
        // loss = sum((2x)^2) over x=[1,2]; dloss/dx = 8x.
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::vector(&[1.0, 2.0]));
        let mut g = Graph::new();
        let xv = g.param(&store, x);
        let y = g.scale(xv, 2.0);
        let y2 = g.mul(y, y);
        let loss = g.sum_all(y2);
        assert_eq!(g.value(loss).item(), 4.0 + 16.0);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(x).as_slice(), &[8.0, 16.0]);
    }

    #[test]
    fn matmul_gradients_known_values() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1.
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = store.register("b", Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let mut g = Graph::new();
        let av = g.param(&store, a);
        let bv = g.param(&store, b);
        let c = g.matmul(av, bv);
        let loss = g.sum_all(c);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        // dA[i,k] = sum_j B[k,j] = row sums of B.
        assert_eq!(store.grad(a).as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dB[k,j] = sum_i A[i,k] = col sums of A.
        assert_eq!(store.grad(b).as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn gather_rows_scatter_adds_on_repeats() {
        let mut store = ParamStore::new();
        let e = store.register("e", Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let mut g = Graph::new();
        let ev = g.param(&store, e);
        let rows = g.gather_rows(ev, &[0, 0, 1]);
        let loss = g.sum_all(rows);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        // Row 0 gathered twice → gradient 2 per element; row 1 once.
        assert_eq!(store.grad(e).as_slice(), &[2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn bce_with_logits_matches_naive_formula() {
        let mut g = Graph::new();
        let z = g.input(Tensor::vector(&[0.5, -1.5]));
        let t = Tensor::vector(&[1.0, 0.0]);
        let loss = g.bce_with_logits(z, &t);
        let naive = |z: f32, t: f32| {
            let p = stable_sigmoid(z);
            -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
        };
        let expected = (naive(0.5, 1.0) + naive(-1.5, 0.0)) / 2.0;
        assert!((g.value(loss).item() - expected).abs() < 1e-6);
    }

    #[test]
    fn bce_with_logits_is_stable_for_extreme_logits() {
        let mut g = Graph::new();
        let z = g.input(Tensor::vector(&[80.0, -80.0]));
        let t = Tensor::vector(&[1.0, 0.0]);
        let loss = g.bce_with_logits(z, &t);
        assert!(g.value(loss).item().is_finite());
        assert!(g.value(loss).item() < 1e-6);
    }

    #[test]
    fn softmax_rows_then_backward_runs() {
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let mut g = Graph::new();
        let xv = g.param(&store, x);
        let s = g.softmax_rows(xv);
        let first = g.slice_cols(s, 0, 1);
        let loss = g.sum_all(first);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        // Gradient of softmax wrt its max-probability coordinate is negative
        // for the other coordinates.
        let grads = store.grad(x).as_slice().to_vec();
        assert!(grads[0] > 0.0 && grads[2] < 0.0);
        // Softmax gradient rows sum to ~0 (shift invariance).
        assert!(grads.iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn concat_and_slice_round_trip_gradients() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::vector(&[1.0, 2.0]));
        let b = store.register("b", Tensor::vector(&[3.0]));
        let mut g = Graph::new();
        let av = g.param(&store, a);
        let bv = g.param(&store, b);
        let cat = g.concat_cols(&[av, bv]);
        assert_eq!(g.value(cat).as_slice(), &[1.0, 2.0, 3.0]);
        let right = g.slice_cols(cat, 1, 3);
        let loss = g.sum_all(right);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(a).as_slice(), &[0.0, 1.0]);
        assert_eq!(store.grad(b).as_slice(), &[1.0]);
    }

    #[test]
    fn scale_rows_forward_and_backward() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let w = store.register("w", Tensor::vector(&[2.0, -1.0]));
        let mut g = Graph::new();
        let av = g.param(&store, a);
        let wv = g.param(&store, w);
        let out = g.scale_rows(av, wv);
        assert_eq!(g.value(out).as_slice(), &[2.0, 4.0, -3.0, -4.0]);
        let loss = g.sum_all(out);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(a).as_slice(), &[2.0, 2.0, -1.0, -1.0]);
        assert_eq!(store.grad(w).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn add_row_broadcasts_bias() {
        let mut store = ParamStore::new();
        let b = store.register("b", Tensor::vector(&[10.0, 20.0]));
        let mut g = Graph::new();
        let m = g.input(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let bv = g.param(&store, b);
        let out = g.add_row(m, bv);
        assert_eq!(g.value(out).as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let loss = g.sum_all(out);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        // Bias gradient is the column sums of dOut = all-ones → 2 per entry.
        assert_eq!(store.grad(b).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn stable_sigmoid_extremes() {
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(stable_sigmoid(100.0) > 0.999_999);
        assert!(stable_sigmoid(-100.0) < 1e-6);
        assert!(stable_sigmoid(-100.0) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let a = g.input(Tensor::vector(&[1.0, 2.0]));
        g.backward(a);
    }

    #[test]
    fn reset_clears_tape_and_keeps_capacity() {
        let mut g = Graph::new();
        for _ in 0..8 {
            g.input(Tensor::scalar(1.0));
        }
        assert_eq!(g.len(), 8);
        g.reset();
        assert!(g.is_empty());
        // The tape is usable again after a reset.
        let a = g.input(Tensor::vector(&[1.0, 2.0]));
        let b = g.scale(a, 2.0);
        assert_eq!(g.value(b).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn concat_cols_bcast_tiles_single_rows() {
        let mut g = Graph::new();
        let shared = g.input(Tensor::vector(&[9.0, 8.0]));
        let per_row = g.input(Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let cat = g.concat_cols_bcast(&[shared, per_row], 3);
        assert_eq!(g.value(cat).shape(), Shape::Matrix(3, 3));
        assert_eq!(
            g.value(cat).as_slice(),
            &[9.0, 8.0, 1.0, 9.0, 8.0, 2.0, 9.0, 8.0, 3.0]
        );
    }

    #[test]
    fn concat_cols_bcast_broadcast_grad_is_row_sum() {
        let mut store = ParamStore::new();
        let shared = store.register("s", Tensor::vector(&[1.0, 2.0]));
        let full = store.register("f", Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let mut g = Graph::new();
        let sv = g.param(&store, shared);
        let fv = g.param(&store, full);
        let cat = g.concat_cols_bcast(&[sv, fv], 3);
        let loss = g.sum_all(cat);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        // The shared row is tiled into 3 rows → gradient 3 per element.
        assert_eq!(store.grad(shared).as_slice(), &[3.0, 3.0]);
        assert_eq!(store.grad(full).as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn concat_cols_bcast_matches_plain_concat_for_full_rows() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.input(Tensor::from_rows(&[&[5.0], &[6.0]]));
        let plain = g.concat_cols(&[a, b]);
        let bcast = g.concat_cols_bcast(&[a, b], 2);
        assert_eq!(g.value(plain).as_slice(), g.value(bcast).as_slice());
    }

    #[test]
    #[should_panic(expected = "expected 1 or 3")]
    fn concat_cols_bcast_rejects_mismatched_rows() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0], &[2.0]]));
        g.concat_cols_bcast(&[a], 3);
    }

    #[test]
    fn grad_accumulates_across_fanout() {
        // loss = sum(x + x) → dx = 2.
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::scalar(3.0));
        let mut g = Graph::new();
        let xv = g.param(&store, x);
        let s = g.add(xv, xv);
        let loss = g.sum_all(s);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(x).item(), 2.0);
    }
}
