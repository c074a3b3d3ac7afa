//! Tape-free inference kernels and scratch-buffer management.
//!
//! The autograd [`crate::Graph`] pays for gradients nobody needs at serving
//! time: every op allocates a node payload and an adjoint slot. This module
//! provides the same forward kernels as free functions that write into
//! caller-provided buffers drawn from a [`Workspace`] pool, so a hot serving
//! loop reaches a steady state with **zero allocations per request**.
//!
//! Numerical contract: each kernel produces the corresponding tape op's
//! bits. For the matrix product that means every output element is the
//! sequential sum `((0 + a₀b₀) + a₁b₁) + …` in ascending inner index, one
//! multiply and one add per term — the order `gemm_nn_stripe` keeps for the
//! tape's [`crate::linalg::matmul`] and for [`matmul_into`] alike, in every
//! tile shape and at every [`SimdLevel`]. What preserves that order is free:
//! packing several right-hand sides column-wise into one product (columns
//! are independent), starting the sum from a shared partial product
//! ([`matmul_seeded_into`]), wider vector lanes. A fused multiply-add would
//! not (one rounding instead of two), so `fma` is never enabled.
//! [`mean_rows_into`] mirrors `sum_rows`-then-divide, and the elementwise
//! ops apply the same scalar functions. Frozen forwards built on these
//! kernels are therefore bit-identical to the live tape forward, not merely
//! close.

use crate::linalg;
use crate::simd::SimdLevel;

/// Pool of reusable scratch buffers for tape-free forwards.
///
/// [`Workspace::take`] hands out a zeroed buffer of the requested length,
/// reusing a pooled allocation when one is available; [`Workspace::give`]
/// returns a buffer to the pool. Buffers keep their capacity across the
/// take/give cycle, so a serving loop that scores same-shaped requests
/// allocates only during warm-up: after the first request every `take` is
/// satisfied from the pool.
///
/// The pool is LIFO, which matches the nested take/give discipline of the
/// frozen forwards — each buffer ends up serving the same role (and
/// therefore the same size) on every request.
#[derive(Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
}

impl Workspace {
    /// An empty workspace (no pooled buffers yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow a zero-filled buffer of exactly `len` elements.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Return a buffer to the pool, keeping its allocation for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        self.pool.push(buf);
    }

    /// Number of buffers currently pooled (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// `out = a · b` where `a` is `m×k`, `b` is `k×n`, and `out` has room for
/// `m·n` values, all of which are overwritten. Runs the same tiled kernel as
/// [`crate::linalg::matmul`], so results are bit-identical to the tape path.
///
/// # Panics
/// Panics when a buffer is shorter than its stated shape requires.
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    matmul_seeded_into(SimdLevel::detect(), a, k, m, k, b, n, None, out);
}

/// The general form of [`matmul_into`]: `out = seed + a · b`, where row `i`
/// of `a` is `a[i·lda .. i·lda + k]` and `seed` is one length-`n` row that
/// every output row starts from (zero when `None`).
///
/// Each output element is `((seed + a₀b₀) + a₁b₁) + …` in ascending inner
/// index, so seeding with the product over the first `s` columns and running
/// over the remaining `k − s` (`&a[s..]`, `lda` unchanged, `&b[s·n..]`) is
/// bit-identical to the one-shot product — how a caller shares a partial
/// product between rows whose leading columns agree. `level` pins the
/// instruction set for tests and benchmarks, as in [`crate::simd`]: every
/// level gives the same bits, and an unsupported one degrades to scalar.
///
/// # Panics
/// Panics when `lda < k` or a buffer is shorter than its shape requires.
#[allow(clippy::too_many_arguments)]
pub fn matmul_seeded_into(
    level: SimdLevel,
    a: &[f32],
    lda: usize,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    seed: Option<&[f32]>,
    out: &mut [f32],
) {
    assert!(
        lda >= k,
        "matmul_seeded_into: lhs stride shorter than a row"
    );
    assert!(
        m == 0 || a.len() >= (m - 1) * lda + k,
        "matmul_seeded_into: lhs buffer too short"
    );
    assert!(b.len() >= k * n, "matmul_seeded_into: rhs buffer too short");
    assert!(
        seed.is_none_or(|s| s.len() >= n),
        "matmul_seeded_into: seed row too short"
    );
    assert!(
        out.len() >= m * n,
        "matmul_seeded_into: output buffer too short"
    );
    let g = linalg::GemmNn {
        a,
        lda,
        k,
        b,
        n,
        seed,
    };
    linalg::gemm_nn_stripe(level, g, 0, m, out);
}

/// `out = aᵀ` where `a` is `r×c` row-major; `out` receives `c×r`.
pub fn transpose_into(a: &[f32], r: usize, c: usize, out: &mut [f32]) {
    assert!(a.len() >= r * c, "transpose_into: input buffer too short");
    assert!(
        out.len() >= r * c,
        "transpose_into: output buffer too short"
    );
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = a[i * c + j];
        }
    }
}

/// Apply `f` to every element, processing 8-lane chunks through fixed-size
/// arrays so the compiler vectorizes the body. Elementwise ops touch each
/// element independently, so widening cannot change rounding.
#[inline]
fn for_each_wide(xs: &mut [f32], f: impl Fn(f32) -> f32) {
    let mut chunks = xs.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let arr: &mut [f32; 8] = chunk.try_into().unwrap();
        for x in arr.iter_mut() {
            *x = f(*x);
        }
    }
    for x in chunks.into_remainder() {
        *x = f(*x);
    }
}

/// Elementwise `x = max(x, 0)` — mirrors the tape's `relu`.
pub fn relu_in_place(xs: &mut [f32]) {
    for_each_wide(xs, |x| x.max(0.0));
}

/// Elementwise `x *= s` — mirrors the tape's `scale`.
pub fn scale_in_place(xs: &mut [f32], s: f32) {
    for_each_wide(xs, |x| x * s);
}

/// Add `bias` (length `cols`) to every row of the `rows×cols` view of `xs`
/// — mirrors the tape's broadcasting `add_row`.
pub fn add_row_in_place(xs: &mut [f32], cols: usize, bias: &[f32]) {
    assert_eq!(bias.len(), cols, "add_row_in_place: bias length mismatch");
    for row in xs.chunks_mut(cols) {
        let mut rc = row.chunks_exact_mut(8);
        let mut bc = bias.chunks_exact(8);
        for (rs, bs) in (&mut rc).zip(&mut bc) {
            let ra: &mut [f32; 8] = rs.try_into().unwrap();
            let ba: &[f32; 8] = bs.try_into().unwrap();
            for l in 0..8 {
                ra[l] += ba[l];
            }
        }
        for (x, &b) in rc.into_remainder().iter_mut().zip(bc.remainder()) {
            *x += b;
        }
    }
}

/// Row-wise softmax over the `rows×cols` view of `xs`, in place — mirrors
/// the tape's `softmax_rows` (same stabilized single-row kernel).
pub fn softmax_rows_in_place(xs: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in xs.chunks_mut(cols) {
        linalg::softmax_in_place(row);
    }
}

/// Mean over the rows of the `rows×cols` view of `a`, written to `out`
/// (length `cols`). Mirrors the tape's `mean_rows` exactly: accumulate row
/// sums in row order, then divide by `rows.max(1)`.
pub fn mean_rows_into(a: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    assert!(a.len() >= rows * cols, "mean_rows_into: input too short");
    assert!(out.len() >= cols, "mean_rows_into: output too short");
    out[..cols].fill(0.0);
    for i in 0..rows {
        // axpy with α = 1 adds each element exactly (1·v == v bitwise), so
        // the widened accumulation matches the tape's scalar row sum.
        linalg::axpy(1.0, &a[i * cols..(i + 1) * cols], &mut out[..cols]);
    }
    let r = rows.max(1) as f32;
    for_each_wide(&mut out[..cols], |o| o / r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        Tensor::matrix(rows, cols, &data)
    }

    #[test]
    fn workspace_reuses_allocations() {
        let mut ws = Workspace::new();
        let a = ws.take(64);
        let ptr = a.as_ptr();
        ws.give(a);
        let b = ws.take(32);
        assert_eq!(b.as_ptr(), ptr, "pooled buffer must be reused");
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer must be zeroed");
        assert_eq!(b.len(), 32);
        ws.give(b);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn matmul_into_is_bit_identical_to_tape_matmul() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (5, 9, 17), (13, 21, 33)] {
            let a = pseudo(m, k, (m + n) as u64);
            let b = pseudo(k, n, (k + m) as u64);
            let reference = linalg::matmul(&a, &b);
            let mut out = vec![f32::NAN; m * n];
            matmul_into(a.as_slice(), m, k, b.as_slice(), n, &mut out);
            assert_eq!(out.as_slice(), reference.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_into_overwrites_stale_contents() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let mut out = [999.0f32];
        matmul_into(&a, 1, 2, &b, 1, &mut out);
        assert_eq!(out, [11.0]);
    }

    #[test]
    fn transpose_into_matches_tape_transpose() {
        let a = pseudo(4, 7, 11);
        let reference = linalg::transpose(&a);
        let mut out = vec![0.0f32; 28];
        transpose_into(a.as_slice(), 4, 7, &mut out);
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn elementwise_kernels_match_tape_semantics() {
        let mut xs = [-1.5f32, 0.0, 2.0];
        relu_in_place(&mut xs);
        assert_eq!(xs, [0.0, 0.0, 2.0]);
        scale_in_place(&mut xs, 0.5);
        assert_eq!(xs, [0.0, 0.0, 1.0]);
        let mut m = [1.0f32, 2.0, 3.0, 4.0];
        add_row_in_place(&mut m, 2, &[10.0, 20.0]);
        assert_eq!(m, [11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn softmax_rows_in_place_matches_tape_softmax() {
        let a = pseudo(3, 5, 13);
        let reference = linalg::softmax_rows(&a);
        let mut out = a.as_slice().to_vec();
        softmax_rows_in_place(&mut out, 5);
        assert_eq!(out.as_slice(), reference.as_slice());
    }

    #[test]
    fn mean_rows_into_matches_tape_mean_rows() {
        let a = pseudo(6, 4, 17);
        let reference = linalg::mean_rows(&a);
        let mut out = vec![0.0f32; 4];
        mean_rows_into(a.as_slice(), 6, 4, &mut out);
        assert_eq!(out.as_slice(), reference.as_slice());
        // Zero rows: defined (all zeros), mirroring rows.max(1).
        mean_rows_into(&[], 0, 4, &mut out);
        assert_eq!(out, [0.0; 4]);
    }
}
