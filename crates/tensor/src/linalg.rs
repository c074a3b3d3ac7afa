//! Pure linear-algebra kernels shared by the forward and backward passes.
//!
//! Kernels take matrix *views* (`rows/cols` of [`Tensor`]), so vectors are
//! treated as `1×n` rows throughout.
//!
//! The matmul family is register-tiled: the inner micro-kernel accumulates
//! an `MR×NR` output tile in stack arrays that the compiler keeps in vector
//! registers, streaming one row of `b` per `k` step. `a · b` walks ragged
//! edges with narrower tiles of the same kind and runs a second, AVX2
//! compilation of the same body where the host has it. Above
//! [`PAR_MIN_FLOPS`] multiply-adds the output rows are partitioned across
//! threads. None of this is visible in the result: every output element is
//! produced by exactly one thread as a sequential sum in ascending inner
//! index, one multiply and one add per term, so tile shape, instruction set
//! and thread count all give the same bits.
//!
//! Fused passes ([`softmax_rows`], [`sigmoid`], [`softmax_rows_backward`])
//! compute their result in a single sweep over one output buffer instead of
//! chaining elementwise ops through intermediate tensors.

use crate::shape::Shape;
use crate::simd::SimdLevel;
use crate::tensor::Tensor;

/// Output-tile height of the register micro-kernel.
const MR: usize = 4;
/// Output-tile width of the register micro-kernel (two 8-lane vectors).
const NR: usize = 16;

/// Minimum multiply-add count (`m·n·k`) before a matmul is row-partitioned
/// across threads. Below this the spawn/join overhead dominates; the model
/// sizes of this reproduction (dims ≤ a few hundred, groups ≤ a few dozen
/// candidates) stay under it, so threading only engages for genuinely large
/// products.
const PAR_MIN_FLOPS: usize = 1 << 21;

fn par_threads(m: usize, n: usize, k: usize) -> usize {
    if m.saturating_mul(n).saturating_mul(k) < PAR_MIN_FLOPS {
        return 1;
    }
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    // At least MR rows per stripe, or the stripes are all edge cases.
    cores.min(m / MR).max(1)
}

/// Run `kernel` over row stripes `[lo, hi)` of the `m`-row output, in
/// parallel when the problem is large enough. The kernel must write only
/// its own stripe of `out`.
fn row_partitioned(
    m: usize,
    n: usize,
    threads: usize,
    out: &mut [f32],
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    if threads <= 1 {
        kernel(0, m, out);
        return;
    }
    let rows_per = m.div_ceil(threads);
    // The scope joins every stripe and re-raises a worker's panic.
    std::thread::scope(|scope| {
        for (i, stripe) in out.chunks_mut(rows_per * n).enumerate() {
            let lo = i * rows_per;
            let hi = (lo + stripe.len() / n).min(m);
            scope.spawn(move || kernel(lo, hi, stripe));
        }
    });
}

/// `y += alpha · x`, accumulated in 8-lane chunks so the compiler can keep
/// the edge tiles of [`gemm_tn_stripe`] and the row sums of
/// [`crate::infer::mean_rows_into`] vectorized. Each output element still
/// receives exactly one multiply-add per call, so widening does not change
/// rounding — the result is bit-identical to the scalar loop.
pub(crate) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact_mut(8);
    for (ys, xs) in (&mut yc).zip(&mut xc) {
        let ya: &mut [f32; 8] = ys.try_into().unwrap();
        let xa: &[f32; 8] = xs.try_into().unwrap();
        for l in 0..8 {
            ya[l] += alpha * xa[l];
        }
    }
    for (o, &v) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o += alpha * v;
    }
}

/// The read-only operands of `seed + a · b`: `a`'s rows are `k` wide and
/// `lda` floats apart (so a product can run over a column range of a wider
/// matrix without copying it out), `b` is `k×n`, and `seed`, when given, is
/// one length-`n` row every output row's accumulators start from instead of
/// zero — the partial product of leading columns all rows share.
#[derive(Clone, Copy)]
pub(crate) struct GemmNn<'a> {
    pub(crate) a: &'a [f32],
    pub(crate) lda: usize,
    pub(crate) k: usize,
    pub(crate) b: &'a [f32],
    pub(crate) n: usize,
    pub(crate) seed: Option<&'a [f32]>,
}

/// One `R×C` register tile of rows `i0..i0+R`, columns `j0..j0+C`:
/// `out[r][c] = seed[c] + Σ_p a[r][p]·b[p][c]`, the sum taken in ascending
/// `p` with a separate multiply and add per term. `out` starts at row `i0`.
/// The accumulators live in a stack array the compiler keeps in vector
/// registers and are stored exactly once, so nothing is read back from
/// `out`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(g: GemmNn<'_>, i0: usize, j0: usize, out: &mut [f32]) {
    let n = g.n;
    let rows: [&[f32]; R] = std::array::from_fn(|r| &g.a[(i0 + r) * g.lda..][..g.k]);
    let first: [f32; C] = match g.seed {
        Some(s) => s[j0..j0 + C].try_into().unwrap(),
        None => [0.0; C],
    };
    let mut acc = [first; R];
    for (p, brow) in g.b.chunks_exact(n).take(g.k).enumerate() {
        let brow: &[f32; C] = brow[j0..j0 + C].try_into().unwrap();
        for r in 0..R {
            let av = rows[r][p];
            for c in 0..C {
                acc[r][c] += av * brow[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + C].copy_from_slice(acc_row);
    }
}

/// All column tiles of one `R`-row block: [`NR`]-wide tiles while they fit,
/// then one each of 8, 4, 2 and 1 columns for the remainder.
#[inline(always)]
fn row_block<const R: usize>(g: GemmNn<'_>, i0: usize, out: &mut [f32]) {
    let mut j0 = 0;
    while g.n - j0 >= NR {
        tile::<R, NR>(g, i0, j0, out);
        j0 += NR;
    }
    if g.n - j0 >= 8 {
        tile::<R, 8>(g, i0, j0, out);
        j0 += 8;
    }
    if g.n - j0 >= 4 {
        tile::<R, 4>(g, i0, j0, out);
        j0 += 4;
    }
    if g.n - j0 >= 2 {
        tile::<R, 2>(g, i0, j0, out);
        j0 += 2;
    }
    if g.n - j0 >= 1 {
        tile::<R, 1>(g, i0, j0, out);
    }
}

/// The stripe walk behind [`gemm_nn_stripe`]: [`MR`]-row blocks while they
/// fit, then one each of 2 and 1 rows. `#[inline(always)]` so that each
/// caller compiles its own copy under its own target features.
#[inline(always)]
fn gemm_nn_body(g: GemmNn<'_>, lo: usize, hi: usize, out: &mut [f32]) {
    let mut i0 = lo;
    while hi - i0 >= MR {
        row_block::<MR>(g, i0, &mut out[(i0 - lo) * g.n..]);
        i0 += MR;
    }
    if hi - i0 >= 2 {
        row_block::<2>(g, i0, &mut out[(i0 - lo) * g.n..]);
        i0 += 2;
    }
    if hi - i0 >= 1 {
        row_block::<1>(g, i0, &mut out[(i0 - lo) * g.n..]);
    }
}

/// [`gemm_nn_body`] compiled with 256-bit registers available: an 8-column
/// accumulator row is one `ymm` instead of two `xmm`, so the [`MR`]`×`[`NR`]
/// tile fits the register file. `fma` is deliberately *not* enabled — the
/// multiply and the add stay two roundings, which is what makes this copy
/// bit-identical to the portable one.
///
/// # Safety
/// Caller guarantees AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nn_avx2(g: GemmNn<'_>, lo: usize, hi: usize, out: &mut [f32]) {
    gemm_nn_body(g, lo, hi, out)
}

/// Tiled `out[lo..hi, :] = seed + a[lo..hi, :] · b`; `out` holds only the
/// stripe's rows.
///
/// Every output element is `((seed + a₀b₀) + a₁b₁) + …` in ascending `p`,
/// whatever tile it falls in and whichever `level` runs, so results are
/// bit-identical across shapes, stripes and instruction sets. Every element
/// of the stripe is stored from registers; prior contents of `out` are never
/// read. `pub(crate)` so the tape-free inference kernels in [`crate::infer`]
/// share the tape matmul's kernel (and therefore its rounding).
pub(crate) fn gemm_nn_stripe(
    level: SimdLevel,
    g: GemmNn<'_>,
    lo: usize,
    hi: usize,
    out: &mut [f32],
) {
    match level.effective() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective()` returns Avx2 only after
        // `is_x86_feature_detected!("avx2")`; the body itself is safe Rust.
        SimdLevel::Avx2 => unsafe { gemm_nn_avx2(g, lo, hi, out) },
        _ => gemm_nn_body(g, lo, hi, out),
    }
}

/// Tiled stripe of `aᵀ · b` where `a` is `k×m` and `b` is `k×n`.
#[allow(clippy::too_many_arguments)]
fn gemm_tn_stripe(
    lo: usize,
    hi: usize,
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let mut i0 = lo;
    while i0 < hi {
        let ir = (hi - i0).min(MR);
        let mut j0 = 0;
        while j0 < n {
            let jr = (n - j0).min(NR);
            if ir == MR && jr == NR {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let arow: &[f32; MR] = a[p * m + i0..p * m + i0 + MR].try_into().unwrap();
                    let brow: &[f32; NR] = b[p * n + j0..p * n + j0 + NR].try_into().unwrap();
                    for r in 0..MR {
                        let av = arow[r];
                        for c in 0..NR {
                            acc[r][c] += av * brow[c];
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    let o = (i0 + r - lo) * n + j0;
                    out[o..o + NR].copy_from_slice(acc_row);
                }
            } else {
                for p in 0..k {
                    let brow = &b[p * n + j0..p * n + j0 + jr];
                    for i in i0..i0 + ir {
                        let av = a[p * m + i];
                        if av == 0.0 {
                            continue;
                        }
                        axpy(
                            av,
                            brow,
                            &mut out[(i - lo) * n + j0..(i - lo) * n + j0 + jr],
                        );
                    }
                }
            }
            j0 += NR;
        }
        i0 += MR;
    }
}

/// Stripe of `a · bᵀ` where `a` is `m×k` and `b` is `n×k`: each output cell
/// is a dot product of two contiguous rows.
fn gemm_nt_stripe(lo: usize, hi: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in lo..hi {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[(i - lo) * n..(i - lo + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = dot(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Matrix product `a · b` on the matrix views of the operands.
///
/// # Panics
/// Panics when the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(
        k,
        k2,
        "matmul inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let threads = par_threads(m, n, k);
    let level = SimdLevel::detect();
    let g = GemmNn {
        a: ad,
        lda: k,
        k,
        b: bd,
        n,
        seed: None,
    };
    row_partitioned(m, n, threads, &mut out, &|lo, hi, stripe| {
        gemm_nn_stripe(level, g, lo, hi, stripe)
    });
    Tensor::new(Shape::Matrix(m, n), out)
}

/// Matrix product `aᵀ · b`, avoiding an explicit transpose of `a`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(
        k,
        k2,
        "matmul_tn outer dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let threads = par_threads(m, n, k);
    row_partitioned(m, n, threads, &mut out, &|lo, hi, stripe| {
        gemm_tn_stripe(lo, hi, k, m, n, ad, bd, stripe)
    });
    Tensor::new(Shape::Matrix(m, n), out)
}

/// Matrix product `a · bᵀ`, avoiding an explicit transpose of `b`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, k2) = (b.rows(), b.cols());
    assert_eq!(
        k,
        k2,
        "matmul_nt inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let threads = par_threads(m, n, k);
    row_partitioned(m, n, threads, &mut out, &|lo, hi, stripe| {
        gemm_nt_stripe(lo, hi, k, n, ad, bd, stripe)
    });
    Tensor::new(Shape::Matrix(m, n), out)
}

/// Reference ikj matmul with no tiling — the correctness oracle for the
/// tiled kernels and the "before" side of the kernel benchmarks.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(
        k,
        k2,
        "matmul inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    let ad = a.as_slice();
    let bd = b.as_slice();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Tensor::new(Shape::Matrix(m, n), out)
}

/// Transpose of the matrix view.
pub fn transpose(a: &Tensor) -> Tensor {
    let (r, c) = (a.rows(), a.cols());
    let mut out = vec![0.0f32; r * c];
    let ad = a.as_slice();
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = ad[i * c + j];
        }
    }
    Tensor::new(Shape::Matrix(c, r), out)
}

/// Dot product of two equal-length slices, accumulated in eight independent
/// lanes so the compiler can vectorize the reduction (a single serial `sum`
/// cannot be reassociated under IEEE semantics).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let whole = a.len() / 8 * 8;
    let mut i = 0;
    while i < whole {
        let av: &[f32; 8] = a[i..i + 8].try_into().unwrap();
        let bv: &[f32; 8] = b[i..i + 8].try_into().unwrap();
        for l in 0..8 {
            lanes[l] += av[l] * bv[l];
        }
        i += 8;
    }
    let mut s = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for j in whole..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// Row-wise softmax of the matrix view (numerically stabilized by the
/// row max). Single pass over a single output allocation.
pub fn softmax_rows(a: &Tensor) -> Tensor {
    let (r, c) = (a.rows(), a.cols());
    let mut out = a.as_slice().to_vec();
    for i in 0..r {
        softmax_in_place(&mut out[i * c..(i + 1) * c]);
    }
    Tensor::new(a.shape(), out)
}

/// Numerically-stable softmax of a slice, in place.
pub fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    // All-(-inf) rows would yield sum = 0; keep the output defined.
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    } else {
        let u = 1.0 / xs.len() as f32;
        xs.iter_mut().for_each(|x| *x = u);
    }
}

/// Fused adjoint of [`softmax_rows`]: given the softmax output `y` and the
/// output gradient `g`, computes `dx[i,:] = y[i,:] ∘ (g[i,:] − g[i,:]·y[i,:])`
/// in one sweep per row.
pub fn softmax_rows_backward(y: &Tensor, g: &Tensor) -> Tensor {
    debug_assert_eq!(y.shape(), g.shape());
    let (r, c) = (y.rows(), y.cols());
    let mut out = vec![0.0f32; r * c];
    for row in 0..r {
        let yr = &y.as_slice()[row * c..(row + 1) * c];
        let gr = &g.as_slice()[row * c..(row + 1) * c];
        let dotv = dot(gr, yr);
        for ((o, &yi), &gi) in out[row * c..(row + 1) * c].iter_mut().zip(yr).zip(gr) {
            *o = yi * (gi - dotv);
        }
    }
    Tensor::new(y.shape(), out)
}

/// Sigmoid computed without overflow for large |x|.
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Fused elementwise logistic sigmoid: one sweep, one output allocation.
pub fn sigmoid(a: &Tensor) -> Tensor {
    let mut out = a.as_slice().to_vec();
    sigmoid_in_place(&mut out);
    Tensor::new(a.shape(), out)
}

/// Numerically-stable sigmoid of a slice, in place.
pub fn sigmoid_in_place(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = stable_sigmoid(*x);
    }
}

/// Sum over rows of the matrix view, producing a `1×cols` row vector tensor.
pub fn sum_rows(a: &Tensor) -> Tensor {
    let (r, c) = (a.rows(), a.cols());
    let mut out = vec![0.0f32; c];
    for i in 0..r {
        for (o, &v) in out.iter_mut().zip(a.row(i)) {
            *o += v;
        }
    }
    Tensor::new(Shape::Vector(c), out)
}

/// Mean over rows of the matrix view, producing a length-`cols` vector.
pub fn mean_rows(a: &Tensor) -> Tensor {
    let r = a.rows().max(1) as f32;
    sum_rows(a).map(|v| v / r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2x3() -> Tensor {
        Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    fn t3x2() -> Tensor {
        Tensor::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]])
    }

    /// Deterministic pseudo-random matrix for kernel cross-checks.
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
        Tensor::new(Shape::Matrix(rows, cols), data)
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn matmul_known_values() {
        let c = matmul(&t2x3(), &t3x2());
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn tiled_matmul_matches_naive_at_awkward_sizes() {
        // Cover full tiles, row edges, column edges, and tiny shapes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 17),
            (13, 21, 33),
            (64, 17, 48),
        ] {
            let a = pseudo(m, k, (m * 31 + n) as u64);
            let b = pseudo(k, n, (k * 17 + m) as u64);
            assert!(
                close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-5),
                "tiled != naive at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = t3x2(); // aᵀ is 2x3
        let b = t3x2();
        let via_tn = matmul_tn(&a, &b);
        let explicit = matmul(&transpose(&a), &b);
        assert_eq!(via_tn, explicit);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = t2x3();
        let b = t2x3(); // bᵀ is 3x2
        let via_nt = matmul_nt(&a, &b);
        let explicit = matmul(&a, &transpose(&b));
        assert_eq!(via_nt, explicit);
    }

    #[test]
    fn fused_transpose_kernels_match_at_awkward_sizes() {
        for &(m, k, n) in &[(1, 3, 1), (5, 9, 17), (19, 6, 23)] {
            let a_t = pseudo(k, m, 3);
            let b = pseudo(k, n, 4);
            assert!(close(
                &matmul_tn(&a_t, &b),
                &matmul(&transpose(&a_t), &b),
                1e-5
            ));
            let a = pseudo(m, k, 5);
            let b_t = pseudo(n, k, 6);
            assert!(close(
                &matmul_nt(&a, &b_t),
                &matmul(&a, &transpose(&b_t)),
                1e-5
            ));
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        matmul(&t2x3(), &t2x3());
    }

    #[test]
    fn vector_is_row_in_matmul() {
        let v = Tensor::vector(&[1.0, 0.0, -1.0]);
        let c = matmul(&v, &t3x2());
        assert_eq!(c.as_slice(), &[-4.0, -4.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = t2x3();
        assert_eq!(transpose(&transpose(&a)), a);
        assert_eq!(transpose(&a).at(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let s = softmax_rows(&Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]));
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.at(0, 2) > s.at(0, 1) && s.at(0, 1) > s.at(0, 0));
        assert!((s.at(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::vector(&[1.0, 2.0, 3.0]);
        let b = Tensor::vector(&[1001.0, 1002.0, 1003.0]);
        let sa = softmax_rows(&a);
        let sb = softmax_rows(&b);
        for (x, y) in sa.as_slice().iter().zip(sb.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_preserves_input_shape() {
        let v = softmax_rows(&Tensor::vector(&[1.0, 2.0]));
        assert_eq!(v.shape(), Shape::Vector(2));
        let m = softmax_rows(&Tensor::from_rows(&[&[1.0], &[2.0]]));
        assert_eq!(m.shape(), Shape::Matrix(2, 1));
    }

    #[test]
    fn softmax_handles_degenerate_rows() {
        let mut xs = [f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax_in_place(&mut xs);
        assert_eq!(xs, [0.5, 0.5]);
        softmax_in_place(&mut []);
    }

    #[test]
    fn softmax_backward_matches_formula() {
        let y = softmax_rows(&pseudo(3, 5, 9));
        let g = pseudo(3, 5, 10);
        let dx = softmax_rows_backward(&y, &g);
        for row in 0..3 {
            let yr = y.row(row);
            let gr = g.row(row);
            let d: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
            for j in 0..5 {
                let expected = yr[j] * (gr[j] - d);
                assert!((dx.at(row, j) - expected).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn fused_sigmoid_is_stable_and_correct() {
        let t = Tensor::vector(&[0.0, 100.0, -100.0, 1.5]);
        let s = sigmoid(&t);
        assert!((s.as_slice()[0] - 0.5).abs() < 1e-7);
        assert!(s.as_slice()[1] > 0.999_999);
        assert!(s.as_slice()[2] < 1e-6 && s.as_slice()[2] >= 0.0);
        assert!((s.as_slice()[3] - stable_sigmoid(1.5)).abs() < 1e-7);
        assert_eq!(s.shape(), t.shape());
    }

    #[test]
    fn row_reductions() {
        let a = t2x3();
        assert_eq!(sum_rows(&a).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(mean_rows(&a).as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn axpy_matches_scalar_loop_bitwise() {
        // Lengths around the 8-lane boundary: remainder-only, exact, mixed.
        for len in [0, 1, 7, 8, 9, 16, 23] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 - 3.5) * 0.37).collect();
            let mut y: Vec<f32> = (0..len).map(|i| (i as f32) * 0.11 - 1.0).collect();
            let mut reference = y.clone();
            let alpha = 1.7f32;
            for (o, &v) in reference.iter_mut().zip(&x) {
                *o += alpha * v;
            }
            axpy(alpha, &x, &mut y);
            assert_eq!(y, reference, "len {len}");
        }
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // Length > 8 exercises the vector lanes + remainder.
        let a: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..11).map(|i| (i % 3) as f32).collect();
        let expected: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), expected);
    }
}
