//! The GEMM kernel's numerical contract: every output element is
//! `((seed + a₀b₀) + a₁b₁) + …` in ascending inner index with a separate
//! multiply and add per term — whatever register tile the element falls in,
//! whichever [`SimdLevel`] runs, and wherever a caller splits the sum into a
//! seed and a continuation.
//!
//! The oracle is a plain triple loop. Everything is compared by
//! `f32::to_bits`, for **every** level the host can execute, so an AVX2 CI
//! host still exercises the portable body (the way `retrieval_equivalence`
//! pins the retrieval kernels).

use od_tensor::infer::matmul_seeded_into;
use od_tensor::SimdLevel;
use proptest::prelude::*;

/// Deterministic values in `[-0.5, 0.5)`; about one in eight is an exact
/// zero, alternating `0.0` and `-0.0`, the operands a "skip zero terms"
/// shortcut or a sign-of-zero slip would get wrong.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match (state >> 20) % 8 {
                0 if i % 2 == 0 => 0.0,
                0 => -0.0,
                _ => ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5,
            }
        })
        .collect()
}

/// `out[i][j] = seed[j] + Σ_p a[i·lda + p]·b[p·n + j]`, ascending `p`.
fn reference(
    a: &[f32],
    lda: usize,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    seed: Option<&[f32]>,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = seed.map_or(0.0, |s| s[j]);
            for p in 0..k {
                acc += a[i * lda + p] * b[p * n + j];
            }
            out.push(acc);
        }
    }
    out
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The kernel at `level`, over stale output contents it must overwrite.
#[allow(clippy::too_many_arguments)]
fn kernel(
    level: SimdLevel,
    a: &[f32],
    lda: usize,
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    seed: Option<&[f32]>,
) -> Vec<f32> {
    let mut out = vec![f32::NAN; m * n];
    matmul_seeded_into(level, a, lda, m, k, b, n, seed, &mut out);
    out
}

fn assert_matches_reference(m: usize, k: usize, n: usize) {
    let a = fill(m * k, (m * 1_000_003 + k * 1_009 + n) as u64);
    let b = fill(k * n, (n * 1_000_003 + k * 1_009 + m) as u64);
    let want = bits(&reference(&a, k, m, k, &b, n, None));
    for level in SimdLevel::available() {
        let got = kernel(level, &a, k, m, k, &b, n, None);
        assert_eq!(bits(&got), want, "{m}x{k}x{n} at {level}");
    }
}

#[test]
fn every_ragged_shape_matches_the_ascending_reference_at_every_level() {
    // m crosses the 4/2/1 row blocks twice over, n every mix of
    // 16/8/4/2/1-column tiles, k the empty product.
    for m in 1..=9 {
        for k in 0..=40 {
            for n in 1..=35 {
                assert_matches_reference(m, k, n);
            }
        }
    }
}

#[test]
fn served_shapes_match_the_ascending_reference_at_every_level() {
    // MMoE panel, tower output, a PEC head projection, the prefix GEMV.
    for (m, k, n) in [(64, 144, 102), (64, 32, 1), (12, 16, 4), (1, 48, 102)] {
        assert_matches_reference(m, k, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn seeded_continuation_equals_the_one_shot_product(
        (m, k, n, cut, data) in (1usize..=9, 0usize..=40, 1usize..=35, 0usize..=40, 0u64..u64::MAX)
    ) {
        let s = cut.min(k);
        // Every row shares row 0's first `s` columns, as the rows of one
        // request share their candidate-invariant prefix.
        let mut a = fill(m * k, data);
        for i in 1..m {
            a.copy_within(..s, i * k);
        }
        let b = fill(k * n, data ^ 0xB5);
        let want = bits(&reference(&a, k, m, k, &b, n, None));
        for level in SimdLevel::available() {
            let head = kernel(level, &a[..s], s, 1, s, &b[..s * n], n, None);
            // Columns s..k of the same rows: offset start, same stride.
            let tail = kernel(level, &a[s..], k, m, k - s, &b[s * n..], n, Some(&head));
            prop_assert_eq!(bits(&tail), want.clone(), "{}x{}x{} cut at {} ({})", m, k, n, s, level);
        }
    }
}
