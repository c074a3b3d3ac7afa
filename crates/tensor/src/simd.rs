//! Runtime-dispatched SIMD kernel for the retrieval tier.
//!
//! The retrieval stage (crate `od-retrieval`) reduces "best k OD pairs out
//! of ~40k" to top-k of `a[o] + b[d]`, where `a` and `b` are per-city
//! affinities from one dense primitive over the frozen artifact's
//! embedding tables: [`table_scores`], a scaled GEMV — one dot product per
//! table row against a query vector.
//!
//! It exists at three [`SimdLevel`]s — scalar, AVX2 (x86_64,
//! runtime-detected via `is_x86_feature_detected!`), and NEON (aarch64,
//! baseline) — and all three are **bit-identical** by construction, the
//! same contract the rest of the repo's kernels keep (see
//! `linalg::axpy`): the scalar path accumulates dot products into eight
//! strided partial sums and folds them with a fixed reduction tree, which
//! is exactly the lane arithmetic of one 256-bit AVX2 register (or an
//! aarch64 NEON register pair). The scalar level therefore *is* the
//! oracle: `od-retrieval`'s proptests assert the vector levels reproduce
//! its top-k result sets exactly, so index selection can never drift
//! across deployment hardware.
//!
//! Dispatch is explicit — callers pass the [`SimdLevel`] — so benchmarks
//! and tests can pin a level; [`SimdLevel::detect`] picks the best level
//! the host supports, and [`table_scores`] downgrades an unsupported
//! request to scalar instead of executing illegal instructions.

use std::fmt;

/// One instruction-set tier of the retrieval kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable Rust with 8-lane strided accumulation — the bit-exact
    /// oracle every other level must reproduce.
    Scalar,
    /// 256-bit AVX2 on x86_64 (runtime-detected).
    Avx2,
    /// 128-bit NEON register pairs on aarch64 (architecture baseline).
    Neon,
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl SimdLevel {
    /// Stable lowercase name (metric label / bench report key).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// The best level this host can execute. The feature probe is cached
    /// by the standard library, so calling this per request is fine.
    pub fn detect() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            return SimdLevel::Neon;
        }
        #[allow(unreachable_code)]
        SimdLevel::Scalar
    }

    /// Can this host execute this level?
    pub fn supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every level the host can execute (scalar first) — what equivalence
    /// tests and the `exact-vs-scalar` benchmark iterate over.
    pub fn available() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon]
            .into_iter()
            .filter(|l| l.supported())
            .collect()
    }

    /// The level actually dispatched for a request: `self` when the host
    /// supports it, scalar otherwise. This is what makes the public
    /// kernels safe — an unsupported level degrades, it never faults.
    pub(crate) fn effective(self) -> SimdLevel {
        if self.supported() {
            self
        } else {
            SimdLevel::Scalar
        }
    }
}

/// The fixed reduction tree shared by every level: fold eight partial
/// sums pairwise. AVX2/NEON store their accumulator lanes and run this
/// exact tree, so the result is bit-identical to the scalar path.
#[inline]
fn reduce8(acc: &[f32; 8]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Bit-exact dot product: 8 strided partial accumulators over the common
/// prefix, [`reduce8`], then the tail elements folded in sequentially.
/// This is the reference semantics of all [`table_scores`] levels.
#[inline]
pub fn dot8(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let n8 = x.len() / 8 * 8;
    let mut acc = [0.0f32; 8];
    for (cx, cy) in x[..n8].chunks_exact(8).zip(y[..n8].chunks_exact(8)) {
        for j in 0..8 {
            acc[j] += cx[j] * cy[j];
        }
    }
    let mut s = reduce8(&acc);
    for (a, b) in x[n8..].iter().zip(&y[n8..]) {
        s += a * b;
    }
    s
}

/// `out[r] = scale * dot(query, table[r])` for every row of a row-major
/// `rows×dim` table. `scale` folds the frozen θ mixture weight into the
/// per-city affinities so the pair scan is a plain add.
pub fn table_scores(
    level: SimdLevel,
    query: &[f32],
    table: &[f32],
    dim: usize,
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(query.len(), dim, "query/dim mismatch");
    assert_eq!(table.len(), out.len() * dim, "table geometry mismatch");
    match level.effective() {
        SimdLevel::Scalar => {
            for (r, o) in out.iter_mut().enumerate() {
                *o = scale * dot8(query, &table[r * dim..(r + 1) * dim]);
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `effective()` returned Avx2 only after
        // `is_x86_feature_detected!("avx2")`, and the slice geometry was
        // asserted above.
        SimdLevel::Avx2 => unsafe { avx2::table_scores(query, table, dim, scale, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64; geometry asserted above.
        SimdLevel::Neon => unsafe { neon::table_scores(query, table, dim, scale, out) },
        #[allow(unreachable_patterns)]
        _ => unreachable!("effective() only returns host-supported levels"),
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 kernels. Eight f32 lanes per register — the same partial-sum
    //! layout as the scalar oracle's `acc[0..8]`, reduced by the same
    //! [`reduce8`](super::reduce8) tree, so results are bit-identical.

    use super::reduce8;
    use std::arch::x86_64::*;

    /// One row's dot product with the 8-lane accumulator scheme.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available and `x`/`y` have equal length.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dot_row(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let n8 = n / 8 * 8;
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < n8 {
            // SAFETY: i + 8 <= n8 <= n, so both 8-wide unaligned loads
            // stay inside the slices.
            let vx = _mm256_loadu_ps(px.add(i));
            let vy = _mm256_loadu_ps(py.add(i));
            // mul then add (no FMA): matches the scalar `acc[j] += x * y`
            // two-op rounding exactly.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(vx, vy));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut s = reduce8(&lanes);
        // Tail elements folded sequentially, exactly like the oracle.
        for j in n8..n {
            s += x[j] * y[j];
        }
        s
    }

    /// # Safety
    /// Caller guarantees AVX2 is available, `query.len() == dim`, and
    /// `table.len() == out.len() * dim`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn table_scores(
        query: &[f32],
        table: &[f32],
        dim: usize,
        scale: f32,
        out: &mut [f32],
    ) {
        for (r, o) in out.iter_mut().enumerate() {
            // SAFETY: row r is in range by the table.len() precondition.
            *o = scale * dot_row(query, &table[r * dim..(r + 1) * dim]);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON kernels. Two 128-bit registers form the same eight f32 lanes
    //! as one AVX2 register (lanes 0–3 and 4–7 of the scalar oracle's
    //! accumulator), reduced by the same tree — bit-identical again.

    use super::reduce8;
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller guarantees `x`/`y` have equal length. NEON is the aarch64
    /// baseline.
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn dot_row(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let n8 = n / 8 * 8;
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i < n8 {
            // SAFETY: i + 8 <= n8 <= n keeps all four loads in bounds.
            let x0 = vld1q_f32(px.add(i));
            let x1 = vld1q_f32(px.add(i + 4));
            let y0 = vld1q_f32(py.add(i));
            let y1 = vld1q_f32(py.add(i + 4));
            // mul then add (no fused vfmaq): matches scalar rounding.
            acc0 = vaddq_f32(acc0, vmulq_f32(x0, y0));
            acc1 = vaddq_f32(acc1, vmulq_f32(x1, y1));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        vst1q_f32(lanes.as_mut_ptr(), acc0);
        vst1q_f32(lanes.as_mut_ptr().add(4), acc1);
        let mut s = reduce8(&lanes);
        for j in n8..n {
            s += x[j] * y[j];
        }
        s
    }

    /// # Safety
    /// Caller guarantees `query.len() == dim` and `table.len() ==
    /// out.len() * dim`.
    #[target_feature(enable = "neon")]
    pub unsafe fn table_scores(
        query: &[f32],
        table: &[f32],
        dim: usize,
        scale: f32,
        out: &mut [f32],
    ) {
        for (r, o) in out.iter_mut().enumerate() {
            // SAFETY: row r is in range by the table.len() precondition.
            *o = scale * dot_row(query, &table[r * dim..(r + 1) * dim]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random table (splitmix-style), no RNG dep.
    fn noise(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn detect_is_supported_and_available_starts_scalar() {
        assert!(SimdLevel::detect().supported());
        let levels = SimdLevel::available();
        assert_eq!(levels[0], SimdLevel::Scalar);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert!(levels.contains(&SimdLevel::Avx2));
        }
    }

    #[test]
    fn unsupported_level_degrades_to_scalar() {
        // A level foreign to this host must degrade, not fault: on
        // x86_64 that is Neon, elsewhere Avx2.
        let foreign = if cfg!(target_arch = "x86_64") {
            SimdLevel::Neon
        } else {
            SimdLevel::Avx2
        };
        let q = noise(16, 1);
        let t = noise(16 * 5, 2);
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 5];
        table_scores(foreign, &q, &t, 16, 1.0, &mut a);
        table_scores(SimdLevel::Scalar, &q, &t, 16, 1.0, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn all_levels_match_scalar_bitwise_across_dims() {
        // Dims cover multiple full 8-lane blocks, exactly one, and tails.
        for dim in [1usize, 3, 7, 8, 9, 15, 16, 17, 24, 31, 64] {
            let rows = 37;
            let q = noise(dim, 41 + dim as u64);
            let t = noise(rows * dim, 97 + dim as u64);
            let mut want = vec![0.0f32; rows];
            table_scores(SimdLevel::Scalar, &q, &t, dim, 0.7, &mut want);
            for level in SimdLevel::available() {
                let mut got = vec![0.0f32; rows];
                table_scores(level, &q, &t, dim, 0.7, &mut got);
                assert_eq!(
                    got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    "table_scores({level}) differs at dim {dim}"
                );
            }
        }
    }

    #[test]
    fn dot8_matches_naive_closely() {
        // Not bit-equal to a naive left fold (different association), but
        // must be numerically sane.
        let x = noise(100, 11);
        let y = noise(100, 13);
        let naive: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot8(&x, &y) - naive).abs() < 1e-4);
    }
}
