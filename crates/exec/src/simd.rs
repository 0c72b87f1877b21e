//! Runtime-dispatched AVX2/FMA kernel specializations.
//!
//! [`SimdKernels`] extends [`Scalar`] with per-format vector kernels that
//! return `true` when they ran and `false` when the CPU lacks the
//! required features (or the element type has no vector path), in which
//! case the caller falls back to the portable scalar kernel. Every
//! override re-probes `is_x86_feature_detected!` on entry — the probe is
//! cached by `std`, so the check is a load, and it makes
//! [`crate::SimdLevel::Avx2`] safe to request on any machine.
//!
//! Vector paths exist for the two formats where CPU SIMD pays off
//! directly: CSR (per-row gather + FMA dot products) and ELL (row-block
//! vertical FMA over the column-major planes, which also serves the HYB
//! head). COO/merge streams are carry-dependent and CSR5's per-lane row
//! bookkeeping is branchy, so those stay scalar on the host.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::prep::{CsrExec, EllExec};
use spmv_matrix::Scalar;

/// Row-tile height for the ELL/HYB column-major traversal: the `y` and
/// row windows stay L1-resident while the padded planes stream
/// sequentially one tile-column chunk at a time.
pub const ELL_ROW_TILE: usize = 2048;

/// Scalar element with optional vector kernels.
///
/// Default implementations decline (`false`); `f32`/`f64` override them
/// with AVX2/FMA paths on `x86_64`. The kernels read their operands
/// without bounds checks; [`PreparedMatrix`](crate::PreparedMatrix)
/// views reach them only through checks that establish the `# Safety`
/// preconditions.
pub trait SimdKernels: Scalar {
    /// Vectorized CSR row-sequential kernel (`y[r] = Σ row r`).
    /// Returns `false` when no vector path is available.
    ///
    /// # Safety
    /// - `row_ptr.len() == y.len() + 1`, and `row_ptr` is non-decreasing
    ///   with its last entry at most `col_idx.len()` and `vals.len()`;
    /// - every column index a row covers is below `x.len()` and below
    ///   `i32::MAX` (the gathers take signed 32-bit offsets).
    #[allow(unused_variables)]
    unsafe fn csr_simd(
        row_ptr: &[u32],
        col_idx: &[u32],
        vals: &[Self],
        x: &[Self],
        y: &mut [Self],
    ) -> bool {
        false
    }

    /// Vectorized ELL plane kernel: **accumulates** `y[r] += Σ_k
    /// plane[k][r] · x[col[k][r]]` over pre-zeroed (or partially
    /// accumulated) `y`. Returns `false` when no vector path is
    /// available.
    ///
    /// # Safety
    /// - `col_plane` and `val_plane` hold at least `width * n_rows`
    ///   slots, and `y.len() >= n_rows`;
    /// - every slot's column index is below `x.len()` and below
    ///   `i32::MAX`. That includes padding slots, which hold column 0, so
    ///   `x` must be non-empty when `width > 0`.
    #[allow(unused_variables)]
    unsafe fn ell_simd(
        n_rows: usize,
        width: usize,
        col_plane: &[u32],
        val_plane: &[Self],
        x: &[Self],
        y: &mut [Self],
    ) -> bool {
        false
    }
}

/// Run the vector CSR kernel on a prepared view. Returns `false`, and
/// runs nothing, when the kernel declines or `x`/`y` do not fit the view;
/// the caller then runs the scalar kernel.
pub(crate) fn csr<T: SimdKernels>(v: &CsrExec<'_, T>, x: &[T], y: &mut [T]) -> bool {
    if x.len() < v.n_cols || y.len() != v.n_rows || v.n_cols > i32::MAX as usize {
        return false;
    }
    // SAFETY: views are built only by `PreparedMatrix::build` (their
    // fields are crate-private), which borrows the arrays of a validated
    // `CsrMatrix`: `row_ptr` has `n_rows + 1 == y.len() + 1`
    // non-decreasing entries ending at `col_idx.len() == vals.len()`, and
    // every column index is below `n_cols`, which the check above bounds
    // by `x.len()` and `i32::MAX`.
    unsafe { T::csr_simd(v.row_ptr, v.col_idx, v.vals, x, y) }
}

/// Run the vector ELL kernel on a prepared view (also the HYB head),
/// accumulating into `y`. Declines like [`csr`].
pub(crate) fn ell<T: SimdKernels>(v: &EllExec<'_, T>, x: &[T], y: &mut [T]) -> bool {
    if x.len() < v.n_cols.max(1) || y.len() != v.n_rows || v.n_cols > i32::MAX as usize {
        return false;
    }
    // SAFETY: views are built only by `PreparedMatrix::build`, whose
    // planes hold exactly `width * n_rows` slots, with `n_rows == y.len()`
    // checked above. A stored slot holds a column of the validated source
    // matrix, below `n_cols`; a padding slot holds column 0. The check
    // above bounds both by `x.len()` and `i32::MAX`.
    unsafe { T::ell_simd(v.n_rows, v.width, v.col_plane, v.val_plane, x, y) }
}

#[cfg(target_arch = "x86_64")]
macro_rules! avx2_ready {
    () => {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    };
}

/// The `f64` and `f32` implementations differ only in their kernels.
macro_rules! avx2_kernels {
    ($t:ty, $csr:ident, $ell:ident) => {
        impl SimdKernels for $t {
            unsafe fn csr_simd(
                row_ptr: &[u32],
                col_idx: &[u32],
                vals: &[$t],
                x: &[$t],
                y: &mut [$t],
            ) -> bool {
                #[cfg(target_arch = "x86_64")]
                if avx2_ready!() {
                    // SAFETY: AVX2+FMA confirmed by the runtime probe
                    // above; the caller upholds this method's bounds
                    // preconditions, which are the kernel's.
                    unsafe { x86::$csr(row_ptr, col_idx, vals, x, y) };
                    return true;
                }
                false
            }

            unsafe fn ell_simd(
                n_rows: usize,
                width: usize,
                col_plane: &[u32],
                val_plane: &[$t],
                x: &[$t],
                y: &mut [$t],
            ) -> bool {
                #[cfg(target_arch = "x86_64")]
                if avx2_ready!() {
                    // SAFETY: as in `csr_simd`.
                    unsafe { x86::$ell(n_rows, width, col_plane, val_plane, x, y) };
                    return true;
                }
                false
            }
        }
    };
}

avx2_kernels!(f64, csr_f64, ell_f64);
avx2_kernels!(f32, csr_f32, ell_f32);

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernel bodies. All functions require AVX2 + FMA
    //! (enforced by the callers' runtime probe) and column indices in
    //! bounds for `x`; each states its full contract under `# Safety`.

    use super::ELL_ROW_TILE;
    use std::arch::x86_64::*;

    /// Horizontal sum of a 4×f64 accumulator.
    ///
    /// # Safety
    /// The CPU must support AVX (the AVX2 kernels that call it ensure so).
    #[inline]
    unsafe fn hsum_pd(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// Horizontal sum of an 8×f32 accumulator.
    ///
    /// # Safety
    /// The CPU must support AVX (the AVX2 kernels that call it ensure so).
    #[inline]
    unsafe fn hsum_ps(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let s4 = _mm_add_ps(lo, hi);
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps::<1>(s2, s2));
        _mm_cvtss_f32(s1)
    }

    /// CSR, f64: per row, 4-wide gather + FMA dot product. Four gathers
    /// and four accumulators are kept in flight per 16-element iteration:
    /// the gathers are independent, so the out-of-order core overlaps
    /// their L2 latency instead of serializing on one accumulator chain.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and the operands must meet the
    /// bounds contract of [`super::SimdKernels::csr_simd`]. (The prefetch
    /// hints may point past the streams; a prefetch never faults.)
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn csr_f64(
        row_ptr: &[u32],
        col_idx: &[u32],
        vals: &[f64],
        x: &[f64],
        y: &mut [f64],
    ) {
        let xp = x.as_ptr();
        for r in 0..y.len() {
            let s = *row_ptr.get_unchecked(r) as usize;
            let e = *row_ptr.get_unchecked(r + 1) as usize;
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut acc2 = _mm256_setzero_pd();
            let mut acc3 = _mm256_setzero_pd();
            let mut i = s;
            while i + 16 <= e {
                // The val/col streams come out of L3 at large nnz while
                // the gathers occupy the load ports; prefetching a few
                // hundred elements ahead keeps the streams from stalling
                // behind them.
                // `wrapping_add`: the hint may point past the streams, and
                // `add` past an allocation would be undefined.
                _mm_prefetch::<_MM_HINT_T0>(vals.as_ptr().wrapping_add(i + 1024) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(col_idx.as_ptr().wrapping_add(i + 2048) as *const i8);
                let idx0 = _mm_loadu_si128(col_idx.as_ptr().add(i) as *const __m128i);
                let idx1 = _mm_loadu_si128(col_idx.as_ptr().add(i + 4) as *const __m128i);
                let idx2 = _mm_loadu_si128(col_idx.as_ptr().add(i + 8) as *const __m128i);
                let idx3 = _mm_loadu_si128(col_idx.as_ptr().add(i + 12) as *const __m128i);
                let xv0 = _mm256_i32gather_pd::<8>(xp, idx0);
                let xv1 = _mm256_i32gather_pd::<8>(xp, idx1);
                let xv2 = _mm256_i32gather_pd::<8>(xp, idx2);
                let xv3 = _mm256_i32gather_pd::<8>(xp, idx3);
                let av0 = _mm256_loadu_pd(vals.as_ptr().add(i));
                let av1 = _mm256_loadu_pd(vals.as_ptr().add(i + 4));
                let av2 = _mm256_loadu_pd(vals.as_ptr().add(i + 8));
                let av3 = _mm256_loadu_pd(vals.as_ptr().add(i + 12));
                acc0 = _mm256_fmadd_pd(av0, xv0, acc0);
                acc1 = _mm256_fmadd_pd(av1, xv1, acc1);
                acc2 = _mm256_fmadd_pd(av2, xv2, acc2);
                acc3 = _mm256_fmadd_pd(av3, xv3, acc3);
                i += 16;
            }
            while i + 4 <= e {
                let idx = _mm_loadu_si128(col_idx.as_ptr().add(i) as *const __m128i);
                let xv = _mm256_i32gather_pd::<8>(xp, idx);
                let av = _mm256_loadu_pd(vals.as_ptr().add(i));
                acc0 = _mm256_fmadd_pd(av, xv, acc0);
                i += 4;
            }
            let mut sum = hsum_pd(_mm256_add_pd(
                _mm256_add_pd(acc0, acc1),
                _mm256_add_pd(acc2, acc3),
            ));
            while i < e {
                sum +=
                    *vals.get_unchecked(i) * *x.get_unchecked(*col_idx.get_unchecked(i) as usize);
                i += 1;
            }
            *y.get_unchecked_mut(r) = sum;
        }
    }

    /// CSR, f32: per row, 8-wide gather + FMA dot product with two
    /// accumulators, scalar remainder.
    ///
    /// # Safety
    /// As [`csr_f64`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn csr_f32(
        row_ptr: &[u32],
        col_idx: &[u32],
        vals: &[f32],
        x: &[f32],
        y: &mut [f32],
    ) {
        let xp = x.as_ptr();
        for r in 0..y.len() {
            let s = *row_ptr.get_unchecked(r) as usize;
            let e = *row_ptr.get_unchecked(r + 1) as usize;
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = s;
            while i + 16 <= e {
                let idx0 = _mm256_loadu_si256(col_idx.as_ptr().add(i) as *const __m256i);
                let idx1 = _mm256_loadu_si256(col_idx.as_ptr().add(i + 8) as *const __m256i);
                let xv0 = _mm256_i32gather_ps::<4>(xp, idx0);
                let xv1 = _mm256_i32gather_ps::<4>(xp, idx1);
                let av0 = _mm256_loadu_ps(vals.as_ptr().add(i));
                let av1 = _mm256_loadu_ps(vals.as_ptr().add(i + 8));
                acc0 = _mm256_fmadd_ps(av0, xv0, acc0);
                acc1 = _mm256_fmadd_ps(av1, xv1, acc1);
                i += 16;
            }
            if i + 8 <= e {
                let idx = _mm256_loadu_si256(col_idx.as_ptr().add(i) as *const __m256i);
                let xv = _mm256_i32gather_ps::<4>(xp, idx);
                let av = _mm256_loadu_ps(vals.as_ptr().add(i));
                acc0 = _mm256_fmadd_ps(av, xv, acc0);
                i += 8;
            }
            let mut sum = hsum_ps(_mm256_add_ps(acc0, acc1));
            while i < e {
                sum +=
                    *vals.get_unchecked(i) * *x.get_unchecked(*col_idx.get_unchecked(i) as usize);
                i += 1;
            }
            *y.get_unchecked_mut(r) = sum;
        }
    }

    /// ELL, f64: row-tiled column-major traversal. Within a tile each
    /// plane column chunk streams sequentially while the `y` window stays
    /// in L1; rows advance 4 at a time (contiguous value/column loads,
    /// gathered `x`). Accumulates into `y`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and the operands must meet the
    /// bounds contract of [`super::SimdKernels::ell_simd`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn ell_f64(
        n_rows: usize,
        width: usize,
        col_plane: &[u32],
        val_plane: &[f64],
        x: &[f64],
        y: &mut [f64],
    ) {
        let xp = x.as_ptr();
        let mut t0 = 0usize;
        while t0 < n_rows {
            let t1 = (t0 + ELL_ROW_TILE).min(n_rows);
            for k in 0..width {
                let base = k * n_rows;
                let mut r = t0;
                while r + 4 <= t1 {
                    let av = _mm256_loadu_pd(val_plane.as_ptr().add(base + r));
                    let idx = _mm_loadu_si128(col_plane.as_ptr().add(base + r) as *const __m128i);
                    let xv = _mm256_i32gather_pd::<8>(xp, idx);
                    let yv = _mm256_loadu_pd(y.as_ptr().add(r));
                    _mm256_storeu_pd(y.as_mut_ptr().add(r), _mm256_fmadd_pd(av, xv, yv));
                    r += 4;
                }
                while r < t1 {
                    *y.get_unchecked_mut(r) += *val_plane.get_unchecked(base + r)
                        * *x.get_unchecked(*col_plane.get_unchecked(base + r) as usize);
                    r += 1;
                }
            }
            t0 = t1;
        }
    }

    /// ELL, f32: as [`ell_f64`] with 8-row blocks.
    ///
    /// # Safety
    /// As [`ell_f64`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn ell_f32(
        n_rows: usize,
        width: usize,
        col_plane: &[u32],
        val_plane: &[f32],
        x: &[f32],
        y: &mut [f32],
    ) {
        let xp = x.as_ptr();
        let mut t0 = 0usize;
        while t0 < n_rows {
            let t1 = (t0 + ELL_ROW_TILE).min(n_rows);
            for k in 0..width {
                let base = k * n_rows;
                let mut r = t0;
                while r + 8 <= t1 {
                    let av = _mm256_loadu_ps(val_plane.as_ptr().add(base + r));
                    let idx =
                        _mm256_loadu_si256(col_plane.as_ptr().add(base + r) as *const __m256i);
                    let xv = _mm256_i32gather_ps::<4>(xp, idx);
                    let yv = _mm256_loadu_ps(y.as_ptr().add(r));
                    _mm256_storeu_ps(y.as_mut_ptr().add(r), _mm256_fmadd_ps(av, xv, yv));
                    r += 8;
                }
                while r < t1 {
                    *y.get_unchecked_mut(r) += *val_plane.get_unchecked(base + r)
                        * *x.get_unchecked(*col_plane.get_unchecked(base + r) as usize);
                    r += 1;
                }
            }
            t0 = t1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_matches_probe() {
        // The vector paths run exactly when the CPU probe says Avx2, for
        // both element types, so dispatch can trust the return value.
        let probe = crate::SimdLevel::detect() == crate::SimdLevel::Avx2;
        // SAFETY: one empty row (`row_ptr.len() == y.len() + 1`, no
        // column index) and a zero-width ELL plane read nothing.
        unsafe {
            assert_eq!(f64::csr_simd(&[0, 0], &[], &[], &[1.0], &mut [0.0]), probe);
            assert_eq!(f32::csr_simd(&[0, 0], &[], &[], &[1.0], &mut [0.0]), probe);
            assert_eq!(f64::ell_simd(1, 0, &[], &[], &[1.0], &mut [0.0]), probe);
            assert_eq!(f32::ell_simd(1, 0, &[], &[], &[1.0], &mut [0.0]), probe);
        }
    }
}
