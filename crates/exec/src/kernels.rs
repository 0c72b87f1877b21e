//! The native SpMV kernels: one per [`PreparedMatrix`] variant.
//!
//! All kernels compute `y = A·x` from scratch (no `y` accumulation
//! across calls) and are sequential — labeling measures single-kernel
//! throughput, the quantity the format-selection models predict.
//! Portable paths use 4-wide unrolled inner loops; CSR and ELL/HYB
//! additionally dispatch to AVX2/FMA specializations via
//! [`SimdKernels`] when [`SimdLevel::Avx2`] is requested and the CPU
//! supports it. Two kernels restructure the `x`-gather for cache
//! residency: wide CSR matrices run column-strip streams
//! ([`PreparedMatrix::CsrBlocked`]) and ELL/HYB planes run a row-tiled
//! column-major traversal ([`crate::simd::ELL_ROW_TILE`]).
//!
//! Reduction order differs between kernels (blocking, unrolling, and
//! vector lanes all reassociate the row sums), so outputs agree with the
//! reference CSR kernel to relative tolerance, not bitwise — see the
//! differential tests.

use crate::prep::{
    CooExec, Csr5Exec, CsrBlockedExec, CsrExec, EllExec, HybExec, MergeExec, PreparedMatrix,
    MAX_OMEGA,
};
use crate::simd::{self, SimdKernels, ELL_ROW_TILE};
use crate::SimdLevel;
use spmv_matrix::Scalar;

/// Compute `y = A·x` for a prepared matrix at the requested SIMD tier.
///
/// [`SimdLevel::Avx2`] silently degrades to the scalar path when the
/// element type has no vector kernel or the CPU lacks the features.
///
/// # Panics
/// If `x.len()` is less than the matrix's column count or `y.len()`
/// differs from its row count.
pub fn spmv<T: SimdKernels>(m: &PreparedMatrix<'_, T>, x: &[T], y: &mut [T], level: SimdLevel) {
    assert!(
        x.len() >= m.n_cols(),
        "x has {} entries but the matrix has {} columns",
        x.len(),
        m.n_cols()
    );
    match m {
        PreparedMatrix::Coo(v) => coo(v, x, y),
        PreparedMatrix::Csr(v) => csr(v, x, y, level),
        PreparedMatrix::CsrBlocked(v) => csr_blocked(v, x, y),
        PreparedMatrix::Ell(v) => ell(v, x, y, level),
        PreparedMatrix::Hyb(v) => hyb(v, x, y, level),
        PreparedMatrix::MergeCsr(v) => merge_csr(v, x, y),
        PreparedMatrix::Csr5(v) => csr5(v, x, y),
    }
}

/// COO: stream the triplets, accumulating each row-major run locally so
/// `y` sees one write per occupied row.
fn coo<T: Scalar>(v: &CooExec<'_, T>, x: &[T], y: &mut [T]) {
    assert_eq!(y.len(), v.n_rows);
    y.fill(T::ZERO);
    let nnz = v.vals.len();
    let mut i = 0;
    while i < nnz {
        let r = v.rows[i];
        let mut acc = T::ZERO;
        while i < nnz && v.rows[i] == r {
            acc += v.vals[i] * x[v.cols[i] as usize];
            i += 1;
        }
        y[r as usize] += acc;
    }
}

/// CSR: row-sequential dot products, 4-wide unrolled with paired
/// accumulators; AVX2 gather+FMA when requested and available.
fn csr<T: SimdKernels>(v: &CsrExec<'_, T>, x: &[T], y: &mut [T], level: SimdLevel) {
    assert_eq!(y.len(), v.n_rows);
    // `simd::csr` checks the view's bounds against `x` and `y` before its
    // unchecked gathers run, and declines to the scalar loop otherwise.
    if level == SimdLevel::Avx2 && simd::csr(v, x, y) {
        return;
    }
    for (r, w) in v.row_ptr.windows(2).enumerate() {
        let (s, e) = (w[0] as usize, w[1] as usize);
        let (mut a0, mut a1, mut a2, mut a3) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
        let mut i = s;
        while i + 4 <= e {
            a0 += v.vals[i] * x[v.col_idx[i] as usize];
            a1 += v.vals[i + 1] * x[v.col_idx[i + 1] as usize];
            a2 += v.vals[i + 2] * x[v.col_idx[i + 2] as usize];
            a3 += v.vals[i + 3] * x[v.col_idx[i + 3] as usize];
            i += 4;
        }
        let mut acc = (a0 + a1) + (a2 + a3);
        while i < e {
            acc += v.vals[i] * x[v.col_idx[i] as usize];
            i += 1;
        }
        y[r] = acc;
    }
}

/// Cache-blocked CSR: each column strip's `x` window stays cache-resident
/// while its triplets stream; rows accumulate across strips in `y`.
fn csr_blocked<T: Scalar>(v: &CsrBlockedExec<'_, T>, x: &[T], y: &mut [T]) {
    assert_eq!(y.len(), v.n_rows);
    y.fill(T::ZERO);
    for w in v.strip_ptr.windows(2) {
        let (s, e) = (w[0] as usize, w[1] as usize);
        let mut i = s;
        while i + 4 <= e {
            y[v.rows[i] as usize] += v.vals[i] * x[v.cols[i] as usize];
            y[v.rows[i + 1] as usize] += v.vals[i + 1] * x[v.cols[i + 1] as usize];
            y[v.rows[i + 2] as usize] += v.vals[i + 2] * x[v.cols[i + 2] as usize];
            y[v.rows[i + 3] as usize] += v.vals[i + 3] * x[v.cols[i + 3] as usize];
            i += 4;
        }
        while i < e {
            y[v.rows[i] as usize] += v.vals[i] * x[v.cols[i] as usize];
            i += 1;
        }
    }
}

/// ELL: zero `y`, then accumulate the padded planes (padding contributes
/// exact zeros).
fn ell<T: SimdKernels>(v: &EllExec<'_, T>, x: &[T], y: &mut [T], level: SimdLevel) {
    assert_eq!(y.len(), v.n_rows);
    y.fill(T::ZERO);
    ell_accumulate(v, x, y, level);
}

/// The shared ELL accumulation pass (also the HYB head): row-tiled
/// column-major traversal so plane chunks stream sequentially while the
/// `y` tile stays L1-resident.
fn ell_accumulate<T: SimdKernels>(v: &EllExec<'_, T>, x: &[T], y: &mut [T], level: SimdLevel) {
    // As in `csr`: `simd::ell` checks the bounds its gathers rely on.
    if level == SimdLevel::Avx2 && simd::ell(v, x, y) {
        return;
    }
    let mut t0 = 0usize;
    while t0 < v.n_rows {
        let t1 = (t0 + ELL_ROW_TILE).min(v.n_rows);
        for k in 0..v.width {
            let base = k * v.n_rows;
            let cols = &v.col_plane[base + t0..base + t1];
            let vals = &v.val_plane[base + t0..base + t1];
            let yt = &mut y[t0..t1];
            let n = yt.len();
            let mut r = 0;
            while r + 4 <= n {
                yt[r] += vals[r] * x[cols[r] as usize];
                yt[r + 1] += vals[r + 1] * x[cols[r + 1] as usize];
                yt[r + 2] += vals[r + 2] * x[cols[r + 2] as usize];
                yt[r + 3] += vals[r + 3] * x[cols[r + 3] as usize];
                r += 4;
            }
            while r < n {
                yt[r] += vals[r] * x[cols[r] as usize];
                r += 1;
            }
        }
        t0 = t1;
    }
}

/// HYB: ELL head pass over zeroed `y`, then the COO tail accumulates its
/// row-major runs on top.
fn hyb<T: SimdKernels>(v: &HybExec<'_, T>, x: &[T], y: &mut [T], level: SimdLevel) {
    assert_eq!(y.len(), v.head.n_rows);
    y.fill(T::ZERO);
    ell_accumulate(&v.head, x, y, level);
    let nnz = v.tail.vals.len();
    let mut i = 0;
    while i < nnz {
        let r = v.tail.rows[i];
        let mut acc = T::ZERO;
        while i < nnz && v.tail.rows[i] == r {
            acc += v.tail.vals[i] * x[v.tail.cols[i] as usize];
            i += 1;
        }
        y[r as usize] += acc;
    }
}

/// Merge-based CSR: consume the precomputed equal-work merge-path
/// segments in order, threading the open-row partial sum into the next
/// segment (the sequential analogue of the parallel fix-up pass). Row
/// entries are summed in index order, matching the reference kernel.
fn merge_csr<T: Scalar>(v: &MergeExec<'_, T>, x: &[T], y: &mut [T]) {
    assert_eq!(y.len(), v.csr.n_rows);
    let mut carry = T::ZERO;
    let mut carry_row = usize::MAX;
    for w in v.segs.windows(2) {
        let (start, end) = (w[0], w[1]);
        let mut i = start.nz;
        let mut acc = if start.row == carry_row {
            carry
        } else {
            T::ZERO
        };
        // Finish every row whose row item lies inside this segment…
        // (`r` indexes both `row_ptr[r + 1]` and `y[r]`; an iterator
        // rewrite would hide the paired access.)
        #[allow(clippy::needless_range_loop)]
        for r in start.row..end.row {
            let re = v.csr.row_ptr[r + 1] as usize;
            while i < re {
                acc += v.csr.vals[i] * x[v.csr.col_idx[i] as usize];
                i += 1;
            }
            y[r] = acc;
            acc = T::ZERO;
        }
        // …then the leading slice of the row left open at the boundary.
        while i < end.nz {
            acc += v.csr.vals[i] * x[v.csr.col_idx[i] as usize];
            i += 1;
        }
        carry = acc;
        carry_row = end.row;
    }
}

/// CSR5: sweep each transposed tile step-major with per-lane row cursors
/// and partial sums; every flush adds into zeroed `y`, so row spans
/// crossing lanes or tiles combine correctly. The sub-tile remainder
/// runs as a CSR walk.
fn csr5<T: Scalar>(v: &Csr5Exec<'_, T>, x: &[T], y: &mut [T]) {
    assert_eq!(y.len(), v.n_rows);
    assert!(v.omega <= MAX_OMEGA, "CSR5 tile width exceeds kernel cap");
    y.fill(T::ZERO);
    let tile_nnz = v.omega * v.sigma;
    let mut lane_row = [0usize; MAX_OMEGA];
    let mut lane_acc = [T::ZERO; MAX_OMEGA];
    for t in 0..v.n_tiles {
        let base = t * tile_nnz;
        // Seed each lane's row cursor with one monotone walk per tile.
        let mut r = v.tile_rows[t] as usize;
        for (lane, lr) in lane_row[..v.omega].iter_mut().enumerate() {
            let g = (base + lane * v.sigma) as u32;
            while v.row_ptr[r + 1] <= g {
                r += 1;
            }
            *lr = r;
        }
        lane_acc[..v.omega].fill(T::ZERO);
        for s in 0..v.sigma {
            let off = base + s * v.omega;
            for lane in 0..v.omega {
                // Original CSR position of this transposed slot.
                let g = base + lane * v.sigma + s;
                let cur = &mut lane_row[lane];
                while g >= v.row_ptr[*cur + 1] as usize {
                    y[*cur] += lane_acc[lane];
                    lane_acc[lane] = T::ZERO;
                    *cur += 1;
                }
                lane_acc[lane] += v.vals_t[off + lane] * x[v.cols_t[off + lane] as usize];
            }
        }
        for lane in 0..v.omega {
            y[lane_row[lane]] += lane_acc[lane];
        }
    }
    // Tail: the final `nnz % tile_nnz` entries in CSR order.
    let tail_start = v.n_tiles * tile_nnz;
    let mut r = v.tile_rows[v.n_tiles] as usize;
    for (j, (&c, &val)) in v.tail_cols.iter().zip(v.tail_vals.iter()).enumerate() {
        let g = tail_start + j;
        while g >= v.row_ptr[r + 1] as usize {
            r += 1;
        }
        y[r] += val * x[c as usize];
    }
}
