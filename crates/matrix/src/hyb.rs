//! HYB (hybrid ELL + COO) storage (paper §II-A4).
//!
//! Each row's first `K` entries go to a regular ELL part; overflow entries go
//! to a COO part. Bell & Garland pick `K` so that most rows fit; the paper
//! uses the **mean non-zeros per row (`nnz_mu`)** as the threshold, which we
//! follow (`HybMatrix::from_csr`). A custom threshold constructor is provided
//! for experimentation.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::ell::EllMatrix;
use crate::scalar::Scalar;

/// Hybrid matrix: ELL head (width = threshold) plus COO tail.
#[derive(Debug, Clone, PartialEq)]
pub struct HybMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    ell: EllMatrix<T>,
    coo: CooMatrix<T>,
}

impl<T: Scalar> HybMatrix<T> {
    /// Split at the paper's threshold: `K = ceil(nnz_mu)` (mean row length).
    pub fn from_csr(csr: &CsrMatrix<T>) -> Self {
        let k = csr.mean_row_len().ceil() as usize;
        Self::from_csr_with_threshold(csr, k.max(1))
    }

    /// Split at an explicit ELL width `k`: each row's first `min(len, k)`
    /// entries populate the ELL part, the rest spill to COO.
    pub fn from_csr_with_threshold(csr: &CsrMatrix<T>, k: usize) -> Self {
        let n_rows = csr.n_rows();
        let n_cols = csr.n_cols();

        // ELL head: truncate each row at k, then pad.
        let mut head_ptr = vec![0u32; n_rows + 1];
        let mut head_cols = Vec::new();
        let mut head_vals = Vec::new();
        // COO tail.
        let mut tail_rows = Vec::new();
        let mut tail_cols = Vec::new();
        let mut tail_vals = Vec::new();

        for r in 0..n_rows {
            let (cols, vals) = csr.row(r);
            let split = cols.len().min(k);
            head_cols.extend_from_slice(&cols[..split]);
            head_vals.extend_from_slice(&vals[..split]);
            head_ptr[r + 1] = head_cols.len() as u32;
            for (&c, &v) in cols[split..].iter().zip(&vals[split..]) {
                tail_rows.push(r as u32);
                tail_cols.push(c);
                tail_vals.push(v);
            }
        }

        let head_csr =
            CsrMatrix::from_parts_unchecked(n_rows, n_cols, head_ptr, head_cols, head_vals);
        // The head's max row length is <= k by construction, so padding is
        // bounded by n_rows * k and the capped conversion cannot fail.
        let ell = EllMatrix::from_csr_capped(&head_csr, n_rows.saturating_mul(k).max(1))
            .expect("ELL head width bounded by threshold");
        let coo = CooMatrix::from_sorted_parts(n_rows, n_cols, tail_rows, tail_cols, tail_vals);

        Self {
            n_rows,
            n_cols,
            nnz: csr.nnz(),
            ell,
            coo,
        }
    }

    /// Matrix shape as `(n_rows, n_cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows, self.n_cols)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total stored non-zeros across both parts.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The regular (ELL) part.
    pub fn ell_part(&self) -> &EllMatrix<T> {
        &self.ell
    }

    /// The irregular (COO) overflow part.
    pub fn coo_part(&self) -> &CooMatrix<T> {
        &self.coo
    }

    /// Fraction of non-zeros landing in the COO tail.
    pub fn coo_fraction(&self) -> f64 {
        if self.nnz == 0 {
            0.0
        } else {
            self.coo.nnz() as f64 / self.nnz as f64
        }
    }

    /// Storage footprint of both parts.
    pub fn storage_bytes(&self) -> usize {
        self.ell.storage_bytes() + self.coo.storage_bytes()
    }

    /// Sequential SpMV: ELL pass then COO accumulation, `y = A * x`.
    ///
    /// # Panics
    /// If `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        self.ell.spmv(x, y);
        // COO part accumulates on top (do not clear y).
        for ((&r, &c), &v) in self
            .coo
            .row_indices()
            .iter()
            .zip(self.coo.col_indices())
            .zip(self.coo.values())
        {
            y[r as usize] += v * x[c as usize];
        }
    }

    /// Convert back to CSR (merging both parts).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut b =
            crate::builder::TripletBuilder::with_capacity(self.n_rows, self.n_cols, self.nnz);
        for (r, c, v) in self.ell.to_csr().to_coo().iter() {
            b.push_unchecked(r as u32, c as u32, v);
        }
        for (r, c, v) in self.coo.iter() {
            b.push_unchecked(r as u32, c as u32, v);
        }
        b.build_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skewed matrix: row 0 has 6 entries, others 1.
    fn skewed() -> CsrMatrix<f64> {
        CsrMatrix::from_parts(
            4,
            8,
            vec![0, 6, 7, 8, 9],
            vec![0, 1, 2, 3, 4, 5, 0, 1, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        )
        .unwrap()
    }

    #[test]
    fn threshold_is_mean_row_len() {
        let c = skewed();
        let h = HybMatrix::from_csr(&c);
        // nnz_mu = 9/4 = 2.25 -> K = 3
        assert_eq!(h.ell_part().width(), 3);
        // Row 0 spills 3 entries to COO.
        assert_eq!(h.coo_part().nnz(), 3);
        assert!((h.coo_fraction() - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn spmv_matches_csr() {
        let c = skewed();
        let h = HybMatrix::from_csr(&c);
        let x: Vec<f64> = (0..8).map(|i| (i + 1) as f64 * 0.5).collect();
        let mut y0 = vec![0.0; 4];
        let mut y1 = vec![0.0; 4];
        c.spmv(&x, &mut y0);
        h.spmv(&x, &mut y1);
        for (a, b) in y0.iter().zip(&y1) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn custom_threshold_extremes() {
        let c = skewed();
        // k = max row len: everything in ELL.
        let h = HybMatrix::from_csr_with_threshold(&c, 6);
        assert_eq!(h.coo_part().nnz(), 0);
        // k = 1: only first entry per row in ELL.
        let h = HybMatrix::from_csr_with_threshold(&c, 1);
        assert_eq!(h.ell_part().nnz(), 4);
        assert_eq!(h.coo_part().nnz(), 5);
        let x = vec![1.0; 8];
        let mut y0 = vec![0.0; 4];
        let mut y1 = vec![0.0; 4];
        c.spmv(&x, &mut y0);
        h.spmv(&x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn round_trip_csr() {
        let c = skewed();
        assert_eq!(HybMatrix::from_csr(&c).to_csr(), c);
    }

    #[test]
    fn nnz_accounting() {
        let c = skewed();
        let h = HybMatrix::from_csr(&c);
        assert_eq!(h.nnz(), c.nnz());
        assert_eq!(h.ell_part().nnz() + h.coo_part().nnz(), c.nnz());
    }

    #[test]
    fn uniform_matrix_has_empty_coo_part() {
        // All rows length 2: nnz_mu = 2, no spill.
        let c = CsrMatrix::<f64>::from_parts(
            3,
            4,
            vec![0, 2, 4, 6],
            vec![0, 1, 1, 2, 2, 3],
            vec![1.0; 6],
        )
        .unwrap();
        let h = HybMatrix::from_csr(&c);
        assert_eq!(h.coo_part().nnz(), 0);
        assert_eq!(h.coo_fraction(), 0.0);
    }
}
