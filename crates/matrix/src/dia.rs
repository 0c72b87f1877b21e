//! DIA (diagonal) storage — the classic format for banded/stencil matrices
//! (Zhao et al., cited in the paper's §VII, include it in their CPU study).
//!
//! Every occupied diagonal is stored as a dense column of length `n_rows`;
//! no column indices exist at all — the offset list reconstructs them. For
//! a matrix whose non-zeros live on a few diagonals this is the smallest
//! possible representation and the most coalesced kernel; for anything
//! else the dense diagonals explode, which is why it needs a conversion
//! cap just like ELL.
//!
//! DIA is **not** one of the paper's six evaluated formats; this crate
//! ships it as an extension (see `results/ext_dia.txt`) showing what the
//! selector's universe would gain on stencil-dominated corpora.

use crate::csr::CsrMatrix;
use crate::error::{MatrixError, Result};
use crate::scalar::Scalar;

/// Diagonal-format sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    /// Occupied diagonal offsets (`col - row`), ascending.
    offsets: Vec<i64>,
    /// `offsets.len() x n_rows` plane, diagonal-major: the value of
    /// `A[r][r + offsets[d]]` lives at `d * n_rows + r` (0 when absent or
    /// out of bounds).
    data: Vec<T>,
}

impl<T: Scalar> DiaMatrix<T> {
    /// Default cap on stored plane slots (matches ELL's reasoning: a real
    /// GPU fails the conversion only when the dense diagonals outgrow
    /// device memory).
    pub const DEFAULT_SLOT_CAP: usize = 1 << 25;

    /// Convert from CSR, refusing if the diagonal plane would exceed
    /// `max_slots`.
    pub fn from_csr_capped(csr: &CsrMatrix<T>, max_slots: usize) -> Result<Self> {
        let n_rows = csr.n_rows();
        let n_cols = csr.n_cols();
        // Collect occupied offsets.
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..n_rows {
            let (cols, _) = csr.row(r);
            for &c in cols {
                seen.insert(c as i64 - r as i64);
            }
        }
        let offsets: Vec<i64> = seen.into_iter().collect();
        let slots = offsets.len().saturating_mul(n_rows);
        if slots > max_slots {
            return Err(MatrixError::PaddingOverflow {
                required: slots,
                cap: max_slots,
            });
        }
        let mut data = vec![T::ZERO; slots];
        for r in 0..n_rows {
            let (cols, vals) = csr.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let off = c as i64 - r as i64;
                let d = offsets.binary_search(&off).expect("offset collected");
                data[d * n_rows + r] = v;
            }
        }
        Ok(Self {
            n_rows,
            n_cols,
            nnz: csr.nnz(),
            offsets,
            data,
        })
    }

    /// Convert with [`Self::DEFAULT_SLOT_CAP`].
    pub fn from_csr(csr: &CsrMatrix<T>) -> Result<Self> {
        Self::from_csr_capped(csr, Self::DEFAULT_SLOT_CAP.max(4 * csr.nnz()))
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

    /// True stored non-zero count.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Occupied diagonal offsets, ascending.
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Total plane slots (`n_diags * n_rows`).
    pub fn slots(&self) -> usize {
        self.data.len()
    }

    /// Fraction of plane slots that are filler.
    pub fn fill_ratio(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.nnz as f64 / self.data.len() as f64
        }
    }

    /// Storage footprint: the value plane plus the offset list. Note: no
    /// per-element indices at all — DIA's whole advantage.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * T::BYTES + self.offsets.len() * std::mem::size_of::<i64>()
    }

    /// Sequential SpMV: `y = A * x`, diagonal-major like the GPU kernel
    /// (thread per row, diagonals in registers).
    ///
    /// # Panics
    /// If `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_cols, "x length must equal n_cols");
        assert_eq!(y.len(), self.n_rows, "y length must equal n_rows");
        y.fill(T::ZERO);
        for (d, &off) in self.offsets.iter().enumerate() {
            let plane = &self.data[d * self.n_rows..(d + 1) * self.n_rows];
            // Row range for which r + off lies in [0, n_cols).
            let lo = (-off).max(0) as usize;
            let hi = ((self.n_cols as i64 - off).clamp(0, self.n_rows as i64)) as usize;
            for r in lo..hi {
                let c = (r as i64 + off) as usize;
                y[r] += plane[r] * x[c];
            }
        }
    }

    /// Convert back to CSR (dropping filler zeros).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut b =
            crate::builder::TripletBuilder::with_capacity(self.n_rows, self.n_cols, self.nnz);
        for (d, &off) in self.offsets.iter().enumerate() {
            for r in 0..self.n_rows {
                let c = r as i64 + off;
                if c >= 0 && (c as usize) < self.n_cols {
                    let v = self.data[d * self.n_rows + r];
                    if v != T::ZERO {
                        b.push_unchecked(r as u32, c as u32, v);
                    }
                }
            }
        }
        b.build_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TripletBuilder;

    fn tridiag(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, n);
        for r in 0..n {
            if r > 0 {
                b.push(r, r - 1, -1.0).unwrap();
            }
            b.push(r, r, 2.0).unwrap();
            if r + 1 < n {
                b.push(r, r + 1, -1.0).unwrap();
            }
        }
        b.build().to_csr()
    }

    #[test]
    fn tridiagonal_stores_three_diagonals() {
        let c = tridiag(50);
        let d = DiaMatrix::from_csr(&c).unwrap();
        assert_eq!(d.offsets(), &[-1, 0, 1]);
        assert_eq!(d.slots(), 150);
        assert_eq!(d.nnz(), c.nnz());
        assert!(d.fill_ratio() > 0.97);
    }

    #[test]
    fn spmv_matches_csr() {
        let c = tridiag(64);
        let d = DiaMatrix::from_csr(&c).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut y0 = vec![0.0; 64];
        let mut y1 = vec![0.0; 64];
        c.spmv(&x, &mut y0);
        d.spmv(&x, &mut y1);
        for (a, b) in y0.iter().zip(&y1) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rectangular_matrices_work() {
        let mut b = TripletBuilder::new(3, 6);
        b.push(0, 3, 1.0).unwrap();
        b.push(1, 4, 2.0).unwrap();
        b.push(2, 5, 3.0).unwrap();
        b.push(2, 0, 4.0).unwrap();
        let c = b.build().to_csr();
        let d = DiaMatrix::from_csr(&c).unwrap();
        assert_eq!(d.offsets(), &[-2, 3]);
        let x = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let mut y0 = vec![0.0; 3];
        let mut y1 = vec![0.0; 3];
        c.spmv(&x, &mut y0);
        d.spmv(&x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn round_trip_csr() {
        let c = tridiag(30);
        assert_eq!(DiaMatrix::from_csr(&c).unwrap().to_csr(), c);
    }

    #[test]
    fn scattered_matrix_rejected_by_cap() {
        // Anti-diagonal-ish scatter: every entry its own diagonal.
        let n = 3000;
        let mut b = TripletBuilder::new(n, n);
        for r in 0..n {
            b.push(r, (r * 97 + 13) % n, 1.0).unwrap();
        }
        let c = b.build().to_csr();
        let err = DiaMatrix::from_csr_capped(&c, 100_000).unwrap_err();
        assert!(matches!(err, MatrixError::PaddingOverflow { .. }));
    }

    #[test]
    fn storage_has_no_per_element_indices() {
        let c = tridiag(100);
        let d = DiaMatrix::from_csr(&c).unwrap();
        // 300 slots * 8B + 3 offsets * 8B, far below CSR's footprint.
        assert_eq!(d.storage_bytes(), 300 * 8 + 3 * 8);
        assert!(d.storage_bytes() < c.storage_bytes());
    }

    #[test]
    fn empty_matrix() {
        let c = CsrMatrix::<f32>::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        let d = DiaMatrix::from_csr(&c).unwrap();
        assert_eq!(d.slots(), 0);
        assert_eq!(d.fill_ratio(), 0.0);
    }
}
