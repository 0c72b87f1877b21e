//! CSR (compressed sparse row) storage — the hub format (paper §II-A2).
//!
//! Column indices and values are stored contiguously per row; a `row_ptr`
//! array of length `n_rows + 1` gives each row's extent. Every other format
//! in this crate converts to/from CSR, and both GPU CSR kernels the paper
//! discusses (scalar: thread-per-row; vector: warp-per-row) are modeled from
//! this structure.

use crate::coo::CooMatrix;
use crate::error::{MatrixError, Result};
use crate::scalar::Scalar;
use crate::structure::PatternCsr;

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build from raw parts, validating every structural invariant:
    /// `row_ptr` monotone with the right endpoints, column indices in range
    /// and strictly increasing within each row.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Result<Self> {
        if row_ptr.len() != n_rows + 1 {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr length {} != n_rows + 1 = {}",
                row_ptr.len(),
                n_rows + 1
            )));
        }
        if row_ptr.first() != Some(&0) {
            return Err(MatrixError::InvalidStructure(
                "row_ptr must start at 0".into(),
            ));
        }
        if *row_ptr.last().expect("non-empty row_ptr") as usize != col_idx.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr end {} != nnz {}",
                row_ptr.last().expect("non-empty row_ptr"),
                col_idx.len()
            )));
        }
        if col_idx.len() != vals.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "col_idx length {} != vals length {}",
                col_idx.len(),
                vals.len()
            )));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(MatrixError::InvalidStructure(
                "row_ptr must be non-decreasing".into(),
            ));
        }
        for r in 0..n_rows {
            let (s, e) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            let row = &col_idx[s..e];
            if row.iter().any(|&c| c as usize >= n_cols) {
                return Err(MatrixError::InvalidStructure(format!(
                    "column index out of range in row {r}"
                )));
            }
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(MatrixError::InvalidStructure(format!(
                    "column indices not strictly increasing in row {r}"
                )));
            }
        }
        Ok(Self::from_parts_unchecked(
            n_rows, n_cols, row_ptr, col_idx, vals,
        ))
    }

    /// Build from parts known to be valid (internal conversions).
    pub(crate) fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), n_rows + 1);
        debug_assert_eq!(col_idx.len(), vals.len());
        Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals,
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

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The row-pointer array (`n_rows + 1` entries, starts at 0).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column indices, row-contiguous.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Values, row-contiguous.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
        (&self.col_idx[s..e], &self.vals[s..e])
    }

    /// Length (non-zero count) of row `r`.
    #[inline]
    pub fn row_len(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Iterator over per-row non-zero counts.
    pub fn row_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.row_ptr.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Longest row (0 for an empty matrix) — ELL's padded width.
    pub fn max_row_len(&self) -> usize {
        self.row_lens().max().unwrap_or(0)
    }

    /// Mean non-zeros per row (`nnz_mu` in the paper's feature table).
    pub fn mean_row_len(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n_rows as f64
        }
    }

    /// Storage footprint: row pointers + column indices + values.
    pub fn storage_bytes(&self) -> usize {
        (self.row_ptr.len() + self.col_idx.len()) * std::mem::size_of::<u32>()
            + self.vals.len() * T::BYTES
    }

    /// Sequential SpMV: `y = A * x` (the "scalar CSR" traversal order).
    ///
    /// # Panics
    /// If `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_cols, "x length must equal n_cols");
        assert_eq!(y.len(), self.n_rows, "y length must equal n_rows");
        for (r, out) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *out = acc;
        }
    }

    /// Convert to COO (trivially: expand the row pointer).
    pub fn to_coo(&self) -> CooMatrix<T> {
        self.clone().into_coo()
    }

    /// [`to_coo`](Self::to_coo), reusing this matrix's column and value
    /// arrays.
    pub(crate) fn into_coo(self) -> CooMatrix<T> {
        let mut rows = Vec::with_capacity(self.nnz());
        for (r, w) in self.row_ptr.windows(2).enumerate() {
            rows.resize(w[1] as usize, r as u32);
        }
        CooMatrix::from_sorted_parts(self.n_rows, self.n_cols, rows, self.col_idx, self.vals)
    }

    /// The structure alone: the row pointers and column indices, reusing
    /// this matrix's arrays.
    pub(crate) fn into_pattern(self) -> PatternCsr {
        PatternCsr::from_parts_unchecked(self.n_rows, self.n_cols, self.row_ptr, self.col_idx)
    }

    /// Transpose via COO.
    pub fn transpose(&self) -> CsrMatrix<T> {
        self.to_coo().transpose().to_csr()
    }

    /// Dense rendering for tests and tiny examples.
    pub fn to_dense(&self) -> Vec<Vec<T>> {
        self.to_coo().to_dense()
    }

    /// Value at `(r, c)` if stored (binary search within the row).
    pub fn get(&self, r: usize, c: usize) -> Option<T> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&(c as u32)).ok().map(|i| vals[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [1 0 2 0]
        // [0 0 0 0]
        // [3 4 0 5]
        CsrMatrix::from_parts(
            3,
            4,
            vec![0, 2, 2, 5],
            vec![0, 2, 0, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, [7.0, 0.0, 31.0]);
    }

    #[test]
    fn row_accessors() {
        let m = sample();
        assert_eq!(m.row_len(0), 2);
        assert_eq!(m.row_len(1), 0);
        assert_eq!(m.max_row_len(), 3);
        assert!((m.mean_row_len() - 5.0 / 3.0).abs() < 1e-12);
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0, 1, 3]);
        assert_eq!(vals, &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn get_element() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(2, 3), Some(5.0));
    }

    #[test]
    fn coo_round_trip() {
        let m = sample();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn validation_rejects_bad_row_ptr() {
        assert!(
            CsrMatrix::<f64>::from_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
        assert!(
            CsrMatrix::<f64>::from_parts(2, 2, vec![1, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
        assert!(
            CsrMatrix::<f64>::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
    }

    #[test]
    fn validation_rejects_bad_columns() {
        // out of range
        assert!(CsrMatrix::<f64>::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // duplicate within a row
        assert!(
            CsrMatrix::<f64>::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err()
        );
        // decreasing within a row
        assert!(
            CsrMatrix::<f64>::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err()
        );
    }

    #[test]
    fn validation_rejects_length_mismatch() {
        assert!(CsrMatrix::<f64>::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0]).is_err());
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::<f32>::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.max_row_len(), 0);
        assert_eq!(m.mean_row_len(), 0.0);
        let mut y: [f32; 0] = [];
        m.spmv(&[], &mut y);
    }

    #[test]
    fn storage_bytes() {
        let m = sample();
        assert_eq!(m.storage_bytes(), 4 * 4 + 5 * 4 + 5 * 8);
    }
}
