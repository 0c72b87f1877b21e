//! Merge-based CSR SpMV (Merrill & Garland, PPoPP'16; paper §II-A6).
//!
//! The matrix stays in plain CSR; what changes is the **work decomposition**.
//! Conceptually, SpMV is the merge of two sorted lists: the row descriptors
//! (`row_ptr[1..]`, one "row-end" item per row) and the natural numbers
//! `0..nnz` (one item per non-zero). A merge path of length `n_rows + nnz`
//! is cut into equal pieces by a two-dimensional binary search along its
//! diagonals; each processor consumes exactly the same number of merge items
//! regardless of how skewed the rows are, which is the load-balance guarantee
//! the paper highlights. Rows split across processors are repaired by a
//! carry-out fix-up pass.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// A position on the merge path: `row` items consumed from the row-end list,
/// `nz` items consumed from the non-zero list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeCoordinate {
    /// Rows fully or partially consumed before this point.
    pub row: usize,
    /// Non-zeros consumed before this point.
    pub nz: usize,
}

/// Find the merge-path coordinate on `diagonal` (0..=n_rows+nnz) for the
/// merge of `row_ends` (the CSR row-end offsets, i.e. `row_ptr[1..]`) with
/// the counting list `0..nnz`.
///
/// Uses the standard diagonal binary search: along diagonal `d`, we seek the
/// greatest `i` (rows consumed) such that every row-end among the first `i`
/// is `<=` the matching non-zero index `d - i` — i.e.
/// `row_ends[i-1] <= d - i`.
pub fn merge_path_search(diagonal: usize, row_ends: &[u32], nnz: usize) -> MergeCoordinate {
    let mut lo = diagonal.saturating_sub(nnz);
    let mut hi = diagonal.min(row_ends.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // Consuming `mid+1` row items requires row_ends[mid] <= diagonal - (mid+1).
        if (row_ends[mid] as usize) < diagonal - mid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    MergeCoordinate {
        row: lo,
        nz: diagonal - lo,
    }
}

/// The partial result of consuming one merge segment: complete rows were
/// written to `y` directly; `carry` is the sum accumulated for `carry_row`,
/// the row left open at the segment's end (it completes in a later segment).
#[derive(Debug, Clone, Copy)]
pub struct SegmentCarry<T> {
    /// Row index whose partial sum is carried out (== n_rows when none).
    pub carry_row: usize,
    /// Partial dot-product accumulated for that row.
    pub carry: T,
}

/// Merge-based CSR SpMV wrapper. Owns a CSR matrix and exposes the
/// merge-path machinery; sequential `spmv` is identical math to CSR, so the
/// interesting entry points are [`Self::spmv_segment`] and
/// [`Self::partition`], which decompose the work the way the GPU kernel does.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeCsrMatrix<T> {
    csr: CsrMatrix<T>,
}

impl<T: Scalar> MergeCsrMatrix<T> {
    /// Wrap a CSR matrix.
    pub fn from_csr(csr: &CsrMatrix<T>) -> Self {
        Self { csr: csr.clone() }
    }

    /// Wrap by value (no clone).
    pub fn from_csr_owned(csr: CsrMatrix<T>) -> Self {
        Self { csr }
    }

    /// The underlying CSR matrix.
    pub fn csr(&self) -> &CsrMatrix<T> {
        &self.csr
    }

    /// Matrix shape as `(n_rows, n_cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.csr.shape()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.csr.n_rows()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.csr.n_cols()
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Total merge-path length (`n_rows + nnz`): the unit of load balance.
    pub fn merge_items(&self) -> usize {
        self.csr.n_rows() + self.csr.nnz()
    }

    /// Storage footprint — identical to CSR (the format is unchanged).
    pub fn storage_bytes(&self) -> usize {
        self.csr.storage_bytes()
    }

    /// Split the merge path into `parts` equal segments; returns the
    /// `parts + 1` boundary coordinates.
    pub fn partition(&self, parts: usize) -> Vec<MergeCoordinate> {
        assert!(parts > 0, "parts must be positive");
        let row_ends = &self.csr.row_ptr()[1..];
        let total = self.merge_items();
        (0..=parts)
            .map(|p| {
                // Evenly spaced diagonals (last lands exactly at total).
                let d = (total * p) / parts;
                merge_path_search(d, row_ends, self.csr.nnz())
            })
            .collect()
    }

    /// Consume the merge segment `[start, end)`: accumulate row sums, write
    /// every row that *ends* inside the segment to `y`, and return the open
    /// row's carry. The incoming partial for `start`'s open row is NOT added
    /// here — callers accumulate carries in path order afterwards.
    pub fn spmv_segment(
        &self,
        start: MergeCoordinate,
        end: MergeCoordinate,
        x: &[T],
        y: &mut [T],
    ) -> SegmentCarry<T> {
        let row_ends = &self.csr.row_ptr()[1..];
        let cols = self.csr.col_idx();
        let vals = self.csr.values();
        let mut row = start.row;
        let mut nz = start.nz;
        let mut acc = T::ZERO;
        // Merge loop: at each step, either the current row ends (consume a
        // row item) or we consume the next non-zero.
        while row < end.row {
            // Rows that end within this segment flush directly.
            while nz < row_ends[row] as usize {
                acc += vals[nz] * x[cols[nz] as usize];
                nz += 1;
            }
            y[row] = acc;
            acc = T::ZERO;
            row += 1;
        }
        // Trailing non-zeros belong to the row left open at the boundary.
        while nz < end.nz {
            acc += vals[nz] * x[cols[nz] as usize];
            nz += 1;
        }
        SegmentCarry {
            carry_row: row,
            carry: acc,
        }
    }

    /// Sequential SpMV via a single merge segment (equivalent to CSR SpMV,
    /// exercised to keep the merge machinery honest).
    ///
    /// # Panics
    /// If `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_cols(), "x length must equal n_cols");
        assert_eq!(y.len(), self.n_rows(), "y length must equal n_rows");
        let start = MergeCoordinate { row: 0, nz: 0 };
        let end = MergeCoordinate {
            row: self.n_rows(),
            nz: self.nnz(),
        };
        let carry = self.spmv_segment(start, end, x, y);
        debug_assert_eq!(carry.carry_row, self.n_rows());
        // A full sweep leaves no open row; carry is zero by construction.
    }

    /// Apply carries from an ordered set of segment results: each carry adds
    /// into its open row (which some later segment wrote, or which ends at
    /// the matrix boundary).
    pub fn apply_carries(&self, carries: &[SegmentCarry<T>], y: &mut [T]) {
        for c in carries {
            if c.carry_row < self.n_rows() {
                y[c.carry_row] += c.carry;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TripletBuilder;

    fn skewed_csr() -> CsrMatrix<f64> {
        // Row 0: 10 entries; rows 1..6: 1 entry; row 6: empty; row 7: 3.
        let mut b = TripletBuilder::new(8, 12);
        for c in 0..10 {
            b.push(0, c, (c + 1) as f64).unwrap();
        }
        for r in 1..6 {
            b.push(r, r, 2.0 * r as f64).unwrap();
        }
        for c in 4..7 {
            b.push(7, c, 1.5).unwrap();
        }
        b.build().to_csr()
    }

    #[test]
    fn coordinate_search_endpoints() {
        let csr = skewed_csr();
        let ends = &csr.row_ptr()[1..];
        let c0 = merge_path_search(0, ends, csr.nnz());
        assert_eq!(c0, MergeCoordinate { row: 0, nz: 0 });
        let cend = merge_path_search(csr.n_rows() + csr.nnz(), ends, csr.nnz());
        assert_eq!(
            cend,
            MergeCoordinate {
                row: csr.n_rows(),
                nz: csr.nnz()
            }
        );
    }

    #[test]
    fn coordinate_search_is_monotone_and_balanced() {
        let csr = skewed_csr();
        let m = MergeCsrMatrix::from_csr(&csr);
        let parts = 5;
        let cuts = m.partition(parts);
        assert_eq!(cuts.len(), parts + 1);
        let total = m.merge_items();
        for w in cuts.windows(2) {
            assert!(w[0].row <= w[1].row && w[0].nz <= w[1].nz);
            let work = (w[1].row - w[0].row) + (w[1].nz - w[0].nz);
            // Every segment consumes an equal share of merge items (+-1 from
            // integer division).
            assert!(work <= total / parts + 1, "work {work} not balanced");
        }
    }

    #[test]
    fn sequential_spmv_matches_csr() {
        let csr = skewed_csr();
        let m = MergeCsrMatrix::from_csr(&csr);
        let x: Vec<f64> = (0..12).map(|i| 0.25 * i as f64 - 1.0).collect();
        let mut y0 = vec![0.0; 8];
        let mut y1 = vec![0.0; 8];
        csr.spmv(&x, &mut y0);
        m.spmv(&x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn segmented_spmv_with_carries_matches_csr() {
        let csr = skewed_csr();
        let m = MergeCsrMatrix::from_csr(&csr);
        let x: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let mut expect = vec![0.0; 8];
        csr.spmv(&x, &mut expect);

        for parts in [1, 2, 3, 7, 18, 50] {
            let cuts = m.partition(parts);
            let mut y = vec![0.0; 8];
            let mut carries = Vec::new();
            for w in cuts.windows(2) {
                carries.push(m.spmv_segment(w[0], w[1], &x, &mut y));
            }
            m.apply_carries(&carries, &mut y);
            for (r, (a, b)) in expect.iter().zip(&y).enumerate() {
                assert!((a - b).abs() < 1e-12, "parts={parts} row={r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn empty_rows_write_zero() {
        let csr = skewed_csr();
        let m = MergeCsrMatrix::from_csr(&csr);
        let x = vec![1.0; 12];
        let mut y = vec![9.0; 8]; // poisoned
        m.spmv(&x, &mut y);
        assert_eq!(y[6], 0.0, "empty row must be written, not skipped");
    }

    #[test]
    fn merge_items_is_rows_plus_nnz() {
        let csr = skewed_csr();
        let m = MergeCsrMatrix::from_csr_owned(csr);
        assert_eq!(m.merge_items(), 8 + m.nnz());
        assert_eq!(m.storage_bytes(), m.csr().storage_bytes());
    }

    #[test]
    fn partition_more_parts_than_items() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0).unwrap();
        let m = MergeCsrMatrix::from_csr_owned(b.build().to_csr());
        let cuts = m.partition(16);
        let x = [2.0, 0.0];
        let mut y = [0.0, 0.0];
        let mut carries = Vec::new();
        for w in cuts.windows(2) {
            carries.push(m.spmv_segment(w[0], w[1], &x, &mut y));
        }
        m.apply_carries(&carries, &mut y);
        assert_eq!(y, [2.0, 0.0]);
    }
}
