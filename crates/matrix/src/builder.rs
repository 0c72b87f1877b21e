//! Triplet (coordinate-list) builder: the mutable entry point for assembling
//! sparse matrices before freezing them into a compute format.
//!
//! Generators and the MatrixMarket reader push `(row, col, value)` triplets in
//! arbitrary order; [`TripletBuilder::build_csr`] and [`TripletBuilder::build`]
//! sort them row-major, sum repeated coordinates (the MatrixMarket
//! convention), drop explicit zeros on request, and yield a canonical
//! [`CsrMatrix`] or [`CooMatrix`].
//!
//! # Algorithm
//!
//! A stable counting sort by row. A histogram of the row indices gives the
//! row pointers; each push then lands in its row's bucket as the key
//! `(col << 32) | push_index`, so a bucket holds its row in push order. A
//! bucket is sorted only if it is out of order, and since push indices are
//! unique, sorting the keys orders a row by column and, within a column, by
//! push order. No comparison sort ever runs over the whole matrix.
//!
//! # Duplicate-sum contract
//!
//! The value stored at a repeated coordinate is the left fold of its pushed
//! values in push order, `((v0 + v1) + v2) + ...`. A coordinate whose sum is
//! exactly zero is then dropped like any explicit zero, unless zeros are kept.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{MatrixError, Result};
use crate::scalar::Scalar;
use crate::structure::PatternCsr;

/// Accumulates `(row, col, value)` triplets for a matrix of fixed shape.
#[derive(Debug, Clone)]
pub struct TripletBuilder<T> {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
    keep_explicit_zeros: bool,
}

impl<T: Scalar> TripletBuilder<T> {
    /// New builder for an `n_rows x n_cols` matrix.
    ///
    /// # Panics
    /// If either dimension exceeds `u32::MAX` (indices are stored as `u32`).
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        assert!(
            n_rows <= u32::MAX as usize && n_cols <= u32::MAX as usize,
            "matrix dimensions must fit in u32"
        );
        Self {
            n_rows,
            n_cols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            keep_explicit_zeros: false,
        }
    }

    /// Pre-allocate space for `nnz` triplets.
    pub fn with_capacity(n_rows: usize, n_cols: usize, nnz: usize) -> Self {
        let mut b = Self::new(n_rows, n_cols);
        b.rows.reserve(nnz);
        b.cols.reserve(nnz);
        b.vals.reserve(nnz);
        b
    }

    /// Keep entries whose value is exactly zero (default: dropped at build).
    pub fn keep_explicit_zeros(mut self, keep: bool) -> Self {
        self.keep_explicit_zeros = keep;
        self
    }

    /// Number of triplets pushed so far (before dedup).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Declared shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows, self.n_cols)
    }

    /// Push one triplet, validating bounds.
    pub fn push(&mut self, row: usize, col: usize, val: T) -> Result<()> {
        if row >= self.n_rows || col >= self.n_cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                n_rows: self.n_rows,
                n_cols: self.n_cols,
            });
        }
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(val);
        Ok(())
    }

    /// Push one triplet without bounds checking (caller guarantees validity).
    ///
    /// Generators that produce indices from the shape by construction use this
    /// to avoid per-entry branches on multi-million-nnz matrices.
    #[inline]
    pub fn push_unchecked(&mut self, row: u32, col: u32, val: T) {
        debug_assert!((row as usize) < self.n_rows && (col as usize) < self.n_cols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Freeze into a canonical [`CsrMatrix`]: rows sorted by column,
    /// duplicate coordinates summed in push order, explicit zeros dropped
    /// (unless kept).
    pub fn build_csr(self) -> CsrMatrix<T> {
        self.assemble().0
    }

    /// [`build_csr`](Self::build_csr) for input that may not repeat a
    /// coordinate: `Err((row, col))` names the row-major-first coordinate
    /// pushed more than once.
    pub(crate) fn build_csr_unique(self) -> std::result::Result<CsrMatrix<T>, (usize, usize)> {
        match self.assemble() {
            (m, None) => Ok(m),
            (_, Some(repeat)) => Err(repeat),
        }
    }

    /// Freeze into a canonical [`CooMatrix`]: the same pass as
    /// [`build_csr`](Self::build_csr), with the row pointers expanded to
    /// one row index per entry.
    pub fn build(self) -> CooMatrix<T> {
        self.build_csr().into_coo()
    }

    /// The counting sort of the module docs with each run folded, and the
    /// row-major-first coordinate pushed more than once, if any.
    fn assemble(self) -> (CsrMatrix<T>, Option<(usize, usize)>) {
        let TripletBuilder {
            n_rows,
            n_cols,
            rows,
            cols,
            vals,
            keep_explicit_zeros,
        } = self;
        let mut out_vals = Vec::with_capacity(vals.len());
        let (ptr, out_cols, repeat) = sort_rows(n_rows, rows, cols, |run| {
            let mut pushed = run.iter().map(|&key| vals[key as u32 as usize]);
            let first = pushed.next().expect("chunks are non-empty");
            let sum = pushed.fold(first, |sum, v| sum + v);
            let keep = keep_explicit_zeros || sum != T::ZERO;
            if keep {
                out_vals.push(sum);
            }
            keep
        });
        let m = CsrMatrix::from_parts_unchecked(n_rows, n_cols, ptr, out_cols, out_vals);
        (m, repeat)
    }
}

/// The counting sort of the module docs over pushed `(rows, cols)`. Each
/// run of one coordinate, as its keys `(col << 32) | push_index` in push
/// order, goes to `keep`, which says whether the coordinate is stored.
/// Returns the row pointers, the stored column indices, and the
/// row-major-first coordinate pushed more than once, if any.
fn sort_rows(
    n_rows: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    mut keep: impl FnMut(&[u64]) -> bool,
) -> (Vec<u32>, Vec<u32>, Option<(usize, usize)>) {
    assert!(
        rows.len() <= u32::MAX as usize,
        "triplet count must fit in u32"
    );

    // ptr[r + 1] counts row r; the prefix sum makes ptr[r] its bucket start.
    let mut ptr = vec![0u32; n_rows + 1];
    for &r in &rows {
        ptr[r as usize + 1] += 1;
    }
    for r in 0..n_rows {
        ptr[r + 1] += ptr[r];
    }
    // Scatter with ptr[r] as row r's cursor; afterwards ptr[r] holds the
    // end of bucket r, i.e. the start of bucket r + 1.
    let mut keys = vec![0u64; rows.len()];
    for (i, (&r, &c)) in rows.iter().zip(&cols).enumerate() {
        let slot = &mut ptr[r as usize];
        keys[*slot as usize] = ((c as u64) << 32) | i as u64;
        *slot += 1;
    }
    drop((rows, cols));

    // Sort and fold each bucket. Once bucket r is read, ptr[r] is free
    // and takes the output end of row r; a rotation then turns the ends
    // into row pointers.
    let mut out_cols = Vec::with_capacity(keys.len());
    let mut repeat = None;
    let mut lo = 0;
    for (row, end) in ptr[..n_rows].iter_mut().enumerate() {
        let hi = *end as usize;
        let bucket = &mut keys[lo..hi];
        if bucket.windows(2).any(|w| w[0] > w[1]) {
            bucket.sort_unstable();
        }
        for run in bucket.chunk_by(|a, b| a >> 32 == b >> 32) {
            if run.len() > 1 && repeat.is_none() {
                repeat = Some((row, (run[0] >> 32) as usize));
            }
            if keep(run) {
                out_cols.push((run[0] >> 32) as u32);
            }
        }
        *end = out_cols.len() as u32;
        lo = hi;
    }
    ptr.rotate_right(1);
    ptr[0] = 0;
    (ptr, out_cols, repeat)
}

/// [`TripletBuilder`] without a value plane: each pushed coordinate
/// carries only whether its value is exactly zero. This is all a file that
/// may not repeat a coordinate needs to fix its structure, so the
/// MatrixMarket structure reader builds with it.
#[derive(Debug)]
pub(crate) struct PatternBuilder {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    /// Push indices of the zero-valued entries, ascending.
    zeros: Vec<u32>,
    /// Whether each push so far came after the one before it in row-major
    /// order: the pushes are then CSR order already, without a repeat.
    ordered: bool,
    /// The least `(row << 32) | col` key the next push needs to keep
    /// `ordered`.
    next_key: u64,
}

impl PatternBuilder {
    /// New builder for an `n_rows x n_cols` pattern with room for `nnz`
    /// entries; the dimensions must fit in `u32`.
    pub(crate) fn with_capacity(n_rows: usize, n_cols: usize, nnz: usize) -> PatternBuilder {
        debug_assert!(n_rows <= u32::MAX as usize && n_cols <= u32::MAX as usize);
        PatternBuilder {
            n_rows,
            n_cols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            zeros: Vec::new(),
            ordered: true,
            next_key: 0,
        }
    }

    /// Push one coordinate and whether its value is zero, validating bounds
    /// as [`TripletBuilder::push`] does.
    pub(crate) fn push(&mut self, row: usize, col: usize, zero: bool) -> Result<()> {
        if row >= self.n_rows || col >= self.n_cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                n_rows: self.n_rows,
                n_cols: self.n_cols,
            });
        }
        let key = ((row as u64) << 32) | col as u64;
        self.ordered &= key >= self.next_key;
        self.next_key = key + 1;
        if zero {
            self.zeros.push(self.rows.len() as u32);
        }
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        Ok(())
    }

    /// Freeze into a [`PatternCsr`] without the zero-valued coordinates;
    /// `Err((row, col))` names the row-major-first coordinate pushed more
    /// than once, zero or not. (A repeated coordinate's sum is unknown
    /// here, so it is stored if any of its pushes is non-zero.)
    pub(crate) fn build_unique(self) -> std::result::Result<PatternCsr, (usize, usize)> {
        let PatternBuilder {
            n_rows,
            n_cols,
            rows,
            mut cols,
            zeros,
            ordered,
            ..
        } = self;
        if !ordered {
            let nonzero = |key: &u64| zeros.binary_search(&(*key as u32)).is_err();
            return match sort_rows(n_rows, rows, cols, |run| run.iter().any(nonzero)) {
                (ptr, cols, None) => {
                    Ok(PatternCsr::from_parts_unchecked(n_rows, n_cols, ptr, cols))
                }
                (_, _, Some(repeat)) => Err(repeat),
            };
        }
        // Already in CSR order: count the rows and close the zeros' gaps.
        let mut ptr = vec![0u32; n_rows + 1];
        let mut zeros = zeros.into_iter().peekable();
        let mut kept = 0;
        for (i, &r) in rows.iter().enumerate() {
            if zeros.next_if_eq(&(i as u32)).is_none() {
                ptr[r as usize + 1] += 1;
                cols[kept] = cols[i];
                kept += 1;
            }
        }
        cols.truncate(kept);
        for r in 0..n_rows {
            ptr[r + 1] += ptr[r];
        }
        Ok(PatternCsr::from_parts_unchecked(n_rows, n_cols, ptr, cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_row_major() {
        let mut b = TripletBuilder::<f64>::new(3, 3);
        b.push(2, 0, 1.0).unwrap();
        b.push(0, 2, 2.0).unwrap();
        b.push(0, 1, 3.0).unwrap();
        b.push(1, 1, 4.0).unwrap();
        let m = b.build();
        assert_eq!(m.row_indices(), &[0, 0, 1, 2]);
        assert_eq!(m.col_indices(), &[1, 2, 1, 0]);
        assert_eq!(m.values(), &[3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn duplicates_sum() {
        let mut b = TripletBuilder::<f32>::new(2, 2);
        b.push(1, 1, 1.5).unwrap();
        b.push(1, 1, 2.5).unwrap();
        b.push(0, 0, 1.0).unwrap();
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.values(), &[1.0, 4.0]);
    }

    #[test]
    fn duplicates_sum_in_push_order() {
        // (1e16 + 1) rounds back to 1e16, so only the push order decides
        // whether the 1.0 survives.
        let mut b = TripletBuilder::<f64>::new(1, 2).keep_explicit_zeros(true);
        b.push(0, 1, 1e16).unwrap();
        b.push(0, 0, 2.0).unwrap();
        b.push(0, 1, 1.0).unwrap();
        b.push(0, 1, -1e16).unwrap();
        assert_eq!(b.clone().build().values(), &[2.0, 0.0]);
        // The cell sums to exactly zero, so by default it is dropped.
        let csr = b.keep_explicit_zeros(false).build_csr();
        assert_eq!(csr.col_idx(), &[0]);

        let mut c = TripletBuilder::<f64>::new(1, 2);
        c.push(0, 1, 1e16).unwrap();
        c.push(0, 1, -1e16).unwrap();
        c.push(0, 1, 1.0).unwrap();
        assert_eq!(c.build_csr().values(), &[1.0]);
    }

    #[test]
    fn build_csr_matches_build() {
        let mut b = TripletBuilder::<f64>::new(4, 3);
        for (r, c, v) in [
            (3, 2, 1.0),
            (1, 0, 2.0),
            (3, 0, 3.0),
            (1, 0, 4.0),
            (0, 1, 0.0),
        ] {
            b.push(r, c, v).unwrap();
        }
        let csr = b.clone().build_csr();
        assert_eq!(csr.row_ptr(), &[0, 0, 1, 1, 3]);
        assert_eq!(csr.col_idx(), &[0, 0, 2]);
        assert_eq!(csr.values(), &[6.0, 3.0, 1.0]);
        assert_eq!(b.build().to_csr(), csr);
    }

    #[test]
    fn explicit_zeros_dropped_by_default() {
        let mut b = TripletBuilder::<f64>::new(2, 2);
        b.push(0, 0, 0.0).unwrap();
        b.push(0, 1, 1.0).unwrap();
        // two entries cancelling also vanish
        b.push(1, 0, 2.0).unwrap();
        b.push(1, 0, -2.0).unwrap();
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.col_indices(), &[1]);
    }

    #[test]
    fn explicit_zeros_kept_on_request() {
        let mut b = TripletBuilder::<f64>::new(2, 2).keep_explicit_zeros(true);
        b.push(0, 0, 0.0).unwrap();
        let m = b.build();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut b = TripletBuilder::<f64>::new(2, 2);
        assert!(b.push(2, 0, 1.0).is_err());
        assert!(b.push(0, 2, 1.0).is_err());
        assert!(b.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn empty_build() {
        let m = TripletBuilder::<f64>::new(4, 5).build();
        assert_eq!(m.shape(), (4, 5));
        assert_eq!(m.nnz(), 0);
    }

    /// The pattern of `entries` through [`PatternBuilder`].
    fn pattern(
        entries: &[(usize, usize, bool)],
    ) -> std::result::Result<PatternCsr, (usize, usize)> {
        let mut b = PatternBuilder::with_capacity(3, 4, entries.len());
        for &(r, c, zero) in entries {
            b.push(r, c, zero).unwrap();
        }
        b.build_unique()
    }

    #[test]
    fn pattern_builder_drops_zeros_in_and_out_of_order() {
        let sorted = [
            (0, 1, false),
            (0, 3, true),
            (1, 0, false),
            (2, 2, true),
            (2, 3, false),
        ];
        let mut shuffled = sorted;
        shuffled.reverse();
        let mut b = TripletBuilder::<f64>::new(3, 4);
        for &(r, c, zero) in &sorted {
            b.push(r, c, if zero { 0.0 } else { 1.0 }).unwrap();
        }
        let expected = b.build_csr().into_pattern();
        assert_eq!(pattern(&sorted), Ok(expected.clone()));
        assert_eq!(pattern(&shuffled), Ok(expected));
    }

    #[test]
    fn pattern_builder_names_the_first_repeat_zero_or_not() {
        // In push order and out of it, (1, 0) repeats first in row-major
        // order, though (2, 2) repeats first in push order.
        let entries = [(2, 2, false), (2, 2, true), (1, 0, true), (1, 0, false)];
        assert_eq!(pattern(&entries), Err((1, 0)));
        assert_eq!(pattern(&[(0, 0, true), (0, 0, false)]), Err((0, 0)));
    }

    #[test]
    fn capacity_and_len() {
        let mut b = TripletBuilder::<f64>::with_capacity(2, 2, 8);
        assert!(b.is_empty());
        b.push(0, 0, 1.0).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.shape(), (2, 2));
    }
}
