//! Feature extraction: one O(nnz) pass over a CSR structure.

use serde::{Deserialize, Serialize};
use spmv_matrix::{CsrStructure, RowStats};

use crate::names::{FeatureId, FeatureSet, FEATURE_COUNT};

/// A dense vector of all seventeen features in canonical order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    values: [f64; FEATURE_COUNT],
}

impl FeatureVector {
    /// The all-zero vector — what [`extract`] produces for an empty
    /// matrix, and the placeholder a labeling pipeline records for a
    /// matrix whose extraction failed.
    pub fn zeros() -> FeatureVector {
        FeatureVector {
            values: [0.0; FEATURE_COUNT],
        }
    }

    /// Build a vector from seventeen values in canonical order. This is
    /// the entry point for *pre-extracted* features arriving from outside
    /// the process (the serving path accepts them in request bodies), so
    /// the caller is responsible for gating on [`FeatureVector::is_finite`]
    /// before trusting the result.
    pub fn from_values(values: [f64; FEATURE_COUNT]) -> FeatureVector {
        FeatureVector { values }
    }

    /// [`FeatureVector::from_values`] from a slice; `None` unless exactly
    /// [`FEATURE_COUNT`] values are given.
    pub fn from_slice(values: &[f64]) -> Option<FeatureVector> {
        let values: [f64; FEATURE_COUNT] = values.try_into().ok()?;
        Some(FeatureVector { values })
    }

    /// Whether every feature is finite. [`extract`] guarantees this for
    /// any structurally valid CSR matrix (features are pattern statistics,
    /// so NaN/Inf *values* cannot leak in), but model consumers gate on it
    /// before trusting a vector from an untrusted source.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Value of one feature.
    pub fn get(&self, f: FeatureId) -> f64 {
        self.values[f.index()]
    }

    /// All values in canonical order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Project onto a feature subset (column order = the set's order).
    pub fn project(&self, set: FeatureSet) -> Vec<f64> {
        set.features().iter().map(|&f| self.get(f)).collect()
    }

    /// Log-compressed copy: `sign(v) * ln(1 + |v|)` per feature. The count
    /// features span seven orders of magnitude across the corpus; models
    /// with scale-sensitive geometry (SVM, MLP) train on this.
    pub fn log1p(&self) -> FeatureVector {
        let mut values = self.values;
        for v in &mut values {
            *v = v.signum() * (1.0 + v.abs()).ln();
        }
        FeatureVector { values }
    }
}

/// Extract all seventeen features from a CSR matrix or structure (a
/// [`spmv_matrix::CsrMatrix`], [`spmv_matrix::PatternCsr`] or
/// [`CsrStructure`]). The features read no values.
pub fn extract<'a>(m: impl Into<CsrStructure<'a>>) -> FeatureVector {
    let m = m.into();
    extract_with_stats(m, &RowStats::of(m.row_ptr))
}

/// Extract all seventeen features, reusing row-length statistics already
/// computed elsewhere ([`RowStats::of`] over this matrix's `row_ptr`).
///
/// The labeling pipeline computes `RowStats` once per matrix to drive
/// format-structure derivation (ELL width, HYB threshold, CSR5 tiling) and
/// hands the same statistics here, so the feature sweep only pays for the
/// run analysis the stats don't cover. [`extract`] is this with freshly
/// computed stats; the two agree bit-for-bit.
pub fn extract_with_stats<'a>(m: impl Into<CsrStructure<'a>>, stats: &RowStats) -> FeatureVector {
    let CsrStructure {
        n_rows,
        n_cols,
        row_ptr,
        col_idx,
    } = m.into();
    let nnz = col_idx.len();
    debug_assert_eq!(stats.n_rows, n_rows, "stats must describe this matrix");
    debug_assert_eq!(stats.nnz, nnz, "stats must describe this matrix");

    // Per-row nnz statistics come from the shared single pass.
    let nnz_min = stats.min_row_len;
    let nnz_max = stats.max_row_len;
    let sum_sq = stats.sum_sq;
    // Per-row run ("contiguous nnz chunk") statistics.
    let mut runs_tot = 0usize;
    let mut runs_min = usize::MAX;
    let mut runs_max = 0usize;
    let mut runs_sum_sq = 0.0f64;
    // Run-size statistics (over all runs of the matrix).
    let mut size_min = usize::MAX;
    let mut size_max = 0usize;
    let mut size_sum = 0usize; // == nnz, kept for clarity of the mean
    let mut size_sum_sq = 0.0f64;

    for w in row_ptr.windows(2) {
        let cols = &col_idx[w[0] as usize..w[1] as usize];
        let len = cols.len();

        // Count contiguous column runs in this row.
        let mut row_runs = 0usize;
        let mut i = 0usize;
        while i < len {
            let mut j = i + 1;
            while j < len && cols[j] == cols[j - 1] + 1 {
                j += 1;
            }
            let size = j - i;
            row_runs += 1;
            size_min = size_min.min(size);
            size_max = size_max.max(size);
            size_sum += size;
            size_sum_sq += (size * size) as f64;
            i = j;
        }
        runs_tot += row_runs;
        runs_min = runs_min.min(row_runs);
        runs_max = runs_max.max(row_runs);
        runs_sum_sq += (row_runs * row_runs) as f64;
    }

    let rows_f = n_rows.max(1) as f64;
    let nnz_mu = nnz as f64 / rows_f;
    let nnz_sigma = (sum_sq / rows_f - nnz_mu * nnz_mu).max(0.0).sqrt();
    let runs_mu = runs_tot as f64 / rows_f;
    let runs_sigma = (runs_sum_sq / rows_f - runs_mu * runs_mu).max(0.0).sqrt();
    let n_runs_f = runs_tot.max(1) as f64;
    let size_mu = size_sum as f64 / n_runs_f;
    let size_sigma = (size_sum_sq / n_runs_f - size_mu * size_mu).max(0.0).sqrt();
    let cells = (n_rows as f64) * (n_cols as f64);
    // Table I reports density as a percentage; we follow that convention.
    let density = if cells > 0.0 {
        100.0 * nnz as f64 / cells
    } else {
        0.0
    };

    let zero_if_empty = |v: usize| if n_rows == 0 { 0 } else { v };
    let mut values = [0.0; FEATURE_COUNT];
    let mut set = |f: FeatureId, v: f64| values[f.index()] = v;
    set(FeatureId::NRows, n_rows as f64);
    set(FeatureId::NCols, n_cols as f64);
    set(FeatureId::NnzTot, nnz as f64);
    set(FeatureId::NnzMu, nnz_mu);
    set(FeatureId::NnzFrac, density);
    set(FeatureId::NnzMax, nnz_max as f64);
    set(FeatureId::NnzSigma, nnz_sigma);
    set(FeatureId::NnzbMu, runs_mu);
    set(FeatureId::NnzbSigma, runs_sigma);
    set(FeatureId::SnzbMu, size_mu);
    set(FeatureId::SnzbSigma, size_sigma);
    // RowStats stores 0 for an empty matrix, matching the previous
    // sentinel-then-zero_if_empty mapping exactly.
    set(FeatureId::NnzMin, nnz_min as f64);
    set(FeatureId::NnzbTot, runs_tot as f64);
    set(
        FeatureId::NnzbMin,
        zero_if_empty(if runs_min == usize::MAX { 0 } else { runs_min }) as f64,
    );
    set(FeatureId::NnzbMax, runs_max as f64);
    set(
        FeatureId::SnzbMin,
        if size_min == usize::MAX { 0 } else { size_min } as f64,
    );
    set(FeatureId::SnzbMax, size_max as f64);

    FeatureVector { values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{CsrMatrix, TripletBuilder};

    /// [1 1 0 1]    rows: len 3 (runs: [0,1],[3] -> 2 runs)
    /// [0 0 0 0]    len 0, 0 runs
    /// [1 1 1 1]    len 4, 1 run
    fn sample() -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(3, 4);
        for c in [0, 1, 3] {
            b.push(0, c, 1.0).unwrap();
        }
        for c in 0..4 {
            b.push(2, c, 1.0).unwrap();
        }
        b.build().to_csr()
    }

    #[test]
    fn set1_values() {
        let f = extract(&sample());
        assert_eq!(f.get(FeatureId::NRows), 3.0);
        assert_eq!(f.get(FeatureId::NCols), 4.0);
        assert_eq!(f.get(FeatureId::NnzTot), 7.0);
        assert!((f.get(FeatureId::NnzMu) - 7.0 / 3.0).abs() < 1e-12);
        assert!((f.get(FeatureId::NnzFrac) - 100.0 * 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn row_length_stats() {
        let f = extract(&sample());
        assert_eq!(f.get(FeatureId::NnzMax), 4.0);
        assert_eq!(f.get(FeatureId::NnzMin), 0.0);
        // lengths 3,0,4: mean 7/3, var = (9+0+16)/3 - 49/9 = 25/3-49/9=26/9
        let expect = (26.0f64 / 9.0).sqrt();
        assert!((f.get(FeatureId::NnzSigma) - expect).abs() < 1e-12);
    }

    #[test]
    fn run_stats() {
        let f = extract(&sample());
        // runs per row: 2, 0, 1 -> tot 3, mu 1, max 2, min 0
        assert_eq!(f.get(FeatureId::NnzbTot), 3.0);
        assert!((f.get(FeatureId::NnzbMu) - 1.0).abs() < 1e-12);
        assert_eq!(f.get(FeatureId::NnzbMax), 2.0);
        assert_eq!(f.get(FeatureId::NnzbMin), 0.0);
        // run sizes: 2, 1, 4 -> mu 7/3, min 1, max 4
        assert!((f.get(FeatureId::SnzbMu) - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(f.get(FeatureId::SnzbMin), 1.0);
        assert_eq!(f.get(FeatureId::SnzbMax), 4.0);
    }

    #[test]
    fn dense_row_is_one_run() {
        let mut b = TripletBuilder::new(1, 64);
        for c in 0..64 {
            b.push(0, c, 1.0).unwrap();
        }
        let f = extract(&b.build().to_csr());
        assert_eq!(f.get(FeatureId::NnzbTot), 1.0);
        assert_eq!(f.get(FeatureId::SnzbMax), 64.0);
        assert_eq!(f.get(FeatureId::NnzbSigma), 0.0);
    }

    #[test]
    fn scattered_row_is_all_singleton_runs() {
        let mut b = TripletBuilder::new(1, 100);
        for c in (0..100).step_by(2) {
            b.push(0, c, 1.0).unwrap();
        }
        let f = extract(&b.build().to_csr());
        assert_eq!(f.get(FeatureId::NnzbTot), 50.0);
        assert_eq!(f.get(FeatureId::SnzbMu), 1.0);
        assert_eq!(f.get(FeatureId::SnzbSigma), 0.0);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let m = CsrMatrix::<f32>::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        let f = extract(&m);
        assert!(f.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(f, FeatureVector::zeros());
    }

    #[test]
    fn degenerate_matrices_yield_finite_features() {
        // The guard the advisor relies on: no degenerate structure may
        // push a feature to NaN/Inf (0 rows, 0 nnz, one dense row, a
        // single cell, extreme row skew).
        let cases: Vec<CsrMatrix<f64>> = vec![
            CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]).unwrap(),
            CsrMatrix::from_parts(3, 5, vec![0, 0, 0, 0], vec![], vec![]).unwrap(),
            {
                let mut b = TripletBuilder::new(1, 1);
                b.push(0, 0, 1.0).unwrap();
                b.build().to_csr()
            },
            {
                // One dense row among 1000 empty ones.
                let mut b = TripletBuilder::new(1000, 1000);
                for c in 0..1000 {
                    b.push(17, c, 1.0).unwrap();
                }
                b.build().to_csr()
            },
        ];
        for (i, m) in cases.iter().enumerate() {
            let f = extract(m);
            assert!(f.is_finite(), "case {i}: {:?}", f.as_slice());
        }
    }

    #[test]
    fn non_finite_values_do_not_poison_features() {
        // Features are pattern statistics; a NaN/Inf *value* must not
        // reach any feature.
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, f64::NAN).unwrap();
        b.push(1, 1, f64::INFINITY).unwrap();
        let f = extract(&b.build().to_csr());
        assert!(f.is_finite());
        assert_eq!(f.get(FeatureId::NnzTot), 2.0);
    }

    #[test]
    fn extract_with_shared_stats_is_bit_identical() {
        let cases: Vec<CsrMatrix<f64>> = vec![
            sample(),
            CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]).unwrap(),
            CsrMatrix::from_parts(3, 5, vec![0, 0, 0, 0], vec![], vec![]).unwrap(),
            {
                let mut b = TripletBuilder::new(1000, 1000);
                for c in 0..1000 {
                    b.push(17, c, 1.0).unwrap();
                }
                b.build().to_csr()
            },
        ];
        for m in &cases {
            let stats = spmv_matrix::RowStats::of(m.row_ptr());
            assert_eq!(extract(m), extract_with_stats(m, &stats));
        }
    }

    #[test]
    fn projection_matches_set_order() {
        let f = extract(&sample());
        let p = f.project(FeatureSet::Set1);
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], 3.0); // n_rows first
        assert_eq!(p[2], 7.0); // nnz_tot third
        let imp = f.project(FeatureSet::Important);
        assert_eq!(imp.len(), 7);
        assert_eq!(imp[0], 3.0); // n_rows leads the imp. set too
        assert_eq!(imp[1], 4.0); // then nnz_max
    }

    #[test]
    fn log1p_compresses_monotonically() {
        let f = extract(&sample());
        let l = f.log1p();
        for (a, b) in f.as_slice().iter().zip(l.as_slice()) {
            assert!(*b <= *a + 1e-12);
            assert!((*a == 0.0) == (*b == 0.0));
        }
        assert!((l.get(FeatureId::NRows) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let f = extract(&sample());
        let json = serde_json::to_string(&f).unwrap();
        let back: FeatureVector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}
