//! Rule-based format selection: the advisor's last line of defense.
//!
//! When the learned model is unavailable (corrupt artifact) or produces a
//! non-finite / out-of-range output, [`crate::FormatAdvisor`] falls back to
//! this deterministic heuristic instead of failing the request. The rules
//! encode the folklore the paper's ML model formalizes: regular row lengths
//! favor ELL, heavy skew favors load-balanced CSR variants, and CSR is the
//! safe default for everything else.

use spmv_features::{FeatureId, FeatureVector};
use spmv_matrix::{CsrStructure, Format};

use crate::advisor::{Recommendation, RecommendationSource};

/// Stateless rule-based advisor. Needs no training, never fails, and is
/// fully deterministic — properties the model-backed path cannot promise
/// under fault injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicAdvisor;

impl HeuristicAdvisor {
    /// Recommend a format from row-length statistics alone.
    ///
    /// The confidence reflects how sharply the rule separates formats in
    /// the paper's measurements, not a calibrated probability: ELL on
    /// near-uniform rows is a strong call (0.7), the skew rules are weaker
    /// (0.5–0.6), and the CSR default is a coin-flip-plus (0.5). The
    /// rules read only the structure (a [`spmv_matrix::CsrMatrix`],
    /// [`spmv_matrix::PatternCsr`] or [`CsrStructure`]).
    pub fn recommend<'a>(&self, matrix: impl Into<CsrStructure<'a>>) -> Recommendation {
        let CsrStructure {
            n_rows,
            row_ptr,
            col_idx,
            ..
        } = matrix.into();
        let nnz = col_idx.len();
        if n_rows == 0 || nnz == 0 {
            return degenerate();
        }

        let mu = nnz as f64 / n_rows as f64;
        let mut var = 0.0f64;
        let mut max_len = 0usize;
        for w in row_ptr.windows(2) {
            let len = (w[1] - w[0]) as usize;
            max_len = max_len.max(len);
            let d = len as f64 - mu;
            var += d * d;
        }
        let sigma = (var / n_rows as f64).sqrt();
        rule(mu, sigma, max_len as f64)
    }

    /// [`HeuristicAdvisor::recommend`] from a pre-extracted feature vector:
    /// the rules only need the mean, standard deviation, and maximum of the
    /// per-row nnz counts, and those are features (`nnz_mu`, `nnz_sigma`,
    /// `nnz_max`). This is the fallback for serving-path requests that
    /// arrive as a bare feature vector, where no matrix exists to scan.
    ///
    /// Agrees with the matrix path on any vector produced by
    /// [`spmv_features::extract()`]: both plug the same three statistics into
    /// the same rules.
    pub fn recommend_features(&self, fv: &FeatureVector) -> Recommendation {
        let n_rows = fv.get(FeatureId::NRows);
        let nnz = fv.get(FeatureId::NnzTot);
        if n_rows <= 0.0 || nnz <= 0.0 {
            return degenerate();
        }
        rule(
            fv.get(FeatureId::NnzMu),
            fv.get(FeatureId::NnzSigma),
            fv.get(FeatureId::NnzMax),
        )
    }
}

/// Degenerate input: nothing to balance, CSR stores it with the least
/// ceremony. Low confidence flags "there was nothing to reason about" to
/// callers that inspect it.
fn degenerate() -> Recommendation {
    Recommendation {
        format: Format::Csr,
        source: RecommendationSource::Heuristic,
        confidence: 0.2,
    }
}

/// The shared rule table over per-row nnz statistics.
fn rule(mu: f64, sigma: f64, max_len: f64) -> Recommendation {
    let cv = sigma / mu.max(f64::MIN_POSITIVE);
    let skew = max_len / mu.max(f64::MIN_POSITIVE);

    let (format, confidence) = if cv < 0.25 && skew <= 2.0 {
        // Near-uniform rows: ELL padding is cheap and its coalesced
        // access pattern wins.
        (Format::Ell, 0.7)
    } else if skew > 8.0 || cv > 2.0 {
        // Pathological skew: merge-based CSR is the only format whose
        // work decomposition is insensitive to row-length outliers.
        (Format::MergeCsr, 0.6)
    } else if skew > 4.0 {
        // Moderate skew: HYB splits the regular part into ELL and
        // spills the long rows to COO.
        (Format::Hyb, 0.5)
    } else {
        (Format::Csr, 0.5)
    };
    Recommendation {
        format,
        source: RecommendationSource::Heuristic,
        confidence,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spmv_matrix::{CsrMatrix, TripletBuilder};

    fn matrix(rows: usize, cols: usize, entries: &[(usize, usize)]) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(rows, cols);
        for &(r, c) in entries {
            b.push(r, c, 1.0).unwrap();
        }
        b.build().to_csr()
    }

    #[test]
    fn uniform_rows_pick_ell() {
        // A banded matrix: every row has exactly 3 entries.
        let mut entries = Vec::new();
        for r in 0..50usize {
            for c in r.saturating_sub(1)..(r + 2).min(50) {
                entries.push((r, c));
            }
        }
        let rec = HeuristicAdvisor.recommend(&matrix(50, 50, &entries));
        assert_eq!(rec.format, Format::Ell);
        assert_eq!(rec.source, RecommendationSource::Heuristic);
        assert!(rec.confidence > 0.5);
    }

    #[test]
    fn one_dense_row_picks_a_load_balanced_format() {
        // One row holds almost everything: skew = max/mu is huge.
        let mut entries: Vec<(usize, usize)> = (0..100).map(|c| (0usize, c)).collect();
        for r in 1..100usize {
            entries.push((r, 0));
        }
        let rec = HeuristicAdvisor.recommend(&matrix(100, 100, &entries));
        assert_eq!(rec.format, Format::MergeCsr);
    }

    #[test]
    fn moderate_skew_picks_hyb() {
        // Rows of 2, one row of 11: skew ≈ 5, cv ≈ 0.9.
        let mut entries = Vec::new();
        for r in 0..40usize {
            entries.push((r, r % 40));
            entries.push((r, (r + 1) % 40));
        }
        for c in 10..20usize {
            entries.push((5, c + 20));
        }
        let rec = HeuristicAdvisor.recommend(&matrix(40, 40, &entries));
        assert_eq!(rec.format, Format::Hyb);
    }

    #[test]
    fn empty_matrix_degrades_to_low_confidence_csr() {
        let m: CsrMatrix<f64> = TripletBuilder::new(4, 4).build().to_csr();
        let rec = HeuristicAdvisor.recommend(&m);
        assert_eq!(rec.format, Format::Csr);
        assert!(rec.confidence < 0.3);
    }

    #[test]
    fn heuristic_is_deterministic() {
        let m = matrix(10, 10, &[(0, 0), (3, 4), (9, 9), (3, 3), (3, 7)]);
        let a = HeuristicAdvisor.recommend(&m);
        let b = HeuristicAdvisor.recommend(&m);
        assert_eq!(a, b);
    }
}
