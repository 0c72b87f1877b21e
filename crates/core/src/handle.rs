//! The shared serving surface: one advisor handle, one response shape,
//! one serializer — used identically by the `spmv-advisor` one-shot CLI
//! (`--json`) and the `spmv-serve` inference server, so both emit
//! byte-identical recommendation JSON for the same input.
//!
//! [`AdvisorHandle`] wraps either a trained [`FormatAdvisor`] or the
//! rule-based [`HeuristicAdvisor`]. The heuristic backend is not an error
//! state: it is the documented graceful-degradation mode a server boots
//! into when its model artifact is missing, corrupt, or stale
//! (DESIGN.md §4e's fault taxonomy, applied at process scope). Every
//! response names its `source`, so clients can always tell which path
//! answered.
//!
//! ## Determinism
//!
//! [`RecommendResponse::to_json`] is hand-rolled with a fixed key order
//! and Rust's shortest-roundtrip float formatting, so the same
//! recommendation always serializes to the same bytes — the property the
//! serve-path cache and the 1-vs-4-worker manifest diffs in CI rely on.

use std::path::Path;

use spmv_features::{extract, FeatureVector};
use spmv_matrix::{CsrMatrix, CsrStructure, Format, Scalar};

use crate::advisor::{ArtifactError, FormatAdvisor, Recommendation, RecommendationSource};
use crate::heuristic::HeuristicAdvisor;

/// Which implementation answers recommendations.
pub enum AdvisorBackend {
    /// A trained (or loaded) model advisor.
    Model(Box<FormatAdvisor>),
    /// The rule-based fallback, serving because the model path was
    /// unavailable at construction (or by explicit choice).
    Heuristic {
        /// Why the handle degraded (`None` when heuristic-by-choice).
        reason: Option<String>,
    },
}

/// A process-wide advisor: load/train once, answer many times.
///
/// This is the object a long-lived server shares across its worker pool
/// (all methods take `&self`; the wrapped advisor is immutable after
/// construction, so no lock is needed).
pub struct AdvisorHandle {
    backend: AdvisorBackend,
}

impl AdvisorHandle {
    /// Wrap an already trained or loaded advisor.
    pub fn from_advisor(advisor: FormatAdvisor) -> AdvisorHandle {
        AdvisorHandle {
            backend: AdvisorBackend::Model(Box::new(advisor)),
        }
    }

    /// A handle that answers from the rule-based heuristic only (no model
    /// artifact, no training). Responses carry no predicted times.
    pub fn heuristic() -> AdvisorHandle {
        AdvisorHandle {
            backend: AdvisorBackend::Heuristic { reason: None },
        }
    }

    /// Load a model artifact, **degrading instead of failing**: a missing,
    /// corrupt, foreign, or stale artifact yields a heuristic-backed handle
    /// that records why (and bumps `advisor.degraded_boot`). This is the
    /// server boot path; use [`AdvisorHandle::try_from_artifact`] where a
    /// bad artifact must be a hard error (the CLI's exit-code contract).
    pub fn from_artifact(path: &Path) -> AdvisorHandle {
        match Self::try_from_artifact(path) {
            Ok(handle) => handle,
            Err(e) => {
                spmv_observe::counter("advisor.degraded_boot", 1);
                AdvisorHandle {
                    backend: AdvisorBackend::Heuristic {
                        reason: Some(format!("{}: {e}", path.display())),
                    },
                }
            }
        }
    }

    /// Load a model artifact, surfacing rejection as a typed error.
    pub fn try_from_artifact(path: &Path) -> Result<AdvisorHandle, ArtifactError> {
        FormatAdvisor::load(path).map(Self::from_advisor)
    }

    /// `"model"` or `"heuristic"` — the backend actually serving. Note a
    /// model backend can still answer individual requests heuristically
    /// (per-request fallback); that shows in the response `source`.
    pub fn mode(&self) -> &'static str {
        match &self.backend {
            AdvisorBackend::Model(_) => "model",
            AdvisorBackend::Heuristic { .. } => "heuristic",
        }
    }

    /// Why the handle is heuristic-backed, if it degraded at construction.
    pub fn degraded_reason(&self) -> Option<&str> {
        match &self.backend {
            AdvisorBackend::Heuristic {
                reason: Some(reason),
            } => Some(reason),
            _ => None,
        }
    }

    /// GPU-model version of the wrapped advisor (`None` in heuristic mode).
    pub fn model_version(&self) -> Option<u32> {
        match &self.backend {
            AdvisorBackend::Model(a) => Some(a.model_version()),
            AdvisorBackend::Heuristic { .. } => None,
        }
    }

    /// The wrapped model advisor (`None` in heuristic mode). The online
    /// retrainer uses this to borrow the active generation's advisor as
    /// the retrain base; request paths never need it.
    pub fn advisor(&self) -> Option<&FormatAdvisor> {
        match &self.backend {
            AdvisorBackend::Model(a) => Some(a),
            AdvisorBackend::Heuristic { .. } => None,
        }
    }

    /// The checksum the wrapped advisor's artifact envelope would carry
    /// (`None` in heuristic mode, or if serialization fails). `/healthz`
    /// discloses this so operators can match a serving process to an
    /// artifact in storage without touching the filesystem.
    pub fn artifact_checksum(&self) -> Option<String> {
        match &self.backend {
            AdvisorBackend::Model(a) => a.artifact_checksum().ok(),
            AdvisorBackend::Heuristic { .. } => None,
        }
    }

    /// Recommend for a parsed matrix: [`AdvisorHandle::recommend_structure`]
    /// over its structure, since no answer depends on the values.
    pub fn recommend_csr<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> RecommendResponse {
        self.recommend_structure(matrix.into())
    }

    /// Recommend for a matrix structure. Extracts features once and runs
    /// both the classifier and the time regressor on the same vector, so
    /// the answer matches [`FormatAdvisor::recommend`] +
    /// [`FormatAdvisor::predict_times`] bit for bit.
    pub fn recommend_structure(&self, structure: CsrStructure<'_>) -> RecommendResponse {
        match &self.backend {
            AdvisorBackend::Model(_) => self.recommend_features(&extract(structure)),
            AdvisorBackend::Heuristic { .. } => {
                respond(HeuristicAdvisor.recommend(structure), None)
            }
        }
    }

    /// Recommend for a pre-extracted feature vector (the serving path's
    /// cheap mode: the client ran extraction, only 17 floats travel).
    pub fn recommend_features(&self, fv: &FeatureVector) -> RecommendResponse {
        match &self.backend {
            AdvisorBackend::Model(a) => {
                respond(a.recommend_features(fv), Some(a.predict_times_features(fv)))
            }
            AdvisorBackend::Heuristic { .. } => {
                respond(HeuristicAdvisor.recommend_features(fv), None)
            }
        }
    }
}

fn respond(rec: Recommendation, times: Option<Vec<(Format, f64)>>) -> RecommendResponse {
    RecommendResponse {
        format: rec.format,
        source: rec.source,
        confidence: rec.confidence,
        predicted_times: times,
    }
}

/// The one recommendation shape both surfaces emit.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendResponse {
    /// The recommended storage format.
    pub format: Format,
    /// Which path produced the answer (model or per-request fallback).
    pub source: RecommendationSource,
    /// In `[0, 1]`; comparable within a source, not across sources.
    pub confidence: f64,
    /// Predicted SpMV seconds per format, best first — `None` when the
    /// heuristic backend answered (it has no time model).
    pub predicted_times: Option<Vec<(Format, f64)>>,
}

/// A finite `f64` in Rust's shortest-roundtrip decimal form (never
/// scientific notation, so always valid JSON); non-finite values — the
/// clamped `predict_times` sentinel — become `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

impl RecommendResponse {
    /// Serialize to one compact JSON line (no trailing newline) with a
    /// fixed key order:
    ///
    /// ```json
    /// {"format":"ELL","source":"model","confidence":0.93,
    ///  "predicted_times":[{"format":"ELL","seconds":0.0000012},…]}
    /// ```
    ///
    /// Deterministic by construction: key order is hard-coded, format
    /// labels are `'static`, floats use shortest-roundtrip formatting.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"format\":\"");
        out.push_str(self.format.label());
        out.push_str("\",\"source\":\"");
        out.push_str(match self.source {
            RecommendationSource::Model => "model",
            RecommendationSource::Heuristic => "heuristic",
        });
        out.push_str("\",\"confidence\":");
        push_f64(&mut out, self.confidence);
        out.push_str(",\"predicted_times\":");
        match &self.predicted_times {
            None => out.push_str("null"),
            Some(times) => {
                out.push('[');
                for (i, (fmt, secs)) in times.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"format\":\"");
                    out.push_str(fmt.label());
                    out.push_str("\",\"seconds\":");
                    push_f64(&mut out, *secs);
                    out.push('}');
                }
                out.push(']');
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn banded_matrix() -> CsrMatrix<f64> {
        let mut b = spmv_matrix::TripletBuilder::new(200, 200);
        for r in 0..200usize {
            for c in r.saturating_sub(2)..(r + 3).min(200) {
                b.push_unchecked(r as u32, c as u32, 1.0);
            }
        }
        b.build().to_csr()
    }

    #[test]
    fn heuristic_handle_answers_without_times() {
        let h = AdvisorHandle::heuristic();
        assert_eq!(h.mode(), "heuristic");
        assert_eq!(h.model_version(), None);
        assert_eq!(h.degraded_reason(), None);
        let resp = h.recommend_csr(&banded_matrix());
        assert_eq!(resp.format, Format::Ell);
        assert_eq!(resp.source, RecommendationSource::Heuristic);
        assert!(resp.predicted_times.is_none());
    }

    #[test]
    fn matrix_and_feature_paths_agree_bit_for_bit() {
        let h = AdvisorHandle::heuristic();
        let m = banded_matrix();
        let fv = extract(&m);
        assert_eq!(
            h.recommend_csr(&m).to_json(),
            h.recommend_features(&fv).to_json()
        );
    }

    #[test]
    fn missing_artifact_degrades_with_a_reason() {
        let path = std::env::temp_dir().join("spmv_handle_no_such_artifact.json");
        std::fs::remove_file(&path).ok();
        let h = AdvisorHandle::from_artifact(&path);
        assert_eq!(h.mode(), "heuristic");
        assert!(h.degraded_reason().is_some());
        // A degraded handle still serves.
        let resp = h.recommend_csr(&banded_matrix());
        assert_eq!(resp.source, RecommendationSource::Heuristic);
    }

    #[test]
    fn dataflow_artifact_degrades_with_the_kind_named() {
        // The serving boundary is format-kinded: a dataflow artifact must
        // degrade the handle (not misload), and the reason must name the
        // kind gate so `/healthz`-style disclosure says what happened.
        use crate::dataflow::DataflowAdvisor;
        use crate::env::{ArchSet, Env, LabelEnvironment, Scenario, ScenarioOp};
        use crate::faults::FaultPlan;
        use spmv_corpus::{CorpusScale, SyntheticSuite};

        let sc = Scenario {
            op: ScenarioOp::SpgemmAA,
            archs: ArchSet::PaperGpus,
        };
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 47);
        let corpus = crate::labels::LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(sc),
            2,
            &FaultPlan::none(),
        );
        let advisor = DataflowAdvisor::train_for_scenario(
            &corpus,
            sc,
            Env::ALL[1],
            crate::classify::SearchBudget::Quick,
        )
        .unwrap();
        let path = std::env::temp_dir().join("spmv_handle_dataflow_artifact.json");
        advisor.save(&path).unwrap();

        assert!(matches!(
            AdvisorHandle::try_from_artifact(&path),
            Err(ArtifactError::KindMismatch { .. })
        ));
        let h = AdvisorHandle::from_artifact(&path);
        assert_eq!(h.mode(), "heuristic");
        let reason = h.degraded_reason().unwrap_or_default();
        assert!(
            reason.contains("advisor-kind mismatch"),
            "degraded reason must name the kind gate, got: {reason}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_artifact_degrades_but_try_errors() {
        let path = std::env::temp_dir().join("spmv_handle_corrupt_artifact.json");
        std::fs::write(&path, b"{not an artifact").unwrap();
        assert!(AdvisorHandle::try_from_artifact(&path).is_err());
        let h = AdvisorHandle::from_artifact(&path);
        assert_eq!(h.mode(), "heuristic");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_shape_is_fixed_and_deterministic() {
        let resp = RecommendResponse {
            format: Format::Csr5,
            source: RecommendationSource::Model,
            confidence: 0.9375,
            predicted_times: Some(vec![(Format::Csr5, 1.25e-6), (Format::Csr, f64::INFINITY)]),
        };
        assert_eq!(
            resp.to_json(),
            "{\"format\":\"CSR5\",\"source\":\"model\",\"confidence\":0.9375,\
             \"predicted_times\":[{\"format\":\"CSR5\",\"seconds\":0.00000125},\
             {\"format\":\"CSR\",\"seconds\":null}]}"
        );
        assert_eq!(resp.to_json(), resp.clone().to_json());
    }

    #[test]
    fn heuristic_json_has_null_times() {
        let resp = RecommendResponse {
            format: Format::Csr,
            source: RecommendationSource::Heuristic,
            confidence: 0.5,
            predicted_times: None,
        };
        assert!(resp.to_json().ends_with("\"predicted_times\":null}"));
    }
}
