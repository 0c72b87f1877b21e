//! The SpGEMM dataflow advisor: the format-selection thesis transferred
//! to dataflow selection.
//!
//! A [`DataflowAdvisor`] classifies which of the four SpGEMM dataflows
//! ([`Dataflow::ALL`]) will run fastest for one `(scenario, env)` cell.
//! Its input row is NOT the format advisor's: alongside the projected
//! `imp.` matrix features it consumes the **symbolic dataflow block** —
//! per-record output-structure estimates (row-flop distribution, sampled
//! compression, upper-bound tightness) that vary per matrix, where a
//! scenario descriptor is constant per cell. That is why this is its own
//! type rather than a `FormatAdvisor` configuration: the extra block
//! travels with every recommendation request, and the artifact envelope
//! records kind [`ARTIFACT_KIND_DATAFLOW`] so the two advisor kinds can
//! never deserialize each other's payloads.
//!
//! Like the format advisor this is a deployment boundary: nothing here
//! panics on bad input, artifacts travel in the same versioned,
//! checksummed envelope, and a broken model path degrades to a rule-based
//! fallback that says so.

use spmv_features::{FeatureSet, FeatureVector, DATAFLOW_FEATURE_COUNT};
use spmv_gpusim::{Dataflow, N_DATAFLOWS};
use spmv_ml::{Classifier, FeatureMatrix, GbtClassifier};

use crate::advisor::{
    classify_row, AdvisorError, Artifact, ArtifactError, RecommendationSource,
    ARTIFACT_KIND_DATAFLOW,
};
use crate::classify::{xgboost, SearchBudget};
use crate::env::{Env, Scenario};
use crate::faults::FaultPlan;
use crate::labels::LabeledCorpus;

/// A dataflow recommendation with its provenance, the dataflow analog of
/// [`crate::advisor::Recommendation`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DataflowRecommendation {
    /// The recommended SpGEMM dataflow.
    pub dataflow: Dataflow,
    /// Which path produced the answer.
    pub source: RecommendationSource,
    /// In `[0, 1]`; comparable within a source, not across sources.
    pub confidence: f64,
}

/// The rule-based fallback when the model path fails: row-wise Gustavson
/// with a hash accumulator unless the symbolic block clearly argues
/// otherwise — a nearly dense output upper bound favors the dense
/// accumulator (direct indexing beats probing when resets are useful
/// work), and extreme row skew favors the sort-based dataflow (ESC is the
/// only imbalance-tolerant one). Mirrors the cost models' dominant terms.
pub fn heuristic_dataflow(extra: &[f64]) -> DataflowRecommendation {
    let ub_density = extra.get(7).copied().unwrap_or(0.0);
    let row_skew = extra.get(3).copied().unwrap_or(1.0);
    let dataflow = if ub_density > 0.5 {
        Dataflow::GustavsonDense
    } else if row_skew > 64.0 {
        Dataflow::Esc
    } else {
        Dataflow::GustavsonHash
    };
    DataflowRecommendation {
        dataflow,
        source: RecommendationSource::Heuristic,
        confidence: 0.25,
    }
}

/// A trained SpGEMM dataflow advisor for one `(scenario, env)` cell.
/// Serializable through the same envelope discipline as
/// [`crate::advisor::FormatAdvisor`], under its own artifact kind.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct DataflowAdvisor {
    env: Env,
    set: FeatureSet,
    /// Tag of the scenario cell the training labels came from.
    scenario_tag: String,
    classifier: GbtClassifier,
    /// GPU-model version the training labels were measured under.
    #[serde(default)]
    model_version: u32,
}

impl DataflowAdvisor {
    /// Train on a dataflow-labeled corpus (one SpGEMM scenario cell) for
    /// one env row. Rows are the projected `imp.` features plus each
    /// record's symbolic dataflow block; the class label is the fastest
    /// dataflow. Returns `None` when no record is usable (incomplete
    /// dataflow grid or missing extra block) — never a panicking fit.
    pub fn train_for_scenario(
        corpus: &LabeledCorpus,
        scenario: Scenario,
        env: Env,
        budget: SearchBudget,
    ) -> Option<DataflowAdvisor> {
        let _span = spmv_observe::span!(
            "advisor/train_dataflow",
            corpus = corpus.records.len() as u64
        );
        let set = FeatureSet::Important;
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for r in &corpus.records {
            if r.extra.len() != DATAFLOW_FEATURE_COUNT || !r.complete_slots(N_DATAFLOWS) {
                continue;
            }
            let Some(best) = r.best_slot(env, N_DATAFLOWS) else {
                continue;
            };
            let mut row = r.features.project(set);
            row.extend_from_slice(&r.extra);
            if row.iter().any(|v| !v.is_finite()) {
                continue;
            }
            rows.push(row);
            labels.push(best);
        }
        if rows.is_empty() {
            return None;
        }
        let mut classifier = xgboost(budget);
        classifier.fit(&FeatureMatrix::from_rows(&rows), &labels, N_DATAFLOWS);
        Some(DataflowAdvisor {
            env,
            set,
            scenario_tag: scenario.tag().to_string(),
            classifier,
            model_version: corpus.model_version,
        })
    }

    /// The env row this advisor was trained for.
    pub fn env(&self) -> Env {
        self.env
    }

    /// Tag of the scenario cell the training labels came from.
    pub fn scenario_tag(&self) -> &str {
        &self.scenario_tag
    }

    /// GPU-model version the training labels were measured under.
    pub fn model_version(&self) -> u32 {
        self.model_version
    }

    /// Number of input features the classifier consumes: the projected
    /// feature-set columns plus the symbolic dataflow block. Recorded in
    /// the artifact envelope and enforced at load.
    pub fn feature_arity(&self) -> u32 {
        (self.set.len() + DATAFLOW_FEATURE_COUNT) as u32
    }

    /// Recommend a dataflow from the matrix features and the symbolic
    /// dataflow block. Never fails: a broken model path answers through
    /// [`heuristic_dataflow`] and says so in its `source`.
    pub fn recommend(&self, fv: &FeatureVector, extra: &[f64]) -> DataflowRecommendation {
        spmv_observe::counter("advisor.dataflow_recommendations", 1);
        match self.recommend_checked(fv, extra) {
            Ok(rec) => rec,
            Err(_) => {
                spmv_observe::counter("advisor.fallbacks", 1);
                heuristic_dataflow(extra)
            }
        }
    }

    /// The model-path recommendation, surfacing failures instead of
    /// falling back.
    pub fn recommend_checked(
        &self,
        fv: &FeatureVector,
        extra: &[f64],
    ) -> Result<DataflowRecommendation, AdvisorError> {
        if extra.len() != DATAFLOW_FEATURE_COUNT {
            return Err(AdvisorError::ExtraBlockMismatch {
                got: extra.len(),
                expected: DATAFLOW_FEATURE_COUNT,
            });
        }
        if !fv.is_finite() || extra.iter().any(|v| !v.is_finite()) {
            return Err(AdvisorError::NonFiniteFeatures);
        }
        let mut row = fv.project(self.set);
        row.extend_from_slice(extra);
        let (dataflow, confidence) = classify_row(&self.classifier, &row, &Dataflow::ALL)?;
        Ok(DataflowRecommendation {
            dataflow,
            source: RecommendationSource::Model,
            confidence,
        })
    }

    /// Serialize into the shared versioned, checksummed envelope under
    /// kind [`ARTIFACT_KIND_DATAFLOW`] — the exact bytes
    /// [`DataflowAdvisor::save`] writes.
    pub fn to_artifact_bytes(&self) -> Result<Vec<u8>, ArtifactError> {
        Artifact::seal(
            self,
            ARTIFACT_KIND_DATAFLOW,
            self.model_version,
            self.feature_arity(),
        )
    }

    /// Validate envelope bytes and deserialize the advisor — the same
    /// pinned check order as the format loader (magic, envelope version,
    /// checksum, staleness), then the kind gate, then payload parse and
    /// the arity gate. A format-kinded (or legacy kind-less) envelope is
    /// a typed [`ArtifactError::KindMismatch`] here.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<(DataflowAdvisor, String), ArtifactError> {
        Artifact::open(
            bytes,
            ARTIFACT_KIND_DATAFLOW,
            DataflowAdvisor::feature_arity,
        )
    }

    /// Persist the trained advisor as a versioned, checksummed artifact.
    pub fn save(&self, path: &std::path::Path) -> Result<(), ArtifactError> {
        Ok(std::fs::write(path, self.to_artifact_bytes()?)?)
    }

    /// Load a previously saved dataflow advisor, applying every envelope
    /// check of [`DataflowAdvisor::from_artifact_bytes`].
    pub fn load(path: &std::path::Path) -> Result<DataflowAdvisor, ArtifactError> {
        Artifact::load(
            path,
            &FaultPlan::none(),
            ARTIFACT_KIND_DATAFLOW,
            DataflowAdvisor::feature_arity,
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::env::{ArchSet, LabelEnvironment, ScenarioOp};
    use crate::faults::FaultPlan;
    use spmv_corpus::{CorpusScale, SyntheticSuite};

    fn spgemm_corpus(seed: u64) -> (LabeledCorpus, Scenario) {
        let sc = Scenario {
            op: ScenarioOp::SpgemmAA,
            archs: ArchSet::PaperGpus,
        };
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, seed);
        (
            LabeledCorpus::collect_env(
                &suite,
                LabelEnvironment::Scenario(sc),
                4,
                &FaultPlan::none(),
            ),
            sc,
        )
    }

    #[test]
    fn trains_recommends_and_round_trips_through_disk() {
        let (corpus, sc) = spgemm_corpus(31);
        let env = Env::ALL[3];
        let a = DataflowAdvisor::train_for_scenario(&corpus, sc, env, SearchBudget::Quick)
            .expect("tiny corpus trains");
        assert_eq!(a.feature_arity(), 15, "7 imp. + 8 dataflow features");
        assert_eq!(a.scenario_tag(), "gpu-spgemm-aa");
        assert_eq!(a.model_version(), spmv_gpusim::MODEL_VERSION);

        let r = &corpus.records[0];
        let rec = a.recommend(&r.features, &r.extra);
        assert_eq!(rec.source, RecommendationSource::Model);
        assert!((0.0..=1.0).contains(&rec.confidence));

        let dir = std::env::temp_dir().join("spmv_dataflow_advisor_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataflow.json");
        a.save(&path).unwrap();
        let back = DataflowAdvisor::load(&path).unwrap();
        assert_eq!(back.recommend(&r.features, &r.extra), rec);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_extra_width_is_typed_and_falls_back() {
        let (corpus, sc) = spgemm_corpus(32);
        let a = DataflowAdvisor::train_for_scenario(&corpus, sc, Env::ALL[0], SearchBudget::Quick)
            .unwrap();
        let r = &corpus.records[0];
        let err = a.recommend_checked(&r.features, &[1.0, 2.0]).unwrap_err();
        assert!(matches!(
            err,
            AdvisorError::ExtraBlockMismatch {
                got: 2,
                expected: DATAFLOW_FEATURE_COUNT
            }
        ));
        let rec = a.recommend(&r.features, &[1.0, 2.0]);
        assert_eq!(rec.source, RecommendationSource::Heuristic);
    }

    #[test]
    fn format_and_dataflow_artifacts_reject_each_other() {
        use crate::advisor::FormatAdvisor;
        use crate::labels::tests_support::tiny_labeled_corpus;

        let (corpus, sc) = spgemm_corpus(33);
        let d = DataflowAdvisor::train_for_scenario(&corpus, sc, Env::ALL[1], SearchBudget::Quick)
            .unwrap();
        let bytes = d.to_artifact_bytes().unwrap();
        match FormatAdvisor::from_artifact_bytes(&bytes) {
            Err(ArtifactError::KindMismatch { artifact, expected }) => {
                assert_eq!(artifact, "dataflow");
                assert_eq!(expected, "format");
            }
            Err(e) => panic!("expected KindMismatch, got {e}"),
            Ok(_) => panic!("format loader must reject dataflow bytes"),
        }

        let f = FormatAdvisor::train(&tiny_labeled_corpus(61), Env::ALL[1], SearchBudget::Quick);
        let fbytes = f.to_artifact_bytes().unwrap();
        match DataflowAdvisor::from_artifact_bytes(&fbytes) {
            Err(ArtifactError::KindMismatch { artifact, expected }) => {
                assert_eq!(artifact, "format");
                assert_eq!(expected, "dataflow");
            }
            Err(e) => panic!("expected KindMismatch, got {e}"),
            Ok(_) => panic!("dataflow loader must reject format bytes"),
        }
    }

    #[test]
    fn heuristic_fallback_reads_the_symbolic_block() {
        let dense = heuristic_dataflow(&[0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.9]);
        assert_eq!(dense.dataflow, Dataflow::GustavsonDense);
        let skewed = heuristic_dataflow(&[0.0, 0.0, 8.0, 100.0, 1.0, 1.0, 0.0, 0.01]);
        assert_eq!(skewed.dataflow, Dataflow::Esc);
        let plain = heuristic_dataflow(&[0.0; 8]);
        assert_eq!(plain.dataflow, Dataflow::GustavsonHash);
        assert_eq!(plain.source, RecommendationSource::Heuristic);
    }
}
