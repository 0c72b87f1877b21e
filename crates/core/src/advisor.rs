//! The public façade a downstream user actually wants: given a sparse
//! matrix, which format should I store it in, and how long will SpMV take?
//!
//! `FormatAdvisor` bundles the whole pipeline — feature extraction, the
//! best direct classifier (XGBoost, per the paper's conclusion), and a
//! combined time regressor — trained once on a labeled corpus for a chosen
//! (GPU, precision) environment.
//!
//! ## Failure model
//!
//! This is the deployment boundary, so nothing here panics on bad input.
//! Every recommendation is a [`Recommendation`] that names its
//! [`RecommendationSource`]: the learned model when it produces a sane
//! output, or the rule-based [`HeuristicAdvisor`] when the model path fails
//! (non-finite features, non-finite scores, out-of-range class). Callers
//! who need to distinguish the two inspect `source`; callers who need the
//! raw failure use the `_checked` variants. Persisted models travel in a
//! versioned, checksummed envelope so a corrupt, truncated, or stale
//! artifact is a typed [`ArtifactError`] instead of a garbage advisor.

use spmv_features::{extract, FeatureSet, FeatureVector};
use spmv_matrix::{CsrMatrix, Format, Scalar};
use spmv_ml::{Classifier, GbtClassifier};

use crate::classify::{xgboost, SearchBudget};
use crate::dataset::{ClassificationTask, RegressionTask};
use crate::env::{Env, Scenario};
use crate::faults::{fnv1a_64, FaultPlan, FaultSite};
use crate::heuristic::HeuristicAdvisor;
use crate::labels::LabeledCorpus;
use crate::regress::{train_time_predictor, RegModelKind, TimePredictor};

/// Where a [`Recommendation`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RecommendationSource {
    /// The trained classifier / regressor produced a sane output.
    Model,
    /// The model path failed; the rule-based fallback answered instead.
    Heuristic,
}

impl std::fmt::Display for RecommendationSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecommendationSource::Model => "model",
            RecommendationSource::Heuristic => "heuristic",
        })
    }
}

/// A format recommendation that carries its provenance: which path
/// produced it and how confident that path is (the classifier's softmax
/// probability, the regressor's margin over the runner-up, or the
/// heuristic rule's fixed weight).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Recommendation {
    /// The recommended storage format.
    pub format: Format,
    /// Which path produced the answer.
    pub source: RecommendationSource,
    /// In `[0, 1]`; comparable within a source, not across sources.
    pub confidence: f64,
}

/// Why the model path of the advisor could not answer. Every variant is
/// recoverable: [`FormatAdvisor::recommend`] converts all of them into a
/// heuristic fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdvisorError {
    /// Feature extraction produced NaN or infinity.
    NonFiniteFeatures,
    /// The classifier emitted a NaN/infinite probability.
    NonFiniteModelOutput,
    /// The classifier picked a class index outside the format list.
    ClassOutOfRange {
        /// The class index the model produced.
        class: usize,
        /// How many formats the advisor knows.
        n_formats: usize,
    },
    /// The time regressor predicted NaN or infinity for a format.
    NonFinitePrediction(Format),
    /// The caller-supplied extra-feature block (the symbolic dataflow
    /// features of an SpGEMM advisor) has the wrong width.
    ExtraBlockMismatch {
        /// Width the caller supplied.
        got: usize,
        /// Width the advisor was trained with.
        expected: usize,
    },
    /// A [`FaultPlan`] injected a failure at this site.
    Injected(String),
}

impl std::fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdvisorError::NonFiniteFeatures => {
                write!(f, "feature extraction produced non-finite values")
            }
            AdvisorError::NonFiniteModelOutput => {
                write!(f, "classifier produced non-finite probabilities")
            }
            AdvisorError::ClassOutOfRange { class, n_formats } => {
                write!(
                    f,
                    "classifier chose class {class} but only {n_formats} formats exist"
                )
            }
            AdvisorError::NonFinitePrediction(fmt) => {
                write!(
                    f,
                    "time regressor produced a non-finite prediction for {fmt}"
                )
            }
            AdvisorError::ExtraBlockMismatch { got, expected } => {
                write!(
                    f,
                    "extra-feature block has {got} values, the advisor consumes {expected}"
                )
            }
            AdvisorError::Injected(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for AdvisorError {}

/// Magic string opening every persisted advisor artifact.
pub const ARTIFACT_MAGIC: &str = "spmv-advisor";
/// Version of the envelope format itself (not of the GPU model).
pub const ARTIFACT_VERSION: u32 = 1;

/// Why a persisted advisor artifact was rejected at load time.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not valid artifact JSON (truncated, garbage, or a
    /// pre-envelope raw model dump).
    Malformed(String),
    /// The file parses but is not an advisor artifact.
    WrongMagic(String),
    /// The envelope format is from a different release.
    UnsupportedVersion(u32),
    /// The payload does not hash to the recorded checksum — the file was
    /// corrupted or hand-edited after save.
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        expected: String,
        /// Checksum of the payload actually found.
        found: String,
    },
    /// The advisor was trained against a different GPU-model version; its
    /// predictions no longer describe the current simulator.
    StaleModel {
        /// Version recorded in the artifact.
        artifact: u32,
        /// Version this build predicts with.
        current: u32,
    },
    /// The envelope's recorded feature arity does not match the payload's
    /// model. Pre-scenario envelopes record no arity (read as 0), so a
    /// legacy 17-feature artifact presented to the widened advisor is a
    /// typed rejection here — never a silently misindexed feature row.
    FeatureArityMismatch {
        /// Arity recorded in the envelope (0 = legacy, unrecorded).
        artifact: u32,
        /// Arity the payload's model actually consumes.
        expected: u32,
    },
    /// The envelope's advisor kind is not the one the loader expects —
    /// a dataflow artifact presented to the format loader or vice versa.
    /// Pre-dataflow envelopes record no kind (read as `"format"`), so
    /// every artifact saved before the field existed loads unchanged.
    KindMismatch {
        /// Kind recorded in the envelope.
        artifact: String,
        /// Kind this loader deserializes.
        expected: &'static str,
    },
    /// A [`FaultPlan`] injected a failure at the load site.
    Injected(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "{e}"),
            ArtifactError::Malformed(why) => write!(f, "malformed advisor artifact: {why}"),
            ArtifactError::WrongMagic(m) => {
                write!(
                    f,
                    "not an advisor artifact (magic {m:?}, expected {ARTIFACT_MAGIC:?})"
                )
            }
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (this build reads {ARTIFACT_VERSION})"
                )
            }
            ArtifactError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "artifact checksum mismatch: recorded {expected}, computed {found}"
                )
            }
            ArtifactError::StaleModel { artifact, current } => write!(
                f,
                "stale advisor: trained under GPU model v{artifact}, simulator is v{current}"
            ),
            ArtifactError::FeatureArityMismatch { artifact, expected } => write!(
                f,
                "feature-arity mismatch: envelope records {artifact} input features, \
                 the payload's model consumes {expected} (legacy pre-scenario artifacts \
                 record 0; retrain and re-save)"
            ),
            ArtifactError::KindMismatch { artifact, expected } => write!(
                f,
                "advisor-kind mismatch: envelope records a {artifact:?} advisor, \
                 this loader reads {expected:?}"
            ),
            ArtifactError::Injected(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Envelope kind string of format-selection advisors (and, implicitly, of
/// every artifact saved before the `kind` field existed).
pub const ARTIFACT_KIND_FORMAT: &str = "format";
/// Envelope kind string of SpGEMM dataflow advisors.
pub const ARTIFACT_KIND_DATAFLOW: &str = "dataflow";

/// The on-disk envelope. The payload is the advisor serialized to a JSON
/// *string* so the checksum is over exact bytes, immune to key reordering
/// or whitespace differences between serializer versions. Shared by every
/// advisor kind: the `kind` field says which loader may parse the payload.
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct Artifact {
    pub(crate) magic: String,
    pub(crate) artifact_version: u32,
    pub(crate) model_version: u32,
    /// Number of input features the payload's classifier consumes (base
    /// feature-set columns plus any scenario-descriptor extras). Absent in
    /// pre-scenario envelopes (serde default 0), which is exactly how the
    /// widened loader detects and rejects them.
    #[serde(default)]
    pub(crate) feature_arity: u32,
    /// Advisor kind the payload serializes. Absent in pre-dataflow
    /// envelopes (serde default ""), read as [`ARTIFACT_KIND_FORMAT`], so
    /// legacy format artifacts load unchanged.
    #[serde(default)]
    pub(crate) kind: String,
    pub(crate) checksum: String,
    pub(crate) payload: String,
}

impl Artifact {
    /// The recorded kind, with the pre-dataflow default made explicit.
    pub(crate) fn kind_or_default(&self) -> &str {
        if self.kind.is_empty() {
            ARTIFACT_KIND_FORMAT
        } else {
            &self.kind
        }
    }

    /// Seal an advisor of `kind` into the versioned, checksummed
    /// envelope: the exact bytes `save` writes for every advisor kind.
    pub(crate) fn seal<P: serde::Serialize>(
        advisor: &P,
        kind: &str,
        model_version: u32,
        feature_arity: u32,
    ) -> Result<Vec<u8>, ArtifactError> {
        let payload = serde_json::to_string(advisor).map_err(malformed)?;
        let artifact = Artifact {
            magic: ARTIFACT_MAGIC.to_string(),
            artifact_version: ARTIFACT_VERSION,
            model_version,
            feature_arity,
            kind: kind.to_string(),
            checksum: checksum_of(&payload),
            payload,
        };
        serde_json::to_string(&artifact)
            .map(String::into_bytes)
            .map_err(malformed)
    }

    /// Parse an envelope and check what every envelope must satisfy,
    /// whatever it carries: magic, envelope version, checksum — in that
    /// pinned order.
    pub(crate) fn parse(text: &str) -> Result<Artifact, ArtifactError> {
        let artifact: Artifact = serde_json::from_str(text).map_err(malformed)?;
        if artifact.magic != ARTIFACT_MAGIC {
            return Err(ArtifactError::WrongMagic(artifact.magic));
        }
        if artifact.artifact_version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion(artifact.artifact_version));
        }
        let found = checksum_of(&artifact.payload);
        if found != artifact.checksum {
            return Err(ArtifactError::ChecksumMismatch {
                expected: artifact.checksum,
                found,
            });
        }
        Ok(artifact)
    }

    /// Open envelope bytes as an advisor of `kind`, returning the verified
    /// checksum alongside it. After [`Artifact::parse`]'s checks come the
    /// GPU-model staleness check, the kind gate, the payload parse and the
    /// arity gate, in that pinned order.
    pub(crate) fn open<P: serde::Deserialize>(
        bytes: &[u8],
        kind: &'static str,
        arity: fn(&P) -> u32,
    ) -> Result<(P, String), ArtifactError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| ArtifactError::Malformed(format!("not utf-8: {e}")))?;
        let artifact = Artifact::parse(text)?;
        if artifact.model_version != spmv_gpusim::MODEL_VERSION {
            return Err(ArtifactError::StaleModel {
                artifact: artifact.model_version,
                current: spmv_gpusim::MODEL_VERSION,
            });
        }
        // Kind gate: one kind's payload must never be parsed as another's.
        // Legacy kind-less envelopes read as "format".
        if artifact.kind_or_default() != kind {
            return Err(ArtifactError::KindMismatch {
                artifact: artifact.kind_or_default().to_string(),
                expected: kind,
            });
        }
        let advisor: P = serde_json::from_str(&artifact.payload).map_err(malformed)?;
        // Arity gate (feature-vector v2): the envelope must record the
        // exact input width the payload's model consumes. Legacy envelopes
        // record nothing (read as 0) and are rejected here — a 7-feature
        // model must never be fed a 15-column scenario row, or vice versa,
        // by silent misindexing.
        let expected = arity(&advisor);
        if artifact.feature_arity != expected {
            return Err(ArtifactError::FeatureArityMismatch {
                artifact: artifact.feature_arity,
                expected,
            });
        }
        Ok((advisor, artifact.checksum))
    }

    /// Read and [`Artifact::open`] a saved advisor of `kind`, counting the
    /// load and any rejection. The `ModelLoad` site of `plan` can force
    /// the load to fail.
    pub(crate) fn load<P: serde::Deserialize>(
        path: &std::path::Path,
        plan: &FaultPlan,
        kind: &'static str,
        arity: fn(&P) -> u32,
    ) -> Result<P, ArtifactError> {
        spmv_observe::counter("advisor.model_loads", 1);
        let key = path.display().to_string();
        let loaded = if plan.should_fail(FaultSite::ModelLoad, &key) {
            Err(ArtifactError::Injected(FaultPlan::reason(
                FaultSite::ModelLoad,
                &key,
            )))
        } else {
            std::fs::read(path)
                .map_err(ArtifactError::from)
                .and_then(|bytes| Self::open(&bytes, kind, arity))
                .map(|(advisor, _)| advisor)
        };
        if loaded.is_err() {
            spmv_observe::counter("advisor.artifact_rejects", 1);
        }
        loaded
    }
}

fn malformed(e: serde_json::Error) -> ArtifactError {
    ArtifactError::Malformed(e.to_string())
}

/// The classify step both advisor kinds share: class probabilities for
/// one input row, rejected if any is non-finite, then the most probable
/// label with its probability as the confidence. A class index past the
/// end of `labels` is a typed error, never a panic.
pub(crate) fn classify_row<L: Copy>(
    classifier: &GbtClassifier,
    row: &[f64],
    labels: &[L],
) -> Result<(L, f64), AdvisorError> {
    let probs = classifier.predict_proba_one(row, labels.len());
    if probs.iter().any(|p| !p.is_finite()) {
        return Err(AdvisorError::NonFiniteModelOutput);
    }
    let (class, confidence) = probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, p)| (i, *p))
        .unwrap_or((0, 0.0));
    match labels.get(class) {
        Some(&label) => Ok((label, confidence)),
        None => Err(AdvisorError::ClassOutOfRange {
            class,
            n_formats: labels.len(),
        }),
    }
}

pub(crate) fn checksum_of(payload: &str) -> String {
    format!("{:016x}", fnv1a_64(&[payload.as_bytes()]))
}

/// A trained format advisor for one environment. Serializable: train once
/// (expensive — needs the labeled corpus), then [`FormatAdvisor::save`] the
/// model and [`FormatAdvisor::load`] it at deployment without any corpus.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct FormatAdvisor {
    env: Env,
    set: FeatureSet,
    formats: Vec<Format>,
    classifier: GbtClassifier,
    predictor: TimePredictor,
    /// GPU-model version the training labels were measured under.
    #[serde(default)]
    model_version: u32,
    /// Scenario-descriptor values appended after the projected matrix
    /// features on every model input (feature-vector v2). Empty for plain
    /// per-environment advisors, so pre-scenario payloads deserialize
    /// unchanged; [`FormatAdvisor::train_for_scenario`] pins it to the
    /// trained cell's descriptor.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    scenario_extra: Vec<f64>,
}

impl FormatAdvisor {
    /// Train on a labeled corpus. Uses the paper's winning configuration:
    /// XGBoost over the `imp.` feature subset for selection, an MLP
    /// ensemble over the same features (+ format one-hot) for timing.
    pub fn train(corpus: &LabeledCorpus, env: Env, budget: SearchBudget) -> FormatAdvisor {
        let _span = spmv_observe::span!("advisor/train", corpus = corpus.records.len() as u64);
        Self::fit(corpus, env, budget, Vec::new())
    }

    /// Train on a scenario-labeled corpus for one `(scenario, env)` cell,
    /// producing a **feature-vector v2** advisor: every model input is the
    /// projected matrix features plus the cell's fixed
    /// [`Scenario::descriptor`] block. The widened arity is recorded in the
    /// artifact envelope, so a v2 advisor and a plain 7-feature one can
    /// never silently read each other's rows.
    pub fn train_for_scenario(
        corpus: &LabeledCorpus,
        scenario: Scenario,
        env: Env,
        budget: SearchBudget,
    ) -> FormatAdvisor {
        let _span = spmv_observe::span!(
            "advisor/train_scenario",
            corpus = corpus.records.len() as u64
        );
        Self::fit(corpus, env, budget, scenario.descriptor(env).to_vec())
    }

    /// The one training body: the classifier and the time regressor over
    /// the `imp.` projection with `extra` appended to every row (empty for
    /// a plain advisor).
    fn fit(
        corpus: &LabeledCorpus,
        env: Env,
        budget: SearchBudget,
        extra: Vec<f64>,
    ) -> FormatAdvisor {
        let set = FeatureSet::Important;
        let formats = Format::ALL.to_vec();

        let ctask = ClassificationTask::build_with_extra(corpus, env, &formats, set, true, &extra);
        let mut classifier = xgboost(budget);
        classifier.fit(&ctask.x, &ctask.y, formats.len());

        let rtask = RegressionTask::build_with_extra(corpus, env, &formats, set, &extra);
        let all: Vec<usize> = (0..rtask.len()).collect();
        let predictor = train_time_predictor(
            RegModelKind::MlpEnsemble,
            &rtask,
            &all,
            budget,
            corpus.suite_seed,
        );

        FormatAdvisor {
            env,
            set,
            formats,
            classifier,
            predictor,
            model_version: corpus.model_version,
            scenario_extra: extra,
        }
    }

    /// The environment this advisor was trained for.
    pub fn env(&self) -> Env {
        self.env
    }

    /// Number of input features the classifier consumes: the projected
    /// feature-set columns plus any scenario-descriptor extras. This is
    /// the arity the artifact envelope records and the loader enforces.
    pub fn feature_arity(&self) -> u32 {
        (self.set.len() + self.scenario_extra.len()) as u32
    }

    /// One classifier input row: the projection of `fv` onto the advisor's
    /// feature set, followed by the scenario-descriptor extras (empty for
    /// plain advisors — feature-vector v1 rows are the v2 prefix).
    fn input_row(&self, fv: &FeatureVector) -> Vec<f64> {
        let mut row = fv.project(self.set);
        row.extend_from_slice(&self.scenario_extra);
        row
    }

    /// GPU-model version the training labels were measured under.
    pub fn model_version(&self) -> u32 {
        self.model_version
    }

    /// Recommend a storage format for `matrix`. Never fails: if the model
    /// path errors, the answer comes from [`HeuristicAdvisor`] and says so
    /// in its `source`.
    pub fn recommend<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> Recommendation {
        self.recommend_with(matrix, &FaultPlan::none())
    }

    /// [`FormatAdvisor::recommend`] under a fault plan (testing hook): the
    /// `FeatureExtraction` site can be forced to fail, exercising the
    /// heuristic fallback on demand.
    pub fn recommend_with<T: Scalar>(
        &self,
        matrix: &CsrMatrix<T>,
        plan: &FaultPlan,
    ) -> Recommendation {
        spmv_observe::counter("advisor.recommendations", 1);
        match self.recommend_checked_with(matrix, plan) {
            Ok(rec) => rec,
            Err(_) => {
                spmv_observe::counter("advisor.fallbacks", 1);
                HeuristicAdvisor.recommend(matrix)
            }
        }
    }

    /// The model-path recommendation, surfacing failures instead of
    /// falling back.
    pub fn recommend_checked<T: Scalar>(
        &self,
        matrix: &CsrMatrix<T>,
    ) -> Result<Recommendation, AdvisorError> {
        self.recommend_checked_with(matrix, &FaultPlan::none())
    }

    fn recommend_checked_with<T: Scalar>(
        &self,
        matrix: &CsrMatrix<T>,
        plan: &FaultPlan,
    ) -> Result<Recommendation, AdvisorError> {
        let key = format!("{}x{}/{}", matrix.n_rows(), matrix.n_cols(), matrix.nnz());
        if plan.should_fail(FaultSite::FeatureExtraction, &key) {
            return Err(AdvisorError::Injected(FaultPlan::reason(
                FaultSite::FeatureExtraction,
                &key,
            )));
        }
        self.recommend_features_checked(&extract(matrix))
    }

    /// Recommend from a *pre-extracted* feature vector — the serving path,
    /// where the caller (a remote client) already ran [`extract()`] and ships
    /// the seventeen values instead of the matrix. Never fails: a broken
    /// model path degrades to [`HeuristicAdvisor::recommend_features`] and
    /// says so in its `source`.
    ///
    /// Agrees bit-for-bit with [`FormatAdvisor::recommend`] when `fv` is
    /// the extraction of the same matrix: both run the identical projection
    /// and classifier on the identical values.
    pub fn recommend_features(&self, fv: &FeatureVector) -> Recommendation {
        spmv_observe::counter("advisor.recommendations", 1);
        match self.recommend_features_checked(fv) {
            Ok(rec) => rec,
            Err(_) => {
                spmv_observe::counter("advisor.fallbacks", 1);
                HeuristicAdvisor.recommend_features(fv)
            }
        }
    }

    /// The model-path recommendation from a pre-extracted feature vector,
    /// surfacing failures instead of falling back.
    pub fn recommend_features_checked(
        &self,
        fv: &FeatureVector,
    ) -> Result<Recommendation, AdvisorError> {
        if !fv.is_finite() {
            return Err(AdvisorError::NonFiniteFeatures);
        }
        let (format, confidence) =
            classify_row(&self.classifier, &self.input_row(fv), &self.formats)?;
        Ok(Recommendation {
            format,
            source: RecommendationSource::Model,
            confidence,
        })
    }

    /// Predict SpMV time (seconds) for `matrix` in every format,
    /// best-first. Non-finite regressor outputs are clamped to
    /// `f64::INFINITY` so they sort last instead of poisoning the ranking;
    /// use [`FormatAdvisor::predict_times_checked`] to detect them.
    pub fn predict_times<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> Vec<(Format, f64)> {
        self.predict_times_features(&extract(matrix))
    }

    /// [`FormatAdvisor::predict_times`] from a pre-extracted feature
    /// vector (the serving path). Identical output when `fv` is the
    /// extraction of the same matrix.
    pub fn predict_times_features(&self, fv: &FeatureVector) -> Vec<(Format, f64)> {
        let mut out = self.raw_times_from(fv);
        for (_, t) in &mut out {
            if !t.is_finite() {
                *t = f64::INFINITY;
            }
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }

    /// [`FormatAdvisor::predict_times`] that fails on the first non-finite
    /// prediction instead of clamping it.
    pub fn predict_times_checked<T: Scalar>(
        &self,
        matrix: &CsrMatrix<T>,
    ) -> Result<Vec<(Format, f64)>, AdvisorError> {
        let mut out = self.raw_times_from(&extract(matrix));
        if let Some(&(fmt, _)) = out.iter().find(|(_, t)| !t.is_finite()) {
            return Err(AdvisorError::NonFinitePrediction(fmt));
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        Ok(out)
    }

    fn raw_times_from(&self, fv: &FeatureVector) -> Vec<(Format, f64)> {
        let base = self.input_row(fv);
        self.formats
            .iter()
            .enumerate()
            .map(|(k, &f)| {
                let mut row = base.clone();
                for j in 0..self.formats.len() {
                    row.push(if j == k { 1.0 } else { 0.0 });
                }
                (f, self.predictor.predict_row(&row))
            })
            .collect()
    }

    /// Indirect recommendation: the format with the fastest predicted
    /// time. Confidence is the margin over the runner-up. Falls back to
    /// the heuristic when the best prediction is non-finite.
    pub fn recommend_by_time<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> Recommendation {
        let times = self.predict_times(matrix);
        match times.first() {
            Some(&(format, best)) if best.is_finite() => {
                let confidence = match times.get(1) {
                    Some(&(_, second)) if second.is_finite() && second > 0.0 => {
                        (1.0 - best / second).clamp(0.0, 1.0)
                    }
                    _ => 1.0,
                };
                Recommendation {
                    format,
                    source: RecommendationSource::Model,
                    confidence,
                }
            }
            _ => HeuristicAdvisor.recommend(matrix),
        }
    }

    /// Retrain the classifier on feedback samples, keeping everything else
    /// (environment, feature set, format list, time predictor, model
    /// version) from `self`. This is the online-learning candidate
    /// constructor: the serving layer collects `(features, best format)`
    /// pairs from `/v1/feedback`, and the background retrainer turns them
    /// into a candidate advisor here.
    ///
    /// Byte-deterministic: the same sample multiset and seed produce the
    /// same advisor (and therefore the same artifact bytes) at any thread
    /// count and for any sample arrival order — see
    /// [`spmv_ml::online::fit_online_classifier`].
    ///
    /// Returns `None` when the samples cannot support a fit (empty, or a
    /// format outside this advisor's format list).
    pub fn retrain_from_feedback(
        &self,
        samples: &[(FeatureVector, Format)],
        seed: u64,
    ) -> Option<FormatAdvisor> {
        let _span = spmv_observe::span!("advisor/retrain_online", samples = samples.len() as u64);
        let mut rows = Vec::with_capacity(samples.len());
        let mut labels = Vec::with_capacity(samples.len());
        for (fv, format) in samples {
            let class = self.formats.iter().position(|f| f == format)?;
            rows.push(self.input_row(fv));
            labels.push(class);
        }
        let classifier =
            spmv_ml::online::fit_online_classifier(&rows, &labels, self.formats.len(), seed)?;
        Some(FormatAdvisor {
            env: self.env,
            set: self.set,
            formats: self.formats.clone(),
            classifier,
            predictor: self.predictor.clone(),
            model_version: self.model_version,
            scenario_extra: self.scenario_extra.clone(),
        })
    }

    /// Serialize the advisor into the versioned, checksummed envelope and
    /// return the exact bytes [`FormatAdvisor::save`] would write. The
    /// online hot-swap path trades candidates as byte buffers — never as
    /// live objects — so every candidate passes the same envelope
    /// validation a cold-booted artifact would.
    pub fn to_artifact_bytes(&self) -> Result<Vec<u8>, ArtifactError> {
        Artifact::seal(
            self,
            ARTIFACT_KIND_FORMAT,
            self.model_version,
            self.feature_arity(),
        )
    }

    /// The checksum this advisor's envelope would carry — the same string
    /// [`FormatAdvisor::save`] records and `/healthz` discloses.
    pub fn artifact_checksum(&self) -> Result<String, ArtifactError> {
        let payload = serde_json::to_string(self).map_err(malformed)?;
        Ok(checksum_of(&payload))
    }

    /// Validate envelope bytes and deserialize the advisor, returning the
    /// verified checksum alongside it. Applies exactly the checks of
    /// [`FormatAdvisor::load`]: magic, envelope version, checksum, GPU
    /// model version.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<(FormatAdvisor, String), ArtifactError> {
        Artifact::open(bytes, ARTIFACT_KIND_FORMAT, FormatAdvisor::feature_arity)
    }

    /// Persist the trained advisor as a versioned, checksummed artifact.
    pub fn save(&self, path: &std::path::Path) -> Result<(), ArtifactError> {
        Ok(std::fs::write(path, self.to_artifact_bytes()?)?)
    }

    /// Load a previously saved advisor, rejecting anything that is not a
    /// well-formed, checksum-clean artifact from the current GPU-model
    /// version.
    pub fn load(path: &std::path::Path) -> Result<FormatAdvisor, ArtifactError> {
        Self::load_with(path, &FaultPlan::none())
    }

    /// [`FormatAdvisor::load`] under a fault plan: the `ModelLoad` site
    /// can be forced to fail, exercising artifact-rejection handling.
    pub fn load_with(
        path: &std::path::Path,
        plan: &FaultPlan,
    ) -> Result<FormatAdvisor, ArtifactError> {
        Artifact::load(
            path,
            plan,
            ARTIFACT_KIND_FORMAT,
            FormatAdvisor::feature_arity,
        )
    }

    /// Read only the envelope of a saved artifact — magic, versions,
    /// checksum, payload size — validating everything except the payload
    /// deserialization. This is what `spmv-advisor --model-info` prints:
    /// cheap enough to run against a fleet's artifact store, strict enough
    /// to catch corruption.
    pub fn inspect_artifact(path: &std::path::Path) -> Result<ArtifactInfo, ArtifactError> {
        let artifact = Artifact::parse(&std::fs::read_to_string(path)?)?;
        Ok(ArtifactInfo {
            artifact_version: artifact.artifact_version,
            model_version: artifact.model_version,
            feature_arity: artifact.feature_arity,
            kind: artifact.kind_or_default().to_string(),
            checksum: artifact.checksum,
            payload_bytes: artifact.payload.len(),
            stale: artifact.model_version != spmv_gpusim::MODEL_VERSION,
        })
    }
}

/// Envelope metadata of a saved artifact, as reported by
/// [`FormatAdvisor::inspect_artifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Envelope format version.
    pub artifact_version: u32,
    /// GPU-model version the training labels were measured under.
    pub model_version: u32,
    /// Input-feature arity the envelope records (0 = legacy envelope
    /// predating feature-vector v2 — [`FormatAdvisor::load`] rejects it).
    pub feature_arity: u32,
    /// Advisor kind the envelope records (`"format"` for kind-less
    /// legacy envelopes, `"dataflow"` for SpGEMM dataflow advisors).
    pub kind: String,
    /// Verified FNV-1a checksum of the payload.
    pub checksum: String,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// True when the artifact's model version differs from the current
    /// simulator's — [`FormatAdvisor::load`] would reject it as stale.
    pub stale: bool,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::labels::tests_support::tiny_labeled_corpus;
    use spmv_matrix::TripletBuilder;

    fn advisor() -> FormatAdvisor {
        let corpus = tiny_labeled_corpus(61);
        FormatAdvisor::train(&corpus, Env::ALL[1], SearchBudget::Quick)
    }

    fn banded_matrix() -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(5000, 5000);
        for r in 0..5000usize {
            for c in r.saturating_sub(3)..(r + 4).min(5000) {
                b.push_unchecked(r as u32, c as u32, 1.0);
            }
        }
        b.build().to_csr()
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spmv_advisor_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn advisor_produces_a_recommendation() {
        let a = advisor();
        let m = banded_matrix();
        let rec = a.recommend(&m);
        assert!(Format::ALL.contains(&rec.format));
        assert_eq!(rec.source, RecommendationSource::Model);
        assert!((0.0..=1.0).contains(&rec.confidence));
        assert_eq!(a.env().label(), "K80c double");
        assert_eq!(a.model_version(), spmv_gpusim::MODEL_VERSION);
    }

    #[test]
    fn checked_and_unchecked_paths_agree_on_healthy_input() {
        let a = advisor();
        let m = banded_matrix();
        assert_eq!(a.recommend_checked(&m).unwrap(), a.recommend(&m));
        assert_eq!(a.predict_times_checked(&m).unwrap(), a.predict_times(&m));
    }

    #[test]
    fn advisor_round_trips_through_disk() {
        let a = advisor();
        let m = banded_matrix();
        let path = tmpfile("advisor.json");
        a.save(&path).unwrap();
        let back = FormatAdvisor::load(&path).unwrap();
        assert_eq!(back.recommend(&m), a.recommend(&m));
        let ta = a.predict_times(&m);
        let tb = back.predict_times(&m);
        for ((fa, va), (fb, vb)) in ta.iter().zip(&tb) {
            assert_eq!(fa, fb);
            assert!((va - vb).abs() < 1e-12 * va.abs());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn predicted_times_are_positive_and_sorted() {
        let a = advisor();
        let m = banded_matrix();
        let times = a.predict_times(&m);
        assert_eq!(times.len(), 6);
        assert!(times.iter().all(|(_, t)| *t > 0.0));
        for w in times.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let by_time = a.recommend_by_time(&m);
        assert_eq!(by_time.format, times[0].0);
        assert_eq!(by_time.source, RecommendationSource::Model);
    }

    #[test]
    fn injected_feature_fault_falls_back_to_heuristic() {
        let a = advisor();
        let m = banded_matrix();
        let plan = FaultPlan::always(FaultSite::FeatureExtraction);
        let rec = a.recommend_with(&m, &plan);
        assert_eq!(rec.source, RecommendationSource::Heuristic);
        // The banded matrix has uniform rows, so the rules say ELL.
        assert_eq!(rec.format, Format::Ell);
        // And the checked path reports the injection as a typed error.
        let err = a.recommend_checked_with(&m, &plan).unwrap_err();
        assert!(matches!(err, AdvisorError::Injected(_)));
    }

    #[test]
    fn truncated_artifact_is_rejected_not_parsed() {
        let a = advisor();
        let path = tmpfile("truncated.json");
        a.save(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            FormatAdvisor::load(&path),
            Err(ArtifactError::Malformed(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let a = advisor();
        let path = tmpfile("corrupt.json");
        a.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside the payload without breaking the JSON.
        let idx = text.find("0.1").expect("some numeric literal");
        let mut bytes = text.into_bytes();
        bytes[idx] = b'9';
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            FormatAdvisor::load(&path),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_and_foreign_artifacts_are_rejected() {
        let a = advisor();
        let path = tmpfile("stale.json");
        a.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let pristine: Artifact = serde_json::from_str(&text).unwrap();
        let rewrite = |art: &Artifact| {
            std::fs::write(&path, serde_json::to_string(art).unwrap()).unwrap();
        };

        let mut stale = Artifact {
            magic: pristine.magic.clone(),
            artifact_version: pristine.artifact_version,
            model_version: 0,
            feature_arity: pristine.feature_arity,
            kind: pristine.kind.clone(),
            checksum: pristine.checksum.clone(),
            payload: pristine.payload.clone(),
        };
        rewrite(&stale);
        assert!(matches!(
            FormatAdvisor::load(&path),
            Err(ArtifactError::StaleModel { artifact: 0, .. })
        ));

        stale.model_version = spmv_gpusim::MODEL_VERSION;
        stale.artifact_version = 99;
        rewrite(&stale);
        assert!(matches!(
            FormatAdvisor::load(&path),
            Err(ArtifactError::UnsupportedVersion(99))
        ));

        stale.artifact_version = ARTIFACT_VERSION;
        stale.magic = "not-an-advisor".to_string();
        rewrite(&stale);
        assert!(matches!(
            FormatAdvisor::load(&path),
            Err(ArtifactError::WrongMagic(_))
        ));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_envelope_without_arity_is_rejected_as_typed_mismatch() {
        // A PR-7-era envelope has no feature_arity key. Presented to the
        // widened loader it must be a typed rejection — artifact reads 0,
        // the payload's 7-feature model is the expectation — never a
        // silently misindexed advisor.
        let a = advisor();
        let path = tmpfile("legacy.json");
        a.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut v: serde_json::Value = serde_json::from_str(&text).unwrap();
        match &mut v {
            serde_json::Value::Map(entries) => {
                let before = entries.len();
                entries.retain(|(k, _)| k != "feature_arity");
                assert_eq!(entries.len(), before - 1, "arity key present");
            }
            other => panic!("envelope must be a map, got {other:?}"),
        }
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        match FormatAdvisor::load(&path) {
            Err(ArtifactError::FeatureArityMismatch { artifact, expected }) => {
                assert_eq!(artifact, 0, "legacy envelopes read as arity 0");
                assert_eq!(expected, 7, "imp. feature set is 7 columns");
            }
            Err(e) => panic!("expected FeatureArityMismatch, got {e}"),
            Ok(_) => panic!("a legacy envelope must not load"),
        }
        // And an untampered save still loads, recording its true arity.
        a.save(&path).unwrap();
        assert!(FormatAdvisor::load(&path).is_ok());
        assert_eq!(a.feature_arity(), 7);
        let info = FormatAdvisor::inspect_artifact(&path).unwrap();
        assert_eq!(info.feature_arity, 7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kindless_envelopes_load_as_format_and_foreign_kinds_are_rejected() {
        let a = advisor();
        let path = tmpfile("kinded.json");
        a.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut pristine: Artifact = serde_json::from_str(&text).unwrap();
        assert_eq!(pristine.kind, ARTIFACT_KIND_FORMAT);

        // Strip the kind key entirely: a pre-dataflow envelope. It must
        // still load — the default reads as "format".
        let mut v: serde_json::Value = serde_json::from_str(&text).unwrap();
        match &mut v {
            serde_json::Value::Map(entries) => entries.retain(|(k, _)| k != "kind"),
            other => panic!("envelope must be a map, got {other:?}"),
        }
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        assert!(FormatAdvisor::load(&path).is_ok(), "legacy kind-less loads");
        let info = FormatAdvisor::inspect_artifact(&path).unwrap();
        assert_eq!(info.kind, "format", "inspect normalizes the default");

        // A dataflow-kinded envelope must be a typed rejection here.
        pristine.kind = ARTIFACT_KIND_DATAFLOW.to_string();
        std::fs::write(&path, serde_json::to_string(&pristine).unwrap()).unwrap();
        match FormatAdvisor::load(&path) {
            Err(ArtifactError::KindMismatch { artifact, expected }) => {
                assert_eq!(artifact, "dataflow");
                assert_eq!(expected, "format");
            }
            Err(e) => panic!("expected KindMismatch, got {e}"),
            Ok(_) => panic!("a dataflow artifact must not load as a format advisor"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_artifact_is_an_io_error() {
        let path = tmpfile("does_not_exist.json");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            FormatAdvisor::load(&path),
            Err(ArtifactError::Io(_))
        ));
    }

    #[test]
    fn injected_model_load_fault_is_typed() {
        let a = advisor();
        let path = tmpfile("injected.json");
        a.save(&path).unwrap();
        let plan = FaultPlan::always(FaultSite::ModelLoad);
        assert!(matches!(
            FormatAdvisor::load_with(&path, &plan),
            Err(ArtifactError::Injected(_))
        ));
        // The same path without the plan still loads.
        assert!(FormatAdvisor::load(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}
