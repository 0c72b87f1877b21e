//! # spmv-core
//!
//! The paper's pipeline, end to end: corpus → features → simulated GPU
//! measurements (labels) → direct classification / performance modeling /
//! indirect classification → tables and figures.
//!
//! The crate's public façade for downstream users is [`FormatAdvisor`]:
//! train once on a labeled corpus, then ask it which format to store a new
//! matrix in and what each format's SpMV time will be.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
// Deployment-path modules: these run on untrusted input (user matrices,
// on-disk artifacts) or hold the panic boundary of the labeling pipeline,
// so the unwrap/expect lints are hard errors in them (tests opt back out
// locally). The rest of the crate is experiment harness code where a
// panic aborts one research run, not a deployment.
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod advisor;
pub mod classify;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod dataflow;
pub mod dataset;
pub mod env;
pub mod experiments;
pub mod extensions;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod faults;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod handle;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod heuristic;
pub mod indirect;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod labels;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod native;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod observe;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod online;
pub mod regress;
pub mod report;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod scenario;
pub mod slowdown;

pub use ablation::ablations;
pub use advisor::{
    AdvisorError, ArtifactError, ArtifactInfo, FormatAdvisor, Recommendation, RecommendationSource,
    ARTIFACT_KIND_DATAFLOW, ARTIFACT_KIND_FORMAT,
};
pub use classify::{evaluate_classifier, xgboost_importance, EvalOutcome, ModelKind, SearchBudget};
pub use dataflow::{heuristic_dataflow, DataflowAdvisor, DataflowRecommendation};
pub use dataset::{ClassificationTask, RegressionTask};
pub use env::{ArchSet, Env, EnvSpec, LabelEnvironment, Scenario, ScenarioOp, CPU_ARCH_LABELS};
pub use experiments::{sweep_seed, ExperimentConfig, ExperimentResult};
pub use extensions::extensions;
pub use faults::{read_matrix_market_file_with, FaultPlan, FaultSite};
pub use handle::{AdvisorBackend, AdvisorHandle, RecommendResponse};
pub use heuristic::HeuristicAdvisor;
pub use indirect::{
    choice_within_tolerance, indirect_accuracy, indirect_picks, ratio_accuracy, IndirectPicks,
};
pub use labels::{
    measure_matrix, measure_matrix_op_outcomes_in, measure_matrix_outcomes,
    measure_matrix_outcomes_reference, CellTimes, LabelFailure, LabelOutcome, LabeledCorpus,
    MatrixRecord, N_FORMATS,
};
pub use native::{measure_matrix_native_outcomes_in, NativeScratch};
pub use observe::TraceSession;
pub use online::{
    FeedbackError, FeedbackEvent, FeedbackOutcome, Generation, OnlineAdvisor, OnlineConfig,
    OnlineStatus, Reservoir, ShadowVerdict,
};
pub use scenario::measure_matrix_spgemm_outcomes_in;

pub use regress::{
    evaluate_regressor, train_time_predictor, RegModelKind, RegressOutcome, TimePredictor,
};
pub use slowdown::slowdown_of;
