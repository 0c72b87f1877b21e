//! Ground-truth label collection (paper §IV-B): run every matrix in every
//! format on every (machine, precision) cell and record the averaged
//! execution time. This is the expensive step, so results are cached to
//! JSON and collection is parallelized over matrices.
//!
//! Failure is a first-class outcome here, mirroring the paper's matrices
//! that "failed to execute for one or more storage formats": a format
//! conversion error, an injected measurement fault, or even a panicking
//! worker degrades to structured [`LabelFailure`] cells on the record —
//! the corpus survives, downstream studies filter with
//! [`LabeledCorpus::usable`], and [`MatrixRecord::outcome`] exposes each
//! cell as measured-or-failed.

use std::path::Path;

use serde::{Deserialize, Serialize};
use spmv_corpus::SyntheticSuite;
use spmv_features::{extract_with_stats, FeatureVector};
use spmv_gpusim::{cell_seed, GpuArch, KernelProfile, ProfileCache, Simulator, SpOp};
use spmv_matrix::{
    CsrMatrix, Format, FormatStructure, Precision, RowStats, SparseMatrix, SpgemmOperand,
    StructureScratch,
};
use spmv_ml::Executor;

use crate::env::{Env, EnvSpec, LabelEnvironment};
use crate::faults::{FaultPlan, FaultSite};
use crate::native::NativeMeasurer;
use crate::scenario::SpgemmMeasurer;

/// Number of formats (indexing follows [`Format::ALL`]).
pub const N_FORMATS: usize = 6;

/// Measured times for one matrix: `times[arch][precision][format]`,
/// `None` when the format conversion failed (ELL padding blow-up) — the
/// paper likewise drops matrices that "failed to execute for one or more
/// storage formats".
pub type CellTimes = [[[Option<f64>; N_FORMATS]; 2]; 2];

/// One structured labeling failure: which format (and optionally which
/// environment) could not be measured, and why. A `format` of `None`
/// marks a matrix-wide failure (feature extraction, worker panic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelFailure {
    /// Format whose labeling failed; `None` = the whole matrix.
    pub format: Option<Format>,
    /// Environment the failure is confined to; `None` = every cell of the
    /// format (e.g. a conversion failure precedes all measurements).
    pub env: Option<Env>,
    /// Human-readable cause (a [`spmv_matrix::MatrixError`] display, a
    /// contained panic message, or an injected-fault tag).
    pub reason: String,
}

/// One (matrix, format, env) cell of the label grid, as downstream
/// consumers see it: either a measured time or a recorded failure — the
/// paper's two possible outcomes of running a matrix in a format.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelOutcome {
    /// Averaged execution time in seconds.
    Measured(f64),
    /// The cell could not be measured; carries the recorded reason.
    Failed(String),
}

impl LabelOutcome {
    /// The measured time, if any.
    pub fn time(&self) -> Option<f64> {
        match self {
            LabelOutcome::Measured(t) => Some(*t),
            LabelOutcome::Failed(_) => None,
        }
    }
}

/// One labeled matrix: its features plus the full measurement grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixRecord {
    /// Matrix name from the corpus.
    pub name: String,
    /// Census bucket index (Table I row).
    pub bucket: usize,
    /// Generator family label.
    pub family: String,
    /// Rows, columns, and stored non-zeros.
    pub shape: (usize, usize, usize),
    /// The seventeen features.
    pub features: FeatureVector,
    /// The measurement grid.
    pub times: CellTimes,
    /// Structured failure cells. Empty on the happy path — and skipped
    /// when serializing, so fault-free label caches stay byte-identical
    /// to the pre-failure-model format.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub failures: Vec<LabelFailure>,
    /// Op-specific extra features beyond the seventeen matrix features.
    /// SpGEMM dataflow cells store the symbolic-phase dataflow block here
    /// (width [`spmv_features::DATAFLOW_FEATURE_COUNT`], names in
    /// `DATAFLOW_FEATURE_NAMES`); every other environment leaves it empty,
    /// which serializes as nothing — old caches are byte-unchanged.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub extra: Vec<f64>,
}

impl MatrixRecord {
    /// The record of suite matrix `i`, its name, census bucket and family
    /// taken from the suite, with no op-specific extra features.
    pub fn new(
        suite: &SyntheticSuite,
        i: usize,
        shape: (usize, usize, usize),
        features: FeatureVector,
        times: CellTimes,
        failures: Vec<LabelFailure>,
    ) -> MatrixRecord {
        let spec = &suite.specs[i];
        MatrixRecord {
            name: spec.name.clone(),
            bucket: suite.bucket_of[i],
            family: spec.kind.family().to_string(),
            shape,
            features,
            times,
            failures,
            extra: Vec::new(),
        }
    }

    /// Times for one environment, per format.
    pub fn env_times(&self, env: Env) -> &[Option<f64>; N_FORMATS] {
        &self.times[env.arch_idx][env.precision.idx()]
    }

    /// The fastest format among `formats` for `env` (`None` if any needed
    /// time is missing).
    pub fn best_format(&self, env: Env, formats: &[Format]) -> Option<Format> {
        let ts = self.env_times(env);
        let mut best: Option<(Format, f64)> = None;
        for &f in formats {
            let t = ts[f.class_id()]?;
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((f, t));
            }
        }
        best.map(|(f, _)| f)
    }

    /// The fastest of the first `n_slots` cells for `env` (`None` if any
    /// needed time is missing). Environments whose class labels are not
    /// storage formats — the SpGEMM dataflow cells, where slot i holds
    /// `Dataflow::ALL[i]` — read their oracle label through this instead
    /// of [`MatrixRecord::best_format`].
    pub fn best_slot(&self, env: Env, n_slots: usize) -> Option<usize> {
        let ts = self.env_times(env);
        let mut best: Option<(usize, f64)> = None;
        for (i, cell) in ts.iter().enumerate().take(n_slots) {
            let t = (*cell)?;
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((i, t));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Whether the first `n_slots` cells are measured in every env.
    pub fn complete_slots(&self, n_slots: usize) -> bool {
        Env::ALL
            .iter()
            .all(|&e| self.env_times(e).iter().take(n_slots).all(Option::is_some))
    }

    /// Whether all formats in the subset were measurable.
    pub fn complete_for(&self, formats: &[Format]) -> bool {
        Env::ALL.iter().all(|&e| {
            formats
                .iter()
                .all(|f| self.env_times(e)[f.class_id()].is_some())
        })
    }

    /// The structured outcome of one (format, env) cell: measured time, or
    /// the recorded failure that explains the hole in the grid.
    pub fn outcome(&self, env: Env, fmt: Format) -> LabelOutcome {
        if let Some(t) = self.env_times(env)[fmt.class_id()] {
            return LabelOutcome::Measured(t);
        }
        for f in &self.failures {
            let format_matches = f.format.is_none() || f.format == Some(fmt);
            let env_matches = f.env.is_none() || f.env == Some(env);
            if format_matches && env_matches {
                return LabelOutcome::Failed(f.reason.clone());
            }
        }
        LabelOutcome::Failed("no measurement recorded".to_string())
    }
}

/// A fully labeled corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabeledCorpus {
    /// Seed the suite was sampled from.
    pub suite_seed: u64,
    /// [`spmv_gpusim::MODEL_VERSION`] the labels were measured under; a
    /// cache from an older model is re-collected rather than reused.
    #[serde(default)]
    pub model_version: u32,
    /// Descriptor of the environment the times were measured in
    /// (backend kind, architecture rows, operation, precisions).
    /// Simulator corpora — the implied environment of every cache written
    /// before the field existed — skip it entirely, keeping those caches
    /// byte-identical.
    #[serde(default, skip_serializing_if = "EnvSpec::is_simulator")]
    pub env_spec: EnvSpec,
    /// All labeled matrices.
    pub records: Vec<MatrixRecord>,
}

/// Measure one CSR matrix in all formats on the whole environment grid.
/// The kernel profile is architecture- and precision-independent, so each
/// format is profiled once and timed four times.
pub fn measure_matrix(csr: &CsrMatrix<f64>, sim: &Simulator, noise_seed: u64) -> CellTimes {
    measure_matrix_outcomes(csr, sim, noise_seed, "", &FaultPlan::none()).0
}

/// [`measure_matrix`] with structured failure reporting and fault
/// injection: every hole in the returned grid has a matching
/// [`LabelFailure`] explaining it. `name` keys the fault-plan decisions
/// (and the recorded reasons), so an injected run is reproducible.
pub fn measure_matrix_outcomes(
    csr: &CsrMatrix<f64>,
    sim: &Simulator,
    noise_seed: u64,
    name: &str,
    plan: &FaultPlan,
) -> (CellTimes, Vec<LabelFailure>) {
    let stats = RowStats::of(csr.row_ptr());
    let mut scratch = StructureScratch::new();
    measure_matrix_op_outcomes_in(
        csr,
        &stats,
        &mut scratch,
        sim,
        SpOp::Spmv,
        &GpuArch::PAPER_MACHINES,
        noise_seed,
        name,
        plan,
    )
}

/// The structural-profiling hot path: measure every (format, arch,
/// precision) cell of one matrix under a sparse operation `op` over an
/// explicit machine pair, **without materializing any value plane**. Each
/// format's index layout is described as a value-free [`FormatStructure`]
/// (reordered streams derived into `scratch`, ELL's and the HYB head's
/// padded planes read from the CSR rows rather than written out) and
/// profiled via [`KernelProfile::of_structure`];
/// `stats` is the shared single-pass row analysis (the same one that feeds
/// feature extraction), so `row_ptr` is never re-walked per format.
///
/// With `op = SpOp::Spmv` over [`GpuArch::PAPER_MACHINES`] this is the
/// simulator labeling path, byte-identical to
/// [`measure_matrix_outcomes_reference`] (the retired value-carrying path,
/// kept as the golden-test oracle) by construction: the structural views
/// read entry for entry as the conversions' index arrays, both paths feed
/// the same chunks to the same profiling code, and
/// [`Simulator::measure_profile_op`] reproduces
/// [`Simulator::measure_profile`] bit for bit under SpMV.
#[allow(clippy::too_many_arguments)]
pub fn measure_matrix_op_outcomes_in(
    csr: &CsrMatrix<f64>,
    stats: &RowStats,
    scratch: &mut StructureScratch,
    sim: &Simulator,
    op: SpOp,
    machines: &[GpuArch; 2],
    noise_seed: u64,
    name: &str,
    plan: &FaultPlan,
) -> (CellTimes, Vec<LabelFailure>) {
    let mut times: CellTimes = [[[None; N_FORMATS]; 2]; 2];
    let mut failures: Vec<LabelFailure> = Vec::new();
    // COO and merge-CSR gather through the same row-major column stream;
    // the cache measures it once for the whole format sweep.
    let mut cache = ProfileCache::new();
    for fmt in Format::ALL {
        if let Some(reason) = plan.injected(FaultSite::Conversion, || format!("{name}/{fmt}")) {
            failures.push(LabelFailure {
                format: Some(fmt),
                env: None,
                reason,
            });
            continue;
        }
        let profile = match FormatStructure::build(csr, fmt, stats, &mut *scratch) {
            Ok(s) => KernelProfile::of_structure_cached(&s, &mut cache),
            Err(e) => {
                // The paper's organic failure case (ELL padding blow-up):
                // recorded, not fatal. `FormatStructure::build` fails on
                // exactly the inputs `SparseMatrix::from_csr` does, with
                // the identical error.
                failures.push(LabelFailure {
                    format: Some(fmt),
                    env: None,
                    reason: e.to_string(),
                });
                continue;
            }
        };
        for (ai, arch) in machines.iter().enumerate() {
            for prec in Precision::ALL {
                let env = Env {
                    arch_idx: ai,
                    precision: prec,
                };
                if let Some(reason) = plan.injected(FaultSite::Measurement, || {
                    format!("{name}/{fmt}/{}/{}", arch.name, prec.label())
                }) {
                    failures.push(LabelFailure {
                        format: Some(fmt),
                        env: Some(env),
                        reason,
                    });
                    continue;
                }
                // The op is deliberately not folded into the seed: at the
                // identity points (SpMM k=1, solver iters=1) the noise
                // stream must match the plain-SpMV stream bit-for-bit.
                let seed = cell_seed(noise_seed, fmt, arch, prec);
                let meas = sim.measure_profile_op(&profile, arch, prec, op, seed);
                times[ai][prec.idx()][fmt.class_id()] = Some(meas.time_s);
                spmv_observe::counter("labeling.cells_measured", 1);
            }
        }
    }
    spmv_observe::counter("gpusim.profile_cache.hits", cache.hits());
    spmv_observe::counter("gpusim.profile_cache.misses", cache.misses());
    (times, failures)
}

/// The pre-structural implementation of [`measure_matrix_outcomes`], kept
/// verbatim as the oracle for the golden-equality tests and the baseline
/// arm of the labeling-throughput benchmark: it materializes every format
/// via [`SparseMatrix::from_csr`] (full value planes included) and
/// profiles with [`KernelProfile::of`].
pub fn measure_matrix_outcomes_reference(
    csr: &CsrMatrix<f64>,
    sim: &Simulator,
    noise_seed: u64,
    name: &str,
    plan: &FaultPlan,
) -> (CellTimes, Vec<LabelFailure>) {
    let mut times: CellTimes = [[[None; N_FORMATS]; 2]; 2];
    let mut failures: Vec<LabelFailure> = Vec::new();
    for fmt in Format::ALL {
        if let Some(reason) = plan.injected(FaultSite::Conversion, || format!("{name}/{fmt}")) {
            failures.push(LabelFailure {
                format: Some(fmt),
                env: None,
                reason,
            });
            continue;
        }
        let m = match SparseMatrix::from_csr(csr, fmt) {
            Ok(m) => m,
            Err(e) => {
                failures.push(LabelFailure {
                    format: Some(fmt),
                    env: None,
                    reason: e.to_string(),
                });
                continue;
            }
        };
        let profile = KernelProfile::of(&m);
        for (ai, arch) in GpuArch::PAPER_MACHINES.iter().enumerate() {
            for prec in Precision::ALL {
                let env = Env {
                    arch_idx: ai,
                    precision: prec,
                };
                if let Some(reason) = plan.injected(FaultSite::Measurement, || {
                    format!("{name}/{fmt}/{}/{}", arch.name, prec.label())
                }) {
                    failures.push(LabelFailure {
                        format: Some(fmt),
                        env: Some(env),
                        reason,
                    });
                    continue;
                }
                let seed = cell_seed(noise_seed, fmt, arch, prec);
                let meas = sim.measure_profile(&profile, arch, prec, seed);
                times[ai][prec.idx()][fmt.class_id()] = Some(meas.time_s);
            }
        }
    }
    (times, failures)
}

/// The feature block of one record, in every label environment: injected or
/// organic extraction failures degrade to a zeroed vector plus a
/// matrix-wide [`LabelFailure`], and the finite guard keeps NaN/Inf out
/// of every training set.
fn worker_features(
    spec_name: &str,
    csr: &CsrMatrix<f64>,
    stats: &RowStats,
    plan: &FaultPlan,
    failures: &mut Vec<LabelFailure>,
) -> FeatureVector {
    if plan.should_fail(FaultSite::FeatureExtraction, spec_name) {
        failures.push(LabelFailure {
            format: None,
            env: None,
            reason: FaultPlan::reason(FaultSite::FeatureExtraction, spec_name),
        });
        return FeatureVector::zeros();
    }
    let f = extract_with_stats(csr, stats);
    if f.is_finite() {
        f
    } else {
        failures.push(LabelFailure {
            format: None,
            env: None,
            reason: "feature extraction produced non-finite values".to_string(),
        });
        FeatureVector::zeros()
    }
}

/// The degraded all-failed record a contained worker panic leaves, so
/// the corpus stays aligned with the suite.
fn panic_record(suite: &SyntheticSuite, i: usize, message: &str) -> MatrixRecord {
    spmv_observe::counter("labeling.worker_panics", 1);
    MatrixRecord::new(
        suite,
        i,
        (0, 0, 0),
        FeatureVector::zeros(),
        [[[None; N_FORMATS]; 2]; 2],
        vec![LabelFailure {
            format: None,
            env: None,
            reason: format!("label worker panicked: {message}"),
        }],
    )
}

/// The per-matrix step that differs between labeling environments; the
/// rest of a collection (generation, row analysis, features, failure
/// accounting, panic containment, the corpus envelope) is shared in
/// [`collect_by`].
pub(crate) trait Measurer: Sync {
    /// Buffers one worker reuses across every matrix it labels.
    type Scratch: Default;

    /// Open this environment's collect span over `n` matrices.
    fn collect_span(&self, n: usize) -> spmv_observe::Span;

    /// Measure every cell of one matrix: times, failures, and the record's
    /// op-specific extra features (empty outside SpGEMM).
    fn measure(
        &self,
        csr: &CsrMatrix<f64>,
        stats: &RowStats,
        scratch: &mut Self::Scratch,
        noise_seed: u64,
        name: &str,
        plan: &FaultPlan,
    ) -> (CellTimes, Vec<LabelFailure>, Vec<f64>);
}

/// The op-aware simulator: plain SpMV over the paper GPUs for
/// [`LabeledCorpus::collect_with`], any SpMV-family scenario cell otherwise.
pub(crate) struct OpMeasurer<'a> {
    pub(crate) sim: &'a Simulator,
    pub(crate) op: SpOp,
    pub(crate) machines: &'a [GpuArch; 2],
    /// Opens `labeling/collect` or `labeling/collect-scenario`.
    pub(crate) span: fn(usize) -> spmv_observe::Span,
}

impl Measurer for OpMeasurer<'_> {
    type Scratch = StructureScratch;

    fn collect_span(&self, n: usize) -> spmv_observe::Span {
        (self.span)(n)
    }

    fn measure(
        &self,
        csr: &CsrMatrix<f64>,
        stats: &RowStats,
        scratch: &mut StructureScratch,
        noise_seed: u64,
        name: &str,
        plan: &FaultPlan,
    ) -> (CellTimes, Vec<LabelFailure>, Vec<f64>) {
        let (times, failures) = measure_matrix_op_outcomes_in(
            csr,
            stats,
            scratch,
            self.sim,
            self.op,
            self.machines,
            noise_seed,
            name,
            plan,
        );
        (times, failures, Vec::new())
    }
}

/// Label every matrix of `suite` through `measurer`, running `threads`
/// workers, and record `env_spec` verbatim on the corpus. Worker panics —
/// injected or genuine — are contained per matrix via the executor's
/// `catch_unwind` path and degrade to a record whose failure cell carries
/// the panic message; the rest of the corpus labels normally and no lock
/// is ever poisoned.
pub(crate) fn collect_by<M: Measurer>(
    suite: &SyntheticSuite,
    measurer: &M,
    threads: usize,
    plan: &FaultPlan,
    env_spec: EnvSpec,
) -> LabeledCorpus {
    let n = suite.specs.len();
    let _collect_span = measurer.collect_span(n);
    let exec = Executor::new(threads.clamp(1, n.max(1)));
    // One scratch per worker, reused across every matrix the worker
    // labels: in steady state the per-matrix loop allocates (beyond the
    // generated CSR itself) only the record it returns.
    let results = exec.try_map_with(n, M::Scratch::default, |scratch, i| {
        let spec = &suite.specs[i];
        if plan.should_fail(FaultSite::WorkerPanic, &spec.name) {
            panic!("{}", FaultPlan::reason(FaultSite::WorkerPanic, &spec.name));
        }
        let csr: CsrMatrix<f64> = spec.generate();
        // Span identity is the static path (not the worker thread), so
        // the hit count — one per matrix — lands in the deterministic
        // section while per-worker wall time aggregates in timing.
        let _matrix_span = spmv_observe::span!("labeling/matrix", nnz = csr.nnz() as u64);
        // One pass over row_ptr serves ELL width selection, the HYB
        // threshold, CSR5 tiling, merge setup, AND the row-length
        // features below.
        let stats = RowStats::of(csr.row_ptr());
        let mut failures: Vec<LabelFailure> = Vec::new();
        let features = worker_features(&spec.name, &csr, &stats, plan, &mut failures);
        let (times, measure_failures, extra) =
            measurer.measure(&csr, &stats, scratch, spec.seed, &spec.name, plan);
        failures.extend(measure_failures);
        spmv_observe::counter("labeling.failures", failures.len() as u64);
        MatrixRecord {
            extra,
            ..MatrixRecord::new(
                suite,
                i,
                (csr.n_rows(), csr.n_cols(), csr.nnz()),
                features,
                times,
                failures,
            )
        }
    });
    let records = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(rec) => rec,
            // Contained worker panic: a degraded all-failed record keeps
            // the corpus aligned with the suite.
            Err(p) => panic_record(suite, i, &p.message),
        })
        .collect();
    LabeledCorpus {
        suite_seed: suite.seed,
        model_version: spmv_gpusim::MODEL_VERSION,
        env_spec,
        records,
    }
}

impl LabeledCorpus {
    /// Label every matrix of `suite`, running `threads` workers.
    pub fn collect(suite: &SyntheticSuite, sim: &Simulator, threads: usize) -> LabeledCorpus {
        Self::collect_with(suite, sim, threads, &FaultPlan::none())
    }

    /// [`LabeledCorpus::collect`] under a fault plan (see `collect_by`
    /// for how failures degrade). With `FaultPlan::none()` the result is
    /// identical to a plain `collect`.
    pub fn collect_with(
        suite: &SyntheticSuite,
        sim: &Simulator,
        threads: usize,
        plan: &FaultPlan,
    ) -> LabeledCorpus {
        let measurer = OpMeasurer {
            sim,
            op: SpOp::Spmv,
            machines: &GpuArch::PAPER_MACHINES,
            span: |n| spmv_observe::span!("labeling/collect", matrices = n as u64),
        };
        collect_by(suite, &measurer, threads, plan, EnvSpec::default())
    }

    /// Label every matrix of `suite` in a label environment under a fault
    /// plan: the default simulator, the native CPU backend, or one scenario
    /// cell (SpMV-family cells through the op-aware simulator, SpGEMM cells
    /// through the symbolic-phase dataflow models).
    pub fn collect_env(
        suite: &SyntheticSuite,
        env: LabelEnvironment,
        threads: usize,
        plan: &FaultPlan,
    ) -> LabeledCorpus {
        let sim = Simulator::default();
        match env {
            LabelEnvironment::Simulator => Self::collect_with(suite, &sim, threads, plan),
            LabelEnvironment::CpuNative | LabelEnvironment::CpuSynthetic { .. } => {
                collect_by(suite, &NativeMeasurer { env }, threads, plan, env.spec())
            }
            LabelEnvironment::Scenario(sc) => match sc.op.spmv_op() {
                Some(op) => {
                    Self::collect_op_with(suite, &sim, op, sc.machines(), threads, plan, env.spec())
                }
                // Non-SpMV cells are SpGEMM by construction of ScenarioOp;
                // degrade to A·A if a future op forgets its operand.
                None => {
                    let measurer = SpgemmMeasurer {
                        sim: &sim,
                        operand: sc.op.spgemm_operand().unwrap_or(SpgemmOperand::AA),
                        machines: sc.machines(),
                    };
                    collect_by(suite, &measurer, threads, plan, env.spec())
                }
            },
        }
    }

    /// Records usable for a study over `formats` (all conversions worked).
    pub fn usable(&self, formats: &[Format]) -> Vec<&MatrixRecord> {
        self.records
            .iter()
            .filter(|r| r.complete_for(formats))
            .collect()
    }

    /// Save as JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(std::io::BufWriter::new(file), self).map_err(std::io::Error::other)
    }

    /// Load from JSON.
    pub fn load(path: &Path) -> std::io::Result<LabeledCorpus> {
        let file = std::fs::File::open(path)?;
        serde_json::from_reader(std::io::BufReader::new(file)).map_err(std::io::Error::other)
    }

    /// Load `env`'s corpus from cache if it matches (suite seed, length,
    /// and the environment descriptor, so one environment's cache is never
    /// silently reused by another), else collect and cache. The gpusim
    /// model version is checked only where the labels come from the
    /// simulator: native labels do not depend on it.
    pub fn load_or_collect(
        suite: &SyntheticSuite,
        env: LabelEnvironment,
        threads: usize,
        cache: &Path,
    ) -> LabeledCorpus {
        if let Ok(c) = Self::load(cache) {
            if c.suite_seed == suite.seed
                && c.records.len() == suite.len()
                && c.env_spec == env.spec()
                && (env.exec_mode().is_some() || c.model_version == spmv_gpusim::MODEL_VERSION)
            {
                spmv_observe::counter("labeling.cache_hits", 1);
                return c;
            }
        }
        spmv_observe::counter("labeling.cache_misses", 1);
        let c = Self::collect_env(suite, env, threads, &FaultPlan::none());
        if let Some(dir) = cache.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = c.save(cache);
        c
    }
}

/// Shared helpers for this crate's unit tests.
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests_support {
    use super::*;
    use spmv_corpus::CorpusScale;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    /// Tiny labeled corpus, memoized per seed (label collection is cheap at
    /// Tiny scale but many tests ask for one).
    pub(crate) fn tiny_labeled_corpus(seed: u64) -> LabeledCorpus {
        static CACHE: OnceLock<Mutex<HashMap<u64, LabeledCorpus>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        // A panicking test holding this lock must not take every later
        // test down with a poisoned-lock panic: recover the guard.
        let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
        guard
            .entry(seed)
            .or_insert_with(|| {
                let suite = SyntheticSuite::sample(CorpusScale::Tiny, seed);
                LabeledCorpus::collect(&suite, &Simulator::default(), 2)
            })
            .clone()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spmv_corpus::CorpusScale;
    use spmv_features::extract;

    fn tiny_corpus() -> LabeledCorpus {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 5);
        LabeledCorpus::collect(&suite, &Simulator::default(), 2)
    }

    #[test]
    fn collection_labels_every_matrix() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 5);
        let c = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
        assert_eq!(c.records.len(), suite.len());
        for r in &c.records {
            // CSR/COO/HYB/merge/CSR5 conversions never fail; check present.
            for &f in &[
                Format::Coo,
                Format::Csr,
                Format::Hyb,
                Format::MergeCsr,
                Format::Csr5,
            ] {
                for env in Env::ALL {
                    assert!(
                        r.env_times(env)[f.class_id()].is_some(),
                        "{}: {f} missing",
                        r.name
                    );
                }
            }
        }
    }

    #[test]
    fn collection_is_deterministic_and_thread_count_invariant() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let a = LabeledCorpus::collect(&suite, &Simulator::default(), 1);
        let b = LabeledCorpus::collect(&suite, &Simulator::default(), 4);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.times, rb.times);
        }
    }

    #[test]
    fn best_format_picks_minimum() {
        let c = tiny_corpus();
        let env = Env::ALL[0];
        for r in c.records.iter().take(10) {
            if let Some(best) = r.best_format(env, &Format::ALL) {
                let ts = r.env_times(env);
                let bt = ts[best.class_id()].expect("best has a time");
                for f in Format::ALL {
                    if let Some(t) = ts[f.class_id()] {
                        assert!(bt <= t, "{}: {best} not fastest", r.name);
                    }
                }
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let c = tiny_corpus();
        let dir = std::env::temp_dir().join("spmv_core_test_labels");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        c.save(&path).unwrap();
        let back = LabeledCorpus::load(&path).unwrap();
        assert_eq!(back.records.len(), c.records.len());
        assert_eq!(back.records[0].times, c.records[0].times);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_free_plan_matches_plain_collection_exactly() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 9);
        let plain = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
        let planned =
            LabeledCorpus::collect_with(&suite, &Simulator::default(), 2, &FaultPlan::none());
        let a = serde_json::to_string(&plain).unwrap();
        let b = serde_json::to_string(&planned).unwrap();
        assert_eq!(a, b, "FaultPlan::none() must be a byte-level no-op");
    }

    #[test]
    fn structural_path_equals_reference_path_exactly() {
        // The tentpole invariant at the measure-one-matrix level: the
        // value-free structural path reproduces the retired value-carrying
        // path bit-for-bit — times AND failure cells — on clean matrices,
        // under fault plans, and through the organic ELL conversion error.
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 13);
        let sim = Simulator::default();
        let plans = [
            FaultPlan::none(),
            FaultPlan::new(5)
                .inject(FaultSite::Conversion, 0.3)
                .inject(FaultSite::Measurement, 0.2),
        ];
        for spec in suite.specs.iter().take(12) {
            let csr: CsrMatrix<f64> = spec.generate();
            for plan in &plans {
                let new = measure_matrix_outcomes(&csr, &sim, spec.seed, &spec.name, plan);
                let old =
                    measure_matrix_outcomes_reference(&csr, &sim, spec.seed, &spec.name, plan);
                assert_eq!(new, old, "{}", spec.name);
            }
        }
    }

    #[test]
    fn natural_conversion_failures_are_recorded_not_silent() {
        // One pathologically long row blows the padded ELL plane
        // (n_rows * max_row_len = 40M slots) past the conversion cap
        // while every other format still converts — the paper's organic
        // "failed to execute for one or more storage formats" case.
        let n_rows = 20_000usize;
        let long = 2_000usize;
        let mut row_ptr: Vec<u32> = Vec::with_capacity(n_rows + 1);
        let mut col_idx: Vec<u32> = (0..long as u32).collect();
        row_ptr.push(0);
        row_ptr.push(long as u32);
        for r in 1..n_rows {
            col_idx.push((r % long) as u32);
            row_ptr.push((long + r) as u32);
        }
        let nnz = col_idx.len();
        let csr = CsrMatrix::from_parts(n_rows, long, row_ptr, col_idx, vec![1.0f64; nnz]).unwrap();
        assert!(SparseMatrix::from_csr(&csr, Format::Ell).is_err());

        let (times, failures) = measure_matrix_outcomes(
            &csr,
            &Simulator::default(),
            42,
            "skewed",
            &FaultPlan::none(),
        );
        // The organic conversion error lands as a structured cell with
        // the real MatrixError text, not a silent hole or a panic.
        let ell_failures: Vec<&LabelFailure> = failures
            .iter()
            .filter(|f| f.format == Some(Format::Ell))
            .collect();
        assert_eq!(ell_failures.len(), 1, "one conversion-scoped failure");
        assert!(
            ell_failures[0].reason.contains("padded storage"),
            "real error text preserved: {}",
            ell_failures[0].reason
        );
        assert!(
            ell_failures[0].env.is_none(),
            "conversion precedes all envs"
        );
        // Every other format still measured on the full env grid.
        for env in Env::ALL {
            let ts = times[env.arch_idx][env.precision.idx()];
            assert!(ts[Format::Ell.class_id()].is_none());
            for fmt in Format::ALL {
                if fmt != Format::Ell {
                    assert!(ts[fmt.class_id()].is_some(), "{fmt} should measure");
                }
            }
        }
        // And the record-level outcome view explains the hole.
        let record = MatrixRecord {
            name: "skewed".to_string(),
            bucket: 0,
            family: "synthetic".to_string(),
            shape: (csr.n_rows(), csr.n_cols(), csr.nnz()),
            features: extract(&csr),
            times,
            failures,
            extra: Vec::new(),
        };
        for env in Env::ALL {
            match record.outcome(env, Format::Ell) {
                LabelOutcome::Failed(reason) => assert!(reason.contains("padded storage")),
                LabelOutcome::Measured(t) => panic!("ELL should have failed, got {t}"),
            }
        }
    }

    #[test]
    fn injected_worker_panic_degrades_to_failed_record() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 5);
        let victim = suite.specs[3].name.clone();
        let plan = FaultPlan::new(11).inject(FaultSite::WorkerPanic, 1e-9);
        // Rate ~0 hits nobody; target one matrix deterministically by
        // checking the full-rate plan instead.
        assert!(!plan.should_fail(FaultSite::WorkerPanic, &victim));
        let plan = FaultPlan::always(FaultSite::WorkerPanic);
        let c = LabeledCorpus::collect_with(&suite, &Simulator::default(), 3, &plan);
        assert_eq!(c.records.len(), suite.len(), "corpus stays aligned");
        for r in &c.records {
            assert_eq!(r.failures.len(), 1);
            assert!(r.failures[0]
                .reason
                .contains("injected fault at worker-panic"));
            assert!(matches!(
                r.outcome(Env::ALL[0], Format::Csr),
                LabelOutcome::Failed(_)
            ));
        }
        assert!(c.usable(&Format::ALL).is_empty());
    }

    #[test]
    fn partial_injection_keeps_the_rest_of_the_corpus_usable() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let plan = FaultPlan::new(21)
            .inject(FaultSite::Conversion, 0.2)
            .inject(FaultSite::WorkerPanic, 0.1);
        let c = LabeledCorpus::collect_with(&suite, &Simulator::default(), 4, &plan);
        assert_eq!(c.records.len(), suite.len());
        let failed: usize = c.records.iter().filter(|r| !r.failures.is_empty()).count();
        assert!(failed > 0, "plan should hit something at these rates");
        let usable = c.usable(&[Format::Csr]).len();
        assert!(
            usable > 0 && usable < c.records.len(),
            "failures recorded yet corpus still usable ({usable}/{})",
            c.records.len()
        );
        // Determinism: the same plan reproduces the same failures.
        let c2 = LabeledCorpus::collect_with(&suite, &Simulator::default(), 1, &plan);
        for (a, b) in c.records.iter().zip(&c2.records) {
            assert_eq!(a.failures, b.failures);
            assert_eq!(a.times, b.times);
        }
    }

    #[test]
    fn failure_free_records_serialize_without_the_failures_field() {
        let c = tiny_corpus();
        let clean = c
            .records
            .iter()
            .find(|r| r.failures.is_empty())
            .expect("some clean record");
        let json = serde_json::to_string(clean).unwrap();
        assert!(
            !json.contains("failures"),
            "cache format must stay stable on the happy path"
        );
        let back: MatrixRecord = serde_json::from_str(&json).unwrap();
        assert!(back.failures.is_empty());
    }

    #[test]
    fn simulator_corpus_serializes_without_env_spec() {
        // The env_spec field must be invisible for simulator corpora so
        // every pre-existing label cache stays byte-identical.
        let c = tiny_corpus();
        assert!(c.env_spec.is_simulator());
        let json = serde_json::to_string(&c).unwrap();
        assert!(!json.contains("env_spec"), "simulator cache drifted");
        let back: LabeledCorpus = serde_json::from_str(&json).unwrap();
        assert!(back.env_spec.is_simulator());
    }

    #[test]
    fn cache_checks_the_model_version_only_for_simulator_labels() {
        // Native labels never touch the simulator, so a cache written under
        // another gpusim model version is still theirs; scenario labels are
        // simulator output and must be re-collected.
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let dir = std::env::temp_dir().join("spmv_core_model_version_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stale = spmv_gpusim::MODEL_VERSION + 1;
        let native = LabelEnvironment::CpuSynthetic { seed: 17 };
        let scenario = LabelEnvironment::parse("gpu-spmm4").unwrap();
        for (env, reused) in [(native, true), (scenario, false)] {
            let path = dir.join(format!("labels.{}.json", env.tag()));
            let mut c = LabeledCorpus::collect_env(&suite, env, 2, &FaultPlan::none());
            c.model_version = stale;
            c.save(&path).unwrap();
            let back = LabeledCorpus::load_or_collect(&suite, env, 2, &path);
            assert_eq!(back.model_version == stale, reused, "{}", env.tag());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn usable_filters_incomplete() {
        let mut c = tiny_corpus();
        let total = c.records.len();
        // CSR never fails to convert.
        assert_eq!(c.usable(&[Format::Csr]).len(), total);
        // Some skewed matrices naturally fail ELL conversion (the paper's
        // "failed for one or more storage formats" case).
        let baseline = c.usable(&Format::BASIC).len();
        assert!(baseline <= total);
        // Poison one currently-complete record's ELL cell.
        let victim = c
            .records
            .iter()
            .position(|r| r.complete_for(&Format::BASIC))
            .expect("some complete record");
        c.records[victim].times[0][0][Format::Ell.class_id()] = None;
        assert_eq!(c.usable(&Format::BASIC).len(), baseline - 1);
    }
}
