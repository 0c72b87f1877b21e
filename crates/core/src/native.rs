//! Native CPU label collection: the measured counterpart of the
//! simulator sweep in [`crate::labels`].
//!
//! The grid has the same shape as the simulator's —
//! `times[arch][precision][format]` — but the two architecture rows are
//! the CPU SIMD tiers ([`CPU_ARCH_LABELS`]: detected-vector and
//! forced-scalar) and the times come from actually running the
//! `spmv-exec` kernels through the calibrated [`Harness`]
//! ([`spmv_exec::ExecMode::Measured`]) or from the deterministic
//! [`spmv_exec::synthetic_time`] stand-in
//! ([`spmv_exec::ExecMode::Synthetic`], CI replay). Fault sites are keyed
//! as on the simulator path. Collection, worker-panic containment and the
//! cache check are the simulator's own: this module supplies only the
//! per-matrix measure, as a `Measurer` for the shared loop in
//! [`crate::labels`], so every downstream consumer (tasks, advisors,
//! experiments) works on a native corpus unchanged.

use spmv_exec::{
    synthetic_time, ExecMode, ExecScratch, Harness, MeasureConfig, PreparedMatrix, SimdKernels,
};
use spmv_matrix::{CsrMatrix, Format, MatrixError, Precision, RowStats, Scalar};

use crate::env::{Env, LabelEnvironment, CPU_ARCH_LABELS};
use crate::faults::{FaultPlan, FaultSite};
use crate::labels::{CellTimes, LabelFailure, Measurer, N_FORMATS};

/// Per-worker scratch for native labeling: the exec buffers for both
/// precisions plus the `x`/`y` product vectors, all reused across every
/// matrix the worker labels so nothing in (or near) the timed region
/// allocates in steady state.
#[derive(Debug, Default)]
pub struct NativeScratch {
    exec64: ExecScratch<f64>,
    exec32: ExecScratch<f32>,
    x64: Vec<f64>,
    y64: Vec<f64>,
    x32: Vec<f32>,
    y32: Vec<f32>,
}

impl NativeScratch {
    /// Empty scratch; buffers grow to the largest matrix measured.
    pub fn new() -> NativeScratch {
        NativeScratch::default()
    }
}

/// Deterministic, sign-alternating dense `x` (the same vector the
/// differential tests use, so measured kernels run on realistic mixed
/// signs rather than all-ones).
fn fill_x<T: Scalar>(x: &mut Vec<T>, n: usize) {
    x.clear();
    x.extend((0..n).map(|j| {
        let h = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        T::from_f64((h % 2000) as f64 / 1000.0 - 1.0)
    }));
}

/// The f32 shadow of an f64 CSR matrix (same structure, demoted values)
/// for the single-precision half of the grid.
fn csr_to_f32(csr: &CsrMatrix<f64>) -> Result<CsrMatrix<f32>, MatrixError> {
    CsrMatrix::from_parts(
        csr.n_rows(),
        csr.n_cols(),
        csr.row_ptr().to_vec(),
        csr.col_idx().to_vec(),
        csr.values().iter().map(|&v| v as f32).collect(),
    )
}

/// Measure one (format, precision) slice of the grid: prepare the
/// execution view once, then fill both architecture rows (SIMD tier and
/// scalar tier). Returns `Err` only when preparation itself fails — the
/// native analogue of a conversion failure.
#[allow(clippy::too_many_arguments)]
fn measure_format_prec<T: SimdKernels>(
    csr: &CsrMatrix<T>,
    fmt: Format,
    stats: &RowStats,
    exec: &mut ExecScratch<T>,
    x: &[T],
    y: &mut [T],
    prec: Precision,
    env: LabelEnvironment,
    mode: ExecMode,
    name: &str,
    plan: &FaultPlan,
    times: &mut CellTimes,
    failures: &mut Vec<LabelFailure>,
) -> Result<(), MatrixError> {
    let prepared = PreparedMatrix::build(csr, fmt, stats, exec)?;
    for (row, arch_label) in CPU_ARCH_LABELS.iter().enumerate() {
        let cell_env = Env {
            arch_idx: row,
            precision: prec,
        };
        let cell_key = format!("{name}/{fmt}/{arch_label}/{}", prec.label());
        if plan.should_fail(FaultSite::Measurement, &cell_key) {
            failures.push(LabelFailure {
                format: Some(fmt),
                env: Some(cell_env),
                reason: FaultPlan::reason(FaultSite::Measurement, &cell_key),
            });
            continue;
        }
        let level = env.cpu_tier(row);
        let seconds = match mode {
            ExecMode::Measured => {
                Harness::new(MeasureConfig::labeling(level))
                    .measure(&prepared, x, y)
                    .seconds
            }
            ExecMode::Synthetic { seed } => {
                spmv_observe::counter("exec.synthetic_cells", 1);
                synthetic_time(seed, &cell_key, &prepared, level)
            }
        };
        times[row][prec.idx()][fmt.class_id()] = Some(seconds);
        spmv_observe::counter("labeling.cells_measured", 1);
    }
    Ok(())
}

/// Measure every (format, arch-tier, precision) cell of one matrix on the
/// native CPU backend — the counterpart of
/// [`crate::labels::measure_matrix_op_outcomes_in`], with the same fault-site
/// keying (`{name}/{fmt}` for conversion, `{name}/{fmt}/{arch}/{prec}`
/// for measurement) so existing fault plans replay against either
/// backend.
pub fn measure_matrix_native_outcomes_in(
    csr: &CsrMatrix<f64>,
    stats: &RowStats,
    scratch: &mut NativeScratch,
    env: LabelEnvironment,
    name: &str,
    plan: &FaultPlan,
) -> (CellTimes, Vec<LabelFailure>) {
    let mut times: CellTimes = [[[None; N_FORMATS]; 2]; 2];
    let mut failures: Vec<LabelFailure> = Vec::new();
    let mode = match env.exec_mode() {
        Some(m) => m,
        None => {
            failures.push(LabelFailure {
                format: None,
                env: None,
                reason: "native measurement requested for the simulator environment".to_string(),
            });
            return (times, failures);
        }
    };
    let NativeScratch {
        exec64,
        exec32,
        x64,
        y64,
        x32,
        y32,
    } = scratch;
    fill_x(x64, csr.n_cols());
    fill_x(x32, csr.n_cols());
    y64.clear();
    y64.resize(csr.n_rows(), 0.0);
    y32.clear();
    y32.resize(csr.n_rows(), 0.0);
    // Structure is precision-independent, so a single f32 shadow copy per
    // matrix serves all six formats' single-precision cells.
    let csr32 = match csr_to_f32(csr) {
        Ok(c) => Some(c),
        Err(e) => {
            failures.push(LabelFailure {
                format: None,
                env: None,
                reason: format!("single-precision shadow copy failed: {e}"),
            });
            None
        }
    };
    for fmt in Format::ALL {
        if let Some(reason) = plan.injected(FaultSite::Conversion, || format!("{name}/{fmt}")) {
            failures.push(LabelFailure {
                format: Some(fmt),
                env: None,
                reason,
            });
            continue;
        }
        if let Err(e) = measure_format_prec(
            csr,
            fmt,
            stats,
            exec64,
            x64,
            y64,
            Precision::Double,
            env,
            mode,
            name,
            plan,
            &mut times,
            &mut failures,
        ) {
            // Preparation fails exactly where the value-carrying
            // conversion does (the ELL padding cap), for both precisions:
            // record one conversion-scoped failure and skip the format.
            failures.push(LabelFailure {
                format: Some(fmt),
                env: None,
                reason: e.to_string(),
            });
            continue;
        }
        if let Some(c32) = &csr32 {
            if let Err(e) = measure_format_prec(
                c32,
                fmt,
                stats,
                exec32,
                x32,
                y32,
                Precision::Single,
                env,
                mode,
                name,
                plan,
                &mut times,
                &mut failures,
            ) {
                failures.push(LabelFailure {
                    format: Some(fmt),
                    env: None,
                    reason: e.to_string(),
                });
            }
        }
    }
    (times, failures)
}

/// The native CPU backend as a [`Measurer`]; `env` is
/// [`LabelEnvironment::CpuNative`] or [`LabelEnvironment::CpuSynthetic`].
pub(crate) struct NativeMeasurer {
    pub(crate) env: LabelEnvironment,
}

impl Measurer for NativeMeasurer {
    type Scratch = NativeScratch;

    fn collect_span(&self, n: usize) -> spmv_observe::Span {
        spmv_observe::span!("labeling/collect-native", matrices = n as u64)
    }

    fn measure(
        &self,
        csr: &CsrMatrix<f64>,
        stats: &RowStats,
        scratch: &mut NativeScratch,
        _noise_seed: u64,
        name: &str,
        plan: &FaultPlan,
    ) -> (CellTimes, Vec<LabelFailure>, Vec<f64>) {
        let (times, failures) =
            measure_matrix_native_outcomes_in(csr, stats, scratch, self.env, name, plan);
        (times, failures, Vec::new())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::labels::{LabeledCorpus, MatrixRecord};
    use spmv_corpus::{CorpusScale, SyntheticSuite};

    const SYNTH: LabelEnvironment = LabelEnvironment::CpuSynthetic { seed: 17 };

    #[test]
    fn synthetic_collection_is_deterministic_and_thread_invariant() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let a = LabeledCorpus::collect_env(&suite, SYNTH, 1, &FaultPlan::none());
        let b = LabeledCorpus::collect_env(&suite, SYNTH, 4, &FaultPlan::none());
        assert_eq!(a.records.len(), suite.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.times, rb.times);
            assert_eq!(ra.failures, rb.failures);
        }
        assert_eq!(a.env_spec, SYNTH.spec());
        // A different synthetic seed moves the labels.
        let c = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::CpuSynthetic { seed: 18 },
            2,
            &FaultPlan::none(),
        );
        assert_ne!(a.records[0].times, c.records[0].times);
    }

    #[test]
    fn synthetic_grid_prefers_simd_row_for_vectorized_formats() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let c = LabeledCorpus::collect_env(&suite, SYNTH, 2, &FaultPlan::none());
        let mut csr_checked = 0usize;
        for r in &c.records {
            for p in Precision::ALL {
                let simd = r.times[0][p.idx()][Format::Csr.class_id()];
                let scalar = r.times[1][p.idx()][Format::Csr.class_id()];
                if let (Some(s), Some(sc)) = (simd, scalar) {
                    assert!(s < sc, "{}: CSR SIMD pseudo-time must beat scalar", r.name);
                    csr_checked += 1;
                }
            }
        }
        assert!(csr_checked > 0);
    }

    #[test]
    fn measured_mode_fills_the_grid_on_a_small_matrix() {
        // One real measured matrix (tiny budget keeps this test fast):
        // every cell of every convertible format lands a positive time.
        let spec = &SyntheticSuite::sample(CorpusScale::Tiny, 5).specs[0];
        let csr: CsrMatrix<f64> = spec.generate();
        let stats = RowStats::of(csr.row_ptr());
        let mut scratch = NativeScratch::new();
        let (times, failures) = measure_matrix_native_outcomes_in(
            &csr,
            &stats,
            &mut scratch,
            LabelEnvironment::CpuNative,
            "probe",
            &FaultPlan::none(),
        );
        assert!(failures.iter().all(|f| f.format == Some(Format::Ell)));
        for fmt in [
            Format::Coo,
            Format::Csr,
            Format::Hyb,
            Format::MergeCsr,
            Format::Csr5,
        ] {
            for (row, by_prec) in times.iter().enumerate() {
                for p in Precision::ALL {
                    let t = by_prec[p.idx()][fmt.class_id()];
                    assert!(t.is_some_and(|t| t > 0.0), "{fmt}/{row}/{}", p.label());
                }
            }
        }
    }

    #[test]
    fn fault_sites_key_identically_to_the_simulator_path() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 9);
        let plan = FaultPlan::new(5)
            .inject(FaultSite::Conversion, 0.3)
            .inject(FaultSite::Measurement, 0.2);
        let sim = LabeledCorpus::collect_with(&suite, &spmv_gpusim::Simulator::default(), 2, &plan);
        let native = LabeledCorpus::collect_env(&suite, SYNTH, 2, &plan);
        // Conversion faults are keyed `{name}/{fmt}` in both backends
        // (and organic ELL-cap errors carry identical MatrixError text),
        // so the same plan produces the same conversion-scoped failures.
        for (rs, rn) in sim.records.iter().zip(&native.records) {
            let conv = |r: &MatrixRecord| -> Vec<(Option<Format>, String)> {
                r.failures
                    .iter()
                    .filter(|f| f.format.is_some() && f.env.is_none())
                    .map(|f| (f.format, f.reason.clone()))
                    .collect()
            };
            assert_eq!(conv(rs), conv(rn), "{}", rs.name);
        }
    }

    #[test]
    fn worker_panic_degrades_not_poisons() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 5);
        let plan = FaultPlan::always(FaultSite::WorkerPanic);
        let c = LabeledCorpus::collect_env(&suite, SYNTH, 3, &plan);
        assert_eq!(c.records.len(), suite.len());
        for r in &c.records {
            assert!(r.failures[0].reason.contains("injected fault"));
        }
        assert!(c.usable(&Format::ALL).is_empty());
    }

    #[test]
    fn cache_round_trip_is_env_checked() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let dir = std::env::temp_dir().join("spmv_core_native_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.cpu-synthetic.json");
        let _ = std::fs::remove_file(&path);
        let a = LabeledCorpus::load_or_collect(&suite, SYNTH, 2, &path);
        assert!(path.exists());
        let b = LabeledCorpus::load_or_collect(&suite, SYNTH, 2, &path);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "second call must be a byte-identical cache hit"
        );
        // A different environment (different synthetic seed) must NOT
        // reuse the cache: the env_spec check forces re-collection.
        let other = LabelEnvironment::CpuSynthetic { seed: 18 };
        let c = LabeledCorpus::load_or_collect(&suite, other, 2, &path);
        assert_eq!(c.env_spec, other.spec());
        assert_ne!(c.records[0].times, a.records[0].times);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn native_corpus_serializes_its_env_spec_and_round_trips() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let c = LabeledCorpus::collect_env(&suite, SYNTH, 2, &FaultPlan::none());
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"env_spec\""));
        assert!(json.contains("cpu-synthetic"));
        let back: LabeledCorpus = serde_json::from_str(&json).unwrap();
        assert_eq!(back.env_spec, c.env_spec);
        assert_eq!(back.records[0].times, c.records[0].times);
    }
}
