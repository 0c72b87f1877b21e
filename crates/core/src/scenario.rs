//! Multi-scenario label collection: the op-aware generalization of the
//! simulator sweep in [`crate::labels`].
//!
//! A [`Scenario`] names one (operation, machine-pair) cell of the label
//! space — SpMV, SpMM (k ∈ {4, 16}), or iterative-solver repeated
//! products, over the paper GPUs or the many-core CPU-style presets —
//! and this module labels a corpus in it through
//! [`Simulator::measure_profile_op`]. Everything else mirrors the
//! simulator path exactly: the same structural profiling, the same
//! fault-site keys (`{name}/{fmt}` for conversion,
//! `{name}/{fmt}/{arch}/{prec}` for measurement), the same per-cell noise
//! seeds ([`cell_seed`] deliberately excludes the op), the same
//! panic-contained parallel collection. That construction makes the
//! differential anchor provable: the `(Spmv, PaperGpus)` scenario
//! reproduces [`LabeledCorpus::collect_with`] byte-for-byte.

use std::path::Path;

use spmv_corpus::SyntheticSuite;
use spmv_gpusim::{
    cell_seed, spgemm_cell_seed, Dataflow, GpuArch, KernelProfile, ProfileCache, Simulator, SpOp,
    SpgemmProfile,
};
use spmv_matrix::{
    CsrMatrix, CsrStructure, Format, Precision, RowStats, SpgemmOperand, SpgemmSymbolic,
    StructureScratch,
};
use spmv_ml::Executor;

use crate::env::{Env, EnvSpec, Scenario};
use crate::faults::{FaultPlan, FaultSite};
use crate::labels::{
    panic_record, worker_features, CellTimes, LabelFailure, LabeledCorpus, MatrixRecord, N_FORMATS,
};

/// Measure every (format, arch, precision) cell of one matrix under a
/// sparse operation `op` over an explicit machine pair — the op-aware
/// counterpart of [`crate::labels::measure_matrix_outcomes_in`], and an
/// exact superset of it: with `op = SpOp::Spmv` and
/// `machines = &GpuArch::PAPER_MACHINES` every time and failure cell is
/// bit-identical to the simulator path (the differential tests pin this).
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
        let profile = match spmv_matrix::FormatStructure::build(csr, fmt, stats, &mut *scratch) {
            Ok(s) => KernelProfile::of_structure_cached(&s, &mut cache),
            Err(e) => {
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

/// Measure every (dataflow, arch, precision) cell of one SpGEMM — the
/// dataflow analog of [`measure_matrix_op_outcomes_in`]. One symbolic
/// pass over the value-free structure feeds all four dataflow models;
/// dataflow `i` lands in cell-times slot `i` (slots beyond
/// [`spmv_gpusim::N_DATAFLOWS`] stay empty), so the record/corpus serialization is
/// shared with the format cells unchanged. Fault keys mirror the format
/// path with the dataflow label in the format position
/// (`{name}/{dataflow}` and `{name}/{dataflow}/{arch}/{prec}`); the
/// symbolic phase itself never fails (it is a pure counting pass), so
/// there is no conversion-failure analog outside fault injection.
/// Returns the dataflow-feature block alongside times and failures.
#[allow(clippy::too_many_arguments)]
pub fn measure_matrix_spgemm_outcomes_in(
    csr: &CsrMatrix<f64>,
    stats: &RowStats,
    scratch: &mut StructureScratch,
    sim: &Simulator,
    operand: SpgemmOperand,
    machines: &[GpuArch; 2],
    noise_seed: u64,
    name: &str,
    plan: &FaultPlan,
) -> (CellTimes, Vec<LabelFailure>, Vec<f64>) {
    let _ = stats; // same signature family as the op path; the symbolic
                   // pass derives its own row distribution from row_ptr
    let mut times: CellTimes = [[[None; N_FORMATS]; 2]; 2];
    let mut failures: Vec<LabelFailure> = Vec::new();
    let view = CsrStructure::from(csr);
    // The sampling seed is the matrix seed: deterministic per matrix,
    // independent of thread count and of the per-cell jitter streams.
    let sym = SpgemmSymbolic::analyze(view, operand, noise_seed, scratch);
    let profile = SpgemmProfile::of_symbolic(&sym, csr.nnz());
    let extra = profile.dataflow_features().to_vec();
    for df in Dataflow::ALL {
        if let Some(reason) = plan.injected(FaultSite::Conversion, || format!("{name}/{df}")) {
            failures.push(LabelFailure {
                format: None,
                env: None,
                reason,
            });
            continue;
        }
        for (ai, arch) in machines.iter().enumerate() {
            for prec in Precision::ALL {
                let env = Env {
                    arch_idx: ai,
                    precision: prec,
                };
                if let Some(reason) = plan.injected(FaultSite::Measurement, || {
                    format!("{name}/{df}/{}/{}", arch.name, prec.label())
                }) {
                    failures.push(LabelFailure {
                        format: None,
                        env: Some(env),
                        reason,
                    });
                    continue;
                }
                let seed = spgemm_cell_seed(noise_seed, df, arch, prec);
                let meas = sim.measure_spgemm(&profile, df, arch, prec, seed);
                times[ai][prec.idx()][df.class_id()] = Some(meas.time_s);
                spmv_observe::counter("labeling.cells_measured", 1);
            }
        }
    }
    (times, failures, extra)
}

impl LabeledCorpus {
    /// Label every matrix of `suite` under an arbitrary (op, machine-pair)
    /// cell, recording `env_spec` verbatim on the corpus. This is the
    /// shared engine behind [`LabeledCorpus::collect_scenario`] and the
    /// differential tests (which pass `EnvSpec::default()` to reproduce a
    /// simulator corpus byte-for-byte, serialization included).
    #[allow(clippy::too_many_arguments)]
    pub fn collect_op_with(
        suite: &SyntheticSuite,
        sim: &Simulator,
        op: SpOp,
        machines: &'static [GpuArch; 2],
        threads: usize,
        plan: &FaultPlan,
        env_spec: EnvSpec,
    ) -> LabeledCorpus {
        let n = suite.specs.len();
        let _collect_span = spmv_observe::span!("labeling/collect-scenario", matrices = n as u64);
        let exec = Executor::new(threads.clamp(1, n.max(1)));
        let results = exec.try_map_with(n, StructureScratch::new, |scratch, i| {
            let spec = &suite.specs[i];
            if plan.should_fail(FaultSite::WorkerPanic, &spec.name) {
                panic!("{}", FaultPlan::reason(FaultSite::WorkerPanic, &spec.name));
            }
            let csr: CsrMatrix<f64> = spec.generate();
            let _matrix_span = spmv_observe::span!("labeling/matrix", nnz = csr.nnz() as u64);
            let stats = RowStats::of(csr.row_ptr());
            let mut failures: Vec<LabelFailure> = Vec::new();
            let features = worker_features(&spec.name, &csr, &stats, plan, &mut failures);
            let (times, measure_failures) = measure_matrix_op_outcomes_in(
                &csr, &stats, scratch, sim, op, machines, spec.seed, &spec.name, plan,
            );
            failures.extend(measure_failures);
            spmv_observe::counter("labeling.failures", failures.len() as u64);
            MatrixRecord::new(
                suite,
                i,
                (csr.n_rows(), csr.n_cols(), csr.nnz()),
                features,
                times,
                failures,
            )
        });
        let records = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(rec) => rec,
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

    /// Label every matrix of `suite` under an SpGEMM operand shape over
    /// an explicit machine pair — the dataflow counterpart of
    /// [`LabeledCorpus::collect_op_with`]. The class label lives in cell
    /// slots `0..N_DATAFLOWS` and each record's `extra` carries the
    /// symbolic dataflow-feature block.
    pub fn collect_spgemm_with(
        suite: &SyntheticSuite,
        sim: &Simulator,
        operand: SpgemmOperand,
        machines: &'static [GpuArch; 2],
        threads: usize,
        plan: &FaultPlan,
        env_spec: EnvSpec,
    ) -> LabeledCorpus {
        let n = suite.specs.len();
        let _collect_span = spmv_observe::span!("labeling/collect-spgemm", matrices = n as u64);
        let exec = Executor::new(threads.clamp(1, n.max(1)));
        let results = exec.try_map_with(n, StructureScratch::new, |scratch, i| {
            let spec = &suite.specs[i];
            if plan.should_fail(FaultSite::WorkerPanic, &spec.name) {
                panic!("{}", FaultPlan::reason(FaultSite::WorkerPanic, &spec.name));
            }
            let csr: CsrMatrix<f64> = spec.generate();
            let _matrix_span = spmv_observe::span!("labeling/matrix", nnz = csr.nnz() as u64);
            let stats = RowStats::of(csr.row_ptr());
            let mut failures: Vec<LabelFailure> = Vec::new();
            let features = worker_features(&spec.name, &csr, &stats, plan, &mut failures);
            let (times, measure_failures, extra) = measure_matrix_spgemm_outcomes_in(
                &csr, &stats, scratch, sim, operand, machines, spec.seed, &spec.name, plan,
            );
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

    /// Label every matrix of `suite` in one scenario cell.
    pub fn collect_scenario(suite: &SyntheticSuite, sc: Scenario, threads: usize) -> LabeledCorpus {
        Self::collect_scenario_with(suite, sc, threads, &FaultPlan::none())
    }

    /// [`LabeledCorpus::collect_scenario`] under a fault plan: SpMV-family
    /// cells go through the op-aware simulator, SpGEMM cells through the
    /// symbolic-phase dataflow models.
    pub fn collect_scenario_with(
        suite: &SyntheticSuite,
        sc: Scenario,
        threads: usize,
        plan: &FaultPlan,
    ) -> LabeledCorpus {
        match sc.op.spmv_op() {
            Some(op) => Self::collect_op_with(
                suite,
                &Simulator::default(),
                op,
                sc.machines(),
                threads,
                plan,
                EnvSpec::scenario(sc),
            ),
            None => {
                // Non-SpMV cells are SpGEMM by construction of ScenarioOp;
                // degrade to A·A if a future op forgets its operand.
                let operand = sc.op.spgemm_operand().unwrap_or(SpgemmOperand::AA);
                Self::collect_spgemm_with(
                    suite,
                    &Simulator::default(),
                    operand,
                    sc.machines(),
                    threads,
                    plan,
                    EnvSpec::scenario(sc),
                )
            }
        }
    }

    /// Load a scenario corpus from cache if it matches (suite seed,
    /// length, gpusim model version — scenario labels DO depend on the
    /// simulator — and the scenario's own [`EnvSpec`], so one cell's cache
    /// is never silently reused by another), else collect and cache.
    pub fn load_or_collect_scenario(
        suite: &SyntheticSuite,
        sc: Scenario,
        threads: usize,
        cache: &Path,
    ) -> LabeledCorpus {
        if cache.exists() {
            if let Ok(c) = Self::load(cache) {
                if c.suite_seed == suite.seed
                    && c.records.len() == suite.len()
                    && c.model_version == spmv_gpusim::MODEL_VERSION
                    && c.env_spec == EnvSpec::scenario(sc)
                {
                    spmv_observe::counter("labeling.cache_hits", 1);
                    return c;
                }
            }
        }
        spmv_observe::counter("labeling.cache_misses", 1);
        let c = Self::collect_scenario(suite, sc, threads);
        if let Some(dir) = cache.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = c.save(cache);
        c
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::env::{ArchSet, ScenarioOp};
    use spmv_corpus::CorpusScale;

    #[test]
    fn gpu_spmv_scenario_reproduces_the_simulator_corpus_exactly() {
        // The differential anchor at the collector level: times, failures,
        // AND the serialized bytes (env_spec aside) must match.
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let sim = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
        let sc = Scenario {
            op: ScenarioOp::Spmv,
            archs: ArchSet::PaperGpus,
        };
        let scen = LabeledCorpus::collect_scenario(&suite, sc, 2);
        assert_eq!(scen.records.len(), sim.records.len());
        for (a, b) in sim.records.iter().zip(&scen.records) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.times, b.times, "{}", a.name);
            assert_eq!(a.failures, b.failures);
        }
        assert_eq!(scen.env_spec, EnvSpec::scenario(sc));
        assert!(!scen.env_spec.is_simulator());
    }

    #[test]
    fn scenario_collection_is_thread_invariant_and_cells_differ() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 7);
        let sc = Scenario {
            op: ScenarioOp::Spmm16,
            archs: ArchSet::ManyCore,
        };
        let a = LabeledCorpus::collect_scenario(&suite, sc, 1);
        let b = LabeledCorpus::collect_scenario(&suite, sc, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "scenario labels must not depend on the thread count"
        );
        // A different op over the same machines moves the labels.
        let other = LabeledCorpus::collect_scenario(
            &suite,
            Scenario {
                op: ScenarioOp::Spmv,
                archs: ArchSet::ManyCore,
            },
            2,
        );
        assert_ne!(a.records[0].times, other.records[0].times);
    }

    #[test]
    fn fault_sites_key_identically_to_the_simulator_path() {
        // The same plan must hit the same (matrix, format) conversion
        // cells in every scenario: keys don't mention the op, and the
        // paper-GPU scenarios share even the measurement keys.
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 9);
        let plan = FaultPlan::new(5)
            .inject(FaultSite::Conversion, 0.3)
            .inject(FaultSite::Measurement, 0.2);
        let sim = LabeledCorpus::collect_with(&suite, &Simulator::default(), 2, &plan);
        let scen = LabeledCorpus::collect_scenario_with(
            &suite,
            Scenario {
                op: ScenarioOp::Solver,
                archs: ArchSet::PaperGpus,
            },
            2,
            &plan,
        );
        for (rs, rn) in sim.records.iter().zip(&scen.records) {
            assert_eq!(rs.failures, rn.failures, "{}", rs.name);
        }
    }

    #[test]
    fn spgemm_cells_label_dataflows_thread_invariantly() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 8);
        let sc = Scenario {
            op: ScenarioOp::SpgemmAAt,
            archs: ArchSet::PaperGpus,
        };
        let a = LabeledCorpus::collect_scenario(&suite, sc, 1);
        let b = LabeledCorpus::collect_scenario(&suite, sc, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "spgemm labels must not depend on the thread count"
        );
        use spmv_gpusim::N_DATAFLOWS;
        for r in &a.records {
            assert_eq!(
                r.extra.len(),
                spmv_features::DATAFLOW_FEATURE_COUNT,
                "{} carries the dataflow-feature block",
                r.name
            );
            for env in Env::ALL {
                let ts = r.env_times(env);
                for (i, t) in ts.iter().enumerate() {
                    if i < N_DATAFLOWS {
                        assert!(t.is_some(), "{} slot {i} measured", r.name);
                    } else {
                        assert!(t.is_none(), "{} slot {i} must stay empty", r.name);
                    }
                }
            }
            assert!(r.complete_slots(N_DATAFLOWS));
            assert!(r.best_slot(Env::ALL[0], N_DATAFLOWS).is_some());
        }
        // The two operand shapes are different label distributions. For a
        // symmetric matrix A·A and A·Aᵀ legitimately coincide, so assert
        // over the corpus, not any single record.
        let aa = LabeledCorpus::collect_scenario(
            &suite,
            Scenario {
                op: ScenarioOp::SpgemmAA,
                archs: ArchSet::PaperGpus,
            },
            2,
        );
        assert!(
            aa.records
                .iter()
                .zip(&a.records)
                .any(|(x, y)| x.times != y.times),
            "AA and AAt must differ on some matrix"
        );
    }

    #[test]
    fn spgemm_fault_keys_use_the_dataflow_label() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 9);
        let plan = FaultPlan::new(5)
            .inject(FaultSite::Conversion, 0.3)
            .inject(FaultSite::Measurement, 0.2);
        let c = LabeledCorpus::collect_scenario_with(
            &suite,
            Scenario {
                op: ScenarioOp::SpgemmAA,
                archs: ArchSet::PaperGpus,
            },
            2,
            &plan,
        );
        let injected: Vec<&LabelFailure> = c
            .records
            .iter()
            .flat_map(|r| &r.failures)
            .filter(|f| f.reason.contains("injected"))
            .collect();
        assert!(!injected.is_empty(), "plan should hit some dataflow cells");
        for f in injected {
            assert_eq!(f.format, None, "dataflow failures carry no format");
            assert!(
                Dataflow::ALL.iter().any(|d| f.reason.contains(d.label())),
                "key names a dataflow: {}",
                f.reason
            );
        }
    }

    #[test]
    fn cache_round_trip_is_scenario_checked() {
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 6);
        let dir = std::env::temp_dir().join("spmv_core_scenario_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.gpu-spmm4.json");
        let _ = std::fs::remove_file(&path);
        let sc = Scenario {
            op: ScenarioOp::Spmm4,
            archs: ArchSet::PaperGpus,
        };
        let a = LabeledCorpus::load_or_collect_scenario(&suite, sc, 2, &path);
        assert!(path.exists());
        let b = LabeledCorpus::load_or_collect_scenario(&suite, sc, 2, &path);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "second call must be a byte-identical cache hit"
        );
        // Another scenario must NOT reuse the cache file.
        let other = Scenario {
            op: ScenarioOp::Spmm16,
            archs: ArchSet::PaperGpus,
        };
        let c = LabeledCorpus::load_or_collect_scenario(&suite, other, 2, &path);
        assert_eq!(c.env_spec, EnvSpec::scenario(other));
        assert_ne!(c.records[0].times, a.records[0].times);
        let _ = std::fs::remove_file(&path);
    }
}
