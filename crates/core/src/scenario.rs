//! Multi-scenario label measures: the SpMV-family and SpGEMM cells of
//! the label space.
//!
//! A [`Scenario`](crate::Scenario) names one (operation, machine-pair)
//! cell — SpMV, SpMM (k ∈ {4, 16}), iterative-solver repeated products,
//! or SpGEMM (A·A, A·Aᵀ), over the paper GPUs or the many-core CPU-style
//! presets. SpMV-family cells are measured by
//! [`crate::labels::measure_matrix_op_outcomes_in`], the simulator path
//! itself generalized over the op, so the `(Spmv, PaperGpus)` scenario
//! reproduces [`LabeledCorpus::collect_with`] byte-for-byte. SpGEMM cells
//! are measured here through the symbolic-phase dataflow models. Both
//! label a corpus through the one collection loop in [`crate::labels`].

use spmv_corpus::SyntheticSuite;
use spmv_gpusim::{spgemm_cell_seed, Dataflow, GpuArch, Simulator, SpOp, SpgemmProfile};
use spmv_matrix::{
    CsrMatrix, CsrStructure, Precision, RowStats, SpgemmOperand, SpgemmSymbolic, StructureScratch,
};

use crate::env::{Env, EnvSpec};
use crate::faults::{FaultPlan, FaultSite};
use crate::labels::{
    collect_by, CellTimes, LabelFailure, LabeledCorpus, Measurer, OpMeasurer, N_FORMATS,
};

/// Measure every (dataflow, arch, precision) cell of one SpGEMM — the
/// dataflow analog of [`crate::labels::measure_matrix_op_outcomes_in`].
/// One symbolic pass over the value-free structure feeds all four
/// dataflow models; dataflow `i` lands in cell-times slot `i` (slots
/// beyond [`spmv_gpusim::N_DATAFLOWS`] stay empty), so the record/corpus
/// serialization is shared with the format cells unchanged. Fault keys mirror the format
/// path with the dataflow label in the format position
/// (`{name}/{dataflow}` and `{name}/{dataflow}/{arch}/{prec}`); the
/// symbolic phase itself never fails (it is a pure counting pass), so
/// there is no conversion-failure analog outside fault injection.
/// Returns the dataflow-feature block alongside times and failures.
#[allow(clippy::too_many_arguments)]
pub fn measure_matrix_spgemm_outcomes_in(
    csr: &CsrMatrix<f64>,
    scratch: &mut StructureScratch,
    sim: &Simulator,
    operand: SpgemmOperand,
    machines: &[GpuArch; 2],
    noise_seed: u64,
    name: &str,
    plan: &FaultPlan,
) -> (CellTimes, Vec<LabelFailure>, Vec<f64>) {
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

/// The SpGEMM dataflow models as a [`Measurer`].
pub(crate) struct SpgemmMeasurer<'a> {
    pub(crate) sim: &'a Simulator,
    pub(crate) operand: SpgemmOperand,
    pub(crate) machines: &'a [GpuArch; 2],
}

impl Measurer for SpgemmMeasurer<'_> {
    type Scratch = StructureScratch;

    fn collect_span(&self, n: usize) -> spmv_observe::Span {
        spmv_observe::span!("labeling/collect-spgemm", matrices = n as u64)
    }

    fn measure(
        &self,
        csr: &CsrMatrix<f64>,
        _stats: &RowStats,
        scratch: &mut StructureScratch,
        noise_seed: u64,
        name: &str,
        plan: &FaultPlan,
    ) -> (CellTimes, Vec<LabelFailure>, Vec<f64>) {
        measure_matrix_spgemm_outcomes_in(
            csr,
            scratch,
            self.sim,
            self.operand,
            self.machines,
            noise_seed,
            name,
            plan,
        )
    }
}

impl LabeledCorpus {
    /// Label every matrix of `suite` under an arbitrary SpMV-family
    /// (op, machine-pair) cell, recording `env_spec` verbatim on the
    /// corpus. The differential tests pass `EnvSpec::default()` to
    /// reproduce a simulator corpus byte-for-byte, serialization included.
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
        let measurer = OpMeasurer {
            sim,
            op,
            machines,
            span: |n| spmv_observe::span!("labeling/collect-scenario", matrices = n as u64),
        };
        collect_by(suite, &measurer, threads, plan, env_spec)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::env::{ArchSet, LabelEnvironment, Scenario, ScenarioOp};
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
        let scen = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(sc),
            2,
            &FaultPlan::none(),
        );
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
        let a = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(sc),
            1,
            &FaultPlan::none(),
        );
        let b = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(sc),
            4,
            &FaultPlan::none(),
        );
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "scenario labels must not depend on the thread count"
        );
        // A different op over the same machines moves the labels.
        let other = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(Scenario {
                op: ScenarioOp::Spmv,
                archs: ArchSet::ManyCore,
            }),
            2,
            &FaultPlan::none(),
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
        let scen = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(Scenario {
                op: ScenarioOp::Solver,
                archs: ArchSet::PaperGpus,
            }),
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
        let a = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(sc),
            1,
            &FaultPlan::none(),
        );
        let b = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(sc),
            4,
            &FaultPlan::none(),
        );
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
        let aa = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(Scenario {
                op: ScenarioOp::SpgemmAA,
                archs: ArchSet::PaperGpus,
            }),
            2,
            &FaultPlan::none(),
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
        let c = LabeledCorpus::collect_env(
            &suite,
            LabelEnvironment::Scenario(Scenario {
                op: ScenarioOp::SpgemmAA,
                archs: ArchSet::PaperGpus,
            }),
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
        let a = LabeledCorpus::load_or_collect(&suite, LabelEnvironment::Scenario(sc), 2, &path);
        assert!(path.exists());
        let b = LabeledCorpus::load_or_collect(&suite, LabelEnvironment::Scenario(sc), 2, &path);
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
        let c = LabeledCorpus::load_or_collect(&suite, LabelEnvironment::Scenario(other), 2, &path);
        assert_eq!(c.env_spec, EnvSpec::scenario(other));
        assert_ne!(c.records[0].times, a.records[0].times);
        let _ = std::fs::remove_file(&path);
    }
}
