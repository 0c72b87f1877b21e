//! The reproduction harness: one function per table/figure of the paper.
//! Each returns an [`ExperimentResult`] with a rendered text artifact; the
//! `repro` binary writes them under `results/`.

use std::path::PathBuf;

use spmv_corpus::{bucket_labels, CorpusScale, GenKind, MatrixSpec, SyntheticSuite};
use spmv_features::{FeatureId, FeatureSet};
use spmv_gpusim::{GpuArch, Simulator};
use spmv_matrix::{CsrMatrix, Format, Precision, SparseMatrix};
use spmv_ml::{thread_budget, Classifier, Executor, FeatureMatrix, SlowdownTable};

use crate::advisor::FormatAdvisor;
use crate::classify::{evaluate_classifier, xgboost, xgboost_importance, ModelKind, SearchBudget};
use crate::dataflow::{heuristic_dataflow, DataflowAdvisor};
use crate::dataset::{ClassificationTask, RegressionTask};
use crate::env::{Env, LabelEnvironment, Scenario};
use crate::indirect::evaluate_indirect;
use crate::labels::{LabeledCorpus, MatrixRecord, N_FORMATS};
use crate::regress::{evaluate_regressor, RegModelKind};
use crate::report::{pct, render_bars, render_table};
use crate::slowdown::slowdown_of;

/// Everything an experiment run needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Corpus scale.
    pub scale: CorpusScale,
    /// Suite sampling seed.
    pub suite_seed: u64,
    /// Train/test split seed.
    pub split_seed: u64,
    /// Hyper-parameter search budget.
    pub budget: SearchBudget,
    /// Worker threads for label collection and experiment-cell sweeps.
    pub threads: usize,
    /// Label cache file (for the simulator environment; other
    /// environments suffix their tag — see [`Self::env_cache_path`]).
    pub cache_path: PathBuf,
    /// Where label times come from (simulator, native CPU, synthetic).
    pub env: LabelEnvironment,
}

impl ExperimentConfig {
    /// Quick configuration: Small corpus, pruned grids — the default for
    /// `repro` and `cargo bench`.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: CorpusScale::Small,
            suite_seed: 20180801, // the preprint's date
            split_seed: 42,
            budget: SearchBudget::Quick,
            threads: thread_budget(None),
            cache_path: PathBuf::from("results/labels_small.json"),
            env: LabelEnvironment::Simulator,
        }
    }

    /// Paper-scale corpus (2299 matrices) with the pruned grids — the
    /// largest run that completes in reasonable time on one core. Add the
    /// paper's full hyper-parameter grids with [`Self::with_paper_grids`].
    pub fn full() -> ExperimentConfig {
        ExperimentConfig {
            scale: CorpusScale::Full,
            cache_path: PathBuf::from("results/labels_full.json"),
            ..ExperimentConfig::quick()
        }
    }

    /// Switch to the paper's full hyper-parameter grids (§IV-D): XGBoost
    /// n_estimators {50,100,200,500} x depth {32,64,128} x lr {.1,.01},
    /// SVM C {100,1000,10000} x gamma {.1,.01,.001}. Hours of CPU time.
    pub fn with_paper_grids(mut self) -> ExperimentConfig {
        self.budget = SearchBudget::Paper;
        self
    }

    /// Tiny configuration for tests.
    pub fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            scale: CorpusScale::Tiny,
            cache_path: PathBuf::from("results/labels_tiny.json"),
            ..ExperimentConfig::quick()
        }
    }

    /// Switch the label environment (native CPU measurement or its
    /// synthetic CI replay instead of the default simulator).
    pub fn with_env(mut self, env: LabelEnvironment) -> ExperimentConfig {
        self.env = env;
        self
    }

    /// The label-cache path for the active environment: the simulator
    /// uses `cache_path` verbatim; other environments insert their tag
    /// before the extension (`labels_tiny.cpu-native.json`), so the two
    /// backends never clobber each other's caches.
    pub fn env_cache_path(&self) -> PathBuf {
        match self.env {
            LabelEnvironment::Simulator => self.cache_path.clone(),
            env => {
                let stem = self
                    .cache_path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("labels");
                self.cache_path
                    .with_file_name(format!("{stem}.{}.json", env.tag()))
            }
        }
    }

    /// Load (or collect and cache) the labeled corpus in the configured
    /// environment.
    pub fn corpus(&self) -> LabeledCorpus {
        let suite = SyntheticSuite::sample(self.scale, self.suite_seed);
        LabeledCorpus::load_or_collect(&suite, self.env, self.threads, &self.env_cache_path())
    }
}

/// Deterministic per-cell seed for the sweep functions below: FNV-1a over
/// the cell's identity labels, mixed with the run's split seed. Every
/// experiment cell (a model x environment x feature-set combination)
/// becomes a pure function of *what it computes* plus the run seed, so
/// rendered tables are byte-identical at any thread count or sweep order.
pub fn sweep_seed(split_seed: u64, parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") hash differently.
        h ^= 0x1f;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ split_seed
}

/// One regenerated table or figure.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Stable id, e.g. `table4` or `fig6`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered text artifact.
    pub body: String,
}

// ---------------------------------------------------------------------------
// Table I: corpus census
// ---------------------------------------------------------------------------

/// Table I: per nnz-range bucket, count and average structure statistics.
pub fn table1(corpus: &LabeledCorpus) -> ExperimentResult {
    let labels = bucket_labels();
    let mut rows = Vec::new();
    for (bi, blabel) in labels.iter().enumerate() {
        let members: Vec<_> = corpus.records.iter().filter(|r| r.bucket == bi).collect();
        if members.is_empty() {
            continue;
        }
        let n = members.len() as f64;
        let avg = |f: &dyn Fn(&crate::labels::MatrixRecord) -> f64| -> f64 {
            members.iter().map(|r| f(r)).sum::<f64>() / n
        };
        rows.push(vec![
            blabel.to_string(),
            members.len().to_string(),
            format!("{:.0}", avg(&|r| r.features.get(FeatureId::NRows))),
            format!("{:.0}", avg(&|r| r.features.get(FeatureId::NCols))),
            format!("{:.2}", avg(&|r| r.features.get(FeatureId::NnzFrac))),
            format!("{:.0}", avg(&|r| r.features.get(FeatureId::NnzMu))),
            format!("{:.0}", avg(&|r| r.features.get(FeatureId::NnzSigma))),
        ]);
    }
    let body = render_table(
        "Table I: feature analysis of the synthetic corpus (SuiteSparse-shaped census)",
        &[
            "nnz range".into(),
            "no of matrices".into(),
            "avg. rows".into(),
            "avg. cols".into(),
            "avg. density %".into(),
            "avg. nnz_mu".into(),
            "avg. nnz_sigma".into(),
        ],
        &rows,
    );
    ExperimentResult {
        id: "table1",
        title: "Table I — corpus census".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Figures 2 and 3: motivating GFLOPS comparisons
// ---------------------------------------------------------------------------

fn gflops_of(csr: &CsrMatrix<f64>, fmt: Format, arch: &GpuArch, prec: Precision) -> Option<f64> {
    let m = SparseMatrix::from_csr(csr, fmt).ok()?;
    let sim = Simulator::default();
    Some(
        sim.measure(&m, arch, prec, 7 + fmt.class_id() as u64)
            .gflops,
    )
}

/// Fig. 2: two matrices with near-identical macro shape (rows, nnz) but very
/// different CSR5 / merge-CSR GFLOPS — a regular random-geometric-like mesh
/// vs an irregular power-law graph.
pub fn fig2() -> ExperimentResult {
    // ~6.5M nnz in the paper; scaled here, same contrast.
    let rgg_like: CsrMatrix<f64> = MatrixSpec {
        name: "rgg_like".into(),
        kind: GenKind::Banded {
            n: 52_000,
            half_width: 6,
            fill: 0.95,
        },
        seed: 2,
    }
    .generate();
    let auto_like: CsrMatrix<f64> = MatrixSpec {
        name: "auto_like".into(),
        kind: GenKind::RMat {
            scale: 16,
            nnz: 640_000,
            probs: (0.57, 0.19, 0.19),
        },
        seed: 3,
    }
    .generate();
    let arch = &GpuArch::K80C;
    let mut rows = Vec::new();
    for (name, m) in [
        ("rgg_like (regular)", &rgg_like),
        ("auto_like (irregular)", &auto_like),
    ] {
        rows.push(vec![
            name.to_string(),
            m.n_rows().to_string(),
            m.nnz().to_string(),
            format!(
                "{:.1}",
                gflops_of(m, Format::Csr5, arch, Precision::Single).unwrap_or(0.0)
            ),
            format!(
                "{:.1}",
                gflops_of(m, Format::MergeCsr, arch, Precision::Single).unwrap_or(0.0)
            ),
        ]);
    }
    let body = render_table(
        "Fig. 2: similar macro structure, different achieved GFLOPS (K80c, single)",
        &[
            "matrix".into(),
            "rows".into(),
            "nnz".into(),
            "CSR5 GFLOPS".into(),
            "merge-CSR GFLOPS".into(),
        ],
        &rows,
    );
    ExperimentResult {
        id: "fig2",
        title: "Fig. 2 — same shape, different performance".into(),
        body,
    }
}

/// Fig. 3: GFLOPS of all six formats across representative matrices (K80c,
/// single precision): no single format wins.
pub fn fig3() -> ExperimentResult {
    let specs: Vec<(&str, GenKind)> = vec![
        (
            "banded",
            GenKind::Banded {
                n: 40_000,
                half_width: 6,
                fill: 1.0,
            },
        ),
        ("stencil2d", GenKind::Stencil2D { gx: 220, gy: 220 }),
        (
            "stencil3d",
            GenKind::Stencil3D {
                gx: 36,
                gy: 36,
                gz: 36,
            },
        ),
        (
            "uniform",
            GenKind::Uniform {
                n_rows: 30_000,
                n_cols: 30_000,
                nnz: 280_000,
            },
        ),
        (
            "rmat",
            GenKind::RMat {
                scale: 15,
                nnz: 300_000,
                probs: (0.57, 0.19, 0.19),
            },
        ),
        (
            "rowskew",
            GenKind::RowSkew {
                n_rows: 25_000,
                n_cols: 25_000,
                min_len: 2,
                alpha: 0.9,
                max_len: 2_500,
            },
        ),
        (
            "block",
            GenKind::Block {
                grid: 1_200,
                block_size: 8,
                blocks_per_row: 3,
            },
        ),
        (
            "clustered",
            GenKind::Clustered {
                n_rows: 15_000,
                n_cols: 15_000,
                runs: 4,
                run_len: 5,
            },
        ),
        (
            "diagonal",
            GenKind::Diagonal {
                n: 60_000,
                offsets: vec![-90, -1, 0, 1, 90],
            },
        ),
    ];
    let arch = &GpuArch::K80C;
    let mut rows = Vec::new();
    let mut winners = std::collections::HashSet::new();
    for (i, (name, kind)) in specs.into_iter().enumerate() {
        let m: CsrMatrix<f64> = MatrixSpec {
            name: name.into(),
            kind,
            seed: 100 + i as u64,
        }
        .generate();
        let mut cells = vec![name.to_string()];
        let mut best: Option<(Format, f64)> = None;
        for fmt in Format::ALL {
            match gflops_of(&m, fmt, arch, Precision::Single) {
                Some(g) => {
                    if best.is_none_or(|(_, bg)| g > bg) {
                        best = Some((fmt, g));
                    }
                    cells.push(format!("{g:.1}"));
                }
                None => cells.push("fail".into()),
            }
        }
        if let Some((f, _)) = best {
            winners.insert(f);
            cells.push(f.label().to_string());
        }
        rows.push(cells);
    }
    let mut header: Vec<String> = vec!["matrix".into()];
    header.extend(Format::ALL.iter().map(|f| f.label().to_string()));
    header.push("winner".into());
    let mut body = render_table(
        "Fig. 3: GFLOPS across storage formats (K80c, single precision)",
        &header,
        &rows,
    );
    body.push_str(&format!(
        "\ndistinct winners: {} of 6 formats -> no single format is best\n",
        winners.len()
    ));
    ExperimentResult {
        id: "fig3",
        title: "Fig. 3 — GFLOPS comparison across formats".into(),
        body,
    }
}

/// §V-A's COO discussion as an artifact: among the four basic formats
/// (COO/ELL/CSR/HYB) the paper sees COO best in ~10 % of cases, but always
/// with some other format within noise; with six formats COO essentially
/// never wins. Both claims are checked against the corpus.
pub fn sec5a(corpus: &LabeledCorpus) -> ExperimentResult {
    let four = [Format::Coo, Format::Ell, Format::Csr, Format::Hyb];
    let mut rows = Vec::new();
    for env in Env::ALL {
        let mut coo_wins4 = 0usize;
        let mut total4 = 0usize;
        let mut near_other = 0usize;
        for r in corpus.usable(&four) {
            let ts = r.env_times(env);
            let t = |f: Format| ts[f.class_id()].expect("usable");
            let best = four
                .iter()
                .copied()
                .min_by(|a, b| t(*a).total_cmp(&t(*b)))
                .expect("non-empty");
            total4 += 1;
            if best == Format::Coo {
                coo_wins4 += 1;
                // "at least one of the other formats is similar": within 10 %.
                let runner = four
                    .iter()
                    .filter(|&&f| f != Format::Coo)
                    .map(|&f| t(f))
                    .fold(f64::INFINITY, f64::min);
                if runner <= 1.10 * t(Format::Coo) {
                    near_other += 1;
                }
            }
        }
        let mut coo_wins6 = 0usize;
        let mut total6 = 0usize;
        for r in corpus.usable(&Format::ALL) {
            total6 += 1;
            if r.best_format(env, &Format::ALL) == Some(Format::Coo) {
                coo_wins6 += 1;
            }
        }
        rows.push(vec![
            env.label(),
            format!(
                "{coo_wins4} / {total4} ({:.1}%)",
                100.0 * coo_wins4 as f64 / total4.max(1) as f64
            ),
            format!("{near_other} / {coo_wins4}"),
            format!("{coo_wins6} / {total6}"),
        ]);
    }
    let body = render_table(
        "Sec. V-A: COO as the best format — 4-format study vs 6-format study",
        &[
            "environment".into(),
            "COO best of 4".into(),
            "...with another format within 10%".into(),
            "COO best of 6".into(),
        ],
        &rows,
    );
    ExperimentResult {
        id: "sec5a",
        title: "Sec. V-A — when is COO best?".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Tables IV-X: classification accuracy sweeps
// ---------------------------------------------------------------------------

/// Shared renderer for the accuracy tables: rows = (machine, precision),
/// columns = model families; best cell(s) per row marked with `*`.
pub fn accuracy_table(
    id: &'static str,
    title: &str,
    corpus: &LabeledCorpus,
    formats: &[Format],
    set: FeatureSet,
    cfg: &ExperimentConfig,
) -> ExperimentResult {
    // The paper drops COO-best cases (§V-A) whenever COO is in the universe.
    let drop_coo = formats.contains(&Format::Coo);
    // Every (environment, model) pair is an independent training cell; run
    // them all on the sweep executor, env-major so chunks below are rows.
    let exec = Executor::new(cfg.threads);
    let nm = ModelKind::ALL.len();
    let accs = exec.map(Env::ALL.len() * nm, |c| {
        let (env, kind) = (Env::ALL[c / nm], ModelKind::ALL[c % nm]);
        let task = ClassificationTask::build(corpus, env, formats, set, drop_coo);
        let seed = sweep_seed(
            cfg.split_seed,
            &[id, &cfg.env.env_label(env), set.label(), kind.label()],
        );
        evaluate_classifier(&Executor::serial(), kind, &task, seed, cfg.budget).accuracy
    });
    let mut rows = Vec::new();
    for (env, accs) in Env::ALL.into_iter().zip(accs.chunks(nm)) {
        let best = accs.iter().copied().fold(0.0f64, f64::max);
        let mut cells = vec![
            cfg.env.arch_name(env.arch_idx).to_string(),
            env.precision.label().to_string(),
        ];
        for a in accs {
            let mark = if (best - a).abs() < 0.005 { "*" } else { "" };
            cells.push(format!("{}{}", pct(*a), mark));
        }
        rows.push(cells);
    }
    let mut header: Vec<String> = vec!["Machine".into(), "precision".into()];
    header.extend(ModelKind::ALL.iter().map(|m| m.label().to_string()));
    let body = render_table(title, &header, &rows);
    ExperimentResult {
        id,
        title: title.to_string(),
        body,
    }
}

/// Tables IV-VI (3 basic formats) and VII-IX (6 formats) across the three
/// feature sets, plus Table X (imp. features, 6 formats).
pub fn classification_tables(
    corpus: &LabeledCorpus,
    cfg: &ExperimentConfig,
) -> Vec<ExperimentResult> {
    let basic: Vec<Format> = Format::BASIC.to_vec();
    let all: Vec<Format> = Format::ALL.to_vec();
    vec![
        accuracy_table(
            "table4",
            "Table IV: accuracy, 3 formats (ELL/CSR/HYB), feature set 1 (5 features)",
            corpus,
            &basic,
            FeatureSet::Set1,
            cfg,
        ),
        accuracy_table(
            "table5",
            "Table V: accuracy, 3 formats (ELL/CSR/HYB), feature sets 1+2 (11 features)",
            corpus,
            &basic,
            FeatureSet::Set12,
            cfg,
        ),
        accuracy_table(
            "table6",
            "Table VI: accuracy, 3 formats (ELL/CSR/HYB), feature sets 1+2+3 (17 features)",
            corpus,
            &basic,
            FeatureSet::Set123,
            cfg,
        ),
        accuracy_table(
            "table7",
            "Table VII: accuracy, 6 formats, feature set 1 (5 features)",
            corpus,
            &all,
            FeatureSet::Set1,
            cfg,
        ),
        accuracy_table(
            "table8",
            "Table VIII: accuracy, 6 formats, feature sets 1+2 (11 features)",
            corpus,
            &all,
            FeatureSet::Set12,
            cfg,
        ),
        accuracy_table(
            "table9",
            "Table IX: accuracy, 6 formats, feature sets 1+2+3 (17 features)",
            corpus,
            &all,
            FeatureSet::Set123,
            cfg,
        ),
        accuracy_table(
            "table10",
            "Table X: accuracy, 6 formats, top-7 imp. features",
            corpus,
            &all,
            FeatureSet::Important,
            cfg,
        ),
    ]
}

// ---------------------------------------------------------------------------
// Figures 4-5: XGBoost feature importance
// ---------------------------------------------------------------------------

/// Figs. 4 (single) / 5 (double): XGBoost F-score importance of all 17
/// features, per machine.
pub fn importance_figure(
    id: &'static str,
    corpus: &LabeledCorpus,
    precision: Precision,
    cfg: &ExperimentConfig,
) -> ExperimentResult {
    let all: Vec<Format> = Format::ALL.to_vec();
    let envs: Vec<Env> = Env::ALL
        .into_iter()
        .filter(|e| e.precision == precision)
        .collect();
    let exec = Executor::new(cfg.threads);
    let imps = exec.map(envs.len(), |i| {
        let env = envs[i];
        let task = ClassificationTask::build(corpus, env, &all, FeatureSet::Set123, true);
        xgboost_importance(
            &task,
            sweep_seed(cfg.split_seed, &[id, &cfg.env.env_label(env)]),
        )
    });
    let mut body = String::new();
    for (env, imp) in envs.into_iter().zip(imps) {
        let mut items: Vec<(String, f64)> = FeatureId::ALL
            .iter()
            .map(|f| (f.name().to_string(), imp[f.index()]))
            .collect();
        items.sort_by(|a, b| a.1.total_cmp(&b.1));
        body.push_str(&render_bars(
            &format!(
                "XGBoost feature importance (F score) — {}",
                cfg.env.env_label(env)
            ),
            &items,
            "splits",
        ));
        body.push('\n');
        let mut top: Vec<&(String, f64)> = items.iter().rev().take(7).collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1));
        body.push_str(&format!(
            "top-7: {}\n\n",
            top.iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let title = format!(
        "Figs. 4/5 — feature importance ({} precision)",
        precision.label()
    );
    ExperimentResult { id, title, body }
}

// ---------------------------------------------------------------------------
// Tables XI-XIII: slowdown of mispredictions
// ---------------------------------------------------------------------------

/// One slowdown table (paper's are on P100 double, 6 formats) for the given
/// classifier, across the four feature sets.
pub fn slowdown_table(
    id: &'static str,
    kind: ModelKind,
    corpus: &LabeledCorpus,
    cfg: &ExperimentConfig,
) -> ExperimentResult {
    let env = Env {
        arch_idx: 1,
        precision: Precision::Double,
    };
    let all: Vec<Format> = Format::ALL.to_vec();
    let exec = Executor::new(cfg.threads);
    let rows = exec.map(FeatureSet::ALL.len(), |i| {
        let set = FeatureSet::ALL[i];
        let task = ClassificationTask::build(corpus, env, &all, set, true);
        let seed = sweep_seed(
            cfg.split_seed,
            &[id, &cfg.env.env_label(env), set.label(), kind.label()],
        );
        let out = evaluate_classifier(&Executor::serial(), kind, &task, seed, cfg.budget);
        let t: SlowdownTable = slowdown_of(&task, &out);
        vec![
            set.label().to_string(),
            t.none.to_string(),
            t.above_1x.to_string(),
            t.above_1_2x.to_string(),
            t.above_1_5x.to_string(),
            t.above_2x.to_string(),
        ]
    });
    let title = format!(
        "Slowdown cases using {} on {}, double precision (test set)",
        kind.label(),
        cfg.env.arch_name(1)
    );
    let body = render_table(
        &title,
        &[
            "feature set".into(),
            "no slowdown".into(),
            ">1x (cumulative)".into(),
            ">=1.2x".into(),
            ">=1.5x".into(),
            ">=2.0x".into(),
        ],
        &rows,
    );
    ExperimentResult { id, title, body }
}

// ---------------------------------------------------------------------------
// Figures 6-7: regression RME
// ---------------------------------------------------------------------------

/// Fig. 6: average RME of the combined 6-format time model, MLP vs MLP
/// ensemble, across the four feature sets, on both machines (double).
pub fn fig6(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    let all: Vec<Format> = Format::ALL.to_vec();
    let envs = [
        Env {
            arch_idx: 0,
            precision: Precision::Double,
        },
        Env {
            arch_idx: 1,
            precision: Precision::Double,
        },
    ];
    // env-major, then feature set, then regressor kind.
    let exec = Executor::new(cfg.threads);
    let (ns, nk) = (FeatureSet::ALL.len(), RegModelKind::ALL.len());
    let rmes = exec.map(envs.len() * ns * nk, |c| {
        let env = envs[c / (ns * nk)];
        let set = FeatureSet::ALL[(c / nk) % ns];
        let kind = RegModelKind::ALL[c % nk];
        let task = RegressionTask::build(corpus, env, &all, set);
        let seed = sweep_seed(
            cfg.split_seed,
            &["fig6", &cfg.env.env_label(env), set.label(), kind.label()],
        );
        evaluate_regressor(kind, &task, seed, cfg.budget).rme
    });
    let mut body = String::new();
    for (env, env_rmes) in envs.into_iter().zip(rmes.chunks(ns * nk)) {
        let rows: Vec<Vec<String>> = FeatureSet::ALL
            .iter()
            .zip(env_rmes.chunks(nk))
            .map(|(set, kind_rmes)| {
                let mut cells = vec![set.label().to_string()];
                cells.extend(kind_rmes.iter().map(|rme| format!("{:.1}", rme * 100.0)));
                cells
            })
            .collect();
        body.push_str(&render_table(
            &format!(
                "Average RME %, 6 formats — {} (double)",
                cfg.env.arch_name(env.arch_idx)
            ),
            &[
                "feature set".into(),
                "MLP regressor".into(),
                "MLP ensemble".into(),
            ],
            &rows,
        ));
        body.push('\n');
    }
    ExperimentResult {
        id: "fig6",
        title: "Fig. 6 — RME of MLP vs MLP-ensemble regressor".into(),
        body,
    }
}

/// Fig. 7: per-format RME of the MLP-ensemble regressor (individual models
/// per format), across the four feature sets, on both machines (double).
pub fn fig7(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    let envs = [
        Env {
            arch_idx: 0,
            precision: Precision::Double,
        },
        Env {
            arch_idx: 1,
            precision: Precision::Double,
        },
    ];
    // env-major, then format, then feature set.
    let exec = Executor::new(cfg.threads);
    let (nfm, ns) = (Format::ALL.len(), FeatureSet::ALL.len());
    let rmes = exec.map(envs.len() * nfm * ns, |c| {
        let env = envs[c / (nfm * ns)];
        let fmt = Format::ALL[(c / ns) % nfm];
        let set = FeatureSet::ALL[c % ns];
        let task = RegressionTask::build(corpus, env, &[fmt], set);
        let seed = sweep_seed(
            cfg.split_seed,
            &["fig7", &cfg.env.env_label(env), fmt.label(), set.label()],
        );
        evaluate_regressor(RegModelKind::MlpEnsemble, &task, seed, cfg.budget).rme
    });
    let mut body = String::new();
    for (env, env_rmes) in envs.into_iter().zip(rmes.chunks(nfm * ns)) {
        let rows: Vec<Vec<String>> = Format::ALL
            .iter()
            .zip(env_rmes.chunks(ns))
            .map(|(fmt, set_rmes)| {
                let mut cells = vec![fmt.label().to_string()];
                cells.extend(set_rmes.iter().map(|rme| format!("{:.1}", rme * 100.0)));
                cells
            })
            .collect();
        let mut header = vec!["format".into()];
        header.extend(FeatureSet::ALL.iter().map(|s| s.label().to_string()));
        body.push_str(&render_table(
            &format!(
                "Per-format RME %, MLP ensemble regressor — {} (double)",
                cfg.env.arch_name(env.arch_idx)
            ),
            &header,
            &rows,
        ));
        body.push('\n');
    }
    ExperimentResult {
        id: "fig7",
        title: "Fig. 7 — per-format RME, MLP ensemble".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Table XIV: direct vs indirect classification
// ---------------------------------------------------------------------------

/// Table XIV: XGBoost direct accuracy vs regressor-argmin indirect accuracy
/// at 0 % and 5 % tolerance, 6 formats, all environments.
pub fn table14(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    let all: Vec<Format> = Format::ALL.to_vec();
    // Three cells per environment: direct XGBoost, indirect at 0 % and at
    // 5 % tolerance. The two indirect cells share one derived seed so both
    // tolerances score the *same* trained regressor, as in the paper.
    let exec = Executor::new(cfg.threads);
    let accs = exec.map(Env::ALL.len() * 3, |c| {
        let env = Env::ALL[c / 3];
        match c % 3 {
            0 => {
                let ctask =
                    ClassificationTask::build(corpus, env, &all, FeatureSet::Important, true);
                let seed = sweep_seed(
                    cfg.split_seed,
                    &["table14", &cfg.env.env_label(env), "XGBST"],
                );
                evaluate_classifier(
                    &Executor::serial(),
                    ModelKind::Xgboost,
                    &ctask,
                    seed,
                    cfg.budget,
                )
                .accuracy
            }
            col => {
                let rtask = RegressionTask::build(corpus, env, &all, FeatureSet::Important);
                let seed = sweep_seed(
                    cfg.split_seed,
                    &["table14", &cfg.env.env_label(env), "indirect"],
                );
                let tolerance = if col == 1 { 0.0 } else { 0.05 };
                evaluate_indirect(
                    RegModelKind::MlpEnsemble,
                    &rtask,
                    seed,
                    cfg.budget,
                    tolerance,
                )
                .accuracy
            }
        }
    });
    let rows: Vec<Vec<String>> = Env::ALL
        .into_iter()
        .zip(accs.chunks(3))
        .map(|(env, a)| {
            vec![
                cfg.env.arch_name(env.arch_idx).to_string(),
                env.precision.label().to_string(),
                pct(a[0]),
                pct(a[1]),
                pct(a[2]),
            ]
        })
        .collect();
    let body = render_table(
        "Table XIV: direct (XGBoost) vs indirect classification (MLP ensemble regressor)",
        &[
            "Machine".into(),
            "precision".into(),
            "XGBST".into(),
            "MLP ens.".into(),
            "MLP ens. 5% tol.".into(),
        ],
        &rows,
    );
    ExperimentResult {
        id: "table14",
        title: "Table XIV — indirect classification".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Native-execution studies: simulated vs measured labels
// ---------------------------------------------------------------------------

/// Winner share per format for one (corpus, env) row of the divergence
/// table.
fn winner_share_row(label: String, corpus: &LabeledCorpus, env: Env) -> Vec<String> {
    let usable = corpus.usable(&Format::ALL);
    let mut wins = [0usize; N_FORMATS];
    for r in &usable {
        if let Some(best) = r.best_format(env, &Format::ALL) {
            wins[best.class_id()] += 1;
        }
    }
    let n = usable.len().max(1) as f64;
    let mut cells = vec![label, usable.len().to_string()];
    cells.extend(
        wins.iter()
            .map(|&w| format!("{:.0}%", 100.0 * w as f64 / n)),
    );
    cells
}

/// How the measured (or synthetic) CPU environment diverges from the GPU
/// simulator on the *same* corpus: per-environment winner distributions
/// side by side, plus the per-matrix winner agreement between the
/// simulator's P100 rows and the CPU's vectorized rows. Low agreement is
/// the point — it demonstrates that format selection is
/// environment-specific, which is why labels must come from the
/// deployment environment (the paper's premise, §IV-B).
pub fn exec_divergence(
    sim: &LabeledCorpus,
    native: &LabeledCorpus,
    native_env: LabelEnvironment,
) -> ExperimentResult {
    let mut rows = Vec::new();
    for env in Env::ALL {
        rows.push(winner_share_row(format!("sim {}", env.label()), sim, env));
    }
    for env in Env::ALL {
        rows.push(winner_share_row(
            format!("exec {}", native_env.env_label(env)),
            native,
            env,
        ));
    }
    let mut header: Vec<String> = vec!["environment".into(), "usable".into()];
    header.extend(Format::ALL.iter().map(|f| f.label().to_string()));
    let mut body = render_table(
        "Winner distribution: simulated GPU labels vs native CPU labels (same corpus)",
        &header,
        &rows,
    );
    // Per-matrix agreement between the simulator's P100 row and the CPU's
    // vectorized row, matched by record (both corpora label the same
    // suite in the same order).
    for prec in Precision::ALL {
        let sim_env = Env {
            arch_idx: 1,
            precision: prec,
        };
        let cpu_env = Env {
            arch_idx: 0,
            precision: prec,
        };
        let mut agree = 0usize;
        let mut total = 0usize;
        for (rs, rn) in sim.records.iter().zip(&native.records) {
            let (a, b) = (
                rs.best_format(sim_env, &Format::ALL),
                rn.best_format(cpu_env, &Format::ALL),
            );
            if let (Some(a), Some(b)) = (a, b) {
                total += 1;
                if a == b {
                    agree += 1;
                }
            }
        }
        body.push_str(&format!(
            "winner agreement, sim {} vs exec {}: {agree}/{total} ({:.1}%)\n",
            sim_env.label(),
            native_env.env_label(cpu_env),
            100.0 * agree as f64 / total.max(1) as f64
        ));
    }
    ExperimentResult {
        id: "exec_divergence",
        title: "Native execution — simulated vs measured winner divergence".into(),
        body,
    }
}

/// Advisor-vs-oracle throughput on a natively labeled corpus: train the
/// [`FormatAdvisor`] on 3/4 of the records, then score its picks on the
/// held-out quarter by *achieved fraction of oracle throughput* —
/// the deployment metric (a wrong pick that is 2% slower matters less
/// than one that is 2x slower), alongside plain pick accuracy.
pub fn exec_oracle(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    let all: Vec<Format> = Format::ALL.to_vec();
    let train = LabeledCorpus {
        suite_seed: corpus.suite_seed,
        model_version: corpus.model_version,
        env_spec: corpus.env_spec.clone(),
        records: corpus
            .records
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 0)
            .map(|(_, r)| r.clone())
            .collect(),
    };
    let test: Vec<&MatrixRecord> = corpus
        .records
        .iter()
        .enumerate()
        .filter(|(i, r)| i % 4 == 0 && r.complete_for(&all))
        .map(|(_, r)| r)
        .collect();
    let mut rows = Vec::new();
    for env in Env::ALL {
        let advisor = FormatAdvisor::train(&train, env, cfg.budget);
        let mut hits = 0usize;
        let mut ratio_sum = 0.0f64;
        let mut worst = 1.0f64;
        for r in &test {
            let pick = advisor.recommend_features(&r.features).format;
            let ts = r.env_times(env);
            let t_pick = ts[pick.class_id()].unwrap_or(f64::INFINITY);
            let t_best = all
                .iter()
                .filter_map(|f| ts[f.class_id()])
                .fold(f64::INFINITY, f64::min);
            if r.best_format(env, &all) == Some(pick) {
                hits += 1;
            }
            ratio_sum += t_best / t_pick;
            worst = worst.max(t_pick / t_best);
        }
        let n = test.len().max(1) as f64;
        rows.push(vec![
            cfg.env.env_label(env),
            test.len().to_string(),
            pct(hits as f64 / n),
            format!("{:.1}%", 100.0 * ratio_sum / n),
            format!("{worst:.2}x"),
        ]);
    }
    let body = render_table(
        "Advisor pick vs oracle on native CPU labels (held-out quarter)",
        &[
            "environment".into(),
            "test matrices".into(),
            "pick accuracy".into(),
            "of oracle throughput".into(),
            "worst slowdown".into(),
        ],
        &rows,
    );
    ExperimentResult {
        id: "exec_oracle",
        title: "Native execution — advisor-vs-oracle throughput".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Cross-scenario study: one unified advisor vs per-scenario experts
// ---------------------------------------------------------------------------

/// The mod-4 holdout the native studies use, applied per scenario corpus:
/// records with `i % 4 != 0` train, the rest (when complete) test.
fn scenario_train_part(corpus: &LabeledCorpus) -> LabeledCorpus {
    LabeledCorpus {
        suite_seed: corpus.suite_seed,
        model_version: corpus.model_version,
        env_spec: corpus.env_spec.clone(),
        records: corpus
            .records
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 0)
            .map(|(_, r)| r.clone())
            .collect(),
    }
}

/// Collect (or load from the env-tagged caches) every format-scenario
/// cell's corpus and run the cross-scenario study on them. The SpGEMM
/// cells are excluded by construction — their class label is a dataflow,
/// not a storage format, so they get their own study
/// ([`spgemm_dataflow`]) instead of a row here.
pub fn cross_scenario(cfg: &ExperimentConfig) -> ExperimentResult {
    let corpora: Vec<(Scenario, LabeledCorpus)> = Scenario::FORMAT_CELLS
        .iter()
        .map(|&sc| {
            (
                sc,
                cfg.clone()
                    .with_env(LabelEnvironment::Scenario(sc))
                    .corpus(),
            )
        })
        .collect();
    cross_scenario_from(&corpora, cfg)
}

/// The tentpole study: does one unified model over the feature-vector v2
/// rows — matrix features plus the `(op, arch, precision)` scenario
/// descriptor — match a fleet of per-scenario expert advisors?
///
/// Per (scenario, machine) cell at double precision: a plain
/// [`FormatAdvisor`] expert trains on that cell's train split alone, while
/// the unified XGBoost classifier trains once on the pooled descriptor-
/// augmented rows of *every* cell. Both are scored on the held-out quarter
/// by pick accuracy; the unified model additionally by achieved fraction
/// of oracle throughput and worst-case slowdown (the deployment metrics).
/// The rendered table reports the per-cell accuracy gap and its mean —
/// the price of replacing 16 expert models with one.
pub fn cross_scenario_from(
    corpora: &[(Scenario, LabeledCorpus)],
    cfg: &ExperimentConfig,
) -> ExperimentResult {
    let all: Vec<Format> = Format::ALL.to_vec();
    let set = FeatureSet::Important;
    let envs = [
        Env {
            arch_idx: 0,
            precision: Precision::Double,
        },
        Env {
            arch_idx: 1,
            precision: Precision::Double,
        },
    ];

    // One unified classifier over the pooled train rows of every cell,
    // scenario-major then arch-row order — a deterministic row order, and
    // `fit` itself is bit-identical at any thread count.
    let mut uni_rows: Vec<Vec<f64>> = Vec::new();
    let mut uni_y: Vec<usize> = Vec::new();
    for (sc, corpus) in corpora {
        let train = scenario_train_part(corpus);
        for env in envs {
            let t = ClassificationTask::build_with_extra(
                &train,
                env,
                &all,
                set,
                true,
                &sc.descriptor(env),
            );
            for i in 0..t.len() {
                uni_rows.push(t.x.row(i).to_vec());
                uni_y.push(t.y[i]);
            }
        }
    }
    let mut unified = xgboost(cfg.budget);
    unified.fit(&FeatureMatrix::from_rows(&uni_rows), &uni_y, all.len());

    // The expert fleet: one per cell, trained on that cell's split alone.
    // Every cell is a pure function of its corpus, so the sweep executor
    // keeps the result order (and bytes) schedule-independent.
    let exec = Executor::new(cfg.threads);
    let experts: Vec<FormatAdvisor> = exec.map(corpora.len() * envs.len(), |c| {
        let (_, corpus) = &corpora[c / envs.len()];
        let env = envs[c % envs.len()];
        FormatAdvisor::train(&scenario_train_part(corpus), env, cfg.budget)
    });

    let mut rows = Vec::new();
    let (mut e_acc_sum, mut u_acc_sum, mut cells) = (0.0f64, 0.0f64, 0usize);
    let mut worst_overall = 1.0f64;
    for (ci, (sc, corpus)) in corpora.iter().enumerate() {
        let test: Vec<&MatrixRecord> = corpus
            .records
            .iter()
            .enumerate()
            .filter(|(i, r)| i % 4 == 0 && r.complete_for(&all))
            .map(|(_, r)| r)
            .collect();
        for (ei, env) in envs.iter().enumerate() {
            let expert = &experts[ci * envs.len() + ei];
            let desc = sc.descriptor(*env);
            let (mut e_hits, mut u_hits) = (0usize, 0usize);
            let mut ratio_sum = 0.0f64;
            let mut worst = 1.0f64;
            for r in &test {
                let best = r.best_format(*env, &all);
                if best == Some(expert.recommend_features(&r.features).format) {
                    e_hits += 1;
                }
                let mut row = r.features.project(set);
                row.extend_from_slice(&desc);
                let probs = unified.predict_proba_one(&row, all.len());
                let class = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let u_pick = all[class];
                if best == Some(u_pick) {
                    u_hits += 1;
                }
                let ts = r.env_times(*env);
                let t_pick = ts[u_pick.class_id()].unwrap_or(f64::INFINITY);
                let t_best = all
                    .iter()
                    .filter_map(|f| ts[f.class_id()])
                    .fold(f64::INFINITY, f64::min);
                ratio_sum += t_best / t_pick;
                worst = worst.max(t_pick / t_best);
            }
            let n = test.len().max(1) as f64;
            let (e_acc, u_acc) = (e_hits as f64 / n, u_hits as f64 / n);
            e_acc_sum += e_acc;
            u_acc_sum += u_acc;
            cells += 1;
            worst_overall = worst_overall.max(worst);
            rows.push(vec![
                sc.tag().to_string(),
                sc.machines()[env.arch_idx].name.to_string(),
                test.len().to_string(),
                pct(e_acc),
                pct(u_acc),
                format!("{:+.1}pp", 100.0 * (u_acc - e_acc)),
                format!("{:.1}%", 100.0 * ratio_sum / n),
                format!("{worst:.2}x"),
            ]);
        }
    }
    let mut body = render_table(
        "Cross-scenario study: per-cell expert advisors vs one unified model \
         (double precision, held-out quarter)",
        &[
            "scenario".into(),
            "machine".into(),
            "test n".into(),
            "expert acc".into(),
            "unified acc".into(),
            "gap".into(),
            "unified %oracle".into(),
            "worst slowdown".into(),
        ],
        &rows,
    );
    let nc = cells.max(1) as f64;
    body.push_str(&format!(
        "\nunified model: {} training rows over {} cells; mean expert acc {}, \
         mean unified acc {}, mean gap {:+.1}pp, worst unified slowdown {:.2}x\n",
        uni_rows.len(),
        cells,
        pct(e_acc_sum / nc),
        pct(u_acc_sum / nc),
        100.0 * (u_acc_sum - e_acc_sum) / nc,
        worst_overall,
    ));
    ExperimentResult {
        id: "cross_scenario",
        title: "Cross-scenario — unified advisor vs per-scenario experts".into(),
        body,
    }
}

// ---------------------------------------------------------------------------
// SpGEMM dataflow study: ML dataflow advisor vs rule-based heuristic
// ---------------------------------------------------------------------------

/// Collect (or load from the env-tagged caches) every SpGEMM scenario
/// cell's corpus and run the dataflow-selection study on them.
pub fn spgemm_dataflow(cfg: &ExperimentConfig) -> ExperimentResult {
    let corpora: Vec<(Scenario, LabeledCorpus)> = Scenario::SPGEMM_CELLS
        .iter()
        .map(|&sc| {
            (
                sc,
                cfg.clone()
                    .with_env(LabelEnvironment::Scenario(sc))
                    .corpus(),
            )
        })
        .collect();
    spgemm_dataflow_from(&corpora, cfg)
}

/// The format-selection thesis transferred to SpGEMM: per
/// `(scenario, machine)` cell at double precision, a
/// [`DataflowAdvisor`] trains on the mod-4 holdout's train part (matrix
/// features plus each record's symbolic dataflow block) and is scored on
/// the held-out quarter against the cell's oracle — pick accuracy,
/// achieved fraction of oracle throughput, and worst-case slowdown. The
/// rule-based [`heuristic_dataflow`] is the baseline column: the gap
/// between the two is the value the learned model adds over the cost
/// models' own dominant-term logic.
pub fn spgemm_dataflow_from(
    corpora: &[(Scenario, LabeledCorpus)],
    cfg: &ExperimentConfig,
) -> ExperimentResult {
    use spmv_gpusim::N_DATAFLOWS;

    let envs = [
        Env {
            arch_idx: 0,
            precision: Precision::Double,
        },
        Env {
            arch_idx: 1,
            precision: Precision::Double,
        },
    ];

    // Every cell is a pure function of its corpus and the run seed, so
    // the sweep executor keeps result order (and bytes) thread-invariant.
    let exec = Executor::new(cfg.threads);
    let advisors: Vec<Option<DataflowAdvisor>> = exec.map(corpora.len() * envs.len(), |c| {
        let (sc, corpus) = &corpora[c / envs.len()];
        let env = envs[c % envs.len()];
        DataflowAdvisor::train_for_scenario(&scenario_train_part(corpus), *sc, env, cfg.budget)
    });

    let mut rows = Vec::new();
    let (mut h_acc_sum, mut m_acc_sum, mut oracle_sum, mut cells) =
        (0.0f64, 0.0f64, 0.0f64, 0usize);
    let mut worst_overall = 1.0f64;
    for (ci, (sc, corpus)) in corpora.iter().enumerate() {
        let test: Vec<&MatrixRecord> = corpus
            .records
            .iter()
            .enumerate()
            .filter(|(i, r)| i % 4 == 0 && r.complete_slots(N_DATAFLOWS))
            .map(|(_, r)| r)
            .collect();
        for (ei, env) in envs.iter().enumerate() {
            let advisor = advisors[ci * envs.len() + ei].as_ref();
            let (mut h_hits, mut m_hits) = (0usize, 0usize);
            let mut ratio_sum = 0.0f64;
            let mut worst = 1.0f64;
            for r in &test {
                let best = r.best_slot(*env, N_DATAFLOWS);
                if best == Some(heuristic_dataflow(&r.extra).dataflow.class_id()) {
                    h_hits += 1;
                }
                let pick = advisor
                    .map(|a| a.recommend(&r.features, &r.extra).dataflow)
                    .unwrap_or_else(|| heuristic_dataflow(&r.extra).dataflow);
                if best == Some(pick.class_id()) {
                    m_hits += 1;
                }
                let ts = r.env_times(*env);
                let t_pick = ts[pick.class_id()].unwrap_or(f64::INFINITY);
                let t_best = ts[..N_DATAFLOWS]
                    .iter()
                    .flatten()
                    .fold(f64::INFINITY, |m, &t| m.min(t));
                ratio_sum += t_best / t_pick;
                worst = worst.max(t_pick / t_best);
            }
            let n = test.len().max(1) as f64;
            let (h_acc, m_acc) = (h_hits as f64 / n, m_hits as f64 / n);
            h_acc_sum += h_acc;
            m_acc_sum += m_acc;
            oracle_sum += ratio_sum / n;
            cells += 1;
            worst_overall = worst_overall.max(worst);
            rows.push(vec![
                sc.tag().to_string(),
                sc.machines()[env.arch_idx].name.to_string(),
                test.len().to_string(),
                pct(h_acc),
                pct(m_acc),
                format!("{:+.1}pp", 100.0 * (m_acc - h_acc)),
                format!("{:.1}%", 100.0 * ratio_sum / n),
                format!("{worst:.2}x"),
            ]);
        }
    }
    let mut body = render_table(
        "SpGEMM dataflow selection: learned advisor vs rule-based heuristic \
         (double precision, held-out quarter)",
        &[
            "scenario".into(),
            "machine".into(),
            "test n".into(),
            "heuristic acc".into(),
            "model acc".into(),
            "gap".into(),
            "model %oracle".into(),
            "worst slowdown".into(),
        ],
        &rows,
    );
    let nc = cells.max(1) as f64;
    body.push_str(&format!(
        "\n{} cells; mean heuristic acc {}, mean model acc {}, mean gap {:+.1}pp, \
         mean model %oracle {:.1}%, worst model slowdown {:.2}x\n",
        cells,
        pct(h_acc_sum / nc),
        pct(m_acc_sum / nc),
        100.0 * (m_acc_sum - h_acc_sum) / nc,
        100.0 * oracle_sum / nc,
        worst_overall,
    ));
    ExperimentResult {
        id: "spgemm_dataflow",
        title: "SpGEMM dataflow selection — learned advisor vs heuristic".into(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::labels::tests_support::tiny_labeled_corpus;

    #[test]
    fn table1_renders_buckets() {
        let corpus = tiny_labeled_corpus(71);
        let r = table1(&corpus);
        assert_eq!(r.id, "table1");
        assert!(r.body.contains("nnz range"));
        // Every present bucket appears.
        assert!(r.body.lines().count() >= 8);
    }

    #[test]
    fn accuracy_table_has_four_rows_and_marks_best() {
        let corpus = tiny_labeled_corpus(71);
        let cfg = ExperimentConfig::tiny();
        let r = accuracy_table(
            "table4",
            "t",
            &corpus,
            &Format::BASIC,
            FeatureSet::Set1,
            &cfg,
        );
        assert!(r.body.contains('*'), "best cell marked: {}", r.body);
        assert!(r.body.contains("K80c") && r.body.contains("P100"));
    }

    #[test]
    fn classification_table_bodies_are_thread_count_invariant() {
        // The sweep executor must not change rendered output: per-cell
        // seeds depend on cell identity, not on schedule. accuracy_table
        // is the building block of every classification_tables entry.
        let corpus = tiny_labeled_corpus(71);
        let mut cfg = ExperimentConfig::tiny();
        cfg.threads = 1;
        let serial = accuracy_table(
            "table4",
            "t",
            &corpus,
            &Format::BASIC,
            FeatureSet::Set1,
            &cfg,
        );
        for threads in [2, 4] {
            cfg.threads = threads;
            let par = accuracy_table(
                "table4",
                "t",
                &corpus,
                &Format::BASIC,
                FeatureSet::Set1,
                &cfg,
            );
            assert_eq!(serial.body, par.body, "threads = {threads}");
        }
    }

    #[test]
    fn sweep_seed_separates_cells_and_mixes_run_seed() {
        let a = sweep_seed(42, &["table4", "K80c", "set1", "XGBST"]);
        let b = sweep_seed(42, &["table4", "K80c", "set1", "SVM"]);
        let c = sweep_seed(43, &["table4", "K80c", "set1", "XGBST"]);
        assert_ne!(a, b, "different cells get different seeds");
        assert_ne!(a, c, "the run seed participates");
        assert_ne!(sweep_seed(0, &["ab", "c"]), sweep_seed(0, &["a", "bc"]));
        assert_eq!(a, sweep_seed(42, &["table4", "K80c", "set1", "XGBST"]));
    }

    #[test]
    fn importance_figure_lists_all_features() {
        let corpus = tiny_labeled_corpus(71);
        let cfg = ExperimentConfig::tiny();
        let r = importance_figure("fig4", &corpus, Precision::Single, &cfg);
        for f in FeatureId::ALL {
            assert!(r.body.contains(f.name()), "missing {}", f.name());
        }
        assert!(r.body.contains("top-7"));
    }

    #[test]
    fn sec5a_reports_coo_rarity() {
        let corpus = tiny_labeled_corpus(71);
        let r = sec5a(&corpus);
        assert!(r.body.contains("COO best of 4"));
        assert!(r.body.contains("COO best of 6"));
        // 4 data percentages + the "within 10%" header.
        assert_eq!(r.body.matches('%').count(), 5);
    }

    #[test]
    fn fig2_contrasts_two_matrices() {
        let r = fig2();
        assert!(r.body.contains("rgg_like"));
        assert!(r.body.contains("auto_like"));
    }

    #[test]
    fn env_cache_path_suffixes_non_simulator_environments() {
        let cfg = ExperimentConfig::tiny();
        assert_eq!(cfg.env_cache_path(), cfg.cache_path);
        let native = cfg.clone().with_env(LabelEnvironment::CpuNative);
        assert_eq!(
            native.env_cache_path(),
            PathBuf::from("results/labels_tiny.cpu-native.json")
        );
        let synth = cfg.with_env(LabelEnvironment::CpuSynthetic { seed: 1 });
        assert_eq!(
            synth.env_cache_path(),
            PathBuf::from("results/labels_tiny.cpu-synthetic.json")
        );
    }

    #[test]
    fn exec_experiments_render_on_a_synthetic_native_corpus() {
        let env = LabelEnvironment::CpuSynthetic { seed: 17 };
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 71);
        let native = LabeledCorpus::collect_env(&suite, env, 2, &FaultPlan::none());
        let sim = tiny_labeled_corpus(71);

        let div = exec_divergence(&sim, &native, env);
        assert!(div.body.contains("sim P100 double"));
        assert!(div.body.contains("exec cpu-simd double"));
        assert!(div.body.contains("winner agreement"));

        let mut cfg = ExperimentConfig::tiny().with_env(env);
        cfg.threads = 2;
        let oracle = exec_oracle(&native, &cfg);
        assert!(oracle.body.contains("cpu-simd single"));
        assert!(oracle.body.contains("cpu-scalar double"));
        assert!(oracle.body.contains('%'));
    }

    #[test]
    fn cross_scenario_table_is_thread_invariant_and_reports_the_gap() {
        // A two-scenario subset keeps the test cheap; the full 8-cell grid
        // runs through `repro --scenario` and the golden sweep.
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 71);
        let subset = [Scenario::ALL[0], Scenario::ALL[5]];
        let corpora: Vec<(Scenario, LabeledCorpus)> = subset
            .iter()
            .map(|&sc| {
                (
                    sc,
                    LabeledCorpus::collect_env(
                        &suite,
                        LabelEnvironment::Scenario(sc),
                        2,
                        &FaultPlan::none(),
                    ),
                )
            })
            .collect();
        let mut cfg = ExperimentConfig::tiny();
        cfg.threads = 1;
        let serial = cross_scenario_from(&corpora, &cfg);
        cfg.threads = 4;
        let par = cross_scenario_from(&corpora, &cfg);
        assert_eq!(
            serial.body, par.body,
            "cross-scenario bytes must not depend on the thread count"
        );
        assert_eq!(serial.id, "cross_scenario");
        assert!(serial.body.contains("gpu-spmv") && serial.body.contains("mc-spmm4"));
        assert!(serial.body.contains("K80c") && serial.body.contains("MC-wide"));
        assert!(serial.body.contains("mean gap"));
        assert!(serial.body.contains("pp"), "gap rendered in points");
    }

    #[test]
    fn spgemm_dataflow_table_is_thread_invariant_and_scores_the_advisor() {
        // One GPU and one many-core SpGEMM cell keep the test cheap; the
        // full 4-cell grid runs through `repro --scenario` and CI.
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 71);
        let subset = [Scenario::SPGEMM_CELLS[0], Scenario::SPGEMM_CELLS[3]];
        let corpora: Vec<(Scenario, LabeledCorpus)> = subset
            .iter()
            .map(|&sc| {
                (
                    sc,
                    LabeledCorpus::collect_env(
                        &suite,
                        LabelEnvironment::Scenario(sc),
                        2,
                        &FaultPlan::none(),
                    ),
                )
            })
            .collect();
        let mut cfg = ExperimentConfig::tiny();
        cfg.threads = 1;
        let serial = spgemm_dataflow_from(&corpora, &cfg);
        cfg.threads = 4;
        let par = spgemm_dataflow_from(&corpora, &cfg);
        assert_eq!(
            serial.body, par.body,
            "spgemm-dataflow bytes must not depend on the thread count"
        );
        assert_eq!(serial.id, "spgemm_dataflow");
        assert!(serial.body.contains("gpu-spgemm-aa") && serial.body.contains("mc-spgemm-aat"));
        assert!(serial.body.contains("K80c") && serial.body.contains("MC-wide"));
        assert!(serial.body.contains("model %oracle"));
        assert!(serial.body.contains("mean gap"));
    }

    #[test]
    fn accuracy_table_on_native_corpus_uses_cpu_row_labels() {
        let env = LabelEnvironment::CpuSynthetic { seed: 17 };
        let suite = SyntheticSuite::sample(CorpusScale::Tiny, 71);
        let native = LabeledCorpus::collect_env(&suite, env, 2, &FaultPlan::none());
        let mut cfg = ExperimentConfig::tiny().with_env(env);
        cfg.threads = 2;
        let r = accuracy_table(
            "table4",
            "t",
            &native,
            &Format::BASIC,
            FeatureSet::Set1,
            &cfg,
        );
        assert!(r.body.contains("cpu-simd") && r.body.contains("cpu-scalar"));
        assert!(
            !r.body.contains("K80c"),
            "GPU names must not leak: {}",
            r.body
        );
    }
}
