//! Extension experiments beyond the paper's evaluation, regenerated by
//! `repro extensions` into `results/ext_*.txt`:
//!
//! * **cross-architecture transfer** — the paper observes the same model
//!   family wins on both GPUs; we ask the stronger question of whether a
//!   model *trained on one GPU's labels* transfers to the other;
//! * **per-bucket accuracy** — does format selection get easier or harder
//!   as matrices grow?
//! * **K40c sanity** — Table III lists a third machine; check that format
//!   rankings vary smoothly across all three architectures.

use spmv_corpus::bucket_labels;
use spmv_features::FeatureSet;
use spmv_gpusim::{GpuArch, Simulator};
use spmv_matrix::{Format, Precision, SparseMatrix};
use spmv_ml::{accuracy, stratified_split, Classifier};

use crate::classify::xgboost;
use crate::dataset::ClassificationTask;
use crate::env::Env;
use crate::experiments::{ExperimentConfig, ExperimentResult};
use crate::labels::LabeledCorpus;
use crate::report::{pct, render_table};

/// Extension 1: train on one environment's labels, evaluate on another's
/// (same matrices, same held-out split). The diagonal is the usual
/// within-environment accuracy.
pub fn ext_cross_arch(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    let all: Vec<Format> = Format::ALL.to_vec();
    // Build tasks per environment on the *same* record set (usable for all).
    let tasks: Vec<ClassificationTask> = Env::ALL
        .iter()
        .map(|&env| ClassificationTask::build(corpus, env, &all, FeatureSet::Important, false))
        .collect();
    // Tasks share sample order because usable() is deterministic; pick one
    // split (by the first task's labels) and reuse the indices everywhere.
    let n = tasks.iter().map(ClassificationTask::len).min().unwrap_or(0);
    let split = stratified_split(&tasks[0].y[..n], 0.2, cfg.split_seed);

    let mut rows = Vec::new();
    for (ti, train_env) in Env::ALL.iter().enumerate() {
        let tt = &tasks[ti];
        let x_train = tt.x.select_rows(&split.train);
        let y_train = spmv_ml::gather(&tt.y, &split.train);
        let mut model = xgboost(cfg.budget);
        model.fit(&x_train, &y_train, all.len());
        let mut cells = vec![train_env.label()];
        for te in &tasks {
            let x_test = te.x.select_rows(&split.test);
            let truth = spmv_ml::gather(&te.y, &split.test);
            let pred = model.predict(&x_test);
            cells.push(pct(accuracy(&pred, &truth)));
        }
        rows.push(cells);
    }
    let mut header = vec!["train \\ test".to_string()];
    header.extend(Env::ALL.iter().map(Env::label));
    let body = render_table(
        "Extension: cross-environment transfer of the XGBoost format selector",
        &header,
        &rows,
    );
    ExperimentResult {
        id: "ext_cross_arch",
        title: "Extension — cross-architecture transfer".into(),
        body,
    }
}

/// Extension 2: held-out accuracy per nnz-census bucket (P100 double,
/// XGBoost, imp. features).
pub fn ext_bucket_accuracy(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    let env = Env {
        arch_idx: 1,
        precision: Precision::Double,
    };
    let all: Vec<Format> = Format::ALL.to_vec();
    let task = ClassificationTask::build(corpus, env, &all, FeatureSet::Important, true);
    // Map task samples back to buckets via record names.
    let bucket_by_name: std::collections::HashMap<&str, usize> = corpus
        .records
        .iter()
        .map(|r| (r.name.as_str(), r.bucket))
        .collect();
    let split = stratified_split(&task.y, 0.2, cfg.split_seed);
    let mut model = xgboost(cfg.budget);
    model.fit(
        &task.x.select_rows(&split.train),
        &spmv_ml::gather(&task.y, &split.train),
        all.len(),
    );
    let pred = model.predict(&task.x.select_rows(&split.test));

    let labels = bucket_labels();
    let mut hit = vec![0usize; labels.len()];
    let mut tot = vec![0usize; labels.len()];
    for (&i, &p) in split.test.iter().zip(&pred) {
        let b = bucket_by_name[task.names[i].as_str()];
        tot[b] += 1;
        if p == task.y[i] {
            hit[b] += 1;
        }
    }
    let mut rows = Vec::new();
    for (bi, label) in labels.iter().enumerate() {
        if tot[bi] == 0 {
            continue;
        }
        rows.push(vec![
            label.to_string(),
            tot[bi].to_string(),
            pct(hit[bi] as f64 / tot[bi] as f64),
        ]);
    }
    let body = render_table(
        "Extension: XGBoost accuracy by matrix-size bucket (P100 double, imp. features)",
        &["nnz range".into(), "test samples".into(), "accuracy".into()],
        &rows,
    );
    ExperimentResult {
        id: "ext_bucket_accuracy",
        title: "Extension — accuracy vs matrix size".into(),
        body,
    }
}

/// Extension 3: the K40c preset (Table III's other Kepler). Format rankings
/// on probe matrices across all three architectures: Keplers agree with
/// each other more than with Pascal.
pub fn ext_k40c() -> ExperimentResult {
    use spmv_corpus::{GenKind, MatrixSpec};
    let archs = [&GpuArch::K40C, &GpuArch::K80C, &GpuArch::P100];
    let sim = Simulator::noiseless();
    let probes: Vec<(&str, GenKind)> = vec![
        (
            "banded",
            GenKind::Banded {
                n: 30_000,
                half_width: 6,
                fill: 1.0,
            },
        ),
        (
            "uniform",
            GenKind::Uniform {
                n_rows: 25_000,
                n_cols: 25_000,
                nnz: 220_000,
            },
        ),
        (
            "rmat",
            GenKind::RMat {
                scale: 15,
                nnz: 280_000,
                probs: (0.57, 0.19, 0.19),
            },
        ),
        (
            "rowskew",
            GenKind::RowSkew {
                n_rows: 22_000,
                n_cols: 22_000,
                min_len: 2,
                alpha: 0.9,
                max_len: 2_000,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (i, (name, kind)) in probes.into_iter().enumerate() {
        let m = MatrixSpec {
            name: name.into(),
            kind,
            seed: 700 + i as u64,
        }
        .generate::<f64>();
        let mut cells = vec![name.to_string()];
        for arch in archs {
            let best = Format::ALL
                .iter()
                .filter_map(|&f| {
                    SparseMatrix::from_csr(&m, f)
                        .ok()
                        .map(|sm| (f, sim.measure(&sm, arch, Precision::Double, 0).time_s))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(f, _)| f.label().to_string())
                .unwrap_or_else(|| "-".into());
            cells.push(best);
        }
        rows.push(cells);
    }
    let body = render_table(
        "Extension: best format per architecture (double precision, noiseless)",
        &["matrix".into(), "K40c".into(), "K80c".into(), "P100".into()],
        &rows,
    );
    ExperimentResult {
        id: "ext_k40c",
        title: "Extension — K40c / K80c / P100 rankings".into(),
        body,
    }
}

/// Extension 4: what would the DIA format (paper §VII's related-work
/// studies include it) add to the lineup? Price DIA against the paper's
/// six formats on diagonal-structured and scattered probes.
pub fn ext_dia() -> ExperimentResult {
    use spmv_corpus::{GenKind, MatrixSpec};
    use spmv_gpusim::profile_dia;
    use spmv_matrix::DiaMatrix;
    let sim = Simulator::noiseless();
    let arch = &GpuArch::K80C;
    let probes: Vec<(&str, GenKind)> = vec![
        (
            "tridiag",
            GenKind::Diagonal {
                n: 80_000,
                offsets: vec![-1, 0, 1],
            },
        ),
        ("stencil2d", GenKind::Stencil2D { gx: 260, gy: 260 }),
        (
            "banded",
            GenKind::Banded {
                n: 30_000,
                half_width: 6,
                fill: 1.0,
            },
        ),
        (
            "banded_holes",
            GenKind::Banded {
                n: 30_000,
                half_width: 6,
                fill: 0.5,
            },
        ),
        (
            "uniform",
            GenKind::Uniform {
                n_rows: 20_000,
                n_cols: 20_000,
                nnz: 160_000,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (i, (name, kind)) in probes.into_iter().enumerate() {
        let m = MatrixSpec {
            name: name.into(),
            kind,
            seed: 800 + i as u64,
        }
        .generate::<f64>();
        // Best of the paper's six.
        let (best6, t6) = Format::ALL
            .iter()
            .filter_map(|&f| {
                SparseMatrix::from_csr(&m, f)
                    .ok()
                    .map(|sm| (f, sim.measure(&sm, arch, Precision::Double, 0).time_s))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("some format");
        let dia_cell = match DiaMatrix::from_csr(&m) {
            Ok(d) => {
                let p = profile_dia(&d);
                let t = sim.measure_profile(&p, arch, Precision::Double, 0).time_s;
                format!("{:.1} (fill {:.0}%)", t * 1e6, d.fill_ratio() * 100.0)
            }
            Err(_) => "conversion fails".into(),
        };
        rows.push(vec![
            name.to_string(),
            format!("{} @ {:.1}", best6.label(), t6 * 1e6),
            dia_cell,
        ]);
    }
    let body = render_table(
        "Extension: DIA vs the best of the paper's six formats (us, K80c double)",
        &["matrix".into(), "best of 6".into(), "DIA".into()],
        &rows,
    );
    ExperimentResult {
        id: "ext_dia",
        title: "Extension — the DIA format".into(),
        body,
    }
}

/// Extension 5: the full model zoo — the paper's four columns plus the
/// MLP ensemble and a bagged random forest — on one configuration
/// (6 formats, feature sets 1+2).
pub fn ext_models(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    use crate::classify::{evaluate_classifier, ModelKind};
    use spmv_ml::{ForestParams, RandomForestClassifier};
    let all: Vec<Format> = Format::ALL.to_vec();
    let mut rows = Vec::new();
    for env in Env::ALL {
        let task = ClassificationTask::build(corpus, env, &all, FeatureSet::Set12, true);
        let mut cells = vec![env.label()];
        for kind in [
            ModelKind::DecisionTree,
            ModelKind::Svm,
            ModelKind::Mlp,
            ModelKind::MlpEnsemble,
            ModelKind::Xgboost,
        ] {
            let out = evaluate_classifier(
                &spmv_ml::Executor::new(cfg.threads),
                kind,
                &task,
                cfg.split_seed,
                cfg.budget,
            );
            cells.push(pct(out.accuracy));
        }
        // Random forest (raw features; trees are scale-invariant).
        let split = stratified_split(&task.y, 0.2, cfg.split_seed);
        let mut rf = RandomForestClassifier::new(ForestParams {
            n_trees: 60,
            seed: cfg.split_seed,
            ..ForestParams::default()
        });
        rf.fit(
            &task.x.select_rows(&split.train),
            &spmv_ml::gather(&task.y, &split.train),
            all.len(),
        );
        let pred = rf.predict(&task.x.select_rows(&split.test));
        cells.push(pct(accuracy(&pred, &spmv_ml::gather(&task.y, &split.test))));
        rows.push(cells);
    }
    let header: Vec<String> = [
        "environment",
        "decs. tree",
        "SVM",
        "MLP",
        "MLP ens.",
        "XGBST",
        "rand. forest",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body = render_table(
        "Extension: full model zoo, 6 formats, feature sets 1+2",
        &header,
        &rows,
    );
    ExperimentResult {
        id: "ext_models",
        title: "Extension — model zoo (incl. random forest)".into(),
        body,
    }
}

/// Extension 6: the confusion structure behind the accuracy numbers —
/// which formats get mistaken for which (XGBoost, P100 double, 6 formats).
pub fn ext_confusion(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    use crate::classify::{evaluate_classifier, ModelKind};
    use spmv_ml::classification_report;
    let env = Env {
        arch_idx: 1,
        precision: Precision::Double,
    };
    let all: Vec<Format> = Format::ALL.to_vec();
    let task = ClassificationTask::build(corpus, env, &all, FeatureSet::Set123, true);
    let out = evaluate_classifier(
        &spmv_ml::Executor::new(cfg.threads),
        ModelKind::Xgboost,
        &task,
        cfg.split_seed,
        cfg.budget,
    );
    let report = classification_report(&out.predictions, &out.truth, all.len());
    let names: Vec<&str> = all.iter().map(|f| f.label()).collect();
    let mut body = String::from(
        "Extension: per-format precision/recall and confusion matrix
(XGBoost, P100 double, 17 features)

",
    );
    body.push_str(&report.render(&names));
    ExperimentResult {
        id: "ext_confusion",
        title: "Extension — confusion structure".into(),
        body,
    }
}

/// Extension 7: the regression model zoo — the paper's MLP and MLP
/// ensemble next to the SVR its related work used (Benatia et al.), a
/// gradient-boosted regressor, and a bagged random forest. Combined
/// 6-format task, imp. features, RME on held-out matrices.
pub fn ext_regressors(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> ExperimentResult {
    use crate::dataset::RegressionTask;
    use crate::regress::{evaluate_regressor, record_split, RegModelKind};
    use spmv_ml::{
        relative_mean_error, ForestParams, GbtParams, GbtRegressor, RandomForestRegressor,
        Regressor, StandardScaler, SvrParams, SvrRegressor,
    };

    let all: Vec<Format> = Format::ALL.to_vec();
    let mut rows = Vec::new();
    for env in [
        Env {
            arch_idx: 0,
            precision: Precision::Double,
        },
        Env {
            arch_idx: 1,
            precision: Precision::Double,
        },
    ] {
        let task = RegressionTask::build(corpus, env, &all, FeatureSet::Important);
        let mut cells = vec![env.label()];
        // Paper regressors via the standard path.
        for kind in RegModelKind::ALL {
            let out = evaluate_regressor(kind, &task, cfg.split_seed, cfg.budget);
            cells.push(format!("{:.1}", out.rme * 100.0));
        }
        // Extra regressors: shared preprocessing (log1p + standardize
        // features, log-space targets), same record-level split.
        let (train_idx, test_idx) = record_split(&task, 0.2, cfg.split_seed);
        let log_rows: Vec<Vec<f64>> = (0..task.x.n_rows())
            .map(|i| {
                task.x
                    .row(i)
                    .iter()
                    .map(|v| v.signum() * (1.0 + v.abs()).ln())
                    .collect()
            })
            .collect();
        let mut x_all = spmv_ml::FeatureMatrix::from_rows(&log_rows);
        let scaler = StandardScaler::fit_transform(&mut x_all);
        let _ = scaler;
        let x_train = x_all.select_rows(&train_idx);
        let y_train: Vec<f64> = train_idx.iter().map(|&i| task.y[i].ln()).collect();
        let x_test = x_all.select_rows(&test_idx);
        let measured: Vec<f64> = test_idx.iter().map(|&i| task.y[i]).collect();

        let eval = |model: &mut dyn Regressor| -> String {
            model.fit(&x_train, &y_train);
            let pred: Vec<f64> = (0..x_test.n_rows())
                .map(|i| model.predict_one(x_test.row(i)).exp())
                .collect();
            format!("{:.1}", relative_mean_error(&pred, &measured) * 100.0)
        };
        // SVR is quadratic in samples: cap its training set like the SVM's.
        let svr_cap = 1500.min(x_train.n_rows());
        let svr_idx: Vec<usize> = (0..svr_cap).collect();
        let mut svr = SvrRegressor::new(SvrParams {
            gamma: 0.05,
            epsilon: 0.05,
            seed: cfg.split_seed,
            ..SvrParams::default()
        });
        svr.fit(&x_train.select_rows(&svr_idx), &y_train[..svr_cap]);
        let svr_pred: Vec<f64> = (0..x_test.n_rows())
            .map(|i| svr.predict_one(x_test.row(i)).exp())
            .collect();
        cells.push(format!(
            "{:.1}",
            relative_mean_error(&svr_pred, &measured) * 100.0
        ));
        let mut gbt = GbtRegressor::new(GbtParams {
            n_estimators: 120,
            max_depth: 5,
            learning_rate: 0.1,
            ..GbtParams::default()
        });
        cells.push(eval(&mut gbt));
        let mut rf = RandomForestRegressor::new(ForestParams {
            n_trees: 60,
            seed: cfg.split_seed,
            ..ForestParams::default()
        });
        cells.push(eval(&mut rf));
        rows.push(cells);
    }
    let header: Vec<String> = [
        "environment",
        "MLP",
        "MLP ens.",
        "SVR",
        "GBT",
        "rand. forest",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body = render_table(
        "Extension: regression model zoo — RME % (6 formats combined, imp. features, double)",
        &header,
        &rows,
    );
    ExperimentResult {
        id: "ext_regressors",
        title: "Extension — regression model zoo (incl. SVR)".into(),
        body,
    }
}

/// All extensions.
pub fn extensions(corpus: &LabeledCorpus, cfg: &ExperimentConfig) -> Vec<ExperimentResult> {
    vec![
        ext_cross_arch(corpus, cfg),
        ext_bucket_accuracy(corpus, cfg),
        ext_k40c(),
        ext_dia(),
        ext_models(corpus, cfg),
        ext_confusion(corpus, cfg),
        ext_regressors(corpus, cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::tests_support::tiny_labeled_corpus;

    #[test]
    fn cross_arch_table_is_square() {
        let corpus = tiny_labeled_corpus(91);
        let cfg = ExperimentConfig::tiny();
        let r = ext_cross_arch(&corpus, &cfg);
        // 4 train rows, each with 4 test columns.
        assert_eq!(r.body.matches("K80c single").count(), 2); // header + row
        assert!(r.body.matches('%').count() >= 16);
    }

    #[test]
    fn bucket_accuracy_renders() {
        let corpus = tiny_labeled_corpus(91);
        let cfg = ExperimentConfig::tiny();
        let r = ext_bucket_accuracy(&corpus, &cfg);
        assert!(r.body.contains("nnz range"));
    }

    #[test]
    fn regressor_zoo_renders_finite_rmes() {
        let corpus = tiny_labeled_corpus(91);
        let cfg = ExperimentConfig::tiny();
        let r = ext_regressors(&corpus, &cfg);
        assert!(r.body.contains("SVR"));
        assert!(r.body.contains("rand. forest"));
        // Every cell parses as a finite percentage.
        for line in r.body.lines().skip(3).filter(|l| l.contains('|')) {
            for cell in line.split('|').skip(1).map(str::trim) {
                if let Ok(v) = cell.parse::<f64>() {
                    assert!(v.is_finite() && v >= 0.0);
                }
            }
        }
    }

    #[test]
    fn model_zoo_and_confusion_render() {
        let corpus = tiny_labeled_corpus(91);
        let cfg = ExperimentConfig::tiny();
        let zoo = ext_models(&corpus, &cfg);
        assert!(zoo.body.contains("rand. forest"));
        assert!(zoo.body.matches('%').count() >= 24);
        let conf = ext_confusion(&corpus, &cfg);
        assert!(conf.body.contains("confusion"));
        assert!(conf.body.contains("CSR5"));
    }

    #[test]
    fn dia_wins_on_pure_diagonal_structure() {
        let r = ext_dia();
        assert!(r.body.contains("tridiag"));
        // On the tridiagonal probe, DIA's time must beat the best of six.
        let line = r.body.lines().find(|l| l.contains("tridiag")).expect("row");
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let best6: f64 = cells[1].split('@').nth(1).unwrap().trim().parse().unwrap();
        let dia: f64 = cells[2].split(' ').next().unwrap().parse().unwrap();
        assert!(
            dia < best6,
            "DIA {dia} should beat best-of-6 {best6} on tridiag"
        );
    }

    #[test]
    fn k40c_rankings_render_and_keplers_agree_somewhere() {
        let r = ext_k40c();
        assert!(r.body.contains("K40c"));
        // At least one probe should agree between the two Keplers.
        let agree = r
            .body
            .lines()
            .filter(|l| l.contains('|'))
            .skip(2)
            .filter(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                cells.len() >= 4 && cells[1] == cells[2] && !cells[1].is_empty()
            })
            .count();
        assert!(agree >= 1, "{}", r.body);
    }
}
