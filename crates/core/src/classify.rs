//! Direct format-selection classification (paper §V): train each of the
//! four model families on 80 % of the corpus with 5-fold grid-searched
//! hyper-parameters, report held-out accuracy.

use spmv_ml::{
    grid_search_classifier, stratified_split, Classifier, DecisionTreeClassifier, Executor,
    FeatureMatrix, GbtClassifier, GbtParams, MlpClassifier, MlpParams, StandardScaler,
    SvmClassifier, SvmParams, TreeParams,
};

use crate::dataset::ClassificationTask;

/// The four model families of the paper's tables, in column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// CART decision tree.
    DecisionTree,
    /// RBF-kernel SVM (one-vs-one).
    Svm,
    /// Multi-layer perceptron (96-48-16).
    Mlp,
    /// Gradient boosting (XGBoost formulation).
    Xgboost,
    /// Ensemble of MLPs (averaged softmax) — used by the slowdown study
    /// (Table XII), not a column of the accuracy tables.
    MlpEnsemble,
}

impl ModelKind {
    /// Table column order: decs. tree, SVM, MLP, XGBST.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::DecisionTree,
        ModelKind::Svm,
        ModelKind::Mlp,
        ModelKind::Xgboost,
    ];

    /// Column header as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::DecisionTree => "decs. tree",
            ModelKind::Svm => "SVM",
            ModelKind::Mlp => "MLP",
            ModelKind::Xgboost => "XGBST",
            ModelKind::MlpEnsemble => "MLP ens.",
        }
    }
}

/// How much hyper-parameter search to spend. `Paper` uses the grids of
/// §IV-D; `Quick` uses pruned grids (documented in EXPERIMENTS.md) so the
/// full table sweep finishes on one laptop core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchBudget {
    /// Pruned grids, fewer epochs/rounds.
    Quick,
    /// The paper's full grids.
    Paper,
}

/// The deployed XGBoost recipe: depth 6, learning rate 0.1, and 60
/// (`Quick`) or 200 (`Paper`) boosting rounds. Every trained advisor, the
/// extension studies and the cross-scenario unified classifier fit this
/// one configuration; only the accuracy tables grid-search their own.
pub(crate) fn xgboost(budget: SearchBudget) -> GbtClassifier {
    GbtClassifier::new(GbtParams {
        n_estimators: match budget {
            SearchBudget::Quick => 60,
            SearchBudget::Paper => 200,
        },
        max_depth: 6,
        learning_rate: 0.1,
        ..GbtParams::default()
    })
}

/// Outcome of one train/evaluate run.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Held-out accuracy.
    pub accuracy: f64,
    /// Predicted class per test sample.
    pub predictions: Vec<usize>,
    /// Test-sample indices into the task.
    pub test_idx: Vec<usize>,
    /// True class per test sample.
    pub truth: Vec<usize>,
}

/// Scale-sensitive models see log-compressed, standardized features; tree
/// models see raw features (they are invariant to monotone transforms).
fn preprocess_for(kind: ModelKind, x: &FeatureMatrix) -> (FeatureMatrix, Option<StandardScaler>) {
    match kind {
        ModelKind::DecisionTree | ModelKind::Xgboost => (x.clone(), None),
        ModelKind::Svm | ModelKind::Mlp | ModelKind::MlpEnsemble => {
            let rows: Vec<Vec<f64>> = (0..x.n_rows())
                .map(|i| {
                    x.row(i)
                        .iter()
                        .map(|v| v.signum() * (1.0 + v.abs()).ln())
                        .collect()
                })
                .collect();
            let mut m = FeatureMatrix::from_rows(&rows);
            let scaler = StandardScaler::fit_transform(&mut m);
            (m, Some(scaler))
        }
    }
}

fn mlp_params(budget: SearchBudget) -> MlpParams {
    MlpParams {
        epochs: match budget {
            SearchBudget::Quick => 80,
            SearchBudget::Paper => 200,
        },
        ..MlpParams::default()
    }
}

/// Train `kind` on the task's train split (grid-searched where the paper
/// grid-searches) and evaluate on the held-out split. Grid-search CV
/// cells run on `exec`; results are identical at any thread count.
pub fn evaluate_classifier(
    exec: &Executor,
    kind: ModelKind,
    task: &ClassificationTask,
    split_seed: u64,
    budget: SearchBudget,
) -> EvalOutcome {
    let n_classes = task.formats.len();
    let split = stratified_split(&task.y, 0.2, split_seed);
    let (x_all, _) = preprocess_for(kind, &task.x);
    let x_train = x_all.select_rows(&split.train);
    let y_train = spmv_ml::gather(&task.y, &split.train);
    let x_test = x_all.select_rows(&split.test);
    let truth = spmv_ml::gather(&task.y, &split.test);
    let folds = 5;

    let predictions: Vec<usize> = match kind {
        ModelKind::DecisionTree => {
            let grid: Vec<usize> = match budget {
                SearchBudget::Quick => vec![6, 12],
                SearchBudget::Paper => vec![4, 8, 16, 32],
            };
            let best = grid_search_classifier(
                exec,
                &grid,
                |&d| {
                    DecisionTreeClassifier::new(TreeParams {
                        max_depth: d,
                        min_samples_leaf: 2,
                        ..TreeParams::default()
                    })
                },
                &x_train,
                &y_train,
                n_classes,
                folds,
                split_seed,
            );
            let mut m = DecisionTreeClassifier::new(TreeParams {
                max_depth: best.params,
                min_samples_leaf: 2,
                ..TreeParams::default()
            });
            m.fit(&x_train, &y_train, n_classes);
            m.predict(&x_test)
        }
        ModelKind::Svm => {
            // SMO is O(n^2) in the training-set size; like scikit-learn
            // users do at this scale, cap the SVM's training subsample (the
            // grid search and final fit both see the same cap). Documented
            // in EXPERIMENTS.md; only binds at the Full corpus scale.
            const SVM_TRAIN_CAP: usize = 1500;
            let (x_train, y_train) = if y_train.len() > SVM_TRAIN_CAP {
                let sub = stratified_split(
                    &y_train,
                    1.0 - SVM_TRAIN_CAP as f64 / y_train.len() as f64,
                    split_seed ^ 0x5f5f,
                );
                (
                    x_train.select_rows(&sub.train),
                    spmv_ml::gather(&y_train, &sub.train),
                )
            } else {
                (x_train.clone(), y_train.clone())
            };
            // Paper grid: C in {100, 1000, 10000}, gamma in {.1, .01, .001}.
            let grid: Vec<(f64, f64)> = match budget {
                SearchBudget::Quick => vec![(100.0, 0.1), (1000.0, 0.1), (1000.0, 0.01)],
                SearchBudget::Paper => {
                    let mut g = Vec::new();
                    for c in [100.0, 1000.0, 10000.0] {
                        for gamma in [0.1, 0.01, 0.001] {
                            g.push((c, gamma));
                        }
                    }
                    g
                }
            };
            let best = grid_search_classifier(
                exec,
                &grid,
                |&(c, gamma)| {
                    SvmClassifier::new(SvmParams {
                        c,
                        gamma,
                        seed: split_seed,
                        ..SvmParams::default()
                    })
                },
                &x_train,
                &y_train,
                n_classes,
                folds,
                split_seed,
            );
            let mut m = SvmClassifier::new(SvmParams {
                c: best.params.0,
                gamma: best.params.1,
                seed: split_seed,
                ..SvmParams::default()
            });
            m.fit(&x_train, &y_train, n_classes);
            m.predict(&x_test)
        }
        ModelKind::Mlp => {
            // The paper fixes the MLP architecture (96-48-16, batch 16).
            let mut m = MlpClassifier::new(MlpParams {
                seed: split_seed,
                ..mlp_params(budget)
            });
            m.fit(&x_train, &y_train, n_classes);
            m.predict(&x_test)
        }
        ModelKind::MlpEnsemble => {
            let mut m = spmv_ml::MlpEnsembleClassifier::new(
                MlpParams {
                    seed: split_seed,
                    ..mlp_params(budget)
                },
                5,
            );
            m.fit(&x_train, &y_train, n_classes);
            m.predict(&x_test)
        }
        ModelKind::Xgboost => {
            // Paper grid: n_estimators {50,100,200,500}, depth {32,64,128},
            // lr {.1,.01}. Depth >= 32 saturates trees on O(1k) samples, so
            // the Quick grid uses practical depths.
            let grid: Vec<(usize, usize, f64)> = match budget {
                SearchBudget::Quick => vec![(60, 4, 0.1), (60, 6, 0.1), (120, 6, 0.1)],
                SearchBudget::Paper => {
                    let mut g = Vec::new();
                    for n in [50usize, 100, 200, 500] {
                        for d in [32usize, 64, 128] {
                            for lr in [0.1, 0.01] {
                                g.push((n, d, lr));
                            }
                        }
                    }
                    g
                }
            };
            let best = grid_search_classifier(
                exec,
                &grid,
                |&(n, d, lr)| {
                    GbtClassifier::new(GbtParams {
                        n_estimators: n,
                        max_depth: d,
                        learning_rate: lr,
                        ..GbtParams::default()
                    })
                },
                &x_train,
                &y_train,
                n_classes,
                folds,
                split_seed,
            );
            let (n, d, lr) = best.params;
            let mut m = GbtClassifier::new(GbtParams {
                n_estimators: n,
                max_depth: d,
                learning_rate: lr,
                ..GbtParams::default()
            });
            m.fit(&x_train, &y_train, n_classes);
            m.predict(&x_test)
        }
    };

    let accuracy = spmv_ml::accuracy(&predictions, &truth);
    EvalOutcome {
        accuracy,
        predictions,
        test_idx: split.test,
        truth,
    }
}

/// Fit XGBoost on the **whole** task (all seventeen features expected) and
/// return the split-count feature importance — the quantity of Figs. 4-5.
pub fn xgboost_importance(task: &ClassificationTask, seed: u64) -> Vec<f64> {
    let mut m = GbtClassifier::new(GbtParams {
        n_estimators: 80,
        max_depth: 6,
        learning_rate: 0.1,
        ..GbtParams::default()
    });
    let _ = seed;
    m.fit(&task.x, &task.y, task.formats.len());
    m.feature_importance().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::labels::tests_support::tiny_labeled_corpus;
    use spmv_features::FeatureSet;
    use spmv_matrix::Format;

    fn task() -> ClassificationTask {
        let corpus = tiny_labeled_corpus(21);
        ClassificationTask::build(
            &corpus,
            Env::ALL[0],
            &Format::BASIC,
            FeatureSet::Set12,
            false,
        )
    }

    #[test]
    fn all_models_beat_chance_on_tiny_corpus() {
        let t = task();
        let majority = *t.class_histogram().iter().max().unwrap() as f64 / t.len() as f64;
        for kind in [ModelKind::DecisionTree, ModelKind::Xgboost] {
            let out = evaluate_classifier(&Executor::serial(), kind, &t, 1, SearchBudget::Quick);
            assert!(
                out.accuracy >= majority * 0.7,
                "{}: acc {} vs majority {majority}",
                kind.label(),
                out.accuracy
            );
            assert_eq!(out.predictions.len(), out.test_idx.len());
        }
    }

    #[test]
    fn outcome_indices_are_consistent() {
        let t = task();
        let out = evaluate_classifier(
            &Executor::serial(),
            ModelKind::DecisionTree,
            &t,
            3,
            SearchBudget::Quick,
        );
        for (&i, &truth) in out.test_idx.iter().zip(&out.truth) {
            assert_eq!(t.y[i], truth);
        }
    }

    #[test]
    fn importance_has_one_entry_per_feature() {
        let corpus = tiny_labeled_corpus(21);
        let t =
            ClassificationTask::build(&corpus, Env::ALL[1], &Format::ALL, FeatureSet::Set123, true);
        let imp = xgboost_importance(&t, 0);
        assert_eq!(imp.len(), 17);
        assert!(imp.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn model_labels_match_paper_columns() {
        let labels: Vec<&str> = ModelKind::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["decs. tree", "SVM", "MLP", "XGBST"]);
    }
}
