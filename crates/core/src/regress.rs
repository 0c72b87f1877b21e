//! SpMV performance modeling (paper §VI): predict execution time per
//! format with an MLP or MLP-ensemble regressor; evaluate by relative mean
//! error (RME).
//!
//! Targets are trained in log-space (execution times span five orders of
//! magnitude across the corpus) and exponentiated at prediction time; the
//! RME is always computed on raw seconds, as the paper defines it.

use spmv_ml::{
    relative_mean_error, FeatureMatrix, MlpEnsembleRegressor, MlpParams, MlpRegressor, Regressor,
    StandardScaler,
};

use crate::classify::SearchBudget;
use crate::dataset::RegressionTask;

/// The two regressors of §VI, in the figures' legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegModelKind {
    /// Single MLP regressor.
    Mlp,
    /// Ensemble of MLP regressors (averaged).
    MlpEnsemble,
}

impl RegModelKind {
    /// Both regressors in legend order.
    pub const ALL: [RegModelKind; 2] = [RegModelKind::Mlp, RegModelKind::MlpEnsemble];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            RegModelKind::Mlp => "MLP regressor",
            RegModelKind::MlpEnsemble => "MLP Ensemble Regressor",
        }
    }
}

/// Outcome of one regression evaluation.
#[derive(Debug, Clone)]
pub struct RegressOutcome {
    /// Overall RME over all test samples.
    pub rme: f64,
    /// RME restricted to each format (class order of the task).
    pub per_format_rme: Vec<f64>,
    /// Predicted time per test sample (seconds).
    pub predictions: Vec<f64>,
    /// Measured time per test sample (seconds).
    pub measured: Vec<f64>,
    /// Test sample indices into the task.
    pub test_idx: Vec<usize>,
}

/// The concrete log-space regressor inside a [`TimePredictor`]; an enum
/// (not a trait object) so trained predictors serialize.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum TimeModel {
    /// Single MLP.
    Mlp(MlpRegressor),
    /// MLP ensemble.
    MlpEnsemble(MlpEnsembleRegressor),
}

impl TimeModel {
    fn predict(&self, x: &FeatureMatrix) -> Vec<f64> {
        match self {
            TimeModel::Mlp(m) => m.predict(x),
            TimeModel::MlpEnsemble(m) => m.predict(x),
        }
    }
}

/// A trained time predictor: preprocessing + log-space regressor.
/// Serializable, so a trained model can ship without its training corpus.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TimePredictor {
    scaler: StandardScaler,
    model: TimeModel,
}

impl TimePredictor {
    /// Predict the time (seconds) for every raw feature row of `rows`, in
    /// one batched pass per ensemble member. Entry `r` is bit for bit what
    /// a batch holding row `r` alone predicts.
    pub fn predict_rows(&self, mut rows: FeatureMatrix) -> Vec<f64> {
        for i in 0..rows.n_rows() {
            for j in 0..rows.n_cols() {
                let v = rows.get_mut(i, j);
                *v = log_compress(*v);
            }
        }
        self.scaler.transform(&mut rows);
        let mut times = self.model.predict(&rows);
        for t in &mut times {
            *t = t.exp();
        }
        times
    }
}

/// The log compression every feature goes through before scaling.
fn log_compress(v: f64) -> f64 {
    v.signum() * (1.0 + v.abs()).ln()
}

fn mlp_params(budget: SearchBudget, seed: u64) -> MlpParams {
    MlpParams {
        epochs: match budget {
            SearchBudget::Quick => 80,
            SearchBudget::Paper => 200,
        },
        seed,
        ..MlpParams::default()
    }
}

/// Log-compress + standardize the feature matrix for MLP training.
pub(crate) fn preprocess(x: &FeatureMatrix) -> (FeatureMatrix, StandardScaler) {
    let rows: Vec<Vec<f64>> = (0..x.n_rows())
        .map(|i| x.row(i).iter().copied().map(log_compress).collect())
        .collect();
    let mut m = FeatureMatrix::from_rows(&rows);
    let scaler = StandardScaler::fit_transform(&mut m);
    (m, scaler)
}

/// Train `kind` on the given sample indices and return a predictor.
pub fn train_time_predictor(
    kind: RegModelKind,
    task: &RegressionTask,
    train_idx: &[usize],
    budget: SearchBudget,
    seed: u64,
) -> TimePredictor {
    let (x_all, scaler) = preprocess(&task.x);
    let x_train = x_all.select_rows(train_idx);
    let y_train: Vec<f64> = train_idx.iter().map(|&i| task.y[i].ln()).collect();
    let model = match kind {
        RegModelKind::Mlp => {
            let mut m = MlpRegressor::new(mlp_params(budget, seed));
            m.fit(&x_train, &y_train);
            TimeModel::Mlp(m)
        }
        RegModelKind::MlpEnsemble => {
            let mut m = MlpEnsembleRegressor::new(mlp_params(budget, seed), 5);
            m.fit(&x_train, &y_train);
            TimeModel::MlpEnsemble(m)
        }
    };
    TimePredictor { scaler, model }
}

/// Split the task's samples by **matrix** (record), so no matrix appears in
/// both train and test — the paper's 80/20 split is over matrices.
pub fn record_split(
    task: &RegressionTask,
    test_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    let split = spmv_ml::train_test_split(task.n_records(), test_fraction, seed);
    let in_test: std::collections::HashSet<usize> = split.test.iter().copied().collect();
    let mut train = Vec::new();
    let mut test = Vec::new();
    for i in 0..task.len() {
        if in_test.contains(&task.record_of[i]) {
            test.push(i);
        } else {
            train.push(i);
        }
    }
    (train, test)
}

/// Train on 80 % of matrices, evaluate RME on the rest.
pub fn evaluate_regressor(
    kind: RegModelKind,
    task: &RegressionTask,
    split_seed: u64,
    budget: SearchBudget,
) -> RegressOutcome {
    let (train_idx, test_idx) = record_split(task, 0.2, split_seed);
    let predictor = train_time_predictor(kind, task, &train_idx, budget, split_seed);

    let predictions = predictor.predict_rows(task.x.select_rows(&test_idx));
    let measured: Vec<f64> = test_idx.iter().map(|&i| task.y[i]).collect();
    let rme = relative_mean_error(&predictions, &measured);

    let n_formats = task.formats.len();
    let mut per_format_rme = Vec::with_capacity(n_formats);
    for k in 0..n_formats {
        let (mut p, mut m) = (Vec::new(), Vec::new());
        for (j, &i) in test_idx.iter().enumerate() {
            if task.format_of[i] == k {
                p.push(predictions[j]);
                m.push(measured[j]);
            }
        }
        per_format_rme.push(relative_mean_error(&p, &m));
    }

    RegressOutcome {
        rme,
        per_format_rme,
        predictions,
        measured,
        test_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::labels::tests_support::tiny_labeled_corpus;
    use spmv_features::FeatureSet;
    use spmv_matrix::Format;

    fn task() -> RegressionTask {
        let corpus = tiny_labeled_corpus(31);
        RegressionTask::build(&corpus, Env::ALL[1], &Format::ALL, FeatureSet::Set123)
    }

    #[test]
    fn record_split_never_leaks_matrices() {
        let t = task();
        let (train, test) = record_split(&t, 0.2, 5);
        assert_eq!(train.len() + test.len(), t.len());
        let train_recs: std::collections::HashSet<usize> =
            train.iter().map(|&i| t.record_of[i]).collect();
        for &i in &test {
            assert!(!train_recs.contains(&t.record_of[i]), "record leak");
        }
    }

    #[test]
    fn regressor_achieves_reasonable_rme_on_tiny_corpus() {
        let t = task();
        let out = evaluate_regressor(RegModelKind::Mlp, &t, 7, SearchBudget::Quick);
        assert!(out.rme.is_finite());
        // Tiny corpus, quick training: just demand it beats a wild guess.
        assert!(out.rme < 2.0, "rme = {}", out.rme);
        assert_eq!(out.per_format_rme.len(), 6);
        assert_eq!(out.predictions.len(), out.measured.len());
        assert!(out.predictions.iter().all(|&p| p > 0.0), "times positive");
    }

    #[test]
    fn predictor_is_reusable_per_row() {
        let t = task();
        let (train, test) = record_split(&t, 0.2, 9);
        let p = train_time_predictor(RegModelKind::Mlp, &t, &train, SearchBudget::Quick, 9);
        let row = || t.x.select_rows(&test[..1]);
        let a = p.predict_rows(row())[0];
        let b = p.predict_rows(row())[0];
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(RegModelKind::Mlp.label(), "MLP regressor");
        assert_eq!(RegModelKind::MlpEnsemble.label(), "MLP Ensemble Regressor");
    }
}
