//! # spmv-ml
//!
//! From-scratch machine learning for the SpMV format-selection study: the
//! four model families the paper compares (decision tree, SVM, MLP,
//! XGBoost-style gradient boosting) plus MLP ensembles, with the training
//! infrastructure around them (splits, k-fold CV, grid search, scaling,
//! metrics).
//!
//! Everything is deterministic given the seeds carried in each model's
//! parameter struct.
//!
//! ```
//! use spmv_ml::{Classifier, FeatureMatrix, GbtClassifier, GbtParams, accuracy};
//!
//! let x = FeatureMatrix::from_rows(&[
//!     vec![0.0], vec![1.0], vec![2.0], vec![3.0],
//!     vec![10.0], vec![11.0], vec![12.0], vec![13.0],
//! ]);
//! let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
//! let mut m = GbtClassifier::new(GbtParams { n_estimators: 10, ..GbtParams::default() });
//! m.fit(&x, &y, 2);
//! assert_eq!(accuracy(&m.predict(&x), &y), 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod data;
pub mod ensemble;
pub mod forest;
pub mod gbt;
pub mod gridsearch;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod online;
pub mod parallel;
pub mod reportcard;
pub mod scaler;
pub mod svm;
pub mod svr;
pub mod tree;

pub use data::{gather, kfold, stratified_split, train_test_split, FeatureMatrix, Split};
pub use ensemble::{MlpEnsembleClassifier, MlpEnsembleRegressor};
pub use forest::{ForestParams, RandomForestClassifier, RandomForestRegressor};
pub use gbt::{GbtClassifier, GbtParams, GbtRegressor, SplitMethod};
pub use gridsearch::{grid_search_classifier, grid_search_regressor, GridResult};
pub use metrics::{accuracy, confusion_matrix, relative_mean_error, slowdown, SlowdownTable};
pub use mlp::{MlpClassifier, MlpParams, MlpRegressor};
pub use model::{Classifier, Regressor};
pub use online::{fit_online_classifier, online_gbt_params};
pub use parallel::{thread_budget, CellPanic, Executor};
pub use reportcard::{classification_report, ClassStats, ClassificationReport};
pub use scaler::StandardScaler;
pub use svm::{SvmClassifier, SvmParams};
pub use svr::{SvrParams, SvrRegressor};
pub use tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeParams};
