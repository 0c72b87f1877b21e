//! # spmv-features
//!
//! The seventeen sparsity-structure features of the paper's Table II, split
//! into the three sets the experiments sweep:
//!
//! * **Set 1** (O(1)): `n_rows`, `n_cols`, `nnz_tot`, `nnz_mu`, `nnz_frac`;
//! * **Set 2** (O(nnz)): `nnz_max`, `nnz_sigma`, and the mean/std of the
//!   per-row count (`nnzb_*`) and size (`snzb_*`) of contiguous non-zero
//!   column runs;
//! * **Set 3** (O(nnz)): `nnz_min`, the total run count `nnzb_tot`, and the
//!   min/max of the run-count and run-size distributions.
//!
//! "Runs" (the paper's "continuous nnz chunks") capture the vector-access
//! pattern: long runs mean coalesced `x` gathers and cache hits.
//!
//! The **`imp.`** subset is the paper's seven most important features by
//! XGBoost F-score (§V-D), identical across machines and precisions.
//!
//! ```
//! use spmv_features::{extract, FeatureId, FeatureSet};
//! use spmv_matrix::TripletBuilder;
//!
//! let mut b = TripletBuilder::<f64>::new(4, 4);
//! for i in 0..4 { b.push(i, i, 1.0).unwrap(); }
//! let f = extract(&b.build().to_csr());
//! assert_eq!(f.get(FeatureId::NnzTot), 4.0);
//! assert_eq!(f.project(FeatureSet::Important).len(), 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod extract;
pub mod names;

pub use extract::{extract, extract_with_stats, FeatureVector};
pub use names::{
    FeatureId, FeatureSet, DATAFLOW_FEATURE_COUNT, DATAFLOW_FEATURE_NAMES, FEATURE_COUNT,
    SCENARIO_DESCRIPTOR_COUNT, SCENARIO_DESCRIPTOR_NAMES,
};
