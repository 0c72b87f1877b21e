//! # spmv-corpus
//!
//! Synthetic sparse-matrix corpus generators mirroring the structural
//! diversity of the SuiteSparse collection the paper evaluates on, plus a
//! suite sampler that reproduces Table I's nnz-range census shape at three
//! scales (see `DESIGN.md` for the size-substitution rationale).
//!
//! ```
//! use spmv_corpus::{CorpusScale, SyntheticSuite};
//!
//! let suite = SyntheticSuite::sample(CorpusScale::Tiny, 42);
//! assert!(suite.len() > 40);
//! let m: spmv_matrix::CsrMatrix<f64> = suite.specs[0].generate();
//! assert!(m.nnz() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod suite;

pub use gen::{GenKind, MatrixSpec};
pub use suite::{bucket_labels, CorpusScale, SyntheticSuite};
