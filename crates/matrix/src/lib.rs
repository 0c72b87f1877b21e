//! # spmv-matrix
//!
//! Sparse-matrix storage formats and SpMV kernels for the ML-based format
//! selection study (Nisa et al., 2018 reproduction).
//!
//! The crate implements the six formats the paper evaluates —
//! [`CooMatrix`], [`CsrMatrix`], [`EllMatrix`], [`HybMatrix`],
//! [`Csr5Matrix`], and [`MergeCsrMatrix`] — with lossless conversions
//! between them, sequential reference kernels, and MatrixMarket I/O
//! ([`mm`]).
//!
//! ## Quick example
//! ```
//! use spmv_matrix::{TripletBuilder, Format, SparseMatrix};
//!
//! let mut b = TripletBuilder::<f64>::new(3, 3);
//! b.push(0, 0, 2.0).unwrap();
//! b.push(1, 2, -1.0).unwrap();
//! b.push(2, 1, 4.0).unwrap();
//! let csr = b.build().to_csr();
//!
//! let m = SparseMatrix::from_csr(&csr, Format::Csr5).unwrap();
//! let x = vec![1.0, 2.0, 3.0];
//! let mut y = vec![0.0; 3];
//! m.spmv(&x, &mut y);
//! assert_eq!(y, vec![2.0, -3.0, 8.0]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod coo;
pub mod csr;
pub mod csr5;
pub mod dia;
pub mod ell;
pub mod error;
pub mod format;
pub mod hyb;
pub mod merge;
// Deployment-path module: panicking on untrusted input is a bug, so the
// unwrap/expect lints are hard errors here (tests opt back out locally).
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod mm;
pub mod scalar;
pub mod spgemm;
pub mod structure;

pub use builder::TripletBuilder;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use csr5::{Csr5Config, Csr5Matrix};
pub use dia::DiaMatrix;
pub use ell::EllMatrix;
pub use error::{MatrixError, Result};
pub use format::{Format, SparseMatrix};
pub use hyb::HybMatrix;
pub use merge::{merge_path_search, MergeCoordinate, MergeCsrMatrix, SegmentCarry};
pub use scalar::{Precision, Scalar};
pub use spgemm::{SpgemmOperand, SpgemmSymbolic, SPGEMM_SAMPLE_CAP};
pub use structure::{
    CooStructure, Csr5Structure, CsrStructure, EllStructure, FormatStructure, HybStructure,
    PatternCsr, RowStats, StructureScratch,
};
