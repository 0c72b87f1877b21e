//! # spmv-gpusim
//!
//! A deterministic GPU performance-model simulator for SpMV kernels — the
//! stand-in for the paper's Kepler K80c and Pascal P100 testbeds (see
//! `DESIGN.md` for the substitution rationale).
//!
//! The pipeline is: [`profile::KernelProfile::of`] walks a matrix in its
//! storage format once and extracts architecture-independent work and
//! traffic counts (including exact warp-level gather-coalescing analysis);
//! [`timing::predict`] composes them with a [`arch::GpuArch`] machine model
//! into a time; [`measure::Simulator`] averages repetitions with
//! deterministic jitter, producing the ground-truth labels the ML models
//! train on.
//!
//! ```
//! use spmv_gpusim::{GpuArch, Simulator};
//! use spmv_matrix::{Format, Precision, SparseMatrix, TripletBuilder};
//!
//! let mut b = TripletBuilder::<f64>::new(1000, 1000);
//! for i in 0..1000u32 {
//!     b.push_unchecked(i, i, 2.0);
//!     if i > 0 { b.push_unchecked(i, i - 1, -1.0); }
//! }
//! let m = SparseMatrix::from_csr(&b.build().to_csr(), Format::Ell).unwrap();
//! let t = Simulator::default().measure(&m, &GpuArch::P100, Precision::Double, 7);
//! assert!(t.time_s > 0.0 && t.gflops > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Version of the performance model. Bump whenever profiling or timing
/// semantics change, so downstream label caches invalidate instead of
/// silently mixing old measurements with new code.
pub const MODEL_VERSION: u32 = 3;

pub mod arch;
pub mod measure;
pub mod memory;
pub mod op;
pub mod profile;
pub mod spgemm;
pub mod timing;

pub use arch::GpuArch;
pub use measure::{cell_seed, spgemm_cell_seed, Measurement, Simulator, DEFAULT_REPS, NOISE_SIGMA};
pub use op::{predict_op_seconds, solver_warm_profile, spmm_profile, SpOp, SOLVER_DEFAULT_ITERS};
pub use profile::{profile_csr_scalar, profile_dia, KernelProfile, ProfileCache};
pub use spgemm::{Dataflow, SpgemmProfile, N_DATAFLOWS, N_DATAFLOW_FEATURES};
pub use timing::{gflops, predict, predict_seconds, TimeBreakdown};
