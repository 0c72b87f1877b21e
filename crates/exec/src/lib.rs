//! # spmv-exec
//!
//! Native CPU SpMV execution for the six storage formats under study —
//! the *measured* counterpart to the `spmv-gpusim` performance-model
//! simulator. Where the simulator predicts what a Kepler or Pascal GPU
//! would do with a sparsity structure, this crate actually runs the
//! product on the host CPU and times it, so ground-truth labels can come
//! from real hardware (`--env cpu-native` in the CLIs).
//!
//! Three layers:
//!
//! * [`prep`] — [`PreparedMatrix`]: per-format execution views built from
//!   a CSR matrix via the value-free [`spmv_matrix::FormatStructure`]
//!   layouts plus value planes derived into reusable [`ExecScratch`]
//!   buffers. Preparation is alloc-light (buffers amortize across a
//!   labeling sweep) and always happens **outside** the timed region.
//! * [`kernels`] — the kernels themselves: 4-wide unrolled scalar paths
//!   for every format, cache blocking of the `x`-gather (column-strip
//!   streams for wide CSR matrices, row-tiled column-major traversal for
//!   ELL/HYB), and runtime-dispatched AVX2/FMA paths ([`simd`]) behind
//!   `is_x86_feature_detected!` with scalar fallback everywhere.
//! * [`measure`] — a calibrated harness: monotonic clock, warmup then
//!   median-of-k repetitions, nnz-scaled inner repeat counts so small
//!   matrices are timed over many products, per-kernel GFLOP/s, plus a
//!   seeded *synthetic* mode producing deterministic pseudo-measurements
//!   for CI replay (`--exec-synthetic`).
//!
//! The crate keeps the workspace's zero-dependency posture: kernels use
//! only `std::arch` intrinsics, and the only workspace dependencies are
//! the matrix substrate and the observability layer.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod kernels;
pub mod measure;
pub mod prep;
// The AVX2 kernels are the crate's only `unsafe`; every block in the
// module states why its preconditions hold.
#[allow(unsafe_code)]
pub mod simd;

pub use kernels::spmv;
pub use measure::{synthetic_time, ExecMode, Harness, MeasureConfig, Measurement};
pub use prep::{ExecScratch, PreparedMatrix};
pub use simd::SimdKernels;

/// The SIMD instruction tier a kernel dispatch runs at.
///
/// [`SimdLevel::Avx2`] is only *used* after a runtime
/// `is_x86_feature_detected!` probe inside the specialized kernels, so
/// passing it on a machine without AVX2/FMA silently degrades to the
/// scalar path rather than faulting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar kernels (4-wide unrolled, still cache-blocked).
    Scalar,
    /// AVX2 + FMA `std::arch` kernels with per-call feature re-check.
    Avx2,
}

impl SimdLevel {
    /// Probe the running CPU: [`SimdLevel::Avx2`] when AVX2 and FMA are
    /// both available, else [`SimdLevel::Scalar`].
    pub fn detect() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    }

    /// Stable label used in bench output and environment descriptors.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_labelled() {
        let a = SimdLevel::detect();
        let b = SimdLevel::detect();
        assert_eq!(a, b);
        assert!(matches!(a.label(), "scalar" | "avx2"));
        assert_eq!(SimdLevel::Scalar.to_string(), "scalar");
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
    }
}
