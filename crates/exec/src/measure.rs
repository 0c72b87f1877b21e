//! Calibrated kernel timing plus the deterministic synthetic stand-in.
//!
//! Real measurement ([`ExecMode::Measured`]) uses the monotonic
//! [`std::time::Instant`] clock: a few warmup products to fault pages
//! and warm caches, then `samples` timed batches of `repeats` products
//! each, where `repeats` scales inversely with nnz so a tiny matrix is
//! timed over many products and a large one over few — every sample
//! covers roughly the same flop budget, keeping clock-granularity error
//! bounded. The reported time is the **median** sample (robust against
//! scheduler preemption spikes, which only ever slow a sample down).
//!
//! Measured times are inherently noisy, so CI replays the pipeline in
//! [`ExecMode::Synthetic`]: [`synthetic_time`] produces pseudo-times
//! that are a pure function of the matrix key, the format's structural
//! work terms, precision, and SIMD tier — machine-independent,
//! byte-reproducible, and shaped so the "best format" varies across
//! matrices and tiers the way real measurements do.

use crate::prep::PreparedMatrix;
use crate::simd::SimdKernels;
use crate::SimdLevel;
use spmv_matrix::Scalar;
use std::time::Instant;

/// How label times are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run and time the kernels on this machine.
    Measured,
    /// Deterministic pseudo-measurements (CI replay); the seed folds
    /// into every generated time.
    Synthetic {
        /// Stream seed, hashed into each pseudo-time.
        seed: u64,
    },
}

/// Timing-loop calibration knobs.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Untimed products run first (page-fault and cache warmup).
    pub warmup: usize,
    /// Timed batches; the median is reported. Odd values give a true
    /// median.
    pub samples: usize,
    /// Flop budget per timed batch: `repeats = target_flops / (2·nnz)`,
    /// clamped to `[1, max_repeats]`.
    pub target_flops: f64,
    /// Upper bound on per-batch repeats (bounds tiny-matrix runtime).
    pub max_repeats: usize,
    /// SIMD tier the kernels dispatch at.
    pub level: SimdLevel,
}

impl MeasureConfig {
    /// Labeling defaults: 2 warmups, median of 5, ~2 Mflop per batch.
    /// Keeps a full Tiny-corpus sweep (6 formats × 2 tiers × 2
    /// precisions per matrix) in the tens of seconds on one core.
    pub fn labeling(level: SimdLevel) -> MeasureConfig {
        MeasureConfig {
            warmup: 2,
            samples: 5,
            target_flops: 2.0e6,
            max_repeats: 1000,
            level,
        }
    }

    /// Benchmark defaults: more warmup and a larger flop budget per
    /// batch for tighter medians.
    pub fn bench(level: SimdLevel) -> MeasureConfig {
        MeasureConfig {
            warmup: 3,
            samples: 7,
            target_flops: 2.0e7,
            max_repeats: 4000,
            level,
        }
    }
}

/// One calibrated kernel measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median time of one SpMV, in seconds.
    pub seconds: f64,
    /// Useful throughput, `2·nnz / seconds / 1e9` (padding excluded).
    pub gflops: f64,
    /// Products per timed batch after calibration.
    pub repeats: usize,
}

/// The measurement harness: owns the calibration config; the caller owns
/// the `x`/`y` buffers (and the [`PreparedMatrix`]), so nothing inside
/// the timed region allocates.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    config: MeasureConfig,
}

impl Harness {
    /// A harness with the given calibration.
    pub fn new(config: MeasureConfig) -> Harness {
        Harness { config }
    }

    /// The active calibration.
    pub fn config(&self) -> &MeasureConfig {
        &self.config
    }

    /// Time `y = A·x` for a prepared matrix. `x`/`y` must satisfy the
    /// [`crate::spmv`] contract; their contents on return are the last
    /// product's output.
    pub fn measure<T: SimdKernels>(
        &self,
        m: &PreparedMatrix<'_, T>,
        x: &[T],
        y: &mut [T],
    ) -> Measurement {
        let cfg = &self.config;
        let nnz = m.nnz();
        let flops = 2.0 * nnz as f64;
        let repeats = if flops > 0.0 {
            ((cfg.target_flops / flops).ceil() as usize).clamp(1, cfg.max_repeats)
        } else {
            1
        };
        for _ in 0..cfg.warmup {
            crate::spmv(m, x, y, cfg.level);
        }
        spmv_observe::counter("exec.measurements", 1);
        spmv_observe::counter("exec.products", (cfg.warmup + cfg.samples * repeats) as u64);
        let mut times = Vec::with_capacity(cfg.samples.max(1));
        for _ in 0..cfg.samples.max(1) {
            let t0 = Instant::now();
            for _ in 0..repeats {
                // black_box pins the buffers as observed so the repeat
                // loop cannot be collapsed into a single product.
                crate::spmv(
                    m,
                    std::hint::black_box(x),
                    std::hint::black_box(y),
                    cfg.level,
                );
            }
            times.push(t0.elapsed().as_secs_f64() / repeats as f64);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        let seconds = times[times.len() / 2].max(1e-12);
        Measurement {
            seconds,
            gflops: flops / seconds / 1e9,
            repeats,
        }
    }
}

/// FNV-1a 64-bit (local copy; the exec crate sits below the core
/// crate's fault-injection hasher).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Deterministic pseudo-time for a (matrix, format, precision, tier)
/// cell — the [`ExecMode::Synthetic`] stand-in for [`Harness::measure`].
///
/// The model charges each format its real structural work terms
/// (entries streamed, padded slots, per-row and per-tile overheads),
/// scales by precision bytes and by a per-format SIMD speedup (only
/// formats with vector paths speed up), and multiplies in a ±5% jitter
/// hashed from `(seed, key)` so ties break differently across matrices.
/// Pure function of its inputs: identical on every machine and thread
/// count.
pub fn synthetic_time<T: Scalar>(
    seed: u64,
    key: &str,
    m: &PreparedMatrix<'_, T>,
    level: SimdLevel,
) -> f64 {
    let nnz = m.nnz() as f64;
    // (per-entry ns, per-row/overhead ns, AVX2 speedup)
    let (work_ns, over_ns, simd_gain) = match m {
        PreparedMatrix::Coo(v) => (1.35 * nnz, 0.3 * v.n_rows as f64, 1.0),
        PreparedMatrix::Csr(v) => (1.0 * nnz, 0.8 * v.n_rows as f64, 2.6),
        PreparedMatrix::CsrBlocked(v) => (1.1 * nnz, 0.4 * v.n_rows as f64, 2.6),
        PreparedMatrix::Ell(v) => {
            // Padded slots cost like entries: the plane streams whole.
            (
                0.85 * (v.n_rows * v.width) as f64,
                0.2 * v.n_rows as f64,
                2.2,
            )
        }
        PreparedMatrix::Hyb(v) => (
            0.85 * (v.head.n_rows * v.head.width) as f64 + 1.35 * v.tail.vals.len() as f64,
            0.3 * v.head.n_rows as f64,
            1.8,
        ),
        PreparedMatrix::MergeCsr(v) => (1.05 * nnz, 0.5 * v.csr.n_rows as f64, 1.0),
        PreparedMatrix::Csr5(v) => (1.15 * nnz, 25.0 * (v.n_tiles + 1) as f64, 1.0),
    };
    let bytes_scale = (4.0 + T::BYTES as f64) / 12.0; // f32 ≈ 0.67×, f64 = 1×
    let gain = match level {
        SimdLevel::Scalar => 1.0,
        SimdLevel::Avx2 => simd_gain,
    };
    let mut h = fnv1a_64(key.as_bytes()) ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h = fnv1a_64(&h.to_le_bytes());
    let jitter = 1.0 + ((h % 1024) as f64 / 1024.0 - 0.5) * 0.10;
    ((work_ns + over_ns + 150.0) * bytes_scale / gain) * jitter * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::ExecScratch;
    use spmv_matrix::{Format, RowStats, TripletBuilder};

    fn small_csr() -> spmv_matrix::CsrMatrix<f64> {
        let mut b = TripletBuilder::new(4, 4);
        for (r, c, v) in [(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0), (3, 2, -1.0)] {
            b.push(r, c, v).unwrap();
        }
        b.build_csr()
    }

    #[test]
    fn measure_reports_positive_time_and_calibrated_repeats() {
        let csr = small_csr();
        let stats = RowStats::of(csr.row_ptr());
        let mut scratch = ExecScratch::new();
        let m = PreparedMatrix::build(&csr, Format::Csr, &stats, &mut scratch).unwrap();
        let h = Harness::new(MeasureConfig {
            warmup: 1,
            samples: 3,
            target_flops: 100.0,
            max_repeats: 16,
            level: SimdLevel::Scalar,
        });
        let x = vec![1.0f64; 4];
        let mut y = vec![0.0f64; 4];
        let meas = h.measure(&m, &x, &mut y);
        assert!(meas.seconds > 0.0);
        assert!(meas.gflops > 0.0);
        // 2·nnz = 8 flops; 100-flop budget → ceil(12.5) = 13, capped 16.
        assert_eq!(meas.repeats, 13);
        // y holds the last product.
        assert_eq!(y, vec![3.0, 3.0, 0.0, -1.0]);
    }

    #[test]
    fn synthetic_times_are_deterministic_and_tier_sensitive() {
        let csr = small_csr();
        let stats = RowStats::of(csr.row_ptr());
        let mut scratch = ExecScratch::new();
        let m = PreparedMatrix::build(&csr, Format::Csr, &stats, &mut scratch).unwrap();
        let a = synthetic_time(7, "m0", &m, SimdLevel::Avx2);
        let b = synthetic_time(7, "m0", &m, SimdLevel::Avx2);
        assert_eq!(a, b);
        let scalar = synthetic_time(7, "m0", &m, SimdLevel::Scalar);
        assert!(scalar > a, "SIMD pseudo-time must beat scalar for CSR");
        let other_seed = synthetic_time(8, "m0", &m, SimdLevel::Avx2);
        assert_ne!(a, other_seed);
        let other_key = synthetic_time(7, "m1", &m, SimdLevel::Avx2);
        assert_ne!(a, other_key);
    }
}
