//! The measurement harness: what stands in for "run the kernel 50 times on
//! the GPU and average" (paper §IV-B).
//!
//! Real SpMV timings jitter a few percent run-to-run (clock boost, DRAM
//! refresh, scheduling). We reproduce that with deterministic multiplicative
//! log-normal noise per repetition, seeded from the experiment identity, so
//! the whole pipeline stays bit-reproducible while the ML labels retain the
//! measured-not-computed character the paper's dataset has.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spmv_matrix::{Format, Precision, Scalar, SparseMatrix};

use crate::arch::GpuArch;
use crate::op::{predict_op_seconds, SpOp};
use crate::profile::KernelProfile;
use crate::spgemm::{Dataflow, SpgemmProfile};
use crate::timing::{gflops, predict_seconds};

/// Repetitions averaged per measurement (the paper uses 50).
pub const DEFAULT_REPS: usize = 50;

/// Run-to-run jitter magnitude (log-normal sigma).
pub const NOISE_SIGMA: f64 = 0.025;

/// One averaged measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Mean kernel time over the repetitions (s).
    pub time_s: f64,
    /// Sample standard deviation of the repetitions (s).
    pub std_s: f64,
    /// Achieved GFLOPS at the mean time.
    pub gflops: f64,
}

/// Simulator facade: owns nothing, bundles the measurement parameters.
#[derive(Debug, Clone, Copy)]
pub struct Simulator {
    /// Repetitions to average.
    pub reps: usize,
    /// Log-normal jitter sigma (0 disables noise).
    pub noise_sigma: f64,
}

impl Default for Simulator {
    fn default() -> Self {
        Self {
            reps: DEFAULT_REPS,
            noise_sigma: NOISE_SIGMA,
        }
    }
}

impl Simulator {
    /// Noise-free simulator (useful for calibration tests).
    pub fn noiseless() -> Self {
        Self {
            reps: 1,
            noise_sigma: 0.0,
        }
    }

    /// Measure a profiled kernel on `arch` at `prec`. `seed` must identify
    /// the (matrix, format, arch, precision) cell so that jitter differs
    /// across cells but reproduces across runs.
    pub fn measure_profile(
        &self,
        profile: &KernelProfile,
        arch: &GpuArch,
        prec: Precision,
        seed: u64,
    ) -> Measurement {
        spmv_observe::counter("gpusim.measurements", 1);
        let base = predict_seconds(profile, arch, prec);
        self.sample(base, profile.flops, seed)
    }

    /// [`Simulator::measure_profile`] generalized over the operation: the
    /// base time comes from [`predict_op_seconds`] and the GFLOPS from the
    /// op's useful work, while the jitter stream is the *same*
    /// [`Simulator::sample`] path seeded identically — `SpOp::Spmv` (and
    /// the degenerate `Spmm { k: 1 }` / `Solver { iters: 1 }`) therefore
    /// reproduce `measure_profile` bit-for-bit. The operation is
    /// deliberately not folded into `seed`: that identity is what the
    /// differential tests pin.
    pub fn measure_profile_op(
        &self,
        profile: &KernelProfile,
        arch: &GpuArch,
        prec: Precision,
        op: SpOp,
        seed: u64,
    ) -> Measurement {
        spmv_observe::counter("gpusim.measurements", 1);
        let base = predict_op_seconds(profile, arch, prec, op);
        self.sample(base, op.flops(profile), seed)
    }

    /// The repetition-averaging core shared by every measurement path:
    /// deterministic log-normal jitter around `base`, or the clean value
    /// when noise is disabled. Extracted (not duplicated) so the op-aware
    /// path cannot drift from the SpMV path's arithmetic.
    fn sample(&self, base: f64, flops: f64, seed: u64) -> Measurement {
        if self.noise_sigma == 0.0 || self.reps == 0 {
            return Measurement {
                time_s: base,
                std_s: 0.0,
                gflops: gflops(flops, base),
            };
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..self.reps {
            // Log-normal multiplicative jitter: exp(sigma * N(0,1)).
            let z = standard_normal(&mut rng);
            let t = base * (self.noise_sigma * z).exp();
            sum += t;
            sumsq += t * t;
        }
        let n = self.reps as f64;
        let mean = sum / n;
        let var = ((sumsq / n) - mean * mean).max(0.0);
        Measurement {
            time_s: mean,
            std_s: var.sqrt(),
            gflops: gflops(flops, mean),
        }
    }

    /// Measure an SpGEMM under one dataflow: the base time comes from the
    /// dataflow cost model over the symbolic profile, the useful work is
    /// the profile's multiply+add count, and the jitter stream is the
    /// *same* [`Simulator::sample`] path as every SpMV-family measurement
    /// — seed with [`spgemm_cell_seed`] so dataflow cells draw jitter
    /// independent of the format cells of the same matrix.
    pub fn measure_spgemm(
        &self,
        profile: &SpgemmProfile,
        dataflow: Dataflow,
        arch: &GpuArch,
        prec: Precision,
        seed: u64,
    ) -> Measurement {
        spmv_observe::counter("gpusim.measurements", 1);
        let base = profile.predict_seconds(dataflow, arch, prec);
        self.sample(base, profile.flops(), seed)
    }

    /// Profile + measure a concrete matrix in its format.
    pub fn measure<T: Scalar>(
        &self,
        matrix: &SparseMatrix<T>,
        arch: &GpuArch,
        prec: Precision,
        seed: u64,
    ) -> Measurement {
        let p = KernelProfile::of(matrix);
        self.measure_profile(&p, arch, prec, seed)
    }
}

/// Stable seed for one measurement cell.
pub fn cell_seed(matrix_seed: u64, format: Format, arch: &GpuArch, prec: Precision) -> u64 {
    let mut h = matrix_seed ^ 0x9e37_79b9_7f4a_7c15;
    h = h
        .wrapping_mul(0x100000001b3)
        .wrapping_add(format.class_id() as u64);
    let arch_id = arch
        .name
        .bytes()
        .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
    h = h.wrapping_mul(0x100000001b3).wrapping_add(arch_id);
    h.wrapping_mul(0x100000001b3)
        .wrapping_add(prec.idx() as u64)
}

/// Stable seed for one SpGEMM dataflow cell. Mirrors [`cell_seed`]'s
/// mixing but offsets the class index so dataflows `0..N_DATAFLOWS` never
/// share a jitter stream with formats `0..6` of the same matrix.
pub fn spgemm_cell_seed(
    matrix_seed: u64,
    dataflow: Dataflow,
    arch: &GpuArch,
    prec: Precision,
) -> u64 {
    let mut h = matrix_seed ^ 0x9e37_79b9_7f4a_7c15;
    h = h
        .wrapping_mul(0x100000001b3)
        .wrapping_add(0x5bd1 + dataflow.class_id() as u64);
    let arch_id = arch
        .name
        .bytes()
        .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
    h = h.wrapping_mul(0x100000001b3).wrapping_add(arch_id);
    h.wrapping_mul(0x100000001b3)
        .wrapping_add(prec.idx() as u64)
}

/// Box-Muller standard normal from a uniform RNG.
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::TripletBuilder;

    fn sample() -> SparseMatrix<f64> {
        let mut b = TripletBuilder::new(500, 500);
        for r in 0..500u32 {
            for k in 0..6u32 {
                b.push_unchecked(r, (r * 13 + k * 41) % 500, 1.0);
            }
        }
        SparseMatrix::from_csr(&b.build().to_csr(), Format::Csr).unwrap()
    }

    #[test]
    fn measurement_is_deterministic() {
        let m = sample();
        let sim = Simulator::default();
        let a = sim.measure(&m, &GpuArch::P100, Precision::Single, 7);
        let b = sim.measure(&m, &GpuArch::P100, Precision::Single, 7);
        assert_eq!(a, b);
        let c = sim.measure(&m, &GpuArch::P100, Precision::Single, 8);
        assert_ne!(a.time_s, c.time_s);
    }

    #[test]
    fn noise_is_small_and_centered() {
        let m = sample();
        let sim = Simulator::default();
        let noisy = sim.measure(&m, &GpuArch::K80C, Precision::Double, 99);
        let clean = Simulator::noiseless().measure(&m, &GpuArch::K80C, Precision::Double, 99);
        assert!((noisy.time_s / clean.time_s - 1.0).abs() < 0.05);
        assert!(noisy.std_s > 0.0 && noisy.std_s < 0.15 * noisy.time_s);
        assert_eq!(clean.std_s, 0.0);
    }

    #[test]
    fn gflops_consistent_with_time() {
        let m = sample();
        let meas = Simulator::noiseless().measure(&m, &GpuArch::P100, Precision::Single, 0);
        let flops = 2.0 * m.nnz() as f64;
        assert!((meas.gflops - flops / meas.time_s / 1e9).abs() < 1e-9);
    }

    #[test]
    fn cell_seeds_differ_across_cells() {
        let mut seeds = std::collections::HashSet::new();
        for f in Format::ALL {
            for arch in &GpuArch::PAPER_MACHINES {
                for p in Precision::ALL {
                    seeds.insert(cell_seed(42, f, arch, p));
                }
            }
        }
        assert_eq!(seeds.len(), 6 * 2 * 2, "seed collisions");
    }

    #[test]
    fn spgemm_cell_seeds_are_distinct_and_disjoint_from_format_seeds() {
        let mut seeds = std::collections::HashSet::new();
        for f in Format::ALL {
            for arch in &GpuArch::PAPER_MACHINES {
                for p in Precision::ALL {
                    seeds.insert(cell_seed(42, f, arch, p));
                }
            }
        }
        for df in Dataflow::ALL {
            for arch in &GpuArch::PAPER_MACHINES {
                for p in Precision::ALL {
                    assert!(
                        seeds.insert(spgemm_cell_seed(42, df, arch, p)),
                        "dataflow {df} collides with a format jitter stream"
                    );
                }
            }
        }
        assert_eq!(seeds.len(), (6 + 4) * 2 * 2, "seed collisions");
    }

    #[test]
    fn spgemm_measurement_is_deterministic_and_centered() {
        let mut b = TripletBuilder::<f64>::new(300, 300);
        for r in 0..300u32 {
            for k in 0..4u32 {
                b.push_unchecked(r, (r * 7 + k * 31) % 300, 1.0);
            }
        }
        let csr = b.build().to_csr();
        let view = spmv_matrix::CsrStructure::from(&csr);
        let sym = spmv_matrix::SpgemmSymbolic::analyze(
            view,
            spmv_matrix::SpgemmOperand::AA,
            9,
            &mut spmv_matrix::StructureScratch::new(),
        );
        let p = SpgemmProfile::of_symbolic(&sym, csr.nnz());
        let sim = Simulator::default();
        let seed = spgemm_cell_seed(
            42,
            Dataflow::GustavsonHash,
            &GpuArch::P100,
            Precision::Double,
        );
        let a = sim.measure_spgemm(
            &p,
            Dataflow::GustavsonHash,
            &GpuArch::P100,
            Precision::Double,
            seed,
        );
        let b2 = sim.measure_spgemm(
            &p,
            Dataflow::GustavsonHash,
            &GpuArch::P100,
            Precision::Double,
            seed,
        );
        assert_eq!(a, b2);
        let clean = Simulator::noiseless().measure_spgemm(
            &p,
            Dataflow::GustavsonHash,
            &GpuArch::P100,
            Precision::Double,
            seed,
        );
        assert!((a.time_s / clean.time_s - 1.0).abs() < 0.05);
        assert!(a.gflops > 0.0);
    }

    #[test]
    fn normal_generator_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
