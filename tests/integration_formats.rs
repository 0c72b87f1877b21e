//! Cross-crate integration: corpus generators feed every storage format,
//! all formats agree with each other numerically,
//! and the GPU model prices them coherently.

use spmv_corpus::{CorpusScale, GenKind, MatrixSpec, SyntheticSuite};
use spmv_gpusim::{GpuArch, KernelProfile, Simulator};
use spmv_matrix::{CsrMatrix, Format, Precision, SparseMatrix};

fn spmv_reference(csr: &CsrMatrix<f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; csr.n_rows()];
    csr.spmv(x, &mut y);
    y
}

#[test]
fn every_generator_family_round_trips_through_every_format() {
    let kinds = vec![
        GenKind::Uniform {
            n_rows: 300,
            n_cols: 250,
            nnz: 2_000,
        },
        GenKind::Banded {
            n: 400,
            half_width: 5,
            fill: 0.8,
        },
        GenKind::Diagonal {
            n: 350,
            offsets: vec![-7, 0, 7],
        },
        GenKind::Stencil2D { gx: 18, gy: 20 },
        GenKind::Stencil3D {
            gx: 7,
            gy: 7,
            gz: 7,
        },
        GenKind::RMat {
            scale: 9,
            nnz: 3_000,
            probs: (0.57, 0.19, 0.19),
        },
        GenKind::Block {
            grid: 40,
            block_size: 4,
            blocks_per_row: 2,
        },
        GenKind::RowSkew {
            n_rows: 300,
            n_cols: 300,
            min_len: 2,
            alpha: 1.1,
            max_len: 80,
        },
        GenKind::Clustered {
            n_rows: 200,
            n_cols: 240,
            runs: 3,
            run_len: 6,
        },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let spec = MatrixSpec {
            name: format!("it{i}"),
            kind,
            seed: 77 + i as u64,
        };
        let csr: CsrMatrix<f64> = spec.generate();
        let x: Vec<f64> = (0..csr.n_cols())
            .map(|j| ((j * 13 + 7) % 11) as f64 - 5.0)
            .collect();
        let expect = spmv_reference(&csr, &x);
        for fmt in Format::ALL {
            let m = SparseMatrix::from_csr(&csr, fmt)
                .unwrap_or_else(|e| panic!("{}: {fmt} conversion failed: {e}", spec.name));
            // Sequential kernel agrees.
            let mut y = vec![0.0; csr.n_rows()];
            m.spmv(&x, &mut y);
            for (r, (a, b)) in expect.iter().zip(&y).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "{} {fmt} row {r}: {a} vs {b}",
                    spec.name
                );
            }
            // Round trip preserves the matrix.
            assert_eq!(m.to_csr(), csr, "{} {fmt} round trip", spec.name);
        }
    }
}

#[test]
fn simulator_prices_all_formats_on_a_suite_sample() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 31);
    let sim = Simulator::default();
    for spec in suite.specs.iter().step_by(9) {
        let csr: CsrMatrix<f64> = spec.generate();
        for fmt in Format::ALL {
            let Ok(m) = SparseMatrix::from_csr(&csr, fmt) else {
                continue; // legitimate ELL padding failure
            };
            let profile = KernelProfile::of(&m);
            assert_eq!(profile.nnz, csr.nnz(), "{}", spec.name);
            for arch in &GpuArch::PAPER_MACHINES {
                for prec in Precision::ALL {
                    let meas = sim.measure_profile(&profile, arch, prec, 3);
                    assert!(
                        meas.time_s.is_finite() && meas.time_s > 0.0,
                        "{} {fmt} {prec} on {}",
                        spec.name,
                        arch.name
                    );
                    assert!(meas.gflops >= 0.0);
                }
            }
        }
    }
}

#[test]
fn faster_machine_and_lower_precision_are_never_slower_by_much() {
    // Sanity across the whole grid: P100 >= K80c and single <= double,
    // within noise, for a bandwidth-bound matrix.
    let spec = MatrixSpec {
        name: "grid".into(),
        kind: GenKind::Stencil2D { gx: 150, gy: 150 },
        seed: 5,
    };
    let csr: CsrMatrix<f64> = spec.generate();
    let sim = Simulator::noiseless();
    for fmt in Format::ALL {
        let m = SparseMatrix::from_csr(&csr, fmt).expect("convertible");
        let k_single = sim.measure(&m, &GpuArch::K80C, Precision::Single, 0).time_s;
        let k_double = sim.measure(&m, &GpuArch::K80C, Precision::Double, 0).time_s;
        let p_double = sim.measure(&m, &GpuArch::P100, Precision::Double, 0).time_s;
        assert!(k_single <= k_double, "{fmt}: single slower than double");
        assert!(p_double <= k_double, "{fmt}: P100 slower than K80c");
    }
}
