//! Differential correctness: every native kernel × SIMD tier against the
//! naive scalar CSR reference (`CsrMatrix::spmv`).
//!
//! The kernels reassociate row sums (unrolling, column strips, vector
//! lanes), so outputs are compared to a tolerance scaled by each row's
//! absolute dot product `Σ|a_ij·x_j|` — the natural bound on
//! reduction-order error — rather than bitwise. Inputs sweep all nine
//! corpus generator families at both precisions, plus hand-built
//! edge cases (empty matrices, empty/single/dense rows, a wide matrix
//! that exercises the column-strip blocked CSR path, a mostly-padding
//! ELL plane), and a short `x`, which must panic at every tier.

use proptest::ProptestConfig;
use spmv_corpus::{GenKind, MatrixSpec};
use spmv_exec::prep::MERGE_SEG_ITEMS;
use spmv_exec::simd::ELL_ROW_TILE;
use spmv_exec::{ExecScratch, PreparedMatrix, SimdKernels, SimdLevel};
use spmv_matrix::{CsrMatrix, Format, RowStats, Scalar, SparseMatrix, TripletBuilder};

/// Deterministic, sign-alternating dense vector (no RNG so failures
/// reproduce from the matrix spec alone).
fn dense_x<T: Scalar>(n: usize) -> Vec<T> {
    (0..n)
        .map(|j| {
            let h = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            T::from_f64((h % 2000) as f64 / 1000.0 - 1.0)
        })
        .collect()
}

/// Reduction-order error bound for one row: `tol · (Σ|a_ij·x_j| + 1)`.
fn row_bounds<T: Scalar>(csr: &CsrMatrix<T>, x: &[T], tol: f64) -> Vec<f64> {
    let mut bounds = vec![0.0f64; csr.n_rows()];
    for (r, b) in bounds.iter_mut().enumerate() {
        let mut abs_dot = 0.0f64;
        for (&c, &v) in csr.row(r).0.iter().zip(csr.row(r).1) {
            abs_dot += (v.to_f64() * x[c as usize].to_f64()).abs();
        }
        *b = tol * (abs_dot + 1.0);
    }
    bounds
}

/// Run every format × SIMD tier for one matrix and compare against the
/// reference kernel. Returns an error string for `prop_assert!`-style
/// reporting.
fn check_all_formats<T: SimdKernels>(csr: &CsrMatrix<T>, tol: f64) -> Result<(), String> {
    let stats = RowStats::of(csr.row_ptr());
    let x = dense_x::<T>(csr.n_cols());
    let mut y_ref = vec![T::ZERO; csr.n_rows()];
    csr.spmv(&x, &mut y_ref);
    let bounds = row_bounds(csr, &x, tol);
    let mut scratch = ExecScratch::new();
    for format in Format::ALL {
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let prepared = match PreparedMatrix::build(csr, format, &stats, &mut scratch) {
                Ok(p) => p,
                Err(e) => {
                    // Preparation must fail exactly where the
                    // value-carrying conversion fails (ELL padding cap).
                    if SparseMatrix::from_csr(csr, format).is_ok() {
                        return Err(format!(
                            "{format:?}: exec prep failed ({e}) but conversion succeeds"
                        ));
                    }
                    continue;
                }
            };
            let mut y = vec![T::from_f64(f64::NAN); csr.n_rows()];
            spmv_exec::spmv(&prepared, &x, &mut y, level);
            for (r, (&got, &want)) in y.iter().zip(y_ref.iter()).enumerate() {
                let err = (got.to_f64() - want.to_f64()).abs();
                // NaN errors (kernel never wrote the row) must fail too.
                if err.is_nan() || err > bounds[r] {
                    return Err(format!(
                        "{format:?}/{level}: row {r} of {}: got {got}, want {want} (err {err:.3e} > bound {:.3e})",
                        csr.n_rows(),
                        bounds[r],
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Build a spec for one of the nine generator families from three free
/// size knobs, keeping matrices small enough for a proptest sweep.
fn spec_for(family: usize, a: usize, b: usize, seed: u64) -> MatrixSpec {
    let kind = match family {
        0 => GenKind::Uniform {
            n_rows: 20 + a,
            n_cols: 20 + b,
            nnz: (20 + a) * 4,
        },
        1 => GenKind::Banded {
            n: 30 + a,
            half_width: 1 + b / 40,
            fill: 0.8,
        },
        2 => GenKind::Diagonal {
            n: 30 + a,
            offsets: vec![-(1 + (b as i64 % 7)), 0, 1, 2 + (b as i64 % 5)],
        },
        3 => GenKind::Stencil2D {
            gx: 4 + a / 12,
            gy: 4 + b / 12,
        },
        4 => GenKind::Stencil3D {
            gx: 2 + a / 40,
            gy: 2 + b / 40,
            gz: 3,
        },
        5 => GenKind::RMat {
            scale: 6 + (a as u32 % 3),
            nnz: 300 + b * 4,
            probs: (0.45, 0.22, 0.22),
        },
        6 => GenKind::Block {
            grid: 6 + a / 16,
            block_size: 2 + b % 4,
            blocks_per_row: 2,
        },
        7 => GenKind::RowSkew {
            n_rows: 30 + a,
            n_cols: 30 + b,
            min_len: 1,
            alpha: 1.2,
            max_len: 25 + b,
        },
        _ => GenKind::Clustered {
            n_rows: 20 + a,
            n_cols: 40 + b,
            runs: 1 + a % 3,
            run_len: 2 + b % 5,
        },
    };
    MatrixSpec {
        name: format!("diff_{family}_{a}_{b}"),
        kind,
        seed,
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn kernels_match_reference_f64((family, a, b, seed) in (0usize..9, 0usize..100, 0usize..100, 0u64..1_000_000)) {
        let spec = spec_for(family, a, b, seed);
        let csr = spec.generate::<f64>();
        proptest::prop_assert!(check_all_formats(&csr, 1e-11).is_ok(), "{:?}: {}", spec.kind.family(), check_all_formats(&csr, 1e-11).unwrap_err());
    }

    #[test]
    fn kernels_match_reference_f32((family, a, b, seed) in (0usize..9, 0usize..100, 0usize..100, 0u64..1_000_000)) {
        let spec = spec_for(family, a, b, seed);
        let csr = spec.generate::<f32>();
        proptest::prop_assert!(check_all_formats(&csr, 1e-4).is_ok(), "{:?}: {}", spec.kind.family(), check_all_formats(&csr, 1e-4).unwrap_err());
    }
}

#[test]
fn empty_matrix_all_formats() {
    let csr: CsrMatrix<f64> = TripletBuilder::new(5, 5).build().to_csr();
    check_all_formats(&csr, 1e-12).unwrap();
    let one_by_one: CsrMatrix<f32> = TripletBuilder::new(1, 1).build().to_csr();
    check_all_formats(&one_by_one, 1e-5).unwrap();
}

#[test]
fn single_row_matrix() {
    let mut b = TripletBuilder::<f64>::new(1, 64);
    for c in 0..64 {
        b.push(0, c, (c as f64 - 31.5) / 7.0).unwrap();
    }
    check_all_formats(&b.build().to_csr(), 1e-12).unwrap();
}

#[test]
fn dense_row_among_empty_rows() {
    // One dense row, everything else empty: ELL/HYB padding extremes and
    // CSR5 row spans crossing many lanes.
    let mut b = TripletBuilder::<f64>::new(40, 120);
    for c in 0..120 {
        b.push(17, c, 1.0 / (1.0 + c as f64)).unwrap();
    }
    b.push(39, 0, 2.5).unwrap();
    check_all_formats(&b.build().to_csr(), 1e-12).unwrap();

    let mut b = TripletBuilder::<f32>::new(40, 120);
    for c in 0..120 {
        b.push(17, c, 1.0 / (1.0 + c as f32)).unwrap();
    }
    check_all_formats(&b.build().to_csr(), 1e-4).unwrap();
}

#[test]
fn alternating_empty_rows() {
    let mut b = TripletBuilder::<f64>::new(33, 33);
    for r in (0..33).step_by(2) {
        for c in [r, (r + 7) % 33] {
            b.push(r, c, (r * 33 + c) as f64 * 0.01 - 3.0).unwrap();
        }
    }
    check_all_formats(&b.build().to_csr(), 1e-12).unwrap();
}

#[test]
fn wide_matrix_takes_blocked_csr_path() {
    // 150k columns exceeds BLOCK_THRESHOLD_COLS, so CSR must prepare as
    // column-strip streams — and still match the reference.
    let spec = MatrixSpec {
        name: "wide".into(),
        kind: GenKind::Uniform {
            n_rows: 60,
            n_cols: 150_000,
            nnz: 2400,
        },
        seed: 11,
    };
    let csr = spec.generate::<f64>();
    let stats = RowStats::of(csr.row_ptr());
    let mut scratch = ExecScratch::new();
    let prepared = PreparedMatrix::build(&csr, Format::Csr, &stats, &mut scratch).unwrap();
    assert!(
        matches!(prepared, PreparedMatrix::CsrBlocked(_)),
        "wide CSR must select the cache-blocked kernel"
    );
    check_all_formats(&csr, 1e-11).unwrap();
}

#[test]
fn matrix_spanning_many_merge_segments() {
    // More than MERGE_SEG_ITEMS merge items forces multiple segments and
    // exercises the cross-segment carry.
    let n = MERGE_SEG_ITEMS; // n rows + n nnz = 2 segments minimum
    let mut b = TripletBuilder::<f64>::new(n, 8);
    for r in 0..n {
        b.push(r, r % 8, 1.0 + (r % 13) as f64).unwrap();
    }
    check_all_formats(&b.build().to_csr(), 1e-12).unwrap();
}

#[test]
fn short_x_panics_instead_of_reading_out_of_bounds() {
    // The AVX2 CSR and ELL kernels gather from `x` unchecked, so a short
    // `x` must be refused before any kernel runs: at both tiers, for the
    // formats with a vector path (HYB's head is an ELL plane).
    let mut b = TripletBuilder::<f64>::new(1, 120_000);
    for c in 0..64 {
        b.push(0, 60_000 + 937 * c, 1.0).unwrap();
    }
    let csr = b.build().to_csr();
    let stats = RowStats::of(csr.row_ptr());
    let x = vec![1.0; 4];
    for format in [Format::Csr, Format::Ell, Format::Hyb] {
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let mut scratch = ExecScratch::new();
            let prepared = PreparedMatrix::build(&csr, format, &stats, &mut scratch).unwrap();
            let mut y = vec![0.0; 1];
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                spmv_exec::spmv(&prepared, &x, &mut y, level)
            }));
            assert!(run.is_err(), "{format:?}/{level}: a short x must panic");
        }
    }
}

#[test]
fn one_long_row_among_padded_empty_rows() {
    // ELL pads every row to the long row's width with column 0, so almost
    // every slot is padding; the long row sits in the last, partial row
    // tile and past the last full vector block, and uses column
    // `n_cols - 1`.
    fn build<T: Scalar>() -> CsrMatrix<T> {
        let (n_rows, n_cols) = (ELL_ROW_TILE + 7, 300);
        let mut b = TripletBuilder::<T>::new(n_rows, n_cols);
        for k in 0..37 {
            let v = T::from_f64(0.5 + k as f64);
            b.push(n_rows - 2, n_cols - 1 - 8 * k, v).unwrap();
        }
        b.push(3, n_cols - 1, T::from_f64(-2.0)).unwrap();
        b.build().to_csr()
    }
    check_all_formats(&build::<f64>(), 1e-12).unwrap();
    check_all_formats(&build::<f32>(), 1e-4).unwrap();
}
