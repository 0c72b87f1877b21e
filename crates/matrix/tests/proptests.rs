//! Property-based tests for the storage formats: on *arbitrary* sparse
//! matrices, every format computes the same SpMV as the CSR reference,
//! every conversion round-trips losslessly, and the merge-path machinery
//! satisfies its geometric invariants.

use proptest::prelude::*;
use spmv_matrix::{
    merge_path_search, Csr5Config, Csr5Matrix, CsrMatrix, Format, MergeCsrMatrix, SparseMatrix,
    TripletBuilder,
};
use std::collections::BTreeMap;

/// Strategy: an arbitrary small sparse matrix as (rows, cols, triplets).
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..40, 1usize..40).prop_flat_map(|(r, c)| {
        // Strictly positive values: duplicate coordinates sum, and exact
        // cancellation to zero would make structure depend on float
        // summation order (a non-property we don't want to test).
        let entry = (0..r, 0..c, 0.25f64..8.0);
        (Just(r), Just(c), proptest::collection::vec(entry, 0..200))
    })
}

fn build(r: usize, c: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
    let mut b = TripletBuilder::new(r, c);
    for &(i, j, v) in entries {
        b.push(i, j, v).expect("in bounds");
    }
    b.build().to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_formats_agree_with_csr((r, c, entries) in arb_matrix(), seed in 0u64..1000) {
        let csr = build(r, c, &entries);
        // Deterministic x from the seed (proptest flat_map for x of the
        // right length is awkward; a seeded fill is equally arbitrary).
        let x: Vec<f64> = (0..c)
            .map(|i| (((i as u64 + 1) * (seed + 3)) % 17) as f64 / 4.0 - 2.0)
            .collect();
        let mut expect = vec![0.0; r];
        csr.spmv(&x, &mut expect);
        for fmt in Format::ALL {
            if let Ok(m) = SparseMatrix::from_csr(&csr, fmt) {
                let mut y = vec![0.0; r];
                m.spmv(&x, &mut y);
                for (row, (a, b)) in expect.iter().zip(&y).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                        "{fmt} row {row}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn conversions_round_trip((r, c, entries) in arb_matrix()) {
        let csr = build(r, c, &entries);
        for fmt in Format::ALL {
            if let Ok(m) = SparseMatrix::from_csr(&csr, fmt) {
                prop_assert_eq!(m.to_csr(), csr.clone(), "{} round trip", fmt);
            }
        }
    }

    #[test]
    fn builder_is_idempotent_under_resorting((r, c, mut entries) in arb_matrix()) {
        let a = build(r, c, &entries);
        entries.reverse();
        let b = build(r, c, &entries);
        // Structure must be identical; values only up to float summation
        // order, since the builder sums duplicates in push order (see
        // `builder_matches_push_order_reference`).
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(a.row_ptr(), b.row_ptr());
        prop_assert_eq!(a.col_idx(), b.col_idx());
        for (x, y) in a.values().iter().zip(b.values()) {
            prop_assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn builder_matches_push_order_reference(
        (r, c, entries) in (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
            // Few cells, many pushes: most cells repeat, and the large and
            // zero values make the summation order and exact cancellation
            // visible in the bits.
            let val = (0usize..5, -8.0f64..8.0).prop_map(|(k, x)| [0.0, 1e16, -1e16, 1.0, x][k]);
            (Just(r), Just(c), proptest::collection::vec((0..r, 0..c, val), 0..80))
        }),
    ) {
        for keep_zeros in [false, true] {
            // The contract: each cell holds the left fold of its pushes in push
            // order; a cell summing to zero is dropped unless zeros are kept.
            let mut cells: BTreeMap<(usize, usize), f64> = BTreeMap::new();
            for &(i, j, v) in &entries {
                cells.entry((i, j)).and_modify(|s| *s += v).or_insert(v);
            }
            cells.retain(|_, s| keep_zeros || *s != 0.0);
            let mut row_ptr = vec![0u32; r + 1];
            for &(i, _) in cells.keys() {
                row_ptr[i + 1] += 1;
            }
            for i in 0..r {
                row_ptr[i + 1] += row_ptr[i];
            }
            let rows: Vec<u32> = cells.keys().map(|&(i, _)| i as u32).collect();
            let cols: Vec<u32> = cells.keys().map(|&(_, j)| j as u32).collect();
            let bits: Vec<u64> = cells.values().map(|v| v.to_bits()).collect();

            let mut b = TripletBuilder::new(r, c).keep_explicit_zeros(keep_zeros);
            for &(i, j, v) in &entries {
                b.push(i, j, v).expect("in bounds");
            }
            let coo = b.clone().build();
            prop_assert_eq!(coo.shape(), (r, c));
            prop_assert_eq!(coo.row_indices(), &rows[..]);
            prop_assert_eq!(coo.col_indices(), &cols[..]);
            let coo_bits: Vec<u64> = coo.values().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&coo_bits, &bits);
            let csr = b.build_csr();
            prop_assert_eq!(csr.shape(), (r, c));
            prop_assert_eq!(csr.row_ptr(), &row_ptr[..]);
            prop_assert_eq!(csr.col_idx(), &cols[..]);
            let csr_bits: Vec<u64> = csr.values().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&csr_bits, &bits);
        }
    }

    #[test]
    fn transpose_is_involution((r, c, entries) in arb_matrix()) {
        let csr = build(r, c, &entries);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn merge_path_coordinates_lie_on_their_diagonal((r, c, entries) in arb_matrix()) {
        let csr = build(r, c, &entries);
        let ends = &csr.row_ptr()[1..];
        let total = csr.n_rows() + csr.nnz();
        for d in 0..=total {
            let p = merge_path_search(d, ends, csr.nnz());
            prop_assert_eq!(p.row + p.nz, d, "coordinate not on diagonal {}", d);
            prop_assert!(p.row <= csr.n_rows());
            prop_assert!(p.nz <= csr.nnz());
            // Consumed row-ends must be <= consumed nnz count; unconsumed >.
            if p.row > 0 {
                prop_assert!(ends[p.row - 1] as usize <= p.nz);
            }
            if p.row < csr.n_rows() {
                prop_assert!(ends[p.row] as usize >= p.nz);
            }
        }
    }

    #[test]
    fn merge_segments_partition_all_work((r, c, entries) in arb_matrix(), parts in 1usize..9) {
        let csr = build(r, c, &entries);
        let m = MergeCsrMatrix::from_csr_owned(csr);
        let cuts = m.partition(parts);
        prop_assert_eq!(cuts[0].row + cuts[0].nz, 0);
        let last = cuts.last().expect("non-empty");
        prop_assert_eq!(last.row, m.n_rows());
        prop_assert_eq!(last.nz, m.nnz());
        for w in cuts.windows(2) {
            prop_assert!(w[0].row <= w[1].row && w[0].nz <= w[1].nz);
        }
    }

    #[test]
    fn csr5_tilings_are_all_equivalent((r, c, entries) in arb_matrix(), omega in 1usize..9, sigma in 1usize..9) {
        let csr = build(r, c, &entries);
        let c5 = Csr5Matrix::from_csr_with_config(&csr, Csr5Config { omega, sigma });
        let x: Vec<f64> = (0..c).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut expect = vec![0.0; r];
        csr.spmv(&x, &mut expect);
        let mut y = vec![0.0; r];
        c5.spmv(&x, &mut y);
        for (row, (a, b)) in expect.iter().zip(&y).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "omega={omega} sigma={sigma} row {row}"
            );
        }
        prop_assert_eq!(c5.to_csr(), csr);
    }

    #[test]
    fn storage_bytes_scale_with_nnz((r, c, entries) in arb_matrix()) {
        let csr = build(r, c, &entries);
        for fmt in Format::ALL {
            if let Ok(m) = SparseMatrix::from_csr(&csr, fmt) {
                // Every format stores at least one value per nnz.
                prop_assert!(m.storage_bytes() >= csr.nnz() * 8);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matrix_market_round_trips_arbitrary_matrices((r, c, entries) in arb_matrix()) {
        let csr = build(r, c, &entries);
        let coo = csr.to_coo();
        // The reader rejects 0-nnz files as degenerate (see mm.rs); the
        // round-trip property holds for non-empty matrices.
        prop_assume!(coo.nnz() > 0);
        let mut buf = Vec::new();
        spmv_matrix::mm::write_matrix_market(&coo, &mut buf).expect("write");
        let back: spmv_matrix::CooMatrix<f64> =
            spmv_matrix::mm::read_matrix_market(buf.as_slice()).expect("read");
        prop_assert_eq!(back, coo);
    }

    #[test]
    fn dia_agrees_with_csr_when_convertible((r, c, entries) in arb_matrix()) {
        let csr = build(r, c, &entries);
        if let Ok(d) = spmv_matrix::DiaMatrix::from_csr(&csr) {
            let x: Vec<f64> = (0..c).map(|i| (i % 7) as f64 - 3.0).collect();
            let mut y0 = vec![0.0; r];
            let mut y1 = vec![0.0; r];
            csr.spmv(&x, &mut y0);
            d.spmv(&x, &mut y1);
            for (row, (a, b)) in y0.iter().zip(&y1).enumerate() {
                prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "row {}", row);
            }
            prop_assert_eq!(d.to_csr(), csr);
        }
    }
}

/// Brute-force `nnz(C)` for `C = A·B` over the same value-free structure
/// view the symbolic pass reads — the oracle for the exhaustive-sample
/// exactness property below.
fn brute_force_out_nnz(csr: &CsrMatrix<f64>, operand: spmv_matrix::SpgemmOperand) -> f64 {
    use spmv_matrix::SpgemmOperand;
    let (rp, ci) = (csr.row_ptr(), csr.col_idx());
    // For AAt, transpose row k lists the A-rows containing column k.
    let mut t_rows: Vec<Vec<u32>> = vec![Vec::new(); csr.n_cols()];
    for r in 0..csr.n_rows() {
        for &k in &ci[rp[r] as usize..rp[r + 1] as usize] {
            t_rows[k as usize].push(r as u32);
        }
    }
    let mut nnz = 0usize;
    for r in 0..csr.n_rows() {
        let mut out = std::collections::BTreeSet::<u32>::new();
        for &k in &ci[rp[r] as usize..rp[r + 1] as usize] {
            match operand {
                SpgemmOperand::AA => {
                    let k = k as usize;
                    if k < csr.n_rows() {
                        out.extend(&ci[rp[k] as usize..rp[k + 1] as usize]);
                    }
                }
                SpgemmOperand::AAt => out.extend(&t_rows[k as usize]),
            }
        }
        nnz += out.len();
    }
    nnz as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The symbolic SpGEMM pass is a pure function of the structure and
    /// the seed — scratch state (fresh or dirty from another operand)
    /// never leaks into the result, which is what makes label collection
    /// thread-count-invariant — and its estimates obey the analytic
    /// envelope: `est_nnz <= ub_total`, `compression >= 1`,
    /// `tightness ∈ [0, 1]`. On matrices at or under the sample cap the
    /// sample is exhaustive, so `est_nnz` is *exact* (matches the
    /// brute-force output nnz) and seed-independent.
    #[test]
    fn spgemm_symbolic_is_deterministic_and_bounded(
        (r, c, entries) in arb_matrix(),
        seed in 0u64..1000,
    ) {
        use spmv_matrix::{CsrStructure, SpgemmOperand, SpgemmSymbolic, StructureScratch};
        let csr = build(r, c, &entries);
        let view = CsrStructure::from(&csr);
        let mut fresh = StructureScratch::new();
        let mut dirty = StructureScratch::new();
        // Dirty the second scratch with the *other* operand first.
        for operand in [SpgemmOperand::AA, SpgemmOperand::AAt] {
            let other = if operand == SpgemmOperand::AA {
                SpgemmOperand::AAt
            } else {
                SpgemmOperand::AA
            };
            let _ = SpgemmSymbolic::analyze(view, other, seed ^ 0x5bd1, &mut dirty);

            let sym = SpgemmSymbolic::analyze(view, operand, seed, &mut fresh);
            let again = SpgemmSymbolic::analyze(view, operand, seed, &mut dirty);
            prop_assert_eq!(sym, again, "{:?}: scratch state leaked", operand);

            prop_assert!(sym.est_nnz() <= sym.ub_total + 1e-9);
            prop_assert!(sym.est_nnz() >= 0.0);
            prop_assert!(sym.compression() >= 1.0);
            prop_assert!((0.0..=1.0).contains(&sym.tightness()));
            prop_assert!(sym.flops_max <= sym.flops_total + 1e-9);

            // r < 40 < SPGEMM_SAMPLE_CAP: the sample is exhaustive, so
            // the ratio estimate collapses to the exact output nnz and
            // the seed cannot matter.
            prop_assert_eq!(sym.sample_rows, csr.n_rows());
            let exact = brute_force_out_nnz(&csr, operand);
            prop_assert!(
                (sym.est_nnz() - exact).abs() <= 1e-9 * exact.max(1.0),
                "{:?}: est {} vs exact {}",
                operand,
                sym.est_nnz(),
                exact
            );
            let reseeded = SpgemmSymbolic::analyze(view, operand, seed.wrapping_add(17), &mut fresh);
            prop_assert_eq!(sym, reseeded, "{:?}: exhaustive sample must ignore the seed", operand);
        }
    }
}
