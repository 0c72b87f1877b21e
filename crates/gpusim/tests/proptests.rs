//! Property-based tests for the GPU model: on arbitrary matrices the
//! simulator produces finite, positive, monotone-sane timings and exact
//! conservation properties (flops, footprints, transaction bounds).

use proptest::prelude::*;
use spmv_gpusim::memory::{count_gather, count_gather_ell, count_gather_reference};
use spmv_gpusim::{GpuArch, KernelProfile, Simulator};
use spmv_matrix::{
    CsrMatrix, EllMatrix, Format, FormatStructure, HybMatrix, Precision, RowStats, SparseMatrix,
    StructureScratch, TripletBuilder,
};

fn arb_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1usize..60, 1usize..60)
        .prop_flat_map(|(r, c)| {
            let entry = (0..r, 0..c);
            (Just(r), Just(c), proptest::collection::vec(entry, 1..300))
        })
        .prop_map(|(r, c, entries)| {
            let mut b = TripletBuilder::new(r, c);
            for (i, j) in entries {
                b.push(i, j, 1.0).expect("in bounds");
            }
            b.build().to_csr()
        })
}

/// A CSR matrix straight from per-row column lists (sorted and
/// deduplicated here), so rows can be empty, long, or hold column 0.
fn csr_from_rows(n_cols: usize, rows: Vec<Vec<u32>>) -> CsrMatrix<f64> {
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    for mut row in rows {
        row.sort_unstable();
        row.dedup();
        col_idx.extend(row);
        row_ptr.push(col_idx.len() as u32);
    }
    let nnz = col_idx.len();
    CsrMatrix::from_parts(row_ptr.len() - 1, n_cols, row_ptr, col_idx, vec![1.0; nnz])
        .expect("valid csr")
}

/// 1..=100 rows (most not a multiple of 32) of mostly short rows, some
/// empty and a few long enough to cross several slots, with column 0
/// drawn often so real column-0 entries sit beside padding.
fn arb_padded_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1usize..=100, 1usize..300)
        .prop_flat_map(|(n_rows, n_cols)| {
            // Draws past the last column become column 0 (about one in
            // four); four rows in five keep at most three entries.
            let raw = 0..(n_cols + n_cols / 3 + 1) as u32;
            let row = (0u32..5, proptest::collection::vec(raw, 0..70));
            (Just(n_cols), proptest::collection::vec(row, n_rows))
        })
        .prop_map(|(n_cols, rows)| {
            let rows = rows
                .into_iter()
                .map(|(kind, mut row)| {
                    if kind < 4 {
                        row.truncate(row.len() % 4);
                    }
                    row.iter_mut().for_each(|c| {
                        if *c >= n_cols as u32 {
                            *c = 0;
                        }
                    });
                    row
                })
                .collect();
            csr_from_rows(n_cols, rows)
        })
}

/// The ELL and HYB-head plane views count exactly what the stored planes
/// count.
fn assert_plane_views_match(csr: &CsrMatrix<f64>, line_bytes: usize) {
    let stats = RowStats::of(csr.row_ptr());
    let mut scratch = StructureScratch::new();
    let ell = EllMatrix::from_csr(csr).expect("small matrices fit the cap");
    match FormatStructure::build(csr, Format::Ell, &stats, &mut scratch).expect("ell") {
        FormatStructure::Ell(v) => assert_eq!(
            count_gather_ell(&v, line_bytes),
            count_gather(ell.col_plane(), 32, line_bytes),
            "ELL, {} rows, width {}",
            v.n_rows,
            v.width
        ),
        _ => unreachable!(),
    }
    let hyb = HybMatrix::from_csr(csr);
    match FormatStructure::build(csr, Format::Hyb, &stats, &mut scratch).expect("hyb") {
        FormatStructure::Hyb(v) => assert_eq!(
            count_gather_ell(&v.ell, line_bytes),
            count_gather(hyb.ell_part().col_plane(), 32, line_bytes),
            "HYB head, {} rows, width {}",
            v.ell.n_rows,
            v.ell.width
        ),
        _ => unreachable!(),
    }
}

#[test]
fn plane_views_count_a_chunk_that_straddles_two_slots() {
    // 40 rows: chunk 1 holds rows 32..40 at slot 0 and rows 0..24 at slot
    // 1. Row 35's second entry keeps slot 1 real past the first group, and
    // column-0 entries sit beside the padding.
    let mut rows = vec![vec![0u32, 9]; 24];
    rows.extend(vec![vec![]; 8]);
    rows.extend((0..8).map(|i| vec![100 + 8 * i]));
    rows[35] = vec![0, 500];
    let csr = csr_from_rows(600, rows);
    assert_plane_views_match(&csr, 32);
    let stats = RowStats::of(csr.row_ptr());
    let mut scratch = StructureScratch::new();
    match FormatStructure::build(&csr, Format::Ell, &stats, &mut scratch).unwrap() {
        FormatStructure::Ell(v) => {
            let g = count_gather_ell(&v, 32);
            // 80 slots: chunks 0..32, 32..64 (straddling) and 64..80.
            assert_eq!(g.accesses, 3.0);
        }
        _ => unreachable!(),
    }
}

#[test]
fn plane_views_count_nothing_at_width_zero() {
    for n_rows in [1, 31, 32, 33, 100] {
        let csr = csr_from_rows(10, vec![vec![]; n_rows]);
        assert_plane_views_match(&csr, 32);
        let stats = RowStats::of(csr.row_ptr());
        let mut scratch = StructureScratch::new();
        match FormatStructure::build(&csr, Format::Ell, &stats, &mut scratch).unwrap() {
            FormatStructure::Ell(v) => {
                assert_eq!(v.width, 0);
                assert_eq!(count_gather_ell(&v, 32).accesses, 0.0);
            }
            _ => unreachable!(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plane_views_count_exactly_what_the_stored_planes_count(
        m in arb_padded_matrix(),
        line_idx in 0usize..3,
    ) {
        // The plane-free count must reproduce `count_gather` over the
        // materialised ELL and HYB-head planes bit for bit: it is what
        // labeling profiles, and the stored planes are the oracle's.
        assert_plane_views_match(&m, [32usize, 64, 128][line_idx]);
    }

    #[test]
    fn profiles_conserve_counts(m in arb_matrix()) {
        for fmt in Format::ALL {
            if let Ok(sm) = SparseMatrix::from_csr(&m, fmt) {
                let p = KernelProfile::of(&sm);
                prop_assert_eq!(p.nnz, m.nnz(), "{}", fmt);
                prop_assert_eq!(p.flops, 2.0 * m.nnz() as f64);
                // A gather transaction can serve at most one lane; at least
                // one per 32 columns touched.
                let nnz_eq = match fmt {
                    // ELL issues gathers for padding slots too.
                    Format::Ell => sm.storage_bytes() as f64 / 12.0,
                    Format::Hyb => p.nnz as f64 * 3.0, // head padding bound
                    _ => p.nnz as f64,
                };
                prop_assert!(p.gather_tx[0] <= nnz_eq + 1.0, "{}: {} > {}", fmt, p.gather_tx[0], nnz_eq);
                prop_assert!(p.gather_tx[1] >= p.gather_tx[0]);
                prop_assert!(p.lane_work >= p.nnz as f64 * 0.9);
                prop_assert!(p.imbalance >= 1.0);
                // f64 values move at least as many bytes; short rows can
                // tie exactly after sector rounding (64 B covers both).
                prop_assert!(p.matrix_bytes[1] >= p.matrix_bytes[0]);
            }
        }
    }

    #[test]
    fn timings_are_finite_positive_and_ordered(m in arb_matrix(), seed in 0u64..100) {
        let sim = Simulator::default();
        for fmt in Format::ALL {
            if let Ok(sm) = SparseMatrix::from_csr(&m, fmt) {
                for arch in &GpuArch::PAPER_MACHINES {
                    let s = sim.measure(&sm, arch, Precision::Single, seed).time_s;
                    let d = sim.measure(&sm, arch, Precision::Double, seed).time_s;
                    prop_assert!(s.is_finite() && s > 0.0);
                    prop_assert!(d.is_finite() && d > 0.0);
                }
                // Noiseless: double >= single (strictly more bytes).
                let clean = Simulator::noiseless();
                for arch in &GpuArch::PAPER_MACHINES {
                    let s = clean.measure(&sm, arch, Precision::Single, 0).time_s;
                    let d = clean.measure(&sm, arch, Precision::Double, 0).time_s;
                    prop_assert!(d >= s, "{fmt} on {}: double {d} < single {s}", arch.name);
                }
            }
        }
    }

    #[test]
    fn adding_rows_never_speeds_up_csr(m in arb_matrix()) {
        // Grow the matrix by duplicating it block-diagonally: strictly more
        // work must never predict strictly less time (noiseless).
        let clean = Simulator::noiseless();
        let small = SparseMatrix::from_csr(&m, Format::Csr).expect("csr");
        let t_small = clean.measure(&small, &GpuArch::K80C, Precision::Double, 0).time_s;

        let (r, c) = m.shape();
        let mut b = TripletBuilder::new(2 * r, 2 * c);
        for row in 0..r {
            let (cols, vals) = m.row(row);
            for (&cc, &v) in cols.iter().zip(vals) {
                b.push(row, cc as usize, v).expect("in bounds");
                b.push(row + r, cc as usize + c, v).expect("in bounds");
            }
        }
        let big = b.build().to_csr();
        let big_m = SparseMatrix::from_csr(&big, Format::Csr).expect("csr");
        let t_big = clean.measure(&big_m, &GpuArch::K80C, Precision::Double, 0).time_s;
        // Hard invariants: strictly more work and traffic.
        let p_small = KernelProfile::of(&small);
        let p_big = KernelProfile::of(&big_m);
        prop_assert!(p_big.lane_work >= p_small.lane_work);
        prop_assert!(p_big.matrix_bytes[1] >= p_small.matrix_bytes[1]);
        // Time: the block-grouping imbalance estimate can shift when rows
        // repack into different 8-row blocks, so allow its bounded slack.
        prop_assert!(
            t_big >= t_small / 3.0,
            "doubling work sped CSR up wildly: {t_small} -> {t_big}"
        );
    }

    #[test]
    fn one_pass_gather_counter_equals_reference(
        cols in proptest::collection::vec(0u32..50_000, 0..600),
        warp in 1usize..=64,
        line_idx in 0usize..3,
    ) {
        // The one-pass counter must reproduce the O(w²) two-scan oracle
        // exactly — both granularities, every warp width 1..=64, every
        // line granularity. Exact equality (not approximate) is what keeps
        // labels and results/ artifacts byte-identical across this rewrite.
        let line_bytes = [32usize, 64, 128][line_idx];
        let fast = count_gather(&cols, warp, line_bytes);
        let slow = count_gather_reference(&cols, warp, line_bytes);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn gather_counter_handles_clustered_duplicates(
        lines in proptest::collection::vec(0u32..8, 1..200),
        warp in 1usize..=64,
    ) {
        // Heavy-duplicate streams (few distinct lines) exercise the run
        // coalescing inside the sorted scan.
        let cols: Vec<u32> = lines.iter().map(|l| l * 8).collect();
        let fast = count_gather(&cols, warp, 32);
        let slow = count_gather_reference(&cols, warp, 32);
        prop_assert_eq!(fast, slow);
        // With at most 8 distinct lines, no chunk exceeds 8 transactions.
        prop_assert!(fast.tx_single <= 8.0 * fast.accesses);
    }

    #[test]
    fn measurement_noise_is_bounded(m in arb_matrix(), seed in 0u64..50) {
        let sim = Simulator::default();
        let clean = Simulator::noiseless();
        let sm = SparseMatrix::from_csr(&m, Format::Csr).expect("csr");
        let noisy = sim.measure(&sm, &GpuArch::P100, Precision::Single, seed).time_s;
        let base = clean.measure(&sm, &GpuArch::P100, Precision::Single, seed).time_s;
        // 50-rep mean of 2.5% log-normal jitter stays within ~2%.
        prop_assert!((noisy / base - 1.0).abs() < 0.05, "{noisy} vs {base}");
    }
}
