//! Execution views: per-format kernel operands derived from a CSR matrix.
//!
//! Kernel setup reuses the value-free [`FormatStructure`] layouts for the
//! reordered index streams (HYB's COO tail, CSR5's transposed tiles,
//! COO's expanded row stream) and adds the value planes the structural
//! layer deliberately omits. ELL and the HYB head are the exception: the
//! structural layer only describes their padded planes, and this is the
//! only code that executes them, so it writes the column plane itself,
//! beside the value plane. All derived arrays land in a caller-owned
//! [`ExecScratch`] that grows to a sweep's high-water mark and then stops
//! allocating, so preparing a matrix for execution is alloc-free in
//! steady state — and preparation always happens outside the measured
//! region.

use spmv_matrix::{
    merge_path_search, CsrMatrix, FormatStructure, MatrixError, MergeCoordinate, RowStats, Scalar,
    StructureScratch,
};

/// Column-strip width (in `x` elements) of the cache-blocked CSR kernel:
/// 8192 doubles = 64 KiB per strip window, sized so one strip of `x` plus
/// the streamed triplets stay L1/L2-resident.
pub const STRIP_COLS: usize = 8192;

/// A CSR matrix switches to the cache-blocked column-strip kernel when its
/// `x` vector exceeds this many elements (1 MiB of doubles): below that the
/// whole gather window fits in L2 and strip bucketing is pure overhead.
pub const BLOCK_THRESHOLD_COLS: usize = 131_072;

/// Merge-path items consumed per segment by the merge-CSR kernel. Segments
/// bound the row/nz imbalance any one inner loop sees, mirroring the GPU
/// decomposition the format exists for.
pub const MERGE_SEG_ITEMS: usize = 4096;

/// Largest supported CSR5 tile width (per-lane cursor arrays are
/// stack-allocated at this size in the kernel).
pub const MAX_OMEGA: usize = 64;

/// Reusable buffers for [`PreparedMatrix::build`]. Keep one per worker and
/// feed it every (matrix, format) pair in turn.
#[derive(Debug, Default)]
pub struct ExecScratch<T> {
    /// Index-stream scratch shared with the structural profiling layer.
    structure: StructureScratch,
    /// ELL / HYB-head padded column plane.
    cols: Vec<u32>,
    /// ELL / HYB-head padded value plane; CSR5 transposed tile values.
    vals: Vec<T>,
    /// HYB tail values.
    tail_vals: Vec<T>,
    /// Blocked-CSR strip-bucketed row indices.
    brows: Vec<u32>,
    /// Blocked-CSR strip-bucketed column indices.
    bcols: Vec<u32>,
    /// Blocked-CSR strip-bucketed values.
    bvals: Vec<T>,
    /// Blocked-CSR strip extents (`n_strips + 1` offsets into the streams).
    strip_ptr: Vec<u32>,
    /// Merge-CSR segment boundary coordinates.
    segs: Vec<MergeCoordinate>,
    /// CSR5 per-tile start rows (`n_tiles + 1`; last entry = tail row).
    tile_rows: Vec<u32>,
}

impl<T: Scalar> ExecScratch<T> {
    /// A fresh, empty scratch (buffers allocate lazily on first use).
    pub fn new() -> ExecScratch<T> {
        ExecScratch {
            structure: StructureScratch::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            tail_vals: Vec::new(),
            brows: Vec::new(),
            bcols: Vec::new(),
            bvals: Vec::new(),
            strip_ptr: Vec::new(),
            segs: Vec::new(),
            tile_rows: Vec::new(),
        }
    }
}

/// COO execution view: triplet streams in row-major order.
#[derive(Debug, Clone, Copy)]
pub struct CooExec<'a, T> {
    /// Number of rows.
    pub(crate) n_rows: usize,
    /// Number of columns: every column index is below it.
    pub(crate) n_cols: usize,
    /// Row index per non-zero (non-decreasing).
    pub(crate) rows: &'a [u32],
    /// Column index per non-zero.
    pub(crate) cols: &'a [u32],
    /// Value per non-zero.
    pub(crate) vals: &'a [T],
}

/// CSR execution view: the matrix arrays borrowed directly.
#[derive(Debug, Clone, Copy)]
pub struct CsrExec<'a, T> {
    /// Number of rows.
    pub(crate) n_rows: usize,
    /// Number of columns: every column index is below it.
    pub(crate) n_cols: usize,
    /// Row-pointer array (`n_rows + 1` entries).
    pub(crate) row_ptr: &'a [u32],
    /// Column indices, row-contiguous.
    pub(crate) col_idx: &'a [u32],
    /// Values, row-contiguous.
    pub(crate) vals: &'a [T],
}

/// Cache-blocked CSR execution view: triplets bucketed into column strips
/// of [`STRIP_COLS`] so each strip's `x` window is cache-resident while
/// its entries stream.
#[derive(Debug, Clone, Copy)]
pub struct CsrBlockedExec<'a, T> {
    /// Number of rows.
    pub(crate) n_rows: usize,
    /// Number of columns: every column index is below it.
    pub(crate) n_cols: usize,
    /// Strip extents: strip `s` owns stream entries
    /// `strip_ptr[s]..strip_ptr[s+1]`.
    pub(crate) strip_ptr: &'a [u32],
    /// Row index per entry, strip-bucketed (row-major within a strip).
    pub(crate) rows: &'a [u32],
    /// Column index per entry.
    pub(crate) cols: &'a [u32],
    /// Value per entry.
    pub(crate) vals: &'a [T],
}

/// ELL execution view: padded column-major column and value planes
/// (padding slots hold column 0 and value zero).
#[derive(Debug, Clone, Copy)]
pub struct EllExec<'a, T> {
    /// Number of rows.
    pub(crate) n_rows: usize,
    /// Number of columns: every column index is below it.
    pub(crate) n_cols: usize,
    /// True (unpadded) non-zero count.
    pub(crate) nnz: usize,
    /// Padded row width `K`.
    pub(crate) width: usize,
    /// Column-index plane, column-major (`width * n_rows` slots).
    pub(crate) col_plane: &'a [u32],
    /// Value plane, column-major, zero in padding slots.
    pub(crate) val_plane: &'a [T],
}

/// HYB execution view: ELL head plus COO tail.
#[derive(Debug, Clone, Copy)]
pub struct HybExec<'a, T> {
    /// The regular head.
    pub(crate) head: EllExec<'a, T>,
    /// The irregular spill.
    pub(crate) tail: CooExec<'a, T>,
}

/// Merge-CSR execution view: plain CSR arrays plus precomputed equal-work
/// merge-path segment boundaries.
#[derive(Debug, Clone, Copy)]
pub struct MergeExec<'a, T> {
    /// The CSR arrays the merge path walks.
    pub(crate) csr: CsrExec<'a, T>,
    /// Segment boundaries (`n_segs + 1` coordinates, first `(0,0)`, last
    /// `(n_rows, nnz)`).
    pub(crate) segs: &'a [MergeCoordinate],
}

/// CSR5 execution view: transposed full tiles plus the CSR-ordered tail.
#[derive(Debug, Clone, Copy)]
pub struct Csr5Exec<'a, T> {
    /// Number of rows.
    pub(crate) n_rows: usize,
    /// Number of columns: every column index is below it.
    pub(crate) n_cols: usize,
    /// Stored non-zeros.
    pub(crate) nnz: usize,
    /// Tile width (SIMD lanes); at most [`MAX_OMEGA`].
    pub(crate) omega: usize,
    /// Tile height (entries per lane).
    pub(crate) sigma: usize,
    /// Number of full tiles.
    pub(crate) n_tiles: usize,
    /// Transposed tile column indices (step-major: consecutive entries are
    /// one step across all lanes).
    pub(crate) cols_t: &'a [u32],
    /// Transposed tile values, same layout.
    pub(crate) vals_t: &'a [T],
    /// Per-tile start row (`n_tiles + 1`; the last entry is the row of the
    /// first tail element, or `n_rows` when the tail is empty).
    pub(crate) tile_rows: &'a [u32],
    /// The source row pointer (lane row cursors walk it).
    pub(crate) row_ptr: &'a [u32],
    /// Column indices of the CSR-ordered tail.
    pub(crate) tail_cols: &'a [u32],
    /// Values of the CSR-ordered tail.
    pub(crate) tail_vals: &'a [T],
}

/// A matrix prepared for native execution in one concrete format.
#[derive(Debug, Clone, Copy)]
pub enum PreparedMatrix<'a, T> {
    /// COO triplet streams.
    Coo(CooExec<'a, T>),
    /// Plain CSR (row-sequential kernel).
    Csr(CsrExec<'a, T>),
    /// Cache-blocked CSR (column-strip streams; chosen automatically for
    /// matrices whose `x` exceeds [`BLOCK_THRESHOLD_COLS`]).
    CsrBlocked(CsrBlockedExec<'a, T>),
    /// ELL padded planes.
    Ell(EllExec<'a, T>),
    /// HYB head + tail.
    Hyb(HybExec<'a, T>),
    /// Merge-path CSR.
    MergeCsr(MergeExec<'a, T>),
    /// CSR5 transposed tiles.
    Csr5(Csr5Exec<'a, T>),
}

impl<'a, T: Scalar> PreparedMatrix<'a, T> {
    /// Prepare `csr` for execution in `format`. `stats` must be
    /// [`RowStats::of`] the same matrix. Fails exactly when the
    /// value-carrying conversion fails (ELL padding cap), with the
    /// identical error — so native labeling records the same failure
    /// cells the simulator path does.
    pub fn build(
        csr: &'a CsrMatrix<T>,
        format: spmv_matrix::Format,
        stats: &RowStats,
        scratch: &'a mut ExecScratch<T>,
    ) -> Result<PreparedMatrix<'a, T>, MatrixError> {
        let (n_rows, n_cols) = csr.shape();
        let nnz = csr.nnz();
        // The structural layer derives the reordered index streams; this
        // function adds the value planes and the ELL/HYB-head planes.
        let structure = FormatStructure::build(csr, format, stats, &mut scratch.structure)?;
        Ok(match structure {
            FormatStructure::Coo(s) => PreparedMatrix::Coo(CooExec {
                n_rows,
                n_cols,
                rows: s.rows,
                cols: s.cols,
                vals: csr.values(),
            }),
            FormatStructure::Csr(s) => {
                if n_cols > BLOCK_THRESHOLD_COLS && nnz > 0 {
                    build_blocked_csr(
                        csr,
                        &mut scratch.strip_ptr,
                        &mut scratch.brows,
                        &mut scratch.bcols,
                        &mut scratch.bvals,
                    );
                    PreparedMatrix::CsrBlocked(CsrBlockedExec {
                        n_rows,
                        n_cols,
                        strip_ptr: &scratch.strip_ptr,
                        rows: &scratch.brows,
                        cols: &scratch.bcols,
                        vals: &scratch.bvals,
                    })
                } else {
                    PreparedMatrix::Csr(CsrExec {
                        n_rows,
                        n_cols,
                        row_ptr: s.row_ptr,
                        col_idx: s.col_idx,
                        vals: csr.values(),
                    })
                }
            }
            FormatStructure::Ell(s) => {
                build_padded_planes(csr, s.width, &mut scratch.cols, &mut scratch.vals, None);
                PreparedMatrix::Ell(EllExec {
                    n_rows,
                    n_cols,
                    nnz: s.nnz,
                    width: s.width,
                    col_plane: &scratch.cols,
                    val_plane: &scratch.vals,
                })
            }
            FormatStructure::Hyb(s) => {
                build_padded_planes(
                    csr,
                    s.ell.width,
                    &mut scratch.cols,
                    &mut scratch.vals,
                    Some(&mut scratch.tail_vals),
                );
                PreparedMatrix::Hyb(HybExec {
                    head: EllExec {
                        n_rows,
                        n_cols,
                        nnz: s.ell.nnz,
                        width: s.ell.width,
                        col_plane: &scratch.cols,
                        val_plane: &scratch.vals,
                    },
                    tail: CooExec {
                        n_rows,
                        n_cols,
                        rows: s.tail.rows,
                        cols: s.tail.cols,
                        vals: &scratch.tail_vals,
                    },
                })
            }
            FormatStructure::MergeCsr(s) => {
                build_merge_segments(csr.row_ptr(), n_rows, nnz, &mut scratch.segs);
                PreparedMatrix::MergeCsr(MergeExec {
                    csr: CsrExec {
                        n_rows,
                        n_cols,
                        row_ptr: s.row_ptr,
                        col_idx: s.col_idx,
                        vals: csr.values(),
                    },
                    segs: &scratch.segs,
                })
            }
            FormatStructure::Csr5(s) => {
                let tile_nnz = s.config.tile_nnz();
                build_csr5_vals(
                    csr.values(),
                    s.config.omega,
                    s.config.sigma,
                    s.n_tiles,
                    &mut scratch.vals,
                );
                build_tile_rows(
                    csr.row_ptr(),
                    n_rows,
                    tile_nnz,
                    s.n_tiles,
                    &mut scratch.tile_rows,
                );
                let tail_start = s.n_tiles * tile_nnz;
                PreparedMatrix::Csr5(Csr5Exec {
                    n_rows,
                    n_cols,
                    nnz,
                    omega: s.config.omega,
                    sigma: s.config.sigma,
                    n_tiles: s.n_tiles,
                    cols_t: s.cols_t,
                    vals_t: &scratch.vals,
                    tile_rows: &scratch.tile_rows,
                    row_ptr: csr.row_ptr(),
                    tail_cols: s.tail_cols,
                    tail_vals: &csr.values()[tail_start..],
                })
            }
        })
    }

    /// Which format this view executes.
    pub fn format(&self) -> spmv_matrix::Format {
        use spmv_matrix::Format;
        match self {
            PreparedMatrix::Coo(_) => Format::Coo,
            PreparedMatrix::Csr(_) | PreparedMatrix::CsrBlocked(_) => Format::Csr,
            PreparedMatrix::Ell(_) => Format::Ell,
            PreparedMatrix::Hyb(_) => Format::Hyb,
            PreparedMatrix::MergeCsr(_) => Format::MergeCsr,
            PreparedMatrix::Csr5(_) => Format::Csr5,
        }
    }

    /// Column count of the source matrix: `x` must hold this many entries.
    pub fn n_cols(&self) -> usize {
        match self {
            PreparedMatrix::Coo(v) => v.n_cols,
            PreparedMatrix::Csr(v) => v.n_cols,
            PreparedMatrix::CsrBlocked(v) => v.n_cols,
            PreparedMatrix::Ell(v) => v.n_cols,
            PreparedMatrix::Hyb(v) => v.head.n_cols,
            PreparedMatrix::MergeCsr(v) => v.csr.n_cols,
            PreparedMatrix::Csr5(v) => v.n_cols,
        }
    }

    /// Stored non-zeros — the 2·nnz flop count the GFLOP/s figures use
    /// (padding slots never count as useful work).
    pub fn nnz(&self) -> usize {
        match self {
            PreparedMatrix::Coo(v) => v.vals.len(),
            PreparedMatrix::Csr(v) => v.vals.len(),
            PreparedMatrix::CsrBlocked(v) => v.vals.len(),
            PreparedMatrix::Ell(v) => v.nnz,
            PreparedMatrix::Hyb(v) => v.head.nnz + v.tail.vals.len(),
            PreparedMatrix::MergeCsr(v) => v.csr.vals.len(),
            PreparedMatrix::Csr5(v) => v.nnz,
        }
    }
}

/// Fill the column-major padded column and value planes of width `width`:
/// each row's first `min(len, width)` entries, column 0 and value zero in
/// padding slots (as `EllMatrix::from_csr` writes them). With `tail`, the
/// rest of each row's values go there in row-major order: the HYB tail's
/// value stream when `width` is the head width (HYB's split `min(len,
/// threshold)` equals `min(len, head_width)` because the head width is
/// `min(max_row_len, threshold)`).
fn build_padded_planes<T: Scalar>(
    csr: &CsrMatrix<T>,
    width: usize,
    cols: &mut Vec<u32>,
    vals: &mut Vec<T>,
    tail: Option<&mut Vec<T>>,
) {
    // One plane per walk: a row scatters one write per slot, and a second
    // plane in the same walk doubles the cache lines those writes keep
    // open.
    fill_plane(csr.row_ptr(), csr.col_idx(), width, cols, None);
    fill_plane(csr.row_ptr(), csr.values(), width, vals, tail);
}

/// Fill `plane` with the column-major padded plane of width `width` over
/// the row-contiguous `src`: slot `k` of row `r` at `k * n_rows + r`,
/// the default value in padding slots. Entries past `width` go to `tail`,
/// if given, in row-major order.
fn fill_plane<V: Copy + Default>(
    row_ptr: &[u32],
    src: &[V],
    width: usize,
    plane: &mut Vec<V>,
    mut tail: Option<&mut Vec<V>>,
) {
    let n_rows = row_ptr.len() - 1;
    plane.clear();
    plane.resize(n_rows * width, V::default());
    if let Some(tail) = tail.as_deref_mut() {
        tail.clear();
    }
    for (r, w) in row_ptr.windows(2).enumerate() {
        let (s, e) = (w[0] as usize, w[1] as usize);
        let split = s + (e - s).min(width);
        for (k, &v) in src[s..split].iter().enumerate() {
            plane[k * n_rows + r] = v;
        }
        if let Some(tail) = tail.as_deref_mut() {
            tail.extend_from_slice(&src[split..e]);
        }
    }
}

/// Bucket CSR entries into column strips of [`STRIP_COLS`], preserving row
/// order within each strip (a counting sort over strips).
fn build_blocked_csr<T: Scalar>(
    csr: &CsrMatrix<T>,
    strip_ptr: &mut Vec<u32>,
    brows: &mut Vec<u32>,
    bcols: &mut Vec<u32>,
    bvals: &mut Vec<T>,
) {
    let nnz = csr.nnz();
    let n_strips = csr.n_cols().div_ceil(STRIP_COLS);
    strip_ptr.clear();
    strip_ptr.resize(n_strips + 1, 0);
    for &c in csr.col_idx() {
        strip_ptr[c as usize / STRIP_COLS + 1] += 1;
    }
    for s in 0..n_strips {
        strip_ptr[s + 1] += strip_ptr[s];
    }
    brows.clear();
    brows.resize(nnz, 0);
    bcols.clear();
    bcols.resize(nnz, 0);
    bvals.clear();
    bvals.resize(nnz, T::ZERO);
    let mut cursor: Vec<u32> = strip_ptr[..n_strips].to_vec();
    for (r, w) in csr.row_ptr().windows(2).enumerate() {
        for i in w[0] as usize..w[1] as usize {
            let c = csr.col_idx()[i];
            let strip = c as usize / STRIP_COLS;
            let pos = cursor[strip] as usize;
            cursor[strip] += 1;
            brows[pos] = r as u32;
            bcols[pos] = c;
            bvals[pos] = csr.values()[i];
        }
    }
}

/// Precompute equal-work merge-path segment boundaries, one per
/// [`MERGE_SEG_ITEMS`] merge items.
fn build_merge_segments(
    row_ptr: &[u32],
    n_rows: usize,
    nnz: usize,
    segs: &mut Vec<MergeCoordinate>,
) {
    let total = n_rows + nnz;
    let n_segs = total.div_ceil(MERGE_SEG_ITEMS).max(1);
    let row_ends = &row_ptr[1..];
    segs.clear();
    for p in 0..=n_segs {
        let d = (total * p) / n_segs;
        segs.push(merge_path_search(d, row_ends, nnz));
    }
}

/// Fill `vals_t` with CSR5's transposed full-tile value plane (same
/// permutation the structural layer applies to column indices).
fn build_csr5_vals<T: Scalar>(
    vals: &[T],
    omega: usize,
    sigma: usize,
    n_tiles: usize,
    vals_t: &mut Vec<T>,
) {
    let tile_nnz = omega * sigma;
    vals_t.clear();
    vals_t.resize(n_tiles * tile_nnz, T::ZERO);
    for t in 0..n_tiles {
        let base = t * tile_nnz;
        for lane in 0..omega {
            for s in 0..sigma {
                vals_t[base + s * omega + lane] = vals[base + lane * sigma + s];
            }
        }
    }
}

/// Per-tile start rows: `tile_rows[t]` is the row containing the tile's
/// first entry; the final entry is the tail's first row (or `n_rows`).
fn build_tile_rows(
    row_ptr: &[u32],
    n_rows: usize,
    tile_nnz: usize,
    n_tiles: usize,
    tile_rows: &mut Vec<u32>,
) {
    tile_rows.clear();
    let mut r = 0usize;
    for t in 0..=n_tiles {
        let g = (t * tile_nnz) as u32;
        // First row whose extent reaches past entry `g` (empty rows and,
        // at `g == nnz`, every row get skipped — yielding `n_rows`).
        while r < n_rows && row_ptr[r + 1] <= g {
            r += 1;
        }
        tile_rows.push(r as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{EllMatrix, Format, HybMatrix, TripletBuilder};

    /// Deterministic pseudo-random CSR with skew: row 0 is heavy.
    fn sample_csr(n: usize, m: usize, per_row: usize, heavy: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, m);
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for c in 0..heavy.min(m) {
            b.push_unchecked(0, c as u32, 1.0 + c as f64);
        }
        for r in 1..n {
            for _ in 0..per_row {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = (state >> 33) as usize % m;
                b.push(r, c, (state >> 40) as f64).ok();
            }
        }
        b.build().to_csr()
    }

    fn cases() -> Vec<CsrMatrix<f64>> {
        vec![
            sample_csr(60, 40, 5, 30),
            sample_csr(33, 70, 9, 0),
            sample_csr(1, 8, 3, 8),
            CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]).unwrap(),
            CsrMatrix::from_parts(3, 5, vec![0, 0, 0, 0], vec![], vec![]).unwrap(),
        ]
    }

    /// The prepared ELL planes, or the HYB head's, with its tail values.
    fn planes<'a>(p: &PreparedMatrix<'a, f64>) -> (EllExec<'a, f64>, &'a [f64]) {
        match *p {
            PreparedMatrix::Ell(v) => (v, &[]),
            PreparedMatrix::Hyb(v) => (v.head, v.tail.vals),
            _ => panic!("not a padded format"),
        }
    }

    #[test]
    fn ell_planes_match_ell_matrix_planes() {
        for csr in cases() {
            let stats = RowStats::of(csr.row_ptr());
            let mut scratch = ExecScratch::new();
            let p = PreparedMatrix::build(&csr, Format::Ell, &stats, &mut scratch).unwrap();
            let e = EllMatrix::from_csr(&csr).unwrap();
            let (v, _) = planes(&p);
            assert_eq!(v.width, e.width());
            assert_eq!(v.col_plane, e.col_plane());
            assert_eq!(v.val_plane, e.val_plane());
        }
    }

    #[test]
    fn hyb_planes_match_hyb_matrix_parts() {
        for csr in cases() {
            let stats = RowStats::of(csr.row_ptr());
            let mut scratch = ExecScratch::new();
            let p = PreparedMatrix::build(&csr, Format::Hyb, &stats, &mut scratch).unwrap();
            let h = HybMatrix::from_csr(&csr);
            let (head, tail_vals) = planes(&p);
            assert_eq!(head.width, h.ell_part().width());
            assert_eq!(head.col_plane, h.ell_part().col_plane());
            assert_eq!(head.val_plane, h.ell_part().val_plane());
            assert_eq!(tail_vals, h.coo_part().values());
        }
    }

    #[test]
    fn scratch_reuses_cleanly_across_matrices_and_formats() {
        // Interleave matrices of different shapes through one scratch; the
        // prepared planes must not leak state between builds.
        let mats = cases();
        let mut scratch = ExecScratch::new();
        for _ in 0..2 {
            for csr in &mats {
                let stats = RowStats::of(csr.row_ptr());
                for fmt in Format::ALL {
                    let Ok(p) = PreparedMatrix::build(csr, fmt, &stats, &mut scratch) else {
                        continue;
                    };
                    assert_eq!(p.format(), fmt);
                    if fmt == Format::Ell {
                        let e = EllMatrix::from_csr(csr).unwrap();
                        assert_eq!(planes(&p).0.col_plane, e.col_plane());
                    }
                    if fmt == Format::Hyb {
                        let h = HybMatrix::from_csr(csr);
                        assert_eq!(planes(&p).0.col_plane, h.ell_part().col_plane());
                    }
                }
            }
        }
    }
}
