//! Structure-only ("value-free") views of the six storage formats.
//!
//! GPU kernel profiling depends only on the sparsity *structure* of a
//! matrix — row extents and column indices — yet the value-carrying
//! conversion constructors ([`SparseMatrix::from_csr`]) materialize full
//! value planes (ELL padding included) that profiling never reads. This
//! module describes exactly the index layouts each format's kernel walks
//! **without allocating a single value**. Layouts that are a cheap
//! function of the CSR rows are views: CSR and merge-CSR borrow
//! `row_ptr`/`col_idx`, and ELL's padded column-major plane (and HYB's
//! head, the same plane at a narrower width) is described by the rows
//! plus its width, never written out. Layouts that reorder entries (HYB's
//! COO tail, CSR5's transposed tiles, COO's expanded row stream) are
//! derived into caller-owned scratch buffers that amortize to zero
//! allocations across a labeling sweep.
//!
//! The derived layouts are bit-identical to what the value-carrying
//! constructors build (tested below), and the ELL views read entry for
//! entry as the stored planes do, so a profile computed over a
//! [`FormatStructure`] equals one computed over the corresponding
//! [`SparseMatrix`] — the invariant the labeling pipeline's byte-identical
//! artifacts rest on.
//!
//! [`SparseMatrix`]: crate::format::SparseMatrix
//! [`SparseMatrix::from_csr`]: crate::format::SparseMatrix::from_csr

use crate::csr::CsrMatrix;
use crate::csr5::Csr5Config;
use crate::ell::EllMatrix;
use crate::error::{MatrixError, Result};
use crate::format::Format;
use crate::scalar::Scalar;

/// Row-length statistics, computed in one pass over `row_ptr` and shared
/// by every consumer that would otherwise re-walk it: ELL width selection,
/// the HYB split threshold, CSR5 tile tuning, merge-path setup, and the
/// row-length features of the 17-feature extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct RowStats {
    /// Number of rows.
    pub n_rows: usize,
    /// Stored non-zeros (`row_ptr`'s final entry).
    pub nnz: usize,
    /// Shortest row (0 for an empty matrix).
    pub min_row_len: usize,
    /// Longest row (0 for an empty matrix) — ELL's padded width.
    pub max_row_len: usize,
    /// Sum over rows of `len²` (accumulated in row order as `f64`, the
    /// exact accumulation the feature extractor performs).
    pub sum_sq: f64,
    /// Row-length histogram by bit length: `hist[b]` counts rows whose
    /// length has `b` significant bits (`hist[0]` = empty rows). A cheap
    /// fingerprint of the skew regime (uniform matrices occupy one or two
    /// adjacent buckets; power-law tails smear across many).
    pub hist: [usize; 33],
}

impl RowStats {
    /// Compute the statistics in a single pass over `row_ptr`.
    pub fn of(row_ptr: &[u32]) -> RowStats {
        let n_rows = row_ptr.len().saturating_sub(1);
        let nnz = row_ptr.last().copied().unwrap_or(0) as usize;
        let mut min_row_len = usize::MAX;
        let mut max_row_len = 0usize;
        let mut sum_sq = 0.0f64;
        let mut hist = [0usize; 33];
        for w in row_ptr.windows(2) {
            let len = (w[1] - w[0]) as usize;
            min_row_len = min_row_len.min(len);
            max_row_len = max_row_len.max(len);
            sum_sq += (len * len) as f64;
            hist[usize::BITS as usize - len.leading_zeros() as usize] += 1;
        }
        if n_rows == 0 {
            min_row_len = 0;
        }
        RowStats {
            n_rows,
            nnz,
            min_row_len,
            max_row_len,
            sum_sq,
            hist,
        }
    }

    /// Mean non-zeros per row (`nnz_mu`; 0 for an empty matrix) — equal to
    /// [`CsrMatrix::mean_row_len`].
    pub fn mean(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.nnz as f64 / self.n_rows as f64
        }
    }

    /// Population standard deviation of the row lengths (`nnz_sigma`).
    pub fn sigma(&self) -> f64 {
        let rows_f = self.n_rows.max(1) as f64;
        let mu = self.nnz as f64 / rows_f;
        (self.sum_sq / rows_f - mu * mu).max(0.0).sqrt()
    }

    /// ELL's padded width (the longest row).
    pub fn ell_width(&self) -> usize {
        self.max_row_len
    }

    /// HYB's split threshold: `ceil(nnz_mu)`, at least 1 — the value
    /// [`crate::HybMatrix::from_csr`] derives for itself.
    pub fn hyb_threshold(&self) -> usize {
        (self.mean().ceil() as usize).max(1)
    }

    /// CSR5's auto-tuned tiling for this row-length profile.
    pub fn csr5_config(&self) -> Csr5Config {
        Csr5Config::auto(self.mean())
    }

    /// Merge-path length (`n_rows + nnz`): the unit of merge-CSR balance.
    pub fn merge_items(&self) -> usize {
        self.n_rows + self.nnz
    }
}

/// Reusable scratch for [`FormatStructure::build`]'s derived index
/// layouts. Keep one per worker and feed it every matrix in turn: the
/// buffers grow to the sweep's high-water mark and then stop allocating.
#[derive(Debug, Default)]
pub struct StructureScratch {
    /// COO / HYB-tail expanded row indices.
    rows: Vec<u32>,
    /// HYB-tail column indices.
    tail_cols: Vec<u32>,
    /// CSR5 transposed tile column indices.
    cols_t: Vec<u32>,
    /// SpGEMM symbolic phase: transpose row pointer (counting sort).
    pub(crate) t_row_ptr: Vec<u32>,
    /// SpGEMM symbolic phase: transpose column indices.
    pub(crate) t_col_idx: Vec<u32>,
    /// SpGEMM symbolic phase: epoch-stamped distinct-column marker for the
    /// sampled exact-nnz pass (one slot per output column).
    pub(crate) marker: Vec<u32>,
}

impl StructureScratch {
    /// A fresh, empty scratch (buffers allocate lazily on first use).
    pub fn new() -> StructureScratch {
        StructureScratch::default()
    }
}

/// COO structure: expanded row stream plus the column stream.
#[derive(Debug, Clone, Copy)]
pub struct CooStructure<'a> {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Row index of each non-zero (row-major order).
    pub rows: &'a [u32],
    /// Column index of each non-zero.
    pub cols: &'a [u32],
}

/// CSR structure: the row pointer and column indices, borrowed directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrStructure<'a> {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Row-pointer array (`n_rows + 1` entries).
    pub row_ptr: &'a [u32],
    /// Column indices, row-contiguous.
    pub col_idx: &'a [u32],
}

impl<'a, T: Scalar> From<&'a CsrMatrix<T>> for CsrStructure<'a> {
    fn from(csr: &'a CsrMatrix<T>) -> CsrStructure<'a> {
        CsrStructure {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            row_ptr: csr.row_ptr(),
            col_idx: csr.col_idx(),
        }
    }
}

/// An owned CSR structure: row pointers and column indices, no values.
/// [`crate::mm::read_matrix_market_structure`] reads one for callers that
/// need only the structure, such as feature extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternCsr {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
}

impl PatternCsr {
    /// Build from parts known to be a valid CSR structure.
    pub(crate) fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
    ) -> PatternCsr {
        debug_assert_eq!(row_ptr.len(), n_rows + 1);
        debug_assert_eq!(row_ptr.last().copied(), Some(col_idx.len() as u32));
        PatternCsr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
        }
    }

    /// The borrowed view.
    pub fn structure(&self) -> CsrStructure<'_> {
        self.into()
    }
}

impl<'a> From<&'a PatternCsr> for CsrStructure<'a> {
    fn from(p: &'a PatternCsr) -> CsrStructure<'a> {
        CsrStructure {
            n_rows: p.n_rows,
            n_cols: p.n_cols,
            row_ptr: &p.row_ptr,
            col_idx: &p.col_idx,
        }
    }
}

/// ELL structure: a description of the padded column-major column plane
/// [`EllMatrix`] stores, read from the CSR rows instead of written out.
///
/// Slot `k` of row `r` sits at plane position `k * n_rows + r` and holds
/// the row's `k`-th column, or column 0 when the row has no `k`-th entry
/// (a padding slot, exactly as [`EllMatrix`] stores it). Rows longer than
/// `width` are cut at `width`, which is how the HYB head is the same view
/// at its narrower width. No plane of any kind is allocated.
#[derive(Debug, Clone, Copy)]
pub struct EllStructure<'a> {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// True (unpadded) non-zero count: the entries in slots below `width`.
    pub nnz: usize,
    /// Padded row width `K`.
    pub width: usize,
    /// Row-pointer array of the source CSR (`n_rows + 1` entries).
    pub row_ptr: &'a [u32],
    /// Column indices of the source CSR, row-contiguous.
    pub col_idx: &'a [u32],
}

impl EllStructure<'_> {
    /// Total padded slots (`n_rows * width`).
    pub fn padded_elems(&self) -> usize {
        self.n_rows * self.width
    }
}

/// HYB structure: ELL head plus COO tail. The head is an [`EllStructure`]
/// over the same CSR rows at width `min(max_row_len, threshold)`, so it
/// reads each row's first `min(len, threshold)` entries, as
/// [`crate::HybMatrix`] stores them; only the tail is derived into
/// scratch.
#[derive(Debug, Clone, Copy)]
pub struct HybStructure<'a> {
    /// Total stored non-zeros across both parts.
    pub nnz: usize,
    /// The regular (ELL) head: a plane view, nothing stored.
    pub ell: EllStructure<'a>,
    /// The irregular (COO) spill, derived into scratch.
    pub tail: CooStructure<'a>,
}

/// CSR5 structure: transposed full-tile column plane plus the CSR-ordered
/// tail columns (borrowed from the source CSR — the tail is untransposed).
#[derive(Debug, Clone, Copy)]
pub struct Csr5Structure<'a> {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Tiling parameters (auto-tuned from the mean row length).
    pub config: Csr5Config,
    /// Number of full tiles.
    pub n_tiles: usize,
    /// Transposed column indices of the full tiles (step-major layout).
    pub cols_t: &'a [u32],
    /// Column indices of the CSR-ordered tail.
    pub tail_cols: &'a [u32],
}

/// A sparse matrix's structure in one concrete format — everything a GPU
/// kernel profile needs, with no value storage anywhere.
#[derive(Debug, Clone, Copy)]
pub enum FormatStructure<'a> {
    /// COO-format structure.
    Coo(CooStructure<'a>),
    /// ELL-format structure.
    Ell(EllStructure<'a>),
    /// CSR-format structure.
    Csr(CsrStructure<'a>),
    /// HYB-format structure.
    Hyb(HybStructure<'a>),
    /// Merge-based CSR structure (plain CSR; the decomposition differs).
    MergeCsr(CsrStructure<'a>),
    /// CSR5-format structure.
    Csr5(Csr5Structure<'a>),
}

impl<'a> FormatStructure<'a> {
    /// Derive the structure of `csr` in `format`, writing any reordered
    /// index layout (COO rows, HYB tail, CSR5 tiles) into `scratch`; the
    /// other layouts borrow `csr`'s arrays. `stats` must be [`RowStats::of`] the same
    /// matrix (computed once per matrix and shared with feature
    /// extraction).
    ///
    /// Fails exactly when the value-carrying conversion fails — ELL's
    /// padded-plane cap — with the identical [`MatrixError`], so a
    /// labeling pipeline records the same failure cells either way.
    pub fn build<T: Scalar>(
        csr: &'a CsrMatrix<T>,
        format: Format,
        stats: &RowStats,
        scratch: &'a mut StructureScratch,
    ) -> Result<FormatStructure<'a>> {
        let (n_rows, n_cols) = csr.shape();
        let nnz = csr.nnz();
        debug_assert_eq!(stats.n_rows, n_rows, "stats must describe this matrix");
        debug_assert_eq!(stats.nnz, nnz, "stats must describe this matrix");
        Ok(match format {
            Format::Coo => {
                expand_rows(csr.row_ptr(), &mut scratch.rows);
                FormatStructure::Coo(CooStructure {
                    n_rows,
                    n_cols,
                    rows: &scratch.rows,
                    cols: csr.col_idx(),
                })
            }
            Format::Csr => FormatStructure::Csr(CsrStructure {
                n_rows,
                n_cols,
                row_ptr: csr.row_ptr(),
                col_idx: csr.col_idx(),
            }),
            Format::Ell => {
                let width = stats.ell_width();
                // Same cap and same error as `EllMatrix::from_csr`.
                let cap = EllMatrix::<T>::DEFAULT_PADDED_CAP.max(4 * nnz);
                let padded = n_rows.saturating_mul(width);
                if padded > cap {
                    return Err(MatrixError::PaddingOverflow {
                        required: padded,
                        cap,
                    });
                }
                FormatStructure::Ell(EllStructure {
                    n_rows,
                    n_cols,
                    nnz,
                    width,
                    row_ptr: csr.row_ptr(),
                    col_idx: csr.col_idx(),
                })
            }
            Format::Hyb => {
                let k = stats.hyb_threshold();
                // Head rows are each row's first `min(len, k)` entries, so
                // the head's padded width is `min(max_row_len, k)`.
                let head_width = stats.max_row_len.min(k);
                let head_nnz = build_hyb_tail(
                    csr.row_ptr(),
                    csr.col_idx(),
                    k,
                    &mut scratch.rows,
                    &mut scratch.tail_cols,
                );
                let scratch: &'a StructureScratch = scratch;
                FormatStructure::Hyb(HybStructure {
                    nnz,
                    ell: EllStructure {
                        n_rows,
                        n_cols,
                        nnz: head_nnz,
                        width: head_width,
                        row_ptr: csr.row_ptr(),
                        col_idx: csr.col_idx(),
                    },
                    tail: CooStructure {
                        n_rows,
                        n_cols,
                        rows: &scratch.rows,
                        cols: &scratch.tail_cols,
                    },
                })
            }
            Format::MergeCsr => FormatStructure::MergeCsr(CsrStructure {
                n_rows,
                n_cols,
                row_ptr: csr.row_ptr(),
                col_idx: csr.col_idx(),
            }),
            Format::Csr5 => {
                let config = stats.csr5_config();
                let tile_nnz = config.tile_nnz();
                let n_tiles = nnz / tile_nnz;
                let tail_start = n_tiles * tile_nnz;
                build_csr5_transpose(csr.col_idx(), config, n_tiles, &mut scratch.cols_t);
                FormatStructure::Csr5(Csr5Structure {
                    n_rows,
                    n_cols,
                    nnz,
                    config,
                    n_tiles,
                    cols_t: &scratch.cols_t,
                    tail_cols: &csr.col_idx()[tail_start..],
                })
            }
        })
    }

    /// Which format this structure describes.
    pub fn format(&self) -> Format {
        match self {
            FormatStructure::Coo(_) => Format::Coo,
            FormatStructure::Ell(_) => Format::Ell,
            FormatStructure::Csr(_) => Format::Csr,
            FormatStructure::Hyb(_) => Format::Hyb,
            FormatStructure::MergeCsr(_) => Format::MergeCsr,
            FormatStructure::Csr5(_) => Format::Csr5,
        }
    }
}

/// Expand a CSR row pointer into one row index per non-zero.
fn expand_rows(row_ptr: &[u32], out: &mut Vec<u32>) {
    let nnz = row_ptr.last().copied().unwrap_or(0) as usize;
    out.clear();
    out.resize(nnz, 0);
    for (r, w) in row_ptr.windows(2).enumerate() {
        out[w[0] as usize..w[1] as usize].fill(r as u32);
    }
}

/// Fill the HYB tail streams; returns the head's non-zero count. The
/// split mirrors `HybMatrix::from_csr_with_threshold`: each row's first
/// `min(len, k)` entries to the head, the rest to the tail in row-major
/// order.
fn build_hyb_tail(
    row_ptr: &[u32],
    col_idx: &[u32],
    k: usize,
    tail_rows: &mut Vec<u32>,
    tail_cols: &mut Vec<u32>,
) -> usize {
    tail_rows.clear();
    tail_cols.clear();
    let mut head_nnz = 0usize;
    for (r, w) in row_ptr.windows(2).enumerate() {
        let (s, e) = (w[0] as usize, w[1] as usize);
        let split = (e - s).min(k);
        head_nnz += split;
        for &c in &col_idx[s + split..e] {
            tail_rows.push(r as u32);
            tail_cols.push(c);
        }
    }
    head_nnz
}

/// Fill `cols_t` with CSR5's transposed full-tile column plane: entry
/// `lane * sigma + s` of tile `t` lands at `t * tile_nnz + s * omega +
/// lane`, exactly as `Csr5Matrix::from_csr_with_config` stores it.
fn build_csr5_transpose(col_idx: &[u32], cfg: Csr5Config, n_tiles: usize, cols_t: &mut Vec<u32>) {
    let tile_nnz = cfg.tile_nnz();
    cols_t.clear();
    cols_t.resize(n_tiles * tile_nnz, 0);
    for t in 0..n_tiles {
        let base = t * tile_nnz;
        for lane in 0..cfg.omega {
            for s in 0..cfg.sigma {
                cols_t[base + s * cfg.omega + lane] = col_idx[base + lane * cfg.sigma + s];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TripletBuilder;
    use crate::csr5::Csr5Matrix;
    use crate::format::SparseMatrix;
    use crate::hyb::HybMatrix;

    /// Deterministic pseudo-random CSR with skew: row 0 is heavy.
    fn sample_csr(n: usize, m: usize, per_row: usize, heavy: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, m);
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for c in 0..heavy.min(m) {
            b.push_unchecked(0, c as u32, 1.0);
        }
        for r in 1..n {
            for _ in 0..per_row {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = (state >> 33) as usize % m;
                b.push(r, c, 1.0).ok();
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

    #[test]
    fn row_stats_match_csr_accessors() {
        for csr in cases() {
            let s = RowStats::of(csr.row_ptr());
            assert_eq!(s.n_rows, csr.n_rows());
            assert_eq!(s.nnz, csr.nnz());
            assert_eq!(s.max_row_len, csr.max_row_len());
            assert_eq!(s.min_row_len, csr.row_lens().min().unwrap_or(0));
            assert_eq!(s.mean(), csr.mean_row_len());
            assert_eq!(s.merge_items(), csr.n_rows() + csr.nnz());
            assert_eq!(s.hist.iter().sum::<usize>(), csr.n_rows());
        }
    }

    #[test]
    fn row_stats_histogram_buckets_by_bit_length() {
        // Rows of length 0, 1, 2, 3, 4: buckets 0, 1, 2, 2, 3.
        let csr = CsrMatrix::<f64>::from_parts(
            5,
            4,
            vec![0, 0, 1, 3, 6, 10],
            vec![0, 0, 1, 0, 1, 2, 0, 1, 2, 3],
            vec![1.0; 10],
        )
        .unwrap();
        let s = RowStats::of(csr.row_ptr());
        assert_eq!(s.hist[0], 1);
        assert_eq!(s.hist[1], 1);
        assert_eq!(s.hist[2], 2);
        assert_eq!(s.hist[3], 1);
    }

    #[test]
    fn derived_parameters_match_value_carrying_constructors() {
        for csr in cases() {
            let s = RowStats::of(csr.row_ptr());
            assert_eq!(
                s.hyb_threshold(),
                (csr.mean_row_len().ceil() as usize).max(1),
                "the threshold HybMatrix::from_csr derives for itself"
            );
            assert_eq!(s.csr5_config(), Csr5Matrix::from_csr(&csr).config());
            if let Ok(e) = EllMatrix::from_csr(&csr) {
                assert_eq!(s.ell_width(), e.width());
            }
        }
    }

    #[test]
    fn ell_structure_matches_ell_matrix_plane() {
        for csr in cases() {
            let stats = RowStats::of(csr.row_ptr());
            let mut scratch = StructureScratch::new();
            let s = FormatStructure::build(&csr, Format::Ell, &stats, &mut scratch).unwrap();
            let e = EllMatrix::from_csr(&csr).unwrap();
            match s {
                FormatStructure::Ell(v) => {
                    assert_eq!(v.width, e.width());
                    assert_eq!(v.nnz, e.nnz());
                    assert_eq!(v.padded_elems(), e.padded_elems());
                    assert_eq!((v.row_ptr, v.col_idx), (csr.row_ptr(), csr.col_idx()));
                }
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn ell_structure_fails_exactly_like_ell_matrix() {
        // One pathologically long row past the padded cap.
        let n_rows = 20_000usize;
        let long = 2_000usize;
        let mut row_ptr: Vec<u32> = Vec::with_capacity(n_rows + 1);
        let mut col_idx: Vec<u32> = (0..long as u32).collect();
        row_ptr.push(0);
        row_ptr.push(long as u32);
        for r in 1..n_rows {
            col_idx.push((r % long) as u32);
            row_ptr.push((long + r) as u32);
        }
        let nnz = col_idx.len();
        let csr = CsrMatrix::from_parts(n_rows, long, row_ptr, col_idx, vec![1.0f64; nnz]).unwrap();
        let dense_err = EllMatrix::from_csr(&csr).unwrap_err();
        let stats = RowStats::of(csr.row_ptr());
        let mut scratch = StructureScratch::new();
        let view_err = FormatStructure::build(&csr, Format::Ell, &stats, &mut scratch).unwrap_err();
        assert_eq!(view_err.to_string(), dense_err.to_string());
    }

    #[test]
    fn hyb_structure_matches_hyb_matrix_parts() {
        for csr in cases() {
            let stats = RowStats::of(csr.row_ptr());
            let mut scratch = StructureScratch::new();
            let s = FormatStructure::build(&csr, Format::Hyb, &stats, &mut scratch).unwrap();
            let h = HybMatrix::from_csr(&csr);
            match s {
                FormatStructure::Hyb(v) => {
                    assert_eq!(v.nnz, h.nnz());
                    assert_eq!(v.ell.width, h.ell_part().width());
                    assert_eq!(v.ell.nnz, h.ell_part().nnz());
                    assert_eq!(v.ell.padded_elems(), h.ell_part().padded_elems());
                    assert_eq!(v.tail.rows, h.coo_part().row_indices());
                    assert_eq!(v.tail.cols, h.coo_part().col_indices());
                }
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn csr5_structure_matches_csr5_matrix_tiles() {
        for csr in cases() {
            let stats = RowStats::of(csr.row_ptr());
            let mut scratch = StructureScratch::new();
            let s = FormatStructure::build(&csr, Format::Csr5, &stats, &mut scratch).unwrap();
            let c5 = Csr5Matrix::from_csr(&csr);
            match s {
                FormatStructure::Csr5(v) => {
                    assert_eq!(v.config, c5.config());
                    assert_eq!(v.n_tiles, c5.n_tiles());
                    assert_eq!(v.cols_t, c5.tiles_col_view());
                    assert_eq!(v.tail_cols, c5.tail_cols_view());
                }
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn coo_structure_matches_coo_matrix_streams() {
        for csr in cases() {
            let stats = RowStats::of(csr.row_ptr());
            let mut scratch = StructureScratch::new();
            let s = FormatStructure::build(&csr, Format::Coo, &stats, &mut scratch).unwrap();
            let coo = csr.to_coo();
            match s {
                FormatStructure::Coo(v) => {
                    assert_eq!(v.rows, coo.row_indices());
                    assert_eq!(v.cols, coo.col_indices());
                }
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn scratch_reuses_cleanly_across_matrices_and_formats() {
        // Interleave matrices of different shapes through one scratch; the
        // derived layouts must not leak state between builds.
        let mats = cases();
        let mut scratch = StructureScratch::new();
        for _ in 0..2 {
            for csr in &mats {
                let stats = RowStats::of(csr.row_ptr());
                for fmt in Format::ALL {
                    let Ok(s) = FormatStructure::build(csr, fmt, &stats, &mut scratch) else {
                        continue;
                    };
                    assert_eq!(s.format(), fmt);
                    match s {
                        FormatStructure::Coo(v) => {
                            assert_eq!(v.rows, csr.to_coo().row_indices());
                        }
                        FormatStructure::Hyb(v) => {
                            let h = HybMatrix::from_csr(csr);
                            assert_eq!(v.tail.rows, h.coo_part().row_indices());
                            assert_eq!(v.tail.cols, h.coo_part().col_indices());
                        }
                        FormatStructure::Csr5(v) => {
                            assert_eq!(v.cols_t, Csr5Matrix::from_csr(csr).tiles_col_view());
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_matrix_and_structure_agree_on_convertibility() {
        for csr in cases() {
            let stats = RowStats::of(csr.row_ptr());
            let mut scratch = StructureScratch::new();
            for fmt in Format::ALL {
                let dense_ok = SparseMatrix::from_csr(&csr, fmt).is_ok();
                let view_ok = FormatStructure::build(&csr, fmt, &stats, &mut scratch).is_ok();
                assert_eq!(dense_ok, view_ok, "{fmt}");
            }
        }
    }
}
