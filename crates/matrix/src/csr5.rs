//! CSR5 storage (Liu & Vinter, ICS'15; paper §II-A5).
//!
//! CSR5 extends CSR with two additional arrays — hence "5": the original
//! `row_ptr`, `col_idx`, `val` triple plus `tile_ptr` (the row at which each
//! 2-D tile starts) and `tile_desc` (per-tile descriptors). The non-zeros are
//! partitioned into equally sized `omega x sigma` tiles (`omega` = SIMD/warp
//! lanes, `sigma` = per-lane depth); within a tile, entries are stored
//! **transposed** so that at step `s` all `omega` lanes touch contiguous
//! memory (coalesced on a GPU, vectorizable on a CPU). Per-lane bit flags
//! mark entries that begin a new matrix row, enabling a tile-local segmented
//! sum; rows spanning tile boundaries are fixed up with a carry
//! ("calibration") pass.
//!
//! This implementation stores the tile descriptor as the per-lane bit flags
//! plus the explicit list of rows starting inside each tile, which subsumes
//! the original's `y_offset`/`seg_offset`/`empty_offset` encodings (those are
//! bit-packed forms of the same information) while remaining faithful to the
//! algorithm: tiles are load-balanced in nnz, accesses are tile-transposed,
//! and reduction is a segmented sum with inter-tile carries.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// Maximum supported per-lane depth (bit flags are packed in a `u64`).
pub const MAX_SIGMA: usize = 64;

/// CSR5 tiling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Csr5Config {
    /// Tile width: number of SIMD lanes (32 on NVIDIA GPUs).
    pub omega: usize,
    /// Tile height: entries per lane (CSR5 tunes this to the mean row length).
    pub sigma: usize,
}

impl Csr5Config {
    /// The GPU-oriented default: warp-width tiles.
    pub const GPU: Csr5Config = Csr5Config {
        omega: 32,
        sigma: 16,
    };

    /// Auto-tune `sigma` from the mean row length, following the shape of the
    /// CSR5 paper's heuristic (short rows get shallow tiles so that row
    /// boundaries stay frequent within a lane; long rows get deeper tiles to
    /// amortize segmented-sum overhead).
    pub fn auto(mean_row_len: f64) -> Csr5Config {
        let sigma = if mean_row_len <= 4.0 {
            4
        } else if mean_row_len >= 44.0 {
            44
        } else {
            mean_row_len.round() as usize
        };
        Csr5Config { omega: 32, sigma }
    }

    /// Entries per tile.
    pub fn tile_nnz(&self) -> usize {
        self.omega * self.sigma
    }
}

/// CSR5 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr5Matrix<T> {
    n_rows: usize,
    n_cols: usize,
    cfg: Csr5Config,
    /// CSR row pointer (CSR5 keeps it — array 1 of 5).
    row_ptr: Vec<u32>,
    /// Transposed column indices: entry `lane * sigma + s` of tile `t` lives
    /// at `t * tile_nnz + s * omega + lane` (array 2 of 5).
    cols_t: Vec<u32>,
    /// Transposed values, same layout (array 3 of 5).
    vals_t: Vec<T>,
    /// Row of each tile's first entry (array 4 of 5).
    tile_ptr: Vec<u32>,
    /// Per-(tile, lane) bit flags: bit `s` set iff that entry starts a row
    /// (array 5 of 5, part a).
    bit_flags: Vec<u64>,
    /// Rows starting within each tile, concatenated (part b; replaces the
    /// original's y/seg/empty offset bit-packing).
    starts: Vec<u32>,
    /// CSR-style offsets into `starts`, length `n_tiles + 1`.
    starts_ptr: Vec<u32>,
    /// First nnz index not covered by full tiles; the tail is processed in
    /// CSR order.
    tail_start: usize,
    /// Untransposed tail columns.
    tail_cols: Vec<u32>,
    /// Untransposed tail values.
    tail_vals: Vec<T>,
    /// Row of each tail entry.
    tail_rows: Vec<u32>,
}

impl<T: Scalar> Csr5Matrix<T> {
    /// Convert from CSR with auto-tuned tiling.
    pub fn from_csr(csr: &CsrMatrix<T>) -> Self {
        Self::from_csr_with_config(csr, Csr5Config::auto(csr.mean_row_len()))
    }

    /// Convert from CSR with explicit tiling parameters.
    ///
    /// # Panics
    /// If `sigma` is 0 or exceeds [`MAX_SIGMA`], or `omega` is 0.
    pub fn from_csr_with_config(csr: &CsrMatrix<T>, cfg: Csr5Config) -> Self {
        assert!(cfg.omega > 0, "omega must be positive");
        assert!(
            cfg.sigma > 0 && cfg.sigma <= MAX_SIGMA,
            "sigma must be in 1..={MAX_SIGMA}"
        );
        let nnz = csr.nnz();
        let tile_nnz = cfg.tile_nnz();
        let n_tiles = nnz / tile_nnz;
        let tail_start = n_tiles * tile_nnz;

        // Row of every nnz (scratch; freed after construction).
        let mut entry_row = vec![0u32; nnz];
        for r in 0..csr.n_rows() {
            let (s, e) = (csr.row_ptr()[r] as usize, csr.row_ptr()[r + 1] as usize);
            entry_row[s..e].fill(r as u32);
        }
        // Row-start positions: g starts row r iff g == row_ptr[r] and row r
        // is non-empty.
        let mut is_start = vec![false; nnz + 1];
        for r in 0..csr.n_rows() {
            if csr.row_ptr()[r] < csr.row_ptr()[r + 1] {
                is_start[csr.row_ptr()[r] as usize] = true;
            }
        }

        let mut cols_t = vec![0u32; tail_start];
        let mut vals_t = vec![T::ZERO; tail_start];
        let mut tile_ptr = Vec::with_capacity(n_tiles + 1);
        let mut bit_flags = vec![0u64; n_tiles * cfg.omega];
        let mut starts = Vec::new();
        let mut starts_ptr = Vec::with_capacity(n_tiles + 1);
        starts_ptr.push(0u32);

        for t in 0..n_tiles {
            let base = t * tile_nnz;
            tile_ptr.push(entry_row[base]);
            for lane in 0..cfg.omega {
                let mut flags = 0u64;
                for s in 0..cfg.sigma {
                    let g = base + lane * cfg.sigma + s;
                    if is_start[g] {
                        flags |= 1u64 << s;
                        starts.push(entry_row[g]);
                    }
                    let pos = base + s * cfg.omega + lane;
                    cols_t[pos] = csr.col_idx()[g];
                    vals_t[pos] = csr.values()[g];
                }
                bit_flags[t * cfg.omega + lane] = flags;
            }
            // `starts` was appended lane-major = ascending global order, so
            // the rows within the tile slice are already sorted.
            starts_ptr.push(starts.len() as u32);
        }
        tile_ptr.push(if tail_start < nnz {
            entry_row[tail_start]
        } else {
            csr.n_rows() as u32
        });

        let tail_cols = csr.col_idx()[tail_start..].to_vec();
        let tail_vals = csr.values()[tail_start..].to_vec();
        let tail_rows = entry_row[tail_start..].to_vec();

        Self {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            cfg,
            row_ptr: csr.row_ptr().to_vec(),
            cols_t,
            vals_t,
            tile_ptr,
            bit_flags,
            starts,
            starts_ptr,
            tail_start,
            tail_cols,
            tail_vals,
            tail_rows,
        }
    }

    /// Matrix shape as `(n_rows, n_cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_rows, self.n_cols)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.tail_start + self.tail_vals.len()
    }

    /// Tiling parameters in use.
    pub fn config(&self) -> Csr5Config {
        self.cfg
    }

    /// Number of full tiles.
    pub fn n_tiles(&self) -> usize {
        self.bit_flags.len() / self.cfg.omega.max(1)
    }

    /// Number of nnz in the CSR-ordered tail.
    pub fn tail_len(&self) -> usize {
        self.tail_vals.len()
    }

    /// Row at which tile `t` starts.
    pub fn tile_ptr(&self) -> &[u32] {
        &self.tile_ptr
    }

    /// Storage footprint: CSR's three arrays plus tile metadata.
    pub fn storage_bytes(&self) -> usize {
        let idx = std::mem::size_of::<u32>();
        (self.row_ptr.len() + self.cols_t.len() + self.tail_cols.len() + self.tile_ptr.len()) * idx
            + (self.vals_t.len() + self.tail_vals.len()) * T::BYTES
            + self.bit_flags.len() * std::mem::size_of::<u64>()
            + (self.starts.len() + self.starts_ptr.len()) * idx
    }

    /// One tile's segmented sums: adds every row sum the tile holds into
    /// `y` and returns the partial of the row open at tile entry.
    fn tile_partials(&self, t: usize, x: &[T], y: &mut [T]) -> T {
        let cfg = self.cfg;
        let tile_nnz = cfg.tile_nnz();
        let base = t * tile_nnz;
        let mut seg_idx = self.starts_ptr[t] as usize;
        let seg_end = self.starts_ptr[t + 1] as usize;
        let mut head = T::ZERO; // sum before the first row start in this tile
        let mut acc = T::ZERO;
        let mut cur_row: Option<usize> = None;
        for lane in 0..cfg.omega {
            let flags = self.bit_flags[t * cfg.omega + lane];
            for s in 0..cfg.sigma {
                if flags & (1u64 << s) != 0 {
                    match cur_row {
                        Some(r) => y[r] += acc,
                        None => head = acc,
                    }
                    acc = T::ZERO;
                    debug_assert!(seg_idx < seg_end);
                    cur_row = Some(self.starts[seg_idx] as usize);
                    seg_idx += 1;
                }
                let pos = base + s * cfg.omega + lane;
                acc += self.vals_t[pos] * x[self.cols_t[pos] as usize];
            }
        }
        // Trailing open segment: flush into its row if the tile contains a
        // row start (later tiles only ever add to rows), otherwise the whole
        // tile is interior to one row and the entire sum carries out through
        // `head`.
        match cur_row {
            Some(r) => {
                y[r] += acc;
                head
            }
            None => head + acc,
        }
    }

    /// Sequential SpMV: `y = A * x` via tile-local segmented sums plus
    /// inter-tile carry calibration, then the CSR-ordered tail.
    ///
    /// # Panics
    /// If `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_cols, "x length must equal n_cols");
        assert_eq!(y.len(), self.n_rows, "y length must equal n_rows");
        y.fill(T::ZERO);
        // The row "open" at the start of tile t is the last row started at or
        // before the tile, i.e. tile_ptr[t] unless no row has started yet.
        for t in 0..self.n_tiles() {
            let head = self.tile_partials(t, x, y);
            // Calibration: the head partial belongs to the row open when the
            // tile began, which is exactly tile_ptr[t] (the row of the tile's
            // first entry: if that entry starts a row, head is zero anyway).
            y[self.tile_ptr[t] as usize] += head;
        }
        for ((&r, &c), &v) in self
            .tail_rows
            .iter()
            .zip(&self.tail_cols)
            .zip(&self.tail_vals)
        {
            y[r as usize] += v * x[c as usize];
        }
    }

    /// Transposed column-index array of the full tiles (step-major layout:
    /// consecutive entries are what one warp-step reads). Exposed for the
    /// GPU memory-coalescing model.
    pub fn tiles_col_view(&self) -> &[u32] {
        &self.cols_t
    }

    /// Column indices of the CSR-ordered tail (same purpose).
    pub fn tail_cols_view(&self) -> &[u32] {
        &self.tail_cols
    }

    /// Convert back to CSR (un-transposing the tiles).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let nnz = self.nnz();
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![T::ZERO; nnz];
        let cfg = self.cfg;
        let tile_nnz = cfg.tile_nnz();
        for t in 0..self.n_tiles() {
            let base = t * tile_nnz;
            for lane in 0..cfg.omega {
                for s in 0..cfg.sigma {
                    let g = base + lane * cfg.sigma + s;
                    let pos = base + s * cfg.omega + lane;
                    cols[g] = self.cols_t[pos];
                    vals[g] = self.vals_t[pos];
                }
            }
        }
        cols[self.tail_start..].copy_from_slice(&self.tail_cols);
        vals[self.tail_start..].copy_from_slice(&self.tail_vals);
        CsrMatrix::from_parts_unchecked(self.n_rows, self.n_cols, self.row_ptr.clone(), cols, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TripletBuilder;

    /// Deterministic pseudo-random CSR matrix (dense enough to fill tiles).
    fn random_csr(n: usize, m: usize, per_row: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, m);
        let mut state = 0x9e3779b97f4a7c15u64;
        for r in 0..n {
            for _ in 0..per_row {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = (state >> 33) as usize % m;
                let v = ((state >> 11) & 0xff) as f64 / 16.0 + 0.5;
                b.push(r, c, v).unwrap();
            }
        }
        b.build().to_csr()
    }

    fn check_against_csr(csr: &CsrMatrix<f64>, cfg: Csr5Config) {
        let c5 = Csr5Matrix::from_csr_with_config(csr, cfg);
        let x: Vec<f64> = (0..csr.n_cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut y0 = vec![0.0; csr.n_rows()];
        let mut y1 = vec![0.0; csr.n_rows()];
        csr.spmv(&x, &mut y0);
        c5.spmv(&x, &mut y1);
        for (r, (a, b)) in y0.iter().zip(&y1).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * a.abs().max(1.0),
                "row {r}: csr={a} csr5={b}"
            );
        }
    }

    #[test]
    fn spmv_matches_csr_across_tilings() {
        let m = random_csr(60, 40, 9);
        for (omega, sigma) in [(4, 3), (8, 4), (32, 16), (2, 1), (1, 5)] {
            check_against_csr(&m, Csr5Config { omega, sigma });
        }
    }

    #[test]
    fn spmv_with_empty_rows_and_skew() {
        // Rows: [dense 20], [], [], [1], [], [7], ...
        let mut b = TripletBuilder::new(12, 30);
        for c in 0..20 {
            b.push(0, c, 1.0 + c as f64).unwrap();
        }
        b.push(3, 5, 2.0).unwrap();
        for c in 10..17 {
            b.push(5, c, 0.5).unwrap();
        }
        b.push(11, 29, -4.0).unwrap();
        let csr = b.build().to_csr();
        for (omega, sigma) in [(4, 2), (3, 3), (32, 16)] {
            check_against_csr(&csr, Csr5Config { omega, sigma });
        }
    }

    #[test]
    fn tiny_matrix_is_all_tail() {
        let csr = random_csr(3, 3, 1);
        let c5 = Csr5Matrix::from_csr_with_config(&csr, Csr5Config::GPU);
        assert_eq!(c5.n_tiles(), 0);
        assert_eq!(c5.tail_len(), csr.nnz());
        check_against_csr(&csr, Csr5Config::GPU);
    }

    #[test]
    fn round_trip_csr() {
        let csr = random_csr(40, 25, 6);
        let c5 = Csr5Matrix::from_csr_with_config(&csr, Csr5Config { omega: 4, sigma: 5 });
        assert_eq!(c5.to_csr(), csr);
    }

    #[test]
    fn tile_ptr_tracks_rows() {
        let csr = random_csr(64, 64, 8);
        let cfg = Csr5Config { omega: 8, sigma: 8 };
        let c5 = Csr5Matrix::from_csr_with_config(&csr, cfg);
        assert_eq!(c5.tile_ptr().len(), c5.n_tiles() + 1);
        // tile_ptr must be non-decreasing.
        assert!(c5.tile_ptr().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn auto_config_clamps_sigma() {
        assert_eq!(Csr5Config::auto(1.0).sigma, 4);
        assert_eq!(Csr5Config::auto(100.0).sigma, 44);
        assert_eq!(Csr5Config::auto(10.0).sigma, 10);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn oversized_sigma_panics() {
        let csr = random_csr(4, 4, 2);
        Csr5Matrix::from_csr_with_config(
            &csr,
            Csr5Config {
                omega: 2,
                sigma: 65,
            },
        );
    }

    #[test]
    fn nnz_and_storage_accounting() {
        let csr = random_csr(50, 50, 7);
        let c5 = Csr5Matrix::from_csr(&csr);
        assert_eq!(c5.nnz(), csr.nnz());
        // CSR5 adds tile metadata on top of CSR's footprint.
        assert!(c5.storage_bytes() >= csr.storage_bytes());
    }

    #[test]
    fn single_long_row_spans_many_tiles() {
        // One row with 200 nnz: every tile interior, carries must chain.
        let mut b = TripletBuilder::new(2, 200);
        for c in 0..200 {
            b.push(0, c, 1.0).unwrap();
        }
        b.push(1, 0, 3.0).unwrap();
        let csr = b.build().to_csr();
        check_against_csr(&csr, Csr5Config { omega: 4, sigma: 4 });
    }
}
