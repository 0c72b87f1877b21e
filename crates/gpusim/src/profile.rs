//! Architecture-independent kernel profiles.
//!
//! Profiling walks the concrete storage structure of a matrix once and
//! distills everything the timing model needs: lane-level work (including
//! divergence and padding waste), per-warp serialization (critical path),
//! exact memory traffic per precision, gather-coalescing transaction counts,
//! and atomic counts. Timing for any `(architecture, precision)` pair is
//! then O(1) — this is what makes sweeping 2300 matrices x 6 formats x 2
//! GPUs x 2 precisions tractable.
//!
//! The per-format cost coefficients (`cost` module) encode the published
//! algorithm structure: COO's segmented reduction, CSR's warp-per-row
//! reduction tax, ELL's padded uniform slots, HYB's two kernels, CSR5's
//! tile metadata and transposed gather, merge-CSR's diagonal binary search.

use spmv_matrix::{Csr5Config, Format, FormatStructure, HybStructure, Scalar, SparseMatrix};

use crate::memory::{count_gather, count_gather_ell, GatherCount, GatherCounter};

/// Per-format cost coefficients, in units of "lane-slots" (one slot ≈ one
/// issued warp-lane operation at the model's IPC efficiency).
pub mod cost {
    /// Slots per non-zero for a plain CSR-style multiply-accumulate
    /// (load col, load val, gather x, FMA).
    pub const MAC: f64 = 1.0;
    /// Extra slots per non-zero for COO's row-index load + segmented scan.
    pub const COO_SEGSCAN: f64 = 1.6;
    /// Per-row lane-slots for CSR vector-kernel setup + warp reduction
    /// (charged to all 32 lanes: log2(32) shuffle rounds plus row bounds).
    pub const CSR_ROW_OVERHEAD: f64 = 40.0;
    /// Per-row slots for the ELL kernel (thread-private, no reduction).
    pub const ELL_ROW_OVERHEAD: f64 = 4.0;
    /// Extra slots per non-zero in CSR5's tile-local segmented sum.
    pub const CSR5_SEGSUM: f64 = 0.35;
    /// Per-tile lane-slots for CSR5 descriptor decode + calibration.
    pub const CSR5_TILE_OVERHEAD: f64 = 96.0;
    /// Extra slots per merge item (nnz or row-end) over a plain MAC.
    pub const MERGE_ITEM: f64 = 0.3;
    /// Merge items consumed per thread (CUB uses ~ 7 items/thread).
    pub const MERGE_ITEMS_PER_THREAD: f64 = 7.0;
    /// Atomic cost amortization: fraction of row-boundary atomics that
    /// actually serialize (same-address collisions).
    pub const ATOMIC_COLLISION: f64 = 0.25;
}

/// Architecture-independent profile of one SpMV kernel invocation.
/// Per-precision quantities are indexed by [`spmv_matrix::Precision::idx`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Which format's kernel this profiles.
    pub format: Format,
    /// Useful floating-point work: `2 * nnz`.
    pub flops: f64,
    /// Total lane-slots issued, including divergence and padding waste.
    pub lane_work: f64,
    /// Serialized issue-steps of the heaviest single warp (0 when the
    /// kernel is balanced by construction).
    pub critical_steps: f64,
    /// Threads the kernel launches (bounds achievable parallelism).
    pub parallel_threads: f64,
    /// Bytes of format data streamed from DRAM, per precision.
    pub matrix_bytes: [f64; 2],
    /// x-gather transactions (distinct-line counts), per precision.
    pub gather_tx: [f64; 2],
    /// Bytes written (y, partials), per precision.
    pub write_bytes: [f64; 2],
    /// Global atomic operations issued.
    pub atomics: f64,
    /// Load-imbalance derate (>= 1): when the work decomposition lets some
    /// warps/blocks idle while stragglers finish, both issue slots and
    /// memory-level parallelism are wasted, so the binding bottleneck time
    /// is multiplied by this factor. 1.0 for balanced kernels.
    pub imbalance: f64,
    /// Kernel launches (HYB needs two).
    pub launches: f64,
    /// Bytes of x touched at least once, per precision.
    pub x_footprint: [f64; 2],
    /// Matrix rows (for reporting).
    pub n_rows: usize,
    /// Matrix columns.
    pub n_cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
}

/// Per-matrix memo shared by the profiles of one matrix's formats: COO and
/// merge-CSR both gather `x` through the *same* row-major `col_idx` stream
/// in the same 32-wide chunking, so their distinct-line count is computed
/// once and reused. One cache is valid for exactly one matrix — callers
/// build a fresh one per matrix (the labeling loop keeps it for the whole
/// format sweep).
#[derive(Debug, Default)]
pub struct ProfileCache {
    flat_gather: Option<GatherCount>,
    hits: u64,
    misses: u64,
}

impl ProfileCache {
    /// An empty cache (nothing measured yet).
    pub fn new() -> ProfileCache {
        ProfileCache::default()
    }

    /// How many gather requests this cache served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// How many gather requests had to run [`count_gather`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The warp-32 gather count over the row-major column stream,
    /// computed on first use.
    fn flat(&mut self, cols: &[u32]) -> GatherCount {
        match self.flat_gather {
            Some(g) => {
                self.hits += 1;
                g
            }
            None => {
                self.misses += 1;
                *self.flat_gather.insert(count_gather(cols, 32, 32))
            }
        }
    }
}

impl KernelProfile {
    /// Profile the kernel for `matrix` in its current format.
    pub fn of<T: Scalar>(matrix: &SparseMatrix<T>) -> KernelProfile {
        match matrix {
            SparseMatrix::Coo(m) => {
                let gather = count_gather(m.col_indices(), 32, 32);
                profile_coo(
                    m.n_rows(),
                    m.n_cols(),
                    m.col_indices(),
                    m.row_indices(),
                    gather,
                )
            }
            SparseMatrix::Csr(m) => profile_csr(m),
            SparseMatrix::Ell(m) => profile_ell(m),
            SparseMatrix::Hyb(m) => profile_hyb(m),
            SparseMatrix::MergeCsr(m) => profile_merge(m.csr()),
            SparseMatrix::Csr5(m) => profile_csr5(m),
        }
    }

    /// Profile the kernel for a value-free structural view
    /// ([`FormatStructure`]). Every arm dispatches into the *same* core as
    /// [`KernelProfile::of`] over the same index layouts — ELL and the HYB
    /// head read their padded plane from the CSR rows, entry for entry —
    /// so the two entry points are equal — not approximately, bit-for-bit
    /// — which is what lets the labeling pipeline profile without
    /// materializing value or padded index planes while keeping its
    /// artifacts byte-identical.
    pub fn of_structure(s: &FormatStructure<'_>) -> KernelProfile {
        KernelProfile::of_structure_cached(s, &mut ProfileCache::new())
    }

    /// [`KernelProfile::of_structure`] with a per-matrix [`ProfileCache`]:
    /// when one matrix is profiled in several formats, the gather count
    /// over the shared row-major column stream is measured once (COO and
    /// merge-CSR chunk it identically). Identical inputs give identical
    /// counts, so the cached path stays bit-equal to the uncached one.
    pub fn of_structure_cached(s: &FormatStructure<'_>, cache: &mut ProfileCache) -> KernelProfile {
        match s {
            FormatStructure::Coo(v) => {
                let gather = cache.flat(v.cols);
                profile_coo(v.n_rows, v.n_cols, v.cols, v.rows, gather)
            }
            FormatStructure::Csr(v) => profile_csr_raw(v.n_rows, v.n_cols, v.row_ptr, v.col_idx),
            FormatStructure::Ell(v) => {
                profile_ell_raw(v.n_rows, v.n_cols, v.nnz, v.width, count_gather_ell(v, 32))
            }
            FormatStructure::Hyb(v) => profile_hyb_structure(v),
            FormatStructure::MergeCsr(v) => {
                let gather = cache.flat(v.col_idx);
                profile_merge_raw(v.n_rows, v.n_cols, v.col_idx, gather)
            }
            FormatStructure::Csr5(v) => profile_csr5_raw(
                v.n_rows,
                v.n_cols,
                v.nnz,
                v.config,
                v.n_tiles,
                v.cols_t,
                v.tail_cols,
            ),
        }
    }

    fn x_footprint_bytes(n_cols: usize, cols_touched: usize) -> [f64; 2] {
        // Gather footprint: distinct columns actually touched, but at line
        // granularity the whole span is a good first-order stand-in; we use
        // touched-column count (exact distinct count is another O(nnz) pass;
        // the span bound is what capacity misses respond to).
        let cols = cols_touched.min(n_cols) as f64;
        [cols * 4.0, cols * 8.0]
    }
}

/// `len` rounded up to whole 32-wide warp steps. Integer arithmetic gives
/// the exact value `(len / 32).ceil() * 32` does in `f64`, without a
/// `ceil` call per row.
fn warp_ceil(len: usize) -> f64 {
    len.next_multiple_of(32) as f64
}

/// Ablation model: the **scalar** CSR kernel (one *thread* per row, paper
/// §II-A2's first variant). Column/value accesses are uncoalesced — each
/// lane walks its own row — and a warp retires only when its longest row
/// does, so divergence waste is `32 * max(len in warp)` lane-slots per
/// warp. Compare with [`KernelProfile::of`]'s warp-per-row vector kernel.
pub fn profile_csr_scalar<T: Scalar>(m: &spmv_matrix::CsrMatrix<T>) -> KernelProfile {
    let (n_rows, n_cols) = m.shape();
    let nnz = m.nnz();
    let mut lane_work = 0.0;
    let mut max_row = 0usize;
    let mut group_max = 0usize;
    // Uncoalesced row walks: each element's column/value load is its own
    // 32 B sector (lanes stride by their row pitch).
    let stream = [nnz as f64 * 64.0, nnz as f64 * 64.0];
    for r in 0..n_rows {
        let len = m.row_len(r);
        max_row = max_row.max(len);
        group_max = group_max.max(len);
        if (r + 1) % 32 == 0 || r + 1 == n_rows {
            lane_work += 32.0 * group_max as f64 * cost::MAC + 32.0 * 2.0;
            group_max = 0;
        }
    }
    // Gather: each lane reads a different row's column — effectively one
    // transaction per non-zero.
    KernelProfile {
        format: Format::Csr,
        flops: 2.0 * nnz as f64,
        lane_work,
        critical_steps: max_row as f64,
        parallel_threads: n_rows as f64,
        matrix_bytes: [
            (n_rows + 1) as f64 * 4.0 + stream[0],
            (n_rows + 1) as f64 * 4.0 + stream[1],
        ],
        gather_tx: [nnz as f64, nnz as f64],
        write_bytes: [n_rows as f64 * 4.0, n_rows as f64 * 8.0],
        atomics: 0.0,
        imbalance: 1.0, // divergence is already in lane_work
        launches: 1.0,
        x_footprint: KernelProfile::x_footprint_bytes(n_cols, nnz),
        n_rows,
        n_cols,
        nnz,
    }
}

/// Extension model: the DIA kernel (thread per row, diagonals streamed).
/// Matrix traffic is values-only (no per-element indices exist), and the
/// `x` gather at diagonal `d` reads `x[r + off_d]` — consecutive across
/// consecutive rows, i.e. perfectly coalesced. The cost of DIA is entirely
/// its fill: absent diagonal slots still stream.
pub fn profile_dia<T: Scalar>(m: &spmv_matrix::DiaMatrix<T>) -> KernelProfile {
    let (n_rows, n_cols) = m.shape();
    let nnz = m.nnz();
    let slots = m.slots() as f64;
    let n_diags = m.offsets().len() as f64;
    // Coalesced gather: one warp-step of 32 rows touches 4 (f32) or 8
    // (f64) lines of x per diagonal.
    let accesses = (n_rows as f64 / 32.0).ceil() * n_diags;
    KernelProfile {
        format: Format::Csr, // reported under the CSR slot; DIA is an
        // extension outside the paper's six-class universe.
        flops: 2.0 * nnz as f64,
        lane_work: slots * cost::MAC + n_rows as f64 * cost::ELL_ROW_OVERHEAD,
        critical_steps: n_diags + 4.0,
        parallel_threads: n_rows as f64,
        matrix_bytes: [slots * 4.0 + n_diags * 8.0, slots * 8.0 + n_diags * 8.0],
        gather_tx: [accesses * 4.0, accesses * 8.0],
        write_bytes: [n_rows as f64 * 4.0, n_rows as f64 * 8.0],
        atomics: 0.0,
        imbalance: 1.0,
        launches: 1.0,
        x_footprint: KernelProfile::x_footprint_bytes(n_cols, nnz),
        n_rows,
        n_cols,
        nnz,
    }
}

/// COO kernel (Bell & Garland): one lane per non-zero, warp-level segmented
/// reduction, atomic combine at row boundaries. `gather` is the warp-32
/// distinct-line count over `cols`, passed in so callers profiling several
/// formats of one matrix can share it (see [`ProfileCache`]).
fn profile_coo(
    n_rows: usize,
    n_cols: usize,
    cols: &[u32],
    rows: &[u32],
    gather: GatherCount,
) -> KernelProfile {
    let nnz = cols.len();
    // Row boundaries crossing warps force atomics; boundaries within warps
    // resolve in the segmented scan. Count warp-crossing boundaries exactly.
    let mut warp_cross = 0.0;
    for w in (32..nnz).step_by(32) {
        if rows[w] == rows[w - 1] {
            warp_cross += 1.0;
        }
    }
    // One atomic per row per warp that ends a segment: ~ rows + crossings.
    let atomics = n_rows.min(nnz) as f64 + warp_cross;
    KernelProfile {
        format: Format::Coo,
        flops: 2.0 * nnz as f64,
        lane_work: nnz as f64 * (cost::MAC + cost::COO_SEGSCAN),
        critical_steps: 0.0,
        parallel_threads: nnz as f64,
        matrix_bytes: [nnz as f64 * (8.0 + 4.0), nnz as f64 * (8.0 + 8.0)],
        gather_tx: [gather.tx_single, gather.tx_double],
        // Atomic partials read-modify-write y.
        write_bytes: [atomics * 8.0, atomics * 16.0],
        atomics,
        imbalance: 1.0,
        // Flat COO kernel + the final carry-reduction kernel.
        launches: 2.0,
        x_footprint: KernelProfile::x_footprint_bytes(n_cols, nnz),
        n_rows,
        n_cols,
        nnz,
    }
}

/// CSR vector kernel: one warp per row, coalesced row segments, warp-shuffle
/// reduction. Short rows waste lanes; one huge row serializes a single warp.
fn profile_csr<T: Scalar>(m: &spmv_matrix::CsrMatrix<T>) -> KernelProfile {
    let (n_rows, n_cols) = m.shape();
    profile_csr_raw(n_rows, n_cols, m.row_ptr(), m.col_idx())
}

/// Raw-slice core of the CSR vector-kernel profile (shared by the
/// value-carrying and structural entry points).
fn profile_csr_raw(
    n_rows: usize,
    n_cols: usize,
    row_ptr: &[u32],
    col_idx: &[u32],
) -> KernelProfile {
    let nnz = col_idx.len();
    let mut lane_work = 0.0;
    // One warp per row: each row's stream is chunked on its own.
    let mut gather = GatherCounter::new(32);
    let mut max_row = 0usize;
    // Per-row accesses fetch whole sectors: a 2-element row still moves a
    // full 32 B transaction for its columns and another for its values.
    // This granularity waste — absent in the contiguous-streaming formats
    // (COO, merge, CSR5) — is why warp-per-row CSR loses on matrices
    // dominated by short rows.
    const SECTOR: usize = 32;
    let sectors = |bytes: usize| bytes.next_multiple_of(SECTOR) as f64;
    let mut stream = [0.0f64; 2];
    // Block-level straggling: one thread block holds WARPS_PER_BLOCK rows;
    // the block's resources are freed only when its longest row finishes,
    // so skewed row lengths idle lanes *and* the memory pipelines those
    // lanes would keep busy. The ratio of straggler-dominated work to
    // actual work derates the whole kernel (capped — waves still overlap).
    const WARPS_PER_BLOCK: usize = 8;
    let mut block_max_work = 0.0;
    let mut block_work = 0.0;
    let mut group_max = 0.0f64;
    for (r, w) in row_ptr.windows(2).enumerate() {
        let cols = &col_idx[w[0] as usize..w[1] as usize];
        let l = cols.len();
        let row_steps = warp_ceil(cols.len());
        lane_work += row_steps * cost::MAC + cost::CSR_ROW_OVERHEAD;
        block_work += row_steps;
        group_max = group_max.max(row_steps);
        if (r + 1) % WARPS_PER_BLOCK == 0 || r + 1 == n_rows {
            block_max_work += group_max * WARPS_PER_BLOCK as f64;
            group_max = 0.0;
        }
        gather.stream(cols, 32);
        max_row = max_row.max(cols.len());
        if !cols.is_empty() {
            stream[0] += sectors(l * 4) * 2.0; // u32 cols + f32 vals
            stream[1] += sectors(l * 4) + sectors(l * 8);
        }
    }
    let csr_imbalance = if block_work > 0.0 {
        // Warp-per-row CSR degrades by an order of magnitude on power-law
        // structures (the motivating observation behind merge-based CSR).
        (block_max_work / block_work).clamp(1.0, 16.0)
    } else {
        1.0
    };
    let gather = gather.finish();
    KernelProfile {
        format: Format::Csr,
        flops: 2.0 * nnz as f64,
        lane_work,
        // Heaviest warp: its row's 32-wide sweeps plus the reduction.
        critical_steps: (max_row as f64 / 32.0).ceil() + 8.0,
        parallel_threads: (n_rows * 32) as f64,
        matrix_bytes: [
            (n_rows + 1) as f64 * 4.0 + stream[0],
            (n_rows + 1) as f64 * 4.0 + stream[1],
        ],
        gather_tx: [gather.tx_single, gather.tx_double],
        write_bytes: [n_rows as f64 * 4.0, n_rows as f64 * 8.0],
        atomics: 0.0,
        imbalance: csr_imbalance,
        launches: 1.0,
        x_footprint: KernelProfile::x_footprint_bytes(n_cols, nnz),
        n_rows,
        n_cols,
        nnz,
    }
}

/// ELL kernel: one thread per row, `width` uniform slots, column-major
/// (fully coalesced) matrix access. Padding costs both lanes and bytes.
fn profile_ell<T: Scalar>(m: &spmv_matrix::EllMatrix<T>) -> KernelProfile {
    let (n_rows, n_cols) = m.shape();
    // Warp-step gather: at slot k, 32 consecutive rows read their k-th
    // column — exactly consecutive entries of the column-major plane.
    let gather = count_gather(m.col_plane(), 32, 32);
    profile_ell_raw(n_rows, n_cols, m.nnz(), m.width(), gather)
}

/// Core of the ELL profile, shared by the stored plane and the
/// structural view. `gather` is the warp-32 count over the column-major
/// padded plane (`n_rows * width` slots).
fn profile_ell_raw(
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    width: usize,
    gather: GatherCount,
) -> KernelProfile {
    let padded = (n_rows * width) as f64;
    KernelProfile {
        format: Format::Ell,
        flops: 2.0 * nnz as f64,
        lane_work: padded * cost::MAC + n_rows as f64 * cost::ELL_ROW_OVERHEAD,
        critical_steps: width as f64 + 4.0,
        parallel_threads: n_rows as f64,
        matrix_bytes: [padded * (4.0 + 4.0), padded * (4.0 + 8.0)],
        gather_tx: [gather.tx_single, gather.tx_double],
        write_bytes: [n_rows as f64 * 4.0, n_rows as f64 * 8.0],
        atomics: 0.0,
        imbalance: 1.0, // padding makes every row identical
        launches: 1.0,
        // Padding gathers hit x[0] repeatedly — footprint unchanged.
        x_footprint: KernelProfile::x_footprint_bytes(n_cols, nnz),
        n_rows,
        n_cols,
        nnz,
    }
}

/// HYB: the ELL kernel on the regular head plus the COO kernel on the
/// spill, two launches.
fn profile_hyb<T: Scalar>(m: &spmv_matrix::HybMatrix<T>) -> KernelProfile {
    let ell = profile_ell(m.ell_part());
    if m.coo_part().nnz() == 0 {
        return hyb_without_tail(ell);
    }
    let tail_gather = count_gather(m.coo_part().col_indices(), 32, 32);
    let coo = profile_coo(
        m.coo_part().n_rows(),
        m.coo_part().n_cols(),
        m.coo_part().col_indices(),
        m.coo_part().row_indices(),
        tail_gather,
    );
    hyb_with_tail(ell, coo, m.n_rows(), m.n_cols(), m.nnz())
}

/// Structural-view twin of [`profile_hyb`]: same head/tail dispatch, the
/// head counted from its plane view, the tail over the derived streams.
fn profile_hyb_structure(v: &HybStructure<'_>) -> KernelProfile {
    let ell = profile_ell_raw(
        v.ell.n_rows,
        v.ell.n_cols,
        v.ell.nnz,
        v.ell.width,
        count_gather_ell(&v.ell, 32),
    );
    if v.tail.cols.is_empty() {
        return hyb_without_tail(ell);
    }
    let tail_gather = count_gather(v.tail.cols, 32, 32);
    let coo = profile_coo(
        v.tail.n_rows,
        v.tail.n_cols,
        v.tail.cols,
        v.tail.rows,
        tail_gather,
    );
    hyb_with_tail(ell, coo, v.ell.n_rows, v.ell.n_cols, v.nnz)
}

/// An empty COO tail skips the COO kernels; HYB then behaves like ELL
/// plus the hybrid dispatch logic (tail check, two-structure indexing),
/// which keeps it measurably — if slightly — behind plain ELL.
fn hyb_without_tail(ell: KernelProfile) -> KernelProfile {
    KernelProfile {
        format: Format::Hyb,
        lane_work: ell.lane_work * 1.05,
        launches: ell.launches + 0.15,
        ..ell
    }
}

/// Combine the head and tail kernel profiles into the two-launch HYB total.
fn hyb_with_tail(
    ell: KernelProfile,
    coo: KernelProfile,
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
) -> KernelProfile {
    let add2 = |a: [f64; 2], b: [f64; 2]| [a[0] + b[0], a[1] + b[1]];
    KernelProfile {
        format: Format::Hyb,
        flops: 2.0 * nnz as f64,
        lane_work: ell.lane_work + coo.lane_work,
        critical_steps: ell.critical_steps, // COO part is balanced
        parallel_threads: ell.parallel_threads.max(coo.parallel_threads),
        matrix_bytes: add2(ell.matrix_bytes, coo.matrix_bytes),
        gather_tx: add2(ell.gather_tx, coo.gather_tx),
        write_bytes: add2(ell.write_bytes, coo.write_bytes),
        atomics: coo.atomics,
        imbalance: 1.0,
        // ELL pass plus the COO tail pass (its carry reduction is tiny and
        // overlaps the tail kernel's drain).
        launches: 2.2,
        x_footprint: ell.x_footprint, // same x both passes
        n_rows,
        n_cols,
        nnz,
    }
}

/// Merge-based CSR: perfectly balanced merge segments; every thread runs a
/// two-dimensional binary search over the diagonals first.
fn profile_merge<T: Scalar>(m: &spmv_matrix::CsrMatrix<T>) -> KernelProfile {
    let (n_rows, n_cols) = m.shape();
    let gather = count_gather(m.col_idx(), 32, 32);
    profile_merge_raw(n_rows, n_cols, m.col_idx(), gather)
}

/// Raw-slice core of the merge-based CSR profile. `gather` is the warp-32
/// count over `col_idx` — the same stream COO chunks identically, which is
/// what [`ProfileCache`] exploits.
fn profile_merge_raw(
    n_rows: usize,
    n_cols: usize,
    col_idx: &[u32],
    gather: GatherCount,
) -> KernelProfile {
    let nnz = col_idx.len();
    let items = (n_rows + nnz) as f64;
    let threads = (items / cost::MERGE_ITEMS_PER_THREAD).ceil().max(1.0);
    let search = items.max(2.0).log2() * 4.0; // slots per diagonal search
    KernelProfile {
        format: Format::MergeCsr,
        flops: 2.0 * nnz as f64,
        lane_work: items * (cost::MAC + cost::MERGE_ITEM) + threads * search,
        critical_steps: 0.0,
        parallel_threads: threads,
        matrix_bytes: [
            // row_ptr read twice: once by searches, once by the merge loop.
            2.0 * (n_rows + 1) as f64 * 4.0 + nnz as f64 * (4.0 + 4.0),
            2.0 * (n_rows + 1) as f64 * 4.0 + nnz as f64 * (4.0 + 8.0),
        ],
        gather_tx: [gather.tx_single, gather.tx_double],
        write_bytes: [
            n_rows as f64 * 4.0 + threads * 8.0, // y + carry records
            n_rows as f64 * 8.0 + threads * 16.0,
        ],
        atomics: 0.0,
        imbalance: 1.0,
        // Merge-path search is fused into the SpMV kernel in modern
        // implementations (cuSPARSE csrmv_mp); small dispatch surcharge.
        launches: 1.2,
        x_footprint: KernelProfile::x_footprint_bytes(n_cols, nnz),
        n_rows,
        n_cols,
        nnz,
    }
}

/// CSR5: nnz-balanced transposed tiles, tile-local segmented sums, small
/// per-tile descriptor decode, calibration pass.
fn profile_csr5<T: Scalar>(m: &spmv_matrix::Csr5Matrix<T>) -> KernelProfile {
    let (n_rows, n_cols) = m.shape();
    profile_csr5_raw(
        n_rows,
        n_cols,
        m.nnz(),
        m.config(),
        m.n_tiles(),
        m.tiles_col_view(),
        m.tail_cols_view(),
    )
}

/// Raw-slice core of the CSR5 profile. `cols_t` is the step-major
/// transposed full-tile column plane; `tail_cols` the CSR-ordered tail.
fn profile_csr5_raw(
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    cfg: Csr5Config,
    n_tiles: usize,
    cols_t: &[u32],
    tail_cols: &[u32],
) -> KernelProfile {
    let n_tiles = n_tiles as f64;
    // Transposed gather: warp-steps read omega entries at stride sigma —
    // the stored layout is already step-major, so consecutive chunks of the
    // transposed column array are exactly the warp accesses.
    let gather_full = count_gather(cols_t, cfg.omega.clamp(1, 64), 32);
    let gather_tail = count_gather(tail_cols, 32, 32);
    let tile_meta_bytes = n_tiles * (4.0 + cfg.omega as f64 * 8.0 / 4.0 + 16.0);
    KernelProfile {
        format: Format::Csr5,
        flops: 2.0 * nnz as f64,
        lane_work: nnz as f64 * (cost::MAC + cost::CSR5_SEGSUM)
            + n_tiles * cost::CSR5_TILE_OVERHEAD,
        critical_steps: 0.0,
        parallel_threads: (n_tiles * cfg.omega as f64).max(32.0),
        matrix_bytes: [
            (n_rows + 1) as f64 * 4.0 + nnz as f64 * (4.0 + 4.0) + tile_meta_bytes,
            (n_rows + 1) as f64 * 4.0 + nnz as f64 * (4.0 + 8.0) + tile_meta_bytes,
        ],
        gather_tx: [
            gather_full.tx_single + gather_tail.tx_single,
            gather_full.tx_double + gather_tail.tx_double,
        ],
        write_bytes: [
            n_rows as f64 * 4.0 + n_tiles * 8.0,
            n_rows as f64 * 8.0 + n_tiles * 16.0,
        ],
        atomics: n_tiles, // calibration adds per-tile carries
        imbalance: 1.0,
        // Tile kernel plus the (tiny, often overlapped) calibration pass.
        launches: 1.2,
        x_footprint: KernelProfile::x_footprint_bytes(n_cols, nnz),
        n_rows,
        n_cols,
        nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_matrix::{CsrMatrix, TripletBuilder};

    fn banded(n: usize, w: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, n);
        for r in 0..n {
            for c in r.saturating_sub(w)..(r + w + 1).min(n) {
                b.push_unchecked(r as u32, c as u32, 1.0);
            }
        }
        b.build().to_csr()
    }

    /// One heavy row of `heavy` entries over rows of 3 entries — skewed but
    /// still within the ELL conversion cap.
    fn skewed(n: usize, heavy: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, n);
        for c in 0..heavy.min(n) {
            b.push_unchecked(0, c as u32, 1.0);
        }
        for r in 1..n {
            for k in 0..3 {
                b.push_unchecked(r as u32, ((r * 7 + k * 11) % n) as u32, 1.0);
            }
        }
        b.build().to_csr()
    }

    fn profile(csr: &CsrMatrix<f64>, f: Format) -> KernelProfile {
        KernelProfile::of(&SparseMatrix::from_csr(csr, f).unwrap())
    }

    #[test]
    fn flops_are_2nnz_for_every_format() {
        let m = banded(200, 3);
        for f in Format::ALL {
            let p = profile(&m, f);
            assert_eq!(p.flops, 2.0 * m.nnz() as f64, "{f}");
            assert_eq!(p.nnz, m.nnz());
        }
    }

    #[test]
    fn ell_pays_for_padding_on_skewed_matrices() {
        let reg = banded(400, 2);
        let skew = skewed(400, 60);
        let p_reg = profile(&reg, Format::Ell);
        let p_skew = profile(&skew, Format::Ell);
        // Similar nnz, wildly different ELL lane work.
        assert!(
            p_skew.lane_work > 10.0 * p_skew.nnz as f64,
            "padding waste missing: {}",
            p_skew.lane_work
        );
        assert!(p_reg.lane_work < 4.0 * p_reg.nnz as f64);
    }

    #[test]
    fn csr_critical_path_tracks_longest_row() {
        let skew = skewed(400, 320);
        let p = profile(&skew, Format::Csr);
        assert!(p.critical_steps >= (320.0f64 / 32.0).ceil());
        let merge = profile(&skew, Format::MergeCsr);
        assert_eq!(merge.critical_steps, 0.0, "merge is balanced");
        let c5 = profile(&skew, Format::Csr5);
        assert_eq!(c5.critical_steps, 0.0, "csr5 is balanced");
    }

    #[test]
    fn coo_atomics_scale_with_rows() {
        let m = banded(500, 1);
        let p = profile(&m, Format::Coo);
        assert!(p.atomics >= 500.0);
        assert!(p.atomics <= m.nnz() as f64 + 500.0);
    }

    #[test]
    fn banded_ell_gather_is_coalesced() {
        // Adjacent rows of a banded matrix read adjacent columns at each
        // slot: transactions per access should be near the coalesced ideal.
        let m = banded(512, 4);
        let p = profile(&m, Format::Ell);
        let per_access = p.gather_tx[0] / ((m.max_row_len() * 512) as f64 / 32.0);
        assert!(
            per_access < 6.0,
            "banded ELL gather too scattered: {per_access}"
        );
    }

    #[test]
    fn uniform_random_gather_is_scattered() {
        let mut b = TripletBuilder::new(256, 4096);
        let mut s = 1u64;
        for r in 0..256u32 {
            for _ in 0..8 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                b.push_unchecked(r, (s >> 40) as u32 % 4096, 1.0);
            }
        }
        let m = b.build().to_csr();
        let p = profile(&m, Format::Csr);
        // Nearly every lane touches its own line.
        assert!(p.gather_tx[1] > 0.7 * m.nnz() as f64);
    }

    #[test]
    fn hyb_costs_two_launches_and_splits_work() {
        let m = skewed(300, 50);
        let p = profile(&m, Format::Hyb);
        assert!(
            p.launches > 2.0,
            "HYB pays for its extra pass: {}",
            p.launches
        );
        let ell = profile(&m, Format::Ell);
        assert!(p.lane_work < ell.lane_work, "HYB must avoid ELL's padding");
    }

    #[test]
    fn double_precision_traffic_exceeds_single() {
        let m = banded(100, 3);
        for f in Format::ALL {
            let p = profile(&m, f);
            assert!(p.matrix_bytes[1] > p.matrix_bytes[0], "{f}");
            assert!(p.gather_tx[1] >= p.gather_tx[0], "{f}");
            assert!(p.x_footprint[1] > p.x_footprint[0], "{f}");
        }
    }

    #[test]
    fn scalar_csr_is_dominated_by_vector_csr_on_skew() {
        let skew = skewed(400, 60);
        let scalar = profile_csr_scalar(&skew);
        let vector = profile(&skew, Format::Csr);
        // The scalar kernel's sin is memory: uncoalesced row walks move a
        // whole sector per element and gather one transaction per non-zero.
        assert!(scalar.matrix_bytes[1] > vector.matrix_bytes[1]);
        assert!(scalar.gather_tx[0] >= vector.gather_tx[0]);
        // One thread's 60-long row serializes 60 steps (vector: 60/32 + 8).
        assert_eq!(scalar.critical_steps, 60.0);
        assert!(scalar.critical_steps > vector.critical_steps);
    }

    #[test]
    fn structural_profile_equals_value_carrying_profile_exactly() {
        use spmv_matrix::{RowStats, StructureScratch};
        // The hard invariant of the value-free path: for every format and
        // matrix shape (banded, skewed, diagonal — incl. an empty HYB
        // tail), `of_structure` over a derived view is bit-identical to
        // `of` over the full value-carrying conversion.
        let mats = vec![banded(200, 3), skewed(400, 60), banded(1000, 0)];
        let mut scratch = StructureScratch::new();
        for m in &mats {
            let stats = RowStats::of(m.row_ptr());
            for f in Format::ALL {
                let dense = SparseMatrix::from_csr(m, f).unwrap();
                let via_structure = KernelProfile::of_structure(
                    &spmv_matrix::FormatStructure::build(m, f, &stats, &mut scratch).unwrap(),
                );
                assert_eq!(KernelProfile::of(&dense), via_structure, "{f}");
            }
        }
    }

    #[test]
    fn merge_lane_work_scales_with_items() {
        let m = banded(1000, 0); // diagonal: rows == nnz
        let p = profile(&m, Format::MergeCsr);
        assert!(p.lane_work >= (m.nnz() + 1000) as f64);
        assert!(p.parallel_threads > 1.0);
    }
}
