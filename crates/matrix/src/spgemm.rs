//! Symbolic SpGEMM analysis: output-structure estimation for `C = A·B`
//! without computing a single value.
//!
//! SpGEMM cost is governed by the *output* structure — how many partial
//! products each output row accumulates (its flop count) and how far they
//! compress into distinct columns (`nnz(C)`). Neither is visible in `A`'s
//! row statistics alone, so dataflow selection needs its own symbolic
//! pass: an exact per-row flop/upper-bound sweep plus a seeded, sampled
//! *exact* count of distinct output columns on a fixed subset of rows.
//!
//! The pass runs over the value-free [`CsrStructure`] view and writes all
//! derived state (the transpose layout for `A·Aᵀ`, the distinct-column
//! marker) into [`StructureScratch`], so a labeling sweep reuses one
//! scratch per worker and amortizes to zero steady-state allocations —
//! the same guarantee the format-structure builders carry, pinned by the
//! same counting-allocator test.
//!
//! Everything here is a pure sequential function of `(A, operand, seed)`:
//! the sampled rows are chosen by a splitmix64 stream of the seed, never
//! by schedule, so the summary is bit-identical at any thread count.

use crate::structure::{CsrStructure, StructureScratch};

/// Rows the sampled exact-nnz pass visits. Matrices with at most this
/// many rows are swept exhaustively (the "estimate" is then exact — the
/// invariant the property tests pin); larger matrices get this many
/// seeded draws (duplicates allowed; each draw recounts independently).
pub const SPGEMM_SAMPLE_CAP: usize = 64;

/// Which product the symbolic pass analyzes. Both operands reuse `A`'s
/// own structure as `B`, so no second matrix is ever materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpgemmOperand {
    /// `C = A·A` — row `i` of `C` merges row `k` of `A` for every stored
    /// column `k < n_rows(A)` of row `i` (columns beyond the row count
    /// index empty rows of `B` and contribute nothing).
    AA,
    /// `C = A·Aᵀ` — row `i` of `C` merges *transpose* row `k` of `A` for
    /// every stored column `k` of row `i`; the transpose layout is built
    /// by counting sort into the scratch.
    AAt,
}

impl SpgemmOperand {
    /// Both operands, `AA` first.
    pub const ALL: [SpgemmOperand; 2] = [SpgemmOperand::AA, SpgemmOperand::AAt];

    /// Short stable label (`"aa"` / `"aat"`), used in cache tags.
    pub fn label(self) -> &'static str {
        match self {
            SpgemmOperand::AA => "aa",
            SpgemmOperand::AAt => "aat",
        }
    }
}

/// Summary of the symbolic pass: exact flop/upper-bound aggregates over
/// every output row, plus the sampled exact distinct-column counts. Only
/// summary statistics are kept — no per-row vectors — so the result is
/// `Copy`-cheap and the pass stays allocation-free when warm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpgemmSymbolic {
    /// Output rows (`n_rows(A)`).
    pub n_rows: usize,
    /// Output columns: `n_cols(A)` for `A·A`, `n_rows(A)` for `A·Aᵀ`.
    pub n_cols_out: usize,
    /// Exact total multiply-add pairs: `Σ_i Σ_{k∈cols(A_i)} len(B_k)`.
    pub flops_total: f64,
    /// Mean multiply-add pairs per output row (0 for an empty matrix).
    pub flops_mean: f64,
    /// Population standard deviation of the per-row flop counts.
    pub flops_sigma: f64,
    /// Heaviest output row's flop count.
    pub flops_max: f64,
    /// Exact upper bound on `nnz(C)`: `Σ_i min(n_cols_out, flops_i)`.
    pub ub_total: f64,
    /// Rows the sampled pass visited (`min(n_rows, SPGEMM_SAMPLE_CAP)`
    /// distinct rows when exhaustive, `SPGEMM_SAMPLE_CAP` draws otherwise).
    pub sample_rows: usize,
    /// Total flops of the sampled rows.
    pub sample_flops: f64,
    /// Exact `nnz(C_i)` summed over the sampled rows (distinct columns,
    /// counted with the epoch-stamped marker).
    pub sample_nnz: f64,
    /// Upper-bound total of the sampled rows.
    pub sample_ub: f64,
}

/// splitmix64: the seeded row-draw stream of the sampled pass.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SpgemmSymbolic {
    /// Run the symbolic pass for `C = A·B` with `B` chosen by `operand`.
    ///
    /// Two sweeps: (1) an exact pass accumulating per-row flop counts and
    /// output-row nnz upper bounds into summary aggregates; (2) a seeded
    /// sampled pass that counts each sampled row's *exact* distinct output
    /// columns via an epoch-stamped marker (one `u32` per output column,
    /// zero-filled once per analysis, stamped with `sample_index + 1` so
    /// duplicate draws recount cleanly). All buffers live in `scratch`.
    pub fn analyze(
        a: CsrStructure<'_>,
        operand: SpgemmOperand,
        seed: u64,
        scratch: &mut StructureScratch,
    ) -> SpgemmSymbolic {
        let n_rows = a.n_rows;
        let n_cols_out = match operand {
            SpgemmOperand::AA => a.n_cols,
            SpgemmOperand::AAt => a.n_rows,
        };
        if operand == SpgemmOperand::AAt {
            build_transpose(a, &mut scratch.t_row_ptr, &mut scratch.t_col_idx);
        }
        // The length of B's row k, and the slice of its columns. For AA,
        // B is A itself (columns past the row count index empty rows);
        // for AAt it is the counting-sorted transpose in the scratch.
        let b_row_len = |k: u32| -> u64 {
            match operand {
                SpgemmOperand::AA => {
                    let k = k as usize;
                    if k < n_rows {
                        (a.row_ptr[k + 1] - a.row_ptr[k]) as u64
                    } else {
                        0
                    }
                }
                SpgemmOperand::AAt => {
                    let k = k as usize;
                    (scratch.t_row_ptr[k + 1] - scratch.t_row_ptr[k]) as u64
                }
            }
        };

        // Pass 1 — exact flop counts and nnz upper bounds, every row.
        let mut flops_total = 0.0f64;
        let mut flops_sq = 0.0f64;
        let mut flops_max = 0.0f64;
        let mut ub_total = 0.0f64;
        for w in a.row_ptr.windows(2) {
            let mut row_flops = 0u64;
            for &k in &a.col_idx[w[0] as usize..w[1] as usize] {
                row_flops += b_row_len(k);
            }
            let f = row_flops as f64;
            flops_total += f;
            flops_sq += f * f;
            flops_max = flops_max.max(f);
            ub_total += f.min(n_cols_out as f64);
        }
        let rows_f = n_rows.max(1) as f64;
        let flops_mean = flops_total / rows_f;
        let flops_sigma = (flops_sq / rows_f - flops_mean * flops_mean)
            .max(0.0)
            .sqrt();

        // Pass 2 — sampled exact distinct-column counts. The marker is
        // zero-filled once per analysis; each sampled row stamps with its
        // own epoch, so duplicates and reuse across analyses are clean.
        scratch.marker.clear();
        scratch.marker.resize(n_cols_out, 0);
        let sample_rows = n_rows.min(SPGEMM_SAMPLE_CAP);
        let mut sample_flops = 0.0f64;
        let mut sample_nnz = 0.0f64;
        let mut sample_ub = 0.0f64;
        for j in 0..sample_rows {
            let row = if n_rows <= SPGEMM_SAMPLE_CAP {
                j
            } else {
                // Element j of the splitmix64 stream seeded at `seed`:
                // nearby seeds give unrelated draw sequences.
                let stream = seed.wrapping_add((j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                (splitmix64(stream) % n_rows as u64) as usize
            };
            let stamp = j as u32 + 1;
            let mut row_flops = 0u64;
            let mut distinct = 0u64;
            for &k in &a.col_idx[a.row_ptr[row] as usize..a.row_ptr[row + 1] as usize] {
                row_flops += b_row_len(k);
                let b_cols = match operand {
                    SpgemmOperand::AA => {
                        let k = k as usize;
                        if k < n_rows {
                            &a.col_idx[a.row_ptr[k] as usize..a.row_ptr[k + 1] as usize]
                        } else {
                            &[][..]
                        }
                    }
                    SpgemmOperand::AAt => {
                        let k = k as usize;
                        &scratch.t_col_idx
                            [scratch.t_row_ptr[k] as usize..scratch.t_row_ptr[k + 1] as usize]
                    }
                };
                for &c in b_cols {
                    let slot = &mut scratch.marker[c as usize];
                    if *slot != stamp {
                        *slot = stamp;
                        distinct += 1;
                    }
                }
            }
            let f = row_flops as f64;
            sample_flops += f;
            sample_nnz += distinct as f64;
            sample_ub += f.min(n_cols_out as f64);
        }

        SpgemmSymbolic {
            n_rows,
            n_cols_out,
            flops_total,
            flops_mean,
            flops_sigma,
            flops_max,
            ub_total,
            sample_rows,
            sample_flops,
            sample_nnz,
            sample_ub,
        }
    }

    /// Estimated compression ratio `flops / nnz(C)` from the sampled rows
    /// — how many partial products merge into each stored output entry.
    /// Floored at 1 (a product can never store more than it computes).
    pub fn compression(&self) -> f64 {
        if self.sample_nnz > 0.0 {
            (self.sample_flops / self.sample_nnz).max(1.0)
        } else {
            1.0
        }
    }

    /// How tight the upper bound is on the sampled rows:
    /// `nnz / ub ∈ [0, 1]`, 1 when no partial products ever collide
    /// (or when the sample is empty — a trivially tight bound).
    pub fn tightness(&self) -> f64 {
        if self.sample_ub > 0.0 {
            (self.sample_nnz / self.sample_ub).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Ratio-estimated `nnz(C)`: scale the exact total flop count by the
    /// sampled nnz-per-flop rate, clamped into `[0, ub_total]` (the exact
    /// bound always wins). Exact whenever the sample was exhaustive.
    pub fn est_nnz(&self) -> f64 {
        if self.sample_flops > 0.0 {
            (self.flops_total * self.sample_nnz / self.sample_flops).clamp(0.0, self.ub_total)
        } else if self.flops_total > 0.0 {
            self.ub_total
        } else {
            0.0
        }
    }
}

/// Counting-sort transpose of `a`'s structure into `(t_row_ptr,
/// t_col_idx)`: `t_row_ptr` has `n_cols + 1` entries; transpose row `c`
/// lists the original row index of every stored entry in column `c`, in
/// row order. Both buffers are scratch-resized, never reallocated warm.
fn build_transpose(a: CsrStructure<'_>, t_row_ptr: &mut Vec<u32>, t_col_idx: &mut Vec<u32>) {
    let nnz = a.col_idx.len();
    t_row_ptr.clear();
    t_row_ptr.resize(a.n_cols + 1, 0);
    for &c in a.col_idx {
        t_row_ptr[c as usize + 1] += 1;
    }
    for c in 0..a.n_cols {
        t_row_ptr[c + 1] += t_row_ptr[c];
    }
    t_col_idx.clear();
    t_col_idx.resize(nnz, 0);
    // Second pass scatters with a moving cursor per column; restore the
    // prefix sums afterwards by shifting the cursor array back one slot.
    for (r, w) in a.row_ptr.windows(2).enumerate() {
        for &c in &a.col_idx[w[0] as usize..w[1] as usize] {
            let dst = t_row_ptr[c as usize] as usize;
            t_col_idx[dst] = r as u32;
            t_row_ptr[c as usize] += 1;
        }
    }
    for c in (1..=a.n_cols).rev() {
        t_row_ptr[c] = t_row_ptr[c - 1];
    }
    t_row_ptr[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TripletBuilder;
    use crate::csr::CsrMatrix;
    use std::collections::BTreeSet;

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

    fn view(csr: &CsrMatrix<f64>) -> CsrStructure<'_> {
        CsrStructure::from(csr)
    }

    /// Brute-force oracle: per-row flops and exact output columns.
    fn brute(csr: &CsrMatrix<f64>, operand: SpgemmOperand) -> (Vec<u64>, Vec<BTreeSet<u32>>) {
        let n = csr.n_rows();
        // B's rows as index sets.
        let b_rows: Vec<Vec<u32>> = match operand {
            SpgemmOperand::AA => (0..csr.n_cols())
                .map(|k| {
                    if k < n {
                        csr.col_idx()[csr.row_ptr()[k] as usize..csr.row_ptr()[k + 1] as usize]
                            .to_vec()
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            SpgemmOperand::AAt => {
                let mut t = vec![Vec::new(); csr.n_cols()];
                for (r, w) in csr.row_ptr().windows(2).enumerate() {
                    for &c in &csr.col_idx()[w[0] as usize..w[1] as usize] {
                        t[c as usize].push(r as u32);
                    }
                }
                t
            }
        };
        let mut flops = Vec::with_capacity(n);
        let mut cols = Vec::with_capacity(n);
        for w in csr.row_ptr().windows(2) {
            let mut f = 0u64;
            let mut set = BTreeSet::new();
            for &k in &csr.col_idx()[w[0] as usize..w[1] as usize] {
                let row = &b_rows[k as usize];
                f += row.len() as u64;
                set.extend(row.iter().copied());
            }
            flops.push(f);
            cols.push(set);
        }
        (flops, cols)
    }

    #[test]
    fn exact_pass_matches_the_brute_force_oracle() {
        let mut scratch = StructureScratch::new();
        for csr in [
            sample_csr(50, 50, 4, 20),
            sample_csr(40, 60, 6, 0),
            sample_csr(64, 30, 3, 10),
        ] {
            for operand in SpgemmOperand::ALL {
                let s = SpgemmSymbolic::analyze(view(&csr), operand, 7, &mut scratch);
                let (flops, cols) = brute(&csr, operand);
                let total: u64 = flops.iter().sum();
                assert_eq!(s.flops_total, total as f64, "{operand:?}");
                assert_eq!(s.flops_max, flops.iter().copied().max().unwrap() as f64);
                let ub: f64 = flops
                    .iter()
                    .map(|&f| (f as f64).min(s.n_cols_out as f64))
                    .sum();
                assert_eq!(s.ub_total, ub);
                // <= 64 rows: the sampled pass is exhaustive and exact.
                assert_eq!(s.sample_rows, csr.n_rows());
                let nnz_c: usize = cols.iter().map(|c| c.len()).sum();
                assert_eq!(s.sample_nnz, nnz_c as f64, "{operand:?}");
                assert_eq!(s.sample_flops, s.flops_total);
                assert_eq!(s.sample_ub, s.ub_total);
                assert_eq!(s.est_nnz(), nnz_c as f64);
            }
        }
    }

    #[test]
    fn sampled_estimates_are_bounded_and_seed_deterministic() {
        let big = sample_csr(500, 300, 5, 40);
        let mut s1 = StructureScratch::new();
        let mut s2 = StructureScratch::new();
        for operand in SpgemmOperand::ALL {
            let a = SpgemmSymbolic::analyze(view(&big), operand, 42, &mut s1);
            let b = SpgemmSymbolic::analyze(view(&big), operand, 42, &mut s2);
            assert_eq!(a, b, "same seed, fresh scratch: identical summary");
            let c = SpgemmSymbolic::analyze(view(&big), operand, 43, &mut s1);
            assert_ne!(a.sample_flops, c.sample_flops, "seed moves the sample");
            assert!(a.sample_nnz <= a.sample_ub, "sample bounded by its ub");
            assert!(a.est_nnz() <= a.ub_total, "estimate clamped by exact ub");
            assert!(a.compression() >= 1.0);
            assert!((0.0..=1.0).contains(&a.tightness()));
            assert_eq!(a.sample_rows, SPGEMM_SAMPLE_CAP);
        }
    }

    #[test]
    fn scratch_reuse_across_operands_and_matrices_is_clean() {
        // Interleave shapes and operands through one scratch: results must
        // equal fresh-scratch runs (no state leaks between analyses).
        let mats = [
            sample_csr(30, 80, 4, 12),
            sample_csr(200, 50, 3, 0),
            sample_csr(5, 5, 2, 5),
        ];
        let mut shared = StructureScratch::new();
        for _ in 0..2 {
            for csr in &mats {
                for operand in SpgemmOperand::ALL {
                    let got = SpgemmSymbolic::analyze(view(csr), operand, 9, &mut shared);
                    let fresh = SpgemmSymbolic::analyze(
                        view(csr),
                        operand,
                        9,
                        &mut StructureScratch::new(),
                    );
                    assert_eq!(got, fresh);
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_matrices_are_well_defined() {
        let mut scratch = StructureScratch::new();
        let empty = CsrMatrix::<f64>::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
        let hollow = CsrMatrix::<f64>::from_parts(3, 5, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        for operand in SpgemmOperand::ALL {
            for csr in [&empty, &hollow] {
                let s = SpgemmSymbolic::analyze(view(csr), operand, 1, &mut scratch);
                assert_eq!(s.flops_total, 0.0);
                assert_eq!(s.ub_total, 0.0);
                assert_eq!(s.est_nnz(), 0.0);
                assert_eq!(s.compression(), 1.0);
                assert_eq!(s.tightness(), 1.0);
            }
        }
    }

    #[test]
    fn aat_output_is_square_and_aa_follows_a_shape() {
        let rect = sample_csr(40, 70, 4, 9);
        let mut scratch = StructureScratch::new();
        let aa = SpgemmSymbolic::analyze(view(&rect), SpgemmOperand::AA, 3, &mut scratch);
        assert_eq!((aa.n_rows, aa.n_cols_out), (40, 70));
        let aat = SpgemmSymbolic::analyze(view(&rect), SpgemmOperand::AAt, 3, &mut scratch);
        assert_eq!((aat.n_rows, aat.n_cols_out), (40, 40));
        // A·Aᵀ's diagonal is structurally nonempty for any nonempty row,
        // so every stored row produces at least one output entry.
        assert!(
            aat.sample_nnz
                >= view(&rect)
                    .row_ptr
                    .windows(2)
                    .filter(|w| w[1] > w[0])
                    .count() as f64
        );
    }
}
