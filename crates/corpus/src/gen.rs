//! Synthetic sparse-matrix generators.
//!
//! Each generator family targets one region of the structural space that
//! drives SpMV format choice on GPUs: row-length regularity (ELL vs CSR),
//! row-length skew (merge/CSR5 vs the rest), and column locality (vector
//! gather coalescing / cache behaviour — the paper's feature set 3). The
//! SuiteSparse collection spans all of these; the suite sampler
//! (`crate::suite`) mixes the families to match the collection's Table I
//! census shape.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use spmv_matrix::{CsrMatrix, Scalar, TripletBuilder};

/// Parameters of one synthetic matrix. Serializable so a corpus manifest can
/// be cached and regenerated bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GenKind {
    /// Uniformly random positions: irregular columns, near-Poisson row
    /// lengths (low-moderate variance).
    Uniform {
        /// Number of rows.
        n_rows: usize,
        /// Number of columns.
        n_cols: usize,
        /// Target non-zero count (achieved up to duplicate collisions).
        nnz: usize,
    },
    /// Banded matrix: entries within `half_width` of the diagonal, each kept
    /// with probability `fill`. Regular rows, excellent vector locality.
    Banded {
        /// Matrix dimension (square).
        n: usize,
        /// Band half-width.
        half_width: usize,
        /// Within-band fill probability in (0, 1].
        fill: f64,
    },
    /// Entries on a fixed set of diagonals: perfectly regular (DIA-like).
    Diagonal {
        /// Matrix dimension (square).
        n: usize,
        /// Diagonal offsets (0 = main diagonal).
        offsets: Vec<i64>,
    },
    /// 5-point Laplacian stencil on a `gx x gy` grid (classic PDE matrix).
    Stencil2D {
        /// Grid width.
        gx: usize,
        /// Grid height.
        gy: usize,
    },
    /// 7-point Laplacian stencil on a `gx x gy x gz` grid.
    Stencil3D {
        /// Grid extent in x.
        gx: usize,
        /// Grid extent in y.
        gy: usize,
        /// Grid extent in z.
        gz: usize,
    },
    /// R-MAT power-law graph (Chakrabarti et al.): heavy row-length skew,
    /// scattered columns — the structure where CSR scalar collapses and
    /// merge/CSR5 shine.
    RMat {
        /// log2 of the (square) dimension.
        scale: u32,
        /// Target edge count.
        nnz: usize,
        /// Quadrant probabilities (a, b, c); d = 1 - a - b - c.
        probs: (f64, f64, f64),
    },
    /// Block-sparse: dense `block_size`-square blocks scattered on a block
    /// grid. Long contiguous column runs (high `snzb_*` features).
    Block {
        /// Number of block rows/cols.
        grid: usize,
        /// Dense block edge length.
        block_size: usize,
        /// Blocks per block-row.
        blocks_per_row: usize,
    },
    /// Power-law row lengths over uniformly random columns: a few very long
    /// rows dominate (the ELL-killer).
    RowSkew {
        /// Number of rows.
        n_rows: usize,
        /// Number of columns.
        n_cols: usize,
        /// Minimum row length.
        min_len: usize,
        /// Pareto tail exponent (smaller = heavier tail).
        alpha: f64,
        /// Hard cap on a single row's length.
        max_len: usize,
    },
    /// Each row holds `runs` contiguous column runs of length `run_len` at
    /// random positions: directly dials the paper's set-3 block features.
    Clustered {
        /// Number of rows.
        n_rows: usize,
        /// Number of columns.
        n_cols: usize,
        /// Contiguous runs per row.
        runs: usize,
        /// Length of each run.
        run_len: usize,
    },
}

impl GenKind {
    /// Short family label (used in matrix names and Table I census rows).
    pub fn family(&self) -> &'static str {
        match self {
            GenKind::Uniform { .. } => "uniform",
            GenKind::Banded { .. } => "banded",
            GenKind::Diagonal { .. } => "diagonal",
            GenKind::Stencil2D { .. } => "stencil2d",
            GenKind::Stencil3D { .. } => "stencil3d",
            GenKind::RMat { .. } => "rmat",
            GenKind::Block { .. } => "block",
            GenKind::RowSkew { .. } => "rowskew",
            GenKind::Clustered { .. } => "clustered",
        }
    }
}

/// A named, seeded generator invocation — the unit the corpus manifest
/// stores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixSpec {
    /// Unique name within a suite (e.g. `rmat_1M_17`).
    pub name: String,
    /// Generator family and parameters.
    pub kind: GenKind,
    /// RNG seed; generation is bit-deterministic given `(kind, seed)`.
    pub seed: u64,
}

impl MatrixSpec {
    /// Generate the matrix in CSR form.
    pub fn generate<T: Scalar>(&self) -> CsrMatrix<T> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        match &self.kind {
            GenKind::Uniform {
                n_rows,
                n_cols,
                nnz,
            } => uniform(*n_rows, *n_cols, *nnz, &mut rng),
            GenKind::Banded {
                n,
                half_width,
                fill,
            } => banded(*n, *half_width, *fill, &mut rng),
            GenKind::Diagonal { n, offsets } => diagonal(*n, offsets, &mut rng),
            GenKind::Stencil2D { gx, gy } => stencil2d(*gx, *gy),
            GenKind::Stencil3D { gx, gy, gz } => stencil3d(*gx, *gy, *gz),
            GenKind::RMat { scale, nnz, probs } => rmat(*scale, *nnz, *probs, &mut rng),
            GenKind::Block {
                grid,
                block_size,
                blocks_per_row,
            } => block(*grid, *block_size, *blocks_per_row, &mut rng),
            GenKind::RowSkew {
                n_rows,
                n_cols,
                min_len,
                alpha,
                max_len,
            } => rowskew(*n_rows, *n_cols, *min_len, *alpha, *max_len, &mut rng),
            GenKind::Clustered {
                n_rows,
                n_cols,
                runs,
                run_len,
            } => clustered(*n_rows, *n_cols, *runs, *run_len, &mut rng),
        }
    }
}

fn rand_val<T: Scalar, R: Rng>(rng: &mut R) -> T {
    // Values in [0.5, 1.5): keeps dot products well-conditioned so format
    // kernels can be validated against each other with tight tolerances.
    T::from_f64(rng.gen::<f64>() + 0.5)
}

fn uniform<T: Scalar, R: Rng>(
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    rng: &mut R,
) -> CsrMatrix<T> {
    let mut b = TripletBuilder::with_capacity(n_rows, n_cols, nnz);
    let rd = Uniform::new(0, n_rows.max(1) as u32);
    let cd = Uniform::new(0, n_cols.max(1) as u32);
    for _ in 0..nnz {
        b.push_unchecked(rd.sample(rng), cd.sample(rng), rand_val(rng));
    }
    b.build_csr()
}

fn banded<T: Scalar, R: Rng>(n: usize, half_width: usize, fill: f64, rng: &mut R) -> CsrMatrix<T> {
    let band = (2 * half_width + 1).min(n);
    let mut b = TripletBuilder::with_capacity(n, n, n * band);
    for r in 0..n {
        let lo = r.saturating_sub(half_width);
        let hi = (r + half_width).min(n.saturating_sub(1));
        for c in lo..=hi {
            if fill >= 1.0 || rng.gen::<f64>() < fill {
                b.push_unchecked(r as u32, c as u32, rand_val(rng));
            }
        }
    }
    b.build_csr()
}

fn diagonal<T: Scalar, R: Rng>(n: usize, offsets: &[i64], rng: &mut R) -> CsrMatrix<T> {
    let mut b = TripletBuilder::with_capacity(n, n, n * offsets.len());
    for r in 0..n as i64 {
        for &off in offsets {
            let c = r + off;
            if c >= 0 && c < n as i64 {
                b.push_unchecked(r as u32, c as u32, rand_val(rng));
            }
        }
    }
    b.build_csr()
}

fn stencil2d<T: Scalar>(gx: usize, gy: usize) -> CsrMatrix<T> {
    let n = gx * gy;
    let mut b = TripletBuilder::with_capacity(n, n, 5 * n);
    for y in 0..gy {
        for x in 0..gx {
            let i = (y * gx + x) as u32;
            b.push_unchecked(i, i, T::from_f64(4.0));
            if x > 0 {
                b.push_unchecked(i, i - 1, T::from_f64(-1.0));
            }
            if x + 1 < gx {
                b.push_unchecked(i, i + 1, T::from_f64(-1.0));
            }
            if y > 0 {
                b.push_unchecked(i, i - gx as u32, T::from_f64(-1.0));
            }
            if y + 1 < gy {
                b.push_unchecked(i, i + gx as u32, T::from_f64(-1.0));
            }
        }
    }
    b.build_csr()
}

fn stencil3d<T: Scalar>(gx: usize, gy: usize, gz: usize) -> CsrMatrix<T> {
    let n = gx * gy * gz;
    let plane = (gx * gy) as u32;
    let mut b = TripletBuilder::with_capacity(n, n, 7 * n);
    for z in 0..gz {
        for y in 0..gy {
            for x in 0..gx {
                let i = ((z * gy + y) * gx + x) as u32;
                b.push_unchecked(i, i, T::from_f64(6.0));
                if x > 0 {
                    b.push_unchecked(i, i - 1, T::from_f64(-1.0));
                }
                if x + 1 < gx {
                    b.push_unchecked(i, i + 1, T::from_f64(-1.0));
                }
                if y > 0 {
                    b.push_unchecked(i, i - gx as u32, T::from_f64(-1.0));
                }
                if y + 1 < gy {
                    b.push_unchecked(i, i + gx as u32, T::from_f64(-1.0));
                }
                if z > 0 {
                    b.push_unchecked(i, i - plane, T::from_f64(-1.0));
                }
                if z + 1 < gz {
                    b.push_unchecked(i, i + plane, T::from_f64(-1.0));
                }
            }
        }
    }
    b.build_csr()
}

fn rmat<T: Scalar, R: Rng>(
    scale: u32,
    nnz: usize,
    probs: (f64, f64, f64),
    rng: &mut R,
) -> CsrMatrix<T> {
    let n = 1usize << scale;
    let (a, bb, c) = probs;
    let (ab, abc) = (a + bb, a + bb + c);
    let mut builder = TripletBuilder::with_capacity(n, n, nnz);
    for _ in 0..nnz {
        let (mut r, mut col) = (0u32, 0u32);
        for level in (0..scale).rev() {
            // Quadrant of p: [0, a) top-left, [a, ab) top-right, [ab, abc)
            // bottom-left, the rest bottom-right. Non-short-circuit `&`/`|`
            // keep this branch-free: p is random, so branches on it
            // mispredict often.
            let p: f64 = rng.gen();
            let bottom = (p >= a) & (p >= ab);
            let right = (p >= a) & ((p < ab) | (p >= abc));
            r |= (bottom as u32) << level;
            col |= (right as u32) << level;
        }
        builder.push_unchecked(r, col, rand_val(rng));
    }
    builder.build_csr()
}

fn block<T: Scalar, R: Rng>(
    grid: usize,
    block_size: usize,
    blocks_per_row: usize,
    rng: &mut R,
) -> CsrMatrix<T> {
    let n = grid * block_size;
    let pushes = grid * blocks_per_row * block_size * block_size;
    let mut b = TripletBuilder::with_capacity(n, n, pushes);
    let bd = Uniform::new(0, grid.max(1) as u32);
    for br in 0..grid {
        for _ in 0..blocks_per_row {
            let bc = bd.sample(rng) as usize;
            for dr in 0..block_size {
                for dc in 0..block_size {
                    b.push_unchecked(
                        (br * block_size + dr) as u32,
                        (bc * block_size + dc) as u32,
                        rand_val(rng),
                    );
                }
            }
        }
    }
    b.build_csr()
}

fn rowskew<T: Scalar, R: Rng>(
    n_rows: usize,
    n_cols: usize,
    min_len: usize,
    alpha: f64,
    max_len: usize,
    rng: &mut R,
) -> CsrMatrix<T> {
    let mut b = TripletBuilder::new(n_rows, n_cols);
    let cd = Uniform::new(0, n_cols.max(1) as u32);
    let min_len = min_len.max(1);
    let cap = max_len.min(n_cols).max(min_len);
    for r in 0..n_rows {
        // Pareto-distributed row length: len = min_len / u^(1/alpha).
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let len = ((min_len as f64 / u.powf(1.0 / alpha)) as usize).clamp(min_len, cap);
        for _ in 0..len {
            b.push_unchecked(r as u32, cd.sample(rng), rand_val(rng));
        }
    }
    b.build_csr()
}

fn clustered<T: Scalar, R: Rng>(
    n_rows: usize,
    n_cols: usize,
    runs: usize,
    run_len: usize,
    rng: &mut R,
) -> CsrMatrix<T> {
    let run_len = run_len.min(n_cols).max(1);
    let mut b = TripletBuilder::with_capacity(n_rows, n_cols, n_rows * runs * run_len);
    let start_d = Uniform::new(0, (n_cols - run_len + 1) as u32);
    for r in 0..n_rows {
        for _ in 0..runs {
            let start = start_d.sample(rng);
            for k in 0..run_len as u32 {
                b.push_unchecked(r as u32, start + k, rand_val(rng));
            }
        }
    }
    b.build_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: GenKind) -> MatrixSpec {
        MatrixSpec {
            name: "t".into(),
            kind,
            seed: 12345,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec(GenKind::Uniform {
            n_rows: 100,
            n_cols: 80,
            nnz: 500,
        });
        let a: CsrMatrix<f64> = s.generate();
        let b: CsrMatrix<f64> = s.generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let k = GenKind::Uniform {
            n_rows: 100,
            n_cols: 80,
            nnz: 500,
        };
        let a: CsrMatrix<f64> = MatrixSpec {
            name: "a".into(),
            kind: k.clone(),
            seed: 1,
        }
        .generate();
        let b: CsrMatrix<f64> = MatrixSpec {
            name: "b".into(),
            kind: k,
            seed: 2,
        }
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_hits_target_roughly() {
        let m: CsrMatrix<f64> = spec(GenKind::Uniform {
            n_rows: 200,
            n_cols: 200,
            nnz: 2000,
        })
        .generate();
        // Collisions only lose a few percent at this density.
        assert!(m.nnz() > 1900 && m.nnz() <= 2000, "nnz = {}", m.nnz());
        assert_eq!(m.shape(), (200, 200));
    }

    #[test]
    fn banded_stays_in_band() {
        let m: CsrMatrix<f64> = spec(GenKind::Banded {
            n: 60,
            half_width: 3,
            fill: 1.0,
        })
        .generate();
        for r in 0..60 {
            let (cols, _) = m.row(r);
            for &c in cols {
                assert!((c as i64 - r as i64).abs() <= 3);
            }
        }
        // Full fill: interior rows have 7 entries.
        assert_eq!(m.row_len(30), 7);
    }

    #[test]
    fn diagonal_has_exact_structure() {
        let m: CsrMatrix<f64> = spec(GenKind::Diagonal {
            n: 50,
            offsets: vec![-2, 0, 2],
        })
        .generate();
        assert_eq!(m.row_len(25), 3);
        assert_eq!(m.row_len(0), 2); // offset -2 falls off the edge
        assert!(m.get(25, 25).is_some());
        assert!(m.get(25, 23).is_some());
        assert!(m.get(25, 24).is_none());
    }

    #[test]
    fn stencil2d_row_sums_vanish_inside() {
        let m: CsrMatrix<f64> = spec(GenKind::Stencil2D { gx: 10, gy: 10 }).generate();
        assert_eq!(m.shape(), (100, 100));
        // Interior point: 4 on diagonal, four -1 neighbours.
        let x = vec![1.0; 100];
        let mut y = vec![0.0; 100];
        m.spmv(&x, &mut y);
        assert_eq!(y[55], 0.0);
        assert!(y[0] > 0.0); // corner keeps positive row sum
    }

    #[test]
    fn stencil3d_interior_degree() {
        let m: CsrMatrix<f64> = spec(GenKind::Stencil3D {
            gx: 5,
            gy: 5,
            gz: 5,
        })
        .generate();
        assert_eq!(m.shape(), (125, 125));
        // Center voxel (2,2,2) has all 6 neighbours.
        let center = (2 * 5 + 2) * 5 + 2;
        assert_eq!(m.row_len(center), 7);
    }

    #[test]
    fn rmat_is_skewed() {
        let m: CsrMatrix<f64> = spec(GenKind::RMat {
            scale: 10,
            nnz: 8000,
            probs: (0.57, 0.19, 0.19),
        })
        .generate();
        let max = m.max_row_len() as f64;
        let mean = m.mean_row_len();
        assert!(
            max > 8.0 * mean,
            "rmat should be heavy-tailed: max={max} mean={mean}"
        );
    }

    #[test]
    fn block_rows_are_runs() {
        let m: CsrMatrix<f64> = spec(GenKind::Block {
            grid: 8,
            block_size: 4,
            blocks_per_row: 2,
        })
        .generate();
        assert_eq!(m.shape(), (32, 32));
        // Each row's length is a multiple of 4 (overlapping blocks merge).
        for r in 0..32 {
            assert_eq!(m.row_len(r) % 4, 0, "row {r} len {}", m.row_len(r));
        }
    }

    #[test]
    fn rowskew_respects_bounds() {
        let m: CsrMatrix<f64> = spec(GenKind::RowSkew {
            n_rows: 300,
            n_cols: 500,
            min_len: 2,
            alpha: 1.0,
            max_len: 200,
        })
        .generate();
        assert!(m.max_row_len() <= 200);
        // Heavy tail: the longest row should be much longer than the median.
        let mut lens: Vec<usize> = m.row_lens().collect();
        lens.sort_unstable();
        assert!(m.max_row_len() >= 4 * lens[150].max(1));
    }

    #[test]
    fn clustered_has_contiguous_runs() {
        let m: CsrMatrix<f64> = spec(GenKind::Clustered {
            n_rows: 40,
            n_cols: 100,
            runs: 2,
            run_len: 5,
        })
        .generate();
        // Row lengths at most runs * run_len (overlaps merge).
        for r in 0..40 {
            assert!(m.row_len(r) <= 10 && m.row_len(r) >= 5);
        }
    }

    #[test]
    fn family_labels() {
        assert_eq!(
            spec(GenKind::Stencil2D { gx: 2, gy: 2 }).kind.family(),
            "stencil2d"
        );
        assert_eq!(
            spec(GenKind::RMat {
                scale: 2,
                nnz: 4,
                probs: (0.5, 0.2, 0.2)
            })
            .kind
            .family(),
            "rmat"
        );
    }

    #[test]
    fn spec_serde_round_trip() {
        let s = spec(GenKind::Banded {
            n: 10,
            half_width: 2,
            fill: 0.5,
        });
        let json = serde_json::to_string(&s).unwrap();
        let back: MatrixSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
