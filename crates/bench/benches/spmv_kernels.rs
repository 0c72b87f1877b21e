//! Criterion bench: CPU SpMV throughput of each storage format's sequential
//! reference kernel, on a regular and an irregular matrix (`benches/exec.rs`
//! benches the native execution engine). This is the kernel-level
//! companion to the simulated-GPU numbers: the same structural effects
//! (padding, skew, locality) show up in real CPU time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_corpus::{GenKind, MatrixSpec};
use spmv_matrix::{CsrMatrix, Format, SparseMatrix};

fn matrices() -> Vec<(&'static str, CsrMatrix<f64>)> {
    vec![
        (
            "banded_200k",
            MatrixSpec {
                name: "banded".into(),
                kind: GenKind::Banded {
                    n: 20_000,
                    half_width: 5,
                    fill: 1.0,
                },
                seed: 1,
            }
            .generate(),
        ),
        (
            "rmat_200k",
            MatrixSpec {
                name: "rmat".into(),
                kind: GenKind::RMat {
                    scale: 14,
                    nnz: 200_000,
                    probs: (0.57, 0.19, 0.19),
                },
                seed: 2,
            }
            .generate(),
        ),
    ]
}

fn bench_spmv(c: &mut Criterion) {
    for (name, csr) in matrices() {
        let x: Vec<f64> = (0..csr.n_cols()).map(|i| (i % 17) as f64 * 0.25).collect();
        let mut group = c.benchmark_group(format!("spmv/{name}"));
        group.throughput(Throughput::Elements(csr.nnz() as u64));
        for fmt in Format::ALL {
            let Ok(m) = SparseMatrix::from_csr(&csr, fmt) else {
                continue;
            };
            let mut y = vec![0.0; csr.n_rows()];
            group.bench_with_input(BenchmarkId::new("seq", fmt.label()), &m, |b, m| {
                b.iter(|| m.spmv(&x, &mut y));
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_spmv
}
criterion_main!(benches);
