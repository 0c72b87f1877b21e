//! Criterion bench: labeling throughput — the cost of turning one CSR
//! matrix (or a whole corpus) into ground-truth labels.
//!
//! Three arms per workload quantify the PR-3 structural engine:
//! * `reference` — the seed path kept verbatim in
//!   [`measure_matrix_outcomes_reference`]: every format materialized via
//!   `SparseMatrix::from_csr`, value planes included.
//! * `structural` — the shipping path: value-free [`FormatStructure`]
//!   views derived into a fresh scratch per call.
//! * `structural_warm` — the steady state `LabeledCorpus::collect` runs
//!   in: shared row stats + a reused per-worker scratch, ~zero
//!   allocations per matrix.
//!
//! Uniform matrices pad their ELL plane to about nnz slots, so the
//! `rowskew` case adds a power-law matrix whose padded plane is many times
//! its nnz: the case where plane-free ELL/HYB-head counting matters.
//!
//! Headline numbers are recorded in `BENCH_labeling.json` at the repo
//! root; regenerate with `cargo bench --bench labeling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_core::labels::{measure_matrix_op_outcomes_in, measure_matrix_outcomes_reference};
use spmv_core::{FaultPlan, LabeledCorpus, MatrixRecord};
use spmv_corpus::{CorpusScale, GenKind, MatrixSpec, SyntheticSuite};
use spmv_features::{extract, extract_with_stats};
use spmv_gpusim::{GpuArch, Simulator, SpOp};
use spmv_matrix::{CsrMatrix, RowStats, StructureScratch};

fn uniform(nnz: usize, seed: u64) -> CsrMatrix<f64> {
    MatrixSpec {
        name: "bench".into(),
        kind: GenKind::Uniform {
            n_rows: nnz / 8,
            n_cols: nnz / 8,
            nnz,
        },
        seed,
    }
    .generate()
}

/// Power-law row lengths (the Small suite's rowskew family at ~100k nnz):
/// a few long rows widen the ELL plane to tens of slots per non-zero,
/// while staying under the padded cap.
fn rowskew(seed: u64) -> CsrMatrix<f64> {
    MatrixSpec {
        name: "bench".into(),
        kind: GenKind::RowSkew {
            n_rows: 12_500,
            n_cols: 12_500,
            min_len: 4,
            alpha: 1.2,
            max_len: 1_000,
        },
        seed,
    }
    .generate()
}

/// One matrix through the full labeling grid (6 formats x 2 machines x 2
/// precisions), feature extraction included — the per-matrix unit of work
/// `collect` parallelizes over.
fn bench_label_one_matrix(c: &mut Criterion) {
    let sim = Simulator::default();
    let plan = FaultPlan::none();
    let mut group = c.benchmark_group("label_one_matrix");
    let cases = [20_000usize, 100_000, 400_000]
        .into_iter()
        .map(|nnz| (nnz.to_string(), uniform(nnz, 9)))
        .chain([("rowskew".to_string(), rowskew(9))]);
    for (case, csr) in cases {
        group.throughput(Throughput::Elements(csr.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("reference", &case), &csr, |b, m| {
            b.iter(|| {
                let f = extract(m);
                let out = measure_matrix_outcomes_reference(m, &sim, 7, "bench", &plan);
                (f, out)
            });
        });
        group.bench_with_input(BenchmarkId::new("structural_warm", &case), &csr, |b, m| {
            let mut scratch = StructureScratch::new();
            b.iter(|| {
                let stats = RowStats::of(m.row_ptr());
                let f = extract_with_stats(m, &stats);
                let out = measure_matrix_op_outcomes_in(
                    m,
                    &stats,
                    &mut scratch,
                    &sim,
                    SpOp::Spmv,
                    &GpuArch::PAPER_MACHINES,
                    7,
                    "bench",
                    &plan,
                );
                (f, out)
            });
        });
    }
    group.finish();
}

/// Whole-corpus labeling at one thread: the single-thread throughput
/// number the PR's >=2x target is stated against. The reference arm
/// rebuilds the corpus the way the seed repo did (serial loop, full
/// value-carrying conversions, per-matrix extraction from scratch).
fn bench_label_corpus(c: &mut Criterion) {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 20180801);
    let sim = Simulator::default();
    let plan = FaultPlan::none();
    let mut group = c.benchmark_group("label_corpus_tiny_1thread");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| {
            let records: Vec<MatrixRecord> = suite
                .specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let csr: CsrMatrix<f64> = spec.generate();
                    let (times, failures) =
                        measure_matrix_outcomes_reference(&csr, &sim, spec.seed, &spec.name, &plan);
                    MatrixRecord::new(
                        &suite,
                        i,
                        (csr.n_rows(), csr.n_cols(), csr.nnz()),
                        extract(&csr),
                        times,
                        failures,
                    )
                })
                .collect();
            records
        });
    });
    group.bench_function("structural", |b| {
        b.iter(|| LabeledCorpus::collect(&suite, &sim, 1));
    });
    group.finish();
}

criterion_group!(benches, bench_label_one_matrix, bench_label_corpus);
criterion_main!(benches);
