//! Criterion bench: the GPU model itself. Label collection sweeps 2299
//! matrices x 6 formats x 4 (machine, precision) cells; this bench
//! documents why that is tractable — profiling is a single O(nnz) walk and
//! each timing evaluation is O(1) on the profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_corpus::{GenKind, MatrixSpec};
use spmv_gpusim::memory::count_gather;
use spmv_gpusim::{GpuArch, KernelProfile, Simulator};
use spmv_matrix::{CsrMatrix, Format, Precision, SparseMatrix};

fn bench_profiling(c: &mut Criterion) {
    let csr: CsrMatrix<f64> = MatrixSpec {
        name: "m".into(),
        kind: GenKind::Uniform {
            n_rows: 40_000,
            n_cols: 40_000,
            nnz: 320_000,
        },
        seed: 11,
    }
    .generate();

    let mut group = c.benchmark_group("profile_kernel");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    for fmt in Format::ALL {
        let Ok(m) = SparseMatrix::from_csr(&csr, fmt) else {
            continue;
        };
        group.bench_with_input(BenchmarkId::from_parameter(fmt.label()), &m, |b, m| {
            b.iter(|| KernelProfile::of(m));
        });
    }
    group.finish();

    // Timing evaluation on a fixed profile: the O(1) inner loop of the
    // label sweep.
    let m = SparseMatrix::from_csr(&csr, Format::Csr).expect("csr");
    let profile = KernelProfile::of(&m);
    let sim = Simulator::default();
    let mut group = c.benchmark_group("measure_profile");
    group.bench_function("50_reps_with_noise", |b| {
        b.iter(|| sim.measure_profile(&profile, &GpuArch::P100, Precision::Double, 7));
    });
    let clean = Simulator::noiseless();
    group.bench_function("noiseless", |b| {
        b.iter(|| clean.measure_profile(&profile, &GpuArch::P100, Precision::Double, 7));
    });
    group.finish();
}

/// The distinct-line counter on the chunk shapes profiling feeds it, 32
/// lanes per chunk: all padding (an ELL slot past every row's end),
/// sorted (a CSR row), random (a COO/CSR5 chunk of scattered columns),
/// and short rows (a few real columns among padding zeros, the shape of
/// an ELL chunk just past most rows' ends).
fn bench_count_gather(c: &mut Criterion) {
    const LANES: usize = 32 * 4096;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let random: Vec<u32> = (0..LANES).map(|_| next() % 1_000_000).collect();
    let short_rows: Vec<u32> = (0..LANES)
        .map(|i| if i % 32 < 4 { next() % 1_000_000 } else { 0 })
        .collect();
    let streams = [
        ("all_padding", vec![0u32; LANES]),
        ("sorted", (0..LANES as u32).map(|i| i * 3).collect()),
        ("random", random),
        ("short_rows", short_rows),
    ];
    let mut group = c.benchmark_group("count_gather");
    group.throughput(Throughput::Elements(LANES as u64));
    for (name, cols) in &streams {
        group.bench_with_input(BenchmarkId::from_parameter(name), cols, |b, cols| {
            b.iter(|| count_gather(cols, 32, 32));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_profiling, bench_count_gather
}
criterion_main!(benches);
