//! Allocation audits.
//!
//! A counting `#[global_allocator]` proves three claims directly. Once a
//! worker's [`StructureScratch`] is warm, deriving every format's
//! value-free view and profiling it allocates **zero** heap blocks — no
//! value plane, no per-format index copies, nothing. The MatrixMarket
//! reader makes the same number of allocations whatever the line count.
//! And one model recommend allocates a pinned number of blocks. The
//! counter and its switch are per thread, so concurrent tests cannot
//! pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spmv_core::{AdvisorHandle, Env, FormatAdvisor, LabeledCorpus, SearchBudget};
use spmv_features::extract;
use spmv_gpusim::{Dataflow, KernelProfile, SpgemmProfile};
use spmv_matrix::{
    mm, CsrMatrix, CsrStructure, Format, FormatStructure, Precision, RowStats, SpgemmOperand,
    SpgemmSymbolic, StructureScratch, TripletBuilder,
};

/// Counts the calling thread's allocations (and growth reallocations)
/// while it is armed; frees are intentionally not counted — returning
/// warm capacity is the whole point.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors, so the allocator can
    // read them without allocating.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

/// Heap blocks `f` allocates on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> usize {
    ALLOCS.set(0);
    ARMED.set(true);
    std::hint::black_box(f());
    ARMED.set(false);
    ALLOCS.get()
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn banded(n: usize, half_width: usize) -> CsrMatrix<f64> {
    let mut b = TripletBuilder::<f64>::new(n, n);
    for r in 0..n {
        let lo = r.saturating_sub(half_width);
        let hi = (r + half_width + 1).min(n);
        for c in lo..hi {
            b.push(r, c, 1.0).expect("in bounds");
        }
    }
    b.build().to_csr()
}

#[test]
fn warm_scratch_profiles_every_format_with_zero_allocations() {
    let csr = banded(500, 4);
    let mut scratch = StructureScratch::new();

    // Warm-up pass: grows each scratch buffer to this matrix's high-water
    // mark across all six formats (this pass may allocate freely).
    let stats = RowStats::of(csr.row_ptr());
    for fmt in Format::ALL {
        let s = FormatStructure::build(&csr, fmt, &stats, &mut scratch).expect("well-behaved");
        std::hint::black_box(KernelProfile::of_structure(&s));
    }

    // Audited pass: the exact per-matrix work the simulator measure does for an
    // already-generated CSR — shared row analysis, six structural views,
    // six kernel profiles — must not touch the heap at all.
    let n = allocations(|| {
        let stats = RowStats::of(csr.row_ptr());
        for fmt in Format::ALL {
            let s = FormatStructure::build(&csr, fmt, &stats, &mut scratch).expect("well-behaved");
            std::hint::black_box(KernelProfile::of_structure(&s));
        }
    });
    assert_eq!(
        n, 0,
        "structural profiling with warm scratch must be allocation-free"
    );

    // Same discipline for the SpGEMM symbolic phase (the PR-10 tentpole
    // extension of this pin): once the transpose and marker scratch are
    // warm, the exact-flops pass, the sampled compression estimate, and
    // every dataflow's cost prediction are counting passes over borrowed
    // index slices — zero heap blocks for both operands.
    let view = CsrStructure::from(&csr);
    for operand in [SpgemmOperand::AA, SpgemmOperand::AAt] {
        std::hint::black_box(SpgemmSymbolic::analyze(view, operand, 7, &mut scratch));
    }

    let n = allocations(|| {
        for operand in [SpgemmOperand::AA, SpgemmOperand::AAt] {
            let sym = SpgemmSymbolic::analyze(view, operand, 7, &mut scratch);
            let profile = SpgemmProfile::of_symbolic(&sym, csr.nnz());
            std::hint::black_box(profile.dataflow_features());
            for df in Dataflow::ALL {
                for arch in spmv_gpusim::GpuArch::PAPER_MACHINES.iter() {
                    std::hint::black_box(profile.predict_seconds(df, arch, Precision::Double));
                }
            }
        }
    });
    assert_eq!(
        n, 0,
        "symbolic SpGEMM analysis with warm scratch must be allocation-free"
    );
}

/// A real MatrixMarket body with `entries` distinct lower-triangle
/// entries, and `filler` comment and blank lines after each.
fn mm_body(symmetry: &str, entries: usize, filler: usize) -> Vec<u8> {
    let mut body = format!("%%MatrixMarket matrix coordinate real {symmetry}\n200 200 {entries}\n");
    let lower = (0..200).flat_map(|r| (0..=r).map(move |c| (r, c)));
    for (i, (r, c)) in lower.take(entries).enumerate() {
        body.push_str(&format!("{} {} {}.5\n", r + 1, c + 1, i % 7 + 1));
        for k in 0..filler {
            body.push_str(if k % 2 == 0 { "% filler\n" } else { "\n" });
        }
    }
    body.into_bytes()
}

#[test]
fn matrix_market_reader_allocations_do_not_grow_with_the_line_count() {
    for symmetry in ["general", "symmetric"] {
        let read = |body: &[u8]| {
            allocations(|| mm::read_matrix_market_csr::<f64>(body).expect("valid body"))
        };
        let base = read(&mm_body(symmetry, 10_000, 0));
        assert_eq!(
            read(&mm_body(symmetry, 10_000, 3)),
            base,
            "{symmetry}: 40k lines"
        );
        assert_eq!(
            read(&mm_body(symmetry, 1_000, 0)),
            base,
            "{symmetry}: 1k entries"
        );
        // Four for the header's tokens; seven for the builder's triplet
        // arrays, row pointers, keys and output; one for the coordinate
        // list of a symmetric file.
        assert!(base <= 12, "{symmetry}: {base} allocations");
    }
}

#[test]
fn matrix_market_structure_reader_allocations_do_not_grow_with_the_line_count() {
    let read =
        |body: &[u8]| allocations(|| mm::read_matrix_market_structure(body).expect("valid body"));
    let base = read(&mm_body("general", 10_000, 0));
    assert_eq!(read(&mm_body("general", 10_000, 3)), base, "40k lines");
    assert_eq!(read(&mm_body("general", 1_000, 0)), base, "1k entries");
    // Four for the header's tokens; three for the builder's coordinate
    // arrays and row pointers. No value plane, and the body's row-major
    // order needs no sort keys.
    assert!(base <= 7, "{base} allocations");
}

#[test]
fn warm_model_recommend_allocates_a_pinned_number_of_blocks() {
    let labels =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/labels_tiny.json");
    let corpus = LabeledCorpus::load(&labels).expect("committed Tiny labels");
    let env = Env {
        arch_idx: 1,
        precision: Precision::Double,
    };
    let handle =
        AdvisorHandle::from_advisor(FormatAdvisor::train(&corpus, env, SearchBudget::Quick));
    let fv = extract(&banded(500, 4));
    let warm = handle.recommend_features(&fv);
    let n = allocations(|| handle.recommend_features(&fv));
    assert_eq!(handle.recommend_features(&fv), warm);
    // Classifier: the projected input row, the boosted scores and the
    // probabilities (3). Time model: the projected row, the six one-hot
    // rows as one matrix, the ensemble's sums and averages (4); one
    // scratch shared by all five members — its plane list, the input and
    // four layer planes, the output vector (7); the (format, time) pairs
    // (1). Per-row or per-member buffers would make this grow with the
    // formats or the ensemble size.
    assert_eq!(n, 15, "one warm model recommend allocates {n} blocks");
}
