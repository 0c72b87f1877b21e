//! `label-corpus`: `LabeledCorpus::collect` over the seed's Small suite
//! with the default simulator at `nproc` threads, from specs to the
//! serialized corpus. Labels are checked against the committed
//! `results/labels_small.json` at its seed and, at every seed, against
//! the reference measurement path on a seeded sample of small records.

use std::time::Instant;

use spmv_core::{
    measure_matrix_outcomes_reference, AdvisorHandle, FaultPlan, LabeledCorpus, MatrixRecord,
};
use spmv_corpus::{CorpusScale, MatrixSpec, SyntheticSuite};
use spmv_features::extract;
use spmv_gpusim::{KernelProfile, ProfileCache, Simulator};
use spmv_matrix::{CsrMatrix, Format, FormatStructure, RowStats, StructureScratch};

use crate::common::{self, Ctx, Manifest, Rng};
use crate::report::{median, Outcome};
use crate::Args;

/// The seed `results/labels_small.json` was collected at.
const COMMITTED_SEED: u64 = 20_180_801;
/// Non-zeros of the records re-measured with the reference path.
const REFERENCE_NNZ: usize = 300_000;
/// Every `REPLAY_STRIDE`-th matrix is replayed layer by layer when traced.
const REPLAY_STRIDE: usize = 8;
const SETUP_REPS: usize = 15;

/// Compare the fields a label consumer reads; `None` when they agree.
fn differs(got: &MatrixRecord, want: &MatrixRecord) -> Option<&'static str> {
    if got.name != want.name {
        Some("name")
    } else if got.shape != want.shape {
        Some("shape")
    } else if got.features.as_slice() != want.features.as_slice() {
        Some("features")
    } else if got.times != want.times {
        Some("times")
    } else {
        None
    }
}

/// One timed collect; returns the corpus, its JSON and matrices/s.
fn collect(suite: &SyntheticSuite, threads: usize) -> Result<(LabeledCorpus, String, f64), String> {
    let start = Instant::now();
    let corpus = LabeledCorpus::collect(suite, &Simulator::default(), threads);
    let json = serde_json::to_string(&corpus).map_err(|e| format!("serializing corpus: {e}"))?;
    let rate = suite.len() as f64 / start.elapsed().as_secs_f64();
    Ok((corpus, json, rate))
}

/// Collect until `budget_s` is spent (at least once); every collect must
/// serialize to the same bytes as the first.
fn collects(
    suite: &SyntheticSuite,
    threads: usize,
    budget_s: f64,
    outcome: &mut Outcome,
) -> Result<(LabeledCorpus, Vec<f64>), String> {
    let start = Instant::now();
    let (corpus, first_json, rate) = collect(suite, threads)?;
    outcome.attempt(suite.len() as u64);
    let mut rates = vec![rate];
    while start.elapsed().as_secs_f64() * (rates.len() + 1) as f64 / rates.len() as f64 <= budget_s
    {
        let (_, json, rate) = collect(suite, threads)?;
        outcome.attempt(suite.len() as u64);
        if json != first_json {
            outcome.fail(format!(
                "collect {} serialized differently from the first",
                rates.len() + 1
            ));
        }
        rates.push(rate);
    }
    Ok((corpus, rates))
}

/// Expected records: the reference path's labels for seeded records of
/// the smallest bucket, drawn until they hold `REFERENCE_NNZ` non-zeros.
/// Many small records average out the generator families, so the
/// set-up's share of generating expected outputs costs about the same at
/// every seed.
fn reference_records(suite: &SyntheticSuite, seed: u64) -> Vec<(usize, MatrixRecord)> {
    let sim = Simulator::default();
    let mut rng = Rng::new(seed ^ 0x1abe1);
    let mut pool: Vec<usize> = (0..suite.len())
        .filter(|&i| suite.bucket_of[i] == 0)
        .collect();
    let mut records = Vec::new();
    let mut nnz = 0;
    while nnz < REFERENCE_NNZ && !pool.is_empty() {
        let i = pool.swap_remove(rng.below(pool.len()));
        let spec = &suite.specs[i];
        let csr: CsrMatrix<f64> = spec.generate();
        let (times, failures) = measure_matrix_outcomes_reference(
            &csr,
            &sim,
            spec.seed,
            &spec.name,
            &FaultPlan::none(),
        );
        nnz += csr.nnz();
        records.push((
            i,
            MatrixRecord {
                name: spec.name.clone(),
                bucket: suite.bucket_of[i],
                family: spec.kind.family().to_string(),
                shape: (csr.n_rows(), csr.n_cols(), csr.nnz()),
                features: extract(&csr),
                times,
                failures,
                extra: Vec::new(),
            },
        ));
    }
    records
}

/// Compare the collected corpus with the reference-path records and, at
/// the committed seed, with every committed record.
fn check(
    corpus: &LabeledCorpus,
    expected: &[(usize, MatrixRecord)],
    committed: Option<&LabeledCorpus>,
    outcome: &mut Outcome,
) {
    for (i, want) in expected {
        outcome.attempt(1);
        if let Some(field) = differs(&corpus.records[*i], want) {
            outcome.fail(format!(
                "{}: {field} differ from the reference path",
                want.name
            ));
        }
    }
    let Some(committed) = committed else { return };
    if committed.records.len() != corpus.records.len() {
        outcome.fail(format!(
            "{} records collected, {} committed",
            corpus.records.len(),
            committed.records.len()
        ));
    }
    for (got, want) in corpus.records.iter().zip(&committed.records) {
        if let Some(field) = differs(got, want) {
            outcome.fail(format!(
                "{}: {field} differ from results/labels_small.json",
                got.name
            ));
        }
    }
}

pub fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((suite, expected, committed), setup_s, setup_n) = common::timed_setup(reps, || {
        let suite = SyntheticSuite::sample(CorpusScale::Small, args.seed);
        let expected = reference_records(&suite, args.seed);
        let committed = if args.seed == COMMITTED_SEED {
            let path = ctx.root.join("results/labels_small.json");
            Some(LabeledCorpus::load(&path).map_err(|e| format!("{}: {e}", path.display()))?)
        } else {
            None
        };
        Ok((suite, expected, committed))
    })?;
    let threads = common::nproc();
    let mut outcome = Outcome::default();
    let secs = args.seconds.as_secs_f64();

    if !args.trace {
        let (corpus, rates) = collects(&suite, threads, secs, &mut outcome)?;
        check(&corpus, &expected, committed.as_ref(), &mut outcome);
        let rate = median(&rates);
        let o = &mut outcome;
        o.metric("setup_s", setup_s, "s", setup_n);
        o.metric(
            "latency_ms",
            suite.len() as f64 / rate * 1e3,
            "ms",
            rates.len(),
        );
        o.metric("label_matrices_per_s", rate, "1/s", rates.len());
        // Allocator retention across the worker threads moves it by a
        // quarter between runs.
        o.metric("peak_rss_mib", common::peak_rss_mib(None)?, "MiB", 1);
        return Ok(outcome);
    }

    let (_, _, untraced) = collect(&suite, threads)?;
    outcome.attempt(suite.len() as u64);
    let replayed: Vec<usize> = (0..suite.len()).step_by(REPLAY_STRIDE).collect();
    let (corpus, traced, m) = traced_collect(ctx, &suite, &replayed, threads)?;
    outcome.attempt(suite.len() as u64);
    check(&corpus, &expected, committed.as_ref(), &mut outcome);
    layer_metrics(&m, &mut outcome);
    outcome.metric(
        "observe.trace_overhead",
        untraced / traced - 1.0,
        "ratio",
        1,
    );

    // The layers labeling does not exercise, probed on the same suite.
    let model = ctx.tmp.join("advisor.json");
    let train_s = common::train_artifact(ctx, &model)?;
    outcome.metric("ml.train_s", train_s, "s", 1);
    let handle = AdvisorHandle::from_artifact(&model);
    let picks = crate::spmv::stratified_picks(&suite, args.seed);
    crate::spmv::probe(ctx, &suite, &picks, args.seed, &handle, &mut outcome)?;
    crate::serve::probe(ctx, args.seed, &handle, &model, &mut outcome)?;
    Ok(outcome)
}

/// Per-layer metrics of labeling for another workload: a traced collect
/// of the sub-suite `picks` of `suite`, each of them replayed stage by
/// stage. The labels are checked against the reference path.
pub fn probe(
    ctx: &Ctx,
    suite: &SyntheticSuite,
    picks: &[usize],
    outcome: &mut Outcome,
) -> Result<(), String> {
    let sub = SyntheticSuite {
        scale: suite.scale,
        seed: suite.seed,
        specs: picks.iter().map(|&i| suite.specs[i].clone()).collect(),
        bucket_of: picks.iter().map(|&i| suite.bucket_of[i]).collect(),
    };
    let all: Vec<usize> = (0..sub.len()).collect();
    let (corpus, _, m) = traced_collect(ctx, &sub, &all, common::nproc())?;
    let sim = Simulator::default();
    for (spec, got) in sub.specs.iter().zip(&corpus.records) {
        outcome.attempt(1);
        let csr: CsrMatrix<f64> = spec.generate();
        let (times, _) = measure_matrix_outcomes_reference(
            &csr,
            &sim,
            spec.seed,
            &spec.name,
            &FaultPlan::none(),
        );
        if got.name != spec.name || got.times != times {
            outcome.fail(format!(
                "{}: times differ from the reference path",
                spec.name
            ));
        }
    }
    layer_metrics(&m, outcome);
    Ok(())
}

/// One traced collect of `suite`, then the stage-by-stage replay of the
/// specs `replayed`; returns the corpus, matrices/s and the manifest.
fn traced_collect(
    ctx: &Ctx,
    suite: &SyntheticSuite,
    replayed: &[usize],
    threads: usize,
) -> Result<(LabeledCorpus, f64, Manifest), String> {
    spmv_observe::reset();
    spmv_observe::enable();
    let collected = collect(suite, threads);
    if collected.is_ok() {
        replay(replayed.iter().map(|&i| &suite.specs[i]));
    }
    let m = Manifest::write_and_read(&ctx.tmp.join("label-trace.json"));
    spmv_observe::disable();
    spmv_observe::reset();
    let (corpus, _, rate) = collected?;
    Ok((corpus, rate, m?))
}

/// The `corpus`, `matrix::structure`, `gpusim` and labeling metrics of a
/// traced collect and replay.
fn layer_metrics(m: &Manifest, o: &mut Outcome) {
    let per_nnz =
        |span: &str, counter: &str| m.span_total_ns(span) / (m.counter(counter) as f64).max(1.0);
    let hits = m.counter("gpusim.profile_cache.hits") as f64;
    let lookups = hits + m.counter("gpusim.profile_cache.misses") as f64;
    let replayed = m.span_count("perfbench/corpus.gen") as usize;
    let builds = m.span_count("perfbench/matrix.structure.build") as usize;
    o.metric(
        "corpus.gen_ns_per_nnz",
        per_nnz("perfbench/corpus.gen", "perfbench/corpus.nnz"),
        "ns/nnz",
        replayed,
    );
    o.metric(
        "matrix.structure.build_ns_per_nnz",
        per_nnz(
            "perfbench/matrix.structure.build",
            "perfbench/structure.nnz",
        ),
        "ns/nnz",
        builds,
    );
    o.metric(
        "gpusim.profile_ns_per_nnz",
        per_nnz("perfbench/gpusim.profile", "perfbench/structure.nnz"),
        "ns/nnz",
        builds,
    );
    o.metric(
        "gpusim.profile_cache.hit_ratio",
        hits / lookups.max(1.0),
        "ratio",
        lookups as usize,
    );
    o.metric(
        "labels.cells_measured",
        m.counter("labeling.cells_measured") as f64,
        "count",
        1,
    );
    o.metric(
        "labels.failures",
        m.counter("labeling.failures") as f64,
        "count",
        1,
    );
}

/// Replay `specs` stage by stage, each public layer call under a
/// benchmark-owned span.
fn replay<'a>(specs: impl Iterator<Item = &'a MatrixSpec>) {
    let mut scratch = StructureScratch::new();
    for spec in specs {
        let csr: CsrMatrix<f64> = {
            let _span = spmv_observe::span("perfbench/corpus.gen");
            spec.generate()
        };
        spmv_observe::counter("perfbench/corpus.nnz", csr.nnz() as u64);
        let stats = RowStats::of(csr.row_ptr());
        let mut cache = ProfileCache::new();
        for fmt in Format::ALL {
            let built = {
                let _span = spmv_observe::span("perfbench/matrix.structure.build");
                FormatStructure::build(&csr, fmt, &stats, &mut scratch)
            };
            let Ok(structure) = built else { continue };
            spmv_observe::counter("perfbench/structure.nnz", csr.nnz() as u64);
            let _span = spmv_observe::span("perfbench/gpusim.profile");
            std::hint::black_box(KernelProfile::of_structure_cached(&structure, &mut cache));
        }
    }
}
