//! The advised-SpMV probe: in process, one thread, f64. Each matrix of a
//! set runs three arms, interleaved per matrix:
//!
//! * advised — row stats → features → model → prepare the picked format →
//!   k products;
//! * always-CSR — prepare CSR → k products;
//! * every format — prepare → k products, the fastest being the oracle.
//!
//! Every arm's `y` is checked against a plain CSR product. The traced runs
//! of both workloads probe the `exec` layers and the advice with it.

use std::time::Instant;

use spmv_core::AdvisorHandle;
use spmv_corpus::SyntheticSuite;
use spmv_exec::{spmv as exec_spmv, ExecScratch, PreparedMatrix, SimdLevel};
use spmv_features::extract_with_stats;
use spmv_matrix::{CsrMatrix, Format, RowStats};

use crate::common::{Ctx, Manifest, Rng};
use crate::report::Outcome;

/// Products per arm.
const K: usize = 100;
/// Matrices drawn from each Table I bucket (the results weigh every
/// matrix alike, so many small ones are cheap and count as much).
const PER_BUCKET: [usize; 8] = [6, 6, 4, 4, 2, 2, 1, 1];
/// Relative tolerance of `y` against the reference, per row, scaled by
/// the row's `Σ|a_ij·x_j|`.
const Y_RTOL: f64 = 1e-9;

const PREP_SPANS: [&str; 6] = [
    "perfbench/exec.prep/COO",
    "perfbench/exec.prep/ELL",
    "perfbench/exec.prep/CSR",
    "perfbench/exec.prep/HYB",
    "perfbench/exec.prep/merge-CSR",
    "perfbench/exec.prep/CSR5",
];
const KERNEL_SPANS: [&str; 6] = [
    "perfbench/exec.kernels/COO",
    "perfbench/exec.kernels/ELL",
    "perfbench/exec.kernels/CSR",
    "perfbench/exec.kernels/HYB",
    "perfbench/exec.kernels/merge-CSR",
    "perfbench/exec.kernels/CSR5",
];
const NNZ_COUNTERS: [&str; 6] = [
    "perfbench/exec.nnz/COO",
    "perfbench/exec.nnz/ELL",
    "perfbench/exec.nnz/CSR",
    "perfbench/exec.nnz/HYB",
    "perfbench/exec.nnz/merge-CSR",
    "perfbench/exec.nnz/CSR5",
];
fn slot(f: Format) -> usize {
    Format::ALL
        .iter()
        .position(|&g| g == f)
        .expect("Format::ALL lists every format")
}

struct Case {
    name: String,
    csr: CsrMatrix<f64>,
    x: Vec<f64>,
    y_ref: Vec<f64>,
    /// Per row `Σ|a_ij·x_j|`, the scale of the tolerance.
    row_abs: Vec<f64>,
}

/// A seeded stratified sample of `suite`: `PER_BUCKET[b]` matrices of
/// Table I bucket `b`, preferring generator families not drawn yet, so
/// every family and every bucket occurs, from cache-resident sizes
/// (bucket 0, under 10k nnz) to well past L2 (bucket 7, about 1M nnz).
pub fn stratified_picks(suite: &SyntheticSuite, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5b3f);
    let mut seen = std::collections::BTreeMap::<&str, usize>::new();
    let mut picked = Vec::new();
    for (bucket, &count) in PER_BUCKET.iter().enumerate() {
        let mut members: Vec<usize> = (0..suite.len())
            .filter(|&i| suite.bucket_of[i] == bucket)
            .collect();
        for _ in 0..count {
            if members.is_empty() {
                break;
            }
            // Least-drawn family first; a seeded pick among its members.
            let fewest = members
                .iter()
                .map(|&i| seen.get(suite.specs[i].kind.family()).copied().unwrap_or(0))
                .min()
                .unwrap_or(0);
            let eligible: Vec<usize> = (0..members.len())
                .filter(|&k| {
                    seen.get(suite.specs[members[k]].kind.family())
                        .copied()
                        .unwrap_or(0)
                        == fewest
                })
                .collect();
            let i = members.swap_remove(eligible[rng.below(eligible.len())]);
            *seen.entry(suite.specs[i].kind.family()).or_default() += 1;
            picked.push(i);
        }
    }
    picked
}

/// The matrices `picks` of `suite`, each with a seeded `x` and the
/// reference product.
fn cases(suite: &SyntheticSuite, picks: &[usize], seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ 0x5b3f_0c5e);
    picks
        .iter()
        .map(|&i| {
            let spec = &suite.specs[i];
            let csr: CsrMatrix<f64> = spec.generate();
            let x: Vec<f64> = (0..csr.n_cols()).map(|_| 0.5 + rng.unit()).collect();
            let (row_ptr, cols, vals) = (csr.row_ptr(), csr.col_idx(), csr.values());
            let mut y_ref = vec![0.0; csr.n_rows()];
            let mut row_abs = vec![0.0; csr.n_rows()];
            for r in 0..csr.n_rows() {
                for k in row_ptr[r] as usize..row_ptr[r + 1] as usize {
                    let p = vals[k] * x[cols[k] as usize];
                    y_ref[r] += p;
                    row_abs[r] += p.abs();
                }
            }
            Case {
                name: spec.name.clone(),
                csr,
                x,
                y_ref,
                row_abs,
            }
        })
        .collect()
}

fn y_matches(case: &Case, y: &[f64]) -> bool {
    y.len() == case.y_ref.len()
        && y.iter()
            .zip(&case.y_ref)
            .zip(&case.row_abs)
            .all(|((a, b), s)| (a - b).abs() <= Y_RTOL * s + f64::MIN_POSITIVE)
}

/// One matrix's times in the pass.
struct Times {
    advised_s: f64,
    csr_s: f64,
    /// The fastest format's time.
    oracle_s: f64,
}

/// Geometric means over the matrices of CSR time ÷ advised time and of
/// oracle time ÷ advised time. Every matrix weighs the same, whatever its
/// size, so one large matrix's generator parameters do not decide them.
fn advice_shares(times: &[Times]) -> (f64, f64) {
    let n = times.len() as f64;
    let mean_ln = |f: fn(&Times) -> f64| (times.iter().map(|t| f(t).ln()).sum::<f64>() / n).exp();
    (
        mean_ln(|t| t.csr_s / t.advised_s),
        mean_ln(|t| t.oracle_s / t.advised_s),
    )
}

struct Runner<'a> {
    handle: &'a AdvisorHandle,
    level: SimdLevel,
    scratch: ExecScratch<f64>,
    fallback_scratch: ExecScratch<f64>,
    y: Vec<f64>,
}

impl<'a> Runner<'a> {
    fn new(handle: &'a AdvisorHandle) -> Runner<'a> {
        Runner {
            handle,
            level: SimdLevel::detect(),
            scratch: ExecScratch::new(),
            fallback_scratch: ExecScratch::new(),
            y: Vec::new(),
        }
    }

    /// [`Runner::pass`] with tracing on; returns the times and the
    /// manifest of the pass's spans and counters.
    fn traced_pass(
        &mut self,
        cases: &[Case],
        ctx: &Ctx,
        outcome: &mut Outcome,
    ) -> Result<(Vec<Times>, Manifest), String> {
        spmv_observe::reset();
        spmv_observe::enable();
        let times = self.pass(cases, outcome);
        let m = Manifest::write_and_read(&ctx.tmp.join("advised-trace.json"));
        spmv_observe::disable();
        spmv_observe::reset();
        Ok((times, m?))
    }

    /// The advised path for one matrix; returns (seconds, picked format).
    fn advised(&mut self, case: &Case) -> (f64, Format) {
        let csr = &case.csr;
        self.y.resize(csr.n_rows(), 0.0);
        let start = Instant::now();
        let stats = {
            let _span = spmv_observe::span("perfbench/advised/row_stats");
            RowStats::of(csr.row_ptr())
        };
        let fv = {
            let _span = spmv_observe::span("perfbench/advised/features");
            extract_with_stats(csr, &stats)
        };
        let pick = {
            let _span = spmv_observe::span("perfbench/advised/model");
            self.handle.recommend_features(&fv).format
        };
        let prepared = {
            let _span = spmv_observe::span("perfbench/advised/prep");
            match PreparedMatrix::build(csr, pick, &stats, &mut self.scratch) {
                Ok(p) => p,
                Err(_) => {
                    // The picked format cannot hold this matrix: the
                    // advised path falls back to CSR, as a caller would.
                    spmv_observe::counter("perfbench/advice.prep_fallbacks", 1);
                    PreparedMatrix::build(csr, Format::Csr, &stats, &mut self.fallback_scratch)
                        .expect("CSR preparation of a valid CSR matrix cannot fail")
                }
            }
        };
        {
            let _span = spmv_observe::span("perfbench/advised/kernels");
            for _ in 0..K {
                exec_spmv(
                    &prepared,
                    std::hint::black_box(&case.x),
                    &mut self.y,
                    self.level,
                );
            }
        }
        (start.elapsed().as_secs_f64(), pick)
    }

    /// Prepare `fmt` and run k products; `None` when the format cannot
    /// hold the matrix.
    fn format_arm(&mut self, case: &Case, fmt: Format) -> Option<f64> {
        let csr = &case.csr;
        self.y.resize(csr.n_rows(), 0.0);
        let i = slot(fmt);
        let start = Instant::now();
        let stats = RowStats::of(csr.row_ptr());
        let prepared = {
            let _span = spmv_observe::span(PREP_SPANS[i]);
            PreparedMatrix::build(csr, fmt, &stats, &mut self.scratch).ok()?
        };
        {
            let _span = spmv_observe::span(KERNEL_SPANS[i]);
            for _ in 0..K {
                exec_spmv(
                    &prepared,
                    std::hint::black_box(&case.x),
                    &mut self.y,
                    self.level,
                );
            }
        }
        spmv_observe::counter(NNZ_COUNTERS[i], csr.nnz() as u64);
        Some(start.elapsed().as_secs_f64())
    }

    /// One pass over every matrix, arms interleaved per matrix.
    fn pass(&mut self, cases: &[Case], outcome: &mut Outcome) -> Vec<Times> {
        let mut times = Vec::with_capacity(cases.len());
        for case in cases {
            let (advised_s, pick) = self.advised(case);
            outcome.attempt(1);
            if !y_matches(case, &self.y) {
                outcome.fail(format!(
                    "{}: advised {pick} y differs from CSR y",
                    case.name
                ));
            }
            let mut csr_s = None;
            let mut best: Option<(f64, Format)> = None;
            for fmt in Format::ALL {
                let Some(t) = self.format_arm(case, fmt) else {
                    continue;
                };
                outcome.attempt(1);
                if !y_matches(case, &self.y) {
                    outcome.fail(format!("{}: {fmt} y differs from CSR y", case.name));
                }
                if fmt == Format::Csr {
                    csr_s = Some(t);
                }
                if best.is_none_or(|(b, _)| t < b) {
                    best = Some((t, fmt));
                }
            }
            let (Some(csr_s), Some((oracle_s, oracle))) = (csr_s, best) else {
                outcome.fail(format!("{}: CSR preparation failed", case.name));
                continue;
            };
            if oracle == pick {
                spmv_observe::counter("perfbench/advice.oracle_match", 1);
            }
            times.push(Times {
                advised_s,
                csr_s,
                oracle_s,
            });
        }
        times
    }
}

/// Per-layer metrics of the `exec` kernels and the advice: one traced
/// pass of every arm over `picks` of `suite`.
pub fn probe(
    ctx: &Ctx,
    suite: &SyntheticSuite,
    picks: &[usize],
    seed: u64,
    handle: &AdvisorHandle,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let cases = cases(suite, picks, seed);
    let (times, m) = Runner::new(handle).traced_pass(&cases, ctx, outcome)?;
    layer_metrics(&m, &cases, &times, outcome);
    Ok(())
}

/// The `exec`, advice and `features` metrics of a traced pass.
fn layer_metrics(m: &Manifest, cases: &[Case], times: &[Times], o: &mut Outcome) {
    let matrices = times.len() as f64;
    for (i, fmt) in Format::ALL.iter().enumerate() {
        let nnz = m.counter(NNZ_COUNTERS[i]) as f64;
        let runs = m.span_count(KERNEL_SPANS[i]) as usize;
        let prep = m.span_total_ns(PREP_SPANS[i]) / nnz.max(1.0);
        let gflops = 2.0 * nnz * K as f64 / m.span_total_ns(KERNEL_SPANS[i]).max(1.0);
        o.metric(&format!("exec.prep_ns_per_nnz.{fmt}"), prep, "ns/nnz", runs);
        o.metric(&format!("exec.gflops.{fmt}"), gflops, "GFLOP/s", runs);
    }
    // Bytes one CSR product moves, computed from array sizes (not
    // measured): values, column indices and the x gather per non-zero,
    // row pointers and y per row.
    let csr_bytes: f64 = cases
        .iter()
        .map(|c| c.csr.nnz() as f64 * 20.0 + c.csr.n_rows() as f64 * 12.0)
        .sum::<f64>()
        * K as f64;
    let csr_kernel_ns = m.span_total_ns(KERNEL_SPANS[slot(Format::Csr)]);
    o.metric(
        "exec.csr_gb_s",
        csr_bytes / csr_kernel_ns.max(1.0),
        "GB/s",
        1,
    );
    let (speedup, oracle) = advice_shares(times);
    o.metric("advice.speedup_vs_csr", speedup, "x", matrices as usize);
    o.metric("advice.oracle_share", oracle, "ratio", matrices as usize);
    let overhead_ns = ["row_stats", "features", "model"]
        .iter()
        .map(|s| m.span_total_ns(&format!("perfbench/advised/{s}")))
        .sum::<f64>();
    let advised_ns = ["row_stats", "features", "model", "prep", "kernels"]
        .iter()
        .map(|s| m.span_total_ns(&format!("perfbench/advised/{s}")))
        .sum::<f64>();
    o.metric(
        "advice.oracle_match_ratio",
        m.counter("perfbench/advice.oracle_match") as f64 / matrices,
        "ratio",
        matrices as usize,
    );
    o.metric(
        "advice.overhead_share",
        overhead_ns / advised_ns.max(1.0),
        "ratio",
        matrices as usize,
    );
    o.metric(
        "advice.prep_fallbacks",
        m.counter("perfbench/advice.prep_fallbacks") as f64,
        "count",
        matrices as usize,
    );
    o.metric(
        "features.extract_us",
        m.span_mean_us("perfbench/advised/features"),
        "us",
        matrices as usize,
    );
}
