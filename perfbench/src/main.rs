//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! metrics for the three paths the format advisor serves.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-cold|label-corpus> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed` at
//! set-up; the programs under test only ever see the generated inputs.
//! Every workload reports the same metrics. With `--trace 0` the run
//! prints the end-to-end metrics, measured with tracing off; with
//! `--trace 1` it prints per-layer metrics from `spmv-observe` manifests
//! (the benchmark's own spans around each public-layer call, plus the
//! server's `serve/request*` spans and `/statz` counters) and the tracing
//! overhead. Layers a workload's own path does not run are probed on
//! inputs drawn from the workload's own.
//!
//! Every output is checked: failed checks count against `attempted`.
//! Stdout carries a table (metric, value, unit, samples, the error rate
//! and every failed operation by name) and, as its last line, one JSON
//! object `{"correct","attempted","failed","metrics"}`.
//!
//! Hygiene: everything the run writes lives in a temporary directory
//! under `.bench_tmp/` that is removed at exit, and `results/` is
//! fingerprinted before and after the run — a change fails the run.

mod common;
mod label;
mod report;
mod serve;
mod spmv;

use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

const USAGE: &str = "usage: perfbench --workload <serve-cold|label-corpus> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

fn run(args: &Args, ctx: &common::Ctx) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve-cold" => serve::run(args, ctx),
        "label-corpus" => label::run(args, ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = match common::Ctx::open() {
        Ok(ctx) => ctx,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let results_before = common::fingerprint_dir(&ctx.root.join("results"));
    let mut outcome = match run(&args, &ctx) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            return ExitCode::from(1);
        }
    };
    if common::fingerprint_dir(&ctx.root.join("results")) != results_before {
        outcome.invalid("results/ changed during the run");
    }
    drop(ctx);
    match outcome.print(&args.workload, args.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            ExitCode::from(1)
        }
    }
}
