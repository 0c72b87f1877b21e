//! `spmv-serve-load` — deterministic closed-loop load generator.
//!
//! Usage:
//!   spmv-serve-load --addr HOST:PORT [--requests N] [--concurrency N]
//!                   [--seed N] [--wait-ready-ms N] [--allow-503]
//!                   [--persistent] [--pipeline-depth N] [--shutdown]
//!                   [--lifecycle promote|rollback|corrupt]
//!
//! Drives the scripted request mix from `spmv_serve::loadgen` (a pure
//! function of `--requests`/`--seed`) against a running server and
//! prints one JSON report line: status tallies, throughput, latency
//! quantiles, a log2 latency histogram, and any expectation violations.
//! One client runs the mix in either of two connection modes. The
//! default is one-shot: one connection per request, sent with
//! `Connection: close`, and a request that draws no response is lost,
//! never re-sent. `--persistent` reuses keep-alive connections, and
//! `--pipeline-depth N` additionally pipelines N requests per write
//! burst (implies `--persistent` when > 1). Per-request status-class
//! expectations are enforced identically in both modes. `--shutdown`
//! sends `POST /admin/shutdown` after the run — the CI smoke job uses
//! that to collect the server's exit manifest.
//!
//! `--lifecycle <kind>` replaces the concurrent mix with a **serial**
//! online-learning scenario from `spmv_serve::lifecycle` (feedback →
//! retrain → canary → swap, then rollback or corruption depending on
//! the kind), asserting generation numbers, canary phases, and
//! lifecycle counters along the way. The server must run with the
//! matching `--online-*` flags and `--cache-capacity 0`; violations
//! exit 7 exactly like mix expectation failures.
//!
//! Exit codes (stable, for scripting):
//!   0  every request matched its expected status class
//!   2  usage error
//!   6  the server never became ready
//!   7  at least one response contradicted its expectation

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use std::time::Duration;

use spmv_serve::lifecycle::{self, LifecycleKind};
use spmv_serve::loadgen::{self, Transport};

const EXIT_USAGE: u8 = 2;
const EXIT_NOT_READY: u8 = 6;
const EXIT_VIOLATIONS: u8 = 7;

const USAGE: &str = "usage: spmv-serve-load --addr HOST:PORT [--requests N] \
                     [--concurrency N] [--seed N] [--wait-ready-ms N] \
                     [--allow-503] [--persistent] [--pipeline-depth N] \
                     [--shutdown] [--lifecycle promote|rollback|corrupt]";

fn fail(code: u8, msg: &str) -> ExitCode {
    eprintln!("spmv-serve-load: error: {msg}");
    ExitCode::from(code)
}

struct Opts {
    addr: String,
    requests: usize,
    concurrency: usize,
    seed: u64,
    wait_ready_ms: u64,
    allow_503: bool,
    transport: Transport,
    shutdown: bool,
    lifecycle: Option<LifecycleKind>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<Opts>, String> {
    let mut args = args;
    let mut addr = None;
    let mut requests = 64usize;
    let mut concurrency = 4usize;
    let mut seed = 7u64;
    let mut wait_ready_ms = 10_000u64;
    let mut allow_503 = false;
    let mut persistent = false;
    let mut pipeline_depth = 1usize;
    let mut shutdown = false;
    let mut lifecycle_kind = None;
    fn number(flag: &str, value: Option<String>) -> Result<u64, String> {
        value
            .as_deref()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{flag} needs a non-negative integer"))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => match args.next() {
                Some(v) => addr = Some(v),
                None => return Err("--addr needs HOST:PORT".into()),
            },
            "--requests" => requests = number(&a, args.next())? as usize,
            "--concurrency" => concurrency = (number(&a, args.next())? as usize).max(1),
            "--seed" => seed = number(&a, args.next())?,
            "--wait-ready-ms" => wait_ready_ms = number(&a, args.next())?,
            "--allow-503" => allow_503 = true,
            "--persistent" => persistent = true,
            "--pipeline-depth" => pipeline_depth = (number(&a, args.next())? as usize).max(1),
            "--shutdown" => shutdown = true,
            "--lifecycle" => match args.next().as_deref().and_then(LifecycleKind::parse) {
                Some(kind) => lifecycle_kind = Some(kind),
                None => return Err("--lifecycle needs promote|rollback|corrupt".into()),
            },
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'; see --help")),
        }
    }
    let addr = addr.ok_or_else(|| "missing --addr".to_string())?;
    Ok(Some(Opts {
        addr,
        requests,
        concurrency,
        seed,
        wait_ready_ms,
        allow_503,
        transport: if persistent || pipeline_depth > 1 {
            Transport::Pipelined(pipeline_depth)
        } else {
            Transport::OneShot
        },
        shutdown,
        lifecycle: lifecycle_kind,
    }))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{USAGE}");
            return fail(EXIT_USAGE, &msg);
        }
    };

    if let Err(e) = loadgen::wait_ready(&opts.addr, Duration::from_millis(opts.wait_ready_ms)) {
        return fail(
            EXIT_NOT_READY,
            &format!(
                "{} not ready after {}ms: {e}",
                opts.addr, opts.wait_ready_ms
            ),
        );
    }

    let violations = if let Some(kind) = opts.lifecycle {
        let script = lifecycle::lifecycle_script(kind, opts.seed);
        let report = lifecycle::run_lifecycle(&opts.addr, &script);
        println!("{}", report.to_json());
        report.violations
    } else {
        let mix = loadgen::build_mix(opts.requests, opts.seed);
        let report = loadgen::run(
            &opts.addr,
            &mix,
            opts.concurrency,
            opts.transport,
            opts.allow_503,
        );
        println!("{}", report.to_json());
        report.violations
    };

    if opts.shutdown {
        match loadgen::send_shutdown(&opts.addr) {
            Ok(code) => eprintln!("spmv-serve-load: shutdown request answered {code}"),
            Err(e) => eprintln!("spmv-serve-load: shutdown request failed: {e}"),
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        fail(
            EXIT_VIOLATIONS,
            &format!(
                "{} responses contradicted expectations: {}",
                violations.len(),
                violations.join(", ")
            ),
        )
    }
}
