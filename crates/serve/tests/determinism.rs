//! Scheduling invariance of the run manifest, against the real
//! `spmv-serve` binary.
//!
//! The deterministic section of the manifest (line 2 — the CI smoke job
//! extracts it with `sed -n 2p`) must be byte-identical for the same
//! request mix across the whole scheduling matrix: 1 worker or 4,
//! one-shot `Connection: close` clients or persistent pipelined
//! keep-alive clients. Counters record *work*, never scheduling — shard
//! count, connection reuse, and pipelining depth may only show up in the
//! timing section. This test lives in its own file so it gets its own
//! process — the tracer is process-global and the in-process server
//! tests mutate it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use spmv_serve::loadgen::{self, Transport};

struct ServerProc {
    child: Child,
    addr: String,
}

/// Boot the real binary on an ephemeral port and parse the one
/// `listening on HOST:PORT` line it prints once ready.
fn boot(workers: usize, trace_out: &PathBuf) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spmv-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--queue-depth",
            "64",
            "--cache-capacity",
            "256",
            "--trace-out",
        ])
        .arg(trace_out)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spmv-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("listening line has an address")
        .to_string();
    assert!(
        line.contains("listening on"),
        "unexpected boot line: {line:?}"
    );
    ServerProc { child, addr }
}

/// Drive the scripted mix, request shutdown, and wait for a clean exit.
fn run_and_collect(workers: usize, transport: Transport, trace_out: &PathBuf) -> Vec<String> {
    let mut server = boot(workers, trace_out);
    loadgen::wait_ready(&server.addr, Duration::from_secs(10)).expect("server ready");

    let mix = loadgen::build_mix(64, 7);
    let report = loadgen::run(&server.addr, &mix, 4, transport, false);
    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "mix must be clean at {workers} workers; statuses: {:?}",
        report.statuses
    );

    let status = loadgen::send_shutdown(&server.addr).expect("shutdown accepted");
    assert_eq!(status, 200);
    let exit = server.child.wait().expect("server exits");
    assert!(exit.success(), "orderly shutdown must exit 0, got {exit:?}");

    let manifest = std::fs::read_to_string(trace_out).expect("manifest written");
    manifest.lines().map(str::to_string).collect()
}

#[test]
fn deterministic_manifest_section_is_scheduling_invariant() {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();

    // The full matrix the acceptance contract names: {1,4} workers ×
    // {one-shot, persistent}. The persistent cells also vary pipeline
    // depth so reuse and batching both get a chance to leak.
    let cells = [
        ("w1_oneshot", 1, Transport::OneShot),
        ("w4_oneshot", 4, Transport::OneShot),
        ("w1_pipelined", 1, Transport::Pipelined(4)),
        ("w4_pipelined", 4, Transport::Pipelined(16)),
    ];
    let mut paths = Vec::new();
    let mut manifests = Vec::new();
    for (tag, workers, transport) in cells {
        let path = tmp.join(format!("spmv_serve_det_{tag}_{pid}.json"));
        manifests.push((tag, run_and_collect(workers, transport, &path)));
        paths.push(path);
    }

    // Manifest layout contract (what the CI smoke job's `sed -n 2p`
    // relies on): line 2 is the complete deterministic section on one
    // line; timing follows and may span several lines.
    let (_, baseline) = &manifests[0];
    assert!(
        baseline[1].starts_with("\"deterministic\""),
        "line 2 must be the deterministic section: {}",
        baseline[1]
    );
    for (tag, lines) in &manifests[1..] {
        assert_eq!(
            &baseline[1], &lines[1],
            "deterministic section diverged in cell {tag}"
        );
    }

    // The section carries real serving state, not an empty shell.
    for key in [
        "serve.requests",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.responses.2xx",
        "serve.responses.4xx",
    ] {
        assert!(
            baseline[1].contains(key),
            "deterministic section missing {key}: {}",
            baseline[1]
        );
    }

    // Scheduling shows up only in timing: worker counts differ there,
    // and connection reuse is visible for the persistent cells.
    let timing = |idx: usize| manifests[idx].1[2..].join("\n");
    assert!(timing(0).contains("\"workers\":\"1\""), "{}", timing(0));
    assert!(timing(1).contains("\"workers\":\"4\""), "{}", timing(1));
    for idx in [0, 1, 2, 3] {
        assert!(
            timing(idx).contains("serve.conns.accepted"),
            "{}",
            timing(idx)
        );
    }
    // One-shot clients never reuse; pipelined clients must.
    assert!(
        timing(0).contains("\"serve.requests.reused_conn\":\"0\""),
        "{}",
        timing(0)
    );
    assert!(
        !timing(2).contains("\"serve.requests.reused_conn\":\"0\""),
        "persistent cell must reuse connections: {}",
        timing(2)
    );

    for path in paths {
        std::fs::remove_file(&path).ok();
    }
}
