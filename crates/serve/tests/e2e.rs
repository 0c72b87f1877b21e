//! End-to-end acceptance: a model-backed server on an ephemeral port
//! under concurrent mixed load (MatrixMarket bodies, feature vectors,
//! malformed payloads, cache-hitting repeats), verifying that
//!
//! - every well-formed response is byte-identical to what the shared
//!   `AdvisorHandle` (the `spmv-advisor --json` code path) produces,
//! - malformed payloads get typed 4xx answers,
//! - a saturated queue sheds with `503` while every admitted request
//!   still completes — nothing is dropped.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::Arc;

use common::{spawn, tiny_handle};
use spmv_core::AdvisorHandle;
use spmv_features::FeatureVector;
use spmv_serve::loadgen::{self, banded_mm, ExpectClass, Transport};
use spmv_serve::ServerConfig;

/// Expected 200-body for a MatrixMarket request, through the same code
/// path the one-shot CLI's `--json` uses.
fn expected_matrix_json(reference: &AdvisorHandle, body: &[u8]) -> Vec<u8> {
    let csr = spmv_matrix::mm::read_matrix_market::<f64, _>(body)
        .expect("mix emits valid matrices")
        .to_csr();
    let mut bytes = reference.recommend_csr(&csr).to_json().into_bytes();
    bytes.push(b'\n');
    bytes
}

/// Expected 200-body for a feature-vector request.
fn expected_feature_json(reference: &AdvisorHandle, body: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(body).unwrap();
    let inner = text
        .trim()
        .trim_start_matches("{\"features\":[")
        .trim_end_matches("]}");
    let values: Vec<f64> = inner
        .split(',')
        .map(|v| v.trim().parse().unwrap())
        .collect();
    let fv = FeatureVector::from_slice(&values).expect("17 features");
    let mut bytes = reference.recommend_features(&fv).to_json().into_bytes();
    bytes.push(b'\n');
    bytes
}

#[test]
fn concurrent_mixed_load_matches_the_cli_surface() {
    // Counters are recorded only while the process-global tracer is on
    // (the spmv-serve binary enables it at boot; embedded servers opt in).
    spmv_observe::enable();
    let server = spawn(
        ServerConfig {
            workers: 4,
            queue_depth: 128,
            cache_capacity: 256,
            ..ServerConfig::default()
        },
        tiny_handle(),
    );
    let addr = server.addr().to_string();
    let reference = tiny_handle();

    let mix = loadgen::build_mix(72, 7);
    assert!(mix.len() >= 64, "acceptance requires >= 64 mixed requests");
    let report = loadgen::run(&addr, &mix, 8, Transport::OneShot, false);

    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "every request must land in its expected status class; statuses: {:?}",
        report.statuses
    );
    assert_eq!(report.outcomes.len(), mix.len());

    // Byte-level agreement with the shared serving surface, for every
    // single well-formed recommendation in the mix (including the
    // cache-served repeats — a hit must be indistinguishable).
    let mut checked_matrix = 0;
    let mut checked_features = 0;
    for outcome in &report.outcomes {
        let req = &mix[outcome.index];
        if req.expect != ExpectClass::Ok || req.target != "/v1/recommend" {
            continue;
        }
        let body = &req.body;
        if body.starts_with(b"%%MatrixMarket") {
            assert_eq!(
                outcome.body,
                expected_matrix_json(&reference, body),
                "server vs CLI mismatch on {}",
                req.name
            );
            checked_matrix += 1;
        } else {
            assert_eq!(
                outcome.body,
                expected_feature_json(&reference, body),
                "server vs CLI mismatch on {}",
                req.name
            );
            checked_features += 1;
        }
    }
    assert!(checked_matrix >= 20, "matrix coverage: {checked_matrix}");
    assert!(
        checked_features >= 9,
        "feature coverage: {checked_features}"
    );

    // Model mode end to end: responses name the model source and carry
    // predicted times.
    let sample = report
        .outcomes
        .iter()
        .find(|o| mix[o.index].name.starts_with("banded"))
        .unwrap();
    let text = String::from_utf8_lossy(&sample.body).to_string();
    assert!(text.contains("\"source\":\"model\""), "{text}");
    assert!(text.contains("\"predicted_times\":[{"), "{text}");

    // The repeats in the mix must have been served from cache.
    let (_s, statz) = loadgen::http_roundtrip(&addr, "GET", "/statz", b"").unwrap();
    let statz = String::from_utf8_lossy(&statz).to_string();
    let hits = statz
        .split("\"serve.cache.hits\":")
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0);
    assert!(
        hits >= 7,
        "expected cache hits from repeats, statz: {statz}"
    );

    server.shutdown();
}

#[test]
fn saturated_queue_sheds_503_without_dropping_admitted_work() {
    // One slow worker, a two-slot queue: with 12 simultaneous one-shot
    // clients the acceptor must reject the overflow with 503 and every
    // admitted request must still complete with 200. Nothing may vanish
    // (status 0 = no response at all).
    let server = spawn(
        ServerConfig {
            workers: 1,
            queue_depth: 2,
            cache_capacity: 0,
            handler_delay_ms: 150,
            read_timeout_ms: 30_000,
            ..ServerConfig::default()
        },
        AdvisorHandle::heuristic(),
    );
    let addr = Arc::new(server.addr().to_string());
    let body = Arc::new(banded_mm(48, 1));

    let clients: Vec<_> = (0..12)
        .map(|_| {
            let addr = Arc::clone(&addr);
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                loadgen::http_roundtrip(&addr, "POST", "/v1/recommend", &body)
                    .unwrap_or((0, Vec::new()))
            })
        })
        .collect();
    let results: Vec<(u16, Vec<u8>)> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let ok = results.iter().filter(|(s, _)| *s == 200).count();
    let shed = results.iter().filter(|(s, _)| *s == 503).count();
    let lost = results.iter().filter(|(s, _)| *s == 0).count();
    assert_eq!(lost, 0, "every connection must get a response");
    assert_eq!(ok + shed, results.len());
    assert!(shed >= 1, "2-deep queue + 12 clients must shed something");
    assert!(
        ok >= 3,
        "in-flight and queued work must complete despite overload (ok={ok})"
    );
    // Shed responses must carry Retry-After semantics in the body.
    let shed_body = results
        .iter()
        .find(|(s, _)| *s == 503)
        .map(|(_, b)| String::from_utf8_lossy(b).to_string())
        .unwrap();
    assert!(shed_body.contains("overloaded"), "{shed_body}");

    // After the storm: still healthy, still exact.
    let (status, _h) = loadgen::http_roundtrip(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn graceful_shutdown_completes_queued_requests() {
    // Admitted work survives shutdown: queue several slow requests, call
    // shutdown while they are pending, and require every one to finish.
    let server = spawn(
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            handler_delay_ms: 80,
            ..ServerConfig::default()
        },
        AdvisorHandle::heuristic(),
    );
    let addr = Arc::new(server.addr().to_string());
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || {
                let body = banded_mm(40 + i, 1);
                loadgen::http_roundtrip(&addr, "POST", "/v1/recommend", &body)
                    .map(|(status, _)| status)
                    .unwrap_or(0)
            })
        })
        .collect();
    // Shut down under the clients once a shard owns every connection: a
    // connection still in the listen backlog is not admitted work, and
    // shutdown rightly never accepts it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while server.accepted_connections() < 6 {
        assert!(
            std::time::Instant::now() < deadline,
            "clients not accepted: {}",
            server.accepted_connections()
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    server.shutdown();
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(
        statuses.iter().all(|s| *s == 200),
        "admitted requests must complete across shutdown: {statuses:?}"
    );
}
