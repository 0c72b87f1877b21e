//! Served-cache behavior and degraded-mode serving.
//!
//! The LRU mechanics themselves (eviction order, collision safety,
//! single flight) are unit-tested inside `spmv_serve::cache`; these
//! tests assert the *serving* contracts: a cache hit returns bytes
//! bit-identical to the cold miss, the hit actually happened (counters),
//! and a server booted on a corrupt artifact keeps answering from the
//! heuristic.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::Mutex;

use common::spawn;
use spmv_core::AdvisorHandle;
use spmv_serve::loadgen::{banded_mm, feature_body, http_roundtrip};
use spmv_serve::ServerConfig;

/// Counter assertions read the process-global tracer; serialize the
/// tests that depend on exact deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counters() -> (u64, u64) {
    (
        spmv_observe::counter_value("serve.cache.hits"),
        spmv_observe::counter_value("serve.cache.misses"),
    )
}

#[test]
fn repeat_matrix_request_hits_and_is_bit_identical() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    spmv_observe::enable();
    let server = spawn(ServerConfig::default(), AdvisorHandle::heuristic());
    let addr = server.addr().to_string();
    let body = banded_mm(64, 2);

    let (hits0, misses0) = counters();
    let (status_cold, cold) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
    let (hits1, misses1) = counters();
    let (status_warm, warm) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
    let (hits2, misses2) = counters();

    assert_eq!(status_cold, 200);
    assert_eq!(status_warm, 200);
    assert_eq!(cold, warm, "cache hit must be bit-identical to cold miss");
    assert_eq!(misses1 - misses0, 1, "first request is the one miss");
    assert_eq!(hits1 - hits0, 0);
    assert_eq!(hits2 - hits1, 1, "second request is served from cache");
    assert_eq!(misses2 - misses1, 0);
    server.shutdown();
}

#[test]
fn repeat_feature_request_hits_and_is_bit_identical() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    spmv_observe::enable();
    let server = spawn(ServerConfig::default(), AdvisorHandle::heuristic());
    let addr = server.addr().to_string();
    let body = feature_body(99);

    let (hits0, _m) = counters();
    let (_s1, cold) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
    let (_s2, warm) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
    let (hits1, _m) = counters();
    assert_eq!(cold, warm);
    assert_eq!(hits1 - hits0, 1);
    server.shutdown();
}

#[test]
fn textually_different_feature_bodies_with_same_values_share_an_entry() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    spmv_observe::enable();
    let server = spawn(ServerConfig::default(), AdvisorHandle::heuristic());
    let addr = server.addr().to_string();
    // Same 17 values, different whitespace: the key is the value bits,
    // not the body text.
    let a = b"{\"features\":[100,100,500,5,0.05,9,2,0,0,0,0,0,0,0,0,0,0]}".to_vec();
    let b =
        b"{ \"features\": [100, 100, 500, 5, 0.05, 9, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] }".to_vec();
    let (hits0, _m) = counters();
    let (_s1, first) = http_roundtrip(&addr, "POST", "/v1/recommend", &a).unwrap();
    let (_s2, second) = http_roundtrip(&addr, "POST", "/v1/recommend", &b).unwrap();
    let (hits1, _m) = counters();
    assert_eq!(first, second);
    assert_eq!(hits1 - hits0, 1, "semantic duplicate must hit");
    server.shutdown();
}

#[test]
fn malformed_bodies_are_never_cached() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    spmv_observe::enable();
    let server = spawn(ServerConfig::default(), AdvisorHandle::heuristic());
    let addr = server.addr().to_string();
    let body = b"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n".to_vec();
    let (hits0, misses0) = counters();
    for _ in 0..3 {
        let (status, _b) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
        assert_eq!(status, 400);
    }
    let (hits1, misses1) = counters();
    assert_eq!(hits1 - hits0, 0, "a 400 must never be served from cache");
    assert_eq!(misses1 - misses0, 3, "every malformed attempt re-parses");
    server.shutdown();
}

#[test]
fn zero_capacity_disables_caching_but_not_correctness() {
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    spmv_observe::enable();
    let server = spawn(
        ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        },
        AdvisorHandle::heuristic(),
    );
    let addr = server.addr().to_string();
    let body = banded_mm(48, 1);
    let (hits0, _m) = counters();
    let (_s1, first) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
    let (_s2, second) = http_roundtrip(&addr, "POST", "/v1/recommend", &body).unwrap();
    let (hits1, _m) = counters();
    assert_eq!(first, second, "recompute must still be deterministic");
    assert_eq!(hits1 - hits0, 0, "capacity 0 means no hits, ever");
    server.shutdown();
}

#[test]
fn corrupt_artifact_boots_heuristic_and_serves() {
    // Its recommend counts a cache miss; hold the lock so that miss never
    // lands inside another test's counter delta.
    let _guard = COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let path = std::env::temp_dir().join(format!(
        "spmv_serve_corrupt_artifact_{}.json",
        std::process::id()
    ));
    std::fs::write(&path, b"{\"definitely\": \"not a model artifact\"").unwrap();
    let handle = AdvisorHandle::from_artifact(&path);
    assert_eq!(handle.mode(), "heuristic");
    assert!(handle.degraded_reason().is_some());

    let server = spawn(ServerConfig::default(), handle);
    let addr = server.addr().to_string();

    let (status, health) = http_roundtrip(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    let health = String::from_utf8_lossy(&health).to_string();
    assert!(health.contains("\"mode\":\"heuristic\""), "{health}");
    assert!(health.contains("\"model_version\":null"), "{health}");

    let (status, body) = http_roundtrip(&addr, "POST", "/v1/recommend", &banded_mm(64, 2)).unwrap();
    assert_eq!(status, 200);
    let body = String::from_utf8_lossy(&body).to_string();
    assert!(body.contains("\"source\":\"heuristic\""), "{body}");
    assert!(body.contains("\"predicted_times\":null"), "{body}");

    server.shutdown();
    std::fs::remove_file(&path).ok();
}
