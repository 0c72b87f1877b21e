//! Criterion bench: serving overhead — what one HTTP round trip through
//! `spmv-serve` costs on top of the bare advisor call.
//!
//! Three groups:
//!
//! * `serve_roundtrip` — single closed-loop client against an in-process
//!   server: the protocol floor (`/healthz`), a matrix recommendation
//!   with the cache disabled (parse + featurize + advise every time), the
//!   same request cache-hot (response bytes served from the LRU), and a
//!   17-feature vector request (cache disabled as well). Each shape is
//!   measured twice: one-shot (`Connection: close` per request — the
//!   legacy contract, retained as the regression baseline) and keep-alive
//!   (one persistent connection reused across iterations).
//! * `serve_closed_loop` — the scripted `loadgen` mix (the same request
//!   stream the CI smoke job and the e2e test drive) at closed-loop
//!   concurrency 1 and 4 over one-shot connections, measured end to end.
//! * `serve_pipelined` — the same mix over persistent connections at
//!   pipeline depths 1, 4, and 16 (4 closed-loop clients), the headline
//!   throughput path of the event-driven core.
//!
//! The server runs the heuristic advisor so the numbers isolate serving
//! cost (socket, parse, cache) from model inference, and the
//! bench needs no trained artifact. Headline numbers live in
//! `BENCH_serve.json` at the repo root; regenerate with
//! `cargo bench -p spmv-bench --bench serve`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spmv_core::AdvisorHandle;
use spmv_serve::loadgen::{self, banded_mm, feature_body};
use spmv_serve::{Server, ServerConfig};

fn boot(cache_capacity: usize) -> Server {
    Server::spawn(
        ServerConfig {
            workers: 4,
            queue_depth: 128,
            cache_capacity,
            ..ServerConfig::default()
        },
        AdvisorHandle::heuristic(),
    )
    .expect("bind ephemeral port")
}

fn roundtrip(addr: &str, method: &str, target: &str, body: &[u8]) -> u16 {
    let (status, _body) =
        loadgen::http_roundtrip(addr, method, target, body).expect("bench roundtrip");
    status
}

fn bench_roundtrip(c: &mut Criterion) {
    let cold = boot(0);
    let warm = boot(256);
    let cold_addr = cold.addr().to_string();
    let warm_addr = warm.addr().to_string();
    let matrix = banded_mm(256, 2);
    let features = feature_body(11);

    let mut group = c.benchmark_group("serve_roundtrip");
    group.bench_function("healthz", |b| {
        b.iter(|| assert_eq!(roundtrip(&warm_addr, "GET", "/healthz", b""), 200));
    });
    group.bench_function("recommend_matrix_cold", |b| {
        b.iter(|| assert_eq!(roundtrip(&cold_addr, "POST", "/v1/recommend", &matrix), 200));
    });
    group.bench_function("recommend_matrix_hot", |b| {
        // Prime once; every iteration after is an LRU hit.
        assert_eq!(roundtrip(&warm_addr, "POST", "/v1/recommend", &matrix), 200);
        b.iter(|| assert_eq!(roundtrip(&warm_addr, "POST", "/v1/recommend", &matrix), 200));
    });
    group.bench_function("recommend_features", |b| {
        b.iter(|| {
            assert_eq!(
                roundtrip(&cold_addr, "POST", "/v1/recommend", &features),
                200
            )
        });
    });
    // The same shapes over one persistent connection: what a request
    // costs once connection setup is off the per-request path.
    let mut warm_conn = loadgen::KeepAliveClient::connect(&warm_addr).expect("connect keep-alive");
    let mut cold_conn = loadgen::KeepAliveClient::connect(&cold_addr).expect("connect keep-alive");
    group.bench_function("healthz_keepalive", |b| {
        b.iter(|| {
            let (status, _) = warm_conn.call("GET", "/healthz", b"").expect("healthz");
            assert_eq!(status, 200);
        });
    });
    group.bench_function("recommend_matrix_cold_keepalive", |b| {
        b.iter(|| {
            let (status, _) = cold_conn
                .call("POST", "/v1/recommend", &matrix)
                .expect("cold matrix");
            assert_eq!(status, 200);
        });
    });
    group.bench_function("recommend_matrix_hot_keepalive", |b| {
        // Prime once; every iteration after is an LRU hit.
        let (status, _) = warm_conn
            .call("POST", "/v1/recommend", &matrix)
            .expect("prime");
        assert_eq!(status, 200);
        b.iter(|| {
            let (status, _) = warm_conn
                .call("POST", "/v1/recommend", &matrix)
                .expect("hot matrix");
            assert_eq!(status, 200);
        });
    });
    group.finish();

    drop(warm_conn);
    drop(cold_conn);
    cold.shutdown();
    warm.shutdown();
}

fn bench_closed_loop(c: &mut Criterion) {
    let server = boot(256);
    let addr = server.addr().to_string();
    let mix = loadgen::build_mix(32, 7);

    let mut group = c.benchmark_group("serve_closed_loop");
    group.throughput(Throughput::Elements(mix.len() as u64));
    group.sample_size(20);
    for &concurrency in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("mix32", concurrency),
            &concurrency,
            |b, &concurrency| {
                b.iter(|| {
                    let report = loadgen::run(&addr, &mix, concurrency, false);
                    assert!(report.violations.is_empty(), "{:?}", report.violations);
                    report.outcomes.len()
                });
            },
        );
    }
    group.finish();
    server.shutdown();
}

fn bench_pipelined(c: &mut Criterion) {
    let server = boot(256);
    let addr = server.addr().to_string();
    let mix = loadgen::build_mix(32, 7);

    let mut group = c.benchmark_group("serve_pipelined");
    group.throughput(Throughput::Elements(mix.len() as u64));
    group.sample_size(20);
    for &depth in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("mix32_c4", depth), &depth, |b, &depth| {
            b.iter(|| {
                let report = loadgen::run_persistent(&addr, &mix, 4, depth, false);
                assert!(report.violations.is_empty(), "{:?}", report.violations);
                report.outcomes.len()
            });
        });
    }
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_roundtrip, bench_closed_loop, bench_pipelined);
criterion_main!(benches);
