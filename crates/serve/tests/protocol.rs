//! Adversarial protocol tests against a live server: every malformed or
//! hostile input must produce a *typed* 4xx/5xx (or deliberate silence
//! for half-requests) and must never take a worker down — the final
//! health check in each test proves the server still answers afterwards.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::{body_of, raw_exchange, spawn, status_of};
use spmv_core::AdvisorHandle;
use spmv_serve::loadgen::http_roundtrip;
use spmv_serve::ServerConfig;

/// Wire length of the first complete response in `buf` (head + declared
/// body), or None while it is still partial. Every server response
/// carries a Content-Length, so framing needs no chunked handling.
fn response_frame_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut body_len = 0usize;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                body_len = value.trim().parse().ok()?;
            }
        }
    }
    Some(head_end + 4 + body_len)
}

/// Split a raw capture of pipelined responses into per-response frames.
fn split_frames(mut raw: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while let Some(total) = response_frame_len(raw) {
        if raw.len() < total {
            break;
        }
        frames.push(raw[..total].to_vec());
        raw = &raw[total..];
    }
    frames
}

/// Read exactly one response frame off a live keep-alive connection,
/// carrying any over-read bytes in `residue` for the next call. Returns
/// an empty frame if the server closes first.
fn recv_one(stream: &mut std::net::TcpStream, residue: &mut Vec<u8>) -> Vec<u8> {
    loop {
        if let Some(total) = response_frame_len(residue) {
            if residue.len() >= total {
                let frame: Vec<u8> = residue.drain(..total).collect();
                return frame;
            }
        }
        let mut scratch = [0u8; 4096];
        match std::io::Read::read(stream, &mut scratch) {
            Ok(0) | Err(_) => return std::mem::take(residue),
            Ok(n) => residue.extend_from_slice(&scratch[..n]),
        }
    }
}

const HEALTHZ_KEEPALIVE: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";

fn small_server() -> spmv_serve::Server {
    spawn(
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            max_body_bytes: 64 * 1024,
            read_timeout_ms: 400,
            ..ServerConfig::default()
        },
        AdvisorHandle::heuristic(),
    )
}

fn assert_alive(server: &spmv_serve::Server) {
    let (status, body) =
        http_roundtrip(&server.addr().to_string(), "GET", "/healthz", b"").expect("healthz");
    assert_eq!(status, 200, "server must stay healthy after abuse");
    assert!(String::from_utf8_lossy(&body).contains("\"status\":\"ok\""));
}

#[test]
fn truncated_request_line_gets_silence_not_a_crash() {
    let server = small_server();
    let response = raw_exchange(server.addr(), b"POST /v1/reco");
    assert!(
        response.is_empty(),
        "a half request deserves no response, got {:?}",
        String::from_utf8_lossy(&response)
    );
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn empty_connection_gets_silence() {
    let server = small_server();
    let response = raw_exchange(server.addr(), b"");
    assert!(response.is_empty());
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn non_numeric_content_length_is_400() {
    let server = small_server();
    let response = raw_exchange(
        server.addr(),
        b"POST /v1/recommend HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert_eq!(status_of(&response), 400);
    assert!(String::from_utf8_lossy(&body_of(&response)).contains("bad_content_length"));
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn negative_content_length_is_400() {
    let server = small_server();
    let response = raw_exchange(
        server.addr(),
        b"POST /v1/recommend HTTP/1.1\r\nContent-Length: -20\r\n\r\n",
    );
    assert_eq!(status_of(&response), 400);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_declared_body_is_413_before_the_body_is_sent() {
    let server = small_server();
    // Declare far beyond max_body_bytes but send nothing after the
    // headers: the rejection must come from the declaration alone.
    let response = raw_exchange(
        server.addr(),
        b"POST /v1/recommend HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n",
    );
    assert_eq!(status_of(&response), 413);
    assert!(String::from_utf8_lossy(&body_of(&response)).contains("body_too_large"));
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn post_without_content_length_is_411() {
    let server = small_server();
    let response = raw_exchange(server.addr(), b"POST /v1/recommend HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&response), 411);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn chunked_transfer_encoding_is_501() {
    let server = small_server();
    let response = raw_exchange(
        server.addr(),
        b"POST /v1/recommend HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    );
    assert_eq!(status_of(&response), 501);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn http2_preface_is_505() {
    let server = small_server();
    let response = raw_exchange(server.addr(), b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n");
    assert_eq!(status_of(&response), 505);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn premature_disconnect_mid_body_gets_silence() {
    let server = small_server();
    let response = raw_exchange(
        server.addr(),
        b"POST /v1/recommend HTTP/1.1\r\nContent-Length: 5000\r\n\r\nonly a little",
    );
    assert!(
        response.is_empty(),
        "nothing sensible can be said to a vanished client"
    );
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn stalled_client_is_timed_out_with_408() {
    let server = small_server(); // read_timeout_ms = 400
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(&mut stream, b"GET /healthz HT").unwrap();
    // ...and stall without closing. The worker's socket timeout fires.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut out).unwrap();
    assert_eq!(status_of(&out), 408);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn non_utf8_body_is_typed_400() {
    let server = small_server();
    // Invalid UTF-8 after an opening brace: the feature-request path must
    // reject it as a typed error, not panic in a string conversion.
    let mut req = b"POST /v1/recommend HTTP/1.1\r\nContent-Length: 5\r\n\r\n".to_vec();
    req.extend_from_slice(b"{\xff\xfe\xfd}");
    let response = raw_exchange(server.addr(), &req);
    assert_eq!(status_of(&response), 400);
    assert!(String::from_utf8_lossy(&body_of(&response)).contains("bad_features"));
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn unrecognized_body_is_typed_400() {
    let server = small_server();
    let (status, body) = http_roundtrip(
        &server.addr().to_string(),
        "POST",
        "/v1/recommend",
        b"this is neither a matrix nor features",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("unrecognized_body"));
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn malformed_matrix_market_is_typed_400() {
    let server = small_server();
    let addr = server.addr().to_string();
    for body in [
        // Header promises 2 entries, delivers 1.
        &b"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n"[..],
        // Out-of-bounds coordinate.
        &b"%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n"[..],
        // Not a number where a value belongs.
        &b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 banana\n"[..],
    ] {
        let (status, response) = http_roundtrip(&addr, "POST", "/v1/recommend", body).unwrap();
        assert_eq!(status, 400, "body: {}", String::from_utf8_lossy(body));
        assert!(String::from_utf8_lossy(&response).contains("bad_matrix"));
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_matrix_declarations_are_typed_400() {
    let server = small_server();
    let addr = server.addr().to_string();
    for body in [
        // 5e9 rows: beyond the u32 index range.
        &b"%%MatrixMarket matrix coordinate real general\n5000000000 1 1\n1 1 1.0\n"[..],
        // 1e17 entries declared, one delivered.
        &b"%%MatrixMarket matrix coordinate real general\n1 1 99999999999999999\n1 1 1.0\n"[..],
    ] {
        let (status, response) = http_roundtrip(&addr, "POST", "/v1/recommend", body).unwrap();
        assert_eq!(status, 400, "body: {}", String::from_utf8_lossy(body));
        assert!(String::from_utf8_lossy(&response).contains("bad_matrix"));
        assert_alive(&server);
    }
    server.shutdown();
}

#[test]
fn wrong_arity_feature_vector_is_typed_400() {
    let server = small_server();
    let (status, body) = http_roundtrip(
        &server.addr().to_string(),
        "POST",
        "/v1/recommend",
        b"{\"features\":[1,2,3]}",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("expected exactly 17"));
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn non_finite_features_are_typed_400() {
    let server = small_server();
    // serde_json has no Infinity literal, so smuggle a huge exponent in:
    // 1e999 overflows to +inf on parse in permissive parsers or fails —
    // either way the server must answer 400, not 500.
    let (status, _body) = http_roundtrip(
        &server.addr().to_string(),
        "POST",
        "/v1/recommend",
        b"{\"features\":[1e999,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn unknown_path_is_404_and_wrong_method_is_405() {
    let server = small_server();
    let addr = server.addr().to_string();
    let (status, _) = http_roundtrip(&addr, "GET", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_roundtrip(&addr, "DELETE", "/healthz", b"").unwrap();
    assert_eq!(status, 405);
    // Admin shutdown is not routed unless explicitly enabled.
    let (status, _) = http_roundtrip(&addr, "POST", "/admin/shutdown", b"").unwrap();
    assert_eq!(status, 404);
    assert!(!server.shutdown_requested());
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn keep_alive_connection_answers_pipelined_requests_in_order() {
    let server = small_server();
    let mut burst = Vec::new();
    for _ in 0..5 {
        burst.extend_from_slice(HEALTHZ_KEEPALIVE);
    }
    // Half-close after the burst: every complete request must still be
    // answered, in order, before the server hangs up.
    let raw = raw_exchange(server.addr(), &burst);
    let frames = split_frames(&raw);
    assert_eq!(frames.len(), 5, "five requests, five responses");
    for frame in &frames {
        assert_eq!(status_of(frame), 200);
        assert!(String::from_utf8_lossy(frame).contains("Connection: keep-alive"));
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn pipelined_malformed_second_request_answers_first_then_400_and_closes() {
    let server = small_server();
    let mut burst = HEALTHZ_KEEPALIVE.to_vec();
    // Second request has an unparseable request line; a third, valid
    // request rides behind the poison and must be discarded unanswered.
    burst.extend_from_slice(b"BOGUS\r\n\r\n");
    burst.extend_from_slice(HEALTHZ_KEEPALIVE);
    let raw = raw_exchange(server.addr(), &burst);
    let frames = split_frames(&raw);
    assert_eq!(
        frames.iter().map(|f| status_of(f)).collect::<Vec<_>>(),
        vec![200, 400],
        "first answered, poison 400s, tail discarded: {}",
        String::from_utf8_lossy(&raw)
    );
    assert!(
        String::from_utf8_lossy(&frames[1]).contains("Connection: close"),
        "a protocol error must poison the connection"
    );
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn half_close_mid_pipeline_still_answers_the_complete_prefix() {
    let server = small_server();
    let mut burst = Vec::new();
    for _ in 0..3 {
        burst.extend_from_slice(HEALTHZ_KEEPALIVE);
    }
    // A truncated fourth request, then immediate half-close: the three
    // complete requests get answers, the stump gets silence.
    burst.extend_from_slice(b"GET /hea");
    let raw = raw_exchange(server.addr(), &burst);
    let frames = split_frames(&raw);
    assert_eq!(frames.len(), 3);
    assert!(frames.iter().all(|f| status_of(f) == 200));
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn slow_header_drip_on_a_reused_connection_times_out_with_408() {
    let server = small_server(); // read_timeout_ms = 400
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut residue = Vec::new();

    // One clean request proves the connection is established and kept.
    std::io::Write::write_all(&mut stream, HEALTHZ_KEEPALIVE).unwrap();
    let first = recv_one(&mut stream, &mut residue);
    assert_eq!(status_of(&first), 200);
    assert!(String::from_utf8_lossy(&first).contains("Connection: keep-alive"));

    // Now drip a few bytes of a second request and stall: the partial
    // read must trip the read deadline even on a warmed-up connection.
    std::io::Write::write_all(&mut stream, b"GET /he").unwrap();
    let mut out = residue;
    std::io::Read::read_to_end(&mut stream, &mut out).unwrap();
    assert_eq!(status_of(&out), 408);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn connection_survives_an_application_400_but_not_a_413() {
    let server = small_server();

    // An app-level 400 (well-framed request, rotten payload) must leave
    // the connection usable: HTTP framing was never in doubt.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut residue = Vec::new();
    let bad_matrix = b"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n";
    let req = format!(
        "POST /v1/recommend HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        bad_matrix.len()
    );
    std::io::Write::write_all(&mut stream, req.as_bytes()).unwrap();
    std::io::Write::write_all(&mut stream, bad_matrix).unwrap();
    let first = recv_one(&mut stream, &mut residue);
    assert_eq!(status_of(&first), 400);
    assert!(String::from_utf8_lossy(&first).contains("Connection: keep-alive"));
    std::io::Write::write_all(&mut stream, HEALTHZ_KEEPALIVE).unwrap();
    let second = recv_one(&mut stream, &mut residue);
    assert_eq!(
        status_of(&second),
        200,
        "connection must outlive an app 400"
    );

    // A 413, by contrast, is a framing-level rejection: the declared
    // body may still be in flight, so the server must hang up.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut residue = Vec::new();
    std::io::Write::write_all(
        &mut stream,
        b"POST /v1/recommend HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n",
    )
    .unwrap();
    let frame = recv_one(&mut stream, &mut residue);
    assert_eq!(status_of(&frame), 413);
    assert!(String::from_utf8_lossy(&frame).contains("Connection: close"));
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut rest).unwrap();
    assert!(rest.is_empty(), "nothing follows a 413 but EOF");

    assert_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_pipelined_backlog_is_bounded_by_keep_alive_max() {
    // A connection may not monopolize a shard forever: after
    // keep_alive_max_requests responses the server closes, and the
    // unserved tail of the backlog is discarded without a panic.
    let server = spawn(
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            keep_alive_max_requests: 64,
            ..ServerConfig::default()
        },
        AdvisorHandle::heuristic(),
    );
    let mut burst = Vec::new();
    for _ in 0..200 {
        burst.extend_from_slice(HEALTHZ_KEEPALIVE);
    }
    let raw = raw_exchange(server.addr(), &burst);
    let frames = split_frames(&raw);
    assert_eq!(frames.len(), 64, "exactly keep_alive_max_requests answers");
    assert!(frames.iter().all(|f| status_of(f) == 200));
    assert!(
        String::from_utf8_lossy(frames.last().unwrap()).contains("Connection: close"),
        "the final response must announce the hangup"
    );
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_headers_are_431() {
    let server = small_server();
    let mut req = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        req.extend_from_slice(format!("X-Padding-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    req.extend_from_slice(b"\r\n");
    let response = raw_exchange(server.addr(), &req);
    assert_eq!(status_of(&response), 431);
    assert_alive(&server);
    server.shutdown();
}
