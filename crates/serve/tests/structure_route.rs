//! The recommend route reads a MatrixMarket body's structure only,
//! classifying each value as zero or not. Against the real `spmv-serve`
//! binary, every response must be byte-equal to the value route's answer,
//! `AdvisorHandle::recommend_csr` over the f64 reader's matrix, computed
//! here in a separate process — for the bodies where values decide the
//! structure: explicit zeros, a zero and a non-zero at one coordinate,
//! symmetric pairs that cancel, and `pattern` and `integer` fields.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use spmv_core::AdvisorHandle;
use spmv_serve::http::error_body;
use spmv_serve::loadgen;

/// Boot the real binary on an ephemeral port, model-backed when `model`
/// is given, and return it with the address it prints once ready.
fn boot(model: Option<&Path>) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spmv-serve"));
    cmd.args(["--addr", "127.0.0.1:0", "--workers", "1"]);
    if let Some(model) = model {
        cmd.arg("--model").arg(model);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spmv-serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read listening line");
    assert!(
        line.contains("listening on"),
        "unexpected boot line: {line:?}"
    );
    let addr = line.trim().rsplit(' ').next().unwrap().to_string();
    loadgen::wait_ready(&addr, Duration::from_secs(10)).expect("server ready");
    (child, addr)
}

/// POST `body` to `/v1/recommend`; the status and the response body.
fn recommend(addr: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = format!(
        "POST /v1/recommend HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    (common::status_of(&response), common::body_of(&response))
}

/// The value route's answer: the f64 reader, then `recommend_csr`.
fn expected(handle: &AdvisorHandle, body: &[u8]) -> (u16, Vec<u8>) {
    match spmv_matrix::mm::read_matrix_market::<f64, _>(body) {
        Ok(coo) => {
            let mut json = handle.recommend_csr(&coo.to_csr()).to_json().into_bytes();
            json.push(b'\n');
            (200, json)
        }
        Err(e) => (400, error_body("bad_matrix", &e.to_string())),
    }
}

/// The entries of a 40x40 band of half-width 2 (its lower half in a
/// symmetric file, without the diagonal in a skew-symmetric one), each
/// value `value(r, c)` or a default.
fn band(
    field: &str,
    symmetry: &str,
    value: impl Fn(usize, usize) -> Option<&'static str>,
) -> Vec<String> {
    let mut lines = Vec::new();
    for r in 1..=40usize {
        for c in r.saturating_sub(2).max(1)..=(r + 2).min(40) {
            let keep = match symmetry {
                "general" => true,
                "symmetric" => c <= r,
                _ => c < r,
            };
            if !keep {
                continue;
            }
            lines.push(match field {
                "pattern" => format!("{r} {c}"),
                "integer" => format!("{r} {c} {}", value(r, c).unwrap_or("3")),
                _ => format!("{r} {c} {}", value(r, c).unwrap_or("1.25")),
            });
        }
    }
    lines
}

fn document(field: &str, symmetry: &str, lines: &[String]) -> Vec<u8> {
    let mut doc = format!(
        "%%MatrixMarket matrix coordinate {field} {symmetry}\n40 40 {}\n",
        lines.len()
    );
    for line in lines {
        doc.push_str(line);
        doc.push('\n');
    }
    doc.into_bytes()
}

fn bodies() -> Vec<(&'static str, Vec<u8>)> {
    let none = |_: usize, _: usize| None;
    let zeros = |r: usize, c: usize| (r * 7 + c).is_multiple_of(5).then_some("0.0");
    let mut unsorted = band("real", "general", zeros);
    unsorted.reverse();
    let mut repeat = band("real", "general", none);
    repeat.push("3 3 0.0".into());
    repeat.push("3 3 5.0".into());
    // The mirror of the declared (3,1) meets a declared (1,3) of the
    // opposite sum.
    let mut cancel = band("real", "symmetric", none);
    cancel.push("1 3 -1.25".into());
    let mut skew = band("real", "skew-symmetric", none);
    skew.push("1 3 1.25".into());
    let awkward = |r: usize, c: usize| match (r + c) % 6 {
        0 => Some("1e-400"),
        1 => Some(".5"),
        2 => Some("-0e99999"),
        3 => Some("4.9e-324"),
        _ => None,
    };
    vec![
        (
            "explicit zeros",
            document("real", "general", &band("real", "general", zeros)),
        ),
        (
            "explicit zeros, unsorted",
            document("real", "general", &unsorted),
        ),
        (
            "a zero and a non-zero at one coordinate",
            document("real", "general", &repeat),
        ),
        (
            "a symmetric pair that cancels",
            document("real", "symmetric", &cancel),
        ),
        (
            "a skew-symmetric pair that cancels",
            document("real", "skew-symmetric", &skew),
        ),
        (
            "pattern",
            document("pattern", "general", &band("pattern", "general", none)),
        ),
        (
            "integer zeros",
            document(
                "integer",
                "general",
                &band("integer", "general", |r, _| {
                    r.is_multiple_of(3).then_some("00")
                }),
            ),
        ),
        (
            "values the fast walk leaves to str::parse",
            document("real", "general", &band("real", "general", awkward)),
        ),
    ]
}

#[test]
fn the_bodies_are_the_cases_they_name() {
    let read = |body: &[u8]| spmv_matrix::mm::read_matrix_market_csr::<f64>(body);
    let bodies = bodies();
    let declared = |body: &[u8]| String::from_utf8_lossy(body).lines().count() - 2;
    let explicit = read(&bodies[0].1).unwrap();
    assert!(explicit.nnz() < declared(&bodies[0].1), "zeros are dropped");
    assert_eq!(read(&bodies[1].1).unwrap(), explicit);
    let repeat = read(&bodies[2].1).unwrap_err().to_string();
    assert!(repeat.contains("duplicate entry at (3, 3)"), "{repeat}");
    for (body, (r, c)) in [(&bodies[3].1, (0, 2)), (&bodies[4].1, (0, 2))] {
        let csr = read(body).unwrap();
        assert_eq!(
            (csr.get(r, c), csr.get(c, r)),
            (None, None),
            "the pair cancels"
        );
    }
    let integer = read(&bodies[6].1).unwrap();
    assert!(
        integer.nnz() < declared(&bodies[6].1),
        "integer zeros are dropped"
    );
}

#[test]
fn structure_route_answers_byte_equal_to_the_value_route() {
    let artifact = common::tiny_artifact();
    for (model, handle) in [
        (Some(artifact.as_path()), common::tiny_handle()),
        (None, AdvisorHandle::heuristic()),
    ] {
        let (mut child, addr) = boot(model);
        for (name, body) in bodies() {
            let want = expected(&handle, &body);
            let got = recommend(&addr, &body);
            assert_eq!(
                (got.0, String::from_utf8_lossy(&got.1)),
                (want.0, String::from_utf8_lossy(&want.1)),
                "{name} ({} backend)",
                handle.mode()
            );
        }
        assert_eq!(
            loadgen::send_shutdown(&addr).expect("shutdown accepted"),
            200
        );
        assert!(child.wait().expect("server exits").success());
    }
}
