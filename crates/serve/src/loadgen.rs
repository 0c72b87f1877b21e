//! Deterministic closed-loop load generation for `spmv-serve`.
//!
//! The request mix is a pure function of `(total, seed)`: the same inputs
//! always produce the same bodies in the same order, which is what lets
//! CI assert that the server's deterministic manifest section is
//! byte-identical across worker counts — the *work* is fixed, only the
//! scheduling varies. Bodies are synthesized with a local LCG (no
//! dependency on the workspace RNG stack) because the generator must stay
//! self-contained enough to run from the bench harness and the smoke job
//! alike. Besides recommend traffic the mix carries `POST /v1/feedback`
//! reports — measured ones that must be accepted and malformed ones that
//! must be rejected with a 4xx — so the online-learning ingestion path is
//! exercised (and its counters pinned) by every scripted run; the
//! end-to-end retrain→canary→swap scenarios live in [`crate::lifecycle`].
//!
//! One client drives the mix, in two connection modes ([`Transport`]).
//! Both render requests with one renderer and read responses with one
//! `Content-Length`-framed reader:
//!
//! - **one-shot**: every request rides its own connection with
//!   `Connection: close`, as a one-request client sends it. A request
//!   that draws no complete response is lost (status 0), never re-sent.
//! - **keep-alive + pipelining**: each client thread holds one
//!   persistent connection, claims `depth` consecutive mix indices at a
//!   time, writes them as one burst, and reads the responses back in
//!   order. When the server closes (its per-connection request budget,
//!   or an error), the unanswered tail of the burst is re-sent on a
//!   fresh connection, up to five times, so per-request status-class
//!   expectations hold in both modes.
//!
//! Closed-loop load is the right shape for a saturation test — offered
//! load adapts to service rate instead of stacking an unbounded
//! backlog.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Splitmix64 step — the mix generator's only source of "randomness".
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny deterministic RNG for body synthesis.
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Seeded generator; same seed, same stream.
    pub fn new(seed: u64) -> Lcg {
        Lcg {
            state: seed ^ 0xdead_beef_cafe_f00d,
        }
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state);
        mix(self.state)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// How the generator expects the server to classify a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectClass {
    /// Well-formed: the server must answer 200.
    Ok,
    /// Malformed on purpose: the server must answer a 4xx (never 5xx,
    /// never drop the connection without a response).
    ClientError,
}

/// One scripted request.
pub struct LoadRequest {
    /// Stable label for diagnostics (`"banded-17"`, `"bad-features-3"`, …).
    pub name: String,
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub target: &'static str,
    /// Request body (empty for GETs).
    pub body: Vec<u8>,
    /// The status class this request must produce.
    pub expect: ExpectClass,
}

/// A well-formed banded MatrixMarket body (`n` rows, bandwidth `bw`).
pub fn banded_mm(n: usize, bw: usize) -> Vec<u8> {
    let mut entries = Vec::new();
    for r in 0..n {
        for c in r.saturating_sub(bw)..(r + bw + 1).min(n) {
            entries.push((r + 1, c + 1, 1.0 + (r % 7) as f64));
        }
    }
    render_mm(n, n, &entries)
}

/// A well-formed sparse body with LCG-placed entries (distinct columns
/// per row; the strict parser rejects duplicate coordinates).
pub fn scattered_mm(n: usize, per_row: usize, rng: &mut Lcg) -> Vec<u8> {
    let mut entries = Vec::new();
    for r in 0..n {
        let mut cols: Vec<usize> = (0..per_row.max(1) * 3)
            .map(|_| rng.below(n as u64) as usize)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols.truncate(per_row.max(1));
        for c in cols {
            entries.push((r + 1, c + 1, 0.5 + (rng.below(16) as f64) / 8.0));
        }
    }
    render_mm(n, n, &entries)
}

/// A body with one pathologically heavy row (the HYB/merge regime).
pub fn skewed_mm(n: usize) -> Vec<u8> {
    let mut entries = Vec::new();
    for c in 0..n {
        entries.push((1, c + 1, 2.0));
    }
    for r in 1..n {
        entries.push((r + 1, r + 1, 1.0));
    }
    render_mm(n, n, &entries)
}

fn render_mm(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> Vec<u8> {
    let mut s = String::with_capacity(32 + entries.len() * 12);
    s.push_str("%%MatrixMarket matrix coordinate real general\n");
    s.push_str(&format!("{rows} {cols} {}\n", entries.len()));
    for (r, c, v) in entries {
        s.push_str(&format!("{r} {c} {v}\n"));
    }
    s.into_bytes()
}

/// `Format::label()` strings, for synthesizing feedback bodies without
/// dragging the matrix crate into the generator's non-test surface.
pub const FORMAT_LABELS: [&str; 6] = ["COO", "ELL", "CSR", "HYB", "merge-CSR", "CSR5"];

/// A feature-vector request body: 17 finite values derived from `seed`.
pub fn feature_body(seed: u64) -> Vec<u8> {
    let mut rng = Lcg::new(seed);
    let n_rows = 256.0 + rng.below(4096) as f64;
    let mu = 1.0 + rng.below(32) as f64;
    let mut values = [0.0_f64; 17];
    values[0] = n_rows; // n_rows
    values[1] = n_rows; // n_cols
    values[2] = n_rows * mu; // nnz_tot
    values[3] = mu; // nnz_mu
    values[4] = mu / n_rows; // nnz_frac
    values[5] = mu * (1.0 + rng.below(4) as f64); // nnz_max
    values[6] = mu / (2.0 + rng.below(3) as f64); // nnz_sigma
    for v in values.iter_mut().skip(7) {
        *v = rng.below(64) as f64;
    }
    let mut s = String::from("{\"features\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{v}"));
    }
    s.push_str("]}");
    s.into_bytes()
}

/// A measured-feedback body echoing `feature_body(seed)`'s features: the
/// client reports it ran `format` on that matrix for `seconds`, on a
/// recommendation from `generation`.
pub fn feedback_body(seed: u64, format: &str, generation: u64, seconds: f64) -> Vec<u8> {
    let mut body = feature_body(seed);
    body.pop(); // trailing '}'
    body.extend_from_slice(
        format!(",\"format\":\"{format}\",\"generation\":{generation},\"seconds\":{seconds}")
            .as_bytes(),
    );
    body.push(b'}');
    body
}

/// A failed-outcome feedback body: `format` failed outright on the
/// client for the matrix behind `feature_body(seed)`.
pub fn feedback_failed_body(seed: u64, format: &str, generation: u64) -> Vec<u8> {
    let mut body = feature_body(seed);
    body.pop(); // trailing '}'
    body.extend_from_slice(
        format!(",\"format\":\"{format}\",\"generation\":{generation},\"status\":\"failed\"")
            .as_bytes(),
    );
    body.push(b'}');
    body
}

/// Build the scripted mix: well-formed matrices (banded, scattered,
/// skewed), feature vectors, exact repeats (cache food), measured and
/// malformed feedback reports, and malformed recommend payloads,
/// interleaved on a fixed cycle. Pure in `(total, seed)`.
pub fn build_mix(total: usize, seed: u64) -> Vec<LoadRequest> {
    let mut rng = Lcg::new(seed);
    let mut out: Vec<LoadRequest> = Vec::with_capacity(total);
    for i in 0..total {
        let req = match i % 10 {
            0 => LoadRequest {
                name: format!("banded-{i}"),
                method: "POST",
                target: "/v1/recommend",
                body: banded_mm(48 + (i % 5) * 16, 1 + i % 3),
                expect: ExpectClass::Ok,
            },
            1 => LoadRequest {
                name: format!("features-{i}"),
                method: "POST",
                target: "/v1/recommend",
                body: feature_body(seed.wrapping_add(i as u64)),
                expect: ExpectClass::Ok,
            },
            2 => LoadRequest {
                name: format!("scattered-{i}"),
                method: "POST",
                target: "/v1/recommend",
                body: scattered_mm(40 + i % 7, 3, &mut rng),
                expect: ExpectClass::Ok,
            },
            3 => {
                // Exact repeat of an earlier well-formed request: cache food.
                // Indices 0/1/2 mod 10 are always well-formed, so aim there.
                let back = (i / 2) - (i / 2) % 10 + (i % 3);
                let donor = &out[back];
                LoadRequest {
                    name: format!("repeat-{i}-of-{back}"),
                    method: donor.method,
                    target: donor.target,
                    body: donor.body.clone(),
                    expect: donor.expect,
                }
            }
            4 => LoadRequest {
                name: format!("bad-matrix-{i}"),
                method: "POST",
                target: "/v1/recommend",
                body: match i % 3 {
                    0 => {
                        b"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n".to_vec()
                    }
                    1 => b"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n".to_vec(),
                    _ => {
                        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n".to_vec()
                    }
                },
                expect: ExpectClass::ClientError,
            },
            5 => LoadRequest {
                name: format!("bad-features-{i}"),
                method: "POST",
                target: "/v1/recommend",
                body: match i % 3 {
                    0 => b"{\"features\":[1,2,3]}".to_vec(),
                    1 => b"{\"features\":\"oops\"}".to_vec(),
                    _ => b"{\"other\":true}".to_vec(),
                },
                expect: ExpectClass::ClientError,
            },
            6 => LoadRequest {
                name: format!("healthz-{i}"),
                method: "GET",
                target: "/healthz",
                body: Vec::new(),
                expect: ExpectClass::Ok,
            },
            7 => LoadRequest {
                name: format!("skewed-{i}"),
                method: "POST",
                target: "/v1/recommend",
                body: skewed_mm(64 + (i % 4) * 8),
                expect: ExpectClass::Ok,
            },
            8 => {
                // Measured feedback against the boot generation (0), which
                // every server has. Distinct seeds keep the bodies distinct,
                // so the reservoir counters stay a pure function of the mix.
                let label = FORMAT_LABELS[rng.below(FORMAT_LABELS.len() as u64) as usize];
                let seconds = (1 + rng.below(1000)) as f64 * 1e-7;
                LoadRequest {
                    name: format!("feedback-{i}"),
                    method: "POST",
                    target: "/v1/feedback",
                    body: feedback_body(seed.wrapping_add(i as u64), label, 0, seconds),
                    expect: ExpectClass::Ok,
                }
            }
            _ => LoadRequest {
                name: format!("bad-feedback-{i}"),
                method: "POST",
                target: "/v1/feedback",
                body: match i % 3 {
                    // Wrong arity, unknown format, unknown generation.
                    0 => b"{\"features\":[1,2],\"format\":\"CSR\",\"seconds\":0.001}".to_vec(),
                    1 => feedback_body(seed.wrapping_add(i as u64), "NOPE", 0, 1e-6),
                    _ => feedback_body(seed.wrapping_add(i as u64), "CSR", 9999, 1e-6),
                },
                expect: ExpectClass::ClientError,
            },
        };
        out.push(req);
    }
    out
}

/// What one request produced.
pub struct Outcome {
    /// Index into the scripted mix.
    pub index: usize,
    /// HTTP status (0 when the connection failed outright).
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Round-trip latency.
    pub latency: Duration,
}

/// Aggregated run results.
pub struct LoadReport {
    /// Per-request outcomes, sorted by mix index.
    pub outcomes: Vec<Outcome>,
    /// Requests per status code.
    pub statuses: BTreeMap<u16, usize>,
    /// Mix entries whose status class contradicted their expectation
    /// (names), excluding 503s when `allow_503` was set.
    pub violations: Vec<String>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Sorted latencies in nanoseconds.
    fn sorted_latencies_ns(&self) -> Vec<u128> {
        let mut v: Vec<u128> = self.outcomes.iter().map(|o| o.latency.as_nanos()).collect();
        v.sort_unstable();
        v
    }

    fn quantile_ns(sorted: &[u128], q: f64) -> u128 {
        if sorted.is_empty() {
            return 0;
        }
        let pos = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[pos.min(sorted.len() - 1)]
    }

    /// Render the report as one JSON object (statuses, violation names,
    /// throughput, latency quantiles, and a log2 latency histogram).
    pub fn to_json(&self) -> String {
        let sorted = self.sorted_latencies_ns();
        let secs = self.elapsed.as_secs_f64();
        let throughput = if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        };
        // log2 histogram over microseconds: bucket k counts latencies in
        // [2^k, 2^(k+1)) us.
        let mut histogram: BTreeMap<u32, usize> = BTreeMap::new();
        for ns in &sorted {
            let us = (ns / 1_000).max(1);
            let bucket = 127 - u128::leading_zeros(us);
            *histogram.entry(bucket).or_insert(0) += 1;
        }
        let mut s = String::from("{");
        s.push_str(&format!("\"requests\":{},", self.outcomes.len()));
        s.push_str(&format!("\"elapsed_seconds\":{secs},"));
        s.push_str(&format!("\"throughput_rps\":{throughput},"));
        s.push_str("\"statuses\":{");
        for (i, (code, count)) in self.statuses.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{code}\":{count}"));
        }
        s.push_str("},");
        s.push_str(&format!(
            "\"latency_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},",
            Self::quantile_ns(&sorted, 0.50),
            Self::quantile_ns(&sorted, 0.90),
            Self::quantile_ns(&sorted, 0.99),
            sorted.last().copied().unwrap_or(0),
        ));
        s.push_str("\"latency_log2us_histogram\":{");
        for (i, (bucket, count)) in histogram.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{bucket}\":{count}"));
        }
        s.push_str("},");
        s.push_str("\"violations\":[");
        for (i, name) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{name}\""));
        }
        s.push_str("]}");
        s
    }
}

/// How [`run`] talks to the server.
#[derive(Debug, Clone, Copy)]
pub enum Transport {
    /// One request per connection, sent with `Connection: close`. A
    /// request that draws no complete response is lost (status 0) and
    /// never re-sent.
    OneShot,
    /// Keep-alive connections, each write burst pipelining this many
    /// requests. When the server closes a connection, the unanswered tail
    /// of the burst is re-sent on a fresh one.
    Pipelined(usize),
}

/// Read and write timeout of every client connection.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Times a keep-alive burst that drew no response is re-sent before its
/// requests are recorded as lost.
const KEEP_ALIVE_RETRIES: u32 = 5;

/// Open a client connection: Nagle off, [`IO_TIMEOUT`] both ways.
fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Append one request to `wire`. `close` sends `Connection: close`;
/// without it HTTP/1.1 keeps the connection alive.
fn render_request(
    wire: &mut Vec<u8>,
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    close: bool,
) {
    wire.extend_from_slice(format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\n").as_bytes());
    if !body.is_empty() || method == "POST" {
        wire.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    if close {
        wire.extend_from_slice(b"Connection: close\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
}

/// Read one `Content-Length`-framed response as `(status, body, close)`,
/// `close` being the server's `Connection: close`. Bytes read past the
/// response stay in `residue` for the next call, so pipelined responses
/// come off one connection in order.
fn read_response(
    stream: &mut impl Read,
    residue: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>, bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    loop {
        if let Some(head_end) = residue.windows(4).position(|w| w == b"\r\n\r\n") {
            let head =
                std::str::from_utf8(&residue[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
            let mut lines = head.lines();
            let status = lines
                .next()
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|code| code.parse::<u16>().ok())
                .ok_or_else(|| bad("unparsable status line"))?;
            let mut length = 0usize;
            let mut close = false;
            for (name, value) in lines.filter_map(|line| line.split_once(':')) {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
            let end = length
                .checked_add(head_end + 4)
                .ok_or_else(|| bad("bad Content-Length"))?;
            if residue.len() >= end {
                let body = residue[head_end + 4..end].to_vec();
                residue.drain(..end);
                return Ok((status, body, close));
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ))
            }
            n => residue.extend_from_slice(&chunk[..n]),
        }
    }
}

/// One HTTP/1.1 round trip over a fresh connection, sent with
/// `Connection: close`. Returns `(status, body)`.
pub fn http_roundtrip(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = connect(addr)?;
    let mut wire = Vec::with_capacity(128 + body.len());
    render_request(&mut wire, addr, method, target, body, true);
    stream.write_all(&wire)?;
    let (status, body, _close) = read_response(&mut stream, &mut Vec::new())?;
    Ok((status, body))
}

/// Block until the server answers `GET /healthz` with 200. A bare
/// connect is not enough: the server binds its listener before the rest
/// of its boot, so a connect can succeed while nothing serves yet. Each
/// attempt's connect, write and read are bounded by the time left, so
/// this errors within `timeout` even against a server that accepts and
/// never answers. The probe that succeeds is one served request, the
/// same in every run, so the deterministic counters stay comparable.
pub fn wait_ready(addr: &str, timeout: Duration) -> std::io::Result<()> {
    const RETRY: Duration = Duration::from_millis(20);
    let deadline = Instant::now() + timeout;
    loop {
        let err = match healthz_status(addr, deadline) {
            Ok(200) => return Ok(()),
            Ok(status) => std::io::Error::other(format!("/healthz answered {status}")),
            Err(e) => e,
        };
        if Instant::now() + RETRY >= deadline {
            return Err(err);
        }
        std::thread::sleep(RETRY);
    }
}

/// One `GET /healthz` on a fresh connection, every step bounded by
/// `deadline`; the response status.
fn healthz_status(addr: &str, deadline: Instant) -> std::io::Result<u16> {
    let left = || {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            Err(std::io::Error::from(std::io::ErrorKind::TimedOut))
        } else {
            Ok(left)
        }
    };
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("{addr} resolves to no address")))?;
    let mut stream = TcpStream::connect_timeout(&target, left()?)?;
    stream.set_write_timeout(Some(left()?))?;
    stream.set_read_timeout(Some(left()?))?;
    let mut wire = Vec::with_capacity(128);
    render_request(&mut wire, addr, "GET", "/healthz", b"", true);
    stream.write_all(&wire)?;
    read_response(&mut stream, &mut Vec::new()).map(|(status, _, _)| status)
}

/// Ask a `spmv-serve` with the admin endpoint enabled to shut down.
pub fn send_shutdown(addr: &str) -> std::io::Result<u16> {
    http_roundtrip(addr, "POST", "/admin/shutdown", b"").map(|(code, _)| code)
}

/// A client connection, opened on demand and reopened after the server
/// closes it. [`run`] drives one per client thread; the bench harness
/// holds one to measure the protocol floor without paying per-request
/// connection setup.
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    residue: Vec<u8>,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
            residue: Vec::new(),
        }
    }

    /// A client holding an open connection to `addr`.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let mut client = Client::new(addr);
        client.stream = Some(connect(addr)?);
        Ok(client)
    }

    /// Write `wire`, the rendered requests `indices` of a mix, as one
    /// burst on the live connection (opening one if none is live), and
    /// push their outcomes onto `out` in order. Latency counts from
    /// before the connect. The connection is dropped after a `close`
    /// burst, at a response that announces `Connection: close`, and on
    /// any error, which leaves the outcomes read before it in `out`.
    fn exchange(
        &mut self,
        wire: &[u8],
        indices: std::ops::Range<usize>,
        close: bool,
        out: &mut Vec<Outcome>,
    ) -> std::io::Result<()> {
        let sent = Instant::now();
        let stream = match self.stream.as_mut() {
            Some(stream) => stream,
            None => {
                self.residue.clear();
                self.stream.insert(connect(&self.addr)?)
            }
        };
        let mut keep = !close;
        let result = stream.write_all(wire).and_then(|()| {
            for index in indices {
                let (status, body, server_close) = read_response(stream, &mut self.residue)?;
                let latency = sent.elapsed();
                out.push(Outcome {
                    index,
                    status,
                    body,
                    latency,
                });
                if server_close {
                    keep = false;
                    break;
                }
            }
            Ok(())
        });
        if result.is_err() || !keep {
            self.stream = None;
        }
        result
    }

    /// One keep-alive round trip, reconnecting and retrying once if the
    /// server hung up between requests.
    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut wire = Vec::with_capacity(128 + body.len());
        render_request(&mut wire, &self.addr, method, target, body, false);
        let mut out = Vec::with_capacity(1);
        let mut result = Ok(());
        for _ in 0..2 {
            result = self.exchange(&wire, 0..1, false, &mut out);
            if let Some(outcome) = out.pop() {
                return Ok((outcome.status, outcome.body));
            }
        }
        Err(result
            .err()
            .unwrap_or_else(|| std::io::Error::other("no response")))
    }
}

/// Drive the scripted `mix` against `addr` with `concurrency` closed-loop
/// client threads. Each thread claims one request at a time
/// ([`Transport::OneShot`]) or `depth` consecutive ones
/// ([`Transport::Pipelined`]), writes them as one burst, and reads the
/// responses in order; every mix entry gets exactly one outcome, status 0
/// when it was lost. `allow_503` exempts overload rejections from the
/// expectation check (used when probing saturation on purpose).
pub fn run(
    addr: &str,
    mix: &[LoadRequest],
    concurrency: usize,
    transport: Transport,
    allow_503: bool,
) -> LoadReport {
    let (depth, close, retries) = match transport {
        Transport::OneShot => (1, true, 0),
        Transport::Pipelined(depth) => (depth.max(1), false, KEEP_ALIVE_RETRIES),
    };
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..concurrency.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut outcomes = Vec::new();
                    let mut wire = Vec::new();
                    loop {
                        let start = cursor.fetch_add(depth, Ordering::Relaxed);
                        if start >= mix.len() {
                            return outcomes;
                        }
                        let claimed = Instant::now();
                        let mut pending = start..(start + depth).min(mix.len());
                        let mut failures = 0;
                        while !pending.is_empty() && failures <= retries {
                            wire.clear();
                            for req in &mix[pending.clone()] {
                                render_request(
                                    &mut wire, addr, req.method, req.target, &req.body, close,
                                );
                            }
                            let before = outcomes.len();
                            // A lost response shows as a short burst; the
                            // error itself adds nothing to the report.
                            let _lost =
                                client.exchange(&wire, pending.clone(), close, &mut outcomes);
                            let answered = outcomes.len() - before;
                            pending.start += answered;
                            failures = if answered == 0 { failures + 1 } else { 0 };
                        }
                        outcomes.extend(pending.map(|index| Outcome {
                            index,
                            status: 0,
                            body: Vec::new(),
                            latency: claimed.elapsed(),
                        }));
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|thread| {
                thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    aggregate(mix, outcomes, started.elapsed(), allow_503)
}

/// Fold raw outcomes into the report, checking every request's status
/// class against its scripted expectation.
fn aggregate(
    mix: &[LoadRequest],
    mut outcomes: Vec<Outcome>,
    elapsed: Duration,
    allow_503: bool,
) -> LoadReport {
    outcomes.sort_by_key(|o| o.index);
    let mut statuses = BTreeMap::new();
    let mut violations = Vec::new();
    for outcome in &outcomes {
        *statuses.entry(outcome.status).or_insert(0) += 1;
        let ok_class = (200..300).contains(&outcome.status);
        let client_class = (400..500).contains(&outcome.status);
        let fine = match mix[outcome.index].expect {
            ExpectClass::Ok => ok_class || (allow_503 && outcome.status == 503),
            ExpectClass::ClientError => client_class,
        };
        if !fine {
            violations.push(format!("{}:{}", mix[outcome.index].name, outcome.status));
        }
    }
    LoadReport {
        outcomes,
        statuses,
        violations,
        elapsed,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_in_total_and_seed() {
        let a = build_mix(64, 7);
        let b = build_mix(64, 7);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.body, y.body);
            assert_eq!(x.expect, y.expect);
        }
        let c = build_mix(64, 8);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.body != y.body),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn mix_contains_exact_repeats_and_both_classes() {
        let mix = build_mix(64, 7);
        let repeats = mix
            .iter()
            .enumerate()
            .filter(|(i, r)| i % 10 == 3 && mix.iter().take(*i).any(|p| p.body == r.body))
            .count();
        assert!(repeats >= 6, "cache food missing: {repeats}");
        assert!(mix.iter().any(|r| r.expect == ExpectClass::ClientError));
        assert!(mix.iter().any(|r| r.expect == ExpectClass::Ok));
    }

    #[test]
    fn repeat_donors_are_always_well_formed() {
        for total in [16usize, 64, 200] {
            let mix = build_mix(total, 3);
            for (i, r) in mix.iter().enumerate() {
                if i % 10 == 3 {
                    assert_eq!(r.expect, ExpectClass::Ok, "repeat {i} donor malformed");
                }
            }
        }
    }

    #[test]
    fn mix_contains_feedback_of_both_classes_with_distinct_ok_bodies() {
        let mix = build_mix(64, 7);
        let ok_feedback: Vec<_> = mix
            .iter()
            .filter(|r| r.target == "/v1/feedback" && r.expect == ExpectClass::Ok)
            .collect();
        let bad_feedback = mix
            .iter()
            .filter(|r| r.target == "/v1/feedback" && r.expect == ExpectClass::ClientError)
            .count();
        assert!(ok_feedback.len() >= 5, "measured feedback missing");
        assert!(bad_feedback >= 5, "malformed feedback missing");
        // Distinct bodies: the reservoir's insert counter equals the
        // feedback count regardless of arrival order only when no two
        // scripted events are exact duplicates.
        for (a, x) in ok_feedback.iter().enumerate() {
            for y in ok_feedback.iter().skip(a + 1) {
                assert_ne!(x.body, y.body, "duplicate scripted feedback");
            }
        }
    }

    #[test]
    fn feedback_bodies_embed_format_generation_and_outcome() {
        let measured = String::from_utf8(feedback_body(9, "CSR5", 3, 0.00025)).unwrap();
        assert!(measured.starts_with("{\"features\":["));
        assert!(measured.contains("\"format\":\"CSR5\""), "{measured}");
        assert!(measured.contains("\"generation\":3"), "{measured}");
        assert!(measured.contains("\"seconds\":0.00025"), "{measured}");
        let failed = String::from_utf8(feedback_failed_body(9, "ELL", 1)).unwrap();
        assert!(failed.contains("\"status\":\"failed\""), "{failed}");
        assert!(failed.contains("\"generation\":1"), "{failed}");
        // Every advertised label round-trips through the server's format
        // table (compile-time drift check against spmv_matrix).
        for (label, format) in FORMAT_LABELS.iter().zip(spmv_matrix::Format::ALL) {
            assert_eq!(*label, format.label(), "FORMAT_LABELS out of sync");
        }
    }

    #[test]
    fn generated_matrices_parse() {
        let mut rng = Lcg::new(5);
        for body in [
            banded_mm(32, 2),
            scattered_mm(20, 3, &mut rng),
            skewed_mm(24),
        ] {
            spmv_matrix::mm::read_matrix_market::<f64, _>(&body[..])
                .expect("generator emits valid mm");
        }
    }

    #[test]
    fn feature_bodies_are_valid_json_with_17_finite_values() {
        for seed in 0..8 {
            let body = feature_body(seed);
            let text = std::str::from_utf8(&body).unwrap();
            assert!(text.starts_with("{\"features\":["));
            let inner = text
                .trim_start_matches("{\"features\":[")
                .trim_end_matches("]}");
            let values: Vec<f64> = inner.split(',').map(|v| v.parse().unwrap()).collect();
            assert_eq!(values.len(), 17);
            assert!(values.iter().all(|v| v.is_finite()));
        }
    }

    /// The two connection modes under test, at two client threads.
    fn one_shot(addr: &str, mix: &[LoadRequest]) -> LoadReport {
        run(addr, mix, 2, Transport::OneShot, false)
    }

    fn keep_alive(addr: &str, mix: &[LoadRequest], depth: usize) -> LoadReport {
        run(addr, mix, 2, Transport::Pipelined(depth), false)
    }

    /// A listener that accepts every connection and, without reading a
    /// byte or answering, closes it at once or (`hold`) keeps it open
    /// until [`MuteServer::finish`].
    struct MuteServer {
        addr: String,
        stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
        thread: std::thread::JoinHandle<usize>,
    }

    impl MuteServer {
        fn start() -> MuteServer {
            MuteServer::start_with(false)
        }

        fn start_with(hold: bool) -> MuteServer {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let flag = std::sync::Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                let mut accepted = 0;
                let mut held = Vec::new();
                loop {
                    // Read the flag before polling: every connection the
                    // client opened was queued before the flag was set,
                    // so an empty queue seen after it holds them all.
                    let stopping = flag.load(Ordering::SeqCst);
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if hold {
                                held.push(stream);
                            }
                            accepted += 1;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if stopping {
                                return accepted;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("accept failed: {e}"),
                    }
                }
            });
            MuteServer { addr, stop, thread }
        }

        /// Stop accepting; the number of connections accepted.
        fn finish(self) -> usize {
            self.stop.store(true, Ordering::SeqCst);
            self.thread.join().unwrap()
        }
    }

    fn assert_every_request_lost(report: &LoadReport, mix: &[LoadRequest]) {
        assert_eq!(report.outcomes.len(), mix.len());
        assert_eq!(report.statuses, BTreeMap::from([(0, mix.len())]));
        assert_eq!(report.violations.len(), mix.len());
        for (outcome, (index, req)) in report.outcomes.iter().zip(mix.iter().enumerate()) {
            assert_eq!(outcome.index, index);
            assert!(report.violations.contains(&format!("{}:0", req.name)));
        }
    }

    #[test]
    fn one_shot_run_against_a_mute_server_loses_each_request_on_one_connection() {
        let mix = build_mix(10, 7);
        let server = MuteServer::start();
        let report = one_shot(&server.addr, &mix);
        let accepted = server.finish();
        assert_every_request_lost(&report, &mix);
        assert_eq!(accepted, mix.len(), "one-shot mode must never re-send");
    }

    #[test]
    fn keep_alive_run_against_a_mute_server_gives_up_after_its_retry_budget() {
        let mix = build_mix(10, 7);
        let server = MuteServer::start();
        let report = keep_alive(&server.addr, &mix, 4);
        let accepted = server.finish();
        assert_every_request_lost(&report, &mix);
        // Chunks of 4, 4 and 2 requests, each tried once and re-sent five
        // times, every try on a fresh connection.
        assert_eq!(accepted, 3 * 6);
    }

    #[test]
    fn wait_ready_gives_up_within_its_timeout_on_a_server_that_never_answers() {
        let server = MuteServer::start_with(true);
        let timeout = Duration::from_millis(400);
        let start = Instant::now();
        let result = wait_ready(&server.addr, timeout);
        let waited = start.elapsed();
        let accepted = server.finish();
        assert!(result.is_err(), "an unanswered probe is not readiness");
        assert!(waited < timeout + Duration::from_millis(200), "{waited:?}");
        assert!(accepted >= 1, "the probe must have connected");
    }

    #[test]
    fn wait_ready_succeeds_against_a_live_server() {
        let server = crate::Server::spawn(
            crate::ServerConfig {
                workers: 1,
                ..crate::ServerConfig::default()
            },
            spmv_core::AdvisorHandle::heuristic(),
        )
        .unwrap();
        let addr = server.addr().to_string();
        let result = wait_ready(&addr, Duration::from_secs(10));
        server.shutdown();
        result.unwrap();
    }

    #[test]
    fn response_parser_splits_status_and_body() {
        let mut raw: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        let mut residue = Vec::new();
        let (code, body, close) = read_response(&mut raw, &mut residue).unwrap();
        assert_eq!((code, &body[..], close), (200, &b"hi"[..], false));
        assert!(residue.is_empty());

        // Two pipelined responses in one buffer come back one by one,
        // the second carried over in the residue.
        let mut raw: &[u8] =
            b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\none\
              HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let mut residue = Vec::new();
        let first = read_response(&mut raw, &mut residue).unwrap();
        assert_eq!(first, (200, b"one".to_vec(), false));
        let second = read_response(&mut raw, &mut residue).unwrap();
        assert_eq!(second, (404, b"{}".to_vec(), true));
        assert!(residue.is_empty());
        let eof = read_response(&mut raw, &mut residue).unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
