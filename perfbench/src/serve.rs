//! `serve-cold`, and the serving probe of the other workloads: the
//! shipped `spmv-serve` binary, with one worker shard, under load from one
//! client thread of this process on one keep-alive connection. In
//! `serve-cold`, server and client are pinned to two different CPUs, so
//! neither the schedule nor the server's throughput depends on where the
//! kernel happens to place them.
//!
//! Each run measures saturation first — a closed loop at a fixed
//! pipeline depth — then an open loop at a fixed rate, timing each request
//! from its scheduled send. The probe sends the `hot` mix: about 90% of
//! its recommends hit the cache, and it carries feedback writes.
//! Every response is checked against the request's expectation; 200
//! recommend bodies must equal the in-process `AdvisorHandle` answer.

use std::collections::VecDeque;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;
use spmv_core::AdvisorHandle;
use spmv_corpus::{CorpusScale, SyntheticSuite};
use spmv_features::{extract_with_stats, FeatureVector};
use spmv_matrix::{CsrMatrix, RowStats};
use spmv_serve::http::{parse_request, Limits, Parse};
use spmv_serve::loadgen;

use crate::common::{self, Ctx, Manifest, Rng};
use crate::report::{quantile, Outcome};
use crate::Args;

/// How a request script is sent.
#[derive(Clone, Copy)]
struct Load {
    /// Open-loop rate (requests/s): about half of the script's `sat_rps`
    /// on a 2-core container when the benchmark was defined. Nearer
    /// saturation, queueing amplified the host's noise into several-fold
    /// swings of the latency figures between runs.
    open_rate: f64,
    /// Requests in flight in the closed (saturation) loop.
    depth: usize,
}

const COLD_LOAD: Load = Load {
    open_rate: 130.0,
    depth: 4,
};
const HOT_LOAD: Load = Load {
    open_rate: 8000.0,
    depth: 16,
};
/// Slices of the `serve-cold` open-loop schedule whose latency quantiles
/// are combined; each slice keeps at least 500 samples.
const LATENCY_WINDOWS: usize = 4;

/// Server shards: one, on a CPU of its own beside the load generator's.
const SERVER_WORKERS: usize = 1;
/// A send more than this late against its schedule counts as late.
const LATE_AFTER: Duration = Duration::from_millis(2);
/// Above this share of late sends the generator fell behind and the
/// run is invalid.
const MAX_LATE_SHARE: f64 = 0.05;
/// The open-loop client polls instead of sleeping this close to a send.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// How long the open loop waits for outstanding answers after its last
/// send before counting them as failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);
/// Share of the measuring time given to the saturation loop; the open
/// loop, whose latencies are gated, gets the rest.
const SAT_SHARE: f64 = 0.25;
/// Slices of the saturation loop whose rates are combined.
const SAT_WINDOWS: usize = 14;
/// Closed-loop requests that warm each server of a traced run.
const WARM_UP_REQUESTS: usize = 4 * COLD_DOCS;
/// Requests the traced run replays in process, layer by layer: ten
/// cycles of the `serve-cold` pool.
const REPLAY_REQUESTS: usize = 10 * COLD_DOCS;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Length of the open loop of a serving probe in another workload.
const PROBE_SECONDS: f64 = 2.0;

// ---------------------------------------------------------------------------
// The server process.
// ---------------------------------------------------------------------------

/// Build the shipped server binary (outside any timed region) and return
/// its path.
fn build_server(ctx: &Ctx) -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(&ctx.root)
        .env("CARGO_TARGET_DIR", &target)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "spmv-serve",
            "--bin",
            "spmv-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building spmv-serve failed: {status}"));
    }
    let bin = ctx.root.join(target).join("release/spmv-serve");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

struct ServerProc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: std::process::ChildStdout,
    addr: String,
    trace_out: Option<PathBuf>,
}

/// How to start a server: the built binary and the CPU to pin it to.
/// The CPU is chosen once, before the load generator pins itself (after
/// which this process may use only one CPU).
struct ServerBin {
    path: PathBuf,
    cpu: Option<usize>,
}

impl ServerProc {
    /// Spawn the server on an ephemeral port and wait until `/healthz`
    /// answers in model mode. Returns the server and its boot time.
    fn boot(
        bin: &ServerBin,
        model: &Path,
        trace_out: Option<PathBuf>,
    ) -> Result<(ServerProc, f64), String> {
        let start = Instant::now();
        let mut cmd = Command::new(&bin.path);
        cmd.args(["--model"])
            .arg(model)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &SERVER_WORKERS.to_string(),
            ])
            // One connection carries a whole run.
            .args(["--keep-alive-max", "1000000000"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(path) = &trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        // The server dies with the thread that spawned it, so a benchmark
        // killed from outside leaves no server behind; it runs on a CPU of
        // its own, away from the load generator's.
        const PR_SET_PDEATHSIG: std::os::raw::c_int = 1;
        const SIGKILL: std::os::raw::c_ulong = 9;
        let server_cpu = bin.cpu;
        // SAFETY: the closure runs in the forked child before exec and
        // only makes two system calls (prctl, sched_setaffinity), which
        // are async-signal-safe, and allocates nothing; both read only
        // their integer arguments and a stack-allocated CPU set.
        unsafe {
            cmd.pre_exec(move || {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                if let Some(cpu) = server_cpu {
                    pin_current_thread(cpu);
                }
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.path.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not captured".into());
        };
        // Built before anything can fail, so `Drop` reaps the child.
        let mut server = ServerProc {
            child,
            _stdout: stdout,
            addr: String::new(),
            trace_out,
        };
        server.addr = read_listen_line(&mut server._stdout)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok((200, body)) = one_shot(&server.addr, "GET", "/healthz", b"") {
                let body = String::from_utf8_lossy(&body);
                if !body.contains("\"mode\":\"model\"") {
                    return Err(format!("server did not load the model: {body}"));
                }
                break;
            }
            if Instant::now() > deadline {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    fn statz(&self) -> Result<Value, String> {
        let (status, body) =
            one_shot(&self.addr, "GET", "/statz", b"").map_err(|e| format!("/statz: {e}"))?;
        if status != 200 {
            return Err(format!("/statz answered {status}"));
        }
        std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::parse_value(text).map_err(|e| e.to_string()))
            .map_err(|e| format!("/statz body: {e}"))
    }

    fn peak_rss_mib(&self) -> Result<f64, String> {
        common::peak_rss_mib(Some(self.child.id()))
    }

    /// Orderly shutdown through the admin endpoint; returns the run
    /// manifest when the server was started with `--trace-out`.
    fn shutdown(mut self) -> Result<Option<Manifest>, String> {
        one_shot(&self.addr, "POST", "/admin/shutdown", b"")
            .map_err(|e| format!("shutdown request: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for server: {e}")),
            }
        }
        match self.trace_out.take() {
            Some(path) => {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Manifest::parse(&text).map(Some)
            }
            None => Ok(None),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The address from the server's one stdout line, `... listening on ADDR`.
fn read_listen_line(stdout: &mut std::process::ChildStdout) -> Result<String, String> {
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("reading server stdout: {e}"))?;
    line.split_once("listening on ")
        .map(|(_, addr)| addr.trim().to_string())
        .ok_or_else(|| format!("unexpected server banner {line:?}"))
}

// ---------------------------------------------------------------------------
// HTTP client.
// ---------------------------------------------------------------------------

fn push_request(out: &mut Vec<u8>, method: &str, target: &str, body_len: usize) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: perfbench\r\nContent-Length: ");
    out.extend_from_slice(body_len.to_string().as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
}

/// One request on its own connection (`Connection: close` semantics are
/// not needed: the connection is dropped after the answer).
fn one_shot(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::connect(addr)?;
    let mut wire = Vec::new();
    push_request(&mut wire, method, target, body.len());
    wire.extend_from_slice(body);
    conn.stream.write_all(&wire)?;
    conn.stream
        .set_read_timeout(Some(Duration::from_secs(30)))?;
    conn.recv()
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    pos: usize,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
        })
    }

    /// Pop one complete response off the buffer, if there is one.
    fn take(&mut self) -> Option<Result<(u16, Vec<u8>), String>> {
        let data = &self.buf[self.pos..];
        let head_end = data.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&data[..head_end]).ok();
        let parsed = head.and_then(|head| {
            let status = head.get(9..12)?.parse::<u16>().ok()?;
            let len = head.lines().find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())
                    .flatten()
            })?;
            Some((status, len))
        });
        let Some((status, len)) = parsed else {
            return Some(Err("malformed response head".into()));
        };
        if data.len() < head_end + len {
            return None;
        }
        let body = data[head_end..head_end + len].to_vec();
        self.pos += head_end + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Some(Ok((status, body)))
    }

    /// Read once from the socket into the buffer; `Ok(0)` is EOF.
    fn fill(&mut self) -> std::io::Result<usize> {
        if self.pos > 0 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + 64 * 1024, 0);
        let res = self.stream.read(&mut self.buf[old..]);
        self.buf.truncate(old + *res.as_ref().unwrap_or(&0));
        res
    }

    /// Block until one whole response arrived.
    fn recv(&mut self) -> std::io::Result<(u16, Vec<u8>)> {
        loop {
            if let Some(r) = self.take() {
                return r.map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e));
            }
            if self.fill()? == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request scripts.
// ---------------------------------------------------------------------------

/// What a request must produce.
#[derive(Clone)]
enum Expected {
    /// 200 with exactly these bytes.
    Body(Arc<Vec<u8>>),
    /// Any 200.
    Ok,
    /// A 4xx.
    ClientError,
}

impl Expected {
    fn check(&self, status: u16, body: &[u8]) -> Result<(), String> {
        let ok = match self {
            Expected::Body(want) => status == 200 && body == want.as_slice(),
            Expected::Ok => status == 200,
            Expected::ClientError => (400..500).contains(&status),
        };
        if ok {
            Ok(())
        } else {
            let want = match self {
                Expected::Body(_) => "200 with the in-process body",
                Expected::Ok => "200",
                Expected::ClientError => "4xx",
            };
            Err(format!(
                "answered {status} {:?}, expected {want}",
                String::from_utf8_lossy(&body[..body.len().min(120)])
            ))
        }
    }
}

/// A generated MatrixMarket document and the in-process answer for it.
struct Doc {
    name: String,
    /// Index of the document's matrix in the seed's Small suite.
    spec: usize,
    /// Length of the banner line including its newline; the per-request
    /// comment of `serve-cold` goes right after it.
    banner_len: usize,
    body: Vec<u8>,
    expected: Expected,
}

/// A request of the repeating hot mix.
struct Item {
    name: String,
    wire: Vec<u8>,
    expected: Expected,
}

/// The request sequence of a workload: request `i` is a pure function of
/// the seed and `i`.
enum Script {
    /// Every request is a distinct document: a pool document with a
    /// request-numbered comment line, so the server's whole-body cache
    /// key never repeats while the parsed matrix does.
    Cold { docs: Vec<Doc>, order: Vec<usize> },
    /// A fixed cyclic mix over `items`, whose matrices are the suite's
    /// `specs`.
    Hot {
        items: Vec<Item>,
        seq: Vec<usize>,
        specs: Vec<usize>,
    },
}

impl Script {
    /// Indices in the seed's Small suite of the matrices the requests
    /// carry, as documents or as feature vectors.
    fn specs(&self) -> Vec<usize> {
        match self {
            Script::Cold { docs, .. } => docs.iter().map(|d| d.spec).collect(),
            Script::Hot { specs, .. } => specs.clone(),
        }
    }

    /// Append request `i`'s wire bytes to `out`; return its expectation.
    fn wire(&self, i: usize, out: &mut Vec<u8>) -> &Expected {
        match self {
            Script::Cold { docs, order } => {
                let doc = &docs[order[i % order.len()]];
                let comment = format!("% perfbench request {i}\n");
                push_request(out, "POST", "/v1/recommend", doc.body.len() + comment.len());
                out.extend_from_slice(&doc.body[..doc.banner_len]);
                out.extend_from_slice(comment.as_bytes());
                out.extend_from_slice(&doc.body[doc.banner_len..]);
                &doc.expected
            }
            Script::Hot { items, seq, .. } => {
                let item = &items[seq[i % seq.len()]];
                out.extend_from_slice(&item.wire);
                &item.expected
            }
        }
    }

    fn name(&self, i: usize) -> String {
        match self {
            Script::Cold { docs, order } => {
                format!("request {i} ({})", docs[order[i % order.len()]].name)
            }
            Script::Hot { items, seq, .. } => {
                format!("request {i} ({})", items[seq[i % seq.len()]].name)
            }
        }
    }
}

/// Render a MatrixMarket body; returns it with the banner line's length.
/// Values are written at a fixed 13 significant digits, so a body's size
/// (and its parse cost) follows its non-zero count, whatever the
/// generator family's values look like.
fn render_mm(csr: &CsrMatrix<f64>) -> (Vec<u8>, usize) {
    use std::fmt::Write as _;
    let banner = "%%MatrixMarket matrix coordinate real general\n";
    let mut s = String::with_capacity(banner.len() + 32 + csr.nnz() * 24);
    s.push_str(banner);
    let _ = writeln!(s, "{} {} {}", csr.n_rows(), csr.n_cols(), csr.nnz());
    let (row_ptr, cols, vals) = (csr.row_ptr(), csr.col_idx(), csr.values());
    for r in 0..csr.n_rows() {
        for k in row_ptr[r] as usize..row_ptr[r + 1] as usize {
            let _ = writeln!(s, "{} {} {:.12e}", r + 1, cols[k] + 1, vals[k]);
        }
    }
    (s.into_bytes(), banner.len())
}

fn json_line(s: String) -> Arc<Vec<u8>> {
    let mut bytes = s.into_bytes();
    bytes.push(b'\n');
    Arc::new(bytes)
}

/// `count` MatrixMarket documents with `lo..=hi` non-zeros from the
/// seed's Small suite (every generator family occurs there), each with
/// the in-process answer for its parsed body. The documents sit at evenly
/// spaced ranks of the in-range matrices sorted by size, so every seed
/// gets the same size distribution.
fn gen_docs(
    seed: u64,
    handle: &AdvisorHandle,
    lo: usize,
    hi: usize,
    count: usize,
) -> Result<Vec<Doc>, String> {
    let suite = SyntheticSuite::sample(CorpusScale::Small, seed);
    // Buckets 0 and 1 (up to 40k target nnz) cover the range.
    let mut in_range: Vec<(usize, CsrMatrix<f64>)> = (0..suite.len())
        .filter(|&i| suite.bucket_of[i] <= 1)
        .map(|i| (i, suite.specs[i].generate()))
        .filter(|(_, csr)| (lo..=hi).contains(&csr.nnz()))
        .collect();
    if in_range.len() < count {
        return Err(format!(
            "only {} generated matrices in {lo}..={hi} nnz",
            in_range.len()
        ));
    }
    in_range.sort_by_key(|(i, csr)| (csr.nnz(), *i));
    (0..count)
        .map(|k| {
            let (i, csr) = &in_range[k * (in_range.len() - 1) / (count - 1).max(1)];
            let name = &suite.specs[*i].name;
            let (body, banner_len) = render_mm(csr);
            let parsed = spmv_matrix::mm::read_matrix_market::<f64, _>(body.as_slice())
                .map_err(|e| format!("{name}: generated body does not parse: {e}"))?
                .to_csr();
            Ok(Doc {
                name: name.clone(),
                spec: *i,
                banner_len,
                body,
                expected: Expected::Body(json_line(handle.recommend_csr(&parsed).to_json())),
            })
        })
        .collect()
}

/// Documents in the `serve-cold` pool (each sent once per 64 requests).
const COLD_DOCS: usize = 64;

fn cold_script(seed: u64, handle: &AdvisorHandle) -> Result<Script, String> {
    let docs = gen_docs(seed, handle, 500, 20_000, COLD_DOCS)?;
    // `docs` is sorted by size; a stride coprime to the pool size visits
    // every document once per cycle and never sends two large ones back
    // to back, so queueing depends on the size mix, not on the luck of a
    // random order.
    let order = (0..COLD_DOCS).map(|k| k * 41 % COLD_DOCS).collect();
    Ok(Script::Cold { docs, order })
}

fn feature_json(values: &[f64]) -> Vec<u8> {
    let parts: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("{{\"features\":[{}]}}", parts.join(",")).into_bytes()
}

fn post(name: String, target: &str, body: &[u8], expected: Expected) -> Item {
    let mut wire = Vec::with_capacity(body.len() + 96);
    push_request(&mut wire, "POST", target, body.len());
    wire.extend_from_slice(body);
    Item {
        name,
        wire,
        expected,
    }
}

/// Length of one cycle of the hot mix; long enough that its distinct
/// feature vectors are evicted from the server's LRU before they recur.
const HOT_CYCLE: usize = 20_000;

fn hot_script(seed: u64, handle: &AdvisorHandle) -> Result<Script, String> {
    let mut items = Vec::new();
    // The hot set: 8 small MatrixMarket documents and the feature vectors
    // of 8 more.
    let docs = gen_docs(seed, handle, 500, 5_000, 16)?;
    let specs = docs.iter().map(|d| d.spec).collect();
    let (mm_docs, fv_docs) = docs.split_at(docs.len().min(8));
    for d in mm_docs {
        items.push(post(
            format!("hot-mm {}", d.name),
            "/v1/recommend",
            &d.body,
            d.expected.clone(),
        ));
    }
    for d in fv_docs {
        let csr = spmv_matrix::mm::read_matrix_market::<f64, _>(d.body.as_slice())
            .map_err(|e| format!("{}: {e}", d.name))?
            .to_csr();
        let fv = extract_with_stats(&csr, &RowStats::of(csr.row_ptr()));
        items.push(post(
            format!("hot-features {}", d.name),
            "/v1/recommend",
            &feature_json(fv.as_slice()),
            Expected::Body(json_line(handle.recommend_features(&fv).to_json())),
        ));
    }
    let n_hot = items.len();
    let healthz = items.len();
    let mut wire = Vec::new();
    push_request(&mut wire, "GET", "/healthz", 0);
    items.push(Item {
        name: "healthz".into(),
        wire,
        expected: Expected::Ok,
    });
    let bad: [(&str, &[u8]); 4] = [
        (
            "/v1/recommend",
            b"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n",
        ),
        ("/v1/recommend", b"{\"features\":[1,2,3]}"),
        (
            "/v1/feedback",
            b"{\"features\":[1,2],\"format\":\"CSR\",\"seconds\":0.001}",
        ),
        ("/v1/feedback", b"{\"features\":\"oops\"}"),
    ];
    let bad_first = items.len();
    for (k, (target, body)) in bad.iter().enumerate() {
        items.push(post(
            format!("malformed-{k} {target}"),
            target,
            body,
            Expected::ClientError,
        ));
    }

    let mut rng = Rng::new(seed ^ 0x4047);
    let mut seq = Vec::with_capacity(HOT_CYCLE);
    for i in 0..HOT_CYCLE {
        let roll = rng.unit();
        let index = if roll < 0.70 {
            rng.below(n_hot)
        } else if roll < 0.76 {
            // A feature vector seen once per cycle: a cache miss.
            let body = loadgen::feature_body(seed.wrapping_add(i as u64));
            let text = std::str::from_utf8(&body).map_err(|e| e.to_string())?;
            let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
            let values: Vec<f64> = common::field(&v, "features")
                .and_then(Value::as_seq)
                .ok_or("feature body without features")?
                .iter()
                .filter_map(common::number)
                .collect();
            let fv = FeatureVector::from_slice(&values).ok_or("feature body arity")?;
            let expected = json_line(handle.recommend_features(&fv).to_json());
            items.push(post(
                format!("features-{i}"),
                "/v1/recommend",
                &body,
                Expected::Body(expected),
            ));
            items.len() - 1
        } else if roll < 0.80 {
            bad_first + rng.below(2)
        } else if roll < 0.90 {
            let label = loadgen::FORMAT_LABELS[rng.below(loadgen::FORMAT_LABELS.len())];
            let seconds = (1 + rng.below(1000)) as f64 * 1e-7;
            let body = loadgen::feedback_body(seed.wrapping_add(i as u64), label, 0, seconds);
            let accepted = Arc::new(b"{\"status\":\"accepted\"}\n".to_vec());
            items.push(post(
                format!("feedback-{i}"),
                "/v1/feedback",
                &body,
                Expected::Body(accepted),
            ));
            items.len() - 1
        } else if roll < 0.95 {
            bad_first + 2 + rng.below(2)
        } else {
            healthz
        };
        seq.push(index);
    }
    Ok(Script::Hot { items, seq, specs })
}

// ---------------------------------------------------------------------------
// Load loops.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct LoopResult {
    sent: u64,
    completed: u64,
    failures: Vec<String>,
    /// (request number within the loop, latency).
    latencies_us: Vec<(usize, f64)>,
    /// Closed loop: answers completed in each slice of the run.
    window_completions: Vec<u64>,
    late: u64,
}

impl LoopResult {
    /// Upper quartile over the run's slices of answers per second (the
    /// side of the spread a noisy neighbour does not reach).
    fn windowed_rate(&self, duration: Duration) -> f64 {
        let slice_s = duration.as_secs_f64() / SAT_WINDOWS as f64;
        let rates: Vec<f64> = self
            .window_completions
            .iter()
            .map(|&c| c as f64 / slice_s)
            .collect();
        quantile(&rates, 0.75)
    }
}

/// Closed loop on one connection with `depth` requests always in flight:
/// each answer read releases the next request, until `duration` has
/// passed or request `limit` is reached. (Sending in bursts instead left
/// the server idle while the client turned each burst around, and that
/// idle time moved with the host's wake-up latency.) Request indices
/// start at `first`; returns the result and the next unused index.
fn closed_loop(
    addr: &str,
    script: &Script,
    depth: usize,
    duration: Duration,
    first: usize,
    limit: usize,
) -> (LoopResult, usize) {
    let start = Instant::now();
    let deadline = start + duration;
    let mut r = LoopResult {
        window_completions: vec![0; SAT_WINDOWS],
        ..LoopResult::default()
    };
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            r.sent += 1;
            r.failures.push(format!("closed-loop connect: {e}"));
            return (r, first);
        }
    };
    let mut next = first;
    let mut wire = Vec::new();
    let mut pending: VecDeque<(usize, &Expected)> = VecDeque::new();
    loop {
        while pending.len() < depth && next < limit && Instant::now() < deadline {
            wire.clear();
            let expected = script.wire(next, &mut wire);
            r.sent += 1;
            if let Err(e) = conn.stream.write_all(&wire) {
                r.failures.push(format!("{}: send: {e}", script.name(next)));
                for (i, _) in pending.drain(..) {
                    r.failures.push(format!("{}: unanswered", script.name(i)));
                }
                return (r, next + 1);
            }
            pending.push_back((next, expected));
            next += 1;
        }
        let Some((i, expected)) = pending.pop_front() else {
            return (r, next);
        };
        match conn.recv() {
            Ok((status, body)) => {
                r.completed += 1;
                let slice = (start.elapsed().as_secs_f64() / duration.as_secs_f64()
                    * SAT_WINDOWS as f64) as usize;
                if let Some(c) = r.window_completions.get_mut(slice) {
                    *c += 1;
                }
                if let Err(e) = expected.check(status, &body) {
                    r.failures.push(format!("{}: {e}", script.name(i)));
                }
            }
            Err(e) => {
                r.failures.push(format!("{}: {e}", script.name(i)));
                for (j, _) in pending.drain(..) {
                    r.failures.push(format!("{}: unanswered", script.name(j)));
                }
                return (r, next);
            }
        }
    }
}

/// Wait until `stream` is readable (or writable, with `want_write`) or
/// `timeout` passes. Socket read timeouts are rounded to scheduler ticks
/// (milliseconds), far too coarse for an open-loop schedule; `ppoll(2)`
/// sleeps on a high-resolution timer.
fn wait_ready(stream: &TcpStream, want_write: bool, timeout: Duration) {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_short, c_ulong, c_void};
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, aligned locals for the whole call,
    // `nfds` = 1 matches the one-element array, and a null signal mask
    // leaves the mask unchanged. The result is deliberately ignored: every
    // outcome (ready, timeout, EINTR) is followed by nonblocking I/O that
    // handles it.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

extern "C" {
    fn prctl(
        option: std::os::raw::c_int,
        arg2: std::os::raw::c_ulong,
        arg3: std::os::raw::c_ulong,
        arg4: std::os::raw::c_ulong,
        arg5: std::os::raw::c_ulong,
    ) -> std::os::raw::c_int;
}

/// The first two CPUs this process may run on: one for the server, one
/// for the load generator. `None` on a single-CPU host.
fn cpu_pair() -> Option<(usize, usize)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi) = (
            lo.trim().parse::<usize>().ok()?,
            hi.trim().parse::<usize>().ok()?,
        );
        cpus.extend(lo..=hi);
        if cpus.len() >= 2 {
            break;
        }
    }
    match cpus[..] {
        [a, b, ..] => Some((a, b)),
        _ => None,
    }
}

/// Restrict the calling thread to `cpu`. Allocation-free, so it may run
/// between fork and exec. Failure leaves the thread unpinned, which
/// costs steadiness, not correctness.
fn pin_current_thread(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(
            pid: std::os::raw::c_int,
            size: usize,
            mask: *const u64,
        ) -> std::os::raw::c_int;
    }
    let mut mask = [0u64; 16];
    if cpu < 64 * mask.len() {
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, aligned 128-byte CPU set (the size of
        // the kernel's `cpu_set_t`) for the whole call, and pid 0 names
        // the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

/// Shrink this thread's timer slack (default 50µs) to 1ns, so `ppoll`
/// wakes at the due time instead of up to 50µs later — lateness that
/// would be charged to every latency.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads only its integer argument and
    // changes only the calling thread's timer slack; no memory is passed.
    // Failure leaves the default slack, which is harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Open loop on one connection, in the calling thread: request `j` of
/// `n` is due at `start + j / rate` and goes out at its due time whether
/// or not earlier answers arrived (HTTP/1.1 pipelining keeps answers in
/// order). The socket is nonblocking, so a slow server never delays
/// a send decision; the lateness of each decision against its schedule
/// is the generator's own. Latency runs from the due time to the
/// complete answer.
fn open_loop(addr: &str, script: &Script, rate: f64, n: usize, first: usize) -> LoopResult {
    tight_timer_slack();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |j: usize| start + Duration::from_secs_f64(j as f64 / rate);
    let mut r = LoopResult::default();
    let mut pending: VecDeque<(usize, Instant, &Expected)> = VecDeque::new();
    let fail_all =
        |r: &mut LoopResult, pending: &mut VecDeque<(usize, Instant, &Expected)>, why: &str| {
            for (j, _, _) in pending.drain(..) {
                r.failures
                    .push(format!("{}: {why}", script.name(first + j)));
            }
        };
    let mut conn =
        match Conn::connect(addr).and_then(|c| c.stream.set_nonblocking(true).map(|()| c)) {
            Ok(c) => c,
            Err(e) => {
                for j in 0..n {
                    r.sent += 1;
                    r.failures
                        .push(format!("{}: connect: {e}", script.name(first + j)));
                }
                return r;
            }
        };
    let mut out = Vec::new();
    let mut written = 0;
    let mut next = 0;
    let mut idle_since = Instant::now();
    loop {
        let now = Instant::now();
        while next < n && due(next) <= now {
            let late = now - due(next);
            if late > LATE_AFTER {
                r.late += 1;
            }
            let expected = script.wire(first + next, &mut out);
            pending.push_back((next, due(next), expected));
            r.sent += 1;
            next += 1;
        }
        while written < out.len() {
            match conn.stream.write(&out[written..]) {
                Ok(0) => {
                    fail_all(&mut r, &mut pending, "connection closed while sending");
                    return r;
                }
                Ok(k) => written += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    fail_all(&mut r, &mut pending, &format!("send: {e}"));
                    return r;
                }
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        match conn.fill() {
            Ok(0) => {
                fail_all(&mut r, &mut pending, "connection closed");
                return r;
            }
            Ok(_) => {
                let arrived = Instant::now();
                idle_since = arrived;
                while let Some(resp) = conn.take() {
                    let Some((j, due_at, expected)) = pending.pop_front() else {
                        r.failures.push("unsolicited response".into());
                        break;
                    };
                    r.completed += 1;
                    r.latencies_us
                        .push((j, (arrived - due_at).as_secs_f64() * 1e6));
                    if let Err(e) = resp.and_then(|(status, body)| expected.check(status, &body)) {
                        r.failures.push(format!("{}: {e}", script.name(first + j)));
                    }
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => {
                fail_all(&mut r, &mut pending, &format!("receive: {e}"));
                return r;
            }
        }
        if next >= n && pending.is_empty() {
            return r;
        }
        if next >= n && idle_since.elapsed() > ANSWER_TIMEOUT {
            fail_all(&mut r, &mut pending, "timed out");
            return r;
        }
        // With requests outstanding or a send due soon, poll the socket
        // in a loop: the client has a CPU of its own, and waking a halted
        // virtual CPU for each answer added tens of microseconds of noise
        // to every latency. Otherwise sleep until shortly before the next
        // send.
        let until_due = if next < n {
            due(next).saturating_duration_since(Instant::now())
        } else {
            ANSWER_TIMEOUT
        };
        if pending.is_empty() && until_due > SPIN_BEFORE_DUE {
            wait_ready(
                &conn.stream,
                written < out.len(),
                until_due - SPIN_BEFORE_DUE,
            );
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Lower quartile over `windows` equal slices of the schedule of each
/// slice's `q`-quantile latency. Noise from other tenants of a shared
/// host only ever slows a slice down; slices it hit land above the
/// reported figure instead of deciding it.
fn windowed_quantile(latencies: &[(usize, f64)], n: usize, windows: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let window: Vec<f64> = latencies
                .iter()
                .filter(|(j, _)| j * windows / n.max(1) == w)
                .map(|&(_, l)| l)
                .collect();
            quantile(&window, q)
        })
        .collect();
    quantile(&per_window, 0.25)
}

/// Fold a loop's counts and failures into the outcome; returns the late
/// share. With `open`, the loop's latencies are reported, and a generator
/// that fell behind marks the run invalid.
fn account(outcome: &mut Outcome, r: &LoopResult, open: bool) -> f64 {
    outcome.attempt(r.sent);
    for f in &r.failures {
        outcome.fail(f.clone());
    }
    let late_share = r.late as f64 / r.sent.max(1) as f64;
    if open && late_share > MAX_LATE_SHARE {
        outcome.invalid(&format!(
            "load generator fell behind: {:.1}% of sends more than {LATE_AFTER:?} late",
            late_share * 100.0
        ));
    }
    late_share
}

// ---------------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------------

struct Setup {
    server: ServerProc,
    script: Script,
    handle: AdvisorHandle,
    model: PathBuf,
    train_s: f64,
}

pub fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    let cpus = cpu_pair();
    let bin = ServerBin {
        path: build_server(ctx)?,
        cpu: cpus.map(|(server, _)| server),
    };
    let model = ctx.tmp.join("advisor.json");
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup, setup_s, setup_n) = common::timed_setup(reps, || {
        let train_s = common::train_artifact(ctx, &model)?;
        let handle = AdvisorHandle::from_artifact(&model);
        if handle.mode() != "model" {
            return Err(format!("artifact rejected: {:?}", handle.degraded_reason()));
        }
        let (server, _) = ServerProc::boot(&bin, &model, None)?;
        let script = cold_script(args.seed, &handle)?;
        Ok(Setup {
            server,
            script,
            handle,
            model: model.clone(),
            train_s,
        })
    })?;
    // From here on this thread, the load generator, runs on the one CPU
    // the server does not use.
    if let Some((_, client_cpu)) = cpus {
        pin_current_thread(client_cpu);
    }
    if args.trace {
        traced(args, ctx, &bin, setup)
    } else {
        end_to_end(args, setup, setup_s, setup_n)
    }
}

/// The end-to-end run: the saturation loop, then the open loop.
fn end_to_end(args: &Args, setup: Setup, setup_s: f64, setup_n: usize) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let secs = args.seconds.as_secs_f64();
    let sat_time = Duration::from_secs_f64(secs * SAT_SHARE);
    let (sat, next) = closed_loop(
        &setup.server.addr,
        &setup.script,
        COLD_LOAD.depth,
        sat_time,
        0,
        usize::MAX,
    );
    account(&mut outcome, &sat, false);
    let n = (COLD_LOAD.open_rate * secs * (1.0 - SAT_SHARE)) as usize;
    let open = open_loop(
        &setup.server.addr,
        &setup.script,
        COLD_LOAD.open_rate,
        n,
        next,
    );
    account(&mut outcome, &open, true);
    let rss = setup.server.peak_rss_mib()?;
    setup.server.shutdown()?;
    let sat_rps = sat.windowed_rate(sat_time);
    let lat = &open.latencies_us;
    let o = &mut outcome;
    o.metric("setup_s", setup_s, "s", setup_n);
    // Reported even when the generator fell behind, as the result line
    // needs it; the run is then marked invalid, so not `correct`.
    o.metric(
        "latency_ms",
        windowed_quantile(lat, n, LATENCY_WINDOWS, 0.50) / 1e3,
        "ms",
        lat.len(),
    );
    for (name, q) in [("latency_p90_us", 0.90), ("latency_p99_us", 0.99)] {
        o.metric(
            name,
            windowed_quantile(lat, n, LATENCY_WINDOWS, q),
            "us",
            lat.len(),
        );
    }
    o.metric("sat_rps", sat_rps, "req/s", sat.completed as usize);
    o.metric("peak_rss_mib", rss, "MiB", 1);
    Ok(outcome)
}

/// Requests of `script` from number `first` on, in a closed loop, that
/// warm a server before it is measured.
fn warm_up(addr: &str, script: &Script, load: Load, first: usize, outcome: &mut Outcome) {
    let (r, _) = closed_loop(
        addr,
        script,
        load.depth,
        Duration::from_secs(60),
        first,
        first + WARM_UP_REQUESTS,
    );
    account(outcome, &r, false);
}

/// The traced run: the same open-loop sequence against an untraced and a
/// traced server, the in-process layer replay, then probes of the layers
/// serving does not exercise on the requests' matrices.
fn traced(args: &Args, ctx: &Ctx, bin: &ServerBin, setup: Setup) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let load = COLD_LOAD;
    let n = (load.open_rate * args.seconds.as_secs_f64() * 0.4) as usize;
    // Each server first answers a fixed closed-loop warm-up (as the
    // saturation loop warms it in an end-to-end run), so the counters of
    // the traced server stay exact.
    warm_up(&setup.server.addr, &setup.script, load, n, &mut outcome);
    let untraced = open_loop(&setup.server.addr, &setup.script, load.open_rate, n, 0);
    account(&mut outcome, &untraced, false);
    setup.server.shutdown()?;
    let traced = server_layers(
        ctx,
        bin,
        &setup.model,
        &setup.script,
        load,
        n,
        &setup.handle,
        &mut outcome,
    )?;
    let w = LATENCY_WINDOWS;
    let overhead = windowed_quantile(&traced.latencies_us, n, w, 0.5)
        / windowed_quantile(&untraced.latencies_us, n, w, 0.5)
        - 1.0;
    outcome.metric("ml.train_s", setup.train_s, "s", 1);
    outcome.metric(
        "observe.trace_overhead",
        overhead,
        "ratio",
        traced.latencies_us.len(),
    );
    let suite = SyntheticSuite::sample(CorpusScale::Small, args.seed);
    let specs = setup.script.specs();
    crate::spmv::probe(ctx, &suite, &specs, args.seed, &setup.handle, &mut outcome)?;
    crate::label::probe(ctx, &suite, &specs, &mut outcome)?;
    Ok(outcome)
}

/// Per-layer metrics of serving for another workload: a traced server
/// answers the hot mix of the seed, whose documents come from the same
/// Small suite. Neither server nor client is pinned, as the
/// workload's own threads may need both CPUs.
pub fn probe(
    ctx: &Ctx,
    seed: u64,
    handle: &AdvisorHandle,
    model: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let bin = ServerBin {
        path: build_server(ctx)?,
        cpu: None,
    };
    let script = hot_script(seed, handle)?;
    let n = (HOT_LOAD.open_rate * PROBE_SECONDS) as usize;
    server_layers(ctx, &bin, model, &script, HOT_LOAD, n, handle, outcome)?;
    Ok(())
}

/// Boot a traced server, warm it, send it `n` open-loop requests of
/// `script`, and record the server's per-layer metrics and those of the
/// in-process replay of the same requests. Returns the open loop.
#[allow(clippy::too_many_arguments)]
fn server_layers(
    ctx: &Ctx,
    bin: &ServerBin,
    model: &Path,
    script: &Script,
    load: Load,
    n: usize,
    handle: &AdvisorHandle,
    outcome: &mut Outcome,
) -> Result<LoopResult, String> {
    let trace_path = ctx.tmp.join("server-trace.json");
    let (server, boot_s) = ServerProc::boot(bin, model, Some(trace_path))?;
    warm_up(&server.addr, script, load, n, outcome);
    let traced = open_loop(&server.addr, script, load.open_rate, n, 0);
    let late_share = account(outcome, &traced, false);
    let statz = server.statz()?;
    let server_manifest = server
        .shutdown()?
        .ok_or("traced server wrote no manifest")?;
    let counter = |name: &str| {
        common::field(&statz, "counters")
            .and_then(|c| common::field(c, name))
            .and_then(common::number)
            .unwrap_or(0.0)
    };

    let local = replay(ctx, script, handle, n.min(REPLAY_REQUESTS))?;

    let hits = counter("serve.cache.hits");
    let lookups = hits + counter("serve.cache.misses");
    let n_req = server_manifest.span_count("serve/request") as usize;
    let mm_bytes = local.counter("perfbench/matrix.mm.bytes") as f64;
    let mm_ns = local.span_total_ns("perfbench/matrix.mm.parse");
    let n_mm = local.span_count("perfbench/matrix.mm.parse") as usize;
    let n_http = local.span_count("perfbench/serve.http.parse") as usize;
    let m = outcome;
    m.metric(
        "serve.http.parse_us",
        local.span_mean_us("perfbench/serve.http.parse"),
        "us",
        n_http,
    );
    m.metric(
        "serve.request.self_us",
        server_manifest.self_ns("serve/request") / n_req.max(1) as f64 / 1e3,
        "us",
        n_req,
    );
    m.metric(
        "serve.cache.hit_ratio",
        hits / lookups.max(1.0),
        "ratio",
        lookups as usize,
    );
    m.metric(
        "online.feedback.accepted",
        counter("online.feedback.accepted"),
        "count",
        1,
    );
    m.metric(
        "online.reservoir.inserted",
        counter("online.reservoir.inserted"),
        "count",
        1,
    );
    m.metric(
        "matrix.mm.parse_us",
        local.span_mean_us("perfbench/matrix.mm.parse"),
        "us",
        n_mm,
    );
    m.metric(
        "matrix.mm.parse_mb_s",
        mm_bytes / 1e6 / (mm_ns / 1e9).max(1e-12),
        "MB/s",
        n_mm,
    );
    for (metric, span) in [
        ("matrix.coo.to_csr_us", "perfbench/matrix.coo.to_csr"),
        ("matrix.row_stats_us", "perfbench/matrix.row_stats"),
        ("features.extract_us", "perfbench/features.extract"),
        ("core.model_us", "perfbench/core.model"),
        ("core.render_us", "perfbench/core.render"),
    ] {
        m.metric(metric, local.span_mean_us(span), "us", n_mm);
    }
    m.metric("serve.boot_s", boot_s, "s", 1);
    m.metric(
        "loadgen.late_share",
        late_share,
        "ratio",
        traced.sent as usize,
    );
    Ok(traced)
}

/// Replay the first `n` requests' wire bytes through the public layer
/// functions in process, each call under a benchmark-owned span, and
/// return the resulting manifest.
fn replay(
    ctx: &Ctx,
    script: &Script,
    handle: &AdvisorHandle,
    n: usize,
) -> Result<Manifest, String> {
    spmv_observe::reset();
    spmv_observe::enable();
    let limits = Limits::default();
    let mut wire = Vec::new();
    for i in 0..n {
        wire.clear();
        script.wire(i, &mut wire);
        let request = {
            let _span = spmv_observe::span("perfbench/serve.http.parse");
            parse_request(std::hint::black_box(&wire), &limits)
        };
        let Ok(Parse::Done(request, _)) = request else {
            return Err(format!("{}: recorded bytes do not parse", script.name(i)));
        };
        if request.target != "/v1/recommend" || !request.body.starts_with(b"%%MatrixMarket") {
            continue;
        }
        let parsed = {
            let _span = spmv_observe::span("perfbench/matrix.mm.parse");
            spmv_matrix::mm::read_matrix_market::<f64, _>(request.body.as_slice())
        };
        let Ok(coo) = parsed else { continue };
        spmv_observe::counter("perfbench/matrix.mm.bytes", request.body.len() as u64);
        let csr = {
            let _span = spmv_observe::span("perfbench/matrix.coo.to_csr");
            coo.to_csr()
        };
        let stats = {
            let _span = spmv_observe::span("perfbench/matrix.row_stats");
            RowStats::of(csr.row_ptr())
        };
        let fv = {
            let _span = spmv_observe::span("perfbench/features.extract");
            extract_with_stats(&csr, &stats)
        };
        let response = {
            let _span = spmv_observe::span("perfbench/core.model");
            handle.recommend_features(&fv)
        };
        let _json = {
            let _span = spmv_observe::span("perfbench/core.render");
            std::hint::black_box(response.to_json())
        };
    }
    let manifest = Manifest::write_and_read(&ctx.tmp.join("replay-trace.json"));
    spmv_observe::disable();
    spmv_observe::reset();
    manifest
}
