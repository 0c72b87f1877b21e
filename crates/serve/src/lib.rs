//! `spmv-serve`: a persistent-connection, event-driven TCP inference
//! server for the format advisor.
//!
//! Std-only by design (plus workspace crates): the listener is a plain
//! nonblocking `TcpListener`, HTTP/1.1 is the hand-rolled subset in
//! [`http`], readiness comes from the tiny epoll shim in `epoll` (raw
//! `extern` declarations against the libc std already links — zero new
//! dependencies), and concurrency is N shared-nothing shard threads
//! (`event`), each running its own epoll loop over the connections it
//! accepted. The pieces:
//!
//! - **Keep-alive + pipelining** — a connection carries many requests;
//!   responses advertise `Connection: keep-alive` up to a bounded
//!   per-connection request budget and idle timeout, and a client that
//!   sends `Connection: close` gets one answer and a close.
//! - **Admission control** — each shard admits up to `queue_depth + 1`
//!   concurrent connections (the budget the old bounded channel gave a
//!   worker); past that it answers `503` + `Retry-After` immediately,
//!   so overload sheds *new* work while admitted work completes.
//! - **Shared advisor** — one [`spmv_core::OnlineAdvisor`] serves every
//!   shard. Each request takes one generation snapshot (an `Arc` clone)
//!   and uses it for its cache key, model call, and response attribution,
//!   so a concurrent hot-swap can never tear a request across
//!   generations. The wrapped advisors are immutable; only the active
//!   pointer moves.
//! - **Online learning** — `POST /v1/feedback` feeds a seeded reservoir;
//!   a background retrainer builds candidate artifacts deterministically,
//!   shadow-scores them on live traffic, and promotes or rolls back by
//!   atomic generation swap (see `spmv_core::online` and DESIGN.md §4i).
//! - **Single-flight LRU cache** ([`cache`]) — responses are memoized by
//!   request content in key-hash shards (fixed count, deliberately not
//!   tied to the worker shard count); concurrent identical requests
//!   collapse to one model pass.
//! - **Observability** — every stage runs under `spmv-observe` spans and
//!   counters chosen so the manifest's deterministic section is a pure
//!   function of the request mix at any shard count and any keep-alive
//!   vs close client mix (see `tests/determinism.rs`); scheduling facts
//!   (connections accepted/shed/reused per shard) are merged into the
//!   quarantined timing section at shutdown.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
// The epoll FFI is the crate's only `unsafe`; every block in the module
// states why the call is sound.
#[allow(unsafe_code)]
mod epoll;
mod event;
pub mod http;
pub mod lifecycle;
pub mod loadgen;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use spmv_core::{
    AdvisorHandle, FeedbackEvent, FeedbackOutcome, Generation, OnlineAdvisor, OnlineConfig,
    RecommendationSource,
};
use spmv_features::{extract, FeatureVector, FEATURE_COUNT};
use spmv_matrix::{CsrStructure, Format};

use crate::cache::{CacheKey, Lookup, Reservation, ResponseCache};
use crate::event::ShardStats;
use crate::http::{error_body, Limits, ProtocolError, Request};

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`] for the resolved one).
    pub addr: String,
    /// Epoll shards: shared-nothing event-loop threads, each owning the
    /// connections it accepted.
    pub workers: usize,
    /// Admission budget per shard: each shard holds up to
    /// `queue_depth + 1` connections and answers `503` past that.
    pub queue_depth: usize,
    /// Completed responses retained by the content cache (0 disables).
    pub cache_capacity: usize,
    /// Hard cap on a request body (bytes), enforced from the declared
    /// `Content-Length` before the body is read.
    pub max_body_bytes: usize,
    /// Hard cap on the request line + headers (bytes).
    pub max_header_bytes: usize,
    /// Socket read/write timeout per connection (ms); a stalled client
    /// gets `408` instead of holding a connection slot.
    pub read_timeout_ms: u64,
    /// Artificial per-request handling delay (ms). Zero in production;
    /// tests use it to make queue saturation reproducible.
    pub handler_delay_ms: u64,
    /// Whether `POST /admin/shutdown` is routed (the binary enables it;
    /// embedded tests usually prefer [`Server::shutdown`]).
    pub enable_admin_shutdown: bool,
    /// Most requests served over one keep-alive connection before the
    /// server closes it (`1` degrades to a pure one-shot server).
    pub keep_alive_max_requests: usize,
    /// How long an idle keep-alive connection (≥1 request served,
    /// nothing buffered) is retained before a silent close (ms).
    pub idle_timeout_ms: u64,
    /// The online-learning loop (feedback → retrain → canary → swap).
    /// Inert by default (`retrain_after == 0` never schedules a retrain).
    pub online: OnlineConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_capacity: 256,
            max_body_bytes: 8 * 1024 * 1024,
            max_header_bytes: 16 * 1024,
            read_timeout_ms: 5_000,
            handler_delay_ms: 0,
            enable_admin_shutdown: false,
            keep_alive_max_requests: 1024,
            idle_timeout_ms: 5_000,
            online: OnlineConfig::default(),
        }
    }
}

struct Shared {
    online: OnlineAdvisor,
    cache: ResponseCache,
    config: ServerConfig,
    limits: Limits,
    /// Set when the server should stop accepting; every shard re-checks
    /// it once per epoll tick.
    stop: AtomicBool,
    /// Set by `POST /admin/shutdown`; the binary polls it.
    shutdown_requested: AtomicBool,
    addr: SocketAddr,
}

/// A running server: resolved address, control surface, join handles.
pub struct Server {
    shared: Arc<Shared>,
    shards: Vec<JoinHandle<()>>,
    stats: Vec<Arc<ShardStats>>,
    /// The background retrainer (only spawned when retraining is enabled).
    retrainer: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the shard event loops, and return immediately.
    pub fn spawn(config: ServerConfig, handle: AdvisorHandle) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let limits = Limits {
            max_header_bytes: config.max_header_bytes,
            max_body_bytes: config.max_body_bytes,
        };
        let shared = Arc::new(Shared {
            cache: ResponseCache::new(config.cache_capacity),
            online: OnlineAdvisor::new(handle, config.online.clone()),
            limits,
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            addr,
            config,
        });

        // The retrainer never runs on a request shard: no request blocks
        // on a retrain. It parks on a condvar until feedback volume
        // schedules a job.
        let retrainer = if shared.config.online.retrain_after > 0 {
            let shared_retrainer = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("serve-retrainer".to_string())
                    .spawn(move || shared_retrainer.online.run_retrainer())?,
            )
        } else {
            None
        };

        // Every shard registers the same listener with EPOLLEXCLUSIVE,
        // so a connect wakes one shard, which then owns the connection.
        let listener = Arc::new(listener);
        let stats: Vec<Arc<ShardStats>> = (0..shared.config.workers.max(1))
            .map(|_| Arc::new(ShardStats::new()))
            .collect();
        let shards = stats
            .iter()
            .enumerate()
            .map(|(i, shard_stats)| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                let shard_stats = Arc::clone(shard_stats);
                std::thread::Builder::new()
                    .name(format!("serve-shard-{i}"))
                    .spawn(move || event::shard_loop(shared, listener, shard_stats))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(Server {
            shared,
            shards,
            stats,
            retrainer,
        })
    }

    /// The resolved bind address (the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Connections the shards have accepted so far, shed ones included.
    /// Scheduling state: it is published to the manifest only at shutdown
    /// (`serve.conns.accepted`), but tests read it live to know that a
    /// client's connection is owned by a shard.
    pub fn accepted_connections(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.accepted.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether `POST /admin/shutdown` has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Stop accepting, let admitted and in-flight requests finish
    /// (bounded by their deadlines), join every shard, and publish the
    /// scheduling stats into the manifest's timing section. Idempotent
    /// with respect to an admin shutdown already in progress.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Shards notice the flag within one epoll tick; no wake-up poke
        // is needed because waits are bounded.
        for shard in self.shards.drain(..) {
            let _join = shard.join();
        }
        self.shared.online.stop();
        if let Some(retrainer) = self.retrainer.take() {
            let _join = retrainer.join();
        }
        // Connection accounting is scheduling (which shard got which
        // connection, how clients reused keep-alive): it goes to the
        // timing section, never to the deterministic counters.
        let total = |f: fn(&ShardStats) -> u64| -> u64 { self.stats.iter().map(|s| f(s)).sum() };
        spmv_observe::set_timing_info("serve.shards", &self.stats.len().to_string());
        spmv_observe::set_timing_info(
            "serve.conns.accepted",
            &total(|s| s.accepted.load(Ordering::Relaxed)).to_string(),
        );
        spmv_observe::set_timing_info(
            "serve.conns.shed",
            &total(|s| s.shed.load(Ordering::Relaxed)).to_string(),
        );
        spmv_observe::set_timing_info(
            "serve.requests.reused_conn",
            &total(|s| s.reused.load(Ordering::Relaxed)).to_string(),
        );
    }
}

/// Per-status-class counters (`counter` needs `'static` names).
fn count_status(status: u16) {
    let name = match status {
        200..=299 => "serve.responses.2xx",
        400..=499 => "serve.responses.4xx",
        500..=599 => "serve.responses.5xx",
        _ => "serve.responses.other",
    };
    spmv_observe::counter(name, 1);
}

fn count_protocol_error(err: &ProtocolError) {
    let name = match err {
        ProtocolError::Timeout => "serve.protocol.timeout",
        ProtocolError::BadRequestLine(_) => "serve.protocol.bad_request_line",
        ProtocolError::UnsupportedVersion(_) => "serve.protocol.bad_version",
        ProtocolError::HeaderTooLarge { .. } => "serve.protocol.header_too_large",
        ProtocolError::BadHeader(_) => "serve.protocol.bad_header",
        ProtocolError::MissingContentLength => "serve.protocol.missing_content_length",
        ProtocolError::BadContentLength(_) => "serve.protocol.bad_content_length",
        ProtocolError::UnsupportedTransferEncoding => "serve.protocol.transfer_encoding",
        ProtocolError::BodyTooLarge { .. } => "serve.protocol.body_too_large",
    };
    spmv_observe::counter(name, 1);
}

type Routed = (
    u16,
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
    Vec<u8>,
);

/// Run a route handler, turning a panic into a typed `500` so that one bad
/// request cannot take down its shard and every connection the shard
/// holds. The flag is set when the handler panicked; the caller then
/// closes the connection. Shared state stays usable after a panic: the
/// server's locks recover from poisoning, and a cache reservation dropped
/// while unwinding frees its slot.
fn guarded(handler: impl FnOnce() -> Routed) -> (Routed, bool) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)) {
        Ok(routed) => (routed, false),
        Err(_) => {
            spmv_observe::counter("serve.panics", 1);
            let body = error_body("internal", "the request handler panicked");
            (
                (500, "Internal Server Error", "application/json", &[], body),
                true,
            )
        }
    }
}

fn route(shared: &Shared, request: &mut Request) -> Routed {
    match (request.method.as_str(), request.target.as_str()) {
        #[cfg(test)]
        ("POST", "/test/panic") => panic!("a handler bug"),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/statz") => statz(shared),
        ("POST", "/v1/recommend") => recommend(shared, std::mem::take(&mut request.body)),
        ("POST", "/v1/feedback") => feedback(shared, &request.body),
        ("POST", "/admin/shutdown") if shared.config.enable_admin_shutdown => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            (
                200,
                "OK",
                "application/json",
                &[],
                b"{\"status\":\"shutting-down\"}\n".to_vec(),
            )
        }
        ("POST", "/admin/canary/sync") if shared.config.enable_admin_shutdown => {
            canary_sync(shared)
        }
        (_, "/healthz" | "/statz" | "/v1/recommend" | "/v1/feedback") => (
            405,
            "Method Not Allowed",
            "application/json",
            &[],
            error_body("method_not_allowed", "see README: Serving"),
        ),
        _ => (
            404,
            "Not Found",
            "application/json",
            &[],
            error_body("not_found", "unknown path"),
        ),
    }
}

/// Append the swap-observability fields — generation, artifact checksum,
/// advisor mode, canary phase — read as one coherent status.
fn push_status_fields(body: &mut String, status: &spmv_core::OnlineStatus) {
    body.push_str("\"mode\":\"");
    body.push_str(status.mode);
    body.push_str("\",\"model_version\":");
    match status.model_version {
        Some(v) => body.push_str(&v.to_string()),
        None => body.push_str("null"),
    }
    body.push_str(",\"generation\":");
    body.push_str(&status.generation.to_string());
    body.push_str(",\"checksum\":");
    match &status.checksum {
        Some(sum) => {
            body.push('"');
            body.push_str(sum);
            body.push('"');
        }
        None => body.push_str("null"),
    }
    body.push_str(",\"canary\":\"");
    body.push_str(status.canary);
    body.push('"');
}

fn healthz(shared: &Shared) -> Routed {
    let status = shared.online.status();
    let mut body = String::from("{\"status\":\"ok\",");
    push_status_fields(&mut body, &status);
    body.push_str("}\n");
    (200, "OK", "application/json", &[], body.into_bytes())
}

fn statz(shared: &Shared) -> Routed {
    let status = shared.online.status();
    let mut body = String::from("{");
    push_status_fields(&mut body, &status);
    body.push_str(",\"counters\":");
    body.push_str(&spmv_observe::counters_section());
    body.push_str("}\n");
    (200, "OK", "application/json", &[], body.into_bytes())
}

/// Block (bounded) until no retrain is pending or running, then report
/// the canary state. Scripted lifecycle runs use this to make "retrainer
/// done" an explicit point in the request sequence — one deterministic
/// request instead of a polling race. Admin-gated alongside shutdown.
fn canary_sync(shared: &Shared) -> Routed {
    let quiescent = shared.online.wait_quiescent(Duration::from_secs(30));
    let status = shared.online.status();
    let mut body = String::from("{\"status\":\"");
    body.push_str(if quiescent { "quiescent" } else { "busy" });
    body.push_str("\",");
    push_status_fields(&mut body, &status);
    body.push_str("}\n");
    if quiescent {
        (200, "OK", "application/json", &[], body.into_bytes())
    } else {
        (
            503,
            "Service Unavailable",
            "application/json",
            &[],
            body.into_bytes(),
        )
    }
}

/// Classify the body (MatrixMarket vs feature JSON), consult the cache,
/// and compute on miss. Responses are cached only on success: a malformed
/// body costs its sender a full parse every time, and never pollutes the
/// cache.
fn recommend(shared: &Shared, body: Vec<u8>) -> Routed {
    let trimmed = trim_leading_ws(&body);
    if trimmed.starts_with(b"%%MatrixMarket") {
        recommend_matrix(shared, Arc::new(body))
    } else if trimmed.first() == Some(&b'{') {
        recommend_features(shared, trimmed)
    } else {
        (
            400,
            "Bad Request",
            "application/json",
            &[],
            error_body(
                "unrecognized_body",
                "expected a MatrixMarket document or {\"features\":[..17 floats..]}",
            ),
        )
    }
}

fn trim_leading_ws(body: &[u8]) -> &[u8] {
    let start = body
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(body.len());
    &body[start..]
}

fn ok_json(bytes: Vec<u8>) -> Routed {
    (200, "OK", "application/json", &[], bytes)
}

/// What a recommend miss is answered from.
#[derive(Clone, Copy)]
enum Query<'a> {
    /// The structure of a parsed MatrixMarket body.
    Structure(CsrStructure<'a>),
    /// A client-extracted feature vector.
    Features(&'a FeatureVector),
}

/// The tail of a recommend miss, shared by both body kinds: the
/// snapshot's advisor answers `query` under the model span, per-request
/// heuristic fallbacks under a model generation feed the watchdog, a
/// shadow candidate (if one is scoring) classifies the feature vector the
/// answer read, and the rendered response fills the cache reservation.
fn answer_miss(
    shared: &Shared,
    snapshot: &Generation,
    reservation: Reservation<'_>,
    query: Query<'_>,
) -> Routed {
    let (response, features) = {
        let _span = spmv_observe::span("serve/request/model");
        match query {
            Query::Structure(s) => snapshot.handle.recommend_structure_with_features(s),
            Query::Features(fv) => (snapshot.handle.recommend_features(fv), None),
        }
    };
    if snapshot.handle.mode() == "model" && response.source == RecommendationSource::Heuristic {
        shared.online.note_fallback(snapshot.number);
    }
    if let Some(candidate) = shared.online.shadow_candidate() {
        let _span = spmv_observe::span("serve/request/shadow");
        // The candidate's pick comes from its classifier alone, on the
        // features the answer read: no second extraction, no time model.
        let format = match (query, &features) {
            (_, Some(fv)) | (Query::Features(fv), None) => candidate.handle.classify_features(fv),
            (Query::Structure(s), None) => candidate.handle.classify_features(&extract(s)),
        };
        shared.online.record_shadow(response.format, format);
    }
    let mut bytes = response.to_json().into_bytes();
    bytes.push(b'\n');
    reservation.fulfill(Arc::new(bytes.clone()));
    ok_json(bytes)
}

/// The response cache lookup (and any single-flight wait), under its span.
fn lookup(shared: &Shared, key: CacheKey) -> Lookup<'_> {
    let _span = spmv_observe::span("serve/request/cache");
    shared.cache.get_or_reserve(key)
}

/// A key in the scope of the request's generation snapshot: a hot-swap
/// changes every key, so a cached answer from generation N can never be
/// served as generation N+1's. The namespace byte (`'m'`/`'f'`) keeps a
/// feature-vector key from aliasing a MatrixMarket body.
fn scoped_key(
    shared: &Shared,
    snapshot: &Generation,
    namespace: u8,
    content: Arc<Vec<u8>>,
) -> CacheKey {
    let _span = spmv_observe::span("serve/request/cache_key");
    shared.cache.scoped_key(snapshot.number, namespace, content)
}

fn recommend_matrix(shared: &Shared, body: Arc<Vec<u8>>) -> Routed {
    spmv_observe::counter("serve.recommend.matrix", 1);
    let snapshot = shared.online.snapshot();
    // The body itself is the key's content: shared with the cache slot,
    // never copied.
    let key = scoped_key(shared, &snapshot, b'm', Arc::clone(&body));
    match lookup(shared, key) {
        Lookup::Hit(bytes) => ok_json(bytes.to_vec()),
        Lookup::Miss(reservation) => {
            // Only the structure answers a recommend request, so the
            // values are classified as zero or not and never converted.
            let parsed = {
                let _span = spmv_observe::span("serve/request/parse");
                spmv_matrix::mm::read_matrix_market_structure(&body)
            };
            let pattern = match parsed {
                Ok(m) => m,
                Err(e) => {
                    // Reservation dropped: the key stays uncached and any
                    // concurrent duplicate re-parses for itself.
                    return (
                        400,
                        "Bad Request",
                        "application/json",
                        &[],
                        error_body("bad_matrix", &e.to_string()),
                    );
                }
            };
            answer_miss(
                shared,
                &snapshot,
                reservation,
                Query::Structure(pattern.structure()),
            )
        }
    }
}

/// The wire shape of a pre-extracted request: `{"features":[f0,…,f16]}`.
#[derive(serde::Deserialize)]
struct FeatureRequest {
    features: Vec<f64>,
}

/// The checks a client-sent feature array passes before it reaches the
/// model: exactly [`FEATURE_COUNT`] values, all finite. The error is the
/// message of the caller's 400 response.
fn checked_features(values: &[f64]) -> Result<FeatureVector, String> {
    if values.len() != FEATURE_COUNT {
        return Err(format!(
            "expected exactly {FEATURE_COUNT} features, got {}",
            values.len()
        ));
    }
    if let Some(v) = values.iter().find(|v| !v.is_finite()) {
        return Err(format!("features must be finite, got {v}"));
    }
    FeatureVector::from_slice(values).ok_or_else(|| "feature vector rejected".to_string())
}

fn recommend_features(shared: &Shared, body: &[u8]) -> Routed {
    spmv_observe::counter("serve.recommend.features", 1);
    let bad = |message: &str| {
        (
            400,
            "Bad Request",
            "application/json",
            &[] as &[_],
            error_body("bad_features", message),
        )
    };
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return bad("feature request body is not UTF-8"),
    };
    let parsed: FeatureRequest = match serde_json::from_str(text) {
        Ok(parsed) => parsed,
        Err(e) => return bad(&format!("unparsable feature request: {e}")),
    };
    let fv = match checked_features(&parsed.features) {
        Ok(fv) => fv,
        Err(message) => return bad(&message),
    };
    let snapshot = shared.online.snapshot();
    // Cache key: the 17 exact bit patterns (semantic identity — two
    // textually different JSON bodies with the same values share a key).
    let bits = parsed
        .features
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes());
    let key = scoped_key(shared, &snapshot, b'f', Arc::new(bits.collect()));
    match lookup(shared, key) {
        Lookup::Hit(bytes) => ok_json(bytes.to_vec()),
        Lookup::Miss(reservation) => {
            answer_miss(shared, &snapshot, reservation, Query::Features(&fv))
        }
    }
}

/// The wire shape of `POST /v1/feedback`: the features the
/// recommendation was for, the format the client actually ran, the model
/// generation that recommended it, and the outcome — either measured
/// `seconds` or `"status":"failed"` when the format failed outright on
/// the client's hardware.
#[derive(serde::Deserialize)]
struct FeedbackBody {
    features: Vec<f64>,
    format: String,
    #[serde(default)]
    generation: u64,
    #[serde(default)]
    seconds: Option<f64>,
    #[serde(default)]
    status: Option<String>,
}

fn feedback(shared: &Shared, body: &[u8]) -> Routed {
    spmv_observe::counter("serve.feedback.requests", 1);
    let bad = |message: &str| {
        (
            400,
            "Bad Request",
            "application/json",
            &[] as &[_],
            error_body("bad_feedback", message),
        )
    };
    let text = match std::str::from_utf8(trim_leading_ws(body)) {
        Ok(text) => text,
        Err(_) => return bad("feedback body is not UTF-8"),
    };
    let parsed: FeedbackBody = match serde_json::from_str(text) {
        Ok(parsed) => parsed,
        Err(e) => return bad(&format!("unparsable feedback: {e}")),
    };
    let features = match checked_features(&parsed.features) {
        Ok(features) => features,
        Err(message) => return bad(&message),
    };
    let Some(format) = Format::ALL
        .iter()
        .copied()
        .find(|f| f.label() == parsed.format)
    else {
        return bad(&format!("unknown format {:?}", parsed.format));
    };
    let outcome = match (parsed.status.as_deref(), parsed.seconds) {
        (Some("failed"), _) => FeedbackOutcome::Failed,
        (None | Some("ok"), Some(seconds)) => FeedbackOutcome::Measured(seconds),
        (None | Some("ok"), None) => {
            return bad("measured feedback requires \"seconds\"");
        }
        (Some(other), _) => {
            return bad(&format!("unknown status {other:?} (expected ok|failed)"));
        }
    };
    let event = FeedbackEvent {
        features,
        format,
        generation: parsed.generation,
        outcome,
    };
    match shared.online.ingest(event) {
        Ok(()) => (
            200,
            "OK",
            "application/json",
            &[],
            b"{\"status\":\"accepted\"}\n".to_vec(),
        ),
        Err(e) => bad(&e.to_string()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    use super::*;

    /// One request on its own connection; the whole response.
    fn exchange(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn a_panicking_handler_answers_a_typed_500() {
        let ((status, _, content_type, _, body), panicked) = guarded(|| panic!("a handler bug"));
        assert!(panicked);
        assert_eq!((status, content_type), (500, "application/json"));
        assert_eq!(
            String::from_utf8(body).unwrap(),
            "{\"error\":\"internal\",\"message\":\"the request handler panicked\"}\n"
        );
        let (routed, panicked) = guarded(|| ok_json(b"{}".to_vec()));
        assert!(!panicked);
        assert_eq!(routed.0, 200);
    }

    #[test]
    fn a_shard_serves_on_after_a_handler_panics() {
        // One shard: if the panic killed it, nothing would answer /healthz.
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::spawn(config, AdvisorHandle::heuristic()).unwrap();
        let panicked = exchange(
            server.addr(),
            "POST /test/panic HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(
            panicked.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
            "{panicked}"
        );
        assert!(panicked.contains("Connection: close\r\n"), "{panicked}");
        assert!(panicked
            .ends_with("{\"error\":\"internal\",\"message\":\"the request handler panicked\"}\n"));
        let health = exchange(
            server.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        server.shutdown();
    }
}
