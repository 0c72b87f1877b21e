//! The per-shard event loop: shared-nothing epoll shards driving
//! per-connection HTTP/1.1 state machines.
//!
//! Each shard is one thread owning one [`Epoll`] instance, a token→
//! connection map, and nothing else mutable — the nginx/redis shape.
//! All shards register the *same* nonblocking listener with
//! `EPOLLEXCLUSIVE`, so a connect wakes exactly one shard, which
//! accepts and then owns that connection for its whole life. Requests
//! are parsed incrementally from a per-connection reused buffer
//! ([`parse_request`]), dispatched inline on the shard thread, and the
//! responses are appended to a per-connection write buffer flushed as
//! the socket allows.
//!
//! ## Connection state machine
//!
//! ```text
//!   accept ──▶ Active ──(read: bytes → parse → dispatch → respond)──┐
//!                │  ▲                                               │
//!                │  └── keep-alive: response flushed, parse again ◀─┘
//!                │
//!                ├── Connection: close served, all input consumed ──▶ close
//!                ├── protocol error / 408 / shed: respond ──▶ Draining ──▶ close
//!                └── EOF / reset / deadline ──▶ close
//! ```
//!
//! *Draining* exists for the RST problem: closing a socket with unread
//! request bytes makes the kernel send RST instead of FIN, which can
//! destroy the 413/503 response sitting in the client's receive buffer.
//! A draining connection discards input for a short window (or until
//! the peer's EOF) so the close is an orderly FIN. Connections whose
//! input was fully consumed skip the window and close immediately —
//! the one-shot `Connection: close` fast path pays nothing.
//!
//! ## Deadlines
//!
//! Timers ride on the bounded `epoll_wait` timeout: every tick the
//! shard sweeps its connections. A connection stalled mid-request (or
//! silent before its first request) past `read_timeout_ms` gets `408`
//! — the Slowloris defense the blocking server enforced with socket
//! timeouts. An *idle* keep-alive connection (≥1 request served,
//! nothing buffered) is closed silently after `idle_timeout_ms`; that
//! silence is deliberate, because an idle close is not an error and
//! must not perturb the mix-pure counters.
//!
//! ## Determinism discipline
//!
//! Everything the deterministic manifest section can see — request,
//! response-class, recommend, cache, and protocol counters — is
//! incremented per *request*, exactly as the blocking server did, so
//! the section stays a pure function of the request mix at any shard
//! count and any keep-alive vs close client mix. Everything that is a
//! function of *scheduling* (connections accepted/shed per shard,
//! keep-alive reuse) lives in [`ShardStats`] and is merged into the
//! manifest's quarantined timing section at shutdown.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::epoll::{Epoll, Event, EPOLLEXCLUSIVE, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::{error_body, parse_request, render_response_into, Parse, ProtocolError, Request};
use crate::Shared;

/// Token reserved for the shared listener in every shard's epoll set.
const LISTENER_TOKEN: u64 = 0;
/// Epoll wait bound: the deadline-sweep / stop-flag tick.
const TICK_MS: i32 = 25;
/// Most connections accepted per listener wakeup, so one shard cannot
/// monopolize a connect burst under `EPOLLEXCLUSIVE`.
const ACCEPT_BATCH: usize = 64;
/// Most bytes read from one connection per readiness event; level-
/// triggered epoll re-reports whatever is left, so a firehose client
/// cannot starve its shard-mates.
const READ_BATCH_BYTES: usize = 256 * 1024;
/// Pending-response high-water mark: past this the shard stops parsing
/// further pipelined requests until the socket drains (backpressure).
const HIGH_WATER_BYTES: usize = 256 * 1024;
/// How long a draining connection keeps discarding input before the
/// close goes out anyway.
const DRAIN_WINDOW: Duration = Duration::from_millis(50);

/// Per-shard scheduling statistics. These are *not* observe counters:
/// they depend on connection placement and client mode, so they are
/// quarantined in the manifest timing section (see module docs).
pub(crate) struct ShardStats {
    /// Connections accepted by this shard (including shed ones).
    pub(crate) accepted: AtomicU64,
    /// Connections answered `503` at admission (over the shard cap).
    pub(crate) shed: AtomicU64,
    /// Requests served on an already-used connection (keep-alive reuse).
    pub(crate) reused: AtomicU64,
}

impl ShardStats {
    pub(crate) fn new() -> ShardStats {
        ShardStats {
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }
}

/// What [`Conn::settle`] decided the connection needs next.
enum Settled {
    /// Stay registered with this interest set.
    Keep(u32),
    /// Remove and close; `disconnect` says whether the close counts as
    /// a mid-request client disconnect (`serve.disconnects`).
    Close { disconnect: bool },
}

struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (completed requests are drained off the
    /// front as they dispatch; at most one partial request remains).
    inbuf: Vec<u8>,
    /// Rendered-but-unflushed response bytes.
    outbuf: Vec<u8>,
    /// Flushed prefix of `outbuf`.
    written: usize,
    /// Requests answered on this connection.
    served: u64,
    /// Whether this connection holds an admission slot (shed ones don't).
    admitted: bool,
    /// No further requests will be parsed; close once `outbuf` flushes.
    close_after_write: bool,
    /// The peer sent EOF (or the read side errored): no more input.
    peer_half_closed: bool,
    /// The write side failed; the response cannot be delivered.
    dead_write: bool,
    /// The request may not have been fully read (early rejection), so
    /// closing needs the drain window to avoid an RST.
    suspect_unread: bool,
    /// Set once the connection is discarding input pre-close.
    draining: bool,
    drain_deadline: Option<Instant>,
    last_activity: Instant,
    /// Interest set currently registered with epoll.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, admitted: bool, now: Instant) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            written: 0,
            served: 0,
            admitted,
            close_after_write: false,
            peer_half_closed: false,
            dead_write: false,
            suspect_unread: false,
            draining: false,
            drain_deadline: None,
            last_activity: now,
            interest: 0,
        }
    }

    fn pending_out(&self) -> bool {
        self.written < self.outbuf.len()
    }

    /// Pull whatever the socket has (bounded per event) into `inbuf`,
    /// or discard it when draining. Flags EOF and read errors.
    fn fill(&mut self, now: Instant) {
        let mut scratch = [0u8; 16 * 1024];
        let mut taken = 0;
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.peer_half_closed = true;
                    break;
                }
                Ok(n) => {
                    self.last_activity = now;
                    if !self.draining && !self.close_after_write {
                        self.inbuf.extend_from_slice(&scratch[..n]);
                    }
                    taken += n;
                    if taken >= READ_BATCH_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Reset or transport error: no more input will come.
                    self.peer_half_closed = true;
                    break;
                }
            }
        }
    }

    /// Parse-and-dispatch every complete request currently buffered,
    /// then flush; repeat while backpressure keeps releasing.
    fn pump(&mut self, shared: &Shared, stats: &ShardStats) {
        loop {
            let consumed = self.process(shared, stats);
            self.flush();
            if consumed == 0 || self.dead_write {
                break;
            }
        }
    }

    /// One parsing pass; returns how many requests were dispatched.
    fn process(&mut self, shared: &Shared, stats: &ShardStats) -> usize {
        let mut dispatched = 0;
        while !self.close_after_write && !self.draining {
            if self.outbuf.len() - self.written > HIGH_WATER_BYTES {
                break; // backpressure: let the socket drain first
            }
            match parse_request(&self.inbuf, &shared.limits) {
                Ok(Parse::Partial) => break,
                Ok(Parse::Done(mut request, used)) => {
                    self.inbuf.drain(..used);
                    self.dispatch(shared, stats, &mut request);
                    dispatched += 1;
                }
                Err(err) => {
                    // Framing is broken (or the declared body is
                    // rejected): answer and close. Whatever the client
                    // pipelined after the poison request is discarded.
                    self.respond_protocol_error(&err);
                    self.close_after_write = true;
                    self.suspect_unread = true;
                }
            }
        }
        dispatched
    }

    /// Route one parsed request and append its response.
    fn dispatch(&mut self, shared: &Shared, stats: &ShardStats, request: &mut Request) {
        if shared.config.handler_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.config.handler_delay_ms));
        }
        let _span = spmv_observe::span("serve/request");
        spmv_observe::counter("serve.requests", 1);
        let ((status, reason, content_type, extra, body), panicked) =
            crate::guarded(|| crate::route(shared, request));
        crate::count_status(status);
        self.served += 1;
        if self.served > 1 {
            stats.reused.fetch_add(1, Ordering::Relaxed);
        }
        let keep = !panicked
            && request.wants_keep_alive()
            && self.served < shared.config.keep_alive_max_requests as u64
            && !shared.stop.load(Ordering::SeqCst);
        render_response_into(
            &mut self.outbuf,
            status,
            reason,
            content_type,
            extra,
            &body,
            keep,
        );
        if !keep {
            self.close_after_write = true;
        }
        self.last_activity = Instant::now();
    }

    /// Append the typed 4xx/5xx for a protocol error; it counts as a
    /// request.
    fn respond_protocol_error(&mut self, err: &ProtocolError) {
        let (status, reason, kind) = err.status();
        spmv_observe::counter("serve.requests", 1);
        crate::count_protocol_error(err);
        crate::count_status(status);
        let body = error_body(kind, &err.to_string());
        render_response_into(
            &mut self.outbuf,
            status,
            reason,
            "application/json",
            &[],
            &body,
            false,
        );
    }

    /// Nonblocking flush of the pending response bytes.
    fn flush(&mut self) {
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => {
                    self.dead_write = true;
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.dead_write = true;
                    break;
                }
            }
        }
        if self.written > 0 && self.written == self.outbuf.len() {
            self.outbuf.clear();
            self.written = 0;
        }
    }

    /// Decide what happens to this connection now: which interest to
    /// keep, or whether (and how) to close.
    fn settle(&mut self, now: Instant) -> Settled {
        if self.dead_write {
            // The response cannot be delivered; counters for the request
            // were already recorded. Same silence as the blocking
            // server's ignored write errors.
            return Settled::Close { disconnect: false };
        }
        if self.draining {
            let expired = self.drain_deadline.is_some_and(|d| now >= d);
            return if self.peer_half_closed || expired {
                Settled::Close { disconnect: false }
            } else {
                Settled::Keep(EPOLLIN | EPOLLRDHUP)
            };
        }
        let pending = self.pending_out();
        if self.close_after_write {
            if pending {
                // Stop reading; just get the final response out.
                return Settled::Keep(EPOLLOUT);
            }
            if self.peer_half_closed {
                // EOF already seen: everything the client sent has been
                // read out of the kernel, so the close is a clean FIN.
                return Settled::Close { disconnect: false };
            }
            if self.suspect_unread || !self.inbuf.is_empty() {
                self.draining = true;
                self.inbuf.clear();
                self.drain_deadline = Some(now + DRAIN_WINDOW);
                return Settled::Keep(EPOLLIN | EPOLLRDHUP);
            }
            // `Connection: close` served, input fully consumed: the
            // one-shot fast path closes immediately.
            return Settled::Close { disconnect: false };
        }
        if self.peer_half_closed {
            if pending {
                return Settled::Keep(EPOLLOUT);
            }
            // No more input can ever arrive; leftover buffered bytes are
            // a dead partial request — the mid-request disconnect the
            // counters track. A fully-consumed buffer is a clean close
            // (empty probe or finished keep-alive session).
            return Settled::Close {
                disconnect: !self.inbuf.is_empty(),
            };
        }
        let mut interest = EPOLLRDHUP;
        if self.outbuf.len() - self.written > HIGH_WATER_BYTES {
            interest |= EPOLLOUT; // paused: resume parsing after drain
        } else {
            interest |= EPOLLIN;
            if pending {
                interest |= EPOLLOUT;
            }
        }
        Settled::Keep(interest)
    }

    /// Whether this is an idle keep-alive session (safe to close
    /// silently at shutdown or idle timeout).
    fn is_idle_keepalive(&self) -> bool {
        !self.draining
            && !self.close_after_write
            && self.served > 0
            && self.inbuf.is_empty()
            && !self.pending_out()
    }
}

/// One shard: the epoll set, the connections it owns, and its slice of
/// the admission budget.
struct Shard {
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    stats: Arc<ShardStats>,
    ep: Epoll,
    conns: HashMap<u64, Conn>,
    /// Connections currently holding an admission slot.
    admitted: usize,
    /// Admission cap: `queue_depth` waiting + 1 in flight, per shard —
    /// the same budget the bounded channel gave the blocking server.
    cap: usize,
    next_token: u64,
    listener_armed: bool,
}

/// Run one shard's event loop until shutdown completes. Spawned once
/// per worker shard by `Server::spawn`.
pub(crate) fn shard_loop(shared: Arc<Shared>, listener: Arc<TcpListener>, stats: Arc<ShardStats>) {
    let ep = match Epoll::new() {
        Ok(ep) => ep,
        Err(_) => return, // no epoll, no shard; spawn-time smoke tests catch this
    };
    if ep
        .add(&*listener, EPOLLIN | EPOLLEXCLUSIVE, LISTENER_TOKEN)
        .is_err()
    {
        return;
    }
    let cap = shared.config.queue_depth.max(1) + 1;
    let mut shard = Shard {
        shared,
        listener,
        stats,
        ep,
        conns: HashMap::new(),
        admitted: 0,
        cap,
        next_token: 1,
        listener_armed: true,
    };
    let mut events = [Event { events: 0, data: 0 }; 128];
    loop {
        let stopping = shard.shared.stop.load(Ordering::SeqCst);
        if stopping {
            shard.enter_shutdown();
            if shard.conns.is_empty() {
                break;
            }
        }
        let now = Instant::now();
        match shard.ep.wait(&mut events, TICK_MS) {
            Ok(batch) => {
                // `batch` borrows `events`, not `shard`.
                for ev in batch {
                    shard.on_event(ev.token(), stopping, now);
                }
            }
            Err(_) => continue,
        }
        shard.sweep(Instant::now(), stopping);
    }
}

impl Shard {
    /// Stop accepting and shut idle sessions; in-flight work continues
    /// (bounded by its deadlines) so admitted requests still complete.
    fn enter_shutdown(&mut self) {
        if self.listener_armed {
            self.ep.remove(&*self.listener);
            self.listener_armed = false;
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.is_idle_keepalive())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close(token, false);
        }
    }

    fn on_event(&mut self, token: u64, stopping: bool, now: Instant) {
        if token == LISTENER_TOKEN {
            if !stopping && self.listener_armed {
                self.accept_burst(now);
            }
            return;
        }
        let Self {
            conns,
            shared,
            stats,
            ..
        } = self;
        let settled = match conns.get_mut(&token) {
            Some(conn) => {
                conn.fill(now);
                conn.pump(shared, stats);
                conn.settle(now)
            }
            None => return, // closed earlier in this batch
        };
        self.apply(token, settled);
    }

    /// Apply a settle decision: re-arm interest or close.
    fn apply(&mut self, token: u64, settled: Settled) {
        match settled {
            Settled::Keep(interest) => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if interest != conn.interest {
                    if self.ep.modify(&conn.stream, interest, token).is_ok() {
                        conn.interest = interest;
                    } else {
                        self.close(token, false);
                    }
                }
            }
            Settled::Close { disconnect } => self.close(token, disconnect),
        }
    }

    fn close(&mut self, token: u64, disconnect: bool) {
        if let Some(conn) = self.conns.remove(&token) {
            if disconnect {
                spmv_observe::counter("serve.disconnects", 1);
            }
            self.ep.remove(&conn.stream);
            if conn.admitted {
                self.admitted -= 1;
            }
        }
    }

    fn accept_burst(&mut self, now: Instant) {
        for _ in 0..ACCEPT_BATCH {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => continue, // aborted handshake etc.; keep accepting
            };
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            let _nb = stream.set_nonblocking(true);
            let _nd = stream.set_nodelay(true);
            let admitted = self.admitted < self.cap;
            let mut conn = Conn::new(stream, admitted, now);
            if admitted {
                self.admitted += 1;
            } else {
                self.shed_overload(&mut conn);
            }
            let token = self.next_token;
            self.next_token += 1;
            match conn.settle(now) {
                Settled::Keep(interest) => {
                    if self.ep.add(&conn.stream, interest, token).is_ok() {
                        conn.interest = interest;
                        self.conns.insert(token, conn);
                    } else if conn.admitted {
                        self.admitted -= 1;
                    }
                }
                Settled::Close { .. } => {
                    if conn.admitted {
                        self.admitted -= 1;
                    }
                }
            }
        }
    }

    /// Over the admission cap: answer `503 Retry-After: 1` immediately
    /// (the shed path must never wait behind queued work) and drain.
    fn shed_overload(&mut self, conn: &mut Conn) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        spmv_observe::counter("serve.rejected.overload", 1);
        let body = error_body("overloaded", "request queue is full; retry shortly");
        render_response_into(
            &mut conn.outbuf,
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", "1")],
            &body,
            false,
        );
        conn.close_after_write = true;
        conn.suspect_unread = true;
        conn.flush();
    }

    /// Deadline pass, run every tick: 408 stalled requests, silently
    /// close idle keep-alive sessions and expired drains.
    fn sweep(&mut self, now: Instant, stopping: bool) {
        let read_timeout = Duration::from_millis(self.shared.config.read_timeout_ms.max(1));
        let idle_timeout = Duration::from_millis(self.shared.config.idle_timeout_ms.max(1));
        let mut to_close: Vec<u64> = Vec::new();
        let mut to_timeout: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.draining {
                if conn.peer_half_closed || conn.drain_deadline.is_some_and(|d| now >= d) {
                    to_close.push(token);
                }
                continue;
            }
            let idle = conn.is_idle_keepalive();
            if idle && stopping {
                to_close.push(token);
                continue;
            }
            let limit = if idle { idle_timeout } else { read_timeout };
            if now.duration_since(conn.last_activity) < limit {
                continue;
            }
            if idle || conn.pending_out() || conn.close_after_write {
                // Idle session, stalled writer, or a close already in
                // motion: nothing useful to say, just hang up.
                to_close.push(token);
            } else {
                to_timeout.push(token);
            }
        }
        for token in to_close {
            self.close(token, false);
        }
        for token in to_timeout {
            let settled = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                conn.respond_protocol_error(&ProtocolError::Timeout);
                conn.close_after_write = true;
                conn.suspect_unread = true;
                conn.flush();
                conn.settle(now)
            };
            self.apply(token, settled);
        }
    }
}
