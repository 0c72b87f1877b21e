//! A deliberately minimal HTTP/1.1 subset, hand-rolled over byte
//! buffers.
//!
//! The server speaks exactly what its clients need — `POST` with
//! `Content-Length`, `GET` without — and rejects everything else with a
//! typed [`ProtocolError`] that maps to one 4xx/5xx status. A connection
//! carries *many* requests: the parser is incremental ([`parse_request`]
//! consumes one complete request from a reused buffer and reports how
//! many bytes it ate, so pipelined requests queue naturally behind it),
//! and responses carry `Connection: keep-alive` or `Connection: close`
//! according to the negotiated policy — HTTP/1.1 defaults to keep-alive,
//! HTTP/1.0 to close, an explicit `Connection:` request header wins, and
//! the server closes after protocol-level errors, on shutdown, and when a
//! connection reaches its `max-requests` budget. A client that sends
//! `Connection: close` (the load generator's one-shot mode, any
//! one-request client) gets one answer and a close. There is no chunked
//! transfer and no continuation lines — that restriction is what keeps
//! the parser small enough to exhaustively adversarial-test
//! (`tests/protocol.rs`).
//!
//! Nothing in this module panics on wire input: malformed bytes become
//! `Err` variants, and the `deny(unwrap_used)` lint scope covers the
//! whole crate.

/// Byte budgets for a single request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Cap on the request line + headers (bytes up to the blank line).
    pub max_header_bytes: usize,
    /// Cap on the declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A parsed request: method, target, lower-cased headers, raw body.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request target path (`/v1/recommend`).
    pub target: String,
    /// HTTP minor version (`1` for HTTP/1.1, `0` for HTTP/1.0).
    pub minor_version: u8,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client is willing to reuse this connection:
    /// an explicit `Connection:` header wins, otherwise HTTP/1.1
    /// defaults to keep-alive and HTTP/1.0 to close.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => {
                let v = v.to_ascii_lowercase();
                if v.split(',').any(|t| t.trim() == "close") {
                    false
                } else if v.split(',').any(|t| t.trim() == "keep-alive") {
                    true
                } else {
                    self.minor_version >= 1
                }
            }
            None => self.minor_version >= 1,
        }
    }
}

/// Every way a request can fail at the protocol level. Each maps to one
/// status code; a connection that closes before its request is complete
/// is no request at all and gets silence, not an error.
#[derive(Debug)]
pub enum ProtocolError {
    /// The request did not complete within the read timeout.
    Timeout,
    /// The request line is not `METHOD SP TARGET SP VERSION`.
    BadRequestLine(String),
    /// The version is not HTTP/1.x.
    UnsupportedVersion(String),
    /// Headers exceeded [`Limits::max_header_bytes`].
    HeaderTooLarge {
        /// The configured [`Limits::max_header_bytes`].
        limit: usize,
    },
    /// A header line has no `:` or is not UTF-8.
    BadHeader(String),
    /// A POST arrived without `Content-Length`.
    MissingContentLength,
    /// `Content-Length` is not a base-10 integer.
    BadContentLength(String),
    /// `Transfer-Encoding` was sent; this server only does identity.
    UnsupportedTransferEncoding,
    /// Declared body size exceeds [`Limits::max_body_bytes`]. Detected
    /// before reading the body, so an attacker cannot make the server
    /// buffer it.
    BodyTooLarge {
        /// The configured [`Limits::max_body_bytes`].
        limit: usize,
        /// What the `Content-Length` header declared.
        declared: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Timeout => write!(f, "timed out reading request"),
            ProtocolError::BadRequestLine(l) => write!(f, "malformed request line {l:?}"),
            ProtocolError::UnsupportedVersion(v) => write!(f, "unsupported version {v:?}"),
            ProtocolError::HeaderTooLarge { limit } => {
                write!(f, "headers exceed {limit} bytes")
            }
            ProtocolError::BadHeader(l) => write!(f, "malformed header line {l:?}"),
            ProtocolError::MissingContentLength => write!(f, "POST without Content-Length"),
            ProtocolError::BadContentLength(v) => write!(f, "bad Content-Length {v:?}"),
            ProtocolError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding not supported")
            }
            ProtocolError::BodyTooLarge { limit, declared } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl ProtocolError {
    /// The `(status, reason, machine-readable kind)` this error maps to.
    pub fn status(&self) -> (u16, &'static str, &'static str) {
        match self {
            ProtocolError::Timeout => (408, "Request Timeout", "timeout"),
            ProtocolError::BadRequestLine(_) => (400, "Bad Request", "bad_request_line"),
            ProtocolError::UnsupportedVersion(_) => {
                (505, "HTTP Version Not Supported", "bad_version")
            }
            ProtocolError::HeaderTooLarge { .. } => {
                (431, "Request Header Fields Too Large", "header_too_large")
            }
            ProtocolError::BadHeader(_) => (400, "Bad Request", "bad_header"),
            ProtocolError::MissingContentLength => {
                (411, "Length Required", "missing_content_length")
            }
            ProtocolError::BadContentLength(_) => (400, "Bad Request", "bad_content_length"),
            ProtocolError::UnsupportedTransferEncoding => {
                (501, "Not Implemented", "unsupported_transfer_encoding")
            }
            ProtocolError::BodyTooLarge { .. } => (413, "Payload Too Large", "body_too_large"),
        }
    }
}

/// Position right after the first blank line (`\r\n\r\n`, tolerating bare
/// `\n\n`), or `None` if the headers have not terminated yet. One forward
/// scan, so whichever terminator comes first ends the head: a body may
/// hold the other one.
fn header_end(buf: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(offset) = buf[from..].iter().position(|&b| b == b'\n') {
        let lf = from + offset;
        let rest = &buf[lf + 1..];
        if rest.first() == Some(&b'\n') {
            return Some(lf + 2);
        }
        if rest.starts_with(b"\r\n") && lf > 0 && buf[lf - 1] == b'\r' {
            return Some(lf + 3);
        }
        from = lf + 1;
    }
    None
}

/// Result of trying to parse one request out of a connection buffer.
pub enum Parse {
    /// The buffer does not yet hold a complete request; read more bytes.
    Partial,
    /// One complete request, consuming the first `usize` bytes of the
    /// buffer. Pipelined bytes beyond that belong to the next request.
    Done(Request, usize),
}

/// Try to parse exactly one request from the front of `buf`.
///
/// Incremental and restartable: feed it the same buffer again after
/// appending more bytes. Limits are enforced per state — headers that
/// never terminate within `max_header_bytes` fail with 431 *before* the
/// request completes, and an oversized declared body fails with 413
/// from the header alone, before any body byte is read.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parse, ProtocolError> {
    let head_len = match header_end(buf) {
        Some(end) => end,
        None => {
            if buf.len() > limits.max_header_bytes {
                return Err(ProtocolError::HeaderTooLarge {
                    limit: limits.max_header_bytes,
                });
            }
            return Ok(Parse::Partial);
        }
    };
    if head_len > limits.max_header_bytes {
        return Err(ProtocolError::HeaderTooLarge {
            limit: limits.max_header_bytes,
        });
    }

    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| ProtocolError::BadHeader("non-UTF-8 header bytes".to_string()))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v),
        _ => return Err(ProtocolError::BadRequestLine(request_line.to_string())),
    };
    let minor_version = match version.strip_prefix("HTTP/1.") {
        Some(minor) => minor
            .parse::<u8>()
            .map_err(|_| ProtocolError::UnsupportedVersion(version.to_string()))?,
        None => return Err(ProtocolError::UnsupportedVersion(version.to_string())),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ProtocolError::BadHeader(line.to_string()))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some() {
        return Err(ProtocolError::UnsupportedTransferEncoding);
    }
    let declared = match header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ProtocolError::BadContentLength(v.to_string()))?,
        None if method == "POST" => return Err(ProtocolError::MissingContentLength),
        None => 0,
    };
    if declared > limits.max_body_bytes {
        return Err(ProtocolError::BodyTooLarge {
            limit: limits.max_body_bytes,
            declared,
        });
    }
    if buf.len() - head_len < declared {
        return Ok(Parse::Partial);
    }

    let body = buf[head_len..head_len + declared].to_vec();
    Ok(Parse::Done(
        Request {
            method,
            target,
            minor_version,
            headers,
            body,
        },
        head_len + declared,
    ))
}

/// Append a complete response (status line, standard headers, body) to
/// `out`. `keep_alive` selects the `Connection:` header; the caller owns
/// actually closing (or not closing) the transport to match.
pub fn render_response_into(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    let mut code = [0u8; 3];
    code[0] = b'0' + ((status / 100) % 10) as u8;
    code[1] = b'0' + ((status / 10) % 10) as u8;
    code[2] = b'0' + (status % 10) as u8;
    out.extend_from_slice(&code);
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    let mut len_buf = [0u8; 20];
    let mut n = body.len();
    let mut i = len_buf.len();
    loop {
        i -= 1;
        len_buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&len_buf[i..]);
    if keep_alive {
        out.extend_from_slice(b"\r\nConnection: keep-alive\r\n");
    } else {
        out.extend_from_slice(b"\r\nConnection: close\r\n");
    }
    for (name, value) in extra_headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Escape a string for embedding in a JSON literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The uniform error body: `{"error":"<kind>","message":"<detail>"}`.
pub fn error_body(kind: &str, message: &str) -> Vec<u8> {
    format!(
        "{{\"error\":\"{}\",\"message\":\"{}\"}}\n",
        escape_json(kind),
        escape_json(message)
    )
    .into_bytes()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Parse one request that `bytes` must hold completely.
    fn parse(bytes: &[u8]) -> Result<Request, ProtocolError> {
        match parse_request(bytes, &Limits::default())? {
            Parse::Done(request, _consumed) => Ok(request),
            Parse::Partial => panic!("incomplete request {bytes:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/recommend");
        assert_eq!(req.minor_version, 1);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_get_without_length() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn tolerates_bare_lf_terminators() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn bare_lf_head_ends_at_the_first_blank_line() {
        // The body holds a CRLF blank line; the bare-LF one before it ends
        // the head.
        let req = parse(b"POST /x HTTP/1.1\nContent-Length: 8\n\nab\r\n\r\ncd").unwrap();
        assert_eq!(req.header("content-length"), Some("8"));
        assert_eq!(req.body, b"ab\r\n\r\ncd");
    }

    #[test]
    fn bad_request_line_maps_to_400() {
        let e = parse(b"NONSENSE\r\n\r\n").unwrap_err();
        assert!(matches!(e, ProtocolError::BadRequestLine(_)));
        assert_eq!(e.status().0, 400);
    }

    #[test]
    fn http2_preface_is_rejected() {
        let e = parse(b"PRI * HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(e.status().0, 505);
    }

    #[test]
    fn non_numeric_content_length_maps_to_400() {
        let e = parse(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n").unwrap_err();
        assert!(matches!(e, ProtocolError::BadContentLength(_)));
        assert_eq!(e.status().0, 400);
    }

    #[test]
    fn negative_content_length_maps_to_400() {
        let e = parse(b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n").unwrap_err();
        assert!(matches!(e, ProtocolError::BadContentLength(_)));
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_reading() {
        let limits = Limits {
            max_header_bytes: 1024,
            max_body_bytes: 10,
        };
        // Note: no body bytes follow — detection is from the header alone.
        let Err(e) = parse_request(b"POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\n", &limits)
        else {
            panic!("an oversized declaration must fail");
        };
        assert!(matches!(
            e,
            ProtocolError::BodyTooLarge {
                limit: 10,
                declared: 11
            }
        ));
        assert_eq!(e.status().0, 413);
    }

    #[test]
    fn post_without_length_maps_to_411() {
        let e = parse(b"POST /x HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(e.status().0, 411);
    }

    #[test]
    fn chunked_encoding_maps_to_501() {
        let e = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.status().0, 501);
    }

    #[test]
    fn oversized_headers_map_to_431() {
        let mut req = b"GET /x HTTP/1.1\r\n".to_vec();
        req.extend(std::iter::repeat_n(b'a', 20 * 1024));
        let e = parse(&req).unwrap_err();
        assert!(matches!(e, ProtocolError::HeaderTooLarge { .. }));
        assert_eq!(e.status().0, 431);
    }

    #[test]
    fn non_utf8_headers_map_to_400() {
        let e = parse(b"GET /\xff\xfe HTTP/1.1\r\nX: \xff\r\n\r\n").unwrap_err();
        assert!(matches!(e, ProtocolError::BadHeader(_)));
    }

    #[test]
    fn excess_body_bytes_are_left_for_the_pipeline() {
        // The parser reports the exact consumed length, so they become
        // request 2.
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nabEXTRA").unwrap();
        assert_eq!(req.body, b"ab");
        match parse_request(
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nabEXTRA",
            &Limits::default(),
        )
        .unwrap()
        {
            Parse::Done(req, consumed) => {
                assert_eq!(req.body, b"ab");
                assert_eq!(
                    consumed,
                    b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nab".len()
                );
            }
            Parse::Partial => panic!("complete request must parse"),
        }
    }

    #[test]
    fn incremental_parse_reports_partial_until_complete() {
        let full = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let limits = Limits::default();
        for cut in 0..full.len() {
            match parse_request(&full[..cut], &limits).unwrap() {
                Parse::Partial => {}
                Parse::Done(..) => panic!("cut at {cut} is incomplete"),
            }
        }
        assert!(matches!(
            parse_request(full, &limits).unwrap(),
            Parse::Done(_, n) if n == full.len()
        ));
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/recommend HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let limits = Limits::default();
        let (first, n1) = match parse_request(wire, &limits).unwrap() {
            Parse::Done(r, n) => (r, n),
            Parse::Partial => panic!(),
        };
        assert_eq!(first.target, "/healthz");
        let (second, n2) = match parse_request(&wire[n1..], &limits).unwrap() {
            Parse::Done(r, n) => (r, n),
            Parse::Partial => panic!(),
        };
        assert_eq!(second.target, "/v1/recommend");
        assert_eq!(second.body, b"hi");
        assert_eq!(n1 + n2, wire.len());
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_header() {
        let req = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive(), "1.1 defaults to keep-alive");
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive(), "1.0 defaults to close");
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive(), "explicit close wins");
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive(), "explicit keep-alive wins");
    }

    #[test]
    fn response_wire_format_is_complete() {
        let mut out = Vec::new();
        render_response_into(
            &mut out,
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", "1")],
            b"{}",
            false,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        // keep_alive=false closes; persistent connections render with
        // keep_alive=true instead.
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn rendered_keep_alive_response_advertises_reuse() {
        let mut out = Vec::new();
        render_response_into(
            &mut out,
            200,
            "OK",
            "application/json",
            &[],
            b"{\"ok\":true}",
            true,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_bodies_escape_json() {
        let body = String::from_utf8(error_body("bad_matrix", "line 3: \"oops\"\n")).unwrap();
        assert_eq!(
            body,
            "{\"error\":\"bad_matrix\",\"message\":\"line 3: \\\"oops\\\"\\n\"}\n"
        );
    }
}
