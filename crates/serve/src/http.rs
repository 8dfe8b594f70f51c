//! A minimal, defensive HTTP/1.1 message layer.
//!
//! Hand-rolled on purpose: the workspace is offline and zero-dependency
//! (vendored-stub policy from PR 1), and the server only needs the small
//! request subset its endpoints speak — `GET`/`POST`, explicit
//! `Content-Length` bodies, no chunked transfer coding. The parser is
//! **incremental** (feed it a growing buffer until it yields a request)
//! and **total**: any byte sequence produces `Ok` or a typed error,
//! never a panic — the crate's proptest suite fuzzes it with arbitrary
//! bytes, truncations, oversized heads, and bad chunking.

use std::fmt;

/// Hard ceilings the parser enforces before trusting any length field.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes in the request line + headers (incl. final CRLF).
    pub max_head: usize,
    /// Maximum bytes in the request body (`Content-Length` is rejected
    /// above this *before* reading the body).
    pub max_body: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head: 8 * 1024,
            max_body: 1024 * 1024,
            max_headers: 64,
        }
    }
}

/// Why a request could not be parsed. Each variant maps to one HTTP
/// status so the connection handler can answer without guesswork.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line, header, or length field → 400.
    BadRequest(String),
    /// Head or header count over [`Limits`] → 431.
    HeadTooLarge,
    /// Declared body over [`Limits::max_body`] → 413.
    BodyTooLarge,
    /// `Transfer-Encoding` present (chunked bodies unsupported) → 501.
    UnsupportedTransferEncoding,
}

impl ParseError {
    /// The HTTP status this error should be answered with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::UnsupportedTransferEncoding => 501,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadRequest(why) => write!(f, "bad request: {why}"),
            ParseError::HeadTooLarge => write!(f, "request head too large"),
            ParseError::BodyTooLarge => write!(f, "request body too large"),
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "transfer codings are not supported; send Content-Length")
            }
        }
    }
}

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (upper-case as sent).
    pub method: String,
    /// Request target as sent, query string included.
    pub path: String,
    /// Header name/value pairs; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
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
}

/// The `{name}` of `/v1/datasets/{name}/rows`, the one parameterized
/// route. The worker and the router front both match it through here.
pub fn dataset_from_append_path(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/datasets/")
        .and_then(|rest| rest.strip_suffix("/rows"))
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// Try to parse one request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — a complete request occupies
///   `buf[..consumed]`.
/// * `Ok(None)` — `buf` is a valid prefix; read more bytes and retry.
/// * `Err(_)` — the bytes can never become a valid request under
///   `limits`; answer with [`ParseError::status`] and close.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, ParseError> {
    let head_end = match find_head_end(buf) {
        Some(end) if end <= limits.max_head => end,
        Some(_) => return Err(ParseError::HeadTooLarge),
        None if buf.len() > limits.max_head => return Err(ParseError::HeadTooLarge),
        None => return Ok(None),
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::BadRequest("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(ParseError::BadRequest(format!(
                "malformed request line `{}`",
                request_line.escape_default()
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::BadRequest(format!(
            "bad method `{}`",
            method.escape_default()
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::BadRequest(format!(
            "unsupported version `{}`",
            version.escape_default()
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank line terminating the head
        }
        if headers.len() >= limits.max_headers {
            return Err(ParseError::HeadTooLarge);
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            ParseError::BadRequest(format!("bad header `{}`", line.escape_default()))
        })?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadRequest(format!(
                "bad header name `{}`",
                name.escape_default()
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };

    if request.header("transfer-encoding").is_some() {
        // Chunked (or any other) transfer coding: refuse rather than
        // misinterpret the body boundary.
        return Err(ParseError::UnsupportedTransferEncoding);
    }
    let body_len = match request.header("content-length") {
        None => 0,
        Some(v) => v.parse::<usize>().map_err(|_| {
            ParseError::BadRequest(format!("bad Content-Length `{}`", v.escape_default()))
        })?,
    };
    if body_len > limits.max_body {
        return Err(ParseError::BodyTooLarge);
    }
    let total = head_end
        .checked_add(body_len)
        .ok_or(ParseError::BodyTooLarge)?;
    if buf.len() < total {
        return Ok(None);
    }
    request.body = buf[head_end..total].to_vec();
    Ok(Some((request, total)))
}

/// Byte offset one past the `\r\n\r\n` terminating the head.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// A response ready for serialization. [`Response::to_bytes`] emits
/// `Connection: close` (the historical one-request-per-connection
/// policy); [`Response::to_bytes_with`] can emit `keep-alive` instead,
/// which the server uses when the *request* explicitly asked for
/// connection reuse (the router front and the batch CLI client do).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers, e.g. `Retry-After` on 503.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response, typed for Prometheus text exposition
    /// format 0.0.4 (`GET /metrics` is the only text endpoint).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            extra_headers: Vec::new(),
        }
    }

    /// A JSON error document `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!(
                "{{\n  \"error\": \"{}\"\n}}\n",
                exq_obs::escape_json(message)
            ),
        )
    }

    /// Attach an extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize status line + headers + body with `Connection: close`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with(false)
    }

    /// Serialize with an explicit connection policy: `keep_alive` emits
    /// `connection: keep-alive` so the peer knows the stream stays open
    /// for the next request; otherwise `connection: close`.
    pub fn to_bytes_with(&self, keep_alive: bool) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        };
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = format!(
            "HTTP/1.1 {} {reason}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
            self.status,
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
        parse_request(bytes, &Limits::default())
    }

    #[test]
    fn parses_get() {
        let (req, used) = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert_eq!(used, 34);
    }

    #[test]
    fn parses_post_with_body_and_reports_consumed() {
        let raw = b"POST /v1/explain HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"extra";
        let (req, used) = parse(raw).unwrap().unwrap();
        assert_eq!(req.body, b"{\"a\"");
        assert_eq!(&raw[used..], b"extra");
    }

    #[test]
    fn incomplete_head_and_body_ask_for_more() {
        assert_eq!(parse(b"GET / HTT").unwrap(), None);
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\n12345").unwrap(),
            None
        );
    }

    #[test]
    fn rejects_chunked() {
        let err =
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n").unwrap_err();
        assert_eq!(err, ParseError::UnsupportedTransferEncoding);
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn rejects_oversized_head_even_unterminated() {
        let long = vec![b'A'; Limits::default().max_head + 1];
        assert_eq!(parse(&long).unwrap_err(), ParseError::HeadTooLarge);
    }

    #[test]
    fn rejects_oversized_declared_body_before_reading_it() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            Limits::default().max_body + 1
        );
        assert_eq!(parse(raw.as_bytes()).unwrap_err(), ParseError::BodyTooLarge);
    }

    #[test]
    fn rejects_garbage_lengths() {
        for bad in ["-1", "1e3", "99999999999999999999999999"] {
            let raw = format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n");
            assert!(matches!(
                parse(raw.as_bytes()).unwrap_err(),
                ParseError::BadRequest(_)
            ));
        }
    }

    #[test]
    fn response_shape() {
        let bytes = Response::json(200, "{}").to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let busy = Response::error(503, "busy").with_header("retry-after", "1");
        assert!(String::from_utf8(busy.to_bytes())
            .unwrap()
            .contains("retry-after: 1\r\n"));
    }

    #[test]
    fn connection_policy_is_explicit() {
        let response = Response::json(200, "{}");
        let close = String::from_utf8(response.to_bytes()).unwrap();
        assert!(close.contains("connection: close\r\n"));
        let close = String::from_utf8(response.to_bytes_with(false)).unwrap();
        assert!(close.contains("connection: close\r\n"));
        let keep = String::from_utf8(response.to_bytes_with(true)).unwrap();
        assert!(keep.contains("connection: keep-alive\r\n"));
        assert!(!keep.contains("connection: close\r\n"));
    }
}
