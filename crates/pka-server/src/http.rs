//! A minimal HTTP/1.1 implementation on `std::net` — exactly the subset
//! the PKA service needs (request-line + headers + `Content-Length`
//! bodies, keep-alive, no chunked transfer coding), so the server stays
//! zero-external-dependency like the rest of the workspace.

use std::io::{BufRead, ErrorKind, IoSlice, Write};

use serde_json::Value;

/// Largest accepted header block (request line + headers), in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (lower-case), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns a [`ReadError::Malformed`] description for invalid UTF-8.
    pub fn body_text(&self) -> Result<&str, ReadError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ReadError::Malformed("request body is not UTF-8".into()))
    }
}

/// Why a request could not be read off the wire.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before a request line arrived — the
    /// normal end of a keep-alive connection, not an error to report.
    Closed,
    /// Transport failure mid-request.
    Io(std::io::Error),
    /// The bytes were not a well-formed HTTP/1.1 request (maps to `400`).
    Malformed(String),
    /// The declared body exceeds the configured cap (maps to `413`).
    TooLarge,
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request from `stream`. Bodies larger than `max_body` are
/// rejected without being read.
///
/// # Errors
///
/// [`ReadError::Closed`] at clean EOF before any byte, otherwise the
/// transport/parse failure.
pub fn read_request<R: BufRead>(stream: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let mut line = String::new();
    if stream.read_line(&mut line)? == 0 {
        return Err(ReadError::Closed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line lacks a target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line lacks a version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported version `{version}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let mut h = String::new();
        if stream.read_line(&mut h)? == 0 {
            return Err(ReadError::Malformed("connection closed mid-headers".into()));
        }
        head_bytes += h.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed("header block too large".into()));
        }
        let h = h.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        let (name, value) = h
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("header without colon: `{h}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::Malformed("invalid Content-Length".into()))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        std::io::Read::read_exact(stream, &mut body)?;
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// One response, ready to serialise.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (compact rendering plus trailing newline, so shell
    /// pipelines read one value per line).
    pub fn json(status: u16, value: &Value) -> Self {
        let mut body = value.to_string().into_bytes();
        body.push(b'\n');
        Self {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A raw pre-rendered body (NDJSON streams, artifact bytes).
    pub fn raw(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type,
            body: body.into(),
        }
    }

    /// A JSON error envelope `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(status, &serde_json::json!({ "error": message }))
    }

    /// Serialises status line, headers and body to `w` as one vectored
    /// write (a single `writev` on a socket, the body not copied), so the
    /// response leaves as one burst rather than a train of small segments
    /// that Nagle's algorithm would hold back behind the client's delayed
    /// ACKs.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(&self.body)];
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match w.write_vectored(parts) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

/// Reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        408 => "Request Timeout",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_with_body_and_query() {
        let raw = b"POST /v1/sessions?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sessions");
        assert_eq!(req.query, "verbose=1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn clean_eof_is_closed_and_oversize_body_is_too_large() {
        let mut empty = BufReader::new(&b""[..]);
        assert!(matches!(read_request(&mut empty, 10), Err(ReadError::Closed)));

        let raw = b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert!(matches!(read_request(&mut r, 10), Err(ReadError::TooLarge)));
    }

    #[test]
    fn garbage_is_malformed() {
        let raw = b"NOT-HTTP\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert!(matches!(
            read_request(&mut r, 10),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn response_serialises_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(200, &serde_json::json!({ "ok": true }))
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive"), "{text}");
        assert!(text.ends_with("{\"ok\":true}\n"), "{text}");
    }
}
