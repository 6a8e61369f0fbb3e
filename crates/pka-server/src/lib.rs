//! **PKA as a long-running analysis service.**
//!
//! Everything the CLI does in one shot — batch select/simulate, streaming
//! ingestion with checkpoints — hosted behind a hand-rolled HTTP/1.1
//! endpoint (`std::net::TcpListener` + a bounded connection thread pool;
//! zero external dependencies, like the rest of the workspace) as
//! long-lived *session objects* with live progress and cancellation-safe
//! teardown.
//!
//! # Protocol
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus text exposition of every registered metric |
//! | `POST /v1/sessions` | create a session from a JSON spec |
//! | `GET /v1/sessions` | list sessions |
//! | `GET /v1/sessions/{id}` | one session's status |
//! | `POST /v1/sessions/{id}/records` | append JSONL kernel records (feed sessions) |
//! | `POST /v1/sessions/{id}/finish` | end-of-stream for a feed session |
//! | `GET /v1/sessions/{id}/progress` | `pka.snapshot/v1` NDJSON progress stream |
//! | `GET /v1/sessions/{id}/events` | long-lived SSE stream of new progress records |
//! | `GET /v1/sessions/{id}/result` | result document (`202` while running) |
//! | `GET /v1/sessions/{id}/checkpoint` | checkpoint bytes (final, else latest) |
//! | `GET /v1/sessions/{id}/attribution` | `pka.attribution/v1` bytes |
//! | `DELETE /v1/sessions/{id}` | cancellation-safe teardown |
//! | `POST /v1/shutdown` | stop the service (tears every session down) |
//!
//! # Request correlation
//!
//! With observability on (`pka_obs::enable`), every request is assigned a
//! process-monotonic `req_id` and produces one structured stderr access
//! line — `{"type":"access","req_id":..,"method":..,"path":..,"status":..,
//! "bytes":..,"duration_ns":..,"session":..}` — plus, when a trace sink is
//! attached, a `server.request` trace event carrying the same fields, so a
//! request can be joined against its session worker's `stream.*` events by
//! `req_id`/session id.
//!
//! The artifact endpoints serve the *exact bytes* the CLI writes for the
//! same run (`--checkpoint` / `--attribution-out`), so `cmp` against a
//! `pka stream` run passes — the HTTP surface adds zero numeric drift.
//!
//! # Determinism
//!
//! Sessions share one process-wide [`Executor`](pka_core::Executor) value
//! and nothing else: each session's pipeline state is private, progress is
//! derived purely from checkpoint contents (no wall-clock), and the
//! streaming engines are bitwise deterministic for any worker count — so
//! any interleaving of concurrent sessions produces byte-identical
//! checkpoints, attributions and progress to running them serially.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod session;

pub use http::{read_request, ReadError, Request, Response};
pub use session::{Registry, Session, SessionState, Status, PROGRESS_CAP};

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pka_core::Executor;
use pka_obs::SnapshotRecord;
use serde_json::{json, Value};

/// Histogram edges for `server.request_ns` (1 µs .. 10 s).
const REQUEST_EDGES: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Connection-handler threads.
    pub http_threads: usize,
    /// Executor workers shared by every session's pipeline (0 = all cores).
    pub workers: usize,
    /// Maximum concurrently running (non-terminal) sessions.
    pub max_active_sessions: usize,
    /// Completed sessions retained for inspection before LRU eviction.
    pub retain_completed: usize,
    /// Feed queue capacity per streaming session, in records (non-blank
    /// JSONL lines). A `POST .../records` body waits until it fits; one
    /// body larger than the capacity enters an empty queue.
    pub feed_capacity: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Per-connection read/write timeout in milliseconds (slow-loris
    /// guard): a client that opens a socket and never completes a request
    /// gets `408` and the connection back instead of pinning a pool
    /// thread. Also bounds how long a stalled `events` subscriber can
    /// block a write.
    pub read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            http_threads: 4,
            workers: 1,
            max_active_sessions: 8,
            retain_completed: 16,
            feed_capacity: 8_192,
            max_body_bytes: 64 * 1024 * 1024,
            read_timeout_ms: 30_000,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the connection-handler thread count (min 1).
    pub fn with_http_threads(mut self, n: usize) -> Self {
        self.http_threads = n.max(1);
        self
    }

    /// Sets the shared executor worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the running-session cap (min 1).
    pub fn with_max_active_sessions(mut self, n: usize) -> Self {
        self.max_active_sessions = n.max(1);
        self
    }

    /// Sets how many completed sessions are retained.
    pub fn with_retain_completed(mut self, n: usize) -> Self {
        self.retain_completed = n;
        self
    }

    /// Sets the per-session feed queue capacity (min 1).
    pub fn with_feed_capacity(mut self, n: usize) -> Self {
        self.feed_capacity = n.max(1);
        self
    }

    /// Sets the per-connection read/write timeout in milliseconds (min 1).
    pub fn with_read_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout_ms = ms.max(1);
        self
    }
}

/// Bounded queue of accepted connections feeding the handler pool.
struct ConnQueue {
    queue: Mutex<(std::collections::VecDeque<TcpStream>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    fn new() -> Self {
        Self {
            queue: Mutex::new((std::collections::VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, stream: TcpStream) {
        let mut q = self.queue.lock().expect("conn queue");
        q.0.push_back(stream);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut q = self.queue.lock().expect("conn queue");
        q.1 = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().expect("conn queue");
        loop {
            if let Some(s) = q.0.pop_front() {
                return Some(s);
            }
            if q.1 {
                return None;
            }
            q = self.ready.wait(q).expect("conn queue");
        }
    }
}

/// The PKA analysis service.
pub struct PkaServer {
    listener: TcpListener,
    registry: Registry,
    config: ServerConfig,
    stop: AtomicBool,
    next_request_id: AtomicU64,
}

impl PkaServer {
    /// Binds the listener and builds the session registry.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let registry = Registry::new(
            config.max_active_sessions,
            config.retain_completed,
            config.feed_capacity,
            Executor::new(config.workers),
        );
        Ok(Self {
            listener,
            registry,
            config,
            stop: AtomicBool::new(false),
            next_request_id: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the (unlikely) local-address query failure.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The session registry (for in-process tests and embedding).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Requests shutdown and wakes the accept loop with a self-connect.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.addr() {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Serves until `POST /v1/shutdown` (or
    /// [`request_stop`](Self::request_stop)), then tears every session down
    /// and joins all workers before returning — cancellation-safe service
    /// exit.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn run(&self) -> std::io::Result<()> {
        let queue = ConnQueue::new();
        std::thread::scope(|scope| -> std::io::Result<()> {
            for i in 0..self.config.http_threads.max(1) {
                let queue = &queue;
                std::thread::Builder::new()
                    .name(format!("pka-http-{i}"))
                    .spawn_scoped(scope, move || {
                        while let Some(stream) = queue.pop() {
                            self.serve_connection(stream);
                        }
                    })
                    .expect("spawn http worker");
            }
            loop {
                let (stream, _) = self.listener.accept()?;
                if self.stop.load(Ordering::SeqCst) {
                    drop(stream);
                    break;
                }
                queue.push(stream);
            }
            queue.close();
            Ok(())
        })?;
        self.registry.shutdown();
        Ok(())
    }

    /// One keep-alive connection: read requests until close/EOF/timeout.
    fn serve_connection(&self, stream: TcpStream) {
        let timeout = Duration::from_millis(self.config.read_timeout_ms.max(1));
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        // Responses and SSE frames are each written whole; Nagle would only
        // delay them.
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let mut writer = write_half;
        let mut reader = BufReader::new(stream);
        loop {
            let request = match read_request(&mut reader, self.config.max_body_bytes) {
                Ok(r) => r,
                Err(ReadError::Closed) => return,
                Err(ReadError::Io(e)) => {
                    // A read timeout is the slow-loris guard firing; anything
                    // else is a dead transport not worth answering on.
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) {
                        if pka_obs::enabled() {
                            pka_obs::counter("server.timeouts").incr();
                        }
                        let _ = Response::error(408, "request read timed out")
                            .write_to(&mut writer, false);
                    }
                    return;
                }
                Err(ReadError::Malformed(m)) => {
                    let _ = Response::error(400, &m).write_to(&mut writer, false);
                    return;
                }
                Err(ReadError::TooLarge) => {
                    let _ = Response::error(413, "request body too large")
                        .write_to(&mut writer, false);
                    return;
                }
            };
            let req_id = self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
            let close = request.wants_close();
            let t0 = Instant::now();

            // The events stream writes the connection itself (no fixed
            // Content-Length) and holds it until the session ends; an
            // unknown session id falls through to normal routing for 404.
            if request.method == "GET" {
                if let Some(rest) = request.path.trim_end_matches('/').strip_prefix("/v1/sessions/")
                {
                    if let Some((id, "events")) = rest.split_once('/') {
                        if let Some(session) = self.registry.get(id) {
                            let bytes = self.serve_events(&mut writer, &session);
                            self.observe_request(req_id, &request, 200, bytes, t0, Some(id));
                            return;
                        }
                    }
                }
            }

            let response = self.route(&request);
            let session = session_of(&request, &response);
            self.observe_request(
                req_id,
                &request,
                response.status,
                response.body.len() as u64,
                t0,
                session.as_deref(),
            );
            if response.write_to(&mut writer, !close).is_err() {
                return;
            }
            let _ = writer.flush();
            if close {
                return;
            }
        }
    }

    /// Metrics, access log, and trace correlation for one finished request.
    fn observe_request(
        &self,
        req_id: u64,
        req: &Request,
        status: u16,
        bytes: u64,
        t0: Instant,
        session: Option<&str>,
    ) {
        if !pka_obs::enabled() {
            return;
        }
        let duration_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        pka_obs::counter("server.requests").incr();
        pka_obs::histogram("server.request_ns", REQUEST_EDGES).record(duration_ns);
        if status >= 400 {
            pka_obs::counter("server.http_errors").incr();
        }
        let fields = request_fields(req_id, &req.method, &req.path, status, bytes, duration_ns, session);
        eprintln!("{}", access_log_line(&fields));
        pka_obs::trace_event("server.request", Value::Object(fields));
    }

    /// Serves `GET /v1/sessions/{id}/events`: a long-lived `text/event-stream`
    /// response pushing each new `pka.snapshot/v1` progress record as it is
    /// stamped into the session's bounded ring, then one `event: end` when
    /// the session reaches a terminal status (including DELETE teardown).
    ///
    /// Back-pressure and bounds: the stream re-reads the shared
    /// [`PROGRESS_CAP`] ring (no per-subscriber buffering), a stalled
    /// subscriber blocks at most `read_timeout_ms` on a write before being
    /// dropped, and a subscriber that lags more than `PROGRESS_CAP`
    /// checkpoints simply misses the lines the ring itself evicted.
    ///
    /// Returns the number of body bytes written.
    fn serve_events(&self, writer: &mut TcpStream, session: &Arc<Session>) -> u64 {
        let mut written = 0u64;
        let mut send = |writer: &mut TcpStream, chunk: &str| -> bool {
            if writer.write_all(chunk.as_bytes()).and_then(|()| writer.flush()).is_ok() {
                written += chunk.len() as u64;
                true
            } else {
                false
            }
        };
        let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
        if writer.write_all(head.as_bytes()).is_err() {
            return 0;
        }
        if !send(writer, &format!("data: {}\n\n", SnapshotRecord::header_line())) {
            return written;
        }

        let mut last_seq: Option<u64> = None;
        loop {
            // Collect everything newer than the last delivered seq (plus the
            // terminal status) under one lock, then write outside it.
            let mut batch: Vec<String> = Vec::new();
            let mut terminal: Option<Status> = None;
            {
                let mut st = session.cell.state.lock().expect("session state");
                loop {
                    for line in &st.progress {
                        let seq = line_seq(line);
                        if last_seq.map_or(true, |l| seq.is_some_and(|s| s > l)) {
                            batch.push(line.clone());
                            if seq.is_some() {
                                last_seq = seq;
                            }
                        }
                    }
                    let status = st.status();
                    if status.is_terminal() {
                        terminal = Some(status);
                        break;
                    }
                    if !batch.is_empty() {
                        break;
                    }
                    let (guard, wait) = session
                        .cell
                        .progress_wake
                        .wait_timeout(st, Duration::from_millis(500))
                        .expect("session state");
                    st = guard;
                    if wait.timed_out() {
                        // Emit a keep-alive comment so a vanished client is
                        // detected by the write failing.
                        break;
                    }
                }
            }
            for line in &batch {
                if !send(writer, &format!("data: {line}\n\n")) {
                    return written;
                }
            }
            if let Some(status) = terminal {
                let _ = send(
                    writer,
                    &format!("event: end\ndata: {{\"status\":\"{}\"}}\n\n", status.as_str()),
                );
                return written;
            }
            if batch.is_empty() && !send(writer, ": keep-alive\n\n") {
                return written;
            }
        }
    }

    /// Dispatches one request.
    fn route(&self, req: &Request) -> Response {
        let path = req.path.trim_end_matches('/');
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => Response::json(200, &json!({ "ok": true })),
            ("GET", "/metrics") => Response::raw(
                200,
                pka_obs::EXPOSITION_CONTENT_TYPE,
                pka_obs::global_prometheus(),
            ),
            ("POST", "/v1/shutdown") => {
                // Respond first-come; the wake connection unblocks accept.
                self.request_stop();
                Response::json(200, &json!({ "ok": true }))
            }
            ("POST", "/v1/sessions") => self.create_session(req),
            ("GET", "/v1/sessions") => {
                Response::json(200, &json!({ "sessions": self.registry.list() }))
            }
            _ => {
                if let Some(rest) = path.strip_prefix("/v1/sessions/") {
                    return self.session_route(req, rest);
                }
                Response::error(404, "no such route")
            }
        }
    }

    fn create_session(&self, req: &Request) -> Response {
        let body = match req.body_text() {
            Ok(t) => t,
            Err(_) => return Response::error(400, "request body is not UTF-8"),
        };
        let spec: Value = match serde_json::from_str(body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("invalid session spec: {e}")),
        };
        match self.registry.create(&spec) {
            Ok(session) => Response::json(
                200,
                &json!({
                    "id": session.cell.id,
                    "mode": session.mode,
                    "source": session.source,
                }),
            ),
            Err((status, message)) => Response::error(status, &message),
        }
    }

    fn session_route(&self, req: &Request, rest: &str) -> Response {
        let (id, action) = match rest.split_once('/') {
            Some((id, action)) => (id, Some(action)),
            None => (rest, None),
        };
        let Some(session) = self.registry.get(id) else {
            return Response::error(404, &format!("no session `{id}`"));
        };
        match (req.method.as_str(), action) {
            ("GET", None) => Response::json(200, &session.describe()),
            ("DELETE", None) => match self.registry.teardown(id) {
                Some(summary) => Response::json(200, &summary),
                None => Response::error(404, &format!("no session `{id}`")),
            },
            ("POST", Some("records")) => self.append_records(req, &session),
            ("POST", Some("finish")) => match &session.feed {
                Some(feed) => {
                    feed.finish();
                    Response::json(200, &json!({ "ok": true }))
                }
                None => Response::error(409, "session is not feed-backed"),
            },
            ("GET", Some("progress")) => {
                let st = session.cell.state.lock().expect("session state");
                let mut body = String::new();
                body.push_str(&SnapshotRecord::header_line());
                body.push('\n');
                for line in &st.progress {
                    body.push_str(line);
                    body.push('\n');
                }
                drop(st);
                Response::raw(200, "application/x-ndjson", body)
            }
            ("GET", Some("result")) => {
                let st = session.cell.state.lock().expect("session state");
                match st.status() {
                    Status::Done => {
                        let result = st.result.clone().unwrap_or(Value::Null);
                        Response::json(200, &result)
                    }
                    Status::Failed => {
                        let msg = st.error.clone().unwrap_or_else(|| "failed".into());
                        Response::json(
                            409,
                            &json!({ "status": "failed", "error": msg }),
                        )
                    }
                    Status::Cancelled => {
                        Response::json(409, &json!({ "status": "cancelled" }))
                    }
                    s => Response::json(202, &json!({ "status": s.as_str() })),
                }
            }
            ("GET", Some("checkpoint")) => {
                let st = session.cell.state.lock().expect("session state");
                let bytes = st
                    .final_checkpoint
                    .clone()
                    .or_else(|| st.last_checkpoint.clone());
                match bytes {
                    Some(b) => Response::raw(200, "application/json", b),
                    None => Response::error(404, "no checkpoint yet"),
                }
            }
            ("GET", Some("attribution")) => {
                let st = session.cell.state.lock().expect("session state");
                match st.attribution.clone() {
                    Some(b) => Response::raw(200, "application/json", b),
                    None => Response::error(404, "no attribution yet"),
                }
            }
            _ => Response::error(405, "unsupported session operation"),
        }
    }

    fn append_records(&self, req: &Request, session: &Session) -> Response {
        let Some(feed) = &session.feed else {
            return Response::error(409, "session is not feed-backed");
        };
        if session
            .cell
            .state
            .lock()
            .expect("session state")
            .status()
            .is_terminal()
        {
            return Response::error(409, "session already finished");
        }
        let text = match req.body_text() {
            Ok(t) => t,
            Err(_) => return Response::error(400, "request body is not UTF-8"),
        };
        match feed.push_lines(text) {
            Ok(accepted) => Response::json(
                200,
                &json!({ "accepted": accepted, "buffered": feed.buffered() as u64 }),
            ),
            Err(e) => Response::error(409, &e.to_string()),
        }
    }
}

/// The `seq` a stamped progress line carries (`None` for non-ring lines;
/// every ring line is stamped with one).
fn line_seq(line: &str) -> Option<u64> {
    serde_json::from_str::<Value>(line).ok()?.get("seq")?.as_u64()
}

/// The correlation fields shared by the access log line and the
/// `server.request` trace event, in one place so they cannot drift apart.
fn request_fields(
    req_id: u64,
    method: &str,
    path: &str,
    status: u16,
    bytes: u64,
    duration_ns: u64,
    session: Option<&str>,
) -> serde_json::Map {
    let mut m = serde_json::Map::new();
    m.insert("req_id".into(), Value::from(req_id));
    m.insert("method".into(), Value::from(method));
    m.insert("path".into(), Value::from(path));
    m.insert("status".into(), Value::from(u64::from(status)));
    m.insert("bytes".into(), Value::from(bytes));
    m.insert("duration_ns".into(), Value::from(duration_ns));
    m.insert(
        "session".into(),
        session.map_or(Value::Null, Value::from),
    );
    m
}

/// Renders one structured access-log line (single-line JSON, stderr).
fn access_log_line(fields: &serde_json::Map) -> String {
    let mut m = serde_json::Map::new();
    m.insert("type".into(), Value::from("access"));
    for (k, v) in fields {
        m.insert(k.clone(), v.clone());
    }
    Value::Object(m).to_string()
}

/// The session id a request touched: the path segment for
/// `/v1/sessions/{id}...`, or the id minted by a successful create.
fn session_of(req: &Request, response: &Response) -> Option<String> {
    let path = req.path.trim_end_matches('/');
    if let Some(rest) = path.strip_prefix("/v1/sessions/") {
        let id = rest.split('/').next().unwrap_or(rest);
        if !id.is_empty() {
            return Some(id.to_string());
        }
    }
    if req.method == "POST" && path == "/v1/sessions" && response.status == 200 {
        let v: Value = serde_json::from_str(std::str::from_utf8(&response.body).ok()?).ok()?;
        return v.get("id")?.as_str().map(str::to_string);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read};

    fn send(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).expect("header");
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf8"))
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        send(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        send(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn access_log_line_is_single_line_json_with_all_fields() {
        let fields = request_fields(7, "GET", "/v1/sessions/s2/result", 202, 34, 1_500, Some("s2"));
        let line = access_log_line(&fields);
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).expect("valid json");
        assert_eq!(v["type"].as_str(), Some("access"));
        assert_eq!(v["req_id"].as_u64(), Some(7));
        assert_eq!(v["method"].as_str(), Some("GET"));
        assert_eq!(v["path"].as_str(), Some("/v1/sessions/s2/result"));
        assert_eq!(v["status"].as_u64(), Some(202));
        assert_eq!(v["bytes"].as_u64(), Some(34));
        assert_eq!(v["duration_ns"].as_u64(), Some(1_500));
        assert_eq!(v["session"].as_str(), Some("s2"));
    }

    #[test]
    fn session_of_resolves_path_segment_and_create_response() {
        let req = |method: &str, path: &str| Request {
            method: method.to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let ok = Response::json(200, &json!({ "id": "s9", "mode": "stream" }));
        assert_eq!(
            session_of(&req("GET", "/v1/sessions/s3/progress"), &ok).as_deref(),
            Some("s3")
        );
        assert_eq!(
            session_of(&req("DELETE", "/v1/sessions/s3"), &ok).as_deref(),
            Some("s3")
        );
        assert_eq!(
            session_of(&req("POST", "/v1/sessions"), &ok).as_deref(),
            Some("s9")
        );
        let rejected = Response::error(429, "cap");
        assert_eq!(session_of(&req("POST", "/v1/sessions"), &rejected), None);
        assert_eq!(session_of(&req("GET", "/healthz"), &ok), None);
    }

    #[test]
    fn line_seq_reads_stamped_lines_and_skips_headers() {
        assert_eq!(line_seq("{\"type\":\"snapshot\",\"seq\":41}"), Some(41));
        assert_eq!(line_seq("{\"schema\":\"pka.snapshot/v1\",\"type\":\"header\"}"), None);
        assert_eq!(line_seq("not json"), None);
    }

    #[test]
    fn slow_request_times_out_with_408() {
        let config = ServerConfig::default().with_read_timeout_ms(150);
        let server = PkaServer::bind(config).expect("bind");
        let addr = server.addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run().expect("run"));
            // Open a socket, send half a request line, then stall.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"GET /healthz HT").expect("partial");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut status_line = String::new();
            reader.read_line(&mut status_line).expect("status line");
            assert!(
                status_line.starts_with("HTTP/1.1 408"),
                "expected 408, got: {status_line}"
            );
            let (status, _) = post(addr, "/v1/shutdown", "");
            assert_eq!(status, 200);
            handle.join().expect("server thread");
        });
    }

    #[test]
    fn metrics_route_serves_parseable_exposition() {
        let server = PkaServer::bind(ServerConfig::default()).expect("bind");
        let addr = server.addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run().expect("run"));
            let (status, body) = get(addr, "/metrics");
            assert_eq!(status, 200);
            // Whatever the global registry holds at this point, the body
            // must be inside the exposition grammar.
            let doc = pka_obs::parse_exposition(&body).expect("valid exposition");
            assert_eq!(doc["schema"].as_str(), Some("pka.run_manifest/v1"));
            let (status, _) = post(addr, "/v1/shutdown", "");
            assert_eq!(status, 200);
            handle.join().expect("server thread");
        });
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let server = PkaServer::bind(ServerConfig::default()).expect("bind");
        let addr = server.addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run().expect("run"));
            let (status, body) = get(addr, "/healthz");
            assert_eq!(status, 200);
            assert!(body.contains("\"ok\":true"), "{body}");
            let (status, _) = get(addr, "/nope");
            assert_eq!(status, 404);
            let (status, _) = get(addr, "/v1/sessions/s99");
            assert_eq!(status, 404);
            let (status, _) = post(addr, "/v1/shutdown", "");
            assert_eq!(status, 200);
            handle.join().expect("server thread");
        });
    }

    #[test]
    fn bad_spec_is_rejected_synchronously() {
        let server = PkaServer::bind(ServerConfig::default()).expect("bind");
        let addr = server.addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run().expect("run"));
            let (status, body) = post(addr, "/v1/sessions", "{\"mode\":\"nope\"}");
            assert_eq!(status, 400, "{body}");
            let (status, body) =
                post(addr, "/v1/sessions", "{\"source\":\"synthetic:0\"}");
            assert_eq!(status, 400, "{body}");
            let (status, _) = post(addr, "/v1/shutdown", "");
            assert_eq!(status, 200);
            handle.join().expect("server thread");
        });
    }
}
