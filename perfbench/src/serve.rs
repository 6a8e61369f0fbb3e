//! `serve`: an in-process `PkaServer` (one HTTP thread, sequential
//! executor) driven by one closed-loop client on one keep-alive
//! connection. The client feeds pre-rendered `pka.kernel_record/v1` NDJSON
//! batches into a `source: "feed"` session, reads its progress every few
//! batches, then finishes the feed and fetches the result.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pka_gpu::GpuConfig;
use pka_profile::Profiler;
use pka_server::{read_request, PkaServer, ServerConfig};
use pka_stream::{
    JsonlSource, KernelSource, RecordsSource, StreamConfig, StreamPks, WorkloadSource,
};
use serde_json::{json, Value};

use crate::gen::mlperf_stream;
use crate::report::{cpu_seconds, median, minimum, ms, peak_rss_mb, timed, Digest, Report, Tail};
use crate::stream;
use crate::trace::Trace;

/// Records fed per session.
const RECORDS: u64 = 100_000;
/// Detailed-prefix length of the session (small: the service path, not
/// classifier training, is what this workload measures).
const PREFIX: u64 = 2_000;
/// NDJSON lines per record-batch POST.
const BATCH: usize = 500;
/// A progress read follows every this many batches.
const READ_EVERY: usize = 4;
/// Sessions one run drives, each on a server set up afresh. The cheapest
/// sets the rate; 24 sessions of 200 POSTs also give the percentile rule
/// enough samples for a p99.
const SESSIONS: usize = 24;
const CHECKPOINT_EVERY: u64 = 10_000;
/// The feed label the session stamps into its checkpoints.
const FEED_LABEL: &str = "feed:http";

/// The exact outcome of a session's records for one seed: the selected K,
/// the representatives' launch indices and the projected cycles.
struct Pin {
    seed: u64,
    k: usize,
    representatives: &'static [u64],
    projected_cycles: u64,
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { seed: 0, k: 9, representatives: &[3, 0, 2, 6, 4, 5, 8, 10, 1], projected_cycles: 1897009691 },
    Pin { seed: 1, k: 8, representatives: &[3, 4, 5, 2, 0, 6, 10, 1], projected_cycles: 1818785035 },
    Pin { seed: 2, k: 7, representatives: &[2, 10, 4, 6, 0, 1, 5], projected_cycles: 2398345803 },
    Pin { seed: 3, k: 7, representatives: &[2, 1, 0, 4, 5, 10, 3], projected_cycles: 2485867733 },
    Pin { seed: 4, k: 9, representatives: &[3, 1, 10, 5, 4, 2, 8, 6, 0], projected_cycles: 2501186221 },
    Pin { seed: 5, k: 6, representatives: &[0, 2, 4, 10, 1, 5], projected_cycles: 2309728396 },
    Pin { seed: 6, k: 8, representatives: &[3, 4, 5, 1, 0, 6, 10, 2], projected_cycles: 2303266667 },
    Pin { seed: 7, k: 8, representatives: &[3, 4, 5, 6, 0, 2, 1, 10], projected_cycles: 2522386544 },
    Pin { seed: 8, k: 9, representatives: &[3, 0, 6, 5, 4, 2, 10, 8, 1], projected_cycles: 2466020716 },
    Pin { seed: 9, k: 8, representatives: &[3, 8, 5, 4, 1, 0, 2, 10], projected_cycles: 2508017550 },
    Pin { seed: 10, k: 8, representatives: &[3, 2, 4, 5, 6, 0, 1, 10], projected_cycles: 2330004062 },
    Pin { seed: 11, k: 8, representatives: &[3, 2, 1, 8, 4, 0, 5, 10], projected_cycles: 2186877407 },
    Pin { seed: 12, k: 8, representatives: &[3, 2, 5, 4, 8, 0, 1, 10], projected_cycles: 2254244327 },
    Pin { seed: 13, k: 8, representatives: &[3, 4, 5, 2, 0, 8, 10, 1], projected_cycles: 2567010668 },
    Pin { seed: 14, k: 8, representatives: &[3, 4, 5, 6, 0, 2, 1, 10], projected_cycles: 1924805612 },
    Pin { seed: 15, k: 8, representatives: &[3, 4, 1, 6, 2, 0, 10, 5], projected_cycles: 1920606933 },
    Pin { seed: 16, k: 8, representatives: &[3, 4, 5, 1, 8, 0, 2, 10], projected_cycles: 2402480752 },
    Pin { seed: 17, k: 9, representatives: &[3, 1, 10, 5, 4, 6, 8, 2, 0], projected_cycles: 2373226029 },
    Pin { seed: 18, k: 9, representatives: &[3, 0, 6, 5, 4, 2, 10, 8, 1], projected_cycles: 2308333143 },
    Pin { seed: 19, k: 9, representatives: &[3, 0, 2, 6, 4, 5, 10, 8, 1], projected_cycles: 2554040153 },
    Pin { seed: 20, k: 7, representatives: &[2, 10, 1, 4, 0, 3, 5], projected_cycles: 2367317392 },
    Pin { seed: 21, k: 8, representatives: &[3, 6, 5, 4, 0, 2, 10, 1], projected_cycles: 2340019526 },
    Pin { seed: 22, k: 9, representatives: &[3, 0, 10, 4, 2, 1, 6, 8, 5], projected_cycles: 2448092118 },
    Pin { seed: 23, k: 8, representatives: &[6, 2, 1, 8, 4, 0, 5, 10], projected_cycles: 2164757916 },
    Pin { seed: 24, k: 9, representatives: &[3, 0, 2, 5, 4, 6, 10, 8, 1], projected_cycles: 2061801842 },
    Pin { seed: 25, k: 7, representatives: &[2, 1, 0, 4, 8, 10, 5], projected_cycles: 2414454859 },
    Pin { seed: 26, k: 9, representatives: &[3, 1, 10, 5, 4, 6, 8, 2, 0], projected_cycles: 2415317453 },
    Pin { seed: 27, k: 8, representatives: &[3, 4, 1, 2, 8, 0, 10, 5], projected_cycles: 2074004777 },
    Pin { seed: 28, k: 7, representatives: &[2, 1, 0, 4, 5, 3, 8], projected_cycles: 2188909801 },
    Pin { seed: 29, k: 8, representatives: &[1, 2, 4, 6, 10, 8, 0, 5], projected_cycles: 2210044567 },
    Pin { seed: 30, k: 8, representatives: &[3, 4, 2, 5, 8, 0, 10, 1], projected_cycles: 2385654361 },
    Pin { seed: 31, k: 8, representatives: &[3, 8, 5, 4, 2, 0, 1, 10], projected_cycles: 2407382241 },
];

struct Inputs {
    server: PkaServer,
    addr: SocketAddr,
    /// NDJSON bodies, one per record-batch POST.
    batches: Vec<String>,
    records: u64,
    digest: u64,
}

fn config() -> StreamConfig {
    StreamConfig::default()
        .with_prefix(PREFIX)
        .with_checkpoint_every(CHECKPOINT_EVERY)
}

fn session_spec() -> String {
    json!({
        "mode": "stream",
        "source": "feed",
        "prefix": PREFIX,
        "checkpoint_every": CHECKPOINT_EVERY,
    })
    .to_string()
}

fn setup(seed: u64, trace: &mut Trace) -> Inputs {
    let workload = trace.span("workloads.build", || mlperf_stream(seed, RECORDS));
    let mut source = WorkloadSource::new(workload, Profiler::new(GpuConfig::v100()));
    let mut batches = Vec::new();
    let mut body = String::new();
    let mut digest = Digest::default();
    let mut records = 0u64;
    while let Some(rec) = source.next_record(records < PREFIX).expect("render record") {
        body.push_str(&rec.to_jsonl().to_string());
        body.push('\n');
        records += 1;
        if records.is_multiple_of(BATCH as u64) {
            digest.str(&body);
            batches.push(std::mem::take(&mut body));
        }
    }
    if !body.is_empty() {
        digest.str(&body);
        batches.push(body);
    }
    let server = PkaServer::bind(ServerConfig::default().with_http_threads(1).with_workers(1))
        .expect("bind server");
    let addr = server.addr().expect("server address");
    Inputs {
        server,
        addr,
        batches,
        records,
        digest: digest.finish(),
    }
}

fn parse_json(body: &[u8]) -> Option<Value> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// Puts `stream` in quick-ACK mode, so it acknowledges the next segments
/// at once. The server writes a response in several small segments with
/// Nagle's algorithm on; without this, each response after the first
/// segment waits for the client's delayed ACK (~40 ms on Linux), and that
/// timer, not the service, would set the pace.
fn quickack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on = 1i32;
    // SAFETY: a valid socket descriptor and a pointer to a live `i32`
    // whose size is passed; a failure only leaves delayed ACKs on.
    unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
}

/// One keep-alive HTTP/1.1 client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads the full response: `(status, body)`.
    fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.buf.clear();
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.buf.extend_from_slice(body.as_bytes());
        self.writer.write_all(&self.buf)?;
        quickack(&self.writer);
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        quickack(&self.writer);
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line `{line}`")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().map_err(std::io::Error::other)?;
            }
        }
        let mut out = vec![0u8; length];
        self.reader.read_exact(&mut out)?;
        Ok((status, out))
    }
}

/// What one session run measured.
#[derive(Default)]
struct Session {
    id: String,
    wall: Duration,
    /// CPU seconds of every thread, client and server, from create to
    /// result.
    cpu: f64,
    create: Duration,
    feeds: Vec<Duration>,
    feed_bytes: u64,
    reads: Vec<Duration>,
    drain: Duration,
    requests: u64,
    failed: u64,
    result: Option<Value>,
}

impl Session {
    /// Counts one request; a non-2xx status is a failed operation.
    fn count(&mut self, status: u16) -> bool {
        self.requests += 1;
        let ok = (200..300).contains(&status);
        self.failed += u64::from(!ok);
        ok
    }
}

/// Drives one feed session from create to result over `client`.
fn drive(inputs: &Inputs, client: &mut Client) -> std::io::Result<Session> {
    let mut s = Session::default();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let (status, body) = client.call("POST", "/v1/sessions", &session_spec())?;
    s.create = start.elapsed();
    if !s.count(status) {
        return Ok(s);
    }
    let created: Value = parse_json(&body).ok_or_else(|| std::io::Error::other("create reply"))?;
    s.id = created["id"].as_str().unwrap_or_default().to_string();
    let records_path = format!("/v1/sessions/{}/records", s.id);
    let progress_path = format!("/v1/sessions/{}/progress", s.id);
    for (i, batch) in inputs.batches.iter().enumerate() {
        let t0 = Instant::now();
        let (status, _) = client.call("POST", &records_path, batch)?;
        s.feeds.push(t0.elapsed());
        s.feed_bytes += batch.len() as u64;
        s.count(status);
        if (i + 1) % READ_EVERY == 0 {
            let t0 = Instant::now();
            let (status, _) = client.call("GET", &progress_path, "")?;
            s.reads.push(t0.elapsed());
            s.count(status);
        }
    }
    let drain_start = Instant::now();
    let (status, _) = client.call("POST", &format!("/v1/sessions/{}/finish", s.id), "")?;
    s.count(status);
    let result_path = format!("/v1/sessions/{}/result", s.id);
    loop {
        let (status, body) = client.call("GET", &result_path, "")?;
        if status == 202 {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if s.count(status) {
            s.result = parse_json(&body);
        }
        break;
    }
    s.drain = drain_start.elapsed();
    s.wall = start.elapsed();
    s.cpu = cpu_seconds() - cpu0;
    Ok(s)
}

/// What a direct `StreamPks` run over the session's NDJSON bytes returns:
/// the result document and the final checkpoint bytes, with a line
/// describing them.
struct Expected {
    result: Value,
    checkpoint: String,
    line: String,
    k: usize,
    representatives: Vec<u64>,
    projected_cycles: u64,
}

/// The direct run's [`Expected`] outcome, or `None` when it fails.
fn expected(inputs: &Inputs) -> Option<Expected> {
    let ndjson: String = inputs.batches.concat();
    let direct = StreamPks::new(config())
        .run(
            &mut JsonlSource::from_reader(FEED_LABEL, Cursor::new(ndjson.into_bytes())),
            |_| Ok(()),
        )
        .ok()?;
    let result = json!({
        "mode": "stream",
        "selected_k": direct.report.selected_k as u64,
        "projected_cycles": direct.report.projected_cycles,
        "report": direct.report.to_value(),
    });
    let mut checkpoint = direct.final_checkpoint.to_json();
    checkpoint.push('\n');
    let k = direct.selection.k();
    let representatives: Vec<u64> = direct
        .selection
        .representative_ids()
        .iter()
        .map(|id| id.index())
        .collect();
    let projected_cycles = direct.report.projected_cycles;
    // Two runs on one seed must print the same output digest.
    let mut digest = Digest::default();
    digest.u64(k as u64);
    for &rep in &representatives {
        digest.u64(rep);
    }
    digest.u64(projected_cycles);
    let line = format!(
        "  output_digest={:016x} records={} selected_k={k} representatives={representatives:?} \
         projected_cycles={projected_cycles} batches={} checkpoint_bytes={}",
        digest.finish(),
        direct.report.records,
        inputs.batches.len(),
        checkpoint.len()
    );
    Some(Expected {
        result,
        checkpoint,
        line,
        k,
        representatives,
        projected_cycles,
    })
}

/// Checks the direct run against the seed's pin, when it has one. The
/// session and the direct run share the engine, so only the pin catches a
/// change to the engine that moves both alike.
fn check_pin(seed: u64, want: Option<&Expected>, report: &mut Report) {
    let (Some(pin), Some(w)) = (PINS.iter().find(|p| p.seed == seed), want) else {
        return;
    };
    report.check(
        w.k == pin.k
            && w.representatives == pin.representatives
            && w.projected_cycles == pin.projected_cycles,
        || {
            format!(
                "K={} reps={:?} projected_cycles={} differ from the pin of seed {seed}",
                w.k, w.representatives, w.projected_cycles
            )
        },
    );
}

/// Counts the session's requests and compares its result and checkpoint
/// with the direct run's. Runs outside the timed region.
fn check(client: &mut Client, s: &Session, want: Option<&Expected>, report: &mut Report) {
    report.attempted += s.requests;
    report.failed += s.failed;
    let Some(want) = want else {
        report.check(false, || "direct StreamPks run failed".into());
        return;
    };
    report.check(s.result.as_ref() == Some(&want.result), || {
        format!(
            "session result {:?} differs from the direct run's {}",
            s.result, want.result
        )
    });
    let got = client.call("GET", &format!("/v1/sessions/{}/checkpoint", s.id), "");
    report.check(
        matches!(&got, Ok((200, bytes)) if bytes == want.checkpoint.as_bytes()),
        || "session checkpoint bytes differ from the direct run's".into(),
    );
}

fn secs_ms(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| ms(*d)).collect()
}

/// Runs `body` against the server on one client connection, then shuts
/// the server down over that same connection and joins it.
fn with_server<T>(inputs: &Inputs, body: impl FnOnce(&mut Client) -> T) -> T {
    std::thread::scope(|scope| {
        let server = scope.spawn(|| inputs.server.run());
        let mut client = Client::connect(inputs.addr).expect("connect to the server");
        let out = body(&mut client);
        let _ = client.call("POST", "/v1/shutdown", "");
        drop(client);
        server
            .join()
            .expect("server thread panicked")
            .expect("server accept loop");
        out
    })
}

/// Drives [`SESSIONS`] sessions, each on inputs and a server set up afresh
/// from the seed, checking each one outside its timed region. Returns the
/// sessions, the set-up times, the input digest, and the line describing
/// the expected outcome.
fn sessions(seed: u64, report: &mut Report) -> (Vec<Session>, Vec<f64>, u64, String) {
    let mut setups = Vec::with_capacity(SESSIONS);
    let mut done = Vec::with_capacity(SESSIONS);
    let (mut digest, mut want, mut line) = (0, None, String::new());
    for round in 0..SESSIONS {
        let inputs = timed(&mut setups, || setup(seed, &mut Trace::default()));
        if round == 0 {
            want = expected(&inputs);
            check_pin(seed, want.as_ref(), report);
            line = want.as_ref().map(|w| w.line.clone()).unwrap_or_default();
        }
        digest = inputs.digest;
        with_server(&inputs, |client| match drive(&inputs, client) {
            Ok(s) => {
                check(client, &s, want.as_ref(), report);
                done.push(s);
            }
            Err(e) => report.check(false, || format!("session transport failed: {e}")),
        });
    }
    (done, setups, digest, line)
}

/// The session with the shortest wall: host contention only ever slows a
/// session down. `None` when no session completed.
fn fastest(sessions: &[Session]) -> Option<&Session> {
    sessions.iter().min_by_key(|s| s.wall)
}

/// The untraced run. The completed session that used the least CPU time
/// gives the rate, and the cheapest set-up `setup_s`: contention for
/// shared caches and memory only ever slows work down. Returns the input
/// digest.
pub fn run(seed: u64, report: &mut Report) -> u64 {
    let (sessions, setups, digest, line) = sessions(seed, report);
    report.line(line);
    report.push("setup_s", "s", minimum(&setups));
    report.push("peak_rss_mb", "MB", peak_rss_mb());
    let cpu: Vec<f64> = sessions
        .iter()
        .filter(|s| s.result.is_some())
        .map(|s| s.cpu)
        .collect();
    report.push("kernels_per_cpu_s", "1/s", RECORDS as f64 / minimum(&cpu));
    if let Some(s) = fastest(&sessions) {
        report.line(format!(
            "kernels_per_wall_s = {} 1/s (fastest session's wall clock; not gated)",
            RECORDS as f64 / s.wall.as_secs_f64()
        ));
    }
    latencies(&sessions, report);
    digest
}

/// Record-batch POST latency (median and the tail by the percentile rule)
/// and progress-read median over every session, each with its sample
/// count.
fn latencies(sessions: &[Session], report: &mut Report) {
    let calls: Vec<f64> = sessions.iter().flat_map(|s| secs_ms(&s.feeds)).collect();
    if let Some(t) = Tail::of(&calls) {
        report.push("call_p50_ms", "ms", t.p50);
        report.push(format!("call_{}_ms", t.tail_label()), "ms", t.tail);
    }
    report.line(format!("record-batch POSTs: n={}", calls.len()));
    let reads: Vec<f64> = sessions.iter().flat_map(|s| secs_ms(&s.reads)).collect();
    report.push("read_p50_ms", "ms", median(&reads));
    report.line(format!("progress reads: n={}", reads.len()));
}

/// The traced run: the untraced run's sessions, with the fastest one's
/// calls recorded as spans, and the serve decomposition from side timings
/// over the same bytes. The engine side timing runs `StreamPks` plainly
/// and then traced, which gives the `pka-stream` and `pka-ml` per-layer
/// figures and the tracing overhead. Returns the input digest.
pub fn run_traced(seed: u64, trace: &mut Trace, report: &mut Report) -> u64 {
    let (sessions, _, _, line) = sessions(seed, report);
    report.line(line);
    let inputs = &setup(seed, trace);
    latencies(&sessions, report);
    let Some(s) = fastest(&sessions) else {
        return inputs.digest;
    };
    trace.record("http.create", s.create);
    for d in &s.feeds {
        trace.record("http.feed", *d);
    }
    for d in &s.reads {
        trace.record("http.read", *d);
    }
    trace.record("session.drain", s.drain);
    let wall_ms = ms(s.wall);
    report.push("http.create_ms", "ms", trace.total_ms("http.create"));
    report.push("http.feed_ms", "ms", trace.total_ms("http.feed"));
    report.push("http.feed_calls", "count", trace.calls("http.feed") as f64);
    report.push("http.feed_bytes", "bytes", s.feed_bytes as f64);
    report.push("http.read_ms", "ms", trace.total_ms("http.read"));
    report.push("http.read_calls", "count", trace.calls("http.read") as f64);
    report.push("session.drain_ms", "ms", trace.total_ms("session.drain"));
    let failed: u64 = sessions.iter().map(|s| s.failed).sum();
    report.push("http.failed", "count", failed as f64);
    let covered = trace.sum_ms(&["http.create", "http.feed", "http.read", "session.drain"]);
    report.push("trace.coverage_pct", "%", covered / wall_ms * 100.0);
    report.push(
        "workloads.build_ms",
        "ms",
        trace.total_ms("workloads.build"),
    );

    // Decomposition: HTTP request parsing, NDJSON record parsing, and the
    // engine alone, each over the bytes the session was fed.
    let requests: Vec<Vec<u8>> = inputs
        .batches
        .iter()
        .map(|b| {
            format!(
                "POST /v1/sessions/s1/records HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            )
            .into_bytes()
        })
        .collect();
    let t0 = Instant::now();
    for r in &requests {
        read_request(&mut Cursor::new(r.as_slice()), usize::MAX).expect("parse request");
    }
    let parse_ns = t0.elapsed().as_nanos() as f64 / requests.len() as f64;

    let ndjson = inputs.batches.concat().into_bytes();
    let mut jsonl = JsonlSource::from_reader(FEED_LABEL, Cursor::new(ndjson));
    let mut parsed = Vec::new();
    let t0 = Instant::now();
    while let Some(rec) = jsonl
        .next_record((parsed.len() as u64) < PREFIX)
        .expect("parse record")
    {
        parsed.push(rec);
    }
    let json_ns = t0.elapsed().as_nanos() as f64 / parsed.len() as f64;
    stream::prefix_side_timings(&config(), &parsed[..PREFIX as usize], trace, report);

    let placeholder = parsed[0].detailed.clone().expect("detailed prefix record");
    let pairs = parsed
        .into_iter()
        .map(|r| {
            (
                r.detailed.unwrap_or_else(|| placeholder.clone()),
                r.lightweight,
            )
        })
        .collect::<Vec<_>>();
    let (plain, traced) = stream::run_traced(
        config(),
        || RecordsSource::new(FEED_LABEL, pairs.clone()),
        report,
    )
    .expect("engine run");
    let engine_ns = plain.as_nanos() as f64 / inputs.records as f64;
    report.push(
        "trace.overhead_pct",
        "%",
        (traced.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64() * 100.0,
    );

    let per_record_ns = s.wall.as_nanos() as f64 / inputs.records as f64;
    report.push("http.parse_ns_per_request", "ns", parse_ns);
    report.push("json.parse_ns_per_record", "ns", json_ns);
    report.push("engine.ns_per_record", "ns", engine_ns);
    report.push(
        "service.ns_per_record",
        "ns",
        per_record_ns - json_ns - engine_ns - parse_ns / BATCH as f64,
    );
    inputs.digest
}
