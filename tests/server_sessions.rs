//! `pka-server` acceptance: the HTTP surface adds zero numeric drift.
//!
//! A streaming session driven over HTTP must produce the same selected K,
//! the same projected cycles, and *byte-identical* final checkpoint and
//! attribution artifacts as the equivalent direct `pka-stream` run —
//! including with concurrent interleaved sessions.
//! `DELETE` mid-stream must tear the session down at a batch boundary and
//! leave a valid resumable checkpoint on disk, which a `resume` session
//! finishes from.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use principal_kernel_analysis::core::{Executor, Pka, PkaConfig, PksConfig};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::server::{PkaServer, Registry, ServerConfig, Status};
use principal_kernel_analysis::stream::{
    synthetic_workload, CancelToken, Checkpoint, JsonlSource, KernelSource, StreamConfig, StreamError,
    StreamPks, WorkloadSource,
};
use principal_kernel_analysis::workloads::all_workloads;
use serde_json::{json, Value};

// ---------------------------------------------------------------------------
// Raw-socket HTTP helpers (the tests must not trust the server's own client)
// ---------------------------------------------------------------------------

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
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
    let mut out = vec![0u8; content_length];
    reader.read_exact(&mut out).expect("body");
    (status, String::from_utf8(out).expect("utf8"))
}

fn create_session(addr: SocketAddr, spec: &Value) -> String {
    let (status, body) = request(addr, "POST", "/v1/sessions", &spec.to_string());
    assert_eq!(status, 200, "create session: {body}");
    let v: Value = serde_json::from_str(&body).expect("create response json");
    v["id"].as_str().expect("session id").to_string()
}

/// Polls `GET .../result` until the session leaves the running states.
fn wait_result(addr: SocketAddr, id: &str) -> Value {
    for _ in 0..6_000 {
        let (status, body) = request(addr, "GET", &format!("/v1/sessions/{id}/result"), "");
        match status {
            200 => return serde_json::from_str(&body).expect("result json"),
            202 => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("session {id} ended {other}: {body}"),
        }
    }
    panic!("session {id} did not finish in time");
}

fn fetch(addr: SocketAddr, id: &str, artifact: &str) -> String {
    let (status, body) = request(addr, "GET", &format!("/v1/sessions/{id}/{artifact}"), "");
    assert_eq!(status, 200, "{artifact}: {body}");
    body
}

// ---------------------------------------------------------------------------
// Direct-run references
// ---------------------------------------------------------------------------

fn stream_config() -> StreamConfig {
    StreamConfig::default()
        .with_prefix(400)
        .with_checkpoint_every(1_500)
        .with_reservoir(256)
        .with_batch(128)
}

fn stream_spec(source: &str) -> Value {
    json!({
        "mode": "stream",
        "source": source,
        "prefix": 400,
        "checkpoint_every": 1_500,
        "reservoir": 256,
        "batch": 128,
    })
}

/// Exports `n` synthetic kernels as JSONL feed lines (detailed for the
/// first `prefix` records, lightweight after, like a profiler would emit).
fn export_lines(n: u64, prefix: u64) -> String {
    let mut src = WorkloadSource::new(synthetic_workload(n), Profiler::new(GpuConfig::v100()));
    let mut lines = String::new();
    let mut i = 0u64;
    while let Some(rec) = src.next_record(i < prefix).expect("export record") {
        lines.push_str(&rec.to_jsonl().to_string());
        lines.push('\n');
        i += 1;
    }
    lines
}

// ---------------------------------------------------------------------------
// HTTP parity with the CLI-equivalent direct runs
// ---------------------------------------------------------------------------

#[test]
fn http_stream_session_matches_direct_run_byte_for_byte() {
    let server = PkaServer::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("run"));

        // Single-pipeline session vs a direct StreamPks run.
        let direct = {
            let mut source =
                WorkloadSource::new(synthetic_workload(6_000), Profiler::new(GpuConfig::v100()));
            StreamPks::new(stream_config())
                .with_executor(Executor::new(1))
                .run(&mut source, |_| Ok(()))
                .expect("direct run")
        };
        let id = create_session(addr, &stream_spec("synthetic:6000"));
        let result = wait_result(addr, &id);
        assert_eq!(
            result["selected_k"],
            json!(direct.report.selected_k as u64),
            "selected K over HTTP must match the direct run"
        );
        assert_eq!(
            result["projected_cycles"],
            json!(direct.report.projected_cycles),
            "projected cycles over HTTP must match the direct run"
        );
        let mut want_ckpt = direct.final_checkpoint.to_json();
        want_ckpt.push('\n');
        assert_eq!(
            fetch(addr, &id, "checkpoint"),
            want_ckpt,
            "checkpoint bytes over HTTP must equal the CLI artifact"
        );
        let mut want_attr =
            serde_json::to_string_pretty(&direct.attribution).expect("attribution json");
        want_attr.push('\n');
        assert_eq!(
            fetch(addr, &id, "attribution"),
            want_attr,
            "attribution bytes over HTTP must equal the CLI artifact"
        );

        // Progress is a valid pka.snapshot/v1 NDJSON stream.
        let progress = fetch(addr, &id, "progress");
        let mut lines = progress.lines();
        assert_eq!(
            lines.next(),
            Some("{\"schema\":\"pka.snapshot/v1\",\"type\":\"header\"}"),
        );
        let snapshots: Vec<Value> = lines
            .map(|l| serde_json::from_str(l).expect("snapshot line"))
            .collect();
        assert!(!snapshots.is_empty(), "expected at least one checkpoint");
        for s in &snapshots {
            assert_eq!(s["type"], json!("snapshot"));
            assert_eq!(s["phase"], json!("tail"));
        }

        let (status, _) = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().expect("server thread");
    });
}

#[test]
fn http_select_session_matches_direct_batch_run() {
    let server = PkaServer::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("run"));

        let workload = all_workloads()
            .into_iter()
            .find(|w| w.name() == "gramschmidt")
            .expect("known workload");
        let pka = Pka::new(
            GpuConfig::v100(),
            PkaConfig::default()
                .with_pks(PksConfig::default().with_target_error_pct(5.0))
                .with_executor(Executor::new(1)),
        );
        let (selection, attribution) = pka
            .select_kernels_with_attribution(&workload)
            .expect("direct select");

        let id = create_session(
            addr,
            &json!({ "mode": "select", "workload": "gramschmidt" }),
        );
        let result = wait_result(addr, &id);
        assert_eq!(result["selected_k"], json!(selection.k() as u64));
        assert_eq!(result["error_pct"], json!(selection.error_pct()));
        assert_eq!(
            result["kernels_total"],
            json!(workload.kernel_count()),
        );
        let mut want_attr =
            serde_json::to_string_pretty(&attribution).expect("attribution json");
        want_attr.push('\n');
        assert_eq!(fetch(addr, &id, "attribution"), want_attr);

        let (status, _) = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().expect("server thread");
    });
}

// ---------------------------------------------------------------------------
// Batch-granular feed over HTTP
// ---------------------------------------------------------------------------

/// The feed label the batch tests stamp into their sessions and direct runs.
const BODIES_LABEL: &str = "jsonl:uneven-bodies";

/// Splits NDJSON `lines` into POST bodies: one 500-line body, then uneven
/// bodies with blank and whitespace-only lines and some `\r\n` endings, the
/// last without a trailing newline.
fn uneven_bodies(lines: &str) -> Vec<String> {
    let all: Vec<&str> = lines.lines().collect();
    let mut bodies = vec![all[..500]
        .iter()
        .flat_map(|l| [*l, "\n"])
        .collect::<String>()];
    let sizes = [37usize, 1, 129, 64, 65, 3, 250];
    let mut rest = &all[500..];
    while !rest.is_empty() {
        let n = sizes[bodies.len() % sizes.len()].min(rest.len());
        let mut body = String::new();
        for (j, line) in rest[..n].iter().enumerate() {
            if j % 17 == 0 {
                body.push('\n');
            }
            if j % 29 == 5 {
                body.push_str("  \r\n");
            }
            body.push_str(line);
            body.push_str(if (bodies.len() + j) % 3 == 0 {
                "\r\n"
            } else {
                "\n"
            });
        }
        rest = &rest[n..];
        if rest.is_empty() {
            body.truncate(body.trim_end().len());
        }
        bodies.push(body);
    }
    bodies
}

/// The file a `JsonlSource` reads for the records the bodies carry: their
/// concatenation, with a newline closing any body that lacks one.
fn bodies_file(bodies: &[String]) -> String {
    let mut text = String::new();
    for body in bodies {
        text.push_str(body);
        if !body.ends_with('\n') {
            text.push('\n');
        }
    }
    text
}

/// Creates a feed session on a server whose queue holds 64 records, posts
/// `bodies`, finishes the feed, and returns the terminal `result` reply
/// plus, for a finished session, its checkpoint and attribution bytes.
fn feed_session(bodies: &[String]) -> ((u16, Value), Option<(String, String)>) {
    let server = PkaServer::bind(ServerConfig::default().with_feed_capacity(64)).expect("bind");
    let addr = server.addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("run"));
        let id = create_session(
            addr,
            &json!({
                "mode": "stream",
                "source": "feed",
                "source_name": BODIES_LABEL,
                "prefix": 400,
                "checkpoint_every": 1_500,
                "reservoir": 256,
                "batch": 128,
            }),
        );
        let records = format!("/v1/sessions/{id}/records");
        for body in bodies {
            let (status, reply) = request(addr, "POST", &records, body);
            if status != 200 {
                // Only a session that already failed refuses a body.
                assert_eq!(status, 409, "{reply}");
                break;
            }
            let want = body.lines().filter(|l| !l.trim().is_empty()).count();
            let accepted: Value = serde_json::from_str(&reply).expect("append response");
            assert_eq!(accepted["accepted"], json!(want), "{reply}");
        }
        request(addr, "POST", &format!("/v1/sessions/{id}/finish"), "");
        let result = loop {
            let (status, body) = request(addr, "GET", &format!("/v1/sessions/{id}/result"), "");
            if status != 202 {
                break (status, serde_json::from_str(&body).expect("result json"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let artifacts = (result.0 == 200).then(|| {
            (
                fetch(addr, &id, "checkpoint"),
                fetch(addr, &id, "attribution"),
            )
        });
        let (status, _) = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().expect("server thread");
        (result, artifacts)
    })
}

/// Bodies far larger than the feed capacity, blank lines and `\r\n`
/// endings change nothing: the session's artifacts are byte-identical to a
/// direct run over the same NDJSON.
#[test]
fn batched_feed_matches_direct_run_over_the_same_ndjson() {
    let bodies = uneven_bodies(&export_lines(3_000, 400));
    let direct = {
        let text = bodies_file(&bodies);
        let mut source = JsonlSource::from_reader(BODIES_LABEL, std::io::Cursor::new(text));
        StreamPks::new(stream_config())
            .with_executor(Executor::new(1))
            .run(&mut source, |_| Ok(()))
            .expect("direct run")
    };
    let ((status, result), artifacts) = feed_session(&bodies);
    assert_eq!(status, 200, "{result}");
    assert_eq!(result["selected_k"], json!(direct.report.selected_k as u64));
    assert_eq!(
        result["projected_cycles"],
        json!(direct.report.projected_cycles)
    );
    let (checkpoint, attribution) = artifacts.expect("finished session artifacts");
    let mut want_ckpt = direct.final_checkpoint.to_json();
    want_ckpt.push('\n');
    assert_eq!(checkpoint, want_ckpt, "checkpoint bytes");
    let mut want_attr =
        serde_json::to_string_pretty(&direct.attribution).expect("attribution json");
    want_attr.push('\n');
    assert_eq!(attribution, want_attr, "attribution bytes");
}

/// A malformed record in the middle of the third body fails the session
/// with the error, line number included, that a `JsonlSource` over the
/// same NDJSON reports.
#[test]
fn batched_feed_parse_error_names_the_file_line() {
    let mut bodies = uneven_bodies(&export_lines(3_000, 400));
    let mut third: Vec<String> = bodies[2]
        .split_inclusive('\n')
        .map(str::to_string)
        .collect();
    let middle = third.len() / 2;
    let ending = if third[middle].ends_with("\r\n") {
        "\r\n"
    } else {
        "\n"
    };
    third[middle] = format!("{{\"id\": 7, \"name\": \"broken\"{ending}");
    bodies[2] = third.concat();
    let lines_before: usize = bodies[..2]
        .iter()
        .map(|b| b.split_inclusive('\n').count())
        .sum();
    let line = (lines_before + middle + 1) as u64;

    let text = bodies_file(&bodies);
    let mut source = JsonlSource::from_reader(BODIES_LABEL, std::io::Cursor::new(text));
    let want = StreamPks::new(stream_config())
        .with_executor(Executor::new(1))
        .run(&mut source, |_| Ok(()))
        .expect_err("the malformed line fails the direct run");
    assert!(
        matches!(want, StreamError::Parse { line: l, .. } if l == line),
        "{want}"
    );

    let ((status, result), _) = feed_session(&bodies);
    assert_eq!(status, 409, "{result}");
    assert_eq!(result["status"], json!("failed"));
    assert_eq!(result["error"], json!(want.to_string()));
}

// ---------------------------------------------------------------------------
// Cancellation-safe teardown
// ---------------------------------------------------------------------------

#[test]
fn delete_mid_stream_leaves_a_resumable_checkpoint() {
    let lines = export_lines(12_000, 150);
    let lines_path = std::env::temp_dir().join("pka_server_teardown_feed.jsonl");
    let ckpt_path = std::env::temp_dir().join("pka_server_teardown.ckpt.json");
    std::fs::write(&lines_path, &lines).expect("write feed lines");
    let config = StreamConfig::default()
        .with_prefix(150)
        .with_checkpoint_every(1_000)
        .with_reservoir(128)
        .with_batch(64);

    let server = PkaServer::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("run"));

        // The feed is labelled after the JSONL file so the teardown
        // checkpoint can later be resumed against that file (resume
        // validates the checkpoint's source label).
        let id = create_session(
            addr,
            &json!({
                "mode": "stream",
                "source": "feed",
                "source_name": format!("jsonl:{}", lines_path.display()),
                "prefix": 150,
                "checkpoint_every": 1_000,
                "reservoir": 128,
                "batch": 64,
                "checkpoint_path": ckpt_path.to_str().expect("utf8 path"),
            }),
        );

        // Push the first half of the stream, then wait until the session has
        // taken at least one periodic checkpoint.
        let half: String = lines
            .lines()
            .take(6_000)
            .flat_map(|l| [l, "\n"])
            .collect();
        let (status, body) =
            request(addr, "POST", &format!("/v1/sessions/{id}/records"), &half);
        assert_eq!(status, 200, "{body}");
        let accepted: Value = serde_json::from_str(&body).expect("append response");
        assert_eq!(accepted["accepted"], json!(6_000));
        for _ in 0..6_000 {
            let (_, body) = request(addr, "GET", &format!("/v1/sessions/{id}"), "");
            let v: Value = serde_json::from_str(&body).expect("describe json");
            if v["records"].as_u64().unwrap_or(0) >= 1_000 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        // DELETE mid-stream: the worker must stop at a batch boundary and the
        // on-disk checkpoint must stay valid.
        let (status, body) = request(addr, "DELETE", &format!("/v1/sessions/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let summary: Value = serde_json::from_str(&body).expect("teardown summary");
        assert_eq!(summary["status"], json!("cancelled"), "{body}");
        let torn_records = summary["records"].as_u64().expect("records");
        assert!(
            (1_000..12_000).contains(&torn_records),
            "teardown stopped at {torn_records} records"
        );
        let (status, body) =
            request(addr, "GET", &format!("/v1/sessions/{id}/result"), "");
        assert_eq!(status, 409);
        assert!(body.contains("\"cancelled\""), "{body}");

        let (status, _) = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().expect("server thread");
    });

    // The teardown checkpoint resumes to exactly the uninterrupted outcome.
    let cp_value: Value =
        serde_json::from_str(&std::fs::read_to_string(&ckpt_path).expect("read checkpoint"))
            .expect("checkpoint json");
    let cp = Checkpoint::from_value(&cp_value).expect("parse checkpoint");
    assert!(cp.records < 12_000);

    let uninterrupted = {
        let mut source = JsonlSource::open(&lines_path).expect("open feed lines");
        StreamPks::new(config)
            .with_executor(Executor::new(1))
            .run(&mut source, |_| Ok(()))
            .expect("uninterrupted run")
    };
    let mut source = JsonlSource::open(&lines_path).expect("open feed lines");
    let resumed = StreamPks::new(config)
        .with_executor(Executor::new(1))
        .run_from(&mut source, Some(&cp), |_| Ok(()), &CancelToken::new())
        .expect("resume from teardown checkpoint");
    // The teardown snapshot is one extra checkpoint the uninterrupted run
    // never takes, so `seq` runs exactly one ahead; every other field must
    // match byte for byte (the engine's resume-after-cancel contract).
    let strip_seq = |cp: &Checkpoint| {
        let mut v: Value = serde_json::from_str(&cp.to_json()).expect("checkpoint json");
        if let Value::Object(m) = &mut v {
            m.remove("seq");
        }
        v
    };
    assert_eq!(
        strip_seq(&resumed.final_checkpoint),
        strip_seq(&uninterrupted.final_checkpoint),
        "resume from the teardown checkpoint must reproduce the uninterrupted run"
    );
    assert_eq!(
        resumed.final_checkpoint.seq,
        uninterrupted.final_checkpoint.seq + 1,
        "the only drift is the teardown snapshot's own sequence number"
    );

    std::fs::remove_file(&lines_path).ok();
    std::fs::remove_file(&ckpt_path).ok();
}

#[test]
fn resume_session_finishes_from_the_teardown_checkpoint() {
    const N: u64 = 100_000;
    let ckpt_path = std::env::temp_dir().join("pka_server_resume.ckpt.json");
    std::fs::remove_file(&ckpt_path).ok();
    let path_text = ckpt_path.to_str().expect("utf8 path");
    let spec = |resume: bool| {
        json!({
            "mode": "stream",
            "source": format!("synthetic:{N}"),
            "prefix": 400,
            "checkpoint_every": 1_500,
            "reservoir": 256,
            "batch": 128,
            "checkpoint_path": path_text,
            "resume": resume,
        })
    };

    let server = PkaServer::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr().expect("addr");
    let (teardown_bytes, served_ckpt, served_attr) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("run"));

        // `resume` without a file to resume from is refused by key name.
        let (status, body) = request(
            addr,
            "POST",
            "/v1/sessions",
            &json!({ "mode": "stream", "source": "synthetic:6000", "resume": true }).to_string(),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("`checkpoint_path`"), "{body}");

        // Tear a checkpointing session down once it is past its first
        // periodic checkpoint.
        let id = create_session(addr, &spec(false));
        for _ in 0..6_000 {
            let (_, body) = request(addr, "GET", &format!("/v1/sessions/{id}"), "");
            let v: Value = serde_json::from_str(&body).expect("describe json");
            if v["records"].as_u64().unwrap_or(0) >= 1_500 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let (status, body) = request(addr, "DELETE", &format!("/v1/sessions/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let summary: Value = serde_json::from_str(&body).expect("teardown summary");
        assert_eq!(summary["status"], json!("cancelled"), "{body}");
        let teardown_bytes = std::fs::read_to_string(&ckpt_path).expect("teardown checkpoint");

        // A second session resumes from that file and runs to the end.
        let id = create_session(addr, &spec(true));
        let result = wait_result(addr, &id);
        assert_eq!(result["report"]["records"], json!(N), "{result}");
        let served_ckpt = fetch(addr, &id, "checkpoint");
        let served_attr = fetch(addr, &id, "attribution");

        let (status, _) = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        handle.join().expect("server thread");
        (teardown_bytes, served_ckpt, served_attr)
    });
    assert_eq!(
        std::fs::read_to_string(&ckpt_path).expect("final checkpoint file"),
        served_ckpt,
        "the file at checkpoint_path must hold the bytes GET .../checkpoint serves"
    );

    let config = stream_config();
    let source = || WorkloadSource::new(synthetic_workload(N), Profiler::new(GpuConfig::v100()));
    let uninterrupted = StreamPks::new(config)
        .with_executor(Executor::new(1))
        .run(&mut source(), |_| Ok(()))
        .expect("uninterrupted run");
    let mut want_attr =
        serde_json::to_string_pretty(&uninterrupted.attribution).expect("attribution json");
    want_attr.push('\n');
    assert_eq!(served_attr, want_attr, "resumed attribution must equal the uninterrupted run's");

    // Byte for byte what a direct resume from the same teardown file gives.
    let teardown = Checkpoint::from_json(&teardown_bytes).expect("parse teardown checkpoint");
    assert!(teardown.records < N, "teardown stopped at {}", teardown.records);
    let resumed = StreamPks::new(config)
        .with_executor(Executor::new(1))
        .run_from(&mut source(), Some(&teardown), |_| Ok(()), &CancelToken::new())
        .expect("direct resume");
    let mut want_ckpt = resumed.final_checkpoint.to_json();
    want_ckpt.push('\n');
    assert_eq!(served_ckpt, want_ckpt, "resumed checkpoint must equal a direct resume");

    // And the uninterrupted run's, but for the teardown snapshot's own `seq`.
    let without_seq = |text: &str| {
        let mut v: Value = serde_json::from_str(text).expect("checkpoint json");
        if let Value::Object(m) = &mut v {
            m.remove("seq")
        } else {
            None
        }
        .map(|seq| (seq, v))
        .expect("checkpoint has a seq")
    };
    let (got_seq, got) = without_seq(&served_ckpt);
    let (want_seq, want) = without_seq(&uninterrupted.final_checkpoint.to_json());
    assert_eq!(got, want, "resumed checkpoint must equal the uninterrupted run's");
    assert_eq!(got_seq.as_u64(), want_seq.as_u64().map(|s| s + 1));

    std::fs::remove_file(&ckpt_path).ok();
}

// ---------------------------------------------------------------------------
// Concurrent-session determinism
// ---------------------------------------------------------------------------

#[test]
fn interleaved_sessions_are_byte_identical_to_serial() {
    let registry = Registry::new(8, 16, 8_192, Executor::new(1));
    let lines = export_lines(4_000, 150);
    let spec = json!({
        "mode": "stream",
        "source": "feed",
        "prefix": 150,
        "checkpoint_every": 1_000,
        "reservoir": 128,
        "batch": 64,
    });

    let artifacts = |s: &principal_kernel_analysis::server::Session| {
        let st = s.cell.state.lock().expect("session state");
        assert_eq!(st.status(), Status::Done, "error: {:?}", st.error);
        (
            st.final_checkpoint.clone().expect("final checkpoint"),
            st.attribution.clone().expect("attribution"),
            st.progress.clone(),
        )
    };

    // Serial reference: one session, fed start to finish on its own.
    let serial = registry.create(&spec).expect("serial session");
    let feed = serial.feed.as_ref().expect("feed handle");
    feed.push_lines(&lines).expect("push");
    feed.finish();
    serial.join();
    let want = artifacts(&serial);

    // Two sessions fed in alternating 500-line slices while both run.
    let a = registry.create(&spec).expect("session a");
    let b = registry.create(&spec).expect("session b");
    let all: Vec<&str> = lines.lines().collect();
    for chunk in all.chunks(500) {
        let text: String = chunk.iter().flat_map(|l| [*l, "\n"]).collect();
        a.feed.as_ref().expect("feed a").push_lines(&text).expect("push a");
        b.feed.as_ref().expect("feed b").push_lines(&text).expect("push b");
    }
    a.feed.as_ref().expect("feed a").finish();
    b.feed.as_ref().expect("feed b").finish();
    a.join();
    b.join();

    for (name, session) in [("a", &a), ("b", &b)] {
        let got = artifacts(session);
        assert_eq!(
            got.0, want.0,
            "session {name}: interleaved final checkpoint must match serial"
        );
        assert_eq!(
            got.1, want.1,
            "session {name}: interleaved attribution must match serial"
        );
        assert_eq!(
            got.2, want.2,
            "session {name}: interleaved progress stream must match serial"
        );
    }
}

// ---------------------------------------------------------------------------
// Capacity caps and retention eviction
// ---------------------------------------------------------------------------

#[test]
fn session_caps_and_lru_eviction() {
    let registry = Registry::new(1, 0, 1_024, Executor::new(1));
    let lines = export_lines(300, 20);
    let spec = json!({
        "mode": "stream",
        "source": "feed",
        "prefix": 20,
        "checkpoint_every": 100,
        "reservoir": 64,
        "batch": 32,
    });

    let first = registry.create(&spec).expect("first session");
    let first_id = first.cell.id.clone();

    // The cap counts running sessions: a second create is refused with 429.
    match registry.create(&spec) {
        Err((status, message)) => assert_eq!(status, 429, "{message}"),
        Ok(_) => panic!("second create must be refused at the cap"),
    }

    // Finish the first session; it turns terminal and frees its slot.
    let feed = first.feed.as_ref().expect("feed handle");
    feed.push_lines(&lines).expect("push");
    feed.finish();
    first.join();
    assert_eq!(
        first.cell.state.lock().expect("state").status(),
        Status::Done
    );

    // With retain_completed = 0, the next create evicts the finished
    // session: its id stops resolving (HTTP would answer 404).
    let second = registry.create(&spec).expect("second session");
    assert!(
        registry.get(&first_id).is_none(),
        "finished session must be evicted once past the retention cap"
    );

    // Teardown of a live feed session (past its prefix, blocked waiting for
    // more records) lands in `cancelled`, not `failed`.
    let feed = second.feed.as_ref().expect("feed handle");
    feed.push_lines(&lines).expect("push");
    let second_id = second.cell.id.clone();
    let summary = registry.teardown(&second_id).expect("teardown");
    assert_eq!(summary["status"], json!("cancelled"));
    assert!(registry.get(&second_id).is_none(), "retain 0 evicts it too");
}

/// Sends `n` keep-alive `GET /healthz` requests on one connection, each
/// after the previous reply is read in full; returns the time the loop took
/// and every status line that was not a 200.
fn keep_alive_round_trips(addr: SocketAddr, n: usize) -> std::io::Result<(Duration, Vec<String>)> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut bad = Vec::new();
    let start = std::time::Instant::now();
    for _ in 0..n {
        writer.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")?;
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        if !status_line.starts_with("HTTP/1.1 200") {
            bad.push(status_line);
        }
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h)?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
    }
    Ok((start.elapsed(), bad))
}

/// Keep-alive latency with a client that leaves delayed ACKs on, as a plain
/// `std::net` client does. A response sent as several small segments stalls
/// ~40 ms each behind Nagle's algorithm until the client's ACK timer fires;
/// a response sent as one write on a no-delay socket does not.
#[test]
fn keep_alive_requests_do_not_stall_on_delayed_acks() {
    let server = PkaServer::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr().expect("addr");
    // The server is shut down before any assertion, so a failure reports
    // instead of leaving the scope waiting on a running server.
    let outcome = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("run"));
        let outcome = keep_alive_round_trips(addr, 20);
        let (status, _) = request(addr, "POST", "/v1/shutdown", "");
        handle.join().expect("server thread");
        assert_eq!(status, 200);
        outcome
    });
    let (elapsed, bad) = outcome.expect("keep-alive client");
    assert!(bad.is_empty(), "non-200 replies: {bad:?}");
    assert!(
        elapsed < Duration::from_millis(400),
        "20 keep-alive requests took {elapsed:?}"
    );
}

/// Runs `requests` against a fresh server, shuts it down, and returns the
/// `(status, body)` replies. Assertions run on the replies afterwards, so
/// a failing one cannot leave the server thread blocking the test.
fn replies(requests: &[(&str, &str, String)]) -> Vec<(u16, String)> {
    let server = PkaServer::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr().expect("addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run().expect("run"));
        let out = requests
            .iter()
            .map(|(method, path, body)| request(addr, method, path, body))
            .collect();
        request(addr, "POST", "/v1/shutdown", "");
        handle.join().expect("server thread");
        out
    })
}

#[test]
fn unknown_session_keys_are_refused_by_name() {
    // `shards` selected the removed sharded engine; it must not be
    // silently ignored into a single-pipeline run.
    let sharded = json!({ "mode": "stream", "source": "synthetic:6000", "shards": 2 });
    let select = json!({ "mode": "select", "workload": "gramschmidt", "gpu": "v100" });
    let got = replies(&[
        ("POST", "/v1/sessions", sharded.to_string()),
        ("POST", "/v1/sessions", select.to_string()),
    ]);
    assert_eq!(got[0].0, 400, "{}", got[0].1);
    assert!(got[0].1.contains("unknown session key `shards`"), "{}", got[0].1);
    assert_eq!(got[1].0, 400, "{}", got[1].1);
    assert!(got[1].1.contains("unknown session key `gpu`"), "{}", got[1].1);
}

#[test]
fn deeply_nested_spec_is_a_400_and_the_server_stays_up() {
    // 100 KB of nesting: enough to overflow a recursive parser's stack.
    let bomb = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
    let got = replies(&[
        ("POST", "/v1/sessions", bomb),
        ("GET", "/healthz", String::new()),
    ]);
    assert_eq!(got[0].0, 400, "{}", got[0].1);
    assert!(got[0].1.contains("nesting deeper than"), "{}", got[0].1);
    assert_eq!(got[1].0, 200, "{}", got[1].1);
}
