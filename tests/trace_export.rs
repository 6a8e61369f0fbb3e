//! Golden test for `pka trace export`: converting the committed
//! `pka.trace/v1` fixture must reproduce the committed Chrome
//! trace-event JSON byte for byte, and the output must satisfy the
//! structural invariants Perfetto / `about:tracing` rely on.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn pka_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pka")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pka_export_it_{}_{name}", std::process::id()))
}

#[test]
fn export_matches_committed_golden() {
    let out = temp_path("chrome.json");
    let run = Command::new(pka_bin())
        .args([
            "trace",
            "export",
            fixture("trace_fixture.jsonl").to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("run pka trace export");
    assert!(
        run.status.success(),
        "pka trace export failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let produced = std::fs::read_to_string(&out).expect("read produced chrome json");
    let golden = std::fs::read_to_string(fixture("trace_fixture_chrome.json"))
        .expect("read golden chrome json");
    assert_eq!(produced, golden, "chrome trace diverged from the golden fixture");
    std::fs::remove_file(&out).ok();
}

/// Structural invariants of the exported document, independent of the
/// exact golden bytes: valid JSON, the two top-level Chrome keys, every
/// event carrying the mandatory `ph`/`pid`/`name` fields, "X" events with
/// microsecond `ts`/`dur`, and one named lane per thread.
#[test]
fn export_is_valid_chrome_trace_json() {
    let run = Command::new(pka_bin())
        .args([
            "trace",
            "export",
            fixture("trace_fixture.jsonl").to_str().unwrap(),
        ])
        .output()
        .expect("run pka trace export");
    assert!(run.status.success());
    let stdout = String::from_utf8(run.stdout).expect("stdout is UTF-8");
    let doc: Value = serde_json::from_str(&stdout).expect("stdout is valid JSON");
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    let mut lanes = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev["ph"].as_str().unwrap_or_else(|| panic!("event {i} missing ph"));
        assert!(ev["pid"].as_u64().is_some(), "event {i} missing pid");
        assert!(ev["name"].as_str().is_some(), "event {i} missing name");
        match ph {
            "M" => {
                if ev["name"].as_str() == Some("thread_name") {
                    lanes.push(ev["args"]["name"].as_str().unwrap().to_string());
                }
            }
            "X" => {
                assert!(ev["ts"].as_f64().is_some(), "span {i} missing ts");
                assert!(ev["dur"].as_f64().is_some(), "span {i} missing dur");
            }
            "i" => {
                assert_eq!(ev["s"].as_str(), Some("t"), "instant {i} missing scope");
            }
            other => panic!("event {i} has unexpected phase {other:?}"),
        }
    }
    // The fixture exercises the deterministic lane mapping: main first,
    // then the executor workers in index order.
    assert_eq!(lanes, ["main", "pka-w0", "pka-w1"]);

    // The fixture's unknown record type must be skipped, not exported.
    assert!(!events
        .iter()
        .any(|e| e["name"].as_str() == Some("ignored")));
}

/// Golden test for the counter-track fixture: a trace carrying
/// `"counter"` records (snapshot throughput, reservoir occupancy, one
/// lane per counter name) converts to the committed Chrome JSON byte for
/// byte, with one `"C"` event per well-formed counter record.
#[test]
fn counter_tracks_match_committed_golden() {
    let out = temp_path("counters_chrome.json");
    let run = Command::new(pka_bin())
        .args([
            "trace",
            "export",
            fixture("trace_fixture_counters.jsonl").to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("run pka trace export");
    assert!(
        run.status.success(),
        "pka trace export failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let produced = std::fs::read_to_string(&out).expect("read produced chrome json");
    let golden = std::fs::read_to_string(fixture("trace_fixture_counters_chrome.json"))
        .expect("read golden chrome json");
    assert_eq!(produced, golden, "counter-track export diverged from the golden fixture");
    std::fs::remove_file(&out).ok();

    let doc: Value = serde_json::from_str(&golden).expect("golden is valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let counters: Vec<&Value> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("C"))
        .collect();
    // 8 well-formed counter records; the one missing `values` is skipped.
    assert_eq!(counters.len(), 8);
    for c in &counters {
        assert!(c["name"].as_str().is_some());
        assert!(c["ts"].as_f64().is_some());
        assert!(c["args"].as_object().is_some_and(|m| !m.is_empty()));
    }
    // One lane per counter name: each distinct name is its own track.
    for name in ["snapshot.shard0.records", "snapshot.shard1.records"] {
        assert_eq!(
            counters.iter().filter(|c| c["name"].as_str() == Some(name)).count(),
            2,
            "missing counter lane {name}"
        );
    }
    assert!(!events
        .iter()
        .any(|e| e["name"].as_str() == Some("malformed-no-values")));
}

/// A file that is not a `pka.trace/v1` stream is refused.
#[test]
fn export_rejects_non_trace_input() {
    let bogus = temp_path("bogus.jsonl");
    std::fs::write(&bogus, "{\"schema\":\"other/v1\",\"type\":\"header\"}\n").unwrap();
    let run = Command::new(pka_bin())
        .args(["trace", "export", bogus.to_str().unwrap()])
        .output()
        .expect("run pka trace export");
    assert!(!run.status.success(), "bogus input was accepted");
    std::fs::remove_file(&bogus).ok();
}
