//! `pka.trace/v1` → Chrome trace-event JSON (`about:tracing` / Perfetto).
//!
//! The converter maps span records to `"X"` (complete) events, event
//! records to `"i"` (instant) events, and counter records to `"C"`
//! (counter) events, with one lane per source thread (counters additionally
//! get one value track per record name).
//! Lane (tid) assignment is deterministic and mirrors the executor's
//! per-worker stage naming: the `main` thread gets tid 0, worker threads
//! named `pka-w<N>` (the threads behind the `executor.worker_busy.w<N>`
//! stages) get tid `N + 1`, and any other labels are assigned tids after
//! those in sorted order. Timestamps convert from integer nanoseconds to
//! the trace-event format's microseconds as exact `ns / 1000` fractions,
//! so the output is byte-stable for a fixed input (pinned by the golden
//! fixture test under `tests/`).

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::TRACE_SCHEMA;

/// Process id stamped on every emitted trace event (one pka process).
const PID: u64 = 1;

/// Convert a `pka.trace/v1` JSONL document into a Chrome trace-event JSON
/// value (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
///
/// # Errors
///
/// Returns a message when the header line is missing or declares a
/// different schema, or when a line is not valid JSON. Unknown record
/// types are skipped (forward compatibility), as are span/event records
/// missing required fields.
pub fn chrome_trace(jsonl: &str) -> Result<Value, String> {
    let mut rows: Vec<Value> = Vec::new();
    let mut saw_header = false;
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        if !saw_header {
            let schema = v["schema"].as_str().unwrap_or("");
            if v["type"].as_str() != Some("header") || schema != TRACE_SCHEMA {
                return Err(format!(
                    "line {}: expected `{TRACE_SCHEMA}` header, got `{schema}`",
                    i + 1
                ));
            }
            saw_header = true;
            continue;
        }
        rows.push(v);
    }
    if !saw_header {
        return Err(format!("empty input: no `{TRACE_SCHEMA}` header line"));
    }

    let tids = assign_tids(&rows);
    let mut events: Vec<Value> = Vec::new();
    events.push(json!({
        "ph": "M", "name": "process_name", "pid": PID,
        "args": { "name": "pka" },
    }));
    let mut by_tid: Vec<(&u64, &&str)> = tids.values().zip(tids.keys()).collect();
    by_tid.sort();
    for (tid, label) in by_tid {
        events.push(json!({
            "ph": "M", "name": "thread_name", "pid": PID, "tid": *tid,
            "args": { "name": *label },
        }));
        events.push(json!({
            "ph": "M", "name": "thread_sort_index", "pid": PID, "tid": *tid,
            "args": { "sort_index": *tid },
        }));
    }

    for row in &rows {
        let thread = row["thread"].as_str().unwrap_or("");
        let Some(&tid) = tids.get(thread) else {
            continue;
        };
        let Some(t_ns) = row["t_ns"].as_u64() else {
            continue;
        };
        let ts = t_ns as f64 / 1000.0;
        match row["type"].as_str() {
            Some("span") => {
                let (Some(name), Some(dur_ns)) = (row["name"].as_str(), row["dur_ns"].as_u64())
                else {
                    continue;
                };
                events.push(json!({
                    "ph": "X", "name": name, "cat": "span",
                    "pid": PID, "tid": tid,
                    "ts": ts, "dur": dur_ns as f64 / 1000.0,
                    "args": { "depth": row["depth"].as_u64().unwrap_or(0) },
                }));
            }
            Some("event") => {
                let Some(name) = row["name"].as_str() else {
                    continue;
                };
                events.push(json!({
                    "ph": "i", "name": name, "cat": "event",
                    "pid": PID, "tid": tid,
                    "ts": ts, "s": "t",
                    "args": row["fields"].clone(),
                }));
            }
            Some("counter") => {
                let (Some(name), Some(values)) =
                    (row["name"].as_str(), row["values"].as_object())
                else {
                    continue;
                };
                // Chrome renders one counter track per event name, with one
                // series per args key: one lane per counter name.
                events.push(json!({
                    "ph": "C", "name": name, "cat": "counter",
                    "pid": PID, "tid": tid,
                    "ts": ts,
                    "args": Value::Object(values.clone()),
                }));
            }
            _ => {} // unknown record types: skip, do not fail
        }
    }

    Ok(json!({ "displayTimeUnit": "ms", "traceEvents": events }))
}

/// Deterministic thread-label → tid mapping: `main` → 0, `pka-w<N>` →
/// `N + 1`, everything else packed after the largest structured tid in
/// sorted label order.
fn assign_tids<'a>(rows: &'a [Value]) -> BTreeMap<&'a str, u64> {
    let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
    let mut others: Vec<&str> = Vec::new();
    for row in rows {
        let Some(label) = row["thread"].as_str() else {
            continue;
        };
        if tids.contains_key(label) || others.contains(&label) {
            continue;
        }
        if label == "main" {
            tids.insert(label, 0);
        } else if let Some(n) = label.strip_prefix("pka-w").and_then(|s| s.parse::<u64>().ok()) {
            tids.insert(label, n + 1);
        } else {
            others.push(label);
        }
    }
    let mut next = tids.values().max().map_or(0, |&m| m + 1);
    others.sort_unstable();
    for label in others {
        tids.insert(label, next);
        next += 1;
    }
    tids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> String {
        [
            r#"{"type":"header","schema":"pka.trace/v1"}"#,
            r#"{"type":"span","name":"pks.select","t_ns":1000,"dur_ns":500000,"depth":0,"thread":"main"}"#,
            r#"{"type":"span","name":"kmeans.fit","t_ns":2500,"dur_ns":120000,"depth":1,"thread":"pka-w0"}"#,
            r#"{"type":"event","name":"pkp.stop","t_ns":400000,"thread":"pka-w1","fields":{"cycle":96500}}"#,
            r#"{"type":"span","name":"legacy","t_ns":9000,"dur_ns":100,"depth":0,"thread":"ThreadId(7)"}"#,
        ]
        .join("\n")
    }

    #[test]
    fn converts_spans_and_events_with_stable_lanes() {
        let out = chrome_trace(&fixture()).expect("convert");
        assert_eq!(out["displayTimeUnit"].as_str(), Some("ms"));
        let events = out["traceEvents"].as_array().expect("array");
        // 4 labels -> process_name + 4 * (thread_name + sort_index) = 9
        // metadata events, then 4 trace events.
        assert_eq!(events.len(), 13);
        let x: Vec<&Value> = events.iter().filter(|e| e["ph"] == json!("X")).collect();
        assert_eq!(x.len(), 3);
        assert_eq!(x[0]["name"].as_str(), Some("pks.select"));
        assert_eq!(x[0]["tid"].as_u64(), Some(0)); // main
        assert_eq!(x[0]["ts"].as_f64(), Some(1.0));
        assert_eq!(x[0]["dur"].as_f64(), Some(500.0));
        assert_eq!(x[1]["tid"].as_u64(), Some(1)); // pka-w0
        assert_eq!(x[2]["tid"].as_u64(), Some(3)); // unnamed, after pka-w1
        let i: Vec<&Value> = events.iter().filter(|e| e["ph"] == json!("i")).collect();
        assert_eq!(i.len(), 1);
        assert_eq!(i[0]["tid"].as_u64(), Some(2)); // pka-w1
        assert_eq!(i[0]["args"]["cycle"].as_u64(), Some(96500));
        assert_eq!(i[0]["s"].as_str(), Some("t"));
    }

    #[test]
    fn converts_counter_records_to_counter_events() {
        let body = [
            r#"{"type":"header","schema":"pka.trace/v1"}"#,
            r#"{"type":"counter","name":"snapshot.kernels_per_sec","t_ns":2000,"thread":"main","values":{"kernels_per_sec":1250000.0}}"#,
            r#"{"type":"counter","name":"snapshot.shard0.records","t_ns":2000,"thread":"main","values":{"records":512}}"#,
            r#"{"type":"counter","name":"snapshot.shard1.records","t_ns":2000,"thread":"main","values":{"records":488}}"#,
            r#"{"type":"counter","name":"broken","t_ns":3000,"thread":"main"}"#,
        ]
        .join("\n");
        let out = chrome_trace(&body).expect("convert");
        let c: Vec<&Value> = out["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"] == json!("C"))
            .collect();
        // The record missing `values` is skipped, not exported.
        assert_eq!(c.len(), 3);
        assert_eq!(c[0]["name"].as_str(), Some("snapshot.kernels_per_sec"));
        assert_eq!(c[0]["args"]["kernels_per_sec"].as_f64(), Some(1_250_000.0));
        assert_eq!(c[0]["ts"].as_f64(), Some(2.0));
        // One lane per counter name: distinct names, one series each.
        assert_eq!(c[1]["name"].as_str(), Some("snapshot.shard0.records"));
        assert_eq!(c[1]["args"]["records"].as_u64(), Some(512));
        assert_eq!(c[2]["name"].as_str(), Some("snapshot.shard1.records"));
        assert_eq!(c[2]["args"]["records"].as_u64(), Some(488));
    }

    #[test]
    fn rejects_missing_or_foreign_header() {
        assert!(chrome_trace("").is_err());
        assert!(chrome_trace(r#"{"type":"span","name":"x"}"#).is_err());
        assert!(chrome_trace(r#"{"type":"header","schema":"other/v9"}"#).is_err());
    }

    #[test]
    fn skips_unknown_record_types() {
        let body = format!(
            "{}\n{}",
            r#"{"type":"header","schema":"pka.trace/v1"}"#,
            r#"{"type":"future-record","name":"x","thread":"main","t_ns":1}"#
        );
        let out = chrome_trace(&body).expect("convert");
        let events = out["traceEvents"].as_array().unwrap();
        // Only metadata for the one referenced thread label.
        assert!(events.iter().all(|e| e["ph"] == json!("M")));
    }

    #[test]
    fn conversion_is_deterministic() {
        let a = serde_json::to_string_pretty(&chrome_trace(&fixture()).unwrap()).unwrap();
        let b = serde_json::to_string_pretty(&chrome_trace(&fixture()).unwrap()).unwrap();
        assert_eq!(a, b);
    }
}
