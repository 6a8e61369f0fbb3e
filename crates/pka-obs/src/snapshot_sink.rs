//! Live snapshot emission: the `pka.snapshot/v1` JSONL schema.
//!
//! A snapshot is a periodic, in-flight progress record emitted by the
//! streaming pipeline (and, at phase boundaries, by the batch commands):
//! prefix-vs-tail phase, records folded so far, per-group assignment
//! counts, reservoir occupancy, drift/recluster/checkpoint event counts,
//! and the bounded-memory high-water mark.
//!
//! Determinism contract: every field of [`SnapshotRecord`] is a pure
//! function of the input stream and configuration, so the record payload is
//! byte-identical across `--workers` counts. All wall-clock-derived data
//! (elapsed nanoseconds, kernels/s throughput, cumulative checkpoint write
//! time) is quarantined in a `"timing"` sub-object added by the sink, which
//! parity tooling strips before comparison.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use serde_json::{json, Map, Value};

/// Schema identifier stamped into the snapshot JSONL header.
pub const SNAPSHOT_SCHEMA: &str = "pka.snapshot/v1";

/// The deterministic payload of one `pka.snapshot/v1` record.
///
/// Batch commands that have no streaming state (no reservoir, no drift
/// trackers) leave the corresponding fields zero/empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotRecord {
    /// Pipeline phase: `"prefix"` / `"tail"` for streaming runs,
    /// `"profile"` / `"select"` / `"simulate"` for batch commands.
    pub phase: String,
    /// Records folded (streaming) or kernels processed (batch) so far.
    pub records: u64,
    /// Currently selected K (0 before selection).
    pub selected_k: i64,
    /// Per-group assignment counts, indexed by group id.
    pub group_counts: Vec<u64>,
    /// Reservoir occupancy (streaming only).
    pub reservoir_len: u64,
    /// Reservoir capacity (streaming only).
    pub reservoir_cap: u64,
    /// Drift detections fired so far.
    pub drifts: u64,
    /// Reservoir reclusters performed so far.
    pub reclusters: u64,
    /// Checkpoints written so far.
    pub checkpoints: u64,
    /// Bounded-memory high-water mark (max records buffered at once).
    pub max_buffered: u64,
}

impl SnapshotRecord {
    /// The record as a JSON object (deterministic payload only; `type`,
    /// `seq`, and `timing` are stamped by the sink).
    pub fn to_value(&self) -> Value {
        json!({
            "phase": self.phase,
            "records": self.records,
            "selected_k": self.selected_k,
            "group_counts": self.group_counts,
            "reservoir_len": self.reservoir_len,
            "reservoir_cap": self.reservoir_cap,
            "drifts": self.drifts,
            "reclusters": self.reclusters,
            "checkpoints": self.checkpoints,
            "max_buffered": self.max_buffered,
        })
    }

    /// Rebuild a record from a JSONL snapshot line (sink-stamped fields are
    /// ignored, so this accepts both bare payloads and full records).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let need_u64 = |k: &str| {
            v[k].as_u64()
                .ok_or_else(|| format!("snapshot record: missing/invalid field `{k}`"))
        };
        Ok(Self {
            phase: v["phase"]
                .as_str()
                .ok_or("snapshot record: missing/invalid field `phase`")?
                .to_string(),
            records: need_u64("records")?,
            selected_k: v["selected_k"]
                .as_i64()
                .ok_or("snapshot record: missing/invalid field `selected_k`")?,
            group_counts: v["group_counts"]
                .as_array()
                .ok_or("snapshot record: missing/invalid field `group_counts`")?
                .iter()
                .map(|g| g.as_u64().ok_or("snapshot record: non-integer group count"))
                .collect::<Result<_, _>>()?,
            reservoir_len: need_u64("reservoir_len")?,
            reservoir_cap: need_u64("reservoir_cap")?,
            drifts: need_u64("drifts")?,
            reclusters: need_u64("reclusters")?,
            checkpoints: need_u64("checkpoints")?,
            max_buffered: need_u64("max_buffered")?,
        })
    }
}

/// The snapshot sink: an optional JSONL writer plus an optional
/// human-readable stderr ticker, both fed by the same records.
pub(crate) struct SnapshotSink {
    writer: Option<BufWriter<File>>,
    every: u64,
    progress: bool,
    seq: u64,
    last: Option<(u64, u64)>, // (t_ns, records) of the previous emit
}

impl SnapshotSink {
    pub(crate) fn new(every: u64) -> Self {
        Self {
            writer: None,
            every: every.max(1),
            progress: false,
            seq: 0,
            last: None,
        }
    }

    pub(crate) fn attach(&mut self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        let header = json!({ "type": "header", "schema": SNAPSHOT_SCHEMA });
        writeln!(w, "{header}")?;
        w.flush()?;
        self.writer = Some(w);
        Ok(())
    }

    pub(crate) fn enable_progress(&mut self) {
        self.progress = true;
    }

    pub(crate) fn every(&self) -> u64 {
        self.every
    }

    /// Emit one record: stamp `type`/`seq`, compute the volatile `timing`
    /// sub-object (elapsed ns, kernels/s over the window since the previous
    /// emit), merge caller-supplied timing extras, write the JSONL line, and
    /// print the progress ticker when enabled. Returns the windowed
    /// kernels/s so the registry can mirror it into trace counter tracks.
    pub(crate) fn emit(&mut self, record: &SnapshotRecord, extra_timing: Value, t_ns: u64) -> f64 {
        let kps = match self.last {
            Some((last_t, last_records)) if t_ns > last_t => {
                (record.records.saturating_sub(last_records)) as f64 * 1e9
                    / (t_ns - last_t) as f64
            }
            _ if t_ns > 0 => record.records as f64 * 1e9 / t_ns as f64,
            _ => 0.0,
        };
        // Belt over the window guards above: a pathological clock (zero or
        // backwards elapsed time) must never leak `inf`/`NaN` into the JSONL
        // timing object — downstream jq/plot tooling chokes on both.
        let kps = if kps.is_finite() { kps } else { 0.0 };
        self.last = Some((t_ns, record.records));

        let mut timing = Map::new();
        timing.insert("t_ns".to_string(), json!(t_ns));
        timing.insert("kernels_per_sec".to_string(), json!(kps));
        if let Value::Object(extra) = extra_timing {
            for (k, v) in extra {
                timing.insert(k, v);
            }
        }

        let mut line = match record.to_value() {
            Value::Object(m) => m,
            _ => unreachable!("snapshot record serializes to an object"),
        };
        line.insert("type".to_string(), json!("snapshot"));
        line.insert("seq".to_string(), json!(self.seq));
        line.insert("timing".to_string(), Value::Object(timing));
        self.seq += 1;

        if let Some(w) = self.writer.as_mut() {
            let value = Value::Object(line);
            // A failed snapshot write must never abort the pipeline; drop
            // the writer so the run completes without snapshots.
            if writeln!(w, "{value}").and_then(|_| w.flush()).is_err() {
                self.writer = None;
            }
        }

        if self.progress {
            eprintln!(
                "pka: phase={} records={} k={} reservoir={}/{} drifts={} reclusters={} ckpts={} {}",
                record.phase,
                record.records,
                record.selected_k,
                record.reservoir_len,
                record.reservoir_cap,
                record.drifts,
                record.reclusters,
                record.checkpoints,
                human_rate(kps),
            );
        }
        kps
    }

    pub(crate) fn close(&mut self) -> io::Result<()> {
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        Ok(())
    }
}

fn human_rate(kps: f64) -> String {
    if kps >= 1e6 {
        format!("{:.2}M rec/s", kps / 1e6)
    } else if kps >= 1e3 {
        format!("{:.1}k rec/s", kps / 1e3)
    } else {
        format!("{kps:.0} rec/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotRecord {
        SnapshotRecord {
            phase: "tail".to_string(),
            records: 120_000,
            selected_k: 12,
            group_counts: vec![40_000, 50_000, 30_000],
            reservoir_len: 256,
            reservoir_cap: 256,
            drifts: 3,
            reclusters: 1,
            checkpoints: 6,
            max_buffered: 640,
        }
    }

    #[test]
    fn record_round_trips_through_value() {
        let rec = sample();
        let back = SnapshotRecord::from_value(&rec.to_value()).expect("round trip");
        assert_eq!(back, rec);
    }

    #[test]
    fn from_value_ignores_sink_stamped_fields() {
        let rec = sample();
        let mut line = match rec.to_value() {
            Value::Object(m) => m,
            _ => unreachable!(),
        };
        line.insert("type".to_string(), json!("snapshot"));
        line.insert("seq".to_string(), json!(4));
        line.insert("timing".to_string(), json!({ "t_ns": 99, "kernels_per_sec": 1.5 }));
        let back = SnapshotRecord::from_value(&Value::Object(line)).expect("full line");
        assert_eq!(back, rec);
    }

    #[test]
    fn from_value_rejects_missing_fields() {
        let mut line = match sample().to_value() {
            Value::Object(m) => m,
            _ => unreachable!(),
        };
        line.remove("reservoir_len");
        assert!(SnapshotRecord::from_value(&Value::Object(line)).is_err());
    }

    #[test]
    fn zero_elapsed_window_never_emits_non_finite_rate() {
        let path = std::env::temp_dir().join(format!(
            "pka_obs_test_zero_window_{}.jsonl",
            std::process::id()
        ));
        let mut sink = SnapshotSink::new(100);
        sink.attach(&path).expect("open sink");
        // t_ns == 0 on the first emit, then two emits on a stalled clock:
        // every window below has zero elapsed time.
        assert_eq!(sink.emit(&sample(), Value::Null, 0), 0.0);
        sink.emit(&sample(), Value::Null, 7);
        let mut more = sample();
        more.records += 5_000;
        let kps = sink.emit(&more, Value::Null, 7);
        assert!(kps.is_finite(), "stalled-clock window must stay finite: {kps}");
        sink.close().expect("close");
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        for line in body.lines().skip(1) {
            let v: Value = serde_json::from_str(line).expect("valid json");
            let kps = v["timing"]["kernels_per_sec"]
                .as_f64()
                .expect("kernels_per_sec is numeric");
            assert!(kps.is_finite(), "line carries non-finite rate: {line}");
        }
        let lower = body.to_lowercase();
        assert!(
            !lower.contains("inf") && !lower.contains("nan"),
            "JSONL must never contain inf/NaN: {body}"
        );
    }

    #[test]
    fn sink_writes_header_and_stamped_records() {
        let path = std::env::temp_dir().join("pka_obs_test_snapshot_sink.jsonl");
        let mut sink = SnapshotSink::new(100);
        sink.attach(&path).expect("open sink");
        sink.emit(&sample(), json!({ "checkpoint_write_ns": 1234u64 }), 2_000_000);
        let mut second = sample();
        second.records = 240_000;
        sink.emit(&second, Value::Null, 4_000_000);
        sink.close().expect("close");
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let lines: Vec<Value> = body
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid json"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0]["schema"].as_str(), Some(SNAPSHOT_SCHEMA));
        assert_eq!(lines[1]["type"].as_str(), Some("snapshot"));
        assert_eq!(lines[1]["seq"].as_u64(), Some(0));
        assert_eq!(lines[1]["timing"]["checkpoint_write_ns"].as_u64(), Some(1234));
        assert_eq!(lines[2]["seq"].as_u64(), Some(1));
        // Second window: 120k records over 2ms -> 60M rec/s.
        let kps = lines[2]["timing"]["kernels_per_sec"].as_f64().unwrap();
        assert!((kps - 6e7).abs() < 1.0, "kps = {kps}");
        // Payload fields round-trip from the written line.
        assert_eq!(
            SnapshotRecord::from_value(&lines[2]).expect("parse"),
            second
        );
    }
}
