//! Lightweight observability for the PKA pipeline.
//!
//! Vendored, zero-external-dependency instrumentation shared by every layer
//! of the workspace: spans with monotonic timing aggregated per stage,
//! atomic counters/gauges, fixed-bucket histograms, an optional JSONL trace
//! sink, and an end-of-run `run_manifest.json` snapshot.
//!
//! Design constraints, in priority order:
//!
//! 1. **Disabled means free.** Every instrumentation site is gated on a
//!    single relaxed [`AtomicBool`] load ([`enabled`]). With the sink off,
//!    hot paths (bounded K-Means assignment, the PKP engine loop) pay one
//!    predictable branch and nothing else, so `BENCH_pka.json` numbers are
//!    unperturbed.
//! 2. **Results stay bitwise deterministic.** Observability only *reads*
//!    pipeline state; counters, spans, and trace lines never feed back into
//!    any computation. Trace and snapshot JSONL are deterministic up to
//!    wall-clock fields: the executor flushes worker-emitted lines in item
//!    order via [`capture_trace`]/[`emit_captured`], and snapshot records
//!    quarantine volatile data in a `"timing"` sub-object, so canonicalized
//!    output is byte-identical across worker counts (the manifest is
//!    deterministic outright, because all of its maps are sorted
//!    `BTreeMap`s).
//! 3. **Metric handles are `&'static` and survive [`reset`].** Names are
//!    interned once (`Box::leak`) and never removed, so call sites may cache
//!    handles in `OnceLock` statics without invalidation hazards.
//!
//! The global registry starts disabled; binaries opt in via
//! `--trace-out` / `--metrics-out` / `-v`, which call [`enable`],
//! [`trace_to`], and [`write_manifest`].

#![forbid(unsafe_code)]

mod diff;
mod export;
mod expose;
mod snapshot_sink;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde_json::{json, Map, Value};

pub use diff::{diff_bench, diff_manifests, DiffEntry, DiffReport, DiffThresholds};
pub use export::chrome_trace;
pub use expose::{global_prometheus, parse_exposition, prometheus_text, EXPOSITION_CONTENT_TYPE};
pub use snapshot_sink::{SnapshotRecord, SNAPSHOT_SCHEMA};

use snapshot_sink::SnapshotSink;

/// Schema identifier stamped into every run manifest.
pub const MANIFEST_SCHEMA: &str = "pka.run_manifest/v1";

/// Schema identifier stamped into every JSONL trace line.
pub const TRACE_SCHEMA: &str = "pka.trace/v1";

/// Approximate percentile `p` of a fixed-bucket histogram: rank the sample
/// index `p/100 * (total - 1)` into the cumulative counts, map bucket `i`
/// to its inclusive upper edge (the overflow bucket maps to the last edge),
/// and linearly interpolate fractional ranks between the two edges.
fn histogram_percentile(edges: &[u64], counts: &[u64], p: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    debug_assert!(total > 0, "caller guards empty histograms");
    let rank = p / 100.0 * (total.saturating_sub(1)) as f64;
    let value_at = |target: u64| -> f64 {
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative > target {
                return edges
                    .get(i)
                    .or_else(|| edges.last())
                    .copied()
                    .unwrap_or(0) as f64;
            }
        }
        edges.last().copied().unwrap_or(0) as f64
    };
    let (low, high) = (value_at(rank.floor() as u64), value_at(rank.ceil() as u64));
    // `pka_stats::summary::percentile(&[low, high], frac * 100.0)`, spelled
    // out operation for operation so manifests keep their exact bits:
    // sort the pair, re-derive the rank over two samples, interpolate.
    let (lo, hi) = if high < low { (high, low) } else { (low, high) };
    let t = (rank - rank.floor()) * 100.0 / 100.0;
    if t == 0.0 {
        lo
    } else if t == 1.0 {
        hi
    } else {
        lo * (1.0 - t) + hi * t
    }
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's interned name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` occurrences.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one occurrence.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (e.g. the selected K).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicI64::new(0),
        }
    }

    /// The gauge's interned name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Last recorded value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram: `edges` are inclusive upper bounds, plus one
/// implicit overflow bucket, so `counts.len() == edges.len() + 1`.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    edges: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    fn new(name: &'static str, edges: &[u64]) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Self {
            name,
            edges: edges.to_vec(),
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// The histogram's interned name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Inclusive upper bounds of the finite buckets.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Record one observation of `v`. Values above the last edge land in
    /// the overflow bucket.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = self
            .edges
            .iter()
            .position(|&edge| v <= edge)
            .unwrap_or(self.edges.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Per-bucket counts (finite buckets in edge order, then overflow).
    pub fn counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observed values (wrapping at `u64::MAX`), for Prometheus
    /// `_sum` exposition. Updated by a separate relaxed add, so a scrape
    /// racing `record` may see `sum` lag the buckets by in-flight
    /// observations; `_count` is derived from one read of the buckets and
    /// never drifts.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Aggregated wall time for one named pipeline stage: total nanoseconds and
/// the number of recorded intervals, accumulated across threads.
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    total_ns: AtomicU64,
    calls: AtomicU64,
}

impl Stage {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            total_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// The stage's interned name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one interval of `ns` nanoseconds. Used directly (instead of a
    /// [`Span`] guard) at per-item sites like the simulator kernel loop,
    /// where emitting a trace line per interval would be noise.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Total accumulated nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Number of recorded intervals.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.total_ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The metric registry. One process-wide instance lives behind the
/// free functions ([`counter`], [`span`], ...); tests may build private
/// instances to avoid cross-test interference.
pub struct Registry {
    enabled: AtomicBool,
    started: Mutex<Instant>,
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    stages: Mutex<BTreeMap<&'static str, &'static Stage>>,
    trace: Mutex<Option<BufWriter<File>>>,
    snapshots: Mutex<Option<SnapshotSink>>,
}

impl Registry {
    /// A fresh, disabled registry.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            started: Mutex::new(Instant::now()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            stages: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(None),
            snapshots: Mutex::new(None),
        }
    }

    /// The single relaxed load that gates every instrumentation site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn collection on and restart the wall clock.
    pub fn enable(&self) {
        *self.started.lock().unwrap() = Instant::now();
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn collection off (interned metrics and their values remain).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Nanoseconds since [`enable`] (or registry creation).
    pub fn wall_ns(&self) -> u64 {
        u64::try_from(self.started.lock().unwrap().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Intern (or fetch) the counter named `name`. The returned handle is
    /// `&'static` and may be cached by call sites.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = self.counters.lock().unwrap();
        map.entry(name).or_insert_with(|| Box::leak(Box::new(Counter::new(name))))
    }

    /// Intern (or fetch) the gauge named `name`.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name).or_insert_with(|| Box::leak(Box::new(Gauge::new(name))))
    }

    /// Intern (or fetch) the histogram named `name`. `edges` are used on
    /// first interning; later calls reuse the existing bucket layout.
    pub fn histogram(&self, name: &'static str, edges: &[u64]) -> &'static Histogram {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new(name, edges))))
    }

    /// Intern (or fetch) the stage named `name`.
    pub fn stage(&self, name: &'static str) -> &'static Stage {
        let mut map = self.stages.lock().unwrap();
        map.entry(name).or_insert_with(|| Box::leak(Box::new(Stage::new(name))))
    }

    /// Zero every metric value and restart the wall clock. Interned entries
    /// are never removed, so handles cached by call sites stay valid.
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.lock().unwrap().values() {
            g.reset();
        }
        for h in self.histograms.lock().unwrap().values() {
            h.reset();
        }
        for s in self.stages.lock().unwrap().values() {
            s.reset();
        }
        *self.started.lock().unwrap() = Instant::now();
    }

    /// Route trace events to a JSONL file at `path` (truncating it). The
    /// first line is a header record identifying the schema.
    pub fn trace_to(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        let header = json!({ "type": "header", "schema": TRACE_SCHEMA });
        writeln!(w, "{header}")?;
        w.flush()?;
        *self.trace.lock().unwrap() = Some(w);
        Ok(())
    }

    /// True when a JSONL sink is attached.
    pub fn tracing(&self) -> bool {
        self.trace.lock().unwrap().is_some()
    }

    /// Flush and detach the JSONL sink, if any.
    pub fn close_trace(&self) -> io::Result<()> {
        if let Some(mut w) = self.trace.lock().unwrap().take() {
            w.flush()?;
        }
        Ok(())
    }

    fn emit(&self, line: Value) {
        // When a capture frame is active on this thread (see
        // [`capture_trace`]), the line is diverted there so the executor can
        // re-emit worker output in deterministic item order.
        let line = match TRACE_BUFFER.with(|b| {
            let mut stack = b.borrow_mut();
            match stack.last_mut() {
                Some(frame) => {
                    frame.push(line);
                    None
                }
                None => Some(line),
            }
        }) {
            Some(line) => line,
            None => return,
        };
        let mut guard = self.trace.lock().unwrap();
        if let Some(w) = guard.as_mut() {
            // A failed trace write must never abort the pipeline; drop the
            // sink instead so the run completes untraced.
            if writeln!(w, "{line}").and_then(|_| w.flush()).is_err() {
                *guard = None;
            }
        }
    }

    /// Emit a free-form event record to the trace sink (no-op when disabled
    /// or untraced). `fields` should be an object.
    pub fn trace_event(&self, name: &str, fields: Value) {
        if !self.enabled() || !self.tracing() {
            return;
        }
        let line = json!({
            "type": "event",
            "name": name,
            "t_ns": self.wall_ns(),
            "thread": current_thread_label(),
            "fields": fields,
        });
        self.emit(line);
    }

    /// Emit a counter-track record to the trace sink (no-op when disabled
    /// or untraced). `values` should be an object of numeric series; the
    /// Chrome exporter maps each record to a `"C"` event, so every distinct
    /// `name` becomes its own counter lane in Perfetto.
    pub fn trace_counter(&self, name: &str, values: Value) {
        if !self.enabled() || !self.tracing() {
            return;
        }
        let line = json!({
            "type": "counter",
            "name": name,
            "t_ns": self.wall_ns(),
            "thread": current_thread_label(),
            "values": values,
        });
        self.emit(line);
    }

    /// Route live snapshot records (`pka.snapshot/v1`) to a JSONL file at
    /// `path` (truncating it), with a cadence hint of one record per
    /// `every` stream records. The first line is a schema header.
    pub fn snapshot_to(&self, path: &Path, every: u64) -> io::Result<()> {
        let mut guard = self.snapshots.lock().unwrap();
        let sink = guard.get_or_insert_with(|| SnapshotSink::new(every));
        sink.attach(path)
    }

    /// Mirror snapshot records as a human-readable stderr ticker (usable
    /// with or without a JSONL sink).
    pub fn progress_ticker(&self, every: u64) {
        let mut guard = self.snapshots.lock().unwrap();
        let sink = guard.get_or_insert_with(|| SnapshotSink::new(every));
        sink.enable_progress();
    }

    /// The snapshot cadence in stream records, or 0 when no snapshot sink
    /// (nor progress ticker) is active. Pipelines read this once per run
    /// and compare `records % every` in the fold, keeping the disabled
    /// path at a single integer compare.
    pub fn snapshot_every(&self) -> u64 {
        self.snapshots.lock().unwrap().as_ref().map_or(0, SnapshotSink::every)
    }

    /// Emit one snapshot record. The sink stamps `type`/`seq` and a
    /// volatile `"timing"` sub-object (elapsed ns, kernels/s, plus
    /// `extra_timing` entries); everything else is the deterministic
    /// payload of `record`. No-op when disabled or without a sink.
    pub fn emit_snapshot(&self, record: &SnapshotRecord, extra_timing: Value) {
        if !self.enabled() {
            return;
        }
        let t_ns = self.wall_ns();
        let kps = {
            let mut guard = self.snapshots.lock().unwrap();
            match guard.as_mut() {
                Some(sink) => sink.emit(record, extra_timing, t_ns),
                None => return,
            }
        };
        // Mirror the snapshot into trace counter tracks so `pka trace
        // export` can render throughput and occupancy lanes next to the
        // span timeline. Counter records carry wall-clock-derived values;
        // parity tooling compares only `"event"` records, so these never
        // enter the determinism contract.
        if self.tracing() {
            self.trace_counter(
                "snapshot.kernels_per_sec",
                json!({ "kernels_per_sec": kps }),
            );
            if record.reservoir_cap > 0 {
                self.trace_counter(
                    "snapshot.reservoir",
                    json!({ "len": record.reservoir_len, "cap": record.reservoir_cap }),
                );
            }
        }
    }

    /// Flush and detach the snapshot sink, if any.
    pub fn close_snapshots(&self) -> io::Result<()> {
        if let Some(mut sink) = self.snapshots.lock().unwrap().take() {
            sink.close()?;
        }
        Ok(())
    }

    /// Start a span for `name`. Returns a guard that records the elapsed
    /// time into the stage aggregate (and the trace sink) when dropped.
    /// When the registry is disabled the guard is inert.
    pub fn span(&'static self, name: &'static str) -> Span {
        if !self.enabled() {
            return Span { inner: None };
        }
        let depth = SPAN_DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span {
            inner: Some(SpanInner {
                registry: self,
                stage: self.stage(name),
                start: Instant::now(),
                depth,
            }),
        }
    }

    /// Point-in-time copy of every metric, for the manifest and summaries.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            wall_ns: self.wall_ns(),
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(&k, c)| (k.to_string(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(&k, g)| (k.to_string(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(&k, h)| (k.to_string(), (h.edges.clone(), h.counts())))
                .collect(),
            stages: self
                .stages
                .lock()
                .unwrap()
                .iter()
                .map(|(&k, s)| (k.to_string(), StageSnapshot { calls: s.calls(), total_ns: s.total_ns() }))
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static SPAN_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };

    // Stack of active capture frames (one per nested `capture_trace` call)
    // diverting trace lines emitted on this thread.
    static TRACE_BUFFER: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
}

/// Trace lines captured on one thread by [`capture_trace`], ready to be
/// re-emitted in a deterministic order via [`emit_captured`].
#[derive(Debug, Default)]
pub struct CapturedTrace(Vec<Value>);

impl CapturedTrace {
    /// True when no lines were captured.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of captured lines.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Run `f`, diverting every trace line it emits on this thread (spans,
/// events) into a buffer instead of the sink. The executor wraps each
/// work item in a capture and re-emits the buffers in item order, making
/// trace-file line order independent of thread schedule.
///
/// Captures nest: a capture inside a capture forwards its lines to the
/// enclosing frame when re-emitted on the same thread.
pub fn capture_trace<R>(f: impl FnOnce() -> R) -> (R, CapturedTrace) {
    TRACE_BUFFER.with(|b| b.borrow_mut().push(Vec::new()));
    let result = f();
    let lines = TRACE_BUFFER.with(|b| b.borrow_mut().pop().unwrap_or_default());
    (result, CapturedTrace(lines))
}

/// Re-emit lines captured by [`capture_trace`] to the global trace sink
/// (or into this thread's enclosing capture frame, preserving order under
/// nested executors).
pub fn emit_captured(trace: CapturedTrace) {
    if trace.0.is_empty() {
        return;
    }
    let registry = global();
    for line in trace.0 {
        registry.emit(line);
    }
}

fn current_thread_label() -> String {
    let t = std::thread::current();
    match t.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", t.id()),
    }
}

/// RAII guard produced by [`span`]: on drop it adds the elapsed time to the
/// stage aggregate and, when a sink is attached, appends a JSONL record.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    registry: &'static Registry,
    stage: &'static Stage,
    start: Instant,
    depth: u32,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        inner.stage.record_ns(dur_ns);
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if inner.registry.tracing() {
            let line = json!({
                "type": "span",
                "name": inner.stage.name(),
                "t_ns": inner.registry.wall_ns().saturating_sub(dur_ns),
                "dur_ns": dur_ns,
                "depth": inner.depth,
                "thread": current_thread_label(),
            });
            inner.registry.emit(line);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot + manifest
// ---------------------------------------------------------------------------

/// Aggregated timing for one stage at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// Number of recorded intervals.
    pub calls: u64,
    /// Total accumulated nanoseconds.
    pub total_ns: u64,
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Nanoseconds since [`enable`].
    pub wall_ns: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram `(edges, counts)` by name; `counts` has one trailing
    /// overflow bucket.
    pub histograms: BTreeMap<String, (Vec<u64>, Vec<u64>)>,
    /// Stage timings by name.
    pub stages: BTreeMap<String, StageSnapshot>,
}

impl Snapshot {
    /// The snapshot as a JSON value (the manifest body minus config).
    pub fn to_value(&self) -> Value {
        let histograms: Map = self
            .histograms
            .iter()
            .map(|(k, (edges, counts))| {
                let mut section = match json!({ "edges": edges.clone(), "counts": counts.clone() })
                {
                    Value::Object(m) => m,
                    _ => unreachable!("histogram section serializes to an object"),
                };
                if counts.iter().any(|&c| c > 0) {
                    for (key, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
                        section.insert(
                            key.to_string(),
                            json!(histogram_percentile(edges, counts, p)),
                        );
                    }
                }
                (k.clone(), Value::Object(section))
            })
            .collect();
        let stages: Map = self
            .stages
            .iter()
            .map(|(k, s)| (k.clone(), json!({ "calls": s.calls, "total_ns": s.total_ns })))
            .collect();
        json!({
            "wall_ns": self.wall_ns,
            "counters": self.counters.clone(),
            "gauges": self.gauges.clone(),
            "histograms": Value::Object(histograms),
            "stages": Value::Object(stages),
        })
    }

    /// Human-readable per-stage and counter summary, for `-v` output.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let wall_ms = self.wall_ns as f64 / 1e6;
        lines.push(format!("wall time: {wall_ms:.1} ms"));
        for (name, s) in &self.stages {
            let ms = s.total_ns as f64 / 1e6;
            let pct = if self.wall_ns > 0 {
                100.0 * s.total_ns as f64 / self.wall_ns as f64
            } else {
                0.0
            };
            lines.push(format!(
                "stage {name}: {ms:.1} ms ({pct:.1}% of wall, {} calls)",
                s.calls
            ));
        }
        for (name, v) in &self.counters {
            lines.push(format!("counter {name}: {v}"));
        }
        for (name, v) in &self.gauges {
            lines.push(format!("gauge {name}: {v}"));
        }
        lines
    }
}

/// Build the manifest JSON for `snapshot` with caller-supplied `config`,
/// `seeds`, and `checksums` sections.
pub fn manifest_value(snapshot: &Snapshot, config: Value, seeds: Value, checksums: Value) -> Value {
    let mut body = match snapshot.to_value() {
        Value::Object(m) => m,
        _ => unreachable!("snapshot serializes to an object"),
    };
    body.insert("schema".to_string(), Value::String(MANIFEST_SCHEMA.to_string()));
    body.insert("config".to_string(), config);
    body.insert("seeds".to_string(), seeds);
    body.insert("checksums".to_string(), checksums);
    Value::Object(body)
}

/// [`manifest_value`] plus a caller-supplied `report` section for pipeline
/// outputs that belong next to the metrics (projection tables, stream
/// summaries). Pass [`Value::Null`] to omit nothing-to-report runs cleanly.
pub fn manifest_value_with_report(
    snapshot: &Snapshot,
    config: Value,
    seeds: Value,
    checksums: Value,
    report: Value,
) -> Value {
    let mut value = manifest_value(snapshot, config, seeds, checksums);
    if let Value::Object(body) = &mut value {
        body.insert("report".to_string(), report);
    }
    value
}

// ---------------------------------------------------------------------------
// Global registry facade
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry behind the free functions.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// True when collection is on. This is the disabled fast path: one relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    // `OnceLock::get` avoids the init closure in the common case; an
    // uninitialized registry is equivalent to a disabled one.
    match GLOBAL.get() {
        Some(r) => r.enabled(),
        None => false,
    }
}

/// Turn global collection on and restart the wall clock.
pub fn enable() {
    global().enable();
}

/// Turn global collection off.
pub fn disable() {
    global().disable();
}

/// Zero all global metric values; interned handles stay valid.
pub fn reset() {
    global().reset();
}

/// Intern a dynamically built metric name, returning a `&'static str`
/// accepted by [`counter`]/[`gauge`]/[`histogram`]/[`stage`].
///
/// Names are leaked exactly once and cached, so repeated calls with the
/// same string are a map lookup, and the leaked-memory footprint is bounded
/// by the number of *distinct* names (per-worker metrics are bounded by the
/// worker count). Static call sites should keep passing string literals;
/// this is only for names with runtime components, e.g.
/// `executor.worker_busy.w3`.
pub fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let names = NAMES.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut guard = names.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&interned) = guard.get(name) {
        return interned;
    }
    let interned: &'static str = Box::leak(name.to_string().into_boxed_str());
    guard.insert(name.to_string(), interned);
    interned
}

/// Intern (or fetch) a global counter.
pub fn counter(name: &'static str) -> &'static Counter {
    global().counter(name)
}

/// Intern (or fetch) a global gauge.
pub fn gauge(name: &'static str) -> &'static Gauge {
    global().gauge(name)
}

/// Intern (or fetch) a global histogram.
pub fn histogram(name: &'static str, edges: &[u64]) -> &'static Histogram {
    global().histogram(name, edges)
}

/// Intern (or fetch) a global stage aggregate.
pub fn stage(name: &'static str) -> &'static Stage {
    global().stage(name)
}

/// Start a global span (inert when disabled).
pub fn span(name: &'static str) -> Span {
    global().span(name)
}

/// Attach a global JSONL trace sink.
pub fn trace_to(path: &Path) -> io::Result<()> {
    global().trace_to(path)
}

/// Flush and detach the global trace sink.
pub fn close_trace() -> io::Result<()> {
    global().close_trace()
}

/// Emit a free-form event to the global trace sink.
pub fn trace_event(name: &str, fields: Value) {
    global().trace_event(name, fields)
}

/// Emit a counter-track record to the global trace sink.
pub fn trace_counter(name: &str, values: Value) {
    global().trace_counter(name, values)
}

/// [`trace_event`] for emitters without a JSON dependency: fields are
/// unsigned-integer key/value pairs.
pub fn trace_event_u64(name: &str, fields: &[(&str, u64)]) {
    let registry = global();
    if !registry.enabled() || !registry.tracing() {
        return;
    }
    let mut m = Map::new();
    for &(k, v) in fields {
        m.insert(k.to_string(), Value::from(v));
    }
    registry.trace_event(name, Value::Object(m));
}

/// Attach a global `pka.snapshot/v1` JSONL sink with cadence `every`.
pub fn snapshot_to(path: &Path, every: u64) -> io::Result<()> {
    global().snapshot_to(path, every)
}

/// Enable the global stderr progress ticker with cadence `every`.
pub fn progress_ticker(every: u64) {
    global().progress_ticker(every)
}

/// The global snapshot cadence (0 when snapshots are off).
pub fn snapshot_every() -> u64 {
    match GLOBAL.get() {
        Some(r) => r.snapshot_every(),
        None => 0,
    }
}

/// Emit one record to the global snapshot sink.
pub fn emit_snapshot(record: &SnapshotRecord, extra_timing: Value) {
    global().emit_snapshot(record, extra_timing)
}

/// Flush and detach the global snapshot sink.
pub fn close_snapshots() -> io::Result<()> {
    global().close_snapshots()
}

/// Snapshot every global metric.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Write the global run manifest to `path` with caller-supplied sections.
pub fn write_manifest(path: &Path, config: Value, seeds: Value, checksums: Value) -> io::Result<()> {
    let value = manifest_value(&snapshot(), config, seeds, checksums);
    write_manifest_value(path, &value)
}

/// [`write_manifest`] plus a `report` section (see
/// [`manifest_value_with_report`]).
pub fn write_manifest_with_report(
    path: &Path,
    config: Value,
    seeds: Value,
    checksums: Value,
    report: Value,
) -> io::Result<()> {
    let value = manifest_value_with_report(&snapshot(), config, seeds, checksums, report);
    write_manifest_value(path, &value)
}

fn write_manifest_value(path: &Path, value: &Value) -> io::Result<()> {
    let mut text = serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    text.push('\n');
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The global registry is process-wide state; tests that touch it hold
    // this lock so `cargo test`'s parallel runner cannot interleave them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::new();
        assert!(!r.enabled());
        // A private registry's metrics still update (gating is the caller's
        // job), but spans are inert when disabled.
        let c = r.counter("test.count");
        c.incr();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn counter_concurrent_increments_sum_exactly() {
        let r = Registry::new();
        let c = r.counter("test.concurrent");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let r = Registry::new();
        let h = r.histogram("test.hist", &[10, 100, 1000]);
        // One observation per interesting boundary.
        for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
            h.record(v);
        }
        // <=10: {0, 10}; <=100: {11, 100}; <=1000: {101, 1000};
        // overflow: {1001, MAX}.
        assert_eq!(h.counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.edges(), &[10, 100, 1000]);
    }

    #[test]
    fn histogram_single_edge() {
        let r = Registry::new();
        let h = r.histogram("test.hist1", &[5]);
        h.record(5);
        h.record(6);
        assert_eq!(h.counts(), vec![1, 1]);
    }

    #[test]
    fn interning_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("test.same");
        let b = r.counter("test.same");
        assert!(std::ptr::eq(a, b));
        a.add(3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn intern_caches_dynamic_names() {
        let w3 = intern(&format!("test.intern.w{}", 3));
        let again = intern("test.intern.w3");
        assert!(std::ptr::eq(w3, again));
        // The interned name is a valid handle key.
        let r = Registry::new();
        let s = r.stage(w3);
        s.record_ns(42);
        assert_eq!(r.stage(intern("test.intern.w3")).total_ns(), 42);
    }

    #[test]
    fn manifest_with_report_adds_the_section() {
        let r = Registry::new();
        r.counter("test.manifest").add(7);
        let snap = r.snapshot();
        let value = manifest_value_with_report(
            &snap,
            json!({ "cfg": true }),
            Value::Null,
            Value::Null,
            json!({ "records": 5 }),
        );
        assert_eq!(value["schema"].as_str(), Some(MANIFEST_SCHEMA));
        assert_eq!(value["report"]["records"].as_u64(), Some(5));
        assert_eq!(value["counters"]["test.manifest"].as_u64(), Some(7));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("test.reset");
        let g = r.gauge("test.reset_gauge");
        let h = r.histogram("test.reset_hist", &[1]);
        let s = r.stage("test.reset_stage");
        c.add(5);
        g.set(-2);
        h.record(0);
        s.record_ns(100);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.total(), 0);
        assert_eq!(s.calls(), 0);
        assert_eq!(s.total_ns(), 0);
        // Handle still valid and wired to the same interned entry.
        c.incr();
        assert_eq!(r.counter("test.reset").get(), 1);
    }

    #[test]
    fn span_nesting_aggregates_and_tracks_depth() {
        let _guard = lock();
        let r = global();
        r.reset();
        r.enable();
        {
            let _outer = r.span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = r.span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        r.disable();
        let snap = r.snapshot();
        let outer = &snap.stages["test.outer"];
        let inner = &snap.stages["test.inner"];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // The outer span contains the inner one.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(inner.total_ns >= 1_000_000);
    }

    #[test]
    fn disabled_global_span_is_inert() {
        let _guard = lock();
        let r = global();
        r.reset();
        r.disable();
        {
            let _s = r.span("test.disabled_span");
        }
        let snap = r.snapshot();
        assert_eq!(
            snap.stages.get("test.disabled_span").map(|s| s.calls).unwrap_or(0),
            0
        );
    }

    #[test]
    fn trace_sink_writes_schema_valid_jsonl() {
        let _guard = lock();
        let r = global();
        r.reset();
        let path = std::env::temp_dir().join("pka_obs_test_trace.jsonl");
        r.trace_to(&path).expect("open sink");
        r.enable();
        {
            let _s = r.span("test.traced");
        }
        r.trace_event("test.event", json!({ "k": 1 }));
        r.disable();
        r.close_trace().expect("close sink");
        let body = std::fs::read_to_string(&path).expect("read trace");
        let lines: Vec<Value> = body
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid json line"))
            .collect();
        std::fs::remove_file(&path).ok();
        assert!(lines.len() >= 3, "header + span + event");
        assert_eq!(lines[0]["schema"].as_str(), Some(TRACE_SCHEMA));
        assert!(lines
            .iter()
            .any(|l| l["type"].as_str() == Some("span") && l["name"].as_str() == Some("test.traced")));
        assert!(lines
            .iter()
            .any(|l| l["type"].as_str() == Some("event") && l["fields"]["k"].as_u64() == Some(1)));
    }

    #[test]
    fn captured_trace_lines_re_emit_in_caller_order() {
        let _guard = lock();
        let r = global();
        r.reset();
        let path = std::env::temp_dir().join("pka_obs_test_capture.jsonl");
        r.trace_to(&path).expect("open sink");
        r.enable();
        // Simulate the executor: workers capture out of order, the
        // coordinator re-emits in item order.
        let mut captures: Vec<Option<CapturedTrace>> = (0..3).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for i in [2usize, 0, 1] {
                handles.push((i, scope.spawn(move || {
                    capture_trace(|| {
                        trace_event("test.capture", json!({ "item": i }));
                    })
                    .1
                })));
            }
            for (i, h) in handles {
                captures[i] = Some(h.join().expect("worker"));
            }
        });
        for c in captures {
            emit_captured(c.expect("captured"));
        }
        r.disable();
        r.close_trace().expect("close");
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let items: Vec<u64> = body
            .lines()
            .filter_map(|l| serde_json::from_str::<Value>(l).ok())
            .filter(|v| v["name"].as_str() == Some("test.capture"))
            .map(|v| v["fields"]["item"].as_u64().unwrap())
            .collect();
        assert_eq!(items, vec![0, 1, 2]);
    }

    #[test]
    fn nested_captures_forward_to_enclosing_frame() {
        let _guard = lock();
        let r = global();
        r.reset();
        let path = std::env::temp_dir().join("pka_obs_test_capture_nested.jsonl");
        r.trace_to(&path).expect("open sink");
        r.enable();
        let ((), outer) = capture_trace(|| {
            trace_event("test.nested", json!({ "at": "before" }));
            let ((), inner) = capture_trace(|| {
                trace_event("test.nested", json!({ "at": "inner" }));
            });
            emit_captured(inner); // lands in the outer frame, not the sink
            trace_event("test.nested", json!({ "at": "after" }));
        });
        assert_eq!(outer.len(), 3);
        emit_captured(outer);
        r.disable();
        r.close_trace().expect("close");
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let ats: Vec<String> = body
            .lines()
            .filter_map(|l| serde_json::from_str::<Value>(l).ok())
            .filter(|v| v["name"].as_str() == Some("test.nested"))
            .map(|v| v["fields"]["at"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(ats, vec!["before", "inner", "after"]);
    }

    #[test]
    fn snapshot_sink_respects_enabled_gate_and_cadence() {
        let r = Registry::new();
        let path = std::env::temp_dir().join("pka_obs_test_registry_snap.jsonl");
        r.snapshot_to(&path, 500).expect("open sink");
        assert_eq!(r.snapshot_every(), 500);
        let rec = SnapshotRecord {
            phase: "tail".to_string(),
            records: 500,
            ..SnapshotRecord::default()
        };
        r.emit_snapshot(&rec, Value::Null); // disabled: dropped
        r.enable();
        r.emit_snapshot(&rec, Value::Null);
        r.close_snapshots().expect("close");
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(body.lines().count(), 2, "header + one record: {body}");
        let rec_line: Value = serde_json::from_str(body.lines().nth(1).unwrap()).unwrap();
        assert_eq!(rec_line["type"].as_str(), Some("snapshot"));
        assert_eq!(rec_line["seq"].as_u64(), Some(0));
        assert!(rec_line["timing"]["t_ns"].as_u64().is_some());
    }

    #[test]
    fn manifest_value_has_schema_and_sections() {
        let r = Registry::new();
        r.counter("test.manifest").add(7);
        r.stage("test.stage").record_ns(42);
        let v = manifest_value(
            &r.snapshot(),
            json!({ "cmd": "select" }),
            json!({ "pks": 1 }),
            json!({ "out": 99 }),
        );
        assert_eq!(v["schema"].as_str(), Some(MANIFEST_SCHEMA));
        assert_eq!(v["config"]["cmd"].as_str(), Some("select"));
        assert_eq!(v["seeds"]["pks"].as_u64(), Some(1));
        assert_eq!(v["checksums"]["out"].as_u64(), Some(99));
        assert_eq!(v["counters"]["test.manifest"].as_u64(), Some(7));
        assert_eq!(v["stages"]["test.stage"]["total_ns"].as_u64(), Some(42));
        assert_eq!(v["stages"]["test.stage"]["calls"].as_u64(), Some(1));
    }

    #[test]
    fn histogram_percentiles_interpolate_between_bucket_edges() {
        let r = Registry::new();
        let h = r.histogram("test.pctl", &[10, 100, 1000]);
        for _ in 0..90 {
            h.record(5); // bucket 0 -> upper edge 10
        }
        for _ in 0..9 {
            h.record(50); // bucket 1 -> upper edge 100
        }
        h.record(5_000); // overflow bucket -> last edge 1000
        let v = r.snapshot().to_value();
        let section = &v["histograms"]["test.pctl"];
        // Pre-existing fields stay byte-identical alongside the new keys.
        assert_eq!(section["edges"][0].as_u64(), Some(10));
        assert_eq!(section["counts"][0].as_u64(), Some(90));
        assert_eq!(section["counts"][3].as_u64(), Some(1));
        // 100 samples: rank(p50) = 49.5 lands inside bucket 0; rank(p95) =
        // 94.05 inside bucket 1; rank(p99) = 98.01 straddles bucket 1 and
        // the overflow bucket, interpolating 100 -> 1000 at 1%.
        assert_eq!(section["p50"].as_f64(), Some(10.0));
        assert_eq!(section["p95"].as_f64(), Some(100.0));
        let p99 = section["p99"].as_f64().expect("p99 present");
        assert!((p99 - 109.0).abs() < 1e-9, "p99 = {p99}");

        // All-zero histograms omit the percentile keys entirely.
        let empty = Registry::new();
        empty.histogram("test.pctl_empty", &[10]);
        let v = empty.snapshot().to_value();
        let section = &v["histograms"]["test.pctl_empty"];
        assert!(section.get("p50").is_none(), "{section}");
        assert!(section["counts"].as_array().is_some());
    }
}
