use pka_core::Selection;
use pka_obs::SnapshotRecord;
use pka_stats::OnlineStats;
use serde_json::{Map, Value};

use crate::drift::DriftTracker;
use crate::json_text::JsonText;
use crate::normalize::StreamingNormalizer;
use crate::StreamError;

/// Schema identifier stamped into every checkpoint.
pub const CHECKPOINT_SCHEMA: &str = "pka.stream_checkpoint/v1";

/// One item held in the reservoir sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservoirItem {
    /// Stream position (0-based record index) the item was drawn at.
    pub pos: u64,
    /// Group the record was classified into when it was drawn.
    pub label: usize,
    /// Normalised feature vector at draw time.
    pub features: Vec<f64>,
}

/// Serialised reservoir state.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservoirState {
    /// Maximum number of items retained.
    pub cap: usize,
    /// Tail records offered to the reservoir so far.
    pub seen: u64,
    /// Retained items, in slot order.
    pub items: Vec<ReservoirItem>,
}

/// A resumable snapshot of the online pipeline (`pka.stream_checkpoint/v1`).
///
/// Everything the tail pass accumulates is here, and [`StreamPks`]
/// folds its tail into this very struct: a checkpoint is the live state at
/// a record boundary. The detailed prefix is *not* here — resume re-derives
/// it deterministically from the (restartable) source, which keeps
/// checkpoints `O(K·d + reservoir)` like the pipeline itself. Every `f64`
/// is serialised as its IEEE-754 bit pattern (a JSON integer) alongside any
/// human-readable copy, so checkpoint → resume → checkpoint reproduces
/// files byte-for-byte. [`to_json`](Self::to_json) writes the text directly
/// and emits every object's keys in sorted byte order, the compact
/// rendering of the equivalent `Value` tree; the property
/// `to_json_equals_the_value_tree_rendering` pins that.
///
/// [`StreamPks`]: crate::StreamPks
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Monotonic checkpoint counter within the run (first emitted is 1).
    pub seq: u64,
    /// Records consumed when the snapshot was taken (prefix + tail).
    pub records: u64,
    /// Detailed-prefix length *j* the run was started with.
    pub prefix: u64,
    /// `KernelSource::name()` of the stream being processed.
    pub source: String,
    /// Group count selected by batch PKS over the prefix.
    pub selected_k: usize,
    /// The full `pka_core` selection (groups, labels, reference cycles,
    /// classified tail counts).
    pub selection: Selection,
    /// Projected total cycles for the whole stream so far.
    pub projected_cycles: u64,
    /// The streaming normalizer, serialised as per-feature Welford
    /// accumulators.
    pub normalizer: StreamingNormalizer,
    /// Mini-batch K-Means centroids in normalised feature space.
    pub centroids: Vec<Vec<f64>>,
    /// Per-centroid assignment counts (the mini-batch learning rates).
    pub centroid_counts: Vec<u64>,
    /// Per-group drift trackers.
    pub drift: Vec<DriftTracker>,
    /// Reservoir sample used for bounded re-clustering.
    pub reservoir: ReservoirState,
    /// Drift firings so far.
    pub drifts: u64,
    /// Bounded re-cluster passes so far.
    pub reclusters: u64,
    /// High-water mark of simultaneously buffered *tail* records — the
    /// bounded-memory witness (must stay ≤ reservoir cap + batch size; the
    /// detailed prefix is the only larger buffer and is freed before the
    /// tail starts).
    pub max_buffered: u64,
    /// Echo of the `StreamConfig` the run was started with.
    pub config: Value,
}

/// The checkpoint's nested objects, in sorted key order.
impl JsonText {
    fn stats(&mut self, s: &OnlineStats) {
        self.raw("{\"count\":");
        self.u64(s.count());
        self.raw(",\"m2_bits\":");
        self.bits(s.m2());
        self.raw(",\"max_bits\":");
        self.bits(s.max());
        self.raw(",\"mean_bits\":");
        self.bits(s.mean());
        self.raw(",\"min_bits\":");
        self.bits(s.min());
        self.raw("}");
    }

    fn drift(&mut self, t: &DriftTracker) {
        let (calibration, sigma, alpha, baseline, threshold, ewma) = t.raw_state();
        self.raw("{\"alpha_bits\":");
        self.bits(alpha);
        self.raw(",\"baseline\":");
        self.stats(baseline);
        self.raw(",\"calibration\":");
        self.u64(calibration);
        self.raw(",\"ewma_bits\":");
        self.bits(ewma);
        self.raw(",\"sigma_bits\":");
        self.bits(sigma);
        self.raw(",\"threshold_bits\":");
        match threshold {
            Some(x) => self.bits(x),
            None => self.raw("null"),
        }
        self.raw("}");
    }

    fn item(&mut self, item: &ReservoirItem) {
        self.raw("{\"features_bits\":");
        self.array(&item.features, |w, &x| w.bits(x));
        self.raw(",\"label\":");
        self.u64(item.label as u64);
        self.raw(",\"pos\":");
        self.u64(item.pos);
        self.raw("}");
    }
}

/// Field-access helpers that turn a missing/mistyped field into a
/// [`StreamError::Checkpoint`] naming the JSON path.
struct Reader<'a> {
    obj: &'a Map,
    path: &'a str,
}

impl<'a> Reader<'a> {
    fn new(value: &'a Value, path: &'a str) -> Result<Self, StreamError> {
        match value {
            Value::Object(obj) => Ok(Self { obj, path }),
            _ => Err(corrupt(format!("`{path}` is not an object"))),
        }
    }

    fn field(&self, key: &str) -> Result<&'a Value, StreamError> {
        self.obj
            .get(key)
            .ok_or_else(|| corrupt(format!("missing `{}.{key}`", self.path)))
    }

    fn u64(&self, key: &str) -> Result<u64, StreamError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| corrupt(format!("`{}.{key}` is not a u64", self.path)))
    }

    fn f64_bits(&self, key: &str) -> Result<f64, StreamError> {
        Ok(f64::from_bits(self.u64(key)?))
    }

    fn str(&self, key: &str) -> Result<&'a str, StreamError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| corrupt(format!("`{}.{key}` is not a string", self.path)))
    }

    fn array(&self, key: &str) -> Result<&'a [Value], StreamError> {
        match self.field(key)? {
            Value::Array(items) => Ok(items),
            _ => Err(corrupt(format!("`{}.{key}` is not an array", self.path))),
        }
    }
}

fn corrupt(message: String) -> StreamError {
    StreamError::Checkpoint { message }
}

fn stats_from_value(value: &Value, path: &str) -> Result<OnlineStats, StreamError> {
    let r = Reader::new(value, path)?;
    Ok(OnlineStats::from_raw(
        r.u64("count")?,
        r.f64_bits("mean_bits")?,
        r.f64_bits("m2_bits")?,
        r.f64_bits("min_bits")?,
        r.f64_bits("max_bits")?,
    ))
}

fn drift_from_value(value: &Value, path: &str) -> Result<DriftTracker, StreamError> {
    let r = Reader::new(value, path)?;
    let threshold = match r.field("threshold_bits")? {
        Value::Null => None,
        v => Some(f64::from_bits(v.as_u64().ok_or_else(|| {
            corrupt(format!("`{path}.threshold_bits` is not a u64"))
        })?)),
    };
    Ok(DriftTracker::from_raw(
        r.u64("calibration")?,
        r.f64_bits("sigma_bits")?,
        r.f64_bits("alpha_bits")?,
        stats_from_value(r.field("baseline")?, "drift.baseline")?,
        threshold,
        r.f64_bits("ewma_bits")?,
    ))
}

fn f64_vec_from_bits(value: &Value, path: &str) -> Result<Vec<f64>, StreamError> {
    let Value::Array(items) = value else {
        return Err(corrupt(format!("`{path}` is not an array")));
    };
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .map(f64::from_bits)
                .ok_or_else(|| corrupt(format!("`{path}` holds a non-u64 element")))
        })
        .collect()
}

impl Checkpoint {
    /// Canonical compact JSON rendering: one line, deterministic byte-wise.
    ///
    /// The text is written straight into one pre-sized buffer, with no
    /// intermediate [`Value`] tree. Object keys come out in sorted byte
    /// order at every level (`centroid_counts`, `centroids`, `config`, …,
    /// `source`), the order a `BTreeMap`-backed `Value` renders. The
    /// `selection` is serialised here and nowhere else; it and `config`
    /// go through the `Value` renderer, `source` through its string
    /// escaper.
    pub fn to_json(&self) -> String {
        let selection = serde_json::json!(self.selection).to_string();
        let config = self.config.to_string();
        let bound = self.json_len_bound(selection.len() + config.len());
        let mut w = JsonText::with_capacity(bound);
        w.raw("{\"centroid_counts\":");
        w.array(&self.centroid_counts, |w, &c| w.u64(c));
        w.raw(",\"centroids\":");
        w.array(&self.centroids, |w, c| w.array(c, |w, &x| w.bits(x)));
        w.raw(",\"config\":");
        w.raw(&config);
        w.raw(",\"drift\":");
        w.array(&self.drift, JsonText::drift);
        w.raw(",\"drifts\":");
        w.u64(self.drifts);
        w.raw(",\"max_buffered\":");
        w.u64(self.max_buffered);
        w.raw(",\"normalizer\":");
        w.array(&self.normalizer.stats(), JsonText::stats);
        w.raw(",\"prefix\":");
        w.u64(self.prefix);
        w.raw(",\"projected_cycles\":");
        w.u64(self.projected_cycles);
        w.raw(",\"reclusters\":");
        w.u64(self.reclusters);
        w.raw(",\"records\":");
        w.u64(self.records);
        w.raw(",\"reservoir\":{\"cap\":");
        w.u64(self.reservoir.cap as u64);
        w.raw(",\"items\":");
        w.array(&self.reservoir.items, JsonText::item);
        w.raw(",\"seen\":");
        w.u64(self.reservoir.seen);
        w.raw("},\"schema\":");
        w.string(CHECKPOINT_SCHEMA);
        w.raw(",\"selected_k\":");
        w.u64(self.selected_k as u64);
        w.raw(",\"selection\":");
        w.raw(&selection);
        w.raw(",\"seq\":");
        w.u64(self.seq);
        w.raw(",\"source\":");
        w.string(&self.source);
        w.raw("}");
        w.finish()
    }

    /// An upper bound on the length of [`to_json`](Self::to_json)'s text
    /// plus the trailing newline `write_to` and the server append, given
    /// the rendered length of the embedded `selection` and `config`: every
    /// number is counted at 20 digits and a separator, every escaped
    /// `source` byte at six.
    fn json_len_bound(&self, embedded: usize) -> usize {
        const NUMBER: usize = 21;
        const KEYS: usize = 512;
        const STATS: usize = 64 + 5 * NUMBER;
        const DRIFT: usize = 96 + 5 * NUMBER + STATS;
        const ITEM: usize = 40 + 2 * NUMBER;
        // Each vector's brackets are counted as two more numbers.
        let floats: usize = self.centroids.iter().map(|c| c.len() + 2).sum::<usize>()
            + self
                .reservoir
                .items
                .iter()
                .map(|i| i.features.len() + 2)
                .sum::<usize>();
        KEYS + embedded
            + 6 * self.source.len()
            + NUMBER * (floats + self.centroid_counts.len())
            + STATS * self.normalizer.dims()
            + DRIFT * self.drift.len()
            + ITEM * self.reservoir.items.len()
    }

    /// The `pka.snapshot/v1` progress record of this state, for `phase`
    /// with `checkpoints` taken so far.
    pub fn snapshot_record(&self, phase: &str, checkpoints: u64) -> SnapshotRecord {
        SnapshotRecord {
            phase: phase.to_string(),
            records: self.records,
            selected_k: self.selected_k as i64,
            group_counts: self.selection.groups().iter().map(|g| g.count()).collect(),
            reservoir_len: self.reservoir.items.len() as u64,
            reservoir_cap: self.reservoir.cap as u64,
            drifts: self.drifts,
            reclusters: self.reclusters,
            checkpoints,
            max_buffered: self.max_buffered,
        }
    }

    /// Parses a checkpoint from its JSON value, validating the schema tag
    /// and internal consistency (per-group array lengths, feature
    /// dimensionality), then the embedded selection.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Checkpoint`] naming the offending field, or
    /// `checkpoint selection does not parse: ...`.
    pub fn from_value(value: &Value) -> Result<Self, StreamError> {
        let r = Reader::new(value, "checkpoint")?;
        let schema = r.str("schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(corrupt(format!(
                "schema mismatch: got `{schema}`, expected `{CHECKPOINT_SCHEMA}`"
            )));
        }
        if r.obj.contains_key("topology") {
            return Err(corrupt(
                "sharded checkpoints (with a `topology` section) are no longer supported; \
                 re-run the stream from the start"
                    .into(),
            ));
        }
        let selected_k = r.u64("selected_k")? as usize;
        let stats = r
            .array("normalizer")?
            .iter()
            .map(|v| stats_from_value(v, "normalizer[]"))
            .collect::<Result<Vec<_>, _>>()?;
        // One normalizer folds every row into every feature, so a feature
        // with another count was not written by one.
        if let Some(first) = stats.first() {
            let odd = stats.iter().position(|s| s.count() != first.count());
            if let Some(i) = odd {
                return Err(corrupt(format!(
                    "`normalizer` per-feature counts disagree: feature 0 has {}, feature {i} has {}",
                    first.count(),
                    stats[i].count()
                )));
            }
        }
        let normalizer = StreamingNormalizer::from_stats(stats);
        let centroids = r
            .array("centroids")?
            .iter()
            .map(|v| f64_vec_from_bits(v, "centroids[]"))
            .collect::<Result<Vec<_>, _>>()?;
        let centroid_counts = r
            .array("centroid_counts")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| corrupt("`centroid_counts[]` is not a u64".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let drift = r
            .array("drift")?
            .iter()
            .map(|v| drift_from_value(v, "drift[]"))
            .collect::<Result<Vec<_>, _>>()?;
        if centroids.len() != selected_k
            || centroid_counts.len() != selected_k
            || drift.len() != selected_k
        {
            return Err(corrupt(format!(
                "per-group arrays disagree with selected_k={selected_k}: \
                 centroids={}, counts={}, drift={}",
                centroids.len(),
                centroid_counts.len(),
                drift.len()
            )));
        }
        let dims = normalizer.dims();
        if centroids.iter().any(|c| c.len() != dims) {
            return Err(corrupt(format!(
                "centroid dimensionality disagrees with normalizer dims={dims}"
            )));
        }
        let rr = Reader::new(r.field("reservoir")?, "reservoir")?;
        let items = rr
            .array("items")?
            .iter()
            .map(|v| {
                let ir = Reader::new(v, "reservoir.items[]")?;
                let features = f64_vec_from_bits(
                    ir.field("features_bits")?,
                    "reservoir.items[].features_bits",
                )?;
                if features.len() != dims {
                    return Err(corrupt(format!(
                        "reservoir item dimensionality disagrees with dims={dims}"
                    )));
                }
                Ok(ReservoirItem {
                    pos: ir.u64("pos")?,
                    label: ir.u64("label")? as usize,
                    features,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let reservoir = ReservoirState {
            cap: rr.u64("cap")? as usize,
            seen: rr.u64("seen")?,
            items,
        };
        if reservoir.items.len() > reservoir.cap {
            return Err(corrupt(format!(
                "reservoir holds {} items over its cap {}",
                reservoir.items.len(),
                reservoir.cap
            )));
        }
        Ok(Self {
            seq: r.u64("seq")?,
            records: r.u64("records")?,
            prefix: r.u64("prefix")?,
            source: r.str("source")?.to_string(),
            selected_k,
            projected_cycles: r.u64("projected_cycles")?,
            normalizer,
            centroids,
            centroid_counts,
            drift,
            reservoir,
            drifts: r.u64("drifts")?,
            reclusters: r.u64("reclusters")?,
            max_buffered: r.u64("max_buffered")?,
            config: r.field("config")?.clone(),
            selection: serde_json::from_value(r.field("selection")?.clone())
                .map_err(|e| corrupt(format!("checkpoint selection does not parse: {e}")))?,
        })
    }

    /// Parses a checkpoint from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Checkpoint`] for invalid JSON or an invalid
    /// checkpoint object.
    pub fn from_json(text: &str) -> Result<Self, StreamError> {
        let value: Value = serde_json::from_str(text.trim())
            .map_err(|e| corrupt(format!("invalid checkpoint json: {e}")))?;
        Self::from_value(&value)
    }

    /// The checkpoint file's text: the canonical rendering plus a trailing
    /// newline.
    pub fn to_json_line(&self) -> String {
        let mut text = self.to_json();
        text.push('\n');
        text
    }

    /// Writes [`to_json_line`](Self::to_json_line) to `path` atomically —
    /// a reader (or a crash) can observe the previous file or the new one,
    /// never a torn mix, see [`write_atomic`] — and returns the text written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, path: &std::path::Path) -> Result<String, StreamError> {
        let text = self.to_json_line();
        write_atomic(path, &text)?;
        Ok(text)
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// A [`StreamError::CheckpointFile`] when the file cannot be read or is
    /// not JSON (`read <path>: ...`, `parse <path>: ...`), and what
    /// [`from_value`](Self::from_value) refuses.
    pub fn read_from(path: &std::path::Path) -> Result<Self, StreamError> {
        let failed = |action, message: String| StreamError::CheckpointFile {
            action,
            path: path.display().to_string(),
            message,
        };
        let text = std::fs::read_to_string(path).map_err(|e| failed("read", e.to_string()))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| failed("parse", e.to_string()))?;
        Self::from_value(&value)
    }
}

/// Writes `contents` through a unique temp file in `path`'s directory,
/// then renames it over `path`. The rename is atomic on POSIX, so a
/// checkpoint file on disk is always either the previous complete
/// checkpoint or the new complete one — a process killed mid-write (the
/// server's cancel-on-teardown path) can never leave a torn
/// `pka.stream_checkpoint/v1` behind, only an orphaned `.tmp` that the
/// next successful write of the same path does not disturb.
fn write_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let file_name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".to_string());
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}.{n}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthetic_workload, StreamConfig, StreamPks, WorkloadSource};
    use pka_gpu::GpuConfig;
    use pka_profile::Profiler;
    use pka_stats::hash::UnitStream;
    use proptest::prelude::*;

    fn bits(x: f64) -> Value {
        Value::from(x.to_bits())
    }

    fn stats_to_value(s: &OnlineStats) -> Value {
        let mut m = Map::new();
        m.insert("count".into(), Value::from(s.count()));
        m.insert("mean_bits".into(), bits(s.mean()));
        m.insert("m2_bits".into(), bits(s.m2()));
        m.insert("min_bits".into(), bits(s.min()));
        m.insert("max_bits".into(), bits(s.max()));
        Value::Object(m)
    }

    fn drift_to_value(t: &DriftTracker) -> Value {
        let (calibration, sigma, alpha, baseline, threshold, ewma) = t.raw_state();
        let mut m = Map::new();
        m.insert("calibration".into(), Value::from(calibration));
        m.insert("sigma_bits".into(), bits(sigma));
        m.insert("alpha_bits".into(), bits(alpha));
        m.insert("baseline".into(), stats_to_value(baseline));
        m.insert("threshold_bits".into(), threshold.map_or(Value::Null, bits));
        m.insert("ewma_bits".into(), bits(ewma));
        Value::Object(m)
    }

    /// The checkpoint as a `Value` tree, built field by field into
    /// B-tree maps: the reference oracle whose compact rendering
    /// [`Checkpoint::to_json`] must reproduce byte for byte.
    fn to_value_tree(cp: &Checkpoint) -> Value {
        let mut m = Map::new();
        m.insert("schema".into(), Value::from(CHECKPOINT_SCHEMA));
        m.insert("seq".into(), Value::from(cp.seq));
        m.insert("records".into(), Value::from(cp.records));
        m.insert("prefix".into(), Value::from(cp.prefix));
        m.insert("source".into(), Value::from(cp.source.clone()));
        m.insert("selected_k".into(), Value::from(cp.selected_k as u64));
        m.insert(
            "selection".into(),
            serde_json::to_value(&cp.selection).unwrap(),
        );
        m.insert("projected_cycles".into(), Value::from(cp.projected_cycles));
        m.insert(
            "normalizer".into(),
            Value::Array(cp.normalizer.stats().iter().map(stats_to_value).collect()),
        );
        m.insert(
            "centroids".into(),
            Value::Array(
                cp.centroids
                    .iter()
                    .map(|c| Value::Array(c.iter().map(|&x| bits(x)).collect()))
                    .collect(),
            ),
        );
        m.insert(
            "centroid_counts".into(),
            Value::Array(cp.centroid_counts.iter().map(|&c| Value::from(c)).collect()),
        );
        m.insert(
            "drift".into(),
            Value::Array(cp.drift.iter().map(drift_to_value).collect()),
        );
        let mut reservoir = Map::new();
        reservoir.insert("cap".into(), Value::from(cp.reservoir.cap as u64));
        reservoir.insert("seen".into(), Value::from(cp.reservoir.seen));
        reservoir.insert(
            "items".into(),
            Value::Array(
                cp.reservoir
                    .items
                    .iter()
                    .map(|item| {
                        let mut im = Map::new();
                        im.insert("pos".into(), Value::from(item.pos));
                        im.insert("label".into(), Value::from(item.label as u64));
                        im.insert(
                            "features_bits".into(),
                            Value::Array(item.features.iter().map(|&x| bits(x)).collect()),
                        );
                        Value::Object(im)
                    })
                    .collect(),
            ),
        );
        m.insert("reservoir".into(), Value::Object(reservoir));
        m.insert("drifts".into(), Value::from(cp.drifts));
        m.insert("reclusters".into(), Value::from(cp.reclusters));
        m.insert("max_buffered".into(), Value::from(cp.max_buffered));
        m.insert("config".into(), cp.config.clone());
        Value::Object(m)
    }

    /// The sample checkpoint's parsed JSON, for tests that damage it.
    fn sample_value() -> Value {
        serde_json::from_str(&sample().to_json()).unwrap()
    }

    fn sample() -> Checkpoint {
        let mut normalizer = StreamingNormalizer::new(2);
        for row in [[0.25, 1.0], [1.5, 2.0], [-3.0, 0.5], [0.1, 0.1]] {
            normalizer.observe(&row);
        }
        let group = |representative: u64, count: u64| {
            serde_json::json!({
                "representative": representative,
                "representative_cycles": 2_924,
                "count": count,
                "profiled_count": 3,
                "member_cycles": 9_000,
            })
        };
        let selection = serde_json::json!({
            "groups": [group(0, 7), group(4, 5)],
            "labels": [0, 0, 0, 1, 1, 1],
            "reference_cycles": 18_000,
            "member_deviation_pct": 1.25,
        });
        let mut drift = DriftTracker::new(4, 3.0, 0.05);
        for d in [1.0, 1.1, 0.9, 1.05, 1.2, 0.95] {
            drift.observe(d);
        }
        Checkpoint {
            seq: 3,
            records: 12_000,
            prefix: 600,
            source: "workload:gramschmidt".to_string(),
            selected_k: 2,
            selection: serde_json::from_value(selection).unwrap(),
            projected_cycles: 1_234_567_890,
            normalizer,
            centroids: vec![vec![0.5, -1.25], vec![2.0, 0.0]],
            centroid_counts: vec![7, 5],
            drift: vec![drift.clone(), drift],
            reservoir: ReservoirState {
                cap: 4,
                seen: 11,
                items: vec![ReservoirItem {
                    pos: 601,
                    label: 1,
                    features: vec![0.125, -0.5],
                }],
            },
            drifts: 1,
            reclusters: 1,
            max_buffered: 600,
            config: serde_json::json!({"batch": 2048}),
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let cp = sample();
        let text = cp.to_json();
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.to_json(), text, "renders must be byte-identical");
    }

    #[test]
    fn schema_tag_is_enforced() {
        let mut v = sample_value();
        if let Value::Object(m) = &mut v {
            m.insert("schema".into(), Value::from("pka.stream_checkpoint/v0"));
        }
        match Checkpoint::from_value(&v) {
            Err(StreamError::Checkpoint { message }) => {
                assert!(message.contains("schema mismatch"), "{message}");
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_group_arrays_are_rejected() {
        let mut cp = sample();
        cp.centroid_counts.push(9);
        match Checkpoint::from_value(&serde_json::from_str(&cp.to_json()).unwrap()) {
            Err(StreamError::Checkpoint { message }) => {
                assert!(message.contains("selected_k"), "{message}");
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn normalizer_counts_that_disagree_are_rejected() {
        let mut v = sample_value();
        if let Value::Object(m) = &mut v {
            if let Some(Value::Array(features)) = m.get_mut("normalizer") {
                if let Some(Value::Object(second)) = features.get_mut(1) {
                    second.insert("count".into(), Value::from(5u64));
                }
            }
        }
        match Checkpoint::from_value(&v) {
            Err(StreamError::Checkpoint { message }) => {
                assert!(message.contains("`normalizer`"), "{message}");
                assert!(message.contains("feature 1 has 5"), "{message}");
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn missing_field_names_the_path() {
        let mut v = sample_value();
        if let Value::Object(m) = &mut v {
            m.remove("max_buffered");
        }
        match Checkpoint::from_value(&v) {
            Err(StreamError::Checkpoint { message }) => {
                assert!(message.contains("max_buffered"), "{message}");
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn sharded_layout_is_refused_with_a_typed_error() {
        let mut v = sample_value();
        if let Value::Object(m) = &mut v {
            m.insert(
                "topology".into(),
                serde_json::json!({"shards": 2, "map_hash": 7}),
            );
        }
        match Checkpoint::from_value(&v) {
            Err(StreamError::Checkpoint { message }) => {
                assert!(message.contains("no longer supported"), "{message}");
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pka_stream_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let cp = sample();
        cp.write_to(&path).unwrap();
        let back = Checkpoint::read_from(&path).unwrap();
        assert_eq!(back, cp);
        std::fs::remove_file(&path).ok();
    }

    /// The kill-mid-write guarantee: with a writer rewriting the same
    /// checkpoint path as fast as it can, a concurrent reader must only
    /// ever observe complete, parseable checkpoints — the temp-file +
    /// rename path means there is no moment at which the file is truncated
    /// or half-written. (`fs::write` in place fails this immediately: the
    /// reader catches the truncate-then-write window.)
    #[test]
    fn concurrent_reads_never_observe_torn_checkpoints() {
        let dir = std::env::temp_dir().join(format!(
            "pka_stream_atomic_write_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        sample().write_to(&path).unwrap();

        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let path = path.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut cp = sample();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    cp.seq += 1;
                    cp.write_to(&path).unwrap();
                }
            })
        };
        for _ in 0..400 {
            let cp = Checkpoint::read_from(&path).expect("read mid-rewrite must parse");
            assert_eq!(cp.source, sample().source);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An `f64` whose bit pattern is an edge case of the decimal writer or
    /// of IEEE-754 (NaNs, ±inf, −0.0, subnormals, all ones) or random.
    fn arb_f64(rng: &mut UnitStream) -> f64 {
        const EDGES: [u64; 10] = [
            0,
            1,                     // smallest subnormal
            0x000F_FFFF_FFFF_FFFF, // largest subnormal
            0x8000_0000_0000_0000, // -0.0
            0x7FF0_0000_0000_0000, // +inf
            0xFFF0_0000_0000_0000, // -inf
            0x7FF8_0000_0000_0000, // quiet NaN
            0x7FF0_0000_0000_0001, // signalling NaN
            u64::MAX,              // negative NaN, 20 digits
            9_999_999_999_999_999_999,
        ];
        f64::from_bits(match rng.next_index(3) {
            0 => EDGES[rng.next_index(EDGES.len())],
            _ => rng.next_u64(),
        })
    }

    /// A `u64` at a digit-count boundary or random.
    fn arb_u64(rng: &mut UnitStream) -> u64 {
        const EDGES: [u64; 8] = [0, 9, 10, 99, 100, 999, 1_000, u64::MAX];
        match rng.next_index(3) {
            0 => EDGES[rng.next_index(EDGES.len())],
            1 => rng.next_u64() % 10_000,
            _ => rng.next_u64(),
        }
    }

    /// An accumulator that has seen `count` values.
    fn arb_stats(rng: &mut UnitStream, count: u64) -> OnlineStats {
        OnlineStats::from_raw(
            count,
            arb_f64(rng),
            arb_f64(rng),
            arb_f64(rng),
            arb_f64(rng),
        )
    }

    /// A small `Value` (up to two levels deep) holding floats, escapes and
    /// every JSON type, standing in for the embedded config.
    fn arb_value(rng: &mut UnitStream, depth: usize) -> Value {
        match rng.next_index(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::from(rng.next_index(2) == 0),
            2 => serde_json::json!(arb_f64(rng)),
            3 => Value::from(arb_u64(rng)),
            4 => Value::from(arb_source(rng)),
            5 => Value::Array(
                (0..rng.next_index(4))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.next_index(4))
                    .map(|_| (arb_source(rng), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// A string mixing quotes, backslashes, control characters and
    /// non-ASCII text.
    fn arb_source(rng: &mut UnitStream) -> String {
        const PIECES: [&str; 14] = [
            "workload:",
            "jsonl:",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{8}",
            "\u{c}",
            "\u{1f}",
            "\u{7f}",
            "é日本",
            "😀\u{2028}",
        ];
        (0..rng.next_index(6))
            .map(|_| PIECES[rng.next_index(PIECES.len())])
            .collect()
    }

    /// The selections of real [`StreamPks`] runs over `synthetic:N`
    /// streams of three lengths and prefixes, as JSON; run once.
    fn real_selections() -> &'static [Value] {
        static SELECTIONS: std::sync::OnceLock<Vec<Value>> = std::sync::OnceLock::new();
        SELECTIONS.get_or_init(|| {
            [(300, 100), (1_200, 250), (2_500, 600)]
                .into_iter()
                .map(|(n, prefix)| {
                    let mut source = WorkloadSource::new(
                        synthetic_workload(n),
                        Profiler::new(GpuConfig::v100()),
                    );
                    let config = StreamConfig::default()
                        .with_prefix(prefix)
                        .with_batch(64)
                        .with_reservoir(64);
                    let outcome = StreamPks::new(config).run(&mut source, |_| Ok(())).unwrap();
                    serde_json::to_value(&outcome.selection).unwrap()
                })
                .collect()
        })
    }

    /// One of the real selections with every group's member count redrawn.
    fn arb_selection(rng: &mut UnitStream) -> Selection {
        let selections = real_selections();
        let mut selection = selections[rng.next_index(selections.len())].clone();
        if let Value::Object(m) = &mut selection {
            if let Some(Value::Array(groups)) = m.get_mut("groups") {
                for group in groups {
                    if let Value::Object(g) = group {
                        g.insert("count".into(), Value::from(arb_u64(rng)));
                    }
                }
            }
        }
        serde_json::from_value(selection).unwrap()
    }

    /// A random checkpoint: K = 0..=12 groups over 0..=16 features, a
    /// reservoir that is empty, partly filled or full, and drift trackers
    /// with and without a threshold.
    fn arb_checkpoint(seed: u64) -> Checkpoint {
        let mut rng = UnitStream::new(seed);
        let rng = &mut rng;
        let k = rng.next_index(13);
        let dims = rng.next_index(17);
        let features = |rng: &mut UnitStream| (0..dims).map(|_| arb_f64(rng)).collect::<Vec<_>>();
        let cap = rng.next_index(40);
        let filled = match rng.next_index(3) {
            0 => 0,
            1 => cap,
            _ => rng.next_index(cap + 1),
        };
        Checkpoint {
            seq: arb_u64(rng),
            records: arb_u64(rng),
            prefix: arb_u64(rng),
            source: arb_source(rng),
            selected_k: k,
            selection: arb_selection(rng),
            projected_cycles: arb_u64(rng),
            // One count for every feature, as one normalizer keeps it.
            normalizer: {
                let count = arb_u64(rng);
                StreamingNormalizer::from_stats((0..dims).map(|_| arb_stats(rng, count)).collect())
            },
            centroids: (0..k).map(|_| features(rng)).collect(),
            centroid_counts: (0..k).map(|_| arb_u64(rng)).collect(),
            drift: (0..k)
                .map(|_| {
                    let threshold = (rng.next_index(2) == 0).then(|| arb_f64(rng));
                    let calibration = arb_u64(rng);
                    let (sigma, alpha) = (arb_f64(rng), arb_f64(rng));
                    let count = arb_u64(rng);
                    DriftTracker::from_raw(
                        calibration,
                        sigma,
                        alpha,
                        arb_stats(rng, count),
                        threshold,
                        arb_f64(rng),
                    )
                })
                .collect(),
            reservoir: ReservoirState {
                cap,
                seen: arb_u64(rng),
                items: (0..filled)
                    .map(|_| ReservoirItem {
                        pos: arb_u64(rng),
                        label: rng.next_index(k.max(1)),
                        features: features(rng),
                    })
                    .collect(),
            },
            drifts: arb_u64(rng),
            reclusters: arb_u64(rng),
            max_buffered: arb_u64(rng),
            config: arb_value(rng, 2),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The direct writer emits exactly the compact rendering of the
        /// tree-built checkpoint — same keys, same sorted order, same
        /// numbers and escapes — within its pre-sized capacity, and the
        /// text reads back to a checkpoint that renders the same bytes.
        #[test]
        fn to_json_equals_the_value_tree_rendering(seed in any::<u64>()) {
            let cp = arb_checkpoint(seed);
            let text = cp.to_json();
            prop_assert_eq!(&text, &to_value_tree(&cp).to_string());
            let selection = serde_json::to_value(&cp.selection).unwrap();
            let embedded = selection.to_string().len() + cp.config.to_string().len();
            prop_assert!(text.len() < cp.json_len_bound(embedded));
            let back = Checkpoint::from_json(&text).expect("a rendered checkpoint reads back");
            prop_assert_eq!(back.to_json(), text);
        }
    }
}
