use pka_stats::OnlineStats;
use serde_json::{Map, Value};

use crate::drift::DriftTracker;
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
/// Everything the tail pass accumulates is here; the detailed prefix is
/// *not* — resume re-derives it deterministically from the (restartable)
/// source, which keeps checkpoints `O(K·d + reservoir)` like the pipeline
/// itself. Every `f64` is serialised as its IEEE-754 bit pattern (a JSON
/// integer) alongside any human-readable copy, so checkpoint → resume →
/// checkpoint reproduces files byte-for-byte.
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
    /// classified tail counts), serialised via serde.
    pub selection: Value,
    /// Projected total cycles for the whole stream so far.
    pub projected_cycles: u64,
    /// Per-feature Welford accumulators of the streaming normalizer.
    pub normalizer: Vec<OnlineStats>,
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
    m.insert(
        "threshold_bits".into(),
        threshold.map_or(Value::Null, bits),
    );
    m.insert("ewma_bits".into(), bits(ewma));
    Value::Object(m)
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
    /// Serialises the checkpoint to its canonical JSON value. Key order is
    /// deterministic (object maps are B-trees), so the compact rendering
    /// of equal checkpoints is byte-identical.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("schema".into(), Value::from(CHECKPOINT_SCHEMA));
        m.insert("seq".into(), Value::from(self.seq));
        m.insert("records".into(), Value::from(self.records));
        m.insert("prefix".into(), Value::from(self.prefix));
        m.insert("source".into(), Value::from(self.source.clone()));
        m.insert("selected_k".into(), Value::from(self.selected_k as u64));
        m.insert("selection".into(), self.selection.clone());
        m.insert("projected_cycles".into(), Value::from(self.projected_cycles));
        m.insert(
            "normalizer".into(),
            Value::Array(self.normalizer.iter().map(stats_to_value).collect()),
        );
        m.insert(
            "centroids".into(),
            Value::Array(
                self.centroids
                    .iter()
                    .map(|c| Value::Array(c.iter().map(|&x| bits(x)).collect()))
                    .collect(),
            ),
        );
        m.insert(
            "centroid_counts".into(),
            Value::Array(self.centroid_counts.iter().map(|&c| Value::from(c)).collect()),
        );
        m.insert(
            "drift".into(),
            Value::Array(self.drift.iter().map(drift_to_value).collect()),
        );
        let mut reservoir = Map::new();
        reservoir.insert("cap".into(), Value::from(self.reservoir.cap as u64));
        reservoir.insert("seen".into(), Value::from(self.reservoir.seen));
        reservoir.insert(
            "items".into(),
            Value::Array(
                self.reservoir
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
        m.insert("drifts".into(), Value::from(self.drifts));
        m.insert("reclusters".into(), Value::from(self.reclusters));
        m.insert("max_buffered".into(), Value::from(self.max_buffered));
        m.insert("config".into(), self.config.clone());
        Value::Object(m)
    }

    /// Canonical compact JSON rendering (one line, deterministic byte-wise).
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Parses a checkpoint from its JSON value, validating the schema tag
    /// and internal consistency (per-group array lengths, feature
    /// dimensionality).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Checkpoint`] naming the offending field.
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
        let normalizer = r
            .array("normalizer")?
            .iter()
            .map(|v| stats_from_value(v, "normalizer[]"))
            .collect::<Result<Vec<_>, _>>()?;
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
        let dims = normalizer.len();
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
            selection: r.field("selection")?.clone(),
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

    /// Writes the canonical rendering (plus trailing newline) to `path`,
    /// atomically: a reader (or a crash) can observe the previous file or
    /// the new one, never a torn mix — see [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), StreamError> {
        let mut text = self.to_json();
        text.push('\n');
        write_atomic(path, &text)?;
        Ok(())
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and parse errors.
    pub fn read_from(path: &std::path::Path) -> Result<Self, StreamError> {
        Self::from_json(&std::fs::read_to_string(path)?)
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

    fn sample() -> Checkpoint {
        let mut stats = OnlineStats::new();
        stats.extend([0.25, 1.5, -3.0, 0.1]);
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
            selection: serde_json::json!({"groups": [1, 2]}),
            projected_cycles: 1_234_567_890,
            normalizer: vec![stats, OnlineStats::new()],
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
        let mut v = sample().to_value();
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
        match Checkpoint::from_value(&cp.to_value()) {
            Err(StreamError::Checkpoint { message }) => {
                assert!(message.contains("selected_k"), "{message}");
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn missing_field_names_the_path() {
        let mut v = sample().to_value();
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
        let mut v = sample().to_value();
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
}
