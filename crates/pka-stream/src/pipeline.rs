use pka_core::{
    fit_tail_ensemble, selection_attribution, ErrorAttribution, GroupProvenance, Pks, PksConfig,
    RepresentativePolicy, Selection,
};
use pka_ml::classify::{Ensemble, EnsembleMemo};
use pka_ml::Matrix;
use pka_profile::{DetailedRecord, LightweightRecord};
use pka_stats::hash::{mix64, UnitStream};
use pka_stats::Executor;
use serde_json::{json, Map, Value};

use crate::cancel::CancelToken;
use crate::checkpoint::{Checkpoint, ReservoirItem, ReservoirState};
use crate::drift::{Drift, DriftTracker};
use crate::normalize::StreamingNormalizer;
use crate::source::{KernelSource, SourceRecord};
use crate::StreamError;

/// Bucket edges (ns) for the `stream.checkpoint_write_ns` histogram:
/// 10 µs / 100 µs / 1 ms / 10 ms / 100 ms, plus overflow.
const CHECKPOINT_WRITE_EDGES: &[u64] = &[10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// Configuration for the online pipeline.
///
/// # Examples
///
/// ```
/// use pka_stream::StreamConfig;
///
/// let config = StreamConfig::default().with_prefix(600).with_batch(1024);
/// assert_eq!(config.prefix(), 600);
/// assert_eq!(config.batch(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    pub(crate) prefix: u64,
    pub(crate) checkpoint_every: u64,
    pub(crate) reservoir: usize,
    pub(crate) batch: usize,
    pub(crate) drift_sigma: f64,
    pub(crate) drift_alpha: f64,
    pub(crate) drift_calibration: u64,
    pub(crate) recluster_iters: usize,
    pub(crate) seed: u64,
    pub(crate) classifier_seed: u64,
    pub(crate) pks: PksConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            // The paper detail-profiles 20k of SSD training's 5.3M kernels.
            prefix: 20_000,
            checkpoint_every: 100_000,
            reservoir: 4096,
            batch: 2048,
            drift_sigma: 3.0,
            drift_alpha: 0.05,
            drift_calibration: 256,
            recluster_iters: 2,
            seed: 0,
            classifier_seed: 0,
            pks: PksConfig::default(),
        }
    }
}

impl StreamConfig {
    /// Sets the detailed-prefix length *j* (min 1).
    pub fn with_prefix(mut self, prefix: u64) -> Self {
        self.prefix = prefix.max(1);
        self
    }

    /// Sets how many records elapse between checkpoints (min 1).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Sets the reservoir-sample capacity (min 1).
    pub fn with_reservoir(mut self, cap: usize) -> Self {
        self.reservoir = cap.max(1);
        self
    }

    /// Sets the tail mini-batch size (min 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the drift envelope width (standard deviations above the mean).
    pub fn with_drift_sigma(mut self, sigma: f64) -> Self {
        self.drift_sigma = sigma;
        self
    }

    /// Sets the EWMA smoothing for drift exceedance tracking.
    pub fn with_drift_alpha(mut self, alpha: f64) -> Self {
        self.drift_alpha = alpha;
        self
    }

    /// Sets how many distances calibrate a drift envelope.
    pub fn with_drift_calibration(mut self, n: u64) -> Self {
        self.drift_calibration = n.max(2);
        self
    }

    /// Sets the Lloyd iterations per bounded re-cluster.
    pub fn with_recluster_iters(mut self, iters: usize) -> Self {
        self.recluster_iters = iters.max(1);
        self
    }

    /// Sets the reservoir-sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the classifier training seed (matches
    /// `TwoLevelConfig::with_classifier_seed`).
    pub fn with_classifier_seed(mut self, seed: u64) -> Self {
        self.classifier_seed = seed;
        self
    }

    /// Sets the PKS configuration applied to the detailed prefix.
    pub fn with_pks(mut self, pks: PksConfig) -> Self {
        self.pks = pks;
        self
    }

    /// The detailed-prefix length *j*.
    pub fn prefix(&self) -> u64 {
        self.prefix
    }

    /// Records between checkpoints.
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// Reservoir capacity.
    pub fn reservoir(&self) -> usize {
        self.reservoir
    }

    /// Tail mini-batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The PKS configuration.
    pub fn pks(&self) -> PksConfig {
        self.pks
    }

    /// Canonical JSON echo of this configuration, embedded in every
    /// checkpoint. [`StreamPks::run_from`] refuses a checkpoint whose echo
    /// disagrees with the live configuration — resuming under different
    /// parameters would silently break byte-for-byte reproducibility.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("prefix".into(), Value::from(self.prefix));
        m.insert(
            "checkpoint_every".into(),
            Value::from(self.checkpoint_every),
        );
        m.insert("reservoir".into(), Value::from(self.reservoir as u64));
        m.insert("batch".into(), Value::from(self.batch as u64));
        m.insert(
            "drift_sigma_bits".into(),
            Value::from(self.drift_sigma.to_bits()),
        );
        m.insert(
            "drift_alpha_bits".into(),
            Value::from(self.drift_alpha.to_bits()),
        );
        m.insert(
            "drift_calibration".into(),
            Value::from(self.drift_calibration),
        );
        m.insert(
            "recluster_iters".into(),
            Value::from(self.recluster_iters as u64),
        );
        m.insert("seed".into(), Value::from(self.seed));
        m.insert("classifier_seed".into(), Value::from(self.classifier_seed));
        let mut pks = Map::new();
        pks.insert(
            "target_error_pct_bits".into(),
            Value::from(self.pks.target_error_pct().to_bits()),
        );
        pks.insert("max_k".into(), Value::from(self.pks.max_k() as u64));
        pks.insert(
            "pca_variance_bits".into(),
            Value::from(self.pks.pca_variance().to_bits()),
        );
        pks.insert("seed".into(), Value::from(self.pks.seed()));
        pks.insert(
            "representative".into(),
            Value::from(format!("{:?}", self.pks.representative())),
        );
        m.insert("pks".into(), Value::Object(pks));
        Value::Object(m)
    }

    /// Reconstructs a configuration from a checkpoint's `config` echo — the
    /// exact inverse of [`StreamConfig::to_value`], so a resume can adopt
    /// the original run's parameters without the caller re-specifying them.
    ///
    /// # Examples
    ///
    /// ```
    /// use pka_stream::StreamConfig;
    ///
    /// let config = StreamConfig::default().with_prefix(600).with_batch(64);
    /// let round_tripped = StreamConfig::from_value(&config.to_value()).unwrap();
    /// assert_eq!(round_tripped, config);
    /// ```
    pub fn from_value(value: &Value) -> Result<Self, StreamError> {
        let bad = |what: &str| StreamError::Checkpoint {
            message: format!("config echo is missing or malformed: {what}"),
        };
        let map = value.as_object().ok_or_else(|| bad("not an object"))?;
        let int = |key: &str| map.get(key).and_then(Value::as_u64).ok_or_else(|| bad(key));
        let float_bits = |key: &str| int(key).map(f64::from_bits);
        let pks_map = map
            .get("pks")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("pks"))?;
        let pks_int = |key: &str| {
            pks_map
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(key))
        };
        let rep_text = pks_map
            .get("representative")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("pks.representative"))?;
        let representative = if rep_text == "FirstChronological" {
            RepresentativePolicy::FirstChronological
        } else if rep_text == "ClusterCentre" {
            RepresentativePolicy::ClusterCentre
        } else if let Some(seed) = rep_text
            .strip_prefix("Random(")
            .and_then(|s| s.strip_suffix(')'))
            .and_then(|s| s.parse().ok())
        {
            RepresentativePolicy::Random(seed)
        } else {
            return Err(bad("pks.representative"));
        };
        let pks = PksConfig::default()
            .with_target_error_pct(f64::from_bits(pks_int("target_error_pct_bits")?))
            .with_max_k(pks_int("max_k")? as usize)
            .with_pca_variance(f64::from_bits(pks_int("pca_variance_bits")?))
            .with_seed(pks_int("seed")?)
            .with_representative(representative);
        Ok(Self::default()
            .with_prefix(int("prefix")?)
            .with_checkpoint_every(int("checkpoint_every")?)
            .with_reservoir(int("reservoir")? as usize)
            .with_batch(int("batch")? as usize)
            .with_drift_sigma(float_bits("drift_sigma_bits")?)
            .with_drift_alpha(float_bits("drift_alpha_bits")?)
            .with_drift_calibration(int("drift_calibration")?)
            .with_recluster_iters(int("recluster_iters")? as usize)
            .with_seed(int("seed")?)
            .with_classifier_seed(int("classifier_seed")?)
            .with_pks(pks))
    }
}

/// Summary of one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Total records consumed (prefix + tail).
    pub records: u64,
    /// Detailed-prefix length actually used.
    pub prefix: u64,
    /// Group count selected by PKS over the prefix.
    pub selected_k: usize,
    /// Projected total cycles for the whole stream.
    pub projected_cycles: u64,
    /// Per-group member counts (prefix members + classified tail).
    pub group_counts: Vec<u64>,
    /// Drift firings over the tail.
    pub drifts: u64,
    /// Bounded re-cluster passes triggered by drift.
    pub reclusters: u64,
    /// Checkpoints emitted through the callback (excludes the final
    /// snapshot returned in [`StreamOutcome`]).
    pub checkpoints: u64,
    /// High-water mark of simultaneously buffered tail records.
    pub max_buffered: u64,
}

impl StreamReport {
    /// The report as a JSON value (for manifests and the CLI).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("records".into(), Value::from(self.records));
        m.insert("prefix".into(), Value::from(self.prefix));
        m.insert("selected_k".into(), Value::from(self.selected_k as u64));
        m.insert(
            "projected_cycles".into(),
            Value::from(self.projected_cycles),
        );
        m.insert(
            "group_counts".into(),
            Value::Array(self.group_counts.iter().map(|&c| Value::from(c)).collect()),
        );
        m.insert("drifts".into(), Value::from(self.drifts));
        m.insert("reclusters".into(), Value::from(self.reclusters));
        m.insert("checkpoints".into(), Value::from(self.checkpoints));
        m.insert("max_buffered".into(), Value::from(self.max_buffered));
        Value::Object(m)
    }
}

/// Everything a streaming run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Run summary.
    pub report: StreamReport,
    /// The selection covering the entire stream — identical to what the
    /// batch two-level pipeline produces on the same records.
    pub selection: Selection,
    /// Snapshot of the pipeline at end of stream (resumable, and the
    /// object byte-compared by the checkpoint→resume parity test).
    pub final_checkpoint: Checkpoint,
    /// Per-group error attribution (`pka.attribution/v1`): each group's
    /// representative provenance and its signed contribution to the
    /// selection's projected-cycle error over the detailed prefix.
    pub attribution: ErrorAttribution,
}

/// The online PKS pipeline.
///
/// [`run`](Self::run) consumes a [`KernelSource`] once: the detailed prefix
/// is buffered and handed to the *batch* `Pks` (so the selected K and the
/// classifier ensemble match `pka_core::TwoLevel` exactly), then the tail
/// streams through in bounded batches. Each batch reads features through
/// [`KernelSource::next_features_into`], is labelled by the memoised
/// ensemble ([`EnsembleMemo`], the batch pipeline's tail classifier), and
/// is folded strictly in stream order: group counts, streaming normalizer,
/// mini-batch centroids, drift envelopes and reservoir, with checkpoints
/// at exact record multiples. Memory over the tail is
/// `O(K·d + reservoir + batch)`, independent of stream length, and every
/// result is bitwise identical for any worker count (the executor drives
/// the prefix's clustering; the tail runs on the calling thread).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPks {
    config: StreamConfig,
    exec: Executor,
}

/// Tail-side mutable state: the checkpoint the tail folds into, plus what
/// a checkpoint does not carry.
struct TailState {
    cp: Checkpoint,
    /// Representative provenance, fixed at bootstrap (never checkpointed:
    /// resume re-derives it from the same prefix).
    provenance: Vec<GroupProvenance>,
    checkpoints_emitted: u64,
    /// Cumulative `on_checkpoint` callback time (observability only:
    /// wall-clock data never enters checkpoints, so this field is not
    /// snapshotted and restarts at zero on resume).
    checkpoint_write_ns: u64,
}

impl StreamPks {
    /// Creates the pipeline (sequential executor).
    pub fn new(config: StreamConfig) -> Self {
        Self {
            config,
            exec: Executor::sequential(),
        }
    }

    /// Fans the detailed prefix's clustering out over `exec`.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Runs the pipeline over `source` from its current position to end of
    /// stream. `on_checkpoint` observes every periodic checkpoint (write it
    /// to disk, ship it, or ignore it); erroring from the callback aborts
    /// the run.
    ///
    /// # Errors
    ///
    /// Propagates source, clustering, classification and callback failures.
    /// An empty source is a [`StreamError::Pipeline`] error.
    pub fn run<S, F>(&self, source: &mut S, on_checkpoint: F) -> Result<StreamOutcome, StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&Checkpoint) -> Result<(), StreamError>,
    {
        self.run_from(source, None, on_checkpoint, &CancelToken::new())
    }

    /// [`run`](Self::run), resumed from `checkpoint` when one is given, with
    /// cooperative cancellation.
    ///
    /// Resuming re-derives the detailed prefix deterministically (it is not
    /// stored in checkpoints), validates it against the snapshot, and
    /// restores the tail state bit-exactly; `source` must restart, and is
    /// then fast-forwarded to the snapshot position. The run continues as
    /// if never interrupted — the final checkpoint is byte-identical to an
    /// uninterrupted run's.
    ///
    /// `cancel` is polled at every batch boundary of the tail. When it
    /// fires, one final teardown checkpoint (at the exact record count
    /// folded so far) is delivered through `on_checkpoint` and the run
    /// returns [`StreamError::Cancelled`] — every record that was
    /// classified is in that checkpoint, so a resume from it continues
    /// without re-processing anything.
    ///
    /// # Errors
    ///
    /// Everything [`run`](Self::run) can fail with; a
    /// [`StreamError::Checkpoint`] when `checkpoint` is inconsistent with
    /// this configuration or source; the source's error when it cannot
    /// restart; and [`StreamError::Cancelled`] when the token fires.
    pub fn run_from<S, F>(
        &self,
        source: &mut S,
        checkpoint: Option<&Checkpoint>,
        on_checkpoint: F,
        cancel: &CancelToken,
    ) -> Result<StreamOutcome, StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&Checkpoint) -> Result<(), StreamError>,
    {
        let (state, ensemble) = match checkpoint {
            None => self.bootstrap(source)?,
            Some(checkpoint) => self.restore(source, checkpoint)?,
        };
        self.drain_tail(source, state, ensemble.as_ref(), on_checkpoint, cancel)
    }

    /// Restarts `source`, re-derives the prefix, adopts `checkpoint`'s tail
    /// state and skips `source` to the snapshot position.
    fn restore<S>(
        &self,
        source: &mut S,
        checkpoint: &Checkpoint,
    ) -> Result<(TailState, Option<Ensemble>), StreamError>
    where
        S: KernelSource + ?Sized,
    {
        let corrupt = |message: String| StreamError::Checkpoint { message };
        if checkpoint.config != self.config.to_value() {
            return Err(corrupt(
                "checkpoint was taken under a different configuration".into(),
            ));
        }
        // The fold samples against the configured cap; a reservoir kept
        // under another one cannot be carried on.
        if checkpoint.reservoir.cap != self.config.reservoir {
            return Err(corrupt(format!(
                "checkpoint reservoir cap is {}, the configured reservoir is {}",
                checkpoint.reservoir.cap, self.config.reservoir
            )));
        }
        source.restart()?;
        if checkpoint.source != source.name() {
            return Err(corrupt(format!(
                "checkpoint is for source `{}`, not `{}`",
                checkpoint.source,
                source.name()
            )));
        }
        let (mut state, ensemble) = self.bootstrap(source)?;
        if state.cp.records != checkpoint.prefix {
            return Err(corrupt(format!(
                "source prefix is {} records, checkpoint recorded {}",
                state.cp.records, checkpoint.prefix
            )));
        }
        if state.cp.selected_k != checkpoint.selected_k {
            return Err(corrupt(format!(
                "re-derived prefix selects K={}, checkpoint recorded K={}",
                state.cp.selected_k, checkpoint.selected_k
            )));
        }
        if checkpoint.selection.representative_ids() != state.cp.selection.representative_ids() {
            return Err(corrupt(
                "checkpoint selection has different representatives than the \
                 re-derived prefix — wrong stream or corrupted checkpoint"
                    .into(),
            ));
        }

        // Adopt the snapshot wholesale: selection (carries the classified
        // tail counts), normalizer, centroids, drift, reservoir, counters.
        state.cp = checkpoint.clone();

        let to_skip = checkpoint.records - checkpoint.prefix;
        let skipped = source.skip(to_skip)?;
        if skipped != to_skip {
            return Err(corrupt(format!(
                "stream ended while skipping to record {} (skipped {skipped} of {to_skip})",
                checkpoint.records
            )));
        }
        if pka_obs::enabled() {
            pka_obs::counter("stream.resumes").incr();
            pka_obs::trace_event(
                "stream.resume",
                json!({
                    "seq": checkpoint.seq,
                    "records": checkpoint.records,
                    "source": checkpoint.source,
                }),
            );
        }
        Ok((state, ensemble))
    }

    /// Buffers the detailed prefix, runs batch PKS over it, trains the tail
    /// ensemble, and seeds the tail state (normalizer, centroids, drift).
    /// The prefix buffer is dropped before returning — from here on memory
    /// is bounded. The ensemble is `None` when the stream ended inside the
    /// prefix (no tail to label).
    fn bootstrap<S>(&self, source: &mut S) -> Result<(TailState, Option<Ensemble>), StreamError>
    where
        S: KernelSource + ?Sized,
    {
        let _span = pka_obs::span("stream.prefix");
        let config = &self.config;
        let source_name = source.name();
        let j = match source.len_hint() {
            Some(n) => config.prefix.min(n.max(1)),
            None => config.prefix,
        };
        let mut prefix: Vec<SourceRecord> = Vec::new();
        let mut ended = false;
        while (prefix.len() as u64) < j {
            match source.next_record(true)? {
                Some(record) => prefix.push(record),
                None => {
                    ended = true;
                    break;
                }
            }
        }
        if prefix.is_empty() {
            return Err(StreamError::Pipeline {
                message: "stream is empty: nothing to select from".into(),
            });
        }
        let detailed: Vec<DetailedRecord> = prefix
            .iter()
            .map(|r| {
                r.detailed.clone().ok_or_else(|| StreamError::Pipeline {
                    message: "prefix record lacks its detailed view".into(),
                })
            })
            .collect::<Result<_, _>>()?;
        let selection = Pks::new(config.pks)
            .with_executor(self.exec)
            .select(&detailed)?;
        let provenance = Pks::new(config.pks).provenance(&detailed, &selection)?;
        let k = selection.k();

        // Streaming normalizer and mini-batch centroids, seeded from the
        // prefix's lightweight view: observe every prefix record, then set
        // each group's centroid to the mean of its members' normalised
        // features, weighted by its profiled population.
        let dims = LightweightRecord::FEATURE_COUNT;
        let mut normalizer = StreamingNormalizer::new(dims);
        let features: Vec<Vec<f64>> = prefix
            .iter()
            .map(|r| r.lightweight.to_feature_vector())
            .collect();
        for f in &features {
            normalizer.observe(f);
        }
        let mut centroids = vec![vec![0.0f64; dims]; k];
        let mut centroid_counts = vec![0u64; k];
        for (f, &label) in features.iter().zip(selection.labels()) {
            let mut x = f.clone();
            normalizer.normalize(&mut x);
            centroid_counts[label] += 1;
            let n = centroid_counts[label] as f64;
            for (c, xi) in centroids[label].iter_mut().zip(&x) {
                *c += (xi - *c) / n;
            }
        }

        // Train the tail ensemble exactly like the batch two-level pipeline
        // — unless the stream already ended inside the prefix, in which
        // case there is no tail to classify.
        let ensemble = if ended {
            None
        } else {
            let x = Matrix::from_rows(&features).map_err(|e| StreamError::Pipeline {
                message: e.to_string(),
            })?;
            Some(fit_tail_ensemble(
                &x,
                selection.labels(),
                config.classifier_seed,
            )?)
        };

        let records = prefix.len() as u64;
        if pka_obs::enabled() {
            pka_obs::counter("stream.records").add(records);
            pka_obs::gauge("stream.selected_k").set(k as i64);
        }
        let state = TailState {
            cp: Checkpoint {
                seq: 0,
                records,
                // What was profiled: the stream may end inside the
                // configured prefix.
                prefix: records,
                source: source_name,
                selected_k: k,
                projected_cycles: selection.projected_cycles(),
                selection,
                normalizer,
                centroids,
                centroid_counts,
                drift: vec![
                    DriftTracker::new(
                        config.drift_calibration,
                        config.drift_sigma,
                        config.drift_alpha
                    );
                    k
                ],
                reservoir: ReservoirState {
                    cap: config.reservoir,
                    seen: 0,
                    items: Vec::new(),
                },
                drifts: 0,
                reclusters: 0,
                max_buffered: 0,
                config: config.to_value(),
            },
            provenance,
            checkpoints_emitted: 0,
            checkpoint_write_ns: 0,
        };
        if pka_obs::enabled() {
            emit_live_snapshot(&state, "prefix");
        }
        Ok((state, ensemble))
    }

    /// Streams the tail in bounded batches until end of stream (or until
    /// `cancel` fires at a batch boundary — see
    /// [`run_from`](Self::run_from)).
    fn drain_tail<S, F>(
        &self,
        source: &mut S,
        mut state: TailState,
        ensemble: Option<&Ensemble>,
        mut on_checkpoint: F,
        cancel: &CancelToken,
    ) -> Result<StreamOutcome, StreamError>
    where
        S: KernelSource + ?Sized,
        F: FnMut(&Checkpoint) -> Result<(), StreamError>,
    {
        let _span = pka_obs::span("stream.tail");
        // Snapshot cadence, read once: 0 keeps the per-record cost of live
        // snapshots at a single integer compare.
        let snap_every = if pka_obs::enabled() {
            pka_obs::snapshot_every()
        } else {
            0
        };
        let obs = pka_obs::enabled();
        match ensemble {
            None => {
                // The prefix consumed the whole stream, so no tail ensemble
                // was trained; a further record violates the source's
                // end-of-stream report.
                if source.next_record(false)?.is_some() {
                    return Err(StreamError::Pipeline {
                        message: "source yielded tail records after reporting end of stream".into(),
                    });
                }
            }
            Some(ensemble) => {
                let dims = LightweightRecord::FEATURE_COUNT;
                let mut memo = EnsembleMemo::new(ensemble, dims);
                let mut batch = Vec::with_capacity(self.config.batch * dims);
                let mut labels = Vec::with_capacity(self.config.batch);
                let mut scratch = Vec::with_capacity(dims);
                loop {
                    // Cancellation point: between batches, so every folded
                    // record is in the teardown checkpoint and no
                    // half-classified batch is observable.
                    if cancel.is_cancelled() {
                        let checkpoint = snapshot(&mut state, true);
                        on_checkpoint(checkpoint)?;
                        if obs {
                            pka_obs::counter("stream.cancels").incr();
                            pka_obs::trace_event(
                                "stream.cancel",
                                json!({ "seq": checkpoint.seq, "records": checkpoint.records }),
                            );
                        }
                        return Err(StreamError::Cancelled);
                    }
                    batch.clear();
                    let mut filled = 0usize;
                    while filled < self.config.batch && source.next_features_into(&mut batch)? {
                        filled += 1;
                    }
                    if filled == 0 {
                        break;
                    }
                    let cp = &mut state.cp;
                    let buffered = filled as u64 + cp.reservoir.items.len() as u64;
                    cp.max_buffered = cp.max_buffered.max(buffered);
                    let hits = memo.predict_into(&batch, &mut labels)?;

                    // Strictly in-order fold: counts, normalizer, centroids,
                    // drift, reservoir, checkpoints.
                    for (features, &label) in batch.chunks_exact(dims).zip(&labels) {
                        self.fold_record(&mut state.cp, label, features, &mut scratch);
                        let records = state.cp.records;
                        if records.is_multiple_of(self.config.checkpoint_every) {
                            let checkpoint = snapshot(&mut state, true);
                            let t0 = obs.then(std::time::Instant::now);
                            on_checkpoint(checkpoint)?;
                            let seq = checkpoint.seq;
                            if let Some(t0) = t0 {
                                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                                state.checkpoint_write_ns =
                                    state.checkpoint_write_ns.saturating_add(ns);
                                pka_obs::histogram(
                                    "stream.checkpoint_write_ns",
                                    CHECKPOINT_WRITE_EDGES,
                                )
                                .record(ns);
                                // Deterministic fields only: the write
                                // duration stays out of the event so traces
                                // canonicalize byte-identically across runs.
                                pka_obs::trace_event(
                                    "stream.checkpoint",
                                    json!({ "seq": seq, "records": records }),
                                );
                            }
                        }
                        if snap_every != 0 && records.is_multiple_of(snap_every) {
                            emit_live_snapshot(&state, "tail");
                        }
                    }
                    if obs {
                        pka_obs::counter("stream.records").add(filled as u64);
                        pka_obs::counter("stream.memo_hits").add(hits as u64);
                        pka_obs::gauge("stream.max_buffered").set(state.cp.max_buffered as i64);
                    }
                }
            }
        }

        if obs {
            pka_obs::counter("stream.checkpoints").add(state.checkpoints_emitted);
            pka_obs::counter("stream.drifts").add(state.cp.drifts);
            pka_obs::counter("stream.reclusters").add(state.cp.reclusters);
            // End-of-stream snapshot, so even short tails leave at least
            // one `phase: "tail"` record in the snapshot file.
            if snap_every != 0 {
                emit_live_snapshot(&state, "tail");
            }
        }
        snapshot(&mut state, false);
        let cp = state.cp;
        let report = StreamReport {
            records: cp.records,
            prefix: cp.prefix,
            selected_k: cp.selected_k,
            projected_cycles: cp.projected_cycles,
            group_counts: cp.selection.groups().iter().map(|g| g.count()).collect(),
            drifts: cp.drifts,
            reclusters: cp.reclusters,
            checkpoints: state.checkpoints_emitted,
            max_buffered: cp.max_buffered,
        };
        // Attribution over the final selection: tail classification only
        // bumps member counts, so every error term still measures the
        // profiled prefix — the same decomposition the batch two-level
        // pipeline would report for this stream.
        let attribution = selection_attribution(&cp.source, &cp.selection, &state.provenance);
        Ok(StreamOutcome {
            report,
            selection: cp.selection.clone(),
            final_checkpoint: cp,
            attribution,
        })
    }

    /// Folds one classified tail record into the online state. `raw` is
    /// the record's feature row; `features` is scratch the fold normalises
    /// it into.
    fn fold_record(&self, cp: &mut Checkpoint, label: usize, raw: &[f64], features: &mut Vec<f64>) {
        let t = cp.records; // absolute 0-based position of this record
        cp.selection.add_classified_member(label);
        cp.normalizer.observe(raw);
        features.clear();
        features.extend_from_slice(raw);
        cp.normalizer.normalize(features);

        // Distance to the group's centroid *before* this record moves it.
        let distance = cp.centroids[label]
            .iter()
            .zip(features.iter())
            .map(|(c, x)| (x - c) * (x - c))
            .sum::<f64>()
            .sqrt();

        // Sculley mini-batch update: the centroid drifts toward the new
        // member with a per-centroid learning rate of 1/count.
        cp.centroid_counts[label] += 1;
        let n = cp.centroid_counts[label] as f64;
        for (c, x) in cp.centroids[label].iter_mut().zip(features.iter()) {
            *c += (x - *c) / n;
        }

        // Reservoir (Algorithm R with a stateless per-record RNG: resume
        // needs no generator state, only `seen`).
        let reservoir = &mut cp.reservoir;
        reservoir.seen += 1;
        if reservoir.items.len() < self.config.reservoir {
            reservoir.items.push(ReservoirItem {
                pos: t,
                label,
                features: features.clone(),
            });
        } else {
            let slot =
                UnitStream::new(mix64(self.config.seed ^ t)).next_index(reservoir.seen as usize);
            if slot < self.config.reservoir {
                reservoir.items[slot] = ReservoirItem {
                    pos: t,
                    label,
                    features: features.clone(),
                };
            }
        }

        if cp.drift[label].observe(distance) == Drift::Fired {
            cp.drifts += 1;
            // Drift firings are rare (EWMA-gated), so a per-firing gate +
            // event costs nothing on the per-record path. The fold runs
            // strictly in record order on one thread, so these events land
            // in the trace deterministically.
            if pka_obs::enabled() {
                pka_obs::trace_event(
                    "stream.drift",
                    json!({ "group": label, "record": t, "drifts": cp.drifts }),
                );
            }
            self.recluster(cp);
        }
        cp.records += 1;
    }

    /// Bounded re-cluster: a few Lloyd iterations over the reservoir only,
    /// initialised at the current centroids. Re-centres the drift
    /// envelopes' reference points without touching classification — group
    /// membership stays the ensemble's call, so batch parity is preserved.
    fn recluster(&self, cp: &mut Checkpoint) {
        let k = cp.centroids.len();
        let items = &cp.reservoir.items;
        if k == 0 || items.is_empty() {
            return;
        }
        lloyd_iterations(&mut cp.centroids, items, self.config.recluster_iters);
        // Moved centroids invalidate every frozen envelope; learning rates
        // restart from the reservoir populations.
        for tracker in &mut cp.drift {
            tracker.reset();
        }
        let mut counts = vec![0u64; k];
        for item in items {
            if item.label < k {
                counts[item.label] += 1;
            }
        }
        for (cc, c) in cp.centroid_counts.iter_mut().zip(counts) {
            *cc = c.max(1);
        }
        cp.reclusters += 1;
        if pka_obs::enabled() {
            pka_obs::trace_event(
                "stream.recluster",
                json!({
                    "reclusters": cp.reclusters,
                    "record": cp.records,
                    "reservoir": items.len() as u64,
                    "iters": self.config.recluster_iters as u64,
                }),
            );
        }
    }
}

/// Takes a checkpoint of the current state: the next sequence number and
/// the projection over the current counts. `periodic` bumps the emission
/// counter (the final snapshot returned in the outcome gets the next
/// sequence number but is not counted as emitted).
fn snapshot(state: &mut TailState, periodic: bool) -> &Checkpoint {
    let cp = &mut state.cp;
    cp.seq += 1;
    cp.projected_cycles = cp.selection.projected_cycles();
    if periodic {
        state.checkpoints_emitted += 1;
    }
    &state.cp
}

/// Emits one `pka.snapshot/v1` record reflecting `state`. Every field of
/// the record payload is deterministic; throughput and cumulative
/// checkpoint write time ride in the sink's volatile `timing` object.
fn emit_live_snapshot(state: &TailState, phase: &str) {
    pka_obs::emit_snapshot(
        &state.cp.snapshot_record(phase, state.checkpoints_emitted),
        json!({ "checkpoint_write_ns": state.checkpoint_write_ns }),
    );
}

/// A few Lloyd iterations over `items` only, initialised at (and updating)
/// `centroids` in place. Empty groups keep their previous centre; ties in
/// the nearest-centroid scan resolve to the lowest group id via the strict
/// `min_by` comparison order.
fn lloyd_iterations(centroids: &mut [Vec<f64>], items: &[ReservoirItem], iters: usize) {
    let k = centroids.len();
    if k == 0 || items.is_empty() {
        return;
    }
    let dims = centroids[0].len();
    for _ in 0..iters {
        let mut sums = vec![vec![0.0f64; dims]; k];
        let mut counts = vec![0u64; k];
        for item in items {
            let nearest = centroids
                .iter()
                .enumerate()
                .map(|(g, c)| {
                    let d = c
                        .iter()
                        .zip(&item.features)
                        .map(|(ci, xi)| (xi - ci) * (xi - ci))
                        .sum::<f64>();
                    (g, d)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(g, _)| g)
                .unwrap_or(0);
            counts[nearest] += 1;
            for (s, x) in sums[nearest].iter_mut().zip(&item.features) {
                *s += x;
            }
        }
        for g in 0..k {
            if counts[g] > 0 {
                for (c, s) in centroids[g].iter_mut().zip(&sums[g]) {
                    *c = s / counts[g] as f64;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{synthetic_workload, WorkloadSource};
    use pka_gpu::GpuConfig;
    use pka_profile::Profiler;

    fn source(n: u64) -> WorkloadSource {
        WorkloadSource::new(synthetic_workload(n), Profiler::new(GpuConfig::v100()))
    }

    fn small_config() -> StreamConfig {
        StreamConfig::default()
            .with_prefix(200)
            .with_batch(64)
            .with_reservoir(128)
            .with_checkpoint_every(500)
    }

    #[test]
    fn processes_whole_stream_and_counts_everything() {
        let mut src = source(2_000);
        let outcome = StreamPks::new(small_config())
            .run(&mut src, |_| Ok(()))
            .unwrap();
        assert_eq!(outcome.report.records, 2_000);
        assert_eq!(outcome.report.prefix, 200);
        assert_eq!(
            outcome.report.group_counts.iter().sum::<u64>(),
            2_000,
            "every kernel lands in a group"
        );
        assert_eq!(outcome.report.checkpoints, 4, "at 500/1000/1500/2000");
        assert!(outcome.report.selected_k >= 1);
        assert_eq!(
            outcome.final_checkpoint.projected_cycles,
            outcome.selection.projected_cycles()
        );
    }

    #[test]
    fn bounded_memory_high_water_mark() {
        let mut src = source(3_000);
        let config = small_config();
        let outcome = StreamPks::new(config).run(&mut src, |_| Ok(())).unwrap();
        assert!(
            outcome.report.max_buffered <= (config.reservoir() + config.batch()) as u64,
            "max_buffered {} exceeds reservoir {} + batch {}",
            outcome.report.max_buffered,
            config.reservoir(),
            config.batch()
        );
    }

    #[test]
    fn worker_count_does_not_change_the_final_checkpoint() {
        let run = |workers: usize| {
            let mut src = source(1_500);
            StreamPks::new(small_config())
                .with_executor(Executor::new(workers))
                .run(&mut src, |_| Ok(()))
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.report, b.report);
        assert_eq!(
            a.final_checkpoint.to_json(),
            b.final_checkpoint.to_json(),
            "final checkpoints must be byte-identical across worker counts"
        );
        assert_eq!(
            serde_json::to_string(&a.attribution).unwrap(),
            serde_json::to_string(&b.attribution).unwrap(),
            "attribution artifacts must be byte-identical across worker counts"
        );
    }

    #[test]
    fn attribution_sums_to_selection_error() {
        let mut src = source(2_000);
        let outcome = StreamPks::new(small_config())
            .run(&mut src, |_| Ok(()))
            .unwrap();
        let attribution = &outcome.attribution;
        attribution
            .verify_sums()
            .expect("per-group terms sum to the reported error");
        assert_eq!(attribution.kind, "selection");
        assert_eq!(attribution.workload, "workload:synthetic2000");
        assert_eq!(attribution.groups.len(), outcome.selection.k());
        assert_eq!(
            (attribution.pks_err_pct * 1e9).round(),
            (outcome.selection.error_pct() * 1e9).round()
        );
        // Weights cover the whole stream; profiled counts only the prefix.
        let weights: u64 = attribution.groups.iter().map(|g| g.weight).sum();
        let profiled: u64 = attribution.groups.iter().map(|g| g.profiled_count).sum();
        assert_eq!(weights, 2_000);
        assert_eq!(profiled, 200);
    }

    #[test]
    fn lloyd_moves_centroids_toward_reservoir_mass() {
        let item = |pos, label, x| ReservoirItem {
            pos,
            label,
            features: vec![x],
        };
        let mut centroids = vec![vec![0.0], vec![10.0]];
        let items = vec![item(0, 0, 1.0), item(1, 0, 3.0), item(2, 1, 9.0)];
        lloyd_iterations(&mut centroids, &items, 1);
        assert_eq!(centroids, vec![vec![2.0], vec![9.0]]);
    }

    #[test]
    fn stream_ending_inside_prefix_still_selects() {
        let mut src = source(150);
        let outcome = StreamPks::new(small_config())
            .run(&mut src, |_| Ok(()))
            .unwrap();
        assert_eq!(outcome.report.records, 150);
        assert_eq!(outcome.report.checkpoints, 0);
        assert_eq!(outcome.report.max_buffered, 0, "no tail was buffered");
    }

    #[test]
    fn checkpoint_callback_error_aborts() {
        let mut src = source(2_000);
        let result = StreamPks::new(small_config()).run(&mut src, |_| {
            Err(StreamError::Checkpoint {
                message: "sink full".into(),
            })
        });
        assert!(matches!(result, Err(StreamError::Checkpoint { .. })));
    }

    #[test]
    fn resume_rejects_wrong_config() {
        let mut src = source(1_200);
        let outcome = StreamPks::new(small_config())
            .run(&mut src, |_| Ok(()))
            .unwrap();
        let other = StreamPks::new(small_config().with_batch(32));
        let err = other
            .run_from(
                &mut src,
                Some(&outcome.final_checkpoint),
                |_| Ok(()),
                &CancelToken::new(),
            )
            .unwrap_err();
        assert!(matches!(err, StreamError::Checkpoint { .. }), "{err:?}");
    }

    /// Cancelling mid-tail stops within one batch of the request, delivers
    /// a teardown checkpoint covering exactly the records folded so far,
    /// and that checkpoint resumes to the same selection as an
    /// uninterrupted run.
    #[test]
    fn cancel_mid_tail_leaves_resumable_checkpoint() {
        let full = {
            let mut src = source(3_000);
            StreamPks::new(small_config())
                .run(&mut src, |_| Ok(()))
                .unwrap()
        };

        let mut src = source(3_000);
        let cancel = CancelToken::new();
        let mut teardown: Option<Checkpoint> = None;
        let result = StreamPks::new(small_config()).run_from(
            &mut src,
            None,
            |cp| {
                // Fire after the first delivered checkpoint: the next batch
                // boundary must stop the run.
                cancel.cancel();
                teardown = Some(cp.clone());
                Ok(())
            },
            &cancel,
        );
        assert_eq!(result.unwrap_err(), StreamError::Cancelled);
        let teardown = teardown.expect("teardown checkpoint was delivered");
        assert!(
            teardown.records < 3_000,
            "cancelled mid-stream, got {} records",
            teardown.records
        );
        // Within one batch of the cancellation point (the checkpoint at 500
        // records triggered it; the batch is 64).
        assert!(
            teardown.records <= 500 + 64,
            "stopped {} records past the cancel point",
            teardown.records
        );

        let mut src = source(3_000);
        let resumed = StreamPks::new(small_config())
            .run_from(&mut src, Some(&teardown), |_| Ok(()), &CancelToken::new())
            .unwrap();
        assert_eq!(resumed.report.records, 3_000);
        assert_eq!(resumed.report.selected_k, full.report.selected_k);
        assert_eq!(
            resumed.report.projected_cycles,
            full.report.projected_cycles
        );
        assert_eq!(
            resumed.selection.representative_ids(),
            full.selection.representative_ids()
        );
    }

    /// A token cancelled before the run starts still bootstraps the prefix
    /// (it is bounded) and stops at the first tail batch boundary.
    #[test]
    fn pre_cancelled_run_stops_at_first_boundary() {
        let mut src = source(2_000);
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut checkpoints = 0u32;
        let mut at_records = 0u64;
        let result = StreamPks::new(small_config()).run_from(
            &mut src,
            None,
            |cp| {
                checkpoints += 1;
                at_records = cp.records;
                Ok(())
            },
            &cancel,
        );
        assert_eq!(result.unwrap_err(), StreamError::Cancelled);
        assert_eq!(checkpoints, 1, "exactly the teardown checkpoint");
        assert_eq!(at_records, 200, "stopped right after the prefix");
    }
}
