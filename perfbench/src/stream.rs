//! Spans around the `pka-stream` engine and the `pka-ml` classifiers its
//! prefix bootstrap trains. The traced `serve` run applies them to the
//! records its sessions were fed, so these layers are measured on their
//! own, without HTTP or JSON.

use std::time::{Duration, Instant};

use pka_core::Pks;
use pka_ml::classify::{GaussianNb, MlpClassifier, SgdClassifier};
use pka_ml::Matrix;
use pka_profile::DetailedRecord;
use pka_stream::{KernelSource, SourceRecord, StreamConfig, StreamError, StreamPks};

use crate::report::{ms, Report};
use crate::trace::Trace;

/// A [`KernelSource`] that times every pull, split into the detailed
/// prefix and the tail, and notes where the bootstrap gap between them
/// lies.
struct TimedSource<S> {
    inner: S,
    prefix: Duration,
    tail: Duration,
    records: u64,
    last_prefix_end: Option<Instant>,
    first_tail_start: Option<Instant>,
}

impl<S: KernelSource> TimedSource<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            prefix: Duration::ZERO,
            tail: Duration::ZERO,
            records: 0,
            last_prefix_end: None,
            first_tail_start: None,
        }
    }

    fn tail_pull<T>(&mut self, pull: impl FnOnce(&mut S) -> T) -> T {
        let t0 = Instant::now();
        let out = pull(&mut self.inner);
        self.tail += t0.elapsed();
        self.first_tail_start.get_or_insert(t0);
        out
    }
}

impl<S: KernelSource> KernelSource for TimedSource<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn next_record(&mut self, want_detailed: bool) -> Result<Option<SourceRecord>, StreamError> {
        let out = if want_detailed {
            let t0 = Instant::now();
            let out = self.inner.next_record(true);
            let end = Instant::now();
            self.prefix += end - t0;
            self.last_prefix_end = Some(end);
            out
        } else {
            self.tail_pull(|s| s.next_record(false))
        };
        if matches!(out, Ok(Some(_))) {
            self.records += 1;
        }
        out
    }

    fn next_features_into(&mut self, out: &mut Vec<f64>) -> Result<bool, StreamError> {
        let more = self.tail_pull(|s| s.next_features_into(out));
        if matches!(more, Ok(true)) {
            self.records += 1;
        }
        more
    }

    fn skip(&mut self, n: u64) -> Result<u64, StreamError> {
        self.tail_pull(|s| s.skip(n))
    }

    fn restart(&mut self) -> Result<(), StreamError> {
        self.inner.restart()
    }
}

/// Runs `StreamPks` with `config` twice over fresh sources from `source`:
/// once plainly, then through a [`TimedSource`] and a checkpoint callback
/// that measures each checkpoint's serialisation. Pushes the second run's
/// `source.*` and `stream.*` metrics and returns both walls, plain first.
pub fn run_traced<S: KernelSource>(
    config: StreamConfig,
    source: impl Fn() -> S,
    report: &mut Report,
) -> Result<(Duration, Duration), StreamError> {
    let engine = StreamPks::new(config);
    let t0 = Instant::now();
    engine.run(&mut source(), |_| Ok(()))?;
    let plain = t0.elapsed();

    let mut src = TimedSource::new(source());
    let (mut checkpoint_time, mut checkpoint_bytes, mut checkpoints) = (Duration::ZERO, 0u64, 0u64);
    let t0 = Instant::now();
    let outcome = engine.run(&mut src, |cp| {
        let c0 = Instant::now();
        checkpoint_bytes += cp.to_json().len() as u64;
        checkpoints += 1;
        checkpoint_time += c0.elapsed();
        Ok(())
    })?;
    let end = Instant::now();

    let first_tail = src.first_tail_start.unwrap_or(end);
    let bootstrap = first_tail.saturating_duration_since(src.last_prefix_end.unwrap_or(t0));
    let tail_engine = end
        .saturating_duration_since(first_tail)
        .saturating_sub(src.tail + checkpoint_time);
    let r = &outcome.report;
    report.push("source.prefix_ms", "ms", ms(src.prefix));
    report.push("source.tail_ms", "ms", ms(src.tail));
    report.push("source.records", "count", src.records as f64);
    report.push("stream.bootstrap_ms", "ms", ms(bootstrap));
    report.push("stream.tail_ms", "ms", ms(tail_engine));
    report.push("stream.checkpoint_ms", "ms", ms(checkpoint_time));
    report.push("stream.checkpoint_bytes", "bytes", checkpoint_bytes as f64);
    report.push("stream.checkpoints", "count", checkpoints as f64);
    report.push("stream.classified", "count", (r.records - r.prefix) as f64);
    report.push("stream.drifts", "count", r.drifts as f64);
    report.push("stream.reclusters", "count", r.reclusters as f64);
    report.push("stream.max_buffered", "count", r.max_buffered as f64);
    Ok((plain, end - t0))
}

/// Side timings on a run's detailed prefix: PKS selection and provenance,
/// and fitting each tail classifier on it, as the prefix bootstrap does.
/// Pushes their `pks.*` and `ml.*` metrics.
pub fn prefix_side_timings(
    config: &StreamConfig,
    prefix: &[SourceRecord],
    trace: &mut Trace,
    report: &mut Report,
) {
    let records: Vec<DetailedRecord> = prefix
        .iter()
        .map(|r| {
            r.detailed
                .clone()
                .expect("prefix record has its detailed view")
        })
        .collect();
    let pks = Pks::new(config.pks());
    let selection = trace
        .span("pks.select", || pks.select(&records))
        .expect("select");
    trace
        .span("pks.provenance", || pks.provenance(&records, &selection))
        .expect("provenance");
    let rows: Vec<Vec<f64>> = prefix
        .iter()
        .map(|r| r.lightweight.to_feature_vector())
        .collect();
    let x = Matrix::from_rows(&rows).expect("feature matrix");
    let y = selection.labels().to_vec();
    // The default configuration trains with classifier seed 0.
    trace
        .span("ml.fit_sgd", || SgdClassifier::fit(&x, &y, 0))
        .expect("sgd");
    trace
        .span("ml.fit_gnb", || GaussianNb::fit(&x, &y))
        .expect("gnb");
    trace
        .span("ml.fit_mlp", || MlpClassifier::fit(&x, &y, 0xff))
        .expect("mlp");
    for (metric, span) in [
        ("pks.select_ms", "pks.select"),
        ("pks.provenance_ms", "pks.provenance"),
        ("ml.fit_sgd_ms", "ml.fit_sgd"),
        ("ml.fit_gnb_ms", "ml.fit_gnb"),
        ("ml.fit_mlp_ms", "ml.fit_mlp"),
    ] {
        report.push(metric, "ms", trace.total_ms(span));
    }
}
