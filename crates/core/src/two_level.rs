use std::ops::Range;

use pka_gpu::KernelId;
use pka_ml::classify::{Ensemble, EnsembleMemo, GaussianNb, MlpClassifier, SgdClassifier};
use pka_ml::Matrix;
use pka_profile::{LightweightRecord, Profiler};
use pka_stats::Executor;
use pka_workloads::Workload;

use crate::{PkaError, Pks, PksConfig, Selection};

/// Tail kernels classified per parallel work item. Large enough that the
/// per-chunk overhead vanishes, small enough to load-balance millions of
/// lightweight records across workers.
const CLASSIFY_CHUNK: u64 = 4096;

/// Tail kernels per memo lookup batch within a chunk. A batch's misses go
/// to the ensemble together and only then enter the memo, so small
/// batches let each chunk's memo start answering early.
const MEMO_BATCH: u64 = 64;

/// Configuration for the two-level profiling pipeline.
///
/// # Examples
///
/// ```
/// use pka_core::TwoLevelConfig;
///
/// let config = TwoLevelConfig::default();
/// assert!(config.detailed_prefix_cap() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLevelConfig {
    pks: PksConfig,
    detailed_prefix_cap: u64,
    classifier_seed: u64,
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        Self {
            pks: PksConfig::default(),
            // The paper detail-profiles 20k of SSD training's 5.3M kernels.
            detailed_prefix_cap: 20_000,
            classifier_seed: 0,
        }
    }
}

impl TwoLevelConfig {
    /// Sets the PKS configuration applied to the detailed prefix.
    pub fn with_pks(mut self, pks: PksConfig) -> Self {
        self.pks = pks;
        self
    }

    /// Caps how many kernels are profiled in detail (the paper's *j*).
    pub fn with_detailed_prefix_cap(mut self, cap: u64) -> Self {
        self.detailed_prefix_cap = cap.max(1);
        self
    }

    /// Sets the classifier training seed.
    pub fn with_classifier_seed(mut self, seed: u64) -> Self {
        self.classifier_seed = seed;
        self
    }

    /// The PKS configuration.
    pub fn pks(&self) -> PksConfig {
        self.pks
    }

    /// The detailed-prefix cap *j*.
    pub fn detailed_prefix_cap(&self) -> u64 {
        self.detailed_prefix_cap
    }
}

/// The two-level profiling pipeline of Section 3.1 and Figure 3: detailed
/// profiling on the first *j* kernels, Principal Kernel Selection over
/// those, then an SGD + Gaussian-naive-Bayes + MLP majority-vote mapping of
/// every remaining lightweight record onto the detailed groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLevel {
    config: TwoLevelConfig,
    exec: Executor,
}

impl TwoLevel {
    /// Creates the pipeline.
    pub fn new(config: TwoLevelConfig) -> Self {
        Self {
            config,
            exec: Executor::sequential(),
        }
    }

    /// Fans the detailed prefix, the clustering sweep and the tail
    /// classification out over `exec` (deterministic: per-chunk group counts
    /// are folded in stream order).
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The effective detailed prefix *j* for a workload: everything if the
    /// stream is small, the configured cap otherwise.
    pub fn detailed_prefix(&self, workload: &Workload) -> u64 {
        workload.kernel_count().min(self.config.detailed_prefix_cap)
    }

    /// Runs the full two-level analysis and returns a [`Selection`] whose
    /// group counts cover the *entire* stream (detailed members plus
    /// classified lightweight members).
    ///
    /// # Errors
    ///
    /// Propagates profiling, clustering and classification failures.
    pub fn analyze(&self, workload: &Workload, profiler: &Profiler) -> Result<Selection, PkaError> {
        let j = self.detailed_prefix(workload);
        let detailed = profiler.detailed(workload, 0..j)?;
        let mut selection = Pks::new(self.config.pks)
            .with_executor(self.exec)
            .select(&detailed)?;
        if j == workload.kernel_count() {
            return Ok(selection);
        }

        // Train the mapping on the detailed prefix's *lightweight* view —
        // at inference time only lightweight features exist.
        let train_span = pka_obs::span("two_level.train");
        let train_records = profiler.lightweight(workload, 0..j);
        let x = lightweight_matrix(&train_records)?;
        let ensemble = fit_tail_ensemble(&x, selection.labels(), self.config.classifier_seed)?;
        drop(train_span);

        // Classify the tail — millions of kernels for MLPerf — in chunks:
        // each chunk reads its launches' features straight from the
        // workload's launch views (bit-equal to materialising each record),
        // labels them through its own memo, and reduces to per-group
        // counts. Group counts are order-independent sums, so the result
        // is identical for any worker count.
        let _classify_span = pka_obs::span("two_level.classify");
        let k = selection.k();
        let dims = LightweightRecord::FEATURE_COUNT;
        let chunks: Vec<Range<u64>> = chunk_ranges(j, workload.kernel_count(), CLASSIFY_CHUNK);
        let counts = self.exec.try_map(&chunks, |_, chunk| {
            let mut memo = EnsembleMemo::new(&ensemble, dims);
            let mut flat = Vec::with_capacity(MEMO_BATCH as usize * dims);
            let mut labels = Vec::new();
            let mut counts = vec![0u64; k];
            let mut hits = 0;
            for batch in chunk_ranges(chunk.start, chunk.end, MEMO_BATCH) {
                flat.clear();
                for id in batch {
                    let view = workload.launch_view(KernelId::new(id));
                    LightweightRecord::write_features(
                        view.name,
                        view.total_blocks,
                        view.threads_per_block,
                        view.shared_mem_per_block,
                        view.total_threads(),
                        &mut flat,
                    );
                }
                hits += memo.predict_into(&flat, &mut labels)?;
                for &group in &labels {
                    counts[group] += 1;
                }
            }
            if pka_obs::enabled() {
                // One flush per chunk (CLASSIFY_CHUNK kernels), not per
                // prediction.
                pka_obs::counter("two_level.classified").add(chunk.end - chunk.start);
                pka_obs::counter("two_level.memo_hits").add(hits as u64);
            }
            Ok::<_, PkaError>(counts)
        })?;
        for chunk_counts in counts {
            for (group, &n) in chunk_counts.iter().enumerate() {
                selection.add_classified_members(group, n);
            }
        }
        Ok(selection)
    }
}

/// Fits the tail classifier ensemble of the two-level split on the
/// detailed prefix's lightweight features `x` and PKS labels `y`: SGD,
/// Gaussian naive Bayes and an MLP, voted in that order, with the SGD
/// seeded by `seed` and the MLP by `seed ^ 0xff`. The batch pipeline and
/// the stream engine both train through here, which is what makes their
/// tail labels agree.
///
/// # Errors
///
/// Propagates model fitting failures.
pub fn fit_tail_ensemble(x: &Matrix, y: &[usize], seed: u64) -> Result<Ensemble, PkaError> {
    Ok(Ensemble::new(vec![
        Box::new(SgdClassifier::fit(x, y, seed)?),
        Box::new(GaussianNb::fit(x, y)?),
        Box::new(MlpClassifier::fit(x, y, seed ^ 0xff)?),
    ]))
}

/// Splits `[start, end)` into consecutive ranges of at most `chunk` items.
fn chunk_ranges(start: u64, end: u64, chunk: u64) -> Vec<Range<u64>> {
    let mut out = Vec::new();
    let mut lo = start;
    while lo < end {
        let hi = end.min(lo + chunk);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Builds the classifier feature matrix from lightweight records.
fn lightweight_matrix(records: &[LightweightRecord]) -> Result<Matrix, PkaError> {
    if records.is_empty() {
        return Err(PkaError::InvalidInput {
            message: "no lightweight records to train on".into(),
        });
    }
    let rows: Vec<Vec<f64>> = records.iter().map(|r| r.to_feature_vector()).collect();
    Ok(Matrix::from_rows(&rows)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_gpu::GpuConfig;
    use pka_workloads::polybench;

    fn gramschmidt() -> Workload {
        polybench::workloads()
            .into_iter()
            .find(|w| w.name() == "gramschmidt")
            .unwrap()
    }

    #[test]
    fn small_workload_short_circuits_to_one_level() {
        let w = polybench::workloads()
            .into_iter()
            .find(|w| w.name() == "fdtd2d")
            .unwrap();
        let profiler = Profiler::new(GpuConfig::v100());
        let two = TwoLevel::new(TwoLevelConfig::default());
        assert_eq!(two.detailed_prefix(&w), w.kernel_count());
        let sel = two.analyze(&w, &profiler).unwrap();
        assert_eq!(sel.kernels_represented(), w.kernel_count());
    }

    #[test]
    fn tail_kernels_are_classified_into_groups() {
        let w = gramschmidt();
        let profiler = Profiler::new(GpuConfig::v100());
        // Detail-profile only 600 of the 6411 kernels; classify the rest.
        let two = TwoLevel::new(TwoLevelConfig::default().with_detailed_prefix_cap(600));
        let sel = two.analyze(&w, &profiler).unwrap();
        assert_eq!(sel.kernels_represented(), w.kernel_count());
        assert!(sel.k() >= 2);
    }

    #[test]
    fn two_level_projection_stays_close_to_full_detail() {
        let w = gramschmidt();
        let profiler = Profiler::new(GpuConfig::v100());
        let silicon = profiler.silicon_run(&w).unwrap();

        let two = TwoLevel::new(TwoLevelConfig::default().with_detailed_prefix_cap(900));
        let sel = two.analyze(&w, &profiler).unwrap();
        let projected = sel.projected_cycles();
        let err = (projected as f64 - silicon.total_cycles as f64).abs()
            / silicon.total_cycles as f64
            * 100.0;
        // The paper's two-level workloads land around 10-30% error; the
        // classified tail must not destroy the projection.
        assert!(err < 40.0, "two-level projection error {err}%");
    }

    #[test]
    fn prefix_cap_is_respected() {
        let two = TwoLevel::new(TwoLevelConfig::default().with_detailed_prefix_cap(100));
        assert_eq!(two.detailed_prefix(&gramschmidt()), 100);
    }
}
