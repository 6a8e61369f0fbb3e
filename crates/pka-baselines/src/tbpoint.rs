use pka_core::PkaError;
use pka_gpu::{GpuConfig, KernelId};
use pka_ml::{Agglomerative, Matrix, StandardScaler};
use pka_profile::Profiler;
use pka_sim::{SampleContext, SimControl, SimMonitor, SimOptions, Simulator};
use pka_stats::error::abs_pct_error;
use pka_workloads::Workload;

/// Configuration for the TBPoint baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TbPointConfig {
    /// Number of thresholds swept between `threshold_min` and
    /// `threshold_max` (paper: 20 values in \[0.01, 0.2\]).
    pub threshold_steps: usize,
    /// Smallest normalised-distance cut threshold.
    pub threshold_min: f64,
    /// Largest cut threshold.
    pub threshold_max: f64,
    /// Projection-error target used to pick among the sweep, matching the
    /// criterion PKS uses (Section 5.1).
    pub target_error_pct: f64,
    /// Fraction of each representative kernel's thread blocks TBPoint
    /// simulates before projecting (its conservative intra-kernel
    /// reduction).
    pub block_fraction: f64,
    /// Hard cap on the number of kernels the quadratic clustering will
    /// accept — the scalability wall the paper attacks.
    pub max_kernels: u64,
}

impl Default for TbPointConfig {
    fn default() -> Self {
        Self {
            threshold_steps: 20,
            threshold_min: 0.01,
            threshold_max: 0.2,
            target_error_pct: 5.0,
            block_fraction: 0.5,
            max_kernels: 2_000,
        }
    }
}

/// Outcome of a [`TbPoint`] evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TbPointReport {
    /// Workload name.
    pub workload: String,
    /// Clusters produced at the chosen threshold.
    pub clusters: usize,
    /// The chosen cut threshold.
    pub threshold: f64,
    /// Projected application cycles.
    pub projected_cycles: u64,
    /// Measured silicon cycles (the reference).
    pub silicon_cycles: u64,
    /// Projection error versus silicon, percent.
    pub error_pct: f64,
    /// Simulator cycles actually spent.
    pub simulated_cycles: u64,
}

/// Stops a kernel once a fraction of its thread blocks has retired.
#[derive(Debug, Clone, Copy)]
struct BlockFractionMonitor {
    fraction: f64,
}

impl SimMonitor for BlockFractionMonitor {
    fn observe(&mut self, ctx: &SampleContext) -> SimControl {
        let target = (ctx.blocks_total as f64 * self.fraction).ceil() as u64;
        if ctx.blocks_completed >= target.max(1) {
            SimControl::Stop
        } else {
            SimControl::Continue
        }
    }
}

/// The TBPoint baseline (Huang et al., IPDPS 2014), as reimplemented by the
/// paper for its quantitative comparison: hierarchical clustering over
/// per-kernel statistics from full functional simulation, a 20-point
/// threshold sweep standing in for the original hand-tuned threshold, and
/// thread-block-sampled simulation of each cluster representative.
///
/// Deliberately inherits TBPoint's scalability limits: the clustering is
/// quadratic in memory (workloads beyond
/// [`max_kernels`](TbPointConfig::max_kernels) are rejected), and the
/// statistics it clusters on presuppose a *complete* functional simulation
/// of the application — which is exactly what scaled workloads rule out.
#[derive(Debug, Clone)]
pub struct TbPoint {
    simulator: Simulator,
    profiler: Profiler,
    config: TbPointConfig,
}

impl TbPoint {
    /// Creates the baseline.
    pub fn new(gpu: GpuConfig, sim_options: SimOptions, config: TbPointConfig) -> Self {
        Self {
            simulator: Simulator::new(gpu.clone(), sim_options),
            profiler: Profiler::new(gpu),
            config,
        }
    }

    /// Runs TBPoint on `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`PkaError::InvalidInput`] when the workload exceeds the
    /// clustering capacity (TBPoint's scalability wall), and propagates
    /// profiling/simulation failures.
    pub fn evaluate(&self, workload: &Workload) -> Result<TbPointReport, PkaError> {
        if workload.kernel_count() > self.config.max_kernels {
            return Err(PkaError::InvalidInput {
                message: format!(
                    "TBPoint's hierarchical clustering cannot handle `{}`: {} kernels \
                     exceed the {}-kernel capacity (O(n^2) distance matrix)",
                    workload.name(),
                    workload.kernel_count(),
                    self.config.max_kernels
                ),
            });
        }
        let _span = pka_obs::span("baseline.tbpoint");
        let n = workload.kernel_count();
        // TBPoint's per-kernel statistics come from full functional
        // simulation; the detailed metric set is the equivalent here.
        let records = {
            let _s = pka_obs::span("baseline.tbpoint.profile");
            self.profiler.detailed(workload, 0..n)?
        };
        let silicon: u64 = records.iter().map(|r| r.cycles).sum();

        let cluster_span = pka_obs::span("baseline.tbpoint.cluster");
        // Normalised feature space for threshold-comparable distances.
        let features = pka_core::feature_matrix(&records)?;
        let (_, scaled) = StandardScaler::fit_transform(&features)?;
        let normalised = normalise_rows(&scaled)?;

        // Threshold sweep, same selection criterion as PKS. The dendrogram
        // is built once (the expensive quadratic part) and cut twenty times
        // (near-linear each).
        let tree = Agglomerative::new().dendrogram(&normalised)?;
        let steps = self.config.threshold_steps.max(1);
        let mut best: Option<(f64, f64, Vec<usize>)> = None; // (err, t, labels)
        for i in 0..steps {
            let t = self.config.threshold_min
                + (self.config.threshold_max - self.config.threshold_min) * i as f64
                    / (steps - 1).max(1) as f64;
            // Scale the normalised threshold to the feature-space diameter.
            let cut = t * (scaled.cols() as f64).sqrt() * 2.0;
            let labels = tree.cut(cut);
            let err = projection_error(&records, &labels, silicon);
            let candidate_err = err;
            if candidate_err <= self.config.target_error_pct {
                best = Some((candidate_err, t, labels));
                break;
            }
            if best.as_ref().is_none_or(|(b, _, _)| candidate_err < *b) {
                best = Some((candidate_err, t, labels));
            }
        }
        drop(cluster_span);
        let (_, threshold, labels) = best.expect("at least one threshold swept");
        let clusters = labels.iter().copied().max().map_or(0, |m| m + 1);

        // Representatives: first chronological member of each cluster,
        // simulated with thread-block sampling.
        let mut rep_of = vec![None::<usize>; clusters];
        let mut counts = vec![0u64; clusters];
        for (i, &l) in labels.iter().enumerate() {
            counts[l] += 1;
            if rep_of[l].is_none() {
                rep_of[l] = Some(i);
            }
        }
        let _sim_span = pka_obs::span("baseline.tbpoint.simulate");
        let mut projected = 0u64;
        let mut spent = 0u64;
        for (cluster, rep) in rep_of.into_iter().enumerate() {
            let rep = rep.expect("every cluster has a member");
            let kernel = workload.kernel(KernelId::new(rep as u64));
            let mut monitor = BlockFractionMonitor {
                fraction: self.config.block_fraction,
            };
            let result = self.simulator.run_kernel_monitored(&kernel, &mut monitor)?;
            spent += result.cycles;
            projected += result.projected_total_cycles() * counts[cluster];
        }

        Ok(TbPointReport {
            workload: workload.name().to_string(),
            clusters,
            threshold,
            projected_cycles: projected,
            silicon_cycles: silicon,
            error_pct: abs_pct_error(projected as f64, silicon as f64),
            simulated_cycles: spent,
        })
    }
}

/// Error of the cluster-and-scale projection using silicon cycles (the
/// sweep criterion only — simulation happens once, after the sweep).
fn projection_error(
    records: &[pka_profile::DetailedRecord],
    labels: &[usize],
    silicon: u64,
) -> f64 {
    let clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut rep_cycles = vec![None::<u64>; clusters];
    let mut counts = vec![0u64; clusters];
    for (i, &l) in labels.iter().enumerate() {
        counts[l] += 1;
        if rep_cycles[l].is_none() {
            rep_cycles[l] = Some(records[i].cycles);
        }
    }
    let projected: u64 = rep_cycles
        .iter()
        .zip(&counts)
        .map(|(c, &n)| c.expect("cluster non-empty") * n)
        .sum();
    abs_pct_error(projected as f64, silicon as f64)
}

/// Rescales every column into `[0, 1]` so distance thresholds are
/// dimensionless.
fn normalise_rows(m: &Matrix) -> Result<Matrix, PkaError> {
    let mut lo = vec![f64::INFINITY; m.cols()];
    let mut hi = vec![f64::NEG_INFINITY; m.cols()];
    for row in m.iter_rows() {
        for (j, &x) in row.iter().enumerate() {
            lo[j] = lo[j].min(x);
            hi[j] = hi[j].max(x);
        }
    }
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            let span = hi[j] - lo[j];
            let v = if span > 0.0 {
                (m.get(i, j) - lo[j]) / span
            } else {
                0.0
            };
            out.set(i, j, v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_workloads::{mlperf, parboil, rodinia, Workload};

    fn tiny_gpu() -> GpuConfig {
        GpuConfig::builder("tiny8").num_sms(8).build().unwrap()
    }

    fn find(suite: Vec<Workload>, name: &str) -> Workload {
        suite.into_iter().find(|w| w.name() == name).unwrap()
    }

    #[test]
    fn clusters_homogeneous_workload_to_one_group() {
        let tb = TbPoint::new(tiny_gpu(), SimOptions::default(), TbPointConfig::default());
        let r = tb
            .evaluate(&find(rodinia::workloads(), "bfs65536"))
            .unwrap();
        assert_eq!(r.clusters, 1);
        // The error budget includes the simulator-vs-silicon gap, which is
        // substantial for an irregular kernel on a small configuration.
        assert!(r.error_pct < 60.0, "{}", r.error_pct);
    }

    #[test]
    fn separates_heterogeneous_kernels() {
        let tb = TbPoint::new(tiny_gpu(), SimOptions::default(), TbPointConfig::default());
        let r = tb.evaluate(&find(parboil::workloads(), "cutcp")).unwrap();
        assert!(r.clusters >= 2, "{}", r.clusters);
        assert!(r.clusters <= 11);
    }

    #[test]
    fn refuses_scaled_workloads() {
        let tb = TbPoint::new(tiny_gpu(), SimOptions::default(), TbPointConfig::default());
        let ssd = find(mlperf::workloads(), "mlperf_ssd_train");
        let err = tb.evaluate(&ssd).unwrap_err();
        assert!(matches!(err, PkaError::InvalidInput { .. }));
        assert!(err.to_string().contains("hierarchical"));
    }

    #[test]
    fn block_sampling_spends_less_than_full_kernels() {
        let tb = TbPoint::new(tiny_gpu(), SimOptions::default(), TbPointConfig::default());
        let w = find(rodinia::workloads(), "bfs65536");
        let r = tb.evaluate(&w).unwrap();
        // Simulating ~half the blocks of one representative costs less
        // than the projected single-kernel cycles.
        assert!(r.simulated_cycles < r.projected_cycles / 10);
    }
}
