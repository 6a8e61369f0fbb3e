//! The two-level silicon profiling substrate.
//!
//! PKA's inputs come from profilers, not simulators: **Nsight Compute**
//! collects the 12 detailed metrics of Table 2 (at a brutal per-kernel
//! replay cost — Figure 1 shows detailed profiling of scaled workloads
//! taking weeks to months), while **Nsight Systems** streams lightweight
//! records (kernel name + launch geometry) at negligible cost, augmented
//! for MLPerf by **PyProf** tensor/layer annotations.
//!
//! This crate reproduces both levels against the synthetic silicon:
//!
//! * [`DetailedRecord`] — Table 2 metrics plus measured cycles for one
//!   kernel, as Nsight Compute would report.
//! * [`LightweightRecord`] — name, grid and block geometry, shared-memory
//!   footprint, and PyProf-style tensor volume.
//! * [`Profiler`] — produces either stream for any workload and
//!   architecture, tracks the modelled wall-clock profiling cost, and
//!   decides when detailed profiling is *intractable* (the paper's
//!   one-week rule) so the caller must fall back to two-level profiling.
//! * [`AppSiliconRun`] — a plain (unprofiled) silicon run of the whole
//!   application: the ground truth every error column in Table 4 is
//!   measured against.
//!
//! # Examples
//!
//! ```
//! use pka_gpu::GpuConfig;
//! use pka_profile::Profiler;
//! use pka_workloads::rodinia;
//!
//! let gaussian = rodinia::workloads()
//!     .into_iter()
//!     .find(|w| w.name() == "gauss_208")
//!     .expect("exists");
//! let profiler = Profiler::new(GpuConfig::v100());
//! let records = profiler.detailed(&gaussian, 0..gaussian.kernel_count())?;
//! assert_eq!(records.len(), 414);
//! # Ok::<(), pka_gpu::GpuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod records;

pub use cost::{
    lightweight_profiling_seconds, ProfilingCost, DETAILED_SECONDS_PER_KERNEL,
    INTRACTABLE_PROFILING_SECONDS, LIGHTWEIGHT_SECONDS_PER_KERNEL,
};
pub use records::{DetailedRecord, LightweightRecord};

use std::ops::Range;

use pka_gpu::{GpuConfig, GpuError, KernelId, KernelMetrics, SiliconExecutor};
use pka_stats::Executor;
use pka_workloads::Workload;

/// A plain end-to-end silicon run of an application (no profiler attached):
/// the ground truth for every error figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSiliconRun {
    /// Total kernel cycles across the whole launch stream.
    pub total_cycles: u64,
    /// Total execution seconds at the configured clock.
    pub total_seconds: f64,
    /// Number of kernels executed.
    pub kernels: u64,
}

/// The profiler pair (Nsight Compute + Nsight Systems) against one GPU.
#[derive(Debug, Clone)]
pub struct Profiler {
    silicon: SiliconExecutor,
    exec: Executor,
}

impl Profiler {
    /// Creates a profiler attached to `config`.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            silicon: SiliconExecutor::new(config),
            exec: Executor::sequential(),
        }
    }

    /// Fans per-kernel silicon runs out over `exec` (results stay in
    /// launch-stream order, so totals are bitwise identical to sequential).
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The architecture being profiled.
    pub fn config(&self) -> &GpuConfig {
        self.silicon.config()
    }

    /// Runs the application end-to-end with no profiler attached.
    ///
    /// # Errors
    ///
    /// Propagates [`GpuError`] from unlaunchable kernels.
    pub fn silicon_run(&self, workload: &Workload) -> Result<AppSiliconRun, GpuError> {
        let _span = pka_obs::span("profile.silicon_run");
        let ids: Vec<u64> = (0..workload.kernel_count()).collect();
        let runs = self.exec.try_map(&ids, |_, &id| {
            let kernel = workload.kernel(KernelId::new(id));
            self.silicon.execute(&kernel).map(|r| (r.cycles, r.seconds))
        })?;
        // Fold in launch-stream order so the float total is bitwise stable.
        let mut total_cycles = 0u64;
        let mut total_seconds = 0.0f64;
        for (cycles, seconds) in runs {
            total_cycles += cycles;
            total_seconds += seconds;
        }
        Ok(AppSiliconRun {
            total_cycles,
            total_seconds,
            kernels: workload.kernel_count(),
        })
    }

    /// Detailed (Nsight Compute) profiling of the kernels in `range`.
    ///
    /// # Errors
    ///
    /// Propagates [`GpuError`] from unlaunchable kernels.
    pub fn detailed(
        &self,
        workload: &Workload,
        range: Range<u64>,
    ) -> Result<Vec<DetailedRecord>, GpuError> {
        let _span = pka_obs::span("profile.detailed");
        let ids: Vec<u64> = range.collect();
        if pka_obs::enabled() {
            pka_obs::counter("profile.detailed_records").add(ids.len() as u64);
        }
        self.exec.try_map(&ids, |_, &id| {
            let kernel = workload.kernel(KernelId::new(id));
            let silicon = self.silicon.execute(&kernel)?;
            let metrics = KernelMetrics::from_descriptor(&kernel, self.config().generation());
            Ok(DetailedRecord::new(
                KernelId::new(id),
                &kernel,
                metrics,
                silicon,
            ))
        })
    }

    /// Lightweight (Nsight Systems + PyProf) profiling of the kernels in
    /// `range`.
    pub fn lightweight(&self, workload: &Workload, range: Range<u64>) -> Vec<LightweightRecord> {
        range
            .map(|id| {
                let kernel = workload.kernel(KernelId::new(id));
                LightweightRecord::new(KernelId::new(id), &kernel)
            })
            .collect()
    }

    /// The modelled wall-clock cost of profiling this workload, used to
    /// decide between one-level and two-level profiling (Figure 1 and the
    /// one-week rule of Section 3.1).
    pub fn profiling_cost(&self, workload: &Workload) -> ProfilingCost {
        ProfilingCost::for_kernel_count(workload.kernel_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_workloads::{mlperf, rodinia};

    fn gaussian() -> Workload {
        rodinia::workloads()
            .into_iter()
            .find(|w| w.name() == "gauss_208")
            .unwrap()
    }

    #[test]
    fn detailed_records_cover_range() {
        let p = Profiler::new(GpuConfig::v100());
        let w = gaussian();
        let records = p.detailed(&w, 10..20).unwrap();
        assert_eq!(records.len(), 10);
        assert_eq!(records[0].kernel_id, KernelId::new(10));
        assert!(records.iter().all(|r| r.cycles > 0));
    }

    #[test]
    fn lightweight_has_no_metrics_but_geometry() {
        let p = Profiler::new(GpuConfig::v100());
        let w = gaussian();
        let records = p.lightweight(&w, 0..5);
        assert_eq!(records.len(), 5);
        assert!(records.iter().all(|r| r.grid_blocks > 0));
    }

    #[test]
    fn silicon_run_sums_kernels() {
        let p = Profiler::new(GpuConfig::v100());
        let w = gaussian();
        let run = p.silicon_run(&w).unwrap();
        assert_eq!(run.kernels, 414);
        assert!(run.total_seconds > 0.0);
        let single = p.detailed(&w, 0..1).unwrap()[0].cycles;
        assert!(run.total_cycles > single);
    }

    #[test]
    fn mlperf_detailed_profiling_is_intractable() {
        let p = Profiler::new(GpuConfig::v100());
        let ssd = mlperf::workloads()
            .into_iter()
            .find(|w| w.name() == "mlperf_ssd_train")
            .unwrap();
        let cost = p.profiling_cost(&ssd);
        assert!(cost.detailed_is_intractable());
        let g = p.profiling_cost(&gaussian());
        assert!(!g.detailed_is_intractable());
    }
}
