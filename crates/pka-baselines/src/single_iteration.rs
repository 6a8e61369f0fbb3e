use pka_core::PkaError;
use pka_gpu::{GpuConfig, KernelId};
use pka_profile::Profiler;
use pka_sim::{SimOptions, Simulator};
use pka_stats::error::abs_pct_error;
use pka_workloads::Workload;

/// The NVArchSim-style single-iteration methodology (Section 6): simulate
/// one full training/inference iteration of an iteration-structured
/// workload and scale the result by the iteration count.
///
/// Accurate for well-behaved ML workloads — the paper finds it comparable
/// to PKA on ResNet — but it (a) requires contextual knowledge of the
/// application's iteration structure, (b) costs roughly 3× a PKS-only run
/// and 48× a PKA run, and (c) is not a general solution (no iteration, no
/// methodology).
#[derive(Debug, Clone)]
pub struct SingleIteration {
    simulator: Simulator,
    profiler: Profiler,
}

/// Outcome of a [`SingleIteration`] evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleIterationReport {
    /// Workload name.
    pub workload: String,
    /// Kernels per iteration (the contextual knowledge this method needs).
    pub iteration_kernels: u64,
    /// Iterations the scaling assumed.
    pub iterations: u64,
    /// Projected application cycles.
    pub projected_cycles: u64,
    /// Measured silicon cycles (the reference).
    pub silicon_cycles: u64,
    /// Projection error versus silicon, percent.
    pub error_pct: f64,
    /// Simulator cycles actually spent (one full iteration).
    pub simulated_cycles: u64,
}

impl SingleIteration {
    /// Creates the baseline.
    pub fn new(gpu: GpuConfig, sim_options: SimOptions) -> Self {
        Self {
            simulator: Simulator::new(gpu.clone(), sim_options),
            profiler: Profiler::new(gpu),
        }
    }

    /// Runs the methodology on `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`PkaError::InvalidInput`] if the workload has no iteration
    /// structure (the method's fundamental limitation), and propagates
    /// simulation failures.
    pub fn evaluate(&self, workload: &Workload) -> Result<SingleIterationReport, PkaError> {
        let _span = pka_obs::span("baseline.single_iteration");
        let period = workload
            .iteration_hint()
            .ok_or_else(|| PkaError::InvalidInput {
                message: format!(
                    "`{}` has no iteration structure; single-iteration scaling needs one",
                    workload.name()
                ),
            })?;
        let silicon = self.profiler.silicon_run(workload)?;

        let mut iteration_cycles = 0u64;
        for id in 0..period.min(workload.kernel_count()) {
            let kernel = workload.kernel(KernelId::new(id));
            iteration_cycles += self.simulator.run_kernel(&kernel)?.cycles;
        }
        let iterations = workload.kernel_count().div_ceil(period);
        let projected = iteration_cycles * iterations;

        Ok(SingleIterationReport {
            workload: workload.name().to_string(),
            iteration_kernels: period,
            iterations,
            projected_cycles: projected,
            silicon_cycles: silicon.total_cycles,
            error_pct: abs_pct_error(projected as f64, silicon.total_cycles as f64),
            simulated_cycles: iteration_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_workloads::{polybench, rodinia, Workload};

    fn tiny_gpu() -> GpuConfig {
        GpuConfig::builder("tiny8").num_sms(8).build().unwrap()
    }

    fn find(suite: Vec<Workload>, name: &str) -> Workload {
        suite.into_iter().find(|w| w.name() == name).unwrap()
    }

    #[test]
    fn iteration_structured_workload_projects_well() {
        let b = SingleIteration::new(tiny_gpu(), SimOptions::default());
        let w = find(rodinia::workloads(), "srad_v1");
        let r = b.evaluate(&w).unwrap();
        assert_eq!(r.iteration_kernels, 2);
        assert_eq!(r.iterations, 51);
        assert!(r.error_pct < 25.0, "{}", r.error_pct);
    }

    #[test]
    fn unstructured_workload_is_rejected() {
        let b = SingleIteration::new(tiny_gpu(), SimOptions::default());
        let w = find(polybench::workloads(), "gemm");
        let err = b.evaluate(&w).unwrap_err();
        assert!(matches!(err, PkaError::InvalidInput { .. }));
    }

    #[test]
    fn simulates_exactly_one_iteration() {
        let b = SingleIteration::new(tiny_gpu(), SimOptions::default());
        let w = find(rodinia::workloads(), "gauss_208");
        let r = b.evaluate(&w).unwrap();
        assert_eq!(r.iteration_kernels, 2);
        // One iteration's cost, not the app's.
        assert!(r.simulated_cycles * 100 < r.projected_cycles);
    }
}
