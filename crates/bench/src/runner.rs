use std::collections::HashMap;
use std::sync::Mutex;

use pka_core::{Pka, PkaConfig, PkaError, Selection, SimulationReport};
use pka_gpu::GpuConfig;
use pka_profile::AppSiliconRun;
use pka_workloads::Workload;

/// A cache mutex is poisoned only if a report generator panicked.
const POISONED: &str = "a report generator panicked while holding a runner cache";

/// Knobs for the experiment battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnerOptions {
    /// Workloads whose total warp-instruction count exceeds this are not
    /// fully simulated (their full-simulation time is projected from
    /// silicon cycles, exactly as the paper projects its centuries).
    pub fullsim_max_instructions: u64,
    /// The PKA pipeline configuration.
    pub pka: PkaConfig,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        Self {
            fullsim_max_instructions: 25_000_000,
            pka: PkaConfig::default(),
        }
    }
}

impl RunnerOptions {
    /// A reduced configuration for smoke tests: tiny full-simulation budget.
    pub fn quick() -> Self {
        Self {
            fullsim_max_instructions: 3_000_000,
            ..Self::default()
        }
    }
}

/// Memoised executor of the experiment building blocks.
///
/// The silicon and simulation caches key on `(gpu name, workload name)`;
/// selections are always made on Volta and transferred, matching Section
/// 5.2.2. Every simulation number comes from [`Pka::simulate_selection`],
/// the evaluator `pka simulate` uses. The caches sit behind mutexes so the
/// runner is `Sync` and report generation can share one runner across
/// worker threads.
pub struct ExperimentRunner {
    options: RunnerOptions,
    volta: Pka,
    silicon_cache: Mutex<HashMap<(String, String), AppSiliconRun>>,
    selection_cache: Mutex<HashMap<String, Selection>>,
    simulation_cache: Mutex<HashMap<(String, String), SimulationReport>>,
}

impl ExperimentRunner {
    /// Creates a runner.
    pub fn new(options: RunnerOptions) -> Self {
        Self {
            options,
            volta: Pka::new(GpuConfig::v100(), options.pka),
            silicon_cache: Mutex::new(HashMap::new()),
            selection_cache: Mutex::new(HashMap::new()),
            simulation_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The configured options.
    pub fn options(&self) -> &RunnerOptions {
        &self.options
    }

    /// Total warp instructions of a workload (cheap, cached by callers).
    pub fn total_instructions(workload: &Workload) -> u64 {
        workload
            .iter()
            .map(|(_, k)| k.total_warp_instructions())
            .sum()
    }

    /// Whether full simulation is inside the budget for `workload`.
    pub fn fullsim_tractable(&self, workload: &Workload) -> bool {
        // Streams with millions of kernels are never candidates; for the
        // rest, bound by total instructions.
        workload.kernel_count() <= 20_000
            && Self::total_instructions(workload) <= self.options.fullsim_max_instructions
    }

    /// The whole-application silicon run on `gpu`, cached.
    ///
    /// # Errors
    ///
    /// Propagates silicon-model failures.
    pub fn silicon(&self, workload: &Workload, gpu: &GpuConfig) -> Result<AppSiliconRun, PkaError> {
        let key = (gpu.name().to_string(), workload.name().to_string());
        if let Some(run) = self.silicon_cache.lock().expect(POISONED).get(&key) {
            cache_obs(true);
            return Ok(*run);
        }
        cache_obs(false);
        let run = self.pipeline(gpu).profiler().silicon_run(workload)?;
        self.silicon_cache.lock().expect(POISONED).insert(key, run);
        Ok(run)
    }

    /// The Volta-made principal-kernel selection, cached.
    ///
    /// # Errors
    ///
    /// Propagates profiling and clustering failures.
    pub fn selection(&self, workload: &Workload) -> Result<Selection, PkaError> {
        if let Some(sel) = self
            .selection_cache
            .lock()
            .expect(POISONED)
            .get(workload.name())
        {
            cache_obs(true);
            return Ok(sel.clone());
        }
        cache_obs(false);
        let sel = self.volta.select_kernels(workload)?;
        self.selection_cache
            .lock()
            .expect(POISONED)
            .insert(workload.name().to_string(), sel.clone());
        Ok(sel)
    }

    /// The sampled simulation (PKS and PKA) of `workload` on `gpu` with the
    /// Volta selection, plus the full-simulation baseline iff `baseline` is
    /// set and [`fullsim_tractable`](Self::fullsim_tractable) holds; cached.
    /// A cached report with a baseline also answers a request without one.
    ///
    /// # Errors
    ///
    /// Propagates selection, silicon-model and simulator failures.
    pub fn simulation(
        &self,
        workload: &Workload,
        gpu: &GpuConfig,
        baseline: bool,
    ) -> Result<SimulationReport, PkaError> {
        let key = (gpu.name().to_string(), workload.name().to_string());
        let baseline = baseline && self.fullsim_tractable(workload);
        if let Some(report) = self.simulation_cache.lock().expect(POISONED).get(&key) {
            if !baseline || report.fullsim_cycles.is_some() {
                cache_obs(true);
                return Ok(report.clone());
            }
        }
        cache_obs(false);
        let selection = self.selection(workload)?;
        let silicon = self.silicon(workload, gpu)?;
        let report = self
            .pipeline(gpu)
            .simulate_selection(workload, &selection, &silicon, baseline)?;
        self.simulation_cache
            .lock()
            .expect(POISONED)
            .insert(key, report.clone());
        Ok(report)
    }

    /// The PKA pipeline bound to `gpu` with the runner's configuration.
    pub fn pipeline(&self, gpu: &GpuConfig) -> Pka {
        Pka::new(gpu.clone(), self.options.pka)
    }

    /// The Volta pipeline (for direct access to its profiler and config).
    pub fn volta(&self) -> &Pka {
        &self.volta
    }
}

/// Tallies a cache lookup across the runner's three result caches.
fn cache_obs(hit: bool) {
    if pka_obs::enabled() {
        if hit {
            pka_obs::counter("runner.cache_hits").incr();
        } else {
            pka_obs::counter("runner.cache_misses").incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_workloads::rodinia;

    fn bfs() -> Workload {
        rodinia::workloads()
            .into_iter()
            .find(|w| w.name() == "bfs65536")
            .unwrap()
    }

    #[test]
    fn caches_are_hit() {
        let runner = ExperimentRunner::new(RunnerOptions::quick());
        let w = bfs();
        let gpu = GpuConfig::v100();
        let a = runner.silicon(&w, &gpu).unwrap();
        let b = runner.silicon(&w, &gpu).unwrap();
        assert_eq!(a, b);
        assert_eq!(runner.silicon_cache.lock().unwrap().len(), 1);

        let s1 = runner.selection(&w).unwrap();
        let s2 = runner.selection(&w).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn baseline_respects_budget() {
        let runner = ExperimentRunner::new(RunnerOptions {
            fullsim_max_instructions: 1,
            ..RunnerOptions::default()
        });
        let report = runner.simulation(&bfs(), &GpuConfig::v100(), true).unwrap();
        assert!(report.fullsim_cycles.is_none());
    }

    #[test]
    fn a_baseline_report_answers_a_sampled_request() {
        let runner = ExperimentRunner::new(RunnerOptions::quick());
        let w = bfs();
        let gpu = GpuConfig::v100();
        let sampled = runner.simulation(&w, &gpu, false).unwrap();
        assert!(sampled.fullsim_cycles.is_none());
        assert!(sampled.pka_simulated_cycles <= sampled.pks_simulated_cycles);

        // A baseline request replaces the sampled-only entry; its sampled
        // numbers are the same, and it then answers both kinds of request.
        let full = runner.simulation(&w, &gpu, true).unwrap();
        assert!(full.fullsim_cycles.is_some());
        assert_eq!(full.pks_projected_cycles, sampled.pks_projected_cycles);
        assert_eq!(full.pka_projected_cycles, sampled.pka_projected_cycles);
        assert_eq!(runner.simulation(&w, &gpu, false).unwrap(), full);
        assert_eq!(runner.simulation_cache.lock().unwrap().len(), 1);
    }
}
