use std::collections::HashMap;
use std::sync::Mutex;

use pka_core::{Pka, PkaConfig, PkaError, PkpMonitor, ProjectedKernel, Selection};
use pka_gpu::{GpuConfig, KernelId};
use pka_profile::{AppSiliconRun, Profiler};
use pka_sim::Simulator;
use pka_workloads::Workload;

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

/// A sampled-simulation outcome for one `(workload, gpu)` pair, produced
/// with the Volta-made selection (the paper's cross-generation protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledOutcome {
    /// PKS-only projected application cycles (reps simulated fully).
    pub pks_projected_cycles: u64,
    /// Simulator cycles spent by PKS-only.
    pub pks_simulated_cycles: u64,
    /// Full-PKA projected application cycles (reps stopped at stability).
    pub pka_projected_cycles: u64,
    /// Simulator cycles spent by PKA.
    pub pka_simulated_cycles: u64,
    /// PKA-projected DRAM utilisation, percent (group-weighted).
    pub pka_dram_util_pct: f64,
    /// Projected total warp instructions (for IPC-error reporting).
    pub projected_instructions: u64,
}

/// One full-simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullSimOutcome {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total warp instructions.
    pub instructions: u64,
    /// Cycle-weighted DRAM utilisation, percent.
    pub dram_util_pct: f64,
}

/// Memoised executor of the experiment building blocks.
///
/// All caches key on `(gpu name, workload name)`; selections are always
/// made on Volta and transferred, matching Section 5.2.2. The caches sit
/// behind mutexes so the runner is `Sync` and report generation can share
/// one runner across worker threads.
pub struct ExperimentRunner {
    options: RunnerOptions,
    volta: Pka,
    silicon_cache: Mutex<HashMap<(String, String), AppSiliconRun>>,
    selection_cache: Mutex<HashMap<String, Selection>>,
    fullsim_cache: Mutex<HashMap<(String, String), Option<FullSimOutcome>>>,
    sampled_cache: Mutex<HashMap<(String, String), SampledOutcome>>,
}

impl ExperimentRunner {
    /// Creates a runner.
    pub fn new(options: RunnerOptions) -> Self {
        Self {
            options,
            volta: Pka::new(GpuConfig::v100(), options.pka),
            silicon_cache: Mutex::new(HashMap::new()),
            selection_cache: Mutex::new(HashMap::new()),
            fullsim_cache: Mutex::new(HashMap::new()),
            sampled_cache: Mutex::new(HashMap::new()),
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
        if let Some(run) = self.silicon_cache.lock().unwrap().get(&key) {
            cache_obs(true);
            return Ok(*run);
        }
        cache_obs(false);
        let run = Profiler::new(gpu.clone())
            .with_executor(self.options.pka.executor())
            .silicon_run(workload)?;
        self.silicon_cache.lock().unwrap().insert(key, run);
        Ok(run)
    }

    /// The Volta-made principal-kernel selection, cached.
    ///
    /// # Errors
    ///
    /// Propagates profiling and clustering failures.
    pub fn selection(&self, workload: &Workload) -> Result<Selection, PkaError> {
        if let Some(sel) = self.selection_cache.lock().unwrap().get(workload.name()) {
            cache_obs(true);
            return Ok(sel.clone());
        }
        cache_obs(false);
        let sel = self.volta.select_kernels(workload)?;
        self.selection_cache
            .lock()
            .unwrap()
            .insert(workload.name().to_string(), sel.clone());
        Ok(sel)
    }

    /// Full cycle-level simulation on `gpu`, if within budget; cached.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn fullsim(
        &self,
        workload: &Workload,
        gpu: &GpuConfig,
    ) -> Result<Option<FullSimOutcome>, PkaError> {
        let key = (gpu.name().to_string(), workload.name().to_string());
        if let Some(out) = self.fullsim_cache.lock().unwrap().get(&key) {
            cache_obs(true);
            return Ok(*out);
        }
        cache_obs(false);
        let out = if self.fullsim_tractable(workload) {
            let sim = Simulator::new(gpu.clone(), self.options.pka.sim_options());
            let ids: Vec<u64> = (0..workload.kernel_count()).collect();
            let runs = self.options.pka.executor().try_map(&ids, |_, &id| {
                let kernel = workload.kernel(KernelId::new(id));
                let r = sim.run_kernel(&kernel)?;
                Ok::<_, PkaError>((r.cycles, r.instructions, r.dram_util_pct))
            })?;
            // Fold in launch-stream order so the weighted DRAM float is
            // bitwise identical to a sequential run.
            let mut cycles = 0u64;
            let mut instructions = 0u64;
            let mut dram_weighted = 0.0f64;
            for (c, i, dram) in runs {
                cycles += c;
                instructions += i;
                dram_weighted += dram * c as f64;
            }
            Some(FullSimOutcome {
                cycles,
                instructions,
                dram_util_pct: dram_weighted / cycles.max(1) as f64,
            })
        } else {
            None
        };
        self.fullsim_cache.lock().unwrap().insert(key, out);
        Ok(out)
    }

    /// Sampled simulation (PKS and PKA) of `workload` on `gpu` using the
    /// Volta selection; cached.
    ///
    /// # Errors
    ///
    /// Propagates selection and simulator failures.
    pub fn sampled(
        &self,
        workload: &Workload,
        gpu: &GpuConfig,
    ) -> Result<SampledOutcome, PkaError> {
        let key = (gpu.name().to_string(), workload.name().to_string());
        if let Some(out) = self.sampled_cache.lock().unwrap().get(&key) {
            cache_obs(true);
            return Ok(out.clone());
        }
        cache_obs(false);
        let selection = self.selection(workload)?;
        let sim = Simulator::new(gpu.clone(), self.options.pka.sim_options());

        // One work item per representative: one engine pass under a fresh
        // PKP monitor gives both the full run and the result at the stop;
        // weighted reductions fold in representative order below.
        let reps: Vec<_> = selection.representative_ids();
        let rep_runs = self.options.pka.executor().try_map(&reps, |_, &id| {
            let mut monitor = PkpMonitor::new(
                self.options.pka.pkp(),
                self.options.pka.sim_options().sample_interval(),
            );
            let (full, stopped) = sim.run_kernel_with_stop(&workload.kernel(id), &mut monitor)?;
            let projected = ProjectedKernel::from_monitored(&stopped, &monitor);
            Ok::<_, PkaError>((full.cycles, full.instructions_total, projected))
        })?;

        let mut pks_rep = Vec::with_capacity(selection.k());
        let mut pka_rep = Vec::with_capacity(selection.k());
        let mut rep_instructions = Vec::with_capacity(selection.k());
        let mut pks_spent = 0u64;
        let mut pka_spent = 0u64;
        let mut dram_weighted = 0.0f64;
        let mut dram_weight = 0.0f64;
        for (full_cycles, full_instructions, projected) in rep_runs {
            pks_rep.push(full_cycles);
            pks_spent += full_cycles;
            rep_instructions.push(full_instructions);
            pka_rep.push(projected.cycles);
            pka_spent += projected.simulated_cycles;
            dram_weighted += projected.dram_util_pct * projected.cycles as f64;
            dram_weight += projected.cycles as f64;
        }
        let projected_instructions: u64 = selection
            .groups()
            .iter()
            .zip(&rep_instructions)
            .map(|(g, &i)| g.count() * i)
            .sum();
        let out = SampledOutcome {
            pks_projected_cycles: selection.project_with(&pks_rep),
            pks_simulated_cycles: pks_spent,
            pka_projected_cycles: selection.project_with(&pka_rep),
            pka_simulated_cycles: pka_spent,
            pka_dram_util_pct: dram_weighted / dram_weight.max(1e-12),
            projected_instructions,
        };
        self.sampled_cache.lock().unwrap().insert(key, out.clone());
        Ok(out)
    }

    /// The Volta pipeline (for direct access to its profiler and config).
    pub fn volta(&self) -> &Pka {
        &self.volta
    }
}

/// Tallies a cache lookup across the runner's four result caches.
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
    fn fullsim_respects_budget() {
        let runner = ExperimentRunner::new(RunnerOptions {
            fullsim_max_instructions: 1,
            ..RunnerOptions::default()
        });
        let out = runner.fullsim(&bfs(), &GpuConfig::v100()).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn sampled_outcome_is_consistent() {
        let runner = ExperimentRunner::new(RunnerOptions::quick());
        let w = bfs();
        let out = runner.sampled(&w, &GpuConfig::v100()).unwrap();
        assert!(out.pka_simulated_cycles <= out.pks_simulated_cycles);
        assert!(out.pks_projected_cycles > 0);
        assert!(out.projected_instructions > 0);
    }
}
