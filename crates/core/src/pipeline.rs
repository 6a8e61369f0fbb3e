use pka_gpu::GpuConfig;
use pka_profile::{AppSiliconRun, Profiler};
use pka_sim::{cost, SimOptions, Simulator};
use pka_stats::error::abs_pct_error;
use pka_stats::Executor;
use pka_workloads::Workload;

use crate::{
    selection_attribution, simulation_attribution, ErrorAttribution, PkaError, PkpConfig,
    PkpMonitor, Pks, PksConfig, ProjectedKernel, RepSimulation, Selection, TwoLevel,
    TwoLevelConfig,
};

/// End-to-end PKA configuration: selection, projection, two-level and
/// simulator knobs.
///
/// # Examples
///
/// ```
/// use pka_core::PkaConfig;
///
/// let config = PkaConfig::default();
/// assert_eq!(config.pks().target_error_pct(), 5.0);
/// assert_eq!(config.pkp().threshold(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PkaConfig {
    pks: PksConfig,
    pkp: PkpConfig,
    two_level: TwoLevelConfig,
    sim: SimOptions,
    exec: Executor,
}

impl PkaConfig {
    /// Overrides the PKS configuration (also applied inside two-level).
    pub fn with_pks(mut self, pks: PksConfig) -> Self {
        self.pks = pks;
        self.two_level = self.two_level.with_pks(pks);
        self
    }

    /// Overrides the PKP configuration.
    pub fn with_pkp(mut self, pkp: PkpConfig) -> Self {
        self.pkp = pkp;
        self
    }

    /// Overrides the two-level configuration (its PKS settings are kept in
    /// sync with [`with_pks`](Self::with_pks) if that is called afterwards).
    pub fn with_two_level(mut self, two_level: TwoLevelConfig) -> Self {
        self.two_level = two_level;
        self
    }

    /// Overrides the simulator options.
    pub fn with_sim_options(mut self, sim: SimOptions) -> Self {
        self.sim = sim;
        self
    }

    /// The PKS configuration.
    pub fn pks(&self) -> PksConfig {
        self.pks
    }

    /// The PKP configuration.
    pub fn pkp(&self) -> PkpConfig {
        self.pkp
    }

    /// The two-level configuration.
    pub fn two_level(&self) -> TwoLevelConfig {
        self.two_level
    }

    /// The simulator options.
    pub fn sim_options(&self) -> SimOptions {
        self.sim
    }

    /// Fans profiling, clustering and per-representative simulation out over
    /// `workers` threads (`0` = one per hardware thread, `1` = sequential).
    ///
    /// Every parallel path is deterministic: selections, projected cycles
    /// and error tables are bitwise identical for any worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.exec = if workers == 1 {
            Executor::sequential()
        } else {
            Executor::new(workers)
        };
        self
    }

    /// Overrides the executor directly.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The executor the pipeline fans out on.
    pub fn executor(&self) -> Executor {
        self.exec
    }
}

/// Silicon-only PKS evaluation (the first six columns of Table 4): how well
/// do the representatives, *run on real silicon*, project the application?
#[derive(Debug, Clone, PartialEq)]
pub struct SiliconPksReport {
    /// Workload name.
    pub workload: String,
    /// GPU the representatives were (re-)executed on.
    pub gpu: String,
    /// Number of groups selected.
    pub k: usize,
    /// Kernels in the full stream.
    pub kernels_total: u64,
    /// Projected application cycles from the representatives.
    pub projected_cycles: u64,
    /// Measured full-application cycles.
    pub silicon_cycles: u64,
    /// Projection error, percent.
    pub error_pct: f64,
    /// Execution-time reduction: full app seconds over representative-only
    /// seconds.
    pub speedup: f64,
}

/// Per-representative PKP accounting: how much of the projected kernel was
/// actually simulated before the stopping rule fired. The table that makes
/// Table 4's speedups auditable kernel-by-kernel from one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepProjection {
    /// The representative kernel.
    pub kernel_id: pka_gpu::KernelId,
    /// Simulator cycles actually spent under the PKP monitor.
    pub simulated_cycles: u64,
    /// Cycles projected for the kernel (extrapolated past the stop point).
    pub projected_cycles: u64,
}

impl RepProjection {
    /// `simulated / projected`: the fraction of the kernel that was
    /// simulated (1.0 when PKP never stopped early).
    pub fn skip_ratio(&self) -> f64 {
        self.simulated_cycles as f64 / self.projected_cycles.max(1) as f64
    }
}

/// One sampled-simulation outcome (PKS-only or full PKA) plus the baseline
/// full-simulation numbers when they exist.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Workload name.
    pub workload: String,
    /// Measured silicon cycles (the error reference).
    pub silicon_cycles: u64,
    /// Full-simulation cycles, if full simulation was run.
    pub fullsim_cycles: Option<u64>,
    /// Full-simulation DRAM utilisation, percent.
    pub fullsim_dram_util_pct: Option<f64>,
    /// Full-simulation error versus silicon, percent.
    pub sim_error_pct: Option<f64>,
    /// Wall-clock hours to run the full simulation (projected via the cost
    /// model; derived from silicon cycles when full simulation was skipped).
    pub fullsim_hours: f64,

    /// PKS-only projected application cycles.
    pub pks_projected_cycles: u64,
    /// PKS-only projection error versus silicon, percent.
    pub pks_error_pct: f64,
    /// Simulator cycles actually spent for PKS-only (reps run to
    /// completion).
    pub pks_simulated_cycles: u64,
    /// Projected wall-clock hours for PKS-only simulation.
    pub pks_hours: f64,

    /// Full-PKA (PKS + PKP) projected application cycles.
    pub pka_projected_cycles: u64,
    /// Full-PKA projection error versus silicon, percent.
    pub pka_error_pct: f64,
    /// Simulator cycles actually spent for PKA (reps stopped at stability).
    pub pka_simulated_cycles: u64,
    /// Projected wall-clock hours for PKA simulation.
    pub pka_hours: f64,
    /// PKA-projected DRAM utilisation, percent (group-weighted).
    pub pka_dram_util_pct: f64,
    /// Per-representative `simulated / projected` PKP accounting, in
    /// representative (group) order.
    pub per_representative: Vec<RepProjection>,
}

impl SimulationReport {
    /// Simulation-time speedup of PKS over full simulation.
    pub fn pks_speedup(&self) -> f64 {
        self.reference_sim_cycles() as f64 / self.pks_simulated_cycles.max(1) as f64
    }

    /// Simulation-time speedup of PKA over full simulation.
    pub fn pka_speedup(&self) -> f64 {
        self.reference_sim_cycles() as f64 / self.pka_simulated_cycles.max(1) as f64
    }

    fn reference_sim_cycles(&self) -> u64 {
        self.fullsim_cycles.unwrap_or(self.silicon_cycles)
    }
}

/// The Principal Kernel Analysis pipeline bound to one GPU configuration.
#[derive(Debug, Clone)]
pub struct Pka {
    gpu: GpuConfig,
    config: PkaConfig,
    profiler: Profiler,
}

impl Pka {
    /// Creates the pipeline for `gpu`.
    pub fn new(gpu: GpuConfig, config: PkaConfig) -> Self {
        let profiler = Profiler::new(gpu.clone()).with_executor(config.exec);
        Self {
            gpu,
            config,
            profiler,
        }
    }

    /// The bound GPU configuration.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PkaConfig {
        &self.config
    }

    /// The profiler this pipeline profiles with.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Profiles the workload (automatically one-level or two-level per the
    /// one-week tractability rule) and selects principal kernels.
    ///
    /// # Errors
    ///
    /// Propagates profiling and clustering failures.
    pub fn select_kernels(&self, workload: &Workload) -> Result<Selection, PkaError> {
        let _span = pka_obs::span("pka.select_kernels");
        let cost = self.profiler.profiling_cost(workload);
        if cost.detailed_is_intractable() {
            TwoLevel::new(self.config.two_level)
                .with_executor(self.config.exec)
                .analyze(workload, &self.profiler)
        } else {
            let records = self
                .profiler
                .detailed(workload, 0..workload.kernel_count())?;
            Pks::new(self.config.pks)
                .with_executor(self.config.exec)
                .select(&records)
        }
    }

    /// Evaluates PKS against silicon on this pipeline's GPU (Table 4's
    /// Volta silicon columns).
    ///
    /// # Errors
    ///
    /// Propagates profiling and clustering failures.
    pub fn silicon_pks_report(&self, workload: &Workload) -> Result<SiliconPksReport, PkaError> {
        let selection = self.select_kernels(workload)?;
        let silicon = self.profiler.silicon_run(workload)?;
        self.silicon_report_for(workload, &selection, &silicon)
    }

    /// Re-evaluates an existing selection (typically made on Volta) against
    /// this pipeline's silicon — the cross-generation transfer experiment
    /// of Section 5.2.2. `silicon` is the whole-application run of
    /// `workload` on this pipeline's GPU
    /// ([`Profiler::silicon_run`](pka_profile::Profiler::silicon_run)).
    ///
    /// # Errors
    ///
    /// [`PkaError::InvalidInput`] if the representatives are not distinct
    /// kernels of `workload` (a hand-edited or foreign selection file);
    /// otherwise propagates silicon-model failures.
    pub fn silicon_report_for(
        &self,
        workload: &Workload,
        selection: &Selection,
        silicon: &AppSiliconRun,
    ) -> Result<SiliconPksReport, PkaError> {
        let _span = pka_obs::span("pka.silicon_report");
        check_representatives(workload, selection)?;
        // Run only the representatives on this GPU, one per work item; fold
        // the float seconds in representative order for bitwise stability.
        let reps: Vec<_> = selection.representative_ids();
        let rep_runs = self.config.exec.try_map(&reps, |_, id| {
            let records = self
                .profiler
                .detailed(workload, id.index()..id.index() + 1)?;
            Ok::<_, PkaError>((records[0].cycles, records[0].seconds))
        })?;
        let mut rep_cycles = Vec::with_capacity(selection.k());
        let mut rep_seconds = 0.0;
        for (cycles, seconds) in rep_runs {
            rep_cycles.push(cycles);
            rep_seconds += seconds;
        }
        let projected = selection.project_with(&rep_cycles);
        Ok(SiliconPksReport {
            workload: workload.name().to_string(),
            gpu: self.gpu.name().to_string(),
            k: selection.k(),
            kernels_total: workload.kernel_count(),
            projected_cycles: projected,
            silicon_cycles: silicon.total_cycles,
            error_pct: abs_pct_error(projected as f64, silicon.total_cycles as f64),
            speedup: silicon.total_seconds / rep_seconds.max(1e-12),
        })
    }

    /// The detailed records a selection over `workload` was derived from
    /// (the full stream, or the two-level detailed prefix), plus the PKS
    /// configuration that clustered them — the inputs the attribution
    /// provenance must be computed against.
    fn attribution_inputs(
        &self,
        workload: &Workload,
    ) -> Result<(Vec<pka_profile::DetailedRecord>, PksConfig), PkaError> {
        let cost = self.profiler.profiling_cost(workload);
        if cost.detailed_is_intractable() {
            let j = TwoLevel::new(self.config.two_level).detailed_prefix(workload);
            let records = self.profiler.detailed(workload, 0..j)?;
            Ok((records, self.config.two_level.pks()))
        } else {
            let records = self
                .profiler
                .detailed(workload, 0..workload.kernel_count())?;
            Ok((records, self.config.pks))
        }
    }

    /// Selects principal kernels and builds the selection-kind
    /// `pka.attribution/v1` decomposition: each group's signed contribution
    /// to the reported [`Selection::error_pct`], plus its representative's
    /// provenance (launch rank, distance to the PCA-space group mean,
    /// bootstrap CI on the mean member cycles).
    ///
    /// # Errors
    ///
    /// Propagates profiling and clustering failures.
    pub fn select_kernels_with_attribution(
        &self,
        workload: &Workload,
    ) -> Result<(Selection, ErrorAttribution), PkaError> {
        let selection = self.select_kernels(workload)?;
        let (records, pks_config) = self.attribution_inputs(workload)?;
        let provenance = Pks::new(pks_config).provenance(&records, &selection)?;
        let attribution = selection_attribution(workload.name(), &selection, &provenance);
        Ok((selection, attribution))
    }

    /// Full evaluation in simulation: full-sim baseline (optional — skip it
    /// for workloads where it is intractable), PKS-only, and full PKA.
    ///
    /// # Errors
    ///
    /// Propagates profiling, clustering and simulation failures.
    pub fn evaluate_in_simulation(
        &self,
        workload: &Workload,
        run_full_sim: bool,
    ) -> Result<SimulationReport, PkaError> {
        Ok(self.evaluate_inner(workload, run_full_sim, false)?.0)
    }

    /// [`evaluate_in_simulation`](Self::evaluate_in_simulation) plus the
    /// simulation-kind `pka.attribution/v1` decomposition: per group, a
    /// signed PKS term (group scaling against the group's share of silicon
    /// truth) and a signed PKP term (stop-rule projection against the full
    /// simulation of the representative), summing exactly to the report's
    /// `pks_error_pct` / `pka_error_pct`.
    ///
    /// # Errors
    ///
    /// Propagates profiling, clustering and simulation failures.
    pub fn evaluate_with_attribution(
        &self,
        workload: &Workload,
        run_full_sim: bool,
    ) -> Result<(SimulationReport, ErrorAttribution), PkaError> {
        let (report, attribution) = self.evaluate_inner(workload, run_full_sim, true)?;
        Ok((report, attribution.expect("attribution was requested")))
    }

    fn evaluate_inner(
        &self,
        workload: &Workload,
        run_full_sim: bool,
        with_attribution: bool,
    ) -> Result<(SimulationReport, Option<ErrorAttribution>), PkaError> {
        let _span = pka_obs::span("pka.evaluate");
        let selection = self.select_kernels(workload)?;
        let silicon = self.profiler.silicon_run(workload)?;
        let (report, rep_samples) =
            self.simulate_reps(workload, &selection, &silicon, run_full_sim)?;
        let attribution = if with_attribution {
            let (records, pks_config) = self.attribution_inputs(workload)?;
            let provenance = Pks::new(pks_config).provenance(&records, &selection)?;
            Some(simulation_attribution(
                workload.name(),
                &selection,
                &provenance,
                silicon.total_cycles,
                &rep_samples,
            ))
        } else {
            None
        };
        Ok((report, attribution))
    }

    /// Simulates an existing selection on this pipeline's GPU: the
    /// full-simulation baseline when `run_full_sim` is set, PKS-only and
    /// full PKA. This is [`evaluate_in_simulation`](Self::evaluate_in_simulation)
    /// after selection, for a selection made elsewhere (typically on Volta,
    /// Section 5.2.2). `silicon` is the whole-application run of `workload`
    /// on this pipeline's GPU, the error reference.
    ///
    /// # Errors
    ///
    /// [`PkaError::InvalidInput`] if the representatives are not distinct
    /// kernels of `workload`; otherwise propagates simulation failures.
    pub fn simulate_selection(
        &self,
        workload: &Workload,
        selection: &Selection,
        silicon: &AppSiliconRun,
        run_full_sim: bool,
    ) -> Result<SimulationReport, PkaError> {
        Ok(self
            .simulate_reps(workload, selection, silicon, run_full_sim)?
            .0)
    }

    /// [`simulate_selection`](Self::simulate_selection) plus the
    /// per-representative samples the simulation attribution is built from.
    fn simulate_reps(
        &self,
        workload: &Workload,
        selection: &Selection,
        silicon: &AppSiliconRun,
        run_full_sim: bool,
    ) -> Result<(SimulationReport, Vec<RepSimulation>), PkaError> {
        check_representatives(workload, selection)?;
        let simulator = Simulator::new(self.gpu.clone(), self.config.sim);
        // Each representative takes one engine pass: run to completion for
        // PKS, with the result at the PKP stop recorded on the way for PKA.
        // The monitor is item-local state, so items stay independent.
        let reps: Vec<_> = selection.representative_ids();
        let simulate_rep = |kernel: &pka_gpu::KernelDescriptor| {
            let mut monitor = PkpMonitor::new(self.config.pkp, self.config.sim.sample_interval());
            let (full, stopped) = simulator.run_kernel_with_stop(kernel, &mut monitor)?;
            Ok::<_, PkaError>((full, ProjectedKernel::from_monitored(&stopped, &monitor)))
        };

        // Baseline: full simulation of every kernel, one per work item. A
        // representative's item is its one pass above, whose full result
        // also counts toward the baseline. Weighted DRAM utilisation folds
        // in launch-stream order; `rep_slot` maps a kernel id to its
        // representative's position, where its outcome lands.
        let (fullsim_cycles, fullsim_dram, sim_error, rep_runs) = if run_full_sim {
            let _span = pka_obs::span("pka.fullsim_baseline");
            let mut rep_slot = vec![None; workload.kernel_count() as usize];
            for (i, id) in reps.iter().enumerate() {
                rep_slot[id.index() as usize] = Some(i);
            }
            let ids: Vec<u64> = (0..workload.kernel_count()).collect();
            let runs = self.config.exec.try_map(&ids, |_, &id| {
                let kernel = workload.kernel(pka_gpu::KernelId::new(id));
                if rep_slot[id as usize].is_some() {
                    let (full, projected) = simulate_rep(&kernel)?;
                    Ok((full.cycles, full.dram_util_pct, Some(projected)))
                } else {
                    let r = simulator.run_kernel(&kernel)?;
                    Ok::<_, PkaError>((r.cycles, r.dram_util_pct, None))
                }
            })?;
            let mut total = 0u64;
            let mut dram_weighted = 0.0f64;
            let mut rep_runs = vec![None; reps.len()];
            for ((cycles, dram_util_pct, projected), slot) in runs.into_iter().zip(&rep_slot) {
                total += cycles;
                dram_weighted += dram_util_pct * cycles as f64;
                if let (Some(i), Some(projected)) = (slot, projected) {
                    rep_runs[*i] = Some((cycles, projected));
                }
            }
            let dram = dram_weighted / total.max(1) as f64;
            (
                Some(total),
                Some(dram),
                Some(abs_pct_error(total as f64, silicon.total_cycles as f64)),
                rep_runs
                    .into_iter()
                    .map(|run| run.expect("every representative is a kernel of the workload"))
                    .collect(),
            )
        } else {
            let _rep_span = pka_obs::span("pka.rep_sim");
            let rep_runs = self.config.exec.try_map(&reps, |_, &id| {
                let (full, projected) = simulate_rep(&workload.kernel(id))?;
                Ok::<_, PkaError>((full.cycles, projected))
            })?;
            (None, None, None, rep_runs)
        };

        // PKS-only: representatives simulated to completion.
        let mut pks_rep_cycles = Vec::with_capacity(selection.k());
        let mut pks_spent = 0u64;
        // Full PKA: representatives simulated under the PKP monitor.
        let mut pka_rep_cycles = Vec::with_capacity(selection.k());
        let mut pka_spent = 0u64;
        let mut pka_dram_weighted = 0.0f64;
        let mut pka_weight = 0.0f64;
        let mut per_representative = Vec::with_capacity(selection.k());
        let mut rep_samples = Vec::with_capacity(selection.k());
        for (&id, (full_cycles, projected)) in reps.iter().zip(rep_runs) {
            pks_rep_cycles.push(full_cycles);
            pks_spent += full_cycles;
            pka_rep_cycles.push(projected.cycles);
            pka_spent += projected.simulated_cycles;
            pka_dram_weighted += projected.dram_util_pct * projected.cycles as f64;
            pka_weight += projected.cycles as f64;
            per_representative.push(RepProjection {
                kernel_id: id,
                simulated_cycles: projected.simulated_cycles,
                projected_cycles: projected.cycles,
            });
            rep_samples.push(RepSimulation {
                pks_cycles: full_cycles,
                pka_cycles: projected.cycles,
                simulated_cycles: projected.simulated_cycles,
                dram_util_pct: projected.dram_util_pct,
            });
        }

        let pks_projected = selection.project_with(&pks_rep_cycles);
        let pka_projected = selection.project_with(&pka_rep_cycles);
        let fullsim_hours =
            cost::projected_sim_hours(fullsim_cycles.unwrap_or(silicon.total_cycles));

        let report = SimulationReport {
            workload: workload.name().to_string(),
            silicon_cycles: silicon.total_cycles,
            fullsim_cycles,
            fullsim_dram_util_pct: fullsim_dram,
            sim_error_pct: sim_error,
            fullsim_hours,
            pks_projected_cycles: pks_projected,
            pks_error_pct: abs_pct_error(pks_projected as f64, silicon.total_cycles as f64),
            pks_simulated_cycles: pks_spent,
            pks_hours: cost::projected_sim_hours(pks_spent),
            pka_projected_cycles: pka_projected,
            pka_error_pct: abs_pct_error(pka_projected as f64, silicon.total_cycles as f64),
            pka_simulated_cycles: pka_spent,
            pka_hours: cost::projected_sim_hours(pka_spent),
            pka_dram_util_pct: pka_dram_weighted / pka_weight.max(1e-12),
            per_representative,
        };
        Ok((report, rep_samples))
    }
}

/// Refuses a selection whose representatives are not distinct kernels of
/// `workload`: a deserialised selection file is checked against the
/// workload it is applied to before any kernel is looked up.
fn check_representatives(workload: &Workload, selection: &Selection) -> Result<(), PkaError> {
    let n = workload.kernel_count();
    let mut ids = selection.representative_ids();
    if let Some(id) = ids.iter().find(|id| id.index() >= n) {
        return Err(PkaError::InvalidInput {
            message: format!(
                "representative kernel {} is out of range for `{}` ({n} kernels)",
                id.index(),
                workload.name()
            ),
        });
    }
    ids.sort_unstable();
    if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(PkaError::InvalidInput {
            message: format!(
                "representative kernel {} of `{}` heads more than one group",
                pair[0].index(),
                workload.name()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_workloads::{parboil, rodinia, Workload};

    fn find(suite: Vec<Workload>, name: &str) -> Workload {
        suite.into_iter().find(|w| w.name() == name).unwrap()
    }

    fn tiny_pka() -> Pka {
        // A small GPU keeps debug-mode simulation fast.
        let gpu = GpuConfig::builder("tiny8").num_sms(8).build().unwrap();
        Pka::new(gpu, PkaConfig::default())
    }

    #[test]
    fn silicon_report_on_gaussian_shows_large_speedup() {
        let pka = Pka::new(GpuConfig::v100(), PkaConfig::default());
        let w = find(rodinia::workloads(), "gauss_208");
        let report = pka.silicon_pks_report(&w).unwrap();
        assert!(report.error_pct < 6.0, "error {}", report.error_pct);
        assert!(report.speedup > 50.0, "speedup {}", report.speedup);
        assert_eq!(report.kernels_total, 414);
    }

    #[test]
    fn single_kernel_app_has_no_speedup() {
        let pka = Pka::new(GpuConfig::v100(), PkaConfig::default());
        let w = find(rodinia::workloads(), "nn");
        let report = pka.silicon_pks_report(&w).unwrap();
        assert_eq!(report.k, 1);
        assert!(report.speedup < 1.5, "{}", report.speedup);
        assert!(report.error_pct < 5.0);
    }

    #[test]
    fn cross_generation_transfer_keeps_error_low() {
        let volta = Pka::new(GpuConfig::v100(), PkaConfig::default());
        let w = find(rodinia::workloads(), "gauss_208");
        let selection = volta.select_kernels(&w).unwrap();
        for target in [GpuConfig::rtx2060(), GpuConfig::rtx3070()] {
            let pipeline = Pka::new(target, PkaConfig::default());
            let silicon = pipeline.profiler().silicon_run(&w).unwrap();
            let report = pipeline
                .silicon_report_for(&w, &selection, &silicon)
                .unwrap();
            assert!(
                report.error_pct < 10.0,
                "{}: {}",
                report.gpu,
                report.error_pct
            );
        }
    }

    #[test]
    fn simulation_report_accounts_time_and_error() {
        let pka = tiny_pka();
        let w = find(parboil::workloads(), "cutcp");
        let report = pka.evaluate_in_simulation(&w, true).unwrap();
        assert!(report.sim_error_pct.is_some());
        assert!(report.pks_simulated_cycles <= report.fullsim_cycles.unwrap());
        assert!(report.pka_simulated_cycles <= report.pks_simulated_cycles);
        assert!(report.pks_speedup() >= 1.0);
        assert!(report.pka_speedup() >= report.pks_speedup() * 0.99);
        // PKS projection should be a sane estimate of full sim.
        let fullsim = report.fullsim_cycles.unwrap() as f64;
        let pks_vs_full = (report.pks_projected_cycles as f64 - fullsim).abs() / fullsim * 100.0;
        assert!(pks_vs_full < 25.0, "pks vs fullsim {pks_vs_full}%");
    }

    #[test]
    fn per_representative_table_reconciles_with_totals() {
        let pka = tiny_pka();
        let w = find(parboil::workloads(), "cutcp");
        let report = pka.evaluate_in_simulation(&w, false).unwrap();
        assert!(!report.per_representative.is_empty());
        let simulated: u64 = report
            .per_representative
            .iter()
            .map(|r| r.simulated_cycles)
            .sum();
        assert_eq!(simulated, report.pka_simulated_cycles);
        for rep in &report.per_representative {
            let ratio = rep.skip_ratio();
            assert!(
                (0.0..=1.0 + 1e-9).contains(&ratio),
                "skip ratio {ratio} out of range for kernel {:?}",
                rep.kernel_id
            );
        }
    }

    #[test]
    fn simulation_attribution_sums_to_reported_errors() {
        let pka = tiny_pka();
        let w = find(parboil::workloads(), "cutcp");
        let (report, attribution) = pka.evaluate_with_attribution(&w, false).unwrap();
        attribution.verify_sums().expect("exact decomposition");
        assert_eq!(attribution.kind, "simulation");
        assert_eq!(attribution.pks_err_pct, report.pks_error_pct);
        assert_eq!(attribution.pka_err_pct, Some(report.pka_error_pct));
        assert_eq!(
            attribution.pks_projected_cycles,
            report.pks_projected_cycles
        );
        assert_eq!(
            attribution.pka_projected_cycles,
            Some(report.pka_projected_cycles)
        );
        assert_eq!(attribution.dram_util_pct, Some(report.pka_dram_util_pct));
        assert_eq!(attribution.groups.len(), report.per_representative.len());
        for (g, rep) in attribution.groups.iter().zip(&report.per_representative) {
            assert_eq!(g.representative, rep.kernel_id.index());
            assert_eq!(g.skip_ratio, Some(rep.skip_ratio()));
        }
        // Requesting the attribution must not perturb the report itself.
        let plain = pka.evaluate_in_simulation(&w, false).unwrap();
        assert_eq!(plain, report);
    }

    #[test]
    fn selection_attribution_sums_to_selection_error() {
        let pka = Pka::new(GpuConfig::v100(), PkaConfig::default());
        let w = find(rodinia::workloads(), "gauss_208");
        let (selection, attribution) = pka.select_kernels_with_attribution(&w).unwrap();
        attribution.verify_sums().expect("exact decomposition");
        assert_eq!(attribution.kind, "selection");
        assert_eq!(attribution.groups.len(), selection.k());
        assert_eq!(attribution.pks_err_pct, selection.error_pct());
        assert_eq!(attribution.reference_cycles, selection.reference_cycles());
        for g in &attribution.groups {
            assert_eq!(g.chrono_rank, 0, "first-chronological reps rank first");
            assert!(g.distance_to_centroid.is_finite());
            assert!(g.member_mean_ci_low <= g.member_mean_ci_high);
            assert!(g.rep_cycles_pka.is_none());
        }
    }

    #[test]
    fn skipping_full_sim_still_reports_sampled_numbers() {
        let pka = tiny_pka();
        let w = find(rodinia::workloads(), "bfs65536");
        let report = pka.evaluate_in_simulation(&w, false).unwrap();
        assert!(report.fullsim_cycles.is_none());
        assert!(report.sim_error_pct.is_none());
        assert!(report.pka_projected_cycles > 0);
        assert!(report.fullsim_hours > 0.0);
    }
}
