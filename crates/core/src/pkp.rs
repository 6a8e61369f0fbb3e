use pka_sim::{KernelSimResult, SampleContext, SimControl, SimMonitor};
use pka_stats::RollingStats;

/// Configuration for Principal Kernel Projection.
///
/// # Examples
///
/// ```
/// use pka_core::PkpConfig;
///
/// let config = PkpConfig::default();
/// assert_eq!(config.threshold(), 0.25);
/// assert_eq!(config.window_cycles(), 3000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PkpConfig {
    threshold: f64,
    window_cycles: u64,
    enforce_wave: bool,
}

impl Default for PkpConfig {
    fn default() -> Self {
        Self {
            threshold: 0.25,
            window_cycles: 3000,
            enforce_wave: true,
        }
    }
}

impl PkpConfig {
    /// Sets the stability threshold `s` — the only user-facing PKP knob
    /// (Section 3.2). Interpreted against the *mean-normalised* windowed
    /// standard deviation of IPC, so one setting covers kernels whose
    /// absolute IPC differs by orders of magnitude. Smaller is stricter:
    /// the paper's Figure 5 sweeps {2.5, 0.25, 0.025} and settles on 0.25.
    pub fn with_threshold(mut self, s: f64) -> Self {
        self.threshold = s;
        self
    }

    /// Sets the rolling window length in cycles (paper: 3000).
    pub fn with_window_cycles(mut self, cycles: u64) -> Self {
        self.window_cycles = cycles;
        self
    }

    /// Enables or disables the full-wave constraint (Section 3.2 keeps it
    /// on, but waives it automatically for grids smaller than one wave;
    /// disabling it entirely is the ablation).
    pub fn with_wave_constraint(mut self, enforce: bool) -> Self {
        self.enforce_wave = enforce;
        self
    }

    /// The stability threshold `s`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The rolling window length, cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Whether the full-wave constraint is enforced.
    pub fn wave_constraint(&self) -> bool {
        self.enforce_wave
    }
}

/// The online IPC-stability detector: plugs into the simulator as a
/// [`SimMonitor`] and stops the kernel once the windowed relative standard
/// deviation of IPC falls below `s` *and* (for at-least-one-wave grids) a
/// full wave of thread blocks has retired.
///
/// # Examples
///
/// ```
/// use pka_core::{PkpConfig, PkpMonitor};
/// use pka_gpu::{GpuConfig, KernelDescriptor};
/// use pka_sim::{SimOptions, Simulator};
///
/// let sim = Simulator::new(GpuConfig::v100(), SimOptions::default());
/// let kernel = KernelDescriptor::builder("k")
///     .grid_blocks(4000)
///     .block_threads(256)
///     .fp32_per_thread(300)
///     .global_loads_per_thread(8)
///     .build()?;
/// let mut monitor = PkpMonitor::new(PkpConfig::default(), sim.options().sample_interval());
/// let result = sim.run_kernel_monitored(&kernel, &mut monitor)?;
/// assert!(result.early_stop, "a stable kernel should stop early");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PkpMonitor {
    config: PkpConfig,
    window: RollingStats,
    /// Exponential smoothing state for the raw per-interval IPC samples
    /// (interval-level sampling of a bursty issue stream is far noisier
    /// than the hardware per-cycle IPC the paper's figures show).
    ema: Option<f64>,
    stopped_at: Option<u64>,
}

/// Smoothing weight for incoming IPC samples.
const EMA_ALPHA: f64 = 0.3;

impl PkpMonitor {
    /// Creates a monitor; `sample_interval` must match the simulator's
    /// [`SimOptions::sample_interval`](pka_sim::SimOptions::sample_interval)
    /// so the window spans the configured number of *cycles*.
    pub fn new(config: PkpConfig, sample_interval: u64) -> Self {
        let samples = (config.window_cycles / sample_interval.max(1)).max(2) as usize;
        Self {
            config,
            window: RollingStats::new(samples),
            ema: None,
            stopped_at: None,
        }
    }

    /// The smoothed IPC over the stability window (meaningful once samples
    /// have arrived; used for instruction-based projection of sub-wave
    /// grids, where the whole-run average would be polluted by the warmup
    /// ramp).
    pub fn stable_ipc(&self) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.window.mean())
        }
    }

    /// The cycle at which stability was declared, if it was.
    pub fn stopped_at(&self) -> Option<u64> {
        self.stopped_at
    }
}

impl SimMonitor for PkpMonitor {
    fn observe(&mut self, ctx: &SampleContext) -> SimControl {
        let obs = pka_obs::enabled();
        if obs {
            pkp_obs().evals.incr();
        }
        let smoothed = match self.ema {
            Some(prev) => prev + EMA_ALPHA * (ctx.sample.ipc - prev),
            None => ctx.sample.ipc,
        };
        self.ema = Some(smoothed);
        self.window.push(smoothed);
        if !self.window.is_full() {
            if obs {
                pkp_obs().held_warmup.incr();
            }
            return SimControl::Continue;
        }
        if self.window.relative_std_dev() > self.config.threshold {
            if obs {
                pkp_obs().held_stddev.incr();
            }
            return SimControl::Continue;
        }
        // Quasi-stable. Enforce the wave constraint unless the grid is
        // smaller than one wave (Section 3.2's carve-out for low-CTA
        // kernels).
        let sub_wave = ctx.blocks_total < ctx.wave_blocks;
        if self.config.enforce_wave && !sub_wave && ctx.blocks_completed < ctx.wave_blocks {
            if obs {
                pkp_obs().held_wave.incr();
            }
            return SimControl::Continue;
        }
        self.stopped_at = Some(ctx.sample.cycle);
        if obs {
            pkp_obs().stops.incr();
            pkp_obs().stop_cycle.record(ctx.sample.cycle);
            // Stop-rule firings are rare and load-bearing, so they are
            // promoted from counters to timestamped trace events. Fields
            // are deterministic; when the firing happens on an executor
            // worker, the capture buffer keeps trace order deterministic
            // too.
            pka_obs::trace_event_u64(
                "pkp.stop",
                &[
                    ("cycle", ctx.sample.cycle),
                    ("blocks_completed", ctx.blocks_completed),
                    ("blocks_total", ctx.blocks_total),
                ],
            );
        }
        SimControl::Stop
    }
}

/// Cached stop-rule counter handles (one relaxed load gates each use).
struct PkpObs {
    evals: &'static pka_obs::Counter,
    held_warmup: &'static pka_obs::Counter,
    held_stddev: &'static pka_obs::Counter,
    held_wave: &'static pka_obs::Counter,
    stops: &'static pka_obs::Counter,
    stop_cycle: &'static pka_obs::Histogram,
}

/// Bucket edges (simulated cycles at stop) for the `pkp.stop_cycle`
/// histogram: log-spaced from the warmup floor to well past any kernel the
/// studied suites launch, so the stopping rule's firing profile is visible
/// live, Figure-9 style.
const STOP_CYCLE_EDGES: &[u64] = &[
    1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
];

fn pkp_obs() -> &'static PkpObs {
    static OBS: std::sync::OnceLock<PkpObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| PkpObs {
        evals: pka_obs::counter("pkp.evals"),
        held_warmup: pka_obs::counter("pkp.held_warmup"),
        held_stddev: pka_obs::counter("pkp.held_stddev"),
        held_wave: pka_obs::counter("pkp.held_wave"),
        stops: pka_obs::counter("pkp.stops"),
        stop_cycle: pka_obs::histogram("pkp.stop_cycle", STOP_CYCLE_EDGES),
    })
}

/// A PKP-projected kernel result: what the full kernel would have reported,
/// extrapolated from the simulated prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedKernel {
    /// Projected total kernel cycles.
    pub cycles: u64,
    /// Projected total warp instructions.
    pub instructions: u64,
    /// Projected DRAM utilisation, percent (the stable-window average).
    pub dram_util_pct: f64,
    /// Projected L2 miss rate, percent.
    pub l2_miss_rate_pct: f64,
    /// Cycles actually simulated before stopping.
    pub simulated_cycles: u64,
    /// `true` if the kernel was stopped early and projected.
    pub projected: bool,
}

impl ProjectedKernel {
    /// Projects a (possibly early-stopped) simulation result.
    ///
    /// Grids of at least one wave project linearly from retired thread
    /// blocks, exactly as Section 3.2 describes; sub-wave grids (where the
    /// wave constraint is waived and block completions may be too sparse to
    /// extrapolate) project from remaining instructions at the observed
    /// IPC. Prefer [`from_monitored`](Self::from_monitored), which uses the
    /// monitor's stability-window IPC for the sub-wave case.
    pub fn from_result(result: &KernelSimResult) -> Self {
        Self::project(result, None)
    }

    /// Projects using the monitor's stable-window IPC for sub-wave grids —
    /// the whole-run average the plain instruction projection would use is
    /// biased by the warmup ramp.
    pub fn from_monitored(result: &KernelSimResult, monitor: &PkpMonitor) -> Self {
        Self::project(result, monitor.stable_ipc())
    }

    fn project(result: &KernelSimResult, stable_ipc: Option<f64>) -> Self {
        let cycles = if result.blocks_total >= result.wave_blocks {
            result.projected_total_cycles()
        } else if let (true, Some(ipc)) = (result.early_stop, stable_ipc.filter(|i| *i > 0.0)) {
            let remaining = result
                .instructions_total
                .saturating_sub(result.instructions) as f64;
            result.cycles + (remaining / ipc) as u64
        } else {
            result.projected_total_cycles_by_instructions()
        };
        ProjectedKernel {
            cycles,
            instructions: result.instructions_total,
            dram_util_pct: result.dram_util_pct,
            l2_miss_rate_pct: result.l2_miss_rate_pct,
            simulated_cycles: result.cycles,
            projected: result.early_stop,
        }
    }

    /// The intra-kernel speedup PKP achieved (projected over simulated
    /// cycles; 1.0 when the kernel ran to completion).
    pub fn speedup(&self) -> f64 {
        if self.simulated_cycles == 0 {
            1.0
        } else {
            self.cycles as f64 / self.simulated_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_gpu::{GpuConfig, KernelDescriptor, KernelPhase};
    use pka_sim::{SimOptions, Simulator};

    fn tiny() -> Simulator {
        Simulator::new(
            GpuConfig::builder("tiny4").num_sms(4).build().unwrap(),
            SimOptions::default(),
        )
    }

    fn stable_kernel(blocks: u32) -> KernelDescriptor {
        KernelDescriptor::builder("stable")
            .grid_blocks(blocks)
            .block_threads(128)
            .fp32_per_thread(400)
            .global_loads_per_thread(10)
            .build()
            .unwrap()
    }

    #[test]
    fn stable_kernel_stops_early_with_low_error() {
        let sim = tiny();
        let k = stable_kernel(512);
        let full = sim.run_kernel(&k).unwrap();
        let mut m = PkpMonitor::new(PkpConfig::default(), sim.options().sample_interval());
        let partial = sim.run_kernel_monitored(&k, &mut m).unwrap();
        assert!(partial.early_stop);
        assert!(m.stopped_at().is_some());
        let projected = ProjectedKernel::from_result(&partial);
        assert!(projected.projected);
        assert!(projected.speedup() > 1.2, "{}", projected.speedup());
        let err = (projected.cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
        assert!(err < 0.35, "projection error {err}");
    }

    #[test]
    fn wave_constraint_delays_stop() {
        let sim = tiny();
        let k = stable_kernel(512);
        let mut with_wave = PkpMonitor::new(PkpConfig::default(), 200);
        let mut without = PkpMonitor::new(PkpConfig::default().with_wave_constraint(false), 200);
        let a = sim.run_kernel_monitored(&k, &mut with_wave).unwrap();
        let b = sim.run_kernel_monitored(&k, &mut without).unwrap();
        assert!(a.cycles >= b.cycles, "{} < {}", a.cycles, b.cycles);
        // With the constraint, at least one wave retired before the stop.
        assert!(a.blocks_completed >= a.wave_blocks);
    }

    #[test]
    fn sub_wave_grid_waives_the_constraint() {
        let sim = tiny();
        // 8 blocks on a 4-SM part with plenty of occupancy: well under one
        // wave, but long enough to stabilise.
        let k = KernelDescriptor::builder("small_grid")
            .grid_blocks(8)
            .block_threads(128)
            .fp32_per_thread(20_000)
            .global_loads_per_thread(200)
            .build()
            .unwrap();
        let mut m = PkpMonitor::new(PkpConfig::default(), 200);
        let r = sim.run_kernel_monitored(&k, &mut m).unwrap();
        assert!(r.early_stop, "sub-wave kernels still stop on stability");
        assert!(r.blocks_completed < r.wave_blocks);
        let projected = ProjectedKernel::from_result(&r);
        let full = sim.run_kernel(&k).unwrap();
        let err = (projected.cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
        assert!(err < 0.35, "projection error {err}");
    }

    #[test]
    fn stricter_threshold_simulates_longer() {
        let sim = tiny();
        let k = stable_kernel(512);
        let mut loose = PkpMonitor::new(PkpConfig::default().with_threshold(2.5), 200);
        let mut strict = PkpMonitor::new(PkpConfig::default().with_threshold(0.025), 200);
        let a = sim.run_kernel_monitored(&k, &mut loose).unwrap();
        let b = sim.run_kernel_monitored(&k, &mut strict).unwrap();
        assert!(
            a.cycles <= b.cycles,
            "loose {} strict {}",
            a.cycles,
            b.cycles
        );
    }

    #[test]
    fn irregular_kernel_eventually_stabilises() {
        // Multi-phase kernel (the BFS shape of Figure 5b): PKP must wait
        // out the early phases, then still stop.
        let sim = tiny();
        let k = KernelDescriptor::builder("irregular")
            .grid_blocks(256)
            .block_threads(128)
            .int_per_thread(300)
            .global_loads_per_thread(60)
            .coalescing_sectors(12.0)
            .divergence_efficiency(0.5)
            .phases(vec![
                KernelPhase {
                    fraction: 0.2,
                    mem_scale: 2.0,
                    compute_scale: 0.5,
                },
                KernelPhase {
                    fraction: 0.8,
                    mem_scale: 0.8,
                    compute_scale: 1.1,
                },
            ])
            .build()
            .unwrap();
        let full = sim.run_kernel(&k).unwrap();
        let mut m = PkpMonitor::new(PkpConfig::default(), 200);
        let r = sim.run_kernel_monitored(&k, &mut m).unwrap();
        if r.early_stop {
            let projected = ProjectedKernel::from_result(&r);
            let err = (projected.cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
            assert!(err < 0.6, "irregular projection error {err}");
        }
    }

    #[test]
    fn completed_kernel_projects_to_itself() {
        let sim = tiny();
        let k = stable_kernel(16);
        let full = sim.run_kernel(&k).unwrap();
        let p = ProjectedKernel::from_result(&full);
        assert!(!p.projected);
        assert_eq!(p.cycles, full.cycles);
        assert_eq!(p.speedup(), 1.0);
    }

    #[test]
    fn paper_defaults_are_pinned() {
        // Section 3.2's published operating point: s = 0.25 over the last
        // 3000 cycles, wave constraint on. Changing these silently would
        // invalidate every reproduced table.
        let config = PkpConfig::default();
        assert_eq!(config.threshold(), 0.25);
        assert_eq!(config.window_cycles(), 3000);
        assert!(config.wave_constraint());
    }
}

#[cfg(test)]
mod stopping_rule_properties {
    use super::*;
    use pka_sim::IpcSample;
    use proptest::prelude::*;

    /// Drives a monitor with a synthetic IPC stream and the given block
    /// geometry (blocks retire linearly over the stream) and returns the
    /// sample index at which it stopped, with the completion state there.
    fn drive(
        monitor: &mut PkpMonitor,
        ipc: &[f64],
        blocks_total: u64,
        wave_blocks: u64,
        sample_interval: u64,
    ) -> Option<(usize, u64)> {
        let n = ipc.len() as u64;
        for (i, &sample_ipc) in ipc.iter().enumerate() {
            let blocks_completed = blocks_total * (i as u64 + 1) / n;
            let ctx = SampleContext {
                sample: IpcSample {
                    cycle: (i as u64 + 1) * sample_interval,
                    ipc: sample_ipc,
                    l2_miss_pct: 10.0,
                    dram_util_pct: 20.0,
                },
                instructions: (i as u64 + 1) * 1000,
                blocks_completed,
                blocks_total,
                wave_blocks,
            };
            if monitor.observe(&ctx) == SimControl::Stop {
                return Some((i, blocks_completed));
            }
        }
        None
    }

    /// A synthetic projectable result; only the completion state and cycle
    /// counts matter for the cycle projection.
    fn result_with_blocks(
        cycles: u64,
        overhead: u64,
        completed: u64,
        total: u64,
        wave: u64,
    ) -> KernelSimResult {
        KernelSimResult {
            cycles,
            instructions: 4 * cycles,
            instructions_total: 4 * cycles * total.max(1) / completed.max(1),
            launch_overhead_cycles: overhead,
            warp_ipc: 4.0,
            ipc_series: Vec::new(),
            dram_util_pct: 30.0,
            l2_miss_rate_pct: 15.0,
            l1_miss_rate_pct: 25.0,
            blocks_completed: completed,
            blocks_total: total,
            wave_blocks: wave,
            early_stop: completed < total,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The full-wave constraint (Section 3.2): a grid of at least one
        /// wave never stops before `wave_blocks` thread blocks have
        /// retired, no matter how flat the IPC stream is.
        #[test]
        fn never_stops_before_one_full_wave(
            base in 0.5f64..4.0,
            noise in 0.0f64..0.05,
            wave_blocks in 1u64..32,
            waves in 1u64..6,
            len in 20usize..80,
            seed in any::<u64>(),
        ) {
            let blocks_total = wave_blocks * waves; // >= one wave
            let ipc: Vec<f64> = (0..len)
                .map(|i| {
                    let wobble = (seed.wrapping_mul(i as u64 + 1) % 1000) as f64 / 1000.0;
                    base * (1.0 + noise * (wobble - 0.5))
                })
                .collect();
            let mut monitor = PkpMonitor::new(PkpConfig::default(), 200);
            if let Some((_, completed_at_stop)) =
                drive(&mut monitor, &ipc, blocks_total, wave_blocks, 200)
            {
                prop_assert!(
                    completed_at_stop >= wave_blocks,
                    "stopped with {completed_at_stop} of {wave_blocks} wave blocks retired"
                );
                prop_assert!(monitor.stopped_at().is_some());
            }
        }

        /// The sub-wave carve-out: grids smaller than one wave may stop on
        /// stability alone, and a flat stream makes them do so.
        #[test]
        fn sub_wave_grids_stop_without_a_retired_wave(
            base in 0.5f64..4.0,
            wave_blocks in 8u64..64,
        ) {
            let blocks_total = wave_blocks - 1; // strictly sub-wave
            let ipc = vec![base; 40]; // perfectly flat -> rel std dev 0
            let mut monitor = PkpMonitor::new(PkpConfig::default(), 200);
            let stop = drive(&mut monitor, &ipc, blocks_total, wave_blocks, 200);
            prop_assert!(stop.is_some(), "flat sub-wave stream must stop");
            let (i, completed) = stop.unwrap();
            // It stopped as soon as the window filled, before any full wave
            // could possibly retire.
            prop_assert!(completed < wave_blocks);
            prop_assert_eq!(i + 1, monitor.window.window());
        }

        /// Disabling the wave constraint can only make the stop earlier.
        #[test]
        fn wave_constraint_never_hastens_the_stop(
            base in 0.5f64..4.0,
            wave_blocks in 2u64..32,
            waves in 1u64..5,
        ) {
            let blocks_total = wave_blocks * waves;
            let ipc = vec![base; 60];
            let mut with_wave = PkpMonitor::new(PkpConfig::default(), 200);
            let mut without = PkpMonitor::new(
                PkpConfig::default().with_wave_constraint(false),
                200,
            );
            let a = drive(&mut with_wave, &ipc, blocks_total, wave_blocks, 200);
            let b = drive(&mut without, &ipc, blocks_total, wave_blocks, 200);
            prop_assert!(b.is_some(), "unconstrained flat stream must stop");
            if let (Some((ia, _)), Some((ib, _))) = (a, b) {
                prop_assert!(ib <= ia, "unconstrained stopped later: {ib} > {ia}");
            }
        }

        /// A stream whose level keeps moving never stops. (A *fast*
        /// alternation is not such a stream — the monitor's EMA smoothing
        /// legitimately flattens it — so the adversary here is a steep
        /// geometric ramp, which no smoothing can make look stationary.)
        #[test]
        fn unstable_streams_never_stop(
            base in 0.01f64..1.0,
            growth in 1.4f64..1.8,
            wave_blocks in 1u64..16,
            len in 20usize..100,
        ) {
            let ipc: Vec<f64> = (0..len)
                .map(|i| base * growth.powi(i as i32))
                .collect();
            let mut monitor = PkpMonitor::new(PkpConfig::default(), 200);
            let stop = drive(&mut monitor, &ipc, wave_blocks * 4, wave_blocks, 200);
            prop_assert!(stop.is_none(), "alternating stream stopped at {stop:?}");
            prop_assert!(monitor.stopped_at().is_none());
        }

        /// Linear projection is monotone in the number of unfinished
        /// blocks: with the same simulated prefix, a grid with more blocks
        /// left must project at least as many total cycles.
        #[test]
        fn projected_cycles_monotone_in_unfinished_blocks(
            cycles in 1_000u64..1_000_000,
            overhead_pct in 0u64..50,
            completed in 1u64..200,
            extra_small in 0u64..500,
            extra_more in 1u64..500,
            wave in 1u64..64,
        ) {
            let overhead = cycles * overhead_pct / 100;
            let small = result_with_blocks(
                cycles, overhead, completed, completed + extra_small, wave);
            let large = result_with_blocks(
                cycles, overhead, completed, completed + extra_small + extra_more, wave);
            let p_small = small.projected_total_cycles();
            let p_large = large.projected_total_cycles();
            prop_assert!(
                p_large >= p_small,
                "more unfinished blocks projected fewer cycles: {p_large} < {p_small}"
            );
            // Projection never goes below what was actually simulated.
            prop_assert!(p_small >= cycles);
        }

        /// A finished kernel projects to exactly its simulated cycles.
        #[test]
        fn finished_kernels_project_identity(
            cycles in 1_000u64..1_000_000,
            blocks in 1u64..500,
            wave in 1u64..64,
        ) {
            let done = result_with_blocks(cycles, 0, blocks, blocks, wave);
            prop_assert_eq!(done.projected_total_cycles(), cycles);
            let p = ProjectedKernel::from_result(&done);
            prop_assert_eq!(p.cycles, cycles);
            prop_assert!(!p.projected);
        }
    }
}
