//! Property-based tests over the core invariants, spanning crates.

use principal_kernel_analysis::core::{fit_tail_ensemble, PkpConfig, PkpMonitor};
use principal_kernel_analysis::gpu::{
    GpuConfig, GpuGeneration, KernelDescriptor, KernelMetrics, KernelPhase, Occupancy,
    SiliconExecutor,
};
use principal_kernel_analysis::ml::classify::{Classifier, Ensemble, EnsembleMemo};
use principal_kernel_analysis::ml::{KMeans, Matrix, Pca};
use principal_kernel_analysis::sim::{
    IpcSample, KernelSimResult, MaxCyclesMonitor, MaxInstructionsMonitor, NullMonitor,
    SimMonitor, SimOptions, Simulator, WarpProgram,
};
use principal_kernel_analysis::stats::hash::UnitStream;
use principal_kernel_analysis::stats::{OnlineStats, RollingStats};
use proptest::prelude::*;

/// A random but always-valid kernel descriptor, kept small enough for
/// debug-mode simulation.
fn arb_kernel() -> impl Strategy<Value = KernelDescriptor> {
    (
        1u32..32,        // blocks
        1u32..257,       // threads per block
        0u32..200,       // fp32
        0u32..40,        // global loads
        0u32..20,        // global stores
        0u32..60,        // shared loads
        0u32..4,         // syncs
        1.0f64..32.0,    // coalescing sectors
        0.0f64..1.0,     // l1 locality
        0.0f64..1.0,     // l2 locality
        0.05f64..1.0,    // divergence efficiency
        any::<u64>(),    // seed
    )
        .prop_map(
            |(blocks, tpb, fp, ld, st, sh, sync, coal, l1, l2, div, seed)| {
                KernelDescriptor::builder("prop")
                    .grid_blocks(blocks)
                    .block_threads(tpb)
                    .fp32_per_thread(fp)
                    .global_loads_per_thread(ld)
                    .global_stores_per_thread(st)
                    .shared_loads_per_thread(sh)
                    .syncs_per_thread(sync)
                    .coalescing_sectors(coal)
                    .l1_locality(l1)
                    .l2_locality(l2)
                    .divergence_efficiency(div)
                    .seed(seed)
                    .build()
                    .expect("all strategy values are in range")
            },
        )
}

/// The three phases of an irregular (BFS-like) kernel: memory-heavy,
/// balanced, then compute-heavy.
fn three_phases() -> Vec<KernelPhase> {
    [(0.25, 1.8, 0.6), (0.5, 1.0, 1.0), (0.25, 0.6, 1.3)]
        .into_iter()
        .map(|(fraction, mem_scale, compute_scale)| KernelPhase {
            fraction,
            mem_scale,
            compute_scale,
        })
        .collect()
}

/// Fitting this mix's three phases to its instruction total shaves the
/// last loop segment down to zero iterations. Such a segment must be
/// dropped: no warp walks past it, so the kernel would never complete.
#[test]
fn shaved_multi_phase_kernel_simulates_to_completion() {
    let k = KernelDescriptor::builder("shaved")
        .grid_blocks(8)
        .block_threads(64)
        .int_per_thread(0)
        .branches_per_thread(0)
        .fp32_per_thread(94)
        .global_loads_per_thread(2)
        .phases(three_phases())
        .build()
        .expect("valid kernel");
    let sim = Simulator::new(
        GpuConfig::builder("prop4")
            .num_sms(4)
            .build()
            .expect("valid"),
        SimOptions::default().with_max_cycles(1_000_000),
    );
    let r = sim
        .run_kernel(&k)
        .expect("the kernel completes within the budget");
    assert_eq!(r.instructions, k.total_warp_instructions());
    assert_eq!(r.blocks_completed, k.total_blocks());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A `Simulator` reuses its engine state across kernels; whatever ran
    /// before, each result equals a new simulator's.
    #[test]
    fn reused_simulator_matches_a_new_one(ks in prop::collection::vec(arb_kernel(), 2..5)) {
        let config = GpuConfig::builder("prop4").num_sms(4).build().expect("valid");
        let reused = Simulator::new(config.clone(), SimOptions::default());
        for k in &ks {
            let fresh = Simulator::new(config.clone(), SimOptions::default());
            prop_assert_eq!(
                reused.run_kernel(k).expect("in-range kernels simulate"),
                fresh.run_kernel(k).expect("in-range kernels simulate")
            );
        }
    }
}

/// Every field of `r` as words, `f64`s as their bits, so two results
/// compare bit for bit. The destructuring is exhaustive: a new field fails
/// to compile here until it is listed.
fn result_bits(r: &KernelSimResult) -> Vec<u64> {
    let KernelSimResult {
        cycles,
        instructions,
        instructions_total,
        launch_overhead_cycles,
        warp_ipc,
        ipc_series,
        dram_util_pct,
        l2_miss_rate_pct,
        l1_miss_rate_pct,
        blocks_completed,
        blocks_total,
        wave_blocks,
        early_stop,
    } = r;
    let mut words = vec![
        *cycles,
        *instructions,
        *instructions_total,
        *launch_overhead_cycles,
        warp_ipc.to_bits(),
        dram_util_pct.to_bits(),
        l2_miss_rate_pct.to_bits(),
        l1_miss_rate_pct.to_bits(),
        *blocks_completed,
        *blocks_total,
        *wave_blocks,
        u64::from(*early_stop),
    ];
    for IpcSample {
        cycle,
        ipc,
        l2_miss_pct,
        dram_util_pct,
    } in ipc_series
    {
        words.extend([*cycle, ipc.to_bits(), l2_miss_pct.to_bits(), dram_util_pct.to_bits()]);
    }
    words
}

/// Runs `kernel` once through `run_kernel_with_stop` on `sim` and checks
/// both halves against `run_kernel` and `run_kernel_monitored` on a new
/// simulator, each under a new monitor from `monitor`. Returns the
/// one-pass monitor and the stop-only run's monitor, as each run left it.
fn check_one_pass<M: SimMonitor>(
    sim: &Simulator,
    kernel: &KernelDescriptor,
    monitor: impl Fn() -> M,
) -> Result<(M, M), TestCaseError> {
    let fresh = Simulator::new(sim.config().clone(), *sim.options());
    let full = fresh.run_kernel(kernel).expect("in-range kernels simulate");
    let mut stop_only = monitor();
    let stopped = fresh
        .run_kernel_monitored(kernel, &mut stop_only)
        .expect("in-range kernels simulate");
    let mut one_pass = monitor();
    let (got_full, got_stopped) = sim
        .run_kernel_with_stop(kernel, &mut one_pass)
        .expect("in-range kernels simulate");
    prop_assert_eq!(result_bits(&got_full), result_bits(&full));
    prop_assert_eq!(result_bits(&got_stopped), result_bits(&stopped));
    Ok((one_pass, stop_only))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One engine pass returns exactly the full run and the stop-only run,
    /// under every monitor PKA and its baselines use, on a new simulator
    /// and on one whose pooled state a previous run left mid-flight. A PKP
    /// monitor ends in the state the stop-only run leaves it in.
    #[test]
    fn one_pass_matches_a_full_and_a_stopped_run(
        k in arb_kernel(),
        watch in 0usize..6,
        budget in 1u64..8_000,
        warm_up in arb_kernel(),
    ) {
        let config = GpuConfig::builder("prop4").num_sms(4).build().expect("valid");
        let new = Simulator::new(config.clone(), SimOptions::default());
        let warm = Simulator::new(config, SimOptions::default());
        warm.run_kernel_monitored(&warm_up, &mut MaxCyclesMonitor::new(budget / 4 + 1))
            .expect("in-range kernels simulate");
        let interval = new.options().sample_interval();
        for sim in [&new, &warm] {
            match watch {
                0 => {
                    check_one_pass(sim, &k, || NullMonitor)?;
                }
                1 => {
                    check_one_pass(sim, &k, || MaxCyclesMonitor::new(budget))?;
                }
                2 => {
                    check_one_pass(sim, &k, || MaxInstructionsMonitor::new(budget * 8))?;
                }
                _ => {
                    let s = [2.5, 0.25, 0.025][watch - 3];
                    let pkp = PkpConfig::default().with_threshold(s);
                    let (one_pass, stop_only) =
                        check_one_pass(sim, &k, || PkpMonitor::new(pkp, interval))?;
                    prop_assert_eq!(one_pass.stopped_at(), stop_only.stopped_at());
                    prop_assert_eq!(
                        one_pass.stable_ipc().map(f64::to_bits),
                        stop_only.stable_ipc().map(f64::to_bits)
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_length_always_matches_descriptor(k in arb_kernel()) {
        let program = WarpProgram::from_descriptor(&k);
        prop_assert_eq!(program.len(), k.instructions_per_thread());
    }

    #[test]
    fn silicon_is_deterministic_and_positive(k in arb_kernel()) {
        let silicon = SiliconExecutor::new(GpuConfig::v100());
        let a = silicon.execute(&k).expect("in-range kernels launch");
        let b = silicon.execute(&k).expect("in-range kernels launch");
        prop_assert_eq!(a, b);
        prop_assert!(a.cycles > 0);
        prop_assert!(a.seconds > 0.0);
        prop_assert!((0.0..=100.0).contains(&a.dram_util_pct));
        prop_assert!((0.0..=100.0).contains(&a.l2_miss_rate_pct));
    }

    #[test]
    fn occupancy_never_exceeds_hardware_limits(k in arb_kernel()) {
        let config = GpuConfig::v100();
        let occ = Occupancy::compute(&k, &config).expect("in-range kernels fit");
        prop_assert!(occ.blocks_per_sm() >= 1);
        prop_assert!(occ.blocks_per_sm() <= config.max_blocks_per_sm());
        prop_assert!(occ.resident_warps_per_sm() <= config.max_warps_per_sm());
        prop_assert!(occ.fraction() <= 1.0);
        // Waves cover the grid exactly.
        prop_assert!(occ.waves() * occ.wave_blocks() >= k.total_blocks());
        prop_assert!((occ.waves() - 1) * occ.wave_blocks() < k.total_blocks());
    }

    #[test]
    fn metrics_scale_linearly_with_grid(k in arb_kernel()) {
        let m1 = KernelMetrics::from_descriptor(&k, GpuGeneration::Volta);
        let doubled = KernelDescriptor::builder(k.name())
            .grid_blocks(k.grid().x * 2)
            .block(k.block())
            .fp32_per_thread(k.count(principal_kernel_analysis::gpu::InstClass::Fp32))
            .global_loads_per_thread(k.count(principal_kernel_analysis::gpu::InstClass::LdGlobal))
            .int_per_thread(k.count(principal_kernel_analysis::gpu::InstClass::Int))
            .branches_per_thread(k.count(principal_kernel_analysis::gpu::InstClass::Branch))
            .build()
            .expect("valid");
        let m2 = KernelMetrics::from_descriptor(&doubled, GpuGeneration::Volta);
        prop_assert_eq!(m2.thread_blocks, m1.thread_blocks * 2);
        // Shared per-thread structure means instruction counts double with
        // the grid (up to the classes carried over).
        prop_assert!(m2.thread_global_loads >= m1.thread_global_loads);
    }

    #[test]
    fn simulation_retires_every_instruction(k in arb_kernel()) {
        let sim = Simulator::new(
            GpuConfig::builder("prop4").num_sms(4).build().expect("valid"),
            SimOptions::default(),
        );
        let r = sim.run_kernel(&k).expect("in-range kernels simulate");
        prop_assert_eq!(r.instructions, k.total_warp_instructions());
        prop_assert_eq!(r.blocks_completed, k.total_blocks());
        prop_assert!(!r.early_stop);
        // IPC cannot exceed the device issue bound.
        let peak = 4.0 * 4.0;
        prop_assert!(r.warp_ipc <= peak + 1e-9);
    }

    #[test]
    fn rolling_stats_match_naive_window(xs in prop::collection::vec(-1e6f64..1e6, 1..200),
                                         window in 1usize..32) {
        let mut rolling = RollingStats::new(window);
        for (i, &x) in xs.iter().enumerate() {
            rolling.push(x);
            let lo = (i + 1).saturating_sub(window);
            let win = &xs[lo..=i];
            let naive: OnlineStats = win.iter().copied().collect();
            let mean_scale = naive.mean().abs().max(1.0);
            prop_assert!((rolling.mean() - naive.mean()).abs() / mean_scale < 1e-9);
            let var_scale = naive.population_variance().abs().max(1.0);
            prop_assert!(
                (rolling.variance() - naive.population_variance()).abs() / var_scale < 1e-6,
                "variance {} vs {}", rolling.variance(), naive.population_variance()
            );
        }
    }

    #[test]
    fn pca_transform_matches_transform_row_and_the_scalar_fold(
            rows in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 6), 2..30),
            k in 1usize..6) {
        // Both projection paths must reproduce the ascending-order
        // `Σ (x − m)·c` fold to the bit: streaming checkpoints pin it.
        let data = Matrix::from_rows(&rows).expect("non-empty");
        let fit = Pca::new(k).fit(&data).expect("pca fits");
        let projected = fit.transform(&data).expect("projects");
        let means = data.column_means();
        for (i, row) in data.iter_rows().enumerate() {
            let single = fit.transform_row(row).expect("projects");
            for (j, comp) in fit.components().iter().enumerate() {
                let fold: f64 = row
                    .iter()
                    .zip(means.iter().zip(comp))
                    .map(|(&x, (&m, &c))| (x - m) * c)
                    .sum();
                prop_assert_eq!(projected.get(i, j).to_bits(), fold.to_bits());
                prop_assert_eq!(single[j].to_bits(), fold.to_bits());
            }
        }
    }

    #[test]
    fn kmeans_labels_are_a_partition(points in prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, 3), 2..60),
            k in 1usize..8) {
        let data = Matrix::from_rows(&points).expect("non-empty");
        let fit = KMeans::new(k).with_seed(7).fit(&data).expect("fits");
        prop_assert_eq!(fit.labels().len(), points.len());
        for &l in fit.labels() {
            prop_assert!(l < fit.k());
        }
        // Inertia is non-negative and zero only if every point sits on a
        // centroid.
        prop_assert!(fit.inertia() >= 0.0);
        let members: usize = fit.members().iter().map(|m| m.len()).sum();
        prop_assert_eq!(members, points.len());
    }
}

/// The tail classifier's ensemble, fitted on a random three-class
/// training set of `dims`-feature rows.
fn fitted_ensemble(seed: u64, dims: usize) -> Ensemble {
    let mut rng = UnitStream::new(seed);
    let rows: Vec<Vec<f64>> = (0..48)
        .map(|i| {
            let centre = (i % 3) as f64 * 4.0;
            (0..dims).map(|_| centre + rng.next_range(-2.0, 2.0)).collect()
        })
        .collect();
    let labels: Vec<usize> = (0..48).map(|i| i % 3).collect();
    let x = Matrix::from_rows(&rows).expect("training matrix");
    fit_tail_ensemble(&x, &labels, seed).expect("ensemble fits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The memo caches a pure function exactly: batches that mix repeated
    /// rows with more than 1024 distinct ones (so slots are overwritten
    /// and collide) get, row for row, the label `Ensemble::predict` gives.
    #[test]
    fn memo_labels_equal_per_row_ensemble_predictions(
        seed in any::<u64>(),
        distinct in 1_100usize..1_600,
        batch in 1usize..700,
    ) {
        const DIMS: usize = 4;
        let ensemble = fitted_ensemble(seed, DIMS);
        let mut rng = UnitStream::new(seed ^ 0x5eed);
        let pool: Vec<f64> = (0..distinct * DIMS).map(|_| rng.next_range(-3.0, 11.0)).collect();
        // Every pool row once plus repeats from a small hot set and from
        // the whole pool, shuffled together.
        let mut order: Vec<usize> = (0..distinct).collect();
        order.extend((0..2 * distinct).map(|i| {
            if i % 2 == 0 { rng.next_index(16) } else { rng.next_index(distinct) }
        }));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_index(i + 1));
        }
        let flat: Vec<f64> = order
            .iter()
            .flat_map(|&r| pool[r * DIMS..(r + 1) * DIMS].iter().copied())
            .collect();

        let mut memo = EnsembleMemo::new(&ensemble, DIMS);
        let mut labels = Vec::new();
        let mut got = Vec::new();
        let mut hits = 0;
        for chunk in flat.chunks(batch * DIMS) {
            hits += memo.predict_into(chunk, &mut labels).expect("memo labels");
            got.extend_from_slice(&labels);
        }
        let want: Vec<usize> = flat
            .chunks_exact(DIMS)
            .map(|row| ensemble.predict(row).expect("ensemble labels"))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert!(hits > 0, "repeats of the hot rows must hit");
    }
}
