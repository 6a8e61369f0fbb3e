//! Property-based tests over the core invariants, spanning crates.

use principal_kernel_analysis::gpu::{
    GpuConfig, GpuGeneration, KernelDescriptor, KernelMetrics, KernelPhase, Occupancy,
    SiliconExecutor,
};
use principal_kernel_analysis::ml::{KMeans, Matrix};
use principal_kernel_analysis::sim::{SimOptions, Simulator, WarpProgram};
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
