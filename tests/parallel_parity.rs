//! Sequential-vs-parallel parity: the executor's determinism contract.
//!
//! Every parallel fan-out in the pipeline (per-kernel silicon profiling,
//! the K-Means K-sweep, per-representative simulation, two-level tail
//! classification) must produce **bitwise identical** observable results to
//! a sequential run — same selections, same projected cycles, same error
//! tables — for any worker count. These tests compare whole result structs
//! (including their `f64` fields) with `assert_eq!`, so even a one-ULP
//! divergence from a reordered float reduction fails the suite.

use std::num::NonZeroUsize;

use principal_kernel_analysis::core::{
    Pka, PkaConfig, PksConfig, Selection, SimulationReport, TwoLevel, TwoLevelConfig,
};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::workloads::{all_workloads, Workload};

/// Worker counts exercised against the sequential baseline. Real threads
/// are spawned regardless of the host's core count, so index-ordered
/// result collection is exercised even on a single-core machine.
const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

/// Clustering seeds the parity matrix sweeps.
const SEEDS: [u64; 3] = [0, 1, 0x9E3779B97F4A7C15];

fn workload(name: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("known workload")
}

fn tiny_gpu() -> GpuConfig {
    GpuConfig::builder("parity8").num_sms(8).build().expect("valid")
}

#[test]
fn selection_parity_across_seeds_and_workloads() {
    // 3 seeds x 3 workloads (different suites and kernel-stream shapes),
    // each selected sequentially and with 4 workers. (The full 2/4/8
    // worker-count sweep runs on one combination in
    // `selection_parity_across_worker_counts` — worker count cannot affect
    // which items exist, only their schedule, so one sweep suffices.)
    for name in ["gauss_208", "histo", "fdtd2d"] {
        let w = workload(name);
        for seed in SEEDS {
            let config_for = |workers: usize| {
                PkaConfig::default()
                    .with_pks(PksConfig::default().with_seed(seed))
                    .with_workers(workers)
            };
            let sequential: Selection = Pka::new(GpuConfig::v100(), config_for(1))
                .select_kernels(&w)
                .expect("sequential selection");
            let parallel = Pka::new(GpuConfig::v100(), config_for(4))
                .select_kernels(&w)
                .expect("parallel selection");
            assert_eq!(
                sequential, parallel,
                "{name} seed {seed}: selection diverged at 4 workers"
            );
            assert_eq!(
                sequential.projected_cycles(),
                parallel.projected_cycles(),
                "{name} seed {seed}: projected cycles diverged at 4 workers"
            );
        }
    }
}

#[test]
fn selection_parity_across_worker_counts() {
    let w = workload("histo");
    let config_for = |workers: usize| {
        PkaConfig::default()
            .with_pks(PksConfig::default().with_seed(SEEDS[2]))
            .with_workers(workers)
    };
    let sequential: Selection = Pka::new(GpuConfig::v100(), config_for(1))
        .select_kernels(&w)
        .expect("sequential selection");
    for workers in WORKER_COUNTS {
        let parallel = Pka::new(GpuConfig::v100(), config_for(workers))
            .select_kernels(&w)
            .expect("parallel selection");
        assert_eq!(
            sequential, parallel,
            "selection diverged at {workers} workers"
        );
    }
}

#[test]
fn simulation_report_parity_across_worker_counts() {
    // The full sampled-simulation path, full-sim baseline included: every
    // field of the report (u64 cycles and f64 errors/hours/DRAM) must
    // match bit for bit.
    for name in ["cutcp", "bfs65536", "srad_v1"] {
        let w = workload(name);
        let sequential: SimulationReport =
            Pka::new(tiny_gpu(), PkaConfig::default().with_workers(1))
                .evaluate_in_simulation(&w, true)
                .expect("sequential evaluation");
        let parallel = Pka::new(tiny_gpu(), PkaConfig::default().with_workers(4))
            .evaluate_in_simulation(&w, true)
            .expect("parallel evaluation");
        assert_eq!(
            sequential, parallel,
            "{name}: simulation report diverged at 4 workers"
        );
    }
}

/// A representative's one engine pass serves the full-sim baseline, PKS
/// and PKA alike, so every sampled number (and the per-representative PKP
/// table) must not depend on whether the baseline ran, and the attribution
/// must not depend on the worker count. The workloads cover the memory,
/// micro and early-stop regimes on V100. `backprop`'s and `sad`'s
/// representatives are not in launch order, so each one's outcome must
/// land in its own slot.
#[test]
fn sampled_numbers_do_not_depend_on_the_full_sim_baseline() {
    for name in ["backprop", "mri", "sad", "gauss_208"] {
        let w = workload(name);
        let evaluate = |workers: usize| {
            Pka::new(GpuConfig::v100(), PkaConfig::default().with_workers(workers))
                .evaluate_with_attribution(&w, true)
                .expect("evaluation")
        };
        let (with_baseline, attribution) = evaluate(1);
        for workers in [2, 4] {
            assert_eq!(
                evaluate(workers),
                (with_baseline.clone(), attribution.clone()),
                "{name}: report or attribution diverged at {workers} workers"
            );
        }
        let without = Pka::new(GpuConfig::v100(), PkaConfig::default())
            .evaluate_in_simulation(&w, false)
            .expect("evaluation");
        assert!(with_baseline.fullsim_cycles.is_some() && without.fullsim_cycles.is_none());
        let sampled_only = SimulationReport {
            fullsim_cycles: None,
            fullsim_dram_util_pct: None,
            sim_error_pct: None,
            fullsim_hours: without.fullsim_hours,
            ..with_baseline
        };
        assert_eq!(sampled_only, without, "{name}: the baseline moved a sampled number");
    }
}

#[test]
fn silicon_report_parity_across_worker_counts() {
    // The cross-generation silicon path: selection on Volta, re-execution
    // of the representatives on Turing/Ampere silicon models.
    let w = workload("srad_v1");
    let selection = Pka::new(GpuConfig::v100(), PkaConfig::default())
        .select_kernels(&w)
        .expect("selects");
    for gpu in [GpuConfig::v100(), GpuConfig::rtx2060(), GpuConfig::rtx3070()] {
        let report_with = |workers: usize| {
            let pka = Pka::new(gpu.clone(), PkaConfig::default().with_workers(workers));
            let silicon = pka.profiler().silicon_run(&w).expect("silicon runs");
            pka.silicon_report_for(&w, &selection, &silicon)
                .expect("silicon report")
        };
        let sequential = report_with(1);
        for workers in WORKER_COUNTS {
            let parallel = report_with(workers);
            assert_eq!(
                sequential, parallel,
                "{}: silicon report diverged at {workers} workers",
                gpu.name()
            );
        }
    }
}

#[test]
fn two_level_parity_across_worker_counts() {
    // Forces the two-level path (detailed prefix + classified tail) on a
    // mid-sized stream; the chunked parallel tail classification must
    // reproduce the streamed sequential group counts exactly.
    let w = workload("gramschmidt");
    let config = TwoLevelConfig::default().with_detailed_prefix_cap(600);
    let profiler = Profiler::new(GpuConfig::v100());
    let sequential = TwoLevel::new(config)
        .analyze(&w, &profiler)
        .expect("sequential two-level");
    for workers in WORKER_COUNTS {
        let exec = principal_kernel_analysis::core::Executor::new(workers);
        let parallel = TwoLevel::new(config)
            .with_executor(exec)
            .analyze(&w, &profiler.clone().with_executor(exec))
            .expect("parallel two-level");
        assert_eq!(
            sequential, parallel,
            "two-level selection diverged at {workers} workers"
        );
    }
}

#[test]
fn parallel_is_faster_on_multicore_hosts() {
    // Wall-clock smoke: with >= 4 hardware threads, profiling a 6411-kernel
    // stream with 4 workers must beat the sequential run. Skipped (not
    // failed) on smaller hosts, where the parity tests above still
    // exercise real threads via explicit worker counts.
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup smoke: only {cores} hardware thread(s)");
        return;
    }
    let w = workload("gramschmidt");
    let sequential_profiler = Profiler::new(GpuConfig::v100());
    let parallel_profiler = Profiler::new(GpuConfig::v100())
        .with_executor(principal_kernel_analysis::core::Executor::new(4));

    // Warm up caches/allocator before timing.
    let _ = sequential_profiler.detailed(&w, 0..200).expect("warmup");

    let t0 = std::time::Instant::now();
    let a = sequential_profiler
        .detailed(&w, 0..w.kernel_count())
        .expect("sequential profiling");
    let sequential_time = t0.elapsed();

    let t1 = std::time::Instant::now();
    let b = parallel_profiler
        .detailed(&w, 0..w.kernel_count())
        .expect("parallel profiling");
    let parallel_time = t1.elapsed();

    assert_eq!(a, b, "profiling records diverged");
    assert!(
        parallel_time < sequential_time,
        "4 workers ({parallel_time:?}) not faster than sequential ({sequential_time:?})"
    );
}
