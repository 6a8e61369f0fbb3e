//! Property-based tests over the core invariants, spanning crates.

use std::sync::OnceLock;

use principal_kernel_analysis::core::{
    fit_tail_ensemble, ErrorAttribution, Pka, PkaConfig, PkpConfig, PkpMonitor,
};
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
use principal_kernel_analysis::obs::Registry;
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::server::read_request;
use principal_kernel_analysis::stats::hash::UnitStream;
use principal_kernel_analysis::stats::{summary, OnlineStats, RollingStats};
use principal_kernel_analysis::stream::{
    synthetic_workload, Checkpoint, JsonlSource, KernelSource, StreamConfig, StreamError,
    StreamPks, WorkloadSource,
};
use principal_kernel_analysis::workloads::rodinia;
use proptest::prelude::*;
use serde_json::Value;

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

/// One real artifact of each file type read back in: a simulation-kind
/// `pka.attribution/v1` (every optional field present) and a final
/// `pka.stream_checkpoint/v1`, built once per test binary.
fn read_back_documents() -> &'static [(&'static str, Value); 2] {
    static DOCS: OnceLock<[(&'static str, Value); 2]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let gpu = GpuConfig::builder("prop8").num_sms(8).build().expect("valid");
        let w = rodinia::workloads()
            .into_iter()
            .find(|w| w.name() == "gauss_208")
            .expect("known workload");
        let (_, attribution) = Pka::new(gpu, PkaConfig::default())
            .evaluate_with_attribution(&w, false)
            .expect("pipeline runs");
        let mut source =
            WorkloadSource::new(synthetic_workload(600), Profiler::new(GpuConfig::v100()));
        let outcome = StreamPks::new(StreamConfig::default().with_prefix(200))
            .run(&mut source, |_: &Checkpoint| Ok::<(), StreamError>(()))
            .expect("stream runs");
        [
            ("attribution", serde_json::to_value(&attribution).expect("serialises")),
            (
                "checkpoint",
                serde_json::from_str(&outcome.final_checkpoint.to_json()).expect("parses"),
            ),
        ]
    })
}

/// Every node below the root as a path of object keys / array indices.
fn node_paths(v: &Value, at: &[String], out: &mut Vec<Vec<String>>) {
    let children: Vec<(String, &Value)> = match v {
        Value::Object(m) => m.iter().map(|(k, c)| (k.clone(), c)).collect(),
        Value::Array(xs) => xs.iter().enumerate().map(|(i, c)| (i.to_string(), c)).collect(),
        _ => return,
    };
    for (step, child) in children {
        let mut path = at.to_vec();
        path.push(step);
        node_paths(child, &path, out);
        out.push(path);
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[String]) -> &'a mut Value {
    path.iter().fold(v, |v, step| match v {
        Value::Object(m) => m.get_mut(step).expect("path exists"),
        Value::Array(xs) => &mut xs[step.parse::<usize>().expect("index step")],
        _ => unreachable!("paths only descend into containers"),
    })
}

/// The text of `doc` damaged one way: truncated at a byte, one node
/// overwritten with a value of another shape, or one field / array
/// element deleted.
fn damaged(doc: &Value, how: u64, pick: u64, with: u64) -> String {
    if how == 0 {
        let text = doc.to_string();
        let cut = (pick % text.len() as u64) as usize;
        return String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned();
    }
    let mut paths = Vec::new();
    node_paths(doc, &[], &mut paths);
    let path = &paths[(pick % paths.len() as u64) as usize];
    let mut out = doc.clone();
    if how == 1 {
        let replacements = [
            Value::Null,
            serde_json::json!(-1),
            serde_json::json!(0),
            serde_json::json!(0.5),
            serde_json::json!(1e300),
            serde_json::json!(u64::MAX),
            serde_json::json!("x"),
            serde_json::json!(true),
            serde_json::json!([]),
            serde_json::json!({}),
            serde_json::json!([1, 2, 3]),
        ];
        let replacement = &replacements[(with % replacements.len() as u64) as usize];
        *node_mut(&mut out, path) = replacement.clone();
    } else {
        let (last, parent) = path.split_last().expect("non-root path");
        match node_mut(&mut out, parent) {
            Value::Object(m) => {
                m.remove(last);
            }
            Value::Array(xs) => {
                xs.remove(last.parse::<usize>().expect("index step"));
            }
            _ => unreachable!("parents are containers"),
        }
    }
    out.to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The typed readers of files read back in fail closed: a truncated,
    /// mutated or field-deleted attribution artifact or stream checkpoint
    /// is `Ok` or `Err`, never a panic.
    #[test]
    fn damaged_attribution_and_checkpoint_files_never_panic_their_readers(
        how in 0u64..3,
        pick in any::<u64>(),
        with in any::<u64>(),
    ) {
        // Read the way `pka obs` and `pka stream --resume` read a file.
        for (kind, doc) in read_back_documents() {
            let text = damaged(doc, how, pick, with);
            if *kind == "attribution" {
                let _ = serde_json::from_str::<ErrorAttribution>(&text);
            } else if let Ok(value) = serde_json::from_str::<Value>(&text) {
                let _ = Checkpoint::from_value(&value);
            }
        }
    }

    /// Manifest histogram percentiles are the shared stats routine applied
    /// to the two bucket edges around the rank, bit for bit.
    #[test]
    fn manifest_percentiles_match_the_stats_routine(
        counts in prop::collection::vec(0u64..40, 1..6),
        step in 1u64..1_000,
    ) {
        let edges: Vec<u64> = (1..counts.len() as u64).map(|i| i * step).collect();
        let registry = Registry::new();
        let h = registry.histogram("prop.pctl", &edges);
        for (bucket, &n) in counts.iter().enumerate() {
            let value = edges.get(bucket).copied().unwrap_or(u64::MAX);
            for _ in 0..n {
                h.record(value);
            }
        }
        let manifest = registry.snapshot().to_value();
        let section = &manifest["histograms"]["prop.pctl"];
        let total: u64 = counts.iter().sum();
        prop_assume!(total > 0);
        let edge_at = |target: u64| -> f64 {
            let mut cumulative = 0;
            let bucket = counts.iter().position(|&c| { cumulative += c; cumulative > target });
            bucket.and_then(|b| edges.get(b)).or(edges.last()).copied().unwrap_or(0) as f64
        };
        for (key, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            let rank = p / 100.0 * (total - 1) as f64;
            let pair = [edge_at(rank.floor() as u64), edge_at(rank.ceil() as u64)];
            let want = summary::percentile(&pair, (rank - rank.floor()) * 100.0);
            let got = section[key].as_f64().expect("percentile present");
            prop_assert!(got.to_bits() == want.to_bits(), "{key} of {counts:?}: {got} vs {want}");
        }
    }
}

/// `pka.kernel_record/v1` lines with and without the detailed fields, as a
/// producer writes them.
fn record_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let mut source =
            WorkloadSource::new(synthetic_workload(12), Profiler::new(GpuConfig::v100()));
        let mut lines = Vec::new();
        let mut detailed = false;
        while let Some(record) = source.next_record(detailed).expect("synthetic record") {
            lines.push(record.to_jsonl().to_string());
            detailed = !detailed;
        }
        lines
    })
}

/// One hostile line of bytes: a record line truncated or with bytes
/// overwritten (any byte, so often not UTF-8), a number far out of range,
/// a lone or broken surrogate escape, a raw control character, nesting at
/// `MAX_DEPTH` ± 1, or plain random bytes.
fn hostile_line(rng: &mut UnitStream) -> Vec<u8> {
    let lines = record_lines();
    let mut line = lines[rng.next_index(lines.len())].clone().into_bytes();
    let at = |rng: &mut UnitStream, len: usize| rng.next_index(len.max(1));
    let splice = |line: &mut Vec<u8>, needle: &str, with: &str| {
        let text = String::from_utf8_lossy(line).replacen(needle, with, 1);
        *line = text.into_bytes();
    };
    match rng.next_index(8) {
        0 => line.truncate(at(rng, line.len())),
        1 => {
            for _ in 0..1 + rng.next_index(4) {
                let i = at(rng, line.len());
                line[i] = rng.next_index(256) as u8;
            }
        }
        2 => {
            const HUGE: [&str; 6] = [
                "1e999999",
                "-1e-999999",
                "184467440737095516160000",
                "-9223372036854775809",
                "0.00000000000000000000000000000000000000000000000000000000000001",
                "-",
            ];
            let with = HUGE[rng.next_index(HUGE.len())];
            let field = ["\"id\":", "\"grid_blocks\":", "\"block_threads\":"][rng.next_index(3)];
            let digits = "9".repeat(1 + rng.next_index(5_000));
            let with = if rng.next_index(4) == 0 { digits.as_str() } else { with };
            splice(&mut line, field, &format!("{field}{with},\"was\":"));
        }
        3 => {
            const ESCAPES: [&str; 7] = [
                "\\ud800",
                "\\udc00",
                "\\ud800\\u0041",
                "\\ud800\\",
                "\\u12",
                "\\ud83d\\ude00",
                "\\x41",
            ];
            let with = ESCAPES[rng.next_index(ESCAPES.len())];
            splice(&mut line, "\"name\":\"", &format!("\"name\":\"{with}"));
        }
        4 => {
            let i = at(rng, line.len());
            line.insert(i, rng.next_index(0x20) as u8);
        }
        5 => {
            let depth = serde_json::MAX_DEPTH - 2 + rng.next_index(4);
            let (open, close) = if rng.next_index(2) == 0 { ("[", "]") } else { ("{\"k\":", "}") };
            let nested = format!("{}1{}", open.repeat(depth), close.repeat(depth));
            if rng.next_index(2) == 0 {
                line = nested.into_bytes();
            } else {
                splice(&mut line, "{", &format!("{{\"extra\":{nested},"));
            }
        }
        6 => line = (0..rng.next_index(200)).map(|_| rng.next_index(256) as u8).collect(),
        _ => {}
    }
    line
}

/// Pulls every record a `JsonlSource` over `bytes` yields, in both views,
/// until the end or the first error.
fn drain_records(bytes: Vec<u8>, want_detailed: bool) {
    let mut source = JsonlSource::from_reader("prop", std::io::Cursor::new(bytes));
    while let Ok(Some(_)) = source.next_record(want_detailed) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The JSON text parser and the kernel-record decoder behind
    /// `pka stream --source FILE.jsonl` and `pka serve` feeds fail closed: on
    /// hostile text every call returns `Ok` or `Err`, never a panic or a
    /// stack overflow. Non-UTF-8 lines reach the decoder both raw (the
    /// reader refuses them) and through `String::from_utf8_lossy`.
    #[test]
    fn json_parser_and_record_decoder_never_panic(seed in any::<u64>()) {
        let mut rng = UnitStream::new(seed);
        for _ in 0..8 {
            let bytes = hostile_line(&mut rng);
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let _ = serde_json::from_str::<Value>(&text);
            let mut body = text.into_bytes();
            body.push(b'\n');
            drain_records(body.clone(), false);
            drain_records(body, true);
            drain_records(bytes, rng.next_index(2) == 0);
        }
    }
}

/// The body cap the HTTP property reads requests under.
const HEAD_PROP_MAX_BODY: usize = 1 << 16;

/// The request-head cap `read_request` reads through (16 KiB).
const HEAD_CAP: usize = 16 * 1024;

/// One hostile HTTP request: a well-formed one truncated or with bytes
/// overwritten (often not UTF-8) in its request line or headers, a line
/// with no newline past the head cap, duplicate, huge or non-numeric
/// `Content-Length` headers, a body shorter than declared, or random
/// bytes.
fn hostile_request(rng: &mut UnitStream) -> Vec<u8> {
    const LENGTHS: [&str; 12] = [
        "4",
        "0",
        "-1",
        "+4",
        "4 4",
        "0x10",
        "1e3",
        "abc",
        "",
        "65537",
        "18446744073709551615",
        "99999999999999999999999999",
    ];
    let (a, b) = (rng.next_index(LENGTHS.len()), rng.next_index(LENGTHS.len()));
    let headers = match rng.next_index(3) {
        0 => format!("Content-Length: {}\r\n", LENGTHS[a]),
        1 => format!("Content-Length: {}\r\ncontent-length: {}\r\n", LENGTHS[a], LENGTHS[b]),
        _ => String::new(),
    };
    let body = &"abcd"[..rng.next_index(5)];
    let mut request =
        format!("POST /v1/sessions?x=1 HTTP/1.1\r\nHost: pka\r\n{headers}\r\n{body}")
            .into_bytes();
    match rng.next_index(6) {
        0 => request.truncate(rng.next_index(request.len())),
        1 => {
            // Overwrite bytes inside the head: the request line or headers.
            let head_len = request.len() - body.len();
            for _ in 0..1 + rng.next_index(3) {
                let at = rng.next_index(head_len);
                request[at] = 0x80 | rng.next_index(128) as u8;
            }
        }
        2 => {
            let run = HEAD_CAP - 8 + rng.next_index(64);
            let filler = vec![b'a'; run];
            request = if rng.next_index(2) == 0 {
                [&b"GET /"[..], &filler].concat()
            } else {
                [&b"GET / HTTP/1.1\r\nX-Long: "[..], &filler].concat()
            };
        }
        3 => request = (0..rng.next_index(300)).map(|_| rng.next_index(256) as u8).collect(),
        _ => {}
    }
    request
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The HTTP head parser behind every `pka serve` connection fails
    /// closed: on hostile bytes `read_request` returns a request or a typed
    /// `ReadError`, never a panic, and reads at most the head cap plus one
    /// byte and a body within the cap.
    #[test]
    fn http_head_parser_never_panics(seed in any::<u64>()) {
        let mut rng = UnitStream::new(seed);
        for _ in 0..8 {
            let bytes = hostile_request(&mut rng);
            let mut wire = std::io::Cursor::new(bytes);
            // The error side is a typed `ReadError` by construction.
            if let Ok(request) = read_request(&mut wire, HEAD_PROP_MAX_BODY) {
                prop_assert!(request.body.len() <= HEAD_PROP_MAX_BODY);
            }
            let bound = (HEAD_CAP + 1 + HEAD_PROP_MAX_BODY) as u64;
            prop_assert!(wire.position() <= bound, "read {} bytes", wire.position());
        }
    }
}
