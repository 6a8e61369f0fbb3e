//! Batch-vs-stream parity: the `pka-stream` acceptance contract.
//!
//! The streaming pipeline must converge to exactly what the batch two-level
//! pipeline computes on the same kernels — same selected K, same projected
//! cycles (the tail classification and count folds are literally the same
//! code, so "within 1%" is in practice "bit-identical") — while holding only
//! O(K·d + reservoir + batch) records in memory, for any worker count, and
//! a checkpoint→resume round trip must reproduce the uninterrupted run's
//! final checkpoint byte for byte.

use principal_kernel_analysis::core::{Executor, TwoLevel, TwoLevelConfig};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::stream::{
    synthetic_workload, Checkpoint, JsonlSource, StreamConfig, StreamPks, WorkloadSource,
};
use principal_kernel_analysis::workloads::{all_workloads, Workload};

const PREFIX: u64 = 400;

fn workload(name: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("known workload")
}

fn stream_config() -> StreamConfig {
    StreamConfig::default()
        .with_prefix(PREFIX)
        .with_checkpoint_every(1_500)
        .with_reservoir(256)
        .with_batch(128)
}

/// Runs the streaming pipeline over `w` and returns the outcome.
fn run_stream(
    w: &Workload,
    config: StreamConfig,
    workers: usize,
) -> principal_kernel_analysis::stream::StreamOutcome {
    let mut source = WorkloadSource::new(w.clone(), Profiler::new(GpuConfig::v100()));
    StreamPks::new(config)
        .with_executor(Executor::new(workers))
        .run(&mut source, |_| Ok(()))
        .expect("stream runs")
}

#[test]
fn stream_matches_batch_selection_exactly_at_any_worker_count() {
    // A real workload with structure (gramschmidt's three-kernel cycle) and
    // a synthetic million-kernel-shaped stream scaled down for test time.
    for w in [workload("gramschmidt"), synthetic_workload(6_000)] {
        let batch = TwoLevel::new(
            TwoLevelConfig::default()
                .with_pks(stream_config().pks())
                .with_detailed_prefix_cap(PREFIX),
        )
        .analyze(&w, &Profiler::new(GpuConfig::v100()))
        .expect("batch analyzes");

        for workers in [1usize, 4] {
            let outcome = run_stream(&w, stream_config(), workers);
            assert_eq!(
                outcome.report.selected_k,
                batch.k(),
                "{}: selected K must match batch exactly (workers={workers})",
                w.name()
            );
            // The acceptance tolerance is 1% relative; the implementation
            // shares the batch code path, so demand exactness.
            assert_eq!(
                outcome.report.projected_cycles,
                batch.projected_cycles(),
                "{}: projected cycles must match batch (workers={workers})",
                w.name()
            );
            let counts = |s: &principal_kernel_analysis::core::Selection| -> Vec<u64> {
                s.groups().iter().map(|g| g.count()).collect()
            };
            assert_eq!(
                counts(&outcome.selection),
                counts(&batch),
                "{}: group populations must match batch (workers={workers})",
                w.name()
            );
        }
    }
}

#[test]
fn worker_counts_produce_byte_identical_final_checkpoints() {
    let w = synthetic_workload(5_000);
    let sequential = run_stream(&w, stream_config(), 1);
    for workers in [2usize, 4, 8] {
        let parallel = run_stream(&w, stream_config(), workers);
        assert_eq!(
            parallel.final_checkpoint.to_json(),
            sequential.final_checkpoint.to_json(),
            "workers={workers}"
        );
    }
}

#[test]
fn checkpoint_resume_reproduces_the_final_checkpoint_byte_for_byte() {
    let w = synthetic_workload(5_000);
    let config = stream_config();
    let uninterrupted = run_stream(&w, config, 4);

    // Capture a mid-stream checkpoint, then resume from it (with a
    // different worker count, which must not matter) and compare ends.
    let mut first: Option<Checkpoint> = None;
    let mut source = WorkloadSource::new(w.clone(), Profiler::new(GpuConfig::v100()));
    StreamPks::new(config)
        .with_executor(Executor::new(4))
        .run(&mut source, |cp| {
            if first.is_none() {
                first = Some(cp.clone());
            }
            Ok(())
        })
        .expect("stream runs");
    let mid = first.expect("at least one periodic checkpoint");
    assert!(mid.records < uninterrupted.final_checkpoint.records);

    let mut source = WorkloadSource::new(w.clone(), Profiler::new(GpuConfig::v100()));
    let resumed = StreamPks::new(config)
        .with_executor(Executor::new(1))
        .resume(&mut source, &mid, |_| Ok(()))
        .expect("resume runs");
    assert_eq!(
        resumed.final_checkpoint.to_json(),
        uninterrupted.final_checkpoint.to_json(),
        "resumed run must reproduce the uninterrupted final checkpoint"
    );
    assert_eq!(resumed.report.selected_k, uninterrupted.report.selected_k);
}

#[test]
fn tail_memory_stays_bounded_by_reservoir_plus_batch() {
    let config = StreamConfig::default()
        .with_prefix(200)
        .with_checkpoint_every(10_000)
        .with_reservoir(1_024)
        .with_batch(512);
    let w = synthetic_workload(50_000);
    let outcome = run_stream(&w, config, 4);
    assert_eq!(outcome.report.records, 50_000);
    assert!(
        outcome.report.max_buffered <= (1_024 + 512) as u64,
        "max buffered {} exceeds reservoir + batch",
        outcome.report.max_buffered
    );
}

#[test]
fn jsonl_round_trip_matches_the_workload_source() {
    // Export a workload as the JSONL interchange format, stream the file
    // back in, and require the identical outcome: the reader path is then
    // covered end to end, not just record by record.
    let w = synthetic_workload(3_000);
    let config = StreamConfig::default()
        .with_prefix(150)
        .with_checkpoint_every(1_000)
        .with_reservoir(128)
        .with_batch(64);
    let direct = run_stream(&w, config, 2);

    let profiler = Profiler::new(GpuConfig::v100());
    let mut lines = String::new();
    let mut export = WorkloadSource::new(w.clone(), profiler);
    use principal_kernel_analysis::stream::KernelSource;
    for i in 0.. {
        // The detailed prefix needs detailed records; the tail does not.
        let want_detailed = i < 150;
        match export.next_record(want_detailed).expect("export records") {
            Some(record) => {
                lines.push_str(&record.to_jsonl().to_string());
                lines.push('\n');
            }
            None => break,
        }
    }
    let path = std::env::temp_dir().join("pka_stream_parity_roundtrip.jsonl");
    std::fs::write(&path, &lines).expect("write jsonl");
    let mut source = JsonlSource::open(&path).expect("open jsonl");
    let from_file = StreamPks::new(config)
        .with_executor(Executor::new(2))
        .run(&mut source, |_| Ok(()))
        .expect("stream from file");
    std::fs::remove_file(&path).ok();

    assert_eq!(from_file.report.selected_k, direct.report.selected_k);
    assert_eq!(
        from_file.report.projected_cycles,
        direct.report.projected_cycles
    );
    assert_eq!(from_file.report.group_counts, direct.report.group_counts);
}

/// The sharded engine is gone: its flag is a usage error (not silently a
/// single-pipeline run) and its checkpoint layout fails closed on resume.
/// The retired `obs` trend ring fails the same way: `--trend` is an
/// unknown flag and `trend-push` an unknown subcommand.
#[test]
fn cli_refuses_the_retired_shard_flag_and_checkpoint_layout() {
    let pka = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_pka"))
            .args(args)
            .output()
            .expect("pka runs")
    };
    let base = ["stream", "--source", "synthetic:2000", "--prefix", "200"];

    let out = pka(&[&base[..], &["--shards", "4"]].concat());
    assert_eq!(out.status.code(), Some(2), "usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not accept --shards"), "{stderr}");

    let out = pka(&[&base[..], &["--fast-math"]].concat());
    assert_eq!(out.status.code(), Some(2), "usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--fast-math"), "{stderr}");

    let out = pka(&["obs", "diff", "--trend", "trend_ring"]);
    assert_eq!(out.status.code(), Some(2), "usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not accept --trend"), "{stderr}");

    let out = pka(&["obs", "trend-push", "manifest.json", "trend_ring"]);
    assert_eq!(out.status.code(), Some(1), "a typed failure, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown obs subcommand `trend-push`"), "{stderr}");

    let path = std::env::temp_dir().join(format!(
        "pka_stream_parity_sharded_{}.json",
        std::process::id()
    ));
    let ckpt = path.to_str().expect("utf8 path");
    let out = pka(&[&base[..], &["--checkpoint-every", "1000", "--checkpoint", ckpt]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("read checkpoint");
    let sharded = text.replacen('{', "{\"topology\":{\"shards\":2,\"map_hash\":7},", 1);
    std::fs::write(&path, sharded).expect("write checkpoint");
    let out = pka(&[&base[..], &["--checkpoint", ckpt, "--resume"]].concat());
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "a typed failure, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sharded checkpoints"), "{stderr}");
    assert!(stderr.contains("no longer supported"), "{stderr}");
}
