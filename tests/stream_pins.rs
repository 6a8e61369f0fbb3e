//! Exact stream-engine pins: a 64-bit FNV-1a digest over every byte a
//! streaming run publishes — the final checkpoint JSON, the attribution
//! JSON, the report, and the `seq`/`records` of every periodic
//! checkpoint — for a fixed set of inputs, each run at one and two
//! workers. Any change to the online pipeline that moves one classified
//! label, centroid bit, reservoir slot or checkpoint boundary fails here.

use principal_kernel_analysis::core::Executor;
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::stream::{
    synthetic_workload, CancelToken, Checkpoint, JsonlSource, KernelSource, RecordsSource,
    StreamConfig, StreamError, StreamOutcome, StreamPks, WorkloadSource,
};
use principal_kernel_analysis::workloads::{all_workloads, Workload};

const WORKERS: [usize; 2] = [1, 2];

/// FNV-1a, 64-bit, over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }
}

/// Folds the periodic checkpoints' positions, then the outcome's
/// published artifacts, into one word.
fn digest(periodic: &[Checkpoint], outcome: &StreamOutcome) -> u64 {
    let mut h = Fnv::new().word(periodic.len() as u64);
    for cp in periodic {
        h = h.word(cp.seq).word(cp.records);
    }
    h.bytes(outcome.final_checkpoint.to_json().as_bytes())
        .bytes(
            serde_json::to_string(&outcome.attribution)
                .expect("attribution serialises")
                .as_bytes(),
        )
        .bytes(outcome.report.to_value().to_string().as_bytes())
        .0
}

/// A config whose drift envelopes calibrate on a handful of distances and
/// whose reservoir is small, so drift firings and bounded re-clusters
/// happen inside a few thousand records.
fn drifty() -> StreamConfig {
    StreamConfig::default()
        .with_prefix(300)
        .with_checkpoint_every(700)
        .with_reservoir(48)
        .with_batch(96)
        .with_drift_calibration(4)
        .with_drift_sigma(0.5)
        .with_drift_alpha(0.6)
}

fn workload(name: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("known workload")
}

fn v100() -> Profiler {
    Profiler::new(GpuConfig::v100())
}

/// Runs `source` to the end, collecting every periodic checkpoint.
fn run<S: KernelSource>(
    config: StreamConfig,
    workers: usize,
    source: &mut S,
) -> (Vec<Checkpoint>, StreamOutcome) {
    let mut periodic = Vec::new();
    let outcome = StreamPks::new(config)
        .with_executor(Executor::new(workers))
        .run(source, |cp| {
            periodic.push(cp.clone());
            Ok(())
        })
        .expect("stream runs");
    (periodic, outcome)
}

/// `w` rendered as `pka.kernel_record/v1` JSONL: the first `prefix`
/// lines carry the detailed view, the tail only the lightweight one.
fn jsonl(w: &Workload, prefix: u64) -> String {
    let mut source = WorkloadSource::new(w.clone(), v100());
    let mut lines = String::new();
    let mut i = 0u64;
    while let Some(record) = source.next_record(i < prefix).expect("export records") {
        lines.push_str(&record.to_jsonl().to_string());
        lines.push('\n');
        i += 1;
    }
    lines
}

fn check(name: &str, pin: u64, digests: &[u64]) {
    for (workers, &d) in WORKERS.iter().zip(digests) {
        assert_eq!(
            d, pin,
            "{name} at {workers} workers: digest {d:#018x}, pinned {pin:#018x}"
        );
    }
}

#[test]
fn synthetic_stream_with_drift_holds_its_pin() {
    let digests: Vec<u64> = WORKERS
        .iter()
        .map(|&workers| {
            let mut source = WorkloadSource::new(synthetic_workload(6_000), v100());
            let (periodic, outcome) = run(drifty(), workers, &mut source);
            assert!(
                outcome.report.drifts > 0,
                "the pin must cover drift firings"
            );
            assert!(
                outcome.report.reclusters > 0,
                "the pin must cover re-clusters"
            );
            assert_eq!(periodic.len(), 8, "checkpoints at 700..=5600");
            digest(&periodic, &outcome)
        })
        .collect();
    check("synthetic:6000", 0x6263_0bfa_2a3e_f2e5, &digests);
}

#[test]
fn jsonl_stream_holds_its_pin() {
    let lines = jsonl(&workload("gramschmidt"), 300);
    let digests: Vec<u64> = WORKERS
        .iter()
        .map(|&workers| {
            let mut source =
                JsonlSource::from_reader("jsonl:pins", std::io::Cursor::new(lines.clone()));
            let (periodic, outcome) = run(drifty(), workers, &mut source);
            digest(&periodic, &outcome)
        })
        .collect();
    check("jsonl:gramschmidt", 0x933d_91dd_caa7_c1bb, &digests);
}

#[test]
fn records_stream_holds_its_pin() {
    let records = RecordsSource::profile(&synthetic_workload(2_500), &v100()).expect("profiles");
    let digests: Vec<u64> = WORKERS
        .iter()
        .map(|&workers| {
            let mut source = records.clone();
            let (periodic, outcome) = run(drifty(), workers, &mut source);
            digest(&periodic, &outcome)
        })
        .collect();
    check("records:synthetic2500", 0x0978_8d06_f593_f2ed, &digests);
}

#[test]
fn prefix_only_stream_holds_its_pin() {
    let digests: Vec<u64> = WORKERS
        .iter()
        .map(|&workers| {
            let mut source = WorkloadSource::new(synthetic_workload(250), v100());
            let (periodic, outcome) = run(drifty(), workers, &mut source);
            assert!(periodic.is_empty());
            assert_eq!(outcome.report.records, 250);
            digest(&periodic, &outcome)
        })
        .collect();
    check("synthetic:250", 0x6717_7ec6_b113_6cc0, &digests);
}

#[test]
fn cancel_then_resume_holds_its_pin() {
    let digests: Vec<u64> = WORKERS
        .iter()
        .map(|&workers| {
            let engine = StreamPks::new(drifty()).with_executor(Executor::new(workers));
            // Cancel from inside the second periodic checkpoint: the next
            // batch boundary delivers a teardown checkpoint and stops.
            let cancel = CancelToken::new();
            let mut periodic = Vec::new();
            let mut source = WorkloadSource::new(synthetic_workload(4_000), v100());
            let stopped = engine.run_from(
                &mut source,
                None,
                |cp| {
                    periodic.push(cp.clone());
                    if periodic.len() == 2 {
                        cancel.cancel();
                    }
                    Ok(())
                },
                &cancel,
            );
            assert_eq!(stopped.unwrap_err(), StreamError::Cancelled);
            let teardown = periodic.last().cloned().expect("teardown checkpoint");
            assert_eq!(periodic.len(), 3);

            let mut source = WorkloadSource::new(synthetic_workload(4_000), v100());
            let outcome = engine
                .run_from(
                    &mut source,
                    Some(&teardown),
                    |cp| {
                        periodic.push(cp.clone());
                        Ok(())
                    },
                    &CancelToken::new(),
                )
                .expect("resume runs");
            assert_eq!(outcome.report.records, 4_000);
            digest(&periodic, &outcome)
        })
        .collect();
    check(
        "synthetic:4000 cancel+resume",
        0x1742_0ad2_20d4_0055,
        &digests,
    );
}
