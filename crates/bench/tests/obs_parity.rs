//! Parity guard: observability must never perturb results.
//!
//! Table 3 and a full sampled-simulation run are generated twice in this
//! process — once with collection off, once with collection on and a
//! JSONL sink attached — and the serialized output must be
//! *byte-identical*. Trace output itself is excluded from the comparison
//! (its line order depends on thread schedule); only pipeline results
//! are under contract. Full Table 4 parity follows the golden-table
//! convention: `#[ignore]`d because regenerating it twice takes minutes
//! in release and far longer in debug.

use std::sync::Mutex;

use pka_bench::{tables, ExperimentRunner, RunnerOptions};
use pka_gpu::GpuConfig;
use pka_workloads::{all_workloads, Workload};

// Every test toggles the process-global registry; hold this across each
// so the parallel test runner cannot interleave enable/disable calls.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// RAII: enables collection with a JSONL sink on construction; on drop,
/// disables, closes the sink, and asserts it actually traced something
/// (otherwise the parity assertion proves nothing).
struct Traced {
    path: std::path::PathBuf,
}

impl Traced {
    fn start(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "pka_obs_parity_{}_{tag}.jsonl",
            std::process::id()
        ));
        pka_obs::trace_to(&path).expect("open trace sink");
        pka_obs::enable();
        Self { path }
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        pka_obs::disable();
        pka_obs::close_trace().expect("close trace sink");
        let body = std::fs::read_to_string(&self.path).expect("read trace");
        assert!(
            body.lines().count() > 1,
            "tracing was enabled but no spans were recorded"
        );
        std::fs::remove_file(&self.path).ok();
    }
}

fn render(
    report_fn: fn(&ExperimentRunner) -> Result<tables::Report, pka_core::PkaError>,
) -> (String, String) {
    let runner = ExperimentRunner::new(RunnerOptions::quick());
    let report = report_fn(&runner).expect("report generates");
    let json = serde_json::to_string_pretty(&report.data).expect("serialisable");
    (report.text, json)
}

fn workload(name: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("{name} exists"))
}

#[test]
fn table3_is_bitwise_identical_with_tracing_enabled() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    pka_obs::disable();
    let (text, json) = render(tables::table3);

    let traced = Traced::start("t3");
    let (text_traced, json_traced) = render(tables::table3);
    assert_eq!(text, text_traced, "table3 text diverged under tracing");
    assert_eq!(json, json_traced, "table3 JSON diverged under tracing");

    let counters = pka_obs::snapshot().counters;
    assert!(
        counters.values().any(|&v| v > 0),
        "tracing was enabled but no counters incremented"
    );
    drop(traced);
}

#[test]
fn sampled_simulation_is_bitwise_identical_with_tracing_enabled() {
    // The simulate path: selection, full representative runs, and the
    // PKP-monitored stop rule, whose counters all fire.
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let w = workload("bfs65536");
    let sampled = || {
        let runner = ExperimentRunner::new(RunnerOptions::quick());
        let out = runner
            .simulation(&w, &GpuConfig::v100(), false)
            .expect("sampled run");
        format!("{out:?}")
    };

    pka_obs::disable();
    let baseline = sampled();
    let traced = Traced::start("sampled");
    assert_eq!(baseline, sampled(), "sampled simulation diverged under tracing");
    let counters = pka_obs::snapshot().counters;
    assert!(
        counters.get("pkp.evals").copied().unwrap_or(0) > 0,
        "the PKP stop rule never evaluated under tracing"
    );
    drop(traced);
}

#[test]
fn parallel_selection_is_identical_with_counters_enabled() {
    // The Executor's worker-busy instrumentation must not disturb the
    // bitwise-determinism contract of parallel runs.
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let w = workload("gauss_208");
    let select = || {
        let runner = ExperimentRunner::new({
            let mut o = RunnerOptions::quick();
            o.pka = o.pka.with_workers(4);
            o
        });
        let selection = runner.selection(&w).expect("selection");
        serde_json::to_string(&selection).expect("serialisable")
    };

    pka_obs::disable();
    let baseline = select();
    let traced = Traced::start("par");
    assert_eq!(baseline, select(), "parallel selection diverged under counters");
    drop(traced);
}

#[test]
#[ignore = "full Table 4 parity: regenerates Table 4 twice — minutes in release, far longer in debug; run with `cargo test --release -p pka-bench -- --ignored`"]
fn table4_is_bitwise_identical_with_tracing_enabled() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    pka_obs::disable();
    let (text, json) = render(tables::table4);

    let traced = Traced::start("t4");
    let (text_traced, json_traced) = render(tables::table4);
    assert_eq!(text, text_traced, "table4 text diverged under tracing");
    assert_eq!(json, json_traced, "table4 JSON diverged under tracing");
    drop(traced);
}
