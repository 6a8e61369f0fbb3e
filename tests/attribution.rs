//! Error-attribution integration tests: the `pka.attribution/v1` artifact
//! driven through the facade, across the batch and streaming engines.
//!
//! The contract under test: per-group signed contributions sum exactly
//! (1e-9 relative) to the reported projection error, the artifact is
//! byte-identical for any worker count, and the typed reader behind
//! `pka obs explain` / `pka obs diff` fails closed on a malformed file.

use principal_kernel_analysis::core::{Pka, PkaConfig, Selection};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::stream::{
    synthetic_workload, Checkpoint, StreamConfig, StreamError, StreamPks, WorkloadSource,
};
use principal_kernel_analysis::workloads::{rodinia, Workload};
use principal_kernel_analysis::{core, profile::Profiler};

fn find(suite: Vec<Workload>, name: &str) -> Workload {
    suite.into_iter().find(|w| w.name() == name).expect("known workload")
}

fn tiny_gpu() -> GpuConfig {
    GpuConfig::builder("itest8").num_sms(8).build().expect("valid")
}

#[test]
fn batch_simulation_attribution_sums_to_the_report_errors() {
    let pka = Pka::new(tiny_gpu(), PkaConfig::default());
    let w = find(rodinia::workloads(), "gauss_208");
    let (report, attribution) = pka
        .evaluate_with_attribution(&w, false)
        .expect("pipeline runs");
    attribution.verify_sums().expect("contributions sum to totals");
    assert_eq!(attribution.kind, "simulation");
    assert_eq!(attribution.workload, w.name());
    // The signed totals reproduce the report's unsigned headline errors.
    let pks: f64 = attribution.groups.iter().map(|g| g.pks_term_pct).sum();
    assert!(
        (pks.abs() - report.pks_error_pct).abs() <= 1e-9 * report.pks_error_pct.max(1.0),
        "sum of PKS terms {pks} vs reported {}",
        report.pks_error_pct
    );
    // The report path and the attribution path must not diverge: the same
    // selection, silicon truth and projections feed both.
    let total: f64 = attribution
        .groups
        .iter()
        .map(|g| g.pks_term_pct + g.pkp_term_pct.unwrap_or(0.0))
        .sum();
    assert!(
        (total.abs() - report.pka_error_pct).abs() <= 1e-9 * report.pka_error_pct.max(1.0),
        "sum of PKS+PKP terms {total} vs reported {}",
        report.pka_error_pct
    );
}

#[test]
fn selection_attribution_matches_selection_error_and_round_trips() {
    let pka = Pka::new(GpuConfig::v100(), PkaConfig::default());
    let w = find(rodinia::workloads(), "srad_v1");
    let (selection, attribution) = pka
        .select_kernels_with_attribution(&w)
        .expect("selection runs");
    attribution.verify_sums().expect("contributions sum to totals");
    assert_eq!(attribution.kind, "selection");
    assert_eq!(attribution.groups.len(), selection.k());
    assert!(
        (attribution.pks_err_pct - selection.error_pct()).abs() <= 1e-9,
        "artifact error {} vs selection {}",
        attribution.pks_err_pct,
        selection.error_pct()
    );
    // Serde round-trip through the canonical JSON form is lossless.
    let value = serde_json::to_value(&attribution).expect("serialises");
    assert_eq!(value["schema"].as_str(), Some(core::ATTRIBUTION_SCHEMA));
    let back: core::ErrorAttribution =
        serde_json::from_value(value.clone()).expect("deserialises");
    assert_eq!(
        serde_json::to_string(&back).expect("re-serialises"),
        serde_json::to_string(&attribution).expect("serialises"),
        "round-trip is byte-identical"
    );
    // The selection itself is unchanged by asking for attribution.
    let plain = pka.select_kernels(&w).expect("selects");
    assert_eq!(plain, selection);
}

#[test]
fn stream_attribution_is_byte_identical_for_any_worker_count() {
    let w = synthetic_workload(1_500);
    let config = StreamConfig::default().with_prefix(200);
    let run = |workers: usize| {
        let mut source = WorkloadSource::new(w.clone(), Profiler::new(GpuConfig::v100()));
        let stream = StreamPks::new(config)
            .with_executor(core::Executor::new(workers));
        let outcome = stream
            .run(&mut source, |_: &Checkpoint| Ok::<(), StreamError>(()))
            .expect("stream runs");
        serde_json::to_string(&outcome.attribution).expect("serialises")
    };
    let baseline = run(1);
    for workers in [2, 4, 8] {
        assert_eq!(run(workers), baseline, "workers={workers} diverges");
    }
}

#[test]
fn explain_and_diff_close_the_loop_on_a_real_artifact() {
    let pka = Pka::new(tiny_gpu(), PkaConfig::default());
    let w = find(rodinia::workloads(), "gauss_208");
    let (_, attribution) = pka
        .evaluate_with_attribution(&w, false)
        .expect("pipeline runs");
    // The artifact reads back through the same typed reader `obs` uses.
    let doc: core::ErrorAttribution =
        serde_json::from_value(serde_json::to_value(&attribution).expect("serialises"))
            .expect("reads back");
    assert_eq!(doc, attribution);

    // explain renders a header naming the schema, workload and kind.
    let lines = doc.explain();
    assert!(lines[0].contains(core::ATTRIBUTION_SCHEMA), "{}", lines[0]);
    assert!(lines[0].contains("gauss_208"), "{}", lines[0]);

    // Identical artifacts gate clean ...
    assert_eq!(doc.diff(&doc, 0.5).regressions(), 0);

    // ... a representative swap is an exact-match regression ...
    let mut swapped = doc.clone();
    swapped.groups[0].representative = 424_242;
    assert!(doc.diff(&swapped, 0.5).regressions() >= 1, "representative swap must gate");

    // ... and error drift past the tolerance is a threshold regression.
    let mut drifted = doc.clone();
    drifted.pks_err_pct += 2.0;
    assert!(doc.diff(&drifted, 0.5).regressions() >= 1, "2-point drift must gate at 0.5");
    assert_eq!(doc.diff(&drifted, 5.0).regressions(), 0, "5-point tolerance absorbs the drift");
}

/// `pka obs explain` parses with the typed reader: a foreign schema or a
/// missing field is exit 1 with the field named, never a table (a missing
/// headline error used to render as 0).
#[test]
fn cli_explain_refuses_a_malformed_artifact_by_field() {
    let pka = Pka::new(tiny_gpu(), PkaConfig::default());
    let w = find(rodinia::workloads(), "gauss_208");
    let (_, attribution) = pka
        .select_kernels_with_attribution(&w)
        .expect("selection runs");
    let good = serde_json::to_value(&attribution).expect("serialises");
    let mut foreign = good.clone();
    let mut headless = good.clone();
    let mut partial = good.clone();
    if let serde_json::Value::Object(m) = &mut foreign {
        m.insert("schema".to_string(), serde_json::json!("pka.attribution/v0"));
    }
    if let serde_json::Value::Object(m) = &mut headless {
        m.remove("pks_err_signed_pct");
    }
    if let serde_json::Value::Object(m) = &mut partial {
        let mut groups = m["groups"].as_array().expect("groups").clone();
        if let serde_json::Value::Object(g) = &mut groups[0] {
            g.remove("total_term_pct");
        }
        m.insert("groups".to_string(), serde_json::Value::Array(groups));
    }
    for (tag, doc, field) in [
        ("foreign", &foreign, "`schema`"),
        ("headless", &headless, "`pks_err_signed_pct`"),
        ("partial", &partial, "`total_term_pct`"),
    ] {
        let path = std::env::temp_dir().join(format!(
            "pka_attribution_{tag}_{}.json",
            std::process::id()
        ));
        std::fs::write(&path, doc.to_string()).expect("write artifact");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pka"))
            .args(["obs", "explain", path.to_str().expect("utf8 path")])
            .output()
            .expect("pka runs");
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}: no table is printed");
        assert!(stderr.contains(field), "{tag}: {stderr}");
    }
}

#[test]
fn transferred_selection_files_still_parse_next_to_attribution() {
    // The `--selection` transfer path and the attribution path share the
    // Selection serde shape; pin that a round-tripped selection is accepted
    // unchanged so the CLI's refusal to attribute transfers stays the only
    // difference between the two paths.
    let pka = Pka::new(GpuConfig::v100(), PkaConfig::default());
    let w = find(rodinia::workloads(), "gauss_208");
    let (selection, _) = pka
        .select_kernels_with_attribution(&w)
        .expect("selection runs");
    let value = serde_json::to_value(&selection).expect("serialises");
    let back: Selection = serde_json::from_value(value).expect("deserialises");
    assert_eq!(back, selection);
}

/// A reader that goes away (`pka obs explain FILE | head -3`) ends the
/// command quietly: no panic on the broken pipe, no crash status.
#[test]
fn cli_output_to_a_closed_pipe_ends_quietly() {
    let pka = Pka::new(tiny_gpu(), PkaConfig::default());
    let w = find(rodinia::workloads(), "gauss_208");
    let (_, attribution) = pka
        .select_kernels_with_attribution(&w)
        .expect("selection runs");
    let path = std::env::temp_dir()
        .join(format!("pka_attribution_pipe_{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(&attribution).expect("serialises"))
        .expect("write artifact");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pka"))
        .args(["obs", "explain", path.to_str().expect("utf8 path")])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("pka runs");
    // Close the only read end before the report is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("pka exits");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.code().is_some(), "ended by a signal: {:?}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
}
