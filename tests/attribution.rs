//! Error-attribution integration tests: the `pka.attribution/v1` artifact
//! driven through the facade, across the batch and streaming engines.
//!
//! The contract under test: per-group signed contributions sum exactly
//! (1e-9 relative) to the reported projection error, the artifact is
//! byte-identical for any worker count, and the `obs` layer's explain /
//! diff entry points agree with the core writer on the schema id.

use principal_kernel_analysis::core::{Pka, PkaConfig, Selection};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::stream::{
    synthetic_workload, Checkpoint, StreamConfig, StreamError, StreamPks, WorkloadSource,
};
use principal_kernel_analysis::workloads::{rodinia, Workload};
use principal_kernel_analysis::{core, obs, profile::Profiler};

fn find(suite: Vec<Workload>, name: &str) -> Workload {
    suite.into_iter().find(|w| w.name() == name).expect("known workload")
}

fn tiny_gpu() -> GpuConfig {
    GpuConfig::builder("itest8").num_sms(8).build().expect("valid")
}

#[test]
fn core_and_obs_agree_on_the_schema_id() {
    assert_eq!(core::ATTRIBUTION_SCHEMA, obs::ATTRIBUTION_SCHEMA);
    assert_eq!(core::ATTRIBUTION_SCHEMA, "pka.attribution/v1");
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
    let doc = serde_json::to_value(&attribution).expect("serialises");

    // explain renders a header naming the schema, workload and kind.
    let lines = obs::explain_attribution(&doc).expect("explains");
    assert!(lines[0].contains(core::ATTRIBUTION_SCHEMA), "{}", lines[0]);
    assert!(lines[0].contains("gauss_208"), "{}", lines[0]);

    // Identical artifacts gate clean ...
    let clean = obs::diff_attributions(&doc, &doc, 0.5).expect("diffs");
    assert_eq!(clean.regressions(), 0);

    // ... a representative swap is an exact-match regression ...
    let mut swapped = doc.clone();
    if let serde_json::Value::Object(m) = &mut swapped {
        let mut groups = m["groups"].as_array().expect("groups").clone();
        if let serde_json::Value::Object(g) = &mut groups[0] {
            g.insert("representative".to_string(), serde_json::json!(424_242u64));
        }
        m.insert("groups".to_string(), serde_json::Value::Array(groups));
    }
    let swap = obs::diff_attributions(&doc, &swapped, 0.5).expect("diffs");
    assert!(swap.regressions() >= 1, "representative swap must gate");

    // ... and error drift past the tolerance is a threshold regression.
    let mut drifted = doc.clone();
    let reported = doc["pks_err_pct"].as_f64().expect("pks_err_pct");
    if let serde_json::Value::Object(m) = &mut drifted {
        m.insert("pks_err_pct".to_string(), serde_json::json!(reported + 2.0));
    }
    let drift = obs::diff_attributions(&doc, &drifted, 0.5).expect("diffs");
    assert!(drift.regressions() >= 1, "2-point drift must gate at 0.5");
    let lax = obs::diff_attributions(&doc, &drifted, 5.0).expect("diffs");
    assert_eq!(lax.regressions(), 0, "5-point tolerance absorbs the drift");
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
