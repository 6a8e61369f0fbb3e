//! Cross-crate integration tests: the full PKA pipeline driven through the
//! facade, on workloads small enough for debug-mode simulation.

use std::process::Command;

use principal_kernel_analysis::core::{Pka, PkaConfig, PkaError, PkpConfig, PksConfig, Selection};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::workloads::{parboil, polybench, rodinia, Suite, Workload};

fn find(suite: Vec<Workload>, name: &str) -> Workload {
    suite.into_iter().find(|w| w.name() == name).expect("known workload")
}

fn tiny_gpu() -> GpuConfig {
    GpuConfig::builder("itest8").num_sms(8).build().expect("valid")
}

#[test]
fn pipeline_end_to_end_on_gaussian() {
    let pka = Pka::new(tiny_gpu(), PkaConfig::default());
    let w = find(rodinia::workloads(), "gauss_208");
    let report = pka.evaluate_in_simulation(&w, true).expect("pipeline runs");

    // The three headline properties, in miniature:
    // (1) sampled simulation costs far less than full simulation,
    assert!(report.pka_speedup() > 20.0, "pka speedup {}", report.pka_speedup());
    // (2) the sampled estimate stays close to the full-simulation estimate,
    let full = report.fullsim_cycles.expect("full sim ran") as f64;
    let drift = (report.pks_projected_cycles as f64 - full).abs() / full * 100.0;
    assert!(drift < 25.0, "PKS drifts {drift}% from full simulation");
    // (3) and the PKA error versus silicon is in the same regime as the
    //     simulator's own error.
    let sim_err = report.sim_error_pct.expect("full sim ran");
    assert!(
        report.pka_error_pct < sim_err + 25.0,
        "pka {} vs sim {}",
        report.pka_error_pct,
        sim_err
    );
}

#[test]
fn selection_is_deterministic_across_pipelines() {
    let w = find(parboil::workloads(), "histo");
    let a = Pka::new(GpuConfig::v100(), PkaConfig::default())
        .select_kernels(&w)
        .expect("selects");
    let b = Pka::new(GpuConfig::v100(), PkaConfig::default())
        .select_kernels(&w)
        .expect("selects");
    assert_eq!(a, b);
}

#[test]
fn volta_selection_transfers_to_other_generations() {
    let w = find(rodinia::workloads(), "srad_v1");
    let volta = Pka::new(GpuConfig::v100(), PkaConfig::default());
    let selection = volta.select_kernels(&w).expect("selects");
    for gpu in [GpuConfig::rtx2060(), GpuConfig::rtx3070()] {
        let pipeline = Pka::new(gpu, PkaConfig::default());
        let silicon = pipeline.profiler().silicon_run(&w).expect("silicon runs");
        let report = pipeline
            .silicon_report_for(&w, &selection, &silicon)
            .expect("transfers");
        assert!(
            report.error_pct < 15.0,
            "{}: transfer error {}",
            report.gpu,
            report.error_pct
        );
        assert!(report.speedup > 1.0);
    }
}

#[test]
fn tighter_pks_target_never_selects_fewer_groups() {
    let w = find(rodinia::workloads(), "nw");
    let loose = Pka::new(
        GpuConfig::v100(),
        PkaConfig::default().with_pks(PksConfig::default().with_target_error_pct(25.0)),
    )
    .select_kernels(&w)
    .expect("selects");
    let tight = Pka::new(
        GpuConfig::v100(),
        PkaConfig::default().with_pks(PksConfig::default().with_target_error_pct(2.0)),
    )
    .select_kernels(&w)
    .expect("selects");
    assert!(tight.k() >= loose.k(), "{} < {}", tight.k(), loose.k());
}

#[test]
fn stricter_pkp_threshold_costs_more_simulation() {
    let w = find(rodinia::workloads(), "bfs65536");
    let loose = Pka::new(
        tiny_gpu(),
        PkaConfig::default().with_pkp(PkpConfig::default().with_threshold(2.5)),
    )
    .evaluate_in_simulation(&w, false)
    .expect("runs");
    let strict = Pka::new(
        tiny_gpu(),
        PkaConfig::default().with_pkp(PkpConfig::default().with_threshold(0.025)),
    )
    .evaluate_in_simulation(&w, false)
    .expect("runs");
    assert!(
        strict.pka_simulated_cycles >= loose.pka_simulated_cycles,
        "strict {} < loose {}",
        strict.pka_simulated_cycles,
        loose.pka_simulated_cycles
    );
}

#[test]
fn every_suite_is_represented_and_selectable() {
    // One cheap workload per suite goes through selection end to end.
    let picks = [
        ("nn", Suite::Rodinia),
        ("mri", Suite::Parboil),
        ("atax", Suite::Polybench),
        ("cutlass_sgemm_1024x1024x1024", Suite::Cutlass),
        ("deepbench_gemm_infer_2", Suite::Deepbench),
    ];
    let pka = Pka::new(GpuConfig::v100(), PkaConfig::default());
    for (name, suite) in picks {
        let all = principal_kernel_analysis::workloads::all_workloads();
        let w = all.iter().find(|w| w.name() == name).expect("exists");
        assert_eq!(w.suite(), suite);
        let sel = pka.select_kernels(w).expect("selects");
        assert!(sel.k() >= 1);
        assert_eq!(sel.kernels_represented(), w.kernel_count());
    }
}

#[test]
fn dram_utilization_projects_alongside_cycles() {
    // Table 4's last columns: PKA projects DRAM utilisation too.
    let pka = Pka::new(tiny_gpu(), PkaConfig::default());
    let w = find(rodinia::workloads(), "srad_v1");
    let report = pka.evaluate_in_simulation(&w, true).expect("runs");
    let full = report.fullsim_dram_util_pct.expect("full sim ran");
    assert!(
        (report.pka_dram_util_pct - full).abs() < 25.0,
        "pka dram {} vs full {}",
        report.pka_dram_util_pct,
        full
    );
}

/// `selection` with group `g`'s representative replaced by kernel `id`, as
/// a hand-edited selection file would carry it.
fn with_representative(selection: &Selection, g: usize, id: u64) -> Selection {
    let mut value = serde_json::to_value(selection).expect("serialises");
    let serde_json::Value::Object(fields) = &mut value else {
        panic!("a selection serialises to an object")
    };
    let Some(serde_json::Value::Array(groups)) = fields.get_mut("groups") else {
        panic!("a selection carries its groups")
    };
    let serde_json::Value::Object(group) = &mut groups[g] else {
        panic!("a group serialises to an object")
    };
    group.insert("representative".to_string(), serde_json::json!(id));
    serde_json::from_value(value).expect("deserialises")
}

fn assert_invalid_input(err: PkaError, needles: &[&str]) {
    let PkaError::InvalidInput { message } = &err else {
        panic!("expected InvalidInput, got {err:?}")
    };
    for needle in needles {
        assert!(
            message.contains(needle),
            "`{needle}` missing from: {message}"
        );
    }
}

#[test]
fn transferred_selection_must_name_distinct_kernels_of_the_workload() {
    let pka = Pka::new(tiny_gpu(), PkaConfig::default());
    let w = find(rodinia::workloads(), "gauss_208");
    let selection = pka.select_kernels(&w).expect("selects");
    let silicon = pka.profiler().silicon_run(&w).expect("silicon runs");

    // The evaluator behind `evaluate_in_simulation` is the public one.
    assert_eq!(
        pka.simulate_selection(&w, &selection, &silicon, false)
            .expect("simulates"),
        pka.evaluate_in_simulation(&w, false).expect("evaluates")
    );

    let foreign = with_representative(&selection, 0, 999_999);
    let needles = ["999999", "`gauss_208`"];
    assert_invalid_input(
        pka.silicon_report_for(&w, &foreign, &silicon).unwrap_err(),
        &needles,
    );
    for run_full_sim in [false, true] {
        assert_invalid_input(
            pka.simulate_selection(&w, &foreign, &silicon, run_full_sim)
                .unwrap_err(),
            &needles,
        );
    }

    // Two groups headed by one kernel would share a single simulation.
    let w = find(polybench::workloads(), "fdtd2d");
    let selection = pka.select_kernels(&w).expect("selects");
    assert!(
        selection.k() >= 2,
        "fdtd2d selects {} groups",
        selection.k()
    );
    let first = selection.groups()[0].representative().index();
    let shared = with_representative(&selection, 1, first);
    let silicon = pka.profiler().silicon_run(&w).expect("silicon runs");
    let needles = [first.to_string(), "`fdtd2d`".to_string()];
    let needles: Vec<&str> = needles.iter().map(String::as_str).collect();
    assert_invalid_input(
        pka.silicon_report_for(&w, &shared, &silicon).unwrap_err(),
        &needles,
    );
    assert_invalid_input(
        pka.simulate_selection(&w, &shared, &silicon, true)
            .unwrap_err(),
        &needles,
    );
}

#[test]
fn cli_refuses_a_tampered_selection_file_without_panicking() {
    let path = std::env::temp_dir().join(format!("pka_e2e_selection_{}.json", std::process::id()));
    let pka = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_pka"))
            .args(args)
            .arg(&path)
            .output()
            .expect("pka runs")
    };
    let out = pka(&["select", "--workload", "gauss_208", "--out"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&path).expect("selection file written");
    let tampered = body.replacen("\"representative\": 0,", "\"representative\": 999999,", 1);
    assert_ne!(tampered, body, "gauss_208's representative is kernel 0");
    std::fs::write(&path, tampered).expect("rewrite selection file");

    let out = pka(&["simulate", "--workload", "gauss_208", "--selection"]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("representative kernel 999999 is out of range for `gauss_208`"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A selection file with a float field deleted is refused with the field
/// named; the derived reader used to read the absent key as NaN.
#[test]
fn cli_refuses_a_selection_file_missing_a_float_field() {
    let path = std::env::temp_dir().join(format!("pka_e2e_missing_{}.json", std::process::id()));
    let pka = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_pka"))
            .args(args)
            .arg(&path)
            .output()
            .expect("pka runs")
    };
    let out = pka(&["select", "--workload", "gauss_208", "--out"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("selection file written"))
            .expect("selection file is json");
    let removed = match &mut doc {
        serde_json::Value::Object(file) => match file.get_mut("selection") {
            Some(serde_json::Value::Object(selection)) => selection.remove("member_deviation_pct"),
            _ => None,
        },
        _ => None,
    };
    assert!(removed.is_some(), "selection file holds `selection.member_deviation_pct`");
    std::fs::write(&path, doc.to_string()).expect("rewrite selection file");

    let out = pka(&["simulate", "--workload", "gauss_208", "--selection"]);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("missing field `member_deviation_pct`"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no report is printed");
}
