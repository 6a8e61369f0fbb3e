//! Report generators: one function per table/figure of the paper.
//!
//! Every generator returns a [`Report`] holding both the formatted text
//! table and a machine-readable JSON value (written next to the text by the
//! `tables` binary so EXPERIMENTS.md numbers stay auditable).

use pka_baselines::{FirstN, SingleIteration, TbPoint, TbPointConfig};
use pka_core::{PkaError, PkpConfig, PkpMonitor};
use pka_gpu::{GpuConfig, KernelId};
use pka_sim::cost::{
    format_duration, projected_sim_hours, projected_sim_seconds, SECONDS_PER_HOUR,
};
use pka_sim::{SimOptions, Simulator};
use pka_stats::error::{abs_pct_error, mean_abs_error};
use pka_stats::summary::{geomean, mean};
use pka_workloads::{all_workloads, classic_workloads, Suite, Workload};
use serde_json::{json, Value};

use crate::ExperimentRunner;

/// The "first 1B instructions" budget, scaled to this study's workload
/// magnitudes the same way 10⁹ relates to the paper's (its classic
/// workloads run tens of billions of instructions; ours run tens of
/// millions).
pub const FIRST_N_BUDGET: u64 = 2_000_000;

/// Kernel-count ceiling for TBPoint's quadratic clustering.
const TBPOINT_MAX_KERNELS: u64 = 2_000;

/// One generated report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Short identifier (`fig7`, `table4`, …).
    pub name: String,
    /// Formatted text table.
    pub text: String,
    /// Machine-readable record set.
    pub data: Value,
}

/// Absolute IPC error (percent) of a method that projected
/// `projected_cycles` for work whose silicon took `silicon_cycles`, with
/// identical instruction totals.
fn ipc_error_pct(projected_cycles: u64, silicon_cycles: u64) -> f64 {
    if projected_cycles == 0 {
        return f64::INFINITY;
    }
    // IPC_m / IPC_si = silicon_cycles / projected_cycles.
    (silicon_cycles as f64 / projected_cycles as f64 - 1.0).abs() * 100.0
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// Figure 1: silicon runtime, projected simulation time and detailed
/// profiling time for all 147 workloads.
///
/// # Errors
///
/// Propagates silicon-model failures.
pub fn fig1(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let gpu = GpuConfig::v100();
    let mut rows = Vec::new();
    for w in all_workloads() {
        let silicon = runner.silicon(&w, &gpu)?;
        let sim_seconds = projected_sim_seconds(silicon.total_cycles);
        let profiling = runner.volta().profiler().profiling_cost(&w);
        rows.push((
            w.name().to_string(),
            w.suite().to_string(),
            silicon.total_seconds,
            sim_seconds,
            profiling.detailed_seconds(),
        ));
    }
    rows.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));

    let mut text = String::from(
        "Figure 1: execution time per workload (147 workloads, V100)\n\
         workload                          suite      silicon      simulation     profiling\n",
    );
    for (name, suite, si, sim, prof) in &rows {
        text.push_str(&format!(
            "{name:<33} {suite:<10} {:>12} {:>14} {:>13}\n",
            format_duration(*si),
            format_duration(*sim),
            format_duration(*prof),
        ));
    }
    let max_sim = rows.iter().map(|r| r.3).fold(0.0f64, f64::max);
    text.push_str(&format!(
        "\nslowest simulation: {} (the paper's century band)\n",
        format_duration(max_sim)
    ));
    let data = rows
        .iter()
        .map(|(name, suite, si, sim, prof)| {
            json!({"workload": name, "suite": suite, "silicon_s": si,
                   "simulation_s": sim, "profiling_s": prof})
        })
        .collect();
    Ok(Report {
        name: "fig1".into(),
        text,
        data: Value::Array(data),
    })
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// Table 3: Principal Kernel Selection output examples — selected kernel
/// ids and group populations.
///
/// # Errors
///
/// Propagates profiling and clustering failures.
pub fn table3(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let names = [
        "gauss_208",
        "bfs65536",
        "histo",
        "cutcp",
        "fdtd2d",
        "gramschmidt",
        "cutlass_wgemm_2560x128x2560",
        "cutlass_sgemm_4096x4096x4096",
    ];
    let all = all_workloads();
    let mut text = String::from(
        "Table 3: Principal Kernel Selection output (target error 5%)\n\
         workload                         selected kernel ids          group counts\n",
    );
    let mut data = Vec::new();
    for name in names {
        let w = all.iter().find(|w| w.name() == name).expect("known workload");
        let sel = runner.selection(w)?;
        let ids: Vec<String> = sel
            .representative_ids()
            .iter()
            .map(|id| id.to_string())
            .collect();
        let counts: Vec<String> = sel.groups().iter().map(|g| g.count().to_string()).collect();
        text.push_str(&format!(
            "{name:<32} {:<28} {}\n",
            ids.join(","),
            counts.join(","),
        ));
        data.push(json!({"workload": name,
                          "selected": sel.representative_ids().iter().map(|i| i.index()).collect::<Vec<_>>(),
                          "counts": sel.groups().iter().map(|g| g.count()).collect::<Vec<_>>(),
                          "error_pct": sel.error_pct()}));
    }
    Ok(Report {
        name: "table3".into(),
        text,
        data: Value::Array(data),
    })
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// Figure 4: per-group kernel-name composition after PKS on ResNet.
///
/// # Errors
///
/// Propagates profiling and clustering failures.
pub fn fig4(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name() == "mlperf_resnet50_64b_infer")
        .expect("resnet exists");
    let sel = runner.selection(&w)?;
    // ResNet profiles in one level, so labels cover the whole stream; for a
    // two-level workload they would cover only the detailed prefix, and the
    // header below would say so.
    let labels = sel.labels();
    let coverage = labels.len() as u64;
    let mut composition: Vec<std::collections::BTreeMap<String, u64>> =
        vec![Default::default(); sel.k()];
    for (i, &g) in labels.iter().enumerate() {
        let name = w.kernel(KernelId::new(i as u64)).name().to_string();
        *composition[g].entry(name).or_insert(0) += 1;
    }
    let mut text = format!(
        "Figure 4: per-group kernel composition after PKS on {} ({} groups, \
         composition from {coverage} of {} launches)\n",
        w.name(),
        sel.k(),
        w.kernel_count(),
    );
    for (g, names) in composition.iter().enumerate() {
        text.push_str(&format!("group {g} ({} kernels):\n", sel.groups()[g].count()));
        for (name, count) in names {
            text.push_str(&format!("    {name:<24} x{count}\n"));
        }
    }
    let data = composition
        .iter()
        .enumerate()
        .map(|(g, names)| json!({"group": g, "composition": names}))
        .collect();
    Ok(Report {
        name: "fig4".into(),
        text,
        data: Value::Array(data),
    })
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Figure 5: IPC / L2-miss / DRAM-util time series with PKP stopping points
/// at s ∈ {2.5, 0.25, 0.025}, for a regular workload (atax) and an
/// irregular one (BFS).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn fig5() -> Result<Report, PkaError> {
    let gpu = GpuConfig::v100();
    let options = SimOptions::default().with_sample_interval(100)?;
    let sim = Simulator::new(gpu, options);
    let all = all_workloads();
    let atax = all.iter().find(|w| w.name() == "atax").expect("exists");
    let bfs = all.iter().find(|w| w.name() == "bfs1MW").expect("exists");

    let mut text = String::from("Figure 5: PKP stopping points vs threshold s\n");
    let mut data = Vec::new();
    for (label, workload, id) in [("atax (regular)", atax, 0u64), ("bfs (irregular)", bfs, 8u64)] {
        let kernel = workload.kernel(KernelId::new(id));
        let full = sim.run_kernel(&kernel)?;
        text.push_str(&format!(
            "\n{label}: kernel `{}`, {} cycles total\n  cycle      ipc   l2miss%   dram%\n",
            kernel.name(),
            full.cycles
        ));
        let step = (full.ipc_series.len() / 18).max(1);
        for s in full.ipc_series.iter().step_by(step) {
            text.push_str(&format!(
                "  {:>6} {:>8.1} {:>8.1} {:>7.1}\n",
                s.cycle, s.ipc, s.l2_miss_pct, s.dram_util_pct
            ));
        }
        let mut stops = Vec::new();
        for threshold in [2.5, 0.25, 0.025] {
            let mut monitor = PkpMonitor::new(
                PkpConfig::default().with_threshold(threshold),
                options.sample_interval(),
            );
            let r = sim.run_kernel_monitored(&kernel, &mut monitor)?;
            let stop = monitor.stopped_at();
            let err = abs_pct_error(r.projected_total_cycles() as f64, full.cycles as f64);
            text.push_str(&format!(
                "  s = {threshold:<6} stop at {:>9}  projection error {err:>5.1}%  speedup {:>6.1}x\n",
                stop.map_or("(never)".to_string(), |c| c.to_string()),
                full.cycles as f64 / r.cycles.max(1) as f64,
            ));
            stops.push(json!({"s": threshold, "stop_cycle": stop, "error_pct": err}));
        }
        data.push(json!({"workload": label, "kernel": kernel.name(),
                          "full_cycles": full.cycles, "stops": stops,
                          "series": full.ipc_series.iter().step_by(step).map(|s|
                              json!({"cycle": s.cycle, "ipc": s.ipc,
                                     "l2_miss_pct": s.l2_miss_pct,
                                     "dram_util_pct": s.dram_util_pct})).collect::<Vec<_>>()}));
    }
    Ok(Report {
        name: "fig5".into(),
        text,
        data: Value::Array(data),
    })
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// Figure 6: simulation time per workload under full simulation, PKS, and
/// PKA.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig6(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let gpu = GpuConfig::v100();
    let mut rows = Vec::new();
    for w in all_workloads() {
        // Full simulation is projected from silicon cycles for every
        // workload, even one whose cached report carries a baseline.
        let report = runner.simulation(&w, &gpu, false)?;
        let full_h = projected_sim_hours(report.silicon_cycles);
        rows.push((
            w.name().to_string(),
            full_h,
            report.pks_hours,
            report.pka_hours,
        ));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let mut text = String::from(
        "Figure 6: simulation time (hours, log-banded) — full vs PKS vs PKA\n\
         workload                              full           PKS           PKA\n",
    );
    for (name, f, s, a) in &rows {
        text.push_str(&format!(
            "{name:<33} {:>12} {:>13} {:>13}\n",
            format_duration(f * SECONDS_PER_HOUR),
            format_duration(s * SECONDS_PER_HOUR),
            format_duration(a * SECONDS_PER_HOUR),
        ));
    }
    let worst_pka = rows.iter().map(|r| r.3).fold(0.0f64, f64::max);
    text.push_str(&format!(
        "\nevery workload under PKA simulates within {}\n",
        format_duration(worst_pka * SECONDS_PER_HOUR)
    ));
    let data = rows
        .iter()
        .map(|(n, f, s, a)| json!({"workload": n, "full_h": f, "pks_h": s, "pka_h": a}))
        .collect();
    Ok(Report {
        name: "fig6".into(),
        text,
        data: Value::Array(data),
    })
}

// ---------------------------------------------------------------------------
// Figures 7 and 8
// ---------------------------------------------------------------------------

/// The workload set for the prior-work comparison: classic workloads that
/// complete in full simulation and fit TBPoint's clustering.
pub fn comparison_set(runner: &ExperimentRunner) -> Vec<Workload> {
    classic_workloads()
        .into_iter()
        .filter(|w| runner.fullsim_tractable(w) && w.kernel_count() <= TBPOINT_MAX_KERNELS)
        .collect()
}

/// Figures 7 and 8: simulation-time speedup and absolute IPC error of PKA,
/// TBPoint and first-N-instructions against full simulation.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig7_fig8(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let gpu = GpuConfig::v100();
    let sim_options = runner.options().pka.sim_options();
    let tbpoint = TbPoint::new(
        gpu.clone(),
        sim_options,
        TbPointConfig {
            max_kernels: TBPOINT_MAX_KERNELS,
            ..TbPointConfig::default()
        },
    );
    let firstn = FirstN::new(gpu.clone(), sim_options, FIRST_N_BUDGET);

    let mut rows = Vec::new();
    for w in comparison_set(runner) {
        let report = runner.simulation(&w, &gpu, true)?;
        let Some(full) = report.fullsim_cycles else {
            continue;
        };
        let silicon = report.silicon_cycles;
        let tb = tbpoint.evaluate(&w)?;
        let fnr = firstn.evaluate(&w)?;

        rows.push(json!({
            "workload": w.name(),
            "fullsim": {
                "speedup": 1.0,
                "ipc_error_pct": ipc_error_pct(full, silicon),
            },
            "pka": {
                "speedup": report.pka_speedup(),
                "ipc_error_pct": ipc_error_pct(report.pka_projected_cycles, silicon),
            },
            "tbpoint": {
                "speedup": full as f64 / tb.simulated_cycles.max(1) as f64,
                "ipc_error_pct": ipc_error_pct(tb.projected_cycles, silicon),
            },
            "first_n": {
                "speedup": full as f64 / fnr.simulated_cycles.max(1) as f64,
                "ipc_error_pct": ipc_error_pct(fnr.projected_cycles, silicon),
            },
        }));
    }

    let series = |method: &str, field: &str| -> Vec<f64> {
        rows.iter()
            .map(|r| r[method][field].as_f64().expect("numeric"))
            .collect()
    };
    let mut text = format!(
        "Figures 7 & 8: prior-work comparison over {} fully-simulable workloads\n\n",
        rows.len()
    );
    text.push_str("Figure 7 (simulation speedup over full simulation, geomean):\n");
    for method in ["pka", "tbpoint", "first_n"] {
        text.push_str(&format!(
            "  {:<8} {:>7.2}x\n",
            method,
            geomean(&series(method, "speedup"))
        ));
    }
    text.push_str("\nFigure 8 (mean absolute IPC error vs silicon, %):\n");
    for method in ["fullsim", "first_n", "pka", "tbpoint"] {
        text.push_str(&format!(
            "  {:<8} {:>7.2}%\n",
            method,
            mean(&series(method, "ipc_error_pct"))
        ));
    }
    let pka_su = geomean(&series("pka", "speedup"));
    let tb_su = geomean(&series("tbpoint", "speedup"));
    text.push_str(&format!(
        "\nPKA needs {:.2}x less simulation than TBPoint (paper: 2.19x)\n",
        pka_su / tb_su
    ));
    Ok(Report {
        name: "fig7_fig8".into(),
        text,
        data: Value::Array(rows),
    })
}

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

/// One record of Table 4: the silicon PKS columns per GPU generation (the
/// V100 alone for MLPerf) and the simulation columns on the Volta model,
/// each read from a `pka-core` report. `myocyte` yields the paper's
/// exclusion marker.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table4_row(runner: &ExperimentRunner, w: &Workload) -> Result<Value, PkaError> {
    // The paper excludes myocyte (kernel-count mismatch across runs).
    if w.name() == "myocyte" {
        return Ok(json!({"workload": w.name(), "suite": w.suite().to_string(),
                         "excluded": true}));
    }
    let volta = GpuConfig::v100();
    let gens = if w.suite() == Suite::MlPerf {
        vec![volta.clone()]
    } else {
        vec![volta.clone(), GpuConfig::rtx2060(), GpuConfig::rtx3070()]
    };
    let selection = runner.selection(w)?;
    let mut silicon_cols = serde_json::Map::new();
    for gpu in &gens {
        let silicon = runner.silicon(w, gpu)?;
        let report = runner
            .pipeline(gpu)
            .silicon_report_for(w, &selection, &silicon)?;
        silicon_cols.insert(
            gpu.name().to_string(),
            json!({"error_pct": report.error_pct, "speedup": report.speedup}),
        );
    }

    let report = runner.simulation(w, &volta, true)?;
    Ok(json!({
        "workload": w.name(),
        "suite": w.suite().to_string(),
        "kernels": w.kernel_count(),
        "k": selection.k(),
        "silicon": silicon_cols,
        "sim_error_pct": report.sim_error_pct,
        "pks_error_pct": report.pks_error_pct,
        "pks_hours": report.pks_hours,
        "pka_error_pct": report.pka_error_pct,
        "pka_hours": report.pka_hours,
        "pks_speedup": report.pks_speedup(),
        "pka_speedup": report.pka_speedup(),
        "dram_full_pct": report.fullsim_dram_util_pct,
        "dram_pka_pct": report.pka_dram_util_pct,
    }))
}

/// Table 4: the full per-application evaluation — silicon PKS across three
/// generations, simulation error/speedup for PKS and PKA, and DRAM
/// utilisation projection.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table4(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let rows = all_workloads()
        .iter()
        .map(|w| table4_row(runner, w))
        .collect::<Result<Vec<_>, _>>()?;

    // Format.
    let mut text = String::from(
        "Table 4: cycle error and speedup for PKS (silicon, three generations) and PKS/PKA (simulation)\n\
         workload                        | V err%   SU | T err%   SU | A err%   SU | Sim% | PKS%  h(SU)       | PKA%  h(SU)       | DRAM f/pka\n",
    );
    let fmt_gen = |r: &Value, gpu: &str| -> String {
        match r["silicon"].get(gpu) {
            Some(g) => format!(
                "{:>6.1} {:>5.1}",
                g["error_pct"].as_f64().unwrap_or(0.0),
                g["speedup"].as_f64().unwrap_or(0.0)
            ),
            None => format!("{:>6} {:>5}", "*", "*"),
        }
    };
    let mut current_suite = String::new();
    let mut suite_rows: Vec<&Value> = Vec::new();
    let mut all_text_rows = String::new();
    let flush_suite =
        |suite: &str, rows: &[&Value], out: &mut String| {
            if rows.is_empty() {
                return;
            }
            let errs: Vec<f64> = rows
                .iter()
                .filter_map(|r| r["silicon"]["V100"]["error_pct"].as_f64())
                .collect();
            let sus: Vec<f64> = rows
                .iter()
                .filter_map(|r| r["silicon"]["V100"]["speedup"].as_f64())
                .collect();
            out.push_str(&format!(
                "  -- {suite}: silicon PKS mean error {:.1}%, geomean speedup {:.1}x --\n",
                mean(&errs),
                geomean(&sus)
            ));
        };
    for r in &rows {
        let suite = r["suite"].as_str().unwrap_or("");
        if suite != current_suite {
            flush_suite(&current_suite, &suite_rows, &mut all_text_rows);
            suite_rows.clear();
            current_suite = suite.to_string();
        }
        if r.get("excluded").is_some() {
            all_text_rows.push_str(&format!(
                "{:<31} | {:>12} (excluded: kernel-count mismatch)\n",
                r["workload"].as_str().unwrap_or(""),
                "*"
            ));
            continue;
        }
        suite_rows.push(r);
        all_text_rows.push_str(&format!(
            "{:<31} | {} | {} | {} | {:>4} | {:>5.1} {:>10} | {:>5.1} {:>10} | {}/{:.1}\n",
            r["workload"].as_str().unwrap_or(""),
            fmt_gen(r, "V100"),
            fmt_gen(r, "RTX2060"),
            fmt_gen(r, "RTX3070"),
            r["sim_error_pct"]
                .as_f64()
                .map_or("*".to_string(), |e| format!("{e:.0}")),
            r["pks_error_pct"].as_f64().unwrap_or(0.0),
            format!(
                "{:.2}h({:.0}x)",
                r["pks_hours"].as_f64().unwrap_or(0.0),
                r["pks_speedup"].as_f64().unwrap_or(0.0)
            ),
            r["pka_error_pct"].as_f64().unwrap_or(0.0),
            format!(
                "{:.2}h({:.0}x)",
                r["pka_hours"].as_f64().unwrap_or(0.0),
                r["pka_speedup"].as_f64().unwrap_or(0.0)
            ),
            r["dram_full_pct"]
                .as_f64()
                .map_or("*".to_string(), |d| format!("{d:.1}")),
            r["dram_pka_pct"].as_f64().unwrap_or(0.0),
        ));
    }
    flush_suite(&current_suite, &suite_rows, &mut all_text_rows);
    text.push_str(&all_text_rows);
    Ok(Report {
        name: "table4".into(),
        text,
        data: Value::Array(rows),
    })
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// Figure 9: V100-over-RTX2060 speedup as seen by silicon, full
/// simulation, first-N and PKA.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig9(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let v100 = GpuConfig::v100();
    let t2060 = GpuConfig::rtx2060();
    let sim_options = runner.options().pka.sim_options();
    let firstn_v = FirstN::new(v100.clone(), sim_options, FIRST_N_BUDGET);
    let firstn_t = FirstN::new(t2060.clone(), sim_options, FIRST_N_BUDGET);

    let seconds = |cycles: u64, gpu: &GpuConfig| cycles as f64 / gpu.core_clock_hz();

    let mut rows = Vec::new();
    for w in comparison_set(runner) {
        let sa_v = runner.simulation(&w, &v100, true)?;
        let sa_t = runner.simulation(&w, &t2060, true)?;
        let (Some(full_v), Some(full_t)) = (sa_v.fullsim_cycles, sa_t.fullsim_cycles) else {
            continue;
        };
        let si_v = runner.silicon(&w, &v100)?;
        let si_t = runner.silicon(&w, &t2060)?;
        let fn_v = firstn_v.evaluate(&w)?;
        let fn_t = firstn_t.evaluate(&w)?;
        rows.push(json!({
            "workload": w.name(),
            "silicon": si_t.total_seconds / si_v.total_seconds,
            "fullsim": seconds(full_t, &t2060) / seconds(full_v, &v100),
            "first_n": seconds(fn_t.projected_cycles, &t2060) / seconds(fn_v.projected_cycles, &v100),
            "pka": seconds(sa_t.pka_projected_cycles, &t2060) / seconds(sa_v.pka_projected_cycles, &v100),
        }));
    }
    let series = |m: &str| -> Vec<f64> {
        rows.iter().map(|r| r[m].as_f64().expect("numeric")).collect()
    };
    let mut text = format!(
        "Figure 9: V100 speedup over RTX 2060 ({} workloads, geomeans)\n",
        rows.len()
    );
    for m in ["silicon", "fullsim", "first_n", "pka"] {
        text.push_str(&format!("  {m:<8} {:>6.2}x\n", geomean(&series(m))));
    }
    Ok(Report {
        name: "fig9".into(),
        text,
        data: Value::Array(rows),
    })
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// Figure 10: 80-SM-over-40-SM V100 speedup as seen by silicon, full
/// simulation, first-N and PKA, with MAE versus silicon; MLPerf workloads
/// are covered by PKA alone (no full simulation exists for them).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig10(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let full_gpu = GpuConfig::v100();
    let half_gpu = GpuConfig::v100_half_sms();
    let sim_options = runner.options().pka.sim_options();
    let firstn_full = FirstN::new(full_gpu.clone(), sim_options, FIRST_N_BUDGET);
    let firstn_half = FirstN::new(half_gpu.clone(), sim_options, FIRST_N_BUDGET);

    let mut rows = Vec::new();
    for w in comparison_set(runner) {
        let sa_f = runner.simulation(&w, &full_gpu, true)?;
        let sa_h = runner.simulation(&w, &half_gpu, true)?;
        let (Some(fs_full), Some(fs_half)) = (sa_f.fullsim_cycles, sa_h.fullsim_cycles) else {
            continue;
        };
        let fn_f = firstn_full.evaluate(&w)?;
        let fn_h = firstn_half.evaluate(&w)?;
        rows.push(json!({
            "workload": w.name(),
            "silicon": sa_h.silicon_cycles as f64 / sa_f.silicon_cycles as f64,
            "fullsim": fs_half as f64 / fs_full as f64,
            "first_n": fn_h.projected_cycles as f64 / fn_f.projected_cycles.max(1) as f64,
            "pka": sa_h.pka_projected_cycles as f64 / sa_f.pka_projected_cycles.max(1) as f64,
        }));
    }
    // MLPerf: PKA-only speedup error versus silicon (paper: < 10%).
    let mut mlperf_rows = Vec::new();
    for w in all_workloads().into_iter().filter(|w| w.suite() == Suite::MlPerf) {
        let sa_f = runner.simulation(&w, &full_gpu, true)?;
        let sa_h = runner.simulation(&w, &half_gpu, true)?;
        let silicon = sa_h.silicon_cycles as f64 / sa_f.silicon_cycles as f64;
        let pka = sa_h.pka_projected_cycles as f64 / sa_f.pka_projected_cycles.max(1) as f64;
        mlperf_rows.push(json!({"workload": w.name(), "silicon": silicon, "pka": pka,
                                 "speedup_error_pct": ((pka - silicon) / silicon * 100.0).abs()}));
    }

    let series = |m: &str| -> Vec<f64> {
        rows.iter().map(|r| r[m].as_f64().expect("numeric")).collect()
    };
    let silicon = series("silicon");
    let mut text = format!(
        "Figure 10: speedup of 80 SMs over 40 SMs on V100 ({} workloads)\n",
        rows.len()
    );
    for m in ["silicon", "fullsim", "first_n", "pka"] {
        let s = series(m);
        if m == "silicon" {
            text.push_str(&format!("  {m:<8} geomean {:>5.2}x\n", geomean(&s)));
        } else {
            text.push_str(&format!(
                "  {m:<8} geomean {:>5.2}x   MAE vs silicon {:>5.2}\n",
                geomean(&s),
                mean_abs_error(&s, &silicon)
            ));
        }
    }
    text.push_str("\nMLPerf (PKA only; no full simulation exists):\n");
    for r in &mlperf_rows {
        text.push_str(&format!(
            "  {:<28} silicon {:>5.2}x  pka {:>5.2}x  |err| {:>4.1}%\n",
            r["workload"].as_str().unwrap_or(""),
            r["silicon"].as_f64().unwrap_or(0.0),
            r["pka"].as_f64().unwrap_or(0.0),
            r["speedup_error_pct"].as_f64().unwrap_or(0.0),
        ));
    }
    Ok(Report {
        name: "fig10".into(),
        text,
        data: json!({"classic": rows, "mlperf": mlperf_rows}),
    })
}

// ---------------------------------------------------------------------------
// Single-iteration case study (Section 6)
// ---------------------------------------------------------------------------

/// Section 6: single-iteration scaling versus PKA on ResNet — comparable
/// accuracy, far more simulation.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn single_iteration_study(runner: &ExperimentRunner) -> Result<Report, PkaError> {
    let gpu = GpuConfig::v100();
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name() == "mlperf_resnet50_64b_infer")
        .expect("resnet exists");
    let sampled = runner.simulation(&w, &gpu, true)?;
    let single = SingleIteration::new(gpu, runner.options().pka.sim_options()).evaluate(&w)?;

    let pks_ratio = single.simulated_cycles as f64 / sampled.pks_simulated_cycles.max(1) as f64;
    let pka_ratio = single.simulated_cycles as f64 / sampled.pka_simulated_cycles.max(1) as f64;
    let text = format!(
        "Section 6 case study: single-iteration scaling vs PKA on {}\n\
         single-iteration: error {:>5.1}%  simulated {:>12} cycles\n\
         PKS:              error {:>5.1}%  simulated {:>12} cycles ({pks_ratio:.1}x less than single-iteration)\n\
         PKA:              error {:>5.1}%  simulated {:>12} cycles ({pka_ratio:.1}x less than single-iteration)\n\
         (paper: single-iteration needs ~3x the simulation of PKS and ~48x that of PKA at comparable accuracy)\n",
        w.name(),
        single.error_pct,
        single.simulated_cycles,
        sampled.pks_error_pct,
        sampled.pks_simulated_cycles,
        sampled.pka_error_pct,
        sampled.pka_simulated_cycles,
    );
    let data = json!({
        "single_iteration": {"error_pct": single.error_pct, "simulated_cycles": single.simulated_cycles},
        "pks": {"simulated_cycles": sampled.pks_simulated_cycles},
        "pka": {"simulated_cycles": sampled.pka_simulated_cycles},
        "single_vs_pks": pks_ratio,
        "single_vs_pka": pka_ratio,
    });
    Ok(Report {
        name: "single_iter".into(),
        text,
        data,
    })
}
