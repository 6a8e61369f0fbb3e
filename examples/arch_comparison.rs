//! The architect's use case (Section 5.3): does sampled simulation
//! preserve *relative* performance across architectures?
//!
//! ```text
//! cargo run --release --example arch_comparison
//! ```
//!
//! Selects principal kernels once on Volta, then re-runs those same
//! kernels on Turing and Ampere silicon — the cross-generation transfer
//! experiment — and finally reproduces the Figure 10 case study in
//! miniature: the predicted speedup of an 80-SM V100 over a 40-SM V100.

use principal_kernel_analysis::core::{Pka, PkaConfig};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::obs;
use principal_kernel_analysis::workloads::rodinia;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Set PKA_TRACE=<path> to record a pka.trace/v1 JSONL of the run.
    let trace = std::env::var_os("PKA_TRACE");
    if let Some(path) = &trace {
        obs::enable();
        obs::trace_to(std::path::Path::new(path))?;
    }
    let workload = rodinia::workloads()
        .into_iter()
        .find(|w| w.name() == "srad_v1")
        .expect("part of the Rodinia suite");

    println!("workload: {}", workload.name());

    // Select once, on Volta — the paper's protocol.
    let select_span = obs::span("example.select");
    let volta = Pka::new(GpuConfig::v100(), PkaConfig::default());
    let selection = volta.select_kernels(&workload)?;
    drop(select_span);
    println!("selected {} principal kernels on Volta\n", selection.k());

    println!("{:<10} {:>10} {:>10}", "GPU", "error[%]", "speedup");
    for gpu in [GpuConfig::v100(), GpuConfig::rtx2060(), GpuConfig::rtx3070()] {
        let pipeline = Pka::new(gpu, PkaConfig::default());
        let silicon = pipeline.profiler().silicon_run(&workload)?;
        let report = pipeline.silicon_report_for(&workload, &selection, &silicon)?;
        println!(
            "{:<10} {:>10.1} {:>9.1}x",
            report.gpu, report.error_pct, report.speedup
        );
    }

    // Figure 10 in miniature: 80 vs 40 SMs, silicon truth vs PKA estimate.
    println!();
    let _scaling_span = obs::span("example.sm_scaling");
    let full = Pka::new(GpuConfig::v100(), PkaConfig::default());
    let half = Pka::new(GpuConfig::v100_half_sms(), PkaConfig::default());
    let silicon_full = full.profiler().silicon_run(&workload)?;
    let silicon_half = half.profiler().silicon_run(&workload)?;
    let silicon_speedup = silicon_half.total_cycles as f64 / silicon_full.total_cycles as f64;

    let full_report = full.evaluate_in_simulation(&workload, false)?;
    let half_report = half.evaluate_in_simulation(&workload, false)?;
    let pka_speedup =
        half_report.pka_projected_cycles as f64 / full_report.pka_projected_cycles as f64;

    println!("80-SM over 40-SM V100 speedup:");
    println!("  silicon: {silicon_speedup:.2}x");
    println!("  PKA:     {pka_speedup:.2}x");
    println!(
        "  |error|: {:.1}%",
        ((pka_speedup - silicon_speedup) / silicon_speedup * 100.0).abs()
    );
    drop(_scaling_span);
    if trace.is_some() {
        obs::close_trace()?;
    }
    Ok(())
}
