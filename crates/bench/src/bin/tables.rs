//! The `tables` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! tables [--quick] [--out DIR] [--workers N]
//!        [--trace-out PATH] [--metrics-out PATH] [-v] [REPORT...]
//! ```
//!
//! `REPORT` is any of `fig1 table3 fig4 fig5 fig6 fig7 fig8 table4 fig9
//! fig10 single_iter` or `all` (the default). `--quick` shrinks the
//! full-simulation budget for smoke runs. Each report's text is printed to
//! stdout and its JSON record set written to `DIR` (default
//! `results/`). An unknown flag or report name is a usage error (exit 2).
//!
//! The observability flags mirror the `pka` binary: `--trace-out` appends
//! JSONL span/event records, `--metrics-out` writes a `run_manifest.json`
//! whose checksums section carries an FNV-1a digest of each generated
//! report's JSON payload, and `-v` prints a stage summary to stderr.
//! Collection never changes report contents.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use pka_bench::{tables, ExperimentRunner, RunnerOptions};

/// Every report name `tables` accepts; `fig8` aliases `fig7`.
const REPORTS: &[&str] = &[
    "fig1",
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table4",
    "fig9",
    "fig10",
    "single_iter",
    "all",
];

const USAGE: &str = "usage: tables [--quick] [--out DIR] [--workers N] [--trace-out PATH] [--metrics-out PATH] [-v] [fig1|table3|fig4|fig5|fig6|fig7|fig8|table4|fig9|fig10|single_iter|all]...";

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut workers = 1usize;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut verbose = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }))
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--workers requires a non-negative integer");
                        std::process::exit(2);
                    })
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out requires a path");
                    std::process::exit(2);
                })))
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--metrics-out requires a path");
                    std::process::exit(2);
                })))
            }
            "-v" | "--verbose" => verbose = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other if other.starts_with('-') || !REPORTS.contains(&other) => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
            other => wanted.push(other.to_string()),
        }
    }
    if trace_out.is_some() || metrics_out.is_some() || verbose {
        pka_obs::enable();
        if let Some(path) = &trace_out {
            pka_obs::trace_to(path).unwrap_or_else(|e| {
                eprintln!("error: open trace sink {}: {e}", path.display());
                std::process::exit(2);
            });
        }
    }
    if wanted.is_empty() {
        wanted.push("all".into());
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    let mut options = if quick {
        RunnerOptions::quick()
    } else {
        RunnerOptions::default()
    };
    options.pka = options.pka.with_workers(workers);
    let runner = ExperimentRunner::new(options);
    fs::create_dir_all(&out_dir).expect("create output directory");

    // fig7/fig8 are one computation; fig8 aliases it.
    let mut plan: Vec<(&str, Box<dyn Fn(&ExperimentRunner) -> _>)> = Vec::new();
    if want("fig1") {
        plan.push(("fig1", Box::new(tables::fig1)));
    }
    if want("table3") {
        plan.push(("table3", Box::new(tables::table3)));
    }
    if want("fig4") {
        plan.push(("fig4", Box::new(tables::fig4)));
    }
    if want("fig5") {
        plan.push(("fig5", Box::new(|_: &ExperimentRunner| tables::fig5())));
    }
    if want("fig7") || want("fig8") {
        plan.push(("fig7_fig8", Box::new(tables::fig7_fig8)));
    }
    if want("table4") {
        plan.push(("table4", Box::new(tables::table4)));
    }
    if want("fig6") {
        plan.push(("fig6", Box::new(tables::fig6)));
    }
    if want("fig9") {
        plan.push(("fig9", Box::new(tables::fig9)));
    }
    if want("fig10") {
        plan.push(("fig10", Box::new(tables::fig10)));
    }
    if want("single_iter") {
        plan.push(("single_iter", Box::new(tables::single_iteration_study)));
    }

    let mut checksums = serde_json::Map::new();
    for (name, generate) in plan {
        let start = Instant::now();
        match generate(&runner) {
            Ok(report) => {
                println!("{}", report.text);
                println!(
                    "[{name} generated in {:.1}s]\n",
                    start.elapsed().as_secs_f64()
                );
                let path = out_dir.join(format!("{}.json", report.name));
                let payload =
                    serde_json::to_string_pretty(&report.data).expect("serialisable report");
                if pka_obs::enabled() {
                    checksums.insert(
                        report.name.clone(),
                        serde_json::json!(pka_stats::hash::fnv1a(payload.as_bytes())),
                    );
                }
                fs::write(&path, payload).expect("write report json");
            }
            Err(e) => {
                eprintln!("error generating {name}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &metrics_out {
        let config = serde_json::json!({
            "binary": "tables",
            "quick": quick,
            "workers": workers,
            "reports": wanted.clone(),
        });
        // The tables runner always uses the workspace default seeds
        // (per-K clustering streams derive as `seed ^ k`).
        let seeds = serde_json::json!({ "pks": 0u64, "classifier": 0u64 });
        pka_obs::write_manifest(path, config, seeds, serde_json::Value::Object(checksums))
            .unwrap_or_else(|e| {
                eprintln!("error: write manifest {}: {e}", path.display());
                std::process::exit(1);
            });
    }
    if verbose {
        for line in pka_obs::snapshot().summary_lines() {
            eprintln!("[obs] {line}");
        }
    }
    pka_obs::close_trace().unwrap_or_else(|e| {
        eprintln!("error: close trace sink: {e}");
        std::process::exit(1);
    });
}
