//! The PKA benchmark: two workloads (`simulate`, `serve`), each run in a
//! fresh process, each doing a fixed amount of work generated from
//! `--seed`. `--trace 0` prints the end-to-end metrics; `--trace 1` wraps
//! the benchmark's own calls into each layer in spans and prints the
//! per-layer metrics. The last line of standard output is one JSON object.
//!
//! ```text
//! perfbench --workload simulate|serve|all --seed N --seconds S --trace 0|1
//! ```

mod gen;
mod report;
mod serve;
mod simulate;
mod stream;
mod trace;

use std::process::{Command, ExitCode};

use report::{peak_rss_mb, Report};
use trace::Trace;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 2] = ["simulate", "serve"];

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("kernels_per_cpu_s", "1/s"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.full_ms", "ms"),
    ("sim.rep_ms", "ms"),
    ("sim.monitored_ms", "ms"),
    ("sim.kernel_p50_ms", "ms"),
    ("sim.kernel_p90_ms", "ms"),
    ("sim.kernel_samples", "count"),
    ("sim.ns_per_cycle.micro", "ns"),
    ("sim.ns_per_cycle.memory", "ns"),
    ("sim.ns_per_cycle.early_stop", "ns"),
    ("sim.kernels", "count"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("pkp.simulated_ratio", "ratio"),
    ("pkp.early_stops", "count"),
    ("profile.detailed_ms", "ms"),
    ("gpu.silicon_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("pks.select_ms", "ms"),
    ("pks.provenance_ms", "ms"),
    ("source.prefix_ms", "ms"),
    ("source.tail_ms", "ms"),
    ("source.records", "count"),
    ("stream.bootstrap_ms", "ms"),
    ("ml.fit_sgd_ms", "ms"),
    ("ml.fit_gnb_ms", "ms"),
    ("ml.fit_mlp_ms", "ms"),
    ("stream.tail_ms", "ms"),
    ("stream.checkpoint_ms", "ms"),
    ("stream.checkpoint_bytes", "bytes"),
    ("stream.checkpoints", "count"),
    ("stream.classified", "count"),
    ("stream.drifts", "count"),
    ("stream.reclusters", "count"),
    ("stream.max_buffered", "count"),
    ("http.create_ms", "ms"),
    ("http.feed_ms", "ms"),
    ("http.feed_calls", "count"),
    ("http.feed_bytes", "bytes"),
    ("http.read_ms", "ms"),
    ("http.read_calls", "count"),
    ("session.drain_ms", "ms"),
    ("http.failed", "count"),
    ("http.parse_ns_per_request", "ns"),
    ("json.parse_ns_per_record", "ns"),
    ("engine.ns_per_record", "ns"),
    ("service.ns_per_record", "ns"),
    ("sim_cycles_per_s", "1/s"),
    ("pka_error_pct", "%"),
    ("call_p50_ms", "ms"),
    ("call_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload simulate|serve|all --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

/// Orders `report`'s metrics as `wanted` lists them, filling any the
/// workload did not measure with 0 and dropping any not listed.
fn select_metrics(report: &mut Report, wanted: &[(&str, &'static str)]) {
    let measured = std::mem::take(&mut report.metrics);
    for &(name, unit) in wanted {
        let value = measured
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        report.push(name, unit, value);
    }
}

fn run_one(args: &Args) -> Report {
    let mut report = Report::default();
    let mut trace = Trace::default();
    let (seed, r) = (args.seed, &mut report);
    let digest = match (args.workload.as_str(), args.trace) {
        ("simulate", false) => simulate::run(seed, r),
        ("simulate", true) => simulate::run_traced(seed, &mut trace, r),
        (_, false) => serve::run(seed, r),
        (_, true) => serve::run_traced(seed, &mut trace, r),
    };
    report.lines.insert(
        0,
        format!(
            "workload={} seed={} seconds={} trace={} input_digest={digest:016x}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
        ),
    );
    if !report.metrics.iter().any(|m| m.name == "peak_rss_mb") {
        report.push("peak_rss_mb", "MB", peak_rss_mb());
    }
    for m in &report.metrics {
        report
            .lines
            .push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    select_metrics(&mut report, if args.trace { PER_LAYER } else { END_TO_END });
    report
}

/// Runs every workload in a fresh process of its own and prints each one's
/// output; the last line totals the operations and prefixes each metric
/// with its workload.
fn run_all(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut total = Report::default();
    let mut correct = true;
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let result: serde_json::Value = serde_json::from_str(last)
            .map_err(|e| format!("{workload} printed no result ({e}): {last}"))?;
        correct &= result["correct"].as_bool() == Some(true);
        total.attempted += result["attempted"].as_u64().unwrap_or(0);
        total.failed += result["failed"].as_u64().unwrap_or(0);
        for (name, m) in result["metrics"].as_object().into_iter().flatten() {
            let unit = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| n == name)
                .map_or("count", |(_, u)| u);
            total.push(
                format!("{workload}.{name}"),
                unit,
                m["value"].as_f64().unwrap_or(f64::NAN),
            );
        }
    }
    if !correct && total.failed == 0 {
        total.failed = 1;
    }
    Ok(total)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.workload == "all" {
        match run_all(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_one(&args)
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{valid_name, valid_unit};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "serve".into(),
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "stream"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "serve", "--seed", "-1"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn metric_lists_are_valid_unique_and_match_benchmark_json() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "metric names must be unique");

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            let emitted: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, emitted, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn unmeasured_layers_report_zero_in_list_order() {
        let mut r = Report::default();
        r.push("kernels_per_cpu_s", "1/s", 5.0);
        r.push("not_listed", "ms", 1.0);
        select_metrics(&mut r, END_TO_END);
        let got: Vec<(&str, f64)> = r
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value))
            .collect();
        assert_eq!(
            got,
            vec![
                ("setup_s", 0.0),
                ("peak_rss_mb", 0.0),
                ("kernels_per_cpu_s", 5.0)
            ]
        );
    }
}
