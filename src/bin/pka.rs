//! The `pka` command-line tool: the automated workflow the paper's
//! artifact ships as shell scripts, as one binary.
//!
//! ```text
//! pka list [--suite NAME]
//! pka info --workload NAME
//! pka select --workload NAME [--target-error PCT] [--out FILE.json]
//! pka simulate --workload NAME [--gpu v100|rtx2060|rtx3070|v100-half]
//!              [--threshold S] [--selection FILE.json] [--full]
//! pka stream --source <FILE.jsonl|-|synthetic:N|WORKLOAD> [--prefix J]
//!            [--checkpoint-every N] [--checkpoint FILE.json] [--resume]
//!            [--verify-batch]
//! pka trace export TRACE.jsonl [--out FILE.json]
//! pka obs explain ATTRIBUTION.json
//! pka obs diff BASELINE.json CURRENT.json [--counters-only]
//! ```
//!
//! `select` profiles (one- or two-level automatically), runs Principal
//! Kernel Selection, prints the groups with clustering diagnostics, and
//! can persist the selection — the artifact's per-workload "groups,
//! principal kernels and weights" record. `simulate` runs the sampled
//! simulation (optionally against a saved selection, optionally next to a
//! full-simulation baseline).

use std::collections::HashMap;
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use principal_kernel_analysis::core::{Pka, PkaConfig, PkpConfig, PksConfig, Selection};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::ml::{silhouette_score, Matrix};
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::sim::cost::{format_duration, projected_sim_seconds};
use principal_kernel_analysis::workloads::{all_workloads, Workload};

/// Report output goes through [`out!`]/[`outln!`] to [`write_stdout`], never
/// `print!`, which panics when the reader of a pipe has gone away.
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

macro_rules! outln {
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

/// Whether stdout still takes report output: open, closed by its reader
/// (`pka ... | head`), or failed with another error (already reported).
static STDOUT_STATE: AtomicU8 = AtomicU8::new(STDOUT_OPEN);
const STDOUT_OPEN: u8 = 0;
const STDOUT_CLOSED: u8 = 1;
const STDOUT_FAILED: u8 = 2;

/// The one writer of report output. Once the reader of stdout is gone,
/// the rest of the report is dropped quietly, and the command still
/// finishes its work (files it writes, the exit status a gate reports).
/// Any other write error is reported once and fails the command.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if STDOUT_STATE.load(Ordering::Relaxed) != STDOUT_OPEN {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            STDOUT_STATE.store(STDOUT_CLOSED, Ordering::Relaxed);
        } else {
            STDOUT_STATE.store(STDOUT_FAILED, Ordering::Relaxed);
            eprintln!("error: writing stdout: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (flags, positional) = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(accepted) = command_flags(command) {
        let mut unknown: Vec<&String> = flags
            .keys()
            .filter(|k| !COMMON_FLAGS.contains(&k.as_str()) && !accepted.contains(&k.as_str()))
            .collect();
        unknown.sort();
        if let Some(flag) = unknown.first() {
            eprintln!("error: `{command}` does not accept --{flag}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    // Only the file-conversion subcommands take positional arguments.
    if !positional.is_empty() && !matches!(command.as_str(), "trace" | "obs") {
        eprintln!("error: unexpected argument `{}`\n{USAGE}", positional[0]);
        return ExitCode::from(2);
    }
    if let Err(e) = obs_setup(&flags) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let result = match command.as_str() {
        "list" => cmd_list(&flags),
        "info" => cmd_info(&flags),
        "select" => cmd_select(&flags),
        "simulate" => cmd_simulate(&flags),
        "stream" => cmd_stream(&flags),
        "serve" => cmd_serve(&flags),
        "trace" => cmd_trace(&flags, &positional),
        "obs" => cmd_obs(&flags, &positional),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    if result.is_ok() {
        if let Err(e) = obs_finish(command, &flags) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(()) if STDOUT_STATE.load(Ordering::Relaxed) != STDOUT_FAILED => ExitCode::SUCCESS,
        Ok(()) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Output checksums registered by commands for the run manifest, keyed by
/// artifact name: FNV-1a over the artifact's canonical serialized form.
static CHECKSUMS: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

fn record_checksum(name: &str, payload: &str) {
    if principal_kernel_analysis::obs::enabled() {
        let digest = principal_kernel_analysis::stats::hash::fnv1a(payload.as_bytes());
        CHECKSUMS.lock().unwrap().push((name.to_string(), digest));
    }
}

/// Structured command output registered for the run manifest's `report`
/// section (the per-representative PKP table, the stream summary).
static REPORT: Mutex<Option<serde_json::Value>> = Mutex::new(None);

fn record_report(value: serde_json::Value) {
    if principal_kernel_analysis::obs::enabled() {
        *REPORT.lock().unwrap() = Some(value);
    }
}

/// Snapshot cadence (stream records between `pka.snapshot/v1` records)
/// when `--snapshot-out`/`--progress` are given without `--snapshot-every`.
const DEFAULT_SNAPSHOT_EVERY: u64 = 100_000;

/// Enables collection when any observability flag is present and attaches
/// the JSONL sinks for `--trace-out` and `--snapshot-out`.
fn obs_setup(flags: &HashMap<String, String>) -> Result<(), String> {
    use principal_kernel_analysis::obs;
    let wants_obs = flags.contains_key("trace-out")
        || flags.contains_key("metrics-out")
        || flags.contains_key("verbose")
        || flags.contains_key("snapshot-out")
        || flags.contains_key("progress");
    if !wants_obs {
        return Ok(());
    }
    obs::enable();
    if let Some(path) = flags.get("trace-out") {
        obs::trace_to(std::path::Path::new(path))
            .map_err(|e| format!("open trace sink {path}: {e}"))?;
    }
    let every = int_flag(flags, "snapshot-every")?.unwrap_or(DEFAULT_SNAPSHOT_EVERY);
    if let Some(path) = flags.get("snapshot-out") {
        obs::snapshot_to(std::path::Path::new(path), every)
            .map_err(|e| format!("open snapshot sink {path}: {e}"))?;
    }
    if flags.contains_key("progress") {
        obs::progress_ticker(every);
    }
    Ok(())
}

/// Writes the `--metrics-out` manifest, prints the `-v` stage summary, and
/// closes the trace sink.
fn obs_finish(command: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    use principal_kernel_analysis::obs;
    if !obs::enabled() {
        return Ok(());
    }
    if let Some(path) = flags.get("metrics-out") {
        let mut sorted_flags: Vec<(&String, &String)> = flags.iter().collect();
        sorted_flags.sort();
        let flag_map: serde_json::Map = sorted_flags
            .into_iter()
            .map(|(k, v)| (k.clone(), serde_json::Value::String(v.clone())))
            .collect();
        let config = serde_json::json!({
            "binary": "pka",
            "command": command,
            "flags": serde_json::Value::Object(flag_map),
        });
        // The binary exposes no seed flags; these are the workspace
        // defaults every run uses (per-K streams derive as `seed ^ k`).
        let seeds = serde_json::json!({ "pks": 0u64, "classifier": 0u64 });
        let checksums: serde_json::Map = CHECKSUMS
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
            .collect();
        let write_result = match REPORT.lock().unwrap().take() {
            Some(report) => obs::write_manifest_with_report(
                std::path::Path::new(path),
                config,
                seeds,
                serde_json::Value::Object(checksums),
                report,
            ),
            None => obs::write_manifest(
                std::path::Path::new(path),
                config,
                seeds,
                serde_json::Value::Object(checksums),
            ),
        };
        write_result.map_err(|e| format!("write manifest {path}: {e}"))?;
    }
    if flags.contains_key("verbose") {
        for line in obs::snapshot().summary_lines() {
            eprintln!("[obs] {line}");
        }
    }
    obs::close_trace().map_err(|e| format!("close trace sink: {e}"))?;
    obs::close_snapshots().map_err(|e| format!("close snapshot sink: {e}"))?;
    Ok(())
}

const USAGE: &str = "usage:
  pka list [--suite NAME]
  pka info --workload NAME
  pka select --workload NAME [--target-error PCT] [--out FILE.json]
             [--attribution-out FILE.json] [--workers N]
             [observability flags]
  pka simulate --workload NAME [--gpu v100|rtx2060|rtx3070|v100-half]
               [--threshold S] [--selection FILE.json] [--full]
               [--attribution-out FILE.json] [--workers N]
               [observability flags]
  pka stream --source <FILE.jsonl|-|synthetic:N|WORKLOAD>
             [--prefix J] [--checkpoint-every N] [--checkpoint FILE.json]
             [--resume] [--reservoir N] [--batch N] [--verify-batch]
             [--attribution-out FILE.json]
             [--gpu ...] [--workers N] [observability flags]
  pka serve [--addr HOST:PORT] [--http-threads N] [--workers N]
            [--max-sessions N] [--retain N] [--feed-capacity N]
            [--read-timeout-ms MS] [observability flags]
  pka trace export TRACE.jsonl [--out FILE.json]
  pka obs scrape URL [--out FILE.json]
  pka obs explain ATTRIBUTION.json
  pka obs diff BASELINE.json CURRENT.json [--counters-only]
              [--counter-tol PCT] [--gauge-tol PCT] [--stage-tol PCT]
              [--bench [--bench-tol PCT]] [--error-tol PCT]

`stream` runs the bounded-memory online PKS pipeline: the first J kernels
are profiled in detail and clustered exactly like the batch pipeline, then
the tail streams through classification, mini-batch centroid updates,
drift detection and reservoir sampling in O(K*d + reservoir + batch)
memory. Tail records are labelled through an exact memo in front of the
classifier ensemble (the batch two-level pipeline's classifier), so
template-heavy streams pay for each distinct launch shape about once.
`--checkpoint FILE` persists every periodic checkpoint (and the
final state) as resumable `pka.stream_checkpoint/v1` JSON; `--resume`
restarts from that file instead of the beginning, adopting the
checkpoint's embedded configuration (explicit flags still override, but a
true mismatch is refused). `--verify-batch` re-runs
the batch two-level pipeline on the same workload-backed source and fails
unless the selected K matches exactly and projected cycles agree within
1%. Checkpoints of the removed sharded engine (a `topology` section) are
refused on `--resume`.

`--workers N` fans profiling, clustering and per-representative simulation
out over N threads (0 = one per hardware thread). Results are bitwise
identical for any worker count.

`--attribution-out FILE` (on select, simulate and stream) writes a
`pka.attribution/v1` artifact: per PKS group, its representative's
provenance (kernel id, launch rank, distance to the group mean, weight)
and its signed contribution to the reported projection error — split into
a PKS group-scaling term and a PKP stop-rule term for simulation runs.
The per-group terms sum exactly to the reported error and the artifact is
byte-identical for any `--workers` count. `obs explain`
renders it as a ranked table (worst group first, with bootstrap CIs and
PKP skip ratios) and flags any group past 50% of the total error; feeding
two attribution artifacts to `obs diff` gates on representative swaps and
on error drift past `--error-tol` percentage points (default 0.5).

`serve` hosts the whole methodology as a long-running HTTP/1.1 service
(hand-rolled on std::net, zero external dependencies): POST /v1/sessions
creates batch (select/simulate) or streaming analysis sessions, records
can be fed incrementally as `pka.kernel_record/v1` JSONL via
POST /v1/sessions/{id}/records, GET .../progress serves live
pka.snapshot/v1 lines, GET .../checkpoint and .../attribution serve the
byte-exact artifacts the CLI writes, and DELETE .../{id} is
cancellation-safe teardown: the pipeline stops at the next batch boundary,
emits one resumable teardown checkpoint, and drains its workers before any
state is dropped. Every session shares one process-wide executor
(`--workers`); `--max-sessions` caps concurrently running sessions and
`--retain` bounds how many completed sessions stay inspectable. The
service stops on POST /v1/shutdown.

The service is observable while it runs: GET /metrics serves every
registered counter, gauge, histogram and stage timer in Prometheus text
exposition 0.0.4, GET /v1/sessions/{id}/events streams each new progress
record as server-sent events (terminated by an `event: end` frame when
the session finishes or is deleted), every request is logged to stderr as
one JSON access line carrying a request id that also appears in a
`server.request` trace event (`--trace-out`), and connections that stall
mid-request are dropped with 408 after `--read-timeout-ms` (default
30000). `obs scrape URL` fetches a /metrics endpoint (bare host:port
defaults to the /metrics path) and rewrites it as a
`pka.run_manifest/v1` metrics document, so a live service can be gated
with the same `obs diff` gate as offline runs.

`trace export` converts a `--trace-out` JSONL file into Chrome
trace-event JSON that opens directly in Perfetto (ui.perfetto.dev) or
chrome://tracing, one lane per executor worker. `obs diff` compares two
`--metrics-out` manifests (counter deltas, gauge drift, stage-timing
ratios, checksum changes) — or, with `--bench`, two bench-medians files —
and exits non-zero when any delta exceeds its threshold; `--counters-only`
skips the machine-dependent stage/wall sections for cross-host CI gating.

observability flags (any of them turns collection on; results are
unchanged — observability output is excluded from parity):
  --trace-out PATH    append span/event records to PATH as JSONL
  --metrics-out PATH  write a run_manifest.json (config, seeds, stage
                      timings, counter totals, output checksums)
  --snapshot-out PATH write periodic pka.snapshot/v1 live-status records
                      (throughput, phase, group sizes, reservoir, drift /
                      recluster / checkpoint activity) to PATH as JSONL
  --snapshot-every N  snapshot cadence in stream records (default 100000)
  --progress          mirror snapshots as a stderr ticker
  -v, --verbose       print a per-stage time/counter summary to stderr";

/// Parses the `--workers` flag: absent -> sequential.
fn workers_from(flags: &HashMap<String, String>) -> Result<usize, String> {
    match flags.get("workers") {
        None => Ok(1),
        Some(v) => v
            .parse()
            .map_err(|_| "--workers must be a non-negative integer".to_string()),
    }
}

/// Flags every command accepts: the observability flags.
const COMMON_FLAGS: &[&str] = &[
    "trace-out",
    "metrics-out",
    "snapshot-out",
    "snapshot-every",
    "progress",
    "verbose",
];

/// The flags `command` accepts on top of [`COMMON_FLAGS`] (`None` for an
/// unknown command). Anything else is a usage error rather than silently
/// ignored, so a misspelt or retired flag cannot change what a script runs.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "list" => &["suite"],
        "info" => &["workload"],
        "select" => &["workload", "target-error", "out", "attribution-out", "workers"],
        "simulate" => &[
            "workload",
            "gpu",
            "threshold",
            "selection",
            "full",
            "attribution-out",
            "workers",
        ],
        "stream" => &[
            "source",
            "prefix",
            "checkpoint-every",
            "checkpoint",
            "resume",
            "reservoir",
            "batch",
            "verify-batch",
            "attribution-out",
            "gpu",
            "workers",
        ],
        "serve" => &[
            "addr",
            "http-threads",
            "workers",
            "max-sessions",
            "retain",
            "feed-capacity",
            "read-timeout-ms",
        ],
        "trace" => &["out"],
        "obs" => &[
            "out",
            "counters-only",
            "counter-tol",
            "gauge-tol",
            "stage-tol",
            "bench",
            "bench-tol",
            "error-tol",
        ],
        _ => return None,
    })
}

fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    const BOOLEAN: &[&str] = &[
        "full",
        "resume",
        "verify-batch",
        "progress",
        "counters-only",
        "bench",
    ];
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "-v" || arg == "--verbose" {
            flags.insert("verbose".to_string(), "true".to_string());
            continue;
        }
        let Some(name) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        if BOOLEAN.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok((flags, positional))
}

fn find_workload(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let name = flags
        .get("workload")
        .ok_or("--workload NAME is required")?;
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}` (see `pka list`)"))
}

fn gpu_from(flags: &HashMap<String, String>) -> Result<GpuConfig, String> {
    match flags.get("gpu").map(String::as_str).unwrap_or("v100") {
        "v100" => Ok(GpuConfig::v100()),
        "rtx2060" => Ok(GpuConfig::rtx2060()),
        "rtx3070" => Ok(GpuConfig::rtx3070()),
        "v100-half" => Ok(GpuConfig::v100_half_sms()),
        other => Err(format!("unknown gpu `{other}`")),
    }
}

fn cmd_list(flags: &HashMap<String, String>) -> Result<(), String> {
    let filter = flags.get("suite").map(|s| s.to_lowercase());
    outln!("{:<33} {:<10} {:>10}", "workload", "suite", "kernels");
    for w in all_workloads() {
        let suite = w.suite().to_string();
        if let Some(f) = &filter {
            if !suite.to_lowercase().contains(f) {
                continue;
            }
        }
        outln!("{:<33} {:<10} {:>10}", w.name(), suite, w.kernel_count());
    }
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    let w = find_workload(flags)?;
    let profiler = Profiler::new(GpuConfig::v100());
    let cost = profiler.profiling_cost(&w);
    let silicon = profiler.silicon_run(&w).map_err(|e| e.to_string())?;
    outln!("workload:            {}", w.name());
    outln!("suite:               {}", w.suite());
    outln!("kernel launches:     {}", w.kernel_count());
    outln!(
        "iteration structure: {}",
        w.iteration_hint()
            .map_or("none".to_string(), |p| format!("{p} kernels/iteration"))
    );
    outln!(
        "silicon runtime:     {} ({} cycles)",
        format_duration(silicon.total_seconds),
        silicon.total_cycles
    );
    outln!(
        "full simulation:     {} (projected)",
        format_duration(projected_sim_seconds(silicon.total_cycles))
    );
    outln!(
        "detailed profiling:  {}{}",
        format_duration(cost.detailed_seconds()),
        if cost.detailed_is_intractable() {
            " -> intractable, two-level profiling will be used"
        } else {
            ""
        }
    );
    Ok(())
}

/// Writes the `pka.attribution/v1` artifact for `--attribution-out` (pretty
/// JSON with a trailing newline, so the bytes are shell/jq friendly) and
/// registers its checksum when observability is on. No-op without the flag.
fn write_attribution(
    flags: &HashMap<String, String>,
    attribution: Option<&principal_kernel_analysis::core::ErrorAttribution>,
) -> Result<(), String> {
    let Some(path) = flags.get("attribution-out") else {
        return Ok(());
    };
    let attribution =
        attribution.expect("attribution is computed whenever --attribution-out is present");
    let mut payload = serde_json::to_string_pretty(attribution)
        .map_err(|e| format!("serialise attribution: {e}"))?;
    payload.push('\n');
    std::fs::write(path, &payload).map_err(|e| format!("write {path}: {e}"))?;
    record_checksum("attribution", &payload);
    outln!("attribution written to {path}");
    Ok(())
}

fn cmd_select(flags: &HashMap<String, String>) -> Result<(), String> {
    let w = find_workload(flags)?;
    let target: f64 = flags
        .get("target-error")
        .map(|v| v.parse().map_err(|_| "--target-error must be a number"))
        .transpose()?
        .unwrap_or(5.0);
    let config = PkaConfig::default()
        .with_pks(PksConfig::default().with_target_error_pct(target))
        .with_workers(workers_from(flags)?);
    let pka = Pka::new(GpuConfig::v100(), config);
    // `--attribution-out` switches to the attribution-carrying entry point;
    // the selection itself is identical either way.
    let (selection, attribution) = if flags.contains_key("attribution-out") {
        let (selection, attribution) = pka
            .select_kernels_with_attribution(&w)
            .map_err(|e| e.to_string())?;
        (selection, Some(attribution))
    } else {
        (pka.select_kernels(&w).map_err(|e| e.to_string())?, None)
    };

    outln!(
        "{}: {} launches -> {} principal kernels (target error {target}%)",
        w.name(),
        w.kernel_count(),
        selection.k()
    );
    outln!(
        "projection error {:.2}%, member dispersion {:.2}%",
        selection.error_pct(),
        selection.group_deviation_pct()
    );
    // Clustering diagnostics over the profiled prefix.
    if selection.k() >= 2 {
        let prefix = selection.labels().len().min(2_000);
        let rows: Vec<Vec<f64>> = (0..prefix)
            .map(|i| {
                principal_kernel_analysis::gpu::KernelMetrics::from_descriptor(
                    &w.kernel((i as u64).into()),
                    GpuConfig::v100().generation(),
                )
                .to_feature_vector()
            })
            .collect();
        if let Ok(data) = Matrix::from_rows(&rows) {
            if let Ok(score) = silhouette_score(&data, &selection.labels()[..prefix]) {
                outln!("silhouette (first {prefix} kernels): {score:.3}");
            }
        }
    }
    for (i, group) in selection.groups().iter().enumerate() {
        let rep = w.kernel(group.representative());
        outln!(
            "  group {i:>2}: kernel {:>8} `{}` x {}",
            group.representative(),
            rep.name(),
            group.count()
        );
    }
    if principal_kernel_analysis::obs::enabled() {
        let canonical = serde_json::to_string(&serde_json::json!({
            "workload": w.name(),
            "selection": selection,
        }))
        .map_err(|e| format!("serialise selection: {e}"))?;
        record_checksum("selection", &canonical);
        let record = principal_kernel_analysis::obs::SnapshotRecord {
            phase: "select".to_string(),
            records: w.kernel_count(),
            selected_k: selection.k() as i64,
            group_counts: selection.groups().iter().map(|g| g.count()).collect(),
            ..Default::default()
        };
        principal_kernel_analysis::obs::emit_snapshot(&record, serde_json::json!({}));
    }
    if let Some(path) = flags.get("out") {
        // The file records which workload it was made for so a later
        // `simulate --selection` cannot silently apply it elsewhere.
        let payload = serde_json::to_string_pretty(&serde_json::json!({
            "workload": w.name(),
            "selection": selection,
        }))
        .map_err(|e| format!("serialise selection: {e}"))?;
        std::fs::write(path, payload).map_err(|e| format!("write {path}: {e}"))?;
        outln!("selection written to {path}");
    }
    write_attribution(flags, attribution.as_ref())?;
    Ok(())
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let w = find_workload(flags)?;
    let gpu = gpu_from(flags)?;
    let threshold: f64 = flags
        .get("threshold")
        .map(|v| v.parse().map_err(|_| "--threshold must be a number"))
        .transpose()?
        .unwrap_or(0.25);
    let run_full = flags.contains_key("full");
    let config = PkaConfig::default()
        .with_pkp(PkpConfig::default().with_threshold(threshold))
        .with_workers(workers_from(flags)?);
    let pka = Pka::new(gpu, config);

    // An externally supplied selection (e.g. made on Volta) overrides
    // re-selection — the cross-generation workflow.
    if let Some(path) = flags.get("selection") {
        if flags.contains_key("attribution-out") {
            return Err(
                "--attribution-out needs the selection made in-run; it cannot \
                 attribute a transferred --selection (re-run without --selection)"
                    .to_string(),
            );
        }
        let payload =
            std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let envelope: serde_json::Value =
            serde_json::from_str(&payload).map_err(|e| format!("parse {path}: {e}"))?;
        let made_for = envelope["workload"]
            .as_str()
            .ok_or_else(|| format!("{path} is not a selection file (missing `workload`)"))?;
        if made_for != w.name() {
            return Err(format!(
                "{path} was made for `{made_for}`, not `{}`; re-run `pka select`",
                w.name()
            ));
        }
        let selection: Selection = serde_json::from_value(envelope["selection"].clone())
            .map_err(|e| format!("parse {path}: {e}"))?;
        let silicon = pka.profiler().silicon_run(&w).map_err(|e| e.to_string())?;
        let report = pka
            .silicon_report_for(&w, &selection, &silicon)
            .map_err(|e| e.to_string())?;
        outln!(
            "{} on {} (transferred selection): error {:.2}%, speedup {:.1}x",
            report.workload, report.gpu, report.error_pct, report.speedup
        );
        return Ok(());
    }

    let (report, attribution) = if flags.contains_key("attribution-out") {
        let (report, attribution) = pka
            .evaluate_with_attribution(&w, run_full)
            .map_err(|e| e.to_string())?;
        (report, Some(attribution))
    } else {
        let report = pka
            .evaluate_in_simulation(&w, run_full)
            .map_err(|e| e.to_string())?;
        (report, None)
    };
    outln!("workload: {} on {}", report.workload, pka.gpu().name());
    outln!("silicon:  {:>16} cycles", report.silicon_cycles);
    if let (Some(cycles), Some(err)) = (report.fullsim_cycles, report.sim_error_pct) {
        outln!("full sim: {cycles:>16} cycles ({err:.1}% vs silicon)");
    }
    outln!(
        "PKS:      {:>16} cycles ({:.1}% vs silicon, {} of simulation)",
        report.pks_projected_cycles,
        report.pks_error_pct,
        format_duration(report.pks_hours * 3600.0)
    );
    outln!(
        "PKA:      {:>16} cycles ({:.1}% vs silicon, {} of simulation, s = {threshold})",
        report.pka_projected_cycles,
        report.pka_error_pct,
        format_duration(report.pka_hours * 3600.0)
    );
    outln!(
        "speedup:  PKS {:.1}x, PKA {:.1}x",
        report.pks_speedup(),
        report.pka_speedup()
    );
    if !report.per_representative.is_empty() {
        outln!("per-representative PKP accounting (simulated / projected):");
        outln!(
            "  {:>10} {:>16} {:>16} {:>7}",
            "kernel", "simulated", "projected", "sim%"
        );
        for rp in &report.per_representative {
            outln!(
                "  {:>10} {:>16} {:>16} {:>6.1}%",
                rp.kernel_id,
                rp.simulated_cycles,
                rp.projected_cycles,
                rp.skip_ratio() * 100.0
            );
        }
    }
    if principal_kernel_analysis::obs::enabled() {
        let canonical = format!(
            "{}:{}:{}:{}",
            report.silicon_cycles,
            report.fullsim_cycles.unwrap_or(0),
            report.pks_projected_cycles,
            report.pka_projected_cycles
        );
        record_checksum("simulation_report", &canonical);
        let per_rep: Vec<serde_json::Value> = report
            .per_representative
            .iter()
            .map(|rp| {
                serde_json::json!({
                    "kernel_id": format!("{}", rp.kernel_id),
                    "simulated_cycles": rp.simulated_cycles,
                    "projected_cycles": rp.projected_cycles,
                    "skip_ratio": rp.skip_ratio(),
                })
            })
            .collect();
        record_report(serde_json::json!({
            "command": "simulate",
            "workload": report.workload.clone(),
            "silicon_cycles": report.silicon_cycles,
            "pks_projected_cycles": report.pks_projected_cycles,
            "pka_projected_cycles": report.pka_projected_cycles,
            "per_representative": serde_json::Value::Array(per_rep),
        }));
        let snapshot = principal_kernel_analysis::obs::SnapshotRecord {
            phase: "simulate".to_string(),
            records: w.kernel_count(),
            selected_k: report.per_representative.len() as i64,
            ..Default::default()
        };
        principal_kernel_analysis::obs::emit_snapshot(&snapshot, serde_json::json!({}));
    }
    write_attribution(flags, attribution.as_ref())?;
    Ok(())
}

/// Parses a positive-integer flag, leaving `config` untouched when absent.
fn int_flag(flags: &HashMap<String, String>, name: &str) -> Result<Option<u64>, String> {
    flags
        .get(name)
        .map(|v| {
            v.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--{name} must be a positive integer"))
        })
        .transpose()
}

fn cmd_stream(flags: &HashMap<String, String>) -> Result<(), String> {
    use principal_kernel_analysis::core::{Executor, TwoLevel, TwoLevelConfig};
    use principal_kernel_analysis::stream::{
        synthetic_workload, Checkpoint, JsonlSource, KernelSource, StreamConfig, StreamError,
        StreamPks, WorkloadSource,
    };

    let gpu = gpu_from(flags)?;
    let spec = flags
        .get("source")
        .ok_or("--source <FILE.jsonl|-|synthetic:N|WORKLOAD> is required")?;

    // A resume adopts the checkpoint's embedded config echo, so the original
    // run's parameters need not be re-specified; explicit flags still apply
    // on top (and the resume path refuses any true mismatch).
    let resume_cp = if flags.contains_key("resume") {
        let p = flags
            .get("checkpoint")
            .ok_or("--resume requires --checkpoint FILE.json")?;
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        let v: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("parse {p}: {e}"))?;
        Some(Checkpoint::from_value(&v).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut config = match &resume_cp {
        Some(cp) => StreamConfig::from_value(&cp.config).map_err(|e| e.to_string())?,
        None => StreamConfig::default(),
    };
    if let Some(j) = int_flag(flags, "prefix")? {
        config = config.with_prefix(j);
    }
    if let Some(n) = int_flag(flags, "checkpoint-every")? {
        config = config.with_checkpoint_every(n);
    }
    if let Some(n) = int_flag(flags, "reservoir")? {
        config = config.with_reservoir(n as usize);
    }
    if let Some(n) = int_flag(flags, "batch")? {
        config = config.with_batch(n as usize);
    }
    let exec = Executor::new(workers_from(flags)?);

    // A workload-backed source keeps the workload around so `--verify-batch`
    // can run the batch two-level pipeline over the same kernels.
    let (mut source, workload): (Box<dyn KernelSource>, Option<Workload>) =
        if let Some(n) = spec.strip_prefix("synthetic:") {
            let n: u64 = n
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or("synthetic:N needs a positive integer N")?;
            let w = synthetic_workload(n);
            let src = WorkloadSource::new(w.clone(), Profiler::new(gpu.clone()));
            (Box::new(src), Some(w))
        } else if spec == "-" {
            (Box::new(JsonlSource::stdin()), None)
        } else if std::path::Path::new(spec).is_file() {
            let src = JsonlSource::open(std::path::Path::new(spec)).map_err(|e| e.to_string())?;
            (Box::new(src), None)
        } else if let Some(w) = all_workloads().into_iter().find(|w| w.name() == spec) {
            let src = WorkloadSource::new(w.clone(), Profiler::new(gpu.clone()));
            (Box::new(src), Some(w))
        } else {
            return Err(format!(
                "--source `{spec}` is neither a file, `-`, `synthetic:N`, nor a workload name"
            ));
        };

    let ckpt_path = flags.get("checkpoint").map(std::path::PathBuf::from);

    let stream = StreamPks::new(config).with_executor(exec);
    let on_checkpoint = |cp: &Checkpoint| -> Result<(), StreamError> {
        match &ckpt_path {
            Some(p) => cp.write_to(p),
            None => Ok(()),
        }
    };
    let outcome = match &resume_cp {
        Some(cp) => stream.resume(&mut *source, cp, on_checkpoint),
        None => stream.run(&mut *source, on_checkpoint),
    }
    .map_err(|e| e.to_string())?;
    if let Some(p) = &ckpt_path {
        outcome
            .final_checkpoint
            .write_to(p)
            .map_err(|e| e.to_string())?;
    }
    let report = &outcome.report;
    let selection = &outcome.selection;
    outln!("stream:   {spec}");
    outln!(
        "records:  {} ({} profiled in detail, {} classified)",
        report.records,
        report.prefix,
        report.records - report.prefix
    );
    outln!("PKS:      K = {} groups", report.selected_k);
    outln!("projected: {:>15} cycles", report.projected_cycles);
    outln!(
        "tail:     {} drift firings, {} re-clusters, {} checkpoints, max {} records buffered",
        report.drifts, report.reclusters, report.checkpoints, report.max_buffered
    );
    for (i, (group, &count)) in selection
        .groups()
        .iter()
        .zip(&report.group_counts)
        .enumerate()
    {
        outln!(
            "  group {i:>2}: kernel {:>8} x {count}",
            group.representative()
        );
    }
    if let Some(p) = &ckpt_path {
        outln!("checkpoint written to {}", p.display());
    }
    write_attribution(flags, Some(&outcome.attribution))?;

    if flags.contains_key("verify-batch") {
        let w = workload.as_ref().ok_or(
            "--verify-batch needs a workload-backed --source (synthetic:N or a workload name)",
        )?;
        let two = TwoLevel::new(
            TwoLevelConfig::default()
                .with_pks(config.pks())
                .with_detailed_prefix_cap(config.prefix()),
        )
        .with_executor(exec);
        let batch = two
            .analyze(w, &Profiler::new(gpu.clone()))
            .map_err(|e| e.to_string())?;
        let batch_projected = batch.projected_cycles();
        let rel_pct = 100.0 * (batch_projected as f64 - report.projected_cycles as f64).abs()
            / batch_projected.max(1) as f64;
        outln!(
            "batch parity: K {} vs {} (stream), projected {} vs {} ({rel_pct:.4}% apart)",
            batch.k(),
            report.selected_k,
            batch_projected,
            report.projected_cycles
        );
        if batch.k() != report.selected_k {
            return Err(format!(
                "stream selected K={}, batch pipeline selected K={}",
                report.selected_k,
                batch.k()
            ));
        }
        if rel_pct > 1.0 {
            return Err(format!(
                "stream projected cycles diverge from batch by {rel_pct:.4}% (> 1%)"
            ));
        }
    }

    if principal_kernel_analysis::obs::enabled() {
        record_checksum("stream_checkpoint", &outcome.final_checkpoint.to_json());
        let mut value = report.to_value();
        if let serde_json::Value::Object(m) = &mut value {
            m.insert(
                "command".to_string(),
                serde_json::Value::String("stream".to_string()),
            );
            m.insert(
                "source".to_string(),
                serde_json::Value::String(spec.clone()),
            );
        }
        record_report(value);
    }
    Ok(())
}

/// `pka serve`: host the analysis pipelines as a long-running HTTP
/// service. Blocks until `POST /v1/shutdown`, then tears every session
/// down (cancel at the next batch boundary, drain workers) and returns.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use principal_kernel_analysis::server::{PkaServer, ServerConfig};

    let mut config = ServerConfig::default()
        .with_addr(
            flags
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:8077".to_string()),
        )
        .with_workers(workers_from(flags)?);
    if let Some(n) = int_flag(flags, "http-threads")? {
        config = config.with_http_threads(n as usize);
    }
    if let Some(n) = int_flag(flags, "max-sessions")? {
        config = config.with_max_active_sessions(n as usize);
    }
    if let Some(n) = int_flag(flags, "retain")? {
        config = config.with_retain_completed(n as usize);
    }
    if let Some(n) = int_flag(flags, "feed-capacity")? {
        config = config.with_feed_capacity(n as usize);
    }
    if let Some(ms) = int_flag(flags, "read-timeout-ms")? {
        config = config.with_read_timeout_ms(ms);
    }
    // The service always collects: `GET /metrics`, the access log and the
    // `server.*` metrics must reflect live traffic without requiring an
    // observability flag. Collection is proven result-neutral (the parity
    // suites run with it on), so there is no reason to serve blind.
    principal_kernel_analysis::obs::enable();
    let server = PkaServer::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().map_err(|e| format!("local addr: {e}"))?;
    // Flushed eagerly: supervisors (and the CI smoke test) scrape this
    // line from a redirected log while the process is still running.
    outln!("pka-server listening on http://{addr}");
    use std::io::Write as _;
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flush stdout: {e}"))?;
    server.run().map_err(|e| format!("serve: {e}"))?;
    outln!("pka-server stopped");
    Ok(())
}

/// `pka trace export TRACE.jsonl [--out FILE.json]`: convert a
/// `pka.trace/v1` JSONL file into Chrome trace-event JSON that loads
/// directly in Perfetto / `about:tracing`.
fn cmd_trace(flags: &HashMap<String, String>, positional: &[String]) -> Result<(), String> {
    match positional.first().map(String::as_str) {
        Some("export") => {}
        Some(other) => return Err(format!("unknown trace subcommand `{other}`\n{USAGE}")),
        None => return Err(format!("trace needs a subcommand (export)\n{USAGE}")),
    }
    let input = positional
        .get(1)
        .ok_or("trace export needs an input TRACE.jsonl path")?;
    let jsonl =
        std::fs::read_to_string(input).map_err(|e| format!("read {input}: {e}"))?;
    let chrome = principal_kernel_analysis::obs::chrome_trace(&jsonl)
        .map_err(|e| format!("{input}: {e}"))?;
    let rendered = serde_json::to_string_pretty(&chrome)
        .map_err(|e| format!("serialise chrome trace: {e}"))?;
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("write {path}: {e}"))?;
            let events = chrome["traceEvents"].as_array().map_or(0, Vec::len);
            eprintln!("pka: wrote {events} trace events to {path}");
        }
        None => outln!("{rendered}"),
    }
    Ok(())
}

/// `pka obs diff BASE CURRENT [...]`: compare two run manifests, two bench
/// medians files (`--bench`) or two attribution artifacts and fail on
/// regressions past the thresholds — the CI regression gate. `obs explain`
/// renders one attribution artifact; `obs scrape` reads a live /metrics.
fn cmd_obs(flags: &HashMap<String, String>, positional: &[String]) -> Result<(), String> {
    use principal_kernel_analysis::core::{ErrorAttribution, ATTRIBUTION_SCHEMA};
    use principal_kernel_analysis::obs::{diff_bench, diff_manifests, DiffThresholds};
    let read = |path: &String| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let attribution = |path: &String, doc: serde_json::Value| -> Result<ErrorAttribution, String> {
        serde_json::from_value(doc).map_err(|e| format!("{path}: {e}"))
    };
    let pct_flag = |name: &str, default: f64| -> Result<f64, String> {
        flags
            .get(name)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| p.is_finite() && *p >= 0.0)
                    .ok_or_else(|| format!("--{name} must be a non-negative percentage"))
            })
            .transpose()
            .map(|p| p.unwrap_or(default))
    };
    match positional.first().map(String::as_str) {
        Some("diff") => {}
        Some("explain") => {
            let path = positional
                .get(1)
                .ok_or("obs explain needs an ATTRIBUTION.json path")?;
            for line in attribution(path, read(path)?)?.explain() {
                outln!("{line}");
            }
            return Ok(());
        }
        Some("scrape") => {
            let url = positional
                .get(1)
                .ok_or("obs scrape needs a URL (e.g. http://127.0.0.1:8077/metrics)")?;
            let text = http_get_text(url)?;
            let doc = principal_kernel_analysis::obs::parse_exposition(&text)
                .map_err(|e| format!("parse exposition from {url}: {e}"))?;
            let families = ["counters", "gauges", "histograms", "stages"]
                .iter()
                .map(|s| doc[*s].as_object().map_or(0, |m| m.len()))
                .sum::<usize>();
            let mut rendered = serde_json::to_string_pretty(&doc)
                .map_err(|e| format!("serialise scrape: {e}"))?;
            rendered.push('\n');
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &rendered)
                        .map_err(|e| format!("write {path}: {e}"))?;
                    eprintln!("pka: scraped {families} metric series into {path}");
                }
                None => out!("{rendered}"),
            }
            return Ok(());
        }
        Some(other) => return Err(format!("unknown obs subcommand `{other}`\n{USAGE}")),
        None => {
            return Err(format!(
                "obs needs a subcommand (diff, explain, scrape)\n{USAGE}"
            ))
        }
    }
    let (Some(base_path), Some(cur_path)) = (positional.get(1), positional.get(2)) else {
        return Err("obs diff needs BASELINE and CURRENT file paths".to_string());
    };
    let base = read(base_path)?;
    let current = read(cur_path)?;
    let defaults = DiffThresholds::default();
    // Attribution artifacts are sniffed by schema so the same `obs diff`
    // entry point gates accuracy drift next to the performance manifests.
    let report = if base["schema"].as_str() == Some(ATTRIBUTION_SCHEMA)
        || current["schema"].as_str() == Some(ATTRIBUTION_SCHEMA)
    {
        let tol = pct_flag("error-tol", 0.5)?;
        attribution(base_path, base)?.diff(&attribution(cur_path, current)?, tol)
    } else if flags.contains_key("bench") {
        diff_bench(&base, &current, pct_flag("bench-tol", defaults.stage_pct)?)?
    } else {
        let thresholds = DiffThresholds {
            counter_pct: pct_flag("counter-tol", defaults.counter_pct)?,
            gauge_pct: pct_flag("gauge-tol", defaults.gauge_pct)?,
            stage_pct: pct_flag("stage-tol", defaults.stage_pct)?,
        };
        diff_manifests(&base, &current, &thresholds, flags.contains_key("counters-only"))?
    };
    for line in report.lines() {
        outln!("{line}");
    }
    match report.regressions() {
        0 => Ok(()),
        n => Err(format!("{n} regression(s) past threshold")),
    }
}

/// One plain HTTP/1.1 GET over `std::net` (no external client, like the
/// server itself). A URL without a path defaults to `/metrics`.
fn http_get_text(url: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// URLs are supported, got `{url}`"))?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/metrics"),
    };
    if authority.is_empty() {
        return Err(format!("`{url}` has no host"));
    }
    let mut stream = std::net::TcpStream::connect(authority)
        .map_err(|e| format!("connect {authority}: {e}"))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send request to {authority}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read response from {authority}: {e}"))?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{url}: response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{url}: malformed HTTP response"))?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("GET {url}: HTTP {status}"));
    }
    Ok(body.to_string())
}
