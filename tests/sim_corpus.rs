//! Whole-corpus simulator identity gate: the first kernels of every
//! workload, on every GPU configuration the CLI names, with the
//! interconnect model off and on, folded into one digest per
//! (workload, GPU, option) and compared with the committed
//! `results/sim_corpus_digest.json`. Each kernel's result is digested over
//! every field (`common::digest`), so a change that only makes the
//! simulator faster must leave every entry as it is, and a failure names
//! the entries that moved.
//!
//! Every seventh kernel runs through `run_kernel_with_stop` under a cycle
//! budget, and both halves of that one-pass run are digested. One
//! `Simulator` runs all kernels of an entry in order, so the pooled engine
//! state is reused the way a whole-workload simulation reuses it.
//!
//! The gate runs in release builds only (`cargo test --release --test
//! sim_corpus`, as `ci.sh` does): the debug simulator is far too slow for
//! it. On a mismatch the computed file is written to
//! `target/tmp/sim_corpus_digest.json`; copying it over the committed one
//! is right only for a change meant to move simulated results.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use principal_kernel_analysis::gpu::{GpuConfig, KernelId};
use principal_kernel_analysis::sim::{MaxCyclesMonitor, SimError, SimOptions, Simulator};
use principal_kernel_analysis::stats::hash::mix64;
use principal_kernel_analysis::stats::Executor;
use principal_kernel_analysis::workloads::{all_workloads, Workload};

mod common;
use common::digest;

const SCHEMA: &str = "pka.sim_corpus/v1";
/// Kernels simulated per workload (fewer when the workload has fewer).
const KERNELS_PER_WORKLOAD: u64 = 8;
/// Kernel `i` runs with a cycle-budget stop when `i % STOP_EVERY == 0`.
const STOP_EVERY: u64 = 7;
/// The `MaxCyclesMonitor` budget of those runs.
const STOP_AT_CYCLE: u64 = 1_000;
/// A kernel of more warp instructions runs only up to `STOP_AT_CYCLE`,
/// which keeps the whole gate near half a minute on two cores.
const FULL_RUN_MAX_INSTRUCTIONS: u64 = 300_000;
const GPUS: [&str; 4] = ["v100", "rtx2060", "rtx3070", "v100-half"];
const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/sim_corpus_digest.json");

/// One corpus entry: its key and its digest over every result it produced.
fn entry(workload: &Workload, gpu: &str, interconnect: bool) -> Result<(String, String), String> {
    let config = GpuConfig::by_name(gpu).expect("a named GPU");
    let sim = Simulator::new(config, SimOptions::default().with_interconnect(interconnect));
    let key = format!(
        "{}/{gpu}/icnt-{}",
        workload.name(),
        if interconnect { "on" } else { "off" }
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..workload.kernel_count().min(KERNELS_PER_WORKLOAD) {
        let kernel = workload.kernel(KernelId::new(i));
        let fail = |e: SimError| format!("{key}: kernel {i}: {e}");
        let mut monitor = MaxCyclesMonitor::new(STOP_AT_CYCLE);
        let results = if kernel.total_warp_instructions() > FULL_RUN_MAX_INSTRUCTIONS {
            vec![sim.run_kernel_monitored(&kernel, &mut monitor).map_err(fail)?]
        } else if i % STOP_EVERY == 0 {
            let (full, stopped) = sim.run_kernel_with_stop(&kernel, &mut monitor).map_err(fail)?;
            vec![full, stopped]
        } else {
            vec![sim.run_kernel(&kernel).map_err(fail)?]
        };
        for r in &results {
            h = mix64(h ^ digest(r));
        }
    }
    Ok((key, format!("{h:#018x}")))
}

/// The digest file's text: the parameters, then one line per entry in key
/// order.
fn render(digests: &BTreeMap<String, String>) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"kernels_per_workload\": {KERNELS_PER_WORKLOAD},\n  \
         \"stop_every\": {STOP_EVERY},\n  \"stop_at_cycle\": {STOP_AT_CYCLE},\n  \
         \"full_run_max_instructions\": {FULL_RUN_MAX_INSTRUCTIONS},\n  \"digests\": {{\n"
    );
    for (i, (key, value)) in digests.iter().enumerate() {
        let comma = if i + 1 < digests.len() { "," } else { "" };
        writeln!(out, "    \"{key}\": \"{value}\"{comma}").expect("writing to a String");
    }
    out.push_str("  }\n}\n");
    out
}

/// The entries of the committed file, after checking its parameters match
/// this test's.
fn committed() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(COMMITTED).expect("the committed corpus digest file");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("the digest file parses");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
    for (name, value) in [
        ("kernels_per_workload", KERNELS_PER_WORKLOAD),
        ("stop_every", STOP_EVERY),
        ("stop_at_cycle", STOP_AT_CYCLE),
        ("full_run_max_instructions", FULL_RUN_MAX_INSTRUCTIONS),
    ] {
        assert_eq!(doc.get(name).and_then(|v| v.as_u64()), Some(value), "{name}");
    }
    let digests = doc.get("digests").and_then(|v| v.as_object()).expect("a digests object");
    digests
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().expect("a digest string").to_string()))
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode gate: cargo test --release --test sim_corpus")]
fn every_workload_matches_the_committed_corpus_digest() {
    let workloads = all_workloads();
    let jobs: Vec<(&Workload, &str, bool)> = workloads
        .iter()
        .flat_map(|w| GPUS.iter().flat_map(move |&gpu| [false, true].map(|icnt| (w, gpu, icnt))))
        .collect();
    let got: BTreeMap<String, String> = Executor::new(2)
        .map(&jobs, |_, &(w, gpu, icnt)| entry(w, gpu, icnt))
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(got.len(), jobs.len(), "entry keys are unique");

    let want = committed();
    let mut failures = Vec::new();
    for (key, value) in &got {
        match want.get(key) {
            Some(pinned) if pinned == value => {}
            Some(pinned) => failures.push(format!("{key}: {value}, pinned {pinned}")),
            None => failures.push(format!("{key}: {value}, not in the committed file")),
        }
    }
    failures.extend(
        want.keys()
            .filter(|k| !got.contains_key(*k))
            .map(|k| format!("{k}: pinned, no longer simulated")),
    );
    if !failures.is_empty() {
        let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/sim_corpus_digest.json");
        std::fs::write(out, render(&got)).expect("writing the computed digests");
        panic!(
            "{} of {} corpus entries differ (computed file: {out}):\n{}",
            failures.len(),
            got.len(),
            failures.join("\n")
        );
    }
}
