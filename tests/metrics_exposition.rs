//! Acceptance for the Prometheus exposition layer (`pka-obs::expose`):
//! a golden `/metrics` body for a seeded registry, a grammar property
//! over arbitrary registries, and worker-count byte-identity of the
//! deterministic families scraped from a real streaming run.

use principal_kernel_analysis::core::Executor;
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::obs;
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::stream::{
    synthetic_workload, StreamConfig, StreamPks, WorkloadSource,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Golden body
// ---------------------------------------------------------------------------

/// A registry covering every metric kind and every normalisation rule:
/// unlabeled and worker-labeled counters, gauges (including a negative
/// one), a histogram with under/over-flow observations, and stages both
/// plain and worker-labeled.
fn seeded_registry() -> obs::Registry {
    let r = obs::Registry::new();
    r.counter("stream.records").add(6_000);
    r.counter(obs::intern("stream.w0.records")).add(2_945);
    r.counter(obs::intern("stream.w1.records")).add(3_055);
    r.counter("stream.checkpoints").add(4);
    r.gauge("stream.selected_k").set(9);
    r.gauge("stream.max_buffered").set(-1);
    r.gauge(obs::intern("stream.w1.reservoir")).set(128);
    let h = r.histogram(
        "stream.checkpoint_write_ns",
        &[1_000, 1_000_000, 100_000_000],
    );
    for v in [250, 980, 1_000, 5_000_000, 77, 230_000_000] {
        h.record(v);
    }
    r.stage("pks.sweep").record_ns(48_000);
    r.stage("pks.sweep").record_ns(2_000);
    r.stage(obs::intern("executor.worker_busy.w0"))
        .record_ns(1_000_000);
    r
}

/// The rendered exposition is byte-stable against the committed fixture.
/// Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test`.
#[test]
fn rendered_exposition_matches_the_golden_fixture() {
    let text = obs::prometheus_text(&seeded_registry());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/metrics_exposition.golden"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("update golden fixture");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("read tests/fixtures/metrics_exposition.golden (UPDATE_GOLDEN=1 regenerates)");
    assert_eq!(
        text, want,
        "exposition drifted from the golden fixture; rerun with UPDATE_GOLDEN=1 if intended"
    );
}

/// The golden body round-trips through the scrape parser into a manifest
/// that self-diffs clean under the strict default thresholds.
#[test]
fn golden_body_round_trips_through_the_scrape_parser() {
    let doc = obs::parse_exposition(&obs::prometheus_text(&seeded_registry()))
        .expect("golden body parses");
    assert_eq!(doc["schema"].as_str(), Some(obs::MANIFEST_SCHEMA));
    assert_eq!(
        doc["counters"]["pka_stream_records_total{worker=\"0\"}"],
        serde_json::json!(2_945)
    );
    assert_eq!(
        doc["stages"]["pka_pks_sweep"],
        serde_json::json!({ "calls": 2, "total_ns": 50_000 })
    );
    let report = obs::diff_manifests(&doc, &doc, &obs::DiffThresholds::default(), false)
        .expect("self diff");
    assert_eq!(report.regressions(), 0);
}

// ---------------------------------------------------------------------------
// Grammar property
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Metric {
    Counter(String, u64),
    Gauge(String, i64),
    Histogram(String, Vec<u64>, Vec<u64>),
    Stage(String, Vec<u64>),
}

/// A dotted metric name under the registry's naming discipline: plain
/// segments first (headed by a per-kind prefix so kinds never collide on
/// a family name), then at most one `w<i>` label segment.
fn arb_name(prefix: char) -> impl Strategy<Value = String> {
    (proptest::collection::vec(0u8..16, 1..4), 0u8..2, 0u8..8).prop_map(
        move |(segs, labeled, w)| {
            let mut parts: Vec<String> = segs.iter().map(|n| format!("{prefix}{n}")).collect();
            if labeled != 0 {
                parts.push(format!("w{w}"));
            }
            parts.join(".")
        },
    )
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        (arb_name('c'), 0u64..1_000_000_000_000)
            .prop_map(|(n, v)| Metric::Counter(n, v)),
        (arb_name('g'), -1_000_000_000i64..1_000_000_000)
            .prop_map(|(n, v)| Metric::Gauge(n, v)),
        (
            arb_name('h'),
            proptest::collection::vec(1u64..1_000_000_000, 0..5),
            proptest::collection::vec(0u64..2_000_000_000, 0..20),
        )
            .prop_map(|(n, mut edges, values)| {
                edges.sort_unstable();
                edges.dedup();
                Metric::Histogram(n, edges, values)
            }),
        (
            arb_name('s'),
            proptest::collection::vec(0u64..1_000_000_000, 0..6),
        )
            .prop_map(|(n, ns)| Metric::Stage(n, ns)),
    ]
}

fn build_registry(metrics: &[Metric]) -> obs::Registry {
    let r = obs::Registry::new();
    for m in metrics {
        match m {
            Metric::Counter(name, v) => r.counter(obs::intern(name)).add(*v),
            Metric::Gauge(name, v) => r.gauge(obs::intern(name)).set(*v),
            Metric::Histogram(name, edges, values) => {
                let h = r.histogram(obs::intern(name), edges);
                for v in values {
                    h.record(*v);
                }
            }
            Metric::Stage(name, ns) => {
                let s = r.stage(obs::intern(name));
                for v in ns {
                    s.record_ns(*v);
                }
            }
        }
    }
    r
}

/// One line of the minimal exposition grammar, checked shallowly (the
/// deep check is `parse_exposition`, which rejects any malformed line).
fn line_is_comment_or_sample(line: &str) -> bool {
    if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
        return true;
    }
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .unwrap_or(line.len());
    let name = &line[..name_end];
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && line.split_whitespace().next_back().is_some_and(|v| {
            v == "+Inf" || v == "-Inf" || v.parse::<f64>().is_ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever ends up in a registry, every rendered line is either a
    /// `# HELP`/`# TYPE` comment or a well-formed sample, the whole body
    /// parses under the scrape grammar, and the rebuilt manifest
    /// self-diffs clean.
    #[test]
    fn every_rendered_line_parses_under_the_grammar(
        metrics in proptest::collection::vec(arb_metric(), 0..12)
    ) {
        let text = obs::prometheus_text(&build_registry(&metrics));
        for line in text.lines() {
            prop_assert!(
                line_is_comment_or_sample(line),
                "line outside the grammar: `{}`", line
            );
        }
        let doc = match obs::parse_exposition(&text) {
            Ok(doc) => doc,
            Err(e) => return Err(TestCaseError::fail(format!("parse failed: {e}\n{text}"))),
        };
        let report =
            obs::diff_manifests(&doc, &doc, &obs::DiffThresholds::default(), false)
                .expect("self diff");
        prop_assert_eq!(report.regressions(), 0);
    }
}

// ---------------------------------------------------------------------------
// Worker-count byte-identity of a real run's deterministic families
// ---------------------------------------------------------------------------

/// Families whose values are functions of the input alone (no wall-clock
/// content, no work-partitioning content): the pipeline and profiler
/// record counters/gauges that are bitwise-reproducible for any
/// `--workers`, while `executor.*` and all `*_ns` timing families are
/// machine- and schedule-dependent by nature.
fn deterministic_family(name: &str) -> bool {
    ["pka_stream_", "pka_profile_", "pka_pks_"]
        .iter()
        .any(|p| name.starts_with(p))
        && !name.ends_with("_total_ns")
        && !name.ends_with("_calls")
        && !name.contains("_ns")
}

/// Keeps only the family blocks (HELP + TYPE + samples) of deterministic
/// families, preserving bytes and order.
fn deterministic_blocks(exposition: &str) -> String {
    let mut out = String::new();
    let mut keep = false;
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split_whitespace().next().unwrap_or_default();
            keep = deterministic_family(family);
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Scrapes the global registry after a `StreamPks` run with `workers`
/// threads. Serialised by the caller: this file's only global-registry
/// test, and the two runs happen inside it, back to back.
fn scrape_after_run(workers: usize) -> String {
    obs::reset();
    obs::enable();
    let mut source =
        WorkloadSource::new(synthetic_workload(6_000), Profiler::new(GpuConfig::v100()));
    StreamPks::new(
        StreamConfig::default()
            .with_prefix(400)
            .with_checkpoint_every(1_500)
            .with_reservoir(256)
            .with_batch(128),
    )
    .with_executor(Executor::new(workers))
    .run(&mut source, |_| Ok(()))
    .expect("stream run");
    let text = obs::global_prometheus();
    obs::disable();
    text
}

/// The acceptance bar from the issue: a seeded run's `/metrics` body is
/// byte-identical across `--workers` for every deterministic family.
#[test]
fn deterministic_families_are_byte_identical_across_worker_counts() {
    let w1 = deterministic_blocks(&scrape_after_run(1));
    let w4 = deterministic_blocks(&scrape_after_run(4));
    assert!(
        w1.contains("pka_stream_records_total"),
        "filter must keep the stream families:\n{w1}"
    );
    assert_eq!(
        w1, w4,
        "deterministic families must not depend on the worker count"
    );
}
