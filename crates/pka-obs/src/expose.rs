//! Prometheus text exposition (format 0.0.4) for the metric [`Registry`],
//! and the inverse parser behind `pka obs scrape`.
//!
//! # Rendering contract
//!
//! [`prometheus_text`] renders every registered counter, gauge, histogram
//! and stage into the plain-text exposition format, deterministically:
//! each section's map is captured under its lock in one pass (one locked
//! snapshot per family — a scrape concurrent with [`Registry::reset`] or
//! metric updates is tear-free per family), and families are emitted in
//! sorted name order, the registry's native `BTreeMap` iteration order.
//!
//! Name normalisation, in order:
//!
//! 1. The raw dotted name is split on `.`; segments of the form
//!    `w<digits>` (the executor's per-worker lanes) become a
//!    `worker="<digits>"` label.
//! 2. Remaining segments are joined with `_`, any character outside
//!    `[A-Za-z0-9_]` is mapped to `_`, and the result is prefixed `pka_`.
//!    So `executor.worker_busy.w3` → `pka_executor_worker_busy{worker="3"}`.
//! 3. Counters gain a `_total` suffix. Histograms expose cumulative
//!    `le`-bucketed `_bucket` samples derived from the registry's fixed
//!    inclusive upper edges (the overflow bucket becomes `le="+Inf"`),
//!    plus `_count` and `_sum`. `_count` is computed from the same
//!    single read of the bucket vector as the `_bucket` samples, so
//!    `_count == Σ buckets` holds in *every* scrape, by construction.
//! 4. Stages are exposed as a `_total_ns` / `_calls` pair of counter
//!    families (matching the manifest's `{total_ns, calls}` shape).
//!
//! The registry's `wall_ns` clock is deliberately *not* exposed: every
//! rendered family is either deterministic for a fixed input or an
//! explicit timing aggregate, so deterministic families compare
//! byte-for-byte across scrapes of identical runs.
//!
//! # Parsing contract
//!
//! [`parse_exposition`] accepts exactly the grammar this module emits (a
//! strict subset of the Prometheus text format: `# HELP` / `# TYPE`
//! comments, `name{labels} value` samples) and rebuilds a
//! `pka.run_manifest/v1`-shaped document — counters, gauges, histograms
//! (`le` buckets de-cumulated back into `edges`/`counts`), and
//! `_total_ns`/`_calls` counter pairs re-joined into `stages` — keyed by
//! the *normalised* sample identity (`pka_stream_records_total{worker="0"}`).
//! The output feeds [`diff_manifests`](crate::diff_manifests) unchanged,
//! so the CI regression gates work against a live `/metrics` endpoint
//! exactly as they do against committed manifests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::{json, Map, Value};

use crate::{Registry, MANIFEST_SCHEMA};

/// `Content-Type` of the rendered exposition.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

// ---------------------------------------------------------------------------
// Name normalisation
// ---------------------------------------------------------------------------

/// A raw dotted metric name resolved to its Prometheus identity.
struct NormalName {
    /// Normalised family base (no type suffix yet), e.g. `pka_stream_records`.
    family: String,
    /// The raw name with label segments removed, e.g. `stream.records`.
    base: String,
    /// Labels extracted from the raw name, in segment order.
    labels: Vec<(String, String)>,
}

fn digits_after<'a>(seg: &'a str, prefix: &str) -> Option<&'a str> {
    let rest = seg.strip_prefix(prefix)?;
    (!rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit())).then_some(rest)
}

fn normalize(raw: &str) -> NormalName {
    let mut labels = Vec::new();
    let mut kept: Vec<&str> = Vec::new();
    for seg in raw.split('.') {
        if let Some(d) = digits_after(seg, "w") {
            labels.push(("worker".to_string(), d.to_string()));
        } else {
            kept.push(seg);
        }
    }
    let mut family = String::from("pka");
    for seg in &kept {
        family.push('_');
        family.extend(
            seg.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
        );
    }
    NormalName {
        family,
        base: kept.join("."),
        labels,
    }
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", rendered.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// One value-bearing line, grouped under its family before rendering.
struct Sample {
    labels: Vec<(String, String)>,
    /// Pre-rendered value text (integers for counters/gauges).
    value: String,
    /// Extra histogram lines (bucket/count/sum) already rendered, replacing
    /// the single `value` sample.
    histogram: Option<HistogramSample>,
}

struct HistogramSample {
    edges: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
}

struct Family {
    kind: &'static str,
    help: String,
    samples: Vec<Sample>,
}

fn push_sample(
    families: &mut BTreeMap<String, Family>,
    name: String,
    kind: &'static str,
    help: String,
    sample: Sample,
) {
    families
        .entry(name)
        .or_insert_with(|| Family {
            kind,
            help,
            samples: Vec::new(),
        })
        .samples
        .push(sample);
}

fn render_families(out: &mut String, families: &BTreeMap<String, Family>) {
    for (name, family) in families {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
        let _ = writeln!(out, "# TYPE {name} {}", family.kind);
        for s in &family.samples {
            match &s.histogram {
                None => {
                    let _ = writeln!(out, "{name}{} {}", label_block(&s.labels), s.value);
                }
                Some(h) => {
                    let mut cumulative = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cumulative += c;
                        let mut labels = s.labels.clone();
                        let le = match h.edges.get(i) {
                            Some(e) => e.to_string(),
                            None => "+Inf".to_string(),
                        };
                        labels.push(("le".to_string(), le));
                        let _ =
                            writeln!(out, "{name}_bucket{} {cumulative}", label_block(&labels));
                    }
                    // `_count` comes from the same `counts` read as the
                    // buckets above, so it always equals their sum.
                    let block = label_block(&s.labels);
                    let _ = writeln!(out, "{name}_count{block} {cumulative}");
                    let _ = writeln!(out, "{name}_sum{block} {}", h.sum);
                }
            }
        }
    }
}

/// Render `registry` into Prometheus text exposition format 0.0.4.
///
/// Each metric section is captured in one pass under its map lock, so a
/// scrape concurrent with updates or [`Registry::reset`] is tear-free per
/// family; see the module docs for the normalisation rules.
pub fn prometheus_text(registry: &Registry) -> String {
    // One locked snapshot per section; values are read while the map lock
    // is held so no family mixes entries from different instants of the
    // map itself.
    let counters: Vec<(&'static str, u64)> = {
        let map = registry.counters.lock().unwrap();
        map.iter().map(|(&k, c)| (k, c.get())).collect()
    };
    let gauges: Vec<(&'static str, i64)> = {
        let map = registry.gauges.lock().unwrap();
        map.iter().map(|(&k, g)| (k, g.get())).collect()
    };
    let histograms: Vec<(&'static str, Vec<u64>, Vec<u64>, u64)> = {
        let map = registry.histograms.lock().unwrap();
        map.iter()
            .map(|(&k, h)| (k, h.edges().to_vec(), h.counts(), h.sum()))
            .collect()
    };
    let stages: Vec<(&'static str, u64, u64)> = {
        let map = registry.stages.lock().unwrap();
        map.iter().map(|(&k, s)| (k, s.total_ns(), s.calls())).collect()
    };

    let mut out = String::new();

    let mut counter_families = BTreeMap::new();
    for (raw, value) in counters {
        let n = normalize(raw);
        push_sample(
            &mut counter_families,
            format!("{}_total", n.family),
            "counter",
            format!("PKA counter `{}`.", n.base),
            Sample {
                labels: n.labels,
                value: value.to_string(),
                histogram: None,
            },
        );
    }
    render_families(&mut out, &counter_families);

    let mut gauge_families = BTreeMap::new();
    for (raw, value) in gauges {
        let n = normalize(raw);
        push_sample(
            &mut gauge_families,
            n.family,
            "gauge",
            format!("PKA gauge `{}`.", n.base),
            Sample {
                labels: n.labels,
                value: value.to_string(),
                histogram: None,
            },
        );
    }
    render_families(&mut out, &gauge_families);

    let mut histogram_families = BTreeMap::new();
    for (raw, edges, counts, sum) in histograms {
        let n = normalize(raw);
        push_sample(
            &mut histogram_families,
            n.family,
            "histogram",
            format!("PKA histogram `{}` (fixed inclusive upper edges).", n.base),
            Sample {
                labels: n.labels,
                value: String::new(),
                histogram: Some(HistogramSample { edges, counts, sum }),
            },
        );
    }
    render_families(&mut out, &histogram_families);

    let mut stage_families = BTreeMap::new();
    for (raw, total_ns, calls) in stages {
        let n = normalize(raw);
        push_sample(
            &mut stage_families,
            format!("{}_total_ns", n.family),
            "counter",
            format!("Total nanoseconds in PKA stage `{}`.", n.base),
            Sample {
                labels: n.labels.clone(),
                value: total_ns.to_string(),
                histogram: None,
            },
        );
        push_sample(
            &mut stage_families,
            format!("{}_calls", n.family),
            "counter",
            format!("Recorded intervals of PKA stage `{}`.", n.base),
            Sample {
                labels: n.labels,
                value: calls.to_string(),
                histogram: None,
            },
        );
    }
    render_families(&mut out, &stage_families);

    out
}

/// [`prometheus_text`] over the process-wide registry.
pub fn global_prometheus() -> String {
    prometheus_text(crate::global())
}

// ---------------------------------------------------------------------------
// Parsing (the minimal exposition grammar)
// ---------------------------------------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample line.
struct ParsedSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    line_no: usize,
}

fn parse_labels(block: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without `=`"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("line {line_no}: invalid label name `{name}`"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e @ ('\\' | '"'))) => value.push(e),
                    _ => return Err(format!("line {line_no}: bad escape in label value")),
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let end =
            consumed.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((name.to_string(), value));
        rest = &rest[end..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: expected `,` between labels"));
        }
    }
    Ok(labels)
}

fn parse_sample(line: &str, line_no: usize) -> Result<ParsedSample, String> {
    let (ident, value_text) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("line {line_no}: unmatched `{{`"))?;
            if close < open {
                return Err(format!("line {line_no}: unmatched `{{`"));
            }
            let labels = parse_labels(&line[open + 1..close], line_no)?;
            (
                (line[..open].to_string(), labels),
                line[close + 1..].trim(),
            )
        }
        None => {
            let mut it = line.splitn(2, char::is_whitespace);
            let name = it.next().unwrap_or_default().to_string();
            ((name, Vec::new()), it.next().unwrap_or_default().trim())
        }
    };
    let (name, labels) = ident;
    if !valid_metric_name(&name) {
        return Err(format!("line {line_no}: invalid metric name `{name}`"));
    }
    if value_text.is_empty() {
        return Err(format!("line {line_no}: sample `{name}` has no value"));
    }
    let value: f64 = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse()
            .map_err(|_| format!("line {line_no}: invalid sample value `{v}`"))?,
    };
    Ok(ParsedSample {
        name,
        labels,
        value,
        line_no,
    })
}

fn series_key(name: &str, labels: &[(String, String)]) -> String {
    let mut labels: Vec<&(String, String)> =
        labels.iter().filter(|(k, _)| k != "le").collect();
    labels.sort();
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if rendered.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", rendered.join(","))
    }
}

fn integral(v: f64) -> Value {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        if v < 0.0 {
            json!(v as i64)
        } else {
            json!(v as u64)
        }
    } else {
        json!(v)
    }
}

/// Parse a Prometheus text exposition into a `pka.run_manifest/v1`-shaped
/// document ready for [`diff_manifests`](crate::diff_manifests).
///
/// Every sample line must belong to a family declared by a preceding
/// `# TYPE` line; histogram families are de-cumulated back into
/// `edges`/`counts`, and `_total_ns`/`_calls` counter pairs are re-joined
/// into the `stages` section. Series keys carry their sorted label block
/// (`pka_stream_records_total{worker="0"}`).
///
/// # Errors
///
/// Returns a line-attributed message for any text outside the grammar, a
/// sample without a `# TYPE`, non-cumulative histogram buckets, or a
/// histogram whose `_count` disagrees with the sum of its buckets.
pub fn parse_exposition(text: &str) -> Result<Value, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<ParsedSample> = Vec::new();

    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without a name"))?;
                let kind = it
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without a kind"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: invalid family name `{name}`"));
                }
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {line_no}: unknown TYPE `{kind}`"));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {line_no}: duplicate TYPE for `{name}`"));
                }
            }
            // HELP and other comments carry no data.
            continue;
        }
        samples.push(parse_sample(trimmed, line_no)?);
    }

    // Resolve each sample to its declaring family.
    let family_of = |s: &ParsedSample| -> Result<(String, String), String> {
        if let Some(kind) = types.get(&s.name) {
            return Ok((s.name.clone(), kind.clone()));
        }
        for suffix in ["_bucket", "_count", "_sum"] {
            if let Some(base) = s.name.strip_suffix(suffix) {
                if types.get(base).map(String::as_str) == Some("histogram") {
                    return Ok((base.to_string(), "histogram".to_string()));
                }
            }
        }
        Err(format!(
            "line {}: sample `{}` has no preceding # TYPE",
            s.line_no, s.name
        ))
    };

    let mut counters = Map::new();
    let mut gauges = Map::new();
    let mut histograms = Map::new();
    // family -> series key -> (finite (le, cumulative) pairs in order,
    // +Inf cumulative, declared _count).
    type HistAcc = BTreeMap<String, (Vec<(u64, u64)>, Option<u64>, Option<u64>)>;
    let mut hist_acc: BTreeMap<String, HistAcc> = BTreeMap::new();

    for s in &samples {
        let (family, kind) = family_of(s)?;
        match kind.as_str() {
            "counter" => {
                counters.insert(series_key(&s.name, &s.labels), integral(s.value));
            }
            "gauge" => {
                gauges.insert(series_key(&s.name, &s.labels), integral(s.value));
            }
            "histogram" => {
                let key = series_key(&family, &s.labels);
                let entry = hist_acc
                    .entry(family.clone())
                    .or_default()
                    .entry(key)
                    .or_insert_with(|| (Vec::new(), None, None));
                if s.name.ends_with("_bucket") {
                    let le = s
                        .labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| {
                            format!("line {}: _bucket without `le`", s.line_no)
                        })?;
                    let cumulative = s.value as u64;
                    if le == "+Inf" {
                        entry.1 = Some(cumulative);
                    } else {
                        let edge: u64 = le.parse().map_err(|_| {
                            format!("line {}: non-integer le `{le}`", s.line_no)
                        })?;
                        entry.0.push((edge, cumulative));
                    }
                } else if s.name.ends_with("_count") {
                    entry.2 = Some(s.value as u64);
                }
                // `_sum` is informational; manifests carry counts only.
            }
            other => {
                return Err(format!(
                    "line {}: unsupported family type `{other}`",
                    s.line_no
                ));
            }
        }
    }

    for (family, series) in hist_acc {
        for (key, (finite, inf, declared_count)) in series {
            let total = inf.ok_or_else(|| {
                format!("histogram `{family}`: missing le=\"+Inf\" bucket")
            })?;
            let mut edges = Vec::with_capacity(finite.len());
            let mut counts = Vec::with_capacity(finite.len() + 1);
            let mut prev = 0u64;
            for (edge, cumulative) in finite {
                if cumulative < prev {
                    return Err(format!(
                        "histogram `{family}`: buckets are not cumulative"
                    ));
                }
                edges.push(edge);
                counts.push(cumulative - prev);
                prev = cumulative;
            }
            if total < prev {
                return Err(format!(
                    "histogram `{family}`: +Inf bucket below the last finite bucket"
                ));
            }
            counts.push(total - prev);
            if let Some(declared) = declared_count {
                if declared != total {
                    return Err(format!(
                        "histogram `{family}`: _count {declared} != sum of buckets {total}"
                    ));
                }
            }
            histograms.insert(key, json!({ "edges": edges, "counts": counts }));
        }
    }

    // Re-join `_total_ns` / `_calls` counter pairs into stages.
    let mut stages = Map::new();
    let ns_keys: Vec<String> = counters
        .keys()
        .filter(|k| stage_base(k, "_total_ns").is_some())
        .cloned()
        .collect();
    for ns_key in ns_keys {
        let (base, labels) = stage_base(&ns_key, "_total_ns").expect("filtered above");
        let calls_key = format!("{base}_calls{labels}");
        let Some(calls) = counters.get(&calls_key).cloned() else {
            continue; // unpaired: leave it as a plain counter
        };
        let total_ns = counters
            .get(&ns_key)
            .cloned()
            .expect("key came from the map");
        counters.remove(&ns_key);
        counters.remove(&calls_key);
        stages.insert(
            format!("{base}{labels}"),
            json!({ "calls": calls, "total_ns": total_ns }),
        );
    }

    Ok(json!({
        "schema": MANIFEST_SCHEMA,
        "wall_ns": 0,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "stages": stages,
        "checksums": {},
    }))
}

/// Splits a series key `pka_x_total_ns{...}` into (`pka_x`, `{...}`) when
/// its family name ends with `suffix`.
fn stage_base<'a>(key: &'a str, suffix: &str) -> Option<(&'a str, &'a str)> {
    let (name, labels) = match key.find('{') {
        Some(i) => (&key[..i], &key[i..]),
        None => (key, ""),
    };
    name.strip_suffix(suffix).map(|base| (base, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn normalisation_extracts_worker_labels() {
        let n = normalize("stream.w3.records");
        assert_eq!(n.family, "pka_stream_records");
        assert_eq!(n.base, "stream.records");
        assert_eq!(n.labels, vec![("worker".to_string(), "3".to_string())]);

        let n = normalize("executor.worker_busy.w12");
        assert_eq!(n.family, "pka_executor_worker_busy");
        assert_eq!(n.labels, vec![("worker".to_string(), "12".to_string())]);

        // `w` without digits, and the retired `shard<digits>`, are
        // ordinary segments.
        let n = normalize("stream.w.shard3.weird-name");
        assert_eq!(n.family, "pka_stream_w_shard3_weird_name");
        assert!(n.labels.is_empty());
    }

    #[test]
    fn render_covers_every_metric_kind() {
        let r = Registry::new();
        r.counter("stream.records").add(100);
        r.counter(crate::intern("stream.w0.records")).add(40);
        r.counter(crate::intern("stream.w1.records")).add(60);
        r.gauge("stream.selected_k").set(9);
        let h = r.histogram("server.request_ns", &[1_000, 1_000_000]);
        h.record(500);
        h.record(500);
        h.record(2_000_000);
        r.stage("pks.sweep").record_ns(1234);
        let text = prometheus_text(&r);
        let expected = "\
# HELP pka_stream_records_total PKA counter `stream.records`.
# TYPE pka_stream_records_total counter
pka_stream_records_total 100
pka_stream_records_total{worker=\"0\"} 40
pka_stream_records_total{worker=\"1\"} 60
# HELP pka_stream_selected_k PKA gauge `stream.selected_k`.
# TYPE pka_stream_selected_k gauge
pka_stream_selected_k 9
# HELP pka_server_request_ns PKA histogram `server.request_ns` (fixed inclusive upper edges).
# TYPE pka_server_request_ns histogram
pka_server_request_ns_bucket{le=\"1000\"} 2
pka_server_request_ns_bucket{le=\"1000000\"} 2
pka_server_request_ns_bucket{le=\"+Inf\"} 3
pka_server_request_ns_count 3
pka_server_request_ns_sum 2001000
# HELP pka_pks_sweep_calls Recorded intervals of PKA stage `pks.sweep`.
# TYPE pka_pks_sweep_calls counter
pka_pks_sweep_calls 1
# HELP pka_pks_sweep_total_ns Total nanoseconds in PKA stage `pks.sweep`.
# TYPE pka_pks_sweep_total_ns counter
pka_pks_sweep_total_ns 1234
";
        assert_eq!(text, expected);
    }

    #[test]
    fn round_trip_rebuilds_manifest_sections() {
        let r = Registry::new();
        r.counter("stream.records").add(7);
        r.counter(crate::intern("stream.w0.records")).add(3);
        r.gauge("stream.max_buffered").set(-1);
        let h = r.histogram("stream.checkpoint_write_ns", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(5_000);
        r.stage("pks.sweep").record_ns(999);
        r.stage("pks.sweep").record_ns(1);

        let doc = parse_exposition(&prometheus_text(&r)).expect("parse");
        assert_eq!(doc["schema"].as_str(), Some(MANIFEST_SCHEMA));
        assert_eq!(doc["counters"]["pka_stream_records_total"], json!(7));
        assert_eq!(
            doc["counters"]["pka_stream_records_total{worker=\"0\"}"],
            json!(3)
        );
        assert_eq!(doc["gauges"]["pka_stream_max_buffered"], json!(-1));
        assert_eq!(
            doc["histograms"]["pka_stream_checkpoint_write_ns"],
            json!({ "edges": [10, 100], "counts": [1, 1, 1] })
        );
        assert_eq!(
            doc["stages"]["pka_pks_sweep"],
            json!({ "calls": 2, "total_ns": 1000 })
        );
        // The stage halves were consumed by the join.
        assert!(doc["counters"].get("pka_pks_sweep_total_ns").is_none());
        assert!(doc["counters"].get("pka_pks_sweep_calls").is_none());

        // A clean self-diff through the real gate.
        let report =
            crate::diff_manifests(&doc, &doc, &crate::DiffThresholds::default(), true)
                .expect("diff");
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn parser_rejects_text_outside_the_grammar() {
        for (text, why) in [
            ("pka_x_total 1\n", "sample without TYPE"),
            ("# TYPE pka_x counter\npka_x\n", "sample without value"),
            ("# TYPE pka_x counter\npka_x nope\n", "non-numeric value"),
            ("# TYPE 9bad counter\n", "invalid family name"),
            (
                "# TYPE pka_x counter\n# TYPE pka_x counter\n",
                "duplicate TYPE",
            ),
            (
                "# TYPE pka_x counter\npka_x{le=\"oops} 1\n",
                "unterminated label",
            ),
            (
                "# TYPE pka_h histogram\npka_h_bucket{le=\"10\"} 5\npka_h_bucket{le=\"20\"} 3\npka_h_bucket{le=\"+Inf\"} 5\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE pka_h histogram\npka_h_bucket{le=\"10\"} 5\npka_h_bucket{le=\"+Inf\"} 5\npka_h_count 9\n",
                "_count disagrees with buckets",
            ),
            (
                "# TYPE pka_h histogram\npka_h_bucket{le=\"10\"} 5\n",
                "missing +Inf bucket",
            ),
        ] {
            assert!(parse_exposition(text).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn scrape_is_tear_free_per_family_under_concurrent_updates_and_reset() {
        // Satellite contract: `/metrics` scraped concurrently with metric
        // updates and `Registry::reset` parses under the grammar and every
        // histogram's `_count` equals the sum of its buckets (the parser
        // rejects any scrape where it does not).
        let r = Registry::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let h = r.histogram("test.tear_ns", &[10, 100, 1_000]);
                    let c = r.counter("test.tear_total_events");
                    let mut v = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 2_000);
                        c.incr();
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                });
            }
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    r.reset();
                    std::thread::yield_now();
                }
            });
            for _ in 0..200 {
                let text = prometheus_text(&r);
                let doc = parse_exposition(&text).expect("tear-free scrape");
                // De-cumulation + the `_count` cross-check run inside the
                // parser; re-assert the bucket sum here explicitly.
                if let Some(h) = doc["histograms"]["pka_test_tear_ns"].as_object() {
                    let total: u64 = h["counts"]
                        .as_array()
                        .expect("counts")
                        .iter()
                        .map(|c| c.as_u64().expect("count"))
                        .sum();
                    assert!(
                        text.contains(&format!("pka_test_tear_ns_count {total}")),
                        "_count must equal the bucket sum in every scrape"
                    );
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn unpaired_total_ns_counter_stays_a_counter() {
        let text = "# TYPE pka_lonely_total_ns counter\npka_lonely_total_ns 5\n";
        let doc = parse_exposition(text).expect("parse");
        assert_eq!(doc["counters"]["pka_lonely_total_ns"], json!(5));
        assert!(doc["stages"].as_object().expect("stages").is_empty());
    }
}
