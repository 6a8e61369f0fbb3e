//! Error attribution: an exact per-group decomposition of PKA's projection
//! error, plus the provenance of every group representative.
//!
//! The paper's headline numbers (Table 3/4) report one scalar error per
//! workload; when a run drifts toward the 5% target nothing in the pipeline
//! says *which group* is responsible. This module decomposes the reported
//! error into additive signed per-group terms:
//!
//! * the **PKS term** — how much scaling the group's representative by the
//!   group population deviates from the group's share of the truth
//!   (per-kernel silicon cycles when silicon is available, the profiled
//!   members' measured cycles otherwise), and
//! * the **PKP term** — how much the stop-rule projection of the
//!   representative deviates from its full simulation, scaled by the group
//!   population.
//!
//! The decomposition is exact, not heuristic: the signed terms sum to the
//! pipeline's reported `pks_error_pct` / `pka_error_pct` within 1e-9
//! relative, and [`ErrorAttribution::verify_sums`] enforces it. DRAM
//! utilisation decomposes the same way into additive per-group shares.
//!
//! Everything here is a pure function of the selection, the provenance and
//! the per-representative simulation samples, so artifacts are
//! byte-identical across worker counts.
//!
//! The typed reader is the only one: `pka obs explain` and `pka obs diff`
//! parse an artifact into [`ErrorAttribution`] (which refuses a foreign
//! schema and names any missing or mistyped field) and then render it with
//! [`ErrorAttribution::explain`] or gate it with [`ErrorAttribution::diff`].

use pka_obs::{DiffEntry, DiffReport};
use serde::value::{Map, Value, ValueError};
use serde::{Deserialize, Serialize};

use crate::Selection;

/// Schema identifier stamped into every attribution artifact.
pub const ATTRIBUTION_SCHEMA: &str = "pka.attribution/v1";

/// Relative tolerance of the sum-to-total invariant.
const SUM_REL_TOL: f64 = 1e-9;

/// A single group contributing more than this share of the total absolute
/// error is flagged by [`ErrorAttribution::explain`].
const DOMINANCE_THRESHOLD_PCT: f64 = 50.0;

/// Provenance of one group's representative, computed from the detailed
/// records the selection was made from (see `Pks::provenance`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupProvenance {
    /// 0-based launch rank of the representative among its group's profiled
    /// members (0 = earliest member; always 0 under the default
    /// first-chronological policy).
    pub chrono_rank: u64,
    /// Euclidean distance from the representative's row to its group's mean
    /// in the PCA-projected feature space the clustering ran in.
    pub distance_to_centroid: f64,
    /// Lower bound of the seeded bootstrap 95% confidence interval on the
    /// mean member cycles — the within-group variance witness.
    pub member_mean_ci_low: f64,
    /// Upper bound of the same interval.
    pub member_mean_ci_high: f64,
}

/// Per-representative simulation samples feeding the simulation-kind
/// decomposition, in group order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepSimulation {
    /// Cycles of the representative simulated to completion (the PKS path).
    pub pks_cycles: u64,
    /// Cycles projected for the representative by the PKP stop rule.
    pub pka_cycles: u64,
    /// Simulator cycles actually spent under the PKP monitor.
    pub simulated_cycles: u64,
    /// DRAM utilisation of the projected representative, percent.
    pub dram_util_pct: f64,
}

/// One group's provenance and its additive contribution to the total error.
///
/// Serialization skips the `None` simulation-only fields, so selection-kind
/// artifacts carry no dangling keys. (The vendored serde derive has no
/// `skip_serializing_if`, hence the hand-written impls below.)
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAttribution {
    /// Group index (cluster order, matching `Selection::groups`).
    pub group: usize,
    /// The representative's kernel id.
    pub representative: u64,
    /// Launch rank of the representative within its group (provenance).
    pub chrono_rank: u64,
    /// Distance from the representative to the group mean in PCA space.
    pub distance_to_centroid: f64,
    /// The projection weight: kernels this group represents, including
    /// two-level / streamed classified members.
    pub weight: u64,
    /// Members profiled in detail.
    pub profiled_count: u64,
    /// Total measured cycles of the profiled members.
    pub member_cycles: u64,
    /// Bootstrap CI (low) on the mean member cycles.
    pub member_mean_ci_low: f64,
    /// Bootstrap CI (high) on the mean member cycles.
    pub member_mean_ci_high: f64,
    /// Representative cycles on the PKS path (measured on silicon for
    /// selection-kind artifacts, fully simulated for simulation-kind).
    pub rep_cycles_pks: u64,
    /// Representative cycles projected by PKP (simulation-kind only).
    pub rep_cycles_pka: Option<u64>,
    /// `simulated / projected` for the representative under PKP
    /// (simulation-kind only).
    pub skip_ratio: Option<f64>,
    /// Signed PKS (group-scaling) error contribution, percent points.
    pub pks_term_pct: f64,
    /// Signed PKP (stop-rule) error contribution, percent points
    /// (simulation-kind only).
    pub pkp_term_pct: Option<f64>,
    /// Signed total contribution: PKS term plus PKP term when present.
    pub total_term_pct: f64,
    /// DRAM utilisation of the projected representative, percent
    /// (simulation-kind only).
    pub dram_util_pct: Option<f64>,
    /// Additive share of the application-level DRAM utilisation, percent
    /// points (simulation-kind only; shares sum to the reported value).
    pub dram_share_pct: Option<f64>,
}

/// The `pka.attribution/v1` artifact: an exact per-group decomposition of
/// the reported projection error plus each representative's provenance.
///
/// Serialization skips the `None` simulation-only fields, so
/// selection-kind artifacts carry no dangling keys.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorAttribution {
    /// Always [`ATTRIBUTION_SCHEMA`].
    pub schema: String,
    /// Workload (or stream source) name.
    pub workload: String,
    /// `"selection"` (truth = profiled members) or `"simulation"`
    /// (truth = silicon, with a PKP term per representative).
    pub kind: String,
    /// The error reference: profiled-member cycles for selection-kind,
    /// silicon cycles for simulation-kind.
    pub reference_cycles: u64,
    /// PKS-path projected application cycles.
    pub pks_projected_cycles: u64,
    /// PKA-path (PKP-stopped) projected application cycles
    /// (simulation-kind only).
    pub pka_projected_cycles: Option<u64>,
    /// Signed PKS error, percent (sum of the groups' `pks_term_pct`).
    pub pks_err_signed_pct: f64,
    /// The pipeline's reported absolute PKS error, percent.
    pub pks_err_pct: f64,
    /// Signed PKA error, percent (sum of the groups' `total_term_pct`;
    /// simulation-kind only).
    pub pka_err_signed_pct: Option<f64>,
    /// The pipeline's reported absolute PKA error, percent
    /// (simulation-kind only).
    pub pka_err_pct: Option<f64>,
    /// Reported application-level DRAM utilisation, percent
    /// (simulation-kind only; the groups' `dram_share_pct` sum to it).
    pub dram_util_pct: Option<f64>,
    /// Per-group decomposition, in group order.
    pub groups: Vec<GroupAttribution>,
}

fn put<T: Serialize>(m: &mut Map, key: &str, value: &T) {
    m.insert(key.to_string(), value.to_json_value());
}

fn put_opt<T: Serialize>(m: &mut Map, key: &str, value: &Option<T>) {
    if let Some(v) = value {
        m.insert(key.to_string(), v.to_json_value());
    }
}

fn req<T: Deserialize>(value: &Value, key: &str) -> Result<T, ValueError> {
    let field = value
        .get(key)
        .ok_or_else(|| ValueError::custom(format!("attribution field `{key}`: missing")))?;
    T::from_json_value(field)
        .map_err(|e| ValueError::custom(format!("attribution field `{key}`: {e}")))
}

fn opt<T: Deserialize>(value: &Value, key: &str) -> Result<Option<T>, ValueError> {
    if value[key].is_null() {
        Ok(None)
    } else {
        req(value, key).map(Some)
    }
}

impl Serialize for GroupAttribution {
    fn to_json_value(&self) -> Value {
        let mut m = Map::new();
        put(&mut m, "group", &self.group);
        put(&mut m, "representative", &self.representative);
        put(&mut m, "chrono_rank", &self.chrono_rank);
        put(&mut m, "distance_to_centroid", &self.distance_to_centroid);
        put(&mut m, "weight", &self.weight);
        put(&mut m, "profiled_count", &self.profiled_count);
        put(&mut m, "member_cycles", &self.member_cycles);
        put(&mut m, "member_mean_ci_low", &self.member_mean_ci_low);
        put(&mut m, "member_mean_ci_high", &self.member_mean_ci_high);
        put(&mut m, "rep_cycles_pks", &self.rep_cycles_pks);
        put_opt(&mut m, "rep_cycles_pka", &self.rep_cycles_pka);
        put_opt(&mut m, "skip_ratio", &self.skip_ratio);
        put(&mut m, "pks_term_pct", &self.pks_term_pct);
        put_opt(&mut m, "pkp_term_pct", &self.pkp_term_pct);
        put(&mut m, "total_term_pct", &self.total_term_pct);
        put_opt(&mut m, "dram_util_pct", &self.dram_util_pct);
        put_opt(&mut m, "dram_share_pct", &self.dram_share_pct);
        Value::Object(m)
    }
}

impl Deserialize for GroupAttribution {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        Ok(Self {
            group: req(value, "group")?,
            representative: req(value, "representative")?,
            chrono_rank: req(value, "chrono_rank")?,
            distance_to_centroid: req(value, "distance_to_centroid")?,
            weight: req(value, "weight")?,
            profiled_count: req(value, "profiled_count")?,
            member_cycles: req(value, "member_cycles")?,
            member_mean_ci_low: req(value, "member_mean_ci_low")?,
            member_mean_ci_high: req(value, "member_mean_ci_high")?,
            rep_cycles_pks: req(value, "rep_cycles_pks")?,
            rep_cycles_pka: opt(value, "rep_cycles_pka")?,
            skip_ratio: opt(value, "skip_ratio")?,
            pks_term_pct: req(value, "pks_term_pct")?,
            pkp_term_pct: opt(value, "pkp_term_pct")?,
            total_term_pct: req(value, "total_term_pct")?,
            dram_util_pct: opt(value, "dram_util_pct")?,
            dram_share_pct: opt(value, "dram_share_pct")?,
        })
    }
}

impl Serialize for ErrorAttribution {
    fn to_json_value(&self) -> Value {
        let mut m = Map::new();
        put(&mut m, "schema", &self.schema);
        put(&mut m, "workload", &self.workload);
        put(&mut m, "kind", &self.kind);
        put(&mut m, "reference_cycles", &self.reference_cycles);
        put(&mut m, "pks_projected_cycles", &self.pks_projected_cycles);
        put_opt(&mut m, "pka_projected_cycles", &self.pka_projected_cycles);
        put(&mut m, "pks_err_signed_pct", &self.pks_err_signed_pct);
        put(&mut m, "pks_err_pct", &self.pks_err_pct);
        put_opt(&mut m, "pka_err_signed_pct", &self.pka_err_signed_pct);
        put_opt(&mut m, "pka_err_pct", &self.pka_err_pct);
        put_opt(&mut m, "dram_util_pct", &self.dram_util_pct);
        put(&mut m, "groups", &self.groups);
        Value::Object(m)
    }
}

impl Deserialize for ErrorAttribution {
    fn from_json_value(value: &Value) -> Result<Self, ValueError> {
        let schema: String = req(value, "schema")?;
        if schema != ATTRIBUTION_SCHEMA {
            return Err(ValueError::custom(format!(
                "attribution field `schema`: expected `{ATTRIBUTION_SCHEMA}`, got `{schema}`"
            )));
        }
        Ok(Self {
            schema,
            workload: req(value, "workload")?,
            kind: req(value, "kind")?,
            reference_cycles: req(value, "reference_cycles")?,
            pks_projected_cycles: req(value, "pks_projected_cycles")?,
            pka_projected_cycles: opt(value, "pka_projected_cycles")?,
            pks_err_signed_pct: req(value, "pks_err_signed_pct")?,
            pks_err_pct: req(value, "pks_err_pct")?,
            pka_err_signed_pct: opt(value, "pka_err_signed_pct")?,
            pka_err_pct: opt(value, "pka_err_pct")?,
            dram_util_pct: opt(value, "dram_util_pct")?,
            groups: req::<Vec<Value>>(value, "groups")?
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    GroupAttribution::from_json_value(g)
                        .map_err(|e| e.in_context(&format!("group {i}")))
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

fn signed_pct(projected: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (projected - reference) / reference * 100.0
    }
}

impl ErrorAttribution {
    /// The artifact's file text: pretty JSON plus a trailing newline, so the
    /// bytes are shell/jq friendly. `--attribution-out` writes exactly this
    /// and `GET /v1/sessions/{id}/attribution` serves it.
    pub fn to_artifact_text(&self) -> String {
        let mut text =
            serde_json::to_string_pretty(self).expect("rendering a JSON value cannot fail");
        text.push('\n');
        text
    }

    /// Sum of the signed per-group PKS terms.
    pub fn pks_term_sum(&self) -> f64 {
        self.groups.iter().map(|g| g.pks_term_pct).sum()
    }

    /// Sum of the signed per-group total terms.
    pub fn total_term_sum(&self) -> f64 {
        self.groups.iter().map(|g| g.total_term_pct).sum()
    }

    /// Sum of the per-group DRAM shares, when present.
    pub fn dram_share_sum(&self) -> Option<f64> {
        if self.groups.iter().all(|g| g.dram_share_pct.is_some()) && !self.groups.is_empty() {
            Some(self.groups.iter().filter_map(|g| g.dram_share_pct).sum())
        } else {
            None
        }
    }

    /// Enforces the sum-to-total invariant: the absolute value of each
    /// signed term sum must match the reported error within 1e-9 relative
    /// (and the DRAM shares must sum to the reported utilisation).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated total.
    pub fn verify_sums(&self) -> Result<(), String> {
        let check = |name: &str, sum: f64, reported: f64| -> Result<(), String> {
            if (sum - reported).abs() <= SUM_REL_TOL * reported.abs().max(1.0) {
                Ok(())
            } else {
                Err(format!(
                    "{name}: per-group terms sum to {sum}, pipeline reported {reported}"
                ))
            }
        };
        check("pks_err_pct", self.pks_term_sum().abs(), self.pks_err_pct)?;
        check(
            "pks_err_signed_pct",
            self.pks_term_sum(),
            self.pks_err_signed_pct,
        )?;
        if let (Some(signed), Some(abs)) = (self.pka_err_signed_pct, self.pka_err_pct) {
            check("pka_err_pct", self.total_term_sum().abs(), abs)?;
            check("pka_err_signed_pct", self.total_term_sum(), signed)?;
        }
        if let (Some(sum), Some(reported)) = (self.dram_share_sum(), self.dram_util_pct) {
            check("dram_util_pct", sum, reported)?;
        }
        Ok(())
    }

    /// Renders the artifact as a ranked table: groups ordered by absolute
    /// total error contribution (descending), each with its
    /// representative's provenance, the bootstrap CI on the mean member
    /// cycles, the PKP skip ratio, and the signed PKS / PKP / total terms.
    /// Any single group past 50% of the total absolute error gets a
    /// trailing `WARNING:` line. This is `pka obs explain`.
    pub fn explain(&self) -> Vec<String> {
        let mut rows: Vec<&GroupAttribution> = self.groups.iter().collect();
        rows.sort_by(|a, b| {
            b.total_term_pct
                .abs()
                .partial_cmp(&a.total_term_pct.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.group.cmp(&b.group))
        });
        let total_abs: f64 = rows.iter().map(|r| r.total_term_pct.abs()).sum();

        let mut lines = Vec::new();
        lines.push(format!(
            "{ATTRIBUTION_SCHEMA} — {} ({})",
            self.workload, self.kind
        ));
        let mut totals = format!(
            "reference {} cycles; PKS error {:+.4}% (reported {:.4}%)",
            self.reference_cycles, self.pks_err_signed_pct, self.pks_err_pct,
        );
        if let (Some(signed), Some(abs)) = (self.pka_err_signed_pct, self.pka_err_pct) {
            totals.push_str(&format!("; PKA error {signed:+.4}% (reported {abs:.4}%)"));
        }
        if let Some(dram) = self.dram_util_pct {
            totals.push_str(&format!("; DRAM {dram:.2}%"));
        }
        lines.push(totals);
        lines.push(format!(
            "{} group(s), ranked by |total contribution|:",
            rows.len()
        ));
        lines.push(format!(
            "{:>4} {:>5} {:>6} {:>6} {:>10} {:>10} {:>6} {:>9} {:>9} {:>9} {:>7}  {}",
            "rank",
            "group",
            "rep",
            "chrono",
            "weight",
            "dist",
            "skip%",
            "pks%",
            "pkp%",
            "total%",
            "share%",
            "ci(mean member cycles)"
        ));
        let mut warnings = Vec::new();
        for (rank, r) in rows.iter().enumerate() {
            let share = if total_abs > 0.0 {
                r.total_term_pct.abs() / total_abs * 100.0
            } else {
                0.0
            };
            let skip = r
                .skip_ratio
                .map_or("-".to_string(), |s| format!("{:.1}", s * 100.0));
            let pkp = r
                .pkp_term_pct
                .map_or("-".to_string(), |t| format!("{t:+.4}"));
            lines.push(format!(
                "{:>4} {:>5} {:>6} {:>6} {:>10} {:>10.4} {:>6} {:>9} {:>9} {:>9} {:>7.1}  [{:.1}, {:.1}]",
                rank + 1,
                r.group,
                r.representative,
                r.chrono_rank,
                r.weight,
                r.distance_to_centroid,
                skip,
                format!("{:+.4}", r.pks_term_pct),
                pkp,
                format!("{:+.4}", r.total_term_pct),
                share,
                r.member_mean_ci_low,
                r.member_mean_ci_high,
            ));
            if share > DOMINANCE_THRESHOLD_PCT {
                warnings.push(format!(
                    "WARNING: group {} (representative {}) contributes {share:.1}% of the total \
                     error (> {DOMINANCE_THRESHOLD_PCT:.0}%) — raise K or inspect its representative",
                    r.group, r.representative
                ));
            }
        }
        lines.extend(warnings);
        lines
    }

    /// Compares this (baseline) artifact with `current` for CI accuracy
    /// gating. This is the attribution branch of `pka obs diff`.
    ///
    /// Exact comparisons (any change is a regression): workload, kind,
    /// group count, and each group's representative — a representative
    /// swap means the clustering itself changed. Tolerance comparisons
    /// (`error_tol_pct` absolute percent points): `pks_err_pct`,
    /// `pka_err_pct` and `dram_util_pct`. Per-group weights are reported
    /// informationally (they legitimately grow with stream length) and
    /// never flag on their own.
    pub fn diff(&self, current: &ErrorAttribution, error_tol_pct: f64) -> DiffReport {
        let mut report = DiffReport::default();
        push_exact(
            &mut report,
            "workload",
            Some(self.workload.clone()),
            Some(current.workload.clone()),
        );
        push_exact(
            &mut report,
            "kind",
            Some(self.kind.clone()),
            Some(current.kind.clone()),
        );
        let (bg, cg) = (&self.groups, &current.groups);
        push_exact(
            &mut report,
            "selected_k",
            Some(bg.len().to_string()),
            Some(cg.len().to_string()),
        );
        push_scalar(
            &mut report,
            "pks_err_pct",
            Some(self.pks_err_pct),
            Some(current.pks_err_pct),
            error_tol_pct,
        );
        push_scalar(
            &mut report,
            "pka_err_pct",
            self.pka_err_pct,
            current.pka_err_pct,
            error_tol_pct,
        );
        push_scalar(
            &mut report,
            "dram_util_pct",
            self.dram_util_pct,
            current.dram_util_pct,
            error_tol_pct,
        );
        let render = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        for i in 0..bg.len().max(cg.len()) {
            let rep = |g: Option<&GroupAttribution>| g.map(|g| g.representative.to_string());
            push_exact(
                &mut report,
                &format!("group{i}.representative"),
                rep(bg.get(i)),
                rep(cg.get(i)),
            );
            // Weights drift legitimately (longer streams); informational only.
            let weight = |g: Option<&GroupAttribution>| g.map(|g| g.weight);
            report.entries.push(DiffEntry {
                kind: "attribution",
                name: format!("group{i}.weight"),
                base: render(weight(bg.get(i))),
                current: render(weight(cg.get(i))),
                delta_pct: None,
                regression: false,
            });
        }
        report
    }
}

fn push_scalar(
    report: &mut DiffReport,
    name: &str,
    base: Option<f64>,
    current: Option<f64>,
    tol_points: f64,
) {
    let render = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let (delta, regression) = match (base, current) {
        (Some(b), Some(c)) => (Some(c - b), (c - b).abs() > tol_points),
        (Some(_), None) => (None, true), // reported value disappeared
        (None, Some(_)) => (None, false), // new value: informational
        (None, None) => (None, false),
    };
    report.entries.push(DiffEntry {
        kind: "attribution",
        name: name.to_string(),
        base: render(base),
        current: render(current),
        delta_pct: delta,
        regression,
    });
}

fn push_exact(report: &mut DiffReport, name: &str, base: Option<String>, current: Option<String>) {
    let regression = match (&base, &current) {
        (Some(b), Some(c)) => b != c,
        (Some(_), None) => true,
        _ => false,
    };
    report.entries.push(DiffEntry {
        kind: "attribution",
        name: name.to_string(),
        base: base.unwrap_or_else(|| "-".to_string()),
        current: current.unwrap_or_else(|| "-".to_string()),
        delta_pct: None,
        regression,
    });
}

/// Builds a selection-kind attribution: the truth is the profiled members'
/// measured cycles, so each group's signed term is its representative
/// scaled by the *profiled* member count against the members' total —
/// exactly the quantity [`Selection::error_pct`] aggregates. Valid at any
/// point of a streaming run: tail classification only grows the projection
/// weights, never the profiled population.
///
/// # Panics
///
/// Panics when `provenance.len() != selection.k()`.
pub fn selection_attribution(
    workload: &str,
    selection: &Selection,
    provenance: &[GroupProvenance],
) -> ErrorAttribution {
    assert_eq!(
        provenance.len(),
        selection.k(),
        "one provenance entry per group"
    );
    let reference = selection.reference_cycles();
    let reference_f = reference as f64;
    let groups: Vec<GroupAttribution> = selection
        .groups()
        .iter()
        .zip(provenance)
        .enumerate()
        .map(|(i, (g, p))| {
            let scaled = g.representative_cycles() as f64 * g.profiled_count() as f64;
            let term = if reference == 0 {
                0.0
            } else {
                (scaled - g.member_cycles() as f64) / reference_f * 100.0
            };
            GroupAttribution {
                group: i,
                representative: g.representative().index(),
                chrono_rank: p.chrono_rank,
                distance_to_centroid: p.distance_to_centroid,
                weight: g.count(),
                profiled_count: g.profiled_count(),
                member_cycles: g.member_cycles(),
                member_mean_ci_low: p.member_mean_ci_low,
                member_mean_ci_high: p.member_mean_ci_high,
                rep_cycles_pks: g.representative_cycles(),
                rep_cycles_pka: None,
                skip_ratio: None,
                pks_term_pct: term,
                pkp_term_pct: None,
                total_term_pct: term,
                dram_util_pct: None,
                dram_share_pct: None,
            }
        })
        .collect();
    let projected_profiled: u64 = selection
        .groups()
        .iter()
        .map(|g| g.representative_cycles() * g.profiled_count())
        .sum();
    ErrorAttribution {
        schema: ATTRIBUTION_SCHEMA.to_string(),
        workload: workload.to_string(),
        kind: "selection".to_string(),
        reference_cycles: reference,
        pks_projected_cycles: selection.projected_cycles(),
        pka_projected_cycles: None,
        pks_err_signed_pct: signed_pct(projected_profiled as f64, reference_f),
        pks_err_pct: selection.error_pct(),
        pka_err_signed_pct: None,
        pka_err_pct: None,
        dram_util_pct: None,
        groups,
    }
}

/// Builds a simulation-kind attribution against silicon truth.
///
/// Each group's share of the silicon total is its profiled members'
/// measured cycles plus a proportional share of the residual (silicon
/// cycles not covered by detailed profiling — the two-level classified
/// tail, apportioned by classified counts). The PKS term scales the fully
/// simulated representative by the group weight against that share; the PKP
/// term is the stop-rule projection minus the full simulation, scaled by
/// the weight. Both telescope: the signed sums reproduce the
/// `SimulationReport`'s `pks_error_pct` / `pka_error_pct`.
///
/// # Panics
///
/// Panics when `reps` or `provenance` do not have one entry per group.
pub fn simulation_attribution(
    workload: &str,
    selection: &Selection,
    provenance: &[GroupProvenance],
    silicon_cycles: u64,
    reps: &[RepSimulation],
) -> ErrorAttribution {
    assert_eq!(reps.len(), selection.k(), "one simulation sample per group");
    assert_eq!(
        provenance.len(),
        selection.k(),
        "one provenance entry per group"
    );
    let silicon = silicon_cycles as f64;
    let member_total: u64 = selection.groups().iter().map(|g| g.member_cycles()).sum();
    let classified_total: u64 = selection
        .groups()
        .iter()
        .map(|g| g.count() - g.profiled_count())
        .sum();
    let residual = silicon - member_total as f64;

    // Accumulate the DRAM reduction in group order with the exact fold the
    // pipeline uses, so the reported utilisation is reproduced bit-for-bit.
    let mut dram_weighted = 0.0f64;
    let mut dram_weight = 0.0f64;
    for r in reps {
        dram_weighted += r.dram_util_pct * r.pka_cycles as f64;
        dram_weight += r.pka_cycles as f64;
    }
    let dram_util = dram_weighted / dram_weight.max(1e-12);

    let groups: Vec<GroupAttribution> = selection
        .groups()
        .iter()
        .zip(provenance)
        .zip(reps)
        .enumerate()
        .map(|(i, ((g, p), r))| {
            let classified = g.count() - g.profiled_count();
            let truth_share = if classified_total > 0 {
                classified as f64 / classified_total as f64
            } else if member_total > 0 {
                g.member_cycles() as f64 / member_total as f64
            } else if i == 0 {
                1.0
            } else {
                0.0
            };
            let truth = g.member_cycles() as f64 + residual * truth_share;
            let (pks_term, pkp_term) = if silicon_cycles == 0 {
                (0.0, 0.0)
            } else {
                (
                    (r.pks_cycles as f64 * g.count() as f64 - truth) / silicon * 100.0,
                    (r.pka_cycles as f64 - r.pks_cycles as f64) * g.count() as f64 / silicon
                        * 100.0,
                )
            };
            GroupAttribution {
                group: i,
                representative: g.representative().index(),
                chrono_rank: p.chrono_rank,
                distance_to_centroid: p.distance_to_centroid,
                weight: g.count(),
                profiled_count: g.profiled_count(),
                member_cycles: g.member_cycles(),
                member_mean_ci_low: p.member_mean_ci_low,
                member_mean_ci_high: p.member_mean_ci_high,
                rep_cycles_pks: r.pks_cycles,
                rep_cycles_pka: Some(r.pka_cycles),
                skip_ratio: Some(r.simulated_cycles as f64 / r.pka_cycles.max(1) as f64),
                pks_term_pct: pks_term,
                pkp_term_pct: Some(pkp_term),
                total_term_pct: pks_term + pkp_term,
                dram_util_pct: Some(r.dram_util_pct),
                dram_share_pct: Some(
                    r.dram_util_pct * r.pka_cycles as f64 / dram_weight.max(1e-12),
                ),
            }
        })
        .collect();

    let pks_projected: u64 = selection
        .groups()
        .iter()
        .zip(reps)
        .map(|(g, r)| r.pks_cycles * g.count())
        .sum();
    let pka_projected: u64 = selection
        .groups()
        .iter()
        .zip(reps)
        .map(|(g, r)| r.pka_cycles * g.count())
        .sum();
    ErrorAttribution {
        schema: ATTRIBUTION_SCHEMA.to_string(),
        workload: workload.to_string(),
        kind: "simulation".to_string(),
        reference_cycles: silicon_cycles,
        pks_projected_cycles: pks_projected,
        pka_projected_cycles: Some(pka_projected),
        pks_err_signed_pct: signed_pct(pks_projected as f64, silicon),
        pks_err_pct: pka_stats::error::abs_pct_error(pks_projected as f64, silicon),
        pka_err_signed_pct: Some(signed_pct(pka_projected as f64, silicon)),
        pka_err_pct: Some(pka_stats::error::abs_pct_error(
            pka_projected as f64,
            silicon,
        )),
        dram_util_pct: Some(dram_util),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(i: usize, rep: u64, weight: u64, pks: f64, pkp: f64) -> GroupAttribution {
        GroupAttribution {
            group: i,
            representative: rep,
            chrono_rank: 0,
            distance_to_centroid: 0.25,
            weight,
            profiled_count: weight,
            member_cycles: 1_000 * weight,
            member_mean_ci_low: 990.0,
            member_mean_ci_high: 1_010.0,
            rep_cycles_pks: 1_000,
            rep_cycles_pka: Some(995),
            skip_ratio: Some(0.4),
            pks_term_pct: pks,
            pkp_term_pct: Some(pkp),
            total_term_pct: pks + pkp,
            dram_util_pct: None,
            dram_share_pct: None,
        }
    }

    fn artifact(groups: Vec<GroupAttribution>) -> ErrorAttribution {
        ErrorAttribution {
            schema: ATTRIBUTION_SCHEMA.to_string(),
            workload: "synthetic:1000".to_string(),
            kind: "simulation".to_string(),
            reference_cycles: 1_000_000,
            pks_projected_cycles: 1_010_000,
            pka_projected_cycles: Some(1_005_000),
            pks_err_signed_pct: 1.0,
            pks_err_pct: 1.0,
            pka_err_signed_pct: Some(0.5),
            pka_err_pct: Some(0.5),
            dram_util_pct: Some(12.0),
            groups,
        }
    }

    fn object(value: Value) -> Map {
        match value {
            Value::Object(m) => m,
            other => panic!("expected an object, got {other}"),
        }
    }

    #[test]
    fn explain_ranks_by_absolute_contribution_and_flags_dominance() {
        let doc = artifact(vec![
            group(0, 3, 100, 0.1, 0.0),
            group(1, 7, 50, -2.0, -0.5),
            group(2, 9, 10, 0.3, 0.1),
        ]);
        let lines = doc.explain();
        let rank1 = lines
            .iter()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap();
        assert!(rank1.contains(" 1 "), "group 1 leads: {rank1}");
        // |−2.5| of |−2.5|+0.1+0.4 = 83% > 50% dominance.
        let warning = lines.last().unwrap();
        assert!(warning.starts_with("WARNING:"), "{warning}");
        assert!(warning.contains("group 1"), "{warning}");
        assert!(warning.contains("representative 7"), "{warning}");
    }

    #[test]
    fn explain_without_dominant_group_has_no_warning() {
        let doc = artifact(vec![group(0, 3, 100, 0.5, 0.0), group(1, 7, 50, -0.5, 0.0)]);
        assert!(doc.explain().iter().all(|l| !l.starts_with("WARNING:")));
    }

    #[test]
    fn reader_rejects_foreign_or_missing_schema() {
        let mut doc = object(artifact(vec![group(0, 3, 100, 0.5, 0.1)]).to_json_value());
        doc.insert("schema".to_string(), Value::from("other/v1"));
        let err = ErrorAttribution::from_json_value(&Value::Object(doc.clone()))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("`schema`") && err.contains("other/v1"),
            "{err}"
        );
        doc.remove("schema");
        let err = ErrorAttribution::from_json_value(&Value::Object(doc))
            .unwrap_err()
            .to_string();
        assert!(err.contains("`schema`: missing"), "{err}");
        assert!(ErrorAttribution::from_json_value(&Value::Object(Map::new())).is_err());
    }

    #[test]
    fn reader_names_a_missing_group_field() {
        let doc = artifact(vec![group(0, 3, 100, 0.5, 0.1), group(1, 4, 10, 0.1, 0.0)]);
        let mut value = object(doc.to_json_value());
        let mut groups = value["groups"].as_array().unwrap().clone();
        let mut second = object(groups[1].clone());
        second.remove("total_term_pct");
        groups[1] = Value::Object(second);
        value.insert("groups".to_string(), Value::Array(groups));
        let err = ErrorAttribution::from_json_value(&Value::Object(value))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("group 1") && err.contains("`total_term_pct`: missing"),
            "{err}"
        );
        // The untouched artifact reads back unchanged.
        assert_eq!(
            ErrorAttribution::from_json_value(&doc.to_json_value()).unwrap(),
            doc
        );
    }

    #[test]
    fn self_diff_is_clean() {
        let doc = artifact(vec![group(0, 3, 100, 0.5, 0.1)]);
        assert_eq!(doc.diff(&doc, 0.5).regressions(), 0);
    }

    #[test]
    fn representative_swap_is_a_regression() {
        let base = artifact(vec![group(0, 3, 100, 0.5, 0.1)]);
        let swapped = artifact(vec![group(0, 4, 100, 0.5, 0.1)]);
        let report = base.diff(&swapped, 0.5);
        assert_eq!(report.regressions(), 1);
        let e = report.entries.iter().find(|e| e.regression).unwrap();
        assert_eq!(e.name, "group0.representative");
    }

    #[test]
    fn error_drift_past_tolerance_flags_but_weight_growth_does_not() {
        let base = artifact(vec![group(0, 3, 100, 0.5, 0.1)]);
        let mut drifted = artifact(vec![group(0, 3, 900, 0.5, 0.1)]);
        drifted.pks_err_pct = 2.1; // +1.1 > 0.5 tol
        let report = base.diff(&drifted, 0.5);
        assert_eq!(report.regressions(), 1);
        let e = report.entries.iter().find(|e| e.regression).unwrap();
        assert_eq!(e.name, "pks_err_pct");
        let w = report
            .entries
            .iter()
            .find(|e| e.name == "group0.weight")
            .unwrap();
        assert!(!w.regression && w.base != w.current);
    }

    #[test]
    fn group_count_change_is_a_regression() {
        let base = artifact(vec![group(0, 3, 100, 0.5, 0.1)]);
        let split = artifact(vec![group(0, 3, 60, 0.3, 0.1), group(1, 9, 40, 0.2, 0.0)]);
        let report = base.diff(&split, 0.5);
        assert_eq!(report.regressions(), 1, "only the K change flags");
        assert!(report
            .entries
            .iter()
            .any(|e| e.name == "selected_k" && e.regression));
        // The new group's representative row is informational, mirroring
        // the new-checksum convention in manifest diffs.
        let new_rep = report
            .entries
            .iter()
            .find(|e| e.name == "group1.representative")
            .unwrap();
        assert!(!new_rep.regression && new_rep.base == "-");
    }
}
