//! Golden-file tests: the checked-in `results/*.json` record sets must be
//! reproducible from the current code.
//!
//! Numbers are compared at 1e-9 *relative* tolerance — tight enough that
//! any algorithmic drift (a changed seed, a reordered float reduction, a
//! modified stopping rule) fails, loose enough to ignore a serialisation
//! round-trip. In practice the pipeline is bitwise deterministic and the
//! observed error is exactly zero.

use pka_bench::{tables, ExperimentRunner, RunnerOptions};
use pka_workloads::all_workloads;
use serde_json::Value;

/// Relative tolerance for golden numeric comparisons.
const REL_TOL: f64 = 1e-9;

/// The Table 4 rows the workspace suite regenerates.
const SAMPLE: [&str; 4] = ["gauss_208", "bfs65536", "cutcp", "fdtd2d"];

fn golden(name: &str) -> Value {
    let path = format!(
        "{}/../../results/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let payload = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {path}: {e}"));
    serde_json::from_str(&payload).expect("golden file parses")
}

/// Recursively compares two JSON values; numbers at `REL_TOL` relative
/// tolerance, everything else exactly.
fn assert_json_close(actual: &Value, expected: &Value, path: &str) {
    match (actual, expected) {
        (Value::Number(a), Value::Number(b)) => {
            let (a, b) = (a.as_f64(), b.as_f64());
            let scale = b.abs().max(1e-300);
            assert!(
                (a - b).abs() / scale <= REL_TOL,
                "{path}: {a} vs golden {b} (rel {})",
                (a - b).abs() / scale
            );
        }
        (Value::Array(a), Value::Array(b)) => {
            assert_eq!(a.len(), b.len(), "{path}: length {} vs {}", a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_json_close(x, y, &format!("{path}[{i}]"));
            }
        }
        (Value::Object(a), Value::Object(b)) => {
            let keys: Vec<_> = a.keys().collect();
            let expected_keys: Vec<_> = b.keys().collect();
            assert_eq!(keys, expected_keys, "{path}: key set differs");
            for (k, x) in a {
                assert_json_close(x, &b[k.as_str()], &format!("{path}.{k}"));
            }
        }
        _ => assert_eq!(actual, expected, "{path}"),
    }
}

#[test]
fn table3_matches_golden() {
    // Table 3 is the full PKS output record (selected ids, group counts,
    // error) for its eight showcase workloads; recompute it end to end.
    let runner = ExperimentRunner::new(RunnerOptions::default());
    let report = tables::table3(&runner).expect("table3 generates");
    assert_json_close(&report.data, &golden("table3"), "table3");
}

#[test]
fn table4_sample_rows_match_golden() {
    // Whole Table 4 records — silicon columns on three generations and the
    // simulation columns on the Volta model — for a sample cheap enough for
    // a debug build. `gauss_208` and `bfs65536` run the full-simulation
    // baseline, so the baseline, PKS and PKA columns are all pinned here;
    // the `#[ignore]`d regeneration below covers every row.
    let rows = golden("table4");
    let rows = rows.as_array().expect("table4 is a record array");
    let runner = ExperimentRunner::new(RunnerOptions::default());
    let all = all_workloads();
    for name in SAMPLE {
        let expected = rows
            .iter()
            .find(|r| r["workload"].as_str() == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from golden table4"));
        let w = all.iter().find(|w| w.name() == name).expect("known workload");
        let row = tables::table4_row(&runner, w).expect("row generates");
        assert_json_close(&row, expected, &format!("table4.{name}"));
    }
}

#[test]
#[ignore = "full Table 4 regeneration: minutes in release, far longer in debug; run with `cargo test --release -p pka-bench -- --ignored`"]
fn table4_matches_golden_in_full() {
    let runner = ExperimentRunner::new(RunnerOptions::default());
    let report = tables::table4(&runner).expect("table4 generates");
    assert_json_close(&report.data, &golden("table4"), "table4");
}
