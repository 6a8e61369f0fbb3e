//! The `tables` binary refuses arguments it does not understand: an unknown
//! flag or report name is a usage error, not a silently empty run.

use std::process::Command;

#[test]
fn unknown_flag_or_report_is_a_usage_error() {
    let out_dir = std::env::temp_dir().join(format!("pka_tables_cli_{}", std::process::id()));
    // `fig5` is a valid report, so only the retired flag can fail the run.
    for args in [&["--fast-math", "fig5"][..], &["bogus"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(["--quick", "--out"])
            .arg(&out_dir)
            .args(args)
            .output()
            .expect("tables runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{}`", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: tables"), "{args:?}: {stderr}");
        assert!(!out_dir.exists(), "{args:?} wrote {}", out_dir.display());
    }
}
