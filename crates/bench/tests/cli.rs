//! Malformed arguments make the bench binaries exit 2 with a usage line,
//! never panic and never start a run.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn missing_value_is_a_usage_error() {
    assert_usage_error(env!("CARGO_BIN_EXE_table2"), &["--json"]);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(env!("CARGO_BIN_EXE_table_dpor"), &["--bogus"]);
}

#[test]
fn non_numeric_stride_is_a_usage_error() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_litmus_agreement"),
        &["--subsample", "x"],
    );
}

#[test]
fn non_numeric_timeout_is_a_usage_error() {
    assert_usage_error(env!("CARGO_BIN_EXE_herd_compare"), &["abc"]);
}
