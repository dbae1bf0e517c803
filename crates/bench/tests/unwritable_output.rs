//! An unwritable output path or a malformed option must fail before any
//! measuring starts: exit code 2 with a message, not a panic after (or
//! instead of) the whole sweep.

use std::process::Command;

fn missing_dir_path(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("lr-bench-no-such-dir-{}", std::process::id()));
    assert!(!dir.exists(), "{} must not exist", dir.display());
    dir.join(name).to_string_lossy().into_owned()
}

fn assert_exits_2_at_once(args: &[&str], expected_stderr: &str) {
    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_lr-bench"))
        .args(args)
        .output()
        .expect("run lr-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(expected_stderr), "{args:?}: {stderr}");
    assert!(
        started.elapsed().as_secs() < 10,
        "{args:?} measured before failing"
    );
}

#[test]
fn kernels_out_in_a_missing_directory_exits_2() {
    assert_exits_2_at_once(
        &["--quick", "--out", &missing_dir_path("x.json")],
        "cannot create output file",
    );
}

#[test]
fn serve_trace_out_in_a_missing_directory_exits_2() {
    let out = std::env::temp_dir().join(format!("lr-bench-serve-{}.json", std::process::id()));
    let out = out.to_string_lossy().into_owned();
    let trace = missing_dir_path("trace.json");
    assert_exits_2_at_once(
        &["serve", "--quick", "--out", &out, "--trace-out", &trace],
        "cannot create output file",
    );
    let _ = std::fs::remove_file(&out);
}

#[test]
fn compare_non_numeric_tolerance_exits_2_with_usage() {
    assert_exits_2_at_once(
        &[
            "compare",
            "--baseline",
            "BENCH_serve.baseline.json",
            "--current",
            "BENCH_serve.baseline.json",
            "--tolerance-pct",
            "abc",
        ],
        "usage: lr-bench compare",
    );
}

#[test]
fn serve_non_numeric_shards_exits_2_with_usage() {
    assert_exits_2_at_once(
        &["serve", "--quick", "--shards", "zero"],
        "usage: lr-bench serve",
    );
}

#[test]
fn serve_zero_shards_exits_2_with_usage() {
    assert_exits_2_at_once(
        &["serve", "--quick", "--shards", "0"],
        "usage: lr-bench serve",
    );
}
