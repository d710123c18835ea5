//! The `bench` executable end to end: the contract's result line on a
//! healthy run, a non-zero exit when a correctness check fails.

use serde_json::Value;
use std::process::Command;

/// Run `bench <args>`; returns the exit verdict and the parsed last line.
fn bench(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("bench printed a result");
    (out.status.success(), serde_json::from_str(last).expect("the last line is JSON"))
}

#[test]
fn healthy_run_prints_every_manifest_metric_and_exits_zero() {
    let (ok, line) = bench(&[
        "--workload",
        "bulkpush",
        "--seed",
        "7",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(ok, "{line:?}");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Value::as_u64).is_some_and(|n| n >= 1));
    let metrics = line.get("metrics").expect("metrics");
    for m in h2push_benchmark::spec::END_TO_END.iter().filter(|m| m.manifest) {
        let entry = metrics.get(m.name).unwrap_or_else(|| panic!("{} missing", m.name));
        assert!(entry.get("value").and_then(Value::as_f64).is_some_and(|v| v > 0.0), "{}", m.name);
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
    }
}

#[test]
fn forced_failure_is_reported_and_exits_non_zero() {
    // A one-event watchdog budget fails every replay.
    let (ok, line) = bench(&[
        "--workload",
        "bulkpush",
        "--seed",
        "7",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--smoke",
        "--force-fail",
    ]);
    assert!(!ok, "a run whose replays all fail must not exit 0");
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    let (attempted, failed) = (
        line.get("attempted").and_then(Value::as_u64).expect("attempted"),
        line.get("failed").and_then(Value::as_u64).expect("failed"),
    );
    assert!(failed > 0 && failed <= attempted, "{failed} of {attempted}");
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench")).arg("--workload").arg("nope").output();
    assert_eq!(out.expect("bench runs").status.code(), Some(2));
}
