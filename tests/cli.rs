//! The `h2push` binary's usage path: whatever is wrong with an
//! `experiment` invocation, it prints the usage line and the list of
//! experiment ids on stderr, nothing on stdout, and exits 2 — the way a
//! bad site or strategy always has. (The `crates/bench` parser this
//! replaced indexed past the end of `argv` on a trailing `--runs` and
//! panicked on unknown flags.)

use std::process::Command;

#[test]
fn bad_experiment_invocations_print_usage_and_the_ids_and_exit_2() {
    for args in [
        &["experiment", "fig6", "--runs"][..],     // value missing
        &["experiment", "fig6", "--runs", "many"], // value malformed
        &["experiment", "fig2a", "--sites", "0"],  // nothing to summarise
        &["experiment", "fig6", "--threads", "2"], // unknown flag
        &["experiment", "fig7"],                   // unknown id
        &["experiment"],                           // no id
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_h2push")).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(stderr.contains("usage: h2push experiment <id>"), "{args:?}: {stderr}");
        for (id, _, _) in h2push::experiment::EXPERIMENTS {
            assert!(stderr.contains(id), "{args:?}: usage does not list {id}");
        }
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_good_invocation_prints_the_report_on_stdout() {
    let out = Command::new(env!("CARGO_BIN_EXE_h2push"))
        .args(["experiment", "table1", "--quick"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Table 1"));
    // The provenance line — wall time, pool width, scale — goes to stderr,
    // and a run in which no cell lost a repetition reports nothing else.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (line, rest) = stderr.split_once('\n').expect("one stderr line");
    assert!(line.starts_with("# table1: ") && line.contains(" workers, scale 12\u{d7}5, seed 42"));
    assert_eq!(rest, "", "{stderr}");
}
