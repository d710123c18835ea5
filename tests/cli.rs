//! The `h2push` binary end to end. Its usage path: whatever is wrong with
//! an `experiment`, `serve` or `load` invocation, it prints the usage
//! lines on stderr, nothing on stdout, and exits 2 — the way a bad site
//! or strategy always has. (The `crates/bench` parser this replaced
//! indexed past the end of `argv` on a trailing `--runs` and panicked on
//! unknown flags.) And live mode: `serve` and `load` over loopback TCP.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn h2push(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_h2push")).args(args).output().expect("spawn")
}

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
        let out = h2push(args);
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
    let out = h2push(&["experiment", "table1", "--quick"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Table 1"));
    // The provenance line — wall time, pool width, scale — goes to stderr,
    // and a run in which no cell lost a repetition reports nothing else.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (line, rest) = stderr.split_once('\n').expect("one stderr line");
    assert!(line.starts_with("# table1: ") && line.contains(" workers, scale 12\u{d7}5, seed 42"));
    assert_eq!(rest, "", "{stderr}");
}

#[test]
fn the_provenance_line_counts_the_declared_replays() {
    // Table 1 prints specs and replays nothing; fig4 runs 10 sites × 4
    // arms (no push, the A/A arm, push all, custom) × 5 runs.
    for (id, replays) in [("table1", 0), ("fig4", 200)] {
        let out = h2push(&["experiment", id, "--quick"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{id}: {stderr}");
        assert!(stderr.ends_with(&format!(", seed 42, {replays} replays\n")), "{id}: {stderr}");
    }
}

#[test]
fn har_exports_one_entry_per_discovered_resource_and_marks_the_accepted_pushes() {
    use h2push::strategies::{paper_strategy, PaperStrategy};
    use h2push::testbed::{ReplayConfig, RunPlan};
    let out = h2push(&["har", "w16", "--strategy", "push-critical-opt"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let har: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("HAR is JSON");
    let log = &har["log"];
    assert_eq!(log["version"], "1.2");
    assert_eq!(log["creator"]["name"], "h2push");
    assert_eq!(log["pages"].as_array().map(Vec::len), Some(1));
    assert_eq!(log["pages"][0]["title"], "w16-twitter-crit");
    let entries = log["entries"].as_array().expect("entries");
    for entry in entries {
        assert_eq!(entry["pageref"], "page_1");
        assert!(entry["startedDateTime"].as_str().is_some_and(|t| t.starts_with("2018-12-04T")));
        assert!(entry["time"].as_f64().is_some_and(|t| t >= 0.0), "{entry}");
        assert!(entry["request"]["url"].as_str().is_some_and(|u| u.starts_with("https://")));
        assert_eq!(entry["response"]["status"], 200);
        assert!(entry["timings"]["receive"].as_f64().is_some(), "{entry}");
    }

    // The same load in-process: one entry per resource the browser
    // discovered, and exactly its accepted pushes are marked pushed.
    let (variant, strategy) =
        paper_strategy(&h2push::webmodel::realworld_site(16), PaperStrategy::PushCriticalOptimized);
    let run = RunPlan::new(&variant).config(ReplayConfig::testbed(strategy)).traced().run_one();
    let run = run.expect("replay completes");
    let spans = run.timeline.expect("traced").resource_spans();
    let discovered = spans.iter().filter(|span| span.discovered.is_some()).count();
    assert_eq!(entries.len(), discovered);
    let pushed = entries.iter().filter(|entry| entry["_pushed"] == true).count();
    assert!(pushed > 0, "push-critical-opt pushed nothing");
    assert_eq!(pushed, run.outcome.load.pushed_count as usize);
}

#[test]
fn bad_serve_and_load_invocations_print_usage_and_exit_2() {
    for args in [
        &["load", "w1"][..],                                        // no --addr
        &["load", "w1", "--addr"],                                  // value missing
        &["serve", "w1", "--max-conns", "some"],                    // value malformed
        &["serve", "w1", "--stats-json", "s.json"],                 // unknown flag
        &["load", "w1", "--addr", "127.0.0.1:9", "--timeout", "5"], // unknown flag
        &["serve", "w1", "--strategy", "push-first:3"],             // unknown strategy
        &["load", "w1", "--addr", "127.0.0.1:9", "--strategy", "push-some"],
    ] {
        let out = h2push(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(stderr.contains("usage: h2push serve <site>"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: h2push load <site> --addr A"), "{args:?}: {stderr}");
    }
}

/// `h2push serve <args>` on a free loopback port: the running server and
/// the address its first line announces.
fn serve(args: &[&str]) -> (Child, String) {
    let mut server = Command::new(env!("CARGO_BIN_EXE_h2push"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    let stdout = server.stdout.as_mut().expect("piped stdout");
    BufReader::new(stdout).read_line(&mut line).expect("read the first line");
    let addr = line.strip_prefix("listening ").unwrap_or_else(|| panic!("serve said {line:?}"));
    (server, addr.trim().to_string())
}

/// `h2push load <site> --addr <addr> <args>`, which must exit `code`.
fn load(site: &str, addr: &str, args: &[&str], code: i32) -> Output {
    let out = h2push(&[&["load", site, "--addr", addr][..], args].concat());
    assert_eq!(out.status.code(), Some(code), "{}", String::from_utf8_lossy(&out.stderr));
    out
}

#[test]
fn a_served_site_loads_with_push_and_a_second_load_reuses_parked_machines() {
    let stats = std::env::temp_dir().join(format!("h2push-cli-{}.json", std::process::id()));
    let path = stats.to_str().expect("utf-8 temp path");
    let (server, addr) =
        serve(&["random:7", "--strategy", "push-all", "--duration", "3", "-o", path]);
    for _ in 0..2 {
        load("random:7", &addr, &["--strategy", "push-all", "--expect-push"], 0);
    }
    // At its deadline the server drains, writes its stats and exits 0.
    assert!(server.wait_with_output().expect("serve exits").status.success());
    let text = std::fs::read_to_string(&stats).expect("stats written");
    std::fs::remove_file(&stats).ok();
    let doc: serde_json::Value = serde_json::from_str(&text).expect("stats are JSON");
    let accepted = doc["accepted"].as_u64().expect("accepted");
    assert!(accepted > 0 && doc["closed"]["clean"] == accepted, "{doc}");
    assert_eq!(doc["close_reasons"].to_string(), format!("{{\"clean\":{accepted}}}"));
    assert!(doc["machines_reused"].as_u64() >= Some(1), "{doc}");
}

#[test]
fn an_optimized_variant_is_served_and_loaded_with_push() {
    let (server, addr) = serve(&["w1", "--strategy", "push-critical-opt", "--duration", "3"]);
    let out = load("w1", &addr, &["--strategy", "push-critical-opt", "--expect-push"], 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("site w1-wikipedia-crit: finished=true"), "{stdout}");
    assert!(server.wait_with_output().expect("serve exits").status.success());
}

#[test]
fn a_load_the_accept_gate_sheds_exits_3_at_once() {
    let (mut server, addr) = serve(&["w1", "--max-conns", "0", "--duration", "3"]);
    let started = Instant::now();
    let out = load("w1", &addr, &[], 3);
    assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());
    assert!(String::from_utf8_lossy(&out.stderr).contains("server shed 1 connection(s)"));
    server.kill().ok();
    server.wait().ok();
}
