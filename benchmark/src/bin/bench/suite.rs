//! The multi-process commands: `run`, `layers`, `aa`. Every workload gets
//! a child process of its own, so `peak_rss_mb` and set-up are per
//! workload and one workload's warm caches never help the next.

use h2push_benchmark::cli::{child_args, Args};
use h2push_benchmark::provenance;
use h2push_benchmark::spec::{END_TO_END, EXACT_LAYER, PER_LAYER};
use h2push_benchmark::stats;
use h2push_benchmark::workloads::WORKLOADS;
use h2push_benchmark::{package_dir, package_subdir};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The workloads a command covers: the one named, or all five.
fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

/// Run `program child-args…`, echoing its output; returns whether it
/// exited 0 and the JSON after its `DETAIL ` line.
fn child(program: &Path, args: &Args, workload: &str, trace: bool) -> (bool, Option<Value>) {
    let out = Command::new(program)
        .args(child_args(args, workload, trace))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!("bench: cannot run {}: {e}", program.display());
            return (false, None);
        }
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in text.lines() {
        match line.strip_prefix("DETAIL ") {
            Some(json) => detail = serde_json::from_str::<Value>(json).ok(),
            // The one-line result is for the driver; `run` prints tables.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    (out.status.success() && detail.is_some(), detail)
}

/// Build `bench-layers` beside this executable (same profile, same target
/// directory) and return its path. It is a separate binary so that a
/// layer's API change can break it without breaking `bench`.
fn build_layers() -> Option<PathBuf> {
    let me = std::env::current_exe().ok()?;
    let dir = me.parent()?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut build = Command::new(cargo);
    build.args(["build", "--offline", "--quiet", "--bin", "bench-layers", "--manifest-path"]);
    build.arg(package_dir().join("Cargo.toml"));
    if dir.file_name().is_some_and(|d| d == "release") {
        build.arg("--release");
    }
    // Cargo's own chatter must not reach the stdout the driver parses.
    let built = build.stdin(Stdio::null()).stdout(Stdio::null()).status();
    if !built.is_ok_and(|s| s.success()) {
        eprintln!("bench: building bench-layers failed");
        return None;
    }
    Some(dir.join("bench-layers"))
}

/// `--trace 1`: hand this run to `bench-layers`, which prints the result
/// line itself.
pub fn exec_layers(args: &Args, workload: &str) -> bool {
    let Some(layers) = build_layers() else { return false };
    Command::new(layers)
        .args(child_args(args, workload, true))
        .stdin(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// One suite: every selected workload through `program`. Returns the
/// verdict and the `workload → detail` object.
fn suite(program: &Path, args: &Args, trace: bool) -> (bool, Value) {
    let mut ok = true;
    let mut details = Vec::new();
    for workload in selected(args) {
        println!("--- {workload}{}", if trace { " (traced)" } else { "" });
        let (child_ok, detail) = child(program, args, workload, trace);
        ok &= child_ok;
        details.push((workload.to_string(), detail.unwrap_or(Value::Null)));
    }
    (ok, Value::Object(details))
}

fn record(args: &Args, workloads: Value) -> Value {
    json!({
        "provenance": provenance::capture(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": workloads,
    })
}

/// Write `text` to `results/<name>` unless this is a smoke or forced-
/// failure run (whose numbers are not measurements).
fn write_result(args: &Args, name: &str, text: &str) {
    if args.smoke || args.force_fail {
        return;
    }
    let path = package_subdir("results").join(name);
    match std::fs::write(&path, text) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("bench: cannot write {}: {e}", path.display()),
    }
}

fn write_record(args: &Args, name: &str, workloads: Value) {
    let text = serde_json::to_string_pretty(&record(args, workloads)).expect("serializes");
    write_result(args, name, &(text + "\n"));
}

/// `bench run`: the end-to-end numbers.
pub fn run(args: &Args) -> bool {
    let me = std::env::current_exe().expect("own path");
    let (ok, workloads) = suite(&me, args, false);
    let name = format!("{}-seed{}.json", provenance::git_rev(), args.seed);
    write_record(args, &name, workloads);
    println!("{}", if ok { "all checks passed" } else { "SOME CHECKS FAILED" });
    ok
}

/// `bench layers`: the traced run and the layer probes.
pub fn layers(args: &Args) -> bool {
    let Some(program) = build_layers() else { return false };
    let (ok, workloads) = suite(&program, args, true);
    let name = format!("{}-seed{}-layers.json", provenance::git_rev(), args.seed);
    write_record(args, &name, workloads);
    ok
}

fn metric_of(suite: &Value, workload: &str, name: &str) -> Option<f64> {
    suite.get(workload)?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `|y − x| ÷ |x|`, 0 for equal values (0 and 0 included).
fn relative_difference(x: f64, y: f64) -> f64 {
    if x == y {
        0.0
    } else {
        (y - x).abs() / x.abs().max(f64::MIN_POSITIVE)
    }
}

/// `bench aa`: everything twice from the same code; every end-to-end
/// metric must agree within its bound, every exact per-layer metric to
/// the digit. (Allocation counts are not exact: std's per-process hash
/// seeds move a few `HashMap` growths, ± 0.3 % on the serial workloads.)
pub fn aa(args: &Args) -> bool {
    let me = std::env::current_exe().expect("own path");
    let Some(layers) = build_layers() else { return false };
    let mut ok = true;
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        println!("=== set {set}");
        let (e2e_ok, e2e) = suite(&me, args, false);
        let (layers_ok, per_layer) = suite(&layers, args, true);
        ok &= e2e_ok && layers_ok;
        sets.push((e2e, per_layer));
    }
    let (a, b) = (&sets[0], &sets[1]);

    let mut lines = vec![format!(
        "A/A comparison, seed {}, {} s per run, {}",
        args.seed,
        args.seconds,
        serde_json::to_string(&provenance::capture()).expect("serializes")
    )];
    lines.push(format!(
        "{:9} {:40} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff %", "bound %"
    ));
    for workload in selected(args) {
        for m in END_TO_END {
            let (Some(x), Some(y)) =
                (metric_of(&a.0, workload, m.name), metric_of(&b.0, workload, m.name))
            else {
                continue;
            };
            let diff = relative_difference(x, y);
            let pass = diff <= m.bound;
            ok &= pass;
            lines.push(format!(
                "{workload:9} {:40} {x:>14.4} {y:>14.4} {:>8.2} {:>7.1}  {}",
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            ));
        }
        for (name, _, _) in PER_LAYER {
            let (Some(x), Some(y)) =
                (metric_of(&a.1, workload, name), metric_of(&b.1, workload, name))
            else {
                continue;
            };
            let diff = relative_difference(x, y);
            let verdict = match (EXACT_LAYER.contains(&name), x == y) {
                (true, true) => "PASS (exact)",
                (true, false) => {
                    ok = false;
                    "FAIL (exact)"
                }
                (false, _) => "-",
            };
            lines.push(format!(
                "{workload:9} {name:40} {x:>14.4} {y:>14.4} {:>8.2} {:>7}  {verdict}",
                diff * 100.0,
                "-"
            ));
        }
    }
    lines.push(if ok { "A/A PASS".into() } else { "A/A FAIL".into() });
    let text = lines.join("\n") + "\n";
    print!("{text}");
    write_result(args, &format!("aa-{}.txt", provenance::git_rev()), &text);
    ok
}

/// `bench spread`: the driver's acceptance rule. Ten runs of every
/// workload, each with another seed; for every manifest metric, the
/// distance between the first and third quartile of the ten values as a
/// share of their median must stay within the metric's bound (`setup_s`
/// excepted), and should stay within a third of it.
pub fn spread(args: &Args) -> bool {
    const SEEDS: std::ops::RangeInclusive<u64> = 1..=10;
    let me = std::env::current_exe().expect("own path");
    let mut ok = true;
    let runs: Vec<Value> = SEEDS
        .map(|seed| {
            println!("=== seed {seed}");
            let (run_ok, details) = suite(&me, &Args { seed, ..args.clone() }, false);
            ok &= run_ok;
            details
        })
        .collect();

    let mut lines = vec![format!(
        "Spread over seeds {SEEDS:?}, {} s per run, {}",
        args.seconds,
        serde_json::to_string(&provenance::capture()).expect("serializes")
    )];
    lines.push(format!(
        "{:9} {:22} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "min", "max", "spread %", "bound %"
    ));
    for workload in selected(args) {
        for m in END_TO_END.iter().filter(|m| m.manifest) {
            let values: Vec<f64> =
                runs.iter().filter_map(|run| metric_of(run, workload, m.name)).collect();
            if values.len() < 2 {
                continue;
            }
            let spread = stats::spread(&values);
            let verdict = match spread {
                s if s <= m.bound / 3.0 => "steady",
                s if s <= m.bound => "within the bound",
                _ if m.name == "setup_s" => "over (exempt)",
                _ => {
                    ok = false;
                    "OVER THE BOUND"
                }
            };
            lines.push(format!(
                "{workload:9} {:22} {:>14.4} {:>14.4} {:>14.4} {:>9.2} {:>7.1}  {verdict}",
                m.name,
                stats::median(&values),
                stats::min(&values),
                stats::max(&values),
                spread * 100.0,
                m.bound * 100.0
            ));
        }
    }
    let text = lines.join("\n") + "\n";
    print!("{text}");
    write_result(args, &format!("spread-{}.txt", provenance::git_rev()), &text);
    ok
}
