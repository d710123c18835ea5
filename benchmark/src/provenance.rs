//! Where a result came from: revision, toolchain, machine.

use serde_json::{json, Value};
use std::process::Command;

/// Trimmed stdout of `cmd args…`, or `"unknown"`.
fn output_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn git(args: &[&str]) -> String {
    let dir = crate::package_dir();
    let mut full = vec!["-C", dir.to_str().unwrap_or(".")];
    full.extend(args);
    output_of("git", &full)
}

/// Short git revision of the checkout the benchmark runs in (`"unknown"`
/// outside a work tree, as in the driver's checkout).
pub fn git_rev() -> String {
    git(&["rev-parse", "--short", "HEAD"])
}

/// Machine and build provenance. Never fails: a missing tool reads
/// `"unknown"`.
pub fn capture() -> Value {
    // `output_of` maps "no output" (a clean tree) and "no git" to "unknown".
    let dirty = git(&["status", "--porcelain"]) != "unknown";
    json!({
        "git_rev": git_rev(),
        "git_dirty": dirty,
        "rustc": output_of("rustc", &["-V"]),
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
    })
}
