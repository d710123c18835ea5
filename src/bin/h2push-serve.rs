//! `h2push-serve` — serve a webmodel corpus site over real TCP with any
//! push strategy, on the sans-IO live runtime.
//!
//! The serving half of live mode (the counterpart of `h2push-load`): the
//! same `ReplayServer` state machine the simulator replays answers real
//! sockets, so a strategy measured in the testbed can be exercised
//! against a real client byte-for-byte — under the live supervision
//! layer (accept gate, lifecycle deadlines, bounded output queues).
//!
//! ```text
//! h2push-serve [--addr 127.0.0.1:0] [--corpus top|random|push-users]
//!              [--seed N] [--strategy no-push|push-all|push-first:N]
//!              [--duration SECS]
//!              [--limits default|strict|permissive] [--max-conns N]
//!              [--preface-timeout-ms N] [--header-timeout-ms N]
//!              [--idle-timeout-ms N] [--write-stall-ms N]
//!              [--max-queue-bytes N] [--drain-ms N]
//!              [--stats-json PATH]
//! ```
//!
//! Prints `listening <addr>` once bound (scriptable: `--addr 127.0.0.1:0`
//! picks a free port) and serves until the duration elapses (default:
//! forever), then drains gracefully. On exit, prints the accumulated
//! server stats; `--stats-json` additionally writes them — including the
//! per-close-reason counters, every typed connection error, how many
//! connection machines were built and how many accepts reused a parked
//! one, and the poll / read / writev calls made — as JSON.

use h2push_h2proto::ConnLimits;
use h2push_strategies::{push_all, push_first_n, Strategy};
use h2push_testbed::{LiveLimits, LiveServer, LiveServerStats};
use h2push_webmodel::{generate_site, CorpusKind, Page};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn corpus(name: &str) -> CorpusKind {
    match name {
        "top" => CorpusKind::Top,
        "random" => CorpusKind::Random,
        "push-users" => CorpusKind::PushUsers,
        other => die(&format!("unknown corpus {other:?} (top|random|push-users)")),
    }
}

fn strategy(name: &str, page: &Page) -> Strategy {
    if let Some(n) = name.strip_prefix("push-first:") {
        let n: usize = n.parse().unwrap_or_else(|_| die("push-first:N needs a number"));
        return push_first_n(page, &[], n);
    }
    match name {
        "no-push" => Strategy::NoPush,
        "push-all" => push_all(page, &[]),
        other => die(&format!("unknown strategy {other:?} (no-push|push-all|push-first:N)")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("h2push-serve: {msg}");
    std::process::exit(2);
}

/// The stats as JSON: the counters, the per-outcome close counts, and how
/// often each close reason and each typed connection error occurred.
fn stats_json(stats: &LiveServerStats) -> String {
    let mut reasons: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut errors: BTreeMap<&'static str, u64> = BTreeMap::new();
    for close in &stats.close_log {
        *reasons.entry(close.reason.label()).or_insert(0) += 1;
        if let Some(e) = close.error {
            *errors.entry(e.reason()).or_insert(0) += 1;
        }
    }
    let counts = |m: BTreeMap<&'static str, u64>| {
        Value::Object(m.into_iter().map(|(k, n)| (k.to_string(), json!(n))).collect())
    };
    let c = &stats.closed;
    let doc = json!({
        "accepted": stats.accepted,
        "shed": stats.shed,
        "bytes_in": stats.bytes_in,
        "bytes_out": stats.bytes_out,
        "requests": stats.requests,
        "pushed_bytes": stats.pushed_bytes,
        "protocol_errors": stats.protocol_errors,
        "max_queued_bytes": stats.max_queued_bytes,
        "machines_built": stats.machines_built,
        "machines_reused": stats.machines_reused,
        "polls": stats.polls,
        "reads": stats.reads,
        "writes": stats.writes,
        "closed": {
            "clean": c.clean,
            "protocol_error": c.protocol_error,
            "timeout": c.timeout,
            "shed": c.shed,
            "write_stall": c.write_stall,
            "io_error": c.io_error,
            "drain_killed": c.drain_killed,
        },
        "close_reasons": counts(reasons),
        "conn_errors": counts(errors),
    });
    serde_json::to_string_pretty(&doc).expect("stats serialize") + "\n"
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut kind = "random".to_string();
    let mut seed = 7u64;
    let mut strat = "push-all".to_string();
    let mut duration: Option<u64> = None;
    let mut limits = LiveLimits::new();
    let mut stats_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val =
            |flag: &str| args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        let mut num = |flag: &str| -> u64 {
            val(flag).parse().unwrap_or_else(|_| die(&format!("{flag} needs a number")))
        };
        match flag.as_str() {
            "--addr" => addr = val("--addr"),
            "--corpus" => kind = val("--corpus"),
            "--seed" => seed = num("--seed"),
            "--strategy" => strat = val("--strategy"),
            "--duration" => duration = Some(num("--duration")),
            "--limits" => {
                limits.conn = match val("--limits").as_str() {
                    "default" => ConnLimits::new(),
                    "strict" => ConnLimits::strict(),
                    "permissive" => ConnLimits::permissive(),
                    other => die(&format!("unknown limits {other:?} (default|strict|permissive)")),
                }
            }
            "--max-conns" => limits.max_conns = num("--max-conns") as usize,
            "--preface-timeout-ms" => {
                limits.preface_timeout = Duration::from_millis(num("--preface-timeout-ms"))
            }
            "--header-timeout-ms" => {
                limits.header_timeout = Duration::from_millis(num("--header-timeout-ms"))
            }
            "--idle-timeout-ms" => {
                limits.idle_timeout = Duration::from_millis(num("--idle-timeout-ms"))
            }
            "--write-stall-ms" => {
                limits.write_stall_timeout = Duration::from_millis(num("--write-stall-ms"))
            }
            "--max-queue-bytes" => limits.max_queued_bytes = num("--max-queue-bytes") as usize,
            "--drain-ms" => limits.drain_deadline = Duration::from_millis(num("--drain-ms")),
            "--stats-json" => stats_path = Some(val("--stats-json")),
            other => die(&format!("unknown flag {other:?}")),
        }
    }

    let page = Arc::new(generate_site(corpus(&kind), seed));
    let strategy = strategy(&strat, &page);
    let pushing = strategy.pushed_resources().len();

    let mut server = LiveServer::bind(addr.as_str(), Arc::clone(&page), strategy)
        .unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
    server.set_limits(limits);
    if let Some(secs) = duration {
        server.set_deadline(Duration::from_secs(secs));
    }
    let bound = server.local_addr().expect("local addr");
    println!("listening {bound}");
    println!(
        "site {} ({} resources, {} origins), strategy {strat} ({pushing} pushed)",
        page.name,
        page.resources.len(),
        page.server_group_count(),
    );

    let stats = server.run().unwrap_or_else(|e| die(&format!("serve loop: {e}")));
    println!(
        "served: {} conns ({} shed), {} requests, {} B in, {} B out, {} B pushed, {} protocol errors",
        stats.accepted,
        stats.shed,
        stats.requests,
        stats.bytes_in,
        stats.bytes_out,
        stats.pushed_bytes,
        stats.protocol_errors,
    );
    let c = &stats.closed;
    println!(
        "closed: {} clean, {} protocol, {} timeout, {} shed, {} write-stall, {} io, {} drain-killed",
        c.clean, c.protocol_error, c.timeout, c.shed, c.write_stall, c.io_error, c.drain_killed,
    );
    if let Some(path) = stats_path {
        std::fs::write(&path, stats_json(&stats))
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        println!("stats written to {path}");
    }
}
