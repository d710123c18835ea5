//! `h2push-load` — loopback load client for a running `h2push-serve`.
//!
//! Drives the real `h2push-browser` engine over real TCP connections to
//! one address and reports the same `LoadResult` a simulated replay
//! produces: PLT, SpeedIndex, push counters. Exit codes make the server's
//! supervision decisions scriptable:
//!
//! * `0` — load finished (and pushed, if `--expect-push`).
//! * `1` — load did not finish within the timeout (no server-side close
//!   observed — a plain stall).
//! * `2` — usage / IO error (bad flags, unresolvable address; a refused
//!   connect reports the server as gone or draining).
//! * `3` — the server **shed** a connection: closed before a single
//!   response byte arrived (the accept-gate signature).
//! * `4` — the server closed a connection mid-load: a supervision
//!   timeout or abuse defense fired.
//!
//! ```text
//! h2push-load --addr HOST:PORT [--corpus top|random|push-users]
//!             [--seed N] [--no-push] [--timeout SECS] [--expect-push]
//! ```
//!
//! The `(corpus, seed)` pair must match the server's — client and server
//! regenerate the same deterministic page instead of transferring a
//! manifest.

use h2push_browser::BrowserConfig;
use h2push_testbed::load_page;
use h2push_webmodel::{generate_site, CorpusKind};
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

fn die(msg: &str) -> ! {
    eprintln!("h2push-load: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut kind = "random".to_string();
    let mut seed = 7u64;
    let mut enable_push = true;
    let mut timeout = 30u64;
    let mut expect_push = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val =
            |flag: &str| args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--addr" => addr = Some(val("--addr")),
            "--corpus" => kind = val("--corpus"),
            "--seed" => {
                seed = val("--seed").parse().unwrap_or_else(|_| die("--seed needs a number"))
            }
            "--no-push" => enable_push = false,
            "--timeout" => {
                timeout = val("--timeout").parse().unwrap_or_else(|_| die("--timeout: seconds"))
            }
            "--expect-push" => expect_push = true,
            other => die(&format!("unknown flag {other:?}")),
        }
    }

    let addr = addr.unwrap_or_else(|| die("--addr HOST:PORT is required"));
    let sockaddr = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| die(&format!("cannot resolve {addr}")));

    let kind = match kind.as_str() {
        "top" => CorpusKind::Top,
        "random" => CorpusKind::Random,
        "push-users" => CorpusKind::PushUsers,
        other => die(&format!("unknown corpus {other:?} (top|random|push-users)")),
    };
    let page = Arc::new(generate_site(kind, seed));

    let cfg = BrowserConfig { enable_push, ..BrowserConfig::default() };
    let report = load_page(sockaddr, Arc::clone(&page), cfg, Duration::from_secs(timeout))
        .unwrap_or_else(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                die(&format!("connect {addr}: refused (server gone or draining)"));
            }
            die(&format!("load {addr}: {e}"))
        });

    let load = &report.load;
    println!(
        "site {}: finished={} partial={} requests={} pushed={} ({} B, {} cancelled)",
        load.site,
        load.finished(),
        load.partial,
        load.requests,
        load.pushed_count,
        load.pushed_bytes,
        load.cancelled_pushes,
    );
    println!(
        "wire: {} conns, {} B in, {} B out; {} poll, {} read, {} writev",
        report.conns, report.bytes_in, report.bytes_out, report.polls, report.reads, report.writes,
    );
    if load.finished() {
        println!("plt {:.1} ms, speed index {:.1} ms", load.plt(), load.speed_index());
    }

    if !load.finished() {
        // A distinct code and a one-line reason per supervision outcome,
        // so CI can assert *why* a load failed, not just that it did.
        if report.shed_conns > 0 {
            eprintln!(
                "h2push-load: server shed {} connection(s) (closed before any response byte)",
                report.shed_conns,
            );
            std::process::exit(3);
        }
        if report.closed_conns > 0 {
            eprintln!(
                "h2push-load: server closed {} connection(s) mid-load (timeout or abuse defense)",
                report.closed_conns,
            );
            std::process::exit(4);
        }
        eprintln!("h2push-load: load did not finish within {timeout}s");
        std::process::exit(1);
    }
    if expect_push && load.pushed_count == 0 {
        eprintln!("h2push-load: expected pushed resources, got none");
        std::process::exit(1);
    }
}
