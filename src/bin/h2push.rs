//! `h2push` — command-line front end to the replay testbed.
//!
//! ```text
//! h2push sites                              list built-in sites
//! h2push replay <site> [options]           replay & report PLT/SpeedIndex
//! h2push plan <site> [--runs N]            pick the best of the six §5 strategies
//! h2push order <site> [--runs N]           the §4.2 computed push order
//! h2push har <site> [options] [-o f.har]   export a waterfall as HAR
//! h2push dump <site> [-o page.json]        export the site model as JSON
//! h2push serve <site> [--addr A] [--strategy S] [--duration SECS]
//!              [--max-conns N] [-o stats.json]
//!                                           serve the site over real TCP
//! h2push load <site> --addr A [--strategy S] [--duration SECS] [--expect-push]
//!                                           load it from a running `serve`
//! h2push experiment <id> [--quick|--paper] [--sites N] [--runs N] [--seed N]
//!                                           regenerate a table or figure of
//!                                           the paper (usage lists the ids)
//!
//! <site>:    w1..w20 | s1..s10 | random:<seed> | top:<seed> | push:<seed>
//!            | file:<page.json>   (a serialized `webmodel::Page`)
//! --strategy no-push | push-all | push-critical | as-recorded |
//!            no-push-opt | push-all-opt | push-critical-opt   (default no-push)
//! --runs N   repetitions (default 1; medians reported when N > 1)
//! experiment scale: 40 sites × 11 runs by default, --quick 12 × 5,
//!            --paper 100 × 31; --sites/--runs/--seed override either
//! --mode     testbed | internet              (default testbed)
//! --warm     warm cache: all pushable resources are already cached
//! --json     machine-readable output
//! --addr     serve: listen address (default 127.0.0.1:0, a free port);
//!            load: the server's address
//! --duration serve: seconds until it drains and exits (default never);
//!            load: seconds to wait for onload (default 30)
//! --max-conns N   serve: connections served at once before newcomers are
//!            shed (default 1024)
//! --expect-push   load: fail unless something arrived by push
//! ```
//!
//! Live mode is the paper's serving half (§4.1) on real sockets: the same
//! `ReplayServer` machine a simulated replay runs answers TCP, under the
//! live supervision layer (`LiveLimits::new()`: accept gate, lifecycle
//! deadlines, bounded output queues). `serve` prints `listening <addr>`
//! once bound and, when it exits, its stats as JSON (to `-o`, else
//! stdout). `load` drives the real browser engine over TCP; give it the
//! site and strategy the server got — both sides build the same page
//! variant instead of transferring one. `load` exits 0 when the load
//! finished (and pushed, with `--expect-push`), 1 when it did not finish
//! in time or nothing was pushed, 2 on a usage or I/O error, 3 when the
//! server shed a connection (closed before a response byte: the accept
//! gate) and 4 when the server closed one mid-load (a supervision timeout
//! or abuse defense).

use h2push::browser::to_har;
use h2push::core::PushPlanner;
use h2push::experiment::{self, Scale, EXPERIMENTS};
use h2push::metrics::RunStats;
use h2push::strategies::{paper_strategy, push_all, push_as_recorded, PaperStrategy, Strategy};
use h2push::testbed::{
    compute_push_order, replay, run_config, worker_threads, Mode, Protocol, ReplayConfig,
};
use h2push::webmodel::{generate_site, realworld_site, synthetic_site, CorpusKind, Page};
#[cfg(unix)]
use h2push::{load_page, BrowserConfig, LiveLimits, LiveServer, LiveServerStats};
use std::sync::Arc;
#[cfg(unix)]
use std::{net::ToSocketAddrs, time::Duration};

fn usage() -> ! {
    eprintln!(
        "usage: h2push <sites|replay|plan|order|har|dump> [<site>] [--strategy S] [--runs N] \
         [--mode testbed|internet] [--h1] [--warm] [--seed N] [--json] [-o FILE]\n\
         usage: h2push serve <site> [--addr A] [--strategy S] [--duration SECS] \
         [--max-conns N] [-o stats.json]\n\
         usage: h2push load <site> --addr A [--strategy S] [--duration SECS] [--expect-push]\n\
         site: w1..w20 | s1..s10 | random:<seed> | top:<seed> | push:<seed> | file:<page.json>\n\
         strategy: no-push | push-all | push-critical | as-recorded | no-push-opt | \
         push-all-opt | push-critical-opt\n\
         usage: h2push experiment <id> [--quick|--paper] [--sites N] [--runs N] [--seed N]"
    );
    for (id, about, _) in EXPERIMENTS {
        eprintln!("  {id:<19} {about}");
    }
    std::process::exit(2);
}

fn parse_site(spec: &str) -> Option<Page> {
    if let Some(path) = spec.strip_prefix("file:") {
        let text =
            std::fs::read_to_string(path).map_err(|e| eprintln!("cannot read {path}: {e}")).ok()?;
        let page: Page =
            serde_json::from_str(&text).map_err(|e| eprintln!("cannot parse {path}: {e}")).ok()?;
        if let Err(e) = page.validate() {
            eprintln!("invalid page in {path}: {e}");
            return None;
        }
        return Some(page);
    }
    if let Some(rest) = spec.strip_prefix('w') {
        if let Ok(n) = rest.parse::<usize>() {
            if (1..=20).contains(&n) {
                return Some(realworld_site(n));
            }
        }
    }
    if let Some(rest) = spec.strip_prefix('s') {
        if let Ok(n) = rest.parse::<usize>() {
            if (1..=10).contains(&n) {
                return Some(synthetic_site(n));
            }
        }
    }
    for (prefix, kind) in [
        ("random:", CorpusKind::Random),
        ("top:", CorpusKind::Top),
        ("push:", CorpusKind::PushUsers),
    ] {
        if let Some(seed) = spec.strip_prefix(prefix) {
            if let Ok(seed) = seed.parse::<u64>() {
                return Some(generate_site(kind, seed));
            }
        }
    }
    None
}

struct Opts {
    strategy: String,
    /// `--runs`; unset means 1 for a replay and the preset's for an
    /// experiment.
    runs: Option<usize>,
    sites: Option<usize>,
    /// Experiment scale before the `--sites/--runs/--seed` overrides.
    preset: Scale,
    mode: Mode,
    protocol: Protocol,
    warm: bool,
    seed: u64,
    json: bool,
    out: Option<String>,
    /// Live mode: `serve`'s listen address, `load`'s server.
    addr: Option<String>,
    /// Live mode, seconds: how long `serve` serves, how long `load` waits.
    duration: Option<u64>,
    max_conns: Option<usize>,
    expect_push: bool,
}

/// Print `msg` on stderr and exit with `code`.
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// The value of a numeric flag; a missing or malformed one is a usage error.
fn number<T: std::str::FromStr>(arg: Option<&String>) -> T {
    arg.and_then(|a| a.parse().ok()).unwrap_or_else(|| usage())
}

/// A count of runs or sites: a number, and at least one (the statistics
/// of nothing are undefined).
fn count(arg: Option<&String>) -> Option<usize> {
    Some(number(arg)).filter(|&n| n > 0).or_else(|| usage())
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        strategy: "no-push".into(),
        runs: None,
        sites: None,
        preset: Scale { sites: 40, runs: 11, seed: 42 },
        mode: Mode::Testbed,
        protocol: Protocol::H2,
        warm: false,
        seed: 42,
        json: false,
        out: None,
        addr: None,
        duration: None,
        max_conns: None,
        expect_push: false,
    };
    // A flag's value is the next argument: taking it from the iterator
    // cannot index past the end, whatever the flag order.
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--strategy" => o.strategy = args.next().unwrap_or_else(|| usage()).clone(),
            "--runs" => o.runs = count(args.next()),
            "--sites" => o.sites = count(args.next()),
            "--quick" => o.preset = Scale::quick(),
            "--paper" => o.preset = Scale::paper(),
            "--mode" => {
                o.mode = match args.next().map(|s| s.as_str()) {
                    Some("testbed") => Mode::Testbed,
                    Some("internet") => Mode::Internet,
                    _ => usage(),
                };
            }
            "--seed" => o.seed = number(args.next()),
            "--warm" => o.warm = true,
            "--h1" => o.protocol = Protocol::H1,
            "--json" => o.json = true,
            "-o" => o.out = Some(args.next().unwrap_or_else(|| usage()).clone()),
            "--addr" => o.addr = Some(args.next().unwrap_or_else(|| usage()).clone()),
            "--duration" => o.duration = Some(number(args.next())),
            "--max-conns" => o.max_conns = Some(number(args.next())),
            "--expect-push" => o.expect_push = true,
            _ => usage(),
        }
    }
    o
}

impl Opts {
    fn runs(&self) -> usize {
        self.runs.unwrap_or(1)
    }

    fn scale(&self) -> Scale {
        Scale {
            sites: self.sites.unwrap_or(self.preset.sites),
            runs: self.runs.unwrap_or(self.preset.runs),
            seed: self.seed,
        }
    }
}

/// Resolve a strategy name to the page variant + strategy to run.
fn resolve_strategy(page: &Page, name: &str) -> (Page, Strategy) {
    match name {
        "no-push" => (page.clone(), Strategy::NoPush),
        "push-all" => (page.clone(), push_all(page, &[])),
        "as-recorded" => (page.clone(), push_as_recorded(page)),
        "push-critical" => paper_strategy(page, PaperStrategy::PushCritical),
        "no-push-opt" => paper_strategy(page, PaperStrategy::NoPushOptimized),
        "push-all-opt" => paper_strategy(page, PaperStrategy::PushAllOptimized),
        "push-critical-opt" => paper_strategy(page, PaperStrategy::PushCriticalOptimized),
        other => {
            eprintln!("unknown strategy '{other}'");
            usage()
        }
    }
}

fn cmd_sites() {
    println!("real-world (Table 1 of the paper):");
    for n in 1..=20 {
        let p = realworld_site(n);
        println!(
            "  w{n:<3} {:<20} {:>4} KB HTML, {:>3} requests, {:>2} servers",
            p.name,
            p.html_size() / 1024,
            p.resources.len(),
            p.server_group_count()
        );
    }
    println!("synthetic (§4.3): s1..s10");
    println!("generated: random:<seed> | top:<seed> | push:<seed>");
}

fn cmd_replay(page: &Page, o: &Opts) {
    let (variant, strategy) = resolve_strategy(page, &o.strategy);
    let strategy = Arc::new(strategy);
    let mut plts = Vec::new();
    let mut sis = Vec::new();
    let mut pushed = 0u64;
    let mut cancelled = 0u32;
    for r in 0..o.runs() {
        let mut cfg: ReplayConfig =
            run_config(&strategy, o.mode, o.seed.wrapping_add(r as u64), &variant);
        cfg.protocol = o.protocol;
        if o.warm {
            cfg.warm_cache = variant.pushable();
        }
        match replay(&variant, &cfg) {
            Ok(out) => {
                plts.push(out.load.plt());
                sis.push(out.load.speed_index());
                pushed = out.server_pushed_bytes;
                cancelled = out.load.cancelled_pushes;
            }
            Err(e) => fail(1, &format!("run {r} failed: {e}")),
        }
    }
    let (p, s) = (RunStats::of(&plts), RunStats::of(&sis));
    if o.json {
        println!(
            "{}",
            serde_json::json!({
                "site": variant.name,
                "strategy": o.strategy,
                "runs": o.runs(),
                "plt_ms": { "median": p.median, "mean": p.mean, "stderr": p.std_err },
                "speed_index_ms": { "median": s.median, "mean": s.mean, "stderr": s.std_err },
                "pushed_bytes": pushed,
                "cancelled_pushes": cancelled,
            })
        );
    } else {
        println!("site      {}", variant.name);
        println!("strategy  {}", o.strategy);
        println!("runs      {}", o.runs());
        println!("PLT       {:.1} ms (median; ±{:.1} σx̄)", p.median, p.std_err);
        println!("SpeedIdx  {:.1} ms (median; ±{:.1} σx̄)", s.median, s.std_err);
        println!("pushed    {:.1} KB, {} cancelled", pushed as f64 / 1024.0, cancelled);
    }
}

fn cmd_plan(page: &Page, o: &Opts) {
    let planner = PushPlanner { runs: o.runs().max(3), seed: o.seed, ..Default::default() };
    let plan = planner.plan(page);
    if o.json {
        let candidates: Vec<_> = plan
            .candidates
            .iter()
            .map(|c| {
                serde_json::json!({
                    "strategy": c.which.label(),
                    "speed_index_ms": c.speed_index,
                    "plt_ms": c.plt,
                    "pushed_bytes": c.pushed_bytes,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::json!({
                "site": page.name,
                "winner": plan.winner().which.label(),
                "improvement_pct": plan.improvement_pct(),
                "candidates": candidates,
            })
        );
        return;
    }
    println!("{:26} {:>12} {:>10} {:>11}", "candidate", "SpeedIndex", "PLT", "pushed KB");
    for (i, c) in plan.candidates.iter().enumerate() {
        let m = if i == plan.chosen { "→" } else { " " };
        println!(
            "{m}{:25} {:>12.0} {:>10.0} {:>11.0}",
            c.which.label(),
            c.speed_index,
            c.plt,
            c.pushed_bytes / 1024.0
        );
    }
    println!(
        "winner: {} ({:+.1}% SI vs no push)",
        plan.winner().which.label(),
        plan.improvement_pct()
    );
}

fn cmd_order(page: &Page, o: &Opts) {
    let order = compute_push_order(page, o.runs().max(5), o.seed);
    println!("computed push order for {} ({} resources):", page.name, order.len());
    for (i, id) in order.iter().enumerate() {
        let r = page.resource(*id);
        println!(
            "  {:>3}. [{:>5}] {:>8} B  {}",
            i + 1,
            r.rtype.label(),
            r.size,
            r.url(page.host_of(*id))
        );
    }
}

fn cmd_har(page: &Page, o: &Opts) {
    let (variant, strategy) = resolve_strategy(page, &o.strategy);
    let cfg = ReplayConfig::testbed(strategy);
    let out = replay(&variant, &cfg).unwrap_or_else(|e| fail(1, &format!("replay failed: {e}")));
    let har = serde_json::to_string_pretty(&to_har(&variant, &out.load)).expect("HAR serializes");
    emit(har, &o.out);
}

fn cmd_dump(page: &Page, o: &Opts) {
    emit(serde_json::to_string_pretty(page).expect("page serializes"), &o.out);
}

/// Write a document to `-o FILE`, or print it.
fn emit(text: String, path: &Option<String>) {
    match path {
        Some(path) => {
            std::fs::write(path, text)
                .unwrap_or_else(|e| fail(1, &format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        None => println!("{text}"),
    }
}

/// `serve`: answer TCP connections with the site under the strategy until
/// `--duration` passes, then drain and emit the stats.
#[cfg(unix)]
fn cmd_serve(page: &Page, o: &Opts) {
    let (variant, strategy) = resolve_strategy(page, &o.strategy);
    let pushing = strategy.pushed_resources().len();
    let page = Arc::new(variant);
    let addr = o.addr.as_deref().unwrap_or("127.0.0.1:0");
    let mut server = LiveServer::bind(addr, Arc::clone(&page), strategy)
        .unwrap_or_else(|e| fail(2, &format!("bind {addr}: {e}")));
    let mut limits = LiveLimits::new();
    if let Some(n) = o.max_conns {
        limits.max_conns = n;
    }
    server.set_limits(limits);
    if let Some(secs) = o.duration {
        server.set_deadline(Duration::from_secs(secs));
    }
    println!("listening {}", server.local_addr().expect("local addr"));
    println!(
        "site {} ({} resources, {} origins), strategy {} ({pushing} pushed)",
        page.name,
        page.resources.len(),
        page.server_group_count(),
        o.strategy,
    );
    let stats = server.run().unwrap_or_else(|e| fail(2, &format!("serve loop: {e}")));
    emit(stats_json(&stats), &o.out);
}

/// The server stats as JSON: the counters, the per-outcome close counts,
/// and how often each close reason and each typed connection error
/// occurred.
#[cfg(unix)]
fn stats_json(stats: &LiveServerStats) -> String {
    use serde_json::{json, Value};
    use std::collections::BTreeMap;
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
    serde_json::to_string_pretty(&doc).expect("stats serialize")
}

/// `load`: one page load from a running `serve` over real TCP, its
/// outcome in the exit code (see the module docs).
#[cfg(unix)]
fn cmd_load(page: &Page, o: &Opts) {
    let Some(addr) = &o.addr else { usage() };
    let (variant, strategy) = resolve_strategy(page, &o.strategy);
    let sockaddr = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| fail(2, &format!("cannot resolve {addr}")));
    // A client advertises push unless the strategy is no push: the rule a
    // simulated run applies.
    let cfg = BrowserConfig { enable_push: strategy != Strategy::NoPush, ..Default::default() };
    let timeout = o.duration.unwrap_or(30);
    let report = load_page(sockaddr, Arc::new(variant), cfg, Duration::from_secs(timeout))
        .unwrap_or_else(|e| match e.kind() {
            std::io::ErrorKind::ConnectionRefused => {
                fail(2, &format!("connect {addr}: refused (server gone or draining)"))
            }
            _ => fail(2, &format!("load {addr}: {e}")),
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
    // One exit code and one line per supervision outcome, so a script can
    // tell *why* a load failed, not just that it did.
    if !load.finished() {
        if report.shed_conns > 0 {
            let n = report.shed_conns;
            fail(3, &format!("server shed {n} connection(s) (closed before any response byte)"));
        }
        if report.closed_conns > 0 {
            let n = report.closed_conns;
            fail(
                4,
                &format!("server closed {n} connection(s) mid-load (timeout or abuse defense)"),
            );
        }
        fail(1, &format!("load did not finish within {timeout}s"));
    }
    println!("plt {:.1} ms, speed index {:.1} ms", load.plt(), load.speed_index());
    if o.expect_push && load.pushed_count == 0 {
        fail(1, "expected pushed resources, got none");
    }
}

fn cmd_experiment(args: &[String]) {
    let Some((id, render)) = args.first().and_then(|id| Some((id, experiment::find(id)?))) else {
        if let Some(id) = args.first() {
            eprintln!("unknown experiment '{id}'");
        }
        usage()
    };
    let scale @ Scale { sites, runs, seed } = parse_opts(&args[1..]).scale();
    let started = std::time::Instant::now();
    let mut lost = Vec::new();
    if let Err(e) = render(scale, &mut std::io::stdout().lock(), &mut lost) {
        fail(1, &format!("cannot write the report: {e}"));
    }
    let (wall, workers) = (started.elapsed().as_secs_f64(), worker_threads());
    eprintln!("# {id}: {wall:.2} s on {workers} workers, scale {sites}\u{d7}{runs}, seed {seed}");
    // Cells that lost a repetition: their numbers above rest on fewer
    // runs than the header says.
    lost.iter().for_each(|line| eprintln!("{line}"));
    if !lost.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(|s| s.as_str()) else { usage() };
    match cmd {
        "sites" => return cmd_sites(),
        "experiment" => return cmd_experiment(&args[1..]),
        _ => {}
    }
    let Some(site_spec) = args.get(1) else { usage() };
    let Some(page) = parse_site(site_spec) else {
        eprintln!("unknown site '{site_spec}'");
        usage()
    };
    let opts = parse_opts(&args[2..]);
    match cmd {
        "replay" => cmd_replay(&page, &opts),
        "plan" => cmd_plan(&page, &opts),
        "order" => cmd_order(&page, &opts),
        "har" => cmd_har(&page, &opts),
        "dump" => cmd_dump(&page, &opts),
        #[cfg(unix)]
        "serve" => cmd_serve(&page, &opts),
        #[cfg(unix)]
        "load" => cmd_load(&page, &opts),
        _ => usage(),
    }
}
