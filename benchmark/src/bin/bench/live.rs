//! The `live` workload: `LiveServer` on one thread, one closed-loop
//! `load_page` client on another, over loopback TCP; then
//! time-to-first-pushed-byte probes against a second server.

use h2push_benchmark::alloc::counted;
use h2push_benchmark::cli::Args;
use h2push_benchmark::harness::{set_up, Scale, Timer};
use h2push_benchmark::live::Served;
use h2push_benchmark::procfs::{peak_rss_mb, pin_to_one_cpu};
use h2push_benchmark::spec::RunResult;
use h2push_benchmark::stats::median;
use h2push_benchmark::ttfpb;
use h2push_benchmark::workloads::live_site;
use h2push_strategies::Strategy;
use std::sync::Arc;

/// Passes of TTFPB probes (`scale.loads` probes each).
const PROBE_PASSES: usize = 5;

/// Page variant and strategy, record database, bound listener, server
/// thread and one cold load.
fn setup(args: &Args) -> Served {
    let (page, strategy) = live_site();
    // Forcing failures: a server that never pushes breaks the push check.
    let strategy = if args.force_fail { Arc::new(Strategy::NoPush) } else { strategy };
    let served = Served::start(page, strategy).expect("bind loopback");
    served.load().expect("cold load");
    served
}

/// One pass: `loads` page loads, back to back (the timer's only unit is
/// the load).
fn one_pass(served: &Served, loads: usize, timer: &mut Timer, res: &mut RunResult) -> u64 {
    for _ in 0..loads {
        let report = timer.time(0, || served.load());
        res.attempted += 1;
        match report {
            Ok(r) => {
                let ok = r.load.finished() && !r.load.partial && r.load.pushed_count > 0;
                res.failed += u64::from(!ok);
            }
            Err(_) => res.failed += 1,
        }
    }
    loads as u64
}

/// Run the `live` workload.
pub fn run(args: &Args) -> RunResult {
    let scale = Scale::of(args);
    let mut res = RunResult::default();
    // Server and client threads share one CPU: see `pin_to_one_cpu`.
    let pinned = pin_to_one_cpu();

    let (served, setups) = set_up(|| setup(args));
    res.put_median("setup_s", setups);

    let mut timer = Timer::new(vec![1]);
    timer.pass(false, |t| one_pass(&served, scale.loads, t, &mut res));
    let passes = timer.timed_passes(scale.seconds, scale.min_passes, |t| {
        one_pass(&served, scale.loads, t, &mut res)
    });
    let (counted_pass, allocs, bytes) =
        counted(|| timer.pass(false, |t| one_pass(&served, scale.loads, t, &mut res)));

    // The load-phase server's books must balance before any probe runs.
    let received = served.received();
    match served.stop() {
        Ok(stats) => {
            res.check(stats.protocol_errors == 0, || {
                format!("{} protocol errors", stats.protocol_errors)
            });
            res.check(stats.closed.total() == stats.closed.clean, || {
                format!("unclean closes: {:?}", stats.closed)
            });
            res.check(stats.bytes_out == received, || {
                format!("server sent {} bytes, clients received {received}", stats.bytes_out)
            });
        }
        Err(e) => res.check(false, || format!("server failed: {e}")),
    }

    // Probes drop their connection mid-push, so they get their own server.
    let (page, strategy) = live_site();
    let probed = Served::start(page, strategy).expect("bind loopback");
    let mut probe_p50 = Vec::new();
    for _ in 0..if args.smoke { 1 } else { PROBE_PASSES } {
        let mut us = Vec::with_capacity(scale.loads);
        for _ in 0..scale.loads {
            match ttfpb::probe(probed.addr, &probed.page) {
                Ok(d) => us.push(d.as_secs_f64() * 1e6),
                Err(e) => res.check(false, || format!("TTFPB probe failed: {e}")),
            }
        }
        if !us.is_empty() {
            probe_p50.push(median(&us));
        }
    }
    res.check(probed.stop().is_ok(), || "probe server failed".into());

    // Per-pass medians of the per-load wall times, in ms.
    let pass_p50: Vec<f64> = timer.wall_samples(0).iter().map(|pass| median(pass) * 1e3).collect();
    let pass_per_s: Vec<f64> = passes.iter().map(|p| p.ops_per_s()).collect();
    res.put_with("replays_per_s", timer.ops_per_s(), pass_per_s.clone());
    res.put("cpu_ms_per_replay", timer.cpu_ms_per_op());
    res.put("allocs_per_replay", allocs as f64 / counted_pass.ops as f64);
    res.put("alloc_kb_per_replay", bytes as f64 / 1024.0 / counted_pass.ops as f64);
    res.put("peak_rss_mb", peak_rss_mb());
    res.put_with("loads_per_s", timer.ops_per_s(), pass_per_s);
    res.put_median("load_ms_p50", pass_p50);
    if !probe_p50.is_empty() {
        res.put_median("ttfpb_us_p50", probe_p50);
    }
    res.put("cpu_ms_per_load", timer.cpu_ms_per_op());
    res.put("failed_share", res.failed as f64 / res.attempted as f64);
    res.facts = vec![
        ("passes", passes.len() as u64),
        ("ops_per_pass", counted_pass.ops),
        ("threads", 2),
        ("pinned_to_one_cpu", u64::from(pinned.is_some())),
    ];
    res
}
