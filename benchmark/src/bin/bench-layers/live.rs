//! `testbed::live` in the traced run: the loopback server under the main
//! page, under a small page, without push, and probed for the first
//! pushed byte — with the kernel's view (syscalls, context switches) of
//! what a load costs.

use h2push_benchmark::live::Served;
use h2push_benchmark::procfs::{ctx_switches, pin_to_one_cpu, rw_syscalls};
use h2push_benchmark::spec::RunResult;
use h2push_benchmark::stats::percentile;
use h2push_benchmark::ttfpb;
use h2push_benchmark::workloads::live_site;
use h2push_strategies::Strategy;
use h2push_webmodel::realworld_site;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop loads against `served` for `seconds` (50 at least).
/// Returns per-load milliseconds; wire bytes and connections go to `wire`.
fn loads(
    served: &Served,
    seconds: f64,
    push: bool,
    res: &mut RunResult,
    wire: &mut (u64, u64),
) -> Vec<f64> {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < 50 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let report = served.load();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        res.attempted += 1;
        match report {
            Ok(r) if r.load.finished() && !r.load.partial && (!push || r.load.pushed_count > 0) => {
                wire.0 += r.bytes_in + r.bytes_out;
                wire.1 += u64::from(r.conns);
            }
            _ => res.failed += 1,
        }
    }
    ms
}

fn per_s(ms: &[f64]) -> f64 {
    ms.len() as f64 * 1e3 / ms.iter().sum::<f64>()
}

/// Measure the live runtime for about `seconds` in all.
pub fn run(seconds: f64, res: &mut RunResult) {
    // As the end-to-end workload does; unpinned again when this returns.
    let _pinned = pin_to_one_cpu();
    let (page, strategy) = live_site();

    // The workload's own page and strategy, with the kernel counters.
    let served = Served::start(Arc::clone(&page), strategy).expect("bind loopback");
    served.load().expect("warm-up load");
    let (sys0, ctx0) = (rw_syscalls(), ctx_switches());
    let mut wire = (0, 0);
    let ms = loads(&served, seconds * 0.4, true, res, &mut wire);
    let (sys, ctx) = (rw_syscalls() - sys0, ctx_switches().saturating_sub(ctx0));
    let n = ms.len() as f64;
    res.put("live.load_ms_p50", percentile(&ms, 50.0));
    res.put("live.load_ms_p99", percentile(&ms, 99.0));
    res.put("live.wire_mb_per_s", wire.0 as f64 / 1e6 / (ms.iter().sum::<f64>() / 1e3));
    res.put("live.conns_per_load", wire.1 as f64 / n);
    res.put("live.rw_syscalls_per_load", sys as f64 / n);
    res.put("live.ctx_switches_per_load", ctx as f64 / n);
    match served.stop() {
        Ok(stats) => {
            res.put("live.peak_queue_kb", stats.max_queued_bytes as f64 / 1024.0);
            res.put("live.unclean_closes", (stats.closed.total() - stats.closed.clean) as f64);
            res.check(stats.protocol_errors == 0, || {
                format!("{} protocol errors", stats.protocol_errors)
            });
        }
        Err(e) => res.check(false, || format!("server failed: {e}")),
    }

    // First pushed byte, against a server of its own (probes hang up
    // mid-push).
    let (page, strategy) = live_site();
    let probed = Served::start(Arc::clone(&page), strategy).expect("bind loopback");
    let start = Instant::now();
    let mut us = Vec::new();
    while us.len() < 50 || start.elapsed().as_secs_f64() < seconds * 0.15 {
        res.attempted += 1;
        match ttfpb::probe(probed.addr, &page) {
            Ok(d) => us.push(d.as_secs_f64() * 1e6),
            Err(_) => res.failed += 1,
        }
    }
    res.put("live.ttfpb_us_p50", percentile(&us, 50.0));
    res.put("live.ttfpb_us_p99", percentile(&us, 99.0));
    res.check(probed.stop().is_ok(), || "probe server failed".into());

    // The same page without push, and a small page (w5-craigslist: one
    // connection, eight requests) where accept and teardown dominate.
    let mut unused = (0, 0);
    let nopush = Served::start(page, Arc::new(Strategy::NoPush)).expect("bind loopback");
    nopush.load().expect("warm-up load");
    let ms = loads(&nopush, seconds * 0.2, false, res, &mut unused);
    res.put("live.nopush_loads_per_s", per_s(&ms));
    res.check(nopush.stop().is_ok(), || "no-push server failed".into());

    let small = Served::start(Arc::new(realworld_site(5)), Arc::new(Strategy::NoPush))
        .expect("bind loopback");
    small.load().expect("warm-up load");
    let ms = loads(&small, seconds * 0.2, false, res, &mut unused);
    res.put("live.small_loads_per_s", per_s(&ms));
    res.check(small.stop().is_ok(), || "small-page server failed".into());
}
