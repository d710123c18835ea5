//! What a list of (page, strategy, conditions) cells tells about the
//! layers: span self times through `tracebed` (S), exact counts from
//! traced `RunPlan` timelines and outcomes (C), and with/without ratios
//! for every optimisation a plan can switch (P).

use crate::tracebed::{Clock, Layer, Span, Tracebed};
use h2push_benchmark::fingerprint::Fnv;
use h2push_benchmark::spec::RunResult;
use h2push_benchmark::stats::low_percentile;
use h2push_benchmark::workloads::SimCell;
use h2push_testbed::{Protocol, ReplayCtx, RunPlan};
use h2push_trace::{FrameKind, TraceEvent};
use std::hint::black_box;
use std::time::Instant;

/// How much of each kind of work a workload's cells get.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Replays per cell through `tracebed` (and through `RunPlan`, as the
    /// reference).
    pub trace_reps: usize,
    /// Replays per cell with a recorded timeline.
    pub count_reps: usize,
    /// Seconds one arm of a with/without comparison may take per sample.
    pub arm_seconds: f64,
}

/// What the spans of one workload add up to.
pub struct Traced {
    /// The span list of the first replay of each cell.
    pub first_spans: Vec<Span>,
    /// Host seconds per replay through plain `RunPlan` (the reference).
    pub runplan_s_per_replay: f64,
}

/// (S): replay `trace_reps` reps of every cell through `tracebed` and
/// through `RunPlan`; the outcomes must be equal.
pub fn spans(cells: &[SimCell], seed: u64, budget: Budget, res: &mut RunResult) -> Traced {
    let mut bed = Tracebed::new();
    let mut clock = Clock::new();
    let mut first_spans = Vec::new();
    let (mut traced_ns, mut plain_ns, mut replays) = (0u64, 0u64, 0u64);
    for cell in cells {
        let plan = cell.plan(budget.trace_reps, seed);
        // Both paths warm (caches, recycled machinery) before either is timed.
        black_box(plan.run_one().is_ok());
        black_box(bed.replay(plan.inputs(), &plan.config_for(0), &mut Clock::new()).is_ok());

        let t = Instant::now();
        let reference = plan.run();
        plain_ns += t.elapsed().as_nanos() as u64;
        res.attempted += budget.trace_reps as u64;
        res.failed += (budget.trace_reps - reference.len()) as u64;
        if reference.len() != budget.trace_reps {
            continue; // nothing to compare rep by rep
        }

        for (rep, expected) in reference.outcomes().enumerate() {
            clock.spans = (rep == 0).then(Vec::new);
            let t = Instant::now();
            let got = bed.replay(plan.inputs(), &plan.config_for(rep), &mut clock);
            traced_ns += t.elapsed().as_nanos() as u64;
            replays += 1;
            if let Some(spans) = clock.spans.take() {
                first_spans.extend(spans);
            }
            res.check(got.as_ref() == Ok(expected), || {
                format!("tracebed differs from RunPlan on {} rep {rep}", cell.label)
            });
        }
    }
    let per_replay = |ns: u64| ns as f64 / 1e3 / replays.max(1) as f64;
    for layer in [Layer::Netsim, Layer::Server, Layer::Browser] {
        let (us, calls) = (per_replay(clock.self_ns[layer as usize]), clock.calls[layer as usize]);
        let (us_name, calls_name) = match layer {
            Layer::Netsim => ("netsim.self_us_per_replay", "netsim.calls_per_replay"),
            Layer::Server => ("h2server.self_us_per_replay", "h2server.calls_per_replay"),
            _ => ("browser.self_us_per_replay", "browser.calls_per_replay"),
        };
        res.put(us_name, us);
        res.put(calls_name, calls as f64 / replays.max(1) as f64);
    }
    res.put("testbed.glue_us_per_replay", per_replay(clock.self_ns[Layer::Glue as usize]));
    // The clock hands every instant of a replay to exactly one layer.
    let accounted: u64 = clock.self_ns.iter().sum();
    res.check(accounted.abs_diff(traced_ns) as f64 <= 0.05 * traced_ns as f64, || {
        format!("self times add up to {accounted} ns of {traced_ns} ns traced")
    });
    let span_calls: u64 = clock.calls.iter().sum();
    res.put(
        "testbed.span_overhead_pct",
        span_calls as f64 * Clock::calibrate() / traced_ns.max(1) as f64 * 100.0,
    );
    res.put("testbed.tracebed_vs_runplan", traced_ns as f64 / plain_ns.max(1) as f64);
    Traced { first_spans, runplan_s_per_replay: plain_ns as f64 / 1e9 / replays.max(1) as f64 }
}

/// (C): exact counts per replay, from `count_reps` traced reps of every
/// cell. Simulated statistics: a speed-only change leaves them identical.
pub fn counts(cells: &[SimCell], seed: u64, budget: Budget, res: &mut RunResult) {
    let mut fnv = Fnv::default();
    let mut replays = 0u64;
    let mut sums: Vec<(&'static str, f64)> = Vec::new();
    let mut add = |name: &'static str, v: f64| match sums.iter_mut().find(|(n, _)| *n == name) {
        Some((_, sum)) => *sum += v,
        None => sums.push((name, v)),
    };
    for cell in cells {
        let report = cell.plan(budget.count_reps, seed).traced().run();
        res.attempted += budget.count_reps as u64;
        res.failed += (budget.count_reps - report.len()) as u64;
        for run in &report.runs {
            let (o, timeline) = (&run.outcome, run.timeline.as_ref().expect("traced plan"));
            fnv.outcome(o);
            replays += 1;
            let count = |pred: &dyn Fn(&TraceEvent) -> bool| timeline.count(pred) as f64;
            let sent = |kind: FrameKind| {
                count(&|e| matches!(e, TraceEvent::FrameSent { kind: k, .. } if *k == kind))
            };
            let wire: u64 = timeline
                .events()
                .iter()
                .map(|(_, e)| match e {
                    TraceEvent::FrameSent { bytes, .. } => u64::from(*bytes),
                    _ => 0,
                })
                .sum();
            add("netsim.packets_per_replay", o.net.data_packets as f64);
            add("netsim.retransmits_per_replay", o.net.retransmits as f64);
            add("netsim.drops_per_replay", o.net.drops_total() as f64);
            add("netsim.reordered_per_replay", o.net.reordered as f64);
            add(
                "h2proto.frames_sent_per_replay",
                count(&|e| matches!(e, TraceEvent::FrameSent { .. })),
            );
            add("h2proto.data_frames_per_replay", sent(FrameKind::Data));
            add("h2proto.headers_frames_per_replay", sent(FrameKind::Headers));
            add("h2proto.window_updates_per_replay", sent(FrameKind::WindowUpdate));
            add("h2proto.push_promises_per_replay", sent(FrameKind::PushPromise));
            add("h2proto.wire_kb_per_replay", wire as f64 / 1024.0);
            add(
                "h2server.scheduler_picks_per_replay",
                count(&|e| matches!(e, TraceEvent::SchedulerPick { .. })),
            );
            add(
                "h2server.interleave_switches_per_replay",
                count(&|e| {
                    matches!(
                        e,
                        TraceEvent::InterleaveSuspend { .. } | TraceEvent::InterleaveResume { .. }
                    )
                }),
            );
            add("h2server.pushed_kb_per_replay", o.server_pushed_bytes as f64 / 1024.0);
            add("browser.requests_per_replay", f64::from(o.load.requests));
            add("browser.conns_per_replay", count(&|e| matches!(e, TraceEvent::Connected { .. })));
            add("browser.pushes_accepted_per_replay", f64::from(o.load.pushed_count));
            add("browser.pushes_cancelled_per_replay", f64::from(o.load.cancelled_pushes));
            add("browser.sim_plt_ms_mean", o.load.onload.map_or(0.0, |_| o.load.plt()));
            add("browser.sim_speedindex_ms_mean", o.load.speed_index());
            add("trace.events_per_replay", timeline.len() as f64);
        }
    }
    for (name, sum) in sums {
        res.put(name, sum / replays.max(1) as f64);
    }
    res.put("testbed.outcome_fnv32", f64::from(fnv.finish32()));
}

/// Seconds per replay of `run`, which completes `replays` replays per
/// call: the low percentile (see `stats::low_percentile`) over `samples` calls.
fn s_per_replay(samples: usize, replays: usize, mut run: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() / replays as f64
        })
        .collect();
    low_percentile(&times)
}

/// (P): the with/without ratios a plan can switch, on the workload's own
/// cells: `PreparedPage`, `ReplayCtx` recycling, timeline recording, and
/// the same pages over HTTP/1.1. `s_per_replay` is the reference speed,
/// which sizes every arm to the budget.
pub fn switches(
    cells: &[SimCell],
    seed: u64,
    budget: Budget,
    reference_s: f64,
    res: &mut RunResult,
) {
    const SAMPLES: usize = 5;
    let reps =
        ((budget.arm_seconds / reference_s.max(1e-6) / cells.len() as f64) as usize).clamp(2, 31);
    let replays = reps * cells.len();
    let plans = |prepared: Option<bool>| -> Vec<RunPlan> {
        cells.iter().map(|c| c.plan_with(reps, seed, prepared.unwrap_or(c.prepared))).collect()
    };
    let run_all = |plans: &[RunPlan]| {
        for plan in plans {
            black_box(plan.run().len());
        }
    };

    let (with, without) = (plans(Some(true)), plans(Some(false)));
    run_all(&with); // fills the HPACK caches, as the workload's warm-up does
    let prepared = s_per_replay(SAMPLES, replays, || run_all(&with));
    let unprepared = s_per_replay(SAMPLES, replays, || run_all(&without));
    res.put("testbed.prepared_speedup", unprepared / prepared);
    let (mut hits, mut lookups, mut dhits, mut dlookups) = (0, 0, 0, 0);
    for plan in &with {
        let page = plan.inputs().prepared_page().expect("prepared plan");
        let ((h, m), (dh, dm)) = (page.hpack_cache().stats(), page.hpack_decode_cache().stats());
        (hits, lookups, dhits, dlookups) =
            (hits + h, lookups + h + m, dhits + dh, dlookups + dh + dm);
    }
    res.put("hpack.block_cache_hit_ratio", hits as f64 / lookups.max(1) as f64);
    res.put("hpack.decode_cache_hit_ratio", dhits as f64 / dlookups.max(1) as f64);

    let own = plans(None);
    let mut ctx = ReplayCtx::new();
    let recycled = s_per_replay(SAMPLES, replays, || {
        for plan in &own {
            for rep in 0..reps {
                black_box(plan.run_rep_in(rep, &mut ctx).is_ok());
            }
        }
    });
    let fresh = s_per_replay(SAMPLES, replays, || {
        for plan in &own {
            for rep in 0..reps {
                black_box(plan.run_rep_in(rep, &mut ReplayCtx::new()).is_ok());
            }
        }
    });
    res.put("testbed.recycle_speedup", fresh / recycled);

    let traced: Vec<RunPlan> = own.iter().map(|p| p.clone().traced()).collect();
    let plain_s = s_per_replay(SAMPLES, replays, || run_all(&own));
    let traced_s = s_per_replay(SAMPLES, replays, || run_all(&traced));
    res.put("trace.timeline_overhead_pct", (traced_s / plain_s - 1.0) * 100.0);

    // HTTP/1.1 has no push and six connections per origin; it only has to
    // finish, so count what completes.
    let h1: Vec<RunPlan> = own
        .iter()
        .map(|p| {
            let mut cfg = p.config_for(0);
            cfg.protocol = Protocol::H1;
            p.clone().config(cfg)
        })
        .collect();
    let mut completed = 0;
    let h1_s = s_per_replay(SAMPLES, 1, || completed = h1.iter().map(|p| p.run().len()).sum());
    res.put("h1.replays_per_s", completed as f64 / h1_s);
}
