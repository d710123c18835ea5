//! The serial workloads — `fanout`, `bulkpush`, `lossy` — through
//! `RunPlan…serial()`.

use h2push_benchmark::alloc::counted;
use h2push_benchmark::cli::Args;
use h2push_benchmark::fingerprint::Fnv;
use h2push_benchmark::harness::{set_up, Scale, Timer};
use h2push_benchmark::procfs::peak_rss_mb;
use h2push_benchmark::spec::RunResult;
use h2push_benchmark::workloads::{sim_cells, SimCell};
use h2push_testbed::RunPlan;
use std::hint::black_box;

/// Rounds over the cells per pass, sized so a pass takes one to two
/// seconds on the 2-core reference box.
fn rounds_per_pass(name: &str) -> usize {
    match name {
        "fanout" => 1,
        _ => 4,
    }
}

/// A cell and its single-rep plans, one per repetition.
type Cells = Vec<(SimCell, Vec<RunPlan>)>;

/// Everything before the first timed replay: page variants (critical-CSS
/// rewrite included), record databases, plans (`PreparedPage` where the
/// workload has one) and one cold replay per cell.
fn setup(name: &str, args: &Args, scale: Scale) -> Cells {
    sim_cells(name)
        .into_iter()
        .map(|cell| {
            let mut plans = cell.rep_plans(scale.reps, args.seed);
            if args.force_fail {
                plans = plans.into_iter().map(|p| p.watchdog_events(1)).collect();
            }
            black_box(plans[0].run().len());
            (cell, plans)
        })
        .collect()
}

/// What one pass needs besides the cells.
struct Run<'a> {
    name: &'a str,
    rounds: usize,
    res: RunResult,
    /// One fingerprint per pass.
    prints: Vec<u64>,
}

impl Run<'_> {
    /// One pass: every repetition of every cell, `rounds` times over; the
    /// timer's unit is the (cell, rep) pair. Returns the replays attempted.
    fn pass(&mut self, cells: &Cells, timer: &mut Timer) -> u64 {
        let mut fnv = Fnv::default();
        let mut ops = 0;
        for _ in 0..self.rounds {
            let mut unit = 0;
            for (cell, plans) in cells {
                for plan in plans {
                    let report = timer.time(unit, || plan.run());
                    unit += 1;
                    ops += 1;
                    // A rep that erred is missing from the report.
                    let ok = report.outcomes().next().is_some_and(|o| {
                        fnv.outcome(o);
                        let pushed = !cell.pushes() || o.server_pushed_bytes > 0;
                        // Only the lossy link may end a load with resources missing.
                        let whole = self.name == "lossy" || !o.load.partial;
                        o.load.finished() && pushed && whole
                    });
                    self.res.failed += u64::from(!ok);
                }
            }
        }
        self.res.attempted += ops;
        self.prints.push(fnv.finish53());
        ops
    }
}

/// Run serial workload `name`.
pub fn run(name: &str, args: &Args) -> RunResult {
    let scale = Scale::of(args);
    let mut run =
        Run { name, rounds: rounds_per_pass(name), res: RunResult::default(), prints: Vec::new() };

    let (cells, setups) = set_up(|| setup(name, args, scale));
    run.res.put_median("setup_s", setups);

    let units: usize = cells.iter().map(|(_, plans)| plans.len()).sum();
    let mut timer = Timer::new(vec![1; units]);
    timer.pass(false, |t| run.pass(&cells, t));
    let passes = timer.timed_passes(scale.seconds, scale.min_passes, |t| run.pass(&cells, t));
    let (counted_pass, allocs, bytes) = counted(|| timer.pass(false, |t| run.pass(&cells, t)));

    let Run { mut res, prints, .. } = run;
    res.check(prints.iter().all(|&p| p == prints[0]), || {
        format!("pass fingerprints differ: {prints:016x?}")
    });
    res.put_with(
        "replays_per_s",
        timer.ops_per_s(),
        passes.iter().map(|p| p.ops_per_s()).collect(),
    );
    res.put("cpu_ms_per_replay", timer.cpu_ms_per_op());
    res.put("allocs_per_replay", allocs as f64 / counted_pass.ops as f64);
    res.put("alloc_kb_per_replay", bytes as f64 / 1024.0 / counted_pass.ops as f64);
    res.put("peak_rss_mb", peak_rss_mb());
    res.put("failed_share", res.failed as f64 / res.attempted as f64);
    res.facts = vec![
        ("passes", passes.len() as u64),
        ("ops_per_pass", counted_pass.ops),
        ("samples_per_unit", timer.wall_samples(0).iter().map(Vec::len).sum::<usize>() as u64),
        ("threads", 1),
        ("outcome_fnv", prints[0]),
    ];
    res
}
