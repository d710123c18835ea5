//! The `grid` workload: journaled, streaming `SweepPlan`s over the
//! generated corpus on the worker pool, one per strategy column.

use h2push_benchmark::alloc::counted;
use h2push_benchmark::cli::Args;
use h2push_benchmark::fingerprint::Fnv;
use h2push_benchmark::harness::{set_up, Scale, Timer};
use h2push_benchmark::package_subdir;
use h2push_benchmark::procfs::peak_rss_mb;
use h2push_benchmark::spec::RunResult;
use h2push_benchmark::workloads::{
    grid_column_plans, grid_sites, grid_strategies, grid_workers, GRID_CORPUS_SEED,
};
use h2push_testbed::{SweepPlan, SweepReport};
use std::hint::black_box;
use std::path::PathBuf;

/// Where the sweep of `column` writes its journal: inside the package,
/// ignored by git, one file per process and column so concurrent runs
/// cannot collide.
fn journal_path(column: usize) -> PathBuf {
    package_subdir("tmp").join(format!("grid-{}-{column}.journal", std::process::id()))
}

/// Corpus generation, recording and preparing every site, building the
/// plans, and one cold rep of every cell.
fn setup(args: &Args, scale: Scale) -> Vec<SweepPlan> {
    let sites = grid_sites(GRID_CORPUS_SEED);
    grid_column_plans(&sites, scale.reps, args.seed, grid_workers())
        .into_iter()
        .map(|plan| {
            let plan = if args.force_fail { plan.watchdog_events(1) } else { plan };
            black_box(plan.clone().reps(1).run().completed());
            plan
        })
        .collect()
}

fn digest(report: &SweepReport) -> u64 {
    let mut fnv = Fnv::default();
    fnv.bytes(&report.canonical_bytes());
    fnv.finish()
}

/// One pass: every column's sweep into a fresh journal (the timer's unit
/// is the column). Returns the replays attempted.
fn one_pass(
    plans: &[SweepPlan],
    reps: usize,
    timer: &mut Timer,
    res: &mut RunResult,
    prints: &mut Vec<u64>,
) -> u64 {
    let strategies = grid_strategies();
    let mut fnv = Fnv::default();
    let mut ops = 0;
    for (column, plan) in plans.iter().enumerate() {
        let path = journal_path(column);
        let report =
            timer.time(column, || plan.checkpoint(&path)).expect("journal I/O inside the package");
        ops += (report.cells.len() * reps) as u64;
        for cell in &report.cells {
            // A rep that erred is missing from `n`; a partial load or a
            // pushing cell that pushed nothing fails too.
            let missing = reps as u64 - u64::from(cell.stats.n);
            let unpushed = strategies[column].pushes() && cell.stats.pushed_bytes == 0;
            res.failed += missing
                + u64::from(cell.stats.partial)
                + if unpushed { u64::from(cell.stats.n) } else { 0 };
        }
        fnv.u64(digest(&report));
    }
    res.attempted += ops;
    prints.push(fnv.finish53());
    ops
}

/// Run the `grid` workload.
pub fn run(args: &Args) -> RunResult {
    let scale = Scale::of(args);
    let mut res = RunResult::default();
    let mut prints = Vec::new();

    let (plans, setups) = set_up(|| setup(args, scale));
    res.put_median("setup_s", setups);

    let column_ops = (grid_sites(GRID_CORPUS_SEED).len() * scale.reps) as u64;
    let mut timer = Timer::new(vec![column_ops; plans.len()]);
    timer.pass(false, |t| one_pass(&plans, scale.reps, t, &mut res, &mut prints));
    let passes = timer.timed_passes(scale.seconds, scale.min_passes, |t| {
        one_pass(&plans, scale.reps, t, &mut res, &mut prints)
    });
    let (counted_pass, allocs, bytes) =
        counted(|| timer.pass(false, |t| one_pass(&plans, scale.reps, t, &mut res, &mut prints)));

    res.check(prints.iter().all(|&p| p == prints[0]), || {
        format!("pass fingerprints differ: {prints:016x?}")
    });
    // The last pass left complete journals: resuming them must rebuild the
    // same reports without replaying anything.
    let mut fnv = Fnv::default();
    for (column, plan) in plans.iter().enumerate() {
        let path = journal_path(column);
        match plan.resume(&path) {
            Ok(resumed) => fnv.u64(digest(&resumed)),
            Err(e) => res.check(false, || format!("journal {column} does not resume: {e:?}")),
        }
        let _ = std::fs::remove_file(&path);
    }
    res.check(fnv.finish53() == prints[0], || {
        "resumed journals differ from the uninterrupted run".into()
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
        ("threads", grid_workers() as u64),
        ("outcome_fnv", prints[0]),
    ];
    res
}
