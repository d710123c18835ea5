//! `grid` in the traced run: the grid's cells one by one (spans, counts,
//! switches, like a serial workload) and the machinery only a sweep has —
//! worker scaling, sweep vs independent plans, the journal.

use h2push_benchmark::spec::RunResult;
use h2push_benchmark::stats::low_percentile;
use h2push_benchmark::workloads::{
    grid_plan, grid_sites, grid_strategies, grid_workers, SimCell, GRID_CORPUS_SEED,
};
use h2push_testbed::{set_worker_threads, RunPlan};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every (site, strategy) cell of the grid, prepared as the sweep
/// prepares them.
pub fn cells() -> Vec<SimCell> {
    let sites = grid_sites(GRID_CORPUS_SEED);
    grid_strategies()
        .into_iter()
        .flat_map(|strategy| {
            sites.iter().map(move |page| SimCell::of(page, strategy.clone(), true))
        })
        .collect()
}

fn seconds(samples: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    low_percentile(&times)
}

/// The sweep-only ratios, on the grid at `reps` reps per cell.
pub fn sweep_machinery(seed: u64, reps: usize, journal: &Path, res: &mut RunResult) {
    const SAMPLES: usize = 5;
    let workers = grid_workers();
    let sites = grid_sites(GRID_CORPUS_SEED);
    let plan = grid_plan(&sites, reps, seed, workers);
    let cells = sites.len() * grid_strategies().len();
    black_box(plan.run().completed());

    let at_workers = seconds(SAMPLES, || drop(black_box(plan.run())));
    let journaled = seconds(SAMPLES, || drop(black_box(plan.checkpoint(journal))));
    let _ = std::fs::remove_file(journal);
    res.put("testbed.journal_us_per_cell", (journaled - at_workers) * 1e6 / cells as f64);

    // The same cells as independent prepared plans on the same pool: what
    // a sweep saves over a loop of `RunPlan`s.
    // (`SimCell::plan` is serial; the comparison wants the pool.)
    let plans: Vec<RunPlan> = self::cells()
        .iter()
        .map(|c| {
            RunPlan::new(c.inputs.clone().prepared())
                .strategy(c.strategy.clone())
                .reps(reps)
                .seed(seed)
        })
        .collect();
    let independent = seconds(SAMPLES, || plans.iter().for_each(|p| drop(black_box(p.run()))));
    res.put("testbed.sweep_vs_runplan", independent / at_workers);

    set_worker_threads(Some(1));
    let one = seconds(SAMPLES, || drop(black_box(plan.run())));
    set_worker_threads(Some(2));
    let two = seconds(SAMPLES, || drop(black_box(plan.run())));
    set_worker_threads(Some(workers));
    res.put("testbed.scaling_2w", one / two);
}
