//! Experiment drivers: one function per table/figure of the paper.
//!
//! Each driver returns plain data that `h2push experiment <id>` prints;
//! integration tests run them at reduced scale. See `DESIGN.md` §3 for the
//! experiment index.
//!
//! Every driver has the same shape, which `fan_out` spells out:
//! *declare* each site's cells as [`RunPlan`]s — one per (page variant,
//! strategy, mode, seed) — run all of them as one flat (cell × rep)
//! fan-out, and fold the [`CellStats`] that come back into rows. Drivers
//! that push in the §4.2 computed order run two such phases,
//! `push_orders` first. Nothing nests, so a driver uses the cores
//! exactly once however many sites and strategies it crosses.

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod types_study;

use crate::plan::RunPlan;
use crate::replay::ReplayInputs;
use crate::sweep::CellStats;
use h2push_metrics::RunStats;
use h2push_strategies::Strategy;
use h2push_webmodel::Page;

pub(crate) use crate::harness::push_orders;

/// How big to run an experiment (the paper: 100 sites × 31 runs).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of sites per corpus.
    pub sites: usize,
    /// Repetitions per configuration.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's full scale.
    pub fn paper() -> Self {
        Scale { sites: 100, runs: 31, seed: 42 }
    }

    /// A reduced scale for quick runs and integration tests.
    pub fn quick() -> Self {
        Scale { sites: 12, runs: 5, seed: 42 }
    }
}

/// Record every page once; all cells of a site share the result.
pub(crate) fn record_all(pages: Vec<Page>) -> Vec<ReplayInputs> {
    pages.into_iter().map(ReplayInputs::from).collect()
}

/// Declare one testbed-mode cell: `site` × `strategy`, `scale.runs` reps
/// from `seed`.
pub(crate) fn cell(site: &ReplayInputs, strategy: Strategy, scale: Scale, seed: u64) -> RunPlan {
    RunPlan::new(site).strategy(strategy).reps(scale.runs).seed(seed)
}

/// One measurement phase: `declare` each site's cells, run every
/// (cell × rep) pair of all of them as one flat fan-out — each rep folded
/// to its scalars on the worker that ran it — and fold each site's
/// measured cells, in declaration order, into its row.
pub(crate) fn fan_out<S, R>(
    sites: &[S],
    declare: impl Fn(&S) -> Vec<RunPlan>,
    row: impl Fn(&S, &[CellStats]) -> R,
) -> Vec<R> {
    let cells: Vec<Vec<RunPlan>> = sites.iter().map(declare).collect();
    let declared: Vec<usize> = cells.iter().map(Vec::len).collect();
    let flat: Vec<RunPlan> = cells.into_iter().flatten().collect();
    let mut measured = RunPlan::run_flat(&flat, |run| CellStats::of(std::slice::from_ref(&run)))
        .into_iter()
        .map(|reps| {
            let mut stats = CellStats::default();
            reps.into_iter().for_each(|rep| stats.absorb(rep));
            stats
        });
    sites
        .iter()
        .zip(declared)
        .map(|(site, declared)| {
            let stats: Vec<CellStats> = measured.by_ref().take(declared).collect();
            row(site, &stats)
        })
        .collect()
}

/// The (PLT, SpeedIndex) summaries of a measured cell, in ms.
///
/// # Panics
/// When no rep of the cell completed.
pub(crate) fn summaries(cell: &CellStats) -> (RunStats, RunStats) {
    let stats = cell.plt_stats().zip(cell.speed_index_stats());
    stats.expect("every rep of an experiment cell failed")
}

/// Δ of the median (PLT, SpeedIndex) of `cell` against `base`, in ms
/// (Δ < 0 is better).
pub(crate) fn median_deltas(cell: &CellStats, base: &CellStats) -> (f64, f64) {
    let ((plt, si), (base_plt, base_si)) = (summaries(cell), summaries(base));
    (plt.median - base_plt.median, si.median - base_si.median)
}

/// Mean bytes pushed per completed rep of a measured cell.
pub(crate) fn mean_pushed_bytes(cell: &CellStats) -> f64 {
    cell.pushed_bytes as f64 / cell.n.max(1) as f64
}
