//! Experiment drivers: one per table/figure of the paper.
//!
//! Each driver returns plain data that `h2push experiment <id>` prints;
//! integration tests run them at reduced scale. See `DESIGN.md` §3 for the
//! experiment index.
//!
//! The experiments that compare push strategies with no push (Fig. 2b,
//! 3a, 3b, 4 and the type study) are not functions but [`paired::Paired`]
//! rows — corpus, treatments, computed order or not, the paper's number —
//! run by one paired driver. Every arm of a row replays the same seeds,
//! so rep `r` of a treatment and of the no-push baseline differ only by
//! the strategy; each (site, treatment) keeps the median of its per-rep
//! differences and an exact sign test's class (better, indistinguishable
//! or worse at the paper's 99.5 % level), and an A/A arm (no push on
//! disjoint seeds) gives each row its noise floor.
//!
//! Every driver has the same shape, which `fan_out` spells out:
//! *declare* each site's cells as [`RunPlan`]s — one per (page variant,
//! strategy, mode, seed) — run all of them on the testbed's one executor
//! ([`run_cells`]: every (cell × rep) pair as one fan-out, each rep
//! isolated and folded to its [`CellStats`] scalars on its worker), and
//! fold the stats that come back into rows. Drivers that push in the
//! §4.2 computed order run two such phases, `push_orders` first. Nothing
//! nests, so a driver uses the cores exactly once however many sites and
//! strategies it crosses.
//!
//! Every driver takes a `lost: &mut Vec<String>`: the executor appends
//! one status line per cell that lost a repetition, so a failure neither
//! unwinds the experiment nor silently thins a median.

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod paired;
pub mod types_study;

use crate::plan::RunPlan;
use crate::replay::ReplayInputs;
use crate::sweep::{run_cells, CellStats, RepStats};
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
/// (cell × rep) pair of all of them as one fan-out on the executor — each
/// rep folded to its scalars on the worker that ran it — and fold each
/// site's measured cells, in declaration order, into its row.
///
/// A cell that lost a rep is reported in `lost` ([`run_cells`]); its
/// row is computed from the reps that completed. A site with a cell no
/// rep of which completed has nothing to summarise and gets no row.
pub(crate) fn fan_out<S, R>(
    sites: &[S],
    declare: impl Fn(&S) -> Vec<RunPlan>,
    row: impl Fn(&S, &[CellStats]) -> R,
    lost: &mut Vec<String>,
) -> Vec<R> {
    let cells: Vec<Vec<RunPlan>> = sites.iter().map(declare).collect();
    let declared: Vec<usize> = cells.iter().map(Vec::len).collect();
    let flat: Vec<RunPlan> = cells.into_iter().flatten().collect();
    let mut measured =
        run_cells(&flat, |run| RepStats::of(&run), lost).into_iter().map(CellStats::from_reps);
    sites
        .iter()
        .zip(declared)
        .filter_map(|(site, declared)| {
            let stats: Vec<CellStats> = measured.by_ref().take(declared).collect();
            stats.iter().all(|cell| cell.n > 0).then(|| row(site, &stats))
        })
        .collect()
}

/// The (PLT, SpeedIndex) summaries of a measured cell, in ms.
///
/// # Panics
/// When no rep of the cell reached onload ([`fan_out`] never rows a cell
/// without a completed rep).
pub(crate) fn summaries(cell: &CellStats) -> (RunStats, RunStats) {
    let stats = cell.plt_stats().zip(cell.speed_index_stats());
    stats.expect("every rep of an experiment cell was a partial load")
}

/// Mean bytes pushed per completed rep of a measured cell.
pub(crate) fn mean_pushed_bytes(cell: &CellStats) -> f64 {
    cell.pushed_bytes as f64 / cell.n.max(1) as f64
}

/// Run a driver and assert that no cell of it lost a rep.
#[cfg(test)]
pub(crate) fn clean<R>(driver: impl FnOnce(&mut Vec<String>) -> R) -> R {
    let mut lost = Vec::new();
    let rows = driver(&mut lost);
    assert!(lost.is_empty(), "lost cells: {lost:#?}");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceId, ResourceSpec};

    fn site(name: &str) -> ReplayInputs {
        let mut b = PageBuilder::new(name, "fan.test", 30_000, 3_000);
        b.resource(ResourceSpec::css(0, 10_000, 300, 0.4));
        b.text_paint(8_000, 1.0);
        b.build().into()
    }

    #[test]
    fn a_failed_cell_is_reported_and_its_siblings_row_intact() {
        let sites = [site("healthy"), site("starved")];
        let scale = Scale { sites: 2, runs: 3, seed: 5 };
        let declare = |site: &ReplayInputs| {
            let cell = cell(site, Strategy::NoPush, scale, scale.seed);
            // No page loads within one simulation event.
            vec![if site.page.name == "starved" { cell.watchdog_events(1) } else { cell }]
        };
        let row = |site: &ReplayInputs, m: &[CellStats]| (site.page.name.clone(), m[0].clone());
        let mut lost = Vec::new();
        let rows = fan_out(&sites, declare, row, &mut lost);
        // The healthy site's row is what it is when measured alone …
        let alone = clean(|lost| fan_out(&sites[..1], declare, row, lost));
        assert_eq!(rows, alone);
        assert_eq!(rows[0].1.n, 3);
        // … and the starved cell is a report line, not an unwind and not
        // a silently thinner median.
        assert_eq!(lost.len(), 1, "{lost:?}");
        assert!(lost[0].starts_with("no-push"), "{lost:?}");
        assert!(lost[0].contains("starved"), "{lost:?}");
        assert!(lost[0].ends_with("3/3 failed (watchdog\u{d7}3)"), "{lost:?}");

        // A paired row whose treatment arm starves: the site loses its row
        // (no pairs without every rep), and the healthy one keeps its pairs.
        let arms = |site: &ReplayInputs, order: &[ResourceId]| {
            let mut arms = fig4::FIG4.arms(site, order, scale);
            if site.page.name == "starved" {
                arms[2] = arms[2].clone().watchdog_events(1);
            }
            arms
        };
        let pairs: Vec<_> = sites.iter().map(|site| (site, &[][..])).collect();
        let mut lost = Vec::new();
        let rows = paired::measure(&pairs, arms, scale, &mut lost);
        let alone = clean(|lost| paired::measure(&pairs[..1], arms, scale, lost));
        assert_eq!((rows.len(), &rows), (1, &alone));
        assert_eq!(lost.len(), 1, "{lost:?}");
        assert!(lost[0].starts_with("push-list") && lost[0].contains("starved"), "{lost:?}");
    }
}
