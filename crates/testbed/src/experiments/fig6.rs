//! Fig. 6 — the six §5 strategies on the Table-1 real-world sites w1–w20.
//!
//! The paper reports average relative SpeedIndex changes against the
//! no-push baseline with 99.5 % confidence intervals: five sites improve
//! by ≥ 20 % under *push critical optimized* (w1 wikipedia by ~69 %),
//! while sites dominated by blocking head scripts (w7/w8), inline JS
//! (w10) or third-party sprawl (w17) see little or negative change.

use super::{cell, fan_out, mean_pushed_bytes, summaries, Scale};
use crate::sweep::CellStats;
use h2push_metrics::relative_change_pct;
use h2push_strategies::{paper_strategy, PaperStrategy};
use h2push_webmodel::realworld_set;

/// Result of one (site, strategy) cell.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    /// Strategy.
    pub strategy: PaperStrategy,
    /// Measurements.
    pub metrics: CellStats,
    /// Mean relative SpeedIndex change vs the no-push baseline (%).
    pub si_pct: f64,
    /// Mean relative PLT change vs the no-push baseline (%).
    pub plt_pct: f64,
    /// Bytes pushed (protocol level).
    pub pushed_bytes: f64,
}

/// One site's row across all six strategies.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Site name (`wN-label`).
    pub site: String,
    /// The six cells in [`PaperStrategy::ALL`] order.
    pub cells: Vec<Fig6Cell>,
}

impl Fig6Row {
    /// The cell of a given strategy.
    pub fn cell(&self, s: PaperStrategy) -> &Fig6Cell {
        self.cells.iter().find(|c| c.strategy == s).expect("all strategies present")
    }
}

/// Run the Fig. 6 experiment over all twenty sites.
pub fn fig6_realworld(scale: Scale, lost: &mut Vec<String>) -> Vec<Fig6Row> {
    // Per site: the six strategies in `ALL` order (no push first), each
    // on the page variant it ships with.
    fan_out(
        &realworld_set(),
        |page| {
            let cells = PaperStrategy::ALL.map(|which| {
                let (variant, strategy) = paper_strategy(page, which);
                cell(&variant.into(), strategy, scale, scale.seed)
            });
            cells.into()
        },
        |page, m| {
            let (base_plt, base_si) = summaries(&m[0]);
            let cell = |(&strategy, metrics): (_, &CellStats)| {
                let (plt, si) = summaries(metrics);
                Fig6Cell {
                    strategy,
                    si_pct: relative_change_pct(si.mean, base_si.mean),
                    plt_pct: relative_change_pct(plt.mean, base_plt.mean),
                    pushed_bytes: mean_pushed_bytes(metrics),
                    metrics: metrics.clone(),
                }
            };
            let cells = PaperStrategy::ALL.iter().zip(m).map(cell).collect();
            Fig6Row { site: page.name.clone(), cells }
        },
        lost,
    )
}

/// The paper's Fig. 6a winner criterion: ≥ 20 % SpeedIndex improvement
/// under push critical optimized.
pub fn winners(rows: &[Fig6Row]) -> Vec<&Fig6Row> {
    rows.iter().filter(|r| r.cell(PaperStrategy::PushCriticalOptimized).si_pct <= -20.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::clean;

    #[test]
    fn full_grid_runs_and_w1_wins_big() {
        let rows = clean(|lost| fig6_realworld(Scale { sites: 20, runs: 3, seed: 10 }, lost));
        assert_eq!(rows.len(), 20);
        for r in &rows {
            assert_eq!(r.cells.len(), 6);
            assert_eq!(r.cell(PaperStrategy::NoPush).si_pct, 0.0);
        }
        // The flagship result: wikipedia improves massively under
        // push-critical-optimized, and the push budget shrinks vs push-all.
        let w1 = rows.iter().find(|r| r.site.starts_with("w1-")).unwrap();
        let crit = w1.cell(PaperStrategy::PushCriticalOptimized);
        assert!(crit.si_pct < -30.0, "w1 improvement was {}%", crit.si_pct);
        let all = w1.cell(PaperStrategy::PushAllOptimized);
        assert!(crit.pushed_bytes < all.pushed_bytes / 3.0);
        // And some sites do not benefit (the paper's Fig. 6b side): the
        // JS-dominated (w7/w8), inline-heavy (w10) and already-optimized
        // pages keep their gains small.
        let non_winners = rows
            .iter()
            .filter(|r| r.cell(PaperStrategy::PushCriticalOptimized).si_pct > -16.0)
            .count();
        assert!(non_winners >= 5, "only {non_winners} non-winners — too rosy");
        let w10 = rows.iter().find(|r| r.site.starts_with("w10-")).unwrap();
        assert!(
            w10.cell(PaperStrategy::PushCriticalOptimized).si_pct > -10.0,
            "walmart's inlined JS should defeat interleaving"
        );
        // The winner list is a minority, as in Fig. 6a.
        let n_win = winners(&rows).len();
        assert!((2..=12).contains(&n_win), "{n_win} winners of 20");
    }
}
