//! Fig. 3 and the §4.2 "Pushable Objects" statistic.
//!
//! * Pushable objects: 52 % of top-100 and 24 % of random-100 sites have
//!   < 20 % pushable objects.
//! * Fig. 3a: Δ SpeedIndex CDF of *push all* (computed order) vs no push;
//!   only 58 % (top) / 45 % (random) of sites benefit.
//! * Fig. 3b: Δ PLT and Δ SpeedIndex for push-N, N ∈ {1, 5, 10, 15, all},
//!   on the random set: pushing less is less harmful but rarely much
//!   better.

use super::{cell, fan_out, median_deltas, push_orders, record_all, Scale};
use h2push_strategies::{push_all, push_first_n, Strategy};
use h2push_webmodel::{generate_set, CorpusKind};

/// The §4.2 pushable-objects statistic for one corpus.
#[derive(Debug, Clone)]
pub struct PushableStats {
    /// Fraction of pushable objects per site.
    pub fractions: Vec<f64>,
    /// Share of sites with < 20 % pushable.
    pub share_below_20pct: f64,
}

/// Compute pushable-object statistics over a corpus.
pub fn pushable_stats(kind: CorpusKind, scale: Scale) -> PushableStats {
    let sites = generate_set(kind, scale.sites, scale.seed);
    let fractions: Vec<f64> = sites.iter().map(|p| p.pushable_fraction()).collect();
    let share = h2push_metrics::share_below(&fractions, 0.2);
    PushableStats { fractions, share_below_20pct: share }
}

/// One site's Fig. 3a outcome.
#[derive(Debug, Clone)]
pub struct Fig3aRow {
    /// Site name.
    pub site: String,
    /// Δ median SpeedIndex (push all − no push), ms.
    pub d_si: f64,
    /// Δ median PLT, ms.
    pub d_plt: f64,
}

/// Fig. 3a: push-all in the computed order vs no push, for `kind`.
pub fn fig3a_push_all(kind: CorpusKind, scale: Scale, lost: &mut Vec<String>) -> Vec<Fig3aRow> {
    let sites = record_all(generate_set(kind, scale.sites, scale.seed));
    let orders = push_orders(&sites, order_runs(scale), scale.seed, lost);
    let ordered: Vec<_> = sites.iter().zip(&orders).collect();
    fan_out(
        &ordered,
        |(site, order)| {
            vec![
                cell(site, Strategy::NoPush, scale, scale.seed),
                cell(site, push_all(&site.page, order), scale, scale.seed ^ 0x33),
            ]
        },
        |(site, _), m| {
            let (d_plt, d_si) = median_deltas(&m[1], &m[0]);
            Fig3aRow { site: site.page.name.clone(), d_si, d_plt }
        },
        lost,
    )
}

/// Fig. 3b: one row per site per push limit.
#[derive(Debug, Clone)]
pub struct Fig3bRow {
    /// Site name.
    pub site: String,
    /// Push limit (`None` = push all).
    pub limit: Option<usize>,
    /// Δ median PLT (ms).
    pub d_plt: f64,
    /// Δ median SpeedIndex (ms).
    pub d_si: f64,
}

/// The paper's Fig. 3b push limits.
pub const LIMITS: [Option<usize>; 5] = [Some(1), Some(5), Some(10), Some(15), None];

/// Fig. 3b: vary the number of pushed objects on the random set.
pub fn fig3b_push_limit(scale: Scale, lost: &mut Vec<String>) -> Vec<Fig3bRow> {
    let sites = record_all(generate_set(CorpusKind::Random, scale.sites, scale.seed));
    let orders = push_orders(&sites, order_runs(scale), scale.seed, lost);
    let ordered: Vec<_> = sites.iter().zip(&orders).collect();
    // Per site: the no-push baseline, then one cell per limit.
    let rows = fan_out(
        &ordered,
        |(site, order)| {
            let limited = LIMITS.iter().map(|&limit| {
                let strategy = match limit {
                    Some(n) => push_first_n(&site.page, order, n),
                    None => push_all(&site.page, order),
                };
                cell(site, strategy, scale, scale.seed ^ 0x44)
            });
            let base = cell(site, Strategy::NoPush, scale, scale.seed);
            std::iter::once(base).chain(limited).collect()
        },
        |(site, _), m| {
            let row = |(&limit, limited)| {
                let (d_plt, d_si) = median_deltas(limited, &m[0]);
                Fig3bRow { site: site.page.name.clone(), limit, d_plt, d_si }
            };
            LIMITS.iter().zip(&m[1..]).map(row).collect::<Vec<_>>()
        },
        lost,
    );
    rows.into_iter().flatten().collect()
}

/// Number of no-push replays used for the §4.2 order computation; scaled
/// down together with the run count.
fn order_runs(scale: Scale) -> usize {
    scale.runs.min(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::clean;

    #[test]
    fn fig3a_shows_mixed_outcomes() {
        let scale = Scale { sites: 8, runs: 3, seed: 2 };
        let rows = clean(|lost| fig3a_push_all(CorpusKind::Random, scale, lost));
        assert_eq!(rows.len(), 8);
        // The headline: push-all is NOT a universal win.
        let hurt = rows.iter().filter(|r| r.d_si > 0.0).count();
        assert!(hurt > 0, "push-all should hurt someone: {rows:?}");
    }

    #[test]
    fn fig3b_produces_all_limits() {
        let rows = clean(|lost| fig3b_push_limit(Scale { sites: 3, runs: 3, seed: 4 }, lost));
        assert_eq!(rows.len(), 3 * LIMITS.len());
        for &limit in &LIMITS {
            assert_eq!(rows.iter().filter(|r| r.limit == limit).count(), 3);
        }
    }
}
