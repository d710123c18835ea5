//! Fig. 3 and the §4.2 "Pushable Objects" statistic.
//!
//! * Pushable objects: 52 % of top-100 and 24 % of random-100 sites have
//!   < 20 % pushable objects.
//! * Fig. 3a: Δ SpeedIndex CDF of *push all* (computed order) vs no push;
//!   only 58 % (top) / 45 % (random) of sites benefit.
//! * Fig. 3b: Δ PLT and Δ SpeedIndex for push-N, N ∈ {1, 5, 10, 15, all},
//!   on the random set: pushing less is less harmful but rarely much
//!   better.
//!
//! Fig. 3a (one row per corpus) and Fig. 3b are [`Paired`] rows.

use super::paired::{Corpus, Paired};
use super::Scale;
use h2push_strategies::{push_all, push_first_n};
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

/// Fig. 3a on the top-100: push all in the computed order vs no push.
pub const FIG3A_TOP: Paired = Paired {
    title: "Fig. 3a [top-100] — push all in computed order vs no push",
    corpus: Corpus::Generated(CorpusKind::Top),
    ordered: true,
    treatments: &[("push all", push_all)],
    paper: "paper: 58% of top-100 sites benefit (ΔSI < 0)",
};

/// Fig. 3a on the random-100.
pub const FIG3A_RANDOM: Paired = Paired {
    title: "Fig. 3a [random-100] — push all in computed order vs no push",
    corpus: Corpus::Generated(CorpusKind::Random),
    paper: "paper: 45% of random-100 sites benefit (ΔSI < 0)",
    ..FIG3A_TOP
};

/// Fig. 3b: push the first 1, 5, 10, 15 or all objects of the computed
/// order on the random set.
pub const FIG3B: Paired = Paired {
    title: "Fig. 3b — limited push amounts vs no push, random-100",
    corpus: Corpus::Generated(CorpusKind::Random),
    ordered: true,
    treatments: &[
        ("push 1", |page, order| push_first_n(page, order, 1)),
        ("push 5", |page, order| push_first_n(page, order, 5)),
        ("push 10", |page, order| push_first_n(page, order, 10)),
        ("push 15", |page, order| push_first_n(page, order, 15)),
        ("push all", push_all),
    ],
    paper: "paper: pushing less is less harmful but rarely much better",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::clean;

    #[test]
    fn fig3a_shows_mixed_outcomes() {
        let scale = Scale { sites: 8, runs: 3, seed: 2 };
        let rows = clean(|lost| FIG3A_RANDOM.run(scale, lost));
        assert_eq!(rows.len(), 8);
        // The headline: push-all is NOT a universal win.
        let hurt = rows.iter().filter(|r| r.treatments[0].median[1] > 0.0).count();
        assert!(hurt > 0, "push-all should hurt someone: {rows:?}");
    }

    #[test]
    fn fig3b_produces_all_limits() {
        let rows = clean(|lost| FIG3B.run(Scale { sites: 3, runs: 3, seed: 4 }, lost));
        let labels: Vec<&str> = FIG3B.treatments.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels, ["push 1", "push 5", "push 10", "push 15", "push all"]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.treatments.len(), labels.len());
        }
    }
}
