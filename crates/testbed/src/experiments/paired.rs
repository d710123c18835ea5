//! The paired Δ driver: every experiment that measures push strategies
//! against no push on a set of sites — Fig. 2b, Fig. 3a (both corpora),
//! Fig. 3b, the §4.2.1 type study and Fig. 4 — is one [`Paired`] row,
//! declared next to its figure and run by [`Paired::run`].
//!
//! Every arm of a row runs on `scale.seed`: rep `r` of the no-push
//! baseline and of each treatment shares network seed `scale.seed + r`
//! and the `cpu_scale` drawn from it, so the testbed (deterministic given
//! its seed) differs between the arms of a pair only by the strategy.
//! Per (site, treatment) the fold takes the per-rep differences of PLT
//! and SpeedIndex in rep order and keeps their median, their [`Class`]
//! by an exact sign test and the mean pushed bytes. Each row also measures
//! an A/A arm — no push on the `scale.runs` seeds after the baseline's —
//! through the same fold: the share of sites it classes better or worse
//! is the row's noise floor.

use super::{cell, fan_out, mean_pushed_bytes, push_orders, record_all, Scale};
use crate::plan::RunPlan;
use crate::replay::ReplayInputs;
use crate::sweep::CellStats;
use h2push_metrics::percentile;
use h2push_strategies::Strategy;
use h2push_webmodel::{generate_set, synthetic_set, CorpusKind, Page, ResourceId};

/// The sites a paired experiment runs on.
#[derive(Debug, Clone, Copy)]
pub enum Corpus {
    /// `scale.sites` generated sites of a kind.
    Generated(CorpusKind),
    /// The ten single-server sites s1–s10 (whatever `scale.sites`).
    Synthetic,
}

/// A treatment's strategy for a page, given the §4.2 computed push order
/// (empty when the row computes none).
pub type Treat = fn(&Page, &[ResourceId]) -> Strategy;

/// One paired experiment: the no-push baseline against each labelled
/// treatment on every site of a corpus.
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// What the report's header calls it.
    pub title: &'static str,
    /// The sites.
    pub corpus: Corpus,
    /// Whether the treatments push in the §4.2 computed order
    /// ([`push_orders`]).
    pub ordered: bool,
    /// `(label, strategy)` per treatment, in report order.
    pub treatments: &'static [(&'static str, Treat)],
    /// What the paper reports for it.
    pub paper: &'static str,
}

/// How an arm's paired differences fall: the exact two-sided binomial
/// sign test over the untied pairs at 0.005, the paper's 99.5 % level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Significantly more reps were faster than slower.
    Better,
    /// Neither direction is significant.
    Indistinguishable,
    /// Significantly more reps were slower than faster.
    Worse,
}

/// One arm of a site against its no-push baseline, pair by pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Median per-rep Δ of (PLT, SpeedIndex), ms; Δ < 0 is better.
    pub median: [f64; 2],
    /// The sign-test class of the same differences.
    pub class: [Class; 2],
    /// Mean bytes pushed per rep.
    pub pushed_bytes: f64,
}

/// One site of a paired experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedSite {
    /// Site name.
    pub site: String,
    /// The baseline's median (PLT, SpeedIndex), ms.
    pub base: [f64; 2],
    /// No push on disjoint seeds against the baseline.
    pub aa: Delta,
    /// One per treatment, in the row's order.
    pub treatments: Vec<Delta>,
}

impl Paired {
    /// Record the corpus, compute the push orders if the row needs them,
    /// and measure every site's arms as one fan-out.
    pub fn run(&self, scale: Scale, lost: &mut Vec<String>) -> Vec<PairedSite> {
        let sites = record_all(match self.corpus {
            Corpus::Generated(kind) => generate_set(kind, scale.sites, scale.seed),
            Corpus::Synthetic => synthetic_set(),
        });
        let orders = match self.ordered {
            true => push_orders(&sites, scale.runs.min(7), scale.seed, lost),
            false => vec![Vec::new(); sites.len()],
        };
        let sites: Vec<_> = sites.iter().zip(&orders).map(|(s, o)| (s, o.as_slice())).collect();
        measure(&sites, |site, order| self.arms(site, order, scale), scale, lost)
    }

    /// A site's cells: the no-push baseline on `scale.seed`, the A/A arm
    /// (no push on the next `scale.runs` seeds), then every treatment on
    /// `scale.seed`.
    pub(crate) fn arms(
        &self,
        site: &ReplayInputs,
        order: &[ResourceId],
        scale: Scale,
    ) -> Vec<RunPlan> {
        let aa_seed = scale.seed.wrapping_add(scale.runs as u64);
        let treated = self.treatments.iter().map(|(_, treat)| treat(&site.page, order));
        [(Strategy::NoPush, scale.seed), (Strategy::NoPush, aa_seed)]
            .into_iter()
            .chain(treated.map(|strategy| (strategy, scale.seed)))
            .map(|(strategy, seed)| cell(site, strategy, scale, seed))
            .collect()
    }
}

/// Run every site's `declare`d arms (baseline, A/A, treatments) as one
/// fan-out and fold each arm against the baseline. Pairing by position
/// needs every rep of every arm: a site with a failed or partial rep gets
/// no row. A failed rep is already a `lost` line ([`super::fan_out`]); a
/// partial one adds one here.
pub(crate) fn measure(
    sites: &[(&ReplayInputs, &[ResourceId])],
    declare: impl Fn(&ReplayInputs, &[ResourceId]) -> Vec<RunPlan>,
    scale: Scale,
    lost: &mut Vec<String>,
) -> Vec<PairedSite> {
    let row = |&(site, order): &(&ReplayInputs, &[ResourceId]), m: &[CellStats]| {
        if m.iter().all(|arm| arm.plt.len() == scale.runs) {
            return Ok(fold(site, m));
        }
        let partial = declare(site, order).into_iter().zip(m).filter(|(_, arm)| arm.partial > 0);
        let line = |(plan, arm): (RunPlan, &CellStats)| {
            let (strategy, site) = plan.label();
            format!("{strategy:<14} {site:<16} {}/{} partial", arm.partial, arm.n)
        };
        Err(partial.map(line).collect::<Vec<_>>())
    };
    let rows = fan_out(sites, |&(site, order)| declare(site, order), row, lost);
    rows.into_iter().filter_map(|row| row.map_err(|partial| lost.extend(partial)).ok()).collect()
}

/// A complete site's row: each arm after the first against the first.
fn fold(site: &ReplayInputs, m: &[CellStats]) -> PairedSite {
    let base = &m[0];
    let delta = |arm: &CellStats| {
        let paired = |ours: &[f64], theirs: &[f64]| {
            let d: Vec<f64> = ours.iter().zip(theirs).map(|(a, b)| a - b).collect();
            (percentile(&d, 50.0), sign_test(&d))
        };
        let (plt, si) = (paired(&arm.plt, &base.plt), paired(&arm.speed_index, &base.speed_index));
        Delta { median: [plt.0, si.0], class: [plt.1, si.1], pushed_bytes: mean_pushed_bytes(arm) }
    };
    PairedSite {
        site: site.page.name.clone(),
        base: [percentile(&base.plt, 50.0), percentile(&base.speed_index, 50.0)],
        aa: delta(&m[1]),
        treatments: m[2..].iter().map(delta).collect(),
    }
}

/// The exact two-sided binomial sign test at 0.005, the paper's 99.5 %
/// level, over the untied pairs of `deltas` (a zero is a tie and is
/// dropped). Of `n` untied pairs, `k` point the minority way; the p-value
/// is 2·P[X ≤ k] for X ~ Bin(n, ½). So 31 pairs need 24 that agree, and
/// fewer than 9 never classify.
pub(crate) fn sign_test(deltas: &[f64]) -> Class {
    let better = deltas.iter().filter(|&&d| d < 0.0).count();
    let worse = deltas.iter().filter(|&&d| d > 0.0).count();
    let (n, k) = (better + worse, better.min(worse));
    // P[X ≤ k], term by term in log space so a long run cannot underflow.
    let mut ln_term = n as f64 * 0.5f64.ln();
    let mut tail = ln_term.exp();
    for i in 1..=k {
        ln_term += ((n - i + 1) as f64 / i as f64).ln();
        tail += ln_term.exp();
    }
    match 2.0 * tail <= 0.005 {
        false => Class::Indistinguishable,
        true if better > worse => Class::Better,
        true => Class::Worse,
    }
}

/// The shares of `rows` whose `arm` the sign test classes better,
/// indistinguishable and worse, for (PLT, SpeedIndex).
pub fn shares(rows: &[PairedSite], arm: impl Fn(&PairedSite) -> &Delta) -> [[f64; 3]; 2] {
    let classes = [Class::Better, Class::Indistinguishable, Class::Worse];
    [0, 1].map(|metric| {
        classes.map(|class| {
            let n = rows.iter().filter(|row| arm(row).class[metric] == class).count();
            n as f64 / rows.len().max(1) as f64
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `agree` pairs one way, `disagree` the other, `ties` zeros.
    fn pairs(agree: usize, disagree: usize, ties: usize) -> Vec<f64> {
        let mut d = vec![-3.0; agree];
        d.extend(vec![2.0; disagree]);
        d.extend(vec![0.0; ties]);
        d
    }

    #[test]
    fn the_sign_test_classes_24_of_31_and_never_8_pairs() {
        assert_eq!(sign_test(&pairs(23, 8, 0)), Class::Indistinguishable);
        assert_eq!(sign_test(&pairs(24, 7, 0)), Class::Better);
        let worse: Vec<f64> = pairs(24, 7, 0).iter().map(|d| -d).collect();
        assert_eq!(sign_test(&worse), Class::Worse);
        // Ties are dropped before counting: 24 of 31 untied stays classed
        // however many zeros come with it, and 23 of 31 stays unclassed.
        assert_eq!(sign_test(&pairs(24, 7, 20)), Class::Better);
        assert_eq!(sign_test(&pairs(23, 8, 20)), Class::Indistinguishable);
        // Eight untied pairs never classify, not even eight of eight …
        assert_eq!(sign_test(&pairs(8, 0, 23)), Class::Indistinguishable);
        // … and nine of nine is the least that does.
        assert_eq!(sign_test(&pairs(9, 0, 0)), Class::Better);
        assert_eq!(sign_test(&[]), Class::Indistinguishable);
    }
}
