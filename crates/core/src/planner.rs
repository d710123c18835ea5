//! Automatic strategy generation (§6 "Use in CDN Deployments").
//!
//! The paper closes by sketching how a CDN could generate (interleaving)
//! push strategies automatically: analyse the page, derive critical
//! resources and a switch offset, validate candidate strategies in the
//! testbed, and pick the winner. [`PushPlanner`] implements exactly that
//! loop on top of the replay testbed.

use h2push_strategies::{critical_set, interleave_offset, paper_strategy, PaperStrategy, Strategy};
use h2push_testbed::{run_cells, Mode, RunPlan};
use h2push_webmodel::Page;

/// A candidate strategy with its measured performance.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Which paper strategy this is.
    pub which: PaperStrategy,
    /// The page variant it runs on (possibly critical-CSS-rewritten).
    pub page: Page,
    /// The concrete strategy.
    pub strategy: Strategy,
    /// Median SpeedIndex over the validation runs (ms).
    pub speed_index: f64,
    /// Median PLT over the validation runs (ms).
    pub plt: f64,
    /// Bytes pushed per load.
    pub pushed_bytes: f64,
}

/// Outcome of planning: the winner plus every evaluated candidate.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Index of the chosen candidate in `candidates`.
    pub chosen: usize,
    /// All evaluated candidates, in [`PaperStrategy::ALL`] order.
    pub candidates: Vec<Candidate>,
}

impl Plan {
    /// The winning candidate.
    pub fn winner(&self) -> &Candidate {
        &self.candidates[self.chosen]
    }

    /// The no-push baseline.
    pub fn baseline(&self) -> &Candidate {
        self.candidates
            .iter()
            .find(|c| c.which == PaperStrategy::NoPush)
            .expect("baseline always evaluated")
    }

    /// Relative SpeedIndex improvement of the winner over no push (%).
    pub fn improvement_pct(&self) -> f64 {
        h2push_metrics::relative_change_pct(self.winner().speed_index, self.baseline().speed_index)
    }
}

/// Plans push strategies for pages by measuring candidates in the testbed.
#[derive(Debug, Clone)]
pub struct PushPlanner {
    /// Replays per candidate (the paper uses 31; planning tolerates less).
    pub runs: usize,
    /// Base seed for the validation runs.
    pub seed: u64,
    /// Prefer a candidate that pushes fewer bytes when it is within this
    /// fraction of the best SpeedIndex ("pushing less is preferable",
    /// §4.2.1 / §4.3).
    pub byte_tolerance: f64,
}

impl Default for PushPlanner {
    fn default() -> Self {
        PushPlanner { runs: 7, seed: 42, byte_tolerance: 0.03 }
    }
}

impl PushPlanner {
    /// Evaluate all six paper strategies on `page` and choose. The six
    /// candidates are the cells of one executor call ([`run_cells`]), so
    /// their validation runs share one fan-out.
    ///
    /// # Panics
    /// When a validation run fails (naming every candidate that lost
    /// one): a candidate's median must rest on all the runs it asked for.
    pub fn plan(&self, page: &Page) -> Plan {
        let variants = PaperStrategy::ALL.map(|which| (which, paper_strategy(page, which)));
        let cells: Vec<RunPlan> = variants
            .iter()
            .map(|(_, (variant, strategy))| {
                RunPlan::new(variant)
                    .strategy(strategy.clone())
                    .mode(Mode::Testbed)
                    .reps(self.runs)
                    .seed(self.seed)
            })
            .collect();
        let mut lost = Vec::new();
        let runs = run_cells(
            &cells,
            |run| {
                let o = run.outcome;
                (o.load.speed_index(), o.load.plt(), o.server_pushed_bytes)
            },
            &mut lost,
        );
        assert!(lost.is_empty(), "validation runs failed:\n{}", lost.join("\n"));
        let candidates: Vec<Candidate> = variants
            .into_iter()
            .zip(runs)
            .map(|((which, (variant, strategy)), reps)| {
                let mut sis: Vec<f64> = reps.iter().map(|r| r.0).collect();
                let mut plts: Vec<f64> = reps.iter().map(|r| r.1).collect();
                sis.sort_by(|a, b| a.partial_cmp(b).unwrap());
                plts.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let pushed = reps.iter().map(|r| r.2 as f64).sum::<f64>() / reps.len() as f64;
                Candidate {
                    which,
                    page: variant,
                    strategy,
                    speed_index: sis[sis.len() / 2],
                    plt: plts[plts.len() / 2],
                    pushed_bytes: pushed,
                }
            })
            .collect();
        // Choose: best SpeedIndex; among candidates within `byte_tolerance`
        // of it, the one pushing the fewest bytes.
        let best_si = candidates.iter().map(|c| c.speed_index).fold(f64::INFINITY, f64::min);
        let chosen = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.speed_index <= best_si * (1.0 + self.byte_tolerance))
            .min_by(|(_, a), (_, b)| {
                a.pushed_bytes
                    .partial_cmp(&b.pushed_bytes)
                    .unwrap()
                    .then(a.speed_index.partial_cmp(&b.speed_index).unwrap())
            })
            .map(|(i, _)| i)
            .expect("at least one candidate");
        Plan { chosen, candidates }
    }

    /// The static (no-measurement) recommendation: interleave the critical
    /// set after the head — what a CDN would deploy before any A/B data
    /// exists.
    pub fn static_recommendation(page: &Page) -> Strategy {
        let critical = critical_set(page);
        if critical.is_empty() {
            return Strategy::NoPush;
        }
        Strategy::Interleaved { offset: interleave_offset(page), critical, after: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn late_css_page() -> Page {
        let mut b = PageBuilder::new("planner-test", "p.test", 120_000, 3_000);
        b.resource(ResourceSpec::css(0, 30_000, 1_000, 0.3));
        b.resource(ResourceSpec::image(0, 40_000, 20_000, true, 2.0));
        b.text_paint(8_000, 1.5);
        b.build()
    }

    #[test]
    fn planner_beats_baseline_on_interleaving_friendly_page() {
        let planner = PushPlanner { runs: 3, ..Default::default() };
        let plan = planner.plan(&late_css_page());
        assert_eq!(plan.candidates.len(), 6);
        assert!(
            plan.improvement_pct() < -10.0,
            "planner should find a winning strategy: {}%",
            plan.improvement_pct()
        );
        // The winner pushes (it cannot be plain no-push on this page).
        assert!(plan.winner().which != PaperStrategy::NoPush);
    }

    #[test]
    fn static_recommendation_contains_the_css() {
        let page = late_css_page();
        match PushPlanner::static_recommendation(&page) {
            Strategy::Interleaved { critical, offset, .. } => {
                assert!(!critical.is_empty());
                assert!(offset >= page.head_end);
            }
            other => panic!("expected interleaved, got {other:?}"),
        }
    }

    #[test]
    fn empty_critical_set_yields_no_push() {
        let mut b = PageBuilder::new("plain", "p.test", 20_000, 2_000);
        b.resource(ResourceSpec::image(0, 10_000, 10_000, false, 0.0));
        b.text_paint(5_000, 1.0);
        let page = b.build();
        assert_eq!(PushPlanner::static_recommendation(&page), Strategy::NoPush);
    }
}

#[cfg(test)]
mod plan_shape_tests {
    use super::*;
    use h2push_webmodel::realworld_site;

    #[test]
    fn plan_on_w16_prefers_an_interleaving_variant() {
        // Twitter's page already ships critical CSS; the measurable win
        // comes from interleaving, so the planner must land on an
        // optimized (interleaving) strategy.
        let planner = PushPlanner { runs: 3, ..Default::default() };
        let plan = planner.plan(&realworld_site(16));
        assert!(
            matches!(
                plan.winner().which,
                PaperStrategy::PushCriticalOptimized | PaperStrategy::PushAllOptimized
            ),
            "chose {:?}",
            plan.winner().which
        );
        assert!(plan.improvement_pct() < -15.0);
    }

    #[test]
    fn baseline_accessor_finds_no_push() {
        let planner = PushPlanner { runs: 3, ..Default::default() };
        let plan = planner.plan(&realworld_site(5));
        assert_eq!(plan.baseline().which, PaperStrategy::NoPush);
        assert_eq!(plan.baseline().pushed_bytes, 0.0);
        // Candidates preserve the canonical order.
        let order: Vec<_> = plan.candidates.iter().map(|c| c.which).collect();
        assert_eq!(order, PaperStrategy::ALL.to_vec());
    }
}
