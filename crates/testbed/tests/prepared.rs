//! The PreparedPage determinism contract, end to end through the public
//! API: a replay backed by the page's HPACK memos (memoized header blocks
//! and decode results) is **byte-identical** to one that encodes and
//! decodes every block, for every strategy, traced and untraced, with and
//! without injected faults. The memos may only change how fast a rep runs
//! — never a single output bit.

use h2push_strategies::Strategy;
use h2push_testbed::{FaultProfile, Mode, ReplayInputs, RunPlan, SweepPlan};
use h2push_webmodel::{generate_site, CorpusKind, ResourceId};

fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("no-push", Strategy::NoPush),
        ("push-list", Strategy::PushList { order: vec![ResourceId(1), ResourceId(2)] }),
        (
            "interleaved",
            Strategy::Interleaved {
                offset: 2_000,
                critical: vec![ResourceId(1)],
                after: vec![ResourceId(2)],
            },
        ),
    ]
}

/// Run `plan` live and with `.prepared()`, serially (rep order fixed),
/// and assert every rep agrees on every observable output.
fn assert_prepared_matches_live(plan: RunPlan, what: &str) {
    let live = plan.clone().serial().run();
    let prepared = plan.prepared().serial().run();
    assert_eq!(live.len(), prepared.len(), "{what}: completed rep count diverged");
    assert!(!live.is_empty(), "{what}: no reps completed — the scenario is vacuous");
    for (rep, (a, b)) in live.runs.iter().zip(&prepared.runs).enumerate() {
        assert_eq!(a.outcome.load, b.outcome.load, "{what} rep {rep}: load metrics diverged");
        assert_eq!(
            a.outcome.trace.order, b.outcome.trace.order,
            "{what} rep {rep}: request order diverged"
        );
        assert_eq!(
            a.outcome.server_pushed_bytes, b.outcome.server_pushed_bytes,
            "{what} rep {rep}: pushed bytes diverged"
        );
        assert_eq!(a.outcome.net, b.outcome.net, "{what} rep {rep}: net stats diverged");
        assert_eq!(a.timeline, b.timeline, "{what} rep {rep}: timelines diverged");
    }
}

/// Property sweep: synthetic sites × all strategies × traced/untraced ×
/// fault-free and 2% Gilbert–Elliott loss. Prepared replay must be
/// byte-identical to live replay in every cell.
#[test]
fn prepared_replay_is_byte_identical_to_live() {
    for site_seed in [11u64, 23, 47] {
        let inputs = ReplayInputs::from(generate_site(CorpusKind::Random, site_seed));
        for (label, strategy) in strategies() {
            for traced in [false, true] {
                for faults in [false, true] {
                    let mut plan = RunPlan::new(&inputs)
                        .strategy(strategy.clone())
                        .mode(Mode::Testbed)
                        .reps(3)
                        .seed(site_seed ^ 0x5eed);
                    if traced {
                        plan = plan.traced();
                    }
                    if faults {
                        plan = plan.faults(FaultProfile::gilbert_elliott(0.02));
                    }
                    let what =
                        format!("site {site_seed} / {label} / traced={traced} / ge2%={faults}");
                    assert_prepared_matches_live(plan, &what);
                }
            }
        }
    }
}

/// Internet mode draws stochastic conditions from the seed; the artifact
/// must not perturb that draw either.
#[test]
fn prepared_replay_matches_live_under_internet_mode() {
    let inputs = ReplayInputs::from(generate_site(CorpusKind::Random, 5));
    for (label, strategy) in strategies() {
        let plan = RunPlan::new(&inputs)
            .strategy(strategy.clone())
            .mode(Mode::Internet)
            .reps(3)
            .seed(99)
            .traced();
        assert_prepared_matches_live(plan, &format!("internet / {label}"));
    }
}

/// A sweep grid (which always prepares its sites) agrees cell-for-cell
/// with live unprepared plans, traced timelines included.
#[test]
fn sweep_cells_match_live_unprepared_plans() {
    let pages: Vec<_> = [31u64, 37].iter().map(|&s| generate_site(CorpusKind::Random, s)).collect();
    let strategies = vec![Strategy::NoPush, Strategy::PushList { order: vec![ResourceId(1)] }];
    let report = SweepPlan::new()
        .strategies(strategies.clone())
        .sites(pages.iter().cloned())
        .reps(2)
        .seed(7)
        .run();
    assert_eq!(report.cells.len(), strategies.len() * pages.len());
    for cell in &report.cells {
        let page = pages.iter().find(|p| p.name == cell.site).expect("site page");
        let strategy = strategies
            .iter()
            .find(|s| h2push_testbed::strategy_label(s) == cell.strategy)
            .expect("strategy");
        let live = RunPlan::new(page).strategy(strategy.clone()).reps(2).seed(7).serial().run();
        assert_eq!(cell.report.len(), live.len(), "{}/{}", cell.strategy, cell.site);
        for (a, b) in cell.report.outcomes().zip(live.outcomes()) {
            assert_eq!(a.load, b.load, "{}/{}", cell.strategy, cell.site);
            assert_eq!(a.trace.order, b.trace.order);
            assert_eq!(a.net, b.net);
        }
    }
}
