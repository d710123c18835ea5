//! Benign-inertness equality suite: the limits-enforced stack must be
//! **byte-identical** to a stack with enforcement effectively disabled on
//! every benign workload.
//!
//! Resource limits are local policy — never advertised in SETTINGS, never
//! adding or reordering frames — so swapping [`ConnLimits::new`] for
//! [`ConnLimits::permissive`] (all bounds at their type maxima, i.e. the
//! pre-enforcement behaviour) must not move a single byte: same load
//! metrics, same request order, same traced frame sequence, same network
//! counters. This suite asserts that across 3 sites × 3 strategies ×
//! {traced, untraced} × {fault-free, 2 % Gilbert–Elliott loss}.

use h2push_h2proto::ConnLimits;
use h2push_strategies::{push_all, Strategy};
use h2push_testbed::{FaultProfile, ReplayInputs, RunPlan, TraceSpec};
use h2push_webmodel::{generate_site, CorpusKind, Page, ResourceId};

fn sites() -> Vec<ReplayInputs> {
    [5u64, 17, 23]
        .iter()
        .map(|&s| ReplayInputs::from(generate_site(CorpusKind::Random, s)))
        .collect()
}

fn strategies(page: &Page) -> Vec<Strategy> {
    let pushable = page.pushable();
    let critical: Vec<ResourceId> = pushable.iter().take(2).copied().collect();
    let after: Vec<ResourceId> = pushable.iter().skip(2).take(2).copied().collect();
    vec![
        Strategy::NoPush,
        push_all(page, &[]),
        Strategy::Interleaved { offset: 6_000, critical, after },
    ]
}

fn run(
    inputs: &ReplayInputs,
    strategy: &Strategy,
    trace: TraceSpec,
    faults: Option<FaultProfile>,
    limits: ConnLimits,
) -> h2push_testbed::RunReport {
    let mut derived = RunPlan::new(inputs).strategy(strategy.clone()).seed(71);
    if let Some(f) = faults {
        derived = derived.faults(f);
    }
    // Each rep runs its derived config with only the limits swapped.
    let runs = (0..2)
        .flat_map(|r| {
            let mut cfg = derived.config_for(r);
            cfg.limits = limits;
            RunPlan::new(inputs).config(cfg).trace(trace).run().runs
        })
        .collect();
    h2push_testbed::RunReport { runs }
}

fn assert_identical(a: &h2push_testbed::RunReport, b: &h2push_testbed::RunReport, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: rep count diverged");
    for (x, y) in a.outcomes().zip(b.outcomes()) {
        assert_eq!(x.load, y.load, "{label}: load metrics diverged");
        assert_eq!(x.trace.order, y.trace.order, "{label}: request order diverged");
        assert_eq!(x.server_pushed_bytes, y.server_pushed_bytes, "{label}: push bytes diverged");
        assert_eq!(x.net, y.net, "{label}: network counters diverged");
    }
    for (x, y) in a.timelines().zip(b.timelines()) {
        assert_eq!(x.events().len(), y.events().len(), "{label}: traced event count diverged");
        for (ex, ey) in x.events().iter().zip(y.events().iter()) {
            assert_eq!(ex, ey, "{label}: traced event diverged");
        }
    }
}

#[test]
fn enforced_limits_are_byte_identical_to_permissive_on_benign_workloads() {
    for (si, inputs) in sites().iter().enumerate() {
        for strategy in strategies(&inputs.page) {
            for trace in [TraceSpec::Off, TraceSpec::Timeline] {
                for faults in [None, Some(FaultProfile::gilbert_elliott(0.02))] {
                    let label = format!(
                        "site {si} / {:?} / trace {:?} / faults {}",
                        std::mem::discriminant(&strategy),
                        matches!(trace, TraceSpec::Timeline),
                        faults.is_some()
                    );
                    let enforced = run(inputs, &strategy, trace, faults.clone(), ConnLimits::new());
                    let permissive =
                        run(inputs, &strategy, trace, faults.clone(), ConnLimits::permissive());
                    assert_identical(&enforced, &permissive, &label);
                }
            }
        }
    }
}

#[test]
fn default_config_limits_are_the_enforcement_defaults() {
    // A plan with no explicit limits runs under ConnLimits::new() — the
    // enforced defaults, not the permissive escape hatch.
    let cfg = h2push_testbed::ReplayConfig::testbed(Strategy::NoPush);
    assert_eq!(cfg.limits, ConnLimits::new());
}
