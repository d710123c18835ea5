//! Chaos harness: the strategy matrix under injected faults.
//!
//! The paper's testbed deliberately runs over a clean emulated DSL link;
//! this module re-runs the same strategy matrix while the netsim injects
//! loss, jitter, reordering and outages ([`FaultSpec`]) and the hardened
//! browser recovers (timeouts, retries, partial loads). Everything stays
//! deterministic: a [`FaultProfile`] layered onto a rep's derived config
//! ([`RunPlan::config_for`]) yields a replay that is a pure function of
//! `(inputs, strategy, mode, run_seed, profile)` — rerunning the same
//! seed reproduces every byte, and the [`FaultProfile::none`] profile
//! reproduces the fault-free harness exactly.

#[cfg(test)]
use crate::harness::{run_config, Mode};
use crate::plan::RunPlan;
use crate::replay::{ReplayConfig, ReplayInputs, ReplayOutcome};
use crate::sweep::run_cells;
use h2push_metrics::{percentile, FaultObservation, LossRecovery};
use h2push_netsim::{FaultSpec, SimDuration, SimTime};
use h2push_strategies::Strategy;
#[cfg(test)]
use h2push_webmodel::Page;

/// A named fault scenario plus the browser hardening that goes with it.
///
/// The browser knobs ride along because they are part of the scenario: a
/// lossy link without a resource timeout can stall forever on a dropped
/// tail, while the zero-fault profile must leave the browser untouched so
/// its runs stay byte-identical to the plain harness.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Short label for reports ("none", "ge-2%", …).
    pub name: String,
    /// What the network injects.
    pub fault: FaultSpec,
    /// Per-resource fetch timeout handed to the browser (which retries a
    /// timed-out fetch up to [`h2push_browser::MAX_RETRIES`] times).
    pub resource_timeout: Option<SimDuration>,
    /// Page-load deadline after which the browser reports a partial load.
    pub load_deadline: Option<SimDuration>,
}

impl FaultProfile {
    /// The control profile: injects nothing and leaves every browser
    /// default in place, so its runs are byte-identical to the plain
    /// derived configs ([`RunPlan::config_for`]).
    pub fn none() -> Self {
        FaultProfile {
            name: "none".into(),
            fault: FaultSpec::default(),
            resource_timeout: None,
            load_deadline: None,
        }
    }

    /// A faulty profile with the standard hardening: 15 s per-resource
    /// timeout, 120 s page deadline.
    fn hardened(name: impl Into<String>, fault: FaultSpec) -> Self {
        FaultProfile {
            name: name.into(),
            fault,
            resource_timeout: Some(SimDuration::from_millis(15_000)),
            load_deadline: Some(SimDuration::from_millis(120_000)),
        }
    }

    /// Independent (Bernoulli) loss at `rate`.
    pub fn bernoulli(rate: f64) -> Self {
        Self::hardened(format!("bernoulli-{:.1}%", rate * 100.0), FaultSpec::bernoulli(rate))
    }

    /// Bursty Gilbert–Elliott loss averaging `rate`.
    pub fn gilbert_elliott(rate: f64) -> Self {
        Self::hardened(format!("ge-{:.1}%", rate * 100.0), FaultSpec::gilbert_elliott(rate))
    }

    /// Bounded extra jitter (with a little reordering).
    pub fn jittery(max: SimDuration) -> Self {
        Self::hardened(format!("jitter-{max}"), FaultSpec::jittery(max))
    }

    /// A mid-load outage window.
    pub fn flapping(start: SimTime, duration: SimDuration) -> Self {
        Self::hardened("flap".to_string(), FaultSpec::flap(start, duration))
    }
}

/// The default chaos matrix: control, both loss processes, jitter and a
/// mid-load outage.
pub fn default_matrix() -> Vec<FaultProfile> {
    vec![
        FaultProfile::none(),
        FaultProfile::bernoulli(0.01),
        FaultProfile::gilbert_elliott(0.02),
        FaultProfile::jittery(SimDuration::from_millis(10)),
        FaultProfile::flapping(SimTime::from_millis(2_000), SimDuration::from_millis(750)),
    ]
}

/// Layer `profile` onto an already-derived replay config: the profile's
/// fault spec plus its browser hardening, leaving every other knob (and
/// every RNG draw that produced it) untouched.
pub fn apply_profile(cfg: &mut ReplayConfig, profile: &FaultProfile) {
    cfg.network.fault = profile.fault.clone();
    cfg.browser.resource_timeout = profile.resource_timeout;
    cfg.browser.load_deadline = profile.load_deadline;
}

/// Bridge one replay outcome into the metrics crate's per-run
/// fault/recovery record.
pub fn observe(out: &ReplayOutcome) -> FaultObservation {
    FaultObservation {
        data_packets: out.net.data_packets,
        drops: out.net.drops_total(),
        retransmits: out.net.retransmits,
        retries: u64::from(out.load.retries),
        timeouts: u64::from(out.load.timeouts),
        conn_errors: u64::from(out.load.conn_errors),
        failed_resources: u64::from(out.load.failed_resources),
        partial: out.load.partial,
    }
}

/// One (profile × strategy) cell of the chaos matrix.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The fault profile's name.
    pub profile: String,
    /// Short label of the strategy under test.
    pub strategy: &'static str,
    /// Runs attempted.
    pub runs: usize,
    /// Runs that produced an outcome (the rest stalled or hit the replay
    /// deadline — counted, never panicking).
    pub completed: usize,
    /// Median PLT over the completed runs (ms; 0 when none completed).
    pub median_plt: f64,
    /// Share of completed runs that ended as partial loads.
    pub partial_loads: usize,
    /// Aggregated loss-recovery counters over the completed runs.
    pub recovery: LossRecovery,
}

/// Short display label for a strategy.
pub fn strategy_label(s: &Strategy) -> &'static str {
    match s {
        Strategy::NoPush => "no-push",
        Strategy::PushList { .. } => "push-list",
        Strategy::Interleaved { .. } => "interleaved",
    }
}

/// Run the full `strategies × profiles` matrix, `runs` repetitions each,
/// as one fan-out on the executor ([`run_cells`]): every rep is folded
/// to its fault counters and PLT on the worker that ran it, and a cell
/// that loses a rep outright (stall, replay deadline, watchdog) is
/// reported in `lost`.
///
/// Run `r` of every cell uses seed `seed + r` regardless of profile or
/// strategy, so the control column is directly comparable to the plain
/// harness and cells differ only in what the profile injects. Cell order
/// (and every number inside a cell) is deterministic.
pub fn run_fault_matrix(
    inputs: &ReplayInputs,
    strategies: &[Strategy],
    profiles: &[FaultProfile],
    runs: usize,
    seed: u64,
    lost: &mut Vec<String>,
) -> Vec<ChaosCell> {
    let matrix: Vec<(&FaultProfile, &Strategy)> =
        profiles.iter().flat_map(|p| strategies.iter().map(move |s| (p, s))).collect();
    let cells: Vec<RunPlan> = matrix
        .iter()
        .map(|&(profile, strategy)| {
            RunPlan::new(inputs)
                .strategy(strategy.clone())
                .reps(runs)
                .seed(seed)
                .faults(profile.clone())
        })
        .collect();
    let measured = run_cells(&cells, |run| (observe(&run.outcome), run.outcome.load.plt()), lost);
    matrix
        .iter()
        .zip(measured)
        .map(|(&(profile, strategy), reps)| {
            let mut recovery = LossRecovery::new();
            reps.iter().for_each(|&(seen, _)| recovery.record(seen));
            let plts: Vec<f64> = reps.iter().map(|&(_, plt)| plt).collect();
            ChaosCell {
                profile: profile.name.clone(),
                strategy: strategy_label(strategy),
                runs,
                completed: reps.len(),
                median_plt: if plts.is_empty() { 0.0 } else { percentile(&plts, 50.0) },
                partial_loads: reps.iter().filter(|(seen, _)| seen.partial).count(),
                recovery,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::run_once;
    use h2push_webmodel::{PageBuilder, ResourceId, ResourceSpec};

    fn with_profile(
        strategy: &std::sync::Arc<Strategy>,
        mode: Mode,
        seed: u64,
        page: &Page,
        profile: &FaultProfile,
    ) -> ReplayConfig {
        let mut cfg = run_config(strategy, mode, seed, page);
        apply_profile(&mut cfg, profile);
        cfg
    }

    fn page() -> Page {
        let mut b = PageBuilder::new("chaos", "chaos.test", 50_000, 4_000);
        let third = b.origin("cdn.other.net", 1, false);
        b.resource(ResourceSpec::css(0, 15_000, 300, 0.4));
        b.resource(ResourceSpec::js(0, 20_000, 1_000, 12_000));
        b.resource(ResourceSpec::image(0, 25_000, 9_000, true, 1.5));
        b.resource(ResourceSpec::js_async(third, 8_000, 25_000, 4_000));
        b.text_paint(8_000, 1.0);
        b.build()
    }

    fn strategies() -> Vec<std::sync::Arc<Strategy>> {
        vec![
            std::sync::Arc::new(Strategy::NoPush),
            std::sync::Arc::new(Strategy::PushList { order: vec![ResourceId(1), ResourceId(2)] }),
            std::sync::Arc::new(Strategy::Interleaved {
                offset: 6_000,
                critical: vec![ResourceId(1)],
                after: vec![ResourceId(3)],
            }),
        ]
    }

    #[test]
    fn zero_fault_profile_is_byte_identical_to_the_plain_harness() {
        let inputs = ReplayInputs::from(page());
        let profile = FaultProfile::none();
        for strategy in &strategies() {
            for seed in [0u64, 7, 42] {
                let plain = run_config(strategy, Mode::Testbed, seed, &inputs.page);
                let faulted = with_profile(strategy, Mode::Testbed, seed, &inputs.page, &profile);
                let a = run_once(&inputs, &plain).unwrap();
                let b = run_once(&inputs, &faulted).unwrap();
                assert_eq!(a.load, b.load, "strategy {strategy:?} seed {seed}");
                assert_eq!(a.trace.order, b.trace.order);
                assert_eq!(a.server_pushed_bytes, b.server_pushed_bytes);
                assert_eq!(a.net, b.net);
                assert!(!b.load.partial);
                assert_eq!(b.net.drops_fault, 0);
            }
        }
    }

    #[test]
    fn gilbert_elliott_matrix_completes_and_reruns_bit_identically() {
        // The ISSUE acceptance check: a seeded 2 % Gilbert–Elliott profile
        // across the full strategy matrix completes without panics and two
        // reruns of the same seed agree on every output.
        let inputs = ReplayInputs::from(page());
        let profile = FaultProfile::gilbert_elliott(0.02);
        let strategies = strategies();
        // Burst loss is rare by construction (mean burst every ~190
        // packets); the seed set deliberately includes runs that do enter
        // a burst on this page.
        let seeds = [100u64, 106, 107];
        let run = || -> Vec<ReplayOutcome> {
            strategies
                .iter()
                .flat_map(|s| {
                    seeds.iter().map(|&seed| {
                        let cfg = with_profile(s, Mode::Testbed, seed, &inputs.page, &profile);
                        run_once(&inputs, &cfg).expect("faulty replay completes")
                    })
                })
                .collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        let mut any_faults = false;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.load, y.load);
            assert_eq!(x.trace.order, y.trace.order);
            assert_eq!(x.net, y.net);
            any_faults |= x.net.drops_fault > 0;
        }
        assert!(any_faults, "2% GE loss must actually drop packets somewhere");
    }

    #[test]
    fn fault_matrix_aggregates_per_cell() {
        let inputs = ReplayInputs::from(page());
        let profiles = vec![FaultProfile::none(), FaultProfile::gilbert_elliott(0.02)];
        let strategies = vec![Strategy::NoPush];
        let mut lost = Vec::new();
        let cells = run_fault_matrix(&inputs, &strategies, &profiles, 3, 1, &mut lost);
        assert!(lost.is_empty(), "{lost:?}");
        assert_eq!(cells.len(), 2);
        let control = &cells[0];
        assert_eq!(control.profile, "none");
        assert_eq!(control.strategy, "no-push");
        assert_eq!(control.completed, 3);
        assert!(control.recovery.is_clean(), "control cell must record nothing");
        assert!(control.median_plt > 0.0);
        let lossy = &cells[1];
        assert_eq!(lossy.completed, 3);
        assert!(lossy.recovery.drops() > 0, "GE cell must observe drops");
        assert!(lossy.recovery.retransmits() > 0, "drops must be recovered");
        assert!(lossy.median_plt >= control.median_plt, "loss cannot speed the load");
    }

    #[test]
    fn observe_bridges_net_and_load_counters() {
        let inputs = ReplayInputs::from(page());
        let cfg = with_profile(
            &std::sync::Arc::new(Strategy::NoPush),
            Mode::Testbed,
            3,
            &inputs.page,
            &FaultProfile::bernoulli(0.05),
        );
        let out = run_once(&inputs, &cfg).unwrap();
        let obs = observe(&out);
        assert_eq!(obs.data_packets, out.net.data_packets);
        assert_eq!(obs.drops, out.net.drops_total());
        assert!(obs.drops > 0);
        assert_eq!(obs.retransmits, out.net.retransmits);
    }

    #[test]
    fn default_matrix_names_are_unique_and_start_with_control() {
        let m = default_matrix();
        assert_eq!(m[0], FaultProfile::none());
        let mut names: Vec<&str> = m.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), m.len());
    }
}
