//! A [`RunPlan`] describes one cell of a measurement — page, strategy,
//! conditions, repetitions, faults and observability — and names every
//! knob once:
//!
//! ```
//! use h2push_testbed::{Mode, RunPlan};
//! use h2push_strategies::Strategy;
//! # use h2push_webmodel::{PageBuilder, ResourceSpec};
//! # let mut b = PageBuilder::new("doc", "d.test", 30_000, 3_000);
//! # b.resource(ResourceSpec::css(0, 10_000, 300, 0.4));
//! # b.text_paint(8_000, 1.0);
//! # let page = b.build();
//! let report = RunPlan::new(&page)
//!     .strategy(Strategy::NoPush)
//!     .mode(Mode::Testbed)
//!     .reps(3)
//!     .seed(42)
//!     .run();
//! assert_eq!(report.len(), 3);
//! ```
//!
//! Two ways to configure a rep:
//!
//! * **Derived configs** (the default): rep `r` replays under the
//!   testbed or Internet conditions of [`Mode`] drawn from seed `seed + r`
//!   ([`RunPlan::config_for`]), optionally with a [`FaultProfile`]
//!   layered on.
//! * **Explicit config** ([`RunPlan::config`]): every rep replays under
//!   the given [`ReplayConfig`] verbatim (no per-rep jitter).
//!
//! Either way a rep is a pure function of `(inputs, config_for(rep))`,
//! which is what lets one executor run any mix of plans: [`RunPlan::run`]
//! is a one-cell call of [`crate::run_cells`], which fans every
//! (cell × rep) pair of a whole list out at once, and
//! [`RunPlan::serial`] is the same reps in a loop on the calling thread.
//!
//! Attaching a trace ([`RunPlan::traced`]) records a per-rep
//! [`Timeline`]; the trace handle is pure observation, so traced and
//! untraced runs of the same plan produce byte-identical
//! [`ReplayOutcome`]s (equality-tested in `tests/trace.rs`).

use crate::chaos::{apply_profile, strategy_label, FaultProfile};
use crate::driver::{drive_in, with_thread_ctx, ReplayCtx};
use crate::harness::{run_config, Mode};
use crate::replay::{ReplayConfig, ReplayError, ReplayInputs, ReplayOutcome};
use crate::sweep::fan_out_reps;
use h2push_strategies::Strategy;
use h2push_trace::{recording, Timeline, TraceHandle};
use std::sync::{Arc, PoisonError};

/// What a [`RunPlan`] records while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceSpec {
    /// No sink: emission sites cost one branch, nothing is recorded.
    #[default]
    Off,
    /// Record every event into a per-rep [`Timeline`].
    Timeline,
}

/// One completed repetition: the outcome plus its timeline when traced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// End-state aggregates, identical to what the shimmed entry points
    /// return.
    pub outcome: ReplayOutcome,
    /// The recorded event timeline; `None` when the plan is untraced.
    pub timeline: Option<Timeline>,
}

/// All completed repetitions of a [`RunPlan`], in rep order. Failed reps
/// (stall / deadline) are dropped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// The completed runs in rep order.
    pub runs: Vec<RunOutput>,
}

impl RunReport {
    /// Number of completed runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when every rep failed (or none were asked for).
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Borrow the outcomes in rep order.
    pub fn outcomes(&self) -> impl Iterator<Item = &ReplayOutcome> {
        self.runs.iter().map(|r| &r.outcome)
    }

    /// Consume the report into the bare outcome vector.
    pub fn into_outcomes(self) -> Vec<ReplayOutcome> {
        self.runs.into_iter().map(|r| r.outcome).collect()
    }

    /// Borrow the recorded timelines (empty iterator when untraced).
    pub fn timelines(&self) -> impl Iterator<Item = &Timeline> {
        self.runs.iter().filter_map(|r| r.timeline.as_ref())
    }
}

/// A fully described measurement: page, strategy, conditions, repetitions,
/// faults and observability — built once, executed with [`RunPlan::run`].
#[derive(Debug, Clone)]
pub struct RunPlan {
    inputs: ReplayInputs,
    strategy: Arc<Strategy>,
    mode: Mode,
    reps: usize,
    seed: u64,
    faults: Option<FaultProfile>,
    trace: TraceSpec,
    explicit: Option<ReplayConfig>,
    serial: bool,
    limits: Option<h2push_h2proto::ConnLimits>,
    watchdog: Option<u64>,
}

impl RunPlan {
    /// Start a plan for `page` (a `Page`, `&Page`, `Arc<Page>` or existing
    /// [`ReplayInputs`]). The page is recorded into shared replay inputs
    /// exactly once, however many reps run.
    ///
    /// Defaults: `NoPush`, testbed mode, 1 rep, seed 0, no faults, no
    /// trace, parallel execution.
    pub fn new(page: impl Into<ReplayInputs>) -> Self {
        RunPlan {
            inputs: page.into(),
            strategy: Arc::new(Strategy::NoPush),
            mode: Mode::Testbed,
            reps: 1,
            seed: 0,
            faults: None,
            trace: TraceSpec::Off,
            explicit: None,
            serial: false,
            limits: None,
            watchdog: None,
        }
    }

    /// Push strategy under test (an owned [`Strategy`] or a shared
    /// `Arc<Strategy>` — per-rep configs share it by reference count).
    pub fn strategy(mut self, strategy: impl Into<Arc<Strategy>>) -> Self {
        self.strategy = strategy.into();
        self
    }

    /// Testbed (deterministic) or Internet (stochastic) conditions.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Number of repetitions (the paper uses 31, [`crate::PAPER_RUNS`]).
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Base seed; rep `r` uses `seed.wrapping_add(r)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Layer a chaos [`FaultProfile`] onto every derived per-rep config.
    pub fn faults(mut self, profile: FaultProfile) -> Self {
        self.faults = Some(profile);
        self
    }

    /// Choose what to record while running.
    pub fn trace(mut self, spec: TraceSpec) -> Self {
        self.trace = spec;
        self
    }

    /// Shorthand for `.trace(TraceSpec::Timeline)`.
    pub fn traced(self) -> Self {
        self.trace(TraceSpec::Timeline)
    }

    /// Replay every rep under this exact config instead of deriving one
    /// per rep (no per-rep jitter): `.config(cfg).run_one()` is a single
    /// replay under `cfg`. Overrides `strategy`/`mode`/`seed`/`faults`.
    pub fn config(mut self, cfg: ReplayConfig) -> Self {
        self.explicit = Some(cfg);
        self
    }

    /// Override the adversarial-peer resource limits applied to both
    /// endpoints of every connection (defaults to
    /// [`h2push_h2proto::ConnLimits::new`]). Local policy only: benign
    /// replays are byte-identical under any choice.
    pub fn limits(mut self, limits: h2push_h2proto::ConnLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Override the netsim event-watchdog budget applied to every rep
    /// (defaults to the [`ReplayConfig`] default). Mainly for tests that
    /// need a deterministic non-panic failure; benign replays never come
    /// near the default budget.
    pub fn watchdog_events(mut self, events: u64) -> Self {
        self.watchdog = Some(events);
        self
    }

    /// Run the reps on the calling thread in order instead of the worker
    /// pool. Results are bit-identical either way; this exists for
    /// baseline benchmarking.
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Precompute the page-level artifact ([`crate::PreparedPage`]) once
    /// and share it across every rep: pre-scanned parser, reference and
    /// push-resolution indices and the memoized HPACK block and decode
    /// caches. Outputs stay byte-identical to the unprepared plan.
    pub fn prepared(mut self) -> Self {
        self.inputs = self.inputs.prepared();
        self
    }

    /// Borrow the shared inputs (page + response DB) this plan replays.
    pub fn inputs(&self) -> &ReplayInputs {
        &self.inputs
    }

    /// The replay configuration rep `r` will run under.
    pub fn config_for(&self, rep: usize) -> ReplayConfig {
        let mut cfg = match &self.explicit {
            Some(cfg) => cfg.clone(),
            None => {
                let mut cfg = run_config(
                    &self.strategy,
                    self.mode,
                    self.seed.wrapping_add(rep as u64),
                    &self.inputs.page,
                );
                if let Some(profile) = &self.faults {
                    apply_profile(&mut cfg, profile);
                }
                cfg
            }
        };
        if let Some(l) = self.limits {
            cfg.limits = l;
        }
        if let Some(events) = self.watchdog {
            cfg.watchdog_events = events;
        }
        cfg
    }

    /// Execute rep `rep` in the calling thread's recycled [`ReplayCtx`]:
    /// a pool worker's whole share of a fan-out, or a caller's serial
    /// loop, runs allocation-free after its first rep.
    pub(crate) fn run_rep(&self, rep: usize) -> Result<RunOutput, ReplayError> {
        with_thread_ctx(|ctx| self.run_rep_in(rep, ctx))
    }

    /// Execute rep `rep` inside an explicit, caller-owned [`ReplayCtx`],
    /// recycling its machinery instead of reconstructing it. Outcomes are
    /// byte-identical to [`RunPlan::run`] / [`RunPlan::run_one`]; this
    /// entry point exists for callers that pin one context per thread for
    /// a whole measurement (the benchmark, the allocation tests, the equality
    /// suite).
    pub fn run_rep_in(&self, rep: usize, ctx: &mut ReplayCtx) -> Result<RunOutput, ReplayError> {
        let cfg = self.config_for(rep);
        match self.trace {
            TraceSpec::Off => drive_in(&self.inputs, &cfg, &TraceHandle::off(), ctx)
                .map(|outcome| RunOutput { outcome, timeline: None }),
            TraceSpec::Timeline => {
                let (handle, shared) = recording();
                let outcome = drive_in(&self.inputs, &cfg, &handle, ctx)?;
                drop(handle); // `drive_in` took back every clone it handed out
                let timeline = Arc::try_unwrap(shared)
                    .unwrap_or_else(|_| panic!("a run releases every trace handle it hands out"))
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner);
                Ok(RunOutput { outcome, timeline: Some(timeline) })
            }
        }
    }

    /// Execute rep 0 only. The common single-measurement path.
    pub fn run_one(&self) -> Result<RunOutput, ReplayError> {
        self.run_rep(0)
    }

    /// Execute all reps and collect the completed runs in rep order: on
    /// the worker pool, as a one-cell call of the executor
    /// ([`crate::run_cells`] runs many cells as one fan-out), unless
    /// [`RunPlan::serial`]. Timelines are per-rep, so traced plans
    /// parallelise exactly like untraced ones.
    ///
    /// # Panics
    /// When a rep panics (on the pool: twice, the executor retries it
    /// once) — a report has no place to record that, and a bug must not
    /// pass for a shorter report.
    pub fn run(&self) -> RunReport {
        if self.serial {
            return RunReport {
                runs: (0..self.reps).filter_map(|r| self.run_rep(r).ok()).collect(),
            };
        }
        let cell = fan_out_reps([self.reps], |_, rep| self.run_rep(rep), |out| out).pop();
        RunReport { runs: cell.expect("one cell in, one cell out").completed_or_unwind() }
    }

    pub(crate) fn rep_count(&self) -> usize {
        self.reps
    }

    /// The `(strategy, site)` columns of this cell's status line; a fault
    /// profile is named with the site.
    pub(crate) fn label(&self) -> (&'static str, String) {
        let strategy = self.explicit.as_ref().map_or(&self.strategy, |cfg| &cfg.strategy);
        let site = &self.inputs.page.name;
        let site = match &self.faults {
            Some(profile) => format!("{site} under {}", profile.name),
            None => site.clone(),
        };
        (strategy_label(strategy), site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceId, ResourceSpec};

    fn page() -> h2push_webmodel::Page {
        let mut b = PageBuilder::new("plan", "plan.test", 45_000, 4_000);
        let third = b.origin("cdn.other.net", 1, false);
        b.resource(ResourceSpec::css(0, 15_000, 300, 0.4));
        b.resource(ResourceSpec::js(0, 20_000, 1_000, 12_000));
        b.resource(ResourceSpec::image(0, 25_000, 9_000, true, 1.5));
        b.resource(ResourceSpec::js_async(third, 8_000, 25_000, 4_000));
        b.text_paint(8_000, 1.0);
        b.build()
    }

    #[test]
    fn defaults_run_a_single_untraced_testbed_rep() {
        let report = RunPlan::new(page()).run();
        assert_eq!(report.len(), 1);
        assert!(report.runs[0].timeline.is_none());
        assert!(report.runs[0].outcome.load.finished());
        assert_eq!(report.timelines().count(), 0);
    }

    #[test]
    fn serial_and_parallel_execution_agree() {
        let plan = RunPlan::new(page())
            .strategy(Strategy::PushList { order: vec![ResourceId(1)] })
            .reps(6)
            .seed(9);
        let par = plan.clone().run();
        let ser = plan.serial().run();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.outcomes().zip(ser.outcomes()) {
            assert_eq!(p.load, s.load);
            assert_eq!(p.trace.order, s.trace.order);
            assert_eq!(p.net, s.net);
        }
    }

    #[test]
    fn every_pool_width_reproduces_the_serial_outcomes() {
        let _g = crate::pool::BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = RunPlan::new(page())
            .strategy(Strategy::PushList { order: vec![ResourceId(1)] })
            .reps(7)
            .seed(9);
        let serial = plan.clone().serial().run();
        assert_eq!(serial.len(), 7);
        for threads in [1, 2, 4] {
            crate::pool::set_worker_threads(Some(threads));
            let pooled = plan.run();
            crate::pool::set_worker_threads(None);
            assert_eq!(pooled, serial, "{threads} worker threads");
        }
    }

    #[test]
    fn the_executor_equals_each_plan_run_alone_at_every_pool_width() {
        let _g = crate::pool::BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (p, q) = (page(), {
            let mut b = PageBuilder::new("plan-2", "plan2.test", 20_000, 2_000);
            b.resource(ResourceSpec::css(0, 9_000, 200, 0.5));
            b.text_paint(5_000, 1.0);
            b.build()
        });
        let mut slow_link =
            ReplayConfig::testbed(Strategy::PushList { order: vec![ResourceId(1)] });
        slow_link.network.client_down.rate_bps = Some(2_000_000);
        let cells = [
            RunPlan::new(&p).reps(3).seed(1),
            RunPlan::new(&q).mode(Mode::Internet).reps(4).seed(8),
            RunPlan::new(&p).reps(0),
            RunPlan::new(&p)
                .strategy(Strategy::PushList { order: vec![ResourceId(2)] })
                .faults(FaultProfile::gilbert_elliott(0.02))
                .reps(3)
                .seed(106),
            RunPlan::new(&q).config(slow_link),
        ];
        let alone: Vec<RunReport> = cells.iter().map(|c| c.clone().serial().run()).collect();
        assert_eq!(alone.iter().map(RunReport::len).collect::<Vec<_>>(), [3, 4, 0, 3, 1]);
        for threads in [1, 2, 4] {
            crate::pool::set_worker_threads(Some(threads));
            let mut lost = Vec::new();
            let together = crate::sweep::run_cells(&cells, |out| out, &mut lost);
            crate::pool::set_worker_threads(None);
            assert!(lost.is_empty(), "{threads} worker threads: {lost:?}");
            let together: Vec<RunReport> =
                together.into_iter().map(|runs| RunReport { runs }).collect();
            assert_eq!(together, alone, "{threads} worker threads");
        }
    }

    #[test]
    #[should_panic(expected = "rep 1 panicked: boom")]
    fn a_panicking_rep_unwinds_a_pooled_run() {
        let plan = RunPlan::new(page()).reps(2);
        let attempt = |_, rep| if rep == 1 { panic!("boom") } else { plan.run_rep(rep) };
        fan_out_reps([2], attempt, |out| out).pop().expect("one cell").completed_or_unwind();
    }

    #[test]
    fn explicit_config_ignores_per_rep_jitter() {
        let cfg = ReplayConfig::testbed(Strategy::NoPush);
        let report = RunPlan::new(page()).config(cfg).reps(3).seed(5).run();
        assert_eq!(report.len(), 3);
        let plts: Vec<f64> = report.outcomes().map(|o| o.load.plt()).collect();
        assert_eq!(plts[0], plts[1]);
        assert_eq!(plts[1], plts[2]);
    }

    #[test]
    fn traced_reps_carry_timelines_and_identical_outcomes() {
        let plan = RunPlan::new(page()).reps(2).seed(3);
        let plain = plan.clone().run();
        let traced = plan.traced().run();
        assert_eq!(plain.len(), traced.len());
        for (p, t) in plain.runs.iter().zip(&traced.runs) {
            assert_eq!(p.outcome.load, t.outcome.load);
            assert_eq!(p.outcome.net, t.outcome.net);
            let tl = t.timeline.as_ref().expect("traced rep has a timeline");
            assert!(!tl.is_empty());
        }
        assert_eq!(traced.timelines().count(), 2);
    }
}
