//! The one blessed entry point: a [`RunPlan`] builder over the replay
//! engine.
//!
//! PR 1 (perf) and PR 2 (chaos) grew six near-duplicate free functions
//! (`replay`, `replay_shared`, a `run_many` family, plus
//! `run_config_with_faults`); adding tracing would have doubled them
//! again. Those shims are gone; a `RunPlan` names every knob once:
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
//! Two execution modes:
//!
//! * **Derived configs** (the default): rep `r` replays under
//!   [`run_config`]`(strategy, mode, seed + r, page)`, optionally with a
//!   [`FaultProfile`] layered on — byte-identical to the retired
//!   `run_many_shared` / `run_config_with_faults` entry points this
//!   replaced.
//! * **Explicit config** ([`RunPlan::config`]): every rep replays under
//!   the given [`ReplayConfig`] verbatim (no per-rep jitter) — the old
//!   `replay`/`run_once` behaviour.
//!
//! Attaching a trace ([`RunPlan::traced`]) records a per-rep
//! [`Timeline`]; the trace handle is pure observation, so traced and
//! untraced runs of the same plan produce byte-identical
//! [`ReplayOutcome`]s (equality-tested in `tests/trace.rs`).

use crate::chaos::{apply_profile, FaultProfile};
use crate::driver::ReplayCtx;
use crate::harness::{run_config, Mode};
use crate::pool::parallel_indexed;
use crate::replay::{replay_with_trace, ReplayConfig, ReplayError, ReplayInputs, ReplayOutcome};
use h2push_strategies::Strategy;
use h2push_trace::{recording, Timeline, TraceHandle};
use std::sync::Arc;

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
    /// per rep — the old `replay`/`run_once` behaviour (no per-rep
    /// jitter). Overrides `strategy`/`mode`/`seed`/`faults`.
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

    pub(crate) fn run_rep(&self, rep: usize) -> Result<RunOutput, ReplayError> {
        // The engine recycles a thread-local context under the hood, so
        // every worker's chunk of reps already runs allocation-free after
        // its first rep.
        self.rep_with(rep, |cfg, trace| replay_with_trace(&self.inputs, cfg, trace))
    }

    /// Execute rep `rep` inside an explicit, caller-owned [`ReplayCtx`],
    /// recycling its machinery instead of reconstructing it. Outcomes are
    /// byte-identical to [`RunPlan::run`] / [`RunPlan::run_one`]; this
    /// entry point exists for callers that pin one context per thread for
    /// a whole measurement (the benchmark, the allocation tests, the equality
    /// suite).
    pub fn run_rep_in(&self, rep: usize, ctx: &mut ReplayCtx) -> Result<RunOutput, ReplayError> {
        self.rep_with(rep, |cfg, trace| crate::driver::drive_in(&self.inputs, cfg, trace, ctx))
    }

    fn rep_with(
        &self,
        rep: usize,
        mut run: impl FnMut(&ReplayConfig, &TraceHandle) -> Result<ReplayOutcome, ReplayError>,
    ) -> Result<RunOutput, ReplayError> {
        let cfg = self.config_for(rep);
        match self.trace {
            TraceSpec::Off => {
                run(&cfg, &TraceHandle::off()).map(|outcome| RunOutput { outcome, timeline: None })
            }
            TraceSpec::Timeline => {
                let (handle, shared) = recording();
                let outcome = run(&cfg, &handle)?;
                drop(handle); // last sink reference; the timeline is now unique
                let timeline = std::rc::Rc::try_unwrap(shared)
                    .map(|cell| cell.into_inner())
                    .unwrap_or_else(|rc| rc.borrow().clone());
                Ok(RunOutput { outcome, timeline: Some(timeline) })
            }
        }
    }

    /// Execute rep 0 only. The common single-measurement path.
    pub fn run_one(&self) -> Result<RunOutput, ReplayError> {
        self.run_rep(0)
    }

    /// Execute all reps (on the worker pool unless [`RunPlan::serial`])
    /// and collect the completed runs in rep order. Timelines are per-rep,
    /// so traced plans parallelise exactly like untraced ones.
    pub fn run(&self) -> RunReport {
        let runs = if self.serial {
            (0..self.reps).filter_map(|r| self.run_rep(r).ok()).collect()
        } else {
            Self::run_flat(std::slice::from_ref(self), |out| out).pop().expect("one plan")
        };
        RunReport { runs }
    }

    /// Execute every (plan × rep) pair of `plans` as one flat fan-out on
    /// the worker pool — the pool never drains at a plan boundary, and
    /// nothing nests. Each completed rep is folded by `fold` on the worker
    /// that ran it (so a caller that only needs scalars never holds the
    /// waterfalls); the folded values come back per plan, in rep order,
    /// failed reps dropped as in [`RunPlan::run`].
    pub(crate) fn run_flat<T: Send>(
        plans: &[RunPlan],
        fold: impl Fn(RunOutput) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let mut starts = Vec::with_capacity(plans.len());
        let mut total = 0;
        for plan in plans {
            starts.push(total);
            total += plan.reps;
        }
        let mut folded = parallel_indexed(total, |i| {
            // The last plan starting at or before `i` (zero-rep plans
            // share a start with their successor and are skipped).
            let p = starts.partition_point(|&s| s <= i) - 1;
            plans[p].run_rep(i - starts[p]).ok().map(&fold)
        })
        .into_iter();
        plans.iter().map(|plan| folded.by_ref().take(plan.reps).flatten().collect()).collect()
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
    fn a_flat_fan_out_equals_each_plan_run_alone() {
        let p = page();
        let plans = [
            RunPlan::new(&p).reps(3).seed(1),
            RunPlan::new(&p).reps(0),
            RunPlan::new(&p).strategy(Strategy::PushList { order: vec![ResourceId(2)] }).reps(2),
        ];
        let flat = RunPlan::run_flat(&plans, |out| out);
        assert_eq!(flat.len(), 3);
        for (plan, runs) in plans.iter().zip(flat) {
            assert_eq!(RunReport { runs }, plan.clone().serial().run());
        }
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
