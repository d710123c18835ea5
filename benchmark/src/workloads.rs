//! The five workloads, as data: which pages, strategies and conditions
//! each one replays. Both binaries build their inputs here, through the
//! end-to-end API only (`RunPlan`, `SweepPlan`, `paper_strategy`, corpus
//! constructors), so the runner and the layer probes measure the same
//! thing.

use h2push_strategies::{paper_strategy, PaperStrategy, Strategy};
use h2push_testbed::{
    set_worker_threads, strategy_label, FaultProfile, Mode, ReplayInputs, RunPlan, SweepPlan,
    PAPER_RUNS,
};
use h2push_webmodel::{generate_set, realworld_site, CorpusKind, Page, ResourceId};
use std::sync::Arc;

/// Workload names with the one-line reason each exists (also written
/// into `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "fanout",
        "w17-cnn (367 resources, 81 server groups), NoPush and PushAll, prepared: request-, \
         connection- and header-bound; browser, connection set-up, HPACK and the prepared caches work",
    ),
    (
        "bulkpush",
        "w10-walmart PushAll (2.45 MB pushed) and w1-wikipedia PushAllOptimized, unprepared: byte-bound; \
         netsim packets, DATA framing, flow control, both schedulers; header caches bypassed",
    ),
    (
        "lossy",
        "the bulkpush cells in Internet mode under 2 % Gilbert-Elliott loss: the same code on its slow \
         path (retransmits, reorder hold-back, resource timers); bulkpush minus lossy is the fault path",
    ),
    (
        "grid",
        "SweepPlans over 12 generated mid-size sites x 3 strategies x 31 reps, streaming, journaled, \
         up to 4 workers: paper-scale regeneration; the only multi-threaded workload (pool, sweep, journal)",
    ),
    (
        "live",
        "LiveServer and load_page over loopback TCP, w1-wikipedia PushAllOptimized, cpu_scale 0: the \
         poll(2) runtime on real sockets, syscalls and supervision; netsim idle. Loopback, not a real link",
    ),
];

/// The three workloads that replay serially through [`RunPlan`].
pub const SIM_WORKLOADS: [&str; 3] = ["fanout", "bulkpush", "lossy"];

/// Repetitions per cell: the paper's 31.
pub const REPS: usize = PAPER_RUNS;

/// Sites of the `grid` corpus: `Random` then `Top`.
pub const GRID_RANDOM_SITES: usize = 8;
/// See [`GRID_RANDOM_SITES`].
pub const GRID_TOP_SITES: usize = 4;

/// Seed of the `grid` corpus. Fixed: the acceptance rule for the
/// benchmark compares runs made with different `--seed`s, and the cost
/// of 12 generated sites moves by tens of percent from one corpus seed
/// to the next. `--seed` still drives every per-rep RNG of the grid.
pub const GRID_CORPUS_SEED: u64 = 42;

/// One (page, strategy, conditions) cell of a serial workload.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// `<site>/<strategy label>` for reports.
    pub label: String,
    /// The page variant under replay, recorded once.
    pub inputs: ReplayInputs,
    /// The strategy the servers run.
    pub strategy: Arc<Strategy>,
    /// Deterministic testbed or stochastic Internet conditions.
    pub mode: Mode,
    /// Injected faults, if any.
    pub faults: Option<FaultProfile>,
    /// Whether the workload attaches a `PreparedPage`.
    pub prepared: bool,
}

impl SimCell {
    fn new(site: usize, which: PaperStrategy, prepared: bool, lossy: bool) -> SimCell {
        let original = realworld_site(site);
        let (page, strategy) = paper_strategy(&original, which);
        SimCell {
            label: format!("{}/{}", original.name, which.label()),
            inputs: ReplayInputs::from(page),
            strategy: Arc::new(strategy),
            mode: if lossy { Mode::Internet } else { Mode::Testbed },
            faults: lossy.then(|| FaultProfile::gilbert_elliott(0.02)),
            prepared,
        }
    }

    /// A cell replaying `page` under `strategy` in the clean testbed.
    pub fn of(page: &Page, strategy: Strategy, prepared: bool) -> SimCell {
        SimCell {
            label: format!("{}/{}", page.name, strategy_label(&strategy)),
            inputs: ReplayInputs::from(page),
            strategy: Arc::new(strategy),
            mode: Mode::Testbed,
            faults: None,
            prepared,
        }
    }

    /// The workload's plan for this cell: `reps` serial repetitions from
    /// `seed` (rep `r` runs under `seed + r`).
    pub fn plan(&self, reps: usize, seed: u64) -> RunPlan {
        self.plan_with(reps, seed, self.prepared)
    }

    /// One single-rep plan per repetition — plan `r` replays exactly what
    /// rep `r` of [`SimCell::plan`] replays — sharing one `PreparedPage`,
    /// so that every repetition can be timed on its own through the
    /// blessed entry point, `RunPlan::run`.
    pub fn rep_plans(&self, reps: usize, seed: u64) -> Vec<RunPlan> {
        let inputs =
            if self.prepared { self.inputs.clone().prepared() } else { self.inputs.clone() };
        (0..reps as u64).map(|r| self.plan_on(&inputs, 1, seed.wrapping_add(r), false)).collect()
    }

    /// [`SimCell::plan`] with the `PreparedPage` forced on or off.
    pub fn plan_with(&self, reps: usize, seed: u64, prepared: bool) -> RunPlan {
        self.plan_on(&self.inputs, reps, seed, prepared)
    }

    fn plan_on(&self, inputs: &ReplayInputs, reps: usize, seed: u64, prepared: bool) -> RunPlan {
        let mut plan = RunPlan::new(inputs)
            .strategy(Arc::clone(&self.strategy))
            .mode(self.mode)
            .reps(reps)
            .seed(seed)
            .serial();
        if let Some(profile) = &self.faults {
            plan = plan.faults(profile.clone());
        }
        if prepared {
            plan = plan.prepared();
        }
        plan
    }

    /// Whether every replay of this cell must push something.
    pub fn pushes(&self) -> bool {
        self.strategy.pushes()
    }
}

/// The cells of serial workload `name` (one of [`SIM_WORKLOADS`]).
pub fn sim_cells(name: &str) -> Vec<SimCell> {
    match name {
        "fanout" => vec![
            SimCell::new(17, PaperStrategy::NoPush, true, false),
            SimCell::new(17, PaperStrategy::PushAll, true, false),
        ],
        "bulkpush" | "lossy" => {
            let lossy = name == "lossy";
            vec![
                SimCell::new(10, PaperStrategy::PushAll, false, lossy),
                SimCell::new(1, PaperStrategy::PushAllOptimized, false, lossy),
            ]
        }
        other => panic!("{other} is not a serial workload"),
    }
}

/// The `grid` corpus (see [`GRID_CORPUS_SEED`]).
pub fn grid_sites(corpus_seed: u64) -> Vec<Page> {
    let mut sites = generate_set(CorpusKind::Random, GRID_RANDOM_SITES, corpus_seed);
    sites.extend(generate_set(CorpusKind::Top, GRID_TOP_SITES, corpus_seed));
    sites
}

/// The three strategy columns of `grid`.
pub fn grid_strategies() -> Vec<Strategy> {
    let ids = |r: std::ops::RangeInclusive<usize>| r.map(ResourceId).collect::<Vec<_>>();
    vec![
        Strategy::NoPush,
        Strategy::PushList { order: ids(1..=5) },
        Strategy::Interleaved { offset: 4096, critical: ids(1..=1), after: ids(2..=3) },
    ]
}

/// Worker threads `grid` pins: every core, at most four.
pub fn grid_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// The `grid` sweep over `sites`: streaming aggregation, `reps` reps per
/// cell from `seed`, on `workers` threads. Recording and preparing every
/// site happens here.
pub fn grid_plan(sites: &[Page], reps: usize, seed: u64, workers: usize) -> SweepPlan {
    set_worker_threads(Some(workers));
    SweepPlan::new().strategies(grid_strategies()).sites(sites).reps(reps).seed(seed).streaming()
}

/// The `grid` workload's sweeps: the same grid as [`grid_plan`], one
/// `SweepPlan` per strategy column over the same prepared sites (one
/// `PreparedPage` per site, shared by the three). Three half-second sweeps
/// can each be timed alone, and on a host with noisy neighbours three
/// short units find a quiet moment far more often than one 1.5 s unit.
pub fn grid_column_plans(sites: &[Page], reps: usize, seed: u64, workers: usize) -> Vec<SweepPlan> {
    set_worker_threads(Some(workers));
    let inputs: Vec<ReplayInputs> =
        sites.iter().map(|p| ReplayInputs::from(p).prepared()).collect();
    grid_strategies()
        .into_iter()
        .map(|s| SweepPlan::new().strategy(s).sites(&inputs).reps(reps).seed(seed).streaming())
        .collect()
}

/// The page variant and strategy the `live` workload serves.
pub fn live_site() -> (Arc<Page>, Arc<Strategy>) {
    let (page, strategy) = paper_strategy(&realworld_site(1), PaperStrategy::PushAllOptimized);
    (Arc::new(page), Arc::new(strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fnv;

    #[test]
    fn same_seed_same_grid_sites_and_other_seed_other_sites() {
        let names = |seed| grid_sites(seed).iter().map(|p| format!("{p:?}")).collect::<Vec<_>>();
        assert_eq!(names(42), names(42));
        assert_ne!(names(42), names(43));
        assert_eq!(grid_sites(42).len(), GRID_RANDOM_SITES + GRID_TOP_SITES);
    }

    #[test]
    fn every_grid_site_has_the_resources_the_strategies_name() {
        for page in grid_sites(GRID_CORPUS_SEED) {
            assert!(
                page.resources.len() > 5,
                "{} has {} resources",
                page.name,
                page.resources.len()
            );
        }
    }

    #[test]
    fn cells_replay_to_a_stable_fingerprint() {
        // One rep of every bulkpush/lossy cell, twice: same digest; and
        // the seed reaches the per-rep RNGs of the lossy cells.
        let digest = |name: &str, seed: u64| {
            let mut f = Fnv::default();
            for cell in sim_cells(name) {
                let report = cell.plan(1, seed).run();
                assert_eq!(report.len(), 1, "{} failed", cell.label);
                report.outcomes().for_each(|o| f.outcome(o));
            }
            f.finish()
        };
        assert_eq!(digest("bulkpush", 7), digest("bulkpush", 7));
        assert_eq!(digest("lossy", 7), digest("lossy", 7));
        assert_ne!(digest("lossy", 7), digest("lossy", 8));
    }

    #[test]
    fn rep_plans_replay_what_the_multi_rep_plan_replays() {
        for cell in sim_cells("fanout").into_iter().chain(sim_cells("lossy")) {
            let whole = cell.plan(3, 5).run();
            let single: Vec<_> =
                cell.rep_plans(3, 5).iter().flat_map(|p| p.run().into_outcomes()).collect();
            assert_eq!(whole.into_outcomes(), single, "{}", cell.label);
        }
    }

    #[test]
    fn workload_reasons_fit_the_manifest_limits() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200, "{name}: {} chars", why.len());
            assert!(!why.contains('\n'));
        }
    }
}
