//! The executor every replay fan-out runs on, and the journaled grid
//! built on it.
//!
//! The paper's evaluation has one shape — cells of (page variant,
//! strategy, conditions), 31 repetitions each — so the (cell × rep)
//! fan-out exists once, in `fan_out_reps`: every pair of every cell is
//! one item of a single [`parallel_indexed`] call (the pool never drains
//! at a cell boundary, nothing nests), each rep runs behind
//! `catch_unwind` and the retry policy below, and each completed rep is
//! folded on the worker that ran it, so a caller that reports scalars
//! never holds a waterfall. Callers *declare cells* and call it:
//!
//! * [`run_cells`] takes any list of [`RunPlan`]s — heterogeneous pages,
//!   seeds, modes, fault profiles, explicit configs — and is what the
//!   figure drivers (`crate::experiments`), the push-order phase, the
//!   fault matrix and the ablations run on; [`RunPlan::run`] is its
//!   one-cell case.
//! * A [`SweepPlan`] declares the homogeneous `strategies × sites` grid,
//!   each site's [`PreparedPage`](crate::PreparedPage) built once and
//!   shared, and merges the results into per-cell reports in
//!   deterministic (strategy-major, site, rep) order. It adds the two
//!   things population-scale grids (10^5–10^6 cells, ROADMAP) need:
//!   * **Crash safety** — [`SweepPlan::checkpoint`] journals every
//!     completed cell to an append-only, checksummed file
//!     ([`crate::checkpoint::SweepJournal`]); [`SweepPlan::resume`]
//!     replays it, refuses a journal from a different grid, and
//!     reschedules only the remainder. Interrupted-then-resumed is
//!     byte-identical to uninterrupted (same [`SweepReport`], same cell
//!     order) because every rep is a pure function of `(inputs, strategy,
//!     mode, seed + rep)` and the journal encoding is lossless. Only a
//!     journaled run executes in chunks (a chunk is what a kill can
//!     lose).
//!   * **Bounded memory** — [`SweepPlan::streaming`] keeps each rep's
//!     [`CellStats`] scalars and drops its [`RunOutput`] on the worker;
//!     population percentiles come from the mergeable fixed-bin
//!     [`StreamingHist`] ([`SweepReport::population`]), whose integer
//!     bins make the streaming-mode percentiles match the retained-mode
//!     computation exactly.
//!
//! Failed reps never abort a fan-out. A panic is caught at the rep
//! boundary and — because the simulator is deterministic — retried
//! exactly once to classify it: failing again proves the panic is
//! deterministic ([`RetryClass::Deterministic`]); succeeding means it was
//! environmental and the rep counts as completed (recorded in
//! [`SweepCell::recovered`]). Watchdog, stall and deadline failures are
//! never retried — rerunning a deterministic simulation cannot change
//! them ([`RetryClass::NotRetried`]).
//!
//! Every cell is byte-identical to the same cell run through a plain
//! serial [`RunPlan`]: `plan::tests` checks a heterogeneous cell list at
//! every pool width, `cell_matches_plain_run_plan` below a fresh grid
//! cell, and `tests/checkpoint.rs` every cell of a halted-and-resumed
//! grid.

use crate::chaos::{strategy_label, FaultProfile};
use crate::checkpoint::{self, GridIdentity, ResumeError, SweepJournal};
use crate::harness::Mode;
use crate::plan::{RunOutput, RunPlan, RunReport};
use crate::pool::{parallel_indexed, worker_threads};
use crate::replay::{ReplayError, ReplayInputs};
use h2push_metrics::{RunStats, StreamingHist};
use h2push_strategies::Strategy;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why one rep of one cell failed (classification of
/// [`CellFailure::kind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The rep panicked; the payload message when it was a string. The
    /// panic was caught at the cell boundary — sibling cells and reps
    /// are unaffected.
    Panic(String),
    /// The netsim event-count watchdog fired after `events` events
    /// (livelock).
    Watchdog {
        /// Events processed when the watchdog tripped.
        events: u64,
    },
    /// The simulation quiesced before onload.
    Stalled,
    /// The sim-time deadline passed.
    Deadline,
}

impl FailureKind {
    /// Short stable label for reports ("panic", "watchdog", …).
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Panic(_) => "panic",
            FailureKind::Watchdog { .. } => "watchdog",
            FailureKind::Stalled => "stalled",
            FailureKind::Deadline => "deadline",
        }
    }

    /// Whether the retry policy re-runs this failure once. Only panics
    /// qualify: the rep may have tripped over transient process state
    /// (allocator pressure, a poisoned thread-local), and one retry
    /// separates that from a deterministic bug. Watchdog/stall/deadline
    /// come out of the deterministic simulation itself — rerunning the
    /// same pure function cannot change them.
    pub fn retryable(&self) -> bool {
        matches!(self, FailureKind::Panic(_))
    }
}

impl From<ReplayError> for FailureKind {
    fn from(e: ReplayError) -> Self {
        match e {
            ReplayError::Stalled { .. } => FailureKind::Stalled,
            ReplayError::DeadlineExceeded => FailureKind::Deadline,
            ReplayError::Watchdog { events } => FailureKind::Watchdog { events },
        }
    }
}

/// What the retry policy concluded about a failed rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// The failure kind is never retried (watchdog/stall/deadline: the
    /// deterministic sim would reproduce it exactly).
    NotRetried,
    /// Retried once and failed again — the failure is deterministic, not
    /// environmental.
    Deterministic,
}

impl RetryClass {
    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RetryClass::NotRetried => "not-retried",
            RetryClass::Deterministic => "deterministic",
        }
    }
}

/// One failed rep inside a cell (after the retry policy ran).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Which repetition failed (0-based).
    pub rep: usize,
    /// Why (the final attempt's failure).
    pub kind: FailureKind,
    /// Retries spent on this rep (0 or 1 under the current policy).
    pub retries: u32,
    /// What the retry policy concluded.
    pub class: RetryClass,
}

/// A rep that failed with a retryable error but completed on retry — the
/// failure was environmental, and the rep's output is in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRep {
    /// Which repetition recovered (0-based).
    pub rep: usize,
    /// Retries it took (1 under the current policy).
    pub retries: u32,
}

/// One cell's share of a fan-out: its folded completed reps, in rep
/// order, plus what the retry policy recorded.
pub(crate) struct CellRun<T> {
    pub(crate) reps: Vec<T>,
    pub(crate) failures: Vec<CellFailure>,
    pub(crate) recovered: Vec<RecoveredRep>,
}

impl<T> CellRun<T> {
    /// The completed reps, for a caller with no place to record a
    /// failure ([`RunPlan::run`]): a rep the simulation failed is
    /// dropped, but a rep that panicked resumes unwinding — a bug must
    /// not pass for a shorter report.
    pub(crate) fn completed_or_unwind(self) -> Vec<T> {
        for failure in &self.failures {
            if let FailureKind::Panic(message) = &failure.kind {
                panic!("rep {} panicked: {message}", failure.rep);
            }
        }
        self.reps
    }
}

/// The one (cell × rep) fan-out: cell `c` has `reps[c]` repetitions, and
/// every (cell, rep) pair of all of them is one item of a single
/// [`parallel_indexed`] call, so the pool never drains at a cell boundary
/// and nothing nests.
///
/// Each `attempt(cell, rep)` runs behind `catch_unwind` (the pool joins
/// its workers with a panic check, so an escaped panic would abort every
/// cell). A panic gets exactly one retry, which tells a deterministic bug
/// from an environmental failure; a simulation failure gets none. A
/// completed rep is folded by `fold` on the worker that ran it, so a
/// caller that wants scalars never holds a waterfall.
pub(crate) fn fan_out_reps<T: Send>(
    reps: impl IntoIterator<Item = usize>,
    attempt: impl Fn(usize, usize) -> Result<RunOutput, ReplayError> + Sync,
    fold: impl Fn(RunOutput) -> T + Sync,
) -> Vec<CellRun<T>> {
    // Cell `c` owns the items `bounds[c]..bounds[c + 1]`.
    let mut bounds = vec![0];
    bounds.extend(reps.into_iter().scan(0, |total, n| {
        *total += n;
        Some(*total)
    }));
    let isolated = |cell, rep| match catch_unwind(AssertUnwindSafe(|| attempt(cell, rep))) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(FailureKind::from(e)),
        Err(payload) => Err(FailureKind::Panic(panic_message(payload.as_ref()))),
    };
    let total = bounds[bounds.len() - 1];
    let mut results = parallel_indexed(total, |i| {
        // The last cell starting at or before `i` (a zero-rep cell shares
        // its start with its successor and is skipped).
        let cell = bounds.partition_point(|&start| start <= i) - 1;
        let rep = i - bounds[cell];
        let (result, retries) = match isolated(cell, rep) {
            Err(kind) if kind.retryable() => (isolated(cell, rep), 1),
            first => (first, 0),
        };
        (result.map(&fold), retries)
    })
    .into_iter();
    bounds
        .windows(2)
        .map(|cell| {
            let mut run = CellRun { reps: Vec::new(), failures: Vec::new(), recovered: Vec::new() };
            for (rep, (result, retries)) in results.by_ref().take(cell[1] - cell[0]).enumerate() {
                match result {
                    Ok(folded) => {
                        run.reps.push(folded);
                        if retries > 0 {
                            run.recovered.push(RecoveredRep { rep, retries });
                        }
                    }
                    Err(kind) => {
                        let class = if retries > 0 {
                            RetryClass::Deterministic
                        } else {
                            RetryClass::NotRetried
                        };
                        run.failures.push(CellFailure { rep, kind, retries, class });
                    }
                }
            }
            run
        })
        .collect()
}

/// The executor every replay fan-out runs on: all (cell × rep) pairs of
/// `cells` as one flat fan-out on the worker pool (`fan_out_reps`: each
/// rep isolated and retried as in a [`SweepPlan`], each completed rep
/// folded by `fold` on the worker that ran it). Returns every cell's
/// folded reps, in rep order — what `cell.clone().serial().run()` would
/// complete — and appends one `strategy site status` line
/// ([`SweepReport::render_status`]'s) to `lost` for every cell that
/// lost a rep, so a caller can neither miss a failure nor be unwound by
/// one.
pub fn run_cells<T: Send>(
    cells: &[RunPlan],
    fold: impl Fn(RunOutput) -> T + Sync,
    lost: &mut Vec<String>,
) -> Vec<Vec<T>> {
    let reps: usize = cells.iter().map(RunPlan::rep_count).sum();
    REPLAYS.fetch_add(reps as u64, Ordering::Relaxed);
    let runs =
        fan_out_reps(cells.iter().map(RunPlan::rep_count), |c, rep| cells[c].run_rep(rep), fold);
    cells
        .iter()
        .zip(runs)
        .map(|(cell, run)| {
            if !run.failures.is_empty() {
                let (strategy, site) = cell.label();
                let status = status_text(run.reps.len(), &run.failures, run.recovered.len());
                lost.push(status_line(strategy, &site, &status));
            }
            run.reps
        })
        .collect()
}

/// The reps every [`run_cells`] call of this process declared.
static REPLAYS: AtomicU64 = AtomicU64::new(0);

/// How many replays [`run_cells`] was asked for since the process
/// started: each call adds its cells' declared rep counts (a retried rep
/// counts once).
pub fn replays_declared() -> u64 {
    REPLAYS.load(Ordering::Relaxed)
}

/// `"ok (31 reps)"`, `"ok (31 reps, 1 recovered)"` or `"2/31 failed
/// (panic\u{d7}1, watchdog\u{d7}1)"`.
fn status_text(completed: usize, failures: &[CellFailure], recovered: usize) -> String {
    if failures.is_empty() {
        return if recovered == 0 {
            format!("ok ({completed} reps)")
        } else {
            format!("ok ({completed} reps, {recovered} recovered)")
        };
    }
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for f in failures {
        let label = f.kind.label();
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => counts.push((label, 1)),
        }
    }
    let detail: Vec<String> = counts.iter().map(|(l, n)| format!("{l}\u{d7}{n}")).collect();
    format!("{}/{} failed ({})", failures.len(), completed + failures.len(), detail.join(", "))
}

/// One cell's line of a status report, columns aligned across cells.
fn status_line(strategy: &str, site: &str, status: &str) -> String {
    format!("{strategy:<14} {site:<16} {status}")
}

/// What one completed rep adds to its cell's [`CellStats`]: the fold a
/// caller that reports only scalars hands the executor, so no waterfall
/// outlives the worker that replayed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RepStats {
    /// (PLT, SpeedIndex) in ms when the load reached onload.
    finished: Option<(f64, f64)>,
    pushed_bytes: u64,
}

impl RepStats {
    pub(crate) fn of(run: &RunOutput) -> RepStats {
        let load = &run.outcome.load;
        RepStats {
            finished: load.finished().then(|| (load.plt(), load.speed_index())),
            pushed_bytes: run.outcome.server_pushed_bytes,
        }
    }
}

/// Compact per-cell aggregates, computed for every cell in both retained
/// and streaming mode. In streaming mode this is all that survives a
/// cell: per-rep metric scalars (16 bytes per rep) instead of full
/// [`RunOutput`]s with waterfalls and paint curves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellStats {
    /// Completed reps (including recovered ones).
    pub n: u32,
    /// Completed reps whose load never reached onload (no PLT/SpeedIndex
    /// folded for them).
    pub partial: u32,
    /// PLT in ms of every finished rep, in rep order.
    pub plt: Vec<f64>,
    /// SpeedIndex in ms of every finished rep, in rep order.
    pub speed_index: Vec<f64>,
    /// Total server-pushed body bytes across completed reps.
    pub pushed_bytes: u64,
}

impl CellStats {
    /// Gather a cell's completed reps, in rep order.
    pub(crate) fn from_reps(reps: impl IntoIterator<Item = RepStats>) -> CellStats {
        let mut s = CellStats::default();
        for rep in reps {
            s.n += 1;
            match rep.finished {
                Some((plt, speed_index)) => {
                    s.plt.push(plt);
                    s.speed_index.push(speed_index);
                }
                None => s.partial += 1,
            }
            s.pushed_bytes += rep.pushed_bytes;
        }
        s
    }

    /// Summary statistics of the cell's PLTs — `None` when every rep
    /// failed or was partial, so an all-failed cell cannot panic the
    /// reporter ([`RunStats::try_of`]).
    pub fn plt_stats(&self) -> Option<RunStats> {
        RunStats::try_of(&self.plt)
    }

    /// Summary statistics of the cell's SpeedIndexes (same contract).
    pub fn speed_index_stats(&self) -> Option<RunStats> {
        RunStats::try_of(&self.speed_index)
    }
}

/// One grid cell: a (strategy, site) pair with its completed reps.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Label of the strategy ([`strategy_label`]).
    pub strategy: String,
    /// Site name ([`h2push_webmodel::Page::name`]).
    pub site: String,
    /// The completed reps, exactly as a plain [`RunPlan`] would report.
    /// Empty in streaming mode (the outputs were folded into `stats` and
    /// dropped).
    pub report: RunReport,
    /// Compact aggregates of the completed reps (always populated).
    pub stats: CellStats,
    /// Reps that did not complete, with their classified causes and
    /// retry accounting. A failed rep never aborts the grid: siblings in
    /// this cell and every other cell still run.
    pub failures: Vec<CellFailure>,
    /// Reps that failed once but completed on retry (environmental
    /// failures — their outputs are in `report`/`stats`).
    pub recovered: Vec<RecoveredRep>,
}

impl SweepCell {
    /// True when every rep of this cell completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable status: `"ok (31 reps)"`, `"ok (31 reps, 1
    /// recovered)"` or `"2/31 failed (panic\u{d7}1, watchdog\u{d7}1)"`.
    pub fn status(&self) -> String {
        status_text(self.stats.n as usize, &self.failures, self.recovered.len())
    }
}

/// Population-level distributions over every completed rep of the grid —
/// the "millions of users" statistics (percentiles, CDFs) the scenario
/// engine reports instead of per-cell means.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationStats {
    /// PLT distribution (ms) over all finished reps.
    pub plt: StreamingHist,
    /// SpeedIndex distribution (ms) over all finished reps.
    pub speed_index: StreamingHist,
}

/// All cells of a sweep, strategy-major then site order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    /// The grid cells in deterministic order.
    pub cells: Vec<SweepCell>,
    /// Whether per-rep outputs were dropped after folding
    /// ([`SweepPlan::streaming`]).
    pub streaming: bool,
}

impl SweepReport {
    /// Find a cell by strategy label and site name.
    pub fn cell(&self, strategy: &str, site: &str) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.strategy == strategy && c.site == site)
    }

    /// Total completed reps across the grid.
    pub fn completed(&self) -> usize {
        self.cells.iter().map(|c| c.stats.n as usize).sum()
    }

    /// Total failed reps across the grid.
    pub fn failed(&self) -> usize {
        self.cells.iter().map(|c| c.failures.len()).sum()
    }

    /// Total reps that recovered on retry across the grid.
    pub fn recovered(&self) -> usize {
        self.cells.iter().map(|c| c.recovered.len()).sum()
    }

    /// True when no rep of any cell failed.
    pub fn is_complete(&self) -> bool {
        self.failed() == 0
    }

    /// Cells with at least one failed rep.
    pub fn failed_cells(&self) -> impl Iterator<Item = &SweepCell> {
        self.cells.iter().filter(|c| !c.is_clean())
    }

    /// Fold every cell's per-rep metrics into population-level
    /// histograms. Identical for a retained, streaming, or resumed run of
    /// the same grid: the histogram state is integer bin counts, so the
    /// fold is exact and independent of execution chunking.
    pub fn population(&self) -> PopulationStats {
        let mut plt = StreamingHist::millis_default();
        let mut speed_index = StreamingHist::millis_default();
        for c in &self.cells {
            for &v in &c.stats.plt {
                plt.record(v);
            }
            for &v in &c.stats.speed_index {
                speed_index.record(v);
            }
        }
        PopulationStats { plt, speed_index }
    }

    /// The lossless canonical encoding of every cell (the journal record
    /// format, concatenated in grid order). Two reports are byte-for-byte
    /// identical iff these bytes are equal — the equality the
    /// checkpoint/resume suite asserts.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            let rec = checkpoint::encode_cell(i as u32, c);
            out.extend_from_slice(&(rec.len() as u32).to_le_bytes());
            out.extend_from_slice(&rec);
        }
        out
    }

    /// One status line per cell — the partial-results view a sweep
    /// driver prints when [`SweepReport::is_complete`] is false.
    pub fn render_status(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&status_line(&c.strategy, &c.site, &c.status()));
            out.push('\n');
        }
        out
    }
}

/// A whole measurement grid, built once and executed with
/// [`SweepPlan::run`] (in-memory), [`SweepPlan::checkpoint`] (journaled)
/// or [`SweepPlan::resume`] (journaled, replaying completed cells).
///
/// ```
/// use h2push_testbed::SweepPlan;
/// use h2push_strategies::Strategy;
/// # use h2push_webmodel::{PageBuilder, ResourceSpec};
/// # let mut b = PageBuilder::new("doc", "d.test", 30_000, 3_000);
/// # b.resource(ResourceSpec::css(0, 10_000, 300, 0.4));
/// # b.text_paint(8_000, 1.0);
/// # let page = b.build();
/// let report = SweepPlan::new()
///     .strategy(Strategy::NoPush)
///     .site(page)
///     .reps(3)
///     .seed(42)
///     .run();
/// assert_eq!(report.cells.len(), 1);
/// assert_eq!(report.completed(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan {
    strategies: Vec<Strategy>,
    sites: Vec<ReplayInputs>,
    reps: usize,
    seed: u64,
    mode: Mode,
    faults: Option<FaultProfile>,
    streaming: bool,
    watchdog: Option<u64>,
    kill_after: Option<usize>,
    halt_after: Option<usize>,
}

impl Default for SweepPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepPlan {
    /// An empty grid: no strategies, no sites, 1 rep, seed 0, testbed
    /// mode, retained aggregation.
    pub fn new() -> Self {
        SweepPlan {
            strategies: Vec::new(),
            sites: Vec::new(),
            reps: 1,
            seed: 0,
            mode: Mode::Testbed,
            faults: None,
            streaming: false,
            watchdog: None,
            kill_after: None,
            halt_after: None,
        }
    }

    /// Test support: SIGKILL the whole process immediately after the
    /// `n`-th cell record reaches the journal — the crash
    /// `tests/resume_kill.rs` resumes from. Only meaningful with
    /// [`SweepPlan::checkpoint`]/`resume`.
    #[doc(hidden)]
    pub fn kill_after_journaled(mut self, n: usize) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// Test support: stop scheduling after the `n`-th cell record reaches
    /// the journal and return the partial report — an in-process stand-in
    /// for a kill at an arbitrary cell boundary (the kill-resume equality
    /// test sweeps this over every boundary).
    #[doc(hidden)]
    pub fn halt_after_journaled(mut self, n: usize) -> Self {
        self.halt_after = Some(n);
        self
    }

    /// Add one strategy column.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategies.push(strategy);
        self
    }

    /// Add several strategy columns.
    pub fn strategies(mut self, strategies: impl IntoIterator<Item = Strategy>) -> Self {
        self.strategies.extend(strategies);
        self
    }

    /// Add one site row. The page is recorded and its
    /// [`PreparedPage`](crate::PreparedPage) built here, exactly once —
    /// every cell of this row shares it.
    pub fn site(mut self, page: impl Into<ReplayInputs>) -> Self {
        self.sites.push(page.into().prepared());
        self
    }

    /// Add several site rows (each prepared once, as with
    /// [`SweepPlan::site`]).
    pub fn sites<I, P>(mut self, pages: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: Into<ReplayInputs>,
    {
        for p in pages {
            self = self.site(p);
        }
        self
    }

    /// Repetitions per cell (the paper uses 31, [`crate::PAPER_RUNS`]).
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Base seed; cell rep `r` replays under `seed + r`, independent of
    /// which cell it belongs to — the same per-rep jitter a plain
    /// [`RunPlan`] with this seed derives.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Testbed (deterministic) or Internet (stochastic) conditions.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Layer a chaos [`FaultProfile`] onto every cell's derived per-rep
    /// configs (part of the grid identity: a journal written under one
    /// profile refuses to resume under another).
    pub fn faults(mut self, profile: FaultProfile) -> Self {
        self.faults = Some(profile);
        self
    }

    /// Drop per-rep outputs after folding them into [`CellStats`] and
    /// the population histograms: cells keep 16 bytes per rep instead of
    /// full waterfalls, so a 10^5-cell grid runs in bounded memory: each
    /// output is folded and dropped on the worker that replayed it.
    /// [`SweepReport::population`] reports percentiles identical to the
    /// retained-mode computation.
    pub fn streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Override the netsim event-watchdog budget of every rep (the
    /// [`crate::ReplayConfig::watchdog_events`] knob, mainly for tests
    /// that need a deterministic non-panic failure).
    pub fn watchdog_events(mut self, events: u64) -> Self {
        self.watchdog = Some(events);
        self
    }

    /// The identity a journal of this grid carries: an FNV-1a fingerprint
    /// over every input that shapes the results (strategy set, site set —
    /// names and full page content — reps, seed, mode, fault profile,
    /// aggregation mode), plus a one-line summary for error messages.
    pub fn identity(&self) -> GridIdentity {
        use std::fmt::Write as _;
        let mut desc = String::from("h2push-sweep-grid-v1\n");
        for s in &self.strategies {
            let _ = writeln!(desc, "strategy {s:?}");
        }
        for site in &self.sites {
            let page_fp = checkpoint::fnv1a(format!("{:?}", site.page).as_bytes());
            let _ = writeln!(desc, "site {} {page_fp:016x}", site.page.name);
        }
        let _ = writeln!(desc, "reps {} seed {} mode {:?}", self.reps, self.seed, self.mode);
        let _ = writeln!(desc, "faults {:?}", self.faults);
        let _ = writeln!(desc, "streaming {}", self.streaming);
        let hash = checkpoint::fnv1a(desc.as_bytes());
        let summary = format!(
            "{} strategies \u{d7} {} sites \u{d7} {} reps, seed {}, {:?} mode, faults {}, {} \
             aggregation, grid {hash:016x}",
            self.strategies.len(),
            self.sites.len(),
            self.reps,
            self.seed,
            self.mode,
            self.faults.as_ref().map(|f| f.name.as_str()).unwrap_or("none"),
            if self.streaming { "streaming" } else { "retained" },
        );
        GridIdentity { hash, summary }
    }

    /// Execute the flattened grid on the worker pool and merge the
    /// results back into per-cell reports in (strategy, site, rep) order.
    ///
    /// Every rep is isolated: a panic is caught at the rep boundary
    /// (before it can tear down the pool worker), run through the retry
    /// policy, classified together with watchdog/stall/deadline errors
    /// into [`CellFailure`] records on its cell, and the rest of the grid
    /// completes normally.
    pub fn run(&self) -> SweepReport {
        self.execute(None).expect("in-memory sweeps perform no I/O")
    }

    /// Run the grid with a fresh crash-safe journal at `path` (truncating
    /// any previous journal there). Every completed cell is appended and
    /// fsynced before the grid moves on, so a kill costs at most the
    /// cells in flight.
    pub fn checkpoint(&self, path: impl AsRef<Path>) -> Result<SweepReport, ResumeError> {
        let journal = SweepJournal::create(path.as_ref(), &self.identity())?;
        self.execute(Some((journal, Vec::new())))
    }

    /// Resume a journaled sweep: replay the journal at `path`, skip the
    /// cells it already holds, execute only the remainder (appending them
    /// to the same journal), and return the full report — byte-identical
    /// to an uninterrupted run of the same grid. Refuses a journal whose
    /// grid identity does not match this plan
    /// ([`ResumeError::IdentityMismatch`]); tolerates a torn final record
    /// and checksum-corrupt records (those cells re-run). A missing file
    /// starts a fresh checkpointed run.
    pub fn resume(&self, path: impl AsRef<Path>) -> Result<SweepReport, ResumeError> {
        let path = path.as_ref();
        if !path.exists() {
            return self.checkpoint(path);
        }
        let (journal, records, _scan) = SweepJournal::load(path, &self.identity())?;
        let done: Vec<(u32, SweepCell)> =
            records.iter().filter_map(|r| checkpoint::decode_cell(r)).collect();
        self.execute(Some((journal, done)))
    }

    fn build_plans(&self) -> Vec<(String, String, RunPlan)> {
        self.strategies
            .iter()
            .flat_map(|s| {
                self.sites.iter().map(move |site| {
                    let mut plan = RunPlan::new(site)
                        .strategy(s.clone())
                        .mode(self.mode)
                        .reps(self.reps)
                        .seed(self.seed);
                    if let Some(profile) = &self.faults {
                        plan = plan.faults(profile.clone());
                    }
                    if let Some(events) = self.watchdog {
                        plan = plan.watchdog_events(events);
                    }
                    (strategy_label(s).to_string(), site.page.name.clone(), plan)
                })
            })
            .collect()
    }

    /// Execute the cells at `batch` on the executor; in streaming mode the
    /// fold drops each rep's output on its worker and keeps the scalars.
    fn exec_cells(
        &self,
        plans: &[(String, String, RunPlan)],
        batch: &[usize],
    ) -> Vec<CellRun<(RepStats, Option<Box<RunOutput>>)>> {
        fan_out_reps(
            batch.iter().map(|_| self.reps),
            |i, rep| plans[batch[i]].2.run_rep(rep),
            |out| (RepStats::of(&out), (!self.streaming).then(|| Box::new(out))),
        )
    }

    /// The executor behind `run`/`checkpoint`/`resume`. `journal` carries
    /// the open journal plus the cells already replayed from it.
    ///
    /// Without a journal the whole grid is one fan-out (the pool never
    /// drains between cells; in streaming mode the fold-on-worker already
    /// bounds the outputs held). A journaled run executes in chunks of
    /// `max(2 × worker threads, 4)` cells, each journaled as soon as its
    /// chunk completes, which bounds the work a kill can lose. Chunking
    /// cannot change results — every rep is a pure function of its cell
    /// and rep index.
    fn execute(
        &self,
        journal: Option<(SweepJournal, Vec<(u32, SweepCell)>)>,
    ) -> Result<SweepReport, ResumeError> {
        let plans = self.build_plans();
        let n = plans.len();
        let mut cells: Vec<Option<SweepCell>> = (0..n).map(|_| None).collect();
        let (mut journal, done) = match journal {
            Some((j, done)) => (Some(j), done),
            None => (None, Vec::new()),
        };
        // Last record wins: a cell journaled twice (corruption re-run)
        // replays to its most recent contents.
        for (idx, cell) in done {
            if let Some(slot) = cells.get_mut(idx as usize) {
                *slot = Some(cell);
            }
        }
        let missing: Vec<usize> = (0..n).filter(|&i| cells[i].is_none()).collect();
        let chunk = match journal {
            Some(_) => (worker_threads() * 2).max(4),
            None => missing.len().max(1),
        };
        let mut journaled = 0usize;
        'grid: for batch in missing.chunks(chunk) {
            for (&idx, run) in batch.iter().zip(self.exec_cells(&plans, batch)) {
                let (strategy, site, _) = &plans[idx];
                let cell = SweepCell {
                    strategy: strategy.clone(),
                    site: site.clone(),
                    stats: CellStats::from_reps(run.reps.iter().map(|rep| rep.0)),
                    report: RunReport {
                        runs: run
                            .reps
                            .into_iter()
                            .filter_map(|rep| rep.1)
                            .map(|out| *out)
                            .collect(),
                    },
                    failures: run.failures,
                    recovered: run.recovered,
                };
                if let Some(j) = journal.as_mut() {
                    j.append(&checkpoint::encode_cell(idx as u32, &cell))?;
                    journaled += 1;
                    if self.kill_after == Some(journaled) {
                        kill_self();
                    }
                }
                cells[idx] = Some(cell);
                if journal.is_some() && self.halt_after == Some(journaled) {
                    break 'grid;
                }
            }
        }
        // A halted (test-hook) run returns only the journaled prefix; a
        // completed run always has every slot filled.
        Ok(SweepReport { cells: cells.into_iter().flatten().collect(), streaming: self.streaming })
    }
}

/// SIGKILL the current process — no destructors, no flushes, exactly the
/// crash the journal must survive. Test support for the resume suite.
fn kill_self() -> ! {
    let _ =
        std::process::Command::new("kill").args(["-9", &std::process::id().to_string()]).status();
    // If no `kill` binary exists, die ungracefully anyway.
    std::process::abort();
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_strategies::push_all;
    use h2push_webmodel::{Page, PageBuilder, ResourceSpec};

    fn site_page(seed: u64) -> Page {
        let mut b = PageBuilder::new(
            &format!("sweep-{seed}"),
            "sweep.test",
            40_000 + seed as usize * 1_000,
            4_000,
        );
        b.resource(ResourceSpec::css(0, 15_000, 300, 0.4));
        b.resource(ResourceSpec::js(0, 20_000, 1_000, 10_000));
        b.text_paint(8_000, 1.0);
        b.build()
    }

    #[test]
    fn grid_shape_and_order() {
        let p0 = site_page(0);
        let p1 = site_page(1);
        let strategies = vec![Strategy::NoPush, push_all(&p0, &[])];
        let report = SweepPlan::new().strategies(strategies).sites([p0, p1]).reps(2).seed(7).run();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.completed(), 8);
        let labels: Vec<(&str, &str)> =
            report.cells.iter().map(|c| (c.strategy.as_str(), c.site.as_str())).collect();
        assert_eq!(
            labels,
            vec![
                ("no-push", "sweep-0"),
                ("no-push", "sweep-1"),
                ("push-list", "sweep-0"),
                ("push-list", "sweep-1"),
            ]
        );
    }

    #[test]
    fn cell_matches_plain_run_plan() {
        let p = site_page(3);
        let sweep =
            SweepPlan::new().strategy(Strategy::NoPush).site(p.clone()).reps(3).seed(11).run();
        let plain = RunPlan::new(&p).strategy(Strategy::NoPush).reps(3).seed(11).run();
        let cell = sweep.cell("no-push", "sweep-3").expect("cell exists");
        assert_eq!(cell.report.len(), plain.len());
        for (a, b) in cell.report.outcomes().zip(plain.outcomes()) {
            assert_eq!(a.load, b.load);
            assert_eq!(a.trace.order, b.trace.order);
            assert_eq!(a.net, b.net);
        }
        // The compact stats agree with the retained outputs.
        assert_eq!(cell.stats.n, 3);
        assert_eq!(cell.stats.partial, 0);
        let plts: Vec<f64> = plain.outcomes().map(|o| o.load.plt()).collect();
        assert_eq!(cell.stats.plt, plts);
        let stats = cell.stats.plt_stats().expect("3 finished reps");
        assert_eq!(stats.n, 3);
    }

    #[test]
    fn prepared_page_is_shared_across_strategies() {
        let p = site_page(4);
        let plan = SweepPlan::new()
            .strategies(vec![Strategy::NoPush, push_all(&p, &[])])
            .site(p)
            .reps(2)
            .seed(5);
        let prepared = plan.sites[0].prepared_page().expect("site is prepared").clone();
        let report = plan.run();
        assert_eq!(report.completed(), 4);
        let (hits, misses) = prepared.hpack_cache().stats();
        assert!(hits + misses > 0, "the shared cache saw traffic");
        assert!(hits > 0, "repetitions hit memoized blocks");
    }

    #[test]
    fn empty_grid_is_empty() {
        let report = SweepPlan::new().run();
        assert!(report.cells.is_empty());
        assert_eq!(report.completed(), 0);
    }

    /// `fan_out_reps` over two two-rep cells with the panic hook silenced
    /// (restored afterwards so other tests report normally).
    fn fan_out_quietly(
        attempt: impl Fn(usize, usize) -> Result<RunOutput, ReplayError> + Sync,
    ) -> Vec<CellRun<RunOutput>> {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let runs = fan_out_reps([2, 2], attempt, |out| out);
        std::panic::set_hook(hook);
        runs
    }

    #[test]
    fn a_panicking_cell_is_isolated_and_classified_deterministic() {
        let sibling = RunPlan::new(site_page(6)).reps(2).seed(3);
        let runs = fan_out_quietly(|cell, rep| match cell {
            0 => panic!("injected panic (rep {rep})"),
            _ => sibling.run_rep(rep),
        });
        let (bad, good) = (&runs[0], &runs[1]);
        // The poisoned cell reports every rep as a classified panic that
        // was retried once and reproduced — deterministic.
        assert!(bad.reps.is_empty());
        assert_eq!(bad.failures.len(), 2);
        assert_eq!(bad.failures[0].rep, 0);
        assert!(matches!(&bad.failures[0].kind, FailureKind::Panic(m) if m.contains("injected")));
        assert_eq!(bad.failures[0].retries, 1);
        assert_eq!(bad.failures[0].class, RetryClass::Deterministic);
        assert!(bad.recovered.is_empty());
        let status = status_text(bad.reps.len(), &bad.failures, bad.recovered.len());
        assert!(status.contains("2/2 failed") && status.contains("panic"), "{status}");
        // …while its sibling completes untouched.
        assert!(good.failures.is_empty());
        assert_eq!(status_text(good.reps.len(), &good.failures, 0), "ok (2 reps)");
    }

    #[test]
    fn a_flaky_cell_recovers_on_retry() {
        let plans = [site_page(8), site_page(9)].map(|p| RunPlan::new(p).reps(2).seed(3));
        let attempted = std::sync::Mutex::new(std::collections::HashSet::new());
        // The first attempt of each rep of cell 0 panics, every retry
        // succeeds: the environmental-failure shape the retry recovers.
        let runs = fan_out_quietly(|cell, rep| {
            if cell == 0 && attempted.lock().unwrap().insert(rep) {
                panic!("injected flaky panic (rep {rep})");
            }
            plans[cell].run_rep(rep)
        });
        assert!(runs.iter().all(|run| run.failures.is_empty() && run.reps.len() == 2));
        let cell = &runs[0];
        assert_eq!(
            cell.recovered,
            vec![RecoveredRep { rep: 0, retries: 1 }, RecoveredRep { rep: 1, retries: 1 },]
        );
        assert!(runs[1].recovered.is_empty());
        assert!(status_text(2, &cell.failures, cell.recovered.len()).contains("2 recovered"));
        // Recovered outputs are byte-identical to an undisturbed run.
        let clean = plans[0].clone().serial().run();
        for (a, b) in cell.reps.iter().zip(clean.outcomes()) {
            assert_eq!(a.outcome.load, b.load);
            assert_eq!(a.outcome.net, b.net);
        }
    }

    #[test]
    fn watchdog_failures_are_never_retried() {
        let report = SweepPlan::new()
            .strategy(Strategy::NoPush)
            .site(site_page(10))
            .reps(2)
            .seed(1)
            .watchdog_events(10)
            .run();
        assert_eq!(report.failed(), 2);
        assert!(!report.is_complete());
        assert_eq!(report.failed_cells().count(), 1);
        assert!(report.render_status().contains("2/2 failed (watchdog\u{d7}2)"));
        let cell = &report.cells[0];
        for f in &cell.failures {
            assert!(matches!(f.kind, FailureKind::Watchdog { .. }));
            assert_eq!(f.retries, 0, "deterministic sim failures get no retry");
            assert_eq!(f.class, RetryClass::NotRetried);
        }
        assert_eq!(FailureKind::Watchdog { events: 9 }.label(), "watchdog");
        assert!(!FailureKind::Watchdog { events: 9 }.retryable());
        assert!(FailureKind::Panic(String::new()).retryable());
    }

    #[test]
    fn clean_grids_report_complete() {
        let report =
            SweepPlan::new().strategy(Strategy::NoPush).site(site_page(7)).reps(2).seed(1).run();
        assert!(report.is_complete());
        assert_eq!(report.failed(), 0);
        assert_eq!(report.failed_cells().count(), 0);
        let cell = &report.cells[0];
        assert_eq!(cell.status(), "ok (2 reps)");
    }

    #[test]
    fn replay_errors_classify_without_aborting_the_grid() {
        assert_eq!(
            FailureKind::from(ReplayError::Watchdog { events: 9 }),
            FailureKind::Watchdog { events: 9 }
        );
        assert_eq!(FailureKind::from(ReplayError::DeadlineExceeded), FailureKind::Deadline);
        assert_eq!(
            FailureKind::from(ReplayError::Stalled { at: h2push_netsim::SimTime::ZERO }),
            FailureKind::Stalled
        );
        assert_eq!(FailureKind::Watchdog { events: 9 }.label(), "watchdog");
        assert_eq!(FailureKind::Panic(String::new()).label(), "panic");
        assert_eq!(RetryClass::NotRetried.label(), "not-retried");
        assert_eq!(RetryClass::Deterministic.label(), "deterministic");
    }

    #[test]
    fn streaming_mode_drops_outputs_but_keeps_identical_statistics() {
        let p0 = site_page(20);
        let p1 = site_page(21);
        let strategies = vec![Strategy::NoPush, push_all(&p0, &[])];
        let base = SweepPlan::new().strategies(strategies).sites([p0, p1]).reps(3).seed(13);
        let retained = base.clone().run();
        let streamed = base.streaming().run();

        assert!(streamed.streaming);
        assert_eq!(streamed.cells.len(), retained.cells.len());
        for (s, r) in streamed.cells.iter().zip(&retained.cells) {
            assert!(s.report.is_empty(), "streaming cells drop per-rep outputs");
            assert!(!r.report.is_empty());
            assert_eq!(s.stats, r.stats, "folded scalars are identical");
        }
        // Population percentiles are bit-identical between the modes.
        let sp = streamed.population();
        let rp = retained.population();
        assert_eq!(sp, rp);
        assert_eq!(sp.plt.count(), 12);
        assert!(sp.plt.p50().is_some());
        assert!(sp.plt.p99().unwrap() >= sp.plt.p50().unwrap());
        assert!(!sp.plt.cdf().is_empty());
    }

    #[test]
    fn grid_identity_is_sensitive_to_every_knob() {
        let p = site_page(30);
        let base = SweepPlan::new().strategy(Strategy::NoPush).site(p.clone()).reps(3).seed(1);
        let id = base.identity();
        assert_eq!(id, base.identity(), "identity is stable");
        assert_ne!(id.hash, base.clone().reps(4).identity().hash);
        assert_ne!(id.hash, base.clone().seed(2).identity().hash);
        assert_ne!(id.hash, base.clone().mode(Mode::Internet).identity().hash);
        assert_ne!(id.hash, base.clone().streaming().identity().hash);
        assert_ne!(id.hash, base.clone().strategy(push_all(&p, &[])).identity().hash);
        assert_ne!(id.hash, base.clone().site(site_page(31)).identity().hash);
        assert_ne!(
            id.hash,
            base.clone().faults(FaultProfile::gilbert_elliott(0.02)).identity().hash
        );
        assert!(id.summary.contains("1 strategies"));
    }

    #[test]
    fn all_failed_cells_report_no_stats_instead_of_panicking() {
        let report = SweepPlan::new()
            .strategy(Strategy::NoPush)
            .site(site_page(40))
            .reps(2)
            .seed(1)
            .watchdog_events(10)
            .run();
        let cell = &report.cells[0];
        assert_eq!(cell.stats.n, 0);
        assert_eq!(cell.stats.plt_stats(), None, "RunStats::try_of at the boundary");
        assert_eq!(cell.stats.speed_index_stats(), None);
        let pop = report.population();
        assert!(pop.plt.is_empty());
        assert_eq!(pop.plt.p50(), None);
    }
}
