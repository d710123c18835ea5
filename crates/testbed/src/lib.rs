//! # h2push-testbed — the record-and-replay testbed (§4.1)
//!
//! The paper's central methodological contribution, rebuilt on simulation:
//! replay any recorded website deterministically, with its original
//! multi-server deployment, under any Server-Push strategy, over an
//! emulated DSL access link — then repeat 31× and compare PLT/SpeedIndex
//! distributions between strategies and against stochastic "Internet"
//! conditions.

pub mod badpeer;
pub mod chaos;
pub mod checkpoint;
pub(crate) mod driver;
pub mod experiments;
pub mod harness;
#[cfg(unix)]
pub mod live;
pub mod plan;
pub mod pool;
pub mod prepared;
pub mod replay;
pub mod sweep;
pub mod waterfall;
pub(crate) mod wire_fifo;

pub use badpeer::{
    attack_page, benign_request, run_attack, run_suite, AttackKind, AttackOutcome, AttackScript,
    Victim,
};
pub use chaos::{
    apply_profile, observe, run_fault_matrix, strategy_label, ChaosCell, FaultProfile,
};
pub use checkpoint::{GridIdentity, JournalScan, ResumeError, SweepJournal};
pub use driver::ReplayCtx;
pub use harness::{push_orders, Mode, PAPER_RUNS};
#[cfg(unix)]
pub use live::{
    load_page, load_page_in, CloseCounts, CloseReason, ConnClose, LiveLimits, LiveLoadReport,
    LiveServer, LiveServerHandle, LiveServerStats, TimeoutKind, DRAIN_DEADLINE, HEADER_TIMEOUT,
    IDLE_TIMEOUT, MAX_QUEUED_BYTES, PREFACE_TIMEOUT, WRITE_STALL_TIMEOUT,
};
pub use plan::{RunOutput, RunPlan, RunReport, TraceSpec};
pub use pool::{parallel_indexed, set_worker_threads, worker_threads};
pub use prepared::PreparedPage;
pub use replay::{Protocol, ReplayConfig, ReplayError, ReplayInputs, ReplayOutcome};
pub use sweep::{
    replays_declared, run_cells, CellFailure, CellStats, FailureKind, PopulationStats,
    RecoveredRep, RetryClass, SweepCell, SweepPlan, SweepReport,
};
pub use waterfall::write_waterfall;
