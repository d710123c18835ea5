//! # h2push — *Is the Web ready for HTTP/2 Server Push?* in Rust
//!
//! A full reproduction of Zimmermann, Wolters, Hohlfeld and Wehrle's
//! CoNEXT 2018 paper: a deterministic record-and-replay testbed for
//! HTTP/2 Server Push strategies, built from scratch — HPACK (RFC 7541),
//! HTTP/2 framing/streams/priorities (RFC 7540), a packet-level network
//! simulator with the paper's DSL profile, a Chromium-64-like browser
//! load/render model, an h2o-like replay server, and the paper's
//! **Interleaving Push** scheduler.
//!
//! This umbrella crate re-exports every subsystem; see `DESIGN.md` for the
//! crate map and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quick start
//!
//! ```
//! use h2push::core::{evaluate, PushPlanner};
//! use h2push::strategies::Strategy;
//! use h2push::webmodel::synthetic_site;
//!
//! let page = synthetic_site(2);
//! let baseline = evaluate(&page, Strategy::NoPush).unwrap();
//! let plan = evaluate(&page, PushPlanner::static_recommendation(&page)).unwrap();
//! println!("SpeedIndex {:.0} → {:.0} ms", baseline.speed_index, plan.speed_index);
//! ```

pub mod experiment;
pub mod har;

// The blessed top-level surface: everything a typical experiment touches,
// importable without naming a subsystem crate. Anything deeper is reachable
// through the module aliases below, but is not part of the stable surface.
pub use h2push_browser::{Browser, BrowserConfig, LoadResult};
pub use h2push_core::{evaluate, Evaluation, PushPlanner};
pub use h2push_strategies::Strategy;
#[cfg(unix)]
pub use h2push_testbed::{
    load_page, CloseReason, LiveLimits, LiveLoadReport, LiveServer, LiveServerHandle,
    LiveServerStats,
};
pub use h2push_testbed::{Mode, ReplayInputs, ReplayOutcome, RunPlan, SweepPlan, SweepReport};
pub use h2push_trace::{Timeline, TraceHandle};
pub use h2push_webmodel::{generate_site, CorpusKind, Page};

/// Chromium-64-like browser load/render model.
pub use h2push_browser as browser;
/// The paper's contribution: evaluation API, interleaving push, planning.
pub use h2push_core as core;
/// The HTTP/1.1 baseline protocol.
pub use h2push_h1 as h1;
/// HTTP/2 wire protocol (RFC 7540).
pub use h2push_h2proto as h2proto;
/// HPACK header compression (RFC 7541).
pub use h2push_hpack as hpack;
/// PLT / SpeedIndex statistics.
pub use h2push_metrics as metrics;
/// Deterministic packet-level network simulation.
pub use h2push_netsim as netsim;
/// The h2o-like replay server with the interleaving scheduler.
pub use h2push_server as server;
/// Push strategies and computed push orders.
pub use h2push_strategies as strategies;
/// The record-and-replay testbed and all experiment drivers.
pub use h2push_testbed as testbed;
/// The zero-cost-when-off deterministic trace layer.
pub use h2push_trace as trace;
/// Website models, corpora and the record database.
pub use h2push_webmodel as webmodel;
