//! # h2push-trace — deterministic replay observability
//!
//! A zero-cost-when-off trace layer for the deterministic replay testbed.
//! Every subsystem (netsim, h2proto, h2server, browser) holds a cheap
//! [`TraceHandle`]; when the handle is off — the default — each emission
//! site costs one branch on an `Option` and nothing else. When a sink is
//! attached, typed [`TraceEvent`]s are stamped with simulated microseconds
//! and recorded in emission order.
//!
//! Because the simulator is fully deterministic, two traced runs of the
//! same seed produce **bit-identical** [`Timeline`]s, and attaching a sink
//! never perturbs the simulation: no RNG draws, no reordering, no timing
//! feedback. The timeline can render a per-resource waterfall (text and
//! JSON) and per-stream byte accounting.
//!
//! This crate sits at the bottom of the dependency stack on purpose: it
//! has no dependencies and speaks only primitives (`u64` microseconds,
//! `u32` stream ids, `usize` resource/connection indices). Mapping ids to
//! names is the caller's business via [`NameResolver`].

mod event;
mod handle;
mod timeline;
mod waterfall;

pub use event::{conn_label, DropCause, FrameKind, Micros, Role, TraceEvent};
pub use handle::{recording, TraceHandle};
pub use timeline::{ResourceSpan, StreamBytes, Timeline};
pub use waterfall::{NameResolver, WaterfallMeta};
