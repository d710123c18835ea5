//! # h2push-netsim — deterministic packet-level network simulation
//!
//! This crate is the substrate that replaces the paper's `tc`-emulated
//! testbed network (*Is the Web ready for HTTP/2 Server Push?*, CoNEXT
//! 2018, §4.1): a virtual-clock discrete-event simulator with
//!
//! * asymmetric client access links (default: the paper's DSL profile of
//!   50 ms RTT, 16 Mbit/s downstream, 1 Mbit/s upstream),
//! * any number of server nodes, each with its own link pair,
//! * a simplified but faithful TCP model per connection (IW10 slow start,
//!   congestion avoidance, receive windows, per-packet ACKs on the narrow
//!   uplink, RTO loss recovery),
//! * application timers, and
//! * a *pull-based* send API so HTTP/2 stream schedulers decide what to
//!   send as late as possible — the mechanism the paper's Interleaving
//!   Push scheduler depends on.
//!
//! Everything is deterministic given a [`NetworkSpec`]; there are no
//! threads, wall-clock reads or hash-order dependencies, in the style of
//! event-driven stacks like smoltcp.

pub mod fault;
pub mod link;
pub mod network;
pub mod queue;
pub mod time;

pub use fault::{FaultSpec, LossModel, NetStats};
pub use link::{Link, LinkSpec, Transmit};
pub use network::{
    ConnId, Dir, NetEvent, Network, NetworkSpec, ServerId, ServerSpec, HEADER_OVERHEAD, MSS,
};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
