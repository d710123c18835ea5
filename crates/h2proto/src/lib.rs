//! # h2push-h2proto — HTTP/2 wire protocol (RFC 7540)
//!
//! From-scratch HTTP/2: the binary framing layer (all ten frame types),
//! SETTINGS negotiation (including `SETTINGS_ENABLE_PUSH`, the paper's
//! "no push" switch), stream lifecycle states, connection- and stream-level
//! flow control, the §5.3 priority dependency tree, and a pluggable stream
//! scheduler — the policy surface on which the paper builds Interleaving
//! Push.
//!
//! The [`connection::Connection`] endpoint is a sans-IO state machine
//! (see [`sansio`]): wire bytes in via [`Connection::feed_bytes`] /
//! [`Connection::receive`], wire bytes out via `produce`, decoded
//! [`Event`]s as the action stream — no socket, queue or clock ownership,
//! so the same endpoint runs under the deterministic `h2push-netsim`
//! harness and the live TCP runtime unchanged.

pub mod cache_digest;
pub mod connection;
pub mod error;
pub mod frame;
pub mod limits;
pub mod priority;
pub mod sansio;
pub mod scheduler;
pub(crate) mod stream_slab;

pub use cache_digest::CacheDigest;
pub use connection::{Connection, Event, Role, StreamState};
pub use error::{ConnError, StreamError};
pub use frame::{
    ErrorCode, Frame, FrameError, FrameOf, PrioritySpec, Settings, DEFAULT_MAX_FRAME_SIZE,
    DEFAULT_WINDOW, PREFACE,
};
pub use h2push_hpack::BlockCache;
pub use limits::ConnLimits;
pub use priority::{PriorityTree, ROOT};
pub use scheduler::{DefaultScheduler, FifoScheduler, Scheduler, StreamSnapshot};
