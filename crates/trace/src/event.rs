//! The typed event vocabulary of a replay.
//!
//! Every variant carries only primitives so events are `Copy` and the
//! off-path cost of building one is a handful of register moves. Ids come
//! from three namespaces: `conn: usize` is a netsim connection index,
//! `conn: u32` on endpoint events is the replay's `(group, slot)` label
//! (see `conn_label` in the testbed), and `resource: usize` indexes the
//! page's resource list.

/// Simulated time in microseconds since connection start.
pub type Micros = u64;

/// Stable endpoint-connection label from the replay's `(group, slot)`
/// pair: group in the high bits so labels sort by server group. Used by
/// both halves of a connection so client and server frames correlate.
pub fn conn_label(group: usize, slot: usize) -> u32 {
    ((group as u32) << 8) | (slot as u32 & 0xff)
}

/// Which endpoint of a connection emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    Client,
    Server,
}

impl Role {
    pub fn label(self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::Server => "server",
        }
    }
}

/// HTTP/2 frame types as they appear on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FrameKind {
    Data,
    Headers,
    Priority,
    RstStream,
    Settings,
    PushPromise,
    Ping,
    Goaway,
    WindowUpdate,
    Continuation,
    Unknown,
}

impl FrameKind {
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::Data => "DATA",
            FrameKind::Headers => "HEADERS",
            FrameKind::Priority => "PRIORITY",
            FrameKind::RstStream => "RST_STREAM",
            FrameKind::Settings => "SETTINGS",
            FrameKind::PushPromise => "PUSH_PROMISE",
            FrameKind::Ping => "PING",
            FrameKind::Goaway => "GOAWAY",
            FrameKind::WindowUpdate => "WINDOW_UPDATE",
            FrameKind::Continuation => "CONTINUATION",
            FrameKind::Unknown => "UNKNOWN",
        }
    }
}

/// Why the network simulator dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DropCause {
    /// Uniform Bernoulli loss from the link spec.
    Random,
    /// Injected fault model (Gilbert–Elliott burst state).
    Fault,
    /// Bottleneck queue overflow.
    Queue,
}

impl DropCause {
    pub fn label(self) -> &'static str {
        match self {
            DropCause::Random => "random",
            DropCause::Fault => "fault",
            DropCause::Queue => "queue",
        }
    }
}

/// One observation from somewhere in the stack.
///
/// Grouped bottom-up: transport events from netsim, frame/flow-control and
/// scheduler events from the HTTP/2 endpoints, push lifecycle from server
/// and browser, and page milestones from the browser's critical rendering
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    // ---- netsim (conn = netsim connection index) ----
    /// Transport + TLS handshake finished; the connection is usable.
    Connected { conn: usize },
    /// A data packet was dropped, and why.
    FaultDrop { conn: usize, cause: DropCause },
    /// A retransmission timer fired and the lost head was resent.
    Retransmit { conn: usize },

    // ---- HTTP/2 endpoints (conn = replay (group, slot) label) ----
    /// A frame was encoded onto the wire by `role`.
    FrameSent { conn: u32, role: Role, stream: u32, kind: FrameKind, bytes: u32, end_stream: bool },
    /// A frame was parsed off the wire by `role`.
    FrameReceived { conn: u32, role: Role, stream: u32, kind: FrameKind, bytes: u32 },
    /// A WINDOW_UPDATE was applied to the sender's budget (`stream` 0 is
    /// the connection window).
    WindowUpdate { conn: u32, role: Role, stream: u32, increment: u32 },
    /// The server scheduler elected `stream` for its next DATA chunk.
    SchedulerPick { conn: u32, stream: u32, bytes: u32 },
    /// Interleaving: the document stream was suspended at `offset` bytes.
    InterleaveSuspend { parent: u32, offset: u64 },
    /// Interleaving: the critical set drained; the document resumes.
    InterleaveResume { parent: u32 },

    // ---- server push lifecycle ----
    /// The server issued PUSH_PROMISE `promised` on `parent` for `resource`.
    PushPromised { conn: u32, parent: u32, promised: u32, resource: usize, critical: bool },

    // ---- browser ----
    /// The parser or preload scanner found a subresource.
    ResourceDiscovered { resource: usize },
    /// A request went out on `stream` of connection group `group`.
    RequestSent { resource: usize, group: usize, stream: u32 },
    /// A pushed stream was matched to a needed resource and adopted.
    PushAccepted { resource: usize, group: usize, stream: u32 },
    /// A pushed stream was refused (duplicate, unknown, or cache-warm).
    PushCancelled { group: usize, stream: u32 },
    /// All response bytes for the resource arrived.
    ResourceLoaded { resource: usize },
    /// The resource finished evaluation (CSSOM built, script executed).
    ResourceEvaluated { resource: usize },
    /// The resource was abandoned after retries/timeouts.
    ResourceFailed { resource: usize },
    /// First pixels on screen.
    FirstPaint,
    /// DOM parsing complete, deferred scripts done.
    DomContentLoaded,
    /// The load event: every blocking resource settled.
    Onload,
    /// A connection attempt failed at the transport layer.
    ConnError { group: usize },

    // ---- adversarial-peer hardening ----
    /// An endpoint detected a resource-limit or flood violation; `fatal`
    /// distinguishes GOAWAY (connection dies) from RST (stream dies).
    LimitViolation { conn: u32, role: Role, stream: u32, fatal: bool },
    /// The replay watchdog tripped: the netsim loop exceeded its
    /// event-count budget and the run was aborted.
    WatchdogFired { events: u64 },
}

impl TraceEvent {
    /// Stable kebab-case tag for rendering and JSON export.
    pub fn kind_label(&self) -> &'static str {
        match self {
            TraceEvent::Connected { .. } => "connected",
            TraceEvent::FaultDrop { .. } => "fault-drop",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::FrameSent { .. } => "frame-sent",
            TraceEvent::FrameReceived { .. } => "frame-received",
            TraceEvent::WindowUpdate { .. } => "window-update",
            TraceEvent::SchedulerPick { .. } => "scheduler-pick",
            TraceEvent::InterleaveSuspend { .. } => "interleave-suspend",
            TraceEvent::InterleaveResume { .. } => "interleave-resume",
            TraceEvent::PushPromised { .. } => "push-promised",
            TraceEvent::ResourceDiscovered { .. } => "resource-discovered",
            TraceEvent::RequestSent { .. } => "request-sent",
            TraceEvent::PushAccepted { .. } => "push-accepted",
            TraceEvent::PushCancelled { .. } => "push-cancelled",
            TraceEvent::ResourceLoaded { .. } => "resource-loaded",
            TraceEvent::ResourceEvaluated { .. } => "resource-evaluated",
            TraceEvent::ResourceFailed { .. } => "resource-failed",
            TraceEvent::FirstPaint => "first-paint",
            TraceEvent::DomContentLoaded => "dom-content-loaded",
            TraceEvent::Onload => "onload",
            TraceEvent::ConnError { .. } => "conn-error",
            TraceEvent::LimitViolation { .. } => "limit-violation",
            TraceEvent::WatchdogFired { .. } => "watchdog-fired",
        }
    }
}
