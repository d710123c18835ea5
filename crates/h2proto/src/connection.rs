//! An HTTP/2 connection endpoint (client or server half).
//!
//! The endpoint is a synchronous state machine in the smoltcp style: bytes
//! in via [`Connection::receive`], bytes out via [`Connection::produce`],
//! application events out via [`Connection::poll_event`]. It owns the HPACK
//! contexts, the stream table, connection- and stream-level flow control,
//! and the priority tree; *which* stream's DATA is emitted next is delegated
//! to a [`Scheduler`] — the policy surface the
//! paper's Interleaving Push modifies.

use crate::error::{ConnError, StreamError};
use crate::frame::{
    ErrorCode, FrameError, FrameHead, FrameOf, FrameRef, PrioritySpec, Settings,
    DEFAULT_MAX_FRAME_SIZE, DEFAULT_WINDOW, FRAME_HEADER_LEN, PREFACE,
};
use crate::limits::ConnLimits;
use crate::priority::PriorityTree;
use crate::sansio::WireSink;
use crate::scheduler::{Scheduler, StreamSnapshot};
use crate::stream_slab::StreamSlab;
use bytes::{Bytes, BytesMut};
use h2push_hpack::{Decoder as HpackDecoder, Encoder as HpackEncoder, HeaderField, HeaderList};
use h2push_trace::{FrameKind as TraceFrameKind, TraceEvent, TraceHandle};
use std::collections::VecDeque;
use std::sync::Arc;

/// Which side of the connection this endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The browser side: odd stream ids, sends the preface.
    Client,
    /// The replay-server side: even push ids.
    Server,
}

/// Stream lifecycle states (RFC 7540 §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamState {
    /// Reserved by a sent PUSH_PROMISE (server side).
    ReservedLocal,
    /// Reserved by a received PUSH_PROMISE (client side).
    ReservedRemote,
    /// Open in both directions.
    Open,
    /// We sent END_STREAM.
    HalfClosedLocal,
    /// Peer sent END_STREAM.
    HalfClosedRemote,
    /// Fully closed.
    Closed,
}

impl StreamState {
    /// The state after we sent END_STREAM.
    fn send_closed(self) -> Self {
        match self {
            StreamState::Open => StreamState::HalfClosedLocal,
            StreamState::HalfClosedRemote | StreamState::ReservedLocal => StreamState::Closed,
            other => other,
        }
    }
}

#[derive(Debug)]
struct OutBody {
    queued: usize,
    fin: bool,
    sent: u64,
    headers_sent: bool,
}

#[derive(Debug)]
struct Stream {
    state: StreamState,
    send_window: i64,
    recv_consumed: usize,
    out: OutBody,
}

impl Stream {
    fn new(state: StreamState, send_window: i64) -> Self {
        Stream {
            state,
            send_window,
            recv_consumed: 0,
            out: OutBody { queued: 0, fin: false, sent: 0, headers_sent: false },
        }
    }

    /// Ready-set membership (see [`Connection::ready`]): the response
    /// headers are out, the stream is not closed, and body bytes wait.
    fn has_unsent_body(&self) -> bool {
        self.out.headers_sent && self.state != StreamState::Closed && self.out.queued > 0
    }

    /// Body bytes both flow-control windows let out now (`conn_window` is
    /// the connection's; either may be negative after a SETTINGS shrink).
    fn sendable(&self, conn_window: i64) -> usize {
        self.out.queued.min(conn_window.max(0) as usize).min(self.send_window.max(0) as usize)
    }

    /// The response ended without a last DATA frame to carry END_STREAM:
    /// headers out, send side still open, `fin` set and nothing queued.
    fn owes_empty_fin(&self) -> bool {
        self.out.headers_sent
            && self.out.fin
            && self.out.queued == 0
            && matches!(self.state, StreamState::Open | StreamState::HalfClosedRemote)
    }
}

/// Application-visible connection events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Peer SETTINGS arrived (already applied).
    Settings(Settings),
    /// Peer acknowledged our SETTINGS.
    SettingsAck,
    /// A complete header block arrived on `stream`. The list is shared
    /// (`Arc`) so event delivery never copies header bytes — and the
    /// connection decodes a later block into the same list once every
    /// holder has dropped it, so drop it before the next `receive`; a
    /// consumer that keeps one merely costs the connection a fresh list.
    Headers { stream: u32, headers: Arc<HeaderList>, end_stream: bool },
    /// The peer promised to push `promised` in response to `parent`.
    PushPromise { parent: u32, promised: u32, headers: Arc<HeaderList> },
    /// Body bytes arrived.
    Data { stream: u32, len: usize, end_stream: bool },
    /// Peer reset a stream.
    Reset { stream: u32, code: ErrorCode },
    /// Peer sent PRIORITY for `stream` (also applied to our tree).
    Priority { stream: u32, spec: PrioritySpec },
    /// Peer is going away.
    GoAway { last_stream: u32, code: ErrorCode },
    /// A single stream failed; the connection survives.
    StreamError { stream: u32, error: StreamError },
    /// A fatal protocol violation was observed; the connection is dead.
    ConnectionError { error: ConnError },
}

/// Encoded control frames awaiting [`Connection::produce_into`], back to
/// back in one byte ring, plus the length of each: a frame is encoded
/// once, straight into the ring, and leaves it in one move. A recycled
/// connection's ring keeps its capacity, so queueing allocates nothing.
#[derive(Default)]
struct ControlQueue {
    bytes: VecDeque<u8>,
    /// Length of each queued frame, oldest first. Frames are atomic on
    /// the wire; the client preface and its SETTINGS count as one.
    frame_lens: VecDeque<usize>,
}

impl ControlQueue {
    /// Queue whatever `encode` writes as one frame.
    fn push(&mut self, encode: impl FnOnce(&mut VecDeque<u8>)) {
        let before = self.bytes.len();
        encode(&mut self.bytes);
        self.frame_lens.push_back(self.bytes.len() - before);
    }

    /// Queued frames.
    fn len(&self) -> usize {
        self.frame_lens.len()
    }

    fn is_empty(&self) -> bool {
        self.frame_lens.is_empty()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.frame_lens.clear();
    }

    /// Move whole frames into `sink`, oldest first, while they fit in
    /// `max` — the first always goes — and return the bytes moved.
    fn drain_into(&mut self, max: usize, sink: &mut dyn WireSink) -> usize {
        let (mut n, mut frames) = (0, 0);
        for &len in &self.frame_lens {
            if n > 0 && n + len > max {
                break;
            }
            n += len;
            frames += 1;
        }
        if n > 0 {
            self.frame_lens.drain(..frames);
            let (head, tail) = self.bytes.as_slices();
            let cut = n.min(head.len());
            sink.put_slice(&head[..cut]);
            if n > cut {
                sink.put_slice(&tail[..n - cut]);
            }
            self.bytes.drain(..n);
        }
        n
    }
}

/// What the frame that opened a header block said about it; the block's
/// octets are elsewhere (see [`Connection::header_frag`]).
#[derive(Clone, Copy)]
struct PendingHeaders {
    stream: u32,
    promised: Option<u32>,
    end_stream: bool,
    priority: Option<PrioritySpec>,
}

/// One endpoint of an HTTP/2 connection.
pub struct Connection {
    role: Role,
    hpack_enc: HpackEncoder,
    hpack_dec: HpackDecoder,
    streams: StreamSlab<Stream>,
    /// Ids of the streams with unsent body ([`Stream::has_unsent_body`]),
    /// ascending: what `wants_send` and `produce` look at instead of every
    /// stream the connection ever opened. Exact at all times — every
    /// change to a stream's state, headers flag or queue goes through
    /// [`Connection::update_stream`] or [`Connection::insert_stream`],
    /// which re-derive membership. Send windows are not part of it
    /// (WINDOW_UPDATE and SETTINGS move them without touching the set);
    /// the two readers check them per ready stream.
    ready: Vec<u32>,
    /// Streams not in [`StreamState::Closed`] (the §5.1.2 concurrency
    /// count), maintained by the same two functions.
    active_streams: usize,
    /// Reference mode for the lockstep test: re-derive `ready` by a full
    /// slab scan wherever the send path reads it.
    #[cfg(test)]
    scan_reference: bool,
    tree: PriorityTree,
    control: ControlQueue,
    /// A partial frame header, or a partial frame that is not DATA, held
    /// over between [`Connection::receive`] calls (and the partial preface
    /// on a server). Never DATA payload.
    recv_buf: Vec<u8>,
    /// The DATA frame whose payload is arriving, and how much of it is
    /// still to come: payload octets are counted off, not stored.
    data_in_flight: Option<(FrameHead, usize)>,
    events: VecDeque<Event>,
    next_stream_id: u32,
    next_push_id: u32,
    preface_sent: bool,
    preface_received: bool,
    // Peer-controlled send parameters.
    peer_enable_push: bool,
    peer_max_frame_size: usize,
    peer_initial_window: i64,
    conn_send_window: i64,
    // Our receive parameters.
    local_settings: Settings,
    local_initial_window: i64,
    conn_recv_consumed: usize,
    goaway_received: bool,
    dead: bool,
    // Adversarial-peer enforcement (see [`ConnLimits`]). The counters are
    // lifetime totals; benign replays stay far below every bound.
    limits: ConnLimits,
    resets_received: u32,
    settings_received: u32,
    pings_received: u32,
    refused_streams: u32,
    /// Highest peer-initiated stream id accepted (server side): client
    /// stream ids must be odd and monotonically increasing (§5.1.1).
    highest_peer_stream: u32,
    /// Highest promised stream id seen (client side): promises must be
    /// monotonically increasing too.
    last_promised_id: u32,
    trace: TraceHandle,
    /// Replay connection label stamped into trace events.
    trace_conn: u32,
    /// Reused snapshot vector for the scheduler loop in `produce_into`.
    snap_scratch: Vec<StreamSnapshot>,
    /// A header block mid-assembly across CONTINUATION frames whose tail
    /// has not arrived yet. Carried across [`Connection::receive`] calls:
    /// chunk boundaries are transport artifacts the sans-IO contract says
    /// the machine must not observe (a live TCP read can split a block
    /// anywhere).
    pending_headers: Option<PendingHeaders>,
    /// The fragments of that block received so far, concatenated. A block
    /// that arrives in one frame — nearly all do — never comes here: it
    /// is decoded where it lies in the receive buffer.
    header_frag: Vec<u8>,
    /// The header lists this connection handed out in events, kept so a
    /// later block can be decoded into one nobody holds any more (see
    /// [`HpackDecoder::decode_shared`]). The first `lists_out` went out
    /// during the current [`Connection::receive`]; a consumer that drains
    /// and drops its events between calls lets a recycled connection
    /// decode every block without allocating.
    lists: Vec<Arc<HeaderList>>,
    lists_out: usize,
}

/// `(kind, stream, payload bytes)` of a frame, for trace stamping only.
fn frame_meta(frame: &FrameRef<'_>) -> (TraceFrameKind, u32, u32) {
    match frame {
        FrameOf::Data { stream, len, .. } => (TraceFrameKind::Data, *stream, *len as u32),
        FrameOf::Headers { stream, block, .. } => {
            (TraceFrameKind::Headers, *stream, block.len() as u32)
        }
        FrameOf::Priority { stream, .. } => (TraceFrameKind::Priority, *stream, 5),
        FrameOf::RstStream { stream, .. } => (TraceFrameKind::RstStream, *stream, 4),
        FrameOf::Settings { .. } => (TraceFrameKind::Settings, 0, 0),
        FrameOf::PushPromise { stream, block, .. } => {
            (TraceFrameKind::PushPromise, *stream, block.len() as u32 + 4)
        }
        FrameOf::Ping { .. } => (TraceFrameKind::Ping, 0, 8),
        FrameOf::GoAway { .. } => (TraceFrameKind::Goaway, 0, 8),
        FrameOf::WindowUpdate { stream, .. } => (TraceFrameKind::WindowUpdate, *stream, 4),
        FrameOf::Continuation { stream, block, .. } => {
            (TraceFrameKind::Continuation, *stream, block.len() as u32)
        }
    }
}

/// Stamp `frame` into the trace and encode it at the tail of `control`. A
/// free function over the fields it touches, so the frame may borrow the
/// connection's own HPACK encoder.
fn push_frame(
    control: &mut ControlQueue,
    trace: &TraceHandle,
    conn: u32,
    role: h2push_trace::Role,
    frame: &FrameRef<'_>,
) {
    if trace.is_on() {
        let (kind, stream, bytes) = frame_meta(frame);
        let end_stream = matches!(
            frame,
            FrameOf::Headers { end_stream: true, .. } | FrameOf::Data { end_stream: true, .. }
        );
        trace.emit(TraceEvent::FrameSent { conn, role, stream, kind, bytes, end_stream });
    }
    control.push(|out| frame.encode(out));
}

impl Connection {
    /// Create the client half. `settings` is sent in the connection preface
    /// — set `enable_push: Some(false)` for the paper's *no push* baseline.
    pub fn client(settings: Settings) -> Self {
        let mut c = Self::new(Role::Client, settings);
        c.queue_client_preface();
        c
    }

    /// Create the server half.
    pub fn server(settings: Settings) -> Self {
        let mut c = Self::new(Role::Server, settings);
        c.queue_server_preface();
        c
    }

    /// Queue the client connection preface: the 24-octet magic and our
    /// SETTINGS as one chunk, then the generous connection-window update.
    fn queue_client_preface(&mut self) {
        let settings = FrameRef::Settings { ack: false, settings: self.local_settings };
        self.control.push(|out| {
            out.put_slice(PREFACE);
            settings.encode(out);
        });
        self.preface_sent = true;
        // Mirror Chromium: open the connection-level window generously so
        // stream windows are the effective limit.
        self.queue_frame(FrameOf::WindowUpdate { stream: 0, increment: 15 * 1024 * 1024 });
    }

    /// Queue the server half's opening SETTINGS and window update.
    fn queue_server_preface(&mut self) {
        self.queue_frame(FrameOf::Settings { ack: false, settings: self.local_settings });
        self.queue_frame(FrameOf::WindowUpdate { stream: 0, increment: 15 * 1024 * 1024 });
        self.preface_sent = true;
    }

    /// Recycle this endpoint into the state [`Connection::client`]
    /// `(settings)` constructs, retaining every container allocation
    /// (buffers, stream slab, tables, queues). Observable behavior is
    /// byte-identical to a freshly constructed client.
    pub fn reset_client(&mut self, settings: Settings) {
        self.role = Role::Client;
        self.reset_common(settings);
        self.queue_client_preface();
    }

    /// Recycle this endpoint into the state [`Connection::server`]
    /// `(settings)` constructs; see [`Connection::reset_client`].
    pub fn reset_server(&mut self, settings: Settings) {
        self.role = Role::Server;
        self.reset_common(settings);
        self.queue_server_preface();
    }

    /// Clear-don't-drop restoration of every field `Connection::new` sets.
    /// Kept in that function's field order so the two stay in sync.
    fn reset_common(&mut self, settings: Settings) {
        self.hpack_enc.reset();
        self.hpack_dec.reset();
        if let Some(hts) = settings.header_table_size {
            self.hpack_dec.set_capacity_limit(hts as usize);
        }
        if let Some(mhls) = settings.max_header_list_size {
            self.hpack_dec.set_max_header_list_size(mhls as usize);
        }
        self.streams.reset();
        self.ready.clear();
        self.active_streams = 0;
        self.tree.reset();
        self.control.clear();
        self.recv_buf.clear();
        self.data_in_flight = None;
        self.events.clear();
        self.next_stream_id = 1;
        self.next_push_id = 2;
        self.preface_sent = false;
        self.preface_received = self.role == Role::Client;
        self.peer_enable_push = true;
        self.peer_max_frame_size = DEFAULT_MAX_FRAME_SIZE;
        self.peer_initial_window = DEFAULT_WINDOW;
        self.conn_send_window = DEFAULT_WINDOW;
        self.local_initial_window =
            settings.initial_window_size.map(|v| v as i64).unwrap_or(DEFAULT_WINDOW);
        self.local_settings = settings;
        self.conn_recv_consumed = 0;
        self.goaway_received = false;
        self.dead = false;
        self.limits = ConnLimits::new();
        self.resets_received = 0;
        self.settings_received = 0;
        self.pings_received = 0;
        self.refused_streams = 0;
        self.highest_peer_stream = 0;
        self.last_promised_id = 0;
        self.trace = TraceHandle::off();
        self.trace_conn = 0;
        self.snap_scratch.clear();
        self.pending_headers = None;
        self.header_frag.clear();
        self.lists_out = 0;
    }

    fn new(role: Role, settings: Settings) -> Self {
        let mut hpack_dec = HpackDecoder::new();
        if let Some(hts) = settings.header_table_size {
            // Our SETTINGS_HEADER_TABLE_SIZE caps the peer encoder's
            // dynamic table; the decoder must accept size updates up to it.
            hpack_dec.set_capacity_limit(hts as usize);
        }
        if let Some(mhls) = settings.max_header_list_size {
            hpack_dec.set_max_header_list_size(mhls as usize);
        }
        Connection {
            role,
            hpack_enc: HpackEncoder::new(),
            hpack_dec,
            streams: StreamSlab::with_capacity(SLAB_INITIAL_SLOTS),
            ready: Vec::new(),
            active_streams: 0,
            #[cfg(test)]
            scan_reference: false,
            tree: PriorityTree::new(),
            control: ControlQueue::default(),
            recv_buf: Vec::new(),
            data_in_flight: None,
            events: VecDeque::new(),
            next_stream_id: 1,
            next_push_id: 2,
            preface_sent: false,
            preface_received: role == Role::Client, // only servers expect it
            peer_enable_push: true,
            peer_max_frame_size: DEFAULT_MAX_FRAME_SIZE,
            peer_initial_window: DEFAULT_WINDOW,
            conn_send_window: DEFAULT_WINDOW,
            local_initial_window: settings
                .initial_window_size
                .map(|v| v as i64)
                .unwrap_or(DEFAULT_WINDOW),
            local_settings: settings,
            conn_recv_consumed: 0,
            goaway_received: false,
            dead: false,
            limits: ConnLimits::new(),
            resets_received: 0,
            settings_received: 0,
            pings_received: 0,
            refused_streams: 0,
            highest_peer_stream: 0,
            last_promised_id: 0,
            trace: TraceHandle::off(),
            trace_conn: 0,
            snap_scratch: Vec::new(),
            pending_headers: None,
            header_frag: Vec::new(),
            lists: Vec::new(),
            lists_out: 0,
        }
    }

    /// Attach a shared HPACK block memo ([`h2push_hpack::BlockCache`]) to
    /// this endpoint's encoder. Pure acceleration: encoded bytes are
    /// identical with or without it.
    pub fn set_hpack_block_cache(&mut self, cache: h2push_hpack::BlockCache) {
        self.hpack_enc.set_block_cache(cache);
    }

    /// Attach a shared decode memo ([`h2push_hpack::DecodeCache`]) to this
    /// endpoint's decoder. Pure acceleration, like the block cache:
    /// decoded lists and table state are identical with or without it.
    pub fn set_hpack_decode_cache(&mut self, cache: h2push_hpack::DecodeCache) {
        self.hpack_dec.set_decode_cache(cache);
    }

    /// Our role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Replace the adversarial-peer enforcement bounds (defaults are
    /// [`ConnLimits::new`]). Limits are local policy only — nothing is
    /// advertised on the wire, so benign byte streams are unaffected.
    pub fn set_limits(&mut self, limits: ConnLimits) {
        // The header-list bound is enforced inside the HPACK decoder
        // (where decoded size is known before allocation). An explicit
        // SETTINGS_MAX_HEADER_LIST_SIZE still takes precedence.
        if self.local_settings.max_header_list_size.is_none() {
            self.hpack_dec.set_max_header_list_size(limits.max_header_list_size);
        }
        self.limits = limits;
    }

    /// The enforcement bounds currently in effect.
    pub fn limits(&self) -> &ConnLimits {
        &self.limits
    }

    /// True once a fatal [`ConnError`] killed this endpoint: it will
    /// ignore further input and produce at most its final GOAWAY.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Attach a trace handle; `conn` is the label stamped into every frame
    /// event from this endpoint. Timestamps come from the handle's shared
    /// clock (frame encoding has no time parameter of its own).
    pub fn set_trace(&mut self, trace: TraceHandle, conn: u32) {
        self.trace = trace;
        self.trace_conn = conn;
    }

    fn trace_role(&self) -> h2push_trace::Role {
        match self.role {
            Role::Client => h2push_trace::Role::Client,
            Role::Server => h2push_trace::Role::Server,
        }
    }

    /// The priority tree as currently negotiated.
    pub fn tree(&self) -> &PriorityTree {
        &self.tree
    }

    /// Whether the peer allows us to push (server side).
    pub fn peer_enable_push(&self) -> bool {
        self.peer_enable_push
    }

    /// True once a GOAWAY has been received.
    pub fn goaway_received(&self) -> bool {
        self.goaway_received
    }

    /// True once the peer's connection preface has been received. Client
    /// connections are born `true` (only servers expect the 24-octet
    /// magic); on a server this is the live runtime's accept-to-preface
    /// supervision signal.
    pub fn preface_received(&self) -> bool {
        self.preface_received
    }

    /// State of `stream`, if known.
    pub fn stream_state(&self, stream: u32) -> Option<StreamState> {
        self.streams.get(stream).map(|s| s.state)
    }

    /// Body bytes already sent on `stream`.
    pub fn bytes_sent(&self, stream: u32) -> u64 {
        self.streams.get(stream).map(|s| s.out.sent).unwrap_or(0)
    }

    /// Body bytes queued but not yet sent on `stream`.
    pub fn bytes_queued(&self, stream: u32) -> usize {
        self.streams.get(stream).map(|s| s.out.queued).unwrap_or(0)
    }

    fn queue_frame(&mut self, frame: FrameRef<'_>) {
        let role = self.trace_role();
        push_frame(&mut self.control, &self.trace, self.trace_conn, role, &frame);
        self.control_backpressure();
    }

    /// Queue the frame `make` builds around `range` of the header block
    /// the encoder just produced: the fragment goes from the encoder's
    /// buffer into the control ring, and nowhere in between.
    fn queue_block_frame(
        &mut self,
        range: std::ops::Range<usize>,
        make: impl for<'a> FnOnce(&'a [u8]) -> FrameRef<'a>,
    ) {
        let role = self.trace_role();
        let frame = make(&self.hpack_enc.block()[range]);
        push_frame(&mut self.control, &self.trace, self.trace_conn, role, &frame);
        self.control_backpressure();
    }

    /// Backpressure against response-forcing floods (PING acks, SETTINGS
    /// acks, RSTs queued faster than the link drains them). `fatal` itself
    /// queues a GOAWAY with `dead` already set, so this cannot recurse.
    fn control_backpressure(&mut self) {
        if self.control.len() > self.limits.max_control_frames && !self.dead {
            self.fatal(ConnError::ControlQueueOverflow);
        }
    }

    fn trace_limit_violation(&mut self, stream: u32, fatal: bool) {
        if self.trace.is_on() {
            self.trace.emit(TraceEvent::LimitViolation {
                conn: self.trace_conn,
                role: self.trace_role(),
                stream,
                fatal,
            });
        }
    }

    // ----- client API -----

    /// The id the next [`Connection::request`] will be assigned (clients
    /// build PRIORITY specs referencing the id before opening the stream).
    pub fn peek_next_stream_id(&self) -> u32 {
        self.next_stream_id
    }

    /// Open a request stream (client). Returns the new stream id.
    pub fn request<H: HeaderField>(
        &mut self,
        headers: &[H],
        priority: Option<PrioritySpec>,
    ) -> u32 {
        assert_eq!(self.role, Role::Client, "only clients open requests");
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        self.hpack_enc.encode_block(headers);
        self.queue_header_block(id, true, priority);
        // Requests in the replay have no body: half-closed (local) at once.
        self.insert_stream(id, StreamState::HalfClosedLocal);
        self.tree.insert(id, priority.unwrap_or_default());
        id
    }

    /// Send PRIORITY for `stream` (client reprioritization).
    pub fn send_priority(&mut self, stream: u32, spec: PrioritySpec) {
        self.tree.insert(stream, spec);
        self.queue_frame(FrameOf::Priority { stream, spec });
    }

    /// Reset a stream (e.g. cancel an unwanted push with CANCEL).
    pub fn reset(&mut self, stream: u32, code: ErrorCode) {
        if self.stream_state(stream).is_some_and(|state| state != StreamState::Closed) {
            self.close_stream(stream);
            self.queue_frame(FrameOf::RstStream { stream, code });
        }
    }

    // ----- server API -----

    /// Promise a push in response to `parent` (server). Returns the
    /// promised stream id, or `None` if the peer disabled push, sent
    /// GOAWAY, the connection died, or the parent is gone.
    pub fn push_promise<H: HeaderField>(&mut self, parent: u32, headers: &[H]) -> Option<u32> {
        assert_eq!(self.role, Role::Server, "only servers push");
        // A peer that disabled push, announced departure (GOAWAY), or
        // killed the connection will never accept the promise.
        if !self.peer_enable_push || self.goaway_received || self.dead {
            return None;
        }
        let parent_alive = matches!(
            self.streams.get(parent).map(|s| s.state),
            Some(StreamState::Open) | Some(StreamState::HalfClosedRemote)
        );
        if !parent_alive {
            return None;
        }
        // Stream-id exhaustion (§5.1.1): ids above 2^31-1 cannot exist;
        // a server that pushed that much simply stops pushing.
        if self.next_push_id > 0x7fff_fffe {
            return None;
        }
        let id = self.next_push_id;
        self.next_push_id += 2;
        // Push promise blocks are small in practice; single frame.
        let len = self.hpack_enc.encode_block(headers).len();
        self.queue_block_frame(0..len, |block| FrameOf::PushPromise {
            stream: parent,
            promised: id,
            block,
            end_headers: true,
        });
        self.insert_stream(id, StreamState::ReservedLocal);
        // h2o treats the pushed stream as a child of the stream that
        // triggered it (paper Fig. 5a), default weight.
        self.tree.insert(id, PrioritySpec { depends_on: parent, weight: 16, exclusive: false });
        Some(id)
    }

    /// Send response headers on `stream` (server). With `end_stream` the
    /// response has no body.
    pub fn respond<H: HeaderField>(&mut self, stream: u32, headers: &[H], end_stream: bool) {
        assert_eq!(self.role, Role::Server);
        self.hpack_enc.encode_block(headers);
        self.queue_header_block(stream, end_stream, None);
        let owes_fin = self.update_stream(stream, |s| {
            s.out.headers_sent = true;
            match (s.state, end_stream) {
                (StreamState::ReservedLocal, false) => s.state = StreamState::HalfClosedRemote,
                (_, true) => s.state = s.state.send_closed(),
                _ => {}
            }
            s.owes_empty_fin()
        });
        if end_stream {
            self.tree.remove(stream);
        }
        if owes_fin == Some(true) {
            self.queue_empty_fin(stream);
        }
    }

    /// Queue `len` body bytes on `stream`; `fin` marks the end of the
    /// response. Actual emission is driven by [`Connection::produce`],
    /// except for a response that ends with nothing left to send: its
    /// empty `DATA|END_STREAM` frame is queued at once.
    pub fn queue_body(&mut self, stream: u32, len: usize, fin: bool) {
        let owes_fin = self.update_stream(stream, |s| {
            if s.state == StreamState::Closed {
                return false;
            }
            // Saturating: a hostile application layer cannot overflow the
            // byte counter into a panic.
            s.out.queued = s.out.queued.saturating_add(len);
            s.out.fin |= fin;
            s.owes_empty_fin()
        });
        if owes_fin == Some(true) {
            self.queue_empty_fin(stream);
        }
    }

    /// End a response whose body is (or has become) empty. A zero-length
    /// DATA frame needs no flow-control credit (§6.9) and no scheduling
    /// decision, so it rides the control queue right behind the stream's
    /// HEADERS.
    fn queue_empty_fin(&mut self, stream: u32) {
        self.queue_frame(FrameOf::Data { stream, len: 0, end_stream: true });
        self.update_stream(stream, |s| s.state = s.state.send_closed());
        self.tree.remove(stream);
    }

    // ----- stream bookkeeping -----

    /// Mutate `stream` through `f`, then re-derive what the connection
    /// caches about it — the active-stream count and the ready-set
    /// membership — so no call site can leave either stale. `None` when
    /// the stream is unknown.
    fn update_stream<R>(&mut self, stream: u32, f: impl FnOnce(&mut Stream) -> R) -> Option<R> {
        let s = self.streams.get_mut(stream)?;
        let was_active = s.state != StreamState::Closed;
        let out = f(s);
        // `Closed` is terminal, so the count only ever goes down here.
        if was_active && s.state == StreamState::Closed {
            self.active_streams -= 1;
        }
        let ready = s.has_unsent_body();
        self.set_ready(stream, ready);
        Some(out)
    }

    /// Track a newly opened or reserved stream (fresh send window, nothing
    /// queued). A hostile peer can make ids collide; the displaced stream
    /// stops counting.
    fn insert_stream(&mut self, stream: u32, state: StreamState) {
        let displaced = self.streams.insert(stream, Stream::new(state, self.peer_initial_window));
        if !displaced.is_some_and(|old| old.state != StreamState::Closed) {
            self.active_streams += 1;
        }
        self.set_ready(stream, false);
    }

    /// Close `stream` in both directions, dropping its queued body.
    fn close_stream(&mut self, stream: u32) {
        self.update_stream(stream, |s| {
            s.state = StreamState::Closed;
            s.out.queued = 0;
        });
        self.tree.remove(stream);
    }

    fn set_ready(&mut self, stream: u32, ready: bool) {
        match (self.ready.binary_search(&stream), ready) {
            (Err(pos), true) => self.ready.insert(pos, stream),
            (Ok(pos), false) => {
                self.ready.remove(pos);
            }
            _ => {}
        }
    }

    /// Queue the block the encoder just produced as HEADERS on `stream`,
    /// cut into CONTINUATION frames where it exceeds the peer's frame size.
    fn queue_header_block(
        &mut self,
        stream: u32,
        end_stream: bool,
        priority: Option<PrioritySpec>,
    ) {
        let limit = self.peer_max_frame_size - 16; // room for priority section
        let total = self.hpack_enc.block().len();
        let mut end = limit.min(total);
        self.queue_block_frame(0..end, |block| FrameOf::Headers {
            stream,
            block,
            end_stream,
            end_headers: end == total,
            priority,
        });
        while end < total {
            let pos = end;
            end = (pos + limit).min(total);
            self.queue_block_frame(pos..end, |block| FrameOf::Continuation {
                stream,
                block,
                end_headers: end == total,
            });
        }
    }

    // ----- send path -----

    /// True when there is anything to put on the wire: a queued control
    /// frame, or a ready stream both flow-control windows let through.
    /// Independent of how many streams the connection has carried; only
    /// when every ready stream is window-blocked does it look at them all.
    pub fn wants_send(&self) -> bool {
        #[cfg(test)]
        if self.scan_reference {
            return self.wants_send_scan();
        }
        !self.control.is_empty()
            || (self.conn_send_window > 0
                && self
                    .ready
                    .iter()
                    .any(|&id| self.streams.get(id).is_some_and(|s| s.send_window > 0)))
    }

    /// [`Connection::wants_send`] by full slab scan: the reference the
    /// ready set is checked against.
    #[cfg(test)]
    fn wants_send_scan(&self) -> bool {
        !self.control.is_empty()
            || self
                .streams
                .iter()
                .any(|(_, s)| s.has_unsent_body() && self.conn_send_window > 0 && s.send_window > 0)
    }

    /// [`Connection::ready`] by full slab scan.
    #[cfg(test)]
    fn ready_scan(&self) -> Vec<u32> {
        self.streams.iter().filter(|(_, s)| s.has_unsent_body()).map(|(id, _)| id).collect()
    }

    /// [`Connection::produce_into`] an owned buffer, DATA payloads
    /// materialised as zeros: for callers that want the wire bytes in
    /// hand (the browser's `SendBytes`, tests, benchmarks).
    pub fn produce(&mut self, max: usize, scheduler: &mut dyn Scheduler) -> Bytes {
        let mut out = BytesMut::new();
        self.produce_into(max, scheduler, &mut out);
        out.freeze()
    }

    /// Write up to roughly `max` wire bytes into `sink` and return how
    /// many: pending control frames first (whole frames only), then DATA
    /// chunks chosen by `scheduler`. Control frames and DATA headers go
    /// through `put_slice`; a DATA payload is only ever `put_zeros(len)`,
    /// so a sink that keeps lengths never sees a body byte.
    pub fn produce_into(
        &mut self,
        max: usize,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn WireSink,
    ) -> usize {
        let mut written = self.control.drain_into(max, sink);
        let mut snapshots = std::mem::take(&mut self.snap_scratch);
        while written < max {
            #[cfg(test)]
            if self.scan_reference {
                self.ready = self.ready_scan();
            }
            // Ascending because `ready` is: the order the deterministic
            // schedulers depend on.
            snapshots.clear();
            snapshots.extend(self.ready.iter().filter_map(|&id| {
                let s = self.streams.get(id)?;
                let sendable = s.sendable(self.conn_send_window);
                (sendable > 0).then_some(StreamSnapshot {
                    id,
                    sendable,
                    sent: s.out.sent,
                    is_push: id.is_multiple_of(2),
                })
            }));
            if snapshots.is_empty() {
                break;
            }
            let Some(id) = scheduler.pick(&snapshots, &self.tree) else { break };
            let conn_window = self.conn_send_window;
            let room = self.peer_max_frame_size.min(max - written);
            let sent = self.update_stream(id, |s| {
                let chunk = s.sendable(conn_window).min(room);
                s.out.queued -= chunk;
                s.out.sent += chunk as u64;
                s.send_window -= chunk as i64;
                let end_stream = chunk > 0 && s.out.fin && s.out.queued == 0;
                if end_stream {
                    s.state = s.state.send_closed();
                }
                (chunk, end_stream)
            });
            let Some((chunk, end_stream)) = sent else {
                // The scheduler picked an id the connection no longer
                // tracks (stale policy state). Fail the pick, tell the
                // scheduler the stream is gone, and keep the connection —
                // and this produce() batch — alive.
                scheduler.stream_closed(id);
                self.events.push_back(Event::StreamError {
                    stream: id,
                    error: StreamError::UnknownScheduled,
                });
                break;
            };
            if chunk == 0 {
                break;
            }
            self.conn_send_window -= chunk as i64;
            FrameRef::Data { stream: id, len: chunk, end_stream }.encode(sink);
            written += FRAME_HEADER_LEN + chunk;
            if self.trace.is_on() {
                self.trace.emit(TraceEvent::SchedulerPick {
                    conn: self.trace_conn,
                    stream: id,
                    bytes: chunk as u32,
                });
                self.trace.emit(TraceEvent::FrameSent {
                    conn: self.trace_conn,
                    role: self.trace_role(),
                    stream: id,
                    kind: TraceFrameKind::Data,
                    bytes: chunk as u32,
                    end_stream,
                });
            }
            scheduler.charge(id, chunk, &self.tree);
            if end_stream {
                self.tree.remove(id);
                scheduler.stream_closed(id);
            }
        }
        self.snap_scratch = snapshots;
        written
    }

    // ----- receive path -----

    /// Feed wire bytes from the peer. How the bytes are cut into calls is
    /// invisible: every frame takes effect at its last byte, wherever the
    /// cuts fall. DATA payload is counted, never stored — `recv_buf` holds
    /// at most one partial frame of another type (or a partial header), so
    /// the cost of a call does not grow with the body bytes it carries.
    pub fn receive(&mut self, mut data: &[u8]) {
        if self.dead {
            return;
        }
        if !self.preface_received {
            data = self.top_up(PREFACE.len(), data);
            if self.recv_buf.len() < PREFACE.len() {
                return;
            }
            if self.recv_buf != PREFACE {
                self.fatal(ConnError::BadPreface);
                return;
            }
            self.recv_buf.clear();
            self.preface_received = true;
        }
        self.lists_out = 0;
        let local_max = self.local_max_frame_size();
        loop {
            if let Some((head, left)) = self.data_in_flight.take() {
                let n = left.min(data.len());
                data = &data[n..];
                if n < left {
                    self.data_in_flight = Some((head, left - n));
                    break;
                }
                if !self.dispatch(head.data()) {
                    return;
                }
                continue;
            }
            // The next frame starts in `recv_buf` when an earlier call left
            // part of it there, and directly in `data` otherwise. What must
            // be in hand before anything happens is a DATA frame's header
            // or any other frame whole; `recv_buf` is topped up with just
            // the bytes it still lacks of that.
            let held = !self.recv_buf.is_empty();
            if held {
                data = self.top_up(FRAME_HEADER_LEN, data);
            }
            let Some(head) = FrameHead::parse(if held { &self.recv_buf } else { data }) else {
                break;
            };
            if head.len > local_max {
                self.fatal(ConnError::FrameTooLarge);
                return;
            }
            if head.is_data() {
                if held {
                    self.recv_buf.clear();
                } else {
                    data = &data[FRAME_HEADER_LEN..];
                }
                self.data_in_flight = Some((head, head.len));
                continue;
            }
            // The frame is parsed, and a header block decoded, where its
            // octets lie; `recv_buf` steps aside while the connection acts
            // on a frame that borrows it.
            let want = FRAME_HEADER_LEN + head.len;
            if held {
                data = self.top_up(want, data);
            }
            let mut buf = std::mem::take(&mut self.recv_buf);
            let src = if held { &buf[..] } else { data };
            if src.len() < want {
                self.recv_buf = buf;
                break;
            }
            let alive = self.dispatch(FrameOf::parse(head, &src[FRAME_HEADER_LEN..want], |b| b));
            if held {
                buf.clear();
            } else {
                data = &data[want..];
            }
            self.recv_buf = buf;
            if !alive {
                return;
            }
        }
        // Out of input mid-frame: the rest (less than one frame, and empty
        // if `recv_buf` already holds the start of it) waits for the next
        // call.
        self.recv_buf.extend_from_slice(data);
    }

    /// Our SETTINGS_MAX_FRAME_SIZE: the largest payload we accept.
    fn local_max_frame_size(&self) -> usize {
        self.local_settings.max_frame_size.map(|v| v as usize).unwrap_or(DEFAULT_MAX_FRAME_SIZE)
    }

    /// Move bytes from the front of `data` into `recv_buf` until it holds
    /// `want` (or `data` runs out); returns the rest of `data`.
    fn top_up<'a>(&mut self, want: usize, data: &'a [u8]) -> &'a [u8] {
        let take = want.saturating_sub(self.recv_buf.len()).min(data.len());
        self.recv_buf.extend_from_slice(&data[..take]);
        &data[take..]
    }

    /// Act on one decoded frame, or die of the decode error. False when the
    /// connection is dead afterwards and must consume nothing further.
    fn dispatch(&mut self, frame: Result<FrameRef<'_>, FrameError>) -> bool {
        let handled = match frame {
            Ok(frame) => self.handle_frame(frame),
            Err(FrameError::TooLarge) => Err(ConnError::FrameTooLarge),
            Err(FrameError::Protocol(reason)) => Err(ConnError::Frame(reason)),
            // §4.1: frames of unknown type are ignored.
            Err(FrameError::UnknownType { .. }) => Ok(()),
            Err(FrameError::Incomplete) => unreachable!("only whole frames are decoded"),
        };
        if let Err(error) = handled {
            self.fatal(error);
        }
        // A limit can also trip inside `handle_frame` (control-queue
        // backpressure) and kill the connection without an `Err`.
        !self.dead
    }

    /// The decoder `receive` replaced, kept as the reference the lockstep
    /// test checks it against: buffer everything, decode whole frames
    /// (DATA payload included) from the buffer, compact once per call.
    #[cfg(test)]
    fn receive_buffered(&mut self, data: &[u8]) {
        if self.dead {
            return;
        }
        self.recv_buf.extend_from_slice(data);
        let mut pos = 0;
        if !self.preface_received {
            if self.recv_buf.len() < PREFACE.len() {
                return;
            }
            if &self.recv_buf[..PREFACE.len()] != PREFACE {
                self.fatal(ConnError::BadPreface);
                return;
            }
            pos = PREFACE.len();
            self.preface_received = true;
        }
        self.lists_out = 0;
        let buf = std::mem::take(&mut self.recv_buf);
        while let Some(head) = FrameHead::parse(&buf[pos..]) {
            let frame = if head.len > self.local_max_frame_size() {
                Err(FrameError::TooLarge)
            } else if buf.len() - pos < FRAME_HEADER_LEN + head.len {
                break;
            } else {
                pos += FRAME_HEADER_LEN + head.len;
                FrameOf::parse(head, &buf[pos - head.len..pos], |b| b)
            };
            if !self.dispatch(frame) {
                return;
            }
        }
        self.recv_buf = buf;
        self.recv_buf.drain(..pos);
    }

    /// The sans-IO action surface (see [`crate::sansio`]): feed a chunk of
    /// received wire bytes and return every [`Event`] it produced, in
    /// order. Equivalent to [`receive`](Self::receive) followed by
    /// draining [`poll_event`](Self::poll_event) — use this form when the
    /// runtime wants the whole batch of actions at once (the badpeer
    /// fingerprint suite drives victims this way), and the incremental
    /// pair when events must be handled interleaved with other work (the
    /// browser engine). The connection needs no clock, so no timestamp is
    /// taken: time-dependent behaviour lives in the layers above.
    pub fn feed_bytes(&mut self, bytes: &[u8]) -> Vec<Event> {
        self.receive(bytes);
        let mut events = Vec::with_capacity(self.events.len());
        while let Some(ev) = self.poll_event() {
            events.push(ev);
        }
        events
    }

    fn fatal(&mut self, error: ConnError) {
        self.dead = true;
        self.recv_buf.clear();
        self.data_in_flight = None;
        if error.is_limit_violation() {
            self.trace_limit_violation(0, true);
        }
        self.queue_frame(FrameOf::GoAway { last_stream: 0, code: error.code() });
        self.events.push_back(Event::ConnectionError { error });
    }

    fn handle_frame(&mut self, frame: FrameRef<'_>) -> Result<(), ConnError> {
        if self.pending_headers.is_some() && !matches!(frame, FrameOf::Continuation { .. }) {
            return Err(ConnError::ExpectedContinuation);
        }
        if self.trace.is_on() {
            let (kind, stream, bytes) = frame_meta(&frame);
            self.trace.emit(TraceEvent::FrameReceived {
                conn: self.trace_conn,
                role: self.trace_role(),
                stream,
                kind,
                bytes,
            });
        }
        match frame {
            FrameOf::Settings { ack, settings } => {
                if ack {
                    self.events.push_back(Event::SettingsAck);
                    return Ok(());
                }
                // Each non-ack SETTINGS forces an ack from us: a churn
                // attack amplifies unless bounded.
                self.settings_received = self.settings_received.saturating_add(1);
                if self.settings_received > self.limits.max_settings_frames {
                    return Err(ConnError::SettingsFlood);
                }
                if let Some(push) = settings.enable_push {
                    self.peer_enable_push = push;
                }
                if let Some(mfs) = settings.max_frame_size {
                    self.peer_max_frame_size = (mfs as usize).clamp(16_384, 1 << 24);
                }
                if let Some(iw) = settings.initial_window_size {
                    // §6.5.2: INITIAL_WINDOW_SIZE above 2^31-1 is a
                    // flow-control error.
                    if iw > 0x7fff_ffff {
                        return Err(ConnError::FlowControlOverflow);
                    }
                    let delta = iw as i64 - self.peer_initial_window;
                    self.peer_initial_window = iw as i64;
                    for s in self.streams.values_mut() {
                        s.send_window += delta;
                    }
                }
                if let Some(hts) = settings.header_table_size {
                    self.hpack_enc.set_table_size((hts as usize).min(4096));
                }
                self.queue_frame(FrameOf::Settings { ack: true, settings: Settings::default() });
                self.events.push_back(Event::Settings(settings));
            }
            FrameOf::WindowUpdate { stream, increment } => {
                // §6.9.1: a sender must not let a flow-control window
                // exceed 2^31-1; an update that would is FLOW_CONTROL_ERROR
                // (fatal on stream 0, RST on a stream).
                const MAX_WINDOW: i64 = 0x7fff_ffff;
                if stream == 0 {
                    if self.conn_send_window + increment as i64 > MAX_WINDOW {
                        return Err(ConnError::FlowControlOverflow);
                    }
                    self.conn_send_window += increment as i64;
                    self.trace.emit(TraceEvent::WindowUpdate {
                        conn: self.trace_conn,
                        role: self.trace_role(),
                        stream: 0,
                        increment,
                    });
                } else if let Some(s) = self.streams.get_mut(stream) {
                    if s.send_window + increment as i64 > MAX_WINDOW {
                        self.close_stream(stream);
                        self.trace_limit_violation(stream, false);
                        self.queue_frame(FrameOf::RstStream {
                            stream,
                            code: ErrorCode::FlowControlError,
                        });
                        self.events.push_back(Event::StreamError {
                            stream,
                            error: StreamError::WindowOverflow,
                        });
                        return Ok(());
                    }
                    s.send_window += increment as i64;
                    self.trace.emit(TraceEvent::WindowUpdate {
                        conn: self.trace_conn,
                        role: self.trace_role(),
                        stream,
                        increment,
                    });
                }
            }
            FrameOf::Priority { stream, spec } => {
                self.tree.insert(stream, spec);
                self.events.push_back(Event::Priority { stream, spec });
            }
            FrameOf::Headers { stream, block, end_stream, end_headers, priority } => {
                let ph = PendingHeaders { stream, promised: None, end_stream, priority };
                self.begin_header_block(ph, block, end_headers)?;
            }
            FrameOf::PushPromise { stream, promised, block, end_headers } => {
                if self.role == Role::Client && self.local_settings.enable_push == Some(false) {
                    return Err(ConnError::PushDisabled);
                }
                if promised % 2 != 0 {
                    return Err(ConnError::OddPromisedStream);
                }
                // §5.1.1: stream ids are monotonically increasing; a
                // promise reusing or rewinding ids is hostile.
                if promised <= self.last_promised_id {
                    return Err(ConnError::PromisedStreamIdNotIncreasing);
                }
                self.last_promised_id = promised;
                let ph = PendingHeaders {
                    stream,
                    promised: Some(promised),
                    end_stream: false,
                    priority: None,
                };
                self.begin_header_block(ph, block, end_headers)?;
            }
            FrameOf::Continuation { stream, block, end_headers } => {
                let ph =
                    self.pending_headers.take().ok_or(ConnError::ContinuationWithoutHeaders)?;
                if ph.stream != stream {
                    return Err(ConnError::ContinuationWrongStream);
                }
                self.header_frag.extend_from_slice(block);
                // A CONTINUATION flood grows the compressed block without
                // bound. Compressed HPACK is never larger than the decoded
                // list it carries, so the §10.5.1 decoded-list cap is a
                // sound bound on the fragment too.
                if self.header_frag.len() > self.limits.max_header_list_size {
                    return Err(ConnError::HeaderListTooLarge);
                }
                if end_headers {
                    let mut block = std::mem::take(&mut self.header_frag);
                    let finished = self.finish_header_block(ph, &block);
                    block.clear();
                    self.header_frag = block;
                    finished?;
                } else {
                    self.pending_headers = Some(ph);
                }
            }
            FrameOf::Data { stream, len, end_stream } => {
                self.conn_recv_consumed += len;
                // Replenish the connection window at the halfway mark.
                let conn_limit = 15 * 1024 * 1024 + DEFAULT_WINDOW as usize;
                if self.conn_recv_consumed * 2 >= conn_limit {
                    let inc = self.conn_recv_consumed as u32;
                    self.conn_recv_consumed = 0;
                    self.queue_frame(FrameOf::WindowUpdate { stream: 0, increment: inc });
                }
                // Single borrow of the stream: the WINDOW_UPDATE is queued
                // after it ends, so no re-lookup (and no unwrap) is needed.
                let local_initial_window = self.local_initial_window;
                let (known, window_inc) = self
                    .update_stream(stream, |s| {
                        if s.state == StreamState::Closed {
                            // Data raced our RST; ignore at stream level.
                            return (false, None);
                        }
                        s.recv_consumed += len;
                        let inc = if s.recv_consumed as i64 * 2 >= local_initial_window {
                            let inc = s.recv_consumed as u32;
                            s.recv_consumed = 0;
                            Some(inc)
                        } else {
                            None
                        };
                        if end_stream {
                            s.state = match s.state {
                                StreamState::Open => StreamState::HalfClosedRemote,
                                StreamState::HalfClosedLocal | StreamState::HalfClosedRemote => {
                                    StreamState::Closed
                                }
                                other => other,
                            };
                        }
                        (true, inc)
                    })
                    .ok_or(ConnError::DataOnUnknownStream)?;
                if let Some(increment) = window_inc {
                    self.queue_frame(FrameOf::WindowUpdate { stream, increment });
                }
                if known {
                    self.events.push_back(Event::Data { stream, len, end_stream });
                }
            }
            FrameOf::RstStream { stream, code } => {
                // Rapid-reset mitigation (cf. CVE-2023-44487): a peer that
                // opens-and-cancels streams pays for each RST against a
                // lifetime budget.
                self.resets_received = self.resets_received.saturating_add(1);
                if self.resets_received > self.limits.max_resets {
                    return Err(ConnError::ResetFlood);
                }
                self.close_stream(stream);
                self.events.push_back(Event::Reset { stream, code });
            }
            FrameOf::Ping { ack, payload } => {
                if !ack {
                    self.pings_received = self.pings_received.saturating_add(1);
                    if self.pings_received > self.limits.max_pings {
                        return Err(ConnError::PingFlood);
                    }
                    self.queue_frame(FrameOf::Ping { ack: true, payload });
                }
            }
            FrameOf::GoAway { last_stream, code } => {
                self.goaway_received = true;
                self.events.push_back(Event::GoAway { last_stream, code });
            }
        }
        Ok(())
    }

    /// The first (usually only) fragment of a header block: decode it in
    /// place if it is the whole block, else start the reassembly buffer.
    fn begin_header_block(
        &mut self,
        ph: PendingHeaders,
        block: &[u8],
        end_headers: bool,
    ) -> Result<(), ConnError> {
        if end_headers {
            return self.finish_header_block(ph, block);
        }
        self.header_frag.clear();
        self.header_frag.extend_from_slice(block);
        self.pending_headers = Some(ph);
        Ok(())
    }

    fn finish_header_block(&mut self, ph: PendingHeaders, block: &[u8]) -> Result<(), ConnError> {
        if self.lists_out == self.lists.len() {
            self.lists.push(Arc::default());
        }
        let spare = &mut self.lists[self.lists_out];
        let headers = self.hpack_dec.decode_shared(block, spare).map_err(|e| match e {
            // A header bomb (small wire bytes, huge decoded list) is a
            // flood, not a compression defect.
            h2push_hpack::Error::HeaderListTooLarge => ConnError::HeaderListTooLarge,
            _ => ConnError::HpackDecode,
        })?;
        // A memoized list is the cache's own; the spare stays spare.
        self.lists_out += usize::from(Arc::ptr_eq(&headers, spare));
        match ph.promised {
            Some(promised) => {
                // Reserved push streams count against the concurrency
                // limit: a push-flooding server gets refusals, not
                // unbounded stream-table growth.
                if self.active_streams >= self.limits.max_concurrent_streams as usize {
                    self.refused_streams = self.refused_streams.saturating_add(1);
                    if self.refused_streams > self.limits.max_concurrent_streams {
                        return Err(ConnError::ConcurrentStreamsExceeded);
                    }
                    self.trace_limit_violation(promised, false);
                    self.queue_frame(FrameOf::RstStream {
                        stream: promised,
                        code: ErrorCode::RefusedStream,
                    });
                    self.events.push_back(Event::StreamError {
                        stream: promised,
                        error: StreamError::RefusedByLimit,
                    });
                    return Ok(());
                }
                self.insert_stream(promised, StreamState::ReservedRemote);
                self.tree.insert(
                    promised,
                    PrioritySpec { depends_on: ph.stream, weight: 16, exclusive: false },
                );
                self.events.push_back(Event::PushPromise { parent: ph.stream, promised, headers });
            }
            None => {
                if !self.streams.contains_key(ph.stream) {
                    // A request HEADERS opens the stream (server side
                    // only: a client's streams all originate locally or
                    // via PUSH_PROMISE, so an unknown id is hostile).
                    if self.role == Role::Client {
                        return Err(ConnError::HeadersOnUnknownStream);
                    }
                    if ph.stream.is_multiple_of(2) {
                        return Err(ConnError::Frame("client stream id must be odd"));
                    }
                    if ph.stream <= self.highest_peer_stream {
                        return Err(ConnError::Frame("stream id not increasing"));
                    }
                    // §5.1.2: refuse streams above the concurrency limit
                    // (RST REFUSED_STREAM, the stream-error path); a peer
                    // that keeps opening past a full limit's worth of
                    // refusals escalates to a connection error.
                    if self.active_streams >= self.limits.max_concurrent_streams as usize {
                        self.refused_streams = self.refused_streams.saturating_add(1);
                        if self.refused_streams > self.limits.max_concurrent_streams {
                            return Err(ConnError::ConcurrentStreamsExceeded);
                        }
                        self.trace_limit_violation(ph.stream, false);
                        self.queue_frame(FrameOf::RstStream {
                            stream: ph.stream,
                            code: ErrorCode::RefusedStream,
                        });
                        self.events.push_back(Event::StreamError {
                            stream: ph.stream,
                            error: StreamError::RefusedByLimit,
                        });
                        return Ok(());
                    }
                    self.highest_peer_stream = ph.stream;
                    self.insert_stream(ph.stream, StreamState::Open);
                }
                self.update_stream(ph.stream, |entry| match entry.state {
                    StreamState::ReservedRemote => {
                        // Push response headers.
                        entry.state = if ph.end_stream {
                            StreamState::Closed
                        } else {
                            StreamState::HalfClosedLocal
                        };
                    }
                    StreamState::Open if ph.end_stream => {
                        entry.state = StreamState::HalfClosedRemote;
                    }
                    StreamState::HalfClosedLocal if ph.end_stream => {
                        entry.state = StreamState::Closed;
                    }
                    _ => {}
                });
                if let Some(spec) = ph.priority {
                    self.tree.insert(ph.stream, spec);
                } else if !self.tree.contains(ph.stream) {
                    self.tree.insert(ph.stream, PrioritySpec::default());
                }
                self.events.push_back(Event::Headers {
                    stream: ph.stream,
                    headers,
                    end_stream: ph.end_stream,
                });
            }
        }
        Ok(())
    }

    /// Next pending application event.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }
}

/// Dense slots pre-reserved per parity in a new connection's stream slab
/// — enough for every benign page replay in the corpus.
const SLAB_INITIAL_SLOTS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::scheduler::{DefaultScheduler, FifoScheduler};
    use h2push_hpack::Header;

    fn h(n: &str, v: &str) -> Header {
        Header::new(n, v)
    }

    fn get_headers(path: &str) -> Vec<Header> {
        vec![
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":authority", "example.org"),
            h(":path", path),
        ]
    }

    fn resp_headers() -> Vec<Header> {
        vec![h(":status", "200"), h("content-type", "text/html")]
    }

    /// Pump all bytes between the two halves until quiescent; collect events.
    fn pump(
        client: &mut Connection,
        server: &mut Connection,
        cs: &mut dyn Scheduler,
        ss: &mut dyn Scheduler,
    ) -> (Vec<Event>, Vec<Event>) {
        let (mut cev, mut sev) = (Vec::new(), Vec::new());
        for _ in 0..100 {
            let a = client.produce(usize::MAX, cs);
            let b = server.produce(usize::MAX, ss);
            if a.is_empty() && b.is_empty() {
                break;
            }
            server.receive(&a);
            client.receive(&b);
            while let Some(e) = client.poll_event() {
                cev.push(e);
            }
            while let Some(e) = server.poll_event() {
                sev.push(e);
            }
        }
        (cev, sev)
    }

    #[test]
    fn request_response_round_trip() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = DefaultScheduler::new();
        let mut ss = DefaultScheduler::new();

        let id = c.request(&get_headers("/"), None);
        assert_eq!(id, 1);
        let (_, sev) = pump(&mut c, &mut s, &mut cs, &mut ss);
        let req = sev.iter().find_map(|e| match e {
            Event::Headers { stream, headers, end_stream } => {
                Some((*stream, headers.clone(), *end_stream))
            }
            _ => None,
        });
        let (stream, headers, end) = req.expect("server saw the request");
        assert_eq!(stream, 1);
        assert!(end);
        assert_eq!(headers.field(0), (&b":method"[..], &b"GET"[..]));

        s.respond(1, &resp_headers(), false);
        s.queue_body(1, 10_000, true);
        let (cev, _) = pump(&mut c, &mut s, &mut cs, &mut ss);
        let total: usize = cev
            .iter()
            .filter_map(|e| match e {
                Event::Data { stream: 1, len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert_eq!(total, 10_000);
        assert!(cev.iter().any(|e| matches!(e, Event::Data { end_stream: true, .. })));
        assert_eq!(s.stream_state(1), Some(StreamState::Closed));
    }

    #[test]
    fn push_promise_flows_to_client() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = DefaultScheduler::new();
        let mut ss = DefaultScheduler::new();

        c.request(&get_headers("/"), None);
        pump(&mut c, &mut s, &mut cs, &mut ss);

        let pushed = s.push_promise(1, &get_headers("/style.css")).expect("push allowed");
        assert_eq!(pushed, 2);
        s.respond(2, &resp_headers(), false);
        s.queue_body(2, 500, true);
        s.respond(1, &resp_headers(), false);
        s.queue_body(1, 1000, true);

        let (cev, _) = pump(&mut c, &mut s, &mut cs, &mut ss);
        let pp = cev.iter().find_map(|e| match e {
            Event::PushPromise { parent, promised, headers } => {
                Some((*parent, *promised, headers.clone()))
            }
            _ => None,
        });
        let (parent, promised, headers) = pp.expect("client saw PUSH_PROMISE");
        assert_eq!((parent, promised), (1, 2));
        assert_eq!(headers.get(b":path"), Some(&b"/style.css"[..]));
        // Both bodies arrive fully.
        let sum = |id: u32| -> usize {
            cev.iter()
                .filter_map(|e| match e {
                    Event::Data { stream, len, .. } if *stream == id => Some(*len),
                    _ => None,
                })
                .sum()
        };
        assert_eq!(sum(1), 1000);
        assert_eq!(sum(2), 500);
    }

    #[test]
    fn enable_push_false_blocks_pushes() {
        let mut c = Connection::client(Settings { enable_push: Some(false), ..Default::default() });
        let mut s = Connection::server(Settings::default());
        let mut cs = DefaultScheduler::new();
        let mut ss = DefaultScheduler::new();
        c.request(&get_headers("/"), None);
        pump(&mut c, &mut s, &mut cs, &mut ss);
        assert!(!s.peer_enable_push());
        assert_eq!(s.push_promise(1, &get_headers("/style.css")), None);
    }

    #[test]
    fn default_scheduler_sends_parent_before_push_child() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = DefaultScheduler::new();
        let mut ss = DefaultScheduler::new();
        c.request(&get_headers("/"), None);
        pump(&mut c, &mut s, &mut cs, &mut ss);

        s.push_promise(1, &get_headers("/a.css")).unwrap();
        s.respond(2, &resp_headers(), false);
        s.queue_body(2, 30_000, true);
        s.respond(1, &resp_headers(), false);
        s.queue_body(1, 30_000, true);

        let (cev, _) = pump(&mut c, &mut s, &mut cs, &mut ss);
        // All HTML (stream 1) DATA must arrive before any push (stream 2)
        // DATA: h2o's default "push waits for parent".
        let order: Vec<u32> = cev
            .iter()
            .filter_map(|e| match e {
                Event::Data { stream, .. } => Some(*stream),
                _ => None,
            })
            .collect();
        let first_push = order.iter().position(|&s| s == 2).unwrap();
        let last_html = order.iter().rposition(|&s| s == 1).unwrap();
        assert!(last_html < first_push, "push interleaved under default scheduler: {order:?}");
    }

    #[test]
    fn client_cancel_push_stops_transfer() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = DefaultScheduler::new();
        let mut ss = DefaultScheduler::new();
        c.request(&get_headers("/"), None);
        pump(&mut c, &mut s, &mut cs, &mut ss);

        s.push_promise(1, &get_headers("/big.js")).unwrap();
        s.respond(2, &resp_headers(), false);
        s.queue_body(2, 1_000_000, true);
        // Client cancels before pulling data.
        let a = s.produce(2000, &mut ss); // PUSH_PROMISE + HEADERS + some DATA
        c.receive(&a);
        while c.poll_event().is_some() {}
        c.reset(2, ErrorCode::Cancel);
        let b = c.produce(usize::MAX, &mut cs);
        s.receive(&b);
        while let Some(e) = s.poll_event() {
            if let Event::Reset { stream, code } = e {
                assert_eq!((stream, code), (2, ErrorCode::Cancel));
            }
        }
        // Server dropped the queued body.
        assert_eq!(s.bytes_queued(2), 0);
        assert_eq!(s.stream_state(2), Some(StreamState::Closed));
    }

    #[test]
    fn flow_control_limits_unacked_data() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = DefaultScheduler::new();
        let mut ss = DefaultScheduler::new();
        c.request(&get_headers("/"), None);
        // Deliver request to server but DON'T deliver any client bytes back
        // afterwards: server can send at most the initial window.
        let a = c.produce(usize::MAX, &mut cs);
        s.receive(&a);
        while s.poll_event().is_some() {}
        s.respond(1, &resp_headers(), false);
        s.queue_body(1, 1_000_000, true);
        let mut sent = 0usize;
        loop {
            let bytes = s.produce(usize::MAX, &mut ss);
            if bytes.is_empty() {
                break;
            }
            sent += bytes.len();
        }
        // The stream window (65535) caps the body; headers/settings add a
        // little. It must be nowhere near 1 MB.
        assert!(sent < 80_000, "sent {sent} bytes without window updates");
        assert!(s.bytes_sent(1) as usize <= 65_535);
    }

    #[test]
    fn window_updates_resume_sending() {
        let mut c = Connection::client(Settings {
            initial_window_size: Some(6 * 1024 * 1024),
            ..Default::default()
        });
        let mut s = Connection::server(Settings::default());
        let mut cs = DefaultScheduler::new();
        let mut ss = DefaultScheduler::new();
        c.request(&get_headers("/"), None);
        pump(&mut c, &mut s, &mut cs, &mut ss);
        s.respond(1, &resp_headers(), false);
        s.queue_body(1, 1_000_000, true);
        let (cev, _) = pump(&mut c, &mut s, &mut cs, &mut ss);
        let total: usize = cev
            .iter()
            .filter_map(|e| match e {
                Event::Data { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert_eq!(total, 1_000_000, "full megabyte arrives with a 6 MB window");
    }

    #[test]
    fn priority_frame_updates_server_tree() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = FifoScheduler;
        let mut ss = FifoScheduler;
        let a = c.request(
            &get_headers("/a"),
            Some(PrioritySpec { depends_on: 0, weight: 256, exclusive: false }),
        );
        let b = c.request(
            &get_headers("/b"),
            Some(PrioritySpec { depends_on: a, weight: 100, exclusive: false }),
        );
        pump(&mut c, &mut s, &mut cs, &mut ss);
        assert_eq!(s.tree().parent(b), Some(a));
        c.send_priority(b, PrioritySpec { depends_on: 0, weight: 50, exclusive: false });
        pump(&mut c, &mut s, &mut cs, &mut ss);
        assert_eq!(s.tree().parent(b), Some(0));
        assert_eq!(s.tree().weight(b), Some(50));
    }

    #[test]
    fn produce_respects_max_budget() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = DefaultScheduler::new();
        let mut ss = DefaultScheduler::new();
        c.request(&get_headers("/"), None);
        pump(&mut c, &mut s, &mut cs, &mut ss);
        s.respond(1, &resp_headers(), false);
        s.queue_body(1, 50_000, true);
        let chunk = s.produce(1500, &mut ss);
        // One DATA frame roughly sized to the budget (never a huge burst).
        assert!(chunk.len() <= 1500 + 9, "chunk was {}", chunk.len());
        assert!(!chunk.is_empty());
    }

    #[test]
    fn bad_preface_kills_connection() {
        let mut s = Connection::server(Settings::default());
        s.receive(b"GET / HTTP/1.1\r\nHost: example.org\r\n\r\n");
        assert!(matches!(s.poll_event(), Some(Event::ConnectionError { .. })));
    }

    #[test]
    fn ping_is_acked() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = FifoScheduler;
        let mut ss = FifoScheduler;
        pump(&mut c, &mut s, &mut cs, &mut ss);
        // Hand-craft a PING from client.
        let mut buf = Vec::new();
        Frame::Ping { ack: false, payload: [7; 8] }.encode(&mut buf);
        s.receive(&buf);
        let reply = s.produce(usize::MAX, &mut ss);
        let (f, _) = Frame::decode(&reply, DEFAULT_MAX_FRAME_SIZE).unwrap();
        assert_eq!(f, Frame::Ping { ack: true, payload: [7; 8] });
    }

    #[test]
    fn large_header_block_uses_continuation() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let mut cs = FifoScheduler;
        let mut ss = FifoScheduler;
        let mut headers = get_headers("/");
        // ~40 KB of cookie forces CONTINUATION frames.
        headers.push(h("cookie", &"x".repeat(40_000)));
        c.request(&headers, None);
        let (_, sev) = pump(&mut c, &mut s, &mut cs, &mut ss);
        let got = sev.iter().find_map(|e| match e {
            Event::Headers { headers, .. } => Some(headers.clone()),
            _ => None,
        });
        assert_eq!(got.expect("headers arrived").iter().last().unwrap().1.len(), 40_000);
    }

    #[test]
    fn a_header_list_a_consumer_keeps_is_never_decoded_over() {
        // The connection decodes into the lists it handed out once they
        // are dropped; one that is still held must stay what it was.
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        let (mut cs, mut ss) = (FifoScheduler, FifoScheduler);
        let path_of = |events: &[Event]| {
            events.iter().find_map(|e| match e {
                Event::Headers { headers, .. } => Some(Arc::clone(headers)),
                _ => None,
            })
        };
        c.request(&get_headers("/kept"), None);
        let kept = path_of(&pump(&mut c, &mut s, &mut cs, &mut ss).1).expect("first request");
        c.request(&get_headers("/dropped"), None);
        let dropped = path_of(&pump(&mut c, &mut s, &mut cs, &mut ss).1).expect("second request");
        assert!(!Arc::ptr_eq(&kept, &dropped));
        let reused = Arc::as_ptr(&dropped);
        drop(dropped);
        c.request(&get_headers("/third"), None);
        let third = path_of(&pump(&mut c, &mut s, &mut cs, &mut ss).1).expect("third request");
        assert_eq!(Arc::as_ptr(&third), reused, "a dropped list is decoded into again");
        assert_eq!(kept.get(b":path"), Some(&b"/kept"[..]));
        assert_eq!(third.get(b":path"), Some(&b"/third"[..]));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::frame::Frame;
    use crate::scheduler::FifoScheduler;
    use h2push_hpack::Header;

    fn h(n: &str, v: &str) -> Header {
        Header::new(n, v)
    }

    fn request_headers() -> Vec<Header> {
        vec![
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":authority", "edge.test"),
            h(":path", "/"),
        ]
    }

    fn exchange(c: &mut Connection, s: &mut Connection) {
        let mut cs = FifoScheduler;
        let mut ss = FifoScheduler;
        for _ in 0..50 {
            let a = c.produce(usize::MAX, &mut cs);
            let b = s.produce(usize::MAX, &mut ss);
            if a.is_empty() && b.is_empty() {
                break;
            }
            s.receive(&a);
            c.receive(&b);
        }
    }

    #[test]
    fn settings_max_frame_size_caps_data_frames() {
        let mut c = Connection::client(Settings {
            max_frame_size: Some(16_384),
            initial_window_size: Some(1 << 20),
            ..Default::default()
        });
        let mut s = Connection::server(Settings::default());
        c.request(&request_headers(), None);
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        s.respond(1, &[h(":status", "200")], false);
        s.queue_body(1, 100_000, true);
        let mut sched = crate::scheduler::DefaultScheduler::new();
        let wire = s.produce(usize::MAX, &mut sched);
        // Walk the produced frames: no DATA frame exceeds 16 KiB.
        let mut pos = 0;
        while pos < wire.len() {
            let (frame, used) = Frame::decode(&wire[pos..], 1 << 24).unwrap();
            if let Frame::Data { len, .. } = frame {
                assert!(len <= 16_384, "oversized DATA frame: {len}");
            }
            pos += used;
        }
    }

    #[test]
    fn goaway_is_surfaced_and_remembered() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        exchange(&mut c, &mut s);
        while c.poll_event().is_some() {}
        let mut buf = Vec::new();
        Frame::GoAway { last_stream: 1, code: ErrorCode::NoError }.encode(&mut buf);
        c.receive(&buf);
        assert!(matches!(
            c.poll_event(),
            Some(Event::GoAway { last_stream: 1, code: ErrorCode::NoError })
        ));
        assert!(c.goaway_received());
    }

    #[test]
    fn header_table_size_setting_shrinks_encoder() {
        // Client announces a small HPACK table; the server's encoder must
        // honor it (responses still decode on the client).
        let mut c =
            Connection::client(Settings { header_table_size: Some(64), ..Default::default() });
        let mut s = Connection::server(Settings::default());
        let id = c.request(&request_headers(), None);
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        s.respond(id, &[h(":status", "200"), h("x-large-header", &"v".repeat(200))], true);
        exchange(&mut c, &mut s);
        let mut saw = false;
        while let Some(ev) = c.poll_event() {
            if let Event::Headers { headers, .. } = ev {
                assert_eq!(headers.field(0), (&b":status"[..], &b"200"[..]));
                saw = true;
            }
        }
        assert!(saw, "response decoded despite tiny dynamic table");
    }

    #[test]
    fn data_on_unknown_stream_is_connection_error() {
        let mut s = Connection::server(Settings::default());
        let mut c = Connection::client(Settings::default());
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        let mut buf = Vec::new();
        Frame::Data { stream: 99, len: 10, end_stream: false }.encode(&mut buf);
        s.receive(&buf);
        let mut got_error = false;
        while let Some(ev) = s.poll_event() {
            if matches!(ev, Event::ConnectionError { .. }) {
                got_error = true;
            }
        }
        assert!(got_error);
    }

    #[test]
    fn window_update_overflow_is_a_typed_flow_control_error() {
        // Maximal WINDOW_UPDATEs must not panic via overflow: the first
        // increment that would push the window past 2^31-1 is answered
        // with GOAWAY(FLOW_CONTROL_ERROR), §6.9.1.
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        exchange(&mut c, &mut s);
        let mut buf = Vec::new();
        for _ in 0..64 {
            Frame::WindowUpdate { stream: 0, increment: 0x7fff_ffff }.encode(&mut buf);
        }
        s.receive(&buf);
        let mut found = None;
        while let Some(ev) = s.poll_event() {
            if let Event::ConnectionError { error } = ev {
                found = Some(error);
            }
        }
        assert_eq!(found, Some(crate::error::ConnError::FlowControlOverflow));
        assert!(s.is_dead());
    }

    /// A hostile scheduler that always picks a stream id nobody opened.
    struct RogueScheduler;

    impl crate::scheduler::Scheduler for RogueScheduler {
        fn pick(
            &mut self,
            _streams: &[crate::scheduler::StreamSnapshot],
            _tree: &crate::priority::PriorityTree,
        ) -> Option<u32> {
            Some(4242)
        }
    }

    #[test]
    fn rogue_scheduler_pick_is_a_stream_error_not_a_panic() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        c.request(&request_headers(), None);
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        s.respond(1, &[h(":status", "200")], false);
        s.queue_body(1, 5_000, true);
        let wire = s.produce(usize::MAX, &mut RogueScheduler);
        // The control frames (response HEADERS) still go out; the bogus
        // DATA pick is surfaced as a recoverable per-stream error.
        assert!(!wire.is_empty());
        let mut saw = false;
        while let Some(ev) = s.poll_event() {
            if let Event::StreamError { stream, error } = ev {
                assert_eq!(stream, 4242);
                assert_eq!(error, crate::error::StreamError::UnknownScheduled);
                saw = true;
            }
        }
        assert!(saw, "unknown pick must surface a StreamError");
        // The connection is alive: a sane scheduler drains the body.
        let mut sched = crate::scheduler::DefaultScheduler::new();
        let rest = s.produce(usize::MAX, &mut sched);
        assert!(!rest.is_empty(), "connection must survive the rogue pick");
    }

    #[test]
    fn push_refused_after_goaway() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        c.request(&request_headers(), None);
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        assert!(s.push_promise(1, &request_headers()).is_some());
        let mut buf = Vec::new();
        Frame::GoAway { last_stream: 1, code: ErrorCode::NoError }.encode(&mut buf);
        s.receive(&buf);
        assert!(s.push_promise(1, &request_headers()).is_none(), "no pushes after GOAWAY");
    }

    #[test]
    fn connection_error_carries_typed_cause_and_matching_goaway() {
        let mut s = Connection::server(Settings::default());
        s.receive(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        let mut found = None;
        while let Some(ev) = s.poll_event() {
            if let Event::ConnectionError { error } = ev {
                found = Some(error);
            }
        }
        assert_eq!(found, Some(crate::error::ConnError::BadPreface));
        // The queued GOAWAY carries the error's code.
        let wire = s.produce(usize::MAX, &mut FifoScheduler);
        let mut pos = 0;
        let mut goaway = None;
        while pos < wire.len() {
            let (frame, used) = Frame::decode(&wire[pos..], 1 << 24).unwrap();
            if let Frame::GoAway { code, .. } = frame {
                goaway = Some(code);
            }
            pos += used;
        }
        assert_eq!(goaway, Some(ErrorCode::ProtocolError));
    }

    #[test]
    fn rapid_reset_flood_trips_typed_error() {
        let mut s = Connection::server(Settings::default());
        s.set_limits(crate::ConnLimits::strict());
        let mut c = Connection::client(Settings::default());
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        let mut buf = Vec::new();
        for i in 0..40u32 {
            Frame::RstStream { stream: 2 * i + 1, code: ErrorCode::Cancel }.encode(&mut buf);
        }
        s.receive(&buf);
        let mut found = None;
        while let Some(ev) = s.poll_event() {
            if let Event::ConnectionError { error } = ev {
                found = Some(error);
            }
        }
        assert_eq!(found, Some(crate::error::ConnError::ResetFlood));
        // The GOAWAY carries ENHANCE_YOUR_CALM.
        let wire = s.produce(usize::MAX, &mut FifoScheduler);
        let mut pos = 0;
        let mut goaway = None;
        while pos < wire.len() {
            let (frame, used) = Frame::decode(&wire[pos..], 1 << 24).unwrap();
            if let Frame::GoAway { code, .. } = frame {
                goaway = Some(code);
            }
            pos += used;
        }
        assert_eq!(goaway, Some(ErrorCode::EnhanceYourCalm));
    }

    #[test]
    fn ping_and_settings_floods_trip_typed_errors() {
        for (mk, want) in [
            (
                (|buf: &mut Vec<u8>| Frame::Ping { ack: false, payload: [0; 8] }.encode(buf))
                    as fn(&mut Vec<u8>),
                crate::error::ConnError::PingFlood,
            ),
            (
                (|buf: &mut Vec<u8>| {
                    Frame::Settings { ack: false, settings: Settings::default() }.encode(buf)
                }) as fn(&mut Vec<u8>),
                crate::error::ConnError::SettingsFlood,
            ),
        ] {
            let mut s = Connection::server(Settings::default());
            s.set_limits(crate::ConnLimits::strict());
            let mut c = Connection::client(Settings::default());
            exchange(&mut c, &mut s);
            while s.poll_event().is_some() {}
            let mut buf = Vec::new();
            for _ in 0..20 {
                mk(&mut buf);
            }
            s.receive(&buf);
            let mut found = None;
            while let Some(ev) = s.poll_event() {
                if let Event::ConnectionError { error } = ev {
                    found = Some(error);
                }
            }
            assert_eq!(found, Some(want));
        }
    }

    #[test]
    fn concurrency_limit_refuses_excess_streams_but_keeps_connection() {
        let mut s = Connection::server(Settings::default());
        s.set_limits(crate::ConnLimits::strict()); // 8 concurrent streams
        let mut c = Connection::client(Settings::default());
        for i in 0..12 {
            c.request(&request_headers(), None);
            let _ = i;
        }
        exchange(&mut c, &mut s);
        let mut refused = Vec::new();
        let mut fatal = false;
        while let Some(ev) = s.poll_event() {
            match ev {
                Event::StreamError { stream, error: crate::error::StreamError::RefusedByLimit } => {
                    refused.push(stream)
                }
                Event::ConnectionError { .. } => fatal = true,
                _ => {}
            }
        }
        assert_eq!(refused.len(), 4, "streams 9..12 refused: {refused:?}");
        assert!(!fatal, "refusals alone must not kill the connection");
        // The client saw RST(REFUSED_STREAM) for each refused stream.
        let mut resets = 0;
        while let Some(ev) = c.poll_event() {
            if let Event::Reset { code: ErrorCode::RefusedStream, .. } = ev {
                resets += 1;
            }
        }
        assert_eq!(resets, 4);
        // Accepted streams still serve.
        s.respond(1, &[h(":status", "200")], true);
        exchange(&mut c, &mut s);
        let mut ok = false;
        while let Some(ev) = c.poll_event() {
            if matches!(ev, Event::Headers { stream: 1, .. }) {
                ok = true;
            }
        }
        assert!(ok, "stream 1 answered despite refusals");
    }

    #[test]
    fn header_bomb_is_a_header_list_error() {
        let mut s = Connection::server(Settings::default());
        s.set_limits(crate::ConnLimits::strict()); // 16 KiB header list
        let mut c = Connection::client(Settings::default());
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        let mut headers = request_headers();
        headers.push(h("cookie", &"x".repeat(64 * 1024)));
        c.request(&headers, None);
        let wire = c.produce(usize::MAX, &mut FifoScheduler);
        s.receive(&wire);
        let mut found = None;
        while let Some(ev) = s.poll_event() {
            if let Event::ConnectionError { error } = ev {
                found = Some(error);
            }
        }
        assert_eq!(found, Some(crate::error::ConnError::HeaderListTooLarge));
    }

    #[test]
    fn stream_window_overflow_resets_only_that_stream() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        c.request(&request_headers(), None);
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        let mut buf = Vec::new();
        Frame::WindowUpdate { stream: 1, increment: 0x7fff_ffff }.encode(&mut buf);
        s.receive(&buf);
        let mut stream_err = None;
        let mut fatal = false;
        while let Some(ev) = s.poll_event() {
            match ev {
                Event::StreamError { stream, error } => stream_err = Some((stream, error)),
                Event::ConnectionError { .. } => fatal = true,
                _ => {}
            }
        }
        assert_eq!(stream_err, Some((1, crate::error::StreamError::WindowOverflow)));
        assert!(!fatal);
        assert_eq!(s.stream_state(1), Some(StreamState::Closed));
        // The RST carries FLOW_CONTROL_ERROR.
        let wire = s.produce(usize::MAX, &mut FifoScheduler);
        let mut pos = 0;
        let mut rst = None;
        while pos < wire.len() {
            let (frame, used) = Frame::decode(&wire[pos..], 1 << 24).unwrap();
            if let Frame::RstStream { stream, code } = frame {
                rst = Some((stream, code));
            }
            pos += used;
        }
        assert_eq!(rst, Some((1, ErrorCode::FlowControlError)));
    }

    #[test]
    fn non_increasing_promised_id_is_rejected() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        c.request(&request_headers(), None);
        exchange(&mut c, &mut s);
        while c.poll_event().is_some() {}
        // Hand-craft two promises with the same id.
        let mut enc = h2push_hpack::Encoder::new();
        let block: Bytes = enc.encode(&request_headers()).into();
        let mut buf = Vec::new();
        Frame::PushPromise { stream: 1, promised: 2, block: block.clone(), end_headers: true }
            .encode(&mut buf);
        Frame::PushPromise { stream: 1, promised: 2, block, end_headers: true }.encode(&mut buf);
        c.receive(&buf);
        let mut found = None;
        while let Some(ev) = c.poll_event() {
            if let Event::ConnectionError { error } = ev {
                found = Some(error);
            }
        }
        assert_eq!(found, Some(crate::error::ConnError::PromisedStreamIdNotIncreasing));
    }

    #[test]
    fn headers_on_unknown_stream_is_error_on_client() {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        exchange(&mut c, &mut s);
        while c.poll_event().is_some() {}
        // Server-sent HEADERS on a stream the client never opened.
        let mut enc = h2push_hpack::Encoder::new();
        let block: Bytes = enc.encode(&[h(":status", "200")]).into();
        let mut buf = Vec::new();
        Frame::Headers { stream: 7, block, end_stream: true, end_headers: true, priority: None }
            .encode(&mut buf);
        c.receive(&buf);
        let mut found = None;
        while let Some(ev) = c.poll_event() {
            if let Event::ConnectionError { error } = ev {
                found = Some(error);
            }
        }
        assert_eq!(found, Some(crate::error::ConnError::HeadersOnUnknownStream));
    }

    #[test]
    fn ping_flood_cannot_balloon_the_control_queue() {
        // Even below the PING flood budget, the outbound queue of acks is
        // bounded by max_control_frames.
        let mut s = Connection::server(Settings::default());
        let mut limits = crate::ConnLimits::strict();
        limits.max_pings = u32::MAX; // isolate the queue bound
        s.set_limits(limits);
        let mut c = Connection::client(Settings::default());
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        let mut buf = Vec::new();
        for _ in 0..10_000 {
            Frame::Ping { ack: false, payload: [1; 8] }.encode(&mut buf);
        }
        s.receive(&buf);
        let mut found = None;
        while let Some(ev) = s.poll_event() {
            if let Event::ConnectionError { error } = ev {
                found = Some(error);
            }
        }
        assert_eq!(found, Some(crate::error::ConnError::ControlQueueOverflow));
        // The queue stopped growing at the bound (plus the final GOAWAY).
        let wire = s.produce(usize::MAX, &mut FifoScheduler);
        assert!(wire.len() < 300 * 17, "queue kept ballooning: {} bytes", wire.len());
    }

    #[test]
    fn interleaved_header_blocks_are_rejected() {
        // HEADERS without END_HEADERS must be followed by CONTINUATION on
        // the same stream; anything else is a connection error.
        let mut s = Connection::server(Settings::default());
        let mut c = Connection::client(Settings::default());
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        let mut buf = Vec::new();
        Frame::Headers {
            stream: 1,
            block: vec![0x82].into(),
            end_stream: false,
            end_headers: false,
            priority: None,
        }
        .encode(&mut buf);
        Frame::Ping { ack: false, payload: [0; 8] }.encode(&mut buf);
        s.receive(&buf);
        let mut got_error = false;
        while let Some(ev) = s.poll_event() {
            if matches!(ev, Event::ConnectionError { .. }) {
                got_error = true;
            }
        }
        assert!(got_error);
    }
}

/// The ready set and the active-stream count are caches of per-stream
/// state; these tests check them against full slab scans. The same
/// lockstep pair is the differential for the send path: one twin writes
/// into a sink that keeps the two kinds of call apart, the other goes
/// through the materialising [`Connection::produce`].
#[cfg(test)]
mod ready_set_tests {
    use super::*;
    use crate::frame::Frame;
    use crate::scheduler::DefaultScheduler;
    use h2push_hpack::Header;
    use proptest::prelude::*;

    fn h(n: &str, v: &str) -> Header {
        Header::new(n, v)
    }

    fn request_headers() -> Vec<Header> {
        vec![
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":authority", "rs.test"),
            h(":path", "/"),
        ]
    }

    impl Connection {
        fn active_scan(&self) -> usize {
            self.streams.values().filter(|s| s.state != StreamState::Closed).count()
        }
    }

    /// Decode every frame in `wire`.
    fn frames(wire: &[u8]) -> Vec<Frame> {
        let (mut pos, mut out) = (0, Vec::new());
        while pos < wire.len() {
            let (frame, used) = Frame::decode(&wire[pos..], 1 << 24).unwrap();
            out.push(frame);
            pos += used;
        }
        out
    }

    /// A server with stream 1 open (request complete) and its preface and
    /// SETTINGS ack already drained.
    fn server_with_request() -> Connection {
        let mut c = Connection::client(Settings::default());
        let mut s = Connection::server(Settings::default());
        c.request(&request_headers(), None);
        let mut sched = DefaultScheduler::new();
        s.receive(&c.produce(usize::MAX, &mut sched));
        while s.poll_event().is_some() {}
        s.produce(usize::MAX, &mut sched);
        s
    }

    #[test]
    fn empty_body_response_ends_with_an_empty_data_frame() {
        let mut s = server_with_request();
        s.respond(1, &[h(":status", "200")], false);
        s.queue_body(1, 0, true);
        let wire = s.produce(usize::MAX, &mut DefaultScheduler::new());
        let got = frames(&wire);
        assert!(matches!(got[0], Frame::Headers { stream: 1, end_stream: false, .. }));
        assert_eq!(got[1], Frame::Data { stream: 1, len: 0, end_stream: true });
        assert_eq!(got.len(), 2);
        assert_eq!(s.stream_state(1), Some(StreamState::Closed));
        assert!(!s.wants_send(), "nothing is left to send once the stream ended");
        assert!(!s.tree().contains(1));
    }

    #[test]
    fn fin_after_the_body_drained_and_fin_before_the_headers_both_end_the_stream() {
        // Body first, end marker later: by then nothing is queued to
        // carry END_STREAM.
        let mut s = server_with_request();
        let mut sched = DefaultScheduler::new();
        s.respond(1, &[h(":status", "200")], false);
        s.queue_body(1, 100, false);
        s.produce(usize::MAX, &mut sched);
        assert_eq!(s.bytes_sent(1), 100);
        s.queue_body(1, 0, true);
        let got = frames(&s.produce(usize::MAX, &mut sched));
        assert_eq!(got, vec![Frame::Data { stream: 1, len: 0, end_stream: true }]);
        assert_eq!(s.stream_state(1), Some(StreamState::Closed));

        // End marker queued before the headers went out.
        let mut s = server_with_request();
        s.queue_body(1, 0, true);
        assert!(!s.wants_send());
        s.respond(1, &[h(":status", "200")], false);
        let got = frames(&s.produce(usize::MAX, &mut sched));
        assert_eq!(got.last(), Some(&Frame::Data { stream: 1, len: 0, end_stream: true }));
        assert!(!s.wants_send());

        // A body that is still queued carries END_STREAM itself.
        let mut s = server_with_request();
        s.respond(1, &[h(":status", "200")], false);
        s.queue_body(1, 100, false);
        s.queue_body(1, 0, true);
        let got = frames(&s.produce(usize::MAX, &mut sched));
        assert_eq!(got.last(), Some(&Frame::Data { stream: 1, len: 100, end_stream: true }));
    }

    /// A sink that remembers, per octet, which call wrote it.
    #[derive(Default)]
    struct Recording {
        /// The wire bytes, zero runs expanded.
        bytes: Vec<u8>,
        /// Whether `put_zeros` wrote the octet.
        zeros: Vec<bool>,
    }

    impl WireSink for Recording {
        fn put_slice(&mut self, bytes: &[u8]) {
            self.bytes.extend_from_slice(bytes);
            self.zeros.resize(self.bytes.len(), false);
        }
        fn put_zeros(&mut self, n: usize) {
            self.bytes.resize(self.bytes.len() + n, 0);
            self.zeros.resize(self.bytes.len(), true);
        }
    }

    impl Recording {
        /// One `produce_into(max, ..)` call's output is whole frames,
        /// `put_zeros` wrote exactly the DATA payloads, and the budget
        /// held: at most a DATA header over `max`, or one control frame.
        fn check(&self, max: usize) {
            let (mut pos, mut frames) = (0, 0);
            while pos < self.bytes.len() {
                let head = FrameHead::parse(&self.bytes[pos..]).expect("a whole frame header");
                let (body, end) = (pos + FRAME_HEADER_LEN, pos + FRAME_HEADER_LEN + head.len);
                assert!(end <= self.bytes.len(), "a frame was split across produce calls");
                for i in pos..end {
                    let payload = head.is_data() && i >= body;
                    assert_eq!(self.zeros[i], payload, "octet {i} of a {head:?} frame at {pos}");
                }
                pos = end;
                frames += 1;
            }
            assert!(
                self.bytes.len() <= max.saturating_add(FRAME_HEADER_LEN) || frames == 1,
                "{} bytes in {frames} frames against a budget of {max}",
                self.bytes.len()
            );
        }
    }

    /// One step of the lockstep script. Stream operands are indices into
    /// the list of streams opened so far (modulo its length).
    #[derive(Debug, Clone)]
    enum Op {
        /// Client HEADERS opening the next odd stream.
        Open {
            end_stream: bool,
            chain: bool,
        },
        PushPromise {
            parent: usize,
        },
        Respond {
            stream: usize,
            end_stream: bool,
        },
        QueueBody {
            stream: usize,
            len: usize,
            fin: bool,
        },
        /// Client WINDOW_UPDATE; `stream: None` is the connection window.
        WindowUpdate {
            stream: Option<usize>,
            increment: u32,
        },
        /// Client SETTINGS_INITIAL_WINDOW_SIZE (shrinking it drives stream
        /// windows negative).
        InitialWindow(u32),
        RstFromPeer {
            stream: usize,
        },
        ResetLocal {
            stream: usize,
        },
        /// Client DATA|END_STREAM (closes a half-closed stream under us).
        PeerEndsStream {
            stream: usize,
        },
        /// Client PUSH_PROMISE reusing the id of one of the server's own
        /// push streams: hostile, and it displaces that stream.
        HostilePromise {
            stream: usize,
        },
        Produce {
            max: usize,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let stream = 0usize..64;
        let len = || prop_oneof![Just(0usize), 1usize..200, 10_000usize..200_000];
        let increment = prop_oneof![1u32..2_000, 60_000u32..70_000, Just(0x7fff_ffffu32)];
        let window = prop_oneof![Just(0u32), 1u32..200, 16_000u32..70_000, Just(0x7fff_ffffu32)];
        let max = || prop_oneof![1usize..64, 1_000usize..40_000, Just(usize::MAX)];
        // Respond, QueueBody and Produce appear twice: they are the ops
        // that move bytes, the rest perturb them.
        prop_oneof![
            (any::<bool>(), any::<bool>())
                .prop_map(|(end_stream, chain)| Op::Open { end_stream, chain }),
            stream.clone().prop_map(|parent| Op::PushPromise { parent }),
            (stream.clone(), any::<bool>())
                .prop_map(|(stream, end_stream)| Op::Respond { stream, end_stream }),
            (stream.clone(), any::<bool>())
                .prop_map(|(stream, end_stream)| Op::Respond { stream, end_stream }),
            (stream.clone(), len(), any::<bool>()).prop_map(|(stream, len, fin)| Op::QueueBody {
                stream,
                len,
                fin
            }),
            (stream.clone(), len(), any::<bool>()).prop_map(|(stream, len, fin)| Op::QueueBody {
                stream,
                len,
                fin
            }),
            (stream.clone(), increment)
                .prop_map(|(s, increment)| Op::WindowUpdate { stream: Some(s), increment }),
            (1u32..2_000).prop_map(|increment| Op::WindowUpdate { stream: None, increment }),
            window.prop_map(Op::InitialWindow),
            stream.clone().prop_map(|stream| Op::RstFromPeer { stream }),
            stream.clone().prop_map(|stream| Op::ResetLocal { stream }),
            stream.clone().prop_map(|stream| Op::PeerEndsStream { stream }),
            stream.prop_map(|stream| Op::HostilePromise { stream }),
            max().prop_map(|max| Op::Produce { max }),
            max().prop_map(|max| Op::Produce { max }),
        ]
    }

    /// The connection under test and the full-scan reference, fed the
    /// same script.
    struct Lockstep {
        tested: Connection,
        reference: Connection,
        /// The peer's HPACK encoder (one byte stream feeds both servers).
        peer_hpack: HpackEncoder,
        streams: Vec<u32>,
        next_client_id: u32,
        /// Highest id a hostile promise used (reusing one is fatal, which
        /// would end the script's useful part early).
        last_hostile: u32,
    }

    impl Lockstep {
        fn new() -> Self {
            let server = || {
                let mut s = Connection::server(Settings::default());
                s.set_limits(ConnLimits::permissive());
                s.receive(PREFACE);
                s
            };
            let mut reference = server();
            reference.scan_reference = true;
            Lockstep {
                tested: server(),
                reference,
                peer_hpack: HpackEncoder::new(),
                streams: Vec::new(),
                next_client_id: 1,
                last_hostile: 0,
            }
        }

        fn pick(&self, index: usize) -> Option<u32> {
            (!self.streams.is_empty()).then(|| self.streams[index % self.streams.len()])
        }

        fn both(&mut self, f: impl Fn(&mut Connection)) {
            f(&mut self.tested);
            f(&mut self.reference);
        }

        fn feed(&mut self, frame: Frame) {
            let mut wire = Vec::new();
            frame.encode(&mut wire);
            self.both(|c| c.receive(&wire));
        }

        fn apply(&mut self, op: &Op) {
            match *op {
                Op::Open { end_stream, chain } => {
                    let stream = self.next_client_id;
                    self.next_client_id += 2;
                    let priority = chain.then(|| PrioritySpec {
                        depends_on: stream.saturating_sub(2),
                        weight: 100 + (stream % 5) as u16 * 30,
                        exclusive: stream.is_multiple_of(3),
                    });
                    let block: Bytes = self.peer_hpack.encode(&request_headers()).into();
                    self.feed(Frame::Headers {
                        stream,
                        block,
                        end_stream,
                        end_headers: true,
                        priority,
                    });
                    self.streams.push(stream);
                }
                Op::PushPromise { parent } => {
                    let Some(parent) = self.pick(parent) else { return };
                    let a = self.tested.push_promise(parent, &request_headers());
                    let b = self.reference.push_promise(parent, &request_headers());
                    assert_eq!(a, b);
                    self.streams.extend(a);
                }
                Op::Respond { stream, end_stream } => {
                    let Some(id) = self.pick(stream) else { return };
                    self.both(|c| c.respond(id, &[h(":status", "200")], end_stream));
                }
                Op::QueueBody { stream, len, fin } => {
                    let Some(id) = self.pick(stream) else { return };
                    self.both(|c| c.queue_body(id, len, fin));
                }
                Op::WindowUpdate { stream, increment } => {
                    let stream = match stream {
                        Some(index) => match self.pick(index) {
                            Some(id) => id,
                            None => return,
                        },
                        None => 0,
                    };
                    self.feed(Frame::WindowUpdate { stream, increment });
                }
                Op::InitialWindow(window) => self.feed(Frame::Settings {
                    ack: false,
                    settings: Settings { initial_window_size: Some(window), ..Default::default() },
                }),
                Op::RstFromPeer { stream } => {
                    let Some(stream) = self.pick(stream) else { return };
                    self.feed(Frame::RstStream { stream, code: ErrorCode::Cancel });
                }
                Op::ResetLocal { stream } => {
                    let Some(id) = self.pick(stream) else { return };
                    self.both(|c| c.reset(id, ErrorCode::Cancel));
                }
                Op::PeerEndsStream { stream } => {
                    let Some(stream) = self.pick(stream) else { return };
                    self.feed(Frame::Data { stream, len: 0, end_stream: true });
                }
                Op::HostilePromise { stream } => {
                    let Some(promised) = self.pick(stream) else { return };
                    if promised % 2 == 1 || promised <= self.last_hostile {
                        return;
                    }
                    self.last_hostile = promised;
                    let stream = self.streams[0];
                    let block: Bytes = self.peer_hpack.encode(&request_headers()).into();
                    self.feed(Frame::PushPromise { stream, promised, block, end_headers: true });
                }
                Op::Produce { max } => {
                    let mut sched = DefaultScheduler::new();
                    let mut sink = Recording::default();
                    let n = self.tested.produce_into(max, &mut sched, &mut sink);
                    let b = self.reference.produce(max, &mut sched);
                    assert_eq!(
                        b, sink.bytes,
                        "the sink path diverged from the full-scan produce()"
                    );
                    assert_eq!(n, b.len(), "produce_into miscounted what it wrote");
                    sink.check(max);
                }
            }
        }

        fn check(&mut self) {
            let t = &self.tested;
            assert_eq!(t.ready, t.ready_scan());
            assert_eq!(t.active_streams, t.active_scan());
            assert_eq!(t.wants_send(), t.wants_send_scan());
            assert_eq!(t.wants_send(), self.reference.wants_send());
            loop {
                let (a, b) = (self.tested.poll_event(), self.reference.poll_event());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn ready_set_tracks_the_full_scan_in_lockstep(
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            let mut pair = Lockstep::new();
            for op in &ops {
                pair.apply(op);
                pair.check();
            }
            // Whatever state the script left behind drains identically.
            pair.apply(&Op::InitialWindow(0x7fff_ffff));
            for _ in 0..4 {
                pair.apply(&Op::WindowUpdate { stream: None, increment: 0x0fff_ffff });
                pair.apply(&Op::Produce { max: usize::MAX });
                pair.check();
            }
        }
    }
}

/// `receive` counts DATA payload off instead of buffering it; these tests
/// run it in lockstep with the buffer-everything decoder it replaced.
#[cfg(test)]
mod counted_receive_tests {
    use super::*;
    use crate::frame::Frame;
    use crate::scheduler::FifoScheduler;
    use h2push_hpack::Header;
    use proptest::prelude::*;

    /// Something done to the connection itself, between two wire bytes.
    #[derive(Debug, Clone, Copy)]
    enum Local {
        /// Cancel the `n`th request stream.
        Reset(usize),
        /// Kill the connection (a limit tripping on the send side).
        Fatal,
        /// Drain the output queue and compare it.
        Produce,
    }

    /// A peer's byte stream, and what the application does at which offset
    /// of it (ascending).
    #[derive(Debug, Default)]
    struct Script {
        wire: Vec<u8>,
        locals: Vec<(usize, Local)>,
    }

    impl Script {
        fn frame(&mut self, frame: Frame) {
            frame.encode(&mut self.wire);
        }

        /// A frame from its parts: what `Frame::encode` cannot express
        /// (PADDED, stream 0, unknown types, oversize lengths, a payload
        /// that is not zeros or not all there).
        fn raw(&mut self, len: usize, ty: u8, flags: u8, stream: u32, payload: &[u8]) {
            self.wire.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
            self.wire.extend_from_slice(&[ty, flags]);
            self.wire.extend_from_slice(&stream.to_be_bytes());
            self.wire.extend_from_slice(payload);
        }

        /// DATA with a payload of anything but zeros — nothing may look at
        /// it — and `local` done once `at` octets of the frame are in.
        fn data(&mut self, stream: u32, len: usize, flags: u8, mid: Option<(usize, Local)>) {
            if let Some((at, local)) = mid {
                self.locals.push((self.wire.len() + at.min(FRAME_HEADER_LEN + len), local));
            }
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8 | 1).collect();
            self.raw(len, 0x0, flags, stream, &payload);
        }
    }

    /// Request streams every script's client has open.
    const REQUESTS: usize = 4;

    fn stream_id(n: usize) -> u32 {
        (n % REQUESTS) as u32 * 2 + 1
    }

    fn response_block(enc: &mut HpackEncoder) -> Bytes {
        enc.encode(&[Header::new(":status", "200"), Header::new("content-type", "text/css")]).into()
    }

    /// A client with [`REQUESTS`] requests out, a stream window small enough
    /// that a few hundred octets of DATA owe a WINDOW_UPDATE, and the
    /// connection window one DATA frame short of owing one too.
    fn client() -> Connection {
        let mut c =
            Connection::client(Settings { initial_window_size: Some(1_000), ..Default::default() });
        for n in 0..REQUESTS {
            let path = format!("/r{n}");
            c.request(
                &[
                    Header::new(":method", "GET"),
                    Header::new(":scheme", "https"),
                    Header::new(":authority", "cr.test"),
                    Header::new(":path", &path),
                ],
                None,
            );
        }
        c.produce(usize::MAX, &mut FifoScheduler);
        c.conn_recv_consumed = (15 * 1024 * 1024 + DEFAULT_WINDOW as usize) / 2 - 2_000;
        c
    }

    /// Everything observable about a connection that input can move.
    fn observe(c: &mut Connection) -> (Vec<Event>, bool, bool) {
        let events = std::iter::from_fn(|| c.poll_event()).collect();
        (events, c.is_dead(), c.wants_send())
    }

    /// Feed `script` to a connection on the counting `receive` and to one on
    /// the buffered reference, cut into the same pieces (`cut` gives each
    /// piece's length; application steps always fall between two pieces),
    /// and require the same observable state after every piece.
    fn lockstep(make: fn() -> Connection, script: &Script, mut cut: impl FnMut() -> usize) {
        let (mut tested, mut reference) = (make(), make());
        let mut locals = script.locals.iter().peekable();
        let mut pos = 0;
        loop {
            while let Some(&(_, local)) = locals.next_if(|&&(at, _)| at == pos) {
                for c in [&mut tested, &mut reference] {
                    match local {
                        Local::Reset(n) => c.reset(stream_id(n), ErrorCode::Cancel),
                        Local::Fatal if !c.is_dead() => c.fatal(ConnError::ControlQueueOverflow),
                        Local::Fatal | Local::Produce => {}
                    }
                }
                let a = tested.produce(usize::MAX, &mut FifoScheduler);
                let b = reference.produce(usize::MAX, &mut FifoScheduler);
                assert_eq!(a, b, "output diverged at byte {pos}");
            }
            if pos == script.wire.len() {
                break;
            }
            let stop = locals.peek().map_or(script.wire.len(), |&&(at, _)| at);
            let end = pos.saturating_add(cut().max(1)).min(stop);
            tested.receive(&script.wire[pos..end]);
            reference.receive_buffered(&script.wire[pos..end]);
            pos = end;
            assert_eq!(observe(&mut tested), observe(&mut reference), "diverged at byte {pos}");
            // DATA payload is never stored: what waits is a partial header
            // or part of one frame that is not DATA.
            let held = &tested.recv_buf;
            assert!(held.len() < FRAME_HEADER_LEN + (1 << 14));
            if let Some(head) = FrameHead::parse(held).filter(|_| tested.preface_received) {
                assert!(!head.is_data() && held.len() < FRAME_HEADER_LEN + head.len);
            }
        }
        let a = tested.produce(usize::MAX, &mut FifoScheduler);
        let b = reference.produce(usize::MAX, &mut FifoScheduler);
        assert_eq!(a, b, "final output diverged");
        assert_eq!(tested.pending_headers.is_some(), reference.pending_headers.is_some());
    }

    /// A named script and the connection it is fed to.
    type Scenario = (&'static str, fn() -> Connection, Script);

    /// The scenarios the counting decoder could get wrong, one script each.
    fn scenarios() -> Vec<Scenario> {
        let mut out: Vec<Scenario> = Vec::new();
        // Each script starts from a fresh peer encoder, as its client
        // starts from a fresh decoder.
        let mut add = |name, build: fn(&mut Script, &mut HpackEncoder)| {
            let mut s = Script::default();
            build(&mut s, &mut HpackEncoder::new());
            out.push((name, client as fn() -> Connection, s));
        };
        fn headers(s: &mut Script, enc: &mut HpackEncoder, stream: u32) {
            s.frame(Frame::Headers {
                stream,
                block: response_block(enc),
                end_stream: false,
                end_headers: true,
                priority: None,
            })
        }
        add("benign: bodies, window updates at both levels, empty DATA", |s, enc| {
            headers(s, enc, 1);
            s.data(1, 700, 0, None);
            s.frame(Frame::Ping { ack: false, payload: [7; 8] });
            s.data(1, 1_500, 0, None);
            s.data(1, 0, 0, None);
            s.data(1, 300, 0x1, None);
        });
        add("PADDED DATA: padding is payload", |s, enc| {
            headers(s, enc, 3);
            s.data(3, 600, 0x8, None);
            s.data(3, 40, 0x8 | 0x1, None);
        });
        add("DATA on stream 0", |s, _| {
            s.data(1, 20, 0, None);
            s.data(0, 120, 0, None);
            s.data(1, 20, 0, None);
        });
        add("DATA inside an open CONTINUATION sequence", |s, enc| {
            let block = response_block(enc);
            s.frame(Frame::Headers {
                stream: 1,
                block: block.slice(..2),
                end_stream: false,
                end_headers: false,
                priority: None,
            });
            s.data(1, 90, 0, None);
            s.frame(Frame::Continuation { stream: 1, block: block.slice(2..), end_headers: true });
        });
        add("DATA on stream 0 inside an open CONTINUATION sequence", |s, _| {
            s.frame(Frame::Headers {
                stream: 1,
                block: Bytes::new(),
                end_stream: false,
                end_headers: false,
                priority: None,
            });
            s.data(0, 30, 0, None);
        });
        add("oversize DATA header", |s, _| {
            s.data(1, 64, 0, None);
            s.raw((1 << 14) + 1, 0x0, 0, 1, &[0xee; 40]);
        });
        add("DATA on a stream that never existed", |s, _| s.data(99, 50, 0, None));
        add("RST mid-payload", |s, enc| {
            headers(s, enc, 5);
            s.data(5, 800, 0, Some((300, Local::Reset(2))));
            s.data(5, 800, 0x1, None);
            s.data(1, 10, 0, None);
        });
        add("fatal() mid-payload", |s, _| {
            s.data(1, 400, 0, Some((FRAME_HEADER_LEN + 1, Local::Fatal)));
            s.data(1, 10, 0, None);
        });
        add("fatal() inside a DATA header", |s, _| s.data(1, 40, 0, Some((4, Local::Fatal))));
        add("output drained mid-payload", |s, _| {
            s.data(1, 900, 0, None);
            s.data(3, 900, 0, Some((500, Local::Produce)));
        });
        add("control frames and an unknown type between bodies", |s, enc| {
            s.frame(Frame::Settings { ack: false, settings: Settings::default() });
            s.data(1, 33, 0, None);
            s.raw(300, 0xbe, 0xff, 7, &[0xbe; 300]);
            s.frame(Frame::WindowUpdate { stream: 0, increment: 1_000 });
            s.frame(Frame::PushPromise {
                stream: 1,
                promised: 2,
                block: enc
                    .encode(&[
                        Header::new(":method", "GET"),
                        Header::new(":scheme", "https"),
                        Header::new(":authority", "cr.test"),
                        Header::new(":path", "/pushed"),
                    ])
                    .into(),
                end_headers: true,
            });
            headers(s, enc, 2);
            s.data(2, 1_200, 0x1, None);
            s.frame(Frame::RstStream { stream: 3, code: ErrorCode::Cancel });
            s.data(3, 77, 0, None);
            s.frame(Frame::GoAway { last_stream: 7, code: ErrorCode::NoError });
        });
        // A server: the preface is cut like anything else, and a request
        // body is counted like a response body.
        let mut s = Script::default();
        s.wire.extend_from_slice(PREFACE);
        s.frame(Frame::Settings { ack: false, settings: Settings::default() });
        s.frame(Frame::Headers {
            stream: 1,
            block: HpackEncoder::new().encode(&[Header::new(":method", "POST")]).into(),
            end_stream: false,
            end_headers: true,
            priority: None,
        });
        s.data(1, 1 << 14, 0, None);
        s.data(1, 1 << 14, 0, None);
        s.data(1, 5, 0x1, None);
        out.push((
            "server: preface, then a request body",
            || Connection::server(Settings::default()),
            s,
        ));
        let mut s = Script::default();
        s.wire.extend_from_slice(b"PRI * HTTP/2.0\r\n\r\nSM\r\n\rX");
        s.data(1, 10, 0, None);
        out.push(("server: bad preface", || Connection::server(Settings::default()), s));
        out
    }

    #[test]
    fn every_scenario_at_every_split_offset_and_byte_at_a_time() {
        for (name, make, script) in scenarios() {
            // Whole, then one byte per call.
            lockstep(make, &script, || usize::MAX);
            lockstep(make, &script, || 1);
            // Two pieces, cut at every offset (long bodies: every offset
            // around each frame boundary is what matters, so stride the
            // middles).
            let n = script.wire.len();
            for at in (1..n).filter(|at| n < 4_000 || at % 997 == 0 || at % 16_393 < 24) {
                let mut first = true;
                lockstep(
                    make,
                    &script,
                    || if std::mem::take(&mut first) { at } else { usize::MAX },
                );
            }
            // The scenario went where its name says: its wire alone kills
            // the connection exactly when the peer is hostile.
            let mut c = make();
            c.receive(&script.wire);
            let hostile = ["stream 0", "open CONTINUATION", "oversize", "never existed", "bad pre"];
            assert_eq!(c.is_dead(), hostile.iter().any(|h| name.contains(h)), "{name}");
        }
    }

    /// One frame (or hostile fragment) of a generated script.
    #[derive(Debug, Clone)]
    enum Item {
        Headers {
            stream: usize,
            end_stream: bool,
        },
        /// HEADERS without END_HEADERS, then — unless `interrupted`, which
        /// leaves the sequence open for whatever comes next — CONTINUATION.
        SplitHeaders {
            stream: usize,
            interrupted: bool,
        },
        Data {
            stream: usize,
            len: usize,
            end_stream: bool,
            padded: bool,
            mid: Option<(usize, u8)>,
        },
        Ping,
        Settings,
        WindowUpdate {
            stream: usize,
        },
        Rst {
            stream: usize,
        },
        Promise {
            parent: usize,
        },
        Unknown {
            len: usize,
        },
        DataOnStreamZero {
            len: usize,
        },
        DataOnUnknownStream {
            len: usize,
        },
        Oversize {
            extra: usize,
        },
    }

    fn item_strategy() -> impl Strategy<Value = Item> {
        let stream = 0usize..REQUESTS;
        let len = || prop_oneof![Just(0usize), 1usize..40, 300usize..1_200, Just(1usize << 14)];
        let mid = || prop_oneof![Just(None), Just(None), (0usize..2_000, 0u8..3).prop_map(Some)];
        let data = || {
            (stream.clone(), len(), any::<bool>(), any::<bool>(), mid()).prop_map(
                |(stream, len, end_stream, padded, mid)| Item::Data {
                    stream,
                    len,
                    end_stream,
                    padded,
                    mid,
                },
            )
        };
        // DATA four times: it is what the test is about; the rest is what
        // it has to coexist with, hostile input last and rarest.
        prop_oneof![
            data(),
            data(),
            data(),
            data(),
            (stream.clone(), any::<bool>())
                .prop_map(|(stream, end_stream)| Item::Headers { stream, end_stream }),
            (stream.clone(), any::<bool>())
                .prop_map(|(stream, end_stream)| Item::Headers { stream, end_stream }),
            (stream.clone(), any::<bool>())
                .prop_map(|(stream, interrupted)| Item::SplitHeaders { stream, interrupted }),
            Just(Item::Ping),
            Just(Item::Settings),
            stream.clone().prop_map(|stream| Item::WindowUpdate { stream }),
            stream.clone().prop_map(|stream| Item::Rst { stream }),
            stream.clone().prop_map(|parent| Item::Promise { parent }),
            (0usize..400).prop_map(|len| Item::Unknown { len }),
            prop_oneof![
                len().prop_map(|len| Item::DataOnStreamZero { len }),
                len().prop_map(|len| Item::DataOnUnknownStream { len }),
                (1usize..5_000).prop_map(|extra| Item::Oversize { extra }),
            ],
        ]
    }

    fn build(items: &[Item]) -> Script {
        let mut s = Script::default();
        let mut enc = HpackEncoder::new();
        let mut promised = 0;
        for item in items {
            match *item {
                Item::Headers { stream, end_stream } => s.frame(Frame::Headers {
                    stream: stream_id(stream),
                    block: response_block(&mut enc),
                    end_stream,
                    end_headers: true,
                    priority: None,
                }),
                Item::SplitHeaders { stream, interrupted } => {
                    let block = response_block(&mut enc);
                    s.frame(Frame::Headers {
                        stream: stream_id(stream),
                        block: block.slice(..1),
                        end_stream: false,
                        end_headers: false,
                        priority: None,
                    });
                    if !interrupted {
                        s.frame(Frame::Continuation {
                            stream: stream_id(stream),
                            block: block.slice(1..),
                            end_headers: true,
                        });
                    }
                }
                Item::Data { stream, len, end_stream, padded, mid } => {
                    let flags = end_stream as u8 | if padded { 0x8 } else { 0 };
                    let mid = mid.map(|(at, what)| {
                        let local = match what {
                            0 => Local::Reset(stream),
                            1 => Local::Produce,
                            _ => Local::Fatal,
                        };
                        (at, local)
                    });
                    s.data(stream_id(stream), len, flags, mid);
                }
                Item::Ping => s.frame(Frame::Ping { ack: false, payload: [3; 8] }),
                Item::Settings => {
                    s.frame(Frame::Settings { ack: false, settings: Settings::default() })
                }
                Item::WindowUpdate { stream } => {
                    s.frame(Frame::WindowUpdate { stream: stream_id(stream), increment: 500 })
                }
                Item::Rst { stream } => {
                    s.frame(Frame::RstStream { stream: stream_id(stream), code: ErrorCode::Cancel })
                }
                Item::Promise { parent } => {
                    promised += 2;
                    s.frame(Frame::PushPromise {
                        stream: stream_id(parent),
                        promised,
                        block: enc.encode(&[Header::new(":path", "/p")]).into(),
                        end_headers: true,
                    });
                }
                Item::Unknown { len } => s.raw(len, 0xbe, 0x9, 5, &vec![0xbe; len]),
                Item::DataOnStreamZero { len } => s.data(0, len, 0, None),
                Item::DataOnUnknownStream { len } => s.data(99, len, 0, None),
                // The header alone is fatal; what follows it is whatever
                // the script has next.
                Item::Oversize { extra } => s.raw((1 << 14) + extra, 0x0, 0, 1, &[]),
            }
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn counted_receive_matches_the_buffered_reference_under_any_partition(
            items in proptest::collection::vec(item_strategy(), 1..24),
            cuts in prop_oneof![
                Just(vec![1usize]),
                proptest::collection::vec(
                    prop_oneof![
                        1usize..12,
                        1usize..12,
                        100usize..1_460,
                        Just(1_460usize),
                        Just((1usize << 14) + FRAME_HEADER_LEN),
                        20_000usize..70_000,
                    ],
                    1..40,
                ),
            ],
        ) {
            let cuts: Vec<usize> = cuts;
            let mut next = cuts.iter().copied().cycle();
            lockstep(client, &build(&items), || next.next().expect("a cycle never ends"));
        }
    }
}
