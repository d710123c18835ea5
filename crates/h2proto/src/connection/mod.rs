//! An HTTP/2 connection endpoint (client or server half).
//!
//! The endpoint is a synchronous state machine in the smoltcp style: bytes
//! in via [`Connection::receive`], bytes out via [`Connection::produce`],
//! application events out via [`Connection::poll_event`]. It owns the HPACK
//! contexts, the stream table, connection- and stream-level flow control,
//! and the priority tree; *which* stream's DATA is emitted next is delegated
//! to a [`Scheduler`](crate::Scheduler) — the policy surface the
//! paper's Interleaving Push modifies.
//!
//! The type is split along its seams: this file holds the struct, its
//! construction, recycling and getters; `streams` the per-stream state and
//! the caches derived from it; `send` the control queue, the local API and
//! `produce_into`; `receive` the frame intake and header-block assembly.
//! `tests/lockstep.rs` checks all of it against a naive model.

mod receive;
mod send;
mod streams;

pub use streams::StreamState;

use crate::error::{ConnError, StreamError};
use crate::frame::{ErrorCode, FrameHead, FrameOf, FrameRef, PrioritySpec, Settings};
use crate::frame::{DEFAULT_MAX_FRAME_SIZE, DEFAULT_WINDOW, PREFACE};
use crate::{limits::ConnLimits, priority::PriorityTree, sansio::WireSink};
use crate::{scheduler::StreamSnapshot, stream_slab::StreamSlab};
use h2push_hpack::{Decoder as HpackDecoder, Encoder as HpackEncoder, HeaderList};
use h2push_trace::TraceHandle;
use receive::PendingHeaders;
use send::ControlQueue;
use std::{collections::VecDeque, sync::Arc};
use streams::{Stream, SLAB_INITIAL_SLOTS};

/// Which side of the connection this endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The browser side: odd stream ids, sends the preface.
    Client,
    /// The replay-server side: even push ids.
    Server,
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

/// One endpoint of an HTTP/2 connection.
pub struct Connection {
    role: Role,
    hpack_enc: HpackEncoder,
    hpack_dec: HpackDecoder,
    streams: StreamSlab<Stream>,
    /// One entry per stream with unsent body ([`Stream::has_unsent_body`]),
    /// ascending by id, with `sendable` = min(queued, the stream's own send
    /// window): what `wants_send` reads and what `produce_into` hands the
    /// scheduler as is, instead of walking every stream the connection
    /// ever opened. Exact at all times — every change to a stream's
    /// state, headers flag, queue, sent count or window goes through
    /// [`Connection::update_stream`] or [`Connection::insert_stream`],
    /// which re-derive its entry, and a SETTINGS initial-window delta
    /// re-derives every entry. The connection window is not in it: the
    /// two readers check that once.
    ready: Vec<StreamSnapshot>,
    /// Streams not in [`StreamState::Closed`] (the §5.1.2 concurrency
    /// count), maintained by the same two functions.
    active_streams: usize,
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

    /// Next pending application event.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::scheduler::{DefaultScheduler, FifoScheduler, Scheduler};
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
