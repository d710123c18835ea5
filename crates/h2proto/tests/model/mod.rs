//! A naive reference endpoint for `h2push_h2proto::Connection`, driven in
//! lockstep with it by `tests/lockstep.rs` (a directory module, so cargo
//! does not build it as a test target of its own).
//!
//! It is written against the public API only and says everything the
//! obvious way: streams live in a `BTreeMap`; the ready set, the
//! active-stream count and `wants_send` are scans of it; `receive` buffers
//! every byte and decodes whole frames with `Frame::decode`, DATA payload
//! included. It reuses the parts that have suites of their own — the frame
//! codec, HPACK, `PriorityTree` and the schedulers — and re-implements what
//! `Connection` adds on top of them: the RFC 7540 §5.1 stream states, §6.9
//! flow control (SETTINGS_INITIAL_WINDOW_SIZE deltas included) and the
//! `ConnLimits` rules. Two invariants are asserted inside it: no stream
//! moves along an edge the §5.1 table lacks, and every send window equals
//! its initial value plus the updates and SETTINGS deltas it was given
//! minus the DATA sent against it.

use h2push_h2proto::{
    ConnError, ConnLimits, ErrorCode, Event, Frame, FrameError, FrameOf, PrioritySpec,
    PriorityTree, Role, Scheduler, Settings, StreamError, StreamSnapshot, StreamState,
    DEFAULT_MAX_FRAME_SIZE, DEFAULT_WINDOW, PREFACE,
};
use h2push_hpack::{Decoder, Encoder, HeaderField};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use StreamState::*;

/// What each side's preface adds to the 65 535-octet connection window.
const CONN_WINDOW_BONUS: u32 = 15 * 1024 * 1024;
/// §6.9.1: no flow-control window may exceed 2^31 − 1.
const MAX_WINDOW: i64 = 0x7fff_ffff;

#[derive(Clone)]
struct Stream {
    state: StreamState,
    /// The send window, and the §6.9 ledger it must equal.
    window: i64,
    initial: i64,
    updates: i64,
    deltas: i64,
    sent: u64,
    /// Body bytes queued and not yet sent; `fin` once the body is complete.
    queued: usize,
    fin: bool,
    headers_sent: bool,
    /// DATA octets received and not yet given back by WINDOW_UPDATE.
    unacked: usize,
}

impl Stream {
    fn ready(&self) -> bool {
        self.headers_sent && self.state != Closed && self.queued > 0
    }

    fn sendable(&self, conn_window: i64) -> usize {
        self.queued.min(conn_window.max(0) as usize).min(self.window.max(0) as usize)
    }

    /// A response that ended with nothing queued to carry END_STREAM.
    fn owes_empty_fin(&self) -> bool {
        self.headers_sent
            && self.fin
            && self.queued == 0
            && matches!(self.state, Open | HalfClosedRemote)
    }

    /// Move to `to` along an edge of the §5.1 table (RST_STREAM reaches
    /// `Closed` from anywhere).
    fn enter(&mut self, to: StreamState) {
        let legal = self.state == to
            || to == Closed
            || matches!(
                (self.state, to),
                (ReservedLocal, HalfClosedRemote)
                    | (ReservedRemote, HalfClosedLocal)
                    | (Open, HalfClosedLocal | HalfClosedRemote)
            );
        assert!(legal, "§5.1 has no edge {:?} -> {to:?}", self.state);
        self.state = to;
    }

    /// We sent END_STREAM.
    fn end_local(&mut self) {
        let to = match self.state {
            Open => HalfClosedLocal,
            HalfClosedRemote | ReservedLocal => Closed,
            other => other,
        };
        self.enter(to);
    }
}

/// A header block waiting for its CONTINUATION frames: what opened it.
#[derive(Clone, Copy)]
struct Block {
    stream: u32,
    promised: Option<u32>,
    end_stream: bool,
    priority: Option<PrioritySpec>,
}

/// One endpoint, state by state as RFC 7540 describes it. The flags the
/// lockstep compares are plain fields.
#[derive(Clone, Default)]
pub struct Model {
    client: bool,
    local: Settings,
    pub limits: ConnLimits,
    enc: Encoder,
    dec: Decoder,
    tree: PriorityTree,
    streams: BTreeMap<u32, Stream>,
    /// Encoded control frames, oldest first; a client's preface magic and
    /// its SETTINGS are one.
    control: VecDeque<Vec<u8>>,
    /// Received bytes not yet decoded.
    inbox: Vec<u8>,
    events: VecDeque<Event>,
    pub dead: bool,
    pub preface_received: bool,
    pub goaway_received: bool,
    pub peer_enable_push: bool,
    peer_max_frame: usize,
    peer_initial_window: i64,
    conn_window: i64,
    conn_updates: i64,
    conn_sent: u64,
    conn_unacked: usize,
    next_stream_id: u32,
    next_push_id: u32,
    highest_peer_stream: u32,
    last_promised: u32,
    resets: u32,
    settings_frames: u32,
    pings: u32,
    refused: u32,
    open_block: Option<(Block, Vec<u8>)>,
}

impl Model {
    pub fn new(role: Role, local: Settings) -> Self {
        let mut dec = Decoder::new();
        if let Some(size) = local.header_table_size {
            dec.set_capacity_limit(size as usize);
        }
        if let Some(size) = local.max_header_list_size {
            dec.set_max_header_list_size(size as usize);
        }
        let client = role == Role::Client;
        let mut model = Model {
            client,
            local,
            dec,
            preface_received: client, // only servers expect the magic
            peer_enable_push: true,
            peer_max_frame: DEFAULT_MAX_FRAME_SIZE,
            peer_initial_window: DEFAULT_WINDOW,
            conn_window: DEFAULT_WINDOW,
            next_stream_id: 1,
            next_push_id: 2,
            ..Default::default()
        };
        let mut preface = if client { PREFACE.to_vec() } else { Vec::new() };
        Frame::Settings { ack: false, settings: local }.encode(&mut preface);
        model.control.push_back(preface);
        model.queue(Frame::WindowUpdate { stream: 0, increment: CONN_WINDOW_BONUS });
        model
    }

    pub fn set_limits(&mut self, limits: ConnLimits) {
        // An explicit SETTINGS_MAX_HEADER_LIST_SIZE outranks the limit.
        if self.local.max_header_list_size.is_none() {
            self.dec.set_max_header_list_size(limits.max_header_list_size);
        }
        self.limits = limits;
    }

    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    pub fn stream_state(&self, id: u32) -> Option<StreamState> {
        self.streams.get(&id).map(|s| s.state)
    }

    pub fn bytes_sent(&self, id: u32) -> u64 {
        self.streams.get(&id).map_or(0, |s| s.sent)
    }

    pub fn bytes_queued(&self, id: u32) -> usize {
        self.streams.get(&id).map_or(0, |s| s.queued)
    }

    pub fn wants_send(&self) -> bool {
        !self.control.is_empty()
            || self.streams.values().any(|s| s.ready() && self.conn_window > 0 && s.window > 0)
    }

    // ----- local calls -----

    pub fn request<H: HeaderField>(&mut self, headers: &[H], spec: Option<PrioritySpec>) -> u32 {
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        let block = self.enc.encode(headers);
        self.send_block(id, &block, true, spec);
        self.open(id, HalfClosedLocal);
        self.tree.insert(id, spec.unwrap_or_default());
        id
    }

    pub fn respond<H: HeaderField>(&mut self, id: u32, headers: &[H], end_stream: bool) {
        let block = self.enc.encode(headers);
        self.send_block(id, &block, end_stream, None);
        let owes_fin = self.streams.get_mut(&id).map(|s| {
            s.headers_sent = true;
            if end_stream {
                s.end_local();
            } else if s.state == ReservedLocal {
                s.enter(HalfClosedRemote);
            }
            s.owes_empty_fin()
        });
        if end_stream {
            self.tree.remove(id);
        }
        if owes_fin == Some(true) {
            self.empty_fin(id);
        }
    }

    pub fn queue_body(&mut self, id: u32, len: usize, fin: bool) {
        let owes_fin = match self.streams.get_mut(&id) {
            Some(s) if s.state != Closed => {
                s.queued = s.queued.saturating_add(len);
                s.fin |= fin;
                s.owes_empty_fin()
            }
            _ => false,
        };
        if owes_fin {
            self.empty_fin(id);
        }
    }

    /// An empty DATA|END_STREAM needs no window and no scheduling: it
    /// goes out with the control frames.
    fn empty_fin(&mut self, id: u32) {
        self.queue(Frame::Data { stream: id, len: 0, end_stream: true });
        if let Some(s) = self.streams.get_mut(&id) {
            s.end_local();
        }
        self.tree.remove(id);
    }

    pub fn push_promise<H: HeaderField>(&mut self, parent: u32, headers: &[H]) -> Option<u32> {
        let parent_open = matches!(self.stream_state(parent), Some(Open | HalfClosedRemote));
        // 0x7fff_fffe is the largest even stream id.
        let refused = !self.peer_enable_push || self.goaway_received || self.dead;
        if refused || !parent_open || self.next_push_id > 0x7fff_fffe {
            return None;
        }
        let id = self.next_push_id;
        self.next_push_id += 2;
        let block = self.enc.encode(headers);
        let (block, stream) = (&block[..], parent);
        self.queue(FrameOf::PushPromise { stream, promised: id, block, end_headers: true });
        self.open(id, ReservedLocal);
        self.tree.insert(id, PrioritySpec { depends_on: parent, weight: 16, exclusive: false });
        Some(id)
    }

    pub fn reset(&mut self, id: u32, code: ErrorCode) {
        if self.stream_state(id).is_some_and(|s| s != Closed) {
            self.close(id);
            self.queue(Frame::RstStream { stream: id, code });
        }
    }

    pub fn send_priority(&mut self, id: u32, spec: PrioritySpec) {
        self.tree.insert(id, spec);
        self.queue(Frame::Priority { stream: id, spec });
    }

    /// Control frames first, whole, while they fit in `max` (the first
    /// always goes); then DATA where the scheduler says, each frame as big
    /// as both windows, the peer's frame size and the budget allow.
    pub fn produce(&mut self, max: usize, scheduler: &mut dyn Scheduler) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(frame) = self.control.front() {
            if !out.is_empty() && out.len() + frame.len() > max {
                break;
            }
            out.extend(self.control.pop_front().unwrap());
        }
        while out.len() < max {
            let conn_window = self.conn_window;
            let ready: Vec<StreamSnapshot> = self
                .streams
                .iter()
                .filter(|(_, s)| s.ready() && s.sendable(conn_window) > 0)
                .map(|(&id, s)| StreamSnapshot {
                    id,
                    sendable: s.sendable(conn_window),
                    sent: s.sent,
                    is_push: id.is_multiple_of(2),
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            let Some(id) = scheduler.pick(&ready, &self.tree) else { break };
            let room = self.peer_max_frame.min(max - out.len());
            let Some(s) = self.streams.get_mut(&id) else {
                scheduler.stream_closed(id);
                let error = StreamError::UnknownScheduled;
                self.events.push_back(Event::StreamError { stream: id, error });
                break;
            };
            let chunk = s.sendable(conn_window).min(room);
            if chunk == 0 {
                break;
            }
            s.queued -= chunk;
            s.sent += chunk as u64;
            s.window -= chunk as i64;
            let end_stream = s.fin && s.queued == 0;
            if end_stream {
                s.end_local();
            }
            self.conn_window -= chunk as i64;
            self.conn_sent += chunk as u64;
            Frame::Data { stream: id, len: chunk, end_stream }.encode(&mut out);
            if end_stream {
                self.tree.remove(id);
                scheduler.stream_closed(id);
            }
        }
        self.check();
        out
    }

    // ----- peer bytes -----

    pub fn receive(&mut self, data: &[u8]) {
        if self.dead {
            return;
        }
        self.inbox.extend_from_slice(data);
        if !self.preface_received {
            if self.inbox.len() < PREFACE.len() {
                return;
            }
            if !self.inbox.starts_with(PREFACE) {
                self.fatal(ConnError::BadPreface);
                return;
            }
            self.inbox.drain(..PREFACE.len());
            self.preface_received = true;
        }
        let max = self.local.max_frame_size.map_or(DEFAULT_MAX_FRAME_SIZE, |m| m as usize);
        let mut pos = 0;
        while !self.dead {
            let error = match Frame::decode(&self.inbox[pos..], max) {
                Ok((frame, used)) => {
                    pos += used;
                    self.on_frame(frame).err()
                }
                Err(FrameError::Incomplete) => break,
                // §4.1: frames of unknown type are ignored.
                Err(FrameError::UnknownType { skip }) => {
                    pos += skip;
                    None
                }
                Err(FrameError::TooLarge) => Some(ConnError::FrameTooLarge),
                Err(FrameError::Protocol(reason)) => Some(ConnError::Frame(reason)),
            };
            if let Some(error) = error {
                self.fatal(error);
            }
        }
        self.inbox.drain(..pos);
        self.check();
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), ConnError> {
        if self.open_block.is_some() && !matches!(frame, Frame::Continuation { .. }) {
            return Err(ConnError::ExpectedContinuation);
        }
        match frame {
            Frame::Settings { ack: true, .. } => self.events.push_back(Event::SettingsAck),
            Frame::Settings { ack: false, settings } => {
                self.settings_frames = self.settings_frames.saturating_add(1);
                if self.settings_frames > self.limits.max_settings_frames {
                    return Err(ConnError::SettingsFlood);
                }
                if let Some(push) = settings.enable_push {
                    self.peer_enable_push = push;
                }
                if let Some(size) = settings.max_frame_size {
                    self.peer_max_frame = (size as usize).clamp(DEFAULT_MAX_FRAME_SIZE, 1 << 24);
                }
                if let Some(window) = settings.initial_window_size {
                    if window as i64 > MAX_WINDOW {
                        return Err(ConnError::FlowControlOverflow);
                    }
                    // §6.9.2: the change moves every stream's window.
                    let delta = window as i64 - self.peer_initial_window;
                    self.peer_initial_window = window as i64;
                    for s in self.streams.values_mut() {
                        s.window += delta;
                        s.deltas += delta;
                    }
                }
                if let Some(size) = settings.header_table_size {
                    self.enc.set_table_size((size as usize).min(4096));
                }
                self.queue(Frame::Settings { ack: true, settings: Settings::default() });
                self.events.push_back(Event::Settings(settings));
            }
            Frame::WindowUpdate { stream: 0, increment } => {
                if self.conn_window + increment as i64 > MAX_WINDOW {
                    return Err(ConnError::FlowControlOverflow);
                }
                self.conn_window += increment as i64;
                self.conn_updates += increment as i64;
            }
            Frame::WindowUpdate { stream, increment } => {
                let Some(s) = self.streams.get_mut(&stream) else { return Ok(()) };
                if s.window + increment as i64 <= MAX_WINDOW {
                    s.window += increment as i64;
                    s.updates += increment as i64;
                } else {
                    self.close(stream);
                    self.queue(Frame::RstStream { stream, code: ErrorCode::FlowControlError });
                    let error = StreamError::WindowOverflow;
                    self.events.push_back(Event::StreamError { stream, error });
                }
            }
            Frame::Priority { stream, spec } => {
                self.tree.insert(stream, spec);
                self.events.push_back(Event::Priority { stream, spec });
            }
            Frame::Headers { stream, block, end_stream, end_headers, priority } => {
                let opened = Block { stream, promised: None, end_stream, priority };
                self.header_block(opened, block.to_vec(), end_headers)?;
            }
            Frame::PushPromise { stream, promised, block, end_headers } => {
                if self.client && self.local.enable_push == Some(false) {
                    return Err(ConnError::PushDisabled);
                }
                if !promised.is_multiple_of(2) {
                    return Err(ConnError::OddPromisedStream);
                }
                if promised <= self.last_promised {
                    return Err(ConnError::PromisedStreamIdNotIncreasing);
                }
                self.last_promised = promised;
                let opened =
                    Block { stream, promised: Some(promised), end_stream: false, priority: None };
                self.header_block(opened, block.to_vec(), end_headers)?;
            }
            Frame::Continuation { stream, block, end_headers } => {
                let (opened, mut fragments) =
                    self.open_block.take().ok_or(ConnError::ContinuationWithoutHeaders)?;
                if opened.stream != stream {
                    return Err(ConnError::ContinuationWrongStream);
                }
                fragments.extend_from_slice(&block);
                // Compressed is never larger than decoded: the list limit
                // bounds the fragments too.
                if fragments.len() > self.limits.max_header_list_size {
                    return Err(ConnError::HeaderListTooLarge);
                }
                self.header_block(opened, fragments, end_headers)?;
            }
            Frame::Data { stream, len, end_stream } => self.on_data(stream, len, end_stream)?,
            Frame::RstStream { stream, code } => {
                self.resets = self.resets.saturating_add(1);
                if self.resets > self.limits.max_resets {
                    return Err(ConnError::ResetFlood);
                }
                self.close(stream);
                self.events.push_back(Event::Reset { stream, code });
            }
            Frame::Ping { ack: false, payload } => {
                self.pings = self.pings.saturating_add(1);
                if self.pings > self.limits.max_pings {
                    return Err(ConnError::PingFlood);
                }
                self.queue(Frame::Ping { ack: true, payload });
            }
            Frame::Ping { ack: true, .. } => {}
            Frame::GoAway { last_stream, code } => {
                self.goaway_received = true;
                self.events.push_back(Event::GoAway { last_stream, code });
            }
        }
        Ok(())
    }

    fn on_data(&mut self, id: u32, len: usize, end_stream: bool) -> Result<(), ConnError> {
        // Our preface opened the receive window by the bonus; what arrived
        // is given back once it reaches half of that window.
        self.conn_unacked += len;
        if self.conn_unacked * 2 >= DEFAULT_WINDOW as usize + CONN_WINDOW_BONUS as usize {
            let increment = std::mem::take(&mut self.conn_unacked) as u32;
            self.queue(Frame::WindowUpdate { stream: 0, increment });
        }
        let window = self.local.initial_window_size.map_or(DEFAULT_WINDOW, i64::from);
        let s = self.streams.get_mut(&id).ok_or(ConnError::DataOnUnknownStream)?;
        if s.state == Closed {
            return Ok(()); // DATA that raced our RST_STREAM
        }
        s.unacked += len;
        let give_back = (s.unacked as i64 * 2 >= window).then(|| std::mem::take(&mut s.unacked));
        if end_stream {
            let to = match s.state {
                Open => HalfClosedRemote,
                HalfClosedLocal | HalfClosedRemote => Closed,
                other => other,
            };
            s.enter(to);
        }
        if let Some(increment) = give_back {
            self.queue(Frame::WindowUpdate { stream: id, increment: increment as u32 });
        }
        self.events.push_back(Event::Data { stream: id, len, end_stream });
        Ok(())
    }

    /// A header block, whole once `end_headers`: decode it, then open,
    /// reserve or advance the stream it names.
    fn header_block(&mut self, opened: Block, block: Vec<u8>, end: bool) -> Result<(), ConnError> {
        if !end {
            self.open_block = Some((opened, block));
            return Ok(());
        }
        let headers = match self.dec.decode(&block) {
            Ok(list) => Arc::new(list),
            Err(h2push_hpack::Error::HeaderListTooLarge) => {
                return Err(ConnError::HeaderListTooLarge)
            }
            Err(_) => return Err(ConnError::HpackDecode),
        };
        let id = opened.stream;
        if let Some(promised) = opened.promised {
            if !self.refused(promised)? {
                self.open(promised, ReservedRemote);
                let spec = PrioritySpec { depends_on: id, weight: 16, exclusive: false };
                self.tree.insert(promised, spec);
                self.events.push_back(Event::PushPromise { parent: id, promised, headers });
            }
            return Ok(());
        }
        if !self.streams.contains_key(&id) {
            // Only a client's request opens a stream by HEADERS (§5.1.1).
            if self.client {
                return Err(ConnError::HeadersOnUnknownStream);
            }
            if id.is_multiple_of(2) {
                return Err(ConnError::Frame("client stream id must be odd"));
            }
            if id <= self.highest_peer_stream {
                return Err(ConnError::Frame("stream id not increasing"));
            }
            if self.refused(id)? {
                return Ok(());
            }
            self.highest_peer_stream = id;
            self.open(id, Open);
        }
        let s = self.streams.get_mut(&id).expect("known or just opened");
        let to = match (s.state, opened.end_stream) {
            (ReservedRemote, true) | (HalfClosedLocal, true) => Closed,
            (ReservedRemote, false) => HalfClosedLocal,
            (Open, true) => HalfClosedRemote,
            (state, _) => state,
        };
        s.enter(to);
        match opened.priority {
            Some(spec) => self.tree.insert(id, spec),
            None if !self.tree.contains(id) => self.tree.insert(id, PrioritySpec::default()),
            None => {}
        }
        let end_stream = opened.end_stream;
        self.events.push_back(Event::Headers { stream: id, headers, end_stream });
        Ok(())
    }

    /// §5.1.2: a stream past the concurrency limit is refused (a stream
    /// error); a limit's worth of refusals more is a connection error.
    fn refused(&mut self, id: u32) -> Result<bool, ConnError> {
        let active = self.streams.values().filter(|s| s.state != Closed).count();
        if active < self.limits.max_concurrent_streams as usize {
            return Ok(false);
        }
        self.refused = self.refused.saturating_add(1);
        if self.refused > self.limits.max_concurrent_streams {
            return Err(ConnError::ConcurrentStreamsExceeded);
        }
        self.queue(Frame::RstStream { stream: id, code: ErrorCode::RefusedStream });
        let error = StreamError::RefusedByLimit;
        self.events.push_back(Event::StreamError { stream: id, error });
        Ok(true)
    }

    // ----- stream table and control queue -----

    /// A stream leaves idle. A hostile peer may name an id in use; the old
    /// stream is simply forgotten.
    fn open(&mut self, id: u32, state: StreamState) {
        assert!(
            matches!(state, Open | HalfClosedLocal | ReservedLocal | ReservedRemote),
            "§5.1 has no edge idle -> {state:?}"
        );
        let window = self.peer_initial_window;
        let stream = Stream {
            state,
            window,
            initial: window,
            updates: 0,
            deltas: 0,
            sent: 0,
            queued: 0,
            fin: false,
            headers_sent: false,
            unacked: 0,
        };
        self.streams.insert(id, stream);
    }

    fn close(&mut self, id: u32) {
        if let Some(s) = self.streams.get_mut(&id) {
            s.enter(Closed);
            s.queued = 0;
        }
        self.tree.remove(id);
    }

    /// HEADERS, cut into CONTINUATION frames to fit the peer's frame size
    /// less room for a priority section.
    fn send_block(&mut self, id: u32, block: &[u8], end_stream: bool, spec: Option<PrioritySpec>) {
        let (limit, priority) = (self.peer_max_frame - 16, spec);
        let first = &block[..limit.min(block.len())];
        let end_headers = first.len() == block.len();
        self.queue(FrameOf::Headers {
            stream: id,
            block: first,
            end_stream,
            end_headers,
            priority,
        });
        let mut pos = first.len();
        for fragment in block[pos..].chunks(limit) {
            pos += fragment.len();
            let end_headers = pos == block.len();
            self.queue(FrameOf::Continuation { stream: id, block: fragment, end_headers });
        }
    }

    fn queue<B: AsRef<[u8]>>(&mut self, frame: FrameOf<B>) {
        let mut bytes = Vec::new();
        frame.encode(&mut bytes);
        self.control.push_back(bytes);
        if self.control.len() > self.limits.max_control_frames && !self.dead {
            self.fatal(ConnError::ControlQueueOverflow);
        }
    }

    fn fatal(&mut self, error: ConnError) {
        self.dead = true;
        self.queue(Frame::GoAway { last_stream: 0, code: error.code() });
        self.events.push_back(Event::ConnectionError { error });
    }

    /// §6.9 conservation: every window is where it started, plus the credit
    /// it was given, minus the DATA sent against it.
    fn check(&self) {
        for (id, s) in &self.streams {
            let ledger = s.initial + s.updates + s.deltas - s.sent as i64;
            assert_eq!(s.window, ledger, "stream {id}'s window left its ledger");
        }
        let ledger = DEFAULT_WINDOW + self.conn_updates - self.conn_sent as i64;
        assert_eq!(self.conn_window, ledger, "the connection window left its ledger");
    }
}
