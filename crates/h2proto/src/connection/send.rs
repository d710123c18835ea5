//! The send side: the control queue, the local API (requests, responses,
//! pushes, resets) and `produce_into`, which drains control frames and
//! then lets the scheduler pick DATA.

use super::{Connection, Event, Role, StreamState};
use crate::error::{ConnError, StreamError};
use crate::frame::{ErrorCode, FrameOf, FrameRef, PrioritySpec, FRAME_HEADER_LEN};
use crate::sansio::WireSink;
use crate::scheduler::Scheduler;
use bytes::{Bytes, BytesMut};
use h2push_hpack::HeaderField;
use h2push_trace::{FrameKind as TraceFrameKind, TraceEvent, TraceHandle};
use std::collections::VecDeque;

/// Encoded control frames awaiting [`Connection::produce_into`], back to
/// back in one byte ring, plus the length of each: a frame is encoded
/// once, straight into the ring, and leaves it in one move. A recycled
/// connection's ring keeps its capacity, so queueing allocates nothing.
#[derive(Default)]
pub(super) struct ControlQueue {
    bytes: VecDeque<u8>,
    /// Length of each queued frame, oldest first. Frames are atomic on
    /// the wire; the client preface and its SETTINGS count as one.
    frame_lens: VecDeque<usize>,
}

impl ControlQueue {
    /// Queue whatever `encode` writes as one frame.
    pub(super) fn push(&mut self, encode: impl FnOnce(&mut VecDeque<u8>)) {
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

    pub(super) fn clear(&mut self) {
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

/// `(kind, stream, payload bytes)` of a frame, for trace stamping only.
pub(super) fn frame_meta(frame: &FrameRef<'_>) -> (TraceFrameKind, u32, u32) {
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
    pub(super) fn queue_frame(&mut self, frame: FrameRef<'_>) {
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

    pub(super) fn trace_limit_violation(&mut self, stream: u32, fatal: bool) {
        if self.trace.is_on() {
            self.trace.emit(TraceEvent::LimitViolation {
                conn: self.trace_conn,
                role: self.trace_role(),
                stream,
                fatal,
            });
        }
    }

    pub(super) fn fatal(&mut self, error: ConnError) {
        self.dead = true;
        self.recv_buf.clear();
        self.data_in_flight = None;
        if error.is_limit_violation() {
            self.trace_limit_violation(0, true);
        }
        self.queue_frame(FrameOf::GoAway { last_stream: 0, code: error.code() });
        self.events.push_back(Event::ConnectionError { error });
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
        !self.control.is_empty() || self.data_sendable()
    }

    /// The connection window is open and some ready entry's own window is.
    fn data_sendable(&self) -> bool {
        self.conn_send_window > 0 && self.ready.iter().any(|s| s.sendable > 0)
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
        debug_assert!(self.ready_matches_slab(), "ready set out of step with the streams");
        let mut written = self.control.drain_into(max, sink);
        while written < max && self.data_sendable() {
            // The ready set is the snapshot: ascending, the order the
            // deterministic schedulers depend on, and kept current by
            // every write to a stream.
            let Some(id) = scheduler.pick(&self.ready, &self.tree) else { break };
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
            if end_stream {
                self.tree.remove(id);
                scheduler.stream_closed(id);
            }
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, Settings};
    use crate::scheduler::{DefaultScheduler, FifoScheduler};
    use h2push_hpack::Header;

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
}
