//! The receive side: frame intake (DATA payload counted, never stored),
//! dispatch, and header blocks reassembled across CONTINUATION frames.

use super::{send::frame_meta, Connection, Event, Role, StreamState};
use crate::error::{ConnError, StreamError};
use crate::frame::{ErrorCode, FrameError, FrameHead, FrameOf, FrameRef, PrioritySpec, Settings};
use crate::frame::{DEFAULT_MAX_FRAME_SIZE, DEFAULT_WINDOW, FRAME_HEADER_LEN, PREFACE};
use h2push_trace::TraceEvent;
use std::sync::Arc;

/// What the frame that opened a header block said about it; the block's
/// octets are elsewhere (see [`Connection::header_frag`]).
#[derive(Clone, Copy)]
pub(super) struct PendingHeaders {
    stream: u32,
    promised: Option<u32>,
    end_stream: bool,
    priority: Option<PrioritySpec>,
}

impl Connection {
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
        // DATA payload is never stored: what waits is a partial header or
        // part of one frame of another type.
        let buf = &self.recv_buf;
        debug_assert!(FrameHead::parse(buf)
            .is_none_or(|h| !h.is_data() && buf.len() < FRAME_HEADER_LEN + h.len));
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
                    self.shift_send_windows(delta);
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
                } else if let Some(window) = self.streams.get(stream).map(|s| s.send_window) {
                    if window + increment as i64 > MAX_WINDOW {
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
                    self.update_stream(stream, |s| s.send_window += increment as i64);
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
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::frame::Frame;
    use crate::scheduler::FifoScheduler;
    use bytes::Bytes;
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

    #[test]
    fn priority_on_stream_zero_leaves_the_tree_a_tree() {
        // The root must not become its own child: the schedulers' walk
        // would recurse until the stack overflowed.
        let mut s = Connection::server(Settings::default());
        let mut c = Connection::client(Settings::default());
        let id = c.request(&request_headers(), None);
        exchange(&mut c, &mut s);
        while s.poll_event().is_some() {}
        let mut buf = Vec::new();
        let spec = PrioritySpec { depends_on: id, weight: 8, exclusive: true };
        Frame::Priority { stream: 0, spec }.encode(&mut buf);
        s.receive(&buf);
        assert_eq!(s.tree().children(0).collect::<Vec<_>>(), [id]);
        s.respond(id, &[h(":status", "200")], false);
        s.queue_body(id, 100, true);
        let out = s.produce(usize::MAX, &mut crate::scheduler::DefaultScheduler);
        assert!(out.len() > 100 && !s.is_dead());
    }
}
