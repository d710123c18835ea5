//! Per-stream state, and the two caches the connection keeps of it: the
//! ready set and the active-stream count. Every write to a stream goes
//! through [`Connection::update_stream`] or [`Connection::insert_stream`],
//! which re-derive both.

use super::Connection;

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
    pub(super) fn send_closed(self) -> Self {
        match self {
            StreamState::Open => StreamState::HalfClosedLocal,
            StreamState::HalfClosedRemote | StreamState::ReservedLocal => StreamState::Closed,
            other => other,
        }
    }
}

#[derive(Debug)]
pub(super) struct OutBody {
    pub(super) queued: usize,
    pub(super) fin: bool,
    pub(super) sent: u64,
    pub(super) headers_sent: bool,
}

#[derive(Debug)]
pub(super) struct Stream {
    pub(super) state: StreamState,
    pub(super) send_window: i64,
    pub(super) recv_consumed: usize,
    pub(super) out: OutBody,
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
    pub(super) fn sendable(&self, conn_window: i64) -> usize {
        self.out.queued.min(conn_window.max(0) as usize).min(self.send_window.max(0) as usize)
    }

    /// The response ended without a last DATA frame to carry END_STREAM:
    /// headers out, send side still open, `fin` set and nothing queued.
    pub(super) fn owes_empty_fin(&self) -> bool {
        self.out.headers_sent
            && self.out.fin
            && self.out.queued == 0
            && matches!(self.state, StreamState::Open | StreamState::HalfClosedRemote)
    }
}

impl Connection {
    /// Mutate `stream` through `f`, then re-derive what the connection
    /// caches about it — the active-stream count and the ready-set
    /// membership — so no call site can leave either stale. `None` when
    /// the stream is unknown.
    pub(super) fn update_stream<R>(
        &mut self,
        stream: u32,
        f: impl FnOnce(&mut Stream) -> R,
    ) -> Option<R> {
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
    pub(super) fn insert_stream(&mut self, stream: u32, state: StreamState) {
        let displaced = self.streams.insert(stream, Stream::new(state, self.peer_initial_window));
        if !displaced.is_some_and(|old| old.state != StreamState::Closed) {
            self.active_streams += 1;
        }
        self.set_ready(stream, false);
    }

    /// Close `stream` in both directions, dropping its queued body.
    pub(super) fn close_stream(&mut self, stream: u32) {
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
}

/// Dense slots pre-reserved per parity in a new connection's stream slab
/// — enough for every benign page replay in the corpus.
pub(super) const SLAB_INITIAL_SLOTS: usize = 64;
