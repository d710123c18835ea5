//! Per-stream state, and the two caches the connection keeps of it: the
//! ready set and the active-stream count. Every write to a stream goes
//! through [`Connection::update_stream`] or [`Connection::insert_stream`],
//! which re-derive both; a SETTINGS window delta, which moves every
//! stream at once, re-derives the ready set through
//! [`Connection::shift_send_windows`].

use super::Connection;
use crate::scheduler::StreamSnapshot;

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

    /// The stream's ready-set entry, if it has unsent body: `sendable` is
    /// what its own window lets out, the connection window left aside.
    fn ready_entry(&self, id: u32) -> Option<StreamSnapshot> {
        self.has_unsent_body().then(|| StreamSnapshot {
            id,
            sendable: self.sendable(i64::MAX),
            sent: self.out.sent,
            is_push: id.is_multiple_of(2),
        })
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
    /// caches about it — the active-stream count and its ready-set entry
    /// — so no call site can leave either stale. `None` when the stream
    /// is unknown.
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
        let entry = s.ready_entry(stream);
        self.set_ready(stream, entry);
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
        self.set_ready(stream, None);
    }

    /// Close `stream` in both directions, dropping its queued body.
    pub(super) fn close_stream(&mut self, stream: u32) {
        self.update_stream(stream, |s| {
            s.state = StreamState::Closed;
            s.out.queued = 0;
        });
        self.tree.remove(stream);
    }

    /// Move every stream's send window by `delta` (a SETTINGS change of
    /// the initial window), then re-derive each ready entry once.
    pub(super) fn shift_send_windows(&mut self, delta: i64) {
        for s in self.streams.values_mut() {
            s.send_window += delta;
        }
        for entry in &mut self.ready {
            if let Some(s) = self.streams.get(entry.id) {
                entry.sendable = s.sendable(i64::MAX);
            }
        }
    }

    fn set_ready(&mut self, stream: u32, entry: Option<StreamSnapshot>) {
        match (self.ready.binary_search_by_key(&stream, |e| e.id), entry) {
            (Ok(pos), Some(entry)) => self.ready[pos] = entry,
            (Err(pos), Some(entry)) => self.ready.insert(pos, entry),
            (Ok(pos), None) => {
                self.ready.remove(pos);
            }
            (Err(_), None) => {}
        }
    }

    /// Whether `ready` is what a rebuild from the slab would make:
    /// ascending, one entry per stream with unsent body, each equal to the
    /// stream's own. Counts instead of collecting, so a debug build
    /// allocates no more than a release one.
    pub(super) fn ready_matches_slab(&self) -> bool {
        let entry_of = |id| self.streams.get(id).and_then(|s: &Stream| s.ready_entry(id));
        self.ready.windows(2).all(|w| w[0].id < w[1].id)
            && self.ready.iter().all(|e| entry_of(e.id) == Some(*e))
            && self.streams.values().filter(|s| s.has_unsent_body()).count() == self.ready.len()
    }
}

/// Dense slots pre-reserved per parity in a new connection's stream slab
/// — enough for every benign page replay in the corpus.
pub(super) const SLAB_INITIAL_SLOTS: usize = 64;
