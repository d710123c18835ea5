//! The per-run event log and its derived summaries.

use crate::event::{FrameKind, Micros, Role, TraceEvent};

/// Everything one traced replay emitted, in emission order.
///
/// Equality is exact (`Eq`): two timelines compare equal only if every
/// event and every timestamp matches bit for bit, which is the determinism
/// contract the test suite asserts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    events: Vec<(Micros, TraceEvent)>,
}

/// Per-stream byte accounting derived from server-side DATA frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamBytes {
    /// Replay connection label the stream lives on.
    pub conn: u32,
    pub stream: u32,
    /// Total DATA payload bytes the server emitted on the stream.
    pub data_bytes: u64,
    /// Number of DATA frames.
    pub data_frames: u32,
    /// When the server set END_STREAM, if traced.
    pub closed_at: Option<Micros>,
}

/// Per-resource lifecycle extracted from browser events: the one
/// per-resource record of a load (a `LoadResult` keeps page-level
/// measurements only). The waterfall text and JSON exports and the HAR
/// export render it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceSpan {
    pub resource: usize,
    pub discovered: Option<Micros>,
    /// When the request (or push adoption) went on the wire.
    pub requested: Option<Micros>,
    pub loaded: Option<Micros>,
    pub evaluated: Option<Micros>,
    /// Arrived via server push rather than a client request.
    pub pushed: bool,
    pub failed: bool,
    /// HTTP/2 stream carrying the response, if known.
    pub stream: Option<u32>,
}

impl Timeline {
    /// An empty timeline with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Timeline { events: Vec::with_capacity(cap) }
    }

    /// Drop all events but keep the allocation, so a recycled timeline
    /// records the next run without reallocating.
    pub fn reset(&mut self) {
        self.events.clear();
    }

    pub fn push(&mut self, at: Micros, ev: TraceEvent) {
        self.events.push((at, ev));
    }

    pub fn events(&self) -> &[(Micros, TraceEvent)] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, ev)| pred(ev)).count()
    }

    /// Server-side DATA byte accounting per `(conn, stream)`, sorted.
    pub fn stream_accounting(&self) -> Vec<StreamBytes> {
        let mut rows: Vec<StreamBytes> = Vec::new();
        for &(at, ev) in &self.events {
            if let TraceEvent::FrameSent {
                conn,
                role: Role::Server,
                stream,
                kind: FrameKind::Data,
                bytes,
                end_stream,
            } = ev
            {
                let row = match rows.iter_mut().find(|r| r.conn == conn && r.stream == stream) {
                    Some(r) => r,
                    None => {
                        rows.push(StreamBytes {
                            conn,
                            stream,
                            data_bytes: 0,
                            data_frames: 0,
                            closed_at: None,
                        });
                        rows.last_mut().expect("just pushed")
                    }
                };
                row.data_bytes += bytes as u64;
                row.data_frames += 1;
                if end_stream {
                    row.closed_at.get_or_insert(at);
                }
            }
        }
        rows.sort_by_key(|r| (r.conn, r.stream));
        rows
    }

    /// Per-resource lifecycle rows, sorted by resource id.
    ///
    /// First-write-wins per field: retries never rewind a milestone. A
    /// warm-cache hit loads the instant it is discovered.
    pub fn resource_spans(&self) -> Vec<ResourceSpan> {
        let mut rows: Vec<ResourceSpan> = Vec::new();
        let row = |rows: &mut Vec<ResourceSpan>, id: usize| -> usize {
            match rows.iter().position(|r| r.resource == id) {
                Some(i) => i,
                None => {
                    rows.push(ResourceSpan { resource: id, ..Default::default() });
                    rows.len() - 1
                }
            }
        };
        for &(at, ev) in &self.events {
            match ev {
                TraceEvent::ResourceDiscovered { resource } => {
                    let i = row(&mut rows, resource);
                    rows[i].discovered.get_or_insert(at);
                }
                TraceEvent::RequestSent { resource, stream, .. } => {
                    let i = row(&mut rows, resource);
                    rows[i].requested.get_or_insert(at);
                    if rows[i].stream.is_none() {
                        rows[i].stream = Some(stream);
                    }
                }
                TraceEvent::PushAccepted { resource, stream, .. } => {
                    let i = row(&mut rows, resource);
                    rows[i].requested.get_or_insert(at);
                    rows[i].pushed = true;
                    rows[i].stream = Some(stream);
                }
                TraceEvent::ResourceLoaded { resource } => {
                    let i = row(&mut rows, resource);
                    rows[i].loaded.get_or_insert(at);
                }
                TraceEvent::ResourceEvaluated { resource } => {
                    let i = row(&mut rows, resource);
                    rows[i].evaluated.get_or_insert(at);
                }
                TraceEvent::ResourceFailed { resource } => {
                    let i = row(&mut rows, resource);
                    rows[i].failed = true;
                }
                _ => {}
            }
        }
        rows.sort_by_key(|r| r.resource);
        rows
    }

    /// Timestamp of the first event matching `pred`.
    pub fn first_at(&self, pred: impl Fn(&TraceEvent) -> bool) -> Option<Micros> {
        self.events.iter().find(|(_, ev)| pred(ev)).map(|&(at, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropCause, FrameKind, Role, TraceEvent};

    fn data(conn: u32, stream: u32, bytes: u32, end: bool) -> TraceEvent {
        TraceEvent::FrameSent {
            conn,
            role: Role::Server,
            stream,
            kind: FrameKind::Data,
            bytes,
            end_stream: end,
        }
    }

    #[test]
    fn stream_accounting_sums_server_data_only() {
        let mut tl = Timeline::default();
        tl.push(10, data(0, 1, 1000, false));
        tl.push(20, data(0, 2, 300, true));
        tl.push(30, data(0, 1, 460, true));
        // Client-role and non-DATA frames are ignored.
        tl.push(
            35,
            TraceEvent::FrameSent {
                conn: 0,
                role: Role::Client,
                stream: 1,
                kind: FrameKind::Data,
                bytes: 99,
                end_stream: false,
            },
        );
        tl.push(
            40,
            TraceEvent::FrameSent {
                conn: 0,
                role: Role::Server,
                stream: 1,
                kind: FrameKind::Headers,
                bytes: 50,
                end_stream: false,
            },
        );
        let rows = tl.stream_accounting();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            StreamBytes {
                conn: 0,
                stream: 1,
                data_bytes: 1460,
                data_frames: 2,
                closed_at: Some(30),
            }
        );
        assert_eq!(rows[1].data_bytes, 300);
        assert_eq!(rows[1].closed_at, Some(20));
    }

    #[test]
    fn resource_spans_are_first_write_wins_and_sorted() {
        let mut tl = Timeline::default();
        tl.push(5, TraceEvent::ResourceDiscovered { resource: 2 });
        tl.push(6, TraceEvent::RequestSent { resource: 2, group: 0, stream: 3 });
        tl.push(7, TraceEvent::PushAccepted { resource: 1, group: 0, stream: 2 });
        tl.push(9, TraceEvent::ResourceLoaded { resource: 1 });
        tl.push(11, TraceEvent::ResourceLoaded { resource: 2 });
        tl.push(12, TraceEvent::ResourceLoaded { resource: 2 }); // retry echo: ignored
        tl.push(13, TraceEvent::ResourceEvaluated { resource: 2 });
        let rows = tl.resource_spans();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].resource, 1);
        assert!(rows[0].pushed);
        assert_eq!(rows[0].requested, Some(7));
        assert_eq!(rows[0].stream, Some(2));
        assert_eq!(rows[1].resource, 2);
        assert!(!rows[1].pushed);
        assert_eq!(rows[1].loaded, Some(11));
        assert_eq!(rows[1].evaluated, Some(13));
    }

    #[test]
    fn count_and_first_at_filter_events() {
        let mut tl = Timeline::default();
        tl.push(1, TraceEvent::FaultDrop { conn: 0, cause: DropCause::Fault });
        tl.push(2, TraceEvent::Retransmit { conn: 0 });
        tl.push(3, TraceEvent::FaultDrop { conn: 1, cause: DropCause::Queue });
        assert_eq!(tl.count(|e| matches!(e, TraceEvent::FaultDrop { .. })), 2);
        assert_eq!(tl.first_at(|e| matches!(e, TraceEvent::Retransmit { .. })), Some(2));
        assert_eq!(tl.first_at(|e| matches!(e, TraceEvent::Onload)), None);
    }
}
