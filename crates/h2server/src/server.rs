//! The replay server: h2o + FastCGI-record-matching equivalent (§4.1).
//!
//! One [`ReplayServer`] instance stands in for one server group of the
//! recorded deployment (Mahimahi spawns one server per origin IP; origins
//! coalesced by certificate share a group). It answers requests from the
//! record database, and — on the group hosting the base document — executes
//! the configured push strategy, either with the stock child-of-parent
//! scheduler or with the paper's interleaving scheduler.

use crate::interleave::InterleavingScheduler;
use bytes::Bytes;
use h2push_h2proto::{
    CacheDigest, ConnError, Connection, DefaultScheduler, Event, Scheduler, Settings,
};
use h2push_hpack::Header;
use h2push_netsim::SimTime;
use h2push_strategies::Strategy;
use h2push_trace::{TraceEvent, TraceHandle};
use h2push_webmodel::{Page, RecordDb, ResourceId};
use std::sync::Arc;

/// A request observation (for computing push orders, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestObservation {
    /// Which resource was requested.
    pub resource: ResourceId,
    /// When the request arrived at the server.
    pub at: SimTime,
}

/// Precomputed per-resource server metadata, shared across every
/// connection of every repetition of a page.
///
/// The header lists are built exactly as the live path builds them, so a
/// prepared server's wire output is byte-identical to an unprepared one —
/// it just skips re-formatting `content-length`, the response header
/// triple and the synthetic push request on every request.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Response headers (`:status`/`content-type`/`content-length`) per
    /// resource, indexed by [`ResourceId`].
    resp_headers: Vec<Vec<Header>>,
    /// Synthetic request headers a push promise carries, per resource.
    push_req: Vec<Vec<Header>>,
    /// Full URL per resource (cache-digest membership checks).
    urls: Vec<String>,
}

impl Prepared {
    /// Build the per-resource header lists for `page`.
    pub fn build(page: &Page) -> Self {
        let mut resp_headers = Vec::with_capacity(page.resources.len());
        let mut push_req = Vec::with_capacity(page.resources.len());
        let mut urls = Vec::with_capacity(page.resources.len());
        for r in &page.resources {
            let host = &page.origins[r.origin].host;
            resp_headers.push(vec![
                Header::new(":status", "200"),
                Header::new("content-type", r.rtype.mime()),
                Header::new("content-length", &r.size.to_string()),
            ]);
            push_req.push(vec![
                Header::new(":method", "GET"),
                Header::new(":scheme", "https"),
                Header::new(":authority", host),
                Header::new(":path", &r.path),
            ]);
            urls.push(r.url(host));
        }
        Prepared { resp_headers, push_req, urls }
    }
}

/// The scheduler variants a replay server can run.
enum Sched {
    /// h2o stock behaviour.
    Default(DefaultScheduler),
    /// The paper's modified scheduler.
    Interleaving(InterleavingScheduler),
}

impl Sched {
    fn as_dyn(&mut self) -> &mut dyn Scheduler {
        match self {
            Sched::Default(s) => s,
            Sched::Interleaving(s) => s,
        }
    }

    fn interleaving(&mut self) -> Option<&mut InterleavingScheduler> {
        match self {
            Sched::Interleaving(s) => Some(s),
            Sched::Default(_) => None,
        }
    }
}

/// One replay server (= one server group).
///
/// The page and record database are shared immutable inputs: every server
/// group of every connection of every repetition points at the same
/// [`Arc`]s, so opening a connection no longer clones the page or rebuilds
/// the database.
pub struct ReplayServer {
    page: Arc<Page>,
    db: Arc<RecordDb>,
    /// Optional precomputed header lists; `None` formats headers live.
    prepared: Option<Arc<Prepared>>,
    group: usize,
    conn: Connection,
    sched: Sched,
    /// The armed strategy; `None` on groups that never push, so firing it
    /// on the document request is an `Arc` refbump, not a deep clone.
    strategy: Option<Arc<Strategy>>,
    html_stream: Option<u32>,
    observations: Vec<RequestObservation>,
    pushed_bytes: u64,
    /// Whether a received `cache-digest` header suppresses pushes of
    /// cached resources (the draft behaviour); configurable so the waste
    /// of digest-oblivious deployments can be measured.
    honor_cache_digest: bool,
    client_digest: Option<CacheDigest>,
    digest_suppressed: u32,
    /// Protocol violations seen from the client (connection- and
    /// stream-level). Under fault injection corrupted input is *data*, not
    /// a bug: the connection answers with GOAWAY/RST and the count is
    /// surfaced instead of panicking.
    protocol_errors: u32,
    /// The first fatal connection error, if any (the connection is dead
    /// after it; remaining queued bytes — the GOAWAY — still drain).
    fatal_error: Option<ConnError>,
    trace: TraceHandle,
    /// Replay connection label stamped into push events.
    trace_conn: u32,
}

impl ReplayServer {
    /// Create the server for `group`. The strategy only fires on the group
    /// serving the document (group of origin 0); other groups never push.
    /// `page` and `db` are shared, pre-built inputs; the strategy is an
    /// `Arc` refbump, never a deep clone.
    pub fn new(page: Arc<Page>, db: Arc<RecordDb>, group: usize, strategy: &Arc<Strategy>) -> Self {
        let main_group = page.server_group_of(ResourceId(0));
        let effective = Self::arm(group, main_group, strategy);
        let sched = match effective.as_deref() {
            Some(Strategy::Interleaved { offset, .. }) => {
                Sched::Interleaving(InterleavingScheduler::new(*offset))
            }
            _ => Sched::Default(DefaultScheduler::new()),
        };
        ReplayServer {
            page,
            db,
            prepared: None,
            group,
            conn: Connection::server(Settings::default()),
            sched,
            strategy: effective,
            html_stream: None,
            observations: Vec::new(),
            pushed_bytes: 0,
            honor_cache_digest: true,
            client_digest: None,
            digest_suppressed: 0,
            protocol_errors: 0,
            fatal_error: None,
            trace: TraceHandle::off(),
            trace_conn: 0,
        }
    }

    /// The strategy armed on `group`: the real one on the document's
    /// group, nothing elsewhere.
    fn arm(group: usize, main_group: usize, strategy: &Arc<Strategy>) -> Option<Arc<Strategy>> {
        if group == main_group {
            Some(Arc::clone(strategy))
        } else {
            None
        }
    }

    /// Recycle this instance into a fresh server for (possibly different)
    /// inputs: equivalent to [`ReplayServer::new`] but reusing every buffer
    /// the previous life grew — the HTTP/2 connection, the scheduler's
    /// critical list and the observation log are cleared, not reallocated.
    pub fn reset(
        &mut self,
        page: Arc<Page>,
        db: Arc<RecordDb>,
        group: usize,
        strategy: &Arc<Strategy>,
    ) {
        let main_group = page.server_group_of(ResourceId(0));
        let effective = Self::arm(group, main_group, strategy);
        match (effective.as_deref(), &mut self.sched) {
            (Some(Strategy::Interleaved { offset, .. }), Sched::Interleaving(il)) => {
                il.reset(*offset)
            }
            (Some(Strategy::Interleaved { offset, .. }), sched) => {
                *sched = Sched::Interleaving(InterleavingScheduler::new(*offset))
            }
            (_, Sched::Default(_)) => {}
            (_, sched) => *sched = Sched::Default(DefaultScheduler::new()),
        }
        self.page = page;
        self.db = db;
        self.prepared = None;
        self.group = group;
        self.conn.reset_server(Settings::default());
        self.strategy = effective;
        self.html_stream = None;
        self.observations.clear();
        self.pushed_bytes = 0;
        self.honor_cache_digest = true;
        self.client_digest = None;
        self.digest_suppressed = 0;
        self.protocol_errors = 0;
        self.fatal_error = None;
        self.trace = TraceHandle::off();
        self.trace_conn = 0;
    }

    /// Attach a trace handle, forwarded to the HTTP/2 endpoint and the
    /// scheduler; `conn` is the replay connection label.
    pub fn set_trace(&mut self, trace: TraceHandle, conn: u32) {
        self.conn.set_trace(trace.clone(), conn);
        if let Some(il) = self.sched.interleaving() {
            il.set_trace(trace.clone());
        }
        self.trace = trace;
        self.trace_conn = conn;
    }

    /// Control whether `cache-digest` headers suppress pushes (on by
    /// default; turn off to model digest-oblivious deployments).
    pub fn set_honor_cache_digest(&mut self, honor: bool) {
        self.honor_cache_digest = honor;
    }

    /// Attach precomputed header lists ([`Prepared::build`] of the same
    /// page). Purely a fast path: responses are byte-identical either way.
    pub fn set_prepared(&mut self, prepared: Arc<Prepared>) {
        self.prepared = Some(prepared);
    }

    /// Share a memoized HPACK block cache with this connection's encoder.
    pub fn set_hpack_block_cache(&mut self, cache: h2push_h2proto::BlockCache) {
        self.conn.set_hpack_block_cache(cache);
    }

    /// Share a memoized HPACK decode cache with this connection's decoder.
    pub fn set_hpack_decode_cache(&mut self, cache: h2push_hpack::DecodeCache) {
        self.conn.set_hpack_decode_cache(cache);
    }

    /// Override the endpoint's adversarial-peer resource limits
    /// ([`h2push_h2proto::ConnLimits`]); purely local policy, never
    /// advertised on the wire.
    pub fn set_limits(&mut self, limits: h2push_h2proto::ConnLimits) {
        self.conn.set_limits(limits);
    }

    /// Pushes skipped because the client's digest already covered them.
    pub fn digest_suppressed(&self) -> u32 {
        self.digest_suppressed
    }

    /// Protocol violations observed on this connection (0 on clean runs).
    pub fn protocol_errors(&self) -> u32 {
        self.protocol_errors
    }

    /// The fatal connection error that killed this connection, if any.
    pub fn fatal_error(&self) -> Option<ConnError> {
        self.fatal_error
    }

    /// True once the client's 24-octet connection preface has arrived
    /// (the live runtime's accept-to-preface supervision signal).
    pub fn preface_received(&self) -> bool {
        self.conn.preface_received()
    }

    /// True once a fatal [`ConnError`] killed the connection: it ignores
    /// further input and produces at most its final GOAWAY.
    pub fn is_dead(&self) -> bool {
        self.conn.is_dead()
    }

    /// The server group this instance answers for.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Requests observed so far (arrival order).
    pub fn observations(&self) -> &[RequestObservation] {
        &self.observations
    }

    /// Bytes of response bodies queued for push streams.
    pub fn pushed_bytes(&self) -> u64 {
        self.pushed_bytes
    }

    /// Feed wire bytes from the client; handles any completed requests.
    pub fn on_bytes(&mut self, bytes: &[u8], now: SimTime) {
        self.conn.receive(bytes);
        while let Some(ev) = self.conn.poll_event() {
            match ev {
                Event::Headers { stream, headers, .. } => {
                    self.handle_request(stream, &headers, now);
                }
                Event::Reset { .. }
                | Event::Settings(_)
                | Event::SettingsAck
                | Event::Priority { .. }
                | Event::GoAway { .. } => {}
                Event::Data { .. } | Event::PushPromise { .. } => {
                    // Clients send neither bodies nor pushes in the replay.
                }
                Event::StreamError { .. } => {
                    // One stream failed; the connection (and every other
                    // stream on it) carries on.
                    self.protocol_errors += 1;
                }
                Event::ConnectionError { error } => {
                    // The connection has queued its GOAWAY and is dead;
                    // record the cause and let the client's recovery
                    // (reopen / retry) drive what happens next.
                    self.protocol_errors += 1;
                    self.fatal_error.get_or_insert(error);
                }
            }
        }
    }

    /// True when the connection has bytes to transmit.
    pub fn wants_send(&self) -> bool {
        self.conn.wants_send()
    }

    /// Produce up to `max` wire bytes under the configured scheduler.
    pub fn produce(&mut self, max: usize) -> Bytes {
        self.conn.produce(max, self.sched.as_dyn())
    }

    /// Build a live-mode server for `page`: the strategy is armed
    /// unconditionally (every live connection may receive the document
    /// request, and only the one that does triggers pushes), so the same
    /// instance answers any origin of the page by host+path lookup.
    pub fn live(page: Arc<Page>, db: Arc<RecordDb>, strategy: &Arc<Strategy>) -> Self {
        let main_group = page.server_group_of(ResourceId(0));
        Self::new(page, db, main_group, strategy)
    }

    fn handle_request(&mut self, stream: u32, headers: &[Header], now: SimTime) {
        // Borrowed (Cow) header values: valid UTF-8 — the always case in a
        // replay — costs no allocation.
        let find = |n: &[u8]| {
            headers
                .iter()
                .find(|h| h.name == n)
                .map(|h| String::from_utf8_lossy(&h.value))
                .unwrap_or(std::borrow::Cow::Borrowed(""))
        };
        let host = find(b":authority");
        let path = find(b":path");
        if let Some(d) = headers
            .iter()
            .find(|h| h.name == b"cache-digest")
            .and_then(|h| CacheDigest::from_hex(&String::from_utf8_lossy(&h.value)))
        {
            self.client_digest = Some(d);
        }
        // Borrow the record through a local Arc handle so the response can
        // be queued without cloning the record.
        let db = Arc::clone(&self.db);
        let Some(rec) = db.lookup(&host, &path) else {
            // Mahimahi aborts on unmatched requests; we answer 404 so a
            // broken strategy surfaces as a failed load, not a hang.
            self.conn.respond(
                stream,
                &[Header::new(":status", "404"), Header::new("content-length", "0")],
                true,
            );
            return;
        };
        self.observations.push(RequestObservation { resource: rec.resource, at: now });

        let is_html = rec.resource == ResourceId(0);
        if is_html {
            self.html_stream = Some(stream);
            if let Some(il) = self.sched.interleaving() {
                il.set_parent(stream);
            }
            // Fire the strategy: promises go out before the document's
            // response so the client cannot race requests for them. The
            // `Arc` clone is a refbump that releases the borrow on `self`.
            if let Some(strategy) = self.strategy.clone() {
                match &*strategy {
                    Strategy::NoPush => {}
                    Strategy::PushList { order } => {
                        for &rid in order {
                            self.start_push(stream, rid, false);
                        }
                    }
                    Strategy::Interleaved { critical, after, .. } => {
                        // All promises go out up front (h2o promises before
                        // the referencing bytes); only the critical list
                        // takes part in the hard switch. The `after` pushes
                        // stay ordinary children of the document stream, so
                        // the stock tree scheduling delivers them once the
                        // document finished.
                        for &rid in critical {
                            self.start_push(stream, rid, true);
                        }
                        for &rid in after {
                            self.start_push(stream, rid, false);
                        }
                    }
                }
            }
        }

        // The response itself. The prepared header list is byte-identical
        // to the live formatting below (both derive from the same page).
        match &self.prepared {
            Some(p) => self.conn.respond(stream, &p.resp_headers[rec.resource.0], false),
            None => self.conn.respond(
                stream,
                &[
                    Header::new(":status", "200"),
                    Header::new("content-type", &rec.content_type),
                    Header::new("content-length", &rec.body_len.to_string()),
                ],
                false,
            ),
        }
        self.conn.queue_body(stream, rec.body_len, true);
    }

    fn start_push(&mut self, parent: u32, rid: ResourceId, critical: bool) {
        let page = Arc::clone(&self.page);
        let prepared = self.prepared.clone();
        let r = page.resource(rid);
        let host = &page.origins[r.origin].host;
        if self.honor_cache_digest {
            if let Some(d) = &self.client_digest {
                let covered = match &prepared {
                    Some(p) => d.contains(&p.urls[rid.0]),
                    None => d.contains(&r.url(host)),
                };
                if covered {
                    self.digest_suppressed += 1;
                    return;
                }
            }
        }
        let live_req;
        let req: &[Header] = match &prepared {
            Some(p) => &p.push_req[rid.0],
            None => {
                live_req = vec![
                    Header::new(":method", "GET"),
                    Header::new(":scheme", "https"),
                    Header::new(":authority", host),
                    Header::new(":path", &r.path),
                ];
                &live_req
            }
        };
        let Some(promised) = self.conn.push_promise(parent, req) else {
            return; // peer disabled push, or parent gone
        };
        self.trace.emit(TraceEvent::PushPromised {
            conn: self.trace_conn,
            parent,
            promised,
            resource: rid.0,
            critical,
        });
        if critical {
            if let Some(il) = self.sched.interleaving() {
                il.add_critical(promised);
            }
        }
        match &prepared {
            Some(p) => self.conn.respond(promised, &p.resp_headers[rid.0], false),
            None => self.conn.respond(
                promised,
                &[
                    Header::new(":status", "200"),
                    Header::new("content-type", r.rtype.mime()),
                    Header::new("content-length", &r.size.to_string()),
                ],
                false,
            ),
        }
        self.conn.queue_body(promised, r.size, true);
        self.pushed_bytes += r.size as u64;
    }
}

/// The sans-IO transport surface (`h2push_h2proto::sansio`): both the
/// netsim adapter and the live TCP runtime drive a replay server through
/// exactly these three calls, so the wire behaviour cannot diverge
/// between the simulated and the real transport.
impl h2push_h2proto::sansio::Endpoint for ReplayServer {
    fn feed_bytes(&mut self, bytes: &[u8], now: h2push_h2proto::sansio::Micros) {
        self.on_bytes(bytes, SimTime(now));
    }

    fn wants_output(&self) -> bool {
        self.wants_send()
    }

    fn poll_output_into(
        &mut self,
        max: usize,
        _now: h2push_h2proto::sansio::Micros,
        sink: &mut dyn h2push_h2proto::sansio::WireSink,
    ) -> usize {
        self.conn.produce_into(max, self.sched.as_dyn(), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_h2proto::{Connection, FifoScheduler, Settings, StreamState};
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn page() -> Arc<Page> {
        let mut b = PageBuilder::new("srv-test", "srv.test", 20_000, 2_000);
        let third = b.origin("cdn.third.net", 1, false);
        b.resource(ResourceSpec::css(0, 6_000, 200, 0.5)); // 1
        b.resource(ResourceSpec::image(0, 9_000, 8_000, true, 1.0)); // 2
        b.resource(ResourceSpec::js_async(third, 4_000, 9_000, 1_000)); // 3
        b.text_paint(5_000, 1.0);
        Arc::new(b.build())
    }

    fn server_for(p: &Arc<Page>, group: usize, strategy: Strategy) -> ReplayServer {
        ReplayServer::new(Arc::clone(p), Arc::new(RecordDb::record(p)), group, &Arc::new(strategy))
    }

    /// Drive a raw h2proto client against the server; returns collected
    /// client events.
    fn converse(
        server: &mut ReplayServer,
        client: &mut Connection,
        rounds: usize,
    ) -> Vec<h2push_h2proto::Event> {
        let mut sched = FifoScheduler;
        let mut events = Vec::new();
        for _ in 0..rounds {
            let up = client.produce(usize::MAX, &mut sched);
            if !up.is_empty() {
                server.on_bytes(&up, SimTime::ZERO);
            }
            let mut moved = false;
            while server.wants_send() {
                let down = server.produce(usize::MAX);
                if down.is_empty() {
                    break;
                }
                moved = true;
                client.receive(&down);
            }
            while let Some(e) = client.poll_event() {
                events.push(e);
            }
            if !moved && client.produce(usize::MAX, &mut sched).is_empty() {
                break;
            }
        }
        events
    }

    fn get(path: &str) -> Vec<Header> {
        vec![
            Header::new(":method", "GET"),
            Header::new(":scheme", "https"),
            Header::new(":authority", "srv.test"),
            Header::new(":path", path),
        ]
    }

    #[test]
    fn serves_recorded_response() {
        let p = page();
        let mut server = server_for(&p, 0, Strategy::NoPush);
        let mut client = Connection::client(Settings {
            initial_window_size: Some(1 << 20),
            ..Default::default()
        });
        let s = client.request(&get("/"), None);
        let events = converse(&mut server, &mut client, 20);
        let body: usize = events
            .iter()
            .filter_map(|e| match e {
                h2push_h2proto::Event::Data { stream, len, .. } if *stream == s => Some(*len),
                _ => None,
            })
            .sum();
        assert_eq!(body, 20_000, "full document body served");
        assert_eq!(server.observations().len(), 1);
        assert_eq!(server.observations()[0].resource, ResourceId(0));
    }

    #[test]
    fn unknown_path_gets_404() {
        let p = page();
        let mut server = server_for(&p, 0, Strategy::NoPush);
        let mut client = Connection::client(Settings::default());
        client.request(&get("/not-recorded"), None);
        let events = converse(&mut server, &mut client, 10);
        let status = events.iter().find_map(|e| match e {
            h2push_h2proto::Event::Headers { headers, end_stream, .. } => {
                Some((String::from_utf8_lossy(&headers[0].value).to_string(), *end_stream))
            }
            _ => None,
        });
        assert_eq!(status, Some(("404".to_string(), true)));
    }

    #[test]
    fn zero_byte_recorded_resource_ends_its_stream() {
        // `RecordDb::from_json` does not validate, so a recorded corpus can
        // carry an empty 200 body. The response must still end: HEADERS,
        // then an empty DATA frame with END_STREAM — not a stream that
        // stays open while `wants_send` stays true.
        let p = page();
        let css = p.resource(ResourceId(1));
        let json = RecordDb::record(&p).to_json();
        let needle = format!("\"body_len\": {}", css.size);
        assert_eq!(json.matches(&needle).count(), 1, "the stylesheet's size is unique");
        let db = RecordDb::from_json(&json.replace(&needle, "\"body_len\": 0")).unwrap();
        let mut server =
            ReplayServer::new(Arc::clone(&p), Arc::new(db), 0, &Arc::new(Strategy::NoPush));
        let mut client = Connection::client(Settings::default());
        let s = client.request(&get(&css.path), None);
        let events = converse(&mut server, &mut client, 10);
        let on_stream: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(e, h2push_h2proto::Event::Headers { stream, .. }
                    | h2push_h2proto::Event::Data { stream, .. } if *stream == s)
            })
            .collect();
        assert!(matches!(
            on_stream[..],
            [
                h2push_h2proto::Event::Headers { end_stream: false, .. },
                h2push_h2proto::Event::Data { len: 0, end_stream: true, .. }
            ]
        ));
        assert_eq!(client.stream_state(s), Some(StreamState::Closed));
        assert!(!server.wants_send(), "an ended response leaves nothing to send");
    }

    #[test]
    fn strategy_fires_only_on_document_request() {
        let p = page();
        let mut server = server_for(&p, 0, Strategy::PushList { order: vec![ResourceId(1)] });
        let mut client = Connection::client(Settings {
            initial_window_size: Some(1 << 20),
            ..Default::default()
        });
        // Request the image first: no pushes may fire.
        let img_path = p.resource(ResourceId(2)).path.clone();
        client.request(&get(&img_path), None);
        let events = converse(&mut server, &mut client, 10);
        assert!(
            !events.iter().any(|e| matches!(e, h2push_h2proto::Event::PushPromise { .. })),
            "subresource request must not trigger pushes"
        );
        assert_eq!(server.pushed_bytes(), 0);
        // Now the document: the CSS is promised and delivered.
        client.request(&get("/"), None);
        let events = converse(&mut server, &mut client, 30);
        assert!(events.iter().any(|e| matches!(e, h2push_h2proto::Event::PushPromise { .. })));
        assert_eq!(server.pushed_bytes(), 6_000);
    }

    #[test]
    fn third_party_group_never_pushes() {
        let p = page();
        // The strategy is configured, but this instance serves group 1.
        let mut server = server_for(&p, 1, Strategy::PushList { order: vec![ResourceId(1)] });
        let mut client = Connection::client(Settings::default());
        let js = p.resource(ResourceId(3));
        client.request(
            &[
                Header::new(":method", "GET"),
                Header::new(":scheme", "https"),
                Header::new(":authority", "cdn.third.net"),
                Header::new(":path", &js.path),
            ],
            None,
        );
        let events = converse(&mut server, &mut client, 10);
        assert!(!events.iter().any(|e| matches!(e, h2push_h2proto::Event::PushPromise { .. })));
        let body: usize = events
            .iter()
            .filter_map(|e| match e {
                h2push_h2proto::Event::Data { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert_eq!(body, 4_000);
    }

    #[test]
    fn disabled_push_client_gets_plain_responses() {
        let p = page();
        let mut server = server_for(&p, 0, Strategy::PushList { order: vec![ResourceId(1)] });
        let mut client =
            Connection::client(Settings { enable_push: Some(false), ..Default::default() });
        client.request(&get("/"), None);
        let events = converse(&mut server, &mut client, 20);
        assert!(!events.iter().any(|e| matches!(e, h2push_h2proto::Event::PushPromise { .. })));
        assert_eq!(server.pushed_bytes(), 0, "SETTINGS_ENABLE_PUSH=0 honored");
    }

    #[test]
    fn interleaved_strategy_marks_parent_and_closes_cleanly() {
        let p = page();
        let mut server = server_for(
            &p,
            0,
            Strategy::Interleaved {
                offset: 4_096,
                critical: vec![ResourceId(1)],
                after: vec![ResourceId(2)],
            },
        );
        let mut client = Connection::client(Settings {
            initial_window_size: Some(1 << 20),
            ..Default::default()
        });
        let html = client.request(&get("/"), None);
        let events = converse(&mut server, &mut client, 50);
        // Both the critical and the after push arrive completely.
        let push_bytes: usize = events
            .iter()
            .filter_map(|e| match e {
                h2push_h2proto::Event::Data { stream, len, .. } if stream.is_multiple_of(2) => {
                    Some(*len)
                }
                _ => None,
            })
            .sum();
        assert_eq!(push_bytes, 6_000 + 9_000);
        assert_eq!(client.stream_state(html), Some(StreamState::Closed));
    }

    #[test]
    fn garbage_input_is_counted_not_fatal_to_the_process() {
        // Corrupted client bytes (a botched preface) must not panic the
        // replay: the server records the violation, answers GOAWAY, and
        // the harness can keep driving other connections.
        let p = page();
        let mut server = server_for(&p, 0, Strategy::NoPush);
        assert_eq!(server.protocol_errors(), 0);
        server.on_bytes(b"GARBAGE / HTTP/1.1\r\n\r\nxxxxxxxx", SimTime::ZERO);
        assert_eq!(server.protocol_errors(), 1);
        assert_eq!(server.fatal_error(), Some(ConnError::BadPreface));
        assert!(server.wants_send(), "the GOAWAY still drains");
        let bytes = server.produce(usize::MAX);
        assert!(!bytes.is_empty());
        // Further input on the dead connection stays harmless.
        server.on_bytes(b"more garbage", SimTime::ZERO);
        assert_eq!(server.fatal_error(), Some(ConnError::BadPreface));
    }
}
