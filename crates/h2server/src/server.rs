//! The replay server: h2o + FastCGI-record-matching equivalent (§4.1).
//!
//! One [`ReplayServer`] instance stands in for one server group of the
//! recorded deployment (Mahimahi spawns one server per origin IP; origins
//! coalesced by certificate share a group). It answers requests from the
//! record database, and — on the group hosting the base document — executes
//! the configured push strategy, either with the stock child-of-parent
//! scheduler or with the paper's interleaving scheduler.

use crate::interleave::InterleavingScheduler;
use h2push_h2proto::{
    CacheDigest, ConnError, Connection, DefaultScheduler, Event, Scheduler, Settings,
};
use h2push_hpack::HeaderList;
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
/// connection of every repetition of a page: the URL a cache digest is
/// asked about before a push. (Header lists are not here — they are
/// formatted per request as borrowed fields over the page's own strings,
/// which costs nothing to redo.)
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Full URL per resource, indexed by [`ResourceId`].
    urls: Vec<String>,
}

impl Prepared {
    /// Build the per-resource URLs for `page`.
    pub fn build(page: &Page) -> Self {
        Prepared { urls: page.resources.iter().map(|r| r.url(page.host_of(r.id))).collect() }
    }
}

/// `n` in decimal, written into `buf` (a 64-bit `usize` has at most 20
/// digits): a `content-length` value without a `String`.
fn decimal(mut n: usize, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Answer `stream` with a 200 carrying `len` octets of `content_type`:
/// the header triple as borrowed fields, then the body.
fn respond_200(conn: &mut Connection, stream: u32, content_type: &str, len: usize) {
    let mut digits = [0; 20];
    let fields = [
        (":status", "200"),
        ("content-type", content_type),
        ("content-length", decimal(len, &mut digits)),
    ];
    conn.respond(stream, &fields, false);
    conn.queue_body(stream, len, true);
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
    /// Optional precomputed push URLs; `None` formats them when asked.
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

    /// Attach precomputed push URLs ([`Prepared::build`] of the same
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

    fn handle_request(&mut self, stream: u32, headers: &HeaderList, now: SimTime) {
        // A recorded host or path is UTF-8; a value that is not matches
        // nothing, like a missing one.
        let text =
            |name: &[u8]| headers.get(name).and_then(|v| std::str::from_utf8(v).ok()).unwrap_or("");
        if let Some(d) = headers
            .get(b"cache-digest")
            .and_then(|v| CacheDigest::from_hex(std::str::from_utf8(v).ok()?))
        {
            self.client_digest = Some(d);
        }
        let Some(rec) = self.db.lookup(text(b":authority"), text(b":path")) else {
            // Mahimahi aborts on unmatched requests; we answer 404 so a
            // broken strategy surfaces as a failed load, not a hang.
            self.conn.respond(stream, &[(":status", "404"), ("content-length", "0")], true);
            return;
        };
        self.observations.push(RequestObservation { resource: rec.resource, at: now });

        if rec.resource == ResourceId(0) {
            self.html_stream = Some(stream);
            if let Some(il) = self.sched.interleaving() {
                il.set_parent(stream);
            }
            // One push: the promise, then the response headers and body on
            // the promised stream. A closure so that it borrows only the
            // fields it names, and the record and the strategy stay
            // borrowed from theirs while it runs.
            let mut push = |rid: ResourceId, critical: bool| {
                let r = self.page.resource(rid);
                let host = self.page.host_of(rid);
                if let (true, Some(d)) = (self.honor_cache_digest, &self.client_digest) {
                    let covered = match &self.prepared {
                        Some(p) => d.contains(&p.urls[rid.0]),
                        None => d.contains(&r.url(host)),
                    };
                    if covered {
                        self.digest_suppressed += 1;
                        return;
                    }
                }
                let request = [
                    (":method", "GET"),
                    (":scheme", "https"),
                    (":authority", host),
                    (":path", &r.path),
                ];
                let Some(promised) = self.conn.push_promise(stream, &request) else {
                    return; // peer disabled push, or parent gone
                };
                self.trace.emit(TraceEvent::PushPromised {
                    conn: self.trace_conn,
                    parent: stream,
                    promised,
                    resource: rid.0,
                    critical,
                });
                if critical {
                    if let Some(il) = self.sched.interleaving() {
                        il.add_critical(promised);
                    }
                }
                respond_200(&mut self.conn, promised, r.rtype.mime(), r.size);
                self.pushed_bytes += r.size as u64;
            };
            // Fire the strategy: promises go out before the document's
            // response so the client cannot race requests for them.
            match self.strategy.as_deref() {
                None | Some(Strategy::NoPush) => {}
                Some(Strategy::PushList { order }) => {
                    for &rid in order {
                        push(rid, false);
                    }
                }
                Some(Strategy::Interleaved { critical, after, .. }) => {
                    // All promises go out up front (h2o promises before
                    // the referencing bytes); only the critical list
                    // takes part in the hard switch. The `after` pushes
                    // stay ordinary children of the document stream, so
                    // the stock tree scheduling delivers them once the
                    // document finished.
                    for &rid in critical {
                        push(rid, true);
                    }
                    for &rid in after {
                        push(rid, false);
                    }
                }
            }
        }

        // The response itself, as recorded.
        respond_200(&mut self.conn, stream, &rec.content_type, rec.body_len);
    }
}

/// The sans-IO transport surface (`h2push_h2proto::sansio`), and a
/// replay server's only one: the netsim adapter, the live TCP runtime and
/// the adversarial harness all drive it through these three calls, so
/// the wire behaviour cannot diverge between transports.
impl h2push_h2proto::sansio::Endpoint for ReplayServer {
    /// Feed wire bytes from the client; handles any completed requests.
    fn feed_bytes(&mut self, bytes: &[u8], now: h2push_h2proto::sansio::Micros) {
        let now = SimTime(now);
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

    fn wants_output(&self) -> bool {
        self.conn.wants_send()
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
    use h2push_h2proto::sansio::Endpoint;
    use h2push_h2proto::{Connection, FifoScheduler, Settings, StreamState};
    use h2push_hpack::Header;
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
                server.feed_bytes(&up, 0);
            }
            let mut moved = false;
            while server.wants_output() {
                let down = server.poll_output(usize::MAX, 0);
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
    fn decimal_formats_every_length_a_usize_can_take() {
        for n in [0, 7, 10, 20_000, 2_450_000, usize::MAX] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string());
        }
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
                Some((String::from_utf8_lossy(headers.field(0).1).to_string(), *end_stream))
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
        assert!(!server.wants_output(), "an ended response leaves nothing to send");
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
        server.feed_bytes(b"GARBAGE / HTTP/1.1\r\n\r\nxxxxxxxx", 0);
        assert_eq!(server.protocol_errors(), 1);
        assert_eq!(server.fatal_error(), Some(ConnError::BadPreface));
        assert!(server.wants_output(), "the GOAWAY still drains");
        let bytes = server.poll_output(usize::MAX, 0);
        assert!(!bytes.is_empty());
        // Further input on the dead connection stays harmless.
        server.feed_bytes(b"more garbage", 0);
        assert_eq!(server.fatal_error(), Some(ConnError::BadPreface));
    }
}
