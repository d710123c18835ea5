//! `Connection` in lockstep with the naive endpoint in `model/`: the same
//! local calls and the same peer bytes, cut anywhere, go to both, and
//! everything observable must agree after every step — the events (the
//! fatal `ConnError` among them), `is_dead`, `wants_send`, the state and
//! byte counts of every stream the script names, and the exact bytes and
//! return value of every `produce_into`, written into a sink that records
//! which call wrote each octet.
//!
//! Scripts come from two places: sixteen hand-written scenarios (fourteen
//! on the receive path, two moving the send windows of ready streams),
//! each run whole, one byte at a time and cut at every offset; and one
//! generator for both roles that mixes local calls, benign peer frames
//! and the hostile shapes of the badpeer suite.

mod model;

use bytes::Bytes;
use h2push_h2proto::sansio::WireSink;
use h2push_h2proto::{
    ConnLimits, Connection, DefaultScheduler, ErrorCode, FifoScheduler, Frame, PrioritySpec, Role,
    Scheduler, Settings, DEFAULT_WINDOW, PREFACE,
};
use h2push_hpack::Encoder;
use model::Model;
use proptest::TestRng;
use std::collections::BTreeSet;
use std::sync::OnceLock;

const HEADER_LEN: usize = 9;
const REQUEST: [(&str, &str); 4] =
    [(":method", "GET"), (":scheme", "https"), (":authority", "lockstep.test"), (":path", "/")];
const RESPONSE: [(&str, &str); 2] = [(":status", "200"), ("content-type", "text/css")];

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
    /// One `produce_into(max, ..)` call's output is whole frames (after a
    /// client's preface magic), `put_zeros` wrote exactly the DATA
    /// payloads, and the budget held: at most a DATA header over `max`,
    /// or one control frame.
    fn check(&self, max: usize) {
        let mut pos = if self.bytes.starts_with(PREFACE) { PREFACE.len() } else { 0 };
        assert!(!self.zeros[..pos].contains(&true), "the preface went through put_zeros");
        let mut frames = 0;
        while pos < self.bytes.len() {
            let head = self.bytes.get(pos..pos + HEADER_LEN).expect("a whole frame header");
            let len = u32::from_be_bytes([0, head[0], head[1], head[2]]) as usize;
            let (body, end) = (pos + HEADER_LEN, pos + HEADER_LEN + len);
            assert!(end <= self.bytes.len(), "a frame was split across produce calls");
            for i in pos..end {
                let payload = head[3] == 0 && i >= body;
                assert_eq!(
                    self.zeros[i], payload,
                    "octet {i} of a type-{} frame at {pos}",
                    head[3]
                );
            }
            pos = end;
            frames += 1;
        }
        assert!(
            self.bytes.len() <= max.saturating_add(HEADER_LEN) || frames == 1,
            "{} bytes in {frames} frames against a budget of {max}",
            self.bytes.len()
        );
    }
}

/// A call the application makes between two octets of the peer's bytes.
#[derive(Clone, Copy)]
enum Local {
    Request {
        priority: Option<PrioritySpec>,
        big: bool,
    },
    Respond {
        stream: u32,
        end_stream: bool,
        big: bool,
    },
    QueueBody {
        stream: u32,
        len: usize,
        fin: bool,
    },
    PushPromise {
        parent: u32,
    },
    Reset {
        stream: u32,
    },
    Prioritize {
        stream: u32,
        spec: PrioritySpec,
    },
    Produce {
        max: usize,
        fifo: bool,
    },
    /// A limit tripping on the send side: no room for one more control
    /// frame, then one is queued.
    Choke,
}

/// `base`, plus — if `big` — a cookie that needs CONTINUATION frames (and
/// is too big for the HPACK table, so it empties it).
fn headers(base: &[(&'static str, &'static str)], big: bool) -> Vec<(&'static str, &'static str)> {
    static COOKIE: OnceLock<String> = OnceLock::new();
    let mut headers = base.to_vec();
    if big {
        headers.push(("cookie", COOKIE.get_or_init(|| "c".repeat(20_000))));
    }
    headers
}

/// The peer's bytes and what the application does at which offset of
/// them (ascending), plus every stream id the script names.
#[derive(Default)]
struct Script {
    wire: Vec<u8>,
    locals: Vec<(usize, Local)>,
    touched: BTreeSet<u32>,
}

impl Script {
    fn frame(&mut self, frame: Frame) {
        let stream = match &frame {
            Frame::Data { stream, .. }
            | Frame::Headers { stream, .. }
            | Frame::Priority { stream, .. }
            | Frame::RstStream { stream, .. }
            | Frame::WindowUpdate { stream, .. }
            | Frame::Continuation { stream, .. } => *stream,
            Frame::PushPromise { stream, promised, .. } => {
                self.touched.insert(*promised);
                *stream
            }
            Frame::Settings { .. } | Frame::Ping { .. } | Frame::GoAway { .. } => 0,
        };
        self.touched.insert(stream);
        frame.encode(&mut self.wire);
    }

    /// A frame from its parts: what `Frame::encode` cannot express
    /// (PADDED, stream 0, unknown types, oversize lengths, a payload that
    /// is not zeros or not all there).
    fn raw(&mut self, len: usize, ty: u8, flags: u8, stream: u32, payload: &[u8]) {
        self.touched.insert(stream);
        self.wire.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
        self.wire.extend_from_slice(&[ty, flags]);
        self.wire.extend_from_slice(&stream.to_be_bytes());
        self.wire.extend_from_slice(payload);
    }

    /// DATA with a payload of anything but zeros — nothing may look at
    /// it — and `local` done once `at` octets of the frame are in.
    fn data(&mut self, stream: u32, len: usize, flags: u8, mid: Option<(usize, Local)>) {
        if let Some((at, local)) = mid {
            self.locals.push((self.wire.len() + at.min(HEADER_LEN + len), local));
        }
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8 | 1).collect();
        self.raw(len, 0x0, flags, stream, &payload);
    }

    fn local(&mut self, local: Local) {
        match local {
            Local::Respond { stream, .. }
            | Local::QueueBody { stream, .. }
            | Local::PushPromise { parent: stream }
            | Local::Reset { stream }
            | Local::Prioritize { stream, .. } => {
                self.touched.insert(stream);
            }
            _ => {}
        }
        self.locals.push((self.wire.len(), local));
    }
}

/// The connection under test and the model, fed the same calls and bytes.
struct Pair {
    conn: Connection,
    model: Model,
}

impl Pair {
    fn new(role: Role, settings: Settings, limits: ConnLimits) -> Pair {
        let mut conn = match role {
            Role::Client => Connection::client(settings),
            Role::Server => Connection::server(settings),
        };
        conn.set_limits(limits);
        let mut model = Model::new(role, settings);
        model.set_limits(limits);
        Pair { conn, model }
    }

    fn feed(&mut self, bytes: &[u8]) {
        self.conn.receive(bytes);
        self.model.receive(bytes);
    }

    fn local(&mut self, local: Local) {
        let (c, m) = (&mut self.conn, &mut self.model);
        match local {
            Local::Request { priority, big } => {
                let headers = headers(&REQUEST, big);
                assert_eq!(c.request(&headers, priority), m.request(&headers, priority));
            }
            Local::Respond { stream, end_stream, big } => {
                let headers = headers(&RESPONSE, big);
                c.respond(stream, &headers, end_stream);
                m.respond(stream, &headers, end_stream);
            }
            Local::QueueBody { stream, len, fin } => {
                c.queue_body(stream, len, fin);
                m.queue_body(stream, len, fin);
            }
            Local::PushPromise { parent } => {
                assert_eq!(c.push_promise(parent, &REQUEST), m.push_promise(parent, &REQUEST));
            }
            Local::Reset { stream } => {
                c.reset(stream, ErrorCode::Cancel);
                m.reset(stream, ErrorCode::Cancel);
            }
            Local::Prioritize { stream, spec } => {
                c.send_priority(stream, spec);
                m.send_priority(stream, spec);
            }
            Local::Produce { max, fifo } => {
                let scheduler = || -> Box<dyn Scheduler> {
                    if fifo {
                        Box::new(FifoScheduler)
                    } else {
                        Box::new(DefaultScheduler::new())
                    }
                };
                let mut sink = Recording::default();
                let n = c.produce_into(max, scheduler().as_mut(), &mut sink);
                let wire = m.produce(max, scheduler().as_mut());
                assert_eq!(
                    sink.bytes, wire,
                    "produce_into({max}) wrote other bytes than the model"
                );
                assert_eq!(n, wire.len(), "produce_into miscounted what it wrote");
                sink.check(max);
            }
            Local::Choke => {
                c.set_limits(ConnLimits { max_control_frames: 0, ..*c.limits() });
                m.set_limits(ConnLimits { max_control_frames: 0, ..m.limits });
                c.send_priority(1, PrioritySpec::default());
                m.send_priority(1, PrioritySpec::default());
            }
        }
    }

    /// Everything observable must agree; `at` says where in which script.
    fn compare(&mut self, touched: &BTreeSet<u32>, label: &str, at: usize) {
        loop {
            let (a, b) = (self.conn.poll_event(), self.model.poll_event());
            assert_eq!(a, b, "{label}: events diverged at byte {at}");
            if a.is_none() {
                break;
            }
        }
        let (c, m) = (&self.conn, &self.model);
        assert_eq!(
            (c.is_dead(), c.wants_send(), c.peer_enable_push()),
            (m.dead, m.wants_send(), m.peer_enable_push),
            "{label}: (is_dead, wants_send, peer_enable_push) diverged at byte {at}"
        );
        assert_eq!(
            (c.goaway_received(), c.preface_received()),
            (m.goaway_received, m.preface_received),
            "{label}: (goaway_received, preface_received) diverged at byte {at}"
        );
        for &id in touched {
            assert_eq!(
                (c.stream_state(id), c.bytes_sent(id), c.bytes_queued(id)),
                (m.stream_state(id), m.bytes_sent(id), m.bytes_queued(id)),
                "{label}: stream {id} (state, sent, queued) diverged at byte {at}"
            );
        }
    }
}

/// Where scripts start: an endpoint with `requests` requests out and the
/// `prefix` bytes (one DATA frame on stream 1, or nothing) received. The
/// model is built once, in lockstep with a connection, and cloned per run;
/// the connection is rebuilt per run — it only counts the prefix's payload.
struct Origin {
    role: Role,
    settings: Settings,
    limits: ConnLimits,
    requests: usize,
    prefix: Vec<u8>,
    model: Model,
}

impl Origin {
    fn new(role: Role, settings: Settings, limits: ConnLimits, requests: usize) -> Origin {
        Origin::with_prefix(role, settings, limits, requests, 0)
    }

    fn with_prefix(
        role: Role,
        settings: Settings,
        limits: ConnLimits,
        requests: usize,
        prefix_len: usize,
    ) -> Origin {
        let mut prefix = Vec::new();
        if prefix_len > 0 {
            // Zeroed pages the connection never touches: it counts DATA.
            prefix = vec![0; HEADER_LEN + prefix_len];
            prefix[..3].copy_from_slice(&(prefix_len as u32).to_be_bytes()[1..]);
            prefix[8] = 1; // stream 1
        }
        let mut pair = Pair::new(role, settings, limits);
        for _ in 0..requests {
            pair.local(Local::Request { priority: None, big: false });
        }
        pair.feed(&prefix);
        pair.local(Local::Produce { max: usize::MAX, fifo: true });
        pair.compare(&(0..=2 * requests as u32 + 1).collect(), "origin", prefix.len());
        Origin { role, settings, limits, requests, prefix, model: pair.model }
    }

    fn pair(&self) -> Pair {
        let mut conn = match self.role {
            Role::Client => Connection::client(self.settings),
            Role::Server => Connection::server(self.settings),
        };
        conn.set_limits(self.limits);
        for _ in 0..self.requests {
            conn.request(&REQUEST, None);
        }
        conn.receive(&self.prefix);
        conn.produce(usize::MAX, &mut FifoScheduler);
        while conn.poll_event().is_some() {}
        Pair { conn, model: self.model.clone() }
    }

    /// The largest frame payload the endpoint accepts.
    fn max_frame(&self) -> usize {
        self.settings.max_frame_size.map_or(1 << 14, |m| m as usize)
    }
}

/// Run `script` from `origin`, the peer's bytes in pieces whose lengths
/// `cut` draws (a piece never spans the offset of a local call), comparing
/// after every piece and every call, and after a final drain.
fn run(origin: &Origin, script: &Script, label: &str, mut cut: impl FnMut() -> usize) {
    let mut pair = origin.pair();
    let mut locals = script.locals.iter().peekable();
    let mut pos = 0;
    loop {
        while let Some(&(_, local)) = locals.next_if(|(at, _)| *at == pos) {
            pair.local(local);
            pair.compare(&script.touched, label, pos);
        }
        if pos == script.wire.len() {
            break;
        }
        let stop = locals.peek().map_or(script.wire.len(), |(at, _)| *at);
        let end = pos.saturating_add(cut().max(1)).min(stop);
        pair.feed(&script.wire[pos..end]);
        pos = end;
        pair.compare(&script.touched, label, pos);
    }
    pair.local(Local::Produce { max: usize::MAX, fifo: true });
    pair.compare(&script.touched, label, pos);
}

// ----- the receive-path scenarios -----

/// The scenario client's largest accepted frame: big enough that one DATA
/// frame can bring the connection window to its WINDOW_UPDATE threshold.
const BIG_FRAME: usize = 1 << 23;

/// Request streams the scenario client has open: 1, 3, 5, 7.
const REQUESTS: usize = 4;

fn stream_id(n: usize) -> u32 {
    (n % REQUESTS) as u32 * 2 + 1
}

/// A client with [`REQUESTS`] requests out, a stream window small enough
/// that a few hundred octets of DATA owe a WINDOW_UPDATE, and the
/// connection window one DATA frame short of owing one too.
fn scenario_client() -> Origin {
    let settings = Settings {
        initial_window_size: Some(1_000),
        max_frame_size: Some(BIG_FRAME as u32),
        ..Default::default()
    };
    let threshold = (15 * 1024 * 1024 + DEFAULT_WINDOW as usize) / 2;
    Origin::with_prefix(Role::Client, settings, ConnLimits::new(), REQUESTS, threshold - 2_000)
}

fn response_block(enc: &mut Encoder) -> Bytes {
    enc.encode(&RESPONSE).into()
}

/// A named script and the role of the endpoint it is fed to.
type Scenario = (&'static str, Role, Script);

/// The scenarios the counting decoder or the ready set's window tracking
/// could get wrong, one script each.
fn scenarios() -> Vec<Scenario> {
    let mut out: Vec<Scenario> = Vec::new();
    // Each script starts from a fresh peer encoder, as its endpoint
    // starts from a fresh decoder.
    let mut add = |name, role, build: fn(&mut Script, &mut Encoder)| {
        let mut s = Script::default();
        build(&mut s, &mut Encoder::new());
        out.push((name, role, s));
    };
    fn headers(s: &mut Script, enc: &mut Encoder, stream: u32) {
        s.frame(Frame::Headers {
            stream,
            block: response_block(enc),
            end_stream: false,
            end_headers: true,
            priority: None,
        })
    }
    let client = Role::Client;
    add("benign: bodies, window updates at both levels, empty DATA", client, |s, enc| {
        headers(s, enc, 1);
        s.data(1, 700, 0, None);
        s.frame(Frame::Ping { ack: false, payload: [7; 8] });
        s.data(1, 1_500, 0, None);
        s.data(1, 0, 0, None);
        s.data(1, 300, 0x1, None);
    });
    add("PADDED DATA: padding is payload", client, |s, enc| {
        headers(s, enc, 3);
        s.data(3, 600, 0x8, None);
        s.data(3, 40, 0x8 | 0x1, None);
    });
    add("DATA on stream 0", client, |s, _| {
        s.data(1, 20, 0, None);
        s.data(0, 120, 0, None);
        s.data(1, 20, 0, None);
    });
    add("DATA inside an open CONTINUATION sequence", client, |s, enc| {
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
    add("DATA on stream 0 inside an open CONTINUATION sequence", client, |s, _| {
        s.frame(Frame::Headers {
            stream: 1,
            block: Bytes::new(),
            end_stream: false,
            end_headers: false,
            priority: None,
        });
        s.data(0, 30, 0, None);
    });
    add("oversize DATA header", client, |s, _| {
        s.data(1, 64, 0, None);
        s.raw(BIG_FRAME + 1, 0x0, 0, 1, &[0xee; 40]);
    });
    add("DATA on a stream that never existed", client, |s, _| s.data(99, 50, 0, None));
    add("RST mid-payload", client, |s, enc| {
        headers(s, enc, 5);
        s.data(5, 800, 0, Some((300, Local::Reset { stream: stream_id(2) })));
        s.data(5, 800, 0x1, None);
        s.data(1, 10, 0, None);
    });
    add("fatal() mid-payload", client, |s, _| {
        s.data(1, 400, 0, Some((HEADER_LEN + 1, Local::Choke)));
        s.data(1, 10, 0, None);
    });
    add("fatal() inside a DATA header", client, |s, _| s.data(1, 40, 0, Some((4, Local::Choke))));
    add("output drained mid-payload", client, |s, _| {
        s.data(1, 900, 0, None);
        s.data(3, 900, 0, Some((500, Local::Produce { max: usize::MAX, fifo: true })));
    });
    add("control frames and an unknown type between bodies", client, |s, enc| {
        s.frame(Frame::Settings { ack: false, settings: Settings::default() });
        s.data(1, 33, 0, None);
        s.raw(300, 0xbe, 0xff, 7, &[0xbe; 300]);
        s.frame(Frame::WindowUpdate { stream: 0, increment: 1_000 });
        s.frame(Frame::PushPromise {
            stream: 1,
            promised: 2,
            block: enc.encode(&[(":method", "GET"), (":path", "/pushed")]).into(),
            end_headers: true,
        });
        headers(s, enc, 2);
        s.data(2, 1_200, 0x1, None);
        s.frame(Frame::RstStream { stream: 3, code: ErrorCode::Cancel });
        s.data(3, 77, 0, None);
        s.frame(Frame::GoAway { last_stream: 7, code: ErrorCode::NoError });
    });
    // A server: the preface is cut like anything else, and a request body
    // is counted like a response body.
    add("server: preface, then a request body", Role::Server, |s, enc| {
        s.wire.extend_from_slice(PREFACE);
        s.frame(Frame::Settings { ack: false, settings: Settings::default() });
        s.frame(Frame::Headers {
            stream: 1,
            block: enc.encode(&[(":method", "POST")]).into(),
            end_stream: false,
            end_headers: true,
            priority: None,
        });
        s.data(1, 1 << 14, 0, None);
        s.data(1, 1 << 14, 0, None);
        s.data(1, 5, 0x1, None);
    });
    add("server: bad preface", Role::Server, |s, _| {
        s.wire.extend_from_slice(b"PRI * HTTP/2.0\r\n\r\nSM\r\n\rX");
        s.data(1, 10, 0, None);
    });
    // Two requests, each answered with a body, behind an open connection
    // window: what is left to move is the streams' own windows.
    fn two_responses(s: &mut Script, enc: &mut Encoder, initial_window: Option<u32>, len: usize) {
        s.wire.extend_from_slice(PREFACE);
        let settings = Settings { initial_window_size: initial_window, ..Default::default() };
        s.frame(Frame::Settings { ack: false, settings });
        s.frame(Frame::WindowUpdate { stream: 0, increment: 1 << 20 });
        for stream in [1, 3] {
            s.frame(Frame::Headers {
                stream,
                block: enc.encode(&REQUEST).into(),
                end_stream: true,
                end_headers: true,
                priority: None,
            });
            s.local(Local::Respond { stream, end_stream: false, big: false });
            s.local(Local::QueueBody { stream, len, fin: true });
        }
    }
    add(
        "server: a ready stream's window shut by DATA, reopened by WINDOW_UPDATE",
        Role::Server,
        |s, enc| {
            two_responses(s, enc, Some(1_000), 5_000);
            s.local(Local::Produce { max: usize::MAX, fifo: false });
            s.frame(Frame::WindowUpdate { stream: 1, increment: 1_500 });
            s.local(Local::Produce { max: usize::MAX, fifo: true });
            s.frame(Frame::WindowUpdate { stream: 3, increment: 10_000 });
            s.local(Local::Produce { max: 2_000, fifo: false });
            s.frame(Frame::WindowUpdate { stream: 1, increment: 10_000 });
        },
    );
    add(
        "server: SETTINGS_INITIAL_WINDOW_SIZE drives ready streams negative and back",
        Role::Server,
        |s, enc| {
            two_responses(s, enc, None, 100_000);
            s.local(Local::Produce { max: 40_000, fifo: false });
            for window in [1_000, 0, 70_000] {
                let settings = Settings { initial_window_size: Some(window), ..Default::default() };
                s.frame(Frame::Settings { ack: false, settings });
                s.local(Local::Produce { max: 30_000, fifo: false });
            }
        },
    );
    out
}

#[test]
fn every_scenario_whole_byte_at_a_time_and_cut_at_every_offset() {
    let client = scenario_client();
    let server = Origin::new(Role::Server, Settings::default(), ConnLimits::new(), 0);
    let scenarios = scenarios();
    assert_eq!(scenarios.len(), 16);
    for (name, role, script) in &scenarios {
        let origin = if *role == Role::Client { &client } else { &server };
        run(origin, script, name, || usize::MAX);
        run(origin, script, name, || 1);
        // Two pieces, cut at every offset (long bodies: every offset
        // around each frame boundary is what matters, so stride the
        // middles).
        let n = script.wire.len();
        for at in (1..n).filter(|at| n < 4_000 || at % 997 == 0 || at % 16_393 < 24) {
            let mut first = true;
            run(origin, script, name, || if std::mem::take(&mut first) { at } else { usize::MAX });
        }
        // The scenario went where its name says: its wire alone kills the
        // connection exactly when the peer is hostile.
        let mut conn = origin.pair().conn;
        conn.receive(&script.wire);
        let hostile = ["stream 0", "open CONTINUATION", "oversize", "never existed", "bad pre"];
        assert_eq!(conn.is_dead(), hostile.iter().any(|h| name.contains(h)), "{name}");
    }
}

// ----- generated scripts, both roles -----

/// One generated case: a script, where it starts, and how its bytes are cut.
struct Gen<'a> {
    rng: TestRng,
    origin: &'a Origin,
    s: Script,
    /// The peer's HPACK encoder: its blocks go on the wire in encoding order.
    peer: Encoder,
    /// Stream ids the script has opened, requested or promised so far
    /// (pushes the endpoint may have refused included).
    ids: Vec<u32>,
    /// The next odd id: the next request (client) or the id the peer
    /// opens next (server).
    next_odd: u32,
    /// The next even id the script expects promised.
    next_even: u32,
    /// The highest promised id the peer used.
    promised: u32,
}

impl<'a> Gen<'a> {
    fn new(seed: u64, origin: &'a Origin) -> Self {
        let requested: Vec<u32> = (0..origin.requests as u32).map(|n| 2 * n + 1).collect();
        let mut s = Script::default();
        s.touched.extend(&requested);
        Gen {
            rng: TestRng::with_seed(seed),
            origin,
            s,
            peer: Encoder::new(),
            next_odd: 2 * requested.len() as u32 + 1,
            ids: requested,
            next_even: 2,
            promised: 0,
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// A stream the script knows, now and then one it does not.
    fn stream(&mut self) -> u32 {
        let id = if self.ids.is_empty() || self.one_in(16) {
            self.pick(&[99, self.next_odd, self.next_even, 0x7fff_fffd])
        } else {
            let i = self.below(self.ids.len() as u64) as usize;
            self.ids[i]
        };
        self.s.touched.insert(id);
        id
    }

    /// An even id above every id the peer promised so far.
    fn unpromised_push(&mut self) -> Option<u32> {
        let ids = self.ids.iter().copied();
        let even: Vec<u32> = ids.filter(|id| id.is_multiple_of(2) && *id > self.promised).collect();
        (!even.is_empty()).then(|| self.pick(&even))
    }

    fn spec(&mut self) -> PrioritySpec {
        let depends_on = if self.one_in(3) { 0 } else { self.stream() };
        let weight = self.range(1, 257) as u16;
        PrioritySpec { depends_on, weight, exclusive: self.one_in(3) }
    }

    fn body_len(&mut self) -> usize {
        match self.below(8) {
            0 => 0,
            1..=3 => self.range(1, 200) as usize,
            4..=6 => self.range(1_000, 40_000) as usize,
            _ => self.range(60_000, 200_000) as usize,
        }
    }

    fn window(&mut self) -> u32 {
        self.pick(&[0, 1, 150, 16_000, 65_535, 70_000, 1 << 20])
    }

    fn produce(&mut self) -> Local {
        let max = match self.below(3) {
            0 => self.range(1, 64) as usize,
            1 => self.range(1_000, 40_000) as usize,
            _ => usize::MAX,
        };
        Local::Produce { max, fifo: self.one_in(2) }
    }

    /// The peer's SETTINGS.
    fn settings(&mut self) -> Settings {
        Settings {
            initial_window_size: self.one_in(2).then(|| self.window()),
            enable_push: self.one_in(8).then_some(false),
            max_frame_size: self.one_in(4).then(|| self.range(16_384, 40_000) as u32),
            header_table_size: self.one_in(8).then(|| self.pick(&[0, 64, 4_096])),
            ..Default::default()
        }
    }

    fn header_frame(&mut self, stream: u32, end_stream: bool, priority: Option<PrioritySpec>) {
        let block: Bytes = if self.origin.role == Role::Server {
            self.peer.encode(&REQUEST).into()
        } else {
            self.peer.encode(&RESPONSE).into()
        };
        if self.one_in(6) {
            // Split, the tail in a CONTINUATION.
            let cut = block.len() / 2;
            let head = block.slice(..cut);
            self.s.frame(Frame::Headers {
                stream,
                block: head,
                end_stream,
                end_headers: false,
                priority,
            });
            let tail = block.slice(cut..);
            self.s.frame(Frame::Continuation { stream, block: tail, end_headers: true });
        } else {
            self.s.frame(Frame::Headers { stream, block, end_stream, end_headers: true, priority });
        }
    }

    fn peer_data(&mut self) {
        let stream = self.stream();
        let len = match self.below(8) {
            0 => 0,
            1..=3 => self.range(1, 40) as usize,
            4..=6 => self.range(300, 1_200) as usize,
            _ => 1 << 14,
        };
        let flags = self.one_in(3) as u8 | if self.one_in(4) { 0x8 } else { 0 };
        let mid = match self.below(8) {
            0 => Some(Local::Reset { stream }),
            1 => Some(self.produce()),
            2 if self.one_in(8) => Some(Local::Choke),
            _ => None,
        };
        let mid = mid.map(|local| (self.range(0, (HEADER_LEN + len + 1) as u64) as usize, local));
        self.s.data(stream, len, flags, mid);
    }

    /// One step a benign peer and application might take.
    fn step(&mut self) {
        let server = self.origin.role == Role::Server;
        match self.below(32) {
            // The peer opens a stream (server) or answers one (client).
            0..=3 if server => {
                let id = self.next_odd;
                self.next_odd += 2;
                self.ids.push(id);
                let chain = self.one_in(2).then(|| PrioritySpec {
                    depends_on: id.saturating_sub(2),
                    weight: 100 + (id % 5) as u16 * 30,
                    exclusive: id.is_multiple_of(3),
                });
                let end_stream = !self.one_in(4);
                self.header_frame(id, end_stream, chain);
            }
            0..=3 => {
                let stream = self.stream();
                let end_stream = self.one_in(3);
                self.header_frame(stream, end_stream, None);
            }
            4..=7 if server => {
                let (stream, end_stream, big) = (self.stream(), self.one_in(4), self.one_in(32));
                self.s.local(Local::Respond { stream, end_stream, big });
            }
            4..=7 => {
                let priority = self.one_in(2).then(|| self.spec());
                let id = self.next_odd;
                self.next_odd += 2;
                self.ids.push(id);
                self.s.touched.insert(id);
                let big = self.one_in(32);
                self.s.local(Local::Request { priority, big });
            }
            8..=11 if server => {
                let (stream, len, fin) = (self.stream(), self.body_len(), self.one_in(2));
                self.s.local(Local::QueueBody { stream, len, fin });
            }
            8..=11 => self.peer_data(),
            12..=15 => {
                let local = self.produce();
                self.s.local(local);
            }
            16..=17 if server => {
                // A push, usually answered at once as the replay server
                // does: response headers, then a body.
                let (parent, pushed) = (self.stream(), self.next_even);
                self.ids.push(pushed);
                self.next_even += 2;
                self.s.local(Local::PushPromise { parent });
                if !self.one_in(3) {
                    self.s.local(Local::Respond { stream: pushed, end_stream: false, big: false });
                    let (len, fin) = (self.body_len(), self.one_in(2));
                    self.s.local(Local::QueueBody { stream: pushed, len, fin });
                }
            }
            16..=17 => {
                // A promise, then (usually) the pushed response's headers.
                let parent = self.stream();
                let promised = self.next_even;
                self.next_even += 2;
                self.promised = promised;
                self.ids.push(promised);
                let block = self.peer.encode(&REQUEST).into();
                self.s.frame(Frame::PushPromise {
                    stream: parent,
                    promised,
                    block,
                    end_headers: true,
                });
                if !self.one_in(4) {
                    let end_stream = self.one_in(4);
                    self.header_frame(promised, end_stream, None);
                }
            }
            18..=19 => {
                let (stream, increment) = if self.one_in(3) {
                    (0, self.range(1, 2_000) as u32)
                } else {
                    let increment = self.pick(&[1, 500, 1_999, 60_000, 69_999, 0x7fff_ffff]);
                    (self.stream(), increment)
                };
                self.s.frame(Frame::WindowUpdate { stream, increment });
            }
            20 => {
                let settings = self.settings();
                self.s.frame(Frame::Settings { ack: false, settings });
            }
            21 => {
                let stream = self.stream();
                self.s.frame(Frame::RstStream { stream, code: ErrorCode::Cancel });
            }
            22 => {
                let stream = self.stream();
                self.s.local(Local::Reset { stream });
            }
            23 if server => {
                // The peer ends a stream under us (a request body's end).
                let stream = self.stream();
                let len = self.pick(&[0, 10, 700]);
                self.s.data(stream, len, 0x1, None);
            }
            23 => {
                let (stream, len, fin) = (self.stream(), self.body_len(), self.one_in(2));
                self.s.local(Local::QueueBody { stream, len, fin });
            }
            24 | 30 if server => {
                // A PUSH_PROMISE from the client, reusing the id of one of
                // the server's own pushes: hostile, and it displaces it.
                let Some(promised) = self.unpromised_push() else { return };
                self.promised = promised;
                let stream = self.stream();
                let block = self.peer.encode(&REQUEST).into();
                self.s.frame(Frame::PushPromise { stream, promised, block, end_headers: true });
            }
            24 => self.peer_data(),
            25 if self.one_in(2) => {
                let (stream, spec) = (self.stream(), self.spec());
                self.s.frame(Frame::Priority { stream, spec });
            }
            25 => {
                let (stream, spec) = (self.stream(), self.spec());
                self.s.local(Local::Prioritize { stream, spec });
            }
            26 => {
                let payload = [self.below(256) as u8; 8];
                let ack = self.one_in(4);
                self.s.frame(Frame::Ping { ack, payload });
            }
            27 => {
                let len = self.range(0, 400) as usize;
                let stream = self.stream();
                self.s.raw(len, 0xbe, 0x9, stream, &vec![0xbe; len]);
            }
            28 if self.one_in(4) => {
                let last_stream = self.stream();
                self.s.frame(Frame::GoAway { last_stream, code: ErrorCode::NoError });
            }
            28 if server => self.peer_data(),
            28 => self.s.frame(Frame::Settings { ack: true, settings: Settings::default() }),
            29 if self.one_in(8) => self.s.local(Local::Choke),
            _ if server => {
                let (stream, len, fin) = (self.stream(), self.body_len(), self.one_in(2));
                self.s.local(Local::QueueBody { stream, len, fin });
            }
            _ => self.peer_data(),
        }
    }

    /// One of the badpeer suite's shapes.
    fn hostile(&mut self) {
        let server = self.origin.role == Role::Server;
        match self.below(13) {
            0 => {
                // Rapid reset: open-and-cancel, or cancel what never opened.
                for _ in 0..40 {
                    let stream = self.next_odd;
                    self.next_odd += 2;
                    if server && self.one_in(2) {
                        self.header_frame(stream, true, None);
                    }
                    self.s.frame(Frame::RstStream { stream, code: ErrorCode::Cancel });
                }
            }
            1 => (0..20).for_each(|_| self.s.frame(Frame::Ping { ack: false, payload: [1; 8] })),
            2 => (0..20).for_each(|_| {
                self.s.frame(Frame::Settings { ack: false, settings: Settings::default() })
            }),
            3 => {
                // A header bomb: one 4 KB field, then three hundred
                // one-octet references to it.
                let field = ("cookie", "b".repeat(4_000));
                let bomb: Vec<(&str, &str)> = vec![(field.0, &field.1); 300];
                let block = self.peer.encode(&bomb).into();
                let stream = if server { self.next_odd } else { self.stream() };
                self.next_odd += if server { 2 } else { 0 };
                self.s.frame(Frame::Headers {
                    stream,
                    block,
                    end_stream: true,
                    end_headers: true,
                    priority: None,
                });
            }
            4 | 5 => {
                // HEADERS that never ends; then something else, or a
                // CONTINUATION on another stream.
                let stream = self.stream();
                let block = self.peer.encode(&RESPONSE).into();
                let frame = Frame::Headers {
                    stream,
                    block,
                    end_stream: false,
                    end_headers: false,
                    priority: None,
                };
                self.s.frame(frame);
                if self.one_in(2) {
                    let block = Bytes::from(vec![0x82]);
                    self.s.frame(Frame::Continuation {
                        stream: stream + 2,
                        block,
                        end_headers: true,
                    });
                }
            }
            6 => {
                let block = Bytes::from(vec![0x82]);
                let stream = self.stream();
                self.s.frame(Frame::Continuation { stream, block, end_headers: true });
            }
            7 => {
                let stream = if self.one_in(2) { 0 } else { self.stream() };
                for _ in 0..2 {
                    self.s.frame(Frame::WindowUpdate { stream, increment: 0x7fff_ffff });
                }
            }
            8 => {
                let len = self.origin.max_frame() + self.range(1, 5_000) as usize;
                let ty = self.pick(&[0x0, 0x1, 0x6]);
                self.s.raw(len, ty, 0, 1, &[]);
            }
            9 => {
                let len = self.range(0, 100) as usize;
                self.s.data(0, len, 0, None);
            }
            10 => {
                let len = self.range(0, 100) as usize;
                self.s.data(99, len, 0, None);
            }
            11 => {
                // A promised id that is odd, or not above the last one.
                let promised = self.pick(&[self.promised, self.promised + 1, 1]);
                let stream = self.stream();
                let block = self.peer.encode(&REQUEST).into();
                self.s.frame(Frame::PushPromise { stream, promised, block, end_headers: true });
            }
            _ => {
                let settings =
                    Settings { initial_window_size: Some(0x8000_0000), ..Default::default() };
                self.s.frame(Frame::Settings { ack: false, settings });
            }
        }
    }

    /// A whole case: the peer's opening, benign steps with at most one
    /// hostile one among them, and (for a server) a drain of whatever is
    /// left; plus the piece lengths its bytes are cut into.
    fn case(mut self) -> (Script, Vec<usize>) {
        if self.origin.role == Role::Server {
            let bad = self.one_in(32);
            self.s.wire.extend_from_slice(if bad {
                b"PRI * HTTP/2.0\r\n\r\nSM\r\n\rX"
            } else {
                PREFACE
            });
        }
        let settings = self.settings();
        self.s.frame(Frame::Settings { ack: false, settings });
        let steps = self.range(1, 100);
        let hostile = self.one_in(4).then(|| self.below(steps));
        for i in 0..steps {
            if hostile == Some(i) {
                self.hostile();
            } else {
                self.step();
            }
        }
        if self.origin.role == Role::Server {
            let settings =
                Settings { initial_window_size: Some(0x7fff_ffff), ..Default::default() };
            self.s.frame(Frame::Settings { ack: false, settings });
            for _ in 0..4 {
                self.s.frame(Frame::WindowUpdate { stream: 0, increment: 0x0fff_ffff });
                self.s.local(Local::Produce { max: usize::MAX, fifo: false });
            }
        }
        let cuts = match self.below(8) {
            0 => vec![usize::MAX],
            1 if self.s.wire.len() < 8_000 => vec![1],
            _ => (0..self.range(1, 40))
                .map(|_| match self.below(6) {
                    0 | 1 => self.range(1, 12),
                    2 => self.range(100, 1_460),
                    3 => 1_460,
                    4 => 16_393,
                    _ => self.range(20_000, 70_000),
                } as usize)
                .collect(),
        };
        (self.s, cuts)
    }
}

/// Cases per role.
const CASES: u64 = 512;

fn generated(origins: &[Origin]) {
    for seed in 0..CASES {
        let origin = &origins[seed as usize % origins.len()];
        let (script, cuts) = Gen::new(seed, origin).case();
        let mut next = cuts.iter().copied().cycle();
        let label = format!("{:?} case {seed}", origin.role);
        run(origin, &script, &label, || next.next().expect("a cycle never ends"));
    }
}

#[test]
fn generated_client_scripts_match_the_model() {
    let no_push = Settings { enable_push: Some(false), ..Default::default() };
    let small = Settings {
        initial_window_size: Some(1_000),
        header_table_size: Some(64),
        max_header_list_size: Some(8_192),
        ..Default::default()
    };
    generated(&[
        scenario_client(),
        Origin::new(Role::Client, Settings::default(), ConnLimits::new(), 0),
        Origin::new(Role::Client, no_push, ConnLimits::strict(), 0),
        Origin::new(Role::Client, small, ConnLimits::permissive(), 0),
    ]);
}

#[test]
fn generated_server_scripts_match_the_model() {
    let small = Settings { initial_window_size: Some(1_000), ..Default::default() };
    generated(&[
        Origin::new(Role::Server, Settings::default(), ConnLimits::new(), 0),
        Origin::new(Role::Server, Settings::default(), ConnLimits::strict(), 0),
        Origin::new(Role::Server, Settings::default(), ConnLimits::permissive(), 0),
        Origin::new(Role::Server, small, ConnLimits::new(), 0),
    ]);
}
