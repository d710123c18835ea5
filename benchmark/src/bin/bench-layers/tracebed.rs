//! `tracebed`: the benchmark's own copy of the testbed's replay loop
//! (`crates/testbed/src/driver.rs`), built on the layers' public APIs
//! (`Network`, `Browser`, `ReplayServer` through `Endpoint`) with a span
//! around every call into a layer.
//!
//! It recycles its machinery between replays the way `ReplayCtx` does
//! (reset in place, parked servers and FIFOs), so the per-layer times are
//! those of the steady state `RunPlan` runs in, and it must return a
//! `ReplayOutcome` equal to `RunPlan`'s for the same inputs and config —
//! the traced run and a unit test both check that. HTTP/2 only: no
//! workload replays HTTP/1.1.
//!
//! Spans are flat: glue calls a layer, the layer returns. What `browser`
//! and `h2server` spend inside `h2proto` and `hpack` is part of their own
//! self time; spans inside the program are a later change.

use bytes::{Bytes, BytesMut};
use h2push_browser::{Browser, BrowserAction, PreparedScan, TransportMode};
use h2push_h2proto::sansio::Endpoint;
use h2push_netsim::{ConnId, Dir, NetEvent, Network, ServerSpec, SimTime};
use h2push_server::ReplayServer;
use h2push_strategies::{RunTrace, Strategy};
use h2push_testbed::{Protocol, ReplayConfig, ReplayError, ReplayInputs, ReplayOutcome};
use h2push_webmodel::ResourceId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Where host time goes. `Glue` is the loop itself: everything between
/// two calls into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Glue = 0,
    Netsim = 1,
    Browser = 2,
    Server = 3,
}

impl Layer {
    /// Crate name of the layer.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Glue => "testbed",
            Layer::Netsim => "netsim",
            Layer::Browser => "browser",
            Layer::Server => "h2server",
        }
    }
}

/// One call into a layer: which function, when (ns since the clock's
/// epoch), and the replay that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub call: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: u32,
}

/// An exclusive-time clock: every instant belongs to exactly one layer,
/// so the four self times add up to the traced wall time.
pub struct Clock {
    epoch: Instant,
    last: Instant,
    /// Self time per [`Layer`], in ns.
    pub self_ns: [u64; 4],
    /// Calls per [`Layer`] (replays, for `Glue`).
    pub calls: [u64; 4],
    /// Id of the replay in progress; the parent of every span.
    pub replay: u32,
    /// The full span list, kept only while `Some`.
    pub spans: Option<Vec<Span>>,
}

impl Clock {
    pub fn new() -> Clock {
        let now = Instant::now();
        Clock { epoch: now, last: now, self_ns: [0; 4], calls: [0; 4], replay: 0, spans: None }
    }

    /// Time since the last boundary goes to `to`; returns the boundary.
    #[inline]
    fn boundary(&mut self, to: Layer) -> Instant {
        let now = Instant::now();
        self.self_ns[to as usize] += (now - self.last).as_nanos() as u64;
        self.last = now;
        now
    }

    /// Run `f`, a call into `layer`, inside a span.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, call: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.boundary(Layer::Glue);
        let out = f();
        let end = self.boundary(layer);
        self.calls[layer as usize] += 1;
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                layer,
                call,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                replay: self.replay,
            });
        }
        out
    }

    /// Open the replay span: time since the previous replay is dropped.
    fn begin_replay(&mut self) -> u64 {
        self.last = Instant::now();
        (self.last - self.epoch).as_nanos() as u64
    }

    /// Close the replay span opened at `start_ns`.
    fn end_replay(&mut self, start_ns: u64) {
        let end = self.boundary(Layer::Glue);
        self.calls[Layer::Glue as usize] += 1;
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                layer: Layer::Glue,
                call: "replay",
                start_ns,
                end_ns: (end - self.epoch).as_nanos() as u64,
                replay: self.replay,
            });
        }
        self.replay += 1;
    }

    /// Cost of one span's bookkeeping in ns: the low percentile over batches of
    /// empty spans on a scratch clock.
    pub fn calibrate() -> f64 {
        const BATCH: u32 = 20_000;
        let batches: Vec<f64> = (0..9)
            .map(|_| {
                let mut clock = Clock::new();
                let t = Instant::now();
                for _ in 0..BATCH {
                    clock.span(Layer::Netsim, "calibrate", || std::hint::black_box(()));
                }
                std::hint::black_box(&clock.self_ns);
                t.elapsed().as_nanos() as f64 / f64::from(BATCH)
            })
            .collect();
        h2push_benchmark::stats::low_percentile(&batches)
    }
}

/// One direction of an in-flight TCP stream: a FIFO of `Bytes` chunks
/// (the driver's `ByteFifo`).
#[derive(Default)]
struct ByteFifo {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl ByteFifo {
    fn push(&mut self, b: Bytes) {
        self.len += b.len();
        self.chunks.push_back(b);
    }

    fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Pop up to `max` bytes as one contiguous buffer, so the receiver
    /// sees exactly one `feed_bytes` call per network delivery.
    fn pop(&mut self, max: usize) -> Bytes {
        let take = max.min(self.len);
        if take == 0 {
            return Bytes::new();
        }
        self.len -= take;
        let front = self.chunks.front_mut().expect("non-empty fifo");
        if take <= front.len() {
            let out = front.split_to(take);
            if front.is_empty() {
                self.chunks.pop_front();
            }
            return out;
        }
        let mut buf = BytesMut::with_capacity(take);
        let mut rem = take;
        while rem > 0 {
            let front = self.chunks.front_mut().expect("non-empty fifo");
            let n = rem.min(front.len());
            buf.extend_from_slice(&front.split_to(n));
            if front.is_empty() {
                self.chunks.pop_front();
            }
            rem -= n;
        }
        buf.freeze()
    }
}

struct ConnCtx {
    group: usize,
    slot: usize,
    up: ByteFifo,
    down: ByteFifo,
}

/// Parked components kept between replays (the driver's `SPARE_CAP`).
const SPARE_CAP: usize = 16;

/// The traced replay loop and the machinery it recycles.
#[derive(Default)]
pub struct Tracebed {
    net: Option<Network>,
    browser: Option<Browser>,
    servers: HashMap<(usize, usize), Box<ReplayServer>>,
    conn_of_slot: HashMap<(usize, usize), ConnId>,
    conns: HashMap<ConnId, ConnCtx>,
    queue: VecDeque<BrowserAction>,
    #[allow(clippy::vec_box)] // parked whole, as the driver does
    spare_servers: Vec<Box<ReplayServer>>,
    spare_conns: Vec<ConnCtx>,
    pending: Vec<((usize, usize), ConnId)>,
}

impl Tracebed {
    pub fn new() -> Tracebed {
        Tracebed::default()
    }

    /// Park last replay's per-connection state and reset the long-lived
    /// machines (the driver's `begin_run`).
    fn begin(&mut self, inputs: &ReplayInputs, cfg: &ReplayConfig, clock: &mut Clock) {
        for (_, server) in self.servers.drain() {
            if self.spare_servers.len() < SPARE_CAP {
                self.spare_servers.push(server);
            }
        }
        for (_, mut c) in self.conns.drain() {
            if self.spare_conns.len() < SPARE_CAP {
                c.up.clear();
                c.down.clear();
                self.spare_conns.push(c);
            }
        }
        self.conn_of_slot.clear();
        self.queue.clear();
        self.pending.clear();

        let net = &mut self.net;
        clock.span(Layer::Netsim, "reset", || match net {
            Some(n) => n.reset(cfg.network.clone()),
            None => *net = Some(Network::new(cfg.network.clone())),
        });

        let mut browser_cfg = cfg.browser.clone();
        browser_cfg.enable_push = !matches!(*cfg.strategy, Strategy::NoPush);
        browser_cfg.warm_cache = cfg.warm_cache.clone();
        browser_cfg.transport = TransportMode::H2;
        browser_cfg.limits = cfg.limits;
        let browser = &mut self.browser;
        clock.span(Layer::Browser, "reset", || {
            let prepared = inputs.prepared_page();
            let scan = match prepared {
                Some(p) => Arc::clone(p.scan()),
                None => Arc::new(PreparedScan::build(&inputs.page)),
            };
            match browser {
                Some(b) => b.reset(Arc::clone(&inputs.page), browser_cfg, scan),
                None => {
                    *browser = Some(Browser::with_scan(Arc::clone(&inputs.page), browser_cfg, scan))
                }
            }
            if let (Some(b), Some(p)) = (browser.as_mut(), prepared) {
                b.set_hpack_block_cache(p.hpack_cache().clone());
                b.set_hpack_decode_cache(p.hpack_decode_cache().clone());
            }
        });
    }

    /// Replay `inputs` once under `cfg`, charging every call into a layer
    /// to `clock`.
    pub fn replay(
        &mut self,
        inputs: &ReplayInputs,
        cfg: &ReplayConfig,
        clock: &mut Clock,
    ) -> Result<ReplayOutcome, ReplayError> {
        assert_eq!(cfg.protocol, Protocol::H2, "tracebed replays HTTP/2 only");
        let start = clock.begin_replay();
        self.begin(inputs, cfg, clock);
        let out = Loop {
            inputs,
            cfg,
            clock,
            net: self.net.as_mut().expect("net initialised"),
            browser: self.browser.as_mut().expect("browser initialised"),
            servers: &mut self.servers,
            conn_of_slot: &mut self.conn_of_slot,
            conns: &mut self.conns,
            queue: &mut self.queue,
            spare_servers: &mut self.spare_servers,
            spare_conns: &mut self.spare_conns,
            pending: &mut self.pending,
        }
        .run();
        clock.end_replay(start);
        out
    }
}

/// The driver's `SimDriver`, with spans.
struct Loop<'a> {
    inputs: &'a ReplayInputs,
    cfg: &'a ReplayConfig,
    clock: &'a mut Clock,
    net: &'a mut Network,
    browser: &'a mut Browser,
    servers: &'a mut HashMap<(usize, usize), Box<ReplayServer>>,
    conn_of_slot: &'a mut HashMap<(usize, usize), ConnId>,
    conns: &'a mut HashMap<ConnId, ConnCtx>,
    queue: &'a mut VecDeque<BrowserAction>,
    #[allow(clippy::vec_box)]
    spare_servers: &'a mut Vec<Box<ReplayServer>>,
    spare_conns: &'a mut Vec<ConnCtx>,
    pending: &'a mut Vec<((usize, usize), ConnId)>,
}

impl Loop<'_> {
    fn drain_actions(&mut self) {
        while let Some(a) = self.queue.pop_front() {
            match a {
                BrowserAction::OpenConnection { group, slot } => self.open_connection(group, slot),
                BrowserAction::SendBytes { group, slot, bytes } => {
                    let conn = self.conn_of_slot[&(group, slot)];
                    let net = &mut *self.net;
                    self.clock.span(Layer::Netsim, "send", || net.send(conn, Dir::Up, bytes.len()));
                    self.conns.get_mut(&conn).expect("unknown conn").up.push(bytes);
                }
                BrowserAction::SetTimer { at, token } => {
                    let net = &mut *self.net;
                    self.clock.span(Layer::Netsim, "schedule", || net.schedule(at, token));
                }
            }
        }
    }

    fn open_connection(&mut self, group: usize, slot: usize) {
        let cfg = self.cfg;
        let spec = match cfg.server_extra_delay.get(&group) {
            Some(&d) => ServerSpec::with_extra_delay(d),
            None => ServerSpec { think: cfg.server_think, ..Default::default() },
        };
        let net = &mut *self.net;
        let conn = self.clock.span(Layer::Netsim, "connect", || {
            let sid = net.add_server(spec);
            net.connect(sid)
        });
        self.conn_of_slot.insert((group, slot), conn);
        let (up, down) = match self.spare_conns.pop() {
            Some(c) => (c.up, c.down),
            None => Default::default(),
        };
        self.conns.insert(conn, ConnCtx { group, slot, up, down });
        let inputs = self.inputs;
        let spare = self.spare_servers.pop();
        let server = self.clock.span(Layer::Server, "new", || {
            let (page, db) = (Arc::clone(&inputs.page), Arc::clone(&inputs.db));
            let mut s = match spare {
                Some(mut s) => {
                    s.reset(page, db, group, &cfg.strategy);
                    s
                }
                None => Box::new(ReplayServer::new(page, db, group, &cfg.strategy)),
            };
            s.set_honor_cache_digest(cfg.server_honors_digest);
            s.set_limits(cfg.limits);
            if let Some(p) = inputs.prepared_page() {
                s.set_prepared(Arc::clone(p.server()));
                s.set_hpack_block_cache(p.hpack_cache().clone());
                s.set_hpack_decode_cache(p.hpack_decode_cache().clone());
            }
            s
        });
        self.servers.insert((group, slot), server);
    }

    fn pump_server(&mut self, conn: ConnId, key: (usize, usize)) {
        loop {
            let server = self.servers.get_mut(&key).expect("server exists");
            let net = &mut *self.net;
            if !self.clock.span(Layer::Server, "wants_output", || server.wants_output()) {
                self.clock
                    .span(Layer::Netsim, "set_hungry", || net.set_hungry(conn, Dir::Down, false));
                break;
            }
            match self
                .clock
                .span(Layer::Netsim, "set_hungry", || net.set_hungry(conn, Dir::Down, true))
            {
                Some(window) => {
                    let now = net.now().as_micros();
                    let bytes = self
                        .clock
                        .span(Layer::Server, "poll_output", || server.poll_output(window, now));
                    if bytes.is_empty() {
                        self.clock.span(Layer::Netsim, "set_hungry", || {
                            net.set_hungry(conn, Dir::Down, false)
                        });
                        break;
                    }
                    self.clock
                        .span(Layer::Netsim, "send", || net.send(conn, Dir::Down, bytes.len()));
                    self.conns.get_mut(&conn).expect("ctx").down.push(bytes);
                }
                None => break,
            }
        }
    }

    fn intake(&mut self, mut actions: Vec<BrowserAction>) {
        self.queue.extend(actions.drain(..));
        self.browser.recycle_actions(actions);
        self.drain_actions();
    }

    fn run(mut self) -> Result<ReplayOutcome, ReplayError> {
        let cfg = self.cfg;
        let deadline = SimTime::ZERO + cfg.deadline;
        let (browser, now) = (&mut *self.browser, self.net.now());
        let actions = self.clock.span(Layer::Browser, "start", || browser.start(now));
        self.intake(actions);

        loop {
            if self.browser.done() {
                break;
            }
            let net = &mut *self.net;
            let Some((t, ev)) = self.clock.span(Layer::Netsim, "step", || net.step()) else {
                return Err(ReplayError::Stalled { at: self.net.now() });
            };
            if t > deadline {
                return Err(ReplayError::DeadlineExceeded);
            }
            if self.net.events_processed() > cfg.watchdog_events {
                return Err(ReplayError::Watchdog { events: self.net.events_processed() });
            }
            let browser = &mut *self.browser;
            match ev {
                NetEvent::Connected { conn } => {
                    let (group, slot) = (self.conns[&conn].group, self.conns[&conn].slot);
                    let actions = self.clock.span(Layer::Browser, "on_connected", || {
                        browser.on_connected(group, slot, t)
                    });
                    self.intake(actions);
                    self.pump_server(conn, (group, slot));
                }
                NetEvent::Delivered { conn, dir: Dir::Up, bytes } => {
                    let c = self.conns.get_mut(&conn).expect("ctx");
                    let key = (c.group, c.slot);
                    let chunk = c.up.pop(bytes);
                    let server = self.servers.get_mut(&key).expect("server");
                    self.clock.span(Layer::Server, "feed_bytes", || {
                        server.feed_bytes(&chunk, t.as_micros())
                    });
                    self.pump_server(conn, key);
                }
                NetEvent::Delivered { conn, dir: Dir::Down, bytes } => {
                    let c = self.conns.get_mut(&conn).expect("ctx");
                    let (group, slot) = (c.group, c.slot);
                    let chunk = c.down.pop(bytes);
                    let actions = self.clock.span(Layer::Browser, "on_bytes", || {
                        browser.on_bytes(group, slot, &chunk, t)
                    });
                    self.intake(actions);
                    self.pump_server(conn, (group, slot));
                }
                NetEvent::SendReady { conn, dir: Dir::Down, .. } => {
                    let (group, slot) = (self.conns[&conn].group, self.conns[&conn].slot);
                    self.pump_server(conn, (group, slot));
                }
                NetEvent::SendReady { .. } => {}
                NetEvent::App { token } => {
                    let actions =
                        self.clock.span(Layer::Browser, "on_timer", || browser.on_timer(token, t));
                    self.intake(actions);
                    // Pump in (group, slot) order: HashMap order must not
                    // leak into the simulation.
                    let mut pending = std::mem::take(self.pending);
                    pending.clear();
                    pending.extend(self.conn_of_slot.iter().map(|(&k, &c)| (k, c)));
                    pending.sort_unstable_by_key(|&(k, _)| k);
                    for &(key, conn) in &pending {
                        let server = self.servers.get(&key);
                        let wants = server.is_some_and(|s| {
                            self.clock.span(Layer::Server, "wants_output", || s.wants_output())
                        });
                        if wants {
                            self.pump_server(conn, key);
                        }
                    }
                    *self.pending = pending;
                }
            }
        }

        let main_group = self.inputs.page.server_group_of(ResourceId(0));
        let main_server = self.servers.get(&(main_group, 0));
        let browser = &*self.browser;
        Ok(ReplayOutcome {
            load: self.clock.span(Layer::Browser, "result", || browser.result()),
            trace: RunTrace {
                order: main_server
                    .map(|s| s.observations().iter().map(|o| o.resource).collect())
                    .unwrap_or_default(),
            },
            server_pushed_bytes: main_server.map_or(0, |s| s.pushed_bytes()),
            net: self.net.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_strategies::{paper_strategy, PaperStrategy};
    use h2push_testbed::{FaultProfile, Mode, RunPlan};
    use h2push_webmodel::synthetic_site;

    /// `tracebed ≡ RunPlan`: the same `ReplayOutcome` (hence the same
    /// `LoadResult`) for the same page and config, with one recycled
    /// `Tracebed` across every combination.
    #[test]
    fn tracebed_equals_runplan() {
        let mut bed = Tracebed::new();
        let mut clock = Clock::new();
        for site in 1..=3 {
            for which in
                [PaperStrategy::NoPush, PaperStrategy::PushAll, PaperStrategy::PushAllOptimized]
            {
                let (page, strategy) = paper_strategy(&synthetic_site(site), which);
                for (mode, prepared) in [(Mode::Testbed, false), (Mode::Internet, true)] {
                    let mut plan =
                        RunPlan::new(&page).strategy(strategy.clone()).mode(mode).reps(2).seed(11);
                    if mode == Mode::Internet {
                        plan = plan.faults(FaultProfile::gilbert_elliott(0.02));
                    }
                    if prepared {
                        plan = plan.prepared();
                    }
                    for rep in 0..2 {
                        let cfg = plan.config_for(rep);
                        let expected = RunPlan::new(plan.inputs())
                            .config(cfg.clone())
                            .run_one()
                            .map(|r| r.outcome);
                        let got = bed.replay(plan.inputs(), &cfg, &mut clock);
                        assert_eq!(got, expected, "s{site} {which:?} {mode:?} rep {rep}");
                    }
                }
            }
        }
        // Every instant of every replay went to exactly one layer.
        assert_eq!(clock.calls[Layer::Glue as usize], 3 * 3 * 2 * 2);
        assert!(clock.self_ns.iter().all(|&ns| ns > 0));
    }

    #[test]
    fn a_failing_replay_fails_the_same_way() {
        let (page, strategy) = paper_strategy(&synthetic_site(1), PaperStrategy::PushAll);
        let plan = RunPlan::new(&page).strategy(strategy).watchdog_events(1);
        let cfg = plan.config_for(0);
        let expected = plan.run_one().map(|r| r.outcome);
        assert!(expected.is_err());
        assert_eq!(Tracebed::new().replay(plan.inputs(), &cfg, &mut Clock::new()), expected);
    }

    #[test]
    fn spans_nest_inside_their_replay() {
        let (page, strategy) = paper_strategy(&synthetic_site(2), PaperStrategy::PushAll);
        let plan = RunPlan::new(&page).strategy(strategy);
        let mut clock = Clock::new();
        clock.spans = Some(Vec::new());
        Tracebed::new().replay(plan.inputs(), &plan.config_for(0), &mut clock).expect("replays");
        let spans = clock.spans.take().expect("recorded");
        let parent = spans.last().expect("spans");
        assert_eq!((parent.layer, parent.call), (Layer::Glue, "replay"));
        let children = &spans[..spans.len() - 1];
        assert!(children.len() > 10);
        assert!(children.iter().all(|s| {
            s.replay == parent.replay && s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns
        }));
        // Flat spans: each child starts after the previous one ended.
        assert!(children.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
        let covered: u64 = children.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert!(covered <= parent.end_ns - parent.start_ns);
    }
}
