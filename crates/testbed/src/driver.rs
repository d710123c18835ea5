//! The netsim adapter: hosts the sans-IO endpoints on the simulated
//! network.
//!
//! Everything protocol-shaped lives in the state machines (browser,
//! replay servers, `h2push-h2proto` connections); everything
//! transport-shaped lives in `h2push-netsim`. This module is the thin
//! layer between them — it owns the event loop and does exactly four
//! things:
//!
//! * shuttle delivered bytes into the machines
//!   ([`Endpoint::feed_bytes`] / `Browser::on_bytes`) stamped with
//!   sim-time,
//! * shuttle produced bytes ([`Endpoint::poll_output_into`] /
//!   `BrowserAction::SendBytes`) into the simulated TCP pipes — the
//!   per-direction [`WireFifo`] is the sink a server produces into,
//! * realize browser actions (open connections, arm timers) against the
//!   simulator, and
//! * police the run: deadline, stall detection and the event watchdog.
//!
//! The machinery a run needs — browser engine, network, per-connection
//! servers and byte FIFOs — lives in a [`ReplayCtx`] and is *recycled*
//! between runs instead of reconstructed: every component resets in place
//! (clear-don't-drop, keeping its buffers) through the same code path a
//! cold construction takes, so a recycled run is byte-identical to a
//! fresh one (asserted across strategies, faults, modes and tracing in
//! `tests/recycle.rs`). [`drive_in`] runs in the context it is handed:
//! the caller's own, or the thread-local one [`with_thread_ctx`] lends.
//!
//! The live TCP runtime (`crate::live`) is the same adapter shape over
//! real sockets; the equality suite in `tests/sansio_golden.rs` pins this
//! loop's outputs bit-for-bit.

use crate::replay::{Protocol, ReplayConfig, ReplayError, ReplayInputs, ReplayOutcome};
use crate::wire_fifo::WireFifo;
use h2push_browser::{Browser, BrowserAction};
use h2push_h2proto::sansio::{Endpoint, WireSink};
use h2push_netsim::{ConnId, Dir, NetEvent, Network, ServerId, ServerSpec, SimTime};
use h2push_server::{H1ReplayServer, ReplayServer};
use h2push_strategies::{RunTrace, Strategy};
use h2push_trace::{conn_label, TraceHandle};
use h2push_webmodel::ResourceId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Per-connection adapter state: which browser (group, slot) the netsim
/// connection belongs to, the replay server behind it, plus the bytes
/// handed to the simulator but not yet delivered, per direction.
struct ConnCtx {
    group: usize,
    slot: usize,
    server: AnyServer,
    /// Bytes handed to netsim (up = client→server) not yet delivered.
    up: WireFifo,
    down: WireFifo,
}

/// A per-connection replay server of either protocol. (Boxed: the H2
/// server carries the page, record DB and scheduler state and is much
/// larger than the H1 half.)
enum AnyServer {
    H2(Box<ReplayServer>),
    H1(H1ReplayServer),
}

impl AnyServer {
    fn h2(&self) -> Option<&ReplayServer> {
        match self {
            AnyServer::H2(s) => Some(s),
            AnyServer::H1(_) => None,
        }
    }
}

/// Both protocols present the same sans-IO face to the driver.
impl Endpoint for AnyServer {
    fn feed_bytes(&mut self, bytes: &[u8], now: u64) {
        match self {
            AnyServer::H2(s) => s.feed_bytes(bytes, now),
            AnyServer::H1(s) => s.feed_bytes(bytes, now),
        }
    }

    fn wants_output(&self) -> bool {
        match self {
            AnyServer::H2(s) => s.wants_output(),
            AnyServer::H1(s) => s.wants_output(),
        }
    }

    fn poll_output_into(&mut self, max: usize, now: u64, sink: &mut dyn WireSink) -> usize {
        match self {
            AnyServer::H2(s) => s.poll_output_into(max, now, sink),
            AnyServer::H1(s) => s.poll_output_into(max, now, sink),
        }
    }
}

/// The run context: every piece of per-rep machinery a replay needs,
/// recycled between repetitions instead of reconstructed.
///
/// A context owns the browser engine, the simulated network (with its
/// pooled event queue), the per-connection replay servers and byte FIFOs
/// its runs parked, plus the driver's scratch buffers. Starting a run
/// resets each component in place — clear-don't-drop, retaining every
/// container allocation — through the same setup path a cold construction
/// takes, which is what makes the steady state allocation-free *and*
/// byte-identical to fresh construction (the recycled-vs-cold equality
/// suite in `tests/recycle.rs` pins both).
///
/// The reset runs at the *beginning* of each run, not the end: a context
/// whose previous run panicked or errored out mid-flight is healed by the
/// next `begin_run`, never poisoned.
#[derive(Default)]
pub struct ReplayCtx {
    net: Option<Network>,
    pub(crate) browser: Option<Browser>,
    /// This run's connections, indexed by [`ConnId`]: netsim hands out
    /// dense ids in connect order.
    conns: Vec<ConnCtx>,
    /// The same connections in (group, slot) order: the browser's address
    /// for a connection resolves by binary search, and the timer pump
    /// walks it instead of sorting.
    by_slot: Vec<ConnId>,
    pub(crate) queue: VecDeque<BrowserAction>,
    /// Parked H2 replay servers from earlier runs, reissued (via
    /// `ReplayServer::reset`) by `open_connection` — and, in a live
    /// server's context, by `accept`. The box is the point: it is
    /// `AnyServer::H2`'s own allocation, parked and reissued whole so
    /// recycling never re-boxes.
    #[allow(clippy::vec_box)]
    pub(crate) spare_h2: Vec<Box<ReplayServer>>,
    /// Parked H1 replay servers, reissued via `H1ReplayServer::reset`.
    spare_h1: Vec<H1ReplayServer>,
    /// Parked per-connection FIFO pairs (literal rings retained). The
    /// live runtime queues one direction per socket: a server the
    /// `down` half, the load client the `up` half.
    pub(crate) spare_fifos: Vec<(WireFifo, WireFifo)>,
    /// The live runtime's scratch: read buffer, `pollfd` array, and the
    /// load client's timers and connection table.
    #[cfg(unix)]
    pub(crate) live: crate::live::LiveScratch,
}

impl ReplayCtx {
    /// A fresh, empty context. The first run through it constructs its
    /// machinery cold; every later run recycles.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park last run's per-connection state and reset the long-lived
    /// machines for a new `(inputs, cfg, trace)` run.
    fn begin_run(&mut self, inputs: &ReplayInputs, cfg: &ReplayConfig, trace: &TraceHandle) {
        // Park every connection the last run opened on top of the spares
        // it left unused. A run builds a machine only when the stack is
        // empty, so what a context holds is the most machines any one of
        // its runs had in use at once (81 on w17-cnn): a page switch
        // reissues machines instead of rebuilding them, and no cap or
        // setting is needed. Last-opened first, so the next run's
        // connection i is issued what this run's connection i grew (the
        // document's connection, the largest, is opened first).
        while let Some(mut c) = self.conns.pop() {
            match c.server {
                AnyServer::H2(s) => self.spare_h2.push(s),
                AnyServer::H1(s) => self.spare_h1.push(s),
            }
            c.up.clear();
            c.down.clear();
            self.spare_fifos.push((c.up, c.down));
        }
        self.by_slot.clear();
        self.queue.clear();

        match &mut self.net {
            Some(n) => n.reset(cfg.network.clone()),
            None => self.net = Some(Network::new(cfg.network.clone())),
        }
        let net = self.net.as_mut().expect("net initialised");
        net.set_trace(trace.clone());

        let mut browser_cfg = cfg.browser.clone();
        browser_cfg.enable_push =
            cfg.protocol == Protocol::H2 && !matches!(*cfg.strategy, Strategy::NoPush);
        browser_cfg.warm_cache = cfg.warm_cache.clone();
        browser_cfg.transport = match cfg.protocol {
            Protocol::H2 => h2push_browser::TransportMode::H2,
            Protocol::H1 => h2push_browser::TransportMode::H1,
        };
        browser_cfg.limits = cfg.limits;
        let scan = Arc::clone(&inputs.scan);
        match &mut self.browser {
            Some(b) => b.reset(Arc::clone(&inputs.page), browser_cfg, scan),
            None => {
                self.browser = Some(Browser::with_scan(Arc::clone(&inputs.page), browser_cfg, scan))
            }
        }
        let browser = self.browser.as_mut().expect("browser initialised");
        if let Some(p) = &inputs.prepared {
            browser.set_hpack_block_cache(p.hpack.clone());
            browser.set_hpack_decode_cache(p.hpack_decode.clone());
        }
        browser.set_trace(trace.clone());
    }

    /// Take back every clone of a traced run's handle that `begin_run` and
    /// the run handed out: the network's, the browser's and its
    /// connections', and the servers'. The caller can then unwrap the
    /// run's timeline, and a parked context pins none.
    fn release_trace(&mut self) {
        if let Some(net) = &mut self.net {
            net.set_trace(TraceHandle::off());
        }
        if let Some(browser) = &mut self.browser {
            browser.clear_trace();
        }
        for c in &mut self.conns {
            if let AnyServer::H2(s) = &mut c.server {
                s.set_trace(TraceHandle::off(), 0);
            }
        }
    }
}

/// A context moves between threads: a pool helper parks its context when
/// it ends, and the next fan-out's helper adopts it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ReplayCtx>();
};

thread_local! {
    /// The context [`with_thread_ctx`] lends: one per thread, living as long as
    /// the thread. A caller thread keeps recycling its own across calls. A
    /// worker-pool helper lives for one fan-out, so it holds a
    /// [`HelperCtx`] for its whole life: it starts on a context an
    /// earlier helper parked and parks it again when it ends.
    static THREAD_CTX: RefCell<ReplayCtx> = RefCell::new(ReplayCtx::new());
}

/// Contexts parked by pool helpers that have ended. The parking rule of
/// [`ReplayCtx::begin_run`], one level up: a helper takes a context only
/// when one is parked, so the process keeps at most as many as it ever
/// had helpers alive at once.
static PARKED: Mutex<Vec<ReplayCtx>> = Mutex::new(Vec::new());

fn parked() -> MutexGuard<'static, Vec<ReplayCtx>> {
    // The lock guards one push or pop, which leaves the list whole.
    PARKED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Held by a pool helper thread for its whole life: on creation it moves
/// a parked context, if there is one, into the thread's [`THREAD_CTX`];
/// its `Drop` (which also runs on unwind) parks that context again.
pub(crate) struct HelperCtx(());

impl HelperCtx {
    pub(crate) fn adopt() -> Self {
        if let Some(ctx) = parked().pop() {
            THREAD_CTX.with(|cell| *cell.borrow_mut() = ctx);
        }
        HelperCtx(())
    }
}

impl Drop for HelperCtx {
    fn drop(&mut self) {
        let ctx = THREAD_CTX.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
        parked().push(ctx);
    }
}

/// The adapter proper: simulated network on one side, sans-IO machines on
/// the other. All state is borrowed from a [`ReplayCtx`]; the driver
/// itself is stackless glue.
struct SimDriver<'a> {
    inputs: &'a ReplayInputs,
    cfg: &'a ReplayConfig,
    trace: &'a TraceHandle,
    net: &'a mut Network,
    browser: &'a mut Browser,
    conns: &'a mut Vec<ConnCtx>,
    by_slot: &'a mut Vec<ConnId>,
    /// Browser actions not yet realized against the simulator.
    queue: &'a mut VecDeque<BrowserAction>,
    #[allow(clippy::vec_box)] // parked `AnyServer::H2` boxes, reissued whole
    spare_h2: &'a mut Vec<Box<ReplayServer>>,
    spare_h1: &'a mut Vec<H1ReplayServer>,
    spare_fifos: &'a mut Vec<(WireFifo, WireFifo)>,
}

impl SimDriver<'_> {
    /// Where `(group, slot)` is, or would go, in `by_slot`.
    fn find_slot(&self, group: usize, slot: usize) -> Result<usize, usize> {
        self.by_slot.binary_search_by_key(&(group, slot), |c| {
            let c = &self.conns[c.0];
            (c.group, c.slot)
        })
    }

    /// Realize queued browser actions against the simulator; handling one
    /// may enqueue more.
    fn drain_actions(&mut self) {
        while let Some(a) = self.queue.pop_front() {
            match a {
                BrowserAction::OpenConnection { group, slot } => self.open_connection(group, slot),
                BrowserAction::SendBytes { group, slot, bytes } => {
                    let conn = self.by_slot[self.find_slot(group, slot).expect("unknown conn")];
                    self.net.send(conn, Dir::Up, bytes.len());
                    self.conns[conn.0].up.put_slice(&bytes);
                }
                BrowserAction::SetTimer { at, token } => {
                    self.net.schedule(at, token);
                }
            }
        }
    }

    /// A new (group, slot): connect through the simulated access link and
    /// stand up the matching replay server behind it. Server machines and
    /// FIFO pairs come from the context's spare pools when available; a
    /// recycled server goes through `reset` into exactly the state a
    /// freshly constructed one starts in.
    fn open_connection(&mut self, group: usize, slot: usize) {
        let cfg = self.cfg;
        let spec = match cfg.server_extra_delay.get(&group) {
            Some(&d) => ServerSpec::with_extra_delay(d),
            None => ServerSpec { think: cfg.server_think, ..Default::default() },
        };
        let sid: ServerId = self.net.add_server(spec);
        let conn = self.net.connect(sid);
        assert_eq!(conn.0, self.conns.len(), "netsim connection ids are dense");
        let (up, down) = self.spare_fifos.pop().unwrap_or_default();
        let server = match cfg.protocol {
            Protocol::H2 => {
                let mut s = match self.spare_h2.pop() {
                    Some(mut s) => {
                        s.reset(
                            Arc::clone(&self.inputs.page),
                            Arc::clone(&self.inputs.db),
                            group,
                            &cfg.strategy,
                        );
                        s
                    }
                    None => Box::new(ReplayServer::new(
                        Arc::clone(&self.inputs.page),
                        Arc::clone(&self.inputs.db),
                        group,
                        &cfg.strategy,
                    )),
                };
                s.set_honor_cache_digest(cfg.server_honors_digest);
                s.set_limits(cfg.limits);
                s.set_prepared(Arc::clone(&self.inputs.server));
                if let Some(p) = &self.inputs.prepared {
                    s.set_hpack_block_cache(p.hpack.clone());
                    s.set_hpack_decode_cache(p.hpack_decode.clone());
                }
                if self.trace.is_on() {
                    s.set_trace(self.trace.clone(), conn_label(group, slot));
                }
                AnyServer::H2(s)
            }
            Protocol::H1 => {
                let s = match self.spare_h1.pop() {
                    Some(mut s) => {
                        s.reset(Arc::clone(&self.inputs.db));
                        s
                    }
                    None => H1ReplayServer::new(Arc::clone(&self.inputs.db)),
                };
                AnyServer::H1(s)
            }
        };
        let pos = self.find_slot(group, slot).expect_err("(group, slot) opened twice");
        self.by_slot.insert(pos, conn);
        self.conns.push(ConnCtx { group, slot, server, up, down });
    }

    /// Pull response bytes from a server while the TCP window has room.
    fn pump_server(&mut self, conn: ConnId) {
        let c = &mut self.conns[conn.0];
        loop {
            if !c.server.wants_output() {
                self.net.set_hungry(conn, Dir::Down, false);
                break;
            }
            match self.net.set_hungry(conn, Dir::Down, true) {
                Some(window) => {
                    let now = self.net.now().as_micros();
                    let n = c.server.poll_output_into(window, now, &mut c.down);
                    // A server that wants output always writes into a
                    // usable window: its control queue emits the first
                    // frame whole, a ready stream has bytes queued, and
                    // every shipped scheduler picks from a non-empty
                    // snapshot.
                    debug_assert!(n > 0, "a server wanted output but wrote nothing");
                    if n == 0 {
                        // A release build stops pulling rather than spin;
                        // the next event fed to this server pumps it again.
                        self.net.set_hungry(conn, Dir::Down, false);
                        break;
                    }
                    self.net.send(conn, Dir::Down, n);
                }
                None => break, // TCP window full; SendReady will fire
            }
        }
    }

    /// Queue a batch of browser actions, return the emptied buffer to the
    /// engine (capacity reuse — see [`Browser::recycle_actions`]), and
    /// realize the queue.
    fn intake(&mut self, mut actions: Vec<BrowserAction>) {
        self.queue.extend(actions.drain(..));
        self.browser.recycle_actions(actions);
        self.drain_actions();
    }

    /// The event loop: step the simulator, dispatch each transport event
    /// into the machines, realize the actions that come back.
    fn run(mut self) -> Result<ReplayOutcome, ReplayError> {
        let cfg = self.cfg;
        let deadline = SimTime::ZERO + cfg.deadline;
        let actions = self.browser.start(self.net.now());
        self.intake(actions);

        loop {
            if self.browser.done() {
                break;
            }
            let Some((t, ev)) = self.net.step() else {
                return Err(ReplayError::Stalled { at: self.net.now() });
            };
            // Publish the shared trace clock so emission sites without a
            // time parameter (endpoint state machines) stamp with event
            // time.
            self.trace.set_now(t.as_micros());
            if t > deadline {
                return Err(ReplayError::DeadlineExceeded);
            }
            if self.net.events_processed() > cfg.watchdog_events {
                let events = self.net.events_processed();
                self.trace.emit(h2push_trace::TraceEvent::WatchdogFired { events });
                return Err(ReplayError::Watchdog { events });
            }
            match ev {
                NetEvent::Connected { conn } => {
                    let c = &self.conns[conn.0];
                    let actions = self.browser.on_connected(c.group, c.slot, t);
                    self.intake(actions);
                    self.pump_server(conn);
                }
                NetEvent::Delivered { conn, dir: Dir::Up, bytes } => {
                    let c = &mut self.conns[conn.0];
                    // Chunk boundaries mean nothing to an endpoint, and a
                    // server answers when polled, not when fed: one feed
                    // per piece equals one feed of their concatenation.
                    for piece in c.up.peek(bytes) {
                        c.server.feed_bytes(piece, t.as_micros());
                    }
                    c.up.consume(bytes);
                    self.pump_server(conn);
                }
                NetEvent::Delivered { conn, dir: Dir::Down, bytes } => {
                    let c = &mut self.conns[conn.0];
                    let actions = self.browser.on_pieces(c.group, c.slot, c.down.peek(bytes), t);
                    c.down.consume(bytes);
                    self.intake(actions);
                    // No server needs pumping here, by the timer's argument
                    // below. These bytes feed only the browser. A server's
                    // inputs are its fed bytes and its TCP window, and both
                    // last changed at an event that pumped it. A window
                    // that opens arrives as `SendReady`, and the browser's
                    // `WINDOW_UPDATE`s reach the server as a later `Up`
                    // delivery, which pumps it.
                }
                NetEvent::SendReady { conn, dir: Dir::Down, .. } => self.pump_server(conn),
                NetEvent::SendReady { .. } => {
                    // The browser sends eagerly; it never registers hunger.
                }
                NetEvent::App { token } => {
                    let actions = self.browser.on_timer(token, t);
                    self.intake(actions);
                    // No server needs pumping here. A server changes state
                    // only when fed bytes or polled, and every event that
                    // feeds one pumps that same server at once; a timer's
                    // requests reach their server as a later `Delivered`.
                    // A pump stops only when the server wants nothing, when
                    // a usable window drew no bytes — which never happens
                    // (see `pump_server`) — or when the TCP window is full.
                    // So a server that still wants output here is hungry
                    // behind a full window, and its `SendReady` is due.
                }
            }
        }

        let main_group = self.inputs.page.server_group_of(ResourceId(0));
        let main_server = self
            .find_slot(main_group, 0)
            .ok()
            .and_then(|i| self.conns[self.by_slot[i].0].server.h2());
        let trace = RunTrace {
            order: main_server
                .map(|s| s.observations().iter().map(|o| o.resource).collect())
                .unwrap_or_default(),
        };
        Ok(ReplayOutcome {
            load: self.browser.result(),
            server_pushed_bytes: main_server.map(|s| s.pushed_bytes()).unwrap_or(0),
            trace,
            net: self.net.stats(),
        })
    }
}

/// Run one replay of `inputs` under `cfg` inside `ctx`, emitting into
/// `trace` (a no-op handle costs one branch per site). The context is
/// reset-and-recycled at entry; see [`ReplayCtx`].
pub(crate) fn drive_in(
    inputs: &ReplayInputs,
    cfg: &ReplayConfig,
    trace: &TraceHandle,
    ctx: &mut ReplayCtx,
) -> Result<ReplayOutcome, ReplayError> {
    ctx.begin_run(inputs, cfg, trace);
    let ReplayCtx { net, browser, conns, by_slot, queue, spare_h2, spare_h1, spare_fifos, .. } =
        &mut *ctx;
    let out = SimDriver {
        inputs,
        cfg,
        trace,
        net: net.as_mut().expect("net initialised"),
        browser: browser.as_mut().expect("browser initialised"),
        conns,
        by_slot,
        queue,
        spare_h2,
        spare_h1,
        spare_fifos,
    }
    .run();
    if trace.is_on() {
        ctx.release_trace();
    }
    out
}

/// Run `f` in the calling thread's [`ReplayCtx`]. Re-entrant calls (a
/// replay started from inside a replay) get a fresh context rather than
/// aliasing the borrowed one.
pub(crate) fn with_thread_ctx<R>(f: impl FnOnce(&mut ReplayCtx) -> R) -> R {
    THREAD_CTX.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ctx) => f(&mut ctx),
        Err(_) => f(&mut ReplayCtx::new()),
    })
}
