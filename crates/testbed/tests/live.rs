//! Live-mode acceptance: the sans-IO machines complete a real page load
//! over real loopback TCP, with server push crossing the wire.
//!
//! This is the PR's live-serving gate — the same `ReplayServer` and
//! `Browser` state machines the simulator drives, re-hosted on the
//! `poll(2)` runtime, must agree with each other byte-for-byte well
//! enough to finish a full corpus-site load and deliver pushed
//! resources.
#![cfg(unix)]

use h2push_browser::BrowserConfig;
use h2push_h2proto::{Connection, DefaultScheduler, Frame, PrioritySpec, Settings};
use h2push_strategies::{paper_strategy, push_all, PaperStrategy, Strategy};
use h2push_testbed::{
    load_page, CloseReason, LiveLimits, LiveLoadReport, LiveServer, LiveServerHandle,
    LiveServerStats, MAX_QUEUED_BYTES,
};
use h2push_webmodel::{generate_site, realworld_site, CorpusKind, Page, PageBuilder, ResourceSpec};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server for `page` on its own thread. Belt and braces: the handle
/// stops it, the deadline bounds a wedged test run.
fn start(
    page: &Arc<Page>,
    strategy: Strategy,
    limits: LiveLimits,
) -> (SocketAddr, LiveServerHandle, JoinHandle<std::io::Result<LiveServerStats>>) {
    let mut server = LiveServer::bind("127.0.0.1:0", Arc::clone(page), strategy).expect("bind");
    server.set_limits(limits);
    server.set_deadline(Duration::from_secs(60));
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    (addr, handle, std::thread::spawn(move || server.run()))
}

fn serve_and_load(page: Arc<Page>, strategy: Strategy) -> (LiveLoadReport, LiveServerStats) {
    let (addr, handle, server) = start(&page, strategy, LiveLimits::new());
    let report = load_page(addr, page, BrowserConfig::default(), Duration::from_secs(30))
        .expect("live load");
    handle.stop();
    let stats = server.join().expect("server thread").expect("server run");
    (report, stats)
}

#[test]
fn loopback_load_completes_with_push() {
    let page = Arc::new(generate_site(CorpusKind::Random, 7));
    let strategy = push_all(&page, &[]);
    let (report, stats) = serve_and_load(Arc::clone(&page), strategy);

    assert!(report.load.finished(), "live load did not reach onload: {:?}", report.load);
    assert!(!report.load.partial, "live load was partial");
    assert_eq!(report.load.failed_resources, 0, "live load dropped resources");
    assert!(report.load.pushed_count > 0, "no resources arrived via push");
    assert!(report.load.pushed_bytes > 0, "push streams carried no bytes");
    // Push can satisfy a group's resources before its connection is ever
    // needed, so only the origin connection is guaranteed.
    assert!(report.conns >= 1, "no connections opened");

    assert!(stats.accepted >= report.conns as u64, "server missed connections");
    assert!(stats.pushed_bytes > 0, "server pushed nothing");
    assert_eq!(stats.protocol_errors, 0, "server saw protocol errors from our own browser");
    // Both ends count wire bytes; they watched the same sockets.
    assert_eq!(stats.bytes_out, report.bytes_in, "server-sent vs client-received bytes");
    assert_eq!(stats.bytes_in, report.bytes_out, "client-sent vs server-received bytes");
}

#[test]
fn loopback_load_completes_without_push() {
    let page = Arc::new(generate_site(CorpusKind::Random, 11));
    let (report, stats) = serve_and_load(Arc::clone(&page), Strategy::NoPush);

    assert!(report.load.finished(), "no-push live load did not finish: {:?}", report.load);
    assert_eq!(report.load.pushed_count, 0, "NoPush strategy pushed anyway");
    assert_eq!(stats.pushed_bytes, 0);
    assert_eq!(stats.protocol_errors, 0);
}

/// A small single-origin page (one connection, so drain and supervision
/// tests have no per-group connect races).
fn single_origin_page(html: usize) -> Arc<h2push_webmodel::Page> {
    let mut b = PageBuilder::new("live-single", "live.test", html, 2_000);
    b.resource(ResourceSpec::css(0, 6_000, 200, 0.5));
    b.resource(ResourceSpec::js(0, 8_000, 900, 4_000));
    b.text_paint(4_000, 1.0);
    Arc::new(b.build())
}

#[test]
fn graceful_drain_finishes_inflight_load_and_closes_listener() {
    let page = single_origin_page(600_000);
    let strategy = push_all(&page, &[]);
    let mut server =
        LiveServer::bind("127.0.0.1:0", Arc::clone(&page), strategy).expect("bind loopback");
    server.set_deadline(Duration::from_secs(60));
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    let load_page_arc = Arc::clone(&page);
    let load_thread = std::thread::spawn(move || {
        load_page(addr, load_page_arc, BrowserConfig::default(), Duration::from_secs(30))
    });

    // stop() mid-load: wait until the browser's connection is accepted,
    // then ask the server to drain while responses are still in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.accepted() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(handle.accepted() >= 1, "load never connected");
    handle.stop();

    let report = load_thread.join().expect("load thread").expect("live load");
    assert!(report.load.finished(), "in-flight load was cut off by drain: {:?}", report.load);
    assert!(!report.load.partial);

    let stats = server_thread.join().expect("server thread").expect("server run");
    assert_eq!(stats.closed.drain_killed, 0, "drain killed a finishing load");
    assert!(stats.closed.clean >= 1, "drained connection was not closed clean: {stats:?}");
    assert_eq!(stats.bytes_out, report.bytes_in, "drain lost queued bytes");

    // The listener socket is closed: new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "listener still accepting after drain completed");
}

#[test]
fn accept_gate_sheds_above_max_conns() {
    let page = single_origin_page(20_000);
    let mut server =
        LiveServer::bind("127.0.0.1:0", Arc::clone(&page), Strategy::NoPush).expect("bind");
    let mut limits = LiveLimits::new();
    limits.max_conns = 1;
    server.set_limits(limits);
    server.set_deadline(Duration::from_secs(30));
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    let first = TcpStream::connect(addr).expect("first connect");
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.accepted() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(handle.accepted(), 1, "first connection not admitted");

    // The gate is full: the second connection is accepted then
    // immediately closed — the client observes EOF, not a hang.
    let mut second = TcpStream::connect(addr).expect("second connect");
    second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    assert_eq!(second.read(&mut buf).expect("shed read"), 0, "shed conn did not see EOF");

    drop(first);
    drop(second);
    handle.stop();
    let stats = server_thread.join().expect("server thread").expect("run");
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.closed.shed, 1);
    assert!(stats.close_log.iter().any(|c| c.reason == CloseReason::Shed && c.error.is_none()));
}

/// A load with the browser's compute timers off.
fn quick_load(addr: SocketAddr, page: &Arc<Page>) -> LiveLoadReport {
    let cfg = BrowserConfig { cpu_scale: 0.0, ..BrowserConfig::default() };
    load_page(addr, Arc::clone(page), cfg, Duration::from_secs(30)).expect("live load")
}

#[test]
fn a_load_that_cannot_progress_returns_at_once() {
    let page = single_origin_page(20_000);
    let limits = LiveLimits { max_conns: 0, ..LiveLimits::new() };
    let (addr, handle, server) = start(&page, Strategy::NoPush, limits);

    // Shed at the gate: the one connection is dead, nothing is queued and
    // no timer is armed, so the 30 s timeout has nothing to wait for.
    let started = Instant::now();
    let report = load_page(addr, page, BrowserConfig::default(), Duration::from_secs(30))
        .expect("shed load");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "a shed load took {took:?} to return");
    assert_eq!((report.conns, report.shed_conns, report.closed_conns), (1, 1, 0));
    assert!(!report.load.finished());

    handle.stop();
    let stats = server.join().expect("server thread").expect("run");
    assert_eq!((stats.accepted, stats.shed), (0, 1));
    assert_eq!((stats.machines_built, stats.machines_reused), (0, 0));
}

/// Two server groups and nothing pushed: every load opens exactly two
/// connections.
fn two_group_page() -> Arc<Page> {
    let mut b = PageBuilder::new("live-two", "live.test", 30_000, 2_000);
    let third = b.origin("cdn.other.net", 1, false);
    b.resource(ResourceSpec::css(0, 6_000, 200, 0.5));
    b.resource(ResourceSpec::js_async(third, 8_000, 9_000, 1_000));
    b.text_paint(4_000, 1.0);
    Arc::new(b.build())
}

#[test]
fn sequential_loads_are_served_by_the_machines_of_the_first() {
    const LOADS: u64 = 5;
    let page = two_group_page();
    let (addr, handle, server) = start(&page, Strategy::NoPush, LiveLimits::new());
    let mut received = 0;
    for _ in 0..LOADS {
        let report = quick_load(addr, &page);
        assert!(report.load.finished() && !report.load.partial, "{:?}", report.load);
        assert_eq!(report.conns, 2);
        // Each connection was polled for, read from and written to.
        assert!(report.polls >= 1 && report.reads >= 2 && report.writes >= 2, "{report:?}");
        received += report.bytes_in;
    }
    handle.stop();
    let stats = server.join().expect("server thread").expect("run");

    // A client's hang-up is harvested before its next connection is
    // accepted, so two machines serve all ten connections.
    assert_eq!(stats.accepted, 2 * LOADS);
    assert_eq!((stats.machines_built, stats.machines_reused), (2, 2 * (LOADS - 1)));
    assert_eq!((stats.closed.clean, stats.closed.total()), (2 * LOADS, 2 * LOADS));
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.bytes_out, received);
    assert!(stats.polls >= LOADS && stats.reads >= 2 * LOADS && stats.writes >= 2 * LOADS);
}

#[test]
fn alternating_pages_through_one_context_each_load_their_own_page() {
    // A repeat load of the page the thread's browser holds reuses its page
    // scan; a load of another page must not. Alternate two pages, each
    // behind its own server, through the calling thread's one context:
    // every load must account for exactly its own page's resources and
    // pushes, which a scan left over from the other page cannot.
    let (w1, w1_strategy) = paper_strategy(&realworld_site(1), PaperStrategy::PushAllOptimized);
    let generated = generate_site(CorpusKind::Random, 7);
    let generated_strategy = push_all(&generated, &[]);
    let sites = [(Arc::new(w1), w1_strategy), (Arc::new(generated), generated_strategy)];
    // The resource counts differ, so a load that accounts for the other
    // page's resources fails the requests + pushes check below.
    assert_ne!(sites[0].0.resources.len(), sites[1].0.resources.len());
    let servers: Vec<_> = sites
        .iter()
        .map(|(page, strategy)| {
            let pushes = strategy.pushed_resources().len() as u32;
            let (addr, handle, server) = start(page, strategy.clone(), LiveLimits::new());
            (page, pushes, addr, handle, server)
        })
        .collect();
    for round in 0..3 {
        for (page, pushes, addr, ..) in &servers {
            let load = quick_load(*addr, page).load;
            let what = format!("round {round}, {}", page.name);
            assert!(load.finished() && !load.partial, "{what}: onload {:?}", load.onload);
            assert_eq!(load.failed_resources, 0, "{what}");
            assert_eq!((load.pushed_count, load.cancelled_pushes), (*pushes, 0), "{what}");
            assert_eq!(load.requests + load.pushed_count, page.resources.len() as u32, "{what}");
        }
    }
    for (.., handle, server) in servers {
        handle.stop();
        let stats = server.join().expect("server thread").expect("run");
        assert_eq!(stats.protocol_errors, 0);
    }
}

/// Everything a client says to request `/` of `host`, with `settings`.
fn request_bytes(host: &str, settings: Settings) -> Vec<u8> {
    let mut cli = Connection::client(settings);
    let mut sched = DefaultScheduler::new();
    cli.request(
        &[
            h2push_hpack::Header::new(":method", "GET"),
            h2push_hpack::Header::new(":scheme", "https"),
            h2push_hpack::Header::new(":authority", host),
            h2push_hpack::Header::new(":path", "/"),
        ],
        Some(PrioritySpec::default()),
    );
    let mut wire = Vec::new();
    loop {
        let out = cli.produce(usize::MAX, &mut sched);
        if out.is_empty() {
            return wire;
        }
        wire.extend_from_slice(&out);
    }
}

/// Half-close, then read until the server hangs up: by then it has
/// retired the connection. (Closing with its bytes unread would reset the
/// socket instead.)
fn hang_up(mut s: TcpStream) {
    s.shutdown(Shutdown::Write).expect("half-close");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    while s.read(&mut buf).expect("server never hung up") > 0 {}
}

#[test]
fn a_machine_parked_half_fed_serves_the_next_connection_clean() {
    let page = single_origin_page(20_000);
    let (addr, handle, server) = start(&page, push_all(&page, &[]), LiveLimits::new());

    // Preface, SETTINGS and the first half of the HEADERS frame.
    let wire = request_bytes("live.test", Settings::default());
    let mut at = 24;
    while wire[at + 3] != 0x1 {
        at += 9 + u32::from_be_bytes([0, wire[at], wire[at + 1], wire[at + 2]]) as usize;
    }
    let len = u32::from_be_bytes([0, wire[at], wire[at + 1], wire[at + 2]]) as usize;
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&wire[..at + 9 + len / 2]).expect("write half a request");
    hang_up(s);

    let report = quick_load(addr, &page);
    assert!(report.load.finished() && !report.load.partial, "{:?}", report.load);
    assert!(report.load.pushed_count > 0, "no resources arrived via push");

    handle.stop();
    let stats = server.join().expect("server thread").expect("run");
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!((stats.machines_built, stats.machines_reused), (1, 1));
    assert_eq!((stats.closed.clean, stats.requests), (2, 1));
    assert_eq!(stats.pushed_bytes, report.load.pushed_bytes);
}

#[test]
fn a_machine_parked_mid_push_serves_the_next_connection_clean() {
    // A pushed image no kernel buffer can swallow: its 40 MB are
    // produced a queue bound at a time, and more than the socket takes.
    const IMAGE: usize = 40_000_000;
    let mut b = PageBuilder::new("live-midpush", "live.test", 20_000, 2_000);
    b.resource(ResourceSpec::image(0, IMAGE, 9_000, true, 1.0));
    b.text_paint(4_000, 1.0);
    let page = Arc::new(b.build());
    let (addr, handle, server) = start(&page, push_all(&page, &[]), LiveLimits::new());

    // Ask for the document with flow control out of the way, wait for the
    // answer to start, and half-close without reading on: the queue stays
    // as full as the kernel's buffers left it. The server learns of the
    // hang-up no later than of the load's connection, and harvests first.
    let mut s = TcpStream::connect(addr).expect("connect");
    let settings = Settings { initial_window_size: Some(0x7fff_ffff), ..Settings::default() };
    let mut wire = request_bytes("live.test", settings);
    Frame::WindowUpdate { stream: 0, increment: 0x7000_0000 }.encode(&mut wire);
    s.write_all(&wire).expect("write request");
    s.read_exact(&mut [0]).expect("first response byte");
    s.shutdown(Shutdown::Write).expect("half-close");

    let report = quick_load(addr, &page);
    drop(s);
    assert!(report.load.finished() && !report.load.partial, "{:?}", report.load);
    assert_eq!(report.load.pushed_count, 1);

    handle.stop();
    let stats = server.join().expect("server thread").expect("run");
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!((stats.machines_built, stats.machines_reused), (1, 1));
    assert_eq!(stats.closed.clean, 2);
    // The first connection filled its queue to the bound, and the socket
    // took less than the image, so its machine was parked mid-push with
    // output queued; the load then got it reset, with an empty queue.
    let hung_up_on = stats.bytes_out - report.bytes_in;
    let bound = MAX_QUEUED_BYTES + 9 + h2push_h2proto::DEFAULT_MAX_FRAME_SIZE;
    assert!(
        (MAX_QUEUED_BYTES..=bound).contains(&stats.max_queued_bytes),
        "queue peaked at {}",
        stats.max_queued_bytes
    );
    assert!(hung_up_on < IMAGE as u64, "the socket took {hung_up_on} bytes");
    assert_eq!(stats.pushed_bytes, 2 * IMAGE as u64);
}
