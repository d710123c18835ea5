//! # h2push-browser — a deterministic browser load/render model
//!
//! The testbed's stand-in for the automated Chromium 64 the paper drives
//! with browsertime: an event-driven model of page loading (incremental
//! parsing, preload scanning, request prioritization via Chromium's
//! exclusive H2 dependency chains, CSSOM/script blocking, a single
//! contended main thread) and rendering (render-blocking CSS, progressive
//! text paint, above-the-fold images), producing the W3C-timing events and
//! the visual-progress curve that PLT and SpeedIndex are computed from.

pub mod engine;
pub mod result;

pub use engine::{
    Browser, BrowserAction, BrowserConfig, PreparedScan, TransportMode, MAX_RETRIES, RETRY_BACKOFF,
};
pub use result::{LoadResult, PaintSample};

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_h2proto::{Connection, DefaultScheduler, Event, Settings};
    use h2push_hpack::Header;
    use h2push_netsim::{
        ConnId, Dir, EventQueue, FaultSpec, NetEvent, Network, NetworkSpec, ServerSpec,
        SimDuration, SimTime,
    };
    use h2push_webmodel::{realworld_site, Page, PageBuilder, RecordDb, ResourceId, ResourceSpec};
    use std::collections::{HashMap, VecDeque};
    use std::sync::Arc;

    /// A zero-latency in-memory harness: instant network, per-group replay
    /// servers answering from a RecordDb, timers honored on a virtual
    /// clock. (The full latency/bandwidth testbed lives in
    /// `h2push-testbed`; this harness isolates browser semantics.)
    struct MiniBed {
        page: Arc<Page>,
        db: RecordDb,
        push_on_html: Vec<ResourceId>,
        /// Which resource's request triggers the pushes (default: the HTML).
        push_trigger: ResourceId,
        /// Resources whose requests the server swallows without answering
        /// (a stalled origin, for exercising timeouts and retries).
        blackhole: Vec<ResourceId>,
        servers: HashMap<usize, (Connection, DefaultScheduler)>,
        /// Pending timer tokens on the shared simulator queue — the same
        /// timing-wheel `EventQueue` the full testbed schedules with, so
        /// MiniBed's tie-break (insertion order at equal instants) matches
        /// the real bed instead of a hand-rolled heap's token order.
        timers: EventQueue<u64>,
        now: SimTime,
        connect_latency: SimDuration,
    }

    impl MiniBed {
        fn new(page: Page, push_on_html: Vec<ResourceId>) -> Self {
            MiniBed {
                db: RecordDb::record(&page),
                page: Arc::new(page),
                push_on_html,
                push_trigger: ResourceId(0),
                blackhole: Vec::new(),
                servers: HashMap::new(),
                timers: EventQueue::new(),
                now: SimTime::ZERO,
                connect_latency: SimDuration::from_millis(30),
            }
        }

        fn run(&mut self, cfg: BrowserConfig) -> LoadResult {
            let mut browser = Browser::new(self.page.clone(), cfg);
            let mut pending: VecDeque<BrowserAction> = browser.start(self.now).into();
            let mut connects: Vec<(SimTime, usize)> = Vec::new();
            for _ in 0..1_000_000 {
                // Apply all actions, possibly cascading.
                while let Some(a) = pending.pop_front() {
                    match a {
                        BrowserAction::OpenConnection { group, .. } => {
                            self.servers.insert(
                                group,
                                (Connection::server(Settings::default()), DefaultScheduler::new()),
                            );
                            connects.push((self.now + self.connect_latency, group));
                        }
                        BrowserAction::SendBytes { group, bytes, .. } => {
                            let (server, _) = self.servers.get_mut(&group).unwrap();
                            server.receive(&bytes);
                            self.serve(group);
                            let out = self.pump_server(group);
                            if !out.is_empty() {
                                pending.extend(browser.on_bytes(group, 0, &out, self.now));
                            }
                        }
                        BrowserAction::SetTimer { at, token } => {
                            self.timers.push(at, token);
                        }
                    }
                }
                if browser.done() {
                    return browser.result();
                }
                // Advance the clock: earliest of timer or pending connect.
                let next_timer = self.timers.peek_time();
                let next_conn = connects.iter().map(|c| c.0).min();
                match (next_timer, next_conn) {
                    (Some(t), Some(c)) if c <= t => {
                        self.now = c;
                        let i = connects.iter().position(|x| x.0 == c).unwrap();
                        let (_, group) = connects.remove(i);
                        pending.extend(browser.on_connected(group, 0, self.now));
                    }
                    (Some(t), _) => {
                        self.now = t;
                        let (_, token) = self.timers.pop().unwrap();
                        pending.extend(browser.on_timer(token, self.now));
                    }
                    (None, Some(c)) => {
                        self.now = c;
                        let i = connects.iter().position(|x| x.0 == c).unwrap();
                        let (_, group) = connects.remove(i);
                        pending.extend(browser.on_connected(group, 0, self.now));
                    }
                    (None, None) => panic!("harness stalled before onload"),
                }
            }
            panic!("harness did not converge");
        }

        /// Answer any newly arrived requests on `group`'s server.
        fn serve(&mut self, group: usize) {
            let (server, _) = self.servers.get_mut(&group).unwrap();
            answer_requests(
                server,
                &self.page,
                &self.db,
                &self.push_on_html,
                self.push_trigger,
                &self.blackhole,
            );
        }

        fn pump_server(&mut self, group: usize) -> Vec<u8> {
            let (server, sched) = self.servers.get_mut(&group).unwrap();
            let mut out = Vec::new();
            loop {
                let bytes = server.produce(usize::MAX, sched);
                if bytes.is_empty() {
                    break;
                }
                out.extend_from_slice(&bytes);
            }
            out
        }
    }

    /// Answer every request `server` has received from the record
    /// database; the request for `push_trigger` also pushes `pushes`, and
    /// requests for `blackhole` resources are swallowed.
    fn answer_requests(
        server: &mut Connection,
        page: &Page,
        db: &RecordDb,
        pushes: &[ResourceId],
        push_trigger: ResourceId,
        blackhole: &[ResourceId],
    ) {
        while let Some(ev) = server.poll_event() {
            if let Event::Headers { stream, headers, .. } = ev {
                let get = |n: &str| {
                    String::from_utf8_lossy(headers.get(n.as_bytes()).unwrap_or_default())
                        .to_string()
                };
                let (host, path) = (get(":authority"), get(":path"));
                let rec =
                    db.lookup(&host, &path).unwrap_or_else(|| panic!("404 {host}{path}")).clone();
                if blackhole.contains(&rec.resource) {
                    continue; // swallow the request: the stream stalls
                }
                if rec.resource == push_trigger {
                    for &pid in pushes {
                        let r = page.resource(pid);
                        let req = vec![
                            Header::new(":method", "GET"),
                            Header::new(":scheme", "https"),
                            Header::new(":authority", &page.origins[r.origin].host),
                            Header::new(":path", &r.path),
                        ];
                        if let Some(sid) = server.push_promise(stream, &req) {
                            server.respond(sid, &[Header::new(":status", "200")], false);
                            server.queue_body(sid, r.size, true);
                        }
                    }
                }
                server.respond(stream, &[Header::new(":status", "200")], false);
                server.queue_body(stream, rec.body_len, true);
            }
        }
    }

    fn simple_page() -> Page {
        let mut b = PageBuilder::new("unit", "unit.test", 30_000, 3_000);
        b.resource(ResourceSpec::css(0, 10_000, 200, 0.4));
        b.resource(ResourceSpec::js(0, 15_000, 5_000, 20_000));
        b.resource(ResourceSpec::image(0, 20_000, 10_000, true, 2.0));
        b.text_paint(8_000, 1.0);
        b.text_paint(25_000, 1.0);
        b.build()
    }

    #[test]
    fn full_load_completes_and_orders_events() {
        let page = simple_page();
        let mut bed = MiniBed::new(page, vec![]);
        let r = bed.run(BrowserConfig::default());
        assert!(r.finished());
        let fp = r.first_paint().unwrap();
        let dcl = r.dom_content_loaded.unwrap();
        let onload = r.onload.unwrap();
        assert!(r.connect_end <= fp);
        assert!(fp <= onload);
        assert!(dcl <= onload);
        assert!(r.plt() > 0.0);
        assert!(r.speed_index() > 0.0);
        assert_eq!(r.requests, 4); // html + css + js + image
        assert_eq!(r.pushed_count, 0);
    }

    #[test]
    fn visual_progress_is_monotone_and_complete() {
        let page = simple_page();
        let r = MiniBed::new(page, vec![]).run(BrowserConfig::default());
        let mut last = 0.0;
        for p in &r.paints {
            assert!(p.completeness >= last, "monotone");
            assert!(p.completeness <= 1.0 + 1e-9);
            last = p.completeness;
        }
        assert!((last - 1.0).abs() < 1e-9, "curve ends complete");
    }

    #[test]
    fn push_delivers_without_request() {
        let page = simple_page();
        let css = ResourceId(1);
        let r = MiniBed::new(page, vec![css]).run(BrowserConfig::default());
        assert!(r.finished());
        assert_eq!(r.pushed_count, 1);
        assert_eq!(r.pushed_bytes, 10_000);
        // CSS no longer requested: html + js + image.
        assert_eq!(r.requests, 3);
        assert_eq!(r.cancelled_pushes, 0);
    }

    #[test]
    fn no_push_setting_suppresses_pushes() {
        let page = simple_page();
        let css = ResourceId(1);
        let cfg = BrowserConfig { enable_push: false, ..Default::default() };
        let r = MiniBed::new(page, vec![css]).run(cfg);
        assert!(r.finished());
        assert_eq!(r.pushed_count, 0, "server honored SETTINGS_ENABLE_PUSH=0");
        assert_eq!(r.requests, 4);
    }

    #[test]
    fn blocking_script_delays_dcl_by_execution_time() {
        // Same page with slow vs fast script execution: DCL must move by
        // roughly the difference.
        let mk = |exec_us: u64| {
            let mut b = PageBuilder::new("exec", "exec.test", 20_000, 2_000);
            b.resource(ResourceSpec::js(0, 5_000, 1_000, exec_us));
            b.text_paint(10_000, 1.0);
            b.build()
        };
        let fast = MiniBed::new(mk(1_000), vec![]).run(BrowserConfig::default());
        let slow = MiniBed::new(mk(301_000), vec![]).run(BrowserConfig::default());
        let delta = slow.dom_content_loaded.unwrap().since(fast.dom_content_loaded.unwrap());
        assert!((280.0..330.0).contains(&delta.as_millis_f64()), "expected ~300 ms, got {delta}");
    }

    #[test]
    fn cpu_scale_slows_the_load() {
        let page = simple_page();
        let r1 = MiniBed::new(page.clone(), vec![]).run(BrowserConfig::default());
        let r2 =
            MiniBed::new(page, vec![]).run(BrowserConfig { cpu_scale: 3.0, ..Default::default() });
        assert!(r2.plt() > r1.plt());
    }

    #[test]
    fn hidden_font_loads_after_css() {
        let mut b = PageBuilder::new("font", "font.test", 20_000, 2_000);
        let css = b.resource(ResourceSpec::css(0, 8_000, 200, 0.5));
        b.resource(ResourceSpec::font(0, 12_000, css));
        b.text_paint(10_000, 1.0);
        let page = b.build();
        let r = MiniBed::new(page, vec![]).run(BrowserConfig::default());
        assert!(r.finished());
        assert_eq!(r.requests, 3, "font was discovered through the stylesheet");
    }

    #[test]
    fn script_discovered_resource_extends_onload() {
        let mut b = PageBuilder::new("hidden", "hidden.test", 20_000, 2_000);
        let js = b.resource(ResourceSpec::js(0, 5_000, 1_000, 10_000));
        b.resource(ResourceSpec::script_loaded(
            0,
            30_000,
            js,
            h2push_webmodel::ResourceType::Other,
        ));
        b.text_paint(10_000, 1.0);
        let page = b.build();
        let r = MiniBed::new(page, vec![]).run(BrowserConfig::default());
        assert!(r.finished());
        assert_eq!(r.requests, 3);
        // onload strictly after DCL: the hidden resource arrives late.
        assert!(r.onload.unwrap() >= r.dom_content_loaded.unwrap());
    }

    #[test]
    fn third_party_resources_use_separate_connections() {
        let mut b = PageBuilder::new("tp", "tp.test", 20_000, 2_000);
        let third = b.origin("ads.example.net", 1, false);
        b.resource(ResourceSpec::css(0, 5_000, 200, 0.5));
        b.resource(ResourceSpec::js_async(third, 8_000, 10_000, 2_000));
        b.text_paint(9_000, 1.0);
        let page = b.build();
        let r = MiniBed::new(page, vec![]).run(BrowserConfig::default());
        assert!(r.finished());
        assert_eq!(r.requests, 3);
    }

    #[test]
    fn duplicate_push_is_cancelled() {
        // The server pushes the CSS only when the JS is requested — but by
        // then the browser's preload scanner has already requested the CSS
        // itself, so the promise duplicates an in-flight request and must
        // be cancelled (the paper's §2.1 cancellation caveat).
        let mut b = PageBuilder::new("dup", "dup.test", 20_000, 2_000);
        let css = b.resource(ResourceSpec::css(0, 9_000, 100, 0.5));
        let js = b.resource(ResourceSpec::js(0, 5_000, 300, 2_000));
        b.text_paint(5_000, 1.0);
        let page = b.build();
        let mut bed = MiniBed::new(page, vec![css]);
        bed.push_trigger = js;
        let r = bed.run(BrowserConfig::default());
        assert!(r.finished());
        assert_eq!(r.cancelled_pushes, 1, "duplicate push must be reset");
    }

    // ------------------------------------------------------------------
    // Fault handling: timeouts, retries, partial loads, dead connections
    // ------------------------------------------------------------------

    #[test]
    fn fault_free_loads_are_unaffected_by_retry_config() {
        // The timeout and deadline knobs must be inert on a clean load: no
        // timer fires, no behaviour change (the byte-identity guarantee
        // the testbed's zero-fault acceptance check relies on).
        let r1 = MiniBed::new(simple_page(), vec![]).run(BrowserConfig::default());
        let r2 = MiniBed::new(simple_page(), vec![]).run(BrowserConfig {
            resource_timeout: Some(SimDuration::from_millis(60_000)),
            load_deadline: Some(SimDuration::from_millis(600_000)),
            ..Default::default()
        });
        assert_eq!(r1, r2);
        assert!(!r1.partial);
        assert_eq!((r1.retries, r1.timeouts, r1.conn_errors, r1.failed_resources), (0, 0, 0, 0));
    }

    #[test]
    fn stalled_resource_times_out_retries_then_fails_partial() {
        // A render-blocking stylesheet whose origin never answers: the
        // fetch times out, is retried `MAX_RETRIES` times, fails — and the
        // load completes *around* the hole instead of hanging, flagged
        // partial.
        let mut b = PageBuilder::new("stall", "stall.test", 20_000, 2_000);
        let css = b.resource(ResourceSpec::css(0, 8_000, 200, 0.5));
        b.text_paint(10_000, 1.0);
        let page = b.build();
        let mut bed = MiniBed::new(page, vec![]);
        bed.blackhole.push(css);
        let r = bed.run(BrowserConfig {
            resource_timeout: Some(SimDuration::from_millis(200)),
            ..Default::default()
        });
        assert!(r.finished());
        assert!(r.partial);
        assert_eq!(r.failed_resources, 1);
        assert_eq!(r.timeouts, MAX_RETRIES + 1, "the first attempt and every retry timed out");
        assert_eq!(r.retries, MAX_RETRIES);
        assert!(r.first_paint().is_some(), "render proceeded without the failed sheet");
        assert!(r.plt() > 0.0);
    }

    #[test]
    fn load_deadline_closes_out_a_stalled_load() {
        // No per-resource timeout: only the page deadline rescues the load
        // when a parser-blocking script never arrives.
        let mut b = PageBuilder::new("deadline", "deadline.test", 20_000, 2_000);
        let js = b.resource(ResourceSpec::js(0, 5_000, 300, 2_000));
        b.text_paint(3_000, 1.0);
        let page = b.build();
        let mut bed = MiniBed::new(page, vec![]);
        bed.blackhole.push(js);
        let r = bed.run(BrowserConfig {
            load_deadline: Some(SimDuration::from_millis(3_000)),
            ..Default::default()
        });
        assert!(r.finished());
        assert!(r.partial);
        assert_eq!(r.onload.unwrap(), SimTime::from_millis(3_000));
        assert_eq!(r.failed_resources, 0, "the fetch was still in flight, not failed");
        assert!(r.plt() > 0.0);
        assert!(r.speed_index() > 0.0);
    }

    #[test]
    fn h2_connection_error_retries_on_a_fresh_slot() {
        // A fatal protocol error from the "server" (an oversized frame
        // header) must not panic: the browser drops the connection,
        // schedules a backed-off retry, and reopens on the next slot so
        // stale bytes from the dead connection cannot reach the new one.
        let page = Arc::new(simple_page());
        let mut browser = Browser::new(page, BrowserConfig::default());
        let acts = browser.start(SimTime::ZERO);
        assert!(acts
            .iter()
            .any(|a| matches!(a, BrowserAction::OpenConnection { group: 0, slot: 0 })));
        let _ = browser.on_connected(0, 0, SimTime::from_millis(30));
        // Frame header announcing a 16 MB frame: FRAME_SIZE_ERROR, fatal.
        let junk = [0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
        let acts = browser.on_bytes(0, 0, &junk, SimTime::from_millis(40));
        let (at, token) = acts
            .iter()
            .find_map(|a| match a {
                BrowserAction::SetTimer { at, token } => Some((*at, *token)),
                _ => None,
            })
            .expect("a retry timer is scheduled");
        // Late bytes on the dead slot are ignored, not fed to anything.
        let _ = browser.on_bytes(0, 0, &junk, SimTime::from_millis(45));
        let acts = browser.on_timer(token, at);
        assert!(
            acts.iter().any(|a| matches!(a, BrowserAction::OpenConnection { group: 0, slot: 1 })),
            "retry reopens on the next slot"
        );
        let r = browser.result();
        assert_eq!(r.conn_errors, 1);
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn h1_error_kills_the_slot_and_retries_on_a_new_connection() {
        let mut b = PageBuilder::new("h1err", "h1err.test", 10_000, 1_000);
        b.text_paint(5_000, 1.0);
        let page = Arc::new(b.build());
        let cfg = BrowserConfig { transport: TransportMode::H1, ..Default::default() };
        let mut browser = Browser::new(page, cfg);
        let acts = browser.start(SimTime::ZERO);
        assert!(acts
            .iter()
            .any(|a| matches!(a, BrowserAction::OpenConnection { group: 0, slot: 0 })));
        // A garbage status line kills the connection, not the load: every
        // slot it arrives on is retired and the document retried on the
        // next, until the retry budget is spent.
        let mut now = SimTime::from_millis(10);
        for slot in 0..=MAX_RETRIES as usize {
            let acts = browser.on_bytes(0, slot, b"BOGUS/9.9 garbage\r\n\r\n", now);
            let timer = acts.iter().find_map(|a| match a {
                BrowserAction::SetTimer { at, token } => Some((*at, *token)),
                _ => None,
            });
            if slot == MAX_RETRIES as usize {
                assert!(timer.is_none(), "no retry past the budget");
                break;
            }
            let (at, token) = timer.expect("a retry timer is scheduled");
            let opened = browser.on_timer(token, at).into_iter().find_map(|a| match a {
                BrowserAction::OpenConnection { group: 0, slot } => Some(slot),
                _ => None,
            });
            assert_eq!(opened, Some(slot + 1), "the dead slot keeps its index; the next opens");
            now = at;
        }
        let r = browser.result();
        assert_eq!(r.conn_errors, MAX_RETRIES + 1);
        assert_eq!(r.retries, MAX_RETRIES);
        assert_eq!(r.failed_resources, 1);
    }

    #[test]
    fn document_failure_gives_up_with_partial_result() {
        // The document itself never arrives and exhausts its retries: the
        // load closes out as partial instead of hanging forever.
        let page = simple_page();
        let mut bed = MiniBed::new(page, vec![]);
        bed.blackhole.push(ResourceId(0));
        let r = bed.run(BrowserConfig {
            resource_timeout: Some(SimDuration::from_millis(100)),
            ..Default::default()
        });
        assert!(r.finished());
        assert!(r.partial);
        assert_eq!(r.timeouts, MAX_RETRIES + 1);
        assert_eq!(r.retries, MAX_RETRIES);
        assert_eq!(r.failed_resources, 1);
        assert!(r.first_paint().is_none(), "nothing ever rendered");
    }

    // ------------------------------------------------------------------
    // Dirty-connection flush ≡ flushing every connection
    // ------------------------------------------------------------------

    /// One simulated TCP connection of [`LossyBed`]: its browser address,
    /// the server machine behind it and the bytes in flight each way.
    struct BedConn {
        group: usize,
        slot: usize,
        server: Connection,
        up: VecDeque<u8>,
        down: VecDeque<u8>,
    }

    /// The browser on the packet-level simulator with raw h2proto servers:
    /// latency, bandwidth and injected loss, so connections make progress
    /// interleaved and resource timers fire — the conditions under which
    /// a flush that skips connections could go wrong.
    struct LossyBed {
        page: Arc<Page>,
        db: RecordDb,
        pushes: Vec<ResourceId>,
        net: Network,
        conns: Vec<BedConn>,
        /// The first connection to this group answers its first request
        /// with a fatal frame, so the browser abandons it and reopens on
        /// the next slot.
        poisoned_group: usize,
        /// Hand each downstream delivery to the browser cut into pieces
        /// (`on_pieces`) instead of whole (`on_bytes`).
        piecewise: bool,
    }

    impl LossyBed {
        /// Load the page; returns the result and every action the browser
        /// emitted, rendered, in order.
        fn run(&mut self, cfg: BrowserConfig) -> (LoadResult, Vec<String>) {
            let mut browser = Browser::new(self.page.clone(), cfg);
            let mut log = Vec::new();
            let mut pending: VecDeque<BrowserAction> = browser.start(self.net.now()).into();
            loop {
                while let Some(a) = pending.pop_front() {
                    log.push(format!("{a:?}"));
                    match a {
                        BrowserAction::OpenConnection { group, slot } => {
                            let sid = self.net.add_server(ServerSpec::default());
                            let conn = self.net.connect(sid);
                            assert_eq!(conn.0, self.conns.len(), "netsim ids are dense");
                            self.conns.push(BedConn {
                                group,
                                slot,
                                server: Connection::server(Settings::default()),
                                up: VecDeque::new(),
                                down: VecDeque::new(),
                            });
                        }
                        BrowserAction::SendBytes { group, slot, bytes } => {
                            let conn = self
                                .conns
                                .iter()
                                .position(|c| (c.group, c.slot) == (group, slot))
                                .expect("bytes for an unopened connection");
                            self.net.send(ConnId(conn), Dir::Up, bytes.len());
                            self.conns[conn].up.extend(bytes.iter());
                        }
                        BrowserAction::SetTimer { at, token } => self.net.schedule(at, token),
                    }
                }
                if browser.done() {
                    return (browser.result(), log);
                }
                let (t, ev) = self.net.step().expect("lossy bed stalled before onload");
                match ev {
                    NetEvent::Connected { conn } => {
                        let c = &self.conns[conn.0];
                        pending.extend(browser.on_connected(c.group, c.slot, t));
                    }
                    NetEvent::Delivered { conn, dir: Dir::Up, bytes } => {
                        let out = self.serve(conn.0, bytes);
                        self.net.send(conn, Dir::Down, out.len());
                        self.conns[conn.0].down.extend(out);
                    }
                    NetEvent::Delivered { conn, dir: Dir::Down, bytes } => {
                        let c = &mut self.conns[conn.0];
                        let chunk: Vec<u8> = c.down.drain(..bytes).collect();
                        pending.extend(if self.piecewise {
                            // Cut where no frame boundary is: single
                            // bytes, inside headers, across frames.
                            let mut cuts = [1, 7, 300, 2, 9, 1_000].iter().cycle();
                            let mut rest = &chunk[..];
                            let pieces = std::iter::from_fn(|| {
                                let (piece, tail) = rest.split_at(rest.len().min(*cuts.next()?));
                                rest = tail;
                                (!piece.is_empty()).then_some(piece)
                            });
                            browser.on_pieces(c.group, c.slot, pieces, t)
                        } else {
                            browser.on_bytes(c.group, c.slot, &chunk, t)
                        });
                    }
                    NetEvent::SendReady { .. } => {}
                    NetEvent::App { token } => pending.extend(browser.on_timer(token, t)),
                }
            }
        }

        /// Feed `bytes` delivered upstream into the connection's server
        /// and return everything it has to say in response.
        fn serve(&mut self, conn: usize, bytes: usize) -> Vec<u8> {
            let c = &mut self.conns[conn];
            let chunk: Vec<u8> = c.up.drain(..bytes).collect();
            c.server.receive(&chunk);
            if (c.group, c.slot) == (self.poisoned_group, 0) {
                let mut got_request = false;
                while let Some(ev) = c.server.poll_event() {
                    got_request |= matches!(ev, Event::Headers { .. });
                }
                // A frame header announcing 16 MB: FRAME_SIZE_ERROR, fatal.
                return if got_request { vec![0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0] } else { vec![] };
            }
            answer_requests(&mut c.server, &self.page, &self.db, &self.pushes, ResourceId(0), &[]);
            let mut sched = DefaultScheduler::new();
            let mut out = Vec::new();
            loop {
                let bytes = c.server.produce(usize::MAX, &mut sched);
                if bytes.is_empty() {
                    break out;
                }
                out.extend_from_slice(&bytes);
            }
        }
    }

    /// w17-cnn (367 resources over 81 server groups) on a [`LossyBed`]
    /// under 2 % Gilbert-Elliott loss, with the hardening the testbed's
    /// fault profile of that name applies, except a resource timeout short
    /// enough to fire here. Returns the load result, the rendered action
    /// log and how many connections were opened, after checking that the
    /// run went where a shortcut in the browser's input or output path
    /// could go wrong: every group got a connection, one was abandoned and
    /// reopened on the next slot, fetches timed out and were reset from a
    /// timer, pushes arrived.
    fn lossy_cnn_load(piecewise: bool) -> (LoadResult, Vec<String>) {
        let page = realworld_site(17);
        let groups: std::collections::BTreeSet<usize> =
            page.resources.iter().map(|r| page.server_group_of(r.id)).collect();
        assert_eq!(groups.len(), 81);
        let mut bed = LossyBed {
            db: RecordDb::record(&page),
            pushes: page.pushable().into_iter().take(6).collect(),
            net: Network::new(NetworkSpec {
                fault: FaultSpec::gilbert_elliott(0.02),
                seed: 42,
                ..NetworkSpec::dsl_testbed()
            }),
            conns: Vec::new(),
            poisoned_group: *groups.iter().nth(7).unwrap(),
            page: Arc::new(page),
            piecewise,
        };
        let cfg = BrowserConfig {
            resource_timeout: Some(SimDuration::from_millis(1_500)),
            load_deadline: Some(SimDuration::from_millis(120_000)),
            ..Default::default()
        };
        let (result, log) = bed.run(cfg);
        assert!(result.finished());
        assert_eq!(result.conn_errors, 1);
        assert_eq!(bed.conns.len(), 82);
        assert!(log.iter().any(|a| a.contains("slot: 1")));
        assert!(result.timeouts > 0, "no fetch timed out: {result:?}");
        assert!(result.pushed_count > 0);
        (result, log)
    }

    #[test]
    fn piecewise_delivery_emits_the_same_actions_as_concatenated_delivery() {
        // Every network delivery cut into pieces and fed through
        // `on_pieces` — one `receive` per piece, events drained and output
        // flushed once — against the same delivery whole. Both loads also
        // run under `flush_conns`'s assert that no connection it skipped
        // wants to send: the condition under which flushing only the dirty
        // groups emits what flushing every group would.
        assert_eq!(lossy_cnn_load(true), lossy_cnn_load(false));
    }
}
