//! (P): probes that time one layer's public functions directly, on the
//! workload's own first page where the function takes a page.
//!
//! Every probe repeats until its slice of the budget is spent and reports
//! the low percentile (see `stats::low_percentile`) of the per-unit cost.

use h2push_benchmark::spec::RunResult;
use h2push_benchmark::stats::low_percentile;
use h2push_core::PushPlanner;
use h2push_h2proto::{Connection, DefaultScheduler, Event, Settings};
use h2push_hpack::{Decoder, Encoder, Header};
use h2push_metrics::{RunStats, StreamingHist};
use h2push_netsim::{
    Dir, EventQueue, FaultSpec, NetEvent, Network, NetworkSpec, ServerSpec, SimTime,
};
use h2push_strategies::{majority_order, paper_strategy, PaperStrategy, RunTrace};
use h2push_testbed::{parallel_indexed, PreparedPage, ReplayInputs};
use h2push_webmodel::{
    generate_site, rewrite_critical_css, synthetic_site, CorpusKind, Page, RecordDb, ResourceId,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repeat `f` — which returns how many units it processed — until
/// `seconds` are spent (three times at least); the low-percentile nanoseconds
/// per unit.
fn ns_per_unit(seconds: f64, mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let units = f();
        samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    low_percentile(&samples)
}

/// netsim: one 2 MB download on a bare `Network`, clean and under 2 %
/// Gilbert-Elliott loss, per simulator event; and the event queue alone.
fn netsim(slice: f64, res: &mut RunResult) {
    const BYTES: usize = 2_000_000;
    let transfer = |spec: &NetworkSpec| {
        let mut net = Network::new(spec.clone());
        let server = net.add_server(ServerSpec::default());
        let conn = net.connect(server);
        net.send(conn, Dir::Down, BYTES);
        let mut got = 0;
        while got < BYTES {
            match net.step() {
                Some((_, NetEvent::Delivered { dir: Dir::Down, bytes, .. })) => got += bytes,
                Some(_) => {}
                None => panic!("bare transfer stalled at {got} bytes"),
            }
        }
        net.events_processed()
    };
    let clean = NetworkSpec::dsl_testbed();
    let lossy = NetworkSpec { fault: FaultSpec::gilbert_elliott(0.02), ..clean.clone() };
    res.put("netsim.ns_per_event", ns_per_unit(slice, || transfer(&clean)));
    res.put("netsim.lossy_ns_per_event", ns_per_unit(slice, || transfer(&lossy)));

    // 10 000 events in flight; each operation pops the earliest and pushes
    // one a pseudo-random 0–100 ms later, as packet timers do.
    const IN_FLIGHT: u64 = 10_000;
    const OPS: u64 = 100_000;
    let mut queue = EventQueue::new();
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut delay = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 33) % 100_000
    };
    for i in 0..IN_FLIGHT {
        queue.push(SimTime(delay()), i);
    }
    res.put(
        "netsim.queue_ns_per_op",
        ns_per_unit(slice, || {
            for _ in 0..OPS {
                let (at, token) = queue.pop().expect("queue never drains");
                queue.push(SimTime(at.as_micros() + delay()), token);
            }
            OPS
        }),
    );
}

fn request_headers(page: &Page, id: ResourceId) -> Vec<Header> {
    vec![
        Header::new(":method", "GET"),
        Header::new(":scheme", "https"),
        Header::new(":authority", page.host_of(id)),
        Header::new(":path", &page.resource(id).path),
    ]
}

fn response_headers(page: &Page, id: ResourceId) -> Vec<Header> {
    let r = page.resource(id);
    vec![
        Header::new(":status", "200"),
        Header::new("content-type", r.rtype.mime()),
        Header::new("content-length", &r.size.to_string()),
    ]
}

/// Move everything both endpoints have to say; returns the events the
/// client saw and the bytes that crossed.
fn pump(client: &mut Connection, server: &mut Connection) -> (Vec<Event>, u64) {
    let (mut cs, mut ss) = (DefaultScheduler::new(), DefaultScheduler::new());
    let (mut events, mut wire) = (Vec::new(), 0);
    loop {
        let up = client.produce(usize::MAX, &mut cs);
        let down = server.produce(usize::MAX, &mut ss);
        if up.is_empty() && down.is_empty() {
            return (events, wire);
        }
        wire += (up.len() + down.len()) as u64;
        black_box(server.feed_bytes(&up));
        events.extend(client.feed_bytes(&down));
    }
}

/// h2proto: the page's main-group resources requested and answered over
/// one client↔server `Connection` pair in memory.
fn h2proto(page: &Page, slice: f64, res: &mut RunResult) {
    let main = page.server_group_of(ResourceId(0));
    let ids: Vec<ResourceId> = page
        .resources
        .iter()
        .map(|r| r.id)
        .filter(|&id| page.server_group_of(id) == main)
        .collect();
    let exchange = || {
        let mut client = Connection::client(Settings::default());
        let mut server = Connection::server(Settings::default());
        let (mut frames, mut wire) = (0u64, 0u64);
        for &id in &ids {
            let stream = client.request(&request_headers(page, id), None);
            let (_, up) = pump(&mut client, &mut server);
            server.respond(stream, &response_headers(page, id), false);
            server.queue_body(stream, page.resource(id).size, true);
            let (events, down) = pump(&mut client, &mut server);
            // One event per HEADERS and DATA frame; the request adds one.
            frames += 1 + events
                .iter()
                .filter(|e| matches!(e, Event::Headers { .. } | Event::Data { .. }))
                .count() as u64;
            wire += up + down;
        }
        (frames, wire)
    };
    let (frames, wire) = exchange();
    let ns_per_frame = ns_per_unit(slice, || exchange().0);
    res.put("h2proto.pump_ns_per_frame", ns_per_frame);
    // bytes per ns × 1000 = MB/s.
    res.put("h2proto.pump_mb_per_s", wire as f64 / (ns_per_frame * frames as f64) * 1e3);
    res.put(
        "h2proto.conn_setup_ns",
        ns_per_unit(slice, || {
            const PAIRS: u64 = 200;
            for _ in 0..PAIRS {
                let mut client = Connection::client(Settings::default());
                let mut server = Connection::server(Settings::default());
                black_box(pump(&mut client, &mut server));
            }
            PAIRS
        }),
    );
}

/// hpack: the page's request and response header lists through one
/// encoder/decoder pair per server group and direction, as a replay's
/// connections would see them.
fn hpack(page: &Page, slice: f64, res: &mut RunResult) {
    let groups = page.server_group_count();
    let lists: Vec<(usize, Vec<Header>)> = page
        .resources
        .iter()
        .flat_map(|r| {
            let g = page.server_group_of(r.id);
            [(2 * g, request_headers(page, r.id)), (2 * g + 1, response_headers(page, r.id))]
        })
        .collect();
    let encode = || -> Vec<(usize, Vec<u8>)> {
        let mut encoders: Vec<Encoder> = (0..2 * groups).map(|_| Encoder::new()).collect();
        lists.iter().map(|(i, list)| (*i, encoders[*i].encode(list))).collect()
    };
    let blocks = encode();
    let wire: usize = blocks.iter().map(|(_, b)| b.len()).sum();
    res.put("hpack.wire_bytes_per_block", wire as f64 / blocks.len() as f64);
    res.put("hpack.encode_ns_per_block", ns_per_unit(slice, || black_box(encode()).len() as u64));
    res.put(
        "hpack.decode_ns_per_block",
        ns_per_unit(slice, || {
            let mut decoders: Vec<Decoder> = (0..2 * groups).map(|_| Decoder::new()).collect();
            for (i, block) in &blocks {
                black_box(decoders[*i].decode(block).expect("own encoding decodes"));
            }
            blocks.len() as u64
        }),
    );
}

/// webmodel, strategies, testbed inputs: everything set-up does with a
/// page, one function at a time.
fn page_work(page: &Page, slice: f64, res: &mut RunResult) {
    let us = |ns: f64| ns / 1e3;
    let mut seed = 0;
    res.put(
        "webmodel.generate_us_per_site",
        us(ns_per_unit(slice, || {
            seed += 1;
            black_box(generate_site(CorpusKind::Random, seed));
            1
        })),
    );
    res.put(
        "webmodel.record_us_per_page",
        us(ns_per_unit(slice, || {
            black_box(RecordDb::record(page));
            1
        })),
    );
    res.put(
        "webmodel.rewrite_css_us_per_page",
        us(ns_per_unit(slice, || {
            black_box(rewrite_critical_css(page));
            1
        })),
    );
    res.put(
        "strategies.paper_strategy_us",
        us(ns_per_unit(slice, || {
            for which in PaperStrategy::ALL {
                black_box(paper_strategy(page, which));
            }
            PaperStrategy::ALL.len() as u64
        })),
    );
    // 31 request traces of the whole page, each rotated by one position.
    let ids: Vec<ResourceId> = page.resources.iter().map(|r| r.id).collect();
    let traces: Vec<RunTrace> = (0..31)
        .map(|r| {
            let mut order = ids.clone();
            order.rotate_left(r % ids.len());
            RunTrace { order }
        })
        .collect();
    res.put(
        "strategies.majority_order_us",
        us(ns_per_unit(slice, || {
            black_box(majority_order(&traces));
            1
        })),
    );
    let shared = Arc::new(page.clone());
    res.put(
        "testbed.inputs_us_per_page",
        us(ns_per_unit(slice, || {
            black_box(ReplayInputs::from(Arc::clone(&shared)));
            1
        })),
    );
    res.put(
        "testbed.prepare_us_per_page",
        us(ns_per_unit(slice, || {
            black_box(PreparedPage::build(&shared));
            1
        })),
    );
}

/// metrics, the worker pool and the library entry point: independent of
/// the workload's page.
fn fixed(slice: f64, res: &mut RunResult) {
    const SAMPLES: u64 = 100_000;
    let values: Vec<f64> =
        (0..SAMPLES).map(|i| 200.0 + (i * 7919 % 30_000) as f64 / 10.0).collect();
    res.put(
        "metrics.hist_ns_per_sample",
        ns_per_unit(slice, || {
            let mut hist = StreamingHist::millis_default();
            values.iter().for_each(|&v| hist.record(v));
            black_box(hist.p99());
            SAMPLES
        }),
    );
    // The paper's unit: statistics over the 31 runs of one configuration.
    res.put(
        "metrics.runstats_ns_per_sample",
        ns_per_unit(slice, || {
            for chunk in values.chunks(31) {
                black_box(RunStats::of(chunk));
            }
            SAMPLES
        }),
    );
    const ITEMS: u64 = 100_000;
    res.put(
        "testbed.pool_dispatch_ns_per_item",
        ns_per_unit(slice, || parallel_indexed(ITEMS as usize, black_box).len() as u64),
    );
    let page = synthetic_site(7);
    res.put(
        "core.plan_ms_per_page",
        ns_per_unit(slice, || {
            black_box(PushPlanner::default().plan(&page));
            1
        }) / 1e6,
    );
}

/// Run every probe; `page` is the workload's first page and `seconds` the
/// budget for all of them together.
pub fn run(page: &Page, seconds: f64, res: &mut RunResult) {
    let slice = seconds / 20.0; // twenty timed loops below
    netsim(slice, res);
    h2proto(page, slice, res);
    hpack(page, slice, res);
    page_work(page, slice, res);
    fixed(slice, res);
}
