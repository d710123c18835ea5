//! Recycled-vs-cold equality: a [`ReplayCtx`] reused across repetitions —
//! and across *unrelated* pages, strategies, protocols and fault profiles —
//! must produce byte-identical outputs to a context constructed fresh for
//! every run. This is the contract that makes run-context recycling a pure
//! performance optimisation: the allocation gate may assume recycled runs
//! are THE runs.
//!
//! Matrix covered here: {NoPush, PushList, Interleaved} × {Testbed,
//! Internet} × {fault-free, 2% Gilbert-Elliott} × {traced, untraced} ×
//! {prepared, unprepared} × {H2, H1}, plus cross-page contamination
//! (one context serving two different sites alternately), plus the
//! many-connection page w17-cnn (81 server groups) × {NoPush, PushAll} ×
//! {fault-free, 2% Gilbert-Elliott} × {prepared, unprepared}, plus that
//! page alternating with a small one over {H2, H1}.
//!
//! The live server parks machines too, and in states no simulated run
//! leaves one in — a peer can hang up at any byte, or kill the machine —
//! so a test resets a [`ReplayServer`] out of each of those and holds it
//! to a cold one's answer, octet for octet. The browser reuses a client
//! machine that failed, so the last test does the same for a client
//! `Connection` reset out of an attack.

use h2push_h2proto::sansio::Endpoint;
use h2push_h2proto::{ConnLimits, Connection, DefaultScheduler, Event, PrioritySpec, Settings};
use h2push_server::{ReplayServer, RequestObservation};
use h2push_strategies::{paper_strategy, PaperStrategy, Strategy};
use h2push_testbed::{
    attack_page, benign_request, run_suite, AttackScript, FaultProfile, Mode, Protocol,
    ReplayConfig, ReplayCtx, ReplayInputs, RunPlan, Victim,
};
use h2push_webmodel::{realworld_site, Page, PageBuilder, RecordDb, ResourceId, ResourceSpec};
use std::sync::Arc;

const REPS: usize = 3;

fn page() -> Page {
    let mut b = PageBuilder::new("recycle", "rc.test", 55_000, 4_000);
    let third = b.origin("cdn.other.net", 1, false);
    b.resource(ResourceSpec::css(0, 15_000, 300, 0.4)); // 1
    b.resource(ResourceSpec::js(0, 22_000, 1_000, 14_000)); // 2
    b.resource(ResourceSpec::image(0, 28_000, 9_000, true, 1.5)); // 3
    b.resource(ResourceSpec::js_async(third, 8_000, 25_000, 4_000)); // 4
    b.text_paint(8_000, 1.0);
    b.text_paint(30_000, 1.0);
    b.build()
}

fn other_page() -> Page {
    let mut b = PageBuilder::new("recycle-b", "rb.test", 90_000, 6_000);
    b.resource(ResourceSpec::css(0, 25_000, 500, 0.3)); // 1
    b.resource(ResourceSpec::image(0, 45_000, 18_000, true, 2.0)); // 2
    b.text_paint(12_000, 1.0);
    b.build()
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::NoPush,
        Strategy::PushList { order: vec![ResourceId(1), ResourceId(2)] },
        Strategy::Interleaved {
            offset: 6_000,
            critical: vec![ResourceId(1)],
            after: vec![ResourceId(3)],
        },
    ]
}

/// The tentpole contract: one context recycled across every rep of every
/// cell of the full strategy × mode × fault × preparation matrix agrees
/// byte-for-byte with a context built fresh per rep. The persistent
/// context deliberately crosses cell boundaries so stale state from one
/// configuration would poison the next and fail loudly here.
#[test]
fn recycled_ctx_matches_cold_ctx_across_the_matrix() {
    let p = page();
    let mut warm = ReplayCtx::new();
    for strategy in strategies() {
        for mode in [Mode::Testbed, Mode::Internet] {
            for faults in [None, Some(FaultProfile::gilbert_elliott(0.02))] {
                for prepared in [false, true] {
                    let mut plan =
                        RunPlan::new(&p).strategy(strategy.clone()).mode(mode).seed(11).reps(REPS);
                    if let Some(f) = &faults {
                        plan = plan.faults(f.clone());
                    }
                    if prepared {
                        plan = plan.prepared();
                    }
                    for rep in 0..REPS {
                        let cold = plan.run_rep_in(rep, &mut ReplayCtx::new());
                        let recycled = plan.run_rep_in(rep, &mut warm);
                        assert_eq!(
                            cold,
                            recycled,
                            "recycled ctx diverged: strategy {strategy:?} mode {mode:?} \
                             faults {} prepared {prepared} rep {rep}",
                            faults.is_some(),
                        );
                    }
                }
            }
        }
    }
}

/// The same contract on the many-connection page: 81 server groups means
/// 81 client/server machine pairs parked and reissued per rep (a context
/// parks everything its last run opened; constants of 8 and 16 used to
/// cut that short), so this is where per-connection state that survives a
/// reset would show.
#[test]
fn recycled_ctx_matches_cold_ctx_on_the_81_group_page() {
    let w17 = realworld_site(17);
    let mut warm = ReplayCtx::new();
    for which in [PaperStrategy::NoPush, PaperStrategy::PushAll] {
        let (page, strategy) = paper_strategy(&w17, which);
        for faults in [None, Some(FaultProfile::gilbert_elliott(0.02))] {
            for prepared in [false, true] {
                let mut plan = RunPlan::new(&page).strategy(strategy.clone()).seed(42).reps(2);
                if let Some(f) = &faults {
                    plan = plan.faults(f.clone());
                }
                if prepared {
                    plan = plan.prepared();
                }
                for rep in 0..2 {
                    let cold = plan.run_rep_in(rep, &mut ReplayCtx::new());
                    let recycled = plan.run_rep_in(rep, &mut warm);
                    assert_eq!(
                        cold,
                        recycled,
                        "recycled ctx diverged on w17: {which:?} faults {} prepared {prepared} \
                         rep {rep}",
                        faults.is_some(),
                    );
                }
            }
        }
    }
}

/// Traced runs through a recycled context carry the same timelines (and
/// outcomes) as traced runs through fresh contexts, and as the public
/// pooled path.
#[test]
fn recycled_ctx_preserves_traced_timelines() {
    let p = page();
    let plan = RunPlan::new(&p)
        .strategy(Strategy::PushList { order: vec![ResourceId(1)] })
        .seed(7)
        .reps(REPS)
        .traced();
    let pooled = plan.run();
    assert_eq!(pooled.len(), REPS);
    let mut warm = ReplayCtx::new();
    for rep in 0..REPS {
        let cold = plan.run_rep_in(rep, &mut ReplayCtx::new()).expect("cold rep");
        let recycled = plan.run_rep_in(rep, &mut warm).expect("recycled rep");
        assert_eq!(cold, recycled, "traced rep {rep} diverged under recycling");
        assert_eq!(&pooled.runs[rep], &recycled, "pooled path diverged at rep {rep}");
        assert!(recycled.timeline.as_ref().is_some_and(|t| !t.is_empty()));
    }
}

/// HTTP/1.1 replays recycle through the same context type (spare H1
/// connections, shared FIFOs) and must agree with the public entry point.
#[test]
fn recycled_ctx_matches_cold_over_h1() {
    let p = page();
    let inputs = ReplayInputs::from(&p);
    let mut cfg = ReplayConfig::testbed(Strategy::NoPush);
    cfg.protocol = Protocol::H1;
    let plan = RunPlan::new(&inputs).config(cfg);
    let mut warm = ReplayCtx::new();
    for rep in 0..REPS {
        let cold = plan.run_one().expect("cold h1");
        let recycled = plan.run_rep_in(0, &mut warm).expect("recycled h1");
        assert_eq!(cold, recycled, "h1 rep {rep} diverged under recycling");
    }
}

/// Past the old caps on the HTTP/1.1 side too (16 connection machines, 8
/// per-origin pools), and across a context that grows and shrinks: w17-cnn
/// (81 groups, up to six HTTP/1.1 connections each) alternates with a
/// two-origin page over both protocols, so every run is issued machines
/// parked by a run of another size — more than it needs after the big
/// page, fewer after the small one, the surplus dropped in between.
#[test]
fn recycled_ctx_matches_cold_as_the_connection_count_swings() {
    let w17 = realworld_site(17);
    let groups: std::collections::BTreeSet<usize> =
        w17.resources.iter().map(|r| w17.server_group_of(r.id)).collect();
    assert_eq!(groups.len(), 81, "one pool and at least one connection each");
    let big = ReplayInputs::from(&w17).prepared();
    let small = ReplayInputs::from(&page());
    let cfg_h2 = ReplayConfig::testbed(Strategy::NoPush);
    let mut cfg_h1 = ReplayConfig::testbed(Strategy::NoPush);
    cfg_h1.protocol = Protocol::H1;
    let mut warm = ReplayCtx::new();
    for round in 0..2 {
        for (name, inputs, cfg) in [
            ("w17 h1", &big, &cfg_h1),
            ("w17 h1 again", &big, &cfg_h1),
            ("small h2", &small, &cfg_h2),
            ("w17 h2", &big, &cfg_h2),
            ("small h1", &small, &cfg_h1),
            ("w17 h2 again", &big, &cfg_h2),
        ] {
            let plan = RunPlan::new(inputs).config(cfg.clone());
            let cold = plan.run_rep_in(0, &mut ReplayCtx::new()).expect("cold");
            let recycled = plan.run_rep_in(0, &mut warm).expect("recycled");
            assert_eq!(cold, recycled, "round {round}, {name}: recycled ctx diverged");
        }
    }
}

/// Alternating two unrelated pages — and protocols — through one context
/// must not leak state between them: each load agrees with a fresh-context
/// load of the same page every time.
#[test]
fn recycled_ctx_does_not_leak_state_across_pages_or_protocols() {
    let a = ReplayInputs::from(&page()).prepared();
    let b = ReplayInputs::from(&other_page());
    let cfg_h2 = ReplayConfig::testbed(Strategy::PushList { order: vec![ResourceId(1)] });
    let mut cfg_h1 = ReplayConfig::testbed(Strategy::NoPush);
    cfg_h1.protocol = Protocol::H1;
    let mut warm = ReplayCtx::new();
    for round in 0..REPS {
        for (inputs, cfg) in [(&a, &cfg_h2), (&b, &cfg_h2), (&a, &cfg_h1), (&b, &cfg_h1)] {
            let plan = RunPlan::new(inputs).config(cfg.clone());
            let cold = plan.run_rep_in(0, &mut ReplayCtx::new()).expect("cold");
            let recycled = plan.run_rep_in(0, &mut warm).expect("recycled");
            assert_eq!(
                cold, recycled,
                "round {round}: context leaked state across pages/protocols"
            );
        }
    }
}

/// Feed `script` chunk by chunk, polling the server dry after each:
/// every octet it answered, what it observed and what it pushed.
fn answer(
    server: &mut ReplayServer,
    script: &[Vec<u8>],
) -> (Vec<u8>, Vec<RequestObservation>, u64) {
    let mut wire = Vec::new();
    for (i, chunk) in script.iter().enumerate() {
        let now = 100 * i as u64;
        server.feed_bytes(chunk, now);
        while server.poll_output_into(usize::MAX, now, &mut wire) > 0 {}
    }
    (wire, server.observations().to_vec(), server.pushed_bytes())
}

/// A real client's whole benign exchange with `server`, chunk by chunk:
/// what the client sent each round and what the server answered.
fn record_exchange(server: &mut ReplayServer) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let (mut ups, mut downs) = (Vec::new(), Vec::new());
    let (mut client, mut sched) =
        (Connection::client(Settings::default()), DefaultScheduler::new());
    client.request(&benign_request(), Some(PrioritySpec::default()));
    loop {
        let up = client.produce(usize::MAX, &mut sched);
        if up.is_empty() {
            return (ups, downs);
        }
        ups.push(up.to_vec());
        server.feed_bytes(&up, 0);
        let mut down = Vec::new();
        while server.poll_output_into(usize::MAX, 0, &mut down) > 0 {}
        client.receive(&down);
        while client.poll_event().is_some() {}
        downs.push(down);
    }
}

/// What the live server does at `accept`: a machine parked in whatever
/// state its last connection left it — fed half a frame, in the middle of
/// a push with output unpolled, or dead of any of the badpeer catalogue's
/// errors — goes through `reset` + `set_limits` and must answer the next
/// client exactly as a machine built for it would.
#[test]
fn a_server_reset_out_of_any_state_answers_like_a_cold_one() {
    let page = Arc::new(attack_page());
    let db = Arc::new(RecordDb::record(&page));
    let strategy = Arc::new(Strategy::PushList { order: vec![ResourceId(1)] });
    let limits = ConnLimits::strict();
    let cold = || {
        let main_group = page.server_group_of(ResourceId(0));
        let mut server =
            ReplayServer::new(Arc::clone(&page), Arc::clone(&db), main_group, &strategy);
        server.set_limits(limits);
        server
    };

    // The client byte script: a real client's side of a whole exchange
    // with a cold server, recorded chunk by chunk.
    let (script, _) = record_exchange(&mut cold());
    let expected = answer(&mut cold(), &script);
    assert_eq!(expected.1.len(), 1, "one request observed");
    assert_eq!(expected.2, page.resource(ResourceId(1)).size as u64, "the stylesheet was pushed");

    let main_group = page.server_group_of(ResourceId(0));
    let reissue = |parked: &mut ReplayServer| {
        parked.reset(Arc::clone(&page), Arc::clone(&db), main_group, &strategy);
        parked.set_limits(limits);
    };
    let check = |label: &str, dirty: &mut ReplayServer| {
        reissue(dirty);
        assert!(answer(dirty, &script) == expected, "{label}: reset machine diverged from cold");
    };

    // Hung up on in the middle of the request's HEADERS frame.
    let mut half_fed = cold();
    half_fed.feed_bytes(&script[0][..script[0].len() - 5], 0);
    assert!(half_fed.observations().is_empty(), "the request is still incomplete");
    check("half-fed", &mut half_fed);

    // Hung up on mid-push: promise and some DATA polled, the rest queued.
    let mut mid_push = cold();
    mid_push.feed_bytes(&script[0], 0);
    assert!(mid_push.poll_output_into(2_000, 0, &mut Vec::new()) > 0);
    assert!(mid_push.wants_output() && mid_push.pushed_bytes() > 0);
    check("mid-push", &mut mid_push);

    // Dead of each catalogue attack (two kinds are absorbed); one machine
    // takes them all in turn, reissued before each as it would be.
    let mut victim = cold();
    for outcome in run_suite(42, limits).iter().filter(|o| o.victim == Victim::Server) {
        reissue(&mut victim);
        let attack = AttackScript::new(outcome.kind, outcome.seed).compile();
        for chunk in std::iter::once(&script[0][..]).chain(attack.iter().map(|c| &c[..])) {
            victim.feed_bytes(chunk, 0);
            while victim.poll_output_into(usize::MAX, 0, &mut Vec::new()) > 0 {}
        }
        assert_eq!(victim.fatal_error(), outcome.fatal, "{}", outcome.kind.label());
        check(outcome.kind.label(), &mut victim);
    }
}

/// The browser reuses a failed connection's machine: `reset_client` then
/// `set_limits`, as in `Browser::ensure_conn`. A client that took the
/// catalogue's client-victim attack — a GOAWAY, then promises and data
/// as if none had been sent — and was reset so must send the same bytes
/// and raise the same events against a recorded server as a client
/// `Connection::client` built.
#[test]
fn a_client_reset_out_of_an_attack_exchanges_like_a_cold_one() {
    let page = Arc::new(attack_page());
    let db = Arc::new(RecordDb::record(&page));
    let strategy = Arc::new(Strategy::PushList { order: vec![ResourceId(1)] });
    let limits = ConnLimits::strict();
    let main_group = page.server_group_of(ResourceId(0));
    let mut server = ReplayServer::new(Arc::clone(&page), db, main_group, &strategy);
    server.set_limits(limits);
    let (_, answers) = record_exchange(&mut server);

    // Every byte the client sends and every event it raises, answered
    // round by round from the recording.
    let exchange = |client: &mut Connection| {
        let mut sched = DefaultScheduler::new();
        let (mut wire, mut events) = (Vec::new(), Vec::new());
        client.request(&benign_request(), Some(PrioritySpec::default()));
        for down in std::iter::once(&[][..]).chain(answers.iter().map(|a| &a[..])) {
            client.receive(down);
            events.extend(std::iter::from_fn(|| client.poll_event()));
            loop {
                let up = client.produce(usize::MAX, &mut sched);
                if up.is_empty() {
                    break;
                }
                wire.extend_from_slice(&up);
            }
        }
        (wire, events)
    };
    let mut cold = Connection::client(Settings::default());
    cold.set_limits(limits);
    let expected = exchange(&mut cold);
    assert!(expected.1.iter().any(|e| matches!(e, Event::Data { .. })), "{:?}", expected.1);

    let outcome = run_suite(42, limits)
        .into_iter()
        .find(|o| o.victim == Victim::Client)
        .expect("a client-victim kind in the catalogue");
    let mut victim = Connection::client(Settings::default());
    victim.set_limits(limits);
    let mut sched = DefaultScheduler::new();
    victim.request(&benign_request(), Some(PrioritySpec::default()));
    while !victim.produce(usize::MAX, &mut sched).is_empty() {}
    let mut saw_goaway = false;
    for chunk in AttackScript::new(outcome.kind, outcome.seed).compile() {
        victim.receive(&chunk);
        while let Some(ev) = victim.poll_event() {
            saw_goaway |= matches!(ev, Event::GoAway { .. });
        }
        while !victim.produce(usize::MAX, &mut sched).is_empty() {}
    }
    assert!(saw_goaway, "{}: the victim was never told to go away", outcome.kind.label());

    victim.reset_client(Settings::default());
    victim.set_limits(limits);
    assert!(exchange(&mut victim) == expected, "{}: reset client diverged", outcome.kind.label());
}
