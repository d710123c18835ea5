//! The badpeer attack catalogue over real TCP.
//!
//! The sans-IO contract promises that the harness owns nothing the
//! protocol outcome depends on — `badpeer_sansio.rs` proved that for
//! in-memory `feed_bytes`. This suite closes the loop over an actual
//! socket: every scripted attack replays its recorded wire bytes against
//! a [`LiveServer`] (or, for the client-victim kind, from a malicious
//! TCP listener against a real client `Connection`) and must die with —
//! or survive to — the *same typed [`ConnError`]* the canonical
//! in-memory suite reports, while the supervision layer records the
//! close in [`LiveServerStats::close_log`].
//!
//! It also shows the server completing well-behaved loads while the
//! full catalogue fires at it. The slow-reader defense (the output-queue
//! bound and the write-stall deadline) is a supervision deadline, tested
//! on an injected clock with the live module's own step tests.
#![cfg(unix)]

use h2push_browser::BrowserConfig;
use h2push_h2proto::{
    ConnError, ConnLimits, Connection, DefaultScheduler, Event, PrioritySpec, Settings,
};
use h2push_strategies::Strategy;
use h2push_testbed::{
    attack_page, benign_request, load_page, run_suite, AttackKind, AttackOutcome, AttackScript,
    CloseReason, LiveLimits, LiveServer, LiveServerStats, Victim,
};
use h2push_webmodel::{Page, ResourceId};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benign splice-in every server-victim script rides on, as raw wire
/// bytes: preface, SETTINGS and one GET from a real client `Connection` —
/// byte-identical to what the canonical harness feeds first.
fn benign_splice() -> Vec<u8> {
    let mut cli = Connection::client(Settings::default());
    let mut sched = DefaultScheduler::new();
    cli.request(&benign_request(), Some(PrioritySpec::default()));
    let mut v = Vec::new();
    loop {
        let out = cli.produce(usize::MAX, &mut sched);
        if out.is_empty() {
            break;
        }
        v.extend_from_slice(&out);
    }
    v
}

/// Write that tolerates the victim hanging up mid-stream (a server that
/// already died of the attack closes the socket; the remaining attack
/// bytes have nowhere to go and that is fine). Returns false once the
/// peer is gone.
fn write_lossy(s: &mut TcpStream, bytes: &[u8]) -> bool {
    s.write_all(bytes).is_ok()
}

/// Read until EOF (or a reset, which equally proves the peer retired the
/// connection), bounded so a wedged server fails the test instead of
/// hanging it.
fn read_to_eof(s: &mut TcpStream, label: &str) {
    s.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let mut buf = [0u8; 16 * 1024];
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match s.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
        assert!(Instant::now() < deadline, "{label}: victim never closed the connection");
    }
}

/// One server-victim attack over a real socket: fresh [`LiveServer`] on
/// the canonical attack page with strict limits, benign splice then the
/// compiled chunks, half-close, drain; then `after`, against the same
/// server. Returns the run's stats.
fn attack_live_server_then(
    script: &AttackScript,
    after: impl FnOnce(SocketAddr, Arc<Page>),
) -> LiveServerStats {
    let page = Arc::new(attack_page());
    let strategy = Strategy::PushList { order: vec![ResourceId(1)] };
    let mut server =
        LiveServer::bind("127.0.0.1:0", Arc::clone(&page), strategy).expect("bind loopback");
    server.set_limits(LiveLimits { conn: ConnLimits::strict(), ..LiveLimits::new() });
    server.set_deadline(Duration::from_secs(30));
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    let mut s = TcpStream::connect(addr).expect("connect");
    let _ = s.set_nodelay(true);
    if write_lossy(&mut s, &benign_splice()) {
        for chunk in script.compile() {
            if !write_lossy(&mut s, &chunk) {
                break;
            }
        }
    }
    let _ = s.shutdown(Shutdown::Write);
    read_to_eof(&mut s, script.kind.label());
    drop(s);
    after(addr, page);

    handle.stop();
    server_thread.join().expect("server thread").expect("server run")
}

fn attack_live_server(script: &AttackScript) -> LiveServerStats {
    attack_live_server_then(script, |_, _| {})
}

#[test]
fn server_victim_attacks_reach_same_typed_errors_over_tcp() {
    let canonical = run_suite(42, ConnLimits::strict());
    let server_victims: Vec<&AttackOutcome> =
        canonical.iter().filter(|o| o.victim == Victim::Server).collect();
    assert_eq!(server_victims.len(), 10, "catalogue shape changed");

    for outcome in server_victims {
        let script = AttackScript::new(outcome.kind, outcome.seed);
        let stats = attack_live_server(&script);
        assert_eq!(
            stats.close_log.len(),
            1,
            "{}: expected exactly one retired connection, got {:?}",
            outcome.kind.label(),
            stats.close_log,
        );
        let close = &stats.close_log[0];
        assert_eq!(
            close.error,
            outcome.fatal,
            "{}: typed error over TCP diverged from the sans-IO suite",
            outcome.kind.label(),
        );
        if outcome.fatal.is_some() {
            assert_eq!(
                close.reason,
                CloseReason::ProtocolError,
                "{}: fatal attack not closed as a protocol error",
                outcome.kind.label(),
            );
            assert_eq!(stats.closed.protocol_error, 1);
        } else {
            // Absorbed attacks end with our half-close: a clean EOF.
            assert_eq!(
                close.reason,
                CloseReason::Clean,
                "{}: absorbed attack should close clean",
                outcome.kind.label(),
            );
            assert_eq!(stats.closed.clean, 1);
        }
    }
}

/// Parking is for machines a well-behaved exchange grew: one that died of
/// a protocol error is dropped, so the next accept builds its own; one
/// that absorbed its attack and closed clean is reissued, and serves a
/// load with pushes as if new.
#[test]
fn only_a_cleanly_closed_machine_is_reissued_to_the_next_accept() {
    for outcome in run_suite(42, ConnLimits::strict()) {
        if outcome.victim != Victim::Server {
            continue;
        }
        let script = AttackScript::new(outcome.kind, outcome.seed);
        let stats = attack_live_server_then(&script, |addr, page| {
            let report = load_page(addr, page, BrowserConfig::default(), Duration::from_secs(30))
                .expect("live load after the attack");
            assert!(report.load.finished() && !report.load.partial, "{:?}", report.load);
            assert_eq!(report.load.pushed_count, 1, "{}", outcome.kind.label());
        });
        let died = u64::from(outcome.fatal.is_some());
        assert_eq!(
            (stats.machines_built, stats.machines_reused),
            (1 + died, 1 - died),
            "{}: {:?}",
            outcome.kind.label(),
            stats.close_log,
        );
        assert_eq!((stats.closed.protocol_error, stats.closed.clean), (died, 2 - died));
        // The load's own connection closed clean, whatever it was issued.
        let last = stats.close_log.back().expect("two closes");
        assert_eq!((last.reason, last.error), (CloseReason::Clean, None));
    }
}

#[test]
fn client_victim_attack_reaches_same_typed_error_over_tcp() {
    let canonical = run_suite(42, ConnLimits::strict());
    let outcome = canonical
        .iter()
        .find(|o| o.kind == AttackKind::PushAfterGoaway)
        .expect("client-victim kind in suite");
    assert_eq!(outcome.victim, Victim::Client);
    let chunks = AttackScript::new(outcome.kind, outcome.seed).compile();

    // The malicious server: one accepted connection, drain the client's
    // opening burst first (dropping unread received bytes would RST the
    // socket and could destroy our own attack bytes in flight), then the
    // scripted chunks, then half-close and wait for the client to go.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind attacker");
    let addr = listener.local_addr().unwrap();
    let attacker = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept victim");
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut buf = [0u8; 16 * 1024];
        let mut seen = 0usize;
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(5) {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => seen += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if seen > 0 {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        for chunk in &chunks {
            if s.write_all(chunk).is_err() {
                break;
            }
        }
        let _ = s.shutdown(Shutdown::Write);
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });

    // The victim: a real client `Connection` with strict limits, driven
    // over the socket exactly as the sans-IO path drives feed_bytes.
    let mut s = TcpStream::connect(addr).expect("connect attacker");
    let mut cli = Connection::client(Settings::default());
    cli.set_limits(ConnLimits::strict());
    let mut sched = DefaultScheduler::new();
    cli.request(&benign_request(), Some(PrioritySpec::default()));
    loop {
        let out = cli.produce(usize::MAX, &mut sched);
        if out.is_empty() {
            break;
        }
        if !write_lossy(&mut s, &out) {
            break;
        }
    }

    s.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let mut fatal: Option<ConnError> = None;
    let mut buf = [0u8; 16 * 1024];
    let deadline = Instant::now() + Duration::from_secs(15);
    'recv: while Instant::now() < deadline {
        match s.read(&mut buf) {
            Ok(0) => break 'recv,
            Ok(n) => {
                for ev in cli.feed_bytes(&buf[..n]) {
                    if let Event::ConnectionError { error } = ev {
                        fatal.get_or_insert(error);
                    }
                }
                loop {
                    let out = cli.produce(usize::MAX, &mut sched);
                    if out.is_empty() {
                        break;
                    }
                    if !write_lossy(&mut s, &out) {
                        break 'recv;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break 'recv,
        }
    }
    drop(s);
    attacker.join().expect("attacker thread");

    assert_eq!(
        fatal, outcome.fatal,
        "push-after-goaway: typed error over TCP diverged from the sans-IO suite"
    );
}

#[test]
fn server_keeps_serving_wellbehaved_loads_under_attack() {
    let page = Arc::new(attack_page());
    let mut server = LiveServer::bind(
        "127.0.0.1:0",
        Arc::clone(&page),
        Strategy::PushList { order: vec![ResourceId(1)] },
    )
    .expect("bind loopback");
    server.set_limits(LiveLimits { conn: ConnLimits::strict(), ..LiveLimits::new() });
    server.set_deadline(Duration::from_secs(60));
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // One attacker cycling the whole server-victim catalogue over TCP...
    let attacker = std::thread::spawn(move || {
        for kind in AttackKind::ALL {
            if kind.victim() != Victim::Server {
                continue;
            }
            let script = AttackScript::new(kind, 42);
            let mut s = TcpStream::connect(addr).expect("attacker connect");
            if write_lossy(&mut s, &benign_splice()) {
                for chunk in script.compile() {
                    if !write_lossy(&mut s, &chunk) {
                        break;
                    }
                }
            }
            let _ = s.shutdown(Shutdown::Write);
            read_to_eof(&mut s, kind.label());
        }
    });

    // ...while well-behaved loads keep completing against the same server.
    for round in 0..3 {
        let report =
            load_page(addr, Arc::clone(&page), BrowserConfig::default(), Duration::from_secs(30))
                .expect("live load under attack");
        assert!(
            report.load.finished(),
            "load {round} did not finish while the catalogue was firing: {:?}",
            report.load,
        );
        assert!(!report.load.partial, "load {round} was partial under attack");
        assert_eq!(report.shed_conns, 0, "well-behaved load was shed");
        assert_eq!(report.closed_conns, 0, "well-behaved load was cut off");
    }

    attacker.join().expect("attacker thread");
    handle.stop();
    let stats = server_thread.join().expect("server thread").expect("server run");

    // 8 of the 10 server-victim kinds die of a typed error; the two
    // absorbed kinds and the three loads close clean.
    let errored = stats.close_log.iter().filter(|c| c.error.is_some()).count();
    assert_eq!(errored, 8, "typed-error close count off: {:?}", stats.close_log);
    assert_eq!(stats.closed.protocol_error, 8);
    assert!(stats.closed.clean >= 5, "clean closes missing: {:?}", stats.closed);
    assert!(stats.requests >= 3, "loads did not reach the server");
    assert_eq!(stats.closed.drain_killed, 0);
}
