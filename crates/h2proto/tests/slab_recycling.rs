//! Stream-slab recycling must never alias state across connection lives.
//!
//! A connection machine is recycled whole: the replay context parks every
//! endpoint its last run opened and reissues it through
//! `reset_client` / `reset_server`, which clear the dense stream storage
//! in place (one rep opens a client/server pair per origin, so the same
//! allocation is reused rep after rep). These tests prove the reuse is
//! observationally invisible: a recycled connection answers every
//! stream-id query exactly like one built from scratch.

use h2push_h2proto::connection::{Connection, Event, StreamState};
use h2push_h2proto::frame::Settings;
use h2push_hpack::Header;

fn req_headers(path: &str) -> Vec<Header> {
    vec![
        Header::new(":method", "GET"),
        Header::new(":scheme", "https"),
        Header::new(":authority", "origin.test"),
        Header::new(":path", path),
    ]
}

/// Shuttle bytes both ways until neither endpoint has anything to send.
fn drain(client: &mut Connection, server: &mut Connection) {
    let mut sched = h2push_h2proto::scheduler::FifoScheduler;
    for _ in 0..64 {
        let c2s = client.produce(1 << 20, &mut sched);
        if !c2s.is_empty() {
            server.receive(&c2s);
        }
        let s2c = server.produce(1 << 20, &mut sched);
        if !s2c.is_empty() {
            client.receive(&s2c);
        }
        if c2s.is_empty() && s2c.is_empty() {
            break;
        }
    }
}

/// Run one "rep" on a client/server pair fresh out of construction or
/// reset: requests and pushes exchanged, returning every stream id that
/// existed on the client.
fn run_rep(client: &mut Connection, server: &mut Connection, paths: usize) -> Vec<u32> {
    drain(client, server);
    let mut ids = Vec::new();
    for i in 0..paths {
        let id = client.request(&req_headers(&format!("/r{i}")), None);
        ids.push(id);
        drain(client, server);
        if let Some(push) = server.push_promise(id, &req_headers(&format!("/p{i}"))) {
            server.respond(push, &[Header::new(":status", "200")], true);
            ids.push(push);
        }
        server.respond(id, &[Header::new(":status", "200")], true);
        drain(client, server);
        while client.poll_event().is_some() {}
        while server.poll_event().is_some() {}
    }
    for &id in &ids {
        assert!(client.stream_state(id).is_some(), "rep lost track of stream {id}");
    }
    ids
}

#[test]
fn recycled_slabs_never_alias_stream_ids_across_reps() {
    // First rep opens plenty of streams; then both machines are recycled,
    // slabs and all.
    let mut client = Connection::client(Settings::default());
    let mut server = Connection::server(Settings::default());
    let first_ids = run_rep(&mut client, &mut server, 40);
    assert!(first_ids.len() >= 40);
    client.reset_client(Settings::default());
    server.reset_server(Settings::default());

    // No id from the previous life may resolve before this one creates it.
    for &id in &first_ids {
        assert_eq!(
            client.stream_state(id),
            None,
            "stream {id} from a previous rep leaked through the recycled slab"
        );
        assert_eq!(server.stream_state(id), None);
    }
    assert_eq!(client.peek_next_stream_id(), 1, "id allocation must restart per connection");

    // A full second rep over recycled storage behaves like the first: same
    // ids in the same order, same terminal states — also with the roles
    // swapped, as a context reissues machines to whoever asks next.
    let second_ids = run_rep(&mut client, &mut server, 40);
    assert_eq!(first_ids, second_ids, "recycled slabs changed id allocation");
    client.reset_server(Settings::default());
    server.reset_client(Settings::default());
    let third_ids = run_rep(&mut server, &mut client, 40);
    assert_eq!(first_ids, third_ids, "a machine recycled into the other role kept state");
}

#[test]
fn recycled_slab_streams_start_fresh() {
    // Open-and-finish a stream in life 1; in life 2 the same id must come
    // back with pristine per-stream state (no inherited bytes counters).
    let mut client = Connection::client(Settings::default());
    let mut server = Connection::server(Settings::default());
    drain(&mut client, &mut server);
    let id = client.request(&req_headers("/a"), None);
    drain(&mut client, &mut server);
    server.respond(id, &[Header::new(":status", "200")], false);
    server.queue_body(id, 9000, true);
    drain(&mut client, &mut server);
    assert_eq!(server.bytes_sent(id), 9000);

    client.reset_client(Settings::default());
    server.reset_server(Settings::default());
    drain(&mut client, &mut server);
    let id = client.request(&req_headers("/a"), None);
    assert_eq!(id, 1);
    drain(&mut client, &mut server);
    assert_eq!(server.bytes_sent(id), 0, "recycled stream slot kept old counters");
    assert_eq!(server.stream_state(id), Some(StreamState::HalfClosedRemote));
    let mut saw_headers = false;
    server.respond(id, &[Header::new(":status", "200")], true);
    drain(&mut client, &mut server);
    while let Some(ev) = client.poll_event() {
        if matches!(ev, Event::Headers { stream, .. } if stream == id) {
            saw_headers = true;
        }
    }
    assert!(saw_headers, "second life's stream {id} never completed");
}
