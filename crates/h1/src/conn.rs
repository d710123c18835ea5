//! HTTP/1.1 connection state machines (client and server halves).
//!
//! The defining H1 behaviours the paper contrasts H2 against (§1, §2.1):
//! one outstanding request per connection (browsers shipped with pipelining
//! disabled), head-of-line blocking on that response, keep-alive reuse, and
//! consequently the classic six-connections-per-origin client pool
//! (implemented by the browser layer on top of these).

use crate::codec::{
    encode_request, encode_response_head, parse_request, parse_response, H1Request,
};
use h2push_h2proto::sansio::WireSink;
use std::collections::VecDeque;

/// Events surfaced by the client half.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H1ClientEvent {
    /// The response head arrived.
    ResponseHead {
        /// HTTP status.
        status: u16,
        /// Declared body length.
        content_length: usize,
    },
    /// Body bytes arrived.
    BodyData {
        /// Number of bytes in this chunk.
        len: usize,
    },
    /// The response completed; the connection is idle again.
    ResponseComplete,
    /// The peer violated the protocol; the connection is dead.
    Error {
        /// Human-readable reason.
        reason: &'static str,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Idle,
    /// Waiting for the response head.
    WaitingHead,
    /// Receiving the body; `usize` bytes remain.
    ReceivingBody(usize),
    Dead,
}

/// The client half of one HTTP/1.1 connection.
#[derive(Debug)]
pub struct H1ClientConn {
    state: ClientState,
    out: Vec<u8>,
    buf: Vec<u8>,
    events: VecDeque<H1ClientEvent>,
}

impl Default for H1ClientConn {
    fn default() -> Self {
        Self::new()
    }
}

impl H1ClientConn {
    /// A fresh idle connection.
    pub fn new() -> Self {
        H1ClientConn {
            state: ClientState::Idle,
            out: Vec::new(),
            buf: Vec::new(),
            events: VecDeque::new(),
        }
    }

    /// Whether a request may be sent now.
    pub fn is_idle(&self) -> bool {
        self.state == ClientState::Idle
    }

    /// Return to the fresh-idle state, retaining buffer capacity.
    pub fn reset(&mut self) {
        self.state = ClientState::Idle;
        self.out.clear();
        self.buf.clear();
        self.events.clear();
    }

    /// Queue a GET. Panics if the connection is busy (the pool's job is to
    /// never do that).
    pub fn send_request(&mut self, host: &str, path: &str, extra: &[(&str, &str)]) {
        assert!(self.is_idle(), "HTTP/1.1 without pipelining: one request at a time");
        self.out.extend_from_slice(&encode_request(host, path, extra));
        self.state = ClientState::WaitingHead;
    }

    /// Wire bytes to transmit.
    pub fn produce(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Feed received bytes.
    pub fn receive(&mut self, data: &[u8]) {
        if self.state == ClientState::Dead {
            return;
        }
        self.buf.extend_from_slice(data);
        loop {
            match self.state {
                ClientState::WaitingHead => match parse_response(&self.buf) {
                    None => break,
                    Some(Err(reason)) => {
                        self.state = ClientState::Dead;
                        self.events.push_back(H1ClientEvent::Error { reason });
                        break;
                    }
                    Some(Ok((head, used))) => {
                        self.buf.drain(..used);
                        self.events.push_back(H1ClientEvent::ResponseHead {
                            status: head.status,
                            content_length: head.content_length,
                        });
                        if head.content_length == 0 {
                            self.state = ClientState::Idle;
                            self.events.push_back(H1ClientEvent::ResponseComplete);
                        } else {
                            self.state = ClientState::ReceivingBody(head.content_length);
                        }
                    }
                },
                ClientState::ReceivingBody(remaining) => {
                    if self.buf.is_empty() {
                        break;
                    }
                    let take = remaining.min(self.buf.len());
                    self.buf.drain(..take);
                    // Body bytes fed in several calls since the last poll
                    // are one event, as if fed in one: where a delivery
                    // is cut is not the application's business.
                    match self.events.back_mut() {
                        Some(H1ClientEvent::BodyData { len }) => *len += take,
                        _ => self.events.push_back(H1ClientEvent::BodyData { len: take }),
                    }
                    if take == remaining {
                        self.state = ClientState::Idle;
                        self.events.push_back(H1ClientEvent::ResponseComplete);
                    } else {
                        self.state = ClientState::ReceivingBody(remaining - take);
                    }
                }
                ClientState::Idle | ClientState::Dead => break,
            }
        }
    }

    /// Drain the next event.
    pub fn poll_event(&mut self) -> Option<H1ClientEvent> {
        self.events.pop_front()
    }
}

/// The server half of one HTTP/1.1 connection: parses requests, sends
/// queued responses strictly in order (this ordering *is* H1 head-of-line
/// blocking).
#[derive(Debug, Default)]
pub struct H1ServerConn {
    buf: Vec<u8>,
    requests: VecDeque<H1Request>,
    /// Responses not yet fully transmitted: remaining head bytes + body
    /// bytes.
    out_head: VecDeque<Vec<u8>>,
    out_body: VecDeque<usize>,
    dead: bool,
}

impl H1ServerConn {
    /// A fresh connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return to the fresh state, retaining buffer capacity.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.requests.clear();
        self.out_head.clear();
        self.out_body.clear();
        self.dead = false;
    }

    /// Feed received bytes; completed requests become pollable.
    pub fn receive(&mut self, data: &[u8]) {
        if self.dead {
            return;
        }
        self.buf.extend_from_slice(data);
        loop {
            match parse_request(&self.buf) {
                None => break,
                Some(Err(_)) => {
                    self.dead = true;
                    break;
                }
                Some(Ok((req, used))) => {
                    self.buf.drain(..used);
                    self.requests.push_back(req);
                }
            }
        }
    }

    /// Next pending request.
    pub fn poll_request(&mut self) -> Option<H1Request> {
        self.requests.pop_front()
    }

    /// Queue a response (head now, filler body streamed by
    /// [`H1ServerConn::produce`]).
    pub fn respond(&mut self, status: u16, content_length: usize, content_type: &str) {
        self.out_head.push_back(encode_response_head(status, content_length, content_type));
        self.out_body.push_back(content_length);
    }

    /// Whether there are bytes to transmit.
    pub fn wants_send(&self) -> bool {
        !self.out_head.is_empty()
    }

    /// [`H1ServerConn::produce_into`] an owned buffer, bodies materialised.
    pub fn produce(&mut self, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.produce_into(max, &mut out);
        out
    }

    /// Write up to `max` wire bytes into `sink` (responses strictly in
    /// order) and return how many: heads through `put_slice`, filler
    /// bodies as `put_zeros` runs.
    pub fn produce_into(&mut self, max: usize, sink: &mut dyn WireSink) -> usize {
        let mut written = 0;
        while written < max {
            let Some(head) = self.out_head.front_mut() else { break };
            if !head.is_empty() {
                let take = head.len().min(max - written);
                sink.put_slice(&head[..take]);
                head.drain(..take);
                written += take;
                continue;
            }
            let body = self.out_body.front_mut().expect("head and body queues in sync");
            if *body > 0 {
                let take = (*body).min(max - written);
                sink.put_zeros(take);
                *body -= take;
                written += take;
            }
            if *body == 0 {
                self.out_head.pop_front();
                self.out_body.pop_front();
            }
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump(client: &mut H1ClientConn, server: &mut H1ServerConn) -> Vec<H1ClientEvent> {
        let mut events = Vec::new();
        for _ in 0..50 {
            let up = client.produce();
            if !up.is_empty() {
                server.receive(&up);
            }
            let mut progressed = !up.is_empty();
            while server.wants_send() {
                let down = server.produce(usize::MAX);
                if down.is_empty() {
                    break;
                }
                progressed = true;
                client.receive(&down);
            }
            while let Some(e) = client.poll_event() {
                events.push(e);
            }
            if !progressed {
                break;
            }
        }
        events
    }

    #[test]
    fn request_response_cycle() {
        let mut c = H1ClientConn::new();
        let mut s = H1ServerConn::new();
        c.send_request("a.test", "/x.css", &[]);
        let up = c.produce();
        s.receive(&up);
        let req = s.poll_request().expect("request parsed");
        assert_eq!(req.path, "/x.css");
        s.respond(200, 5000, "text/css");
        let events = pump(&mut c, &mut s);
        assert_eq!(
            events.first(),
            Some(&H1ClientEvent::ResponseHead { status: 200, content_length: 5000 })
        );
        let body: usize = events
            .iter()
            .filter_map(|e| match e {
                H1ClientEvent::BodyData { len } => Some(*len),
                _ => None,
            })
            .sum();
        assert_eq!(body, 5000);
        assert_eq!(events.last(), Some(&H1ClientEvent::ResponseComplete));
        assert!(c.is_idle(), "keep-alive: connection reusable");
    }

    #[test]
    fn pieces_fed_before_a_poll_read_as_their_concatenation() {
        let mut s = H1ServerConn::new();
        s.respond(200, 3_000, "text/css");
        let wire = s.produce(usize::MAX);
        let events = |cuts: &[usize]| {
            let mut c = H1ClientConn::new();
            c.send_request("a.test", "/x.css", &[]);
            let mut rest = &wire[..];
            for &cut in cuts {
                let (piece, tail) = rest.split_at(cut.min(rest.len()));
                c.receive(piece);
                rest = tail;
            }
            c.receive(rest);
            std::iter::from_fn(|| c.poll_event()).collect::<Vec<_>>()
        };
        let whole = events(&[]);
        assert_eq!(whole.len(), 3, "head, one body event, complete: {whole:?}");
        // Cuts inside the head, at its end, and all over the body.
        let head = wire.len() - 3_000;
        for cuts in [&[5][..], &[head], &[head + 1, 1, 1_000], &[3, head, 7, 7, 2_000, 900]] {
            assert_eq!(events(cuts), whole, "cut at {cuts:?}");
        }
    }

    #[test]
    fn keep_alive_reuse() {
        let mut c = H1ClientConn::new();
        let mut s = H1ServerConn::new();
        for i in 0..3 {
            c.send_request("a.test", &format!("/{i}"), &[]);
            let up = c.produce();
            s.receive(&up);
            let req = s.poll_request().unwrap();
            assert_eq!(req.path, format!("/{i}"));
            s.respond(200, 100, "text/html");
            let events = pump(&mut c, &mut s);
            assert_eq!(events.last(), Some(&H1ClientEvent::ResponseComplete));
        }
    }

    #[test]
    #[should_panic(expected = "one request at a time")]
    fn no_pipelining() {
        let mut c = H1ClientConn::new();
        c.send_request("a.test", "/1", &[]);
        c.send_request("a.test", "/2", &[]);
    }

    #[test]
    fn chunked_arrival_of_head_and_body() {
        let mut c = H1ClientConn::new();
        c.send_request("a.test", "/", &[]);
        let _ = c.produce();
        let mut s = H1ServerConn::new();
        s.respond(200, 10, "text/html");
        let wire = s.produce(usize::MAX);
        for b in &wire {
            c.receive(std::slice::from_ref(b));
        }
        let mut body = 0;
        let mut complete = false;
        while let Some(e) = c.poll_event() {
            match e {
                H1ClientEvent::BodyData { len } => body += len,
                H1ClientEvent::ResponseComplete => complete = true,
                _ => {}
            }
        }
        assert_eq!(body, 10);
        assert!(complete);
    }

    #[test]
    fn server_responses_are_head_of_line_blocked() {
        // Two requests parsed; responses must come out strictly in order.
        let mut s = H1ServerConn::new();
        s.receive(&encode_request("a.test", "/big", &[]));
        s.receive(&encode_request("a.test", "/small", &[]));
        assert!(s.poll_request().is_some());
        assert!(s.poll_request().is_some());
        s.respond(200, 10_000, "text/html");
        s.respond(200, 10, "text/css");
        // Pull in small chunks: the tiny response cannot overtake.
        let mut got = Vec::new();
        while s.wants_send() {
            got.extend(s.produce(1000));
        }
        let first_head = crate::codec::parse_response(&got).unwrap().unwrap().0;
        assert_eq!(first_head.content_length, 10_000);
    }

    #[test]
    fn zero_length_response() {
        let mut c = H1ClientConn::new();
        c.send_request("a.test", "/empty", &[]);
        let _ = c.produce();
        c.receive(&encode_response_head(404, 0, "text/plain"));
        let mut seen_complete = false;
        while let Some(e) = c.poll_event() {
            if e == H1ClientEvent::ResponseComplete {
                seen_complete = true;
            }
        }
        assert!(seen_complete);
        assert!(c.is_idle());
    }

    #[test]
    fn garbage_kills_connection_cleanly() {
        let mut c = H1ClientConn::new();
        c.send_request("a.test", "/", &[]);
        let _ = c.produce();
        c.receive(b"SPDY/3 oops\r\n\r\n");
        assert!(matches!(c.poll_event(), Some(H1ClientEvent::Error { .. })));
        assert!(!c.is_idle());
    }
}
