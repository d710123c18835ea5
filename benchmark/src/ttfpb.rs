//! Time to first pushed byte over loopback: a raw HTTP/2 client (one
//! `TcpStream`, one `h2proto::Connection`) that requests the document and
//! stops the clock at the first DATA frame on a server-initiated stream.
//!
//! The one place the end-to-end runner touches a layer API directly:
//! `load_page` reports page-level milestones only, and the first pushed
//! byte is what a user of the live server sees of its scheduler.

use h2push_h2proto::{Connection, DefaultScheduler, Event, PrioritySpec, Settings};
use h2push_hpack::Header;
use h2push_webmodel::Page;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Give up on a probe after this long (a healthy one takes well under a
/// millisecond).
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// Request `page`'s document from the live server at `addr` and return
/// the time from just before `connect` to the first pushed DATA byte.
/// The connection is dropped mid-push, which the server logs as an
/// unclean close — probe a server whose close counters nobody checks.
pub fn probe(addr: SocketAddr, page: &Page) -> io::Result<Duration> {
    let doc = &page.resources[0];
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(PROBE_TIMEOUT))?;

    let mut client = Connection::client(Settings::default());
    let mut scheduler = DefaultScheduler::new();
    client.request(
        &[
            Header::new(":method", "GET"),
            Header::new(":scheme", "https"),
            Header::new(":authority", &page.origins[doc.origin].host),
            Header::new(":path", &doc.path),
        ],
        Some(PrioritySpec::default()),
    );
    let mut flush = |client: &mut Connection, stream: &mut TcpStream| -> io::Result<()> {
        loop {
            let out = client.produce(usize::MAX, &mut scheduler);
            if out.is_empty() {
                return Ok(());
            }
            stream.write_all(&out)?;
        }
    };
    flush(&mut client, &mut stream)?;

    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before any push"));
        }
        for event in client.feed_bytes(&buf[..n]) {
            match event {
                // Server-initiated (pushed) streams are the even ones.
                Event::Data { stream: id, len, .. } if id % 2 == 0 && len > 0 => {
                    return Ok(start.elapsed());
                }
                Event::ConnectionError { error } => {
                    return Err(io::Error::other(format!("protocol error: {error:?}")));
                }
                _ => {}
            }
        }
        // SETTINGS acks and window updates the machine wants on the wire.
        flush(&mut client, &mut stream)?;
    }
}
