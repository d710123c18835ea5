//! HTTP/1.1 replay server — the baseline deployment the paper records
//! (§4.1: "If there is no H2 version, we capture the respective H1
//! version").
//!
//! One instance per *connection* (H1 state is per-connection); the record
//! database is shared across the pool through an `Arc`.

use h2push_h1::H1ServerConn;
use h2push_webmodel::RecordDb;
use std::sync::Arc;

/// The server half of one HTTP/1.1 replay connection.
pub struct H1ReplayServer {
    db: Arc<RecordDb>,
    conn: H1ServerConn,
    served: u32,
}

impl H1ReplayServer {
    /// New connection server answering from `db`.
    pub fn new(db: Arc<RecordDb>) -> Self {
        H1ReplayServer { db, conn: H1ServerConn::new(), served: 0 }
    }

    /// Recycle into a fresh connection server answering from `db`,
    /// retaining the H1 machine's buffers.
    pub fn reset(&mut self, db: Arc<RecordDb>) {
        self.db = db;
        self.conn.reset();
        self.served = 0;
    }

    /// Responses served on this connection.
    pub fn served(&self) -> u32 {
        self.served
    }
}

/// Sans-IO transport surface — see `h2push_h2proto::sansio`. The H1
/// server ignores time entirely; the impl exists so the runtimes can
/// drive both protocols through one trait object.
impl h2push_h2proto::sansio::Endpoint for H1ReplayServer {
    /// Feed wire bytes; answers any completed requests immediately.
    fn feed_bytes(&mut self, bytes: &[u8], _now: h2push_h2proto::sansio::Micros) {
        self.conn.receive(bytes);
        while let Some(req) = self.conn.poll_request() {
            match self.db.lookup(&req.host, &req.path) {
                Some(rec) => {
                    self.conn.respond(200, rec.body_len, &rec.content_type);
                    self.served += 1;
                }
                None => self.conn.respond(404, 0, "text/plain"),
            }
        }
    }

    fn wants_output(&self) -> bool {
        self.conn.wants_send()
    }

    fn poll_output_into(
        &mut self,
        max: usize,
        _now: h2push_h2proto::sansio::Micros,
        sink: &mut dyn h2push_h2proto::sansio::WireSink,
    ) -> usize {
        self.conn.produce_into(max, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_h1::encode_request;
    use h2push_h2proto::sansio::Endpoint;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    #[test]
    fn serves_and_counts() {
        let mut b = PageBuilder::new("h1srv", "h1.test", 10_000, 1_000);
        b.resource(ResourceSpec::css(0, 3_000, 100, 0.5));
        let page = b.build();
        let db = Arc::new(RecordDb::record(&page));
        let mut srv = H1ReplayServer::new(db.clone());
        srv.feed_bytes(&encode_request("h1.test", "/", &[]), 0);
        assert!(srv.wants_output());
        let out = srv.poll_output(usize::MAX, 0);
        // Head + 10 000 filler bytes.
        assert!(out.len() > 10_000);
        assert_eq!(srv.served(), 1);
        // Unknown path → 404, still answered.
        let mut srv2 = H1ReplayServer::new(db);
        srv2.feed_bytes(&encode_request("h1.test", "/nope", &[]), 0);
        let out = srv2.poll_output(usize::MAX, 0);
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 404"));
        assert_eq!(srv2.served(), 0);
    }
}
