//! Mahimahi-style record database (§4.1).
//!
//! Mahimahi records HTTP request/response pairs in per-site databases and
//! later serves replays by matching requests against them. This module is
//! the equivalent: a [`RecordDb`] maps `(host, path)` to a recorded
//! response. A database lives in memory only: every replay records its
//! page afresh ([`RecordDb::record`]), so nothing is stored or reloaded.

use crate::page::Page;
use crate::types::ResourceId;

/// A recorded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedResponse {
    /// HTTP status.
    pub status: u16,
    /// `content-type` value.
    pub content_type: String,
    /// Body length in (wire) bytes.
    pub body_len: usize,
    /// The page resource this response corresponds to.
    pub resource: ResourceId,
}

/// A request key: authority plus path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// `:authority`.
    pub host: String,
    /// `:path`.
    pub path: String,
}

/// The record database for one site.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordDb {
    /// Site name (matches [`Page::name`]).
    pub site: String,
    entries: Vec<(RequestKey, RecordedResponse)>,
    /// Entry indices sorted by `(host, path)`, so [`RecordDb::lookup`] is a
    /// binary search over borrowed strings — no per-request key allocation.
    index: Vec<usize>,
}

impl RecordDb {
    /// Record a page: one entry per resource, keyed by its origin host and
    /// path.
    pub fn record(page: &Page) -> Self {
        let mut db = RecordDb { site: page.name.clone(), entries: Vec::new(), index: Vec::new() };
        for r in &page.resources {
            let key =
                RequestKey { host: page.origins[r.origin].host.clone(), path: r.path.clone() };
            let resp = RecordedResponse {
                status: 200,
                content_type: r.rtype.mime().to_string(),
                body_len: r.size,
                resource: r.id,
            };
            db.entries.push((key, resp));
        }
        db.reindex();
        db
    }

    /// Number of recorded pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Match a request, Mahimahi-style: exact host+path. Allocation-free:
    /// binary search against the sorted index with borrowed keys.
    pub fn lookup(&self, host: &str, path: &str) -> Option<&RecordedResponse> {
        self.index
            .binary_search_by(|&i| {
                let k = &self.entries[i].0;
                (k.host.as_str(), k.path.as_str()).cmp(&(host, path))
            })
            .ok()
            .map(|pos| &self.entries[self.index[pos]].1)
    }

    /// Rebuild the lookup index over `entries`.
    fn reindex(&mut self) {
        self.index = (0..self.entries.len()).collect();
        let entries = &self.entries;
        self.index.sort_by(|&a, &b| {
            let (ka, kb) = (&entries[a].0, &entries[b].0);
            (ka.host.as_str(), ka.path.as_str()).cmp(&(kb.host.as_str(), kb.path.as_str()))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageBuilder, ResourceSpec};

    fn page() -> Page {
        let mut b = PageBuilder::new("rdb-test", "example.org", 10_000, 1_000);
        let cdn = b.origin("cdn.example.org", 0, true);
        b.resource(ResourceSpec::css(0, 5_000, 100, 0.5));
        b.resource(ResourceSpec::js(cdn, 8_000, 200, 1_000));
        b.build()
    }

    #[test]
    fn record_and_lookup() {
        let db = RecordDb::record(&page());
        assert_eq!(db.len(), 3);
        let root = db.lookup("example.org", "/").unwrap();
        assert_eq!(root.body_len, 10_000);
        assert_eq!(root.content_type, "text/html");
        assert!(db.lookup("example.org", "/missing").is_none());
        assert!(db.lookup("evil.org", "/").is_none());
    }

    #[test]
    fn cdn_resources_match_their_host() {
        let p = page();
        let db = RecordDb::record(&p);
        let js_path = p.resources[2].path.clone();
        assert!(db.lookup("cdn.example.org", &js_path).is_some());
        assert!(db.lookup("example.org", &js_path).is_none());
    }

    #[test]
    fn recorded_pages_validate_clean() {
        // Every resource is recorded once, under its own origin and path.
        let p = page();
        let db = RecordDb::record(&p);
        assert_eq!(db.len(), p.resources.len());
        for r in &p.resources {
            let resp = db.lookup(&p.origins[r.origin].host, &r.path).unwrap();
            assert_eq!((resp.resource, resp.body_len, resp.status), (r.id, r.size, 200));
        }
    }
}
