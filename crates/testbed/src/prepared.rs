//! Page-level memos: the [`PreparedPage`] artifact.
//!
//! Every [`ReplayInputs`](crate::ReplayInputs) already carries what
//! derives from the page alone — the browser's page scan and the server's
//! push URLs — built once with the inputs. A [`PreparedPage`] adds the
//! two HPACK memos: the header blocks the page's header lists encode to
//! and decode from, remembered across repetitions, configurations and
//! worker threads and shared via `Arc` clones. Its scan and push URLs are
//! the inputs' own `Arc`s, exposed through accessors.
//!
//! **Bit-identity is the contract.** The memos key on the full producer
//! state (HPACK blocks are keyed by the encoder-state fingerprint and
//! fall back to live encoding on any miss — see
//! `h2push_hpack::BlockCache`). A replay with a `PreparedPage` attached
//! is therefore byte-identical to one without, which
//! `tests/prepared.rs` asserts across strategies, tracing and fault
//! profiles.

use h2push_browser::PreparedScan;
use h2push_hpack::{BlockCache, DecodeCache};
use h2push_server::Prepared as ServerPrepared;
use h2push_webmodel::Page;
use std::sync::Arc;

/// The HPACK memos of one page, next to its shared scan and push URLs.
#[derive(Debug, Clone)]
pub struct PreparedPage {
    /// Browser-side scan: parser stops, HTML reference index, push
    /// resolution index.
    scan: Arc<PreparedScan>,
    /// Server-side push URLs.
    server: Arc<ServerPrepared>,
    /// Memoized HPACK header blocks, shared by the client and every
    /// server connection (keys carry the full encoder-state fingerprint,
    /// so sharing across roles cannot alias).
    pub(crate) hpack: BlockCache,
    /// Memoized HPACK *decode* results, the receive-side twin of `hpack`:
    /// shared by the client and every server connection (keys carry the
    /// decoder-state fingerprint plus the block hash, so sharing across
    /// roles cannot alias). Decoded headers are identical with or without
    /// it — the cache only skips redundant decoding work.
    pub(crate) hpack_decode: DecodeCache,
}

impl PreparedPage {
    /// Precompute everything for `page`. Deterministic: a pure function
    /// of the page (the HPACK cache starts empty and fills as reps run).
    pub fn build(page: &Arc<Page>) -> Self {
        Self::from_parts(Arc::new(PreparedScan::build(page)), Arc::new(ServerPrepared::build(page)))
    }

    /// Empty memos over an already built scan and push URLs of one page.
    pub(crate) fn from_parts(scan: Arc<PreparedScan>, server: Arc<ServerPrepared>) -> Self {
        PreparedPage { scan, server, hpack: BlockCache::new(), hpack_decode: DecodeCache::new() }
    }

    /// Borrow the shared browser scan.
    pub fn scan(&self) -> &Arc<PreparedScan> {
        &self.scan
    }

    /// Borrow the shared server-side push URLs.
    pub fn server(&self) -> &Arc<ServerPrepared> {
        &self.server
    }

    /// The shared HPACK block cache (clone to attach elsewhere).
    pub fn hpack_cache(&self) -> &BlockCache {
        &self.hpack
    }

    /// The shared HPACK decode cache (clone to attach elsewhere).
    pub fn hpack_decode_cache(&self) -> &DecodeCache {
        &self.hpack_decode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn page() -> Arc<Page> {
        let mut b = PageBuilder::new("prep", "prep.test", 30_000, 3_000);
        b.resource(ResourceSpec::css(0, 10_000, 300, 0.4));
        b.resource(ResourceSpec::image(0, 20_000, 8_000, true, 1.0));
        b.text_paint(8_000, 1.0);
        Arc::new(b.build())
    }

    #[test]
    fn build_starts_with_a_cold_block_cache() {
        assert!(PreparedPage::build(&page()).hpack.is_empty());
    }
}
