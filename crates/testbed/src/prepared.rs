//! Page-level precomputation: the [`PreparedPage`] artifact.
//!
//! A replay spends a slice of every repetition re-deriving facts that
//! depend only on the page: the browser's parser stop points, its
//! preload-scanner reference index and the index that resolves a push
//! promise to a resource, the URLs a cache digest is asked about, and
//! the HPACK blocks the page's header lists encode to and decode from.
//! A [`PreparedPage`] computes all of it once and shares it — across
//! repetitions, configurations and worker threads — via `Arc` clones.
//! (Header *lists* are not among them: both endpoints format theirs per
//! request as borrowed fields over the page's strings, prepared or not.)
//!
//! **Bit-identity is the contract.** Every prepared component is either
//! a pure function of the page or memoizes keyed on the full producer
//! state (HPACK blocks are keyed by the encoder-state fingerprint and
//! fall back to live encoding on any miss — see
//! `h2push_hpack::BlockCache`). A replay with a `PreparedPage` attached
//! is therefore byte-identical to one without, which
//! `tests/prepared.rs` asserts across strategies, tracing and fault
//! profiles.
//!
//! Amortization (see DESIGN.md §8): per-page work happens here, once;
//! per-config work is an `Arc` clone; the per-rep hot path reads shared
//! immutable data and allocates almost nothing.

use h2push_browser::PreparedScan;
use h2push_hpack::{BlockCache, DecodeCache};
use h2push_server::Prepared as ServerPrepared;
use h2push_webmodel::Page;
use std::sync::Arc;

/// Everything about one page that replays can precompute and share.
#[derive(Debug, Clone)]
pub struct PreparedPage {
    /// Browser-side scan: parser stops, HTML reference index, push
    /// resolution index.
    pub(crate) scan: Arc<PreparedScan>,
    /// Server-side push URLs.
    pub(crate) server: Arc<ServerPrepared>,
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
        PreparedPage {
            scan: Arc::new(PreparedScan::build(page)),
            server: Arc::new(ServerPrepared::build(page)),
            hpack: BlockCache::new(),
            hpack_decode: DecodeCache::new(),
        }
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
