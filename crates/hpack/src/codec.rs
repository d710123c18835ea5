//! HPACK block encoder and decoder (RFC 7541 §6), plus a memoizing
//! [`BlockCache`] for replay workloads that encode the same header lists
//! from identical encoder states over and over.

use crate::fx::FxHashMap;
use crate::huffman;
use crate::integer;
use crate::table::{Header, IndexTable, Match};
use crate::Error;
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fowler–Noll–Vo 1a, 64-bit: deterministic across runs/platforms (unlike
/// `DefaultHasher`), which the encoder-state fingerprint requires.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

pub(crate) fn fnv1a_usize(hash: &mut u64, v: usize) {
    fnv1a(hash, &(v as u64).to_le_bytes());
}

/// One memoized header block: the encoded bytes plus the dynamic-table
/// insertions the live encoding performed, replayed verbatim on a cache hit
/// so the encoder state after a hit is identical to a live encode. The
/// block is a [`Bytes`] so a hit hands out a reference-counted view — no
/// per-hit copy.
#[derive(Debug, Clone)]
struct CachedBlock {
    block: Bytes,
    inserts: Vec<Header>,
}

/// One memoized decode: the decoded header list (shared via `Arc` so a hit
/// allocates nothing) plus the table effects the live decode performed —
/// dynamic-table size updates followed by insertions, replayed in that
/// order on a hit (§4.2 guarantees updates precede fields).
#[derive(Debug, Clone)]
struct CachedDecode {
    headers: Arc<[Header]>,
    size_updates: Vec<usize>,
    inserts: Vec<Header>,
}

/// Table effects recorded during a live decode for later replay.
#[derive(Debug, Default)]
struct DecodeRecord {
    size_updates: Vec<usize>,
    inserts: Vec<Header>,
}

/// A shared memo of encoded header blocks, keyed by (encoder-state
/// fingerprint, header-list hash).
///
/// The fingerprint covers the full observable encoder state — dynamic-table
/// entries, size limits, pending size updates and Huffman policy — so a hit
/// is only possible when a previous live encode ran from a byte-identical
/// state. When connection histories diverge (different push strategies
/// insert different entries), the fingerprint differs, the lookup misses,
/// and the encoder transparently falls back to live encoding; the result is
/// then memoized for the next repetition. Cache contents therefore affect
/// speed, never bytes.
///
/// Cloning is shallow: clones share one map, which is how a page-level
/// [`BlockCache`] is shared across every connection and repetition touching
/// that page. The map is split into [`SHARDS`] independently-locked
/// shards selected by key hash, so parallel repetitions encoding
/// different blocks never serialize on one mutex; keys are already
/// FNV-mixed fingerprints, making the shard index and the in-shard
/// [`FxHashMap`] lookup both one multiply away.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    inner: Arc<Sharded<CachedBlock>>,
}

/// A shared memo of *decoded* header blocks, keyed by (decoder-state
/// fingerprint, block-bytes hash) — the receive-side twin of
/// [`BlockCache`], with the same transparency contract: a hit is only
/// possible when a previous live decode ran from a byte-identical decoder
/// state on byte-identical input, and the hit replays the live decode's
/// table effects verbatim. Cache contents affect speed, never bytes.
#[derive(Debug, Clone, Default)]
pub struct DecodeCache {
    inner: Arc<Sharded<CachedDecode>>,
}

/// Shard count (power of two). Sized for worker counts up to the teens:
/// with 16 shards and uniform keys, two workers collide on a lock with
/// probability 1/16 per encode.
const SHARDS: usize = 16;

/// The sharded, independently-locked map both caches are built on.
#[derive(Debug)]
struct Sharded<V> {
    shards: [Mutex<FxHashMap<(u64, u64), V>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for Sharded<V> {
    fn default() -> Self {
        Sharded {
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// Lock one cache shard, recovering from poisoning: a panicking replay
/// that a sweep cell caught with `catch_unwind` must not disable the
/// shared cache for every other cell (a shard is never left mid-mutation
/// — each guard scope performs one complete get or insert).
fn lock_shard<V>(
    m: &Mutex<FxHashMap<(u64, u64), V>>,
) -> std::sync::MutexGuard<'_, FxHashMap<(u64, u64), V>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<V> Sharded<V> {
    /// The shard holding `key`. Both key halves are FNV-mixed already;
    /// fold them so the shard index uses different bits than the in-shard
    /// bucket index.
    fn shard(&self, key: (u64, u64)) -> &Mutex<FxHashMap<(u64, u64), V>> {
        let h = key.0 ^ key.1.rotate_left(32);
        &self.shards[((h >> 57) as usize) & (SHARDS - 1)]
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct (state, header-list) blocks memoized.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) since creation — diagnostics for benches/tests.
    pub fn stats(&self) -> (u64, u64) {
        self.inner.stats()
    }

    /// Deterministic hash of a header list (order-sensitive).
    fn headers_hash(headers: &[Header]) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a_usize(&mut h, headers.len());
        for hd in headers {
            fnv1a_usize(&mut h, hd.name.len());
            fnv1a(&mut h, &hd.name);
            fnv1a_usize(&mut h, hd.value.len());
            fnv1a(&mut h, &hd.value);
        }
        h
    }
}

impl DecodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct (state, block-bytes) decodes memoized.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) since creation — diagnostics for benches/tests.
    pub fn stats(&self) -> (u64, u64) {
        self.inner.stats()
    }

    /// Deterministic hash of the wire bytes of one block.
    fn block_hash(block: &[u8]) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a_usize(&mut h, block.len());
        fnv1a(&mut h, block);
        h
    }
}

impl Encoder {
    /// Deterministic fingerprint of everything that can influence the bytes
    /// this encoder emits next: dynamic-table contents and limits, pending
    /// size updates, and the Huffman policy.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &[self.policy as u8]);
        fnv1a_usize(&mut h, self.pending_size_updates.len());
        for &s in &self.pending_size_updates {
            fnv1a_usize(&mut h, s);
        }
        self.table.fold_state(&mut h);
        h
    }

    /// Attach a shared [`BlockCache`]; subsequent [`Encoder::encode`] calls
    /// memoize through it.
    pub fn set_block_cache(&mut self, cache: BlockCache) {
        self.cache = Some(cache);
    }
}

/// When the encoder applies Huffman coding to string literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HuffmanPolicy {
    /// Huffman-encode when strictly shorter (what real encoders do and what
    /// the RFC Appendix C.4/C.6 examples assume).
    #[default]
    Auto,
    /// Never Huffman-encode (Appendix C.2/C.3 examples).
    Never,
    /// Always Huffman-encode.
    Always,
}

/// Stateful header block encoder.
///
/// Strategy: exact matches are emitted as indexed fields; everything else is
/// emitted as "literal with incremental indexing" (indexing the name when
/// possible) so subsequent blocks on the connection compress well — the same
/// policy as the RFC examples and mainstream servers.
///
/// ```
/// use h2push_hpack::{Encoder, Decoder, Header};
///
/// let mut enc = Encoder::new();
/// let mut dec = Decoder::new();
/// let headers = vec![Header::new(":method", "GET"), Header::new(":path", "/app.css")];
/// let block = enc.encode(&headers);
/// assert_eq!(dec.decode(&block).unwrap(), headers);
/// // The second occurrence compresses to two indexed bytes.
/// assert!(enc.encode(&headers).len() <= 2);
/// ```
#[derive(Debug)]
pub struct Encoder {
    table: IndexTable,
    policy: HuffmanPolicy,
    /// Pending dynamic-table size updates to emit at the start of the next
    /// block (§4.2).
    pending_size_updates: Vec<usize>,
    /// Optional shared block memo; `None` means every block is encoded live.
    cache: Option<BlockCache>,
}

impl Encoder {
    /// Encoder with the default 4096-octet table.
    pub fn new() -> Self {
        Encoder {
            table: IndexTable::new(),
            policy: HuffmanPolicy::Auto,
            pending_size_updates: Vec::new(),
            cache: None,
        }
    }

    /// Set the Huffman policy.
    pub fn with_policy(mut self, policy: HuffmanPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Change the dynamic table size; the update is signalled in the next
    /// encoded block.
    pub fn set_table_size(&mut self, size: usize) {
        self.table.set_capacity_limit(size);
        // Cannot fail: the capacity limit was just raised to `size`. Kept
        // panic-free anyway — a failed resize skips the wire announcement
        // rather than poisoning the encoder.
        if self.table.set_max_size(size).is_ok() {
            self.pending_size_updates.push(size);
        }
    }

    /// Dynamic table size (for tests / diagnostics).
    pub fn table(&self) -> &IndexTable {
        &self.table
    }

    /// Encode one header block. With a [`BlockCache`] attached, a block
    /// already encoded from a byte-identical encoder state is returned from
    /// the memo (replaying its recorded table insertions); otherwise the
    /// block is encoded live and memoized.
    pub fn encode(&mut self, headers: &[Header]) -> Vec<u8> {
        self.encode_bytes(headers).to_vec()
    }

    /// [`Encoder::encode`] returning a reference-counted [`Bytes`] view:
    /// a cache hit hands out the memoized buffer without copying it, so
    /// steady-state encoding of a previously-seen block allocates nothing.
    pub fn encode_bytes(&mut self, headers: &[Header]) -> Bytes {
        let Some(cache) = self.cache.clone() else {
            return Bytes::from(self.encode_live(headers, None));
        };
        let key = (self.fingerprint(), BlockCache::headers_hash(headers));
        {
            let map = lock_shard(cache.inner.shard(key));
            if let Some(entry) = map.get(&key) {
                let block = entry.block.clone();
                for h in &entry.inserts {
                    self.table.insert_from(&h.name, &h.value);
                }
                // The cached block already carries the size-update prefix
                // the live encode emitted from this same state.
                self.pending_size_updates.clear();
                cache.inner.hits.fetch_add(1, Ordering::Relaxed);
                return block;
            }
        }
        cache.inner.misses.fetch_add(1, Ordering::Relaxed);
        let mut inserts = Vec::new();
        let block = Bytes::from(self.encode_live(headers, Some(&mut inserts)));
        lock_shard(cache.inner.shard(key))
            .insert(key, CachedBlock { block: block.clone(), inserts });
        block
    }

    /// Restore the state of [`Encoder::new`] — empty default-sized table,
    /// no pending size updates, no cache attached — while keeping the
    /// table's container allocations for reuse.
    pub fn reset(&mut self) {
        self.table.reset(4096);
        self.policy = HuffmanPolicy::Auto;
        self.pending_size_updates.clear();
        self.cache = None;
    }

    fn encode_live(&mut self, headers: &[Header], mut record: Option<&mut Vec<Header>>) -> Vec<u8> {
        let mut out = Vec::new();
        for size in self.pending_size_updates.drain(..) {
            integer::encode(size as u64, 5, 0x20, &mut out);
        }
        for h in headers {
            self.encode_header(h, &mut out, record.as_deref_mut());
        }
        out
    }

    fn encode_header(&mut self, h: &Header, out: &mut Vec<u8>, record: Option<&mut Vec<Header>>) {
        match self.table.find(h) {
            Match::Full(i) => {
                // Indexed header field (§6.1): '1' + 7-bit index.
                integer::encode(i as u64, 7, 0x80, out);
            }
            Match::Name(i) => {
                // Literal with incremental indexing, indexed name (§6.2.1).
                integer::encode(i as u64, 6, 0x40, out);
                self.encode_string(&h.value, out);
                self.table.insert(h.clone());
                if let Some(rec) = record {
                    rec.push(h.clone());
                }
            }
            Match::None => {
                // Literal with incremental indexing, new name.
                out.push(0x40);
                self.encode_string(&h.name, out);
                self.encode_string(&h.value, out);
                self.table.insert(h.clone());
                if let Some(rec) = record {
                    rec.push(h.clone());
                }
            }
        }
    }

    fn encode_string(&self, s: &[u8], out: &mut Vec<u8>) {
        // One encoded_len pass serves both the Auto decision and the length
        // prefix; Never skips the scan entirely.
        let hlen = match self.policy {
            HuffmanPolicy::Never => 0,
            _ => huffman::encoded_len(s),
        };
        let use_huffman = match self.policy {
            HuffmanPolicy::Never => false,
            HuffmanPolicy::Always => true,
            // "No shorter" rather than "strictly shorter": the RFC C.6.2
            // example Huffman-encodes "307" although both forms are 3
            // octets.
            HuffmanPolicy::Auto => !s.is_empty() && hlen <= s.len(),
        };
        if use_huffman {
            integer::encode(hlen as u64, 7, 0x80, out);
            huffman::encode(s, out);
        } else {
            integer::encode(s.len() as u64, 7, 0, out);
            out.extend_from_slice(s);
        }
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Stateful header block decoder.
#[derive(Debug)]
pub struct Decoder {
    table: IndexTable,
    /// Guard against header bombs: maximum decoded size of one block
    /// (sum of name+value+32 per field, like SETTINGS_MAX_HEADER_LIST_SIZE).
    max_header_list_size: usize,
    /// Optional shared decode memo; `None` means every block decodes live.
    cache: Option<DecodeCache>,
}

impl Decoder {
    /// Decoder with the default 4096-octet table.
    pub fn new() -> Self {
        Decoder { table: IndexTable::new(), max_header_list_size: 1 << 20, cache: None }
    }

    /// Raise or lower the protocol ceiling on the peer's table size.
    pub fn set_capacity_limit(&mut self, limit: usize) {
        self.table.set_capacity_limit(limit);
    }

    /// Set the maximum decoded size of one header block (the local
    /// endpoint's SETTINGS_MAX_HEADER_LIST_SIZE, RFC 7540 §6.5.2).
    pub fn set_max_header_list_size(&mut self, limit: usize) {
        self.max_header_list_size = limit;
    }

    /// Attach a shared [`DecodeCache`]; subsequent
    /// [`Decoder::decode_shared`] calls memoize through it.
    pub fn set_decode_cache(&mut self, cache: DecodeCache) {
        self.cache = Some(cache);
    }

    /// Restore the state of [`Decoder::new`] while keeping the table's
    /// container allocations for reuse.
    pub fn reset(&mut self) {
        self.table.reset(4096);
        self.max_header_list_size = 1 << 20;
        self.cache = None;
    }

    /// Deterministic fingerprint of everything that can influence what this
    /// decoder produces next: dynamic-table contents and limits plus the
    /// header-list size bound.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a_usize(&mut h, self.max_header_list_size);
        self.table.fold_state(&mut h);
        h
    }

    /// Dynamic table (for tests / diagnostics).
    pub fn table(&self) -> &IndexTable {
        &self.table
    }

    /// Decode one complete header block into a shared list. With a
    /// [`DecodeCache`] attached, a block already decoded from a
    /// byte-identical decoder state is returned from the memo (replaying
    /// its recorded size updates and table insertions); otherwise the block
    /// decodes live and is memoized. Only successful decodes are cached, so
    /// error behavior is exactly [`Decoder::decode`]'s.
    pub fn decode_shared(&mut self, buf: &[u8]) -> Result<Arc<[Header]>, Error> {
        let Some(cache) = self.cache.clone() else {
            return self.decode_inner(buf, None).map(Arc::from);
        };
        let key = (self.fingerprint(), DecodeCache::block_hash(buf));
        {
            let map = lock_shard(cache.inner.shard(key));
            if let Some(entry) = map.get(&key) {
                let headers = entry.headers.clone();
                // Replay the live decode's table effects in live order:
                // §4.2 puts every size update before the first field.
                for &s in &entry.size_updates {
                    self.table.set_max_size(s)?;
                }
                for h in &entry.inserts {
                    self.table.insert_from(&h.name, &h.value);
                }
                cache.inner.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(headers);
            }
        }
        cache.inner.misses.fetch_add(1, Ordering::Relaxed);
        let mut rec = DecodeRecord::default();
        let headers: Arc<[Header]> = self.decode_inner(buf, Some(&mut rec))?.into();
        lock_shard(cache.inner.shard(key)).insert(
            key,
            CachedDecode {
                headers: headers.clone(),
                size_updates: rec.size_updates,
                inserts: rec.inserts,
            },
        );
        Ok(headers)
    }

    /// Decode one complete header block.
    pub fn decode(&mut self, buf: &[u8]) -> Result<Vec<Header>, Error> {
        self.decode_inner(buf, None)
    }

    fn decode_inner(
        &mut self,
        buf: &[u8],
        mut record: Option<&mut DecodeRecord>,
    ) -> Result<Vec<Header>, Error> {
        let mut headers = Vec::new();
        let mut listed = 0usize;
        let mut seen_field = false;
        let mut pos = 0usize;
        while pos < buf.len() {
            let b = buf[pos];
            if b & 0x80 != 0 {
                // Indexed header field.
                let idx = integer::decode(buf, &mut pos, 7)?;
                let h = self.table.get(idx as usize)?;
                listed += h.table_size();
                headers.push(h);
                seen_field = true;
            } else if b & 0xc0 == 0x40 {
                // Literal with incremental indexing.
                let idx = integer::decode(buf, &mut pos, 6)?;
                let h = self.read_literal(buf, &mut pos, idx as usize)?;
                listed += h.table_size();
                self.table.insert(h.clone());
                if let Some(rec) = record.as_deref_mut() {
                    rec.inserts.push(h.clone());
                }
                headers.push(h);
                seen_field = true;
            } else if b & 0xe0 == 0x20 {
                // Dynamic table size update — must precede fields (§4.2).
                if seen_field {
                    return Err(Error::SizeUpdateTooLarge);
                }
                let size = integer::decode(buf, &mut pos, 5)?;
                self.table.set_max_size(size as usize)?;
                if let Some(rec) = record.as_deref_mut() {
                    rec.size_updates.push(size as usize);
                }
            } else {
                // Literal without indexing (0000) or never indexed (0001):
                // both decode identically and do not touch the table.
                let idx = integer::decode(buf, &mut pos, 4)?;
                let h = self.read_literal(buf, &mut pos, idx as usize)?;
                listed += h.table_size();
                headers.push(h);
                seen_field = true;
            }
            if listed > self.max_header_list_size {
                return Err(Error::HeaderListTooLarge);
            }
        }
        Ok(headers)
    }

    fn read_literal(&self, buf: &[u8], pos: &mut usize, name_idx: usize) -> Result<Header, Error> {
        let name = if name_idx == 0 {
            self.read_string(buf, pos)?
        } else {
            self.table.get(name_idx)?.name
        };
        let value = self.read_string(buf, pos)?;
        Ok(Header { name, value })
    }

    fn read_string(&self, buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, Error> {
        let huff = *buf.get(*pos).ok_or(Error::Truncated)? & 0x80 != 0;
        let len = integer::decode(buf, pos, 7)? as usize;
        let end = pos.checked_add(len).ok_or(Error::Truncated)?;
        let raw = buf.get(*pos..end).ok_or(Error::Truncated)?;
        *pos = end;
        if huff {
            huffman::decode(raw)
        } else {
            Ok(raw.to_vec())
        }
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: &str, v: &str) -> Header {
        Header::new(n, v)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // ----- RFC 7541 Appendix C.2 / C.3 (no Huffman) -----

    #[test]
    fn c_2_1_literal_with_indexing() {
        let mut e = Encoder::new().with_policy(HuffmanPolicy::Never);
        let out = e.encode(&[h("custom-key", "custom-header")]);
        assert_eq!(hex(&out), "400a637573746f6d2d6b65790d637573746f6d2d686561646572");
        assert_eq!(e.table().size(), 55);
        let mut d = Decoder::new();
        assert_eq!(d.decode(&out).unwrap(), vec![h("custom-key", "custom-header")]);
        assert_eq!(d.table().size(), 55);
    }

    #[test]
    fn c_3_request_sequence_without_huffman() {
        let mut e = Encoder::new().with_policy(HuffmanPolicy::Never);
        let mut d = Decoder::new();

        // C.3.1 first request.
        let req1 = [
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
        ];
        let out = e.encode(&req1);
        assert_eq!(hex(&out), "828684410f7777772e6578616d706c652e636f6d");
        assert_eq!(d.decode(&out).unwrap(), req1);
        assert_eq!(d.table().len(), 1);
        assert_eq!(d.table().size(), 57);

        // C.3.2 second request: :authority now in the dynamic table.
        let req2 = [
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
            h("cache-control", "no-cache"),
        ];
        let out = e.encode(&req2);
        assert_eq!(hex(&out), "828684be58086e6f2d6361636865");
        assert_eq!(d.decode(&out).unwrap(), req2);
        assert_eq!(d.table().len(), 2);

        // C.3.3 third request.
        let req3 = [
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":path", "/index.html"),
            h(":authority", "www.example.com"),
            h("custom-key", "custom-value"),
        ];
        let out = e.encode(&req3);
        assert_eq!(hex(&out), "828785bf400a637573746f6d2d6b65790c637573746f6d2d76616c7565");
        assert_eq!(d.decode(&out).unwrap(), req3);
        assert_eq!(d.table().len(), 3);
        assert_eq!(d.table().size(), 164);
    }

    // ----- RFC 7541 Appendix C.4 (with Huffman) -----

    #[test]
    fn c_4_request_sequence_with_huffman() {
        let mut e = Encoder::new(); // Auto policy
        let mut d = Decoder::new();

        let req1 = [
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
        ];
        let out = e.encode(&req1);
        assert_eq!(hex(&out), "828684418cf1e3c2e5f23a6ba0ab90f4ff");
        assert_eq!(d.decode(&out).unwrap(), req1);

        let req2 = [
            h(":method", "GET"),
            h(":scheme", "http"),
            h(":path", "/"),
            h(":authority", "www.example.com"),
            h("cache-control", "no-cache"),
        ];
        let out = e.encode(&req2);
        assert_eq!(hex(&out), "828684be5886a8eb10649cbf");
        assert_eq!(d.decode(&out).unwrap(), req2);

        let req3 = [
            h(":method", "GET"),
            h(":scheme", "https"),
            h(":path", "/index.html"),
            h(":authority", "www.example.com"),
            h("custom-key", "custom-value"),
        ];
        let out = e.encode(&req3);
        assert_eq!(hex(&out), "828785bf408825a849e95ba97d7f8925a849e95bb8e8b4bf");
        assert_eq!(d.decode(&out).unwrap(), req3);
        assert_eq!(d.table().size(), 164);
    }

    // ----- RFC 7541 Appendix C.6 (responses, Huffman, 256-octet table) -----

    #[test]
    fn c_6_response_sequence_with_eviction() {
        let mut e = Encoder::new();
        e.set_table_size(256);
        let mut d = Decoder::new();
        d.set_capacity_limit(256);

        let resp1 = [
            h(":status", "302"),
            h("cache-control", "private"),
            h("date", "Mon, 21 Oct 2013 20:13:21 GMT"),
            h("location", "https://www.example.com"),
        ];
        let out = e.encode(&resp1);
        assert_eq!(
            hex(&out),
            // 0x3f 0xe1 0x01 = size update to 256 (31 + 225 with one
            // continuation octet), then exactly the C.6.1 block.
            "3fe101488264025885aec3771a4b6196d07abe941054d444a8200595040b8166e082a62d1bff6e919d29ad171863c78f0b97c8e9ae82ae43d3"
        );
        assert_eq!(d.decode(&out).unwrap(), resp1);
        assert_eq!(d.table().len(), 4);
        assert_eq!(d.table().size(), 222);

        // C.6.2: ":status: 307" evicts ":status: 302".
        let resp2 = [
            h(":status", "307"),
            h("cache-control", "private"),
            h("date", "Mon, 21 Oct 2013 20:13:21 GMT"),
            h("location", "https://www.example.com"),
        ];
        let out = e.encode(&resp2);
        assert_eq!(hex(&out), "4883640effc1c0bf");
        assert_eq!(d.decode(&out).unwrap(), resp2);
        assert_eq!(d.table().len(), 4);
        assert_eq!(d.table().size(), 222);

        // C.6.3.
        let resp3 = [
            h(":status", "200"),
            h("cache-control", "private"),
            h("date", "Mon, 21 Oct 2013 20:13:22 GMT"),
            h("location", "https://www.example.com"),
            h("content-encoding", "gzip"),
            h("set-cookie", "foo=ASDJKHQKBZXOQWEOPIUAXQWEOIU; max-age=3600; version=1"),
        ];
        let out = e.encode(&resp3);
        assert_eq!(
            hex(&out),
            "88c16196d07abe941054d444a8200595040b8166e084a62d1bffc05a839bd9ab77ad94e7821dd7f2e6c7b335dfdfcd5b3960d5af27087f3672c1ab270fb5291f9587316065c003ed4ee5b1063d5007"
        );
        assert_eq!(d.decode(&out).unwrap(), resp3);
        assert_eq!(d.table().len(), 3);
        assert_eq!(d.table().size(), 215);
    }

    #[test]
    fn size_update_after_field_rejected() {
        let mut d = Decoder::new();
        // 0x82 (:method GET) followed by a size update 0x20.
        assert!(d.decode(&[0x82, 0x20]).is_err());
    }

    #[test]
    fn invalid_index_rejected() {
        let mut d = Decoder::new();
        // Indexed field 70 with empty dynamic table.
        let mut buf = Vec::new();
        integer::encode(70, 7, 0x80, &mut buf);
        assert_eq!(d.decode(&buf), Err(Error::InvalidIndex));
        // Index 0 is never valid.
        assert_eq!(d.decode(&[0x80]), Err(Error::InvalidIndex));
    }

    #[test]
    fn never_indexed_literal_decodes_and_skips_table() {
        // 0001xxxx: never-indexed literal, new name "a" value "b".
        let buf = [0x10, 0x01, b'a', 0x01, b'b'];
        let mut d = Decoder::new();
        assert_eq!(d.decode(&buf).unwrap(), vec![h("a", "b")]);
        assert_eq!(d.table().len(), 0);
    }

    #[test]
    fn truncated_literal_rejected() {
        let mut d = Decoder::new();
        // Literal with indexing, new name, claims a 10-byte name but ends.
        assert_eq!(d.decode(&[0x40, 0x0a, b'x']), Err(Error::Truncated));
    }

    /// Drive two encoders through the same block sequence, one memoized and
    /// one live, asserting byte-identical output and identical end state.
    fn assert_cache_transparent(blocks: &[Vec<Header>]) {
        let cache = BlockCache::new();
        // Two passes so the second pass hits the memo populated by the first.
        for _ in 0..2 {
            let mut live = Encoder::new();
            let mut memo = Encoder::new();
            memo.set_block_cache(cache.clone());
            let mut dec = Decoder::new();
            for hs in blocks {
                let a = live.encode(hs);
                let b = memo.encode(hs);
                assert_eq!(a, b, "cached block differs from live encode");
                assert_eq!(live.fingerprint(), memo.fingerprint());
                assert_eq!(dec.decode(&b).unwrap(), *hs);
            }
        }
    }

    #[test]
    fn block_cache_is_bytes_transparent() {
        let blocks = vec![
            vec![h(":method", "GET"), h(":path", "/"), h(":authority", "a.test")],
            vec![h(":method", "GET"), h(":path", "/app.css"), h(":authority", "a.test")],
            vec![h(":status", "200"), h("content-type", "text/css"), h("content-length", "1234")],
            vec![h(":method", "GET"), h(":path", "/app.css"), h(":authority", "a.test")],
        ];
        assert_cache_transparent(&blocks);
    }

    #[test]
    fn block_cache_hits_on_repeated_state() {
        let cache = BlockCache::new();
        let hs = vec![h(":method", "GET"), h(":path", "/x"), h(":authority", "h.test")];
        let first = {
            let mut e = Encoder::new();
            e.set_block_cache(cache.clone());
            e.encode(&hs)
        };
        let second = {
            let mut e = Encoder::new();
            e.set_block_cache(cache.clone());
            e.encode(&hs)
        };
        assert_eq!(first, second);
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn block_cache_falls_back_on_divergent_state() {
        let cache = BlockCache::new();
        let hs = vec![h("x-a", "1")];
        let mut warm = Encoder::new();
        warm.set_block_cache(cache.clone());
        warm.encode(&hs);

        // An encoder whose dynamic table diverged must not see the memo.
        let mut diverged = Encoder::new();
        diverged.set_block_cache(cache.clone());
        diverged.encode(&[h("x-other", "z")]); // different table now
        let out = diverged.encode(&hs);
        let mut reference = Encoder::new();
        reference.encode(&[h("x-other", "z")]);
        assert_eq!(out, reference.encode(&hs));
        let (_, misses) = cache.stats();
        assert_eq!(misses, 3);
    }

    #[test]
    fn block_cache_covers_size_updates() {
        // A pending size update is part of the fingerprint and of the
        // cached bytes (C.6-style prefix).
        let cache = BlockCache::new();
        let hs = vec![h(":status", "302"), h("cache-control", "private")];
        let encode_with_resize = || {
            let mut e = Encoder::new();
            e.set_block_cache(cache.clone());
            e.set_table_size(256);
            e.encode(&hs)
        };
        let a = encode_with_resize();
        let b = encode_with_resize();
        assert_eq!(a, b);
        assert!(a[0] & 0xe0 == 0x20, "block starts with a size update");
        let (hits, _) = cache.stats();
        assert_eq!(hits, 1);
    }

    /// Drive two decoders through the same block sequence, one memoized and
    /// one live, asserting identical decoded lists and identical end state.
    fn assert_decode_cache_transparent(blocks: &[Vec<Header>]) {
        let cache = DecodeCache::new();
        // Two passes so the second pass hits the memo populated by the first.
        for _ in 0..2 {
            let mut enc_a = Encoder::new();
            let mut enc_b = Encoder::new();
            let mut live = Decoder::new();
            let mut memo = Decoder::new();
            memo.set_decode_cache(cache.clone());
            for hs in blocks {
                let wire = enc_a.encode(hs);
                assert_eq!(wire, enc_b.encode(hs));
                let a = live.decode(&wire).unwrap();
                let b = memo.decode_shared(&wire).unwrap();
                assert_eq!(a.as_slice(), &b[..], "cached decode differs from live decode");
                assert_eq!(live.fingerprint(), memo.fingerprint());
            }
        }
        assert!(cache.stats().0 > 0, "second pass must hit the memo");
    }

    #[test]
    fn decode_cache_is_bytes_transparent() {
        let blocks = vec![
            vec![h(":method", "GET"), h(":path", "/"), h(":authority", "a.test")],
            vec![h(":method", "GET"), h(":path", "/app.css"), h(":authority", "a.test")],
            vec![h(":status", "200"), h("content-type", "text/css"), h("content-length", "1234")],
            vec![h(":method", "GET"), h(":path", "/app.css"), h(":authority", "a.test")],
        ];
        assert_decode_cache_transparent(&blocks);
    }

    #[test]
    fn decode_cache_covers_size_updates() {
        // A block with a size-update prefix replays the update on a hit.
        let mut enc = Encoder::new();
        enc.set_table_size(256);
        let wire = enc.encode(&[h(":status", "302"), h("cache-control", "private")]);
        assert!(wire[0] & 0xe0 == 0x20, "block starts with a size update");
        let cache = DecodeCache::new();
        let states: Vec<(usize, usize)> = (0..2)
            .map(|_| {
                let mut d = Decoder::new();
                d.set_decode_cache(cache.clone());
                d.decode_shared(&wire).unwrap();
                (d.table().len(), d.table().max_size())
            })
            .collect();
        assert_eq!(states[0], states[1]);
        assert_eq!(states[0].1, 256);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn codec_reset_restores_fresh_state() {
        let blocks = vec![
            vec![h(":method", "GET"), h(":path", "/x"), h(":authority", "r.test")],
            vec![h("x-custom", "one"), h("x-custom", "two")],
        ];
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let first: Vec<Vec<u8>> = blocks.iter().map(|b| enc.encode(b)).collect();
        for w in &first {
            dec.decode(w).unwrap();
        }
        enc.reset();
        dec.reset();
        assert_eq!(enc.fingerprint(), Encoder::new().fingerprint());
        assert_eq!(dec.fingerprint(), Decoder::new().fingerprint());
        let second: Vec<Vec<u8>> = blocks.iter().map(|b| enc.encode(b)).collect();
        assert_eq!(first, second, "reset encoder must re-produce identical bytes");
        for (w, b) in second.iter().zip(&blocks) {
            assert_eq!(dec.decode(w).unwrap(), *b);
        }
    }

    #[test]
    fn encoder_decoder_state_stays_synchronized() {
        let mut e = Encoder::new();
        let mut d = Decoder::new();
        for i in 0..50 {
            let hs = vec![
                h(":method", "GET"),
                h(":path", &format!("/resource/{i}")),
                h("x-trace", &format!("run-{}", i % 7)),
            ];
            let block = e.encode(&hs);
            assert_eq!(d.decode(&block).unwrap(), hs);
        }
        assert_eq!(e.table().size(), d.table().size());
        assert_eq!(e.table().len(), d.table().len());
    }
}
