//! HPACK block encoder and decoder (RFC 7541 §6), plus a memoizing
//! [`BlockCache`] for replay workloads that encode the same header lists
//! from identical encoder states over and over.

use crate::field::{entry_size, HeaderField, HeaderList};
use crate::fx::FxHashMap;
use crate::huffman;
use crate::integer;
use crate::table::{IndexTable, Match};
use crate::Error;
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
/// so the encoder state after a hit is identical to a live encode.
#[derive(Debug, Clone)]
struct CachedBlock {
    block: Box<[u8]>,
    inserts: HeaderList,
}

/// One memoized decode: the decoded header list (shared via `Arc` so a hit
/// allocates nothing) plus the table effects the live decode performed —
/// dynamic-table size updates followed by insertions, replayed in that
/// order on a hit (§4.2 guarantees updates precede fields).
#[derive(Debug, Clone)]
struct CachedDecode {
    headers: Arc<HeaderList>,
    record: DecodeRecord,
}

/// Table effects recorded during a live decode for later replay.
#[derive(Debug, Clone, Default)]
struct DecodeRecord {
    size_updates: Vec<usize>,
    /// Which fields of the decoded list were inserted, in order.
    inserts: Vec<usize>,
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
/// that page. The map is split into `SHARDS` independently-locked
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
    fn headers_hash<H: HeaderField>(headers: &[H]) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a_usize(&mut h, headers.len());
        for hd in headers {
            fnv1a_usize(&mut h, hd.name().len());
            fnv1a(&mut h, hd.name());
            fnv1a_usize(&mut h, hd.value().len());
            fnv1a(&mut h, hd.value());
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
/// use h2push_hpack::{Encoder, Decoder};
///
/// let mut enc = Encoder::new();
/// let mut dec = Decoder::new();
/// let headers = [(":method", "GET"), (":path", "/app.css")];
/// let block = enc.encode(&headers);
/// assert_eq!(dec.decode(&block).unwrap(), headers);
/// // The second occurrence compresses to two indexed bytes.
/// assert!(enc.encode_block(&headers).len() <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    table: IndexTable,
    policy: HuffmanPolicy,
    /// Pending dynamic-table size updates to emit at the start of the next
    /// block (§4.2).
    pending_size_updates: Vec<usize>,
    /// Optional shared block memo; `None` means every block is encoded live.
    cache: Option<BlockCache>,
    /// The block [`Encoder::encode_block`] last produced. Not encoder
    /// state: it survives [`Encoder::reset`] so a recycled encoder writes
    /// into the capacity its last life grew.
    block: Vec<u8>,
}

impl Encoder {
    /// Encoder with the default 4096-octet table.
    pub fn new() -> Self {
        Encoder {
            table: IndexTable::new(),
            policy: HuffmanPolicy::Auto,
            pending_size_updates: Vec::new(),
            cache: None,
            block: Vec::new(),
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

    /// [`Encoder::encode_block`] copied into a `Vec` of its own.
    pub fn encode<H: HeaderField>(&mut self, headers: &[H]) -> Vec<u8> {
        self.encode_block(headers).to_vec()
    }

    /// Encode one header block into the encoder's own buffer and return a
    /// view of it, valid until the next call; a warmed-up encoder allocates
    /// nothing. With a [`BlockCache`] attached, a block already encoded
    /// from a byte-identical encoder state is copied out of the memo
    /// (replaying its recorded table insertions); otherwise the block is
    /// encoded live and memoized.
    pub fn encode_block<H: HeaderField>(&mut self, headers: &[H]) -> &[u8] {
        self.block.clear();
        let Some(cache) = self.cache.clone() else {
            self.encode_live(headers, None);
            return &self.block;
        };
        let key = (self.fingerprint(), BlockCache::headers_hash(headers));
        if let Some(entry) = lock_shard(cache.inner.shard(key)).get(&key) {
            self.block.extend_from_slice(&entry.block);
            for (name, value) in entry.inserts.iter() {
                self.table.insert(name, value);
            }
            // The cached block already carries the size-update prefix
            // the live encode emitted from this same state.
            self.pending_size_updates.clear();
            cache.inner.hits.fetch_add(1, Ordering::Relaxed);
            return &self.block;
        }
        cache.inner.misses.fetch_add(1, Ordering::Relaxed);
        let mut inserts = HeaderList::new();
        self.encode_live(headers, Some(&mut inserts));
        lock_shard(cache.inner.shard(key))
            .insert(key, CachedBlock { block: self.block.as_slice().into(), inserts });
        &self.block
    }

    /// The block [`Encoder::encode_block`] last produced.
    pub fn block(&self) -> &[u8] {
        &self.block
    }

    /// Restore the state of [`Encoder::new`] — empty default-sized table,
    /// no pending size updates, no cache attached — while keeping the
    /// table's and the block buffer's allocations for reuse.
    pub fn reset(&mut self) {
        self.table.reset(4096);
        self.policy = HuffmanPolicy::Auto;
        self.pending_size_updates.clear();
        self.cache = None;
    }

    fn encode_live<H: HeaderField>(&mut self, headers: &[H], mut record: Option<&mut HeaderList>) {
        for size in self.pending_size_updates.drain(..) {
            integer::encode(size as u64, 5, 0x20, &mut self.block);
        }
        for h in headers {
            self.encode_field(h.name(), h.value(), record.as_deref_mut());
        }
    }

    fn encode_field(&mut self, name: &[u8], value: &[u8], record: Option<&mut HeaderList>) {
        let out = &mut self.block;
        match self.table.find(name, value) {
            Match::Full(i) => {
                // Indexed header field (§6.1): '1' + 7-bit index.
                integer::encode(i as u64, 7, 0x80, out);
                return;
            }
            Match::Name(i) => {
                // Literal with incremental indexing, indexed name (§6.2.1).
                integer::encode(i as u64, 6, 0x40, out);
            }
            Match::None => {
                // Literal with incremental indexing, new name.
                out.push(0x40);
                encode_string(self.policy, name, out);
            }
        }
        encode_string(self.policy, value, out);
        self.table.insert(name, value);
        if let Some(rec) = record {
            rec.push(name, value);
        }
    }
}

fn encode_string(policy: HuffmanPolicy, s: &[u8], out: &mut Vec<u8>) {
    // One encoded_len pass serves both the Auto decision and the length
    // prefix; Never skips the scan entirely.
    let hlen = match policy {
        HuffmanPolicy::Never => 0,
        _ => huffman::encoded_len(s),
    };
    let use_huffman = match policy {
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

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Stateful header block decoder.
#[derive(Debug, Clone)]
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
    /// allocations for reuse.
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
    /// its recorded size updates and table insertions), and a block that
    /// misses decodes live into a new list that is memoized. Without a
    /// cache the block decodes live into the list `spare` points at — in
    /// place when the caller holds the only reference (every earlier user
    /// dropped theirs), into a fresh list put in its place when not — so a
    /// caller that keeps handing the same `spare` back decodes without
    /// allocating. Only successful decodes are cached, so error behavior
    /// is exactly [`Decoder::decode_into`]'s.
    pub fn decode_shared(
        &mut self,
        buf: &[u8],
        spare: &mut Arc<HeaderList>,
    ) -> Result<Arc<HeaderList>, Error> {
        let Some(cache) = self.cache.clone() else {
            if Arc::get_mut(spare).is_none() {
                *spare = Arc::default();
            }
            let list = Arc::get_mut(spare).expect("unique: checked or just created");
            self.decode_into(buf, list)?;
            return Ok(Arc::clone(spare));
        };
        let key = (self.fingerprint(), DecodeCache::block_hash(buf));
        if let Some(entry) = lock_shard(cache.inner.shard(key)).get(&key) {
            // Replay the live decode's table effects in live order:
            // §4.2 puts every size update before the first field.
            for &s in &entry.record.size_updates {
                self.table.set_max_size(s)?;
            }
            for &i in &entry.record.inserts {
                let (name, value) = entry.headers.field(i);
                self.table.insert(name, value);
            }
            cache.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&entry.headers));
        }
        cache.inner.misses.fetch_add(1, Ordering::Relaxed);
        let (mut list, mut record) = (HeaderList::new(), DecodeRecord::default());
        self.decode_recording(buf, &mut list, Some(&mut record))?;
        let headers = Arc::new(list);
        lock_shard(cache.inner.shard(key))
            .insert(key, CachedDecode { headers: Arc::clone(&headers), record });
        Ok(headers)
    }

    /// [`Decoder::decode_into`] a list of its own.
    pub fn decode(&mut self, buf: &[u8]) -> Result<HeaderList, Error> {
        let mut list = HeaderList::new();
        self.decode_into(buf, &mut list)?;
        Ok(list)
    }

    /// Decode one complete header block into `list`, replacing what it
    /// held and reusing its allocations: indexed fields are copied out of
    /// the table, literals decode straight into the list, table insertions
    /// copy from the list. On error the list is left empty.
    pub fn decode_into(&mut self, buf: &[u8], list: &mut HeaderList) -> Result<(), Error> {
        self.decode_recording(buf, list, None)
    }

    fn decode_recording(
        &mut self,
        buf: &[u8],
        list: &mut HeaderList,
        record: Option<&mut DecodeRecord>,
    ) -> Result<(), Error> {
        list.clear();
        // A list on its first block gets room for a typical one at once (a
        // handful of mostly indexed fields: far longer decoded than coded)
        // instead of doubling its way there; a reused list already has it.
        list.bytes.reserve((2 * buf.len()).max(128));
        list.ends.reserve(buf.len().min(8));
        let decoded = self.decode_fields(buf, list, record);
        if decoded.is_err() {
            // A literal that failed half-way left bytes no span covers.
            list.clear();
        }
        decoded
    }

    fn decode_fields(
        &mut self,
        buf: &[u8],
        list: &mut HeaderList,
        mut record: Option<&mut DecodeRecord>,
    ) -> Result<(), Error> {
        let mut listed = 0usize;
        let mut pos = 0usize;
        while pos < buf.len() {
            let b = buf[pos];
            if b & 0xe0 == 0x20 {
                // Dynamic table size update — must precede fields (§4.2).
                if !list.is_empty() {
                    return Err(Error::SizeUpdateTooLarge);
                }
                let size = integer::decode(buf, &mut pos, 5)?;
                self.table.set_max_size(size as usize)?;
                if let Some(rec) = record.as_deref_mut() {
                    rec.size_updates.push(size as usize);
                }
                continue;
            }
            if b & 0x80 != 0 {
                // Indexed header field.
                let idx = integer::decode(buf, &mut pos, 7)?;
                let (name, value) = self.table.get(idx as usize)?;
                list.push(name, value);
            } else {
                // Literal: with incremental indexing (01), or without
                // (0000) / never indexed (0001), which decode identically
                // and do not touch the table.
                let indexing = b & 0xc0 == 0x40;
                let idx = integer::decode(buf, &mut pos, if indexing { 6 } else { 4 })?;
                self.read_literal(buf, &mut pos, idx as usize, list)?;
                if indexing {
                    let (name, value) = list.field(list.len() - 1);
                    self.table.insert(name, value);
                    if let Some(rec) = record.as_deref_mut() {
                        rec.inserts.push(list.len() - 1);
                    }
                }
            }
            let (name, value) = list.field(list.len() - 1);
            listed += entry_size(name, value);
            if listed > self.max_header_list_size {
                return Err(Error::HeaderListTooLarge);
            }
        }
        Ok(())
    }

    /// Append the literal field at `pos` to `list`: its name from the table
    /// or the wire, then its value.
    fn read_literal(
        &self,
        buf: &[u8],
        pos: &mut usize,
        name_idx: usize,
        list: &mut HeaderList,
    ) -> Result<(), Error> {
        if name_idx == 0 {
            read_string(buf, pos, &mut list.bytes)?;
        } else {
            list.bytes.extend_from_slice(self.table.get(name_idx)?.0);
        }
        let name_end = list.bytes.len();
        read_string(buf, pos, &mut list.bytes)?;
        list.ends.push((name_end, list.bytes.len()));
        Ok(())
    }
}

/// Append the string literal at `pos` (§5.2) to `out`.
fn read_string(buf: &[u8], pos: &mut usize, out: &mut Vec<u8>) -> Result<(), Error> {
    let huff = *buf.get(*pos).ok_or(Error::Truncated)? & 0x80 != 0;
    let len = integer::decode(buf, pos, 7)? as usize;
    let end = pos.checked_add(len).ok_or(Error::Truncated)?;
    let raw = buf.get(*pos..end).ok_or(Error::Truncated)?;
    *pos = end;
    if huff {
        huffman::decode_into(raw, out)
    } else {
        out.extend_from_slice(raw);
        Ok(())
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
    use crate::Header;
    use proptest::prelude::*;

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
                let b = memo.decode_shared(&wire, &mut Arc::default()).unwrap();
                assert_eq!(a, *b, "cached decode differs from live decode");
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
                d.decode_shared(&wire, &mut Arc::default()).unwrap();
                (d.table().len(), d.table().max_size())
            })
            .collect();
        assert_eq!(states[0], states[1]);
        assert_eq!(states[0].1, 256);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn decode_shared_reuses_the_spare_list_only_when_nobody_else_holds_it() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let mut spare = Arc::new(HeaderList::new());
        let first = dec.decode_shared(enc.encode_block(&[("x-a", "1")]), &mut spare).unwrap();
        assert!(Arc::ptr_eq(&first, &spare), "a unique spare is decoded into in place");
        // Still held: the next block must not be written over it.
        let second = dec.decode_shared(enc.encode_block(&[("x-b", "2")]), &mut spare).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(*first, [("x-a", "1")]);
        assert_eq!(*second, [("x-b", "2")]);
        // Dropped: the same allocation carries the third block.
        let (held, addr) = (Arc::clone(&spare), Arc::as_ptr(&spare));
        drop((second, held));
        let third = dec.decode_shared(enc.encode_block(&[("x-c", "3")]), &mut spare).unwrap();
        assert_eq!(Arc::as_ptr(&third), addr);
        assert_eq!(*third, [("x-c", "3")]);
    }

    #[test]
    fn a_failed_decode_leaves_the_list_empty() {
        let mut list = HeaderList::new();
        list.push(b"stale", b"field");
        // A good field, then a literal whose value is cut short.
        let block = [0x82, 0x40, 0x01, b'n', 0x05, b'v'];
        assert_eq!(Decoder::new().decode_into(&block, &mut list), Err(Error::Truncated));
        assert_eq!(list, HeaderList::new());
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

    fn table_fold(t: &IndexTable) -> u64 {
        let mut h = FNV_OFFSET;
        t.fold_state(&mut h);
        h
    }

    /// Names that repeat (within a block and across blocks) or are
    /// arbitrary octets; values empty, arbitrary, or long enough to be
    /// oversized for the smaller tables.
    fn field() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        let name = prop_oneof![
            Just(b":path".to_vec()),
            Just(b"set-cookie".to_vec()),
            proptest::collection::vec(97u8..100, 1..3),
            proptest::collection::vec(any::<u8>(), 0..24),
        ];
        let value = prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(any::<u8>(), 0..48),
            proptest::collection::vec(32u8..127, 0..300),
        ];
        (name, value)
    }

    // What goes in as borrowed fields comes out of the flat list, and the
    // two tables stay the same table, block after block — across table-size
    // changes signalled mid-connection.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn blocks_round_trip_and_both_tables_stay_in_step(
            policy in prop_oneof![
                Just(HuffmanPolicy::Auto),
                Just(HuffmanPolicy::Never),
                Just(HuffmanPolicy::Always)
            ],
            blocks in proptest::collection::vec(
                (
                    prop_oneof![Just(None), Just(None), (0usize..4097).prop_map(Some)],
                    proptest::collection::vec(field(), 0..10),
                ),
                1..10,
            ),
        ) {
            let mut enc = Encoder::new().with_policy(policy);
            let mut dec = Decoder::new();
            let mut list = HeaderList::new();
            for (resize, fields) in &blocks {
                if let Some(size) = *resize {
                    enc.set_table_size(size);
                    dec.set_capacity_limit(size);
                }
                let fields: Vec<(&[u8], &[u8])> =
                    fields.iter().map(|(n, v)| (&n[..], &v[..])).collect();
                dec.decode_into(enc.encode_block(&fields), &mut list).unwrap();
                prop_assert_eq!(&list, &fields);
                prop_assert_eq!(enc.table().len(), dec.table().len());
                prop_assert_eq!(table_fold(enc.table()), table_fold(dec.table()));
            }
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
