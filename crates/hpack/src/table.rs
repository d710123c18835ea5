//! HPACK indexing tables (RFC 7541 §2.3, Appendix A).

use std::collections::VecDeque;

/// A header field: name and value as byte strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Header {
    /// Field name (lowercase for HTTP/2).
    pub name: Vec<u8>,
    /// Field value.
    pub value: Vec<u8>,
}

impl Header {
    /// Convenience constructor from string slices.
    pub fn new(name: &str, value: &str) -> Self {
        Header { name: name.as_bytes().to_vec(), value: value.as_bytes().to_vec() }
    }

    /// The size of an entry per §4.1: name length + value length + 32.
    pub fn table_size(&self) -> usize {
        self.name.len() + self.value.len() + 32
    }
}

/// The 61-entry static table of Appendix A, 1-indexed.
pub const STATIC_TABLE: [(&str, &str); 61] = [
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

/// Result of searching the combined index space for a header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Match {
    /// Exact name+value match at this index.
    Full(usize),
    /// Name-only match at this index.
    Name(usize),
    /// No match.
    None,
}

/// The dynamic table plus the combined (static ∥ dynamic) index space.
///
/// Indices are 1-based; 1..=61 address the static table, 62.. address the
/// dynamic table newest-first (§2.3.3).
#[derive(Debug, Clone)]
pub struct IndexTable {
    entries: VecDeque<Header>,
    size: usize,
    max_size: usize,
    /// The protocol ceiling for `max_size` (SETTINGS_HEADER_TABLE_SIZE on
    /// the decoder side).
    capacity_limit: usize,
    /// Retired entries whose name/value buffers are reused by
    /// [`IndexTable::insert_from`]. Invisible to every observable table
    /// operation (lookups, folds, eviction accounting).
    free: Vec<Header>,
    /// Running fingerprint of `entries`, contents and order; see
    /// [`Rolling`].
    rolling: Rolling,
}

/// A polynomial hash over the dynamic entries' own hashes, kept current in
/// O(1) per insertion and eviction instead of re-hashing the whole table
/// per fingerprint. With entries oldest to newest `s_0 … s_{n-1}`,
///
/// `sum = Σ h(s_j) · B^(n-1-j)  (mod 2^64)`,  `top = B^n`:
///
/// inserting multiplies `sum` by `B` and adds the new entry's hash;
/// evicting the oldest subtracts `h(s_0) · B^(n-1)`. `B` is odd, hence
/// invertible mod 2^64, so `top` steps down exactly as it steps up and the
/// pair is a function of the current entries and their order alone —
/// however the table got there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rolling {
    sum: u64,
    top: u64,
}

/// The polynomial's base (odd; the 64-bit golden-ratio constant).
const ROLL_BASE: u64 = 0x9e37_79b9_7f4a_7c15;
/// `ROLL_BASE`'s inverse mod 2^64, by Newton's iteration: each step
/// doubles the number of correct low bits, and an odd number is its own
/// inverse mod 8.
const ROLL_BASE_INV: u64 = {
    let mut inv = ROLL_BASE;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(ROLL_BASE.wrapping_mul(inv)));
        i += 1;
    }
    inv
};
const _: () = assert!(ROLL_BASE.wrapping_mul(ROLL_BASE_INV) == 1);

impl Rolling {
    const EMPTY: Rolling = Rolling { sum: 0, top: 1 };

    fn push_newest(&mut self, entry: u64) {
        self.sum = self.sum.wrapping_mul(ROLL_BASE).wrapping_add(entry);
        self.top = self.top.wrapping_mul(ROLL_BASE);
    }

    fn pop_oldest(&mut self, entry: u64) {
        self.top = self.top.wrapping_mul(ROLL_BASE_INV);
        self.sum = self.sum.wrapping_sub(entry.wrapping_mul(self.top));
    }
}

/// One entry's contribution to the table fingerprint: FNV-1a over the
/// length-prefixed name and value, then a finalizer so that every input
/// bit reaches every bit the polynomial multiplies.
fn entry_hash(h: &Header) -> u64 {
    use crate::codec::{fnv1a, fnv1a_usize, FNV_OFFSET};
    let mut x = FNV_OFFSET;
    fnv1a_usize(&mut x, h.name.len());
    fnv1a(&mut x, &h.name);
    fnv1a_usize(&mut x, h.value.len());
    fnv1a(&mut x, &h.value);
    // splitmix64's finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Retired entries kept for reuse; beyond this they are simply dropped.
const FREE_LIST_CAP: usize = 64;

impl IndexTable {
    /// Create a table with the HTTP/2 default size of 4096 octets.
    pub fn new() -> Self {
        Self::with_limit(4096)
    }

    /// Create a table whose size and ceiling are both `limit`.
    pub fn with_limit(limit: usize) -> Self {
        IndexTable {
            entries: VecDeque::new(),
            size: 0,
            max_size: limit,
            capacity_limit: limit,
            free: Vec::new(),
            rolling: Rolling::EMPTY,
        }
    }

    /// Restore the state of [`IndexTable::with_limit`]`(limit)` while
    /// keeping every container allocation (entry ring, freelist, retired
    /// name/value buffers) for the next use.
    pub fn reset(&mut self, limit: usize) {
        while let Some(h) = self.entries.pop_back() {
            self.park(h);
        }
        self.rolling = Rolling::EMPTY;
        self.size = 0;
        self.max_size = limit;
        self.capacity_limit = limit;
    }

    fn park(&mut self, h: Header) {
        if self.free.len() < FREE_LIST_CAP {
            self.free.push(h);
        }
    }

    /// Current dynamic table size in octets (§4.1 accounting).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current maximum size.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Number of dynamic entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the dynamic table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Change the maximum size (a "dynamic table size update"), evicting as
    /// needed. Fails if above the protocol ceiling.
    pub fn set_max_size(&mut self, new_max: usize) -> Result<(), crate::Error> {
        if new_max > self.capacity_limit {
            return Err(crate::Error::SizeUpdateTooLarge);
        }
        self.max_size = new_max;
        self.evict();
        Ok(())
    }

    /// Raise or lower the protocol ceiling (SETTINGS change).
    pub fn set_capacity_limit(&mut self, limit: usize) {
        self.capacity_limit = limit;
        if self.max_size > limit {
            self.max_size = limit;
            self.evict();
        }
    }

    /// Insert a header at the front of the dynamic table (§4.4). An entry
    /// larger than the whole table empties it.
    pub fn insert(&mut self, header: Header) {
        let esize = header.table_size();
        self.size += esize;
        self.rolling.push_newest(entry_hash(&header));
        self.entries.push_front(header);
        self.evict();
    }

    /// [`IndexTable::insert`] from borrowed name/value bytes, reusing a
    /// retired entry's buffers when one is available. Identical observable
    /// behavior; zero allocations in steady state.
    pub fn insert_from(&mut self, name: &[u8], value: &[u8]) {
        match self.free.pop() {
            Some(mut h) => {
                h.name.clear();
                h.name.extend_from_slice(name);
                h.value.clear();
                h.value.extend_from_slice(value);
                self.insert(h);
            }
            None => self.insert(Header { name: name.to_vec(), value: value.to_vec() }),
        }
    }

    fn evict(&mut self) {
        while self.size > self.max_size {
            match self.entries.pop_back() {
                Some(h) => {
                    self.size -= h.table_size();
                    self.rolling.pop_oldest(entry_hash(&h));
                    self.park(h);
                }
                None => {
                    // Inserting an oversized entry leaves an empty table.
                    self.size = 0;
                    break;
                }
            }
        }
    }

    /// Resolve a 1-based index in the combined space.
    pub fn get(&self, index: usize) -> Result<Header, crate::Error> {
        if index == 0 {
            return Err(crate::Error::InvalidIndex);
        }
        if index <= STATIC_TABLE.len() {
            let (n, v) = STATIC_TABLE[index - 1];
            return Ok(Header::new(n, v));
        }
        self.entries.get(index - STATIC_TABLE.len() - 1).cloned().ok_or(crate::Error::InvalidIndex)
    }

    /// Fold the complete observable table state — limits plus every dynamic
    /// entry in index order — into `hash` (FNV-1a), in O(1): the entries
    /// come in through the running [`Rolling`] fingerprint. Two tables with
    /// equal folds behave identically for all future operations, which is
    /// what the encoder-state fingerprint of [`crate::BlockCache`] relies
    /// on.
    pub(crate) fn fold_state(&self, hash: &mut u64) {
        use crate::codec::{fnv1a, fnv1a_usize};
        fnv1a_usize(hash, self.max_size);
        fnv1a_usize(hash, self.capacity_limit);
        fnv1a_usize(hash, self.entries.len());
        fnv1a(hash, &self.rolling.sum.to_le_bytes());
    }

    /// Find the best index for `header`: an exact match if one exists,
    /// otherwise a name match. Static entries win ties (smaller indices
    /// compress better).
    pub fn find(&self, header: &Header) -> Match {
        let mut name_match: Option<usize> = None;
        for (i, (n, v)) in STATIC_TABLE.iter().enumerate() {
            if n.as_bytes() == header.name.as_slice() {
                if v.as_bytes() == header.value.as_slice() {
                    return Match::Full(i + 1);
                }
                name_match.get_or_insert(i + 1);
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.name == header.name {
                let idx = STATIC_TABLE.len() + i + 1;
                if e.value == header.value {
                    return Match::Full(idx);
                }
                name_match.get_or_insert(idx);
            }
        }
        match name_match {
            Some(i) => Match::Name(i),
            None => Match::None,
        }
    }
}

impl Default for IndexTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_table_sanity() {
        assert_eq!(STATIC_TABLE.len(), 61);
        assert_eq!(STATIC_TABLE[0].0, ":authority");
        assert_eq!(STATIC_TABLE[1], (":method", "GET"));
        assert_eq!(STATIC_TABLE[60].0, "www-authenticate");
    }

    #[test]
    fn get_static_and_dynamic() {
        let mut t = IndexTable::new();
        assert_eq!(t.get(2).unwrap(), Header::new(":method", "GET"));
        t.insert(Header::new("x-a", "1"));
        t.insert(Header::new("x-b", "2"));
        // Newest entry is index 62.
        assert_eq!(t.get(62).unwrap(), Header::new("x-b", "2"));
        assert_eq!(t.get(63).unwrap(), Header::new("x-a", "1"));
        assert!(t.get(64).is_err());
        assert!(t.get(0).is_err());
    }

    #[test]
    fn entry_size_accounting() {
        // §4.1: size = len(name) + len(value) + 32.
        let h = Header::new("custom-key", "custom-header");
        assert_eq!(h.table_size(), 10 + 13 + 32);
        let mut t = IndexTable::new();
        t.insert(h);
        assert_eq!(t.size(), 55);
    }

    #[test]
    fn eviction_on_overflow() {
        let mut t = IndexTable::with_limit(100);
        t.insert(Header::new("aaaa", "bbbb")); // 40
        t.insert(Header::new("cccc", "dddd")); // 40
        assert_eq!(t.len(), 2);
        t.insert(Header::new("eeee", "ffff")); // 40 → evicts oldest
        assert_eq!(t.len(), 2);
        assert_eq!(t.size(), 80);
        assert_eq!(t.get(62).unwrap(), Header::new("eeee", "ffff"));
        assert_eq!(t.get(63).unwrap(), Header::new("cccc", "dddd"));
    }

    #[test]
    fn oversized_entry_empties_table() {
        let mut t = IndexTable::with_limit(50);
        t.insert(Header::new("a", "b"));
        assert_eq!(t.len(), 1);
        t.insert(Header::new("name", &"v".repeat(100)));
        assert_eq!(t.len(), 0);
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn size_update_evicts() {
        let mut t = IndexTable::with_limit(4096);
        for i in 0..10 {
            t.insert(Header::new(&format!("h{i}"), "v"));
        }
        t.set_max_size(70).unwrap();
        assert!(t.size() <= 70);
        assert_eq!(t.len(), 2);
        assert!(t.set_max_size(5000).is_err());
    }

    #[test]
    fn find_prefers_full_match() {
        let mut t = IndexTable::new();
        assert_eq!(t.find(&Header::new(":method", "GET")), Match::Full(2));
        assert_eq!(t.find(&Header::new(":method", "PATCH")), Match::Name(2));
        assert_eq!(t.find(&Header::new("x-new", "v")), Match::None);
        t.insert(Header::new("x-new", "v"));
        assert_eq!(t.find(&Header::new("x-new", "v")), Match::Full(62));
        // Static name match beats dynamic full match? No — full match wins.
        t.insert(Header::new(":method", "PATCH"));
        assert_eq!(t.find(&Header::new(":method", "PATCH")), Match::Full(62));
    }

    fn fold(t: &IndexTable) -> u64 {
        let mut h = crate::codec::FNV_OFFSET;
        t.fold_state(&mut h);
        h
    }

    /// The running fingerprint rebuilt from the entries as they stand.
    fn rolling_from_scratch(t: &IndexTable) -> Rolling {
        let mut r = Rolling::EMPTY;
        for e in t.entries.iter().rev() {
            r.push_newest(entry_hash(e));
        }
        r
    }

    #[test]
    fn equal_tables_reached_by_different_histories_fingerprint_equal() {
        let h = |i: usize| Header::new(&format!("x-header-{i}"), &"v".repeat(i % 7 + 1));
        // The target: the last three of five insertions, limits 4096/4096.
        let mut direct = IndexTable::new();
        for i in 2..5 {
            direct.insert(h(i));
        }
        // Inserted after two entries a shrink-and-restore evicted.
        let mut resized = IndexTable::new();
        resized.insert(h(0));
        resized.insert(h(1));
        resized.set_max_size(0).unwrap();
        resized.set_max_size(4096).unwrap();
        for i in 2..5 {
            resized.insert(h(i));
        }
        // Overflowed: a table that only ever holds three such entries.
        let mut evicted = IndexTable::with_limit(3 * h(2).table_size() + 10);
        for i in 0..5 {
            evicted.insert(h(i));
        }
        assert_eq!(evicted.len(), 3);
        evicted.capacity_limit = 4096;
        evicted.max_size = 4096;
        // Recycled from an unrelated life, one oversized entry included.
        let mut recycled = IndexTable::with_limit(64);
        recycled.insert(h(9));
        recycled.insert(Header::new("huge", &"z".repeat(100)));
        recycled.reset(4096);
        for i in 2..5 {
            recycled.insert_from(&h(i).name, &h(i).value);
        }
        for other in [&resized, &evicted, &recycled] {
            assert_eq!(other.entries, direct.entries);
            assert_eq!(fold(other), fold(&direct));
        }
        // Contents, order and each limit all count.
        let mut reordered = IndexTable::new();
        for i in [3, 2, 4] {
            reordered.insert(h(i));
        }
        assert_ne!(fold(&reordered), fold(&direct));
        let mut shorter = direct.clone();
        shorter.set_max_size(2 * h(2).table_size() + 40).unwrap();
        assert_eq!(shorter.len(), 2);
        assert_ne!(fold(&shorter), fold(&direct));
        let mut limited = direct.clone();
        limited.set_max_size(4000).unwrap();
        assert_eq!(limited.entries, direct.entries);
        assert_ne!(fold(&limited), fold(&direct));
        let mut capped = direct.clone();
        capped.set_capacity_limit(8192);
        assert_ne!(fold(&capped), fold(&direct));
    }

    #[test]
    fn running_fingerprint_tracks_the_entries_through_any_history() {
        // A seeded walk over every mutation, sized so the table overflows,
        // empties and refills many times.
        let mut seed = 0x5eed_u64;
        let mut next = move |n: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        let mut t = IndexTable::with_limit(600);
        for step in 0..5_000 {
            match next(20) {
                0 => t.set_max_size(next(t.capacity_limit as u64 + 1) as usize).unwrap(),
                1 => t.set_capacity_limit(300 + next(600) as usize),
                2 => t.reset(600),
                3 => t.insert(Header::new("oversized", &"x".repeat(700))),
                _ => {
                    let name = format!("n{}", next(40));
                    t.insert_from(name.as_bytes(), "v".repeat(next(60) as usize).as_bytes());
                }
            }
            assert_eq!(t.rolling, rolling_from_scratch(&t), "step {step}");
        }
    }

    #[test]
    fn capacity_limit_shrinks_max() {
        let mut t = IndexTable::with_limit(4096);
        for i in 0..20 {
            t.insert(Header::new(&format!("header-{i}"), "value"));
        }
        t.set_capacity_limit(100);
        assert!(t.size() <= 100);
        assert_eq!(t.max_size(), 100);
    }
}
