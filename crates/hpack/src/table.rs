//! HPACK indexing tables (RFC 7541 §2.3, Appendix A).

use crate::field::entry_size;
use std::collections::VecDeque;

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
///
/// The dynamic entries live in one byte arena, name then value, oldest
/// first: inserting appends at the tail, evicting advances `head` past the
/// oldest entry, and the dead prefix is squeezed out once it outweighs the
/// live bytes — so an insertion copies the field once and a steady-state
/// table allocates nothing. The arena grows with what is inserted and is
/// cleared, not freed, by [`IndexTable::reset`].
#[derive(Debug, Clone)]
pub struct IndexTable {
    arena: Vec<u8>,
    /// Octets at the front of `arena` that belonged to evicted entries.
    head: usize,
    /// The live entries, oldest first.
    spans: VecDeque<Span>,
    size: usize,
    max_size: usize,
    /// The protocol ceiling for `max_size` (SETTINGS_HEADER_TABLE_SIZE on
    /// the decoder side).
    capacity_limit: usize,
    /// Running fingerprint of the entries, contents and order; see
    /// [`Rolling`].
    rolling: Rolling,
}

/// Where one dynamic entry lies in the arena: its name starts at `start`,
/// its value follows the name.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    name_len: usize,
    value_len: usize,
    /// The entry's [`entry_hash`], kept so eviction need not re-read it.
    hash: u64,
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
fn entry_hash(name: &[u8], value: &[u8]) -> u64 {
    use crate::codec::{fnv1a, fnv1a_usize, FNV_OFFSET};
    let mut x = FNV_OFFSET;
    fnv1a_usize(&mut x, name.len());
    fnv1a(&mut x, name);
    fnv1a_usize(&mut x, value.len());
    fnv1a(&mut x, value);
    // splitmix64's finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl IndexTable {
    /// Create a table with the HTTP/2 default size of 4096 octets.
    pub fn new() -> Self {
        Self::with_limit(4096)
    }

    /// Create a table whose size and ceiling are both `limit`.
    pub fn with_limit(limit: usize) -> Self {
        IndexTable {
            arena: Vec::new(),
            head: 0,
            spans: VecDeque::new(),
            size: 0,
            max_size: limit,
            capacity_limit: limit,
            rolling: Rolling::EMPTY,
        }
    }

    /// Restore the state of [`IndexTable::with_limit`]`(limit)` while
    /// keeping the arena and the span ring for the next use.
    pub fn reset(&mut self, limit: usize) {
        self.clear_entries();
        self.max_size = limit;
        self.capacity_limit = limit;
    }

    fn clear_entries(&mut self) {
        self.arena.clear();
        self.head = 0;
        self.spans.clear();
        self.size = 0;
        self.rolling = Rolling::EMPTY;
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
        self.spans.len()
    }

    /// True when the dynamic table is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
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

    /// Insert a field as the newest dynamic entry (§4.4). An entry larger
    /// than the whole table empties it.
    pub fn insert(&mut self, name: &[u8], value: &[u8]) {
        let esize = entry_size(name, value);
        if esize > self.max_size {
            // It would evict everything before it and then itself; its
            // bytes never need to touch the arena.
            self.clear_entries();
            return;
        }
        let hash = entry_hash(name, value);
        self.spans.push_back(Span {
            start: self.arena.len(),
            name_len: name.len(),
            value_len: value.len(),
            hash,
        });
        self.arena.extend_from_slice(name);
        self.arena.extend_from_slice(value);
        self.size += esize;
        self.rolling.push_newest(hash);
        self.evict();
    }

    /// Evict oldest-first down to `max_size`, then squeeze out the dead
    /// prefix if it has come to outweigh the live bytes (so every octet is
    /// moved at most once per octet evicted).
    fn evict(&mut self) {
        while self.size > self.max_size {
            let Some(s) = self.spans.pop_front() else { break };
            self.size -= s.name_len + s.value_len + 32;
            self.rolling.pop_oldest(s.hash);
            self.head = s.start + s.name_len + s.value_len;
        }
        let live = self.arena.len() - self.head;
        if self.head > live {
            self.arena.copy_within(self.head.., 0);
            self.arena.truncate(live);
            for s in &mut self.spans {
                s.start -= self.head;
            }
            self.head = 0;
        }
    }

    /// Resolve a 1-based index in the combined space to `(name, value)`.
    pub fn get(&self, index: usize) -> Result<(&[u8], &[u8]), crate::Error> {
        if index == 0 {
            return Err(crate::Error::InvalidIndex);
        }
        if let Some((n, v)) = STATIC_TABLE.get(index - 1) {
            return Ok((n.as_bytes(), v.as_bytes()));
        }
        // Dynamic indices count newest-first; the ring is oldest-first.
        let newest_first = index - STATIC_TABLE.len() - 1;
        let s = (self.spans.len().checked_sub(newest_first + 1))
            .and_then(|i| self.spans.get(i))
            .ok_or(crate::Error::InvalidIndex)?;
        Ok(self.entry(s))
    }

    fn entry(&self, s: &Span) -> (&[u8], &[u8]) {
        let value_at = s.start + s.name_len;
        (&self.arena[s.start..value_at], &self.arena[value_at..value_at + s.value_len])
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
        fnv1a_usize(hash, self.spans.len());
        fnv1a(hash, &self.rolling.sum.to_le_bytes());
    }

    /// Find the best index for a field: an exact match if one exists,
    /// otherwise a name match. Static entries win ties (smaller indices
    /// compress better).
    pub fn find(&self, name: &[u8], value: &[u8]) -> Match {
        let mut name_match: Option<usize> = None;
        for (i, (n, v)) in STATIC_TABLE.iter().enumerate() {
            if n.as_bytes() == name {
                if v.as_bytes() == value {
                    return Match::Full(i + 1);
                }
                name_match.get_or_insert(i + 1);
            }
        }
        for (i, s) in self.spans.iter().rev().enumerate() {
            let (n, v) = self.entry(s);
            if n == name {
                let idx = STATIC_TABLE.len() + i + 1;
                if v == value {
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
    use proptest::prelude::*;

    fn f<'a>(n: &'a str, v: &'a str) -> (&'a [u8], &'a [u8]) {
        (n.as_bytes(), v.as_bytes())
    }

    fn insert(t: &mut IndexTable, n: &str, v: &str) {
        t.insert(n.as_bytes(), v.as_bytes());
    }

    fn fold(t: &IndexTable) -> u64 {
        let mut h = crate::codec::FNV_OFFSET;
        t.fold_state(&mut h);
        h
    }

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
        assert_eq!(t.get(2).unwrap(), f(":method", "GET"));
        insert(&mut t, "x-a", "1");
        insert(&mut t, "x-b", "2");
        // Newest entry is index 62.
        assert_eq!(t.get(62).unwrap(), f("x-b", "2"));
        assert_eq!(t.get(63).unwrap(), f("x-a", "1"));
        assert!(t.get(64).is_err());
        assert!(t.get(0).is_err());
        assert!(t.get(usize::MAX).is_err());
    }

    #[test]
    fn entry_size_accounting() {
        // §4.1: size = len(name) + len(value) + 32.
        let mut t = IndexTable::new();
        insert(&mut t, "custom-key", "custom-header");
        assert_eq!(t.size(), 10 + 13 + 32);
    }

    #[test]
    fn eviction_on_overflow() {
        let mut t = IndexTable::with_limit(100);
        insert(&mut t, "aaaa", "bbbb"); // 40
        insert(&mut t, "cccc", "dddd"); // 40
        assert_eq!(t.len(), 2);
        insert(&mut t, "eeee", "ffff"); // 40 → evicts oldest
        assert_eq!(t.len(), 2);
        assert_eq!(t.size(), 80);
        assert_eq!(t.get(62).unwrap(), f("eeee", "ffff"));
        assert_eq!(t.get(63).unwrap(), f("cccc", "dddd"));
    }

    #[test]
    fn oversized_entry_empties_table() {
        let mut t = IndexTable::with_limit(50);
        insert(&mut t, "a", "b");
        assert_eq!(t.len(), 1);
        insert(&mut t, "name", &"v".repeat(100));
        assert_eq!(t.len(), 0);
        assert_eq!(t.size(), 0);
        assert_eq!(fold(&t), fold(&IndexTable::with_limit(50)));
    }

    #[test]
    fn size_update_evicts() {
        let mut t = IndexTable::with_limit(4096);
        for i in 0..10 {
            insert(&mut t, &format!("h{i}"), "v");
        }
        t.set_max_size(70).unwrap();
        assert!(t.size() <= 70);
        assert_eq!(t.len(), 2);
        assert!(t.set_max_size(5000).is_err());
    }

    #[test]
    fn find_prefers_full_match() {
        let mut t = IndexTable::new();
        let find = |t: &IndexTable, n: &str, v: &str| t.find(n.as_bytes(), v.as_bytes());
        assert_eq!(find(&t, ":method", "GET"), Match::Full(2));
        assert_eq!(find(&t, ":method", "PATCH"), Match::Name(2));
        assert_eq!(find(&t, "x-new", "v"), Match::None);
        insert(&mut t, "x-new", "v");
        assert_eq!(find(&t, "x-new", "v"), Match::Full(62));
        // Static name match beats dynamic full match? No — full match wins.
        insert(&mut t, ":method", "PATCH");
        assert_eq!(find(&t, ":method", "PATCH"), Match::Full(62));
    }

    #[test]
    fn capacity_limit_shrinks_max() {
        let mut t = IndexTable::with_limit(4096);
        for i in 0..20 {
            insert(&mut t, &format!("header-{i}"), "value");
        }
        t.set_capacity_limit(100);
        assert!(t.size() <= 100);
        assert_eq!(t.max_size(), 100);
    }

    #[test]
    fn a_long_lived_table_keeps_its_arena_near_its_content() {
        // Thousands of insertions through a 4096-octet table: the dead
        // prefix is squeezed out as it goes, so the arena stays within a
        // small multiple of what the table may hold.
        let mut t = IndexTable::new();
        for i in 0..5_000 {
            insert(&mut t, &format!("x-header-{}", i % 97), &"v".repeat(i % 61));
            assert!(t.arena.len() <= 2 * 4096 + 128, "arena {} at step {i}", t.arena.len());
        }
        assert!(t.arena.capacity() <= 4 * 4096);
    }

    /// The table as RFC 7541 §4 words it — a deque of owned entries,
    /// newest first, nothing cached — and the reference the arena table is
    /// checked against.
    struct Model {
        entries: VecDeque<(Vec<u8>, Vec<u8>)>,
        max_size: usize,
        capacity_limit: usize,
    }

    impl Model {
        fn size(&self) -> usize {
            self.entries.iter().map(|(n, v)| n.len() + v.len() + 32).sum()
        }
        fn evict(&mut self) {
            while self.size() > self.max_size {
                self.entries.pop_back();
            }
        }
        fn insert(&mut self, name: &[u8], value: &[u8]) {
            self.entries.push_front((name.to_vec(), value.to_vec()));
            self.evict();
        }
        fn get(&self, index: usize) -> Option<(&[u8], &[u8])> {
            match index.checked_sub(1)? {
                i if i < 61 => Some(f(STATIC_TABLE[i].0, STATIC_TABLE[i].1)),
                i => self.entries.get(i - 61).map(|(n, v)| (&n[..], &v[..])),
            }
        }
        /// The lowest index matching in full, else the lowest matching by name.
        fn find(&self, name: &[u8], value: &[u8]) -> Match {
            let hits = |full: bool| {
                (1..=61 + self.entries.len()).find(|&i| {
                    let (n, v) = self.get(i).unwrap();
                    n == name && (!full || v == value)
                })
            };
            hits(true).map(Match::Full).or(hits(false).map(Match::Name)).unwrap_or(Match::None)
        }
        /// `fold_state` recomputed from the entries as they stand.
        fn fold(&self) -> u64 {
            let mut r = Rolling::EMPTY;
            for (n, v) in self.entries.iter().rev() {
                r.push_newest(entry_hash(n, v));
            }
            let mut h = crate::codec::FNV_OFFSET;
            crate::codec::fnv1a_usize(&mut h, self.max_size);
            crate::codec::fnv1a_usize(&mut h, self.capacity_limit);
            crate::codec::fnv1a_usize(&mut h, self.entries.len());
            crate::codec::fnv1a(&mut h, &r.sum.to_le_bytes());
            h
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>, Vec<u8>),
        SetMaxSize(usize),
        SetCapacityLimit(usize),
        Reset(usize),
    }

    /// Few names, so lookups hit; values of every length around the limits
    /// in play, so entries are evicted one, several and all at a time, some
    /// are oversized, and the dead prefix takes every size.
    fn field() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        let name = prop_oneof![
            Just(Vec::new()),
            Just(b":path".to_vec()),
            Just(b"cookie".to_vec()),
            proptest::collection::vec(97u8..101, 1..4),
            proptest::collection::vec(any::<u8>(), 0..40),
        ];
        let value = prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(any::<u8>(), 0..24),
            proptest::collection::vec(120u8..122, 0..200),
            proptest::collection::vec(Just(b'z'), 300..700),
        ];
        (name, value)
    }

    fn op() -> impl Strategy<Value = Op> {
        let insert = || field().prop_map(|(n, v)| Op::Insert(n, v));
        prop_oneof![
            insert(),
            insert(),
            insert(),
            insert(),
            (0usize..700).prop_map(Op::SetMaxSize),
            (0usize..700).prop_map(Op::SetCapacityLimit),
            (0usize..700).prop_map(Op::Reset),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn arena_table_tracks_the_naive_model(
            limit in 0usize..700,
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut t = IndexTable::with_limit(limit);
            let mut m = Model { entries: VecDeque::new(), max_size: limit, capacity_limit: limit };
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Insert(n, v) => {
                        t.insert(n, v);
                        m.insert(n, v);
                    }
                    Op::SetMaxSize(s) => {
                        let ok = *s <= m.capacity_limit;
                        prop_assert_eq!(t.set_max_size(*s).is_ok(), ok);
                        if ok {
                            m.max_size = *s;
                            m.evict();
                        }
                    }
                    Op::SetCapacityLimit(l) => {
                        t.set_capacity_limit(*l);
                        m.capacity_limit = *l;
                        m.max_size = m.max_size.min(*l);
                        m.evict();
                    }
                    Op::Reset(l) => {
                        t.reset(*l);
                        m = Model { entries: VecDeque::new(), max_size: *l, capacity_limit: *l };
                    }
                }
                prop_assert_eq!(t.len(), m.entries.len(), "len at step {}", step);
                prop_assert_eq!(t.is_empty(), m.entries.is_empty());
                prop_assert_eq!(t.size(), m.size(), "size at step {}", step);
                prop_assert_eq!(t.max_size(), m.max_size);
                for i in 0..=61 + t.len() + 1 {
                    prop_assert_eq!(t.get(i).ok(), m.get(i), "get({}) at step {}", i, step);
                }
                // Every live entry, the same name under another value, and
                // the field just handled (evicted or not).
                let mut probes: Vec<(&[u8], &[u8])> =
                    m.entries.iter().flat_map(|(n, v)| [(&n[..], &v[..]), (&n[..], &b"?"[..])]).collect();
                if let Op::Insert(n, v) = op {
                    probes.push((n, v));
                }
                for (n, v) in probes {
                    prop_assert_eq!(t.find(n, v), m.find(n, v), "find at step {}", step);
                }
                prop_assert_eq!(fold(&t), m.fold(), "fingerprint at step {}", step);
                // The arena holds the live entries and a dead prefix no
                // larger than them.
                prop_assert!(t.head <= t.arena.len() - t.head);
            }
        }
    }

    #[test]
    fn equal_tables_reached_by_different_histories_fingerprint_equal() {
        let h = |i: usize| (format!("x-header-{i}"), "v".repeat(i % 7 + 1));
        let put = |t: &mut IndexTable, i: usize| insert(t, &h(i).0, &h(i).1);
        fn entries(t: &IndexTable) -> Vec<(&[u8], &[u8])> {
            (62..62 + t.len()).map(|i| t.get(i).unwrap()).collect()
        }
        // The target: the last three of five insertions, limits 4096/4096.
        let mut direct = IndexTable::new();
        for i in 2..5 {
            put(&mut direct, i);
        }
        // Inserted after two entries a shrink-and-restore evicted.
        let mut resized = IndexTable::new();
        put(&mut resized, 0);
        put(&mut resized, 1);
        resized.set_max_size(0).unwrap();
        resized.set_max_size(4096).unwrap();
        for i in 2..5 {
            put(&mut resized, i);
        }
        // Overflowed: a table that only ever holds three such entries.
        let entry = |i: usize| h(i).0.len() + h(i).1.len() + 32;
        let mut evicted = IndexTable::with_limit(3 * entry(2) + 10);
        for i in 0..5 {
            put(&mut evicted, i);
        }
        assert_eq!(evicted.len(), 3);
        evicted.capacity_limit = 4096;
        evicted.max_size = 4096;
        // Recycled from an unrelated life, one oversized entry included.
        let mut recycled = IndexTable::with_limit(64);
        put(&mut recycled, 9);
        insert(&mut recycled, "huge", &"z".repeat(100));
        recycled.reset(4096);
        for i in 2..5 {
            put(&mut recycled, i);
        }
        for other in [&resized, &evicted, &recycled] {
            assert_eq!(entries(other), entries(&direct));
            assert_eq!(fold(other), fold(&direct));
        }
        // Contents, order and each limit all count.
        let mut reordered = IndexTable::new();
        for i in [3, 2, 4] {
            put(&mut reordered, i);
        }
        assert_ne!(fold(&reordered), fold(&direct));
        let mut shorter = direct.clone();
        shorter.set_max_size(2 * entry(2) + 40).unwrap();
        assert_eq!(shorter.len(), 2);
        assert_ne!(fold(&shorter), fold(&direct));
        let mut limited = direct.clone();
        limited.set_max_size(4000).unwrap();
        assert_eq!(entries(&limited), entries(&direct));
        assert_ne!(fold(&limited), fold(&direct));
        let mut capped = direct.clone();
        capped.set_capacity_limit(8192);
        assert_ne!(fold(&capped), fold(&direct));
    }
}
