//! Header fields as the codec sees them: a borrowed pair of byte strings
//! ([`HeaderField`]), the owned convenience type ([`Header`]) and the flat
//! list a decoded block lands in ([`HeaderList`]).

/// A header field: a name and a value, both borrowed byte strings.
///
/// This is all the encoder, the dynamic table and the block cache ever
/// read of a field, so a caller formats a header list as a stack array of
/// `(&str, &str)` pairs over strings it already holds — nothing is copied
/// or allocated until the bytes land in the encoder's block or table.
pub trait HeaderField {
    /// Field name (lowercase for HTTP/2).
    fn name(&self) -> &[u8];
    /// Field value.
    fn value(&self) -> &[u8];
}

impl HeaderField for (&str, &str) {
    fn name(&self) -> &[u8] {
        self.0.as_bytes()
    }
    fn value(&self) -> &[u8] {
        self.1.as_bytes()
    }
}

impl HeaderField for (&[u8], &[u8]) {
    fn name(&self) -> &[u8] {
        self.0
    }
    fn value(&self) -> &[u8] {
        self.1
    }
}

/// An owned header field, for callers that want to keep one around (tests,
/// benchmarks, generated inputs). The codec itself never builds one.
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
}

impl HeaderField for Header {
    fn name(&self) -> &[u8] {
        &self.name
    }
    fn value(&self) -> &[u8] {
        &self.value
    }
}

/// The size of a field per §4.1: name length + value length + 32.
pub(crate) fn entry_size(name: &[u8], value: &[u8]) -> usize {
    name.len() + value.len() + 32
}

/// A decoded header list: every name and value back to back in one byte
/// arena, plus one span per field. Two allocations however many fields it
/// holds, and none at all when a cleared list is filled again — which is
/// how a connection decodes block after block into the same list.
///
/// Equality, `Debug` and `Clone` go by content; a list also compares equal
/// to a slice, array or `Vec` of any [`HeaderField`] holding the same
/// fields in the same order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct HeaderList {
    /// Name then value of every field, in order, no gaps.
    pub(crate) bytes: Vec<u8>,
    /// Per field: where its name ends and where its value ends in `bytes`
    /// (it starts where the previous field's value ended).
    pub(crate) ends: Vec<(usize, usize)>,
}

impl HeaderList {
    /// An empty list; allocates nothing until a field is pushed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the list holds no field.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Drop every field, keeping both allocations.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Append a field.
    pub fn push(&mut self, name: &[u8], value: &[u8]) {
        self.bytes.extend_from_slice(name);
        let name_end = self.bytes.len();
        self.bytes.extend_from_slice(value);
        self.ends.push((name_end, self.bytes.len()));
    }

    /// Field `i` as `(name, value)`. Panics when out of range.
    pub fn field(&self, i: usize) -> (&[u8], &[u8]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1].1 };
        let (name_end, value_end) = self.ends[i];
        (&self.bytes[start..name_end], &self.bytes[name_end..value_end])
    }

    /// The fields in order, each as `(name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        (0..self.len()).map(|i| self.field(i))
    }

    /// The value of the first field called `name`.
    pub fn get(&self, name: &[u8]) -> Option<&[u8]> {
        self.iter().find(|&(n, _)| n == name).map(|(_, v)| v)
    }
}

impl std::fmt::Debug for HeaderList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = String::from_utf8_lossy;
        f.debug_list().entries(self.iter().map(|(n, v)| (text(n), text(v)))).finish()
    }
}

impl<H: HeaderField> PartialEq<[H]> for HeaderList {
    fn eq(&self, other: &[H]) -> bool {
        self.len() == other.len()
            && self.iter().zip(other).all(|((n, v), h)| n == h.name() && v == h.value())
    }
}

impl<H: HeaderField, const N: usize> PartialEq<[H; N]> for HeaderList {
    fn eq(&self, other: &[H; N]) -> bool {
        *self == other[..]
    }
}

impl<H: HeaderField> PartialEq<Vec<H>> for HeaderList {
    fn eq(&self, other: &Vec<H>) -> bool {
        *self == other[..]
    }
}
