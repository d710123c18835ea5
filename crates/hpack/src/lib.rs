//! # h2push-hpack — HPACK header compression (RFC 7541)
//!
//! A from-scratch implementation of HPACK, the header compression used by
//! the HTTP/2 connections the paper's testbed replays (§2.1): prefix
//! integers, the canonical Huffman code of Appendix B, the static table of
//! Appendix A, a size-bounded dynamic table, and an encoder/decoder pair
//! validated against the RFC's Appendix C test vectors.
//!
//! **No owned field on the way through.** A header field is a
//! [`HeaderField`] — a borrowed name and value — from the caller's strings
//! to the wire and back:
//!
//! * the encoder takes `&[impl HeaderField]` (a stack array of
//!   `(&str, &str)` pairs will do), writes the block into a buffer of its
//!   own and returns a view of it ([`Encoder::encode_block`]);
//! * the dynamic table ([`IndexTable`]) keeps its entries back to back in
//!   one byte arena — append at the tail, evict at the head, compact when
//!   the dead prefix outweighs the live bytes — and resolves an index to
//!   borrowed slices;
//! * the decoder fills a flat [`HeaderList`] (one byte arena, one span per
//!   field) the caller hands in and gets to reuse
//!   ([`Decoder::decode_into`]): indexed fields are copied out of the table
//!   arena, literals decode straight into the list, table insertions copy
//!   from the list.
//!
//! A warmed-up encoder/decoder pair therefore allocates nothing per block.
//! [`Header`] is the owned convenience type for callers that want to keep
//! a field; [`Encoder::encode`] and [`Decoder::decode`] are the same calls
//! returning buffers of their own.

pub mod codec;
pub mod field;
pub mod fx;
pub mod huffman;
pub mod integer;
pub mod table;

pub use codec::{BlockCache, DecodeCache, Decoder, Encoder, HuffmanPolicy};
pub use field::{Header, HeaderField, HeaderList};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use table::{IndexTable, Match, STATIC_TABLE};

/// HPACK processing error; all of these are connection errors of type
/// COMPRESSION_ERROR at the HTTP/2 layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Input ended in the middle of a field.
    Truncated,
    /// A prefix integer exceeded the implementation limit.
    IntegerOverflow,
    /// Invalid Huffman padding, an EOS symbol, or an undefined code.
    InvalidHuffman,
    /// A (static or dynamic) table index was out of range.
    InvalidIndex,
    /// A dynamic table size update exceeded the protocol maximum.
    SizeUpdateTooLarge,
    /// A decoded block exceeded the configured maximum header-list size
    /// (a header bomb: small wire bytes, huge decoded size).
    HeaderListTooLarge,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated HPACK block"),
            Error::IntegerOverflow => write!(f, "HPACK integer overflow"),
            Error::InvalidHuffman => write!(f, "invalid Huffman data"),
            Error::InvalidIndex => write!(f, "invalid table index"),
            Error::SizeUpdateTooLarge => write!(f, "dynamic table size update above limit"),
            Error::HeaderListTooLarge => write!(f, "decoded header list above size limit"),
        }
    }
}

impl std::error::Error for Error {}
