//! HPACK Huffman coding (RFC 7541 §5.2 and Appendix B).
//!
//! The RFC's code is a *canonical* Huffman code: codes are assigned in order
//! of increasing length, and within one length in order of increasing symbol
//! value. We therefore only store the 257 code **lengths** and derive the
//! codewords at start-up; a unit test checks the Kraft equality (the lengths
//! form a complete code) and the RFC Appendix C test vectors pin the result
//! to the exact RFC codewords.

use crate::Error;
use std::sync::OnceLock;

/// Code length in bits for each symbol 0..=256 (256 is EOS).
#[rustfmt::skip]
const CODE_LENGTHS: [u8; 257] = [
    // 0x00..0x0f
    13, 23, 28, 28, 28, 28, 28, 28, 28, 24, 30, 28, 28, 30, 28, 28,
    // 0x10..0x1f
    28, 28, 28, 28, 28, 28, 30, 28, 28, 28, 28, 28, 28, 28, 28, 28,
    // 0x20..0x2f:  ' ' ! " # $ % & ' ( ) * + , - . /
     6, 10, 10, 12, 13,  6,  8, 11, 10, 10,  8, 11,  8,  6,  6,  6,
    // 0x30..0x3f:  0-9 : ; < = > ?
     5,  5,  5,  6,  6,  6,  6,  6,  6,  6,  7,  8, 15,  6, 12, 10,
    // 0x40..0x4f:  @ A-O
    13,  6,  7,  7,  7,  7,  7,  7,  7,  7,  7,  7,  7,  7,  7,  7,
    // 0x50..0x5f:  P-Z [ \ ] ^ _
     7,  7,  7,  7,  7,  7,  7,  7,  8,  7,  8, 13, 19, 13, 14,  6,
    // 0x60..0x6f:  ` a-o
    15,  5,  6,  5,  6,  5,  6,  6,  6,  5,  7,  7,  6,  6,  6,  5,
    // 0x70..0x7f:  p-z { | } ~ DEL
     6,  7,  6,  5,  5,  6,  7,  7,  7,  7,  7, 15, 11, 14, 13, 28,
    // 0x80..0x8f
    20, 22, 20, 20, 22, 22, 22, 23, 22, 23, 23, 23, 23, 23, 24, 23,
    // 0x90..0x9f
    24, 24, 22, 23, 24, 23, 23, 23, 23, 21, 22, 23, 22, 23, 23, 24,
    // 0xa0..0xaf
    22, 21, 20, 22, 22, 23, 23, 21, 23, 22, 22, 24, 21, 22, 23, 23,
    // 0xb0..0xbf
    21, 21, 22, 21, 23, 22, 23, 23, 20, 22, 22, 22, 23, 22, 22, 23,
    // 0xc0..0xcf
    26, 26, 20, 19, 22, 23, 22, 25, 26, 26, 26, 27, 27, 26, 24, 25,
    // 0xd0..0xdf
    19, 21, 26, 27, 27, 26, 27, 24, 21, 21, 26, 26, 28, 27, 27, 27,
    // 0xe0..0xef
    20, 24, 20, 21, 22, 21, 21, 23, 22, 22, 25, 25, 24, 24, 26, 23,
    // 0xf0..0xff
    26, 27, 26, 26, 27, 27, 27, 27, 27, 28, 27, 27, 27, 27, 27, 26,
    // 256: EOS
    30,
];

/// A symbol's canonical codeword (right-aligned) and its length in bits.
#[derive(Debug, Clone, Copy)]
struct Code {
    bits: u32,
    len: u8,
}

struct Tables {
    encode: [Code; 257],
    /// Binary trie for decoding: `nodes[i] = [next_if_0, next_if_1]`; leaf
    /// values are encoded as `0x8000_0000 | symbol`.
    trie: Vec<[u32; 2]>,
}

const LEAF: u32 = 0x8000_0000;
const UNSET: u32 = u32::MAX;

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Canonical code assignment: sort by (length, symbol).
        let mut order: Vec<u16> = (0u16..257).collect();
        order.sort_by_key(|&s| (CODE_LENGTHS[s as usize], s));
        let mut encode = [Code { bits: 0, len: 0 }; 257];
        let mut code: u32 = 0;
        let mut prev_len: u8 = 0;
        for &sym in &order {
            let len = CODE_LENGTHS[sym as usize];
            if prev_len != 0 {
                code = (code + 1) << (len - prev_len);
            } else {
                code <<= len;
            }
            encode[sym as usize] = Code { bits: code, len };
            prev_len = len;
        }
        // Build the decode trie.
        let mut trie: Vec<[u32; 2]> = vec![[UNSET, UNSET]];
        for sym in 0..257u32 {
            let Code { bits, len } = encode[sym as usize];
            let mut node = 0usize;
            for i in (0..len).rev() {
                let bit = ((bits >> i) & 1) as usize;
                if i == 0 {
                    trie[node][bit] = LEAF | sym;
                } else {
                    if trie[node][bit] == UNSET {
                        trie.push([UNSET, UNSET]);
                        let next = (trie.len() - 1) as u32;
                        trie[node][bit] = next;
                    }
                    node = trie[node][bit] as usize;
                }
            }
        }
        Tables { encode, trie }
    })
}

/// The length in bytes of `data` once Huffman encoded.
pub fn encoded_len(data: &[u8]) -> usize {
    let t = tables();
    let bits: u64 = data.iter().map(|&b| t.encode[b as usize].len as u64).sum();
    bits.div_ceil(8) as usize
}

/// Huffman-encode `data`, appending to `out`. The final partial octet is
/// padded with the most-significant bits of EOS (all ones), per §5.2.
pub fn encode(data: &[u8], out: &mut Vec<u8>) {
    let t = tables();
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for &b in data {
        let Code { bits, len } = t.encode[b as usize];
        acc = (acc << len) | bits as u64;
        nbits += len as u32;
        while nbits >= 8 {
            nbits -= 8;
            out.push((acc >> nbits) as u8);
        }
    }
    if nbits > 0 {
        let pad = 8 - nbits;
        out.push(((acc << pad) as u8) | ((1u16 << pad) - 1) as u8);
    }
}

/// [`decode_into`] a `Vec` of its own.
pub fn decode(data: &[u8]) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    decode_into(data, &mut out)?;
    Ok(out)
}

/// Decode a Huffman-encoded string, appending to `out` (which may have
/// grown by a partial result when this fails).
///
/// Errors on the EOS symbol appearing in the stream and on padding longer
/// than 7 bits or not matching the EOS prefix (both connection errors per
/// §5.2).
pub fn decode_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), Error> {
    let t = tables();
    // The shortest code is 5 bits.
    out.reserve(data.len() * 8 / 5);
    let mut node = 0usize;
    let mut bits_since_symbol = 0u32;
    let mut all_ones_since_symbol = true;
    for &byte in data {
        for i in (0..8).rev() {
            let bit = ((byte >> i) & 1) as usize;
            bits_since_symbol += 1;
            all_ones_since_symbol &= bit == 1;
            let next = t.trie[node][bit];
            if next == UNSET {
                return Err(Error::InvalidHuffman);
            }
            if next & LEAF != 0 {
                let sym = next & !LEAF;
                if sym == 256 {
                    return Err(Error::InvalidHuffman); // explicit EOS
                }
                out.push(sym as u8);
                node = 0;
                bits_since_symbol = 0;
                all_ones_since_symbol = true;
            } else {
                node = next as usize;
            }
        }
    }
    // Whatever remains must be a ≤7-bit prefix of EOS (all ones).
    if bits_since_symbol > 7 || !all_ones_since_symbol {
        return Err(Error::InvalidHuffman);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kraft_equality_holds() {
        // The lengths must describe a *complete* prefix code.
        let sum: u64 = CODE_LENGTHS.iter().map(|&l| 1u64 << (30 - l as u32)).sum();
        assert_eq!(sum, 1u64 << 30);
    }

    #[test]
    fn rfc_appendix_b_spot_values() {
        let t = tables();
        let code = |s: usize| (t.encode[s].bits, t.encode[s].len);
        assert_eq!(code(b'0' as usize), (0x0, 5));
        assert_eq!(code(b'a' as usize), (0x3, 5));
        assert_eq!(code(b' ' as usize), (0x14, 6));
        assert_eq!(code(b':' as usize), (0x5c, 7));
        assert_eq!(code(b'w' as usize), (0x78, 7));
        assert_eq!(code(b'&' as usize), (0xf8, 8));
        assert_eq!(code(b'!' as usize), (0x3f8, 10));
        assert_eq!(code(b'\'' as usize), (0x7fa, 11));
        assert_eq!(code(b'#' as usize), (0xffa, 12));
        assert_eq!(code(0), (0x1ff8, 13));
        assert_eq!(code(b'^' as usize), (0x3ffc, 14));
        assert_eq!(code(b'<' as usize), (0x7ffc, 15));
        assert_eq!(code(b'\\' as usize), (0x7fff0, 19));
        assert_eq!(code(1), (0x7fffd8, 23));
        assert_eq!(code(9), (0xffffea, 24));
        assert_eq!(code(2), (0xfffffe2, 28));
        assert_eq!(code(10), (0x3ffffffc, 30));
        assert_eq!(code(13), (0x3ffffffd, 30));
        assert_eq!(code(22), (0x3ffffffe, 30));
        assert_eq!(code(256), (0x3fffffff, 30));
    }

    #[test]
    fn rfc_c4_1_www_example_com() {
        let mut out = Vec::new();
        encode(b"www.example.com", &mut out);
        assert_eq!(out, [0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a, 0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff]);
        assert_eq!(decode(&out).unwrap(), b"www.example.com");
    }

    #[test]
    fn rfc_c4_2_no_cache() {
        let mut out = Vec::new();
        encode(b"no-cache", &mut out);
        assert_eq!(out, [0xa8, 0xeb, 0x10, 0x64, 0x9c, 0xbf]);
        assert_eq!(decode(&out).unwrap(), b"no-cache");
    }

    #[test]
    fn rfc_c4_3_custom_key_value() {
        let mut out = Vec::new();
        encode(b"custom-key", &mut out);
        assert_eq!(out, [0x25, 0xa8, 0x49, 0xe9, 0x5b, 0xa9, 0x7d, 0x7f]);
        out.clear();
        encode(b"custom-value", &mut out);
        assert_eq!(out, [0x25, 0xa8, 0x49, 0xe9, 0x5b, 0xb8, 0xe8, 0xb4, 0xbf]);
    }

    #[test]
    fn rfc_c6_1_response_strings() {
        let mut out = Vec::new();
        encode(b"302", &mut out);
        assert_eq!(out, [0x64, 0x02]);
        out.clear();
        encode(b"private", &mut out);
        assert_eq!(out, [0xae, 0xc3, 0x77, 0x1a, 0x4b]);
    }

    #[test]
    fn empty_string() {
        let mut out = Vec::new();
        encode(b"", &mut out);
        assert!(out.is_empty());
        assert_eq!(decode(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn all_byte_values_round_trip() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut out = Vec::new();
        encode(&data, &mut out);
        assert_eq!(decode(&out).unwrap(), data);
    }

    #[test]
    fn encoded_len_matches_encode() {
        for s in [&b"a"[..], b"hello world", b"\x00\xff\x80", b"https://example.org/x?y=z"] {
            let mut out = Vec::new();
            encode(s, &mut out);
            assert_eq!(out.len(), encoded_len(s));
        }
    }

    // The literals below are grouped as code bits, then padding bits.
    #[test]
    #[allow(clippy::unusual_byte_groupings)]
    fn bad_padding_rejected() {
        // 'a' = 00011 (5 bits); valid padding is 111. Zero padding is not.
        let ok = [0b00011_111u8];
        assert_eq!(decode(&ok).unwrap(), b"a");
        let bad = [0b00011_000u8];
        assert!(decode(&bad).is_err());
    }

    #[test]
    #[allow(clippy::unusual_byte_groupings)]
    fn overlong_padding_rejected() {
        // A full byte of ones is a 8-bit padding ⇒ error per §5.2.
        let bad = [0b00011_111u8, 0xff];
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn eos_in_stream_rejected() {
        // EOS = 30 bits of ones followed by anything.
        let bad = [0xff, 0xff, 0xff, 0xfc];
        assert!(decode(&bad).is_err());
    }
}
