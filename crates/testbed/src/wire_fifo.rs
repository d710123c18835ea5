//! The in-flight wire queue both runtimes share.
//!
//! One direction of one connection: what a machine has produced and the
//! transport has not yet delivered (simulator) or written (live). It is
//! the [`WireSink`] the machines produce into, so nothing is built and
//! then queued, and it keeps the two kinds of wire octet apart: literal
//! bytes (frame headers, control frames, header blocks, HTTP/1.1 heads)
//! sit in a byte ring; body bytes, which nothing reads, are run lengths
//! (the queue is a sequence of runs, `Lit(n) | Zeros(n)`).
//! A reader gets borrowed slices — of the ring, or windows of one static
//! zero page — so a 2.45 MB push costs the ring ~1.3 KiB of frame headers
//! and no memset, copy or allocation per body byte in either runtime.

use h2push_h2proto::sansio::WireSink;
use std::collections::{vec_deque, VecDeque};

/// What zero runs are read back as windows of: one maximum DATA payload,
/// so a frame body is one piece (one `receive`, one `iovec`).
static ZERO_PAGE: [u8; 16_384] = [0; 16_384];

/// A run of queued octets of one kind: the next `len` bytes of the
/// literal ring, or `len` zero octets.
#[derive(Debug, Clone, Copy)]
struct Run {
    zeros: bool,
    len: usize,
}

/// A FIFO of wire octets: literal bytes in a ring, zero runs as lengths.
/// The ring holds only the literals still in flight and keeps its
/// capacity across [`WireFifo::clear`], so a parked FIFO is reissued warm.
#[derive(Debug, Default)]
pub(crate) struct WireFifo {
    lit: VecDeque<u8>,
    /// Oldest first; no run is empty and neighbours differ in kind.
    runs: VecDeque<Run>,
    len: usize,
}

impl WireFifo {
    /// Octets queued, zero runs included.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn clear(&mut self) {
        self.lit.clear();
        self.runs.clear();
        self.len = 0;
    }

    /// The first `n` octets (or all of them), in order, as borrowed
    /// pieces: where the cuts fall follows the queue's layout and means
    /// nothing. Nothing is removed; see [`WireFifo::consume`].
    pub(crate) fn peek(&self, n: usize) -> Peek<'_> {
        let (head, tail) = self.lit.as_slices();
        let cur = Run { zeros: false, len: 0 };
        Peek { runs: self.runs.iter(), cur, head, tail, left: n.min(self.len) }
    }

    /// Drop the first `n` octets (or all of them).
    pub(crate) fn consume(&mut self, n: usize) {
        let mut left = n.min(self.len);
        self.len -= left;
        let mut literals = 0;
        while left > 0 {
            let front = self.runs.front_mut().expect("len counts the runs");
            let take = front.len.min(left);
            if !front.zeros {
                literals += take;
            }
            front.len -= take;
            left -= take;
            if front.len == 0 {
                self.runs.pop_front();
            }
        }
        self.lit.drain(..literals);
    }

    fn push_run(&mut self, zeros: bool, len: usize) {
        if len == 0 {
            return;
        }
        self.len += len;
        match self.runs.back_mut() {
            Some(run) if run.zeros == zeros => run.len += len,
            _ => self.runs.push_back(Run { zeros, len }),
        }
    }
}

impl WireSink for WireFifo {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.lit.put_slice(bytes);
        self.push_run(false, bytes.len());
    }

    fn put_zeros(&mut self, n: usize) {
        self.push_run(true, n);
    }
}

/// The pieces of [`WireFifo::peek`].
pub(crate) struct Peek<'a> {
    runs: vec_deque::Iter<'a, Run>,
    /// What is left of the run being read.
    cur: Run,
    /// The unread literals: the ring's two halves.
    head: &'a [u8],
    tail: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Peek<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        while self.cur.len == 0 {
            self.cur = *self.runs.next()?;
        }
        let want = self.cur.len.min(self.left);
        let piece = if self.cur.zeros {
            &ZERO_PAGE[..want.min(ZERO_PAGE.len())]
        } else {
            if self.head.is_empty() {
                self.head = std::mem::take(&mut self.tail);
            }
            let (piece, rest) = self.head.split_at(want.min(self.head.len()));
            self.head = rest;
            piece
        };
        self.cur.len -= piece.len();
        self.left -= piece.len();
        Some(piece)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What a reader sees of the first `n` octets.
    fn peeked(f: &WireFifo, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for piece in f.peek(n) {
            assert!(!piece.is_empty(), "empty piece");
            out.extend_from_slice(piece);
        }
        out
    }

    #[test]
    fn a_body_costs_the_ring_only_its_frame_headers() {
        let mut f = WireFifo::default();
        for _ in 0..150 {
            f.put_slice(&[7; 9]);
            f.put_zeros(16_384);
        }
        assert_eq!(f.len(), 150 * (9 + 16_384));
        assert_eq!(f.lit.len(), 150 * 9);
        // A delivery inside one body is one window of the zero page.
        f.consume(9 + 100);
        let pieces: Vec<&[u8]> = f.peek(1_460).collect();
        assert_eq!(pieces.len(), 1);
        assert!(std::ptr::eq(pieces[0].as_ptr(), ZERO_PAGE.as_ptr()));
        f.consume(usize::MAX);
        assert!(f.is_empty() && f.lit.is_empty() && f.runs.is_empty());
    }

    /// A FIFO whose second literal wraps the ring, and its octets.
    fn wrapped() -> (WireFifo, Vec<u8>) {
        let mut f = WireFifo { lit: VecDeque::with_capacity(16), ..Default::default() };
        let cap = f.lit.capacity();
        f.put_slice(&vec![1; cap - 2]);
        f.consume(cap - 4);
        f.put_zeros(3);
        let tail: Vec<u8> = (10..10 + cap as u8 - 6).collect();
        f.put_slice(&tail);
        assert_eq!(f.lit.capacity(), cap, "the ring must not have grown");
        assert!(!f.lit.as_slices().1.is_empty(), "the literal must wrap");
        let mut octets = vec![1, 1, 0, 0, 0];
        octets.extend_from_slice(&tail);
        (f, octets)
    }

    #[test]
    fn a_literal_that_wraps_the_ring_reads_back_whole_at_every_cut() {
        let (f, want) = wrapped();
        for cut in 0..=want.len() {
            assert_eq!(peeked(&f, cut), want[..cut]);
            let (mut g, _) = wrapped();
            g.consume(cut);
            assert_eq!(g.len(), want.len() - cut);
            assert_eq!(peeked(&g, usize::MAX), want[cut..]);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Slice(Vec<u8>),
        Zeros(usize),
        Peek(usize),
        Consume(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Nonzero literals, so a zero run read as a literal (or the
            // reverse) shows.
            proptest::collection::vec(1u8..=255, 0..40).prop_map(Op::Slice),
            (0usize..40_000).prop_map(Op::Zeros),
            (0usize..50_000).prop_map(Op::Peek),
            (0usize..20_000).prop_map(Op::Consume),
            // Small cuts land inside literals and walk the ring round.
            (0usize..12).prop_map(Op::Consume),
        ]
    }

    proptest! {
        // Any interleaving of writes, peeks and consumes reads back what
        // a plain `Vec<u8>` holding the same octets would: cuts inside a
        // literal, inside a zero run, across run edges and across the
        // ring's wrap (small consumes against steady writes rotate it).
        #[test]
        fn wire_fifo_matches_a_plain_byte_vector(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            let mut fifo = WireFifo::default();
            let mut model: Vec<u8> = Vec::new();
            for op in &ops {
                match op {
                    Op::Slice(b) => {
                        fifo.put_slice(b);
                        model.extend_from_slice(b);
                    }
                    Op::Zeros(n) => {
                        fifo.put_zeros(*n);
                        model.resize(model.len() + n, 0);
                    }
                    Op::Peek(n) => {
                        prop_assert_eq!(&peeked(&fifo, *n)[..], &model[..(*n).min(model.len())]);
                    }
                    Op::Consume(n) => {
                        fifo.consume(*n);
                        model.drain(..(*n).min(model.len()));
                    }
                }
                prop_assert_eq!(fifo.len(), model.len());
                prop_assert_eq!(fifo.is_empty(), model.is_empty());
                let literals = model.iter().filter(|&&b| b != 0).count();
                prop_assert_eq!(fifo.lit.len(), literals, "ring holds exactly the literals in flight");
            }
            prop_assert_eq!(peeked(&fifo, usize::MAX), model);
        }
    }
}
