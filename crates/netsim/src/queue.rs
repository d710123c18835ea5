//! Deterministic event queue: a hierarchical timing wheel over one slab.
//!
//! Ordering is total over `(SimTime, sequence)` — the sequence number
//! breaks ties between events scheduled for the same instant in
//! *insertion order*, which makes the simulation fully deterministic
//! regardless of the backing structure.
//!
//! The wheel has three levels sized for the simulator's event mix
//! (µs-scale packet hops, ms-scale think timers, second-scale RTOs and
//! deadlines):
//!
//! * level 0 — 1024 slots × 1 µs (≈ 1 ms window). One slot is one exact
//!   microsecond, so FIFO order within a slot *is* `(time, seq)` order.
//! * level 1 — 256 slots × 1.024 ms (≈ 262 ms window).
//! * level 2 — 256 slots × ≈ 262 ms (≈ 67 s window).
//! * an unsorted overflow list beyond that, plus a small "past" heap for
//!   events pushed behind the pop frontier. Monotone scheduling never
//!   hits it — a pop leaves the level-0 cursor on the slot it emptied, so
//!   a push at the instant just popped lands in that slot — but arbitrary
//!   push/pop interleavings need it, and the equivalence proptests
//!   exercise it.
//!
//! Every queued event is written once, into a node of one `Vec`, and
//! stays there until it is popped: a slot is a `(head, tail)` pair of
//! node indices, a node carries the index of the next one in its slot,
//! and popped nodes go on a free list threaded through the same field.
//! Pushes route by distance from the current window; pops find the next
//! occupied slot through per-level occupancy bitmaps and, only when a
//! window empties, relink one higher-level slot's nodes into the levels
//! below — indices move, events do not. [`EventQueue::clear`] keeps the
//! slab's capacity, so a recycled queue allocates nothing, and a cold one
//! allocates only as its slab doubles.
//!
//! The reference is a binary-heap model in `tests/queue_model`: the
//! proptest suite in `tests/queue_equiv.rs` pops it and the wheel in
//! lockstep over arbitrary interleavings and asserts identical sequences,
//! and the unit tests below run against both.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const L0_BITS: u32 = 10;
const L1_BITS: u32 = 8;
const L2_BITS: u32 = 8;
/// 1024 slots × 1 µs.
const L0_SLOTS: usize = 1 << L0_BITS;
/// 256 slots × 1.024 ms.
const L1_SLOTS: usize = 1 << L1_BITS;
/// 256 slots × ≈ 262 ms.
const L2_SLOTS: usize = 1 << L2_BITS;
const L1_SHIFT: u32 = L0_BITS;
const L2_SHIFT: u32 = L0_BITS + L1_BITS;

/// All slots live in one array: level 0 first, then level 1, level 2 and
/// the overflow list.
const L1_BASE: usize = L0_SLOTS;
const L2_BASE: usize = L1_BASE + L1_SLOTS;
const OVERFLOW: usize = L2_BASE + L2_SLOTS;
const N_SLOTS: usize = OVERFLOW + 1;

/// "No node": ends a slot's list and the free list.
const NIL: u32 = u32::MAX;

struct Node<E> {
    at: u64,
    /// The next node of the same slot, or of the free list.
    next: u32,
    /// `None` exactly while the node is on the free list.
    event: Option<E>,
}

/// A FIFO of nodes. Empty iff `head == NIL`; `tail` is meaningful only
/// then.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot { head: NIL, tail: NIL };

/// One level's occupancy bitmap (bit s set iff slot s is nonempty),
/// cursor and window origin.
struct Level<const WORDS: usize> {
    bits: [u64; WORDS],
    /// One bit per word of `bits` (bit w set iff `bits[w] != 0`), so a
    /// scan over a sparse or empty bitmap is one masked lookup instead of
    /// a word-by-word walk — the common case on the pop path, where
    /// level 0 is empty most of the time between cascades.
    summary: u64,
    /// Slots below the cursor in the current window are drained.
    cursor: usize,
    /// Absolute time of slot 0 of the current window.
    start: u64,
}

impl<const WORDS: usize> Level<WORDS> {
    const NEW: Self = Level { bits: [0; WORDS], summary: 0, cursor: 0, start: 0 };

    #[inline]
    fn set(&mut self, s: usize) {
        self.bits[s >> 6] |= 1 << (s & 63);
        self.summary |= 1 << (s >> 6);
    }

    #[inline]
    fn unset(&mut self, s: usize) {
        let w = s >> 6;
        self.bits[w] &= !(1 << (s & 63));
        if self.bits[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    #[inline]
    fn is_set(&self, s: usize) -> bool {
        self.bits[s >> 6] & (1 << (s & 63)) != 0
    }

    /// True when the cursor rests on an occupied slot.
    #[inline]
    fn at_cursor(&self) -> bool {
        self.cursor < WORDS * 64 && self.is_set(self.cursor)
    }

    /// First occupied slot at or after the cursor.
    fn next(&self) -> Option<usize> {
        let w0 = self.cursor >> 6;
        if w0 >= WORDS {
            return None;
        }
        let cur = self.bits[w0] & (!0u64 << (self.cursor & 63));
        if cur != 0 {
            return Some((w0 << 6) + cur.trailing_zeros() as usize);
        }
        // Jump straight to the next nonempty word (WORDS ≤ 16 < 64, so the
        // shift below cannot overflow).
        let rest = self.summary & (!0u64 << (w0 + 1));
        if rest == 0 {
            return None;
        }
        let w = rest.trailing_zeros() as usize;
        Some((w << 6) + self.bits[w].trailing_zeros() as usize)
    }
}

/// A time-ordered queue of simulation events.
///
/// Events scheduled for the same instant pop in the order they were
/// pushed.
pub struct EventQueue<E> {
    /// Every queued event, plus the nodes on the free list.
    nodes: Vec<Node<E>>,
    free: u32,
    slots: Box<[Slot; N_SLOTS]>,
    l0: Level<{ L0_SLOTS / 64 }>,
    l1: Level<{ L1_SLOTS / 64 }>,
    l2: Level<{ L2_SLOTS / 64 }>,
    /// `(at, seq, node)` of events pushed behind the pop frontier (earlier
    /// than anything the wheel can still index). Empty under monotone
    /// scheduling.
    past: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            slots: Box::new([EMPTY; N_SLOTS]),
            l0: Level::NEW,
            l1: Level::NEW,
            l2: Level::NEW,
            past: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let at = at.as_micros();
        let node = Node { at, next: NIL, event: Some(event) };
        let i = if self.free != NIL {
            let i = self.free;
            self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
            i
        } else {
            assert!(self.nodes.len() < NIL as usize, "node indices fit u32");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        // The frontier is the instant under the level-0 cursor. The sum
        // cannot overflow: a window opens only where an event lies, and
        // the cursor moves only onto a slot holding one.
        if at < self.l0.start + self.l0.cursor as u64 {
            self.past.push(Reverse((at, seq, i)));
        } else {
            self.link(i);
        }
    }

    /// Append node `i` (unlinked, `next == NIL`, not behind the frontier)
    /// to the slot its time belongs in relative to the current windows.
    fn link(&mut self, i: u32) {
        let t = self.nodes[i as usize].at;
        // All subtractions below are safe: t ≥ frontier ≥ l0.start ≥
        // l1.start ≥ l2.start (each window opens inside its parent slot).
        let slot = if t - self.l0.start < L0_SLOTS as u64 {
            let s = (t - self.l0.start) as usize;
            self.l0.set(s);
            s
        } else if (t - self.l1.start) >> L1_SHIFT < L1_SLOTS as u64 {
            let s = ((t - self.l1.start) >> L1_SHIFT) as usize;
            self.l1.set(s);
            L1_BASE + s
        } else if (t - self.l2.start) >> L2_SHIFT < L2_SLOTS as u64 {
            let s = ((t - self.l2.start) >> L2_SHIFT) as usize;
            self.l2.set(s);
            L2_BASE + s
        } else {
            OVERFLOW
        };
        let slot = &mut self.slots[slot];
        if slot.head == NIL {
            slot.head = i;
        } else {
            self.nodes[slot.tail as usize].next = i;
        }
        slot.tail = i;
    }

    /// Empty `slot` and link its nodes again, in list order. Called with
    /// every lower level empty and the windows already moved to where the
    /// slot began, so nodes of one instant land in one slot in the order
    /// they were pushed: a cascade preserves `(time, seq)` order, and
    /// direct pushes can only reach a window after it has been opened.
    fn relink(&mut self, slot: usize) {
        let mut i = std::mem::replace(&mut self.slots[slot], EMPTY).head;
        while i != NIL {
            let next = std::mem::replace(&mut self.nodes[i as usize].next, NIL);
            self.link(i);
            i = next;
        }
    }

    /// Times of the nodes queued in `slot`.
    fn times(&self, slot: usize) -> impl Iterator<Item = u64> + '_ {
        let at = |i: u32| (i != NIL).then(|| &self.nodes[i as usize]);
        std::iter::successors(at(self.slots[slot].head), move |n| at(n.next)).map(|n| n.at)
    }

    /// Advance the cursors to the earliest occupied level-0 slot, opening
    /// one higher-level slot per iteration. Returns false when the wheel
    /// is empty.
    fn locate(&mut self) -> bool {
        loop {
            if let Some(s) = self.l0.next() {
                self.l0.cursor = s;
                return true;
            }
            if let Some(s) = self.l1.next() {
                // Open level-1 slot `s` as the new level-0 window.
                self.l0.start = self.l1.start + ((s as u64) << L1_SHIFT);
                self.l0.cursor = 0;
                self.l1.cursor = s + 1;
                self.l1.unset(s);
                self.relink(L1_BASE + s);
            } else if let Some(s) = self.l2.next() {
                // Open level-2 slot `s` as the new level-1 window.
                self.l1.start = self.l2.start + ((s as u64) << L2_SHIFT);
                self.l1.cursor = 0;
                self.l0.start = self.l1.start;
                self.l0.cursor = 0;
                self.l2.cursor = s + 1;
                self.l2.unset(s);
                self.relink(L2_BASE + s);
            } else if let Some(min) = self.times(OVERFLOW).min() {
                // Re-anchor the whole wheel at the earliest far event;
                // what is still beyond the new horizon goes back on the
                // overflow list. (Every bitmap is empty here.)
                self.l0 = Level { start: min, ..Level::NEW };
                self.l1 = Level { start: min, ..Level::NEW };
                self.l2 = Level { start: min, ..Level::NEW };
                self.relink(OVERFLOW);
            } else {
                return false;
            }
        }
    }

    /// Unlink the head of the slot under the level-0 cursor. The cursor
    /// stays on the slot even when it empties: the instant just popped is
    /// still the frontier, so an event pushed for it lands in the wheel,
    /// not in `past`.
    fn pop_slot(&mut self) -> (SimTime, E) {
        let s = self.l0.cursor;
        let i = self.slots[s].head;
        let next = self.nodes[i as usize].next;
        self.slots[s].head = next;
        if next == NIL {
            self.l0.unset(s);
        }
        self.release(i)
    }

    /// Hand node `i`'s event out and put the node on the free list.
    fn release(&mut self, i: u32) -> (SimTime, E) {
        let node = &mut self.nodes[i as usize];
        let event = node.event.take().expect("a queued node holds its event");
        node.next = self.free;
        self.free = i;
        self.len -= 1;
        (SimTime(node.at), event)
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // An event is in `past` because it was earlier than the frontier
        // when pushed; the frontier never moves back and nothing in the
        // wheel is earlier than it, so `past` drains first.
        if let Some(Reverse((_, _, i))) = self.past.pop() {
            return Some(self.release(i));
        }
        // Fast path for the simulator's steady state: the cursor already
        // rests on an occupied slot (same-instant bursts, cascaded slots
        // being drained).
        (self.l0.at_cursor() || self.locate()).then(|| self.pop_slot())
    }

    /// Drop all pending events and reset the tie-break sequence, keeping
    /// the slab's capacity. A cleared queue behaves exactly like a fresh
    /// one — ordering is total over `(time, seq)`, so retained capacity
    /// cannot affect pop order — which makes recycling queues across
    /// simulation runs safe for determinism.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.slots.fill(EMPTY);
        self.l0 = Level::NEW;
        self.l1 = Level::NEW;
        self.l2 = Level::NEW;
        self.past.clear();
        self.next_seq = 0;
        self.len = 0;
    }

    /// The firing time of the earliest pending event. Does not move the
    /// cursors: when level 0 is empty it scans the first occupied
    /// higher-level slot — all earlier slots are provably empty, so its
    /// minimum is the wheel's minimum.
    pub fn peek_time(&self) -> Option<SimTime> {
        let slot = if let Some(s) = self.l0.next() {
            s
        } else if let Some(s) = self.l1.next() {
            L1_BASE + s
        } else if let Some(s) = self.l2.next() {
            L2_BASE + s
        } else {
            OVERFLOW
        };
        let past = self.past.peek().map(|&Reverse((at, _, _))| at);
        self.times(slot).chain(past).min().map(SimTime)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
#[path = "../tests/queue_model/mod.rs"]
mod queue_model;

#[cfg(test)]
mod tests {
    use super::queue_model::{op_strategy, steps, HeapModel, Step};
    use super::*;
    use proptest::prelude::*;

    /// Run a test body against the wheel and against the heap model, so a
    /// hand-written expectation also pins the reference the proptests
    /// compare the wheel with.
    macro_rules! on_both {
        (|$q:ident| $body:block) => {{
            let mut $q = EventQueue::new();
            $body
            let mut $q = HeapModel::new();
            $body
        }};
    }

    impl<E> EventQueue<E> {
        /// Every node is linked exactly once — in a slot, in `past` or on
        /// the free list — and the linked ones are the `len()` queued
        /// events; a slot's bit is set iff it has a head.
        fn check_slab(&self) {
            let mut linked = vec![false; self.nodes.len()];
            let mut visit = |i: u32, queued: bool| {
                let was = std::mem::replace(&mut linked[i as usize], true);
                assert!(!was, "node {i} is linked twice");
                assert_eq!(self.nodes[i as usize].event.is_some(), queued, "node {i}");
            };
            let mut queued = 0;
            for (s, slot) in self.slots.iter().enumerate() {
                let (mut i, mut last) = (slot.head, NIL);
                while i != NIL {
                    visit(i, true);
                    queued += 1;
                    last = i;
                    i = self.nodes[i as usize].next;
                }
                assert!(
                    slot.head == NIL || slot.tail == last,
                    "slot {s}: tail is not the last node"
                );
                let occupied = match s {
                    OVERFLOW => continue,
                    s if s >= L2_BASE => self.l2.is_set(s - L2_BASE),
                    s if s >= L1_BASE => self.l1.is_set(s - L1_BASE),
                    s => self.l0.is_set(s),
                };
                assert_eq!(occupied, slot.head != NIL, "slot {s}: bitmap disagrees with its list");
            }
            for &Reverse((_, _, i)) in self.past.iter() {
                visit(i, true);
                queued += 1;
            }
            let mut i = self.free;
            while i != NIL {
                visit(i, false);
                i = self.nodes[i as usize].next;
            }
            assert_eq!(queued, self.len(), "queued nodes vs len()");
            assert!(linked.iter().all(|&l| l), "a node is neither queued nor free");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slab_invariants_hold_after_every_op(
            ops in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            for step in steps(&ops) {
                match step {
                    Step::Push(t, tag) => q.push(SimTime(t), tag),
                    Step::Pop => {
                        q.pop();
                    }
                    Step::Clear => {
                        let capacity = q.nodes.capacity();
                        q.clear();
                        prop_assert!(q.is_empty() && q.nodes.is_empty());
                        prop_assert_eq!(q.nodes.capacity(), capacity);
                    }
                }
                q.check_slab();
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        on_both!(|q| {
            q.push(SimTime::from_millis(30), "c");
            q.push(SimTime::from_millis(10), "a");
            q.push(SimTime::from_millis(20), "b");
            assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
            assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
            assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn ties_break_in_insertion_order() {
        on_both!(|q| {
            let t = SimTime::from_millis(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        });
    }

    #[test]
    fn peek_time_matches_pop() {
        on_both!(|q| {
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_millis(7), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
        });
    }

    #[test]
    fn far_future_and_interleaved_pops() {
        // Times spanning every level: same-µs burst, level-1, level-2,
        // overflow, and a push behind the frontier after a pop.
        on_both!(|q| {
            q.push(SimTime(3), 3);
            q.push(SimTime(70_000_000), 70); // ≈ 70 s: beyond level 2
            q.push(SimTime(500_000), 500); // level 2
            q.push(SimTime(2_000), 2); // level 1
            q.push(SimTime(3), 4); // same instant, later seq
            assert_eq!(q.pop(), Some((SimTime(3), 3)));
            assert_eq!(q.pop(), Some((SimTime(3), 4)));
            q.push(SimTime(1), 1); // behind the frontier
            assert_eq!(q.pop(), Some((SimTime(1), 1)));
            assert_eq!(q.pop(), Some((SimTime(2_000), 2)));
            assert_eq!(q.peek_time(), Some(SimTime(500_000)));
            assert_eq!(q.pop(), Some((SimTime(500_000), 500)));
            assert_eq!(q.pop(), Some((SimTime(70_000_000), 70)));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn monotone_schedule_never_reaches_past() {
        // The simulator's pattern: every push is at or after the instant
        // last popped, often at that very instant. Includes the last slot
        // of a level-0 window, and windows opened from levels 1 and 2.
        let (mut q, mut now) = (EventQueue::new(), 0);
        for t in [5, 1_023, 5_000, 900_000] {
            q.push(SimTime(t), 0);
            assert_eq!(q.pop(), Some((SimTime(t), 0)));
            q.push(SimTime(t), 1);
            assert!(q.past.is_empty(), "a push at {t} went behind the frontier");
            assert_eq!(q.pop(), Some((SimTime(t), 1)));
            now = t;
        }
        let mut x = 0x9E37_79B9_u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(3) {
                if let Some((t, _)) = q.pop() {
                    now = t.as_micros();
                }
            } else {
                let ahead = match x % 4 {
                    0 => 0,
                    1 => x % 7,
                    2 => x % 5_000,
                    _ => x % 2_000_000,
                };
                q.push(SimTime(now + ahead), i);
            }
            assert!(q.past.is_empty(), "push {i} went behind the frontier at {now}");
        }
    }

    #[test]
    fn cleared_queue_behaves_like_fresh() {
        on_both!(|q| {
            for i in 0..50 {
                q.push(SimTime(i * 997 % 4000), i);
            }
            q.pop();
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
            // Seq restarts: same-instant ordering matches a fresh queue.
            q.push(SimTime(9), 1);
            q.push(SimTime(9), 2);
            assert_eq!(q.pop(), Some((SimTime(9), 1)));
            assert_eq!(q.pop(), Some((SimTime(9), 2)));
        });
    }

    #[test]
    fn wheel_matches_heap_on_a_dense_schedule() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapModel::new();
        // Deterministic pseudo-random mix of pushes and pops.
        let mut x: u64 = 0x2545F491;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(3) {
                assert_eq!(wheel.pop(), heap.pop());
            } else {
                let t = match x % 7 {
                    0..=2 => x % 1_000,                // level 0
                    3 | 4 => x % 200_000,              // level 1
                    5 => x % 50_000_000,               // level 2
                    _ => 60_000_000 + x % 100_000_000, // overflow
                };
                wheel.push(SimTime(t), i);
                heap.push(SimTime(t), i);
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
