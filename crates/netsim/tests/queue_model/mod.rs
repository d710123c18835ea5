//! The reference model and the op generator of the `EventQueue` tests.
//! Compiled twice: as a module of `tests/queue_equiv.rs`, and — included by
//! path — of the unit tests in `src/queue.rs`, which need the queue's
//! private fields. Both parents have `SimTime` in scope.

use super::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `EventQueue`'s contract stated the obvious way: a min-heap over
/// `(time, seq)`. `seq` is unique, so the tag never decides an order.
pub struct HeapModel<T> {
    heap: BinaryHeap<Reverse<(u64, u64, T)>>,
    next_seq: u64,
}

impl<T: Ord> HeapModel<T> {
    pub fn new() -> Self {
        HeapModel { heap: BinaryHeap::new(), next_seq: 0 }
    }

    pub fn push(&mut self, at: SimTime, tag: T) {
        self.heap.push(Reverse((at.as_micros(), self.next_seq, tag)));
        self.next_seq += 1;
    }

    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse((at, _, tag))| (SimTime(at), tag))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| SimTime(*at))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }
}

#[derive(Debug, Clone)]
pub enum Op {
    /// Push one event at the given absolute microsecond.
    Push(u64),
    /// Push `n` events at the same instant (tie-break stress).
    Burst(u64, u8),
    /// Pop once.
    Pop,
    /// Drain up to `n` events.
    PopMany(u8),
    /// Reset the queue (seq restarts; recycled state must be inert).
    Clear,
}

/// One queue call.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Push the event with this tag at this absolute microsecond.
    Push(u64, u64),
    Pop,
    Clear,
}

/// Times spanning every wheel level: level-0 (µs), level-1 (ms),
/// level-2 (sub-minute), the overflow list, and u64 extremes.
pub fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..1_024,
        0u64..262_144,
        0u64..67_000_000,
        0u64..10_000_000_000,
        (u64::MAX - 1_000)..=u64::MAX,
    ]
}

pub fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        time_strategy().prop_map(Op::Push),
        (time_strategy(), 1u8..12).prop_map(|(t, n)| Op::Burst(t, n)),
        Just(Op::Pop),
        (1u8..20).prop_map(Op::PopMany),
        Just(Op::Clear),
    ]
}

/// The calls `ops` stand for, every pushed event with a tag of its own.
pub fn steps(ops: &[Op]) -> Vec<Step> {
    let mut out = Vec::new();
    let mut tag = 0;
    let mut push = |out: &mut Vec<Step>, t: u64, n: u8| {
        for _ in 0..n {
            out.push(Step::Push(t, tag));
            tag += 1;
        }
    };
    for op in ops {
        match *op {
            Op::Push(t) => push(&mut out, t, 1),
            Op::Burst(t, n) => push(&mut out, t, n),
            Op::Pop => out.push(Step::Pop),
            Op::PopMany(n) => out.extend((0..n).map(|_| Step::Pop)),
            Op::Clear => out.push(Step::Clear),
        }
    }
    out
}
