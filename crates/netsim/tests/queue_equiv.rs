//! Lockstep equivalence: the timing-wheel `EventQueue` and the
//! binary-heap model must produce identical pop sequences for arbitrary
//! push/pop/clear interleavings — including same-instant bursts,
//! far-future overflow times and pushes behind the pop frontier (which a
//! monotone simulator never issues, but the wheel must still order
//! correctly).

use h2push_netsim::{EventQueue, SimTime};
use proptest::prelude::*;

mod queue_model;
use queue_model::{op_strategy, steps, time_strategy, HeapModel, Step};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_and_heap_pop_identically(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapModel<u64> = HeapModel::new();
        for step in steps(&ops) {
            match step {
                Step::Push(t, tag) => {
                    wheel.push(SimTime(t), tag);
                    heap.push(SimTime(t), tag);
                }
                Step::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                }
                Step::Clear => {
                    wheel.clear();
                    heap.clear();
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain whatever is left in lockstep.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn cleared_and_recycled_queues_match_fresh_ones(
        first in proptest::collection::vec((time_strategy(), Just(())), 1..60),
        second in proptest::collection::vec(time_strategy(), 1..60),
    ) {
        // Fill + partially drain + clear a wheel, then check the recycled
        // instance pops the second schedule exactly like a fresh queue.
        let mut recycled: EventQueue<u64> = EventQueue::new();
        for (i, (t, ())) in first.iter().enumerate() {
            recycled.push(SimTime(*t), i as u64);
        }
        for _ in 0..first.len() / 2 {
            recycled.pop();
        }
        recycled.clear();

        let mut fresh: EventQueue<u64> = EventQueue::new();
        for (i, t) in second.iter().enumerate() {
            recycled.push(SimTime(*t), i as u64);
            fresh.push(SimTime(*t), i as u64);
        }
        loop {
            let (a, b) = (recycled.pop(), fresh.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
