//! A tiny scoped-thread indexed fan-out.
//!
//! Fan-outs do not nest. Every caller flattens its work into one index
//! space first — [`RunPlan::run`](crate::RunPlan::run) over reps, a
//! [`SweepPlan`](crate::SweepPlan) over (cell × rep), an experiment driver
//! over (cell × rep) per phase — and makes a single [`parallel_indexed`]
//! call, so the thread count is simply `min(worker_threads(), n)` and no
//! process-wide accounting is needed. A closure passed to
//! `parallel_indexed` must not reach another `parallel_indexed`: it would
//! still compute the right answer, on `worker_threads()²` threads.
//!
//! A fan-out's helper threads live for that one call, but their replay
//! contexts do not: each helper holds a `driver::HelperCtx` for its
//! whole life, so it starts on a context an earlier fan-out's helper
//! parked and parks it again at the join. A later fan-out's helpers
//! start warm; the calling thread keeps its own context as always.

use crate::driver::HelperCtx;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Explicit worker budget (total threads, calling thread included);
/// `0` means "derive from `available_parallelism`".
static WORKER_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Pin the worker budget of every later fan-out to exactly `threads` total
/// threads (the calling thread counts as one, so `Some(1)` forces fully
/// serial execution and `Some(4)` allows three extra workers — even above
/// the physical core count, which the equality tests use to prove
/// byte-equality at any width). `None` restores the default
/// `available_parallelism` budget.
pub fn set_worker_threads(threads: Option<usize>) {
    WORKER_THREADS_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The effective total worker budget (calling thread included).
pub fn worker_threads() -> usize {
    match WORKER_THREADS_OVERRIDE.load(Ordering::Relaxed) {
        0 => cores(),
        n => n,
    }
}

/// Run `f(0..n)` on up to [`worker_threads`] threads and return the
/// results in index order.
///
/// Work items are handed out through an atomic counter; each worker
/// (including the calling thread) accumulates `(index, result)` pairs in a
/// private vector, and the pairs are merged into their final slots after
/// the scope joins — no locks, no shared mutable buffer. With a budget of
/// one thread, or a single item, the loop runs on the caller.
pub fn parallel_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // The calling thread works too, so it spawns one thread fewer than
    // the budget (and never more than there are items to hand out).
    let extra = worker_threads().min(n).saturating_sub(1);
    if extra == 0 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let run = |local: &mut Vec<(usize, U)>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        local.push((i, f(i)));
    };
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..extra)
            .map(|_| {
                s.spawn(|| {
                    let _ctx = HelperCtx::adopt();
                    let mut local = Vec::new();
                    run(&mut local);
                    local
                })
            })
            .collect();
        let mut local = Vec::new();
        run(&mut local);
        let mut parts = vec![local];
        for h in handles {
            parts.push(h.join().expect("pool worker panicked"));
        }
        parts
    });
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, u) in part {
            slots[i] = Some(u);
        }
    }
    slots.into_iter().map(|o| o.expect("every index ran exactly once")).collect()
}

/// Serializes the unit tests that pin the (process-wide) thread budget.
#[cfg(test)]
pub(crate) static BUDGET_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = parallel_indexed(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(parallel_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn thread_override_caps_the_threads_a_fan_out_uses() {
        let _g = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let threads_used = |n: usize| {
            let ids = parallel_indexed(n, |_| {
                // Long enough for every spawned worker to claim an item.
                std::thread::sleep(std::time::Duration::from_millis(2));
                std::thread::current().id()
            });
            ids.into_iter().collect::<std::collections::HashSet<_>>().len()
        };
        set_worker_threads(Some(1));
        assert_eq!(threads_used(8), 1, "one total thread means no extra workers");
        set_worker_threads(Some(3));
        assert!(threads_used(64) <= 3, "three total threads allow at most two extras");
        // Never more threads than items, whatever the budget — and the
        // override may exceed the physical core count.
        set_worker_threads(Some(64));
        assert_eq!(worker_threads(), 64);
        assert!(threads_used(2) <= 2);
        set_worker_threads(None);
        assert_eq!(worker_threads(), cores());
    }
}
