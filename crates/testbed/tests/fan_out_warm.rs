//! A fan-out's helper threads start on warm replay contexts.
//!
//! A pool helper lives for one fan-out. It adopts a context an earlier
//! helper parked and parks it again when it ends, so only the first
//! fan-out of a process builds its helpers' machinery. Without that, each
//! fan-out's helper built a context from nothing: about 1 300 allocations,
//! paid again by every fan-out.
//!
//! The counter is this binary's own `#[global_allocator]`, one atomic for
//! the whole process, so it sees the helper threads; `alloc_steady.rs`
//! counts per thread and cannot. This binary holds a single test, so
//! nothing else in the process allocates while it measures.

use h2push_strategies::Strategy;
use h2push_testbed::{run_cells, set_worker_threads, RunPlan};
use h2push_webmodel::{generate_set, CorpusKind, ResourceId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Heap blocks the process has asked for.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`; the counter
// is an atomic that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SITES_PER_FAN_OUT: usize = 4;
const REPS: usize = 31;

#[test]
fn a_later_fan_out_runs_its_helper_on_a_parked_context() {
    // Two threads, the caller and one helper, as `grid` runs on two
    // cores. Each fan-out is one strategy column over sites no earlier
    // fan-out loaded, like `grid`'s chunks. The plans are unprepared: a
    // prepared page's HPACK memos fill on its first loads, a cost that
    // would hide the helper's.
    set_worker_threads(Some(2));
    let sites = generate_set(CorpusKind::Random, 3 * SITES_PER_FAN_OUT, 7);
    let strategy = Strategy::PushList { order: (1..=5).map(ResourceId).collect() };
    let fan_outs: Vec<Vec<RunPlan>> = sites
        .chunks(SITES_PER_FAN_OUT)
        .map(|chunk| {
            chunk
                .iter()
                .map(|page| RunPlan::new(page).strategy(strategy.clone()).seed(42).reps(REPS))
                .collect()
        })
        .collect();

    let per_replay: Vec<f64> = fan_outs
        .iter()
        .map(|cells| {
            let mut lost = Vec::new();
            let before = ALLOCS.load(Ordering::Relaxed);
            let runs = run_cells(cells, |out| out.outcome.load.onload, &mut lost);
            let n = ALLOCS.load(Ordering::Relaxed) - before;
            assert!(lost.is_empty(), "lost repetitions: {lost:?}");
            assert!(runs.iter().flatten().all(Option::is_some), "a load never finished");
            n as f64 / (SITES_PER_FAN_OUT * REPS) as f64
        })
        .collect();
    set_worker_threads(None);

    // The shape of one `grid` chunk: 4 cells of 31 reps. Measured here,
    // per replay by fan-out: 30.6 / 12.3 / 4.4, optimized and debug alike.
    // With helpers that start cold, as before contexts were parked, the
    // third fan-out read 15.25 in both builds: each fan-out's helper built
    // its context from nothing.
    assert!(per_replay[2] <= 8.0, "allocations per replay, by fan-out: {per_replay:.2?}");
}
