//! What the priority tree allocates, as a plain test: every node lives in
//! one slab with its child list threaded through sibling links, so a reset
//! tree — whose slab and id map are already as large as a run needs —
//! replays the same operations without allocating.
//!
//! The counter is this binary's own `#[global_allocator]`, counting per
//! thread, so the harness cannot disturb a count.

use h2push_h2proto::{PrioritySpec, PriorityTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Heap blocks this thread has asked for (`const`: no lazy
    /// initialisation, so reading it inside the allocator allocates
    /// nothing).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`; the counter
// is a thread-local `Cell` that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn spec(depends_on: u32, weight: u16, exclusive: bool) -> PrioritySpec {
    PrioritySpec { depends_on, weight, exclusive }
}

/// A page load's worth of tree traffic: a Chromium-style exclusive request
/// chain, pushes under the document, reprioritizations (one onto a
/// descendant) and streams closing, their ids reused by later pushes.
/// Returns the most streams the tree held at once.
fn page_load(tree: &mut PriorityTree) -> usize {
    let mut peak = 0;
    let mut prev = 0;
    for id in (1..80).step_by(2) {
        tree.insert(id, spec(prev, 256 - id as u16, true));
        prev = id;
    }
    for id in (2..60).step_by(2) {
        tree.insert(id, spec(1, 16, false));
    }
    peak = peak.max(tree.len());
    tree.reprioritize(3, spec(41, 32, false));
    tree.reprioritize(7, spec(0, 200, true));
    tree.insert(9, spec(9, 64, false));
    for id in 1..40 {
        tree.remove(id);
    }
    for id in (2..30).step_by(2) {
        tree.insert(id, spec(41, 16, id % 4 == 0));
    }
    peak.max(tree.len())
}

#[test]
fn a_reset_tree_replays_a_page_load_without_allocating() {
    let mut tree = PriorityTree::new();
    let (cold, peak) = allocs_during(|| page_load(&mut tree));
    assert!(peak >= 60 && cold > 0, "{peak} streams at once, {cold} allocations cold");
    let before = tree.traversal();
    tree.reset();
    let (warm, _) = allocs_during(|| page_load(&mut tree));
    assert_eq!(warm, 0, "a reset tree allocated while replaying the same operations");
    assert_eq!(tree.traversal(), before, "the replay built a different tree");
}
