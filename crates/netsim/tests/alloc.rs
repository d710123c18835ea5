//! What the event core allocates, as a plain test: every queued event
//! lives in one slab, so a cold `Network` allocates as that slab doubles —
//! not once per wheel slot its events touch — and a reset one, whose slab
//! is already as large as the transfer needs, allocates nothing.
//!
//! The counter is this binary's own `#[global_allocator]`, counting per
//! thread, so the harness cannot disturb a count.

use h2push_netsim::{Dir, NetEvent, Network, NetworkSpec, ServerSpec};
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

const TRANSFER: usize = 2_000_000;

/// Connect to one server and move [`TRANSFER`] bytes down to the client.
fn transfer(net: &mut Network) {
    let server = net.add_server(ServerSpec::default());
    let conn = net.connect(server);
    let mut got = 0;
    while let Some((_, ev)) = net.step() {
        match ev {
            NetEvent::Connected { .. } => net.send(conn, Dir::Down, TRANSFER),
            NetEvent::Delivered { dir: Dir::Down, bytes, .. } => got += bytes,
            _ => {}
        }
    }
    assert_eq!(got, TRANSFER);
}

#[test]
fn a_cold_network_allocates_per_doubling_and_a_reset_one_not_at_all() {
    let spec = NetworkSpec::dsl_testbed();
    let (cold, mut net) = allocs_during(|| {
        let mut net = Network::new(spec.clone());
        transfer(&mut net);
        net
    });
    // 13 when written: the slot array, the server and connection tables
    // and the slab's doublings. A wheel whose slots own their storage
    // allocates once per slot first touched, 1 796 times here.
    assert!(cold <= 32, "a cold 2 MB transfer allocated {cold} times");

    let (warm, ()) = allocs_during(|| {
        net.reset(spec);
        transfer(&mut net);
    });
    assert_eq!(warm, 0, "the same transfer through a reset network");
}
