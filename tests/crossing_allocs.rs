//! Heap allocation budget of one ISA crossing.
//!
//! A crossing moves one 128-byte descriptor across the link. The only
//! heap allocation it needs is the wire buffer handed to the DMA ring;
//! the host retains descriptors, not extra copies of their bytes, and
//! the per-thread maps grow once and are reused.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel do not pollute each other's counts. Each case
//! runs the same program at two sizes and divides the difference in
//! allocations by the difference in crossings, which cancels the fixed
//! cost of a run (the outcome's stats snapshot, first-touch map growth).

use flick::{handlers, Machine};
use flick_sim::TraceConfig;
use flick_workloads::nullcall::null_call_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs the null-call program and returns (allocations during the run,
/// crossings the run made). Building and loading happen outside the
/// counted window.
fn run(iterations: u64, nested: bool) -> (u64, u64) {
    let mut p = null_call_program(iterations, nested);
    handlers::add_runtime(&mut p);
    let image = p.build().expect("build");
    let mut m = Machine::builder()
        .trace(TraceConfig {
            enabled: false,
            capacity: 0,
        })
        .build();
    let pid = m.load(&image).expect("load");
    let before = ALLOCS.with(Cell::get);
    let out = m.run(pid).expect("run");
    let allocs = ALLOCS.with(Cell::get) - before;
    let crossings = [
        "migrations_host_to_nxp",
        "returns_host_to_nxp",
        "migrations_nxp_to_host",
        "returns_nxp_to_host",
    ]
    .iter()
    .map(|k| out.stats.get(k))
    .sum();
    (allocs, crossings)
}

/// Marginal heap allocations per crossing between 1k and 2k iterations.
fn allocs_per_crossing(nested: bool) -> f64 {
    let (a1, c1) = run(1_000, nested);
    let (a2, c2) = run(2_000, nested);
    assert!(c2 > c1, "more iterations must make more crossings");
    (a2 - a1) as f64 / (c2 - c1) as f64
}

#[test]
fn plain_null_call_allocates_once_per_crossing() {
    let per = allocs_per_crossing(false);
    assert!(per <= 1.0, "{per:.3} heap allocations per crossing");
}

#[test]
fn nested_null_call_allocates_once_per_crossing() {
    let per = allocs_per_crossing(true);
    assert!(per <= 1.0, "{per:.3} heap allocations per crossing");
}
