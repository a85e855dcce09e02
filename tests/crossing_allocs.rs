//! Heap budgets of the crossing path: allocations per ISA crossing, and
//! bytes retained per served request.
//!
//! A crossing moves one 128-byte descriptor across the link. The only
//! heap allocation it needs is the wire buffer handed to the DMA ring;
//! the host retains descriptors, not extra copies of their bytes, and
//! the per-thread table grows once and is reused. A served request's
//! task is reaped at exit and its per-thread record goes with it, so a
//! long serving run holds no state for requests already done.
//!
//! A counting global allocator tallies allocations and net live bytes
//! per thread, so tests running in parallel do not pollute each other's
//! counts. Each case runs the same workload at two sizes and divides
//! the difference by the difference in crossings or requests, which
//! cancels the fixed cost of a run (the outcome's stats snapshot,
//! first-touch map growth, decoded text).

use flick::{handlers, Machine};
use flick_sim::TraceConfig;
use flick_workloads::nullcall::null_call_program;
use flick_workloads::serving::{build_serving_fleet, gen_requests, ServingScenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note_alloc(bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    note_bytes(bytes);
}

fn note_bytes(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_bytes(-(layout.size() as i64));
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

/// Serves `requests` requests of a 12-tenant fleet at 30k requests per
/// simulated second and returns the heap bytes the run left allocated
/// while the machine lives on (the report is dropped first).
fn bytes_retained_by_serving(requests: usize) -> i64 {
    let cfg = ServingScenario {
        tenants: 12,
        requests,
        offered_rps: 30_000.0,
        ..ServingScenario::default()
    };
    let (mut m, tenants) = build_serving_fleet(&cfg).expect("fleet");
    let reqs = gen_requests(&cfg);
    let before = LIVE_BYTES.with(Cell::get);
    let report = m
        .run_serving(&tenants, &reqs, u64::MAX, cfg.quantum)
        .expect("serving run");
    assert_eq!(report.completions.len(), requests);
    drop(report);
    let retained = LIVE_BYTES.with(Cell::get) - before;
    drop(m);
    retained
}

#[test]
fn serving_retains_no_state_per_reaped_request() {
    let (r1, r2) = (
        bytes_retained_by_serving(1_000),
        bytes_retained_by_serving(2_000),
    );
    let per = (r2 - r1) as f64 / 1_000.0;
    assert!(per <= 64.0, "{per:.1} bytes retained per reaped request");
}
