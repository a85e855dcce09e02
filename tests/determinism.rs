//! Determinism across host threads.
//!
//! A `Machine` keeps all of its state to itself: nothing global, nothing
//! thread-local, nothing that depends on OS scheduling. So the same
//! configuration run alone, or as two or four copies on as many OS
//! threads at once (one machine per thread), must produce bit-identical
//! timelines — exit codes, simulated clocks, counters, the full event
//! trace with core tags, per-core stats and observability spans. These
//! tests sweep clean 1×1/2×2/4×4 fleets and a 2×3 fleet under eight
//! seeded chaos+device-chaos schedules. The pinned digests of the same
//! configurations live in `isa_goldens.rs`.

mod common;

use common::{horizon, run_fleet};
use flick::Topology;
use flick_sim::FaultPlan;

/// Asserts two fingerprints match, pointing at the first diverging
/// line rather than dumping megabytes of trace.
fn assert_same(label: &str, want: &str, got: &str) {
    if want == got {
        return;
    }
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "{label}: first divergence at fingerprint line {i}");
    }
    panic!(
        "{label}: fingerprints differ in length ({} vs {} lines)",
        want.lines().count(),
        got.lines().count()
    );
}

/// Runs the configuration alone, then as `threads` simultaneous copies
/// on as many OS threads for `threads ∈ {2, 4}`, and asserts every
/// copy's fingerprint equals the lone run's.
fn assert_identical_across_thread_counts(
    label: &str,
    topo: Topology,
    procs: i64,
    plan: Option<FaultPlan>,
) {
    let base = run_fleet(topo, procs, plan.clone());
    for threads in [2, 4] {
        let runs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let plan = plan.clone();
                    s.spawn(move || run_fleet(topo, procs, plan))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, got) in runs.iter().enumerate() {
            assert_same(&format!("{label} threads={threads} copy {i}"), &base, got);
        }
    }
}

#[test]
fn clean_fleet_identical_across_thread_counts_1x1() {
    assert_identical_across_thread_counts("1x1", Topology::new(1, 1), 3, None);
}

#[test]
fn clean_fleet_identical_across_thread_counts_2x2() {
    assert_identical_across_thread_counts("2x2", Topology::new(2, 2), 4, None);
}

#[test]
fn wide_fleet_identical_across_thread_counts_4x4() {
    assert_identical_across_thread_counts("4x4", Topology::new(4, 4), 8, None);
}

#[test]
fn chaos_and_failover_seed_sweep_identical_across_thread_counts() {
    // Link chaos + seeded device deaths/rejoins layered together, the
    // harshest replay surface the machine has. The fault-free twin
    // bounds the device-chaos horizon (same recipe as the failover
    // example and tests).
    let topo = Topology::new(2, 3);
    let h = horizon(topo, 4);
    for seed in 1..=8u64 {
        let plan = FaultPlan::chaos(seed).with_device_events(FaultPlan::device_chaos(seed, 3, h));
        assert_identical_across_thread_counts(&format!("seed={seed}"), topo, 4, Some(plan));
    }
}
