//! Golden digests of the two-ISA machine's whole observable timeline.
//!
//! Exit codes, simulated clocks, stats, the full event trace with core
//! tags, per-core stats and observability spans of x64/rv64 fleets are
//! folded into one digest per configuration: 1×1 and 2×2 fleets clean
//! and under eight chaos+device-chaos seeds, a clean 4×4 fleet with
//! eight processes, and a 2×3 fleet under the same eight seeds. Every
//! configuration is also built and run twice, and the two fingerprints
//! must match exactly: nothing outside the seed may show through.
//!
//! To re-capture after an *intentional* timing change, run with
//! `FLICK_GOLDEN_PRINT=1` and paste the printed table:
//! `FLICK_GOLDEN_PRINT=1 cargo test --test isa_goldens -- --nocapture`

mod common;

use common::{horizon, run_fleet};
use flick::Topology;
use flick_sim::FaultPlan;

/// FNV-1a 64 over the fingerprint text.
fn digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One golden digest per (topology, plan); seed 0 = clean run.
fn golden_digest(hosts: usize, nxps: usize, procs: i64, seed: u64) -> u64 {
    let topo = Topology::new(hosts, nxps);
    let plan = if seed == 0 {
        None
    } else {
        let h = horizon(topo, procs);
        Some(FaultPlan::chaos(seed).with_device_events(FaultPlan::device_chaos(seed, 3, h)))
    };
    let base = run_fleet(topo, procs, plan.clone());
    // Compared as text, not printed: a fingerprint runs to megabytes.
    assert!(
        base == run_fleet(topo, procs, plan),
        "{hosts}x{nxps} seed={seed}: a rerun gave a different fingerprint"
    );
    digest(&base)
}

/// Pinned digests, captured on the pre-refactor tree. Chaos-seed rows
/// (seed > 0) were re-captured after the wake-up path switched from
/// due-time MSI scanning to exact-instant claiming
/// ([`flick_pcie::InterruptController::take_vector_at`]): the old scan
/// let a waiter consume a neighbour's earlier interrupt when several
/// threads were suspended on one channel, and these digests had pinned
/// that misdelivery. Clean rows (seed 0) are untouched by the fix.
/// The 4×4 and 2×3 rows were captured before the parallel leg engine
/// was removed.
/// Rows: (hosts, nxps, procs, seed, digest).
const GOLDENS: &[(usize, usize, i64, u64, u64)] = &[
    (1, 1, 3, 0, 0x8f3702d38d011ffb),
    (1, 1, 3, 1, 0xd8167aebe215a507),
    (1, 1, 3, 2, 0x0d1ed9b6eaf62764),
    (1, 1, 3, 3, 0xafbc50be6f8648dd),
    (1, 1, 3, 4, 0x2e079c33188cda84),
    (1, 1, 3, 5, 0x50dc20f0ae597bdf),
    (1, 1, 3, 6, 0x49cb19e8e31eea75),
    (1, 1, 3, 7, 0x3103433bd519eec0),
    (1, 1, 3, 8, 0x891c6f09ec830bd9),
    (2, 2, 4, 0, 0xc109327af365062e),
    (2, 2, 4, 1, 0x593526437662a0d4),
    (2, 2, 4, 2, 0x6cf0c57dd1504292),
    (2, 2, 4, 3, 0xfccf09227701ca5b),
    (2, 2, 4, 4, 0xb5b4dff4850661a4),
    (2, 2, 4, 5, 0x970d2f510e02220d),
    (2, 2, 4, 6, 0xf44975d81dd546c7),
    (2, 2, 4, 7, 0x017330a4674ee48d),
    (2, 2, 4, 8, 0x6c880d8ca29a5aa8),
    (4, 4, 8, 0, 0xa3540431f73f64bf),
    (2, 3, 4, 1, 0x080f7872935d9e64),
    (2, 3, 4, 2, 0x906ad81235405b0b),
    (2, 3, 4, 3, 0x2985cf9faa3dedd8),
    (2, 3, 4, 4, 0x487f3692c5f4a4af),
    (2, 3, 4, 5, 0x0fe4f2805dc8947a),
    (2, 3, 4, 6, 0x51db62b78de5304a),
    (2, 3, 4, 7, 0x3bf614a5bb89f480),
    (2, 3, 4, 8, 0x28cabdd4cb21b3ea),
];

#[test]
fn two_isa_fleet_digests_are_pinned() {
    let print = std::env::var("FLICK_GOLDEN_PRINT").is_ok();
    for &(hosts, nxps, procs, seed, want) in GOLDENS {
        let got = golden_digest(hosts, nxps, procs, seed);
        if print {
            println!("    ({hosts}, {nxps}, {procs}, {seed}, {got:#018x}),");
        } else {
            assert_eq!(
                got, want,
                "{hosts}x{nxps} seed={seed}: golden digest moved \
                 ({got:#018x} != pinned {want:#018x})"
            );
        }
    }
}
