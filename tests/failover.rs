//! Fleet-level failure domains: seeded device chaos (NxP crash, hang,
//! hot-unplug, rejoin) layered on top of link-level chaos.
//!
//! The failover orchestrator must make device death invisible to the
//! *programs*: every victim thread is re-placed onto a surviving NxP
//! (or host-side emulation when the fleet is gone) and completes with
//! the same exit code as a fault-free run. The task census must show
//! every spawned thread exactly-once exited — nothing lost, nothing
//! duplicated — and because both the link plan and the device schedule
//! are seeded, every run must replay bit-identically.

use flick::{BreakerState, Machine, Topology};
use flick_isa::{abi, FuncBuilder, TargetIsa};
use flick_sim::{DeviceEvent, DeviceFaultKind, FaultPlan, Picos, TraceConfig};
use flick_toolchain::ProgramBuilder;

/// A process that ships `calls` chunks of spin work to the NxP and
/// exits with `calls * spin + tag`. The NxP function is pure, so
/// at-least-once re-execution after a device death is harmless.
fn worker(calls: i64, spin: i64, tag: i64) -> ProgramBuilder {
    let mut p = ProgramBuilder::new("worker");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    let lp = main.new_label();
    main.li(abi::S1, calls);
    main.li(abi::S2, 0);
    main.bind(lp);
    main.li(abi::A0, spin);
    main.call("nxp_spin");
    main.add(abi::S2, abi::S2, abi::A0);
    main.addi(abi::S1, abi::S1, -1);
    main.bne(abi::S1, abi::ZERO, lp);
    main.li(abi::T0, tag);
    main.add(abi::A0, abi::S2, abi::T0);
    main.call("flick_exit");
    p.func(main.finish());
    let mut f = FuncBuilder::new("nxp_spin", TargetIsa::Nxp);
    let sl = f.new_label();
    let done = f.new_label();
    f.li(abi::T0, 0);
    f.bind(sl);
    f.bge(abi::T0, abi::A0, done);
    f.addi(abi::T0, abi::T0, 1);
    f.jmp(sl);
    f.bind(done);
    f.mv(abi::A0, abi::T0);
    f.ret();
    p.func(f.finish());
    p
}

const PROCS: i64 = 4;
const CALLS: i64 = 4;
const SPIN: i64 = 600;

/// Runs the fleet workload on `topology` with `plan` (if any) and
/// returns the machine plus per-pid `(pid, exit_code)` pairs.
fn run_fleet(topology: Topology, plan: Option<FaultPlan>) -> (Machine, Vec<(u64, u64)>) {
    let mut b = Machine::builder().topology(topology).trace(TraceConfig {
        enabled: true,
        capacity: 1 << 20,
    });
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    let mut m = b.build();
    let mut pids = Vec::new();
    for tag in 0..PROCS {
        pids.push(m.load_program(&mut worker(CALLS, SPIN, tag * 100_000)).unwrap());
    }
    let done = m.run_concurrent(&pids, u64::MAX / 2).unwrap();
    // Keyed by pid: failover legitimately changes *completion order*,
    // never results.
    let mut codes: Vec<(u64, u64)> = done.iter().map(|(pid, o)| (*pid, o.exit_code)).collect();
    codes.sort_unstable();
    (m, codes)
}

/// Asserts the exactly-once census invariant: no live threads remain,
/// and the exited set equals the spawned set with no duplicates.
fn assert_census(m: &Machine, spawned: &[u64], label: &str) {
    let (live, mut exited) = m.task_census();
    assert!(live.is_empty(), "{label}: threads still live: {live:?}");
    exited.sort_unstable();
    let mut want: Vec<u64> = spawned.to_vec();
    want.sort_unstable();
    assert_eq!(exited, want, "{label}: exited set != spawned set");
}

#[test]
fn device_chaos_soak_is_result_invisible() {
    // ≥12 seeds mixing link faults with device crash/hang/unplug/rejoin
    // on a 2×3 fleet. Exit codes must match the fault-free twin; the
    // task census must balance on every seed.
    let topo = Topology::new(2, 3);
    let (clean_m, clean) = run_fleet(topo, None);
    let horizon = clean_m.host_now();
    assert!(horizon > Picos::ZERO);

    let mut deaths = 0u64;
    let mut scheduled = 0usize;
    for seed in 1..=12u64 {
        let plan = FaultPlan::chaos(seed)
            .with_device_events(FaultPlan::device_chaos(seed, 3, horizon));
        scheduled += plan.device_events().len();
        let (m, codes) = run_fleet(topo, Some(plan));
        assert_eq!(codes, clean, "seed {seed}: results diverged from clean twin");
        let pids: Vec<u64> = codes.iter().map(|(pid, _)| *pid).collect();
        assert_census(&m, &pids, &format!("seed {seed}"));
        deaths += (0..3).map(|n| m.nxp_health(n).unwrap().deaths).sum::<u64>();
    }
    assert!(scheduled > 0, "device chaos must schedule events");
    assert!(deaths > 0, "the soak must actually kill NxPs");
}

#[test]
fn device_chaos_replays_bit_identically() {
    let topo = Topology::new(2, 3);
    let (clean_m, _) = run_fleet(topo, None);
    let horizon = clean_m.host_now();
    let mk = || {
        FaultPlan::chaos(0xFA11)
            .with_device_events(FaultPlan::device_chaos(0xFA11, 3, horizon))
    };
    let (m1, c1) = run_fleet(topo, Some(mk()));
    let (m2, c2) = run_fleet(topo, Some(mk()));
    assert_eq!(c1, c2);
    assert_eq!(m1.host_now(), m2.host_now());
    assert_eq!(m1.trace().events(), m2.trace().events());
}

#[test]
fn empty_device_schedule_is_timeline_inert() {
    // A plan that merely *mentions* the device-event API without
    // scheduling anything must be indistinguishable from no plan at
    // all: no RNG draws, no clock changes, no trace changes.
    let topo = Topology::new(2, 3);
    let (base_m, base) = run_fleet(topo, None);
    let plan = FaultPlan::none().with_device_events(std::iter::empty());
    assert!(!plan.has_device_events());
    let (none_m, none) = run_fleet(topo, Some(plan));
    assert_eq!(base, none);
    assert_eq!(base_m.host_now(), none_m.host_now());
    assert_eq!(base_m.trace().events(), none_m.trace().events());
    for key in ["nxp_deaths", "nxp_rejoins", "failover_replacements", "failover_reexecutions"] {
        assert_eq!(none_m.stats().get(key), 0, "counter {key} moved on an inert plan");
    }
}

#[test]
fn targeted_crash_fails_over_to_survivor() {
    // Kill NxP 1 of a 1×2 machine mid-run: round-robin placement keeps
    // steering calls at it, so the crash must be detected (retry budget
    // exhaustion — crashed devices never answer) and the victim work
    // re-placed on NxP 0. Results stay correct.
    let topo = Topology::new(1, 2);
    let (clean_m, clean) = run_fleet(topo, None);
    let mid = Picos::from_nanos(clean_m.host_now().as_nanos() / 4);
    let plan = FaultPlan::none().with_device_event(DeviceEvent {
        nxp: 1,
        kind: DeviceFaultKind::Crash,
        at: mid,
        rejoin_at: None,
    });
    let (m, codes) = run_fleet(topo, Some(plan));
    assert_eq!(codes, clean, "failover changed program results");
    let pids: Vec<u64> = codes.iter().map(|(pid, _)| *pid).collect();
    assert_census(&m, &pids, "targeted crash");

    assert_eq!(m.stats().get("nxp_deaths"), 1);
    let h = m.nxp_health(1).unwrap();
    assert_eq!(h.deaths, 1);
    assert_eq!(h.breaker, BreakerState::Open);
    assert!(
        m.stats().get("failover_replacements") + m.stats().get("failover_reexecutions") >= 1,
        "victim work must be re-placed or re-executed"
    );
    // Dead device excluded from placement: everything after the death
    // ran on NxP 0, and nothing degraded to host emulation.
    assert_eq!(m.stats().get("migrations_degraded"), 0);
}

#[test]
fn unplug_with_rejoin_probes_and_closes_the_breaker() {
    // Hot-unplug NxP 1 early, plug it back in at mid-run. The host must
    // see the unplug instantly (presence detect at the doorbell), open
    // the breaker, then on rejoin go half-open, route one probe, and
    // close the breaker when the probe round-trips.
    let topo = Topology::new(1, 2);
    let (clean_m, clean) = run_fleet(topo, None);
    let end = clean_m.host_now().as_nanos();
    let plan = FaultPlan::none().with_device_event(DeviceEvent {
        nxp: 1,
        kind: DeviceFaultKind::Unplug,
        at: Picos::from_nanos(end / 8),
        rejoin_at: Some(Picos::from_nanos(end / 3)),
    });
    let (m, codes) = run_fleet(topo, Some(plan));
    assert_eq!(codes, clean, "unplug/rejoin changed program results");
    let pids: Vec<u64> = codes.iter().map(|(pid, _)| *pid).collect();
    assert_census(&m, &pids, "unplug/rejoin");

    let h = m.nxp_health(1).unwrap();
    assert_eq!(h.deaths, 1, "exactly one death");
    assert_eq!(h.recoveries, 1, "the probe must close the breaker");
    assert_eq!(h.breaker, BreakerState::Closed);
    assert_eq!(m.stats().get("nxp_rejoins"), 1);
    assert!(m.stats().get("nxp_probes_ok") >= 1);
    // After recovery both NxPs serve work again.
    let per_core = m.per_core_stats();
    for want in [flick_sim::CoreId::nxp(0), flick_sim::CoreId::nxp(1)] {
        let (_, stats) = per_core.iter().find(|(core, _)| *core == want).unwrap();
        assert!(stats.get("instructions") > 0, "{want} never ran");
    }
}

#[test]
fn double_failure_still_balances_the_census() {
    // Two of three NxPs die at staggered times (one comes back); NxP 0
    // carries the fleet in between. Nothing lost, nothing duplicated.
    let topo = Topology::new(2, 3);
    let (clean_m, clean) = run_fleet(topo, None);
    let end = clean_m.host_now().as_nanos();
    let plan = FaultPlan::chaos(0xD0B1)
        .with_device_event(DeviceEvent {
            nxp: 1,
            kind: DeviceFaultKind::Crash,
            at: Picos::from_nanos(end / 6),
            rejoin_at: Some(Picos::from_nanos(end / 2)),
        })
        .with_device_event(DeviceEvent {
            nxp: 2,
            kind: DeviceFaultKind::Hang,
            at: Picos::from_nanos(end / 4),
            rejoin_at: None,
        });
    let (m, codes) = run_fleet(topo, Some(plan));
    assert_eq!(codes, clean, "double failure changed program results");
    let pids: Vec<u64> = codes.iter().map(|(pid, _)| *pid).collect();
    assert_census(&m, &pids, "double failure");
    assert!(m.stats().get("nxp_deaths") >= 1, "at least one death detected");
}

#[test]
fn failover_lifecycle_is_traced() {
    // The death of an NxP must leave a legible audit trail: device
    // fault → declared dead → descriptors reaped, and the rendered
    // timeline must mention the failover.
    use flick_sim::Event;

    let topo = Topology::new(1, 2);
    let (clean_m, _) = run_fleet(topo, None);
    let mid = Picos::from_nanos(clean_m.host_now().as_nanos() / 4);
    let plan = FaultPlan::none().with_device_event(DeviceEvent {
        nxp: 1,
        kind: DeviceFaultKind::Unplug,
        at: mid,
        rejoin_at: None,
    });
    let (m, _) = run_fleet(topo, Some(plan));
    let events: Vec<&Event> = m.trace().events().iter().map(|(_, e)| e).collect();
    let fault = events
        .iter()
        .position(|e| matches!(e, Event::DeviceFault { nxp: 1, .. }))
        .expect("DeviceFault traced");
    let dead = events
        .iter()
        .position(|e| matches!(e, Event::NxpDeclaredDead { nxp: 1 }))
        .expect("NxpDeclaredDead traced");
    assert!(fault <= dead, "fault observed before declaration");
    let text = flick::timeline::format(m.trace());
    assert!(text.contains("declare nxp1 dead"), "timeline renders the death");
}
