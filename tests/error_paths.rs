//! Failure-injection tests: the machine must report crashes and
//! misconfigurations precisely instead of wedging.

use flick::{Machine, RunError};
use flick_cpu::Exception;
use flick_isa::{abi, FuncBuilder, MemSize, TargetIsa};
use flick_sim::trace::Side;
use flick_toolchain::ProgramBuilder;

fn run(build: impl FnOnce(&mut ProgramBuilder)) -> Result<flick::Outcome, RunError> {
    let mut p = ProgramBuilder::new("err");
    build(&mut p);
    let mut m = Machine::paper_default();
    let pid = m.load_program(&mut p)?;
    m.run(pid)
}

#[test]
fn nxp_data_fault_reports_nxp_side() {
    let err = run(|p| {
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.call("nxp_bad");
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_bad", TargetIsa::Nxp);
        f.li(abi::A1, 0x0BAD_0000_0000u64 as i64); // unmapped VA
        f.ld(abi::A0, abi::A1, 0, MemSize::B8);
        f.ret();
        p.func(f.finish());
    });
    match err {
        Err(RunError::Crash { side: Side::Nxp, exception }) => {
            assert!(matches!(exception, Exception::DataFault { write: false, .. }));
        }
        other => panic!("expected NxP crash, got {other:?}"),
    }
}

#[test]
fn nxp_store_to_readonly_text_faults() {
    let err = run(|p| {
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.call("nxp_vandal");
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_vandal", TargetIsa::Nxp);
        // Try to overwrite main's code (text is mapped read-only).
        f.li_sym(abi::A1, "main");
        f.li(abi::T0, 0);
        f.st(abi::T0, abi::A1, 0, MemSize::B8);
        f.ret();
        p.func(f.finish());
    });
    match err {
        Err(RunError::Crash { side: Side::Nxp, exception }) => {
            assert!(matches!(exception, Exception::DataFault { write: true, .. }));
        }
        other => panic!("expected write fault, got {other:?}"),
    }
}

#[test]
fn host_jump_to_data_is_a_crash_not_a_migration() {
    // Data pages carry NX too, but a host jump into .data must be a
    // real crash: the kernel distinguishes "NxP text" from garbage by
    // the fault address — jumping to data reaches the migration
    // handler, the NxP then faults trying to run non-code. Either way
    // the run must terminate with an error, never hang.
    let err = run(|p| {
        p.data(flick_toolchain::DataDef::new("blob", vec![0u8; 64]));
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.li_sym(abi::T0, "blob");
        main.call_reg(abi::T0);
        main.call("flick_exit");
        p.func(main.finish());
    });
    assert!(err.is_err(), "jumping into data must fail, got {err:?}");
}

#[test]
fn unknown_host_service_reported() {
    let err = run(|p| {
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.ecall(0x7F); // no such service
        main.call("flick_exit");
        p.func(main.finish());
    });
    assert!(matches!(
        err,
        Err(RunError::UnknownService { side: Side::Host, service: 0x7F })
    ));
}

#[test]
fn unknown_nxp_service_reported() {
    let err = run(|p| {
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.call("nxp_weird");
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_weird", TargetIsa::Nxp);
        f.ecall(0x3FF);
        f.ret();
        p.func(f.finish());
    });
    assert!(matches!(
        err,
        Err(RunError::UnknownService { side: Side::Nxp, service: 0x3FF })
    ));
}

#[test]
fn halt_on_nxp_is_a_crash() {
    // `halt` is a host-only concept (process exit); NxP code must exit
    // via return migration.
    let err = run(|p| {
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.call("nxp_halts");
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_halts", TargetIsa::Nxp);
        f.halt();
        p.func(f.finish());
    });
    assert!(matches!(err, Err(RunError::Crash { side: Side::Nxp, .. })));
}

#[test]
fn stack_overflow_on_host_faults_eventually() {
    // Unbounded recursion runs the host stack past its guard (the
    // stack mapping is finite), producing a data fault rather than
    // silent corruption.
    let err = run(|p| {
        let mut f = FuncBuilder::new("main", TargetIsa::Host);
        let top = f.new_label();
        f.bind(top);
        f.addi(abi::SP, abi::SP, -4096);
        f.st(abi::RA, abi::SP, 0, MemSize::B8);
        f.jmp(top);
        p.func(f.finish());
    });
    assert!(matches!(
        err,
        Err(RunError::Crash { side: Side::Host, exception: Exception::DataFault { .. } })
    ));
}

// ---- fault-during-migration ------------------------------------------------

use flick::MigrationDescriptor;
use flick_mem::VirtAddr;
use flick_sim::{Event, FaultPlan};
use flick_toolchain::layout;

/// Runs `build` on a machine with `plan` installed; returns the machine
/// for stats inspection plus the run result.
fn run_faulty(
    plan: FaultPlan,
    build: impl FnOnce(&mut ProgramBuilder),
) -> (Machine, Result<flick::Outcome, RunError>) {
    let mut p = ProgramBuilder::new("err");
    build(&mut p);
    let mut m = Machine::builder().fault_plan(plan).build();
    let pid = m.load_program(&mut p).expect("load");
    let out = m.run(pid);
    (m, out)
}

/// One NxP round trip: `main` calls `nxp_inc(41)`, exits with 42.
fn null_call(p: &mut ProgramBuilder) {
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    main.li(abi::A0, 41);
    main.call("nxp_inc");
    main.call("flick_exit");
    p.func(main.finish());
    let mut f = FuncBuilder::new("nxp_inc", TargetIsa::Nxp);
    f.addi(abi::A0, abi::A0, 1);
    f.ret();
    p.func(f.finish());
}

/// Nested ping-pong: `main` calls `nxp_wrap(5)`, which calls the host
/// function `host_leaf` (+2), then adds 1 — exit code 8.
fn nested_call(p: &mut ProgramBuilder) {
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    main.li(abi::A0, 5);
    main.call("nxp_wrap");
    main.call("flick_exit");
    p.func(main.finish());
    let mut w = FuncBuilder::new("nxp_wrap", TargetIsa::Nxp);
    w.prologue(16, &[]);
    w.call("host_leaf");
    w.addi(abi::A0, abi::A0, 1);
    w.epilogue(16, &[]);
    p.func(w.finish());
    let mut l = FuncBuilder::new("host_leaf", TargetIsa::Host);
    l.addi(abi::A0, abi::A0, 2);
    l.ret();
    p.func(l.finish());
}

#[test]
fn corrupt_descriptor_is_naked_and_retransmitted() {
    // One in-flight bit flip on the call descriptor: the NxP's checksum
    // rejects it, NAKs, and the host retransmits. The program never
    // notices.
    let plan = FaultPlan::seeded(7).with_corrupt(1.0).with_max_injections(1);
    let (m, out) = run_faulty(plan, null_call);
    let out = out.expect("recovered run");
    assert_eq!(out.exit_code, 42);
    assert_eq!(out.stats.get("crc_rejects"), 1);
    assert_eq!(out.stats.get("retransmits"), 1);
    assert_eq!(m.fault_counts().corrupt_burst, 1);
}

#[test]
fn corrupt_nested_return_leg_recovers() {
    // The fault lands mid-migration: the NxP→host *call* burst (the
    // nested leg of an in-flight host→NxP migration) is corrupted; the
    // host NAKs off its retained copy and the NxP retransmits.
    let plan = FaultPlan::seeded(11)
        .with_corrupt(1.0)
        .with_skip(1)
        .with_max_injections(1);
    let (_, out) = run_faulty(plan, nested_call);
    let out = out.expect("recovered run");
    assert_eq!(out.exit_code, 8);
    assert_eq!(out.stats.get("crc_rejects"), 1);
    assert_eq!(out.stats.get("retransmits"), 1);
}

#[test]
fn corrupt_reply_is_retransmitted_from_the_retained_descriptor() {
    // The NxP→host reply (the run's second burst) is corrupted once. The
    // host's checksum rejects it and demands a retransmission, which is
    // re-encoded from the retained reply descriptor. The retransmit must
    // carry the sequence number of the reply first sent, be accepted as
    // new rather than dropped as a duplicate, and wake the thread with
    // exactly the descriptor a fault-free run delivers.
    let run_traced = |plan: FaultPlan| {
        let mut p = ProgramBuilder::new("err");
        null_call(&mut p);
        let mut m = Machine::builder().fault_plan(plan).build();
        let pid = m.load_program(&mut p).expect("load");
        let out = m.run(pid).expect("recovered run");
        let mut page = [0u8; 128];
        m.stage_read(pid, VirtAddr(layout::DESC_PAGE_VA), &mut page)
            .expect("descriptor page");
        (m, out, page)
    };
    let (_, _, clean) = run_traced(FaultPlan::none());
    let reply = MigrationDescriptor::from_bytes_checked(&clean).expect("clean reply");
    let plan = FaultPlan::seeded(7)
        .with_corrupt(1.0)
        .with_skip(1)
        .with_max_injections(1);
    let (m, out, page) = run_traced(plan);
    assert_eq!(out.exit_code, 42);
    assert_eq!(out.stats.get("crc_rejects"), 1);
    assert_eq!(out.stats.get("retransmits"), 1);
    assert_eq!(out.stats.get("duplicate_descs_dropped"), 0);
    let retransmitted: Vec<u64> = m
        .trace()
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            Event::Retransmit {
                to: Side::Host,
                seq,
                ..
            } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(retransmitted, [reply.seq]);
    assert_eq!(page, clean, "the retransmit delivers the same descriptor");
}

#[test]
fn lost_msi_recovered_by_watchdog() {
    // The wake-up interrupt vanishes; the payload made it. The
    // suspended thread's watchdog fires at its deadline and polls the
    // ring directly.
    let plan = FaultPlan::seeded(9).with_drop_msi(1.0).with_max_injections(1);
    let (_, out) = run_faulty(plan, null_call);
    let out = out.expect("recovered run");
    assert_eq!(out.exit_code, 42);
    assert_eq!(out.stats.get("watchdog_fires"), 1);
    assert_eq!(out.stats.get("msi_losses_recovered"), 1);
    assert_eq!(out.stats.get("retransmits"), 0);
}

#[test]
fn duplicated_msi_is_drained_as_spurious() {
    let plan = FaultPlan::seeded(13).with_dup_msi(1.0).with_max_injections(1);
    let (_, out) = run_faulty(plan, null_call);
    let out = out.expect("recovered run");
    assert_eq!(out.exit_code, 42);
    assert_eq!(out.stats.get("spurious_wakeups"), 1);
}

#[test]
fn dead_call_link_degrades_to_host_emulation() {
    // Every host→NxP burst is dropped: delivery exhausts its attempts
    // and the call degrades — the thread is unwound out of the handler
    // and the NxP function runs through the host-side interpreter. The
    // result is still correct, just slow.
    let plan = FaultPlan::seeded(3).with_drop_burst(1.0);
    let (m, out) = run_faulty(plan, null_call);
    let out = out.expect("degraded run still completes");
    assert_eq!(out.exit_code, 42);
    assert_eq!(out.stats.get("migrations_degraded"), 1);
    assert!(out.stats.get("emulated_calls") >= 1);
    assert!(out.stats.get("emulated_instructions") >= 1);
    // The NxP never saw the thread.
    assert_eq!(out.stats.get("migrations_nxp_to_host"), 0);
    assert_eq!(out.stats.get("returns_nxp_to_host"), 0);
    assert!(m.fault_counts().drop_burst >= 7);
}

#[test]
fn degraded_thread_handles_nested_host_calls() {
    // Graceful degradation must survive the ping-pong: the emulated NxP
    // function calls a host function (interpreter bounces control back
    // to the native core) and the host function returns into NxP text
    // (native core bounces back into the interpreter).
    let plan = FaultPlan::seeded(5).with_drop_burst(1.0);
    let (_, out) = run_faulty(plan, nested_call);
    let out = out.expect("degraded nested run still completes");
    assert_eq!(out.exit_code, 8);
    assert_eq!(out.stats.get("migrations_degraded"), 1);
    assert!(out.stats.get("emulated_calls") >= 2, "re-entry after host leg");
}

#[test]
fn dead_return_link_is_fatal() {
    // NxP→host delivery dies for good: the watchdog retransmits up to
    // the attempt budget and then reports a dead link. No degradation
    // here — the call already ran, re-running it would double side
    // effects.
    let plan = FaultPlan::seeded(17).with_drop_burst(1.0).with_skip(1);
    let (_, out) = run_faulty(plan, null_call);
    match out {
        Err(RunError::LinkDead { pid: 1, stage: "nxp-to-host" }) => {}
        other => panic!("expected nxp-to-host LinkDead, got {other:?}"),
    }
}

#[test]
fn dead_host_return_leg_is_fatal() {
    // Same, for the host→NxP *return* leg of a nested call: the first
    // three injection points (h2n call burst, n2h call burst, its MSI)
    // deliver cleanly, then the link dies.
    let plan = FaultPlan::seeded(19).with_drop_burst(1.0).with_skip(3);
    let (_, out) = run_faulty(plan, nested_call);
    match out {
        Err(RunError::LinkDead { pid: 1, stage: "host-to-nxp return" }) => {}
        other => panic!("expected host-to-nxp return LinkDead, got {other:?}"),
    }
}

#[test]
fn abandoned_migration_wait_deadlocks_instead_of_wedging() {
    // Exhaust the fuel budget while the thread sits in MigrationWait,
    // then re-run it: the thread can never be woken (its wake-up was
    // abandoned with the aborted run), and the scheduler must report a
    // typed deadlock naming the stuck pid — not spin or panic.
    let mut seen_deadlock = false;
    for fuel in 10..200 {
        let mut p = ProgramBuilder::new("dl");
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.li(abi::A0, 1);
        main.call("nxp_id");
        main.call("flick_exit");
        p.func(main.finish());
        let mut f = FuncBuilder::new("nxp_id", TargetIsa::Nxp);
        f.ret();
        p.func(f.finish());
        let mut m = Machine::paper_default();
        let pid = m.load_program(&mut p).unwrap();
        if !matches!(m.run_with_fuel(pid, fuel), Err(RunError::FuelExhausted)) {
            continue;
        }
        match m.run(pid) {
            Err(RunError::Deadlock { stuck }) => {
                assert_eq!(stuck, vec![pid]);
                seen_deadlock = true;
            }
            // Fuel ran out while the thread was runnable on the host:
            // the re-run resumes from the stale context and finishes.
            Ok(_) | Err(RunError::FuelExhausted) => {}
            other => panic!("unexpected re-run result: {other:?}"),
        }
    }
    assert!(
        seen_deadlock,
        "some fuel level must abort inside MigrationWait"
    );
}

// ---- device-level failures -------------------------------------------------

use flick::Topology;
use flick_sim::{DeviceEvent, DeviceFaultKind, Picos};

/// Like [`run_faulty`] but on an explicit topology.
fn run_faulty_topo(
    topology: Topology,
    plan: FaultPlan,
    build: impl FnOnce(&mut ProgramBuilder),
) -> (Machine, Result<flick::Outcome, RunError>) {
    let mut p = ProgramBuilder::new("err");
    build(&mut p);
    let mut m = Machine::builder().topology(topology).fault_plan(plan).build();
    let pid = m.load_program(&mut p).expect("load");
    let out = m.run(pid);
    (m, out)
}

/// One long NxP leg: `main` calls `nxp_spin(spin)` once and exits with
/// the spin count — a wide window for mid-leg device death.
fn spin_call(spin: i64) -> impl FnOnce(&mut ProgramBuilder) {
    move |p: &mut ProgramBuilder| {
        let mut main = FuncBuilder::new("main", TargetIsa::Host);
        main.li(abi::A0, spin);
        main.call("nxp_spin");
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
    }
}

#[test]
fn crash_of_the_only_nxp_degrades_to_host_emulation() {
    // The whole fleet (of one) is gone before the first call: detection
    // costs the retry budget, then — with no survivor to fail over to —
    // the call degrades to the host-side interpreter.
    let plan = FaultPlan::none().with_device_event(DeviceEvent {
        nxp: 0,
        kind: DeviceFaultKind::Crash,
        at: Picos::from_nanos(1),
        rejoin_at: None,
    });
    let (m, out) = run_faulty(plan, null_call);
    let out = out.expect("degraded run still completes");
    assert_eq!(out.exit_code, 42);
    assert_eq!(out.stats.get("migrations_degraded"), 1);
    assert_eq!(m.stats().get("nxp_deaths"), 1);
    assert_eq!(m.nxp_health(0).unwrap().deaths, 1);
}

#[test]
fn crash_mid_call_reexecutes_on_survivor() {
    // The serving NxP dies while the leg is in flight: the reply dies
    // with it, the watchdog notices, and the retained call descriptor
    // is re-executed on the survivor. The program sees nothing.
    let topo = Topology::new(1, 2);
    let (_, clean) = run_faulty_topo(topo, FaultPlan::none(), spin_call(4_000));
    let clean = clean.expect("clean run");
    let mid = Picos::from_nanos(clean.sim_time.as_nanos() / 2);
    let plan = FaultPlan::none().with_device_event(DeviceEvent {
        nxp: 0,
        kind: DeviceFaultKind::Crash,
        at: mid,
        rejoin_at: None,
    });
    let (m, out) = run_faulty_topo(topo, plan, spin_call(4_000));
    let out = out.expect("failover run completes");
    assert_eq!(out.exit_code, clean.exit_code);
    assert_eq!(m.stats().get("nxp_deaths"), 1);
    assert_eq!(m.stats().get("failover_reexecutions"), 1);
    assert_eq!(out.stats.get("migrations_degraded"), 0);
}

#[test]
fn reexecution_moves_past_a_second_dead_survivor() {
    // NxP 0 crashes mid-leg and NxP 1 is unplugged before the
    // watchdog-driven re-execution kicks it: the send loop detects the
    // second death at the doorbell and moves on to NxP 2.
    let topo = Topology::new(1, 3);
    let (_, clean) = run_faulty_topo(topo, FaultPlan::none(), spin_call(4_000));
    let clean = clean.expect("clean run");
    let mid = Picos::from_nanos(clean.sim_time.as_nanos() / 2);
    let down = |nxp, kind| DeviceEvent {
        nxp,
        kind,
        at: mid,
        rejoin_at: None,
    };
    let plan = FaultPlan::none()
        .with_device_event(down(0, DeviceFaultKind::Crash))
        .with_device_event(down(1, DeviceFaultKind::Unplug));
    let (m, out) = run_faulty_topo(topo, plan, spin_call(4_000));
    let out = out.expect("failover run completes");
    assert_eq!(out.exit_code, clean.exit_code);
    assert_eq!(m.stats().get("failover_reexecutions"), 2);
    assert_eq!(m.stats().get("nxp_deaths"), 2);
    assert_eq!(out.stats.get("migrations_degraded"), 0);
}

#[test]
fn nxp_death_during_link_outage_fails_over() {
    // Double failure on one delivery: the first kicks are eaten by the
    // link, and by the time the driver retries the device itself is
    // gone. The shared retry budget detects it and the victim lands on
    // the survivor.
    let plan = FaultPlan::seeded(23)
        .with_drop_burst(1.0)
        .with_max_injections(2)
        .with_device_event(DeviceEvent {
            nxp: 0,
            kind: DeviceFaultKind::Crash,
            at: Picos::from_nanos(1),
            rejoin_at: None,
        });
    let (m, out) = run_faulty_topo(Topology::new(1, 2), plan, null_call);
    let out = out.expect("failover run completes");
    assert_eq!(out.exit_code, 42);
    assert_eq!(m.stats().get("nxp_deaths"), 1);
    assert_eq!(m.stats().get("failover_replacements"), 1);
    assert_eq!(out.stats.get("migrations_degraded"), 0);
}

#[test]
fn degraded_nested_call_returns_to_the_parked_frame() {
    // main(5) → rv64 nxp_wrap → host host_mid → arm64 nxp_leaf (+2),
    // then nxp_wrap adds 1: exit 8. The first two injection points
    // (the rv64 call burst and the escalated call's reply) pass, then
    // every burst is dropped: the arm64 call degrades to the host
    // interpreter. Its NxP was recorded as a continuation before the
    // send, so unless the degrade drops that entry the return leg goes
    // to the arm64 NxP, which holds no park of nxp_wrap's frame.
    use flick_isa::IsaId;
    let mut p = ProgramBuilder::new("err");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    main.li(abi::A0, 5);
    main.call("nxp_wrap");
    main.call("flick_exit");
    p.func(main.finish());
    let mut w = FuncBuilder::new("nxp_wrap", TargetIsa::Nxp);
    w.prologue(16, &[]);
    w.call("host_mid");
    w.addi(abi::A0, abi::A0, 1);
    w.epilogue(16, &[]);
    p.func(w.finish());
    let mut h = FuncBuilder::new("host_mid", TargetIsa::Host);
    h.prologue(16, &[]);
    h.call("nxp_leaf");
    h.epilogue(16, &[]);
    p.func(h.finish());
    let mut l = FuncBuilder::new("nxp_leaf", TargetIsa::Arm64);
    l.addi(abi::A0, abi::A0, 2);
    l.ret();
    p.func(l.finish());
    let plan = FaultPlan::seeded(5)
        .with_skip(2)
        .with_drop_burst(1.0)
        .with_max_injections(7);
    let mut m = Machine::builder()
        .topology(Topology::new(1, 2))
        .nxp_isas(vec![IsaId::Rv64, IsaId::Arm64])
        .fault_plan(plan)
        .build();
    let pid = m.load_program(&mut p).expect("load");
    let out = m.run(pid).expect("degraded nested run completes");
    assert_eq!(out.exit_code, 8);
    assert_eq!(out.stats.get("migrations_degraded"), 1);
    assert_eq!(out.stats.get("emulated_calls"), 1);
}

#[test]
fn reexecuted_inner_return_keeps_the_outer_continuation() {
    // main(5) → rv64 rv_wrap → arm64 arm_leaf (a 2,000-iteration loop,
    // then +2), then rv_wrap adds 1: exit 8. NxP 2 runs the leaf and
    // crashes after the leaf's reply left it but before the host took
    // that reply, so the watchdog re-executes the leaf on NxP 1. The
    // thread keeps rv_wrap's continuation (NxP 0) beneath the leaf's:
    // the re-run must move the leaf's entry, and its accepted return
    // must pop only that entry, or rv_wrap's return leg finds no NxP.
    use flick_isa::IsaId;
    let mut p = ProgramBuilder::new("err");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    main.li(abi::A0, 5);
    main.call("rv_wrap");
    main.call("flick_exit");
    p.func(main.finish());
    let mut w = FuncBuilder::new("rv_wrap", TargetIsa::Nxp);
    w.prologue(16, &[]);
    w.call("arm_leaf");
    w.addi(abi::A0, abi::A0, 1);
    w.epilogue(16, &[]);
    p.func(w.finish());
    let mut l = FuncBuilder::new("arm_leaf", TargetIsa::Arm64);
    let top = l.new_label();
    let done = l.new_label();
    l.li(abi::T0, 0);
    l.li(abi::T1, 2_000);
    l.bind(top);
    l.bge(abi::T0, abi::T1, done);
    l.addi(abi::T0, abi::T0, 1);
    l.jmp(top);
    l.bind(done);
    l.addi(abi::A0, abi::A0, 2);
    l.ret();
    p.func(l.finish());
    let plan = FaultPlan::none().with_device_event(DeviceEvent {
        nxp: 2,
        kind: DeviceFaultKind::Crash,
        at: Picos::from_nanos(50_000),
        rejoin_at: None,
    });
    let mut m = Machine::builder()
        .topology(Topology::new(1, 3))
        .nxp_isas(vec![IsaId::Rv64, IsaId::Arm64, IsaId::Arm64])
        .fault_plan(plan)
        .build();
    let pid = m.load_program(&mut p).expect("load");
    let out = m.run(pid).expect("re-executed nested run completes");
    assert_eq!(out.exit_code, 8);
    assert_eq!(m.stats().get("failover_reexecutions"), 1);
    assert_eq!(m.task_census(), (vec![], vec![pid]));
}

#[test]
fn task_census_balances_across_randomized_device_chaos() {
    // Property: whatever the crash/rejoin schedule — including double
    // failures — every spawned thread is exactly-once live or exited.
    // Here all runs complete, so the census must show every pid exited
    // exactly once, with no thread lost and none duplicated.
    let topo = Topology::new(2, 3);
    let horizon = {
        let mut m = Machine::builder().topology(topo).build();
        let mut pids = Vec::new();
        for _ in 0..3 {
            let mut p = ProgramBuilder::new("err");
            spin_call(400)(&mut p);
            pids.push(m.load_program(&mut p).unwrap());
        }
        m.run_concurrent(&pids, u64::MAX / 2).unwrap();
        m.host_now()
    };
    for seed in 0..16u64 {
        let plan = FaultPlan::chaos(seed)
            .with_device_events(FaultPlan::device_chaos(seed, 3, horizon));
        let mut m = Machine::builder().topology(topo).fault_plan(plan).build();
        let mut pids = Vec::new();
        for _ in 0..3 {
            let mut p = ProgramBuilder::new("err");
            spin_call(400)(&mut p);
            pids.push(m.load_program(&mut p).unwrap());
        }
        m.run_concurrent(&pids, u64::MAX / 2)
            .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        let (live, mut exited) = m.task_census();
        assert!(live.is_empty(), "seed {seed}: live threads remain: {live:?}");
        exited.sort_unstable();
        let mut want = pids.clone();
        want.sort_unstable();
        assert_eq!(exited, want, "seed {seed}: census does not balance");
    }
}

#[test]
fn staging_paths_report_typed_errors() {
    // Regression: the staging helpers (`stage_alloc_nxp`, `stage_write`,
    // `stage_read`) used to `.expect(...)` and abort the process on NxP
    // window exhaustion or an unmapped address. They must surface typed
    // errors instead.
    let mut m = Machine::paper_default();
    let mut p = ProgramBuilder::new("stage");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    main.li(abi::A0, 0);
    main.call("flick_exit");
    p.func(main.finish());
    let pid = m.load_program(&mut p).unwrap();

    // Exhaust the 4 GiB NxP window: the oversized allocation is a typed
    // load error, not a panic.
    assert!(matches!(
        m.stage_alloc_nxp(pid, u64::MAX / 2),
        Err(RunError::Load(_))
    ));
    // Unmapped staging writes and reads report the fault.
    let unmapped = VirtAddr(0x0BAD_0000_0000);
    assert!(matches!(
        m.stage_write(pid, unmapped, &[1, 2, 3]),
        Err(RunError::Load(_))
    ));
    let mut buf = [0u8; 8];
    assert!(matches!(
        m.stage_read(pid, unmapped, &mut buf),
        Err(RunError::Load(_))
    ));
    // Staging against a pid that was never loaded fails the same way.
    assert!(m.stage_alloc_nxp(4242, 64).is_err());
    // None of the failures corrupted the machine: the program still runs.
    assert_eq!(m.run(pid).unwrap().exit_code, 0);
}

#[test]
fn host_now_on_a_fresh_machine_is_zero() {
    // Regression: `host_now` on a machine whose cores never ticked used
    // to assume a nonempty clock set; it must report time zero, not
    // panic.
    let m = Machine::paper_default();
    assert_eq!(m.host_now(), Picos::ZERO);
}

#[test]
fn running_an_unknown_pid_is_a_typed_kernel_error() {
    // Regression: `Machine::run` with a PID that was never loaded used
    // to panic inside the kernel's task lookup. It must surface as a
    // typed error the caller can match on.
    use flick_os::KernelError;

    let mut m = Machine::paper_default();
    match m.run(4242) {
        Err(RunError::Kernel(KernelError::NoSuchTask(pid))) => assert_eq!(pid, 4242),
        other => panic!("expected NoSuchTask, got {other:?}"),
    }
    // A machine that already ran real work rejects bad PIDs the same
    // way, without corrupting its own state.
    let mut p = ProgramBuilder::new("ok");
    let mut main = FuncBuilder::new("main", TargetIsa::Host);
    main.li(abi::A0, 5);
    main.call("flick_exit");
    p.func(main.finish());
    let pid = m.load_program(&mut p).unwrap();
    assert!(matches!(
        m.run_concurrent(&[pid, 9999], u64::MAX / 2),
        Err(RunError::Kernel(KernelError::NoSuchTask(9999)))
    ));
    assert_eq!(m.run(pid).unwrap().exit_code, 5);
}
