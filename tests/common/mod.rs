//! Fleet fixtures shared by the whole-timeline determinism tests
//! (`isa_goldens.rs`, `determinism.rs`).

use flick::{Machine, Outcome, Topology};
use flick_isa::{abi, FuncBuilder, TargetIsa};
use flick_sim::{FaultPlan, TraceConfig};
use flick_toolchain::ProgramBuilder;
use std::fmt::Write as _;

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
    main.call("nxp_work");
    main.add(abi::S2, abi::S2, abi::A0);
    main.addi(abi::S1, abi::S1, -1);
    main.bne(abi::S1, abi::ZERO, lp);
    main.li(abi::T0, tag);
    main.add(abi::A0, abi::S2, abi::T0);
    main.call("flick_exit");
    p.func(main.finish());
    let mut f = FuncBuilder::new("nxp_work", TargetIsa::Nxp);
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

/// Serializes every observable surface into one string.
fn fingerprint(m: &Machine, done: &[(u64, Outcome)]) -> String {
    let mut s = String::new();
    for (pid, o) in done {
        let _ = writeln!(
            s,
            "pid {pid} exit {} at {:?} stats {:?}",
            o.exit_code, o.sim_time, o.stats
        );
    }
    let _ = writeln!(s, "host_now {:?}", m.host_now());
    let _ = writeln!(s, "machine_stats {:?}", m.stats());
    let _ = writeln!(s, "fault_counts {:?}", m.fault_counts());
    for (core, st) in m.per_core_stats() {
        let _ = writeln!(s, "core {core} {st:?}");
    }
    let _ = writeln!(s, "trace_len {} dropped {}", m.trace().len(), m.trace().dropped());
    for ((t, e), tag) in m.trace().events().iter().zip(m.trace().core_tags()) {
        let _ = writeln!(s, "{t:?} {tag:?} {e:?}");
    }
    for sp in m.spans() {
        let _ = writeln!(s, "span {sp:?}");
    }
    s
}

pub fn run_fleet(topo: Topology, procs: i64, plan: Option<FaultPlan>) -> String {
    let mut b = Machine::builder()
        .topology(topo)
        .observability(true)
        .trace(TraceConfig {
            enabled: true,
            capacity: 1 << 20,
        });
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    let mut m = b.build();
    let mut pids = Vec::new();
    for tag in 0..procs {
        pids.push(m.load_program(&mut worker(6, 2_000, tag * 100_000)).unwrap());
    }
    let done = m.run_concurrent(&pids, u64::MAX / 2).unwrap();
    fingerprint(&m, &done)
}

/// Fault-free finish time, used to bound the device-chaos horizon.
pub fn horizon(topo: Topology, procs: i64) -> flick_sim::Picos {
    let mut m = Machine::builder().topology(topo).build();
    let mut pids = Vec::new();
    for tag in 0..procs {
        pids.push(m.load_program(&mut worker(6, 2_000, tag * 100_000)).unwrap());
    }
    m.run_concurrent(&pids, u64::MAX / 2).unwrap();
    m.host_now()
}
