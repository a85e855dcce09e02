//! Fleet failover: NxP crash/hot-unplug with deterministic recovery.
//!
//! Builds a 2 host × 3 NxP machine, runs a fleet of NxP-heavy
//! processes, and kills devices mid-run from a seeded schedule. The
//! failover orchestrator detects each death (retry-budget exhaustion,
//! or instantly on hot-unplug), quiesces the channel, and re-places the
//! victim work on survivors — every process still exits with the same
//! code as on a fault-free run. Prints the health ledger, the failover
//! counters, and the failure-domain slice of the timeline.
//!
//! Run with: `cargo run --release --example failover -- 7`
//! (the argument is the chaos seed, default 7)

use flick::{Machine, Topology};
use flick_isa::{abi, FuncBuilder, TargetIsa};
use flick_sim::{Event, FaultPlan, TraceConfig};
use flick_toolchain::ProgramBuilder;

/// A process that ships `calls` chunks of spin work to the NxP and
/// exits with `calls * spin + tag`.
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

/// Per-pid `(pid, exit_code)` pairs, sorted by pid.
type ExitCodes = Vec<(u64, u64)>;

fn run(
    topo: Topology,
    plan: Option<FaultPlan>,
) -> Result<(Machine, ExitCodes), Box<dyn std::error::Error>> {
    let mut b = Machine::builder().topology(topo).trace(TraceConfig {
        enabled: true,
        capacity: 1 << 20,
    });
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    let mut m = b.build();
    let mut pids = Vec::new();
    for tag in 0..4 {
        pids.push(m.load_program(&mut worker(6, 2_000, tag * 100_000))?);
    }
    let done = m.run_concurrent(&pids, u64::MAX / 2)?;
    let mut codes: Vec<(u64, u64)> = done.iter().map(|(pid, o)| (*pid, o.exit_code)).collect();
    codes.sort_unstable();
    Ok((m, codes))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(7);
    let topo = Topology::new(2, 3);

    // Fault-free twin first: its finish time bounds the chaos horizon
    // and its exit codes are the bar the chaos run must clear.
    let (clean_m, clean) = run(topo, None)?;
    let horizon = clean_m.host_now();

    let events = FaultPlan::device_chaos(seed, 3, horizon);
    println!("seed {seed}: scheduling {} device event(s)", events.len());
    for e in &events {
        match e.rejoin_at {
            Some(back) => println!("  nxp{} {} at {} (rejoins {})", e.nxp, e.kind.label(), e.at, back),
            None => println!("  nxp{} {} at {} (never returns)", e.nxp, e.kind.label(), e.at),
        }
    }
    let plan = FaultPlan::chaos(seed).with_device_events(events);
    let (m, codes) = run(topo, Some(plan))?;

    println!("\nresults (vs fault-free twin):");
    for ((pid, code), (_, want)) in codes.iter().zip(clean.iter()) {
        let ok = if code == want { "ok" } else { "DIVERGED" };
        println!("  pid {pid}: exit {code:>6}  {ok}");
    }
    assert_eq!(codes, clean, "failover must be invisible to results");

    println!("\nhealth ledger:");
    for nc in 0..3 {
        let h = m.nxp_health(nc).expect("a 3-NxP fleet");
        println!(
            "  nxp{nc}: {:?}, {} death(s), {} recover(ies)",
            h.breaker, h.deaths, h.recoveries
        );
    }
    println!("\nfailover counters:");
    for key in [
        "nxp_deaths",
        "nxp_rejoins",
        "nxp_probes_ok",
        "descs_reaped",
        "msis_purged",
        "failover_replacements",
        "failover_reexecutions",
        "admission_rejects",
    ] {
        println!("  {key:<24} {}", m.stats().get(key));
    }

    println!("\nfailure-domain timeline:");
    for (t, e) in m.trace().events() {
        let line = match e {
            Event::DeviceFault { nxp, kind } => format!("nxp{nxp} device fault: {kind}"),
            Event::NxpDeclaredDead { nxp } => format!("nxp{nxp} declared dead (breaker open)"),
            Event::NxpRejoined { nxp } => format!("nxp{nxp} rejoined (breaker half-open)"),
            Event::ProbeSucceeded { nxp } => format!("nxp{nxp} probe ok (breaker closed)"),
            Event::DescriptorsReaped { nxp, count } => {
                format!("reaped {count} descriptor(s) from nxp{nxp}")
            }
            Event::FailoverReplaced { pid, from_nxp, to_nxp } => {
                format!("pid {pid} re-placed nxp{from_nxp} -> nxp{to_nxp}")
            }
            Event::FailoverReexecuted { pid, on_nxp } => {
                format!("pid {pid} re-executed on nxp{on_nxp}")
            }
            Event::AdmissionRejected { chan } => format!("ring full on chan {chan}"),
            _ => continue,
        };
        println!("  {t:>12}  {line}");
    }

    println!(
        "\nfleet done at {} (fault-free twin: {}) — same results, stretched timeline",
        m.host_now(),
        horizon
    );
    Ok(())
}
