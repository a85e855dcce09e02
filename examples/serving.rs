//! The datacenter-serving scenario end to end: a multi-tenant fleet
//! under seeded open-loop load, driven to saturation, with the
//! tail-latency table and an optional Perfetto timeline of the
//! saturated fleet (one track per simulated core, one async slice per
//! migration — open it in <https://ui.perfetto.dev>).
//!
//! Run with: `cargo run --release --example serving`
//!
//! Flags (all optional):
//!
//! - `--tenants N` — tenant processes (default 32, max 250)
//! - `--requests N` — open-loop schedule length (default 400)
//! - `--rps F` — offered load, requests/simulated-second (default
//!   100000 — just past the knee)
//! - `--seed N` — schedule / layout seed (default scenario seed)
//! - `--sweep` — run the whole load sweep 25k..400k and print the
//!   saturation table instead of a single point
//! - `--timeline P` — also export the run as a Perfetto trace to `P`

use flick::{chrome_trace_named, validate_json, SpanStage};
use flick_workloads::serving::{
    build_serving_fleet, gen_requests, run_serving_scenario, summarize, ServingScenario,
};
use std::time::Instant;

fn scenario(rps: f64) -> ServingScenario {
    ServingScenario {
        tenants: 32,
        requests: 400,
        offered_rps: rps,
        observability: true,
        ..ServingScenario::default()
    }
}

fn print_summary(s: &flick_workloads::serving::ServingSummary) {
    println!(
        "offered {:>8.0} rps | goodput {:>8.0} rps | p50 {:>9} ns | p99 {:>9} ns | \
         p99.9 {:>9} ns | rejects {:>4} | migrations {:>5} | sim {:>7.2} ms",
        s.offered_rps,
        s.goodput_rps,
        s.p50_ns,
        s.p99_ns,
        s.p999_ns,
        s.admission_rejects,
        s.migrations,
        s.sim_ms
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = scenario(100_000.0);
    let mut sweep = false;
    let mut timeline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "--tenants" => cfg.tenants = val("--tenants")?.parse()?,
            "--requests" => cfg.requests = val("--requests")?.parse()?,
            "--rps" => cfg.offered_rps = val("--rps")?.parse()?,
            "--seed" => cfg.seed = val("--seed")?.parse()?,
            "--sweep" => sweep = true,
            "--timeline" => timeline = Some(val("--timeline")?),
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }

    if sweep {
        println!(
            "load sweep: {} tenants, {} requests/point, {} fleet",
            cfg.tenants, cfg.requests, cfg.topology
        );
        for rps in [25_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0] {
            let point = ServingScenario {
                offered_rps: rps,
                ..cfg.clone()
            };
            let report = run_serving_scenario(&point)?;
            print_summary(&summarize(&point, &report));
        }
        return Ok(());
    }

    // Single point, with enough instrumentation for the timeline.
    cfg.trace = timeline.is_some();
    let (mut m, tenants) = build_serving_fleet(&cfg)?;
    let reqs = gen_requests(&cfg);
    let started = Instant::now();
    let report = m.run_serving(&tenants, &reqs, u64::MAX, cfg.quantum)?;
    let host_s = started.elapsed().as_secs_f64();
    println!(
        "{} tenants on {}, {} open-loop requests:",
        cfg.tenants, cfg.topology, cfg.requests
    );
    print_summary(&summarize(&cfg, &report));

    // Host-side cost of the run: wall time per request and which lane
    // retired the instructions. None of it is simulated state.
    let ch = m.chain_stats();
    println!(
        "\nhost: {:.1} us per request ({:.3} s for the run)",
        host_s * 1e6 / cfg.requests.max(1) as f64,
        host_s
    );
    println!(
        "block lane (host-side): {} block builds, {} chain hits, {} patches, {} breaks, \
         {} fallback steps, {} spin-tier instructions",
        ch.block_builds,
        ch.chain_hits,
        ch.chain_patches,
        ch.chain_breaks,
        ch.block_fallback_steps,
        ch.spin_insts
    );
    println!(
        "data memo (host-side): {} hits, {} misses",
        ch.data_memo_hits, ch.data_memo_misses
    );

    // Where a migration's time goes at this load, per pipeline stage.
    println!("\nper-stage migration latency (ns):");
    let stages = [
        SpanStage::NxFault,
        SpanStage::DescPack,
        SpanStage::DmaSubmit,
        SpanStage::NxpDispatch,
        SpanStage::NxpSubmit,
        SpanStage::MsiDelivery,
        SpanStage::Woken,
    ];
    for w in stages.windows(2) {
        let key = format!("seg:{}->{}", w[0].label(), w[1].label());
        if let Some(h) = m.observability_stats().hist(&key) {
            println!(
                "  {:<28} n={:<5} p50={:>11.1} p99={:>11.1} max={:>11.1}",
                key,
                h.count(),
                h.p50() as f64 / 1e3,
                h.p99() as f64 / 1e3,
                h.max() as f64 / 1e3,
            );
        }
    }
    println!("\ndescriptor-ring depth at kick (admission bounds these):");
    for (name, h) in m.observability_stats().hists() {
        if name.starts_with("qdepth:h2n:") {
            println!("  {:<24} n={:<5} p50={} max={}", name, h.count(), h.p50(), h.max());
        }
    }

    if let Some(path) = timeline {
        let json = chrome_trace_named(m.trace(), m.spans(), m.track_namer());
        validate_json(&json).map_err(|at| format!("export is not valid JSON (byte {at})"))?;
        std::fs::write(&path, &json)?;
        println!(
            "\nwrote {path} ({} bytes) — open it in https://ui.perfetto.dev",
            json.len()
        );
    }
    Ok(())
}
