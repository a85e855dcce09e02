//! The four workloads, one repetition at a time: set-up (timed span by
//! span), the run, and the checks on what the simulated program
//! computed.
//!
//! Every repetition builds fresh machines, so the modelled caches and
//! TLBs start empty, as they do in a user's run.

use crate::spans::SpanLog;
use flick::{handlers, Machine};
use flick_cpu::ChainCounters;
use flick_sim::{Picos, Stats, TraceConfig};
use flick_workloads::chase::{run_chase_on, ChaseConfig, ChaseMode};
use flick_workloads::nullcall::null_call_program;
use flick_workloads::serving::{
    build_serving_fleet, gen_requests, kind, ServingScenario, CHASE_NODES, KV_RECORDS,
};
use std::fmt::Display;

/// The seed the goldens are recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Instruction budget of one run; far above what any workload retires.
const FUEL: u64 = 60_000_000_000;
/// Offered loads of the serving sweep, requests per simulated second.
pub const SERVING_LOADS: [f64; 4] = [25_000.0, 50_000.0, 75_000.0, 100_000.0];
/// The sweep point the latency quantiles are reported at.
const SERVING_QUANTILE_RPS: f64 = 50_000.0;
/// Tail-latency limit of the serving knee, in simulated microseconds.
const KNEE_P99_US: f64 = 500.0;

/// Table III round trips, in simulated ns, as the null-call program's
/// exit codes (average over the measured trips; smoke size, full size).
/// Pinned: a change here is a change to the model, not to the
/// simulator's speed.
const NULL_RT_NS: [u64; 2] = [18_033, 18_028];
const NESTED_RT_NS: [u64; 2] = [34_710, 34_705];
/// Fig. 5 simulated ns per pointer-chasing call of [`CHASE_NODES`]
/// nodes (smoke size, full size), pinned likewise; node placement does
/// not change them.
const CHASE_HOST_NS: [u64; 2] = [52_913, 52_910];
const CHASE_FLICK_NS: [u64; 2] = [37_374, 37_366];

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 pointer chasing, kernel placed on the host.
    ChaseHost,
    /// The same kernel placed on the NxP.
    ChaseFlick,
    /// Table III null calls, plain and nested.
    NullCall,
    /// Open-loop multi-tenant serving sweep.
    Serving,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ChaseHost,
        Workload::ChaseFlick,
        Workload::NullCall,
        Workload::Serving,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChaseHost => "chase_host",
            Workload::ChaseFlick => "chase_flick",
            Workload::NullCall => "nullcall",
            Workload::Serving => "serving",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured repetitions of one run, unless the time budget runs out
    /// first: about 14 s of repetitions on a 2-core host, so the 20 s
    /// budget binds only when the host is a third slower.
    pub fn reps(self, smoke: bool) -> usize {
        match (smoke, self) {
            (true, _) => 3,
            (false, Workload::ChaseHost) => 26,
            (false, Workload::ChaseFlick) => 7,
            (false, Workload::NullCall) => 9,
            (false, Workload::Serving) => 5,
        }
    }

    /// How many times one repetition runs each of its set-ups. Set-ups
    /// far shorter than a millisecond are timed over many instances,
    /// whose mean is the repetition's set-up time.
    pub fn setup_repeats(self, smoke: bool) -> u32 {
        match (smoke, self) {
            (false, Workload::ChaseHost | Workload::ChaseFlick | Workload::NullCall) => 32,
            _ => 1,
        }
    }

    /// Runs one repetition. `observability` turns on the machine's
    /// simulated-time span recording.
    ///
    /// # Errors
    ///
    /// A message when the simulator fails to build or run the workload.
    pub fn rep(
        self,
        seed: u64,
        smoke: bool,
        observability: bool,
        log: &mut SpanLog,
    ) -> Result<Rep, String> {
        let repeats = self.setup_repeats(smoke);
        match self {
            Workload::ChaseHost => chase_rep(
                ChaseMode::HostDirect,
                seed,
                smoke,
                observability,
                repeats,
                log,
            ),
            Workload::ChaseFlick => {
                chase_rep(ChaseMode::Flick, seed, smoke, observability, repeats, log)
            }
            Workload::NullCall => nullcall_rep(smoke, observability, repeats, log),
            Workload::Serving => serving_rep(seed, smoke, observability, log),
        }
    }
}

/// Input sizes of one repetition.
struct Sizes {
    /// Pointer-chasing calls (each over [`CHASE_NODES`] nodes).
    chase_calls: u64,
    /// Null-call trips per direction.
    null_trips: u64,
    /// Serving tenants.
    tenants: usize,
    /// Serving requests per offered load.
    requests: usize,
}

const FULL: Sizes = Sizes {
    chase_calls: 200_000,
    null_trips: 100_000,
    tenants: 250,
    requests: 10_000,
};

/// Token sizes for tests and the warm-up.
const SMOKE: Sizes = Sizes {
    chase_calls: 200,
    null_trips: 100,
    tenants: 8,
    requests: 50,
};

fn sizes(smoke: bool) -> &'static Sizes {
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// What one repetition produced, apart from host time (which is in the
/// span log).
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// What the failed checks found.
    pub problems: Vec<String>,
    /// Simulated counters (and, when observed, histograms) summed over
    /// every machine the repetition ran.
    pub stats: Stats,
    /// Host-side block-chaining tallies summed likewise.
    pub chain: ChainCounters,
    /// Simulated results: `(name, value, unit)`.
    pub sim: Vec<(&'static str, f64, &'static str)>,
    /// The golden digest: simulated times, exit codes and every
    /// simulated counter, one fact per line.
    pub digest: Vec<String>,
}

impl Rep {
    fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.problems.push(what());
        }
    }

    /// Folds one finished run's stats and chain tallies in, and appends
    /// its counters to the digest under `tag`.
    fn absorb(&mut self, tag: &str, stats: &Stats, chain: ChainCounters) {
        for (k, v) in stats.iter() {
            self.digest.push(format!("{tag} stat {k} {v}"));
        }
        self.stats.merge(stats);
        self.chain.chain_hits += chain.chain_hits;
        self.chain.chain_patches += chain.chain_patches;
        self.chain.chain_breaks += chain.chain_breaks;
        self.chain.block_fallback_steps += chain.block_fallback_steps;
    }
}

fn err(e: impl Display) -> String {
    e.to_string()
}

fn machine(observability: bool) -> Machine {
    Machine::builder()
        .trace(TraceConfig {
            enabled: false,
            capacity: 0,
        })
        .observability(observability)
        .build()
}

/// Runs set-up `f` `repeats` times, each inside a `setup` span, and
/// keeps the last result.
fn set_up<T>(
    log: &mut SpanLog,
    repeats: u32,
    mut f: impl FnMut(&mut SpanLog) -> Result<T, String>,
) -> Result<T, String> {
    for _ in 1..repeats {
        log.span("setup", &mut f)?;
    }
    log.span("setup", f)
}

fn chase_rep(
    mode: ChaseMode,
    seed: u64,
    smoke: bool,
    observability: bool,
    repeats: u32,
    log: &mut SpanLog,
) -> Result<Rep, String> {
    let calls = sizes(smoke).chase_calls;
    let cfg = ChaseConfig {
        nodes_per_call: CHASE_NODES,
        calls,
        inter_call_work: Picos::ZERO,
        mode,
        seed,
    };
    // `run_chase_on` builds, loads and stages the program itself, so
    // set-up is the machine's construction.
    let mut m = set_up(log, repeats, |log| {
        log.span("core.load", |_| Ok(machine(observability)))
    })?;
    let res = log
        .span("core.run", |_| run_chase_on(&mut m, &cfg))
        .map_err(err)?;

    let mut rep = Rep::default();
    let size = usize::from(!smoke);
    let (pinned, crossings) = match mode {
        ChaseMode::HostDirect => (CHASE_HOST_NS[size], 0),
        // The program makes one untimed warm-up call first.
        ChaseMode::Flick => (CHASE_FLICK_NS[size], calls + 1),
    };
    let per_call = res.per_call.as_nanos();
    let calls_made = m.stats().get("migrations_host_to_nxp");
    rep.check(per_call == pinned && calls_made == crossings, calls, || {
        format!(
            "{calls_made} host->NxP calls averaging {per_call} ns; \
             pinned {crossings} calls of {pinned} ns"
        )
    });
    rep.sim = vec![("sim_call_us", per_call as f64 * 1e-3, "us")];
    rep.digest = vec![format!("run per_call_ps {}", res.per_call.as_picos())];
    rep.absorb("machine", m.stats(), ChainCounters::default());
    for (core, stats) in m.per_core_stats() {
        rep.absorb(&core.to_string(), &stats, ChainCounters::default());
    }
    rep.chain = m.chain_stats();
    // Histograms only: the segment latencies of an observed run.
    rep.stats.merge(m.observability_stats());
    Ok(rep)
}

fn nullcall_rep(
    smoke: bool,
    observability: bool,
    repeats: u32,
    log: &mut SpanLog,
) -> Result<Rep, String> {
    let trips = sizes(smoke).null_trips;
    let mut rep = Rep::default();
    let size = usize::from(!smoke);
    for (nested, pinned, metric) in [
        (false, NULL_RT_NS[size], "sim_rt_us"),
        (true, NESTED_RT_NS[size], "sim_nested_rt_us"),
    ] {
        let (mut m, pid) = set_up(log, repeats, |log| {
            let mut p = log.span("workloads.gen", |_| null_call_program(trips, nested));
            handlers::add_runtime(&mut p);
            let image = log.span("toolchain.build", |_| p.build().map_err(err))?;
            log.span("core.load", |_| {
                let mut m = machine(observability);
                m.load(&image).map(|pid| (m, pid)).map_err(err)
            })
        })?;
        let out = log
            .span("core.run", |_| m.run_with_fuel(pid, FUEL))
            .map_err(err)?;
        let tag = if nested { "nested" } else { "plain" };
        rep.check(out.exit_code == pinned, trips, || {
            format!(
                "{tag} round trip averaged {} ns, pinned {pinned} ns",
                out.exit_code
            )
        });
        rep.sim.push((metric, out.exit_code as f64 * 1e-3, "us"));
        rep.digest
            .push(format!("{tag} exit_code {}", out.exit_code));
        rep.digest
            .push(format!("{tag} sim_time_ps {}", out.sim_time.as_picos()));
        rep.absorb(tag, &out.stats, m.chain_stats());
    }
    Ok(rep)
}

/// FNV-1a over `words`: a compact digest of a long list of results.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn serving_rep(
    seed: u64,
    smoke: bool,
    observability: bool,
    log: &mut SpanLog,
) -> Result<Rep, String> {
    let Sizes {
        tenants, requests, ..
    } = *sizes(smoke);
    let mut rep = Rep::default();
    let mut knee = 0.0f64;
    for offered_rps in SERVING_LOADS {
        let cfg = ServingScenario {
            tenants,
            requests,
            offered_rps,
            seed,
            observability,
            ..ServingScenario::default()
        };
        let (reqs, mut m, pids) = set_up(log, 1, |log| {
            let reqs = log.span("workloads.gen", |_| gen_requests(&cfg));
            let (m, pids) = log
                .span("core.load", |_| build_serving_fleet(&cfg))
                .map_err(err)?;
            Ok((reqs, m, pids))
        })?;
        let report = log
            .span("core.run", |_| {
                m.run_serving(&pids, &reqs, u64::MAX, cfg.quantum)
            })
            .map_err(err)?;

        let tag = format!("rps{offered_rps}");
        let mut seen = vec![false; reqs.len()];
        let mut kv_result = None;
        let mut bad = 0u64;
        for c in &report.completions {
            let ok = match reqs.get(c.request).map(|r| r.arg) {
                Some(kind::NULL) => c.exit_code == 42,
                Some(kind::CHASE) => c.exit_code == CHASE_NODES,
                // Every kv request scans the same staged table.
                Some(_) => {
                    c.exit_code <= KV_RECORDS
                        && *kv_result.get_or_insert(c.exit_code) == c.exit_code
                }
                None => false,
            };
            let first = seen
                .get_mut(c.request)
                .is_some_and(|s| !std::mem::replace(s, true));
            if !(ok && first) {
                bad += 1;
            }
        }
        let missing = seen.iter().filter(|s| !**s).count() as u64;
        rep.check(bad == 0 && missing == 0, reqs.len() as u64, || {
            format!(
                "{tag}: {bad} wrong or duplicate completions, {missing} requests never completed"
            )
        });

        let q_us = |q: f64| report.latency_quantile(q).as_nanos_f64() * 1e-3;
        let goodput = report.goodput_rps();
        if q_us(0.99) <= KNEE_P99_US && goodput >= 0.95 * offered_rps {
            knee = knee.max(offered_rps);
        }
        if offered_rps == SERVING_QUANTILE_RPS {
            rep.sim.push(("sim_p50_us", q_us(0.50), "us"));
            rep.sim.push(("sim_p99_us", q_us(0.99), "us"));
            rep.sim.push(("sim_p999_us", q_us(0.999), "us"));
        }
        if offered_rps == SERVING_LOADS[SERVING_LOADS.len() - 1] {
            rep.sim.push(("sim_goodput_rps", goodput, "1/s"));
        }
        let completions = fnv(report.completions.iter().flat_map(|c| {
            [
                c.request as u64,
                c.tenant as u64,
                c.arrival.as_picos(),
                c.finished.as_picos(),
                c.exit_code,
            ]
        }));
        rep.digest
            .push(format!("{tag} completions {}", report.completions.len()));
        rep.digest
            .push(format!("{tag} completions_fnv {completions:016x}"));
        rep.digest.push(format!(
            "{tag} finished_ps {}",
            report.finished_at.as_picos()
        ));
        rep.absorb(&tag, &report.stats, m.chain_stats());
    }
    rep.sim.push(("sim_knee_rps", knee, "1/s"));
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observability_is_inert_on_every_workload() {
        for w in Workload::ALL {
            let plain = w.rep(5, true, false, &mut SpanLog::default()).unwrap();
            let traced = w.rep(5, true, true, &mut SpanLog::default()).unwrap();
            assert_eq!(plain.digest, traced.digest, "{}", w.name());
            assert_eq!(plain.failed, 0, "{}: {:?}", w.name(), plain.problems);
        }
    }

    #[test]
    fn set_up_repeats_in_spans_and_keeps_the_last() {
        let mut log = SpanLog::default();
        let mut n = 0;
        let last = set_up(&mut log, 3, |_| {
            n += 1;
            Ok(n)
        });
        assert_eq!(last, Ok(3));
        assert!(log.spans().iter().all(|s| s.name == "setup"));
        assert_eq!(log.spans().len(), 3);
    }
}
