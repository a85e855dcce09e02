//! One workload, measured: a warm-up, a fixed number of repetitions
//! inside the time budget, the checks and goldens, and (traced) the
//! layer probes plus observed repetitions interleaved with plain ones.
//! Produces the full record and the one-line summary.

use crate::json::Json;
use crate::manifest::Manifest;
use crate::probes;
use crate::spans::{Sample, SpanLog};
use crate::workloads::{Rep, Workload, DEFAULT_SEED};
use flick_sim::{SpanStage, Stats};
use std::path::PathBuf;
use std::time::Instant;

/// How to run a workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Time budget of the whole run, in seconds.
    pub seconds: f64,
    /// Measure the per-layer metrics: the layer probes and observed
    /// repetitions.
    pub trace: bool,
    /// Token-sized inputs (tests).
    pub smoke: bool,
    /// Write the goldens instead of comparing against them.
    pub bless: bool,
}

/// A measured workload.
#[derive(Debug)]
pub struct Measured {
    /// Every metric computed, by name, with its samples' statistics.
    pub metrics: Vec<(String, Sample)>,
    /// Simulated results `(name, value, unit)`.
    pub sim: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted over the measured repetitions.
    pub attempted: u64,
    /// Operations failed (a golden mismatch fails them all).
    pub failed: u64,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// Golden outcome: `match`, `mismatch`, `written` or `skipped`.
    pub golden: &'static str,
    /// Measured plain repetitions.
    pub reps: usize,
    /// The host span log.
    pub log: SpanLog,
}

impl Measured {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn metric(&self, name: &str) -> Option<&Sample> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, q)| q)
    }

    /// The full record: every metric with its samples' quartiles, the simulated
    /// results, the checks and the span log.
    pub fn record(&self, w: Workload, opt: &Options, manifest: &Manifest) -> Json {
        let metrics = self.metrics.iter().map(|(name, q)| {
            let unit = manifest.decl(name).map_or("", |d| d.unit.as_str());
            let v = Json::obj([
                ("value", q.value.into()),
                ("unit", Json::str(unit)),
                ("q1", q.q1.into()),
                ("median", q.median.into()),
                ("q3", q.q3.into()),
                ("n", (q.n as u64).into()),
            ]);
            (name.clone(), v)
        });
        let sim = self.sim.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", value.into()), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", opt.seed.into()),
            ("smoke", opt.smoke.into()),
            ("traced", opt.trace.into()),
            ("reps", (self.reps as u64).into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "failed_frac",
                (self.failed as f64 / self.attempted.max(1) as f64).into(),
            ),
            ("golden", Json::str(self.golden)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::obj(metrics)),
            ("sim", Json::obj(sim)),
            ("spans", self.log.to_json()),
        ])
    }

    /// The one-line result: the checks and the declared metrics of the
    /// mode (end-to-end untraced, per-layer traced). A declared metric
    /// that was not computed is an error.
    pub fn summary(&self, opt: &Options, manifest: &Manifest) -> Result<Json, String> {
        let decls = if opt.trace {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        };
        let metrics = decls
            .iter()
            .map(|d| {
                let q = self
                    .metric(&d.name)
                    .ok_or_else(|| format!("declared metric `{}` was not computed", d.name))?;
                Ok((
                    d.name.clone(),
                    Json::obj([
                        ("value", q.value.into()),
                        ("unit", Json::str(d.unit.clone())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Json::obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            ("metrics", Json::obj(metrics)),
        ]))
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn golden_path(w: Workload, smoke: bool) -> PathBuf {
    let file = format!("{}{}.txt", w.name(), if smoke { "-smoke" } else { "" });
    [env!("CARGO_MANIFEST_DIR"), "goldens", &file]
        .iter()
        .collect()
}

/// Compares (or, blessing, writes) the golden digest.
fn golden(w: Workload, opt: &Options, digest: &[String]) -> Result<&'static str, String> {
    if opt.seed != DEFAULT_SEED {
        return Ok("skipped");
    }
    let path = golden_path(w, opt.smoke);
    let text: String = digest.iter().map(|l| format!("{l}\n")).collect();
    if opt.bless {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok("written");
    }
    let want = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    match want.lines().zip(text.lines()).find(|(a, b)| a != b) {
        None if want == text => Ok("match"),
        None => Err(format!("golden {} differs in length", path.display())),
        Some((a, b)) => Err(format!(
            "golden {}: expected `{a}`, got `{b}`",
            path.display()
        )),
    }
}

/// Per-layer counts of one repetition.
fn counts(rep: &Rep) -> Vec<(&'static str, f64)> {
    let s = |names: &[&str]| names.iter().map(|n| rep.stats.get(n)).sum::<u64>() as f64;
    let insts = s(&["instructions", "nxp_instructions", "emulated_instructions"]);
    // Every ISA crossing, calls and returns in both directions.
    let migrations = s(&[
        "migrations_host_to_nxp",
        "migrations_nxp_to_host",
        "returns_host_to_nxp",
        "returns_nxp_to_host",
    ]);
    let rejects = s(&["admission_rejects"]);
    let ch = &rep.chain;
    let (hits, breaks) = (ch.chain_hits as f64, ch.chain_breaks as f64);
    let fallback = ch.block_fallback_steps as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    vec![
        ("cpu.insts", insts),
        (
            "cpu.mem_ops",
            s(&["loads", "stores", "nxp_loads", "nxp_stores"]),
        ),
        ("cpu.chain_hits", hits),
        ("cpu.chain_breaks", breaks),
        ("cpu.fallback_steps", fallback),
        ("cpu.chain_hit_ratio", ratio(hits, hits + breaks)),
        ("cpu.fallback_frac", ratio(fallback, insts)),
        (
            "cpu.tlb_misses",
            s(&[
                "itlb_misses",
                "dtlb_misses",
                "nxp_itlb_misses",
                "nxp_dtlb_misses",
            ]),
        ),
        ("cpu.walks", s(&["walks", "nxp_walks"])),
        (
            "cpu.cache_misses",
            s(&[
                "icache_misses",
                "dcache_misses",
                "nxp_icache_misses",
                "nxp_dcache_misses",
            ]),
        ),
        ("core.migrations", migrations),
        ("core.faults", s(&["nx_faults", "nxp_exec_faults"])),
        ("core.retransmits", s(&["retransmits"])),
        ("core.admission_rejects", rejects),
        ("core.reject_ratio", ratio(rejects, migrations + rejects)),
        ("core.spurious_wakeups", s(&["spurious_wakeups"])),
        (
            "core.duplicate_descs_dropped",
            s(&["duplicate_descs_dropped"]),
        ),
        ("core.crc_rejects", s(&["crc_rejects"])),
    ]
}

/// The migration lifecycle, NX fault to wake-up, whose consecutive
/// stages bound the six segments the traced run reports.
const LIFECYCLE: [SpanStage; 7] = [
    SpanStage::NxFault,
    SpanStage::DescPack,
    SpanStage::DmaSubmit,
    SpanStage::NxpDispatch,
    SpanStage::NxpSubmit,
    SpanStage::MsiDelivery,
    SpanStage::Woken,
];

/// Simulated segment latencies and queue depth of an observed run.
fn traced_metrics(stats: &Stats) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for pair in LIFECYCLE.windows(2) {
        let (from, to) = (pair[0].label(), pair[1].label());
        let hist = stats.hist(&format!("seg:{from}->{to}"));
        let name = format!(
            "core.seg.{}-{}",
            from.replace('-', "_"),
            to.replace('-', "_")
        );
        for (suffix, q) in [("p50_ns", 0.50), ("p99_ns", 0.99)] {
            let ps = hist.map_or(0, |h| h.quantile(q));
            out.push((format!("{name}.{suffix}"), ps as f64 / 1e3));
        }
    }
    let depth = stats
        .hists()
        .filter(|(k, _)| k.starts_with("qdepth:h2n:"))
        .map(|(_, h)| h.max())
        .max()
        .unwrap_or(0);
    out.push(("pcie.qdepth_h2n_max".into(), depth as f64));
    out
}

/// A time budget for a whole process: warm-up, probes and repetitions.
struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    fn start(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether a repetition that takes `secs` still ends inside the
    /// budget, with a tenth to spare for a slower one.
    fn fits(&self, secs: f64) -> bool {
        self.start.elapsed().as_secs_f64() + 1.1 * secs <= self.seconds
    }
}

/// Runs `rep` (told whether to observe, returning the seconds it took)
/// until `target` plain repetitions have run, each followed by an
/// observed one when `trace`. A repetition starts only if one as long
/// as the longest of its kind so far still fits the budget; the first
/// of each kind always runs.
fn repeat(
    budget: &Budget,
    target: usize,
    trace: bool,
    mut rep: impl FnMut(bool) -> Result<f64, String>,
) -> Result<(), String> {
    let mut longest: [Option<f64>; 2] = [None, None];
    for _ in 0..target {
        for observed in [false, true].into_iter().take(1 + usize::from(trace)) {
            let kind = &mut longest[usize::from(observed)];
            if kind.is_some_and(|t| !budget.fits(t)) {
                return Ok(());
            }
            let secs = rep(observed)?;
            *kind = Some(kind.map_or(secs, |t| t.max(secs)));
        }
    }
    Ok(())
}

/// Per repetition rooted at `roots`, the summed host seconds of its
/// `name` spans, divided by `per` (the set-up repeats for set-up spans).
fn totals(log: &SpanLog, roots: &[usize], name: &str, per: u32) -> Vec<f64> {
    roots
        .iter()
        .map(|&r| log.dur_under(r, name) / f64::from(per))
        .collect()
}

/// Per repetition, the host seconds a user waits for: one set-up plus
/// the run, not the benchmark's own checks.
fn waits(log: &SpanLog, roots: &[usize], repeats: u32) -> Vec<f64> {
    let run = totals(log, roots, "core.run", 1);
    totals(log, roots, "setup", repeats)
        .iter()
        .zip(run)
        .map(|(s, r)| s + r)
        .collect()
}

/// Measures workload `w`. The whole process, warm-up included, keeps to
/// `opt.seconds`, apart from the first repetition of each kind.
///
/// # Errors
///
/// A message when the simulator cannot build or run the workload, or a
/// probe fixture cannot be built; a failed output check is not an
/// error but a failed operation.
pub fn measure(w: Workload, opt: &Options) -> Result<Measured, String> {
    let budget = Budget::start(opt.seconds);
    let mut log = SpanLog::default();
    // Warm-up at smoke size: page in the code and the allocator.
    log.span("warmup", |_| {
        w.rep(opt.seed, true, false, &mut SpanLog::default())
    })?;
    let probes = if opt.trace {
        log.span("probes", |_| probes::run_all(opt.smoke))?
    } else {
        Vec::new()
    };

    let mut plain: Vec<(usize, Rep)> = Vec::new();
    let mut traced: Vec<(usize, Rep)> = Vec::new();
    let mut rss_mib = 0.0;
    repeat(&budget, w.reps(opt.smoke), opt.trace, |observed| {
        let root = log.spans().len();
        let name = if observed { "traced_rep" } else { "rep" };
        let rep = log.span(name, |log| w.rep(opt.seed, opt.smoke, observed, log))?;
        if observed {
            traced.push((root, rep));
        } else {
            if plain.is_empty() && !opt.trace {
                // Every repetition does the same work, so the first
                // sets the peak.
                rss_mib = peak_rss_mib()?;
            }
            plain.push((root, rep));
        }
        Ok(log.spans()[root].dur())
    })?;

    let mut m = Measured {
        metrics: Vec::new(),
        sim: plain[0].1.sim.clone(),
        attempted: plain.iter().map(|(_, r)| r.attempted).sum(),
        failed: plain.iter().map(|(_, r)| r.failed).sum(),
        problems: plain.iter().flat_map(|(_, r)| r.problems.clone()).collect(),
        golden: "skipped",
        reps: plain.len(),
        log,
    };
    m.problems.sort();
    m.problems.dedup();
    let first = &plain[0].1;
    if plain.iter().any(|(_, r)| r.digest != first.digest) {
        m.problems
            .push("repetitions disagree on simulated results".into());
    }
    if traced.iter().any(|(_, r)| r.digest != first.digest) {
        m.problems
            .push("observability changed simulated results".into());
    }
    match golden(w, opt, &first.digest) {
        Ok(g) => m.golden = g,
        Err(e) => {
            m.golden = "mismatch";
            m.problems.push(e);
        }
    }
    if !m.correct() {
        m.failed = m.attempted;
    }

    let log = &m.log;
    let repeats = w.setup_repeats(opt.smoke);
    let roots: Vec<usize> = plain.iter().map(|(root, _)| *root).collect();
    let count = counts(first);
    let mut metrics: Vec<(String, Sample)> = count
        .iter()
        .map(|&(k, v)| (k.to_string(), Sample::exact(v, plain.len())))
        .collect();
    // Leaf spans: their durations are their self times.
    for (span, per) in [
        ("workloads.gen", repeats),
        ("core.load", repeats),
        ("core.run", 1),
    ] {
        metrics.push((
            format!("{span}_s"),
            Sample::median_of(&totals(log, &roots, span, per)),
        ));
    }
    let wall = Sample::median_of(&waits(log, &roots, repeats));
    if opt.trace {
        let traced_roots: Vec<usize> = traced.iter().map(|(root, _)| *root).collect();
        let slower = Sample::median_of(&waits(log, &traced_roots, repeats));
        metrics.push((
            "sim.trace_overhead_frac".into(),
            Sample::exact(slower.value / wall.value - 1.0, traced.len()),
        ));
        for (k, v) in traced_metrics(&traced[0].1.stats) {
            metrics.push((k, Sample::exact(v, 1)));
        }
        for (k, v) in probes {
            metrics.push((k.to_string(), Sample::exact(v, 1)));
        }
    } else {
        let insts = count[0].1;
        let mips: Vec<f64> = totals(log, &roots, "core.run", 1)
            .iter()
            .map(|t| insts / t / 1e6)
            .collect();
        metrics.extend([
            ("wall_s".to_string(), wall),
            (
                "setup_s".into(),
                Sample::median_of(&totals(log, &roots, "setup", repeats)),
            ),
            ("guest_mips".into(), Sample::median_of(&mips)),
            ("peak_rss_mib".into(), Sample::exact(rss_mib, 1)),
        ]);
    }
    m.metrics = metrics;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn repetitions_stop_inside_the_budget() {
        let budget = Budget::start(0.2);
        let mut kinds = Vec::new();
        repeat(&budget, 1_000, true, |observed| {
            let t = Instant::now();
            std::thread::sleep(Duration::from_millis(if observed { 30 } else { 20 }));
            kinds.push(observed);
            Ok(t.elapsed().as_secs_f64())
        })
        .unwrap();
        assert!(budget.start.elapsed().as_secs_f64() <= 0.2);
        assert!(kinds.len() >= 4, "{kinds:?}");
        assert!(kinds.iter().step_by(2).all(|o| !o));
        assert!(kinds.iter().skip(1).step_by(2).all(|o| *o));
    }

    #[test]
    fn first_repetition_of_each_kind_runs_whatever_the_budget() {
        let budget = Budget::start(0.0);
        let mut kinds = Vec::new();
        repeat(&budget, 5, true, |observed| {
            kinds.push(observed);
            Ok(1.0)
        })
        .unwrap();
        assert_eq!(kinds, [false, true]);
    }

    #[test]
    fn target_count_ends_a_run_with_budget_left() {
        let budget = Budget::start(60.0);
        let mut n = 0;
        repeat(&budget, 3, false, |_| {
            n += 1;
            Ok(0.0)
        })
        .unwrap();
        assert_eq!(n, 3);
    }
}
