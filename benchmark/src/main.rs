//! `flick-benchmark`: runs the benchmark of record. See `README.md`.
//!
//! ```text
//! flick-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! flick-benchmark --all [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE]
//! flick-benchmark --compare BASE.json NEW.json
//! ```
//!
//! One workload runs in this process and ends its standard output with
//! the one-line result `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics, or with `--trace 1` the per-layer ones.
//! `--all` runs each workload in a child process of its own (and with
//! `--traced` a traced one after it) and writes their records to
//! `--out`.

use flick_benchmark::compare::compare;
use flick_benchmark::json::Json;
use flick_benchmark::manifest::Manifest;
use flick_benchmark::run::{measure, Options};
use flick_benchmark::workloads::{Workload, DEFAULT_SEED};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: flick-benchmark (--workload NAME | --all) [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--smoke] [--out FILE] [--bless]\n       \
                     flick-benchmark --compare BASE.json NEW.json";

enum Mode {
    One(Workload),
    All,
    Compare(String, String),
}

struct Args {
    mode: Mode,
    opt: Options,
    out: Option<String>,
}

fn parse(manifest: &Manifest) -> Result<Args, String> {
    let mut mode = None;
    let mut out = None;
    let mut opt = Options {
        seed: DEFAULT_SEED,
        seconds: manifest.run_seconds as f64,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let name = value(&mut args, &a)?;
                let w = Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?;
                mode = Some(Mode::One(w));
            }
            "--all" => mode = Some(Mode::All),
            "--compare" => {
                let base = value(&mut args, &a)?;
                mode = Some(Mode::Compare(base, value(&mut args, &a)?));
            }
            "--seed" => {
                opt.seed = value(&mut args, &a)?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?;
            }
            "--seconds" => {
                opt.seconds = value(&mut args, &a)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                opt.trace = match value(&mut args, &a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => opt.trace = true,
            "--smoke" => opt.smoke = true,
            "--bless" => opt.bless = true,
            "--out" => out = Some(value(&mut args, &a)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = mode.ok_or("one of --workload, --all or --compare is required")?;
    Ok(Args { mode, opt, out })
}

/// The recording host, so results quote the hardware they ran on.
fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([("nproc", (nproc as u64).into()), ("cpu", Json::str(cpu))])
}

fn write_results(path: &str, opt: &Options, records: Vec<Json>) -> Result<(), String> {
    let doc = Json::obj([
        ("host", host()),
        ("seed", opt.seed.into()),
        ("seconds", opt.seconds.into()),
        ("smoke", opt.smoke.into()),
        ("traced", opt.trace.into()),
        ("workloads", Json::Arr(records)),
    ]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))
}

/// Every metric of a record, one per line with its unit and spread.
fn print_record(record: &Json) {
    let name = record.get("workload").and_then(Json::as_str).unwrap_or("?");
    let field = |k: &str| record.get(k).map_or(Json::Null, Clone::clone);
    println!(
        "== {name}{}: {} reps, attempted {}, failed {}, golden {}",
        if record.get("traced") == Some(&Json::Bool(true)) {
            " (traced)"
        } else {
            ""
        },
        field("reps"),
        field("attempted"),
        field("failed"),
        field("golden")
    );
    for section in ["metrics", "sim"] {
        for (k, m) in record.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
            let num = |f: &str| m.get(f).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let spread = match m.get("n").and_then(Json::as_f64) {
                Some(n) if n > 1.0 && num("q1") != num("q3") => {
                    format!("  (n={n}, q1 {:.6}, q3 {:.6})", num("q1"), num("q3"))
                }
                _ => String::new(),
            };
            println!("{k:<36} {:>16.6} {unit}{spread}", num("value"));
        }
    }
}

fn one(w: Workload, opt: &Options, out: Option<&str>, manifest: &Manifest) -> Result<bool, String> {
    let m = measure(w, opt)?;
    let record = m.record(w, opt, manifest);
    for p in &m.problems {
        eprintln!("{}: {p}", w.name());
    }
    print_record(&record);
    println!("{record}");
    let summary = m.summary(opt, manifest)?;
    if let Some(path) = out {
        write_results(path, opt, vec![record])?;
    }
    println!("{summary}");
    Ok(m.correct())
}

/// Runs `w` in a child process; its record, and whether it succeeded.
fn child(
    exe: &std::path::Path,
    w: Workload,
    opt: &Options,
    trace: bool,
) -> Result<(Option<Json>, bool), String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &opt.seed.to_string()])
        .args(["--seconds", &opt.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opt.smoke {
        cmd.arg("--smoke");
    }
    if opt.bless {
        cmd.arg("--bless");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record = stdout
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .find(|j| j.get("workload").is_some());
    Ok((record, output.status.success()))
}

/// Every workload in a child process of its own: the plain run, and
/// with `opt.trace` the traced run after it.
fn all(opt: &Options, out: Option<&str>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true].into_iter().take(1 + usize::from(opt.trace)) {
            let (record, success) = child(&exe, w, opt, trace)?;
            let mode = if trace { "traced" } else { "plain" };
            match record {
                Some(r) => {
                    print_record(&r);
                    if !success {
                        eprintln!("{} ({mode}): checks failed", w.name());
                    }
                    records.push(r);
                }
                None => eprintln!("{} ({mode}): no result", w.name()),
            }
            ok &= success;
        }
    }
    if let Some(path) = out {
        write_results(path, opt, records)?;
        println!("wrote {path}");
    }
    Ok(ok)
}

/// Prints the comparison; true unless an end-to-end metric got worse.
fn compare_files(base: &str, new: &str, manifest: &Manifest) -> Result<bool, String> {
    let read = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (report, worse) = compare(&read(base)?, &read(new)?, manifest)?;
    print!("{report}");
    Ok(!worse)
}

fn main() -> ExitCode {
    let manifest = Manifest::get();
    let args = match parse(&manifest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flick-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = args.out.as_deref();
    let result = match &args.mode {
        Mode::One(w) => one(*w, &args.opt, out, &manifest),
        Mode::All => all(&args.opt, out),
        Mode::Compare(base, new) => compare_files(base, new, &manifest),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flick-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
