//! Every workload at smoke size, through the binary as it is run:
//! every declared metric is emitted under a well-formed name, the
//! results file is valid JSON, nothing fails, the goldens match and
//! every run keeps to its time budget.

use flick_benchmark::json::Json;
use flick_benchmark::manifest::Manifest;
use std::process::Command;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flick-benchmark"))
}

/// Time budget of each smoke process; every span must end inside it.
const SECONDS: f64 = 10.0;

#[test]
fn traced_smoke_run_of_every_workload() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let status = bench()
        .args([
            "--all",
            "--smoke",
            "--traced",
            "--seconds",
            &SECONDS.to_string(),
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs")
        .status;
    assert!(status.success(), "smoke run failed: {status}");

    let text = std::fs::read_to_string(&out).expect("results written");
    assert!(
        flick_sim::validate_json(&text).is_ok(),
        "results are not JSON"
    );
    let doc = Json::parse(&text).unwrap();
    let manifest = Manifest::get();
    let records = doc.get("workloads").and_then(Json::as_arr).unwrap();
    let runs: Vec<(&str, bool)> = records
        .iter()
        .map(|r| {
            let w = r.get("workload").and_then(Json::as_str).unwrap();
            (w, r.get("traced") == Some(&Json::Bool(true)))
        })
        .collect();
    let want: Vec<(&str, bool)> = manifest
        .workloads
        .iter()
        .flat_map(|w| [(w.as_str(), false), (w.as_str(), true)])
        .collect();
    assert_eq!(runs, want);

    for (r, (w, traced)) in records.iter().zip(runs) {
        assert_eq!(r.get("failed_frac"), Some(&Json::Num(0.0)), "{w}");
        assert_eq!(r.get("golden").and_then(Json::as_str), Some("match"), "{w}");
        let metrics = r.get("metrics").and_then(Json::as_obj).unwrap();
        let declared = if traced {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        };
        for d in declared {
            let m = metrics.iter().find(|(k, _)| *k == d.name);
            let v = m.and_then(|(_, m)| m.get("value")).and_then(Json::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{w}: `{}` missing", d.name);
        }
        let sim = r.get("sim").and_then(Json::as_obj).unwrap();
        for (k, _) in metrics.iter().chain(sim) {
            assert!(valid_name(k), "{w}: bad metric name `{k}`");
        }
        let spans = r.get("spans").and_then(Json::as_arr).unwrap();
        let end = spans
            .iter()
            .filter_map(|s| s.get("end_s").and_then(Json::as_f64))
            .fold(0.0, f64::max);
        assert!(
            end > 0.0 && end <= SECONDS,
            "{w}: last span ends at {end} s"
        );
    }
}

#[test]
fn single_workload_ends_with_the_result_line() {
    let output = bench()
        .args([
            "--workload",
            "nullcall",
            "--smoke",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    let emitted: Vec<&str> = last
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let manifest = Manifest::get();
    let declared: Vec<&str> = manifest
        .end_to_end
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    assert_eq!(emitted, declared);
}

#[test]
fn bad_arguments_are_refused() {
    for args in [&["--workload", "nope"][..], &["--all", "--trace", "2"], &[]] {
        let status = bench().args(args).output().unwrap().status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
