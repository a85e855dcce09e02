//! Pins the `ablations` binary's report: its stdout must appear
//! verbatim in EXPERIMENTS.md, so any change to a simulated ablation
//! number (or to the machine configuration the ablations build) shows
//! up as a failing test instead of a stale document.

use std::process::Command;

#[test]
fn ablations_stdout_matches_experiments_md() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .output()
        .expect("run the ablations binary");
    assert!(out.status.success(), "ablations exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("ablations prints UTF-8");
    let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let experiments = std::fs::read_to_string(doc).expect("read EXPERIMENTS.md");
    assert!(
        experiments.contains(&stdout),
        "EXPERIMENTS.md no longer holds the ablations report; the binary now prints:\n{stdout}"
    );
}
