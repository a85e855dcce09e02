//! The docs quote the simulator's hot-loop throughput from the bench
//! record instead of typing it by hand: README.md, EXPERIMENTS.md and
//! DESIGN.md must each name `interpret_hotloop` and quote its
//! `instructions_per_sec` from `BENCH_simulator.json`, rounded to the
//! nearest 10 M, as `~N M`. Re-recording the bench (`scripts/bench.sh`)
//! with a different throughput fails this test until the docs follow.

use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {name}: {e}"))
}

/// Numeric `field` of the bench entry named exactly `name` in the flat
/// one-entry-per-line JSON the bench harness writes.
fn bench_field(json: &str, name: &str, field: &str) -> Option<u64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let rest = line.split(&format!("\"{field}\": ")).nth(1)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[test]
fn docs_quote_the_recorded_hotloop_throughput() {
    let bench = read("BENCH_simulator.json");
    let ips = bench_field(&bench, "interpret_hotloop", "instructions_per_sec")
        .expect("BENCH_simulator.json records interpret_hotloop's instructions_per_sec");
    let quote = format!("~{} M", (ips + 5_000_000) / 10_000_000 * 10);
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let text = read(doc);
        assert!(
            text.contains("interpret_hotloop"),
            "{doc} does not name the interpret_hotloop bench"
        );
        assert!(
            text.contains(&quote),
            "{doc} does not quote interpret_hotloop as {quote} inst/s \
             (BENCH_simulator.json records {ips})"
        );
    }
}
