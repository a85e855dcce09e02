#!/usr/bin/env bash
# Full CI gate: release build, the whole workspace test suite, and
# clippy with warnings promoted to errors. Run from anywhere. The
# workspace suite includes crates/bench/tests/ablations_pinned.rs,
# which runs the `ablations` binary and fails unless EXPERIMENTS.md
# holds its stdout verbatim.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo build --release --benches
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings as errors: a deleted or privatised item must
# not leave a stale intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Smoke-run the bench harness (1 sample) and gate the cheap, stable
# benches against the committed baseline: a >30% regression of the
# interpreter or the 1-NxP migration path fails CI loudly, and any
# drift in the deterministic fig_isa_matrix per-ISA-pair migration
# cost fails exactly (1 sample is enough — simulated time is exact).
tmp_bench="$(mktemp -t flick-bench-XXXXXX.json)"
trap 'rm -f "$tmp_bench"' EXIT
cargo bench -p flick-bench --bench simulator -- --samples 1 --json "$tmp_bench"
cargo run --release -p flick-bench --bin bench_gate -- BENCH_simulator.json "$tmp_bench"

# Block-lane differential smoke: the chaining suite proves the block
# lane (chaining and spin tier included) bit-identical to the step
# path (timing, stats, faults) in release across all three ISAs, every
# fuel cutoff, random and truncated garbage text, SMC rewriting a
# chained successor mid-loop, CR3 reloads between quanta, and the data
# memo over mixed page sizes, holes and protect; the fast-path suite
# proves the same through the whole machine, chaos seeds included.
cargo test -q --release --test blocks
cargo test -q --release --test fastpath
echo "block chaining and fast-path differentials: ok"

# The benchmark of record is a workspace of its own (benchmark/), so
# the workspace-wide test and clippy runs above do not reach it.
cargo test -q --release --locked --manifest-path benchmark/Cargo.toml
cargo clippy --locked --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
echo "benchmark crate: tests and clippy ok"

# Topology smoke matrix: every topology's concurrent workload must run
# to completion, including a 3-ISA heterogeneous configuration (x64
# host + rv64/arm64/rv64 accelerators — ISA-aware placement must route
# every call). tests/isa_goldens.rs pins the timelines bit for bit;
# this drives the example end to end at each configuration.
for topo in "1 1" "2 2" "4 4"; do
    cargo run --release --example topology -- $topo > /dev/null
done
cargo run --release --example topology -- 1 3 --isas rv64,arm64 > /dev/null
echo "topology smoke matrix: 4 configurations ok"

# Failover chaos smoke: the dedicated suite soaks 12 seeds of combined
# link + device chaos in release (crash/hang/unplug/rejoin must be
# result-invisible with a balanced task census), the error-path suite
# pins the single-failover counters (replacement, re-execution, a
# second survivor dying before its kick, a degraded nested call
# returning to its parked frame) beside it, then the example drives 8
# more seeds end to end — it asserts its results against a fault-free
# twin internally. The heap-budget suite holds every crossing to one
# heap allocation (its wire buffer) and a serving run to at most 64
# bytes retained per reaped request, in release.
cargo test -q --release --test failover
cargo test -q --release --test error_paths
cargo test -q --release --test crossing_allocs
for seed in 1 2 3 4 5 6 7 8; do
    cargo run --release --example failover -- "$seed" > /dev/null
done
echo "failover chaos smoke: 8 seeds ok"

# Timeline-export smoke: a 2x2 observability run must emit a non-empty
# Chrome-trace JSON file (the example itself validates the JSON), and
# a heterogeneous run must name its Perfetto tracks by ISA.
tmp_trace="$(mktemp -t flick-timeline-XXXXXX.json)"
trap 'rm -f "$tmp_bench" "$tmp_trace"' EXIT
cargo run --release --example timeline -- 2 2 "$tmp_trace"
test -s "$tmp_trace"
cargo run --release --example timeline -- 1 2 "$tmp_trace" --isas rv64,arm64
grep -q 'nxp1 (arm64)' "$tmp_trace"
test -s "$tmp_trace"

# Serving-scenario smoke: the open-loop multi-tenant example must carry
# its load point end to end at two seeds (the dedicated suite in
# tests/serving.rs proves the sweep replays bit-identically; this
# drives the example binary itself), the 250-tenant maximum (the
# largest text footprint any example runs) must carry its load point
# too, and the saturated fleet's Perfetto export must be non-empty
# (the example validates the JSON before writing).
for seed in 7 99; do
    cargo run --release --example serving -- --seed "$seed" > /dev/null
done
cargo run --release --example serving -- --tenants 250 > /dev/null
cargo run --release --example serving -- --timeline "$tmp_trace" > /dev/null
test -s "$tmp_trace"
echo "serving smoke: 2 seeds and 250 tenants ok"
