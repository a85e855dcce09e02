#![warn(missing_docs)]
//! The benchmark of record for the Flick simulator: four workloads,
//! end-to-end host and simulated metrics, per-layer counts, host spans,
//! layer probes and a traced run. See `README.md` for what each
//! workload and metric is for.

pub mod compare;
pub mod json;
pub mod manifest;
pub mod probes;
pub mod run;
pub mod spans;
pub mod workloads;
