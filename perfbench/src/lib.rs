//! End-to-end and per-layer benchmark of the `cpe` simulator.
//!
//! The untraced run measures one workload end to end and prints the
//! `BENCHMARK.json` end-to-end metrics; the traced run records a span
//! around every call the benchmark makes into a simulator layer and
//! prints per-layer throughput, work counts and self times. Every run
//! checks its outputs against committed digests. See `README.md`.

pub mod check;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod workloads;
