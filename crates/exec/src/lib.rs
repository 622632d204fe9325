//! Parallel execution of simulation jobs: a work-stealing scheduler, a
//! content-addressed result cache, and a batch-job server.
//!
//! The simulator itself is deliberately single-threaded and
//! deterministic; what *is* parallel is the experiment space around it —
//! configurations × workloads grids, benchmark suites, batch requests.
//! This crate supplies the execution layer those front ends share:
//!
//! - [`scheduler`]: dependency-free work stealing over `std::thread`,
//!   with results returned in submission order so aggregates are
//!   independent of worker count. It lives in `cpe-core`, where
//!   `Experiment` runs on it too, and is re-exported here.
//! - [`cache`]: an on-disk result cache addressed by an FNV-1a hash of
//!   the canonical (key-sorted) configuration JSON plus workload, scale,
//!   instruction window, and schema versions. A cache hit returns the
//!   byte-identical schema-stamped metrics document a fresh run would produce.
//! - [`job`]: the `(SimConfig, workload)` unit of work with panic
//!   isolation and hoisted config validation.
//! - [`sweep`]: the cached, parallel grid behind `cpe sweep`.
//! - [`serve`]: the line-delimited JSON job protocol behind `cpe serve`.
//! - [`protocol`], [`coordinator`], [`worker`]: the fault-tolerant
//!   distributed sweep fabric — leases, heartbeats, retry and
//!   reassignment — behind `cpe sweep --coordinator` / `cpe worker`.
//! - [`observe`]: fleet observability for that fabric — the bounded
//!   JSONL event log, Chrome trace export, live progress line, and the
//!   `cpe status` client. Stderr/side-file only, never the results.
//! - [`chaos`]: the fault-injection harness that proves the fabric's
//!   byte-identity promise under worker death and protocol abuse.
//!
//! The layer's core promise, pinned by
//! `crates/exec/tests/parallel_matches_serial.rs`: for any worker count
//! and any cache state, a sweep's aggregate table and metrics document
//! are **byte-identical** to the serial, uncached run's.

pub mod cache;
pub mod chaos;
pub mod coordinator;
pub mod job;
pub mod observe;
pub mod protocol;
pub mod render;
pub use cpe_core::scheduler;
pub mod serve;
pub mod sweep;
pub mod traces;
pub mod worker;

pub use cache::{canonical_json, fnv1a64, CacheKey, CacheStats, ResultCache, DEFAULT_CACHE_DIR};
pub use coordinator::{Coordinator, FabricOptions, FabricReport, FabricStats};
pub use job::{
    execute_jobs, named_config, preset_by_name, preset_configs, run_job, run_job_traced,
    scale_by_name, scale_name, workload_by_name, CacheStatus, Job, JobOutcome,
};
pub use observe::{
    query_status, EventLog, FabricObserver, LogSummary, SharedBuffer, SweepProgress, WorkerReport,
    DEFAULT_EVENT_CAPACITY,
};
pub use protocol::{config_fingerprint, JobSpec, StatusBody, WorkerStatus, FABRIC_SCHEMA};
pub use scheduler::{effective_workers, run_work_stealing, SchedulerStats};
pub use serve::{Reply, ServeDefaults, ServeLimits, Server};
pub use sweep::{SweepPlan, SweepResults, SweepStats};
pub use traces::TraceStore;
pub use worker::{run_worker, WorkerOptions, WorkerSummary};

use std::time::Instant;

use cpe_core::{BenchEntry, BenchReport, SimConfig, SimError, Simulator};
use cpe_workloads::{Scale, Workload};

/// Run the standard benchmark suite with the workloads spread across
/// `workers` threads.
///
/// Per-workload wall times measure each run on its own thread, and the
/// totals are the *sum* of those times (the suite's cost in CPU terms,
/// comparable to the serial report) — not the elapsed wall of the batch.
/// The simulated counters are identical to [`BenchReport::run`]'s; only
/// the timings reflect parallel execution.
///
/// # Errors
///
/// The first failing workload's [`SimError`], in suite order.
pub fn bench_parallel(
    name: &str,
    config: &SimConfig,
    max_insts: u64,
    workers: usize,
) -> Result<BenchReport, SimError> {
    config.validate()?;
    let (results, _) = run_work_stealing(&Workload::ALL, workers, |_, &workload| {
        let simulator = Simulator::try_new(config.clone())?;
        let started = Instant::now();
        let summary = simulator.try_run(workload, Scale::Test, Some(max_insts))?;
        let wall = started.elapsed().as_secs_f64();
        Ok::<BenchEntry, SimError>(BenchEntry {
            workload: workload.name().to_string(),
            cycles: summary.cycles,
            insts: summary.insts,
            ipc: summary.ipc,
            wall_seconds: wall,
            cycles_per_sec: if wall > 0.0 {
                summary.cycles as f64 / wall
            } else {
                0.0
            },
            insts_per_sec: if wall > 0.0 {
                summary.insts as f64 / wall
            } else {
                0.0
            },
            sched_events_peak: summary.raw.cpu.sched_events_peak.get(),
        })
    });
    let entries = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let total_wall: f64 = entries.iter().map(|e| e.wall_seconds).sum();
    Ok(BenchReport::assemble(
        name,
        &config.name,
        max_insts,
        entries,
        total_wall,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_bench_matches_serial_simulated_counters() {
        let config = SimConfig::dual_port();
        let serial = BenchReport::run("b", &config, 1_000).expect("serial bench runs");
        let parallel = bench_parallel("b", &config, 1_000, 3).expect("parallel bench runs");
        assert_eq!(serial.entries.len(), parallel.entries.len());
        for (a, b) in serial.entries.iter().zip(&parallel.entries) {
            assert_eq!(a.workload, b.workload, "suite order is preserved");
            assert_eq!(a.cycles, b.cycles, "{}", a.workload);
            assert_eq!(a.insts, b.insts, "{}", a.workload);
        }
        assert_eq!(serial.total_cycles, parallel.total_cycles);
    }

    #[test]
    fn parallel_bench_rejects_invalid_configs_up_front() {
        let bad = SimConfig::dual_port().with_ports(0);
        let error = bench_parallel("b", &bad, 1_000, 2).expect_err("zero ports");
        assert_eq!(error.kind(), "config");
    }
}
