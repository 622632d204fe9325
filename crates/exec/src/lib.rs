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
//! - [`serve`]: the line-delimited JSON job server behind `cpe serve`.
//! - [`protocol`]: the one socket transport every connection in the
//!   crate runs on, the serve request grammar and the fabric frames.
//! - [`coordinator`], [`worker`]: the fault-tolerant distributed sweep
//!   fabric — leases, heartbeats, retry and reassignment — behind
//!   `cpe sweep --coordinator` / `cpe worker`.
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
    execute_jobs, named_config, named_configs, preset_configs, run_job, run_job_traced,
    scale_by_name, scale_name, workload_by_name, CacheStatus, Job, JobOutcome,
};
pub use observe::{
    query_status, EventLog, FabricObserver, LogSummary, SharedBuffer, SweepProgress, WorkerReport,
    DEFAULT_EVENT_CAPACITY,
};
pub use protocol::{
    config_fingerprint, JobSpec, ServeDefaults, StatusBody, WorkerStatus, FABRIC_SCHEMA,
};
pub use scheduler::{effective_workers, run_work_stealing, SchedulerStats};
pub use serve::{Reply, Server};
pub use sweep::{SweepPlan, SweepResults, SweepStats};
pub use traces::TraceStore;
pub use worker::{run_worker, WorkerOptions, WorkerSummary};
