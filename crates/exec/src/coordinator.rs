//! The fabric coordinator: shards a sweep grid into leased work units,
//! tracks worker heartbeats against deadlines, reassigns expired leases,
//! retries failed jobs with bounded exponential backoff, and assembles
//! results in submission order so aggregates are byte-identical to a
//! serial run regardless of topology, timing, or which workers died.
//!
//! The state machine of one grid cell:
//!
//! ```text
//!             grant                    result
//!  Pending ─────────────▶ Leased ────────────────▶ Done(Ok)
//!    ▲                      │
//!    │   lease expiry /     │ nack (job failed on the worker)
//!    │   worker lost        │   attempt+1 ≤ max_retries: backoff+jitter
//!    └──────────────────────┤   attempt+1 > max_retries: Done(Err)
//!         reassigns+1       │
//!         > max_reassigns: Done(Err(fabric))
//! ```
//!
//! Liveness rules:
//!
//! * A lease's deadline is `now + lease_ttl`, refreshed by every
//!   heartbeat. A worker that stops heartbeating — hung, killed, or
//!   partitioned — loses the lease at the deadline and the cell goes
//!   back to pending for any other worker.
//! * A connection that drops, sends garbage, or overruns the line cap
//!   has **all** its leases revoked immediately.
//! * A *stale* result (from a lease already revoked) is still accepted
//!   when the cell is not yet done: documents are deterministic, so a
//!   slow worker's late answer is exactly the answer a re-run would
//!   produce. Duplicates are ignored.
//! * Nack-driven retries back off exponentially with deterministic
//!   per-(cell, attempt) jitter; infrastructure revocations requeue
//!   immediately (the job did not fail — the worker did).
//! * Both retry paths are bounded; exhaustion marks the cell
//!   `Done(Err)` so the sweep renders `FAILED(<kind>)` instead of
//!   hanging or silently shrinking the grid.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cpe_core::json::{escape, log2hist_json};
use cpe_core::SimError;
use cpe_stats::Log2Histogram;

use crate::cache::fnv1a64;
use crate::job::{CacheStatus, Job, JobOutcome};
use crate::observe::{FabricObserver, LogSummary, WorkerReport};
use crate::protocol::{
    accept_until, CoordinatorFrame, JobSpec, Opening, Received, StatusBody, TcpConnection,
    WorkerFrame, WorkerStatus, DEFAULT_HEARTBEAT, FABRIC_LINE_BYTES, FABRIC_SCHEMA,
    SERVE_IDLE_TIMEOUT, SERVE_LINE_BYTES,
};
use crate::serve::Server;

/// Fabric timing and bounds. The defaults suit interactive sweeps;
/// tests and the chaos harness shrink the durations.
#[derive(Debug, Clone, Copy)]
pub struct FabricOptions {
    /// Heartbeat cadence advertised to workers.
    pub heartbeat: Duration,
    /// Lease lifetime without a heartbeat; refreshed by each heartbeat.
    pub lease_ttl: Duration,
    /// Nack-driven re-runs allowed per cell beyond the first attempt.
    pub max_retries: u32,
    /// Lease revocations (expiry / lost worker) tolerated per cell.
    pub max_reassigns: u32,
    /// Base of the exponential retry backoff.
    pub backoff_base: Duration,
    /// Bound on simultaneously leased cells (backpressure).
    pub max_inflight: usize,
    /// Delay suggested to workers in `wait` frames.
    pub wait_hint: Duration,
    /// Close a fabric connection silent for this long (and a new
    /// connection that has not sent its first line).
    pub idle_timeout: Duration,
}

impl Default for FabricOptions {
    fn default() -> FabricOptions {
        FabricOptions {
            heartbeat: DEFAULT_HEARTBEAT,
            lease_ttl: Duration::from_secs(3),
            max_retries: 2,
            max_reassigns: 16,
            backoff_base: Duration::from_millis(50),
            max_inflight: 64,
            wait_hint: Duration::from_millis(100),
            idle_timeout: Duration::from_secs(10),
        }
    }
}

/// Deterministic backoff before re-running a nacked cell: exponential in
/// the attempt number, plus a per-(cell, attempt) FNV jitter so a batch
/// of simultaneous failures does not retry in lockstep.
fn backoff(options: &FabricOptions, job: usize, attempt: u32) -> Duration {
    let exponential = options.backoff_base.saturating_mul(1u32 << attempt.min(6));
    let base_ms = options.backoff_base.as_millis().max(1) as u64;
    let mut seed = [0u8; 12];
    seed[..8].copy_from_slice(&(job as u64).to_le_bytes());
    seed[8..].copy_from_slice(&attempt.to_le_bytes());
    exponential + Duration::from_millis(fnv1a64(&seed) % base_ms)
}

/// Lifetime counters of one fabric run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FabricStats {
    /// Grid cells the run was responsible for.
    pub cells: usize,
    /// Worker sessions that completed the handshake.
    pub workers_seen: u64,
    /// Leases granted (including re-grants of the same cell).
    pub granted: u64,
    /// Leases revoked because their heartbeat deadline passed.
    pub expired: u64,
    /// Cells requeued after a revocation (expiry or lost worker).
    pub reassigned: u64,
    /// Cells requeued after a worker nack.
    pub retries: u64,
    /// Results accepted or ignored after their lease was revoked.
    pub stale_results: u64,
    /// Garbage frames, line-cap overruns, and handshake violations.
    pub protocol_errors: u64,
    /// `wait` frames sent (backpressure or empty pending set).
    pub waits: u64,
    /// Live `status` queries answered mid-sweep.
    pub status_queries: u64,
    /// High-water mark of simultaneously leased cells.
    pub peak_inflight: usize,
    /// Cells that exhausted their retry or reassignment budget.
    pub failed: usize,
    /// Wall seconds from first listen to full assembly.
    pub wall_seconds: f64,
}

impl std::fmt::Display for FabricStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fabric: {} cells in {:.2}s via {} worker session(s) — {} lease(s) granted \
             (peak {} in-flight), {} expired, {} reassigned, {} retried, {} stale result(s), \
             {} protocol error(s), {} wait(s), {} failed",
            self.cells,
            self.wall_seconds,
            self.workers_seen,
            self.granted,
            self.peak_inflight,
            self.expired,
            self.reassigned,
            self.retries,
            self.stale_results,
            self.protocol_errors,
            self.waits,
            self.failed
        )
    }
}

/// One grid cell's lifecycle.
enum Cell {
    Pending {
        attempt: u32,
        reassigns: u32,
        not_before: Instant,
    },
    Leased {
        lease: u64,
        attempt: u32,
        reassigns: u32,
    },
    Done {
        document: Result<String, SimError>,
        cache: CacheStatus,
        wall_seconds: f64,
    },
}

struct LeaseInfo {
    job: usize,
    session: u64,
    deadline: Instant,
}

/// What the coordinator remembers about every lease ever granted, kept
/// past revocation so stale results can still land and be attributed.
struct LeaseRecord {
    job: usize,
    granted_at: Instant,
}

/// Per-session fleet accounting, indexed by `session - 1`.
struct WorkerSlot {
    report: WorkerReport,
    last_seen: Instant,
}

/// The coordinator's shared state: every mutation happens under one
/// mutex, with lock scopes kept to pure bookkeeping (no I/O — the
/// [`FabricObserver`]'s event log is `try_send`, never a write).
struct FabricState {
    cells: Vec<Cell>,
    /// Live leases only; revocation removes the entry.
    leases: HashMap<u64, LeaseInfo>,
    /// Every lease ever granted → its cell and grant time, kept so
    /// stale results can still land. Bounded by `granted`.
    lease_index: HashMap<u64, LeaseRecord>,
    /// One slot per session ever registered.
    workers: Vec<WorkerSlot>,
    /// Grant → first accepted result, per cell, in milliseconds.
    lease_latency_ms: Log2Histogram,
    /// Worker-reported wall milliseconds per accepted cell.
    cell_wall_ms: Log2Histogram,
    next_lease: u64,
    next_session: u64,
    done: usize,
    stats: FabricStats,
}

impl FabricState {
    fn new(cells: usize, now: Instant) -> FabricState {
        FabricState {
            cells: (0..cells)
                .map(|_| Cell::Pending {
                    attempt: 0,
                    reassigns: 0,
                    not_before: now,
                })
                .collect(),
            leases: HashMap::new(),
            lease_index: HashMap::new(),
            workers: Vec::new(),
            lease_latency_ms: Log2Histogram::new(),
            cell_wall_ms: Log2Histogram::new(),
            next_lease: 0,
            next_session: 0,
            done: 0,
            stats: FabricStats {
                cells,
                ..FabricStats::default()
            },
        }
    }

    fn complete(&self) -> bool {
        self.done == self.cells.len()
    }

    /// The slot for `session`, when it was registered through
    /// [`FabricState::register_session`] (unit tests grant against
    /// unregistered session ids, which simply go unattributed).
    fn worker_mut(&mut self, session: u64) -> Option<&mut WorkerSlot> {
        session
            .checked_sub(1)
            .and_then(|index| self.workers.get_mut(index as usize))
    }

    fn touch(&mut self, session: u64, now: Instant) {
        if let Some(slot) = self.worker_mut(session) {
            slot.last_seen = now;
        }
    }

    fn register_session(&mut self, worker: &str, now: Instant, obs: &FabricObserver) -> u64 {
        self.next_session += 1;
        self.stats.workers_seen += 1;
        self.workers.push(WorkerSlot {
            report: WorkerReport {
                session: self.next_session,
                name: worker.to_string(),
                connected: true,
                ..WorkerReport::default()
            },
            last_seen: now,
        });
        obs.worker_connect(self.next_session, worker);
        self.next_session
    }

    /// Mark a session's slot disconnected (its leases are revoked
    /// separately by [`FabricState::revoke_session`]).
    fn session_closed(&mut self, session: u64) {
        if let Some(slot) = self.worker_mut(session) {
            slot.report.connected = false;
        }
    }

    /// A point-in-time view of the grid and the fleet for the `status`
    /// endpoint.
    fn snapshot(&self, now: Instant, elapsed_ms: u64) -> StatusBody {
        let mut queued = 0u64;
        let mut backoff = 0u64;
        for cell in &self.cells {
            if let Cell::Pending { not_before, .. } = cell {
                if *not_before <= now {
                    queued += 1;
                } else {
                    backoff += 1;
                }
            }
        }
        StatusBody {
            elapsed_ms,
            cells: self.cells.len() as u64,
            done: (self.done - self.stats.failed) as u64,
            failed: self.stats.failed as u64,
            leased: self.leases.len() as u64,
            queued,
            backoff,
            workers: self
                .workers
                .iter()
                .map(|WorkerSlot { report, last_seen }| WorkerStatus {
                    session: report.session,
                    worker: report.name.clone(),
                    connected: report.connected,
                    cells: report.cells,
                    hits: report.hits,
                    misses: report.misses,
                    bypass: report.bypass,
                    nacks: report.nacks,
                    last_seen_ms: now.saturating_duration_since(*last_seen).as_millis() as u64,
                })
                .collect(),
        }
    }

    /// Answer one `ready` frame: a lease, a wait hint, or drain.
    fn grant(
        &mut self,
        session: u64,
        now: Instant,
        options: &FabricOptions,
        jobs: &[Job],
        obs: &FabricObserver,
    ) -> CoordinatorFrame {
        self.touch(session, now);
        if self.complete() {
            return CoordinatorFrame::Drain;
        }
        let wait = CoordinatorFrame::Wait {
            millis: options.wait_hint.as_millis().max(1) as u64,
        };
        if self.leases.len() >= options.max_inflight {
            self.stats.waits += 1;
            obs.wait(session, "backpressure");
            return wait;
        }
        let candidate = self.cells.iter().position(
            |cell| matches!(cell, Cell::Pending { not_before, .. } if *not_before <= now),
        );
        let Some(job) = candidate else {
            // Everything is leased, done, or backing off; a straggler
            // may still nack and requeue, so the worker keeps polling.
            self.stats.waits += 1;
            obs.wait(session, "empty");
            return wait;
        };
        let Cell::Pending {
            attempt, reassigns, ..
        } = self.cells[job]
        else {
            unreachable!("candidate position only matches Pending");
        };
        self.next_lease += 1;
        let lease = self.next_lease;
        self.cells[job] = Cell::Leased {
            lease,
            attempt,
            reassigns,
        };
        self.leases.insert(
            lease,
            LeaseInfo {
                job,
                session,
                deadline: now + options.lease_ttl,
            },
        );
        self.lease_index.insert(
            lease,
            LeaseRecord {
                job,
                granted_at: now,
            },
        );
        self.stats.granted += 1;
        self.stats.peak_inflight = self.stats.peak_inflight.max(self.leases.len());
        obs.lease_grant(
            lease,
            job,
            session,
            attempt,
            reassigns,
            &jobs[job].config.name,
            jobs[job].workload.name(),
        );
        CoordinatorFrame::Lease {
            lease,
            job: JobSpec::from_job(&jobs[job]),
        }
    }

    /// Refresh a live lease's deadline. Heartbeats for revoked or
    /// unknown leases are silently ignored — the worker will learn the
    /// lease is dead when its result is counted stale.
    fn heartbeat(
        &mut self,
        lease: u64,
        session: u64,
        now: Instant,
        options: &FabricOptions,
        obs: &FabricObserver,
    ) {
        self.touch(session, now);
        if let Some(info) = self.leases.get_mut(&lease) {
            info.deadline = now + options.lease_ttl;
            obs.heartbeat(lease, session);
        }
    }

    /// Land a result. Stale results (revoked lease) still complete the
    /// cell when it is not yet done; duplicates are ignored.
    #[allow(clippy::too_many_arguments)]
    fn result(
        &mut self,
        lease: u64,
        session: u64,
        document: String,
        cache: CacheStatus,
        wall_seconds: f64,
        now: Instant,
        obs: &FabricObserver,
    ) {
        let Some(record) = self.lease_index.get(&lease) else {
            self.stats.protocol_errors += 1;
            obs.protocol_error(session, &format!("result for unknown lease {lease}"));
            return;
        };
        let job = record.job;
        let granted_at = record.granted_at;
        let stale = self.leases.remove(&lease).is_none();
        if stale {
            self.stats.stale_results += 1;
        } else {
            self.lease_latency_ms
                .record(now.saturating_duration_since(granted_at).as_millis() as u64);
        }
        let duplicate = matches!(self.cells[job], Cell::Done { .. });
        if !duplicate {
            self.cells[job] = Cell::Done {
                document: Ok(document),
                cache,
                wall_seconds,
            };
            self.done += 1;
            self.cell_wall_ms.record((wall_seconds * 1.0e3) as u64);
        }
        if let Some(slot) = self.worker_mut(session) {
            slot.last_seen = now;
            let report = &mut slot.report;
            report.cells += 1;
            match cache {
                CacheStatus::Hit => report.hits += 1,
                CacheStatus::Miss => report.misses += 1,
                CacheStatus::Bypass => report.bypass += 1,
            }
            report.wall_ms.record((wall_seconds * 1.0e3) as u64);
        }
        obs.result(
            lease,
            job,
            session,
            cache,
            wall_seconds * 1.0e3,
            stale,
            duplicate,
        );
    }

    /// The worker reported the job itself failed: bounded retry with
    /// backoff, then a terminal `FAILED(<kind>)` cell.
    #[allow(clippy::too_many_arguments)]
    fn nack(
        &mut self,
        lease: u64,
        session: u64,
        kind: &str,
        message: &str,
        now: Instant,
        options: &FabricOptions,
        obs: &FabricObserver,
    ) {
        // Leases the coordinator never granted stay silent: there is no
        // cell to act on and nothing to attribute.
        let Some(record) = self.lease_index.get(&lease) else {
            return;
        };
        let job = record.job;
        if let Some(slot) = self.worker_mut(session) {
            slot.last_seen = now;
            slot.report.nacks += 1;
        }
        // Only a *live* lease's nack acts on the cell: a stale nack
        // races a re-grant that may well succeed.
        let live = self.leases.remove(&lease).is_some();
        obs.nack(lease, job, session, kind, !live);
        if !live {
            return;
        }
        let Cell::Leased {
            attempt, reassigns, ..
        } = self.cells[job]
        else {
            return;
        };
        let attempt = attempt + 1;
        if attempt > options.max_retries {
            let message = format!("{message} [after {attempt} attempt(s)]");
            self.cells[job] = Cell::Done {
                document: Err(SimError::Fabric {
                    kind: kind.to_string(),
                    message: message.clone(),
                }),
                cache: CacheStatus::Bypass,
                wall_seconds: 0.0,
            };
            self.done += 1;
            self.stats.failed += 1;
            obs.cell_failed(job, kind, &message);
        } else {
            self.stats.retries += 1;
            let delay = backoff(options, job, attempt);
            self.cells[job] = Cell::Pending {
                attempt,
                reassigns,
                not_before: now + delay,
            };
            obs.retry(job, attempt, delay.as_millis() as u64);
        }
    }

    /// Revoke one lease (expiry or lost worker): the cell goes back to
    /// pending immediately, up to the reassignment budget.
    fn revoke_lease(
        &mut self,
        lease: u64,
        now: Instant,
        options: &FabricOptions,
        expired: bool,
        obs: &FabricObserver,
    ) {
        let Some(info) = self.leases.remove(&lease) else {
            return;
        };
        obs.lease_revoked(lease, info.job, info.session, expired);
        match self.cells[info.job] {
            Cell::Leased {
                lease: held,
                attempt,
                reassigns,
            } if held == lease => {
                let reassigns = reassigns + 1;
                if reassigns > options.max_reassigns {
                    let message = format!(
                        "gave up after {reassigns} lease revocations \
                         (workers kept dying or stalling)"
                    );
                    self.cells[info.job] = Cell::Done {
                        document: Err(SimError::Fabric {
                            kind: "fabric".to_string(),
                            message: message.clone(),
                        }),
                        cache: CacheStatus::Bypass,
                        wall_seconds: 0.0,
                    };
                    self.done += 1;
                    self.stats.failed += 1;
                    obs.cell_failed(info.job, "fabric", &message);
                } else {
                    self.stats.reassigned += 1;
                    self.cells[info.job] = Cell::Pending {
                        attempt,
                        reassigns,
                        not_before: now,
                    };
                    obs.reassign(info.job, reassigns);
                }
            }
            // Cell already done, or re-leased under a newer id.
            _ => {}
        }
    }

    /// Revoke every lease a session holds (disconnect, garbage, idle).
    fn revoke_session(
        &mut self,
        session: u64,
        now: Instant,
        options: &FabricOptions,
        obs: &FabricObserver,
    ) {
        let held: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, info)| info.session == session)
            .map(|(&lease, _)| lease)
            .collect();
        for lease in held {
            self.revoke_lease(lease, now, options, false, obs);
        }
    }

    /// Revoke every lease whose deadline has passed.
    fn expire(&mut self, now: Instant, options: &FabricOptions, obs: &FabricObserver) {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, info)| info.deadline <= now)
            .map(|(&lease, _)| lease)
            .collect();
        for lease in expired {
            self.stats.expired += 1;
            self.revoke_lease(lease, now, options, true, obs);
        }
    }

    /// Tear down into the assembled report, outcomes in submission
    /// order. Must only be called when [`FabricState::complete`].
    fn into_report(self) -> FabricReport {
        let outcomes = self
            .cells
            .into_iter()
            .enumerate()
            .map(|(index, cell)| match cell {
                Cell::Done {
                    document,
                    cache,
                    wall_seconds,
                } => JobOutcome {
                    index,
                    document,
                    cache,
                    wall_seconds,
                },
                _ => unreachable!("into_report requires a complete grid"),
            })
            .collect();
        FabricReport {
            outcomes,
            stats: self.stats,
            workers: self.workers.into_iter().map(|slot| slot.report).collect(),
            lease_latency_ms: self.lease_latency_ms,
            cell_wall_ms: self.cell_wall_ms,
            log: None,
            trace_json: None,
        }
    }
}

/// The assembled run: submission-order outcomes, lifetime counters, and
/// the fleet-level observability the coordinator accumulated.
#[derive(Debug)]
pub struct FabricReport {
    /// One outcome per grid cell, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Lifetime counters.
    pub stats: FabricStats,
    /// One report per worker session ever registered, in session order.
    pub workers: Vec<WorkerReport>,
    /// Grant → accepted-result latency per cell, in milliseconds.
    pub lease_latency_ms: Log2Histogram,
    /// Worker-reported wall milliseconds per accepted cell.
    pub cell_wall_ms: Log2Histogram,
    /// What the fabric event log accomplished, when one was attached.
    pub log: Option<LogSummary>,
    /// The rendered Chrome trace, when tracing was enabled.
    pub trace_json: Option<String>,
}

impl FabricReport {
    /// The fleet metrics document: a schema-2 JSON object under a
    /// `fabric` key, written by `--fabric-metrics`. Deliberately a
    /// *separate* document from the sweep's aggregate metrics, whose
    /// bytes must stay identical to an unobserved run.
    pub fn fabric_json(&self) -> String {
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|worker| {
                format!(
                    "{{\"session\":{},\"worker\":\"{}\",\"connected\":{},\"cells\":{},\
                     \"hits\":{},\"misses\":{},\"bypass\":{},\"nacks\":{},\"wall_ms\":{}}}",
                    worker.session,
                    escape(&worker.name),
                    worker.connected,
                    worker.cells,
                    worker.hits,
                    worker.misses,
                    worker.bypass,
                    worker.nacks,
                    log2hist_json(&worker.wall_ms)
                )
            })
            .collect();
        let log = match &self.log {
            Some(summary) => format!(
                "{{\"written\":{},\"dropped\":{}}}",
                summary.written, summary.dropped
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"schema\":2,\"kind\":\"fabric\",\"fabric\":{{\"cells\":{},\"done\":{},\
             \"failed\":{},\"wall_seconds\":{},\"workers_seen\":{},\"granted\":{},\
             \"expired\":{},\"reassigned\":{},\"retries\":{},\"stale_results\":{},\
             \"protocol_errors\":{},\"waits\":{},\"status_queries\":{},\"peak_inflight\":{},\
             \"lease_latency_ms\":{},\"cell_wall_ms\":{},\"log\":{log},\"workers\":[{}]}}}}",
            self.stats.cells,
            self.stats.cells - self.stats.failed,
            self.stats.failed,
            self.stats.wall_seconds,
            self.stats.workers_seen,
            self.stats.granted,
            self.stats.expired,
            self.stats.reassigned,
            self.stats.retries,
            self.stats.stale_results,
            self.stats.protocol_errors,
            self.stats.waits,
            self.stats.status_queries,
            self.stats.peak_inflight,
            log2hist_json(&self.lease_latency_ms),
            log2hist_json(&self.cell_wall_ms),
            workers.join(",")
        )
    }
}

/// A coordinator for one grid of jobs.
pub struct Coordinator {
    jobs: Vec<Job>,
    options: FabricOptions,
    state: Mutex<FabricState>,
    observer: FabricObserver,
}

impl Coordinator {
    /// A coordinator that will shard `jobs` across connecting workers,
    /// with every observability channel off.
    pub fn new(jobs: Vec<Job>, options: FabricOptions) -> Coordinator {
        Coordinator::with_observer(jobs, options, FabricObserver::off())
    }

    /// A coordinator reporting through `observer` (event log, Chrome
    /// trace, live progress — whatever channels it has enabled).
    pub fn with_observer(
        jobs: Vec<Job>,
        options: FabricOptions,
        observer: FabricObserver,
    ) -> Coordinator {
        let state = Mutex::new(FabricState::new(jobs.len(), Instant::now()));
        Coordinator {
            jobs,
            options,
            state,
            observer,
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, FabricState> {
        self.state.lock().expect("fabric state lock")
    }

    /// Run the fabric to completion: accept worker and single-job
    /// connections on `listener` until every cell is done, then
    /// assemble.
    ///
    /// Plain `cpe serve` requests arriving on the same listener are
    /// answered by `server`; a `{"cmd":"shutdown"}` on such a connection
    /// closes *that connection only* — a stray client must not be able
    /// to kill a running sweep.
    ///
    /// # Errors
    ///
    /// On listener I/O failure. Per-connection failures revoke that
    /// connection's leases and never fail the run.
    pub fn run(&self, listener: TcpListener, server: &Server) -> std::io::Result<FabricReport> {
        let started = Instant::now();
        self.observer.sweep_start(self.jobs.len());
        let complete = AtomicBool::new(false);
        accept_until(
            listener,
            &complete,
            || {
                let mut state = self.locked();
                state.expire(Instant::now(), &self.options, &self.observer);
                state.complete()
            },
            |stream| {
                let _ = self.handle_connection(stream, server, &complete);
            },
        )?;
        let mut state = std::mem::replace(&mut *self.locked(), FabricState::new(0, started));
        state.stats.wall_seconds = started.elapsed().as_secs_f64();
        let mut report = state.into_report();
        let stats = &report.stats;
        self.observer
            .sweep_done(stats.cells - stats.failed, stats.failed);
        (report.log, report.trace_json) = self.observer.finish();
        Ok(report)
    }

    /// Dispatch one connection by its first line, read under the serve
    /// cap: a fabric `hello` widens the connection to the frame cap and
    /// starts a worker session, a `status` query is answered, and
    /// anything else is served as a plain single-job protocol stream.
    fn handle_connection(
        &self,
        stream: TcpStream,
        server: &Server,
        complete: &AtomicBool,
    ) -> std::io::Result<()> {
        let mut connection = TcpConnection::tcp(stream, SERVE_LINE_BYTES)?;
        let first = loop {
            match connection.recv(complete, Some(self.options.idle_timeout))? {
                Received::Line(line) if line.trim().is_empty() => {}
                Received::Line(line) => break line,
                Received::TooLong => return server.refuse_oversized(&mut connection),
                Received::Eof | Received::Stopped | Received::IdleTimeout => return Ok(()),
            }
        };
        match Opening::parse(&first, server.defaults()) {
            Opening::Hello { fabric, worker } => {
                connection.set_cap(FABRIC_LINE_BYTES);
                self.worker_session(&mut connection, fabric, &worker, complete)
            }
            Opening::Status { fabric } => self.answer_status(&mut connection, fabric),
            Opening::Serve(request) => server
                .serve_guarded(&mut connection, complete, SERVE_IDLE_TIMEOUT, Some(request))
                .map(|_| ()),
        }
    }

    /// Refuse a peer speaking another fabric protocol version.
    fn refuse_skew(&self, connection: &mut TcpConnection, fabric: u64) -> std::io::Result<()> {
        self.refuse(
            connection,
            &format!(
                "fabric protocol {fabric} unsupported (this coordinator speaks {FABRIC_SCHEMA})"
            ),
        )
    }

    /// Answer one live status query, then close the connection.
    fn answer_status(&self, connection: &mut TcpConnection, fabric: u64) -> std::io::Result<()> {
        if fabric != u64::from(FABRIC_SCHEMA) {
            return self.refuse_skew(connection, fabric);
        }
        let body = {
            let mut state = self.locked();
            state.stats.status_queries += 1;
            state.snapshot(Instant::now(), self.observer.elapsed_ms())
        };
        self.observer.status_query();
        connection.send(&CoordinatorFrame::Status(body).render())
    }

    fn refuse(&self, connection: &mut TcpConnection, message: &str) -> std::io::Result<()> {
        self.locked().stats.protocol_errors += 1;
        // Connection-level refusals have no registered session; 0 marks
        // them in the event log.
        self.observer.protocol_error(0, message);
        let frame = CoordinatorFrame::Error {
            message: message.to_string(),
        };
        connection.send(&frame.render())
    }

    /// One worker session, hello through drain. Leases the session
    /// still holds when it ends — for any reason — are revoked.
    fn worker_session(
        &self,
        connection: &mut TcpConnection,
        fabric: u64,
        worker: &str,
        complete: &AtomicBool,
    ) -> std::io::Result<()> {
        if fabric != u64::from(FABRIC_SCHEMA) {
            return self.refuse_skew(connection, fabric);
        }
        let session = self
            .locked()
            .register_session(worker, Instant::now(), &self.observer);
        let ack = CoordinatorFrame::HelloAck {
            fabric: u64::from(FABRIC_SCHEMA),
            session,
            heartbeat_ms: self.options.heartbeat.as_millis().max(1) as u64,
        };
        connection.send(&ack.render())?;
        let outcome = self.worker_loop(connection, session, complete);
        // Whatever ended the session, its leases go back to the pool.
        {
            let mut state = self.locked();
            state.revoke_session(session, Instant::now(), &self.options, &self.observer);
            state.session_closed(session);
        }
        self.observer.worker_disconnect(session, worker);
        outcome
    }

    fn worker_loop(
        &self,
        connection: &mut TcpConnection,
        session: u64,
        complete: &AtomicBool,
    ) -> std::io::Result<()> {
        loop {
            // Deadline expiry is handled centrally by the accept loop;
            // this connection only polices its own silence.
            let line = match connection.recv(complete, Some(self.options.idle_timeout))? {
                Received::Line(line) => line,
                Received::Stopped => return connection.send(&CoordinatorFrame::Drain.render()),
                Received::IdleTimeout => return self.refuse(connection, "idle timeout"),
                Received::TooLong => return self.refuse(connection, "frame exceeds the line cap"),
                Received::Eof => return Ok(()),
            };
            let frame = match WorkerFrame::parse(&line) {
                Ok(frame) => frame,
                Err(message) => {
                    return self.refuse(connection, &format!("bad frame: {message}"));
                }
            };
            match frame {
                WorkerFrame::Ready => {
                    let reply = self.locked().grant(
                        session,
                        Instant::now(),
                        &self.options,
                        &self.jobs,
                        &self.observer,
                    );
                    connection.send(&reply.render())?;
                    if matches!(reply, CoordinatorFrame::Drain) {
                        return Ok(());
                    }
                }
                WorkerFrame::Heartbeat { lease } => {
                    self.locked().heartbeat(
                        lease,
                        session,
                        Instant::now(),
                        &self.options,
                        &self.observer,
                    );
                }
                WorkerFrame::Result {
                    lease,
                    cache,
                    wall_seconds,
                    document,
                } => {
                    let cache = CacheStatus::from_label(&cache).unwrap_or(CacheStatus::Bypass);
                    self.locked().result(
                        lease,
                        session,
                        document,
                        cache,
                        wall_seconds,
                        Instant::now(),
                        &self.observer,
                    );
                }
                WorkerFrame::Nack {
                    lease,
                    kind,
                    message,
                } => {
                    self.locked().nack(
                        lease,
                        session,
                        &kind,
                        &message,
                        Instant::now(),
                        &self.options,
                        &self.observer,
                    );
                }
                WorkerFrame::Hello { .. } => {
                    return self.refuse(connection, "duplicate hello");
                }
                WorkerFrame::Status { .. } => {
                    return self.refuse(connection, "status on a worker session");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpe_core::SimConfig;
    use cpe_workloads::{Scale, Workload};

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|_| Job {
                config: SimConfig::dual_port(),
                workload: Workload::Sort,
                scale: Scale::Test,
                max_insts: Some(1_000),
                backend: cpe_core::BackendKind::Direct,
            })
            .collect()
    }

    fn options() -> FabricOptions {
        FabricOptions {
            max_retries: 1,
            max_reassigns: 2,
            max_inflight: 2,
            backoff_base: Duration::from_millis(10),
            ..FabricOptions::default()
        }
    }

    fn lease_id(frame: &CoordinatorFrame) -> u64 {
        match frame {
            CoordinatorFrame::Lease { lease, .. } => *lease,
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    #[test]
    fn grants_respect_the_inflight_bound_and_drain_when_done() {
        let jobs = jobs(3);
        let options = options();
        let obs = FabricObserver::off();
        let now = Instant::now();
        let mut state = FabricState::new(jobs.len(), now);
        let a = state.grant(1, now, &options, &jobs, &obs);
        let b = state.grant(1, now, &options, &jobs, &obs);
        // max_inflight = 2: the third ready gets backpressure.
        let c = state.grant(2, now, &options, &jobs, &obs);
        assert!(matches!(c, CoordinatorFrame::Wait { .. }), "{c:?}");
        assert_eq!(state.stats.waits, 1);
        assert_eq!(state.stats.peak_inflight, 2);
        state.result(
            lease_id(&a),
            1,
            "{\"a\":1}".into(),
            CacheStatus::Miss,
            0.1,
            now,
            &obs,
        );
        state.result(
            lease_id(&b),
            1,
            "{\"b\":1}".into(),
            CacheStatus::Miss,
            0.1,
            now,
            &obs,
        );
        let c = state.grant(2, now, &options, &jobs, &obs);
        state.result(
            lease_id(&c),
            2,
            "{\"c\":1}".into(),
            CacheStatus::Hit,
            0.0,
            now,
            &obs,
        );
        assert!(state.complete());
        assert!(matches!(
            state.grant(1, now, &options, &jobs, &obs),
            CoordinatorFrame::Drain
        ));
        let FabricReport {
            outcomes, stats, ..
        } = state.into_report();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].document.as_deref().unwrap(), "{\"a\":1}");
        assert_eq!(outcomes[2].cache, CacheStatus::Hit);
        assert_eq!(stats.granted, 3);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn expired_leases_are_reassigned_and_budget_exhaustion_fails_the_cell() {
        let jobs = jobs(1);
        let options = options();
        let obs = FabricObserver::off();
        let mut now = Instant::now();
        let mut state = FabricState::new(jobs.len(), now);
        for round in 0..3 {
            let lease = lease_id(&state.grant(1, now, &options, &jobs, &obs));
            // Heartbeat keeps it alive across one deadline...
            now += options.lease_ttl / 2;
            state.heartbeat(lease, 1, now, &options, &obs);
            state.expire(now, &options, &obs);
            assert_eq!(state.leases.len(), 1, "round {round} heartbeat kept it");
            // ...but silence past the refreshed deadline revokes it.
            now += options.lease_ttl + Duration::from_millis(1);
            state.expire(now, &options, &obs);
            assert!(state.leases.is_empty(), "round {round} revoked");
        }
        // max_reassigns = 2: the third revocation exhausts the budget.
        assert!(state.complete());
        assert_eq!(state.stats.expired, 3);
        assert_eq!(state.stats.reassigned, 2);
        let FabricReport {
            outcomes, stats, ..
        } = state.into_report();
        let error = outcomes[0].document.as_ref().unwrap_err();
        assert_eq!(error.kind(), "fabric");
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn nacks_retry_with_backoff_then_fail_with_the_remote_kind() {
        let jobs = jobs(1);
        let options = options();
        let obs = FabricObserver::off();
        let now = Instant::now();
        let mut state = FabricState::new(jobs.len(), now);
        let lease = lease_id(&state.grant(1, now, &options, &jobs, &obs));
        state.nack(lease, 1, "watchdog", "no commit", now, &options, &obs);
        assert_eq!(state.stats.retries, 1);
        // The retry backs off: an immediate ready sees wait, not a lease.
        assert!(matches!(
            state.grant(1, now, &options, &jobs, &obs),
            CoordinatorFrame::Wait { .. }
        ));
        let later = now + backoff(&options, 0, 1) + Duration::from_millis(1);
        let lease = lease_id(&state.grant(1, later, &options, &jobs, &obs));
        // max_retries = 1: the second nack is terminal, kind preserved.
        state.nack(lease, 1, "watchdog", "no commit", later, &options, &obs);
        assert!(state.complete());
        let FabricReport { outcomes, .. } = state.into_report();
        let error = outcomes[0].document.as_ref().unwrap_err();
        assert_eq!(error.kind(), "watchdog");
        assert!(error.to_string().contains("2 attempt(s)"), "{error}");
    }

    #[test]
    fn worker_loss_revokes_all_its_leases_and_stale_results_still_land() {
        let jobs = jobs(2);
        let options = options();
        let obs = FabricObserver::off();
        let now = Instant::now();
        let mut state = FabricState::new(jobs.len(), now);
        let a = lease_id(&state.grant(7, now, &options, &jobs, &obs));
        let b = lease_id(&state.grant(7, now, &options, &jobs, &obs));
        state.revoke_session(7, now, &options, &obs);
        assert_eq!(state.stats.reassigned, 2);
        assert!(state.leases.is_empty());
        // The "dead" worker was merely slow: its results still count.
        state.result(
            a,
            7,
            "{\"late\":1}".into(),
            CacheStatus::Miss,
            0.5,
            now,
            &obs,
        );
        assert_eq!(state.stats.stale_results, 1);
        assert_eq!(state.done, 1);
        // The second cell was re-granted and completed elsewhere first;
        // the stale duplicate is ignored.
        let b2 = lease_id(&state.grant(8, now, &options, &jobs, &obs));
        state.result(
            b2,
            8,
            "{\"fresh\":1}".into(),
            CacheStatus::Miss,
            0.1,
            now,
            &obs,
        );
        state.result(
            b,
            7,
            "{\"late\":2}".into(),
            CacheStatus::Miss,
            0.9,
            now,
            &obs,
        );
        assert!(state.complete());
        let FabricReport { outcomes, .. } = state.into_report();
        assert_eq!(outcomes[1].document.as_deref().unwrap(), "{\"fresh\":1}");
    }

    #[test]
    fn snapshots_report_the_grid_and_the_fleet() {
        let jobs = jobs(4);
        let options = options();
        let obs = FabricObserver::off();
        let now = Instant::now();
        let mut state = FabricState::new(jobs.len(), now);
        let w1 = state.register_session("alpha", now, &obs);
        let w2 = state.register_session("beta", now, &obs);
        assert_eq!((w1, w2), (1, 2));
        let a = lease_id(&state.grant(w1, now, &options, &jobs, &obs));
        let _b = lease_id(&state.grant(w2, now, &options, &jobs, &obs));
        state.result(a, w1, "{\"a\":1}".into(), CacheStatus::Hit, 0.2, now, &obs);
        // A nack sends one cell into backoff.
        let c = lease_id(&state.grant(w2, now, &options, &jobs, &obs));
        state.nack(c, w2, "watchdog", "no commit", now, &options, &obs);
        state.session_closed(w2);
        let later = now + Duration::from_millis(7);
        let body = state.snapshot(later, 123);
        assert_eq!(body.elapsed_ms, 123);
        assert_eq!(body.cells, 4);
        assert_eq!(body.done, 1);
        assert_eq!(body.failed, 0);
        assert_eq!(body.leased, 1);
        assert_eq!(body.queued, 1, "the never-touched cell");
        assert_eq!(body.backoff, 1, "the nacked cell waits out its backoff");
        assert_eq!(body.workers.len(), 2);
        assert_eq!(body.workers[0].worker, "alpha");
        assert!(body.workers[0].connected);
        assert_eq!(body.workers[0].cells, 1);
        assert_eq!(body.workers[0].hits, 1);
        assert!(!body.workers[1].connected);
        assert_eq!(body.workers[1].nacks, 1);
        assert!(body.workers[1].last_seen_ms >= 7);
    }

    #[test]
    fn backoff_grows_exponentially_with_deterministic_jitter() {
        let options = options();
        let a1 = backoff(&options, 3, 1);
        assert_eq!(a1, backoff(&options, 3, 1), "jitter is deterministic");
        assert!(backoff(&options, 3, 4) >= backoff(&options, 3, 1) * 4);
        // The cap keeps attempt numbers from overflowing the shift.
        let _ = backoff(&options, 3, 40);
    }
}
