//! The fabric worker: connects to a coordinator, leases jobs, executes
//! them through the same cached [`run_job`] path every other front end
//! uses, heartbeats while computing, and drains gracefully on shutdown.
//!
//! The worker is deliberately stateless between leases: everything it
//! knows about a job arrives in the lease frame, and everything the
//! coordinator learns goes back as exactly one `result` or `nack`. A
//! worker can therefore be killed at any instant — mid-compute,
//! mid-frame, mid-handshake — and the only consequence is that its
//! lease expires and the cell runs elsewhere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::job::run_job;
use crate::protocol::{
    CoordinatorFrame, TcpConnection, WorkerFrame, FABRIC_LINE_BYTES, FABRIC_SCHEMA, POLL,
};

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Display name sent in the handshake.
    pub name: String,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            name: format!("worker-{}", std::process::id()),
        }
    }
}

/// What one worker run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerSummary {
    /// Leases fulfilled with a result.
    pub jobs: u64,
    /// Of those, served from the local cache.
    pub hits: u64,
    /// Leases refused with a nack.
    pub nacks: u64,
    /// Wall seconds connected.
    pub wall_seconds: f64,
}

impl std::fmt::Display for WorkerSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker: {} job(s) ({} cache hit(s)), {} nack(s) in {:.2}s",
            self.jobs, self.hits, self.nacks, self.wall_seconds
        )
    }
}

fn send(connection: &mut TcpConnection, frame: &WorkerFrame) -> Result<(), String> {
    connection
        .send(&frame.render())
        .map_err(|e| format!("write failed: {e}"))
}

/// Sleep `millis` in [`POLL`] slices, returning early when `stop` rises.
fn wait(millis: u64, stop: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_millis(millis);
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        std::thread::sleep(POLL.min(deadline.saturating_duration_since(Instant::now())));
    }
}

/// Connect to a coordinator at `addr` and work until drained or `stop`
/// rises (SIGTERM, Ctrl-C). A raised `stop` drains gracefully: the
/// leased job is finished and reported before the worker disconnects.
///
/// # Errors
///
/// A one-line diagnosis for connection failures, protocol violations,
/// or a coordinator that vanished mid-sweep. Exhausting the *job* is
/// never an error here — job failures become nacks and the worker keeps
/// going.
pub fn run_worker(
    addr: &str,
    cache: Option<&ResultCache>,
    options: &WorkerOptions,
    stop: &AtomicBool,
) -> Result<WorkerSummary, String> {
    let started = Instant::now();
    let mut connection = TcpConnection::connect(addr, FABRIC_LINE_BYTES)?;

    send(
        &mut connection,
        &WorkerFrame::Hello {
            fabric: u64::from(FABRIC_SCHEMA),
            worker: options.name.clone(),
        },
    )?;
    let heartbeat = match CoordinatorFrame::recv(&mut connection, stop, None)? {
        None => return Ok(WorkerSummary::default()),
        Some(CoordinatorFrame::HelloAck {
            fabric,
            heartbeat_ms,
            ..
        }) => {
            if fabric != u64::from(FABRIC_SCHEMA) {
                return Err(format!(
                    "coordinator speaks fabric protocol {fabric}, this worker speaks {FABRIC_SCHEMA}"
                ));
            }
            Duration::from_millis(heartbeat_ms.max(1))
        }
        Some(CoordinatorFrame::Error { message }) => {
            return Err(format!("coordinator refused the handshake: {message}"))
        }
        Some(other) => return Err(format!("expected hello_ack, got {other:?}")),
    };

    let mut summary = WorkerSummary::default();
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        send(&mut connection, &WorkerFrame::Ready)?;
        match CoordinatorFrame::recv(&mut connection, stop, None)? {
            None | Some(CoordinatorFrame::Drain) => break,
            Some(CoordinatorFrame::Wait { millis }) => wait(millis, stop),
            Some(CoordinatorFrame::Error { message }) => {
                return Err(format!("coordinator closed the session: {message}"))
            }
            Some(CoordinatorFrame::HelloAck { .. }) => {
                return Err("unexpected duplicate hello_ack".to_string())
            }
            Some(CoordinatorFrame::Status(_)) => return Err("unexpected status frame".to_string()),
            Some(CoordinatorFrame::Lease { lease, job: spec }) => {
                let job = match spec.resolve() {
                    Ok(job) => job,
                    Err(error) => {
                        summary.nacks += 1;
                        send(
                            &mut connection,
                            &WorkerFrame::Nack {
                                lease,
                                kind: error.kind().to_string(),
                                message: error.to_string(),
                            },
                        )?;
                        continue;
                    }
                };
                // Compute on a helper thread so this one can keep
                // heartbeating: a long cell must not look like a dead
                // worker. Graceful drain finishes the lease — the
                // compute is not torn — so `stop` is only re-checked
                // at the top of the loop.
                let (done_tx, done_rx) = mpsc::channel();
                let outcome = std::thread::scope(|scope| -> Result<_, String> {
                    scope.spawn(move || {
                        let _ = done_tx.send(run_job(&job, cache));
                    });
                    loop {
                        match done_rx.recv_timeout(heartbeat) {
                            Ok(outcome) => return Ok(outcome),
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                send(&mut connection, &WorkerFrame::Heartbeat { lease })?;
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                unreachable!("compute thread always sends")
                            }
                        }
                    }
                })?;
                match &outcome.document {
                    Ok(document) => {
                        summary.jobs += 1;
                        if outcome.cache == crate::job::CacheStatus::Hit {
                            summary.hits += 1;
                        }
                        send(
                            &mut connection,
                            &WorkerFrame::Result {
                                lease,
                                cache: outcome.cache.label().to_string(),
                                wall_seconds: outcome.wall_seconds,
                                document: document.clone(),
                            },
                        )?;
                    }
                    Err(error) => {
                        summary.nacks += 1;
                        send(
                            &mut connection,
                            &WorkerFrame::Nack {
                                lease,
                                kind: error.kind().to_string(),
                                message: error.to_string(),
                            },
                        )?;
                    }
                }
            }
        }
    }
    summary.wall_seconds = started.elapsed().as_secs_f64();
    Ok(summary)
}
