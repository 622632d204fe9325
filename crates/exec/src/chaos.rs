//! Chaos harness for the sweep fabric: spawn a coordinator plus a mix
//! of honest and hostile workers, and assert that the assembled sweep
//! is **byte-identical** to a serial, single-threaded run every time.
//!
//! The hostile repertoire covers the fabric's failure-mode table:
//! workers that die immediately, die mid-job (SIGKILL equivalent: the
//! connection drops with a lease held), hang without heartbeating,
//! emit garbage frames, tear a result frame in half, or run honestly
//! but too slowly to keep their leases. Because every simulator
//! document is a pure function of its job, none of this can change the
//! final aggregate — only delay it — and that is exactly what
//! [`chaos_case`] checks, with a seeded RNG choosing the cast so
//! `cpe fuzz-fabric` can sweep many topologies.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use cpe_core::SimConfig;
use cpe_workloads::{Scale, Workload};

use crate::coordinator::{Coordinator, FabricOptions, FabricStats};
use crate::job::run_job;
use crate::observe::{FabricObserver, LogSummary, WorkerReport};
use crate::protocol::{
    CoordinatorFrame, JobSpec, ServeDefaults, TcpConnection, WorkerFrame, FABRIC_LINE_BYTES,
    FABRIC_SCHEMA, NEVER,
};
use crate::serve::Server;
use crate::sweep::{SweepPlan, SweepResults};
use crate::worker::{run_worker, WorkerOptions};

/// One worker persona in a chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// A real worker: [`run_worker`], uncached.
    Healthy,
    /// Completes the handshake, then drops the connection.
    DiesImmediately,
    /// Takes a lease, heartbeats once, then drops the connection —
    /// the protocol shadow of `kill -9` mid-job.
    KillsMidJob,
    /// Takes a lease and goes silent without closing: no heartbeat,
    /// no result, connection open. Caught only by lease expiry.
    Hangs,
    /// Completes the handshake, then emits a non-JSON line.
    Garbage,
    /// Takes a lease, computes honestly, then sends half a result
    /// frame and drops the connection.
    TornResult,
    /// Takes a lease, computes honestly, but reports only after the
    /// lease has expired — the result arrives stale.
    Slow,
    /// Nacks every lease it is granted until drained.
    NackBot,
}

impl Behavior {
    /// Stable label for logs and fuzz output.
    pub fn label(self) -> &'static str {
        match self {
            Behavior::Healthy => "healthy",
            Behavior::DiesImmediately => "dies-immediately",
            Behavior::KillsMidJob => "kills-mid-job",
            Behavior::Hangs => "hangs",
            Behavior::Garbage => "garbage",
            Behavior::TornResult => "torn-result",
            Behavior::Slow => "slow",
            Behavior::NackBot => "nack-bot",
        }
    }

    /// The hostile personas [`chaos_case`] draws from (everything
    /// except [`Behavior::Healthy`] and the retry-exhausting
    /// [`Behavior::NackBot`], which deliberately changes the grid).
    pub const HOSTILE: [Behavior; 6] = [
        Behavior::DiesImmediately,
        Behavior::KillsMidJob,
        Behavior::Hangs,
        Behavior::Garbage,
        Behavior::TornResult,
        Behavior::Slow,
    ];

    fn run(self, addr: &str, stop: &AtomicBool) -> Result<(), String> {
        match self {
            Behavior::Healthy => {
                let options = WorkerOptions {
                    name: "chaos-healthy".to_string(),
                };
                run_worker(addr, None, &options, stop).map(|_| ())
            }
            other => {
                let mut actor = Actor::connect(addr)?;
                actor.misbehave(other)
            }
        }
    }
}

/// A scripted fabric client: just enough protocol to misbehave with
/// precision. Reads ignore every stop flag — an actor's liveness is
/// bounded by the coordinator closing its connection (drain, idle
/// timeout, or refusal).
struct Actor {
    connection: TcpConnection,
}

impl Actor {
    fn connect(addr: &str) -> Result<Actor, String> {
        Ok(Actor {
            connection: TcpConnection::connect(addr, FABRIC_LINE_BYTES)?,
        })
    }

    fn send(&mut self, frame: &WorkerFrame) -> Result<(), String> {
        self.connection
            .send(&frame.render())
            .map_err(|e| format!("write: {e}"))
    }

    fn recv(&mut self) -> Result<Option<CoordinatorFrame>, String> {
        CoordinatorFrame::recv(&mut self.connection, &NEVER, None)
    }

    fn handshake(&mut self, name: &str) -> Result<(), String> {
        self.send(&WorkerFrame::Hello {
            fabric: u64::from(FABRIC_SCHEMA),
            worker: name.to_string(),
        })?;
        match self.recv()? {
            Some(CoordinatorFrame::HelloAck { .. }) => Ok(()),
            other => Err(format!("expected hello_ack, got {other:?}")),
        }
    }

    /// Send `ready` frames (honoring waits) until a lease or drain.
    fn lease(&mut self) -> Result<Option<(u64, JobSpec)>, String> {
        loop {
            self.send(&WorkerFrame::Ready)?;
            match self.recv()? {
                Some(CoordinatorFrame::Lease { lease, job }) => return Ok(Some((lease, job))),
                Some(CoordinatorFrame::Wait { millis }) => {
                    std::thread::sleep(Duration::from_millis(millis.min(200)));
                }
                Some(CoordinatorFrame::Drain) | None => return Ok(None),
                Some(CoordinatorFrame::Error { message }) => {
                    return Err(format!("refused: {message}"))
                }
                Some(other) => return Err(format!("unexpected {other:?}")),
            }
        }
    }

    /// Block until the coordinator closes the connection.
    fn await_eof(&mut self) {
        while let Ok(Some(_)) = self.recv() {}
    }

    /// Compute the leased job honestly and render its result frame.
    fn honest_result(lease: u64, spec: &JobSpec) -> Result<WorkerFrame, String> {
        let job = spec.resolve().map_err(|e| e.to_string())?;
        let outcome = run_job(&job, None);
        let document = outcome.document.map_err(|e| e.to_string())?;
        Ok(WorkerFrame::Result {
            lease,
            cache: outcome.cache.label().to_string(),
            wall_seconds: outcome.wall_seconds,
            document,
        })
    }

    fn misbehave(&mut self, behavior: Behavior) -> Result<(), String> {
        self.handshake(behavior.label())?;
        match behavior {
            Behavior::Healthy => unreachable!("healthy runs through run_worker"),
            Behavior::DiesImmediately => Ok(()), // drop closes the socket
            Behavior::KillsMidJob => {
                if let Some((lease, _)) = self.lease()? {
                    self.send(&WorkerFrame::Heartbeat { lease })?;
                }
                Ok(()) // drop with the lease held
            }
            Behavior::Hangs => {
                if self.lease()?.is_some() {
                    // No heartbeat, no result, no close: just silence.
                    self.await_eof();
                }
                Ok(())
            }
            Behavior::Garbage => {
                let _ = self.connection.send("%%% not a frame %%%");
                self.await_eof();
                Ok(())
            }
            Behavior::TornResult => {
                if let Some((lease, spec)) = self.lease()? {
                    let frame = Actor::honest_result(lease, &spec)?.render();
                    let _ = self
                        .connection
                        .send_torn(&frame.as_bytes()[..frame.len() / 2]);
                }
                Ok(()) // drop mid-frame, no newline ever sent
            }
            Behavior::Slow => {
                if let Some((lease, spec)) = self.lease()? {
                    let frame = Actor::honest_result(lease, &spec)?;
                    // Outlive the lease TTL without heartbeating, then
                    // report anyway: the result arrives stale.
                    std::thread::sleep(Duration::from_millis(400));
                    let _ = self.send(&frame);
                }
                Ok(())
            }
            Behavior::NackBot => {
                while let Some((lease, _)) = self.lease()? {
                    self.send(&WorkerFrame::Nack {
                        lease,
                        kind: "watchdog".to_string(),
                        message: "chaos nack-bot refuses all work".to_string(),
                    })?;
                }
                Ok(())
            }
        }
    }
}

/// A completed chaos run: the assembled sweep plus fabric counters and
/// whatever observability the attached [`FabricObserver`] produced.
pub struct ChaosRun {
    /// The sweep, assembled exactly as `cpe sweep --coordinator` would.
    pub results: SweepResults,
    /// The coordinator's counters.
    pub stats: FabricStats,
    /// Per-worker fleet reports, in session order.
    pub workers: Vec<WorkerReport>,
    /// The `fabric` metrics document ([`FabricReport::fabric_json`]).
    pub fabric_json: String,
    /// The rendered Chrome trace, when tracing was on.
    pub trace_json: Option<String>,
    /// Event-log accounting, when a log was attached.
    pub log: Option<LogSummary>,
}

/// Fabric timing tightened for tests: everything that is seconds in
/// production is tens of milliseconds here, so expiry and reassignment
/// paths actually fire inside a unit-test budget.
pub fn test_options() -> FabricOptions {
    FabricOptions {
        heartbeat: Duration::from_millis(50),
        lease_ttl: Duration::from_millis(250),
        max_retries: 2,
        max_reassigns: 32,
        backoff_base: Duration::from_millis(5),
        max_inflight: 8,
        wait_hint: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(2),
    }
}

/// The small grid chaos runs sweep: 2 configs × 2 workloads at test
/// scale, cheap enough to run dozens of times under `cpe fuzz-fabric`.
pub fn tiny_plan() -> SweepPlan {
    SweepPlan {
        configs: vec![SimConfig::naive_single_port(), SimConfig::dual_port()],
        workloads: vec![Workload::Compress, Workload::Sort],
        scale: Scale::Test,
        max_insts: Some(3_000),
        // The fabric protocol ships direct-backend jobs only; replay's
        // record-once sharing is a single-process property.
        backend: cpe_core::BackendKind::Direct,
    }
}

/// Run `plan` through a real TCP coordinator with the given cast of
/// workers, and assemble the sweep exactly as the CLI would.
///
/// # Errors
///
/// On listener failure or coordinator I/O failure. Worker-side errors
/// are the *point* of the harness and never fail the run.
pub fn run_with_behaviors(
    plan: &SweepPlan,
    options: FabricOptions,
    behaviors: &[Behavior],
) -> Result<ChaosRun, String> {
    run_with_behaviors_observed(plan, options, behaviors, FabricObserver::off())
}

/// [`run_with_behaviors`] with an attached [`FabricObserver`], so tests
/// can assert the event log and `fabric` metrics stay consistent under
/// fault injection — and that observing a run never changes its result.
pub fn run_with_behaviors_observed(
    plan: &SweepPlan,
    options: FabricOptions,
    behaviors: &[Behavior],
    observer: FabricObserver,
) -> Result<ChaosRun, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let server = Server::new(None, ServeDefaults::default());
    let coordinator = Coordinator::with_observer(plan.jobs(), options, observer);
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let handles: Vec<_> = behaviors
            .iter()
            .map(|&behavior| {
                let addr = addr.clone();
                let stop = &stop;
                scope.spawn(move || behavior.run(&addr, stop))
            })
            .collect();
        let report = coordinator.run(listener, &server);
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            let _ = handle.join();
        }
        report
    })
    .map_err(|e| format!("coordinator: {e}"))?;
    let wall = report.stats.wall_seconds;
    let fabric_json = report.fabric_json();
    Ok(ChaosRun {
        results: SweepResults::assemble(plan.clone(), report.outcomes, behaviors.len(), 0, wall),
        stats: report.stats,
        workers: report.workers,
        fabric_json,
        trace_json: report.trace_json,
        log: report.log,
    })
}

/// xorshift64: a tiny deterministic PRNG so fuzz cases are reproducible
/// from their seed alone, with no RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// One seeded chaos case: a random hostile cast against two healthy
/// workers, asserting the final sweep — table *and* metrics document —
/// is byte-identical to a serial, single-threaded, uncached run.
///
/// # Errors
///
/// A diagnosis when the aggregate diverges (the fabric's core promise
/// is broken) or the run itself could not be staged.
pub fn chaos_case(seed: u64) -> Result<ChaosRun, String> {
    let plan = tiny_plan();
    let serial = plan
        .run(1, None)
        .map_err(|e| format!("serial reference: {e}"))?;

    let mut rng = XorShift::new(seed);
    let hostile_count = 2 + (rng.next() % 3) as usize; // 2..=4
    let mut behaviors = vec![Behavior::Healthy, Behavior::Healthy];
    for _ in 0..hostile_count {
        behaviors.push(rng.pick(&Behavior::HOSTILE));
    }

    let run = run_with_behaviors(&plan, test_options(), &behaviors)?;
    let cast: Vec<&str> = behaviors.iter().map(|b| b.label()).collect();
    if run.results.aggregate_json() != serial.aggregate_json() {
        return Err(format!(
            "seed {seed}: fabric metrics diverged from serial (cast: {})",
            cast.join(", ")
        ));
    }
    if run.results.ipc_table().to_csv() != serial.ipc_table().to_csv() {
        return Err(format!(
            "seed {seed}: fabric IPC table diverged from serial (cast: {})",
            cast.join(", ")
        ));
    }
    if run.results.stats.failed != 0 {
        return Err(format!(
            "seed {seed}: {} cell(s) failed under recoverable faults (cast: {})",
            run.results.stats.failed,
            cast.join(", ")
        ));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_only_fabric_matches_serial_byte_for_byte() {
        let plan = tiny_plan();
        let serial = plan.run(1, None).expect("serial runs");
        let run = run_with_behaviors(
            &plan,
            test_options(),
            &[Behavior::Healthy, Behavior::Healthy],
        )
        .expect("fabric runs");
        assert_eq!(run.results.aggregate_json(), serial.aggregate_json());
        assert_eq!(
            run.results.ipc_table().to_csv(),
            serial.ipc_table().to_csv()
        );
        assert_eq!(run.stats.failed, 0);
        assert!(run.stats.workers_seen >= 2);
    }

    #[test]
    fn worker_killed_mid_job_is_reassigned_and_metrics_match() {
        let plan = tiny_plan();
        let serial = plan.run(1, None).expect("serial runs");
        let run = run_with_behaviors(
            &plan,
            test_options(),
            &[Behavior::KillsMidJob, Behavior::Healthy],
        )
        .expect("fabric survives the kill");
        assert_eq!(run.results.aggregate_json(), serial.aggregate_json());
        assert_eq!(run.stats.failed, 0);
        assert!(
            run.stats.reassigned >= 1,
            "the killed worker's lease was reassigned: {}",
            run.stats
        );
    }

    #[test]
    fn nack_storm_exhausts_retries_into_failed_cells_without_hanging() {
        let plan = tiny_plan();
        let options = FabricOptions {
            max_retries: 1,
            ..test_options()
        };
        let run = run_with_behaviors(&plan, options, &[Behavior::NackBot, Behavior::NackBot])
            .expect("fabric terminates");
        assert_eq!(run.results.stats.failed, 4, "every cell exhausted retries");
        let csv = run.results.ipc_table().to_csv();
        assert!(csv.contains("FAILED(watchdog)"), "{csv}");
        assert!(
            run.results
                .aggregate_json()
                .contains("\"failed\":\"watchdog\""),
            "failures keep their relayed kind"
        );
        assert!(run.stats.retries >= 4, "each cell was retried once first");
    }
}
