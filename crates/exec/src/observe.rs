//! Fleet observability for the sweep fabric: the structured event log
//! behind `--fabric-log`, the Chrome trace builder behind
//! `--fabric-trace`, the live progress line, and the `cpe status`
//! client.
//!
//! The design constraint everything here answers to is the fabric's
//! byte-identity promise: observing a sweep must never change its
//! output, and must never block it either. Concretely:
//!
//! * Every observation goes to **stderr or a side file**, never stdout —
//!   the table and the metrics document stay byte-identical to an
//!   unobserved run (pinned by `crates/exec/tests/fabric_chaos.rs`).
//! * The event log is a **bounded, drop-counting** writer: the
//!   coordinator hands each rendered line to a fixed-capacity channel
//!   with `try_send` and moves on. A slow disk drops events and counts
//!   them — the same contract the `cpe-trace` ring buffer keeps for
//!   per-run events — instead of stalling lease grants.
//! * When nothing is enabled, [`FabricObserver::off`] short-circuits
//!   before rendering a single byte.
//!
//! The JSONL event schema is documented in `docs/OBSERVABILITY.md`
//! ("Fleet observability"); `crates/exec/tests/fabric_chaos.rs` pins
//! the invariant that the event counts reconcile with the
//! [`FabricStats`](crate::coordinator::FabricStats) counters.

use std::collections::HashMap;
use std::io::{BufWriter, IsTerminal, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cpe_core::json::escape;
use cpe_stats::Log2Histogram;

use crate::job::CacheStatus;
use crate::protocol::{
    CoordinatorFrame, LineEvent, LineReader, StatusBody, WorkerFrame, DEFAULT_MAX_LINE_BYTES,
};

/// Default bound on queued-but-unwritten fabric log events. Generous for
/// any real sweep; small enough that a wedged disk costs ~1 MiB, not the
/// coordinator's liveness.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// The bounded, drop-counting event log
// ---------------------------------------------------------------------------

/// What an [`EventLog`] accomplished, reported after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogSummary {
    /// Lines actually written to the sink.
    pub written: u64,
    /// Events dropped: the queue was full (slow sink) or the sink
    /// failed mid-run. Dropped events are *counted*, never waited for.
    pub dropped: u64,
}

impl std::fmt::Display for LogSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} event(s) written, {} dropped",
            self.written, self.dropped
        )
    }
}

/// A shared in-memory sink for an [`EventLog`], used by tests and the
/// chaos harness to inspect the emitted lines after a run.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// Everything written so far, lossily decoded.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("shared buffer lock")).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("shared buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A bounded JSONL writer that never blocks its producers.
///
/// Producers hand complete lines to [`EventLog::emit`]; a drain thread
/// writes them in arrival order. When the queue is full the line is
/// dropped and counted — the producer (the coordinator, holding its
/// state lock) is never stalled by the sink.
pub struct EventLog {
    sender: SyncSender<String>,
    accepted: AtomicU64,
    dropped: AtomicU64,
    drain: std::thread::JoinHandle<(u64, u64)>,
}

impl EventLog {
    /// Drain into `sink`, queueing at most `capacity` unwritten lines.
    pub fn to_writer(sink: impl Write + Send + 'static, capacity: usize) -> EventLog {
        let (sender, receiver) = sync_channel::<String>(capacity.max(1));
        let drain = std::thread::spawn(move || {
            let mut sink = sink;
            let mut written = 0u64;
            let mut lost = 0u64;
            while let Ok(line) = receiver.recv() {
                if writeln!(sink, "{line}").is_ok() {
                    written += 1;
                } else {
                    // The sink failed; drain the rest as losses so the
                    // summary still accounts for every accepted event.
                    lost += 1;
                    lost += receiver.iter().count() as u64;
                    break;
                }
            }
            let _ = sink.flush();
            (written, lost)
        });
        EventLog {
            sender,
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drain,
        }
    }

    /// Drain into a newly created file at `path`.
    ///
    /// # Errors
    ///
    /// When the file cannot be created.
    pub fn create(path: &str, capacity: usize) -> Result<EventLog, String> {
        let file = std::fs::File::create(path)
            .map_err(|error| format!("cannot create `{path}`: {error}"))?;
        Ok(EventLog::to_writer(BufWriter::new(file), capacity))
    }

    /// Drain into a shared in-memory buffer (tests, chaos harness).
    pub fn to_buffer(capacity: usize) -> (EventLog, SharedBuffer) {
        let buffer = SharedBuffer::default();
        (EventLog::to_writer(buffer.clone(), capacity), buffer)
    }

    /// Queue one line, without blocking. A full queue drops the line and
    /// bumps the drop counter.
    pub fn emit(&self, line: String) {
        match self.sender.try_send(line) {
            Ok(()) => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Events dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Close the queue, flush the sink, and account for every event.
    pub fn finish(self) -> LogSummary {
        let dropped = self.dropped.load(Ordering::Relaxed);
        drop(self.sender);
        let (written, lost) = self.drain.join().unwrap_or((0, 0));
        LogSummary {
            written,
            dropped: dropped + lost,
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event export: one lane per worker, one span per attempt
// ---------------------------------------------------------------------------

/// Color-key a span category onto Catapult's reserved palette so the
/// timeline reads at a glance: green work, red faults.
fn span_color(cat: &str) -> &'static str {
    match cat {
        "hit" => "good",
        "miss" => "thread_state_running",
        "bypass" => "thread_state_runnable",
        "stale" => "yellow",
        "nack" => "bad",
        "expired" | "lost" => "terrible",
        _ => "grey",
    }
}

struct OpenSpan {
    session: u64,
    cell: usize,
    attempt: u32,
    label: String,
    start_us: u64,
}

struct ClosedSpan {
    session: u64,
    cell: usize,
    attempt: u32,
    label: String,
    cat: String,
    start_us: u64,
    dur_us: u64,
}

/// Accumulates one Chrome `trace_event` document for a whole sweep: one
/// lane (`tid`) per worker session, one `"ph":"X"` span per cell
/// attempt, color-keyed by how the attempt ended.
pub struct TraceBuilder {
    workers: Vec<(u64, String)>,
    open: HashMap<u64, OpenSpan>,
    closed: Vec<ClosedSpan>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> TraceBuilder {
        TraceBuilder {
            workers: Vec::new(),
            open: HashMap::new(),
            closed: Vec::new(),
        }
    }

    fn register_worker(&mut self, session: u64, name: &str) {
        self.workers.push((session, name.to_string()));
    }

    fn open(&mut self, lease: u64, session: u64, cell: usize, attempt: u32, label: &str, us: u64) {
        self.open.insert(
            lease,
            OpenSpan {
                session,
                cell,
                attempt,
                label: label.to_string(),
                start_us: us,
            },
        );
    }

    fn close(&mut self, lease: u64, cat: &str, us: u64) {
        if let Some(span) = self.open.remove(&lease) {
            self.closed.push(ClosedSpan {
                session: span.session,
                cell: span.cell,
                attempt: span.attempt,
                label: span.label,
                cat: cat.to_string(),
                start_us: span.start_us,
                dur_us: us.saturating_sub(span.start_us).max(1),
            });
        }
    }

    /// Render the trace, closing any still-open spans at `now_us`.
    fn render(mut self, now_us: u64) -> String {
        let leases: Vec<u64> = self.open.keys().copied().collect();
        for lease in leases {
            self.close(lease, "open", now_us);
        }
        self.closed
            .sort_by_key(|span| (span.session, span.start_us, span.cell));
        let mut events: Vec<String> = self
            .workers
            .iter()
            .map(|(session, name)| {
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{session},\
                     \"args\":{{\"name\":\"{} (session {session})\"}}}}",
                    escape(name)
                )
            })
            .collect();
        for span in &self.closed {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"cname\":\"{}\",\
                 \"args\":{{\"cell\":{},\"attempt\":{}}}}}",
                escape(&span.label),
                escape(&span.cat),
                span.start_us,
                span.dur_us,
                span.session,
                span_color(&span.cat),
                span.cell,
                span.attempt
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            events.join(",")
        )
    }
}

impl Default for TraceBuilder {
    fn default() -> TraceBuilder {
        TraceBuilder::new()
    }
}

// ---------------------------------------------------------------------------
// Live progress
// ---------------------------------------------------------------------------

/// A live sweep progress line on stderr. On a TTY it redraws in place
/// (throttled); otherwise it prints plain incremental lines at a slow
/// cadence, so logs stay readable and short runs stay silent.
///
/// All output goes to stderr: stdout byte-identity across observed and
/// unobserved runs is the fabric's contract, and progress is
/// observability, not output.
pub struct SweepProgress {
    total: usize,
    done: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    bypassed: AtomicUsize,
    failed: AtomicUsize,
    tty: bool,
    started: Instant,
    last_render_ms: AtomicU64,
}

impl SweepProgress {
    /// Progress over `total` cells, TTY-gated on stderr.
    pub fn auto(total: usize) -> SweepProgress {
        SweepProgress::with_tty(total, std::io::stderr().is_terminal())
    }

    /// Progress with an explicit TTY decision (tests).
    pub fn with_tty(total: usize, tty: bool) -> SweepProgress {
        SweepProgress {
            total,
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            bypassed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            tty,
            started: Instant::now(),
            last_render_ms: AtomicU64::new(0),
        }
    }

    /// Record one finished cell and redraw when due.
    pub fn cell_done(&self, cache: CacheStatus, failed: bool) {
        if failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
        } else {
            match cache {
                CacheStatus::Hit => self.hits.fetch_add(1, Ordering::Relaxed),
                CacheStatus::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
                CacheStatus::Bypass => self.bypassed.fetch_add(1, Ordering::Relaxed),
            };
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.maybe_render(done);
    }

    fn line(&self, done: usize) -> String {
        format!(
            "sweep: {done}/{} cell(s) — {} hit(s), {} miss(es), {} uncached, {} failed ({:.1}s)",
            self.total,
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.bypassed.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            self.started.elapsed().as_secs_f64()
        )
    }

    fn maybe_render(&self, done: usize) {
        // In-place redraws refresh fast; plain lines stay sparse so a
        // piped log is incremental, not spammed.
        let interval_ms: u64 = if self.tty { 100 } else { 2_000 };
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_render_ms.load(Ordering::Relaxed);
        let due =
            elapsed_ms.saturating_sub(last) >= interval_ms || (self.tty && done == self.total);
        if !due {
            return;
        }
        // One renderer at a time; a lost race just skips this redraw.
        if self
            .last_render_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        if self.tty {
            eprint!("\r{}\x1b[K", self.line(done));
        } else {
            eprintln!("{}", self.line(done));
        }
    }

    /// Clear the in-place line so the stats footer starts clean.
    pub fn finish(&self) {
        if self.tty {
            eprint!("\r\x1b[K");
        }
    }
}

// ---------------------------------------------------------------------------
// Per-worker fleet report
// ---------------------------------------------------------------------------

/// One worker session's contribution to a fabric sweep, reported in the
/// stderr footer and the `fabric` metrics document.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The session id the coordinator assigned.
    pub session: u64,
    /// The worker's display name from its handshake.
    pub name: String,
    /// Whether the session was still connected at assembly.
    pub connected: bool,
    /// Results this worker landed (including stale and duplicate ones).
    pub cells: u64,
    /// Of those, served from the worker's local cache.
    pub hits: u64,
    /// Computed and stored in the worker's cache.
    pub misses: u64,
    /// Computed with no cache attached.
    pub bypass: u64,
    /// Leases this worker nacked.
    pub nacks: u64,
    /// Worker-reported wall milliseconds per landed cell.
    pub wall_ms: Log2Histogram,
}

impl WorkerReport {
    /// Cache hit rate over this worker's cache-visible cells.
    pub fn hit_rate(&self) -> f64 {
        let through_cache = self.hits + self.misses;
        if through_cache == 0 {
            0.0
        } else {
            self.hits as f64 / through_cache as f64
        }
    }
}

impl std::fmt::Display for WorkerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} (session {}): {} cell(s) — {} hit(s), {} miss(es), {} uncached, \
             {} nack(s), hit rate {:.1}%",
            self.name,
            self.session,
            self.cells,
            self.hits,
            self.misses,
            self.bypass,
            self.nacks,
            self.hit_rate() * 100.0
        )?;
        if self.wall_ms.total() > 0 {
            write!(
                f,
                ", wall p50 {}ms p99 {}ms",
                self.wall_ms.p50().unwrap_or(0),
                self.wall_ms.p99().unwrap_or(0)
            )?;
        }
        Ok(())
    }
}

/// One [`Log2Histogram`] as the JSON shape the metrics documents use
/// (`count`/`mean`/`max`/percentiles/`buckets`).
pub(crate) fn log2hist_json(hist: &Log2Histogram) -> String {
    let opt = |value: Option<u64>| match value {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    };
    let mean = if hist.mean().is_finite() {
        format!("{}", hist.mean())
    } else {
        "null".to_string()
    };
    let buckets: Vec<String> = hist
        .iter_buckets()
        .map(|(lo, hi, count)| format!("[{lo},{hi},{count}]"))
        .collect();
    format!(
        "{{\"count\":{},\"mean\":{mean},\"max\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\
         \"buckets\":[{}]}}",
        hist.total(),
        hist.max_seen(),
        opt(hist.p50()),
        opt(hist.p90()),
        opt(hist.p95()),
        opt(hist.p99()),
        buckets.join(",")
    )
}

// ---------------------------------------------------------------------------
// The observer the coordinator calls
// ---------------------------------------------------------------------------

struct ObserverInner {
    log: Option<EventLog>,
    trace: Option<TraceBuilder>,
}

/// Everything a fabric run can be asked to observe, behind one facade
/// the coordinator calls at each state transition. Disabled channels
/// cost a branch; the whole thing off costs nothing measurable.
pub struct FabricObserver {
    started: Instant,
    log_on: bool,
    trace_on: bool,
    inner: Mutex<ObserverInner>,
    progress: Option<SweepProgress>,
}

impl FabricObserver {
    /// An observer with every channel disabled — the default for
    /// library callers and every pre-existing test.
    pub fn off() -> FabricObserver {
        FabricObserver::new(None, false, None)
    }

    /// An observer over the given channels: a JSONL event log, a Chrome
    /// trace, and/or a live progress line.
    pub fn new(log: Option<EventLog>, trace: bool, progress: Option<SweepProgress>) -> Self {
        FabricObserver {
            started: Instant::now(),
            log_on: log.is_some(),
            trace_on: trace,
            inner: Mutex::new(ObserverInner {
                log,
                trace: trace.then(TraceBuilder::new),
            }),
            progress,
        }
    }

    /// Milliseconds since the observer (and with it the run) started.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn emit(&self, event: &str, fields: &str) {
        if !self.log_on {
            return;
        }
        let t_ms = self.started.elapsed().as_secs_f64() * 1.0e3;
        let line = format!("{{\"t_ms\":{t_ms:.3},\"event\":\"{event}\"{fields}}}");
        if let Some(log) = &self.inner.lock().expect("observer lock").log {
            log.emit(line);
        }
    }

    fn with_trace(&self, apply: impl FnOnce(&mut TraceBuilder, u64)) {
        if !self.trace_on {
            return;
        }
        let now_us = self.started.elapsed().as_micros() as u64;
        if let Some(trace) = &mut self.inner.lock().expect("observer lock").trace {
            apply(trace, now_us);
        }
    }

    pub(crate) fn sweep_start(&self, cells: usize) {
        self.emit("sweep_start", &format!(",\"cells\":{cells}"));
    }

    pub(crate) fn worker_connect(&self, session: u64, worker: &str) {
        self.emit(
            "worker_connect",
            &format!(",\"session\":{session},\"worker\":\"{}\"", escape(worker)),
        );
        self.with_trace(|trace, _| trace.register_worker(session, worker));
    }

    pub(crate) fn worker_disconnect(&self, session: u64, worker: &str) {
        self.emit(
            "worker_disconnect",
            &format!(",\"session\":{session},\"worker\":\"{}\"", escape(worker)),
        );
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lease_grant(
        &self,
        lease: u64,
        cell: usize,
        session: u64,
        attempt: u32,
        reassigns: u32,
        config: &str,
        workload: &str,
    ) {
        self.emit(
            "lease_grant",
            &format!(
                ",\"lease\":{lease},\"cell\":{cell},\"session\":{session},\
                 \"attempt\":{attempt},\"reassigns\":{reassigns},\
                 \"config\":\"{}\",\"workload\":\"{}\"",
                escape(config),
                escape(workload)
            ),
        );
        self.with_trace(|trace, now_us| {
            trace.open(
                lease,
                session,
                cell,
                attempt,
                &format!("{workload} · {config}"),
                now_us,
            );
        });
    }

    pub(crate) fn heartbeat(&self, lease: u64, session: u64) {
        self.emit(
            "heartbeat",
            &format!(",\"lease\":{lease},\"session\":{session}"),
        );
    }

    /// A lease was revoked: by deadline (`expired`) or because its
    /// worker was lost.
    pub(crate) fn lease_revoked(&self, lease: u64, cell: usize, session: u64, expired: bool) {
        let event = if expired {
            "lease_expire"
        } else {
            "lease_revoke"
        };
        self.emit(
            event,
            &format!(",\"lease\":{lease},\"cell\":{cell},\"session\":{session}"),
        );
        self.with_trace(|trace, now_us| {
            trace.close(lease, if expired { "expired" } else { "lost" }, now_us);
        });
    }

    pub(crate) fn reassign(&self, cell: usize, reassigns: u32) {
        self.emit(
            "reassign",
            &format!(",\"cell\":{cell},\"reassigns\":{reassigns}"),
        );
    }

    pub(crate) fn retry(&self, cell: usize, attempt: u32, backoff_ms: u64) {
        self.emit(
            "retry",
            &format!(",\"cell\":{cell},\"attempt\":{attempt},\"backoff_ms\":{backoff_ms}"),
        );
    }

    pub(crate) fn nack(&self, lease: u64, cell: usize, session: u64, kind: &str, stale: bool) {
        self.emit(
            "nack",
            &format!(
                ",\"lease\":{lease},\"cell\":{cell},\"session\":{session},\
                 \"kind\":\"{}\",\"stale\":{stale}",
                escape(kind)
            ),
        );
        self.with_trace(|trace, now_us| trace.close(lease, "nack", now_us));
    }

    pub(crate) fn cell_failed(&self, cell: usize, kind: &str, message: &str) {
        self.emit(
            "cell_failed",
            &format!(
                ",\"cell\":{cell},\"kind\":\"{}\",\"error\":\"{}\"",
                escape(kind),
                escape(message)
            ),
        );
        if let Some(progress) = &self.progress {
            progress.cell_done(CacheStatus::Bypass, true);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn result(
        &self,
        lease: u64,
        cell: usize,
        session: u64,
        cache: CacheStatus,
        wall_ms: f64,
        stale: bool,
        duplicate: bool,
    ) {
        self.emit(
            "result",
            &format!(
                ",\"lease\":{lease},\"cell\":{cell},\"session\":{session},\
                 \"cache\":\"{}\",\"wall_ms\":{wall_ms:.3},\"stale\":{stale},\
                 \"duplicate\":{duplicate}",
                cache.label()
            ),
        );
        self.with_trace(|trace, now_us| {
            trace.close(lease, if stale { "stale" } else { cache.label() }, now_us);
        });
        if !duplicate {
            if let Some(progress) = &self.progress {
                progress.cell_done(cache, false);
            }
        }
    }

    pub(crate) fn wait(&self, session: u64, reason: &str) {
        self.emit(
            "wait",
            &format!(",\"session\":{session},\"reason\":\"{}\"", escape(reason)),
        );
    }

    pub(crate) fn protocol_error(&self, session: u64, message: &str) {
        self.emit(
            "protocol_error",
            &format!(",\"session\":{session},\"error\":\"{}\"", escape(message)),
        );
    }

    pub(crate) fn status_query(&self) {
        self.emit("status_query", "");
    }

    pub(crate) fn sweep_done(&self, done: usize, failed: usize) {
        let wall_ms = self.started.elapsed().as_secs_f64() * 1.0e3;
        self.emit(
            "sweep_done",
            &format!(",\"done\":{done},\"failed\":{failed},\"wall_ms\":{wall_ms:.3}"),
        );
    }

    /// Tear down every channel: clear the progress line, close the log,
    /// render the trace. Returns what each produced.
    pub(crate) fn finish(&self) -> (Option<LogSummary>, Option<String>) {
        if let Some(progress) = &self.progress {
            progress.finish();
        }
        let now_us = self.started.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock().expect("observer lock");
        let log = inner.log.take().map(EventLog::finish);
        let trace = inner.trace.take().map(|trace| trace.render(now_us));
        (log, trace)
    }
}

// ---------------------------------------------------------------------------
// The `cpe status` client
// ---------------------------------------------------------------------------

/// Query a running coordinator for its live status: connect, send one
/// `status` frame at protocol version `fabric`, and parse the reply.
///
/// # Errors
///
/// A one-line diagnosis for connection failures, a refusal (version
/// skew), a timeout, or a malformed reply.
pub fn query_status(addr: &str, fabric: u64, timeout: Duration) -> Result<StatusBody, String> {
    let stream =
        TcpStream::connect(addr).map_err(|error| format!("cannot connect to {addr}: {error}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|error| format!("cannot set read timeout: {error}"))?;
    let mut writer = BufWriter::new(
        stream
            .try_clone()
            .map_err(|error| format!("clone failed: {error}"))?,
    );
    writeln!(writer, "{}", WorkerFrame::Status { fabric }.render())
        .and_then(|()| writer.flush())
        .map_err(|error| format!("write failed: {error}"))?;
    let mut reader = LineReader::new(stream, DEFAULT_MAX_LINE_BYTES);
    let deadline = Instant::now() + timeout;
    loop {
        match reader
            .poll_line()
            .map_err(|error| format!("read failed: {error}"))?
        {
            LineEvent::Line(line) => {
                return match CoordinatorFrame::parse(&line)? {
                    CoordinatorFrame::Status(body) => Ok(body),
                    CoordinatorFrame::Error { message } => {
                        Err(format!("coordinator refused: {message}"))
                    }
                    other => Err(format!("expected a status frame, got {other:?}")),
                }
            }
            LineEvent::Idle => {
                if Instant::now() >= deadline {
                    return Err(format!("status query to {addr} timed out"));
                }
            }
            LineEvent::Eof => return Err("coordinator closed without answering".to_string()),
            LineEvent::TooLong => return Err("oversized status reply".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{bool_member, number_at, parse, text_at};
    use std::sync::mpsc;

    #[test]
    fn event_log_writes_lines_in_order_and_accounts_for_them() {
        let (log, buffer) = EventLog::to_buffer(64);
        for index in 0..5 {
            log.emit(format!("{{\"n\":{index}}}"));
        }
        let summary = log.finish();
        assert_eq!(summary.written, 5);
        assert_eq!(summary.dropped, 0);
        let text = buffer.contents();
        let ns: Vec<f64> = text
            .lines()
            .map(|line| number_at(&parse(line).expect(line), &["n"]).expect(line))
            .collect();
        assert_eq!(ns, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn full_queue_drops_events_instead_of_blocking() {
        /// A sink whose first write blocks until the gate sender drops.
        struct Gated {
            gate: mpsc::Receiver<()>,
        }
        impl Write for Gated {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let _ = self.gate.recv(); // blocks until the test releases
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let capacity = 4;
        let log = EventLog::to_writer(Gated { gate: gate_rx }, capacity);
        let emitted = capacity as u64 + 20;
        for index in 0..emitted {
            log.emit(format!("line {index}"));
        }
        // The drain thread is wedged in its first write; at most
        // capacity + 1 lines can have been accepted.
        assert!(
            log.dropped() >= emitted - capacity as u64 - 1,
            "{}",
            log.dropped()
        );
        drop(gate_tx); // release the sink; remaining writes return Ok
        let summary = log.finish();
        assert_eq!(summary.written + summary.dropped, emitted);
        assert!(summary.dropped > 0);
    }

    #[test]
    fn trace_builder_renders_lanes_and_colored_spans() {
        let mut trace = TraceBuilder::new();
        trace.register_worker(1, "w\"1");
        trace.register_worker(2, "w2");
        trace.open(7, 1, 0, 0, "sort · 2-port", 100);
        trace.close(7, "miss", 350);
        trace.open(8, 2, 1, 1, "compress · 2-port", 200);
        // lease 8 stays open; render closes it as "open".
        let json = trace.render(1_000);
        let parsed = parse(&json).expect("trace parses");
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert_eq!(
            json.matches("thread_name").count(),
            2,
            "one lane per worker"
        );
        assert!(json.contains("\"cat\":\"miss\""));
        assert!(json.contains("\"cat\":\"open\""));
        assert!(json.contains("\"dur\":250"));
        drop(parsed);
    }

    #[test]
    fn observer_off_emits_nothing_and_finishes_empty() {
        let observer = FabricObserver::off();
        observer.sweep_start(4);
        observer.result(1, 0, 1, CacheStatus::Miss, 12.0, false, false);
        let (log, trace) = observer.finish();
        assert!(log.is_none());
        assert!(trace.is_none());
    }

    #[test]
    fn observer_events_parse_and_carry_their_fields() {
        let (log, buffer) = EventLog::to_buffer(64);
        let observer = FabricObserver::new(Some(log), true, None);
        observer.sweep_start(2);
        observer.worker_connect(1, "w1");
        observer.lease_grant(1, 0, 1, 0, 0, "2-port", "sort");
        observer.heartbeat(1, 1);
        observer.result(1, 0, 1, CacheStatus::Hit, 3.25, false, false);
        observer.nack(2, 1, 1, "watchdog", true);
        observer.wait(1, "empty");
        observer.sweep_done(2, 0);
        let (summary, trace) = observer.finish();
        assert_eq!(summary.expect("log ran").written, 8);
        let trace = trace.expect("trace ran");
        assert!(parse(&trace).is_ok(), "{trace}");
        let lines: Vec<_> = buffer.contents().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 8);
        for line in &lines {
            let value = parse(line).expect(line);
            assert!(number_at(&value, &["t_ms"]).is_some(), "{line}");
            assert!(text_at(&value, &["event"]).is_some(), "{line}");
        }
        let result = parse(&lines[4]).unwrap();
        assert_eq!(text_at(&result, &["event"]), Some("result"));
        assert_eq!(text_at(&result, &["cache"]), Some("hit"));
        assert_eq!(bool_member(&result, "stale").unwrap(), Some(false));
        let nack = parse(&lines[5]).unwrap();
        assert_eq!(text_at(&nack, &["kind"]), Some("watchdog"));
        assert_eq!(bool_member(&nack, "stale").unwrap(), Some(true));
    }

    #[test]
    fn progress_line_reports_the_running_tally() {
        let progress = SweepProgress::with_tty(4, false);
        progress.cell_done(CacheStatus::Hit, false);
        progress.cell_done(CacheStatus::Miss, false);
        progress.cell_done(CacheStatus::Bypass, true);
        let line = progress.line(3);
        assert!(line.contains("3/4"), "{line}");
        assert!(
            line.contains("1 hit(s), 1 miss(es), 0 uncached, 1 failed"),
            "{line}"
        );
    }

    #[test]
    fn log2hist_json_is_well_formed() {
        let mut hist = Log2Histogram::new();
        for value in [1u64, 2, 3, 100, 1000] {
            hist.record(value);
        }
        let text = log2hist_json(&hist);
        let parsed = parse(&text).expect(&text);
        assert_eq!(number_at(&parsed, &["count"]), Some(5.0));
        assert_eq!(number_at(&parsed, &["max"]), Some(1000.0));
        let empty = log2hist_json(&Log2Histogram::new());
        assert!(parse(&empty).is_ok(), "{empty}");
    }
}
