//! Wire protocol and transport of every socket in the crate.
//!
//! Everything on the wire is line-delimited JSON, one frame per line,
//! for `cpe serve` requests and fabric frames alike — which is what lets
//! a coordinator answer plain single-job requests and fabric workers on
//! the same listener. Frames are versioned by
//! [`FABRIC_SCHEMA`], carried in both `hello` and `hello_ack`; a version
//! mismatch is rejected at the handshake, never discovered mid-sweep.
//!
//! Worker → coordinator:
//!
//! ```text
//! {"fabric":1,"type":"hello","worker":"w1"}
//! {"type":"ready"}                                 request a lease
//! {"type":"heartbeat","lease":7}                   still computing
//! {"type":"result","lease":7,"cache":"miss","wall_ms":41.2,"result":{…}}
//! {"type":"nack","lease":7,"kind":"watchdog","error":"…"}
//! ```
//!
//! Coordinator → worker:
//!
//! ```text
//! {"fabric":1,"type":"hello_ack","session":3,"heartbeat_ms":500}
//! {"type":"lease","lease":7,"job":{"config":"2-port","config_fnv":"…",
//!                                  "workload":"sort","scale":"test","max_insts":20000}}
//! {"type":"wait","millis":100}                     backpressure: ask again later
//! {"type":"drain"}                                 no more work; disconnect
//! {"type":"error","message":"…"}                   protocol violation; closing
//! ```
//!
//! Observer → coordinator (the `cpe status` endpoint — a one-shot
//! connection, answered mid-sweep and then closed):
//!
//! ```text
//! {"fabric":1,"type":"status"}                     query live fleet status
//! {"type":"status","elapsed_ms":1234,"cells":16,"done":9,"failed":0,
//!  "leased":4,"queued":3,"backoff":0,"workers":[{"session":1,…}]}
//! ```
//!
//! Serve requests share the transport: a `Connection` reads lines
//! under a cap with a stop flag and an idle deadline, and
//! `accept_until` is the one accept loop. A connection's first line is
//! read under [`SERVE_LINE_BYTES`]; only a fabric `hello` widens it to
//! [`FABRIC_LINE_BYTES`].

use std::io::{BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cpe_core::json::escape;
use cpe_core::{config_json, BackendKind, JsonValue, SimConfig, SimError};
use cpe_workloads::Scale;

use crate::cache::{canonical_json, fnv1a64};
use crate::job::{named_config, scale_by_name, scale_name, workload_by_name, Job};
use crate::render::{bool_member, f64_member, member, parse, render, text_member, u64_member};

/// Version of the fabric protocol itself; checked in both handshake
/// directions.
pub const FABRIC_SCHEMA: u32 = 1;

/// Cap on one `cpe serve` request line. Requests are a few hundred
/// bytes; anything near this cap is garbage.
pub const SERVE_LINE_BYTES: usize = 64 * 1024;

/// Cap on one fabric frame. Result frames embed a full schema-stamped
/// metrics document (tens of KiB).
pub const FABRIC_LINE_BYTES: usize = 1024 * 1024;

/// How long a serve connection may stay silent between requests.
pub(crate) const SERVE_IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// How often blocked socket reads, accept loops and waits wake to check
/// stop flags and deadlines. Trades shutdown latency against wakeups.
pub(crate) const POLL: Duration = Duration::from_millis(50);

/// Default heartbeat cadence the coordinator advertises to workers.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(500);

/// A stop flag that never rises, for connections that only the peer or
/// a deadline ends.
pub(crate) static NEVER: AtomicBool = AtomicBool::new(false);

// ---------------------------------------------------------------------------
// Guarded line reading
// ---------------------------------------------------------------------------

/// What one [`LineReader::poll_line`] call produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineEvent {
    /// One complete line (without its terminator).
    Line(String),
    /// The underlying read timed out; any partial line is retained and
    /// the next poll resumes it.
    Idle,
    /// End of stream. A partial unterminated line at EOF is discarded —
    /// a torn frame is not a frame.
    Eof,
    /// The current line exceeded the cap without a terminator. The
    /// caller should answer an error frame and close; the reader cannot
    /// resynchronize.
    TooLong,
}

/// A line reader with a length cap and timeout-tolerant partial reads.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    max: usize,
}

impl<R: Read> LineReader<R> {
    /// Wrap `inner`, capping lines at `max` bytes.
    pub fn new(inner: R, max: usize) -> LineReader<R> {
        LineReader {
            inner,
            buf: Vec::new(),
            max,
        }
    }

    fn take_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
        line.pop(); // the newline
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Pull the next complete line, reading as needed.
    ///
    /// # Errors
    ///
    /// On I/O failures other than timeouts (which surface as
    /// [`LineEvent::Idle`]).
    pub fn poll_line(&mut self) -> std::io::Result<LineEvent> {
        loop {
            if let Some(line) = self.take_line() {
                // The cap applies to complete lines too, not only to
                // unterminated ones that outgrow the buffer.
                if line.len() > self.max {
                    return Ok(LineEvent::TooLong);
                }
                return Ok(LineEvent::Line(line));
            }
            if self.buf.len() > self.max {
                return Ok(LineEvent::TooLong);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(LineEvent::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(error)
                    if matches!(
                        error.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineEvent::Idle)
                }
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
                Err(error) => return Err(error),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Connections and the accept loop
// ---------------------------------------------------------------------------

/// What one [`Connection::recv`] call produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Received {
    /// One complete line (without its terminator).
    Line(String),
    /// The peer closed the stream.
    Eof,
    /// A line outgrew the connection's cap; answer an error and close.
    TooLong,
    /// The caller's stop flag rose while no line was pending.
    Stopped,
    /// No complete line arrived within the idle deadline.
    IdleTimeout,
}

/// One line-delimited JSON connection: a capped [`LineReader`] plus a
/// writer that sends one flushed frame per call.
pub(crate) struct Connection<R, W> {
    reader: LineReader<R>,
    writer: W,
}

/// A connection over a TCP socket, the shape every fabric and serve
/// socket takes.
pub(crate) type TcpConnection = Connection<TcpStream, BufWriter<TcpStream>>;

impl<R: Read, W: Write> Connection<R, W> {
    /// A connection reading lines of at most `cap` bytes from `reader`.
    pub(crate) fn new(reader: R, writer: W, cap: usize) -> Connection<R, W> {
        Connection {
            reader: LineReader::new(reader, cap),
            writer,
        }
    }

    /// The line cap currently enforced.
    pub(crate) fn cap(&self) -> usize {
        self.reader.max
    }

    /// Change the line cap (a fabric `hello` widens a connection from
    /// the serve cap to the frame cap).
    pub(crate) fn set_cap(&mut self, cap: usize) {
        self.reader.max = cap;
    }

    /// Wait for the next line. A raised `stop` ends the wait at the next
    /// [`POLL`], as does `idle` elapsing from the start of this call; a
    /// line already buffered is always delivered first.
    ///
    /// # Errors
    ///
    /// On I/O failures other than read timeouts.
    pub(crate) fn recv(
        &mut self,
        stop: &AtomicBool,
        idle: Option<Duration>,
    ) -> std::io::Result<Received> {
        let deadline = idle.map(|idle| Instant::now() + idle);
        loop {
            match self.reader.poll_line()? {
                LineEvent::Line(line) => return Ok(Received::Line(line)),
                LineEvent::Eof => return Ok(Received::Eof),
                LineEvent::TooLong => return Ok(Received::TooLong),
                LineEvent::Idle => {
                    if stop.load(Ordering::Relaxed) {
                        return Ok(Received::Stopped);
                    }
                    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                        return Ok(Received::IdleTimeout);
                    }
                }
            }
        }
    }

    /// Write one frame and its newline, then flush.
    ///
    /// # Errors
    ///
    /// On write or flush failure.
    pub(crate) fn send(&mut self, frame: &str) -> std::io::Result<()> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Write bytes with no terminator — the chaos harness's torn frame.
    pub(crate) fn send_torn(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }
}

impl TcpConnection {
    /// Wrap an accepted or connected socket. Reads time out every
    /// [`POLL`] so [`Connection::recv`] can check its stop flag and
    /// deadline.
    ///
    /// # Errors
    ///
    /// When the socket cannot be configured or cloned.
    pub(crate) fn tcp(stream: TcpStream, cap: usize) -> std::io::Result<TcpConnection> {
        stream.set_read_timeout(Some(POLL))?;
        let reader = stream.try_clone()?;
        Ok(Connection::new(reader, BufWriter::new(stream), cap))
    }

    /// Connect to `addr` and wrap the socket.
    ///
    /// # Errors
    ///
    /// A one-line diagnosis naming `addr`.
    pub(crate) fn connect(addr: &str, cap: usize) -> Result<TcpConnection, String> {
        TcpStream::connect(addr)
            .and_then(|stream| Connection::tcp(stream, cap))
            .map_err(|error| format!("cannot connect to {addr}: {error}"))
    }
}

/// Accept connections on `listener` until `stop` rises or `done()`
/// returns `true`, handling each connection on its own scoped thread.
/// `stop` is raised when the loop ends, for any reason, so connection
/// threads wind down at their next poll; the call returns once every
/// one of them has finished.
///
/// # Errors
///
/// On listener I/O failure (per-connection failures are the handler's).
pub(crate) fn accept_until(
    listener: TcpListener,
    stop: &AtomicBool,
    mut done: impl FnMut() -> bool,
    handle: impl Fn(TcpStream) + Sync,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let handle = &handle;
    std::thread::scope(|scope| {
        let outcome = loop {
            if stop.load(Ordering::Relaxed) || done() {
                break Ok(());
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    scope.spawn(move || handle(stream));
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(error) => break Err(error),
            }
        };
        stop.store(true, Ordering::Relaxed);
        outcome
    })
}

// ---------------------------------------------------------------------------
// Serve requests
// ---------------------------------------------------------------------------

/// Defaults a serve request may omit.
#[derive(Debug, Clone, Copy)]
pub struct ServeDefaults {
    /// Scale when the request names none.
    pub scale: Scale,
    /// Instruction window when the request names none.
    pub max_insts: Option<u64>,
}

impl Default for ServeDefaults {
    fn default() -> ServeDefaults {
        ServeDefaults {
            scale: Scale::Test,
            max_insts: Some(20_000),
        }
    }
}

/// What one serve line asked for; each variant carries the request's
/// `id`, rendered, to echo back.
pub(crate) enum Request {
    /// Run one job.
    Run(Box<Job>, Option<String>),
    /// Report the server counters.
    Stats(Option<String>),
    /// Acknowledge and stop.
    Shutdown(Option<String>),
}

/// A rejected serve line: the request's `id` (when it had one) and why.
pub(crate) type Rejection = (Option<String>, String);

/// Apply one override document to a base configuration. Unknown keys are
/// rejected — a typo must not silently benchmark the wrong machine.
fn apply_overrides(mut config: SimConfig, overrides: &JsonValue) -> Result<SimConfig, String> {
    let JsonValue::Object(members) = overrides else {
        return Err("`overrides` must be an object".to_string());
    };
    for (key, _) in members {
        match key.as_str() {
            "name"
            | "ports"
            | "port_width_bytes"
            | "load_combining"
            | "store_buffer_entries"
            | "store_buffer_combining"
            | "line_buffer_entries"
            | "line_buffer_width_bytes"
            | "issue_width" => {}
            other => return Err(format!("unknown override `{other}`")),
        }
    }
    if let Some(name) = text_member(overrides, "name")? {
        config = config.named(name);
    }
    if let Some(ports) = u64_member(overrides, "ports")? {
        config.mem.ports.count = ports as u32;
    }
    if let Some(width) = u64_member(overrides, "port_width_bytes")? {
        config.mem.ports.width_bytes = width;
    }
    if let Some(combining) = bool_member(overrides, "load_combining")? {
        config.mem.ports.load_combining = combining;
    }
    if let Some(entries) = u64_member(overrides, "store_buffer_entries")? {
        config.mem.store_buffer.entries = entries as usize;
    }
    if let Some(combining) = bool_member(overrides, "store_buffer_combining")? {
        config.mem.store_buffer.combining = combining;
    }
    if let Some(entries) = u64_member(overrides, "line_buffer_entries")? {
        config.mem.line_buffers.entries = entries as usize;
    }
    if let Some(width) = u64_member(overrides, "line_buffer_width_bytes")? {
        config.mem.line_buffers.width_bytes = width;
    }
    if let Some(width) = u64_member(overrides, "issue_width")? {
        config = config.with_issue_width(width as u32);
    }
    Ok(config)
}

impl Request {
    /// Parse one serve line.
    ///
    /// # Errors
    ///
    /// The [`Rejection`] to answer: malformed JSON, an unknown name, a
    /// bad override or an invalid configuration.
    pub(crate) fn parse(line: &str, defaults: &ServeDefaults) -> Result<Request, Rejection> {
        let request = parse(line).map_err(|error| (None, format!("malformed request: {error}")))?;
        Request::from_json(&request, defaults)
    }

    fn from_json(request: &JsonValue, defaults: &ServeDefaults) -> Result<Request, Rejection> {
        let id = member(request, "id").map(render);
        let fail = |message: String| (id.clone(), message);

        match text_member(request, "cmd").map_err(&fail)? {
            Some("stats") => return Ok(Request::Stats(id)),
            Some("shutdown") => return Ok(Request::Shutdown(id)),
            Some(other) => return Err(fail(format!("unknown cmd `{other}` (stats, shutdown)"))),
            None => {}
        }

        let workload_name = text_member(request, "workload")
            .map_err(&fail)?
            .ok_or_else(|| fail("request needs a `workload`".to_string()))?;
        let workload = workload_by_name(workload_name)
            .ok_or_else(|| fail(format!("unknown workload `{workload_name}`")))?;
        let config_name = text_member(request, "config")
            .map_err(&fail)?
            .unwrap_or("combined_single_port");
        let config = named_config(config_name)
            .ok_or_else(|| fail(format!("unknown config `{config_name}`")))?;
        let config = match member(request, "overrides") {
            Some(overrides) => apply_overrides(config, overrides).map_err(&fail)?,
            None => config,
        };
        config.validate().map_err(|error| fail(error.to_string()))?;
        let scale = match text_member(request, "scale").map_err(&fail)? {
            None => defaults.scale,
            Some(name) => {
                scale_by_name(name).ok_or_else(|| fail(format!("unknown scale `{name}`")))?
            }
        };
        let max_insts = u64_member(request, "max_insts")
            .map_err(&fail)?
            .or(defaults.max_insts);
        Ok(Request::Run(
            Box::new(Job {
                config,
                workload,
                scale,
                max_insts,
                // Served jobs are independent one-offs; they run direct.
                backend: BackendKind::Direct,
            }),
            id,
        ))
    }
}

/// What a connection's first line opens, decided by one parse: a fabric
/// worker session, a status query, or a stream of serve requests.
pub(crate) enum Opening {
    /// A fabric `hello`.
    Hello {
        /// The worker's [`FABRIC_SCHEMA`].
        fabric: u64,
        /// Display name for logs and stats.
        worker: String,
    },
    /// A `cpe status` query.
    Status {
        /// The observer's [`FABRIC_SCHEMA`].
        fabric: u64,
    },
    /// Anything else is the first serve request (or its rejection).
    Serve(Result<Request, Rejection>),
}

impl Opening {
    /// Classify a connection's first line.
    pub(crate) fn parse(line: &str, defaults: &ServeDefaults) -> Opening {
        let value = match parse(line) {
            Ok(value) => value,
            Err(error) => {
                return Opening::Serve(Err((None, format!("malformed request: {error}"))))
            }
        };
        match WorkerFrame::from_json(&value) {
            Ok(WorkerFrame::Hello { fabric, worker }) => Opening::Hello { fabric, worker },
            Ok(WorkerFrame::Status { fabric }) => Opening::Status { fabric },
            _ => Opening::Serve(Request::from_json(&value, defaults)),
        }
    }
}

// ---------------------------------------------------------------------------
// Job specification on the wire
// ---------------------------------------------------------------------------

/// One leased unit of work, shipped by name plus an integrity hash.
///
/// Fabric jobs travel as *named* configurations: the worker resolves the
/// name against its own binary and verifies that the FNV-1a64 of the
/// canonical configuration JSON matches `config_fnv` — so a version-skewed
/// worker whose `2-port` means something different nacks the lease with a
/// `config` error instead of silently computing the wrong machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The configuration's report name.
    pub config: String,
    /// 16-hex-digit FNV-1a64 of the canonical configuration JSON.
    pub config_fnv: String,
    /// Workload name.
    pub workload: String,
    /// Scale name.
    pub scale: String,
    /// Committed-instruction window (`None` runs to completion).
    pub max_insts: Option<u64>,
}

/// The integrity hash of a configuration: FNV-1a64 over its canonical
/// (key-sorted) JSON encoding.
pub fn config_fingerprint(config: &cpe_core::SimConfig) -> String {
    let canonical =
        canonical_json(&config_json(config)).expect("config_json emits well-formed JSON");
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

impl JobSpec {
    /// Encode a [`Job`] for the wire.
    pub fn from_job(job: &Job) -> JobSpec {
        JobSpec {
            config: job.config.name.clone(),
            config_fnv: config_fingerprint(&job.config),
            workload: job.workload.name().to_string(),
            scale: scale_name(job.scale).to_string(),
            max_insts: job.max_insts,
        }
    }

    /// Resolve the spec against this binary's named configurations and
    /// workloads, verifying the configuration fingerprint.
    ///
    /// # Errors
    ///
    /// [`SimError::Fabric`] (kind `config`) when the name is unknown or
    /// the fingerprint differs — a version-skewed worker must refuse the
    /// job, not compute the wrong machine.
    pub fn resolve(&self) -> Result<Job, SimError> {
        let fail = |message: String| SimError::Fabric {
            kind: "config".to_string(),
            message,
        };
        let config = named_config(&self.config)
            .ok_or_else(|| fail(format!("unknown config `{}`", self.config)))?;
        let fingerprint = config_fingerprint(&config);
        if fingerprint != self.config_fnv {
            return Err(fail(format!(
                "config `{}` fingerprint mismatch: coordinator {}, worker {fingerprint} \
                 (version skew?)",
                self.config, self.config_fnv
            )));
        }
        let workload = workload_by_name(&self.workload)
            .ok_or_else(|| fail(format!("unknown workload `{}`", self.workload)))?;
        let scale = scale_by_name(&self.scale)
            .ok_or_else(|| fail(format!("unknown scale `{}`", self.scale)))?;
        Ok(Job {
            config,
            workload,
            scale,
            max_insts: self.max_insts,
            // Fabric leases are always direct: the recording store never
            // crosses process boundaries, and a lone cell gains nothing
            // from record-then-replay.
            backend: cpe_core::BackendKind::Direct,
        })
    }

    fn render(&self) -> String {
        let window = match self.max_insts {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"config\":\"{}\",\"config_fnv\":\"{}\",\"workload\":\"{}\",\
             \"scale\":\"{}\",\"max_insts\":{window}}}",
            escape(&self.config),
            escape(&self.config_fnv),
            escape(&self.workload),
            escape(&self.scale)
        )
    }

    fn from_json(value: &JsonValue) -> Result<JobSpec, String> {
        let need = |key: &str| -> Result<String, String> {
            text_member(value, key)?
                .map(str::to_string)
                .ok_or_else(|| format!("lease job needs `{key}`"))
        };
        Ok(JobSpec {
            config: need("config")?,
            config_fnv: need("config_fnv")?,
            workload: need("workload")?,
            scale: need("scale")?,
            max_insts: u64_member(value, "max_insts")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker → coordinator frames
// ---------------------------------------------------------------------------

/// One frame sent by a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerFrame {
    /// Handshake: protocol version plus a display name.
    Hello {
        /// The worker's [`FABRIC_SCHEMA`].
        fabric: u64,
        /// Display name for logs and stats.
        worker: String,
    },
    /// Request a lease (sent after the handshake and after every
    /// result/nack).
    Ready,
    /// The leased job is still being computed.
    Heartbeat {
        /// The lease being refreshed.
        lease: u64,
    },
    /// The leased job's document.
    Result {
        /// The lease being fulfilled.
        lease: u64,
        /// Cache disposition on the worker (`hit`/`miss`/`bypass`).
        cache: String,
        /// Wall seconds the job cost the worker.
        wall_seconds: f64,
        /// The schema-stamped metrics document, re-rendered canonically.
        document: String,
    },
    /// The leased job failed on the worker.
    Nack {
        /// The lease being refused.
        lease: u64,
        /// The failure's kind label (`watchdog`, `panic`, `config`, …).
        kind: String,
        /// The failure message.
        message: String,
    },
    /// A live-status query (sent by `cpe status`, not by workers). Like
    /// `hello`, it carries the protocol version so a skewed observer is
    /// refused instead of misreading the reply.
    Status {
        /// The observer's [`FABRIC_SCHEMA`].
        fabric: u64,
    },
}

impl WorkerFrame {
    /// Render the frame as one protocol line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            WorkerFrame::Hello { fabric, worker } => format!(
                "{{\"fabric\":{fabric},\"type\":\"hello\",\"worker\":\"{}\"}}",
                escape(worker)
            ),
            WorkerFrame::Ready => "{\"type\":\"ready\"}".to_string(),
            WorkerFrame::Heartbeat { lease } => {
                format!("{{\"type\":\"heartbeat\",\"lease\":{lease}}}")
            }
            WorkerFrame::Result {
                lease,
                cache,
                wall_seconds,
                document,
            } => format!(
                "{{\"type\":\"result\",\"lease\":{lease},\"cache\":\"{}\",\
                 \"wall_ms\":{:.3},\"result\":{document}}}",
                escape(cache),
                wall_seconds * 1.0e3
            ),
            WorkerFrame::Nack {
                lease,
                kind,
                message,
            } => format!(
                "{{\"type\":\"nack\",\"lease\":{lease},\"kind\":\"{}\",\"error\":\"{}\"}}",
                escape(kind),
                escape(message)
            ),
            WorkerFrame::Status { fabric } => {
                format!("{{\"fabric\":{fabric},\"type\":\"status\"}}")
            }
        }
    }

    /// Parse one worker line.
    ///
    /// # Errors
    ///
    /// A one-line diagnosis for malformed JSON, unknown frame types, or
    /// missing fields — the coordinator treats any of these as a
    /// protocol violation and revokes the connection's leases.
    pub fn parse(line: &str) -> Result<WorkerFrame, String> {
        WorkerFrame::from_json(&parse(line)?)
    }

    fn from_json(value: &JsonValue) -> Result<WorkerFrame, String> {
        let frame_type = text_member(value, "type")?.ok_or("frame needs a `type`")?;
        let lease_of = |value: &JsonValue| -> Result<u64, String> {
            u64_member(value, "lease")?.ok_or_else(|| "frame needs a `lease`".to_string())
        };
        match frame_type {
            "hello" => Ok(WorkerFrame::Hello {
                fabric: u64_member(value, "fabric")?.unwrap_or(0),
                worker: text_member(value, "worker")?
                    .unwrap_or("worker")
                    .to_string(),
            }),
            "ready" => Ok(WorkerFrame::Ready),
            "heartbeat" => Ok(WorkerFrame::Heartbeat {
                lease: lease_of(value)?,
            }),
            "result" => {
                let document = member(value, "result").ok_or("result frame needs `result`")?;
                Ok(WorkerFrame::Result {
                    lease: lease_of(value)?,
                    cache: text_member(value, "cache")?.unwrap_or("bypass").to_string(),
                    wall_seconds: f64_member(value, "wall_ms")?.unwrap_or(0.0) / 1.0e3,
                    document: render(document),
                })
            }
            "nack" => Ok(WorkerFrame::Nack {
                lease: lease_of(value)?,
                kind: text_member(value, "kind")?.unwrap_or("fabric").to_string(),
                message: text_member(value, "error")?.unwrap_or("").to_string(),
            }),
            "status" => Ok(WorkerFrame::Status {
                fabric: u64_member(value, "fabric")?.unwrap_or(0),
            }),
            other => Err(format!("unknown worker frame type `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------------
// Live status
// ---------------------------------------------------------------------------

/// One worker session's live status as reported in a status reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// The coordinator-assigned session id.
    pub session: u64,
    /// The worker's display name from its handshake.
    pub worker: String,
    /// Whether the session is still connected.
    pub connected: bool,
    /// Results this worker has landed so far.
    pub cells: u64,
    /// Of those, served from the worker's local cache.
    pub hits: u64,
    /// Computed and stored in the worker's cache.
    pub misses: u64,
    /// Computed with no cache attached.
    pub bypass: u64,
    /// Leases this worker has nacked.
    pub nacks: u64,
    /// Milliseconds since the coordinator last heard from this worker.
    pub last_seen_ms: u64,
}

impl WorkerStatus {
    fn render(&self) -> String {
        format!(
            "{{\"session\":{},\"worker\":\"{}\",\"connected\":{},\"cells\":{},\
             \"hits\":{},\"misses\":{},\"bypass\":{},\"nacks\":{},\"last_seen_ms\":{}}}",
            self.session,
            escape(&self.worker),
            self.connected,
            self.cells,
            self.hits,
            self.misses,
            self.bypass,
            self.nacks,
            self.last_seen_ms
        )
    }

    fn from_json(value: &JsonValue) -> Result<WorkerStatus, String> {
        let count = |key: &str| -> Result<u64, String> { Ok(u64_member(value, key)?.unwrap_or(0)) };
        Ok(WorkerStatus {
            session: count("session")?,
            worker: text_member(value, "worker")?
                .unwrap_or("worker")
                .to_string(),
            connected: bool_member(value, "connected")?.unwrap_or(false),
            cells: count("cells")?,
            hits: count("hits")?,
            misses: count("misses")?,
            bypass: count("bypass")?,
            nacks: count("nacks")?,
            last_seen_ms: count("last_seen_ms")?,
        })
    }
}

/// A coordinator's live answer to a status query: the grid's disposition
/// plus one [`WorkerStatus`] per session ever seen.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusBody {
    /// Milliseconds since the sweep started.
    pub elapsed_ms: u64,
    /// Total grid cells.
    pub cells: u64,
    /// Cells finished successfully.
    pub done: u64,
    /// Cells that exhausted their retry/reassignment budgets.
    pub failed: u64,
    /// Cells currently leased out.
    pub leased: u64,
    /// Cells ready to lease now.
    pub queued: u64,
    /// Cells waiting out a retry backoff.
    pub backoff: u64,
    /// Every worker session seen so far, in session order.
    pub workers: Vec<WorkerStatus>,
}

impl StatusBody {
    fn render(&self) -> String {
        let workers: Vec<String> = self.workers.iter().map(WorkerStatus::render).collect();
        format!(
            "{{\"type\":\"status\",\"elapsed_ms\":{},\"cells\":{},\"done\":{},\"failed\":{},\
             \"leased\":{},\"queued\":{},\"backoff\":{},\"workers\":[{}]}}",
            self.elapsed_ms,
            self.cells,
            self.done,
            self.failed,
            self.leased,
            self.queued,
            self.backoff,
            workers.join(",")
        )
    }

    fn from_json(value: &JsonValue) -> Result<StatusBody, String> {
        let count = |key: &str| -> Result<u64, String> { Ok(u64_member(value, key)?.unwrap_or(0)) };
        let workers = match member(value, "workers") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(WorkerStatus::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("status `workers` must be an array".to_string()),
            None => Vec::new(),
        };
        Ok(StatusBody {
            elapsed_ms: count("elapsed_ms")?,
            cells: count("cells")?,
            done: count("done")?,
            failed: count("failed")?,
            leased: count("leased")?,
            queued: count("queued")?,
            backoff: count("backoff")?,
            workers,
        })
    }
}

// ---------------------------------------------------------------------------
// Coordinator → worker frames
// ---------------------------------------------------------------------------

/// One frame sent by the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorFrame {
    /// Handshake acknowledgement.
    HelloAck {
        /// The coordinator's [`FABRIC_SCHEMA`].
        fabric: u64,
        /// This connection's session id.
        session: u64,
        /// How often the worker must heartbeat while computing.
        heartbeat_ms: u64,
    },
    /// A granted lease.
    Lease {
        /// The lease id (unique per grant, never reused).
        lease: u64,
        /// The work.
        job: JobSpec,
    },
    /// No lease available right now (backpressure or backoff); ask again
    /// after `millis`.
    Wait {
        /// Suggested delay before the next `ready`.
        millis: u64,
    },
    /// The grid is complete (or the coordinator is shutting down); the
    /// worker should disconnect.
    Drain,
    /// Protocol violation; the coordinator is closing the connection.
    Error {
        /// What was violated.
        message: String,
    },
    /// Live fleet status, answering a [`WorkerFrame::Status`] query.
    Status(StatusBody),
}

impl CoordinatorFrame {
    /// Render the frame as one protocol line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            CoordinatorFrame::HelloAck {
                fabric,
                session,
                heartbeat_ms,
            } => format!(
                "{{\"fabric\":{fabric},\"type\":\"hello_ack\",\"session\":{session},\
                 \"heartbeat_ms\":{heartbeat_ms}}}"
            ),
            CoordinatorFrame::Lease { lease, job } => {
                format!(
                    "{{\"type\":\"lease\",\"lease\":{lease},\"job\":{}}}",
                    job.render()
                )
            }
            CoordinatorFrame::Wait { millis } => {
                format!("{{\"type\":\"wait\",\"millis\":{millis}}}")
            }
            CoordinatorFrame::Drain => "{\"type\":\"drain\"}".to_string(),
            CoordinatorFrame::Error { message } => {
                format!("{{\"type\":\"error\",\"message\":\"{}\"}}", escape(message))
            }
            CoordinatorFrame::Status(body) => body.render(),
        }
    }

    /// Receive one coordinator frame on a client connection: `None`
    /// when `stop` rose or `idle` passed first.
    ///
    /// # Errors
    ///
    /// A one-line diagnosis for a read failure, a closed connection, an
    /// overlong line or a malformed frame.
    pub(crate) fn recv<R: Read, W: Write>(
        connection: &mut Connection<R, W>,
        stop: &AtomicBool,
        idle: Option<Duration>,
    ) -> Result<Option<CoordinatorFrame>, String> {
        match connection
            .recv(stop, idle)
            .map_err(|error| format!("read failed: {error}"))?
        {
            Received::Line(line) => CoordinatorFrame::parse(&line)
                .map(Some)
                .map_err(|error| format!("coordinator sent a bad frame: {error}")),
            Received::Stopped | Received::IdleTimeout => Ok(None),
            Received::Eof => Err("coordinator closed the connection".to_string()),
            Received::TooLong => Err("coordinator frame exceeds the line cap".to_string()),
        }
    }

    /// Parse one coordinator line.
    ///
    /// # Errors
    ///
    /// A one-line diagnosis; the worker treats any of these as fatal and
    /// disconnects.
    pub fn parse(line: &str) -> Result<CoordinatorFrame, String> {
        let value = parse(line)?;
        let frame_type = text_member(&value, "type")?.ok_or("frame needs a `type`")?;
        match frame_type {
            "hello_ack" => Ok(CoordinatorFrame::HelloAck {
                fabric: u64_member(&value, "fabric")?.unwrap_or(0),
                session: u64_member(&value, "session")?.unwrap_or(0),
                heartbeat_ms: u64_member(&value, "heartbeat_ms")?
                    .unwrap_or(DEFAULT_HEARTBEAT.as_millis() as u64),
            }),
            "lease" => Ok(CoordinatorFrame::Lease {
                lease: u64_member(&value, "lease")?.ok_or("lease frame needs `lease`")?,
                job: JobSpec::from_json(member(&value, "job").ok_or("lease frame needs `job`")?)?,
            }),
            "wait" => Ok(CoordinatorFrame::Wait {
                millis: u64_member(&value, "millis")?.unwrap_or(100),
            }),
            "drain" => Ok(CoordinatorFrame::Drain),
            "error" => Ok(CoordinatorFrame::Error {
                message: text_member(&value, "message")?.unwrap_or("").to_string(),
            }),
            "status" => Ok(CoordinatorFrame::Status(StatusBody::from_json(&value)?)),
            other => Err(format!("unknown coordinator frame type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpe_core::SimConfig;
    use cpe_workloads::{Scale, Workload};

    fn job() -> Job {
        Job {
            config: SimConfig::dual_port(),
            workload: Workload::Sort,
            scale: Scale::Test,
            max_insts: Some(5_000),
            backend: cpe_core::BackendKind::Direct,
        }
    }

    #[test]
    fn worker_frames_round_trip() {
        let frames = [
            WorkerFrame::Hello {
                fabric: FABRIC_SCHEMA as u64,
                worker: "w\"1".to_string(),
            },
            WorkerFrame::Ready,
            WorkerFrame::Heartbeat { lease: 9 },
            WorkerFrame::Result {
                lease: 3,
                cache: "miss".to_string(),
                wall_seconds: 0.0413,
                document: "{\"schema\":3,\"summary\":{\"ipc\":1.5}}".to_string(),
            },
            WorkerFrame::Nack {
                lease: 4,
                kind: "watchdog".to_string(),
                message: "no commit for 100000 cycles".to_string(),
            },
            WorkerFrame::Status {
                fabric: FABRIC_SCHEMA as u64,
            },
        ];
        for frame in frames {
            let line = frame.render();
            assert!(!line.contains('\n'), "{line}");
            let parsed = WorkerFrame::parse(&line).expect(&line);
            match (&frame, &parsed) {
                // wall_ms survives only to 3 decimals; compare the rest.
                (
                    WorkerFrame::Result {
                        lease, document, ..
                    },
                    WorkerFrame::Result {
                        lease: lease2,
                        document: document2,
                        ..
                    },
                ) => {
                    assert_eq!(lease, lease2);
                    assert_eq!(document, document2);
                }
                _ => assert_eq!(frame, parsed),
            }
        }
    }

    #[test]
    fn coordinator_frames_round_trip() {
        let frames = [
            CoordinatorFrame::HelloAck {
                fabric: FABRIC_SCHEMA as u64,
                session: 2,
                heartbeat_ms: 500,
            },
            CoordinatorFrame::Lease {
                lease: 7,
                job: JobSpec::from_job(&job()),
            },
            CoordinatorFrame::Wait { millis: 120 },
            CoordinatorFrame::Drain,
            CoordinatorFrame::Error {
                message: "unknown frame".to_string(),
            },
            CoordinatorFrame::Status(StatusBody {
                elapsed_ms: 1_234,
                cells: 16,
                done: 9,
                failed: 1,
                leased: 3,
                queued: 2,
                backoff: 1,
                workers: vec![
                    WorkerStatus {
                        session: 1,
                        worker: "w\"1".to_string(),
                        connected: true,
                        cells: 5,
                        hits: 2,
                        misses: 3,
                        bypass: 0,
                        nacks: 0,
                        last_seen_ms: 12,
                    },
                    WorkerStatus {
                        session: 2,
                        worker: "w2".to_string(),
                        connected: false,
                        cells: 4,
                        hits: 0,
                        misses: 0,
                        bypass: 4,
                        nacks: 1,
                        last_seen_ms: 900,
                    },
                ],
            }),
        ];
        for frame in frames {
            let line = frame.render();
            assert_eq!(CoordinatorFrame::parse(&line).expect(&line), frame);
        }
    }

    #[test]
    fn empty_status_bodies_round_trip_and_reject_bad_workers() {
        let frame = CoordinatorFrame::Status(StatusBody::default());
        let line = frame.render();
        assert_eq!(CoordinatorFrame::parse(&line).expect(&line), frame);
        assert!(
            CoordinatorFrame::parse("{\"type\":\"status\",\"workers\":7}").is_err(),
            "non-array workers must be rejected"
        );
    }

    #[test]
    fn job_specs_resolve_back_to_the_same_job() {
        let original = job();
        let spec = JobSpec::from_job(&original);
        let resolved = spec.resolve().expect("dual_port resolves");
        assert_eq!(resolved.config, original.config);
        assert_eq!(resolved.workload.name(), original.workload.name());
        assert_eq!(resolved.max_insts, original.max_insts);
    }

    #[test]
    fn fingerprint_mismatch_and_unknown_names_are_config_errors() {
        let mut spec = JobSpec::from_job(&job());
        spec.config_fnv = "0000000000000000".to_string();
        let error = spec.resolve().expect_err("fingerprint mismatch");
        assert_eq!(error.kind(), "config");
        assert!(error.to_string().contains("version skew"), "{error}");

        let mut spec = JobSpec::from_job(&job());
        spec.config = "9-port imaginary".to_string();
        assert_eq!(spec.resolve().expect_err("unknown").kind(), "config");
    }

    #[test]
    fn garbage_and_unknown_frames_are_rejected() {
        assert!(WorkerFrame::parse("not json").is_err());
        assert!(WorkerFrame::parse("{\"type\":\"explode\"}").is_err());
        assert!(WorkerFrame::parse("{\"type\":\"heartbeat\"}").is_err());
        assert!(CoordinatorFrame::parse("{\"type\":\"lease\",\"lease\":1}").is_err());
    }

    #[test]
    fn line_reader_splits_batches_and_caps_length() {
        let input = b"one\r\ntwo\nthree";
        let mut reader = LineReader::new(&input[..], 64);
        assert_eq!(reader.poll_line().unwrap(), LineEvent::Line("one".into()));
        assert_eq!(reader.poll_line().unwrap(), LineEvent::Line("two".into()));
        // Unterminated tail at EOF is a torn frame, not a frame.
        assert_eq!(reader.poll_line().unwrap(), LineEvent::Eof);

        let long = [b'x'; 200];
        let mut reader = LineReader::new(&long[..], 64);
        assert_eq!(reader.poll_line().unwrap(), LineEvent::TooLong);
    }

    #[test]
    fn line_reader_retains_partial_lines_across_timeouts() {
        /// A reader that yields its chunks interleaved with timeouts.
        struct Stutter {
            chunks: Vec<Vec<u8>>,
            timed_out: bool,
        }
        impl Read for Stutter {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if !self.timed_out {
                    self.timed_out = true;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.timed_out = false;
                match self.chunks.pop() {
                    None => Ok(0),
                    Some(chunk) => {
                        out[..chunk.len()].copy_from_slice(&chunk);
                        Ok(chunk.len())
                    }
                }
            }
        }
        let mut reader = LineReader::new(
            Stutter {
                chunks: vec![b"rld\n".to_vec(), b"hello wo".to_vec()],
                timed_out: false,
            },
            64,
        );
        assert_eq!(reader.poll_line().unwrap(), LineEvent::Idle);
        assert_eq!(reader.poll_line().unwrap(), LineEvent::Idle);
        assert_eq!(
            reader.poll_line().unwrap(),
            LineEvent::Line("hello world".into())
        );
        assert_eq!(reader.poll_line().unwrap(), LineEvent::Idle);
        assert_eq!(reader.poll_line().unwrap(), LineEvent::Eof);
    }
}
