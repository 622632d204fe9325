//! `cpe serve` — a line-delimited JSON batch-job protocol.
//!
//! One request per line, one response per line. A request names a
//! workload and either a preset configuration or a preset plus
//! overrides; the response carries the cached-or-computed schema-stamped
//! metrics document, the cache disposition, and the job's wall time:
//!
//! ```text
//! → {"id":1,"workload":"sort","config":"2-port","max_insts":5000}
//! ← {"id":1,"config":"2-port","workload":"sort","cache":"miss","wall_ms":41.3,"result":{…}}
//! ```
//!
//! Control requests: `{"cmd":"stats"}` returns the server counters,
//! `{"cmd":"shutdown"}` acknowledges and stops the server. Malformed
//! requests produce `{"id":…,"error":"…"}` and the server keeps going —
//! one bad client line must not cost the batch.
//!
//! The same handler serves stdin (`--stdin`, for scripting and CI) and a
//! TCP listener (`--listen addr:port`); see `docs/EXECUTION.md` for a
//! worked `nc` example.

use std::io::{BufRead, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cpe_core::json::escape;
use cpe_core::{JsonValue, SimConfig};
use cpe_workloads::Scale;

use crate::cache::ResultCache;
use crate::job::{preset_by_name, run_job, scale_by_name, workload_by_name, CacheStatus, Job};
use crate::protocol::{LineEvent, LineReader};
use crate::render::{bool_member, member, parse, render, text_member, u64_member};

/// What one protocol line asked for.
enum Request {
    Run(Box<Job>, Option<String>),
    Stats(Option<String>),
    Shutdown(Option<String>),
}

/// A reply line, plus whether the server should stop afterwards.
pub struct Reply {
    /// The response line (no trailing newline).
    pub line: String,
    /// `true` when the request was `{"cmd":"shutdown"}`.
    pub shutdown: bool,
}

fn id_of(request: &JsonValue) -> Option<String> {
    member(request, "id").map(render)
}

fn id_field(id: &Option<String>) -> String {
    match id {
        Some(id) => format!("\"id\":{id},"),
        None => String::new(),
    }
}

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

fn parse_request(
    line: &str,
    defaults: &ServeDefaults,
) -> Result<Request, (Option<String>, String)> {
    let request = parse(line).map_err(|error| (None, format!("malformed request: {error}")))?;
    let id = id_of(&request);
    let fail = |message: String| (id.clone(), message);

    match text_member(&request, "cmd").map_err(&fail)? {
        Some("stats") => return Ok(Request::Stats(id)),
        Some("shutdown") => return Ok(Request::Shutdown(id)),
        Some(other) => return Err(fail(format!("unknown cmd `{other}` (stats, shutdown)"))),
        None => {}
    }

    let workload_name = text_member(&request, "workload")
        .map_err(&fail)?
        .ok_or_else(|| fail("request needs a `workload`".to_string()))?;
    let workload = workload_by_name(workload_name)
        .ok_or_else(|| fail(format!("unknown workload `{workload_name}`")))?;
    let config_name = text_member(&request, "config")
        .map_err(&fail)?
        .unwrap_or("combined_single_port");
    let config = if config_name == "combined_single_port" {
        SimConfig::combined_single_port()
    } else {
        preset_by_name(config_name)
            .ok_or_else(|| fail(format!("unknown config `{config_name}`")))?
    };
    let config = match member(&request, "overrides") {
        Some(overrides) => apply_overrides(config, overrides).map_err(&fail)?,
        None => config,
    };
    config.validate().map_err(|error| fail(error.to_string()))?;
    let scale = match text_member(&request, "scale").map_err(&fail)? {
        None => defaults.scale,
        Some(name) => scale_by_name(name).ok_or_else(|| fail(format!("unknown scale `{name}`")))?,
    };
    let max_insts = u64_member(&request, "max_insts")
        .map_err(&fail)?
        .or(defaults.max_insts);
    Ok(Request::Run(
        Box::new(Job {
            config,
            workload,
            scale,
            max_insts,
            // Served jobs are independent one-offs; they run direct.
            backend: cpe_core::BackendKind::Direct,
        }),
        id,
    ))
}

/// Protocol defaults a request may omit.
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

/// Per-connection guards: how long a silent connection may stay open
/// and how long one request line may grow. Breaching either answers a
/// final `{"error":…}` frame and closes the connection — a stuck or
/// malicious client must not pin a connection thread or grow an
/// unbounded buffer.
#[derive(Debug, Clone, Copy)]
pub struct ServeLimits {
    /// Close a connection with no complete request for this long.
    pub idle_timeout: Duration,
    /// Cap on one request line.
    pub max_line_bytes: usize,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            idle_timeout: Duration::from_secs(120),
            max_line_bytes: 64 * 1024,
        }
    }
}

/// How often blocked connection reads wake to check the shutdown flag
/// and the idle clock.
const POLL: Duration = Duration::from_millis(100);

/// The shared server state: the cache plus lifetime counters. One
/// instance serves any number of connections concurrently.
pub struct Server {
    cache: Option<ResultCache>,
    defaults: ServeDefaults,
    limits: ServeLimits,
    jobs: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    wall_micros: AtomicU64,
}

impl Server {
    /// A server over `cache` (None disables caching) with the given
    /// request defaults.
    pub fn new(cache: Option<ResultCache>, defaults: ServeDefaults) -> Server {
        Server {
            cache,
            defaults,
            limits: ServeLimits::default(),
            jobs: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            wall_micros: AtomicU64::new(0),
        }
    }

    /// Replace the per-connection guards.
    pub fn with_limits(mut self, limits: ServeLimits) -> Server {
        self.limits = limits;
        self
    }

    /// Jobs served so far.
    pub fn jobs_served(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Cache hit rate over jobs that went through the cache.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits.load(Ordering::Relaxed);
        let through = hits + self.misses.load(Ordering::Relaxed);
        if through == 0 {
            0.0
        } else {
            hits as f64 / through as f64
        }
    }

    /// The counters as one JSON object (the `{"cmd":"stats"}` response
    /// body and the shutdown summary).
    pub fn stats_json(&self) -> String {
        format!(
            "{{\"jobs\":{},\"hits\":{},\"misses\":{},\"errors\":{},\"hit_rate\":{:.4},\
             \"wall_seconds\":{:.6}}}",
            self.jobs.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.hit_rate(),
            self.wall_micros.load(Ordering::Relaxed) as f64 / 1.0e6
        )
    }

    /// Handle one protocol line.
    pub fn handle_line(&self, line: &str) -> Reply {
        match parse_request(line, &self.defaults) {
            Err((id, message)) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Reply {
                    line: format!("{{{}\"error\":\"{}\"}}", id_field(&id), escape(&message)),
                    shutdown: false,
                }
            }
            Ok(Request::Stats(id)) => Reply {
                line: format!("{{{}\"stats\":{}}}", id_field(&id), self.stats_json()),
                shutdown: false,
            },
            Ok(Request::Shutdown(id)) => Reply {
                line: format!(
                    "{{{}\"shutdown\":true,\"stats\":{}}}",
                    id_field(&id),
                    self.stats_json()
                ),
                shutdown: true,
            },
            Ok(Request::Run(job, id)) => {
                let outcome = run_job(&job, self.cache.as_ref());
                self.jobs.fetch_add(1, Ordering::Relaxed);
                self.wall_micros
                    .fetch_add((outcome.wall_seconds * 1.0e6) as u64, Ordering::Relaxed);
                match outcome.cache {
                    CacheStatus::Hit => self.hits.fetch_add(1, Ordering::Relaxed),
                    CacheStatus::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
                    CacheStatus::Bypass => 0,
                };
                let line = match &outcome.document {
                    Ok(document) => format!(
                        "{{{}\"config\":\"{}\",\"workload\":\"{}\",\"cache\":\"{}\",\
                         \"wall_ms\":{:.3},\"result\":{document}}}",
                        id_field(&id),
                        escape(&job.config.name),
                        job.workload.name(),
                        outcome.cache.label(),
                        outcome.wall_seconds * 1.0e3
                    ),
                    Err(error) => {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        format!(
                            "{{{}\"error\":\"{}\",\"kind\":\"{}\"}}",
                            id_field(&id),
                            escape(&error.to_string()),
                            error.kind()
                        )
                    }
                };
                Reply {
                    line,
                    shutdown: false,
                }
            }
        }
    }

    /// Serve one request stream (stdin, a socket, a test buffer) to
    /// completion: EOF or a shutdown request.
    ///
    /// Returns `true` when the stream asked for shutdown.
    ///
    /// # Errors
    ///
    /// On I/O failure reading requests or writing responses.
    pub fn serve_stream(
        &self,
        reader: impl BufRead,
        mut writer: impl Write,
    ) -> std::io::Result<bool> {
        let mut reader = LineReader::new(reader, self.limits.max_line_bytes);
        let never = AtomicBool::new(false);
        self.serve_guarded(&mut reader, &mut writer, &never, None)
    }

    /// Serve request lines until EOF, a shutdown request, a guard
    /// breach, or `stop` — the engine behind both [`Server::serve_tcp`]
    /// connections and single-job traffic on a fabric coordinator's
    /// listener (which supplies the already-dispatched first line).
    ///
    /// When `stop` is raised externally, the connection finishes the
    /// request it is handling — in-flight jobs drain, they are not torn —
    /// and then closes at its next poll.
    ///
    /// Returns `true` when this stream asked for shutdown; the *caller*
    /// decides whether that stops a whole server or just this
    /// connection.
    ///
    /// # Errors
    ///
    /// On I/O failure reading requests or writing responses.
    pub fn serve_guarded<R: Read>(
        &self,
        reader: &mut LineReader<R>,
        writer: &mut impl Write,
        stop: &AtomicBool,
        first: Option<String>,
    ) -> std::io::Result<bool> {
        let answer = |line: &str, writer: &mut dyn Write| -> std::io::Result<bool> {
            if line.trim().is_empty() {
                return Ok(false);
            }
            let reply = self.handle_line(line);
            writer.write_all(reply.line.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            Ok(reply.shutdown)
        };
        if let Some(line) = first {
            if answer(&line, writer)? {
                return Ok(true);
            }
        }
        let mut last_activity = Instant::now();
        loop {
            match reader.poll_line()? {
                LineEvent::Line(line) => {
                    last_activity = Instant::now();
                    if answer(&line, writer)? {
                        return Ok(true);
                    }
                }
                LineEvent::Idle => {
                    if stop.load(Ordering::Relaxed) {
                        return Ok(false);
                    }
                    if last_activity.elapsed() >= self.limits.idle_timeout {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        writeln!(
                            writer,
                            "{{\"error\":\"idle timeout after {:.0}s, closing\"}}",
                            self.limits.idle_timeout.as_secs_f64()
                        )?;
                        writer.flush()?;
                        return Ok(false);
                    }
                }
                LineEvent::TooLong => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    writeln!(
                        writer,
                        "{{\"error\":\"request exceeds {} bytes, closing\"}}",
                        self.limits.max_line_bytes
                    )?;
                    writer.flush()?;
                    return Ok(false);
                }
                LineEvent::Eof => return Ok(false),
            }
        }
    }

    /// Accept TCP connections until one of them requests shutdown. Each
    /// connection gets its own thread; the cache and counters are
    /// shared.
    ///
    /// Shutdown drains: connections finish the request they are
    /// handling (its reply is written) before closing, and the listener
    /// waits for every connection thread.
    ///
    /// # Errors
    ///
    /// On listener I/O failure (per-connection failures only end that
    /// connection).
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| loop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let stop = &stop;
                    scope.spawn(move || {
                        if let Ok(true) = self.serve_connection(stream, stop) {
                            stop.store(true, Ordering::Relaxed);
                        }
                    });
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(error) => return Err(error),
            }
        })
    }

    fn serve_connection(&self, stream: TcpStream, stop: &AtomicBool) -> std::io::Result<bool> {
        stream.set_read_timeout(Some(POLL))?;
        let mut reader = LineReader::new(stream.try_clone()?, self.limits.max_line_bytes);
        let mut writer = BufWriter::new(stream);
        self.serve_guarded(&mut reader, &mut writer, stop, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(
            None,
            ServeDefaults {
                scale: Scale::Test,
                max_insts: Some(2_000),
            },
        )
    }

    #[test]
    fn run_requests_return_the_metrics_document() {
        let server = server();
        let reply = server.handle_line("{\"id\":7,\"workload\":\"sort\",\"config\":\"2-port\"}");
        assert!(!reply.shutdown);
        assert!(reply.line.starts_with("{\"id\":7,"), "{}", reply.line);
        assert!(
            reply.line.contains("\"cache\":\"bypass\""),
            "{}",
            reply.line
        );
        assert!(reply.line.contains("\"wall_ms\":"), "{}", reply.line);
        assert!(reply.line.contains("\"result\":{\"schema\":3,"));
        let parsed = parse(&reply.line).expect("response is one JSON object");
        assert_eq!(
            crate::render::text_at(&parsed, &["result", "summary", "workload"]),
            Some("sort")
        );
        assert_eq!(server.jobs_served(), 1);
    }

    #[test]
    fn overrides_build_a_custom_machine_and_typos_are_rejected() {
        let server = server();
        let reply = server.handle_line(
            "{\"workload\":\"fft\",\"config\":\"1-port naive\",\
             \"overrides\":{\"ports\":4,\"name\":\"custom\"}}",
        );
        assert!(
            reply.line.contains("\"config\":\"custom\""),
            "{}",
            reply.line
        );
        let reply = server.handle_line("{\"workload\":\"fft\",\"overrides\":{\"portz\":4}}");
        assert!(
            reply.line.contains("unknown override `portz`"),
            "{}",
            reply.line
        );
    }

    #[test]
    fn client_supplied_names_come_back_in_one_valid_frame() {
        // Quote, backslash and newline: an unescaped echo of any of them
        // breaks the frame or splits it in two.
        let name = "q\"b\\s\nnl";
        let server = server();
        let reply = server.handle_line(&format!(
            "{{\"workload\":\"sort\",\"overrides\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
        assert_eq!(reply.line.lines().count(), 1, "{}", reply.line);
        let frame = parse(&reply.line).expect("the reply frame parses");
        assert_eq!(
            crate::render::text_at(&frame, &["config"]),
            Some(name),
            "{}",
            reply.line
        );
    }

    #[test]
    fn bad_lines_answer_with_errors_and_never_kill_the_stream() {
        let server = server();
        let input = b"not json\n{\"workload\":\"nope\"}\n{\"id\":1,\"cmd\":\"stats\"}\n";
        let mut output = Vec::new();
        let shutdown = server.serve_stream(&input[..], &mut output).unwrap();
        assert!(!shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("malformed request"), "{}", lines[0]);
        assert!(lines[1].contains("unknown workload"), "{}", lines[1]);
        assert!(lines[2].contains("\"stats\":{\"jobs\":0"), "{}", lines[2]);
    }

    #[test]
    fn invalid_override_values_are_rejected_before_running() {
        let server = server();
        let reply = server.handle_line("{\"workload\":\"sort\",\"overrides\":{\"ports\":0}}");
        assert!(reply.line.contains("\"error\":"), "{}", reply.line);
        assert_eq!(server.jobs_served(), 0, "invalid config never runs");
    }

    #[test]
    fn oversized_request_lines_answer_an_error_and_close() {
        let server = Server::new(None, ServeDefaults::default()).with_limits(ServeLimits {
            max_line_bytes: 64,
            ..ServeLimits::default()
        });
        let input = format!("{{\"workload\":\"{}\"}}\n", "x".repeat(200));
        let mut output = Vec::new();
        let shutdown = server.serve_stream(input.as_bytes(), &mut output).unwrap();
        assert!(!shutdown);
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("exceeds 64 bytes"), "{text}");
        assert_eq!(text.lines().count(), 1, "error frame, then closed");
    }

    #[test]
    fn idle_connections_time_out_with_an_error_frame() {
        /// A stream that never delivers a byte: every read times out.
        struct Silent;
        impl std::io::Read for Silent {
            fn read(&mut self, _out: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(1));
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let server = Server::new(None, ServeDefaults::default()).with_limits(ServeLimits {
            idle_timeout: Duration::from_millis(20),
            ..ServeLimits::default()
        });
        let mut reader = LineReader::new(Silent, 1024);
        let mut output = Vec::new();
        let never = AtomicBool::new(false);
        let shutdown = server
            .serve_guarded(&mut reader, &mut output, &never, None)
            .unwrap();
        assert!(!shutdown);
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("idle timeout"), "{text}");
    }

    #[test]
    fn an_external_stop_closes_idle_connections_without_an_error() {
        struct Silent;
        impl std::io::Read for Silent {
            fn read(&mut self, _out: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let server = Server::new(None, ServeDefaults::default());
        let mut reader = LineReader::new(Silent, 1024);
        let mut output = Vec::new();
        let stop = AtomicBool::new(true);
        let shutdown = server
            .serve_guarded(&mut reader, &mut output, &stop, None)
            .unwrap();
        assert!(!shutdown);
        assert!(output.is_empty(), "drained quietly, no error frame");
    }

    #[test]
    fn shutdown_acknowledges_with_stats() {
        let server = server();
        let reply = server.handle_line("{\"id\":9,\"cmd\":\"shutdown\"}");
        assert!(reply.shutdown);
        assert!(reply.line.contains("\"shutdown\":true"), "{}", reply.line);
        assert!(reply.line.contains("\"stats\":{"), "{}", reply.line);
    }

    #[test]
    fn cached_serves_report_hits_the_second_time() {
        let dir = std::env::temp_dir().join(format!("cpe-serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::new(
            Some(ResultCache::new(&dir)),
            ServeDefaults {
                scale: Scale::Test,
                max_insts: Some(2_000),
            },
        );
        let request = "{\"workload\":\"compress\",\"config\":\"2-port\"}";
        let first = server.handle_line(request);
        assert!(first.line.contains("\"cache\":\"miss\""), "{}", first.line);
        let second = server.handle_line(request);
        assert!(second.line.contains("\"cache\":\"hit\""), "{}", second.line);
        assert!((server.hit_rate() - 0.5).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
