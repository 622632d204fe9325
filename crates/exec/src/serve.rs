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

use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use cpe_core::json::escape;

use crate::cache::ResultCache;
use crate::job::{run_job, CacheStatus};
use crate::protocol::{
    accept_until, Connection, Received, Rejection, Request, ServeDefaults, TcpConnection, NEVER,
    SERVE_IDLE_TIMEOUT, SERVE_LINE_BYTES,
};

/// A reply line, plus whether the server should stop afterwards.
pub struct Reply {
    /// The response line (no trailing newline).
    pub line: String,
    /// `true` when the request was `{"cmd":"shutdown"}`.
    pub shutdown: bool,
}

fn id_field(id: &Option<String>) -> String {
    match id {
        Some(id) => format!("\"id\":{id},"),
        None => String::new(),
    }
}

/// The shared server state: the cache plus lifetime counters. One
/// instance serves any number of connections concurrently.
pub struct Server {
    cache: Option<ResultCache>,
    defaults: ServeDefaults,
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
            jobs: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            wall_micros: AtomicU64::new(0),
        }
    }

    /// The defaults requests may omit.
    pub(crate) fn defaults(&self) -> &ServeDefaults {
        &self.defaults
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
        self.answer(Request::parse(line, &self.defaults))
    }

    /// Answer one parsed (or rejected) request.
    fn answer(&self, request: Result<Request, Rejection>) -> Reply {
        match request {
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

    /// Serve one request stream (stdin, a test buffer) to completion:
    /// EOF or a shutdown request.
    ///
    /// Returns `true` when the stream asked for shutdown.
    ///
    /// # Errors
    ///
    /// On I/O failure reading requests or writing responses.
    pub fn serve_stream(&self, reader: impl BufRead, writer: impl Write) -> std::io::Result<bool> {
        let mut connection = Connection::new(reader, writer, SERVE_LINE_BYTES);
        self.serve_guarded(&mut connection, &NEVER, SERVE_IDLE_TIMEOUT, None)
    }

    /// Serve request lines until EOF, a shutdown request, a guard
    /// breach, or `stop` — the engine behind [`Server::serve_stream`],
    /// [`Server::serve_tcp`] connections and single-job traffic on a
    /// fabric coordinator's listener (which supplies the already-parsed
    /// first request). A line over the connection's cap, or `idle` with
    /// no request, answers a final `{"error":…}` frame and closes — a
    /// stuck or malicious client must not pin a connection thread or
    /// grow an unbounded buffer.
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
    pub(crate) fn serve_guarded<R: Read, W: Write>(
        &self,
        connection: &mut Connection<R, W>,
        stop: &AtomicBool,
        idle: Duration,
        first: Option<Result<Request, Rejection>>,
    ) -> std::io::Result<bool> {
        let mut next = first;
        loop {
            let request = match next.take() {
                Some(request) => request,
                None => match connection.recv(stop, Some(idle))? {
                    Received::Line(line) if line.trim().is_empty() => continue,
                    Received::Line(line) => Request::parse(&line, &self.defaults),
                    Received::TooLong => {
                        self.refuse_oversized(connection)?;
                        return Ok(false);
                    }
                    Received::IdleTimeout => {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        connection.send(&format!(
                            "{{\"error\":\"idle timeout after {:.0}s, closing\"}}",
                            idle.as_secs_f64()
                        ))?;
                        return Ok(false);
                    }
                    Received::Stopped | Received::Eof => return Ok(false),
                },
            };
            let reply = self.answer(request);
            connection.send(&reply.line)?;
            if reply.shutdown {
                return Ok(true);
            }
        }
    }

    /// Answer a request line that outgrew the connection's cap, naming
    /// the cap actually enforced. The connection must close afterwards:
    /// the reader cannot resynchronize.
    ///
    /// # Errors
    ///
    /// On write failure.
    pub(crate) fn refuse_oversized<R: Read, W: Write>(
        &self,
        connection: &mut Connection<R, W>,
    ) -> std::io::Result<()> {
        self.errors.fetch_add(1, Ordering::Relaxed);
        connection.send(&format!(
            "{{\"error\":\"request exceeds {} bytes, closing\"}}",
            connection.cap()
        ))
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
        let stop = AtomicBool::new(false);
        accept_until(
            listener,
            &stop,
            || false,
            |stream| {
                if let Ok(true) = self.serve_connection(stream, &stop) {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        )
    }

    fn serve_connection(&self, stream: TcpStream, stop: &AtomicBool) -> std::io::Result<bool> {
        let mut connection = TcpConnection::tcp(stream, SERVE_LINE_BYTES)?;
        self.serve_guarded(&mut connection, stop, SERVE_IDLE_TIMEOUT, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::parse;
    use cpe_workloads::Scale;

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
    fn every_named_config_and_the_combined_alias_are_servable() {
        let server = server();
        let names = crate::job::named_configs()
            .into_iter()
            .map(|config| config.name);
        for name in names.chain(["combined_single_port".to_string()]) {
            let reply = server.handle_line(&format!(
                "{{\"workload\":\"sort\",\"config\":\"{name}\",\"max_insts\":500}}"
            ));
            assert!(
                reply.line.contains("\"result\":{"),
                "{name}: {}",
                reply.line
            );
        }
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
        let server = Server::new(None, ServeDefaults::default());
        let input = format!("{{\"workload\":\"{}\"}}\n", "x".repeat(200));
        let mut output = Vec::new();
        let mut connection = Connection::new(input.as_bytes(), &mut output, 64);
        let shutdown = server
            .serve_guarded(&mut connection, &NEVER, SERVE_IDLE_TIMEOUT, None)
            .unwrap();
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
        let server = Server::new(None, ServeDefaults::default());
        let mut output = Vec::new();
        let mut connection = Connection::new(Silent, &mut output, 1024);
        let shutdown = server
            .serve_guarded(&mut connection, &NEVER, Duration::from_millis(20), None)
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
        let mut output = Vec::new();
        let mut connection = Connection::new(Silent, &mut output, 1024);
        let stop = AtomicBool::new(true);
        let shutdown = server
            .serve_guarded(&mut connection, &stop, SERVE_IDLE_TIMEOUT, None)
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
