//! Pluggable trace sinks.
//!
//! A sink turns a slice of retained [`TraceEvent`]s into bytes on some
//! writer. Three are provided:
//!
//! * [`ChromeTraceSink`] — the Chrome `trace_event` JSON array format,
//!   loadable in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//!   (one simulated cycle maps to one microsecond of timeline);
//! * [`JsonlSink`] — one JSON object per line, for `jq`/scripting;
//! * [`NullSink`] — discards everything; with the `capture` feature off
//!   this completes the zero-cost story end to end.
//!
//! All JSON is hand-assembled: the event vocabulary is a closed set of
//! static names and integers, so no serialization dependency is needed.

use std::io::{self, Write};

use crate::event::TraceEvent;

/// Serialize a batch of retained events to a writer.
pub trait TraceSink {
    /// Write every event (and any surrounding framing) to `out`.
    fn write_events(&mut self, events: &[TraceEvent], out: &mut dyn Write) -> io::Result<()>;

    /// The file extension this sink's output conventionally takes.
    fn extension(&self) -> &'static str;
}

/// Chrome `trace_event` JSON ("JSON object format" with a `traceEvents`
/// array). Each event becomes a 1µs-per-cycle complete slice on a lane
/// per category, plus metadata records naming the lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChromeTraceSink;

/// One compact JSON object per line.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonlSink;

/// Swallows everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for ChromeTraceSink {
    fn write_events(&mut self, events: &[TraceEvent], out: &mut dyn Write) -> io::Result<()> {
        out.write_all(chrome_trace_json(events).as_bytes())
    }

    fn extension(&self) -> &'static str {
        "json"
    }
}

impl TraceSink for JsonlSink {
    fn write_events(&mut self, events: &[TraceEvent], out: &mut dyn Write) -> io::Result<()> {
        for event in events {
            writeln!(out, "{}", jsonl_record(event))?;
        }
        Ok(())
    }

    fn extension(&self) -> &'static str {
        "jsonl"
    }
}

impl TraceSink for NullSink {
    fn write_events(&mut self, _events: &[TraceEvent], _out: &mut dyn Write) -> io::Result<()> {
        Ok(())
    }

    fn extension(&self) -> &'static str {
        "none"
    }
}

/// The lane (`tid`) names shown in the timeline, indexed by
/// [`EventKind::lane`].
const LANE_NAMES: [&str; 6] = ["pipeline", "port", "portless", "store", "mshr", "diag"];

/// Wrap rendered `trace_event` records in the Chrome JSON object
/// envelope — the one envelope every Chrome trace in the workspace uses.
pub fn chrome_envelope(events: &[String]) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// A `thread_name` metadata record naming lane `tid` in the timeline.
/// `name` is written verbatim, so it must already be JSON-escaped.
pub fn thread_name_record(tid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
         \"args\":{{\"name\":\"{name}\"}}}}"
    )
}

/// Render events as a complete Chrome `trace_event` JSON document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let lanes = LANE_NAMES
        .iter()
        .enumerate()
        .map(|(lane, name)| thread_name_record(lane as u64, name));
    let slices = events.iter().map(|event| {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
             \"pid\":0,\"tid\":{},\"args\":{{\"addr\":\"{:#x}\",\"arg\":{}}}}}",
            event.kind.name(),
            event.kind.category(),
            event.cycle,
            event.kind.lane(),
            event.addr,
            event.arg
        )
    });
    chrome_envelope(&lanes.chain(slices).collect::<Vec<_>>())
}

/// Render one event as a single-line JSON object.
pub fn jsonl_record(event: &TraceEvent) -> String {
    format!(
        "{{\"cycle\":{},\"event\":\"{}\",\"cat\":\"{}\",\"addr\":\"{:#x}\",\"arg\":{}}}",
        event.cycle,
        event.kind.name(),
        event.kind.category(),
        event.addr,
        event.arg
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(10, EventKind::PortConflict, 0x2000, 0),
            TraceEvent::new(11, EventKind::PortGrant, 0x2000, 3),
            TraceEvent::new(12, EventKind::LineBufferHit, 0x2008, 0),
        ]
    }

    /// A structural JSON sanity check without a parser: balanced
    /// brackets/braces outside strings and no trailing garbage.
    fn assert_balanced(text: &str) {
        let mut depth_obj = 0i64;
        let mut depth_arr = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_string {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => in_string = false,
                    _ => escaped = false,
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' => depth_obj += 1,
                '}' => depth_obj -= 1,
                '[' => depth_arr += 1,
                ']' => depth_arr -= 1,
                _ => {}
            }
            assert!(depth_obj >= 0 && depth_arr >= 0, "underflow in {text}");
        }
        assert_eq!(depth_obj, 0, "unbalanced braces in {text}");
        assert_eq!(depth_arr, 0, "unbalanced brackets in {text}");
        assert!(!in_string, "unterminated string in {text}");
    }

    #[test]
    fn chrome_output_is_structurally_sound() {
        let text = chrome_trace_json(&sample());
        assert_balanced(&text);
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"traceEvents\":["), "{text}");
        assert!(text.contains("\"name\":\"port_grant\""), "{text}");
        assert!(text.contains("\"ts\":11"), "{text}");
        assert!(
            text.contains("\"args\":{\"addr\":\"0x2000\",\"arg\":3}"),
            "{text}"
        );
        // Lane metadata names every track.
        for lane in LANE_NAMES {
            assert!(text.contains(&format!("\"name\":\"{lane}\"")), "{lane}");
        }
    }

    #[test]
    fn chrome_output_handles_an_empty_run() {
        let text = chrome_trace_json(&[]);
        assert_balanced(&text);
        assert!(text.contains("traceEvents"));
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let events = sample();
        let mut bytes = Vec::new();
        JsonlSink.write_events(&events, &mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert_balanced(line);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[2].contains("\"event\":\"line_buffer_hit\""));
    }

    #[test]
    fn null_sink_writes_nothing() {
        let mut bytes = Vec::new();
        NullSink.write_events(&sample(), &mut bytes).unwrap();
        assert!(bytes.is_empty());
    }
}
