//! Spans recorded by the benchmark around its own calls into the
//! simulator's layers.
//!
//! Nothing inside the simulator is instrumented: every span wraps one
//! call the benchmark makes into a layer's public API (`isa.emu`,
//! `exec.cache`, ...). Spans nest through a per-thread "current span",
//! and a span that fans work out to worker threads hands its id to them
//! with [`Tracer::adopt`], so every span knows the span that caused it.
//!
//! A disabled tracer (the untraced run) records nothing and costs one
//! branch per call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer called, e.g. `"exec.cache"`.
    pub layer: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// The span that made this call, if any.
    pub parent: Option<usize>,
    /// Threads this span keeps busy: 1, or the worker count of a span
    /// that fans its work out (see [`Tracer::fan_out`]).
    pub lanes: u32,
}

impl Span {
    /// Wall seconds between start and end.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder, shared by reference across worker threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records every span.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `call` inside a span charged to `layer`.
    pub fn span<R>(&self, layer: &'static str, call: impl FnOnce() -> R) -> R {
        self.fan_out(layer, 1, |_| call())
    }

    /// Run `call` inside a span that keeps `lanes` threads busy; `call`
    /// receives the span's id for [`Tracer::adopt`] on the worker
    /// threads (`None` when the tracer is off).
    pub fn fan_out<R>(
        &self,
        layer: &'static str,
        lanes: u32,
        call: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return call(None);
        }
        let parent = CURRENT.with(Cell::get);
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                layer,
                start,
                end: start,
                parent,
                lanes: lanes.max(1),
            });
            spans.len() - 1
        };
        CURRENT.with(|current| current.set(Some(id)));
        let result = call(Some(id));
        CURRENT.with(|current| current.set(parent));
        let end = self.now();
        self.spans.lock().expect("span list lock poisoned")[id].end = end;
        result
    }

    /// Run `call` on this (worker) thread with `parent` as the open span,
    /// so spans it records name `parent` as their cause.
    pub fn adopt<R>(&self, parent: Option<usize>, call: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return call();
        }
        let saved = CURRENT.with(|current| current.replace(parent));
        let result = call();
        CURRENT.with(|current| current.set(saved));
        result
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// `true` when no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every recorded span, in start order per thread.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Self time per layer in thread-seconds: each span's `lanes ×
/// duration` minus the durations of the spans it caused (on any thread),
/// floored at zero. For a fan-out span that leaves the worker-seconds
/// its workers spent outside their own spans — idle time and the
/// scheduler's overhead.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.duration();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, covered) in spans.iter().zip(children) {
        let own = (f64::from(span.lanes) * span.duration() - covered).max(0.0);
        *by_layer.entry(span.layer).or_insert(0.0) += own;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        let value = tracer.span("isa.emu", || tracer.span("isa.cper", || 7));
        assert_eq!(value, 7);
        assert!(tracer.is_empty());
    }

    #[test]
    fn nested_spans_name_their_parent_and_self_time_excludes_children() {
        let tracer = Tracer::on();
        tracer.span("exec.sweep", || {
            tracer.span("exec.cache", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_seconds(&spans);
        assert!(own["exec.cache"] >= 0.004);
        assert!(own["exec.sweep"] < own["exec.cache"]);
    }

    #[test]
    fn adopted_worker_spans_point_at_the_fan_out_span() {
        let tracer = Tracer::on();
        tracer.fan_out("exec.scheduler", 2, |id| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let tracer = &tracer;
                    scope.spawn(move || tracer.adopt(id, || tracer.span("core.simulator", || ())));
                }
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|span| span.parent == Some(0)));
        assert_eq!(spans[0].lanes, 2);
    }
}
