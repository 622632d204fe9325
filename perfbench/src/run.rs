//! One benchmark run: set-up, the timed loop, and the metrics of the
//! untraced (end-to-end) or traced (per-layer) run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::check::{Digests, Tally};
use crate::probes;
use crate::spans::{self_seconds, Tracer};
use crate::workloads::{Bench, Iteration, Kind, Params};

/// An untraced run sets up this many times before its timed loop.
pub const SETUP_MIN_REPEATS: usize = 3;

/// Share of each timed iteration's wall time spent setting up again
/// before the next iteration, outside any timed region. Host speed on a
/// shared virtual machine drifts over seconds, so a millisecond set-up
/// timed only at the start of a run samples one instant of that drift;
/// repeats spread across the run sample it the way the timed iterations
/// do. A set-up dearer than this share is not repeated.
pub const SETUP_SHARE: f64 = 0.02;

/// Upper limit on the set-ups between two iterations.
pub const SETUP_MAX_BETWEEN: usize = 100;

/// The layers spans are charged to, one `<layer>.self_s` metric each.
pub const LAYERS: [&str; 13] = [
    "isa.asm",
    "isa.emu",
    "workloads.os",
    "isa.cper",
    "cpu.core",
    "core.simulator",
    "mem.system",
    "core.json",
    "exec.render",
    "exec.cache",
    "exec.traces",
    "exec.scheduler",
    "exec.sweep",
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value: the end-to-end metrics of an untraced run, or
    /// the per-layer metrics of a traced one.
    pub values: BTreeMap<String, f64>,
    /// Workload-specific figures (see `report::workload_figures`).
    pub figures: BTreeMap<&'static str, f64>,
    /// Output checks.
    pub tally: Tally,
    /// Every digest the run computed.
    pub digests: Digests,
    /// Wall seconds of each timed iteration, in run order.
    pub walls: Vec<f64>,
}

/// Median of `values` (0 for none).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}

/// `numerator / denominator`, or 0 when the denominator is not positive.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The end-to-end run, tracing off: [`SETUP_MIN_REPEATS`] set-ups, then
/// timed iterations until `seconds` have passed, with more set-ups
/// between them (see [`SETUP_SHARE`]). `setup_s` is the median of every
/// set-up in the run.
pub fn untraced(kind: Kind, params: &Params, seed: u64, seconds: f64) -> Outcome {
    let tracer = Tracer::off();
    let mut outcome = Outcome::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut set_up = |setups: &mut Vec<f64>| {
        let started = Instant::now();
        let bench = Bench::setup(kind, params, seed, &tracer);
        setups.push(started.elapsed().as_secs_f64());
        outcome.tally.merge(bench.setup_tally);
        bench
    };
    let mut bench = set_up(&mut setups);
    for _ in 1..SETUP_MIN_REPEATS {
        bench = set_up(&mut setups);
    }
    let mut iterations = Vec::new();
    let started = Instant::now();
    loop {
        let iteration = bench.run_once(&tracer);
        iterations.push(iteration);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let between = (SETUP_SHARE * iteration.wall / median(setups.clone())) as usize;
        for _ in 0..between.min(SETUP_MAX_BETWEEN) {
            set_up(&mut setups);
        }
    }
    assert!(tracer.is_empty(), "the untraced run must record no spans");

    for iteration in &iterations {
        outcome.tally.merge(iteration.tally);
    }
    let wall = median(iterations.iter().map(|it| it.wall).collect());
    let first = iterations[0];
    let values = &mut outcome.values;
    values.insert("setup_s".to_string(), median(setups));
    values.insert("wall_s".to_string(), wall);
    values.insert("cells_per_s".to_string(), ratio(first.cells as f64, wall));
    values.insert(
        "minst_per_s".to_string(),
        ratio(first.insts as f64, wall) / 1e6,
    );
    let rss = cpe_core::peak_rss_bytes();
    outcome.tally.record(rss.is_some());
    values.insert("peak_rss_mb".to_string(), rss.unwrap_or(0) as f64 / 1e6);
    values.insert(
        "ok_frac".to_string(),
        1.0 - ratio(outcome.tally.failed as f64, outcome.tally.attempted as f64),
    );
    outcome.figures = figures(kind, &iterations, wall, &outcome.tally, &bench.digests);
    outcome.walls = iterations.iter().map(|it| it.wall).collect();
    outcome.digests = std::mem::take(&mut bench.digests);
    outcome
}

/// The workload-specific figures of an untraced run.
fn figures(
    kind: Kind,
    iterations: &[Iteration],
    wall: f64,
    tally: &Tally,
    digests: &Digests,
) -> BTreeMap<&'static str, f64> {
    let sum = |field: fn(&Iteration) -> u64| iterations.iter().map(field).sum::<u64>() as f64;
    let mut figures = BTreeMap::new();
    figures.insert(
        "failed_frac",
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    match kind {
        Kind::TraceRecord => {
            figures.insert(
                "trace_bytes_per_record",
                ratio(sum(|it| it.trace_bytes), sum(|it| it.insts)),
            );
        }
        Kind::HeadlineFull | Kind::ResweepCached => {
            figures.insert(
                "sim_mcyc_per_s",
                ratio(iterations[0].cycles as f64, wall) / 1e6,
            );
            figures.insert(
                "cache_hit_rate",
                ratio(sum(|it| it.hits), sum(|it| it.through_cache)),
            );
            for (figure, key) in [
                ("headline_combined_pct", "headline/combined_pct"),
                ("headline_naive_pct", "headline/naive_pct"),
            ] {
                let value = digests.get(key).and_then(|v| v.parse().ok());
                figures.insert(figure, value.unwrap_or(0.0));
            }
        }
    }
    figures
}

/// The per-layer run: one set-up, then untraced and traced iterations
/// alternately until `seconds` have passed, then the layer probes.
///
/// The workload's iterations give `trace_overhead_pct` only. Self times
/// and `trace.spans` come from the probe pass alone, which calls every
/// layer's public API on the same inputs on every workload and seed, so
/// they do not grow with the number of iterations that fit in `seconds`.
pub fn traced(kind: Kind, params: &Params, seed: u64, seconds: f64) -> Outcome {
    let tracer = Tracer::on();
    let quiet = Tracer::off();
    let mut outcome = Outcome::default();
    let mut bench = Bench::setup(kind, params, seed, &quiet);
    outcome.tally.merge(bench.setup_tally);

    let mut plain = Vec::new();
    let mut with_spans = Vec::new();
    let started = Instant::now();
    while plain.is_empty() || started.elapsed().as_secs_f64() < seconds {
        plain.push(bench.run_once(&quiet));
        with_spans.push(bench.run_once(&tracer));
    }
    assert!(
        quiet.is_empty(),
        "the untraced iterations must record no spans"
    );
    for iteration in plain.iter().chain(&with_spans) {
        outcome.tally.merge(iteration.tally);
    }
    outcome.walls = plain.iter().chain(&with_spans).map(|it| it.wall).collect();
    let plain_wall = median(plain.iter().map(|it| it.wall).collect());
    let traced_wall = median(with_spans.iter().map(|it| it.wall).collect());

    let probe_tracer = Tracer::on();
    let probed = probes::run(params, &probe_tracer);
    outcome.tally.merge(probed.tally);
    outcome.values = probed.values;
    let spans = probe_tracer.spans();
    let own = self_seconds(&spans);
    for layer in LAYERS {
        outcome.values.insert(
            format!("{layer}.self_s"),
            own.get(layer).copied().unwrap_or(0.0),
        );
    }
    outcome.values.insert(
        "trace_overhead_pct".to_string(),
        100.0 * (ratio(traced_wall, plain_wall) - 1.0),
    );
    outcome
        .values
        .insert("trace.spans".to_string(), spans.len() as f64);
    outcome.digests = std::mem::take(&mut bench.digests);
    outcome.digests.extend(probed.digests);
    outcome
}
