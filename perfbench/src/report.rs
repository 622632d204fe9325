//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metrics the command prints;
//! a test keeps them equal to `BENCHMARK.json`'s lists. The end-to-end
//! metric and workload each per-layer metric is expected to move are in
//! `README.md`, since `BENCHMARK.json` has no field for them.

use std::collections::BTreeMap;

use crate::workloads::Kind;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("cells_per_s", "1/s", "higher", 0.25),
    e2e("minst_per_s", "Minst/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("ok_frac", "frac", "higher", 0.01),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    layer("isa.asm.ms", "ms", "lower"),
    layer("isa.asm.text_insts", "count", "lower"),
    layer("isa.asm.self_s", "s", "lower"),
    layer("isa.emu.minst_per_s", "Minst/s", "higher"),
    layer("isa.emu.insts", "count", "lower"),
    layer("isa.emu.self_s", "s", "lower"),
    layer("workloads.os.minst_per_s", "Minst/s", "higher"),
    layer("workloads.os.injected_insts", "count", "lower"),
    layer("workloads.os.self_s", "s", "lower"),
    layer("isa.cper.encode_mrec_per_s", "Mrec/s", "higher"),
    layer("isa.cper.write_mb_per_s", "MB/s", "higher"),
    layer("isa.cper.decode_mrec_per_s", "Mrec/s", "higher"),
    layer("isa.cper.iter_mrec_per_s", "Mrec/s", "higher"),
    layer("isa.cper.bytes_per_record", "B/record", "lower"),
    layer("isa.cper.records", "count", "lower"),
    layer("isa.cper.bytes", "B", "lower"),
    layer("isa.cper.self_s", "s", "lower"),
    layer("cpu.core.mcyc_per_s", "Mcyc/s", "higher"),
    layer("cpu.core.minst_per_s", "Minst/s", "higher"),
    layer("cpu.core.cycles", "count", "lower"),
    layer("cpu.core.insts", "count", "lower"),
    layer("cpu.core.ns_per_cycle", "ns/cycle", "lower"),
    layer("cpu.core.sched_events_peak", "count", "lower"),
    layer("cpu.core.self_s", "s", "lower"),
    layer("core.simulator.mcyc_per_s", "Mcyc/s", "higher"),
    layer("core.simulator.minst_per_s", "Minst/s", "higher"),
    layer("core.simulator.cycles", "count", "lower"),
    layer("core.simulator.insts", "count", "lower"),
    layer("core.simulator.ns_per_cycle", "ns/cycle", "lower"),
    layer("core.simulator.sched_events_peak", "count", "lower"),
    layer("core.simulator.mem_refs_per_cycle", "ref/cycle", "higher"),
    layer("core.simulator.self_s", "s", "lower"),
    layer("mem.system.maccess_per_s", "Maccess/s", "higher"),
    layer("mem.system.ns_per_access", "ns/access", "lower"),
    layer("mem.system.accesses", "count", "lower"),
    layer("mem.system.cycles", "count", "lower"),
    layer("mem.system.port_slots", "count", "lower"),
    layer("mem.system.retry_ratio", "frac", "lower"),
    layer("mem.system.port_util", "frac", "higher"),
    layer("mem.system.refs_per_cycle", "ref/cycle", "higher"),
    layer("mem.system.self_s", "s", "lower"),
    layer("core.json.render_mb_per_s", "MB/s", "higher"),
    layer("core.json.doc_kb", "KB", "lower"),
    layer("core.json.self_s", "s", "lower"),
    layer("exec.render.parse_mb_per_s", "MB/s", "higher"),
    layer("exec.render.self_s", "s", "lower"),
    layer("exec.cache.lookup_ms_p50", "ms", "lower"),
    layer("exec.cache.store_ms_p50", "ms", "lower"),
    layer("exec.cache.bytes", "B", "lower"),
    layer("exec.cache.self_s", "s", "lower"),
    layer("exec.traces.record_s", "s", "lower"),
    layer("exec.traces.records", "count", "lower"),
    layer("exec.traces.self_s", "s", "lower"),
    layer("exec.scheduler.worker_util", "frac", "higher"),
    layer("exec.scheduler.steals", "count", "lower"),
    layer("exec.scheduler.self_s", "s", "lower"),
    layer("exec.sweep.aggregate_ms", "ms", "lower"),
    layer("exec.sweep.cells", "count", "lower"),
    layer("exec.sweep.self_s", "s", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// Workload-specific figures printed beside the result line (not in
/// `BENCHMARK.json`, whose metrics every workload must report).
pub fn workload_figures(kind: Kind) -> &'static [(&'static str, &'static str)] {
    match kind {
        Kind::HeadlineFull => &[
            ("sim_mcyc_per_s", "Mcyc/s"),
            ("headline_combined_pct", "%"),
            ("headline_naive_pct", "%"),
            ("cache_hit_rate", "frac"),
            ("failed_frac", "frac"),
        ],
        Kind::TraceRecord => &[
            ("trace_bytes_per_record", "B/record"),
            ("failed_frac", "frac"),
        ],
        Kind::ResweepCached => &[
            ("sim_mcyc_per_s", "Mcyc/s"),
            ("headline_combined_pct", "%"),
            ("headline_naive_pct", "%"),
            ("cache_hit_rate", "frac"),
            ("failed_frac", "frac"),
        ],
    }
}

/// `true` when `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with exactly the metrics of `defs`, in their order.
///
/// # Errors
///
/// Names a metric missing from `values`, one `values` has beyond `defs`,
/// or a value that is not a finite number.
pub fn result_line(
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|key| !defs.iter().any(|d| d.name == *key))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = *values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", def.name));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            def.name,
            number(value),
            def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(",")
    ))
}

/// A finite number as JSON, every digit kept.
fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_holds_exactly_the_declared_metrics() {
        let defs = &END_TO_END[..2];
        let mut values = BTreeMap::new();
        values.insert("setup_s".to_string(), 0.5);
        assert!(result_line(1, 0, defs, &values)
            .unwrap_err()
            .contains("wall_s"));
        values.insert("wall_s".to_string(), 2.25);
        let line = result_line(3, 0, defs, &values).expect("complete");
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"wall_s\":{\"value\":2.25,\"unit\":\"s\"}}}"
        );
        values.insert("bogus".to_string(), 1.0);
        assert!(result_line(3, 0, defs, &values).is_err());
        values.remove("bogus");
        values.insert("wall_s".to_string(), f64::NAN);
        assert!(result_line(3, 0, defs, &values).is_err());
    }

    #[test]
    fn a_failure_makes_the_result_incorrect() {
        let mut values = BTreeMap::new();
        values.insert("setup_s".to_string(), 0.5);
        let line = result_line(3, 1, &END_TO_END[..1], &values).expect("complete");
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
    }
}
