//! Host-performance benchmarking of the simulator itself.
//!
//! [`BenchReport::run`] drives every standard workload through one
//! configuration, timing the host-side cost of each: wall seconds,
//! simulated cycles per host second, and (on Linux) the process's peak
//! resident set. The JSON form is written as `BENCH_<name>.json` by
//! `cpe bench` and compared across commits with `cpe diff` — the
//! simulated counters (cycles, instructions, IPC) are deterministic, so
//! any drift there is a correctness regression, while wall-time drift
//! beyond the chosen tolerance is a performance regression.

use std::fmt;
use std::time::Instant;

use cpe_stats::Table;
use cpe_workloads::{Scale, Workload};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::json::METRICS_SCHEMA;
use crate::scheduler::run_work_stealing;
use crate::simulator::Simulator;

/// One workload's measurements.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Workload name.
    pub workload: String,
    /// Simulated cycles (deterministic for a given config and workload).
    pub cycles: u64,
    /// Committed instructions (deterministic).
    pub insts: u64,
    /// Committed IPC (deterministic).
    pub ipc: f64,
    /// Host wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Simulated cycles per host second.
    pub cycles_per_sec: f64,
    /// Committed instructions per host second. Tracks the wakeup half of
    /// the scheduler (dispatch/commit throughput), where `cycles_per_sec`
    /// tracks the select half — a regression in one but not the other
    /// localizes the cause.
    pub insts_per_sec: f64,
    /// High-water mark of the scheduler's completion-event queue.
    pub sched_events_peak: u64,
}

/// The full benchmark report for one configuration.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report label (defaults to the config name at the CLI).
    pub name: String,
    /// Configuration name the suite ran on.
    pub config: String,
    /// Measured-instruction cap per workload.
    pub max_insts: u64,
    /// One entry per workload, in [`Workload::ALL`] order.
    pub entries: Vec<BenchEntry>,
    /// Wall seconds across the whole suite.
    pub total_wall_seconds: f64,
    /// Simulated cycles across the whole suite.
    pub total_cycles: u64,
    /// Committed instructions across the whole suite.
    pub total_insts: u64,
    /// Aggregate simulated cycles per host second.
    pub cycles_per_sec: f64,
    /// Aggregate committed instructions per host second.
    pub insts_per_sec: f64,
    /// Largest per-workload completion-event-queue high-water mark.
    pub sched_events_peak: u64,
    /// Peak resident set in bytes (`None` where /proc is unavailable).
    pub peak_rss_bytes: Option<u64>,
}

/// The process's peak resident set (VmHWM) in bytes, from
/// `/proc/self/status`. `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

impl BenchReport {
    /// Run the standard suite ([`Workload::ALL`] at test scale, up to
    /// `max_insts` measured instructions each) under `config`, spread
    /// across `workers` threads (1 runs the suite in order on the
    /// calling thread; 0 uses every core).
    ///
    /// Each workload's wall time is measured on the thread that ran it,
    /// and the totals are the *sum* of those times — the suite's cost in
    /// CPU terms, comparable across worker counts — not the elapsed wall
    /// of the batch. The simulated counters do not depend on `workers`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] up front for an invalid `config`; otherwise
    /// the first failing workload's error in suite order, such as
    /// [`SimError::Watchdog`] when a pipeline stops making progress.
    pub fn run(
        name: &str,
        config: &SimConfig,
        max_insts: u64,
        workers: usize,
    ) -> Result<BenchReport, SimError> {
        config.validate()?;
        let (results, _) = run_work_stealing(&Workload::ALL, workers, |_, &workload| {
            let sim = Simulator::new(config.clone());
            let started = Instant::now();
            let summary = sim.try_run(workload, Scale::Test, Some(max_insts))?;
            let wall = started.elapsed().as_secs_f64();
            Ok::<BenchEntry, SimError>(BenchEntry {
                workload: workload.name().to_string(),
                cycles: summary.cycles,
                insts: summary.insts,
                ipc: summary.ipc,
                wall_seconds: wall,
                cycles_per_sec: if wall > 0.0 {
                    summary.cycles as f64 / wall
                } else {
                    0.0
                },
                insts_per_sec: if wall > 0.0 {
                    summary.insts as f64 / wall
                } else {
                    0.0
                },
                sched_events_peak: summary.raw.cpu.sched_events_peak.get(),
            })
        });
        let entries = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        let total_wall = entries.iter().map(|e| e.wall_seconds).sum();
        Ok(BenchReport::assemble(
            name,
            &config.name,
            max_insts,
            entries,
            total_wall,
        ))
    }

    /// Fold per-workload entries into a report with suite totals.
    fn assemble(
        name: &str,
        config: &str,
        max_insts: u64,
        entries: Vec<BenchEntry>,
        total_wall: f64,
    ) -> BenchReport {
        let total_cycles: u64 = entries.iter().map(|e| e.cycles).sum();
        let total_insts: u64 = entries.iter().map(|e| e.insts).sum();
        let sched_events_peak = entries
            .iter()
            .map(|e| e.sched_events_peak)
            .max()
            .unwrap_or(0);
        BenchReport {
            name: name.to_string(),
            config: config.to_string(),
            max_insts,
            entries,
            total_wall_seconds: total_wall,
            total_cycles,
            total_insts,
            cycles_per_sec: if total_wall > 0.0 {
                total_cycles as f64 / total_wall
            } else {
                0.0
            },
            insts_per_sec: if total_wall > 0.0 {
                total_insts as f64 / total_wall
            } else {
                0.0
            },
            sched_events_peak,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }

    /// The report as a self-describing JSON document (the `BENCH_*.json`
    /// artifact).
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "\"{}\":{{\"cycles\":{},\"insts\":{},\"ipc\":{},\"wall_seconds\":{},\
                     \"cycles_per_sec\":{},\"insts_per_sec\":{},\"sched_events_peak\":{}}}",
                    crate::json::escape(&e.workload),
                    e.cycles,
                    e.insts,
                    crate::json::num(e.ipc),
                    crate::json::num(e.wall_seconds),
                    crate::json::num(e.cycles_per_sec),
                    crate::json::num(e.insts_per_sec),
                    e.sched_events_peak
                )
            })
            .collect();
        let rss = match self.peak_rss_bytes {
            Some(bytes) => bytes.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"schema\":{},\"kind\":\"bench\",\"name\":\"{}\",\"config\":\"{}\",\
             \"max_insts\":{},\"total\":{{\"wall_seconds\":{},\"cycles\":{},\"insts\":{},\
             \"cycles_per_sec\":{},\"insts_per_sec\":{},\"sched_events_peak\":{},\
             \"peak_rss_bytes\":{}}},\"workloads\":{{{}}}}}",
            METRICS_SCHEMA,
            crate::json::escape(&self.name),
            crate::json::escape(&self.config),
            self.max_insts,
            crate::json::num(self.total_wall_seconds),
            self.total_cycles,
            self.total_insts,
            crate::json::num(self.cycles_per_sec),
            crate::json::num(self.insts_per_sec),
            self.sched_events_peak,
            rss,
            entries.join(",")
        )
    }
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = Table::new([
            "workload", "cycles", "insts", "IPC", "wall s", "Mcyc/s", "Minst/s", "evq peak",
        ]);
        for e in &self.entries {
            table.row([
                e.workload.clone(),
                e.cycles.to_string(),
                e.insts.to_string(),
                format!("{:.3}", e.ipc),
                format!("{:.3}", e.wall_seconds),
                format!("{:.2}", e.cycles_per_sec / 1.0e6),
                format!("{:.2}", e.insts_per_sec / 1.0e6),
                e.sched_events_peak.to_string(),
            ]);
        }
        writeln!(f, "bench `{}` on `{}`:", self.name, self.config)?;
        write!(f, "{table}")?;
        let rss = match self.peak_rss_bytes {
            Some(bytes) => format!(", peak RSS {:.1} MiB", bytes as f64 / (1024.0 * 1024.0)),
            None => String::new(),
        };
        write!(
            f,
            "total: {:.3}s wall, {} cycles, {:.2} Mcyc/s{rss}",
            self.total_wall_seconds,
            self.total_cycles,
            self.cycles_per_sec / 1.0e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff_json, parse_json};

    #[test]
    fn bench_covers_the_suite_and_exports_sound_json() {
        let report =
            BenchReport::run("smoke", &SimConfig::combined_single_port(), 1_000, 1).expect("runs");
        assert_eq!(report.entries.len(), Workload::ALL.len());
        assert!(report.total_cycles > 0);
        assert!(report.total_wall_seconds >= 0.0);
        for entry in &report.entries {
            assert!(entry.cycles > 0, "{}", entry.workload);
            assert!(entry.insts > 0, "{}", entry.workload);
        }

        let json = report.to_json();
        parse_json(&json).expect("bench json parses");
        assert!(json.contains("\"kind\":\"bench\""), "{json}");
        assert!(json.contains("\"compress\":{"), "{json}");
        assert!(json.contains("\"wall_seconds\":"), "{json}");
        assert!(json.contains("\"cycles_per_sec\":"), "{json}");
        assert!(json.contains("\"insts_per_sec\":"), "{json}");
        assert!(json.contains("\"sched_events_peak\":"), "{json}");
        assert!(report.sched_events_peak > 0, "events queue saw traffic");
        // Self-diff at zero tolerance: the gate's base case.
        assert!(diff_json(&json, &json, 0.0).unwrap().is_clean());
    }

    #[test]
    fn simulated_counters_are_deterministic_across_bench_runs() {
        let a = BenchReport::run("a", &SimConfig::dual_port(), 500, 1).expect("runs");
        let b = BenchReport::run("a", &SimConfig::dual_port(), 500, 1).expect("runs");
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.cycles, y.cycles, "{}", x.workload);
            assert_eq!(x.insts, y.insts, "{}", x.workload);
        }
    }

    #[test]
    fn parallel_bench_matches_serial_simulated_counters() {
        let config = SimConfig::dual_port();
        let serial = BenchReport::run("b", &config, 1_000, 1).expect("serial bench runs");
        let parallel = BenchReport::run("b", &config, 1_000, 2).expect("parallel bench runs");
        assert_eq!(serial.entries.len(), parallel.entries.len());
        for (a, b) in serial.entries.iter().zip(&parallel.entries) {
            assert_eq!(a.workload, b.workload, "suite order is preserved");
            assert_eq!(a.cycles, b.cycles, "{}", a.workload);
            assert_eq!(a.insts, b.insts, "{}", a.workload);
            assert_eq!(a.sched_events_peak, b.sched_events_peak, "{}", a.workload);
        }
        assert_eq!(serial.total_cycles, parallel.total_cycles);
        assert_eq!(serial.total_insts, parallel.total_insts);
    }

    #[test]
    fn parallel_bench_rejects_invalid_configs_up_front() {
        let bad = SimConfig::dual_port().with_ports(0);
        for workers in [1, 2] {
            let error = BenchReport::run("b", &bad, 1_000, workers).expect_err("zero ports");
            assert_eq!(error.kind(), "config", "{workers} worker(s)");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_reads_procfs() {
        let rss = peak_rss_bytes().expect("procfs present on Linux");
        assert!(rss > 1024 * 1024, "a test process uses more than 1 MiB");
    }
}
