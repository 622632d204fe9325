//! Sweep runner: configurations × workloads → result tables.
//!
//! A sweep is only as useful as its worst cell: one inconsistent
//! configuration, one livelocked design point or one panicking worker
//! must not cost the other N−1 results. Every cell therefore runs behind
//! [`std::panic::catch_unwind`], failures land in the row as a typed
//! [`SimError`], and the tables print `FAILED(<kind>)` where a number
//! would have been.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use cpe_stats::{geometric_mean, Table};
use cpe_workloads::{Scale, Workload};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::RunSummary;
use crate::scheduler::run_work_stealing;
use crate::simulator::Simulator;

/// One cell of an experiment: a configuration run on a workload.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Index of the configuration in the experiment's list.
    pub config_index: usize,
    /// The workload.
    pub workload: Workload,
    /// The run's metrics, or the typed failure that replaced them.
    pub outcome: Result<RunSummary, SimError>,
}

impl ResultRow {
    /// The run's metrics, when the cell completed.
    pub fn summary(&self) -> Option<&RunSummary> {
        self.outcome.as_ref().ok()
    }
}

/// How one cell of the sweep is executed — injectable so tests can model
/// panicking or livelocking cells without constructing one for real.
type CellRunner<'a> =
    &'a (dyn Fn(&SimConfig, Workload, Scale, Option<u64>) -> Result<RunSummary, SimError> + Sync);

/// A (configurations × workloads) sweep.
///
/// Every run is capped at the same committed-instruction window so
/// configurations are compared over identical work.
///
/// ```no_run
/// use cpe_core::{Experiment, SimConfig};
/// use cpe_workloads::{Scale, Workload};
///
/// let results = Experiment::new(Scale::Small, Some(200_000))
///     .config(SimConfig::naive_single_port())
///     .config(SimConfig::dual_port())
///     .workloads(&Workload::ALL)
///     .run();
/// println!("{}", results.ipc_table());
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    scale: Scale,
    max_insts: Option<u64>,
    configs: Vec<SimConfig>,
    workloads: Vec<Workload>,
}

impl Experiment {
    /// An empty experiment at the given scale and instruction window.
    pub fn new(scale: Scale, max_insts: Option<u64>) -> Experiment {
        Experiment {
            scale,
            max_insts,
            configs: Vec::new(),
            workloads: Vec::new(),
        }
    }

    /// Add one configuration.
    pub fn config(mut self, config: SimConfig) -> Experiment {
        self.configs.push(config);
        self
    }

    /// Add several configurations.
    pub fn configs<I: IntoIterator<Item = SimConfig>>(mut self, configs: I) -> Experiment {
        self.configs.extend(configs);
        self
    }

    /// Add workloads.
    pub fn workloads(mut self, workloads: &[Workload]) -> Experiment {
        self.workloads.extend_from_slice(workloads);
        self
    }

    /// Run the full sweep, one cell at a time in (workload-major,
    /// configuration) order. Progress is reported through `progress`
    /// (workload, config name) before each run.
    ///
    /// Each cell is isolated: an invalid configuration, a watchdog abort
    /// or a panic marks that cell failed and the sweep continues.
    pub fn run_with_progress(
        &self,
        progress: impl FnMut(Workload, &str) + Send,
    ) -> ExperimentResults {
        self.run_with_runner(&Experiment::run_cell, 1, progress)
    }

    /// Run the full sweep silently.
    pub fn run(&self) -> ExperimentResults {
        self.run_with_progress(|_, _| {})
    }

    /// Run the sweep across `threads` worker threads (each run is
    /// independent and deterministic, so results are identical to
    /// [`Experiment::run`] — only wall-clock changes). `threads = 0`
    /// uses the machine's available parallelism.
    pub fn run_parallel(&self, threads: usize) -> ExperimentResults {
        self.run_with_runner(&Experiment::run_cell, threads, |_, _| {})
    }

    /// Validate every configuration exactly once, before any cell runs.
    /// A config used by W workloads used to be validated W times, once
    /// per cell; now its cells share one verdict, and the invalid ones
    /// fail up front without ever reaching a runner.
    fn prevalidate(&self) -> Vec<Option<SimError>> {
        self.configs
            .iter()
            .map(|config| config.validate().err().map(SimError::from))
            .collect()
    }

    /// Run every cell on the work-stealing scheduler. Rows come back in
    /// the canonical (workload-major, config) order for any worker count,
    /// and at one worker the cells — and so the `progress` calls — run in
    /// that order on the calling thread.
    fn run_with_runner(
        &self,
        runner: CellRunner<'_>,
        workers: usize,
        progress: impl FnMut(Workload, &str) + Send,
    ) -> ExperimentResults {
        assert!(!self.configs.is_empty(), "add at least one configuration");
        assert!(!self.workloads.is_empty(), "add at least one workload");
        let prechecked = self.prevalidate();
        let cells: Vec<(Workload, usize)> = self
            .workloads
            .iter()
            .flat_map(|&workload| (0..self.configs.len()).map(move |index| (workload, index)))
            .collect();
        let progress = Mutex::new(progress);
        let (rows, _) = run_work_stealing(&cells, workers, |_, &(workload, config_index)| {
            let config = &self.configs[config_index];
            (progress.lock().expect("progress lock"))(workload, &config.name);
            let outcome = match &prechecked[config_index] {
                Some(error) => Err(error.clone()),
                None => isolate(|| runner(config, workload, self.scale, self.max_insts)),
            };
            ResultRow {
                config_index,
                workload,
                outcome,
            }
        });
        ExperimentResults {
            configs: self.configs.clone(),
            workloads: self.workloads.clone(),
            rows,
        }
    }

    /// The production cell runner: typed validation, then the run, with
    /// one bounded retry at half the instruction window when the
    /// watchdog aborts — a livelock late in a long window can still
    /// yield a usable (if shorter) measurement.
    fn run_cell(
        config: &SimConfig,
        workload: Workload,
        scale: Scale,
        max_insts: Option<u64>,
    ) -> Result<RunSummary, SimError> {
        let simulator = Simulator::try_new(config.clone())?;
        match simulator.try_run(workload, scale, max_insts) {
            Err(SimError::Watchdog(report)) => {
                let Some(window) = max_insts.filter(|&n| n >= 2) else {
                    return Err(SimError::Watchdog(report));
                };
                simulator.try_run(workload, scale, Some(window / 2))
            }
            outcome => outcome,
        }
    }
}

/// Run one cell behind a panic boundary, converting an unwind into the
/// typed failure the row stores.
fn isolate(run: impl FnOnce() -> Result<RunSummary, SimError>) -> Result<RunSummary, SimError> {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(SimError::WorkerPanic { message })
        }
    }
}

/// The completed sweep, with table builders.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    configs: Vec<SimConfig>,
    workloads: Vec<Workload>,
    rows: Vec<ResultRow>,
}

impl ExperimentResults {
    /// All rows, in (workload-major, configuration) order.
    pub fn rows(&self) -> &[ResultRow] {
        &self.rows
    }

    /// The configurations swept.
    pub fn configs(&self) -> &[SimConfig] {
        &self.configs
    }

    /// The completed cell for (workload, config index), if it ran and
    /// succeeded.
    pub fn cell(&self, workload: Workload, config_index: usize) -> Option<&RunSummary> {
        self.row(workload, config_index)
            .and_then(ResultRow::summary)
    }

    /// The failure for (workload, config index), if that cell failed.
    pub fn failure(&self, workload: Workload, config_index: usize) -> Option<&SimError> {
        self.row(workload, config_index)
            .and_then(|row| row.outcome.as_ref().err())
    }

    /// Every failed cell as (workload, configuration name, error).
    pub fn failures(&self) -> Vec<(Workload, &str, &SimError)> {
        self.rows
            .iter()
            .filter_map(|row| {
                let error = row.outcome.as_ref().err()?;
                Some((
                    row.workload,
                    self.configs[row.config_index].name.as_str(),
                    error,
                ))
            })
            .collect()
    }

    fn row(&self, workload: Workload, config_index: usize) -> Option<&ResultRow> {
        self.rows
            .iter()
            .find(|row| row.workload == workload && row.config_index == config_index)
    }

    /// Render one table cell: the metric, `FAILED(<kind>)`, or `-` when
    /// the grid has no such cell at all.
    fn cell_text(
        &self,
        workload: Workload,
        config_index: usize,
        metric: impl Fn(&RunSummary) -> String,
    ) -> String {
        match self.row(workload, config_index) {
            Some(row) => match &row.outcome {
                Ok(summary) => metric(summary),
                Err(error) => format!("FAILED({})", error.kind()),
            },
            None => "-".to_string(),
        }
    }

    /// Geometric-mean IPC across workloads for one configuration; failed
    /// cells are excluded (the table marks them, the mean covers what
    /// ran).
    pub fn geomean_ipc(&self, config_index: usize) -> f64 {
        geometric_mean(
            self.rows
                .iter()
                .filter(|row| row.config_index == config_index)
                .filter_map(|row| row.summary().map(|summary| summary.ipc)),
        )
        .unwrap_or(0.0)
    }

    /// Geometric-mean IPC relative to a reference configuration.
    pub fn geomean_relative(&self, config_index: usize, reference_index: usize) -> f64 {
        geometric_mean(self.workloads.iter().filter_map(|&workload| {
            let this = self.cell(workload, config_index)?;
            let reference = self.cell(workload, reference_index)?;
            Some(this.relative_ipc(reference))
        }))
        .unwrap_or(0.0)
    }

    /// IPC per workload per configuration, plus a geomean row.
    pub fn ipc_table(&self) -> Table {
        let mut header = vec!["workload".to_string()];
        header.extend(self.configs.iter().map(|c| c.name.clone()));
        let mut table = Table::new(header);
        for &workload in &self.workloads {
            let mut row = vec![workload.name().to_string()];
            for index in 0..self.configs.len() {
                row.push(self.cell_text(workload, index, |summary| format!("{:.3}", summary.ipc)));
            }
            table.row(row);
        }
        let mut geo = vec!["geomean".to_string()];
        for index in 0..self.configs.len() {
            geo.push(format!("{:.3}", self.geomean_ipc(index)));
        }
        table.row(geo);
        table
    }

    /// IPC normalised to a reference configuration, plus a geomean row.
    pub fn relative_table(&self, reference_index: usize) -> Table {
        let mut header = vec!["workload".to_string()];
        header.extend(self.configs.iter().map(|c| c.name.clone()));
        let mut table = Table::new(header);
        for &workload in &self.workloads {
            let mut row = vec![workload.name().to_string()];
            let reference = self.cell(workload, reference_index);
            for index in 0..self.configs.len() {
                row.push(self.cell_text(workload, index, |summary| match reference {
                    Some(reference) => format!("{:.3}", summary.relative_ipc(reference)),
                    None => "-".to_string(),
                }));
            }
            table.row(row);
        }
        let mut geo = vec!["geomean".to_string()];
        for index in 0..self.configs.len() {
            geo.push(format!(
                "{:.3}",
                self.geomean_relative(index, reference_index)
            ));
        }
        table.row(geo);
        table
    }

    /// An arbitrary metric per workload per configuration.
    pub fn metric_table(&self, name: &str, metric: impl Fn(&RunSummary) -> f64) -> Table {
        let mut header = vec![format!("workload ({name})")];
        header.extend(self.configs.iter().map(|c| c.name.clone()));
        let mut table = Table::new(header);
        for &workload in &self.workloads {
            let mut row = vec![workload.name().to_string()];
            for index in 0..self.configs.len() {
                row.push(
                    self.cell_text(workload, index, |summary| format!("{:.3}", metric(summary))),
                );
            }
            table.row(row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> ExperimentResults {
        Experiment::new(Scale::Test, Some(8_000))
            .config(SimConfig::naive_single_port())
            .config(SimConfig::dual_port())
            .workloads(&[Workload::Compress, Workload::Sort])
            .run()
    }

    #[test]
    fn sweep_covers_the_grid() {
        let results = tiny_experiment();
        assert_eq!(results.rows().len(), 4);
        for workload in [Workload::Compress, Workload::Sort] {
            for index in 0..2 {
                assert!(results.cell(workload, index).is_some());
            }
        }
        assert!(results.cell(Workload::Fft, 0).is_none());
    }

    #[test]
    fn tables_have_the_right_shape() {
        let results = tiny_experiment();
        let ipc = results.ipc_table();
        assert_eq!(ipc.len(), 3, "two workloads + geomean");
        let relative = results.relative_table(1);
        assert_eq!(relative.len(), 3);
        // The reference column normalises to 1.000.
        assert!(relative.to_csv().contains("1.000"));
        let util = results.metric_table("port util", |s| s.port_utilisation);
        assert_eq!(util.len(), 2);
    }

    #[test]
    fn geomeans_are_positive_and_ordered_sanely() {
        let results = tiny_experiment();
        let naive = results.geomean_ipc(0);
        let dual = results.geomean_ipc(1);
        assert!(naive > 0.0 && dual > 0.0);
        assert!(
            dual >= naive * 0.95,
            "dual-ported should not lose: {dual} vs {naive}"
        );
        let relative = results.geomean_relative(0, 1);
        assert!(relative <= 1.05, "naive relative to dual: {relative}");
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let experiment = Experiment::new(Scale::Test, Some(6_000))
            .config(SimConfig::naive_single_port())
            .config(SimConfig::dual_port())
            .workloads(&[Workload::Compress, Workload::Sort]);
        let serial = experiment.run();
        let parallel = experiment.run_parallel(2);
        assert_eq!(serial.rows().len(), parallel.rows().len());
        for (a, b) in serial.rows().iter().zip(parallel.rows()) {
            assert_eq!(a.config_index, b.config_index);
            assert_eq!(a.workload, b.workload);
            let (a, b) = (a.summary().unwrap(), b.summary().unwrap());
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.insts, b.insts);
        }
        assert_eq!(serial.ipc_table().to_csv(), parallel.ipc_table().to_csv());
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_experiment_is_an_error() {
        Experiment::new(Scale::Test, None)
            .workloads(&[Workload::Sort])
            .run();
    }

    #[test]
    fn poisoned_cell_fails_alone() {
        // The acceptance bar for fault-tolerant sweeps: one inconsistent
        // configuration marks its own cells FAILED while every healthy
        // cell matches a clean sweep bit-for-bit.
        let window = Some(6_000);
        let poisoned = Experiment::new(Scale::Test, window)
            .config(SimConfig::naive_single_port())
            .config(
                SimConfig::naive_single_port()
                    .with_ports(0)
                    .named("poisoned"),
            )
            .config(SimConfig::dual_port())
            .workloads(&[Workload::Compress, Workload::Sort])
            .run();
        let clean = Experiment::new(Scale::Test, window)
            .config(SimConfig::naive_single_port())
            .config(SimConfig::dual_port())
            .workloads(&[Workload::Compress, Workload::Sort])
            .run();
        for workload in [Workload::Compress, Workload::Sort] {
            let error = poisoned.failure(workload, 1).expect("poisoned cell fails");
            assert_eq!(error.kind(), "config");
            let naive = poisoned.cell(workload, 0).expect("healthy cell runs");
            let dual = poisoned.cell(workload, 2).expect("healthy cell runs");
            assert_eq!(naive.cycles, clean.cell(workload, 0).unwrap().cycles);
            assert_eq!(naive.insts, clean.cell(workload, 0).unwrap().insts);
            assert_eq!(dual.cycles, clean.cell(workload, 1).unwrap().cycles);
            assert_eq!(dual.insts, clean.cell(workload, 1).unwrap().insts);
        }
        assert_eq!(poisoned.failures().len(), 2);
        let csv = poisoned.ipc_table().to_csv();
        assert!(csv.contains("FAILED(config)"), "{csv}");
        // The geomean still covers the healthy columns.
        assert!(poisoned.geomean_ipc(0) > 0.0);
        assert_eq!(poisoned.geomean_ipc(1), 0.0);
    }

    #[test]
    fn invalid_configs_never_reach_a_runner() {
        // Validation is hoisted: an invalid config's cells fail up front
        // with the shared verdict, and the runner only ever sees valid
        // configs — serially and in parallel.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let experiment = Experiment::new(Scale::Test, Some(4_000))
            .config(SimConfig::naive_single_port())
            .config(SimConfig::dual_port().with_ports(0).named("broken"))
            .workloads(&[Workload::Compress, Workload::Sort]);
        let ran = AtomicUsize::new(0);
        let runner: CellRunner<'_> = &|config, workload, scale, max_insts| {
            assert_ne!(config.name, "broken", "invalid config reached a runner");
            ran.fetch_add(1, Ordering::Relaxed);
            Experiment::run_cell(config, workload, scale, max_insts)
        };
        for results in [
            experiment.run_with_runner(runner, 1, |_, _| {}),
            experiment.run_with_runner(runner, 2, |_, _| {}),
        ] {
            assert_eq!(results.failures().len(), 2);
            for workload in [Workload::Compress, Workload::Sort] {
                assert_eq!(results.failure(workload, 1).unwrap().kind(), "config");
                assert!(results.cell(workload, 0).is_some());
            }
        }
        assert_eq!(ran.load(Ordering::Relaxed), 4, "two valid cells per mode");
    }

    #[test]
    fn panicking_cells_are_isolated_serially_and_in_parallel() {
        let experiment = Experiment::new(Scale::Test, Some(4_000))
            .config(SimConfig::naive_single_port())
            .config(SimConfig::dual_port().named("haunted"))
            .workloads(&[Workload::Sort]);
        let runner: CellRunner<'_> = &|config, workload, scale, max_insts| {
            if config.name == "haunted" {
                panic!("synthetic worker crash");
            }
            Experiment::run_cell(config, workload, scale, max_insts)
        };
        for results in [
            experiment.run_with_runner(runner, 1, |_, _| {}),
            experiment.run_with_runner(runner, 2, |_, _| {}),
        ] {
            let error = results
                .failure(Workload::Sort, 1)
                .expect("haunted cell fails");
            assert_eq!(error.kind(), "panic");
            assert!(error.to_string().contains("synthetic worker crash"));
            assert!(results.cell(Workload::Sort, 0).is_some());
            let csv = results.ipc_table().to_csv();
            assert!(csv.contains("FAILED(panic)"), "{csv}");
        }
    }

    #[test]
    fn watchdog_cells_retry_at_a_smaller_window() {
        // The watchdog-aborted cell gets one retry at half the window;
        // with a watchdog this tight both attempts fail, and the typed
        // error (not a panic) lands in the row.
        let mut config = SimConfig::naive_single_port().named("livelocked");
        config.cpu.watchdog_cycles = 4;
        let results = Experiment::new(Scale::Test, Some(4_000))
            .config(config)
            .config(SimConfig::dual_port())
            .workloads(&[Workload::Sort])
            .run();
        let error = results.failure(Workload::Sort, 0).expect("watchdog fires");
        assert_eq!(error.kind(), "watchdog");
        assert!(results.cell(Workload::Sort, 1).is_some());
        assert!(results.ipc_table().to_csv().contains("FAILED(watchdog)"));
    }
}
