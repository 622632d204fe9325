//! Cached, parallel configuration × workload sweeps.
//!
//! A [`SweepPlan`] is the grid `cpe sweep` runs: every cell is one
//! [`Job`], executed through the work-stealing scheduler with the result
//! cache in front. Aggregates (the IPC table and the sweep metrics
//! document) are built exclusively from each cell's parsed document via
//! the deterministic renderer, so they are **byte-identical** across
//! worker counts and across fresh-vs-cached runs — the property
//! `crates/exec/tests/parallel_matches_serial.rs` pins down.

use std::fmt;
use std::time::Instant;

use cpe_core::json::escape;
use cpe_core::{BackendKind, JsonValue, SimConfig, SimError, METRICS_SCHEMA};
use cpe_stats::{geometric_mean, Table};
use cpe_workloads::{Scale, Workload};

use crate::cache::ResultCache;
use crate::job::{execute_jobs_traced, preset_configs, scale_name, CacheStatus, Job, JobOutcome};
use crate::observe::SweepProgress;
use crate::render::{member, number_at, parse, render};
use crate::traces::TraceStore;

/// The grid a sweep executes: configurations × workloads at one scale
/// and instruction window.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Configurations, in column order.
    pub configs: Vec<SimConfig>,
    /// Workloads, in row order.
    pub workloads: Vec<Workload>,
    /// Problem-size preset for every cell.
    pub scale: Scale,
    /// Committed-instruction window for every cell.
    pub max_insts: Option<u64>,
    /// Execution backend for every cell. With [`BackendKind::Replay`],
    /// each distinct `(workload, scale, max_insts)` tuple is recorded at
    /// most once, by the first cell that needs it, and every cell that
    /// misses the result cache replays the shared recording.
    pub backend: BackendKind,
}

impl SweepPlan {
    /// The standard port-count grid: every preset configuration over the
    /// six paper workloads.
    pub fn standard(scale: Scale, max_insts: Option<u64>) -> SweepPlan {
        SweepPlan {
            configs: preset_configs(),
            workloads: Workload::ALL.to_vec(),
            scale,
            max_insts,
            backend: BackendKind::Direct,
        }
    }

    /// This plan with a different execution backend.
    pub fn with_backend(mut self, backend: BackendKind) -> SweepPlan {
        self.backend = backend;
        self
    }

    /// The grid as jobs, workload-major (matching the serial
    /// `Experiment` order).
    pub fn jobs(&self) -> Vec<Job> {
        self.workloads
            .iter()
            .flat_map(|&workload| {
                self.configs.iter().map(move |config| Job {
                    config: config.clone(),
                    workload,
                    scale: self.scale,
                    max_insts: self.max_insts,
                    backend: self.backend,
                })
            })
            .collect()
    }

    /// Validate the whole grid up front — each configuration exactly
    /// once — so a bad base config is rejected before any cell starts.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for the first inconsistent
    /// configuration; the sweep should not start.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.configs.is_empty() || self.workloads.is_empty() {
            return Err(SimError::InvalidConfig(cpe_core::ConfigError {
                config: "(sweep)".to_string(),
                message: "add at least one configuration and one workload".to_string(),
            }));
        }
        for config in &self.configs {
            config.validate()?;
        }
        Ok(())
    }

    /// Execute the grid across `workers` threads, through `cache` when
    /// attached. Cell failures land in their cells; this call only fails
    /// when the grid itself is invalid (see [`SweepPlan::validate`]).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the grid is empty.
    pub fn run(
        &self,
        workers: usize,
        cache: Option<&ResultCache>,
    ) -> Result<SweepResults, SimError> {
        self.run_with_progress(workers, cache, None)
    }

    /// [`SweepPlan::run`] with an optional live progress line on stderr.
    /// Progress never touches the results — the table and metrics stay
    /// byte-identical to an unobserved run.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the grid is empty.
    pub fn run_with_progress(
        &self,
        workers: usize,
        cache: Option<&ResultCache>,
        progress: Option<&SweepProgress>,
    ) -> Result<SweepResults, SimError> {
        if self.configs.is_empty() || self.workloads.is_empty() {
            self.validate()?;
        }
        let started = Instant::now();
        let jobs = self.jobs();
        // One store for the whole grid: a replay sweep's functional cost
        // is one recording per distinct (workload, scale, max_insts)
        // tuple that some cell computes, made by the first such cell.
        let traces = (self.backend == BackendKind::Replay).then(TraceStore::new);
        let (outcomes, scheduler) =
            execute_jobs_traced(&jobs, workers, cache, progress, traces.as_ref());
        if let Some(progress) = progress {
            progress.finish();
        }
        let mut results = SweepResults::assemble(
            self.clone(),
            outcomes,
            scheduler.workers,
            scheduler.steals,
            started.elapsed().as_secs_f64(),
        );
        if let Some(traces) = &traces {
            let (recorded, reused) = traces.counts();
            results.stats.replay = true;
            results.stats.traces_recorded = recorded;
            results.stats.traces_reused = reused;
        }
        Ok(results)
    }
}

/// What a sweep cost and how the cache served it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SweepStats {
    /// Grid cells executed.
    pub cells: usize,
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells computed and stored.
    pub misses: usize,
    /// Cells computed with no cache attached.
    pub bypassed: usize,
    /// Cells that failed (`FAILED(<kind>)` in the table).
    pub failed: usize,
    /// Wall seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Work-stealing migrations between workers.
    pub steals: u64,
    /// Whether the cells ran on the replay backend; the footer then
    /// reports the trace counts even when every cell hit the cache.
    pub replay: bool,
    /// Recordings made by the replay backend (zero on a direct sweep).
    pub traces_recorded: u64,
    /// Cells that replayed a shared recording, the recording cell
    /// included.
    pub traces_reused: u64,
}

impl SweepStats {
    /// Cache hit rate over the cells that went through the cache.
    pub fn hit_rate(&self) -> f64 {
        let through_cache = self.hits + self.misses;
        if through_cache == 0 {
            0.0
        } else {
            self.hits as f64 / through_cache as f64
        }
    }
}

impl fmt::Display for SweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells in {:.2}s across {} worker(s), {} steal(s): \
             {} hit(s), {} miss(es), {} uncached, {} failed — hit rate {:.1}%",
            self.cells,
            self.wall_seconds,
            self.workers,
            self.steals,
            self.hits,
            self.misses,
            self.bypassed,
            self.failed,
            self.hit_rate() * 100.0
        )?;
        if self.replay {
            write!(
                f,
                ", trace: {} recorded, {} reused",
                self.traces_recorded, self.traces_reused
            )?;
        }
        Ok(())
    }
}

/// The completed sweep: every cell's outcome plus parsed document.
#[derive(Debug, Clone)]
pub struct SweepResults {
    plan: SweepPlan,
    outcomes: Vec<JobOutcome>,
    cells: Vec<Result<JsonValue, SimError>>,
    /// Cost and cache accounting for the run.
    pub stats: SweepStats,
}

impl SweepResults {
    /// Assemble results from already-executed outcomes in workload-major
    /// grid order — the path shared by the local scheduler and the
    /// distributed fabric, which is what makes their aggregates
    /// byte-identical: both feed the same parse → render pipeline here.
    ///
    /// `outcomes` must be one per grid cell, in submission order.
    pub fn assemble(
        plan: SweepPlan,
        outcomes: Vec<JobOutcome>,
        workers: usize,
        steals: u64,
        wall_seconds: f64,
    ) -> SweepResults {
        assert_eq!(
            outcomes.len(),
            plan.configs.len() * plan.workloads.len(),
            "one outcome per grid cell"
        );
        let cells: Vec<Result<JsonValue, SimError>> = outcomes
            .iter()
            .map(|outcome| match &outcome.document {
                Ok(document) => parse(document).map_err(|message| SimError::Trace { message }),
                Err(error) => Err(error.clone()),
            })
            .collect();
        let mut stats = SweepStats {
            cells: outcomes.len(),
            workers,
            steals,
            wall_seconds,
            ..SweepStats::default()
        };
        for outcome in &outcomes {
            match (&outcome.document, outcome.cache) {
                (Err(_), _) => stats.failed += 1,
                (Ok(_), CacheStatus::Hit) => stats.hits += 1,
                (Ok(_), CacheStatus::Miss) => stats.misses += 1,
                (Ok(_), CacheStatus::Bypass) => stats.bypassed += 1,
            }
        }
        SweepResults {
            plan,
            outcomes,
            cells,
            stats,
        }
    }

    /// Every cell outcome, in workload-major grid order.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// The plan this sweep ran.
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    fn cell(&self, workload_index: usize, config_index: usize) -> &Result<JsonValue, SimError> {
        &self.cells[workload_index * self.plan.configs.len() + config_index]
    }

    /// A numeric summary metric for one cell, when it succeeded.
    pub fn summary_number(
        &self,
        workload_index: usize,
        config_index: usize,
        field: &str,
    ) -> Option<f64> {
        number_at(
            self.cell(workload_index, config_index).as_ref().ok()?,
            &["summary", field],
        )
    }

    fn cell_text(&self, workload_index: usize, config_index: usize, field: &str) -> String {
        match self.cell(workload_index, config_index) {
            Ok(_) => self
                .summary_number(workload_index, config_index, field)
                .map(|value| format!("{value:.3}"))
                .unwrap_or_else(|| "-".to_string()),
            Err(error) => format!("FAILED({})", error.kind()),
        }
    }

    /// IPC per workload per configuration, plus a geomean row — the same
    /// shape the serial `Experiment::ipc_table` renders.
    pub fn ipc_table(&self) -> Table {
        self.metric_table("IPC", "ipc", true)
    }

    /// Any summary metric as a (workload × config) table.
    pub fn metric_table(&self, label: &str, field: &str, geomean: bool) -> Table {
        let mut header = vec![format!("workload ({label})")];
        header.extend(self.plan.configs.iter().map(|c| c.name.clone()));
        let mut table = Table::new(header);
        for (workload_index, workload) in self.plan.workloads.iter().enumerate() {
            let mut row = vec![workload.name().to_string()];
            for config_index in 0..self.plan.configs.len() {
                row.push(self.cell_text(workload_index, config_index, field));
            }
            table.row(row);
        }
        if geomean {
            let mut geo = vec!["geomean".to_string()];
            for config_index in 0..self.plan.configs.len() {
                let mean = geometric_mean(
                    (0..self.plan.workloads.len())
                        .filter_map(|w| self.summary_number(w, config_index, field)),
                )
                .unwrap_or(0.0);
                geo.push(format!("{mean:.3}"));
            }
            table.row(geo);
        }
        table
    }

    /// The aggregate sweep document: grid shape plus each cell's
    /// deterministic `summary`, `distributions` and `cpi_stack` objects
    /// (never the self-profile or wall times, which vary run to run).
    /// Byte-identical across worker counts and cache states.
    pub fn aggregate_json(&self) -> String {
        let configs: Vec<String> = self
            .plan
            .configs
            .iter()
            .map(|c| format!("\"{}\"", escape(&c.name)))
            .collect();
        let workloads: Vec<String> = self
            .plan
            .workloads
            .iter()
            .map(|w| format!("\"{}\"", w.name()))
            .collect();
        let window = match self.plan.max_insts {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let mut cells = Vec::with_capacity(self.cells.len());
        for (workload_index, workload) in self.plan.workloads.iter().enumerate() {
            for (config_index, config) in self.plan.configs.iter().enumerate() {
                let head = format!(
                    "{{\"config\":\"{}\",\"workload\":\"{}\"",
                    escape(&config.name),
                    workload.name()
                );
                let cell = match self.cell(workload_index, config_index) {
                    Ok(document) => {
                        let summary = member(document, "summary").map(render);
                        let distributions = member(document, "distributions").map(render);
                        let cpi_stack = member(document, "cpi_stack").map(render);
                        match (summary, distributions, cpi_stack) {
                            (Some(summary), Some(distributions), Some(cpi_stack)) => format!(
                                "{head},\"summary\":{summary},\"distributions\":{distributions},\
                                 \"cpi_stack\":{cpi_stack}}}"
                            ),
                            _ => format!("{head},\"failed\":\"malformed\"}}"),
                        }
                    }
                    Err(error) => format!("{head},\"failed\":\"{}\"}}", error.kind()),
                };
                cells.push(cell);
            }
        }
        format!(
            "{{\"schema\":{METRICS_SCHEMA},\"kind\":\"sweep\",\"scale\":\"{}\",\
             \"max_insts\":{window},\"configs\":[{}],\"workloads\":[{}],\"cells\":[{}]}}",
            scale_name(self.plan.scale),
            configs.join(","),
            workloads.join(","),
            cells.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> SweepPlan {
        SweepPlan {
            configs: vec![SimConfig::naive_single_port(), SimConfig::dual_port()],
            workloads: vec![Workload::Compress, Workload::Sort],
            scale: Scale::Test,
            max_insts: Some(4_000),
            backend: BackendKind::Direct,
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_aggregates_parse() {
        let results = tiny_plan().run(2, None).expect("grid is valid");
        assert_eq!(results.outcomes().len(), 4);
        assert_eq!(results.stats.cells, 4);
        assert_eq!(results.stats.bypassed, 4);
        let table = results.ipc_table();
        assert_eq!(table.len(), 3, "two workloads + geomean");
        let doc = results.aggregate_json();
        let parsed = parse(&doc).expect("aggregate parses");
        assert_eq!(number_at(&parsed, &["schema"]), Some(3.0));
        assert!(doc.contains("\"kind\":\"sweep\""));
        assert!(doc.contains("\"summary\":{"));
        assert!(doc.contains("\"distributions\":{"));
        assert!(doc.contains("\"cpi_stack\":{\"commit_width\":"));
        assert!(!doc.contains("self_profile"), "no nondeterministic fields");
        assert!(!doc.contains("wall_seconds"), "no nondeterministic fields");
    }

    #[test]
    fn invalid_grid_is_rejected_before_any_cell() {
        let mut plan = tiny_plan();
        plan.configs.push(SimConfig::dual_port().with_ports(0));
        let error = plan.validate().expect_err("zero ports");
        assert_eq!(error.kind(), "config");
        let empty = SweepPlan {
            configs: vec![],
            workloads: vec![],
            scale: Scale::Test,
            max_insts: None,
            backend: BackendKind::Direct,
        };
        assert!(empty.validate().is_err());
        assert!(empty.run(1, None).is_err());
    }

    #[test]
    fn replay_sweep_records_once_per_workload_and_matches_direct() {
        let direct = tiny_plan().run(2, None).expect("direct sweep runs");
        let replay = tiny_plan()
            .with_backend(BackendKind::Replay)
            .run(2, None)
            .expect("replay sweep runs");
        assert_eq!(
            direct.ipc_table().to_csv(),
            replay.ipc_table().to_csv(),
            "replay must be byte-identical to direct"
        );
        assert_eq!(direct.aggregate_json(), replay.aggregate_json());
        assert_eq!(replay.stats.traces_recorded, 2, "one per workload");
        assert_eq!(replay.stats.traces_reused, 4, "every cell reuses");
        assert_eq!(direct.stats.traces_recorded, 0);
        let footer = replay.stats.to_string();
        assert!(footer.ends_with("trace: 2 recorded, 4 reused"), "{footer}");
        assert!(
            !direct.stats.to_string().contains("trace:"),
            "direct footer stays unchanged"
        );
    }

    #[test]
    fn failed_cells_render_failed_kind_in_table_and_json() {
        let mut plan = tiny_plan();
        plan.configs
            .push(SimConfig::naive_single_port().with_ports(0).named("bad"));
        // validate() would reject it; run the grid anyway to check cell
        // isolation when a caller skips validation.
        let results = plan.run(2, None).expect("grid is non-empty");
        assert_eq!(results.stats.failed, 2);
        let csv = results.ipc_table().to_csv();
        assert!(csv.contains("FAILED(config)"), "{csv}");
        assert!(results.aggregate_json().contains("\"failed\":\"config\""));
    }
}
