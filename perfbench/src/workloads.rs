//! The three benchmark workloads: set-up, one timed iteration, and the
//! correctness checks run on every iteration's output.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use cpe_core::{BackendKind, SimConfig};
use cpe_exec::{CacheStatus, ResultCache, SweepPlan, SweepResults};
use cpe_isa::replay::{parse_recorded, write_recorded, RecordedTrace};
use cpe_isa::{Emulator, Program};
use cpe_workloads::os::OsInjector;
use cpe_workloads::{Scale, Workload};

use crate::check::{self, compare, digest, parse_expected, Digests, StreamDigest, Tally};
use crate::spans::Tracer;

/// What the workloads run on. [`Params::full`] is the benchmark; smaller
/// scales exist so the benchmark's own tests finish quickly.
#[derive(Debug, Clone)]
pub struct Params {
    /// Problem size of every program.
    pub scale: Scale,
    /// Committed-instruction window per sweep cell (`None`: run to
    /// halt). `trace-record` always records whole programs.
    pub max_insts: Option<u64>,
    /// Sweep worker threads.
    pub workers: usize,
    /// Scratch directory for result caches; must be inside the checkout.
    pub work_dir: PathBuf,
    /// Expected digests, when `expected.txt` covers this scale.
    pub expected: Option<Digests>,
}

impl Params {
    /// The benchmark proper: full scale, uncapped, two workers, checked
    /// against `expected.txt`.
    pub fn full(work_dir: PathBuf) -> Params {
        Params {
            scale: Scale::Full,
            max_insts: None,
            workers: 2,
            work_dir,
            expected: Some(parse_expected(check::EXPECTED)),
        }
    }
}

/// The headline configurations, in the sweep's column order.
pub fn headline_configs() -> Vec<SimConfig> {
    vec![
        SimConfig::naive_single_port(),
        SimConfig::combined_single_port(),
        SimConfig::dual_port(),
    ]
}

/// The headline grid in canonical order: the three headline
/// configurations over the six paper workloads, replay backend.
pub fn canonical_plan(params: &Params) -> SweepPlan {
    SweepPlan {
        configs: headline_configs(),
        workloads: Workload::ALL.to_vec(),
        scale: params.scale,
        max_insts: params.max_insts,
        backend: BackendKind::Replay,
    }
}

/// The headline grid with its submission order permuted by `seed`
/// (configurations and workloads each shuffled).
pub fn seeded_plan(params: &Params, seed: u64) -> SweepPlan {
    let canonical = canonical_plan(params);
    SweepPlan {
        configs: check::permuted(&canonical.configs, seed),
        workloads: check::permuted(&canonical.workloads, seed ^ 0x005e_ed0f_c0de),
        ..canonical
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The headline grid through `SweepPlan::run` with an empty cache.
    HeadlineFull,
    /// Record, serialise, parse and walk every extended-suite program.
    TraceRecord,
    /// The headline grid again, every cell served by a warm cache.
    ResweepCached,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::HeadlineFull, Kind::TraceRecord, Kind::ResweepCached];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HeadlineFull => "headline-full",
            Kind::TraceRecord => "trace-record",
            Kind::ResweepCached => "resweep-cached",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Kind::HeadlineFull => {
                "the paper's headline grid at converged length; cpu.core and mem.system do most of the work"
            }
            Kind::TraceRecord => {
                "the functional path alone (emulator, OS injection, CPER); the timing core does no work"
            }
            Kind::ResweepCached => {
                "the headline grid served from a warm result cache; cache, parse, aggregate and re-recording"
            }
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// Work and checks of one timed iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Iteration {
    /// Wall seconds of the timed region.
    pub wall: f64,
    /// Sweep cells completed (programs recorded on `trace-record`).
    pub cells: u64,
    /// Instructions carried: committed instructions summed over cells, or
    /// records on `trace-record`.
    pub insts: u64,
    /// Simulated cycles summed over cells (0 on `trace-record`).
    pub cycles: u64,
    /// Cells served from the result cache.
    pub hits: u64,
    /// Cells that went through the result cache.
    pub through_cache: u64,
    /// Serialised CPER bytes (`trace-record` only).
    pub trace_bytes: u64,
    /// Output checks.
    pub tally: Tally,
}

/// A set-up workload, ready to run timed iterations.
#[derive(Debug)]
pub struct Bench {
    kind: Kind,
    params: Params,
    seed: u64,
    /// Iterations run so far, set-up sweeps included.
    runs: u64,
    canonical: SweepPlan,
    cache: ResultCache,
    programs: Vec<(Workload, Program)>,
    /// Output checks made during set-up.
    pub setup_tally: Tally,
    /// Every digest computed so far (the last iteration's win).
    pub digests: Digests,
}

impl Bench {
    /// Set a workload up: assemble its programs (checking them against
    /// the expected program digests) and, for `resweep-cached`, warm the
    /// result cache with one full sweep.
    pub fn setup(kind: Kind, params: &Params, seed: u64, tracer: &Tracer) -> Bench {
        let canonical = canonical_plan(params);
        let suite: Vec<Workload> = match kind {
            Kind::TraceRecord => Workload::EXTENDED.to_vec(),
            Kind::HeadlineFull | Kind::ResweepCached => canonical.workloads.clone(),
        };
        let mut setup_tally = Tally::default();
        let mut digests = Digests::new();
        let programs: Vec<(Workload, Program)> = suite
            .into_iter()
            .map(|workload| {
                let program = tracer.span("isa.asm", || workload.program(params.scale));
                compare(
                    params.expected.as_ref(),
                    &mut digests,
                    format!("program/{}", workload.name()),
                    Ok(program_digest(&program)),
                    &mut setup_tally,
                );
                (workload, program)
            })
            .collect();
        let cache = ResultCache::new(params.work_dir.join(format!("cache-{}", kind.name())));
        tracer.span("exec.cache", || cache.clear()).ok();
        let mut bench = Bench {
            kind,
            params: params.clone(),
            seed,
            runs: 0,
            canonical,
            cache,
            programs,
            setup_tally,
            digests,
        };
        if kind == Kind::ResweepCached {
            let warm = bench.sweep(CacheStatus::Miss, tracer);
            bench.setup_tally.merge(warm.tally);
        }
        bench
    }

    /// Run one timed iteration and check its output.
    pub fn run_once(&mut self, tracer: &Tracer) -> Iteration {
        match self.kind {
            Kind::HeadlineFull => {
                tracer.span("exec.cache", || self.cache.clear()).ok();
                self.sweep(CacheStatus::Miss, tracer)
            }
            Kind::ResweepCached => self.sweep(CacheStatus::Hit, tracer),
            Kind::TraceRecord => self.record_all(tracer),
        }
    }

    /// The seed of the next iteration's submission order: each iteration
    /// of a run draws its own permutation from the run's seed, so a run's
    /// median spans several schedules rather than one.
    fn next_order(&mut self) -> u64 {
        self.runs += 1;
        self.seed
            .wrapping_add(self.runs.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The sweep path `cpe sweep --metrics-json` takes: run the grid
    /// through the cache, render the IPC table and the aggregate
    /// document. Every cell must be served as `want`.
    fn sweep(&mut self, want: CacheStatus, tracer: &Tracer) -> Iteration {
        let order = self.next_order();
        let plan = seeded_plan(&self.params, order);
        let started = Instant::now();
        let results: SweepResults = tracer
            .span("exec.sweep", || {
                plan.run(self.params.workers, Some(&self.cache))
            })
            .expect("the headline grid is valid");
        black_box(tracer.span("exec.sweep", || results.ipc_table().to_csv()));
        black_box(tracer.span("exec.sweep", || results.aggregate_json()));
        let wall = started.elapsed().as_secs_f64();

        let tally = check::check_sweep(
            tracer,
            &results,
            &self.canonical,
            want,
            self.params.expected.as_ref(),
            &mut self.digests,
        );
        let cells = results.outcomes().len();
        let total = |field: &str| -> u64 {
            (0..plan.workloads.len())
                .flat_map(|w| (0..plan.configs.len()).map(move |c| (w, c)))
                .filter_map(|(w, c)| results.summary_number(w, c, field))
                .sum::<f64>() as u64
        };
        Iteration {
            wall,
            cells: cells as u64,
            insts: total("insts"),
            cycles: total("cycles"),
            hits: results.stats.hits as u64,
            through_cache: (results.stats.hits + results.stats.misses) as u64,
            trace_bytes: 0,
            tally,
        }
    }

    /// The functional path alone: for each program, record the OS-injected
    /// committed path to CPER, serialise it, parse it back and walk the
    /// replay, checking record count and stream digest against the
    /// recording.
    fn record_all(&mut self, tracer: &Tracer) -> Iteration {
        let order = check::permuted(
            &(0..self.programs.len()).collect::<Vec<_>>(),
            self.next_order(),
        );
        let mut iteration = Iteration::default();
        let mut streams = Vec::with_capacity(self.programs.len());
        let started = Instant::now();
        for (workload, program) in order.iter().map(|&index| &self.programs[index]) {
            let mut recorded_digest = StreamDigest::default();
            let source = tracer.span("workloads.os", || {
                OsInjector::new(Emulator::new(program.clone()), workload.os_config())
            });
            let trace = tracer.span("isa.cper", || {
                RecordedTrace::record(source.inspect(|record| recorded_digest.add(record)), None)
            });
            let mut bytes = Vec::new();
            tracer
                .span("isa.cper", || write_recorded(&mut bytes, &trace))
                .expect("writing to memory cannot fail");
            let records = trace.records();
            drop(trace);
            let parsed = tracer.span("isa.cper", || parse_recorded(&bytes));
            let replayed_digest = parsed.as_ref().ok().map(|parsed| {
                tracer.span("isa.cper", || {
                    let mut digest = StreamDigest::default();
                    parsed.iter().for_each(|record| digest.add(&record));
                    digest
                })
            });
            iteration.cells += 1;
            iteration.insts += records;
            iteration.trace_bytes += bytes.len() as u64;
            streams.push((*workload, records, recorded_digest, replayed_digest));
        }
        iteration.wall = started.elapsed().as_secs_f64();

        for (workload, records, recorded, replayed) in streams {
            let value = if replayed != Some(recorded) {
                Err("replayed stream differs from the recording".to_string())
            } else if records != recorded.records() {
                Err("record count differs from the stream".to_string())
            } else {
                Ok(recorded.text())
            };
            compare(
                self.params.expected.as_ref(),
                &mut self.digests,
                format!("stream/{}", workload.name()),
                value,
                &mut iteration.tally,
            );
        }
        iteration
    }
}

/// Digest of an assembled program: text words, data image and entry.
pub fn program_digest(program: &Program) -> String {
    let mut bytes = Vec::with_capacity(program.text.len() * 8 + program.data.len() + 8);
    for inst in &program.text {
        bytes.extend_from_slice(&cpe_isa::encode(inst).to_le_bytes());
    }
    bytes.extend_from_slice(&program.data);
    bytes.extend_from_slice(&program.entry.to_le_bytes());
    digest(&bytes)
}
