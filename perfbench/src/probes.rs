//! Per-layer probes for the traced run: each layer driven through its
//! public API on fixed inputs, with a deterministic work count beside
//! every wall time.
//!
//! The inputs do not depend on the workload or the seed, so every traced
//! run reports the same work counts; only the times move.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cpe_core::{profile_json, ProfileOptions, RecordedWorkload, SimConfig, Simulator};
use cpe_exec::render::parse;
use cpe_exec::{
    run_work_stealing, CacheStatus, Job, JobOutcome, ResultCache, SweepResults, TraceStore,
};
use cpe_isa::replay::{parse_recorded, write_recorded, RecordedTrace};
use cpe_isa::{DynInst, Emulator, Program};
use cpe_mem::{Addr, LoadOutcome, MemSystem, StoreOutcome};
use cpe_workloads::os::OsInjector;
use cpe_workloads::Workload;

use crate::check::{self, compare, Digests, StreamDigest, Tally};
use crate::run::{median, ratio};
use crate::spans::Tracer;
use crate::workloads::{canonical_plan, headline_configs, Params};

/// Consecutive refused attempts after which the `mem.system` probe
/// declares the hierarchy stuck (a failed operation, never a hang).
const MEM_STUCK_LIMIT: u64 = 1_000_000;

/// Times the assembly probe repeats (its median is reported).
const ASM_REPEATS: usize = 3;

/// Per-layer figures keyed by metric name, plus the probes' own checks.
#[derive(Debug, Default)]
pub(crate) struct Probed {
    /// Metric name → value.
    pub(crate) values: BTreeMap<String, f64>,
    /// Output checks made by the probes.
    pub(crate) tally: Tally,
    /// Digests the probes computed.
    pub(crate) digests: Digests,
}

impl Probed {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }
}

fn timed<R>(call: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = call();
    (result, started.elapsed().as_secs_f64())
}

/// Run every probe once.
pub(crate) fn run(params: &Params, tracer: &Tracer) -> Probed {
    let mut probed = Probed::default();
    let programs = assembler(params, tracer, &mut probed);
    functional(params, &programs, tracer, &mut probed);
    timing(params, tracer, &mut probed);
    probed
}

/// `isa.asm`: build every extended-suite program, [`ASM_REPEATS`] times.
fn assembler(params: &Params, tracer: &Tracer, probed: &mut Probed) -> Vec<(Workload, Program)> {
    let mut seconds = Vec::with_capacity(ASM_REPEATS);
    let mut programs = Vec::new();
    for _ in 0..ASM_REPEATS {
        let (built, secs) = timed(|| {
            Workload::EXTENDED
                .iter()
                .map(|&workload| {
                    (
                        workload,
                        tracer.span("isa.asm", || workload.program(params.scale)),
                    )
                })
                .collect::<Vec<_>>()
        });
        seconds.push(secs);
        programs = built;
    }
    probed.set("isa.asm.ms", median(seconds) * 1e3);
    let text: usize = programs.iter().map(|(_, program)| program.text.len()).sum();
    probed.set("isa.asm.text_insts", text as f64);
    programs
}

/// `isa.emu`, `workloads.os` and `isa.cper` over the extended suite.
fn functional(
    params: &Params,
    programs: &[(Workload, Program)],
    tracer: &Tracer,
    probed: &mut Probed,
) {
    let (mut emu_insts, mut emu_secs) = (0u64, 0.0);
    let (mut os_insts, mut os_secs, mut injected) = (0u64, 0.0, 0u64);
    let (mut records, mut cper_bytes) = (0u64, 0u64);
    let (mut encode_secs, mut write_secs, mut decode_secs, mut iter_secs) = (0.0, 0.0, 0.0, 0.0);
    for (workload, program) in programs {
        // The bare program, no OS activity.
        let mut emulator = Emulator::new(program.clone());
        let (halted, secs) = timed(|| {
            tracer.span("isa.emu", || loop {
                match emulator.step() {
                    Ok(Some(record)) => {
                        black_box(record);
                    }
                    Ok(None) => break true,
                    Err(_) => break false,
                }
            })
        });
        probed.tally.record(halted);
        emu_insts += emulator.executed();
        emu_secs += secs;

        // The workload's committed path, OS activity spliced in.
        let mut injector = OsInjector::new(Emulator::new(program.clone()), workload.os_config());
        let (stream, secs) = timed(|| {
            tracer.span("workloads.os", || {
                let mut digest = StreamDigest::default();
                for record in &mut injector {
                    digest.add(&record);
                }
                digest
            })
        });
        os_insts += stream.records();
        os_secs += secs;
        injected += injector.kernel_emitted();

        // CPER on a pre-collected stream, so the emulator is excluded.
        let collected: Vec<DynInst> = tracer.span("workloads.os", || {
            OsInjector::new(Emulator::new(program.clone()), workload.os_config()).collect()
        });
        let (trace, secs) = timed(|| {
            tracer.span("isa.cper", || {
                RecordedTrace::record(collected.iter().copied(), None)
            })
        });
        drop(collected);
        encode_secs += secs;
        let mut bytes = Vec::new();
        let (written, secs) =
            timed(|| tracer.span("isa.cper", || write_recorded(&mut bytes, &trace)));
        write_secs += secs;
        probed.tally.record(written.is_ok());
        let (parsed, secs) = timed(|| tracer.span("isa.cper", || parse_recorded(&bytes)));
        decode_secs += secs;
        let replayed = parsed.ok().map(|parsed| {
            let (digest, secs) = timed(|| {
                tracer.span("isa.cper", || {
                    let mut digest = StreamDigest::default();
                    parsed.iter().for_each(|record| digest.add(&record));
                    digest
                })
            });
            iter_secs += secs;
            digest
        });
        probed.tally.record(replayed == Some(stream));
        compare(
            params.expected.as_ref(),
            &mut probed.digests,
            format!("stream/{}", workload.name()),
            Ok(stream.text()),
            &mut probed.tally,
        );
        records += trace.records();
        cper_bytes += bytes.len() as u64;
    }
    probed.set("isa.emu.insts", emu_insts as f64);
    probed.set(
        "isa.emu.minst_per_s",
        ratio(emu_insts as f64, emu_secs) / 1e6,
    );
    probed.set("workloads.os.injected_insts", injected as f64);
    probed.set(
        "workloads.os.minst_per_s",
        ratio(os_insts as f64, os_secs) / 1e6,
    );
    probed.set("isa.cper.records", records as f64);
    probed.set("isa.cper.bytes", cper_bytes as f64);
    probed.set(
        "isa.cper.bytes_per_record",
        ratio(cper_bytes as f64, records as f64),
    );
    probed.set(
        "isa.cper.encode_mrec_per_s",
        ratio(records as f64, encode_secs) / 1e6,
    );
    probed.set(
        "isa.cper.write_mb_per_s",
        ratio(cper_bytes as f64, write_secs) / 1e6,
    );
    probed.set(
        "isa.cper.decode_mrec_per_s",
        ratio(records as f64, decode_secs) / 1e6,
    );
    probed.set(
        "isa.cper.iter_mrec_per_s",
        ratio(records as f64, iter_secs) / 1e6,
    );
}

/// One simulated cell of the timing probe.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// `None`: `SimConfig::ideal_ports()`; `Some(i)`: headline config `i`.
    config: Option<usize>,
    /// Index into `Workload::ALL`.
    workload: usize,
}

#[derive(Debug)]
struct CellRun {
    /// Seconds inside the simulator call.
    seconds: f64,
    cycles: u64,
    insts: u64,
    /// Loads and stores the cell's memory system accepted.
    mem_refs: u64,
    sched_events_peak: u64,
    /// A headline cell's metrics document and the seconds it took to
    /// render.
    document: Option<(String, f64)>,
    failed: bool,
}

impl CellRun {
    /// Seconds the cell kept its worker busy.
    fn busy(&self) -> f64 {
        self.seconds + self.document.as_ref().map_or(0.0, |(_, secs)| *secs)
    }
}

/// `exec.traces`, `cpu.core`, `core.simulator`, `core.json`,
/// `exec.scheduler`, `mem.system`, `exec.render`, `exec.cache` and
/// `exec.sweep` over the headline grid's recordings.
fn timing(params: &Params, tracer: &Tracer, probed: &mut Probed) {
    let plan = canonical_plan(params);
    let jobs: Vec<Job> = plan.jobs();
    let store = TraceStore::new();
    let (_, record_secs) = timed(|| tracer.span("exec.traces", || store.record_all(&jobs)));
    let recordings: Vec<Arc<RecordedWorkload>> = plan
        .workloads
        .iter()
        .map(|workload| {
            let job = jobs
                .iter()
                .find(|job| job.workload == *workload)
                .expect("every workload has cells");
            tracer.span("exec.traces", || store.get(job))
        })
        .collect();
    let trace_records: u64 = recordings.iter().map(|r| r.trace().records()).sum();
    probed.set("exec.traces.record_s", record_secs);
    probed.set("exec.traces.records", trace_records as f64);

    // The ideal-port cells take port contention out of the picture; the
    // headline cells add each headline memory configuration. Both make
    // the call every sweep cell makes.
    let configs = headline_configs();
    let ideal = SimConfig::ideal_ports();
    let cells: Vec<Cell> = (0..plan.workloads.len())
        .map(|workload| Cell {
            config: None,
            workload,
        })
        .chain((0..plan.workloads.len()).flat_map(|workload| {
            (0..configs.len()).map(move |config| Cell {
                config: Some(config),
                workload,
            })
        }))
        .collect();
    let ((runs, scheduler), sched_secs) = timed(|| {
        tracer.fan_out("exec.scheduler", params.workers as u32, |id| {
            run_work_stealing(&cells, params.workers, |_, cell| {
                tracer.adopt(id, || {
                    simulate(cell, &configs, &ideal, &recordings, params, tracer)
                })
            })
        })
    });
    let busy: f64 = runs.iter().map(CellRun::busy).sum();
    probed.set(
        "exec.scheduler.worker_util",
        ratio(busy, scheduler.workers as f64 * sched_secs),
    );
    probed.set("exec.scheduler.steals", scheduler.steals as f64);
    for run in &runs {
        probed.tally.record(!run.failed);
    }
    let (ideal_runs, headline_runs) = runs.split_at(plan.workloads.len());
    core_figures(probed, ideal_runs, "cpu.core");
    core_figures(probed, headline_runs, "core.simulator");
    let cell_refs: u64 = headline_runs.iter().map(|run| run.mem_refs).sum();
    let cell_cycles: u64 = headline_runs.iter().map(|run| run.cycles).sum();
    probed.set(
        "core.simulator.mem_refs_per_cycle",
        ratio(cell_refs as f64, cell_cycles as f64),
    );

    mem_system(&configs, &recordings, headline_runs, tracer, probed);

    // Downstream of the simulator: the headline documents, each beside
    // the job it answers.
    let documents: Vec<(&Job, &(String, f64))> = jobs
        .iter()
        .zip(headline_runs)
        .filter_map(|(job, run)| Some((job, run.document.as_ref()?)))
        .collect();
    let doc_bytes: f64 = documents.iter().map(|(_, (doc, _))| doc.len() as f64).sum();
    let render_secs: f64 = documents.iter().map(|(_, (_, secs))| secs).sum();
    probed.set(
        "core.json.render_mb_per_s",
        ratio(doc_bytes, render_secs) / 1e6,
    );
    probed.set(
        "core.json.doc_kb",
        ratio(doc_bytes, documents.len() as f64) / 1024.0,
    );
    let mut parse_secs = 0.0;
    for (job, (document, _)) in &documents {
        let (parsed, secs) = timed(|| tracer.span("exec.render", || parse(document)));
        probed.tally.record(parsed.is_ok());
        parse_secs += secs;
        compare(
            params.expected.as_ref(),
            &mut probed.digests,
            format!("cell/{}/{}", job.workload.name(), job.config.name),
            tracer.span("exec.render", || check::cell_digest(document)),
            &mut probed.tally,
        );
    }
    probed.set(
        "exec.render.parse_mb_per_s",
        ratio(doc_bytes, parse_secs) / 1e6,
    );

    cache(params, &documents, tracer, probed);

    // The sweep layer's aggregation over the same documents.
    let outcomes: Vec<JobOutcome> = headline_runs
        .iter()
        .enumerate()
        .map(|(index, run)| JobOutcome {
            index,
            document: run
                .document
                .as_ref()
                .map(|(doc, _)| doc.clone())
                .ok_or_else(|| cpe_core::SimError::WorkerPanic {
                    message: "probe cell failed".to_string(),
                }),
            cache: CacheStatus::Bypass,
            wall_seconds: run.busy(),
        })
        .collect();
    let results = tracer.span("exec.sweep", || {
        SweepResults::assemble(
            plan.clone(),
            outcomes,
            scheduler.workers,
            scheduler.steals,
            sched_secs,
        )
    });
    let ((table, aggregate), aggregate_secs) = timed(|| {
        let table = tracer.span("exec.sweep", || results.ipc_table().to_csv());
        let aggregate = tracer.span("exec.sweep", || results.aggregate_json());
        (table, aggregate)
    });
    probed.set("exec.sweep.aggregate_ms", aggregate_secs * 1e3);
    probed.set("exec.sweep.cells", results.outcomes().len() as f64);
    compare(
        params.expected.as_ref(),
        &mut probed.digests,
        "sweep/ipc_table".to_string(),
        Ok(check::digest(table.as_bytes())),
        &mut probed.tally,
    );
    compare(
        params.expected.as_ref(),
        &mut probed.digests,
        "sweep/aggregate".to_string(),
        Ok(check::digest(aggregate.as_bytes())),
        &mut probed.tally,
    );
}

/// Simulate one probe cell; headline cells also render their document.
fn simulate(
    cell: &Cell,
    configs: &[SimConfig],
    ideal: &SimConfig,
    recordings: &[Arc<RecordedWorkload>],
    params: &Params,
    tracer: &Tracer,
) -> CellRun {
    let config = cell.config.map_or(ideal, |index| &configs[index]);
    let layer = if cell.config.is_some() {
        "core.simulator"
    } else {
        "cpu.core"
    };
    let failed = CellRun {
        seconds: 0.0,
        cycles: 0,
        insts: 0,
        mem_refs: 0,
        sched_events_peak: 0,
        document: None,
        failed: true,
    };
    let Ok(simulator) = tracer.span("core.simulator", || Simulator::try_new(config.clone())) else {
        return failed;
    };
    let (run, seconds) = timed(|| {
        tracer.span(layer, || {
            simulator.try_profile_recorded(
                &recordings[cell.workload],
                params.max_insts,
                ProfileOptions::default(),
            )
        })
    });
    let Ok(run) = run else { return failed };
    let document = cell
        .config
        .map(|_| timed(|| tracer.span("core.json", || profile_json(&run, simulator.config()))));
    CellRun {
        seconds,
        cycles: run.summary.cycles,
        insts: run.summary.insts,
        mem_refs: run.summary.raw.mem.loads.get() + run.summary.raw.mem.stores.get(),
        sched_events_peak: run.summary.raw.cpu.sched_events_peak.get(),
        document,
        failed: false,
    }
}

/// Throughput and work counts of a group of simulated cells, as
/// `<layer>.*` metrics.
fn core_figures(probed: &mut Probed, runs: &[CellRun], layer: &str) {
    let cycles: u64 = runs.iter().map(|run| run.cycles).sum();
    let insts: u64 = runs.iter().map(|run| run.insts).sum();
    let seconds: f64 = runs.iter().map(|run| run.seconds).sum();
    probed.set(
        format!("{layer}.mcyc_per_s"),
        ratio(cycles as f64, seconds) / 1e6,
    );
    probed.set(
        format!("{layer}.minst_per_s"),
        ratio(insts as f64, seconds) / 1e6,
    );
    probed.set(format!("{layer}.cycles"), cycles as f64);
    probed.set(format!("{layer}.insts"), insts as f64);
    probed.set(
        format!("{layer}.ns_per_cycle"),
        ratio(seconds * 1e9, cycles as f64),
    );
    let peak = runs
        .iter()
        .map(|run| run.sched_events_peak)
        .max()
        .unwrap_or(0);
    probed.set(format!("{layer}.sched_events_peak"), peak as f64);
}

/// Work done by one [`drive_memory`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemWork {
    /// Simulated cycles driven.
    cycles: u64,
    /// Loads and stores the hierarchy accepted.
    accesses: u64,
    /// Presentations, accepted or not.
    attempts: u64,
    /// Presentations refused (no port, MSHRs full, store-buffer
    /// conflict, store rejected) and replayed on a later cycle.
    retries: u64,
    /// Port slots used.
    slots_used: u64,
    /// Port slots offered.
    slots_offered: u64,
    /// `false` when the hierarchy stopped accepting work.
    completed: bool,
}

/// Which references [`drive_memory`] presents, and when: those of the
/// first `insts` records, reference `i` (from 0) no earlier than cycle
/// `i × cycles / refs`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pace {
    /// Instructions the simulated cell committed.
    pub(crate) insts: u64,
    /// References the simulated cell's memory system accepted.
    pub(crate) refs: u64,
    /// Cycles the simulated cell took.
    pub(crate) cycles: u64,
}

impl Pace {
    /// Every record, every reference due at cycle 0.
    #[cfg(test)]
    const BACK_TO_BACK: Pace = Pace {
        insts: u64::MAX,
        refs: 1,
        cycles: 0,
    };

    /// The cycle reference `index` is due.
    fn due(self, index: u64) -> u64 {
        (u128::from(index) * u128::from(self.cycles) / u128::from(self.refs.max(1))) as u64
    }
}

/// Drive a cold `MemSystem` built from `config.mem` with the data
/// references of `trace`, in program order, as `pace` gives them and
/// at most `config.cpu.fu.agu.count` per cycle (the core's
/// address-generation limit). A refused reference is presented again on
/// the next cycle before any younger one.
pub(crate) fn drive_memory(config: &SimConfig, trace: &RecordedTrace, pace: Pace) -> MemWork {
    let mut mem = MemSystem::new(config.mem);
    let mut refs = trace
        .iter()
        .take(usize::try_from(pace.insts).unwrap_or(usize::MAX))
        .filter(|record| record.mem_addr.is_some())
        .zip(0u64..);
    let mut pending = None;
    let mut work = MemWork::default();
    let mut stuck = 0u64;
    let mut now = 0u64;
    'cycles: loop {
        mem.begin_cycle(now);
        for _ in 0..config.cpu.fu.agu.count {
            let Some((record, index)) = pending.take().or_else(|| refs.next()) else {
                mem.end_cycle(now);
                work.completed = true;
                break 'cycles;
            };
            if pace.due(index) > now {
                pending = Some((record, index));
                break;
            }
            let addr = Addr::new(record.mem_addr.expect("filtered to memory references"));
            let bytes = record.mem_bytes();
            let accepted = if record.inst.op.is_load() {
                matches!(mem.try_load(now, addr, bytes), LoadOutcome::Ready { .. })
            } else {
                mem.commit_store(now, addr, bytes) == StoreOutcome::Accepted
            };
            work.attempts += 1;
            if accepted {
                work.accesses += 1;
                stuck = 0;
            } else {
                work.retries += 1;
                stuck += 1;
                pending = Some((record, index));
                break;
            }
        }
        mem.end_cycle(now);
        now += 1;
        if stuck > MEM_STUCK_LIMIT {
            break;
        }
    }
    work.cycles = now + 1;
    work.slots_used = mem.stats().port_slots_used.get();
    work.slots_offered = mem.stats().port_slots_offered.get();
    work
}

/// Largest relative gap allowed between the `mem.system` probe's
/// references per cycle and those of the headline cells it is paced by.
const MEM_RATE_TOLERANCE: f64 = 0.05;

/// `mem.system`: every headline memory configuration over every
/// recording, each paced by its headline cell (`runs`, workload-major
/// like the grid).
fn mem_system(
    configs: &[SimConfig],
    recordings: &[Arc<RecordedWorkload>],
    runs: &[CellRun],
    tracer: &Tracer,
    probed: &mut Probed,
) {
    let mut total = MemWork::default();
    let mut seconds = 0.0;
    for (index, config) in configs.iter().enumerate() {
        for (workload, recording) in recordings.iter().enumerate() {
            let cell = &runs[workload * configs.len() + index];
            let pace = Pace {
                insts: cell.insts,
                refs: cell.mem_refs,
                cycles: cell.cycles,
            };
            let (work, secs) = timed(|| {
                tracer.span("mem.system", || {
                    drive_memory(config, recording.trace(), pace)
                })
            });
            probed.tally.record(work.completed);
            seconds += secs;
            total.cycles += work.cycles;
            total.accesses += work.accesses;
            total.attempts += work.attempts;
            total.retries += work.retries;
            total.slots_used += work.slots_used;
            total.slots_offered += work.slots_offered;
        }
    }
    probed.set("mem.system.accesses", total.accesses as f64);
    probed.set("mem.system.cycles", total.cycles as f64);
    probed.set("mem.system.port_slots", total.slots_used as f64);
    probed.set(
        "mem.system.maccess_per_s",
        ratio(total.accesses as f64, seconds) / 1e6,
    );
    probed.set(
        "mem.system.ns_per_access",
        ratio(seconds * 1e9, total.accesses as f64),
    );
    probed.set(
        "mem.system.retry_ratio",
        ratio(total.retries as f64, total.attempts as f64),
    );
    probed.set(
        "mem.system.port_util",
        ratio(total.slots_used as f64, total.slots_offered as f64),
    );
    let rate = ratio(total.accesses as f64, total.cycles as f64);
    probed.set("mem.system.refs_per_cycle", rate);
    let cell_rate = ratio(
        runs.iter().map(|run| run.mem_refs).sum::<u64>() as f64,
        runs.iter().map(|run| run.cycles).sum::<u64>() as f64,
    );
    probed
        .tally
        .record((rate / cell_rate - 1.0).abs() <= MEM_RATE_TOLERANCE);
}

/// `exec.cache`: store every headline document under its job's key in a
/// fresh cache, then look each one up.
fn cache(
    params: &Params,
    documents: &[(&Job, &(String, f64))],
    tracer: &Tracer,
    probed: &mut Probed,
) {
    let cache = ResultCache::new(params.work_dir.join("probe-cache"));
    tracer.span("exec.cache", || cache.clear()).ok();
    let mut store_secs = Vec::with_capacity(documents.len());
    for (job, (document, _)) in documents {
        let key = job.cache_key();
        let (stored, secs) = timed(|| tracer.span("exec.cache", || cache.store(&key, document)));
        probed.tally.record(stored.is_ok());
        store_secs.push(secs);
    }
    let mut lookup_secs = Vec::with_capacity(documents.len());
    for (job, (document, _)) in documents {
        let key = job.cache_key();
        let (found, secs) = timed(|| tracer.span("exec.cache", || cache.lookup(&key)));
        probed
            .tally
            .record(found.as_deref() == Some(document.as_str()));
        lookup_secs.push(secs);
    }
    probed.set("exec.cache.store_ms_p50", median(store_secs) * 1e3);
    probed.set("exec.cache.lookup_ms_p50", median(lookup_secs) * 1e3);
    let stats = tracer.span("exec.cache", || cache.stats());
    probed.set("exec.cache.bytes", stats.bytes as f64);
    tracer.span("exec.cache", || cache.clear()).ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpe_core::RecordedWorkload;
    use cpe_workloads::Scale;

    #[test]
    fn the_memory_probe_accepts_every_reference_and_retries_on_one_port() {
        let recorded = RecordedWorkload::record(Workload::Compress, Scale::Test, Some(4_000));
        let refs = recorded
            .iter()
            .filter(|record| record.mem_addr.is_some())
            .count() as u64;
        let naive = drive_memory(
            &SimConfig::naive_single_port(),
            recorded.trace(),
            Pace::BACK_TO_BACK,
        );
        let dual = drive_memory(
            &SimConfig::dual_port(),
            recorded.trace(),
            Pace::BACK_TO_BACK,
        );
        for work in [naive, dual] {
            assert!(work.completed);
            assert_eq!(
                work.accesses, refs,
                "every reference is eventually accepted"
            );
            assert_eq!(work.attempts, work.accesses + work.retries);
            assert!(work.slots_used <= work.slots_offered);
        }
        assert!(
            naive.retries > dual.retries,
            "one port refuses more: {naive:?} {dual:?}"
        );
        assert!(naive.cycles > dual.cycles);
    }

    #[test]
    fn a_paced_memory_probe_keeps_the_cell_rate() {
        let recorded = RecordedWorkload::record(Workload::Compress, Scale::Test, Some(4_000));
        let config = SimConfig::naive_single_port();
        let flat = drive_memory(&config, recorded.trace(), Pace::BACK_TO_BACK);
        let pace = Pace {
            insts: u64::MAX,
            refs: flat.accesses,
            cycles: 3 * flat.accesses,
        };
        let paced = drive_memory(&config, recorded.trace(), pace);
        assert!(paced.completed);
        assert_eq!(paced.accesses, flat.accesses);
        let rate = paced.accesses as f64 / paced.cycles as f64;
        assert!((rate * 3.0 - 1.0).abs() <= MEM_RATE_TOLERANCE, "{rate}");
        assert!(paced.retries < flat.retries, "{paced:?} {flat:?}");
    }
}
