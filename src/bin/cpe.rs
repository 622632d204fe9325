//! `cpe` — command-line front end to the simulation suite.
//!
//! ```text
//! cpe asm <file.s>                  assemble and print the listing
//! cpe trace <file.s> [-n N]         print the first N executed instructions
//! cpe trace record (--workload NAME [--scale S] | <file.s>) [--max N] [-o FILE]
//!                                   record a workload's or program's
//!                                   committed path to a CPER replay trace
//! cpe trace info <file.cper>        describe a recorded replay trace
//! cpe run <file.s> [--config NAME] [--max N] [--detail] [--metrics-json FILE]
//!                                   run the timing model, print the metrics
//! cpe profile --workload NAME [--config NAME] [--scale S] [--max N]
//!             [--interval N] [--ring N] [--trace-out FILE]
//!             [--trace-format chrome|jsonl] [--metrics-json FILE]
//!                                   instrumented run: interval metrics,
//!                                   trace-event capture, self-profile
//! cpe compare <file.s> [--max N] [--metrics-json FILE]
//!                                   run every design point, print a table
//! cpe explain <CONFIG_A> <CONFIG_B> [--workload NAME] [--scale S] [--max N]
//!                                   run both configs and rank the per-cause
//!                                   CPI deltas: where do the cycles go?
//! cpe pipeview --workload NAME [--config NAME] [--scale S] [--max N]
//!              [--ring N] [-o FILE]
//!                                   per-instruction pipeline view of the
//!                                   newest retained window, Konata format
//! cpe replay <file.cper> [--config NAME] [--max N]
//!                                   run the timing model over a recorded trace
//! cpe fuzz-trace [--cases N] [--seed S] [--config NAME]
//!                                   replay corrupted CPER recordings; fail on
//!                                   any panic
//! cpe bench [--name N] [--config NAME] [--max N] [--out FILE] [--jobs N]
//!                                   benchmark the simulator itself over the
//!                                   standard workloads; write BENCH_<name>.json
//! cpe sweep [--jobs N] [--scale S] [--max N] [--configs a,b] [--workloads x,y]
//!           [--backend direct|replay] [--no-cache] [--cache-dir DIR]
//!           [--metrics-json FILE] [--no-progress]
//!           [--coordinator ADDR [--lease-ms N] [--heartbeat-ms N]
//!            [--fabric-log FILE] [--fabric-trace FILE] [--fabric-metrics FILE]]
//!                                   run the config × workload grid through the
//!                                   parallel scheduler and result cache, or —
//!                                   with --coordinator — lease the grid out to
//!                                   `cpe worker` processes over TCP, with an
//!                                   optional JSONL event log, Chrome trace,
//!                                   and fleet metrics document on the side
//! cpe worker --connect ADDR [--name NAME] [--no-cache] [--cache-dir DIR]
//!                                   lease and run sweep cells from a
//!                                   coordinator; drains cleanly on SIGTERM
//! cpe status --connect ADDR [--timeout-ms N]
//!                                   query a live coordinator mid-sweep:
//!                                   progress counts plus a per-worker table
//! cpe validate <file>... [--jsonl] [--cpi]
//!                                   parse observability artifacts (JSON,
//!                                   JSONL, Konata pipeviews, or CPER
//!                                   replay traces) and check CPI-stack
//!                                   conservation at zero tolerance; exit 2
//!                                   on any malformed or slot-leaking input
//! cpe fuzz-fabric [--cases N] [--seed S]
//!                                   seeded chaos runs of the sweep fabric;
//!                                   exit 1 if any diverges from serial
//! cpe cache stats|clear [--cache-dir DIR]
//!                                   inspect or empty the result cache
//! cpe serve (--stdin | --listen ADDR) [--no-cache] [--cache-dir DIR]
//!           [--scale S] [--max N]
//!                                   serve line-delimited JSON job requests
//! cpe diff <a.json> <b.json> [--tolerance PCT]
//!                                   compare two exported JSON documents
//!                                   field by field; exit 1 on regression
//! cpe workloads                     list the built-in workload suite
//! cpe configs                       list the named machine configurations
//! cpe --version                     print the version and exit
//! ```
//!
//! Malformed numeric flags and unknown flags are rejected up front, and
//! every failure path exits with code 2 after a one-line diagnosis.
//! `cpe diff` alone exits 1 when the documents diverge beyond tolerance —
//! distinct from 2, so CI can tell a regression from a usage error.

use std::process::ExitCode;

use cpe::exec::{
    chaos, named_config, named_configs, query_status, run_worker, scale_by_name, workload_by_name,
    Coordinator, EventLog, FabricObserver, FabricOptions, ResultCache, ServeDefaults, Server,
    SweepPlan, SweepProgress, SweepResults, WorkerOptions, DEFAULT_CACHE_DIR,
    DEFAULT_EVENT_CAPACITY, FABRIC_SCHEMA,
};
use cpe::isa::replay::{parse_recorded, write_recorded, RecordedTrace, ReplayError, REPLAY_MAGIC};
use cpe::isa::{asm::assemble, Emulator, Program};
use cpe::stats::Table;
use cpe::trace::{build_records, chrome_trace_json, jsonl_record, konata_text, TraceHandle};
use cpe::workloads::{Scale, Workload};
use cpe::{
    diff_json, faultinject, profile_json, BackendKind, BenchReport, ProfileOptions, ProfiledRun,
    SimConfig, Simulator, RECORD_HEADROOM,
};

/// Resolve a configuration name (see `cpe configs`) or diagnose it.
fn config_named(name: &str) -> Result<SimConfig, String> {
    named_config(name).ok_or_else(|| format!("unknown config `{name}` (see `cpe configs`)"))
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|error| format!("cannot write `{path}`: {error}"))
}

fn load_program(path: &str) -> Result<Program, String> {
    let source =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
    assemble(&source).map_err(|error| format!("{path}: {error}"))
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|index| args.get(index + 1).cloned())
}

/// A numeric flag value; a malformed one is an error, never a silent
/// fallback to the default.
fn parse_number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match parse_flag(args, flag) {
        None => Ok(None),
        Some(text) => text.parse().map(Some).map_err(|_| {
            format!("invalid value for {flag}: `{text}` (expected a non-negative integer)")
        }),
    }
}

/// Reject flags a subcommand does not define. `value_flags` consume the
/// following argument; `switches` stand alone.
fn reject_unknown_flags(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut index = 0;
    while index < args.len() {
        let arg = args[index].as_str();
        if value_flags.contains(&arg) {
            if index + 1 >= args.len() {
                return Err(format!("{arg} needs a value"));
            }
            index += 2;
        } else if switches.contains(&arg) {
            index += 1;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`\n\n{}", usage()));
        } else {
            index += 1;
        }
    }
    Ok(())
}

fn cmd_asm(path: &str) -> Result<(), String> {
    let program = load_program(path)?;
    print!("{program}");
    println!(
        "\n{} instructions ({} bytes of text), {} bytes of data, {} symbols, entry {:#x}",
        program.text.len(),
        program.text_bytes(),
        program.data.len(),
        program.symbols.len(),
        program.entry
    );
    Ok(())
}

fn cmd_trace(path: &str, count: usize) -> Result<(), String> {
    let program = load_program(path)?;
    for (index, di) in Emulator::new(program).take(count).enumerate() {
        let mem = di
            .mem_addr
            .map(|addr| format!("  [{addr:#x}]"))
            .unwrap_or_default();
        let taken = if di.taken { "  (taken)" } else { "" };
        println!("{index:>6}  {:#010x}  {}{mem}{taken}", di.pc, di.inst);
    }
    Ok(())
}

fn resolve_config(config_name: Option<String>) -> Result<SimConfig, String> {
    config_named(config_name.as_deref().unwrap_or("combined_single_port"))
}

fn print_summary(summary: &cpe::RunSummary) {
    println!("{summary}");
    println!(
        "  mispredict {:.2}%  D-MPKI {:.2}  I-MPKI {:.2}  stores combined {:.1}%  \
         store-stall/kc {:.1}",
        summary.mispredict_rate * 100.0,
        summary.dcache_mpki,
        summary.icache_mpki,
        summary.store_combined_fraction * 100.0,
        summary.store_stall_per_kcycle
    );
}

fn cmd_run(
    path: &str,
    config_name: Option<String>,
    max: Option<u64>,
    detail: bool,
    metrics_json: Option<String>,
) -> Result<(), String> {
    let config = resolve_config(config_name)?;
    let program = load_program(path)?;
    let sim = Simulator::new(config);
    // Plain runs keep the direct path; --detail and --metrics-json go
    // through the profiling driver (identical timing, richer output).
    if detail || metrics_json.is_some() {
        let run = sim
            .try_profile_trace(path, Emulator::new(program), max, ProfileOptions::default())
            .map_err(|error| format!("{path}: {error}"))?;
        if let Some(out) = &metrics_json {
            write_file(out, &profile_json(&run, sim.config()))?;
        }
        if detail {
            println!("{}", cpe::detailed_report(&run.summary));
            println!("{}", run.self_profile.one_liner());
        } else {
            print_summary(&run.summary);
        }
    } else {
        let summary = sim.run_trace(path, Emulator::new(program), max);
        print_summary(&summary);
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let workload_name = parse_flag(args, "--workload")
        .ok_or_else(|| format!("profile needs --workload NAME\n\n{}", usage()))?;
    let workload = workload_by_name(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}` (see `cpe workloads`)"))?;
    let scale = parse_scale(args)?;
    let config = resolve_config(parse_flag(args, "--config"))?;
    let max = parse_number(args, "--max")?;
    let defaults = ProfileOptions::default();
    let options = ProfileOptions {
        interval: parse_number(args, "--interval")?.unwrap_or(defaults.interval),
        ring_capacity: parse_number(args, "--ring")?.unwrap_or(defaults.ring_capacity),
    };
    let trace_format = parse_flag(args, "--trace-format").unwrap_or_else(|| "chrome".to_string());
    if trace_format != "chrome" && trace_format != "jsonl" {
        return Err(format!(
            "unknown trace format `{trace_format}` (chrome, jsonl)"
        ));
    }

    let sim = Simulator::new(config);
    let run = sim
        .try_profile(workload, scale, max, options)
        .map_err(|error| format!("{workload_name}: {error}"))?;
    print_summary(&run.summary);
    println!(
        "epochs: {} × {} cycles",
        run.series.epochs.len(),
        run.series.interval
    );
    println!("  {}", run.series.ipc_series());
    println!("  {}", run.series.port_utilisation_series());

    if let Some(path) = parse_flag(args, "--trace-out") {
        let rendered = match trace_format.as_str() {
            "chrome" => chrome_trace_json(&run.events),
            _ => {
                let mut lines: Vec<String> = run.events.iter().map(jsonl_record).collect();
                lines.push(String::new()); // trailing newline
                lines.join("\n")
            }
        };
        write_file(&path, &rendered)?;
        println!(
            "wrote {} trace events to {path} ({trace_format})",
            run.events.len()
        );
        if !TraceHandle::CAPTURE {
            println!("note: built without the `trace` feature — no events were captured");
        }
    }
    if let Some(path) = parse_flag(args, "--metrics-json") {
        write_file(&path, &profile_json(&run, sim.config()))?;
        println!("wrote metrics to {path}");
    }
    println!("{}", run.self_profile.one_liner());
    Ok(())
}

fn cmd_compare(path: &str, max: Option<u64>, metrics_json: Option<String>) -> Result<(), String> {
    let program = load_program(path)?;
    let mut table = Table::new(["config", "IPC", "cycles", "port util %", "portless loads %"]);
    let mut profiles: Vec<(SimConfig, ProfiledRun)> = Vec::new();
    for config in named_configs() {
        let name = config.name.clone();
        let sim = Simulator::new(config);
        // The profiled and plain paths produce identical summaries; the
        // sweep only pays for profiling when it will export the series.
        let summary = if metrics_json.is_some() {
            let run = sim
                .try_profile_trace(
                    path,
                    Emulator::new(program.clone()),
                    max,
                    ProfileOptions::default(),
                )
                .map_err(|error| format!("{path}: {error}"))?;
            let summary = run.summary.clone();
            profiles.push((sim.config().clone(), run));
            summary
        } else {
            sim.run_trace(path, Emulator::new(program.clone()), max)
        };
        table.row([
            name,
            format!("{:.3}", summary.ipc),
            summary.cycles.to_string(),
            format!("{:.1}", summary.port_utilisation * 100.0),
            format!("{:.1}", summary.portless_load_fraction * 100.0),
        ]);
    }
    println!("{table}");
    if let Some(out) = metrics_json {
        let runs: Vec<String> = profiles
            .iter()
            .map(|(config, run)| profile_json(run, config))
            .collect();
        write_file(
            &out,
            &format!(
                "{{\"schema\":{},\"runs\":[{}]}}",
                cpe::METRICS_SCHEMA,
                runs.join(",")
            ),
        )?;
        println!("wrote metrics for {} configs to {out}", runs.len());
    }
    Ok(())
}

/// Positional (non-flag) arguments, skipping the operands of value flags.
fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut index = 0;
    while index < args.len() {
        let arg = args[index].as_str();
        if value_flags.contains(&arg) {
            index += 2;
        } else if arg.starts_with('-') {
            index += 1;
        } else {
            out.push(&args[index]);
            index += 1;
        }
    }
    out
}

/// `cpe explain A B`: run both configurations on the same workload and
/// rank the per-cause CPI deltas. The CPI stacks conserve commit slots,
/// so the table accounts for the whole performance gap — on a port-bound
/// workload the `dcache_port_conflict` row is the headline.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let names = positionals(args, &["--workload", "--scale", "--max"]);
    let [a_name, b_name] = names[..] else {
        return Err(format!(
            "explain needs exactly two config names (see `cpe configs`)\n\n{}",
            usage()
        ));
    };
    let a_config = config_named(a_name)?;
    let b_config = config_named(b_name)?;
    let workload_name = parse_flag(args, "--workload").unwrap_or_else(|| "compress".to_string());
    let workload = workload_by_name(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}` (see `cpe workloads`)"))?;
    let scale = parse_scale(args)?;
    let max = Some(parse_number(args, "--max")?.unwrap_or(20_000));
    let a = Simulator::new(a_config).run(workload, scale, max);
    let b = Simulator::new(b_config).run(workload, scale, max);
    println!("{}", cpe::explain_report(&a, &b));
    Ok(())
}

/// `cpe pipeview`: profile a workload with event capture on and render
/// the retained window as per-instruction lifecycles in the Konata
/// pipeline-viewer text format.
fn cmd_pipeview(args: &[String]) -> Result<(), String> {
    let workload_name = parse_flag(args, "--workload")
        .ok_or_else(|| format!("pipeview needs --workload NAME\n\n{}", usage()))?;
    let workload = workload_by_name(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}` (see `cpe workloads`)"))?;
    let scale = parse_scale(args)?;
    let config = resolve_config(parse_flag(args, "--config"))?;
    let max = parse_number(args, "--max")?;
    let defaults = ProfileOptions::default();
    let options = ProfileOptions {
        ring_capacity: parse_number(args, "--ring")?.unwrap_or(defaults.ring_capacity),
        ..defaults
    };
    let out = parse_flag(args, "-o").unwrap_or_else(|| "pipeview.kanata".to_string());
    let sim = Simulator::new(config);
    let run = sim
        .try_profile(workload, scale, max, options)
        .map_err(|error| format!("{workload_name}: {error}"))?;
    let records = build_records(&run.events);
    write_file(&out, &konata_text(&records))?;
    println!(
        "wrote {} instruction lifecycle(s) to {out} \
         (Konata format: https://github.com/shioyadan/Konata)",
        records.len()
    );
    if !TraceHandle::CAPTURE {
        println!("note: built without the `trace` feature — no events were captured");
    } else if let Some(ring) = &run.self_profile.ring {
        if ring.dropped > 0 {
            println!(
                "note: ring dropped {} event(s); the view covers the newest \
                 window (grow it with --ring)",
                ring.dropped
            );
        }
    }
    Ok(())
}

/// `file:offset:` diagnosis for a malformed replay trace — pointing at
/// the exact byte when the error carries one (truncation, bad flags, bad
/// dictionary index).
fn replay_diagnosis(path: &str, error: &ReplayError) -> String {
    match error.offset() {
        Some(offset) => format!("{path}:{offset}: {error}"),
        None => format!("{path}: {error}"),
    }
}

/// `cpe trace record`: run a workload (`--workload NAME`) or an
/// assembly program (`<file.s>`) functionally and save its committed
/// path as a compact CPER replay trace. With `--max N` the recording
/// keeps the same headroom past the window the replay backend records,
/// so replaying it reproduces a direct `--max N` run exactly.
fn cmd_trace_record(args: &[String]) -> Result<(), String> {
    let max: Option<u64> = parse_number(args, "--max")?;
    let cap = max.map(|max| max.saturating_add(RECORD_HEADROOM));
    let programs = positionals(args, &["--workload", "--scale", "--max", "-o"]);
    let (label, trace, default_out) = match (parse_flag(args, "--workload"), &programs[..]) {
        (Some(name), []) => {
            let workload = workload_by_name(&name)
                .ok_or_else(|| format!("unknown workload `{name}` (see `cpe workloads`)"))?;
            let trace = RecordedTrace::record(workload.trace(parse_scale(args)?), cap);
            let out = format!("{name}.cper");
            (name, trace, out)
        }
        (None, [path]) => {
            if parse_flag(args, "--scale").is_some() {
                return Err("--scale applies to --workload recordings only".to_string());
            }
            let trace = RecordedTrace::record(Emulator::new(load_program(path)?), cap);
            let out = std::path::Path::new(path.as_str())
                .with_extension("cper")
                .display()
                .to_string();
            (path.to_string(), trace, out)
        }
        _ => {
            return Err(format!(
                "trace record needs --workload NAME or one program <file.s>\n\n{}",
                usage()
            ))
        }
    };
    let out = parse_flag(args, "-o").unwrap_or(default_out);
    let file =
        std::fs::File::create(&out).map_err(|error| format!("cannot create `{out}`: {error}"))?;
    let bytes = write_recorded(std::io::BufWriter::new(file), &trace)
        .map_err(|error| format!("cannot write `{out}`: {error}"))?;
    let info = trace.info();
    println!(
        "recorded {} instruction(s) of {label} to {out}: {bytes} bytes \
         ({:.2} bytes/record, {} dict entries{})",
        info.records,
        info.bytes_per_record(),
        info.dict_entries,
        if info.complete {
            ", complete run"
        } else {
            ", capped"
        }
    );
    Ok(())
}

/// `cpe trace info`: parse and fully validate a CPER replay trace, then
/// describe it.
fn cmd_trace_info(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
    let trace = parse_recorded(&bytes).map_err(|error| replay_diagnosis(path, &error))?;
    let info = trace.info();
    let window = match info.window {
        Some(cap) => format!("recording cap {cap}"),
        None => "uncapped".to_string(),
    };
    println!(
        "{path}: CPER replay trace, {} record(s) ({}), {}, {} dict entries, \
         {} payload bytes ({:.2} bytes/record)",
        info.records,
        if info.complete {
            "complete run"
        } else {
            "capped"
        },
        window,
        info.dict_entries,
        info.payload_bytes,
        info.bytes_per_record()
    );
    Ok(())
}

/// `cpe replay`: time a CPER recording. The file is validated whole
/// first, so corruption exits with a `file:offset:` diagnosis before any
/// cycle runs.
fn cmd_replay(path: &str, config_name: Option<String>, max: Option<u64>) -> Result<(), String> {
    let config = resolve_config(config_name)?;
    let bytes = std::fs::read(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
    let trace = parse_recorded(&bytes).map_err(|error| replay_diagnosis(path, &error))?;
    // A capped recording holds its window plus the headroom the core
    // fetches ahead; asking for more would time a drained stream.
    let covered = trace.records().saturating_sub(RECORD_HEADROOM);
    if !trace.complete() && max.is_none_or(|max| max > covered) {
        return Err(format!(
            "{path}: the recording is capped at {} record(s); pass --max {covered} or less",
            trace.records()
        ));
    }
    let summary = Simulator::new(config)
        .try_run_trace(path, trace.iter(), max)
        .map_err(|error| format!("{path}: {error}"))?;
    println!("{summary}");
    Ok(())
}

fn cmd_fuzz_trace(config_name: Option<String>, cases: u64, seed: u64) -> Result<(), String> {
    let config = resolve_config(config_name)?;
    println!("config: {config}");
    println!("seed: {seed:#x}");
    let report = faultinject::fuzz_traces(&config, cases, seed);
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "fuzzing violated the no-panic contract in {} case(s)",
            report.panics.len()
        ))
    }
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let config = resolve_config(parse_flag(args, "--config"))?;
    let name = parse_flag(args, "--name").unwrap_or_else(|| config.name.replace(' ', "_"));
    let max = parse_number(args, "--max")?.unwrap_or(20_000);
    let out = parse_flag(args, "--out").unwrap_or_else(|| format!("BENCH_{name}.json"));
    let jobs: usize = parse_number(args, "--jobs")?.unwrap_or(1);
    let report =
        BenchReport::run(&name, &config, max, jobs).map_err(|error| format!("bench: {error}"))?;
    println!("{report}");
    write_file(&out, &report.to_json())?;
    println!("wrote {out}");
    Ok(())
}

/// Split a `--configs`/`--workloads` comma list, resolving each name.
fn parse_names<T>(
    text: &str,
    kind: &str,
    resolve: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    text.split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| resolve(name).ok_or_else(|| format!("unknown {kind} `{name}`")))
        .collect()
}

fn open_cache(args: &[String]) -> Option<ResultCache> {
    if args.iter().any(|arg| arg == "--no-cache") {
        None
    } else {
        let dir = parse_flag(args, "--cache-dir").unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
        Some(ResultCache::new(dir))
    }
}

fn parse_scale(args: &[String]) -> Result<Scale, String> {
    let name = parse_flag(args, "--scale").unwrap_or_else(|| "test".to_string());
    scale_by_name(&name).ok_or_else(|| format!("unknown scale `{name}` (test, small, full)"))
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let jobs: usize = parse_number(args, "--jobs")?.unwrap_or(0);
    let scale = parse_scale(args)?;
    let max = Some(parse_number(args, "--max")?.unwrap_or(20_000));
    let mut plan = SweepPlan::standard(scale, max);
    if let Some(text) = parse_flag(args, "--configs") {
        plan.configs = parse_names(&text, "config", named_config)?;
    }
    if let Some(text) = parse_flag(args, "--workloads") {
        plan.workloads = parse_names(&text, "workload", workload_by_name)?;
    }
    if let Some(name) = parse_flag(args, "--backend") {
        plan.backend = BackendKind::from_name(&name)
            .ok_or_else(|| format!("unknown backend `{name}` (direct, replay)"))?;
    }
    // The whole grid is validated here, before any cell is scheduled: a
    // bad configuration is a usage error (exit 2), not N failed cells.
    plan.validate().map_err(|error| error.to_string())?;
    let results = if let Some(address) = parse_flag(args, "--coordinator") {
        if args.iter().any(|arg| arg == "--jobs") {
            return Err("--jobs does not apply with --coordinator \
                        (parallelism comes from the workers)"
                .to_string());
        }
        if plan.backend == BackendKind::Replay {
            return Err("--backend replay does not apply with --coordinator: \
                        the recording store does not cross process boundaries, \
                        so fabric workers always run direct"
                .to_string());
        }
        run_fabric_sweep(args, plan, &address)?
    } else {
        for flag in ["--fabric-log", "--fabric-trace", "--fabric-metrics"] {
            if args.iter().any(|arg| arg == flag) {
                return Err(format!("{flag} applies only with --coordinator"));
            }
        }
        let cache = open_cache(args);
        let progress = sweep_progress(args, &plan);
        plan.run_with_progress(jobs, cache.as_ref(), progress.as_ref())
            .map_err(|error| error.to_string())?
    };
    println!("{}", results.ipc_table());
    if let Some(out) = parse_flag(args, "--metrics-json") {
        write_file(&out, &results.aggregate_json())?;
        eprintln!("wrote sweep metrics to {out}");
    }
    // The cache/timing footer is observability, not output: it goes to
    // stderr so stdout stays byte-identical across cache states.
    eprintln!("{}", results.stats);
    if results.stats.failed > 0 {
        return Err(format!("{} cell(s) failed", results.stats.failed));
    }
    Ok(())
}

/// The live progress line, unless `--no-progress` asked for silence.
/// TTY detection is inside [`SweepProgress::auto`]: interactive runs
/// get an in-place line, piped stderr gets occasional plain lines.
fn sweep_progress(args: &[String], plan: &SweepPlan) -> Option<SweepProgress> {
    if args.iter().any(|arg| arg == "--no-progress") {
        None
    } else {
        Some(SweepProgress::auto(plan.jobs().len()))
    }
}

/// The distributed arm of `cpe sweep`: listen on `address`, lease the
/// grid out to connecting `cpe worker` processes, and assemble their
/// results through the same path the local scheduler uses — so the
/// table and metrics document are byte-identical either way.
///
/// All observability is opt-in and side-channel: `--fabric-log` streams
/// JSONL events, `--fabric-trace` renders a Chrome trace, and
/// `--fabric-metrics` writes the fleet counters — none of them touch
/// the stdout table or the `--metrics-json` document.
fn run_fabric_sweep(
    args: &[String],
    plan: SweepPlan,
    address: &str,
) -> Result<SweepResults, String> {
    let defaults = FabricOptions::default();
    let options = FabricOptions {
        lease_ttl: parse_number(args, "--lease-ms")?
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.lease_ttl),
        heartbeat: parse_number(args, "--heartbeat-ms")?
            .map(std::time::Duration::from_millis)
            .unwrap_or(defaults.heartbeat),
        ..defaults
    };
    if options.lease_ttl <= options.heartbeat {
        return Err(format!(
            "--lease-ms ({:?}) must exceed --heartbeat-ms ({:?}), or every \
             lease expires between heartbeats",
            options.lease_ttl, options.heartbeat
        ));
    }
    // Single-job serve requests share the coordinator's listener; the
    // cache flags apply to those (workers own their caches locally).
    let serve_defaults = ServeDefaults {
        scale: plan.scale,
        max_insts: plan.max_insts,
    };
    let server = Server::new(open_cache(args), serve_defaults);
    let log = match parse_flag(args, "--fabric-log") {
        Some(path) => Some(EventLog::create(&path, DEFAULT_EVENT_CAPACITY)?),
        None => None,
    };
    let trace_out = parse_flag(args, "--fabric-trace");
    let observer = FabricObserver::new(log, trace_out.is_some(), sweep_progress(args, &plan));
    let coordinator = Coordinator::with_observer(plan.jobs(), options, observer);
    let listener = std::net::TcpListener::bind(address)
        .map_err(|error| format!("cannot listen on `{address}`: {error}"))?;
    eprintln!("coordinating {} cell(s) on {address} (start workers with `cpe worker --connect {address}`)",
        plan.jobs().len());
    let report = coordinator
        .run(listener, &server)
        .map_err(|error| format!("coordinator: {error}"))?;
    if let Some(path) = &trace_out {
        let rendered = report.trace_json.as_deref().unwrap_or("");
        write_file(path, rendered)?;
        eprintln!("wrote fabric trace to {path}");
    }
    if let Some(path) = parse_flag(args, "--fabric-metrics") {
        write_file(&path, &report.fabric_json())?;
        eprintln!("wrote fabric metrics to {path}");
    }
    eprintln!("{}", report.stats);
    // The fleet footer: one line per worker session, then the latency
    // distributions — stderr only, like every other footer line.
    for worker in &report.workers {
        eprintln!("{worker}");
    }
    if let (Some(p50), Some(p99)) = (report.lease_latency_ms.p50(), report.lease_latency_ms.p99()) {
        eprint!("fabric: lease latency p50 {p50}ms p99 {p99}ms");
        if let (Some(w50), Some(w99)) = (report.cell_wall_ms.p50(), report.cell_wall_ms.p99()) {
            eprint!(", cell wall p50 {w50}ms p99 {w99}ms");
        }
        eprintln!();
    }
    if let Some(log) = &report.log {
        eprintln!("fabric log: {log}");
    }
    if server.jobs_served() > 0 {
        eprintln!(
            "also served {} single-job request(s): {}",
            server.jobs_served(),
            server.stats_json()
        );
    }
    let workers = report.stats.workers_seen.max(1) as usize;
    let wall = report.stats.wall_seconds;
    Ok(SweepResults::assemble(
        plan,
        report.outcomes,
        workers,
        0,
        wall,
    ))
}

/// `cpe status --connect ADDR`: one query frame against a live
/// coordinator, rendered as a summary line plus a per-worker table.
fn cmd_status(args: &[String]) -> Result<(), String> {
    let address = parse_flag(args, "--connect")
        .ok_or_else(|| format!("status needs --connect ADDR\n\n{}", usage()))?;
    let timeout_ms: u64 = parse_number(args, "--timeout-ms")?.unwrap_or(2_000);
    let status = query_status(
        &address,
        u64::from(FABRIC_SCHEMA),
        std::time::Duration::from_millis(timeout_ms.max(1)),
    )?;
    println!(
        "sweep: {}/{} cell(s) done, {} failed, {} leased, {} queued, {} in backoff ({:.1}s elapsed)",
        status.done,
        status.cells,
        status.failed,
        status.leased,
        status.queued,
        status.backoff,
        status.elapsed_ms as f64 / 1.0e3
    );
    if status.workers.is_empty() {
        println!("no workers have connected yet");
        return Ok(());
    }
    let mut table = Table::new([
        "session",
        "worker",
        "state",
        "cells",
        "hits",
        "misses",
        "nacks",
        "last seen",
    ]);
    for worker in &status.workers {
        table.row([
            worker.session.to_string(),
            worker.worker.clone(),
            if worker.connected { "up" } else { "gone" }.to_string(),
            worker.cells.to_string(),
            worker.hits.to_string(),
            worker.misses.to_string(),
            worker.nacks.to_string(),
            format!("{:.1}s ago", worker.last_seen_ms as f64 / 1.0e3),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// `cpe validate FILE...`: parse observability artifacts — fabric JSONL
/// event logs (by `--jsonl` or a `.jsonl` suffix) line by line, Konata
/// pipeviews (by their `Kanata` header or a `.kanata` suffix)
/// structurally, anything else as one JSON document. Any malformed input
/// is a hard error; JSON documents that embed `cpi_stack` objects are
/// additionally checked for exact commit-slot conservation, and `--cpi`
/// makes the *absence* of a stack an error too.
fn cmd_validate(args: &[String]) -> Result<(), String> {
    let jsonl_flag = args.iter().any(|arg| arg == "--jsonl");
    let cpi_flag = args.iter().any(|arg| arg == "--cpi");
    let paths: Vec<&String> = args.iter().filter(|arg| !arg.starts_with('-')).collect();
    if paths.is_empty() {
        return Err(format!("validate needs at least one FILE\n\n{}", usage()));
    }
    for path in paths {
        let bytes =
            std::fs::read(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
        // Recorded replay traces are binary; recognise them by magic
        // before any text decoding, and validate every record eagerly so
        // truncation is diagnosed with its exact byte offset.
        if bytes.starts_with(&REPLAY_MAGIC) {
            let trace = parse_recorded(&bytes).map_err(|error| replay_diagnosis(path, &error))?;
            let info = trace.info();
            println!(
                "{path}: ok (CPER replay trace, {} record(s), {} dict entries)",
                info.records, info.dict_entries
            );
            continue;
        }
        let contents =
            String::from_utf8(bytes).map_err(|error| format!("{path}: not UTF-8 text: {error}"))?;
        if jsonl_flag || path.ends_with(".jsonl") {
            let mut lines = 0usize;
            for (index, line) in contents.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                cpe::exec::render::parse(line)
                    .map_err(|error| format!("{path}:{}: {error}", index + 1))?;
                lines += 1;
            }
            println!("{path}: ok ({lines} event line(s))");
        } else if contents.starts_with("Kanata\t") || path.ends_with(".kanata") {
            let summary = cpe::trace::validate_konata(&contents)
                .map_err(|error| format!("{path}: {error}"))?;
            println!(
                "{path}: ok (Konata pipeview, {} instruction(s), {} retired, last cycle {})",
                summary.instructions, summary.retired, summary.last_cycle
            );
        } else {
            cpe::exec::render::parse(&contents).map_err(|error| format!("{path}: {error}"))?;
            if cpi_flag || contents.contains("\"cpi_stack\"") {
                let doc = cpe::parse_json(&contents).map_err(|error| format!("{path}: {error}"))?;
                let checked =
                    cpe::validate_cpi_stacks(&doc).map_err(|error| format!("{path}: {error}"))?;
                if cpi_flag && checked == 0 {
                    return Err(format!(
                        "{path}: --cpi given but the document has no cpi_stack object"
                    ));
                }
                println!("{path}: ok ({checked} CPI stack(s) conserve commit slots)");
            } else {
                println!("{path}: ok");
            }
        }
    }
    Ok(())
}

/// `SIGTERM`/`SIGINT` raise this flag; the worker drains its current
/// lease and exits cleanly instead of abandoning it mid-run.
static WORKER_STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_worker_stop_handler() {
    extern "C" fn raise_stop(_signum: i32) {
        WORKER_STOP.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // Store-to-an-atomic is the only thing the handler does, which is
    // async-signal-safe; no libc crate needed for two constants.
    unsafe {
        signal(SIGTERM, raise_stop as *const () as usize);
        signal(SIGINT, raise_stop as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_worker_stop_handler() {}

fn cmd_worker(args: &[String]) -> Result<(), String> {
    let address = parse_flag(args, "--connect")
        .ok_or_else(|| format!("worker needs --connect ADDR\n\n{}", usage()))?;
    let mut options = WorkerOptions::default();
    if let Some(name) = parse_flag(args, "--name") {
        options.name = name;
    }
    let cache = open_cache(args);
    install_worker_stop_handler();
    let summary = run_worker(&address, cache.as_ref(), &options, &WORKER_STOP)
        .map_err(|error| format!("worker: {error}"))?;
    eprintln!("{summary}");
    Ok(())
}

/// Seeded chaos runs of the fabric. `Ok(true)` means every case held the
/// byte-identity promise (exit 0); `Ok(false)` means at least one
/// diverged, failed, or hung short of convergence (exit 1).
fn cmd_fuzz_fabric(cases: u64, seed: u64) -> Result<bool, String> {
    println!("seed: {seed:#x}, {cases} case(s)");
    let mut clean = true;
    for case in 0..cases {
        let case_seed = seed.wrapping_add(case);
        match chaos::chaos_case(case_seed) {
            Ok(run) => println!("case {case} (seed {case_seed:#x}): ok — {}", run.stats),
            Err(diagnosis) => {
                println!("case {case} (seed {case_seed:#x}): FAILED — {diagnosis}");
                clean = false;
            }
        }
    }
    if clean {
        println!("all {cases} case(s) byte-identical to serial");
    }
    Ok(clean)
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let dir = parse_flag(args, "--cache-dir").unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
    let cache = ResultCache::new(&dir);
    match args.first().map(String::as_str) {
        Some("stats") => {
            println!("{} ({})", cache.stats(), dir);
            Ok(())
        }
        Some("clear") => {
            let removed = cache
                .clear()
                .map_err(|error| format!("cannot clear `{dir}`: {error}"))?;
            println!("removed {removed} cached result(s) from {dir}");
            Ok(())
        }
        _ => Err(format!(
            "cache needs a subcommand: stats, clear\n\n{}",
            usage()
        )),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let stdin_mode = args.iter().any(|arg| arg == "--stdin");
    let listen = parse_flag(args, "--listen");
    if stdin_mode == listen.is_some() {
        return Err(format!(
            "serve needs exactly one of --stdin or --listen ADDR\n\n{}",
            usage()
        ));
    }
    let defaults = ServeDefaults {
        scale: parse_scale(args)?,
        max_insts: Some(parse_number(args, "--max")?.unwrap_or(20_000)),
    };
    let server = Server::new(open_cache(args), defaults);
    if stdin_mode {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        server
            .serve_stream(stdin.lock(), stdout.lock())
            .map_err(|error| format!("serve: {error}"))?;
    } else {
        let address = listen.expect("checked above");
        let listener = std::net::TcpListener::bind(&address)
            .map_err(|error| format!("cannot listen on `{address}`: {error}"))?;
        eprintln!("serving on {address} (send {{\"cmd\":\"shutdown\"}} to stop)");
        server
            .serve_tcp(listener)
            .map_err(|error| format!("serve: {error}"))?;
    }
    eprintln!(
        "served {} job(s): {}",
        server.jobs_served(),
        server.stats_json()
    );
    Ok(())
}

/// Compare two exported JSON documents. `Ok(true)` means clean (exit 0);
/// `Ok(false)` means they diverge beyond tolerance (exit 1).
fn cmd_diff(a_path: &str, b_path: &str, tolerance_pct: f64) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|error| format!("cannot read `{path}`: {error}"))
    };
    let a = read(a_path)?;
    let b = read(b_path)?;
    let report = diff_json(&a, &b, tolerance_pct / 100.0)
        .map_err(|error| format!("{a_path} vs {b_path}: {error}"))?;
    if report.is_clean() {
        println!(
            "{a_path} and {b_path} match: {} leaves within {tolerance_pct}% tolerance",
            report.compared
        );
        Ok(true)
    } else {
        println!("{a_path} -> {b_path}:");
        println!("{report}");
        println!("{} diverging leaves", report.entries.len());
        Ok(false)
    }
}

fn cmd_workloads() {
    let mut table = Table::new(["name", "description", "test-scale dyn. insts"]);
    for workload in Workload::EXTENDED {
        table.row([
            workload.name().to_string(),
            workload.description().to_string(),
            workload.trace(Scale::Test).count().to_string(),
        ]);
    }
    println!("{table}");
}

fn cmd_configs() {
    let mut table = Table::new(["name", "summary"]);
    for config in named_configs() {
        table.row([config.name.clone(), config.to_string()]);
    }
    println!("{table}");
}

fn usage() -> &'static str {
    "usage:\n  cpe asm <file.s>\n  cpe trace <file.s> [-n N]\n  \
     cpe trace record (--workload NAME [--scale S] | <file.s>) [--max N] [-o FILE]\n  \
     cpe trace info <file.cper>\n  cpe run <file.s> \
     [--config NAME] [--max N] [--detail] [--metrics-json FILE]\n  cpe profile \
     --workload NAME [--config NAME] [--scale test|small|full] [--max N]\n              \
     [--interval N] [--ring N] [--trace-out FILE] [--trace-format chrome|jsonl]\n              \
     [--metrics-json FILE]\n  cpe compare <file.s> [--max N] [--metrics-json FILE]\n  \
     cpe explain <CONFIG_A> <CONFIG_B> [--workload NAME] [--scale S] [--max N]\n  \
     cpe pipeview --workload NAME [--config NAME] [--scale S] [--max N]\n               \
     [--ring N] [-o FILE]\n  \
     cpe replay <file.cper> [--config NAME] [--max N]\n  \
     cpe fuzz-trace [--cases N] [--seed S] [--config NAME]\n  \
     cpe bench [--name N] [--config NAME] [--max N] [--out FILE] [--jobs N]\n  \
     cpe sweep [--jobs N] [--scale test|small|full] [--max N] [--configs a,b]\n            \
     [--workloads x,y] [--backend direct|replay] [--no-cache] [--cache-dir DIR]\n            \
     [--metrics-json FILE]\n            \
     [--no-progress] [--coordinator ADDR [--lease-ms N] [--heartbeat-ms N]\n            \
     [--fabric-log FILE] [--fabric-trace FILE] [--fabric-metrics FILE]]\n  \
     cpe worker --connect ADDR [--name NAME] [--no-cache] [--cache-dir DIR]\n  \
     cpe status --connect ADDR [--timeout-ms N]\n  \
     cpe validate <file.json|file.jsonl|file.kanata>... [--jsonl] [--cpi]\n  \
     cpe fuzz-fabric [--cases N] [--seed S]\n  \
     cpe cache stats|clear [--cache-dir DIR]\n  \
     cpe serve (--stdin | --listen ADDR) [--no-cache] [--cache-dir DIR]\n            \
     [--scale test|small|full] [--max N]\n  \
     cpe diff <a.json> <b.json> [--tolerance PCT]\n  cpe workloads\n  cpe configs\n  \
     cpe --version"
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    // Most commands exit 0 on success; `diff` alone maps a clean compare
    // to 0 and a beyond-tolerance divergence to 1.
    let done = |result: Result<(), String>| result.map(|()| ExitCode::SUCCESS);
    match args.first().map(String::as_str) {
        Some("--version" | "-V") => {
            println!("cpe {}", env!("CARGO_PKG_VERSION"));
            Ok(ExitCode::SUCCESS)
        }
        Some("asm") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &[], &[])?;
            done(cmd_asm(&args[1]))
        }
        Some("trace") if args.get(1).map(String::as_str) == Some("record") => {
            reject_unknown_flags(&args[2..], &["--workload", "--scale", "--max", "-o"], &[])?;
            done(cmd_trace_record(&args[2..]))
        }
        Some("trace") if args.get(1).map(String::as_str) == Some("info") => {
            reject_unknown_flags(&args[2..], &[], &[])?;
            let path = args
                .get(2)
                .ok_or_else(|| format!("trace info needs a FILE\n\n{}", usage()))?;
            done(cmd_trace_info(path))
        }
        Some("trace") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &["-n"], &[])?;
            let count = parse_number(args, "-n")?.unwrap_or(50);
            done(cmd_trace(&args[1], count))
        }
        Some("run") if args.len() >= 2 => {
            reject_unknown_flags(
                &args[1..],
                &["--config", "--max", "--metrics-json"],
                &["--detail"],
            )?;
            let max = parse_number(args, "--max")?;
            let detail = args.iter().any(|arg| arg == "--detail");
            done(cmd_run(
                &args[1],
                parse_flag(args, "--config"),
                max,
                detail,
                parse_flag(args, "--metrics-json"),
            ))
        }
        Some("profile") => {
            reject_unknown_flags(
                &args[1..],
                &[
                    "--workload",
                    "--config",
                    "--scale",
                    "--max",
                    "--interval",
                    "--ring",
                    "--trace-out",
                    "--trace-format",
                    "--metrics-json",
                ],
                &[],
            )?;
            done(cmd_profile(args))
        }
        Some("compare") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &["--max", "--metrics-json"], &[])?;
            let max = parse_number(args, "--max")?;
            done(cmd_compare(
                &args[1],
                max,
                parse_flag(args, "--metrics-json"),
            ))
        }
        Some("explain") => {
            reject_unknown_flags(&args[1..], &["--workload", "--scale", "--max"], &[])?;
            done(cmd_explain(&args[1..]))
        }
        Some("pipeview") => {
            reject_unknown_flags(
                &args[1..],
                &["--workload", "--config", "--scale", "--max", "--ring", "-o"],
                &[],
            )?;
            done(cmd_pipeview(&args[1..]))
        }
        Some("replay") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &["--config", "--max"], &[])?;
            let max = parse_number(args, "--max")?;
            done(cmd_replay(&args[1], parse_flag(args, "--config"), max))
        }
        Some("fuzz-trace") => {
            reject_unknown_flags(&args[1..], &["--config", "--cases", "--seed"], &[])?;
            let cases = parse_number(args, "--cases")?.unwrap_or(500);
            let seed = parse_number(args, "--seed")?.unwrap_or(0xC0FFEE);
            done(cmd_fuzz_trace(parse_flag(args, "--config"), cases, seed))
        }
        Some("bench") => {
            reject_unknown_flags(
                &args[1..],
                &["--name", "--config", "--max", "--out", "--jobs"],
                &[],
            )?;
            done(cmd_bench(args))
        }
        Some("sweep") => {
            reject_unknown_flags(
                &args[1..],
                &[
                    "--jobs",
                    "--scale",
                    "--max",
                    "--configs",
                    "--workloads",
                    "--backend",
                    "--cache-dir",
                    "--metrics-json",
                    "--coordinator",
                    "--lease-ms",
                    "--heartbeat-ms",
                    "--fabric-log",
                    "--fabric-trace",
                    "--fabric-metrics",
                ],
                &["--no-cache", "--no-progress"],
            )?;
            done(cmd_sweep(args))
        }
        Some("status") => {
            reject_unknown_flags(&args[1..], &["--connect", "--timeout-ms"], &[])?;
            done(cmd_status(args))
        }
        Some("validate") if args.len() >= 2 => {
            reject_unknown_flags(&args[1..], &[], &["--jsonl", "--cpi"])?;
            done(cmd_validate(&args[1..]))
        }
        Some("worker") => {
            reject_unknown_flags(
                &args[1..],
                &["--connect", "--name", "--cache-dir"],
                &["--no-cache"],
            )?;
            done(cmd_worker(args))
        }
        Some("fuzz-fabric") => {
            reject_unknown_flags(&args[1..], &["--cases", "--seed"], &[])?;
            let cases = parse_number(args, "--cases")?.unwrap_or(10);
            let seed = parse_number(args, "--seed")?.unwrap_or(0xFAB);
            if cmd_fuzz_fabric(cases, seed)? {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(1))
            }
        }
        Some("cache") => {
            reject_unknown_flags(&args[1..], &["--cache-dir"], &[])?;
            done(cmd_cache(&args[1..]))
        }
        Some("serve") => {
            reject_unknown_flags(
                &args[1..],
                &["--listen", "--scale", "--max", "--cache-dir"],
                &["--stdin", "--no-cache"],
            )?;
            done(cmd_serve(args))
        }
        Some("diff") if args.len() >= 3 => {
            reject_unknown_flags(&args[3..], &["--tolerance"], &[])?;
            let tolerance = match parse_flag(args, "--tolerance") {
                None => 5.0,
                Some(text) => match text.parse::<f64>() {
                    Ok(value) if value >= 0.0 && value.is_finite() => value,
                    _ => {
                        return Err(format!(
                            "invalid value for --tolerance: `{text}` \
                             (expected a non-negative percentage)"
                        ))
                    }
                },
            };
            if cmd_diff(&args[1], &args[2], tolerance)? {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(1))
            }
        }
        Some("workloads") => {
            reject_unknown_flags(&args[1..], &[], &[])?;
            cmd_workloads();
            Ok(ExitCode::SUCCESS)
        }
        Some("configs") => {
            reject_unknown_flags(&args[1..], &[], &[])?;
            cmd_configs();
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage().to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
