//! `cpe-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable summary, then (as its last line) the JSON
//! result. Exits 0 when a result was printed, 2 on a usage error and 1
//! when the result could not be assembled.
//!
//! Maintenance mode: `--digests` prints a fresh `expected.txt`.

use std::path::PathBuf;
use std::process::ExitCode;

use cpe_perfbench::check::{render_expected, Digests};
use cpe_perfbench::report::{self, END_TO_END, PER_LAYER};
use cpe_perfbench::run::{self, Outcome};
use cpe_perfbench::spans::Tracer;
use cpe_perfbench::workloads::{Bench, Kind, Params};

const USAGE: &str = "usage: cpe-perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     \x20      cpe-perfbench --digests\n\
                     workloads: headline-full, trace-record, resweep-cached";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let parsed: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A scratch directory inside the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run still uses it.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// Every digest the full-scale workloads produce, unchecked.
fn fresh_digests(work_dir: PathBuf) -> Digests {
    let params = Params {
        expected: None,
        ..Params::full(work_dir)
    };
    let tracer = Tracer::off();
    let mut digests = Digests::new();
    for kind in [Kind::HeadlineFull, Kind::TraceRecord] {
        let mut bench = Bench::setup(kind, &params, 0, &tracer);
        bench.run_once(&tracer);
        digests.append(&mut bench.digests);
    }
    digests
}

fn print_outcome(kind: Kind, trace: bool, outcome: &Outcome) -> Result<String, String> {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "cpe-perfbench {} ({})",
        kind.name(),
        if trace { "traced" } else { "untraced" }
    );
    for def in defs {
        if let Some(value) = outcome.values.get(def.name) {
            println!("  {:<36} {:>16.6} {}", def.name, value, def.unit);
        }
    }
    if !trace {
        for (name, unit) in report::workload_figures(kind) {
            let value = outcome.figures.get(name).copied().unwrap_or(f64::NAN);
            let note = if *name == "headline_combined_pct" {
                "  (paper: 91%)"
            } else {
                ""
            };
            println!("  {name:<36} {value:>16.6} {unit}{note}");
        }
    }
    let walls: Vec<String> = outcome
        .walls
        .iter()
        .map(|wall| format!("{wall:.3}"))
        .collect();
    println!("  iteration walls (s): {}", walls.join(" "));
    println!(
        "  checks: {} attempted, {} failed",
        outcome.tally.attempted, outcome.tally.failed
    );
    report::result_line(
        outcome.tally.attempted,
        outcome.tally.failed,
        defs,
        &outcome.values,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let work_dir = match WorkDir::create() {
        Ok(dir) => dir,
        Err(error) => {
            eprintln!("cpe-perfbench: cannot create the work directory: {error}");
            return ExitCode::FAILURE;
        }
    };
    if args == ["--digests"] {
        print!("{}", render_expected(&fresh_digests(work_dir.0.clone())));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cpe-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params::full(work_dir.0.clone());
    let outcome = if args.trace {
        run::traced(args.kind, &params, args.seed, args.seconds)
    } else {
        run::untraced(args.kind, &params, args.seed, args.seconds)
    };
    match print_outcome(args.kind, args.trace, &outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("cpe-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
