//! The benchmark's own contract: metric names, `BENCHMARK.json`, the
//! correctness checks and their independence from the seed.
//!
//! Everything runs at `Scale::Test` with short windows so the suite is
//! quick in a debug build; the full-scale digests are checked by every
//! benchmark run against `expected.txt`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use cpe_core::{parse_json, JsonValue};
use cpe_exec::{CacheStatus, SweepResults};
use cpe_perfbench::check::{self, Digests};
use cpe_perfbench::report::{self, MetricDef, END_TO_END, PER_LAYER};
use cpe_perfbench::run::{self, LAYERS};
use cpe_perfbench::spans::Tracer;
use cpe_perfbench::workloads::{canonical_plan, seeded_plan, Bench, Kind, Params};
use cpe_workloads::Scale;

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test work directory");
    dir
}

fn small(name: &str) -> Params {
    Params {
        scale: Scale::Test,
        max_insts: Some(3_000),
        workers: 2,
        work_dir: work_dir(name),
        expected: None,
    }
}

fn digests_for(kind: Kind, params: &Params, seed: u64) -> Digests {
    let tracer = Tracer::off();
    let mut bench = Bench::setup(kind, params, seed, &tracer);
    let iteration = bench.run_once(&tracer);
    assert_eq!(iteration.tally.failed, 0, "{kind:?} seed {seed}");
    assert_eq!(bench.setup_tally.failed, 0, "{kind:?} seed {seed}");
    bench.digests
}

#[test]
fn every_metric_name_is_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let figures = Kind::ALL
        .iter()
        .flat_map(|&kind| report::workload_figures(kind).iter().map(|(name, _)| *name));
    for name in END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|def| def.name)
        .chain(figures)
    {
        assert!(report::valid_name(name), "{name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} must match [A-Za-z0-9_.-]+"
        );
        if END_TO_END
            .iter()
            .chain(PER_LAYER)
            .any(|def| def.name == name)
        {
            assert!(seen.insert(name), "{name} is declared twice");
        }
    }
    for layer in LAYERS {
        let name = format!("{layer}.self_s");
        assert!(
            PER_LAYER.iter().any(|def| def.name == name),
            "{name} is not declared"
        );
    }
    for def in END_TO_END {
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
    }
    let setup = END_TO_END.iter().find(|def| def.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|def| def.bound <= setup.bound));
    assert!(PER_LAYER.iter().all(|def| def.bound.is_none()));
}

fn benchmark_json_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn metrics_of(document: &JsonValue, list: &str) -> Vec<(String, String, String, Option<f64>)> {
    let JsonValue::Object(members) = document else {
        panic!("BENCHMARK.json is an object")
    };
    let Some((_, JsonValue::Array(items))) = members.iter().find(|(key, _)| key == list) else {
        panic!("BENCHMARK.json has a {list} list")
    };
    items
        .iter()
        .map(|item| {
            let JsonValue::Object(fields) = item else {
                panic!("metric entries are objects")
            };
            let text = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                Some((_, JsonValue::Text(text))) => text.clone(),
                other => panic!("{key}: {other:?}"),
            };
            let bound = fields
                .iter()
                .find_map(|(key, value)| match (key.as_str(), value) {
                    ("bound", JsonValue::Number(bound)) => Some(*bound),
                    _ => None,
                });
            (text("name"), text("unit"), text("better"), bound)
        })
        .collect()
}

fn declared(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
    defs.iter()
        .map(|def| {
            (
                def.name.to_string(),
                def.unit.to_string(),
                def.better.to_string(),
                def.bound,
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_declared_metrics() {
    let document = parse_json(&benchmark_json_text()).expect("BENCHMARK.json parses");
    assert_eq!(metrics_of(&document, "end_to_end"), declared(END_TO_END));
    assert_eq!(metrics_of(&document, "per_layer"), declared(PER_LAYER));
    let JsonValue::Object(members) = &document else {
        unreachable!()
    };
    let Some((_, JsonValue::Array(workloads))) = members.iter().find(|(key, _)| key == "workloads")
    else {
        panic!("BENCHMARK.json has a workloads list")
    };
    let listed: Vec<(String, String)> = workloads
        .iter()
        .map(|item| {
            let JsonValue::Object(fields) = item else {
                panic!("workload entries are objects")
            };
            let text = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                Some((_, JsonValue::Text(text))) => text.clone(),
                other => panic!("{key}: {other:?}"),
            };
            (text("name"), text("why"))
        })
        .collect();
    let known: Vec<(String, String)> = Kind::ALL
        .iter()
        .map(|kind| (kind.name().to_string(), kind.why().to_string()))
        .collect();
    assert_eq!(listed, known);
}

#[test]
fn the_command_prints_exactly_the_metrics_benchmark_json_lists() {
    let params = small("printed");
    for kind in Kind::ALL {
        let outcome = run::untraced(kind, &params, 5, 0.01);
        let names: BTreeSet<&str> = outcome.values.keys().map(String::as_str).collect();
        let want: BTreeSet<&str> = END_TO_END.iter().map(|def| def.name).collect();
        assert_eq!(names, want, "{kind:?}");
        let line = report::result_line(
            outcome.tally.attempted,
            outcome.tally.failed,
            END_TO_END,
            &outcome.values,
        )
        .expect("every end-to-end metric measured");
        assert!(line.starts_with("{\"correct\":true,"), "{line}");
        for def in END_TO_END {
            assert!(outcome.values[def.name] > 0.0, "{} must not be 0", def.name);
        }
    }
    let outcome = run::traced(Kind::TraceRecord, &params, 5, 0.01);
    let names: BTreeSet<&str> = outcome.values.keys().map(String::as_str).collect();
    let want: BTreeSet<&str> = PER_LAYER.iter().map(|def| def.name).collect();
    assert_eq!(names, want);
    assert_eq!(outcome.tally.failed, 0);
    for layer in LAYERS {
        assert!(
            outcome.values[&format!("{layer}.self_s")] > 0.0,
            "{layer} has no self time"
        );
    }
}

#[test]
fn the_traced_counts_repeat_whatever_the_workload_and_run_length() {
    let params = small("counts");
    let short = run::traced(Kind::TraceRecord, &params, 3, 0.01);
    let long = run::traced(Kind::ResweepCached, &params, 4, 0.5);
    assert!(long.walls.len() > short.walls.len());
    // Steals depend on which worker finishes first, so they may differ.
    let counts = PER_LAYER
        .iter()
        .filter(|def| def.unit == "count" && def.name != "exec.scheduler.steals");
    for def in counts {
        assert_eq!(
            short.values[def.name], long.values[def.name],
            "{}",
            def.name
        );
    }
}

#[test]
fn a_seed_permutation_leaves_every_digest_unchanged() {
    let params = small("seeds");
    assert_ne!(
        seeded_plan(&params, 1)
            .jobs()
            .iter()
            .map(|job| job.workload)
            .collect::<Vec<_>>(),
        seeded_plan(&params, 2)
            .jobs()
            .iter()
            .map(|job| job.workload)
            .collect::<Vec<_>>(),
        "the seeds must permute the submission order"
    );
    for kind in Kind::ALL {
        let first = digests_for(kind, &params, 1);
        let second = digests_for(kind, &params, 2);
        assert!(!first.is_empty());
        assert_eq!(first, second, "{kind:?}");
    }
}

#[test]
fn a_perturbed_cell_document_is_counted_as_failed() {
    let params = small("perturbed");
    let plan = canonical_plan(&params);
    let results = plan.run(2, None).expect("grid is valid");
    let tracer = Tracer::off();
    let mut expected = Digests::new();
    let clean = check::check_sweep(
        &tracer,
        &results,
        &plan,
        CacheStatus::Bypass,
        None,
        &mut expected,
    );
    assert_eq!(clean.failed, 0);

    // The same sweep, checked against its own digests, passes...
    let mut computed = Digests::new();
    let again = check::check_sweep(
        &tracer,
        &results,
        &plan,
        CacheStatus::Bypass,
        Some(&expected),
        &mut computed,
    );
    assert_eq!(again.failed, 0);

    // ...and one cycle more in one cell fails that cell and the
    // aggregates built from it.
    let mut outcomes = results.outcomes().to_vec();
    let document = outcomes[4].document.as_ref().expect("cell ran").clone();
    let cycles = results.summary_number(1, 1, "cycles").expect("cycles") as u64;
    let needle = format!("\"cycles\":{cycles},");
    let summary = document.find("\"summary\":").expect("a summary object");
    let at = summary + document[summary..].find(&needle).expect("summary cycles");
    let mut perturbed_doc = document.clone();
    perturbed_doc.replace_range(
        at..at + needle.len(),
        &format!("\"cycles\":{},", cycles + 1),
    );
    outcomes[4].document = Ok(perturbed_doc);
    let perturbed = SweepResults::assemble(plan.clone(), outcomes, 2, 0, 0.0);
    let tally = check::check_sweep(
        &tracer,
        &perturbed,
        &plan,
        CacheStatus::Bypass,
        Some(&expected),
        &mut computed,
    );
    assert_eq!(tally.attempted, again.attempted);
    assert!(
        tally.failed >= 2,
        "cell and aggregate must both fail: {tally:?}"
    );

    // A cell served the wrong way (a miss where a hit was due) fails too.
    let tally = check::check_sweep(
        &tracer,
        &results,
        &plan,
        CacheStatus::Hit,
        Some(&expected),
        &mut computed,
    );
    assert_eq!(tally.failed, results.outcomes().len() as u64);
}

#[test]
fn the_full_scale_expectations_cover_every_check() {
    let expected = check::parse_expected(check::EXPECTED);
    let params = small("coverage");
    let mut keys: BTreeSet<String> = BTreeSet::new();
    for kind in [Kind::HeadlineFull, Kind::TraceRecord] {
        keys.extend(digests_for(kind, &params, 0).into_keys());
    }
    let covered: BTreeSet<String> = expected.keys().cloned().collect();
    assert_eq!(keys, covered);
    let pct = |key: &str| expected[key].parse::<f64>().expect("a percentage");
    assert!((pct("headline/combined_pct") - 98.2).abs() < 0.05);
    assert!((pct("headline/naive_pct") - 84.7).abs() < 0.05);
}
