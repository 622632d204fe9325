//! End-to-end chaos tests of the distributed sweep fabric, over real
//! TCP sockets: hostile workers of every stripe against the
//! coordinator, with the acceptance bar that the assembled sweep is
//! byte-identical to a serial run — or, when failure is injected
//! deliberately past the retry budget, that it surfaces as
//! `FAILED(<kind>)` cells rather than a hang or a silently short grid.

use cpe_exec::chaos::{chaos_case, run_with_behaviors, test_options, tiny_plan, Behavior};

#[test]
fn hung_worker_loses_its_lease_by_expiry_and_metrics_match() {
    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let run = run_with_behaviors(&plan, test_options(), &[Behavior::Hangs, Behavior::Healthy])
        .expect("fabric survives the hang");
    assert_eq!(run.results.aggregate_json(), serial.aggregate_json());
    assert_eq!(
        run.results.ipc_table().to_csv(),
        serial.ipc_table().to_csv()
    );
    assert_eq!(run.results.stats.failed, 0);
    assert!(
        run.stats.expired >= 1,
        "the silent lease expired by deadline: {}",
        run.stats
    );
}

#[test]
fn garbage_frames_cost_only_that_connection() {
    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let run = run_with_behaviors(
        &plan,
        test_options(),
        &[Behavior::Garbage, Behavior::Garbage, Behavior::Healthy],
    )
    .expect("fabric survives garbage");
    assert_eq!(run.results.aggregate_json(), serial.aggregate_json());
    assert!(
        run.stats.protocol_errors >= 2,
        "garbage was counted and refused: {}",
        run.stats
    );
}

#[test]
fn torn_result_frames_are_discarded_and_the_cell_reruns() {
    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let run = run_with_behaviors(
        &plan,
        test_options(),
        &[Behavior::TornResult, Behavior::Healthy],
    )
    .expect("fabric survives the torn frame");
    assert_eq!(run.results.aggregate_json(), serial.aggregate_json());
    assert_eq!(run.results.stats.failed, 0);
    assert!(
        run.stats.reassigned >= 1,
        "the torn connection's lease was requeued: {}",
        run.stats
    );
}

#[test]
fn slow_workers_results_arrive_stale_but_metrics_still_match() {
    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let run = run_with_behaviors(&plan, test_options(), &[Behavior::Slow, Behavior::Healthy])
        .expect("fabric survives slowness");
    assert_eq!(run.results.aggregate_json(), serial.aggregate_json());
    assert_eq!(run.results.stats.failed, 0);
}

#[test]
fn immediate_deaths_and_kills_combined_still_converge() {
    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let run = run_with_behaviors(
        &plan,
        test_options(),
        &[
            Behavior::DiesImmediately,
            Behavior::KillsMidJob,
            Behavior::KillsMidJob,
            Behavior::Healthy,
        ],
    )
    .expect("fabric converges");
    assert_eq!(run.results.aggregate_json(), serial.aggregate_json());
    assert_eq!(run.results.stats.failed, 0);
    assert!(run.stats.workers_seen >= 4);
}

#[test]
fn single_job_requests_are_served_on_the_coordinator_listener_mid_sweep() {
    use cpe_exec::{Coordinator, ServeDefaults, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::AtomicBool;

    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = Server::new(None, ServeDefaults::default());
    let coordinator = Coordinator::new(plan.jobs(), test_options());
    let stop = AtomicBool::new(false);

    let report = std::thread::scope(|scope| {
        let worker_addr = addr.clone();
        let worker_stop = &stop;
        scope.spawn(move || {
            let _ = cpe_exec::run_worker(
                &worker_addr,
                None,
                &cpe_exec::WorkerOptions::default(),
                worker_stop,
            );
        });
        // A plain serve client on the same listener, mid-sweep: a job
        // request is answered, and its shutdown closes only *its*
        // connection, never the sweep.
        let client_addr = addr.clone();
        scope.spawn(move || {
            let stream = std::net::TcpStream::connect(&client_addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            writeln!(
                stream,
                "{{\"id\":1,\"workload\":\"sort\",\"config\":\"2-port\",\"max_insts\":2000}}"
            )
            .expect("request");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            assert!(reply.contains("\"id\":1"), "{reply}");
            assert!(reply.contains("\"result\":{"), "{reply}");
            writeln!(stream, "{{\"cmd\":\"shutdown\"}}").expect("shutdown");
            let mut ack = String::new();
            reader.read_line(&mut ack).expect("ack");
            assert!(ack.contains("\"shutdown\":true"), "{ack}");
        });
        coordinator.run(listener, &server).expect("sweep completes")
    });

    let results =
        cpe_exec::SweepResults::assemble(plan, report.outcomes, 1, 0, report.stats.wall_seconds);
    assert_eq!(
        results.aggregate_json(),
        serial.aggregate_json(),
        "a serve client's shutdown must not perturb the sweep"
    );
    assert_eq!(server.jobs_served(), 1, "the single-job request ran");
}

/// Serve traffic on a coordinator's port is read under the serve cap,
/// not the fabric frame cap, and the refusal names the cap enforced.
#[test]
fn oversized_serve_lines_on_the_coordinator_hit_the_serve_cap() {
    use cpe_exec::{Coordinator, ServeDefaults, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = Server::new(None, ServeDefaults::default());
    let coordinator = Coordinator::new(plan.jobs(), test_options());
    let stop = AtomicBool::new(false);

    let (report, (reply, after)) = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            // A ~100 KiB request: under the 1 MiB frame cap, over the
            // 64 KiB serve cap. Sent before any worker exists, so the
            // sweep is still running when it lands.
            let stream = std::net::TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            let pad = "x".repeat(100 * 1024);
            // The coordinator may close before reading all of it.
            let _ = writeln!(stream, "{{\"workload\":\"sort\",\"pad\":\"{pad}\"}}");
            let mut reply = String::new();
            let _ = reader.read_line(&mut reply);
            // After the refusal the connection is closed (EOF or reset).
            let mut after = String::new();
            let closed = matches!(reader.read_line(&mut after), Ok(0) | Err(_));
            // Then a healthy worker drains the sweep, whatever happened.
            let _ = cpe_exec::run_worker(&addr, None, &cpe_exec::WorkerOptions::default(), &stop);
            (reply, (!closed || !after.is_empty()).then_some(after))
        });
        let report = coordinator.run(listener, &server).expect("sweep completes");
        (report, client.join().expect("client thread"))
    });

    assert_eq!(
        reply.trim_end(),
        "{\"error\":\"request exceeds 65536 bytes, closing\"}"
    );
    assert_eq!(after, None, "the connection closes after the refusal");
    assert_eq!(server.jobs_served(), 0, "the padded job never ran");
    let results =
        cpe_exec::SweepResults::assemble(plan, report.outcomes, 1, 0, report.stats.wall_seconds);
    assert_eq!(
        results.aggregate_json(),
        serial.aggregate_json(),
        "an oversized serve line must not perturb the sweep"
    );
}

#[test]
fn seeded_fuzz_cases_hold_the_byte_identity_promise() {
    // A handful of seeds here; `cpe fuzz-fabric --cases N` sweeps more.
    for seed in [1, 2, 3] {
        let run = chaos_case(seed).expect("chaos case holds");
        assert_eq!(run.results.stats.failed, 0, "seed {seed}");
    }
}

/// Full observability under fault injection: every JSONL line parses,
/// the event counts reconcile with the coordinator's counters, the
/// `fabric` metrics document and Chrome trace are well formed — and
/// none of it perturbs the sweep's results by a single byte.
#[test]
fn observed_chaos_reconciles_events_with_counters_and_stays_byte_identical() {
    use cpe_exec::chaos::run_with_behaviors_observed;
    use cpe_exec::render::{bool_member, number_at, parse, text_member};
    use cpe_exec::{EventLog, FabricObserver, DEFAULT_EVENT_CAPACITY};
    use std::collections::HashMap;

    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let (log, buffer) = EventLog::to_buffer(DEFAULT_EVENT_CAPACITY);
    let run = run_with_behaviors_observed(
        &plan,
        test_options(),
        &[Behavior::KillsMidJob, Behavior::Healthy],
        FabricObserver::new(Some(log), true, None),
    )
    .expect("fabric survives the kill under observation");

    // Observability never touches the results: table and metrics are
    // byte-identical to the serial, unobserved run.
    assert_eq!(run.results.aggregate_json(), serial.aggregate_json());
    assert_eq!(
        run.results.ipc_table().to_csv(),
        serial.ipc_table().to_csv()
    );
    assert_eq!(run.results.stats.failed, 0);

    // Every log line is valid JSON with a named event and a timestamp.
    let contents = buffer.contents();
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut stale_results = 0u64;
    let mut lines = 0u64;
    for (index, line) in contents.lines().enumerate() {
        let value =
            parse(line).unwrap_or_else(|error| panic!("line {}: {error}: {line}", index + 1));
        assert!(
            number_at(&value, &["t_ms"]).is_some(),
            "line {} has a timestamp: {line}",
            index + 1
        );
        let event = text_member(&value, "event")
            .expect("event is a string")
            .expect("every line names its event")
            .to_string();
        if event == "result" && bool_member(&value, "stale").expect("stale is a bool") == Some(true)
        {
            stale_results += 1;
        }
        *counts.entry(event).or_default() += 1;
        lines += 1;
    }
    let summary = run.log.expect("a log was attached");
    assert_eq!(summary.dropped, 0, "a tiny grid never overflows the log");
    assert_eq!(summary.written, lines, "the summary matches the sink");

    // Events reconcile with the counters the footer reports: same
    // facts, two channels.
    let count = |name: &str| counts.get(name).copied().unwrap_or(0);
    let stats = &run.stats;
    assert_eq!(count("lease_grant"), stats.granted);
    assert_eq!(count("lease_expire"), stats.expired);
    assert_eq!(count("reassign"), stats.reassigned);
    assert_eq!(count("retry"), stats.retries);
    assert_eq!(count("cell_failed"), stats.failed as u64);
    assert_eq!(count("worker_connect"), stats.workers_seen);
    assert_eq!(count("wait"), stats.waits);
    assert_eq!(count("protocol_error"), stats.protocol_errors);
    assert_eq!(count("status_query"), stats.status_queries);
    assert_eq!(stale_results, stats.stale_results);
    assert_eq!(count("sweep_start"), 1);
    assert_eq!(count("sweep_done"), 1);

    // The fleet metrics document parses and carries the same counters.
    let metrics = parse(&run.fabric_json).expect("fabric metrics parse");
    assert_eq!(number_at(&metrics, &["schema"]), Some(2.0));
    assert_eq!(
        number_at(&metrics, &["fabric", "granted"]),
        Some(stats.granted as f64)
    );
    assert_eq!(
        number_at(&metrics, &["fabric", "workers_seen"]),
        Some(stats.workers_seen as f64)
    );
    assert_eq!(
        number_at(&metrics, &["fabric", "log", "written"]),
        Some(summary.written as f64)
    );

    // The Chrome trace parses and has one named lane per session.
    let trace = run.trace_json.expect("tracing was on");
    parse(&trace).expect("trace parses");
    assert_eq!(
        trace.matches("\"thread_name\"").count() as u64,
        stats.workers_seen,
        "one lane per worker session"
    );
}

/// The live `status` endpoint: answered mid-sweep without disturbing
/// the grid, and version skew is refused with a diagnosis, not a hang.
#[test]
fn status_frames_answer_mid_sweep_and_refuse_version_skew() {
    use cpe_exec::{query_status, Coordinator, ServeDefaults, Server, FABRIC_SCHEMA};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    let plan = tiny_plan();
    let serial = plan.run(1, None).expect("serial runs");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = Server::new(None, ServeDefaults::default());
    let coordinator = Coordinator::new(plan.jobs(), test_options());
    let stop = AtomicBool::new(false);
    let timeout = Duration::from_secs(2);

    let report = std::thread::scope(|scope| {
        let probe_addr = addr.clone();
        let worker_stop = &stop;
        scope.spawn(move || {
            // Probe before any worker exists: the whole grid is queued.
            let before = query_status(&probe_addr, u64::from(FABRIC_SCHEMA), timeout)
                .expect("status answers mid-sweep");
            assert_eq!(before.cells, 4);
            assert_eq!(before.done, 0);
            assert_eq!(before.queued, 4);
            assert_eq!(before.leased, 0);
            assert!(before.workers.is_empty());

            // A future protocol version gets a refusal, not an answer.
            let skew = query_status(&probe_addr, 999, timeout).expect_err("skew is refused");
            assert!(skew.contains("unsupported"), "{skew}");

            // Then a healthy worker drains the sweep.
            let _ = cpe_exec::run_worker(
                &probe_addr,
                None,
                &cpe_exec::WorkerOptions::default(),
                worker_stop,
            );
        });
        coordinator.run(listener, &server).expect("sweep completes")
    });

    assert_eq!(
        report.stats.status_queries, 1,
        "the skewed query is refused, not counted"
    );
    let results =
        cpe_exec::SweepResults::assemble(plan, report.outcomes, 1, 0, report.stats.wall_seconds);
    assert_eq!(
        results.aggregate_json(),
        serial.aggregate_json(),
        "status queries must not perturb the sweep"
    );
}
