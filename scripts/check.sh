#!/usr/bin/env bash
# Pre-flight quality gate: formatting, lints, and the tier-1 suite.
#
# Usage: scripts/check.sh
#
# Runs the same checks CI runs, in the same order, stopping at the first
# failure. Intended both standalone and as the pre-flight for
# scripts/run_all_experiments.sh — a multi-hour experiment run should
# never start on a tree that fails a sub-minute gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check" >&2
cargo fmt --check

echo "== cargo clippy --workspace -D warnings" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test" >&2
cargo build --release
cargo test -q

# The trace feature gates every emission site; both halves of the cfg
# must keep building. The feature-on release build is covered above.
echo "== trace feature off: cargo build --release --no-default-features" >&2
cargo build --release -p cpe --no-default-features
cargo test -q -p cpe-core --no-default-features --lib

# Smoke the perf-gate loop end to end: a small bench must produce a
# report whose self-diff is clean at zero tolerance (the simulated
# counters are deterministic; wall-time fields are identical because the
# file is compared with itself).
echo "== bench smoke + self-diff gate" >&2
bench_out="$(mktemp -t cpe-bench-XXXXXX.json)"
scratch="$(mktemp -d -t cpe-check-XXXXXX)"
trap 'rm -f "$bench_out"; rm -rf "$scratch"' EXIT
cargo run --release --bin cpe -q -- bench --name check-smoke \
    --max 2000 --out "$bench_out" >/dev/null
cargo run --release --bin cpe -q -- diff "$bench_out" "$bench_out" \
    --tolerance 0 >/dev/null

# Soft perf gate: five bench runs at the baseline's instruction window,
# median total throughput compared against the best committed
# BENCH_baseline*.json. The tolerance is generous (60% of baseline) —
# wall time on a shared box is noisy, and this gate exists to catch
# gross regressions (an accidental debug path, a quadratic loop), not
# percent-level drift. The median run is archived as BENCH_latest.json
# (gitignored) for eyeballing finer drift.
echo "== bench perf gate: median-of-5 vs committed baseline" >&2
median_line="$(for i in 1 2 3 4 5; do
    cargo run --release --bin cpe -q -- bench --name check-perf \
        --max 20000 --out "$scratch/bench_$i.json" >/dev/null
    # The "total" object precedes "workloads", so the first
    # cycles_per_sec in the document is the suite total.
    rate="$(grep -o '"cycles_per_sec":[0-9.e+-]*' "$scratch/bench_$i.json" \
        | head -1 | cut -d: -f2)"
    echo "$rate $i"
done | sort -g | sed -n 3p)"
median_rate="${median_line% *}"
median_index="${median_line#* }"
cp "$scratch/bench_$median_index.json" BENCH_latest.json
baseline_rate=0
for baseline in BENCH_baseline*.json; do
    rate="$(grep -o '"cycles_per_sec":[0-9.e+-]*' "$baseline" \
        | head -1 | cut -d: -f2)"
    baseline_rate="$(awk -v a="$baseline_rate" -v b="$rate" \
        'BEGIN{print (b > a) ? b : a}')"
done
ratio="$(awk -v median="$median_rate" -v baseline="$baseline_rate" \
    'BEGIN{printf "%.2f", (baseline > 0) ? median / baseline : 0}')"
awk -v median="$median_rate" -v baseline="$baseline_rate" \
    'BEGIN{exit !(median >= 0.60 * baseline)}' || {
    echo "perf gate: median $median_rate cycles/s is below 60% of the" \
         "baseline $baseline_rate (ratio $ratio) — investigate before" \
         "merging" >&2
    exit 1
}
echo "   median $median_rate cycles/s vs baseline $baseline_rate" \
     "(ratio $ratio, gate 0.60)" >&2

# Golden-metrics gate: the event-driven scheduler must be invisible in
# every architectural counter. GOLDEN_metrics.json pins a two-config
# sweep (the naive 1-port floor and the 4-port high end, all default
# workloads at 20k instructions); a fresh run must match it bit for bit
# — `cpe diff` at zero tolerance, no drift budget at all. Any scheduler
# or memory-model change that alters timing by even one cycle fails
# here and must regenerate the golden file deliberately, with the diff
# in the PR.
echo "== golden metrics: zero-tolerance architectural diff" >&2
cargo run --release --bin cpe -q -- sweep --configs "1-port naive,4-port" \
    --max 20000 --no-cache --metrics-json "$scratch/golden_fresh.json" \
    >/dev/null 2>&1
cargo run --release --bin cpe -q -- diff GOLDEN_metrics.json \
    "$scratch/golden_fresh.json" --tolerance 0 >/dev/null

# Execution-layer gate (see docs/EXECUTION.md): a 2-worker smoke sweep,
# then the same sweep again — the re-run must be served entirely from
# the result cache, and both the table (stdout) and the metrics
# document must be byte-identical, with `cpe diff` clean at zero
# tolerance. This is the contract `cpe sweep` rests on: worker count
# and cache state never change a byte of output.
echo "== parallel sweep smoke + cache-hit gate" >&2
sweep() {
    cargo run --release --bin cpe -q -- sweep --jobs 2 --max 2000 \
        --workloads compress,sort --cache-dir "$scratch/cache" \
        --metrics-json "$1"
}
sweep "$scratch/sweep1.json" > "$scratch/table1.txt" 2>/dev/null
sweep "$scratch/sweep2.json" > "$scratch/table2.txt" 2> "$scratch/rerun.log"
grep -q "hit rate 100.0%" "$scratch/rerun.log" || {
    echo "sweep re-run was not served fully from the cache:" >&2
    cat "$scratch/rerun.log" >&2
    exit 1
}
cmp "$scratch/table1.txt" "$scratch/table2.txt"
cargo run --release --bin cpe -q -- diff "$scratch/sweep1.json" \
    "$scratch/sweep2.json" --tolerance 0 >/dev/null

# Replay gate (see docs/REPLAY.md): the same smoke grid under
# `--backend replay` must be byte-identical to the direct run above —
# same stdout table, `cpe diff` clean at zero tolerance — while
# recording each workload's committed path exactly once before
# scheduling and reusing it for every cell (100% trace reuse: the
# footer's `reused` count equals the cell count). Replay cache entries
# are keyed apart from direct ones, so a fresh cache dir keeps every
# cell a real recomputation and the comparison honest.
echo "== replay gate: record-once sweep, zero-tolerance vs direct" >&2
cpe_bin=target/release/cpe
"$cpe_bin" sweep --jobs 2 --max 2000 --workloads compress,sort \
    --cache-dir "$scratch/cache_replay" --backend replay \
    --metrics-json "$scratch/replay.json" \
    > "$scratch/replay_table.txt" 2> "$scratch/replay.log"
cmp "$scratch/table1.txt" "$scratch/replay_table.txt"
"$cpe_bin" diff "$scratch/sweep1.json" "$scratch/replay.json" \
    --tolerance 0 >/dev/null
footer="$(grep -E 'cells in .*trace: [0-9]+ recorded, [0-9]+ reused' \
    "$scratch/replay.log" | tail -1)" || {
    echo "replay gate: no trace footer in the sweep stderr:" >&2
    cat "$scratch/replay.log" >&2
    exit 1
}
cells="$(echo "$footer" | grep -oE '^[0-9]+')"
recorded="$(echo "$footer" | grep -oE 'trace: [0-9]+' | grep -oE '[0-9]+')"
reused="$(echo "$footer" | grep -oE '[0-9]+ reused' | grep -oE '[0-9]+')"
[ "$reused" = "$cells" ] && [ "$recorded" -lt "$cells" ] || {
    echo "replay gate: expected 100% trace reuse ($cells cells), got" \
         "$recorded recorded, $reused reused" >&2
    exit 1
}

# Soft replay perf gate, same philosophy as the bench gate: the ratio
# exists to catch the replay hot path regressing to slower than direct
# (a decode path gone quadratic, a lost Arc share), not to demand a
# particular speedup. On this Test-scale smoke grid the timing core —
# which both backends pay identically — dominates each cell, so the
# wall-time ratio sits well below the 6x reduction in functional
# executions asserted above; the measured median-of-3 ratio is printed
# and recorded in BENCH_latest.json for eyeballing drift.
echo "== replay perf: median-of-3 wall-time ratio vs direct" >&2
sweep_ms() {
    local total start end
    start="$(date +%s%N)"
    "$cpe_bin" sweep --jobs 2 --max 50000 --workloads compress,sort \
        --no-cache --backend "$1" >/dev/null 2>&1
    end="$(date +%s%N)"
    echo $(( (end - start) / 1000000 ))
}
median_of_3() {
    { sweep_ms "$1"; sweep_ms "$1"; sweep_ms "$1"; } | sort -n | sed -n 2p
}
direct_ms="$(median_of_3 direct)"
replay_ms="$(median_of_3 replay)"
replay_speedup="$(awk -v d="$direct_ms" -v r="$replay_ms" \
    'BEGIN{printf "%.2f", (r > 0) ? d / r : 0}')"
sed -i "s/^{/{\"replay_sweep_speedup\":$replay_speedup,/" BENCH_latest.json
"$cpe_bin" diff BENCH_latest.json BENCH_latest.json --tolerance 0 >/dev/null
awk -v r="$replay_speedup" 'BEGIN{exit !(r >= 0.90)}' || {
    echo "replay perf gate: replay sweep ($replay_ms ms) is slower than" \
         "direct ($direct_ms ms) beyond noise (speedup $replay_speedup," \
         "gate 0.90) — investigate before merging" >&2
    exit 1
}
echo "   direct $direct_ms ms vs replay $replay_ms ms (speedup" \
     "${replay_speedup}x, soft gate 0.90; functional executions" \
     "$cells -> $recorded)" >&2

# Cycle-accounting gate (see docs/OBSERVABILITY.md "CPI stacks"): every
# cpi_stack in the fresh golden document and the smoke-sweep document
# must conserve commit slots exactly — sum(causes) == total ==
# cycles × commit_width, integer equality, no tolerance. Then the
# per-instruction pipeline view must round-trip: a pipeview export over
# a traced run has to pass the Konata validator.
echo "== CPI stacks conserve + pipeview Konata artifact" >&2
cargo run --release --bin cpe -q -- validate --cpi \
    "$scratch/golden_fresh.json" "$scratch/sweep1.json" >/dev/null
cargo run --release --bin cpe -q -- pipeview --workload compress \
    --max 2000 -o "$scratch/pipe.kanata" >/dev/null
cargo run --release --bin cpe -q -- validate "$scratch/pipe.kanata" \
    >/dev/null

# Fabric gate (see docs/EXECUTION.md "The sweep fabric"): the same grid
# leased out over TCP to two local workers, with one of them SIGKILLed
# mid-sweep, and the full observability stack attached — JSONL event
# log, Chrome trace, fleet metrics, and a mid-sweep `cpe status` query.
# The coordinator must reassign the orphaned lease and the assembled
# output — table and metrics document — must be byte-identical to the
# serial run above, at zero tolerance: observability is side-channel
# only and must never perturb a result. A couple of seeded chaos casts
# ride along as the standing fault-injection gate.
echo "== fabric smoke: coordinator + 2 workers, one SIGKILLed, observed" >&2
cpe_bin=target/release/cpe
fabric_port=$((20000 + $$ % 20000))
"$cpe_bin" sweep --coordinator "127.0.0.1:$fabric_port" --max 2000 \
    --workloads compress,sort --no-cache --lease-ms 1000 --heartbeat-ms 200 \
    --metrics-json "$scratch/fabric.json" \
    --fabric-log "$scratch/fabric_events.jsonl" \
    --fabric-trace "$scratch/fabric_trace.json" \
    --fabric-metrics "$scratch/fabric_metrics.json" \
    > "$scratch/fabric_table.txt" 2> "$scratch/fabric.log" &
coordinator_pid=$!
sleep 0.5
"$cpe_bin" status --connect "127.0.0.1:$fabric_port" > "$scratch/status.txt"
grep -q "cell(s) done" "$scratch/status.txt"
# Serve traffic on the coordinator's port is read under the 64 KiB serve
# request cap, not the 1 MiB fabric frame cap: an oversized line gets
# the refusal naming the cap enforced, and the sweep carries on.
pad="$(head -c 70000 /dev/zero | tr '\0' x)"
exec 3<>"/dev/tcp/127.0.0.1/$fabric_port"
printf '{"workload":"sort","pad":"%s"}\n' "$pad" >&3 2>/dev/null || true
refusal=""
IFS= read -r -t 10 refusal <&3 || true
exec 3<&- 3>&-
case "$refusal" in
    *'"request exceeds 65536 bytes, closing"'*) ;;
    *)
        echo "oversized serve line on the coordinator port was not refused: $refusal" >&2
        kill "$coordinator_pid" 2>/dev/null || true
        exit 1
        ;;
esac
"$cpe_bin" worker --connect "127.0.0.1:$fabric_port" --no-cache \
    --name check-victim 2>/dev/null &
victim_pid=$!
sleep 0.4
kill -9 "$victim_pid" 2>/dev/null || true
"$cpe_bin" worker --connect "127.0.0.1:$fabric_port" --no-cache \
    --name check-survivor 2>/dev/null &
survivor_pid=$!
wait "$coordinator_pid" || {
    echo "fabric sweep failed:" >&2
    cat "$scratch/fabric.log" >&2
    exit 1
}
wait "$survivor_pid" 2>/dev/null || true
cmp "$scratch/table1.txt" "$scratch/fabric_table.txt"
cargo run --release --bin cpe -q -- diff "$scratch/sweep1.json" \
    "$scratch/fabric.json" --tolerance 0 >/dev/null
# The observability artifacts must all parse, and carry the shapes the
# docs promise: a worker_connect event, a fabric metrics object, one
# trace lane per worker, and the status query the coordinator counted.
"$cpe_bin" validate "$scratch/fabric_events.jsonl" \
    "$scratch/fabric_trace.json" "$scratch/fabric_metrics.json" >/dev/null
grep -q '"event":"worker_connect"' "$scratch/fabric_events.jsonl"
grep -q '"kind":"fabric"' "$scratch/fabric_metrics.json"
grep -q '"status_queries":1' "$scratch/fabric_metrics.json"
grep -q '"thread_name"' "$scratch/fabric_trace.json"

echo "== fabric chaos: seeded fuzz cases" >&2
cargo run --release --bin cpe -q -- fuzz-fabric --cases 2 --seed "$$" \
    >/dev/null

# Trace-corruption gate: seeded bit flips, overwritten bytes and
# truncations of a CPER recording, each replayed through the timing
# model. Every mutant must come back clean or as a typed error; a panic
# exits nonzero and the printed seed reproduces the campaign.
echo "== trace chaos: seeded CPER corruption cases" >&2
cargo run --release --bin cpe -q -- fuzz-trace --cases 200 --seed "$$" \
    >/dev/null

echo "all checks passed" >&2
